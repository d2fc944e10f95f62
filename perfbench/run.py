"""Benchmark of caslab: one workload, one seed, a fixed measuring time.

Run from the root of a caslab checkout:

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (set-up time, wall time of one round,
peak resident memory); with ``--trace 1`` they are the per-layer figures of a
traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, here and in every child process,
# so the figures measure caslab and not the scheduler.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from common import CHILD_TIMEOUT_S, child_env  # noqa: E402
from tracer import Tracer, median_over  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli", "battery", "spectral", "scan")
SETUP_PROBES = 5
IMPORT_PROBES = 3

CLI_COMMANDS = (
    "reduce", "spectrum", "heat-trace", "finite-part",
    "stochastic", "boxint", "plates", "calibrate",
)
LAYER_CALLS = (
    "spectrum.enumerate_modes",
    "heattrace.regulated_trace",
    "heattrace.finite_part",
    "specfun.theta_eval",
    "stochastic.mc_estimate",
    "boxint.cell_overlap_energy",
    "plates.per_area_trace",
)
LAYER_SELF = (
    "spectrum.enumerate_modes",
    "heattrace.regulated_trace",
    "heattrace.finite_part",
    "heattrace.mixed_cell_heat_trace",
    "heattrace.short_time_coefficients",
    "heattrace.b_coefficient",
    "stochastic.mc_estimate",
    "stochastic.sample_U",
    "boxint.delta_mc",
    "boxint.cell_overlap_energy",
    "boxint.delta_quadrature",
    "boxint.log_concavity_scan",
    "boxint.positivity_chain",
    "riesz.momentum_integral",
    "riesz.schwinger_integral",
    "riesz.mollified_reduction",
    "riesz.two_step_chain",
    "plates.per_area_trace",
    "plates.finite_box_trace",
    "plates.theta_bar",
)
# per-layer metric -> (work counter recorded by the tracer, unit)
LAYER_COUNTS = {
    "spectrum.modes": ("modes", "count"),
    "spectrum.distinct_values": ("distinct_values", "count"),
    "specfun.theta_terms": ("theta_terms", "count"),
    "stochastic.draws": ("draws", "count"),
    "stochastic.batch_bytes_max": ("batch_bytes", "bytes"),
    "boxint.mc_pairs": ("mc_pairs", "count"),
    "heattrace.finite_part.cond_max": ("cond", "ratio"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"harness.import_s": "s"}
    units.update({f"harness.{c}.cold_s": "s" for c in CLI_COMMANDS})
    units.update({f"{name}.calls": "count" for name in LAYER_CALLS})
    units.update({f"{name}.self_s": "s" for name in LAYER_SELF})
    units.update({name: unit for name, (_, unit) in LAYER_COUNTS.items()})
    units.update({f"acceptance.criterion_{n}.s": "s" for n in range(1, 13)})
    units["trace.overhead_s"] = "s"
    return units


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _timed_ready(argv: list[str]) -> float:
    """Seconds from spawning a child until it prints its first line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, env=child_env()
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or not line.strip():
        raise RuntimeError(f"probe {argv} exited with {code}")
    return ready


def setup_probe_s(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: interpreter start, imports and inputs."""
    return _timed_ready(
        [str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-probe"]
    )


def import_probe_s() -> float:
    """Cold `import caslab.harness` in a fresh interpreter."""
    return _timed_ready(["-c", "import caslab.harness; print('ready')"])


def run_rounds(workload, budget_s: float, tracer: Tracer | None = None, after_round=None):
    """Whole rounds until the next one would end well past the budget.

    With a tracer, rounds alternate untraced and traced, starting untraced
    and ending traced; returns (untraced walls, traced walls, operations).
    `after_round`, if given, runs untimed after every round.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    ops = []
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        if traced:
            workload.trace_begin(tracer)
            span = tracer.open("round")
        try:
            round_ops = workload.round(index, tracer if traced else None)
        finally:
            if traced:
                tracer.close(span)
                workload.trace_end(tracer)
        walls[traced].append(sum(op.seconds for op in round_ops))
        ops.extend(round_ops)
        index += 1
        if after_round:
            after_round()
        elapsed = time.perf_counter() - start
        done = tracer is None or not index % 2
        if done and elapsed + 0.5 * elapsed / index > budget_s:
            return walls[False], walls[True], ops


def layer_metrics(tracer: Tracer, workload, overhead_s: float, import_s: float) -> dict:
    rounds = tracer.rounds()
    values: dict[str, float] = {"harness.import_s": import_s}
    cold = workload.cold_times()
    for command in CLI_COMMANDS:
        values[f"harness.{command}.cold_s"] = cold.get(command, 0.0)
    for name in LAYER_CALLS:
        values[f"{name}.calls"] = median_over(rounds, "calls", name)
    for name in LAYER_SELF:
        values[f"{name}.self_s"] = median_over(rounds, "self_s", name)
    for metric, (counter, _) in LAYER_COUNTS.items():
        values[metric] = median_over(rounds, "counts", counter)
    for n in range(1, 13):
        name = f"acceptance.criterion_{n}"
        values[f"{name}.s"] = median_over(rounds, "total_s", name)
    values["trace.overhead_s"] = overhead_s
    return values


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.machine()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def measure(workload, args) -> tuple[dict, list, dict]:
    """Runs the rounds; returns (metrics, ops, details written to the run file)."""
    details: dict = {"machine": machine_info()}
    if not args.trace:
        # probes between rounds sample the machine at different moments
        setup: list[float] = []

        def probe():
            if len(setup) < SETUP_PROBES:
                setup.append(setup_probe_s(args.workload, args.seed))

        walls, _, ops = run_rounds(workload, args.seconds, after_round=probe)
        while len(setup) < SETUP_PROBES:
            probe()
        details.update(setup_samples_s=setup, round_walls_s=walls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": workload.peak_rss_mb(),
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, ops, details
    import_s = statistics.median(import_probe_s() for _ in range(IMPORT_PROBES))
    tracer = Tracer()
    plain_walls, traced_walls, ops = run_rounds(workload, args.seconds, tracer)
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    details.update(
        round_walls_s=plain_walls, traced_round_walls_s=traced_walls, spans=tracer.spans
    )
    values = layer_metrics(tracer, workload, overhead, import_s)
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, ops, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "caslab" / "__init__.py").is_file():
        print(f"no caslab sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    import caslab

    if Path(caslab.__file__).resolve().parent != (src / "caslab").resolve():
        print(f"caslab imported from {caslab.__file__}, not {src}", file=sys.stderr)
        return 2
    module = importlib.import_module(f"{args.workload}_workload")
    workload = module.Workload(args.seed, out_dir)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        metrics, ops, details = measure(workload, args)
        failures = [f"{op.name}: {op.error}" for op in ops if op.error is not None]
        problems = workload.check([op for op in ops if op.error is None])
    finally:
        workload.close()
    peak_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in failures + problems:
        print(f"{args.workload}: {line}", file=sys.stderr)
    for note in workload.notes():
        print(f"{args.workload}: {note}", file=sys.stderr)
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        inputs=workload.describe(), failures=failures, problems=problems,
        op_seconds=[[op.name, op.seconds] for op in ops],
        notes=workload.notes(), peak_rss_self_mb=peak_self,
    )
    run_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    run_file.write_text(json.dumps(details, default=str) + "\n")
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
