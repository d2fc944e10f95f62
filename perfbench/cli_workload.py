"""`cli`: the eight computing subcommands, each in a fresh interpreter.

About 1.0 s of each ~1.1 s command is `import caslab.harness`, most of it
scipy.integrate, so this is the workload where lazy imports or removed dead
surface show.  `verify-all` stays out: its Monte Carlo would bury the import
cost, and the `battery` workload runs the same criteria.

A round runs every command once with `python -m caslab.harness`, writing its
reports into a directory under perfbench/out.  `spectrum` writes JSON and
CSV (`--format both`) and `calibrate` reads its parameters from `--config`.
The benchmark seed draws the parameters; each draw keeps the work fixed
(the spectrum cutoff scales as 1/a^2 so the mode count does not move).
"""

from __future__ import annotations

import json
import math
import random
import shutil
import statistics
import tempfile
from pathlib import Path

import oracle
from common import Checks, Op, run_child

HERE = Path(__file__).resolve().parent
COMMANDS = (
    "reduce", "spectrum", "heat-trace", "finite-part",
    "stochastic", "boxint", "plates", "calibrate",
)
SPECTRUM_CUTOFF = 150.0  # times 1 / a^2
# (tau, seed) pairs for which `caslab stochastic` (cube, cutoff 200, 100k
# draws) passes its z <= 3 check; checked by test_perfbench.test_cli_stochastic_pool.
STOCHASTIC_POOL = (
    (0.3, 7), (0.3, 42), (0.4, 11), (0.4, 23),
    (0.5, 42), (0.5, 5), (0.6, 19), (0.6, 3),
)
# Powers of two scale plates.default_tau_grid exactly; for about 30% of other
# separations `finite-part` and `plates` exit 1 (see CHANGES.md).
PLATE_SEPARATIONS = (0.5, 1.0, 2.0)
PIPELINE_TOLERANCE = 7.5e-3  # declared bound of the calibration pipeline


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class Workload:
    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        a_spec = _draw(rng, 0.8, 1.25)
        tau, mc_seed = rng.choice(STOCHASTIC_POOL)
        self.params = {
            "reduce": {"lam": _draw(rng, 0.5, 4.0)},
            "spectrum": {"a": a_spec, "alpha": _draw(rng, 1.1, 2.0),
                         "cutoff": SPECTRUM_CUTOFF / a_spec**2},
            "heat-trace": {"a": _draw(rng, 0.8, 1.25), "alpha": _draw(rng, 1.1, 2.0)},
            "finite-part": {"a": rng.choice(PLATE_SEPARATIONS)},
            "stochastic": {"tau": tau, "cutoff": 200.0, "n_samples": 100_000},
            "boxint": {},
            "plates": {"a": rng.choice(PLATE_SEPARATIONS)},
            "calibrate": {"alpha": 1.0, "n_channels": 2},
        }
        self.seeds = {c: 42 for c in COMMANDS}
        self.seeds["stochastic"] = mc_seed
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        self.config = self.dir / "calibrate-config.json"
        self.config.write_text(json.dumps(self.params["calibrate"]))
        self.cold: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.rss: list[float] = []

    def describe(self) -> dict:
        return {"params": self.params, "seeds": self.seeds}

    def argv(self, command: str, out: Path) -> list[str]:
        args = [command, "--out", str(out), "--seed", str(self.seeds[command])]
        if command == "calibrate":
            return args + ["--config", str(self.config)]
        for key, value in self.params[command].items():
            args += [f"--{key.replace('_', '-')}", repr(value)]
        if command == "spectrum":
            args += ["--format", "both"]
        return args

    def round(self, index: int, tracer) -> list:
        ops = []
        for command in COMMANDS:
            out = self.dir / f"{command}-{index}"
            log = self.dir / f"{command}-{index}.log"
            if tracer:
                spans_path = self.dir / f"{command}-{index}.spans.json"
                span = tracer.open(f"harness.{command}")
                code, wall, rss = run_child(
                    [str(HERE / "traced_child.py"), str(spans_path)] + self.argv(command, out), log
                )
                tracer.close(span)
                if spans_path.exists():
                    tracer.adopt(json.loads(spans_path.read_text()), span)
            else:
                code, wall, rss = run_child(["-m", "caslab.harness"] + self.argv(command, out), log)
                self.cold[command].append(wall)
                self.rss.append(rss)
            op = Op(f"caslab {command}", wall, args=(command,))
            if code != 0:
                op.error = f"exit {code}: {log.read_text()[-400:]}"
            else:
                op.output = self._read(command, out)
            shutil.rmtree(out, ignore_errors=True)
            ops.append(op)
        return ops

    @staticmethod
    def _read(command: str, out: Path) -> dict:
        report = json.loads((out / f"{command}.json").read_text())
        if command == "spectrum":
            rows = (out / "spectrum_modes.csv").read_text().splitlines()
            report["csv_rows"] = [tuple(float(x) for x in r.split(",")) for r in rows[1:]]
        return report

    def trace_begin(self, tracer) -> None:
        """Traced rounds run each command under traced_child.py instead."""

    def trace_end(self, tracer) -> None:
        pass

    def cold_times(self) -> dict[str, float]:
        return {c: statistics.median(t) for c, t in self.cold.items() if t}

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the largest command process."""
        return max(self.rss)

    def notes(self) -> list[str]:
        return []

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def check(self, ops) -> list[str]:
        checks = Checks()
        for op in ops:
            (command,) = op.args
            report = op.output
            manifest = report["manifest"]
            checks.expect(report["passed"] is True, f"{command}: report not passed")
            checks.expect(all(c["passed"] for c in report.get("checks", [])),
                          f"{command}: a report check failed")
            checks.expect(manifest["command"] == command and manifest["seed"] == self.seeds[command],
                          f"{command}: manifest {manifest}")
            expected = {k: float(v) for k, v in self.params[command].items()}
            got = {k: float(v) for k, v in manifest["params"].items()}
            checks.expect(got == expected, f"{command}: params {got}, passed {expected}")
            getattr(self, "_check_" + command.replace("-", "_"))(checks, report)
        return checks.problems

    def _check_reduce(self, checks, report):
        lam = self.params["reduce"]["lam"]
        chain = report["two_step_chain"]
        checks.rel(chain["c_1d"], oracle.reduction_constant(1, 3.0), 1e-13, "reduce C(1,3)")
        checks.rel(chain["c_3d"], oracle.reduction_constant(3, 2.5), 1e-13, "reduce C(3,5/2)")
        checks.rel(chain["c_1d"] * chain["c_3d"], oracle.CHAIN_PRODUCT, 1e-14,
                   "reduce two-step product vs 1/(32 pi^2)")
        checks.rel(chain["nested"], oracle.CHAIN_PRODUCT / lam, 1e-7, "reduce nested chain")

    def _check_spectrum(self, checks, report):
        p = self.params["spectrum"]
        l1, l2, a = p["alpha"] * p["a"], p["a"] / p["alpha"], p["a"]
        axes = ((l1, oracle.NEUMANN), (l2, oracle.NEUMANN), (a, oracle.DIRICHLET))
        count = oracle.lattice_values(axes, p["cutoff"]).size
        checks.expect(report["mode_count"] == count,
                      f"spectrum: {report['mode_count']} modes, lattice count {count}")
        rows = report["csv_rows"]
        checks.expect(sum(int(m) for _, m in rows) == count and len(rows) == len(report["stream"]["modes"]),
                      "spectrum: CSV table disagrees with the mode count")
        checks.rel(report["lateral_gap"], (math.pi / max(l1, l2)) ** 2, 1e-14, "spectrum lateral gap")
        checks.rel(report["saturation"]["ratio"], min(p["alpha"], 1.0 / p["alpha"]) ** 2, 1e-12,
                   "spectrum saturation ratio")

    def _check_heat_trace(self, checks, report):
        p = self.params["heat-trace"]
        l1, l2, a = p["alpha"] * p["a"], p["a"] / p["alpha"], p["a"]
        b = oracle.b_coefficient(l1, l2, a)
        checks.rel(report["b_closed_form"], b, 1e-12, "heat-trace B")
        checks.rel(report["coefficients"]["t^-3/2"], oracle.volume_coefficient(l1, l2, a), 1e-3,
                   "heat-trace volume coefficient")
        checks.rel(report["coefficients"]["t^-1"], b, 1e-2, "heat-trace area coefficient")

    def _check_finite_part(self, checks, report):
        a = self.params["finite-part"]["a"]
        checks.rel(report["model"]["c0"], oracle.plate_finite_part(a), 5e-3,
                   "finite-part c0 vs -pi^2/(1440 a^3)")

    def _check_stochastic(self, checks, report):
        p = self.params["stochastic"]
        axes = ((1.0, oracle.DIRICHLET),) * 3
        _, trace = oracle.lattice_count_and_trace(axes, p["cutoff"], p["tau"])
        checks.rel(report["trace"]["value"], trace, 1e-12, "stochastic regulated trace")
        est = report["estimate"]
        checks.expect(abs(est["mean"] - trace) <= 3.0 * est["stderr"],
                      f"stochastic: mean {est['mean']!r} more than 3 stderr from {trace!r}")

    def _check_boxint(self, checks, report):
        deltas = report["deltas"]
        checks.within(deltas["1.000000"], oracle.delta_cube(), 1e-6, "boxint Delta(1)")
        for al, inv in (("0.500000", "2.000000"), ("0.666667", "1.500000"), ("0.750000", "1.333333")):
            checks.within(deltas[al], deltas[inv], 1e-8, f"boxint Delta({al}) = Delta({inv})")
        checks.expect(max(deltas, key=deltas.get) == "1.000000", "boxint: Delta not largest at 1")
        checks.expect(report["concavity_passed"] and report["positivity_passed"],
                      "boxint: concavity or positivity failed")

    def _check_plates(self, checks, report):
        target = oracle.plate_finite_part(self.params["plates"]["a"])
        checks.rel(report["casimir_zeta_route"], target, 1e-12, "plates zeta route")
        checks.rel(report["casimir_heat_fit"], target, 5e-3, "plates heat fit")

    def _check_calibrate(self, checks, report):
        want = oracle.theta_bar(oracle.delta_cube(), 2)
        closed = report["closed_form"]["theta_bar"]
        checks.rel(closed, want, 1e-6, "theta_bar(1, 2) vs 2 pi^2 / (1440 Delta(1))")
        checks.within(closed, oracle.THETA_BAR_QUOTED, 5e-8, "theta_bar(1, 2) vs 0.0072824")
        checks.rel(report["theta_bar"]["pipeline_value"], closed, PIPELINE_TOLERANCE,
                   "calibrate pipeline vs closed form")
