"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import battery_workload  # noqa: E402
import cli_workload  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import scan_workload  # noqa: E402
import spectral_workload  # noqa: E402
from caslab import acceptance, heattrace, plates, spectrum, stochastic  # noqa: E402
from tracer import Tracer  # noqa: E402

BCS = (oracle.DIRICHLET, oracle.NEUMANN, oracle.PERIODIC)


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _triple_loop(axes, cutoff):
    """Eigenvalues by explicit index loops, one entry per mode."""
    ranges = []
    for length, bc in axes:
        top = int(length * math.sqrt(cutoff) / math.pi) + 2
        if bc == oracle.PERIODIC:
            ranges.append([(2.0 * math.pi * k / length) ** 2 for k in range(-top, top + 1)])
        else:
            start = 1 if bc == oracle.DIRICHLET else 0
            ranges.append([(math.pi * r / length) ** 2 for r in range(start, top + 1)])
    out = []
    for x in ranges[0]:
        for y in ranges[1]:
            for z in ranges[2]:
                if x + y + z <= cutoff:
                    out.append(x + y + z)
    return sorted(out)


@pytest.mark.parametrize("bcs", list(itertools.product(BCS, repeat=3)))
def test_lattice_enumerator_matches_triple_loop(bcs):
    axes = tuple(zip((1.0, 1.7, 0.6), bcs))
    ref = _triple_loop(axes, 120.0)
    got = sorted(oracle.lattice_values(axes, 120.0).tolist())
    assert len(got) == len(ref)
    assert got == pytest.approx(ref, rel=1e-14)


def test_closed_forms():
    assert oracle.delta_cube() == pytest.approx(1.8823126443896601, rel=1e-15)
    assert oracle.reduction_constant(1, 3.0) == pytest.approx(3.0 / 16.0, rel=1e-15)
    assert oracle.reduction_constant(3, 2.5) == pytest.approx(1.0 / (6.0 * math.pi**2), rel=1e-15)
    # per-area trace against its large-tau form: only n = 1 matters there
    a, tau = 1.0, 2.0
    c = tau * math.pi**2
    one_term = (0.5 * math.sqrt(math.pi) * math.erfc(math.sqrt(c)) + math.sqrt(c) * math.exp(-c))
    assert oracle.per_area_trace(a, tau) == pytest.approx(one_term / (8 * math.pi * tau**1.5), rel=1e-12)


def test_tracer_replaces_names_bound_on_import():
    original = spectrum.enumerate_modes
    tracer = Tracer()
    tracer.install()
    try:
        assert plates.enumerate_modes is spectrum.enumerate_modes is not original
        root = tracer.open("round")
        plates.finite_box_trace(plates.PlateConfig(a=1.0, L=2.0), 0.1)
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert plates.enumerate_modes is original and spectrum.enumerate_modes is original
    (agg,) = tracer.rounds()
    assert agg["calls"]["plates.finite_box_trace"] == 1
    assert agg["calls"]["spectrum.enumerate_modes"] == 1
    assert agg["calls"]["heattrace.regulated_trace"] == 1
    parents = {s[0]: tracer.spans[s[3]][0] for s in tracer.spans if s[3] >= 0}
    assert parents["spectrum.enumerate_modes"] == "plates.finite_box_trace"
    assert agg["counts"]["modes"] > 0


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["round", 0.0, 10.0, -1, None],
        ["a", 1.0, 5.0, 0, {"modes": 3}],
        ["b", 2.0, 3.0, 1, {"modes": 4}],
        ["b", 3.5, 4.0, 1, None],
    ]
    (agg,) = tracer.rounds()
    assert agg["self_s"]["a"] == pytest.approx(2.5)
    assert agg["self_s"]["b"] == pytest.approx(1.5)
    assert agg["calls"]["b"] == 2
    assert agg["counts"]["modes"] == 7


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# -- checkers reject perturbed outputs ---------------------------------------


def _one_round(module, seed=5):
    workload = module.Workload(seed, HERE / "out")
    try:
        ops = workload.round(0, None)
        assert all(op.error is None for op in ops), [op.error for op in ops]
        assert workload.check(ops) == []
    finally:
        workload.close()
    return workload, ops


def _perturbed(workload, ops, name_prefix, change):
    bad = copy.deepcopy(ops)
    target = next(op for op in bad if op.name.startswith(name_prefix))
    change(target)
    return workload.check(bad)


@pytest.fixture(scope="module")
def spectral_round():
    os.chdir(ROOT)
    return _one_round(spectral_workload)


@pytest.fixture(scope="module")
def scan_round():
    os.chdir(ROOT)
    return _one_round(scan_workload)


@pytest.fixture(scope="module")
def battery_round():
    os.chdir(ROOT)
    return _one_round(battery_workload)


@pytest.fixture(scope="module")
def cli_round():
    os.chdir(ROOT)
    return _one_round(cli_workload)


def _set(key, fn):
    def change(op):
        op.output[key] = fn(op.output[key])

    return change


@pytest.mark.parametrize(
    "prefix, change",
    [
        ("plate", _set("modes", lambda v: v + 1)),
        ("plate", _set("trace", lambda v: v * (1 + 1e-10))),
        ("plate", _set("per_area", lambda v: v * (1 + 1e-10))),
        ("cube", _set("trace", lambda v: v * (1 + 1e-10))),
        ("mixed", _set("modes", lambda v: v - 1)),
        ("mc", lambda op: op.output.update(mean=op.output["mean"] + 5 * op.output["stderr"])),
    ],
)
def test_spectral_checker_rejects(spectral_round, prefix, change):
    assert _perturbed(*spectral_round, prefix, change)


@pytest.mark.parametrize(
    "prefix, change",
    [
        ("alpha 1.0", _set("delta", lambda v: v + 1e-5)),
        ("alpha 1.0", _set("theta_bar", lambda v: v * (1 + 1e-5))),
        ("alpha 1.25", _set("b", lambda v: v * (1 + 1e-9))),
        ("quadrature 2.5", lambda op: setattr(op, "output", op.output + 1e-4)),
        ("concavity", _set("max_second_difference", lambda v: 1e-3)),
        ("positivity", _set("derivative_err", lambda v: 1e-5)),
        ("finite-part", _set("c0", lambda v: v * 1.01)),
        ("reduction (1, 3.0, 1.0)", _set("richardson", lambda v: v + 1e-6)),
        ("reduction (3, 2.5", _set("momentum", lambda v: v * (1 + 1e-7))),
        ("two-step", lambda op: setattr(op, "output", (op.output[0] * 1.001,) + op.output[1:])),
    ],
)
def test_scan_checker_rejects(scan_round, prefix, change):
    assert _perturbed(*scan_round, prefix, change)


@pytest.mark.parametrize("number", [4, 9, 12])
def test_battery_checker_rejects(battery_round, number):
    assert _perturbed(*battery_round, f"acceptance.criterion_{number}",
                      _set("passed", lambda v: False))


def test_battery_checker_keeps_criterion_3_red(battery_round):
    workload, ops = battery_round
    (red,) = [op for op in ops if op.name == "acceptance.criterion_3"]
    assert red.output["passed"] is False
    assert workload.notes()


@pytest.mark.parametrize(
    "prefix, change",
    [
        ("caslab reduce", lambda op: op.output["two_step_chain"].update(c_1d=0.19)),
        ("caslab spectrum", _set("mode_count", lambda v: v + 1)),
        ("caslab heat-trace", _set("b_closed_form", lambda v: v * 1.001)),
        ("caslab finite-part", lambda op: op.output["model"].update(c0=op.output["model"]["c0"] * 1.01)),
        ("caslab stochastic", lambda op: op.output["trace"].update(value=op.output["trace"]["value"] * 1.01)),
        ("caslab boxint", lambda op: op.output["deltas"].update({"2.000000": 1.0})),
        ("caslab plates", _set("casimir_zeta_route", lambda v: v * (1 + 1e-9))),
        ("caslab calibrate", lambda op: op.output["closed_form"].update(theta_bar=0.00729)),
        ("caslab calibrate", lambda op: op.output["manifest"]["params"].update(alpha=2.0)),
    ],
)
def test_cli_checker_rejects(cli_round, prefix, change):
    assert _perturbed(*cli_round, prefix, change)


# -- the seed pools pass their statistical tests -----------------------------


@pytest.mark.parametrize("seed", battery_workload.SEED_POOL)
def test_battery_seed_pool(seed):
    for number in (4, 5, 6, 9):
        assert acceptance.run_criterion(number, seed).passed


@pytest.mark.parametrize("tau, seed", cli_workload.STOCHASTIC_POOL)
def test_cli_stochastic_pool(tau, seed):
    axes = ((1.0, oracle.DIRICHLET),) * 3
    box = spectrum.BoxSpec(tuple(spectrum.AxisSpec(*ax) for ax in axes))
    stream = spectrum.enumerate_modes(box, 200.0)
    trace = heattrace.regulated_trace(stream, tau).value
    est = stochastic.mc_estimate(stochastic.SourceSpec(stream=stream, tau=tau), n=100_000, seed=seed)
    assert abs(est.mean - trace) <= 3.0 * est.stderr


@pytest.mark.parametrize("seed", spectral_workload.MC_SEED_POOL)
def test_spectral_seed_pool(seed):
    for cutoff, tau in spectral_workload.MC_SPECTRA:
        axes = spectral_workload._cube_axes(1.0)
        out = spectral_workload._mc(axes, cutoff, tau, seed)
        _, trace = oracle.lattice_count_and_trace(axes, cutoff, tau)
        assert abs(out["mean"] - trace) <= spectral_workload.MC_Z_LIMIT * out["stderr"]


# -- whole runs ---------------------------------------------------------------


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run(workload):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.per_layer_units()
    assert result["metrics"]["harness.import_s"]["value"] > 0


def test_smoke_untraced_run():
    proc = _run(["--workload", "battery", "--seed", "4", "--seconds", "1", "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
