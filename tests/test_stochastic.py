"""Gaussian source draws and the Monte Carlo trace estimator."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from caslab import heattrace, plates, spectrum, stochastic
from caslab.errors import ParameterError, ResourceError

D = spectrum.Bc.DIRICHLET


@pytest.fixture(scope="module")
def cube_stream():
    axis = spectrum.AxisSpec(1.0, D)
    return spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 200.0)


class OnesRng:
    """Stand-in generator whose normals are all 1."""

    def standard_normal(self, size=None):
        return np.ones(size)


def test_forced_unit_draw_reproduces_trace(cube_stream):
    # with every xi = 1 the quadratic energy collapses to the regulated trace
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    u = stochastic.sample_U(spec, OnesRng())
    want = heattrace.regulated_trace(cube_stream, 0.5).value
    assert u == pytest.approx(want, rel=1e-12)


def test_sigma_components_shape_and_scale(cube_stream):
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5, g=4.0)
    sigma = stochastic.sample_sigma_components(spec, OnesRng())
    assert len(sigma) == cube_stream.mode_count
    lam0 = float(cube_stream.values[0])
    want0 = math.sqrt(1.0 / 4.0) * lam0**0.75 * math.exp(-0.25 * lam0)
    assert sigma[0] == pytest.approx(want0, rel=1e-14)


def test_normalization_cancels_exactly(cube_stream):
    spec_a = stochastic.SourceSpec(stream=cube_stream, tau=0.5, g=1.0)
    spec_b = stochastic.SourceSpec(stream=cube_stream, tau=0.5, g=10.0)
    worst = 0.0
    for key in range(10):
        r1 = np.random.Generator(np.random.Philox(key=key))
        r2 = np.random.Generator(np.random.Philox(key=key))
        ua = stochastic.sample_U(spec_a, r1)
        ub = stochastic.sample_U(spec_b, r2)
        worst = max(worst, abs(ua - ub) / math.ulp(max(abs(ua), abs(ub))))
    assert worst <= 4.0


def test_mc_mean_matches_trace(cube_stream):
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    trace = heattrace.regulated_trace(cube_stream, 0.5).value
    est = stochastic.mc_estimate(spec, n=40_000, seed=11)
    assert abs(est.mean - trace) <= 4.0 * est.stderr
    assert est.n == 40_000 and est.seed == 11


def test_mc_variance_identity(cube_stream):
    tau = 0.5
    spec = stochastic.SourceSpec(stream=cube_stream, tau=tau)
    est = stochastic.mc_estimate(spec, n=200_000, seed=3)
    lam = cube_stream.modes()
    var_exact = 0.5 * float(np.sum(lam * np.exp(-2.0 * tau * lam)))
    var_mc = est.stderr**2 * est.n
    assert abs(var_mc / var_exact - 1.0) < 0.1


def test_mc_bit_reproducible(cube_stream):
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    a = stochastic.mc_estimate(spec, n=50_000, seed=42)
    b = stochastic.mc_estimate(spec, n=50_000, seed=42)
    assert a.mean == b.mean
    assert a.stderr == b.stderr


def test_mc_frozen_across_batches(cube_stream):
    # 140001 draws span three 65536-row batches; these values pin the stream,
    # the batch order and the reduction order
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    est = stochastic.mc_estimate(spec, n=140_001, seed=42)
    assert (est.mean, est.stderr) == (1.0048941318178257e-06, 3.787758413038303e-09)


def test_variance_merge_keeps_digits_under_a_large_mean():
    # a spread of 1e-3 on a mean of 1e6: sum-of-squares minus n mean^2 loses
    # all of it to cancellation, the per-batch (mean, M2) merge keeps it
    def offset_normal(rng, rows):
        vals = rng.standard_normal(rows)
        vals *= 1e-3
        vals += 1e6
        return vals

    n = 200_000
    est = stochastic.monte_carlo(offset_normal, n, seed=7, draws_per_row=1)
    assert est.stderr == pytest.approx(1e-3 / math.sqrt(n), rel=0.01)
    assert abs(est.mean - 1e6) <= 4.0 * est.stderr


def _exact_moments(stream, tau):
    """Mean, variance and fourth cumulant of U over the stream's modes.

    U = sum_j w_j xi_j^2 with w = lambda^{1/2} e^{-tau lambda} / 2; xi^2 is
    chi^2_1, with cumulants 2^{r-1}(r-1)!.
    """
    lam, mult = stream.values, stream.multiplicities
    w = 0.5 * np.sqrt(lam) * np.exp(-tau * lam)
    return (
        float(np.sum(mult * w)),
        2.0 * float(np.sum(mult * w**2)),
        48.0 * float(np.sum(mult * w**4)),
    )


def _z_scores(mean, var, n, exact):
    # the sample variance has variance (kappa_4 + 2 kappa_2^2) / n to leading order
    mu, kappa2, kappa4 = exact
    z_mean = (mean - mu) / math.sqrt(kappa2 / n)
    z_var = (var - kappa2) / math.sqrt((kappa4 + 2.0 * kappa2**2) / n)
    return z_mean, z_var


_MOMENT_BOXES = {
    # multiplicities 1, 3 and 6
    "cube": (spectrum.BoxSpec((spectrum.AxisSpec(1.0, D),) * 3), 200.0, 0.02),
    # periodic lateral axes: multiplicities 1, 4, 8, 12 and 16
    "plate": (plates.plate_box(4.0, 1.0), 60.0, 0.05),
    # incommensurate sides: every multiplicity is 1
    "generic": (
        spectrum.BoxSpec(
            tuple(
                spectrum.AxisSpec(length, bc)
                for length, bc in ((1.0, D), (1.3, D), (0.77, spectrum.Bc.NEUMANN))
            )
        ),
        200.0,
        0.02,
    ),
}


@pytest.mark.parametrize("box", sorted(_MOMENT_BOXES))
def test_samplers_match_exact_mean_and_variance(box):
    spec_box, cutoff, tau = _MOMENT_BOXES[box]
    stream = spectrum.enumerate_modes(spec_box, cutoff)
    spec = stochastic.SourceSpec(stream=stream, tau=tau)
    exact = _exact_moments(stream, tau)
    # grouped draws in mc_estimate
    est = stochastic.mc_estimate(spec, n=200_000, seed=13)
    z_est = _z_scores(est.mean, est.stderr**2 * est.n, est.n, exact)
    # the literal per-mode quadratic form in sample_U
    rng = np.random.Generator(np.random.Philox(13))
    u = np.array([stochastic.sample_U(spec, rng) for _ in range(10_000)])
    z_u = _z_scores(float(u.mean()), float(u.var(ddof=1)), u.size, exact)
    assert max(abs(z) for z in z_est + z_u) <= 4.0


def test_mc_batch_memory_is_bounded():
    # 1277 modes in 147 distinct values: a batch of 57065 rows would hold
    # 67 MB of draws at once; 1 MiB blocks bound the working set instead,
    # and the estimate over four batches is the one drawn as whole batches
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 2000.0)
    assert (stream.mode_count, stream.values.size) == (1277, 147)
    spec = stochastic.SourceSpec(stream=stream, tau=0.05)
    tracemalloc.start()
    try:
        est = stochastic.mc_estimate(spec, n=200_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert (est.mean, est.stderr) == (1.5134804368654913, 0.0022706171893552445)


def test_one_batch_is_alive_at_a_time(cube_stream):
    # 100,000 draws are two batches of at most 65,536 rows and 140,001 are
    # three; the peak held the previous batch's values while the next was
    # drawn (2.0 MiB against 2.5 MiB).  Now it may differ only by the few
    # scalars of the running merge
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    stochastic.mc_estimate(spec, n=1_000, seed=3)  # one-time allocations
    peaks = {}
    for n in (100_000, 140_001):
        tracemalloc.start()
        try:
            stochastic.mc_estimate(spec, n=n, seed=3)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[140_001] <= peaks[100_000] + 1024


def test_blocks_draw_what_whole_batches_draw(monkeypatch):
    # 1651 distinct values in 41 multiplicity classes of 1 to 195 values.
    # 64 KiB blocks hold 64 rows of a class above 64 values (195 values fill
    # 42 rows, rounded up to 64) and 128 or more of the others, so 200 rows
    # span several blocks; no block ends inside the BLAS row unroll, which
    # moved some rows by 1 ulp
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 2e4)
    tau = 0.002
    lam, mult = stream.values, stream.multiplicities
    weight = 0.5 * np.sqrt(lam) * np.exp(-tau * lam)

    def whole_batch(rng, rows):
        vals = np.zeros(rows)
        for k in np.unique(mult).tolist():  # one (rows x n_k) draw per class
            w = weight[mult == k]
            if k == 1:
                xi2 = rng.standard_normal((rows, w.size))
                xi2 *= xi2
                vals += xi2 @ w
            else:
                vals += rng.standard_gamma(0.5 * k, (rows, w.size)) @ (w * 2.0)
        return vals

    samplers = []
    monkeypatch.setattr(stochastic, "_BLOCK_BYTES", 1 << 16)
    monkeypatch.setattr(
        stochastic, "monte_carlo", lambda sample, *args, **kw: samplers.append(sample)
    )
    stochastic.mc_estimate(stochastic.SourceSpec(stream=stream, tau=tau), n=2, seed=0)
    for rows in (200, 50):  # widest blocks of 64, 64, 64 and 8 rows; of 50 rows
        rng_a, rng_b = (np.random.Generator(np.random.SFC64(7)) for _ in range(2))
        assert np.array_equal(samplers[0](rng_a, rows), whole_batch(rng_b, rows))
        assert rng_a.random() == rng_b.random()  # the same draws were used up


def test_seeds_give_standard_normal_z_scores():
    # 200 seeds on the 10-mode cube: |z| has mean sqrt(2/pi) = 0.798 (standard
    # deviation 0.043 over 200 seeds) and exceeds 2 with probability 0.046
    # (standard deviation 0.015); a stream whose seeds overlap or whose
    # stderr is off shows in one of the two
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(
        spectrum.BoxSpec((axis, axis, axis)), 11.5 * math.pi**2
    )
    assert stream.mode_count == 10
    spec = stochastic.SourceSpec(stream=stream, tau=0.5)
    trace = heattrace.regulated_trace(stream, 0.5).value
    z = []
    for seed in range(200):
        est = stochastic.mc_estimate(spec, n=4096, seed=seed)
        z.append((est.mean - trace) / est.stderr)
    z = np.abs(np.array(z))
    assert 0.65 <= float(z.mean()) <= 0.95
    assert np.count_nonzero(z > 2.0) <= 20


def test_estimates_do_not_depend_on_blas_threads():
    # a threaded BLAS dot product splits its sum across threads and moved the
    # last bit of these stderrs between one and two threads
    child = (
        "from caslab import boxint, spectrum, stochastic\n"
        "axis = spectrum.AxisSpec(1.0, 'dirichlet')\n"
        "cube = spectrum.BoxSpec((axis, axis, axis))\n"
        "for cutoff, tau in ((600.0, 0.1), (1200.0, 0.05)):\n"
        "    stream = spectrum.enumerate_modes(cube, cutoff)\n"
        "    est = stochastic.mc_estimate(stochastic.SourceSpec(stream, tau), 65536, 3)\n"
        "    print(est.mean.hex(), est.stderr.hex())\n"
        "est = boxint.delta_alpha(1.0, boxint.DeltaMethod.MONTE_CARLO,"
        " budget=300_000, seed=5)\n"
        "print(est.mean.hex(), est.stderr.hex())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", child], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


class _Drawn(Exception):
    """Raised by a sampler to show that monte_carlo got as far as drawing."""


def _refuse_to_draw(rng, rows):
    raise _Drawn


@pytest.mark.parametrize(
    ("n", "draws_per_row", "stop"),
    [
        ((1 << 28) - 1, 1, _Drawn),
        (1 << 28, 1, _Drawn),
        ((1 << 28) + 1, 1, ResourceError),
        ((1 << 27) + 1, 2, ResourceError),
    ],
)
def test_draw_budget_is_checked_before_drawing(n, draws_per_row, stop):
    # up to 2^28 draws reach the sampler; one more fails before any draw
    with pytest.raises(stop):
        stochastic.monte_carlo(_refuse_to_draw, n, seed=0, draws_per_row=draws_per_row)


def test_source_spec_validation(cube_stream):
    with pytest.raises(ParameterError):
        stochastic.SourceSpec(stream=cube_stream, tau=0.0)
    with pytest.raises(ParameterError):
        stochastic.SourceSpec(stream=cube_stream, tau=0.5, g=0.0)


def test_mc_estimate_validation(cube_stream):
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    with pytest.raises(ParameterError):
        stochastic.mc_estimate(spec, n=1, seed=0)


def test_estimate_json(cube_stream):
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    est = stochastic.mc_estimate(spec, n=1000, seed=1)
    payload = json.loads(json.dumps(dataclasses.asdict(est)))
    assert payload == {
        "mean": est.mean,
        "stderr": est.stderr,
        "n": 1000,
        "seed": 1,
    }
