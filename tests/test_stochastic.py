"""Gaussian source draws and the Monte Carlo trace estimator."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from caslab import heattrace, plates, spectrum, stochastic
from caslab.errors import ParameterError

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
    assert est.n == 40_000 and est.seed == 11 and est.worker_count == 1


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
    a = stochastic.mc_estimate(spec, n=50_000, seed=42, worker_count=3)
    b = stochastic.mc_estimate(spec, n=50_000, seed=42, worker_count=3)
    assert a.mean == b.mean
    assert a.stderr == b.stderr


def test_mc_worker_split_is_deterministic_per_count(cube_stream):
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    one = stochastic.mc_estimate(spec, n=30_000, seed=9, worker_count=1)
    four = stochastic.mc_estimate(spec, n=30_000, seed=9, worker_count=4)
    # different substreams, same target
    assert one.mean != four.mean
    assert abs(one.mean - four.mean) <= 5.0 * math.hypot(one.stderr, four.stderr)


def test_mc_frozen_across_batches_and_workers(cube_stream):
    # 70001 draws per worker span two 65536-row batches; these values pin the
    # stream split, the batch order and the reduction order
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    est = stochastic.mc_estimate(spec, n=140_001, seed=42, worker_count=2)
    assert (est.mean, est.stderr) == (1.0089106887144945e-06, 3.824699971041414e-09)


def test_variance_merge_keeps_digits_under_a_large_mean():
    # a spread of 1e-3 on a mean of 1e6: sum-of-squares minus n mean^2 loses
    # all of it to cancellation, the per-batch (mean, M2) merge keeps it
    def offset_normal(rng, rows):
        vals = rng.standard_normal(rows)
        vals *= 1e-3
        vals += 1e6
        return vals

    n = 200_000
    est = stochastic.monte_carlo(offset_normal, n, seed=7, worker_count=2, row_bytes=8)
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
    # 1277 modes: one 65536-row batch would take 670 MB; the batch budget
    # holds it to 64 MiB per draw array
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 2000.0)
    assert stream.mode_count == 1277
    spec = stochastic.SourceSpec(stream=stream, tau=0.05)
    tracemalloc.start()
    try:
        est = stochastic.mc_estimate(spec, n=32_768, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * (64 << 20)
    assert est.n == 32_768 and est.stderr > 0.0


def test_source_spec_validation(cube_stream):
    with pytest.raises(ParameterError):
        stochastic.SourceSpec(stream=cube_stream, tau=0.0)
    with pytest.raises(ParameterError):
        stochastic.SourceSpec(stream=cube_stream, tau=0.5, g=0.0)


def test_mc_estimate_validation(cube_stream):
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    with pytest.raises(ParameterError):
        stochastic.mc_estimate(spec, n=1, seed=0)
    with pytest.raises(ParameterError):
        stochastic.mc_estimate(spec, n=100, seed=0, worker_count=0)


def test_estimate_json(cube_stream):
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    est = stochastic.mc_estimate(spec, n=1000, seed=1)
    payload = json.loads(json.dumps(dataclasses.asdict(est)))
    assert payload == {
        "mean": est.mean,
        "stderr": est.stderr,
        "n": 1000,
        "seed": 1,
        "worker_count": 1,
    }
