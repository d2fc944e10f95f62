"""Gaussian source draws and the Monte Carlo trace estimator."""

import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from caslab import acceptance, heattrace, plates, spectrum, stochastic
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
    # 140001 rows of the 2 drawn values span five batches of at most 32768
    # rows, three on the caller's thread and two on the helper; these values
    # pin the batch keys, the batch partition and the merge order.  They lie
    # 0.69 standard errors below the trace
    spec = stochastic.SourceSpec(stream=cube_stream, tau=0.5)
    est = stochastic.mc_estimate(spec, n=140_001, seed=42)
    assert (est.mean, est.stderr) == (1.0094402404240036e-06, 3.806727293851963e-09)


def _merged(sample, n, seed, batch_rows):
    """The estimate of monte_carlo, its batches drawn and merged in one thread:
    the plain mean and standard error of one row, or the control fit of several."""
    count, mean, m2 = 0, 0.0, 0.0
    for index, start in enumerate(range(0, n, batch_rows)):
        rows, batch_mean, squares = stochastic._batch(
            sample, seed, index, min(batch_rows, n - start)
        )
        delta = batch_mean - mean
        merged = count + rows
        mean += delta * (rows / merged)
        m2 += squares + np.multiply.outer(delta, delta) * (count * rows / merged)
        count = merged
    if mean.size == 1:
        return float(mean[0]), math.sqrt(float(m2[0, 0]) / (n - 1) / n)
    return stochastic._control_fit(n, mean, m2)


@pytest.mark.parametrize(("n", "draws_per_row"), [(2, 1), (140_001, 1), (10_001, 9), (7, 70_000)])
def test_threads_give_the_one_thread_estimate(n, draws_per_row):
    # batches of max(1, 2^16 // draws_per_row) rows: one batch, three
    # batches, batches of 2^16 // 9 = 7281 rows, and batches of one row
    def sample(rng, rows):
        vals = rng.random(rows)
        vals *= vals
        return vals

    est = stochastic.monte_carlo(sample, n, seed=5, draws_per_row=draws_per_row)
    want = _merged(sample, n, 5, max(1, (1 << 16) // draws_per_row))
    assert (est.mean, est.stderr) == want


def _powers(rng, rows):
    """e^u for a uniform u, then the six controls u^k - 1/(k + 1), k = 1..6;
    equilibrated, their co-moment block has a condition number near 1e8."""
    u = rng.random(rows)
    out = np.empty((7, rows))
    np.exp(u, out=out[0])
    out[1] = u
    for k in range(2, 7):
        np.multiply(out[k - 1], u, out=out[k])
    out[1:] -= 1.0 / np.arange(2.0, 8.0)[:, None]
    return out


@pytest.mark.parametrize("n", [3, 9362, 10_001, 140_001])
def test_threads_give_the_one_thread_control_fit(n):
    # seven values per row, as the pair Monte Carlo of boxint: batches of
    # 2^16 // 7 = 9362 rows; one batch, one full batch, two and fifteen
    est = stochastic.monte_carlo(_powers, n, seed=5, draws_per_row=7)
    assert (est.mean, est.stderr) == _merged(_powers, n, 5, (1 << 16) // 7)
    assert math.isfinite(est.mean) and math.isfinite(est.stderr)


def test_controls_shrink_the_standard_error():
    # e^u is nearly a polynomial of degree six in u, so the controls leave
    # a residual far below the plain standard deviation of e^u, 0.49
    n = 200_000
    est = stochastic.monte_carlo(_powers, n, seed=11, draws_per_row=7)
    plain = stochastic.monte_carlo(lambda rng, rows: _powers(rng, rows)[0], n, 11, 7)
    assert abs(est.mean - (math.e - 1.0)) <= 4.0 * est.stderr
    assert est.stderr < 1e-6 * plain.stderr


def _moments(vals):
    mean = vals.mean(axis=1)
    dev = vals - mean[:, None]
    return mean, dev @ dev.T


def test_control_fit_is_the_least_squares_intercept():
    # regressing f on [1, g] with the controls at their exact mean 0: the
    # intercept is the estimate and the residual sum of squares its variance
    rng = np.random.default_rng(4)
    n = 5_000
    g = rng.standard_normal((3, n)) * np.array([[1e-3], [1.0], [1e4]])
    f = 2.0 + g.T @ np.array([300.0, -1.0, 1e-4]) + rng.standard_normal(n)
    mean, m2 = _moments(np.vstack([f, g]))
    got_mean, got_stderr = stochastic._control_fit(n, mean, m2)
    design = np.column_stack([np.ones(n), g.T])
    coef, rss, _, _ = np.linalg.lstsq(design, f, rcond=None)
    assert got_mean == pytest.approx(coef[0], rel=1e-12)
    assert got_stderr == pytest.approx(math.sqrt(rss[0] / (n - 4) / n), rel=1e-9)


def test_control_fit_drops_what_it_cannot_use():
    # a control that repeats another, a constant one and one that is not
    # finite are dropped with beta = 0, so the fit is the fit without them;
    # three samples leave room for one control only
    rng = np.random.default_rng(8)
    n = 1_000
    g = rng.standard_normal(n)
    f = g + rng.standard_normal(n)
    mean, m2 = _moments(np.vstack([f, g]))
    want = stochastic._control_fit(n, mean, m2)
    mean, m2 = _moments(np.vstack([f, g, 2.0 * g, np.zeros(n)]))
    assert stochastic._control_fit(n, mean, m2) == pytest.approx(want, rel=1e-12)
    mean = np.append(mean, 0.0)
    m2 = np.pad(m2, ((0, 1), (0, 1)))
    m2[-1, :] = m2[:, -1] = math.inf
    assert stochastic._control_fit(n, mean, m2) == pytest.approx(want, rel=1e-12)
    three = np.vstack([[1.0, 2.0, 4.0], [0.5, -0.1, 0.2], [0.3, 0.1, -0.7]])
    mean, m2 = _moments(three)
    got_mean, got_stderr = stochastic._control_fit(3, mean, m2)
    assert math.isfinite(got_mean) and got_stderr >= 0.0


def test_control_fit_drops_a_control_far_from_its_mean():
    # a row that is constant but for rounding, and a sparse row whose one
    # nonzero value falls far short of its exact mean: their sample means lie
    # 9e16 and 1e4 standard errors from 0, and the fit leaves them out
    rng = np.random.default_rng(8)
    n = 1_000
    g = rng.standard_normal(n)
    f = g + rng.standard_normal(n)
    mean, m2 = _moments(np.vstack([f, g]))
    want = stochastic._control_fit(n, mean, m2)
    flat = np.full(n, -0.3) + 1e-17 * rng.standard_normal(n)
    sparse = np.full(n, -0.01)
    sparse[17] += 1e-3
    for row in (flat, sparse):
        mean, m2 = _moments(np.vstack([f, g, row]))
        assert stochastic._control_fit(n, mean, m2) == pytest.approx(want, rel=1e-12)


def _sampler(monkeypatch, spec):
    """The (sample, draws_per_row) that mc_estimate hands to monte_carlo."""
    calls = []

    def record(sample, n, seed, draws_per_row):
        calls.append((sample, draws_per_row))
        return stochastic.MCEstimate(mean=0.0, stderr=0.0, n=n, seed=seed)

    with monkeypatch.context() as patch:
        patch.setattr(stochastic, "monte_carlo", record)
        stochastic.mc_estimate(spec, n=2, seed=0)
    return calls[0]


def _shares(stream, tau):
    """Each distinct value's share of E[U], k w, and of Var U, 2 k w^2."""
    lam, mult = stream.values, stream.multiplicities
    weight = 0.5 * np.sqrt(lam) * np.exp(-tau * lam)
    return (mult * weight).tolist(), (2.0 * mult * weight * weight).tolist()


def test_mc_estimate_is_its_one_thread_merge(monkeypatch):
    # two batches of at most 2621 rows of the 25 drawn values (of 147), each
    # class but the one-value ones a BLAS product; values 25 to 54 enter at
    # their exact mean
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 2000.0)
    spec = stochastic.SourceSpec(stream=stream, tau=0.05)
    est = stochastic.mc_estimate(spec, n=5000, seed=3)
    sample, width = _sampler(monkeypatch, spec)
    assert width == 25
    mean, stderr = _merged(sample, 5000, 3, (1 << 16) // 25)
    assert (est.mean, est.stderr) == (mean + math.fsum(_shares(stream, 0.05)[0][25:55]), stderr)


_DRAWN_PREFIXES = pytest.mark.parametrize(
    ("cutoff", "tau", "kept", "drawn"),
    [
        (600.0, 0.1, 24, 11),  # the three cubes of the spectral benchmark
        (900.0, 0.07, 37, 16),
        (1200.0, 0.05, 55, 25),
        (acceptance.CUBE_CUTOFF, 0.5, 3, 2),  # criterion 4's two spectra
        (acceptance.TEN_MODE_CUTOFF, 0.5, 3, 2),
    ],
    ids=["cube-600", "cube-900", "cube-1200", "criterion-4-cube", "criterion-4-ten-modes"],
)


@_DRAWN_PREFIXES
def test_dropped_share_is_below_the_last_bit(monkeypatch, cutoff, tau, kept, drawn):
    # the values past the kept prefix hold at most 2^-53 of E[U], and one
    # value fewer would drop more; the kept values past the drawn prefix hold
    # at most 2^-53 of the kept values' Var U, and one value fewer would drop
    # more.  Every sum is exact (math.fsum)
    stream = spectrum.enumerate_modes(spectrum.UNIT_CUBE, cutoff)
    _, width = _sampler(monkeypatch, stochastic.SourceSpec(stream=stream, tau=tau))
    means, spreads = _shares(stream, tau)
    bound = math.ldexp(math.fsum(means), -53)
    assert math.fsum(means[kept:]) <= bound < math.fsum(means[kept - 1:])
    spreads = spreads[:kept]
    bound = math.ldexp(math.fsum(spreads), -53)
    assert width == drawn
    assert math.fsum(spreads[drawn:]) <= bound < math.fsum(spreads[drawn - 1:])


@_DRAWN_PREFIXES
def test_kept_values_past_the_draws_enter_at_their_mean(monkeypatch, cutoff, tau, kept, drawn):
    # the estimate is the Monte Carlo of the drawn values plus the exact sum
    # of k w over the kept values past them; the standard error is the
    # Monte Carlo's
    stream = spectrum.enumerate_modes(spectrum.UNIT_CUBE, cutoff)
    spec = stochastic.SourceSpec(stream=stream, tau=tau)
    sample, width = _sampler(monkeypatch, spec)
    plain = stochastic.monte_carlo(sample, 3000, 6, draws_per_row=width)
    est = stochastic.mc_estimate(spec, n=3000, seed=6)
    assert est.mean == plain.mean + math.fsum(_shares(stream, tau)[0][drawn:kept])
    assert est.stderr == plain.stderr


@pytest.mark.parametrize(("tau", "cutoffs"), [(0.05, (1200.0, 2400.0)), (0.5, (200.0, 1e5))])
def test_estimate_does_not_depend_on_the_cutoff(tau, cutoffs):
    # past the drawn prefix a higher cutoff adds values, not draws
    estimates = {
        (est.mean, est.stderr)
        for est in (
            stochastic.mc_estimate(
                stochastic.SourceSpec(spectrum.enumerate_modes(spectrum.UNIT_CUBE, c), tau),
                n=20_000,
                seed=9,
            )
            for c in cutoffs
        )
    }
    assert len(estimates) == 1


class _OddBatchFailed(Exception):
    """Raised by a sampler in the last, odd, batch."""


def test_a_failing_batch_is_raised_after_the_join():
    # 65,536 + 10 rows are two batches, and the helper thread runs the second
    def sample(rng, rows):
        if rows == 10:
            raise _OddBatchFailed(threading.get_ident())
        return rng.random(rows)

    before = threading.active_count()
    with pytest.raises(_OddBatchFailed) as failed:
        stochastic.monte_carlo(sample, (1 << 16) + 10, seed=0, draws_per_row=1)
    assert failed.value.args[0] != threading.get_ident()
    assert threading.active_count() == before


def test_both_threads_see_the_callers_errstate():
    seen = {}

    def sample(rng, rows):
        seen[threading.get_ident()] = np.geterr()
        return rng.random(rows)

    with np.errstate(over="raise"):
        want = np.geterr()
        stochastic.monte_carlo(sample, 4 << 16, seed=0, draws_per_row=1)
    assert len(seen) == 2
    assert all(state == want for state in seen.values())
    assert want["over"] == "raise"


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
    # 1277 modes in 147 distinct values, 25 of them drawn: 65536 rows would
    # hold 13 MB of draws at once; batches of 2621 rows bound each thread's
    # draws to 512 KiB.  The estimate lies 0.29 standard errors below the trace
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
    assert (est.mean, est.stderr) == (1.5121176270283274, 0.0022664716565004373)


def test_one_batch_per_thread_is_alive_at_a_time():
    # each thread frees a batch's values before it draws its next batch
    alive = collections.Counter()
    most = collections.Counter()
    lock = threading.Lock()

    def release(ident):
        with lock:
            alive[ident] -= 1

    def sample(rng, rows):
        ident = threading.get_ident()
        vals = rng.random(rows)
        with lock:
            alive[ident] += 1
            most[ident] = max(most[ident], alive[ident])
        weakref.finalize(vals, release, ident)
        return vals

    stochastic.monte_carlo(sample, 1000, seed=3, draws_per_row=1 << 10)  # 16 batches
    assert sorted(most.values()) == [1, 1]
    assert sum(alive.values()) == 0


def test_sampler_draws_one_product_per_class(monkeypatch):
    # 858 drawn values of 1651 in 28 multiplicity classes of 1 to 139
    # values; the sampler draws each class as one (rows x n_k) matrix, in
    # ascending k, and multiplies a one-value class where the oracle below
    # takes a one-column matmul
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 2e4)
    tau = 0.002
    sample, width = _sampler(monkeypatch, stochastic.SourceSpec(stream=stream, tau=tau))
    assert (width, stream.values.size) == (858, 1651)
    lam, mult = stream.values[:width], stream.multiplicities[:width]
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

    for rows in (1, 76, 200):  # 76 rows are 2^16 // 858, the batch of this spectrum
        rng_a, rng_b = (np.random.Generator(np.random.SFC64(7)) for _ in range(2))
        assert np.array_equal(sample(rng_a, rows), whole_batch(rng_b, rows))
        assert rng_a.random() == rng_b.random()  # the same draws were used up


def _seed_z_scores(stream, tau):
    """(mean - trace) / stderr of the 4096-sample estimates at seeds 0..199."""
    spec = stochastic.SourceSpec(stream=stream, tau=tau)
    trace = heattrace.regulated_trace(stream, tau).value
    z = []
    for seed in range(200):
        est = stochastic.mc_estimate(spec, n=4096, seed=seed)
        z.append((est.mean - trace) / est.stderr)
    return np.array(z)


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
    z = np.abs(_seed_z_scores(stream, 0.5))
    assert 0.65 <= float(z.mean()) <= 0.95
    assert np.count_nonzero(z > 2.0) <= 20


def test_seeds_give_standard_normal_z_scores_with_an_exact_tail():
    # the unit cube at cutoff 1200 and tau = 0.05 draws 25 of its 55 kept
    # values and takes the other 30, 1.9e-8 of E[U], at their exact mean;
    # over 200 seeds the bounds on |z| are those of the 10-mode cube above,
    # and the mean of z has standard deviation 0.071
    z = _seed_z_scores(spectrum.enumerate_modes(spectrum.UNIT_CUBE, 1200.0), 0.05)
    assert abs(float(z.mean())) <= 0.25
    z = np.abs(z)
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
