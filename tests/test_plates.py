"""Plate geometry: per-area traces, finite parts, both energy routes."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from caslab import heattrace, plates, spectrum, stochastic
from caslab.errors import ParameterError


def per_area_oracle(a, tau):
    # independent tower sum with arbitrary-precision incomplete gamma factors
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        n = 1
        while True:
            term = mpmath.gammainc(mpmath.mpf("1.5"), tau * math.pi**2 * n * n / a**2)
            total += term
            if term < mpmath.mpf("1e-25") * (1 + total):
                break
            n += 1
        return float(total / (8 * mpmath.pi) * mpmath.mpf(tau) ** mpmath.mpf("-1.5"))


@pytest.mark.parametrize(
    "a,tau", [(1.0, 1e-3), (1.0, 0.3), (2.0, 0.01), (0.5, 0.05)]
)
def test_per_area_trace_against_oracle(a, tau):
    sample = plates.per_area_trace(a, tau)
    assert sample.value == pytest.approx(per_area_oracle(a, tau), rel=1e-12)
    assert sample.tau == tau
    assert sample.tail_bound <= 1e-12 * sample.value


def test_per_area_trace_width_scaling():
    # trace per area carries dimension length^-3
    a, tau = 1.7, 0.02
    left = plates.per_area_trace(a, tau).value
    right = plates.per_area_trace(1.0, tau / a**2).value / a**3
    assert left == pytest.approx(right, rel=1e-12)


def test_tau_squared_trace_sequence():
    # frozen drift of the tau^2-scaled trace toward the bulk constant
    s1 = 1e-3**2 * plates.per_area_trace(1.0, 1e-3).value
    s2 = 5e-4**2 * plates.per_area_trace(1.0, 5e-4).value
    assert s1 == pytest.approx(0.012107602295703465, rel=1e-10)
    assert s2 == pytest.approx(0.012270906782833206, rel=1e-10)
    bulk = 1.0 / (8.0 * math.pi**2)
    assert bulk == pytest.approx(0.012665147955292222, rel=1e-15)
    # the scaled sequence still moves by over 1% between these regulators;
    # only the fitted finite part is stable at sub-percent level
    drift = abs(s1 - s2) / s2
    assert 0.01 < drift < 0.02


def test_finite_box_matches_per_area_at_large_width():
    for L, tau, tol in ((16.0, 0.1, 2e-3), (8.0, 0.05, 1e-2)):
        box = plates.finite_box_trace(plates.PlateConfig(a=1.0, L=L), tau)
        per = plates.per_area_trace(1.0, tau)
        assert box.value / (L * L) == pytest.approx(per.value, rel=tol)


def test_plate_box_layout():
    box = plates.plate_box(8.0, 1.0)
    bcs = [ax.bc for ax in box.axes]
    assert bcs == [spectrum.Bc.PERIODIC, spectrum.Bc.PERIODIC, spectrum.Bc.DIRICHLET]
    assert box.lambda_min == pytest.approx(math.pi**2, rel=1e-15)


def test_default_tau_grid():
    grid = plates.default_tau_grid(2.0)
    assert grid[0] == pytest.approx(1e-4 * 4.0)
    assert grid[-1] == pytest.approx(1e-3 * 4.0)
    assert len(grid) == 12
    assert np.array_equal(plates.default_tau_grid(1.0), np.geomspace(1e-4, 1e-3, 12))


def test_default_tau_grid_spans_a_decade():
    # finite_part refuses windows narrower than one decade; rounding of a
    # scaled grid must never leave the top end short of it
    for a in np.linspace(0.5, 2.0, 301):
        tau = plates.default_tau_grid(float(a))
        assert tau[-1] >= 10.0 * tau[0]


def test_heat_fit_extracts_negative_constant():
    samples, model = plates.heat_fit(1.0)
    assert [s.tau for s in samples] == plates.default_tau_grid(1.0).tolist()
    target = -math.pi**2 / 1440.0
    assert model.c0 == pytest.approx(target, rel=5e-3)
    assert model.exponents == plates.PLATE_EXPONENTS
    assert model.stability_drift < 5e-3 * abs(model.c0)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
def test_heat_fit_divergences_match_closed_forms(a):
    # a heat coefficient c_p t^-p gives the half trace the divergence
    # (1/2) c_p Gamma(p + 1/2) / Gamma(p) tau^-(p + 1/2); per unit area of the
    # plate box that is A = a/(8 pi^2) and B = -1/(32 sqrt(pi)).  The fitted
    # values measured 2.95e-10 and 1.97e-8 off at every a, the bias of the
    # regular terms the fit leaves out
    L = 3.0
    closed = plates.plate_box(L, a).heat_coefficients()
    coef = plates.heat_fit(a)[1].coefficients
    for p, key, fitted, rel in ((1.5, "t^-3/2", "tau^-2", 1e-9), (1.0, "t^-1", "tau^-1.5", 5e-8)):
        want = 0.5 * closed[key] / (L * L) * math.gamma(p + 0.5) / math.gamma(p)
        assert coef[fitted] == pytest.approx(want, rel=rel, abs=0.0)


def test_casimir_routes_agree():
    for a in (0.5, 1.0, 2.0):
        fit = plates.heat_fit(a)[1].c0
        zeta = plates.casimir_per_area(a)
        assert fit == pytest.approx(zeta, rel=5e-3)
        assert fit < 0.0


def test_zeta_route_closed_form():
    for a in (0.5, 1.0, 2.0):
        for n_channels in (1, 3):
            got = plates.casimir_per_area(a, n_channels=n_channels)
            want = -n_channels * math.pi**2 / (1440.0 * a**3)
            assert got == pytest.approx(want, rel=1e-12)


def test_casimir_cube_of_width_invariance():
    vals = [
        plates.casimir_per_area(a) * a**3 for a in (0.5, 1.0, 2.0, 4.0)
    ]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-12)


def test_normalized_energy():
    # (n a)^2 times the per-area energy leaves a pure n^2 / a law
    for n, a in ((1, 1.0), (1, 2.0), (3, 0.5)):
        got = plates.normalized_energy(n, a)
        want = -math.pi**2 * n * n / (1440.0 * a)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "a, tau",
    [(0.0, 1e-3), (1.0, -1e-3), (math.inf, 1e-3), (1.0, math.inf), (1.0, math.nan)],
)
def test_per_area_trace_rejects_bad_arguments(a, tau):
    with pytest.raises(ParameterError):
        plates.per_area_trace(a, tau)


def test_plate_config_validation():
    with pytest.raises(ParameterError):
        plates.PlateConfig(a=0.0, L=4.0)
    with pytest.raises(ParameterError):
        plates.PlateConfig(a=1.0, L=-4.0)
    config = plates.PlateConfig(a=1.0, L=4.0)
    assert (config.a, config.L) == (1.0, 4.0)


def test_counts_are_validated():
    for bad in (0, -2, 1.0, True):
        with pytest.raises(ParameterError):
            plates.normalized_energy(bad, 1.0)
        with pytest.raises(ParameterError):
            plates.casimir_per_area(1.0, n_channels=bad)
        with pytest.raises(ParameterError):
            plates.theta_bar(1.0, bad)


def test_stochastic_closure_on_plate_stream():
    stream = spectrum.enumerate_modes(plates.plate_box(4.0, 1.0), 120.0)
    trace = heattrace.regulated_trace(stream, 0.5)
    est = stochastic.mc_estimate(
        stochastic.SourceSpec(stream=stream, tau=0.5), n=100_000, seed=21
    )
    assert abs(est.mean - trace.value) <= 4.0 * est.stderr


def test_theta_bar_closed_form_frozen():
    res = plates.theta_bar(1.0, 2, plates.ThetaSource.CLOSED_FORM)
    assert res.theta_bar == pytest.approx(0.007282416091321873, rel=1e-10)
    assert res.delta_used == pytest.approx(1.8823126443896605, rel=1e-12)
    assert res.pipeline_value is None
    assert res.n_channels == 2


def test_theta_bar_channel_linearity():
    one = plates.theta_bar(1.0, 1, plates.ThetaSource.CLOSED_FORM)
    two = plates.theta_bar(1.0, 2, plates.ThetaSource.CLOSED_FORM)
    assert two.theta_bar == pytest.approx(2.0 * one.theta_bar, rel=1e-13)


def test_theta_bar_cube_is_the_minimum():
    cube = plates.theta_bar(1.0, 2, plates.ThetaSource.CLOSED_FORM).theta_bar
    for alpha in (0.5, 0.75, 1.5, 2.0):
        other = plates.theta_bar(alpha, 2, plates.ThetaSource.CLOSED_FORM).theta_bar
        assert other > cube


def test_theta_bar_pipeline_within_tolerance():
    res = plates.theta_bar(1.0, 2, plates.ThetaSource.PIPELINE)
    assert res.pipeline_value is not None
    rel = abs(res.pipeline_value - res.closed_value) / res.closed_value
    assert rel <= plates.PIPELINE_TOLERANCE
    payload = dataclasses.asdict(res)
    assert payload["pipeline_value"] == res.pipeline_value
    assert payload["tolerance"] == plates.PIPELINE_TOLERANCE
