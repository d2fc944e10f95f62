"""Reduction constants, quadrature routes, mollified widths, extrapolation."""

import ast
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from caslab import boxint, plates, riesz, spectrum
from caslab.errors import ConvergenceError, ParameterError, QuadratureError


def mp_reduction_constant(m, s):
    with mpmath.workdps(50):
        val = (
            (4 * mpmath.pi) ** (-mpmath.mpf(m) / 2)
            * mpmath.gamma(mpmath.mpf(s) - mpmath.mpf(m) / 2)
            / mpmath.gamma(mpmath.mpf(s))
        )
        return float(val)


def test_reduction_constant_frozen_values():
    assert riesz.reduction_constant(3, 2.5) == pytest.approx(
        1.0 / (6.0 * math.pi**2), rel=1e-14
    )
    assert riesz.reduction_constant(1, 3.0) == pytest.approx(3.0 / 16.0, rel=1e-14)


def test_chain_product_constant():
    prod = riesz.reduction_constant(1, 3.0) * riesz.reduction_constant(3, 2.5)
    assert prod == pytest.approx(1.0 / (32.0 * math.pi**2), rel=1e-14)


def test_reduction_constant_against_mpmath_grid():
    for m in (1, 2, 3, 4):
        s = 0.5 * m + 0.3
        while s < 0.5 * m + 3.0:
            got = riesz.reduction_constant(m, s)
            assert got == pytest.approx(mp_reduction_constant(m, s), rel=5e-15)
            s += 0.7


def test_reduction_constant_divergent_region():
    with pytest.raises(ConvergenceError):
        riesz.reduction_constant(3, 1.5)
    with pytest.raises(ConvergenceError):
        riesz.reduction_constant(2, 0.9)


def test_critical_exponent():
    for m in (1, 2, 3, 4):
        assert riesz.critical_exponent(m) == 1.0 + 0.5 * m
    assert riesz.critical_exponent(3) == 2.5


def test_sphere_area():
    assert riesz.sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    assert riesz.sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert riesz.sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_gamma_overflow_goes_through_lgamma():
    # Gamma overflows past 171.6, inside the domain of both functions; the
    # lgamma route measured 4e-14 and 8e-14 relative at (1, 200) and (3, 180.5)
    for m, s in ((1, 200.0), (3, 180.5), (2, 171.7), (4, 500.0)):
        assert riesz.reduction_constant(m, s) == pytest.approx(
            mp_reduction_constant(m, s), rel=1e-12, abs=0.0
        )
    assert riesz.reduction_constant(1, 200.0) == pytest.approx(0.01998461251317941, rel=1e-12)
    with mpmath.workdps(50):
        for m in (344, 345, 400, 420):
            want = float(2 * mpmath.pi ** (mpmath.mpf(m) / 2) / mpmath.gamma(mpmath.mpf(m) / 2))
            assert riesz.sphere_area(m) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert riesz.sphere_area(344) == pytest.approx(5.212307078041121e-224, rel=1e-12)
    # results below the normal range are refused, not returned as 0
    for call in (lambda: riesz.reduction_constant(300, 151.0), lambda: riesz.sphere_area(500)):
        with pytest.raises(ParameterError, match="normal float range"):
            call()


def test_momentum_integral_matches_closed_form():
    for m, s in ((1, 3.0), (3, 2.5), (4, 3.0)):
        for lam in (0.5, 2.0):
            closed = riesz.reduction_constant(m, s) * lam ** (0.5 * m - s)
            assert riesz.momentum_integral(m, s, lam) == pytest.approx(closed, rel=1e-8)


def test_momentum_integral_critical_scaling():
    # at the critical exponent the integral is a pure 1/lambda law
    m = 3
    s = riesz.critical_exponent(m)
    vals = [lam * riesz.momentum_integral(m, s, lam) for lam in (0.5, 1.0, 5.0)]
    spread = (max(vals) - min(vals)) / min(vals)
    assert spread < 1e-8


def test_schwinger_route_both_endpoint_branches():
    # s - 1 - m/2 < 0 puts an integrable power singularity at t = 0
    for m, s in ((3, 2.0), (1, 1.2), (3, 4.0), (2, 2.0)):
        closed = riesz.reduction_constant(m, s) * 1.0 ** (0.5 * m - s)
        assert riesz.schwinger_integral(m, s, 1.0) == pytest.approx(closed, rel=1e-9)


def test_momentum_integral_rejects_bad_input():
    with pytest.raises(ConvergenceError):
        riesz.momentum_integral(3, 1.5, 1.0)
    with pytest.raises(ParameterError):
        riesz.momentum_integral(3, 2.5, -1.0)
    with pytest.raises(ParameterError):
        riesz.momentum_integral(0, 2.5, 1.0)


@pytest.mark.parametrize(
    "f",
    [lambda x: 1.0 / x, lambda x: 1.0 / x**2, lambda x: math.inf],
    ids=["1/x", "1/x^2", "inf"],
)
def test_quad_checked_rejects_divergent_integrals(f):
    with pytest.raises(QuadratureError):
        riesz.quad_checked(f, 0.0, 1.0, epsabs=1e-10)


def test_no_caslab_module_imports_scipy():
    # the runtime needs numpy and mpmath only; QUADPACK is a test oracle
    found = []
    for path in sorted(Path(riesz.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == []


# (m, s) pairs and lambdas of the QUADPACK comparison; (1, 3/4) and (3, 1.6)
# put t^-0.75 and t^-0.9 endpoint singularities into the Schwinger route
ROUTE_GRID = [(1, 3.0), (2, 2.0), (3, 2.5), (3, 4.0), (4, 3.0), (1, 0.75), (3, 1.6)]
ROUTE_LAMS = (0.01, 0.5, 1.0, 2.0, 100.0)


def quadpack(f, a, b, **kw):
    value, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=400, **kw)
    return value


def quadpack_radial(m, s, lam, eps=0.0):
    def f(q):
        return q ** (m - 1) * math.exp(-((eps * q) ** 2)) * (lam + q * q) ** (-s)

    c = math.sqrt(lam)
    pref = riesz.sphere_area(m) / (2.0 * math.pi) ** m
    return pref * (quadpack(f, 0.0, c) + quadpack(f, c, math.inf))


def quadpack_schwinger(m, s, lam):
    a = s - 1.0 - 0.5 * m
    head = quadpack(lambda t: math.exp(-lam * t), 0.0, 1.0 / lam, weight="alg", wvar=(a, 0.0))
    tail = quadpack(lambda t: t**a * math.exp(-lam * t), 1.0 / lam, math.inf)
    return (4.0 * math.pi) ** (-0.5 * m) / math.gamma(s) * (head + tail)


@pytest.mark.parametrize("m,s", ROUTE_GRID)
def test_routes_match_quadpack_and_closed_form(m, s):
    for lam in ROUTE_LAMS:
        closed = riesz.reduction_constant(m, s) * lam ** (0.5 * m - s)
        mom = riesz.momentum_integral(m, s, lam)
        sch = riesz.schwinger_integral(m, s, lam)
        assert mom == pytest.approx(quadpack_radial(m, s, lam), rel=1e-12, abs=0.0)
        assert sch == pytest.approx(quadpack_schwinger(m, s, lam), rel=1e-12, abs=0.0)
        assert mom == pytest.approx(closed, rel=1e-13, abs=0.0)
        assert sch == pytest.approx(closed, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("lam", [1e-120, 1e-105, 1e104, 1e108, 1e114, 1e122])
def test_momentum_route_holds_where_its_integrand_leaves_the_float_range(lam):
    # lam^{(m-1)/2-s} under- or overflows here: the route returned 0.0 from
    # lam ~ 1e108 up, lost digits near 1e104 and raised below 1e-103
    for m, s in ((1, 3.0), (2, 2.0), (3, 2.5), (3, 4.0), (4, 3.0)):
        closed = riesz.reduction_constant(m, s) * lam ** (0.5 * m - s)
        assert riesz.momentum_integral(m, s, lam) == pytest.approx(closed, rel=1e-13, abs=0.0)


def test_quad_checked_refuses_an_underflowed_zero():
    # a value of 0 with no absolute tolerance is what every term underflowing
    # to 0 gives, so the rule has certified nothing
    with pytest.raises(QuadratureError):
        riesz.quad_checked(lambda x: np.exp(-1e3 - x), 0.0, math.inf, epsabs=0.0)
    assert riesz.quad_checked(lambda x: np.exp(-1e3 - x), 0.0, math.inf, epsabs=1e-300) == 0.0


@pytest.mark.parametrize("m,s", [(3, 2.5), (1, 3.0)])
def test_mollified_route_matches_quadpack(m, s):
    for eps in (0.2, 0.1, 0.05, 0.025):
        for lam in (0.5, 1.0, 2.0):
            got = riesz.mollified_reduction(m, s, lam, riesz.MollifierSpec(eps=eps))
            assert got == pytest.approx(quadpack_radial(m, s, lam, eps), rel=1e-12, abs=0.0)


def test_two_step_chain_matches_nested_quadpack():
    lam = 2.0

    def inner(mu):
        return quadpack(lambda p: (mu + p * p) ** (-3), 0.0, math.inf) / math.pi

    outer = quadpack(lambda q: q * q * inner(lam + q * q), 0.0, math.inf)
    _, _, nested = riesz.two_step_chain(lam)
    assert nested == pytest.approx(outer / (2.0 * math.pi**2), rel=1e-11, abs=0.0)


def test_routes_hold_far_from_unit_lambda():
    # the nodes follow sqrt(lam), so each route holds at scales far from 1
    for lam in (1e-12, 1e-6, 1e6, 1e12):
        closed = riesz.reduction_constant(3, 2.5) / lam
        assert riesz.momentum_integral(3, 2.5, lam) == pytest.approx(closed, rel=1e-13)
        assert riesz.schwinger_integral(3, 2.5, lam) == pytest.approx(closed, rel=1e-13)
        c1, c3, nested = riesz.two_step_chain(lam)
        assert nested == pytest.approx(c1 * c3 / lam, rel=1e-13)


def test_quad_checked_finite_intervals():
    got = riesz.quad_checked(lambda x: x**-0.5, 0.0, 1.0, epsabs=0.0)
    assert got == pytest.approx(2.0, rel=1e-14)
    got = riesz.quad_checked(np.cos, -1.0, 2.0, epsabs=0.0)
    assert got == pytest.approx(math.sin(2.0) + math.sin(1.0), rel=1e-14)
    got = riesz.quad_checked(lambda x: np.exp(-x), 3.0, math.inf, epsabs=0.0)
    assert got == pytest.approx(math.exp(-3.0), rel=1e-14)


def test_quad_checked_too_coarse_rule_trips_guard(monkeypatch):
    # every 16th node: h = 1/2 instead of 1/32 on the same window
    monkeypatch.setattr(riesz, "_DE_Y", riesz._DE_Y[::16])
    monkeypatch.setattr(riesz, "_DE_C", 16.0 * riesz._DE_C[::16])
    with pytest.raises(QuadratureError, match="h/2 gap"):
        riesz.schwinger_integral(3, 2.5, 0.01)
    with pytest.raises(QuadratureError):
        riesz.momentum_integral(3, 2.5, 0.01)
    with pytest.raises(QuadratureError, match="h/2 gap"):
        riesz.two_step_chain(2.0)


def test_quad_checked_rejects_nan_integrand():
    def f(x):
        return np.where(x > 2.0, np.nan, np.exp(-x))

    with pytest.raises(QuadratureError):
        riesz.quad_checked(f, 0.0, math.inf, epsabs=1e-10)


def test_quad_checked_rejects_integrand_large_at_window_end():
    # convergent, but (1+x)^-1.01 is still 4e-3 of its size at x = e^522;
    # no level passes, and the refusal names the last one and its nodes
    with pytest.raises(QuadratureError, match="h = 1/64 from 833 nodes, .* rim term"):
        riesz.quad_checked(lambda x: (1.0 + x) ** -1.01, 0.0, math.inf, epsabs=1e-10)


def test_quad_checked_raises_on_overflow():
    # the plain radial integrand overflows at q^2 = e^1044; the log form does not
    with pytest.raises(QuadratureError, match="float range"):
        riesz.quad_checked(lambda q: q**2 * (1.0 + q * q) ** -2.5, 0.0, math.inf, epsabs=0.0)
    assert riesz.momentum_integral(3, 2.5, 1.0) == pytest.approx(
        riesz.reduction_constant(3, 2.5), rel=1e-14
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=st.floats(-0.95, 20.0, exclude_min=True, exclude_max=True))
def test_quad_checked_gamma_function(a):
    # int_0^inf x^a e^-x dx = Gamma(a+1) with the endpoint power x^a, a > -1;
    # in log form, since x^a overflows at the window end for a above ~1.36
    got = riesz.quad_checked(lambda x: np.exp(a * np.log(x) - x), 0.0, math.inf, epsabs=0.0)
    assert got == pytest.approx(math.gamma(a + 1.0), rel=1e-11 if a < -0.5 else 1e-14, abs=0.0)


HOMOGENEITY_PAIRS = ((1, 3.0), (2, 2.0), (3, 2.5), (3, 4.0), (4, 3.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_lam=st.floats(-100.0, 100.0))
def test_routes_are_homogeneous_in_lambda(log_lam):
    # q = sqrt(lam) u and t = u / lam put the nodes on the integrand's own
    # scale, so lam enters each route only as the factor lam^(m/2 - s); over
    # 3,001 log-spaced lam the worst gap was 2.8e-14 relative for Schwinger,
    # whose exponent still carries a |log lam|, and 2.2e-16 for momentum,
    # whose lam^(m/2 - s) is one power outside the integrand
    lam = 10.0**log_lam
    for route in (riesz.momentum_integral, riesz.schwinger_integral):
        for m, s in HOMOGENEITY_PAIRS:
            got = route(m, s, lam) / lam ** (0.5 * m - s)
            assert got == pytest.approx(route(m, s, 1.0), rel=2e-13, abs=0.0)


@pytest.mark.parametrize("lam", [1e-100, 1e100])
def test_momentum_integral_keeps_its_accuracy_at_extreme_lambda(lam):
    # with s |log lam| (about 900 here) in the integrand's exponent the route
    # was 5.9e-14 from the closed form at 1e+-100; with lam^(m/2 - s) applied
    # outside it, 2.2e-16 here and 5.5e-16 at 2,000 lam in [1e-123, 1e123]
    for m, s in HOMOGENEITY_PAIRS:
        closed = riesz.reduction_constant(m, s) * lam ** (0.5 * m - s)
        assert riesz.momentum_integral(m, s, lam) == pytest.approx(closed, rel=1e-15, abs=0.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_lam=st.floats(-3.0, 3.0), eps=st.sampled_from([0.2, 0.1, 0.05]))
def test_mollified_route_is_homogeneous_in_lambda(log_lam, eps):
    # q = sqrt(lam) u turns the width eps at lam into eps sqrt(lam) at 1 and
    # leaves the factor lam^(3/2 - 5/2); 600 draws measured 1.4e-15
    lam = 10.0**log_lam
    got = riesz.mollified_reduction(3, 2.5, lam, riesz.MollifierSpec(eps=eps))
    want = riesz.mollified_reduction(3, 2.5, 1.0, riesz.MollifierSpec(eps=eps * math.sqrt(lam)))
    assert got == pytest.approx(want / lam, rel=4e-15, abs=0.0)


def test_mollifier_width_must_be_positive():
    # width 0 is momentum_integral itself, so the spec takes only a positive width
    with pytest.raises(ParameterError):
        riesz.MollifierSpec(eps=0.0)


def mp_mollified_reduction(m, s, lam, eps):
    """S_{m-1} / (2 pi)^m (1/2) Gamma(m/2) lam^{m/2-s} U(m/2, m/2-s+1, eps^2 lam)
    at 30 digits: with q^2 = lam t the radial integral of q^{m-1}
    (lam + q^2)^{-s} e^{-(eps q)^2} is Kummer's U in its integral form
    (DLMF 13.4.4)."""
    with mpmath.workdps(30):
        m, s, lam, eps = (mpmath.mpf(v) for v in (m, s, lam, eps))
        half = m / 2
        sphere = 2 * mpmath.pi**half / mpmath.gamma(half)
        val = (
            sphere / (2 * mpmath.pi) ** m * mpmath.gamma(half) / 2
            * lam ** (half - s) * mpmath.hyperu(half, half - s + 1, eps * eps * lam)
        )
        return float(val)


@pytest.mark.parametrize("m,s", HOMOGENEITY_PAIRS)
def test_mollified_route_matches_its_closed_form(m, s):
    # measured at most 5.0e-16 relative over these 60 points
    for lam in (0.5, 1.0, 4.0):
        for eps in (0.2, 0.1, 0.05, 0.025):
            got = riesz.mollified_reduction(m, s, lam, riesz.MollifierSpec(eps=eps))
            want = mp_mollified_reduction(m, s, lam, eps)
            assert got == pytest.approx(want, rel=2e-15, abs=0.0)


def test_criterion_3_ladder_misses_on_exact_values_too():
    # criterion 3's three widths, each value exact, miss the closed form by
    # the 8.48296012804714e-6 the criterion measures from its quadratures:
    # the shortfall belongs to the ladder, not to the quadrature
    eps = (0.2, 0.1, 0.05)
    lim = riesz.richardson_limit(eps, [mp_mollified_reduction(3, 2.5, 1.0, e) for e in eps])
    miss = abs(lim - mp_reduction_constant(3, 2.5))
    assert miss == pytest.approx(8.48296012804714e-06, rel=1e-9, abs=0.0)


def test_mollified_error_battery_at_critical_pair():
    """Frozen deficit ladder at (3, 5/2): the width-squared-log law shows up
    as halving ratios well below 4."""
    exact = riesz.momentum_integral(3, 2.5, 1.0)
    frozen = {0.2: 2.572653e-3, 0.1: 9.647226e-4, 0.05: 3.263421e-4}
    errs = {}
    for eps, want in frozen.items():
        val = riesz.mollified_reduction(3, 2.5, 1.0, riesz.MollifierSpec(eps=eps))
        errs[eps] = exact - val
        assert errs[eps] == pytest.approx(want, rel=1e-5)
    assert errs[0.2] / errs[0.1] == pytest.approx(2.6667, abs=1e-3)
    assert errs[0.1] / errs[0.05] == pytest.approx(2.9562, abs=1e-3)


def test_mollified_subcritical_pair_extrapolates_clean():
    # away from the critical exponent the deficit is pure eps^2 + eps^4 and
    # the halving ratio sits near 4
    exact = 3.0 / 16.0
    eps = (0.2, 0.1, 0.05)
    vals = [
        riesz.mollified_reduction(1, 3.0, 1.0, riesz.MollifierSpec(eps=e)) for e in eps
    ]
    errs = [exact - v for v in vals]
    assert abs(errs[0] / errs[1] - 4.0) < 0.5
    assert abs(errs[1] / errs[2] - 4.0) < 0.5
    lim = riesz.richardson_limit(eps, vals, orders=(2.0, 4.0))
    assert abs(lim - exact) < 1e-6


def test_mollified_monotone_in_width():
    # width 0 is the unmollified momentum integral
    vals = [
        riesz.mollified_reduction(3, 2.5, 1.0, riesz.MollifierSpec(eps=e))
        for e in (0.4, 0.2, 0.1)
    ]
    vals.append(riesz.momentum_integral(3, 2.5, 1.0))
    assert vals == sorted(vals)


def test_richardson_exact_on_polynomial_data():
    a, b = 0.7, -3.0
    eps = (0.4, 0.2, 0.1)
    vals = [a + b * e * e for e in eps]
    lim = riesz.richardson_limit(eps, vals, orders=(2.0,))
    assert lim == pytest.approx(a, abs=1e-13)


def test_richardson_annihilates_squared_log_term():
    # a repeated order 2 is the eps^2 log eps column
    a, b, c = 1.3, 4.0, -2.0
    eps = (0.2, 0.1, 0.05)
    vals = [a + b * e * e * math.log(1.0 / e) + c * e * e for e in eps]
    lim = riesz.richardson_limit(eps, vals, orders=(2.0, 2.0))
    assert lim == pytest.approx(a, abs=1e-12)


def test_richardson_input_validation():
    with pytest.raises(ParameterError):
        riesz.richardson_limit((0.2, 0.1), (1.0,))
    with pytest.raises(ParameterError):
        riesz.richardson_limit((0.1, 0.2), (1.0, 2.0))
    with pytest.raises(ParameterError):
        riesz.richardson_limit((0.2, 0.1), (1.0, 2.0), orders=(2.0, 2.0))


def test_richardson_refuses_a_negative_width():
    with pytest.raises(ParameterError, match="finite and > 0"):
        riesz.richardson_limit((0.2, 0.1, -0.05), (1.0, 2.0, 3.0))


def test_richardson_removes_the_log_term_on_any_ladder():
    # the column solve is exact off a geometric ladder too; repeated-order
    # elimination sweeps, exact for the log column only on a geometric ladder,
    # miss a by 4.4e-3 here
    a, b, c = 1.3, 4.0, -2.0
    eps = (0.2, 0.13, 0.05)
    vals = [a + b * e * e * math.log(e) + c * e * e for e in eps]
    assert abs(riesz.richardson_limit(eps, vals, orders=(2.0, 2.0)) - a) < 1e-12


def test_richardson_on_a_non_geometric_critical_ladder():
    # columns eps^2, eps^2 log eps, eps^4, eps^4 log eps: measured 1.2e-8
    eps = (0.2, 0.13, 0.08, 0.05, 0.03)
    vals = [riesz.mollified_reduction(3, 2.5, 1.0, riesz.MollifierSpec(eps=e)) for e in eps]
    lim = riesz.richardson_limit(eps, vals, orders=(2.0, 2.0, 4.0, 4.0))
    assert abs(lim - riesz.momentum_integral(3, 2.5, 1.0)) < 1e-7


@pytest.mark.parametrize(
    "orders, bound", [((2.0, 2.0, 4.0), 1e-6), ((2.0, 2.0, 4.0, 4.0), 1e-8)], ids=["4", "5"]
)
def test_criterion_3_longer_ladders_reach_the_target(orders, bound):
    # criterion 3's three widths stop at 8.48e-6 because eps^4 and eps^4 log eps
    # remain; modelling them on halving ladders of 4 and 5 widths measured
    # 2.727e-7 and 8.682e-10
    eps = tuple(0.2 / 2**k for k in range(len(orders) + 1))
    vals = [riesz.mollified_reduction(3, 2.5, 1.0, riesz.MollifierSpec(eps=e)) for e in eps]
    lim = riesz.richardson_limit(eps, vals, orders)
    assert abs(lim - riesz.momentum_integral(3, 2.5, 1.0)) < bound


def test_two_step_chain_triple():
    for lam in (0.5, 1.0, 2.0):
        c1, c3, nested = riesz.two_step_chain(lam)
        assert c1 == pytest.approx(3.0 / 16.0, rel=1e-14)
        assert c3 == pytest.approx(1.0 / (6.0 * math.pi**2), rel=1e-14)
        assert nested == pytest.approx(c1 * c3 / lam, rel=1e-7)
    with pytest.raises(ParameterError):
        riesz.two_step_chain(0.0)


def full_grid_nested(lam, stride=1):
    """two_step_chain's nested value summed over the whole product grid of
    every stride-th node: 833 x 833 at stride 1, 417 x 417 at stride 2."""
    x, w = riesz._de_nodes(0.0, math.inf)
    x, w = x[::stride], stride * w[::stride]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        terms = riesz._chain_kernel(lam, x[:, None], x[None, :]) * w[:, None] * w[None, :]
    return float(terms.sum()) / (2.0 * math.pi**3)


def test_two_step_chain_row_blocks_match_the_full_grid():
    # the rule stops at h = 1/32 for these lam, and the row blocks change only
    # numpy's summation order against that level's 417 x 417 grid; lam enters
    # the kernel only through its scaling (the homogeneity test below), so a
    # few lam across the range cover it
    for lam in (1e-12, 3.7e-7, 0.01, 1.0, 2.0, 45.0, 6.1e5, 1e12):
        want = full_grid_nested(lam, stride=2)
        got = riesz.two_step_chain(lam)[2]
        assert abs(got - want) <= 4.0 * np.spacing(want), lam


_CHAIN_AT_ONE = riesz.two_step_chain(1.0)[2]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(log_lam=st.floats(-12.0, 12.0))
def test_two_step_chain_is_homogeneous_in_lambda(log_lam):
    # q = sqrt(lam) u leaves the kernel v^2 / (lam (1 + u^2 + v^2)^3), so the
    # nested value times lam is its lam = 1 value to rounding; 200 log-uniform
    # lam measured at most 18 ulp
    lam = 10.0**log_lam
    got = riesz.two_step_chain(lam)[2] * lam
    assert abs(got - _CHAIN_AT_ONE) <= 32.0 * math.ulp(_CHAIN_AT_ONE)


@pytest.mark.parametrize("bad", ["nan", "overflow"])
def test_two_step_chain_raises_on_a_late_block(monkeypatch, bad):
    # the last block of the first level (p node 832, in every level) fails;
    # the blocks before it are fine and their sum alone would pass the
    # verdict.  No finer level can mend it, so the rule stops there.
    kernel = riesz._chain_kernel
    blocks = []

    def spoiled(lam, u, v):
        blocks.append(u.size)
        late = u >= riesz._DE_Y[-1]
        if bad == "nan":
            return np.where(late, np.nan, kernel(lam, u, v))
        return kernel(lam, u, v) * np.exp(np.where(late, 1e3, 0.0))

    monkeypatch.setattr(riesz, "_chain_kernel", spoiled)
    match = "h = 1/16 from 43681 nodes" if bad == "nan" else "float range"
    with pytest.raises(QuadratureError, match=match):
        riesz.two_step_chain(2.0)
    assert blocks == [64, 64, 64, 17]


def test_two_step_chain_memory_is_bounded():
    # the whole 833 x 833 product grid and its temporaries peaked at 16.0 MiB;
    # 64-row blocks of the 417-node level the rule stops at need 0.9 MiB
    riesz.two_step_chain(2.0)
    tracemalloc.start()
    try:
        riesz.two_step_chain(2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("bad", [math.inf, math.nan, True], ids=["inf", "nan", "bool"])
@pytest.mark.parametrize(
    "call",
    [
        riesz.two_step_chain,
        lambda x: riesz.schwinger_integral(3, 2.5, x),
        lambda x: riesz.momentum_integral(3, 2.5, x),
        plates.casimir_per_area,
        lambda x: spectrum.AxisSpec(x, spectrum.Bc.DIRICHLET),
    ],
    ids=["two_step_chain", "schwinger", "momentum", "casimir_per_area", "AxisSpec"],
)
def test_non_finite_and_bool_inputs_are_rejected(call, bad):
    with pytest.raises(ParameterError):
        call(bad)


def _recording_quad(monkeypatch):
    """Wrap quad_checked where riesz and boxint call it: each call records
    (accepted value, the full 833-node table summed here, the verdict's
    bound, the node counts f was called with)."""
    real = riesz.quad_checked
    calls = []

    def recorded(f, a, b, *, epsabs, epsrel=1e-11):
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return f(x)

        got = real(counted, a, b, epsabs=epsabs, epsrel=epsrel)
        x, w = riesz._de_nodes(a, b)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            full = float(np.sum(np.asarray(f(x), dtype=float) * w))
        calls.append((got, full, max(epsabs, 10.0 * epsrel * abs(full)), sizes))
        return got

    monkeypatch.setattr(riesz, "quad_checked", recorded)
    monkeypatch.setattr(boxint, "quad_checked", recorded)
    return calls


def test_adaptive_rule_matches_the_full_table(monkeypatch):
    # every caller's accepted level against the whole h = 1/64 table, over
    # the lam sweeps of the homogeneity tests and alpha in [0.05, 20].
    # Measured worst relative gaps: momentum 2.5e-14 (1.6e-15 where
    # |log10 lam| <= 12: its integrand's exponent holds s |log lam|, whose
    # rounding 209 nodes average less than 833), Schwinger 3.2e-15,
    # mollified 4.3e-16, cell_overlap_energy 2.2e-16, the chain 8.2e-16
    calls = _recording_quad(monkeypatch)
    for lam in 10.0 ** np.linspace(-100.0, 100.0, 41):
        for m, s in HOMOGENEITY_PAIRS:
            riesz.momentum_integral(m, s, lam)
            riesz.schwinger_integral(m, s, lam)
    for lam in 10.0 ** np.linspace(-3.0, 3.0, 7):
        for eps in (0.2, 0.1, 0.05):
            riesz.mollified_reduction(3, 2.5, lam, riesz.MollifierSpec(eps=eps))
    for alpha in np.geomspace(0.05, 20.0, 25):
        boxint.cell_overlap_energy((alpha, 1.0 / alpha, 1.0))
    assert len(calls) == 41 * 10 + 21 + 25
    for got, full, bound, _ in calls:
        assert abs(got - full) <= bound
        assert abs(got - full) <= 4e-14 * abs(full)
    for lam in np.geomspace(1e-12, 1e12, 13):
        want = full_grid_nested(lam)
        assert abs(riesz.two_step_chain(lam)[2] - want) <= 2e-15 * want, lam


def test_the_rule_evaluates_only_the_levels_it_needs(monkeypatch):
    # a change that quietly falls back to the full table fails here: the
    # cube cell and the momentum route stop at h = 1/16 (209 nodes, one call
    # of f), Schwinger at h = 1/32 (209 + 208), the chain at h = 1/32 on
    # both axes, and a near-critical endpoint power needs all 833 in 3 calls
    calls = _recording_quad(monkeypatch)
    boxint.cell_overlap_energy((1.0, 1.0, 1.0))
    riesz.momentum_integral(3, 2.5, 1.0)
    riesz.schwinger_integral(3, 2.5, 1.0)
    riesz.quad_checked(lambda x: np.exp(-0.957 * np.log(x) - x), 0.0, math.inf, epsabs=0.0)
    assert [sizes for *_, sizes in calls] == [[209], [209], [209, 208], [209, 208, 416]]
    assert calls[-1][0] == pytest.approx(math.gamma(1.0 - 0.957), rel=2e-10)

    kernel = riesz._chain_kernel
    rows, columns = [], []

    def counted(lam, u, v):
        rows.append(u.ravel())
        columns.append(v.size)
        return kernel(lam, u, v)

    monkeypatch.setattr(riesz, "_chain_kernel", counted)
    riesz.two_step_chain(2.0)
    assert sorted(set(columns)) == [209, 417]
    assert [np.unique(np.concatenate(rows)).size, max(columns)] == [417, 417]
    assert sum(r.size * c for r, c in zip(rows, columns)) == 209**2 + 417**2
