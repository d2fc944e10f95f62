"""Special-function layer: gamma with reflection, erf, incomplete gamma,
negative odd zeta values, and the two theta evaluation paths."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caslab import specfun
from caslab.errors import ParameterError, PoleError


def test_gamma_matches_stdlib_on_positives():
    for x in (0.5, 1.0, 1.7, 2.5, 6.3, 20.0, 100.5):
        assert specfun.gamma(x) == math.gamma(x)


def test_gamma_frozen_value():
    assert specfun.gamma(2.5) == pytest.approx(1.3293403881791372, rel=1e-15)


def test_gamma_reflection_ratio():
    # Gamma(-3/2) / Gamma(-1/2) = -2/3 exactly
    ratio = specfun.gamma(-1.5) / specfun.gamma(-0.5)
    assert ratio == pytest.approx(-2.0 / 3.0, rel=1e-14)


def test_gamma_half_negative():
    assert specfun.gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)


def test_gamma_reflection_identity():
    for x in (0.3, 0.7, 0.11, 0.93):
        prod = specfun.gamma(x) * specfun.gamma(1.0 - x)
        assert prod == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-13)


def test_gamma_deep_negative_uses_log_path():
    # Gamma(1 - x) overflows float64 here; the log route must still deliver
    got = specfun.gamma(-171.5)
    want = float(mpmath.gamma(mpmath.mpf("-171.5")))
    assert got == pytest.approx(want, rel=1e-11)


def test_gamma_poles():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            specfun.gamma(x)


def test_erf_frozen_and_odd():
    assert specfun.erf(1.0) == pytest.approx(0.8427007929497149, rel=1e-15)
    for x in (0.1, 0.7, 2.3, 5.0):
        assert specfun.erf(-x) == -specfun.erf(x)  # bitwise oddness
    assert specfun.erf(0.0) == 0.0


def test_upper_gamma_three_halves_against_mpmath():
    assert specfun.upper_gamma_three_halves(0.0) == pytest.approx(
        0.5 * math.sqrt(math.pi), rel=1e-15
    )
    for y in (0.1, 1.0, 5.0, 20.0):
        want = float(mpmath.gammainc(mpmath.mpf("1.5"), y))
        assert specfun.upper_gamma_three_halves(y) == pytest.approx(want, rel=1e-13)


def test_zeta_negative_odd_exact():
    assert specfun.zeta_negative_odd(1) == Fraction(-1, 12)
    assert specfun.zeta_negative_odd(3) == Fraction(1, 120)
    assert specfun.zeta_negative_odd(5) == Fraction(-1, 252)
    assert specfun.zeta_negative_odd(7) == Fraction(1, 240)
    assert isinstance(specfun.zeta_negative_odd(3), Fraction)


def test_zeta_negative_odd_rejects_out_of_range():
    for bad in (0, 2, 4, 9, -1):
        with pytest.raises(ParameterError):
            specfun.zeta_negative_odd(bad)


def _brute_theta(kind, length, t, terms=400):
    c = math.pi**2 * t / length**2
    if kind is specfun.Bc.NEUMANN:
        return sum(math.exp(-c * m * m) for m in range(terms))
    if kind is specfun.Bc.PERIODIC:
        return sum(math.exp(-4.0 * c * k * k) for k in range(1 - terms, terms))
    return sum(math.exp(-c * r * r) for r in range(1, terms))


def test_theta_against_brute_force():
    for length in (0.5, 1.0, 2.0):
        for t in (0.05, 0.2, 1.0, 3.0):
            for kind in specfun.Bc:
                got = specfun.theta_eval(kind, length, t).value
                want = _brute_theta(kind, length, t)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def _route_values(kind, length, t):
    """(direct, dual) values of one theta sum, periodic axes mapped onto the
    Dirichlet modes of the half interval as theta_eval maps them."""
    if kind is specfun.Bc.PERIODIC:
        direct, dual = _route_values(specfun.Bc.DIRICHLET, 0.5 * length, t)
        return 1.0 + 2.0 * direct, 1.0 + 2.0 * dual
    return (
        specfun._theta_direct(kind, length, t).value,
        specfun._theta_dual(kind, length, t).value,
    )


def _at_switch(length):
    """A t with pi t / L^2 == 1.0 exactly in floating point."""
    t = length * length / math.pi
    while math.pi * t / (length * length) < 1.0:
        t = math.nextafter(t, math.inf)
    while math.pi * t / (length * length) > 1.0:
        t = math.nextafter(t, 0.0)
    assert math.pi * t / (length * length) == 1.0
    return t


def test_theta_dual_path_agreement():
    # both summation routes across the crossover region, the switch included
    length = 1.3
    ts = [x * length**2 / math.pi for x in (0.2, 0.5, 0.9, 1.0, 1.1, 2.0, 5.0)]
    for t in ts + [_at_switch(length)]:
        for kind in specfun.Bc:
            direct, dual = _route_values(kind, length, t)
            assert direct == pytest.approx(dual, rel=1e-12, abs=1e-15)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    st.sampled_from([specfun.Bc.DIRICHLET, specfun.Bc.NEUMANN]),
    st.floats(-3.0, 3.0),
    st.floats(0.5, 2.0),
)
def test_jacobi_duality_around_the_switch(kind, log_length, x):
    # both routes at pi t / L^2 = x on either side of the switch, L
    # log-uniform over six decades; the worst of 20,000 random draws was
    # 1.4e-12 relative, from the cancellation in the Dirichlet dual's (S-1)/2
    length = 10.0**log_length
    direct, dual = _route_values(kind, length, x * length * length / math.pi)
    assert dual == pytest.approx(direct, rel=3e-12, abs=0.0)


def test_theta_auto_mode_selection():
    # the defining series from pi t / L^2 = 1 up, the modular dual below it
    length = 1.0
    switch = _at_switch(length)
    below = math.nextafter(switch, 0.0)
    for t, route in ((1.01 / math.pi, specfun._theta_direct), (switch, specfun._theta_direct),
                     (below, specfun._theta_dual), (0.99 / math.pi, specfun._theta_dual)):
        for kind in (specfun.Bc.DIRICHLET, specfun.Bc.NEUMANN):
            assert specfun.theta_eval(kind, length, t) == route(kind, length, t)
        # a periodic axis switches on its half length
        half = route(specfun.Bc.DIRICHLET, 0.5 * length, t / 4.0)
        periodic = specfun.theta_eval(specfun.Bc.PERIODIC, length, t / 4.0)
        assert periodic.value == 1.0 + 2.0 * half.value
        assert periodic.terms == half.terms


def test_theta_term_counts_at_crossover():
    length = 1.0
    t = _at_switch(length)
    for route in (specfun._theta_direct, specfun._theta_dual):
        assert route(specfun.Bc.NEUMANN, length, t).terms <= 20


def test_theta_neumann_dirichlet_offset():
    # the two kinds differ by the zero mode alone
    for t in (0.1, 0.5, 2.0):
        n = specfun.theta_eval(specfun.Bc.NEUMANN, 1.0, t).value
        d = specfun.theta_eval(specfun.Bc.DIRICHLET, 1.0, t).value
        assert n - d == pytest.approx(1.0, rel=1e-14)


def test_theta_tail_bound_reported():
    ev = specfun.theta_eval(specfun.Bc.DIRICHLET, 1.0, 0.5)
    assert 0.0 <= ev.tail_bound < 1e-12 * (1.0 + ev.value)


def test_theta_rejects_bad_arguments():
    # a non-finite argument turns the stopping test into 0 * inf = nan
    bad = ((1.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, -0.5))
    bad += ((math.inf, 1e-4), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan))
    for kind in specfun.Bc:
        for length, t in bad:
            with pytest.raises(ParameterError):
                specfun.theta_eval(kind, length, t)


def test_theta_prefactor_past_the_float_range_is_refused():
    # L / sqrt(pi t) = inf made the dual series' stopping test nan, and its
    # loop never ended
    for kind in specfun.Bc:
        with pytest.raises(ParameterError, match="prefactor"):
            specfun.theta_eval(kind, 3.2e260, 9e-116)


@settings(max_examples=60, deadline=None)
@given(
    length=st.floats(0.3, 3.0),
    t=st.floats(0.05, 5.0),
)
def test_theta_paths_agree_property(length, t):
    direct = specfun._theta_direct(specfun.Bc.NEUMANN, length, t)
    dual = specfun._theta_dual(specfun.Bc.NEUMANN, length, t)
    assert direct.value == pytest.approx(dual.value, rel=5e-13, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(length=st.floats(0.5, 2.0), t=st.floats(0.05, 2.0), factor=st.floats(1.05, 3.0))
def test_theta_decreasing_in_t(length, t, factor):
    a = specfun.theta_eval(specfun.Bc.DIRICHLET, length, t).value
    b = specfun.theta_eval(specfun.Bc.DIRICHLET, length, t * factor).value
    if a > 1e-12:  # below that the certified truncation may round both to 0
        assert b < a
    else:
        assert b <= a
