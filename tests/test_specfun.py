"""Special-function layer: gamma, array erf, incomplete gamma, negative odd
zeta values, and the two theta evaluation paths."""

import math
from fractions import Fraction

import mpmath
import numpy as np
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


def test_gamma_deep_negative_is_mpmaths_subnormal():
    # Gamma(1 - x) overflows float64 here, and Gamma(x) is a subnormal
    got = specfun.gamma(-171.5)
    assert got == float(mpmath.gamma(mpmath.mpf("-171.5")))


@pytest.mark.parametrize("x", [-2.0007100646086258, -37.00015917006024, -86.00001603673142])
def test_gamma_just_above_negative_poles_against_mpmath(x):
    # with f = x - floor(x) near 1, sin(pi f) loses the digits of pi (1 - f),
    # so a reflection built on it misses by up to 5.5e-12 relative here
    with mpmath.workdps(40):
        want = float(mpmath.gamma(mpmath.mpf(x)))
    assert specfun.gamma(x) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_gamma_poles():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            specfun.gamma(x)


def test_erf_frozen_and_odd():
    assert specfun.erf(np.array([1.0]))[0] == pytest.approx(0.8427007929497149, rel=1e-15)
    x = np.array([[0.1, 0.7], [2.3, 5.0]])
    got = specfun.erf(x)
    assert got.shape == x.shape
    assert np.array_equal(specfun.erf(-x), -got)  # bitwise oddness
    assert [math.erf(v) for v in x.ravel()] == got.ravel().tolist()
    assert specfun.erf(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


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


def _route(kind, length, t, direct):
    """One Dirichlet or Neumann sum at a scalar t by the route that direct
    names, whichever theta_eval would take, as floats."""
    ev = specfun._theta_series([kind], [length], np.array([t]), np.array([[direct]]))
    return specfun.ThetaEval(float(ev.value[0, 0]), ev.terms, float(ev.tail_bound[0, 0]))


def _theta_direct(kind, length, t):
    return _route(kind, length, t, True)


def _theta_dual(kind, length, t):
    return _route(kind, length, t, False)


_ROUTES = {"_theta_direct": _theta_direct, "_theta_dual": _theta_dual,
           "theta_eval": specfun.theta_eval}


def _route_values(kind, length, t):
    """(direct, dual) values of one theta sum, periodic axes mapped onto the
    Dirichlet modes of the half interval as theta_eval maps them."""
    if kind is specfun.Bc.PERIODIC:
        direct, dual = _route_values(specfun.Bc.DIRICHLET, 0.5 * length, t)
        return 1.0 + 2.0 * direct, 1.0 + 2.0 * dual
    return (
        _theta_direct(kind, length, t).value,
        _theta_dual(kind, length, t).value,
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
    for t, route in ((1.01 / math.pi, _theta_direct), (switch, _theta_direct),
                     (below, _theta_dual), (0.99 / math.pi, _theta_dual)):
        for kind in (specfun.Bc.DIRICHLET, specfun.Bc.NEUMANN):
            assert specfun.theta_eval(kind, length, t) == route(kind, length, t)
        # a periodic axis switches on its half length
        half = route(specfun.Bc.DIRICHLET, 0.5 * length, t / 4.0)
        periodic = specfun.theta_eval(specfun.Bc.PERIODIC, length, t / 4.0)
        assert periodic.value == 1.0 + 2.0 * half.value
        assert periodic.terms == half.terms


# (route, bc, L, t) -> (value, terms, tail_bound), floats as float.hex; recorded
# from separate direct and dual loops, which the shared series reproduces bit for bit
_PINNED_THETA = {
    ("_theta_direct", "DIRICHLET", 1.3, 0.15): ("0x1.c9a007e94c341p-2", 6, "0x1.0d6c7baa1a60dp-62"),
    ("_theta_direct", "DIRICHLET", 0.7, 0.4): ("0x1.4c54133a3264ep-12", 2, "0x1.4f0a6dcbc409cp-105"),
    ("_theta_direct", "DIRICHLET", 2.0, 3.0): ("0x1.3fc4651a550e6p-11", 2, "0x1.d9b944bf6b00bp-97"),
    ("_theta_direct", "NEUMANN", 1.3, 0.15): ("0x1.726801fa53076p+0", 6, "0x1.6ad5773f3ebc4p-46"),
    ("_theta_direct", "NEUMANN", 0.7, 0.4): ("0x1.0014c54133a05p+0", 2, "0x1.6b8358971dc7bp-47"),
    ("_theta_direct", "NEUMANN", 2.0, 3.0): ("0x1.0027f88ca34aap+0", 3, "0x1.d9b944bf6b00bp-97"),
    ("_theta_dual", "DIRICHLET", 1.3, 0.15): ("0x1.c9a007e94c340p-2", 2, "0x1.def82e3ca742ap-65"),
    ("_theta_dual", "DIRICHLET", 0.7, 0.4): ("0x1.4c54133a32800p-12", 6, "0x1.9f3cb546a2fb1p-65"),
    ("_theta_dual", "DIRICHLET", 2.0, 3.0): ("0x1.3fc4651a50000p-11", 5, "0x1.396a95834ff7ep-49"),
    ("_theta_dual", "NEUMANN", 1.3, 0.15): ("0x1.726801fa530d0p+0", 2, "0x1.def82e3ca742ap-65"),
    ("_theta_dual", "NEUMANN", 0.7, 0.4): ("0x1.0014c54133a32p+0", 6, "0x1.9f3cb546a2fb1p-65"),
    ("_theta_dual", "NEUMANN", 2.0, 3.0): ("0x1.0027f88ca34a0p+0", 5, "0x1.396a95834ff7ep-49"),
    ("theta_eval", "PERIODIC", 1.3, 0.15): ("0x1.0f6655004ecadp+0", 3, "0x1.1591fc2e7fc3dp-80"),
    ("theta_eval", "PERIODIC", 0.7, 0.4): ("0x1.000000000005bp+0", 1, "0x1.04321e2ceac89p-185"),
    ("theta_eval", "PERIODIC", 4.0, 0.5): ("0x1.98ca7da0ce734p+0", 3, "0x1.bdc9558403b05p-103"),
    ("theta_eval", "PERIODIC", 1.3, 0.05): ("0x1.a40763998e796p+0", 2, "0x1.eec6f6e2ab6ebp-48"),
}


@pytest.mark.parametrize("key", list(_PINNED_THETA), ids=lambda k: "-".join(map(str, k)))
def test_theta_routes_are_pinned_bit_for_bit(key):
    route, bc, length, t = key
    ev = _ROUTES[route](specfun.Bc[bc], length, t)
    value, terms, tail = _PINNED_THETA[key]
    assert (ev.value.hex(), ev.terms, ev.tail_bound.hex()) == (value, terms, tail)


def test_theta_term_counts_at_crossover():
    length = 1.0
    t = _at_switch(length)
    for route in (_theta_direct, _theta_dual):
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


def test_dirichlet_sum_below_the_absolute_tolerance_is_kept():
    # past c = pi^2 t / L^2 = 32 the first term e^-c is below the stop rule's
    # 1e-14 and the direct route returned 0.0, which a box heat trace then
    # refused (criterion 6 at seed 2024); the sum is e^-c until that underflows
    for t in (4.0, 30.0, 70.0):
        ev = specfun.theta_eval(specfun.Bc.DIRICHLET, 1.0, t)
        assert (ev.value, ev.terms) == (math.exp(-math.pi * math.pi * t), 1)
        assert 0.0 <= ev.tail_bound <= 1e-14 * ev.value
    # past that it is refused, not returned as a subnormal (t = 72) or 0.0
    for t in (72.0, 80.0):
        with pytest.raises(ParameterError, match="theta sum .* leaves the normal float range"):
            specfun.theta_eval(specfun.Bc.DIRICHLET, 1.0, t)


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
    direct = _theta_direct(specfun.Bc.NEUMANN, length, t)
    dual = _theta_dual(specfun.Bc.NEUMANN, length, t)
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


def _direct_sum(kind, length, t):
    """Every term of the sum down to underflow, added exactly by fsum."""
    c = math.pi**2 * t / length**2 * (4.0 if kind is specfun.Bc.PERIODIC else 1.0)
    r = np.arange(1.0, math.sqrt(745.0 / c) + 2.0)
    tower = math.fsum(map(math.exp, (-c * r * r).tolist()))
    return {"dirichlet": tower, "neumann": 1.0 + tower, "periodic": 1.0 + 2.0 * tower}[kind.value]


@pytest.mark.parametrize("kind", list(specfun.Bc), ids=[bc.value for bc in specfun.Bc])
def test_theta_arrays_are_the_one_node_calls(kind):
    # at four lengths and 40 t in [1e-4, 3 L^2], across both routes, each
    # entry of the array call is the one-node call bit for bit, and lies
    # within its tail bound plus 8 ulp of the direct sum; the worst excess
    # over the tail bound measured 6 ulp (Dirichlet), 2 (Neumann) and 2.4
    # (periodic), and the tail bound itself is the stop rule's absolute
    # 1e-14 (1 + value), up to 1.2e-11 of a Dirichlet sum near 2e-4
    for length in (0.3, 1.0, 2.7, 13.0):
        t = np.geomspace(1e-4, 3.0 * length * length, 40)
        direct = math.pi * t / length**2 >= 1.0
        assert direct.any() and not direct.all()
        ev = specfun.theta_eval(kind, length, t)
        assert ev.value.shape == ev.tail_bound.shape == t.shape
        terms = 0
        for node, value, tail in zip(t.tolist(), ev.value.tolist(), ev.tail_bound.tolist()):
            one = specfun.theta_eval(kind, length, node)
            assert (one.value, one.tail_bound) == (value, tail)
            terms += one.terms
            want = _direct_sum(kind, length, node)
            assert abs(value - want) <= tail + 8.0 * math.ulp(want)
        # the tracer's theta_terms counter adds it to a JSON record
        assert type(ev.terms) is int and ev.terms == terms


def test_theta_eval_stacks_a_list_of_axes():
    # several axes at several t in one series, each row the one-axis call,
    # for any shape of t
    bcs = (specfun.Bc.NEUMANN, specfun.Bc.PERIODIC, specfun.Bc.DIRICHLET)
    lengths = (1.3, 0.7, 2.0)
    t = np.array([[1e-3, 0.05, 0.4], [1.0, 2.5, 7.0]])
    ev = specfun.theta_eval(bcs, lengths, t)
    assert ev.value.shape == ev.tail_bound.shape == (3, 2, 3)
    for row, (bc, length) in enumerate(zip(bcs, lengths)):
        one = specfun.theta_eval(bc, length, t)
        assert np.array_equal(ev.value[row], one.value)
        assert np.array_equal(ev.tail_bound[row], one.tail_bound)
    assert ev.terms == sum(specfun.theta_eval(b, x, t).terms for b, x in zip(bcs, lengths))
    assert specfun.theta_eval([bcs[2]], [2.0], 0.4).value.shape == (1,)
    for length in (2.0, (1.0, 2.0)):
        with pytest.raises(ParameterError, match="one length per axis"):
            specfun.theta_eval(bcs, length, t)


@pytest.mark.parametrize(
    "length,bad",
    [(1.0, math.nan), (1.0, 0.0), (1.0, -1.0), (1.0, math.inf), (1.0, 80.0), (3.2e260, 9e-116)],
    ids=["nan", "zero", "negative", "inf", "underflowing_sum", "prefactor"],
)
def test_array_theta_refuses_a_node_as_the_scalar_call_does(length, bad):
    # the scalar path's ParameterError, naming the same t, from any node
    for kind in (specfun.Bc.DIRICHLET, specfun.Bc.NEUMANN):
        if bad == 80.0 and kind is specfun.Bc.NEUMANN:
            continue  # a Neumann sum holds its zero mode
        with pytest.raises(ParameterError) as scalar:
            specfun.theta_eval(kind, length, bad)
        with pytest.raises(ParameterError) as array:
            specfun.theta_eval(kind, length, np.array([0.5, bad, 2.0]))
        assert str(array.value) == str(scalar.value)
    for bad_array in (np.array([True, False]), np.array(["1.0"]), [[1.0], [2.0, 3.0]]):
        with pytest.raises(ParameterError, match="theta t"):
            specfun.theta_eval(specfun.Bc.DIRICHLET, 1.0, bad_array)
