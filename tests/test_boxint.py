"""Cell overlap energies, the aspect-ratio grid, concavity and positivity."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from caslab import boxint, spectrum
from caslab.errors import CheckReport, ParameterError, QuadratureError, ResourceError


def test_interval_overlap_against_2d_quadrature():
    for L, t in ((1.0, 1.0), (2.0, 0.7), (0.5, 3.0)):
        want, err = integrate.dblquad(
            lambda x, y: math.exp(-t * (x - y) ** 2), 0.0, L, 0.0, L
        )
        assert err < 1e-10
        assert boxint.interval_overlap(L, t) == pytest.approx(want, abs=1e-10)


def test_interval_overlap_small_t_limit():
    assert boxint.interval_overlap(1.5, 1e-12) == pytest.approx(1.5**2, rel=1e-9)


def test_interval_overlap_scaling():
    # I_{cL}(t) = c^2 I_L(c^2 t)
    c, L, t = 2.0, 0.7, 1.3
    left = boxint.interval_overlap(c * L, t)
    right = c * c * boxint.interval_overlap(L, c * c * t)
    assert left == pytest.approx(right, rel=1e-13)


def test_interval_overlap_validation():
    with pytest.raises(ParameterError):
        boxint.interval_overlap(0.0, 1.0)
    with pytest.raises(ParameterError):
        boxint.interval_overlap(1.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(L=st.floats(0.2, 4.0), t=st.floats(0.01, 50.0))
def test_interval_overlap_bounds_property(L, t):
    val = boxint.interval_overlap(L, t)
    assert 0.0 < val <= min(L * L, L * math.sqrt(math.pi / t)) * (1.0 + 1e-12)


def test_cell_energy_fifth_power_scaling():
    unit = boxint.cell_overlap_energy((1.0, 1.0, 1.0))
    doubled = boxint.cell_overlap_energy((2.0, 2.0, 2.0))
    assert doubled == pytest.approx(32.0 * unit, rel=1e-11)


def _cell_energy_quadpack(lengths):
    """The t-integral by QUADPACK, split at t = 1 with t = u^2 below it."""

    def product(t):
        return math.prod(boxint.interval_overlap(L, t) for L in lengths)

    def quad(f, a, b):
        value, _ = integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=400)
        return value

    head = quad(lambda u: 2.0 * product(u * u), 0.0, 1.0)
    tail = quad(lambda t: product(t) / math.sqrt(t), 1.0, math.inf)
    return (head + tail) / math.sqrt(math.pi)


@pytest.mark.parametrize("alpha", [1.0, 1.5, 10.0, 100.0])
def test_cell_energy_matches_quadpack(alpha):
    lengths = (alpha, 1.0 / alpha, 1.0)
    want = _cell_energy_quadpack(lengths)
    assert boxint.cell_overlap_energy(lengths) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "alpha,rel", [(126.0, 1e-12), (1e3, 1e-12), (1e4, 1e-11), (1 / 126, 1e-12), (1e-3, 1e-12)]
)
def test_t_integral_at_extreme_aspects(alpha, rel):
    # long cells put the factors' erf knees decades apart in t
    got = boxint.delta_alpha(alpha, boxint.DeltaMethod.T_INTEGRAL)
    assert got == pytest.approx(boxint._delta_quadrature(alpha), rel=rel, abs=0.0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.tuples(*[st.floats(-3.0, 3.0)] * 3), st.floats(-3.0, 3.0))
def test_cell_energy_permutation_invariance(log_sides, log_alpha):
    # all six orders of random sides, and alpha <-> 1/alpha, whose sides
    # (1/alpha, alpha) differ from (alpha, 1/alpha) in the last bit: the worst
    # of 1,500 random draws was 6.1e-16 relative for either
    sides = tuple(math.exp(x) for x in log_sides)
    want = boxint.cell_overlap_energy(sides)
    for order in itertools.permutations(sides):
        assert boxint.cell_overlap_energy(order) == pytest.approx(want, rel=2e-15, abs=0.0)
    alpha = math.exp(log_alpha)
    want = boxint.delta_alpha(alpha)
    assert boxint.delta_alpha(1.0 / alpha) == pytest.approx(want, rel=2e-15, abs=0.0)


def test_delta_cube_closed_form_value():
    assert boxint.delta_cube_closed_form() == pytest.approx(
        1.8823126443896605, rel=1e-15
    )


def test_delta_t_integral_hits_closed_form():
    got = boxint.delta_alpha(1.0, boxint.DeltaMethod.T_INTEGRAL)
    assert abs(got - boxint.delta_cube_closed_form()) < 1e-12


def test_delta_quadrature_hits_closed_form():
    got = boxint.delta_alpha(1.0, boxint.DeltaMethod.QUADRATURE_3D)
    assert abs(got - boxint.delta_cube_closed_form()) < 1e-9
    # off the cube, the t-integral is the reference
    got = boxint.delta_alpha(1.5, boxint.DeltaMethod.QUADRATURE_3D)
    assert abs(got - boxint.delta_alpha(1.5, boxint.DeltaMethod.T_INTEGRAL)) < 1e-8


def _radial_profile(lengths, u):
    """int_0^R r prod_i (l_i - u_i r) dr along the unit direction u, R being the
    distance to the first face the ray meets: the angular integrand the face
    rule replaces, kept here as its oracle."""
    r_hit = min(li / ui for li, ui in zip(lengths, u) if ui > 0.0)
    (l1, l2, l3), (u1, u2, u3) = lengths, u
    c0 = l1 * l2 * l3
    c1 = -(u1 * l2 * l3 + u2 * l1 * l3 + u3 * l1 * l2)
    c2 = u1 * u2 * l3 + u1 * u3 * l2 + u2 * u3 * l1
    c3 = -u1 * u2 * u3
    return c0 * r_hit**2 / 2 + c1 * r_hit**3 / 3 + c2 * r_hit**4 / 4 + c3 * r_hit**5 / 5


def _delta_angular_dblquad(alpha):
    lengths = (alpha, 1.0 / alpha, 1.0)

    def integrand(theta, phi):
        sin_t = math.sin(theta)
        u = (sin_t * math.cos(phi), sin_t * math.sin(phi), math.cos(theta))
        return _radial_profile(lengths, u) * sin_t

    value, err = integrate.dblquad(
        integrand, 0.0, 0.5 * math.pi, 0.0, 0.5 * math.pi, epsabs=1e-11, epsrel=1e-11
    )
    assert err < 1e-9
    return 8.0 * value


@pytest.mark.parametrize("alpha", [1.0, 1.6, 2.5])
def test_face_rule_matches_angular_dblquad(alpha):
    got = boxint.delta_alpha(alpha, boxint.DeltaMethod.QUADRATURE_3D)
    assert abs(got - _delta_angular_dblquad(alpha)) < 1e-10


@pytest.mark.parametrize("alpha", [10.0, 50.0, 0.02])
def test_face_rule_matches_t_integral_at_wide_aspects(alpha):
    got = boxint.delta_alpha(alpha, boxint.DeltaMethod.QUADRATURE_3D)
    assert got == pytest.approx(boxint.delta_alpha(alpha), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lengths", [(1.0, 1.0, 1.0), (1.6, 0.625, 1.0), (50.0, 0.02, 1.0)])
def test_face_rule_covers_the_octant(lengths):
    # sum_k int int l_k / |p|^3 dA is the solid angle of the octant, pi/2
    omega = boxint._face_sum(lengths, lambda p, r2: r2**-1.5, boxint._FACE_NODES)
    assert omega == pytest.approx(0.5 * math.pi, rel=1e-14, abs=0.0)


def test_exit_profile_is_the_radial_integral():
    rng = np.random.default_rng(11)
    lengths = (2.0, 0.5, 1.0)
    for u in np.abs(rng.standard_normal((200, 3))):
        u /= np.linalg.norm(u)
        r_hit = min(li / ui for li, ui in zip(lengths, u))
        want = _radial_profile(lengths, tuple(u))
        got = r_hit**2 * boxint._exit_profile(lengths, tuple(r_hit * u))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_face_rule_guards(monkeypatch):
    # an extreme aspect ratio stops before building its node grid
    for alpha in (1e-30, 5e-324, 1e300):
        with pytest.raises(ResourceError):
            boxint.delta_alpha(alpha, boxint.DeltaMethod.QUADRATURE_3D)
    # a guard rule too coarse to agree with the 16-node rule trips the check
    monkeypatch.setattr(boxint, "_GUARD_NODES", 2)
    with pytest.raises(QuadratureError):
        boxint.delta_alpha(1.0, boxint.DeltaMethod.QUADRATURE_3D)


def test_face_rule_loads_no_quadrature_package():
    child = (
        "import sys\n"
        "from caslab import boxint\n"
        "boxint.delta_alpha(1.5, boxint.DeltaMethod.QUADRATURE_3D)\n"
        "boxint.delta_alpha(1.5, boxint.DeltaMethod.T_INTEGRAL)\n"
        "print([m for m in ('scipy', 'mpmath') if m in sys.modules])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_delta_monte_carlo_consistent():
    # the cube against its closed form, an off-cube cell against the t-integral
    for alpha, budget, seed, want in (
        (1.5, 100_000, 5, boxint.delta_alpha(1.5)),
        (1.0, 500_000, 77, boxint.delta_cube_closed_form()),
    ):
        est = boxint.delta_alpha(
            alpha, boxint.DeltaMethod.MONTE_CARLO, budget=budget, seed=seed
        )
        assert est.n == budget
        assert abs(est.mean - want) <= 5.0 * est.stderr
    # rerunning the last draw reproduces it bit for bit
    repeat = boxint.delta_alpha(
        1.0, boxint.DeltaMethod.MONTE_CARLO, budget=500_000, seed=77
    )
    assert est.mean == repeat.mean


class TopUniformRng:
    """Stand-in generator whose uniforms are all the largest double below 1."""

    def random(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_pair_distances_are_strictly_positive():
    lengths = np.array([2.0, 0.5, 1.0])
    # the largest uniform gives the shortest distance, 2^-53 L_i per axis
    closest = boxint._inverse_distances(lengths, TopUniformRng(), 4)
    assert closest == pytest.approx(2.0**53 / np.linalg.norm(lengths), rel=1e-15)
    rng = np.random.Generator(np.random.Philox(3))
    inv = boxint._inverse_distances(lengths, rng, 1_000_000)
    assert np.all(np.isfinite(inv)) and np.all(inv > 0.0)


def test_delta_monte_carlo_is_pinned():
    # pins the pair kernel, the 65536-row batches of three draws per pair
    # and the merge order
    est = boxint.delta_alpha(
        1.5, boxint.DeltaMethod.MONTE_CARLO, budget=1_000_000, seed=5
    )
    assert (est.mean, est.stderr) == (1.8028350535010718, 0.0016161686990808855)


def test_pair_sampler_mean_matches_t_integral():
    est = boxint.delta_alpha(
        2.0, boxint.DeltaMethod.MONTE_CARLO, budget=1_000_000, seed=8
    )
    assert abs(est.mean - boxint.delta_alpha(2.0)) <= 4.0 * est.stderr


def test_delta_frozen_aspect_values():
    frozen = {
        1.5: 1.803220166012,
        2.0: 1.667051201533,
        3.0: 1.413363226189,
        5.0: 1.074397958728,
    }
    for alpha, want in frozen.items():
        got = boxint.delta_alpha(alpha)
        assert got == pytest.approx(want, abs=5e-12)


def test_delta_reciprocal_symmetry():
    for alpha in (1.25, 1.5, 2.0, 3.0, 5.0):
        assert boxint.delta_alpha(alpha) == pytest.approx(
            boxint.delta_alpha(1.0 / alpha), rel=1e-12
        )


def test_cube_is_the_strict_maximum():
    cube = boxint.delta_alpha(1.0)
    for alpha in (0.25, 0.5, 0.8, 1.25, 2.0, 4.0):
        assert boxint.delta_alpha(alpha) < cube


def test_delta_global_bound():
    # Delta <= 2 pi R^2 with R the circumradius scale sqrt(3) of the cube family
    for alpha in (0.5, 1.0, 2.0, 5.0):
        assert boxint.delta_alpha(alpha) <= 2.0 * math.pi * 3.0


def test_aspect_cell_validation():
    for method in boxint.DeltaMethod:
        with pytest.raises(ParameterError):
            boxint.delta_alpha(0.0, method)
    with pytest.raises(ParameterError):
        boxint.delta_alpha(1.0, boxint.DeltaMethod.MONTE_CARLO, budget=1)
    assert boxint.delta_alpha(2.0) == boxint.cell_overlap_energy((2.0, 0.5, 1.0))


def test_reference_energy_formula():
    delta = 1.88
    got = boxint.reference_energy(2.0, 3, 1.5, delta)
    assert got == pytest.approx(-(3.0**2 / 1.5) * 2.0 * delta, rel=1e-15)
    assert got < 0.0


def second_difference_margin(t: float, u: float, h: float) -> float:
    """Centered second difference of u -> log I_{e^u}(t), the scan's oracle."""

    def f(uu: float) -> float:
        return math.log(boxint.interval_overlap(math.exp(uu), t))

    return (f(u + h) - 2.0 * f(u) + f(u - h)) / (h * h)


def test_second_difference_negative_samples():
    # phi'' < 0 at the scan's corners and centre, and out in both tails
    for t in (0.01, 1.0, 100.0):
        for u in (-3.0, -0.7, 0.0, 1.3, 3.0):
            s = np.array([u + 0.5 * math.log(t)])
            assert boxint.log_overlap_curvature(s)[0] < 0.0
    assert np.all(boxint.log_overlap_curvature(np.array([-12.0, -8.0, 8.0, 20.0])) < 0.0)


def test_log_overlap_curvature_against_mpmath():
    import mpmath

    def phi(s):
        r = mpmath.exp(s)
        return mpmath.log(mpmath.sqrt(mpmath.pi) * r * mpmath.erf(r) + mpmath.expm1(-r * r))

    s = np.linspace(-5.31, 5.31, 37)
    got = boxint.log_overlap_curvature(s)
    with mpmath.workdps(50):
        want = [mpmath.diff(phi, mpmath.mpf(float(x)), 2) for x in s]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-9 * abs(w)


def test_log_overlap_curvature_against_second_differences():
    # the scan's whole grid, against the centered differences it replaced
    t_vals, u_vals = np.geomspace(1e-2, 1e2, 25), np.linspace(-3.0, 3.0, 61)
    for t in t_vals:
        exact = boxint.log_overlap_curvature(u_vals + 0.5 * math.log(t))
        fd = [second_difference_margin(float(t), float(u), 1e-3) for u in u_vals]
        np.testing.assert_allclose(fd, exact, rtol=1e-4, atol=0.0)


def test_concavity_scan_frozen_margin():
    scan = boxint.log_concavity_scan()
    assert scan.max_second_difference == pytest.approx(
        -1.6524823359009844e-05, rel=1e-12
    )
    assert len(scan.max_by_t) == 25
    assert max(d2 for _, d2 in scan.max_by_t) == scan.max_second_difference
    t, u = scan.max_by_t[12][0], np.linspace(-3.0, 3.0, 61)
    assert scan.max_by_t[12][1] == pytest.approx(
        max(boxint.log_overlap_curvature(u + 0.5 * math.log(t))), rel=1e-14
    )
    assert scan.min_second_difference < -0.5
    assert scan.product_monotone
    assert scan.symmetry_deviation == 0.0
    margin, monotone = scan.checks
    assert margin.name == "max second difference (must be < 0)"
    assert (margin.measured, margin.threshold) == (scan.max_second_difference, -1e-12)
    assert monotone.name == "product strictly decreasing in beta"
    assert monotone.measured == 0.0
    assert scan.passed


def test_chain_endpoint_values():
    assert boxint.chain_terms(0.0)[2] == 0.0
    assert boxint.chain_terms(3.0)[2] == pytest.approx(0.8844995651524932, rel=1e-14)
    assert boxint.chain_terms(1.0)[0] == pytest.approx(
        0.5 * math.sqrt(math.pi) * math.erf(1.0), rel=1e-14
    )


def test_chain_small_r_quartic_law():
    r = 0.05
    assert boxint.chain_terms(r)[1] / ((5.0 / 6.0) * r**4) == pytest.approx(1.0, abs=1e-3)


def test_chain_k_lower_bounds():
    # quartic lower bound on the small-r side, source-mass bound past 1/sqrt(2)
    for r in (0.1, 0.3, 0.5, 0.7):
        assert boxint.chain_terms(r)[1] >= 0.5 * r**4 * (1.0 + r * r)
    for r in (0.71, 1.0, 2.0, 5.0):
        e = math.exp(-r * r)
        assert boxint.chain_terms(r)[1] >= 0.5 * (1.0 - e)


def test_positivity_chain_report():
    report = boxint.positivity_chain()
    assert report.passed
    assert report.h_at_zero == 0.0
    assert report.k_min > 0.0
    assert report.h_min > 0.0
    assert report.max_derivative_rel_err <= 1e-6
    assert report.r_grid_size == 200
    assert report.r_min == pytest.approx(0.05)
    assert report.r_max == pytest.approx(10.0)
    assert [c.name for c in report.checks] == [
        "k > 0 on (0, 10]", "h > 0 on (0, 10]", "h(0) = 0", "h' vs 2 E k relative error",
    ]
    assert [c.measured for c in report.checks] == [0.0, 0.0, 0.0, report.max_derivative_rel_err]
    assert report.checks[-1].threshold == 1e-6


def test_scan_verdicts_follow_their_checks():
    # each report passes on its own checks, and one failing check fails it
    for report in (boxint.log_concavity_scan(), boxint.positivity_chain()):
        assert report.passed
        failing = dataclasses.replace(
            report, checks=report.checks[:-1] + (CheckReport.flag("x", False),)
        )
        assert not failing.passed


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(0.3, 3.0),
    L=st.floats(0.3, 3.0),
    t=st.floats(0.05, 10.0),
)
def test_interval_overlap_scaling_property(c, L, t):
    left = boxint.interval_overlap(c * L, t)
    right = c * c * boxint.interval_overlap(L, c * c * t)
    assert left == pytest.approx(right, rel=1e-11)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_a=st.floats(-3.0, 3.0), log_alpha=st.floats(-1.5, 1.5))
def test_aspect_family_has_one_cell(log_a, log_alpha):
    # aspect_sides is the only place the family's cell is written out
    a, alpha = 10.0**log_a, 10.0**log_alpha
    assert spectrum.aspect_sides(a, alpha) == (alpha * a, a / alpha, a)
    assert boxint.delta_alpha(alpha) == boxint.cell_overlap_energy((alpha, 1.0 / alpha, 1.0))
