"""Cell overlap energies, the aspect-ratio grid, concavity and positivity."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
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
    # an extreme aspect ratio stops before building its node grid (5e-324,
    # whose side 1/alpha is inf, is refused by aspect_sides: see test_errors)
    for alpha in (1e-30, 1e300):
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
        "boxint.delta_alpha(1.5, boxint.DeltaMethod.MONTE_CARLO, budget=20_000, seed=1)\n"
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


def _pairs(sides, rng, rows):
    return boxint._inverse_distances(np.array(sides), boxint._control_means(sides), rng, rows)


def test_pair_distances_are_strictly_positive():
    lengths = (2.0, 0.5, 1.0)
    rate = boxint._SINGULAR_RATE / 0.5**2
    m_c = boxint._singular_mean(lengths)
    # the largest uniform gives the shortest distance, 2^-53 L_i per axis, where
    # row 0 is m_c + (1 - e^{-c r^2}) / r = m_c + c r to within c r^3 / 2
    closest = _pairs(lengths, TopUniformRng(), 4)
    shortest = 2.0**-53 * np.linalg.norm(lengths)
    assert closest[0] == pytest.approx(m_c + rate * shortest, rel=1e-15)
    # over a million pairs row 0 stays within m_c + [0, 0.64 sqrt(c)]: the
    # largest of (1 - e^{-x^2}) / x is 0.6382 at x = 1.12
    rng = np.random.Generator(np.random.Philox(3))
    row = _pairs(lengths, rng, 1_000_000)[0] - m_c
    assert np.all(row > 0.0) and np.all(row <= 0.6382 * math.sqrt(rate))


@pytest.mark.parametrize("alpha", [1e-3, 1.0, 1e3])
def test_pair_controls_are_their_formulas(alpha):
    # row 0 is 1/r less its singular part e^{-c r^2}/r plus that part's exact
    # mean, rows 1-5 are e^{-c r^2} by repeated squaring and row 6 is
    # (r / max L)^2, each less its exact mean; the uniforms are those of a twin
    # generator
    sides = spectrum.aspect_sides(1.0, alpha)
    means = boxint._control_means(sides)
    got = _pairs(sides, np.random.Generator(np.random.Philox(5)), 10_000)
    d = 1.0 - np.sqrt(np.random.Generator(np.random.Philox(5)).random((3, 10_000)))
    r2 = ((d * np.array(sides)[:, None]) ** 2).sum(axis=0)
    rate = boxint._SINGULAR_RATE / min(sides) ** 2
    want = means[0] - np.expm1(-rate * r2) / np.sqrt(r2)
    assert np.allclose(got[0], want, rtol=1e-15, atol=0.0)
    for c, row, mean in zip(boxint._CONTROL_RATES, got[1:6], means[1:6]):
        assert np.allclose(row + mean, np.exp(-c * r2), rtol=1e-12, atol=1e-15)
    assert np.allclose(got[6] + means[6], r2 / max(sides) ** 2, rtol=1e-15, atol=1e-16)


def _triangular_mean(length, integrand):
    """E integrand(d) under the triangular density 2 (L - d) / L^2 on [0, L],
    by mpmath quadrature on knots at 1/2, 1, 2, 4 and 8 widths of e^{-256 d^2}."""
    with mpmath.workdps(30):
        L = mpmath.mpf(length)
        knots = [0, *(k / 16 for k in (0.5, 1, 2, 4, 8) if k / 16 < length), L]
        return float(2 / L**2 * mpmath.quad(lambda d: (L - d) * integrand(d), knots))


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 1.5, 1e3])
def test_control_means_match_the_triangular_integrals(alpha):
    # an oracle that does not call interval_overlap: each axis distance has
    # the triangular density, and the axes are independent
    sides = spectrum.aspect_sides(1.0, alpha)
    means = boxint._control_means(sides)
    for c, mean in zip(boxint._CONTROL_RATES, means[1:6]):
        want = math.prod(_triangular_mean(L, lambda d: mpmath.exp(-c * d * d)) for L in sides)
        assert mean == pytest.approx(want, rel=1e-13)
    want = math.fsum(_triangular_mean(L, lambda d: d * d) for L in sides) / max(sides) ** 2
    assert means[6] == pytest.approx(want, rel=1e-13)


def _shifted_t_integral(sides, rate):
    """E e^{-c r^2} / r over the box at 30 digits, without the closed form or
    interval_overlap: 1/r = pi^{-1/2} int_0^inf t^{-1/2} e^{-t r^2} dt, and
    E e^{-s d^2} over the triangular density of one axis is its own mpmath
    closed form I_L(s) / L^2, so the mean is pi^{-1/2} int_0^inf t^{-1/2}
    prod_i I_{L_i}(t + c) / L_i^2 dt."""
    with mpmath.workdps(30):
        c = mpmath.mpf(rate)

        def axis(L, s):
            x = L * mpmath.sqrt(s)
            overlap = L * mpmath.sqrt(mpmath.pi / s) * mpmath.erf(x) + mpmath.expm1(-x * x) / s
            return overlap / L**2

        def f(t):
            return mpmath.fprod(axis(mpmath.mpf(L), t + c) for L in sides) / mpmath.sqrt(t)

        return mpmath.quad(f, [0, c / 100, c, 100 * c, mpmath.inf]) / mpmath.sqrt(mpmath.pi)


def _octant_remainder_bound(sides, rate):
    """A bound on what the closed form for m_c adds by integrating the
    difference density's polynomial prod_i (L_i - x_i) / L_i^2 over the whole
    positive octant instead of the box: there some x_i > L_i, so r > min L,
    and |L_i - x_i| <= L_i + r, so the part is at most
    (8 / V^2)(pi / 2) int_{min L}^inf prod_i (L_i + r) r e^{-c r^2} dr."""
    with mpmath.workdps(30):
        ls = [mpmath.mpf(L) for L in sides]
        shortest, c = min(ls), mpmath.mpf(rate)
        tail = mpmath.quad(
            lambda r: mpmath.fprod(L + r for L in ls) * r * mpmath.exp(-c * r * r),
            [shortest, 2 * shortest, mpmath.inf],
        )
        return float(4 * mpmath.pi / mpmath.fprod(ls) ** 2 * tail)


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 1.5, 1e3])
def test_singular_mean_matches_the_shifted_t_integral(alpha):
    # the dropped octant part is below 5e-17 of m_c (4.3e-17 at the cube, 9e-18
    # at alpha = 1e-3 and 1e3); the closed form is within 3.4e-16 of the oracle
    sides = spectrum.aspect_sides(1.0, alpha)
    rate = boxint._SINGULAR_RATE / min(sides) ** 2
    m_c = boxint._control_means(sides)[0]
    assert m_c == boxint._singular_mean(sides)
    assert _octant_remainder_bound(sides, rate) <= 5e-17 * m_c
    assert m_c == pytest.approx(float(_shifted_t_integral(sides, rate)), rel=1e-13)


@pytest.mark.parametrize("alpha", [1e-3, 1e3])
def test_controlled_pairs_hold_far_from_the_cube(alpha):
    # most pairs are hundreds apart, so e^{-r^2} is 0 for all but about 1.3 %
    # of them (r < 27) and the raw control co-moments have a condition number
    # of 4e16 to 9e16; the equilibrated Cholesky sweep keeps what it can use
    est = boxint.delta_alpha(alpha, boxint.DeltaMethod.MONTE_CARLO, budget=1_000_000, seed=3)
    assert math.isfinite(est.mean) and 0.0 < est.stderr < math.inf
    assert abs(est.mean - boxint.delta_alpha(alpha)) <= 4.0 * est.stderr


def test_delta_monte_carlo_is_pinned():
    # pins the pair kernel and its controls, the per-batch keys, the 9362-row
    # batches of seven values per pair, the merge order and the control fit;
    # 0.30 standard errors above the t-integral
    est = boxint.delta_alpha(
        1.5, boxint.DeltaMethod.MONTE_CARLO, budget=1_000_000, seed=5
    )
    assert (est.mean, est.stderr) == (1.80322727212146, 2.3918433841002166e-05)


def test_pair_monte_carlo_z_scores_are_standard_normal():
    # 200 seeds of 20,000 pairs on the cube, about 0.25 s: the mean of z has
    # standard deviation 0.071 and its sample standard deviation about 0.05
    # over 200 seeds; measured 0.10 and 1.06.  With the whole of 1/r in row 0
    # they read -1.20 and 2.43, from the rare near pairs no control follows
    closed = boxint.delta_cube_closed_form()
    z = []
    for seed in range(200):
        est = boxint.delta_alpha(
            1.0, boxint.DeltaMethod.MONTE_CARLO, budget=20_000, seed=seed
        )
        z.append((est.mean - closed) / est.stderr)
    z = np.array(z)
    assert abs(float(z.mean())) <= 0.3
    assert 0.85 <= float(z.std(ddof=1)) <= 1.2


@pytest.mark.xfail(strict=True, reason="far from the cube the pair Monte Carlo reads low")
def test_pair_monte_carlo_z_scores_far_from_the_cube():
    # the bounds of the cube's test above, at alpha = 1e3 against the
    # t-integral, 200 seeds of 10,000 pairs in about 0.4 s: measured mean
    # -0.975 and standard deviation 1.439.  The mean of 1/r gathers from every
    # decade of the long-axis distance, and n pairs draw none below about
    # alpha / n along it, where the exact singular part no longer reaches
    want = boxint.delta_alpha(1e3)
    z = []
    for seed in range(200):
        est = boxint.delta_alpha(1e3, boxint.DeltaMethod.MONTE_CARLO, budget=10_000, seed=seed)
        z.append((est.mean - want) / est.stderr)
    z = np.array(z)
    assert abs(float(z.mean())) <= 0.3
    assert 0.85 <= float(z.std(ddof=1)) <= 1.2


def test_sparse_controls_do_not_move_the_estimate():
    # at alpha = 1e4, 10,000 pairs hold a handful with r < 6, so e^{-64 r^2}
    # and e^{-256 r^2} are their exact means less a few values below the
    # rounding of those means; fitted, they put the estimate at 2.8, 26,000
    # standard errors from Delta = 0.0021
    est = boxint.delta_alpha(1e4, boxint.DeltaMethod.MONTE_CARLO, budget=10_000, seed=1)
    assert abs(est.mean - boxint.delta_alpha(1e4)) <= 4.0 * est.stderr


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


# the float form's relative error against mpmath, as its docstring states it
_CURVATURE_RTOL = {-8.0: 1e-8, 12.0: 1.5e-12, 20.0: 5.2e-8}


@pytest.mark.parametrize("s", [-8.0, -5.31, -2.0, 0.0, 2.0, 5.31, 12.0, 20.0])
def test_curvature_is_minus_2rh_over_i_squared(s):
    # phi'' = -2 r h / I^2 with the positivity chain's h, so phi'' < 0 on the
    # reals exactly when h > 0 on (0, inf), which h(0) = 0 and h' = 2 E k > 0 give
    import mpmath

    with mpmath.workdps(50):
        r = mpmath.exp(mpmath.mpf(s))
        a, _, h = boxint.chain_terms(r, mpmath)
        i = 2 * r * a + mpmath.expm1(-r * r)
        want = -2 * r * h / i**2
        i1, i2 = 2 * a, 2 * mpmath.exp(-r * r)
        closed = (r * i1 + r * r * i2) / i - (r * i1 / i) ** 2
        assert abs(closed / want - 1) <= mpmath.mpf("1e-30")
        got = boxint.log_overlap_curvature(np.array([s]))[0]
        assert abs(got / want - 1) <= _CURVATURE_RTOL.get(s, 5.4e-11)


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
