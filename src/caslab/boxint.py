"""Flat inverse-distance energies of rectangular unit cells.

Delta(alpha) is the double integral of 1/|x - y| over the unit-volume cell
[0, alpha] x [0, 1/alpha] x [0, 1], evaluated three independent ways: a
one-dimensional proper-time integral of interval overlap factors, a face rule
that does the radial direction exactly and sums the directions by graded
Gauss-Legendre panels over the three far faces the rays leave through, and a
plain Monte Carlo pair average.  The module also runs the log-concavity and
positivity checks behind the monotonicity argument: the concavity scan samples
the closed form of the second derivative of log I_{e^u}(t) in u over a grid,
and the positivity chain evaluates its helper functions on an r grid.
"""

from __future__ import annotations

# Module scope stays numpy-only: mpmath is imported where the positivity chain runs.
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (
    CheckReport,
    ParameterError,
    QuadratureError,
    ResourceError,
    check_choice,
    check_count,
    check_positive,
)
from .riesz import quad_checked
from .spectrum import aspect_sides
from .stochastic import MCEstimate, monte_carlo

_SQRT_PI = math.sqrt(math.pi)
_FACE_NODES = 16  # Gauss-Legendre nodes per panel of the face rule
_GUARD_NODES = 10  # the coarser rule it is checked against
_GUARD_RTOL = 1e-10  # largest relative gap allowed between the two
_FACE_POINT_CAP = 1 << 20  # nodes on one face, 8 MiB per float64 array


def interval_overlap(L: float, t: float) -> float:
    """I_L(t) = int_0^L int_0^L exp(-t (x-y)^2) dx dy.

    Closed antiderivative: L sqrt(pi/t) erf(L sqrt(t)) + expm1(-t L^2)/t.
    The reduction is certified against direct 2D quadrature in the test
    suite; expm1 keeps the t -> 0 limit (I -> L^2) fully accurate.
    """
    L = check_positive(L, "interval length L")
    t = check_positive(t, "interval_overlap t")
    r = L * math.sqrt(t)
    return L * math.sqrt(math.pi / t) * math.erf(r) + math.expm1(-r * r) / t


class DeltaMethod(str, enum.Enum):
    T_INTEGRAL = "t_integral"
    QUADRATURE_3D = "quadrature_3d"
    MONTE_CARLO = "monte_carlo"


def cell_overlap_energy(lengths: tuple[float, float, float]) -> float:
    """pi^{-1/2} int_0^inf t^{-1/2} prod_i I_{L_i}(t) dt for a general box.

    One double-exponential rule over the half-line (riesz.quad_checked): its
    nodes crowd toward t = 0, where the integrand goes like t^{-1/2}, and
    spread double exponentially toward the t^{-2} tail, so neither needs a
    split or an analytic tail.  I_L is interval_overlap's closed form over
    the node array, with specfun.erf over the nodes.
    """
    ls = tuple(check_positive(x, "side length") for x in lengths)
    if len(ls) != 3:
        raise ParameterError("need three side lengths")

    def f(t: np.ndarray) -> np.ndarray:
        root_t = np.sqrt(t)
        out = 1.0 / root_t
        for L in ls:
            r = L * root_t
            out *= L * np.sqrt(math.pi / t) * specfun.erf(r) + np.expm1(-r * r) / t
        return out

    return quad_checked(f, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12) / _SQRT_PI


@functools.lru_cache(maxsize=None)
def _legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    # leggauss solves an eigenproblem each call, dearer than a whole face sum
    return np.polynomial.legendre.leggauss(nodes)


def _graded_rule(side: float, near: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, side], split into the panels
    [0, near], [near, 2 near], [2 near, 4 near], ... graded toward 0."""
    edges = [0.0]
    edge = near
    while edge < side:
        edges.append(edge)
        edge *= 2.0
    edges.append(side)
    x, w = _legendre(nodes)
    bounds = np.array(edges)
    half = 0.5 * np.diff(bounds)
    mid = bounds[:-1] + half
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _face_sum(lengths, f, nodes: int) -> float:
    """sum_k int int_{face k} l_k f(p, |p|^2) dA over the three far faces x_k = l_k.

    A ray from the corner leaves the box through the face x_k = l_k exactly
    when its exit point p lies in that face, and there the solid angle is
    dOmega = l_k dA / |p|^3 with |p| >= l_k.  So with f = g / |p|^3 this is the
    integral of g(p) over the octant of directions.  Each side gets a graded
    rule with the given nodes per panel, and each face is one broadcast of f
    over its node grid; f receives the coordinates of p as broadcastable arrays.
    """
    # a side has at most 2 + log2(longest / shortest side) panels
    per_side = nodes * (2.0 + math.log2(max(lengths)) - math.log2(min(lengths)))
    if per_side * per_side > _FACE_POINT_CAP:
        raise ResourceError(
            f"face rule for sides {lengths} may need {per_side:.0f}^2 nodes on a face,"
            f" cap {_FACE_POINT_CAP}"
        )
    total = 0.0
    for k in range(3):
        i, j = (m for m in range(3) if m != k)
        a, wa = _graded_rule(lengths[i], lengths[k], nodes)
        b, wb = _graded_rule(lengths[j], lengths[k], nodes)
        p = [0.0, 0.0, 0.0]
        p[i], p[j], p[k] = a[:, None], b[None, :], lengths[k]
        r2 = p[i] * p[i] + p[j] * p[j] + lengths[k] ** 2
        total += lengths[k] * float(wa @ f(p, r2) @ wb)
    return total


def _exit_profile(lengths, p):
    """q(p) = int_0^1 s prod_i (l_i - s p_i) ds, a cubic in p.

    Along the direction u = p/|p| with exit point p, the radial integral
    int_0^|p| r prod_i (l_i - u_i r) dr equals |p|^2 q(p).
    """
    l1, l2, l3 = lengths
    p1, p2, p3 = p
    return (
        l1 * l2 * l3 / 2.0
        - (p1 * l2 * l3 + p2 * l1 * l3 + p3 * l1 * l2) / 3.0
        + (p1 * p2 * l3 + p1 * p3 * l2 + p2 * p3 * l1) / 4.0
        - p1 * p2 * p3 / 5.0
    )


def _delta_quadrature(alpha: float) -> float:
    """Delta = 8 sum_k int int_{face k} l_k q(p) / |p| dA by the face rule.

    The integrand is analytic on each face, so the 16-node rule is checked
    against the 10-node rule on the same panels; their relative gap stays
    below 2e-14 for alpha in [1e-6, 1e6].
    """
    lengths = aspect_sides(1.0, alpha)

    def f(p, r2):
        return _exit_profile(lengths, p) / np.sqrt(r2)

    fine = 8.0 * _face_sum(lengths, f, _FACE_NODES)
    coarse = 8.0 * _face_sum(lengths, f, _GUARD_NODES)
    if not abs(fine - coarse) <= _GUARD_RTOL * fine:
        raise QuadratureError(
            f"face rule gap {abs(fine - coarse):.3e} between {_FACE_NODES} and"
            f" {_GUARD_NODES} nodes exceeds {_GUARD_RTOL:g} of {fine:.6g}"
        )
    return fine


def _inverse_distances(
    lengths: np.ndarray, rng: np.random.Generator, rows: int
) -> np.ndarray:
    """1/|x - y| for rows independent uniform point pairs in the box.

    Along each axis |x_i - y_i| has the triangular density 2(L - d)/L^2, which
    L(1 - sqrt(U)) samples exactly from one uniform U in [0, 1); since
    sqrt(U) <= 1 - 2^-53, every distance is at least 2^-53 L_i > 0.  The
    uniforms are drawn as a (3, rows) array, so each axis is one contiguous
    row that is scaled by its own length.
    """
    d = rng.random((3, rows))
    np.sqrt(d, out=d)
    np.subtract(1.0, d, out=d)
    d *= lengths[:, None]
    d *= d
    s = d[0] + d[1]
    s += d[2]
    np.sqrt(s, out=s)
    return np.reciprocal(s, out=s)


def _delta_monte_carlo(alpha: float, budget: int, seed: int) -> MCEstimate:
    lengths = np.array(aspect_sides(1.0, alpha))
    return monte_carlo(
        functools.partial(_inverse_distances, lengths), budget, seed, draws_per_row=3
    )


def delta_alpha(
    alpha: float,
    method: DeltaMethod = DeltaMethod.T_INTEGRAL,
    budget: int = 1_000_000,
    seed: int = 1234,
):
    """Delta(alpha) of the unit-volume cell aspect_sides(1, alpha) by the chosen method.

    Deterministic methods return a float; MONTE_CARLO returns an MCEstimate
    whose budget is the number of point pairs.
    """
    method = check_choice(method, DeltaMethod, "Delta method")
    if method is DeltaMethod.T_INTEGRAL:
        return cell_overlap_energy(aspect_sides(1.0, alpha))
    if method is DeltaMethod.QUADRATURE_3D:
        return _delta_quadrature(alpha)
    return _delta_monte_carlo(alpha, budget, seed)


def delta_cube_closed_form() -> float:
    """Closed form of the unit-cube self energy Delta(1)."""
    s2 = math.sqrt(2.0)
    s3 = math.sqrt(3.0)
    return (
        0.4 * (1.0 + s2 - 2.0 * s3)
        - 2.0 * math.pi / 3.0
        - 6.0 * math.log(2.0)
        + 2.0 * math.log(1.0 + s2)
        + 12.0 * math.log(1.0 + s3)
        - 4.0 * math.log(2.0 + s3)
    )


@dataclass(frozen=True)
class ConcavityReport:
    """Scan of d^2/du^2 log I_{e^u}(t) over a (t, u) grid, in closed form."""

    max_second_difference: float
    min_second_difference: float
    max_by_t: tuple[tuple[float, float], ...]  # (t, max over u of the derivative)
    product_monotone: bool
    symmetry_deviation: float
    checks: tuple[CheckReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def log_overlap_curvature(s: np.ndarray) -> np.ndarray:
    """phi''(s) for phi(s) = log I_{e^s}(1), elementwise over the array s.

    With r = e^s, I_{e^s}(1) = I = sqrt(pi) r erf r + expm1(-r^2), and
    dI/dr = I_1 = sqrt(pi) erf r, dI_1/dr = I_2 = 2 e^{-r^2}; so
    phi'' = (r I_1 + r^2 I_2) / I - (r I_1 / I)^2.  Since
    I_L(t) = I_{L sqrt(t)}(1) / t, d^2/du^2 log I_{e^u}(t) = phi''(u + log(t)/2).
    The two terms cancel in both tails: they tend to 4 as s -> -inf, where
    phi'' ~ -(2/3) e^{2s}, and to 1 as s -> inf, where phi'' ~ -e^{-s}/sqrt(pi).
    Against mpmath the relative error is 5e-11 on [-5.31, 5.31], 1e-8 at
    s = -8, 3e-5 at s = -12 and 5e-8 at s = 20.
    """
    r = np.exp(s)
    i1 = _SQRT_PI * specfun.erf(r)
    i = r * i1 + np.expm1(-r * r)
    slope = r * i1 / i
    return (r * i1 + 2.0 * r * r * np.exp(-r * r)) / i - slope * slope


def log_concavity_scan() -> ConcavityReport:
    """Verify strict concavity of log I_{e^u}(t) in u over the whole grid.

    The grid is 25 geometric t in [1e-2, 1e2] by 61 u in [-3, 3], where the
    derivative is log_overlap_curvature(u + log(t)/2), so s spans [-5.31, 5.31].
    The report's two checks decide it: the largest second derivative must
    stay below zero by at least 1e-12, and the product
    I_{e^beta}(1) I_{e^-beta}(1) must strictly decrease in beta >= 0.
    """
    t_vals = np.geomspace(1e-2, 1e2, 25)
    u_vals = np.linspace(-3.0, 3.0, 61)
    d2 = log_overlap_curvature(u_vals[None, :] + 0.5 * np.log(t_vals)[:, None])
    max_by_t = tuple(zip(t_vals.tolist(), d2.max(axis=1).tolist()))
    worst = float(d2.max())
    betas = np.linspace(0.0, 3.0, 31)
    prods = [
        interval_overlap(math.exp(b), 1.0) * interval_overlap(math.exp(-b), 1.0)
        for b in betas
    ]
    monotone = all(prods[i + 1] < prods[i] for i in range(len(prods) - 1))
    return ConcavityReport(
        max_second_difference=worst,
        min_second_difference=float(d2.min()),
        max_by_t=max_by_t,
        product_monotone=monotone,
        # the symmetrized field log(I_{e^u} I_{e^-u}) at t has second derivative
        # phi''(c + u) + phi''(c - u) with c = log(t)/2, even in u exactly
        symmetry_deviation=0.0,
        checks=(
            CheckReport.measure("max second difference (must be < 0)", worst, -1e-12),
            CheckReport.flag("product strictly decreasing in beta", monotone),
        ),
    )


@dataclass(frozen=True)
class PositivityReport:
    """Grid evaluation of the overlap-derivative helper functions."""

    r_grid_size: int
    r_min: float
    r_max: float
    k_min: float
    h_min: float
    h_at_zero: float
    max_derivative_rel_err: float
    checks: tuple[CheckReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def chain_terms(r, num=math):
    """(A, k, h) at r in the arithmetic of num: math for floats, or mpmath.

    With E = e^{-r^2}: A = int_0^r e^{-s^2} ds = (sqrt(pi)/2) erf(r),
    k = r A (2 r^2 - 1) + (1 - r^2)(1 - E) and h = (1 - E)(A + r E) - 2 r^2 A E,
    so that h(0) = 0 and h' = 2 E k.
    """
    e = num.exp(-r * r)
    a = num.sqrt(num.pi) / 2 * num.erf(r)
    k = r * a * (2 * r * r - 1) + (1 - r * r) * (1 - e)
    h = (1 - e) * (a + r * e) - 2 * r * r * a * e
    return a, k, h


def _derivative_rel_err(r: float) -> float:
    """Relative gap between a central difference of h and 2 E k at r.

    h' decays like e^{-r^2} while h itself tends to a constant, so the
    difference is formed in high-precision arithmetic; the working precision
    grows with r^2 to keep the cancellation harmless.
    """
    import mpmath

    dps = 40 + int(0.5 * r * r) + 10
    with mpmath.workdps(dps):
        rr = mpmath.mpf(r)
        step = mpmath.mpf(10) ** (-8)
        h_up = chain_terms(rr + step, mpmath)[2]
        h_down = chain_terms(rr - step, mpmath)[2]
        fd = (h_up - h_down) / (2 * step)
        exact = 2 * mpmath.exp(-rr * rr) * chain_terms(rr, mpmath)[1]
        return float(abs(fd - exact) / abs(exact))


def positivity_chain() -> PositivityReport:
    """Check k > 0, h > 0 on 200 points r in [0.05, 10], h(0) = 0, and h' = 2 E k.

    The report's four checks decide it, one per fact.  The derivative
    identity is verified by central finite differences at every tenth grid
    point (it is the most expensive check); relative agreement within 1e-6 is
    required everywhere it is evaluated.
    """
    grid = np.linspace(0.05, 10.0, 200)
    _, k_vals, h_vals = np.array([chain_terms(float(r)) for r in grid]).T
    deriv_err = 0.0
    for r in grid[::10]:
        deriv_err = max(deriv_err, _derivative_rel_err(float(r)))
    h_zero = chain_terms(0.0)[2]
    k_min, h_min, r_max = float(k_vals.min()), float(h_vals.min()), float(grid[-1])
    return PositivityReport(
        r_grid_size=int(grid.size),
        r_min=float(grid[0]),
        r_max=r_max,
        k_min=k_min,
        h_min=h_min,
        h_at_zero=h_zero,
        max_derivative_rel_err=deriv_err,
        checks=(
            CheckReport.flag(f"k > 0 on (0, {r_max:g}]", k_min > 0.0),
            CheckReport.flag(f"h > 0 on (0, {r_max:g}]", h_min > 0.0),
            CheckReport.flag("h(0) = 0", h_zero == 0.0),
            CheckReport.measure("h' vs 2 E k relative error", deriv_err, 1e-6),
        ),
    )


def reference_energy(q_strength: float, n: int, a: float, delta: float) -> float:
    """Deterministic mutual energy -(n^2 / a) * Q * Delta of a charged cell.

    Q is the quadratic source strength in the inverse-distance normalization;
    with an operator normalization lam the same energy uses Q = lam q^2/(4 pi).
    """
    q_strength = check_positive(q_strength, "q_strength")
    a = check_positive(a, "a")
    delta = check_positive(delta, "delta")
    check_count(n, "cell count n")
    return -(n * n / a) * q_strength * delta
