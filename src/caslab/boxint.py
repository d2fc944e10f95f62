"""Flat inverse-distance energies of rectangular unit cells.

Delta(alpha) is the double integral of 1/|x - y| over the unit-volume cell
[0, alpha] x [0, 1/alpha] x [0, 1], evaluated three independent ways: a
one-dimensional proper-time integral of interval overlap factors, a face rule
that does the radial direction exactly and sums the directions by graded
Gauss-Legendre panels over the three far faces the rays leave through, and a
Monte Carlo pair average.  The pair average takes the singular part
e^{-c r^2}/r of 1/r, c = 40 / min(L)^2, at its exact mean, an elementary
closed form that shares nothing with the t-integral, and samples only the
bounded rest; control variates e^{-c r^2} for five c, and r^2, whose exact
means share interval_overlap with the t-integral, follow that rest.  At the
cube the two together cut the variance of 1/r about 7e4-fold, the controls
alone 14- to 31-fold and the exact singular part alone 3.4-fold.  The module
also runs the log-concavity and positivity checks behind the monotonicity
argument: the concavity scan samples the closed form of the second derivative
of log I_{e^u}(t) in u over a grid, and the positivity chain evaluates its
helper functions on an r grid.
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
    check_normal,
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
# c of the pair controls e^{-c r^2}, each 4 times the last: _inverse_distances squares twice
_CONTROL_RATES = (1.0, 4.0, 16.0, 64.0, 256.0)
# c min(L)^2 of the singular part e^{-c r^2} / r that the pair Monte Carlo takes
# at its exact mean; the octant formula for that mean drops a part below e^-40
_SINGULAR_RATE = 40.0


def interval_overlap(L: float, t: float) -> float:
    """I_L(t) = int_0^L int_0^L exp(-t (x-y)^2) dx dy.

    Closed antiderivative: L sqrt(pi/t) erf(L sqrt(t)) + expm1(-t L^2)/t.
    The reduction is certified against direct 2D quadrature in the test
    suite; expm1 keeps the t -> 0 limit (I -> L^2) fully accurate.
    ParameterError unless the value is a normal float.
    """
    L = check_positive(L, "interval length L")
    t = check_positive(t, "interval_overlap t")
    r = L * math.sqrt(t)
    value = L * math.sqrt(math.pi / t) * math.erf(r) + math.expm1(-r * r) / t
    return check_normal(value, f"interval overlap at L={L!r}, t={t!r}")


class DeltaMethod(str, enum.Enum):
    T_INTEGRAL = "t_integral"
    QUADRATURE_3D = "quadrature_3d"
    MONTE_CARLO = "monte_carlo"


def cell_overlap_energy(lengths: tuple[float, float, float]) -> float:
    """pi^{-1/2} int_0^inf t^{-1/2} prod_i I_{L_i}(t) dt for a general box.

    One double-exponential rule over the half-line (riesz.quad_checked): its
    nodes crowd toward t = 0, where the integrand goes like t^{-1/2}, and
    spread double exponentially toward the t^{-2} tail, so neither needs a
    split or an analytic tail.  The rule stops at h = 1/16, 209 nodes, for
    alpha in [0.4, 2.5] of the cell (alpha, 1/alpha, 1), the cube among
    them, and at h = 1/32, 417 nodes, out to 0.05 and 20.  I_L is
    interval_overlap's closed form over the node array, with specfun.erf over
    the nodes.  ParameterError unless the value is a normal float.
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

    value = quad_checked(f, 0.0, math.inf, epsabs=1e-13, epsrel=1e-12) / _SQRT_PI
    return check_normal(value, f"cell overlap energy of {ls}")


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
    lengths: np.ndarray, means: np.ndarray, rng: np.random.Generator, rows: int
) -> np.ndarray:
    """1/r, with its singular part at its exact mean, and six controls for
    rows independent uniform point pairs in the box, r = |x - y|, as a
    (7, rows) array.

    Row 0 holds (1 - e^{-c r^2}) / r + m_c, with c = 40 / min(L)^2 and m_c =
    E e^{-c r^2} / r = means[0]: its mean is that of 1/r, and its sampled
    part lies in (0, 0.64 sqrt(c)] and is smooth at r = 0, so the rare near
    pairs that make the variance of 1/r heavy-tailed enter only through m_c.
    Rows 1-5 hold e^{-c r^2} for c = 1, 4, 16, 64, 256 and row 6 holds
    (r / max(L))^2, each less its exact mean from means (_control_means), so
    every control has mean 0; row 6 is scaled by the box so that its
    co-moments stay finite however long a side is.  One np.exp per pair:
    e^{-4c r^2} is (e^{-c r^2})^2 squared.  Along each axis |x_i - y_i| has the triangular
    density 2(L - d)/L^2, which L(1 - sqrt(U)) samples exactly from one
    uniform U in [0, 1); since sqrt(U) <= 1 - 2^-53, every distance is at
    least 2^-53 L_i > 0.  The uniforms are drawn as a (3, rows) array, so each
    axis is one contiguous row that is scaled by its own length.
    """
    shortest, longest = lengths.min(), lengths.max()
    d = rng.random((3, rows))
    np.sqrt(d, out=d)
    np.subtract(1.0, d, out=d)
    d *= lengths[:, None]
    d *= d
    out = np.empty((7, rows))
    r2 = out[6]
    np.add(d[0], d[1], out=r2)
    r2 += d[2]
    np.sqrt(r2, out=d[0])
    with np.errstate(over="ignore"):  # c r^2 = inf past long sides: expm1 gives -1
        np.multiply(r2, -_SINGULAR_RATE / (shortest * shortest), out=out[0])
    np.expm1(out[0], out=out[0])
    out[0] /= d[0]
    np.subtract(means[0], out[0], out=out[0])
    np.negative(r2, out=out[1])
    np.exp(out[1], out=out[1])
    for k in range(2, 6):
        np.multiply(out[k - 1], out[k - 1], out=out[k])
        out[k] *= out[k]
    r2 *= 1.0 / (longest * longest)
    out[1:] -= means[1:, None]
    return out


def _singular_mean(lengths: tuple[float, float, float]) -> float:
    """m_c = E e^{-c r^2} / r over the box, c = 40 / min(L)^2, in closed form.

    The difference of two uniform points has density prod_i (L_i - |x_i|) /
    L_i^2, and over the positive octant, where the polynomial is integrated
    in place of the box, the integrals of x^k e^{-c r^2} / r are elementary:
    with s = c^{-1/2} = min(L) / sqrt(40), u_i = s / L_i and V = L_1 L_2 L_3,
    m_c = (2 pi s^2 / V) [1 - (sqrt(pi) / 4) sum_i u_i
    + (2 / (3 pi)) sum_{i<j} u_i u_j - (3 / (16 sqrt(pi))) u_1 u_2 u_3].
    Every u_i is at most 40^{-1/2}, so the bracket lies in [0.8, 1] and
    nothing overflows.  The octant outside the box holds r > min(L), where
    e^{-c r^2} < e^{-40}; it adds less than 5e-17 of m_c (bounded in the test
    suite).  This route shares nothing with interval_overlap or
    cell_overlap_energy.  ParameterError unless m_c and c are normal floats.
    """
    what = f"singular part mean for sides {lengths}"
    s = min(lengths) / math.sqrt(_SINGULAR_RATE)
    check_normal(s * s, what)  # 1/c, so that c is a normal float too
    u = [s / L for L in lengths]
    bracket = (
        1.0
        - _SQRT_PI / 4.0 * math.fsum(u)
        + 2.0 / (3.0 * math.pi) * (u[0] * u[1] + u[1] * u[2] + u[2] * u[0])
        - 3.0 / (16.0 * _SQRT_PI) * (u[0] * u[1] * u[2])
    )
    return check_normal(2.0 * math.pi * s * s / math.prod(lengths) * bracket, what)


def _control_means(lengths: tuple[float, float, float]) -> np.ndarray:
    """Exact means over the box of what _inverse_distances does not sample:
    means[0] is added to row 0, means[1:] are subtracted from the controls.

    means[0] = m_c, the singular part's mean (_singular_mean), shares nothing
    with the t-integral route.  means[1:6]: E e^{-c r^2} = prod_i I_{L_i}(c) /
    L_i^2, with I interval_overlap's closed form: this part shares the
    t-integral's integrand at five t, while criterion 9 compares the Monte
    Carlo with the cube's closed form.  means[6]: E (r / max(L))^2 =
    sum_i (L_i / max(L))^2 / 6, between 1/6 and 1/2.  ParameterError unless
    every mean is a normal float.
    """
    what = f"pair control mean for sides {lengths}"
    gauss = [
        check_normal(math.prod(interval_overlap(L, c) / (L * L) for L in lengths), what)
        for c in _CONTROL_RATES
    ]
    longest = max(lengths)
    spread = sum((L / longest) ** 2 for L in lengths) / 6.0
    return np.array([_singular_mean(lengths), *gauss, spread])


def _delta_monte_carlo(alpha: float, budget: int, seed: int) -> MCEstimate:
    lengths = aspect_sides(1.0, alpha)
    sample = functools.partial(
        _inverse_distances, np.array(lengths), _control_means(lengths)
    )
    return monte_carlo(sample, budget, seed, draws_per_row=7)


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
    In chain_terms' h, phi'' = -2 r h(r) / I^2: phi'' < 0 on the reals exactly
    when h > 0 on (0, inf), the positivity chain's claim.
    The two terms cancel in both tails: they tend to 4 as s -> -inf, where
    phi'' ~ -(2/3) e^{2s}, and to 1 as s -> inf, where phi'' ~ -e^{-s}/sqrt(pi).
    Against mpmath the relative error is below 5.4e-11 on [-5.31, 5.31], 1e-8
    at s = -8, 3e-5 at s = -12, 1.5e-12 at s = 12 and 5.2e-8 at s = 20.
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

    The report's four checks decide it, one per fact.  k > 0 certifies both
    scans: with h(0) = 0 it gives h > 0 on (0, inf), and log_overlap_curvature
    is -2 r h / I^2.  The derivative identity is verified by central finite
    differences at every tenth grid point (it is the most expensive check);
    relative agreement within 1e-6 is required everywhere it is evaluated.
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
    ParameterError unless the energy is a normal float."""
    q_strength = check_positive(q_strength, "q_strength")
    a = check_positive(a, "a")
    delta = check_positive(delta, "delta")
    check_count(n, "cell count n")
    return check_normal(
        lambda: -(n * n / a) * q_strength * delta,
        f"reference energy at Q={q_strength!r}, a={a!r}, delta={delta!r}",
    )
