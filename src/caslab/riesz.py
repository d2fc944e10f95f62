"""Codimension-m reduction constants and their quadrature cross-checks.

A product operator with an m-dimensional translation-invariant factor reduces,
on the diagonal, to multiples of lambda^{m/2-s} with constant

    C_{m,s} = (4 pi)^{-m/2} Gamma(s - m/2) / Gamma(s),    s > m/2.

This module evaluates the defining momentum integral three independent ways
(radial quadrature, Schwinger proper-time form, mollified smearing with an
explicit width) and exposes the two-stage chain whose combined constant is
1/(32 pi^2).

Every quadrature of the package runs on quad_checked, the double-exponential
rule (Takahasi and Mori, Publ. RIMS 9 (1974) 721; Trefethen and Weideman,
SIAM Rev. 56 (2014) 385) vectorized in numpy over its nodes and refined by
halving its step until two successive levels agree (Bailey, Jeyabalan and
Li, Experimental Math. 14 (2005) 317).
"""

from __future__ import annotations

# Module scope loads numpy alone, as `import caslab` does; the quadrature rule below is numpy.
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import specfun
from .errors import (
    ConvergenceError,
    ParameterError,
    QuadratureError,
    check_float_count,
    check_normal,
    check_positive,
)
from .heattrace import fit_columns


def _check_m(m: int) -> int:
    return check_float_count(m, "transverse dimension m")


def _check_s(m: int, s: float, what: str) -> float:
    """s as a float, once m is a count and s is finite with s > m/2."""
    _check_m(m)
    s = float(s)
    if not math.isfinite(s):
        raise ParameterError(f"{what}: s must be finite, got {s}")
    if not s > 0.5 * m:
        raise ConvergenceError(f"{what} diverges: need s > m/2, got s={s}, m={m}")
    return s


def reduction_constant(m: int, s: float) -> float:
    """C_{m,s} = (4 pi)^{-m/2} Gamma(s - m/2) / Gamma(s) for s > m/2, through
    math.lgamma where Gamma overflows (s past 171.6), there to about
    1e-16 lgamma(s) relative; ParameterError unless the result is a normal float."""
    s = _check_s(m, s, "reduction constant")
    try:
        value = (4.0 * math.pi) ** (-0.5 * m) * specfun.gamma(s - 0.5 * m) / specfun.gamma(s)
    except OverflowError:
        value = math.exp(math.lgamma(s - m / 2) - math.lgamma(s) - m / 2 * math.log(4 * math.pi))
    return check_normal(value, f"reduction constant at m={m}, s={s}")


def critical_exponent(m: int) -> float:
    """Smallest exponent with a pure 1/lambda reduction: s*(m) = 1 + m/2."""
    _check_m(m)
    return 1.0 + 0.5 * m


def sphere_area(m: int) -> float:
    """Surface area of the unit (m-1)-sphere, 2 pi^{m/2} / Gamma(m/2), through
    math.lgamma from m = 344 on, as in reduction_constant."""
    _check_m(m)
    try:
        value = 2.0 * math.pi ** (0.5 * m) / specfun.gamma(0.5 * m)
    except OverflowError:
        value = 2.0 * math.exp(0.5 * m * math.log(math.pi) - math.lgamma(0.5 * m))
    return check_normal(value, f"sphere area at m={m}")


@dataclass(frozen=True)
class MollifierSpec:
    """Width of the Gaussian smearing profile (unit mass, so its Fourier
    image is 1 at 0) for mollified restriction integrals."""

    eps: float

    def __post_init__(self):
        check_positive(self.eps, "mollifier width")


# The double-exponential rule: x = exp((pi/2) sinh t) maps the trapezoid rule
# in t onto (0, inf).  The table is the h = 1/64 grid of [-6.5, 6.5]; every
# 2nd, 4th and 8th node, each weight times that stride, is the rule of step
# 1/32, 1/16 and 1/8 on the same window, so each level holds the one before.
_DE_T = np.arange(-416, 417) / 64.0
_DE_Y = np.exp(0.5 * math.pi * np.sinh(_DE_T))
_DE_C = (0.5 * math.pi / 64.0) * np.cosh(_DE_T)  # (1/64) d(log y)/dt
# Table strides of the levels quad_checked may accept: h = 1/16, 1/32, 1/64.
_DE_STRIDES = (4, 2, 1)


def _de_nodes(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and h = 1/64 weights of the rule on [a, inf) or on a finite [a, b].

    A finite interval takes the tanh-sinh form x = a + (b-a) y/(1+y), that is
    (a+b)/2 + (b-a)/2 tanh((pi/4) sinh t), with each point placed from its
    nearer end and weight (b-a) y'/(1+y)^2 written so that no node overflows.
    """
    if not (math.isfinite(a) and b > a):
        raise ParameterError(f"need finite a < b, b possibly inf; got [{a}, {b}]")
    y, c = _DE_Y, _DE_C
    if b == math.inf:
        return a + y, c * y
    width = b - a
    x = np.where(y < 1.0, a + width * y / (1.0 + y), b - width / (1.0 + y))
    return x, width * c / (y + 2.0 + 1.0 / y)


def quad_checked(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    epsabs: float,
    epsrel: float = 1e-11,
) -> float:
    """int_a^b f by the double-exponential rule, b finite or inf.

    f takes a node array x and returns one value per node.  It runs with
    numpy overflow, invalid and divide-by-zero raising, so an integrand that
    meets x = e^{+-522} at the ends of the window is written in log form.

    The rule is refined level by level on one table: the first call of f
    takes the 209 nodes of h = 1/16, which also give the h = 1/8 sum, and
    each later call only the 208, then 416, nodes that halve the step, so f
    sees at most 833 nodes in 3 calls.  The value is the first level whose
    gap to the level of twice its step and whose terms on the rim of the
    window (t = +-6.5, in every level) are within max(epsabs, 10 epsrel
    |value|).  QuadratureError is raised when no level up to h = 1/64
    passes, when a value is not finite, or when that bound is 0: a value of
    0 with epsabs = 0 certifies nothing, since every term underflowed.

    Contract: f must be resolved by the h = 1/16 grid of t on its own scale,
    as every caller arranges by putting its nodes on that scale; a feature
    narrower than that grid, which two coarse levels both miss alike, is
    not seen.
    """
    x, w = _de_nodes(a, b)

    def levels():
        first = _DE_STRIDES[0]
        terms = np.asarray(f(x[::first]), dtype=float) * w[::first]
        total, rim = terms.sum(), np.abs(terms[[0, -1]]).max()
        yield first * total, 2.0 * first * terms[::2].sum(), first * rim, terms.size
        for stride in _DE_STRIDES[1:]:
            new = slice(stride, None, 2 * stride)  # the nodes halfway between the last level's
            fresh = np.asarray(f(x[new]), dtype=float) * w[new]
            coarse, total = 2.0 * stride * total, total + fresh.sum()
            yield stride * total, coarse, stride * rim, fresh.size

    return _checked_sum(levels(), a, b, epsabs, epsrel)


def _checked_sum(levels, a: float, b: float, epsabs: float, epsrel: float) -> float:
    """Decide the rule level by level and return the first accepted value.

    levels yields, for the strides of _DE_STRIDES in turn, the level's value,
    the value of the level of twice its step, its largest term on the rim of
    the window and the count of nodes it evaluated.  It is drawn under
    the raising errstate of quad_checked, whose verdict this is, and only as
    far as no level passes; a value that is not finite stays so at every
    finer level, whose nodes include it, so it ends the refinement.
    """
    nodes = 0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for stride, (value, coarse, rim, count) in zip(_DE_STRIDES, levels):
                value, rim, nodes = float(value), float(rim), nodes + count
                gap = abs(value - float(coarse))
                wanted = max(epsabs, 10.0 * epsrel * abs(value))
                if not math.isfinite(value):
                    break
                if 0.0 < wanted and gap <= wanted and rim <= wanted:
                    return value
    except (FloatingPointError, OverflowError) as exc:
        raise QuadratureError(f"integrand on [{a}, {b}] left float range: {exc}") from exc
    raise QuadratureError(
        f"quadrature on [{a}, {b}] gave {value:.6g} at h = 1/{64 // stride} from {nodes}"
        f" nodes, with h/2 gap {gap:.3e} and rim term {rim:.3e}, wanted both within {wanted:.3e}"
    )


def _check_domain(m: int, s: float, lam: float, what: str) -> tuple[float, float]:
    """(s, lam) as floats, once s passes _check_s and lam is finite and > 0."""
    return _check_s(m, s, what), check_positive(lam, "lam")


def _radial_integral(m: int, s: float, lam: float, damp_eps: float = 0.0) -> float:
    """integral_0^inf q^{m-1} e^{-(damp_eps q)^2} (lam+q^2)^{-s} dq, in log form.

    q = sqrt(lam) u takes lam out of the integrand but for the damping:
    the value is lam^{m/2-s} times the integral of u^{m-1} (1+u^2)^{-s}
    e^{-(damp_eps sqrt(lam) u)^2}, whose exponent stays of the size of
    log u on every node.  The power is one factor, or past e^+-700 two
    equal ones, so that it leaves the float range only with the value.
    """
    root_lam = math.sqrt(lam)

    def f(u: np.ndarray) -> np.ndarray:
        log_u = np.log(u)
        log_f = (m - 1) * log_u - s * np.logaddexp(0.0, 2.0 * log_u)
        if damp_eps:
            # past damp_eps q = 40 the damping e^{-1600} is 0 in float64
            log_f -= np.square(np.minimum(damp_eps * (root_lam * u), 40.0))
        return np.exp(log_f)

    integral, power = quad_checked(f, 0.0, math.inf, epsabs=0.0), 0.5 * m - s
    if abs(power * math.log(lam)) < 700.0:
        return integral * lam**power
    half = lam ** (0.5 * power)
    return integral * half * half


def _radial_route(m: int, s: float, lam: float, damp_eps: float, what: str) -> float:
    """sphere_area(m) / (2 pi)^m times _radial_integral; ParameterError
    unless the product is a normal float."""
    return check_normal(
        lambda: sphere_area(m) / (2.0 * math.pi) ** m * _radial_integral(m, s, lam, damp_eps),
        f"{what} at m={m}, s={s}, lam={lam!r}",
    )


def momentum_integral(m: int, s: float, lam: float) -> float:
    """integral d^m q / (2 pi)^m  (lam + |q|^2)^{-s} by radial quadrature.

    Measured against reduction_constant(m, s) * lam^{m/2 - s} for the (m, s)
    pairs of the reduce command at 2,000 log-spaced lam: within 5.5e-16
    relative on [1e-12, 1e12], on [1e-100, 1e100] and out to 1e-123 and
    1e123 wherever the value is a normal float, since lam enters only as
    that power, outside the integrand.
    ParameterError unless the result is a normal float.
    """
    s, lam = _check_domain(m, s, lam, "momentum integral")
    return _radial_route(m, s, lam, 0.0, "momentum integral")


def schwinger_integral(m: int, s: float, lam: float) -> float:
    """Proper-time form (4 pi)^{-m/2} Gamma(s)^{-1} int_0^inf t^{s-1-m/2} e^{-t lam} dt.

    The double-exponential rule takes the endpoint power t^a, a = s-1-m/2,
    without a weight function down to a = -0.9579, 2.4e-10 relative to
    Gamma(a + 1) there; it stops at h = 1/16 down to a = -0.955 and takes all
    833 nodes below a = -0.9567.  Closer to the integrable limit a = -1 its
    rim guard raises QuadratureError, and ParameterError where Gamma(s) overflows (s past 171.6) or the result is
    not a normal float.
    """
    s, lam = _check_domain(m, s, lam, "schwinger integral")
    a = s - 1.0 - 0.5 * m

    def f(u: np.ndarray) -> np.ndarray:
        # t = u / lam puts the nodes on the integrand's own scale
        return np.exp(a * (np.log(u) - math.log(lam)) - u) / lam

    return check_normal(
        lambda: (4.0 * math.pi) ** (-0.5 * m) / specfun.gamma(s)
        * quad_checked(f, 0.0, math.inf, epsabs=0.0),
        f"schwinger integral at m={m}, s={s}, lam={lam!r}",
    )


def mollified_reduction(
    m: int, s: float, lam: float, mollifier: MollifierSpec
) -> float:
    """Momentum integral smeared by |eta_hat(eps q)|^2.

    Monotone nonincreasing in the width and converges to momentum_integral as
    the width shrinks.  ParameterError unless the result is a normal float.
    """
    if not isinstance(mollifier, MollifierSpec):
        raise ParameterError("mollifier must be a MollifierSpec")
    s, lam = _check_domain(m, s, lam, "mollified integral")
    return _radial_route(m, s, lam, mollifier.eps, "mollified integral")


def richardson_limit(
    eps: Sequence[float], values: Sequence[float], orders: Sequence[float] = (2.0, 2.0)
) -> float:
    """Extrapolate width-dependent values to width 0.

    The constant of heattrace.fit_columns, unweighted, with one column per
    order: the j-th order p is eps^p log(eps)^k, k the number of earlier
    entries equal to p, so (2, 2) models eps^2 and eps^2 log eps, and (2, 4)
    eps^2 and eps^4.  With one sample per coefficient it is the exact solve.
    """
    if len(eps) != len(values) or len(eps) < 2:
        raise ParameterError("need matching eps/value sequences of length >= 2")
    e = np.array(eps, dtype=float)
    if np.any(e[1:] >= e[:-1]):
        raise ParameterError("eps must be strictly decreasing")
    columns = [(p, orders[:j].count(p)) for j, p in enumerate(orders)]
    coef, _, _ = fit_columns(e, np.array(values, dtype=float), columns)
    return float(coef[-1])


# Rows of the nested rule summed at once: an even count keeps the nodes of
# the level of twice the step, the even ones of each level, at even rows of
# every block.
_CHAIN_ROWS = 64


def _chain_kernel(lam: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """lam q^2 (mu + p^2)^{-3}, mu = lam + q^2, at p = sqrt(lam) u, q = sqrt(lam) v.

    The 1D factor's p against the 3D radius q, on the kernel's own scale.
    mu / (mu + p^2) = (1 - tanh(log(p / sqrt(mu)))) / 2 cannot overflow.
    """
    log_q = np.log(math.sqrt(lam) * v)
    log_mu = np.logaddexp(math.log(lam), 2.0 * log_q)
    ratio = 0.5 - 0.5 * np.tanh(np.log(math.sqrt(lam) * u) - 0.5 * log_mu)
    return lam * np.exp(2.0 * log_q - 3.0 * log_mu) * (ratio * ratio * ratio)


def two_step_chain(lam: float) -> tuple[float, float, float]:
    """Stagewise and combined reduction across one 1D and one 3D factor.

    Returns (C_{1,3}, C_{3,5/2}, nested quadrature of the combined kernel).
    The product of the stage constants is 1/(32 pi^2); acceptance.chain_checks
    judges the nested value against (product)/lam.

    The nested value is the product of the double-exponential rule with
    itself, refined through the levels of quad_checked and decided as it
    decides.  Each level's whole product grid is summed _CHAIN_ROWS rows of
    p nodes at a time, its even rows and columns giving the level of twice
    the step, so the 209 x 209 grid of h = 1/16 also gives h = 1/8.  Over
    lam in [1e-12, 1e12] the rule stops at h = 1/32: 209^2 + 417^2 kernel
    values instead of 833^2, a tracemalloc peak of 0.9 MiB against 16 MiB
    for the whole 833 x 833 grid, and a value within 4 ulp of the 417 x 417
    grid summed whole.
    """
    lam = check_positive(lam, "lam")
    x, w = _de_nodes(0.0, math.inf)

    def level(stride: int):
        u, c = x[::stride], w[::stride]
        value = coarse = rim = 0.0
        for i in range(0, u.size, _CHAIN_ROWS):
            rows = slice(i, i + _CHAIN_ROWS)
            terms = _chain_kernel(lam, u[rows, None], u) * c[rows, None] * c
            value += terms.sum()
            coarse += terms[::2, ::2].sum()
            rim = max(rim, np.abs(terms[:, [0, -1]]).max())
            if i == 0:
                rim = max(rim, np.abs(terms[0]).max())
            if i + _CHAIN_ROWS >= u.size:
                rim = max(rim, np.abs(terms[-1]).max())
        scale = stride * stride
        return scale * value, 4.0 * scale * coarse, scale * rim, u.size * u.size

    levels = (level(stride) for stride in _DE_STRIDES)
    nested = _checked_sum(levels, 0.0, math.inf, 0.0, 1e-10) / (2.0 * math.pi**3)
    return reduction_constant(1, 3.0), reduction_constant(3, 2.5), nested
