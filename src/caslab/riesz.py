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
SIAM Rev. 56 (2014) 385) vectorized in numpy over its nodes.
"""

from __future__ import annotations

# Module scope loads numpy alone, as `import caslab` does; the quadrature rule below is numpy.
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import specfun
from .errors import (
    ConvergenceError,
    ParameterError,
    QuadratureError,
    check_count,
    check_positive,
)

def _check_m(m: int) -> int:
    return check_count(m, "transverse dimension m")


def _check_s(m: int, s: float, what: str) -> float:
    """s as a float, once m is a count and s is finite with s > m/2."""
    _check_m(m)
    s = float(s)
    if not math.isfinite(s):
        raise ParameterError(f"{what}: s must be finite, got {s}")
    if not s > 0.5 * m:
        raise ConvergenceError(f"{what} diverges: need s > m/2, got s={s}, m={m}")
    return s


def _check_normal(value: float, what: str) -> float:
    """value if it is a normal float; ParameterError otherwise."""
    if not sys.float_info.min <= value < math.inf:
        raise ParameterError(f"{what} = {value!r} leaves the normal float range")
    return value


def reduction_constant(m: int, s: float) -> float:
    """C_{m,s} = (4 pi)^{-m/2} Gamma(s - m/2) / Gamma(s) for s > m/2, through
    math.lgamma where Gamma overflows (s past 171.6), there to about
    1e-16 lgamma(s) relative; ParameterError unless the result is a normal float."""
    s = _check_s(m, s, "reduction constant")
    try:
        value = (4.0 * math.pi) ** (-0.5 * m) * specfun.gamma(s - 0.5 * m) / specfun.gamma(s)
    except OverflowError:
        value = math.exp(math.lgamma(s - m / 2) - math.lgamma(s) - m / 2 * math.log(4 * math.pi))
    return _check_normal(value, f"reduction constant at m={m}, s={s}")


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
    return _check_normal(value, f"sphere area at m={m}")


@dataclass(frozen=True)
class MollifierSpec:
    """Width of the Gaussian smearing profile (unit mass, so its Fourier
    image is 1 at 0) for mollified restriction integrals."""

    eps: float

    def __post_init__(self):
        check_positive(self.eps, "mollifier width")


# The double-exponential rule: x = exp((pi/2) sinh t) maps the trapezoid rule
# in t onto (0, inf).  It runs on the h/2 = 1/64 grid of [-6.5, 6.5], whose
# even nodes form the h = 1/32 rule of 417 nodes it is checked against.
_DE_T = np.arange(-416, 417) / 64.0
_DE_Y = np.exp(0.5 * math.pi * np.sinh(_DE_T))
_DE_C = (0.5 * math.pi / 64.0) * np.cosh(_DE_T)  # (h/2) d(log y)/dt


def _de_nodes(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and h/2 weights of the rule on [a, inf) or on a finite [a, b].

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

    f takes the node array x and returns one value per node.  It runs with
    numpy overflow, invalid and divide-by-zero raising, so an integrand that
    meets x = e^{+-522} at the ends of the window is written in log form.

    The value is the h/2 rule.  QuadratureError is raised when it is not
    finite, or when its gap to the h rule or a term on the rim of the window
    exceeds max(epsabs, 10 epsrel |value|), or when that bound is 0: a value
    of 0 with epsabs = 0 certifies nothing, since every term underflowed.
    """
    x, w = _de_nodes(a, b)

    def parts():
        terms = np.asarray(f(x), dtype=float) * w
        yield terms.sum(), 2.0 * terms[::2].sum(), np.abs(terms[[0, -1]]).max()

    return _checked_sum(parts(), a, b, epsabs, epsrel)


def _checked_sum(parts, a: float, b: float, epsabs: float, epsrel: float) -> float:
    """Sum the h/2 rule from blocks of its weighted terms and decide it.

    parts yields, per block, the sum of its terms, its share of the h rule
    and its largest term on the rim of the window; it is drawn under the
    raising errstate of quad_checked, whose verdict this is.
    """
    value = coarse = rim = 0.0
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for fine_sum, coarse_sum, rim_term in parts:
                value += float(fine_sum)
                coarse += float(coarse_sum)
                rim = max(rim, float(rim_term))
    except (FloatingPointError, OverflowError) as exc:
        raise QuadratureError(f"integrand on [{a}, {b}] left float range: {exc}") from exc
    gap = abs(value - coarse)
    wanted = max(epsabs, 10.0 * epsrel * abs(value))
    if not (math.isfinite(value) and 0.0 < wanted and gap <= wanted and rim <= wanted):
        raise QuadratureError(
            f"quadrature on [{a}, {b}] gave {value:.6g} with h/2 gap {gap:.3e}"
            f" and rim term {rim:.3e}, wanted both within {wanted:.3e}"
        )
    return value


def _check_domain(m: int, s: float, lam: float, what: str) -> tuple[float, float]:
    """(s, lam) as floats, once s passes _check_s and lam is finite and > 0."""
    return _check_s(m, s, what), check_positive(lam, "lam")


def _radial_integral(m: int, s: float, lam: float, damp_eps: float = 0.0) -> float:
    """integral_0^inf q^{m-1} e^{-(damp_eps q)^2} (lam+q^2)^{-s} dq, in log form.

    The factor exponentiated below peaks near lam^{(m-1)/2-s}.  Past e^+-665
    it would under- or overflow although the value fits, so it is then
    divided by e^shift, shift the integer nearest its log, and the value is
    multiplied back in two halves that stay in range.
    """
    root_lam = math.sqrt(lam)
    shift = float(round((0.5 * (m - 1) - s) * math.log(lam)))
    shift = shift if abs(shift) > 665.0 else 0.0

    def f(u: np.ndarray) -> np.ndarray:
        q = root_lam * u  # nodes on the integrand's own scale, for every lam
        log_q = np.log(q)
        log_f = (m - 1) * log_q - s * np.logaddexp(math.log(lam), 2.0 * log_q) - shift
        if damp_eps:
            # past damp_eps q = 40 the damping e^{-1600} is 0 in float64
            log_f -= np.square(np.minimum(damp_eps * q, 40.0))
        return root_lam * np.exp(log_f)

    half = math.exp(0.5 * shift)
    return quad_checked(f, 0.0, math.inf, epsabs=0.0) * half * half


def _radial_route(m: int, s: float, lam: float, damp_eps: float, what: str) -> float:
    """sphere_area(m) / (2 pi)^m times _radial_integral; ParameterError
    unless the product is a normal float."""
    where = f"{what} at m={m}, s={s}, lam={lam!r}"
    try:
        value = sphere_area(m) / (2.0 * math.pi) ** m * _radial_integral(m, s, lam, damp_eps)
    except OverflowError:
        raise ParameterError(f"{where} leaves the float range") from None
    return _check_normal(value, where)


def momentum_integral(m: int, s: float, lam: float) -> float:
    """integral d^m q / (2 pi)^m  (lam + |q|^2)^{-s} by radial quadrature.

    Measured against reduction_constant(m, s) * lam^{m/2 - s} for the (m, s)
    pairs of the reduce command at 2,000 log-spaced lam: within 4.1e-14
    relative on [1e-100, 1e100], and within 9e-14 out to 1e-123 and 1e123.
    ParameterError unless the result is a normal float.
    """
    s, lam = _check_domain(m, s, lam, "momentum integral")
    return _radial_route(m, s, lam, 0.0, "momentum integral")


def schwinger_integral(m: int, s: float, lam: float) -> float:
    """Proper-time form (4 pi)^{-m/2} Gamma(s)^{-1} int_0^inf t^{s-1-m/2} e^{-t lam} dt.

    The double-exponential rule takes the endpoint power t^a, a = s-1-m/2,
    without a weight function down to about a = -0.95; closer to the
    integrable limit a = -1 its rim guard raises QuadratureError, and
    ParameterError where Gamma(s) overflows (s past 171.6) or the result is
    not a normal float.
    """
    s, lam = _check_domain(m, s, lam, "schwinger integral")
    a = s - 1.0 - 0.5 * m

    def f(u: np.ndarray) -> np.ndarray:
        # t = u / lam puts the nodes on the integrand's own scale
        return np.exp(a * (np.log(u) - math.log(lam)) - u) / lam

    where = f"schwinger integral at m={m}, s={s}, lam={lam!r}"
    try:
        pref = (4.0 * math.pi) ** (-0.5 * m) / specfun.gamma(s)
    except OverflowError:
        raise ParameterError(f"{where}: Gamma(s) leaves the float range") from None
    return _check_normal(pref * quad_checked(f, 0.0, math.inf, epsabs=0.0), where)


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

    Performs one elimination sweep per entry of orders, each sweep assuming the
    current leading error scales like eps**order.  Repeating the same order
    (the default) is deliberate: it also cancels a leading term of the form
    eps^2 * log(eps) exactly on a geometric width sequence, which plain
    polynomial extrapolation does not.
    """
    if len(eps) != len(values) or len(eps) < 2:
        raise ParameterError("need matching eps/value sequences of length >= 2")
    if len(orders) > len(eps) - 1:
        raise ParameterError("too many elimination sweeps for the data")
    e = [float(x) for x in eps]
    v = [float(x) for x in values]
    if any(e[i + 1] >= e[i] for i in range(len(e) - 1)):
        raise ParameterError("eps must be strictly decreasing")
    for p in orders:
        nxt = []
        for i in range(len(v) - 1):
            r = e[i + 1] / e[i]
            w = r ** (-p)
            nxt.append((w * v[i + 1] - v[i]) / (w - 1.0))
        v = nxt
        e = e[1:]
        if len(v) == 1:
            break
    return v[0]


# Rows of the nested rule summed at once: an even count keeps the h rule's
# nodes, the even ones of the h/2 grid, at even rows of every block.
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
    The product of the stage constants is 1/(32 pi^2); the nested value is
    checked against (product)/lam to relative 1e-7 before returning.

    The nested value is the product of the double-exponential rule with
    itself, reduced _CHAIN_ROWS rows of p nodes at a time (tracemalloc peak
    1.7 MiB against 16 MiB for the whole 833 x 833 grid) and decided as
    quad_checked decides.  Only numpy's summation order differs from the
    whole-grid sum: within 4 ulp of it over lam in [1e-12, 1e12].
    """
    lam = check_positive(lam, "lam")
    c1 = reduction_constant(1, 3.0)
    c3 = reduction_constant(3, 2.5)
    expect = c1 * c3 / lam
    x, w = _de_nodes(0.0, math.inf)

    def parts():
        for i in range(0, x.size, _CHAIN_ROWS):
            rows = slice(i, i + _CHAIN_ROWS)
            terms = _chain_kernel(lam, x[rows, None], x) * w[rows, None] * w
            rim = np.abs(terms[:, [0, -1]]).max()
            if i == 0:
                rim = max(rim, np.abs(terms[0]).max())
            if i + _CHAIN_ROWS >= x.size:
                rim = max(rim, np.abs(terms[-1]).max())
            yield terms.sum(), 4.0 * terms[::2, ::2].sum(), rim

    nested = _checked_sum(parts(), 0.0, math.inf, 1e-11 * expect, 1e-10)
    nested /= 2.0 * math.pi**3
    if not abs(nested - expect) <= 1e-7 * expect:
        raise ConvergenceError(
            f"combined reduction mismatch: nested={nested!r}, stagewise={expect!r}"
        )
    return c1, c3, nested
