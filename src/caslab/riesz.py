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


def reduction_constant(m: int, s: float) -> float:
    """C_{m,s} = (4 pi)^{-m/2} Gamma(s - m/2) / Gamma(s) for s > m/2."""
    s = _check_s(m, s, "reduction constant")
    return (
        (4.0 * math.pi) ** (-0.5 * m)
        * specfun.gamma(s - 0.5 * m)
        / specfun.gamma(s)
    )


def critical_exponent(m: int) -> float:
    """Smallest exponent with a pure 1/lambda reduction: s*(m) = 1 + m/2."""
    _check_m(m)
    return 1.0 + 0.5 * m


def sphere_area(m: int) -> float:
    """Surface area of the unit (m-1)-sphere, 2 pi^{m/2} / Gamma(m/2)."""
    _check_m(m)
    return 2.0 * math.pi ** (0.5 * m) / specfun.gamma(0.5 * m)


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
    """int over [a, b]^d of f by the double-exponential rule, b finite or inf.

    f takes the node array x and returns the integrand there: one value per
    node for d = 1, or its values on the product grid, one axis per variable,
    for d > 1 (g(x[:, None], x[None, :]) for a g of two).  f runs with numpy
    overflow, invalid and divide-by-zero raising, so an integrand that meets
    x = e^{+-522} at the ends of the window is written in log form.

    The value is the h/2 rule.  QuadratureError is raised when it is not
    finite, or when its gap to the h rule or a term on the rim of the window
    exceeds max(epsabs, 10 epsrel |value|), or when that bound is 0: a value
    of 0 with epsabs = 0 certifies nothing, since every term underflowed.
    """
    x, w = _de_nodes(a, b)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            terms = np.atleast_1d(np.asarray(f(x), dtype=float))
            d = terms.ndim
            for k in range(d):
                terms = terms * w.reshape((-1,) + (1,) * (d - 1 - k))
    except (FloatingPointError, OverflowError) as exc:
        raise QuadratureError(f"integrand on [{a}, {b}] left float range: {exc}") from exc
    value = float(terms.sum())
    coarse = 2**d * float(terms[(slice(None, None, 2),) * d].sum())  # the h rule
    gap = abs(value - coarse)
    rim = max(float(np.abs(np.take(terms, [0, -1], axis=k)).max()) for k in range(d))
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


def momentum_integral(m: int, s: float, lam: float) -> float:
    """integral d^m q / (2 pi)^m  (lam + |q|^2)^{-s} by radial quadrature.

    Measured against reduction_constant(m, s) * lam^{m/2 - s} for the (m, s)
    pairs of the reduce command at 2,000 log-spaced lam: within 4.1e-14
    relative on [1e-100, 1e100], and within 9e-14 out to 1e-123 and 1e123.
    """
    s, lam = _check_domain(m, s, lam, "momentum integral")
    pref = sphere_area(m) / (2.0 * math.pi) ** m
    return pref * _radial_integral(m, s, lam)


def schwinger_integral(m: int, s: float, lam: float) -> float:
    """Proper-time form (4 pi)^{-m/2} Gamma(s)^{-1} int_0^inf t^{s-1-m/2} e^{-t lam} dt.

    The double-exponential rule takes the endpoint power t^a, a = s-1-m/2,
    without a weight function down to about a = -0.95; closer to the
    integrable limit a = -1 its rim guard raises QuadratureError.
    """
    s, lam = _check_domain(m, s, lam, "schwinger integral")
    a = s - 1.0 - 0.5 * m

    def f(u: np.ndarray) -> np.ndarray:
        # t = u / lam puts the nodes on the integrand's own scale
        return np.exp(a * (np.log(u) - math.log(lam)) - u) / lam

    pref = (4.0 * math.pi) ** (-0.5 * m) / specfun.gamma(s)
    return pref * quad_checked(f, 0.0, math.inf, epsabs=0.0)


def mollified_reduction(
    m: int, s: float, lam: float, mollifier: MollifierSpec
) -> float:
    """Momentum integral smeared by |eta_hat(eps q)|^2.

    Monotone nonincreasing in the width and converges to momentum_integral as
    the width shrinks.
    """
    if not isinstance(mollifier, MollifierSpec):
        raise ParameterError("mollifier must be a MollifierSpec")
    s, lam = _check_domain(m, s, lam, "mollified integral")
    pref = sphere_area(m) / (2.0 * math.pi) ** m
    return pref * _radial_integral(m, s, lam, damp_eps=mollifier.eps)


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


def two_step_chain(lam: float) -> tuple[float, float, float]:
    """Stagewise and combined reduction across one 1D and one 3D factor.

    Returns (C_{1,3}, C_{3,5/2}, nested quadrature of the combined kernel).
    The product of the stage constants is 1/(32 pi^2); the nested value is
    checked against (product)/lam to relative 1e-7 before returning.
    """
    lam = check_positive(lam, "lam")
    c1 = reduction_constant(1, 3.0)
    c3 = reduction_constant(3, 2.5)
    expect = c1 * c3 / lam
    log_lam = math.log(lam)
    root_lam = math.sqrt(lam)

    def kernel(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # lam q^2 (mu + p^2)^{-3}, mu = lam + q^2: the 1D factor's p against the
        # 3D radius q, at p = sqrt(lam) u and q = sqrt(lam) v, nodes on the
        # kernel's scale.  mu / (mu + p^2) = (1 - tanh(log(p / sqrt(mu)))) / 2
        # cannot overflow.
        log_q = np.log(root_lam * v)
        log_mu = np.logaddexp(log_lam, 2.0 * log_q)
        ratio = 0.5 - 0.5 * np.tanh(np.log(root_lam * u) - 0.5 * log_mu)
        return lam * np.exp(2.0 * log_q - 3.0 * log_mu) * (ratio * ratio * ratio)

    nested = quad_checked(lambda x: kernel(x[:, None], x[None, :]), 0.0, math.inf,
                          epsabs=1e-11 * expect, epsrel=1e-10)
    nested /= 2.0 * math.pi**3
    if not abs(nested - expect) <= 1e-7 * expect:
        raise ConvergenceError(
            f"combined reduction mismatch: nested={nested!r}, stagewise={expect!r}"
        )
    return c1, c3, nested
