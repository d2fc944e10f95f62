"""Codimension-m reduction constants and their quadrature cross-checks.

A product operator with an m-dimensional translation-invariant factor reduces,
on the diagonal, to multiples of lambda^{m/2-s} with constant

    C_{m,s} = (4 pi)^{-m/2} Gamma(s - m/2) / Gamma(s),    s > m/2.

This module evaluates the defining momentum integral three independent ways
(radial quadrature, Schwinger proper-time form, mollified smearing with an
explicit width) and exposes the two-stage chain whose combined constant is
1/(32 pi^2).
"""

from __future__ import annotations

# Module scope imports no scipy: quad_checked imports scipy.integrate when it runs.
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import specfun
from .errors import (
    ConvergenceError,
    ParameterError,
    QuadratureError,
    check_count,
    check_positive,
)

_TAIL_FRACTION = 1e-12  # radial truncation tail relative to the head integral


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

    eps: float = 0.0

    def __post_init__(self):
        if self.eps != 0.0:
            check_positive(self.eps, "nonzero mollifier width")


def quad_checked(
    f: Callable[[float], float],
    a: float,
    b: float,
    *,
    epsabs: float,
    epsrel: float = 1e-11,
    limit: int = 400,
    weight: str | None = None,
    wvar=None,
) -> float:
    """The package's one QUADPACK call: int_a^b f (times weight, if given).

    Raises QuadratureError when QUADPACK returns a warning flag, when the
    value is not finite (QUADPACK flags nan but returns inf unflagged), or
    when its error estimate exceeds max(epsabs, 10 epsrel |value|).
    """
    import scipy.integrate as integrate

    out = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit,
                         weight=weight, wvar=wvar, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(f"quadrature on [{a}, {b}] failed: {out[3]}")
    wanted = max(epsabs, 10.0 * epsrel * abs(value))
    if not math.isfinite(value) or abserr > wanted:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] gave {value:.6g} with error estimate"
            f" {abserr:.3e}, wanted a finite value within {wanted:.3e}"
        )
    return value


def _check_domain(m: int, s: float, lam: float, what: str) -> tuple[float, float]:
    """(s, lam) as floats, once s passes _check_s and lam is finite and > 0."""
    return _check_s(m, s, what), check_positive(lam, "lam")


def _radial_integral(m: int, s: float, lam: float, damp_eps: float = 0.0) -> float:
    """integral_0^inf q^{m-1} w(q) (lam+q^2)^{-s} dq with w = Gaussian damp.

    Truncates at Q fixed by the bound integral_Q^inf q^{m-1-2s} dq
    = Q^{m-2s}/(2s-m), kept below _TAIL_FRACTION of the head.
    """

    def f(q: float) -> float:
        base = q ** (m - 1) * (lam + q * q) ** (-s)
        if damp_eps:
            x = damp_eps * q
            base *= math.exp(-x * x)
        return base

    q_head = 10.0 * math.sqrt(lam) + 1.0
    # the head integral sizes the tail and is the first term of the total
    head = quad_checked(f, 0.0, q_head, epsabs=0.0)
    if head <= 0.0:
        raise QuadratureError("radial head integral vanished")
    tail_target = _TAIL_FRACTION * head * (2.0 * s - m)
    q_cut = math.exp(math.log(tail_target) / (m - 2.0 * s))
    q_cut = max(q_cut, q_head)
    # piecewise over geometric windows: a single panel spanning the decades
    # up to q_cut defeats the adaptive subdivision
    total = head
    lo = q_head
    while lo < q_cut:
        hi = min(lo * 100.0, q_cut)
        total += quad_checked(f, lo, hi, epsabs=1e-13 * head)
        lo = hi
    return total


def momentum_integral(m: int, s: float, lam: float) -> float:
    """integral d^m q / (2 pi)^m  (lam + |q|^2)^{-s} by radial quadrature.

    Agrees with reduction_constant(m, s) * lam^{m/2 - s} to relative 1e-8.
    """
    s, lam = _check_domain(m, s, lam, "momentum integral")
    pref = sphere_area(m) / (2.0 * math.pi) ** m
    return pref * _radial_integral(m, s, lam)


def schwinger_integral(m: int, s: float, lam: float) -> float:
    """Proper-time form (4 pi)^{-m/2} Gamma(s)^{-1} int_0^inf t^{s-1-m/2} e^{-t lam} dt.

    The endpoint exponent a = s - 1 - m/2 can sit in (-1, 0); that piece is
    handled with an algebraic-weight rule so the contract matches
    momentum_integral to relative 1e-8.
    """
    s, lam = _check_domain(m, s, lam, "schwinger integral")
    a = s - 1.0 - 0.5 * m
    if a < 0.0:
        head = quad_checked(lambda t: math.exp(-lam * t), 0.0, 1.0, epsabs=0.0,
                            epsrel=1e-12, limit=200, weight="alg", wvar=(a, 0.0))
    else:
        head = quad_checked(
            lambda t: t**a * math.exp(-lam * t), 0.0, 1.0, epsabs=1e-14
        )
    tail = quad_checked(lambda t: t**a * math.exp(-lam * t), 1.0, math.inf,
                        epsabs=1e-14, epsrel=1e-12, limit=200)
    pref = (4.0 * math.pi) ** (-0.5 * m) / specfun.gamma(s)
    return pref * (head + tail)


def mollified_reduction(
    m: int, s: float, lam: float, mollifier: MollifierSpec
) -> float:
    """Momentum integral smeared by |eta_hat(eps q)|^2.

    Monotone nonincreasing in the width and converges to momentum_integral as
    the width shrinks; width 0 short-circuits to momentum_integral since the
    profile is identically 1 there.
    """
    _check_m(m)
    if not isinstance(mollifier, MollifierSpec):
        raise ParameterError("mollifier must be a MollifierSpec")
    if mollifier.eps == 0.0:
        return momentum_integral(m, s, lam)
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

    def inner(mu: float) -> float:
        # (1/(2 pi)) int_R (mu + p^2)^{-3} dp, evaluated numerically
        out = quad_checked(lambda p: (mu + p * p) ** (-3), 0.0, math.inf,
                           epsabs=0.0, epsrel=1e-11, limit=200)
        return out / math.pi

    def outer(q: float) -> float:
        return q * q * inner(lam + q * q)

    q_cut = 200.0 * math.sqrt(lam)
    main = quad_checked(outer, 0.0, q_cut, epsabs=1e-11 * expect, epsrel=1e-10)
    # beyond q_cut the inner integral is C_{1,3} (lam+q^2)^{-5/2} to O(q^-2),
    # and int_Q^inf q^2 (lam+q^2)^{-5/2} dq has the closed form below
    tail = (c1 / (3.0 * lam)) * (1.0 - q_cut**3 * (lam + q_cut * q_cut) ** (-1.5))
    nested = (main + tail) / (2.0 * math.pi**2)
    if not abs(nested - expect) <= 1e-7 * expect:
        raise ConvergenceError(
            f"combined reduction mismatch: nested={nested!r}, stagewise={expect!r}"
        )
    return c1, c3, nested
