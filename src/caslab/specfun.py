"""Special-function layer: gamma with reflection, error function, boundary
theta sums, and exact zeta values at negative odd integers.

The gamma and error functions wrap the C library implementations but pin down
the behavior the rest of the package relies on: explicit pole detection, a
reflection formula for the left half line, exact oddness of erf, and stated
accuracy targets (relative 1e-12 for gamma on |x| <= 30, absolute 1e-13 for
erf).  The theta sums are evaluated by the defining series or by its modular
dual, chosen automatically by pi t / L^2, with certified truncation tails.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, PoleError, check_choice, check_positive

_SERIES_RTOL = 1e-14

# Bernoulli numbers B_2, B_4, B_6, B_8 as exact rationals.
_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
}


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction so large x stays accurate."""
    n = math.floor(x)
    f = x - n
    s = math.sin(math.pi * f)
    return -s if n % 2 else s


def gamma(x: float) -> float:
    """Gamma function on the real line.

    Uses the library routine for x >= 0.5 and the reflection formula
    pi / (sin(pi x) Gamma(1-x)) for x < 0.5.  Raises PoleError at
    non-positive integers and lets OverflowError propagate when the result
    exceeds the double range.
    """
    x = float(x)
    if x != x:
        raise ParameterError("gamma: nan argument")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma: pole at {x}")
    if x >= 0.5:
        return math.gamma(x)
    s = _sinpi(x)
    try:
        return math.pi / (s * math.gamma(1.0 - x))
    except OverflowError:
        # Gamma(1-x) overflowed, so |Gamma(x)| underflows; recover the
        # magnitude through log-gamma instead of failing.
        log_mag = math.log(math.pi) - math.log(abs(s)) - math.lgamma(1.0 - x)
        mag = math.exp(log_mag)
        return math.copysign(mag, s)


def erf(x: float) -> float:
    """Error function, odd by construction: erf(-x) == -erf(x) exactly."""
    x = float(x)
    if x == 0.0:
        return 0.0
    return math.copysign(math.erf(abs(x)), x)


def upper_gamma_three_halves(y: float) -> float:
    """Incomplete integral Gamma(3/2, y) = integral_y^inf sqrt(u) e^{-u} du.

    Closed form (sqrt(pi)/2) erfc(sqrt(y)) + sqrt(y) e^{-y}; valid for y >= 0.
    """
    y = float(y)
    if not y >= 0.0:
        raise ParameterError(f"upper_gamma_three_halves: need y >= 0, got {y!r}")
    if y == math.inf:
        return 0.0  # sqrt(y) e^{-y} would be inf * 0
    r = math.sqrt(y)
    return 0.5 * math.sqrt(math.pi) * math.erfc(r) + r * math.exp(-y)


def zeta_negative_odd(n: int) -> Fraction:
    """Exact rational value of zeta(-n) for odd n in {1, 3, 5, 7}.

    zeta(-n) = -B_{n+1} / (n+1) with B the Bernoulli numbers.  Restricting to
    the tabulated range keeps the result exact; anything else raises.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParameterError("zeta_negative_odd: n must be an int")
    if n % 2 == 0 or n < 1 or n > 7:
        raise ParameterError("zeta_negative_odd: supported n are 1, 3, 5, 7")
    return -_BERNOULLI[n + 1] / (n + 1)


class Bc(str, enum.Enum):
    """Boundary condition of one axis, and so the mode tower its theta sum
    ranges over."""

    DIRICHLET = "dirichlet"  # pi^2 r^2 / L^2, r >= 1
    NEUMANN = "neumann"      # pi^2 m^2 / L^2, m >= 0
    PERIODIC = "periodic"    # (2 pi k / L)^2, k in Z


# axis heat sum = L / (2 sqrt(pi t)) + HEAT_OFFSET[bc] + O(exp(-L^2 / t)), by the dual
HEAT_OFFSET = {Bc.DIRICHLET: -0.5, Bc.NEUMANN: 0.5, Bc.PERIODIC: 0.0}


@dataclass(frozen=True)
class ThetaEval:
    """Result of a theta evaluation with truncation accounting."""

    value: float
    terms: int
    tail_bound: float


def _theta_direct(bc: Bc, length: float, t: float) -> ThetaEval:
    # Dirichlet: sum_{r>=1} exp(-c r^2); Neumann adds the r=0 term.
    c = math.pi * math.pi * t / (length * length)
    total = 1.0 if bc is Bc.NEUMANN else 0.0
    terms = 1 if bc is Bc.NEUMANN else 0
    r = 1
    while True:
        term = math.exp(-c * r * r)
        if not term >= _SERIES_RTOL * (1.0 + total):  # a NaN ends the loop too
            # geometric domination: successive ratios are exp(-c(2k+1)),
            # decreasing in k, so the tail is below term / (1 - ratio)
            ratio = math.exp(-c * (2 * r + 1))
            tail = term / (1.0 - ratio)
            return ThetaEval(total, terms, tail)
        total += term
        terms += 1
        r += 1


def _theta_dual(bc: Bc, length: float, t: float) -> ThetaEval:
    # Modular image: sum_{m in Z} exp(-pi^2 m^2 t / L^2)
    #              = (L / sqrt(pi t)) sum_{k in Z} exp(-L^2 k^2 / t),
    # then Neumann = (S+1)/2 and Dirichlet = (S-1)/2.
    q = length * length / t
    pref = length / math.sqrt(math.pi * t)
    if pref == math.inf:
        raise ParameterError(f"theta prefactor L/sqrt(pi t) at L={length!r}, t={t!r} overflows")
    dual = 1.0
    terms = 1
    k = 1
    while True:
        term = 2.0 * math.exp(-q * k * k)
        value = 0.5 * (pref * dual) + HEAT_OFFSET[bc]
        if not 0.5 * pref * term >= _SERIES_RTOL * (1.0 + abs(value)):  # NaN ends it too
            ratio = math.exp(-q * (2 * k + 1))
            tail = 0.5 * pref * term / (1.0 - ratio)
            return ThetaEval(value, terms, tail)
        dual += term
        terms += 1
        k += 1


def theta_eval(bc: Bc, length: float, t: float) -> ThetaEval:
    """Evaluate a boundary theta sum with a certified truncation tail.

    Parameters
    ----------
    bc : Bc
        DIRICHLET sums exp(-pi^2 r^2 t / L^2) over r >= 1, NEUMANN over
        m >= 0; PERIODIC sums exp(-(2 pi k / L)^2 t) over k in Z, which is
        1 + 2 Theta_D(L/2; t).
    length, t : float
        Finite interval length L > 0 and diffusion time t > 0.

    The defining series is summed once pi*t/L^2 >= 1 and the modular dual
    below that, so either route needs only a handful of terms.  A dual
    prefactor L/sqrt(pi t) past the float range raises ParameterError.
    """
    bc = check_choice(bc, Bc, "boundary condition")
    length = check_positive(length, "theta length")
    t = check_positive(t, "theta t")
    periodic = bc is Bc.PERIODIC
    if periodic:
        # periodic modes are the Dirichlet modes of the half interval, each
        # twice, plus the zero mode
        bc, length = Bc.DIRICHLET, 0.5 * length
    route = _theta_direct if math.pi * t / (length * length) >= 1.0 else _theta_dual
    ev = route(bc, length, t)
    if periodic:
        return ThetaEval(1.0 + 2.0 * ev.value, ev.terms, 2.0 * ev.tail_bound)
    return ev
