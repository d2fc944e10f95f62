"""Special-function layer: gamma, error function, boundary theta sums, and
exact zeta values at negative odd integers.

gamma is math.gamma, which reflects x < 0.5 itself, with the package's errors:
PoleError at the non-positive integers and ParameterError for nan.  erf is
math.erf elementwise over a numpy array, which numpy lacks.  Both routes of a
theta sum, the defining series and its modular dual (chosen automatically by
pi t / L^2), sum one Gaussian series with a certified truncation tail.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ParameterError, PoleError, check_choice, check_count, check_normal, check_positive
)

_SERIES_RTOL = 1e-14

# Bernoulli numbers B_2, B_4, B_6, B_8 as exact rationals.
_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
}


def gamma(x: float) -> float:
    """Gamma function on the real line.

    Raises PoleError at non-positive integers and ParameterError for nan, and
    lets OverflowError propagate when the result exceeds the double range.
    """
    x = float(x)
    if x != x:
        raise ParameterError("gamma: nan argument")
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"gamma: pole at {x}")
    return math.gamma(x)


def erf(x: np.ndarray) -> np.ndarray:
    """Error function elementwise over an array of any shape."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel()), float, count=x.size).reshape(x.shape)


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
    check_count(n, "zeta_negative_odd: n")
    if n % 2 == 0 or n > 7:
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


def _gauss_series(q: float, first: float, weight: float, scale: float, offset: float) -> ThetaEval:
    """offset + scale (first + weight sum_{k>=1} exp(-q k^2)), summed until a
    scaled term drops below _SERIES_RTOL (1 + |value|), but past a value of 0
    while the term is not 0; a nonzero first counts as a term."""
    acc = first
    k = 1
    while True:
        term = weight * math.exp(-q * k * k)
        value = scale * acc + offset
        small = not scale * term >= _SERIES_RTOL * (1.0 + abs(value))  # so is a NaN
        if small and (value != 0.0 or term == 0.0):
            # geometric domination: successive ratios are exp(-q(2k+1)),
            # decreasing in k, so the tail is below term / (1 - ratio)
            ratio = math.exp(-q * (2 * k + 1))
            return ThetaEval(value, k - 1 + (first != 0.0), scale * term / (1.0 - ratio))
        acc += term
        k += 1


def _theta_direct(bc: Bc, length: float, t: float) -> ThetaEval:
    # Dirichlet: sum_{r>=1} exp(-c r^2); Neumann adds the r=0 term.
    c = math.pi * math.pi * t / (length * length)
    return _gauss_series(c, 1.0 if bc is Bc.NEUMANN else 0.0, 1.0, 1.0, 0.0)


def _theta_dual(bc: Bc, length: float, t: float) -> ThetaEval:
    # Modular image: sum_{m in Z} exp(-pi^2 m^2 t / L^2)
    #              = (L / sqrt(pi t)) sum_{k in Z} exp(-L^2 k^2 / t),
    # then Neumann = (S+1)/2 and Dirichlet = (S-1)/2.
    pref = check_normal(
        length / math.sqrt(math.pi * t), f"theta prefactor L/sqrt(pi t) at L={length!r}, t={t!r}"
    )
    return _gauss_series(length * length / t, 1.0, 2.0, 0.5 * pref, HEAT_OFFSET[bc])


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
    below that, so either route needs only a handful of terms.  A length
    whose square is not a normal float, a dual prefactor L/sqrt(pi t) past
    the float range, or a sum that is not a normal float raises ParameterError.
    """
    bc = check_choice(bc, Bc, "boundary condition")
    length = check_positive(length, "theta length")
    t = check_positive(t, "theta t")
    periodic = bc is Bc.PERIODIC
    if periodic:
        # periodic modes are the Dirichlet modes of the half interval, each
        # twice, plus the zero mode
        bc, length = Bc.DIRICHLET, 0.5 * length
    if not length * length >= sys.float_info.min:
        side = "half length" if periodic else "length"
        raise ParameterError(f"theta {side} {length!r} is too short: its square underflows")
    route = _theta_direct if math.pi * t / (length * length) >= 1.0 else _theta_dual
    ev = route(bc, length, t)
    if periodic:
        return ThetaEval(1.0 + 2.0 * ev.value, ev.terms, 2.0 * ev.tail_bound)
    check_normal(ev.value, f"theta sum at L={length!r}, t={t!r}")
    return ev
