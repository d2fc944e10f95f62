"""Special-function layer: gamma, error function, boundary theta sums, and
exact zeta values at negative odd integers.

gamma is math.gamma, which reflects x < 0.5 itself, with the package's errors:
PoleError at the non-positive integers and ParameterError for nan.  erf is
math.erf elementwise over a numpy array, which numpy lacks; elementwise maps
any math function so.  Both routes of a theta sum, the defining series and
its modular dual (chosen automatically by pi t / L^2 at each node), sum one
Gaussian series with a certified truncation tail, over an array of t and
over several axes at once, in one loop over k that forms each term only at
the nodes still summing; math.exp gives each term, so a node's value does
not depend on which other nodes share the call.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ParameterError,
    PoleError,
    check_choice,
    check_count,
    check_normal_at,
    check_positive,
    check_positive_nodes,
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


def elementwise(f, x: np.ndarray) -> np.ndarray:
    """The math function f elementwise over an array of any shape, each entry
    exactly what the scalar call f gives."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(f, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


def erf(x: np.ndarray) -> np.ndarray:
    """Error function elementwise over an array of any shape."""
    return elementwise(math.erf, x)


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
    """Result of a theta evaluation with truncation accounting: value and
    tail_bound are floats for one axis at a scalar t, else arrays, and terms
    counts the series terms summed over all their nodes."""

    value: float | np.ndarray
    terms: int
    tail_bound: float | np.ndarray


def _gauss_series(q, first, weight, scale, offset) -> ThetaEval:
    """offset + scale (first + weight sum_{k>=1} exp(-q k^2)) at each node,
    every argument an array of one shape, summed in order over k until a
    scaled term drops below _SERIES_RTOL (1 + |value|), but past a value of 0
    while the term is not 0; a nonzero first counts as a term.  Term k is
    formed only at the nodes still summing, so each node sums exactly what
    a loop over k at that node alone would."""
    shape = q.shape
    value, tail = np.empty(q.size), np.empty(q.size)
    live = np.arange(q.size)
    q, acc, weight, scale, offset = (a.ravel() for a in (q, first, weight, scale, offset))
    terms = -int(np.count_nonzero(acc == 0.0))
    k = 1.0
    while live.size:
        term = weight * elementwise(math.exp, q * -k * k)
        vals = scale * acc + offset
        scaled = scale * term
        small = ~(scaled >= _SERIES_RTOL * (1.0 + np.abs(vals)))  # so is a NaN
        stop = small & ((vals != 0.0) | (term == 0.0))
        done = live[stop]
        value[done] = vals[stop]
        # geometric domination: successive ratios are exp(-q(2k+1)),
        # decreasing in k, so the tail is below term / (1 - ratio)
        tail[done] = scaled[stop] / (1.0 - elementwise(math.exp, q[stop] * -(2.0 * k + 1.0)))
        terms += int(k) * done.size
        go = ~stop
        live, q, acc, weight, scale, offset = (
            live[go], q[go], (acc + term)[go], weight[go], scale[go], offset[go]
        )
        k += 1.0
    return ThetaEval(value.reshape(shape), terms, tail.reshape(shape))


def _theta_series(
    bcs: list[Bc], lengths: list[float], t: np.ndarray, direct: np.ndarray
) -> ThetaEval:
    """Dirichlet or Neumann sums of the axes (bcs, lengths) at the nodes t, a
    1-D array, in one _gauss_series: where direct (a bool array of axes x
    nodes) the defining series, Dirichlet sum_{r>=1} exp(-c r^2) with
    c = pi^2 t / L^2, Neumann adding the r = 0 term; elsewhere its modular
    image sum_{m in Z} exp(-pi^2 m^2 t / L^2)
         = (L / sqrt(pi t)) sum_{k in Z} exp(-L^2 k^2 / t) = S,
    Neumann (S+1)/2 and Dirichlet (S-1)/2.  value and tail_bound have shape
    axes x nodes; ParameterError names the first dual prefactor L/sqrt(pi t)
    past the float range."""
    length = np.array(lengths)[:, None]
    pref = length / np.sqrt(math.pi * t)
    check_normal_at(
        np.where(direct, 1.0, pref),
        lambda i: f"theta prefactor L/sqrt(pi t) at L={lengths[i // t.size]!r}, "
                  f"t={float(t[i % t.size])!r}",
    )
    neumann = np.array([float(bc is Bc.NEUMANN) for bc in bcs])[:, None]
    offset = np.array([HEAT_OFFSET[bc] for bc in bcs])[:, None]
    squared = length * length
    return _gauss_series(
        np.where(direct, math.pi * math.pi * t / squared, squared / t),
        np.where(direct, neumann, 1.0),
        np.where(direct, 1.0, 2.0),
        np.where(direct, 1.0, 0.5 * pref),
        np.where(direct, 0.0, offset),
    )


def theta_eval(bc, length, t) -> ThetaEval:
    """Evaluate boundary theta sums with a certified truncation tail.

    Parameters
    ----------
    bc : Bc, or a list or tuple of them, one per axis
        DIRICHLET sums exp(-pi^2 r^2 t / L^2) over r >= 1, NEUMANN over
        m >= 0; PERIODIC sums exp(-(2 pi k / L)^2 t) over k in Z, which is
        1 + 2 Theta_D(L/2; t).
    length : float, or a list or tuple of them, one per axis
        Finite interval lengths L > 0.
    t : float or array of float
        Diffusion times t > 0.

    value and tail_bound are floats for one axis at a scalar t, arrays of
    the shape of t for one axis, and of shape (axes,) + that shape for a
    list of axes; terms counts the series terms over them all.  Every axis
    and node is summed in one series, so the scalar call is its one-node
    case, and a node's value does not depend on the others.

    The defining series is summed at the nodes where pi*t/L^2 >= 1 and the
    modular dual below that, so either route needs only a handful of terms.
    A length whose square is not a normal float raises ParameterError, and so
    does, naming the first such t, a t that is not finite and > 0, a dual
    prefactor L/sqrt(pi t) past the float range, or a sum that is not a
    normal float.
    """
    listed = isinstance(bc, (list, tuple))
    if listed and not (isinstance(length, (list, tuple)) and len(length) == len(bc)):
        raise ParameterError(f"theta sums need one length per axis, got {length!r} for {bc!r}")
    bcs = [check_choice(b, Bc, "boundary condition") for b in (bc if listed else [bc])]
    lengths = [check_positive(x, "theta length") for x in (length if listed else [length])]
    nodes = check_positive_nodes(t, "theta t")
    periodic = [b is Bc.PERIODIC for b in bcs]
    # periodic modes are the Dirichlet modes of the half interval, each
    # twice, plus the zero mode
    bcs = [Bc.DIRICHLET if p else b for b, p in zip(bcs, periodic)]
    lengths = [0.5 * x if p else x for x, p in zip(lengths, periodic)]
    for x, p in zip(lengths, periodic):
        if not x * x >= sys.float_info.min:
            side = "half length" if p else "length"
            raise ParameterError(f"theta {side} {x!r} is too short: its square underflows")
    flat = nodes.ravel()
    with np.errstate(over="ignore"):  # an overflow is an inf, which the checks refuse
        column = np.array(lengths)[:, None]
        ev = _theta_series(bcs, lengths, flat, math.pi * flat / (column * column) >= 1.0)
    value, tail = ev.value, ev.tail_bound
    cyclic = [i for i, p in enumerate(periodic) if p]
    summed = [i for i, p in enumerate(periodic) if not p]
    check_normal_at(
        value[summed] if cyclic else value,
        lambda i: f"theta sum at L={lengths[summed[i // flat.size]]!r}, "
                  f"t={float(flat[i % flat.size])!r}",
    )
    if cyclic:
        value[cyclic] = 1.0 + 2.0 * value[cyclic]
        tail[cyclic] *= 2.0
    shape = ((len(bcs),) if listed else ()) + nodes.shape
    if not shape:
        return ThetaEval(float(value[0, 0]), ev.terms, float(tail[0, 0]))
    return ThetaEval(value.reshape(shape), ev.terms, tail.reshape(shape))
