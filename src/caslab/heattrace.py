"""Regulated traces, mixed-cell heat traces, and finite-part extraction.

The regulated trace (1/2) sum lambda^{1/2} e^{-tau lambda} carries a certified
truncation remainder from its eigenvalue stream.  Mixed rectangular cells
factorize into one-dimensional theta sums; BoxSpec.heat_coefficients holds
their short-time coefficients in closed form.  fit_columns is the one
extrapolation model: a weighted, column-equilibrated least-squares fit over
columns x^p log(x)^k and a constant, whose constant is the fitted c0, the
finite part (with a nested-window stability guard) and riesz.richardson_limit's
width-0 limit.  A flat box has no log tau term, so the finite part models
pure power divergences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CutoffError,
    FitConditionError,
    FitInstabilityError,
    ParameterError,
    check_normal,
    check_positive,
)
from .spectrum import EigenStream, mixed_cell

_TAIL_TARGET = 1e-6  # tail bound must stay below this fraction of the value
_STABILITY_TOL = 5e-3  # allowed relative move of c0 between nested windows
_COND_LIMIT = 1e10  # largest trusted condition number of a fit design matrix


@dataclass(frozen=True)
class HeatTraceSample:
    """One regulator value tau, the trace value, and its truncation bound."""

    tau: float
    value: float
    tail_bound: float


def regulated_trace(stream: EigenStream, tau: float) -> HeatTraceSample:
    """(1/2) sum_j mult_j lambda_j^{1/2} exp(-tau lambda_j), one array sum.

    The stream's heat-tail envelope at tau (halved like the sum) is attached
    as the sample's tail bound; if that bound exceeds 1e-6 of the value the
    cutoff was too low for this tau and a CutoffError is raised.  A tau so
    large that the trace is not a normal float raises ParameterError.
    """
    tau = check_positive(tau, "regulated trace tau")
    lam = stream.values
    total = 0.5 * float(np.sum(stream.multiplicities * np.sqrt(lam) * np.exp(-tau * lam)))
    total = check_normal(total, f"regulated trace at tau={tau!r}")
    tail = 0.5 * stream.tail_bound(tau)
    if tail > _TAIL_TARGET * total:
        raise CutoffError(
            f"truncation tail {tail:.3e} exceeds {_TAIL_TARGET:.0e} of value "
            f"{total:.6e}; raise the cutoff or tau"
        )
    return HeatTraceSample(tau=tau, value=total, tail_bound=tail)


def mixed_cell_heat_trace(l1: float, l2: float, a: float, t):
    """Heat trace of the Neumann x Neumann x Dirichlet cell at a scalar t (a
    float) or an array of t (an array of its shape), as BoxSpec.heat_trace.

    Separability factorizes the trace into Theta_N(l1; t) Theta_N(l2; t)
    Theta_D(a; t), each evaluated on its automatically chosen route.
    """
    return mixed_cell(l1, l2, a).heat_trace(t)


def short_time_grid(length: float, points: int = 16) -> np.ndarray:
    """Fit window of every small-t fit: points in [1e-4, 1e-3] length^2.

    length is the shortest side of the geometry, so the window sits low
    enough that the first power correction beyond the modeled terms stays
    well under the fits' accuracy targets.  Both ends are placed exactly, so
    the grid spans one full decade for every length, as finite_part requires.
    The fits raise t to powers up to 2 in magnitude, so the window must lie
    within (1e-150, 1e150) for them to stay in the float range.
    """
    length = check_positive(length, "fit window length")
    lo = 1e-4 * length * length
    if not (lo > 1e-150 and 10.0 * lo < 1e150):
        raise ParameterError(f"fit window of length {length!r} leaves the float range")
    return np.geomspace(lo, 10.0 * lo, points)


def short_time_coefficients(l1: float, l2: float, a: float) -> dict[str, float]:
    """Fit the four-term small-t law of the mixed-cell heat trace.

    Model: K(t) = c32 t^{-3/2} + c1 t^{-1} + c12 t^{-1/2} + c0 on
    short_time_grid of the shortest side, fitted by fit_columns as in
    finite_part, weights t^{3/2}, keyed as BoxSpec.heat_coefficients.  The
    volume term leads the trace at the window's smallest t, so ParameterError
    is raised when twice that term leaves the float range.
    """
    t = short_time_grid(min(l1, l2, a))
    cell = mixed_cell(l1, l2, a)
    closed = cell.heat_coefficients()
    check_normal(lambda: 2.0 * closed["t^-3/2"] * float(t[0]) ** -1.5,
                 f"twice the volume term of the cell ({l1!r}, {l2!r}, {a!r})")
    coef, _, _ = fit_columns(t, cell.heat_trace(t), [(-1.5, 0), (-1.0, 0), (-0.5, 0)])
    return dict(zip(closed, map(float, coef)))


def b_coefficient(l1: float, l2: float, a: float) -> float:
    """Area-type coefficient B = (a (l1 + l2) - l1 l2) / (8 pi) of any mixed
    cell, the t^{-1} entry of BoxSpec.heat_coefficients.  On the family
    aspect_sides(a, alpha) it is a^2 (alpha + 1/alpha - 1) / (8 pi), least at the cube."""
    return mixed_cell(l1, l2, a).heat_coefficients()["t^-1"]


@dataclass(frozen=True)
class FinitePartModel:
    """Result of a finite-part fit: modeled divergences and the constant term.

    The stability fields record how much c0 moved when the fit window was cut
    in half at the top, and the relative tolerance that move was held to.
    """

    exponents: tuple[float, ...]
    coefficients: dict[str, float]
    c0: float
    residual: float
    window: tuple[float, float]
    condition_number: float
    nested_c0: float
    stability_drift: float
    stability_tol: float


def fit_columns(
    x: np.ndarray, values: np.ndarray, columns: Sequence[tuple[float, int]]
) -> tuple[np.ndarray, float, float]:
    """Fit values = sum c_pk x^p log(x)^k + c0 over the columns (p, k).

    Least squares with weights x^{max(0, -min p)} and equilibrated columns;
    returns (coef, weighted rms residual, condition number), coef ordered as
    the columns, then c0.  ParameterError unless every x is finite and > 0,
    every value finite and no coefficient outnumbers the samples;
    FitConditionError when the condition number exceeds 1e10.
    """
    if not (np.all((x > 0.0) & (x < math.inf)) and np.all(np.isfinite(values))):
        raise ParameterError("fit abscissae must be finite and > 0, values finite")
    if x.size < len(columns) + 1:
        raise ParameterError(f"need at least {len(columns) + 1} samples for columns {columns}")
    cols = [x**p * np.log(x) ** k if k else x**p for p, k in columns]
    cols.append(np.ones_like(x))
    design = np.column_stack(cols)
    w = x ** max(0.0, -min((p for p, _ in columns), default=0.0))
    aw = design * w[:, None]
    bw = values * w
    scale = np.max(np.abs(aw), axis=0)
    scale[scale == 0.0] = 1.0
    aeq = aw / scale
    # the solve's own singular values give the condition number, largest over smallest
    coef_eq, _, _, sv = np.linalg.lstsq(aeq, bw, rcond=None)
    cond = float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else math.inf
    if cond > _COND_LIMIT:
        raise FitConditionError(
            f"fit design matrix condition number {cond:.3e} exceeds "
            f"{_COND_LIMIT:.0e}; choose better-separated exponents or a wider "
            "window"
        )
    coef = coef_eq / scale
    r = aw @ coef - bw
    # squares of r * 2^-e, with max|r| in [2^(e-1), 2^e), cannot overflow, and
    # scaling by a power of two is exact
    e = math.frexp(float(np.max(np.abs(r))))[1]
    resid = math.ldexp(float(np.sqrt(np.mean(np.ldexp(r, -e) ** 2))), e)
    return coef, resid, cond


def finite_part(
    samples: Sequence[HeatTraceSample],
    exponents: Sequence[float],
) -> FinitePartModel:
    """Extract the constant term of value(tau) = sum_b a_b tau^{-b} + c0 from
    trace samples.

    The fit is fit_columns over the columns tau^{-b}, weights tau^{max b},
    repeated on the nested window [tau_min, tau_max/2]; the two constant
    terms must agree within 5e-3 (relative) or a FitInstabilityError is raised.
    """
    exps = {check_positive(b, "divergent exponent") for b in exponents}
    exps = tuple(sorted(exps, reverse=True))
    if not exps:
        raise ParameterError("need at least one divergent exponent")
    if len(samples) < len(exps) + 2:
        raise ParameterError(f"need at least {len(exps) + 2} samples for exponents {exps}")
    ordered = sorted(samples, key=lambda s: s.tau)
    tau = np.array([s.tau for s in ordered], dtype=float)
    values = np.array([s.value for s in ordered], dtype=float)
    if tau[-1] < 10.0 * tau[0]:
        raise ParameterError("samples must span at least one decade of tau")
    for s in ordered:
        if s.tail_bound > _TAIL_TARGET * abs(s.value):
            raise ParameterError(
                f"sample at tau={s.tau} carries tail bound {s.tail_bound:.3e} "
                "above the fit's accuracy target"
            )

    columns = [(-b, 0) for b in exps]
    coef, resid, cond = fit_columns(tau, values, columns)
    half = tau <= tau[-1] / 2.0
    if int(half.sum()) < len(exps) + 2:
        raise ParameterError("too few samples in the nested half window")
    coef_half, _, _ = fit_columns(tau[half], values[half], columns)
    c0_full = float(coef[-1])
    c0_half = float(coef_half[-1])
    drift = abs(c0_full - c0_half)
    coeff_scale = float(np.max(np.abs(coef)))
    allowed = _STABILITY_TOL * max(abs(c0_full), abs(c0_half), 1e-9 * max(coeff_scale, 1.0))
    if drift > allowed:
        raise FitInstabilityError(
            f"finite part moved by {drift:.3e} between nested windows "
            f"(allowed {allowed:.3e}); the model is missing a term"
        )
    return FinitePartModel(
        exponents=exps,
        coefficients={f"tau^-{b:g}": float(c) for b, c in zip(exps, coef)},
        c0=c0_full,
        residual=resid,
        window=(float(tau[0]), float(tau[-1])),
        condition_number=cond,
        nested_c0=c0_half,
        stability_drift=drift,
        stability_tol=_STABILITY_TOL,
    )
