"""Parallel-plate benchmark: regulated traces, finite parts, and calibration.

The plate spectrum lives on a lateral torus of period L with a Dirichlet
interval of width a.  Its per-unit-area large-L limit reduces to an upper
incomplete gamma series, whose finite part after removing the tau^{-2} and
tau^{-3/2} divergences is the plate coefficient -pi^2/1440 per channel.  The
closed zeta-function route provides an independent oracle, and the ratio of
the plate energy to a reference cell energy defines the calibration
coefficient used in the aspect-ratio comparison.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import boxint, specfun
from .errors import (
    ParameterError, ResourceError, check_count, check_float_count, check_normal, check_positive
)
from .heattrace import (
    FinitePartModel,
    HeatTraceSample,
    finite_part,
    regulated_trace,
    short_time_grid,
)
from .spectrum import AxisSpec, Bc, BoxSpec, enumerate_modes

PLATE_EXPONENTS = (2.0, 1.5)
PIPELINE_TOLERANCE = 7.5e-3  # bounds heat_fit(1)'s c0 error (3.8e-3); Delta cancels exactly
_TERM_CAP = 1_000_000  # terms of the per-area series, about 1.1 s of summing
_TERM_BLOCK = 4096  # per-area terms summed at once, so no sum holds them all


@dataclass(frozen=True)
class PlateConfig:
    """Finite plate box: separation a and lateral period L."""

    a: float
    L: float

    def __post_init__(self):
        check_positive(self.a, "plate separation a")
        check_positive(self.L, "lateral period L")


def plate_box(L: float, a: float) -> BoxSpec:
    """Torus x torus x Dirichlet-interval spectrum of the finite plate box."""
    return BoxSpec(
        (
            AxisSpec(L, Bc.PERIODIC),
            AxisSpec(L, Bc.PERIODIC),
            AxisSpec(a, Bc.DIRICHLET),
        )
    )


def finite_box_trace(config: PlateConfig, tau: float) -> HeatTraceSample:
    """Regulated half trace of the finite plate box at regulator tau, over the
    spectrum enumerated below max(60/tau, 4 pi^2/a^2)."""
    box = plate_box(config.L, config.a)
    tau = check_positive(tau, "regulated trace tau")
    cutoff = max(60.0 / tau, 4.0 * box.lambda_min)
    return regulated_trace(enumerate_modes(box, cutoff), tau)


def per_area_trace(a: float, tau: float) -> HeatTraceSample:
    """Large-area limit of the regulated trace per unit plate area.

    Integrating the lateral continuum modes gives
    (1/(8 pi)) tau^{-3/2} sum_{n>=1} Gamma(3/2, tau pi^2 n^2 / a^2); the sum
    is truncated once the certified exponential tail drops below 1e-16 of the
    running value.  The sum runs at least until c n^2 >= 40, c = tau pi^2 / a^2,
    so ResourceError is raised up front when that takes more than 10^6 terms,
    and ParameterError where (pi/a)^2 or tau^{-3/2} overflows or the value
    is not a normal float.  The terms are summed in blocks of at most 4096.
    """
    a = check_positive(a, "a")
    tau = check_positive(tau, "tau")
    try:
        c = tau * (math.pi / a) ** 2
        if not c * _TERM_CAP * _TERM_CAP >= 40.0:
            raise ResourceError(
                f"per-area trace at a={a!r}, tau={tau!r} needs more than {_TERM_CAP} terms"
            )
        pref = tau**-1.5 / (8.0 * math.pi)
    except OverflowError:
        raise ParameterError(
            f"per-area trace at a={a!r}, tau={tau!r} leaves the float range"
        ) from None
    # a block of n at a time, each term and bound as its scalar formula gives
    # it (math.erfc and math.exp at each n) and added in order onto the total
    # carried from the block before: the sum of a loop over n, bit for bit
    root_c, half_root_pi = math.sqrt(c), 0.5 * math.sqrt(math.pi)
    first_stop = int(math.sqrt(40.0 / c))  # c n^2 >= 40 from about here on
    total, start = 0.0, 1
    while True:
        count = min(_TERM_BLOCK, max(first_stop - start, 0) + 16)
        n = np.arange(start, start + count, dtype=float)
        with np.errstate(over="ignore"):
            # past the float range each term and bound is 0, as at c n^2 = inf
            y = np.minimum(c * n * n, sys.float_info.max)
        r, decay = np.sqrt(y), specfun.elementwise(math.exp, -y)
        terms = half_root_pi * specfun.elementwise(math.erfc, r) + r * decay
        sums = np.cumsum(np.concatenate(([total], terms)))
        # bound on sum_{m>n}: sqrt(y) e^{-y} (1 + 1/(2y)) summed by integral
        bound = (1.0 + 0.5 / y) * decay / (2.0 * root_c)
        done = (y >= 40.0) & (bound <= 1e-16 * sums[1:])
        if done.any():
            i = int(done.argmax())
            what = f"per-area trace at a={a!r}, tau={tau!r}"
            value = check_normal(pref * float(sums[i + 1]), what)
            return HeatTraceSample(tau=tau, value=value, tail_bound=pref * float(bound[i]))
        total, start = float(sums[-1]), start + count


def default_tau_grid(a: float) -> np.ndarray:
    """Fit window for the per-area finite part: short_time_grid(a) with 12
    points, in [1e-4, 1e-3] a^2."""
    return short_time_grid(a, 12)


def heat_fit(a: float) -> tuple[list[HeatTraceSample], FinitePartModel]:
    """Per-area trace samples on default_tau_grid(a) and their finite-part
    fit with divergences {2, 3/2}."""
    samples = [per_area_trace(a, float(t)) for t in default_tau_grid(a)]
    return samples, finite_part(samples, PLATE_EXPONENTS)


def casimir_per_area(a: float, n_channels: int = 1) -> float:
    """Plate energy per unit area for N scalar channels (hbar c = 1).

    The analytic continuation
    (1/(8 pi)) (Gamma(-3/2)/Gamma(-1/2)) (pi/a)^3 zeta(-3) reduces to
    -pi^2/(1440 a^3) per channel; the c0 of heat_fit(a) is the independent
    numerical route to the same constant.  ParameterError where (pi/a)^3
    overflows or the energy is not a normal float.
    """
    check_positive(a, "a")
    check_float_count(n_channels, "channel count")
    ratio = specfun.gamma(-1.5) / specfun.gamma(-0.5)
    zeta = float(specfun.zeta_negative_odd(3))
    return check_normal(
        lambda: n_channels * (1.0 / (8.0 * math.pi)) * ratio * (math.pi / a) ** 3 * zeta,
        f"plate energy at a={a!r}",
    )


def normalized_energy(n: int, a: float, n_channels: int = 1) -> float:
    """Plate energy of the normalization area A = n^2 a^2: -(n^2/a) N pi^2/1440."""
    check_count(n, "cell count n")  # casimir_per_area checks a and n_channels
    return check_normal(
        lambda: casimir_per_area(a, n_channels) * (n * a) ** 2,
        f"plate energy of the normalization area at a={a!r}",
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Closed-form calibration coefficient and the Delta(alpha) it used."""

    alpha: float
    n_channels: int
    theta_bar: float
    delta_used: float


def theta_bar(alpha: float, n_channels: int = 1) -> CalibrationResult:
    """Ratio of the normalized plate energy to the cell reference energy in
    closed form, N pi^2 / (1440 Delta(alpha)); ParameterError unless normal."""
    check_float_count(n_channels, "channel count")
    delta = boxint.delta_alpha(alpha, boxint.DeltaMethod.T_INTEGRAL)
    closed = check_normal(n_channels * math.pi**2 / (1440.0 * delta), f"theta_bar({alpha!r})")
    return CalibrationResult(alpha, n_channels, closed, delta)


def pipeline_theta_bar(cal: CalibrationResult) -> float:
    """theta_bar by the pipeline: the fitted plate energy of the unit area over
    reference_energy(1, 1, 1, cal.delta_used).  Area and Delta cancel, so its
    deviation from cal.theta_bar is heat_fit(1)'s c0 error against -pi^2/1440,
    criterion 8's number; ROADMAP item 14 moves both together."""
    fitted = check_float_count(cal.n_channels, "channel count") * heat_fit(1.0)[1].c0
    return check_normal(fitted / boxint.reference_energy(1.0, 1, 1.0, cal.delta_used),
                        f"pipeline theta_bar({cal.alpha!r})")
