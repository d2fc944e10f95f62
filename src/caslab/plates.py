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

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import boxint, specfun
from .errors import ParameterError, ResourceError, check_choice, check_count, check_positive
from .heattrace import (
    FinitePartModel,
    HeatTraceSample,
    finite_part,
    regulated_trace,
    short_time_grid,
)
from .spectrum import AxisSpec, Bc, BoxSpec, enumerate_modes

PLATE_EXPONENTS = (2.0, 1.5)
PIPELINE_TOLERANCE = 7.5e-3  # fit bias bound (0.5%) plus margin for Delta
_TERM_CAP = 1_000_000  # terms of the per-area series, about 1.1 s of summing


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
    cutoff = max(60.0 / tau, 4.0 * (math.pi / config.a) ** 2)
    stream = enumerate_modes(plate_box(config.L, config.a), cutoff)
    return regulated_trace(stream, tau)


def per_area_trace(a: float, tau: float) -> HeatTraceSample:
    """Large-area limit of the regulated trace per unit plate area.

    Integrating the lateral continuum modes gives
    (1/(8 pi)) tau^{-3/2} sum_{n>=1} Gamma(3/2, tau pi^2 n^2 / a^2); the sum
    is truncated once the certified exponential tail drops below 1e-16 of the
    running value.  The sum runs at least until c n^2 >= 40, c = tau pi^2 / a^2,
    so ResourceError is raised up front when that takes more than 10^6 terms,
    and ParameterError where (pi/a)^2 or tau^{-3/2} overflows.
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
    total = 0.0
    n = 1
    while True:
        total += specfun.upper_gamma_three_halves(c * n * n)
        # bound on sum_{m>n}: sqrt(y) e^{-y} (1 + 1/(2y)) summed by integral
        bound = (1.0 + 0.5 / (c * n * n)) * math.exp(-c * n * n) / (2.0 * math.sqrt(c))
        if c * n * n >= 40.0 and bound <= 1e-16 * total:
            return HeatTraceSample(tau=tau, value=pref * total, tail_bound=pref * bound)
        n += 1


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
    overflows.
    """
    check_positive(a, "a")
    check_count(n_channels, "channel count")
    ratio = specfun.gamma(-1.5) / specfun.gamma(-0.5)
    zeta = float(specfun.zeta_negative_odd(3))
    try:
        cube = (math.pi / a) ** 3
    except OverflowError:
        raise ParameterError(f"plate energy at a={a!r}: (pi/a)^3 leaves the float range") from None
    return n_channels * (1.0 / (8.0 * math.pi)) * ratio * cube * zeta


def normalized_energy(n: int, a: float, n_channels: int = 1) -> float:
    """Plate energy of the normalization area A = n^2 a^2: -(n^2/a) N pi^2/1440."""
    check_count(n, "cell count n")  # casimir_per_area checks a and n_channels
    return casimir_per_area(a, n_channels) * (n * a) ** 2


class ThetaSource(str, enum.Enum):
    CLOSED_FORM = "closed_form"
    PIPELINE = "pipeline"


@dataclass(frozen=True)
class CalibrationResult:
    """Calibration coefficient of plate energy against the cell reference."""

    alpha: float
    n_channels: int
    theta_bar: float
    delta_used: float
    closed_value: float
    pipeline_value: float | None
    tolerance: float


def theta_bar(
    alpha: float, n_channels: int = 1, source: ThetaSource = ThetaSource.CLOSED_FORM
) -> CalibrationResult:
    """Ratio of the normalized plate energy to the cell reference energy.

    Closed form: N pi^2 / (1440 Delta(alpha)).  The pipeline route divides
    the numerically fitted plate energy (n = a = 1) by
    reference_energy(1, 1, 1, Delta(alpha)); the area factors cancel, so any
    deviation from the closed form is exactly the finite-part fit error.
    acceptance.pipeline_check decides whether it stays within the declared
    tolerance.
    """
    check_count(n_channels, "channel count")
    source = check_choice(source, ThetaSource, "theta source")
    delta = boxint.delta_alpha(alpha, boxint.DeltaMethod.T_INTEGRAL)
    closed = n_channels * math.pi**2 / (1440.0 * delta)
    pipeline_value = None
    if source is ThetaSource.PIPELINE:
        fitted = n_channels * heat_fit(1.0)[1].c0  # energy of the unit area
        pipeline_value = fitted / boxint.reference_energy(1.0, 1, 1.0, delta)
    return CalibrationResult(
        alpha=alpha,
        n_channels=n_channels,
        theta_bar=closed if source is ThetaSource.CLOSED_FORM else pipeline_value,
        delta_used=delta,
        closed_value=closed,
        pipeline_value=pipeline_value,
        tolerance=PIPELINE_TOLERANCE,
    )
