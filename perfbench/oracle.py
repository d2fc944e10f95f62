"""Reference values computed apart from caslab, for the benchmark's checks.

Nothing here imports caslab.  Box spectra are counted by brute-force
broadcasting over every lattice point (each periodic index k in Z is its own
mode, with no multiplicity bookkeeping); special values come from their
closed forms written out independently, or from scipy.special.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

DIRICHLET, NEUMANN, PERIODIC = "dirichlet", "neumann", "periodic"


def axis_values(length: float, bc: str, cutoff: float) -> np.ndarray:
    """Every one-dimensional eigenvalue <= cutoff, one entry per mode."""
    if bc == PERIODIC:
        kmax = int(length * math.sqrt(cutoff) / (2.0 * math.pi)) + 1
        k = np.arange(-kmax, kmax + 1, dtype=float)
        vals = (2.0 * math.pi * k / length) ** 2
    else:
        rmax = int(length * math.sqrt(cutoff) / math.pi) + 1
        r = np.arange(1 if bc == DIRICHLET else 0, rmax + 1, dtype=float)
        vals = (math.pi * r / length) ** 2
    return vals[vals <= cutoff]


def lattice_values(axes, cutoff: float) -> np.ndarray:
    """All box eigenvalues <= cutoff for three (length, bc) axes."""
    v1, v2, v3 = (axis_values(length, bc, cutoff) for length, bc in axes)
    lam = v1[:, None, None] + v2[None, :, None] + v3[None, None, :]
    return lam[lam <= cutoff]


def lattice_count_and_trace(axes, cutoff: float, tau: float) -> tuple[int, float]:
    """Mode count and (1/2) sum sqrt(lam) exp(-tau lam) below the cutoff."""
    lam = lattice_values(axes, cutoff)
    return int(lam.size), 0.5 * math.fsum(np.sqrt(lam) * np.exp(-tau * lam))


def plate_axes(L: float, a: float):
    return ((L, PERIODIC), (L, PERIODIC), (a, DIRICHLET))


def per_area_trace(a: float, tau: float) -> float:
    """(1/(8 pi)) tau^{-3/2} sum_n Gamma(3/2, tau (pi n / a)^2), through the
    regularized incomplete gamma of scipy.special."""
    c = tau * (math.pi / a) ** 2
    n = np.arange(1, int(math.sqrt(60.0 / c)) + 2, dtype=float)
    terms = special.gammaincc(1.5, c * n * n) * special.gamma(1.5)
    return math.fsum(terms) / (8.0 * math.pi * tau**1.5)


def reduction_constant(m: int, s: float) -> float:
    """(4 pi)^{-m/2} Gamma(s - m/2) / Gamma(s) with math.gamma."""
    return (4.0 * math.pi) ** (-0.5 * m) * math.gamma(s - 0.5 * m) / math.gamma(s)


def delta_cube() -> float:
    """Mean inverse distance of two uniform points in the unit cube.

    (2/5)(1 + sqrt2 - 2 sqrt3) - 2 pi/3 + 2 asinh(1) + 4 log((1 + sqrt3)/sqrt2),
    which is 1.8823126...
    """
    r2, r3 = math.sqrt(2.0), math.sqrt(3.0)
    return (
        0.4 * (1.0 + r2 - 2.0 * r3)
        - 2.0 * math.pi / 3.0
        + 2.0 * math.asinh(1.0)
        + 4.0 * math.log((1.0 + r3) / r2)
    )


def plate_finite_part(a: float, channels: int = 1) -> float:
    """Scalar Casimir energy per unit plate area, -N pi^2 / (1440 a^3)."""
    return -channels * math.pi**2 / (1440.0 * a**3)


def theta_bar(delta: float, channels: int) -> float:
    """Calibration coefficient N pi^2 / (1440 Delta)."""
    return channels * math.pi**2 / (1440.0 * delta)


def b_coefficient(l1: float, l2: float, a: float) -> float:
    """Area coefficient (a (l1 + l2) - a^2) / (8 pi) of the N x N x D cell."""
    return (a * (l1 + l2) - a * a) / (8.0 * math.pi)


def volume_coefficient(l1: float, l2: float, a: float) -> float:
    """Weyl volume term l1 l2 a / (4 pi)^{3/2} of the heat trace."""
    return l1 * l2 * a / (4.0 * math.pi) ** 1.5


CHAIN_PRODUCT = 1.0 / (32.0 * math.pi**2)
THETA_BAR_QUOTED = 0.0072824  # theta_bar(1, 2) as quoted to seven decimals
