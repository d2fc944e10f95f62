"""Heat-regularized Gaussian source sampling and the stochastic trace identity.

A regulated real Gaussian source (units with hbar c = 1) has independent mode
components sigma_j = sqrt(1 / g) lambda_j^{3/4} e^{-tau lambda_j / 2} xi_j,
and the quadratic energy U = (g/2) sum sigma_j^2 / lambda_j collapses to
(1/2) sum lambda_j^{1/2} e^{-tau lambda_j} xi_j^2, so its expectation is the
regulated half trace.  Monte Carlo estimation draws from one counter-based
Philox stream per seed and merges its batches in a fixed order, so results
are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import check_count, check_positive
from .spectrum import EigenStream

_BATCH_ROWS = 1 << 16
_BATCH_BYTES = 64 << 20  # memory budget of one batch of draws


@dataclass(frozen=True)
class SourceSpec:
    """Spectrum, regulator, and normalization of one real scalar source."""

    stream: EigenStream
    tau: float
    g: float = 1.0

    def __post_init__(self):
        check_positive(self.tau, "regulator tau")
        check_positive(self.g, "normalization g")


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error and full provenance."""

    mean: float
    stderr: float
    n: int
    seed: int


def sample_sigma_components(spec: SourceSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw of every mode component sigma_j (float64), one entry per
    basis vector."""
    lam = spec.stream.modes()
    amp = np.sqrt(1.0 / spec.g) * lam**0.75 * np.exp(-0.5 * spec.tau * lam)
    return amp * rng.standard_normal(lam.size)


def sample_U(spec: SourceSpec, rng: np.random.Generator) -> float:
    """One draw of the quadratic energy U = (g/2) sum_j sigma_j^2 / lambda_j.

    Computed literally from the sigma components so the exact cancellation of
    g is a property of the arithmetic, not of an algebraic shortcut.  Always
    nonnegative.
    """
    lam = spec.stream.modes()
    sigma = sample_sigma_components(spec, rng)
    return float(0.5 * spec.g * np.sum(sigma**2 / lam))


def monte_carlo(
    sample: Callable[[np.random.Generator, int], np.ndarray],
    n: int,
    seed: int,
    row_bytes: int,
) -> MCEstimate:
    """Mean and standard error of n draws of sample(rng, rows) values.

    The draws come from one counter-based Philox stream keyed by the seed, in
    batches of at most 65536 rows and 64 MiB (row_bytes per row).  Each batch
    contributes its own (mean, M2), the sum of squared deviations from its
    mean, and these are merged in batch order by the pairwise update of Chan,
    Golub and LeVeque (1979), so the variance keeps its digits when the mean
    is large and the estimate is bit-identical for a fixed seed.
    """
    check_count(n, "Monte Carlo sample count", minimum=2)
    check_count(seed, "seed", minimum=0)
    batch_rows = max(1, min(_BATCH_ROWS, _BATCH_BYTES // row_bytes))
    # spawn_key (0,) is SeedSequence(seed).spawn(1)[0], the pinned estimates' stream
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(0,)))
    )
    count = 0
    mean = 0.0
    m2 = 0.0
    while count < n:
        rows = min(batch_rows, n - count)
        vals = sample(rng, rows)
        batch_mean = float(np.mean(vals))
        dev = vals - batch_mean
        delta = batch_mean - mean
        merged = count + rows
        mean += delta * (rows / merged)
        m2 += float(dev @ dev) + delta * delta * (count * rows / merged)
        count = merged
    return MCEstimate(mean=mean, stderr=math.sqrt(m2 / (n - 1) / n), n=n, seed=seed)


def mc_estimate(spec: SourceSpec, n: int, seed: int) -> MCEstimate:
    """Mean and standard error of U over n independent draws (see monte_carlo).

    U depends on the modes only through the sum of xi^2 over each group of k
    equal eigenvalues, so one variable per distinct eigenvalue is drawn from
    its exact law, chi^2_k = 2 Gamma(k/2).  A group of one draws a squared
    normal instead, which numpy samples about three times faster than
    Gamma(1/2).
    """
    lam, mult = spec.stream.values, spec.stream.multiplicities
    weight = 0.5 * np.sqrt(lam) * np.exp(-spec.tau * lam)
    # sigma_j^2/lambda_j carries (1/g) lambda^{1/2} e^{-tau lambda}; the g/2
    # prefactor restores the weight above exactly as in sample_U
    single = mult == 1
    w_single = weight[single]
    shape = mult[~single] * 0.5
    w_group = weight[~single] * 2.0

    def sample(rng: np.random.Generator, rows: int) -> np.ndarray:
        xi2 = rng.standard_normal((rows, w_single.size))
        xi2 *= xi2
        gamma = rng.standard_gamma(shape, (rows, shape.size))
        return xi2 @ w_single + gamma @ w_group

    return monte_carlo(sample, n, seed, row_bytes=8 * lam.size)
