"""Heat-regularized Gaussian source sampling and the stochastic trace identity.

A regulated real Gaussian source (units with hbar c = 1) has independent mode
components sigma_j = sqrt(1 / g) lambda_j^{3/4} e^{-tau lambda_j / 2} xi_j,
and the quadratic energy U = (g/2) sum sigma_j^2 / lambda_j collapses to
(1/2) sum lambda_j^{1/2} e^{-tau lambda_j} xi_j^2, so its expectation is the
regulated half trace.  Monte Carlo estimation draws from one SFC64 stream per
seed and merges its batches in a fixed order with numpy's own reductions, so
results are bit-reproducible for a fixed seed at any BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ResourceError, check_count, check_positive
from .spectrum import EigenStream

_BATCH_ROWS = 1 << 16
_BATCH_DRAWS = 1 << 23  # draws per batch; the partition fixes the stream layout
_BLOCK_BYTES = 1 << 20  # size of one block of draws within a batch, or 64 rows
_DRAW_BUDGET = 1 << 28  # draws one run may ask for; 8.7 s of chi^2 on a 2-vCPU Xeon


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
    draws_per_row: int,
) -> MCEstimate:
    """Mean and standard error of n draws of sample(rng, rows) values.

    sample returns a new float64 array of rows values, which the merge reuses
    as scratch.  The draws come from one SFC64 stream keyed by the seed, in
    batches of min(65536, 2^23 // draws_per_row) rows.  That partition fixes
    which draws of the stream land on which row, so it is part of every
    pinned estimate; the sampler bounds its memory by drawing a batch in
    blocks.  Each batch contributes its own (mean, M2), the sum of squared
    deviations from its mean, and these are merged in batch order by the
    pairwise update of Chan, Golub and LeVeque (1979), so the variance keeps
    its digits when the mean is large.  The sum of squared deviations is
    numpy's own reduction, not a BLAS dot product that splits its sum across
    threads, so the estimate is bit-identical for a fixed seed at any BLAS
    thread count.  A request for more than 2^28 draws in all raises
    ResourceError at once.
    """
    check_count(n, "Monte Carlo sample count", minimum=2)
    check_count(seed, "seed", minimum=0)
    if n * draws_per_row > _DRAW_BUDGET:
        raise ResourceError(
            f"{n} samples of {draws_per_row} draws exceed the draw budget {_DRAW_BUDGET}"
        )
    batch_rows = max(1, min(_BATCH_ROWS, _BATCH_DRAWS // draws_per_row))
    # spawn_key (0,) is SeedSequence(seed).spawn(1)[0], the pinned estimates' key
    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0,)))
    )
    count = 0
    mean = 0.0
    m2 = 0.0
    while count < n:
        rows = min(batch_rows, n - count)
        vals = sample(rng, rows)
        batch_mean = float(np.mean(vals))
        vals -= batch_mean
        delta = batch_mean - mean
        merged = count + rows
        mean += delta * (rows / merged)
        squares = float(np.einsum("i,i->", vals, vals))  # not a threaded BLAS ddot
        m2 += squares + delta * delta * (count * rows / merged)
        count = merged
    return MCEstimate(mean=mean, stderr=math.sqrt(m2 / (n - 1) / n), n=n, seed=seed)


def mc_estimate(spec: SourceSpec, n: int, seed: int) -> MCEstimate:
    """Mean and standard error of U over n independent draws (see monte_carlo).

    U depends on the modes only through the sum of xi^2 over each group of k
    equal eigenvalues, so one variable per distinct eigenvalue is drawn from
    its exact law, chi^2_k = 2 Gamma(k/2).  The values of one multiplicity k
    share one draw call with the scalar shape k/2, which numpy samples faster
    than a call with one shape per value; k = 1 draws squared normals instead,
    which numpy samples about four times faster than Gamma(1/2).
    """
    lam, mult = spec.stream.values, spec.stream.multiplicities
    weight = 0.5 * np.sqrt(lam) * np.exp(-spec.tau * lam)
    # sigma_j^2/lambda_j carries (1/g) lambda^{1/2} e^{-tau lambda}; the g/2
    # prefactor restores the weight above exactly as in sample_U.  One class
    # per multiplicity present, ascending (np.unique would import numpy.ma);
    # a gamma class carries the 2 of chi^2_k = 2 Gamma(k/2) in its weights.
    classes = [
        (k, weight[mult == k] * (1.0 if k == 1 else 2.0))
        for k in np.flatnonzero(np.bincount(mult)).tolist()
    ]

    def draw(rng: np.random.Generator, k: int, rows: int, cols: int) -> np.ndarray:
        if k > 1:
            return rng.standard_gamma(0.5 * k, (rows, cols))
        xi2 = rng.standard_normal((rows, cols))
        xi2 *= xi2
        return xi2

    def sample(rng: np.random.Generator, rows: int) -> np.ndarray:
        # one class after another in ascending k, each drawn row-major in
        # blocks of rows.  A block holds at most 1 MiB of draws or 64 rows and
        # is a multiple of 64 rows, so each row takes the same BLAS kernel
        # path as in one (rows x n_k) product, which unrolls over rows.
        vals = np.zeros(rows)
        for k, w in classes:
            step = max(64, (_BLOCK_BYTES // (8 * w.size)) & -64)
            for start in range(0, rows, step):
                stop = min(start + step, rows)
                vals[start:stop] += draw(rng, k, stop - start, w.size) @ w
        return vals

    return monte_carlo(sample, n, seed, draws_per_row=lam.size)
