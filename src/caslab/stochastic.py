"""Heat-regularized Gaussian source sampling and the stochastic trace identity.

A regulated real Gaussian source (units with hbar c = 1) has independent mode
components sigma_j = sqrt(1 / g) lambda_j^{3/4} e^{-tau lambda_j / 2} xi_j,
and the quadratic energy U = (g/2) sum sigma_j^2 / lambda_j collapses to
(1/2) sum lambda_j^{1/2} e^{-tau lambda_j} xi_j^2, so its expectation is the
regulated half trace.  Monte Carlo estimation keeps only the distinct
eigenvalues a float result can see: the shortest ascending prefix past which
the rest of the spectrum holds at most 2^-53 of E[U].  Of those it draws only
the shortest prefix past which the rest holds at most 2^-53 of Var U, and adds
the rest at its exact mean, so the estimate stays unbiased and its standard
error cannot tell the difference.  It draws in batches of
at most 512 KiB, each from its own SFC64 stream keyed by the seed and the
batch index, runs them on two threads and merges them in batch order with
numpy's own reductions, so results are bit-identical for a fixed seed however
the batches are scheduled and at any BLAS thread count.  The same loop fits
control variates: a sampler may return rows of exact-mean-zero controls
beside its quantity, as the pair Monte Carlo of boxint does.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ResourceError, check_count, check_normal, check_positive
from .spectrum import EigenStream

_BATCH_DRAWS = 1 << 16  # draws per batch, 512 KiB; the partition fixes the streams
# draws one run may ask for, samples times drawn values; about 4.5 s of chi^2
# on a 2-vCPU Xeon, with 25 or 147 drawn values alike
_DRAW_BUDGET = 1 << 28
_PIVOT_RTOL = 1e-10  # smallest Cholesky pivot of a kept control, unit diagonal
# largest z-score of a kept control's sample mean against its exact mean 0,
# whitened against the controls kept before it; a normal one passes but for 2e-9
_CONTROL_Z_MAX = 6.0


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


def _batch(
    sample: Callable[[np.random.Generator, int], np.ndarray],
    seed: int,
    index: int,
    rows: int,
) -> tuple[int, np.ndarray, np.ndarray]:
    """(rows, mean vector, co-moment matrix) of batch index, drawn from its own
    SFC64 stream."""
    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0, index)))
    )
    vals = np.atleast_2d(sample(rng, rows))
    mean = np.mean(vals, axis=1)
    vals -= mean[:, None]
    return rows, mean, np.einsum("ik,jk->ij", vals, vals)  # not a threaded BLAS product


def _control_fit(n: int, mean: np.ndarray, m2: np.ndarray) -> tuple[float, float]:
    """Mean of row 0 corrected by the controls in rows 1.., and its standard
    error, from the mean vector and co-moment matrix of n samples.

    Each control has exact mean 0, so the estimate is mean_0 - beta . mean_g,
    where beta solves C_gg beta = C_gf on the same samples (Lavenberg and
    Welch 1981; Glasserman 2003, section 4.1), and its standard error is
    sqrt(s2 / n) with s2 = (M_ff - M_fg beta) / (n - 1 - q) over the q
    controls kept.  C_gg is equilibrated to unit diagonal and factored by a
    Cholesky sweep in row order, in Python floats; a control whose pivot is
    1e-10 or less (collinear with those before it, constant or not finite)
    is dropped with beta = 0, and so is one past the n - 2 that leave the
    residual a degree of freedom.  So is one whose sample mean, whitened
    against the controls kept before it (L z = the z-scores of the control
    means), lies more than 6 standard errors from 0: the fit shifts mean_0 by
    at most |z| plain standard errors, and a control so far from its exact
    mean has too few nonzero values for its sample moments to hold, or is
    constant but for the rounding of its batch means; fitted, such a row
    moved the pair Monte Carlo by up to 1e18 standard errors.  With no
    controls this is the plain mean and sqrt(M_ff / (n - 1) / n).
    """
    c = m2.tolist()
    scale = [1.0 / math.sqrt(v) if v > 0.0 else 0.0 for v in m2.diagonal().tolist()]
    kept: list[int] = []
    chol: list[list[float]] = []  # the rows of L, over the kept controls
    y: list[float] = []  # L y = the equilibrated C_gf
    z: list[float] = []  # L z = the z-scores of the control means
    root_nn = math.sqrt(n * (n - 1.0))
    for j in range(1, len(c)):
        if len(kept) == n - 2:
            break
        row: list[float] = []
        for i, k in enumerate(kept):
            dot = sum(row[m] * chol[i][m] for m in range(i))
            row.append((c[j][k] * scale[j] * scale[k] - dot) / chol[i][i])
        pivot = c[j][j] * scale[j] * scale[j] - sum(v * v for v in row)
        if not pivot > _PIVOT_RTOL:
            continue
        row.append(math.sqrt(pivot))
        zj = float(mean[j]) * scale[j] * root_nn - sum(v * w for v, w in zip(row, z))
        zj /= row[-1]
        if not abs(zj) <= _CONTROL_Z_MAX:
            continue
        z.append(zj)
        y.append((c[j][0] * scale[j] - sum(v * w for v, w in zip(row, y))) / row[-1])
        chol.append(row)
        kept.append(j)
    gamma = [0.0] * len(kept)  # L^T gamma = y; beta is gamma scaled back
    for i in reversed(range(len(kept))):
        dot = sum(chol[m][i] * gamma[m] for m in range(i + 1, len(kept)))
        gamma[i] = (y[i] - dot) / chol[i][i]
    beta = [(scale[k] * g, k) for g, k in zip(gamma, kept)]
    mean0 = float(mean[0]) - sum(b * float(mean[k]) for b, k in beta)
    residual = c[0][0] - sum(b * c[k][0] for b, k in beta)
    return mean0, math.sqrt(max(residual, 0.0) / (n - 1 - len(kept)) / n)


def monte_carlo(
    sample: Callable[[np.random.Generator, int], np.ndarray],
    n: int,
    seed: int,
    draws_per_row: int,
) -> MCEstimate:
    """Mean and standard error of n draws of sample(rng, rows) values.

    sample returns a new float64 array of rows values, or a (p, rows) array
    whose row 0 is the quantity estimated and whose rows 1.. are controls of
    exact mean 0; the merge reuses it as scratch.  draws_per_row counts the
    values one row holds in either.  The draws come in batches of max(1,
    2^16 // draws_per_row) rows, so a batch holds at most 512 KiB of values
    (or one row), and batch b draws from its own SFC64 stream keyed by
    SeedSequence(seed, spawn_key=(0, b)).  A helper thread runs the odd
    batches while the caller runs the even ones; the helper starts in a copy
    of the caller's context, so numpy's errstate is the same in both.  Each
    batch contributes its own mean vector and co-moment matrix, the sums of
    products of deviations from its mean, and these are merged in batch order
    by the matrix form of the pairwise update of Chan, Golub and LeVeque
    (1979), so the variance keeps its digits when the mean is large; the
    controls then correct the mean (_control_fit).  Every batch's draws
    depend only on its key and its sums are numpy's own reductions and
    einsum, not a BLAS product that splits its sums across threads, so the
    estimate is bit-identical for a fixed seed whichever thread runs a batch
    and at any BLAS thread count.  An exception raised in a batch is
    re-raised once both threads are done.  A request for more than 2^28
    values in all raises ResourceError before any batch starts.
    """
    check_count(n, "Monte Carlo sample count", minimum=2)
    check_count(seed, "seed", minimum=0)
    check_count(draws_per_row, "draws per row")
    if n * draws_per_row > _DRAW_BUDGET:
        raise ResourceError(
            f"{n} samples of {draws_per_row} draws exceed the draw budget {_DRAW_BUDGET}"
        )
    batch_rows = max(1, _BATCH_DRAWS // draws_per_row)
    sizes = [min(batch_rows, n - start) for start in range(0, n, batch_rows)]
    results = [None] * len(sizes)
    failed: list[BaseException] = []

    def run(first: int) -> None:
        # a failure in either thread stops both before their next batch
        try:
            for index in range(first, len(sizes), 2):
                if failed:
                    return
                results[index] = _batch(sample, seed, index, sizes[index])
        except BaseException as exc:  # re-raised by the caller after the join
            failed.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(run, 1))
    helper.start()
    run(0)
    helper.join()
    if failed:
        raise failed[0]
    count, mean, m2 = 0, 0.0, 0.0
    for rows, batch_mean, squares in results:
        delta = batch_mean - mean
        merged = count + rows
        mean += delta * (rows / merged)
        m2 += squares + np.multiply.outer(delta, delta) * (count * rows / merged)
        count = merged
    mean, stderr = _control_fit(n, mean, m2)
    return MCEstimate(mean=mean, stderr=stderr, n=n, seed=seed)


def mc_estimate(spec: SourceSpec, n: int, seed: int) -> MCEstimate:
    """Mean and standard error of U over n independent draws (see monte_carlo).

    U depends on the modes only through the sum of xi^2 over each group of k
    equal eigenvalues, so one variable per distinct eigenvalue is drawn from
    its exact law, chi^2_k = 2 Gamma(k/2).  Only the values a float result
    can see are kept.  Each distinct value contributes k w to E[U] and
    2 k w^2 to Var U, with w = lambda^{1/2} e^{-tau lambda} / 2; the suffix
    sums of k w over the ascending values are formed from the top, so the
    small terms add first, and the estimate keeps the shortest prefix whose
    dropped suffix holds at most 2^-53 E[U].  Within it the suffix sums of
    2 k w^2 set the shortest prefix whose dropped suffix holds at most 2^-53
    of the kept values' Var U; only that prefix is drawn.  The kept values
    past it enter at their exact mean, k w each since E[chi^2_k] = k, summed
    small terms first and added to the Monte Carlo mean: a control variate
    with a known coefficient (Glasserman 2003, section 4.1).  The estimate
    stays unbiased, and its variance moves by at most 2^-53 of Var U; w^2
    decays twice as fast as w, so on the unit cube at tau = 0.05 and cutoff
    1200 this draws 25 of the 55 kept values.  The estimate does not depend
    on the cutoff once the cutoff lies past the kept prefix, and the draw
    budget and the batch size count drawn values only.  E[U] and Var U must
    be normal floats: where the weights or their squares underflow,
    ParameterError is raised, not 0 +- 0 or a standard error of 0 returned.
    The values of one multiplicity k share one draw call with the scalar
    shape k/2, which numpy samples faster than a call with one shape per
    value; k = 1 draws squared normals instead, which numpy samples about
    four times faster than Gamma(1/2).
    """
    lam, mult = spec.stream.values, spec.stream.multiplicities
    weight = 0.5 * np.sqrt(lam) * np.exp(-spec.tau * lam)
    means = mult * weight
    # shares[m] holds the top m + 1 values' share of E[U], the small terms
    # added first; keep the shortest prefix whose dropped share is <= 2^-53 E[U]
    shares = np.cumsum(means[::-1])
    total = check_normal(float(shares[-1]), f"E[U] at tau={spec.tau!r}")
    kept = lam.size - int(np.searchsorted(shares, math.ldexp(total, -53), "right"))
    # spread[m] holds the top m + 1 kept values' share of Var U = sum 2 k w^2;
    # draw the shortest prefix whose dropped share is <= 2^-53 Var U, and add
    # the kept values past it at their exact mean k w, the small terms first
    spread = 2.0 * np.cumsum((means * weight)[:kept][::-1])
    total = check_normal(float(spread[-1]), f"Var U at tau={spec.tau!r}")
    drawn = kept - int(np.searchsorted(spread, math.ldexp(total, -53), "right"))
    exact = float(np.cumsum(means[drawn:kept][::-1])[-1]) if drawn < kept else 0.0
    mult, weight = mult[:drawn], weight[:drawn]
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
        # one (rows x n_k) product per class, in ascending k; a batch bounds
        # each class's draws to 512 KiB
        vals = np.zeros(rows)
        for k, w in classes:
            d = draw(rng, k, rows, w.size)
            # a one-value class is a product, bit-identical to the one-column
            # matmul and about 15 times faster
            vals += d[:, 0] * w[0] if w.size == 1 else d @ w
        return vals

    est = monte_carlo(sample, n, seed, draws_per_row=drawn)
    return replace(est, mean=est.mean + exact)
