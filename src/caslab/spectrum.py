"""Separable box spectra with certified truncation bounds.

Eigenvalues of the product operators on rectangular cells and torus-interval
products are sums of per-axis one-dimensional modes.  Enumeration below a
cutoff broadcasts the per-axis modes one axis-1 mode at a time; the discarded
part of heat-weighted sums is controlled by an explicit per-axis envelope so
downstream traces can report rigorous remainders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .errors import (
    ConstraintError,
    EmptySpectrumError,
    ParameterError,
    ResourceError,
    check_choice,
    check_positive,
)
from .specfun import Bc

_MERGE_RTOL = 1e-12
DEFAULT_MODE_CAP = 2_000_000


@dataclass(frozen=True)
class AxisSpec:
    """One factor interval: length and boundary condition.

    Modes: Dirichlet pi^2 r^2 / L^2 (r >= 1), Neumann pi^2 m^2 / L^2 (m >= 0),
    periodic (2 pi k / L)^2 (k in Z, multiplicity 2 for k != 0).
    """

    length: float
    bc: Bc

    def __post_init__(self):
        object.__setattr__(self, "bc", check_choice(self.bc, Bc, "boundary condition"))
        scale = 2.0 * math.pi / check_positive(self.length, "axis length")
        if not math.isfinite(scale * scale):
            raise ParameterError(
                f"axis length {self.length!r} is so short that its mode scale "
                "(2 pi / L)^2 leaves the float range"
            )

    @property
    def min_value(self) -> float:
        if self.bc is Bc.DIRICHLET:
            return (math.pi / self.length) ** 2
        return 0.0

    def modes_below(self, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
        """Ascending values <= cutoff (float64) and their multiplicities (int64);
        ResourceError, before allocating, past DEFAULT_MODE_CAP + 1 indices (one
        spare for the rounding of the square root)."""
        scale = 2.0 if self.bc is Bc.PERIODIC else 1.0
        base = (scale * math.pi / self.length) ** 2
        start = 1 if self.bc is Bc.DIRICHLET else 0
        top = math.sqrt(max(cutoff, 0.0) / base)
        if top - start > DEFAULT_MODE_CAP + 1:
            raise ResourceError(
                f"axis of length {self.length!r} has {top:.3e} modes below {cutoff!r},"
                f" cap {DEFAULT_MODE_CAP}"
            )
        n = np.arange(start, int(top) + 2)
        n = n[base * n * n <= cutoff]
        mults = np.where(n > 0, 2, 1) if self.bc is Bc.PERIODIC else np.ones_like(n)
        return base * n * n, mults

    def heat_sum(self, t: float) -> float:
        """Full heat sum over every axis mode, sum_j mult_j exp(-t value_j)."""
        return specfun.theta_eval(self.bc, self.length, t).value


@dataclass(frozen=True)
class BoxSpec:
    """Three ordered axes; at least one must be Dirichlet so the bottom of the
    spectrum stays strictly positive."""

    axes: tuple[AxisSpec, AxisSpec, AxisSpec]

    def __post_init__(self):
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) != 3:
            raise ParameterError("BoxSpec takes exactly three axes")
        if not any(ax.bc is Bc.DIRICHLET for ax in axes):
            raise ParameterError("at least one axis must be Dirichlet")

    @property
    def lambda_min(self) -> float:
        return sum(ax.min_value for ax in self.axes)

    @property
    def volume(self) -> float:
        v = 1.0
        for ax in self.axes:
            v *= ax.length
        return v

    def heat_trace(self, t: float) -> float:
        """K(t) = sum over every mode of exp(-t lambda), which separability
        factorizes into the product of the three axis heat sums."""
        return math.prod(ax.heat_sum(t) for ax in self.axes)

    def heat_coefficients(self) -> dict[str, float]:
        """The small-t law K(t) ~ c32 t^-3/2 + c1 t^-1 + c12 t^-1/2 + c0 in
        closed form, keyed by the power of t.  Each axis heat sum is
        L x + specfun.HEAT_OFFSET[bc] with x = 1 / (2 sqrt(pi t)), up to
        exponentially small terms, so their product's powers of x are exact."""
        poly = [1.0]  # ascending powers of x
        for ax in self.axes:
            b = specfun.HEAT_OFFSET[ax.bc]
            poly = [b * lo + ax.length * hi for lo, hi in zip(poly + [0.0], [0.0] + poly)]
        scales = (8.0 * math.pi**1.5, 4.0 * math.pi, 2.0 * math.sqrt(math.pi), 1.0)
        values = (c / s for c, s in zip(reversed(poly), scales))
        return dict(zip(("t^-3/2", "t^-1", "t^-1/2", "1"), values))


def mixed_cell(l1: float, l2: float, a: float) -> BoxSpec:
    """The Neumann x Neumann x Dirichlet cell: lateral sides l1, l2, width a."""
    return BoxSpec(
        (AxisSpec(l1, Bc.NEUMANN), AxisSpec(l2, Bc.NEUMANN), AxisSpec(a, Bc.DIRICHLET))
    )


def aspect_sides(a: float, alpha: float) -> tuple[float, float, float]:
    """Sides (alpha a, a / alpha, a) of the plate-compatible aspect family,
    whose cross-section l1 l2 = a^2 is fixed; the cube is alpha = 1.  Every
    aspect ratio in the package is checked here."""
    alpha = check_positive(alpha, "aspect ratio alpha")
    return alpha * a, a / alpha, a


UNIT_CUBE = BoxSpec((AxisSpec(1.0, Bc.DIRICHLET),) * 3)


@dataclass(frozen=True, eq=False)
class EigenStream:
    """Complete spectrum below a cutoff, with a heat-tail envelope.

    values: the distinct eigenvalues, ascending (float64); multiplicities: the
    number of modes at each (int64).  Both are read-only 1-D arrays of one length.
    """

    cutoff: float
    values: np.ndarray
    multiplicities: np.ndarray
    box: BoxSpec

    def __post_init__(self):
        for name, dtype in (("values", np.float64), ("multiplicities", np.int64)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.values.ndim != 1 or self.values.shape != self.multiplicities.shape:
            raise ParameterError("values and multiplicities must be 1-D, of one length")
        if not np.all(self.values[1:] > self.values[:-1]):
            raise ParameterError("values must be strictly ascending")

    @property
    def mode_count(self) -> int:
        return int(self.multiplicities.sum())

    def modes(self) -> np.ndarray:
        """Every eigenvalue repeated by its multiplicity, one entry per mode."""
        return np.repeat(self.values, self.multiplicities)

    def tail_bound(self, t: float) -> float:
        """Upper bound on sum_{lambda > cutoff} mult * lambda^{1/2} e^{-t lambda}.

        Split e^{-t lambda} = e^{-t lambda/2} e^{-t lambda/2}; the first factor
        times lambda^{1/2} is maximized explicitly over lambda > cutoff and the
        rest is dominated by the full factorized heat sum at t/2.  The result
        is nonincreasing in t.
        """
        t = check_positive(t, "tail bound t")
        half = 0.5 * t
        peak = 1.0 / t
        if self.cutoff >= peak:
            envelope = math.sqrt(self.cutoff) * math.exp(-half * self.cutoff)
        else:
            envelope = math.sqrt(peak) * math.exp(-0.5)
        return envelope * self.box.heat_trace(half)


def enumerate_modes(spec: BoxSpec, cutoff: float) -> EigenStream:
    """Complete sorted enumeration of box eigenvalues below the cutoff.

    The walk runs at the raised cutoff c (1 + 4e-12): each axis-1 mode v1
    broadcasts one slice v1 + v2 + v3, kept where v3 <= (c - v1) - v2, and the
    mode cap, checked after every slice, counts the modes of that walk.  When
    axes 1 and 2 are equal the slice of v1 runs over v2 >= v1 only, and the
    entry of v2 > v1 counts once for each order of the pair (v1 + v2 ==
    v2 + v1 exactly in IEEE arithmetic).  Each entry holds its multiplicity in
    one byte (at most 2 * 2 * 1 * 2).  After the values are sorted in place,
    each joins the group of the first value within 1e-12 relative below it, so
    degeneracies report a single multiplicity; the sort need not be stable,
    since the order of exactly equal values changes neither the group heads
    nor the integer group sums.  The stream keeps the leading groups whose
    head is at most the cutoff.  A group's members lie within 1e-12 of its
    head, so each group is kept or dropped whole, and every dropped mode lies
    above the cutoff; the walk's test can round differently for the two
    orders of a pair only within a few ulp of c, where every group is dropped.
    """
    cutoff = float(cutoff)
    if math.isnan(cutoff):
        raise ParameterError("spectral cutoff must not be nan")
    lam_min = spec.lambda_min
    if cutoff <= lam_min:
        raise EmptySpectrumError(
            f"cutoff {cutoff} admits no modes (lowest eigenvalue {lam_min})"
        )
    # cutoff * sqrt(cutoff) runs to inf where cutoff**1.5 would raise OverflowError
    weyl = spec.volume * cutoff * math.sqrt(cutoff) / (6.0 * math.pi**2)
    if weyl > 4.0 * DEFAULT_MODE_CAP:
        raise ResourceError(
            f"estimated {weyl:.3e} modes below cutoff exceeds cap {DEFAULT_MODE_CAP}"
        )
    high = cutoff * (1.0 + 4.0 * _MERGE_RTOL)
    a1, a2, a3 = spec.axes
    m1, m2, m3 = (ax.min_value for ax in spec.axes)
    # each axis mode is a box mode, so one axis over the cap puts the box over it
    v1s, k1s = a1.modes_below(high - m2 - m3)
    v2s, k2s = a2.modes_below(high - m1 - m3)
    v3s, k3s = a3.modes_below(high - m1 - m2)
    fold = a1 == a2
    rests = high - v1s
    # the slice of v1 admits the axis-2 modes v2 <= (c - v1) - m3
    spans = np.searchsorted(v2s, rests - m3, side="right")
    values, mults = [], []
    count = 0
    for i, (v1, k1, rest, span) in enumerate(
        zip(v1s.tolist(), k1s.tolist(), rests.tolist(), spans.tolist())
    ):
        lo = i if fold else 0
        if lo >= span:
            continue
        v2 = v2s[lo:span, None]
        ends = np.searchsorted(v3s, rest - v2, "right")  # the row of v2 keeps v3s[:end]
        k = np.arange(ends.max())
        keep = k < ends
        k12 = k1 * k2s[lo:span, None]
        if fold:
            k12[1:] *= 2  # v2 > v1: both orders of the pair
        values.append(((v1 + v2) + v3s[: k.size])[keep])
        mults.append((k12 * k3s[: k.size])[keep].astype(np.int8))
        count += int(mults[-1].sum())
        if count > DEFAULT_MODE_CAP:
            raise ResourceError(f"mode count exceeded cap {DEFAULT_MODE_CAP} during walk")
    if count == 0:
        raise EmptySpectrumError(f"no modes at or below cutoff {cutoff}")
    # each list is dropped once joined, before the sort allocates its index
    found = np.concatenate(values)
    values.clear()
    grouped = np.concatenate(mults)
    mults.clear()
    grouped = grouped[np.argsort(found)]
    found.sort()
    heads = _group_heads(found)
    kept = np.searchsorted(found[heads], cutoff, side="right")
    sums = np.add.reduceat(grouped, heads, dtype=np.int64)
    return EigenStream(cutoff, found[heads[:kept]], sums[:kept], spec)


def _group_heads(found: np.ndarray) -> np.ndarray:
    """Group start indices of an ascending array: walking up, each value that
    lies more than 1e-12 relative above its group's head starts a new group.

    A step more than the tolerance above its predecessor always starts a
    group, because rounded subtraction is monotone and the head is at most
    the predecessor.  Within the tolerance v - head is exact (Sterbenz), so
    whether a value lies past its head's tolerance is monotone in the value:
    when the last value of no group between those steps does, they are the
    walk's heads exactly; otherwise a chain of small steps has drifted and
    the walk itself runs over the value changes.
    """
    heads = np.concatenate(([0], np.flatnonzero(np.diff(found) > _MERGE_RTOL * found[1:]) + 1))
    lasts = found[np.append(heads[1:] - 1, found.size - 1)]
    if not np.any(lasts - found[heads] > _MERGE_RTOL * lasts):
        return heads
    walk = [0]
    head = float(found[0])
    steps = np.flatnonzero(found[1:] != found[:-1]) + 1
    for i, value in zip(steps.tolist(), found[steps].tolist()):
        if value - head > _MERGE_RTOL * value:
            walk.append(i)
            head = value
    return np.array(walk)


def lateral_gap(l1: float, l2: float) -> float:
    """First positive lateral mode scale pi^2 / max(l1, l2)^2."""
    longest = max(check_positive(l1, "l1"), check_positive(l2, "l2"))
    return (math.pi / longest) ** 2


@dataclass(frozen=True)
class SaturationResult:
    saturated: bool
    ratio: float


def saturation_check(l1: float, l2: float, a: float) -> SaturationResult:
    """Gap ratio of a constrained cell against the square cross-section.

    On the family l1 l2 = a^2 of aspect_sides(a, alpha) the ratio of
    lateral_gap(l1, l2) to pi^2/a^2 reduces to (a / max(l1, l2))^2 =
    min(alpha^2, alpha^-2); the cell is saturated exactly when that ratio is 1.
    """
    l1, l2, a = (check_positive(x, "cell side") for x in (l1, l2, a))
    target = a * a
    if abs(l1 * l2 - target) > 1e-12 * target:
        raise ConstraintError(
            f"fixed-area constraint violated: l1*l2 = {l1 * l2!r}, a^2 = {target!r}"
        )
    ratio = (a / max(l1, l2)) ** 2
    return SaturationResult(saturated=abs(ratio - 1.0) <= 1e-12, ratio=ratio)
