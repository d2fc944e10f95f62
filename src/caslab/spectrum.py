"""Separable box spectra with certified truncation bounds.

Eigenvalues of the product operators on rectangular cells and torus-interval
products are sums of per-axis one-dimensional modes.  Enumeration below a
cutoff is one vectorized pass that counts modes against the cap per pair of
axis-1 and axis-2 modes, then sorts every entry once on an int64 key packing
its value's bits above its multiplicity (exact: the values are positive and
span fewer than 44 binades); the discarded part of heat-weighted sums is
controlled by an explicit per-axis envelope so downstream traces can report
rigorous remainders.  Requests are refused only from exact counts: per
axis the index count, then the pair count, then the mode count, each before
the allocation it protects; the worst refusal takes 0.12-0.15 s and 112 MiB
(2-vCPU VM), most of it the three axes, each built whole at 9 bytes per
index: a float64 value and a one-byte multiplicity.
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
    check_normal,
    check_normal_at,
    check_positive,
)
from .specfun import Bc

_MERGE_RTOL = 1e-12
_BLOCK = 1 << 15  # entries per step of the expansion and of the group-head test
DEFAULT_MODE_CAP = 2_000_000


def _check_cutoff(cutoff: float) -> float:
    """A spectral cutoff as a float; ParameterError if it is nan."""
    cutoff = float(cutoff)
    if math.isnan(cutoff):
        raise ParameterError("spectral cutoff must not be nan")
    return cutoff


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
        """Ascending values <= cutoff (float64) and their multiplicities (int8);
        ResourceError, before allocating, past DEFAULT_MODE_CAP + 1 indices (one
        spare for the rounding of the square root), and ParameterError on a nan
        cutoff.  A mode scale that underflows to 0, on an axis longer than about
        1e170, has inf indices."""
        cutoff = _check_cutoff(cutoff)
        scale = 2.0 if self.bc is Bc.PERIODIC else 1.0
        base = (scale * math.pi / self.length) ** 2
        start = 1 if self.bc is Bc.DIRICHLET else 0
        top = math.sqrt(max(cutoff, 0.0) / base) if base else math.inf
        if top - start > DEFAULT_MODE_CAP + 1:
            raise ResourceError(
                f"axis of length {self.length!r} has {top:.3e} modes below {cutoff!r},"
                f" cap {DEFAULT_MODE_CAP}"
            )
        n = np.arange(start, int(top) + 2, dtype=np.float64)
        values = base * n
        values *= n
        values = values[: np.searchsorted(values, cutoff, side="right")]
        mults = np.full(values.size, 2 if self.bc is Bc.PERIODIC else 1, np.int8)
        mults[:1] = 1  # k = 0 of a periodic axis; every other axis has 1 throughout
        return values, mults


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

    def heat_trace(self, t):
        """K(t) = sum over every mode of exp(-t lambda), which separability
        factorizes into the product of the three axis heat sums: a float for a
        scalar t, an array of its shape for an array of t, the axes and nodes
        summed in one specfun.theta_eval call.  A t so small that K overflows,
        or so large that it underflows, raises ParameterError naming the first
        such t."""
        bcs, lengths = zip(*((ax.bc, ax.length) for ax in self.axes))
        sums = specfun.theta_eval(bcs, lengths, t).value
        with np.errstate(over="ignore"):  # an overflow is an inf, which the check refuses
            value = sums[0] * sums[1] * sums[2]
        nodes = np.ravel(t)
        check_normal_at(value, lambda i: f"box heat trace at t={float(nodes[i])!r}")
        return float(value) if np.ndim(t) == 0 else value

    def heat_coefficients(self) -> dict[str, float]:
        """The small-t law K(t) ~ c32 t^-3/2 + c1 t^-1 + c12 t^-1/2 + c0 in
        closed form, keyed by the power of t.  Each axis heat sum is
        L x + specfun.HEAT_OFFSET[bc] with x = 1 / (2 sqrt(pi t)), up to
        exponentially small terms, so their product's powers of x are exact.
        ParameterError is raised when the volume term is not a normal float or
        another term is not finite; the others may be exactly 0."""
        poly = [1.0]  # ascending powers of x
        for ax in self.axes:
            b = specfun.HEAT_OFFSET[ax.bc]
            poly = [b * lo + ax.length * hi for lo, hi in zip(poly + [0.0], [0.0] + poly)]
        scales = (8.0 * math.pi**1.5, 4.0 * math.pi, 2.0 * math.sqrt(math.pi), 1.0)
        values = [c / s for c, s in zip(reversed(poly), scales)]
        sides = tuple(ax.length for ax in self.axes)
        check_normal(values[0], f"volume term of the box {sides}")
        if not all(map(math.isfinite, values)):
            raise ParameterError(f"heat coefficients of the box {sides} overflow: {values}")
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
    a = check_positive(a, "width a")
    what = f"aspect side at a={a!r}, alpha={alpha!r}"
    return check_normal(alpha * a, what), check_normal(a / alpha, what), a


UNIT_CUBE = BoxSpec((AxisSpec(1.0, Bc.DIRICHLET),) * 3)


@dataclass(frozen=True, eq=False)
class EigenStream:
    """Complete spectrum below a cutoff, with a heat-tail envelope.

    values: the distinct eigenvalues, ascending (float64); multiplicities: the
    number of modes at each (int64), at least 1.  Both are read-only 1-D
    arrays of one nonzero length.
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
        if not self.values.size or self.multiplicities.min() < 1:
            raise ParameterError("a spectrum needs a value, and multiplicities >= 1")
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

    One vectorized pass at the raised cutoff c (1 + 4e-12) lists the pairs
    (v1, v2) with v2 <= (c - v1) - m3 and gives each, by one searchsorted,
    the axis-3 modes v3 <= (c - v1) - v2; a prefix sum of their
    multiplicities counts the modes.  ResourceError is raised only from
    exact counts at c, each before the allocation it protects: an axis's
    index count (modes_below), the pair count (each pair holds a mode), and
    the mode count before any per-entry array exists.  A refusal is not
    O(1): the unit cube at (pi 1.99e6)^2, each axis just under the cap,
    takes 0.12-0.15 s and 112 MiB to refuse (tracemalloc peak, 2-vCPU VM),
    and 15 ms and 18 MiB at 1e12; each axis holds 9 bytes per index, a
    float64 value and an int8 multiplicity.

    Equal axes 1 and 2 list only v2 >= v1 and count v2 > v1
    once per order (v1 + v2 == v2 + v1 exactly in IEEE arithmetic).  The
    pairs hold 13 bytes each: int32 axis indices, an int32 axis-3 count and
    an int8 multiplicity.  The entries (v1 + v2) + v3 are expanded whole
    pairs at a time, about 2^15 entries a step, into one float64 value and
    one int8 multiplicity each (9 bytes), and sorted once, in place, as
    int64 keys (bits of the value - bits of the smallest) << 4 |
    multiplicity (at most 2 * 2 * 1 * 2).  The keys order as the values:
    the values are positive (a Dirichlet axis is required), so they order as
    their bit patterns, and the cap of the Dirichlet axis in modes_below
    keeps c / lambda_min below (cap + 2)^2 < 2^42, so they span at most 43
    binades, less than 43 * 2^52 < 2^58 apart in bits.  Each sorted value
    joins the group of the first value within 1e-12 relative below it, so
    degeneracies report a single multiplicity; the order of exactly equal
    values changes neither the group heads nor the integer group sums.  The
    stream keeps the leading groups whose head is at most the cutoff.  A
    group's members lie within 1e-12 of its head, so each group is kept or
    dropped whole, and every dropped mode lies above the cutoff; the pass's
    test can round differently for the two orders of a pair only within a
    few ulp of c, where every group is dropped.  Beyond these, the pair stage
    holds 16 bytes of temporaries per pair and the grouping its group heads
    and an int32 copy to sum (a group's sum is at most the capped mode count),
    so the pass peaks near 14 bytes per entry, or 30 where each pair holds one.
    """
    cutoff = _check_cutoff(cutoff)
    lam_min = spec.lambda_min
    if cutoff <= lam_min:
        raise EmptySpectrumError(
            f"cutoff {cutoff} admits no modes (lowest eigenvalue {lam_min})"
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
    # v1s[i] pairs with each v2s[j] <= (c - v1) - m3, and only j >= i when folded
    lo = np.arange(v1s.size) if fold else 0
    widths = np.maximum(np.searchsorted(v2s, rests - m3, side="right") - lo, 0)
    # each listed pair holds at least one mode, its lowest axis-3 mode
    if int(widths.sum()) > DEFAULT_MODE_CAP:
        raise ResourceError(f"mode count exceeded cap {DEFAULT_MODE_CAP} during walk")
    i = np.repeat(np.arange(v1s.size, dtype=np.int32), widths)
    j = np.arange(i.size, dtype=np.int32)
    j -= np.repeat((np.cumsum(widths) - widths - lo).astype(np.int32), widths)
    room = rests[i]
    room -= v2s[j]
    ends = np.searchsorted(v3s, room, "right")  # the pair keeps v3s[:end]
    del room
    ends = ends.astype(np.int32)
    k12 = k1s[i]
    k12 *= k2s[j]
    if fold:
        k12[j > i] *= 2  # v2 > v1: both orders of the pair
    count = int(np.dot(k12, np.concatenate(([0], np.cumsum(k3s)))[ends]))
    if count > DEFAULT_MODE_CAP:
        raise ResourceError(f"mode count exceeded cap {DEFAULT_MODE_CAP} during walk")
    # expand whole pairs about 2^15 entries at a time, so that only found and
    # grouped hold one item per entry; firsts[p] is pair p's first entry
    firsts = np.zeros(ends.size + 1, np.int32)
    np.cumsum(ends, out=firsts[1:])
    cuts = np.append(np.searchsorted(firsts, np.arange(0, firsts[-1], _BLOCK)), ends.size)
    spans = firsts[cuts].tolist()
    del firsts
    found = np.empty(spans[-1])
    grouped = np.empty(spans[-1], np.int8)
    for p0, p1, e0, e1 in zip(cuts.tolist(), cuts[1:].tolist(), spans, spans[1:]):
        n = ends[p0:p1]
        k = np.arange(e1 - e0)
        k -= np.repeat(np.cumsum(n) - n, n)  # each entry's index in v3s
        np.add(np.repeat(v1s[i[p0:p1]] + v2s[j[p0:p1]], n), v3s[k], out=found[e0:e1])
        np.multiply(np.repeat(k12[p0:p1], n), k3s[k], out=grouped[e0:e1])
    del i, j, ends, k12, n, k
    key = found.view(np.int64)
    low = key.min()
    key -= low
    key <<= 4
    key |= grouped
    key.sort()
    np.bitwise_and(key, 15, out=grouped)
    key >>= 4
    key += low  # found holds the sorted values
    heads = _group_heads(found)
    kept = np.searchsorted(found[heads], cutoff, side="right")
    sums = np.add.reduceat(grouped, heads, dtype=np.int32)[:kept].astype(np.int64)
    values = found[heads[:kept]]
    del found, grouped, heads
    return EigenStream(cutoff, values, sums, spec)


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
    parts = [np.zeros(1, np.intp)]
    head = 0  # the open group's head
    drifted = False
    for start in range(1, found.size, _BLOCK):  # no temporary the size of found
        block = found[start : start + _BLOCK]
        rise = block - found[start - 1 : start - 1 + block.size]
        new = np.flatnonzero(rise > _MERGE_RTOL * block) + start
        if new.size:  # the groups that close here end just before each new head
            lasts = found[new - 1]
            opened = found[np.append(head, new[:-1])]
            drifted |= bool(np.any(lasts - opened > _MERGE_RTOL * lasts))
            head = new[-1]
        parts.append(new)
    heads = np.concatenate(parts)
    if not (drifted or found[-1] - found[head] > _MERGE_RTOL * found[-1]):
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
    """First positive lateral mode scale pi^2 / max(l1, l2)^2; ParameterError
    where it leaves the normal float range."""
    longest = max(check_positive(l1, "l1"), check_positive(l2, "l2"))
    return check_normal(lambda: (math.pi / longest) ** 2, f"lateral gap of ({l1!r}, {l2!r})")


@dataclass(frozen=True)
class SaturationResult:
    saturated: bool
    ratio: float


def saturation_check(l1: float, l2: float, a: float) -> SaturationResult:
    """Gap ratio of a constrained cell against the square cross-section.

    On the family l1 l2 = a^2 of aspect_sides(a, alpha) the ratio of
    lateral_gap(l1, l2) to pi^2/a^2 reduces to (a / max(l1, l2))^2 =
    min(alpha^2, alpha^-2); the cell is saturated exactly when that ratio is 1.
    A ratio that underflows raises ParameterError.
    """
    l1, l2, a = (check_positive(x, "cell side") for x in (l1, l2, a))
    area = (l1 / a) * (l2 / a)  # l1 l2 / a^2, finite near the family; nan is refused
    if not abs(area - 1.0) <= 1e-12:
        raise ConstraintError(f"fixed-area constraint violated: l1*l2/a^2 = {area!r}")
    ratio = check_normal((a / max(l1, l2)) ** 2, f"gap ratio of ({l1!r}, {l2!r}, {a!r})")
    return SaturationResult(saturated=abs(ratio - 1.0) <= 1e-12, ratio=ratio)
