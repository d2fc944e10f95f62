"""Box spectra: enumeration against brute force, Weyl count, tail bounds."""

import collections
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from caslab import harness, plates, specfun, spectrum
from caslab.errors import (
    ConstraintError,
    EmptySpectrumError,
    ParameterError,
    ResourceError,
)


def axis_modes_brute(ax, cutoff):
    out = []
    if ax.bc is spectrum.Bc.PERIODIC:
        base = (2.0 * math.pi / ax.length) ** 2
        out.append((0.0, 1))
        for k in range(1, 10_000):
            v = base * k * k
            if v > cutoff:
                break
            out.append((v, 2))
    else:
        base = (math.pi / ax.length) ** 2
        start = 0 if ax.bc is spectrum.Bc.NEUMANN else 1
        for n in range(start, 10_000):
            v = base * n * n
            if v > cutoff:
                break
            out.append((v, 1))
    return out


def brute_enumerate(box, cutoff):
    """Every lattice value up to the widened cutoff (1 + 1e-9) merged onto its
    group's head, then the groups whose head is at most the cutoff: a cutoff
    on an eigenvalue keeps its group whole, however its members round."""
    wide = cutoff * (1.0 + 1e-9)
    found = []
    for v1, k1 in axis_modes_brute(box.axes[0], wide):
        for v2, k2 in axis_modes_brute(box.axes[1], wide):
            if v1 + v2 > wide:
                break
            for v3, k3 in axis_modes_brute(box.axes[2], wide):
                if v1 + v2 + v3 > wide:
                    break
                found.append((v1 + v2 + v3, k1 * k2 * k3))
    found.sort()
    merged = [list(found[0])]
    for v, k in found[1:]:
        if v - merged[-1][0] <= 1e-12 * v:
            merged[-1][1] += k
        else:
            merged.append([v, k])
    return [(v, k) for v, k in merged if v <= cutoff]


D = spectrum.Bc.DIRICHLET
N = spectrum.Bc.NEUMANN
P = spectrum.Bc.PERIODIC


@pytest.mark.parametrize(
    "axes,cutoff",
    [
        (((1.0, D), (1.0, D), (1.0, D)), 200.0),
        (((1.3, N), (0.7, N), (1.1, D)), 60.0),
        (((2.0, P), (1.1, N), (0.9, D)), 80.0),
        (((0.5, D), (2.5, P), (1.0, D)), 120.0),
        # one group of this plate holds 128 modes, past the int8 range of an entry
        (((2.0, P), (2.0, P), (1.0, D)), 3000.0),
        (((1.2, N), (1.2, N), (0.8, D)), 90.0),
    ],
)
def test_enumeration_matches_brute_force(axes, cutoff):
    box = spectrum.BoxSpec(tuple(spectrum.AxisSpec(l, bc) for l, bc in axes))
    stream = spectrum.enumerate_modes(box, cutoff)
    want = brute_enumerate(box, cutoff)
    assert len(stream.values) == len(want)
    got = zip(stream.values.tolist(), stream.multiplicities.tolist())
    for (gv, gk), (wv, wk) in zip(got, want):
        assert gv == pytest.approx(wv, rel=1e-12)
        assert gk == wk


def enumerate_by_slices(spec, cutoff):
    """enumerate_modes as it was before axes 1 and 2 folded and multiplicities
    took one byte: every axis-1 slice in full, int64 multiplicities, a gathered
    sort, and the walk rule for the group heads."""
    cutoff = float(cutoff)
    if math.isnan(cutoff):
        raise ParameterError("spectral cutoff must not be nan")
    lam_min = spec.lambda_min
    if cutoff <= lam_min:
        raise EmptySpectrumError(
            f"cutoff {cutoff} admits no modes (lowest eigenvalue {lam_min})"
        )
    max_modes = spectrum.DEFAULT_MODE_CAP
    a1, a2, a3 = spec.axes
    m1, m2, m3 = (ax.min_value for ax in spec.axes)
    v1s, k1s = a1.modes_below(cutoff - m2 - m3)
    v2s, k2s = a2.modes_below(cutoff - m1 - m3)
    v3s, k3s = a3.modes_below(cutoff - m1 - m2)
    values, mults = [], []
    count = 0
    for v1, k1 in zip(v1s.tolist(), k1s.tolist()):
        rest = cutoff - v1
        n2 = np.searchsorted(v2s, rest - m3, side="right")
        v2 = v2s[:n2, None]
        keep = v3s <= rest - v2
        values.append((v1 + v2 + v3s)[keep])
        mults.append((k1 * k2s[:n2, None].astype(np.int64) * k3s)[keep])
        count += int(mults[-1].sum())
        if count > max_modes:
            raise ResourceError(f"mode count exceeded cap {max_modes} during walk")
    if count == 0:
        raise EmptySpectrumError(f"no modes at or below cutoff {cutoff}")
    found = np.concatenate(values)
    order = np.argsort(found)
    found, grouped = found[order], np.concatenate(mults)[order]
    heads = _walk_heads(found.tolist())
    return found[heads], np.add.reduceat(grouped, heads)


def _oracle_case(rng):
    """A box, a cutoff and a mode cap.  About half the boxes repeat axis 1 as
    axis 2 (plates, cubes, square N x N x D cells and random pairs), a sixth
    repeat another pair; a fifth of the cutoffs is an eigenvalue itself, where
    the slice walk's (cutoff - v1) - v2 and (cutoff - v2) - v1 can round
    apart, and a sixth of the runs take a small cap."""
    def side():
        return float(10.0 ** rng.uniform(-0.5, 0.5))

    kind = rng.integers(6)
    if kind == 0:
        axes = [(side(), P)] * 2 + [(side(), D)]
    elif kind == 1:
        axes = [(side(), D)] * 3
    elif kind == 2:
        axes = [(side(), N)] * 2 + [(side(), D)]
    else:
        axes = [(side(), (D, N, P)[rng.integers(3)]) for _ in range(3)]
        if kind == 3:
            axes[1] = axes[0]
        elif kind == 4:
            pair = ((1, 2), (0, 2))[rng.integers(2)]
            axes[pair[1]] = axes[pair[0]]
        if all(b is not D for _, b in axes):
            axes[rng.integers(3)] = (axes[0][0], D)
    box = spectrum.BoxSpec(tuple(spectrum.AxisSpec(l, b) for l, b in axes))
    # a Weyl count of 1 to 3000 modes
    cutoff = (6.0 * math.pi**2 * 10.0 ** rng.uniform(0.0, 3.5) / box.volume) ** (2 / 3)
    if rng.random() < 0.2 and cutoff > box.lambda_min:
        values, _ = enumerate_by_slices(box, cutoff)
        cutoff = float(values[rng.integers(values.size)])
    cap = int(rng.integers(20, 2000)) if rng.random() < 1 / 6 else spectrum.DEFAULT_MODE_CAP
    return box, cutoff, cap


def test_enumeration_matches_the_slice_walk(monkeypatch):
    # byte-identical values and multiplicities, or the same error, wherever
    # no eigenvalue lies within 2e-12 of the cutoff.  On an eigenvalue the
    # slice walk's per-order test may split its group or drop it, so there
    # the stream must hold exactly the whole groups of brute_enumerate.
    rng = np.random.default_rng(20)
    outcomes = set()
    for _ in range(400):
        monkeypatch.undo()  # _oracle_case enumerates at the default cap
        box, cutoff, cap = _oracle_case(rng)
        monkeypatch.setattr(spectrum, "DEFAULT_MODE_CAP", cap)
        if cutoff > box.lambda_min:
            want = brute_enumerate(box, cutoff * (1.0 + 2e-12))
            if abs(want[-1][0] - cutoff) <= 2e-12 * cutoff:
                stream = spectrum.enumerate_modes(box, cutoff)
                got = zip(stream.values.tolist(), stream.multiplicities.tolist())
                assert list(got) == [g for g in want if g[0] <= cutoff], (box, cutoff)
                outcomes.add("on an eigenvalue")
                continue
        try:
            want = enumerate_by_slices(box, cutoff)
        except (ResourceError, EmptySpectrumError) as err:
            with pytest.raises(type(err)) as got:
                spectrum.enumerate_modes(box, cutoff)
            assert str(got.value) == str(err)
            outcomes.add(type(err))
            continue
        stream = spectrum.enumerate_modes(box, cutoff)
        assert stream.values.tobytes() == want[0].tobytes(), (box, cutoff)
        assert stream.multiplicities.tolist() == want[1].tolist(), (box, cutoff)
        outcomes.add(box.axes[0] == box.axes[1])
    assert outcomes == {True, False, ResourceError, EmptySpectrumError, "on an eigenvalue"}


@pytest.mark.parametrize(
    ("box", "cutoff"),
    [
        (plates.plate_box(6.0, 1.0), 12000.0),
        (spectrum.mixed_cell(1.5, 1.0 / 1.5, 1.0), 5e4),
        (spectrum.UNIT_CUBE, 2e4),
    ],
    ids=["plate", "mixed_cell", "cube"],
)
def test_enumeration_matches_the_slice_walk_at_scale(box, cutoff):
    # 2e4 to 2e5 entries, the size of the spectral benchmark, where the int32
    # pair indices, the chunked expansion and the packed sort key carry the most: the plate folds
    # its equal axes and its entries carry periodic multiplicities up to 8,
    # the mixed cell (191,129 modes of multiplicity 1) does not fold
    want = enumerate_by_slices(box, cutoff)
    stream = spectrum.enumerate_modes(box, cutoff)
    assert stream.values.tobytes() == want[0].tobytes()
    assert stream.multiplicities.tolist() == want[1].tolist()


def test_enumeration_across_many_binades():
    # N(1e-3) x N(1e-3) x D(1e4) at cutoff 1 is the Dirichlet tower
    # n^2 pi^2 / L^2, n = 1 ... 3183, from 9.9e-8 to 1: its sort keys span
    # more than 23 binades of value bits
    box = spectrum.BoxSpec(
        (spectrum.AxisSpec(1e-3, N), spectrum.AxisSpec(1e-3, N), spectrum.AxisSpec(1e4, D))
    )
    stream = spectrum.enumerate_modes(box, 1.0)
    n = np.arange(1, 3184)
    np.testing.assert_allclose(stream.values, (math.pi * n / 1e4) ** 2, rtol=1e-14, atol=0)
    assert stream.multiplicities.tolist() == [1] * n.size
    assert math.log2(stream.values[-1] / stream.values[0]) > 23
    want = brute_enumerate(box, 1.0)
    assert stream.values.tolist() == pytest.approx([v for v, _ in want], rel=1e-12)
    assert stream.multiplicities.tolist() == [k for _, k in want]


def _cube_cutoff(n1, n2, n3, form):
    """The eigenvalue (n1^2 + n2^2 + n3^2) pi^2 of the unit Dirichlet cube as
    the float sum of its axis modes: each formed as modes_below forms it, or
    as n^2 pi^2."""
    if form == "axis":
        v = [(math.pi / 1.0) ** 2 * n * n for n in (n1, n2, n3)]
    else:
        v = [n * n * math.pi**2 for n in (n1, n2, n3)]
    return (v[0] + v[1]) + v[2]


@pytest.mark.parametrize("form", ["axis", "n2pi2"])
def test_cube_groups_are_whole_at_their_own_eigenvalues(form):
    # every group against its integer lattice count of n1^2 + n2^2 + n3^2 = N,
    # at a cutoff on the top eigenvalue, where a keep test made per order of
    # the triple splits or drops the top group.  The n^2 pi^2 sums of 4
    # triples round below every member of their group, which is dropped whole
    axis = spectrum.AxisSpec(1.0, D)
    cube = spectrum.BoxSpec((axis,) * 3)
    counts = collections.Counter(
        a * a + b * b + c * c for a, b, c in itertools.product(range(1, 13), repeat=3)
    )
    dropped = 0
    for n1, n2, n3 in itertools.combinations_with_replacement(range(1, 8), 3):
        if n3 == 1:
            continue  # the lowest eigenvalue admits no cutoff at it
        stream = spectrum.enumerate_modes(cube, _cube_cutoff(n1, n2, n3, form))
        top = n1 * n1 + n2 * n2 + n3 * n3
        want = [counts[s] for s in sorted(counts) if s <= top]
        got = stream.multiplicities.tolist()
        assert got == want[: len(got)] and len(got) >= len(want) - 1, (n1, n2, n3)
        assert stream.values.tolist() == pytest.approx(
            [s * math.pi**2 for s in sorted(counts)[: len(got)]], rel=1e-13
        )
        dropped += len(got) < len(want)
    assert dropped == (0 if form == "axis" else 4)


@pytest.mark.parametrize(
    ("box", "cutoff", "limit"),
    [
        (plates.plate_box(6.0, 1.0), 12000.0, 4 << 20),
        (spectrum.mixed_cell(1.5, 1.0 / 1.5, 1.0), 5e4, 3 << 20),
        (spectrum.mixed_cell(40.0, 40.0, 0.1), 3000.0, int(4.03 * (1 << 20))),
    ],
    ids=["plate", "mixed_cell", "one_mode_per_pair"],
)
def test_enumeration_memory_is_bounded(box, cutoff, limit):
    # the pass peaks near 14 bytes per entry, while the sorted values are
    # grouped (1.7 and 2.7 MiB; 3.6 with the group sums taken in int64), and
    # the plate lists the pairs of its equal axes once, at half the entries.
    # The thin cell has one axis-3 mode per
    # pair, 128,644 pairs and entries for 256,884 modes: 48 bytes per pair
    # held 5.92 MiB at the pair stage, and 13 bytes per pair with chunked
    # expansion hold 3.73 MiB
    spectrum.enumerate_modes(box, cutoff)
    tracemalloc.start()
    try:
        spectrum.enumerate_modes(box, cutoff)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


_sides = st.floats(0.4, 2.5)
_bcs = st.sampled_from([D, N, P])


@st.composite
def _boxes(draw):
    axes = [(draw(_sides), draw(_bcs)) for _ in range(3)]
    axes[draw(st.integers(0, 2))] = (axes[0][0], D)
    box = spectrum.BoxSpec(tuple(spectrum.AxisSpec(l, b) for l, b in axes))
    modes = draw(st.floats(1.0, 3000.0))
    return box, (6.0 * math.pi**2 * modes / box.volume) ** (2 / 3)


def _stream_or_error(box, cutoff):
    try:
        return spectrum.enumerate_modes(box, cutoff)
    except EmptySpectrumError as err:
        return str(err)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_boxes())
def test_swapping_axes_1_and_2_keeps_the_stream(case):
    box, cutoff = case
    a1, a2, a3 = box.axes
    got = _stream_or_error(spectrum.BoxSpec((a2, a1, a3)), cutoff)
    want = _stream_or_error(box, cutoff)
    if isinstance(want, str):
        assert got == want
        return
    assert got.values.tobytes() == want.values.tobytes()
    assert got.multiplicities.tobytes() == want.multiplicities.tobytes()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_boxes(), st.integers(-8, 8), st.floats(1e-3, 1.0))
def test_scaling_by_a_power_of_two_scales_the_spectrum(case, k, t):
    # lengths times c = 2^k and the cutoff times c^-2: every value is exactly
    # c^-2 times the old one, since each operation only shifts exponents
    box, cutoff = case
    scaled = spectrum.BoxSpec(
        tuple(spectrum.AxisSpec(math.ldexp(ax.length, k), ax.bc) for ax in box.axes)
    )
    want = _stream_or_error(box, cutoff)
    got = _stream_or_error(scaled, math.ldexp(cutoff, -2 * k))
    if not isinstance(want, str):
        assert got.values.tobytes() == np.ldexp(want.values, -2 * k).tobytes()
        assert got.multiplicities.tolist() == want.multiplicities.tolist()
    else:
        assert isinstance(got, str)
    heat = box.heat_trace(t)
    assert abs(scaled.heat_trace(math.ldexp(t, 2 * k)) - heat) <= 1e-13 * heat


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_boxes(), st.floats(-3.0, 3.0), st.floats(2.0, 40.0))
def test_scaling_by_any_factor_scales_the_spectrum(case, log_c, k):
    # lengths times c and the cutoff times c^-2: values scale to rounding, so
    # away from the cutoff every group keeps its multiplicity; 400 random
    # boxes measured 8.0e-16, with no stream mismatched
    box, _ = case
    c = 10.0**log_c
    cutoff = k * box.lambda_min
    want = spectrum.enumerate_modes(box, cutoff)
    near = spectrum.enumerate_modes(box, cutoff * (1.0 + 1e-9)).values
    assume(not np.any(np.abs(near - cutoff) <= 1e-9 * cutoff))
    scaled = spectrum.BoxSpec(tuple(spectrum.AxisSpec(ax.length * c, ax.bc) for ax in box.axes))
    got = spectrum.enumerate_modes(scaled, cutoff / (c * c))
    assert got.multiplicities.tolist() == want.multiplicities.tolist()
    np.testing.assert_allclose(got.values * (c * c), want.values, rtol=4e-15, atol=0.0)


def test_unit_cube_low_modes():
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 200.0)
    pi2 = math.pi**2
    lead = zip(stream.values[:5].tolist(), stream.multiplicities[:5].tolist())
    want = [(3 * pi2, 1), (6 * pi2, 3), (9 * pi2, 3), (11 * pi2, 3), (12 * pi2, 1)]
    for (gv, gk), (wv, wk) in zip(lead, want):
        assert gv == pytest.approx(wv, rel=1e-13)
        assert gk == wk


def test_sorted_and_merged():
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 500.0)
    vals = stream.values.tolist()
    assert vals == sorted(vals)
    for a, b in zip(vals, vals[1:]):
        assert b - a > 1e-12 * b  # no unmerged near-duplicates


def test_merge_compares_with_group_head():
    # the three modes of index type (2,1,1) lie 6e-13 relative apart: the
    # middle one joins the lowest, and the highest, 1.2e-12 above the group's
    # first value, starts its own group.  Comparing each value with its
    # predecessor instead would merge all three into [1, 3].
    sides = (1.0, 1.0 + 6e-13, 1.0 + 1.2e-12)
    box = spectrum.BoxSpec(tuple(spectrum.AxisSpec(s, D) for s in sides))
    stream = spectrum.enumerate_modes(box, 6.5 * math.pi**2)
    assert stream.multiplicities.tolist() == [1, 2, 1]


@pytest.mark.parametrize(
    ("chain", "heads"),
    [
        ([1.0 + 6e-13 * i for i in range(6)], [0, 2, 4, 6, 9]),
        ([1.0, 1.0 + 6e-13], [0, 2, 5]),
    ],
)
def test_group_heads_follow_the_walk(chain, heads):
    # steps 6e-13 relative apart: the six-value chain drifts past the
    # tolerance every second step, which only the walk sees; the pair does
    # not, so the vectorized rule alone decides.  2 + 1e-12 joins 2.
    found = np.array(chain + [2.0, 2.0, 2.0 + 1e-12, 3.0])
    assert spectrum._group_heads(found).tolist() == heads == _walk_heads(found.tolist())


def _walk_heads(found):
    """The reference rule, one value at a time."""
    heads, head = [0], found[0]
    for i, value in enumerate(found):
        if value - head > 1e-12 * value:
            heads.append(i)
            head = value
    return heads


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 5), st.integers(0, 8)), min_size=1, max_size=40)
)
def test_group_heads_match_the_walk(offsets):
    # values b (1 + 3e-13 k): chains of near-equal values that drift or not
    found = np.sort(np.array([b * (1.0 + 3e-13 * k) for b, k in offsets]))
    assert spectrum._group_heads(found).tolist() == _walk_heads(found.tolist())


@pytest.mark.parametrize("bc", list(spectrum.Bc), ids=[bc.value for bc in spectrum.Bc])
def test_axis_modes_are_the_squared_indices_with_one_byte_multiplicities(bc):
    # base n n in that order of rounding, cut on the cutoff itself; a
    # periodic axis counts k and -k together from k = 1 on
    axis = spectrum.AxisSpec(1.7, bc)
    base = ((2.0 if bc is P else 1.0) * math.pi / 1.7) ** 2
    indices = range(1 if bc is D else 0, 41)
    for cutoff, last in ((base * 40 * 40, 40), (math.nextafter(base * 40 * 40, 0.0), 39)):
        values, mults = axis.modes_below(cutoff)
        assert values.tolist() == [base * n * n for n in indices if n <= last]
        assert mults.dtype == np.int8
        assert mults.tolist() == [2 if bc is P and n else 1 for n in indices if n <= last]


def test_stream_arrays_are_read_only():
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 200.0)
    assert stream.values.dtype == np.float64
    assert stream.multiplicities.dtype == np.int64
    with pytest.raises(ValueError):
        stream.values[0] = 0.0
    with pytest.raises(ValueError):
        stream.multiplicities[0] = 2
    assert stream.modes().size == stream.mode_count == 26
    with pytest.raises(ParameterError):
        spectrum.EigenStream(
            cutoff=80.0, values=[30.0, 60.0], multiplicities=[1], box=stream.box
        )


@pytest.mark.parametrize(
    "values", [[30.0, 30.0], [60.0, 30.0], [30.0, math.nan]],
    ids=["repeated", "descending", "nan"],
)
def test_stream_values_must_ascend_strictly(values):
    # mc_estimate draws one variable per entry of values, so a repeated value
    # would be a group split in two
    box = spectrum.BoxSpec((spectrum.AxisSpec(1.0, D),) * 3)
    with pytest.raises(ParameterError):
        spectrum.EigenStream(cutoff=80.0, values=values, multiplicities=[1, 1], box=box)


def test_weyl_count():
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 1e4)
    weyl = 1e4**1.5 / (6.0 * math.pi**2)
    assert abs(stream.mode_count / weyl - 1.0) < 0.1


def test_empty_spectrum_raises():
    axis = spectrum.AxisSpec(1.0, D)
    with pytest.raises(EmptySpectrumError):
        spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 2.0 * math.pi**2)


def test_cutoff_one_ulp_above_the_lowest_eigenvalue_keeps_it():
    # here (cutoff - m1) - m3 rounds below m2, so a walk at the cutoff itself
    # found no mode at all
    sides = (1.2226971694600952, 2.1877675679055204, 1.2226971694600952)
    box = spectrum.BoxSpec(tuple(spectrum.AxisSpec(l, D) for l in sides))
    stream = spectrum.enumerate_modes(box, math.nextafter(box.lambda_min, math.inf))
    assert stream.values.tolist() == [box.lambda_min]
    assert stream.multiplicities.tolist() == [1]


def test_resource_guard_trips_before_walking():
    # 9,806,325 modes on 27,815 pairs: the per-pair counts refuse the request
    # before any entry is expanded
    axis = spectrum.AxisSpec(1.0, D)
    with pytest.raises(ResourceError):
        spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 7e5)


def test_resource_guard_trips_on_one_long_axis():
    # the 1e8 axis alone has about 3e8 modes below the cutoff, which used to
    # be allocated (2.4 GB); its index count refuses it before the arange
    with pytest.raises(ResourceError, match="axis of length"):
        spectrum.enumerate_modes(spectrum.mixed_cell(1e-8, 1e8, 1.0), 100.0)


def test_resource_guard_trips_on_the_pair_count(monkeypatch):
    # each axis of the cube holds 98,999 indices, under the cap of 10^5, but
    # they pair up about 3.8e9 times: the pair count refuses the request
    # before the pairs are listed, in 5.6 MiB of axis modes and per-row counts
    monkeypatch.setattr(spectrum, "DEFAULT_MODE_CAP", 100_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError) as err:
            spectrum.enumerate_modes(spectrum.UNIT_CUBE, (math.pi * 0.99e5) ** 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "mode count exceeded cap 100000 during walk"
    assert peak < 6 << 20


def test_thin_cell_under_the_cap_enumerates():
    # 1.0001 lambda_min of this cell holds about 7.9e5 modes, under the cap,
    # where the leading Weyl term volume c^1.5 / (6 pi^2) reads 5.2e9.  Just
    # below it the lateral modes (pi/1000)^2 (n1^2 + n2^2) are the lattice
    # points n1^2 + n2^2 <= 10^6 - 1/2, none on the cutoff
    box = spectrum.mixed_cell(1000.0, 1000.0, 0.01)
    stream = spectrum.enumerate_modes(box, box.lambda_min + (math.pi / 1000.0) ** 2 * 999_999.5)
    want = sum(math.isqrt(999_999 - n * n) + 1 for n in range(1000))
    assert stream.mode_count == want == 786_380
    assert stream.values[0] == box.lambda_min


def test_resource_guard_trips_during_walk(monkeypatch):
    # the 1277 modes the walk finds exceed the cap; their pairs do not
    monkeypatch.setattr(spectrum, "DEFAULT_MODE_CAP", 1000)
    with pytest.raises(ResourceError, match="during walk"):
        spectrum.enumerate_modes(spectrum.UNIT_CUBE, 2000.0)


def test_resource_guard_trips_before_expanding(monkeypatch):
    # 150,731 unit-cube modes against a cap of 10^5:
    # the per-pair counts refuse the request before any entry is expanded,
    # in under 0.1 MiB, where the entries up to the cap would take 0.5 MiB
    monkeypatch.setattr(spectrum, "DEFAULT_MODE_CAP", 100_000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError) as err:
            spectrum.enumerate_modes(spectrum.UNIT_CUBE, 4.4e4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "mode count exceeded cap 100000 during walk"
    assert peak < 256 << 10


def test_box_requires_dirichlet_axis():
    n = spectrum.AxisSpec(1.0, N)
    p = spectrum.AxisSpec(1.0, P)
    with pytest.raises(ParameterError):
        spectrum.BoxSpec((n, n, p))


def test_axis_validation():
    with pytest.raises(ParameterError):
        spectrum.AxisSpec(0.0, D)
    with pytest.raises(ParameterError):
        spectrum.AxisSpec(-1.0, N)


def test_axis_heat_sum_matches_lattice():
    for length, bc in ((1.0, D), (0.7, N), (2.0, P)):
        ax = spectrum.AxisSpec(length, bc)
        for t in (0.1, 0.3, 1.0):
            brute = sum(k * math.exp(-t * v) for v, k in axis_modes_brute(ax, 5e3))
            got = specfun.theta_eval(ax.bc, ax.length, t).value
            assert got == pytest.approx(brute, rel=1e-13)


@pytest.mark.parametrize(
    "box",
    [plates.plate_box(2.0, 1.0), spectrum.mixed_cell(1.3, 0.7, 1.1)],
    ids=["plate_PPD", "mixed_cell_NND"],
)
def test_box_heat_trace_matches_lattice_sum(box):
    # every lattice point (n1, n2, n3) summed directly, not axis by axis
    v1, v2, v3 = (np.array(axis_modes_brute(ax, 5e3)) for ax in box.axes)
    values = v1[:, None, None, 0] + v2[None, :, None, 0] + v3[None, None, :, 0]
    weights = v1[:, None, None, 1] * v2[None, :, None, 1] * v3[None, None, :, 1]
    for t in (0.1, 0.3, 1.0):
        brute = float(np.sum(weights * np.exp(-t * values)))
        assert box.heat_trace(t) == pytest.approx(brute, rel=1e-13)


@pytest.mark.parametrize(
    "box",
    [plates.plate_box(2.0, 1.0), spectrum.mixed_cell(1.3, 0.7, 1.1), spectrum.UNIT_CUBE],
    ids=["plate_PPD", "mixed_cell_NND", "cube_DDD"],
)
def test_box_heat_trace_over_an_array_is_the_scalar_calls(box):
    # one theta_eval call over the axes and nodes, each entry the scalar
    # call bit for bit, in the shape of t
    t = np.geomspace(1e-4, 10.0, 833)
    values = box.heat_trace(t)
    assert values.shape == t.shape
    assert values.tolist() == [box.heat_trace(x) for x in t.tolist()]
    assert box.heat_trace(t[:6].reshape(2, 3)).tolist() == values[:6].reshape(2, 3).tolist()
    assert type(box.heat_trace(0.3)) is float


def test_box_heat_trace_over_an_array_refuses_as_the_scalar_call():
    # a node whose product leaves the float range, or a node theta_eval
    # refuses, raises the scalar call's ParameterError
    for bad in (1e-300, 80.0, math.nan):
        with pytest.raises(ParameterError) as scalar:
            spectrum.UNIT_CUBE.heat_trace(bad)
        with pytest.raises(ParameterError) as array:
            spectrum.UNIT_CUBE.heat_trace(np.array([0.5, bad]))
        assert str(array.value) == str(scalar.value)


def test_mixed_cell_layout():
    cell = spectrum.mixed_cell(1.3, 0.7, 1.1)
    assert [(ax.length, ax.bc) for ax in cell.axes] == [(1.3, N), (0.7, N), (1.1, D)]


def test_tail_bound_dominates_actual_tail():
    axis = spectrum.AxisSpec(1.0, D)
    box = spectrum.BoxSpec((axis, axis, axis))
    small = spectrum.enumerate_modes(box, 100.0)
    big = spectrum.enumerate_modes(box, 400.0)
    for t in (0.2, 0.5, 1.0):
        actual = sum(
            k * math.sqrt(v) * math.exp(-t * v)
            for v, k in zip(big.values.tolist(), big.multiplicities.tolist())
            if v > small.cutoff
        )
        assert small.tail_bound(t) >= actual
    with pytest.raises(ParameterError):
        small.tail_bound(0.0)


def test_tail_bound_nonincreasing_in_t():
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 100.0)
    ts = [0.05, 0.1, 0.3, 0.7, 1.5, 3.0]
    bounds = [stream.tail_bound(t) for t in ts]
    assert bounds == sorted(bounds, reverse=True)


def test_stream_json_shape(tmp_path):
    # the spectrum report carries the stream as {"cutoff", "modes": [...]}
    assert harness.main(["spectrum", "--cutoff", "100", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "spectrum.json").read_text())
    payload = report["stream"]
    assert payload["cutoff"] == 100.0
    assert payload["modes"][0] == {"value": pytest.approx(math.pi**2), "multiplicity": 1}
    assert sum(m["multiplicity"] for m in payload["modes"]) == report["mode_count"]


def test_lateral_gap():
    assert spectrum.lateral_gap(2.0, 0.5) == pytest.approx(math.pi**2 / 4.0, rel=1e-15)
    assert spectrum.lateral_gap(1.0, 1.0) == pytest.approx(math.pi**2, rel=1e-15)
    with pytest.raises(ParameterError):
        spectrum.lateral_gap(0.0, 1.0)


def test_saturation_ratio_closed_form_bit_exact():
    from fractions import Fraction

    grid = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1),
            Fraction(4, 3), Fraction(3, 2), Fraction(2)]
    for fr in grid:
        alpha = float(fr)
        check = spectrum.saturation_check(alpha * 1.0, 1.0 / alpha, 1.0)
        assert check.ratio == min(alpha, 1.0 / alpha) ** 2
        assert check.saturated == (fr == 1)


def test_saturation_constraint_enforced():
    # l1 l2 and a^2 of the second cell both overflow, so a test on their
    # difference sees inf - inf = nan
    for sides in ((2.0, 1.0, 1.0), (1e200, 1e250, 1e200)):
        with pytest.raises(ConstraintError, match="l1\\*l2/a\\^2"):
            spectrum.saturation_check(*sides)


@settings(max_examples=80, deadline=None)
@given(alpha=st.floats(0.2, 5.0))
def test_saturation_ratio_property(alpha):
    check = spectrum.saturation_check(alpha, 1.0 / alpha, 1.0)
    assert 0.0 < check.ratio <= 1.0 + 1e-15
    want = min(alpha, 1.0 / alpha) ** 2
    assert check.ratio == pytest.approx(want, rel=1e-14)
    if check.saturated:
        assert abs(alpha - 1.0) < 1e-6
