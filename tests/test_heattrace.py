"""Regulated traces, mixed-cell factorization, short-time fits, finite parts."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caslab import heattrace, plates, spectrum
from caslab.errors import (
    CutoffError,
    FitConditionError,
    FitInstabilityError,
    ParameterError,
)

D = spectrum.Bc.DIRICHLET
N = spectrum.Bc.NEUMANN
P = spectrum.Bc.PERIODIC


def nnd_cell(l1, l2, a):
    return spectrum.BoxSpec(
        (
            spectrum.AxisSpec(l1, N),
            spectrum.AxisSpec(l2, N),
            spectrum.AxisSpec(a, D),
        )
    )


def test_single_mode_trace():
    # one mode at pi^2: the regulated trace is (1/2) pi e^{-pi^2}
    stream = spectrum.EigenStream(
        cutoff=60.0, values=[math.pi**2], multiplicities=[1], box=nnd_cell(1.0, 1.0, 1.0)
    )
    sample = heattrace.regulated_trace(stream, 1.0)
    assert sample.value == pytest.approx(0.5 * math.pi * math.exp(-math.pi**2), rel=1e-15)
    assert sample.tau == 1.0
    assert sample.tail_bound < 1e-6 * sample.value


def test_regulated_trace_equals_direct_sum():
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 200.0)
    tau = 0.5
    direct = sum(
        0.5 * k * math.sqrt(v) * math.exp(-tau * v)
        for v, k in zip(stream.values.tolist(), stream.multiplicities.tolist())
    )
    assert heattrace.regulated_trace(stream, tau).value == pytest.approx(direct, rel=1e-14)


def test_trace_cutoff_certification():
    # truncation too aggressive for this tau: the tail bound must refuse
    axis = spectrum.AxisSpec(1.0, D)
    stream = spectrum.enumerate_modes(spectrum.BoxSpec((axis, axis, axis)), 40.0)
    with pytest.raises(CutoffError):
        heattrace.regulated_trace(stream, 0.05)
    with pytest.raises(ParameterError):
        heattrace.regulated_trace(stream, 0.0)


def test_mixed_cell_factorization():
    l1, l2, a, t = 2.0, 0.5, 1.0, 0.4
    box = nnd_cell(l1, l2, a)
    stream = spectrum.enumerate_modes(box, 300.0)
    spectral = sum(
        k * math.exp(-t * v)
        for v, k in zip(stream.values.tolist(), stream.multiplicities.tolist())
    )
    tail = sum(
        ax.heat_sum(t) for ax in box.axes
    )  # crude domination scale only, the real check is below
    assert tail > 0.0
    got = heattrace.mixed_cell_heat_trace(l1, l2, a, t)
    assert got == pytest.approx(spectral, rel=1e-10)


def test_mixed_cell_short_time_volume_law():
    l1, l2, a = 2.0, 0.5, 1.0
    t = 1e-7
    got = t**1.5 * heattrace.mixed_cell_heat_trace(l1, l2, a, t)
    vol_coef = l1 * l2 * a / (8.0 * math.pi**1.5)
    assert abs(got / vol_coef - 1.0) < 1e-3


def test_short_time_grid_shape():
    grid = heattrace.short_time_grid(1.0)
    assert np.array_equal(grid, np.geomspace(1e-4, 1e-3, 16))
    assert np.all(np.diff(np.log(grid)) > 0)
    small = heattrace.short_time_grid(1e-3, 12)
    assert small[0] == pytest.approx(1e-10) and small[-1] == pytest.approx(1e-9)
    assert len(small) == 12 and small[-1] >= 10.0 * small[0]
    assert np.array_equal(plates.default_tau_grid(3.0), heattrace.short_time_grid(3.0, 12))
    for length in (1e-80, 1e80):
        with pytest.raises(ParameterError, match="float range"):
            heattrace.short_time_grid(length)


def test_short_time_coefficients_unit_cell():
    co = heattrace.short_time_coefficients(1.0, 1.0, 1.0)
    assert set(co) == {"t^-3/2", "t^-1", "t^-1/2", "1"}
    assert co["t^-3/2"] == pytest.approx(1.0 / (8.0 * math.pi**1.5), rel=1e-3)
    assert co["t^-1"] == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-2)


def test_b_coefficient_closed_form():
    assert heattrace.b_coefficient(1.0, 1.0, 1.0) == pytest.approx(
        1.0 / (8.0 * math.pi), rel=1e-14
    )
    assert heattrace.b_coefficient(2.0, 0.5, 1.0) == pytest.approx(
        1.5 / (8.0 * math.pi), rel=1e-14
    )


def test_lstsq_is_called_only_by_the_fit_helper():
    # every least-squares solve goes through the one condition-checked fit
    sites = []
    for path in sorted(Path(heattrace.__file__).parent.glob("*.py")):
        text = path.read_text()
        for call in re.finditer(r"lstsq\(", text):
            enclosing = re.findall(r"^def (\w+)", text[: call.start()], re.M)
            sites.append((path.name, enclosing[-1] if enclosing else None))
    assert sites == [("heattrace.py", "_power_law_fit")]


def test_b_coefficient_off_the_family():
    # B = (a (l1 + l2) - l1 l2) / (8 pi) for any cell, not only l1 l2 = a^2;
    # unit-volume cells with an x by x cross-section have B = (2/x - x^2) / (8 pi),
    # which falls through the cube
    assert heattrace.b_coefficient(2.0, 1.0, 1.0) == pytest.approx(
        1.0 / (8.0 * math.pi), rel=1e-15
    )
    for x in (0.8, 1.25, 1.6, 2.0):
        assert heattrace.b_coefficient(x, x, 1.0 / (x * x)) == pytest.approx(
            (2.0 / x - x * x) / (8.0 * math.pi), rel=1e-14
        )


_log_side = st.floats(-3.0, 3.0).map(math.exp)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from([(D, D, D), (N, N, D), (P, P, D)]), _log_side, _log_side, _log_side)
def test_heat_coefficients_match_the_four_term_fit(bcs, l1, l2, a):
    # the fit of short_time_coefficients, on any Dirichlet, N x N x D (on or
    # off l1 l2 = a^2) or periodic plate box; the t^-1 and t^-1/2 terms pass
    # through 0, so each deviation is scaled by the volume term at the
    # window's top.  20,000 draws measured 1.1e-13
    box = spectrum.BoxSpec(tuple(spectrum.AxisSpec(x, bc) for x, bc in zip((l1, l2, a), bcs)))
    t = heattrace.short_time_grid(min(l1, l2, a))
    trace = np.array([box.heat_trace(x) for x in t])
    fit, _, _ = heattrace._power_law_fit(t, trace, (1.5, 1.0, 0.5))
    closed = box.heat_coefficients()
    if bcs == (N, N, D):
        assert heattrace.short_time_coefficients(l1, l2, a) == dict(zip(closed, fit.tolist()))
    shares = np.abs(fit - list(closed.values())) * t[-1] ** np.array([0.0, 0.5, 1.0, 1.5])
    assert np.all(shares <= 1e-12 * closed["t^-3/2"]), shares


def flat_samples(taus, fn):
    return [heattrace.HeatTraceSample(tau=t, value=fn(t), tail_bound=0.0) for t in taus]


TAUS = np.geomspace(1e-3, 5e-2, 24)


def test_finite_part_exact_recovery():
    samples = flat_samples(TAUS, lambda t: 3.0 / t**2 + 5.0)
    model = heattrace.finite_part(samples, (2.0,))
    assert model.c0 == pytest.approx(5.0, abs=1e-10)
    assert model.coefficients["tau^-2"] == pytest.approx(3.0, rel=1e-10)
    assert model.stability_drift < 1e-9


def test_finite_part_two_power_recovery():
    samples = flat_samples(TAUS, lambda t: 2.0 / t**2 - 0.4 / math.sqrt(t) + 1.25)
    model = heattrace.finite_part(samples, (2.0, 0.5))
    assert model.c0 == pytest.approx(1.25, abs=1e-9)
    assert model.coefficients["tau^-0.5"] == pytest.approx(-0.4, rel=1e-8)


def test_finite_part_condition_guard():
    samples = flat_samples(TAUS, lambda t: 3.0 / t**2 + 5.0)
    with pytest.raises(FitConditionError):
        heattrace.finite_part(samples, (2.0, 2.0 + 1e-11))


def test_finite_part_instability_guard():
    # an unmodeled power contaminates the constant between nested windows
    samples = flat_samples(TAUS, lambda t: 3.0 / t**2 + 2.0 / math.sqrt(t) + 5.0)
    with pytest.raises(FitInstabilityError):
        heattrace.finite_part(samples, (2.0,))


def test_finite_part_input_validation():
    good = flat_samples(TAUS, lambda t: 1.0 / t**2 + 1.0)
    with pytest.raises(ParameterError):
        heattrace.finite_part(good[:3], (2.0,))
    with pytest.raises(ParameterError):
        heattrace.finite_part(good, (0.0,))
    narrow = flat_samples(np.linspace(1e-3, 5e-3, 12), lambda t: 1.0 / t**2 + 1.0)
    with pytest.raises(ParameterError):
        heattrace.finite_part(narrow, (2.0,))
    dirty = [
        heattrace.HeatTraceSample(tau=t, value=1.0 / t**2 + 1.0, tail_bound=1.0)
        for t in TAUS
    ]
    with pytest.raises(ParameterError):
        heattrace.finite_part(dirty, (2.0,))


def test_finite_part_model_json():
    samples = flat_samples(TAUS, lambda t: 3.0 / t**2 + 5.0)
    model = heattrace.finite_part(samples, (2.0,))
    payload = json.loads(json.dumps(dataclasses.asdict(model)))
    assert payload["c0"] == model.c0
    assert payload["exponents"] == [2.0]
    assert payload["window"] == [pytest.approx(TAUS[0]), pytest.approx(TAUS[-1])]
    assert payload["condition_number"] > 1.0
    assert payload["stability_tol"] == 5e-3
    assert set(payload) == {
        "exponents", "coefficients", "c0", "residual", "window",
        "condition_number", "nested_c0", "stability_drift", "stability_tol",
    }


@settings(max_examples=25, deadline=None)
@given(
    c2=st.floats(-5.0, 5.0),
    c1=st.floats(-5.0, 5.0),
    c0=st.floats(-5.0, 5.0),
)
def test_finite_part_recovers_in_span_models(c2, c1, c0):
    samples = flat_samples(TAUS, lambda t: c2 / t**2 + c1 / t + c0)
    model = heattrace.finite_part(samples, (2.0, 1.0))
    assert model.c0 == pytest.approx(c0, abs=1e-7 * (1.0 + abs(c2) + abs(c1)))
