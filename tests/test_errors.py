"""The shared validators at every call site: positive reals, enum names,
and the non-finite inputs that used to slip past ad-hoc checks."""

import dataclasses
import math

import pytest

from caslab import boxint, heattrace, plates, riesz, specfun, spectrum, stochastic
from caslab.errors import CheckReport, ParameterError, ResourceError

_AXIS = spectrum.AxisSpec(1.0, spectrum.Bc.DIRICHLET)
_STREAM = spectrum.enumerate_modes(spectrum.BoxSpec((_AXIS, _AXIS, _AXIS)), 60.0)
_PLATE_SAMPLES = [plates.per_area_trace(1.0, float(t)) for t in plates.default_tau_grid(1.0)]

_POSITIVE_REAL_CALLS = {
    "interval_overlap_L": lambda x: boxint.interval_overlap(x, 1.0),
    "interval_overlap_t": lambda x: boxint.interval_overlap(1.0, x),
    "delta_alpha": boxint.delta_alpha,
    "cell_overlap_energy": lambda x: boxint.cell_overlap_energy((x, 1.0, 1.0)),
    "reference_energy_q": lambda x: boxint.reference_energy(x, 1, 1.0, 1.0),
    "reference_energy_a": lambda x: boxint.reference_energy(1.0, 1, x, 1.0),
    "reference_energy_delta": lambda x: boxint.reference_energy(1.0, 1, 1.0, x),
    "regulated_trace": lambda x: heattrace.regulated_trace(_STREAM, x),
    "finite_part_exponent": lambda x: heattrace.finite_part(_PLATE_SAMPLES, (2.0, x)),
    "PlateConfig_a": lambda x: plates.PlateConfig(x, 1.0),
    "PlateConfig_L": lambda x: plates.PlateConfig(1.0, x),
    "default_tau_grid": plates.default_tau_grid,
    "normalized_energy": lambda x: plates.normalized_energy(1, x),
    "per_area_trace_a": lambda x: plates.per_area_trace(x, 1e-3),
    "per_area_trace_tau": lambda x: plates.per_area_trace(1.0, x),
    "tail_bound": _STREAM.tail_bound,
    "lateral_gap": lambda x: spectrum.lateral_gap(x, 1.0),
    "saturation_check": lambda x: spectrum.saturation_check(x, x, x),
    "SourceSpec_tau": lambda x: stochastic.SourceSpec(_STREAM, tau=x),
    "SourceSpec_g": lambda x: stochastic.SourceSpec(_STREAM, tau=0.5, g=x),
    "MollifierSpec_eps": riesz.MollifierSpec,
}


@pytest.mark.parametrize("bad", [math.inf, math.nan, True], ids=["inf", "nan", "bool"])
@pytest.mark.parametrize(
    "call", list(_POSITIVE_REAL_CALLS.values()), ids=list(_POSITIVE_REAL_CALLS)
)
def test_positive_reals_reject_non_finite_and_bool(call, bad):
    with pytest.raises(ParameterError):
        call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: riesz.reduction_constant(3, x),
        lambda x: riesz.schwinger_integral(3, x, 1.0),
        lambda x: riesz.momentum_integral(3, x, 1.0),
    ],
    ids=["reduction_constant", "schwinger_integral", "momentum_integral"],
)
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_grid_and_exponent_rejected(call, bad):
    with pytest.raises(ParameterError):
        call(bad)


@pytest.mark.parametrize("field", ["tau", "value"])
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_finite_part_rejects_non_finite_samples(field, bad):
    # a nan value used to come back as c0 = nan, an inf tau as a LinAlgError
    samples = list(_PLATE_SAMPLES)
    samples[3] = dataclasses.replace(samples[3], **{field: bad})
    with pytest.raises(ParameterError):
        heattrace.finite_part(samples, (2.0, 1.5))


def test_enumerate_modes_rejects_nan_cutoff():
    box = spectrum.BoxSpec((_AXIS, _AXIS, _AXIS))
    with pytest.raises(ParameterError):
        spectrum.enumerate_modes(box, math.nan)
    # an infinite cutoff is a request too large to enumerate, not a bad value
    with pytest.raises(ResourceError):
        spectrum.enumerate_modes(box, math.inf)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: stochastic.mc_estimate(stochastic.SourceSpec(_STREAM, 0.5), 10, s),
        lambda s: boxint.delta_alpha(1.0, boxint.DeltaMethod.MONTE_CARLO, budget=10, seed=s),
    ],
    ids=["mc_estimate", "delta_alpha"],
)
@pytest.mark.parametrize("seed", [-1, True], ids=["negative", "bool"])
def test_monte_carlo_seed_is_checked(call, seed):
    # -1 used to reach SeedSequence as numpy's bare ValueError; True was taken as 1
    with pytest.raises(ParameterError):
        call(seed)


def test_check_report_flag():
    ok, bad = CheckReport.flag("holds", True), CheckReport.flag("fails", False)
    assert ok == CheckReport("holds", True, 0.0, 0.0)
    assert bad == CheckReport("fails", False, 1.0, 0.0)
    assert ok == CheckReport.measure("holds", 0.0, 0.0)


def test_upper_gamma_three_halves_edges():
    with pytest.raises(ParameterError):
        specfun.upper_gamma_three_halves(math.nan)
    assert specfun.upper_gamma_three_halves(math.inf) == 0.0


@pytest.mark.parametrize(
    "call, name, member",
    [
        (lambda m: boxint.delta_alpha(1.0, m), "quadrature_3d", None),
        (lambda m: plates.casimir_per_area(1.0, m), "zeta_route", None),
        (lambda m: plates.theta_bar(1.0, source=m), "closed_form", None),
        (lambda m: spectrum.AxisSpec(1.0, m).bc, "periodic", spectrum.Bc.PERIODIC),
        (lambda m: spectrum.AxisSpec(1.0, m).bc, "dirichlet", spectrum.Bc.DIRICHLET),
        (lambda m: specfun.theta_eval(m, 1.0, 0.5).value, "neumann", None),
        (lambda m: specfun.theta_eval(m, 1.0, 0.5).value, "periodic", None),
    ],
    ids=["delta_alpha", "casimir_per_area", "theta_bar", "AxisSpec",
         "AxisSpec_dirichlet", "theta_eval", "theta_eval_periodic"],
)
def test_method_names_are_checked(call, name, member):
    got = call(name)  # the value string of a member is accepted
    if member is not None:
        assert got is member
    with pytest.raises(ParameterError):
        call("bogus")
