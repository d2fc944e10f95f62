"""The shared validators at every call site: positive reals, enum names,
and the non-finite inputs that used to slip past ad-hoc checks."""

import ast
import dataclasses
import itertools
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import caslab
from caslab import (
    acceptance, boxint, errors, heattrace, plates, riesz, specfun, spectrum, stochastic
)
from caslab.errors import CaslabError, CheckReport, ParameterError, ResourceError, check_normal

_AXIS = spectrum.AxisSpec(1.0, spectrum.Bc.DIRICHLET)
_STREAM = spectrum.enumerate_modes(spectrum.BoxSpec((_AXIS, _AXIS, _AXIS)), 60.0)
_CUBE_200 = spectrum.enumerate_modes(spectrum.UNIT_CUBE, 200.0)
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
    "finite_box_trace_tau": lambda x: plates.finite_box_trace(plates.PlateConfig(1.0, 1.0), x),
    "default_tau_grid": plates.default_tau_grid,
    "normalized_energy": lambda x: plates.normalized_energy(1, x),
    "per_area_trace_a": lambda x: plates.per_area_trace(x, 1e-3),
    "per_area_trace_tau": lambda x: plates.per_area_trace(1.0, x),
    "tail_bound": _STREAM.tail_bound,
    "lateral_gap": lambda x: spectrum.lateral_gap(x, 1.0),
    "saturation_check": lambda x: spectrum.saturation_check(x, x, x),
    "aspect_sides_a": lambda x: spectrum.aspect_sides(x, 1.0),
    "SourceSpec_tau": lambda x: stochastic.SourceSpec(_STREAM, tau=x),
    "SourceSpec_g": lambda x: stochastic.SourceSpec(_STREAM, tau=0.5, g=x),
    "MollifierSpec_eps": riesz.MollifierSpec,
}


@pytest.mark.parametrize(
    "bad", [math.inf, math.nan, True, "1.0"], ids=["inf", "nan", "bool", "str"]
)
@pytest.mark.parametrize(
    "call", list(_POSITIVE_REAL_CALLS.values()), ids=list(_POSITIVE_REAL_CALLS)
)
def test_positive_reals_reject_non_finite_and_bool(call, bad):
    with pytest.raises(ParameterError):
        call(bad)


_ASPECT_RATIO_CALLS = {
    "aspect_sides": lambda x: spectrum.aspect_sides(1.0, x),
    "delta_alpha": boxint.delta_alpha,
    "delta_alpha_quadrature_3d": lambda x: boxint.delta_alpha(x, "quadrature_3d"),
    "delta_alpha_monte_carlo": lambda x: boxint.delta_alpha(x, "monte_carlo", budget=10),
    "theta_bar": plates.theta_bar,
    "short_time_checks": lambda x: acceptance.short_time_checks(1.0, x, {}),
}


@pytest.mark.parametrize(
    "bad", [0.0, -1.0, math.inf, math.nan, True], ids=["zero", "negative", "inf", "nan", "bool"]
)
@pytest.mark.parametrize("call", list(_ASPECT_RATIO_CALLS.values()), ids=list(_ASPECT_RATIO_CALLS))
def test_aspect_ratios_pass_the_one_validator(call, bad):
    with pytest.raises(ParameterError, match="aspect ratio alpha must be finite and > 0"):
        call(bad)


@pytest.mark.parametrize("a, tau", [(1.0, 1e-12), (1e200, 1e-300)], ids=["tiny_tau", "c_is_0"])
def test_per_area_trace_fails_fast_past_its_term_cap(a, tau):
    # the series runs until tau pi^2 n^2 / a^2 >= 40: 2e6 terms (about 2 s)
    # at tau = 1e-12, and never where that coefficient underflows to 0
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="terms"):
        plates.per_area_trace(a, tau)
    assert time.perf_counter() - start < 0.1


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: riesz.schwinger_integral(1, 200.0, 1.0),
        lambda: riesz.schwinger_integral(3, 172.0, 1.0),
        lambda: riesz.momentum_integral(1, 200.0, 1e-200),
        lambda: riesz.mollified_reduction(1, 200.0, 1e-200, riesz.MollifierSpec(0.1)),
        lambda: riesz.momentum_integral(387, 200.0, 1.0),
        lambda: riesz.mollified_reduction(387, 200.0, 1.0, riesz.MollifierSpec(0.1)),
        lambda: riesz.momentum_integral(386, 194.0, 1.0),
        lambda: riesz.critical_exponent(10**400),
        lambda: riesz.reduction_constant(10**400, 1e308),
    ],
    ids=[
        "schwinger_gamma_s",
        "schwinger_gamma_s_m3",
        "momentum_shift",
        "mollified_shift",
        "momentum_2pi_power",
        "mollified_2pi_power",
        "momentum_underflow",
        "critical_exponent_m",
        "reduction_constant_m",
    ],
)
def test_reduction_routes_past_the_float_range_are_refused(call):
    # Gamma(s) overflows from s = 171.7, e^(shift/2) past lam^(1/2 - s) = 1e39900,
    # (2 pi)^m from m = 387; at m = 386 the prefactor underflows to 0; an m
    # past the float range raised a bare OverflowError from 0.5 * m
    with pytest.raises(ParameterError, match="float range"):
        call()


def test_reduction_routes_keep_their_values_at_large_s():
    assert riesz.momentum_integral(1, 200.0, 1.0) == 0.01998461251317941
    assert riesz.momentum_integral(3, 172.0, 1.0) == 1.0061096144533287e-05


@pytest.mark.parametrize(
    "call",
    [
        lambda: plates.per_area_trace(1e-200, 1.0),
        lambda: plates.per_area_trace(1e-150, 1e-250),
        lambda: plates.casimir_per_area(1e-103),
        lambda: plates.normalized_energy(1, 1e-103),
        lambda: plates.normalized_energy(10**160, 1.0),
        lambda: plates.casimir_per_area(1.0, 10**400),
        lambda: plates.theta_bar(1.0, 10**400),
        lambda: plates.theta_bar(1.0, 10**308),
        lambda: plates.pipeline_theta_bar(plates.CalibrationResult(1.0, 10**400, 1.0, 1.0)),
        lambda: plates.finite_box_trace(plates.PlateConfig(1e-200, 4.0), 1.0),
    ],
    ids=[
        "per_area_trace_a", "per_area_trace_tau", "casimir_per_area", "normalized_energy",
        "normalized_energy_n", "casimir_per_area_channels", "theta_bar_channels",
        "theta_bar_inf", "pipeline_theta_bar_channels", "finite_box_trace_a",
    ],
)
def test_plate_values_past_the_float_range_are_refused(call):
    # (pi/a)^2, tau^-1.5 and (pi/a)^3 each overflow; (n a)^2 and a channel
    # count past the float range raised a bare OverflowError, and N pi^2 at
    # N = 10^308 made theta_bar inf; the finite box's cutoff floor 4 (pi/a)^2
    # raised a bare OverflowError before its Dirichlet axis refused a
    with pytest.raises(ParameterError, match="float range"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: plates.casimir_per_area(1e120),
        lambda: plates.per_area_trace(1.0, 1e300),
        lambda: boxint.cell_overlap_energy((1e-200, 1.0, 1.0)),
        lambda: boxint.interval_overlap(1e-200, 1.0),
        lambda: heattrace.regulated_trace(_STREAM, 24.0),
        lambda: spectrum.lateral_gap(1e160, 1.0),
        lambda: heattrace.mixed_cell_heat_trace(1.0, 1.0, 1.0, 1e20),
        lambda: spectrum.mixed_cell(1e-140, 1e-140, 1e-140).heat_coefficients(),
        lambda: spectrum.UNIT_CUBE.heat_trace(80.0),
        lambda: boxint.reference_energy(1e-300, 1, 1e300, 1e-300),
        lambda: stochastic.mc_estimate(stochastic.SourceSpec(_CUBE_200, 30.0), 10, 0),
        lambda: stochastic.mc_estimate(stochastic.SourceSpec(_CUBE_200, 1e3), 10, 0),
        lambda: stochastic.mc_estimate(stochastic.SourceSpec(_CUBE_200, 15.0), 10, 0),
        lambda: spectrum.saturation_check(1e-200, 1e200, 1.0),
        lambda: spectrum.aspect_sides(1e-300, 1e10),
    ],
    ids=[
        "casimir_per_area", "per_area_trace", "cell_overlap_energy", "interval_overlap",
        "regulated_trace", "lateral_gap", "mixed_cell_heat_trace", "heat_coefficients",
        "axis_theta_sum", "reference_energy", "mc_estimate_tau_30", "mc_estimate_tau_1e3",
        "mc_estimate_variance_tau_15",
        "saturation_ratio", "aspect_side_subnormal",
    ],
)
def test_values_that_underflow_are_refused(call):
    # the first four used to return a silent 0: -0.0 where (pi/a)^3
    # underflows, 0.0 with tail bound 0.0 where every Gamma(3/2, c n^2) does,
    # 0.0 from a quadrature certified by its absolute tolerance alone, and 0.0
    # where I_L ~ L^2 does; the trace refused only 0, and returned 6.6e-309.
    # The gap returned 9.87e-320, the box trace and the volume term 0.0, and
    # a Dirichlet axis sum 0.0 (the box trace then refused it as its own),
    # the reference energy -0.0, and the Monte Carlo estimate 0 +- 0 where
    # every weight underflows, and a standard error of 0.0 where every squared
    # weight does (E[U] = 2.3e-193); the gap ratio returned 0.0 where lateral_gap
    # of the same sides refused, and the aspect family the subnormal side 1e-310
    with pytest.raises(ParameterError, match="normal float range"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: spectrum.UNIT_CUBE.heat_trace(1e-300),
        lambda: heattrace.b_coefficient(1e160, 1e160, 1e160),
        lambda: spectrum.mixed_cell(1e300, 1e-150, 1e150).heat_coefficients(),
        lambda: boxint.reference_energy(1e300, 1, 1e-300, 1e300),
        lambda: boxint.reference_energy(1.0, 10**200, 1e-300, 1.0),
        lambda: spectrum.lateral_gap(1e-300, 1e-300),
        lambda: heattrace.short_time_coefficients(1e-60, 1e120, 1e100),
        lambda: spectrum.aspect_sides(1e300, 1e10),
        lambda: boxint.delta_alpha(5e-324, boxint.DeltaMethod.QUADRATURE_3D),
    ],
    ids=[
        "heat_trace", "b_coefficient", "heat_coefficients",
        "reference_energy", "reference_energy_n", "lateral_gap", "short_time_volume_term",
        "aspect_side_inf", "face_rule_alpha_5e-324",
    ],
)
def test_box_values_past_the_float_range_are_refused(call):
    # these returned inf, nan (inf - inf in the t^-1 term), a t^-1 term of
    # inf beside a normal volume term, and -inf; n^2 / a and (pi / l)^2
    # raised a bare OverflowError; the short-time fit's volume term is normal
    # at the cell but twice it at the window's smallest t is not.  The aspect
    # family returned the side inf, which the face rule refused only as a
    # ResourceError
    with pytest.raises(ParameterError, match="normal float range|overflow"):
        call()


def test_exact_zero_heat_coefficients_are_kept():
    # B vanishes at (2, 2, 1), and the periodic offset 0 zeroes the plate
    # box's t^-1/2 and constant terms; only the volume term must be normal
    assert heattrace.b_coefficient(2.0, 2.0, 1.0) == 0.0
    coeffs = plates.plate_box(3.0, 1.0).heat_coefficients()
    assert (coeffs["t^-1/2"], coeffs["1"]) == (0.0, 0.0)


def test_only_check_normal_turns_an_overflow_into_a_refusal():
    # the other handlers compute an lgamma fallback, raise QuadratureError,
    # or (per_area_trace) share one block with the term-cap test; a result
    # past the float range reaches check_normal as the computation itself
    holders = set()
    for path in Path(errors.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(handler, ast.ExceptHandler)
                and handler.type is not None
                and any(getattr(n, "id", None) == "OverflowError" for n in ast.walk(handler.type))
                for handler in ast.walk(fn)
            ):
                holders.add(f"{path.stem}.{fn.name}")
    assert holders == {
        "errors.check_normal", "riesz.reduction_constant", "riesz.sphere_area",
        "riesz._checked_sum", "plates.per_area_trace",
    }


def test_check_normal_takes_either_sign_and_refuses_the_rest():
    for value in (1.0, -2.5e-308, sys.float_info.max, -sys.float_info.min):
        assert check_normal(value, "x") == value
    for value in (0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError, match="x = .* leaves the normal float range"):
            check_normal(value, "x")
    # or the computation, whose OverflowError (a float power, an int too
    # large for a float) counts as inf
    assert check_normal(lambda: -(2.0**-1022), "x") == -(2.0**-1022)
    for compute in (lambda: 10.0**400, lambda: 10**400 * 1.0, lambda: 2.0**-1074):
        with pytest.raises(ParameterError, match="x = .* leaves the normal float range"):
            check_normal(compute, "x")


@pytest.mark.parametrize("bc", list(specfun.Bc), ids=[bc.value for bc in specfun.Bc])
def test_theta_refuses_lengths_whose_square_underflows(bc):
    # at L = 1e-300, L * L is 0.0 and the route test pi t / L^2 would divide
    # by zero; a periodic axis sums over half its length
    short = 2e-154 if bc is specfun.Bc.PERIODIC else 1e-154
    for length in (1e-300, short):
        with pytest.raises(ParameterError, match="too short"):
            specfun.theta_eval(bc, length, 1.0)
    # the shortest length an AxisSpec takes still evaluates, but its Dirichlet
    # sum underflows to 0.0, which is refused
    if bc is specfun.Bc.DIRICHLET:
        with pytest.raises(ParameterError, match="leaves the normal float range"):
            specfun.theta_eval(bc, 4.7e-154, 1.0)
    else:
        assert math.isfinite(specfun.theta_eval(bc, 4.7e-154, 1.0).value)


@pytest.mark.parametrize("field", ["tau", "value"])
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_finite_part_rejects_non_finite_samples(field, bad):
    # a nan value used to come back as c0 = nan, an inf tau as a LinAlgError
    samples = list(_PLATE_SAMPLES)
    samples[3] = dataclasses.replace(samples[3], **{field: bad})
    with pytest.raises(ParameterError):
        heattrace.finite_part(samples, (2.0, 1.5))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: specfun.gamma(math.nan), "nan"),
        (lambda: riesz.quad_checked(math.exp, 1.0, 0.0, epsabs=1e-10), "finite a < b"),
        (lambda: riesz.mollified_reduction(3, 2.5, 1.0, 0.1), "MollifierSpec"),
        (lambda: spectrum.BoxSpec((_AXIS, _AXIS)), "three axes"),
        (lambda: boxint.cell_overlap_energy((1.0, 1.0)), "three side lengths"),
        (lambda: spectrum.EigenStream(60.0, [], [], _STREAM.box), "needs a value"),
        (lambda: spectrum.EigenStream(60.0, [30.0], [0], _STREAM.box), "multiplicities >= 1"),
        (lambda: spectrum.EigenStream(60.0, [30.0], [-1], _STREAM.box), "multiplicities >= 1"),
        (
            lambda: stochastic.monte_carlo(lambda rng, rows: rng.random(rows), 10, 0, 0),
            "draws per row",
        ),
        (
            lambda: plates.finite_box_trace(plates.PlateConfig(1.0, 1.0), 0.0),
            "regulated trace tau",
        ),
    ],
    ids=[
        "gamma_nan", "quad_checked_bounds", "mollifier", "BoxSpec_axes", "cell_sides",
        "EigenStream_empty", "EigenStream_multiplicity_0", "EigenStream_multiplicity_-1",
        "monte_carlo_draws_per_row", "finite_box_trace_tau_0",
    ],
)
def test_malformed_arguments_are_refused(call, match):
    # an empty stream made mc_estimate raise IndexError and sample_U return
    # 0.0, as did multiplicity 0; multiplicity -1, draws_per_row=0 and the
    # finite box's 60 / tau at tau = 0 raised ZeroDivisionError
    with pytest.raises(ParameterError, match=match):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: plates.finite_box_trace(plates.PlateConfig(0.5, 1e200), 1.0),
        *(
            lambda length=length, bc=bc: spectrum.enumerate_modes(
                spectrum.BoxSpec((spectrum.AxisSpec(length, bc), _AXIS, _AXIS)), 100.0
            )
            for length in (1e160, 1e170, 1e300)
            for bc in spectrum.Bc
        ),
    ],
    ids=["finite_box_trace_L"]
    + [f"enumerate_modes_{length:.0e}_{bc.value}" for length in (1e160, 1e170, 1e300)
       for bc in spectrum.Bc],
)
def test_axes_whose_mode_scale_underflows_are_refused_by_their_count(call):
    # from a length of about 1e170 the mode scale (pi/L)^2 is 0.0, where the
    # index bound sqrt(cutoff / scale) raised ZeroDivisionError; such an axis
    # has inf indices, over the cap, as the subnormal scale at 1e160 gives
    with pytest.raises(ResourceError, match="axis of length"):
        call()


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
        (lambda m: spectrum.AxisSpec(1.0, m).bc, "periodic", spectrum.Bc.PERIODIC),
        (lambda m: spectrum.AxisSpec(1.0, m).bc, "dirichlet", spectrum.Bc.DIRICHLET),
        (lambda m: specfun.theta_eval(m, 1.0, 0.5).value, "neumann", None),
        (lambda m: specfun.theta_eval(m, 1.0, 0.5).value, "periodic", None),
    ],
    ids=["delta_alpha", "AxisSpec",
         "AxisSpec_dirichlet", "theta_eval", "theta_eval_periodic"],
)
def test_method_names_are_checked(call, name, member):
    got = call(name)  # the value string of a member is accepted
    if member is not None:
        assert got is member
    with pytest.raises(ParameterError):
        call("bogus")


def test_every_error_type_is_exported_from_one_list():
    types = [
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, CaslabError)
    ]
    assert sorted(errors.__all__) == sorted(types)
    assert caslab.__all__ == [*errors.__all__, "__version__"]
    for name in types:
        assert getattr(caslab, name) is getattr(errors, name)


_EDGES = (0.0, -1.0, math.inf, -math.inf, math.nan, 1e300, 1e-300, 1e200, 1e-200, 5e-324,
          1.0, 2.5, 1e10)


def _criterion(number, seed):
    """Criterion number at seed; an error its record caught is raised again,
    so the sweep sees what the builder raised."""
    error = acceptance.run_criterion(number, seed=seed).error
    if error is not None:
        raise RuntimeError(error)


def _edge_sweep():
    """(name, function, arguments) for every public entry point that takes
    lengths, times, exponents or aspect ratios, at each edge value; two- and
    three-argument calls take every combination.  specfun.gamma is left out:
    its OverflowError is documented."""
    one = [(x,) for x in _EDGES]
    two = list(itertools.product(_EDGES, repeat=2))
    unit = plates.PlateConfig(1.0, 1.0)
    quadrature, t_integral = boxint.DeltaMethod.QUADRATURE_3D, boxint.DeltaMethod.T_INTEGRAL
    monte_carlo = boxint.DeltaMethod.MONTE_CARLO
    long_axes = itertools.product((1e155, 1e160, 1e170, 1e200, 1e250, 1e300), spectrum.Bc, _EDGES)
    return [
        ("finite_box_trace_tau", lambda tau: plates.finite_box_trace(unit, tau), one),
        ("finite_box_trace_a_L",
         lambda a, L: plates.finite_box_trace(plates.PlateConfig(a, L), 1.0), two),
        ("per_area_trace", plates.per_area_trace, two),
        ("aspect_sides", spectrum.aspect_sides, two),
        ("lateral_gap", spectrum.lateral_gap, two),
        ("saturation_check", spectrum.saturation_check, list(itertools.product(_EDGES, repeat=3))),
        ("enumerate_modes_long_axis",
         lambda length, bc, cutoff: spectrum.enumerate_modes(
             spectrum.BoxSpec((spectrum.AxisSpec(length, bc), _AXIS, _AXIS)), cutoff),
         list(long_axes)),
        ("modes_below",
         lambda length, bc, cutoff: spectrum.AxisSpec(length, bc).modes_below(cutoff),
         list(itertools.product(_EDGES, spectrum.Bc, _EDGES))),
        ("tail_bound", _CUBE_200.tail_bound, one),
        ("regulated_trace", lambda tau: heattrace.regulated_trace(_CUBE_200, tau), one),
        ("mc_estimate",
         lambda tau, g: stochastic.mc_estimate(stochastic.SourceSpec(_CUBE_200, tau, g), 10, 0),
         two),
        ("delta_alpha_t_integral", lambda alpha: boxint.delta_alpha(alpha, t_integral), one),
        ("delta_alpha_quadrature_3d", lambda alpha: boxint.delta_alpha(alpha, quadrature), one),
        # past a side of about 1e77 the squares of r^2 left the float range
        ("delta_alpha_monte_carlo",
         lambda alpha: boxint.delta_alpha(alpha, monte_carlo, budget=10, seed=0),
         [*one, (1e80,), (1e-80,)]),
        ("theta_bar", plates.theta_bar, one),
        ("two_step_chain", riesz.two_step_chain, one),
        ("momentum_integral", lambda s, lam: riesz.momentum_integral(3, s, lam), two),
        ("short_time_coefficients",
         lambda l1, a: heattrace.short_time_coefficients(l1, 1.0, a), two),
        ("theta_eval", specfun.theta_eval, list(itertools.product(specfun.Bc, _EDGES, _EDGES))),
        ("theta_eval_array",
         lambda bc, length, t: specfun.theta_eval(bc, length, np.array([1.0, t, 0.25])),
         list(itertools.product(specfun.Bc, _EDGES, _EDGES))),
        ("heat_trace_array", lambda t: spectrum.UNIT_CUBE.heat_trace(np.array([t, 0.5])), one),
        ("mixed_cell_heat_trace_array",
         lambda l1, t: heattrace.mixed_cell_heat_trace(l1, 1.0, 1.0, np.array([[0.5], [t]])), two),
        ("upper_gamma_three_halves", specfun.upper_gamma_three_halves, one),
        ("interval_overlap", boxint.interval_overlap, two),
        ("cell_overlap_energy", lambda l1, l2: boxint.cell_overlap_energy((l1, l2, 1.0)), two),
        # a negative seed reached numpy's SeedSequence as a bare ValueError
        ("run_criterion", _criterion, [(5, -1), (6, -1)]),
    ]


def test_public_entry_points_refuse_with_package_errors():
    # at these values finite_box_trace raised ZeroDivisionError (tau = 0, or a
    # lateral period whose mode scale underflows) and OverflowError (its
    # cutoff floor at a = 1e-200), and enumerate_modes ZeroDivisionError on a
    # long axis, and AxisSpec.modes_below ValueError at a nan cutoff; every
    # refusal is a CaslabError now, at a scalar t and at an array of t holding
    # the edge.  5,776 calls, about 0.15 s (0.04 s of it one per_area_trace at
    # a = tau = 1e10, which sums 2e5 terms)
    bare = []
    for name, call, arguments in _edge_sweep():
        for args in arguments:
            try:
                call(*args)
            except CaslabError:
                pass
            except Exception as exc:  # any other type is what the sweep reports
                bare.append(f"{name}{args}: {type(exc).__name__}: {exc}")
    assert bare == []
