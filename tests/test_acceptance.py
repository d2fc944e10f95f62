"""End-to-end acceptance battery: one test per numbered criterion.

Each test prints its one-line verdict and then asserts it, so a failed
criterion fails loudly here while the full detail stays available through
the verify-all command's JSON report.
"""

import pytest

from caslab import acceptance, riesz
from caslab.errors import ParameterError


def _run(number):
    result = acceptance.run_criterion(number)
    print(result.summary_line())
    detail = "\n".join(
        f"  {'ok' if c.passed else 'FAIL'}: {c.name} ({c.measured:.6e} vs {c.threshold:.6e})"
        for c in result.checks
    )
    assert result.passed, f"{result.summary_line()}\n{detail}"


def test_raising_criterion_keeps_its_title(monkeypatch):
    def boom(*args):
        raise RuntimeError("quadrature exploded")

    monkeypatch.setattr(riesz, "momentum_integral", boom)
    result = acceptance.run_criterion(1)
    assert result.title == "reduction constants and the combined chain"
    assert result.error == "RuntimeError: quadrature exploded"
    assert result.passed is False
    assert "error: RuntimeError" in result.summary_line()


def test_a_negative_seed_is_refused_before_any_criterion_runs(monkeypatch):
    def boom(*args):
        raise AssertionError("a criterion ran")

    monkeypatch.setattr(riesz, "momentum_integral", boom)
    with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
        acceptance.run_all(seed=-1)


def test_criterion_01_reduction_constants_and_chain():
    _run(1)


def test_criterion_02_critical_exponent_scaling():
    _run(2)


def test_criterion_03_mollified_extrapolation_and_rate():
    # The mollified deficit at the critical pair carries a width-squared-log
    # term; three Gaussian widths extrapolate no closer than ~8.5e-6 and the
    # halving ratios sit near e^2-flavored values below 4.  The declared
    # 1e-6 / ratio-4 targets are out of reach for this family, so this test
    # documents the shortfall by failing.
    _run(3)


def test_criterion_04_stochastic_mean_and_variance():
    _run(4)


def test_criterion_05_normalization_cancellation():
    _run(5)


def test_criterion_06_mixed_cell_factorization():
    _run(6)


def test_criterion_07_short_time_coefficients():
    _run(7)


def test_criterion_08_plate_finite_part_routes():
    _run(8)


def test_criterion_09_box_integral_three_methods():
    _run(9)


@pytest.mark.parametrize("seed", [42, 7, 11, 101, 2024, 5, 13, 17])
def test_criterion_9_passes_at_every_battery_seed(seed):
    # the criterion seeds of the benchmark's battery workload; criterion 9's
    # 500k controlled pairs lie within 2.1 standard errors of the closed form at each
    result = acceptance.run_criterion(9, seed)
    assert result.passed, result.summary_line()


def test_criterion_10_concavity_and_positivity():
    _run(10)


def test_criterion_11_calibration_coefficient():
    _run(11)


def test_criterion_12_saturation_ratio_exactness():
    _run(12)
