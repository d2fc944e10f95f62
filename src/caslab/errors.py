"""Exception hierarchy and the checks shared across the package.

Every error raised by library code derives from CaslabError so callers can
catch one base type at module boundaries.  Subclasses carry enough state to
report what went wrong without re-running the computation.  check_count is
the one validator for integer counts (sample sizes, seeds, channels, cells),
check_choice the one for method and boundary-condition names, and
check_positive the one for lengths, times and spectral values.  CheckReport
is the one record of a measured check: the acceptance battery, the
command-line reports and the boxint scans all build theirs from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class CaslabError(Exception):
    """Base class for all package errors."""


class ParameterError(CaslabError, ValueError):
    """An argument is outside the supported domain."""


class PoleError(ParameterError):
    """Evaluation requested exactly at a pole of the function."""


class ConvergenceError(CaslabError):
    """An iterative computation failed to reach its tolerance."""


class QuadratureError(ConvergenceError):
    """A quadrature routine could not certify the requested accuracy."""


class ConstraintError(ParameterError):
    """Geometric side conditions are violated (e.g. a fixed-product family)."""


class CutoffError(CaslabError):
    """A spectral truncation bound exceeds the accuracy target.

    Attributes
    ----------
    tail_bound : float
        Certified bound on the discarded part.
    target : float
        Accuracy budget that was exceeded.
    """

    def __init__(self, message: str, tail_bound: float, target: float):
        super().__init__(message)
        self.tail_bound = tail_bound
        self.target = target


class FitConditionError(CaslabError):
    """Least-squares design matrix is too ill conditioned to trust."""

    def __init__(self, message: str, condition_number: float):
        super().__init__(message)
        self.condition_number = condition_number


class FitInstabilityError(CaslabError):
    """Extracted coefficient moves too much between nested fit windows."""

    def __init__(self, message: str, drift: float, tolerance: float):
        super().__init__(message)
        self.drift = drift
        self.tolerance = tolerance


class ResourceError(CaslabError):
    """A computation would exceed the configured resource budget."""


class EmptySpectrumError(CaslabError):
    """A spectral cutoff admits no modes at all."""


class ConfigError(CaslabError):
    """Invalid run configuration supplied to the command-line harness."""


def check_count(value, what: str, minimum: int = 1) -> int:
    """Return value if it is an int (bool excluded) of at least minimum;
    raise ParameterError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ParameterError(f"{what} must be an integer >= {minimum}")
    return value


def check_choice(value, kind, what: str):
    """Return value as a member of the enum kind, accepting its value string;
    raise ParameterError for anything else."""
    if isinstance(value, kind):
        return value
    try:
        return kind(value)
    except ValueError:
        names = ", ".join(member.value for member in kind)
        raise ParameterError(f"unknown {what} {value!r}; expected one of {names}") from None


def check_positive(value, what: str) -> float:
    """Return value as a float if it is a finite real > 0 (bool excluded);
    raise ParameterError otherwise."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value) and value > 0.0
    except TypeError:
        ok = False
    if not ok:
        raise ParameterError(f"{what} must be finite and > 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    measured: float
    threshold: float

    @classmethod
    def measure(cls, name: str, measured: float, threshold: float) -> CheckReport:
        """A check that passes when measured <= threshold."""
        return cls(
            name=name,
            passed=bool(measured <= threshold),
            measured=float(measured),
            threshold=float(threshold),
        )

    @classmethod
    def flag(cls, name: str, ok: bool) -> CheckReport:
        """A boolean check: measured 0 when ok, 1 when not, against threshold 0."""
        return cls.measure(name, 0.0 if ok else 1.0, 0.0)
