"""Exception hierarchy and the checks shared across the package.

Every error raised by library code derives from CaslabError so callers can
catch one base type at module boundaries.  An error's message carries the
numbers that tripped it; the types hold no other state.  check_count is
the one validator for integer counts (sample sizes, seeds, channels, cells),
check_float_count for counts that enter float arithmetic, check_choice for
method and boundary-condition names, check_positive for lengths, times and
spectral values, and check_normal for computed results: given the
computation itself, it is the one place where an overflow becomes a
refusal.  check_positive_nodes and check_normal_at are the same two checks
over arrays of nodes: each refuses at the first node that fails, with the
scalar check's message for that node.  CheckReport is the one record of a
measured check: the acceptance battery, the command-line reports and the
boxint scans all build theirs from it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# the error types, which the package root re-exports
__all__ = [
    "CaslabError", "ConfigError", "ConstraintError", "ConvergenceError",
    "CutoffError", "EmptySpectrumError", "FitConditionError", "FitInstabilityError",
    "ParameterError", "PoleError", "QuadratureError", "ResourceError",
]


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
    """A spectral truncation bound exceeds the accuracy target."""


class FitConditionError(CaslabError):
    """Least-squares design matrix is too ill conditioned to trust."""


class FitInstabilityError(CaslabError):
    """Extracted coefficient moves too much between nested fit windows."""


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


def check_float_count(value, what: str) -> int:
    """check_count for a count that enters float arithmetic: ParameterError
    also where it is past the float range."""
    if check_count(value, what) > sys.float_info.max:
        raise ParameterError(f"{what} leaves the float range")
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


def check_positive_nodes(t, what: str) -> np.ndarray:
    """t, a real or an array of reals, as a float array of its shape (0-d for
    a scalar) once every entry passes check_positive; ParameterError, as
    check_positive raises it, at the first entry that does not."""
    try:
        nodes = np.asarray(t)
    except (TypeError, ValueError):  # a ragged sequence, refused below as not a real
        nodes = np.array(None)
    if nodes.ndim == 0:
        return np.array(check_positive(t, what))
    if nodes.dtype.kind not in "iuf":
        raise ParameterError(f"{what} must be an array of reals, got dtype {nodes.dtype}")
    nodes = nodes.astype(float)
    ok = (nodes > 0.0) & (nodes < math.inf)
    if np.count_nonzero(ok) < ok.size:
        check_positive(float(nodes.flat[ok.argmin()]), what)
    return nodes


def check_normal(value: float | Callable[[], float], what: str) -> float:
    """Return value, or what value() computes with an OverflowError taken as
    inf, if it is a normal float of either sign; ParameterError otherwise."""
    if callable(value):
        try:
            value = value()
        except OverflowError:
            value = math.inf
    if not sys.float_info.min <= abs(value) < math.inf:
        raise ParameterError(f"{what} = {value!r} leaves the normal float range")
    return value


def check_normal_at(values, what: Callable[[int], str]):
    """values, an array or a float, once each entry is a normal float of
    either sign; ParameterError otherwise, as check_normal raises it for the
    first entry that is not, named what(its index in values.ravel())."""
    size = np.abs(values)
    ok = (size >= sys.float_info.min) & (size < math.inf)
    if np.count_nonzero(ok) < ok.size:
        i = int(ok.argmin())
        check_normal(float(np.ravel(values)[i]), what(i))
    return values


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
