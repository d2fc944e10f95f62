"""Finite-part extraction from regulated traces: divergence subtraction,
the plate finite part, and the built-in conditioning and stability guards."""

import math

import numpy as np

from caslab import heattrace, plates
from caslab.errors import FitConditionError, FitInstabilityError

TAUS = np.geomspace(1e-3, 5e-2, 24)


def make_samples(fn):
    return [
        heattrace.HeatTraceSample(tau=float(t), value=float(fn(t)), tail_bound=0.0)
        for t in TAUS
    ]


# clean recovery: two modeled divergences plus a constant
samples = make_samples(lambda t: 3.0 * t**-1.5 + 2.0 * t**-0.5 + 5.0)
model = heattrace.finite_part(samples, exponents=(1.5, 0.5))
print("two-power synthetic data, value = 3 tau^-3/2 + 2 tau^-1/2 + 5")
print(f"  coefficients {model.coefficients}")
print(f"  finite part  {model.c0:.12f}   (nested window {model.nested_c0:.12f})")
print(f"  drift {model.stability_drift:.2e}, cond {model.condition_number:.2e}")

# the plate trace per unit area: subtracting tau^-2 and tau^-3/2 leaves the
# Casimir coefficient -pi^2/1440, with no log tau term in a flat geometry
a = 1.0
plate = [plates.per_area_trace(a, float(t)) for t in plates.default_tau_grid(a)]
pm = heattrace.finite_part(plate, exponents=plates.PLATE_EXPONENTS)
print()
print("plate per-area trace, divergences tau^-2 and tau^-3/2")
print(f"  finite part {pm.c0:+.12f}   -pi^2/1440 = {-math.pi**2 / 1440.0:+.12f}")
print(f"  drift {pm.stability_drift:.2e} (tolerance {pm.stability_tol:g} relative)")

# guard: two nearly equal exponents make the design matrix singular, and
# the fit refuses rather than return arbitrary coefficients
try:
    heattrace.finite_part(samples, exponents=(1.5, 1.5 + 1e-11))
except FitConditionError as exc:
    print()
    print(f"near-degenerate exponents rejected: {exc}")

# guard: leaving a real divergence out of the model trips the nested-window
# stability check instead of silently contaminating c0
bad = make_samples(lambda t: 3.0 * t**-2.0 + 2.0 * t**-0.5 + 5.0)
try:
    heattrace.finite_part(bad, exponents=(0.5,))
except FitInstabilityError as exc:
    print()
    print(f"unmodeled tau^-2 term correctly rejected: {exc}")
