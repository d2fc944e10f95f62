"""Parallel-plate energy per unit area: regulated trace, finite-part fit
against the analytic continuation, and the calibration ratio against the
charged-cell reference energy."""

import math

from caslab import plates

a = 1.0

# the per-area trace carries tau^{-2} and tau^{-3/2} divergences; the
# physics sits in the constant left over after they are removed
print("per-area regulated trace (a = 1)")
for tau in (1e-4, 5e-4, 1e-3):
    s = plates.per_area_trace(a, tau)
    print(f"  tau={tau:<7} value {s.value:.10e}   tail bound {s.tail_bound:.1e}")

_, model = plates.heat_fit(a)
zeta_value = plates.casimir_per_area(a)
print()
print("finite-part fit over the default window")
print(f"  divergence coefficients {model.coefficients}")
print(f"  constant term           {model.c0:+.8e}")
print(f"  analytic continuation   {zeta_value:+.8e}   (-pi^2/1440)")
print(f"  relative error          {abs(model.c0 - zeta_value) / abs(zeta_value):.2e}")
print(f"  nested-window drift     {model.stability_drift:.1e}")

# scaling: the constant term falls like a^-3, so a^3 * E is a-independent
print()
print("a^3 scaling of the fitted constant")
for a_test in (0.5, 1.0, 2.0):
    c0 = plates.heat_fit(a_test)[1].c0
    print(f"  a={a_test:<4} a^3 c0 = {a_test**3 * c0:+.10e}")

# a finite box with periodic lateral directions reproduces the per-area
# limit once the lateral size is large against sqrt(tau)
tau = 0.1
L = 16.0
config = plates.PlateConfig(a=a, L=L)
finite = plates.finite_box_trace(config, tau).value / L**2
limit = plates.per_area_trace(a, tau).value
print()
print(f"finite box L={L}, tau={tau}: per-area value {finite:.12e}")
print(f"infinite-area limit:          {limit:.12e}")
print(f"relative difference           {abs(finite - limit) / limit:.1e}")

# energy of the normalization area A = (n a)^2 for n = 2
e = plates.normalized_energy(2, a)
print()
print(f"normalized plate energy (n=2): {e:+.12e}   "
      f"expected {-4 * math.pi**2 / 1440:+.12e}")

# calibration ratio against the charged-cell reference: closed form
# N pi^2 / (1440 Delta(alpha)), with the cube minimizing it over alpha
print()
print("calibration ratio theta_bar(alpha)")
for alpha in (0.5, 1.0, 2.0):
    res = plates.theta_bar(alpha)
    print(f"  alpha={alpha:<4} theta_bar = {res.theta_bar:.12f}"
          f"   (Delta = {res.delta_used:.10f})")

cal = plates.theta_bar(1.0)
pipeline = plates.pipeline_theta_bar(cal)
print()
print("pipeline route at the cube (fitted energy / reference energy)")
print(f"  closed   {cal.theta_bar:.12f}")
print(f"  pipeline {pipeline:.12f}")
print(f"  deviation {abs(pipeline - cal.theta_bar) / cal.theta_bar:.2e}"
      f"  (tolerance {plates.PIPELINE_TOLERANCE})")
