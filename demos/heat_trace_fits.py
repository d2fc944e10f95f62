"""Mixed-cell heat trace: the theta sums behind it, the four-term small-t
law, and the area-type coefficient against its closed form."""

import math

from caslab import heattrace, specfun

# the trace factorizes over axes; each theta factor sums its defining series
# from pi t / ell^2 = 1 up and its modular dual below, so the value must not
# jump where the route changes
ell = 1.0
td = specfun.Bc.DIRICHLET
print("Dirichlet theta on both sides of the route switch (pi t / ell^2 = 1)")
for x in (0.1, 0.5, 1.0, 2.0, 10.0):
    ev = specfun.theta_eval(td, ell, x * ell**2 / math.pi)
    print(f"  pi t/ell^2 = {x:<5} theta = {ev.value:.15e}  "
          f"({ev.terms} terms, tail < {ev.tail_bound:.1e})")
t = 1.0 / math.pi  # pi t / ell^2 rounds to exactly 1: the series' side
at = specfun.theta_eval(td, ell, t).value
below = specfun.theta_eval(td, ell, math.nextafter(t, 0.0)).value
print(f"  series at the switch vs dual one ulp below: difference {abs(at - below):.2e}")

l1, l2, a = 1.3, 0.7, 1.1
print()
print(f"Neumann x Neumann x Dirichlet cell ({l1}, {l2}, {a})")
for t in (1e-4, 1e-3, 1e-2, 1e-1):
    k = heattrace.mixed_cell_heat_trace(l1, l2, a, t)
    print(f"  t={t:<6} K(t) = {k:.12e}")

# small-t expansion K ~ c32 t^-3/2 + c1 t^-1 + c12 t^-1/2 + c0; every
# coefficient has a closed form from the per-axis expansions
# Theta_N ~ l/sqrt(4 pi t) + 1/2 and Theta_D ~ a/sqrt(4 pi t) - 1/2
coef = heattrace.short_time_coefficients(l1, l2, a)
vol_term = l1 * l2 * a / (8.0 * math.pi**1.5)
area_term = (a * (l1 + l2) - l1 * l2) / (8.0 * math.pi)
edge_term = (a - l1 - l2) / (8.0 * math.sqrt(math.pi))
print()
print("fitted small-t coefficients vs closed forms")
print(f"  t^-3/2: fit {coef['t^-3/2']:+.12e}  closed {vol_term:+.12e}")
print(f"  t^-1  : fit {coef['t^-1']:+.12e}  closed {area_term:+.12e}")
print(f"  t^-1/2: fit {coef['t^-1/2']:+.12e}  closed {edge_term:+.12e}")
print(f"  const : fit {coef['1']:+.12e}  closed {-0.125:+.12e}")

# volume law: t^{3/2} K -> V / (8 pi^{3/2}) as t -> 0
t = 1e-7
k = heattrace.mixed_cell_heat_trace(l1, l2, a, t)
print()
print(f"volume law at t={t}: t^1.5 K = {t**1.5 * k:.10e}")
print(f"V/(8 pi^1.5)            = {vol_term:.10e}")

# area coefficient on the constrained family l1 l2 = a^2 (here a = 1):
# returned value is the closed form, cross-checked internally by a fit
print()
print("B coefficient on the fixed-cross-section family (a = 1)")
for alpha in (0.5, 1.0, 2.0):
    b = heattrace.b_coefficient(alpha, 1.0 / alpha, 1.0)
    print(f"  alpha={alpha:<4} B = {b:.12e}")
