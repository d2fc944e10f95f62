"""Mean inverse distance over unit-volume aspect cells: three independent
evaluation routes, the cubical maximum, and the supporting monotonicity
ingredients (log-concavity scan and the positivity chain)."""

import numpy as np

from caslab import boxint

# Delta(alpha) for the cell (alpha^2/3, alpha^-1/3, alpha^-1/3) * scale:
# a one-dimensional t-integral, a 3D quadrature, and pair-sampling MC, each
# alpha with its own seed so the MC column holds five independent agreements
print("Delta(alpha) by three methods")
print(f"{'alpha':>6} {'t-integral':>18} {'3D quadrature':>18} {'MC (5e5 pairs)':>18}")
for seed, alpha in enumerate((0.5, 0.75, 1.0, 1.5, 2.0), start=99):
    ti = boxint.delta_alpha(alpha, boxint.DeltaMethod.T_INTEGRAL)
    q3 = boxint.delta_alpha(alpha, boxint.DeltaMethod.QUADRATURE_3D)
    mc = boxint.delta_alpha(alpha, boxint.DeltaMethod.MONTE_CARLO, budget=500_000, seed=seed)
    print(f"{alpha:>6} {ti:>18.12f} {q3:>18.12f} {mc.mean:>18.12f}")

# the cube value has a classical closed form
cube = boxint.delta_alpha(1.0)
closed = boxint.delta_cube_closed_form()
print()
print(f"cube by t-integral  {cube:.15f}")
print(f"cube closed form    {closed:.15f}")
print(f"difference          {abs(cube - closed):.2e}")

# Delta is symmetric under alpha -> 1/alpha and maximal at the cube
print()
print("reciprocal symmetry and the cubical maximum")
for alpha in (1.25, 1.5, 2.0):
    d, dinv = boxint.delta_alpha(alpha), boxint.delta_alpha(1.0 / alpha)
    print(f"  Delta({alpha}) - Delta({1 / alpha:.4f}) = {d - dinv:.3e}  "
          f"deficit vs cube {closed - d:.6f}")

# reference energy of a doubly charged cell, just the -(n^2/a) Q Delta law
e = boxint.reference_energy(q_strength=0.25, n=2, a=1.0, delta=closed)
print(f"\nreference energy (Q=1/4, n=2, a=1, cube): {e:.12f}")


def show(checks):
    for c in checks:
        verdict = "ok  " if c.passed else "FAIL"
        print(f"  {verdict} {c.name} ({c.measured:.3e} vs {c.threshold:g})")


# concavity of u -> log I_{e^u}(t): a strictly negative second derivative, in
# closed form, over the (t, u) grid and a strictly decreasing product along beta
report = boxint.log_concavity_scan()
print()
print("log-concavity scan")
show(report.checks)

# the positivity chain behind the derivative argument: k > 0, h > 0,
# h(0) = 0, and h' = 2 E k on a strided subgrid
pos = boxint.positivity_chain()
print()
print("positivity chain")
print(f"  k_min {pos.k_min:.6e}  h_min {pos.h_min:.6e}  h(0) = {pos.h_at_zero}")
show(pos.checks)

# small-r behavior of k: dominated by (5/6) r^4
rs = np.array([0.05, 0.1, 0.2])
for r in rs:
    print(f"  k({r:.2f}) / ((5/6) r^4) = {boxint.chain_terms(float(r))[1] / ((5/6) * r**4):.6f}")
