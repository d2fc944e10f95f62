"""Mollified reduction deficits across widths, at and below the critical
exponent, with Richardson extrapolation of the subcritical ladder."""

from caslab import riesz

# subcritical pair (m=1, s=3): the deficit vanishes like eps^2, so halving
# the width should shrink it by about 4 and the extrapolated limit should
# land on the exact constant 3/16
print("subcritical ladder (m=1, s=3, lambda=1)")
widths = (0.2, 0.1, 0.05)
vals = []
for eps in widths:
    spec = riesz.MollifierSpec(eps=eps)
    v = riesz.mollified_reduction(1, 3.0, 1.0, spec)
    vals.append(v)
    print(f"  eps={eps:<5} value {v:.12e}  deficit {3.0 / 16.0 - v:+.6e}")

r1 = (3.0 / 16.0 - vals[0]) / (3.0 / 16.0 - vals[1])
r2 = (3.0 / 16.0 - vals[1]) / (3.0 / 16.0 - vals[2])
print(f"  deficit ratios between successive halvings: {r1:.3f}, {r2:.3f}")

limit = riesz.richardson_limit(widths, vals, orders=(2.0, 4.0))
print(f"  Richardson limit {limit:.12e}   exact 3/16 = {3.0 / 16.0:.12e}")
print(f"  residual {abs(limit - 3.0 / 16.0):.2e}")

# critical pair (m=3, s=5/2): an extra eps^2 * log(1/eps) term contaminates
# the ladder and the ratios drift away from 4; orders (2, 2) model eps^2 and
# eps^2 log eps, but eps^4 and eps^4 log eps remain, so three widths stop
# near 8.5e-6 (four widths with (2, 2, 4) reach 2.7e-7)
print()
print("critical ladder (m=3, s=5/2, lambda=1)")
exact = riesz.momentum_integral(3, 2.5, 1.0)
vals = []
for eps in widths:
    spec = riesz.MollifierSpec(eps=eps)
    v = riesz.mollified_reduction(3, 2.5, 1.0, spec)
    vals.append(v)
    print(f"  eps={eps:<5} value {v:.12e}  deficit {exact - v:+.6e}")

r1 = (exact - vals[0]) / (exact - vals[1])
r2 = (exact - vals[1]) / (exact - vals[2])
print(f"  deficit ratios: {r1:.3f}, {r2:.3f}  (clean eps^2 would give 4)")

limit = riesz.richardson_limit(widths, vals, orders=(2.0, 2.0))
print(f"  Richardson limit {limit:.12e}")
print(f"  residual {abs(limit - exact):.2e}  <- log term keeps this large")
