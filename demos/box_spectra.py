"""Separable box spectra: enumeration under a cutoff, Weyl counting,
and the lateral-gap saturation ratio across aspect ratios."""

import math
from fractions import Fraction

import numpy as np

from caslab import spectrum

# unit Dirichlet cube: lowest modes and multiplicities
cube = spectrum.UNIT_CUBE
stream = spectrum.enumerate_modes(cube, cutoff=160.0)
print("unit Dirichlet cube, eigenvalues below 160")
print(f"{'lambda':>14} {'lambda/pi^2':>12} {'mult':>5}")
for lam, mult in zip(stream.values[:8].tolist(), stream.multiplicities[:8].tolist()):
    print(f"{lam:>14.8f} {lam / math.pi**2:>12.6f} {mult:>5}")

# mode counting against the Weyl volume term
cutoff = 1.0e4
big = spectrum.enumerate_modes(cube, cutoff=cutoff)
weyl = cube.volume * cutoff**1.5 / (6.0 * math.pi**2)
print()
print(f"mode count below {cutoff:.0e}: {big.mode_count}")
print(f"Weyl leading term:        {weyl:.1f}  (ratio {big.mode_count / weyl:.4f})")

# the tail envelope certifies what the truncated heat sum is missing
t = 5.0e-3
partial = float(np.sum(big.multiplicities * np.exp(-big.values * t)))
print(f"truncated heat sum at t={t}: {partial:.6f}")
print(f"certified tail bound:         {big.tail_bound(t):.3e}")

# mixed boundary conditions shift the ladders
mixed = spectrum.BoxSpec(
    axes=(
        spectrum.AxisSpec(1.3, "neumann"),
        spectrum.AxisSpec(0.7, "neumann"),
        spectrum.AxisSpec(1.1, "dirichlet"),
    )
)
ms = spectrum.enumerate_modes(mixed, cutoff=30.0)
print()
print("Neumann/Neumann/Dirichlet cell (1.3, 0.7, 1.1), lowest entries")
for lam, mult in zip(ms.values[:5].tolist(), ms.multiplicities[:5].tolist()):
    print(f"  {lam:.8f}  x{mult}")

# gap ratio of a constrained cross-section l1 * l2 = a^2 against the square:
# exactly min(alpha, 1/alpha)^2, saturated only by the square itself
print()
print("lateral-gap saturation across aspect ratios (a = 1)")
for frac in (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(4, 3), Fraction(2)):
    alpha = float(frac)
    res = spectrum.saturation_check(*spectrum.aspect_sides(1.0, alpha))
    ref = min(alpha, 1.0 / alpha) ** 2
    mark = "  <- saturated" if res.saturated else ""
    print(f"  alpha={str(frac):>4}: ratio {res.ratio:.12f}  reference {ref:.12f}{mark}")
