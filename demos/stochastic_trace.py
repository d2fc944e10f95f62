"""Stochastic estimation of the regulated mode sum: a noise-averaged
energy whose mean is exactly the half-weighted heat trace."""

import numpy as np

from caslab import heattrace, spectrum, stochastic

stream = spectrum.enumerate_modes(spectrum.UNIT_CUBE, cutoff=200.0)
tau = 0.5
target = heattrace.regulated_trace(stream, tau).value
print(f"unit cube, tau = {tau}: regulated trace = {target:.12e}")

# E[U] equals the trace for any g because sigma ~ g^{-1/2} while the
# energy carries g/2 per mode; a forced all-ones draw shows the identity
class OnesRng:
    def standard_normal(self, size=None):
        return np.ones(size)


for g in (0.3, 1.0, 4.0):
    spec = stochastic.SourceSpec(stream=stream, tau=tau, g=g)
    u = stochastic.sample_U(spec, OnesRng())
    print(f"  g={g:<4} forced unit-noise U = {u:.12e}  (ratio {u / target:.15f})")

# genuine sampling: the MC mean converges to the trace at the 1/sqrt(n) rate
print()
print(f"{'n':>8} {'mean':>18} {'stderr':>12} {'z':>8}")
spec = stochastic.SourceSpec(stream=stream, tau=tau, g=1.0)
for n in (1_000, 10_000, 100_000):
    est = stochastic.mc_estimate(spec, n=n, seed=42)
    z = (est.mean - target) / est.stderr
    print(f"{n:>8} {est.mean:>18.10e} {est.stderr:>12.2e} {z:>8.2f}")

# each xi^2 has variance 2, so Var U = (1/2) sum_j lambda_j e^{-2 tau lambda_j}
est = stochastic.mc_estimate(spec, n=50_000, seed=7)
lam = stream.modes()
var_exact = 0.5 * float(np.sum(lam * np.exp(-2.0 * tau * lam)))
print()
print(f"sample variance of U {est.stderr**2 * est.n:.4e}")
print(f"exact variance       {var_exact:.4e}")

# a fixed seed reproduces bit-identically; another seed changes the draws
# but not the statistics
a = stochastic.mc_estimate(spec, n=20_000, seed=11)
b = stochastic.mc_estimate(spec, n=20_000, seed=11)
c = stochastic.mc_estimate(spec, n=20_000, seed=12)
print()
print(f"same seed:     identical = {a.mean == b.mean and a.stderr == b.stderr}")
print(f"another seed:  mean moves by {abs(a.mean - c.mean):.3e} "
      f"({abs(a.mean - c.mean) / a.stderr:.2f} stderr)")
