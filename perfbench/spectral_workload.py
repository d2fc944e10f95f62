"""`spectral`: the stochastic trace identity at scale, in process.

Plate boxes (periodic x periodic x Dirichlet) over a grid of lateral periods
L and regulators tau reach several hundred thousand modes per box; on each,
the round runs enumerate_modes, regulated_trace, finite_box_trace and
per_area_trace.  A cube and a Neumann x Neumann x Dirichlet cell run at a
high cutoff.  mc_estimate runs on cube spectra of 178, 365 and 564 modes,
where its (65536 x n_modes) draw batch sets the peak memory.

The benchmark seed draws one length scale s in [0.8, 1.25]: every length is
multiplied by s, every regulator by s^2 and every cutoff by 1/s^2.  That
leaves each mode count, and so the work, unchanged while every input value
moves.  It also picks the Monte Carlo seeds from MC_SEED_POOL.
"""

from __future__ import annotations

import math
import random

import oracle
from caslab import heattrace, plates, spectrum, stochastic
from common import Checks, InProcess, timed

PLATE_PERIODS = (3.0, 4.0, 6.0)  # L / a
PLATE_TAUS = (0.005, 0.01)  # tau / a^2; cutoff 60 / tau
HIGH_CUTOFF = 5.0e4  # cube and mixed cell, times 1 / s^2
HIGH_TAU = 0.002  # times s^2
MIXED_ALPHA = 1.5
MC_SPECTRA = ((600.0, 0.1), (900.0, 0.07), (1200.0, 0.05))  # cube (cutoff, tau)
MC_DRAWS = 1 << 16
MC_Z_LIMIT = 4.0
# Monte Carlo seeds whose estimates lie within MC_Z_LIMIT standard errors on
# every MC_SPECTRA entry; checked by test_perfbench.test_spectral_seed_pool.
MC_SEED_POOL = (3, 17, 29, 41, 53, 67)


def _box(axes) -> spectrum.BoxSpec:
    return spectrum.BoxSpec(tuple(spectrum.AxisSpec(length, bc) for length, bc in axes))


def _cube_axes(side: float):
    return ((side, oracle.DIRICHLET),) * 3


def _mixed_axes(side: float):
    return (
        (MIXED_ALPHA * side, oracle.NEUMANN),
        (side / MIXED_ALPHA, oracle.NEUMANN),
        (side, oracle.DIRICHLET),
    )


def _plate(a: float, L: float, tau: float):
    cutoff = max(60.0 / tau, 4.0 * (math.pi / a) ** 2)
    stream = spectrum.enumerate_modes(plates.plate_box(L, a), cutoff)
    trace = heattrace.regulated_trace(stream, tau)
    finite = plates.finite_box_trace(plates.PlateConfig(a=a, L=L), tau)
    per_area = plates.per_area_trace(a, tau)
    return {
        "cutoff": cutoff,
        "modes": stream.mode_count,
        "trace": trace.value,
        "finite_box": finite.value,
        "per_area": per_area.value,
    }


def _high(axes, cutoff: float, tau: float):
    stream = spectrum.enumerate_modes(_box(axes), cutoff)
    trace = heattrace.regulated_trace(stream, tau)
    return {"modes": stream.mode_count, "trace": trace.value}


def _mc(axes, cutoff: float, tau: float, seed: int):
    stream = spectrum.enumerate_modes(_box(axes), cutoff)
    est = stochastic.mc_estimate(
        stochastic.SourceSpec(stream=stream, tau=tau), n=MC_DRAWS, seed=seed
    )
    return {"modes": stream.mode_count, "mean": est.mean, "stderr": est.stderr}


class Workload(InProcess):
    def __init__(self, seed: int, out_dir):
        rng = random.Random(seed)
        s = math.exp(rng.uniform(math.log(0.8), math.log(1.25)))
        self.scale = s
        self.plates = [
            (s, p * s, t * s * s) for t in PLATE_TAUS for p in PLATE_PERIODS
        ]
        self.high = [
            ("cube", _cube_axes(s), HIGH_CUTOFF / s**2, HIGH_TAU * s * s),
            ("mixed", _mixed_axes(s), HIGH_CUTOFF / s**2, HIGH_TAU * s * s),
        ]
        self.mc = [
            (_cube_axes(s), c / s**2, t * s * s, rng.choice(MC_SEED_POOL))
            for c, t in MC_SPECTRA
        ]

    def describe(self) -> dict:
        return {"scale": self.scale, "plates": self.plates, "high": self.high, "mc": self.mc}

    def round(self, index: int, tracer) -> list:
        ops = [timed(f"plate a={a:.4f} L={L:.4f} tau={t:.5f}", _plate, a, L, t)
               for a, L, t in self.plates]
        ops += [timed(f"{name} cutoff={c:.1f}", _high, axes, c, t)
                for name, axes, c, t in self.high]
        ops += [timed(f"mc cutoff={c:.1f} seed={seed}", _mc, axes, c, t, seed)
                for axes, c, t, seed in self.mc]
        return ops

    def check(self, ops) -> list[str]:
        checks = Checks()
        refs: dict = {}

        def reference(axes, cutoff, tau):
            key = (axes, cutoff, tau)
            if key not in refs:
                refs[key] = oracle.lattice_count_and_trace(axes, cutoff, tau)
            return refs[key]

        gaps: dict = {}
        for op in ops:
            out, kind = op.output, op.name.split()[0]
            if kind == "plate":
                a, L, tau = op.args
                count, trace = reference(oracle.plate_axes(L, a), out["cutoff"], tau)
            elif kind == "mc":
                axes, cutoff, tau, _ = op.args
                count, trace = reference(axes, cutoff, tau)
            else:
                count, trace = reference(*op.args)
            checks.expect(out["modes"] == count,
                          f"{op.name}: {out['modes']} modes, lattice count {count}")
            if kind == "plate":
                checks.rel(out["trace"], trace, 1e-12, f"{op.name} regulated_trace")
                checks.rel(out["finite_box"], trace, 1e-12, f"{op.name} finite_box_trace")
                per_area = oracle.per_area_trace(a, tau)
                checks.rel(out["per_area"], per_area, 1e-12, f"{op.name} per_area_trace")
                gap = abs(out["finite_box"] / (L * L * out["per_area"]) - 1.0)
                gaps.setdefault(round(tau / a**2, 9), {})[round(L / a, 9)] = gap
            elif kind == "mc":
                z = abs(out["mean"] - trace) / out["stderr"]
                checks.expect(z <= MC_Z_LIMIT,
                              f"{op.name}: mean {out['mean']!r} is {z:.2f} standard "
                              f"errors from the trace {trace!r}")
            else:
                checks.rel(out["trace"], trace, 1e-12, f"{op.name} regulated_trace")
        # finite_box_trace / L^2 approaches per_area_trace as L grows; below
        # 1e-12 the gap is summation round-off and no longer ordered
        for ratio, by_period in gaps.items():
            ordered = [by_period[p] for p in sorted(by_period)]
            checks.expect(
                all(later <= max(earlier, 1e-12) for earlier, later in zip(ordered, ordered[1:])),
                f"tau/a^2={ratio}: |finite_box/(L^2 per_area) - 1| does not shrink with L: {ordered}",
            )
        return checks.problems
