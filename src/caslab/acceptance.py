"""Executable acceptance suite: every end-to-end numeric claim in one place.

Each criterion function runs its checks and returns a CriterionResult; the
test suite and the command-line verify-all report share this module so a
claim can never pass in one and fail in the other.  A claim that a command
also reports is decided by one check builder below: it takes the parameters
and the values its caller has computed and returns CheckReports at its one
threshold, and the criteria call it on their fixed grids while the commands
call it at the user's parameters.  Checks measure actual deviations and
compare them to the declared thresholds; nothing is asserted that is not
measured.  Every criterion builder takes the run's seed; the deterministic
ones ignore it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import boxint, heattrace, plates, riesz, spectrum, stochastic
from .errors import CheckReport

CUBE_CUTOFF = 200.0
TEN_MODE_CUTOFF = 11.5 * math.pi**2  # unit Dirichlet cube: 10 modes in total
# aspect ratios a command shares with a criterion: boxint's with 12, calibrate's with 11
RATIONAL_ALPHAS = (0.5, 2.0 / 3.0, 0.75, 1.0, 4.0 / 3.0, 1.5, 2.0)
THETA_ALPHAS = (0.5, 0.75, 1.0, 1.5, 2.0)


@dataclass
class CriterionResult:
    number: int
    title: str
    checks: list[CheckReport] = field(default_factory=list)
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    def add(self, name: str, measured: float, threshold: float) -> None:
        self.checks.append(CheckReport.measure(name, measured, threshold))

    def add_flag(self, name: str, ok: bool) -> None:
        self.checks.append(CheckReport.flag(name, ok))

    def summary_line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.error is not None:
            detail = f"error: {self.error}"
        else:
            worst = max(
                self.checks,
                key=lambda c: (not c.passed, c.measured / c.threshold if c.threshold else 0.0),
            )
            detail = f"worst check '{worst.name}': {worst.measured:.3e} vs {worst.threshold:.3e}"
        return f"[{tag}] criterion {self.number}: {self.title} ({detail})"

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


_CRITERIA: dict[int, tuple[str, Callable[[CriterionResult, int], None]]] = {}


def _criterion(number: int, title: str):
    """Register a builder that adds criterion number's checks to a result."""

    def register(build):
        _CRITERIA[number] = (title, build)
        return build

    return register


def _rel(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def route_checks(
    m: int, s: float, lam: float, closed: float, momentum: float, schwinger: float | None = None
) -> list[CheckReport]:
    """The momentum route, and the Schwinger route where its caller has it,
    vs the closed form: relative, 1e-10."""
    where = f"(m={m}, s={s}, lam={lam})"
    routes = {"momentum": momentum, "schwinger": schwinger}
    return [CheckReport.measure(f"{route} vs closed {where}", _rel(value, closed), 1e-10)
            for route, value in routes.items() if value is not None]


def chain_checks(lam: float, c1: float, c3: float, nested: float) -> list[CheckReport]:
    """Stage product vs 1/(32 pi^2) at 1e-14 and nested chain vs
    1/(32 pi^2 lam) at 1e-7, both relative."""
    combined = 1.0 / (32.0 * math.pi**2)
    return [CheckReport.measure("stage product vs 1/(32 pi^2)", _rel(c1 * c3, combined), 1e-14),
            CheckReport.measure(f"nested chain vs 1/(32 pi^2 lam) (lam={lam})",
                                _rel(nested, combined / lam), 1e-7)]


def short_time_checks(a: float, alpha: float, coeffs: dict) -> list[CheckReport]:
    """Fitted coefficients of the cell aspect_sides(a, alpha) vs the closed
    forms of BoxSpec.heat_coefficients: t^-3/2 and t^-1 relative, at 1e-3 and
    1e-2.  A long thin cell's window cannot resolve the t^-1/2 and constant
    terms, so each of those deviates by its share of the volume term at the
    window's top, at 2e-11."""
    sides = spectrum.aspect_sides(a, alpha)
    closed = spectrum.mixed_cell(*sides).heat_coefficients()
    t = float(heattrace.short_time_grid(min(sides))[-1])
    where = f"(a={a}, alpha={alpha})"
    return [CheckReport.measure(f"t^-3/2 coefficient vs volume {where}",
                                _rel(coeffs["t^-3/2"], closed["t^-3/2"]), 1e-3),
            CheckReport.measure(f"t^-1 coefficient vs B {where}",
                                _rel(coeffs["t^-1"], closed["t^-1"]), 1e-2),
            *(CheckReport.measure(f"{name} vs closed form, share of volume term {where}",
                                  abs(coeffs[k] - closed[k]) * t**p / closed["t^-3/2"], 2e-11)
              for k, name, p in (("t^-1/2", "t^-1/2 coefficient", 1.0),
                                 ("1", "constant term", 1.5)))]


def plate_checks(a: float, fit: float, zeta: float) -> list[CheckReport]:
    """Heat fit at 5e-3 and zeta route at 1e-12 vs -pi^2/(1440 a^3), relative;
    two channels double the zeta route exactly."""
    target = -math.pi**2 / (1440.0 * a**3)
    return [CheckReport.measure(f"heat fit vs -pi^2/(1440 a^3) (a={a})", _rel(fit, target), 5e-3),
            CheckReport.measure(f"zeta route vs -pi^2/(1440 a^3) (a={a})",
                                _rel(zeta, target), 1e-12),
            CheckReport.flag(f"two channels double the zeta route exactly (a={a})",
                             plates.casimir_per_area(a, 2) == 2.0 * zeta)]


def trace_identity_check(trace: float, est: stochastic.MCEstimate) -> list[CheckReport]:
    """Monte Carlo mean of U within three standard errors of the regulated trace."""
    z3 = abs(est.mean - trace) / (3.0 * est.stderr)
    return [CheckReport.measure("|MC mean - trace| / (3 stderr)", z3, 1.0)]


def delta_cube_check(t_integral: float, closed: float) -> list[CheckReport]:
    """T-integral route of Delta(1) vs the cube's closed form: absolute, 1e-6."""
    return [CheckReport.measure("TIntegral vs closed form", abs(t_integral - closed), 1e-6)]


def pipeline_check(cal: plates.CalibrationResult, pipeline: float) -> list[CheckReport]:
    """Pipeline calibration vs its closed form: relative, PIPELINE_TOLERANCE."""
    return [CheckReport.measure(f"pipeline vs closed form (alpha={cal.alpha}, N={cal.n_channels})",
                                _rel(pipeline, cal.theta_bar), plates.PIPELINE_TOLERANCE)]


@_criterion(1, "reduction constants and the combined chain")
def criterion_1(res: CriterionResult, seed: int) -> None:
    # hand-derived closed forms: 1/(6 pi^2 lam) at (3, 5/2), 3/16 at (1, 3, 1)
    target_3 = 1.0 / (6.0 * math.pi**2)
    for lam in (0.5, 1.0, 4.0):
        got = riesz.momentum_integral(3, 2.5, lam)
        res.checks += route_checks(3, 2.5, lam, target_3 / lam, got)
    got = riesz.momentum_integral(1, 3.0, 1.0)
    res.checks += route_checks(1, 3.0, 1.0, 3.0 / 16.0, got)
    res.checks += chain_checks(1.0, *riesz.two_step_chain(1.0))


@_criterion(2, "critical exponent gives a pure 1/lambda law")
def criterion_2(res: CriterionResult, seed: int) -> None:
    for m in (1, 2, 3, 4):
        s = riesz.critical_exponent(m)
        vals = [lam * riesz.momentum_integral(m, s, lam) for lam in (0.5, 1.0, 5.0)]
        spread = (max(vals) - min(vals)) / abs(vals[1])
        res.add(f"lambda-independence at m={m}", spread, 1e-8)


@_criterion(3, "mollified restriction: extrapolation and rate")
def criterion_3(res: CriterionResult, seed: int) -> None:
    eps = (0.2, 0.1, 0.05)
    target = riesz.momentum_integral(3, 2.5, 1.0)
    vals = [
        riesz.mollified_reduction(3, 2.5, 1.0, riesz.MollifierSpec(eps=e)) for e in eps
    ]
    errors = [abs(v - target) for v in vals]
    extrapolated = riesz.richardson_limit(eps, vals)
    res.add("Richardson limit vs momentum_integral", abs(extrapolated - target), 1e-6)
    for i in range(2):
        ratio = errors[i] / errors[i + 1]
        res.add(f"error ratio {eps[i]}/{eps[i + 1]} within 4 +- 0.5", abs(ratio - 4.0), 0.5)


@_criterion(4, "stochastic trace identity: mean and variance")
def criterion_4(res: CriterionResult, seed: int) -> None:
    stream = spectrum.enumerate_modes(spectrum.UNIT_CUBE, CUBE_CUTOFF)
    tau = 0.5
    trace = heattrace.regulated_trace(stream, tau).value
    spec = stochastic.SourceSpec(stream=stream, tau=tau)
    est = stochastic.mc_estimate(spec, n=100_000, seed=seed)
    res.checks += trace_identity_check(trace, est)
    small = spectrum.enumerate_modes(spectrum.UNIT_CUBE, TEN_MODE_CUTOFF)
    res.add_flag("10-mode spectrum has 10 modes", small.mode_count == 10)
    est2 = stochastic.mc_estimate(
        stochastic.SourceSpec(stream=small, tau=tau), n=1_000_000, seed=seed + 1
    )
    sample_var = est2.stderr**2 * est2.n
    lam = small.modes()
    exact_var = 0.5 * float(np.sum(lam * np.exp(-2.0 * tau * lam)))
    res.add("sample variance vs fourth-moment value", _rel(sample_var, exact_var), 0.05)


@_criterion(5, "exact cancellation of the normalization g")
def criterion_5(res: CriterionResult, seed: int) -> None:
    stream = spectrum.enumerate_modes(spectrum.UNIT_CUBE, CUBE_CUTOFF)
    worst = 0.0
    for k in range(10):
        rng_a = np.random.Generator(np.random.Philox(seed + k))
        rng_b = np.random.Generator(np.random.Philox(seed + k))
        u_a = stochastic.sample_U(
            stochastic.SourceSpec(stream=stream, tau=0.5, g=1.0), rng_a
        )
        u_b = stochastic.sample_U(
            stochastic.SourceSpec(stream=stream, tau=0.5, g=10.0), rng_b
        )
        worst = max(worst, abs(u_a - u_b) / math.ulp(max(u_a, u_b)))
    res.add("max |U(g) - U(10g)| in ulps of U", worst, 4.0)


@_criterion(6, "mixed-cell heat trace factorizes")
def criterion_6(res: CriterionResult, seed: int) -> None:
    rng = np.random.default_rng(seed)
    cells = rng.uniform(0.5, 2.0, size=(5, 3))
    times = np.array([0.1, 0.5, 1.0])
    worst = 0.0
    for l1, l2, a in cells:
        box = spectrum.mixed_cell(float(l1), float(l2), float(a))
        for t, fact in zip(times.tolist(), box.heat_trace(times).tolist()):
            stream = spectrum.enumerate_modes(box, 40.0 / t)
            direct = float(np.sum(stream.multiplicities * np.exp(-t * stream.values)))
            worst = max(worst, abs(fact - direct))
    res.add("max |factorized - spectral sum|", worst, 1e-10)


@_criterion(7, "short-time expansion coefficients of the cell trace")
def criterion_7(res: CriterionResult, seed: int) -> None:
    a = 1.0
    grid = np.geomspace(0.25, 4.0, 17)
    b_vals = []
    for al in grid.tolist():
        sides = spectrum.aspect_sides(a, al)
        res.checks += short_time_checks(a, al, heattrace.short_time_coefficients(*sides))
        b_vals.append(heattrace.b_coefficient(*sides))
    idx = int(np.argmin(b_vals))
    res.add_flag("B minimized at the cube on the alpha grid", abs(grid[idx] - 1.0) < 1e-12)
    b_cube = heattrace.b_coefficient(1.0, 1.0, 1.0)
    res.add("B(1,1,1) vs 1/(8 pi)", _rel(b_cube, 1.0 / (8.0 * math.pi)), 1e-14)


@_criterion(8, "plate finite part: fit vs zeta route")
def criterion_8(res: CriterionResult, seed: int) -> None:
    _, model = plates.heat_fit(1.0)
    res.checks += plate_checks(1.0, model.c0, plates.casimir_per_area(1.0))


@_criterion(9, "box integral by three methods, symmetry, monotonicity")
def criterion_9(res: CriterionResult, seed: int) -> None:
    closed = boxint.delta_cube_closed_form()
    ti = boxint.delta_alpha(1.0, boxint.DeltaMethod.T_INTEGRAL)
    res.checks += delta_cube_check(ti, closed)
    q3 = boxint.delta_alpha(1.0, boxint.DeltaMethod.QUADRATURE_3D)
    res.add("Quadrature3D vs closed form", abs(q3 - closed), 1e-5)
    mc = boxint.delta_alpha(1.0, boxint.DeltaMethod.MONTE_CARLO, budget=500_000, seed=seed)
    res.add("MC z-score vs closed form", abs(mc.mean - closed) / mc.stderr, 3.0)
    for alpha in (1.25, 1.5, 2.0, 3.0, 5.0):
        dev = abs(
            boxint.delta_alpha(alpha, boxint.DeltaMethod.T_INTEGRAL)
            - boxint.delta_alpha(1.0 / alpha, boxint.DeltaMethod.T_INTEGRAL)
        )
        res.add(f"symmetry |D(a)-D(1/a)| at alpha={alpha}", dev, 1e-8)
    betas = np.arange(0.0, 2.01, 0.25)
    deltas = [
        boxint.delta_alpha(math.exp(b), boxint.DeltaMethod.T_INTEGRAL) for b in betas
    ]
    margins = [deltas[i] - deltas[i + 1] for i in range(len(deltas) - 1)]
    res.add_flag("Delta(e^beta) strictly decreasing", all(m > 1e-7 for m in margins))


@_criterion(10, "log-concavity scan and positivity chain")
def criterion_10(res: CriterionResult, seed: int) -> None:
    # each scan decides its own checks; the criterion reports them as they are
    res.checks += boxint.log_concavity_scan().checks
    res.checks += boxint.positivity_chain().checks


@_criterion(11, "calibration coefficient: closed form and pipeline")
def criterion_11(res: CriterionResult, seed: int) -> None:
    closed_delta = boxint.delta_cube_closed_form()
    cal = plates.theta_bar(1.0, 2)
    res.add(
        "theta_bar(1, 2) vs pi^2/(720 Delta_3(-1))",
        _rel(cal.theta_bar, math.pi**2 / (720.0 * closed_delta)),
        1e-6,
    )
    res.add("theta_bar(1, 2) vs quoted decimal", abs(cal.theta_bar - 0.0072824), 1e-6)
    res.checks += pipeline_check(cal, plates.pipeline_theta_bar(cal))
    thetas = [(cal if al == 1.0 else plates.theta_bar(al, 2)).theta_bar for al in THETA_ALPHAS]
    res.add_flag("alpha-grid minimum at alpha=1", THETA_ALPHAS[int(np.argmin(thetas))] == 1.0)


@_criterion(12, "lateral gap ratio is exactly min(a^2, a^-2)")
def criterion_12(res: CriterionResult, seed: int) -> None:
    checks = {al: spectrum.saturation_check(*spectrum.aspect_sides(1.0, al))
              for al in RATIONAL_ALPHAS}
    res.add_flag("ratio bit-exact on the rational grid",
                 all(c.ratio == min(al, 1.0 / al) ** 2 for al, c in checks.items()))
    res.add_flag("saturation exactly at alpha = 1",
                 all(c.saturated == (al == 1.0) for al, c in checks.items()))


def run_criterion(number: int, seed: int = 42) -> CriterionResult:
    title, build = _CRITERIA[number]
    res = CriterionResult(number, title)
    try:
        build(res, seed)
    except Exception as exc:  # surface module errors as a failed criterion
        res.error = f"{type(exc).__name__}: {exc}"
    return res


def run_all(seed: int = 42) -> list[CriterionResult]:
    return [run_criterion(n, seed=seed) for n in sorted(_CRITERIA)]

