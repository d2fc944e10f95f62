"""Command-line driver: reproducible runs with JSON reports and CSV tables.

Every run resolves its configuration (config file, then flag overrides, then
command defaults), executes one named pipeline, and writes a report whose
manifest echoes the full resolved configuration and package version.  Exit
status is 0 when every declared assertion passed, 1 when an assertion or a
module computation failed, and 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__, acceptance, boxint, heattrace, plates, riesz, spectrum, stochastic
from .errors import CaslabError, ConfigError, check_normal, check_positive

OUT_ENV_VAR = "CASLAB_OUT"
_FORMATS = ("json", "both")
_DEFAULT_SEED = 42
_DEFAULT_FORMAT = "json"

_PARAM_HELP = {
    "lam": "spectral value lambda",
    "a": "transverse width a",
    "alpha": "aspect ratio alpha",
    "tau": "heat regulator tau",
    "cutoff": "eigenvalue cutoff",
    "n_samples": "Monte Carlo sample count",
    "n_channels": "scalar channel count N",
}


@dataclass
class RunConfig:
    """Fully resolved run: command, parameters, seed, output destination."""

    command: str
    params: dict
    seed: int
    out_dir: Path
    fmt: str

    def manifest(self) -> dict:
        return {
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "out_dir": str(self.out_dir),
            "format": self.fmt,
        }


_COMMANDS: dict[str, tuple[str, dict, Callable[[RunConfig], tuple]]] = {}


def _command(name: str, help: str, **defaults):
    """Register a runner as command name.  Each default becomes a flag typed
    like it and, with seed, out and format, a key a config file may set."""

    def register(runner):
        _COMMANDS[name] = (help, defaults, runner)
        return runner

    return register


def _fmt_num(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_report(config: RunConfig, report: dict, tables: dict[str, list]) -> None:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    body = {"manifest": config.manifest(), **report}
    path = config.out_dir / f"{config.command}.json"
    # result dataclasses (checks, estimates, fits) serialize as their fields
    text = json.dumps(body, indent=2, sort_keys=True, default=dataclasses.asdict)
    path.write_text(text + "\n")
    if config.fmt == "both":
        for name, rows in tables.items():
            header, data = rows[0], rows[1:]
            lines = [",".join(header)]
            lines += [",".join(_fmt_num(x) for x in row) for row in data]
            (config.out_dir / f"{config.command}_{name}.csv").write_text(
                "\n".join(lines) + "\n"
            )


@_command("reduce", "reduction constants, Schwinger route, two-step chain", lam=1.0)
def _run_reduce(config: RunConfig):
    lam = check_positive(config.params["lam"], "spectral value lambda")
    checks = []
    rows = [("m", "s", "closed", "momentum", "schwinger")]
    for m, s in ((1, 3.0), (2, 2.0), (3, 2.5), (3, 4.0), (4, 3.0)):
        # a subnormal closed form has lost digits the 1e-10 route checks need
        closed = check_normal(
            lambda: riesz.reduction_constant(m, s) * lam ** (0.5 * m - s),
            f"closed form at lam={lam!r}, m={m}, s={s}",
        )
        mom = riesz.momentum_integral(m, s, lam)
        sch = riesz.schwinger_integral(m, s, lam)
        rows.append((float(m), s, closed, mom, sch))
        checks += acceptance.route_checks(m, s, lam, closed, mom, sch)
    c1, c3, nested = riesz.two_step_chain(lam)
    checks += acceptance.chain_checks(lam, c1, c3, nested)
    report = {
        "lam": lam,
        "two_step_chain": {"c_1d": c1, "c_3d": c3, "nested": nested},
        "checks": checks,
    }
    return report, {"constants": rows}


@_command(
    "spectrum", "enumerate a mixed cell and report the lateral gap",
    a=1.0, alpha=1.0, cutoff=100.0,
)
def _run_spectrum(config: RunConfig):
    l1, l2, a = spectrum.aspect_sides(config.params["a"], config.params["alpha"])
    stream = spectrum.enumerate_modes(
        spectrum.mixed_cell(l1, l2, a), config.params["cutoff"]
    )
    pairs = list(zip(stream.values.tolist(), stream.multiplicities.tolist()))
    modes = [{"value": v, "multiplicity": m} for v, m in pairs]
    report = {
        "cell": {"l1": l1, "l2": l2, "a": a},
        "stream": {"cutoff": stream.cutoff, "modes": modes},
        "mode_count": stream.mode_count,
        "lateral_gap": spectrum.lateral_gap(l1, l2),
        "saturation": spectrum.saturation_check(l1, l2, a),
        "checks": [],
    }
    rows = [("value", "multiplicity")]
    rows += [(v, float(m)) for v, m in pairs]
    return report, {"modes": rows}


@_command(
    "heat-trace", "mixed-cell trace table and short-time coefficients", a=1.0, alpha=1.0
)
def _run_heat_trace(config: RunConfig):
    l1, l2, a = spectrum.aspect_sides(config.params["a"], config.params["alpha"])
    grid = heattrace.short_time_grid(min(l1, l2, a))
    rows = [("t", "trace")]
    rows += zip(grid.tolist(), heattrace.mixed_cell_heat_trace(l1, l2, a, grid).tolist())
    coeffs = heattrace.short_time_coefficients(l1, l2, a)
    report = {
        "cell": {"l1": l1, "l2": l2, "a": a},
        "coefficients": coeffs,
        "b_closed_form": heattrace.b_coefficient(l1, l2, a),
        "checks": acceptance.short_time_checks(a, config.params["alpha"], coeffs),
    }
    return report, {"trace": rows}


@_command("finite-part", "per-area plate trace fit and finite part", a=1.0)
def _run_plates(config: RunConfig):
    # one runner for both plate commands: they decide criterion 8's one claim
    a = config.params["a"]
    samples, model = plates.heat_fit(a)
    zeta = plates.casimir_per_area(a)
    report = {
        "a": a,
        "model": model,
        "casimir_heat_fit": model.c0,
        "casimir_zeta_route": zeta,
        "checks": acceptance.plate_checks(a, model.c0, zeta),
    }
    return report, {"samples": [("tau", "value"), *((s.tau, s.value) for s in samples)]}


@_command(
    "stochastic", "Monte Carlo check of the stochastic trace identity",
    tau=0.5, cutoff=200.0, n_samples=100_000,
)
def _run_stochastic(config: RunConfig):
    tau = config.params["tau"]
    cutoff = config.params["cutoff"]
    n = config.params["n_samples"]
    stream = spectrum.enumerate_modes(spectrum.UNIT_CUBE, cutoff)
    trace = heattrace.regulated_trace(stream, tau)
    est = stochastic.mc_estimate(
        stochastic.SourceSpec(stream=stream, tau=tau), n=n, seed=config.seed
    )
    z = abs(est.mean - trace.value) / est.stderr
    report = {
        "tau": tau,
        "cutoff": cutoff,
        "trace": trace,
        "estimate": est,
        "z_score": z,
        "checks": acceptance.trace_identity_check(trace.value, est),
    }
    return report, {}


@_command("boxint", "Delta(alpha) table, concavity scan, positivity chain")
def _run_boxint(config: RunConfig):
    delta_rows = [("alpha", "delta")]
    deltas = {}
    for al in acceptance.RATIONAL_ALPHAS:
        deltas[al] = boxint.delta_alpha(al, boxint.DeltaMethod.T_INTEGRAL)
        delta_rows.append((al, deltas[al]))
    scan = boxint.log_concavity_scan()
    chain = boxint.positivity_chain()
    margin_rows = [("t", "max_second_difference"), *scan.max_by_t]
    closed = acceptance.delta_cube_check(deltas[1.0], boxint.delta_cube_closed_form())
    report = {
        "deltas": {f"{al:.6f}": d for al, d in deltas.items()},
        "concavity": scan,
        "positivity": chain,
        "checks": [*closed, *scan.checks, *chain.checks],
        "concavity_passed": scan.passed,
        "positivity_passed": chain.passed,
    }
    return report, {"delta": delta_rows, "concavity": margin_rows}


_command("plates", "plate pipeline: HeatFit vs ZetaRoute", a=1.0)(_run_plates)


@_command(
    "calibrate", "calibration coefficient, closed form and pipeline",
    alpha=1.0, n_channels=2,
)
def _run_calibrate(config: RunConfig):
    alpha = config.params["alpha"]
    n_channels = config.params["n_channels"]
    cal = plates.theta_bar(alpha, n_channels)
    pipeline = plates.pipeline_theta_bar(cal)
    rows = [("alpha", "theta_bar")]
    rows += [(al, (cal if al == alpha else plates.theta_bar(al, n_channels)).theta_bar)
             for al in acceptance.THETA_ALPHAS]
    report = {"closed_form": cal, "theta_bar": {"pipeline_value": pipeline},
              "checks": acceptance.pipeline_check(cal, pipeline)}
    return report, {"theta": rows}


@_command("verify-all", "run the full acceptance suite")
def _run_verify_all(config: RunConfig):
    results = acceptance.run_all(seed=config.seed)
    for r in results:
        print(r.summary_line())
    report = {
        "passed": all(r.passed for r in results),
        "criteria": [r.to_dict() for r in results],
    }
    return report, {}


def run(config: RunConfig) -> int:
    """Execute one resolved run; returns the process exit status.

    A run passes when every check in its report passes.  Only verify-all
    states "passed" itself, since a criterion that raised has no failing
    check to show.
    """
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command {config.command!r}")
    try:
        report, tables = _COMMANDS[config.command][2](config)
    except CaslabError as exc:
        failure = {
            "passed": False,
            "failure": {"type": type(exc).__name__, "message": str(exc)},
        }
        _write_report(config, failure, {})
        print(f"{config.command}: FAIL ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 1
    passed = report.setdefault("passed", all(c.passed for c in report.get("checks", ())))
    _write_report(config, report, tables)
    print(f"{config.command}: {'PASS' if passed else 'FAIL'} "
          f"(report in {config.out_dir})")
    return 0 if passed else 1


def _load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return raw


def _typed_like(key: str, value, default):
    """A config-file value converted to the type of its default, as a flag is.

    bool is never accepted; an int key takes only an int, and a float key
    takes an int or a float.
    """
    kind = type(default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    return kind(value)


def build_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    defaults = _COMMANDS[command][1]
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(defaults) - {"seed", "out", "format"}
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")

    def resolve(key: str, default):
        # flag, else config-file value, else default
        if getattr(args, key) is not None:
            return getattr(args, key)
        if key in file_cfg:
            return _typed_like(key, file_cfg[key], default)
        return default

    params = {key: resolve(key, default) for key, default in defaults.items()}
    for key, value in params.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    seed = resolve("seed", _DEFAULT_SEED)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    out = resolve("out", "") or os.environ.get(OUT_ENV_VAR) or "caslab-report"
    fmt = resolve("format", _DEFAULT_FORMAT)
    if fmt not in _FORMATS:
        raise ConfigError(f"format must be one of {_FORMATS}")
    return RunConfig(
        command=command, params=params, seed=seed, out_dir=Path(out), fmt=fmt
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default {_DEFAULT_SEED})")
    common.add_argument("--out", default=None, help=f"output directory (or ${OUT_ENV_VAR})")
    common.add_argument("--format", choices=_FORMATS, default=None,
                        help="report format: json, or both to add CSV tables "
                        f"(default {_DEFAULT_FORMAT})")
    parser = argparse.ArgumentParser(
        prog="caslab",
        description="Spectral heat-kernel laboratory: verified runs with JSON/CSV reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, defaults, _) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=summary)
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                           help=_PARAM_HELP[key])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
