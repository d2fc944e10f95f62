"""Command-line driver: config resolution, reports, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import caslab
from caslab import acceptance, boxint, harness


def run_cli(args, tmp_path, fmt=None):
    argv = list(args) + ["--out", str(tmp_path)]
    if fmt:
        argv += ["--format", fmt]
    return harness.main(argv)


def read_report(tmp_path, command):
    return json.loads((tmp_path / f"{command}.json").read_text())


def test_reduce_report_and_manifest(tmp_path):
    assert run_cli(["reduce", "--lam", "2.0"], tmp_path, fmt="both") == 0
    report = read_report(tmp_path, "reduce")
    manifest = report["manifest"]
    assert manifest["command"] == "reduce"
    assert manifest["version"] == caslab.__version__
    assert manifest["seed"] == 42
    assert manifest["params"] == {"lam": 2.0}
    assert set(manifest) == {"version", "command", "seed", "params", "out_dir", "format"}
    assert report["passed"] is True
    csv = (tmp_path / "reduce_constants.csv").read_text().splitlines()
    assert csv[0] == "m,s,closed,momentum,schwinger"
    assert len(csv) == 6


def test_csv_only_when_requested(tmp_path):
    assert run_cli(["spectrum", "--cutoff", "80"], tmp_path) == 0
    assert (tmp_path / "spectrum.json").exists()
    assert not (tmp_path / "spectrum_modes.csv").exists()


def test_spectrum_report_content(tmp_path):
    assert run_cli(["spectrum", "--cutoff", "80", "--alpha", "2.0"], tmp_path, fmt="both") == 0
    report = read_report(tmp_path, "spectrum")
    assert report["saturation"]["saturated"] is False
    assert report["saturation"]["ratio"] == pytest.approx(0.25)
    assert report["mode_count"] == sum(
        m["multiplicity"] for m in report["stream"]["modes"]
    )
    rows = (tmp_path / "spectrum_modes.csv").read_text().splitlines()
    assert rows[0] == "value,multiplicity"
    assert len(rows) == len(report["stream"]["modes"]) + 1


COMPUTING_COMMANDS = (
    "reduce", "spectrum", "heat-trace", "finite-part",
    "stochastic", "boxint", "plates", "calibrate",
)


@pytest.mark.parametrize("command", COMPUTING_COMMANDS)
def test_byte_identical_reruns(tmp_path, command):
    out = tmp_path / "a"
    argv = [command, "--out", str(out), "--format", "both"]
    assert harness.main(argv) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert f"{command}.json" in first
    assert harness.main(argv) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first


def test_flags_come_from_the_defaults_table():
    parser = harness._build_parser()
    assert list(harness._COMMANDS) == [*COMPUTING_COMMANDS, "verify-all"]
    for command, (_, defaults, _) in harness._COMMANDS.items():
        argv = [command]
        for key, default in defaults.items():
            argv += ["--" + key.replace("_", "-"), str(default)]
        args = parser.parse_args(argv)
        for key, default in defaults.items():
            assert getattr(args, key) == default
            assert type(getattr(args, key)) is type(default)


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUT_ENV_VAR, str(tmp_path / "from-env"))
    assert harness.main(["spectrum", "--cutoff", "60"]) == 0
    assert (tmp_path / "from-env" / "spectrum.json").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "seed": 5}))
    out = tmp_path / "out"
    assert harness.main(
        ["heat-trace", "--config", str(cfg), "--alpha", "1.0", "--out", str(out)]
    ) == 0
    manifest = json.loads((out / "heat-trace.json").read_text())["manifest"]
    assert manifest["params"]["alpha"] == 1.0  # flag wins over config
    assert manifest["seed"] == 5


@pytest.mark.parametrize(
    "payload", [{"bogus": 1}, {"tau": 0.3}, {"L": 2.0}], ids=["bogus", "tau", "L"]
)
def test_unknown_config_key_is_a_config_error(tmp_path, payload):
    # reduce takes only lam: keys of other commands are rejected as well
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(payload))
    assert harness.main(["reduce", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_malformed_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("{not json")
    assert harness.main(["reduce", "--config", str(cfg)]) == 2


def test_bad_seed_type_is_a_config_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": "tuesday"}))
    assert harness.main(["reduce", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "command, payload",
    [
        ("finite-part", {"a": True}),
        ("finite-part", {"seed": True}),
        ("stochastic", {"n_samples": 1000.0}),
        ("reduce", {"out": True}),
    ],
    ids=["bool-float-key", "bool-seed", "float-int-key", "bool-out"],
)
def test_config_value_must_have_its_default_type(tmp_path, command, payload):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(payload))
    argv = [command, "--config", str(cfg)]
    if "out" not in payload:
        argv += ["--out", str(tmp_path)]
    assert harness.main(argv) == 2
    assert not (tmp_path / f"{command}.json").exists()


def test_int_config_value_of_a_float_key_is_a_float(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"a": 1}))
    assert harness.main(["finite-part", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    a = read_report(tmp_path, "finite-part")["manifest"]["params"]["a"]
    assert type(a) is float and a == 1.0


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["heat-trace", "--a", "inf"], None),
        (["finite-part", "--a", "inf"], None),
        (["spectrum", "--cutoff", "nan"], None),
        (["stochastic", "--cutoff", "nan"], None),
        (["stochastic", "--tau", "inf"], None),
        (["plates"], {"a": float("inf")}),
    ],
    ids=["heat-trace-a", "finite-part-a", "spectrum-cutoff", "stochastic-cutoff",
         "stochastic-tau", "config-file"],
)
def test_non_finite_parameter_is_a_config_error(tmp_path, argv, payload):
    # a fresh process with a timeout, since a non-finite value can stall a series loop
    if payload is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(payload))  # written as Infinity
        argv = argv + ["--config", str(cfg)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "caslab.harness", *argv, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("configuration error:")
    assert not (tmp_path / f"{argv[0]}.json").exists()


def test_inapplicable_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        harness.main(["reduce", "--alpha", "2.0"])
    assert exc.value.code == 2


def test_module_failure_exits_one_with_report(tmp_path):
    # regulator far below what the default cutoff certifies
    code = run_cli(["stochastic", "--tau", "0.01", "--n-samples", "100"], tmp_path)
    assert code == 1
    report = read_report(tmp_path, "stochastic")
    assert report["passed"] is False
    assert report["failure"]["type"] == "CutoffError"


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--lam", "0"],
        ["reduce", "--lam", "1e-200"],
        ["spectrum", "--alpha", "0"],
        ["heat-trace", "--alpha", "0"],
        ["heat-trace", "--alpha", "1e-200"],
        ["heat-trace", "--a", "1e110"],
        ["spectrum", "--a", "1e-200"],
        ["finite-part", "--a", "1e-200"],
        ["spectrum", "--alpha", "1e-20"],
        ["spectrum", "--alpha", "1e-8"],
        ["spectrum", "--alpha", "1e20"],
        ["stochastic", "--cutoff", "1e300"],
        ["stochastic", "--tau", "1e20"],
        ["stochastic", "--n-samples", "1000000000"],
        ["stochastic", "--cutoff", "1e5"],
        ["reduce", "--lam", "6.4488891409067575e+122"],
        ["heat-trace", "--a", "3.0926043824556695e+102", "--alpha", "1.032032637714062e+158"],
        ["heat-trace", "--a", "1.8434033198152695e+162", "--alpha", "1.0476373009526369e-129"],
        ["heat-trace", "--a", "1.14363226447787e+92", "--alpha", "1.5056157477758994e-122"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_out_of_range_parameter_fails_with_report(tmp_path, capsys, argv):
    # each used to escape run() as a bare ZeroDivisionError, OverflowError or
    # numpy ValueError; spectrum --alpha 1e-8 asked for about 2.4 GB first.
    # The two stochastic runs ask for 9e9 and 8.4e8 draws, which ran for 196 s
    # and 19 s before the draw budget; reduce at that lam has subnormal closed
    # forms, which failed two checks with no failure report.  The first
    # heat-trace cell overflowed a theta prefactor and its series never ended;
    # the other two overflowed the fits' volume term and wrote NaN
    assert run_cli(argv, tmp_path) == 1
    err = capsys.readouterr().err
    assert f"{argv[0]}: FAIL (" in err
    assert "Traceback" not in err
    failure = read_report(tmp_path, argv[0])["failure"]
    assert issubclass(getattr(caslab.errors, failure["type"]), caslab.CaslabError)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", ["1e-110", "1e104", "1e114", "1e122"])
def test_reduce_routes_hold_out_to_the_float_range(tmp_path, lam):
    # past lam ~ 1e104 the momentum integrand underflowed: 0.0 from 1e108 on
    # (two failed checks and no failure report), and below 1e-103 it overflowed
    assert run_cli(["reduce", "--lam", lam], tmp_path) == 0
    assert all(c["passed"] for c in read_report(tmp_path, "reduce")["checks"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "1e3"],
        ["--alpha", "1e-3"],
        ["--a", "1e-3"],
        ["--a", "1e57"],
        ["--a", "1e76"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_heat_trace_fits_scale_with_the_shortest_side(tmp_path, argv):
    # a window fixed at t in [1e-4, 1e-3] left a side of 1e-3 outside the
    # short-time regime, and the companion fit of B failed; at a >= 1e57 the
    # fit residual squared values past the float range and warned
    assert run_cli(["heat-trace", *argv], tmp_path) == 0


def test_boxint_reports_the_scan_checks(tmp_path):
    # the scans decide their checks once; the command and criterion 10 reuse them
    assert run_cli(["boxint"], tmp_path) == 0
    report = read_report(tmp_path, "boxint")
    scan, chain = boxint.log_concavity_scan(), boxint.positivity_chain()
    own = [dataclasses.asdict(c) for c in scan.checks + chain.checks]
    assert report["checks"][0]["name"] == "TIntegral vs closed form"
    assert report["checks"][1:] == own
    assert report["concavity"]["checks"] == own[:2]
    assert report["positivity"]["checks"] == own[2:]
    assert report["concavity_passed"] is report["positivity_passed"] is True
    assert acceptance.run_criterion(10).checks == list(scan.checks + chain.checks)


def test_stochastic_report(tmp_path):
    code = run_cli(["stochastic", "--n-samples", "20000", "--seed", "7"], tmp_path)
    assert code == 0
    report = read_report(tmp_path, "stochastic")
    assert report["z_score"] <= 3.0
    assert report["estimate"]["seed"] == 7
    assert report["estimate"]["n"] == 20000


def test_stochastic_default_estimate_is_pinned(tmp_path):
    # tau 0.5, cutoff 200, 100k draws, seed 42: pins the SFC64 stream, the
    # batch order and the variance merge of the default run
    assert run_cli(["stochastic"], tmp_path) == 0
    assert read_report(tmp_path, "stochastic")["estimate"] == {
        "mean": 1.0078076593363145e-06,
        "stderr": 4.49455542228207e-09,
        "n": 100_000,
        "seed": 42,
    }


def test_calibrate_report_has_both_routes(tmp_path):
    assert run_cli(["calibrate", "--alpha", "1.0"], tmp_path, fmt="both") == 0
    report = read_report(tmp_path, "calibrate")
    assert report["theta_bar"]["pipeline_value"] is not None
    assert report["closed_form"]["pipeline_value"] is None
    assert report["closed_form"]["theta_bar"] == pytest.approx(
        0.007282416091321873, rel=1e-9
    )
    rows = (tmp_path / "calibrate_theta.csv").read_text().splitlines()
    assert rows[0] == "alpha,theta_bar"
    assert len(rows) == 6


@pytest.mark.parametrize("command", ["finite-part", "plates"])
def test_separation_off_powers_of_two(tmp_path, command):
    assert run_cli([command, "--a", "1.1"], tmp_path) == 0
    assert read_report(tmp_path, command)["passed"] is True


def test_finite_part_command(tmp_path):
    assert run_cli(["finite-part"], tmp_path, fmt="both") == 0
    report = read_report(tmp_path, "finite-part")
    assert report["model"]["c0"] == pytest.approx(-0.006853891945200943, rel=5e-3)
    rows = (tmp_path / "finite-part_samples.csv").read_text().splitlines()
    assert rows[0] == "tau,value"
    assert len(rows) == 13


def test_verify_all_reports_red_criterion(tmp_path, capsys):
    code = run_cli(["verify-all"], tmp_path)
    out = capsys.readouterr().out
    assert code == 1  # one criterion is out of numerical reach and stays red
    assert "[PASS] criterion 1:" in out
    assert "[FAIL] criterion 3:" in out
    report = read_report(tmp_path, "verify-all")
    assert len(report["criteria"]) == 12
    by_number = {c["number"]: c for c in report["criteria"]}
    assert by_number[3]["passed"] is False
    assert sum(1 for c in report["criteria"] if c["passed"]) == 11


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "caslab.harness", "reduce", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "reduce: PASS" in proc.stdout


def test_cold_commands_skip_quadrature_imports(tmp_path):
    # a fresh interpreter, so modules other tests imported do not count
    child = textwrap.dedent(
        f"""
        import json, sys
        from caslab import harness

        mods = ("scipy", "mpmath")
        loaded = {{"import": [m for m in mods if m in sys.modules]}}
        # boxint runs last: its positivity chain loads mpmath
        for argv in (["spectrum"], ["heat-trace"], ["finite-part"],
                     ["stochastic", "--n-samples", "20000"], ["plates"], ["reduce"],
                     ["calibrate"], ["boxint"]):
            code = harness.main(argv + ["--out", {str(tmp_path)!r}])
            loaded[argv[0]] = [code] + [m for m in mods if m in sys.modules]
        print(json.dumps(loaded))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded.pop("import") == []
    assert loaded.pop("boxint") == [0, "mpmath"]
    assert len(loaded) == 7
    for command, (code, *modules) in loaded.items():
        assert code == 0, command
        assert modules == [], command


MC_CHECK = "|MC mean - trace| / (3 stderr)"  # statistical: z = 15.2 at n = 2, seed 42


def _reject_constant(name):
    raise AssertionError(f"report holds {name}")


@st.composite
def _float_flag(draw):
    """Log-uniform over the whole double range, subnormals included, and
    now and then negative, a signed zero or not finite."""
    if draw(st.integers(0, 15)) == 0:
        return draw(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]))
    magnitude = 2.0 ** draw(st.floats(-1074.0, 1023.999))
    return -magnitude if draw(st.integers(0, 7)) == 0 else magnitude


@st.composite
def _run(draw):
    """A command with each of its flags (and seed and format) left at its
    default, given on the command line, or given in a config file."""
    command = draw(st.sampled_from([c for c in COMPUTING_COMMANDS if c != "boxint"]))
    defaults = {**harness._COMMANDS[command][1], "seed": 0, "format": "json"}
    flags, config = {}, {}
    for key, default in defaults.items():
        if key == "format":
            value = draw(st.sampled_from(["json", "csv", "both"]))
        elif isinstance(default, int):
            value = draw(st.integers(-1, 2**31))
        else:
            value = draw(_float_flag())
        where = draw(st.sampled_from([None, flags, config]))
        if where is not None:
            where[key] = value
    return command, flags, config


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(_run())
@example(("boxint", {"seed": -1}, {"format": "csv"}))  # boxint and verify-all take no
@example(("verify-all", {"seed": 2**31, "format": "both"}, {}))  # parameters, so run once
def test_cli_input_contract(run):
    # exit 0, 1 or 2; an exit 1 names a CaslabError or fails a check; no
    # report holds NaN or Infinity; and at finite inputs only the Monte Carlo
    # z check may fail without a failure report
    command, flags, config = run
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = [command, "--out", tmp]
        for key, value in flags.items():
            text = value if isinstance(value, str) else repr(value)
            argv.append(f"--{key.replace('_', '-')}={text}")
        if config:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(config))  # non-finite floats as Infinity, NaN
            argv += ["--config", str(path)]
        code = harness.main(argv)
        report_path = Path(tmp) / f"{command}.json"
        report = (
            json.loads(report_path.read_text(), parse_constant=_reject_constant)
            if report_path.exists()
            else None
        )
    assert code in (0, 1, 2)
    assert (report is None) == (code == 2)
    if code == 2:
        return
    values = [v for v in {**config, **flags}.values() if isinstance(v, float)]
    assert all(math.isfinite(v) for v in values)  # a non-finite value exits 2
    if "failure" in report:
        assert code == 1
        assert issubclass(getattr(caslab.errors, report["failure"]["type"]), caslab.CaslabError)
    elif command == "verify-all":
        assert code == 1 and not report["passed"]  # criterion 3 stays red
    else:
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert (code == 1) == bool(failed)
        assert failed <= {MC_CHECK}, (argv, failed)
