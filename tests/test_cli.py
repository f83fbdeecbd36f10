"""Command-line interface: parsing, precedence, exit codes, reports."""

import contextlib
import inspect
import io
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pinchplace import certify, cli, experiments, oma_fairness
from pinchplace.core import LayoutBlock, PlacementSolution
from pinchplace.errors import ParseError


@pytest.fixture()
def inst2(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("-8 2\n6 -4\n")
    return str(path)


@pytest.fixture()
def inst3(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text("# three users\n-12.5 3.25\n\n4.0 -1.5\n9.75 2.0  # corner\n")
    return str(path)


def test_parse_kv_text():
    got = cli.parse_kv_text("a = 1\n# note\nb=two\na = 3\n", "f")
    assert got == {"a": "3", "b": "two"}
    with pytest.raises(ParseError, match="f:2"):
        cli.parse_kv_text("a = 1\nnonsense\n", "f")
    with pytest.raises(ParseError, match="empty"):
        cli.parse_kv_text("a =\n", "f")


def test_read_layout(inst3):
    lay = cli.read_layout(inst3)
    assert isinstance(lay, LayoutBlock) and len(lay) == 1
    assert lay.xs.tolist() == [[-12.5, 4.0, 9.75]] and lay.ys.tolist() == [[3.25, -1.5, 2.0]]


def test_read_layout_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 4 5\n")
    with pytest.raises(ParseError, match="bad.txt:2"):
        cli.read_layout(str(bad))
    bad.write_text("x y\n")
    with pytest.raises(ParseError, match="non-numeric"):
        cli.read_layout(str(bad))
    bad.write_text("# only comments\n")
    with pytest.raises(ParseError, match="no users"):
        cli.read_layout(str(bad))
    bad.write_text("1 2\n3 1e400\n")
    with pytest.raises(ParseError, match="bad.txt:2: non-finite coordinate"):
        cli.read_layout(str(bad))
    with pytest.raises(ParseError, match="cannot read"):
        cli.read_layout(str(tmp_path / "missing.txt"))


def test_maxmin_roundtrip_with_certify(inst3, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["maxmin", inst3, "--power-dbm", "20",
                     "--certify", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "min rate" in stdout and "PASS" in stdout
    report = json.loads(out.read_text())
    assert np.isclose(report["x_star_m"], 0.4166666666666667, rtol=1e-12)
    assert report["certify"]["pass"] is True
    (check,) = report["certify"]["checks"]
    assert check["name"] == "grid" and check["ok"] is True and check["tol"] == certify.CERT_REL
    assert len(report["powers_w"]) == 3


def test_powermin_report(inst3, capsys):
    assert cli.main(["powermin", inst3, "--rate-bpcu", "1.5", "--certify"]) == 0
    stdout = capsys.readouterr().out
    assert "total power" in stdout and "saving" in stdout and "PASS" in stdout


def test_outage_certifies_against_closed_form(capsys):
    code = cli.main(["outage", "--power-dbm", "8", "--rate-bpcu", "2.5",
                     "--trials", "20000", "--seed", "0", "--certify"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "closed form" in stdout and "monte carlo" in stdout and "PASS" in stdout


def test_outage_certify_needs_two_users(capsys):
    code = cli.main(["outage", "--users", "3", "--certify"])
    assert code == 2
    assert "users = 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["greedy", "outage"])
def test_a_certify_run_keeps_a_small_working_set(command, inst2):
    # the oracles scan in 32 KiB slices; a grid-sized temporary (160 KB to 800 KB) or a whole
    # block of Monte Carlo draws would take the peak well past this bound
    argv = {"greedy": ["greedy", inst2, "--power-dbm", "30", "--rate-bpcu", "1", "--certify"],
            "outage": ["outage", "--power-dbm", "8", "--rate-bpcu", "2.5", "--trials", "30000",
                       "--certify"]}[command]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * 2**20, f"{argv[0]} --certify peaked at {peak / 2**20:.2f} MiB"


def test_greedy_report(inst2, capsys):
    assert cli.main(["greedy", inst2, "--power-dbm", "10", "--rate-bpcu", "0.5",
                     "--certify"]) == 0
    stdout = capsys.readouterr().out
    assert "search:" in stdout and "fast:" in stdout
    assert "certify power-sweep" in stdout and "FAIL" not in stdout


def test_noma_report(tmp_path, capsys):
    path = tmp_path / "pair.txt"
    path.write_text("6 -4\n-8 2\n")  # user 2 is the one closer to the waveguide
    out = tmp_path / "noma.json"
    assert cli.main(["noma", str(path), "--rate-bpcu", "1.5", "--certify", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "\nsic_user = 2 (closer to the waveguide)\n" in stdout
    assert "certify search: gap = " in stdout and "(tol 1e-09) -> PASS" in stdout
    report = json.loads(out.read_text())
    assert report["sic_user"] == 2 and "order" not in report
    p_strong, p_weak = report["powers_w"][1], report["powers_w"][0]
    assert f"P_strong = {p_strong:.6e} W" in stdout and f"P_weak = {p_weak:.6e} W" in stdout
    # users with the same x: the weighted-mean placement must not round outside them
    path.write_text("0.1 1\n0.1 -2\n")
    assert cli.main(["noma", str(path), "--rate-bpcu", "1", "--certify"]) == 0
    stdout = capsys.readouterr().out
    assert "placement x* = 0.1 m" in stdout and "PASS" in stdout


def test_greedy_without_a_feasible_fast_candidate_reports_the_search(tmp_path, capsys):
    # the search covers both floors near x = 0, but the cubic's only root (-0.599 m) and the
    # two ends of the waveguide miss one of them, so the fast route has no candidate
    path = tmp_path / "pair.txt"
    path.write_text("-1 0\n1 5\n")
    for dbm in ("-7.30", "-7.25"):
        out = tmp_path / f"greedy{dbm}.json"
        argv = ["greedy", str(path), "--rate-bpcu", "1", "--power-dbm", dbm, "--certify", "--out", str(out)]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        assert "fast:     infeasible (no candidate position can cover both rate floors)" in stdout
        assert "stationary points" not in stdout and "search-vs-fast gap" not in stdout
        checks = [line for line in stdout.splitlines() if line.startswith("certify")]
        assert len(checks) == 2 and all(line.endswith("-> PASS") for line in checks)
        assert checks[0].startswith("certify power-sweep: gap = ")
        assert checks[1].startswith("certify fast<=search (no feasible fast candidate skipped)")
        report = json.loads(out.read_text())
        assert report["fast"] is None and report["gap_rel"] is None
        assert report["search"]["throughput_bpcu"] > 2.0 and report["certify"]["pass"] is True


# a budget 1e-6 above the two rate floors' sum at the midpoint of inst2's users: the feasible
# splits there form an interval narrower than the 100001-point power sweep's spacing
NEAR_FLOOR_DBM = "-2.502450177430795"


def test_greedy_certify_skips_a_power_sweep_that_finds_no_feasible_split(inst2, tmp_path, capsys):
    out = tmp_path / "greedy.json"
    argv = ["greedy", inst2, "--power-dbm", NEAR_FLOOR_DBM, "--rate-bpcu", "1", "--certify"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "search:   x* = -1.00000776 m, throughput = 2.000001 BPCU" in captured.out
    checks = [line for line in captured.out.splitlines() if line.startswith("certify")]
    assert len(checks) == 2 and all(line.endswith("-> PASS") for line in checks)
    assert checks[0] == "certify power-sweep (no feasible swept split skipped): gap = nan (tol nan) -> PASS"
    report = _strict_json(out.read_text())
    assert report["certify"]["pass"] is True
    assert report["certify"]["checks"][0]["name"] == "power-sweep (no feasible swept split skipped)"


def test_greedy_without_a_feasible_position_names_the_budget_and_floors(inst2, capsys):
    assert cli.main(["greedy", inst2, "--set", "power_dbm=-35"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("infeasible: a budget of -35.00 dBm cannot cover both 1.0000 BPCU rate floors "
                            "at any grid position\n")


def _strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity, which strict JSON does not have."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_reports_are_strict_json_with_null_for_non_finite_figures(tmp_path, capsys):
    # the skipped fast<=search check has NaN value, reference, gap and tol
    path = tmp_path / "pair.txt"
    path.write_text("-1 0\n1 5\n")
    out = tmp_path / "greedy.json"
    argv = ["greedy", str(path), "--rate-bpcu", "1", "--power-dbm", "-7.30", "--certify"]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == stdout  # the printed report does not change with --out
    report = _strict_json(out.read_text())
    skipped = report["certify"]["checks"][1]
    assert skipped["name"] == "fast<=search (no feasible fast candidate skipped)" and skipped["ok"] is True
    assert [skipped[key] for key in ("value", "reference", "gap", "tol")] == [None] * 4
    assert report["certify"]["checks"][0]["gap"] is not None


def test_strict_json_report_keeps_finite_figures_and_nulls_the_rest():
    report = {"a": 1.5, "b": [math.nan, math.inf, -math.inf, 2], "c": {"d": (0.0, -0.0)}, "e": True, "f": None}
    ready = cli._json_ready(report)
    assert ready == {"a": 1.5, "b": [None, None, None, 2], "c": {"d": [0.0, -0.0]}, "e": True, "f": None}
    assert _strict_json(json.dumps(ready, allow_nan=False)) == ready


def test_verbose_takes_effect_on_every_in_process_call(tmp_path):
    # each call logs to the stderr of its own time, at the level its own flag asks for
    argv = ["experiment", "--set", "trials=3", "--set", "sweep_points=2", "--out", str(tmp_path / "sweep.csv")]
    streams = []
    for verbose in (True, True, False, True):
        streams.append(io.StringIO())
        with contextlib.redirect_stderr(streams[-1]), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main((["--verbose"] if verbose else []) + argv) == 0
    counts = [stream.getvalue().count("DEBUG:pinchplace.experiments:sweep power_dbm=") for stream in streams]
    assert counts == [2, 2, 0, 2]


def test_main_leaves_a_host_programs_logging_as_it_was(tmp_path):
    # a host with its own root handler and level sees no line twice, and keeps both after each call
    argv = ["experiment", "--set", "trials=3", "--set", "sweep_points=2", "--out", str(tmp_path / "sweep.csv")]
    root, package = logging.getLogger(), logging.getLogger("pinchplace")
    host = io.StringIO()
    host_handler = logging.StreamHandler(host)
    saved = root.level, package.level, package.propagate
    root.addHandler(host_handler)
    root.setLevel(logging.INFO)
    try:
        for verbose in (True, False):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert cli.main((["--verbose"] if verbose else []) + argv) == 0
            assert err.getvalue().count("sweep power_dbm=") == (2 if verbose else 0)
            assert root.level == logging.INFO and host_handler in root.handlers
            assert (package.level, package.propagate, package.handlers) == (saved[1], saved[2], [])
        assert host.getvalue() == ""
        logging.getLogger("pinchplace.experiments").info("after main")
        assert host.getvalue() == "after main\n"
    finally:
        root.removeHandler(host_handler)
        root.setLevel(saved[0])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("command", ["maxmin", "powermin", "greedy", "noma"])
def test_non_finite_instance_coordinates_exit_2(command, value, tmp_path, capsys):
    path = tmp_path / "pair.txt"
    for text in (f"{value} 1\n2 3\n", f"-1 1\n2 {value}\n"):
        path.write_text(text)
        assert cli.main([command, str(path), "--certify"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:") and "non-finite coordinate" in err and "Traceback" not in err


def test_flag_precedence_over_set_over_config(inst3, tmp_path, capsys):
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text("power_dbm = 10\n")
    cli.main(["maxmin", inst3, "--config", str(cfgfile)])
    assert "P = 10.00 dBm" in capsys.readouterr().out
    cli.main(["maxmin", inst3, "--config", str(cfgfile), "--set", "power_dbm=20"])
    assert "P = 20.00 dBm" in capsys.readouterr().out
    cli.main(["maxmin", inst3, "--config", str(cfgfile), "--set", "power_dbm=20",
              "--power-dbm", "25"])
    assert "P = 25.00 dBm" in capsys.readouterr().out


def test_exit_codes(inst2, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("nope\n")
    assert cli.main(["maxmin", str(bad)]) == 2
    assert cli.main(["experiment", "--set", "nonsense=1"]) == 2
    # budget far below both rate floors
    assert cli.main(["greedy", inst2, "--power-dbm", "-35", "--rate-bpcu", "1"]) == 3
    # non-finite numbers from --set and from dedicated flags
    assert cli.main(["experiment", "--set", "rate_bpcu=nan", "--set", "schemes=outage"]) == 2
    assert cli.main(["experiment", "--set", "sweep_start=nan"]) == 2
    assert cli.main(["experiment", "--set", "schemes=oma-greedy", "--set", "rate_bpcu=nan"]) == 2
    assert cli.main(["maxmin", inst2, "--power-dbm", "nan"]) == 2
    assert cli.main(["powermin", inst2, "--rate-bpcu", "nan"]) == 2
    assert cli.main(["powermin", inst2, "--rate-bpcu", "inf"]) == 2
    assert "rate_bpcu must be a finite number" in capsys.readouterr().err
    # a zero rate target makes the power coefficient 0
    assert cli.main(["outage", "--rate-bpcu", "0"]) == 2
    assert "rate target must be positive" in capsys.readouterr().err
    assert cli.main(["outage", "--users", "0"]) == 2
    assert "users must be >= 1" in capsys.readouterr().err
    assert cli.main(["experiment", "--set", "workers=2"]) == 2
    assert "unknown config keys: workers" in capsys.readouterr().err
    # a count is never truncated: 2.7 sweep points is an error, not 2
    assert cli.main(["experiment", "--set", "sweep_points=2.7", "--set", "trials=2"]) == 2
    assert "sweep_points must be an integer, got '2.7'" in capsys.readouterr().err
    assert cli.main(["outage", "--set", "trials=1e3"]) == 2
    assert "trials must be an integer" in capsys.readouterr().err
    # -4000 dBm underflows to a 0 W budget, which every greedy route rejects alike
    assert cli.main(["greedy", inst2, "--power-dbm", "-4000"]) == 2
    assert "total power budget must be positive" in capsys.readouterr().err
    assert cli.main(["experiment", "--set", "schemes=oma-greedy", "--set", "sweep_start=-4000",
                     "--set", "sweep_stop=-4000", "--set", "sweep_points=1"]) == 2
    assert "total power budget must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["powermin", "inst3", "--rate-bpcu", "1000"],  # expm1 overflows
    ["maxmin", "inst3", "--power-dbm", "4000"],    # 10**x overflows
    ["noma", "inst2", "--rate-bpcu", "600"],       # the weak user's power overflows
])
def test_overflowing_input_exits_2(argv, request, capsys):
    code = cli.main([argv[0], request.getfixturevalue(argv[1]), *argv[2:]])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("setting", [
    "height_m=1e-200",  # height_m**2 underflows to 0
    "height_m=1e200",   # height_m**2 overflows
    "fc_hz=1e170",      # the path gain underflows to 0
    "fc_hz=1e-300",     # the path gain overflows
    "length_m=1e-300",  # half_length**2 underflows to 0
    "height_m=1e-160",  # height_m**2 is subnormal: noise * tau underflows to 0
    "width_m=1e300",    # the squared half-diagonal overflows
])
@pytest.mark.parametrize("command", ["maxmin", "powermin", "greedy", "noma", "outage", "experiment"])
def test_degenerate_constants_exit_2(command, setting, tmp_path, capsys):
    argv = [command, "--set", setting]
    if command == "experiment":
        argv += ["--set", "schemes=outage"]
    elif command != "outage":
        pair = tmp_path / "pair.txt"
        pair.write_text("0 0\n0 0\n")
        argv.insert(1, str(pair))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("users, argv", [
    # the strong-user key pow(y, 2) raised OverflowError (exit 1, a traceback)
    ("0 1e200\n1 2\n", ["noma", "--rate-bpcu", "1", "--set", "width_m=1e300"]),
    (None, ["experiment", "--set", "schemes=noma", "--set", "sweep=rate_bpcu", "--set", "width_m=1e300",
            "--trials", "2"]),
    # inf / inf gave NaN powers, and exit 4 without --certify
    (None, ["experiment", "--set", "schemes=oma-maxmin", "--set", "width_m=1e300", "--trials", "2"]),
    ("0 0\n0 0\n", ["noma", "--rate-bpcu", "0.01", "--set", "height_m=1e-160"]),
    # an infinite sum rate kept by the high-SNR route and dropped by the search: fast<=search failed
    ("20 0\n11.874 -1.78\n", ["greedy", "--power-dbm", "30", "--rate-bpcu", "1", "--set", "height_m=1e-160",
                               "--certify"]),
    # RuntimeWarnings on stderr before the exit
    ("20 0\n", ["maxmin", "--set", "height_m=1e-160", "--certify"]),
    # rows of NaN figures and 0 trials, and exit 0
    (None, ["experiment", "--set", "schemes=noma-conv,oma-powermin", "--set", "sweep=rate_bpcu",
            "--set", "width_m=1e300", "--trials", "2"]),
])
def test_a_geometry_outside_the_normal_floats_exits_2_naming_it(users, argv, tmp_path, capsys):
    if users is not None:
        instance = tmp_path / "users.txt"
        instance.write_text(users)
        argv = [argv[0], str(instance), *argv[1:]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SystemParams ") and captured.err.count("\n") == 1
    assert ("height_m**2" if "height_m=1e-160" in argv else "(width_m/2)**2") in captured.err


_FLAGS = {"maxmin": ("power_dbm",), "powermin": ("rate_bpcu",), "greedy": ("power_dbm", "rate_bpcu"),
          "noma": ("rate_bpcu",), "outage": ("power_dbm", "rate_bpcu")}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "-1e308", "0", "-5", "1e-320", "400"])
@pytest.mark.parametrize("key", ["power_dbm", "rate_bpcu"])
@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_extreme_budget_or_target_keeps_the_exit_code_contract(command, key, value, inst2, capsys):
    # the subcommand's own flag where it has one, else --set
    setting = [f"--{key.replace('_', '-')}={value}"] if key in _FLAGS[command] else ["--set", f"{key}={value}"]
    instance = [] if command == "outage" else [inst2]
    assert cli.main([command, *instance, *setting, "--certify"]) in (0, 2, 3, 4)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["outage", "--rate-bpcu", "1e-320", "--trials", "200"],
    ["experiment", "--set", "schemes=outage", "--set", "rate_bpcu=1e-320", "--set", "trials=2",
     "--set", "sweep_points=1"],
])
def test_underflowing_power_coefficient_gives_zero_outage(argv, capsys):
    # 1e-320 BPCU needs a power coefficient that underflows to 0 W/m^2: no budget is ever short
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "outage":
        assert "closed form: p = 0.000000\n" in out and "monte carlo: p = 0.000000 +- 0.000000" in out
    else:  # the outage rate (1 - p) R equals the whole target
        assert out.splitlines()[1].split(",")[3] == f"{1e-320:.12g}"
    assert cli.main([*argv, "--certify"]) == 0
    checks = [line for line in capsys.readouterr().out.splitlines() if line.startswith("certify")]
    assert len(checks) == 1 and checks[0].endswith("gap = 0.000e+00 (tol 1e-12) -> PASS")


def test_certification_failure_exits_4(inst3, capsys, monkeypatch):
    real = oma_fairness.solve_max_min_rate

    def corrupted(params, block, total_w):
        sol = real(params, block, total_w)
        return PlacementSolution(sol.x_star, sol.powers, sol.objective * 0.9)

    monkeypatch.setattr(oma_fairness, "solve_max_min_rate", corrupted)
    assert cli.main(["maxmin", inst3, "--power-dbm", "20", "--certify"]) == 4
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "certification failure" in captured.err


@pytest.mark.parametrize("argv", [
    ["powermin", "--rate-bpcu", "0"],
    ["maxmin", "--power-dbm", "-3200"],  # g * P underflows to 0 in the oracle
    ["maxmin", "--power-dbm", "-100"],   # low SNR: the closed form must keep log1p's precision
])
def test_extreme_budget_or_target_certifies_with_zero_gap(inst3, argv, capsys):
    code = cli.main([argv[0], inst3, *argv[1:], "--certify"])
    assert code == 0
    assert "certify grid: gap = 0.000e+00 (tol 1e-09) -> PASS" in capsys.readouterr().out


def test_nonzero_value_against_zero_oracle_fails(inst3, capsys, monkeypatch):
    assert certify.relative_gap(0.0, 0.0) == 0.0
    assert certify.relative_gap(-1e-300, 0.0) == -np.inf
    monkeypatch.setattr(certify, "_maxmin_oracle", lambda params, layout, total_w: 0.0)
    assert cli.main(["maxmin", inst3, "--power-dbm", "20", "--certify"]) == 4
    assert "gap = inf (tol 1e-09) -> FAIL" in capsys.readouterr().out


def test_experiment_certification_failure_prints_lines_then_exits_4(capsys, monkeypatch):
    real = oma_fairness.solve_max_min_rate

    def corrupted(params, block, total_w):
        sol = real(params, block, total_w)
        return PlacementSolution(sol.x_star, sol.powers, sol.objective * 0.9)

    monkeypatch.setattr(oma_fairness, "solve_max_min_rate", corrupted)
    code = cli.main(["experiment", "--trials", "2", "--certify", "--set", "sweep_points=2"])
    assert code == 4
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines() if line.startswith("certify")]
    assert len(lines) == 2 and all(line.endswith("-> FAIL") for line in lines)
    assert lines[0].startswith("certify sweep=0 oma-maxmin grid: gap = -1.000e-01")
    assert "2 experiment spot-checks failed" in captured.err


def test_experiment_csv_stdout_and_file(tmp_path, capsys):
    args = ["experiment", "--trials", "4", "--set", "sweep_points=2"]
    assert cli.main(args) == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("sweep_value,scheme,metric,mean,stderr,trials")
    out = tmp_path / "sweep.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert out.read_text() == stdout


def test_experiment_certify_spot_checks(capsys):
    code = cli.main(["experiment", "--trials", "5", "--certify",
                     "--set", "sweep_points=2", "--set", "sweep_start=10",
                     "--set", "sweep_stop=30"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("certify") == 2 and "FAIL" not in stdout


def test_experiment_certify_skips_outage_under_clustering(capsys):
    code = cli.main(["experiment", "--clustering", "true", "--set", "schemes=outage-mc",
                     "--trials", "50", "--certify"])
    assert code == 0
    outage_lines = [ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("certify") and " outage " in ln]
    assert len(outage_lines) == 9
    assert all("skipped" in ln for ln in outage_lines)


@pytest.mark.parametrize("command,key", [(command, key) for command, (_, _, keys) in cli._SUBCOMMANDS.items()
                                         for key in keys])
def test_every_flag_shows_its_keys_help_and_parses_like_its_set_value(command, key, inst2, capsys):
    flag = f"--{key.replace('_', '-')}"
    with pytest.raises(SystemExit) as exit_:
        cli.main([command, "--help"])
    assert exit_.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"{flag} {key.upper()} {experiments.CONFIG_KEYS[key].help}" in help_text
    # a bad value is the config error --set gives, not an argparse exit
    instance = [inst2] if cli._SUBCOMMANDS[command][1] else []
    assert cli.main([command, *instance, flag, "abc"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ")
    assert cli.main([command, *instance, "--set", f"{key}=abc"]) == 2
    assert capsys.readouterr().err == err


def test_a_clustering_flag_takes_every_spelling_set_does(tmp_path):
    common = ["experiment", "--trials", "3", "--set", "sweep_points=2"]
    by_flag, by_set = tmp_path / "flag.csv", tmp_path / "set.csv"
    assert cli.main([*common, "--clustering", "yes", "--out", str(by_flag)]) == 0
    assert cli.main([*common, "--set", "clustering=yes", "--out", str(by_set)]) == 0
    assert by_flag.read_bytes() == by_set.read_bytes()
    assert cli.main([*common, "--set", "clustering=no", "--out", str(by_set)]) == 0
    assert by_flag.read_bytes() != by_set.read_bytes()


def test_argparse_usage_error_is_systemexit():
    with pytest.raises(SystemExit):
        cli.main([])
    with pytest.raises(SystemExit):
        cli.main(["maxmin"])  # missing instance path
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "--workers", "2"])  # no such flag
    assert exc.value.code == 2


def test_main_calls_share_no_state(inst3, tmp_path, capsys):
    assert cli.main(["outage", "--set", "trials=7"]) == 0
    assert "(7 trials)" in capsys.readouterr().out
    assert cli.main(["outage"]) == 0
    assert "(1000 trials)" in capsys.readouterr().out  # the default, not the previous call's --set
    out = tmp_path / "report.json"
    assert cli.main(["maxmin", inst3, "--certify", "--out", str(out)]) == 0
    assert "certify grid" in capsys.readouterr().out
    out.unlink()
    assert cli.main(["maxmin", inst3]) == 0
    assert "certify" not in capsys.readouterr().out and not out.exists()


def test_main_builds_one_parser_and_build_parser_stays_fresh(monkeypatch, capsys):
    assert inspect.isfunction(cli.build_parser)
    assert cli.build_parser() is not cli.build_parser()
    real, built = cli.build_parser, []

    def counted():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert cli.main(["outage", "--trials", "10"]) == 0
        # the cached parser does not pin the handlers: one patched in later runs
        called = []
        monkeypatch.setattr(cli, "cmd_outage", lambda args: called.append(cli._collect_mapping(args)["trials"]) or 0)
        assert cli.main(["outage", "--trials", "3"]) == 0 and called == [3]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


_BROKEN_NOMA = """
import sys
from pinchplace import cli, noma
from pinchplace.core import NomaRates
assert not __debug__, "this check needs python -O"
noma.noma_rates = lambda *a, **k: NomaRates(strong=0.0, weak=0.0, sic=0.0)
sys.exit(cli.main(["noma", sys.argv[1], "--rate-bpcu", "1"]))
"""


def test_broken_invariant_exits_4_under_python_O(tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text("0 1\n10 4\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-O", "-c", _BROKEN_NOMA, str(pair)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("certification failure: invariant violated:")
    assert "Traceback" not in done.stderr
