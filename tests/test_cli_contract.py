"""The CLI's exit-code contract as a property: every input ends in exit 0, 2, 3 or 4, quietly.

cli.main runs in-process on generated instance files, flags and --set
overrides, extreme ones included (NaN, infinities, subnormal and huge
numbers, coincident users, users on the area's edge).  Every call must
return 0, 2, 3 or 4 without raising, exit 4 only under --certify, emit no
RuntimeWarning (all warnings are recorded, under simplefilter("always")),
print no traceback and leave strict JSON in --out.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplace import cli, experiments

# the default area is 40 m x 10 m: +-20 and +-5 are its edges
_EDGES = [0.0, -0.0, 20.0, -20.0, 5.0, -5.0, 5e-324, -5e-324, 1e-310, 1e-160, 1e154, -1e154, 1e200, 1e300]
_X = st.one_of(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.sampled_from(_EDGES))
_Y = st.one_of(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.sampled_from(_EDGES))
_EXTREMES = ["nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "-5e-324", "1e-310", "0", "-0.0"]
_POWER_DBM = st.one_of(st.floats(-40.0, 60.0).map(repr), st.floats(-40.0, 60.0).map(repr),
                       st.sampled_from(_EXTREMES + ["400", "4000", "-400"]))
_RATE_BPCU = st.one_of(st.floats(0.01, 6.0).map(repr), st.floats(0.01, 6.0).map(repr),
                       st.sampled_from(_EXTREMES + ["510", "600", "1000", "1e-320"]))
# each physical key's default first, then values on and past the edges of the numeric domain
_SETTINGS = {
    "height_m": ["3", "0.5", "100", "1e-160", "1.27e-151", "1e-150", "1e-300", "1e51", "1e150", "1e200"],
    "length_m": ["40", "1e-5", "1e6", "1e-154", "1e-300", "1e51", "3e51", "1e154", "2e154"],
    "width_m": ["10", "1e-5", "1e-100", "3e-154", "1e-310", "1e51", "1e300"],
    "noise_dbm": ["-90", "-200", "-400", "-3000", "-3100", "-3200", "300", "2100", "3000", "3080"],
    "fc_hz": ["28e9", "1", "1e20", "1e-141", "1e-146", "1e-300", "1e170"],
}
_OVERRIDES = st.lists(st.sampled_from([*_SETTINGS, "grid_points", "grid_refine"]), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: st.integers(-1, 201).map(str) if key.startswith("grid") else
                                        st.one_of(st.sampled_from(_SETTINGS[key]), st.floats().map(repr))
                                        for key in keys}))


@st.composite
def _users(draw, counts):
    count = draw(counts)
    first = (draw(_X), draw(_Y))
    if draw(st.booleans()):  # coincident users
        return [first] * count
    return [first] + [(draw(_X), draw(_Y)) for _ in range(count - 1)]


@st.composite
def _invocations(draw):
    """(argv with INSTANCE and OUT placeholders, users or None)."""
    command = draw(st.sampled_from(["maxmin", "powermin", "greedy", "noma", "outage", "experiment"]))
    argv, users = [command], None
    if command in ("maxmin", "powermin", "greedy", "noma"):
        counts = st.sampled_from([2, 2, 2, 1, 3]) if command in ("greedy", "noma") else st.integers(1, 8)
        users = draw(_users(counts))
        argv.append("INSTANCE")
    if command in ("maxmin", "greedy", "outage"):
        argv.append(f"--power-dbm={draw(_POWER_DBM)}")
    if command in ("powermin", "greedy", "noma", "outage"):
        argv.append(f"--rate-bpcu={draw(_RATE_BPCU)}")
    if command == "outage":
        argv += [f"--users={draw(st.sampled_from([2, 2, 1, 3]))}", f"--trials={draw(st.integers(1, 5))}",
                 f"--seed={draw(st.integers(0, 2**64 - 1))}"]
    if command == "experiment":
        sweep = draw(st.sampled_from([experiments.AXIS_POWER, experiments.AXIS_RATE]))
        names = sorted(name for name, (spec, _) in experiments.SCHEMES.items() if spec.axis == sweep)
        schemes = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        values = _POWER_DBM if sweep == experiments.AXIS_POWER else _RATE_BPCU
        start = draw(values)
        stop = draw(st.one_of(st.just(start), values))
        argv += [f"--trials={draw(st.integers(1, 5))}", f"--seed={draw(st.integers(0, 2**64 - 1))}",
                 "--set", f"sweep={sweep}", "--set", f"schemes={','.join(schemes)}",
                 "--set", f"sweep_start={start}", "--set", f"sweep_stop={stop}",
                 "--set", f"sweep_points={draw(st.integers(1, 2))}", "--set", "grid_points=101",
                 "--set", f"rate_bpcu={draw(_RATE_BPCU)}"]
    for key, value in draw(_OVERRIDES).items():
        argv += ["--set", f"{key}={value}"]
    if draw(st.booleans()):
        argv.append("--certify")
    if draw(st.booleans()):
        argv += ["--out", "OUT"]
    return argv, users


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run_main(argv, users=None):
    """cli.main(argv) in a scratch directory, with INSTANCE and OUT standing for files there.

    Returns (exit code, stdout, stderr, what --out holds or None), after
    checking every clause of the contract but the exit code's value.
    """
    with tempfile.TemporaryDirectory() as tmp:
        instance, out = Path(tmp) / "users.txt", Path(tmp) / "out"
        if users is not None:
            instance.write_text("".join(f"{x!r} {y!r}\n" for x, y in users))
        argv = [{"INSTANCE": str(instance), "OUT": str(out)}.get(arg, arg) for arg in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = cli.main(argv)
        written = out.read_text() if out.exists() else None
    err = stderr.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert code != 4 or "--certify" in argv, (argv, err)
    assert not caught and "Warning" not in err, (argv, [str(w.message) for w in caught], err)
    assert "Traceback" not in err, (argv, err)
    if written is not None and argv[0] != "experiment":
        json.loads(written, parse_constant=_refuse_constant)
    return code, stdout.getvalue(), err, written


@settings(derandomize=True, max_examples=800, deadline=None, database=None)
@given(invocation=_invocations())
def test_every_input_keeps_the_exit_code_contract(invocation):
    run_main(*invocation)


_FAR_PAIR = [(-1e154, 0.0), (1e154, 0.0)]
_NEAR_EDGE = [(20.0, 0.0), (11.874, -1.78)]


@pytest.mark.parametrize("argv, users, named", [
    # an antenna at one end of the waveguide is length_m from a user at the other: the cubic's pow overflowed
    (["experiment", "--set", "schemes=oma-greedy-highsnr", "--set", "length_m=1e154", "--set", "sweep_points=2",
      "--trials", "3"], None, "(length_m**2 + "),
    (["powermin", "INSTANCE", "--set", "length_m=2e154", "--certify"], _FAR_PAIR, "(length_m**2 + "),
    (["greedy", "INSTANCE", "--set", "length_m=2e154", "--certify"], _FAR_PAIR, "(length_m**2 + "),
    # the half-width squared to 0: exit 4 without --certify
    (["outage", "--trials", "2", "--set", "width_m=1e-310"], None, "(width_m/2)**2 is"),
    # a subnormal noise floor noise * tau / gain: warnings, then "infeasible"
    (["greedy", "INSTANCE", "--power-dbm", "30", "--rate-bpcu", "1", "--set", "noise_dbm=-3200", "--certify"],
     _NEAR_EDGE, "noise_w * height_m**2 / path gain"),
    (["greedy", "INSTANCE", "--power-dbm", "30", "--rate-bpcu", "1", "--set", "fc_hz=1e-146", "--certify"],
     _NEAR_EDGE, "noise_w * height_m**2 / path gain"),
    # a subnormal noise power noise * tau at the receiver: NOMA's own rates missed the target, exit 4
    (["noma", "INSTANCE", "--rate-bpcu=1.1434900249268412", "--set", "fc_hz=9192336076478272.0", "--set",
      "noise_dbm=-3200"], [(-6.662533802322083e-189, 0.0)] * 2, "noise_w * height_m**2 is"),
])
def test_a_geometry_or_noise_outside_the_domain_exits_2_naming_it(argv, users, named):
    code, out, err, _ = run_main(argv, users)
    assert (code, out) == (2, "")
    assert err.startswith("error: SystemParams ") and named in err and err.count("\n") == 1


_TINY_PAIR = [(1e-160, 1e-160), (1e-160, 1e-160)]


@pytest.mark.parametrize("argv, users, code", [
    # a greedy floor coeff * tau overflows to inf: the layout is infeasible, without overflow warnings
    (["greedy", "INSTANCE", "--power-dbm=7e-159", "--rate-bpcu=510", "--set", "length_m=1e6"], _TINY_PAIR, 3),
    # a budget whose SNR p / q overflows: warnings, then rows of NaN figures and 0 trials, or "infeasible"
    (["experiment", "--trials=3", "--set", "schemes=oma-greedy-highsnr", "--set", "sweep_start=3000", "--set",
      "sweep_stop=3000", "--set", "sweep_points=1", "--set", "noise_dbm=-200", "--certify"], None, 2),
    (["greedy", "INSTANCE", "--power-dbm=3000", "--rate-bpcu=1", "--set", "noise_dbm=-200"], _NEAR_EDGE, 2),
    # noise * tau overflows in the max-min grid reference
    (["experiment", "--trials=3", "--set", "schemes=oma-maxmin-conv", "--set", "sweep_points=1", "--set",
      "noise_dbm=3000", "--set", "height_m=1e51", "--certify"], None, 0),
    # the power-min and NOMA grid references overflow on the whole grid or at its far end
    (["powermin", "INSTANCE", "--rate-bpcu=1", "--set", "noise_dbm=3000", "--set", "width_m=1", "--certify"],
     [(0.0, 0.0)] * 7, 2),
    (["experiment", "--trials=1", "--set", "sweep=rate_bpcu", "--set", "schemes=noma", "--set", "sweep_start=510",
      "--set", "sweep_stop=510", "--set", "sweep_points=1", "--set", "length_m=1e51", "--certify"], None, 2),
    # the weak user's power is finite but not its received power: exit 4 without --certify
    (["noma", "INSTANCE", "--rate-bpcu=600", "--set", "noise_dbm=0.5", "--set", "fc_hz=1e-141"],
     [(0.0, 0.5), (0.0, 0.5)], 2),
    # the sweep's span overflows in np.linspace
    (["experiment", "--trials=1", "--set", "sweep_start=-1e308", "--set", "sweep_stop=1e308", "--set",
      "sweep_points=2"], None, 2),
])
def test_an_overflow_inside_the_domain_keeps_the_contract(argv, users, code):
    assert run_main(argv, users)[0] == code


@pytest.mark.parametrize("argv, users", [
    # a subnormal power coefficient keeps about 28 bits: the closed form and the search rounded it apart, exit 4
    (["noma", "INSTANCE", "--rate-bpcu=1e-310", "--certify"], [(0.0, -2.633), (-11.66, 5e-324)]),
    (["noma", "INSTANCE", "--rate-bpcu=1e-310", "--certify"], [(-3.126, -3.126), (5.0, 5.0)]),
    (["experiment", "--trials=2", "--set", "schemes=oma-powermin", "--set", "sweep=rate_bpcu", "--set",
      "sweep_start=1e-310", "--set", "sweep_stop=1e-310", "--set", "sweep_points=1"], None),
])
def test_a_rate_target_whose_least_power_is_subnormal_exits_2_naming_it(argv, users):
    code, out, err, _ = run_main(argv, users)
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: rate target \S+ nats over \d slot\(s\) needs a least power coeff \* height_m\*\*2 "
                        r"below the smallest normal float\n", err), err


def test_statistics_of_huge_finite_trials_stay_finite():
    # three finite powers near 1e304 whose squares overflowed: stderr read inf next to a finite mean
    code, out, _, _ = run_main(["experiment", "--set", "schemes=oma-powermin", "--set", "sweep=rate_bpcu",
                                "--set", "sweep_start=510", "--set", "sweep_stop=510", "--set", "sweep_points=1",
                                "--trials", "3"])
    assert code == 0
    assert out.splitlines()[1] == "510,oma-powermin,total_power_w,3.76645507802e+303,5.48826681874e+302,3"


def test_help_lists_every_config_key_with_its_default():
    text = cli.build_parser().format_help()
    for key, (_, default, help_text) in experiments.CONFIG_KEYS.items():
        assert f"  {key} ({cli._shown(key, default)}) " in text and help_text in text
    for listed in ("fc_hz (2.8e+10)", "noise_dbm (-90)", "clustering (false)", "grid_points (2001)",
                   "schemes (oma-maxmin,oma-maxmin-conv)", "sweep_points (power_dbm 9, rate_bpcu 8)"):
        assert listed in text


@pytest.mark.parametrize("command", ["maxmin", "powermin", "greedy", "noma", "outage", "experiment"])
def test_only_the_subcommands_that_draw_random_numbers_take_a_seed(command, capsys):
    argv = [command] + ([] if command in ("outage", "experiment") else ["users.txt"]) + ["--seed", "1"]
    if command in ("outage", "experiment"):
        assert cli._collect_mapping(cli.build_parser().parse_args(argv))["seed"] == 1
    else:
        with pytest.raises(SystemExit) as exit_:
            cli.build_parser().parse_args(argv)
        assert exit_.value.code == 2 and "unrecognized arguments: --seed 1" in capsys.readouterr().err
