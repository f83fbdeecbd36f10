"""Experiment sweep configuration and CSV pipeline."""

import hashlib
import logging
import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplace import experiments, rng
from pinchplace.core import LayoutBlock, SystemParams, dbm_to_watt, nats_to_bpcu
from pinchplace.errors import ConfigError
from pinchplace.experiments import ExperimentConfig, layout_digest, merge_config, run_experiment, sample_layout
from pinchplace.oma_fairness import solve_max_min_rate

PARAMS = SystemParams.default()


def test_merge_config_defaults_and_coercion():
    merged = merge_config({})
    assert merged["fc_hz"] == 28e9 and merged["users"] == 2
    merged = merge_config({"trials": "123", "fc_hz": "3.5e9", "clustering": "yes"})
    assert merged["trials"] == 123 and isinstance(merged["trials"], int)
    assert merged["fc_hz"] == 3.5e9
    assert merged["clustering"] is True
    # an integral number is taken whole for an integer key; sweep_points has no default to infer it from
    merged = merge_config({"sweep_points": "3", "grid_points": 101.0})
    assert (merged["sweep_points"], merged["grid_points"]) == (3, 101)
    assert isinstance(merged["sweep_points"], int) and isinstance(merged["grid_points"], int)


def test_merge_config_rejects_unknown_and_bad_values():
    with pytest.raises(ConfigError, match="unknown config keys"):
        merge_config({"freq": 1.0})
    with pytest.raises(ConfigError):
        merge_config({"trials": "lots"})
    with pytest.raises(ConfigError):
        merge_config({"clustering": "maybe"})


# per kind: a string, an int and a float spelling of a value, each with the value merge_config gives
_SPELLINGS = {
    float: [(" 2.5 ", 2.5), (3, 3.0), (np.float64(2.5), 2.5)],
    int: [(" 7 ", 7), (7, 7), (7.0, 7)],
    bool: [("Yes", True), (1, True), (0.0, False)],
    str: [(" a,b ", "a,b")],
}
_REFUSED = {float: ["nan", "1e400", math.inf, 10**400], int: ["7.0", 2.5, math.nan], bool: ["maybe", 2, math.nan],
            str: [1, 2.5]}


@pytest.mark.parametrize("key", list(experiments.CONFIG_KEYS))
def test_merge_config_gives_each_key_its_declared_type(key):
    kind, default, text = experiments.CONFIG_KEYS[key]
    assert text and (type(default) is kind or (default is None and key.startswith("sweep_")))
    assert merge_config({})[key] == default
    for raw, value in _SPELLINGS[kind]:
        got = merge_config({key: raw})[key]
        assert type(got) is kind and got == value
    # a value of another type is refused by name, not handed on to fail later
    for raw in [*_REFUSED[kind], [1], None if default is not None else [None]]:
        with pytest.raises(ConfigError, match=rf"^{key} must be "):
            merge_config({key: raw})


def test_build_params_maps_noise_dbm():
    params = experiments.build_params(merge_config({"noise_dbm": "-90"}))
    assert np.isclose(params.noise_w, 1e-12, rtol=1e-12)
    with pytest.raises(ConfigError):
        experiments.build_params(merge_config({"height_m": "-3"}))


@pytest.mark.parametrize("overrides,message", [
    ({"schemes": "no-such-scheme"}, "unknown scheme"),
    ({"schemes": "noma"}, "sweeps"),  # noma sweeps rate, default config sweeps power
    ({"schemes": "oma-greedy", "users": 3}, "requires users = 2"),
    ({"trials": 0}, "trials"),
    ({"sweep": "bandwidth"}, "sweep"),
    ({"sweep_points": 0}, "sweep_points"),
    ({"sweep_start": 5, "sweep_stop": 1}, "sweep_stop"),
    ({"seed": -1}, "seed"),
    ({"rate_bpcu": 0}, "rate_bpcu"),
    ({"schemes": ""}, "at least one"),
    ({"rate_bpcu": "nan"}, "rate_bpcu must be a finite number"),
    ({"sweep_start": float("nan")}, "sweep_start must be a finite number"),
    ({"power_dbm": float("inf")}, "power_dbm must be a finite number"),
    ({"schemes": "outage", "clustering": True}, "uniform drops"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"sweep_points": "2.7"}, "sweep_points must be an integer"),
    ({"users": 2.000001}, "users must be an integer"),
    ({"seed": "7.0"}, "seed must be an integer"),
    ({"grid_points": float("inf")}, "grid_points must be an integer"),
    ({"grid_refine": float("nan")}, "grid_refine must be an integer"),
])
def test_from_mapping_validation(overrides, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_mapping(overrides)


def test_axis_defaults():
    cfg = ExperimentConfig.from_mapping({})
    assert cfg.sweep_values == tuple(np.linspace(0.0, 40.0, 9))
    cfg_rate = ExperimentConfig.from_mapping(
        {"sweep": "rate_bpcu", "schemes": "oma-powermin"}
    )
    assert cfg_rate.sweep_values == tuple(np.linspace(0.5, 4.0, 8))


def _users(one):
    """The (x, y) float pairs of a one-row block."""
    return list(zip(one.xs[0].tolist(), one.ys[0].tolist()))


def test_sample_layout_bounds_and_clustering():
    gen = rng.stream(1, rng.DOMAIN_TESTS, 50)
    for _ in range(100):
        lay = sample_layout(4, PARAMS, False, gen)
        assert (len(lay), lay.num_users) == (1, 4)
        assert np.all(np.abs(lay.xs) <= 20.0) and np.all(np.abs(lay.ys) <= 5.0)
        clustered = sample_layout(4, PARAMS, True, gen)
        assert np.all(clustered.xs >= -10.0) and np.all(clustered.xs <= -5.0)
        assert np.all(np.abs(clustered.ys) <= 5.0)


def test_sample_layout_is_a_pure_function_of_the_stream():
    a = sample_layout(3, PARAMS, False, rng.stream(9, rng.DOMAIN_LAYOUTS, 2, 5))
    b = sample_layout(3, PARAMS, False, rng.stream(9, rng.DOMAIN_LAYOUTS, 2, 5))
    assert len(a) == 1 and _users(a) == _users(b)


def test_internal_sweep_value_units():
    assert np.isclose(experiments.internal_sweep_value("power_dbm", 30.0), 1.0, rtol=1e-12)
    assert np.isclose(experiments.internal_sweep_value("rate_bpcu", 1.0), math.log(2.0),
                      rtol=1e-15)


def _tiny_config(**overrides):
    base = {"schemes": "oma-maxmin,oma-maxmin-conv", "trials": 8,
            "sweep_start": 10, "sweep_stop": 30, "sweep_points": 2, "seed": 5}
    base.update(overrides)
    return ExperimentConfig.from_mapping(base)


def test_run_experiment_structure():
    csv = run_experiment(_tiny_config())
    lines = csv.strip().split("\n")
    assert lines[0] == "sweep_value,scheme,metric,mean,stderr,trials"
    assert len(lines) == 1 + 2 * 2
    for row in lines[1:]:
        sweep, scheme, metric, mean, stderr, trials = row.split(",")
        assert scheme in ("oma-maxmin", "oma-maxmin-conv")
        assert metric == "min_rate_bpcu"
        assert float(mean) > 0 and float(stderr) >= 0 and int(trials) == 8
    assert csv.endswith("\n")


def test_run_experiment_means_match_direct_solves():
    cfg = _tiny_config(schemes="oma-maxmin", trials=5, sweep_points=1,
                       sweep_start=20, sweep_stop=20)
    csv = run_experiment(cfg)
    row = csv.strip().split("\n")[1].split(",")
    total_w = dbm_to_watt(20.0)
    rates = []
    for trial in range(5):
        gen = rng.stream(5, rng.DOMAIN_LAYOUTS, 0, trial)
        block = sample_layout(2, PARAMS, False, gen)
        rates.append(nats_to_bpcu(solve_max_min_rate(PARAMS, block, total_w).objective[0]))
    assert np.isclose(float(row[3]), np.mean(rates), rtol=1e-10), (
        f"csv mean {row[3]} vs direct {np.mean(rates)}"
    )
    assert np.isclose(float(row[4]), np.std(rates, ddof=1) / math.sqrt(5), rtol=1e-10)


def test_run_experiment_deterministic():
    a = run_experiment(_tiny_config())
    b = run_experiment(_tiny_config())
    assert a == b


def test_a_rate_sweep_evaluates_each_coefficient_once_per_sweep_point(monkeypatch):
    # a rate column repeats each point's target once per trial, and each site of e^(M R) - 1 or e^R
    # calls the C library once per point of a draw (core.libm_per_run): the counts are exact, so
    # per-row work coming back fails here however fast the host is
    calls = {"expm1": [], "exp": []}
    for name, seen in calls.items():
        monkeypatch.setattr(math, name, lambda value, real=getattr(math, name), seen=seen: seen.append(value)
                            or real(value))
    config = ExperimentConfig.from_mapping({"schemes": "oma-powermin,oma-powermin-conv,noma,noma-conv",
                                            "sweep": "rate_bpcu", "sweep_points": 8, "trials": 100})
    run_experiment(config)
    points = len(config.sweep_values)
    # e^(M R) - 1 in the power coefficient of oma-powermin, oma-powermin-conv, noma and each of
    # noma-conv's two decoders, and e^R - 1 in noma's weak-user power and each noma-conv decoder's
    assert len(calls["expm1"]) == 8 * points
    assert len(calls["exp"]) == points  # noma's placement weight e^R


def test_paired_schemes_share_layouts():
    # with common layouts the movable antenna wins on every trial, so the
    # means must be strictly ordered even at tiny sample sizes
    csv = run_experiment(_tiny_config(trials=12))
    rows = [r.split(",") for r in csv.strip().split("\n")[1:]]
    by_point = {}
    for sweep, scheme, _, mean, _, _ in rows:
        by_point.setdefault(sweep, {})[scheme] = float(mean)
    for sweep, got in by_point.items():
        assert got["oma-maxmin"] > got["oma-maxmin-conv"], f"at {sweep} dBm"


def test_all_infeasible_trials_yield_nan_row():
    cfg = ExperimentConfig.from_mapping({
        "schemes": "oma-greedy", "trials": 6, "rate_bpcu": 4.0,
        "sweep_start": -30, "sweep_stop": -30, "sweep_points": 1,
        "grid_points": 101, "grid_refine": 4,
    })
    row = run_experiment(cfg).strip().split("\n")[1].split(",")
    assert row[3] == "nan" and row[4] == "nan" and row[5] == "0"


def test_outage_analytic_row_is_sweep_level():
    cfg = ExperimentConfig.from_mapping({
        "schemes": "outage", "trials": 7, "rate_bpcu": 2.5,
        "sweep_start": 8, "sweep_stop": 8, "sweep_points": 1,
    })
    row = run_experiment(cfg).strip().split("\n")[1].split(",")
    # deterministic closed form: stderr 0, a single evaluation
    assert row[2] == "outage_rate_bpcu"
    assert float(row[4]) == 0.0 and row[5] == "1"
    want = (1.0 - 0.18450583211328647) * 2.5
    assert np.isclose(float(row[3]), want, rtol=1e-10)


def test_scheme_listing_is_stable():
    assert set(experiments.SCHEMES) == {
        "oma-maxmin", "oma-maxmin-conv", "oma-powermin", "oma-powermin-conv",
        "oma-greedy", "oma-greedy-highsnr", "oma-greedy-conv",
        "noma", "noma-conv", "outage", "outage-mc", "outage-mc-conv",
    }


def _digest_per_trial(layouts):
    return hashlib.sha256(b"".join(np.array(users, dtype=float).tobytes() for users in layouts)).hexdigest()


@pytest.mark.parametrize("users", [1, 2, 8])
@pytest.mark.parametrize("clustering", [False, True])
def test_layout_digest_equals_the_per_trial_digest(users, clustering):
    gen = rng.stream(9, rng.DOMAIN_TESTS, users)
    layouts = [_users(sample_layout(users, PARAMS, clustering, gen)) for _ in range(17)]
    assert layout_digest(LayoutBlock.from_layouts(layouts)) == _digest_per_trial(layouts)


def test_run_experiment_logs_each_points_layout_digest(caplog):
    cfg = _tiny_config(trials=5)
    with caplog.at_level(logging.DEBUG, logger="pinchplace.experiments"):
        run_experiment(cfg)
    def one_stream_per_trial(sweep_idx):
        return [_users(sample_layout(2, cfg.params, False, rng.stream(cfg.seed, rng.DOMAIN_LAYOUTS, sweep_idx, t)))
                for t in range(5)]

    want = [_digest_per_trial(one_stream_per_trial(i)) for i in range(2)]
    got = [r.getMessage().rsplit("sha256=", 1)[1] for r in caplog.records if "sha256=" in r.getMessage()]
    assert got == want


@pytest.mark.parametrize("pass_blocks", [1, 12])
def test_sweep_layouts_do_not_depend_on_how_points_are_drawn(pass_blocks, monkeypatch):
    # by default the three points share one draw; 1 draws each point in one-row passes, 12 two points at once,
    # and each draw goes to each evaluator in one call, so the CSV must not see the grouping either
    cfg = _tiny_config(trials=6, sweep_points=3, schemes="oma-maxmin,oma-greedy,oma-greedy-highsnr,outage-mc,outage",
                       grid_points=101, grid_refine=6)
    csv = run_experiment(cfg)
    assert [points for points, _ in experiments.sweep_blocks(cfg)] == [range(3)]
    monkeypatch.setattr(rng, "PASS_BLOCKS", pass_blocks)
    draws = list(experiments.sweep_blocks(cfg))
    assert [points for points, _ in draws] == {1: [range(1), range(1, 2), range(2, 3)], 12: [range(2), range(2, 3)]}[
        pass_blocks]
    for points, block in draws:
        assert len(block) == 6 * len(points)
        for k, sweep_idx in enumerate(points):
            alone, rows = experiments.layout_block(cfg, sweep_idx, range(6)), block[6 * k:6 * (k + 1)]
            assert np.array_equal(rows.xs, alone.xs) and np.array_equal(rows.ys, alone.ys)
    assert run_experiment(cfg) == csv


def _summary(column):
    """One point's (mean, stderr, count) as the sweep computed it point by point, before _summaries."""
    finite = np.isfinite(column)
    count = int(finite.sum())
    if count == 0:
        return math.nan, math.nan, 0
    kept = column[finite]
    stderr = float(kept.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return float(kept.mean()), stderr, count


def _stat_bits(stats):
    return [(np.float64(mean).view(np.int64), np.float64(stderr).view(np.int64), count)
            for mean, stderr, count in stats]


_DROPPED = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def _metric_tables(draw):
    """A (rows, trials) table whose rows keep every trial, drop some, keep one, or drop all.

    A draw stacks every scheme's points into one table, so it can be as tall as 60 rows.
    """
    rows, trials = draw(st.integers(1, 60)), draw(st.integers(1, 300))
    scale = draw(st.sampled_from([1e-12, 1e-3, 1.0, 1e4]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = gen.standard_normal((rows, trials)) * scale + scale
    for row in table:
        kind = draw(st.sampled_from(["whole", "whole", "some", "one", "none"]))
        if kind == "some":
            row[gen.random(trials) < draw(st.sampled_from([0.01, 0.3, 0.9]))] = draw(_DROPPED)
        elif kind in ("one", "none"):
            kept = row[gen.integers(trials)]
            row[:] = [draw(_DROPPED) for _ in range(trials)] if trials < 8 else draw(_DROPPED)
            if kind == "one":
                row[gen.integers(trials)] = kept
    return table


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(table=_metric_tables())
def test_summaries_equal_the_per_point_summary_bit_for_bit(table):
    assert _stat_bits(experiments._summaries(table)) == _stat_bits(_summary(row) for row in table)


def test_summaries_of_rows_whose_sums_or_squares_overflow_stay_finite():
    huge = np.array([[1e308, 1e308, -1e308, -1e308], [1.7e308, 1.7e308, 1.7e308, 1.0], [3e303, 4e303, 5e303, 6e303]])
    table = np.vstack([huge, [[1.0, 2.0, 3.0, 4.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = experiments._summaries(table)
    # the figures of exact arithmetic; the other rows keep theirs
    for row, (mean, stderr, count) in zip(huge.tolist(), stats):
        assert mean == pytest.approx(statistics.mean(row), rel=1e-15, abs=0.0) and count == 4
        assert stderr == pytest.approx(statistics.stdev(row) / 2.0, rel=1e-15)
    assert stats[3] == experiments._summaries(table[3:])[0] == (2.5, np.std([1.0, 2.0, 3.0, 4.0], ddof=1) / 2.0, 4)


def test_summaries_of_edge_rows():
    table = np.array([[1.0, 2.0, 4.0], [math.nan, 3.0, math.inf], [-math.inf, math.nan, math.inf]])
    (mean, stderr, count), survivor, dropped = experiments._summaries(table)
    assert (mean, count) == (7.0 / 3.0, 3)
    assert stderr == pytest.approx(np.std([1.0, 2.0, 4.0], ddof=1) / math.sqrt(3), rel=1e-15)
    assert survivor == (3.0, 0.0, 1)  # one survivor: standard error 0, not NaN
    assert math.isnan(dropped[0]) and math.isnan(dropped[1]) and dropped[2] == 0
    one, none = experiments._summaries(np.array([[5.0], [math.nan]]))  # trials = 1
    assert one == (5.0, 0.0, 1) and none[2] == 0 and math.isnan(none[0])
