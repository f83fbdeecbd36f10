"""Block solvers row by row, compared with ==.

Every drop set mixes uniform and clustered drops with degenerate rows:
coincident users, users on the waveguide (y = 0) and users on the edge of
the service area.  Row i of a block must equal the one-row block of layout i,
block[i:i + 1], exactly, also when a column gives each row its own budget or
rate target and the one-row block gets its entry as a float; a broken
invariant or a bad sweep value on any one row must fail the whole block, and
every route that only takes a single instance must refuse a block of any other
row count.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplace import certify, experiments, noma, oma_fairness, oma_greedy, rng
from pinchplace.core import (LayoutBlock, NomaRates, SystemParams, bpcu_to_nats, dbm_to_watt, min_power_terms,
                             nats_to_bpcu, path_gain, power_coeff)
from pinchplace.errors import CertificationError, DomainError
from pinchplace.oracle import GridSpec

PARAMS = SystemParams.default()
DROPS = 240


def _drops(num_users: int, seed: int) -> LayoutBlock:
    """DROPS layouts: half uniform, half clustered, with every tenth row made degenerate."""
    halves = [experiments.sample_layout(num_users, PARAMS, clustering,
                                        rng.TrialStreams(seed, rng.DOMAIN_TESTS, int(clustering), range(DROPS // 2)))
              for clustering in (False, True)]
    xs = np.concatenate([h.xs for h in halves])
    ys = np.concatenate([h.ys for h in halves])
    hl, hw = PARAMS.half_length, PARAMS.half_width
    xs[0::10] = xs[0::10, :1]                                   # coincident users
    ys[0::10] = ys[0::10, :1]
    ys[1::10] = 0.0                                             # on the waveguide
    xs[2::10, 0], ys[2::10, 0] = -hl, hw                        # corners and edges
    xs[3::10, -1], ys[3::10, -1] = hl, -hw
    xs[4::10, :] = hl
    ys[5::10, :] = -hw
    return LayoutBlock(xs, ys)


def _rows(block: LayoutBlock):
    """Each layout of a block as its own one-row block, block[i:i + 1]."""
    return [block[i:i + 1] for i in range(len(block))]


def _users(one: LayoutBlock):
    """The (x, y) float pairs of a one-row block."""
    return list(zip(one.xs[0].tolist(), one.ys[0].tolist()))


@pytest.mark.parametrize("num_users", [1, 2, 3, 8])
@pytest.mark.parametrize("dbm", [-100.0, 0.0, 40.0])
def test_max_min_blocks_equal_one_layout_solves(num_users, dbm):
    block = _drops(num_users, 100 + num_users)
    total = dbm_to_watt(dbm)
    solved = oma_fairness.solve_max_min_rate(PARAMS, block, total)
    conventional = oma_fairness.conventional_max_min_rate(PARAMS, block, total)
    for i, lay in enumerate(_rows(block)):
        assert solved.row(i) == oma_fairness.solve_max_min_rate(PARAMS, lay, total).row(0)
        assert conventional[i] == oma_fairness.conventional_max_min_rate(PARAMS, lay, total)[0]


@pytest.mark.parametrize("num_users", [1, 2, 3, 8])
@pytest.mark.parametrize("rate_bpcu", [0.01, 1.0, 4.0])
def test_power_min_blocks_equal_one_layout_solves(num_users, rate_bpcu):
    block = _drops(num_users, 200 + num_users)
    rate = bpcu_to_nats(rate_bpcu)
    solved = oma_fairness.solve_min_total_power(PARAMS, block, rate)
    conventional = oma_fairness.conventional_min_total_power(PARAMS, block, rate)
    saving = oma_fairness.pinching_power_saving(PARAMS, block, rate)
    at_centre = min_power_terms(PARAMS, block, rate, slots=num_users).powers_at(0.0)
    for i, lay in enumerate(_rows(block)):
        assert solved.row(i) == oma_fairness.solve_min_total_power(PARAMS, lay, rate).row(0)
        assert conventional[i] == oma_fairness.conventional_min_total_power(PARAMS, lay, rate)[0]
        assert saving[i] == oma_fairness.pinching_power_saving(PARAMS, lay, rate)[0]
        assert tuple(at_centre[i]) == tuple(min_power_terms(PARAMS, lay, rate, slots=num_users).powers_at(0.0)[0])


@pytest.mark.parametrize("rate_bpcu", [0.01, 0.5, 1.0, 4.0])
def test_noma_blocks_equal_one_layout_solves(rate_bpcu):
    # unordered drops: each row picks its own decoder; a tie in |y| (coincident users, both on
    # the waveguide, both on one edge) keeps user 1, and user 1 on the far edge hands it to user 2
    block = _drops(2, 300)
    rate = bpcu_to_nats(rate_bpcu)
    solved = noma.solve_min_power(PARAMS, block, rate)
    conventional = noma.conventional_min_powers(PARAMS, block, rate)
    assert set(solved.sic_user.tolist()) == {1, 2}
    assert all((solved.sic_user[k::10] == 1).all() for k in (0, 1, 5)) and (solved.sic_user[2::10] == 2).all()
    for i, lay in enumerate(_rows(block)):
        assert solved.row(i) == noma.solve_min_power(PARAMS, lay, rate).row(0)
        by_decoder = [float(sum(noma.min_powers_at(PARAMS, lay, rate, 0.0, dec))[0]) for dec in (0, 1)]
        assert conventional[i] == min(by_decoder)


@pytest.mark.parametrize("dbm", [0.0, 20.0, 40.0])
def test_greedy_blocks_equal_one_layout_solves(dbm):
    block = _drops(2, 400)
    total, rate = dbm_to_watt(dbm), bpcu_to_nats(1.0)
    fast = oma_greedy.best_placement_high_snr(PARAMS, block, total, rate)
    at_centre = oma_greedy.split_power(PARAMS, block, total, rate, np.zeros(len(block)))
    for i, lay in enumerate(_rows(block)):
        alone = oma_greedy.best_placement_high_snr(PARAMS, lay, total, rate)
        assert fast.roots[i].tobytes() == alone.roots[0].tobytes()
        assert fast.row(i) == alone.row(0)
        assert at_centre.row(i) == oma_greedy.split_power(PARAMS, lay, total, rate, [0.0]).row(0)


def _one_layout_metric(name, one, value, cfg):
    """The metric of one per-trial scheme on a one-row block, from direct solver calls."""
    rate = bpcu_to_nats(cfg.rate_bpcu)
    if name == "oma-maxmin":
        return nats_to_bpcu(oma_fairness.solve_max_min_rate(PARAMS, one, value).objective[0])
    if name == "oma-maxmin-conv":
        return nats_to_bpcu(oma_fairness.conventional_max_min_rate(PARAMS, one, value)[0])
    if name == "oma-powermin":
        return oma_fairness.solve_min_total_power(PARAMS, one, value).objective[0]
    if name == "oma-powermin-conv":
        return oma_fairness.conventional_min_total_power(PARAMS, one, value)[0]
    if name == "oma-greedy-conv":
        return nats_to_bpcu(oma_greedy.split_power(PARAMS, one, value, rate, [0.0]).solution.objective[0])
    if name == "oma-greedy":
        return nats_to_bpcu(oma_greedy.best_placement_search(PARAMS, one, value, rate, cfg.grid).solution.objective[0])
    if name == "oma-greedy-highsnr":
        return nats_to_bpcu(oma_greedy.best_placement_high_snr(PARAMS, one, value, rate).solution.objective[0])
    if name == "noma":
        return noma.solve_min_power(PARAMS, one, value).total[0]
    if name == "noma-conv":
        return min(float(sum(noma.min_powers_at(PARAMS, one, value, 0.0, dec))[0]) for dec in (0, 1))
    if name == "outage-mc":
        need = oma_fairness.solve_min_total_power(PARAMS, one, rate).powers[0, 0]
    else:
        need = min_power_terms(PARAMS, one, rate, slots=one.num_users).powers_at(0.0)[0, 0]
    return 0.0 if need >= value else cfg.rate_bpcu


@pytest.mark.parametrize("name", [n for n, (spec, _) in experiments.SCHEMES.items() if spec.per_trial])
def test_scheme_evaluators_equal_one_layout_metrics(name):
    spec, evaluator = experiments.SCHEMES[name]
    grid = {"grid_points": 101, "grid_refine": 6} if name == "oma-greedy" else {}
    cfg = experiments.ExperimentConfig.from_mapping({"schemes": name, "sweep": spec.axis, "rate_bpcu": 1.5, **grid})
    block = _drops(2, 500)
    for sweep_value in cfg.sweep_values[::3]:
        value = experiments.internal_sweep_value(cfg.sweep, sweep_value)
        got = np.asarray(evaluator(PARAMS, block, value, cfg), dtype=float).tolist()
        assert got == [float(_one_layout_metric(name, lay, value, cfg)) for lay in _rows(block)], sweep_value


def _leaves(result):
    """Every array of a block result (an array, a result dataclass or a tuple of them), depth first."""
    if result is None:  # an optional field left out
        return []
    if isinstance(result, np.ndarray):
        return [result]
    if dataclasses.is_dataclass(result):
        return [leaf for field in dataclasses.fields(result) for leaf in _leaves(getattr(result, field.name))]
    return [leaf for part in result for leaf in _leaves(part)]


def _bits(value):
    value = np.asarray(value)
    return value.tobytes() if value.dtype.kind == "f" else value.tolist()


def _assert_rows_independent(solve, block, *per_row):
    """Row i of solve(block, *per_row) equals solve on the one-row block of layout i, bit for bit.

    Each per_row argument holds one entry per row; the one-row call gets entry i.
    """
    whole = _leaves(solve(block, *per_row))
    for i in range(len(block)):
        _assert_row(whole, _leaves(solve(block[i:i + 1], *(np.asarray(arg)[i:i + 1] for arg in per_row))), i)


def _assert_value_rows_independent(solve, block, values, *per_row):
    """Row i of solve(block, values, *per_row), values a (B,) column, equals solve on the one-row
    block of layout i with values[i] as a float (and entry i of each per_row argument), bit for bit."""
    whole = _leaves(solve(block, np.asarray(values), *per_row))
    for i in range(len(block)):
        alone = solve(block[i:i + 1], float(values[i]), *(np.asarray(arg)[i:i + 1] for arg in per_row))
        _assert_row(whole, _leaves(alone), i)


def _assert_row(whole, alone, i):
    assert len(alone) == len(whole)
    for got, want in zip(whole, alone):
        assert _bits(got[i]) == _bits(want[0]), f"row {i}"


_HL, _HW = PARAMS.half_length, PARAMS.half_width


def _coordinate(limit):
    # signed zeros and the area's edges, besides any value inside it
    return st.one_of(st.sampled_from([0.0, -0.0, limit, -limit]), st.floats(-limit, limit))


@st.composite
def _blocks(draw, num_users):
    """A block of 1 to 6 layouts, some with coincident users or with near-equal |y|."""
    rows = draw(st.integers(1, 6))
    xs = draw(st.lists(st.lists(_coordinate(_HL), min_size=num_users, max_size=num_users),
                       min_size=rows, max_size=rows))
    ys = draw(st.lists(st.lists(_coordinate(_HW), min_size=num_users, max_size=num_users),
                       min_size=rows, max_size=rows))
    for x, y in zip(xs, ys):
        kind = draw(st.sampled_from(["plain", "coincident", "near-equal |y|"]))
        if kind == "coincident":
            x[:], y[:] = [x[0]] * num_users, [y[0]] * num_users
        elif kind == "near-equal |y|" and num_users > 1:
            y[1] = -y[0] * (1.0 - 2.0 ** -40)
    return LayoutBlock(np.array(xs), np.array(ys))


_BUDGETS_W = st.floats(-100.0, 40.0).map(dbm_to_watt)
_RATES_NATS = st.floats(0.01, 4.0).map(bpcu_to_nats)
_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@_PROPERTY
@given(data=st.data(), num_users=st.integers(1, 8), total=_BUDGETS_W, rate=_RATES_NATS)
def test_fairness_rows_depend_on_their_own_layout_only(data, num_users, total, rate):
    block = data.draw(_blocks(num_users))
    _assert_rows_independent(lambda b: oma_fairness.solve_max_min_rate(PARAMS, b, total), block)
    _assert_rows_independent(lambda b: oma_fairness.conventional_max_min_rate(PARAMS, b, total), block)
    _assert_rows_independent(lambda b: oma_fairness.solve_min_total_power(PARAMS, b, rate), block)
    _assert_rows_independent(lambda b: oma_fairness.conventional_min_total_power(PARAMS, b, rate), block)
    _assert_rows_independent(lambda b: oma_fairness.pinching_power_saving(PARAMS, b, rate), block)


_PAIR_GRID = GridSpec(lo=-_HL, hi=_HL, points=101, refine_iters=6)


@_PROPERTY
@given(data=st.data(), total=_BUDGETS_W, rate=_RATES_NATS)
def test_pair_rows_depend_on_their_own_layout_only(data, total, rate):
    block = data.draw(_blocks(2))
    xs = data.draw(st.lists(_coordinate(_HL), min_size=len(block), max_size=len(block)))
    _assert_rows_independent(lambda b: noma.solve_min_power(PARAMS, b, rate), block)
    _assert_rows_independent(lambda b: noma.conventional_min_powers(PARAMS, b, rate), block)
    for decoder in (0, 1):
        _assert_rows_independent(lambda b, x: noma.min_powers_at(PARAMS, b, rate, x, decoder), block, xs)
    _assert_rows_independent(lambda b, x: oma_greedy.split_power(PARAMS, b, total, rate, x), block, xs)
    _assert_rows_independent(lambda b: oma_greedy.best_placement_high_snr(PARAMS, b, total, rate), block)
    _assert_rows_independent(lambda b: oma_greedy.best_placement_search(PARAMS, b, total, rate, _PAIR_GRID), block)


def _column(data, block, values):
    """One value per row of block: drawn row by row, or in runs of repeated values as a sweep column holds them."""
    if data.draw(st.booleans()):
        return data.draw(st.lists(values, min_size=len(block), max_size=len(block)))
    heads = data.draw(st.lists(values, min_size=1, max_size=len(block)))
    return [heads[i * len(heads) // len(block)] for i in range(len(block))]


@_PROPERTY
@given(data=st.data(), num_users=st.integers(1, 8))
def test_fairness_rows_take_their_own_budget_or_rate_target(data, num_users):
    block = data.draw(_blocks(num_users))
    totals, rates = _column(data, block, _BUDGETS_W), _column(data, block, _RATES_NATS)
    for solve in (oma_fairness.solve_max_min_rate, oma_fairness.conventional_max_min_rate):
        _assert_value_rows_independent(lambda b, v: solve(PARAMS, b, v), block, totals)
    for solve in (oma_fairness.solve_min_total_power, oma_fairness.conventional_min_total_power,
                  oma_fairness.pinching_power_saving):
        _assert_value_rows_independent(lambda b, v: solve(PARAMS, b, v), block, rates)

    def terms(b, v, x):
        found = min_power_terms(PARAMS, b, v, slots=num_users)
        return found.floors, found.powers_at(x), found.powers_at(0.0)

    _assert_value_rows_independent(terms, block, rates, _column(data, block, _coordinate(_HL)))
    coeffs = power_coeff(PARAMS, np.array(rates), num_users)
    assert _bits(coeffs) == _bits([power_coeff(PARAMS, rate, num_users) for rate in rates])


_SCHEME_VALUES = {experiments.AXIS_POWER: _BUDGETS_W, experiments.AXIS_RATE: _RATES_NATS}


@_PROPERTY
@given(data=st.data())
def test_pair_rows_take_their_own_budget_or_rate_target(data):
    block = data.draw(_blocks(2))
    totals, rates = _column(data, block, _BUDGETS_W), _column(data, block, _RATES_NATS)
    xs = _column(data, block, _coordinate(_HL))
    rate = data.draw(_RATES_NATS)
    _assert_value_rows_independent(lambda b, v: noma.solve_min_power(PARAMS, b, v), block, rates)
    _assert_value_rows_independent(lambda b, v: noma.conventional_min_powers(PARAMS, b, v), block, rates)
    for decoder in (0, 1):
        _assert_value_rows_independent(lambda b, v, x: noma.min_powers_at(PARAMS, b, v, x, decoder), block, rates, xs)
    _assert_value_rows_independent(lambda b, v, x: oma_greedy.split_power(PARAMS, b, v, rate, x), block, totals, xs)
    _assert_value_rows_independent(lambda b, v: oma_greedy.best_placement_high_snr(PARAMS, b, v, rate), block, totals)
    _assert_value_rows_independent(lambda b, v: oma_greedy.best_placement_search(PARAMS, b, v, rate, _PAIR_GRID),
                                   block, totals)
    for name, (spec, evaluator) in experiments.SCHEMES.items():
        if spec.per_trial:
            cfg = experiments.ExperimentConfig.from_mapping(
                {"schemes": name, "sweep": spec.axis, "rate_bpcu": nats_to_bpcu(rate), "grid_points": 101,
                 "grid_refine": 6})
            _assert_value_rows_independent(lambda b, v: evaluator(PARAMS, b, v, cfg), block,
                                           _column(data, block, _SCHEME_VALUES[spec.axis]))


# The greedy keys are test ids that name what each route gives a block: its placements at given
# positions (split_power) or its best placements by the cubic or by the grid search.
_BAD_BUDGET_ROUTES = {
    "solve_max_min_rate": lambda b, v: oma_fairness.solve_max_min_rate(PARAMS, b, v),
    "conventional_max_min_rate": lambda b, v: oma_fairness.conventional_max_min_rate(PARAMS, b, v),
    "placements_at": lambda b, v: oma_greedy.split_power(PARAMS, b, v, 0.5, np.zeros(len(b))),
    "best_placements_high_snr": lambda b, v: oma_greedy.best_placement_high_snr(PARAMS, b, v, 0.5),
    "best_placements_search": lambda b, v: oma_greedy.best_placement_search(PARAMS, b, v, 0.5, _PAIR_GRID),
}
_BAD_RATE_ROUTES = {
    "solve_min_total_power": lambda b, v: oma_fairness.solve_min_total_power(PARAMS, b, v),
    "conventional_min_total_power": lambda b, v: oma_fairness.conventional_min_total_power(PARAMS, b, v),
    "pinching_power_saving": lambda b, v: oma_fairness.pinching_power_saving(PARAMS, b, v),
    "min_power_terms": lambda b, v: min_power_terms(PARAMS, b, v, slots=2),
    "power_coeff": lambda b, v: power_coeff(PARAMS, v, 1),
    "noma.solve_min_power": lambda b, v: noma.solve_min_power(PARAMS, b, v),
    "noma.conventional_min_powers": lambda b, v: noma.conventional_min_powers(PARAMS, b, v),
    "noma.min_powers_at": lambda b, v: noma.min_powers_at(PARAMS, b, v, 0.0, 1),
}


_GREEDY_ROUTES = ("placements_at", "best_placements_high_snr", "best_placements_search")


# an infinite budget is refused by the greedy routes only: max-min then has an infinite rate
@pytest.mark.parametrize("name, bad", [*((name, bad) for name in sorted(_BAD_BUDGET_ROUTES)
                                         for bad in (0.0, -2.5e-3, math.nan)),
                                       *((name, math.inf) for name in _GREEDY_ROUTES)])
def test_one_non_positive_budget_fails_the_whole_call_naming_it(name, bad):
    block = _drops(2, 950)[:5]
    budgets = np.full(5, 1.0)
    budgets[3] = bad
    message = f"total power budget must be {'finite' if bad == math.inf else 'positive'}, got {re.escape(repr(bad))}$"
    for total in (budgets, bad):  # one entry of a column, and the float for the whole block
        with pytest.raises(ValueError, match=message):
            _BAD_BUDGET_ROUTES[name](block, total)


@pytest.mark.parametrize("name", _GREEDY_ROUTES)
def test_a_greedy_route_checks_its_inputs_once_and_before_it_solves(name, monkeypatch):
    block, route = _drops(2, 953)[:5], _BAD_BUDGET_ROUTES[name]
    calls = []
    coeff, validate = oma_greedy.power_coeff, LayoutBlock.validate
    monkeypatch.setattr(oma_greedy, "power_coeff", lambda *a: calls.append("power_coeff") or coeff(*a))
    monkeypatch.setattr(LayoutBlock, "validate", lambda *a: calls.append("validate") or validate(*a))
    route(block, np.linspace(0.5, 1.0, 5))
    assert sorted(calls) == ["power_coeff", "validate"]

    def solve(*_):
        raise AssertionError("solved before the inputs were checked")

    monkeypatch.setattr(oma_greedy, "_kkt", solve)
    monkeypatch.setattr(oma_greedy, "_stationary_points", solve)
    outside = LayoutBlock.from_layouts([((0.0, 1.0), (3.0, -2.0)), ((0.0, 1.0), (100.0, 0.0))])
    with pytest.raises(ValueError, match="outside"):
        route(outside, 1.0)


@pytest.mark.parametrize("name", sorted(_BAD_RATE_ROUTES))
def test_one_bad_rate_target_fails_the_whole_call_naming_it(name):
    block, route = _drops(2, 951)[:5], _BAD_RATE_ROUTES[name]
    rates = np.full(5, 0.5)
    rates[2] = -0.25  # negative: no scheme takes it
    with pytest.raises(ValueError, match=r"rate target must be (nonnegative|positive), got -0\.25$"):
        route(block, rates)
    rates[2] = math.nan
    for rate in (rates, math.nan):  # one entry of a column, and the float for the whole block
        with pytest.raises(ValueError, match=r"rate target must be (nonnegative|positive), got nan$"):
            route(block, rate)
    rates[2] = 800.0  # e^800 overflows a float: no finite power meets it
    with pytest.raises(DomainError, match=r"rate target 800\.0 nats .*needs a non-finite"):
        route(block, rates)
    # in a column of runs, as a sweep gives, the first bad entry in row order is named, whatever its value
    for first, later in ((-0.25, -0.5), (math.nan, -0.5), (-0.25, math.nan)):
        with pytest.raises(ValueError, match=rf"rate target must be (nonnegative|positive), got {first!r}$"):
            route(block, np.array([0.5, 0.5, first, later, later]))
    with pytest.raises(DomainError, match=r"rate target 900\.0 nats .*needs a non-finite"):
        route(block, np.array([0.5, 0.5, 900.0, 800.0, 800.0]))
    if name == "noma.solve_min_power":
        rates[2] = 0.0
        with pytest.raises(ValueError, match=r"rate target must be positive, got 0\.0$"):
            route(block, rates)
        rates[2] = 700.0  # a finite coefficient, but the weak user's power stacked on e^R overflows
        with pytest.raises(DomainError, match=r"rate target 700\.0 nats needs a non-finite weak-user power"):
            route(block, rates)


# The greedy routes' rate floor is one float, never a column.
_FLOOR_ROUTES = {
    "placements_at-floor": lambda b, v: oma_greedy.split_power(PARAMS, b, 1.0, v, np.zeros(len(b))),
    "best_placements_high_snr-floor": lambda b, v: oma_greedy.best_placement_high_snr(PARAMS, b, 1.0, v),
    "best_placements_search-floor": lambda b, v: oma_greedy.best_placement_search(PARAMS, b, 1.0, v, _PAIR_GRID),
}


@pytest.mark.parametrize("name, column", [*((name, [1.0, 0.5]) for name in sorted(_BAD_BUDGET_ROUTES)),
                                          *((name, [0.5, 1.0]) for name in sorted(_BAD_RATE_ROUTES)
                                            if name != "power_coeff"),
                                          ("power_coeff", [0.5, 1.0]),
                                          *((name, floor) for name in sorted(_FLOOR_ROUTES)
                                            for floor in ([0.5, 1.0], np.array([0.5, 1.0])))])
def test_a_list_for_a_column_is_refused_naming_its_type(name, column):
    # a column is an ndarray; a list used to reach a guard's comparison and fail there with a TypeError,
    # and an ndarray floor was broadcast across the block's rows
    if name in _FLOOR_ROUTES:
        message = f"rate floor must be a float, got a {type(column).__name__}"
    elif name == "power_coeff":  # it takes a column of any length
        message = "rate target must be a float or an ndarray, got a list"
    else:
        what = "total power budget" if name in _BAD_BUDGET_ROUTES else "rate target"
        message = rf"{what} must be a float or a \(2,\) column, got a list"
    route = {**_BAD_BUDGET_ROUTES, **_BAD_RATE_ROUTES, **_FLOOR_ROUTES}[name]
    with pytest.raises(ValueError, match=rf"^{message}$"):
        route(_drops(2, 954)[:2], column)


@pytest.mark.parametrize("name, value", [*((name, 1.0) for name in sorted(_BAD_BUDGET_ROUTES)),
                                         *((name, 0.5) for name in sorted(_BAD_RATE_ROUTES) if name != "power_coeff")])
def test_a_value_column_of_another_length_than_the_block_fails(name, value):
    # a column is never broadcast across a block of another length, one row or several
    what = "total power budget" if name in _BAD_BUDGET_ROUTES else "rate target"
    route = {**_BAD_BUDGET_ROUTES, **_BAD_RATE_ROUTES}[name]
    for rows, entries in ((1, 5), (5, 1), (5, 4)):
        message = rf"^{what} must be a float or a \({rows},\) column, got shape \({entries},\)$"
        with pytest.raises(ValueError, match=message):
            route(_drops(2, 952)[:rows], np.full(entries, value))


@pytest.mark.parametrize("dbm", [0.0, 30.0])
def test_one_row_greedy_routes_equal_rows_of_their_block_routes_bit_for_bit(dbm):
    # repr tells every float64 apart (signed zeros included), so equal reprs are equal bits
    block = _drops(2, 900)[::4]
    total, rate = dbm_to_watt(dbm), bpcu_to_nats(1.0)
    searched = oma_greedy.best_placement_search(PARAMS, block, total, rate, _PAIR_GRID)
    fast = oma_greedy.best_placement_high_snr(PARAMS, block, total, rate)
    at_centre = oma_greedy.split_power(PARAMS, block, total, rate, np.zeros(len(block)))
    for i in range(len(block)):
        one = block[i:i + 1]
        for whole, alone in ((searched, oma_greedy.best_placement_search(PARAMS, one, total, rate, _PAIR_GRID)),
                             (fast, oma_greedy.best_placement_high_snr(PARAMS, one, total, rate)),
                             (at_centre, oma_greedy.split_power(PARAMS, one, total, rate, [0.0]))):
            assert repr(whole.row(i)) == repr(alone.row(0)), f"row {i}"


def test_one_row_routes_refuse_any_other_row_count():
    pairs = _drops(2, 901)
    total, rate = dbm_to_watt(30.0), bpcu_to_nats(1.0)
    one = pairs[1:2]
    search = oma_greedy.best_placement_search(PARAMS, one, total, rate, _PAIR_GRID).row(0).solution
    closed = noma.solve_min_power(PARAMS, one, rate).row(0)
    routes = {
        "certify.maxmin": lambda b: certify.maxmin(PARAMS, b, total, 1.0),
        "certify.powermin": lambda b: certify.powermin(PARAMS, b, rate, 1.0),
        "certify.power_sweep": lambda b: certify.power_sweep(PARAMS, b, total, rate, search),
        "certify.noma_search": lambda b: certify.noma_search(PARAMS, b, rate, closed),
        "certify._maxmin_oracle": lambda b: certify._maxmin_oracle(PARAMS, b, total),
        "certify._powermin_oracle": lambda b: certify._powermin_oracle(PARAMS, b, rate),
        "certify._split_sweep_value": lambda b: certify._split_sweep_value(PARAMS, b, total, rate, 0.0),
        "noma.solve_min_power_search": lambda b: noma.solve_min_power_search(PARAMS, b, rate, _PAIR_GRID),
        "noma.check_solution": lambda b: noma.check_solution(PARAMS, b, closed),
    }
    for name, route in routes.items():
        route(one)
        for rows in (pairs[:2], pairs[:0], pairs):
            with pytest.raises(DomainError, match=f"one-row block, got {len(rows)} rows"):
                route(rows)
                pytest.fail(f"{name} took a block of {len(rows)} rows")


def test_broken_invariant_on_one_row_fails_the_block(monkeypatch):
    block = _drops(3, 600)
    real_mean = oma_fairness._mean_x

    def one_row_off(b):
        means = real_mean(b)
        means[len(b) // 2] = 100.0
        return means

    with monkeypatch.context() as m:
        m.setattr(oma_fairness, "_mean_x", one_row_off)
        with pytest.raises(CertificationError, match="max-min placement lies on the waveguide"):
            oma_fairness.solve_max_min_rate(PARAMS, block, 1.0)
        with pytest.raises(CertificationError, match="power-min placement lies on the waveguide"):
            oma_fairness.solve_min_total_power(PARAMS, block, 1.0)

    real_rates = noma.noma_rates

    def one_sic_short(*args, **kwargs):
        rates = real_rates(*args, **kwargs)
        sic = rates.sic.copy()
        sic[-1] = 0.0
        return NomaRates(rates.strong, rates.weak, sic)

    pairs = _drops(2, 601)
    with monkeypatch.context() as m:
        m.setattr(noma, "noma_rates", one_sic_short)
        with pytest.raises(CertificationError, match="SIC decode rate"):
            noma.solve_min_power(PARAMS, pairs, 1.0)
    noma.solve_min_power(PARAMS, pairs, 1.0)


def test_block_rejects_users_outside_the_area_and_misshapen_arrays():
    block = _drops(2, 700)
    xs = block.xs.copy()
    xs[7, 1] = 20.5
    with pytest.raises(ValueError, match=r"user 2 at \(20.5, "):
        oma_fairness.solve_max_min_rate(PARAMS, LayoutBlock(xs, block.ys), 1.0)
    with pytest.raises(ValueError, match="one \\(B, M\\) shape"):
        LayoutBlock(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="one \\(B, M\\) shape"):
        LayoutBlock(np.zeros(3), np.zeros(3))


def test_every_pair_solver_refuses_a_user_outside_the_area():
    outside = LayoutBlock.from_layouts([[(-8.0, 2.0), (100.0, -4.0)]])
    total, rate = dbm_to_watt(30.0), bpcu_to_nats(1.0)
    routes = {
        "noma.conventional_min_powers": lambda b: noma.conventional_min_powers(PARAMS, b, rate),
        "noma.solve_min_power": lambda b: noma.solve_min_power(PARAMS, b, rate),
        "oma_fairness.conventional_min_total_power": lambda b: oma_fairness.conventional_min_total_power(
            PARAMS, b, rate),
        "oma_greedy.split_power": lambda b: oma_greedy.split_power(PARAMS, b, total, rate, [0.0]),
        "oma_greedy.best_placement_search": lambda b: oma_greedy.best_placement_search(PARAMS, b, total, rate,
                                                                                        _PAIR_GRID),
        "oma_greedy.best_placement_high_snr": lambda b: oma_greedy.best_placement_high_snr(PARAMS, b, total, rate),
    }
    for name, route in routes.items():
        with pytest.raises(ValueError, match=r"user 2 at \(100.0, -4.0\) is outside the 40.0 x 10.0 m"):
            route(outside)
            pytest.fail(f"{name} took a user outside the area")


def test_block_rates_take_log1p_from_the_math_module():
    # numpy's log1p differs from the C library's in the last bit on about 1.5% of inputs;
    # the CSV's 12 printed digits hide such a slip, so the rates are checked against math.log1p here
    gain, noise = path_gain(PARAMS), PARAMS.noise_w
    h2 = PARAMS.height_m * PARAMS.height_m
    for num_users in (2, 3, 8):
        block = _drops(num_users, 800 + num_users)
        solved = oma_fairness.solve_max_min_rate(PARAMS, block, 0.5)
        conventional = oma_fairness.conventional_max_min_rate(PARAMS, block, 0.5)
        for i, lay in enumerate(_rows(block)):
            for x_star, rate in ((float(lay.xs[0].mean()), solved.objective[i]), (0.0, conventional[i])):
                tau_sum = sum((x_star - x) * (x_star - x) + y * y + h2 for x, y in _users(lay))
                assert rate == math.log1p(gain * 0.5 / (noise * tau_sum)) / num_users
    block = _drops(2, 810)
    for rate in np.linspace(0.05, 3.0, 24).tolist():  # the own rates sit at the target, so vary it
        solved = noma.solve_min_power(PARAMS, block, rate)
        for i, lay in enumerate(_rows(block)):
            strong = solved.sic_user[i] - 1
            (x1, y1), (x2, y2) = _users(lay)[strong], _users(lay)[1 - strong]
            x, p1, p2 = solved.x_star[i], solved.powers[strong][i], solved.powers[1 - strong][i]
            d1, d2 = (x - x1) * (x - x1) + y1 * y1 + h2, (x - x2) * (x - x2) + y2 * y2 + h2
            assert (solved.rates.strong[i], solved.rates.weak[i], solved.rates.sic[i]) == (
                math.log1p(gain * p1 / (noise * d1)), math.log1p(gain * p2 / (gain * p1 + noise * d2)),
                math.log1p(gain * p2 / (gain * p1 + noise * d1)))
