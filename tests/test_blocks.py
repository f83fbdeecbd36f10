"""Block solvers row by row, compared with ==.

Every drop set mixes uniform and clustered drops with degenerate rows:
coincident users, users on the waveguide (y = 0) and users on the edge of
the service area.  Row i of a block must equal the one-row block of layout i,
block[i:i + 1], exactly (and the greedy block routes the one-row greedy
routes), a broken invariant on any one row must fail the whole block, and
every single-instance route must refuse a block of any other row count.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplace import certify, experiments, noma, oma_fairness, oma_greedy, rng
from pinchplace.core import (LayoutBlock, NomaRates, SystemParams, bpcu_to_nats, dbm_to_watt, min_power_terms,
                             nats_to_bpcu, path_gain)
from pinchplace.errors import CertificationError, DomainError, Infeasible
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
    fast = oma_greedy.best_placements_high_snr(PARAMS, block, total, rate)
    at_centre = oma_greedy.placements_at(PARAMS, block, total, rate, np.zeros(len(block)))
    for i, lay in enumerate(_rows(block)):
        alone = oma_greedy.best_placements_high_snr(PARAMS, lay, total, rate)
        assert fast.roots[i].tobytes() == alone.roots[0].tobytes()
        try:
            want = oma_greedy.best_placement_high_snr(PARAMS, lay, total, rate)
        except Infeasible:
            want = None
        assert fast.row(i) == want
        centre = at_centre.row(i)
        assert centre == oma_greedy.placements_at(PARAMS, lay, total, rate, [0.0]).row(0)
        if centre is not None:
            split = oma_greedy.split_power(PARAMS, lay, total, rate, 0.0)
            assert centre.powers == (split.p1, split.p2)


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
        return nats_to_bpcu(oma_greedy.placements_at(PARAMS, one, value, rate, [0.0]).objective[0])
    try:
        if name == "oma-greedy":
            return nats_to_bpcu(oma_greedy.best_placement_search(PARAMS, one, value, rate, cfg.grid).objective)
        if name == "oma-greedy-highsnr":
            return nats_to_bpcu(oma_greedy.best_placement_high_snr(PARAMS, one, value, rate).solution.objective)
    except Infeasible:
        return -np.inf
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
        alone = _leaves(solve(block[i:i + 1], *(np.asarray(arg)[i:i + 1] for arg in per_row)))
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
    _assert_rows_independent(lambda b, x: oma_greedy.placements_at(PARAMS, b, total, rate, x), block, xs)
    _assert_rows_independent(lambda b: oma_greedy.best_placements_high_snr(PARAMS, b, total, rate), block)
    _assert_rows_independent(lambda b: oma_greedy.best_placements_search(PARAMS, b, total, rate, _PAIR_GRID), block)


def _or_none(route, *args):
    try:
        return route(*args)
    except Infeasible:
        return None


@pytest.mark.parametrize("dbm", [0.0, 30.0])
def test_one_row_greedy_routes_equal_rows_of_their_block_routes_bit_for_bit(dbm):
    # repr tells every float64 apart (signed zeros included), so equal reprs are equal bits
    block = _drops(2, 900)[::4]
    total, rate = dbm_to_watt(dbm), bpcu_to_nats(1.0)
    searched = oma_greedy.best_placements_search(PARAMS, block, total, rate, _PAIR_GRID)
    fast = oma_greedy.best_placements_high_snr(PARAMS, block, total, rate)
    at_centre = oma_greedy.placements_at(PARAMS, block, total, rate, np.zeros(len(block)))
    for i in range(len(block)):
        one = block[i:i + 1]
        assert repr(_or_none(oma_greedy.best_placement_search, PARAMS, one, total, rate, _PAIR_GRID)) == repr(
            searched.row(i))
        assert repr(_or_none(oma_greedy.best_placement_high_snr, PARAMS, one, total, rate)) == repr(fast.row(i))
        split = _or_none(oma_greedy.split_power, PARAMS, one, total, rate, 0.0)
        centre = at_centre.row(i)
        assert (split is None) == (centre is None)
        if split is not None:
            assert repr((split.p1, split.p2)) == repr(centre.powers)


def test_one_row_routes_refuse_any_other_row_count():
    pairs = _drops(2, 901)
    total, rate = dbm_to_watt(30.0), bpcu_to_nats(1.0)
    one = pairs[1:2]
    search = oma_greedy.best_placement_search(PARAMS, one, total, rate, _PAIR_GRID)
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
        "oma_greedy.split_power": lambda b: oma_greedy.split_power(PARAMS, b, total, rate, 0.0),
        "oma_greedy.best_placement_search": lambda b: oma_greedy.best_placement_search(PARAMS, b, total, rate,
                                                                                        _PAIR_GRID),
        "oma_greedy.best_placement_high_snr": lambda b: oma_greedy.best_placement_high_snr(PARAMS, b, total, rate),
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
