"""Block solvers against their one-layout counterparts, compared with ==.

Every drop set mixes uniform and clustered drops with degenerate rows:
coincident users, users on the waveguide (y = 0) and users on the edge of
the service area.  A block row must equal the one-layout result exactly,
and a broken invariant on any one row must fail the whole block.
"""

import math

import numpy as np
import pytest

from pinchplace import experiments, noma, oma_fairness, oma_greedy, rng
from pinchplace.core import (LayoutBlock, NomaRates, SystemParams, bpcu_to_nats, dbm_to_watt, min_power_terms,
                             nats_to_bpcu, path_gain)
from pinchplace.errors import CertificationError, Infeasible

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


def _layouts(block: LayoutBlock):
    return [block.layout(i) for i in range(len(block))]


@pytest.mark.parametrize("num_users", [1, 2, 3, 8])
@pytest.mark.parametrize("dbm", [-100.0, 0.0, 40.0])
def test_max_min_blocks_equal_one_layout_solves(num_users, dbm):
    block = _drops(num_users, 100 + num_users)
    total = dbm_to_watt(dbm)
    solved = oma_fairness.solve_max_min_rates(PARAMS, block, total)
    conventional = oma_fairness.conventional_max_min_rates(PARAMS, block, total)
    for i, lay in enumerate(_layouts(block)):
        assert solved.row(i) == oma_fairness.solve_max_min_rate(PARAMS, lay, total)
        assert conventional[i] == oma_fairness.conventional_max_min_rate(PARAMS, lay, total)


@pytest.mark.parametrize("num_users", [1, 2, 3, 8])
@pytest.mark.parametrize("rate_bpcu", [0.01, 1.0, 4.0])
def test_power_min_blocks_equal_one_layout_solves(num_users, rate_bpcu):
    block = _drops(num_users, 200 + num_users)
    rate = bpcu_to_nats(rate_bpcu)
    solved = oma_fairness.solve_min_total_powers(PARAMS, block, rate)
    conventional = oma_fairness.conventional_min_total_powers(PARAMS, block, rate)
    at_centre = min_power_terms(PARAMS, block, rate, slots=num_users).powers_at(0.0)
    for i, lay in enumerate(_layouts(block)):
        assert solved.row(i) == oma_fairness.solve_min_total_power(PARAMS, lay, rate)
        assert conventional[i] == oma_fairness.conventional_min_total_power(PARAMS, lay, rate)
        assert tuple(at_centre[i]) == tuple(min_power_terms(PARAMS, lay, rate, slots=num_users).powers_at(0.0))


@pytest.mark.parametrize("rate_bpcu", [0.01, 0.5, 1.0, 4.0])
def test_noma_blocks_equal_one_layout_solves(rate_bpcu):
    # unordered drops: each row picks its own decoder; a tie in |y| (coincident users, both on
    # the waveguide, both on one edge) keeps user 1, and user 1 on the far edge hands it to user 2
    block = _drops(2, 300)
    rate = bpcu_to_nats(rate_bpcu)
    solved = noma.solve_min_powers(PARAMS, block, rate)
    conventional = noma.conventional_min_powers(PARAMS, block, rate)
    assert set(solved.sic_user.tolist()) == {1, 2}
    assert all((solved.sic_user[k::10] == 1).all() for k in (0, 1, 5)) and (solved.sic_user[2::10] == 2).all()
    for i, lay in enumerate(_layouts(block)):
        assert solved.row(i) == noma.solve_min_power(PARAMS, lay, rate)
        assert conventional[i] == min(sum(noma.min_powers_at(PARAMS, lay, rate, 0.0, dec)) for dec in (0, 1))


@pytest.mark.parametrize("dbm", [0.0, 20.0, 40.0])
def test_greedy_blocks_equal_one_layout_solves(dbm):
    block = _drops(2, 400)
    total, rate = dbm_to_watt(dbm), bpcu_to_nats(1.0)
    fast = oma_greedy.best_placements_high_snr(PARAMS, block, total, rate)
    at_centre = oma_greedy.placements_at(PARAMS, block, total, rate, np.zeros(len(block)))
    for i, lay in enumerate(_layouts(block)):
        assert tuple(r for r in fast.roots[i] if not np.isnan(r)) == oma_greedy.derivative_roots(lay, PARAMS.height_m)
        try:
            want = oma_greedy.best_placement_high_snr(PARAMS, lay, total, rate)
        except Infeasible:
            want = None
        assert fast.row(i) == want
        centre = at_centre.row(i)
        if centre is not None:
            split = oma_greedy.split_power(PARAMS, lay, total, rate, 0.0)
            assert centre.powers == (split.p1, split.p2)
            assert centre.objective == oma_greedy.sum_rate(PARAMS, lay, 0.0, split)


def _one_layout_metric(name, lay, value, cfg):
    """The metric of one per-trial scheme on one layout, from the one-layout solvers alone."""
    rate = bpcu_to_nats(cfg.rate_bpcu)
    try:
        if name == "oma-maxmin":
            return nats_to_bpcu(oma_fairness.solve_max_min_rate(PARAMS, lay, value).objective)
        if name == "oma-maxmin-conv":
            return nats_to_bpcu(oma_fairness.conventional_max_min_rate(PARAMS, lay, value))
        if name == "oma-powermin":
            return oma_fairness.solve_min_total_power(PARAMS, lay, value).objective
        if name == "oma-powermin-conv":
            return oma_fairness.conventional_min_total_power(PARAMS, lay, value)
        if name == "oma-greedy":
            return nats_to_bpcu(oma_greedy.best_placement_search(PARAMS, lay, value, rate, cfg.grid).objective)
        if name == "oma-greedy-highsnr":
            return nats_to_bpcu(oma_greedy.best_placement_high_snr(PARAMS, lay, value, rate).solution.objective)
        if name == "oma-greedy-conv":
            split = oma_greedy.split_power(PARAMS, lay, value, rate, 0.0)
            return nats_to_bpcu(oma_greedy.sum_rate(PARAMS, lay, 0.0, split))
    except Infeasible:
        return -np.inf
    if name == "noma":
        return noma.solve_min_power(PARAMS, lay, value).total
    if name == "noma-conv":
        return min(sum(noma.min_powers_at(PARAMS, lay, value, 0.0, dec)) for dec in (0, 1))
    if name == "outage-mc":
        need = oma_fairness.solve_min_total_power(PARAMS, lay, rate).powers[0]
    else:
        need = min_power_terms(PARAMS, lay, rate, slots=len(lay)).powers_at(0.0)[0]
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
        assert got == [_one_layout_metric(name, lay, value, cfg) for lay in _layouts(block)], sweep_value


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
            oma_fairness.solve_max_min_rates(PARAMS, block, 1.0)
        with pytest.raises(CertificationError, match="power-min placement lies on the waveguide"):
            oma_fairness.solve_min_total_powers(PARAMS, block, 1.0)

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
            noma.solve_min_powers(PARAMS, pairs, 1.0)
    noma.solve_min_powers(PARAMS, pairs, 1.0)


def test_block_rejects_users_outside_the_area_and_misshapen_arrays():
    block = _drops(2, 700)
    xs = block.xs.copy()
    xs[7, 1] = 20.5
    with pytest.raises(ValueError, match=r"user 2 at \(20.5, "):
        oma_fairness.solve_max_min_rates(PARAMS, LayoutBlock(xs, block.ys), 1.0)
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
        solved = oma_fairness.solve_max_min_rates(PARAMS, block, 0.5)
        conventional = oma_fairness.conventional_max_min_rates(PARAMS, block, 0.5)
        for i, lay in enumerate(_layouts(block)):
            for x_star, rate in ((float(lay.xs.mean()), solved.objective[i]), (0.0, conventional[i])):
                tau_sum = sum((x_star - x) * (x_star - x) + y * y + h2 for x, y in lay.users)
                assert rate == math.log1p(gain * 0.5 / (noise * tau_sum)) / num_users
    block = _drops(2, 810)
    for rate in np.linspace(0.05, 3.0, 24).tolist():  # the own rates sit at the target, so vary it
        solved = noma.solve_min_powers(PARAMS, block, rate)
        for i, lay in enumerate(_layouts(block)):
            strong = solved.sic_user[i] - 1
            (x1, y1), (x2, y2) = lay.users[strong], lay.users[1 - strong]
            x, p1, p2 = solved.x_star[i], solved.powers[strong][i], solved.powers[1 - strong][i]
            d1, d2 = (x - x1) * (x - x1) + y1 * y1 + h2, (x - x2) * (x - x2) + y2 * y2 + h2
            assert (solved.rates.strong[i], solved.rates.weak[i], solved.rates.sic[i]) == (
                math.log1p(gain * p1 / (noise * d1)), math.log1p(gain * p2 / (gain * p1 + noise * d2)),
                math.log1p(gain * p2 / (gain * p1 + noise * d1)))
