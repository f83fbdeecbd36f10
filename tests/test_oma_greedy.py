"""Two-user throughput placement and allocation with per-user rate floors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplace import oma_greedy, rng
from pinchplace.core import (SCAN_SLICE, LayoutBlock, SystemParams, bpcu_to_nats, dbm_to_watt, min_power_terms,
                             path_gain, power_coeff, squared_distance)
from pinchplace.errors import DomainError
from pinchplace.oma_greedy import (
    CASE_FLOOR_AT_1,
    CASE_FLOOR_AT_2,
    CASE_INTERIOR,
    best_placement_high_snr,
    best_placement_search,
    split_power,
)
from pinchplace.oracle import GridSpec, certification_grid, power_split_sweep, refine_rows, scan_grid
from pair_geometry import closer_to_near_user
from rate_formula import oma_rate

PARAMS = SystemParams.default()
LAYOUT = ((-8.0, 2.0), (6.0, -4.0))
RATE = bpcu_to_nats(0.5)
SEARCH_GRID = GridSpec(lo=-20.0, hi=20.0, points=4001, refine_iters=30)

# frozen against a 50-digit brute-force power sweep
INTERIOR_P1 = 0.005008265052855524
INTERIOR_SUM_RATE = 3.999877592695186
PIN2_P1 = 0.00019941380273267749
PIN2_SUM_RATE = 1.5942965289234263
PIN1_P1 = 0.0002802403921546404
PIN1_SUM_RATE = 1.095493191662411


def _one(users):
    """The one-row block of one layout's (x, y) users."""
    return LayoutBlock.from_layouts([users])


def _split(layout, total_w, x, rate_nats=RATE):
    """The KKT split of one layout at position x: row 0 of a one-row block, None where it is infeasible."""
    return split_power(PARAMS, _one(layout), total_w, rate_nats, [x]).row(0)


def _random_pair(gen):
    return tuple((float(x), float(y)) for x, y in zip(gen.uniform(-20, 20, 2), gen.uniform(-5, 5, 2)))


def _sum_rate(layout, x, p1, p2):
    """The two users' time-shared rates at x, added: the independent rate formula."""
    return sum(oma_rate(PARAMS, p, squared_distance(ux, uy, x, PARAMS.height_m), 2)
               for p, (ux, uy) in zip((p1, p2), layout))


def _roots(layouts, height_m=PARAMS.height_m):
    """Each layout's stationary points of the distance product, read off the high-SNR route's block result."""
    params = dataclasses.replace(PARAMS, height_m=height_m)
    found = best_placement_high_snr(params, LayoutBlock.from_layouts(layouts), 1.0, RATE)
    return [tuple(r for r in row if not math.isnan(r)) for row in found.roots.tolist()]


def _sweep_best(layout, total_w, rate_nats, x, points=20001):
    """Independent check: brute-force the split instead of trusting the cases."""
    coeff = min_power_terms(PARAMS, _one(layout), rate_nats, slots=2).coeff
    (x1, y1), (x2, y2) = layout
    h2 = PARAMS.height_m ** 2
    t1 = (x - x1) ** 2 + y1 * y1 + h2
    t2 = (x - x2) ** 2 + y2 * y2 + h2
    g = path_gain(PARAMS)
    q1, q2 = PARAMS.noise_w * t1 / g, PARAMS.noise_w * t2 / g
    f1, f2 = coeff * t1, coeff * t2

    def ev(p1s):
        p2s = total_w - p1s
        with np.errstate(divide="ignore", invalid="ignore"):
            r = 0.5 * (np.log1p(p1s / q1) + np.log1p(p2s / q2))
        ok = (p1s >= f1 - 1e-12 * total_w) & (p2s >= f2 - 1e-12 * total_w)
        return np.where(ok, r, -np.inf)

    return power_split_sweep(ev, total_w, points, 40)


def test_split_interior_frozen():
    split = _split(LAYOUT, 0.01, -1.0)
    p1, p2 = split.solution.powers
    assert split.case == CASE_INTERIOR
    assert np.isclose(p1, INTERIOR_P1, rtol=1e-12), f"p1 {p1}"
    assert np.isclose(p1 + p2, 0.01, rtol=1e-15)
    got = _sum_rate(LAYOUT, -1.0, p1, p2)
    assert np.isclose(got, INTERIOR_SUM_RATE, rtol=1e-12), f"rate {got}"
    assert np.isclose(split.solution.objective, INTERIOR_SUM_RATE, rtol=1e-12)


def test_split_pins_user_two_frozen():
    split = _split(LAYOUT, 5e-4, -7.9)
    p1, p2 = split.solution.powers
    assert split.case == CASE_FLOOR_AT_2
    assert np.isclose(p1, PIN2_P1, rtol=1e-12)
    assert np.isclose(_sum_rate(LAYOUT, -7.9, p1, p2), PIN2_SUM_RATE, rtol=1e-12)


def test_split_pins_user_one_frozen():
    split = _split(LAYOUT, 4e-4, 5.8)
    p1, p2 = split.solution.powers
    assert split.case == CASE_FLOOR_AT_1
    assert np.isclose(p1, PIN1_P1, rtol=1e-12)
    assert np.isclose(_sum_rate(LAYOUT, 5.8, p1, p2), PIN1_SUM_RATE, rtol=1e-12)


def test_pinned_user_sits_exactly_at_its_floor_rate():
    g = path_gain(PARAMS)
    for x, p, floor_user in ((-7.9, 5e-4, 2), (5.8, 4e-4, 1)):
        split = _split(LAYOUT, p, x)
        (x1, y1), (x2, y2) = LAYOUT
        h2 = PARAMS.height_m ** 2
        tau = ((x - x1) ** 2 + y1 * y1 + h2, (x - x2) ** 2 + y2 * y2 + h2)
        pw = split.solution.powers[floor_user - 1]
        q = PARAMS.noise_w * tau[floor_user - 1] / g
        rate = 0.5 * math.log1p(pw / q)
        assert np.isclose(rate, RATE, rtol=1e-12), f"floor user rate {rate} != {RATE}"


def test_split_infeasible_budget():
    placed = split_power(PARAMS, _one(LAYOUT), 1e-5, RATE, [-1.0])
    assert placed.solution.objective[0] == -math.inf and placed.row(0) is None
    with pytest.raises(ValueError):
        split_power(PARAMS, _one(LAYOUT), 0.0, RATE, [-1.0])


def test_split_exact_floor_budget_is_feasible():
    coeff = min_power_terms(PARAMS, _one(LAYOUT), RATE, slots=2).coeff
    h2 = PARAMS.height_m ** 2
    t1 = (-1.0 + 8.0) ** 2 + 4.0 + h2
    t2 = (-1.0 - 6.0) ** 2 + 16.0 + h2
    total = coeff * (t1 + t2)
    split = _split(LAYOUT, total, -1.0)
    assert np.isclose(sum(split.solution.powers), total, rtol=1e-12)


def test_split_rejects_non_pairs():
    with pytest.raises(DomainError):
        split_power(PARAMS, _one(((0.0, 0.0),)), 1.0, RATE, [0.0])


def test_split_matches_brute_force_sweep():
    gen = rng.stream(33, rng.DOMAIN_TESTS, 30)
    for _ in range(60):
        lay = _random_pair(gen)
        x = float(gen.uniform(-20, 20))
        coeff = min_power_terms(PARAMS, _one(lay), RATE, slots=2).coeff
        floors = coeff * sum(
            (x - ux) ** 2 + uy * uy + PARAMS.height_m ** 2 for ux, uy in lay
        )
        total = floors * float(10.0 ** gen.uniform(0.0, 2.0))
        got = _sum_rate(lay, x, *_split(lay, total, x).solution.powers)
        _, best = _sweep_best(lay, total, RATE, x)
        assert got >= best - 1e-9, f"split rate {got} below sweep {best}"


def test_search_placement_beats_every_grid_point():
    sol = best_placement_search(PARAMS, _one(LAYOUT), 0.01, RATE, SEARCH_GRID).row(0).solution
    for x in np.linspace(-20, 20, 401):
        split = _split(LAYOUT, 0.01, float(x))
        if split is None:
            continue
        r = _sum_rate(LAYOUT, float(x), *split.solution.powers)
        assert sol.objective >= r - 1e-9, f"beaten at x={x}: {r} > {sol.objective}"


def test_search_infeasible_everywhere():
    searched = best_placement_search(PARAMS, _one(LAYOUT), 1e-7, RATE, SEARCH_GRID)
    assert searched.row(0) is None and math.isnan(searched.solution.x_star[0])
    assert searched.solution.objective[0] == -math.inf
    assert best_placement_high_snr(PARAMS, _one(LAYOUT), 1e-7, RATE).row(0) is None


def test_block_search_equals_one_layout_searches_bit_for_bit():
    gen = rng.stream(33, rng.DOMAIN_TESTS, 34)
    spec = GridSpec(lo=-20.0, hi=20.0, points=2001, refine_iters=24)
    infeasible = 0
    for dbm in (0.0, 10.0, 20.0, 40.0, 60.0):
        layouts = _random_pairs(gen, 12)
        total, rate = dbm_to_watt(dbm), bpcu_to_nats(float(gen.uniform(0.5, 2.0)))
        got = best_placement_search(PARAMS, LayoutBlock.from_layouts(layouts), total, rate, spec)
        want = [best_placement_search(PARAMS, _one(lay), total, rate, spec).row(0) for lay in layouts]
        # repr tells every float64 apart (signed zeros included), so equal reprs are equal bits
        assert [repr(got.row(i)) for i in range(len(layouts))] == [repr(w) for w in want], f"differs at {dbm} dBm"
        infeasible += want.count(None)
    assert 0 < infeasible < 60, f"{infeasible} infeasible layouts: the blocks must mix both kinds"
    empty = LayoutBlock(np.empty((0, 2)), np.empty((0, 2)))
    assert len(best_placement_search(PARAMS, empty, 1.0, RATE, spec).solution.objective) == 0


# --- the pruned search: identical to a full scan, on a bound that holds ---------------

_HL, _HW = PARAMS.half_length, PARAMS.half_width


def _coordinate(limit):
    return st.one_of(st.sampled_from([-limit, -0.0, 0.0, limit]), st.floats(-limit, limit))


@st.composite
def _edge_instances(draw):
    """(block, budgets, rate, spec): 1-5 layouts with coincident users, users on the waveguide (y = 0) or on
    the area edge, a budget column whose rows sit just above the least floor sum, below it or anywhere,
    and a grid of 3 points, of a point count that is a multiple of no pruning width above 1, 2001 or 20001
    points."""
    rows = draw(st.integers(1, 5))
    xs = np.array([[draw(_coordinate(_HL)), draw(_coordinate(_HL))] for _ in range(rows)])
    ys = np.array([[draw(_coordinate(_HW)), draw(_coordinate(_HW))] for _ in range(rows)])
    for row in range(rows):
        if draw(st.booleans()):
            xs[row, 1], ys[row, 1] = xs[row, 0], ys[row, 0]
    rate = bpcu_to_nats(draw(st.floats(0.01, 4.0)))
    # the floor sum coeff * (tau_1 + tau_2) is least at the users' midpoint
    least = power_coeff(PARAMS, rate, 2) * ((xs[:, 0] - xs[:, 1]) ** 2 / 2.0 + ys[:, 0] ** 2 + ys[:, 1] ** 2
                                            + 2.0 * PARAMS.height_m ** 2)
    budgets = np.array([draw(st.one_of(
        st.sampled_from([1e-13, 1e-12, 1e-9, 1e-6, 1e-3, 0.1]).map(lambda above: f * (1.0 + above)),
        st.floats(0.3, 1.0 - 1e-9).map(lambda below: f * below),
        st.floats(-20.0, 60.0).map(dbm_to_watt))) for f in least.tolist()])
    points = draw(st.one_of(st.sampled_from([3, 4, 2001, 20001]),
                            st.integers(3, 400).filter(lambda n: all(n % w for w in oma_greedy._WIDTHS if w > 1))))
    lo, hi = draw(st.sampled_from([(-_HL, _HL), (-7.5, 3.25)]))
    return LayoutBlock(xs, ys), budgets, rate, GridSpec(lo, hi, points, draw(st.sampled_from([0, 1, 24])))


def _full_scan(block, budgets, rate, spec):
    """The search's reference: a scan_grid of each row's sum rate over every grid point, then one refine_rows."""
    split, _ = oma_greedy._splitter(PARAMS, block, budgets, rate)

    def objective(rows):
        at = split(rows)
        return lambda xs: at(xs)[4]

    with np.errstate(**oma_greedy._QUIET):
        scanned = [scan_grid(objective(row), spec, "max", skip_nonfinite=True) for row in range(len(block))]
        found = refine_rows(objective, spec, scanned, "max")
        return oma_greedy._placed(split, len(block), [math.nan if f is None else f[0] for f in found])


def _assert_same_placements(got, want):
    for field in ("x_star", "powers", "objective"):
        assert getattr(got.solution, field).tobytes() == getattr(want.solution, field).tobytes(), field
    assert got.case.tolist() == want.case.tolist()


def _spied_search(monkeypatch, block, budgets, rate, spec):
    """best_placement_search's result and the number of sum rates of each of its evaluator calls.

    Every evaluator call, the scan's, the refinement's and the final
    placement's, is one _kkt call.
    """
    sizes = []
    real = oma_greedy._kkt

    def spy(*args):
        out = real(*args)
        sizes.append(np.size(out[4]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(oma_greedy, "_kkt", spy)
        return best_placement_search(PARAMS, block, budgets, rate, spec), sizes


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(instance=_edge_instances())
def test_pruned_search_equals_a_full_scan_bit_for_bit(instance):
    block, budgets, rate, spec = instance
    _assert_same_placements(best_placement_search(PARAMS, block, budgets, rate, spec),
                            _full_scan(block, budgets, rate, spec))


@pytest.mark.parametrize("rows", [1, 3, SCAN_SLICE + 5])
def test_no_search_call_takes_more_than_a_scan_slice(monkeypatch, rows):
    # a grid of more than a slice, and a block of more than a slice, on a coarse grid to keep its full scan
    # short: the refinement probes each live layout three times per call and the placement once
    gen = rng.stream(33, rng.DOMAIN_TESTS, 39)
    block = LayoutBlock(gen.uniform(-_HL, _HL, (rows, 2)), gen.uniform(-_HW, _HW, (rows, 2)))
    budgets, rate = dbm_to_watt(gen.uniform(20.0, 40.0, rows)), bpcu_to_nats(1.0)
    spec = GridSpec(-_HL, _HL, 300001, 8) if rows < SCAN_SLICE else GridSpec(-_HL, _HL, 21, 3)
    got, sizes = _spied_search(monkeypatch, block, budgets, rate, spec)
    assert max(sizes) <= SCAN_SLICE, f"an evaluator call of {max(sizes)} points"
    assert np.isfinite(got.solution.objective).all()
    _assert_same_placements(got, _full_scan(block, budgets, rate, spec))


def test_split_power_broadcasts_one_position_against_the_block_as_one_call_did():
    # the placement evaluates in slices of the block's layouts; a scalar or one-element xs still
    # places every layout there, an empty block gives empty rows, and a length mismatch raises
    gen = rng.stream(33, rng.DOMAIN_TESTS, 40)
    block = LayoutBlock(gen.uniform(-_HL, _HL, (3, 2)), gen.uniform(-_HW, _HW, (3, 2)))
    total, rate = dbm_to_watt(30.0), bpcu_to_nats(1.0)
    each = split_power(PARAMS, block, total, rate, np.full(3, 2.5))
    for xs in (2.5, [2.5]):
        got = split_power(PARAMS, block, total, rate, xs)
        assert np.array_equal(got.solution.x_star, xs)
        for field in ("powers", "objective"):
            assert np.array_equal(getattr(got.solution, field), getattr(each.solution, field))
        assert np.array_equal(got.case, each.case)
    empty = split_power(PARAMS, LayoutBlock(np.zeros((0, 2)), np.zeros((0, 2))), total, rate, np.zeros(0))
    assert empty.solution.objective.shape == (0,) and empty.solution.powers.shape == (0, 2)
    with pytest.raises(ValueError):
        split_power(PARAMS, block, total, rate, [0.0, 1.0])


# Sum rates that the one-level search (every 32-point interval bounded, then every point of the
# survivors) evaluated on the inputs of the test below, its refinement and final placement included.
_ONE_LEVEL_RATES = {"block": 22583, "single": 1759}


def test_the_levels_evaluate_at_most_two_thirds_of_the_one_level_sum_rates(monkeypatch):
    gen = rng.stream(33, rng.DOMAIN_TESTS, 38)
    block = LayoutBlock(gen.uniform(-_HL, _HL, (72, 2)), gen.uniform(-_HW, _HW, (72, 2)))
    # 9 power points of 8 trials each, as an experiment sweep's block
    budgets = dbm_to_watt(np.repeat(np.linspace(0.0, 40.0, 9), 8))
    searches = {"block": (block, budgets, bpcu_to_nats(1.0), GridSpec(-_HL, _HL, 2001, 24)),
                "single": (_one(LAYOUT), dbm_to_watt(30.0), bpcu_to_nats(1.0), certification_grid(-_HL, _HL))}
    for name, search in searches.items():
        got, sizes = _spied_search(monkeypatch, *search)
        assert sum(sizes) <= 2 * _ONE_LEVEL_RATES[name] / 3, f"{name}: {sum(sizes)} sum rates"
        _assert_same_placements(got, _full_scan(*search))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(instance=_edge_instances(), data=st.data())
def test_an_interval_bound_is_at_least_the_sum_rate_anywhere_in_it(instance, data):
    block, budgets, rate, spec = instance
    split, _ = oma_greedy._splitter(PARAMS, block, budgets, rate)
    grid = spec.abscissae()
    fractions = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)))
    for width in oma_greedy._WIDTHS:
        starts = np.arange(0, spec.points, width)
        lengths = np.minimum(starts + width, spec.points) - starts
        lo, hi = grid[starts], grid[starts + lengths - 1]
        bound = split(np.arange(len(block)))(lo[:, None], hi[:, None])[4]  # (intervals, layouts)
        # every grid point, then random points between each interval's ends
        off_grid = np.minimum(lo[:, None] + (hi - lo)[:, None] * fractions, hi[:, None])
        for xs, owner in ((grid, np.repeat(np.arange(len(starts)), lengths)),
                          (off_grid.ravel(), np.repeat(np.arange(len(starts)), len(fractions)))):
            rates = split(np.arange(len(block)))(xs[:, None])[4]
            assert not np.any(rates > bound[owner]), f"a sum rate exceeds its {width}-point interval's bound"


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(instance=_edge_instances())
def test_a_one_point_interval_bound_is_the_sum_rate_there_bit_for_bit(instance):
    # the search's probes ride its bound calls as the intervals [x, x]
    block, budgets, rate, spec = instance
    split, _ = oma_greedy._splitter(PARAMS, block, budgets, rate)
    grid = spec.abscissae()[:, None]
    rows = np.broadcast_to(np.arange(len(block)), (spec.points, len(block)))
    want = split(rows)(grid)[4]
    assert split(rows)(grid, grid)[4].tobytes() == want.tobytes()
    assert split(np.arange(len(block)))(grid, grid)[4].tobytes() == want.tobytes()


def _random_pairs(gen, count):
    return [_random_pair(gen) for _ in range(count)]


def test_block_placements_equal_split_power_and_sum_rate_bit_for_bit():
    gen = rng.stream(33, rng.DOMAIN_TESTS, 35)
    spec = GridSpec(lo=-20.0, hi=20.0, points=2001, refine_iters=24)
    infeasible = searched = 0
    for dbm in (0.0, 10.0, 20.0, 40.0):
        layouts = _random_pairs(gen, 12)
        xs = gen.uniform(-20, 20, 12).tolist()
        total, rate = dbm_to_watt(dbm), bpcu_to_nats(float(gen.uniform(0.5, 2.0)))
        # placements at given positions, then the search's own final placements
        block = LayoutBlock.from_layouts(layouts)
        placed = split_power(PARAMS, block, total, rate, xs)
        cases = [(lay, x, placed.row(i)) for i, (lay, x) in enumerate(zip(layouts, xs))]
        found = best_placement_search(PARAMS, block, total, rate, spec)
        for i, lay in enumerate(layouts):
            sol = found.row(i)
            if sol is not None:
                cases.append((lay, sol.solution.x_star, sol))
                searched += 1
        for lay, x, sol in cases:
            # the split, sum rate and case of a block row are the one-row block's at the same position
            assert repr(sol) == repr(_split(lay, total, x, rate))
            if sol is None:
                infeasible += 1
                continue
            assert sol.solution.x_star == x
            assert np.isclose(sol.solution.objective, _sum_rate(lay, x, *sol.solution.powers), rtol=1e-12)
    assert 0 < infeasible < 48 and searched > 0, f"{infeasible} infeasible: the blocks must mix both kinds"
    with pytest.raises(ValueError):
        split_power(PARAMS, _one(LAYOUT), 0.0, RATE, [0.0])


def _high_snr_one_candidate_at_a_time(layout, total_w, rate_nats):
    """The one-row split at the best high-SNR candidate, tried one by one; None if none is feasible."""
    hl = PARAMS.half_length
    best = None
    for x in sorted({min(hl, max(-hl, r)) for r in _roots_one_at_a_time(layout, PARAMS.height_m)} | {-hl, hl}):
        split = _split(layout, total_w, x, rate_nats)
        if split is not None and (best is None or split.solution.objective > best.solution.objective):
            best = split
    return best


def test_block_high_snr_equals_one_layout_calls_bit_for_bit():
    gen = rng.stream(33, rng.DOMAIN_TESTS, 36)
    infeasible = 0
    for dbm in (0.0, 10.0, 20.0, 40.0, 60.0):
        layouts = _random_pairs(gen, 12)
        total, rate = dbm_to_watt(dbm), bpcu_to_nats(float(gen.uniform(0.5, 2.0)))
        found = best_placement_high_snr(PARAMS, LayoutBlock.from_layouts(layouts), total, rate)
        for i, lay in enumerate(layouts):
            fast = found.row(i)
            assert repr(fast) == repr(best_placement_high_snr(PARAMS, _one(lay), total, rate).row(0))
            want = _high_snr_one_candidate_at_a_time(lay, total, rate)
            if want is None:
                assert fast is None
                infeasible += 1
                continue
            assert (fast.solution, fast.case) == (want.solution, want.case)
            assert fast.roots == _roots_one_at_a_time(lay, PARAMS.height_m)
    assert 0 < infeasible < 60, f"{infeasible} infeasible layouts: the blocks must mix both kinds"
    empty = LayoutBlock(np.empty((0, 2)), np.empty((0, 2)))
    assert len(best_placement_high_snr(PARAMS, empty, 1.0, RATE).solution.x_star) == 0
    with pytest.raises(ValueError):
        best_placement_high_snr(PARAMS, _one(LAYOUT), 0.0, RATE)


def test_symmetric_cubic_roots_frozen():
    (roots,) = _roots([((-6.0, 2.0), (6.0, 2.0))])
    want = (-math.sqrt(23.0), 0.0, math.sqrt(23.0))
    assert len(roots) == 3
    assert np.allclose(roots, want, rtol=0, atol=1e-9), f"roots {roots}"


def test_colocated_users_single_root():
    (roots,) = _roots([((2.5, 1.0), (2.5, 1.0))])
    assert len(roots) == 1 and np.isclose(roots[0], 2.5, atol=1e-12)


def test_root_residuals_vanish():
    gen = rng.stream(33, rng.DOMAIN_TESTS, 31)
    layouts = _random_pairs(gen, 300)
    for lay, roots in zip(layouts, _roots(layouts)):
        (x1, y1), (x2, y2) = lay
        h2 = PARAMS.height_m ** 2
        a, b = y1 * y1 + h2, y2 * y2 + h2
        assert 1 <= len(roots) <= 3
        for r in roots:
            t1 = (r - x1) * (r - x2) * (2.0 * r - x1 - x2)
            t2 = (a + b) * r
            t3 = -(b * x1 + a * x2)
            scale = max(1.0, abs(t1) + abs(t2) + abs(t3))
            assert abs(t1 + t2 + t3) <= 1e-9 * scale, f"residual at root {r}"


def _roots_one_at_a_time(layout, height_m, steps=None):
    """The distance product's stationary points as a scalar loop: each candidate root polished alone,
    then sorted and deduplicated.  The Newton steps each candidate took are appended to steps, if given."""
    (x1, y1), (x2, y2) = layout
    h2 = height_m * height_m
    a, b = y1 * y1 + h2, y2 * y2 + h2
    half = (x2 - x1) / 2.0
    p = (a + b - 2.0 * half * half) / 2.0
    q = half * (b - a) / 2.0
    disc = (q / 2.0) * (q / 2.0) + (p / 3.0) ** 3
    cbrt = lambda v: math.copysign(abs(v) ** (1.0 / 3.0), v)  # noqa: E731
    if p == 0.0 and q == 0.0:
        centred = [0.0]
    elif disc > 0.0:
        centred = [cbrt(-q / 2.0 + math.sqrt(disc)) + cbrt(-q / 2.0 - math.sqrt(disc))]
    elif disc < 0.0:
        radius = 2.0 * math.sqrt(-p / 3.0)
        phase = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * radius))))
        centred = [radius * math.cos(phase / 3.0 - 2.0 * math.pi * k / 3.0) for k in (0, 1, 2)]
    else:
        centred = [0.0] if p == 0.0 else [3.0 * q / p, -3.0 * q / (2.0 * p)]

    def polish(x):
        taken = 0
        for _ in range(8):
            f = 2.0 * ((x - x1) * (x - x2) * (2.0 * x - x1 - x2) + (a + b) * x - (b * x1 + a * x2))
            fp = 2.0 * ((x - x2) * (2.0 * x - x1 - x2) + (x - x1) * (2.0 * x - x1 - x2)
                        + 2.0 * (x - x1) * (x - x2) + a + b)
            if fp == 0.0:
                break
            step = f / fp
            x -= step
            taken += 1
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        if steps is not None:
            steps.append(taken)
        return x

    scale = max(1.0, abs(x1), abs(x2), math.sqrt(a), math.sqrt(b))
    roots = []
    for r in sorted(polish((x1 + x2) / 2.0 + u) for u in centred):
        if not roots or r - roots[-1] > 1e-9 * scale:
            roots.append(r)
    return tuple(roots)


def test_block_roots_equal_the_scalar_polish_bit_for_bit():
    gen = rng.stream(33, rng.DOMAIN_TESTS, 37)
    layouts = _random_pairs(gen, 300) + [
        ((-6.0, 2.0), (6.0, 2.0)), ((2.5, 1.0), (2.5, 1.0)),
        ((-3.0, 0.0), (3.0, 0.0)), ((0.0, 0.0), (0.0, 0.0)),
        ((-20.0, 5.0), (20.0, -5.0)), ((1.0, 2.0), (1.0, -2.0)),
    ]
    # a block of a sweep's size, where the polish gathers the roots still live once oma_greedy._COMPACT_AT
    # have stopped; some roots there never meet the stop test and take all 8 steps
    tall = _random_pairs(rng.stream(33, rng.DOMAIN_TESTS, 38), 900)
    counts, steps = set(), []
    for height in (0.5, PARAMS.height_m, 10.0):
        for lay, roots in zip(layouts, _roots(layouts, height)):
            assert roots == _roots_one_at_a_time(lay, height), lay
            counts.add(len(roots))
        for lay, roots in zip(tall, _roots(tall, height)):
            assert roots == _roots_one_at_a_time(lay, height, steps), lay
    assert counts == {1, 3}, "the layouts must reach both the Cardano and the trigonometric branch"
    assert sum(s <= 1 for s in steps) >= oma_greedy._COMPACT_AT and 8 in steps


def distance_product(layout, height_m: float, x):
    """Product of the two squared antenna-user distances; broadcasts over x."""
    (x1, y1), (x2, y2) = layout
    h2 = height_m * height_m
    return ((x - x1) * (x - x1) + y1 * y1 + h2) * ((x - x2) * (x - x2) + y2 * y2 + h2)


def test_roots_are_stationary_points_of_distance_product():
    lay = ((-9.0, 1.0), (4.0, -3.5))
    for r in _roots([lay])[0]:
        eps = 1e-5
        f0 = distance_product(lay, PARAMS.height_m, r)
        fp = (distance_product(lay, PARAMS.height_m, r + eps)
              - distance_product(lay, PARAMS.height_m, r - eps)) / (2 * eps)
        assert abs(fp) <= 1e-3 * max(1.0, abs(f0) / 10.0), f"not stationary at {r}"


def test_high_snr_placement_approaches_search():
    gen = rng.stream(33, rng.DOMAIN_TESTS, 32)
    total = 10.0  # 40 dBm
    rate = bpcu_to_nats(1.0)
    for _ in range(40):
        lay = _random_pair(gen)
        fast = best_placement_high_snr(PARAMS, _one(lay), total, rate).row(0)
        slow = best_placement_search(PARAMS, _one(lay), total, rate, SEARCH_GRID).row(0).solution
        rel = (slow.objective - fast.solution.objective) / slow.objective
        assert rel <= 1e-3, f"fast route {rel:.2e} worse than search"
        assert fast.solution.objective <= slow.objective + 1e-9


def test_high_snr_reports_roots_and_case():
    fast = best_placement_high_snr(PARAMS, _one(LAYOUT), 10.0, RATE).row(0)
    assert fast.solution.x_star in fast.roots or abs(fast.solution.x_star) == PARAMS.half_length
    assert fast.case in (CASE_INTERIOR, CASE_FLOOR_AT_1, CASE_FLOOR_AT_2)


def test_placement_sides_with_near_user():
    gen = rng.stream(33, rng.DOMAIN_TESTS, 33)
    spec = GridSpec(lo=-20.0, hi=20.0, points=4001, refine_iters=60)
    from pinchplace.oracle import grid_optimize

    for _ in range(100):
        lay = _random_pair(gen)
        x_star, _ = grid_optimize(
            lambda xs: distance_product(lay, PARAMS.height_m, xs), spec, sense="min"
        )
        assert closer_to_near_user(lay, x_star), (
            f"minimizer {x_star} sided with the far user for {lay}"
        )


def test_closer_to_near_user_tie_requires_balance():
    lay = ((-5.0, 3.0), (5.0, -3.0))  # equal |y|
    assert closer_to_near_user(lay, 0.0)
    assert not closer_to_near_user(lay, -4.0)


def _old_cbrt(v: float) -> float:
    """The per-element cube root oma_greedy._cbrt replaced."""
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(values=st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_cbrt_equals_the_per_element_cube_root_bit_for_bit(values):
    values = np.array(values + [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 27.0, -27.0,
                                math.inf, -math.inf, math.nan, -math.nan])
    want = np.array([_old_cbrt(v) for v in values.tolist()])
    assert np.array_equal(oma_greedy._cbrt(values).view(np.int64), want.view(np.int64))

