"""Acceptance harness: twelve certification and trend criteria.

Each test prints one PASS/FAIL line (run with -s to see them all) and asserts
the same condition, so `pytest -v tests/test_acceptance.py` doubles as the
acceptance report.  Every reference value here comes from an independent
brute-force oracle or a paired Monte Carlo comparison, never from the closed
form under test.
"""

import math
import time

import numpy as np

from pinchplace import noma, oma_fairness, rng
from pinchplace.core import (
    LayoutBlock,
    SystemParams,
    bpcu_to_nats,
    dbm_to_watt,
    min_power_terms,
    nats_to_bpcu,
    one_pair,
    path_gain,
    squared_distance,
)
from pinchplace.experiments import ExperimentConfig, layout_block, run_experiment, sample_layout
from pinchplace.noma import check_solution, solve_min_power_search
from pinchplace.oma_greedy import best_placement_high_snr, best_placement_search, split_power
from pinchplace.oracle import GridSpec, certification_grid, grid_optimize, power_split_sweep
from pinchplace.outage import closed_form_outage, monte_carlo_outage
from pair_geometry import closer_to_near_user

PARAMS = SystemParams.default()
SEED = 20260816


def _report(num, ok, detail):
    line = f"[C{num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _layouts(gen, count, sizes):
    """count one-row blocks, drawn one after the other from gen."""
    for i in range(count):
        yield sample_layout(sizes[i % len(sizes)], PARAMS, False, gen)


class _Successive:
    """count successive draws of one Generator at once, for sample_layout.

    random(shape) returns count draws of that shape stacked on a new first
    axis: a Generator fills an array in C order, so this equals count calls
    made one after the other.
    """

    def __init__(self, gen, count):
        self.gen, self.count = gen, count

    def random(self, shape):
        return self.gen.random((self.count, *shape))


def _block(num_users, clustering, gen, count):
    """The layouts of count successive sample_layout calls on gen, as one LayoutBlock."""
    return sample_layout(num_users, PARAMS, clustering, _Successive(gen, count))


# --- 1: max-min closed form is never beaten by the grid oracle --------------

def test_c01_maxmin_certified_against_grid_oracle():
    t0 = time.monotonic()
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, 1)
    spec = certification_grid(-PARAMS.half_length, PARAMS.half_length)
    g = path_gain(PARAMS)
    worst = -math.inf
    for lay in _layouts(gen, 1000, (2, 3, 5)):
        total_w = dbm_to_watt(float(gen.uniform(0.0, 40.0)))
        sol = oma_fairness.solve_max_min_rate(PARAMS, lay, total_w).row(0)
        xs_u, ys_u = lay.xs[0], lay.ys[0]

        def oracle(xs):
            tau_sum = squared_distance(
                xs_u[None, :], ys_u[None, :], np.expand_dims(xs, -1), PARAMS.height_m
            ).sum(axis=-1)
            return np.log1p(g * total_w / (PARAMS.noise_w * tau_sum)) / lay.num_users

        _, best = grid_optimize(oracle, spec, sense="max")
        worst = max(worst, (best - sol.objective) / abs(best))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(1, ok, f"max-min vs 20001-point oracle: worst rel gap {worst:.2e} "
                   f"(tol 1e-9), 1000 layouts in {elapsed:.1f}s (limit 60s)")


# --- 2: power-min closed form matches the grid oracle -----------------------

def test_c02_powermin_certified_against_grid_oracle():
    t0 = time.monotonic()
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, 2)
    spec = certification_grid(-PARAMS.half_length, PARAMS.half_length)
    worst = -math.inf
    for lay in _layouts(gen, 1000, (2, 3, 5)):
        rate = bpcu_to_nats(float(gen.uniform(0.5, 4.0)))
        sol = oma_fairness.solve_min_total_power(PARAMS, lay, rate).row(0)
        terms = min_power_terms(PARAMS, lay, rate, slots=lay.num_users)
        xs_u = lay.xs[0]
        floor_sum = sum(terms.floors[0])

        def oracle(xs):
            return terms.coeff * ((np.expand_dims(xs, -1) - xs_u[None, :]) ** 2).sum(axis=-1) + floor_sum

        _, best = grid_optimize(oracle, spec, sense="min")
        worst = max(worst, (sol.objective - best) / best)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report(2, ok, f"power-min vs 20001-point oracle: worst rel gap {worst:.2e} "
                   f"(tol 1e-9), 1000 layouts in {elapsed:.1f}s (limit 60s)")


# --- 3: power-saving identity ------------------------------------------------

def test_c03_power_saving_identity():
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, 3)
    worst = 0.0
    negative = 0
    sizes = (2, 3, 4, 5, 6)
    drawn = {size: ([], []) for size in sizes}
    for i in range(10000):
        # each layout has its own rate target: the layouts of one size form a block with a column of rates
        layouts, rates = drawn[sizes[i % len(sizes)]]
        layouts.append(sample_layout(sizes[i % len(sizes)], PARAMS, False, gen))
        rates.append(bpcu_to_nats(float(gen.uniform(0.5, 4.0))))
    for layouts, rates in drawn.values():
        block = LayoutBlock(np.concatenate([b.xs for b in layouts]), np.concatenate([b.ys for b in layouts]))
        rate = np.array(rates)
        saving = oma_fairness.pinching_power_saving(PARAMS, block, rate)
        conv = oma_fairness.conventional_min_total_power(PARAMS, block, rate)
        pin = oma_fairness.solve_min_total_power(PARAMS, block, rate).objective
        negative += int((saving < 0.0).sum())
        # the subtraction cancels catastrophically when the saving is tiny,
        # so the identity is read relative to the conventional total
        worst = max(worst, float(np.max(np.abs(saving - (conv - pin)) / conv)))
    ok = worst <= 1e-12 and negative == 0
    _report(3, ok, f"saving identity over 10000 layouts: worst "
                   f"|closed - (conv - pin)| / conv = {worst:.2e} (tol 1e-12), "
                   f"negatives {negative}")


# --- 4: outage closed form vs Monte Carlo ------------------------------------

def test_c04_outage_closed_form_vs_monte_carlo():
    t0 = time.monotonic()
    rate = bpcu_to_nats(2.5)
    trials = 1_000_000
    worst_sigmas = 0.0
    zero_points = 0
    for i, dbm in enumerate(np.linspace(5.0, 35.0, 10)):
        budget = dbm_to_watt(float(dbm))
        analytic = closed_form_outage(PARAMS, rate, budget)
        est = monte_carlo_outage(PARAMS, 2, rate, budget, trials, seed=SEED + i)
        sigma = math.sqrt(analytic * (1.0 - analytic) / trials)
        gap = abs(est.probability - analytic)
        if sigma == 0.0:
            zero_points += 1
            assert gap == 0.0, f"impossible event sampled at {dbm} dBm: {est.probability}"
        else:
            worst_sigmas = max(worst_sigmas, gap / sigma)
    elapsed = time.monotonic() - t0
    ok = worst_sigmas <= 3.0 and elapsed < 120.0
    _report(4, ok, f"outage closed form within {worst_sigmas:.2f} binomial sigmas of "
                   f"1e6-trial MC over 10 budgets ({zero_points} exactly-zero, "
                   f"limit 3.0), {elapsed:.0f}s (limit 120s)")


# --- 5: two-user allocation vs dense power sweep ------------------------------

def test_c05_allocation_never_beaten_by_power_sweep():
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, 5)
    rate = bpcu_to_nats(1.0)
    g = path_gain(PARAMS)
    worst = -math.inf
    vacuous = 0
    for lay in _layouts(gen, 1000, (2,)):
        x = float(gen.uniform(-PARAMS.half_length, PARAMS.half_length))
        coeff = min_power_terms(PARAMS, lay, rate, slots=2).coeff
        (x1, y1), (x2, y2) = one_pair(lay)
        h2 = PARAMS.height_m ** 2
        t1 = (x - x1) ** 2 + y1 * y1 + h2
        t2 = (x - x2) ** 2 + y2 * y2 + h2
        total = coeff * (t1 + t2) * float(10.0 ** gen.uniform(0.0, 2.0))
        got = split_power(PARAMS, lay, total, rate, [x]).row(0).solution.objective

        q1, q2 = PARAMS.noise_w * t1 / g, PARAMS.noise_w * t2 / g
        f1, f2 = coeff * t1, coeff * t2

        def ev(p1s):
            p2s = total - p1s
            with np.errstate(divide="ignore", invalid="ignore"):
                r = 0.5 * (np.log1p(p1s / q1) + np.log1p(p2s / q2))
            feas = (p1s >= f1 - 1e-12 * total) & (p2s >= f2 - 1e-12 * total)
            return np.where(feas, r, -np.inf)

        swept = power_split_sweep(ev, total, 100001, 40)
        if swept is None:
            # budget at the exact floor sum: the sweep's grid can miss the
            # single feasible point the closed form returned
            vacuous += 1
            continue
        worst = max(worst, swept[1] - got)
    ok = worst <= 1e-9 and vacuous <= 2
    _report(5, ok, f"two-user split vs 100001-point sweep on 1000 triples: worst "
                   f"shortfall {worst:.2e} nats (tol 1e-9), {vacuous} sweep-infeasible")


# --- 6: high-power placement route matches the search -------------------------

def test_c06_high_snr_route_matches_search():
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, 6)
    total = dbm_to_watt(40.0)
    rate = bpcu_to_nats(1.0)
    spec = GridSpec(lo=-PARAMS.half_length, hi=PARAMS.half_length,
                    points=8001, refine_iters=40)
    worst_rel = -math.inf
    worst_resid = 0.0
    block = _block(2, False, gen, 1000)
    searched = best_placement_search(PARAMS, block, total, rate, spec)
    for i in range(len(block)):
        lay, slow = block[i:i + 1], searched.row(i).solution
        fast = best_placement_high_snr(PARAMS, lay, total, rate).row(0)
        worst_rel = max(worst_rel, (slow.objective - fast.solution.objective) / slow.objective)

        (x1, y1), (x2, y2) = one_pair(lay)
        h2 = PARAMS.height_m ** 2
        a, b = y1 * y1 + h2, y2 * y2 + h2
        for r in fast.roots:
            t1 = (r - x1) * (r - x2) * (2.0 * r - x1 - x2)
            t2 = (a + b) * r
            t3 = -(b * x1 + a * x2)
            scale = max(1.0, abs(t1) + abs(t2) + abs(t3))
            worst_resid = max(worst_resid, abs(t1 + t2 + t3) / scale)
    ok = worst_rel <= 1e-3 and worst_resid <= 1e-9
    _report(6, ok, f"stationary-point route at 40 dBm, 1000 layouts: worst rel "
                   f"throughput gap {worst_rel:.2e} (tol 1e-3), worst cubic residual "
                   f"{worst_resid:.2e} (tol 1e-9)")


# --- 7: throughput placement sides with the near user -------------------------

def test_c07_minimizer_prefers_near_user():
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, 7)
    n = 10000
    x_u = gen.uniform(-PARAMS.half_length, PARAMS.half_length, size=(2, n))
    y_u = gen.uniform(-PARAMS.half_width, PARAMS.half_width, size=(2, n))
    h2 = PARAMS.height_m ** 2
    a = y_u[0] ** 2 + h2
    b = y_u[1] ** 2 + h2

    def products(xs):
        return ((xs - x_u[0]) ** 2 + a) * ((xs - x_u[1]) ** 2 + b)

    # coarse global stage: 4001-point grid, chunked to bound memory
    grid = np.linspace(-PARAMS.half_length, PARAMS.half_length, 4001)
    step = grid[1] - grid[0]
    best_x = np.empty(n)
    chunk = 500
    for lo in range(0, n, chunk):
        sl = slice(lo, min(lo + chunk, n))
        vals = ((grid[None, :] - x_u[0, sl, None]) ** 2 + a[sl, None]) * (
            (grid[None, :] - x_u[1, sl, None]) ** 2 + b[sl, None]
        )
        best_x[sl] = grid[np.argmin(vals, axis=1)]

    # local stage: vectorized ternary shrink of the bracketing cell
    lo_b = np.maximum(best_x - step, -PARAMS.half_length)
    hi_b = np.minimum(best_x + step, PARAMS.half_length)
    for _ in range(90):
        m1 = lo_b + (hi_b - lo_b) / 3.0
        m2 = hi_b - (hi_b - lo_b) / 3.0
        left = products(m1) <= products(m2)
        hi_b = np.where(left, m2, hi_b)
        lo_b = np.where(left, lo_b, m1)
    x_star = (lo_b + hi_b) / 2.0

    violations = 0
    for i in range(n):
        lay = ((float(x_u[0, i]), float(y_u[0, i])), (float(x_u[1, i]), float(y_u[1, i])))
        if not closer_to_near_user(lay, float(x_star[i])):
            violations += 1
    ok = violations == 0
    _report(7, ok, f"distance-product minimizer sided with the near user on "
                   f"{n - violations}/{n} layouts (0 violations allowed, slack 1e-9)")


# --- 8: NOMA closed form vs two-order search -----------------------------------

def test_c08_noma_certified_against_search():
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, 8)
    spec = certification_grid(-PARAMS.half_length, PARAMS.half_length)
    worst = -math.inf
    bad_checks = 0
    for rate in (0.5, 1.0, 2.0, 3.0):
        block = _block(2, False, gen, 1000)
        solved = noma.solve_min_power(PARAMS, block, rate)
        for i in range(len(block)):
            lay, closed = block[i:i + 1], solved.row(i)
            search = solve_min_power_search(PARAMS, lay, rate, spec)
            worst = max(worst, abs(closed.total - search.total) / search.total)
            if not check_solution(PARAMS, lay, closed).all_ok:
                bad_checks += 1
    ok = worst <= 1e-6 and bad_checks == 0
    _report(8, ok, f"NOMA closed form vs two-order search, 4 rates x 1000 layouts: "
                   f"worst rel gap {worst:.2e} (tol 1e-6), {bad_checks} assumption failures")


# --- 9: NOMA saves power at a high rate ----------------------------------------

def test_c09_noma_gap_positive_at_high_rate():
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, 9)
    n = 10000
    block = _block(2, False, gen, n)
    # centre-antenna time sharing's total power minus pinching NOMA's
    gaps = (oma_fairness.conventional_min_total_power(PARAMS, block, 3.0)
            - noma.solve_min_power(PARAMS, block, 3.0).total)
    wins = int((gaps > 0.0).sum())
    ok = wins == n
    _report(9, ok, f"NOMA vs centre time-sharing power gap positive on {wins}/{n} "
                   f"layouts at R = 3 nats (100% required)")


# --- 10: the placement gain shrinks with M, and survives clustering -------------

def _paired_maxmin_gaps(num_users, clustering, trials, stream_index):
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, stream_index)
    total_w = dbm_to_watt(30.0)
    block = _block(num_users, clustering, gen, trials)
    moved = oma_fairness.solve_max_min_rate(PARAMS, block, total_w).objective
    fixed = oma_fairness.conventional_max_min_rate(PARAMS, block, total_w)
    return nats_to_bpcu(moved - fixed)


def test_c10_placement_gain_shrinks_with_users_survives_clustering():
    trials = 10000
    gap2 = _paired_maxmin_gaps(2, False, trials, 100)
    gap5 = _paired_maxmin_gaps(5, False, trials, 101)
    gap5c = _paired_maxmin_gaps(5, True, trials, 102)

    se2 = gap2.std(ddof=1) / math.sqrt(trials)
    se5 = gap5.std(ddof=1) / math.sqrt(trials)
    se5c = gap5c.std(ddof=1) / math.sqrt(trials)
    shrink = gap2.mean() - gap5.mean()
    shrink_se = math.hypot(se2, se5)

    ok = shrink > 3.0 * shrink_se and gap5c.mean() > 3.0 * se5c
    _report(10, ok, f"max-min placement gain at 30 dBm: M=2 {gap2.mean():.4f}, "
                    f"M=5 {gap5.mean():.4f}, clustered M=5 {gap5c.mean():.4f} BPCU; "
                    f"shrink {shrink:.4f} > 3 SE ({3 * shrink_se:.4f}) and clustered "
                    f"gap stays positive ({gap5c.mean():.4f} > {3 * se5c:.4f})")


# --- 11: scheme ordering of mean total power ------------------------------------

def test_c11_total_power_scheme_ordering():
    gen = rng.stream(SEED, rng.DOMAIN_TESTS, 11)
    trials = 10000
    rate = bpcu_to_nats(2.0)
    block = _block(2, False, gen, trials)
    oma_pin = oma_fairness.solve_min_total_power(PARAMS, block, rate).objective
    oma_conv = oma_fairness.conventional_min_total_power(PARAMS, block, rate)
    noma_pin = noma.solve_min_power(PARAMS, block, rate).total
    noma_conv = np.minimum(*(sum(noma.min_powers_at(PARAMS, block, rate, 0.0, dec)) for dec in (0, 1)))

    def margin(hi, lo):
        diff = hi - lo
        return diff.mean() / (diff.std(ddof=1) / math.sqrt(trials))

    m1 = margin(oma_pin, noma_pin)
    m2 = margin(noma_conv, noma_pin)
    m3 = margin(oma_conv, noma_conv)
    ok = min(m1, m2, m3) > 3.0
    _report(11, ok, f"mean total power at R = 2 BPCU over {trials} layouts: "
                    f"NOMA-pin < OMA-pin ({m1:.0f} paired SEs), NOMA-pin < NOMA-conv "
                    f"({m2:.0f}), NOMA-conv < OMA-conv ({m3:.0f}); all must exceed 3")


# --- 12: experiment reruns are byte-identical ------------------------------------

def test_c12_experiment_determinism():
    power_cfg = {
        "schemes": "oma-maxmin,oma-maxmin-conv,oma-greedy,outage-mc",
        "trials": 300, "sweep_points": 3, "sweep_start": 10.0, "sweep_stop": 30.0,
        "seed": 77, "grid_points": 501, "grid_refine": 10,
    }
    rate_cfg = {
        "schemes": "noma,noma-conv,oma-powermin", "sweep": "rate_bpcu",
        "trials": 200, "sweep_points": 2, "sweep_start": 1.0, "sweep_stop": 3.0,
        "seed": 78,
    }
    outputs, order_free = set(), True
    for mapping in (power_cfg, rate_cfg):
        cfg = ExperimentConfig.from_mapping(mapping)
        outputs.update(run_experiment(cfg) for _ in range(2))
        for sweep_idx in range(len(cfg.sweep_values)):
            forward = layout_block(cfg, sweep_idx, range(cfg.trials))
            backward = layout_block(cfg, sweep_idx, range(cfg.trials - 1, -1, -1))
            order_free &= (np.array_equal(forward.xs, backward.xs[::-1])
                           and np.array_equal(forward.ys, backward.ys[::-1]))
    ok = len(outputs) == 2 and order_free  # one unique CSV per config
    _report(12, ok, f"experiment CSVs byte-identical across reruns: {len(outputs)} unique outputs "
                    f"from 4 runs (want 2); trial layouts same in reversed trial order: {order_free}")
