"""Two-user outage probability: closed form and Monte Carlo."""

import math

import numpy as np
import pytest

from pinchplace import outage, rng
from pinchplace.core import SPEED_OF_LIGHT, SystemParams, bpcu_to_nats, dbm_to_watt, power_coeff
from pinchplace.errors import CertificationError
from pinchplace.outage import closed_form_outage, monte_carlo_outage, outage_rate

PARAMS = SystemParams.default()
RATE = bpcu_to_nats(2.5)

# frozen against a 50-digit quadrature of the exact offset distribution
FROZEN = {
    0.0: 0.7917758468707344,
    5.0: 0.3903893843864597,
    8.0: 0.18450583211328647,
    10.0: 0.0697681040944854,
    12.0: 0.0036459902685501222,
    15.0: 0.0,
}


@pytest.mark.parametrize("dbm,want", sorted(FROZEN.items()))
def test_closed_form_frozen(dbm, want):
    got = closed_form_outage(PARAMS, RATE, dbm_to_watt(dbm))
    if want == 0.0:
        assert got == 0.0, f"P_out({dbm} dBm) = {got}, want exact 0"
    else:
        assert np.isclose(got, want, rtol=1e-12), f"P_out({dbm} dBm) = {got}, want {want}"


def test_budget_below_height_floor_is_certain_outage():
    # even a user straight below the antenna is unreachable
    coeff = 4.270277308687502e-05
    h2 = PARAMS.height_m ** 2
    assert closed_form_outage(PARAMS, RATE, 0.999 * coeff * h2) == 1.0
    assert closed_form_outage(PARAMS, RATE, 1.001 * coeff * h2) < 1.0


def test_closed_form_monotone_in_budget():
    budgets = np.logspace(-4, 1, 40)
    probs = [closed_form_outage(PARAMS, RATE, float(b)) for b in budgets]
    assert all(a >= b - 1e-15 for a, b in zip(probs, probs[1:])), "not nonincreasing"
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_closed_form_input_validation():
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="^budget must be positive$"):
            closed_form_outage(PARAMS, RATE, bad)
        with pytest.raises(ValueError, match="^rate target must be positive$"):
            closed_form_outage(PARAMS, bad, 1.0)


def test_monte_carlo_is_deterministic():
    a = monte_carlo_outage(PARAMS, 2, RATE, dbm_to_watt(5.0), 4000, seed=3)
    b = monte_carlo_outage(PARAMS, 2, RATE, dbm_to_watt(5.0), 4000, seed=3)
    assert a == b
    # distinct seeds consume distinct streams (the estimates may still
    # collide by chance, so compare the draws themselves)
    d3 = rng.stream(3, rng.DOMAIN_OUTAGE, 0).random(16)
    d4 = rng.stream(4, rng.DOMAIN_OUTAGE, 0).random(16)
    assert not np.array_equal(d3, d4)


def test_monte_carlo_matches_closed_form():
    for dbm in (0.0, 8.0, 12.0):
        want = FROZEN[dbm]
        est = monte_carlo_outage(PARAMS, 2, RATE, dbm_to_watt(dbm), 200000, seed=11)
        sigma = math.sqrt(want * (1.0 - want) / 200000)
        assert abs(est.probability - want) <= 3.0 * sigma + 1e-12, (
            f"{dbm} dBm: mc {est.probability} vs exact {want}"
        )


def test_monte_carlo_impossible_event_is_exactly_zero():
    est = monte_carlo_outage(PARAMS, 2, RATE, dbm_to_watt(15.0), 50000, seed=0)
    assert est.probability == 0.0 and est.stderr == 0.0


def test_monte_carlo_across_block_boundary():
    # trials spanning more than one 2^16 draw block stay deterministic
    n = (1 << 16) + 1234
    a = monte_carlo_outage(PARAMS, 2, RATE, dbm_to_watt(5.0), n, seed=9)
    b = monte_carlo_outage(PARAMS, 2, RATE, dbm_to_watt(5.0), n, seed=9)
    assert a == b
    want = FROZEN[5.0]
    sigma = math.sqrt(want * (1.0 - want) / n)
    assert abs(a.probability - want) <= 3.0 * sigma


# (users, seed) -> (probability, stderr) at 70000 trials (two draw blocks), recorded when the
# estimate took the row-wise mean of an (n, users) array; a budget that covers 20 m^2 of headroom
MC_PINNED = {
    (1, 5): (0.10704285714285715, 0.0011685441728770953),
    (1, 7): (0.10625714285714286, 0.0011647597081984617),
    (2, 5): (0.7140428571428571, 0.001707904544447554),
    (2, 7): (0.7166285714285714, 0.0017032408689689042),
    (3, 5): (0.7676857142857143, 0.0015961756006482985),
    (3, 7): (0.7671714285714286, 0.0015974060569520737),
    (7, 5): (0.8166285714285715, 0.0014626118895177218),
    (7, 7): (0.8167285714285715, 0.0014623025485309914),
    (8, 5): (0.8211714285714286, 0.0014483927716580382),
    (8, 7): (0.8204857142857143, 0.001450561009396884),
    (9, 5): (0.8241142857142857, 0.0014389973185516484),
    (9, 7): (0.8221857142857143, 0.0014451710996586631),
    (13, 5): (0.8306285714285714, 0.0014176678421926527),
    (13, 7): (0.8309571428571428, 0.0014165721684597685),
}


@pytest.mark.parametrize("num_users,seed", sorted(MC_PINNED))
def test_monte_carlo_estimate_is_pinned(num_users, seed):
    budget = power_coeff(PARAMS, RATE, num_users) * (PARAMS.height_m ** 2 + 20.0)
    est = monte_carlo_outage(PARAMS, num_users, RATE, budget, 70000, seed)
    assert repr(tuple(est)) == repr(MC_PINNED[num_users, seed])


def _one_draw_estimate(num_users, budget, trials, seed):
    """The estimate with each 2^16-trial block drawn in one rng call and the users averaged per row."""
    threshold = outage._budget_over_coeff(PARAMS, RATE, budget, num_users) - PARAMS.height_m ** 2
    failures = 0
    for block_index, start in enumerate(range(0, trials, 1 << 16)):
        draws = rng.stream(seed, rng.DOMAIN_OUTAGE, block_index).random((min(1 << 16, trials - start),
                                                                          2 * num_users))
        xs = (2.0 * draws[:, :num_users] - 1.0) * PARAMS.half_length
        y0 = (2.0 * draws[:, num_users] - 1.0) * PARAMS.half_width
        offset = xs.sum(axis=1) / num_users - xs[:, 0]
        failures += int((offset * offset + y0 * y0 >= threshold).sum())
    p = failures / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


@pytest.mark.parametrize("num_users", [1, 2, 8])
@pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 30000, 65536, 65537])
def test_sub_draws_give_the_one_draw_estimate_bit_for_bit(trials, num_users):
    # trials around a sub-draw edge (1024 rows for two users) and a block edge (2^16)
    budget = power_coeff(PARAMS, RATE, num_users) * (PARAMS.height_m ** 2 + 20.0)
    est = monte_carlo_outage(PARAMS, num_users, RATE, budget, trials, seed=11)
    assert repr(tuple(est)) == repr(_one_draw_estimate(num_users, budget, trials, 11))


def test_monte_carlo_three_users_runs():
    est = monte_carlo_outage(PARAMS, 3, bpcu_to_nats(1.0), dbm_to_watt(10.0), 20000, seed=1)
    assert 0.0 <= est.probability <= 1.0


def test_monte_carlo_input_validation():
    with pytest.raises(ValueError):
        monte_carlo_outage(PARAMS, 2, RATE, 1.0, 0, seed=0)
    with pytest.raises(ValueError, match="users"):
        monte_carlo_outage(PARAMS, 0, RATE, 1.0, 10, seed=0)
    for bad in (0.0, math.nan):
        with pytest.raises(ValueError, match="^budget must be positive$"):
            monte_carlo_outage(PARAMS, 2, RATE, bad, 10, seed=0)
        with pytest.raises(ValueError, match="^rate target must be positive$"):
            monte_carlo_outage(PARAMS, 2, bad, 1.0, 10, seed=0)


def test_underflowing_power_coefficient_never_runs_out_of_budget():
    # at 1e-320 nats the coefficient underflows to 0 W/m^2; both routes take the limit p = 0
    assert power_coeff(PARAMS, 1e-320, 2) == 0.0
    assert closed_form_outage(PARAMS, 1e-320, 1e-3) == 0.0
    for num_users in (1, 2, 5):
        assert monte_carlo_outage(PARAMS, num_users, 1e-320, 1e-3, 500, seed=3).probability == 0.0


def test_outage_rate_definition():
    assert outage_rate(0.0, 2.0) == 2.0
    assert outage_rate(1.0, 2.0) == 0.0
    assert np.isclose(outage_rate(0.25, 2.0), 1.5, rtol=1e-15)
    with pytest.raises(ValueError):
        outage_rate(1.5, 2.0)


def test_broken_invariants_raise_certification_error(monkeypatch):
    budget = dbm_to_watt(5.0)
    with monkeypatch.context() as m:
        m.setattr(outage, "_tail_integral", lambda y, lim, params: 1e3 * y)
        with pytest.raises(CertificationError, match="outage probability lies in"):
            closed_form_outage(PARAMS, RATE, budget)
    lim = outage._limits(PARAMS, budget / power_coeff(PARAMS, RATE, 2))
    with pytest.raises(CertificationError, match="asin argument"):
        outage._tail_integral(1.01 * math.sqrt(lim.headroom), lim, PARAMS)


def _mp_outage(mp, params, rate_nats, budget_w):
    """closed_form_outage and its headroom in mpmath from the same float inputs, at the caller's precision."""
    gain = (mp.mpf(SPEED_OF_LIGHT) / (4 * mp.pi * mp.mpf(params.carrier_hz))) ** 2
    coeff = mp.mpf(params.noise_w) / gain * mp.expm1(2 * mp.mpf(rate_nats))
    length, half_width = mp.mpf(params.length_m), mp.mpf(params.width_m) / 2
    headroom = mp.mpf(budget_w) / coeff - mp.mpf(params.height_m) ** 2
    if headroom <= 0:
        return mp.mpf(1), headroom
    half_len_sq = (length / 2) ** 2
    edge = mp.sqrt(headroom)

    def tail(y):
        circular = y / 2 * mp.sqrt(max(headroom - y * y, 0)) + headroom / 2 * mp.asin(min(y / edge, 1))
        return y + headroom / half_len_sq * y - 4 / (3 * length ** 2) * y ** 3 - 4 / length * circular

    y_hi = min(half_width, edge)
    y_lo = mp.sqrt(max(0, headroom - half_len_sq))
    partial = (tail(y_hi) - tail(y_lo)) / half_width if y_hi >= y_lo else 0
    return min(max((half_width - y_hi) / half_width + partial, 0), 1), headroom


def test_closed_form_matches_mpmath_where_the_budget_ends_inside_the_service_area():
    # The region: 0 < headroom < (W/2)^2 on the grid {0.01, 0.1, 0.5, 1, 2, 4, 8} BPCU x -100..+60 dBm
    # in 0.2 dB steps, where the upper limit y_hi is the edge sqrt(headroom) of the budget's disc and the
    # root sqrt(headroom - y^2) vanishes.  Elsewhere on this grid the closed form still loses up to about
    # 1e-8 relative to cancellation at tiny p near the top budget, so those cases are not bounded here.
    mp = pytest.importorskip("mpmath")
    half_width_sq = PARAMS.half_width ** 2
    worst, cases = 0.0, 0
    with mp.workdps(50):
        for rate_bpcu in (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
            rate = bpcu_to_nats(rate_bpcu)
            for step in range(801):
                budget = dbm_to_watt(-100.0 + 0.2 * step)
                # the float headroom is within a few ulps of the exact one: only near-region cases reach mpmath
                if not 0.0 < budget / power_coeff(PARAMS, rate, 2) - PARAMS.height_m ** 2 < 1.01 * half_width_sq:
                    continue
                want, headroom = _mp_outage(mp, PARAMS, rate, budget)
                if not 0 < headroom < half_width_sq:
                    continue
                cases += 1
                worst = max(worst, float(abs(closed_form_outage(PARAMS, rate, budget) - want) / want))
    assert cases == 203
    assert worst <= 1e-12, f"worst relative error {worst:.3e} over {cases} cases"
