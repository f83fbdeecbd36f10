"""Two-user superposition (NOMA) power minimization.

The closed-form solvers take a LayoutBlock; a single pair goes in as a one-row block.
"""

import math

import numpy as np
import pytest

from pinchplace import certify, noma, oma_fairness, rng
from pinchplace.core import LayoutBlock, MinPowerTerms, NomaRates, SystemParams, min_power_terms, one_pair
from pinchplace.errors import CertificationError, DomainError
from pinchplace.noma import check_solution, solve_min_power_search
from pinchplace.oracle import GridSpec, certification_grid

PARAMS = SystemParams.default()
SEARCH_GRID = GridSpec(lo=-20.0, hi=20.0, points=4001, refine_iters=40)

# frozen against a 50-digit reference computation at R = 1 nat
NOMA_X = 2.6894142136999513
NOMA_P1 = 4.078949985270912e-05
NOMA_P2 = 0.00025576232611553126
NOMA_TOTAL = 0.0002965518259682404
NOMA_SIC_RATE = 1.6021281371383753
NOMA_MARGIN = -61.211715726000975
OMA_CENTRE_TOTAL = 0.0011881324429778488
NOMA_GAP = 0.0008915806170096084


def _one(users):
    """The one-row block of one layout's (x, y) users."""
    return LayoutBlock.from_layouts([users])


ORDERED = _one(((0.0, 1.0), (10.0, 4.0)))


def _noma_savings(block, rate_nats):
    """Centre-antenna time sharing's total power minus pinching NOMA's, for each pair of a block.

    The baseline serves each user in its own slot from a centre-fixed antenna,
    so it pays the e^{2R} SNR price on both squared distances; NOMA pays e^R
    once and moves the antenna.
    """
    return (oma_fairness.conventional_min_total_power(PARAMS, block, rate_nats)
            - noma.solve_min_power(PARAMS, block, rate_nats).total)


def test_closed_form_frozen_case():
    sol = noma.solve_min_power(PARAMS, ORDERED, 1.0).row(0)
    assert np.isclose(sol.x_star, NOMA_X, rtol=1e-13), f"x {sol.x_star}"
    assert np.isclose(sol.powers[0], NOMA_P1, rtol=1e-12)
    assert np.isclose(sol.powers[1], NOMA_P2, rtol=1e-12)
    assert np.isclose(sol.total, NOMA_TOTAL, rtol=1e-12)
    assert sol.sic_user == 1
    assert np.isclose(sol.rates.strong, 1.0, rtol=0, atol=1e-12)
    assert np.isclose(sol.rates.weak, 1.0, rtol=0, atol=1e-12)
    assert np.isclose(sol.rates.sic, NOMA_SIC_RATE, rtol=1e-12)


def strong_user_margin(layout: LayoutBlock, rate_nats: float) -> float:
    """Strong-user condition at the closed-form placement, grouped form.

    Equals (x* - x_1)^2 + y_1^2 - (x* - x_2)^2 - y_2^2 with the closed-form
    x* substituted and the squared-offset difference factored:
    (x_2 - x_1)^2 / (e^R + 1)^2 * (1 - e^{2R}) + y_1^2 - y_2^2.  Nonpositive
    means the decoder stays the stronger receiver, which holds at every
    positive target when user 1 is the one closer to the waveguide.
    """
    (x1, y1), (x2, y2) = one_pair(layout)
    growth = math.exp(rate_nats)
    sep = x2 - x1
    return sep * sep / ((growth + 1.0) ** 2) * (1.0 - growth * growth) + y1 * y1 - y2 * y2


def test_margin_frozen_and_grouped_form_agrees():
    sol = noma.solve_min_power(PARAMS, ORDERED, 1.0).row(0)
    checks = check_solution(PARAMS, ORDERED, sol)
    assert checks.all_ok
    assert np.isclose(checks.sic_distance_margin, NOMA_MARGIN, rtol=1e-12)
    grouped = strong_user_margin(ORDERED, 1.0)
    assert np.isclose(grouped, NOMA_MARGIN, rtol=1e-12), f"grouped {grouped}"


def test_gap_frozen_case():
    assert np.isclose(_noma_savings(ORDERED, 1.0)[0], NOMA_GAP, rtol=1e-12)


def test_placement_weighting_identity():
    # e^R = 2 turns the placement into a 2:1 interior division point
    lay = _one(((0.0, 1.0), (10.0, 4.0)))
    sol = noma.solve_min_power(PARAMS, lay, math.log(2.0)).row(0)
    assert np.isclose(sol.x_star, 10.0 / 3.0, rtol=1e-15)


def test_rates_meet_target_exactly():
    gen = rng.stream(44, rng.DOMAIN_TESTS, 40)
    for _ in range(200):
        ys = np.sort(np.abs(gen.uniform(-5, 5, 2)))
        lay = _one((
            (float(gen.uniform(-20, 20)), float(ys[0] * np.sign(gen.uniform(-1, 1)))),
            (float(gen.uniform(-20, 20)), float(ys[1] * np.sign(gen.uniform(-1, 1)))),
        ))
        rate = float(gen.uniform(0.5, 3.0))
        sol = noma.solve_min_power(PARAMS, lay, rate).row(0)
        tol = 1e-9 * max(1.0, rate)
        assert abs(sol.rates.strong - rate) <= tol
        assert abs(sol.rates.weak - rate) <= tol
        assert sol.rates.sic >= rate - tol  # SIC never binds at or above half a nat
        assert lay.xs.min() - 1e-12 <= sol.x_star <= lay.xs.max() + 1e-12
        assert check_solution(PARAMS, lay, sol).all_ok


def test_users_with_the_same_x_keep_the_placement_between_them():
    # the weighted mean (x2 + e^R x1) / (e^R + 1) rounds one ulp above 0.1 here
    lay = _one(((0.1, 1.0), (0.1, -2.0)))
    sol = noma.solve_min_power(PARAMS, lay, math.log(2.0)).row(0)
    assert sol.x_star == 0.1
    assert check_solution(PARAMS, lay, sol).all_ok


def test_closed_form_matches_search():
    gen = rng.stream(44, rng.DOMAIN_TESTS, 41)
    for rate in (0.5, 1.0, 2.0):
        for _ in range(15):
            ys = np.sort(np.abs(gen.uniform(-5, 5, 2)))
            lay = _one((
                (float(gen.uniform(-20, 20)), float(ys[0])),
                (float(gen.uniform(-20, 20)), float(ys[1])),
            ))
            closed = noma.solve_min_power(PARAMS, lay, rate).row(0)
            search = solve_min_power_search(PARAMS, lay, rate, SEARCH_GRID)
            rel = abs(closed.total - search.total) / search.total
            assert rel <= 1e-6, f"R={rate}: closed {closed.total} vs search {search.total}"


def test_closed_form_is_optimal_below_half_a_nat():
    # the lower-bound argument in solve_min_power's docstring holds at every positive target
    gen = rng.stream(44, rng.DOMAIN_TESTS, 43)
    grid = certification_grid(-PARAMS.half_length, PARAMS.half_length)
    for rate in (0.005, 0.05, 0.2, 0.45):
        for near_equal_y in (False, True):
            for _ in range(5):
                ys = np.sort(np.abs(gen.uniform(-5, 5, 2)))
                if near_equal_y:
                    ys[1] = ys[0] * (1.0 + 1e-6)
                lay = _one((
                    (float(gen.uniform(-20, 20)), float(ys[0])),
                    (float(gen.uniform(-20, 20)), float(ys[1])),
                ))
                closed = noma.solve_min_power(PARAMS, lay, rate).row(0)
                search = solve_min_power_search(PARAMS, lay, rate, grid)
                gap = certify.relative_gap(closed.total, search.total)
                assert abs(gap) <= certify.CERT_REL, f"R={rate} {one_pair(lay)}: gap {gap}"
                assert closed.rates.sic >= rate - 1e-9


def test_unordered_pair_mirrors_the_ordered_solution():
    # the solver picks the user closer to the waveguide as the decoder itself
    gen = rng.stream(44, rng.DOMAIN_TESTS, 44)
    for rate in (0.05, 0.5, 1.0, 3.0):
        for _ in range(50):
            ys = np.sort(np.abs(gen.uniform(-5, 5, 2))) * np.sign(gen.uniform(-1, 1, 2))
            users = ((float(gen.uniform(-20, 20)), float(ys[0])), (float(gen.uniform(-20, 20)), float(ys[1])))
            ordered, mirrored = _one(users), _one(users[::-1])
            want, got = (noma.solve_min_power(PARAMS, lay, rate).row(0) for lay in (ordered, mirrored))
            assert (want.sic_user, got.sic_user) == (1, 2)
            assert (got.x_star, got.total, got.rates) == (want.x_star, want.total, want.rates)
            assert got.powers == want.powers[::-1]
            assert check_solution(PARAMS, mirrored, got) == check_solution(PARAMS, ordered, want)
    # equal |y| keeps user 1 as the decoder, whatever the signs
    for y1, y2 in ((2.0, -2.0), (-2.0, 2.0), (0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)):
        tie = _one(((1.0, y1), (5.0, y2)))
        assert noma.solve_min_power(PARAMS, tie, 1.0).row(0).sic_user == 1


def test_non_pairs_rejected():
    with pytest.raises(DomainError):
        noma.solve_min_power(PARAMS, _one(((0.0, 0.0),)), 1.0)
    with pytest.raises(DomainError):
        solve_min_power_search(PARAMS, _one(((0.0, 0.0),)), 1.0, SEARCH_GRID)
    with pytest.raises(ValueError):
        noma.solve_min_power(PARAMS, ORDERED, 0.0)


@pytest.mark.parametrize("bad, error, message", [
    (0.0, ValueError, "rate target must be positive, got 0.0"),
    (-0.0, ValueError, "rate target must be positive, got -0.0"),
    (-0.25, ValueError, "rate target must be nonnegative, got -0.25"),
    pytest.param(math.nan, ValueError, "rate target must be nonnegative, got nan", id="nan-ValueError"),
])
def test_a_bad_rate_target_is_refused_once_with_its_message(bad, error, message):
    block = LayoutBlock.from_layouts([((0.0, 1.0), (10.0, 4.0)), ((-3.0, -2.5), (7.0, 0.5)), ((1.0, 0.0), (1.0, 0.0))])
    for rates in (bad, np.array([1.0, bad, 0.5])):
        with pytest.raises(error) as caught:
            noma.solve_min_power(PARAMS, block, rates)
        assert type(caught.value) is error and str(caught.value) == message
    for entries in (2, 4):
        with pytest.raises(ValueError) as caught:
            noma.solve_min_power(PARAMS, block, np.full(entries, 1.0))
        assert str(caught.value) == f"rate target must be a float or a (3,) column, got shape ({entries},)"


def test_min_powers_at_covers_both_constraints():
    # the direct user's power must survive both its own decode and the
    # decoder's decode of it, whichever distance is worse
    for decoder in (0, 1):
        (p_dec,), (p_dir,) = noma.min_powers_at(PARAMS, ORDERED, 1.0, 3.0, decoder)
        assert p_dec > 0 and p_dir > 0
        assert p_dir > math.expm1(1.0) * p_dec  # interference stacking
    with pytest.raises(ValueError):
        noma.min_powers_at(PARAMS, ORDERED, 1.0, 3.0, 2)


def test_gap_positive_at_high_rate():
    gen = rng.stream(44, rng.DOMAIN_TESTS, 42)
    layouts = []
    for _ in range(200):
        ys = np.sort(np.abs(gen.uniform(-5, 5, 2)))
        layouts.append(((float(gen.uniform(-20, 20)), float(ys[0])), (float(gen.uniform(-20, 20)), float(ys[1]))))
    assert (_noma_savings(LayoutBlock.from_layouts(layouts), 3.0) > 0.0).all()


def test_colocated_centre_users_need_half_the_oma_power():
    lay = _one(((0.0, 1.7), (0.0, 1.7)))
    rate = 1.0
    noma_total = noma.solve_min_power(PARAMS, lay, rate).row(0).total
    coeff2 = min_power_terms(PARAMS, lay, rate, slots=2).coeff
    tau = 1.7 ** 2 + PARAMS.height_m ** 2
    oma_total = coeff2 * tau * 2.0
    assert np.isclose(noma_total / oma_total, 0.5, rtol=1e-12), (
        f"ratio {noma_total / oma_total}"
    )


def test_search_maps_powers_back_to_layout_order():
    # force decoder = user 2 by putting user 1 far out on the waveguide axis
    lay = _one(((-18.0, 4.9), (0.0, 0.1)))
    search = solve_min_power_search(PARAMS, lay, 1.0, SEARCH_GRID)
    assert search.sic_user in (1, 2)
    assert len(search.powers) == 2 and all(p > 0 for p in search.powers)
    assert np.isclose(sum(search.powers), search.total, rtol=1e-15)


def test_broken_invariants_raise_certification_error(monkeypatch):
    real_rates = noma.noma_rates
    with monkeypatch.context() as m:
        m.setattr(noma, "noma_rates", lambda *a, **k: NomaRates(strong=0.0, weak=0.0, sic=0.0))
        with pytest.raises(CertificationError, match="own rates equal the target"):
            noma.solve_min_power(PARAMS, ORDERED, 1.0)
    with monkeypatch.context() as m:
        m.setattr(noma, "noma_rates", lambda *a, **k: real_rates(*a, **k)._replace(sic=0.0))
        with pytest.raises(CertificationError, match="SIC decode rate"):
            noma.solve_min_power(PARAMS, ORDERED, 1.0)
    with monkeypatch.context() as m:
        m.setattr(noma, "min_power_terms",
                  lambda *a, **k: MinPowerTerms(coeff=0.0, xs=(0.0, 10.0), floors=(-1e-30, -1e-30)))
        with pytest.raises(CertificationError, match="powers are nonnegative"):
            noma.solve_min_power(PARAMS, ORDERED, 1.0)
