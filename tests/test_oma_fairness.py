"""Max-min fairness and total-power minimization for time-shared downlinks.

The solvers take a LayoutBlock; a single layout goes in as a one-row block.
"""

import numpy as np
import pytest

from pinchplace import oma_fairness, rng
from pinchplace.core import LayoutBlock, MinPowerTerms, SystemParams, min_power_terms, oma_rate, squared_distance
from pinchplace.errors import CertificationError
from pinchplace.oracle import GridSpec, grid_optimize

PARAMS = SystemParams.default()
LAYOUT3 = ((-12.5, 3.25), (4.0, -1.5), (9.75, 2.0))

# frozen against a 50-digit reference computation
MAXMIN_X = 0.4166666666666667
MAXMIN_RATE = 1.8194663182991344
MAXMIN_POWERS = (0.06001296755874528, 0.007755941601269927, 0.032231090839984794)
POWERMIN_TOTAL = 0.017765209138671294
POWERMIN_POWERS = (0.010661429197134056, 0.0013778592461388137, 0.005725920695398426)
POWERMIN_CONV = 0.01779499854295507
POWERMIN_SAVING = 2.978940428377372e-05


def _one(users):
    """The one-row block of one layout's (x, y) users."""
    return LayoutBlock.from_layouts([users])


def _random_layout(gen, m):
    return tuple((float(x), float(y)) for x, y in zip(gen.uniform(-20, 20, m), gen.uniform(-5, 5, m)))


def test_max_min_frozen_case():
    sol = oma_fairness.solve_max_min_rate(PARAMS, _one(LAYOUT3), 0.1).row(0)
    assert np.isclose(sol.x_star, MAXMIN_X, rtol=1e-14)
    assert np.isclose(sol.objective, MAXMIN_RATE, rtol=1e-12), f"rate {sol.objective}"
    assert np.allclose(sol.powers, MAXMIN_POWERS, rtol=1e-12)
    assert np.isclose(sum(sol.powers), 0.1, rtol=1e-14)


def test_max_min_rates_are_equalized():
    gen = rng.stream(21, rng.DOMAIN_TESTS, 20)
    for _ in range(150):
        m = int(gen.integers(2, 7))
        lay = _random_layout(gen, m)
        p = float(gen.uniform(1e-4, 10.0))
        sol = oma_fairness.solve_max_min_rate(PARAMS, _one(lay), p).row(0)
        rates = [
            oma_rate(PARAMS, pw, squared_distance(x, y, sol.x_star, PARAMS.height_m), m)
            for pw, (x, y) in zip(sol.powers, lay)
        ]
        assert np.allclose(rates, sol.objective, rtol=1e-12), f"unequal rates {rates}"
        assert np.isclose(sum(sol.powers), p, rtol=1e-12)
        assert np.isclose(sol.x_star, _one(lay).xs.mean(), rtol=0, atol=1e-12)


def test_max_min_beats_centre_antenna():
    gen = rng.stream(21, rng.DOMAIN_TESTS, 21)
    for _ in range(150):
        lay = _random_layout(gen, int(gen.integers(2, 7)))
        p = float(gen.uniform(1e-4, 10.0))
        moved = oma_fairness.solve_max_min_rate(PARAMS, _one(lay), p).row(0).objective
        fixed = oma_fairness.conventional_max_min_rate(PARAMS, _one(lay), p)[0]
        assert moved >= fixed - 1e-15, f"{moved} < {fixed}"


def test_max_min_matches_grid_oracle():
    gen = rng.stream(21, rng.DOMAIN_TESTS, 22)
    spec = GridSpec(lo=-20.0, hi=20.0, points=4001, refine_iters=30)
    for _ in range(25):
        m = int(gen.integers(2, 6))
        lay = _random_layout(gen, m)
        p = float(gen.uniform(1e-3, 10.0))
        sol = oma_fairness.solve_max_min_rate(PARAMS, _one(lay), p).row(0)

        def oracle_rate(xs):
            tau_sum = sum(
                squared_distance(x, y, xs, PARAMS.height_m) for x, y in lay
            )
            snr = 7.259481705540116e-07 * p / (PARAMS.noise_w * tau_sum)
            return np.log1p(snr) / m

        _, best = grid_optimize(oracle_rate, spec, sense="max")
        assert sol.objective >= best - 1e-9 * abs(best), f"{sol.objective} < oracle {best}"


def test_max_min_input_validation():
    with pytest.raises(ValueError):
        oma_fairness.solve_max_min_rate(PARAMS, _one(LAYOUT3), 0.0)
    with pytest.raises(ValueError):
        oma_fairness.solve_max_min_rate(PARAMS, _one(((50.0, 0.0),)), 1.0)
    with pytest.raises(ValueError):
        oma_fairness.conventional_max_min_rate(PARAMS, _one(LAYOUT3), -1.0)


def test_power_min_frozen_case():
    sol = oma_fairness.solve_min_total_power(PARAMS, _one(LAYOUT3), 1.25).row(0)
    assert np.isclose(sol.x_star, MAXMIN_X, rtol=1e-14)  # same mean-point placement
    assert np.isclose(sol.objective, POWERMIN_TOTAL, rtol=1e-12), f"total {sol.objective}"
    assert np.allclose(sol.powers, POWERMIN_POWERS, rtol=1e-12)
    assert np.isclose(oma_fairness.conventional_min_total_power(PARAMS, _one(LAYOUT3), 1.25)[0],
                      POWERMIN_CONV, rtol=1e-12)
    assert np.isclose(oma_fairness.pinching_power_saving(PARAMS, _one(LAYOUT3), 1.25)[0],
                      POWERMIN_SAVING, rtol=1e-12)


def test_power_min_meets_rate_exactly():
    gen = rng.stream(21, rng.DOMAIN_TESTS, 23)
    for _ in range(150):
        m = int(gen.integers(2, 7))
        lay = _random_layout(gen, m)
        rate = float(gen.uniform(0.05, 3.0))
        sol = oma_fairness.solve_min_total_power(PARAMS, _one(lay), rate).row(0)
        for pw, (x, y) in zip(sol.powers, lay):
            tau = squared_distance(x, y, sol.x_star, PARAMS.height_m)
            assert np.isclose(oma_rate(PARAMS, pw, tau, m), rate, rtol=1e-12)


def test_power_min_matches_grid_oracle():
    gen = rng.stream(21, rng.DOMAIN_TESTS, 24)
    spec = GridSpec(lo=-20.0, hi=20.0, points=4001, refine_iters=30)
    for _ in range(25):
        m = int(gen.integers(2, 6))
        lay = _random_layout(gen, m)
        rate = float(gen.uniform(0.05, 3.0))
        sol = oma_fairness.solve_min_total_power(PARAMS, _one(lay), rate).row(0)
        terms = min_power_terms(PARAMS, _one(lay), rate, slots=len(lay))

        def oracle_total(xs):
            return sum(
                terms.coeff * (xs - x) * (xs - x) + fl
                for (x, _), fl in zip(lay, terms.floors[0])
            )

        _, best = grid_optimize(oracle_total, spec, sense="min")
        assert sol.objective <= best + 1e-9 * best, f"{sol.objective} > oracle {best}"


def test_saving_identity_and_sign():
    gen = rng.stream(21, rng.DOMAIN_TESTS, 25)
    for _ in range(300):
        m = int(gen.integers(2, 7))
        lay = _random_layout(gen, m)
        rate = float(gen.uniform(0.05, 3.0))
        saving = oma_fairness.pinching_power_saving(PARAMS, _one(lay), rate)[0]
        conv = oma_fairness.conventional_min_total_power(PARAMS, _one(lay), rate)[0]
        pin = oma_fairness.solve_min_total_power(PARAMS, _one(lay), rate).row(0).objective
        assert saving >= 0.0
        assert abs(saving - (conv - pin)) <= 1e-12 * conv, (
            f"identity broke: {saving} vs {conv - pin}"
        )


def test_saving_vanishes_for_balanced_layouts():
    # mirror-image users put the mean at the centre, so moving buys nothing
    lay = ((-7.5, 2.0), (7.5, -3.0))
    assert oma_fairness.pinching_power_saving(PARAMS, _one(lay), 1.0)[0] == 0.0
    pin = oma_fairness.solve_min_total_power(PARAMS, _one(lay), 1.0).row(0).objective
    conv = oma_fairness.conventional_min_total_power(PARAMS, _one(lay), 1.0)[0]
    assert np.isclose(pin, conv, rtol=1e-15)


def test_single_user_gets_overhead_antenna():
    lay = ((-11.25, 4.0),)
    sol = oma_fairness.solve_min_total_power(PARAMS, _one(lay), 1.0).row(0)
    assert sol.x_star == -11.25
    # only the fixed cross-range offset remains
    terms = min_power_terms(PARAMS, _one(lay), 1.0, slots=len(lay))
    assert np.isclose(sol.objective, terms.floors[0, 0], rtol=1e-15)


def test_broken_invariants_raise_certification_error(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(oma_fairness, "_mean_x", lambda block: np.full(len(block), 100.0))
        with pytest.raises(CertificationError, match="max-min placement lies on the waveguide"):
            oma_fairness.solve_max_min_rate(PARAMS, _one(LAYOUT3), 1.0)
        with pytest.raises(CertificationError, match="power-min placement lies on the waveguide"):
            oma_fairness.solve_min_total_power(PARAMS, _one(LAYOUT3), 1.0)
    with monkeypatch.context() as m:
        m.setattr(oma_fairness, "squared_distance", lambda x, y, xa, h: np.where(x < 0, -1.0, 1.0))
        with pytest.raises(CertificationError, match="max-min powers are nonnegative"):
            oma_fairness.solve_max_min_rate(PARAMS, _one(LAYOUT3), 1.0)
    with monkeypatch.context() as m:
        m.setattr(oma_fairness, "min_power_terms",
                  lambda *a, **k: MinPowerTerms(coeff=1.0, xs=(0.0, 0.0, 0.0), floors=(-5.0, 1.0, 1.0)))
        with pytest.raises(CertificationError, match="power-min powers are nonnegative"):
            oma_fairness.solve_min_total_power(PARAMS, _one(LAYOUT3), 1.0)
