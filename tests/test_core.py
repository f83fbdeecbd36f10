"""Channel model, geometry and unit conversions."""

import math

import numpy as np
import pytest

from pinchplace import core, rng
from pinchplace.core import (
    LayoutBlock,
    SystemParams,
    bpcu_to_nats,
    dbm_to_watt,
    min_power_terms,
    nats_to_bpcu,
    noma_rates,
    oma_rate,
    path_gain,
    squared_distance,
    watt_to_dbm,
)
from pinchplace.errors import DomainError

PARAMS = SystemParams.default()

# frozen against a 50-digit reference computation
ETA_28GHZ = 7.259481705540116e-07


def test_path_gain_frozen():
    got = path_gain(PARAMS)
    assert np.isclose(got, ETA_28GHZ, rtol=1e-12), f"eta {got} != {ETA_28GHZ}"


def test_path_gain_scales_inverse_square_in_frequency():
    p2 = SystemParams(56e9, 1e-12, 3.0, 40.0, 10.0)
    assert np.isclose(path_gain(PARAMS) / path_gain(p2), 4.0, rtol=1e-12)


def test_path_gain_formula_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    want = float((mp.mpf("2.99792458e8") / (4 * mp.pi * mp.mpf("28e9"))) ** 2)
    assert np.isclose(path_gain(PARAMS), want, rtol=1e-14)


def test_default_params_values():
    assert PARAMS.carrier_hz == 28e9
    assert PARAMS.noise_w == 1e-12
    assert (PARAMS.height_m, PARAMS.length_m, PARAMS.width_m) == (3.0, 40.0, 10.0)
    assert PARAMS.half_length == 20.0 and PARAMS.half_width == 5.0


@pytest.mark.parametrize("field", ["carrier_hz", "noise_w", "height_m", "length_m", "width_m"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_params_reject_nonpositive(field, bad):
    kwargs = dict(carrier_hz=28e9, noise_w=1e-12, height_m=3.0, length_m=40.0, width_m=10.0)
    kwargs[field] = bad
    with pytest.raises(ValueError):
        SystemParams(**kwargs)


def test_layout_construction_and_views():
    block = LayoutBlock.from_layouts([[[-1, 2], (3.5, -4)], ((0, 0.5), [7, 1])])
    assert (len(block), block.num_users) == (2, 2)
    assert block.xs.dtype == float and block.xs.flags.c_contiguous
    assert np.array_equal(block.xs, [[-1.0, 3.5], [0.0, 7.0]])
    assert np.array_equal(block.ys, [[2.0, -4.0], [0.5, 1.0]])
    # a slice of rows is a block of its own; block[i:i + 1] is layout i alone
    second = block[1:2]
    assert isinstance(second, LayoutBlock) and len(second) == 1
    assert np.array_equal(second.xs, [[0.0, 7.0]]) and np.array_equal(second.ys, [[0.5, 1.0]])
    assert np.array_equal(block[::-1].xs, block.xs[::-1]) and block[::-1].xs.flags.c_contiguous
    assert len(block[2:]) == 0


@pytest.mark.parametrize("layouts", [
    [],                                  # no layouts
    [[]],                                # no users
    [[(0.0, 1.0)], [(0.0, 1.0), (2.0, 3.0)]],  # ragged
    [[(0.0, 1.0, 2.0)]],                 # not a pair
    [[(0.0,)]],
    [[0.0, 1.0]],                        # users that are not sequences
    [None],
    [[("x", 1.0)]],
])
def test_layout_block_from_layouts_rejects_malformed_input(layouts):
    with pytest.raises(ValueError, match="from_layouts"):
        LayoutBlock.from_layouts(layouts)


def test_layout_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        LayoutBlock.from_layouts([[]])
    # a block holds any float; validate refuses a non-finite user as outside the area
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="outside"):
            LayoutBlock.from_layouts([[(0.0, 1.0), (bad, 0.0)]]).validate(PARAMS)
        with pytest.raises(ValueError, match="outside"):
            LayoutBlock.from_layouts([[(0.0, bad)]]).validate(PARAMS)


def test_layout_validate_bounds():
    LayoutBlock.from_layouts([[(20.0, 5.0), (-20.0, -5.0)]]).validate(PARAMS)  # corners are legal
    with pytest.raises(ValueError, match="outside"):
        LayoutBlock.from_layouts([[(20.1, 0.0)]]).validate(PARAMS)
    with pytest.raises(ValueError, match="outside"):
        LayoutBlock.from_layouts([[(0.0, -5.2)]]).validate(PARAMS)
    with pytest.raises(ValueError, match=r"user 2 at \(0.0, -5.2\)"):  # the first bad user, row by row
        LayoutBlock.from_layouts([[(0.0, 0.0), (0.0, 0.0)], [(0.0, 0.0), (0.0, -5.2)]]).validate(PARAMS)


def test_one_row_and_one_pair_refuse_other_shapes():
    block = LayoutBlock.from_layouts([[(-1.0, 2.0), (3.5, -4.0)], [(0.0, 0.5), (7.0, 1.0)]])
    one = block[1:2]
    assert core.one_row(one) is one
    assert core.one_pair(block[1:2]) == ((0.0, 0.5), (7.0, 1.0))
    for rows in (block, block[:0]):
        with pytest.raises(DomainError, match="one-row block"):
            core.one_row(rows)
        with pytest.raises(DomainError, match="one-row block"):
            core.one_pair(rows)
    with pytest.raises(DomainError, match="exactly 2 users"):
        core.one_pair(LayoutBlock.from_layouts([[(0.0, 0.0)]]))


def test_squared_distance_scalar_and_broadcast():
    assert squared_distance(1.0, 2.0, 4.0, 3.0) == 9.0 + 4.0 + 9.0
    xs = np.array([0.0, 1.0, 2.0])
    got = squared_distance(1.0, 2.0, xs, 3.0)
    assert np.allclose(got, (xs - 1.0) ** 2 + 4.0 + 9.0)
    # user arrays against scalar antenna position
    got2 = squared_distance(np.array([0.0, 1.0]), np.array([2.0, -2.0]), 0.5, 3.0)
    assert got2.shape == (2,)


# frozen: per-user OMA rate at P = 1 mW, tau = 9 m^2, M = 2
OMA_RATE_CASE = 2.201287701568592


def test_oma_rate_frozen():
    got = oma_rate(PARAMS, 1e-3, 9.0, 2)
    assert np.isclose(got, OMA_RATE_CASE, rtol=1e-12), f"rate {got}"


def test_oma_rate_rejects_bad_user_count():
    with pytest.raises(ValueError):
        oma_rate(PARAMS, 1e-3, 9.0, 0)


# frozen: both powers 1 mW, strong at tau = 9, weak at tau = 25
NOMA_RATES_CASE = (4.402575403137184, 0.6763614625425836, 0.6870054781154321)


def test_noma_rates_frozen():
    got = noma_rates(PARAMS, 1e-3, 1e-3, 9.0, 25.0)
    for name, g, w in zip(("strong", "weak", "sic"), got, NOMA_RATES_CASE):
        assert np.isclose(g, w, rtol=1e-12), f"{name}: {g} != {w}"


def test_noma_sic_rate_beats_weak_rate_when_closer():
    # same interference power but measured at the shorter distance
    r = noma_rates(PARAMS, 2e-4, 7e-4, 4.0, 100.0)
    assert r.sic > r.weak


def test_min_power_terms_inverts_the_rate_formula():
    gen = rng.stream(99, rng.DOMAIN_TESTS, 1)
    for _ in range(200):
        m = int(gen.integers(1, 6))
        users = list(zip(gen.uniform(-20, 20, m).tolist(), gen.uniform(-5, 5, m).tolist()))
        rate = float(gen.uniform(0.05, 3.0))
        slots = int(gen.integers(1, 5))
        terms = min_power_terms(PARAMS, LayoutBlock.from_layouts([users]), rate, slots)
        x_ant = float(gen.uniform(-20, 20))
        for (ux, uy), floor in zip(users, terms.floors[0]):
            p = terms.coeff * (x_ant - ux) ** 2 + floor
            tau = squared_distance(ux, uy, x_ant, PARAMS.height_m)
            back = oma_rate(PARAMS, p, tau, slots)
            assert np.isclose(back, rate, rtol=1e-12), f"rate {back} != {rate}"


def test_min_power_terms_frozen_coefficients():
    lay = LayoutBlock.from_layouts([[(0.0, 0.0)]])
    # slots = 3 at R = 1.25 nats, and slots = 2 at R = 2.5 BPCU
    assert np.isclose(min_power_terms(PARAMS, lay, 1.25, 3).coeff,
                      5.7195656224845545e-05, rtol=1e-12)
    assert np.isclose(min_power_terms(PARAMS, lay, bpcu_to_nats(2.5), 2).coeff,
                      4.270277308687502e-05, rtol=1e-12)


def test_min_power_terms_rejects_bad_inputs():
    lay = LayoutBlock.from_layouts([[(0.0, 0.0)]])
    with pytest.raises(ValueError):
        min_power_terms(PARAMS, lay, -0.1, 2)
    with pytest.raises(ValueError):
        min_power_terms(PARAMS, lay, 1.0, 0)


def test_dbm_watt_conversions():
    assert np.isclose(dbm_to_watt(0.0), 1e-3, rtol=1e-15)
    assert np.isclose(dbm_to_watt(30.0), 1.0, rtol=1e-15)
    assert np.isclose(dbm_to_watt(-90.0), 1e-12, rtol=1e-15)
    gen = rng.stream(99, rng.DOMAIN_TESTS, 2)
    for dbm in gen.uniform(-100, 60, 100):
        assert np.isclose(watt_to_dbm(dbm_to_watt(dbm)), dbm, rtol=0, atol=1e-10)
    with pytest.raises(ValueError):
        watt_to_dbm(0.0)


def test_rate_unit_conversions():
    assert np.isclose(bpcu_to_nats(1.0), math.log(2.0), rtol=1e-15)
    gen = rng.stream(99, rng.DOMAIN_TESTS, 3)
    for bpcu in gen.uniform(0.01, 20, 100):
        assert np.isclose(nats_to_bpcu(bpcu_to_nats(bpcu)), bpcu, rtol=1e-15)


def test_exponential_identity_between_unit_systems():
    # e^(M * R_nats) must equal 2^(M * R_bpcu); this is what makes the
    # internal nats-only convention safe at the CLI boundary
    for bpcu in (0.5, 1.0, 2.5, 4.0):
        for m in (1, 2, 5):
            lhs = math.exp(m * bpcu_to_nats(bpcu))
            assert np.isclose(lhs, 2.0 ** (m * bpcu), rtol=1e-12)


def test_speed_of_light_constant():
    assert core.SPEED_OF_LIGHT == 2.99792458e8
