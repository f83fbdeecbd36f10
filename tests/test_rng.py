"""Counter-based stream derivation."""

import numpy as np
import pytest

from pinchplace import rng


def test_same_cell_is_deterministic():
    a = rng.stream(42, rng.DOMAIN_LAYOUTS, 3, 7).random(64)
    b = rng.stream(42, rng.DOMAIN_LAYOUTS, 3, 7).random(64)
    assert np.array_equal(a, b)


def test_distinct_cells_differ():
    base = rng.stream(42, rng.DOMAIN_LAYOUTS, 3, 7).random(8)
    for cell in ((43, rng.DOMAIN_LAYOUTS, 3, 7),
                 (42, rng.DOMAIN_OUTAGE, 3, 7),
                 (42, rng.DOMAIN_LAYOUTS, 4, 7),
                 (42, rng.DOMAIN_LAYOUTS, 3, 8)):
        other = rng.stream(*cell).random(8)
        assert not np.array_equal(base, other), f"cell {cell} collided"


def test_draw_order_does_not_leak_between_streams():
    # consuming one stream must not shift another
    g1 = rng.stream(7, rng.DOMAIN_TESTS, 0)
    g1.random(1000)
    fresh = rng.stream(7, rng.DOMAIN_TESTS, 1).random(16)
    alone = rng.stream(7, rng.DOMAIN_TESTS, 1).random(16)
    assert np.array_equal(fresh, alone)


def test_draws_are_unit_interval():
    draws = rng.stream(0, rng.DOMAIN_TESTS).random(10000)
    assert draws.min() >= 0.0 and draws.max() < 1.0


def test_extreme_indices_and_seeds_work():
    rng.stream(2**64 - 1, 2**64 - 1, 2**62, 2**62).random(4)


@pytest.mark.parametrize("bad", [(-1, 1, 0, 0), (2**64, 1, 0, 0), (0, -1, 0, 0),
                                 (0, 2**64, 0, 0), (0, 1, -1, 0), (0, 1, 0, -1),
                                 (0, 1, 2**64, 0), (0, 1, 0, 2**64)])
def test_bad_cells_rejected(bad):
    with pytest.raises(ValueError):
        rng.stream(*bad)


def test_domains_are_distinct_constants():
    domains = {rng.DOMAIN_LAYOUTS, rng.DOMAIN_OUTAGE, rng.DOMAIN_TESTS}
    assert len(domains) == 3


def _one_stream_per_trial(seed, domain, index_a, trials, shape):
    return np.stack([rng.stream(seed, domain, index_a, b).random(shape) for b in trials])


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("num_users", [1, 2, 5, 8])
def test_trial_streams_equal_one_stream_per_trial(seed, num_users):
    for index_a, trials in ((0, range(0, 12)), (3, range(5, 17)), (2**40, range(2**40 - 3, 2**40 + 3)),
                            (7, range(2**40, 2**40 + 2))):
        got = rng.TrialStreams(seed, rng.DOMAIN_LAYOUTS, index_a, trials).random((2, num_users))
        assert got.shape == (len(trials), 2, num_users)
        assert np.array_equal(got, _one_stream_per_trial(seed, rng.DOMAIN_LAYOUTS, index_a, trials, (2, num_users)))


def test_consecutive_blocks_share_no_generator_state():
    first = rng.TrialStreams(11, rng.DOMAIN_LAYOUTS, 4, range(0, 6))
    second = rng.TrialStreams(11, rng.DOMAIN_LAYOUTS, 4, range(6, 12))
    fresh = second.random((2, 3))
    first.random((2, 3))
    first.random((2, 5))  # a different draw count leaves its generator mid-buffer
    assert np.array_equal(second.random((2, 3)), fresh)
    assert np.array_equal(first.random((2, 3)), _one_stream_per_trial(11, rng.DOMAIN_LAYOUTS, 4, range(6), (2, 3)))
    assert np.array_equal(fresh, _one_stream_per_trial(11, rng.DOMAIN_LAYOUTS, 4, range(6, 12), (2, 3)))


def test_trial_streams_reject_indices_outside_64_bits():
    with pytest.raises(ValueError):
        rng.TrialStreams(0, rng.DOMAIN_LAYOUTS, 0, range(-1, 2))
    with pytest.raises(ValueError):
        rng.TrialStreams(0, rng.DOMAIN_LAYOUTS, 0, range(2**64 - 1, 2**64 + 1))
    assert rng.TrialStreams(0, rng.DOMAIN_LAYOUTS, 0, range(0)).random((2, 2)).shape == (0, 2, 2)
