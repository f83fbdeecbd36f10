"""Counter-based stream derivation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplace import rng

U64_MAX = 2**64 - 1


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


def _one_stream_per_row(seed, domain, index_a, trials, shape):
    return np.stack([rng.stream(seed, domain, int(a), int(b)).random(shape) for a, b in zip(index_a, trials)])


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
@pytest.mark.parametrize("num_users", [1, 2, 5, 8])
def test_trial_streams_equal_one_stream_per_trial(seed, num_users):
    for domain in (rng.DOMAIN_LAYOUTS, U64_MAX):
        for index_a, trials in ((0, range(0, 12)), (3, range(5, 17)), (2**40, range(2**40 - 3, 2**40 + 3)),
                                (7, range(2**40, 2**40 + 2)), (U64_MAX, range(U64_MAX - 2, 2**64))):
            got = rng.TrialStreams(seed, domain, index_a, trials).random((2, num_users))
            assert got.shape == (len(trials), 2, num_users)
            assert np.array_equal(got, _one_stream_per_trial(seed, domain, index_a, trials, (2, num_users)))


@pytest.mark.parametrize("shape", [(2, 1), (3,), (2, 5), (1,), ()])
def test_trial_streams_draw_counts_not_a_multiple_of_four(shape):
    got = rng.TrialStreams(5, rng.DOMAIN_TESTS, 9, range(7)).random(shape)
    assert got.shape == (7, *shape)
    assert np.array_equal(got, _one_stream_per_trial(5, rng.DOMAIN_TESTS, 9, range(7), shape))


def test_trial_streams_rows_may_mix_index_a():
    index_a = np.array([0, 0, 4, U64_MAX, 4, 2**63, 1], dtype=np.uint64)
    trials = np.array([3, 0, 3, U64_MAX, 0, 5, 3], dtype=np.uint64)
    got = rng.TrialStreams(8, rng.DOMAIN_LAYOUTS, index_a, trials).random((2, 3))
    assert np.array_equal(got, _one_stream_per_row(8, rng.DOMAIN_LAYOUTS, index_a, trials, (2, 3)))
    # a sweep point's block is the same wherever its rows sit
    alone = rng.TrialStreams(8, rng.DOMAIN_LAYOUTS, 4, [3, 0]).random((2, 3))
    assert np.array_equal(got[[2, 4]], alone)


@pytest.mark.parametrize("num_users", [2, 8])
def test_trial_streams_larger_than_one_pass(num_users, monkeypatch):
    monkeypatch.setattr(rng, "PASS_BLOCKS", 5)  # passes of 1 row at M = 8, of 5, 5 and 2 rows at M = 2
    index_a, trials = np.repeat(np.arange(3), 4), np.tile(np.arange(4), 3)
    got = rng.TrialStreams(2, rng.DOMAIN_LAYOUTS, index_a, trials).random((2, num_users))
    assert np.array_equal(got, _one_stream_per_row(2, rng.DOMAIN_LAYOUTS, index_a, trials, (2, num_users)))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, U64_MAX), domain=st.integers(0, U64_MAX), index_a=st.integers(0, U64_MAX),
       trial=st.integers(0, U64_MAX), n=st.integers(0, 40))
def test_trial_streams_match_stream_property(seed, domain, index_a, trial, n):
    got = rng.TrialStreams(seed, domain, index_a, trial).random((n,))
    assert np.array_equal(got, rng.stream(seed, domain, index_a, trial).random((1, n)))


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
    for index_a, trials in ((-1, 0), (2**64, 0), (np.array([0, -1]), 0), (0, np.array([1.0])),
                            ([0, 2**64], [0, 1])):
        with pytest.raises(ValueError):
            rng.TrialStreams(0, rng.DOMAIN_LAYOUTS, index_a, trials)
    with pytest.raises(ValueError):
        rng.TrialStreams(0, 2**64, 0, range(2))  # the key is checked by rng.stream
    assert rng.TrialStreams(0, rng.DOMAIN_LAYOUTS, 0, range(0)).random((2, 2)).shape == (0, 2, 2)
    assert rng.TrialStreams(0, rng.DOMAIN_LAYOUTS, [], []).random((3,)).shape == (0, 3)
    assert rng.TrialStreams(0, rng.DOMAIN_LAYOUTS, 0, range(4)).random((2, 0)).shape == (4, 2, 0)
