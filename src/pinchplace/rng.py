"""Counter-based random streams for reproducible, order-independent Monte Carlo.

Every stream is a Philox generator whose 128-bit key combines the user's
64-bit master seed with a domain tag, and whose 256-bit counter embeds up to
two path indices in the high words:

    key     = (seed << 64) | domain
    counter = (index_a << 192) + (index_b << 128)

The low 128 counter bits are left for the stream's own draws, so any draw is
a pure function of (seed, domain, index_a, index_b, position).  Trials can be
generated in blocks, in any order, on any number of workers, and the numbers
never change.
"""

from __future__ import annotations

import math

import numpy as np

DOMAIN_LAYOUTS = 1
DOMAIN_OUTAGE = 2
DOMAIN_TESTS = 3

_U64 = 1 << 64

# Counter blocks (four draws each) that one pass of the Philox kernel computes.
# Its dozen live (2, blocks) uint64 temporaries then take about 1.5 MB, which
# stays in cache: on a host with 2 MB of L2 per core, passes of 8192 blocks drew
# 18000 streams up to 2x faster than passes of 16384 or 65536.
PASS_BLOCKS = 1 << 13

# Philox4x64-10 (Salmon et al., SC'11, as numpy implements it): the multipliers
# of counter words 0 and 2, and the Weyl increments of the two key words.
_MULTIPLIERS = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_MUL_LO, _MUL_HI = _MULTIPLIERS & np.uint64(0xFFFFFFFF), _MULTIPLIERS >> np.uint64(32)
_KEY_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_LO32, _BITS32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def stream(seed: int, domain: int, index_a: int = 0, index_b: int = 0) -> np.random.Generator:
    """Generator for one (seed, domain, index_a, index_b) cell."""
    if not (0 <= seed < _U64):
        raise ValueError(f"seed must fit in 64 bits, got {seed!r}")
    if not (0 <= domain < _U64):
        raise ValueError(f"domain must fit in 64 bits, got {domain!r}")
    if not (0 <= index_a < _U64 and 0 <= index_b < _U64):
        # a larger index_b would carry into index_a's counter word and repeat another cell's stream
        raise ValueError(f"stream indices must fit in 64 bits, got {index_a!r} and {index_b!r}")
    key = (seed << 64) | domain
    counter = (index_a << 192) + (index_b << 128)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def rows_per_pass(draws: int) -> int:
    """Streams whose first `draws` draws one kernel pass computes (at least 1)."""
    return max(1, PASS_BLOCKS // max(1, -(-draws // 4)))


def _indices(values) -> np.ndarray:
    """values (an int, a range, a sequence or an integer array) as uint64 words, each checked to fit."""
    if isinstance(values, np.ndarray) and values.dtype.kind != "u":
        if values.dtype.kind != "i" or (values.size and values.min() < 0):
            raise ValueError(f"stream indices must be integers in [0, 2**64), got {values!r}")
    try:
        return np.asarray(values, dtype=np.uint64)
    except OverflowError as exc:
        raise ValueError(f"stream indices must fit in 64 bits, got {values!r}") from exc


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of _MULTIPLIERS * x; the high word from 32-bit limbs (Hacker's Delight 8-2)."""
    x_lo, x_hi = x & _LO32, x >> _BITS32
    t = _MUL_HI * x_lo
    t += _MUL_LO * x_lo >> _BITS32
    mid = _MUL_LO * x_hi
    mid += t & _LO32
    hi = _MUL_HI * x_hi
    hi += t >> _BITS32
    hi += mid >> _BITS32
    return hi, _MULTIPLIERS * x


def _round_keys(key: np.ndarray) -> np.ndarray:
    """The ten round keys (k0, k1) of a Philox4x64-10 key (k0, k1), shape (10, 2, 1, 1)."""
    k0, k1 = int(key[0]), int(key[1])
    keys = []
    for _ in range(_ROUNDS):
        keys.append((k0, k1))
        k0, k1 = (k0 + _KEY_BUMPS[0]) % _U64, (k1 + _KEY_BUMPS[1]) % _U64
    return np.array(keys, dtype=np.uint64).reshape(_ROUNDS, 2, 1, 1)


def _philox_words(round_keys: np.ndarray, index_a: np.ndarray, index_b: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 * blocks output words of each row's stream, shape (rows, 4 * blocks).

    numpy's Philox increments the counter before computing a block, so
    output block j of the stream (index_a, index_b) is the Philox4x64-10
    permutation of the counter words (j + 1, 0, index_b, index_a).
    """
    rows = len(index_b)
    # (c0, c2), the words each round multiplies, and (c1, c3), the words it xors in
    mult = np.empty((2, rows, blocks), np.uint64)
    mult[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    mult[1] = index_b[:, None]
    xor = np.zeros((2, rows, blocks), np.uint64)
    xor[1] = index_a[:, None]
    for key in round_keys:
        hi, lo = _mulhilo(mult)
        # (c0, c1, c2, c3) <- (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))
        mult, xor = hi[::-1] ^ xor ^ key, lo[::-1]
    return np.stack([mult[0], xor[0], mult[1], xor[1]], axis=-1).reshape(rows, 4 * blocks)


class TrialStreams:
    """The streams (seed, domain, index_a[i], trials[i]) of a set of rows, drawn as one block.

    index_a and trials are ints, ranges or integer arrays, broadcast against
    each other into one row each: a sweep point's trials share one index_a,
    and several points' trials can be drawn together.  random(shape) returns
    an array of shape (rows, *shape) whose row i is
    stream(seed, domain, index_a[i], trials[i]).random(shape), bit for bit.
    A vectorised Philox4x64-10 computes every row's counter blocks at once,
    PASS_BLOCKS blocks per pass.  Every call draws from the start of each
    row's stream.
    """

    def __init__(self, seed: int, domain: int, index_a, trials) -> None:
        self.index_a, self.trials = np.broadcast_arrays(np.atleast_1d(_indices(index_a)),
                                                        np.atleast_1d(_indices(trials)))
        if self.trials.ndim != 1:
            raise ValueError(f"TrialStreams takes one row per index, got shape {self.trials.shape}")
        # the key words (domain, seed), as numpy's Philox lays out stream()'s key
        self._round_keys = _round_keys(stream(seed, domain).bit_generator.state["state"]["key"])

    def __len__(self) -> int:
        return len(self.trials)

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        draws = math.prod(shape)
        out = np.empty((len(self), draws))
        step = rows_per_pass(draws)
        for start in range(0, len(self), step):
            rows = slice(start, start + step)
            words = _philox_words(self._round_keys, self.index_a[rows], self.trials[rows], -(-draws // 4))
            # numpy's next_double: the top 53 bits of a word, times 2**-53
            out[rows] = (words[:, :draws] >> np.uint64(11)) * 2.0**-53
        return out.reshape(len(self), *shape)
