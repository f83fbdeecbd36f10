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

import numpy as np

DOMAIN_LAYOUTS = 1
DOMAIN_OUTAGE = 2
DOMAIN_TESTS = 3

_U64 = 1 << 64


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


class TrialStreams:
    """The streams (seed, domain, index_a, t) of every trial t in a range, drawn as one block.

    random(shape) returns an array of shape (len(trials), *shape) whose row i
    is stream(seed, domain, index_a, trials[i]).random(shape), bit for bit.
    One generator serves every row: before each row it is given the state of
    a fresh stream for that trial (counter at the trial's cell, empty output
    buffer), which costs a fraction of building one.  Every call draws from
    the start of each trial's stream.
    """

    def __init__(self, seed: int, domain: int, index_a: int, trials: range) -> None:
        if trials and not (0 <= min(trials) and max(trials) < _U64):
            raise ValueError(f"trial indices must fit in 64 bits, got {trials!r}")
        self.trials = trials
        self._generator = stream(seed, domain, index_a, 0)
        self._fresh = self._generator.bit_generator.state  # before any draw: an empty output buffer

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        bits, state = self._generator.bit_generator, self._fresh
        counter = state["state"]["counter"]  # four 64-bit words, least significant first
        out = np.empty((len(self.trials), *shape))
        for row, trial in enumerate(self.trials):
            counter[2] = trial  # the index_b word of stream()'s counter
            bits.state = state
            self._generator.random(shape, out=out[row])
        return out
