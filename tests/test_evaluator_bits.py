"""Per-layout bits of every per-trial scheme evaluator, pinned by sha256.

The CSV prints 12 significant digits of a trial mean, so a replay of it
cannot see a one-ulp change in a single layout's value (numpy's log1p in
place of the C library's, say, or a pairwise sum in place of the
left-to-right one).  This guard hashes the raw float64 column of each
per-trial scheme on its own axis, seed 0, 200 trials at every sweep point:
M = 2 for every scheme and M = 8 for the four OMA max-min and power-min
schemes.  Each digest is also computed from one evaluator call on the whole
sweep's block, each row given its own point's value, as the experiment engine
calls it, and must come out the same.  The digests were recorded with numpy 2.4.6 on x86_64 Linux with
glibc 2.36's libm; another libm may round a transcendental differently, in
which case the digests must be recorded again on purpose, not edited to pass.
"""

import hashlib

import numpy as np
import pytest

from pinchplace import experiments

TRIALS = 200

DIGESTS = {
    ("noma", 2): "dd54361718809d208ba80fbcdc4b5b695e9516ea20de21c1b166048fecf5c36f",
    ("noma-conv", 2): "e076aaee1aed839b4ea74c2f9dd875344d4d5760c44709376c6e450d729c34fc",
    ("oma-greedy", 2): "e452749a55a16659927cadf911a8e7337070ac2b2243339e33bab16e0a1eed3a",
    ("oma-greedy-conv", 2): "e81b729b3bb6d467ced870a46c218e55b4065dceb6a90efef17f94c6076286ab",
    ("oma-greedy-highsnr", 2): "abf31298cf53a5d038ae3ba84d4901c4567031871355ac6e2a7392a24ed0b7ee",
    ("oma-maxmin", 2): "891ac292eee299beb137acd5ef8cbac1f7e0722ab9edc6eeb21f2e76ff2d674f",
    ("oma-maxmin", 8): "f8093d830bdf084636160d9b459e7d8393fa0557a8ad78ef3f9e3a04af935b56",
    ("oma-maxmin-conv", 2): "737eedd3239b8dc09862449d1282c6c6c93ccb8bacbb65978ef087ae7c92469d",
    ("oma-maxmin-conv", 8): "0bd0e8d3534db1c5a5da89ba0d56502ce367ff0d44d4c0d87340b9b45674bf83",
    ("oma-powermin", 2): "7b3f8911f163b949358f3d9a9d83d18e8fec54e62f895410d5a691d64bb536e2",
    ("oma-powermin", 8): "3519d01edfe3963a7a5b639ac4c44fe38d4f21ee68456c14a89ab628ad3c17e6",
    ("oma-powermin-conv", 2): "4e4fd6fc1ff9d13f7be5455b009d2b85d606563fad34da5e7c9693be96a048bc",
    ("oma-powermin-conv", 8): "9b701785f5119256b2bc1fbbe5027b54d648e558b1a810e770bf4a4f34e4e667",
    ("outage-mc", 2): "90d849c53c8ed82b48f4b68c1c31581a3b41352b205968d868cb7981b620bfe5",
    ("outage-mc-conv", 2): "0817dcd1be42c83e5fcb6b98451ccbcfe265596f1123bdd1ddbc041647f725d6",
}


def _config(name: str, num_users: int) -> experiments.ExperimentConfig:
    spec, _ = experiments.SCHEMES[name]
    return experiments.ExperimentConfig.from_mapping(
        {"schemes": name, "sweep": spec.axis, "users": num_users, "seed": 0, "trials": TRIALS})


def column_digest(name: str, num_users: int) -> str:
    """sha256 of the scheme's float64 metric columns, sweep point after sweep point."""
    _, evaluator = experiments.SCHEMES[name]
    cfg = _config(name, num_users)
    digest = hashlib.sha256()
    for sweep_idx, sweep_value in enumerate(cfg.sweep_values):
        block = experiments.layout_block(cfg, sweep_idx, range(TRIALS))
        value = experiments.internal_sweep_value(cfg.sweep, sweep_value)
        column = np.asarray(evaluator(cfg.params, block, value, cfg), dtype=np.float64)
        assert column.shape == (TRIALS,)
        digest.update(column.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name,num_users", sorted(DIGESTS))
def test_evaluator_column_bits(name, num_users):
    assert column_digest(name, num_users) == DIGESTS[name, num_users]


def sweep_column_digest(name: str, num_users: int) -> str:
    """The same digest from one evaluator call on every point's trials, with a column of each row's sweep value."""
    _, evaluator = experiments.SCHEMES[name]
    cfg = _config(name, num_users)
    points = len(cfg.sweep_values)
    block = experiments.layout_block(cfg, np.repeat(np.arange(points), TRIALS), np.tile(np.arange(TRIALS), points))
    values = np.repeat([experiments.internal_sweep_value(cfg.sweep, v) for v in cfg.sweep_values], TRIALS)
    column = np.asarray(evaluator(cfg.params, block, values, cfg), dtype=np.float64)
    assert column.shape == (points * TRIALS,)
    return hashlib.sha256(column.tobytes()).hexdigest()


@pytest.mark.parametrize("name,num_users", sorted(DIGESTS))
def test_evaluator_column_bits_from_one_call_per_sweep(name, num_users):
    assert sweep_column_digest(name, num_users) == DIGESTS[name, num_users]


def test_every_per_trial_scheme_is_pinned():
    per_trial = {name for name, (spec, _) in experiments.SCHEMES.items() if spec.per_trial}
    assert {name for name, _ in DIGESTS} == per_trial
