"""The experiment CSVs of the benchmark's sweep workloads match the recorded digests.

perfbench/reference.json holds the sha256 of the contract columns of every
experiment CSV the sweep workloads write for seeds 0-63; this guard replays
seeds 0-7 of the closed-form sweeps and all 64 seeds of the greedy search
sweep (a few milliseconds each, and the pruned grid search must match the
full scan on every one) through the CLI, so a change that moves a CSV byte
(say, a numpy transcendental where the C library's used to be) fails here
and not only in the benchmark.  It only reads perfbench/.  The default
greedy sweep, a block of 9000 layouts where the benchmark's has 72, is
pinned by the sha256 of its whole CSV.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from pinchplace import cli

_WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload,seed", [("sweep-closed-form", seed) for seed in range(8)]
                         + [("sweep-greedy-search", seed) for seed in range(64)])
def test_sweep_csvs_match_reference_digests(workload, seed, tmp_path):
    digests = []
    for op in workloads.build(workload, seed, tmp_path).ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op.argv) == 0, op.label
        digests.append(workloads.csv_digest(op.csv_path.read_text()))
    assert digests == workloads.load_reference()["digests"][workload][str(seed)]


# sha256 of the stdout CSV of `experiment --set schemes=oma-greedy --seed 1`: 1000 trials at each of
# the 9 default power points, one 9000-layout block through the pruned search and its refinement,
# recorded before a block's golden-section refinement moved its rows in lockstep arrays
DEFAULT_GREEDY_DIGEST = "a676cf15912813a7172099804808565a212d8fe287e915e25b920b46d36bec22"


def test_the_default_greedy_sweep_replays_its_recorded_csv():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["experiment", "--set", "schemes=oma-greedy", "--seed", "1"]) == 0
    assert len(stdout.getvalue().splitlines()) == 1 + 9
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == DEFAULT_GREEDY_DIGEST
