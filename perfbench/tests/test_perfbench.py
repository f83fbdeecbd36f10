"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from pinchplace import cli, noma, oma_greedy, oracle  # noqa: E402


def _package_attributes() -> dict:
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "pinchplace" or name.startswith("pinchplace.")
            for attr, value in vars(module).items()}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    dirs = [tmp_path / name for name in "abc"]
    for d in dirs:
        d.mkdir()
    a, b, c = (wl.build(workload, seed, d) for seed, d in zip((7, 7, 8), dirs))
    assert a.files == b.files and a.sha256 == b.sha256
    assert [op.label for op in a.ops] == [op.label for op in b.ops]
    assert a.files != c.files and a.sha256 != c.sha256


def test_tracer_wraps_every_lookup_and_restores_it():
    before = _package_attributes()
    original = oracle.grid_optimize
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert oracle.grid_optimize is not original
            assert noma.grid_optimize is oracle.grid_optimize
            assert oma_greedy.grid_optimize is oracle.grid_optimize
            raise RuntimeError("leave the block early")
    assert _package_attributes().keys() == before.keys()
    assert all(value is before[key] for key, value in _package_attributes().items())
    assert oracle.grid_optimize is original


def test_traced_csv_equals_untraced_csv(tmp_path):
    ops = wl.build("sweep-closed-form", 0, tmp_path).ops
    untraced = []
    for op in ops:
        _run(op.argv)
        untraced.append(op.csv_path.read_text())
    tracer = spans.Tracer()
    with tracer:
        for op, expected in zip(ops, untraced):
            _run(op.argv)
            assert op.csv_path.read_text() == expected
            assert wl.check_csv(op, expected) == []
    assert {"cli.main", "rng.stream", "experiments.sample_layout"} <= {s[0] for s in tracer.spans}
    reference = wl.load_reference()["digests"]["sweep-closed-form"]["0"]
    assert [wl.csv_digest(text) for text in untraced] == reference


def test_self_time_subtracts_direct_children():
    recorded = [["a", 0, 100, -1], ["b", 10, 40, 0], ["c", 15, 25, 1], ["d", 50, 60, 0]]
    assert spans.self_times(recorded) == [60, 20, 10, 10]


def test_dominance_check_catches_a_violation(tmp_path):
    op = wl.build("sweep-closed-form", 0, tmp_path).ops[0]
    _run(op.argv)
    lines = op.csv_path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if ",oma-maxmin-conv," in line)
    fields = lines[row].split(",")
    fields[3] = "1e9"
    lines[row] = ",".join(fields)
    assert any("does not dominate" in e for e in wl.check_csv(op, "\n".join(lines) + "\n"))
