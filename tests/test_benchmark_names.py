"""The functions that the benchmark's per-layer metrics name must exist.

The traced benchmark run wraps every public function of each pinchplace
layer and reports a ``<layer>.<function>.calls`` or ``.self_ms`` metric only
for a function that it found, so renaming or deleting one of them silently
drops metrics from the traced result.  BENCHMARK.json is only read here.
"""

import contextlib
import importlib
import inspect
import io
import json
import math
import numbers
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench")]

import spans  # noqa: E402
from pinchplace import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED = sorted({metric["name"].rsplit(".", 1)[0] for metric in BENCHMARK["per_layer"]
                 if metric["name"].endswith((".calls", ".self_ms"))})


def test_the_benchmark_names_traced_functions():
    assert len(TRACED) >= 20 and all(name.count(".") == 1 for name in TRACED)


@pytest.mark.parametrize("name", TRACED)
def test_traced_function_is_a_public_function_of_its_layer(name):
    layer, attr = name.split(".")
    module = importlib.import_module(f"pinchplace.{layer}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(fn), f"pinchplace.{name} is not a function"
    assert fn.__module__ == module.__name__, f"pinchplace.{name} is defined in {fn.__module__}"


def _traced_metrics(argv: list[str], layouts: int) -> dict:
    """The traced benchmark run's per-layer metrics of one CLI call, by name."""
    tracer = spans.Tracer()
    start = time.perf_counter()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    wall_s = time.perf_counter() - start
    metrics = {name: value for name, (value, _) in spans.per_layer_metrics(tracer, wall_s, wall_s, layouts, {}).items()}
    bad = {name: value for name, value in metrics.items()
           if not (isinstance(value, numbers.Real) and math.isfinite(value))}
    assert not bad, f"metrics that are not finite real numbers: {bad}"
    return metrics


def test_a_traced_run_sees_the_greedy_blocks(tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text("-8 2\n6 -4\n")
    single = _traced_metrics(["greedy", str(pair), "--power-dbm", "35", "--certify"], 1)
    assert single["oma_greedy.best_placement_search.calls"] > 0
    assert single["oma_greedy.best_placement_high_snr.calls"] > 0
    sweep = _traced_metrics(["experiment", "--set", "schemes=oma-greedy,oma-greedy-highsnr,oma-greedy-conv",
                             "--set", "users=2", "--trials", "4", "--out", str(tmp_path / "greedy.csv")], 9 * 4)
    for name in ("best_placement_search", "best_placement_high_snr", "split_power"):
        assert sweep[f"oma_greedy.{name}.calls"] > 0, name


def test_a_traced_run_sees_a_power_sweep_that_finds_no_feasible_split(tmp_path):
    # a budget 1e-6 above the floor sum at the users' midpoint: the split sweep finds nothing and
    # the certify layer skips its check, so the traced run exits 0 with finite metrics
    pair = tmp_path / "pair.txt"
    pair.write_text("-8 2\n6 -4\n")
    metrics = _traced_metrics(["greedy", str(pair), "--power-dbm", "-2.502450177430795", "--rate-bpcu", "1",
                               "--certify"], 1)
    assert metrics["oracle.power_split_sweep.calls"] > 0
    assert metrics["oma_greedy.best_placement_search.calls"] > 0
