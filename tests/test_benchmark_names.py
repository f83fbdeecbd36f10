"""The functions that the benchmark's per-layer metrics name must exist.

The traced benchmark run wraps every public function of each pinchplace
layer and reports a ``<layer>.<function>.calls`` or ``.self_ms`` metric only
for a function that it found, so renaming or deleting one of them silently
drops metrics from the traced result.  BENCHMARK.json is only read here.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
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
