"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each pinchplace layer from the
outside: every module attribute that refers to such a function (for example
``oracle.grid_optimize``, ``oma_greedy.grid_optimize`` and
``noma.grid_optimize``) is replaced by one timing wrapper, and every
replacement is undone on exit.  The program source is never edited.

Each call becomes a span ``[name, start_ns, end_ns, parent_index]`` kept in
memory; a span's self time is its duration minus the durations of its direct
children (calls are strictly nested, the program runs one thread).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

# The layers that get spans.  core and errors hold leaf helpers that cost less
# per call than a wrapper, so their time stays in their callers' self time.
PACKAGE = "pinchplace"
LAYERS = ("rng", "experiments", "oma_fairness", "oma_greedy", "noma", "outage", "oracle", "cli")

# Functions whose calls and inclusive µs per call are reported.
PER_CALL = (
    "rng.stream",
    "experiments.sample_layout",
    "experiments.run_experiment",
    "oma_fairness.solve_max_min_rate",
    "oma_fairness.conventional_max_min_rate",
    "oma_fairness.solve_min_total_power",
    "oma_fairness.conventional_min_total_power",
    "oma_greedy.best_placement_high_snr",
    "oma_greedy.split_power",
    "oma_greedy.best_placement_search",
    "noma.solve_min_power",
    "noma.min_powers_at",
    "noma.solve_min_power_search",
    "outage.monte_carlo_outage",
    "outage.closed_form_outage",
    "oracle.grid_optimize",
    "oracle.power_split_sweep",
    "cli.main",
    "cli.build_parser",
)
# Subcommand handlers: calls plus self time that keeps parsing and report
# formatting (the cli helpers they call) but excludes every other layer.
CLI_CMDS = tuple(f"cli.cmd_{sub}" for sub in ("maxmin", "powermin", "greedy", "noma", "outage", "experiment"))

COUNTERS = ("oma_greedy.infeasible_trials", "oma_greedy.highsnr_premise_misses", "noma.uncertified")


def _public_functions(module):
    for attr, value in vars(module).items():
        if not attr.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__:
            yield attr, value


class Tracer:
    """Install with ``with tracer:``; spans and counts accumulate across uses."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    # ------------------------------------------------------------ patching
    def __enter__(self) -> "Tracer":
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in _public_functions(module):
                name = f"{layer}.{attr}"
                originals[id(fn)] = self._wrap(name, fn)
                self.wrapped.add(name)
        try:
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(module).items()):
                    wrapper = originals.get(id(value))
                    if wrapper is not None:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        before, after = self._hooks(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            record = [name, perf_counter_ns(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def _hooks(self, name: str, fn):
        counts = self.counts
        if name == "oracle.grid_optimize":
            def count_objective(args, kwargs):
                inner = args[0] if args else kwargs.get("objective")
                if inner is None:
                    return args, kwargs

                def objective(xs):
                    counts["oracle.objective_calls"] += 1
                    counts["oracle.points_evaluated"] += len(xs)
                    return inner(xs)

                if args:
                    return (objective,) + tuple(args[1:]), kwargs
                return args, {**kwargs, "objective": objective}
            return count_objective, None
        if name == "oma_greedy.best_placement_high_snr":
            def premise(result, args, kwargs):
                counts["oma_greedy.highsnr_premise_misses"] += getattr(result, "allocation_case", "interior") != "interior"
            return None, premise
        if name == "noma.solve_min_power":
            def certified(result, args, kwargs):
                counts["noma.uncertified"] += getattr(result, "certified_optimal", True) is False
            return None, certified
        if name == "outage.monte_carlo_outage":
            signature = inspect.signature(fn)
            def trials(result, args, kwargs):
                counts["outage.mc_trials"] += int(signature.bind(*args, **kwargs).arguments.get("trials", 0))
            return None, trials
        return None, None

    # ------------------------------------------------------------- results
    def dump(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[int]:
    """Duration of each span minus the time its direct children cover."""
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def per_layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float, layouts: int,
                      extra_counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) for the traced run; absent for functions that no longer exist."""
    spans = tracer.spans
    own = self_times(spans)
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_ns: Counter = Counter()
    layer_ns: Counter = Counter()
    cmd_ns: Counter = Counter()
    cmd_of = [-1] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        self_ns[name] += own[i]
        layer = name.split(".", 1)[0]
        layer_ns[layer] += own[i]
        cmd_of[i] = i if name.startswith("cli.cmd_") else (cmd_of[parent] if parent >= 0 else -1)
        if layer == "cli" and cmd_of[i] >= 0:
            cmd_ns[spans[cmd_of[i]][0]] += own[i]

    counts = Counter(tracer.counts)
    counts.update(extra_counts)
    out: dict[str, tuple[float, str]] = {}

    def per(total_ns: float, n: int, scale: float) -> float:
        return total_ns / scale / n if n else 0.0

    for name in PER_CALL:
        if name in tracer.wrapped:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.us_per_call"] = (per(incl[name], calls[name], 1e3), "us")
    for name in CLI_CMDS:
        if name in tracer.wrapped:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (cmd_ns[name] / 1e6, "ms")
    for name in ("rng.stream", "experiments.sample_layout"):
        if name in tracer.wrapped:
            out[f"{name}.us_per_layout"] = (per(incl[name], layouts, 1e3), "us")
    if "experiments.run_experiment" in tracer.wrapped:
        out["experiments.run_experiment.self_us_per_layout"] = (
            per(self_ns["experiments.run_experiment"], layouts, 1e3), "us")
    if "outage.monte_carlo_outage" in tracer.wrapped:
        out["outage.monte_carlo_outage.ns_per_trial"] = (
            per(incl["outage.monte_carlo_outage"], counts["outage.mc_trials"], 1.0), "ns")
    if "oracle.grid_optimize" in tracer.wrapped:
        points = counts["oracle.points_evaluated"]
        out["oracle.objective_calls"] = (counts["oracle.objective_calls"], "count")
        out["oracle.points_evaluated"] = (points, "count")
        out["oracle.us_per_point"] = (per(layer_ns["oracle"], points, 1e3), "us")
    for name in COUNTERS:
        out[name] = (counts[name], "count")
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = (layer_ns[layer] / 1e9 / wall_s, "fraction")
    out["trace.overhead_frac"] = (wall_s / untraced_wall_s - 1.0, "fraction")
    return out
