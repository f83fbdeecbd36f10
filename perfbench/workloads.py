"""Workload inputs, operations and output checks for the pinchplace benchmark.

Every input file and flag is derived from the workload seed, so one seed
always gives the same operations.  One operation is one in-process call of
``pinchplace.cli.main``; a workload's cycle is a fixed list of operations
that the benchmark repeats in a closed loop with one caller.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("sweep-closed-form", "sweep-greedy-search", "certify")

REFERENCE_FILE = Path(__file__).with_name("reference.json")
CSV_COLUMNS = ("sweep_value", "scheme", "metric", "mean", "stderr", "trials")

# Trials per experiment invocation.  sweep-greedy-search keeps one invocation
# short enough that a run holds well over 100 of them, so op_ms_p90 has at
# least ten samples above it.
CLOSED_FORM_TRIALS = 100
GREEDY_TRIALS = 8
# Certify cycle: this many instances of each subcommand, interleaved.
CERTIFY_PER_KIND = 16
# Monte Carlo trials per outage certification: about the cost of one grid
# certification, so no subcommand dominates op_ms_p90.
OUTAGE_TRIALS = 30000

_HALF_LENGTH, _HALF_WIDTH = 20.0, 5.0  # default 40 x 10 m service area
_POWER_POINTS, _RATE_POINTS = 9, 8     # default sweep points per axis


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    label: str
    argv: list[str]
    layouts: int                      # trial layouts (experiment) or 1 instance (certify)
    csv_path: Path | None = None      # experiment output
    schemes: tuple[str, ...] = ()
    points: int = 0
    trials: int = 0
    certify_lines: int = 0            # expected "certify" lines (certify ops)


@dataclass
class Inputs:
    ops: list[Op]
    sha256: str                        # over every generated file and argv
    files: dict[str, str]              # file name -> content


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _seed64(gen: np.random.Generator) -> int:
    return int(gen.integers(0, 2**63))


def _instance(gen: np.random.Generator, users: int) -> str:
    xs = gen.uniform(-_HALF_LENGTH, _HALF_LENGTH, users).tolist()
    ys = gen.uniform(-_HALF_WIDTH, _HALF_WIDTH, users).tolist()
    return "".join(f"{x!r} {y!r}\n" for x, y in zip(xs, ys))


def _config(**keys: object) -> str:
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def build(workload: str, seed: int, workdir: Path, outage_cases: list[dict] | None = None) -> Inputs:
    """Write the workload's input files under workdir and return one cycle of operations."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    gen = _rng(workload, seed)
    files: dict[str, str] = {}
    ops: list[Op] = []

    def experiment(label: str, schemes: tuple[str, ...], points: int, trials: int, **keys) -> None:
        name = f"{label}.cfg"
        files[name] = _config(schemes=",".join(schemes), trials=trials, seed=_seed64(gen), **keys)
        out = workdir / f"{label}.csv"
        ops.append(Op(label, ["experiment", "--config", str(workdir / name), "--out", str(out)],
                      layouts=points * trials, csv_path=out, schemes=schemes, points=points,
                      trials=trials))

    def rate(lo: float, hi: float) -> float:
        return round(float(gen.uniform(lo, hi)), 4)

    if workload == "sweep-closed-form":
        experiment("power-m2", ("oma-maxmin", "oma-maxmin-conv", "oma-greedy-highsnr", "oma-greedy-conv",
                                "outage-mc", "outage-mc-conv", "outage"),
                   _POWER_POINTS, CLOSED_FORM_TRIALS, sweep="power_dbm", users=2, rate_bpcu=rate(0.75, 1.25))
        experiment("rate-m2", ("oma-powermin", "oma-powermin-conv", "noma", "noma-conv"),
                   _RATE_POINTS, CLOSED_FORM_TRIALS, sweep="rate_bpcu", users=2)
        experiment("power-m8", ("oma-maxmin", "oma-maxmin-conv"),
                   _POWER_POINTS, CLOSED_FORM_TRIALS, sweep="power_dbm", users=8)
    elif workload == "sweep-greedy-search":
        experiment("greedy", ("oma-greedy",), _POWER_POINTS, GREEDY_TRIALS,
                   sweep="power_dbm", users=2, rate_bpcu=rate(0.75, 1.25))
    else:
        if outage_cases is None:
            outage_cases = load_reference()["outage_cases"]
        picks = gen.permutation(len(outage_cases))[:CERTIFY_PER_KIND].tolist()
        for i in range(CERTIFY_PER_KIND):
            def single(kind: str, users: int, *flags: str) -> None:
                name = f"{kind}-{i}.txt"
                files[name] = _instance(gen, users)
                ops.append(Op(f"{kind}-{i}", [kind, str(workdir / name), *flags, "--certify"], layouts=1,
                              certify_lines=2 if kind == "greedy" else 1))

            single("maxmin", int(gen.integers(2, 9)), "--power-dbm", str(rate(0.0, 40.0)))
            single("powermin", int(gen.integers(2, 9)), "--rate-bpcu", str(rate(0.5, 4.0)))
            single("greedy", 2, "--power-dbm", str(rate(20.0, 40.0)), "--rate-bpcu", str(rate(0.5, 2.0)))
            # alternate NOMA targets below and above 0.5 nat (0.72 BPCU), where
            # the closed form's optimality certificate starts to apply
            noma_rate = rate(0.3, 0.7) if i % 2 == 0 else rate(0.8, 3.0)
            single("noma", 2, "--rate-bpcu", str(noma_rate))
            case = outage_cases[picks[i]]
            ops.append(Op(f"outage-{i}", ["outage", "--power-dbm", str(case["power_dbm"]),
                                          "--rate-bpcu", str(case["rate_bpcu"]),
                                          "--trials", str(OUTAGE_TRIALS), "--seed", str(case["seed"]),
                                          "--certify"], layouts=1, certify_lines=1))

    digest = hashlib.sha256()
    for name in sorted(files):
        (workdir / name).write_text(files[name])
        digest.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    for op in ops:
        digest.update(json.dumps([op.label] + [a.replace(str(workdir), "<inputs>") for a in op.argv]).encode())
    return Inputs(ops=ops, sha256=digest.hexdigest(), files=files)


# ------------------------------------------------------------------ checks

def csv_digest(text: str) -> str:
    """sha256 of the contract columns, looked up by header name."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    idx = [header.index(c) for c in CSV_COLUMNS]
    body = "\n".join(",".join(row[i] for i in idx) for row in rows)
    return hashlib.sha256(body.encode()).hexdigest()


def check_csv(op: Op, text: str) -> list[str]:
    """Shape, finiteness, trial counts and the paper's dominance orderings."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
    except csv.Error as exc:
        return [f"unreadable CSV: {exc}"]
    if not rows or any(c not in rows[0] for c in CSV_COLUMNS):
        return [f"CSV lacks columns {CSV_COLUMNS}"]
    errors: list[str] = []
    if len(rows) != op.points * len(op.schemes):
        errors.append(f"{len(rows)} rows, expected {op.points} x {len(op.schemes)}")
    by_point: dict[str, dict[str, float]] = defaultdict(dict)
    for i, row in enumerate(rows):
        scheme = op.schemes[i % len(op.schemes)] if op.schemes else ""
        if row["scheme"] != scheme:
            errors.append(f"row {i}: scheme {row['scheme']!r}, expected {scheme!r}")
            continue
        try:
            mean, stderr, trials = float(row["mean"]), float(row["stderr"]), int(row["trials"])
            float(row["sweep_value"])
        except ValueError:
            errors.append(f"row {i}: non-numeric field")
            continue
        if scheme == "outage":
            expected_ok = trials == 1
        elif scheme.startswith("oma-greedy"):
            expected_ok = 0 <= trials <= op.trials
        else:
            expected_ok = trials == op.trials
        if not expected_ok:
            errors.append(f"row {i}: trials {trials} for {scheme} with {op.trials} trials configured")
        if trials > 0 and not (math.isfinite(mean) and math.isfinite(stderr)):
            errors.append(f"row {i}: non-finite mean/stderr with {trials} trials")
        by_point[row["sweep_value"]][scheme] = mean
    if len(by_point) != op.points:
        errors.append(f"{len(by_point)} sweep points, expected {op.points}")
    for point, means in by_point.items():
        for best, conv, sense in (("oma-maxmin", "oma-maxmin-conv", 1), ("oma-powermin", "oma-powermin-conv", -1)):
            if best in means and conv in means and sense * (means[best] - means[conv]) < 0:
                errors.append(f"sweep {point}: {best} {means[best]!r} does not dominate {conv} {means[conv]!r}")
    return errors


def check_certify(op: Op, stdout: str) -> list[str]:
    lines = [line for line in stdout.splitlines() if line.startswith("certify")]
    errors = [f"not passed: {line}" for line in lines if not line.endswith("PASS")]
    if len(lines) != op.certify_lines:
        errors.append(f"{len(lines)} certify lines, expected {op.certify_lines}")
    return errors


def infeasible_trials(op: Op, text: str) -> int:
    """Trials the greedy schemes dropped, read from the CSV trials column."""
    return sum(op.trials - int(row["trials"]) for row in csv.DictReader(io.StringIO(text))
               if row["scheme"].startswith("oma-greedy"))
