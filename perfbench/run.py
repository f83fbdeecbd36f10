"""pinchplace benchmark: one closed-loop caller driving ``pinchplace.cli.main``.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of a
fresh interpreter, trial layouts per second, time per CLI invocation (all
three scaled to a reference host speed, see hostspeed.py) and peak memory.
With ``--trace 1`` it runs a fixed number of cycles untraced and traced in
turn, and reports per-layer call counts and times from spans recorded around
every public function of each pinchplace layer.  Every output
is checked; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with machine and
version details, is written to perfbench/_work/.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"

# Fresh interpreters timed for setup_s (after one untimed probe that fills the
# bytecode cache), and untraced/traced cycle pairs in a trace run.
SETUP_PROBES = 11
TRACE_ROUNDS = 5

# Prints the import time and, right after it in the same process, the host's
# calibration time (median of five passes).
_SETUP_PROBE = (
    "import statistics, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import pinchplace.cli\n"
    "pinchplace.cli.build_parser()\n"
    "elapsed = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import hostspeed\n"
    "print(elapsed, statistics.median(hostspeed.calibrate() for _ in range(5)))\n"
)


class Runner:
    """Runs operations through cli.main and counts the ones that fail a check."""

    def __init__(self, cli, reference_digests: list[str] | None) -> None:
        self.cli = cli
        self.reference = reference_digests
        self.first_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, index: int, op) -> tuple[float, str]:
        """Time one invocation, check it, and return (seconds, output text)."""
        out = io.StringIO()
        if op.csv_path is not None:
            op.csv_path.unlink(missing_ok=True)  # a run that writes nothing must not pass on a stale file
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                code = self.cli.main(list(op.argv))
                elapsed = perf_counter() - t0
        except (Exception, SystemExit) as exc:  # a traceback or argparse exit is a failed operation
            elapsed, code = 0.0, f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        errors = [f"exit {code}"] if code != 0 else []
        text = out.getvalue()
        if not errors and op.csv_path is not None:
            text = op.csv_path.read_text() if op.csv_path.is_file() else ""
            errors = wl.check_csv(op, text)
            digest = wl.csv_digest(text) if not errors else ""
            expected = self.reference[index] if self.reference else self.first_digest.setdefault(op.label, digest)
            if digest and digest != expected:
                errors.append(f"CSV digest {digest[:12]} differs from {expected[:12]}")
        elif not errors:
            errors = wl.check_certify(op, text)
        self.fail(op.label, errors)
        return elapsed, text

    def fail(self, label: str, errors: list[str]) -> None:
        if errors:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(errors)}")


def measure_setup(probes: int) -> tuple[list[float], list[float]]:
    """Wall seconds of each timed probe, and the host speed measured in each."""
    samples, speeds = [], []
    for i in range(probes + 1):
        done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        if i:
            elapsed, calibration = map(float, done.stdout.strip().splitlines()[-1].split())
            samples.append(elapsed)
            speeds.append(hostspeed.speed(calibration))
    return samples, speeds


def end_to_end(runner: Runner, ops, seconds: float) -> tuple[dict, dict]:
    setup, setup_speeds = measure_setup(SETUP_PROBES)
    runner.run(0, ops[0])  # warm-up, untimed
    op_s: list[float] = []        # wall seconds per operation
    op_scaled: list[float] = []   # the same, scaled to the reference host speed
    cycle_rates: list[float] = []
    wall_rates: list[float] = []
    speeds: list[float] = []      # reference calibration time over the measured one
    layouts = sum(op.layouts for op in ops)
    before = hostspeed.calibrate()
    start = perf_counter()
    while True:
        cycle = [runner.run(i, op)[0] for i, op in enumerate(ops)]
        after = hostspeed.calibrate()
        speed = hostspeed.speed(0.5 * (before + after))
        before = after
        speeds.append(speed)
        op_s.extend(cycle)
        op_scaled.extend(s * speed for s in cycle)
        wall = sum(cycle)
        wall_rates.append(layouts / wall if wall > 0 else 0.0)
        cycle_rates.append(layouts / (wall * speed) if wall > 0 else 0.0)
        if len(cycle_rates) >= 2 and perf_counter() - start >= seconds:
            break
    ms = [1e3 * s for s in op_scaled]
    wall_ms = [1e3 * s for s in op_s]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    metrics = {
        "layouts_per_s": (statistics.median(cycle_rates), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(s * v for s, v in zip(setup, setup_speeds)), "s"),
    }
    detail = {
        "cycles": len(cycle_rates),
        "layouts_per_cycle": layouts,
        "ops_timed": len(ms),
        "op_ms_p90": deciles[8],
        "ops_above_p90": sum(v > deciles[8] for v in ms),
        "layouts_per_s_quartiles": statistics.quantiles(cycle_rates, n=4, method="inclusive"),
        "host_speed_quartiles": statistics.quantiles(speeds, n=4, method="inclusive"),
        "wall_layouts_per_s": statistics.median(wall_rates),
        "wall_op_ms_p50": statistics.median(wall_ms),
        "setup_s_samples": setup,
        "setup_host_speeds": setup_speeds,
        "op_ms_p10": deciles[0],
        "op_ms_max": max(ms),
        "op_ms": ms,
    }
    return metrics, detail


def traced(runner: Runner, ops, dump_path: Path) -> tuple[dict, dict]:
    runner.run(0, ops[0])  # warm-up, untimed
    tracer = spans.Tracer()
    plain_s = traced_s = 0.0
    infeasible = 0
    for _ in range(TRACE_ROUNDS):
        plain = [runner.run(i, op) for i, op in enumerate(ops)]
        with tracer:
            spied = [runner.run(i, op) for i, op in enumerate(ops)]
        plain_s += sum(s for s, _ in plain)
        traced_s += sum(s for s, _ in spied)
        for op, (_, a), (_, b) in zip(ops, plain, spied):
            if a != b:
                runner.fail(op.label, ["traced output differs from untraced output"])
            elif op.csv_path is not None:
                infeasible += wl.infeasible_trials(op, b)
    layouts = TRACE_ROUNDS * sum(op.layouts for op in ops if op.csv_path is not None)
    extra = {"oma_greedy.infeasible_trials": infeasible}
    metrics = spans.per_layer_metrics(tracer, traced_s, plain_s, layouts, extra)
    tracer.dump(dump_path)
    detail = {"rounds": TRACE_ROUNDS, "spans": len(tracer.spans), "layouts": layouts,
              "untraced_s": plain_s, "traced_s": traced_s, "spans_file": str(dump_path.relative_to(ROOT))}
    return metrics, detail


def machine(pinchplace, numpy) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pinchplace": getattr(pinchplace, "__version__", "unknown"),
        "commit": commit,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "pinchplace" / "cli.py").is_file():
        print(f"error: pinchplace sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import pinchplace
    import pinchplace.cli as cli
    if Path(pinchplace.__file__).resolve().parent != SRC / "pinchplace":
        print(f"error: imported pinchplace from {pinchplace.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    reference = wl.load_reference()
    digests = reference["digests"].get(args.workload, {}).get(str(args.seed))
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs = wl.build(args.workload, args.seed, Path(tmp), reference["outage_cases"])
        runner = Runner(cli, digests)
        if args.trace:
            metrics, detail = traced(runner, inputs.ops, WORK / f"spans-{tag}.json.gz")
        else:
            metrics, detail = end_to_end(runner, inputs.ops, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  inputs sha256 {inputs.sha256}")
    print(f"reference CSV digests: {'checked' if digests else 'none recorded for this seed; repeats checked'}")
    host = machine(pinchplace, numpy)
    for key, value in host.items():
        print(f"machine {key}: {value}")
    for key, value in detail.items():
        if key != "op_ms":
            print(f"detail {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    if not args.trace:
        # op_ms_p90 is reported but not gated: on a shared host it spreads
        # more across runs than any regression bound BENCHMARK.json may set.
        print(f"metric op_ms_p90 = {detail['op_ms_p90']:.6g} ms ({detail['ops_above_p90']} samples above)")
        if args.workload == "certify":
            print(f"metric certify_ms_p50 = {metrics['op_ms_p50'][0]:.6g} ms")
            print(f"metric certify_ms_p90 = {detail['op_ms_p90']:.6g} ms")
    error_rate = runner.failed / runner.attempted
    print(f"metric error_rate = {error_rate:.6g} ({runner.failed} of {runner.attempted} operations)")
    for problem in runner.problems:
        print(f"FAILED {problem}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    full = dict(result, workload=args.workload, seed=args.seed, inputs_sha256=inputs.sha256,
                error_rate=error_rate, detail=detail, machine=host,
                problems=runner.problems)
    (WORK / f"result-{tag}.json").write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
