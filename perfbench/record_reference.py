"""Record perfbench/reference.json from the current program.

    python3 perfbench/record_reference.py

Run it only at a commit whose CSV output is the reference; the benchmark then
fails any later run whose CSV columns differ for these seeds.  It records

- for each sweep workload and each seed in SEEDS, the sha256 of the contract
  CSV columns of every experiment operation in one cycle;
- the outage certification cases: candidates drawn from a fixed generator,
  each a (per-user budget, rate target, Monte Carlo seed).  The check is a
  3-sigma test, so about 0.3% of random cases fail it even when the closed
  form is exact; a candidate that fails is left out and the count is
  recorded, so that a workload seed never picks a case known to trip it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from pinchplace import cli  # noqa: E402

SEEDS = range(64)
OUTAGE_CANDIDATES = 32


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def outage_cases() -> tuple[list[dict], int]:
    gen = np.random.default_rng(20250717)
    kept, rejected = [], 0
    for _ in range(OUTAGE_CANDIDATES):
        case = {"power_dbm": round(float(gen.uniform(2.0, 14.0)), 4),
                "rate_bpcu": round(float(gen.uniform(1.5, 3.5)), 4),
                "seed": int(gen.integers(0, 2**63))}
        code, out = _run(["outage", "--power-dbm", str(case["power_dbm"]), "--rate-bpcu", str(case["rate_bpcu"]),
                          "--trials", str(wl.OUTAGE_TRIALS), "--seed", str(case["seed"]), "--certify"])
        if code == 0 and out.rstrip().endswith("PASS"):
            kept.append(case)
        else:
            rejected += 1
    return kept, rejected


def digests(workload: str, seed: int) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        result = []
        for op in wl.build(workload, seed, Path(tmp)).ops:
            code, _ = _run(op.argv)
            text = op.csv_path.read_text()
            errors = wl.check_csv(op, text) if code == 0 else [f"exit {code}"]
            if errors:
                raise SystemExit(f"{workload} seed {seed} {op.label}: {errors}")
            result.append(wl.csv_digest(text))
        return result


def main() -> int:
    cases, rejected = outage_cases()
    reference = {
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "outage_cases": cases,
        "outage_candidates_rejected": rejected,
        "digests": {w: {str(s): digests(w, s) for s in SEEDS}
                    for w in ("sweep-closed-form", "sweep-greedy-search")},
    }
    wl.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_FILE}: {len(cases)} outage cases ({rejected} rejected), "
          f"digests for seeds {SEEDS.start}..{SEEDS.stop - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
