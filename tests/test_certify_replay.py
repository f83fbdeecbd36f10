"""Certify replay: the bytes of 40 single-instance --certify runs are pinned.

Each run calls cli.main in-process, 8 for each subcommand: maxmin and
powermin with 2 to 8 users, greedy, noma (rate targets alternating below and
above 0.5 nat) and outage at 30000 Monte Carlo trials.  One sha256 covers
every run's label, exit code, stdout, stderr and --out JSON, so a change to
an oracle or a closed form that moves any printed digit, gap or report field
fails here.  DIGEST was recorded before the oracles summed users one
whole-grid term at a time and probed a lone row at a float64 scalar.
"""

import contextlib
import hashlib
import io

from pinchplace import cli, rng

SEED = 20261019
PER_KIND = 8
OUTAGE_TRIALS = 30000
DIGEST = "b2e9916f0e9196fae2dd973e8e2c29f33e74fea45e2ab61d20403b25642b48a7"


def _instance(gen, users: int) -> str:
    xs = gen.uniform(-20.0, 20.0, users).tolist()
    ys = gen.uniform(-5.0, 5.0, users).tolist()
    return "".join(f"{x!r} {y!r}\n" for x, y in zip(xs, ys))


def _runs(tmp_path):
    """(label, argv) of every run, writing its instance file under tmp_path; a function of SEED alone."""
    def rounded(gen, lo: float, hi: float) -> str:
        return str(round(float(gen.uniform(lo, hi)), 4))

    def single(kind: str, i: int, gen, users: int, *flags: str):
        path = tmp_path / f"{kind}-{i}.txt"
        path.write_text(_instance(gen, users))
        return f"{kind}-{i}", [kind, str(path), *flags]

    for i in range(PER_KIND):
        gen = rng.stream(SEED, rng.DOMAIN_TESTS, 0, i)
        yield single("maxmin", i, gen, int(gen.integers(2, 9)), "--power-dbm", rounded(gen, 0.0, 40.0))
        gen = rng.stream(SEED, rng.DOMAIN_TESTS, 1, i)
        yield single("powermin", i, gen, int(gen.integers(2, 9)), "--rate-bpcu", rounded(gen, 0.5, 4.0))
        gen = rng.stream(SEED, rng.DOMAIN_TESTS, 2, i)
        yield single("greedy", i, gen, 2, "--power-dbm", rounded(gen, 20.0, 40.0),
                     "--rate-bpcu", rounded(gen, 0.5, 2.0))
        gen = rng.stream(SEED, rng.DOMAIN_TESTS, 3, i)
        yield single("noma", i, gen, 2, "--rate-bpcu", rounded(gen, 0.3, 0.7) if i % 2 == 0 else rounded(gen, 0.8, 3.0))
        gen = rng.stream(SEED, rng.DOMAIN_TESTS, 4, i)
        yield f"outage-{i}", ["outage", "--power-dbm", rounded(gen, 0.0, 12.0), "--rate-bpcu", "2.5",
                              "--trials", str(OUTAGE_TRIALS), "--seed", str(int(gen.integers(0, 2**63)))]


def test_certify_runs_replay_their_recorded_bytes(tmp_path):
    digest = hashlib.sha256()
    runs = list(_runs(tmp_path))
    assert len(runs) == 5 * PER_KIND
    for label, argv in runs:
        out_path = tmp_path / f"{label}.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--certify", "--out", str(out_path)])
        lines = [line for line in stdout.getvalue().splitlines() if line.startswith("certify")]
        assert code == 0 and lines and all(line.endswith("PASS") for line in lines), (label, stdout.getvalue(),
                                                                                     stderr.getvalue())
        for part in (label, str(code), stdout.getvalue(), stderr.getvalue(), out_path.read_text()):
            digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == DIGEST
