"""Command-line front end: single-instance solvers and experiment sweeps.

Subcommands
-----------
maxmin INSTANCE    best placement + powers maximizing the worst rate
powermin INSTANCE  best placement + powers minimizing total power at a target
greedy INSTANCE    two-user throughput placement (search and fast route)
noma INSTANCE      two-user superposition power minimization
outage             two-user outage probability, closed form vs Monte Carlo
experiment         CSV sweep over random layouts (see config keys below)

An instance file lists one user per line as "x y"; blank lines and '#'
comments are ignored.  A config file holds flat "key = value" lines with the
same comment rules; --set key=value overrides single entries and a
subcommand's flags (--power-dbm for power_dbm, ...) override both, each
value typed as its key's --set value is.  Exit codes: 0 ok, 2 bad config,
parse error or an --out file that cannot be written, 3 infeasible instance,
4 certification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import sys
from pathlib import Path

from . import certify, experiments, noma, oma_fairness, oma_greedy, oracle, outage
from .core import LayoutBlock, bpcu_to_nats, dbm_to_watt, nats_to_bpcu, watt_to_dbm
from .errors import CertificationError, ConfigError, Infeasible, ParseError, PinchError


def _shown(key: str, default) -> str:
    """A config key's default as --help lists it; a sweep range key's is its axis's."""
    if default is None:
        return ", ".join(f"{axis} {keys[key]:g}" for axis, keys in experiments._AXIS_DEFAULTS.items())
    if isinstance(default, bool):
        return str(default).lower()
    return default if isinstance(default, str) else f"{default:g}"


_CONFIG_HELP = ("config keys (defaults in parentheses):\n"
                + "".join(f"  {f'{key} ({_shown(key, default)})':<42} {text}\n"
                          for key, (_, default, text) in experiments.CONFIG_KEYS.items())
                + "\nschemes: " + ", ".join(sorted(experiments.SCHEMES)))


def parse_kv_text(text: str, origin: str) -> dict[str, str]:
    """Flat key = value lines; later duplicates win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{origin}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError(f"{origin}:{lineno}: empty key or value in {raw.strip()!r}")
        out[key] = value
    return out


def read_layout(path: str) -> LayoutBlock:
    """The instance file's users as a one-row block."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read instance file {path}: {exc}") from exc
    rows: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'x y', got {raw.strip()!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric coordinate in {raw.strip()!r}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"{path}:{lineno}: non-finite coordinate in {raw.strip()!r}")
        rows.append((x, y))
    if not rows:
        raise ParseError(f"{path}: no users found")
    return LayoutBlock.from_layouts([rows])


def _collect_mapping(args: argparse.Namespace) -> dict[str, object]:
    mapping: dict[str, object] = {}
    if args.config:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ParseError(f"cannot read config file {args.config}: {exc}") from exc
        mapping.update(parse_kv_text(text, args.config))
    for pair in args.set or []:
        parsed = parse_kv_text(pair, "--set")
        if len(parsed) != 1:
            raise ParseError(f"--set expects a single key=value, got {pair!r}")
        mapping.update(parsed)
    for key in experiments.CONFIG_KEYS:  # a subcommand's own flags, each named as its key
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = value
    return experiments.merge_config(mapping)


def _power_line(label: str, watts: float) -> str:
    dbm = f" ({watt_to_dbm(watts):.2f} dBm)" if watts > 0 else ""
    return f"{label} = {watts:.6e} W{dbm}"


def _certify_line(check: certify.Check, prefix: str = "") -> str:
    return (f"certify {prefix}{check.name}: gap = {check.gap:.3e} (tol {check.tol:g}) -> "
            f"{'PASS' if check.ok else 'FAIL'}")


def _json_ready(value):
    """value with every non-finite float (a skipped check's NaN, the inf gap to a zero reference) as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


def _write_out(path: str, text: str) -> None:
    """text as the whole of the --out file; a path that cannot be written is a ParseError (exit 2)."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ParseError(f"cannot write --out file {path}: {exc}") from exc


def _finish(args: argparse.Namespace, report: dict, human: list[str],
            checks: list[certify.Check], failure: str) -> int:
    """Print the report and write it to --out, as strict JSON, with its certification checks; raise if one failed."""
    if checks:
        human.extend(_certify_line(c) for c in checks)
        report["certify"] = {"pass": all(c.ok for c in checks), "checks": [vars(c) for c in checks]}
    print("\n".join(human))
    if args.out:
        _write_out(args.out, json.dumps(_json_ready(report), indent=2, sort_keys=True, allow_nan=False) + "\n")
    if checks and not report["certify"]["pass"]:
        raise CertificationError(failure)
    return 0


# ------------------------------------------------------------- subcommands

def cmd_maxmin(args: argparse.Namespace) -> int:
    merged = _collect_mapping(args)
    params = experiments.build_params(merged)
    layout = read_layout(args.instance)
    total_w = dbm_to_watt(merged["power_dbm"])
    sol = oma_fairness.solve_max_min_rate(params, layout, total_w).row(0)

    rate_bpcu = nats_to_bpcu(sol.objective)
    human = [
        f"solver: maxmin ({layout.num_users} users, P = {merged['power_dbm']:.2f} dBm)",
        f"placement x* = {sol.x_star:.9g} m",
        f"min rate = {rate_bpcu:.6f} BPCU",
    ]
    for i, p in enumerate(sol.powers, 1):
        human.append(_power_line(f"  P_{i}", p))
    report = {
        "solver": "maxmin",
        "x_star_m": sol.x_star,
        "powers_w": list(sol.powers),
        "min_rate_bpcu": rate_bpcu,
    }

    checks = [certify.maxmin(params, layout, total_w, sol.objective)] if args.certify else []
    return _finish(args, report, human, checks, "max-min objective fell below the grid oracle")


def cmd_powermin(args: argparse.Namespace) -> int:
    merged = _collect_mapping(args)
    params = experiments.build_params(merged)
    layout = read_layout(args.instance)
    rate = bpcu_to_nats(merged["rate_bpcu"])
    sol = oma_fairness.solve_min_total_power(params, layout, rate).row(0)
    saving = float(oma_fairness.pinching_power_saving(params, layout, rate)[0])

    human = [
        f"solver: powermin ({layout.num_users} users, target = {merged['rate_bpcu']:.4f} BPCU)",
        f"placement x* = {sol.x_star:.9g} m",
        _power_line("total power", sol.objective),
        _power_line("saving vs centre antenna", saving) if saving > 0 else
        "saving vs centre antenna = 0 W",
    ]
    for i, p in enumerate(sol.powers, 1):
        human.append(_power_line(f"  P_{i}", p))
    report = {
        "solver": "powermin",
        "x_star_m": sol.x_star,
        "powers_w": list(sol.powers),
        "total_power_w": sol.objective,
        "saving_w": saving,
    }

    checks = [certify.powermin(params, layout, rate, sol.objective)] if args.certify else []
    return _finish(args, report, human, checks, "power-min objective exceeded the grid oracle")


def cmd_outage(args: argparse.Namespace) -> int:
    merged = _collect_mapping(args)
    params = experiments.build_params(merged)
    num_users = merged["users"]
    rate = bpcu_to_nats(merged["rate_bpcu"])
    budget = dbm_to_watt(merged["power_dbm"])
    trials = merged["trials"]
    seed = merged["seed"]
    if args.certify and num_users != 2:
        raise ConfigError("--certify for outage requires users = 2 (closed form)")

    estimate = outage.monte_carlo_outage(params, num_users, rate, budget, trials, seed)
    human = [
        f"solver: outage ({num_users} users, target = {merged['rate_bpcu']:.4f} BPCU, "
        f"budget = {merged['power_dbm']:.2f} dBm)",
        f"monte carlo: p = {estimate.probability:.6f} +- {estimate.stderr:.6f} ({trials} trials)",
        f"outage rate = {nats_to_bpcu(outage.outage_rate(estimate.probability, rate)):.6f} BPCU",
    ]
    report = {
        "solver": "outage",
        "mc_probability": estimate.probability,
        "mc_stderr": estimate.stderr,
        "trials": trials,
    }

    checks = []
    if num_users == 2:
        analytic = outage.closed_form_outage(params, rate, budget)
        human.insert(1, f"closed form: p = {analytic:.6f}")
        report["closed_form_probability"] = analytic
        if args.certify:
            checks = [certify.outage_3sigma(estimate.probability, analytic, trials)]
    return _finish(args, report, human, checks, "closed-form outage disagreed with Monte Carlo")


def cmd_greedy(args: argparse.Namespace) -> int:
    merged = _collect_mapping(args)
    params = experiments.build_params(merged)
    layout = read_layout(args.instance)
    total_w = dbm_to_watt(merged["power_dbm"])
    rate = bpcu_to_nats(merged["rate_bpcu"])
    grid = oracle.certification_grid(-params.half_length, params.half_length)

    search = oma_greedy.best_placement_search(params, layout, total_w, rate, grid).row(0)
    if search is None:
        raise Infeasible(f"a budget of {merged['power_dbm']:.2f} dBm cannot cover both "
                         f"{merged['rate_bpcu']:.4f} BPCU rate floors at any grid position")

    human = [
        f"solver: greedy (P = {merged['power_dbm']:.2f} dBm, "
        f"floor = {merged['rate_bpcu']:.4f} BPCU)",
        f"search:   x* = {search.solution.x_star:.9g} m, throughput = "
        f"{nats_to_bpcu(search.solution.objective):.6f} BPCU, case = {search.case}",
    ]
    report = {
        "solver": "greedy",
        "search": {
            "x_star_m": search.solution.x_star,
            "powers_w": list(search.solution.powers),
            "throughput_bpcu": nats_to_bpcu(search.solution.objective),
            "case": search.case,
        },
        "fast": None,
        "gap_rel": None,
    }
    fast = oma_greedy.best_placement_high_snr(params, layout, total_w, rate).row(0)
    if fast is None:  # the cubic's few candidates can all miss a floor that some grid point covers
        human.append("fast:     infeasible (no candidate position can cover both rate floors)")
    else:
        rel_gap = (search.solution.objective - fast.solution.objective) / abs(search.solution.objective)
        human += [
            f"fast:     x* = {fast.solution.x_star:.9g} m, throughput = "
            f"{nats_to_bpcu(fast.solution.objective):.6f} BPCU, case = {fast.case}",
            f"stationary points: {[f'{r:.6g}' for r in fast.roots]}",
            f"search-vs-fast gap = {rel_gap:.3e} rel",
        ]
        report["fast"] = {
            "x_star_m": fast.solution.x_star,
            "powers_w": list(fast.solution.powers),
            "throughput_bpcu": nats_to_bpcu(fast.solution.objective),
            "case": fast.case,
            "roots_m": list(fast.roots),
        }
        report["gap_rel"] = rel_gap

    checks = [certify.power_sweep(params, layout, total_w, rate, search.solution),
              certify.fast_below_search(None if fast is None else fast.solution.objective,
                                        search.solution.objective)] if args.certify else []
    return _finish(args, report, human, checks, "greedy allocation failed its brute-force check")


def cmd_noma(args: argparse.Namespace) -> int:
    merged = _collect_mapping(args)
    params = experiments.build_params(merged)
    layout = read_layout(args.instance)
    rate = bpcu_to_nats(merged["rate_bpcu"])

    sol = noma.solve_min_power(params, layout, rate).row(0)
    assumptions = noma.check_solution(params, layout, sol)
    strong = sol.sic_user - 1

    human = [
        f"solver: noma (target = {merged['rate_bpcu']:.4f} BPCU = {rate:.6f} nats)",
        f"sic_user = {sol.sic_user} (closer to the waveguide)",
        f"placement x* = {sol.x_star:.9g} m",
        _power_line("  P_strong", sol.powers[strong]),
        _power_line("  P_weak", sol.powers[1 - strong]),
        _power_line("total", sol.total),
        f"rates = ({nats_to_bpcu(sol.rates.strong):.6f}, {nats_to_bpcu(sol.rates.weak):.6f}, "
        f"{nats_to_bpcu(sol.rates.sic):.6f}) BPCU (strong, weak, sic)",
        f"assumptions ok: {assumptions.all_ok} (margin {assumptions.sic_distance_margin:.6g} m^2)",
    ]
    report = {
        "solver": "noma",
        "sic_user": sol.sic_user,
        "x_star_m": sol.x_star,
        "powers_w": list(sol.powers),
        "total_power_w": sol.total,
        "rates_bpcu": [nats_to_bpcu(r) for r in sol.rates],
        "assumptions_ok": assumptions.all_ok,
    }

    checks = [certify.noma_search(params, layout, rate, sol)] if args.certify else []
    return _finish(args, report, human, checks, "NOMA closed form disagreed with the search")


def _spot_checks(cfg: experiments.ExperimentConfig, layout: LayoutBlock, v: float):
    """Yield (scheme family, check) for each configured family on a one-row block at sweep value v."""
    families = {experiments.SCHEMES[s][0].family for s in cfg.schemes}
    p, rate = cfg.params, bpcu_to_nats(cfg.rate_bpcu)
    if "oma-maxmin" in families:
        yield "oma-maxmin", certify.maxmin(p, layout, v, oma_fairness.solve_max_min_rate(p, layout, v).row(0).objective)
    if "oma-powermin" in families:
        yield "oma-powermin", certify.powermin(
            p, layout, v, oma_fairness.solve_min_total_power(p, layout, v).row(0).objective)
    if "oma-greedy" in families:
        search = oma_greedy.best_placement_search(p, layout, v, rate, cfg.grid).solution.row(0)
        yield "oma-greedy", certify.power_sweep(p, layout, v, rate, search)
    if "noma" in families:
        yield "noma", certify.noma_search(p, layout, v, noma.solve_min_power(p, layout, v).row(0))
    if "outage" in families:
        if cfg.clustering:  # the closed form and this estimate assume uniform drops
            check = certify.skipped("monte-carlo 3-sigma", "clustered drops")
        else:
            estimate = outage.monte_carlo_outage(p, 2, rate, v, cfg.trials, cfg.seed)
            check = certify.outage_3sigma(
                estimate.probability, outage.closed_form_outage(p, rate, v), cfg.trials)
        yield "outage", check


def _certify_experiment(cfg: experiments.ExperimentConfig) -> None:
    """Spot-check the first trial of each sweep point; print every line, then raise on a failure."""
    failures = 0
    first_trials = experiments.layout_block(cfg, range(len(cfg.sweep_values)), 0)
    for sweep_idx, sweep_value in enumerate(cfg.sweep_values):
        internal = experiments.internal_sweep_value(cfg.sweep, sweep_value)
        for family, check in _spot_checks(cfg, first_trials[sweep_idx:sweep_idx + 1], internal):
            print(_certify_line(check, f"sweep={sweep_value:g} {family} "))
            failures += not check.ok
    if failures:
        raise CertificationError(f"{failures} experiment spot-checks failed")


def cmd_experiment(args: argparse.Namespace) -> int:
    merged = _collect_mapping(args)
    cfg = experiments.ExperimentConfig.from_mapping(merged)
    csv_text = experiments.run_experiment(cfg)
    if args.out:
        _write_out(args.out, csv_text)
        print(f"wrote {args.out} ({cfg.trials} trials x {len(cfg.sweep_values)} sweep points)")
    else:
        sys.stdout.write(csv_text)
    if args.certify:
        _certify_experiment(cfg)
    return 0


# ------------------------------------------------------------------ parser

# each subcommand's help line, whether it reads an instance file, and the config keys it takes as flags
_SUBCOMMANDS = {
    "maxmin": ("max-min rate placement for M users", True, ("power_dbm",)),
    "powermin": ("total-power-minimizing placement for M users", True, ("rate_bpcu",)),
    "outage": ("two-user outage probability under a per-user budget", False,
               ("power_dbm", "rate_bpcu", "users", "trials", "seed")),
    "greedy": ("two-user throughput placement with rate floors", True, ("power_dbm", "rate_bpcu")),
    "noma": ("two-user superposition power minimization", True, ("rate_bpcu",)),
    "experiment": ("Monte Carlo sweep, CSV output", False, ("trials", "users", "clustering", "seed")),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; main parses with one built on its first call."""
    parser = argparse.ArgumentParser(
        prog="pinchplace",
        description=__doc__,
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, reads_instance, keys) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        if reads_instance:
            p.add_argument("instance", help="instance file, one 'x y' user per line")
        for key in keys:  # no type: _collect_mapping hands the string to merge_config, as it does a --set value
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, help=experiments.CONFIG_KEYS[key].help)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="write the machine-readable report (JSON, or CSV for experiment) here")
        p.add_argument("--certify", action="store_true",
                       help="check the closed form against its brute-force oracle (exit 4 on failure)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps nothing between calls: each one returns a new namespace
    return build_parser()


@contextlib.contextmanager
def _debug_to_stderr():
    """For one call of main, send the package's DEBUG records to sys.stderr as it is for that call.

    Only the pinchplace logger is touched, and only for the call: it stops
    propagating meanwhile, so a host program's root handlers see no record
    twice, and its handlers, level and propagation come back afterwards.
    logging.basicConfig would not do: it does nothing once the root logger
    has a handler, and force=True would remove the host's handlers.
    """
    log = logging.getLogger("pinchplace")
    saved = log.level, log.propagate
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    log.propagate = False
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(saved[0])
        log.propagate = saved[1]


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, not bound into the cached parser, so that a wrapper
    # installed on a cmd_ function after the first call still runs
    handler = globals()[f"cmd_{args.command}"]
    # the package logs only at DEBUG, so without --verbose main leaves logging alone
    with _debug_to_stderr() if args.verbose else contextlib.nullcontext():
        try:
            return handler(args)
        except (ParseError, ConfigError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Infeasible as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return 3
        except CertificationError as exc:
            print(f"certification failure: {exc}", file=sys.stderr)
            return 4
        except (PinchError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
