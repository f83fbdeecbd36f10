"""Monte Carlo experiment sweeps over random user drops, emitting CSV.

One experiment sweeps either the total power budget (dBm) or the per-user
rate target (BPCU) and reports, per sweep point and scheme, the mean and
standard error of a scheme-specific metric over random layouts.  All schemes
at a given (sweep point, trial) see the same layout (common random numbers),
so scheme differences are paired; layouts come from counter-based streams
keyed by (seed, sweep index, trial index), which makes the CSV a pure
function of (config, seed) whatever order the trials run in.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from . import oma_fairness, oma_greedy, noma, outage, rng
from .core import (LayoutBlock, SystemParams, bpcu_to_nats, dbm_to_watt, min_power_terms,
                   nats_to_bpcu)
from .errors import ConfigError
from .oracle import GridSpec

logger = logging.getLogger(__name__)

AXIS_POWER = "power_dbm"
AXIS_RATE = "rate_bpcu"

_AXIS_DEFAULTS = {
    # each axis's own sweep range, for the range keys a config leaves unset
    AXIS_POWER: {"sweep_start": 0.0, "sweep_stop": 40.0, "sweep_points": 9},
    AXIS_RATE: {"sweep_start": 0.5, "sweep_stop": 4.0, "sweep_points": 8},
}


@dataclass(frozen=True)
class SchemeSpec:
    family: str  # the closed form whose certify check vouches for the scheme
    axis: str
    metric: str
    two_user_only: bool
    per_trial: bool  # False for sweep-level deterministic schemes


def _eval_maxmin(params, block, value, cfg):
    return nats_to_bpcu(oma_fairness.solve_max_min_rate(params, block, value).objective)


def _eval_maxmin_conv(params, block, value, cfg):
    return nats_to_bpcu(oma_fairness.conventional_max_min_rate(params, block, value))


def _eval_powermin(params, block, value, cfg):
    return oma_fairness.solve_min_total_power(params, block, value).objective


def _eval_powermin_conv(params, block, value, cfg):
    return oma_fairness.conventional_min_total_power(params, block, value)


# The greedy schemes' objective is -inf on an infeasible layout, which drops out
# of the row like any non-finite value.
def _eval_greedy(params, block, value, cfg):
    rate = bpcu_to_nats(cfg.rate_bpcu)
    return nats_to_bpcu(oma_greedy.best_placement_search(params, block, value, rate, cfg.grid).solution.objective)


def _eval_greedy_highsnr(params, block, value, cfg):
    found = oma_greedy.best_placement_high_snr(params, block, value, bpcu_to_nats(cfg.rate_bpcu))
    return nats_to_bpcu(found.solution.objective)


def _eval_greedy_conv(params, block, value, cfg):
    rate = bpcu_to_nats(cfg.rate_bpcu)
    return nats_to_bpcu(oma_greedy.split_power(params, block, value, rate, np.zeros(len(block))).solution.objective)


def _eval_noma(params, block, value, cfg):
    return noma.solve_min_power(params, block, value).total


def _eval_noma_conv(params, block, value, cfg):
    return noma.conventional_min_powers(params, block, value)


# Both outage schemes compare user 0's power with the budget (one per row): at the mean point and at x = 0.
def _eval_outage_mc(params, block, value, cfg):
    need = oma_fairness.solve_min_total_power(params, block, bpcu_to_nats(cfg.rate_bpcu)).powers[:, 0]
    return np.where(need >= value, 0.0, cfg.rate_bpcu)


@np.errstate(over="ignore")
def _eval_outage_mc_conv(params, block, value, cfg):
    terms = min_power_terms(params, block, bpcu_to_nats(cfg.rate_bpcu), slots=block.num_users)
    return np.where(terms.powers_at(0.0)[:, 0] >= value, 0.0, cfg.rate_bpcu)


def _eval_outage_analytic(params, layout, value, cfg):
    p = outage.closed_form_outage(params, bpcu_to_nats(cfg.rate_bpcu), value)
    return nats_to_bpcu(outage.outage_rate(p, bpcu_to_nats(cfg.rate_bpcu)))


# Per-trial evaluators map (params, LayoutBlock, internal values, config) to an
# array of one metric per layout, where the values are a float or a (B,) column
# with each layout's own sweep value; the sweep-level one maps (params, None,
# value, config) to the point's single value.
SCHEMES: dict[str, tuple[SchemeSpec, Callable]] = {
    "oma-maxmin": (SchemeSpec("oma-maxmin", AXIS_POWER, "min_rate_bpcu", False, True), _eval_maxmin),
    "oma-maxmin-conv": (SchemeSpec("oma-maxmin", AXIS_POWER, "min_rate_bpcu", False, True), _eval_maxmin_conv),
    "oma-powermin": (SchemeSpec("oma-powermin", AXIS_RATE, "total_power_w", False, True), _eval_powermin),
    "oma-powermin-conv": (SchemeSpec("oma-powermin", AXIS_RATE, "total_power_w", False, True),
                          _eval_powermin_conv),
    "oma-greedy": (SchemeSpec("oma-greedy", AXIS_POWER, "throughput_bpcu", True, True), _eval_greedy),
    "oma-greedy-highsnr": (SchemeSpec("oma-greedy", AXIS_POWER, "throughput_bpcu", True, True),
                           _eval_greedy_highsnr),
    "oma-greedy-conv": (SchemeSpec("oma-greedy", AXIS_POWER, "throughput_bpcu", True, True), _eval_greedy_conv),
    "noma": (SchemeSpec("noma", AXIS_RATE, "total_power_w", True, True), _eval_noma),
    "noma-conv": (SchemeSpec("noma", AXIS_RATE, "total_power_w", True, True), _eval_noma_conv),
    "outage": (SchemeSpec("outage", AXIS_POWER, "outage_rate_bpcu", True, False), _eval_outage_analytic),
    "outage-mc": (SchemeSpec("outage", AXIS_POWER, "outage_rate_bpcu", True, True), _eval_outage_mc),
    "outage-mc-conv": (SchemeSpec("outage", AXIS_POWER, "outage_rate_bpcu", True, True), _eval_outage_mc_conv),
}


class ConfigKey(NamedTuple):
    kind: type  # the type merge_config gives the value: float, int, bool or str
    default: object  # None only for a sweep range key, which then takes its axis's (_AXIS_DEFAULTS)
    help: str  # the --help text


CONFIG_KEYS: dict[str, ConfigKey] = {
    "fc_hz": ConfigKey(float, 28e9, "carrier frequency, Hz"),
    "noise_dbm": ConfigKey(float, -90.0, "noise power, dBm"),
    "height_m": ConfigKey(float, 3.0, "waveguide height, m"),
    "length_m": ConfigKey(float, 40.0, "service area along the waveguide, m"),
    "width_m": ConfigKey(float, 10.0, "service area across the waveguide, m"),
    "users": ConfigKey(int, 2, "number of users M"),
    "trials": ConfigKey(int, 1000, "Monte Carlo trials"),
    "seed": ConfigKey(int, 0, "64-bit master seed"),
    "clustering": ConfigKey(bool, False, "confine x to [-length/4, -length/8] when sampling"),
    "schemes": ConfigKey(str, "oma-maxmin,oma-maxmin-conv", "comma-separated scheme list"),
    "sweep": ConfigKey(str, AXIS_POWER, "sweep axis: power_dbm or rate_bpcu"),
    "sweep_start": ConfigKey(float, None, "first sweep value"),
    "sweep_stop": ConfigKey(float, None, "last sweep value"),
    "sweep_points": ConfigKey(int, None, "number of sweep values"),
    "rate_bpcu": ConfigKey(float, 1.0, "per-user rate target, bits per channel use"),
    "power_dbm": ConfigKey(float, 30.0, "total power budget (or outage budget), dBm"),
    "grid_points": ConfigKey(int, 2001, "experiment search-grid points"),
    "grid_refine": ConfigKey(int, 24, "golden-section refinement iterations"),
}

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

_KIND_NAMES = {float: "a finite number", int: "an integer", bool: "true or false", str: "a string"}


def merge_config(mapping: Mapping[str, object]) -> dict[str, object]:
    """Overlay user-supplied keys on the defaults, each value in its key's declared type (CONFIG_KEYS).

    Rejects unknown keys and values of another type.  Performs no cross-field validation; that
    belongs to the consumers (ExperimentConfig for sweeps, the CLI for single solves).
    """
    unknown = sorted(set(mapping) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged: dict[str, object] = {}
    for key, (kind, default, _) in CONFIG_KEYS.items():
        raw = mapping.get(key, default)
        merged[key] = _coerce(kind, raw)
        if merged[key] is None and not (raw is None and default is None):  # an unset sweep range stays None
            raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {raw!r}")
    return merged


def _coerce(kind: type, raw: object):
    """raw, a string (parsed once stripped) or a real number, as a kind value; None if it is none of them.

    A float is finite, an int exact (2.0 is 2, 2.5 is refused) and a bool one of _BOOL_STRINGS, 0 or 1.
    """
    if isinstance(raw, str):
        raw = raw.strip()
        if kind is str or kind is bool:
            return raw if kind is str else _BOOL_STRINGS.get(raw.lower())
    elif kind is str or not isinstance(raw, numbers.Real):
        return None
    elif kind is bool:
        return bool(raw) if raw in (0, 1) else None
    try:
        value = kind(raw)
    except (ValueError, OverflowError):
        return None
    if kind is int:  # a count or a seed is never rounded: 2.7 trials is an error, not 2
        return value if isinstance(raw, str) or value == raw else None
    return value if math.isfinite(value) else None


def build_params(merged: Mapping[str, object]) -> SystemParams:
    """SystemParams from a merged config mapping."""
    try:
        return SystemParams(
            carrier_hz=merged["fc_hz"],
            noise_w=dbm_to_watt(merged["noise_dbm"]),
            height_m=merged["height_m"],
            length_m=merged["length_m"],
            width_m=merged["width_m"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    schemes: tuple[str, ...]
    sweep: str
    sweep_values: tuple[float, ...]
    num_users: int
    trials: int
    seed: int
    clustering: bool
    rate_bpcu: float
    grid: GridSpec

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "ExperimentConfig":
        merged = merge_config(mapping)

        sweep = merged["sweep"]
        if sweep not in _AXIS_DEFAULTS:
            raise ConfigError(f"sweep must be one of {sorted(_AXIS_DEFAULTS)}, got {sweep!r}")
        start, stop, points = (axis if merged[key] is None else merged[key]
                               for key, axis in _AXIS_DEFAULTS[sweep].items())
        if points < 1:
            raise ConfigError("sweep_points must be >= 1")
        if stop < start:
            raise ConfigError("sweep_stop must be >= sweep_start")
        if stop - start == math.inf:
            raise ConfigError(f"sweep_stop - sweep_start is {stop - start}; it must be finite")
        values = tuple(float(v) for v in np.linspace(start, stop, points))

        schemes = tuple(s.strip() for s in merged["schemes"].split(",") if s.strip())
        if not schemes:
            raise ConfigError("schemes must name at least one scheme")
        for name in schemes:
            if name not in SCHEMES:
                raise ConfigError(f"unknown scheme {name!r}; known: {', '.join(sorted(SCHEMES))}")

        num_users = merged["users"]
        if num_users < 1:
            raise ConfigError("users must be >= 1")
        trials = merged["trials"]
        if trials < 1:
            raise ConfigError("trials must be >= 1")
        seed = merged["seed"]
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")
        rate_bpcu = merged["rate_bpcu"]
        if rate_bpcu <= 0:
            raise ConfigError("rate_bpcu must be positive")

        params = build_params(merged)

        grid = GridSpec(
            lo=-params.half_length,
            hi=params.half_length,
            points=merged["grid_points"],
            refine_iters=merged["grid_refine"],
        )

        cfg = cls(
            params=params,
            schemes=schemes,
            sweep=sweep,
            sweep_values=values,
            num_users=num_users,
            trials=trials,
            seed=seed,
            clustering=merged["clustering"],
            rate_bpcu=rate_bpcu,
            grid=grid,
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for name in self.schemes:
            spec, _ = SCHEMES[name]
            if spec.axis != self.sweep:
                raise ConfigError(
                    f"scheme {name!r} sweeps {spec.axis}, but the config sweeps {self.sweep}"
                )
            if spec.two_user_only and self.num_users != 2:
                raise ConfigError(f"scheme {name!r} requires users = 2, got {self.num_users}")
        if self.sweep == AXIS_RATE and self.sweep_values[0] <= 0:
            raise ConfigError("rate sweep values must be positive")
        if self.clustering and "outage" in self.schemes:
            raise ConfigError("the analytic outage scheme assumes uniform drops; "
                              "it cannot run with clustering")


def sample_layout(num_users: int, params: SystemParams, clustering: bool, generator) -> LayoutBlock:
    """Drop users uniformly over the service area, one layout per stream.

    generator is one numpy Generator, which gives a one-row block, or the
    rng.TrialStreams of a sweep point, which give one row per trial; each
    stream's first 2 * num_users draws place its layout.  With clustering,
    x is confined to the strip [-length/4, -length/8] (users bunch on one
    side of the waveguide) while y still spans the full width.
    """
    draws = np.reshape(generator.random((2, num_users)), (-1, 2, num_users))
    if clustering:
        x_lo, x_hi = -params.length_m / 4.0, -params.length_m / 8.0
    else:
        x_lo, x_hi = -params.half_length, params.half_length
    xs = x_lo + draws[:, 0] * (x_hi - x_lo)
    ys = (2.0 * draws[:, 1] - 1.0) * params.half_width
    return LayoutBlock(xs, ys)


def internal_sweep_value(sweep: str, value: float) -> float:
    """A sweep value in the solvers' units: watts from dBm, nats from BPCU."""
    return dbm_to_watt(value) if sweep == AXIS_POWER else bpcu_to_nats(value)


def layout_block(config: ExperimentConfig, sweep_idx, trials) -> LayoutBlock:
    """The layouts every scheme sees at some (sweep point, trial) cells, one row per cell.

    sweep_idx and trials are ints, ranges or integer arrays, broadcast
    against each other into rows.  Row i is drawn from the stream
    (seed, DOMAIN_LAYOUTS, sweep_idx[i], trials[i]) alone, so a layout does
    not depend on which other rows share its block.
    """
    streams = rng.TrialStreams(config.seed, rng.DOMAIN_LAYOUTS, sweep_idx, trials)
    return sample_layout(config.num_users, config.params, config.clustering, streams)


def sweep_blocks(config: ExperimentConfig) -> Iterator[tuple[range, LayoutBlock]]:
    """The sweep's layouts as drawn, in sweep order: (points, block) per draw.

    One draw covers as many whole points as one pass of the Philox kernel
    holds (rng.rows_per_pass); a point larger than that is drawn alone, one
    pass per chunk of rows.  The block holds trials rows per point: point
    points[k]'s trials are its rows k * trials to (k + 1) * trials.
    """
    points, trials = len(config.sweep_values), config.trials
    per_draw = max(1, rng.rows_per_pass(2 * config.num_users) // trials)
    for first in range(0, points, per_draw):
        drawn = range(first, min(first + per_draw, points))
        yield drawn, layout_block(config, np.repeat(np.arange(drawn.start, drawn.stop, dtype=np.uint64), trials),
                                  np.tile(np.arange(trials, dtype=np.uint64), len(drawn)))


def layout_digest(block: LayoutBlock) -> str:
    """sha256 of the users' float64 (x, y) coordinates, layout after layout."""
    import hashlib  # only DEBUG runs digest, and hashlib's import is a few ms of every start

    return hashlib.sha256(np.stack([block.xs, block.ys], -1).tobytes()).hexdigest()


def _format(value: float) -> str:
    return format(value, ".12g")


def run_experiment(config: ExperimentConfig) -> str:
    """Run the full sweep and return the CSV document as a string.

    Each draw of sweep_blocks goes whole to each per-trial scheme's evaluator
    once, with a (B,) column that gives every row its own point's internal
    sweep value; the metric columns of every scheme are then stacked into
    one (schemes x points, trials) table and summarised in one reduction per
    draw (_summaries), and each point's lines (and the sweep-level schemes'
    values) follow in sweep order.
    """
    lines = ["sweep_value,scheme,metric,mean,stderr,trials"]
    trials = config.trials
    internal = [internal_sweep_value(config.sweep, v) for v in config.sweep_values]
    per_trial = [name for name in config.schemes if SCHEMES[name][0].per_trial]

    for points, block in sweep_blocks(config):
        if logger.isEnabledFor(logging.DEBUG):
            for k, point in enumerate(points):
                logger.debug("sweep %s=%s layouts sha256=%s", config.sweep, config.sweep_values[point],
                             layout_digest(block[k * trials:(k + 1) * trials]))
        values = np.repeat(internal[points.start:points.stop], trials)
        stats = {}
        if per_trial:
            table = np.stack([np.asarray(SCHEMES[name][1](config.params, block, values, config), dtype=float)
                              for name in per_trial])
            summary = _summaries(table.reshape(len(per_trial) * len(points), trials))
            stats = {name: summary[s * len(points):(s + 1) * len(points)] for s, name in enumerate(per_trial)}

        for k, point in enumerate(points):
            for name in config.schemes:
                spec, evaluator = SCHEMES[name]
                if spec.per_trial:
                    mean, stderr, count = stats[name][k]
                else:
                    mean, stderr, count = evaluator(config.params, None, internal[point], config), 0.0, 1
                lines.append(f"{format(config.sweep_values[point], '.10g')},{name},{spec.metric},"
                             f"{_format(mean)},{_format(stderr)},{count}")

    return "\n".join(lines) + "\n"


def _summaries(table: np.ndarray) -> list[tuple[float, float, int]]:
    """Mean, standard error and count of the finite entries of each row of a (rows, trials) table.

    A row is one (scheme, sweep point) cell of a draw.  The rows whose every
    trial is finite are copied out as one C-contiguous block and share one
    mean and one std(ddof=1) reduction along axis 1, which adds each row in
    the order a 1-D reduction of that row alone uses (see core.row_sum), so
    a cell's figures do not depend on the other rows of its table.  A row
    with a dropped (non-finite) trial is compacted to its finite entries and
    taken as a one-row table; one with none left gives (NaN, NaN, 0).  A
    single trial has standard error 0.  A row whose sum or squares overflow
    although its trials are finite is summarised again divided by the power
    of two just above its largest magnitude, which rounds nothing but
    subnormals, and scaled back.
    """
    rows, trials = table.shape
    if trials == 0:
        return [(math.nan, math.nan, 0)] * rows
    finite = np.isfinite(table)
    whole = finite.all(axis=1)
    kept = table[whole]
    with np.errstate(over="ignore", invalid="ignore"):
        means = kept.mean(axis=1)
        stderrs = kept.std(axis=1, ddof=1) / math.sqrt(trials) if trials > 1 else np.zeros(len(kept))
    for k in np.flatnonzero(~(np.isfinite(means) & np.isfinite(stderrs))):
        exp = math.frexp(float(np.abs(kept[k]).max()))[1]
        scaled = np.ldexp(kept[k], -exp)
        means[k] = math.ldexp(float(scaled.mean()), exp)
        stderrs[k] = math.ldexp(float(scaled.std(ddof=1)) / math.sqrt(trials), exp)
    stats = iter(zip(means.tolist(), stderrs.tolist()))
    return [(*next(stats), trials) if all_finite else _summaries(table[k, finite[k]][None, :])[0]
            for k, all_finite in enumerate(whole.tolist())]
