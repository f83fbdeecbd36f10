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

import hashlib
import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

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
    # documented artifact defaults, overridable per config
    AXIS_POWER: (0.0, 40.0, 9),
    AXIS_RATE: (0.5, 4.0, 8),
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
    return nats_to_bpcu(oma_greedy.best_placements_search(params, block, value, rate, cfg.grid).objective)


def _eval_greedy_highsnr(params, block, value, cfg):
    found = oma_greedy.best_placements_high_snr(params, block, value, bpcu_to_nats(cfg.rate_bpcu))
    return nats_to_bpcu(found.solution.objective)


def _eval_greedy_conv(params, block, value, cfg):
    rate = bpcu_to_nats(cfg.rate_bpcu)
    return nats_to_bpcu(oma_greedy.placements_at(params, block, value, rate, np.zeros(len(block))).objective)


def _eval_noma(params, block, value, cfg):
    return noma.solve_min_power(params, block, value).total


def _eval_noma_conv(params, block, value, cfg):
    return noma.conventional_min_powers(params, block, value)


# Both outage schemes compare user 0's power with the budget: at the mean point and at x = 0.
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


# Per-trial evaluators map (params, LayoutBlock, internal value, config) to an
# array of one metric per layout; the sweep-level one maps (params, None,
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

_DEFAULTS: dict[str, object] = {
    "fc_hz": 28e9,
    "noise_dbm": -90.0,
    "height_m": 3.0,
    "length_m": 40.0,
    "width_m": 10.0,
    "users": 2,
    "trials": 1000,
    "seed": 0,
    "clustering": False,
    "schemes": "oma-maxmin,oma-maxmin-conv",
    "sweep": AXIS_POWER,
    "sweep_start": None,
    "sweep_stop": None,
    "sweep_points": None,
    "rate_bpcu": 1.0,
    "power_dbm": 30.0,
    "grid_points": 2001,
    "grid_refine": 24,
}

_INTEGER_KEYS = frozenset({"users", "trials", "seed", "sweep_points", "grid_points", "grid_refine"})

_BOOL_STRINGS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def merge_config(mapping: Mapping[str, object]) -> dict[str, object]:
    """Overlay user-supplied keys on the defaults, coercing string values.

    Rejects unknown keys.  Performs no cross-field validation; that belongs
    to the consumers (ExperimentConfig for sweeps, the CLI for single solves).
    """
    unknown = sorted(set(mapping) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    merged: dict[str, object] = {}
    for key, default in _DEFAULTS.items():
        raw = mapping.get(key, default)
        merged[key] = None if raw is None else _coerce(key, raw)
        if isinstance(merged[key], float) and not math.isfinite(merged[key]):
            raise ConfigError(f"{key} must be a finite number, got {merged[key]!r}")
    return merged


def build_params(merged: Mapping[str, object]) -> SystemParams:
    """SystemParams from a merged config mapping."""
    try:
        return SystemParams(
            carrier_hz=float(merged["fc_hz"]),
            noise_w=dbm_to_watt(float(merged["noise_dbm"])),
            height_m=float(merged["height_m"]),
            length_m=float(merged["length_m"]),
            width_m=float(merged["width_m"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _coerce(key: str, raw: object):
    if isinstance(raw, str):
        raw = raw.strip()
        if key in ("schemes", "sweep"):
            return raw
        if key == "clustering":
            if raw.lower() not in _BOOL_STRINGS:
                raise ConfigError(f"{key} must be true or false, got {raw!r}")
            return _BOOL_STRINGS[raw.lower()]
    if key in _INTEGER_KEYS:
        # a count or a seed is never rounded: 2.7 trials is an error, not 2
        try:
            value = int(raw)
        except (TypeError, ValueError, OverflowError):
            value = None
        if value is None or (not isinstance(raw, str) and value != raw):
            raise ConfigError(f"{key} must be an integer, got {raw!r}")
        return value
    if isinstance(raw, str):
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


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
        d_start, d_stop, d_points = _AXIS_DEFAULTS[sweep]
        start = merged["sweep_start"] if merged["sweep_start"] is not None else d_start
        stop = merged["sweep_stop"] if merged["sweep_stop"] is not None else d_stop
        points = merged["sweep_points"] if merged["sweep_points"] is not None else d_points
        if points < 1:
            raise ConfigError("sweep_points must be >= 1")
        if stop < start:
            raise ConfigError("sweep_stop must be >= sweep_start")
        values = tuple(float(v) for v in np.linspace(float(start), float(stop), points))

        schemes = tuple(s.strip() for s in str(merged["schemes"]).split(",") if s.strip())
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
        rate_bpcu = float(merged["rate_bpcu"])
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
            clustering=bool(merged["clustering"]),
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


def sweep_blocks(config: ExperimentConfig) -> Iterator[LayoutBlock]:
    """Each sweep point's LayoutBlock, one row per trial, in sweep order.

    One draw covers as many whole points as one pass of the Philox kernel
    holds; a point larger than that is drawn alone, one pass per chunk of rows.
    """
    points, trials = len(config.sweep_values), config.trials
    per_draw = max(1, rng.rows_per_pass(2 * config.num_users) // trials)
    for first in range(0, points, per_draw):
        drawn = min(per_draw, points - first)
        block = layout_block(config, np.repeat(np.arange(first, first + drawn, dtype=np.uint64), trials),
                             np.tile(np.arange(trials, dtype=np.uint64), drawn))
        for start in range(0, drawn * trials, trials):
            yield block[start:start + trials]


def layout_digest(block: LayoutBlock) -> str:
    """sha256 of the users' float64 (x, y) coordinates, layout after layout."""
    return hashlib.sha256(np.stack([block.xs, block.ys], -1).tobytes()).hexdigest()


def _format(value: float) -> str:
    return format(value, ".12g")


def run_experiment(config: ExperimentConfig) -> str:
    """Run the full sweep and return the CSV document as a string.

    Each sweep point's layouts form one LayoutBlock (sweep_blocks), which
    goes whole to each scheme's evaluator once.
    """
    lines = ["sweep_value,scheme,metric,mean,stderr,trials"]

    for sweep_value, block in zip(config.sweep_values, sweep_blocks(config)):
        internal = internal_sweep_value(config.sweep, sweep_value)
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug("sweep %s=%s layouts sha256=%s", config.sweep, sweep_value, layout_digest(block))

        for name in config.schemes:
            spec, evaluator = SCHEMES[name]
            if not spec.per_trial:
                mean = evaluator(config.params, None, internal, config)
                stderr, count = 0.0, 1
            else:
                column = np.asarray(evaluator(config.params, block, internal, config), dtype=float)
                finite = np.isfinite(column)
                count = int(finite.sum())
                if count == 0:
                    mean, stderr = math.nan, math.nan
                else:
                    kept = column[finite]
                    mean = float(kept.mean())
                    stderr = float(kept.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
            lines.append(
                f"{format(sweep_value, '.10g')},{name},{spec.metric},"
                f"{_format(mean)},{_format(stderr)},{count}"
            )

    return "\n".join(lines) + "\n"
