"""Certification of the closed forms against brute-force oracles.

Each check compares a closed-form value with a reference that shares none of
its algebra (a position grid, a power-split sweep, the NOMA position/order
search or Monte Carlo) and returns one ``Check`` record.  The instance
checks take the instance as a one-row LayoutBlock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noma, oracle
from .core import (LayoutBlock, PlacementSolution, SystemParams, one_pair, one_row, path_gain, power_coeff,
                   squared_distance)

# certification tolerances: closed forms must match their brute-force oracles
CERT_REL = 1e-9            # max-min / power-min / NOMA objective, relative
CERT_SPLIT_NATS = 1e-9     # two-user split vs power sweep, absolute nats
_SPLIT_SWEEP_POINTS = 100001


@dataclass(frozen=True)
class Check:
    """The closed form's value against the oracle's reference; ok when gap is within tol."""

    name: str
    value: float
    reference: float
    gap: float
    tol: float
    ok: bool


def relative_gap(value: float, reference: float) -> float:
    """(value - reference) / |reference|, 0 when equal and +-inf when only the reference is 0."""
    if value == reference:
        return 0.0
    if reference == 0.0:
        return math.copysign(math.inf, value - reference)
    return (value - reference) / abs(reference)


def skipped(name: str, reason: str) -> Check:
    """A check with nothing to certify on this input; it passes with NaN figures."""
    return Check(f"{name} ({reason} skipped)", math.nan, math.nan, math.nan, math.nan, True)


def _grid_reference(params: SystemParams, block: LayoutBlock, of_tau_sum, sense: str) -> float:
    """The position grid's best of of_tau_sum(sum over users of the squared distances) for a one-row block."""
    xs_u, ys_u = one_row(block).xs, block.ys
    h = params.height_m

    def objective(xs: np.ndarray) -> np.ndarray:
        return of_tau_sum(squared_distance(xs_u, ys_u, xs[:, None], h).sum(axis=1))

    grid = oracle.certification_grid(-params.half_length, params.half_length)
    return oracle.grid_optimize(objective, grid, sense=sense)[1]


def _maxmin_oracle(params: SystemParams, block: LayoutBlock, total_w: float) -> float:
    g, noise_w, num_users = path_gain(params), params.noise_w, block.num_users
    return _grid_reference(params, block, lambda tau_sum: np.log1p(g * total_w / (noise_w * tau_sum)) / num_users,
                           "max")


def _powermin_oracle(params: SystemParams, block: LayoutBlock, rate_nats: float) -> float:
    coeff = power_coeff(params, rate_nats, block.num_users)
    return _grid_reference(params, block, lambda tau_sum: coeff * tau_sum, "min")


def _split_sweep_value(
    params: SystemParams, block: LayoutBlock, total_w: float, rate_nats: float, x: float
) -> float:
    """Best sum rate over a dense sweep of the first user's power at fixed x."""
    coeff = power_coeff(params, rate_nats, 2)
    h = params.height_m
    (x1, y1), (x2, y2) = one_pair(block)
    t1 = squared_distance(x1, y1, x, h)
    t2 = squared_distance(x2, y2, x, h)
    g = path_gain(params)
    q1, q2 = params.noise_w * t1 / g, params.noise_w * t2 / g
    floor1, floor2 = coeff * t1, coeff * t2

    def evaluator(p1s: np.ndarray) -> np.ndarray:
        p2s = total_w - p1s
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = 0.5 * (np.log1p(p1s / q1) + np.log1p(p2s / q2))
        feasible = (p1s >= floor1 - 1e-12 * total_w) & (p2s >= floor2 - 1e-12 * total_w)
        return np.where(feasible, rates, -np.inf)

    spec = oracle.GridSpec(lo=0.0, hi=total_w, points=_SPLIT_SWEEP_POINTS, refine_iters=40)
    return oracle.power_split_sweep(evaluator, total_w, spec)[1]


def maxmin(params: SystemParams, block: LayoutBlock, total_w: float, objective: float) -> Check:
    """The max-min rate (nats) may not fall below the position grid's best."""
    reference = _maxmin_oracle(params, block, total_w)
    gap = relative_gap(objective, reference)
    return Check("grid", objective, reference, gap, CERT_REL, math.isfinite(gap) and gap >= -CERT_REL)


def powermin(params: SystemParams, block: LayoutBlock, rate_nats: float, objective: float) -> Check:
    """The minimum total power (W) may not exceed the position grid's best."""
    reference = _powermin_oracle(params, block, rate_nats)
    gap = relative_gap(objective, reference)
    return Check("grid", objective, reference, gap, CERT_REL, math.isfinite(gap) and gap <= CERT_REL)


def power_sweep(params: SystemParams, block: LayoutBlock, total_w: float, rate_nats: float,
                search: PlacementSolution) -> Check:
    """No swept power split at the searched position may beat its KKT split (nats)."""
    reference = _split_sweep_value(params, block, total_w, rate_nats, search.x_star)
    gap = reference - search.objective
    return Check("power-sweep", search.objective, reference, gap, CERT_SPLIT_NATS, gap <= CERT_SPLIT_NATS)


def fast_below_search(fast: float, search: float) -> Check:
    """The cubic route tries a subset of the search's positions, so it may not beat it (nats)."""
    return Check("fast<=search", fast, search, fast - search, CERT_SPLIT_NATS, fast <= search + CERT_SPLIT_NATS)


def noma_search(params: SystemParams, block: LayoutBlock, rate_nats: float,
                solution: noma.NomaSolution) -> Check:
    """NOMA total power (W) against the position/order search, which it must match."""
    grid = oracle.certification_grid(-params.half_length, params.half_length)
    reference = noma.solve_min_power_search(params, block, rate_nats, grid).total
    gap = relative_gap(solution.total, reference)
    return Check("search", solution.total, reference, gap, CERT_REL, abs(gap) <= CERT_REL)


def outage_3sigma(probability: float, analytic: float, trials: int) -> Check:
    """A Monte Carlo outage estimate within 3 binomial sigmas of the closed form."""
    tol = 3.0 * math.sqrt(analytic * (1.0 - analytic) / trials) + 1e-12
    return Check("monte-carlo 3-sigma", probability, analytic, probability - analytic, tol,
                 abs(probability - analytic) <= tol)
