"""Throughput-maximizing placement for a two-user time-shared downlink.

Given a total budget and a per-user rate floor, the optimal power split at a
fixed antenna position is one of three closed-form cases (either user pinned
to its floor, or an equalizing interior split).  The placement itself is found
two ways: a certified grid search over the waveguide, and a fast route that
observes that at high power the objective is dominated by the product of the
two squared distances, whose stationary points are the real roots of a cubic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (PlacementSolution, SystemParams, UserLayout, path_gain, power_coeff, squared_distance,
                   user_pair)
from .errors import Infeasible
from .oracle import GridSpec, grid_optimize, grid_optimize_rows

logger = logging.getLogger(__name__)

CASE_FLOOR_AT_2 = "boundary-at-2"
CASE_FLOOR_AT_1 = "boundary-at-1"
CASE_INTERIOR = "interior"

# A budget may undershoot the floor sum by this relative slack before the
# split is declared infeasible; keeps exact-boundary instances solvable.
_FEAS_SLACK = 1e-12


@dataclass(frozen=True)
class PowerSplit:
    p1: float
    p2: float
    case: str

    @property
    def total(self) -> float:
        return self.p1 + self.p2


@dataclass(frozen=True)
class RootPlacement:
    """Placement picked among the cubic's roots and the interval endpoints."""

    solution: PlacementSolution
    roots: tuple[float, ...]
    winner: float
    allocation_case: str


def _coords(layout: UserLayout) -> tuple[float, float, float, float]:
    """(x1, y1, x2, y2) of a two-user layout."""
    (x1, y1), (x2, y2) = user_pair(layout)
    return x1, y1, x2, y2


def _geometry(params: SystemParams, users, gain: float, x):
    """Squared distances tau_1, tau_2 at position(s) x and their scalings q_m = noise * tau_m / gain.

    users is (x1, y1, x2, y2), each a scalar or an array that broadcasts against x.
    """
    x1, y1, x2, y2 = users
    t1 = squared_distance(x1, y1, x, params.height_m)
    t2 = squared_distance(x2, y2, x, params.height_m)
    return t1, t2, params.noise_w * t1 / gain, params.noise_w * t2 / gain


def split_power(
    params: SystemParams,
    layout: UserLayout,
    total_w: float,
    rate_nats: float,
    x: float,
) -> PowerSplit:
    """Optimal two-user power split at antenna position x.

    Maximizes the sum rate subject to both users reaching rate_nats.  The
    multiplier analysis leaves three cases: pin user 2 to its floor when the
    marginal-rate comparison 1/(P - floor_2 + q_1) - 1/(floor_2 + q_2) is
    nonnegative (q_m being noise * tau_m / gain), the mirrored case for
    user 1, and otherwise the interior split P/2 + (q_2 - q_1)/2 that
    equalizes the effective channels.  Raises Infeasible when the budget
    cannot cover both floors.
    """
    if total_w <= 0:
        raise ValueError("total power budget must be positive")
    coeff = power_coeff(params, rate_nats, 2)
    t1, t2, q1, q2 = _geometry(params, _coords(layout), path_gain(params), x)
    floor1 = coeff * t1
    floor2 = coeff * t2

    if total_w < floor1 + floor2 - _FEAS_SLACK * total_w:
        raise Infeasible(
            f"budget {total_w} W cannot cover both rate floors ({floor1 + floor2} W) at x = {x}"
        )

    pin_2 = 1.0 / (total_w - floor2 + q1) - 1.0 / (floor2 + q2)
    pin_1 = 1.0 / (total_w - floor1 + q2) - 1.0 / (floor1 + q1)
    if pin_2 >= 0.0:
        if pin_1 >= 0.0:
            # only possible on the exact feasibility boundary; first case wins
            logger.debug("both boundary cases active at x=%r, keeping %s", x, CASE_FLOOR_AT_2)
        return PowerSplit(p1=total_w - floor2, p2=floor2, case=CASE_FLOOR_AT_2)
    if pin_1 >= 0.0:
        return PowerSplit(p1=floor1, p2=total_w - floor1, case=CASE_FLOOR_AT_1)
    p1 = total_w / 2.0 + q2 / 2.0 - q1 / 2.0
    return PowerSplit(p1=p1, p2=total_w - p1, case=CASE_INTERIOR)


def sum_rate(params: SystemParams, layout: UserLayout, x: float, split: PowerSplit) -> float:
    """Sum of the two per-user rates for a given split, in nats per channel use."""
    _, _, q1, q2 = _geometry(params, _coords(layout), path_gain(params), x)
    return 0.5 * (math.log1p(split.p1 / q1) + math.log1p(split.p2 / q2))


def _sum_rate_curve(
    params: SystemParams, users, gain: float, coeff: float, total_w: float, xs: np.ndarray
) -> np.ndarray:
    """Vectorized sum rate of the optimal split along xs; -inf where infeasible.

    users is (x1, y1, x2, y2) as in _geometry; gain is path_gain(params) and
    coeff is power_coeff(params, rate_nats, 2).
    """
    t1, t2, q1, q2 = _geometry(params, users, gain, xs)
    floor1 = coeff * t1
    floor2 = coeff * t2
    feasible = total_w >= floor1 + floor2 - _FEAS_SLACK * total_w

    with np.errstate(divide="ignore", invalid="ignore"):
        pin_2 = 1.0 / (total_w - floor2 + q1) - 1.0 / (floor2 + q2)
        pin_1 = 1.0 / (total_w - floor1 + q2) - 1.0 / (floor1 + q1)
        p1 = np.where(
            pin_2 >= 0.0,
            total_w - floor2,
            np.where(pin_1 >= 0.0, floor1, total_w / 2.0 + q2 / 2.0 - q1 / 2.0),
        )
        p2 = total_w - p1
        rates = 0.5 * (np.log1p(p1 / q1) + np.log1p(p2 / q2))
    return np.where(feasible, rates, -np.inf)


def _curves(params: SystemParams, layouts: list[UserLayout], total_w: float, rate_nats: float):
    """The sum-rate curve of each layout as one oracle row objective."""
    for layout in layouts:
        layout.validate(params)
    users = [_coords(layout) for layout in layouts]
    columns = np.array(users, dtype=float).T
    gain, coeff = path_gain(params), power_coeff(params, rate_nats, 2)

    def objective(rows, xs: np.ndarray) -> np.ndarray:
        # one row's plain scalars, or one column entry per probed row
        block = users[rows] if isinstance(rows, int) else tuple(columns[:, rows])
        return _sum_rate_curve(params, block, gain, coeff, total_w, xs)

    return objective


def _placement(
    params: SystemParams, layout: UserLayout, total_w: float, rate_nats: float, x: float
) -> PlacementSolution:
    split = split_power(params, layout, total_w, rate_nats, x)
    return PlacementSolution(x_star=x, powers=(split.p1, split.p2),
                             objective=sum_rate(params, layout, x, split))


def best_placement_search(
    params: SystemParams,
    layout: UserLayout,
    total_w: float,
    rate_nats: float,
    spec: GridSpec,
) -> PlacementSolution:
    """Certified route: grid search over x with the closed-form split at each point.

    Raises Infeasible when no grid point can cover both rate floors.
    """
    curve = _curves(params, [layout], total_w, rate_nats)
    x_best, _ = grid_optimize(lambda xs: curve(0, xs), spec, sense="max", skip_nonfinite=True)
    return _placement(params, layout, total_w, rate_nats, x_best)


def best_placements_search(
    params: SystemParams,
    layouts: list[UserLayout],
    total_w: float,
    rate_nats: float,
    spec: GridSpec,
) -> list[PlacementSolution | None]:
    """best_placement_search of each layout of a block, bit for bit; None where it is infeasible.

    One _sum_rate_curve call serves the golden-section probes of every layout
    in an iteration, so a block costs much less than its layouts one by one.
    """
    found = grid_optimize_rows(_curves(params, layouts, total_w, rate_nats), spec, len(layouts),
                               sense="max", skip_nonfinite=True)
    return [None if f is None else _placement(params, layout, total_w, rate_nats, f[0])
            for layout, f in zip(layouts, found)]


def _derivative(layout: UserLayout, height_m: float, x: float) -> float:
    """d/dx of tau_1(x) tau_2(x), the product of the two squared distances, factored."""
    (x1, y1), (x2, y2) = user_pair(layout)
    h2 = height_m * height_m
    a = y1 * y1 + h2
    b = y2 * y2 + h2
    return 2.0 * ((x - x1) * (x - x2) * (2.0 * x - x1 - x2) + (a + b) * x - (b * x1 + a * x2))


def _second_derivative(layout: UserLayout, height_m: float, x: float) -> float:
    (x1, y1), (x2, y2) = user_pair(layout)
    h2 = height_m * height_m
    a = y1 * y1 + h2
    b = y2 * y2 + h2
    return 2.0 * (
        (x - x2) * (2.0 * x - x1 - x2)
        + (x - x1) * (2.0 * x - x1 - x2)
        + 2.0 * (x - x1) * (x - x2)
        + a
        + b
    )


def derivative_roots(layout: UserLayout, height_m: float) -> tuple[float, ...]:
    """Real roots of d/dx [tau_1(x) tau_2(x)], ascending.

    The derivative reduces, after centring at the user midpoint, to the
    depressed cubic u^3 + p u + q with p = (a + b - 2 h^2)/2 and
    q = h (b - a)/2, where a and b are the users' fixed squared offsets and
    h is half their x separation.  Solved by the trigonometric form when all
    three roots are real and Cardano otherwise, then polished by Newton steps
    and deduplicated within a 1e-9 cluster width.
    """
    (x1, y1), (x2, y2) = user_pair(layout)
    h2 = height_m * height_m
    a = y1 * y1 + h2
    b = y2 * y2 + h2
    mid = (x1 + x2) / 2.0
    half = (x2 - x1) / 2.0
    p = (a + b - 2.0 * half * half) / 2.0
    q = half * (b - a) / 2.0

    if p == 0.0 and q == 0.0:
        centred = [0.0]
    else:
        disc = (q / 2.0) * (q / 2.0) + (p / 3.0) ** 3
        if disc > 0.0:
            root = math.sqrt(disc)
            centred = [_cbrt(-q / 2.0 + root) + _cbrt(-q / 2.0 - root)]
        elif disc < 0.0:
            # three real roots; only reachable with p < 0
            radius = 2.0 * math.sqrt(-p / 3.0)
            cos_arg = 3.0 * q / (p * radius)
            cos_arg = min(1.0, max(-1.0, cos_arg))
            phase = math.acos(cos_arg)
            centred = [
                radius * math.cos(phase / 3.0 - 2.0 * math.pi * k / 3.0) for k in (0, 1, 2)
            ]
        else:
            centred = [0.0] if p == 0.0 else [3.0 * q / p, -3.0 * q / (2.0 * p)]

    scale = max(1.0, abs(x1), abs(x2), math.sqrt(a), math.sqrt(b))
    polished = sorted(_polish(layout, height_m, mid + u) for u in centred)
    roots: list[float] = []
    for r in polished:
        if not roots or r - roots[-1] > 1e-9 * scale:
            roots.append(r)
    return tuple(roots)


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _polish(layout: UserLayout, height_m: float, x: float) -> float:
    for _ in range(8):
        f = _derivative(layout, height_m, x)
        fp = _second_derivative(layout, height_m, x)
        if fp == 0.0:
            break
        step = f / fp
        x -= step
        if abs(step) <= 1e-15 * max(1.0, abs(x)):
            break
    return x


def best_placement_high_snr(
    params: SystemParams,
    layout: UserLayout,
    total_w: float,
    rate_nats: float,
) -> RootPlacement:
    """Fast route: place the antenna at the best stationary point of the
    distance product, falling back to the interval endpoints.

    Exact when the budget is large enough that the interior split wins
    everywhere (the sum rate then decreases in the distance product); at
    moderate budgets it is an approximation and the grid search is the
    reference.  The winning candidate and its allocation case are recorded so
    callers can see when the high-power premise did not hold.
    """
    layout.validate(params)
    hl = params.half_length
    roots = derivative_roots(layout, params.height_m)
    candidates: list[float] = sorted(
        {min(hl, max(-hl, r)) for r in roots} | {-hl, hl}
    )

    best: tuple[float, float, PowerSplit] | None = None
    for x in candidates:
        try:
            split = split_power(params, layout, total_w, rate_nats, x)
        except Infeasible:
            continue
        value = sum_rate(params, layout, x, split)
        if best is None or value > best[1]:
            best = (x, value, split)
    if best is None:
        raise Infeasible("no candidate position can cover both rate floors")

    x_star, value, split = best
    return RootPlacement(
        solution=PlacementSolution(x_star=x_star, powers=(split.p1, split.p2), objective=value),
        roots=roots,
        winner=x_star,
        allocation_case=split.case,
    )

