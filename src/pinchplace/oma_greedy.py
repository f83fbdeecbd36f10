"""Throughput-maximizing placement for a two-user time-shared downlink.

Given a total budget and a per-user rate floor, the optimal power split at a
fixed antenna position is one of three closed-form cases (either user pinned
to its floor, or an equalizing interior split).  The placement itself is found
two ways: a certified grid search over the waveguide, and a fast route that
observes that at high power the objective is dominated by the product of the
two squared distances, whose stationary points are the real roots of a cubic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (PlacementSolution, SystemParams, UserLayout, path_gain, power_coeff, squared_distance,
                   user_pair)
from .errors import Infeasible
from .oracle import GridSpec, grid_optimize, grid_optimize_rows

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


def _geometry(params: SystemParams, users, gain: float, x):
    """Squared distances tau_1, tau_2 at position(s) x and their scalings q_m = noise * tau_m / gain.

    users is (x1, y1, x2, y2), each a scalar or an array that broadcasts against x.
    """
    x1, y1, x2, y2 = users
    t1 = squared_distance(x1, y1, x, params.height_m)
    t2 = squared_distance(x2, y2, x, params.height_m)
    return t1, t2, params.noise_w * t1 / gain, params.noise_w * t2 / gain


def _columns(params: SystemParams, layouts: list[UserLayout]) -> np.ndarray:
    """(x1, y1, x2, y2) of each two-user layout of a block as the rows of a (4, B) array.

    Raises ValueError when a user is outside the service area.
    """
    for layout in layouts:
        layout.validate(params)
    return np.array([user_pair(layout) for layout in layouts], dtype=float).reshape(-1, 4).T


def _rate_sum(q1, q2, p1, p2):
    """Sum of the two time-shared user rates, in nats per channel use."""
    return 0.5 * (np.log1p(p1 / q1) + np.log1p(p2 / q2))


def _kkt(params: SystemParams, users, gain: float, coeff: float, total_w: float, x):
    """The optimal two-user power split at position(s) x: (p1, p2, pin_2, pin_1, sum rate).

    Maximizes the sum rate subject to both users reaching the rate floor
    coeff * tau_m.  The multiplier analysis leaves three cases: pin user 2 to
    its floor when the marginal-rate comparison
    pin_2 = 1/(P - floor_2 + q_1) - 1/(floor_2 + q_2) is nonnegative (q_m
    being noise * tau_m / gain), the mirrored case pin_1 for user 1, and
    otherwise the interior split P/2 + (q_2 - q_1)/2 that equalizes the
    effective channels.  The sum rate is -inf where the budget cannot cover
    both floors.  users is (x1, y1, x2, y2) as in _geometry; gain is
    path_gain(params) and coeff is power_coeff(params, rate_nats, 2).
    """
    t1, t2, q1, q2 = _geometry(params, users, gain, x)
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
        rates = _rate_sum(q1, q2, p1, p2)
    return p1, p2, pin_2, pin_1, np.where(feasible, rates, -np.inf)


def _case(pin_2: float, pin_1: float) -> str:
    # both tests hold only on the exact feasibility boundary; the first case wins
    return CASE_FLOOR_AT_2 if pin_2 >= 0.0 else CASE_FLOOR_AT_1 if pin_1 >= 0.0 else CASE_INTERIOR


def _splits(params: SystemParams, layouts: list[UserLayout], total_w: float, rate_nats: float, xs):
    """_kkt of each layout of a block at its own row of positions xs, shape (B, K)."""
    if total_w <= 0:
        raise ValueError("total power budget must be positive")
    users = tuple(_columns(params, layouts)[:, :, None])
    return _kkt(params, users, path_gain(params), power_coeff(params, rate_nats, 2), total_w,
                np.asarray(xs, dtype=float))


def split_power(params: SystemParams, layout: UserLayout, total_w: float, rate_nats: float, x: float) -> PowerSplit:
    """Optimal two-user power split at antenna position x (the three cases of _kkt).

    Raises Infeasible when the budget cannot cover both floors.
    """
    p1, p2, pin_2, pin_1, rate = (v.item() for v in _splits(params, [layout], total_w, rate_nats, [[x]]))
    if rate == -math.inf:
        raise Infeasible(f"budget {total_w} W cannot cover both rate floors at x = {x}")
    return PowerSplit(p1=p1, p2=p2, case=_case(pin_2, pin_1))


def sum_rate(params: SystemParams, layout: UserLayout, x: float, split: PowerSplit) -> float:
    """Sum of the two per-user rates for a given split, in nats per channel use."""
    _, _, q1, q2 = _geometry(params, _columns(params, [layout]), path_gain(params), x)
    return _rate_sum(q1, q2, split.p1, split.p2).item()


def _curves(params: SystemParams, layouts: list[UserLayout], total_w: float, rate_nats: float):
    """The sum-rate curve of each layout as one oracle row objective."""
    columns = _columns(params, layouts)
    users = columns.T.tolist()
    gain, coeff = path_gain(params), power_coeff(params, rate_nats, 2)

    def objective(rows, xs: np.ndarray) -> np.ndarray:
        # one row's plain scalars, or one column entry per probed row
        block = users[rows] if isinstance(rows, int) else tuple(columns[:, rows])
        return _kkt(params, block, gain, coeff, total_w, xs)[4]

    return objective


def placements_at(
    params: SystemParams, layouts: list[UserLayout], total_w: float, rate_nats: float, xs
) -> list[PlacementSolution | None]:
    """The optimal split and sum rate of each layout of a block at its position in xs; None where infeasible."""
    p1, p2, _, _, rate = (v.ravel().tolist() for v in
                          _splits(params, layouts, total_w, rate_nats, np.reshape(xs, (-1, 1))))
    return [None if r == -math.inf else PlacementSolution(x_star=float(x), powers=(a, b), objective=r)
            for x, a, b, r in zip(xs, p1, p2, rate)]


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
    return placements_at(params, [layout], total_w, rate_nats, [x_best])[0]


def best_placements_search(
    params: SystemParams,
    layouts: list[UserLayout],
    total_w: float,
    rate_nats: float,
    spec: GridSpec,
) -> list[PlacementSolution | None]:
    """best_placement_search of each layout of a block, bit for bit; None where it is infeasible.

    One KKT evaluation serves the golden-section probes of every layout in an
    iteration, and one more places every feasible layout, so a block costs
    much less than its layouts one by one.
    """
    found = grid_optimize_rows(_curves(params, layouts, total_w, rate_nats), spec, len(layouts),
                               sense="max", skip_nonfinite=True)
    kept = [i for i, f in enumerate(found) if f is not None]
    placed = placements_at(params, [layouts[i] for i in kept], total_w, rate_nats,
                           [found[i][0] for i in kept]) if kept else []
    solutions = dict(zip(kept, placed))
    return [solutions.get(i) for i in range(len(layouts))]


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


def best_placements_high_snr(
    params: SystemParams,
    layouts: list[UserLayout],
    total_w: float,
    rate_nats: float,
) -> list[RootPlacement | None]:
    """best_placement_high_snr of each layout of a block; None where no candidate is feasible.

    One KKT evaluation covers the candidates of every layout.
    """
    hl = params.half_length
    roots, rows = [], []
    for layout in layouts:
        roots.append(derivative_roots(layout, params.height_m))
        candidates = sorted({min(hl, max(-hl, r)) for r in roots[-1]} | {-hl, hl})
        # at most three roots and two endpoints; a padding repeat never wins a tie over its first copy
        rows.append(candidates + candidates[-1:] * (5 - len(candidates)))
    xs = np.array(rows, dtype=float).reshape(-1, 5)
    p1, p2, pin_2, pin_1, rate = _splits(params, layouts, total_w, rate_nats, xs)
    at = (np.arange(len(layouts)), np.argmax(rate, axis=1))  # the first of equal rates, as a strict > scan
    x, p1, p2, pin_2, pin_1, rate = (v[at].tolist() for v in (xs, p1, p2, pin_2, pin_1, rate))
    return [None if rate[i] == -math.inf else RootPlacement(
        solution=PlacementSolution(x_star=x[i], powers=(p1[i], p2[i]), objective=rate[i]),
        roots=layout_roots,
        winner=x[i],
        allocation_case=_case(pin_2[i], pin_1[i]),
    ) for i, layout_roots in enumerate(roots)]


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
    (found,) = best_placements_high_snr(params, [layout], total_w, rate_nats)
    if found is None:
        raise Infeasible("no candidate position can cover both rate floors")
    return found
