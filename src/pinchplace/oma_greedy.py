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

from .core import (LayoutBlock, PlacementSolution, SystemParams, libm, one_row, path_gain, power_coeff,
                   squared_distance, user_pair)
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
    """Placement picked among the cubic's roots and the interval endpoints.

    A block placement holds one row per layout: a block PlacementSolution,
    roots as a (B, 3) array padded with NaN, and a (B,) allocation_case
    array.
    """

    solution: PlacementSolution
    roots: tuple[float, ...]
    allocation_case: str

    def row(self, i: int) -> "RootPlacement | None":
        """Layout i's placement of a block placement; None where no candidate is feasible."""
        solution = self.solution.row(i)
        if solution is None:
            return None
        return RootPlacement(solution=solution, roots=tuple(r for r in self.roots[i].tolist() if not math.isnan(r)),
                             allocation_case=str(self.allocation_case[i]))


def _geometry(params: SystemParams, users, gain: float, x):
    """Squared distances tau_1, tau_2 at position(s) x and their scalings q_m = noise * tau_m / gain.

    users is (x1, y1, x2, y2), each a scalar or an array that broadcasts against x.
    """
    x1, y1, x2, y2 = users
    t1 = squared_distance(x1, y1, x, params.height_m)
    t2 = squared_distance(x2, y2, x, params.height_m)
    return t1, t2, params.noise_w * t1 / gain, params.noise_w * t2 / gain


def _columns(params: SystemParams, block: LayoutBlock) -> np.ndarray:
    """(x1, y1, x2, y2) of each two-user layout of a block as the rows of a (4, B) array.

    Raises ValueError when a user is outside the service area.
    """
    block.validate(params)
    (x1, y1), (x2, y2) = user_pair(block)
    return np.stack([x1, y1, x2, y2])


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
        rates = 0.5 * (np.log1p(p1 / q1) + np.log1p(p2 / q2))  # the two time-shared rates, in nats
    return p1, p2, pin_2, pin_1, np.where(feasible, rates, -np.inf)


def _cases(pin_2, pin_1):
    # both tests hold only on the exact feasibility boundary; the first case wins
    return np.where(pin_2 >= 0.0, CASE_FLOOR_AT_2, np.where(pin_1 >= 0.0, CASE_FLOOR_AT_1, CASE_INTERIOR))


def _splits(params: SystemParams, columns: np.ndarray, total_w: float, rate_nats: float, xs):
    """_kkt of each layout of a block (its _columns) at its own row of positions xs, shape (B, K)."""
    return _kkt(params, tuple(columns[:, :, None]), path_gain(params), power_coeff(params, rate_nats, 2), total_w,
                np.asarray(xs, dtype=float))


def _budget(total_w: float) -> None:
    if total_w <= 0:
        raise ValueError("total power budget must be positive")


def split_power(params: SystemParams, block: LayoutBlock, total_w: float, rate_nats: float, x: float) -> PowerSplit:
    """Optimal two-user power split of a one-row block at antenna position x (the three cases of _kkt).

    Raises Infeasible when the budget cannot cover both floors.
    """
    _budget(total_w)
    columns = _columns(params, one_row(block))
    p1, p2, pin_2, pin_1, rate = (v.item() for v in _splits(params, columns, total_w, rate_nats, [[x]]))
    if rate == -math.inf:
        raise Infeasible(f"budget {total_w} W cannot cover both rate floors at x = {x}")
    return PowerSplit(p1=p1, p2=p2, case=str(_cases(pin_2, pin_1)))


def _curves(params: SystemParams, columns: np.ndarray, total_w: float, rate_nats: float):
    """The sum-rate curve of each layout of a block (its _columns) as one oracle row objective."""
    users = columns.T.tolist()
    gain, coeff = path_gain(params), power_coeff(params, rate_nats, 2)

    def objective(rows, xs: np.ndarray) -> np.ndarray:
        # one row's plain scalars, or one column entry per probed row
        block = users[rows] if isinstance(rows, int) else tuple(columns[:, rows])
        return _kkt(params, block, gain, coeff, total_w, xs)[4]

    return objective


def _placed(params: SystemParams, columns: np.ndarray, total_w: float, rate_nats: float, xs) -> PlacementSolution:
    """The optimal split and sum rate of each layout at its position in xs (NaN for none): a block PlacementSolution."""
    xs = np.asarray(xs, dtype=float)
    p1, p2, _, _, rate = (v[:, 0] for v in _splits(params, columns, total_w, rate_nats, xs[:, None]))
    return PlacementSolution(x_star=xs, powers=np.stack([p1, p2], axis=1), objective=rate)


def placements_at(
    params: SystemParams, block: LayoutBlock, total_w: float, rate_nats: float, xs
) -> PlacementSolution:
    """The optimal split and sum rate of each layout of a block at its position in xs.

    Returns a block PlacementSolution whose objective is -inf where the budget cannot cover both floors.
    """
    _budget(total_w)
    return _placed(params, _columns(params, block), total_w, rate_nats, xs)


def best_placements_search(
    params: SystemParams,
    block: LayoutBlock,
    total_w: float,
    rate_nats: float,
    spec: GridSpec,
) -> PlacementSolution:
    """best_placement_search of each layout of a block, bit for bit, as a block PlacementSolution.

    Its objective is -inf (and its x_star NaN) where no grid point is
    feasible.  One KKT evaluation serves the golden-section probes of every
    layout in an iteration, and one more places every feasible layout, so a
    block costs much less than its layouts one by one.
    """
    _budget(total_w)
    columns = _columns(params, block)
    found = grid_optimize_rows(_curves(params, columns, total_w, rate_nats), spec, len(block),
                               sense="max", skip_nonfinite=True)
    return _placed(params, columns, total_w, rate_nats, [math.nan if f is None else f[0] for f in found])


def best_placement_search(
    params: SystemParams, block: LayoutBlock, total_w: float, rate_nats: float, spec: GridSpec
) -> PlacementSolution:
    """Certified route for a one-row block: grid search over x with the closed-form split at each point.

    Raises Infeasible when no grid point can cover both rate floors.
    """
    _budget(total_w)
    columns = _columns(params, one_row(block))
    curve = _curves(params, columns, total_w, rate_nats)
    x_best, _ = grid_optimize(lambda xs: curve(0, xs), spec, sense="max", skip_nonfinite=True)
    return _placed(params, columns, total_w, rate_nats, [x_best]).row(0)


def _cbrt(v: float) -> float:
    return math.copysign(abs(v) ** (1.0 / 3.0), v)


def _stationary_points(block: LayoutBlock, height_m: float) -> np.ndarray:
    """Real roots of d/dx [tau_1(x) tau_2(x)] of each layout of a block, ascending in the rows of a (B, 3) array.

    The derivative reduces, after centring at the user midpoint, to the
    depressed cubic u^3 + p u + q with p = (a + b - 2 h^2)/2 and
    q = h (b - a)/2, where a and b are the users' fixed squared offsets and
    h is half their x separation.  Solved by the trigonometric form when all
    three roots are real and Cardano otherwise, then polished by Newton steps
    and deduplicated within a 1e-9 cluster width; a row with fewer roots is
    padded with NaN.
    """
    (x1, y1), (x2, y2) = user_pair(block)
    h2 = height_m * height_m
    a = y1 * y1 + h2
    b = y2 * y2 + h2
    mid = (x1 + x2) / 2.0
    half = (x2 - x1) / 2.0
    p = (a + b - 2.0 * half * half) / 2.0
    q = half * (b - a) / 2.0

    centred = np.full((len(block), 3), math.nan)
    flat = (p == 0.0) & (q == 0.0)
    centred[flat, 0] = 0.0
    disc = (q / 2.0) * (q / 2.0) + libm(lambda v: v ** 3, p / 3.0)
    one = ~flat & (disc > 0.0)
    if one.any():
        root, q_one = np.sqrt(disc[one]), q[one]
        centred[one, 0] = libm(_cbrt, -q_one / 2.0 + root) + libm(_cbrt, -q_one / 2.0 - root)
    three = ~flat & (disc < 0.0)  # three real roots; only reachable with p < 0
    if three.any():
        p_three = p[three]
        radius = 2.0 * np.sqrt(-p_three / 3.0)
        phase = libm(math.acos, np.minimum(1.0, np.maximum(-1.0, 3.0 * q[three] / (p_three * radius))))
        for k in (0, 1, 2):
            centred[three, k] = radius * libm(math.cos, phase / 3.0 - 2.0 * math.pi * k / 3.0)
    double = ~flat & (disc == 0.0)
    if double.any():
        p_double, q_double = p[double], q[double]
        with np.errstate(divide="ignore", invalid="ignore"):
            centred[double, 0] = np.where(p_double == 0.0, 0.0, 3.0 * q_double / p_double)
            centred[double, 1] = np.where(p_double == 0.0, math.nan, -3.0 * q_double / (2.0 * p_double))

    scale = np.maximum(np.maximum(np.maximum(np.maximum(1.0, np.abs(x1)), np.abs(x2)), np.sqrt(a)), np.sqrt(b))
    polished = _polish(mid[:, None] + centred, x1[:, None], x2[:, None], a[:, None], b[:, None])
    return _distinct(np.sort(polished, axis=1, kind="stable"), 1e-9 * scale)


def _polish(x: np.ndarray, x1, x2, a, b) -> np.ndarray:
    """Newton steps on d/dx [tau_1(x) tau_2(x)] = 0 for every entry of x at once (NaN entries stay NaN).

    Each entry follows the one-root rule: at most 8 steps, stopping before
    a step where the second derivative is 0 and after a step no larger than
    1e-15 max(1, |x|).
    """
    x = x.copy()
    linear, constant = a + b, b * x1 + a * x2
    active = ~np.isnan(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            if not active.any():
                break
            # the derivative and the second derivative, factored
            u, v, w = x - x1, x - x2, 2.0 * x - x1 - x2
            f = 2.0 * (u * v * w + linear * x - constant)
            fp = 2.0 * (v * w + u * w + 2.0 * u * v + a + b)
            active &= fp != 0.0
            step = f / fp
            np.subtract(x, step, out=x, where=active)
            active &= np.abs(step) > 1e-15 * np.maximum(1.0, np.abs(x))
    return x


def _distinct(ascending: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Drop each entry of an ascending (B, 3) row within width of the last kept one; NaN moves last."""
    first, second, third = ascending.T
    keep_second = second - first > width
    keep_third = third - np.where(keep_second, second, first) > width
    kept = np.stack([first, np.where(keep_second, second, math.nan), np.where(keep_third, third, math.nan)], axis=1)
    return np.sort(kept, axis=1, kind="stable")


def best_placements_high_snr(
    params: SystemParams,
    block: LayoutBlock,
    total_w: float,
    rate_nats: float,
) -> RootPlacement:
    """best_placement_high_snr of each layout of a block as a block RootPlacement.

    Its objective is -inf where no candidate is feasible.  One KKT
    evaluation covers the candidates of every layout.
    """
    hl = params.half_length
    roots = _stationary_points(block, params.height_m)
    _budget(total_w)
    columns = _columns(params, block)
    # at most three roots and two endpoints; an absent root pads as the endpoint hl, and a
    # repeated candidate never wins a tie over its first copy
    xs = np.full((len(block), 5), hl)
    xs[:, :3] = np.where(np.isnan(roots), hl, np.minimum(hl, np.maximum(-hl, roots)))
    xs[:, 3] = -hl
    xs.sort(axis=1)
    p1, p2, pin_2, pin_1, rate = _splits(params, columns, total_w, rate_nats, xs)
    at = (np.arange(len(block)), np.argmax(rate, axis=1))  # the first of equal rates, as a strict > scan
    x = xs[at]
    return RootPlacement(
        solution=PlacementSolution(x_star=x, powers=np.stack([p1[at], p2[at]], axis=1), objective=rate[at]),
        roots=roots,
        allocation_case=_cases(pin_2[at], pin_1[at]),
    )


def best_placement_high_snr(
    params: SystemParams, block: LayoutBlock, total_w: float, rate_nats: float
) -> RootPlacement:
    """Fast route for a one-row block: place the antenna at the best stationary
    point of the distance product, falling back to the interval endpoints.

    Exact when the budget is large enough that the interior split wins
    everywhere (the sum rate then decreases in the distance product); at
    moderate budgets it is an approximation and the grid search is the
    reference.  The winning candidate and its allocation case are recorded so
    callers can see when the high-power premise did not hold.
    """
    found = best_placements_high_snr(params, one_row(block), total_w, rate_nats).row(0)
    if found is None:
        raise Infeasible("no candidate position can cover both rate floors")
    return found
