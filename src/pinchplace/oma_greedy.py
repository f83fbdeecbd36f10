"""Throughput-maximizing placement for a two-user time-shared downlink.

Given a total budget and a per-user rate floor, the optimal power split at a
fixed antenna position is one of three closed-form cases (either user pinned
to its floor, or an equalizing interior split).  The placement itself is found
two ways: a certified grid search over the waveguide, and a fast route that
observes that at high power the objective is dominated by the product of the
two squared distances, whose stationary points are the real roots of a cubic.

Every route takes a LayoutBlock of any number of two-user layouts, and the
total budget as one positive finite float or as a (B,) column with one budget
per layout; the rate floor is one float.  Each returns a GreedyPlacement that
marks an infeasible layout with an objective of -inf, so a single instance is
row 0 of a one-row block, None when infeasible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (SCAN_SLICE, LayoutBlock, PlacementSolution, SystemParams, first_where, libm, path_gain,
                   power_coeff, require_positive, require_rows, squared_distance, user_pair)
# grid_optimize is kept importable here so that traced runs can wrap this module's name for it
from .oracle import GridSpec, grid_optimize, refine_rows  # noqa: F401

CASE_FLOOR_AT_2 = "boundary-at-2"
CASE_FLOOR_AT_1 = "boundary-at-1"
CASE_INTERIOR = "interior"

# A budget may undershoot the floor sum by this relative slack before the
# split is declared infeasible; keeps exact-boundary instances solvable.
_FEAS_SLACK = 1e-12

# Grid points per piece at each level of the search's pruning: the first level
# cuts the grid into pieces of 64 points, and each later level cuts the pieces
# that survived the one above into pieces of the next width, down to single
# points.  On the 2001-point grid (64, 8, 2, 1), (128, 16, 2, 1) and
# (256, 32, 4, 1) timed the same as these, and (32, 4, 1) slower.
_WIDTHS = (64, 8, 1)

# _polish gathers the entries still live into arrays of their own once this many have stopped;
# below that the gather costs more than the steps it saves.
_COMPACT_AT = 64

# A piece survives unless its bound is below the incumbent by more than this
# relative slack, which absorbs the rounding of the bound and of the points it bounds.
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class GreedyPlacement:
    """The placement and optimal power split of each layout of a block.

    solution is a block PlacementSolution (an objective of -inf marks a
    layout whose budget cannot cover both floors), case a (B,) array of each
    split's CASE_* name, and roots, for the high-SNR route only, the
    stationary points as a (B, 3) array padded with NaN.
    """

    solution: PlacementSolution
    case: np.ndarray
    roots: np.ndarray | None = None

    def row(self, i: int) -> "GreedyPlacement | None":
        """Layout i's placement as plain floats, a str case and a tuple of roots; None where it is infeasible."""
        solution = self.solution.row(i)
        if solution is None:
            return None
        roots = None if self.roots is None else tuple(r for r in self.roots[i].tolist() if not math.isnan(r))
        return GreedyPlacement(solution=solution, case=str(self.case[i]), roots=roots)


def _geometry(params: SystemParams, users, x, hi=None):
    """Squared distances tau_1, tau_2 of the users from position(s) x, or from their nearest points of [x, hi].

    users is (x1, y1, x2, y2), each a scalar or an array that broadcasts against x (and hi).
    """
    x1, y1, x2, y2 = users
    at1, at2 = (x, x) if hi is None else (np.minimum(np.maximum(x1, x), hi), np.minimum(np.maximum(x2, x), hi))
    return squared_distance(x1, y1, at1, params.height_m), squared_distance(x2, y2, at2, params.height_m)


# the errstate that every route holds around all of its _kkt evaluations
_QUIET = dict(over="ignore", divide="ignore", invalid="ignore")


def _kkt(params: SystemParams, gain: float, coeff: float, total_w, t1, t2):
    """The optimal two-user power split at squared distances t1, t2: (p1, p2, pin_2, pin_1, sum rate).

    Maximizes the sum rate subject to both users reaching the rate floor
    coeff * tau_m.  The multiplier analysis leaves three cases: pin user 2 to
    its floor when the marginal-rate comparison
    pin_2 = 1/(P - floor_2 + q_1) - 1/(floor_2 + q_2) is nonnegative (q_m
    being noise * tau_m / gain), the mirrored case pin_1 for user 1, and
    otherwise the interior split P/2 + (q_2 - q_1)/2 that equalizes the
    effective channels.  The sum rate is -inf where the budget cannot cover
    both floors.  t1, t2 and total_w are scalars or arrays that broadcast
    together; gain is path_gain(params) and coeff is
    power_coeff(params, rate_nats, 2).  The sum rate is the optimum of a
    concave program whose floors loosen and whose rates rise as either tau_m
    falls, so it never falls when t1 or t2 does.  A rate floor may overflow
    to inf, and a pin divides by 0 on the feasibility boundary: each route
    evaluates it under one _QUIET errstate, not one per call.
    """
    q1 = params.noise_w * t1 / gain
    q2 = params.noise_w * t2 / gain
    floor1 = coeff * t1
    floor2 = coeff * t2
    feasible = total_w >= floor1 + floor2 - _FEAS_SLACK * total_w
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


def _splitter(params: SystemParams, block: LayoutBlock, total_w, rate_nats: float):
    """Check a route's inputs once and return the block's evaluator split and its users.

    split(rows) binds the evaluator to rows of block, an int or an int array
    (np.arange(len(block)) for all of them): it gathers their users and
    budgets (each row its own when total_w is a column) once with take, and
    returns at(xs, hi=None), _kkt of those rows at positions xs that
    broadcast against them; given hi, at is _kkt at each user's nearest point
    of [xs, hi], whose sum rate bounds every point of that interval from
    above (see _kkt).  at runs under the caller's np.errstate(**_QUIET).  The
    users are the block's (x1, y1, x2, y2) columns as the rows of a (4, B)
    array.  ValueError when a budget is not positive and finite or gives a
    non-finite SNR, the rate floor is not one real number or a user is
    outside the service area, and as power_coeff.
    """
    what = "total power budget"
    require_rows(total_w, block, what)
    # one test of both bounds, which NaN fails; require_positive then names a low entry
    if not np.all((total_w > 0) & (total_w < math.inf)):
        require_positive(total_w, block, what)
        raise ValueError(f"{what} must be finite, got {first_where(total_w, np.isinf(total_w))!r}")
    if not isinstance(rate_nats, (float, numbers.Real)):
        raise ValueError(f"rate floor must be a float, got a {type(rate_nats).__name__}")
    block.validate(params)
    (x1, y1), (x2, y2) = user_pair(block)
    columns = np.stack([x1, y1, x2, y2])
    gain, coeff = path_gain(params), power_coeff(params, rate_nats, 2)
    # an SNR p / q that overflows makes the sum rate +inf, which the search would drop as infeasible;
    # p <= total_w and q >= noise * h^2 / gain, so the budget over that floor bounds every SNR
    nearest_floor = params.noise_w * (params.height_m * params.height_m) / gain
    with np.errstate(over="ignore"):
        unbounded = np.logical_not(total_w / nearest_floor < math.inf)
    if np.any(unbounded):
        raise ValueError(f"{what} {first_where(total_w, unbounded)!r} W gives a non-finite SNR")
    budgets = np.asarray(total_w, dtype=float)
    column = budgets.ndim > 0

    def split(rows):
        # a float budget stays a float, which is cheaper than a 0-d array in a one-row call, and take
        # gathers rows faster than indexing with them does
        budget, users = budgets.take(rows) if column else total_w, tuple(columns.take(rows, axis=1))
        return lambda xs, hi=None: _kkt(params, gain, coeff, budget, *_geometry(params, users, xs, hi))

    return split, columns


def _placed(split, layouts: int, xs) -> GreedyPlacement:
    """The optimal split, sum rate and KKT case of each of a block's layouts at its position in xs (NaN for none)."""
    xs = np.asarray(xs, dtype=float)
    p1, p2, pin_2, pin_1, rate = map(np.concatenate, zip(*_sliced(split, np.arange(layouts),
                                                                  np.broadcast_to(xs, layouts))))
    return GreedyPlacement(PlacementSolution(x_star=xs, powers=np.stack([p1, p2], axis=1), objective=rate),
                           _cases(pin_2, pin_1))


@np.errstate(**_QUIET)
def split_power(params: SystemParams, block: LayoutBlock, total_w, rate_nats: float, xs) -> GreedyPlacement:
    """The optimal split (the three cases of _kkt) and sum rate of each layout of a block at its position in xs.

    Raises ValueError when a budget is not positive or not finite or a user is outside the service area.
    """
    return _placed(_splitter(params, block, total_w, rate_nats)[0], len(block), xs)


@np.errstate(**_QUIET)
def best_placement_search(
    params: SystemParams, block: LayoutBlock, total_w, rate_nats: float, spec: GridSpec
) -> GreedyPlacement:
    """Certified route: grid search of each layout over x with the closed-form split at each point.

    Each layout's result is bit for bit that of oracle.scan_grid of its
    split's sum rate (a full scan of every grid point) refined by
    oracle.refine_rows, but the scan skips the grid pieces that cannot
    hold a layout's maximum.
    The sum rate never falls as a user's squared distance does (see _kkt),
    so on a piece of consecutive grid points it is at most its value at
    each user's nearest point of the piece.  The scan runs in levels of
    _WIDTHS grid points per piece, 64, 8 and 1: each level cuts the pieces
    kept by the level above, evaluates their bounds together with probes
    that raise each layout's incumbent (first the grid points nearest its
    two users, where the paper puts the optimum, then the middle point of
    each piece kept by the level above), and drops a piece whose bound is
    -inf or below its layout's incumbent by more than _PRUNE_SLACK.  The
    last level evaluates the surviving grid points themselves, and
    refine_rows then refines each layout's best point as after a full scan,
    probing three points per layout in each call.  No evaluator call takes
    more than SCAN_SLICE points: _pruned_scan and _placed evaluate in slices
    of at most that many, and refine_rows refines a block in chunks of at
    most SCAN_SLICE // 3 layouts.  A layout's x_star is NaN where no grid
    point is feasible.
    """
    split, _ = _splitter(params, block, total_w, rate_nats)
    # layouts per pruned scan: as many as keep its first level (each layout's pieces and two
    # probes) within one scan slice
    chunk = max(1, SCAN_SLICE // (-(-spec.points // _WIDTHS[0]) + 2))
    best = []
    for first in range(0, len(block), chunk):
        best += _pruned_scan(split, spec, block.xs[first:first + chunk], first)
    found = refine_rows(lambda rows: _sum_rate(split(rows)), spec, best, sense="max")
    return _placed(split, len(block), [math.nan if f is None else f[0] for f in found])


def _pruned_scan(split, spec: GridSpec, xs: np.ndarray, first: int) -> list[tuple[int, float] | None]:
    """oracle.scan_grid of each layout's sum rate (sense max, non-finite points absent), for the users at xs.

    xs holds the users' x of rows first, first + 1, ... of split's block, one
    row per layout, and each layout gets the (grid index, value) or None that
    a scan_grid of its row alone gives.  A piece is a run of grid points of
    one layout, kept layout after layout in grid order.  Each level of
    _WIDTHS cuts the kept pieces and evaluates, across the layouts and in
    calls of at most SCAN_SLICE points, the new pieces' bounds and the
    level's probes, each probe the one-point piece [x, x] whose bound is the
    sum rate at x, bit for bit.  The last level's pieces are single grid
    points, evaluated without a bound, and each layout's first maximum among
    them is the full scan's (the pruning keeps every piece that could hold it).
    """
    n, count = spec.points, len(xs)
    # each layout's one piece, the whole grid, and its probes, the grid points nearest its users
    owner, start, width = np.arange(count), np.zeros(count, dtype=np.intp), n
    nearest = np.rint((xs.ravel() - spec.lo) / (spec.hi - spec.lo) * (n - 1))
    probe, probe_owner = np.minimum(np.maximum(nearest, 0), n - 1).astype(np.intp), np.repeat(owner, 2)
    incumbent = np.full(count, -np.inf)
    for w in _WIDTHS:
        # cut every kept piece into pieces of w points; the grid's end cuts its last piece short
        offsets = np.arange(0, width, w)
        start = (start[:, None] + offsets).ravel()
        owner = np.repeat(owner, len(offsets))
        inside = start < n
        start, owner = start[inside], owner[inside]
        if w == 1:
            break
        pieces, width = len(start), w
        at = spec.at(np.concatenate([start, probe, np.minimum(start + (w - 1), n - 1), probe]))
        half = len(at) // 2
        rates = _rates(split, np.concatenate([owner, probe_owner]) + first, at[:half], at[half:])
        probed = rates[pieces:]
        probed[~np.isfinite(probed)] = -np.inf
        np.maximum.at(incumbent, probe_owner, probed)
        # a piece is dropped when its bound is below this: -inf drops with any incumbent, and
        # a NaN bound cannot rule its piece out
        floor = np.maximum(incumbent - _PRUNE_SLACK * np.abs(incumbent), -np.finfo(float).max)
        kept = ~(rates[:pieces] < floor[owner])
        start, owner = start[kept], owner[kept]
        if not len(start):
            return [None] * count
        # the next level's probes: each kept piece's middle point (its last, where the grid cut it short)
        probe, probe_owner = np.minimum(start + w // 2, n - 1), owner

    values = _rates(split, owner + first, spec.at(start))
    values[~np.isfinite(values)] = -np.inf
    # segmented argmax: each layout's maximum, then the first of its points that reaches it
    edges = np.searchsorted(owner, np.arange(count + 1))  # layout k's points are edges[k]:edges[k + 1]
    lengths = edges[1:] - edges[:-1]
    present = np.flatnonzero(lengths)
    head = edges[present]
    top = np.maximum.reduceat(values, head)
    hits = np.flatnonzero(values == np.repeat(top, lengths[present]))
    winner = start[hits[np.searchsorted(hits, head)]]

    best: list[tuple[int, float] | None] = [None] * count
    for row, i, v in zip(present.tolist(), winner.tolist(), top.tolist()):
        if v > -math.inf:
            best[row] = (i, v)
    return best


def _sum_rate(at):
    """The sum rate alone of a split bound to its rows."""
    return lambda xs: at(xs)[4]


def _sliced(split, rows: np.ndarray, *arrays: np.ndarray, field: int | slice = slice(None)) -> list:
    """split(rows)(xs[, hi])[field] for arrays (xs[, hi]), one item per call of at most SCAN_SLICE points.

    _kkt is elementwise, so joining the calls' pieces gives the bits of one call.  No rows make one
    empty call, so that every field has a piece.  A call's other fields go as soon as it returns.
    """
    return [split(rows[i:i + SCAN_SLICE])(*(a[i:i + SCAN_SLICE] for a in arrays))[field]
            for i in range(0, len(rows) or 1, SCAN_SLICE)]


def _rates(split, rows: np.ndarray, *arrays: np.ndarray) -> np.ndarray:
    """split(rows)(xs[, hi])'s sum rates for arrays (xs[, hi]), in calls of at most SCAN_SLICE points."""
    return np.concatenate(_sliced(split, rows, *arrays, field=4))


def _cbrt(v: np.ndarray) -> np.ndarray:
    """The real cube root of each entry of v, the C library's pow(|v|, 1/3) carrying v's sign."""
    return np.copysign(libm(math.pow, np.abs(v), 1.0 / 3.0), v)


def _stationary_points(users: np.ndarray, height_m: float) -> np.ndarray:
    """Real roots of d/dx [tau_1(x) tau_2(x)] of each layout, ascending in the rows of a (B, 3) array.

    users holds the layouts' (x1, y1, x2, y2) columns as the rows of a (4, B)
    array, as _splitter gives them.

    The derivative reduces, after centring at the user midpoint, to the
    depressed cubic u^3 + p u + q with p = (a + b - 2 h^2)/2 and
    q = h (b - a)/2, where a and b are the users' fixed squared offsets and
    h is half their x separation.  Solved by the trigonometric form when all
    three roots are real and Cardano otherwise, then polished by Newton steps
    and deduplicated within a 1e-9 cluster width; a row with fewer roots is
    padded with NaN.
    """
    x1, y1, x2, y2 = users
    h2 = height_m * height_m
    a = y1 * y1 + h2
    b = y2 * y2 + h2
    mid = (x1 + x2) / 2.0
    half = (x2 - x1) / 2.0
    p = (a + b - 2.0 * half * half) / 2.0
    q = half * (b - a) / 2.0

    centred = np.full((len(x1), 3), math.nan)
    flat = (p == 0.0) & (q == 0.0)
    centred[flat, 0] = 0.0
    disc = (q / 2.0) * (q / 2.0) + libm(math.pow, p / 3.0, 3.0)
    one = ~flat & (disc > 0.0)
    if one.any():
        root, q_one = np.sqrt(disc[one]), q[one]
        centred[one, 0] = _cbrt(-q_one / 2.0 + root) + _cbrt(-q_one / 2.0 - root)
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
    1e-15 max(1, |x|).  Once at least _COMPACT_AT entries have stopped, the
    later steps run on the entries still live alone, gathered into 1-D
    arrays; each entry's steps are the same IEEE operations either way.
    """
    out = x.copy()
    terms = (x1, x2, a + b, b * x1 + a * x2, a, b)
    x, (x1, x2, linear, constant, a, b) = out, terms
    at = None  # the flat indices in out of the entries in x, once gathered
    active = ~np.isnan(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            live = np.count_nonzero(active)
            if not live:
                break
            if active.size - live >= _COMPACT_AT:
                if at is not None:
                    out.flat[at] = x
                at = np.flatnonzero(active) if at is None else at[active]
                rows = np.unravel_index(at, out.shape)
                x = out[rows]
                x1, x2, linear, constant, a, b = (np.broadcast_to(t, out.shape)[rows] for t in terms)
                active = np.ones(live, dtype=bool)
            # the derivative and the second derivative, factored
            u, v, w = x - x1, x - x2, 2.0 * x - x1 - x2
            f = 2.0 * (u * v * w + linear * x - constant)
            fp = 2.0 * (v * w + u * w + 2.0 * u * v + a + b)
            active &= fp != 0.0
            step = f / fp
            np.subtract(x, step, out=x, where=active)
            active &= np.abs(step) > 1e-15 * np.maximum(1.0, np.abs(x))
    if at is not None:
        out.flat[at] = x
    return out


def _distinct(ascending: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Drop each entry of an ascending (B, 3) row within width of the last kept one; NaN moves last."""
    first, second, third = ascending.T
    keep_second = second - first > width
    keep_third = third - np.where(keep_second, second, first) > width
    kept = np.stack([first, np.where(keep_second, second, math.nan), np.where(keep_third, third, math.nan)], axis=1)
    return np.sort(kept, axis=1, kind="stable")


@np.errstate(**_QUIET)
def best_placement_high_snr(params: SystemParams, block: LayoutBlock, total_w, rate_nats: float) -> GreedyPlacement:
    """Fast route: place each antenna at the best stationary point of its
    layout's distance product, falling back to the interval endpoints.

    Exact when the budget is large enough that the interior split wins
    everywhere (the sum rate then decreases in the distance product); at
    moderate budgets it is an approximation and the grid search is the
    reference.  The roots and each winner's KKT case are recorded so
    callers can see when the high-power premise did not hold.  One KKT
    evaluation covers the candidates of every layout.
    """
    hl = params.half_length
    split, users = _splitter(params, block, total_w, rate_nats)
    roots = _stationary_points(users, params.height_m)
    # at most three roots and two endpoints; an absent root pads as the endpoint hl, and a
    # repeated candidate never wins a tie over its first copy
    xs = np.full((len(block), 5), hl)
    xs[:, :3] = np.where(np.isnan(roots), hl, np.minimum(hl, np.maximum(-hl, roots)))
    xs[:, 3] = -hl
    xs.sort(axis=1)
    xs = xs.T  # (5, B): layout i's candidates are column i, evaluated against its own users
    rows = np.arange(len(block))
    p1, p2, pin_2, pin_1, rate = split(rows)(xs)
    at = (np.argmax(rate, axis=0), rows)  # the first of equal rates, as a strict > scan
    return GreedyPlacement(
        solution=PlacementSolution(x_star=xs[at], powers=np.stack([p1[at], p2[at]], axis=1), objective=rate[at]),
        case=_cases(pin_2[at], pin_1[at]),
        roots=roots,
    )
