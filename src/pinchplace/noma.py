"""Power-minimal placement for a two-user superposition (NOMA) downlink.

Both users are served simultaneously at the same per-user rate target.  The
user closer to the waveguide (smaller |y|) acts as the strong user: it decodes
and removes the other signal before its own.  The closed form picks that user
itself, so a pair may come in any order; every solution indexes its powers
like the input layout and names the strong user by its 1-based index
(sic_user).  Minimizing total power under the three rate constraints gives a
closed-form placement between the two users, weighted toward the strong one
by e^R, that is provably optimal at every positive target (see
solve_min_power).  A grid search over position and both SIC orders serves as
the independent reference.

The closed-form solvers take a LayoutBlock of B pairs and return one value
per pair (row); row i depends on pair i alone.  A single pair is a one-row
block, whose solution is row(0).  The search reference and check_solution
take one-row blocks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LayoutBlock,
    NomaRates,
    SystemParams,
    libm,
    min_power_terms,
    noma_rates,
    one_pair,
    power_coeff,
    squared_distance,
    user_pair,
)
from .errors import DomainError, require
from .oracle import GridSpec, grid_optimize

_TOL = 1e-9


@dataclass(frozen=True)
class NomaSolution:
    """x_star with per-user powers indexed like the input layout; sic_user is
    the 1-based input index of the decoding (strong) user.  rates holds the
    achieved (strong, weak, sic) rates in nats.  A block solution holds a
    (B,) array in place of each number."""

    x_star: float
    powers: tuple[float, float]
    sic_user: int
    rates: NomaRates
    total: float

    def row(self, i: int) -> "NomaSolution":
        """Layout i's solution of a block solution."""
        return NomaSolution(
            x_star=float(self.x_star[i]),
            powers=(float(self.powers[0][i]), float(self.powers[1][i])),
            sic_user=int(self.sic_user[i]),
            rates=NomaRates(*(float(rate[i]) for rate in self.rates)),
            total=float(self.total[i]),
        )


@dataclass(frozen=True)
class AssumptionChecks:
    """Validity report for a NOMA solution.

    sic_distance_margin is the decoder's squared planar distance minus the
    direct user's at x_star; nonpositive means the decoder really is the
    stronger receiver there, which the closed form assumes."""

    sic_distance_margin: float
    strong_user_ok: bool
    x_between_users: bool
    powers_nonnegative: bool

    @property
    def all_ok(self) -> bool:
        return self.strong_user_ok and self.x_between_users and self.powers_nonnegative


@np.errstate(over="ignore")
def min_powers_at(params: SystemParams, block: LayoutBlock, rate_nats: float, x, decoder: int):
    """Cheapest feasible powers of each pair of a block at position x with a fixed SIC order.

    decoder is the 0-based index of the SIC-performing user.  Its own rate
    constraint fixes its power at coeff * tau_decoder; the other user's power
    must satisfy both interference-limited constraints (its own decode and the
    decoder's decode of it), so it takes the larger of the two right-hand
    sides, which reduces to coeff * ((e^R - 1) tau_decoder + max(tau_dec,
    tau_dir)).  x is one position or one per row.  Returns (decoder_powers,
    direct_powers) as (B,) arrays.
    """
    pair = user_pair(block)
    if decoder not in (0, 1):
        raise ValueError("decoder must be 0 or 1")
    coeff = power_coeff(params, rate_nats, 1)
    h = params.height_m
    (xd, yd), (xo, yo) = pair[decoder], pair[1 - decoder]
    tau_dec = squared_distance(xd, yd, x, h)
    tau_dir = squared_distance(xo, yo, x, h)
    p_dec = coeff * tau_dec
    p_dir = math.expm1(rate_nats) * p_dec + coeff * np.maximum(tau_dec, tau_dir)
    return p_dec, p_dir


def conventional_min_powers(params: SystemParams, block: LayoutBlock, rate_nats: float) -> np.ndarray:
    """Total power of each layout of a block with the antenna fixed at the area centre.

    Takes the cheaper SIC order (min_powers_at at x = 0 for both decoders),
    so it isolates the placement gain of solve_min_power.
    """
    by_decoder = [sum(min_powers_at(params, block, rate_nats, 0.0, decoder)) for decoder in (0, 1)]
    return np.where(by_decoder[1] < by_decoder[0], by_decoder[1], by_decoder[0])


@np.errstate(over="ignore")
def solve_min_power(params: SystemParams, block: LayoutBlock, rate_nats: float) -> NomaSolution:
    """Closed-form total-power minimizer of each pair of a block, in any order.

    Returns a block NomaSolution of (B,) arrays; its row(i) is pair i's.
    The strong (SIC) user is the one closer to the waveguide, the smaller
    |y|; on a tie it is user 1.  Call it user 1 below and the other user 2.
    The placement x* = (x_2 + e^R x_1) / (e^R + 1) sits between the users,
    pulled toward the strong user; its power covers exactly its own rate and
    the weak user's power is stacked on top of the resulting interference.
    Both own rates come out exactly equal to the target.  The powers come
    back indexed like the input layout and sic_user names the strong user's
    input index, so swapping the users swaps the powers and nothing else.

    Optimal at every positive target.  Let g = e^R, c the one-slot
    power_coeff and a_m = y_m^2 + h^2.  With user 1 decoding, the least total
    power at x is c (g tau_1 + max(tau_1, tau_2)) >= c (g tau_1 + tau_2) (see
    min_powers_at).  That bound is a convex quadratic minimized at x*, where
    tau_2 - tau_1 = (x_2 - x_1)^2 (g - 1)/(g + 1) + a_2 - a_1 >= 0 as
    a_1 <= a_2, so the bound is tight there.  The other order's bound swaps
    the weights of a_1 and a_2, which raises its minimum by
    c (g - 1)(a_2 - a_1) >= 0.  As tau_1 <= tau_2 at x*, the SIC decode of
    the weak signal also reaches the target.
    """
    if rate_nats <= 0:
        raise ValueError("rate target must be positive")
    block.validate(params)
    (_, ya), (_, yb) = user_pair(block)
    # user 1 of the strong-first pair is the one closer to the waveguide; the key is y ** 2 (the C
    # library's pow), and a tie keeps the input order
    swap = libm(lambda y: y ** 2, yb) < libm(lambda y: y ** 2, ya)
    flip = swap[:, None]
    pair = LayoutBlock(np.where(flip, block.xs[:, ::-1], block.xs), np.where(flip, block.ys[:, ::-1], block.ys))
    (x1, y1), (x2, y2) = user_pair(pair)

    terms = min_power_terms(params, pair, rate_nats, slots=1)
    growth = math.exp(rate_nats)
    # min and max as Python's: the first argument wins a tie, so a signed zero keeps its sign
    lo, hi = np.where(x2 < x1, x2, x1), np.where(x2 > x1, x2, x1)
    # the weighted mean can round one ulp outside [lo, hi] when x1 == x2
    weighted = (x2 + growth * x1) / (growth + 1.0)
    above = np.where(lo > weighted, lo, weighted)
    x_star = np.where(hi < above, hi, above)

    p1, own2 = terms.powers_at(x_star).T
    p2 = math.expm1(rate_nats) * p1 + own2
    if not np.isfinite(p2).all():
        raise DomainError(f"rate target {rate_nats} nats needs a non-finite weak-user power")

    h = params.height_m
    rates = noma_rates(
        params,
        p_strong=p1,
        p_weak=p2,
        sq_dist_strong=squared_distance(x1, y1, x_star, h),
        sq_dist_weak=squared_distance(x2, y2, x_star, h),
    )

    require(bool(((p1 >= 0.0) & (p2 >= 0.0)).all()), "NOMA powers are nonnegative")
    tol = _TOL * max(1.0, rate_nats)
    require(bool(np.all((np.abs(rates.strong - rate_nats) <= tol) & (np.abs(rates.weak - rate_nats) <= tol))),
            "both NOMA users' own rates equal the target")
    require(bool(np.all(rates.sic >= rate_nats - tol)), "the NOMA SIC decode rate reaches the target")

    return NomaSolution(
        x_star=x_star,
        powers=(np.where(swap, p2, p1), np.where(swap, p1, p2)),
        sic_user=np.where(swap, 2, 1),
        rates=rates,
        total=p1 + p2,
    )


def solve_min_power_search(params: SystemParams, block: LayoutBlock, rate_nats: float, spec: GridSpec) -> NomaSolution:
    """Reference route for a one-row block: grid-search the position for both SIC orders.

    No ordering requirement; ties between orders keep the lower-indexed
    decoder.  The result carries exactly-met constraints at the grid optimum
    but only numerical (not closed-form) optimality.
    """
    if rate_nats <= 0:
        raise ValueError("rate target must be positive")
    block.validate(params)
    pair = one_pair(block)

    coeff = power_coeff(params, rate_nats, 1)
    growth = math.exp(rate_nats)
    h = params.height_m

    best: tuple[float, float, int] | None = None
    for decoder in (0, 1):
        (xd, yd), (xo, yo) = pair[decoder], pair[1 - decoder]

        def objective(xs: np.ndarray) -> np.ndarray:
            tau_dec = squared_distance(xd, yd, xs, h)
            tau_dir = squared_distance(xo, yo, xs, h)
            return coeff * (growth * tau_dec + np.maximum(tau_dec, tau_dir))

        x_opt, value = grid_optimize(objective, spec, sense="min")
        if best is None or value < best[0]:
            best = (value, x_opt, decoder)

    _, x_star, decoder = best
    p_dec, p_dir = (float(p[0]) for p in min_powers_at(params, block, rate_nats, x_star, decoder))
    (xd, yd), (xo, yo) = pair[decoder], pair[1 - decoder]
    rates = noma_rates(params, p_strong=p_dec, p_weak=p_dir, sq_dist_strong=squared_distance(xd, yd, x_star, h),
                       sq_dist_weak=squared_distance(xo, yo, x_star, h))
    powers = (p_dec, p_dir) if decoder == 0 else (p_dir, p_dec)
    return NomaSolution(x_star=x_star, powers=powers, sic_user=decoder + 1, rates=rates, total=p_dec + p_dir)


def check_solution(params: SystemParams, block: LayoutBlock, solution: NomaSolution) -> AssumptionChecks:
    """Check the closed form's working assumptions on the solution of a one-row block."""
    pair = one_pair(block)
    decoder = solution.sic_user - 1
    (xd, yd), (xo, yo) = pair[decoder], pair[1 - decoder]
    x = solution.x_star

    margin = (x - xd) * (x - xd) + yd * yd - ((x - xo) * (x - xo) + yo * yo)
    planar_scale = max(1.0, (x - xo) * (x - xo) + yo * yo)
    tiny = _TOL * max(1.0, abs(xd), abs(xo), params.half_length)
    between = min(xd, xo) - tiny <= x <= max(xd, xo) + tiny
    inside = -params.half_length - tiny <= x <= params.half_length + tiny
    power_floor = -_TOL * max(1.0, solution.total)
    return AssumptionChecks(
        sic_distance_margin=margin,
        strong_user_ok=margin <= _TOL * planar_scale,
        x_between_users=between and inside,
        powers_nonnegative=all(p >= power_floor for p in solution.powers),
    )
