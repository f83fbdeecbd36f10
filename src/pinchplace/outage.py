"""Outage probability of the power-minimizing placement under a per-user budget.

With users dropped uniformly at random, the power that user m needs after the
antenna moves to the mean point is itself random; an outage occurs when it
exceeds the budget.  For two users the probability has a closed form obtained
by integrating the distribution of the normalized squared x-offset (whose CDF
is 2 sqrt(z) - z) over the user's cross-range coordinate.  For any M the same
event is estimated by Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .core import SCAN_SLICE, SystemParams, power_coeff, row_sum
from .errors import require

# Trials are drawn in fixed-size blocks, one counter-based stream per block,
# so the estimate is a pure function of (seed, trials) no matter how blocks
# are scheduled.  A block's draws are taken in consecutive sub-draws of at
# most SCAN_SLICE values, which continue the block's stream.
_BLOCK = 1 << 16

_ASIN_CLAMP = 1e-12


class OutageEstimate(NamedTuple):
    probability: float
    stderr: float


@dataclass(frozen=True)
class IntegrationLimits:
    """Pieces of the two-user closed form.

    headroom:   budget / coeff - height^2, the largest squared offset
                (x-part plus y-part) the budget can cover, in m^2
    normalized: headroom rescaled by (length / 2)^2, so the x-part condition
                reads z >= normalized - (2 y / length)^2 for z in [0, 1]
    y_hi:       upper integration limit over the cross-range coordinate
    y_lo:       lower limit; below it even a maximal x-offset cannot fail
    """

    headroom: float
    normalized: float
    y_hi: float
    y_lo: float


def _limits(params: SystemParams, budget_over_coeff: float) -> IntegrationLimits:
    headroom = budget_over_coeff - params.height_m * params.height_m
    half_len_sq = params.half_length * params.half_length
    normalized = headroom / half_len_sq
    y_hi = min(params.half_width, math.sqrt(headroom))
    y_lo = math.sqrt(max(0.0, half_len_sq * (normalized - 1.0)))
    return IntegrationLimits(headroom=headroom, normalized=normalized, y_hi=y_hi, y_lo=y_lo)


def _budget_over_coeff(params: SystemParams, rate_nats: float, budget_w: float, slots: int) -> float:
    """The largest squared distance the budget can serve, in m^2; inf where the coefficient underflows to 0."""
    coeff = power_coeff(params, rate_nats, slots)
    return budget_w / coeff if coeff > 0.0 else math.inf


def _tail_integral(y: float, lim: IntegrationLimits, params: SystemParams) -> float:
    """Antiderivative of 1 - 2 sqrt(w(y)) + w(y) where w(y) is the normalized
    x-part threshold at cross-range y.  Valid for 0 <= y <= sqrt(headroom); the root is exactly 0 at the top."""
    length = params.length_m
    len_sq = length * length
    edge = math.sqrt(lim.headroom)
    root = 0.0 if y >= edge else math.sqrt(max(lim.headroom - y * y, 0.0))
    ratio = y / edge
    if ratio > 1.0:
        require(ratio <= 1.0 + _ASIN_CLAMP, "the asin argument leaves [-1, 1] by at most _ASIN_CLAMP")
        ratio = 1.0
    circular = y / 2.0 * root + lim.headroom / 2.0 * math.asin(ratio)
    return (
        y
        + lim.normalized * y
        - 4.0 / (3.0 * len_sq) * y * y * y
        - 4.0 / length * circular
    )


def closed_form_outage(params: SystemParams, rate_nats: float, budget_w: float) -> float:
    """Probability that the power-minimizing scheme needs more than budget_w
    for one user of a uniformly random two-user drop.

    rate_nats is the per-user target of the underlying two-slot time-shared
    scheme; monte_carlo_outage covers other user counts.
    """
    if not budget_w > 0:  # NaN fails these checks too
        raise ValueError("budget must be positive")
    if not rate_nats > 0:
        raise ValueError("rate target must be positive")

    budget_over_coeff = _budget_over_coeff(params, rate_nats, budget_w, 2)
    if budget_over_coeff <= params.height_m * params.height_m:
        return 1.0

    lim = _limits(params, budget_over_coeff)
    half_width = params.half_width
    certain = 2.0 / params.width_m * (half_width - min(half_width, math.sqrt(lim.headroom)))
    partial = 0.0
    if lim.y_hi >= lim.y_lo:
        partial = 2.0 / params.width_m * (
            _tail_integral(lim.y_hi, lim, params) - _tail_integral(lim.y_lo, lim, params)
        )
    prob = certain + partial

    require(-1e-9 <= prob <= 1.0 + 1e-9, "the closed-form outage probability lies in [0, 1]")
    return min(max(prob, 0.0), 1.0)


def monte_carlo_outage(
    params: SystemParams,
    num_users: int,
    rate_nats: float,
    budget_w: float,
    trials: int,
    seed: int,
) -> OutageEstimate:
    """Estimate the same outage event by dropping layouts uniformly at random.

    Works for any num_users >= 1.  The first user's power is compared against
    the budget; the users are exchangeable, so any one gives the same event
    probability.  Returns the estimate and its binomial standard error.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if num_users < 1:
        raise ValueError(f"users must be >= 1, got {num_users}")
    if not budget_w > 0:  # NaN fails these checks too
        raise ValueError("budget must be positive")
    if not rate_nats > 0:
        raise ValueError("rate target must be positive")

    h2 = params.height_m * params.height_m
    # outage  <=>  coeff * ((xbar - x_m)^2 + y_m^2 + h^2) >= budget
    threshold = _budget_over_coeff(params, rate_nats, budget_w, num_users) - h2

    hl, hw = params.half_length, params.half_width
    sub = max(1, SCAN_SLICE // (2 * num_users))
    failures = 0
    for block_index, start in enumerate(range(0, trials, _BLOCK)):
        n = min(_BLOCK, trials - start)
        g = rng.stream(seed, rng.DOMAIN_OUTAGE, block_index)
        for done in range(0, n, sub):
            draws = g.random((min(sub, n - done), 2 * num_users))
            # each user's x, and user 0's y, as one contiguous row over the sub-draw's trials, scaled
            # in place by (2 u - 1) * half side; row_sum gives the bits of the row-wise mean of the
            # (trials, num_users) x array
            rows = np.ascontiguousarray(draws[:, :num_users + 1].T)
            rows *= 2.0
            rows -= 1.0
            xs, y0 = rows[:num_users], rows[num_users]
            xs *= hl
            y0 *= hw
            offset = row_sum(list(xs)) / num_users - xs[0]
            need = offset * offset + y0 * y0
            failures += int((need >= threshold).sum())

    p = failures / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    return OutageEstimate(probability=p, stderr=stderr)


def outage_rate(probability: float, rate_nats: float) -> float:
    """Long-run throughput when failed slots deliver nothing: (1 - p) * rate."""
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    return (1.0 - probability) * rate_nats
