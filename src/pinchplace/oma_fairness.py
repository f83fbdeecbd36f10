"""Closed-form antenna placement and power allocation for time-shared downlinks.

Two fairness-oriented problems over a single pinching antenna serving M users
in 1/M time slots each:

* max-min rate under a total power budget, and
* total power minimization under a per-user rate target.

Both share the same placement: the antenna goes to the mean of the user
x-coordinates.  For max-min, powers proportional to the squared distances
equalize every rate; for power minimization each user gets exactly the power
that meets its target.

Every solver takes a LayoutBlock of B layouts and returns one value per
layout (row); row i depends on layout i alone.  A single layout is a one-row
block, and its value is row 0.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    LayoutBlock,
    PlacementSolution,
    SystemParams,
    libm,
    min_power_terms,
    path_gain,
    power_coeff,
    squared_distance,
)
from .errors import require


def _mean_x(block: LayoutBlock) -> np.ndarray:
    # numpy's pairwise sum of each C-contiguous row, as for one layout's 1-D xs
    return block.xs.mean(axis=1)


def _sum_users(values: np.ndarray) -> np.ndarray:
    """Row sums of a (B, M) array, added left to right as Python's sum adds one layout's M terms."""
    total = values[:, 0]
    for m in range(1, values.shape[1]):
        total = total + values[:, m]
    return total


def _on_waveguide(params: SystemParams, x: np.ndarray) -> bool:
    return bool((np.abs(x) <= params.half_length).all())


def _common_rate(params: SystemParams, tau_sum: np.ndarray, total_power_w: float, num_users: int) -> np.ndarray:
    """(1/M) log(1 + gP / (noise * sum(tau))), the rate every user gets under proportional powers."""
    return libm(math.log1p, path_gain(params) * total_power_w / (params.noise_w * tau_sum)) / num_users


@np.errstate(over="ignore")
def solve_max_min_rate(params: SystemParams, block: LayoutBlock, total_power_w: float) -> PlacementSolution:
    """Maximize the worst per-user rate of each layout of a block under a total power budget.

    With powers chosen as P_m = tau_m / sum(tau) * P all rates are equal and
    the common rate (1/M) log(1 + gP / (noise * sum(tau))) depends on the
    antenna position only through sum(tau), which a mean-point antenna
    minimizes.  Returns a block PlacementSolution whose objective is that
    common rate in nats per channel use.
    """
    if total_power_w <= 0:
        raise ValueError("total power budget must be positive")
    block.validate(params)

    x_star = _mean_x(block)
    taus = squared_distance(block.xs, block.ys, x_star[:, None], params.height_m)
    tau_sum = _sum_users(taus)
    common_rate = _common_rate(params, tau_sum, total_power_w, block.num_users)
    powers = taus / tau_sum[:, None] * total_power_w

    require(_on_waveguide(params, x_star), "the max-min placement lies on the waveguide")
    require(bool((powers >= 0.0).all()), "max-min powers are nonnegative")
    return PlacementSolution(x_star=x_star, powers=powers, objective=common_rate)


@np.errstate(over="ignore")
def solve_min_total_power(params: SystemParams, block: LayoutBlock, rate_nats: float) -> PlacementSolution:
    """Minimize each layout's total transmit power while every user reaches rate_nats.

    Each user needs coeff * (x - x_m)^2 + floor_m watts, so the total is
    coeff * sum((x - x_m)^2) + const and the mean-point antenna is optimal.
    Returns a block PlacementSolution whose objective is the total power in
    watts.
    """
    block.validate(params)
    terms = min_power_terms(params, block, rate_nats, slots=block.num_users)

    x_star = _mean_x(block)
    powers = terms.powers_at(x_star)

    require(_on_waveguide(params, x_star), "the power-min placement lies on the waveguide")
    require(bool((powers >= 0.0).all()), "power-min powers are nonnegative")
    return PlacementSolution(x_star=x_star, powers=powers, objective=_sum_users(powers))


@np.errstate(over="ignore")
def conventional_max_min_rate(params: SystemParams, block: LayoutBlock, total_power_w: float) -> np.ndarray:
    """Best common rate of each layout of a block with the antenna fixed at the area centre.

    Power allocation is still optimized (proportional to the squared
    distances), only the placement is fixed, so this isolates the placement
    gain of a movable antenna.
    """
    if total_power_w <= 0:
        raise ValueError("total power budget must be positive")
    block.validate(params)
    tau_sum = _sum_users(squared_distance(block.xs, block.ys, 0.0, params.height_m))
    return _common_rate(params, tau_sum, total_power_w, block.num_users)


@np.errstate(over="ignore")
def conventional_min_total_power(params: SystemParams, block: LayoutBlock, rate_nats: float) -> np.ndarray:
    """Total power of each layout of a block meeting rate_nats with the antenna fixed at the area centre."""
    block.validate(params)
    return _sum_users(min_power_terms(params, block, rate_nats, slots=block.num_users).powers_at(0.0))


@np.errstate(over="ignore")
def pinching_power_saving(params: SystemParams, block: LayoutBlock, rate_nats: float) -> np.ndarray:
    """Power saved in each layout of a block by moving the antenna from the centre to the mean point.

    Expanding conventional minus pinching totals collapses to
    coeff * (sum x_m)^2 / M, which is nonnegative and grows when users
    cluster on one side of the area.
    """
    block.validate(params)
    coeff = power_coeff(params, rate_nats, block.num_users)
    x_sum = block.xs.sum(axis=1)
    return coeff * x_sum * x_sum / block.num_users
