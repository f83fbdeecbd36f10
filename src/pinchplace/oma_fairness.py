"""Closed-form antenna placement and power allocation for time-shared downlinks.

Two fairness-oriented problems over a single pinching antenna serving M users
in 1/M time slots each:

* max-min rate under a total power budget, and
* total power minimization under a per-user rate target.

Both share the same placement: the antenna goes to the mean of the user
x-coordinates.  For max-min, powers proportional to the squared distances
equalize every rate; for power minimization each user gets exactly the power
that meets its target.
"""

from __future__ import annotations

import math

from .core import (
    PlacementSolution,
    SystemParams,
    UserLayout,
    min_power_terms,
    path_gain,
    power_coeff,
    squared_distance,
)
from .errors import require


def _mean_x(layout: UserLayout) -> float:
    return float(layout.xs.mean())


def _common_rate(params: SystemParams, tau_sum: float, total_power_w: float, num_users: int) -> float:
    """(1/M) log(1 + gP / (noise * sum(tau))), the rate every user gets under proportional powers."""
    return math.log1p(path_gain(params) * total_power_w / (params.noise_w * tau_sum)) / num_users


def solve_max_min_rate(
    params: SystemParams, layout: UserLayout, total_power_w: float
) -> PlacementSolution:
    """Maximize the worst per-user rate under a total power budget.

    With powers chosen as P_m = tau_m / sum(tau) * P all rates are equal and
    the common rate (1/M) log(1 + gP / (noise * sum(tau))) depends on the
    antenna position only through sum(tau), which a mean-point antenna
    minimizes.  The objective of the returned solution is that common rate in
    nats per channel use.
    """
    if total_power_w <= 0:
        raise ValueError("total power budget must be positive")
    layout.validate(params)

    x_star = _mean_x(layout)
    h = params.height_m
    taus = [squared_distance(x, y, x_star, h) for x, y in layout.users]
    tau_sum = sum(taus)
    common_rate = _common_rate(params, tau_sum, total_power_w, len(layout))
    powers = tuple(t / tau_sum * total_power_w for t in taus)

    require(-params.half_length <= x_star <= params.half_length,
            "the max-min placement lies on the waveguide")
    require(all(p >= 0.0 for p in powers), "max-min powers are nonnegative")
    return PlacementSolution(x_star=x_star, powers=powers, objective=common_rate)


def solve_min_total_power(
    params: SystemParams, layout: UserLayout, rate_nats: float
) -> PlacementSolution:
    """Minimize total transmit power while every user reaches rate_nats.

    Each user needs coeff * (x - x_m)^2 + floor_m watts, so the total is
    coeff * sum((x - x_m)^2) + const and the mean-point antenna is optimal.
    The objective of the returned solution is the total power in watts.
    """
    layout.validate(params)
    terms = min_power_terms(params, layout, rate_nats, slots=len(layout))

    x_star = _mean_x(layout)
    powers = terms.powers_at(x_star)

    require(-params.half_length <= x_star <= params.half_length,
            "the power-min placement lies on the waveguide")
    require(all(p >= 0.0 for p in powers), "power-min powers are nonnegative")
    return PlacementSolution(x_star=x_star, powers=powers, objective=sum(powers))


def conventional_max_min_rate(
    params: SystemParams, layout: UserLayout, total_power_w: float
) -> float:
    """Best common rate with the antenna fixed at the area centre.

    Power allocation is still optimized (proportional to the squared
    distances), only the placement is fixed, so this isolates the placement
    gain of a movable antenna.
    """
    if total_power_w <= 0:
        raise ValueError("total power budget must be positive")
    layout.validate(params)
    h = params.height_m
    tau_sum = sum(squared_distance(x, y, 0.0, h) for x, y in layout.users)
    return _common_rate(params, tau_sum, total_power_w, len(layout))


def conventional_min_total_power(
    params: SystemParams, layout: UserLayout, rate_nats: float
) -> float:
    """Total power meeting rate_nats with the antenna fixed at the area centre."""
    layout.validate(params)
    return sum(min_power_terms(params, layout, rate_nats, slots=len(layout)).powers_at(0.0))


def pinching_power_saving(params: SystemParams, layout: UserLayout, rate_nats: float) -> float:
    """Power saved by moving the antenna from the centre to the mean point.

    Expanding conventional minus pinching totals collapses to
    coeff * (sum x_m)^2 / M, which is nonnegative and grows when users
    cluster on one side of the area.
    """
    layout.validate(params)
    coeff = power_coeff(params, rate_nats, len(layout))
    x_sum = float(layout.xs.sum())
    return coeff * x_sum * x_sum / len(layout)

