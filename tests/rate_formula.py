"""The per-user time-shared rate, written apart from the solvers, shared by several test modules."""

import math

from pinchplace.core import SystemParams, path_gain


def oma_rate(params: SystemParams, power_w: float, sq_dist_m2: float, num_users: int) -> float:
    """Per-user rate under time sharing among num_users, in nats per channel use."""
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    snr = path_gain(params) * power_w / (params.noise_w * sq_dist_m2)
    return math.log1p(snr) / num_users
