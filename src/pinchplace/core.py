"""Channel model, geometry, and unit conversions for pinching-antenna downlinks.

A single antenna is activated at position (x, 0, height) on a waveguide that
runs along the x axis above a rectangular service area of size
length_m x width_m centred on the origin.  Users sit on the floor at
(x_m, y_m, 0).  The received SNR is governed by the free-space gain
path_gain / squared_distance, so every solver in this package reduces to
geometry on squared distances.

All rates are in nats per channel use and all powers in watts.  Bit and dBm
conversions happen only at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DomainError

SPEED_OF_LIGHT = 2.99792458e8  # m/s

LN2 = math.log(2.0)


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of one deployment.

    carrier_hz: carrier frequency in Hz
    noise_w:    receiver noise power in watts
    height_m:   waveguide height above the user plane in metres
    length_m:   service-area extent along the waveguide (x axis)
    width_m:    service-area extent across the waveguide (y axis)
    """

    carrier_hz: float
    noise_w: float
    height_m: float
    length_m: float
    width_m: float

    def __post_init__(self) -> None:
        for name in ("carrier_hz", "noise_w", "height_m", "length_m", "width_m"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"SystemParams.{name} must be a positive finite number, got {value!r}")
        # every solver divides by these; one that under- or overflows a float has no solution
        for name, value in (("height_m**2", self.height_m * self.height_m),
                            ("half_length**2", self.half_length * self.half_length),
                            ("path gain", path_gain(self))):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"SystemParams {name} is {value!r}; it must be a positive finite number")

    @classmethod
    def default(cls) -> "SystemParams":
        """28 GHz indoor setup: -90 dBm noise, 3 m height, 40 m x 10 m area."""
        return cls(carrier_hz=28e9, noise_w=1e-12, height_m=3.0, length_m=40.0, width_m=10.0)

    @property
    def half_length(self) -> float:
        return self.length_m / 2.0

    @property
    def half_width(self) -> float:
        return self.width_m / 2.0


@dataclass(frozen=True)
class UserLayout:
    """Positions of the served users as ((x_1, y_1), ..., (x_M, y_M))."""

    users: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.users) == 0:
            raise ValueError("UserLayout needs at least one user")
        clean = tuple((float(x), float(y)) for x, y in self.users)
        if any(not (math.isfinite(x) and math.isfinite(y)) for x, y in clean):
            raise ValueError("user coordinates must be finite")
        object.__setattr__(self, "users", clean)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[float]]) -> "UserLayout":
        return cls(tuple((float(p[0]), float(p[1])) for p in (tuple(q) for q in pairs)))

    def __len__(self) -> int:
        return len(self.users)

    @property
    def xs(self) -> np.ndarray:
        return np.array([u[0] for u in self.users], dtype=float)

    @property
    def ys(self) -> np.ndarray:
        return np.array([u[1] for u in self.users], dtype=float)

    def validate(self, params: SystemParams) -> None:
        """Raise ValueError when any user is outside the service area."""
        hl, hw = params.half_length, params.half_width
        for i, (x, y) in enumerate(self.users):
            if not (-hl <= x <= hl and -hw <= y <= hw):
                raise ValueError(
                    f"user {i + 1} at ({x}, {y}) is outside the {params.length_m} x {params.width_m} m service area"
                )


@dataclass(frozen=True)
class PlacementSolution:
    """Antenna position plus per-user transmit powers and the objective value."""

    x_star: float
    powers: tuple[float, ...]
    objective: float


class NomaRates(NamedTuple):
    """Achieved NOMA rates: the SIC user's own rate, the direct user's rate,
    and the SIC user's rate when decoding the direct user's signal."""

    strong: float
    weak: float
    sic: float


def user_pair(layout: UserLayout) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two users of a two-user layout; DomainError for any other count."""
    if len(layout) != 2:
        raise DomainError(f"this solver serves exactly 2 users, got {len(layout)}")
    return layout.users[0], layout.users[1]


def path_gain(params: SystemParams) -> float:
    """Free-space gain numerator (c / (4 pi f_c))^2, in m^2."""
    quarter_wave_scale = SPEED_OF_LIGHT / (4.0 * math.pi * params.carrier_hz)
    return quarter_wave_scale * quarter_wave_scale


def squared_distance(user_x, user_y, antenna_x, height_m: float):
    """Squared antenna-user distance (x - x_m)^2 + y_m^2 + h^2; broadcasts over arrays."""
    dx = antenna_x - user_x
    return dx * dx + user_y * user_y + height_m * height_m


def oma_rate(params: SystemParams, power_w: float, sq_dist_m2: float, num_users: int) -> float:
    """Per-user rate under time sharing among num_users, in nats per channel use."""
    if num_users < 1:
        raise ValueError("num_users must be >= 1")
    snr = path_gain(params) * power_w / (params.noise_w * sq_dist_m2)
    return math.log1p(snr) / num_users


def noma_rates(
    params: SystemParams,
    p_strong: float,
    p_weak: float,
    sq_dist_strong: float,
    sq_dist_weak: float,
) -> NomaRates:
    """Rates of a two-user superposition downlink.

    The strong user removes the weak user's signal before decoding its own, so
    its own-signal rate sees noise only.  The weak user decodes directly and
    sees the strong user's signal as interference; the strong user's decode of
    the weak signal sees the same interference at its own (shorter) distance.
    """
    g = path_gain(params)
    n = params.noise_w
    strong = math.log1p(g * p_strong / (n * sq_dist_strong))
    weak = math.log1p(g * p_weak / (g * p_strong + n * sq_dist_weak))
    sic = math.log1p(g * p_weak / (g * p_strong + n * sq_dist_strong))
    return NomaRates(strong=strong, weak=weak, sic=sic)


def power_coeff(params: SystemParams, rate_nats: float, slots: int) -> float:
    """Watts per m^2 of squared distance that one user needs to reach rate_nats.

    slots is the time-sharing factor: the number of users for OMA schemes
    (each user gets a 1/M slot, so the SNR must hit e^(M R) - 1) and 1 for
    NOMA, where users transmit simultaneously.  DomainError when the
    coefficient overflows.
    """
    if rate_nats < 0:
        raise ValueError("rate target must be nonnegative")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    try:
        coeff = params.noise_w / path_gain(params) * math.expm1(slots * rate_nats)
    except OverflowError:
        coeff = math.inf
    if not math.isfinite(coeff):
        raise DomainError(f"rate target {rate_nats} nats over {slots} slot(s) needs a non-finite power")
    return coeff


@dataclass(frozen=True)
class MinPowerTerms:
    """Coefficients of the minimum power meeting a rate target.

    Serving user m from position x needs
        power = coeff * (x - x_m)^2 + floors[m]
    where coeff (W/m^2) scales the along-waveguide offset and floors[m]
    already contains the user's fixed cross-range and height offsets.
    """

    coeff: float
    xs: tuple[float, ...]
    floors: tuple[float, ...]

    def powers_at(self, x: float) -> tuple[float, ...]:
        """Each user's minimum power with the antenna at x."""
        return tuple(self.coeff * (x - xm) * (x - xm) + f for xm, f in zip(self.xs, self.floors))


def min_power_terms(
    params: SystemParams, layout: UserLayout, rate_nats: float, slots: int
) -> MinPowerTerms:
    """Invert the rate formula into per-user minimum-power terms (see power_coeff)."""
    coeff = power_coeff(params, rate_nats, slots)
    h2 = params.height_m * params.height_m
    floors = tuple(coeff * (y * y + h2) for _, y in layout.users)
    return MinPowerTerms(coeff=coeff, xs=tuple(x for x, _ in layout.users), floors=floors)


def dbm_to_watt(dbm: float) -> float:
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise DomainError(f"{dbm} dBm is too large to express in watts") from None


def watt_to_dbm(watt: float) -> float:
    if watt <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(watt) + 30.0


def bpcu_to_nats(rate_bpcu: float) -> float:
    return rate_bpcu * LN2


def nats_to_bpcu(rate_nats: float) -> float:
    return rate_nats / LN2
