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
from typing import Callable, Iterable, NamedTuple

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
        LayoutBlock.from_layouts([self]).validate(params)


@dataclass(frozen=True)
class LayoutBlock:
    """B layouts of M users each: user m of layout b sits at (xs[b, m], ys[b, m]).

    Both arrays are C-contiguous float64 of shape (B, M).  The block solvers
    take one and return one value per layout (row), each bit for bit what
    they return for the one-row block of that layout alone; like Python
    floats, they let a value overflow to inf without a warning.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.ascontiguousarray(self.xs, dtype=float)
        ys = np.ascontiguousarray(self.ys, dtype=float)
        if xs.ndim != 2 or xs.shape != ys.shape:
            raise ValueError(f"LayoutBlock needs xs and ys of one (B, M) shape, got {xs.shape} and {ys.shape}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def from_layouts(cls, layouts: Iterable[UserLayout]) -> "LayoutBlock":
        """One row per layout; all layouts must have the same number of users."""
        pairs = np.array([layout.users for layout in layouts], dtype=float)
        return cls(pairs[..., 0], pairs[..., 1])

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def num_users(self) -> int:
        return self.xs.shape[1]

    def layout(self, row: int) -> UserLayout:
        return UserLayout(tuple(zip(self.xs[row].tolist(), self.ys[row].tolist())))

    def validate(self, params: SystemParams) -> None:
        """Raise ValueError naming the first user (row by row) outside the service area."""
        hl, hw = params.half_length, params.half_width
        xs, ys = self.xs, self.ys
        inside = (np.abs(xs) <= hl) & (np.abs(ys) <= hw)
        if not inside.all():
            row, user = np.argwhere(~inside)[0]
            x, y = float(xs[row, user]), float(ys[row, user])
            raise ValueError(
                f"user {user + 1} at ({x}, {y}) is outside the {params.length_m} x {params.width_m} m service area"
            )


@dataclass(frozen=True)
class PlacementSolution:
    """Antenna position plus per-user transmit powers and the objective value.

    A block solver returns one whose fields hold a row per layout: x_star and
    objective of shape (B,), powers of shape (B, M).  An objective of -inf
    marks an infeasible row.
    """

    x_star: float
    powers: tuple[float, ...]
    objective: float

    def row(self, i: int) -> "PlacementSolution | None":
        """Layout i's solution of a block solution; None where that layout is infeasible."""
        if self.objective[i] == -math.inf:
            return None
        return PlacementSolution(x_star=float(self.x_star[i]), powers=tuple(self.powers[i].tolist()),
                                 objective=float(self.objective[i]))


class NomaRates(NamedTuple):
    """Achieved NOMA rates: the SIC user's own rate, the direct user's rate,
    and the SIC user's rate when decoding the direct user's signal."""

    strong: float
    weak: float
    sic: float


def user_pair(layout: UserLayout | LayoutBlock):
    """The two users of a two-user layout as ((x1, y1), (x2, y2)); DomainError for any other count.

    The coordinates are floats for a UserLayout and (B,) columns for a LayoutBlock.
    """
    if isinstance(layout, LayoutBlock):
        count, users = layout.num_users, tuple(zip(layout.xs.T, layout.ys.T))
    else:
        count, users = len(layout), layout.users
    if count != 2:
        raise DomainError(f"this solver serves exactly 2 users, got {count}")
    return users[0], users[1]


def libm(fn: Callable[[float], float], values):
    """fn, a function of the math module, applied to a float or to every element of an array.

    numpy's own transcendentals differ from the C library's by an ulp on
    some inputs, so the block solvers evaluate them with math.* element by
    element: every row then keeps the C library's value bit for bit, as
    the recorded CSV digests expect.
    """
    flat = np.asarray(values, dtype=float)
    if flat.ndim == 0:
        return fn(float(flat))
    return np.fromiter(map(fn, flat.ravel().tolist()), dtype=float, count=flat.size).reshape(flat.shape)


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
    strong = libm(math.log1p, g * p_strong / (n * sq_dist_strong))
    weak = libm(math.log1p, g * p_weak / (g * p_strong + n * sq_dist_weak))
    sic = libm(math.log1p, g * p_weak / (g * p_strong + n * sq_dist_strong))
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
    already contains the user's fixed cross-range and height offsets.  xs
    and floors have shape (M,) for one layout and (B, M) for a block.
    """

    coeff: float
    xs: np.ndarray
    floors: np.ndarray

    def powers_at(self, x) -> np.ndarray:
        """Each user's minimum power with the antenna at x: a float, or one position per row of a block."""
        offset = np.expand_dims(x, -1) - self.xs
        return self.coeff * offset * offset + self.floors


def min_power_terms(
    params: SystemParams, layout: UserLayout | LayoutBlock, rate_nats: float, slots: int
) -> MinPowerTerms:
    """Invert the rate formula into per-user minimum-power terms (see power_coeff)."""
    coeff = power_coeff(params, rate_nats, slots)
    h2 = params.height_m * params.height_m
    ys = layout.ys
    return MinPowerTerms(coeff=coeff, xs=layout.xs, floors=coeff * (ys * ys + h2))


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
