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

import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError

SPEED_OF_LIGHT = 2.99792458e8  # m/s

LN2 = math.log(2.0)

# The most float64 values (32 KiB) that a certification scan hands numpy at once: the oracle
# scans a grid in slices of this many abscissae and Monte Carlo outage draws its trials in
# sub-draws of this many values.  glibc's malloc serves a block this size from the heap (it
# maps fresh pages only from 128 KiB up) and its free never trims the heap for one under
# 64 KiB, so each scan reuses the same heap pages instead of having the kernel map and zero
# new ones on every call.
SCAN_SLICE = 4096


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
        hl, hw, h2, gain = self.half_length, self.half_width, self.height_m * self.height_m, path_gain(self)
        for name, value in (("half_length**2", hl * hl), ("path gain", gain)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"SystemParams {name} is {value!r}; it must be a positive finite number")
        # the one numeric domain of every route.  Below: a user's squared offset across the waveguide
        # or its noise, the denominator noise * tau / gain (tau >= h^2) of an SNR p / q or noise * tau
        # of gain * p / (noise * tau), leaves the normal floats, where quotients of them lose their
        # bits or overflow.  Above: the largest squared distance, an antenna at one end of the
        # waveguide to a user at the other, overflows in the degree-6 terms of the high-SNR cubic.
        for name, value in (("height_m**2", h2), ("(width_m/2)**2", hw * hw),
                            ("noise_w * height_m**2 / path gain", self.noise_w * h2 / gain),
                            ("noise_w * height_m**2", self.noise_w * h2)):
            if not value >= sys.float_info.min:
                raise ValueError(f"SystemParams {name} is {value!r}; it must be at least the smallest normal float")
        reach = self.length_m * self.length_m + hw * hw + h2
        cube = reach * reach * reach
        if not math.isfinite(cube):
            raise ValueError(f"SystemParams (length_m**2 + (width_m/2)**2 + height_m**2)**3 is {cube!r}; "
                             "it must be finite")

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
class LayoutBlock:
    """B layouts of M users each: user m of layout b sits at (xs[b, m], ys[b, m]).

    Both arrays are C-contiguous float64 of shape (B, M).  The block solvers
    take one and return one value per layout (row), each bit for bit what
    they return for the one-row block of that layout alone (block[i:i + 1]),
    which is also how a single instance is passed; like Python
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
    def from_layouts(cls, layouts: Iterable[Iterable[tuple[float, float]]]) -> "LayoutBlock":
        """One row per layout, each a sequence of (x, y) users; all layouts must have the same number of users.

        Raises ValueError on no layouts, no users, layouts of unequal size or a user that is no (x, y) pair.
        """
        try:
            pairs = np.array([list(layout) for layout in layouts], dtype=float)
        except (TypeError, ValueError):  # a layout or user that is not a sequence, or ragged ones
            pairs = np.empty(0)
        if pairs.ndim != 3 or pairs.shape[2] != 2 or pairs.size == 0:
            raise ValueError("LayoutBlock.from_layouts needs one or more equal-sized layouts of (x, y) pairs")
        return cls(pairs[..., 0], pairs[..., 1])

    def __len__(self) -> int:
        return self.xs.shape[0]

    def __getitem__(self, rows: slice) -> "LayoutBlock":
        """The layouts of a slice of rows as a block of their own; block[i:i + 1] is layout i alone."""
        return LayoutBlock(self.xs[rows], self.ys[rows])

    @property
    def num_users(self) -> int:
        return self.xs.shape[1]

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


def user_pair(block: LayoutBlock):
    """The two users of each layout of a block as ((x1, y1), (x2, y2)), each coordinate a (B,) column.

    DomainError for any other number of users.
    """
    if block.num_users != 2:
        raise DomainError(f"this solver serves exactly 2 users, got {block.num_users}")
    return (block.xs[:, 0], block.ys[:, 0]), (block.xs[:, 1], block.ys[:, 1])


def one_row(block: LayoutBlock) -> LayoutBlock:
    """block itself when it holds exactly one layout; DomainError for any other row count.

    Every single-instance route takes a one-row block through this check, so
    a block of several layouts is refused rather than read as its first row.
    """
    if len(block) != 1:
        raise DomainError(f"this route takes a one-row block, got {len(block)} rows")
    return block


def one_pair(block: LayoutBlock) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two users of a one-row two-user block as float (x, y) pairs (see one_row and user_pair)."""
    (x1, y1), (x2, y2) = user_pair(one_row(block))
    return (float(x1[0]), float(y1[0])), (float(x2[0]), float(y2[0]))


def libm(fn: Callable[..., float], values, *args: float):
    """fn(value, *args), fn a function of the math module, applied to a float or to every element of an array.

    The trailing args are scalars passed to every call, as math.pow's
    exponent in libm(math.pow, ys, 2.0).  numpy's own transcendentals and
    powers differ from the C library's by an ulp on some inputs, so the
    block solvers evaluate them with math.* element by element: every row
    then keeps the C library's value bit for bit, as the recorded CSV
    digests expect.  A sweep value's transcendentals, which take the same
    value on every trial of a point, go through libm_per_run instead.
    """
    flat = np.asarray(values, dtype=float)
    if flat.ndim == 0:
        return fn(float(flat), *args)
    calls = map(fn, flat.ravel().tolist(), *(itertools.repeat(arg) for arg in args))
    return np.fromiter(calls, dtype=float, count=flat.size).reshape(flat.shape)


def libm_per_run(fn: Callable[..., float], values, *args: float):
    """libm(fn, values, *args), with fn called once per run of bit-equal consecutive entries of a column.

    A sweep's column of rate targets repeats each point's value once per
    trial, so its coefficients cost one C-library call per sweep point and
    not one per row.  Runs are told apart by their bits, so 0.0 and -0.0 or
    two NaNs of other payloads each get their own call; a float or a
    column of fewer than two entries goes to libm as is.  A column of
    distinct values pays for the run check on top of libm, which is why
    libm itself does not look for repeats.
    """
    flat = np.asarray(values, dtype=float)
    if flat.size < 2:
        return libm(fn, flat, *args)
    flat = flat.ravel()
    bits = flat.view(np.int64)
    # the index where each run starts, then the column's length
    edges = np.concatenate(([0], np.flatnonzero(bits[1:] != bits[:-1]) + 1, [len(flat)]))
    return np.repeat(libm(fn, flat[edges[:-1]], *args), edges[1:] - edges[:-1]).reshape(np.shape(values))


def per_row(value):
    """A sweep value as a block solver broadcasts it: a float as is, a (B,) column as (B, 1).

    The solvers that take a total power or a rate target accept either one
    float for every layout of a block or a (B,) column with one value per
    layout; row i then equals the one-row block of layout i solved with
    column[i] as a float, bit for bit.
    """
    return np.asarray(value)[:, None] if np.ndim(value) else value


def first_where(value, flagged) -> float:
    """The first entry of value (a float or a (B,) column) where the boolean flagged holds."""
    return float(np.broadcast_to(value, np.shape(flagged))[flagged][0])


def require_rows(value, block: LayoutBlock, what: str) -> None:
    """ValueError unless value is a float or a column with one entry per layout of block (see per_row).

    A float is any real number and a column an ndarray; any other type, such
    as a list, is refused by name before a guard compares it with a number.
    """
    if not isinstance(value, (float, np.ndarray, numbers.Real)):
        raise ValueError(f"{what} must be a float or a ({len(block)},) column, got a {type(value).__name__}")
    shape = np.shape(value)
    if shape and shape != (len(block),):
        raise ValueError(f"{what} must be a float or a ({len(block)},) column, got shape {shape}")


def require_positive(value, block: LayoutBlock, what: str) -> None:
    """ValueError naming the first entry of value (a float or a (B,) column) that is not positive, NaN included.

    A column whose length is not the block's also fails (see require_rows).
    """
    require_rows(value, block, what)
    low = np.logical_not(value > 0)
    if np.any(low):
        raise ValueError(f"{what} must be positive, got {first_where(value, low)!r}")


def path_gain(params: SystemParams) -> float:
    """Free-space gain numerator (c / (4 pi f_c))^2, in m^2."""
    quarter_wave_scale = SPEED_OF_LIGHT / (4.0 * math.pi * params.carrier_hz)
    return quarter_wave_scale * quarter_wave_scale


def squared_distance(user_x, user_y, antenna_x, height_m: float):
    """Squared antenna-user distance (x - x_m)^2 + y_m^2 + h^2; broadcasts over arrays."""
    dx = antenna_x - user_x
    return dx * dx + user_y * user_y + height_m * height_m


def row_sum(terms: Sequence):
    """The sum of one or more same-shape arrays (or scalars), bit for bit np.add.reduce along a contiguous row.

    np.sum(a, axis=-1) of a C-contiguous (..., M) array adds each row's M
    entries in a fixed order: from its identity 0.0, left to right below 8
    terms, in 8 interleaved partial sums folded as a tree up to 128 terms,
    and as two recursive halves (the first a multiple of 8 long) above that.
    Summing M whole arrays term by term in that order gives every element
    the bits of the stacked array's row sum while each add runs over a whole
    array; tests/test_core.py::test_row_sum_equals_numpys_row_reduction pins
    this for M = 1..300.
    """
    return 0.0 + _pairwise_sum(terms)


def _pairwise_sum(terms: Sequence):
    n = len(terms)
    if n < 8:
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total
    if n <= 128:
        whole = n - n % 8
        r = list(terms[:8])
        for i in range(8, whole, 8):
            r = [partial + term for partial, term in zip(r, terms[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for term in terms[whole:]:
            total = total + term
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])


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


def _expm1(value: float) -> float:
    try:
        return math.expm1(value)
    except OverflowError:
        return math.inf


def power_coeff(params: SystemParams, rate_nats, slots: int):
    """Watts per m^2 of squared distance that one user needs to reach rate_nats.

    slots is the time-sharing factor: the number of users for OMA schemes
    (each user gets a 1/M slot, so the SNR must hit e^(M R) - 1) and 1 for
    NOMA, where users transmit simultaneously.  rate_nats is a float, which
    gives a float, or a (B,) column, which gives one coefficient per entry.
    ValueError when rate_nats is neither a real number nor an ndarray, and,
    naming the first such target, when one is negative or NaN or needs a
    least power coeff * height_m**2 that is positive but below the smallest
    normal float; DomainError when a coefficient overflows.  A column's
    e^(M R) - 1 is evaluated once per run of equal targets (libm_per_run).
    """
    if not isinstance(rate_nats, (float, np.ndarray, numbers.Real)):
        raise ValueError(f"rate target must be a float or an ndarray, got a {type(rate_nats).__name__}")
    low = np.logical_not(rate_nats >= 0)
    if np.any(low):
        raise ValueError(f"rate target must be nonnegative, got {first_where(rate_nats, low)!r}")
    if slots < 1:
        raise ValueError("slots must be >= 1")
    coeff = params.noise_w / path_gain(params) * libm_per_run(_expm1, slots * rate_nats)
    least = coeff * params.height_m**2
    # a finite least power of at least the smallest normal float passes both refusals below in one test;
    # a subnormal one keeps only a few significant bits, while 0 (a target of 0 or one whose power
    # underflows) is exact and a finite coefficient whose least power overflows is kept
    if not np.all((least >= sys.float_info.min) & (least < math.inf)):
        overflow = ~np.isfinite(coeff)
        if np.any(overflow):
            raise DomainError(f"rate target {first_where(rate_nats, overflow)} nats over {slots} slot(s) "
                              "needs a non-finite power")
        subnormal = (least > 0.0) & (least < sys.float_info.min)
        if np.any(subnormal):
            raise ValueError(f"rate target {first_where(rate_nats, subnormal)!r} nats over {slots} slot(s) needs "
                             "a least power coeff * height_m**2 below the smallest normal float")
    return coeff


@dataclass(frozen=True)
class MinPowerTerms:
    """Coefficients of the minimum power meeting a rate target.

    Serving user m from position x needs
        power = coeff * (x - x_m)^2 + floors[m]
    where coeff (W/m^2) scales the along-waveguide offset and floors[m]
    already contains the user's fixed cross-range and height offsets.  xs
    and floors have the block's (B, M) shape; coeff is a float, or (B, 1)
    for a column of rate targets.
    """

    coeff: float
    xs: np.ndarray
    floors: np.ndarray

    def powers_at(self, x) -> np.ndarray:
        """Each user's minimum power with the antenna at x: one position, or one per row of the block."""
        offset = np.expand_dims(x, -1) - self.xs
        return self.coeff * offset * offset + self.floors


def min_power_terms(params: SystemParams, block: LayoutBlock, rate_nats, slots: int) -> MinPowerTerms:
    """Invert the rate formula into per-user minimum-power terms (see power_coeff and per_row)."""
    require_rows(rate_nats, block, "rate target")
    coeff = per_row(power_coeff(params, rate_nats, slots))
    h2 = params.height_m * params.height_m
    ys = block.ys
    return MinPowerTerms(coeff=coeff, xs=block.xs, floors=coeff * (ys * ys + h2))


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
