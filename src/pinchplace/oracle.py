"""Brute-force reference optimizers used to certify the closed-form solvers.

These are deliberately dumb: a dense grid scan followed by golden-section
refinement inside the best bracketing interval.  They exist so every analytic
result in this package can be checked against a search that shares none of its
algebra.  Determinism contract: pure functions of their inputs, ties broken
toward the smallest abscissa, and the returned value is never worse than any
grid sample; a search that finds no finite point returns None.

A search is two steps.  scan_grid walks the grid of one objective and gives
its best grid index and value; refine_rows runs the golden-section refinement
from such points, one per row of a block; grid_optimize is the one composed
with the other.  A search that finds its best grid points another way
(oma_greedy's pruned scan) hands them to refine_rows and is refined exactly
as a full scan would be.  The scan hands an objective the grid in consecutive
slices of at most core.SCAN_SLICE (4096) abscissae, so no scan temporary
outgrows 32 KiB, and an objective must be elementwise in its abscissae (every
objective in this package is).  The refinement is one algorithm in two forms:
the _golden_section loop for a lone live row, probed at a 0-d np.float64,
and _golden_section_rows for a block, whose rows move in lockstep (rows,)
arrays with the loop's IEEE operations, so a row's bits do not depend on the
form.  A lone row costs refine_iters + 2 probe calls; a block
makes two iterations per call, probing each row's next abscissa with both it
could probe after that, so it costs 1 + ceil(refine_iters / 2) calls per
chunk of at most SCAN_SLICE // 3 rows (see RowObjective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import SCAN_SLICE
from .errors import NonFinite

# 1 / golden ratio; each refinement iteration shrinks the bracket by this factor.
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GridSpec:
    """A 1-D search grid: points equally spaced on [lo, hi], then refine_iters
    golden-section iterations inside the best grid cell pair."""

    lo: float
    hi: float
    points: int
    refine_iters: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"GridSpec needs finite lo < hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"GridSpec span hi - lo overflows a float, got [{self.lo}, {self.hi}]")
        if self.points < 3:
            raise ValueError("GridSpec.points must be >= 3")
        if self.refine_iters < 0:
            raise ValueError("GridSpec.refine_iters must be >= 0")

    def abscissae(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """np.linspace(lo, hi, points)[start:stop], bit for bit, without building the rest of the grid."""
        start, stop, _ = slice(start, stop).indices(self.points)
        xs = self._scaled(np.arange(start, stop, dtype=float))
        if stop == self.points and stop > start:
            xs[-1] = self.hi
        return xs

    def at(self, index) -> np.ndarray:
        """np.linspace(lo, hi, points)[index] for integer indices (an array or nested lists), bit for bit.

        Like abscissae, it builds only the points it is asked for.
        """
        index = np.asarray(index)
        xs = self._scaled(index.astype(float))
        xs[index == self.points - 1] = self.hi
        return xs

    def _scaled(self, xs: np.ndarray) -> np.ndarray:
        """Grid indices xs (a float array, scaled in place) as abscissae, but for the last point.

        Point i is float(i) * step + lo, and a span whose step underflows to 0
        takes linspace's (i / div) * span instead; linspace puts hi itself last.
        """
        div = self.points - 1
        span = self.hi - self.lo
        step = span / div
        if step == 0.0:
            xs /= div
            xs *= span
        else:
            xs *= step
        xs += self.lo
        return xs


def certification_grid(lo: float, hi: float) -> GridSpec:
    """Default grid used when certifying closed forms: dense scan plus deep refinement."""
    return GridSpec(lo=lo, hi=hi, points=20001, refine_iters=40)


Objective = Callable[[np.ndarray], np.ndarray]
# refine_rows binds a row objective to the rows it refines once: objective(rows)
# with an int array `rows` gives a probe whose probe(xs) evaluates row rows[k]
# at xs[k], and objective(row) with a lone int row gives a probe evaluated at
# one abscissa as a 0-d np.float64, when it is the only row being refined.  A
# bound array may repeat rows: a block binds three copies of its live rows,
# np.tile(live, 3), for the three probes that each call makes per row.  The
# lone probe is an np.float64, not a Python float, so that errstate, inf and
# NaN behave as on arrays; its + - * / are the same IEEE operations and a
# ufunc runs the same loop on it, so a row's probes give the bits they give
# inside a block.  A probe that raises TypeError on the 0-d abscissa, as one
# that takes len(xs) does, is probed at 1-element arrays for the rest of that
# refinement instead.
RowObjective = Callable[[int | np.ndarray], Objective]


def grid_optimize(
    objective: Objective,
    spec: GridSpec,
    sense: str = "min",
    skip_nonfinite: bool = False,
) -> tuple[float, float] | None:
    """Optimize a scalar objective over spec, returning (x_best, value).

    objective must accept a 1-D numpy array of abscissae and return an array
    of the same shape; with refine_iters > 0 it is also handed each probe as
    a 0-d np.float64 and returns one value (see RowObjective).  With
    skip_nonfinite=False (the default) a NaN or infinity anywhere on the grid
    raises NonFinite; with True such points are treated as absent, and None
    is returned if none remain.
    """
    return refine_rows(lambda _: objective, spec, [scan_grid(objective, spec, sense, skip_nonfinite)], sense)[0]


def _flip(sense: str) -> float:
    """The sign that turns a search of the given sense into a minimization."""
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    return 1.0 if sense == "min" else -1.0


def scan_grid(
    objective: Objective,
    spec: GridSpec,
    sense: str = "min",
    skip_nonfinite: bool = False,
) -> tuple[int, float] | None:
    """The best grid point of objective over spec as (grid index, value), or None.

    The grid is scanned in one objective call per slice of at most SCAN_SLICE
    consecutive points; a running optimum that only a strictly better value
    moves keeps the smallest-x tie-break across the slices.  With
    skip_nonfinite=False a NaN or infinity on the grid raises NonFinite; with
    True such points are treated as absent, and a grid with none left gives
    None.
    """
    flip = _flip(sense)
    best_i, best_v = -1, math.inf
    for start in range(0, spec.points, SCAN_SLICE):
        xs = spec.abscissae(start, start + SCAN_SLICE)
        raw = np.asarray(objective(xs), dtype=float)
        if raw.shape != xs.shape:
            raise ValueError("objective must return one value per abscissa")
        # argmin and argmax take the first (smallest-x) index on ties and the
        # first NaN if there is one, and an infinity of the wrong sign cannot
        # win, so a finite extreme is the best finite point; the slice is
        # masked only when it is not, or, without skip_nonfinite, when the
        # opposite extreme shows an infinity
        i = int(raw.argmin() if flip > 0.0 else raw.argmax())
        v = flip * float(raw[i])
        if not (math.isfinite(v) and (skip_nonfinite or math.isfinite(raw.max() if flip > 0.0 else raw.min()))):
            finite = np.isfinite(raw)
            if not skip_nonfinite:
                bad = int(np.flatnonzero(~finite)[0])
                raise NonFinite(f"objective is not finite at x = {xs[bad]!r}")
            vals = np.where(finite, flip * raw, np.inf)
            i = int(vals.argmin())
            v = float(vals[i])
        # a later slice only moves the incumbent on a strictly smaller value
        if v < best_v:
            best_i, best_v = start + i, v
    return (best_i, flip * best_v) if best_i >= 0 else None


def refine_rows(
    objective: RowObjective,
    spec: GridSpec,
    best: list[tuple[int, float] | None],
    sense: str = "min",
) -> list[tuple[float, float] | None]:
    """Refine each row's best grid point, (grid index, value) as scan_grid gives it, into (x_best, value).

    A row runs spec.refine_iters golden-section iterations between the grid
    neighbours of its point.  The one algorithm has two forms.  A lone live
    row runs the _golden_section loop, probed at a 0-d np.float64 in
    refine_iters + 2 calls.  A block of live rows moves every row's bracket,
    probes and incumbent together as (rows,) arrays (_golden_section_rows),
    two iterations per call, in chunks of at most SCAN_SLICE // 3 live rows:
    objective is bound once per chunk, to three copies of its rows (see
    RowObjective), and each call probes every row of the chunk at three
    abscissae, so no call takes more than SCAN_SLICE of them and a chunk
    costs 1 + ceil(refine_iters / 2) probe calls whatever its size.  Both
    forms make the same IEEE operations and comparisons on a row, so each
    row gets exactly the abscissae and the result it would get alone.  A
    None row stays None.
    """
    flip = _flip(sense)
    live = [row for row, b in enumerate(best) if b is not None]
    found: list[tuple[float, float] | None] = [None] * len(best)
    iters, last = spec.refine_iters, spec.points - 1
    # each live row's grid point between its neighbours, which bracket its refinement
    if iters > 0 and len(live) == 1:
        # a lone row's bracket, probes and incumbent stay Python floats: the block's array set-up
        # and state cost a one-row search more than its probes take
        (row,) = live
        i, v = best[row]
        a, x, b = spec.at([max(i - 1, 0), i, min(i + 1, last)]).tolist()
        x, v = _golden_section(objective(row), flip, a, b, x, flip * v, iters)
        found[row] = (x, flip * v)
    elif live:
        index, value = np.array([best[row] for row in live]).T
        index = index.astype(np.intp)
        a, x, b = spec.at(np.stack([np.maximum(index - 1, 0), index, np.minimum(index + 1, last)]))
        if iters > 0:
            # three probes per row share a call, so a chunk of SCAN_SLICE // 3 rows fills one slice
            rows, chunk, value = np.array(live), SCAN_SLICE // 3, flip * value
            for first in range(0, len(live), chunk):
                part = slice(first, first + chunk)
                probe = objective(np.tile(rows[part], 3))

                def measure(*xs: np.ndarray) -> np.ndarray:
                    values = flip * np.asarray(probe(np.concatenate(xs)), dtype=float).reshape(3, -1)
                    return np.where(values > -math.inf, values, math.inf)  # NaN and -inf read as inf

                x[part], value[part] = _golden_section_rows(measure, a[part], b[part], x[part], value[part], iters)
            value = flip * value
        for row, refined in zip(live, zip(x.tolist(), value.tolist())):
            found[row] = refined
    return found


def _golden_section(probe: Objective, flip: float, a: float, b: float, best_x: float, best_v: float,
                    iters: int) -> tuple[float, float]:
    """Golden-section minimization of flip * probe on [a, b] from the incumbent (best_x, best_v); the final one.

    probe is called once per abscissa, at a 0-d np.float64, and a value that
    is not finite reads as inf.  The incumbent only moves on a strict
    improvement, which preserves the smallest-x tie-break and the
    never-worse-than-grid guarantee.  A probe that raises TypeError on the 0-d
    abscissa, as one that takes len(xs) does, is handed the rest of this
    search's probes as 1-element arrays instead.
    """
    scalar = True

    def measure(x: float) -> float:
        nonlocal scalar
        if scalar:
            try:
                value = probe(np.float64(x))
            except TypeError:
                scalar = False
        if not scalar:
            value = probe(np.array([x]))
        # the value as a Python float, also where the probe gives it as a 1-element array
        v = np.asarray(value, dtype=float).item()
        return flip * v if math.isfinite(v) else math.inf

    m1 = b - _INV_PHI * (b - a)
    m2 = a + _INV_PHI * (b - a)
    f1, f2 = measure(m1), measure(m2)
    for x, v in ((m1, f1), (m2, f2)):
        if v < best_v:
            best_x, best_v = x, v
    for _ in range(iters):
        if f1 <= f2:
            b, m2, f2 = m2, m1, f1
            m1 = b - _INV_PHI * (b - a)
            f1 = measure(m1)
            if f1 < best_v:
                best_x, best_v = m1, f1
        else:
            a, m1, f1 = m1, m2, f2
            m2 = a + _INV_PHI * (b - a)
            f2 = measure(m2)
            if f2 < best_v:
                best_x, best_v = m2, f2
    return best_x, best_v


def _golden_section_rows(measure: Callable[..., np.ndarray], a: np.ndarray, b: np.ndarray, best_x: np.ndarray,
                         best_v: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """_golden_section of every row of (rows,) arrays at once: the brackets [a, b] and incumbents (best_x, best_v).

    measure takes three (rows,) arrays of probes in one call and gives the
    values there as a (3, rows) array (inf where not finite); the final
    incumbents are returned.  Each call makes two iterations: it probes this
    iteration's x together with both probes the next iteration could make,
    one for either outcome of x, and then applies both iterations with the
    values found.  So the opening pair shares one call (its third slot is
    unused), as does an odd last iteration with two probes it does not use,
    and the search costs 1 + ceil(iters / 2) calls.  Each row takes the
    branch its own f1 <= f2 picks, through np.where, and its probes, values
    and incumbent get the same IEEE operations and strict comparisons as in
    _golden_section, so every row ends with its bits.
    """
    step = _INV_PHI * (b - a)
    m1, m2 = b - step, a + step
    f1, f2, _ = measure(m1, m2, m2)  # the probe takes three abscissae a row, so m2 fills the third
    for x, v in ((m1, f1), (m2, f2)):
        better = v < best_v
        best_x, best_v = np.where(better, x, best_x), np.where(better, v, best_v)
    for done in range(0, iters, 2):
        # f1 <= f2 shrinks the bracket to [a, m2], whose upper probe is the old m1, and probes below
        # it; otherwise to [m1, b], whose lower probe is the old m2, and probes above it
        left = f1 <= f2
        a, b = np.where(left, a, m1), np.where(left, m2, b)
        step = _INV_PHI * (b - a)
        x = np.where(left, b - step, a + step)
        m1, m2 = np.where(left, x, m2), np.where(left, m1, x)
        # the next iteration probes below m2 (its bracket [a, m2]) if x leaves f1 <= f2, and above m1
        # (its bracket [m1, b]) if not
        below, above = m2 - _INV_PHI * (m2 - a), m1 + _INV_PHI * (b - m1)
        fx, f_below, f_above = measure(x, below, above)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
        better = fx < best_v
        best_x, best_v = np.where(better, x, best_x), np.where(better, fx, best_v)
        if done + 1 == iters:
            break
        left = f1 <= f2
        a, b = np.where(left, a, m1), np.where(left, m2, b)
        x, fx = np.where(left, below, above), np.where(left, f_below, f_above)
        m1, m2, f1, f2 = (np.where(left, x, m2), np.where(left, m1, x),
                          np.where(left, fx, f2), np.where(left, f1, fx))
        better = fx < best_v
        best_x, best_v = np.where(better, x, best_x), np.where(better, fx, best_v)
    return best_x, best_v


def power_split_sweep(
    evaluator: Objective,
    total_w: float,
    points: int,
    refine_iters: int,
) -> tuple[float, float] | None:
    """Maximize evaluator over the first user's power on [0, total_w], returning (p1, value).

    The evaluator marks infeasible splits by returning NaN or -inf; None is
    returned for a budget that is not positive or when no split is feasible.
    """
    if total_w <= 0:
        return None
    return grid_optimize(evaluator, GridSpec(0.0, total_w, points, refine_iters), sense="max", skip_nonfinite=True)
