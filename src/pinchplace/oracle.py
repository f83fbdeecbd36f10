"""Brute-force reference optimizers used to certify the closed-form solvers.

These are deliberately dumb: a dense grid scan followed by golden-section
refinement inside the best bracketing interval.  They exist so every analytic
result in this package can be checked against a search that shares none of its
algebra.  Determinism contract: pure functions of their inputs, ties broken
toward the smallest abscissa, and the returned value is never worse than any
grid sample; a search that finds no finite point returns None.  An objective
takes the 1-D grid and, during refinement, either an array of probes (one per
row of a block) or a single probe as a 0-d np.float64 (see RowObjective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
        if self.points < 3:
            raise ValueError("GridSpec.points must be >= 3")
        if self.refine_iters < 0:
            raise ValueError("GridSpec.refine_iters must be >= 0")

    def abscissae(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


def certification_grid(lo: float, hi: float) -> GridSpec:
    """Default grid used when certifying closed forms: dense scan plus deep refinement."""
    return GridSpec(lo=lo, hi=hi, points=20001, refine_iters=40)


Objective = Callable[[np.ndarray], np.ndarray]
# objective(row, xs) evaluates row `row` (an int) at every abscissa of xs: the
# 1-D grid, or one golden-section probe as a 0-d np.float64 when that row is
# the only one being refined.  objective(rows, xs) with an int array `rows`
# evaluates row rows[k] at xs[k].  The lone probe is an np.float64, not a
# Python float, so that errstate, inf and NaN behave as on arrays; its
# + - * / are the same IEEE operations and a ufunc runs the same loop on it,
# so a row's probes give the bits they give inside a block.  An objective that
# raises TypeError on the 0-d probe, as one that takes len(xs) does, is probed
# at 1-element arrays for the rest of that search instead.
RowObjective = Callable[[int | np.ndarray, np.ndarray], np.ndarray]


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
    return grid_optimize_rows(lambda _, xs: objective(xs), spec, 1, sense, skip_nonfinite)[0]


def grid_optimize_rows(
    objective: RowObjective,
    spec: GridSpec,
    rows: int,
    sense: str = "min",
    skip_nonfinite: bool = False,
) -> list[tuple[float, float] | None]:
    """Optimize rows independent objectives over spec: one (x_best, value) per row.

    Each row is scanned on the whole grid in its own objective call.  Then
    every row's next golden-section probe shares one call (see RowObjective),
    so a block costs refine_iters + 2 probe calls whatever its size, and each
    row gets exactly the abscissae and comparisons it would get alone; a
    lone live row is probed at a 0-d np.float64.
    With skip_nonfinite=False a NaN or infinity on any row's grid raises
    NonFinite; with True such points are treated as absent, and a row with
    none left gives None.
    """
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    flip = 1.0 if sense == "min" else -1.0

    xs = spec.abscissae()
    found: list[tuple[float, float] | None] = [None] * rows
    live: list[int] = []
    searches = []
    for row in range(rows):
        raw = np.asarray(objective(row, xs), dtype=float)
        if raw.shape != xs.shape:
            raise ValueError("objective must return one value per abscissa")
        finite = np.isfinite(raw)
        if not finite.all():
            if not skip_nonfinite:
                bad = int(np.flatnonzero(~finite)[0])
                raise NonFinite(f"objective is not finite at x = {xs[bad]!r}")
            if not finite.any():
                continue
        vals = flip * raw
        vals[~finite] = np.inf
        # argmin takes the first (smallest-x) index on ties.
        i = int(np.argmin(vals))
        found[row] = (float(xs[i]), float(vals[i]))
        if spec.refine_iters > 0:
            # refine between the neighbours of the best grid point
            a, b = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, spec.points - 1)])
            live.append(row)
            searches.append(_golden_section(a, b, *found[row], spec.refine_iters))

    if live:
        # Every live row takes its next probe in the same objective call; a
        # lone row is probed as a plain int row, without fancy indexing.
        lone = len(live) == 1
        index = live[0] if lone else np.array(live)
        points = [next(search) for search in searches]
        for _ in range(spec.refine_iters + 2):
            if lone:
                try:
                    value = objective(index, np.float64(points[0]))
                except TypeError:
                    # an objective written for arrays only (one that takes len() of its
                    # abscissae) gets this search's probes as 1-element arrays
                    lone = False
            if not lone:
                value = objective(index, np.array(points))
            values = np.asarray(value, dtype=float).reshape(-1).tolist()
            points = [search.send(flip * v if math.isfinite(v) else math.inf)
                      for search, v in zip(searches, values)]
        for row, best in zip(live, points):
            found[row] = best
    return [None if f is None else (f[0], flip * f[1]) for f in found]


def _golden_section(a: float, b: float, best_x: float, best_v: float, iters: int):
    """Golden-section minimization on [a, b] from the incumbent (best_x, best_v), as a coroutine.

    It yields each abscissa to probe and is sent back the value there (inf
    where the objective is not finite); after the last probe it yields the
    final incumbent.  The incumbent only moves on a strict improvement, which
    preserves the smallest-x tie-break and the never-worse-than-grid guarantee.
    """
    m1 = b - _INV_PHI * (b - a)
    m2 = a + _INV_PHI * (b - a)
    f1 = yield m1
    f2 = yield m2
    for x, v in ((m1, f1), (m2, f2)):
        if v < best_v:
            best_x, best_v = x, v
    for _ in range(iters):
        if f1 <= f2:
            b, m2, f2 = m2, m1, f1
            m1 = b - _INV_PHI * (b - a)
            f1 = yield m1
            if f1 < best_v:
                best_x, best_v = m1, f1
        else:
            a, m1, f1 = m1, m2, f2
            m2 = a + _INV_PHI * (b - a)
            f2 = yield m2
            if f2 < best_v:
                best_x, best_v = m2, f2
    yield best_x, best_v


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
