"""Grid-plus-golden-section reference optimizers."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchplace import certify, noma, oma_greedy, oracle, rng
from pinchplace.core import (SCAN_SLICE, LayoutBlock, PlacementSolution, SystemParams, bpcu_to_nats,
                             dbm_to_watt)
from pinchplace.errors import NonFinite
from pinchplace.oracle import GridSpec, certification_grid, grid_optimize, power_split_sweep, refine_rows, scan_grid


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(lo=1.0, hi=1.0, points=11)
    with pytest.raises(ValueError):
        GridSpec(lo=0.0, hi=1.0, points=2)
    with pytest.raises(ValueError):
        GridSpec(lo=0.0, hi=1.0, points=11, refine_iters=-1)
    with pytest.raises(ValueError):
        GridSpec(lo=float("nan"), hi=1.0, points=11)
    # finite ends whose span overflows: linspace would make point 0 NaN (0 * inf + lo)
    for lo, hi in ((-1e308, 1e308), (-1.7976931348623157e308, 1e300)):
        with pytest.raises(ValueError, match="span hi - lo overflows"):
            GridSpec(lo=lo, hi=hi, points=3)
    assert GridSpec(lo=-8e307, hi=8e307, points=3).abscissae().tolist() == [-8e307, 0.0, 8e307]


def test_abscissae_endpoints():
    xs = GridSpec(lo=-2.0, hi=3.0, points=11).abscissae()
    assert xs[0] == -2.0 and xs[-1] == 3.0 and len(xs) == 11


def _bits(xs):
    return np.asarray(xs, dtype=float).view(np.int64)


def _finite_span():
    """A finite lo < hi pair, from anywhere in the float range, whose span hi - lo is finite."""
    floats = st.floats(allow_nan=False, allow_infinity=False)
    return (st.tuples(floats, floats).filter(lambda pair: pair[0] != pair[1]).map(sorted)
            .filter(lambda pair: math.isfinite(pair[1] - pair[0])))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(span=_finite_span(), points=st.sampled_from([3, 2001, 20001, 100001]), data=st.data())
def test_abscissae_slices_are_linspace_bit_for_bit(span, points, data):
    lo, hi = span
    spec = GridSpec(lo=lo, hi=hi, points=points)
    edges = st.sampled_from(list(range(0, points, SCAN_SLICE)) + [points])
    start = data.draw(st.one_of(edges, st.integers(0, points)))
    stop = data.draw(st.one_of(edges, st.integers(start, points), st.just(start + SCAN_SLICE)))
    whole = np.linspace(lo, hi, points)
    got = spec.abscissae(start, stop)
    assert np.array_equal(_bits(got), _bits(whole[start:stop]))
    # any points, in any order and shape, the last one included
    point = st.one_of(st.integers(0, points - 1), st.just(points - 1))
    index = np.array(data.draw(st.lists(st.tuples(point, point), max_size=6)), dtype=np.intp).reshape(-1, 2)
    assert np.array_equal(_bits(spec.at(index)), _bits(whole[index]))


@pytest.mark.parametrize("lo,hi,points", [(-20.0, 20.0, 20001), (0.0, 0.0317, 100001), (-1.0, 2.0, 2001),
                                          (0.0, 5e-324, 3), (-5e-324, 5e-324, 3), (0.0, 1e-320, 20001)])
def test_the_scan_slices_tile_linspace(lo, hi, points):
    # 5e-324 / 2 underflows to a zero step, where linspace takes its (i / div) * span branch
    spec = GridSpec(lo=lo, hi=hi, points=points)
    slices = [spec.abscissae(start, start + SCAN_SLICE) for start in range(0, points, SCAN_SLICE)]
    assert max(len(xs) for xs in slices) <= SCAN_SLICE
    assert np.array_equal(_bits(np.concatenate(slices)), _bits(np.linspace(lo, hi, points)))
    assert np.array_equal(_bits(spec.abscissae()), _bits(np.linspace(lo, hi, points)))


def test_certification_grid_shape():
    spec = certification_grid(-20.0, 20.0)
    assert spec.points == 20001 and spec.refine_iters == 40


def test_quadratic_minimum_found_to_high_accuracy():
    target = 0.7310562904
    spec = GridSpec(lo=-5.0, hi=7.0, points=101, refine_iters=60)
    x, v = grid_optimize(lambda xs: (xs - target) ** 2, spec)
    assert abs(x - target) < 1e-6, f"x {x}"
    assert v < 1e-12


def test_sense_max_on_concave():
    spec = GridSpec(lo=0.0, hi=10.0, points=201, refine_iters=50)
    x, v = grid_optimize(lambda xs: -((xs - 4.25) ** 2) + 3.0, spec, sense="max")
    assert abs(x - 4.25) < 1e-6
    assert abs(v - 3.0) < 1e-12


def test_tie_break_takes_smallest_abscissa():
    spec = GridSpec(lo=-2.0, hi=2.0, points=41)  # +-1 land exactly on the grid
    x, _ = grid_optimize(lambda xs: (xs * xs - 1.0) ** 2, spec)
    assert x == -1.0
    x_const, _ = grid_optimize(lambda xs: np.ones_like(xs), spec)
    assert x_const == -2.0


def test_never_worse_than_any_grid_sample():
    spec = GridSpec(lo=-3.0, hi=3.0, points=97, refine_iters=25)

    def rough(xs):
        return np.sin(5.0 * xs) * np.cos(3.1 * xs + 0.7) + 0.1 * xs

    _, v = grid_optimize(rough, spec)
    assert v <= rough(spec.abscissae()).min() + 0.0
    _, vmax = grid_optimize(rough, spec, sense="max")
    assert vmax >= rough(spec.abscissae()).max()


def test_randomized_refinement_only_improves():
    gen = rng.stream(5, rng.DOMAIN_TESTS, 10)
    for _ in range(50):
        a, b, c = gen.uniform(-4, 4, 3)

        def poly(xs):
            return (xs - a) ** 2 * (xs - b) ** 2 + c * xs

        flat = GridSpec(lo=-6.0, hi=6.0, points=301)
        deep = GridSpec(lo=-6.0, hi=6.0, points=301, refine_iters=40)
        _, v0 = grid_optimize(poly, flat)
        _, v1 = grid_optimize(poly, deep)
        assert v1 <= v0 + 0.0, f"refinement got worse: {v1} > {v0}"


def test_nonfinite_objective_raises_unless_skipped():
    spec = GridSpec(lo=0.0, hi=1.0, points=11)

    def holed(xs):
        out = xs.copy()
        out[xs < 0.35] = np.nan
        return out

    with pytest.raises(NonFinite):
        grid_optimize(holed, spec)
    x, v = grid_optimize(holed, spec, skip_nonfinite=True)
    assert abs(x - 0.4) < 1e-12 and abs(v - 0.4) < 1e-12

    assert grid_optimize(lambda xs: np.full_like(xs, np.nan), spec, skip_nonfinite=True) is None
    with pytest.raises(NonFinite):
        grid_optimize(lambda xs: np.full_like(xs, np.nan), spec)


def _masked_scan(values, sense, skip_nonfinite):
    """The grid scan before it read the extreme off the raw values: (index, value), None or NonFinite."""
    finite = np.isfinite(values)
    if not finite.all() and not skip_nonfinite:
        raise NonFinite(f"objective is not finite at x = {np.float64(np.flatnonzero(~finite)[0])!r}")
    flip = 1.0 if sense == "min" else -1.0
    vals = np.where(finite, flip * values, np.inf)
    i = int(vals.argmin())
    return None if vals[i] == np.inf else (float(i), flip * float(vals[i]))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data(), points=st.sampled_from([3, 50, SCAN_SLICE + 7, 2 * SCAN_SLICE + 1]),
       sense=st.sampled_from(["min", "max"]), skip_nonfinite=st.booleans())
def test_the_scan_equals_the_masked_scan(data, points, sense, skip_nonfinite):
    # x = 0, 1, ... indexes a table of a few distinct values (ties across slices included)
    # and a few NaN and infinities placed anywhere
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = gen.choice(np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4))), points)
    for bad in data.draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=3)):
        values[data.draw(st.integers(0, points - 1))] = bad
    if data.draw(st.booleans()):  # a whole slice, or the whole grid, of one non-finite kind
        values[:data.draw(st.sampled_from([SCAN_SLICE, points]))] = data.draw(st.sampled_from([math.nan, math.inf,
                                                                                               -math.inf]))
    spec = GridSpec(lo=0.0, hi=float(points - 1), points=points)

    def scan():
        return grid_optimize(lambda xs: values[xs.astype(int)], spec, sense=sense, skip_nonfinite=skip_nonfinite)

    try:
        want = _masked_scan(values, sense, skip_nonfinite)
    except NonFinite as exc:
        with pytest.raises(NonFinite, match=f"^{re.escape(str(exc))}$"):
            scan()
        return
    got = scan()
    assert got == want and (got is None or np.float64(got[1]).view(np.int64) == np.float64(want[1]).view(np.int64))


def test_objective_shape_is_enforced():
    spec = GridSpec(lo=0.0, hi=1.0, points=11)
    with pytest.raises(ValueError):
        grid_optimize(lambda xs: np.zeros(3), spec)
    with pytest.raises(ValueError):
        grid_optimize(lambda xs: xs, spec, sense="upward")


# --- the scan hands the objective slices of at most SCAN_SLICE points ------------------

# points 0..8191 land exactly on the integers, so slice 1 starts at x = 4096.0
_INTEGERS = GridSpec(lo=0.0, hi=8191.0, points=8192)


def test_a_tie_across_a_slice_boundary_keeps_the_smaller_x():
    for later in (4096.0, 6000.0):
        x, v = grid_optimize(lambda xs: (xs - 100.0) ** 2 * (xs - later) ** 2, _INTEGERS)
        assert (x, v) == (100.0, 0.0)
        x, v = grid_optimize(lambda xs: -((xs - 4095.0) ** 2) * (xs - later) ** 2, _INTEGERS, sense="max")
        assert (x, v) == (4095.0, 0.0)


def test_a_strictly_better_later_slice_moves_the_incumbent():
    x, v = grid_optimize(lambda xs: np.where(xs < SCAN_SLICE, 1.0, 0.5), _INTEGERS)
    assert (x, v) == (4096.0, 0.5)


def test_nonfinite_names_the_first_bad_x_in_a_later_slice():
    def holed(xs):
        return np.where((xs == 5000.0) | (xs == 7000.0), np.nan, xs)

    with pytest.raises(NonFinite, match=r"x = \S*\b5000\.0\b"):
        grid_optimize(holed, _INTEGERS)
    with pytest.raises(NonFinite, match=r"x = \S*\b5000\.0\b"):
        scan_grid(holed, _INTEGERS)


def test_an_all_nan_first_slice_is_skipped():
    def late(xs):
        return np.where(xs < SCAN_SLICE, np.nan, (xs - 6000.0) ** 2)

    assert grid_optimize(late, _INTEGERS, skip_nonfinite=True) == (6000.0, 0.0)
    spec = GridSpec(lo=0.0, hi=8191.0, points=8192, refine_iters=30)
    x, v = grid_optimize(lambda xs: np.where(xs < SCAN_SLICE, np.nan, (xs - 6000.25) ** 2), spec,
                         skip_nonfinite=True)
    assert abs(x - 6000.25) < 1e-6 and v < 1e-12


@pytest.mark.parametrize("best", [SCAN_SLICE - 1, SCAN_SLICE])
def test_the_bracket_of_a_slice_edge_point_is_its_true_neighbours(best):
    spec = GridSpec(lo=-1.0, hi=2.0, points=20001, refine_iters=30)
    grid = np.linspace(spec.lo, spec.hi, spec.points)
    target = grid[best] + 0.3 * (grid[best + 1] - grid[best])
    probes = []

    def bowl(xs):
        if np.ndim(xs) == 0:
            probes.append(float(xs))
        return (xs - target) ** 2

    x, _ = grid_optimize(bowl, spec)
    a, b = float(grid[best - 1]), float(grid[best + 1])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    assert probes[:2] == [b - inv_phi * (b - a), a + inv_phi * (b - a)]
    assert all(a <= p <= b for p in probes) and abs(x - target) < 1e-9


def test_no_objective_call_sees_more_than_a_slice():
    spec = GridSpec(lo=0.0, hi=3.0, points=100001, refine_iters=4)
    seen = []

    def recorded(xs):
        if np.ndim(xs) == 1:
            seen.append(xs.copy())
        return (xs - 1.1) ** 2

    grid_optimize(recorded, spec)
    assert max(len(xs) for xs in seen) <= SCAN_SLICE
    assert np.array_equal(_bits(np.concatenate(seen)), _bits(np.linspace(0.0, 3.0, 100001)))


def test_power_split_sweep_concave_quadratic():
    total = 2.0
    vertex = 0.75

    def ev(p1s):
        return -((p1s - vertex) ** 2)

    p1, v = power_split_sweep(ev, total, 2001, 40)
    assert abs(p1 - vertex) < 1e-8 and v <= 0.0
    # the sweep covers [0, total] and nothing beyond: a vertex past the budget lands on the boundary
    p1_hi, _ = power_split_sweep(lambda p: -((p - 5.0) ** 2), total, 2001, 40)
    assert abs(p1_hi - total) < 1e-9
    # the sweep is the grid on [0, total], refined as grid_optimize refines it
    assert (p1, v) == grid_optimize(ev, GridSpec(0.0, total, 2001, 40), sense="max")


def test_power_split_sweep_infeasible_paths():
    assert power_split_sweep(lambda p: np.full_like(p, -np.inf), 1.0, 11, 0) is None
    assert power_split_sweep(lambda p: np.full_like(p, np.nan), 1.0, 11, 40) is None
    assert power_split_sweep(lambda p: p, 0.0, 11, 0) is None
    assert power_split_sweep(lambda p: p, -1.0, 11, 0) is None


def _poly(a, b, c, xs):
    return (xs - a) ** 2 * (xs - b) ** 2 + c * xs


def _bound(objective):
    """objective(rows, xs) as the row objective refine_rows binds to its rows."""
    return lambda rows: lambda xs: objective(rows, xs)


def _search_rows(objective, spec, rows, sense="min", skip_nonfinite=False):
    """A search of the rows of objective(rows, xs): each scanned alone by scan_grid, then all in one refine_rows."""
    scanned = [scan_grid(lambda xs, row=row: objective(row, xs), spec, sense, skip_nonfinite) for row in range(rows)]
    return refine_rows(_bound(objective), spec, scanned, sense)


def _poly_rows(coeffs):
    """A row objective over _poly with one (a, b, c) per row, and each row alone."""
    a, b, c = (np.array(col) for col in zip(*coeffs))

    def objective(rows, xs):
        return _poly(a[rows], b[rows], c[rows], xs)

    singles = [lambda xs, k=k: _poly(*coeffs[k], xs) for k in range(len(coeffs))]
    return objective, singles


@pytest.mark.parametrize("sense", ["min", "max"])
def test_rows_equal_one_row_searches(sense):
    gen = rng.stream(5, rng.DOMAIN_TESTS, 11)
    coeffs = [tuple(float(v) for v in gen.uniform(-4, 4, 3)) for _ in range(23)]
    objective, singles = _poly_rows(coeffs)
    spec = GridSpec(lo=-6.0, hi=6.0, points=301, refine_iters=40)
    got = _search_rows(objective, spec, len(coeffs), sense)
    want = [grid_optimize(single, spec, sense) for single in singles]
    assert got == want
    for (x, v), single in zip(got, singles):
        grid = single(spec.abscissae())
        assert (v <= grid.min()) if sense == "min" else (v >= grid.max())
        assert v == single(np.array([x]))[0]


def test_a_block_refined_in_chunks_equals_one_row_searches():
    # three probes per row share a call, so a block of more than SCAN_SLICE // 3 live rows is refined in
    # chunks of at most that many; an odd refine_iters runs the last call's unused probes too
    chunk = SCAN_SLICE // 3
    gen = rng.stream(5, rng.DOMAIN_TESTS, 12)
    coeffs = [tuple(float(v) for v in gen.uniform(-4, 4, 3)) for _ in range(chunk + 2)]
    objective, singles = _poly_rows(coeffs)
    spec = GridSpec(lo=-6.0, hi=6.0, points=41, refine_iters=7)
    binds, calls = [], []

    def bound(rows):
        binds.append(len(rows))
        return lambda xs: calls.append(len(xs)) or objective(rows, xs)

    scanned = [scan_grid(single, spec) for single in singles]
    got = refine_rows(bound, spec, scanned)
    assert binds == [3 * chunk, 3 * 2] and max(calls) == SCAN_SLICE - SCAN_SLICE % 3
    assert len(calls) == 2 * (1 + -(-spec.refine_iters // 2))
    # the first and last rows and both sides of the chunk boundary among them
    for row in range(len(coeffs)):
        assert np.array(got[row]).tobytes() == np.array(grid_optimize(singles[row], spec)).tobytes(), row


def test_rows_break_ties_toward_the_smallest_abscissa():
    spec = GridSpec(lo=-2.0, hi=2.0, points=41, refine_iters=10)  # +-1 and +-0.5 land on the grid
    roots = np.array([1.0, 0.25, 0.0])  # minima at x = +-1, x = +-0.5 and a flat row

    def objective(rows, xs):
        r = roots[rows]
        return np.where(r > 0.0, (xs * xs - r) ** 2, 3.0 + 0.0 * xs)

    got = _search_rows(objective, spec, 3)
    assert [x for x, _ in got] == [-1.0, -0.5, -2.0]


def test_infeasible_row_gives_none_and_the_others_still_refine():
    coeffs = [(0.3, 1.7, 0.2), (0.0, 0.0, 0.0), (-2.5, 0.4, -1.1)]
    objective, singles = _poly_rows(coeffs)

    def holed(rows, xs):
        values = objective(rows, xs)
        return np.where(np.asarray(rows) == 1, np.nan, values)

    spec = GridSpec(lo=-4.0, hi=4.0, points=81, refine_iters=30)
    got = _search_rows(holed, spec, 3, skip_nonfinite=True)
    assert got[1] is None
    assert got[0] == grid_optimize(singles[0], spec) and got[2] == grid_optimize(singles[2], spec)
    # refinement moved both live rows off the grid
    grid = set(spec.abscissae().tolist())
    assert got[0][0] not in grid and got[2][0] not in grid
    with pytest.raises(NonFinite):
        _search_rows(holed, spec, 3)


@pytest.mark.parametrize("sense", ["min", "max"])
def test_the_scan_gives_grid_points_and_the_refinement_starts_from_any(sense):
    coeffs = [(0.3, 1.7, 0.2), (0.0, 0.0, 0.0), (-2.5, 0.4, -1.1)]
    objective, singles = _poly_rows(coeffs)

    def holed(rows, xs):
        return np.where(np.asarray(rows) == 1, np.nan, objective(rows, xs))

    spec = GridSpec(lo=-4.0, hi=4.0, points=81, refine_iters=30)
    scanned = [scan_grid(lambda xs, row=row: holed(row, xs), spec, sense, skip_nonfinite=True) for row in range(3)]
    assert scanned[1] is None
    for (i, v), single in zip((scanned[0], scanned[2]), (singles[0], singles[2])):
        grid = single(spec.abscissae())
        assert i == int(grid.argmin() if sense == "min" else grid.argmax()) and v == grid[i]
    assert refine_rows(_bound(holed), spec, scanned, sense) == [grid_optimize(singles[0], spec, sense), None,
                                                                grid_optimize(singles[2], spec, sense)]
    # without refinement a row keeps its grid point; a point found another way refines from there
    assert refine_rows(_bound(holed), GridSpec(-4.0, 4.0, 81), scanned, sense)[0] == (
        float(spec.at([scanned[0][0]])[0]), scanned[0][1])
    start = [(40, float(singles[0](spec.at([40]))[0])), None, None]
    (x, v), none, _ = refine_rows(_bound(holed), spec, start, sense)
    assert none is None and -0.1 <= x <= 0.1 and (v <= start[0][1] if sense == "min" else v >= start[0][1])


def test_rows_of_an_empty_block():
    assert refine_rows(lambda rows: lambda xs: xs, GridSpec(lo=0.0, hi=1.0, points=11), []) == []


_VALUES = [0.0, -0.0, 1.0, -1.0, 2.5, math.nan, math.inf, -math.inf]


@st.composite
def _refinements(draw):
    """A row objective of 2-9 elementwise rows, each a step function of a few values (ties, plateaus,
    NaN and infinities) plus, on some rows, a parabola, with one best grid point or None per row."""
    rows = draw(st.integers(2, 9))
    lo = draw(st.floats(-10.0, 0.0))
    spec = GridSpec(lo, lo + draw(st.floats(0.5, 10.0)), draw(st.sampled_from([3, 4, 50, 301])),
                    draw(st.sampled_from([0, 1, 2, 3, 40])))
    cells = draw(st.integers(1, 12))
    steps = np.array(draw(st.lists(st.lists(st.sampled_from(_VALUES), min_size=cells, max_size=cells),
                                   min_size=rows, max_size=rows)))
    curved = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    centres = np.array(draw(st.lists(st.floats(spec.lo, spec.hi), min_size=rows, max_size=rows)))

    def value(rows, xs):
        cell = np.minimum(np.maximum((xs - spec.lo) / (spec.hi - spec.lo) * cells, 0), cells - 1).astype(np.intp)
        step = steps[rows, cell]
        return np.where(curved[rows], step + (xs - centres[rows]) ** 2, step)

    last = spec.points - 1
    index = st.one_of(st.just(0), st.just(last), st.integers(0, last))
    best = [(i, draw(st.floats(-1e3, 1e3))) for i in draw(st.lists(index, min_size=rows, max_size=rows))]
    live = draw(st.one_of(st.sets(st.integers(0, rows - 1)), st.integers(0, rows - 1).map(lambda k: {k})))
    return value, spec, [b if k in live else None for k, b in enumerate(best)]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(refinement=_refinements(), sense=st.sampled_from(["min", "max"]))
def test_a_block_refines_each_row_as_it_refines_that_row_alone(refinement, sense):
    # a block moves its rows in lockstep arrays, two iterations per probe call; a lone live row runs
    # the coroutine, one probe per call
    value, spec, best = refinement
    binds, calls = [], []

    def objective(rows):
        binds.append(rows)
        return lambda xs: calls.append(np.size(xs)) or value(rows, xs)

    got = refine_rows(objective, spec, best, sense)
    live = [k for k, b in enumerate(best) if b is not None]
    iters, lone = spec.refine_iters, len(live) == 1
    refined = bool(live) and iters > 0
    # a lone row is bound alone, and a block once, to three copies of its live rows
    assert len(binds) == refined and all(np.array_equal(rows, live[0] if lone else np.tile(live, 3)) for rows in binds)
    assert len(calls) == refined * (iters + 2 if lone else 1 + -(-iters // 2))
    assert max(calls, default=0) <= SCAN_SLICE
    for k in range(len(best)):
        alone = refine_rows(lambda row: lambda xs: value(row, xs), spec,
                            [b if j == k else None for j, b in enumerate(best)], sense)
        assert (got[k] is None) == (best[k] is None) and all(f is None for j, f in enumerate(alone) if j != k)
        if got[k] is not None:
            assert np.array(got[k]).tobytes() == np.array(alone[k]).tobytes(), (k, got[k], alone[k])


# --- a lone row: probed at a 0-d np.float64, with the bits it gets inside a block ------

PARAMS = SystemParams.default()


def _captured(monkeypatch, module, name, run):
    """The objectives that run() hands to module.name, which still does its work."""
    seen = []
    real = getattr(module, name)

    def recording(objective, *args, **kwargs):
        seen.append(objective)
        return real(objective, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, name, recording)
        run()
    return seen


def _block_of(singles):
    """A row objective whose row k is the one-row objective singles[k]; a block probes each at a 1-element array."""
    def objective(rows, xs):
        if np.ndim(rows) == 0:
            return singles[rows](xs)
        return np.concatenate([np.reshape(singles[r](xs[k:k + 1]), 1) for k, r in enumerate(rows.tolist())])

    return objective


def _assert_lone_row_matches_its_block_row(block_objective, lone_row, lone_objective, spec, sense):
    """Row lone_row of a 3-row search equals the same row searched alone, whose probes are 0-d np.float64."""
    probes = []

    def recorded(row, xs):
        if np.ndim(xs) == 0:
            probes.append(xs)
        return lone_objective(row, xs)

    (alone,) = _search_rows(recorded, spec, 1, sense, skip_nonfinite=True)
    in_block = _search_rows(block_objective, spec, 3, sense, skip_nonfinite=True)[lone_row]
    assert alone is not None and alone == in_block
    assert len(probes) == spec.refine_iters + 2 and all(type(p) is np.float64 for p in probes)


def test_lone_greedy_row_matches_its_row_in_a_block(monkeypatch):
    gen = rng.stream(3, rng.DOMAIN_TESTS, 40)
    block = LayoutBlock(gen.uniform(-20.0, 20.0, (3, 2)), gen.uniform(-5.0, 5.0, (3, 2)))
    budgets, rate = dbm_to_watt(30.0) * gen.uniform(0.5, 2.0, 3), bpcu_to_nats(1.0)
    spec = GridSpec(lo=-20.0, hi=20.0, points=2001, refine_iters=40)
    # the search refines its pruned scan's winners with the row objective it hands to refine_rows,
    # which evaluates every sum rate of the refinement
    (whole,) = _captured(monkeypatch, oma_greedy, "refine_rows",
                         lambda: oma_greedy.best_placement_search(PARAMS, block, budgets, rate, spec))
    for row in range(3):
        (alone,) = _captured(monkeypatch, oma_greedy, "refine_rows",
                             lambda: oma_greedy.best_placement_search(PARAMS, block[row:row + 1], budgets[row],
                                                                      rate, spec))
        with np.errstate(**oma_greedy._QUIET):
            _assert_lone_row_matches_its_block_row(lambda rows, xs: whole(rows)(xs), row,
                                                   lambda rows, xs: alone(rows)(xs), spec, "max")


def test_lone_noma_row_matches_its_row_in_a_block(monkeypatch):
    gen = rng.stream(3, rng.DOMAIN_TESTS, 41)
    block = LayoutBlock(gen.uniform(-20.0, 20.0, (3, 2)), gen.uniform(-5.0, 5.0, (3, 2)))
    spec = GridSpec(lo=-20.0, hi=20.0, points=2001, refine_iters=40)
    per_row = [_captured(monkeypatch, noma, "grid_optimize",
                         lambda: noma.solve_min_power_search(PARAMS, block[row:row + 1], bpcu_to_nats(1.5), spec))
               for row in range(3)]
    for decoder in (0, 1):
        singles = [objectives[decoder] for objectives in per_row]
        for row in range(3):
            _assert_lone_row_matches_its_block_row(_block_of(singles), row, lambda _, xs: singles[row](xs),
                                                   spec, "min")


def test_lone_split_sweep_row_matches_its_row_in_a_block(monkeypatch):
    gen = rng.stream(3, rng.DOMAIN_TESTS, 42)
    block = LayoutBlock(gen.uniform(-20.0, 20.0, (3, 2)), gen.uniform(-5.0, 5.0, (3, 2)))
    total_w, rate = dbm_to_watt(25.0), bpcu_to_nats(0.75)
    searched = [PlacementSolution(x_star=float(x), powers=(0.0, 0.0), objective=0.0)
                for x in gen.uniform(-20.0, 20.0, 3)]
    singles = [_captured(monkeypatch, oracle, "power_split_sweep",
                         lambda: certify.power_sweep(PARAMS, block[row:row + 1], total_w, rate, searched[row]))[0]
               for row in range(3)]
    spec = GridSpec(lo=0.0, hi=total_w, points=2001, refine_iters=40)
    for row in range(3):
        _assert_lone_row_matches_its_block_row(_block_of(singles), row, lambda _, xs: singles[row](xs), spec, "max")


def test_an_objective_for_arrays_only_is_probed_at_arrays():
    # a wrapper that counts len(xs) points cannot take the 0-d probe; its search falls back to
    # 1-element arrays and finds what the plain objective finds
    spec = GridSpec(lo=-6.0, hi=6.0, points=301, refine_iters=40)
    sizes = []

    def sized(xs):
        sizes.append(len(xs))
        return _poly(0.3, 1.7, 0.2, xs)

    assert grid_optimize(sized, spec) == grid_optimize(lambda xs: _poly(0.3, 1.7, 0.2, xs), spec)
    assert sizes == [301] + [1] * (spec.refine_iters + 2)
