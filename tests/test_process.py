"""Geometric-grid simulation: determinism, support, moments, CSV export."""

import contextvars
import csv
import dataclasses
import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm import process
from qbm.process import (
    SEED_LIMIT,
    GeometricGrid,
    GeometricPath,
    PathBatch,
    default_depth,
    simulate_batch,
    simulate_path,
    write_batch_csv,
    write_path_csv,
    _uniform_columns,
)
from qbm.qcore import QContext


def test_grid_build():
    grid = GeometricGrid.build(q=0.5, t=2.0, depth=6)
    assert grid.K == 6
    assert len(grid) == 7
    for k in range(7):
        assert grid.times[k] == pytest.approx(2.0 * 0.5**k)


def test_grid_default_depth_is_minimal():
    # smallest K with q**K <= 1e-6
    for q in (0.2, 0.5, 0.8):
        K = default_depth(q)
        assert q**K <= 1e-6 < q ** (K - 1)
        assert GeometricGrid.build(q=q, t=1.0).K == K


def test_grid_validation():
    with pytest.raises(ValueError):
        GeometricGrid.build(q=1.2, t=1.0)
    with pytest.raises(ValueError):
        GeometricGrid.build(q=0.5, t=-1.0)
    with pytest.raises(ValueError):
        GeometricGrid.build(q=0.5, t=1.0, depth=0)


def test_grid_rejects_non_finite_and_underflowing_times():
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError):
            GeometricGrid.build(q=0.5, t=t)
    # 0.5**1100 underflows to zero; 0.5**1070 is subnormal
    for depth in (1100, 1070):
        with pytest.raises(ValueError, match="underflows"):
            GeometricGrid.build(q=0.5, t=1.0, depth=depth)
    with pytest.raises(ValueError, match="underflows"):
        GeometricGrid.build(q=0.5, t=1e-300, depth=40)
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=1022)
    assert grid.times[-1] >= sys.float_info.min


def test_path_length_mismatch_rejected():
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=4)
    with pytest.raises(ValueError):
        GeometricPath(grid=grid, values=(0.0,) * 3)


def test_batch_deterministic_and_row_consistent():
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=10)
    a = simulate_batch(grid, n_paths=8, base_seed=42)
    b = simulate_batch(grid, n_paths=8, base_seed=42)
    assert np.array_equal(a.values, b.values)
    # row i of a batch equals the standalone path with seed base + i
    for i in range(8):
        single = simulate_path(grid, seed=42 + i)
        assert np.array_equal(np.asarray(a.path(i).values), np.asarray(single.values))
    # a batch is the stack of its chunks, chunk c starting at seed base + 1000 c
    whole = simulate_batch(grid, n_paths=3001, base_seed=42)
    starts = range(0, 3001, 1000)
    chunks = [simulate_batch(grid, min(1000, 3001 - s), 42 + s).values for s in starts]
    assert np.array_equal(whole.values, np.vstack(chunks))


def test_different_seeds_differ():
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=10)
    a = simulate_batch(grid, n_paths=4, base_seed=1)
    b = simulate_batch(grid, n_paths=4, base_seed=2)
    assert not np.array_equal(a.values, b.values)


def _in_support(values, grid) -> bool:
    """Whether no grid value lies past the simulation gate's support edges;
    NaN is not past them."""
    return not np.any(np.abs(np.asarray(values, dtype=float)) > grid._walk_scales[1])


def test_paths_stay_in_support():
    for q in (0.3, 0.7):
        grid = GeometricGrid.build(q=q, t=1.5, depth=30)
        batch = simulate_batch(grid, n_paths=500, base_seed=5)
        for k in range(grid.K + 1):
            edge = 2.0 * math.sqrt(float(grid.times[k]) / (1.0 - q))
            assert np.all(np.abs(batch.values[:, k]) <= edge)
        for i in range(0, 500, 50):
            assert _in_support(batch.path(i).values, grid)


def test_in_support_keeps_its_comparison():
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=3)
    edges = [2.0 * math.sqrt(float(tk) / 0.5) for tk in grid.times]
    assert _in_support(np.array(edges), grid)
    assert _in_support(tuple(Fraction(e) for e in edges), grid)
    for k in range(4):
        out = np.array(edges)
        out[k] = -math.nextafter(edges[k], math.inf)
        assert not _in_support(out, grid)
    # NaN is not outside the support by that comparison; the simulation
    # gate tests finiteness on its own
    assert _in_support(np.array([0.0, math.nan, 0.0, 0.0]), grid)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_simulation_gate_accepts_the_support_edge(monkeypatch, sign):
    # every transition draw lands exactly on +-2 sqrt(t_k / (1-q)): the gate
    # passes it, and rejects the next float past it at any step.  At
    # q = 1/4, t = 1 each sqrt(t_k) is a power of two, so scaling the edge by
    # it is exact.
    grid = GeometricGrid.build(q=0.25, t=1.0, depth=4)
    edges = [2.0 * math.sqrt(float(tk) / 0.75) for tk in grid.times]

    def at_edge(fault_k):
        calls = []

        def draw(table, x_scaled, cell, t):
            k = grid.K - 1 - len(calls)
            calls.append(k)
            edge = math.nextafter(edges[k], math.inf) if k == fault_k else edges[k]
            return sign * edge / math.sqrt(float(grid.times[k]))

        return draw

    monkeypatch.setattr(process, "_transition_at", at_edge(None))
    path = simulate_path(grid, 3)
    assert list(np.abs(path.values[:-1])) == edges[:-1]
    for k in range(grid.K):
        monkeypatch.setattr(process, "_transition_at", at_edge(k))
        with pytest.raises(ValueError, match=f"index {k} is not finite or lies outside the support"):
            simulate_path(grid, 3)


@pytest.mark.parametrize("table, fault", [("transition", "nan"), ("transition", "wide"), ("marginal", "inf")])
def test_simulation_rejects_non_finite_or_outside_draws(monkeypatch, table, fault):
    # a table whose draws are NaN, infinite or spread past the support
    name = f"scaled_{table}_table"
    real = getattr(process, name)
    w = {"nan": math.nan, "inf": math.inf}.get(fault)

    def patched(q):
        good = real(q)
        return dataclasses.replace(good, w=3.0 * good.w if w is None else w)

    monkeypatch.setattr(process, name, patched)
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=5)
    with pytest.raises(ValueError, match="not finite or lies outside the support"):
        simulate_batch(grid, n_paths=200, base_seed=3)


def test_horizon_moments_match_marginal():
    q, t, n = 0.5, 1.0, 40000
    grid = GeometricGrid.build(q=q, t=t)
    v = simulate_batch(grid, n_paths=n, base_seed=9).horizon_values
    # 4 sigma gates on mean, variance, fourth moment
    assert abs(np.mean(v)) <= 4.0 * np.std(v) / math.sqrt(n)
    v2 = v * v
    assert abs(np.mean(v2) - t) <= 4.0 * np.std(v2) / math.sqrt(n)
    v4 = v2 * v2
    assert abs(np.mean(v4) - (2 + q) * t * t) <= 4.0 * np.std(v4) / math.sqrt(n)


def test_increment_variance():
    q, n = 0.6, 40000
    grid = GeometricGrid.build(q=q, t=1.0)
    batch = simulate_batch(grid, n_paths=n, base_seed=13)
    inc = batch.values[:, 0] - batch.values[:, 2]
    gap = float(grid.times[0] - grid.times[2])
    d2 = inc * inc
    assert abs(np.mean(d2) - gap) <= 4.0 * np.std(d2) / math.sqrt(n)


def _read_rows(dest) -> list[list[str]]:
    with open(dest, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _hex(cells) -> list[str]:
    return [float(cell).hex() for cell in cells]


def test_path_csv_format(tmp_path):
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=5)
    batch = simulate_batch(grid, n_paths=3, base_seed=7)
    # a pathlib.Path is taken as the file to write
    dest = tmp_path / "p.csv"
    write_path_csv(batch.path(2), dest)
    assert dest.read_bytes().count(b"\n") == grid.K + 2
    rows = _read_rows(dest)
    assert rows[0] == ["k", "t_k", "B_k"]
    assert [row[0] for row in rows[1:]] == [str(k) for k in range(grid.K + 1)]
    # every cell reads back to the batch's exact value
    assert _hex(row[1] for row in rows[1:]) == [float(tk).hex() for tk in grid.times]
    assert _hex(row[2] for row in rows[1:]) == [v.hex() for v in batch.values[2].tolist()]
    assert rows[1][1] == "1.0"


def test_batch_csv_deterministic(tmp_path):
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=5)
    batch = simulate_batch(grid, n_paths=3, base_seed=7)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    names1 = write_batch_csv(batch, str(d1))
    names2 = write_batch_csv(batch, str(d2))
    assert names1 == names2
    for name in names1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_batch_csv_wide(tmp_path):
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=4)
    batch = simulate_batch(grid, n_paths=3, base_seed=7)
    names = write_batch_csv(batch, str(tmp_path), wide=True)
    assert names == ["paths_wide.csv"]
    assert (tmp_path / "paths_wide.csv").read_bytes().count(b"\n") == grid.K + 2
    rows = _read_rows(tmp_path / "paths_wide.csv")
    assert rows[0] == ["k", "t_k", "B_0", "B_1", "B_2"]
    assert len(rows) == grid.K + 2
    # every cell reads back to the batch's exact value
    for k, row in enumerate(rows[1:]):
        assert row[0] == str(k)
        assert _hex(row[1:]) == [float(grid.times[k]).hex(), *(v.hex() for v in batch.values[:, k].tolist())]


def test_batch_iteration():
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=4)
    batch = simulate_batch(grid, n_paths=5, base_seed=3)
    assert len(batch) == 5
    assert len(list(batch)) == 5
    assert isinstance(next(iter(batch)), GeometricPath)
    assert isinstance(batch, PathBatch)


def test_restrict_keeps_the_first_columns():
    q, t = 0.7, 1.3
    batch = simulate_batch(GeometricGrid.build(q=q, t=t, depth=12), n_paths=6, base_seed=5)
    for K in range(1, 13):
        short = batch.restrict(K)
        assert np.array_equal(short.values, batch.values[:, : K + 1])
        direct = GeometricGrid.build(q=q, t=t, depth=K)
        assert [float(x).hex() for x in short.grid.times] == [float(x).hex() for x in direct.times]
        assert short.grid == direct and short.base_seed == 5
    for K in (0, -1, 13):
        with pytest.raises(ValueError, match="restricted depth"):
            batch.restrict(K)


@pytest.mark.parametrize("q", [0.5, 0.8])
def test_restricted_batch_has_the_direct_law(q):
    # the law, not the bytes: a depth-80 batch restricted to K = 20 against a
    # direct depth-20 simulation on disjoint seeds, two-sample |z| <= 4
    n, K = 20000, 20
    short = simulate_batch(GeometricGrid.build(q=q, t=1.0, depth=80), n, 1).restrict(K)
    direct = simulate_batch(GeometricGrid.build(q=q, t=1.0, depth=K), n, 1 + n)
    for stat in (lambda v: v[:, 0] ** 2, lambda v: v[:, 0] ** 4, lambda v: v[:, K] ** 2):
        a, b = stat(short.values), stat(direct.values)
        se = math.sqrt(np.var(a, ddof=1) / n + np.var(b, ddof=1) / n)
        assert abs(np.mean(a) - np.mean(b)) <= 4.0 * se


def test_explicit_ctx_matches_default():
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=8)
    a = simulate_batch(grid, n_paths=4, base_seed=21)
    b = simulate_batch(grid, n_paths=4, base_seed=21, ctx=QContext.numeric(0.5))
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "base",
    [0, 7, 2**32 - 100, 2**64 - 100, 2**96 - 3, SEED_LIMIT - 257, SEED_LIMIT - 1],
)
def test_uniform_columns_match_default_rng(base):
    # bases straddle the 32-, 64- and 96-bit word boundaries and reach the
    # largest accepted seed; 257 paths over 200 columns meet the state
    # update's low-word carry and a zero output rotation many times
    for n_paths, n_cols in ((1, 6), (257, 200)):
        if base + n_paths > SEED_LIMIT:
            continue
        cols = list(itertools.islice(_uniform_columns(n_paths, base), n_cols))
        got = np.stack(cols, axis=1)
        ref = np.stack([np.random.default_rng(base + i).random(n_cols) for i in range(n_paths)])
        assert got.tobytes() == ref.tobytes(), (base, n_paths)


def test_simulate_batch_rejects_seeds_outside_stream():
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=4)
    with pytest.raises(ValueError):
        simulate_batch(grid, n_paths=2, base_seed=-1)
    with pytest.raises(ValueError):
        simulate_batch(grid, n_paths=4, base_seed=SEED_LIMIT - 3)
    with pytest.raises(TypeError):
        simulate_batch(grid, n_paths=1, base_seed=1.5)
    top = simulate_batch(grid, n_paths=4, base_seed=SEED_LIMIT - 4)
    assert np.array_equal(top.path(3).values, simulate_path(grid, seed=SEED_LIMIT - 1).values)


def _block_boundary_batch():
    """Three or more blocks (_block_spans); the second block's entropy words
    carry past 2**32 after its first path."""
    ctx = QContext.numeric(0.5)
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=8)
    n = 2 * process.PATH_BLOCK + 3
    second = process._block_spans(n)[0][1][0]
    return simulate_batch(grid, n, 2**32 - second - 1, ctx), ctx


def test_path_blocks_do_not_change_the_batch(monkeypatch):
    from qbm.qhermite import QPolynomial
    from qbm.stochint import PolynomialIntegrand, integrate_def, integrate_def_batch

    blocked, ctx = _block_boundary_batch()
    grid, n, base = blocked.grid, len(blocked), blocked.base_seed
    f = PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(3), ctx)
    sums = integrate_def_batch(f, blocked, ctx)
    for i in sorted({i for start, stop in process._block_spans(n)[0] for i in (start, stop - 1)}):
        assert sums[i] == integrate_def(f, blocked.path(i), ctx).value
    monkeypatch.setattr(process, "PATH_BLOCK", n)
    whole = simulate_batch(grid, n, base, ctx)
    assert np.array_equal(blocked.values, whole.values)
    assert np.array_equal(sums, integrate_def_batch(f, whole, ctx))
    assert np.array_equal(blocked.path(n - 1).values, simulate_path(grid, base + n - 1, ctx).values)


def test_batch_layout_does_not_change_the_results():
    # each grid column of a simulated batch is contiguous across the blocks;
    # a row-major copy of the same values gives the same bits downstream
    from qbm import verify
    from qbm.qhermite import QPolynomial
    from qbm.qito import ito_decompose_batch
    from qbm.stochint import PolynomialIntegrand, integrate_def_batch

    batch, ctx = _block_boundary_batch()
    assert all(batch.values[:, k].flags.c_contiguous for k in range(len(batch.grid)))
    row_major = PathBatch(batch.grid, np.ascontiguousarray(batch.values), batch.base_seed)
    assert not row_major.values[:, 0].flags.c_contiguous

    def same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    p = verify._random_qpolynomial(np.random.default_rng(5), 6, 2)
    parts = verify._abs_parts(p, ctx)
    f = PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(3), ctx)
    assert same_bits(integrate_def_batch(f, batch, ctx), integrate_def_batch(f, row_major, ctx))
    assert same_bits(verify._rounding_scale(parts, batch, 0.5), verify._rounding_scale(parts, row_major, 0.5))
    dec, ref = ito_decompose_batch(p, batch, ctx), ito_decompose_batch(p, row_major, ctx)
    for term in ("lhs", "gradient_term", "drift_term", "second_order_term", "residual"):
        assert same_bits(np.asarray(getattr(dec, term)), np.asarray(getattr(ref, term)))


#: q values whose sampling tables the Hypothesis tests below keep cached
CACHED_QS = (0.2, 0.5, 0.8)


@given(
    q=st.sampled_from(CACHED_QS),
    t=st.floats(1e-3, 1e3),
    depth=st.integers(1, 80),
    n=st.integers(1, 3),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_accepted_inputs_give_finite_paths_in_the_support(q, t, depth, n, data):
    seed = data.draw(st.integers(0, SEED_LIMIT - n), label="base_seed")
    grid = GeometricGrid.build(q=q, t=t, depth=depth)
    batch = simulate_batch(grid, n, seed, QContext.numeric(q))
    assert batch.values.shape == (n, depth + 1) and np.all(np.isfinite(batch.values))
    assert _in_support(batch.values, grid)


#: q values outside CACHED_QS, drawn from a fixed set so that each builds
#: its tables once
OTHER_QS = (0.05, 0.3, 0.65, 0.9)


@given(
    q=st.sampled_from(OTHER_QS),
    t=st.floats(1e-100, 1e-3, exclude_max=True),
    depth=st.integers(1, 80),
    n=st.integers(1, process._STREAM_CROSSOVER + 2),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_other_q_and_short_horizons_give_finite_paths_in_the_support(q, t, depth, n, data):
    # both walks (below and from the stream crossover); row i is always
    # simulate_path's path at base_seed + i
    seed = data.draw(st.integers(0, SEED_LIMIT - n), label="base_seed")
    grid = GeometricGrid.build(q=q, t=t, depth=depth)
    batch = simulate_batch(grid, n, seed, QContext.numeric(q))
    assert batch.values.shape == (n, depth + 1) and np.all(np.isfinite(batch.values))
    assert _in_support(batch.values, grid)
    for i in data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3), label="rows"):
        assert np.array_equal(batch.values[i], simulate_path(grid, seed + i).values)


@given(
    q=st.sampled_from(CACHED_QS),
    t=st.floats(1e-3, 1e3),
    n=st.integers(1, 3),
    bad_q=st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan)),
    bad_t=st.one_of(st.floats(max_value=0.0), st.sampled_from([math.inf, math.nan])),
    bad_depth=st.integers(max_value=0),
    over=st.integers(0, 2**64),
    shift=st.integers(1, len(CACHED_QS) - 1),
)
@settings(max_examples=40, deadline=None)
def test_rejected_inputs_raise_value_error(q, t, n, bad_q, bad_t, bad_depth, over, shift):
    with pytest.raises(ValueError, match="q must lie in"):
        GeometricGrid.build(q=bad_q, t=t, depth=5)
    with pytest.raises(ValueError, match="horizon t must be positive and finite"):
        GeometricGrid.build(q=q, t=bad_t, depth=5)
    with pytest.raises(ValueError, match="depth must be at least 1"):
        GeometricGrid.build(q=q, t=t, depth=bad_depth)
    # the first depth at which t q**K leaves the normal float range
    deep = int(math.log(sys.float_info.min / t) / math.log(q))
    while t * q**deep >= sys.float_info.min:
        deep += 1
    while t * q ** (deep - 1) < sys.float_info.min:
        deep -= 1
    with pytest.raises(ValueError, match="underflows"):
        GeometricGrid.build(q=q, t=t, depth=deep)
    assert GeometricGrid.build(q=q, t=t, depth=deep - 1).K == deep - 1
    grid = GeometricGrid.build(q=q, t=t, depth=3)
    for seed in (-1 - over, SEED_LIMIT - n + 1 + over):
        with pytest.raises(ValueError, match="base_seed"):
            simulate_batch(grid, n, seed)
    other_q = CACHED_QS[(CACHED_QS.index(q) + shift) % len(CACHED_QS)]
    with pytest.raises(ValueError, match="differs from the grid"):
        simulate_batch(grid, n, 0, QContext.numeric(other_q))


def test_bad_draw_in_a_later_block_is_rejected(monkeypatch):
    # a NaN in the first transition column of the second block, whichever
    # walker draws it: the first block still draws all its columns, the
    # second stops at the bad one, and every draw of either covers its whole
    # block (later blocks may or may not have started meanwhile)
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=4)
    n = 2 * process.PATH_BLOCK + 3
    spans = process._block_spans(n)[0]
    step = spans[1][0]
    base = 2**32 - step - 1
    real_draw, walking, calls = process.draw_transition_batch, threading.local(), {}

    def spy(walk):
        def recorded(block, seed, *rest):
            walking.seed = seed
            return walk(block, seed, *rest)

        return recorded

    def patched(table, x_scaled, u):
        out = real_draw(table, x_scaled, u)
        calls.setdefault(walking.seed, []).append(np.size(x_scaled))
        if walking.seed == base + step:
            out[-1] = math.nan
        return out

    for name in ("_walk_paths", "_walk_block"):
        monkeypatch.setattr(process, name, spy(getattr(process, name)))
    monkeypatch.setattr(process, "draw_transition_batch", patched)
    with pytest.raises(ValueError, match="index 3 is not finite or lies outside the support"):
        simulate_batch(grid, n_paths=n, base_seed=base)
    assert calls[base] == [step] * grid.K
    assert calls[base + step] == [spans[1][1] - step]
    assert set(calls) <= {base + start for start, _ in spans}


def _force_walkers(monkeypatch, n: int) -> None:
    monkeypatch.setattr(process, "_usable_cpus", lambda: n)


def test_lowest_failing_block_is_raised(monkeypatch):
    # blocks 1 and 2 both fail, block 2 first: the serial loop's error,
    # block 1's, is raised
    _force_walkers(monkeypatch, 3)
    block_2_failed = threading.Event()

    def work(start, stop):
        i = start // process.PATH_BLOCK
        if i == 2:
            block_2_failed.set()
            raise ValueError("block 2")
        if i == 1:
            assert block_2_failed.wait(30)
            raise ValueError("block 1")
        return i

    with pytest.raises(ValueError, match="block 1"):
        process._each_block(3 * process.PATH_BLOCK, work)
    assert block_2_failed.is_set()


def test_no_walker_outlives_its_call(monkeypatch):
    # on three walkers, 4 * PATH_BLOCK - 1 paths take six equal spans, the
    # fewest multiple of three within the cap, the last one path longer
    _force_walkers(monkeypatch, 3)
    before = threading.active_count()
    n = 4 * process.PATH_BLOCK - 1
    assert process._each_block(n, lambda start, stop: stop - start) == [n // 6] * 5 + [n // 6 + 1]
    assert threading.active_count() == before

    def fail(start, stop):
        raise ArithmeticError(start)

    with pytest.raises(ArithmeticError):
        process._each_block(4 * process.PATH_BLOCK, fail)
    assert threading.active_count() == before
    simulate_batch(GeometricGrid.build(q=0.5, t=1.0, depth=3), 2 * process.PATH_BLOCK + 3, 5)
    assert threading.active_count() == before


@pytest.mark.parametrize("cap", [3, 64, process.PATH_BLOCK])
def test_block_spans_are_equal_and_within_the_cap(monkeypatch, cap):
    # the spans cover the batch in order, differ by at most one path, and
    # none is empty or above the cap; above the cap their count is the
    # fewest multiple of the walkers that keeps within it (one span per path
    # where there are more walkers than paths)
    monkeypatch.setattr(process, "PATH_BLOCK", cap)
    for walkers in (1, 2, 3, 4, 6):
        _force_walkers(monkeypatch, walkers)
        for n in sorted({1, cap - 1, cap, cap + 1, 2 * cap, 3 * cap + 2, 7 * cap - 1} - {0}):
            spans, used = process._block_spans(n)
            sizes = [stop - start for start, stop in spans]
            assert [start for start, _ in spans] == [0, *(stop for _, stop in spans[:-1])] and spans[-1][1] == n
            assert 1 <= min(sizes) and max(sizes) - min(sizes) <= 1 and max(sizes) <= cap, (walkers, n)
            count = len(spans)
            if n <= cap:
                assert count == 1 and used == 1
            elif n < walkers:
                assert count == n and used == n
            else:
                assert count % walkers == 0 and used == walkers, (walkers, n)
                assert count == walkers or -(-n // (count - walkers)) > cap, (walkers, n)


def test_a_monte_carlo_batch_takes_four_equal_blocks(monkeypatch):
    for walkers in (1, 2, 4):
        _force_walkers(monkeypatch, walkers)
        assert process._block_spans(10**5) == ([(i * 25000, (i + 1) * 25000) for i in range(4)], walkers)


def test_a_batch_within_the_cap_starts_no_thread(monkeypatch):
    # one block on the calling thread, without asking for the CPU count
    def no_count():
        raise AssertionError("walkers counted")

    monkeypatch.setattr(process, "_usable_cpus", no_count)
    before, ident = threading.active_count(), threading.get_ident()
    seen = process._each_block(process.PATH_BLOCK, lambda start, stop: (start, stop, threading.get_ident()))
    assert seen == [(0, process.PATH_BLOCK, ident)] and threading.active_count() == before
    simulate_batch(GeometricGrid.build(q=0.5, t=1.0, depth=3), process.PATH_BLOCK, 5)


@pytest.mark.parametrize(
    "cpu_max, cpus",
    [
        ("max 100000\n", 8),
        ("150000 100000\n", 2),
        ("100000 100000\n", 1),
        ("20000 100000\n", 1),
        ("400000 50000\n", 8),
        ("1600000 100000\n", 8),
        ("", 8),
        ("150000\n", 8),
        ("150000 100000 7\n", 8),
        ("1.5 1\n", 8),
        ("0 100000\n", 8),
        ("150000 0\n", 8),
        ("-1 100000\n", 8),
        (FileNotFoundError, 8),
        (PermissionError, 8),
    ],
)
def test_usable_cpus_count_a_cgroup_cpu_quota(monkeypatch, cpu_max, cpus):
    # min(affinity, ceil(quota / period)); a missing or unreadable file, no
    # quota ("max") or a malformed file leaves the affinity's count
    def read():
        if isinstance(cpu_max, str):
            return cpu_max
        raise cpu_max("cpu.max")

    monkeypatch.setattr(process.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(process, "_cpu_max", read)
    assert process._usable_cpus() == cpus


def test_many_walkers_on_small_blocks_keep_the_bits(monkeypatch):
    # six walkers on 66 blocks of 58 or 59 paths (11 per walker, under a cap
    # of 64), switching threads as often as the interpreter allows: each
    # block is handed out once, the results come back in block order, and
    # the batch and its decomposition have the one-walker bits
    from qbm.qhermite import QPolynomial
    from qbm.qito import ito_decompose_batch

    grid, ctx = GeometricGrid.build(q=0.8, t=1.0, depth=12), QContext.numeric(0.8)
    monkeypatch.setattr(process, "PATH_BLOCK", 64)
    n, taken = 60 * 64 + 40, []

    def run():
        f = QPolynomial.from_xt_terms({(3, 1): 0.7, (2, 0): -1.0, (0, 1): 2.0})
        batch = simulate_batch(grid, n, 77)
        dec = ito_decompose_batch(f, batch, ctx)
        return batch.values.tobytes(), dec.residual.tobytes(), dec.drift_term.tobytes()

    _force_walkers(monkeypatch, 1)
    serial = run()
    _force_walkers(monkeypatch, 6)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        spans = process._each_block(n, lambda start, stop: taken.append(start) or (start, stop))
        threaded = run()
    finally:
        sys.setswitchinterval(switch)
    bounds = [i * n // 66 for i in range(67)]
    assert sorted(taken) == bounds[:-1]
    assert spans == list(zip(bounds, bounds[1:]))
    assert threaded == serial


@pytest.mark.parametrize("context", ["copied", "empty"])
def test_walkers_see_the_callers_errstate(monkeypatch, context):
    # two blocks held at once by two walkers, each block on its own thread.
    # An empty context stands for NumPy 1.x, which keeps np.errstate per
    # thread rather than in a context variable: the walker still runs under
    # the caller's error state, and under its error callback
    _force_walkers(monkeypatch, 2)
    if context == "empty":
        monkeypatch.setattr(process, "copy_context", contextvars.Context)
    both = threading.Barrier(2, timeout=30)

    def work(start, stop):
        both.wait()
        return np.geterr(), np.geterrcall(), threading.get_ident()

    def on_error(kind, flag):
        pass

    with np.errstate(over="raise", invalid="call", call=on_error):
        seen = process._each_block(2 * process.PATH_BLOCK, work)
    assert len({ident for *_, ident in seen}) == 2
    for err, call, _ in seen:
        assert err["over"] == "raise" and err["invalid"] == "call" and call is on_error


def test_stream_crossover_keeps_every_path(monkeypatch):
    # blocks of fewer than _STREAM_CROSSOVER paths walk path by path on each
    # path's own generator, larger ones walk together on the streams computed
    # together; row i is simulate_path's path either way, also in a batch
    # whose equal spans straddle the crossover (a cap of _STREAM_CROSSOVER
    # on one walker), the streams' entropy words carrying past 2**32 in its
    # second span
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=8)
    base = 2**32 - 40
    walked = []

    def spy(walk):
        def recorded(block, *rest):
            walked.append((walk.__name__, block.shape[0]))
            return walk(block, *rest)

        return recorded

    cross = process._STREAM_CROSSOVER
    n = 2 * cross - 1
    singles = {i: simulate_path(grid, base + i).values for i in range(n)}
    for name in ("_walk_paths", "_walk_block"):
        monkeypatch.setattr(process, name, spy(getattr(process, name)))
    for m in (cross - 1, cross, cross + 1):
        batch = simulate_batch(grid, m, base)
        for i in range(m):
            assert np.array_equal(batch.values[i], singles[i]), (m, i)
    monkeypatch.setattr(process, "PATH_BLOCK", cross)
    _force_walkers(monkeypatch, 1)
    batch = simulate_batch(grid, n, base)
    for i in range(n):
        assert np.array_equal(batch.values[i], singles[i]), i
    assert walked == [
        ("_walk_paths", cross - 1),
        ("_walk_block", cross),
        ("_walk_block", cross + 1),
        ("_walk_paths", cross - 1),
        ("_walk_block", cross),
    ]


@pytest.mark.parametrize("fault", [math.nan, math.inf])
def test_bad_draw_in_a_single_path_is_rejected(monkeypatch, fault):
    # the path-by-path walk keeps the gate, at the first bad step
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=4)
    real = process._transition_at
    calls = []

    def patched(table, x_scaled, cell, t):
        calls.append(x_scaled)
        return fault if len(calls) == 2 else real(table, x_scaled, cell, t)

    monkeypatch.setattr(process, "_transition_at", patched)
    with pytest.raises(ValueError, match="index 2 is not finite or lies outside the support"):
        simulate_path(grid, 7)
    assert len(calls) == 2 and all(type(x) is float for x in calls)


#: bytes a walker holds beyond the output per path of its block: a block
#: walk's streams, uniforms, states and draw temporaries measure 152
WALK_BYTES_PER_PATH = 160


def test_simulation_memory_is_bounded_by_the_block(monkeypatch):
    # beyond its output, a batch holds per walker one block's streams and
    # draw temporaries (about 0.9 of the block's own columns at this depth),
    # however many blocks it has; one pass over all its paths at once would
    # hold about twice the bound of its two walkers
    import tracemalloc

    _force_walkers(monkeypatch, 2)
    grid = GeometricGrid.build(q=0.5, t=1.0)
    ctx = QContext.numeric(0.5)
    simulate_batch(grid, 1, 0, ctx)  # the tables, outside the measurement
    n = 4 * process.PATH_BLOCK
    spans, walkers = process._block_spans(n)
    assert len(spans) == 4 and walkers == 2
    output = n * (grid.K + 1) * 8
    tracemalloc.start()
    try:
        simulate_batch(grid, n, 11, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - output < walkers * WALK_BYTES_PER_PATH * process.PATH_BLOCK, (peak - output) / (walkers * process.PATH_BLOCK)
