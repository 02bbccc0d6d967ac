"""Path simulation on geometric time grids.

A path lives on the grid t_k = t q**k, k = 0..K (index 0 is the horizon).
Simulation draws the deepest value from the marginal at t q**K and then walks
forward through the one-step transition kernels.  On this grid every step has
time ratio q, so all transitions reduce by diffusive scaling to a single
tabulated kernel family, shared across steps and paths.

Path i of a batch consumes the first K + 1 uniforms of
np.random.default_rng(base_seed + i), the marginal draw first, so results do
not depend on evaluation order or batch size.  A block of fewer than
_STREAM_CROSSOVER paths is walked path by path: each takes its uniforms from
its own generator, which is the stream's definition, and steps one state at
a time on Python floats, where a draw reads one table record per row.  A
larger block is walked on all its paths at once, one column of uniforms per
draw, the streams computed together in vectorised integer arithmetic (some
33 uint64 passes per column, most of them in place), whose fixed cost pays
off only from a few dozen paths on.  Both give the same bits.
Base seeds need 0 <= base_seed and base_seed + n_paths <= 2**128.
A block walks the whole grid for its PATH_BLOCK paths, so a walk's
temporaries are bounded by a block at any batch size.  A batch's blocks
(here, and the sums of stochint and qito) go through _each_block, which
shares them among the calling thread and one walker thread per further
usable CPU, never more than there are blocks; each block writes only its
own rows, so the bits do not depend on the walker count.  A batch is
stored grid-major, so each grid column is contiguous: the sampler draws
into it and the integrals sum over it in place.
"""

from __future__ import annotations

import math
import operator
import os
import sys
import threading
from contextvars import copy_context
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Union

import numpy as np

from .measures import (
    _draw_at,
    _knot_cells,
    _transition_at,
    draw_from_table,
    draw_transition_batch,
    scaled_marginal_table,
    scaled_transition_table,
)
from .qcore import QContext, Scalar

__all__ = [
    "GeometricGrid",
    "GeometricPath",
    "PathBatch",
    "default_depth",
    "simulate_path",
    "simulate_batch",
    "write_path_csv",
    "write_batch_csv",
]

#: default grid tail threshold: depth K is the smallest with q**K <= this
GRID_TAIL = 1e-6
#: paths simulated (and summed by stochint and qito) together: a block's NumPy
#: calls are long enough that walkers on other blocks run while one holds the GIL
PATH_BLOCK = 16384
#: blocks of fewer paths walk path by path on each path's own generator; from
#: here on the block walk on the streams computed together is faster
#: (scripts/path_crossover.py, at depth 20 and 80)
_STREAM_CROSSOVER = 32


def _usable_cpus() -> int:
    """The CPUs this process may run on: the walkers of a multi-block call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_block(n_paths: int, work: Callable[[int, int], object]) -> list:
    """work(start, stop) on each PATH_BLOCK block of n_paths paths, the
    results in block order.

    The calling thread walks blocks, and so does one thread per further
    usable CPU (by CPU affinity, not by a CPU quota), never more walkers
    than blocks; each takes the next block from one shared iterator, in a
    copy of the caller's context and under the caller's np.errstate (which
    NumPy 1.x keeps per thread, outside the context), and all are joined
    before this returns or raises.  With one walker no thread is started.
    Once a block fails no later one is handed out, and the error raised is
    that of the lowest failing block, the serial loop's.
    work may write its own block's rows; a shared cache or memo it reads
    must be filled by the caller first, or be safe to fill twice with the
    same value (as CdfTable's cached one-state view is).
    """
    spans = [(start, min(start + PATH_BLOCK, n_paths)) for start in range(0, n_paths, PATH_BLOCK)]
    out: list = [None] * len(spans)
    todo, lock, failed = iter(range(len(spans))), threading.Lock(), {}

    def walk() -> None:
        while True:
            with lock:
                i = None if failed else next(todo, None)
            if i is None:
                return
            try:
                out[i] = work(*spans[i])
            except BaseException as exc:  # raised below, after the join
                with lock:
                    failed[i] = exc

    def walk_under(err: dict) -> None:
        with np.errstate(**err):
            walk()

    threads = []
    try:
        for _ in range(min(_usable_cpus(), len(spans)) - 1):
            err = dict(np.geterr(), call=np.geterrcall())
            threads.append(threading.Thread(target=copy_context().run, args=(walk_under, err)))
            threads[-1].start()
        walk()
    finally:
        for thread in threads:
            thread.join()
    if failed:
        raise failed[min(failed)]
    return out


def default_depth(q: float) -> int:
    """Smallest K with q**K <= GRID_TAIL."""
    k, p = 0, 1.0
    qf = float(q)
    while p > GRID_TAIL:
        p *= qf
        k += 1
    return k


def _as_array(seq) -> np.ndarray:
    """seq as a float array, or as an object array of exact values."""
    a = np.asarray(seq)
    return a if a.dtype == float else np.array(seq, dtype=object)


@dataclass(frozen=True)
class GeometricGrid:
    """Times t_k = t q**k for k = 0..K; index 0 is the horizon."""

    t: Scalar
    q: Scalar
    K: int
    times: tuple[Scalar, ...]

    @classmethod
    def build(cls, q: Scalar, t: Scalar, depth: int | None = None) -> "GeometricGrid":
        if not (0 < q < 1):
            raise ValueError("q must lie in (0, 1)")
        if not (t > 0 and math.isfinite(t)):
            raise ValueError("horizon t must be positive and finite")
        K = default_depth(float(q)) if depth is None else int(depth)
        if K < 1:
            raise ValueError("grid depth must be at least 1")
        if not float(t) * float(q) ** K >= sys.float_info.min:
            raise ValueError(f"deepest grid time t q**{K} underflows the normal float range")
        times = tuple(t * q**k for k in range(K + 1))
        return cls(t=t, q=q, K=K, times=times)

    def __len__(self) -> int:
        return self.K + 1

    @cached_property
    def _time_array(self) -> np.ndarray:
        """The times as one read-only array (_as_array), kept on the grid."""
        times = _as_array(self.times)
        times.flags.writeable = False
        return times

    @cached_property
    def _walk_scales(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """sqrt(t_k) and the support edges (_support_edges) at every grid
        time, for the walks: formed once per grid, as floats."""
        return tuple(math.sqrt(float(tk)) for tk in self.times), tuple(_support_edges(self))


@dataclass(frozen=True)
class GeometricPath:
    """Grid values B_k at times t_k; values[0] is the horizon value.

    values may be a numpy array (simulation) or a tuple of exact rationals
    (identity testing, where grid values act as free variables).
    """

    grid: GeometricGrid
    values: Union[np.ndarray, tuple]
    seed: int | None = None

    def __post_init__(self) -> None:
        if len(self.values) != len(self.grid):
            raise ValueError("path length does not match grid")


def _support_edges(grid: GeometricGrid) -> list[float]:
    """The support's half-width 2 sqrt(t_k / (1-q)) at each grid time, capped
    at the largest float so that a gate |B_k| <= edge also rejects infinities."""
    q = float(grid.q)
    return [min(2.0 * math.sqrt(float(tk) / (1.0 - q)), sys.float_info.max) for tk in grid.times]


@dataclass(frozen=True)
class PathBatch:
    """Simulated paths: values[i, k] is path i at grid time index k, and
    path i used seed base_seed + i.  values is stored grid-major (Fortran
    order, as simulate_batch builds it), so each column values[:, k] is
    contiguous; results do not depend on the layout."""

    grid: GeometricGrid
    values: np.ndarray
    base_seed: int

    def __len__(self) -> int:
        return self.values.shape[0]

    def path(self, i: int) -> GeometricPath:
        return GeometricPath(grid=self.grid, values=self.values[i], seed=self.base_seed + i)

    def __iter__(self) -> Iterator[GeometricPath]:
        return (self.path(i) for i in range(len(self)))

    @property
    def horizon_values(self) -> np.ndarray:
        return self.values[:, 0]

    def restrict(self, depth: int) -> "PathBatch":
        """The same paths on the first depth + 1 grid times (a view of the
        values).  The process is Markov, so this is a batch at that depth."""
        g = self.grid
        if not 1 <= depth <= g.K:
            raise ValueError(f"restricted depth must lie in [1, {g.K}], got {depth}")
        grid = GeometricGrid(t=g.t, q=g.q, K=depth, times=g.times[: depth + 1])
        return PathBatch(grid=grid, values=self.values[:, : depth + 1], base_seed=self.base_seed)


# The uniform stream of path i is np.random.default_rng(base_seed + i).random(),
# reproduced here across all paths at once: SeedSequence entropy mixing and
# generate_state(4, uint64) in uint32 lanes, then PCG64 (XSL-RR 128/64) with
# its 128-bit state held in two uint64 halves, the high word of the low
# halves' product built from 32-bit limbs.  NumPy keeps both streams stable
# across releases (NEP 19).

#: seeds are accepted below this: SeedSequence then hashes exactly four
#: zero-padded 32-bit entropy words, the case reproduced here
SEED_LIMIT = 2**128

_M32 = 0xFFFFFFFF
_HASH_A = (0x43B0D7E5, 0x931E8875)  # SeedSequence INIT_A, MULT_A
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # SeedSequence INIT_B, MULT_B
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_HI, _PCG_LO = divmod(0x2360ED051FC65DA44385DF649FCCF645, 2**64)  # PCG64 multiplier


def _hash_steps(init: int, mult: int):
    """The (xor, multiply) constants of successive SeedSequence hash steps;
    the hash constant evolves independently of the data."""
    h = init
    while True:
        nxt = (h * mult) & _M32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    xor_c, mul_c = next(steps)
    value = (value ^ xor_c) * mul_c
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


#: the PCG64 multiplier's two words, and its low word's two 32-bit limbs
_M_HI, _M_LO = np.uint64(_PCG_HI), np.uint64(_PCG_LO)
_LO0, _LO1 = np.uint64(_PCG_LO & _M32), np.uint64(_PCG_LO >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """The PCG64 state update, state * multiplier + inc mod 2**128, on the
    state's high and low uint64 halves, which it overwrites."""
    # the high word of lo * _M_LO from 32-bit limbs: no partial sum overflows
    a0, a1 = lo & _M32, lo >> 32
    mid = a1 * _LO0
    mid += (a0 * _LO0) >> 32
    t = mid & _M32
    mid >>= 32
    a0 *= _LO1
    t += a0
    t >>= 32
    a1 *= _LO1
    a1 += mid
    a1 += t
    # the cross terms, the increment and the low word's carry
    hi *= _M_LO
    hi += a1
    hi += lo * _M_HI
    hi += inc_hi
    lo *= _M_LO
    lo += inc_lo
    hi += lo < inc_lo
    return hi, lo


def _pcg_states(n_paths: int, base_seed: int):
    """The PCG64 states (high and low halves) and increments of the
    generators np.random.default_rng(base_seed + i), i < n_paths, seeded:
    none of the seeding's temporaries outlives this call."""
    # the four 32-bit entropy words of base_seed + i, built with carry and
    # hashed into the pool one by one
    steps = _hash_steps(*_HASH_A)
    carry, pool = np.arange(n_paths, dtype=np.uint64), []
    for k in range(4):
        w = carry + np.uint64((base_seed >> (32 * k)) & _M32)
        pool.append(_hashmix((w & _M32).astype(np.uint32), steps))
        carry = w >> 32
    del carry, w
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
    # generate_state(4, uint64): little-endian pairs of eight hashed words
    # pool[i % 4], i = 0..7, a pair at a time
    steps = _hash_steps(*_HASH_B)
    state = []
    for j in range(4):
        low = _hashmix(pool[2 * j % 4], steps).astype(np.uint64)
        state.append(low | (_hashmix(pool[(2 * j + 1) % 4], steps).astype(np.uint64) << 32))
    del pool, low
    seed_hi, seed_lo, seq_hi, seq_lo = state
    # PCG64 seeding: inc = 2 seq + 1; step from 0 (to inc), add the seed with
    # its carry, step again
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _uniform_columns(n_paths: int, base_seed: int) -> Iterator[np.ndarray]:
    """Endless uniform columns; entry i of the n-th column is the n-th value
    of np.random.default_rng(base_seed + i).random().

    Requires 0 <= base_seed and base_seed + n_paths <= SEED_LIMIT.
    """
    hi, lo, inc_hi, inc_lo = _pcg_states(n_paths, base_seed)
    while True:
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: xor the halves, rotate right by the top six bits
        x, rot = hi ^ lo, hi >> 58
        right = x >> rot
        np.negative(rot, out=rot)
        rot &= 63
        x <<= rot
        x |= right
        x >>= 11
        u = x.astype(np.float64)
        u *= 2.0**-53
        # only the states stay alive while the column is drawn through
        del x, rot, right
        yield u


def _outside(k: int) -> ValueError:
    return ValueError(f"a value drawn at grid time index {k} is not finite or lies outside the support")


def _walk_block(block: np.ndarray, base_seed: int, mt, tt, rts: tuple[float, ...], edges: tuple[float, ...]) -> None:
    """Simulate a block's paths together, one grid column per draw, on the
    streams computed together by _uniform_columns."""
    K = len(rts) - 1
    u = _uniform_columns(block.shape[0], base_seed)
    np.multiply(draw_from_table(mt, 0, next(u)), rts[K], out=block[:, K])
    for k in range(K, -1, -1):
        col = block[:, k]
        if k < K:
            np.multiply(draw_transition_batch(tt, block[:, k + 1] / rts[k], next(u)), rts[k], out=col)
        # two reductions: NaN fails both comparisons
        if not (col.max() <= edges[k] and -col.min() <= edges[k]):
            raise _outside(k)


def _walk_paths(block: np.ndarray, base_seed: int, mt, tt, rts: tuple[float, ...], edges: tuple[float, ...]) -> None:
    """Simulate a block path by path on Python floats, one state per draw,
    each path on the uniforms of its own generator, whose knot positions are
    taken in one pass over them (as draw_from_table and
    draw_transition_batch take them one uniform at a time, so the same bits)."""
    K = len(rts) - 1
    for i in range(block.shape[0]):
        cells, offsets = (a.tolist() for a in _knot_cells(np.random.default_rng(base_seed + i).random(K + 1)))
        v = rts[K] * _draw_at(mt, 0, cells[0], offsets[0])
        row = [v]
        for k in range(K, -1, -1):
            if k < K:
                v = rts[k] * _transition_at(tt, v / rts[k], cells[K - k], offsets[K - k])
                row.append(v)
            if not abs(v) <= edges[k]:
                raise _outside(k)
        block[i, ::-1] = row


def simulate_batch(
    grid: GeometricGrid,
    n_paths: int,
    base_seed: int,
    ctx: QContext | None = None,
) -> PathBatch:
    """Simulate n_paths independent paths on the grid.

    Marginal draw at the deepest time, then one transition draw per step through
    the shared scaled-kernel tables, PATH_BLOCK paths at a time on the walkers
    of _each_block, drawn straight into the grid-major values: vectorised over
    a block's paths, or path by path in a block of fewer than
    _STREAM_CROSSOVER.  Row i uses the stream of seed base_seed + i.  Raises
    ValueError unless 0 <= base_seed and base_seed + n_paths <= 2**128, if
    ctx is given with a q other than the grid's, and if a drawn value is not
    finite or outside the support.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    base_seed = operator.index(base_seed)
    if not (0 <= base_seed and base_seed + n_paths <= SEED_LIMIT):
        raise ValueError(f"need 0 <= base_seed and base_seed + n_paths <= 2**128, got {base_seed}")
    q = float(grid.q)
    if ctx is not None and ctx.qf != q:
        raise ValueError(f"context q = {ctx.q} differs from the grid's q = {grid.q}")
    mt = scaled_marginal_table(q)
    tt = scaled_transition_table(q)
    rts, edges = grid._walk_scales
    values = np.empty((n_paths, grid.K + 1), order="F")

    def walk(start: int, stop: int) -> None:
        block = values[start:stop]
        form = _walk_paths if block.shape[0] < _STREAM_CROSSOVER else _walk_block
        form(block, base_seed + start, mt, tt, rts, edges)

    _each_block(n_paths, walk)
    return PathBatch(grid=grid, values=values, base_seed=base_seed)


def simulate_path(grid: GeometricGrid, seed: int, ctx: QContext | None = None) -> GeometricPath:
    """One path; identical to row 0 of a batch with the same base seed."""
    return simulate_batch(grid, 1, seed, ctx).path(0)


def _fmt(v) -> str:
    return repr(float(v))


def write_path_csv(path: GeometricPath, dest) -> None:
    """Write one path as CSV with header k,t_k,B_k (k ascending, time descending)."""
    close = False
    if isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__"):
        dest = open(dest, "w", encoding="utf-8")
        close = True
    try:
        dest.write("k,t_k,B_k\n")
        for k, (tk, v) in enumerate(zip(path.grid.times, path.values)):
            dest.write(f"{k},{_fmt(tk)},{_fmt(v)}\n")
    finally:
        if close:
            dest.close()


def write_batch_csv(batch: PathBatch, out_dir, wide: bool = False) -> list[str]:
    """Write a batch under out_dir; one file per path, or one wide file.

    Returns the file names written.  Reruns with the same seed and build
    produce byte-identical files.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    names: list[str] = []
    if wide:
        name = "paths_wide.csv"
        cols = [f"B_{i}" for i in range(len(batch))]
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write("k,t_k," + ",".join(cols) + "\n")
            for k, tk in enumerate(batch.grid.times):
                row = ",".join(_fmt(v) for v in batch.values[:, k])
                fh.write(f"{k},{_fmt(tk)},{row}\n")
        names.append(name)
        return names
    width = max(5, len(str(len(batch) - 1)))
    for i in range(len(batch)):
        name = f"path_{i:0{width}d}.csv"
        write_path_csv(batch.path(i), os.path.join(out_dir, name))
        names.append(name)
    return names
