"""Path simulation on geometric time grids.

A path lives on the grid t_k = t q**k, k = 0..K (index 0 is the horizon).
Simulation draws the deepest value from the marginal at t q**K and then walks
forward through the one-step transition kernels.  On this grid every step has
time ratio q, so all transitions reduce by diffusive scaling to a single
tabulated kernel family, shared across steps and paths.

Path i of a batch consumes the first K + 1 uniforms of
np.random.default_rng(base_seed + i), the marginal draw first, so results do
not depend on evaluation order or batch size.  A block of fewer than
_STREAM_CROSSOVER paths takes them from each path's own generator, which is
the stream's definition; a larger block computes the streams together, one
column of uniforms per draw, in vectorised integer arithmetic, whose fixed
cost pays off only from a few dozen paths on.  Both give the same bits.
Base seeds need 0 <= base_seed and base_seed + n_paths <= 2**128.
It walks the whole grid for PATH_BLOCK paths before it starts the next
block, so its temporaries stay cache-sized at any batch size.  A batch is
stored grid-major, so each grid column is contiguous: the sampler draws
into it and the integrals sum over it in place.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .measures import (
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
#: paths simulated (and summed by stochint) together: a step's temporaries stay in L2
PATH_BLOCK = 8192
#: blocks of fewer paths draw each path's uniforms from its own generator;
#: from here on emulating the streams together is faster (measured at depth 20 and 80)
_STREAM_CROSSOVER = 64


def default_depth(q: float) -> int:
    """Smallest K with q**K <= GRID_TAIL."""
    k, p = 0, 1.0
    qf = float(q)
    while p > GRID_TAIL:
        p *= qf
        k += 1
    return k


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
# its 128-bit state held in two uint64 halves.  NumPy keeps both streams
# stable across releases (NEP 19).

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


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, b a constant."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _M32) + (p10 & _M32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(hi, lo, add_hi, add_lo):
    s = lo + add_lo
    return hi + add_hi + (s < lo), s


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """The PCG64 state update, state * multiplier + inc mod 2**128, on the
    state's high and low uint64 halves."""
    m_hi, m_lo = np.uint64(_PCG_HI), np.uint64(_PCG_LO)
    return _add128(_mulhi(lo, _PCG_LO) + lo * m_hi + hi * m_lo, lo * m_lo, inc_hi, inc_lo)


def _uniform_columns(n_paths: int, base_seed: int) -> Iterator[np.ndarray]:
    """Endless uniform columns; entry i of the n-th column is the n-th value
    of np.random.default_rng(base_seed + i).random().

    Requires 0 <= base_seed and base_seed + n_paths <= SEED_LIMIT.
    """
    # the four 32-bit entropy words of base_seed + i, built with carry
    carry = np.arange(n_paths, dtype=np.uint64)
    words = []
    for k in range(4):
        w = carry + np.uint64((base_seed >> (32 * k)) & _M32)
        words.append((w & _M32).astype(np.uint32))
        carry = w >> 32
    steps = _hash_steps(*_HASH_A)
    pool = [_hashmix(w, steps) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], steps))
    steps = _hash_steps(*_HASH_B)
    state32 = [_hashmix(pool[i % 4], steps).astype(np.uint64) for i in range(8)]
    # generate_state(4, uint64): little-endian pairs of the eight words
    seed_hi, seed_lo, seq_hi, seq_lo = (state32[2 * j] | (state32[2 * j + 1] << 32) for j in range(4))
    # PCG64 seeding: inc = 2 seq + 1; step from 0, add the seed, step again
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    hi, lo = _pcg_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    while True:
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output: xor the halves, rotate right by the top six bits
        x, rot = hi ^ lo, hi >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        yield (x >> 11).astype(np.float64) * 2.0**-53


def _block_uniforms(n_paths: int, base_seed: int, n_draws: int) -> Iterator[np.ndarray]:
    """n_draws uniform columns for the paths of seeds base_seed + i: from
    each path's own generator in a small block, else from _uniform_columns."""
    if n_paths >= _STREAM_CROSSOVER:
        return _uniform_columns(n_paths, base_seed)
    rows = [np.random.default_rng(base_seed + i).random(n_draws) for i in range(n_paths)]
    return iter(np.stack(rows, axis=1))


def simulate_batch(
    grid: GeometricGrid,
    n_paths: int,
    base_seed: int,
    ctx: QContext | None = None,
) -> PathBatch:
    """Simulate n_paths independent paths on the grid.

    Marginal draw at the deepest time, then one transition draw per step through
    the shared scaled-kernel tables, vectorised over PATH_BLOCK paths at a time
    and drawn straight into the grid-major values.  Row i uses the stream of
    seed base_seed + i.  Raises ValueError unless 0 <= base_seed and
    base_seed + n_paths <= 2**128, if ctx is given with a q other than the
    grid's, and if a drawn value is not finite or outside the support
    (checked column by column).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    base_seed = operator.index(base_seed)
    if not (0 <= base_seed and base_seed + n_paths <= SEED_LIMIT):
        raise ValueError(f"need 0 <= base_seed and base_seed + n_paths <= 2**128, got {base_seed}")
    q = float(grid.q)
    if ctx is not None and ctx.qf != q:
        raise ValueError(f"context q = {ctx.q} differs from the grid's q = {grid.q}")
    K = grid.K
    mt = scaled_marginal_table(q)
    tt = scaled_transition_table(q)
    edges = _support_edges(grid)
    values = np.empty((n_paths, K + 1), order="F")
    for start in range(0, n_paths, PATH_BLOCK):
        block = values[start : start + PATH_BLOCK]
        u = _block_uniforms(block.shape[0], base_seed + start, K + 1)
        block[:, K] = math.sqrt(float(grid.times[K])) * draw_from_table(mt, 0, next(u))
        for k in range(K, -1, -1):
            if k < K:
                rt = math.sqrt(float(grid.times[k]))
                block[:, k] = rt * draw_transition_batch(tt, block[:, k + 1] / rt, next(u))
            # one reduction: NaN fails the comparison
            if not np.abs(block[:, k]).max() <= edges[k]:
                raise ValueError(f"a value drawn at grid time index {k} is not finite or lies outside the support")
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
