"""Path simulation on geometric time grids.

A path lives on the grid t_k = t q**k, k = 0..K (index 0 is the horizon).
Simulation draws the deepest value from the marginal at t q**K and then walks
forward through the one-step transition kernels.  On this grid every step has
time ratio q, so all transitions reduce by diffusive scaling to a single
tabulated kernel family, shared across steps and paths.

Path i of a batch uses the generator seeded with base_seed + i and consumes
K + 1 uniforms, so results do not depend on evaluation order or batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .measures import (
    draw_from_table,
    draw_transition_batch,
    scaled_marginal_table,
    scaled_transition_table,
    support_halfwidth,
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


def default_depth(q: float, tail: float = GRID_TAIL) -> int:
    """Smallest K with q**K <= tail."""
    k, p = 0, 1.0
    qf = float(q)
    while p > tail:
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
        if t <= 0:
            raise ValueError("horizon t must be positive")
        K = default_depth(float(q)) if depth is None else int(depth)
        if K < 1:
            raise ValueError("grid depth must be at least 1")
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

    def in_support(self, slack: float = 0.0) -> bool:
        """Whether |B_k| <= 2 sqrt(t_k / (1-q)) at every grid node."""
        q = float(self.grid.q)
        for tk, v in zip(self.grid.times, self.values):
            if abs(float(v)) > support_halfwidth(float(tk), q) + slack:
                return False
        return True


@dataclass(frozen=True)
class PathBatch:
    """Simulated paths stacked row-wise; row i used seed base_seed + i."""

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


def _uniforms(n_paths: int, n_draws: int, base_seed: int) -> np.ndarray:
    u = np.empty((n_paths, n_draws))
    for i in range(n_paths):
        u[i] = np.random.default_rng(base_seed + i).random(n_draws)
    return u


def simulate_batch(
    grid: GeometricGrid,
    n_paths: int,
    base_seed: int,
    ctx: QContext | None = None,
) -> PathBatch:
    """Simulate n_paths independent paths on the grid.

    Marginal draw at the deepest time, then one transition draw per step,
    vectorised across paths through the shared scaled-kernel tables.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    q = float(grid.q)
    if ctx is None:
        ctx = QContext.numeric(q)
    prod_eps = ctx.prod_eps
    K = grid.K
    u = _uniforms(n_paths, K + 1, base_seed)
    values = np.empty((n_paths, K + 1))
    t_deep = float(grid.times[K])
    mt = scaled_marginal_table(q, prod_eps)
    rows = np.zeros(n_paths, dtype=np.intp)
    values[:, K] = math.sqrt(t_deep) * draw_from_table(mt, rows, u[:, 0])
    tt = scaled_transition_table(q, prod_eps)
    for k in range(K - 1, -1, -1):
        tk = float(grid.times[k])
        rt = math.sqrt(tk)
        x_scaled = values[:, k + 1] / rt
        values[:, k] = rt * draw_transition_batch(tt, x_scaled, u[:, K - k])
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
