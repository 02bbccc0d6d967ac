"""Time simulate_batch's two walks against each other and check that they agree.

    python scripts/path_crossover.py [--repeats 7] [--q 0.5]

simulate_batch walks a block of fewer than process._STREAM_CROSSOVER paths
path by path on Python floats, each path on its own generator's uniforms,
and a larger block on all its paths at once, on the streams computed
together.  For each block size n in SIZES at each depth in DEPTHS this
forces each walk in turn, by setting that constant, and prints the least
time per call of each over --repeats alternating calls.  It exits 1 if the
two walks' values differ in any bit at any n.
"""

import argparse
import time

import numpy as np

from qbm import process
from qbm.process import GeometricGrid, simulate_batch

SIZES = (1, 4, 8, 16, 24, 32, 64)
DEPTHS = (20, 80)
#: the streams' entropy words carry past 2**32 inside every block
BASE_SEED = 2**32 - 8


def timed(grid: GeometricGrid, n: int, crossover: int) -> tuple[float, np.ndarray]:
    """Seconds of one simulate_batch call of n paths, and its values, with
    the walk chosen by the given crossover."""
    saved = process._STREAM_CROSSOVER
    process._STREAM_CROSSOVER = crossover
    try:
        start = time.perf_counter()
        values = simulate_batch(grid, n, BASE_SEED).values
        return time.perf_counter() - start, values
    finally:
        process._STREAM_CROSSOVER = saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=7, help="calls of each walk per block size")
    parser.add_argument("--q", type=float, default=0.5, help="deformation parameter in (0, 1)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not 0.0 < args.q < 1.0:
        parser.error("--q must lie in (0, 1)")

    simulate_batch(GeometricGrid.build(q=args.q, t=1.0, depth=1), 1, 0)  # the tables
    print(f"# q={args.q:g}, crossover {process._STREAM_CROSSOVER}, least of {args.repeats} call(s), ms per call")
    print(f"{'depth':>5} {'paths':>5} {'by path':>9} {'block':>9}  faster")
    differ = []
    for depth in DEPTHS:
        grid = GeometricGrid.build(q=args.q, t=1.0, depth=depth)
        for n in SIZES:
            by_path, block = [], []
            for _ in range(args.repeats):
                seconds, walked = timed(grid, n, n + 1)
                by_path.append(seconds)
                seconds, vectorised = timed(grid, n, n)
                block.append(seconds)
                if walked.tobytes() != vectorised.tobytes():
                    differ.append((depth, n))
            a, b = 1e3 * min(by_path), 1e3 * min(block)
            print(f"{depth:5d} {n:5d} {a:9.3f} {b:9.3f}  {'by path' if a < b else 'block'}")
    if differ:
        print(f"the walks' values differ at (depth, paths) {sorted(set(differ))}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
