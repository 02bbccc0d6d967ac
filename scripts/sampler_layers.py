"""Time the Monte Carlo sampler layer by layer, per grid column of a block.

    python scripts/sampler_layers.py [--repeats 21] [--q 0.5 0.8]

A batch is simulated and summed process.PATH_BLOCK paths at a time, one
grid column per NumPy pass.  For each q this times, per column of one such
block: one column of the block's uniform streams (process._uniform_columns),
one draw_transition_batch on a column of the block's scaled states, and the
defining sums of x**0..x**3, the Monte Carlo suite's integrands
(stochint.integrate_def_batch on the one-block batch, divided by the grid
depth).  It prints the median of --repeats timings of each, in
microseconds, with the number of cores the process may run on and the NumPy
version.
"""

import argparse
import os
import statistics
import time

import numpy as np

from qbm import process, stochint
from qbm.measures import draw_transition_batch, scaled_transition_table
from qbm.process import GeometricGrid, simulate_batch
from qbm.qcore import QContext
from qbm.qhermite import QPolynomial

#: streams whose entropy words carry past 2**32 inside the block
BASE_SEED = 2**32 - 8


def median_us(call, repeats: int) -> float:
    """Median wall time of call() over repeats calls, in microseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def layers(q: float, repeats: int) -> tuple[int, float, float, float]:
    """(depth, uniforms, transition, defining sums) at q, the times in
    microseconds per column of one PATH_BLOCK block."""
    n = process.PATH_BLOCK
    ctx = QContext.numeric(q)
    grid = GeometricGrid.build(q=q, t=1.0)
    batch = simulate_batch(grid, n, BASE_SEED)
    columns = process._uniform_columns(n, BASE_SEED)
    u = next(columns)  # the first column carries the streams' seeding
    uniforms = median_us(lambda: next(columns), repeats)
    table = scaled_transition_table(q)
    k = grid.K // 2
    x = batch.values[:, k + 1] / np.sqrt(float(grid.times[k]))
    transition = median_us(lambda: draw_transition_batch(table, x, u), repeats)
    fs = [stochint.PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(d), ctx) for d in range(4)]

    def sums():
        for f in fs:
            stochint.integrate_def_batch(f, batch, ctx)

    return grid.K, uniforms, transition, median_us(sums, repeats) / grid.K


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=21, help="timed calls of each layer")
    parser.add_argument("--q", type=float, nargs="+", default=[0.5, 0.8], help="deformation parameters in (0, 1)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not all(0.0 < q < 1.0 for q in args.q):
        parser.error("every --q must lie in (0, 1)")

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(
        f"# nproc {nproc}, numpy {np.__version__}, {process.PATH_BLOCK} paths, "
        f"median of {args.repeats} call(s), us per grid column"
    )
    print(f"{'q':>5} {'depth':>5} {'uniforms':>9} {'transition':>10} {'def x^0..3':>10}")
    # one untimed pass at every q first: the tables, and the allocator's
    # state after the first large temporaries, which would otherwise leave
    # the first q's draws paying page faults
    for q in args.q:
        layers(q, 1)
    for q in args.q:
        depth, uniforms, transition, sums = layers(q, args.repeats)
        print(f"{q:5g} {depth:5d} {uniforms:9.1f} {transition:10.1f} {sums:10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
