"""Time the Monte Carlo sampler layer by layer, per grid column of a block,
and whole Monte Carlo batches.

    python scripts/sampler_layers.py [--repeats 21] [--q 0.5 0.8]

A batch is simulated and summed a block at a time, one grid column per
NumPy pass, its blocks (equal spans of at most process.PATH_BLOCK paths)
shared among walker threads (process._each_block).  The spans and walkers
of a BATCH_PATHS batch are read from process._block_spans.  For each q this
times, per column of one such block: one column of the block's uniform
streams (process._uniform_columns), one draw_transition_batch on a column
of the block's scaled states, and the defining sums of x**0..x**3, the
Monte Carlo suite's integrands (stochint.integrate_def_batch on the
one-block batch, divided by the grid depth).  Then, as the Monte Carlo
suite runs them, one whole BATCH_PATHS batch: simulate_batch, and the four
defining sums on it.  It prints the median of --repeats timings of each:
the layers in microseconds, the whole batch in seconds of wall and of CPU
time (the process's, all threads), with the walkers a batch runs on, the
number of cores the process may run on and the NumPy version.  The last
column is the median wall time of the batch plus its sums on all walkers
over that on one walker (process._usable_cpus held at 1), the two timed in
alternation: 1.0 means the walkers gain nothing.
"""

import argparse
import os
import statistics
import time
from unittest import mock

import numpy as np

from qbm import process, stochint
from qbm.measures import draw_transition_batch, scaled_transition_table
from qbm.process import GeometricGrid, simulate_batch
from qbm.qcore import QContext
from qbm.qhermite import QPolynomial

#: streams whose entropy words carry past 2**32 inside the block
BASE_SEED = 2**32 - 8
#: paths of the whole batches, the Monte Carlo suite's per (q, t) grid
BATCH_PATHS = 10**5


def medians(call, repeats: int) -> tuple[float, float]:
    """Median wall and CPU time of call() over repeats calls, in seconds."""
    walls, cpus = [], []
    for _ in range(repeats):
        start, cpu = time.perf_counter(), time.process_time()
        call()
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
    return statistics.median(walls), statistics.median(cpus)


def whole_batch(q: float, repeats: int) -> tuple[float, float, float, float, float]:
    """(simulate wall, CPU, sums wall, CPU) of one BATCH_PATHS batch at q, in
    seconds, and the walkers' wall-time ratio of the batch plus its sums."""
    ctx = QContext.numeric(q)
    grid = GeometricGrid.build(q=q, t=1.0)
    fs = [stochint.PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(d), ctx) for d in range(4)]
    batch = simulate_batch(grid, BATCH_PATHS, BASE_SEED)

    def sums(batch=batch):
        for f in fs:
            stochint.integrate_def_batch(f, batch, ctx)

    simulated = medians(lambda: simulate_batch(grid, BATCH_PATHS, BASE_SEED), repeats)
    summed = medians(sums, repeats)
    both = lambda: sums(simulate_batch(grid, BATCH_PATHS, BASE_SEED))
    one, every = [], []
    for _ in range(repeats):
        with mock.patch.object(process, "_usable_cpus", lambda: 1):
            one.append(medians(both, 1)[0])
        every.append(medians(both, 1)[0])
    return (*simulated, *summed, statistics.median(every) / statistics.median(one))


def layers(q: float, repeats: int) -> tuple[int, float, float, float]:
    """(depth, uniforms, transition, defining sums) at q, the times in
    microseconds per column of one block of a BATCH_PATHS batch."""
    spans, _ = process._block_spans(BATCH_PATHS)
    n = max(stop - start for start, stop in spans)
    ctx = QContext.numeric(q)
    grid = GeometricGrid.build(q=q, t=1.0)
    batch = simulate_batch(grid, n, BASE_SEED)
    columns = process._uniform_columns(n, BASE_SEED)
    u = next(columns)  # the first column carries the streams' seeding
    uniforms = 1e6 * medians(lambda: next(columns), repeats)[0]
    table = scaled_transition_table(q)
    k = grid.K // 2
    x = batch.values[:, k + 1] / np.sqrt(float(grid.times[k]))
    transition = 1e6 * medians(lambda: draw_transition_batch(table, x, u), repeats)[0]
    fs = [stochint.PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(d), ctx) for d in range(4)]

    def sums():
        for f in fs:
            stochint.integrate_def_batch(f, batch, ctx)

    return grid.K, uniforms, transition, 1e6 * medians(sums, repeats)[0] / grid.K


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
    spans, walkers = process._block_spans(BATCH_PATHS)
    print(
        f"# nproc {nproc}, numpy {np.__version__}, {len(spans)} blocks of "
        f"{max(stop - start for start, stop in spans)} paths at most, "
        f"median of {args.repeats} call(s); layers in us per grid column of a block, "
        f"then one {BATCH_PATHS}-path batch in s of wall / CPU time on {walkers} walker(s), "
        f"and the wall time of the batch plus its sums on {walkers} walker(s) over one"
    )
    print(
        f"{'q':>5} {'depth':>5} {'uniforms':>9} {'transition':>10} {'def x^0..3':>10} "
        f"{'sim wall':>8} {'sim CPU':>8} {'sums wall':>9} {'sums CPU':>8} {'walkers':>7} {'all/one':>7}"
    )
    # one untimed pass at every q first: the tables, and the allocator's
    # state after the first large temporaries, which would otherwise leave
    # the first q's draws paying page faults
    for q in args.q:
        layers(q, 1)
    for q in args.q:
        depth, uniforms, transition, sums = layers(q, args.repeats)
        sim_wall, sim_cpu, sums_wall, sums_cpu, ratio = whole_batch(q, args.repeats)
        print(
            f"{q:5g} {depth:5d} {uniforms:9.1f} {transition:10.1f} {sums:10.1f} "
            f"{sim_wall:8.3f} {sim_cpu:8.3f} {sums_wall:9.3f} {sums_cpu:8.3f} {walkers:7d} {ratio:7.3f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
