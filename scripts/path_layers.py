"""Time the single-path calls of one pathwise check, call by call.

    python scripts/path_layers.py [--repeats 201] [--q 0.5 0.8] [--depth 20 40 80]

One pathwise check (qbm --suite all's convergence suite, and the pathwise
benchmark op) simulates a path and then runs four sums along it.  For each
(q, depth) this takes --repeats fresh paths, each with a fresh random
degree-6 polynomial f (degree 2 in t), and times, in the check's order:
f's derived forms (forms: its q-Hermite coefficients, its time q-derivative
and delta_exact, which the decomposition reads), simulate_path,
ito_decompose of f, integrate_def and integrate_byparts of f's integrand
(built first and not timed) and sde_residual(0.5, 2.0, degree=30).  What
one call keeps for a later call on the same path or integrand is kept as in
the check, and one untimed check per (q, depth) first builds what every
check shares: the sampling tables and the series integrand of sde_residual.
It prints the median time of each call, in microseconds, with the number of
cores the process may run on and the NumPy version.
"""

import argparse
import os
import statistics
import time

import numpy as np

from qbm.process import GeometricGrid, simulate_path
from qbm.qcore import Poly, QContext
from qbm.qhermite import QPolynomial, to_hermite_basis
from qbm.qito import delta_exact, ito_decompose
from qbm.stochint import PolynomialIntegrand, integrate_byparts, integrate_def, sde_residual

CALLS = ("forms", "simulate", "ito", "def", "byparts", "sde")


def timed(call):
    """(call(), its wall time in seconds)."""
    start = time.perf_counter()
    out = call()
    return out, time.perf_counter() - start


def layers(q: float, depth: int, repeats: int) -> list[float]:
    """Median microseconds per call of each of CALLS at (q, depth)."""
    ctx = QContext.numeric(q)
    grid = GeometricGrid.build(q=q, t=1.0, depth=depth)
    rng = np.random.default_rng(depth + int(1000 * q))
    times: list[list[float]] = [[] for _ in CALLS]
    for i in range(-1, repeats):
        f = QPolynomial(tuple(Poly(rng.uniform(-1.0, 1.0, size=3).tolist()) for _ in range(7)))
        forms = timed(lambda: (to_hermite_basis(f, ctx), f.dq_time(ctx), delta_exact(f, ctx)))[1]
        integrand = PolynomialIntegrand.from_qpolynomial(f, ctx)
        path, dt = timed(lambda: simulate_path(grid, 1000 + i, ctx))
        calls = (
            forms,
            dt,
            timed(lambda: ito_decompose(f, path, ctx))[1],
            timed(lambda: integrate_def(integrand, path, ctx))[1],
            timed(lambda: integrate_byparts(integrand, path, ctx))[1],
            timed(lambda: sde_residual(0.5, 2.0, path, ctx, degree=30))[1],
        )
        if i >= 0:
            for column, seconds in zip(times, calls):
                column.append(seconds)
    return [1e6 * statistics.median(column) for column in times]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=201, help="fresh paths per (q, depth)")
    parser.add_argument("--q", type=float, nargs="+", default=[0.5, 0.8], help="deformation parameters in (0, 1)")
    parser.add_argument("--depth", type=int, nargs="+", default=[20, 40, 80], help="grid depths, at least 1")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not all(0.0 < q < 1.0 for q in args.q):
        parser.error("every --q must lie in (0, 1)")
    if not all(depth >= 1 for depth in args.depth):
        parser.error("every --depth must be >= 1")

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# nproc {nproc}, numpy {np.__version__}, median of {args.repeats} call(s), us")
    print(f"{'q':>5} {'depth':>5}" + "".join(f" {name:>9}" for name in CALLS))
    for q in args.q:
        for depth in args.depth:
            print(f"{q:5g} {depth:5d}" + "".join(f" {us:9.1f}" for us in layers(q, depth, args.repeats)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
