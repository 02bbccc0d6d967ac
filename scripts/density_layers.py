"""Time the density and quadrature layers that the oracle checks call.

    python scripts/density_layers.py [--repeats 21] [--q 0.2 0.5 0.8]

For each q this times one transition_density point (one node of a
Chapman-Kolmogorov second leg: a float state and a one-element target), one
63-node level of the angle-variable density (the first trapezoid level of
integrate, measures._theta_density), and six integrate calls on one
transition spec, the moments y**1..y**6: cold, with the spec's density
levels dropped first (measures._theta_levels), and warm, with them kept
from an earlier call.  It prints the median of --repeats timings of each,
in microseconds, with the number of cores the process may run on and the
NumPy version.
"""

import argparse
import os
import statistics
import time

import numpy as np

from qbm import measures
from qbm.measures import integrate, support_halfwidth, transition_density, transition_spec
from qbm.qcore import QContext


def median_us(call, repeats: int) -> float:
    """Median wall time of call() over repeats calls, in microseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def layers(q: float, repeats: int) -> tuple[float, float, float, float]:
    """(one point, one level, six integrate calls cold, warm) at q, in
    microseconds.  The states are fixed fractions of the supports, inside
    the quadrature suite's range s/t <= 1/2."""
    ctx = QContext.numeric(q)
    x, target = 0.3 * support_halfwidth(0.5, q), np.array([0.4 * support_halfwidth(1.0, q)])
    point = median_us(lambda: transition_density(x, 0.5, 1.0, target, ctx), repeats)
    spec = transition_spec(ctx, s=0.25, t=1.0, x=-0.5 * support_halfwidth(0.25, q))
    thetas = measures._trapezoid_nodes(64)[0]
    level = median_us(lambda: measures._theta_density(spec, thetas), repeats)

    def moments():
        for n in range(1, 7):
            integrate(lambda y, n=n: y**n, spec)

    def cold():
        measures._theta_levels.cache_clear()
        moments()

    cold_us = median_us(cold, repeats)
    moments()
    return point, level, cold_us, median_us(moments, repeats)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=21, help="timed calls of each layer")
    parser.add_argument("--q", type=float, nargs="+", default=[0.2, 0.5, 0.8], help="deformation parameters in (0, 1)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not all(0.0 < q < 1.0 for q in args.q):
        parser.error("every --q must lie in (0, 1)")

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# nproc {nproc}, numpy {np.__version__}, median of {args.repeats} call(s), us")
    print(f"{'q':>5} {'point':>8} {'level':>8} {'6 cold':>9} {'6 warm':>9}")
    for q in args.q:
        point, level, cold, warm = layers(q, args.repeats)
        print(f"{q:5g} {point:8.1f} {level:8.1f} {cold:9.1f} {warm:9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
