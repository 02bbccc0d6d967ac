"""Time the density and quadrature layers that the oracle checks call.

    python scripts/density_layers.py [--repeats 21] [--q 0.2 0.5 0.8]

For each q this times one transition_density point (one node of a
Chapman-Kolmogorov second leg: a float state and a one-element target), one
63-node level of the angle-variable density (the first trapezoid level of
integrate) by the streaming kernel (measures._theta_density, as table
builds evaluate it) and through the levels' memo (measures._level_density
on measures._angle_level, as integrate reads it), six integrate calls on
one transition spec, the moments y**1..y**6, and one nested delta_numeric
call on a degree-6 polynomial (at q <= 0.95 only: above that its nested
form needs 2048 or more intervals, or does not converge by 4096, and the
columns show "-").  The memo level and the last two are timed cold and
warm.  The cold memo level forms the level's terms first; the cold moments
run on a fresh spec, which holds no density levels yet; the cold
delta_numeric call runs with the inner leg's moments and the levels' memo
dropped first (qito._inner_moments, measures._angle_level).  The warm ones
reuse the memo, one spec and the moments kept from an earlier call.  It
prints the median of --repeats timings of each, in microseconds, with the
number of cores the process may run on and the NumPy version.
"""

import argparse
import os
import statistics
import time

import numpy as np

from qbm import measures, qito
from qbm.measures import integrate, support_halfwidth, transition_density, transition_spec
from qbm.qcore import QContext
from qbm.qhermite import QPolynomial


#: delta_numeric is timed up to this q (it converges by 1024 intervals there)
DELTA_MAX_Q = 0.95


def median_us(call, repeats: int) -> float:
    """Median wall time of call() over repeats calls, in microseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e6 * statistics.median(times)


def cold_warm(cold, warm, repeats: int) -> tuple[float, float]:
    """Median times of cold(), and of warm() after one untimed warm() call,
    in microseconds."""
    cold_us = median_us(cold, repeats)
    warm()
    return cold_us, median_us(warm, repeats)


def layers(q: float, repeats: int) -> tuple[float, ...]:
    """(one point, one streaming level, one memo level cold, warm, six
    integrate calls cold, warm, one delta_numeric cold, warm) at q, in
    microseconds, the last two None above DELTA_MAX_Q.
    The states are fixed fractions of the supports, inside the quadrature
    suite's range s/t <= 1/2."""
    ctx = QContext.numeric(q)
    x, target = 0.3 * support_halfwidth(0.5, q), np.array([0.4 * support_halfwidth(1.0, q)])
    point = median_us(lambda: transition_density(x, 0.5, 1.0, target, ctx), repeats)
    new_spec = lambda: transition_spec(ctx, s=0.25, t=1.0, x=-0.5 * support_halfwidth(0.25, q))
    spec = new_spec()
    thetas = measures._trapezoid_nodes(64)[0]
    level = median_us(lambda: measures._theta_density(spec, thetas), repeats)
    memo = lambda: measures._level_density(measures._angle_level(q, 64), [spec.x / spec.w], spec.s / spec.t, q)

    def memo_cold():
        measures._angle_level.cache_clear()
        memo()

    def moments(spec):
        for n in range(1, 7):
            integrate(lambda y, n=n: y**n, spec)

    f = QPolynomial.from_xt_terms({(n, n % 3): 1.0 / (n + 1) for n in range(7)})
    delta = lambda: qito.delta_numeric(f, 0.4 * support_halfwidth(q * 0.5, q), 0.5, ctx)

    def delta_cold():
        qito._inner_moments.cache_clear()
        measures._angle_level.cache_clear()
        delta()

    return (
        point,
        level,
        *cold_warm(memo_cold, memo, repeats),
        *cold_warm(lambda: moments(new_spec()), lambda: moments(spec), repeats),
        *(cold_warm(delta_cold, delta, repeats) if q <= DELTA_MAX_Q else (None, None)),
    )


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
    print(f"{'q':>5} {'point':>8} {'level':>8} {'m cold':>8} {'m warm':>8} {'6 cold':>9} {'6 warm':>9} {'d cold':>9} {'d warm':>9}")
    for q in args.q:
        point, level, memo_cold, memo_warm, *calls = layers(q, args.repeats)
        print(
            f"{q:5g} {point:8.1f} {level:8.1f} {memo_cold:8.1f} {memo_warm:8.1f}"
            + "".join(f" {'-' if us is None else f'{us:.1f}':>9}" for us in calls)
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
