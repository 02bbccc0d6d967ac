"""Time the sampler's CDF-table builds and report their normalisation defects.

    python scripts/table_build.py --q 0.5 0.8 0.99

For each q this builds the unit-time marginal table and the scaled one-step
transition table that simulate_batch draws from, and prints one line per
table: its build time in seconds, its row count, the bytes of its cdf, pdf
and guide arrays, and its defect, the largest |mass - 1| of its rows before
normalisation (a build fails above NORM_TOL).  Every table is built afresh,
also when a q repeats.
"""

import argparse
import sys
import time

from qbm.measures import NORM_TOL, InvalidDensityError, scaled_marginal_table, scaled_transition_table

TABLES = (("marginal", scaled_marginal_table), ("transition", scaled_transition_table))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--q", type=float, nargs="+", required=True, help="deformation parameters in (0, 1)")
    args = parser.parse_args(argv)
    if not all(0.0 < q < 1.0 for q in args.q):
        parser.error("every --q must lie in (0, 1)")

    print(f"# normalisation gate NORM_TOL = {NORM_TOL:.1e}")
    for q in args.q:
        for name, build in TABLES:
            start = time.perf_counter()
            try:
                # the uncached builder: a repeated q is timed again
                table = build.__wrapped__(q)
            except InvalidDensityError as err:
                print(f"q={q} {name}: {err}", file=sys.stderr)
                return 1
            seconds = time.perf_counter() - start
            rows = table.cdf.shape[0]
            sizes = f"cdf {table.cdf.nbytes:8d} B  pdf {table.pdf.nbytes:8d} B  guide {table.guide.nbytes:8d} B"
            print(f"q={q:<6g} {name:<10} {seconds:7.3f} s {rows:4d} rows  {sizes}  defect {table.defect:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
