"""Time the sampler's inverse-CDF table builds and report their sizes and errors.

    python scripts/table_build.py --q 0.2 0.5 0.8 0.95 0.99

For each q this builds the unit-time marginal table and the scaled one-step
transition table that simulate_batch draws from, and prints one line per
table: its build time in seconds, to 0.1 ms (a marginal build takes about
1 ms), as wall time and as the process's CPU time (above the wall time
where BLAS runs extra threads), its row count, the bytes of its cubic
coefficients (and of the transition table's blend_loss), its u-error, the
largest |F(y(u)) - u| between knots (a build fails above U_TOL), and its
defect, the largest |mass - 1| of its rows before normalisation (a build
fails above NORM_TOL).  Every table is built afresh, also when a q repeats.
"""

import argparse
import sys
import time

from qbm.measures import NORM_TOL, U_TOL, InvalidDensityError, scaled_marginal_table, scaled_transition_table

TABLES = (("marginal", scaled_marginal_table), ("transition", scaled_transition_table))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--q", type=float, nargs="+", required=True, help="deformation parameters in (0, 1)")
    args = parser.parse_args(argv)
    if not all(0.0 < q < 1.0 for q in args.q):
        parser.error("every --q must lie in (0, 1)")

    print(f"# gates: u-error U_TOL = {U_TOL:.1e}, normalisation NORM_TOL = {NORM_TOL:.1e}")
    for q in args.q:
        for name, build in TABLES:
            start, cpu = time.perf_counter(), time.process_time()
            try:
                # the uncached builder: a repeated q is timed again
                table = build.__wrapped__(q)
            except InvalidDensityError as err:
                print(f"q={q} {name}: {err}", file=sys.stderr)
                return 1
            seconds, cpu = time.perf_counter() - start, time.process_time() - cpu
            rows = table.cubic.shape[0]
            loss = 0 if table.blend_loss is None else table.blend_loss.nbytes
            sizes = f"cubic {table.cubic.nbytes:8d} B  blend_loss {loss:5d} B"
            errors = f"u-error {table.u_error:.3e}  defect {table.defect:.3e}"
            times = f"{seconds:8.4f} s wall {cpu:8.4f} s cpu"
            print(f"q={q:<6g} {name:<10} {times} {rows:4d} rows  {sizes}  {errors}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
