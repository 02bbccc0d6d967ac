"""Print the chain-rule residual study as a small convergence table.

For random polynomial test functions on simulated paths, the boundary
residual |f(B_K, t_K) - f(0, 0)| must sit under the analytic tail bound
and its per-depth mean must shrink as the grid deepens.  The suite's wall
time, sampling-table builds included, goes to stderr.
"""

import argparse
import sys
import time

from qbm.verify import run_convergence_suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qs", default="0.5,0.8", help="comma-separated q values")
    parser.add_argument("--depths", default="20,40,80", help="comma-separated grid depths")
    parser.add_argument("--paths", type=int, default=20, help="paths per polynomial")
    parser.add_argument("--polys", type=int, default=20, help="random polynomials per q")
    parser.add_argument("--seed", type=int, default=11, help="base seed")
    args = parser.parse_args(argv)

    try:
        qs = tuple(float(part) for part in args.qs.split(",") if part.strip())
        depths = tuple(int(part) for part in args.depths.split(",") if part.strip())
        start = time.perf_counter()
        reports = run_convergence_suite(
            qs=qs,
            depths=depths,
            n_paths=args.paths,
            n_polys=args.polys,
            seed=args.seed,
            only={"ito-convergence"},
        )
    except ValueError as exc:
        parser.error(str(exc))
    print(f"convergence suite wall time: {time.perf_counter() - start:.3f} s", file=sys.stderr)

    status = 0
    for rep in reports:
        means = rep.params["mean_residuals"]
        print(f"q={rep.params['q']}  worst residual/bound={rep.params['worst_bound_ratio']:.3g}")
        for depth, mean in zip(depths, means):
            print(f"  K={depth:>3}  mean residual={mean:.6e}")
        print(f"  {'PASS' if rep.passed else 'FAIL'}")
        if not rep.passed:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
