"""Emit plot-ready marginal density curves across q.

Each row is (q, t, y, density); the support halfwidth scales like
2 sqrt(t / (1 - q)), so curves flatten and widen as q grows.
"""

import argparse
import sys

from qbm.cli import write_density_curves


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qs", default="0.2,0.5,0.8", help="comma-separated q values")
    parser.add_argument("--t", type=float, default=1.0, help="time horizon")
    parser.add_argument("--points", type=int, default=201, help="samples per curve")
    parser.add_argument("--out", default="-", help="output CSV path, - for stdout")
    args = parser.parse_args(argv)

    qs = [float(part) for part in args.qs.split(",") if part.strip()]
    fh = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        write_density_curves(fh, qs, args.t, args.points)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
