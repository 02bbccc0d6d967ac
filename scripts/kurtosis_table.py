"""Tabulate the scaled power-integral moments against the exponent r.

For Z = the normalized integral of s^r against the process, the second
and fourth moments have closed forms in (q, r); their ratio climbs from
the flat-case value 2 + q at r = 0 toward 2 + 3q as r grows.
"""

import argparse
import sys

from qbm.cli import write_kurtosis_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qs", default="0.2,0.5,0.8", help="comma-separated q values")
    parser.add_argument("--r-max", type=float, default=3.0, help="largest exponent")
    parser.add_argument("--steps", type=int, default=25, help="rows per q value")
    parser.add_argument("--out", default="-", help="output CSV path, - for stdout")
    args = parser.parse_args(argv)
    if not args.r_max >= 0:
        parser.error("--r-max must be >= 0")
    if args.steps < 1:
        parser.error("--steps must be >= 1")

    qs = [float(part) for part in args.qs.split(",") if part.strip()]
    rs = [args.r_max * i / (args.steps - 1) if args.steps > 1 else 0.0 for i in range(args.steps)]
    fh = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        write_kurtosis_table(fh, qs, rs)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
