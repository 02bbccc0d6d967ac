"""Set-up of one workload: imports plus the CDF tables it needs.

Run as a script it performs one set-up in a fresh interpreter and prints
{"setup_s": ...}; the benchmark takes several such samples per run and
reports their median.  The clock starts before numpy and qbm are imported
and stops once the tables are built; the workload's other caches are filled
afterwards, untimed (see run.py).

Tables are warmed through the library's own call form, a one-path
simulate_batch per q, because lru_cache keys on how arguments are passed:
a bare scaled_transition_table(q) would miss the entry simulate_batch uses.

    python3 perfbench/warm.py --workload pathwise
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def setup(name: str, trace: bool = False, overrides=None, n_paths=None):
    """Import, build the workload and its tables.

    Returns (seconds, workload, tracer or None).  With trace, the table
    builds are already recorded as spans.
    """
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qbm

    if Path(qbm.__file__).resolve().parent != SRC / "qbm":
        raise ImportError(f"qbm imported from {qbm.__file__}, not from {SRC}")
    import tracing
    import workloads

    wl = workloads.make(name, tracing.library(overrides=overrides), str(OUT), n_paths)
    tracer = tracing.Tracer() if trace else None
    with tracing.routed(wl, tracer, overrides):
        wl.warm_tables()
    return time.perf_counter() - start, wl, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one timed set-up of a benchmark workload")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    seconds = setup(args.workload)[0]
    print(json.dumps({"setup_s": seconds}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
