"""qbm benchmark: three seeded closed-loop workloads over the public API.

    python3 perfbench/run.py --workload mc-batch|quadrature|pathwise \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src and
nothing under src/ is changed.  Workloads (see workloads.py):

  mc-batch    1e5-path batches at q = 0.5, 0.8 with MC isometry and
              power-integral checks: long-vector sampler throughput.
  quadrature  oracle checks of densities and the numeric chain-rule
              operators at q = 0.2, 0.5, 0.8: adaptive quadrature.
  pathwise    the identity suite, one CLI simulate run, then single-path
              change-of-variable, by-parts and SDE checks on grids of depth
              20-80, as in `qbm --suite all`: per-call overhead.

--trace 0 measures end to end with tracing off.  Set-up (imports and the CDF
tables) is done several times, in fresh interpreters and in this process,
and its median is setup_s.  The workload's other caches are then filled
untimed, and the timed phase issues ops until --seconds have passed and the
ops done form whole cycles of the workload's op kinds.

--trace 1 makes the same untraced timed phase, then replays its first ops
with every module boundary traced (tracing.py) and reports per-layer
metrics.  The replay covers a fixed number of ops, so its counts repeat
exactly for a seed; its results must equal the untraced ones.

Every metric is printed as "name value unit"; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding the metrics
named in BENCHMARK.json.  A result file with the environment goes to
perfbench/out/.  The run exits non-zero without a result if qbm cannot be
imported from ./src.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import warm  # noqa: E402  (stdlib only at import time)

WORKLOADS = ("mc-batch", "quadrature", "pathwise")
#: set-up samples per run: at least SETUP_SAMPLES, and more, up to
#: MAX_SETUP_SAMPLES, while they add up to less than SETUP_BUDGET_S (a set-up
#: that only imports takes about 0.15 s and varies by a quarter between runs)
SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 9
SETUP_BUDGET_S = 3.0
#: ops of the untraced phase that the traced phase replays: whole cycles, and
#: for pathwise its identity, CLI and 48 path ops
TRACE_OPS = {"mc-batch": 2, "quadrature": 60, "pathwise": 52}
#: one BLAS thread: the workloads issue one op at a time, and the machine has
#: few cores (the count is recorded with every result)
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_setup(name: str) -> float:
    """One set-up in a fresh interpreter, as every CLI run pays it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "warm.py"), "--workload", name],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}):\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_phase(wl, seed: int, *, seconds: float | None = None, n_ops: int | None = None, tracer=None):
    """Issue ops until `seconds` have passed at a cycle boundary, or `n_ops` ops.

    Returns the ops as (kind, seconds, ok, result, paths) and the elapsed
    time at the end of each op.
    """
    runners = {kind: wl.run if tracer is None else tracer.wrap(wl.run, "op", kind) for kind in wl.kinds}
    ops, ends = [], []
    start = time.perf_counter()
    while True:
        index = len(ops)
        kind = wl.kind(index)
        inp = wl.inputs(seed, index)
        t0 = time.perf_counter()
        try:
            ok, result, paths = runners[kind](inp)
        except Exception:  # the op counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            ok, result, paths = False, None, 0
        ops.append((kind, time.perf_counter() - t0, bool(ok), result, paths))
        ends.append(time.perf_counter() - start)
        if n_ops is not None:
            if len(ops) >= n_ops:
                return ops, ends
        elif ends[-1] >= seconds and wl.at_boundary(len(ops)):
            return ops, ends


def _counters(wl) -> tuple[int, int, int]:
    """The workload's own counts: quadrature nodes, its integrate calls, CLI bytes."""
    return getattr(wl, "nodes", 0), getattr(wl, "integrate_calls", 0), getattr(wl, "bytes_written", 0)


def layer_metrics(tracer, first: int, table_hits: int, own: tuple[int, int, int], overhead_s: float) -> dict:
    """Per-layer metrics over the replay's spans, tracer.spans[first:].

    Table build time also counts the set-up's spans, where the builds happen.
    own holds the workload's own counts over the replay (see _counters).
    """
    import tracing
    import workloads

    by_name, self_s = tracing.summarize(tracer.spans, first)
    all_names, _ = tracing.summarize(tracer.spans)

    def secs(*labels, names=by_name):
        return sum(names.get(label, (0, 0.0))[1] for label in labels)

    def calls(*labels):
        return sum(by_name.get(label, (0, 0.0))[0] for label in labels)

    builds, _ = workloads.table_cache_info()
    nodes, quad_calls, bytes_written = own
    tables = ("measures.scaled_marginal_table", "measures.scaled_transition_table")
    draws = ("measures.draw_from_table", "measures.draw_transition_batch")
    return {
        "process.self_s": (self_s.get("process", 0.0), "s"),
        "process.calls": (calls("process.simulate_batch", "process.simulate_path"), "count"),
        "measures.table_build_s": (secs(*tables, names=all_names), "s"),
        "measures.table_builds": (builds, "count"),
        "measures.table_hits": (table_hits, "count"),
        "measures.draw_s": (secs(*draws), "s"),
        "measures.draw_calls": (calls(*draws), "count"),
        "measures.integrate_s": (secs("measures.integrate"), "s"),
        "measures.integrate_calls": (calls("measures.integrate"), "count"),
        "measures.quad_nodes_per_call": (nodes / quad_calls if quad_calls else 0.0, "nodes/call"),
        "measures.density_s": (secs("measures.transition_density"), "s"),
        "qito.delta_numeric_s": (secs("qito.delta_numeric"), "s"),
        "qito.delta_numeric_calls": (calls("qito.delta_numeric"), "count"),
        "qito.nabla_numeric_s": (secs("qito.nabla_numeric"), "s"),
        "qito.decompose_s": (secs("qito.ito_decompose"), "s"),
        "qito.tail_bound_s": (secs("qito.ito_tail_bound"), "s"),
        "qhermite.basis_s": (secs("qhermite.to_hermite_basis"), "s"),
        "qhermite.growth_constant_s": (secs("qhermite.growth_constant"), "s"),
        "qhermite.growth_constant_calls": (calls("qhermite.growth_constant"), "count"),
        "qcore.self_s": (self_s.get("qcore", 0.0), "s"),
        "stochint.def_batch_s": (secs("stochint.integrate_def_batch"), "s"),
        "stochint.def_s": (secs("stochint.integrate_def", "stochint.integrate_byparts"), "s"),
        "stochint.sde_s": (secs("stochint.sde_residual"), "s"),
        "verify.identity_s": (secs("verify.run_identity_suite"), "s"),
        "cli.main_s": (secs("cli.main"), "s"),
        "cli.bytes_written": (bytes_written, "B"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, *, setup_samples: int = SETUP_SAMPLES,
            n_paths: int | None = None, overrides: dict | None = None) -> dict:
    """One benchmark run; returns the result record (see module docstring)."""
    warm.OUT.mkdir(parents=True, exist_ok=True)
    setup_s, wl, tracer = warm.setup(name, trace=trace, overrides=overrides, n_paths=n_paths)
    samples = [setup_s]
    while not trace and len(samples) < MAX_SETUP_SAMPLES and (
        len(samples) < setup_samples or sum(samples) < SETUP_BUDGET_S
    ):
        samples.append(child_setup(name))
    import tracing
    import workloads

    with tracing.routed(wl, tracer, overrides):
        wl.warm()
    builds_before, _ = workloads.table_cache_info()
    ops, ends = run_phase(wl, seed, seconds=seconds)
    builds_after, hits_before = workloads.table_cache_info()
    problems = []
    if builds_after != builds_before:
        problems.append(f"table cache built {builds_after - builds_before} table(s) during the timed phase")

    run_s = ends[-1]
    latencies = [op[1] for op in ops]
    failed = sum(not op[2] for op in ops)
    paths = sum(op[4] for op in ops)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "ops_per_s": (len(ops) / run_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {"run_s": (run_s, "s"), "ops": (len(ops), "count"), "fail_frac": (failed / len(ops), "1")}
    if paths:
        extra["paths_per_s"] = (paths / run_s, "1/s")
    if len(ops) >= 100:  # at least ten samples beyond p90
        extra["op_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        extra["op_p90_ms"] = (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms")

    if trace:
        n_ops = min(len(ops), TRACE_OPS[name])
        before = _counters(wl)
        first = len(tracer.spans)
        with tracing.routed(wl, tracer, overrides):
            replay, replay_ends = run_phase(wl, seed, n_ops=n_ops, tracer=tracer)
        builds_end, hits_end = workloads.table_cache_info()
        if builds_end != builds_after:
            problems.append("table cache built a table during the traced phase")
        own = tuple(b - a for a, b in zip(before, _counters(wl)))
        mismatched = sum(repr(a[2:4]) != repr(b[2:4]) for a, b in zip(ops[:n_ops], replay))
        if mismatched:
            problems.append(f"{mismatched} traced op result(s) differ from the untraced run")
        failed += mismatched + sum(not op[2] for op in replay)
        metrics = layer_metrics(tracer, first, hits_end - hits_before, own, replay_ends[-1] - ends[n_ops - 1])
        extra["trace_ops"] = (n_ops, "count")
        extra["spans"] = (len(tracer.spans) - first, "count")
        tracer.write_csv(warm.OUT / f"spans-{name}-seed{seed}.csv")

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "setup_samples_s": samples,
        "problems": problems,
        "correct": failed == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    with open(warm.OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qbm benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (warm.SRC / "qbm" / "__init__.py").is_file():
        print(f"qbm sources not found under {warm.SRC}", file=sys.stderr)
        return 2
    pin_threads()
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["problems"]:
        print("problem " + problem)
    for group in ("metrics", "extra"):
        for key, m in record[group].items():
            print(f"{key} {m['value']!r} {m['unit']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
