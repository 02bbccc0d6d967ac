"""Benchmark a base commit against the working tree in alternating pairs.

    python scripts/bench_pairs.py --base REV --workload mc-batch \\
        --first-seed 52001 --pairs 10 --seconds 10 [--suite-runs 3] \\
        [--note TEXT] [--out BENCH_1.json]

Both trees run from fresh copies in one temporary directory, which is
removed afterwards, also on failure: the base commit's files as local git
archives them, and the working tree's files as they are on disk, tracked
ones and untracked ones that are not ignored (so neither tree runs beside
.hypothesis/, .pytest_cache/ or perfbench/out/).  Pair i runs

    python3 perfbench/run.py --workload W --seed N --seconds S

unchanged, with seed N = first-seed + i, once in each tree; even pairs run
the base first, odd pairs the working tree first.  --suite-runs M then
times M alternating runs of `qbm --suite all` per tree, each in a fresh
interpreter.  Every run's wall time, CPU time (user + system, its own
interpreter and the children it waited for) and peak RSS are recorded.

One entry is appended to the --out JSON list: per end-to-end metric of
BENCHMARK.json, each tree's runs, median and quartiles and the pairs the
working tree won; the core counts, Python and NumPy versions and seeds; and
the line count of every src/qbm/*.py file in both trees.  A summary is
printed.  Exits 1 if a run fails or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The files of commit rev, as git archive writes them, under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:  # Python 3.10 before 3.10.12 and 3.11 before 3.11.4
            archive.extractall(dest)


def copy_worktree(dest: Path) -> None:
    """The working tree's files as they are on disk under dest: the tracked
    ones and the untracked ones that are not ignored."""
    names = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"], cwd=ROOT, capture_output=True, check=True
    ).stdout
    for name in filter(None, names.split(b"\0")):
        src, target = ROOT / os.fsdecode(name), dest / os.fsdecode(name)
        if os.path.isfile(src):  # a tracked file deleted on disk is left out
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


@contextlib.contextmanager
def trees(base_sha: str):
    """(work, {"base": ..., "change": ...}): a temporary directory holding
    the base commit's files and a copy of the working tree, removed on
    exit, also on failure."""
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        paths = {"base": work / "base", "change": work / "change"}
        extract(base_sha, paths["base"])
        copy_worktree(paths["change"])
        yield work, paths
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed(cmd: list[str], cwd: Path, env: dict | None = None) -> dict:
    """Run cmd to its end: its exit code, output (stdout and stderr), wall
    and CPU seconds and peak RSS in MB, from the child's own resource use."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
    return {
        "code": proc.returncode,
        "output": text,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "max_rss_mb": usage.ru_maxrss / 1024.0,
    }


def perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    run = timed(cmd, tree)
    lines = run["output"].strip().splitlines()
    result = json.loads(lines[-1]) if run["code"] == 0 and lines and lines[-1].startswith("{") else None
    if result is None or not result["correct"]:
        raise RuntimeError(f"{tree}: seed {seed} failed or is incorrect:\n{run['output']}")
    return {
        "seed": seed,
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wall_s": run["wall_s"],
        "cpu_s": run["cpu_s"],
    }


def suite_all(tree: Path, work: Path) -> dict:
    out = work / "suite-out"
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    run = timed([sys.executable, "-m", "qbm", "--suite", "all", "--out", str(out)], work, env)
    if run["code"] != 0:
        raise RuntimeError(f"{tree}: qbm --suite all exited {run['code']}:\n{run['output']}")
    return {k: run[k] for k in ("wall_s", "cpu_s", "max_rss_mb")}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(base: list[float], change: list[float], better: str) -> dict:
    wins = sum((c > b) if better == "higher" else (c < b) for b, c in zip(base, change))
    b, c = spread(base), spread(change)
    return {
        "better": better,
        "base": {"runs": base, **b},
        "change": {"runs": change, **c},
        "change_pct": 100.0 * (c["median"] / b["median"] - 1.0) if b["median"] else None,
        "pairs_won": wins,
        "pairs": len(base),
    }


def src_lines(tree: Path) -> dict:
    """wc -l of every src/qbm/*.py file, and their total."""
    counts = {p.name: p.read_bytes().count(b"\n") for p in sorted((tree / "src" / "qbm").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="commit to compare the working tree against")
    parser.add_argument("--workload", required=True, choices=("mc-batch", "quadrature", "pathwise"))
    parser.add_argument("--first-seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs of perfbench runs")
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds")
    parser.add_argument("--suite-runs", type=int, default=0, help="alternating qbm --suite all runs per tree")
    parser.add_argument("--note", default="", help="free text stored with the entry")
    parser.add_argument("--out", default=str(ROOT / "BENCH_1.json"), help="JSON list the entry is appended to")
    args = parser.parse_args(argv)
    if args.first_seed < 0 or args.pairs < 1 or not args.seconds > 0 or args.suite_runs < 0:
        parser.error("need --first-seed >= 0, --pairs >= 1, --seconds > 0 and --suite-runs >= 0")

    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    runs: dict[str, list] = {"base": [], "change": []}
    suite: dict[str, list] = {"base": [], "change": []}
    with trees(base_sha) as (work, paths):
        for i, seed in enumerate(seeds):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                runs[side].append(perfbench(paths[side], args.workload, seed, args.seconds))
                print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: {runs[side][-1]['metrics']}", flush=True)
        for i in range(args.suite_runs):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                suite[side].append(suite_all(paths[side], work))
        lines = {side: src_lines(tree) for side, tree in paths.items()}

    metrics = {
        m["name"]: compare(*([r["metrics"][m["name"]] for r in runs[side]] for side in ("base", "change")), m["better"])
        for m in spec["end_to_end"]
    }
    for key in ("wall_s", "cpu_s"):
        metrics[f"run.{key}"] = compare(*([r[key] for r in runs[side]] for side in ("base", "change")), "lower")
    if args.suite_runs:
        for key in ("wall_s", "cpu_s", "max_rss_mb"):
            metrics[f"suite_all.{key}"] = compare(*([r[key] for r in suite[side]] for side in ("base", "change")), "lower")
    entry = {
        "base": base_sha,
        "change": {"head": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": seeds,
        "order": "even pairs base first, odd pairs change first",
        "trees": "both run from fresh copies in one temporary directory: the base as git archive writes it, "
        "the working tree's tracked and unignored untracked files as on disk",
        "suite_runs": args.suite_runs,
        "note": args.note,
        "environment": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "metrics": metrics,
        "ops": {side: [[r["attempted"], r["failed"]] for r in runs[side]] for side in runs},
        "src_lines": lines,
    }
    out = Path(args.out)
    entries = json.loads(out.read_text(encoding="utf-8")) if out.exists() else []
    entries.append(entry)
    out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload}, {args.pairs} pair(s), seeds {seeds[0]}-{seeds[-1]}, base {base_sha[:10]}, "
          f"{entry['environment']['cpus_usable']} usable CPU(s); median [q1, q3], base -> change")
    for name, m in metrics.items():
        b, c = m["base"], m["change"]
        pct = "" if m["change_pct"] is None else f" ({m['change_pct']:+.1f}%)"
        print(f"{name:>20} {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}] -> "
              f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]{pct}, {m['pairs_won']}/{m['pairs']} pairs won")
    print(f"# src lines {lines['base']['total']} -> {lines['change']['total']}; entry {len(entries)} of {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
