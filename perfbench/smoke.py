"""Smoke test of the benchmark itself, at a small size (about a minute).

    python3 perfbench/smoke.py

Checks, for every workload:
  * an untraced run reports exactly the end-to-end metrics of BENCHMARK.json,
    with their units, plus run_s, ops and fail_frac, and passes its oracles;
  * a traced run reports exactly the per-layer metrics, with their units,
    and two traced runs on one seed give identical counts;
  * an injected oracle mismatch shows up in fail_frac and makes the run
    incorrect.
Exits 0 when all hold and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import sys

import run

SEED = 3
N_PATHS = 2000  # small mc-batch ops; the oracles and the z gate are unchanged
COUNTS = (
    "measures.table_builds",
    "measures.integrate_calls",
    "measures.quad_nodes_per_call",
    "qito.delta_numeric_calls",
    "qhermite.growth_constant_calls",
    "process.calls",
)


def _injections() -> dict:
    """One wrong oracle per workload, by library entry point."""
    from qbm.qhermite import QPolynomial
    from qbm.qito import nabla_exact
    from qbm.verify import oracle_EZ2

    return {
        "mc-batch": {"oracle_EZ2": lambda r, q: 2.0 * oracle_EZ2(r, q)},
        "quadrature": {"nabla_exact": lambda f, ctx: nabla_exact(f, ctx) + QPolynomial.x_power(0, 1.0)},
        "pathwise": {"ito_tail_bound": lambda f, grid, ctx: 0.0},
    }


def _units(record: dict, group: str = "metrics") -> dict:
    return {k: m["unit"] for k, m in record[group].items()}


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    run.pin_threads()
    errors = []
    for name in run.WORKLOADS:
        small = {"setup_samples": 1, "n_paths": N_PATHS}
        plain = run.measure(name, SEED, 0.01, False, **small)
        if _units(plain) != e2e:
            errors.append(f"{name}: end-to-end metrics {_units(plain)} != {e2e}")
        missing = {"run_s", "ops", "fail_frac"} - set(plain["extra"])
        if name != "quadrature":
            missing |= {"paths_per_s"} - set(plain["extra"])
        if missing:
            errors.append(f"{name}: missing {sorted(missing)}")
        if not plain["correct"]:
            errors.append(f"{name}: untraced run incorrect: {plain['problems']} failed={plain['failed']}")

        traced = [run.measure(name, SEED, 0.01, True, **small) for _ in range(2)]
        if _units(traced[0]) != layers:
            errors.append(f"{name}: per-layer metrics {_units(traced[0])} != {layers}")
        for key in COUNTS:
            a, b = (r["metrics"][key]["value"] for r in traced)
            if a != b:
                errors.append(f"{name}: count {key} differs across two runs on one seed: {a} != {b}")
        if not all(r["correct"] for r in traced):
            errors.append(f"{name}: traced run incorrect: {[r['problems'] for r in traced]}")

        bad = run.measure(name, SEED, 0.01, False, overrides=_injections()[name], **small)
        frac = bad["extra"]["fail_frac"]["value"]
        if not frac > 0 or bad["correct"]:
            errors.append(f"{name}: injected oracle mismatch not caught (fail_frac={frac})")
        print(f"{name}: fail_frac {plain['extra']['fail_frac']['value']} clean, {frac} injected")
    for error in errors:
        print("FAIL " + error)
    print("smoke: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
