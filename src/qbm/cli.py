"""Command-line front end: identity suites, simulation, MC verification.

Usage:
    qbm --suite identities [--only wdw,bdb] [--out DIR] [--format json|csv]
    qbm --suite simulate --q 0.5 --t 1.0 --paths 4 --seed 7 [--wide]
    qbm --suite verify --paths 100000 --seed 2024
    qbm --suite all

Settings come from flags, then a key=value config file (--config), then the
QBM_SEED environment variable for the seed, then defaults.  Every run writes
manifest.json (config echo, seed, build identifier) into the output
directory; reruns with the same settings and build produce byte-identical
files.  Exit codes: 0 success, 1 verification failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__, verify
from .measures import InvalidDensityError, qgauss_density, support_halfwidth
from .process import SEED_LIMIT, GeometricGrid, _csv_rows, simulate_batch, write_batch_csv
from .qcore import QContext
from .verify import (
    kurtosis_ratio,
    oracle_EZ2,
    oracle_EZ4,
    reports_to_csv,
    run_convergence_suite,
    run_identity_suite,
    run_mc_suite,
    run_quadrature_suite,
    selected_checks,
)

__all__ = [
    "RunConfig", "ConfigError", "main", "cmd_identities", "cmd_simulate", "cmd_verify",
    "write_density_curves", "write_kurtosis_table",
]

DEFAULT_SEED = 2024
#: paths simulate writes when --paths is not given (verify's: verify.MC_PATHS)
SIMULATE_PATHS = 4
PLOT_QS = (0.2, 0.5, 0.8)


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    """Parsed settings for one CLI run; echoed into the manifest."""

    suite: str = "all"
    q: float = 0.5
    t: float = 1.0
    depth: int | None = None
    paths: int | None = None
    seed: int = DEFAULT_SEED
    out: str = "qbm_out"
    format: str = "json"
    only: str | None = None
    wide: bool = False
    z_threshold: float = verify.Z_THRESHOLD

    def validate(self) -> None:
        if self.suite not in ("identities", "simulate", "verify", "all"):
            raise ConfigError(f"unknown suite {self.suite!r}")
        try:
            GeometricGrid.build(q=self.q, t=self.t, depth=self.depth)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.paths is not None and self.paths < 1:
            raise ConfigError(f"paths must be at least 1, got {self.paths}")
        if self.suite in ("verify", "all") and self.paths is not None and self.paths < 2:
            raise ConfigError(f"a Monte Carlo run needs at least 2 paths, got {self.paths}")
        span = self.seed_span()
        if not (0 <= self.seed and self.seed + span <= SEED_LIMIT):
            raise ConfigError(f"seed must lie in [0, 2**128 - {span}] for this run, got {self.seed}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if not self.z_threshold > 0.0:
            raise ConfigError(f"z-threshold must be positive, got {self.z_threshold}")
        try:
            selected_checks(self.only_set(), self.suite)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def seed_span(self) -> int:
        """How many consecutive path seeds, from self.seed on, the run uses."""
        span = 0
        if self.suite in ("simulate", "all"):
            span = self.paths if self.paths is not None else SIMULATE_PATHS
        if self.suite in ("verify", "all"):
            span = max(span, verify.seed_span(self.mc_paths()))
        return span

    def mc_paths(self) -> int:
        """Paths per Monte Carlo batch: --paths, or verify's default."""
        return self.paths if self.paths is not None else verify.MC_PATHS

    def only_set(self) -> set[str] | None:
        if self.only is None or self.only.strip() == "":
            return None
        return {part.strip() for part in self.only.split(",") if part.strip()}


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_value(key: str, text: str):
    text = text.strip()
    try:
        if key in ("depth", "paths", "seed"):
            return int(text)
        if key in ("q", "t", "z_threshold"):
            return float(text)
        if key == "wide":
            low = text.lower()
            if low in _BOOL_TRUE:
                return True
            if low in _BOOL_FALSE:
                return False
            raise ValueError(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {text!r}") from exc


def _read_config_file(path: str) -> dict:
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in {f.name for f in fields(RunConfig)}:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = _parse_value(key, value)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def build_config(argv: list[str] | None = None) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="qbm",
        description="Exact identity suites, path simulation, and Monte Carlo "
        "verification for q-Brownian motion calculus.",
    )
    parser.add_argument("--suite", choices=["identities", "simulate", "verify", "all"])
    parser.add_argument("--q", type=float, help="deformation parameter in (0, 1)")
    parser.add_argument("--t", type=float, help="time horizon")
    parser.add_argument("--depth", type=int, help="grid depth K (default: resolve from q)")
    parser.add_argument("--paths", type=int, help="number of simulated paths")
    parser.add_argument("--seed", type=int, help="base seed (fallback: QBM_SEED, then 2024)")
    parser.add_argument("--out", help="output directory (default qbm_out)")
    parser.add_argument("--format", choices=["json", "csv"], help="report file format")
    parser.add_argument("--only", help="comma-separated check names to run")
    parser.add_argument("--config", help="key=value config file; flags take precedence")
    parser.add_argument("--wide", action="store_true", default=None,
                        help="simulate: one wide CSV instead of per-path files")
    parser.add_argument("--z-threshold", type=float, dest="z_threshold",
                        help=f"MC pass threshold on |z| (default {verify.Z_THRESHOLD:g})")
    args = parser.parse_args(argv)

    settings: dict = {}
    env_seed = os.environ.get("QBM_SEED")
    if env_seed is not None:
        try:
            settings["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"QBM_SEED must be an integer, got {env_seed!r}") from exc
    if args.config is not None:
        settings.update(_read_config_file(args.config))
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            settings[f.name] = value
    config = RunConfig(**settings)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _write_json(path: str, payload) -> None:
    """Write payload to path as JSON, indented, keys sorted, newline-ended."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(config: RunConfig, out_dir: str) -> None:
    manifest = {
        "build": f"qbm {__version__}",
        "config": asdict(config),
        "seed": config.seed,
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _write_reports(reports, config: RunConfig, out_dir: str, stem: str) -> None:
    if config.format == "csv":
        with open(os.path.join(out_dir, stem + ".csv"), "w", encoding="utf-8") as fh:
            fh.write(reports_to_csv(reports))
    else:
        _write_json(os.path.join(out_dir, stem + ".json"), [r.to_json_dict() for r in reports])


def _summarize(reports, label: str) -> int:
    failures = [r for r in reports if not r.passed]
    for r in failures:
        detail = f"residual={r.residual!r}" if r.estimate is None else f"z={r.estimate.z:+.3f}"
        print(f"FAIL {r.name} {json.dumps(r.params, sort_keys=True, default=str)} {detail}")
    print(f"{label}: {len(reports) - len(failures)}/{len(reports)} checks passed")
    return 1 if failures else 0


def write_density_curves(fh, qs, t: float, points: int) -> None:
    """Plot-ready marginal density curves: one row (q, t, y, density) at each
    of points equally spaced y across the support, for every q, through
    process._csv_rows."""
    rows = _csv_rows(fh)
    rows.writerow(["q", "t", "y", "density"])
    for q in qs:
        ctx = QContext.numeric(q)
        w = support_halfwidth(t, q)
        ys = np.linspace(-w, w, points)
        for y, d in zip(ys.tolist(), qgauss_density(ys, t, ctx).tolist()):
            rows.writerow([q, t, y, d])


def write_kurtosis_table(fh, qs, rs) -> None:
    """Plot-ready moment-ratio table: E(Z^4)/E(Z^2)^2 at each exponent in rs,
    one row (q, r, ez2, ez4, ratio) through process._csv_rows."""
    rows = _csv_rows(fh)
    rows.writerow(["q", "r", "ez2", "ez4", "ratio"])
    for q in qs:
        for r in rs:
            rows.writerow([q, r, float(oracle_EZ2(r, q)), float(oracle_EZ4(r, q)), float(kurtosis_ratio(r, q))])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_identities(config: RunConfig) -> int:
    only = config.only_set()
    if only is not None and not selected_checks(only, "identities"):
        print("identities: no matching checks selected")
        print("identities: 0/0 checks passed")
        return 0
    reports = run_identity_suite(only=only)
    _write_reports(reports, config, config.out, "identities")
    return _summarize(reports, "identities")


def cmd_simulate(config: RunConfig) -> int:
    n_paths = config.paths if config.paths is not None else SIMULATE_PATHS
    grid = GeometricGrid.build(q=config.q, t=config.t, depth=config.depth)
    try:
        batch = simulate_batch(grid, n_paths=n_paths, base_seed=config.seed)
    except InvalidDensityError as exc:
        # the kernel loses its precision near q = 1, where the tables built
        # for this q fail their gates
        raise ConfigError(f"the sampling tables fail their gates at q = {config.q}: {exc}") from exc
    names = write_batch_csv(batch, os.path.join(config.out, "paths"), wide=config.wide)
    print(f"simulate: wrote {len(names)} file(s) for {n_paths} path(s), K={grid.K}")
    return 0


def cmd_verify(config: RunConfig) -> int:
    only = config.only_set()
    suites = {
        "quadrature": lambda: run_quadrature_suite(only=only),
        "mc": lambda: run_mc_suite(
            n_paths=config.mc_paths(), seed=config.seed, threshold=config.z_threshold, only=only
        ),
        "convergence": lambda: run_convergence_suite(seed=config.seed, only=only),
    }
    reports = []
    for suite, run in suites.items():
        if only is None or selected_checks(only, suite):
            reports += run()
    _write_reports(reports, config, config.out, "verify")
    with open(os.path.join(config.out, "density_curves.csv"), "w", encoding="utf-8") as fh:
        write_density_curves(fh, PLOT_QS, config.t, 201)
    with open(os.path.join(config.out, "kurtosis_vs_r.csv"), "w", encoding="utf-8") as fh:
        write_kurtosis_table(fh, PLOT_QS, [i / 8.0 for i in range(25)])
    return _summarize(reports, "verify")


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(config.out, exist_ok=True)
    _write_manifest(config, config.out)
    status = 0
    try:
        if config.suite in ("identities", "all"):
            status = max(status, cmd_identities(config))
        if config.suite in ("simulate", "all"):
            status = max(status, cmd_simulate(config))
        if config.suite in ("verify", "all"):
            status = max(status, cmd_verify(config))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
