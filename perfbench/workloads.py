"""The benchmark's three workloads over qbm's public functions.

Each workload is a closed loop: one client in one process issues one
operation (op) at a time and waits for it.  Op number i has a fixed kind, so
the q values, the op mix and the grid depths are the same for every seed; the
seed chooses values only (states, polynomial coefficients, path seeds and
exponents).  Cost depends steeply on q, so a seed that picked q would change
the program being measured.  Every op checks its result against a
closed-form oracle and reports (ok, result, paths simulated).

A workload also says where a run may stop (at_boundary: after whole cycles
of its op kinds), which tables its set-up builds (warm_tables, timed as
set-up) and which caches to fill untimed before the timed phase (warm).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import shutil
from fractions import Fraction

import numpy as np

from qbm.measures import scaled_marginal_table, scaled_transition_table, support_halfwidth, transition_spec
from qbm.process import GeometricGrid
from qbm.qcore import Poly, QContext
from qbm.qhermite import QPolynomial, hermite_eval_sequence
from qbm.stochint import PolynomialIntegrand

Z_THRESHOLD = 4.0
EPS = float(np.finfo(float).eps)
#: upper bound on ops in one run; keeps the batch seed ranges of ops disjoint
MAX_OPS = 10**6


def table_cache_info() -> tuple[int, int]:
    """(builds, hits) summed over the marginal and transition table caches."""
    infos = (scaled_marginal_table.cache_info(), scaled_transition_table.cache_info())
    return sum(i.misses for i in infos), sum(i.hits for i in infos)


def _op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _random_qpolynomial(rng: np.random.Generator, x_degree: int, t_degree: int) -> QPolynomial:
    return QPolynomial(
        tuple(Poly(rng.uniform(-1.0, 1.0, size=t_degree + 1).tolist()) for _ in range(x_degree + 1))
    )


def _magnitude(p: QPolynomial) -> QPolynomial:
    """p with every coefficient replaced by its absolute value."""
    return QPolynomial(tuple(Poly([abs(c) for c in col.coeffs]) for col in p.coeffs))


def _z(values: np.ndarray, oracle: float) -> float:
    n = values.shape[0]
    mean = float(np.sum(values)) / n
    return (mean - oracle) / (float(np.std(values, ddof=1)) / math.sqrt(n))


def _close(got: float, ref: float, tol: float) -> bool:
    return abs(got - ref) <= tol * max(1.0, abs(ref))


class _Cycle:
    """Op kinds repeat in a fixed cycle; a run stops only after whole cycles."""

    kinds: tuple[str, ...] = ()

    def kind(self, index: int) -> str:
        return self.kinds[index % len(self.kinds)]

    def at_boundary(self, n_done: int) -> bool:
        return n_done % len(self.kinds) == 0

    def warm_tables(self) -> None:
        """Build the CDF tables the workload needs (timed as set-up)."""

    def warm(self) -> None:
        """Fill the remaining caches, untimed, before the timed phase."""


class McBatch(_Cycle):
    """One 1e5-path batch per op on the default grid, alternating q = 0.5, 0.8.

    The op runs the isometry checks for x**d (d = 0..3) and the power
    integrals of s**r at a seeded r, each gated at |z| <= 4.  A failing check
    is rerun once on a fresh batch, as the library's MC suite does.  Batch
    i's base seed is spaced 2 n_paths from batch i+1's, so no two batches (or
    a batch and its rerun) share a path.
    """

    name = "mc-batch"
    qs = (0.5, 0.8)
    kinds = ("batch-q0.5", "batch-q0.8")

    def __init__(self, lib, n_paths: int = 10**5) -> None:
        self.lib = lib
        self.n_paths = n_paths
        self.ctx = {q: QContext.numeric(q) for q in self.qs}
        self.grid = {q: GeometricGrid.build(q=q, t=1.0) for q in self.qs}

    def warm_tables(self) -> None:
        for q in self.qs:
            self.lib.simulate_batch(self.grid[q], 1, 0, self.ctx[q])

    def inputs(self, seed: int, index: int) -> dict:
        if index >= MAX_OPS:
            raise ValueError("too many ops for the batch seed spacing")
        r = float(_op_rng(seed, index).uniform(0.0, 1.0))
        base_seed = (seed * MAX_OPS + index) * 2 * self.n_paths
        return {"q": self.qs[index % len(self.qs)], "base_seed": base_seed, "r": r}

    def _checks(self, q: float, base_seed: int, r: float) -> list[float]:
        lib, ctx, grid = self.lib, self.ctx[q], self.grid[q]
        batch = lib.simulate_batch(grid, self.n_paths, base_seed, ctx)
        zs = []
        for d in range(4):
            f = PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(d), ctx)
            vals = lib.integrate_def_batch(f, batch, ctx)
            zs.append(_z(vals * vals, float(lib.isometry_second_moment(f, 1.0, ctx))))
        v = batch.values
        power = np.zeros(v.shape[0])
        for k in range(grid.K):
            power += float(grid.times[k]) ** r * (v[:, k] - v[:, k + 1])
        zs.append(_z(power * power, float(lib.oracle_EZ2(r, q))))
        zs.append(_z(power**4, float(lib.oracle_EZ4(r, q))))
        return zs

    def run(self, inp: dict):
        q, base_seed, r = inp["q"], inp["base_seed"], inp["r"]
        zs = self._checks(q, base_seed, r)
        paths = self.n_paths
        if any(abs(z) > Z_THRESHOLD for z in zs):
            rerun = self._checks(q, base_seed + self.n_paths, r)
            paths += self.n_paths
            zs = [b if abs(a) > Z_THRESHOLD else a for a, b in zip(zs, rerun)]
        return all(abs(z) <= Z_THRESHOLD for z in zs), tuple(zs), paths


class Quadrature(_Cycle):
    """One oracle check per op on a seeded state, at q = 0.2, 0.5 and 0.8.

    Kinds: conditional moments 2-4 and the martingale property of h_1..h_6
    (1e-7), the numeric gradient (1e-7) and second-order operator (rel_tol
    1e-9, checked to 1e-6) against their exact forms, and one
    Chapman-Kolmogorov point (1e-6).  States stay in the quadrature suite's
    range s/t <= 1/2, where the adaptive order does not depend on the seed.
    No tables and no random paths are involved.
    """

    name = "quadrature"
    qs = (0.2, 0.5, 0.8)
    checks = ("cond-moments", "martingale", "nabla", "delta", "chapman")
    kinds = tuple(f"{c}-q{q}" for c in checks for q in (0.2, 0.5, 0.8))

    def __init__(self, lib) -> None:
        self.lib = lib
        self.ctx = {q: QContext.numeric(q) for q in self.qs}
        self.integrate_calls = 0
        self.nodes = 0

    def warm(self) -> None:
        # fixed inputs: fills the quadrature-node and operator caches
        for index in range(len(self.kinds)):
            self.run(self.inputs(0, index))

    def inputs(self, seed: int, index: int) -> dict:
        slot = index % len(self.kinds)
        check, q = self.checks[slot // len(self.qs)], self.qs[slot % len(self.qs)]
        rng = _op_rng(seed, index)
        inp = {"check": check, "q": q}
        if check in ("cond-moments", "martingale"):
            s = float(rng.uniform(0.05, 0.5))
            inp.update(s=s, x=float(rng.uniform(-0.8, 0.8)) * support_halfwidth(s, q))
        elif check in ("nabla", "delta"):
            s = float(rng.uniform(0.5, 1.0))
            x = float(rng.uniform(-0.8, 0.8)) * support_halfwidth(q * s, q)
            inp.update(s=s, x=x, f=_random_qpolynomial(rng, 6, 2))
        else:
            inp.update(
                x=float(rng.uniform(-0.8, 0.8)) * support_halfwidth(0.25, q),
                y=float(rng.uniform(-0.9, 0.9)) * support_halfwidth(1.0, q),
            )
        return inp

    def _integrate(self, g, spec) -> float:
        def counted(y):
            self.nodes += np.size(y)
            return g(y)

        self.integrate_calls += 1
        return self.lib.integrate(counted, spec)

    def run(self, inp: dict):
        lib, q = self.lib, inp["q"]
        ctx = self.ctx[q]
        check = inp["check"]
        if check == "cond-moments":
            s, x, t = inp["s"], inp["x"], 1.0
            spec = transition_spec(ctx, s=s, t=t, x=x)
            got = [self._integrate(lambda y, n=n: y**n, spec) for n in (2, 3, 4)]
            ref = [
                x * x + t - s,
                x**3 + (t - s) * (2.0 + q) * x,
                x**4 + (t - s) * (3.0 + 2.0 * q + q * q) * x * x
                + (t - s) * ((2.0 + q) * t - (1.0 + q + q * q) * s),
            ]
            ok = all(_close(g, r, 1e-7) for g, r in zip(got, ref))
            return ok, tuple(got), 0
        if check == "martingale":
            s, x, t = inp["s"], inp["x"], 1.0
            spec = transition_spec(ctx, s=s, t=t, x=x)
            got = [
                self._integrate(lambda y, n=n: hermite_eval_sequence(n, y, t, ctx)[n], spec)
                for n in range(1, 7)
            ]
            ref = [float(hermite_eval_sequence(n, x, s, ctx)[n]) for n in range(1, 7)]
            ok = all(_close(g, r, 1e-7) for g, r in zip(got, ref))
            return ok, tuple(got), 0
        if check == "nabla":
            f, x, s = inp["f"], inp["x"], inp["s"]
            got = lib.nabla_numeric(f, x, s, ctx)
            ref = float(lib.nabla_exact(f, ctx)(x, s))
            return _close(got, ref, 1e-7), (got, ref), 0
        if check == "delta":
            f, x, s = inp["f"], inp["x"], inp["s"]
            got = lib.delta_numeric(f, x, s, ctx, rel_tol=1e-9)
            ref = float(lib.delta_exact(f, ctx)(x, s))
            return _close(got, ref, 1e-6), (got, ref), 0
        # Chapman-Kolmogorov: integrate the second leg over the middle state
        s, u, t = 0.25, 0.5, 1.0
        x, y = inp["x"], inp["y"]
        target = np.asarray([y])

        def second_leg(z):
            z = np.atleast_1d(np.asarray(z, dtype=float))
            return np.array([lib.transition_density(float(zi), u, t, target, ctx)[0] for zi in z])

        got = self._integrate(second_leg, transition_spec(ctx, s=s, t=u, x=x))
        ref = float(lib.transition_density(x, s, t, target, ctx)[0])
        return _close(got, ref, 1e-6), (got, ref), 0


class Pathwise(_Cycle):
    """Single paths on grids of depth 20, 40, 80 at q = 0.5, 0.8.

    A path op simulates one path, decomposes a seeded random polynomial
    (degree 6 in x, 2 in t) along it and checks the boundary form against
    the tail bound and the residual against the boundary form, to 64 eps
    times the rounding scale below.  (The convergence suite's allowance, 64
    eps times the four terms' absolute sum, is exceeded by rounding alone on
    about one path in a thousand, where the drift and second-order terms
    nearly cancel.)  It also checks the defining sum against the
    by-parts form within its bound; and checks the stochastic exponential's
    residual (degree 30) against the convergence suite's tolerance.

    The op sequence follows the pathwise part of one ``qbm --suite all`` run,
    in its order and with its call counts: the identity suite at each of its
    three rational q (exact ops, residuals literally 0), one simulate run
    (a CLI op at the CLI's default q and path count, whose CSV must equal
    simulate_batch's values), then run_convergence_suite's 2 q x 20
    polynomials x 20 paths x 3 depths = 2400 path ops.  The path ops cycle
    through the six (q, depth) pairs, so that every run of a few seconds
    covers all of them, and the sequence repeats after 2404 ops.
    """

    name = "pathwise"
    qs = (0.5, 0.8)
    depths = (20, 40, 80)
    exact_qs = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
    cli_q = 0.5
    cli_paths = 4
    lead = tuple(f"exact-q{q}" for q in exact_qs) + ("cli",)
    path_kinds = tuple(f"path-q{q}-K{k}" for q, k in itertools.product(qs, depths))
    kinds = lead + path_kinds
    #: run_convergence_suite's defaults: 20 polynomials x 20 paths per (q, depth)
    period = len(lead) + 20 * 20 * len(path_kinds)

    def __init__(self, lib, out_dir: str) -> None:
        self.lib = lib
        self.ctx = {q: QContext.numeric(q) for q in self.qs}
        self.grids = {(q, k): GeometricGrid.build(q=q, t=1.0, depth=k) for q in self.qs for k in self.depths}
        self.default_grid = {q: GeometricGrid.build(q=q, t=1.0) for q in self.qs}
        self.cli_dir = os.path.join(out_dir, "cli")
        self.bytes_written = 0

    def kind(self, index: int) -> str:
        i = index % self.period
        if i < len(self.lead):
            return self.lead[i]
        return self.path_kinds[(i - len(self.lead)) % len(self.path_kinds)]

    def at_boundary(self, n_done: int) -> bool:
        i = n_done % self.period
        return i == 0 or (i > len(self.lead) and (i - len(self.lead)) % len(self.path_kinds) == 0)

    def warm_tables(self) -> None:
        for q in self.qs:
            self.lib.simulate_batch(self.default_grid[q], 1, 0, self.ctx[q])

    def warm(self) -> None:
        # fixed inputs, one op of each kind: fills the Hermite, operator and
        # exact-arithmetic caches
        for index in range(len(self.kinds)):
            self.run(self.inputs(0, index))

    def inputs(self, seed: int, index: int) -> dict:
        rng = _op_rng(seed, index)
        kind = self.kind(index)
        if kind in self.lead[:-1]:
            return {"kind": "exact", "q": self.exact_qs[self.lead.index(kind)],
                    "seed": int(rng.integers(0, 2**31))}
        if kind == "cli":
            return {"kind": kind, "q": self.cli_q, "seed": int(rng.integers(0, 2**31))}
        slot = self.path_kinds.index(kind)
        q, depth = self.qs[slot // len(self.depths)], self.depths[slot % len(self.depths)]
        return {"kind": "path", "q": q, "depth": depth, "seed": int(rng.integers(0, 2**62)),
                "f": _random_qpolynomial(rng, 6, 2)}

    def run(self, inp: dict):
        if inp["kind"] == "exact":
            reports = self.lib.run_identity_suite(seed=inp["seed"], qs=(inp["q"],))
            ok = bool(reports) and all(r.passed and r.residual == 0.0 for r in reports)
            return ok, tuple((r.name, r.residual) for r in reports), 0
        if inp["kind"] == "cli":
            return self._cli(inp["q"], inp["seed"])
        return self._path(inp)

    def _path(self, inp: dict):
        lib, q, f = self.lib, inp["q"], inp["f"]
        ctx, grid = self.ctx[q], self.grids[(q, inp["depth"])]
        path = lib.simulate_path(grid, inp["seed"], ctx)
        dec = lib.ito_decompose(f, path, ctx)
        bound = lib.ito_tail_bound(f, grid, ctx)
        K = grid.K
        boundary = abs(float(f(path.values[K], grid.times[K])) - float(f(0.0, 0.0)))
        noise = 64.0 * EPS * self._rounding_scale(f, path, ctx)
        ok = boundary <= bound and abs(dec.residual - boundary) <= noise
        integrand = PolynomialIntegrand.from_qpolynomial(f, ctx)
        d = lib.integrate_def(integrand, path, ctx)
        b = lib.integrate_byparts(integrand, path, ctx)
        gap = abs(float(d.value) - float(b.value))
        ok = ok and gap <= b.tail_bound + 64.0 * EPS * (abs(float(d.value)) + abs(float(b.value)))
        a, c = 0.5, 2.0
        sde = lib.sde_residual(a, c, path, ctx, degree=30)
        ok = ok and sde <= 8.0 * a * c * math.sqrt(float(grid.times[K]) / (1.0 - q))
        return ok, (dec.residual, boundary, bound, float(d.value), float(b.value), sde), 1

    def _rounding_scale(self, f: QPolynomial, path, ctx: QContext) -> float:
        """Summed magnitudes of the decomposition's float arithmetic.

        f, its time q-derivative and its second-order part are evaluated with
        absolute coefficients at |B_k| over the steps the decomposition sums,
        so terms that cancel still count.  Rounding error stays a small
        multiple of eps times this scale.
        """
        q, grid = ctx.qf, path.grid
        xs = np.abs(np.asarray(path.values, dtype=float))
        ts = np.asarray(grid.times, dtype=float)
        fa, da, sa = (_magnitude(p) for p in (f, f.dq_time(ctx), self.lib.delta_exact(f, ctx)))
        at_nodes = fa(xs, ts)
        steps = (1.0 - q) * ts[:-1] * (da(xs[1:], ts[:-1]) + sa(xs[1:], ts[:-1]))
        return float(3.0 * np.sum(at_nodes) + fa(0.0, 0.0) + np.sum(steps))

    def _cli(self, q: float, seed: int):
        lib = self.lib
        shutil.rmtree(self.cli_dir, ignore_errors=True)
        argv = ["--suite", "simulate", "--q", repr(q), "--paths", str(self.cli_paths),
                "--seed", str(seed), "--wide", "--out", self.cli_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            status = lib.cli_main(argv)
        csv_path = os.path.join(self.cli_dir, "paths", "paths_wide.csv")
        with open(csv_path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        written = os.path.getsize(csv_path) + os.path.getsize(os.path.join(self.cli_dir, "manifest.json"))
        self.bytes_written += written
        grid = self.default_grid[q]
        batch = lib.simulate_batch(grid, self.cli_paths, seed, self.ctx[q])
        got = np.array([[float(v) for v in row[2:]] for row in rows])
        times = [float(row[1]) for row in rows]
        ok = (
            status == 0
            and got.shape == (len(grid), self.cli_paths)
            and np.array_equal(got, batch.values.T)
            and times == [float(tk) for tk in grid.times]
        )
        return ok, (status, written, float(np.sum(got))), self.cli_paths


def make(name: str, lib, out_dir: str, n_paths: int | None = None):
    if name == McBatch.name:
        return McBatch(lib) if n_paths is None else McBatch(lib, n_paths)
    if name == Quadrature.name:
        return Quadrature(lib)
    if name == Pathwise.name:
        return Pathwise(lib, out_dir)
    raise ValueError(f"unknown workload {name!r}")
