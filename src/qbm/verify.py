"""Closed-form moment oracles and the verification harness.

Four suites back the library's quantitative claims:

  * run_identity_suite: zero-tolerance algebraic identities in rational
    arithmetic (basis recurrence, by-parts, operator lemmas, telescoped
    integral formulas, moment-ratio algebra), symbolic in t where possible
    and otherwise on grids with free rational values;
  * run_quadrature_suite: density normalizations, moments, martingale and
    conditional-moment formulas, Chapman-Kolmogorov, and the agreement of
    kernel-quadrature operators with their exact counterparts;
  * run_mc_suite: Monte Carlo estimates over simulated path batches against
    exact oracles, gated at |z| <= 4; a failing check is rerun once on a
    disjoint batch;
  * run_convergence_suite: pathwise residuals of the change-of-variable
    identity and of the exponential's integral equation as the grid deepens.

CHECKS names every report the suites emit and maps it to its suite; the
suites' only= filters and the command line's --only both read it.

Batch statistics use numpy's pairwise summation, so reductions are
deterministic for a fixed seed and platform.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .measures import (
    integrate,
    marginal_spec,
    support_halfwidth,
    transition_density,
    transition_spec,
)
from .process import GeometricGrid, GeometricPath, PathBatch, simulate_batch, simulate_path
from .qcore import Poly, QContext, Scalar, q_factorial, q_int
from .qhermite import QPolynomial, hermite_eval_sequence, qhermite
from .qito import (
    a_operator,
    delta_exact,
    delta_numeric,
    ito_decompose,
    nabla_exact,
    nabla_numeric,
)
from .stochint import (
    PolynomialIntegrand,
    def_tail_bound,
    integrate_byparts,
    integrate_def,
    integrate_def_batch,
    isometry_second_moment,
    sde_residual,
    stochastic_exponential,
)

__all__ = [
    "McEstimate",
    "VerificationReport",
    "CSV_HEADER",
    "oracle_EZ2",
    "oracle_EZ4",
    "kurtosis_ratio",
    "oracle_increment_4th",
    "mc_isometry",
    "mc_moment",
    "MC_CHECKS",
    "CHECKS",
    "selected_checks",
    "run_identity_suite",
    "run_quadrature_suite",
    "run_mc_suite",
    "run_convergence_suite",
    "reports_to_csv",
]

Z_THRESHOLD = 4.0


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------

def _qpow(q: Scalar, e) -> Scalar:
    """q**e, exact when both q and e admit exact arithmetic."""
    if isinstance(q, (Fraction, int)) and float(e) == int(e):
        return q ** int(e)
    return float(q) ** float(e)


def oracle_EZ2(r, q: Scalar) -> Scalar:
    """Second moment of the integral of s**r over [0, 1]: 1/[2r+1]."""
    if r < 0:
        raise ValueError("exponent r must be nonnegative")
    return (1 - q) / (1 - _qpow(q, 2 * r + 1))


def oracle_EZ4(r, q: Scalar) -> Scalar:
    """Fourth moment of the integral of s**r over [0, 1], closed form."""
    if r < 0:
        raise ValueError("exponent r must be nonnegative")
    num = (1 - q) ** 2 * (
        2
        + 3 * q
        - 6 * _qpow(q, r + 1)
        + _qpow(q, r + 2)
        + 4 * _qpow(q, 2 * r + 1)
        - 3 * _qpow(q, 2 * r + 2)
        - _qpow(q, 3 * r + 3)
    )
    den = (
        (1 - _qpow(q, r + 1))
        * (1 - _qpow(q, 2 * r + 1)) ** 2
        * (1 + _qpow(q, 2 * r + 1))
    )
    return num / den


def kurtosis_ratio(r, q: Scalar) -> Scalar:
    """E(Z**4)/E(Z**2)**2 for Z the integral of s**r; varies with r."""
    num = (
        2
        + 3 * q
        - 6 * _qpow(q, r + 1)
        + _qpow(q, r + 2)
        + 4 * _qpow(q, 2 * r + 1)
        - 3 * _qpow(q, 2 * r + 2)
        - _qpow(q, 3 * r + 3)
    )
    return num / ((1 - _qpow(q, r + 1)) * (1 + _qpow(q, 2 * r + 1)))


def oracle_increment_4th(s: Scalar, t: Scalar, q: Scalar) -> Scalar:
    """E[(B_t - B_s)**4] = (t - s)((q + 2)t - 3 q s) for s < t."""
    return (t - s) * ((q + 2) * t - 3 * q * s)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McEstimate:
    """One Monte Carlo estimate against its exact oracle."""

    estimate: float
    std_error: float
    n_paths: int
    seed: int
    oracle: float

    def __post_init__(self) -> None:
        if self.n_paths >= 2 and not self.std_error > 0.0:
            raise ValueError("std_error must be positive for n_paths >= 2")

    @property
    def z(self) -> float:
        return (self.estimate - self.oracle) / self.std_error

    def to_json_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "oracle": self.oracle,
            "z": self.z,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one named check; reproducible from (name, params, seed)."""

    name: str
    params: dict
    passed: bool
    tolerance: float
    kind: str  # "exact" | "quadrature" | "mc"
    residual: float | None = None
    estimate: McEstimate | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "passed": self.passed,
            "tolerance": self.tolerance,
            "kind": self.kind,
            "residual": self.residual,
            "estimate": None if self.estimate is None else self.estimate.to_json_dict(),
        }

    def csv_row(self) -> list:
        if self.estimate is not None:
            oracle, est = self.estimate.oracle, self.estimate.estimate
            stderr, z = self.estimate.std_error, self.estimate.z
        else:
            oracle, est, stderr, z = 0.0, self.residual, "", ""
        return [
            self.name,
            json.dumps(self.params, sort_keys=True),
            oracle,
            est,
            stderr,
            z,
            self.passed,
        ]


CSV_HEADER = ["name", "params", "oracle", "estimate", "stderr", "z", "pass"]


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    lines = [",".join(CSV_HEADER)]
    for r in reports:
        cells = []
        for c in r.csv_row():
            text = repr(c) if isinstance(c, float) else str(c)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _mc_estimate(values: np.ndarray, oracle: float, seed: int) -> McEstimate:
    n = int(values.shape[0])
    mean = float(np.sum(values)) / n
    std_error = float(np.std(values, ddof=1)) / math.sqrt(n)
    return McEstimate(estimate=mean, std_error=std_error, n_paths=n, seed=seed, oracle=float(oracle))


# ---------------------------------------------------------------------------
# shared path batches
# ---------------------------------------------------------------------------

_BATCH_CACHE: dict[tuple, PathBatch] = {}


def _get_batch(q: float, t: float, n_paths: int, seed: int) -> PathBatch:
    grid = GeometricGrid.build(q=q, t=t)
    key = (float(q), float(t), grid.K, n_paths, seed)
    if key not in _BATCH_CACHE:
        ctx = QContext.numeric(q)
        _BATCH_CACHE[key] = simulate_batch(grid, n_paths=n_paths, base_seed=seed, ctx=ctx)
    return _BATCH_CACHE[key]


def _grid_index(grid: GeometricGrid, s: float) -> int:
    for k, tk in enumerate(grid.times):
        if abs(float(tk) - s) <= 1e-12 * max(1.0, s):
            return k
    raise ValueError(f"time {s} is not on the geometric grid")


# ---------------------------------------------------------------------------
# Monte Carlo checks
# ---------------------------------------------------------------------------

def mc_isometry(
    f: PolynomialIntegrand,
    t: float,
    q: float,
    n_paths: int = 10**5,
    seed: int = 2024,
    threshold: float = Z_THRESHOLD,
) -> VerificationReport:
    """Compare MC E[(integral of f)**2] to the exact Jackson-integral form."""
    ctx = QContext.numeric(q)
    batch = _get_batch(q, t, n_paths, seed)
    vals = integrate_def_batch(f, batch, ctx)
    rhs = float(isometry_second_moment(f, t, ctx))
    est = _mc_estimate(vals * vals, rhs, seed)
    tail = def_tail_bound(f, batch.grid, ctx)
    params = {
        "degree": f.degree,
        "t": t,
        "q": q,
        "K": batch.grid.K,
        "truncation_bias_bound": 2.0 * math.sqrt(max(rhs, 0.0)) * tail + tail * tail,
    }
    return VerificationReport(
        name="isometry",
        params=params,
        passed=abs(est.z) <= threshold,
        tolerance=threshold,
        kind="mc",
        estimate=est,
    )


def _deterministic_power_integral(batch: PathBatch, r: float) -> np.ndarray:
    """Z = sum_k t_k**r (B_k - B_{k+1}) per path."""
    grid = batch.grid
    v = batch.values
    out = np.zeros(v.shape[0])
    for k in range(grid.K):
        out += float(grid.times[k]) ** r * (v[:, k] - v[:, k + 1])
    return out


def _check_ez2(params, n_paths, seed, threshold):
    r, q = params["r"], params["q"]
    batch = _get_batch(q, 1.0, n_paths, seed)
    z = _deterministic_power_integral(batch, r)
    oracle = float(oracle_EZ2(r, q))
    est = _mc_estimate(z * z, oracle, seed)
    k = batch.grid.K
    truncated = (1.0 - q) * (1.0 - q ** ((2 * r + 1) * k)) / (1.0 - q ** (2 * r + 1))
    return est, {"K": k, "truncation_bias": oracle - truncated}


def _check_ez4(params, n_paths, seed, threshold):
    r, q = params["r"], params["q"]
    batch = _get_batch(q, 1.0, n_paths, seed)
    z = _deterministic_power_integral(batch, r)
    oracle = float(oracle_EZ4(r, q))
    est = _mc_estimate(z**4, oracle, seed)
    k = batch.grid.K
    return est, {"K": k, "truncation_bias_bound": 8.0 * q**k * oracle}


def _check_increment_4th(params, n_paths, seed, threshold):
    s, t, q = params["s"], params["t"], params["q"]
    batch = _get_batch(q, t, n_paths, seed)
    j = _grid_index(batch.grid, s)
    inc = batch.values[:, 0] - batch.values[:, j]
    oracle = float(oracle_increment_4th(s, t, q))
    return _mc_estimate(inc**4, oracle, seed), {"K": batch.grid.K}


def _cross_check(moment: Callable, factor: Callable) -> Callable:
    """Check of E[moment(dt, du)] = factor(q) (u2 - u1)(t2 - t1) for the
    increments dt over [t1, t2] and du over [u1, u2], t1 < t2 <= u1 < u2."""

    def check(params, n_paths, seed, threshold):
        q = params["q"]
        t1, t2, u1, u2 = params["t1"], params["t2"], params["u1"], params["u2"]
        if not (t1 < t2 <= u1 < u2):
            raise ValueError("cross moments need t1 < t2 <= u1 < u2")
        batch = _get_batch(q, u2, n_paths, seed)
        v = batch.values
        idx = {s: _grid_index(batch.grid, s) for s in (t1, t2, u1, u2)}
        dt = v[:, idx[t2]] - v[:, idx[t1]]
        du = v[:, idx[u2]] - v[:, idx[u1]]
        oracle = factor(q) * (u2 - u1) * (t2 - t1)
        return _mc_estimate(moment(dt, du), oracle, seed), {"K": batch.grid.K}

    return check


def _check_stoch_exp_mean(params, n_paths, seed, threshold):
    a, c, t, q = params["a"], params["c"], params["t"], params["q"]
    ctx = QContext.numeric(q)
    if t >= 1.0 / (a * a * (1.0 - q)):
        raise ValueError("horizon outside the exponential's convergence radius")
    batch = _get_batch(q, t, n_paths, seed)
    z = stochastic_exponential(a, c, batch.horizon_values, t, ctx)
    return _mc_estimate(np.asarray(z), c, seed), {"K": batch.grid.K}


def _check_variance_horizon(params, n_paths, seed, threshold):
    t, q = params["t"], params["q"]
    batch = _get_batch(q, t, n_paths, seed)
    v = batch.horizon_values
    return _mc_estimate(v * v, t, seed), {"K": batch.grid.K}


def _check_hermite_increment_2nd(params, n_paths, seed, threshold):
    k, s, t, q = params["k"], params["s"], params["t"], params["q"]
    ctx = QContext.numeric(q)
    batch = _get_batch(q, t, n_paths, seed)
    j = _grid_index(batch.grid, s)
    h_t = hermite_eval_sequence(k, batch.values[:, 0], t, ctx)[k]
    h_s = hermite_eval_sequence(k, batch.values[:, j], s, ctx)[k]
    oracle = float(q_factorial(k, ctx)) * (t**k - s**k)
    return _mc_estimate((h_t - h_s) ** 2, oracle, seed), {"K": batch.grid.K}


def _check_increment_orthogonality(params, n_paths, seed, threshold):
    n, q, t = params["n"], params["q"], params["t"]
    ctx = QContext.numeric(q)
    batch = _get_batch(q, t, n_paths, seed)
    grid = batch.grid
    h0 = hermite_eval_sequence(n, batch.values[:, 0], grid.times[0], ctx)[n]
    h1 = hermite_eval_sequence(n, batch.values[:, 1], grid.times[1], ctx)[n]
    h2 = hermite_eval_sequence(n, batch.values[:, 2], grid.times[2], ctx)[n]
    d_near = h0 - h1
    d_far = h1 - h2
    return _mc_estimate(d_near * d_far, 0.0, seed), {"K": grid.K}


MC_CHECKS: dict[str, Callable] = {
    "ez2": _check_ez2,
    "ez4": _check_ez4,
    "increment-4th": _check_increment_4th,
    "cross-22": _cross_check(lambda dt, du: dt * dt * du * du, lambda q: 1.0),
    "cross-13": _cross_check(lambda dt, du: dt * du**3, lambda q: -(1.0 - q)),
    "stoch-exp-mean": _check_stoch_exp_mean,
    "variance-horizon": _check_variance_horizon,
    "hermite-increment-2nd": _check_hermite_increment_2nd,
    "increment-orthogonality": _check_increment_orthogonality,
}


def mc_moment(
    name: str,
    params: dict,
    n_paths: int = 10**5,
    seed: int = 2024,
    threshold: float = Z_THRESHOLD,
) -> VerificationReport:
    """Run one registered moment check against its closed-form oracle."""
    if name not in MC_CHECKS:
        raise ValueError(f"unknown check name {name!r}; known: {sorted(MC_CHECKS)}")
    est, extra = MC_CHECKS[name](params, n_paths, seed, threshold)
    return VerificationReport(
        name=name,
        params={**params, **extra},
        passed=abs(est.z) <= threshold,
        tolerance=threshold,
        kind="mc",
        estimate=est,
    )


# ---------------------------------------------------------------------------
# check registry
# ---------------------------------------------------------------------------

#: every report name a suite emits, mapped to that suite, in emission order
CHECKS: dict[str, str] = {
    **dict.fromkeys(
        (
            "recurrence", "byparts", "antiderivative", "product-rule", "lemma-nabla",
            "lemma-A", "harmonicity", "wdw", "bdb", "x2-formula", "onestep-byparts",
            "def-vs-byparts", "ito-telescoping", "kurtosis-r0", "kurtosis-varies",
        ),
        "identities",
    ),
    **dict.fromkeys(
        (
            "normalization", "variance", "fourth-moment", "martingale", "cond-quadratic",
            "cond-cubic", "cond-quartic", "orthogonality", "chapman", "nabla-numeric",
            "delta-numeric",
        ),
        "quadrature",
    ),
    **dict.fromkeys(("isometry", *MC_CHECKS), "mc"),
    **dict.fromkeys(("ito-convergence", "sde-residual"), "convergence"),
}


def selected_checks(only: set[str] | None, suite: str) -> set[str] | None:
    """The names in only that the suite emits; None when only is None (all).

    Raises ValueError for a name that no suite emits.
    """
    if only is None:
        return None
    unknown = sorted(set(only) - CHECKS.keys())
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}; known checks: {', '.join(sorted(CHECKS))}")
    return {name for name in only if CHECKS[name] == suite}


# ---------------------------------------------------------------------------
# exact identity suite
# ---------------------------------------------------------------------------

def _rational_poly(rng: np.random.Generator, degree: int) -> Poly:
    coeffs = [
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
        for _ in range(degree + 1)
    ]
    return Poly(coeffs)


def _rational_path(rng: np.random.Generator, grid: GeometricGrid) -> GeometricPath:
    vals = tuple(
        Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 8)))
        for _ in range(len(grid))
    )
    return GeometricPath(grid=grid, values=vals)


def _exact_report(name: str, params: dict, residual) -> VerificationReport:
    res = float(residual)
    return VerificationReport(
        name=name,
        params=params,
        passed=res == 0.0,
        tolerance=0.0,
        kind="exact",
        residual=res,
    )


def _poly_residual(p: Poly, r: Poly) -> Fraction:
    d = p - r
    return sum((abs(c) for c in d.coeffs), Fraction(0))


def _qpoly_residual(p: QPolynomial, r: QPolynomial) -> Fraction:
    d = p - r
    return sum((_poly_residual(c, Poly()) for c in d.coeffs), Fraction(0))


def _identity_checks(q: Fraction, seed: int):
    ctx = QContext.exact(q)
    rng = np.random.default_rng(seed)
    qs = {"q": str(q)}

    # three-term recurrence, n <= 12
    res = Fraction(0)
    for n in range(1, 12):
        lhs = qhermite(n, ctx).mul_x()
        rhs = qhermite(n + 1, ctx) + q_int(n, ctx) * qhermite(n - 1, ctx).mul_t()
        res += _qpoly_residual(lhs, rhs)
    yield _exact_report("recurrence", {**qs, "n_max": 12}, res)

    # by-parts and anti-derivative identities, symbolic in t
    res = Fraction(0)
    for _ in range(6):
        a = _rational_poly(rng, int(rng.integers(0, 9)))
        b = _rational_poly(rng, int(rng.integers(0, 9)))
        lhs = (a * b.q_derivative(ctx)).jackson_antiderivative(ctx) + (
            b.scale_arg(q) * a.q_derivative(ctx)
        ).jackson_antiderivative(ctx)
        rhs = a * b - Poly.const(a(Fraction(0)) * b(Fraction(0)))
        res += _poly_residual(lhs, rhs)
    yield _exact_report("byparts", {**qs, "degree_max": 8}, res)

    res = Fraction(0)
    for _ in range(6):
        p = _rational_poly(rng, int(rng.integers(0, 9)))
        res += _poly_residual(p.jackson_antiderivative(ctx).q_derivative(ctx), p)
        res += _poly_residual(
            p.q_derivative(ctx).jackson_antiderivative(ctx),
            p - Poly.const(p(Fraction(0))),
        )
    yield _exact_report("antiderivative", {**qs, "degree_max": 8}, res)

    # q-product rule D(ab) = a Db + b(q.) Da
    res = Fraction(0)
    for _ in range(6):
        a = _rational_poly(rng, int(rng.integers(0, 9)))
        b = _rational_poly(rng, int(rng.integers(0, 9)))
        lhs = (a * b).q_derivative(ctx)
        rhs = a * b.q_derivative(ctx) + b.scale_arg(q) * a.q_derivative(ctx)
        res += _poly_residual(lhs, rhs)
    yield _exact_report("product-rule", {**qs, "degree_max": 8}, res)

    # gradient lemma: nabla h_{m+1} = [m+1] h_m, m <= 8
    res = Fraction(0)
    for m in range(0, 8):
        lhs = nabla_exact(qhermite(m + 1, ctx), ctx)
        rhs = q_int(m + 1, ctx) * qhermite(m, ctx)
        res += _qpoly_residual(lhs, rhs)
    yield _exact_report("lemma-nabla", {**qs, "m_max": 8}, res)

    # generator lemma: A h_m = [m] h_{m-1}(x; q t), m <= 8
    res = Fraction(0)
    for m in range(1, 9):
        lhs = a_operator(qhermite(m, ctx), ctx)
        rhs = q_int(m, ctx) * qhermite(m - 1, ctx).subs_t_scale(q)
        res += _qpoly_residual(lhs, rhs)
    yield _exact_report("lemma-A", {**qs, "m_max": 8}, res)

    # harmonicity: (D_t + delta) h_m = 0, m <= 8
    res = Fraction(0)
    for m in range(0, 9):
        h = qhermite(m, ctx)
        res += _qpoly_residual(delta_exact(h, ctx) + h.dq_time(ctx), QPolynomial.zero())
    yield _exact_report("harmonicity", {**qs, "m_max": 8}, res)

    # truncated telescoped integral identities on a free rational path
    grid = GeometricGrid.build(q=q, t=Fraction(5, 4), depth=6)
    path = _rational_path(rng, grid)
    top = hermite_eval_sequence(7, path.values[0], grid.times[0], ctx)
    bot = hermite_eval_sequence(7, path.values[grid.K], grid.times[grid.K], ctx)

    res = Fraction(0)
    for n in range(0, 6):
        b = [Poly.const(0)] * n + [Poly.const(q_factorial(n, ctx))]
        val = integrate_def(PolynomialIntegrand.from_hermite(b), path, ctx).value
        res += abs(val - (top[n + 1] - bot[n + 1]) / q_int(n + 1, ctx))
    yield _exact_report("wdw", {**qs, "n_max": 5, "K": grid.K}, res)

    val = integrate_def(
        PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(1), ctx), path, ctx
    ).value
    expected = ((path.values[0] ** 2 - grid.times[0]) - (path.values[grid.K] ** 2 - grid.times[grid.K])) / (
        1 + q
    )
    yield _exact_report("bdb", {**qs, "K": grid.K}, abs(val - expected))

    # x**2 integrand: h_3/[3] plus the deterministic s-integral, telescoped
    val = integrate_def(
        PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(2), ctx), path, ctx
    ).value
    det = sum(
        (
            grid.times[k] * (path.values[k] - path.values[k + 1])
            for k in range(grid.K)
        ),
        Fraction(0),
    )
    expected = (top[3] - bot[3]) / q_int(3, ctx) + det
    yield _exact_report("x2-formula", {**qs, "K": grid.K}, abs(val - expected))

    # single-term by-parts identity with its boundary correction at depth K
    res = Fraction(0)
    for m in range(0, 4):
        b = _rational_poly(rng, 3)
        integrand = PolynomialIntegrand.from_hermite(
            [Poly.const(0)] * m + [b * q_factorial(m, ctx)]
        )
        lhs = b(grid.times[0]) * top[m + 1] - b(grid.times[grid.K]) * bot[m + 1]
        stieltjes = sum(
            (
                hermite_eval_sequence(m + 1, path.values[k + 1], grid.times[k + 1], ctx)[m + 1]
                * (b(grid.times[k]) - b(grid.times[k + 1]))
                for k in range(grid.K)
            ),
            Fraction(0),
        )
        rhs = q_int(m + 1, ctx) * integrate_def(integrand, path, ctx).value + stieltjes
        res += abs(lhs - rhs)
    yield _exact_report("onestep-byparts", {**qs, "m_max": 3, "K": grid.K}, res)

    # defining sum vs by-parts form differ by exactly the depth-K boundary
    res = Fraction(0)
    for _ in range(3):
        b = tuple(_rational_poly(rng, 2) for _ in range(4))
        f = PolynomialIntegrand(b)
        d = integrate_def(f, path, ctx).value
        p = integrate_byparts(f, path, ctx).value
        boundary = sum(
            (
                b[m](grid.times[grid.K]) * bot[m + 1] / q_factorial(m + 1, ctx)
                for m in range(4)
            ),
            Fraction(0),
        )
        res += abs((p - d) - boundary)
    yield _exact_report("def-vs-byparts", {**qs, "K": grid.K}, res)

    # change-of-variable telescoping: residual is exactly |f(B_K,t_K)-f(0,0)|
    res = Fraction(0)
    for _ in range(3):
        f = QPolynomial(tuple(_rational_poly(rng, 2) for _ in range(5)))
        dec = ito_decompose(f, path, ctx)
        got = abs(dec.lhs - (dec.gradient_term + dec.drift_term + dec.second_order_term))
        expected = abs(
            f(path.values[grid.K], grid.times[grid.K]) - f(Fraction(0), Fraction(0))
        )
        res += abs(got - expected)
    yield _exact_report("ito-telescoping", {**qs, "K": grid.K, "degree": 4}, res)

    # moment-ratio algebra at r = 0
    ratio = oracle_EZ4(0, q) / oracle_EZ2(0, q) ** 2
    yield _exact_report("kurtosis-r0", qs, abs(ratio - (2 + q)))

    # the ratio moves with r (law depends on the integrand)
    differs = kurtosis_ratio(0, q) != kurtosis_ratio(1, q)
    yield VerificationReport(
        name="kurtosis-varies",
        params=qs,
        passed=bool(differs),
        tolerance=0.0,
        kind="exact",
        residual=0.0 if differs else 1.0,
    )


def run_identity_suite(
    seed: int = 7,
    qs: Sequence[Fraction] = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)),
    only: set[str] | None = None,
) -> list[VerificationReport]:
    """Zero-tolerance rational-arithmetic identity checks across q values."""
    selected = selected_checks(only, "identities")
    reports = []
    for q in qs:
        for rep in _identity_checks(Fraction(q), seed):
            if selected is None or rep.name in selected:
                reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# quadrature suite
# ---------------------------------------------------------------------------

def _quad_report(name, params, value, oracle, tol) -> VerificationReport:
    err = abs(float(value) - float(oracle))
    return VerificationReport(
        name=name,
        params={**params, "oracle": float(oracle), "value": float(value)},
        passed=err <= tol * max(1.0, abs(float(oracle))),
        tolerance=tol,
        kind="quadrature",
        residual=err,
    )


def _max_error_report(name, params, tol, pairs) -> VerificationReport:
    """One report on the worst error over (got, ref) pairs, relative with a unit floor."""
    err = 0.0
    for got, ref in pairs:
        err = max(err, abs(got - ref) / max(1.0, abs(ref)))
    return VerificationReport(
        name=name, params=params, passed=err <= tol, tolerance=tol, kind="quadrature",
        residual=err,
    )


def _sweep_states(q: float, t: float):
    for s_frac in (0.0, 0.25, 0.5):
        s = t * s_frac
        if s == 0.0:
            yield s, [0.0]
        else:
            half = 0.5 * support_halfwidth(s, q)
            yield s, [0.0, half, -half]


def run_quadrature_suite(
    only: set[str] | None = None,
    qs: Sequence[float] = (0.2, 0.5, 0.8),
    ts: Sequence[float] = (0.25, 1.0, 4.0),
) -> list[VerificationReport]:
    """Density, moment, martingale, and operator checks by quadrature."""
    selected = selected_checks(only, "quadrature")
    reports: list[VerificationReport] = []

    def want(name: str) -> bool:
        return selected is None or name in selected

    one = lambda y: np.ones_like(y)
    for q in qs:
        ctx = QContext.numeric(q)
        for t in ts:
            spec = marginal_spec(ctx, t)
            if want("normalization"):
                reports.append(
                    _quad_report("normalization", {"q": q, "t": t, "kind": "marginal"},
                                 integrate(one, spec), 1.0, 1e-8)
                )
            if want("variance"):
                reports.append(
                    _quad_report("variance", {"q": q, "t": t},
                                 integrate(lambda y: y * y, spec), t, 1e-7)
                )
            if want("fourth-moment"):
                reports.append(
                    _quad_report("fourth-moment", {"q": q, "t": t},
                                 integrate(lambda y: y**4, spec), (2.0 + q) * t * t, 1e-7)
                )
            for s, xs in _sweep_states(q, t):
                for x in xs:
                    tspec = transition_spec(ctx, s=s, t=t, x=x)
                    base = {"q": q, "t": t, "s": s, "x": x}
                    if want("normalization"):
                        reports.append(
                            _quad_report("normalization", {**base, "kind": "transition"},
                                         integrate(one, tspec), 1.0, 1e-8)
                        )
                    if want("martingale"):
                        pairs = (
                            (
                                integrate(
                                    lambda y, n=n: hermite_eval_sequence(n, y, t, ctx)[n], tspec
                                ),
                                float(hermite_eval_sequence(n, x, s, ctx)[n]),
                            )
                            for n in range(1, 7)
                        )
                        params = {**base, "n_max": 6}
                        reports.append(_max_error_report("martingale", params, 1e-7, pairs))
                    ref4 = (
                        x**4
                        + (t - s) * (3.0 + 2.0 * q + q * q) * x * x
                        + (t - s) * ((2.0 + q) * t - (1.0 + q + q * q) * s)
                    )
                    for name, g, ref in (
                        ("cond-quadratic", lambda y: y * y, x * x + t - s),
                        ("cond-cubic", lambda y: y**3, x**3 + (t - s) * (2.0 + q) * x),
                        ("cond-quartic", lambda y: y**4, ref4),
                    ):
                        if want(name):
                            reports.append(_quad_report(name, base, integrate(g, tspec), ref, 1e-7))
        # orthogonality at t = 1: h_n h_m -> delta [n]! t**n
        if want("orthogonality"):
            spec1 = marginal_spec(ctx, 1.0)
            pairs = (
                (
                    integrate(
                        lambda y, n=n, m=m: hermite_eval_sequence(n, y, 1.0, ctx)[n]
                        * hermite_eval_sequence(m, y, 1.0, ctx)[m],
                        spec1,
                    ),
                    float(q_factorial(n, ctx)) if n == m else 0.0,
                )
                for n in range(0, 9)
                for m in range(n, 9)
            )
            params = {"q": q, "t": 1.0, "n_max": 8}
            reports.append(_max_error_report("orthogonality", params, 1e-7, pairs))
        # Chapman-Kolmogorov spot check at 20 target points
        if want("chapman"):
            s, u, t = 0.25, 0.5, 1.0
            x = 0.3 * support_halfwidth(s, q)
            ys = np.linspace(-0.9, 0.9, 20) * support_halfwidth(t, q)
            mid = transition_spec(ctx, s=s, t=u, x=x)
            # second leg: one call over all middle states z per target y
            pairs = (
                (
                    integrate(lambda z, y=y: transition_density(z, u, t, y, ctx), mid),
                    float(transition_density(x, s, t, y, ctx)),
                )
                for y in ys
            )
            params = {"q": q, "s": s, "u": u, "t": t, "points": 20}
            reports.append(_max_error_report("chapman", params, 1e-6, pairs))
        # kernel forms of the operators against the exact basis route
        if want("nabla-numeric") or want("delta-numeric"):
            fs = [QPolynomial.x_power(n) for n in range(0, 7)]
            fs.append(QPolynomial.from_xt_terms({(3, 1): 2.0, (1, 0): -1.0, (0, 2): 0.5}))
            for s in (0.5, 1.0):
                edge = support_halfwidth(q * s, q)
                for x in (np.linspace(-0.8, 0.8, 5) * edge).tolist():
                    params = {"q": q, "s": s, "x": x, "degree_max": 6}
                    if want("nabla-numeric"):
                        pairs = (
                            (nabla_numeric(f, x, s, ctx), float(nabla_exact(f, ctx)(x, s)))
                            for f in fs
                        )
                        reports.append(_max_error_report("nabla-numeric", params, 1e-7, pairs))
                    if want("delta-numeric"):
                        pairs = (
                            (
                                delta_numeric(f, x, s, ctx, rel_tol=1e-9),
                                float(delta_exact(f, ctx)(x, s)),
                            )
                            for f in fs
                            if f.degree >= 2
                        )
                        reports.append(_max_error_report("delta-numeric", params, 1e-6, pairs))
    return reports


# ---------------------------------------------------------------------------
# Monte Carlo suite
# ---------------------------------------------------------------------------

def _default_mc_plan() -> list[tuple[str, dict]]:
    plan: list[tuple[str, dict]] = []
    for q in (0.2, 0.5, 0.8):
        for degree in range(4):
            plan.append(("isometry", {"q": q, "t": 1.0, "xdegree": degree}))
    for r in (0.0, 0.5, 1.0):
        plan.append(("ez2", {"r": r, "q": 0.5}))
        plan.append(("ez4", {"r": r, "q": 0.5}))
    plan.append(("increment-4th", {"q": 0.5, "t": 1.0, "s": 0.5}))
    plan.append(("increment-4th", {"q": 0.8, "t": 1.0, "s": 0.8}))
    plan.append(("cross-22", {"q": 0.5, "t1": 0.125, "t2": 0.25, "u1": 0.5, "u2": 1.0}))
    plan.append(("cross-13", {"q": 0.5, "t1": 0.125, "t2": 0.25, "u1": 0.5, "u2": 1.0}))
    plan.append(("stoch-exp-mean", {"q": 0.5, "a": 0.5, "c": 2.0, "t": 0.5}))
    plan.append(("stoch-exp-mean", {"q": 0.8, "a": 0.5, "c": 1.0, "t": 1.0}))
    for q in (0.2, 0.5, 0.8):
        plan.append(("variance-horizon", {"q": q, "t": 1.0}))
    for k in (1, 2, 3):
        plan.append(("hermite-increment-2nd", {"q": 0.5, "t": 1.0, "s": 0.5, "k": k}))
    plan.append(("increment-orthogonality", {"q": 0.5, "t": 1.0, "n": 2}))
    return plan


def run_mc_suite(
    n_paths: int = 10**5,
    seed: int = 2024,
    threshold: float = Z_THRESHOLD,
    only: set[str] | None = None,
) -> list[VerificationReport]:
    """All registered MC checks; a failing check is rerun once on the next
    n_paths seeds, a batch disjoint from the first (path i uses seed + i)."""
    selected = selected_checks(only, "mc")
    reports = []
    try:
        for name, params in _default_mc_plan():
            if selected is not None and name not in selected:
                continue
            def run(use_seed: int) -> VerificationReport:
                if name == "isometry":
                    ctx = QContext.numeric(params["q"])
                    x_power = QPolynomial.x_power(params["xdegree"])
                    f = PolynomialIntegrand.from_qpolynomial(x_power, ctx)
                    return mc_isometry(
                        f, params["t"], params["q"], n_paths, use_seed, threshold
                    )
                return mc_moment(name, params, n_paths, use_seed, threshold)
            rep = run(seed)
            if not rep.passed:
                rep = run(seed + n_paths)
                rep = replace(rep, params={**rep.params, "reran": True})
            reports.append(rep)
    finally:
        # the batches are shared between checks of one run only
        _BATCH_CACHE.clear()
    return reports


# ---------------------------------------------------------------------------
# pathwise convergence suite
# ---------------------------------------------------------------------------

def _random_qpolynomial(rng: np.random.Generator, x_degree: int, t_degree: int) -> QPolynomial:
    cols = tuple(
        Poly(rng.uniform(-1.0, 1.0, size=t_degree + 1).tolist())
        for _ in range(x_degree + 1)
    )
    return QPolynomial(cols)


def _abs_parts(f: QPolynomial, ctx: QContext) -> tuple[QPolynomial, QPolynomial, QPolynomial]:
    """f, its time q-derivative and its second-order part, each with every
    coefficient replaced by its absolute value."""

    def absolute(p: QPolynomial) -> QPolynomial:
        return QPolynomial(tuple(Poly([abs(c) for c in col.coeffs]) for col in p.coeffs))

    return absolute(f), absolute(f.dq_time(ctx)), absolute(delta_exact(f, ctx))


def _rounding_scale(parts: tuple[QPolynomial, ...], path: GeometricPath, q: float) -> float:
    """Summed magnitudes of the float arithmetic in ito_decompose along a path.

    parts is _abs_parts(f, ctx): f, its time q-derivative and its
    second-order part are evaluated with absolute coefficients at |B_k| over
    the steps the decomposition sums, so terms that cancel still count.  f is
    counted three times per node, which covers its uses there: the left side
    and both ends of the gradient steps.  Rounding error stays a small
    multiple of eps times this scale.
    """
    grid = path.grid
    xs = np.abs(np.asarray(path.values, dtype=float))
    ts = np.asarray(grid.times, dtype=float)
    fa, da, sa = parts
    steps = (1.0 - q) * ts[:-1] * (da(xs[1:], ts[:-1]) + sa(xs[1:], ts[:-1]))
    return float(3.0 * np.sum(fa(xs, ts)) + fa(0.0, 0.0) + np.sum(steps))


def run_convergence_suite(
    qs: Sequence[float] = (0.5, 0.8),
    t: float = 1.0,
    depths: Sequence[int] = (20, 40, 80),
    n_paths: int = 20,
    n_polys: int = 20,
    seed: int = 11,
    only: set[str] | None = None,
) -> list[VerificationReport]:
    """Pathwise residual decay for the change-of-variable identity and the
    exponential's integral equation as the grid deepens.

    The truncated change-of-variable residual equals |f(B_K, t_K) - f(0, 0)|,
    so it must fall under the analytic tail bound at every depth and shrink
    as K grows, and the float decomposition must reproduce it to 64 eps
    times its rounding scale; the exponential residual also carries a series
    tail.
    """
    selected = selected_checks(only, "convergence")
    reports: list[VerificationReport] = []
    for q in qs:
        ctx = QContext.numeric(q)
        if selected is None or "ito-convergence" in selected:
            rng = np.random.default_rng(seed)
            polys = [_random_qpolynomial(rng, 6, 2) for _ in range(n_polys)]
            grids = [GeometricGrid.build(q=q, t=t, depth=K) for K in depths]
            eps = float(np.finfo(float).eps)
            per_depth: dict[int, list[float]] = {g.K: [] for g in grids}
            worst_ratio = 0.0
            bounded = True
            decomposed = True
            for i, p in enumerate(polys):
                parts = _abs_parts(p, ctx)
                # path j of polynomial i uses seed + 1000 i + j on every grid
                batches = [simulate_batch(g, n_paths, seed + 1000 * i, ctx) for g in grids]
                for j in range(n_paths):
                    for grid, batch in zip(grids, batches):
                        path = batch.path(j)
                        dec = ito_decompose(p, path, ctx)
                        # direct boundary form; free of the cancellation
                        # noise carried by the four decomposition terms
                        boundary = abs(
                            float(p(path.values[grid.K], grid.times[grid.K]))
                            - float(p(0.0, 0.0))
                        )
                        bound = dec.tail_bound
                        per_depth[grid.K].append(boundary)
                        worst_ratio = max(worst_ratio, boundary / bound)
                        if boundary > bound:
                            bounded = False
                        noise = 64.0 * eps * _rounding_scale(parts, path, ctx.qf)
                        if abs(dec.residual - boundary) > noise:
                            decomposed = False
            means = [sum(per_depth[g.K]) / len(per_depth[g.K]) for g in grids]
            monotone = all(b < a for a, b in zip(means, means[1:]))
            reports.append(
                VerificationReport(
                    name="ito-convergence",
                    params={
                        "q": q,
                        "t": t,
                        "depths": list(depths),
                        "n_paths": n_paths,
                        "n_polys": n_polys,
                        "seed": seed,
                        "mean_residuals": means,
                        "worst_bound_ratio": worst_ratio,
                    },
                    passed=monotone and bounded and decomposed,
                    tolerance=1.0,
                    kind="exact",
                    residual=worst_ratio,
                )
            )
        if selected is None or "sde-residual" in selected:
            a, c = 0.5, 2.0
            horizon = 0.5
            # the truncation is dominated by the deepest grid value, of size
            # at most 2 sqrt(t_K / (1-q)); allow a factor-4 margin on a*c*that
            t_deep = horizon * q ** depths[-1]
            tol = 8.0 * a * c * math.sqrt(t_deep / (1.0 - q))
            worst_final = 0.0
            monotone = True
            for j in range(5):
                prev = None
                for K in depths:
                    grid = GeometricGrid.build(q=q, t=horizon, depth=K)
                    path = simulate_path(grid, seed=seed + 77 * j, ctx=ctx)
                    res = sde_residual(a, c, path, ctx, degree=30)
                    if prev is not None and not (res < prev or res < 1e-300):
                        monotone = False
                    prev = res
                worst_final = max(worst_final, prev)
            passed = monotone and worst_final <= tol
            reports.append(
                VerificationReport(
                    name="sde-residual",
                    params={
                        "q": q,
                        "a": a,
                        "c": c,
                        "t": horizon,
                        "depths": list(depths),
                        "seed": seed,
                        "worst_final_residual": worst_final,
                    },
                    passed=passed,
                    tolerance=tol,
                    kind="exact",
                    residual=worst_final,
                )
            )
    return reports
