"""Closed-form moment oracles and the verification harness.

Every check is one _Check record: the name, params, tolerance and kind its
report carries, the evaluation its values come from, and its gate.  Records
with an equal group share one evaluation over all their items: quadrature
records that share a density are one stacked integrate call, those of one
operator at one (q, s) one batch of kernel-form entries, Monte Carlo records
of one (q, t) one batch of paths, and the sampler-bias and convergence
records one call per q.  The gate turns a record's values into its report,
through the one constructor, _report.

Four suites back the library's quantitative claims:

  * run_identity_suite: zero-tolerance algebraic identities in rational
    arithmetic (basis recurrence, by-parts, operator lemmas, telescoped
    integral formulas, moment-ratio algebra), symbolic in t where possible
    and otherwise on grids with free rational values;
  * run_quadrature_suite: density normalizations, moments, martingale and
    conditional-moment formulas, Chapman-Kolmogorov, the agreement of
    kernel-quadrature operators with their exact counterparts, and the
    sampler's bias, by a u-quadrature pushed through its one-step draw;
  * run_mc_suite: Monte Carlo estimates against exact oracles, gated at
    |z| <= 4; a failing check is rerun once, alone, on a disjoint batch;
  * run_convergence_suite: pathwise residuals of the change-of-variable
    identity and of the exponential's integral equation as the grid deepens.

CHECKS names every report the suites emit and maps it to its suite; the
suites' only= filters and the command line's --only both read it.

A Monte Carlo check keeps only the count, sum and centred sum of squares of
its samples (numpy's pairwise sums per MC_CHUNK paths, merged in chunk
order), so reductions are deterministic for a fixed seed and platform and
memory does not grow with the number of paths.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .measures import (
    draw_transition_batch,
    integrate,
    marginal_spec,
    scaled_transition_table,
    support_halfwidth,
    table_quadrature,
    transition_density,
    transition_spec,
)
from .process import GeometricGrid, GeometricPath, PathBatch, _csv_rows, simulate_batch
from .qcore import Poly, QContext, Scalar, q_factorial, q_int
from .qhermite import QPolynomial, hermite_eval_sequence, qhermite
from .qito import (
    a_operator,
    delta_exact,
    delta_numeric_batch,
    ito_decompose,
    ito_decompose_batch,
    nabla_exact,
    nabla_numeric_batch,
)
from .stochint import (
    PolynomialIntegrand,
    def_tail_bound,
    deterministic_integral,
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
    "MC_CHUNK",
    "CHECKS",
    "selected_checks",
    "run_identity_suite",
    "run_quadrature_suite",
    "run_mc_suite",
    "run_convergence_suite",
    "CONVERGENCE_SEEDS",
    "seed_span",
    "reports_to_csv",
]

#: a verify run's defaults: the Monte Carlo pass threshold on |z|, paths per batch
Z_THRESHOLD = 4.0
MC_PATHS = 10**5


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


def _ez4_numerator(r, q: Scalar) -> Scalar:
    """The polynomial factor in q shared by E(Z**4) and the kurtosis ratio."""
    return (
        2
        + 3 * q
        - 6 * _qpow(q, r + 1)
        + _qpow(q, r + 2)
        + 4 * _qpow(q, 2 * r + 1)
        - 3 * _qpow(q, 2 * r + 2)
        - _qpow(q, 3 * r + 3)
    )


def oracle_EZ4(r, q: Scalar) -> Scalar:
    """Fourth moment of the integral of s**r over [0, 1], closed form."""
    if r < 0:
        raise ValueError("exponent r must be nonnegative")
    num = (1 - q) ** 2 * _ez4_numerator(r, q)
    den = (
        (1 - _qpow(q, r + 1))
        * (1 - _qpow(q, 2 * r + 1)) ** 2
        * (1 + _qpow(q, 2 * r + 1))
    )
    return num / den


def kurtosis_ratio(r, q: Scalar) -> Scalar:
    """E(Z**4)/E(Z**2)**2 for Z the integral of s**r; varies with r."""
    if r < 0:
        raise ValueError("exponent r must be nonnegative")
    return _ez4_numerator(r, q) / ((1 - _qpow(q, r + 1)) * (1 + _qpow(q, 2 * r + 1)))


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
        if not self.std_error > 0.0:
            raise ValueError("std_error must be positive")

    @property
    def z(self) -> float:
        return (self.estimate - self.oracle) / self.std_error

    def to_json_dict(self) -> dict:
        return {**asdict(self), "z": self.z}


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
        return {**asdict(self), "estimate": None if self.estimate is None else self.estimate.to_json_dict()}

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
    """The reports as CSV text through _csv_rows: CSV_HEADER, then each csv_row."""
    text = io.StringIO()
    rows = _csv_rows(text)
    rows.writerow(CSV_HEADER)
    rows.writerows(r.csv_row() for r in reports)
    return text.getvalue()


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
            "delta-numeric", "sampler-bias",
        ),
        "quadrature",
    ),
    **dict.fromkeys(
        (
            "isometry", "ez2", "ez4", "increment-4th", "cross-22", "cross-13", "stoch-exp-mean",
            "variance-horizon", "hermite-increment-2nd", "increment-orthogonality",
        ),
        "mc",
    ),
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


@dataclass(frozen=True)
class _Check:
    """One check: the name, params, tolerance and kind its report carries,
    where its values come from, and its gate.

    The records of one group, (evaluate, *args), share one call
    evaluate(their items in order, *args, *run), run being the suite's run
    arguments (_evaluate).  It returns their values in order: one per ref
    (the oracles the gate compares them with), or, for a record without
    refs, one per item.  A record with no group holds its values as its
    items.  gate(check, values) returns (passed, residual, params to add),
    the residual being the McEstimate for kind "mc".
    """

    name: str
    params: dict
    tol: float
    kind: str  # "exact" | "quadrature" | "mc"
    gate: Callable
    group: tuple = ()
    items: tuple = ()
    refs: tuple = ()


def _report(c: _Check, values: Sequence) -> VerificationReport:
    """The report of c on its values, as its gate judges them."""
    passed, residual, added = c.gate(c, values)
    residual, estimate = (None, residual) if c.kind == "mc" else (residual, None)
    return VerificationReport(c.name, {**c.params, **added}, bool(passed), c.tol, c.kind, residual, estimate)


def _only(plan: Sequence[_Check], only: set[str] | None, suite: str) -> list[_Check]:
    """The records of plan whose names only selects for the suite."""
    selected = selected_checks(only, suite)
    return [c for c in plan if selected is None or c.name in selected]


def _evaluate(plan: Sequence[_Check], *run) -> list[list]:
    """The values of each record of plan (see _Check), evaluated once per
    group, in the order the groups first appear."""
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(plan):
        if c.group:
            groups.setdefault(c.group, []).append(i)
    values = [list(c.items) for c in plan]
    for (evaluate, *args), mine in groups.items():
        flat = iter(evaluate([item for i in mine for item in plan[i].items], *args, *run))
        for i in mine:
            values[i] = [next(flat) for _ in plan[i].refs or plan[i].items]
    return values


def _run(plan: Sequence[_Check], only: set[str] | None, suite: str) -> list[VerificationReport]:
    """The reports of the records of plan that only selects for the suite."""
    plan = _only(plan, only, suite)
    return [_report(c, values) for c, values in zip(plan, _evaluate(plan))]


def _each(items: Sequence, evaluate: Callable, *args) -> list:
    """evaluate(item, *args) for each item: a group of one call per item."""
    return [evaluate(item, *args) for item in items]


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


def _exact(c: _Check, values: list) -> tuple:
    """Gate of a zero-tolerance identity: its one residual is zero."""
    residual = float(values[0])
    return residual == 0.0, residual, {}


def _poly_residual(p: Poly, r: Poly) -> Fraction:
    d = p - r
    return sum((abs(c) for c in d.coeffs), Fraction(0))


def _qpoly_residual(p: QPolynomial, r: QPolynomial) -> Fraction:
    d = p - r
    return sum((_poly_residual(c, Poly()) for c in d.coeffs), Fraction(0))


def _identity_checks(q: Fraction, seed: int):
    """(name, params, residual) of each identity at q, in report order."""
    ctx = QContext.exact(q)
    rng = np.random.default_rng(seed)
    qs = {"q": str(q)}

    # three-term recurrence, n <= 12
    res = Fraction(0)
    for n in range(1, 12):
        lhs = qhermite(n, ctx).mul_x()
        rhs = qhermite(n + 1, ctx) + q_int(n, ctx) * qhermite(n - 1, ctx).mul_t()
        res += _qpoly_residual(lhs, rhs)
    yield "recurrence", {**qs, "n_max": 12}, res

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
    yield "byparts", {**qs, "degree_max": 8}, res

    res = Fraction(0)
    for _ in range(6):
        p = _rational_poly(rng, int(rng.integers(0, 9)))
        res += _poly_residual(p.jackson_antiderivative(ctx).q_derivative(ctx), p)
        res += _poly_residual(
            p.q_derivative(ctx).jackson_antiderivative(ctx),
            p - Poly.const(p(Fraction(0))),
        )
    yield "antiderivative", {**qs, "degree_max": 8}, res

    # q-product rule D(ab) = a Db + b(q.) Da
    res = Fraction(0)
    for _ in range(6):
        a = _rational_poly(rng, int(rng.integers(0, 9)))
        b = _rational_poly(rng, int(rng.integers(0, 9)))
        lhs = (a * b).q_derivative(ctx)
        rhs = a * b.q_derivative(ctx) + b.scale_arg(q) * a.q_derivative(ctx)
        res += _poly_residual(lhs, rhs)
    yield "product-rule", {**qs, "degree_max": 8}, res

    # gradient lemma: nabla h_{m+1} = [m+1] h_m, m <= 8
    res = Fraction(0)
    for m in range(0, 8):
        lhs = nabla_exact(qhermite(m + 1, ctx), ctx)
        rhs = q_int(m + 1, ctx) * qhermite(m, ctx)
        res += _qpoly_residual(lhs, rhs)
    yield "lemma-nabla", {**qs, "m_max": 8}, res

    # generator lemma: A h_m = [m] h_{m-1}(x; q t), m <= 8
    res = Fraction(0)
    for m in range(1, 9):
        lhs = a_operator(qhermite(m, ctx), ctx)
        rhs = q_int(m, ctx) * qhermite(m - 1, ctx).subs_t_scale(q)
        res += _qpoly_residual(lhs, rhs)
    yield "lemma-A", {**qs, "m_max": 8}, res

    # harmonicity: (D_t + delta) h_m = 0, m <= 8
    res = Fraction(0)
    for m in range(0, 9):
        h = qhermite(m, ctx)
        res += _qpoly_residual(delta_exact(h, ctx) + h.dq_time(ctx), QPolynomial.zero())
    yield "harmonicity", {**qs, "m_max": 8}, res

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
    yield "wdw", {**qs, "n_max": 5, "K": grid.K}, res

    val = integrate_def(
        PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(1), ctx), path, ctx
    ).value
    expected = ((path.values[0] ** 2 - grid.times[0]) - (path.values[grid.K] ** 2 - grid.times[grid.K])) / (
        1 + q
    )
    yield "bdb", {**qs, "K": grid.K}, abs(val - expected)

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
    yield "x2-formula", {**qs, "K": grid.K}, abs(val - expected)

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
    yield "onestep-byparts", {**qs, "m_max": 3, "K": grid.K}, res

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
    yield "def-vs-byparts", {**qs, "K": grid.K}, res

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
    yield "ito-telescoping", {**qs, "K": grid.K, "degree": 4}, res

    # moment-ratio algebra at r = 0
    ratio = oracle_EZ4(0, q) / oracle_EZ2(0, q) ** 2
    yield "kurtosis-r0", qs, abs(ratio - (2 + q))

    # the ratio moves with r (law depends on the integrand)
    yield "kurtosis-varies", qs, 0.0 if kurtosis_ratio(0, q) != kurtosis_ratio(1, q) else 1.0


def run_identity_suite(
    seed: int = 7,
    qs: Sequence[Fraction] = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)),
    only: set[str] | None = None,
) -> list[VerificationReport]:
    """Zero-tolerance rational-arithmetic identity checks across q values."""
    plan = [_Check(name, params, 0.0, "exact", _exact, items=(residual,))
            for q in qs for name, params, residual in _identity_checks(Fraction(q), seed)]
    return _run(plan, only, "identities")


# ---------------------------------------------------------------------------
# quadrature suite
# ---------------------------------------------------------------------------

def _integrate_rows(gs, spec) -> np.ndarray:
    """One integrate call over the stacked rows of the elementwise integrands gs."""
    return integrate(lambda y: np.vstack([g(y) for g in gs]), spec)


def _quad_plan(qs: Sequence[float], ts: Sequence[float]) -> list[_Check]:
    """Every quadrature check, in report order: its values against its
    refs, one each.  Integrands bind the loop variables they use, since they
    run after the plan is built."""
    plan: list[_Check] = []

    def add(name: str, params: dict, tol: float, leg: tuple, items, refs) -> None:
        plan.append(_Check(name, params, tol, "quadrature", _quad, leg, tuple(items), tuple(refs)))

    one = lambda y: np.ones_like(y)
    for q in qs:
        ctx = QContext.numeric(q)
        for t in ts:
            leg = (_integrate_rows, marginal_spec(ctx, t))
            add("normalization", {"q": q, "t": t, "kind": "marginal"}, 1e-8, leg, [one], [1.0])
            add("variance", {"q": q, "t": t}, 1e-7, leg, [lambda y: y * y], [t])
            add("fourth-moment", {"q": q, "t": t}, 1e-7, leg, [lambda y: y**4], [(2.0 + q) * t * t])
            for s in (0.0, t * 0.25, t * 0.5):
                half = 0.5 * support_halfwidth(s, q)
                for x in [0.0] if s == 0.0 else [0.0, half, -half]:
                    leg = (_integrate_rows, transition_spec(ctx, s=s, t=t, x=x))
                    base = {"q": q, "t": t, "s": s, "x": x}
                    add("normalization", {**base, "kind": "transition"}, 1e-8, leg, [one], [1.0])
                    add("martingale", {**base, "n_max": 6}, 1e-7, leg,
                        [lambda y, n=n, t=t, ctx=ctx: hermite_eval_sequence(n, y, t, ctx)[n]
                         for n in range(1, 7)],
                        [float(hermite_eval_sequence(n, x, s, ctx)[n]) for n in range(1, 7)])
                    ref4 = (
                        x**4
                        + (t - s) * (3.0 + 2.0 * q + q * q) * x * x
                        + (t - s) * ((2.0 + q) * t - (1.0 + q + q * q) * s)
                    )
                    add("cond-quadratic", base, 1e-7, leg, [lambda y: y * y], [x * x + t - s])
                    add("cond-cubic", base, 1e-7, leg, [lambda y: y**3],
                        [x**3 + (t - s) * (2.0 + q) * x])
                    add("cond-quartic", base, 1e-7, leg, [lambda y: y**4], [ref4])
        # orthogonality at t = 1: h_n h_m -> delta [n]! t**n
        pairs = [(n, m) for n in range(0, 9) for m in range(n, 9)]
        add("orthogonality", {"q": q, "t": 1.0, "n_max": 8}, 1e-7,
            (_integrate_rows, marginal_spec(ctx, 1.0)),
            [lambda y, n=n, m=m, ctx=ctx: hermite_eval_sequence(n, y, 1.0, ctx)[n]
             * hermite_eval_sequence(m, y, 1.0, ctx)[m] for n, m in pairs],
            [float(q_factorial(n, ctx)) if n == m else 0.0 for n, m in pairs])
        # Chapman-Kolmogorov spot check at 20 target points; the second leg
        # is one density call over all middle states z and target points y
        s, u, t = 0.25, 0.5, 1.0
        x = 0.3 * support_halfwidth(s, q)
        ys = np.linspace(-0.9, 0.9, 20) * support_halfwidth(t, q)
        add("chapman", {"q": q, "s": s, "u": u, "t": t, "points": 20}, 1e-6,
            (_integrate_rows, transition_spec(ctx, s=s, t=u, x=x)),
            [lambda z, ys=ys, u=u, t=t, ctx=ctx: transition_density(z, u, t, ys[:, None], ctx)],
            [float(transition_density(x, s, t, y, ctx)) for y in ys])
        # kernel forms of the operators against the exact basis route
        fs = [QPolynomial.x_power(n) for n in range(0, 7)]
        fs.append(QPolynomial.from_xt_terms({(3, 1): 2.0, (1, 0): -1.0, (0, 2): 0.5}))
        grads = [nabla_exact(f, ctx) for f in fs]
        seconds = [(f, delta_exact(f, ctx)) for f in fs if f.degree >= 2]
        for s in (0.5, 1.0):
            edge = support_halfwidth(q * s, q)
            for x in (np.linspace(-0.8, 0.8, 5) * edge).tolist():
                params = {"q": q, "s": s, "x": x, "degree_max": 6}
                add("nabla-numeric", params, 1e-7, (nabla_numeric_batch, s, ctx),
                    [(x, f) for f in fs], [float(g(x, s)) for g in grads])
                add("delta-numeric", params, 1e-6, (delta_numeric_batch, s, ctx, 1e-9),
                    [(x, f) for f, _ in seconds], [float(d(x, s)) for _, d in seconds])
    plan += [_Check("sampler-bias", {"q": q, "points": SAMPLER_POINTS}, SAMPLER_TOL, "quadrature",
                    _sampler, (_each, sampler_bias), (q,)) for q in qs]
    return plan


def _quad(c: _Check, values: list) -> tuple:
    """Gate of a quadrature check: each value's error from its ref,
    relative with a unit floor, is at most the tolerance.  A check of one
    value reports its error and adds the value and its oracle to the
    params; a check of several reports the worst relative error."""
    got = [float(v) for v in values]  # a leg returns an array; reports hold Python floats
    if len(got) == 1:
        value, oracle = got[0], float(c.refs[0])
        err = abs(value - oracle)
        return err <= c.tol * max(1.0, abs(oracle)), err, {"oracle": oracle, "value": value}
    err = max([0.0, *(abs(value - ref) / max(1.0, abs(ref)) for value, ref in zip(got, c.refs))])
    return err <= c.tol, err, {}


#: gate of the sampler-bias check, and its Gauss-Legendre points per knot
#: interval: exact for the second moments of a table's draws
SAMPLER_TOL = 1e-6
SAMPLER_POINTS = 5


def sampler_bias(q: float, points: int = SAMPLER_POINTS) -> tuple[list[float], float, float]:
    """(states, worst variance error, worst mean error) of the sampler's
    one-step draws at q, by a deterministic u-quadrature pushed through
    draw_transition_batch.

    The scaled states are the centre row, halfway to the next row, 0.37 of
    the way to the edge, halfway between the two rows at the lower edge, a
    quarter of a row in from the upper edge, and the edge row.  The errors
    are relative to the conditional variance 1 - q and, for the mean, over
    the step's standard deviation sqrt(1 - q).  table_quadrature(points) is
    exact for the table's interpolant at 5 points or more, so the figures
    carry only rounding (a 7-point rule agrees to 1e-13).
    """
    table = scaled_transition_table(q)
    xg = table.x_grid
    edge, dx = float(xg[-1]), float(xg[1] - xg[0])
    states = [0.0, 0.5 * dx, 0.37 * edge, 0.5 * dx - edge, edge - 0.25 * dx, edge]
    u, weights = table_quadrature(points)
    var_err = mean_err = 0.0
    for x in states:
        y = draw_transition_batch(table, np.full(u.shape, x), u)
        mean = float(weights @ y)
        var = float(weights @ np.square(y - mean))
        var_err = max(var_err, abs(var / (1.0 - q) - 1.0))
        mean_err = max(mean_err, abs(mean - x) / math.sqrt(1.0 - q))
    return states, var_err, mean_err


def _sampler(c: _Check, values: list) -> tuple:
    """Gate of a sampler-bias check: the worse of its two errors is at most
    the tolerance."""
    ((states, var_err, mean_err),) = values
    worst = max(var_err, mean_err)
    return worst <= c.tol, worst, {"states": states, "variance_error": var_err, "mean_error": mean_err}


def run_quadrature_suite(
    only: set[str] | None = None,
    qs: Sequence[float] = (0.2, 0.5, 0.8),
    ts: Sequence[float] = (0.25, 1.0, 4.0),
) -> list[VerificationReport]:
    """Density, moment, martingale, and operator checks by quadrature, and
    the sampler's bias at each q: one evaluation per distinct leg, over the
    items of every check that shares it."""
    return _run(_quad_plan(qs, ts), only, "quadrature")


# ---------------------------------------------------------------------------
# Monte Carlo suite
# ---------------------------------------------------------------------------

#: paths simulated and reduced at a time; a run of at most this many paths is
#: one chunk, reduced exactly as np.sum and np.std(ddof=1) reduce it
MC_CHUNK = 10**5


def _grid_index(grid: GeometricGrid, s: float) -> int:
    for k, tk in enumerate(grid.times):
        if abs(float(tk) - s) <= 1e-12 * max(1.0, s):
            return k
    raise ValueError(f"time {s} is not on the geometric grid")


def _hermite_at(n: int, batch: PathBatch, k: int) -> np.ndarray:
    """h_n(B_k; t_k) per path, at grid column k."""
    ctx = QContext.numeric(batch.grid.q)
    return hermite_eval_sequence(n, batch.values[:, k], batch.grid.times[k], ctx)[n]


def _mc_plan(threshold: float) -> list[_Check]:
    """Every Monte Carlo check, in report order: stat(chunk) of the (q, t)
    paths has mean oracle.  add() puts K in the params."""
    plan: list[_Check] = []

    def add(name: str, params: dict, t: float, oracle, stat) -> None:
        q = params["q"]
        params = {**params, "K": GeometricGrid.build(q=q, t=t).K}
        plan.append(_Check(name, params, threshold, "mc", _mc, (_mc_estimates, q, t), ((stat, float(oracle)),)))

    # the q-isometry: E[(integral of x**degree)**2] in Jackson-integral form
    for q in (0.2, 0.5, 0.8):
        ctx = QContext.numeric(q)
        grid = GeometricGrid.build(q=q, t=1.0)
        for degree in range(4):
            f = PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(degree), ctx)
            rhs = float(isometry_second_moment(f, 1.0, ctx))
            tail = def_tail_bound(f, grid, ctx)
            bias = 2.0 * math.sqrt(max(rhs, 0.0)) * tail + tail * tail
            params = {"degree": f.degree, "t": 1.0, "q": q, "truncation_bias_bound": bias}
            add("isometry", params, 1.0, rhs,
                lambda b, f=f, ctx=ctx: np.square(integrate_def_batch(f, b, ctx)))

    q = 0.5
    k = GeometricGrid.build(q=q, t=1.0).K
    for r in (0.0, 0.5, 1.0):
        oracle = float(oracle_EZ2(r, q))
        truncated = (1.0 - q) * (1.0 - q ** ((2 * r + 1) * k)) / (1.0 - q ** (2 * r + 1))
        power = lambda t, r=r: float(t) ** r
        add("ez2", {"r": r, "q": q, "truncation_bias": oracle - truncated}, 1.0, oracle,
            lambda b, power=power: np.square(deterministic_integral(power, b)))
        oracle = float(oracle_EZ4(r, q))
        add("ez4", {"r": r, "q": q, "truncation_bias_bound": 8.0 * q**k * oracle}, 1.0, oracle,
            lambda b, power=power: deterministic_integral(power, b) ** 4)

    for q, s in ((0.5, 0.5), (0.8, 0.8)):
        j = _grid_index(GeometricGrid.build(q=q, t=1.0), s)
        add("increment-4th", {"q": q, "t": 1.0, "s": s}, 1.0, oracle_increment_4th(s, 1.0, q),
            lambda b, j=j: (b.values[:, 0] - b.values[:, j]) ** 4)

    # E[moment(dt, du)] for the increments dt over [t1, t2] and du over [u1, u2]
    q, t1, t2, u1, u2 = 0.5, 0.125, 0.25, 0.5, 1.0
    cols = [_grid_index(GeometricGrid.build(q=q, t=u2), s) for s in (t1, t2, u1, u2)]
    for name, factor, moment in (
        ("cross-22", 1.0, lambda dt, du: dt * dt * du * du),
        ("cross-13", -(1.0 - q), lambda dt, du: dt * du**3),
    ):
        add(name, {"q": q, "t1": t1, "t2": t2, "u1": u1, "u2": u2}, u2,
            factor * (u2 - u1) * (t2 - t1),
            lambda b, m=moment, c=cols: m(b.values[:, c[1]] - b.values[:, c[0]],
                                          b.values[:, c[3]] - b.values[:, c[2]]))

    for q, a, c, t in ((0.5, 0.5, 2.0, 0.5), (0.8, 0.5, 1.0, 1.0)):
        add("stoch-exp-mean", {"q": q, "a": a, "c": c, "t": t}, t, c,
            lambda b, a=a, c=c, t=t, ctx=QContext.numeric(q): np.asarray(
                stochastic_exponential(a, c, b.horizon_values, t, ctx)))

    for q in (0.2, 0.5, 0.8):
        add("variance-horizon", {"q": q, "t": 1.0}, 1.0, 1.0, lambda b: np.square(b.horizon_values))

    q, t, s = 0.5, 1.0, 0.5
    j = _grid_index(GeometricGrid.build(q=q, t=t), s)
    for k in (1, 2, 3):
        add("hermite-increment-2nd", {"q": q, "t": t, "s": s, "k": k}, t,
            float(q_factorial(k, QContext.numeric(q))) * (t**k - s**k),
            lambda b, k=k, j=j: np.square(_hermite_at(k, b, 0) - _hermite_at(k, b, j)))
    add("increment-orthogonality", {"q": q, "t": t, "n": 2}, t, 0.0,
        lambda b: (_hermite_at(2, b, 0) - _hermite_at(2, b, 1))
        * (_hermite_at(2, b, 1) - _hermite_at(2, b, 2)))
    return plan


def _add_chunk(acc: tuple | None, x: np.ndarray) -> tuple[int, float, float]:
    """(n, sum, M2) of the samples so far, acc, and the chunk x together; M2,
    the centred sum of squares, is computed as np.std computes it, and chunks
    merge by the update of Chan, Golub & LeVeque (1983)."""
    n, total = x.shape[0], float(np.sum(x))
    d = x - total / n
    if acc is None:
        return n, total, float(np.sum(d * d))
    (na, sa, ma), m2 = acc, float(np.sum(d * d))
    delta = total / n - sa / na
    return na + n, sa + total, ma + m2 + delta * delta * (na * n / (na + n))


def _mc_estimates(items: Sequence[tuple], q: float, t: float, n_paths: int, seed: int) -> list[McEstimate]:
    """The estimate of each (stat, oracle) item over the (q, t) paths seeded
    seed + i, i < n_paths.

    The grid is simulated MC_CHUNK paths at a time (chunk c starts at
    seed + c MC_CHUNK), and each item keeps only the moments of its samples,
    merged chunk by chunk in order.
    """
    grid, ctx = GeometricGrid.build(q=q, t=t), QContext.numeric(q)
    moments: list = [None] * len(items)
    for start in range(0, n_paths, MC_CHUNK):
        batch = simulate_batch(grid, min(MC_CHUNK, n_paths - start), seed + start, ctx)
        moments = [_add_chunk(m, stat(batch)) for m, (stat, _) in zip(moments, items)]
        del batch  # free the chunk before the next one is simulated
    return [McEstimate(total / n, math.sqrt(m2 / (n - 1)) / math.sqrt(n), n, seed, oracle)
            for (_, oracle), (n, total, m2) in zip(items, moments)]


def _mc(c: _Check, values: list) -> tuple:
    """Gate of a Monte Carlo check: |z| of its one estimate at most the threshold."""
    (estimate,) = values
    return abs(estimate.z) <= c.tol, estimate, {}


def run_mc_suite(
    n_paths: int = MC_PATHS,
    seed: int = 2024,
    threshold: float = Z_THRESHOLD,
    only: set[str] | None = None,
) -> list[VerificationReport]:
    """Every Monte Carlo check, passed when |z| <= threshold.  A failing check
    is rerun once, alone, on the next n_paths seeds, a batch disjoint from
    the first (path i uses seed + i).  Raises ValueError for n_paths < 2."""
    if n_paths < 2:
        raise ValueError(f"a Monte Carlo run needs at least 2 paths, got {n_paths}")
    plan = _only(_mc_plan(threshold), only, "mc")
    reports = [_report(c, values) for c, values in zip(plan, _evaluate(plan, n_paths, seed))]
    return [r if r.passed else _report(replace(c, params={**c.params, "reran": True}),
                                       _evaluate([c], n_paths, seed + n_paths)[0])
            for c, r in zip(plan, reports)]


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


def _rounding_scale(parts: tuple[QPolynomial, ...], batch: PathBatch, q: float) -> np.ndarray:
    """Summed magnitudes of the float arithmetic in ito_decompose, per path.

    parts is _abs_parts(f, ctx): f, its time q-derivative and its
    second-order part are evaluated with absolute coefficients at |B_k| over
    the steps the decomposition sums, so terms that cancel still count.  f is
    counted three times per node, which covers its uses there: the left side
    and both ends of the gradient steps.  Rounding error stays a small
    multiple of eps times this scale.
    """
    xs = np.abs(batch.values, order="C")  # row sums round as one path's do
    ts = np.asarray(batch.grid.times, dtype=float)
    fa, da, sa = parts
    steps = (1.0 - q) * ts[:-1] * (da(xs[:, 1:], ts[:-1]) + sa(xs[:, 1:], ts[:-1]))
    return 3.0 * np.sum(fa(xs, ts), axis=1) + fa(0.0, 0.0) + np.sum(steps, axis=1)


#: fresh paths per depth in the sde-residual check
SDE_PATHS = 5
#: consecutive path seeds, from its seed on, that run_convergence_suite
#: draws at its defaults: one 20 x 20 batch, which covers the SDE_PATHS
CONVERGENCE_SEEDS = 20 * 20


def seed_span(n_paths: int) -> int:
    """Consecutive path seeds, from its seed on, of a verify run at n_paths: a
    Monte Carlo batch and its rerun batch, and the convergence suite's."""
    return max(2 * n_paths, CONVERGENCE_SEEDS)


def _ito_checks(p: QPolynomial, parts: tuple[QPolynomial, ...], batch: PathBatch, ctx: QContext):
    """(boundary, bound, ok) for p on the batch: each path's boundary residual
    |p(B_K, t_K) - p(0, 0)|, the analytic tail bound, and whether the float
    decomposition reproduces every residual to 64 eps times its rounding
    scale.  parts is _abs_parts(p, ctx)."""
    dec = ito_decompose_batch(p, batch, ctx)
    K = batch.grid.K
    # direct boundary form; free of the cancellation noise carried by the
    # four decomposition terms
    boundary = np.abs(p(batch.values[:, K], batch.grid.times[K]) - float(p(0.0, 0.0)))
    noise = 64.0 * float(np.finfo(float).eps) * _rounding_scale(parts, batch, ctx.qf)
    return boundary, dec.tail_bound, not np.any(np.abs(dec.residual - boundary) > noise)


def _ito_values(q: float, depths: tuple[int, ...], n_paths: int, n_polys: int, seed: int) -> tuple:
    """(mean residual per depth, worst residual over its tail bound, whether
    every residual is under its bound, whether every float decomposition
    reproduces its residual) of n_polys random polynomials at q.

    One n_polys x n_paths batch is drawn at the deepest depth on the horizon
    t = 1 from seed (polynomial i takes rows n_paths i onward) and
    restricted to each depth, so each residual follows one path.
    """
    ctx = QContext.numeric(q)
    rng = np.random.default_rng(seed)
    polys = [_random_qpolynomial(rng, 6, 2) for _ in range(n_polys)]
    deep_grid = GeometricGrid.build(q=q, t=1.0, depth=depths[-1])
    deep = simulate_batch(deep_grid, n_polys * n_paths, seed, ctx)
    per_depth: dict[int, list[float]] = {K: [] for K in depths}
    worst_ratio, bounded, decomposed = 0.0, True, True
    for i, p in enumerate(polys):
        parts = _abs_parts(p, ctx)
        # polynomial i follows rows n_paths i .. n_paths (i + 1) - 1
        rows = slice(n_paths * i, n_paths * (i + 1))
        mine = PathBatch(deep_grid, deep.values[rows], seed + n_paths * i)
        for K in depths:
            boundary, bound, ok = _ito_checks(p, parts, mine.restrict(K), ctx)
            per_depth[K].extend(boundary.tolist())
            worst_ratio = max(worst_ratio, float(np.max(boundary / bound)))
            bounded = bounded and not np.any(boundary > bound)
            decomposed = decomposed and ok
    return [sum(per_depth[K]) / len(per_depth[K]) for K in depths], worst_ratio, bounded, decomposed


def _ito(c: _Check, values: list) -> tuple:
    """Gate of ito-convergence: every residual under its tail bound and
    reproduced by its decomposition, and the mean falling as K grows."""
    ((means, worst_ratio, bounded, decomposed),) = values
    falling = all(b < a for a, b in zip(means, means[1:]))
    return falling and bounded and decomposed, worst_ratio, {"mean_residuals": means, "worst_bound_ratio": worst_ratio}


def _sde_values(q: float, a: float, c: float, t: float, depths: tuple[int, ...], seed: int) -> np.ndarray:
    """sde_residual of the exponential a, c on SDE_PATHS fresh paths from
    seed per depth, up to the horizon t: row d holds the paths at depths[d]."""
    ctx = QContext.numeric(q)
    res = []
    for K in depths:
        batch = simulate_batch(GeometricGrid.build(q=q, t=t, depth=K), SDE_PATHS, seed, ctx)
        res.append([sde_residual(a, c, path, ctx, degree=30) for path in batch])
    return np.array(res)


def _sde(c: _Check, values: list) -> tuple:
    """Gate of sde-residual: falling on every path as K grows, to at most
    the tolerance at the deepest depth."""
    (res,) = values
    falling = bool(np.all((res[1:] < res[:-1]) | (res[1:] < 1e-300)))
    worst_final = float(np.max(res[-1]))
    return falling and worst_final <= c.tol, worst_final, {"worst_final_residual": worst_final}


def run_convergence_suite(
    qs: Sequence[float] = (0.5, 0.8),
    depths: Sequence[int] = (20, 40, 80),
    n_paths: int = 20,
    n_polys: int = 20,
    seed: int = 11,
    only: set[str] | None = None,
) -> list[VerificationReport]:
    """Pathwise residual decay for the change-of-variable identity and the
    exponential's integral equation as the grid deepens.

    ito-convergence follows each residual along one path (_ito_values).  The
    truncated residual equals |f(B_K, t_K) - f(0, 0)|: it must fall under
    the analytic tail bound at every depth and shrink in mean as K grows,
    and the float decomposition must reproduce it to 64 eps times its
    rounding scale.  sde-residual, which also carries a series tail, must
    shrink on every path, which one path need not do as the grid deepens,
    so it draws SDE_PATHS fresh paths per depth.  Both batches start at seed.

    Raises ValueError unless depths is nonempty, strictly increasing and at
    least 1, and n_paths and n_polys are at least 1.
    """
    depths = tuple(depths)
    if not (depths and depths[0] >= 1 and all(a < b for a, b in zip(depths, depths[1:]))):
        raise ValueError(f"depths must be nonempty, strictly increasing and >= 1, got {depths}")
    if n_paths < 1 or n_polys < 1:
        raise ValueError(f"n_paths and n_polys must be at least 1, got {n_paths} and {n_polys}")
    plan: list[_Check] = []
    for q in qs:
        params = {"q": q, "depths": list(depths), "seed": seed}
        plan.append(_Check("ito-convergence", {**params, "t": 1.0, "n_paths": n_paths, "n_polys": n_polys},
                           1.0, "exact", _ito, (_each, _ito_values, depths, n_paths, n_polys, seed), (q,)))
        # the truncation is dominated by the deepest grid value, of size at
        # most 2 sqrt(t_K / (1-q)); allow a factor-4 margin on a*c*that
        a, c, t = 0.5, 2.0, 0.5
        tol = 8.0 * a * c * math.sqrt(t * q ** depths[-1] / (1.0 - q))
        plan.append(_Check("sde-residual", {**params, "a": a, "c": c, "t": t},
                           tol, "exact", _sde, (_each, _sde_values, a, c, t, depths, seed), (q,)))
    return _run(plan, only, "convergence")
