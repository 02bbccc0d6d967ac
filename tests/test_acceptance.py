"""Acceptance gate: five criteria, one pass/fail line each.

Run with -s to see the per-criterion lines on success; pytest shows them on
failure regardless.  Tolerances and budgets: exact suite is zero-tolerance
under 10 s; quadrature 1e-7 (1e-6 nested) under 2 min; Monte Carlo |z| <= 4
with 1e5 paths under 5 min; convergence study under 2 min; classical-limit
checks 5e-2 (operators) and 1e-2 (Jackson vs Riemann) at q = 0.99.
"""

import time
from fractions import Fraction

from qbm.qcore import Poly, QContext, SampledFunction, jackson_integral
from qbm.qhermite import QPolynomial
from qbm.qito import delta_exact, nabla_exact
from qbm.verify import (
    run_convergence_suite,
    run_identity_suite,
    run_mc_suite,
    run_quadrature_suite,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_exact_identities():
    """Rational-arithmetic identity suite, zero tolerance, under 10 s."""
    t0 = time.monotonic()
    reports = run_identity_suite(
        qs=(Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
    )
    elapsed = time.monotonic() - t0
    bad = [r.name for r in reports if not r.passed]
    ok = not bad and elapsed < 10.0
    _report(
        "criterion 1 (exact identities)",
        ok,
        f"{len(reports) - len(bad)}/{len(reports)} checks, {elapsed:.1f}s"
        + (f", failing: {sorted(set(bad))}" if bad else ""),
    )


def test_criterion_2_quadrature():
    """Density and kernel quadrature suite at 1e-7 (1e-6 nested), under 2 min."""
    t0 = time.monotonic()
    reports = run_quadrature_suite(qs=(0.2, 0.5, 0.8), ts=(0.25, 1.0, 4.0))
    elapsed = time.monotonic() - t0
    bad = [r.name for r in reports if not r.passed]
    ok = not bad and elapsed < 120.0
    _report(
        "criterion 2 (quadrature)",
        ok,
        f"{len(reports) - len(bad)}/{len(reports)} checks, {elapsed:.1f}s"
        + (f", failing: {sorted(set(bad))}" if bad else ""),
    )


def test_criterion_3_monte_carlo():
    """MC suite with 1e5 paths, pass iff |z| <= 4, under 5 min."""
    t0 = time.monotonic()
    reports = run_mc_suite(n_paths=10**5, seed=2024, threshold=4.0)
    elapsed = time.monotonic() - t0
    bad = [r.name for r in reports if not r.passed]
    worst = max(abs(r.estimate.z) for r in reports if r.estimate is not None)
    ok = not bad and elapsed < 300.0
    _report(
        "criterion 3 (monte carlo)",
        ok,
        f"{len(reports) - len(bad)}/{len(reports)} checks, worst |z|={worst:.2f}, "
        f"{elapsed:.1f}s" + (f", failing: {sorted(set(bad))}" if bad else ""),
    )


def test_criterion_4_convergence_study():
    """Change-of-variable residuals shrink with depth and obey the bound."""
    t0 = time.monotonic()
    reports = run_convergence_suite(
        qs=(0.5, 0.8), depths=(20, 40, 80), n_paths=20, n_polys=20,
        only={"ito-convergence"},
    )
    elapsed = time.monotonic() - t0
    bad = [r for r in reports if not r.passed]
    worst = max(r.params["worst_bound_ratio"] for r in reports)
    ok = not bad and elapsed < 120.0
    _report(
        "criterion 4 (residual convergence)",
        ok,
        f"{len(reports) - len(bad)}/{len(reports)} configurations, "
        f"worst residual/bound={worst:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_classical_limit():
    """At q = 0.99 the operators and the Jackson integral are near classical."""
    ctx = QContext.numeric(0.99)
    x, s = 1.0, 1.0
    worst_op = 0.0
    for n in (2, 3, 4):
        f = QPolynomial.x_power(n)
        d1 = float(n) * x ** (n - 1)
        d2_half = 0.5 * n * (n - 1) * x ** (n - 2)
        nab = float(nabla_exact(f, ctx)(x, s))
        de = float(delta_exact(f, ctx)(x, s))
        worst_op = max(worst_op, abs(nab - d1) / abs(d1), abs(de - d2_half) / abs(d2_half))

    polys = [
        Poly([0, 1]),
        Poly([1, 1, 1]),
        Poly([1, 3, 3, 1]),
        Poly([2, -1, 1]),
    ]
    worst_j = 0.0
    for p in polys:
        jackson = float(p.jackson_antiderivative(ctx)(1.0))
        riemann = float(sum(Fraction(c) / (j + 1) for j, c in enumerate(p.coeffs)))
        worst_j = max(worst_j, abs(jackson - riemann) / abs(riemann))
    # the series evaluation agrees with the closed form route
    series = jackson_integral(
        SampledFunction.from_callable(
            lambda u: 1.0 + u + u * u, sup_near_zero=3.0
        ),
        1.0,
        ctx,
    )
    worst_j = max(worst_j, abs(series - (1 + 0.5 + 1 / 3)) / (1 + 0.5 + 1 / 3))

    # first-order rate: moving q closer to 1 shrinks the gap
    finer = QContext.numeric(0.999)
    gap = lambda c: abs(float(Poly([0, 1]).jackson_antiderivative(c)(1.0)) - 0.5)
    rate_ok = gap(finer) < gap(ctx)

    ok = worst_op <= 5e-2 and worst_j <= 1e-2 and rate_ok
    _report(
        "criterion 5 (classical limit)",
        ok,
        f"worst operator rel err={worst_op:.4f} (<=0.05), "
        f"worst Jackson rel err={worst_j:.4f} (<=0.01), rate check={rate_ok}",
    )
