"""Difference operators, kernel quadrature forms, change-of-variable residual."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qbm import process, qito, stochint
from qbm import qhermite as qhermite_module
from qbm.process import GeometricGrid, GeometricPath, simulate_batch, simulate_path
from qbm.qcore import Poly, QContext, q_int
from qbm.qhermite import QPolynomial, from_hermite_basis, qhermite, to_hermite_basis
from qbm.qito import (
    a_operator,
    delta_exact,
    delta_numeric,
    ito_decompose,
    ito_decompose_batch,
    ito_tail_bound,
    nabla_exact,
    nabla_numeric,
)

Q23 = Fraction(2, 3)
CTX = QContext.exact(Q23)


def xnterm(n, coeff):
    return QPolynomial.x_power(n, coeff)


def test_nabla_exact_frozen_forms():
    q = Q23
    # gradient of x^2 is (1+q) x
    assert nabla_exact(QPolynomial.x_power(2), CTX) == xnterm(1, 1 + q)
    # gradient of x^3 is [3] x^2 + (1 - q^2) t
    got = nabla_exact(QPolynomial.x_power(3), CTX)
    want = QPolynomial((Poly([0, 1 - q * q]), Poly(), Poly([q_int(3, CTX)])))
    assert got == want
    # gradient of x^4 is [4] x^3 + 125/81 t x at q = 2/3
    got = nabla_exact(QPolynomial.x_power(4), CTX)
    want = QPolynomial(
        (Poly(), Poly([0, Fraction(125, 81)]), Poly(), Poly([q_int(4, CTX)]))
    )
    assert got == want


def test_nabla_of_constant_is_zero():
    assert nabla_exact(QPolynomial.x_power(0), CTX).is_zero()


def test_nabla_lowers_hermite():
    for m in range(7):
        got = nabla_exact(qhermite(m + 1, CTX), CTX)
        assert got == q_int(m + 1, CTX) * qhermite(m, CTX)


def test_a_operator_on_hermite():
    for m in range(1, 7):
        got = a_operator(qhermite(m, CTX), CTX)
        assert got == q_int(m, CTX) * qhermite(m - 1, CTX).subs_t_scale(Q23)


def test_delta_exact_frozen_forms():
    q = Q23
    assert delta_exact(QPolynomial.x_power(2), CTX) == QPolynomial((Poly([1]),))
    assert delta_exact(QPolynomial.x_power(3), CTX) == xnterm(1, 2 + q)
    got = delta_exact(QPolynomial.x_power(4), CTX)
    want = QPolynomial(
        (Poly([0, Fraction(34, 27)]), Poly(), Poly([Fraction(43, 9)]))
    )
    assert got == want


def test_hermite_harmonic():
    """Time derivative plus second-order operator kills every basis member."""
    for m in range(9):
        h = qhermite(m, CTX)
        total = delta_exact(h, CTX) + h.dq_time(CTX)
        assert total.is_zero()


def test_numeric_operators_match_exact():
    ctx = QContext.numeric(0.7)
    s = 1.0
    f = QPolynomial.from_xt_terms({(4, 0): 1.0, (2, 1): -2.0, (1, 0): 0.5, (0, 2): 1.0})
    for x in (-0.8, 0.0, 0.4):
        nab = nabla_numeric(f, x, s, ctx)
        assert nab == pytest.approx(float(nabla_exact(f, ctx)(x, s)), rel=1e-9, abs=1e-9)
        de = delta_numeric(f, x, s, ctx)
        assert de == pytest.approx(float(delta_exact(f, ctx)(x, s)), rel=1e-8, abs=1e-8)


def test_numeric_kernels_have_unit_mass():
    # first divided difference of x integrates to 1, second of x^2 to 1
    ctx = QContext.numeric(0.6)
    assert nabla_numeric(QPolynomial.x_power(1), 0.3, 1.0, ctx) == pytest.approx(
        1.0, abs=1e-9
    )
    assert delta_numeric(QPolynomial.x_power(2), 0.3, 1.0, ctx) == pytest.approx(
        1.0, abs=1e-8
    )


def test_numeric_operators_reject_callables():
    ctx = QContext.numeric(0.7)
    with pytest.raises(TypeError):
        nabla_numeric(lambda y: y**3, 0.35, 1.0, ctx)
    with pytest.raises(TypeError):
        delta_numeric(lambda y: y**3, 0.35, 1.0, ctx)


def _divdiff2_alone(a, x, y, z):
    """One polynomial's second divided difference by its own recurrence."""
    total, h, g, zpow = 0.0 * y * z, 1.0 + 0.0 * y * z, 1.0 + 0.0 * y * z, 1.0 + 0.0 * z
    for n in range(2, len(a)):
        if a[n] != 0.0:
            total = total + a[n] * h
        zpow = zpow * z
        g = g * y + zpow
        h = h * x + g
    return total


def test_shared_divided_differences_match_each_polynomial_alone():
    # one recurrence for several coefficient lists at one x; each total is
    # bit for bit its own recurrence's, whatever the lengths and zeros
    rng = np.random.default_rng(4)
    polys = [[0.0, 1.0, 0.0, 1.0], [2.0, -1.0, 0.5, 0.0, 0.0, 3.0, -0.25], [1.0, 2.0], [0.0] * 4 + [1.5]]
    y, z = rng.uniform(-2.0, 2.0, (5, 1)), rng.uniform(-2.0, 2.0, (1, 7))
    totals = qito._divdiff2_sums(polys, 0.7, y, z)
    for a, got in zip(polys, totals):
        assert got.shape == (5, 7)
        assert np.array_equal(got, _divdiff2_alone(a, 0.7, y, z))
    # f = x**3 has f[x, y, z] = x + y + z
    assert np.allclose(totals[0], 0.7 + y + z, rtol=0, atol=1e-14)
    assert np.all(totals[2] == 0.0)


def test_ito_decompose_exact_on_rational_path():
    grid = GeometricGrid.build(q=Q23, t=Fraction(1), depth=5)
    vals = tuple(Fraction(i % 4 - 2, 3) for i in range(6))
    path = GeometricPath(grid=grid, values=vals)
    f = QPolynomial((Poly([1, -1]), Poly([2]), Poly([0, 1]), Poly([1])))
    dec = ito_decompose(f, path, CTX)
    left = dec.lhs
    right = dec.gradient_term + dec.drift_term + dec.second_order_term
    boundary = f(vals[5], grid.times[5]) - f(Fraction(0), Fraction(0))
    assert left - right == boundary
    assert dec.K == 5


def test_residual_under_tail_bound_on_simulated_paths():
    ctx = QContext.numeric(0.6)
    f = QPolynomial.from_xt_terms({(3, 0): 1.0, (1, 1): -0.5, (0, 1): 2.0})
    for K in (15, 30):
        grid = GeometricGrid.build(q=0.6, t=1.0, depth=K)
        for seed in range(4):
            path = simulate_path(grid, seed=seed)
            res = ito_decompose(f, path, ctx).residual
            assert res <= ito_tail_bound(f, grid, ctx)


@pytest.mark.parametrize("q", [0.5, 0.8])
@pytest.mark.parametrize("K", [20, 40, 80])
def test_batch_decomposition_equals_per_path(q, K):
    ctx = QContext.numeric(q)
    rng = np.random.default_rng(K)
    f = QPolynomial(tuple(Poly(rng.uniform(-1.0, 1.0, size=3).tolist()) for _ in range(7)))
    batch = simulate_batch(GeometricGrid.build(q=q, t=1.0, depth=K), 20, 5000 + K, ctx)
    cols = ito_decompose_batch(f, batch, ctx)
    fields = ("lhs", "gradient_term", "drift_term", "second_order_term", "residual")
    for i, path in enumerate(batch):
        one = ito_decompose(f, path, ctx)
        for name in fields:
            assert getattr(cols, name)[i] == getattr(one, name), (i, name)
        assert (cols.tail_bound, cols.K) == (one.tail_bound, one.K)


def test_batch_decomposition_does_not_depend_on_the_block(monkeypatch):
    # 7 paths in blocks of 3, 3 and 1 give the values of one 7-path block
    ctx = QContext.numeric(0.8)
    f = QPolynomial.from_xt_terms({(5, 1): 0.7, (3, 0): -1.0, (2, 2): 0.25, (0, 1): 2.0})
    batch = simulate_batch(GeometricGrid.build(q=0.8, t=1.0, depth=30), 7, 41, ctx)
    whole = ito_decompose_batch(f, batch, ctx)
    monkeypatch.setattr(process, "PATH_BLOCK", 3)
    blocked = ito_decompose_batch(f, batch, ctx)
    for name in ("lhs", "gradient_term", "drift_term", "second_order_term", "residual"):
        assert getattr(blocked, name).tolist() == getattr(whole, name).tolist(), name


@pytest.mark.parametrize("q", [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)])
def test_exact_mode_results_stay_fractions(q):
    # reciprocals are taken as 1 / x, which keeps an exact context's values
    # Fractions; a float context's stay floats
    f = QPolynomial.from_xt_terms({(4, 1): Fraction(3, 2), (2, 0): 1, (1, 2): Fraction(-1, 3)})
    for ctx, kind in ((QContext.exact(q), Fraction), (QContext.numeric(float(q)), float)):
        assert [type(c) for c in stochint._inv_factorials(6, ctx)] == [kind] * 7
        for g in (a_operator(f, ctx), nabla_exact(f, ctx), from_hermite_basis(to_hermite_basis(f, ctx), ctx)):
            scalars = [c for col in g.coeffs for c in col.coeffs]
            assert scalars and all(type(c) is kind for c in scalars)


def test_decompositions_convert_f_to_the_hermite_basis_once(monkeypatch):
    # f keeps its Hermite coefficients and its second-order part, one entry
    # per context: the decompositions, the integrand, the tail bound and the
    # gradient of one f convert it once per context (the second-order part
    # converts monomials of its own)
    real, seen = qhermite_module._hermite_coeffs, []
    monkeypatch.setattr(qhermite_module, "_hermite_coeffs", lambda f, ctx: seen.append((f, ctx)) or real(f, ctx))
    calls = lambda f: [c for p, c in seen if p is f]
    ctx = QContext.numeric(0.6)
    f = QPolynomial.from_xt_terms({(3, 0): 1.0, (1, 1): -0.5, (0, 1): 2.0})
    twin = QPolynomial(f.coeffs)
    digest = (hash(f), repr(f))
    assert not hasattr(f, "_memo")
    batch = simulate_batch(GeometricGrid.build(q=0.6, t=1.0, depth=10), 3, 9, ctx)
    bound = ito_tail_bound(f, batch.grid, ctx)
    assert ito_decompose(f, batch.path(0), ctx).tail_bound == bound
    assert ito_decompose_batch(f, batch, ctx).tail_bound == bound
    assert stochint.PolynomialIntegrand.from_qpolynomial(f, ctx).b == real(f, ctx)
    assert nabla_exact(f, ctx) == from_hermite_basis(real(f, ctx)[1:], ctx)
    assert delta_exact(f, ctx) is delta_exact(f, ctx) and delta_exact(f, ctx) == qito._delta_exact(f, ctx)
    assert calls(f) == [ctx]
    # the memo leaves equality, hashing and repr as they were
    assert f == twin and (hash(f), repr(f)) == digest == (hash(twin), repr(twin))
    assert not hasattr(twin, "_memo")
    # exact contexts, and another q, get entries of their own; exact mode's
    # stay Fractions, and the float context at q = 1/2 is not exact q = 1/2
    g = QPolynomial.from_xt_terms({(4, 1): Fraction(3, 2), (2, 0): 1, (1, 2): Fraction(-1, 3)})
    contexts = (QContext.exact(Fraction(1, 2)), QContext.exact(Fraction(3, 5)), QContext.numeric(0.5))
    for c in contexts * 2:
        b = stochint.PolynomialIntegrand.from_qpolynomial(g, c).b
        assert to_hermite_basis(g, c) is b and nabla_exact(g, c) == from_hermite_basis(b[1:], c)
        ito_tail_bound(g, GeometricGrid.build(q=c.q, t=1, depth=5), c)
        kind = float if c.mode == "float" else Fraction
        assert all(type(x) is kind for p in b for x in p.coeffs)
    assert calls(g) == list(contexts)


def test_tail_bound_shrinks_with_depth():
    ctx = QContext.numeric(0.6)
    f = QPolynomial.x_power(4)
    bounds = [
        ito_tail_bound(f, GeometricGrid.build(q=0.6, t=1.0, depth=K), ctx)
        for K in (5, 10, 20, 40)
    ]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))


def test_decomposition_residual_matches_its_terms():
    ctx = QContext.numeric(0.6)
    grid = GeometricGrid.build(q=0.6, t=1.0, depth=10)
    path = simulate_path(grid, seed=0)
    dec = ito_decompose(QPolynomial.x_power(2), path, ctx)
    assert dec.residual == pytest.approx(
        abs(dec.lhs - (dec.gradient_term + dec.drift_term + dec.second_order_term)),
        abs=1e-12,
    )
