"""Martingale polynomial family: closed forms, basis changes, growth."""

from fractions import Fraction

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm.qcore import Poly, QContext, q_binomial, q_factorial, q_int
from qbm.qhermite import (
    QPolynomial,
    from_hermite_basis,
    growth_constant,
    hermite_eval_sequence,
    qhermite,
    to_hermite_basis,
)

HALF = QContext.exact(Fraction(1, 2))

rational = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=8)
rational_q = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=10
)


def qpoly_strategy(max_x_degree=5, max_t_degree=2):
    coeff = st.lists(rational, min_size=0, max_size=max_t_degree + 1).map(Poly)
    return st.lists(coeff, min_size=0, max_size=max_x_degree + 1).map(
        lambda cs: QPolynomial(tuple(cs))
    )


def test_low_order_closed_forms():
    q = Fraction(1, 2)
    assert qhermite(0, HALF) == QPolynomial((Poly([1]),))
    assert qhermite(1, HALF) == QPolynomial.x_power(1)
    # h_2 = x^2 - t
    assert qhermite(2, HALF) == QPolynomial((Poly([0, -1]), Poly(), Poly([1])))
    # h_3 = x^3 - (2+q) t x
    assert qhermite(3, HALF) == QPolynomial(
        (Poly(), Poly([0, -(2 + q)]), Poly(), Poly([1]))
    )
    # h_4 = x^4 - (q^2 + 2q + 3) t x^2 + (q^2 + q + 1) t^2
    assert qhermite(4, HALF) == QPolynomial(
        (
            Poly([0, 0, q * q + q + 1]),
            Poly(),
            Poly([0, -(q * q + 2 * q + 3)]),
            Poly(),
            Poly([1]),
        )
    )


def test_recurrence_exact():
    for n in range(1, 11):
        lhs = qhermite(n, HALF).mul_x()
        rhs = qhermite(n + 1, HALF) + q_int(n, HALF) * qhermite(n - 1, HALF).mul_t()
        assert lhs == rhs


def test_hermite_coefficients_of_monomials():
    q = Fraction(1, 2)
    hc = to_hermite_basis(QPolynomial.x_power(2), HALF)
    assert hc[0] == Poly([0, 1])
    assert hc[2] == Poly([q_factorial(2, HALF)])

    hc = to_hermite_basis(QPolynomial.x_power(3), HALF)
    assert hc[1] == Poly([0, 2 + q])
    assert hc[3] == Poly([q_factorial(3, HALF)])

    hc = to_hermite_basis(QPolynomial.x_power(4), HALF)
    assert hc[0] == Poly([0, 0, q + 2])
    assert hc[2] == Poly([0, q_factorial(2, HALF) * (q * q + 2 * q + 3)])
    assert hc[4] == Poly([q_factorial(4, HALF)])
    assert q_factorial(4, HALF) == Fraction(315, 64)


def test_eval_matches_polynomial_call():
    ctx = QContext.numeric(0.7)
    h5 = qhermite(5, ctx)
    seq = hermite_eval_sequence(5, 0.7, 1.3, ctx)
    assert seq[5] == pytest.approx(h5(0.7, 1.3), rel=1e-13)
    for n in range(6):
        assert seq[n] == pytest.approx(qhermite(n, ctx)(0.7, 1.3), rel=1e-12, abs=1e-12)


def test_eval_sequence_vectorised():
    ctx = QContext.numeric(0.5)
    xs = np.linspace(-1.5, 1.5, 7)
    seq = hermite_eval_sequence(4, xs, 0.8, ctx)
    for n in range(5):
        for i, x in enumerate(xs):
            scalar = hermite_eval_sequence(n, float(x), 0.8, ctx)[n]
            assert seq[n][i] == pytest.approx(scalar, abs=1e-12)


def _recurrence_reference(n_max, x, t, ctx):
    """hermite_eval_sequence as one plain pass, each row from the two before
    it with [m]_q t formed in the row's own expression."""
    out = [x * 0 + 1, x * 0 + x]
    for m in range(1, n_max):
        out.append(x * out[m] - q_int(m, ctx) * t * out[m - 1])
    return out[: n_max + 1]


def test_eval_sequence_goes_on_from_earlier_rows():
    # a pass from the first rows of an earlier one, and a float-array pass
    # with its [m]_q t formed for every m at once, give a plain pass's rows,
    # of the same type and bits: on a path (1-D), a block (2-D) and scalars,
    # and exactly on Fractions
    float_ctx = QContext.numeric(0.8)
    rng = np.random.default_rng(4)
    t = 0.8 ** np.arange(41)
    x = rng.uniform(-1.0, 1.0, 41) * np.sqrt(t / 0.2)
    exact_x = np.array([Fraction(k - 2, 3) for k in range(5)], dtype=object)
    exact_t = np.array([Fraction(1, 2**k) for k in range(5)], dtype=object)
    cases = [
        (x, t, float_ctx),
        (x * rng.uniform(0.5, 1.0, (3, 1)), t, float_ctx),
        (0.7, 1.3, float_ctx),
        (exact_x, exact_t, HALF),
    ]

    def same(a, b):
        if type(a) is not type(b):
            return False
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype == object:
            return a.shape == b.shape and all(type(u) is type(v) and u == v for u, v in zip(a.ravel(), b.ravel()))
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for xs, ts, ctx in cases:
        whole = _recurrence_reference(31, xs, ts, ctx)
        for start in (0, 1, 2, 8):
            for n_max in (start, 12, 31):
                got = hermite_eval_sequence(n_max, xs, ts, ctx, head=whole[:start])
                assert len(got) == n_max + 1 and all(map(same, got, whole)), (start, n_max)


def test_growth_bound_attained_at_support_edge():
    # with t = 1 - q the edge is x = 2 and h_n(2; t) = sum of q-binomials
    q = Fraction(1, 2)
    t = 1 - q
    for n in range(1, 9):
        edge_value = qhermite(n, HALF)(Fraction(2), t)
        expected = sum(q_binomial(n, k, HALF) for k in range(n + 1))
        assert edge_value == expected
        bound = growth_constant(n, HALF) * float(t) ** (n / 2.0)
        assert float(edge_value) == pytest.approx(bound, rel=1e-12)


def test_growth_bound_dominates_inside_support():
    ctx = QContext.numeric(0.6)
    for t in (0.3, 1.0, 2.5):
        w = 2.0 * (t / 0.4) ** 0.5
        for n in range(1, 9):
            bound = growth_constant(n, ctx) * t ** (n / 2.0)
            for x in np.linspace(-w, w, 41):
                value = hermite_eval_sequence(n, float(x), t, ctx)[n]
                assert abs(value) <= bound * (1 + 1e-12)


def test_growth_constant_monotone_in_n():
    ctx = QContext.numeric(0.5)
    cs = [growth_constant(n, ctx) for n in range(1, 10)]
    assert all(b > a for a, b in zip(cs, cs[1:]))


def test_scaling_relation():
    # h_n(x; t) = t**(n/2) h_n(x / sqrt(t); 1), to 1e-9 of the growth bound
    ctx = QContext.numeric(0.65)
    x, t = 0.4, 2.7
    for n in range(1, 8):
        lhs = hermite_eval_sequence(n, x, t, ctx)[n]
        rhs = t ** (n / 2.0) * hermite_eval_sequence(n, x / math.sqrt(t), 1.0, ctx)[n]
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, growth_constant(n, ctx) * t ** (n / 2.0))


def test_subs_t_scale():
    q = Fraction(1, 2)
    h3q = qhermite(3, HALF).subs_t_scale(q)
    assert h3q == QPolynomial((Poly(), Poly([0, -(2 + q) * q]), Poly(), Poly([1])))


def test_dq_time():
    # D_t (t^2 x) = [2] t x
    f = QPolynomial((Poly(), Poly([0, 0, 1])))
    assert f.dq_time(HALF) == QPolynomial((Poly(), Poly([0, q_int(2, HALF)])))


@given(f=qpoly_strategy(), q=rational_q)
@settings(max_examples=50, deadline=None)
def test_basis_roundtrip(f, q):
    """to_hermite_basis then from_hermite_basis is the identity."""
    ctx = QContext.exact(q)
    assert from_hermite_basis(to_hermite_basis(f, ctx), ctx) == f


@given(f=qpoly_strategy(4, 1), g=qpoly_strategy(4, 1), q=rational_q)
@settings(max_examples=40, deadline=None)
def test_basis_conversion_linear(f, g, q):
    ctx = QContext.exact(q)
    fg = to_hermite_basis(f + g, ctx)
    ff = to_hermite_basis(f, ctx)
    gg = to_hermite_basis(g, ctx)
    top = max(len(ff), len(gg), len(fg))

    def coeff(hc, m):
        return hc[m] if m < len(hc) else Poly()

    for m in range(top):
        assert coeff(fg, m) == coeff(ff, m) + coeff(gg, m)
