"""Exact q-arithmetic, polynomial calculus, and Jackson integration."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbm import qcore, qhermite
from qbm.qcore import (
    Poly,
    QContext,
    SampledFunction,
    jackson_integral,
    jackson_stieltjes,
    q_binomial,
    q_derivative,
    q_factorial,
    q_int,
)
from qbm.qhermite import growth_constant

HALF = QContext.exact(Fraction(1, 2))
TWO_THIRDS = QContext.exact(Fraction(2, 3))

rational = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=12
)
rational_q = st.fractions(
    min_value=Fraction(1, 10), max_value=Fraction(9, 10), max_denominator=11
)


def poly_strategy(max_degree=6):
    return st.lists(rational, min_size=0, max_size=max_degree + 1).map(Poly)


def test_q_int_frozen_values():
    assert q_int(0, HALF) == 0
    assert q_int(1, HALF) == 1
    assert q_int(5, HALF) == Fraction(31, 16)
    assert q_int(3, TWO_THIRDS) == Fraction(19, 9)


def test_q_int_near_classical_limit():
    ctx = QContext.numeric(1 - 1e-9)
    assert q_int(7, ctx) == pytest.approx(7.0, rel=1e-7)


def test_q_factorial_frozen():
    assert q_factorial(4, HALF) == Fraction(315, 64)
    assert q_factorial(0, HALF) == 1


def test_q_binomial_frozen_and_symmetry():
    assert q_binomial(4, 2, HALF) == Fraction(35, 16)
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial(n, k, HALF) == q_binomial(n, n - k, HALF)


def test_q_binomial_pascal():
    # [n choose k] = [n-1 choose k-1] + q^k [n-1 choose k]
    q = Fraction(2, 3)
    ctx = QContext.exact(q)
    for n in range(1, 9):
        for k in range(1, n):
            lhs = q_binomial(n, k, ctx)
            rhs = q_binomial(n - 1, k - 1, ctx) + q**k * q_binomial(n - 1, k, ctx)
            assert lhs == rhs


def test_qcontext_rejects_bad_q():
    with pytest.raises(ValueError):
        QContext.numeric(1.2)
    with pytest.raises(ValueError):
        QContext.numeric(0.0)
    with pytest.raises(ValueError):
        QContext.exact(Fraction(7, 5))


def test_poly_arithmetic_exact():
    p = Poly([1, 1])
    m = Poly([1, -1])
    assert p * m == Poly([1, 0, -1])
    assert (p + m) == Poly([2])
    assert p(Fraction(1, 3)) == Fraction(4, 3)


def test_poly_q_derivative_monomial():
    # D s^3 = [3] s^2
    p = Poly([0, 0, 0, 1])
    assert p.q_derivative(HALF) == Poly([0, 0, q_int(3, HALF)])


def test_jackson_antiderivative_frozen():
    # integral of s^2 to t is t^3/[3]; at q = 1/2 that is 4 t^3 / 7
    p = Poly([0, 0, 1])
    assert p.jackson_antiderivative(HALF) == Poly([0, 0, 0, Fraction(4, 7)])


def test_jackson_integral_poly_matches_series():
    p = Poly([0, 0, 1])
    exact = jackson_integral(p, Fraction(1), HALF)
    assert exact == Fraction(4, 7)
    ctx = QContext.numeric(0.5)
    f = SampledFunction.from_callable(lambda s: s * s, sup_near_zero=1.0, holder=(1.0, 1.0))
    assert jackson_integral(f, 1.0, ctx) == pytest.approx(4.0 / 7.0, rel=1e-12)


def test_jackson_stieltjes_frozen():
    # integral of s against d(s^2) over [0, 1] at q = 1/2 is 6/7
    a = Poly([0, 1])
    b = Poly([0, 0, 1])
    assert jackson_stieltjes(a, b, Fraction(1), HALF) == Fraction(6, 7)


def test_numeric_matches_exact_mode():
    nctx = QContext.numeric(0.5)
    assert q_factorial(6, nctx) == pytest.approx(float(q_factorial(6, HALF)), rel=1e-15)
    assert q_int(9, nctx) == pytest.approx(float(q_int(9, HALF)), rel=1e-15)


def test_pointwise_q_derivative():
    ctx = QContext.numeric(0.7)
    f = SampledFunction.from_callable(lambda s: s**3, sup_near_zero=1.0)
    got = q_derivative(f, 0.8, ctx)
    want = float(q_int(3, ctx)) * 0.8**2
    assert got == pytest.approx(want, rel=1e-12)


def test_sampled_function_sup_and_holder():
    f = SampledFunction.from_poly(Poly([1, -2, 1]))
    assert f.sup_on(1.0) >= abs(f(0.3))
    c, alpha = f.holder_at(1.0)
    assert c > 0 and 0 < alpha <= 1


@given(a=poly_strategy(), b=poly_strategy(), q=rational_q)
@settings(max_examples=60, deadline=None)
def test_q_derivative_product_rule(a, b, q):
    """D(ab) = a Db + b(q.) Da, exactly."""
    ctx = QContext.exact(q)
    lhs = (a * b).q_derivative(ctx)
    rhs = a * b.q_derivative(ctx) + b.scale_arg(q) * a.q_derivative(ctx)
    assert lhs == rhs


#: float (signed zeros and infinities included), exact rational and int
#: coefficients, mixed within one polynomial
mixed_coeff = st.one_of(
    st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 0, 1, Fraction(0)]), rational
)


def _bits(p):
    return [(type(c), float.hex(c) if isinstance(c, float) else c) for c in p.coeffs]


@given(
    a=st.lists(mixed_coeff, max_size=7),
    b=st.lists(mixed_coeff, max_size=7),
    tail=st.lists(st.sampled_from([0.0, -0.0, 0]), max_size=2),
    cancel=st.booleans(),
)
# an exact zero negates to itself: -0.0 + (-0) is +0.0 where -0.0 - 0 is -0.0
@example(a=[-0.0, 1.0], b=[0, 2.0], tail=[], cancel=False)
@example(a=[1.5, -0.0, 2.0], b=[Fraction(1, 3), Fraction(0), 2.0], tail=[0.0], cancel=False)
@settings(max_examples=200, deadline=None)
def test_poly_subtraction_has_the_bits_of_adding_the_negation(a, b, tail, cancel):
    # operands of unequal length, trailing zeros trimmed on the way in, and
    # (cancel) a shared top that the difference trims again
    p = Poly(a + [3.25] + tail if cancel else a + tail)
    r = Poly(b + [3.25] if cancel else b)
    assert _bits(p - r) == _bits(p + (-r))
    assert _bits(r - p) == _bits(r + (-p))


@given(p=poly_strategy(), q=rational_q)
@settings(max_examples=60, deadline=None)
def test_antiderivative_roundtrip(p, q):
    ctx = QContext.exact(q)
    assert p.jackson_antiderivative(ctx).q_derivative(ctx) == p
    back = p.q_derivative(ctx).jackson_antiderivative(ctx)
    assert back == p - Poly.const(p(Fraction(0)))


@given(a=poly_strategy(4), b=poly_strategy(4), q=rational_q, t=rational)
@settings(max_examples=60, deadline=None)
def test_by_parts_symbolic(a, b, q, t):
    """Jackson-by-parts identity evaluated at a random rational endpoint."""
    ctx = QContext.exact(q)
    lhs = (a * b.q_derivative(ctx)).jackson_antiderivative(ctx) + (
        b.scale_arg(q) * a.q_derivative(ctx)
    ).jackson_antiderivative(ctx)
    rhs = a * b - Poly.const(a(Fraction(0)) * b(Fraction(0)))
    assert lhs == rhs
    assert lhs(t) == rhs(t)


# the memoised q-numbers against their defining loops, written out here


def _loop_int(n, q):
    total, p = q * 0, q**0
    for _ in range(n):
        total += p
        p *= q
    return total


def _loop_factorial(n, q):
    out = q**0
    for j in range(1, n + 1):
        out *= _loop_int(j, q)
    return out


def _loop_binomial(n, k, q):
    num = _loop_factorial(n, q)
    den = _loop_factorial(k, q) * _loop_factorial(n - k, q)
    return num / den


def _loop_growth(n, q):
    total = sum(float(_loop_binomial(n, k, q)) for k in range(n + 1))
    return (1.0 - float(q)) ** (-n / 2.0) * total


def _same(a, b):
    """Equal in type and, for floats, in every bit."""
    if type(a) is not type(b):
        return False
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def _check_memo(ctx, ns):
    q = ctx.q
    for n in ns:
        assert _same(q_int(n, ctx), _loop_int(n, q))
        assert _same(q_factorial(n, ctx), _loop_factorial(n, q))
        for k in (0, n // 3, n // 2, n):
            assert _same(q_binomial(n, k, ctx), _loop_binomial(n, k, q))
        assert _same(growth_constant(n, ctx), _loop_growth(n, q))


@given(
    q=st.floats(min_value=0.01, max_value=0.99),
    ns=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_memoised_q_numbers_match_defining_loops(q, ns):
    ctx = QContext.numeric(q)
    # largest n first, then smaller ones, then the drawn order
    _check_memo(ctx, sorted(ns, reverse=True) + ns)


def test_memoised_q_numbers_exact_mode():
    ctx = QContext.exact(Fraction(2, 3))
    _check_memo(ctx, [40, 0, 1, 17, 39, 40])
    assert isinstance(q_factorial(40, ctx), Fraction)


@pytest.mark.parametrize("float_first", [True, False])
def test_float_context_with_fraction_q_computes_in_floats(monkeypatch, float_first):
    # fresh caches, so that the first context to fill them is the one built here
    monkeypatch.setattr(qcore, "_Q_NUMBERS", {})
    monkeypatch.setattr(qhermite, "_HERMITE_CACHE", {})
    monkeypatch.setattr(qhermite, "_GROWTH_CACHE", {})
    from_fraction = QContext(q=Fraction(1, 2))
    assert type(from_fraction.q) is float and from_fraction == QContext.numeric(0.5)
    contexts = [from_fraction, QContext.exact(Fraction(1, 2))]
    for ctx in contexts if float_first else contexts[::-1]:
        kind = float if ctx.mode == "float" else Fraction
        assert type(q_int(3, ctx)) is kind
        assert type(q_factorial(3, ctx)) is kind
        assert type(q_binomial(3, 1, ctx)) is kind
        h3 = qhermite.qhermite(3, ctx)
        scalars = [c for col in h3.coeffs for c in col.coeffs if not isinstance(c, int)]
        assert scalars and all(type(c) is kind for c in scalars)
    numeric = QContext.numeric(0.5)
    assert type(qhermite.qhermite(3, numeric).coeff(1).coeffs[1]) is float
    assert type(q_int(3, numeric)) is float


def _factor_loop(q: float) -> int:
    """The defining loop: smallest N with q**N < PROD_EPS."""
    n, p = 0, 1.0
    while p >= qcore.PROD_EPS:
        p *= q
        n += 1
    return n


def test_n_product_factors_cached_per_q():
    qcore._n_product_factors.cache_clear()
    for q in (0.05, 0.2, 0.5, 0.8, 0.95, 0.99):
        expected = _factor_loop(q)
        for _ in range(2):  # a miss, then a hit
            assert QContext.numeric(q).n_product_factors() == expected
    assert qcore._n_product_factors.cache_info().hits == 6
    assert QContext.numeric(0.8).n_product_factors() == 166
    # an exact context counts with its float q, as before
    assert QContext.exact(Fraction(4, 5)).n_product_factors() == _factor_loop(0.8)
