"""A polynomial's derived forms against the Poly arithmetic they replaced.

to_hermite_basis, from_hermite_basis (with nabla_exact), delta_exact and
dq_time act on coefficient lists.  The reference below is the Poly and
QPolynomial arithmetic that formed them before: the three-term recurrence
on QPolynomials, the back-substitution, and delta summed from monomials.
Evaluation at an array of times takes all coefficients in one Horner pass;
its reference is each coefficient's own Horner rule.  Floats are compared
by float.hex, since == cannot tell -0.0 from 0.0, and exact values by type
and value.
"""

import sys
import threading
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm import qcore
from qbm.process import GeometricGrid
from qbm.qcore import Poly, QContext, _q_numbers, q_factorial, q_int
from qbm.qhermite import QPolynomial, from_hermite_basis, growth_constant, qhermite, to_hermite_basis
from qbm.qito import a_operator, delta_exact, nabla_exact
from qbm.stochint import PolynomialIntegrand, _def_terms, def_tail_bound

FLOAT_QS = (0.2, 0.5, 0.8, 0.95, 0.99)
EXACT_QS = tuple(Fraction(q).limit_denominator(100) for q in FLOAT_QS)

# --- the reference: the Poly-arithmetic forms, kept here as the oracle ---

_REF_HERMITE: dict = {}


def ref_qhermite(n, ctx):
    seq = _REF_HERMITE.setdefault((ctx.q, ctx.mode), [QPolynomial.x_power(0), QPolynomial.x_power(1)])
    while len(seq) <= n:
        m = len(seq) - 1
        seq.append(seq[m].mul_x() - q_int(m, ctx) * seq[m - 1].mul_t())
    return seq[n]


def ref_to_hermite_basis(f, ctx):
    hs = [ref_qhermite(m, ctx) for m in range(max(f.degree, 0) + 1)]
    work = list(f.coeffs)
    out = [Poly() for _ in range(len(work))]
    for m in range(len(work) - 1, -1, -1):
        lead = work[m]
        if not lead.is_zero():
            out[m] = lead * q_factorial(m, ctx)
            for i, hc in enumerate(hs[m].coeffs):
                if not hc.is_zero():
                    work[i] = work[i] - lead * hc
    return tuple(out)


def ref_from_hermite_basis(b, ctx):
    out = QPolynomial.zero()
    for m, bm in enumerate(b):
        if not bm.is_zero():
            out = out + ref_qhermite(m, ctx) * (bm * (1 / q_factorial(m, ctx)))
    return out


def ref_nabla_exact(f, ctx):
    b = ref_to_hermite_basis(f, ctx)
    return ref_from_hermite_basis(b[1:], ctx) if len(b) > 1 else QPolynomial.zero()


def ref_a_operator(f, ctx):
    b = ref_to_hermite_basis(f, ctx)
    out = QPolynomial.zero()
    for m in range(1, len(b)):
        if not b[m].is_zero():
            base = ref_qhermite(m - 1, ctx).subs_t_scale(ctx.q)
            out = out + base * (b[m] * (1 / q_factorial(m - 1, ctx)))
    return out


def ref_delta_exact(f, ctx):
    out = QPolynomial.zero()
    for n, a_n in enumerate(f.coeffs):
        if a_n.is_zero():
            continue
        monomial = QPolynomial.zero()
        for k in range(n):
            monomial = monomial + QPolynomial.x_power(k) * ref_a_operator(QPolynomial.x_power(n - 1 - k), ctx)
        out = out + monomial * a_n
    return out


def ref_dq_time(f, ctx):
    return QPolynomial(tuple(p.q_derivative(ctx) for p in f.coeffs))


def ref_call(f, x, t):
    out = 0 * x
    for c in reversed(f.coeffs):
        out = out * x + c(t)
    return out


# --- comparison ---


def bits(form):
    """A form's scalars, floats by float.hex and the rest by (type, value)."""
    cols = form.coeffs if isinstance(form, QPolynomial) else form
    return [[c.hex() if isinstance(c, float) else (type(c).__name__, c) for c in p.coeffs] for p in cols]


def array_bits(a):
    """An array's dtype and its entries, as bits() gives scalars."""
    return a.dtype, [v.hex() if isinstance(v, float) else (type(v).__name__, v) for v in np.ravel(a).tolist()]


def assert_forms_match(f, ctx):
    # each form on a fresh copy of f, so none reads a form kept by another
    fresh = lambda: QPolynomial(f.coeffs)
    b = ref_to_hermite_basis(f, ctx)
    assert bits(to_hermite_basis(fresh(), ctx)) == bits(b)
    assert bits(from_hermite_basis(b, ctx)) == bits(ref_from_hermite_basis(b, ctx))
    assert bits(nabla_exact(fresh(), ctx)) == bits(ref_nabla_exact(f, ctx))
    assert bits(delta_exact(fresh(), ctx)) == bits(ref_delta_exact(f, ctx))
    assert bits(fresh().dq_time(ctx)) == bits(ref_dq_time(f, ctx))


def columns(scalar, max_x_degree=9, max_t_degree=3):
    """x-degree 0-9 and t-degree 0-3, with zero columns, short columns and
    zeros anywhere in a column, trailing ones too (Poly trims those)."""
    column = st.one_of(st.just(Poly()), st.lists(scalar, min_size=1, max_size=max_t_degree + 1).map(Poly))
    return st.lists(column, min_size=1, max_size=max_x_degree + 1).map(QPolynomial)


floats = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
)
rationals = st.one_of(st.integers(-4, 4), st.fractions(min_value=-5, max_value=5, max_denominator=12))


@given(f=columns(floats), q=st.sampled_from(FLOAT_QS))
@settings(max_examples=400, deadline=None)
def test_float_forms_keep_the_poly_bits(f, q):
    assert_forms_match(f, QContext.numeric(q))


@given(f=columns(rationals, 7, 2), q=st.sampled_from(EXACT_QS))
@settings(max_examples=60, deadline=None)
def test_exact_forms_keep_the_poly_fractions(f, q):
    assert_forms_match(f, QContext.exact(q))


any_float = st.floats(allow_nan=True, allow_infinity=True)


@given(
    f=columns(st.one_of(floats, floats, rationals)),
    points=st.lists(st.tuples(any_float, any_float), min_size=1, max_size=6),
    rows=st.integers(1, 2),
)
@settings(max_examples=300, deadline=None)
def test_evaluation_at_float_arrays_keeps_each_coefficients_bits(f, points, rows):
    # negative times and -0.0 give 0 * t = -0.0, which an empty column keeps;
    # inf and nan times make every step nan; a Fraction coefficient makes its
    # column's values an object array; a block of paths is a 2-D x
    x = np.array([[a for a, _ in points]] * rows)
    t = np.array([b for _, b in points])
    with np.errstate(all="ignore"):
        assert array_bits(f(x, t)) == array_bits(ref_call(f, x, t))


@given(f=columns(rationals, 5, 2), points=st.lists(st.tuples(rationals, rationals), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_evaluation_at_exact_arrays_keeps_each_coefficients_values(f, points):
    x = np.array([a for a, _ in points], dtype=object)
    t = np.array([b for _, b in points], dtype=object)
    assert array_bits(f(x, t)) == array_bits(ref_call(f, x, t))


def test_hermite_polynomials_keep_the_recurrence_bits():
    # the zeros below each coefficient too: -0.0 and 0.0 by turns in floats;
    # and the generator slice, which sums the h_m(x; q t)
    terms = {(5, 1): Fraction(7, 10), (3, 0): -1, (2, 2): Fraction(1, 4), (0, 3): 2}
    for ctx in [QContext.numeric(q) for q in FLOAT_QS] + [QContext.exact(q) for q in EXACT_QS]:
        for n in range(12):
            assert bits(qhermite(n, ctx)) == bits(ref_qhermite(n, ctx)), (ctx, n)
        kind = float if ctx.mode == "float" else Fraction
        f = QPolynomial.from_xt_terms({key: kind(c) for key, c in terms.items()})
        assert bits(a_operator(f, ctx)) == bits(ref_a_operator(f, ctx))


#: the on-demand tables, each kept by name in its context's record (qcore._grown)
TABLES = ("q numbers", "growth constants", "hermite terms", "delta terms")


def _tables(ctx):
    record = qcore._record(ctx.q, ctx.mode)
    return [record.get(name) for name in TABLES]


def _fill(ctx):
    """Extend each table of ctx step by step, as callers do; what it read."""
    return (
        [_q_numbers(n, ctx)[n][1] for n in range(30)],
        [growth_constant(n, ctx) for n in range(20)],
        [bits(qhermite(n, ctx)) for n in range(10)],
        [bits(delta_exact(QPolynomial.x_power(n), ctx)) for n in range(7)],
    )


def test_tables_extended_by_threads_match_a_single_thread_build():
    # four threads extend the tables of q that nothing has used, with a
    # switch interval short enough to interleave them inside one extension
    # (exact q too: Fraction arithmetic runs Python code, so a thread can be
    # switched out inside one table entry); every published table holds a
    # single-thread build's entries, and every thread reads its values
    contexts = [QContext.numeric(0.41 + k * 1e-7) for k in range(60)]
    contexts += [QContext.exact(Fraction(k, 211)) for k in range(60, 100)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-7)
    got, kept = {}, {}
    try:
        for ctx in contexts:
            start, reads = threading.Barrier(4), [None] * 4

            def run(i):
                start.wait(timeout=30)
                reads[i] = _fill(ctx)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            got[ctx], kept[ctx] = reads, _tables(ctx)
    finally:
        sys.setswitchinterval(saved)
    qcore._record.cache_clear()
    for ctx in contexts:
        serial = _fill(ctx)
        assert got[ctx] == [serial] * 4, ctx
        for threaded, single in zip(kept[ctx], _tables(ctx)):
            # a table published last may be a shorter, earlier extension
            assert threaded and threaded == single[: len(threaded)], ctx


def _derived_reads(f, integrand, grid, ctx):
    """Forms kept by derived, on a polynomial and on an integrand: f's
    Hermite coefficients, q-derivative and second-order part, and the
    integrand's tail bound and its gradient's step terms (a form that
    reads another form of the same integrand)."""
    ms, inv, b = _def_terms(integrand, grid._time_array, ctx, 1)
    return (
        bits(to_hermite_basis(f, ctx)),
        bits(f.dq_time(ctx)),
        bits(delta_exact(f, ctx)),
        def_tail_bound(integrand, grid, ctx).hex(),
        (ms, array_bits(inv), array_bits(b)),
    )


def test_derived_on_threads_gives_every_thread_the_forms_value():
    # eight threads behind a barrier ask shared polynomials and integrands
    # that no one has asked yet for their forms, at a switch interval short
    # enough to interleave the first calls: none raises, and each reads the
    # forms of an unshared copy
    ctx = QContext.numeric(0.8)
    grid = GeometricGrid.build(q=0.8, t=1.0, depth=12)
    rng = np.random.default_rng(35)
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-7)
    try:
        for trial in range(60):
            terms = {(n, k): float(rng.uniform(-1.0, 1.0)) for n in range(7) for k in range(3)}
            fresh = lambda: QPolynomial.from_xt_terms(terms)
            want = _derived_reads(fresh(), PolynomialIntegrand(to_hermite_basis(fresh(), ctx)), grid, ctx)
            f, integrand = fresh(), PolynomialIntegrand(to_hermite_basis(fresh(), ctx))
            start, reads, errors = threading.Barrier(8), [None] * 8, []

            def run(i):
                start.wait(timeout=30)
                try:
                    reads[i] = _derived_reads(f, integrand, grid, ctx)
                except Exception as exc:  # reported below, with the trial
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == [] and reads == [want] * 8, trial
    finally:
        sys.setswitchinterval(saved)
