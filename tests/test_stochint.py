"""Discrete stochastic integral, tail bounds, and the exponential."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm.process import GeometricGrid, GeometricPath, PathBatch, simulate_batch, simulate_path
from qbm.qcore import Poly, QContext, q_factorial, q_int
from qbm.qhermite import QPolynomial, hermite_eval_sequence
from qbm.stochint import (
    PolynomialIntegrand,
    def_tail_bound,
    deterministic_integral,
    exponential_radius,
    integrate_byparts,
    integrate_def,
    integrate_def_batch,
    isometry_second_moment,
    sde_residual,
    stochastic_exponential,
)

HALF = QContext.exact(Fraction(1, 2))

rational = st.fractions(min_value=Fraction(-6), max_value=Fraction(6), max_denominator=8)


def free_path(grid, values):
    return GeometricPath(grid=grid, values=tuple(values))


def test_integrand_from_x_squared():
    f = PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(2), HALF)
    assert f.b[0] == Poly([0, 1])
    assert f.b[2] == Poly([q_factorial(2, HALF)])
    assert f.degree == 2


def test_hermite_integrand_telescopes():
    """Integrating h_n gives the increment of h_{n+1}/[n+1] exactly."""
    q = Fraction(1, 2)
    grid = GeometricGrid.build(q=q, t=Fraction(1), depth=5)
    vals = [Fraction(i % 3 - 1, 2) for i in range(6)]
    path = free_path(grid, vals)
    for n in range(5):
        b = [Poly.const(0)] * n + [Poly.const(q_factorial(n, HALF))]
        got = integrate_def(PolynomialIntegrand.from_hermite(b), path, HALF).value
        top = hermite_eval_sequence(n + 1, vals[0], grid.times[0], HALF)[n + 1]
        bot = hermite_eval_sequence(n + 1, vals[5], grid.times[5], HALF)[n + 1]
        assert got == (top - bot) / q_int(n + 1, HALF)


def test_def_and_byparts_differ_by_deep_boundary():
    q = Fraction(1, 2)
    grid = GeometricGrid.build(q=q, t=Fraction(1), depth=4)
    vals = [Fraction(3, 2), Fraction(-1, 2), Fraction(1, 4), Fraction(1), Fraction(-2)]
    path = free_path(grid, vals)
    f = PolynomialIntegrand((Poly([1, 1]), Poly([0, -2]), Poly([Fraction(1, 3)])))
    d = integrate_def(f, path, HALF).value
    p = integrate_byparts(f, path, HALF).value
    hK = hermite_eval_sequence(3, vals[4], grid.times[4], HALF)
    boundary = sum(
        f.b[m](grid.times[4]) * hK[m + 1] / q_factorial(m + 1, HALF) for m in range(3)
    )
    assert p - d == boundary


def test_isometry_second_moment_frozen():
    # x^2 integrand at q = 2/3, t = 5/4: (2+q) t^3 / [3] = 375/152
    ctx = QContext.exact(Fraction(2, 3))
    f = PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(2), ctx)
    assert isometry_second_moment(f, Fraction(5, 4), ctx) == Fraction(375, 152)


def test_batch_matches_single_paths():
    # the path form sums over the whole grid at once, the batch form column
    # by column; both add the same terms in the same order, to the same bits.
    # The integrands are x**2 and sde_residual(0.5, 2.0, ...)'s of degree 30
    sde = PolynomialIntegrand.from_hermite([2.0 * 0.5**n for n in range(31)])
    for q in (0.2, 0.5, 0.8):
        ctx = QContext.numeric(q)
        for depth in (1, 20, 80):
            grid = GeometricGrid.build(q=q, t=1.0, depth=depth)
            batch = simulate_batch(grid, n_paths=6, base_seed=3 + depth)
            for f in (PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(2), ctx), sde):
                vals = integrate_def_batch(f, batch, ctx)
                for i, path in enumerate(batch):
                    assert vals[i] == integrate_def(f, path, ctx).value, (q, depth, f.degree, i)


def test_tail_bound_controls_deepening():
    """|I_K - I_K'| is inside the sum of the two depth tail bounds."""
    q = 0.5
    ctx = QContext.numeric(q)
    f = PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(3), ctx)
    for seed in range(5):
        shallow = GeometricGrid.build(q=q, t=1.0, depth=10)
        deep = GeometricGrid.build(q=q, t=1.0, depth=20)
        pd = simulate_path(deep, seed=seed)
        ps = GeometricPath(grid=shallow, values=pd.values[: shallow.K + 1], seed=seed)
        i_s = integrate_def(f, ps, ctx)
        i_d = integrate_def(f, pd, ctx)
        allowance = i_s.tail_bound + i_d.tail_bound
        assert abs(i_s.value - i_d.value) <= allowance
        assert i_d.tail_bound < i_s.tail_bound


def test_tail_bound_decreases_with_depth():
    ctx = QContext.numeric(0.5)
    f = PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(2), ctx)
    bounds = [
        def_tail_bound(f, GeometricGrid.build(q=0.5, t=1.0, depth=K), ctx)
        for K in (5, 10, 20, 40)
    ]
    assert all(b < a for a, b in zip(bounds, bounds[1:]))


def test_deterministic_integral_rational():
    q = Fraction(1, 2)
    grid = GeometricGrid.build(q=q, t=Fraction(1), depth=3)
    vals = [Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(0)]
    batch = PathBatch(grid, np.array([vals, vals[::-1]], dtype=object), 0)
    got = deterministic_integral(Poly([0, 1]), batch)
    for path, row in zip(batch, got):
        want = sum(grid.times[k] * (path.values[k] - path.values[k + 1]) for k in range(3))
        assert isinstance(row, Fraction) and row == want


def test_deterministic_integral_matches_the_power_loop():
    # the Monte Carlo ez2 and ez4 checks sum t_k**r (B_k - B_{k+1}) over the
    # grid steps in this order; the batch form gives the same bits
    grid = GeometricGrid.build(q=0.5, t=1.0)
    batch = simulate_batch(grid, n_paths=300, base_seed=2)
    for r in (0.0, 0.5, 1.0):
        ref = np.zeros(len(batch))
        for k in range(grid.K):
            ref += float(grid.times[k]) ** r * (batch.values[:, k] - batch.values[:, k + 1])
        got = deterministic_integral(lambda t, r=r: float(t) ** r, batch)
        assert np.all(np.isfinite(got)) and got.tobytes() == ref.tobytes()


def _exponential_series(a, c, x, t, ctx, degree):
    """Partial sum c sum_{n<=degree} a**n h_n(x; t) / [n]!."""
    hs = hermite_eval_sequence(degree, x, t, ctx)
    total, an, fact = 0.0, 1.0, 1.0
    for n in range(degree + 1):
        if n > 0:
            an *= a
            fact *= float(q_int(n, ctx))
        total += an * float(hs[n]) / fact
    return c * total


def test_exponential_series_matches_product():
    ctx = QContext.numeric(0.5)
    prod = stochastic_exponential(0.5, 1.0, 0.3, 0.5, ctx)
    ser = _exponential_series(0.5, 1.0, 0.3, 0.5, ctx, degree=40)
    assert ser == pytest.approx(prod, abs=1e-10)


def test_exponential_at_zero_coupling():
    ctx = QContext.numeric(0.5)
    assert stochastic_exponential(0.0, 2.5, 0.7, 1.0, ctx) == pytest.approx(2.5)


def test_exponential_scales_linearly_in_c():
    ctx = QContext.numeric(0.5)
    one = stochastic_exponential(0.4, 1.0, 0.2, 0.5, ctx)
    three = stochastic_exponential(0.4, 3.0, 0.2, 0.5, ctx)
    assert three == pytest.approx(3.0 * one, rel=1e-13)


def test_exponential_vectorised():
    ctx = QContext.numeric(0.5)
    xs = np.array([-0.5, 0.0, 0.5])
    vals = stochastic_exponential(0.5, 1.0, xs, 0.5, ctx)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(stochastic_exponential(0.5, 1.0, float(x), 0.5, ctx))


def test_exponential_radius():
    assert exponential_radius(0.5, QContext.numeric(0.5)) == pytest.approx(8.0)


def test_exponential_rejects_vanishing_factor():
    # far outside the admissible region a product factor crosses zero
    ctx = QContext.numeric(0.5)
    with pytest.raises(ValueError):
        stochastic_exponential(4.0, 1.0, 0.6, 0.01, ctx)


def test_sde_residual_outside_radius_rejected():
    ctx = QContext.numeric(0.5)
    grid = GeometricGrid.build(q=0.5, t=10.0, depth=10)
    path = simulate_path(grid, seed=1)
    with pytest.raises(ValueError):
        sde_residual(0.5, 1.0, path, ctx)


def test_sde_residual_decays_with_depth():
    ctx = QContext.numeric(0.5)
    res = []
    for K in (10, 30, 60):
        grid = GeometricGrid.build(q=0.5, t=0.5, depth=K)
        path = simulate_path(grid, seed=4)
        res.append(sde_residual(0.5, 2.0, path, ctx, degree=25))
    assert res[0] > res[1] > res[2]
    assert res[2] < 1e-7


@given(
    c0=rational, c1=rational, c2=rational,
    v=st.lists(rational, min_size=5, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_integral_linear_in_integrand(c0, c1, c2, v):
    q = Fraction(1, 2)
    grid = GeometricGrid.build(q=q, t=Fraction(1), depth=4)
    path = free_path(grid, v)
    f = PolynomialIntegrand((Poly([c0]), Poly([c1]), Poly([c2])))
    g = PolynomialIntegrand((Poly([1]), Poly([0, 1]), Poly([2])))
    fg = PolynomialIntegrand(
        (Poly([c0 + 1]), Poly([c1]) + Poly([0, 1]), Poly([c2 + 2]))
    )
    lhs = integrate_def(fg, path, HALF).value
    rhs = integrate_def(f, path, HALF).value + integrate_def(g, path, HALF).value
    assert lhs == rhs


#: SHA-256 over the simulated paths and the path forms' values that
#: _path_form_digest hashes, recorded with the per-step sums these forms
#: replaced; every value must keep its bits
PATH_FORM_DIGEST = "56146e381d720ce02187e64a80ce388d787bbd655f1655b5a164102e1458f91e"


def _path_form_digest() -> str:
    import hashlib
    import struct

    from qbm.qito import ito_decompose
    from qbm.verify import _random_qpolynomial

    h = hashlib.sha256()

    def put(*vals):
        for v in vals:
            h.update(str(v).encode() if isinstance(v, Fraction) else struct.pack("<d", float(v)))

    rng = np.random.default_rng(1407)
    for q in (0.2, 0.5, 0.8):
        ctx = QContext.numeric(q)
        for depth in (1, 20, 80):
            grid = GeometricGrid.build(q=q, t=1.0, depth=depth)
            for seed in (0, 7, 2**40 + 3, 2**64 - 1, 2**127 + 5):
                path = simulate_path(grid, seed)
                f = _random_qpolynomial(rng, 6, 2)
                integrand = PolynomialIntegrand.from_qpolynomial(f, ctx)
                dec = ito_decompose(f, path, ctx)
                put(*path.values)
                put(integrate_def(integrand, path, ctx).value, integrate_byparts(integrand, path, ctx).value)
                put(sde_residual(0.5, 2.0, path, ctx, degree=30))
                put(dec.lhs, dec.gradient_term, dec.drift_term, dec.second_order_term, dec.residual)
    # one exact rational path through the same forms
    grid = GeometricGrid.build(q=Fraction(1, 2), t=Fraction(5, 4), depth=6)
    path = free_path(grid, [Fraction(k % 5 - 2, k + 1) for k in range(7)])
    f = QPolynomial(tuple(Poly([Fraction(1, m + 1), Fraction(-m, 3), Fraction(2)]) for m in range(5)))
    integrand = PolynomialIntegrand.from_qpolynomial(f, HALF)
    dec = ito_decompose(f, path, HALF)
    put(integrate_def(integrand, path, HALF).value, integrate_byparts(integrand, path, HALF).value)
    put(dec.lhs, dec.gradient_term, dec.drift_term, dec.second_order_term)
    return h.hexdigest()


def test_path_forms_keep_their_bits():
    assert _path_form_digest() == PATH_FORM_DIGEST
