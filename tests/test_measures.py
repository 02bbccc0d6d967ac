"""Densities, quadrature, and kernel moment identities."""

import cmath
import gc
import math
import sys
import tracemalloc
import weakref
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm import measures, qito
from qbm.measures import (
    InvalidDensityError,
    QuadratureError,
    _theta_density,
    _trapezoid_nodes,
    draw_from_table,
    draw_transition_batch,
    integrate,
    marginal_spec,
    qgauss_density,
    scaled_marginal_table,
    scaled_transition_table,
    support_halfwidth,
    transition_density,
    transition_spec,
)
from qbm.qcore import PROD_EPS, QContext
from qbm.qhermite import QPolynomial


def test_support_halfwidth():
    assert support_halfwidth(1.0, 0.75) == pytest.approx(4.0)
    assert support_halfwidth(0.25, 0.0) == pytest.approx(1.0)


def test_density_support_and_symmetry():
    ctx = QContext.numeric(0.5)
    w = support_halfwidth(1.0, 0.5)
    ys = np.linspace(-2 * w, 2 * w, 401)
    dens = qgauss_density(ys, 1.0, ctx)
    inside = np.abs(ys) < w
    assert np.all(dens[~inside] == 0.0)
    assert np.all(dens[inside] >= 0.0)
    assert dens == pytest.approx(qgauss_density(-ys, 1.0, ctx), abs=1e-14)


def test_density_vanishes_continuously_at_edge():
    ctx = QContext.numeric(0.4)
    w = support_halfwidth(1.0, 0.4)
    near = qgauss_density(np.array([w * (1 - 1e-6)]), 1.0, ctx)[0]
    assert 0.0 < near < 1e-2


def test_quadrature_rule_basics():
    for m in (64, 128, 1024):
        thetas, weights = _trapezoid_nodes(m)
        assert thetas.shape == weights.shape == (m - 1,)
        assert np.all(weights == math.pi / m)
        assert np.all(np.diff(thetas) > 0)
        assert -math.pi / 2 < thetas[0] and thetas[-1] < math.pi / 2
        # the nodes of m are, bit for bit, every other node of 2 m
        assert np.array_equal(_trapezoid_nodes(2 * m)[0][1::2], thetas)
    # every theta-integrand has the form cos(theta)**2 times a polynomial in
    # sin(theta)**2; the rule integrates those exactly, even at 64 intervals
    thetas, weights = _trapezoid_nodes(64)
    for k in range(11):
        exact = math.gamma(k + 0.5) * math.gamma(1.5) / math.gamma(k + 2)
        got = float(weights @ (np.cos(thetas) ** 2 * np.sin(thetas) ** (2 * k)))
        assert got == pytest.approx(exact, rel=1e-15, abs=1e-15)


def _record_intervals(monkeypatch):
    """Interval counts the adaptive driver asks for; each gets the real level."""
    counts = []
    real = measures._angle_level

    def spy(q, m):
        counts.append(m)
        return real(q, m)

    monkeypatch.setattr(measures, "_angle_level", spy)
    return counts


def test_integrate_nonconvergence_raises(monkeypatch):
    counts = _record_intervals(monkeypatch)
    spec = marginal_spec(QContext.numeric(0.5), 1.0)
    with pytest.raises(QuadratureError):
        integrate(lambda y: np.cos(200.0 * y), spec, rel_tol=0.0)
    assert counts == [64, 128, 256, 512, 1024, 2048, 4096, 8192]
    # in a stack, a row that stops at 128 intervals does not stop the rest:
    # the kink of |y - 0.3| never settles to 1e-10, so the stack raises
    counts.clear()
    with pytest.raises(QuadratureError):
        integrate(lambda y: np.vstack([y * y, np.abs(y - 0.3)]), spec)
    assert counts == [64, 128, 256, 512, 1024, 2048, 4096, 8192]


def test_integrate_evaluates_only_new_nodes():
    # the levels nest, so after the 63 nodes of 64 intervals each level hands
    # g only the nodes of 2 m that m lacks: every other one, from the first
    spec = marginal_spec(QContext.numeric(0.5), 1.0)
    handed = []

    def g(y):
        handed.append(y.copy())
        return np.cos(200.0 * y)

    with pytest.raises(QuadratureError):
        integrate(g, spec, rel_tol=0.0)
    assert [y.size for y in handed] == [63, 64, 128, 256, 512, 1024, 2048, 4096]
    for m, y in zip([64, 128, 256], handed):
        thetas = _trapezoid_nodes(m)[0]
        new = thetas if m == 64 else thetas[0::2].copy()
        assert np.array_equal(y, spec.w * np.sin(new))


def _two_specs(ctx: QContext) -> tuple:
    """A transition spec and a marginal spec at ctx, fresh objects."""
    return transition_spec(ctx, s=0.3, t=1.0, x=0.4 * support_halfwidth(0.3, ctx.qf)), marginal_spec(ctx, 1.0)


def test_integrate_keeps_each_specs_density_levels(monkeypatch):
    # calls on one spec share its density levels: calls stopping at 128 and
    # 512 intervals, repeated and interleaved over two specs, evaluate the
    # density once per spec and level, with the bits of a cold call (on a
    # fresh spec) and of a stacked call
    ctx = QContext.numeric(0.5)
    gs = (lambda y: y * y, lambda y: np.cos(100.0 * y))
    counts = _record_intervals(monkeypatch)
    cold = {}
    for k in (0, 1):
        for i, g in enumerate(gs):
            counts.clear()
            cold[k, i] = integrate(g, _two_specs(ctx)[k]).hex()
            assert counts[-1] == (128, 512)[i]
        stacked = integrate(lambda y: np.vstack([g(y) for g in gs]), _two_specs(ctx)[k])
        assert [float(v).hex() for v in stacked] == [cold[k, 0], cold[k, 1]]
    specs = _two_specs(ctx)
    evaluated = []
    real = measures._level_density

    def spy(level, us, r, q):
        evaluated.append((us, r, level[1].size))
        return real(level, us, r, q)

    monkeypatch.setattr(measures, "_level_density", spy)
    for _ in range(2):
        for i in (0, 1):
            for k, spec in enumerate(specs):
                assert integrate(gs[i], spec).hex() == cold[k, i]
    # 64 intervals: all 63 nodes; each later level: the nodes it adds
    states = [([spec.x / spec.w], spec.s / spec.t) for spec in specs]
    assert evaluated == [(*state, n) for pair in ((63, 64), (128, 256)) for state in states for n in pair]
    assert sorted(specs[0]._levels) == sorted(specs[1]._levels) == [63, 127, 255, 511]
    # a spec holds at most 8 levels, up to 8192 intervals: 16312 values
    with pytest.raises(QuadratureError):
        integrate(lambda y: np.cos(200.0 * y), specs[0], rel_tol=0.0)
    assert sum(level.size for level in specs[0]._levels.values()) == 16312


def test_density_levels_go_with_their_spec():
    # an equal but distinct spec evaluates its own levels, with the same
    # bits; a spec's levels are freed with it
    ctx = QContext.numeric(0.8)
    g = lambda y: np.vstack([y**2, np.cos(40.0 * y)])
    first, second = _two_specs(ctx)[0], _two_specs(ctx)[0]
    assert first == second and first is not second
    assert integrate(g, first).tobytes() == integrate(g, second).tobytes()
    assert first._levels is not second._levels and first._levels.keys() == second._levels.keys()
    for n, level in first._levels.items():
        assert level.tobytes() == second._levels[n].tobytes() and not level.flags.writeable
    ref = weakref.ref(first._levels[63])
    del first
    gc.collect()
    assert ref() is None


def test_delta_numeric_nonconvergence_stops_at_4096(monkeypatch):
    # the inner leg's moments at 4096 intervals take the kernel on 4095 x
    # 4095 points; so the real driver runs delta_numeric's estimate on 64
    # and 128 intervals and from then on a count that never settles
    counts = _record_intervals(monkeypatch)
    handed = []

    def driver(estimate, rel_tol, max_intervals, q):
        handed.append((rel_tol, max_intervals))

        def cheap(level):
            nodes = level[0].size
            return estimate(level) if nodes < 255 else float(nodes)

        return measures._adaptive(cheap, rel_tol, max_intervals, q)

    monkeypatch.setattr(qito, "_adaptive", driver)
    ctx = QContext.numeric(0.5)
    with pytest.raises(QuadratureError):
        qito.delta_numeric(QPolynomial.x_power(3), 0.2, 1.0, ctx, rel_tol=0.0)
    assert handed == [(0.0, 4096)]
    assert counts == [64, 128, 256, 512, 1024, 2048, 4096]

    # a stack of two entries, where the first stops at 128 intervals and the
    # second never settles, raises too
    def split(estimate, rel_tol, max_intervals, q):
        handed.append((rel_tol, max_intervals))

        def one_settles(level):
            nodes = level[0].size
            est = estimate(level) if nodes < 255 else None
            assert est is None or est.shape == (2,)
            return np.array([1.0, float(nodes)])

        return measures._adaptive(one_settles, rel_tol, max_intervals, q)

    monkeypatch.setattr(qito, "_adaptive", split)
    handed.clear()
    counts.clear()
    entries = [(0.2, QPolynomial.x_power(3)), (-0.3, QPolynomial.x_power(4))]
    with pytest.raises(QuadratureError):
        qito.delta_numeric_batch(entries, 1.0, ctx, rel_tol=1e-9)
    assert handed == [(1e-9, 4096)]
    assert counts == [64, 128, 256, 512, 1024, 2048, 4096]


def _full_levels(estimate, rel_tol, max_intervals):
    """The adaptive driver with every level evaluated on all of its nodes."""
    m, prev = 64, None
    while m <= max_intervals:
        est = estimate(*_trapezoid_nodes(m))
        if prev is not None and abs(est - prev) < rel_tol * max(1.0, abs(est)):
            return est
        prev, m = est, 2 * m
    raise QuadratureError("no convergence")


def _integrate_full(g, spec, rel_tol):
    def estimate(thetas, weights):
        gv = np.asarray(g(spec.w * np.sin(thetas)), dtype=float)
        return float(np.sum(weights * gv * _theta_density(spec, thetas)))

    return _full_levels(estimate, rel_tol, 8192)


def _nabla_full(f, x, s, ctx, rel_tol):
    a = [float(c(s)) for c in f.coeffs]
    q = ctx.qf
    spec = transition_spec(ctx, s=q * q * s, t=s, x=q * x)
    return _integrate_full(lambda y: qito._divdiff1_poly(a, float(x), y), spec, rel_tol)


def _delta_full(f, x, s, ctx, rel_tol):
    return _full_levels(_delta_estimate([float(c(s)) for c in f.coeffs], x, s, ctx), rel_tol, 4096)


def _inner_leg(q, c, rows):
    """The inner leg from q y between q**2 s and s, on its unit scale, for
    the given rows of the level whose node sines are c."""
    return ((1.0 - c) * (1.0 + c)) * measures._unit_kernel(
        c[None, :], (q * c[rows])[:, None], q * q, q, 4.0 / (1.0 - q)
    )


def _delta_estimate(a, x, s, ctx):
    """One level of delta_numeric for the x-coefficients a, evaluated on all
    of its nodes, with the inner leg's moments formed afresh: 128 rows at a
    time, one matrix-vector product per power of sin(theta)."""
    q = ctx.qf
    outer = transition_spec(ctx, s=q * s, t=s, x=x)

    def estimate(thetas, weights):
        c = np.sin(thetas)
        powers = [weights]
        while len(powers) < len(a) - 2:
            powers.append(powers[-1] * c)
        moments = np.empty((c.size, len(powers)))
        for r in range(0, c.size, 128):
            rho_in = _inner_leg(q, c, slice(r, r + 128))
            for j, power in enumerate(powers):
                moments[r : r + 128, j] = rho_in @ power
        legs = 0.0
        for e, column in zip(qito._divdiff2_coeffs(a, float(x), outer.w, c), moments.T):
            legs = legs + e * column
        return float(np.sum(weights * _theta_density(outer, thetas) * legs))

    return estimate


def _divdiff2_matrix(a, x, y, z):
    """The second divided difference of sum a_n x**n on every (y, z) pair,
    as qbm 0.6.0 formed it: sum_n a_n h_(n-2)(x, y, z), the complete
    homogeneous sums by their recurrence."""
    shape = np.broadcast_shapes(np.shape(y), np.shape(z))
    total, h, g, zpow = np.zeros(shape), np.ones(shape), np.ones(shape), np.ones(np.shape(z))
    for n in range(2, len(a)):
        if a[n] != 0.0:
            total += a[n] * h
        zpow = zpow * z
        g *= y
        g += zpow
        h *= x
        h += g
    return total


def _delta_matrix_form(f, x, s, ctx, rel_tol):
    """delta_numeric as qbm 0.6.0 formed it: the whole (m - 1) x (m - 1)
    inner-leg matrix times the divided differences, one matrix-vector
    product per level."""
    a = [float(c(s)) for c in f.coeffs]
    q = ctx.qf
    outer = transition_spec(ctx, s=q * s, t=s, x=x)

    def estimate(thetas, weights):
        c = np.sin(thetas)
        y = outer.w * c
        rho_in = _inner_leg(q, c, slice(None))
        vals = _divdiff2_matrix(a, float(x), y[:, None], y[None, :])
        return float(np.sum(weights * _theta_density(outer, thetas) * ((rho_in * vals) @ weights)))

    return _full_levels(estimate, rel_tol, 4096)


def _random_poly(rng, degree, t_degree=2):
    return QPolynomial.from_xt_terms(
        {(n, k): float(rng.uniform(-1.0, 1.0)) for n in range(degree + 1) for k in range(t_degree + 1)}
    )


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8])
def test_nested_levels_match_full_evaluation(q):
    # reusing the previous level's values, and sharing a density between the
    # rows of a stack, the entries of a batch or successive delta_numeric
    # calls, changes no bit of any value
    ctx = QContext.numeric(q)
    f = QPolynomial.x_power(3) + QPolynomial.x_power(5) * 0.5
    # cos(40 y) stops one level after the others, at most tolerances here
    gs = (
        lambda y: y**4, lambda y: np.cos(3.0 * y), lambda y: np.exp(y), lambda y: np.cos(40.0 * y)
    )
    for s, frac in ((0.1, 0.3), (0.4, -0.7), (0.8, 0.0)):
        spec = transition_spec(ctx, s=s, t=1.0, x=frac * support_halfwidth(s, q))
        for rel_tol in (1e-10, 1e-14):
            rows = integrate(lambda y: np.vstack([g(y) for g in gs]), spec, rel_tol)
            for g, row in zip(gs, rows):
                full = _integrate_full(g, spec, rel_tol).hex()
                assert integrate(g, spec, rel_tol).hex() == full
                assert float(row).hex() == full
        x = frac * support_halfwidth(q * s, q)
        for rel_tol in (1e-9, 1e-13):
            got = qito.delta_numeric(f, x, s, ctx, rel_tol=rel_tol)
            assert got.hex() == _delta_full(f, x, s, ctx, rel_tol).hex()
    # the kernel forms of several states and polynomials at one time s; at
    # q = 0.8 the first entry stops at 128 intervals and the others at 256
    s = 0.8
    fs = [f, QPolynomial.x_power(2), QPolynomial.from_xt_terms({(4, 1): 1.0, (1, 0): -2.0})]
    entries = [(x, g) for x in (0.0, 0.9 * support_halfwidth(q * s, q)) for g in fs]
    deltas = qito.delta_numeric_batch(entries, s, ctx, 1e-10)
    for (x, g), got in zip(entries, deltas):
        assert float(got).hex() == _delta_full(g, x, s, ctx, 1e-10).hex()
    grads = qito.nabla_numeric_batch(entries, s, ctx, 1e-12)
    for (x, g), got in zip(entries, grads):
        assert float(got).hex() == _nabla_full(g, x, s, ctx, 1e-12).hex()


@given(
    q=st.floats(0.01, 0.99),
    r_kind=st.sampled_from(["zero", "tiny", "drawn", "q", "q2"]),
    drawn=st.floats(0.0, 0.999),
    v=st.floats(-1.0, 1.0),
    log_m=st.integers(6, 12),
    whole=st.booleans(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_level_memo_keeps_the_kernels_bits(q, r_kind, drawn, v, log_m, whole):
    # the density on a level's new nodes from the memo's terms is
    # _unit_kernel's, bit for bit: states 0, +-0.99 of the edge sqrt(r) and
    # one drawn, one row each and as rows x nodes, on levels of 64 to 4096
    # intervals; whole keeps the terms past LEVEL_BYTES
    r = {"zero": 0.0, "tiny": 1e-9, "drawn": drawn, "q": q, "q2": q * q}[r_kind]
    m = 2**log_m
    with pytest.MonkeyPatch.context() as patch:
        if whole:
            patch.setattr(measures, "LEVEL_BYTES", math.inf)
        level = measures._angle_level.__wrapped__(q, m)
    weights, c, terms = level
    thetas = _trapezoid_nodes(m)[0]
    new = thetas if m == 64 else np.ascontiguousarray(thetas[0::2])
    assert weights.tobytes() == _trapezoid_nodes(m)[1].tobytes() and c.tobytes() == np.sin(new).tobytes()
    assert terms is not None or not whole

    def reference(c, u):
        return ((1.0 - c) * (1.0 + c)) * measures._unit_kernel(c, u, r, q, 4.0 / (1.0 - q))

    edge = math.sqrt(r)
    us = [0.0, 0.99 * edge, -0.99 * edge, v * edge]
    rows = measures._level_density(level, us, r, q)
    assert rows.shape == (4, c.size)
    assert rows.tobytes() == reference(c[None, :], np.array(us)[:, None]).tobytes()
    for u in us:
        assert measures._level_density(level, [u], r, q)[0].tobytes() == reference(c, u).tobytes()


def test_level_memo_gives_the_same_bits_cold_and_warm():
    # integrate and delta_numeric_batch give the same bits with the levels'
    # memo cleared and with it kept from an earlier call
    ctx, s = QContext.numeric(0.8), 0.8
    edge = support_halfwidth(0.8 * s, 0.8)
    g = lambda y: np.vstack([y**4, np.cos(3.0 * y), np.cos(40.0 * y)])
    fs = [QPolynomial.x_power(3) + QPolynomial.x_power(5) * 0.5, QPolynomial.x_power(2)]
    entries = [(x, f) for x in (0.0, 0.3 * edge, -0.9 * edge) for f in fs]
    runs = []
    for cold in (True, False):
        if cold:
            measures._angle_level.cache_clear()
        misses = measures._angle_level.cache_info().misses
        spec = transition_spec(ctx, s=0.4, t=1.0, x=-0.7 * support_halfwidth(0.4, 0.8))
        runs.append((integrate(g, spec).tobytes(), qito.delta_numeric_batch(entries, s, ctx).tobytes()))
        assert (measures._angle_level.cache_info().misses > misses) == cold
    assert runs[0] == runs[1]


def test_moment_form_matches_the_matrix_form():
    # the inner leg as moments times f[x, y, z]'s coefficients in z moves
    # delta_numeric from qbm 0.6.0's matrix form at rounding level only; at
    # q = 0.95, whose levels go past the matrix form's reach here, it meets
    # delta_exact
    rng = np.random.default_rng(29)
    for q in (0.2, 0.5, 0.8, 0.95):
        ctx = QContext.numeric(q)
        for _ in range(5 if q < 0.9 else 2):
            s = float(rng.uniform(0.05, 1.0))
            x = float(rng.uniform(-0.9, 0.9)) * support_halfwidth(q * s, q)
            f = _random_poly(rng, 6)
            got = qito.delta_numeric(f, x, s, ctx, rel_tol=1e-9)
            if q < 0.9:
                ref = _delta_matrix_form(f, x, s, ctx, 1e-9)
                assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (q, s, x)
            else:
                exact = float(qito.delta_exact(f, ctx)(x, s))
                assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact)), (q, s, x)


def test_inner_moment_columns_do_not_depend_on_the_width():
    # a width-3 call gives the first 3 columns of a width-5 call bit for
    # bit, in either order, each kept apart and read-only; and in one batch
    # of x-degrees 0 to 8 at two states, which reads width 7, each entry is
    # bit for bit its single call on an emptied cache
    q, s = 0.5, 0.7
    for first, second in ((3, 5), (5, 3)):
        qito._inner_moments.cache_clear()
        for m in (64, 128):
            got = {width: qito._inner_moments(q, m, width) for width in (first, second)}
            assert {width: a.shape for width, a in got.items()} == {3: (m - 1, 3), 5: (m - 1, 5)}
            assert not got[3].flags.writeable and not got[5].flags.writeable
            assert np.ascontiguousarray(got[5][:, :3]).tobytes() == got[3].tobytes()
        assert qito._inner_moments.cache_info().currsize == 4
    rng = np.random.default_rng(31)
    ctx = QContext.numeric(q)
    edge = support_halfwidth(q * s, q)
    fs = {d: _random_poly(rng, d, 1) for d in range(2, 9)}
    # degrees 0 and 1 have no inner leg: their values are 0.0
    fs.update({0: QPolynomial.from_xt_terms({(0, 1): 2.0}), 1: QPolynomial.x_power(1)})
    entries = [(x, fs[d]) for x in (-0.4 * edge, 0.7 * edge) for d in (6, 2, 8, 0, 4, 3, 7, 1, 5)]
    deltas = qito.delta_numeric_batch(entries, s, ctx)
    for (x, f), got in zip(entries, deltas):
        qito._inner_moments.cache_clear()
        assert float(got).hex() == qito.delta_numeric(f, x, s, ctx).hex()
        assert f.degree >= 2 or got == 0.0


def _kept_moments(q, m, width):
    """The inner leg's moments kept for (q, m, width); a read that must be
    a hit."""
    hits = qito._inner_moments.cache_info().hits
    moments = qito._inner_moments(q, m, width)
    assert qito._inner_moments.cache_info().hits == hits + 1, (q, m, width)
    return moments


def _delta_s_dependent(f, x, s, ctx, rel_tol):
    """delta_numeric as it was up to qbm 0.5.0: the inner leg from q y between
    q**2 s and s evaluated at those times, which depends on s by rounding."""
    a = [float(c(s)) for c in f.coeffs]
    q = ctx.qf
    outer = transition_spec(ctx, s=q * s, t=s, x=x)
    inner = transition_spec(ctx, s=q * q * s, t=s, x=0.0)

    def estimate(thetas, weights):
        y = outer.w * np.sin(thetas)
        rho_out = _theta_density(outer, thetas)
        rho_in = _theta_density(inner, thetas[None, :], (q * y)[:, None])
        vals = _divdiff2_matrix(a, float(x), y[:, None], y[None, :])
        return float(np.sum(weights * rho_out * ((rho_in * vals) @ weights)))

    return _full_levels(estimate, rel_tol, 4096)


def test_delta_inner_leg_is_s_free(monkeypatch):
    # the s-free inner leg moves delta_numeric only at rounding level
    rng = np.random.default_rng(23)
    for q in (0.2, 0.5, 0.8):
        ctx = QContext.numeric(q)
        for s in (0.5, 1.0, *rng.uniform(1e-3, 1.0, size=4)):
            s = float(s)
            x = float(rng.uniform(-0.9, 0.9)) * support_halfwidth(q * s, q)
            terms = {(n, k): float(rng.uniform(-1.0, 1.0)) for n in range(7) for k in range(3)}
            f = QPolynomial.from_xt_terms(terms)
            got = qito.delta_numeric(f, x, s, ctx)
            ref = _delta_s_dependent(f, x, s, ctx, measures.QUAD_REL_TOL)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (q, s, x)

    # one set of moments per (q, level) serves every s: a level's rows are
    # formed once, 128 at a time (qito's only kernel calls, each recorded as
    # (q, level, rows)), and every array kept is read-only, one column per
    # power of z that f[x, y, z] reaches
    built = []
    real = measures._angle_density

    def spy(c, u, r, q):
        built.append((q, c.size + 1, u.size))
        return real(c, u, r, q)

    monkeypatch.setattr(qito, "_angle_density", spy)
    qito._inner_moments.cache_clear()
    ctx, f = QContext.numeric(0.8), QPolynomial.x_power(5) + QPolynomial.x_power(2)
    for s in (0.6, 1.0):
        qito.delta_numeric(f, 0.3 * support_halfwidth(0.8 * s, 0.8), s, ctx)
    assert built == [(0.8, 64, 63), (0.8, 128, 127), (0.8, 256, 128), (0.8, 256, 127)]
    assert qito._inner_moments.cache_info().currsize == 3
    for m in (64, 128, 256):
        moments = _kept_moments(0.8, m, 4)
        assert not moments.flags.writeable and moments.shape == (m - 1, 4)
        # column j holds the moments of sin(theta)**j: at most the leg's
        # mass, column 0, which is 1 up to the quadrature's error
        assert np.all(np.abs(moments) <= moments[:, :1] * (1.0 + 1e-12))
        assert moments[:, 0] == pytest.approx(1.0, abs=1e-9)

    # at most 32 triples (q, level, width) after more than that: a triple
    # used last is kept, the first one is not
    for q in np.linspace(0.1, 0.7, 20).tolist():
        qito.delta_numeric(f, 0.0, 1.0, QContext.numeric(q))
    info = qito._inner_moments.cache_info()
    assert len({key[:2] for key in built}) > 32 and info.currsize == info.maxsize == 32
    assert _kept_moments(0.7, 64, 4).shape == (63, 4)
    hits, misses = qito._inner_moments.cache_info()[:2]
    assert (hits, misses) == (info.hits + 1, info.misses)
    qito._inner_moments(0.1, 64, 4)
    assert qito._inner_moments.cache_info()[:2] == (hits, misses + 1)
    # and a level above 256 intervals is kept too: a second call forms no rows
    built.clear()
    ctx = QContext.numeric(0.9)
    for _ in range(2):
        qito.delta_numeric(QPolynomial.x_power(6), 0.9 * support_halfwidth(0.9, 0.9), 1.0, ctx, rel_tol=1e-9)
    deep = [(0.9, 512, 128)] * 3 + [(0.9, 512, 127)]
    assert _kept_moments(0.9, 512, 5).shape == (511, 5)
    assert built == [(0.9, 64, 63), (0.9, 128, 127), (0.9, 256, 128), (0.9, 256, 127), *deep]


def test_delta_numeric_deep_levels_keep_memory_bounded(monkeypatch):
    # the inner leg's moments are formed 128 rows at a time: at 1024
    # intervals forming them peaks below the 1023 x 1023 matrix (8.4 MB)
    # that the whole leg would be, 1023 x 4 values are kept, and the value
    # keeps the bits of the full evaluation
    q, s = 0.5, 1.0
    ctx = QContext.numeric(q)
    f = QPolynomial.x_power(3) + QPolynomial.x_power(5) * 0.5
    x = 0.3 * support_halfwidth(q * s, q)
    levels = []

    def to_1024(estimate, rel_tol, max_intervals, q):
        for m in (64, 128, 256, 512):
            estimate(measures._angle_level(q, m))
        tracemalloc.start()
        try:
            value = estimate(measures._angle_level(q, 1024))
            levels.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return value

    monkeypatch.setattr(qito, "_adaptive", to_1024)
    qito._inner_moments.cache_clear()
    got = qito.delta_numeric(f, x, s, ctx)
    assert levels[0] < 1023 * 1023 * 8
    assert _kept_moments(q, 1024, 4).shape == (1023, 4)
    full = _delta_estimate([float(c(s)) for c in f.coeffs], x, s, ctx)
    assert got.hex() == full(*_trapezoid_nodes(1024)).hex()


@given(
    q=st.floats(0.01, 0.99),
    t=st.floats(0.05, 5.0),
    ratio=st.floats(0.0, 0.99),
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_one_point_kernel_matches_array_path(q, t, ratio, a, b):
    # a point alone, as a scalar, a 0-d or a one-element array, and two copies
    # of it give the same bits, in the kernel and in the density
    s = ratio * t
    x = a * support_halfwidth(s, q)
    w = support_halfwidth(t, q)
    y = b * w
    ref = measures._kernel(np.full(2, y), np.full(2, x), s, t, q)[0].hex()
    for yy, xx, shape in (
        (y, x, ()),
        (np.array(y), np.array(x), ()),
        (np.array([y]), x, (1,)),
        (y, np.array([[x]]), (1, 1)),
    ):
        one = measures._kernel(yy, xx, s, t, q)
        assert one.shape == shape and float(one.ravel()[0]).hex() == ref
    # the density: y inside, at both edges and off the support (exactly 0.0),
    # x as drawn and at +-0.0, each point given as a float, an np.float64, a
    # 0-d or a one-element array; the type and shape are the array form's
    ctx = QContext.numeric(q)
    for xv in (x, 0.0, -0.0):
        for yv in (y, w, -w, (2.0 + b) * w):
            pair = transition_density(np.full(2, xv), s, t, np.full(2, yv), ctx)
            bits = pair[:1].tobytes()
            for yy in (yv, np.float64(yv), np.array(yv)):
                for xx in (xv, np.array(xv)):
                    one = transition_density(xx, s, t, yy, ctx)
                    assert type(one) is np.float64 and np.array([one]).tobytes() == bits
            for yy, xx, shape in ((np.array([yv]), xv, (1,)), (yv, np.array([[xv]]), (1, 1))):
                one = transition_density(xx, s, t, yy, ctx)
                assert type(one) is np.ndarray and one.shape == shape and one.tobytes() == bits
            if yv == y and xv == 0.0:
                marginal = qgauss_density(np.full(2, yv), t, ctx)[:1].tobytes()
                assert np.array([qgauss_density(yv, t, ctx)]).tobytes() == marginal


@given(
    q=st.floats(0.01, 0.99),
    t=st.floats(0.05, 5.0),
    ratio=st.floats(0.0, 0.99),
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_kernel_keeps_its_bits_under_the_mirror(q, t, ratio, a, b):
    # (x, y) -> (-x, -y) changes no bit of the kernel or the density, on
    # Python floats and on arrays: the transition table's rows below the
    # centre rest on it
    s = ratio * t
    c, u = b, a * math.sqrt(ratio)
    one = measures._unit_kernel(c, u, ratio, q, 1.0 / t)
    assert float(measures._unit_kernel(-c, -u, ratio, q, 1.0 / t)).hex() == float(one).hex()
    pair = measures._unit_kernel(np.array([c, -c]), np.array([u, -u]), ratio, q, 1.0 / t)
    assert pair[0].hex() == pair[1].hex() == float(one).hex()
    ctx = QContext.numeric(q)
    x, y = a * support_halfwidth(s, q), b * support_halfwidth(t, q)
    one = transition_density(x, s, t, y, ctx)
    assert float(transition_density(-x, s, t, -y, ctx)).hex() == float(one).hex()
    pair = transition_density(np.array([x, -x]), s, t, np.array([y, -y]), ctx)
    assert pair[0].hex() == pair[1].hex() == float(one).hex()


def test_one_point_kernel_zero_denominator_takes_array_path(monkeypatch):
    # off the support, at r = 0, c = 1 and u = 1/2, the first denominator is
    # exactly 0; one point and two copies of it give the same inf or nan
    q = 0.5
    w = support_halfwidth(1.0, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        one = measures._kernel(np.array([w]), w / 2.0, 0.0, 1.0, q)
        pair = measures._kernel(np.full(2, w), w / 2.0, 0.0, 1.0, q)
    assert not np.isfinite(pair[0])
    assert one.shape == (1,) and np.array_equal(one, pair[:1], equal_nan=True)
    # the densities reject a subnormal horizon up front
    with pytest.raises(ValueError, match="underflows"):
        qgauss_density(0.0, 1e-310, QContext.numeric(q))
    # a one-point density whose float kernel divides by zero takes the array
    # form.  Near the diagonal the expanded first denominator cancels to 0.0
    # (at s = 1 - 1e-8 and x at 0.9 of the time-s edge), so the density is
    # inf there; a kernel that raises on every float shows the route.
    ctx = QContext.numeric(q)
    s = 0.99999999
    x = 0.9 * support_halfwidth(s, q)
    y = float.fromhex("0x1.45d5b5c9f85bcp+1")
    seen = []
    real = measures._unit_kernel

    def zero_on_floats(c, *rest):
        seen.append(type(c))
        if type(c) is float:
            raise ZeroDivisionError
        return real(c, *rest)

    with np.errstate(divide="ignore", invalid="ignore"):
        pair = transition_density(np.full(2, x), s, 1.0, np.full(2, y), ctx)
        assert np.array_equal(transition_density(x, s, 1.0, np.array([y]), ctx), pair[:1], equal_nan=True)
        monkeypatch.setattr(measures, "_unit_kernel", zero_on_floats)
        for yy in (0.5, y):
            seen.clear()
            one = transition_density(x, s, 1.0, yy, ctx)
            assert seen == [float, np.float64]
            pair = transition_density(np.full(2, x), s, 1.0, np.full(2, yy), ctx)
            assert np.array_equal(np.array([one]), pair[:1], equal_nan=True)


def test_one_point_calls_run_on_python_floats(monkeypatch):
    # a scalar, 0-d or one-element point reaches the kernel on Python floats
    # at the density's entry, as the Chapman-Kolmogorov reference values and
    # second legs call it; more points take the array form
    seen = []
    real = measures._unit_kernel
    monkeypatch.setattr(measures, "_unit_kernel", lambda c, *rest: seen.append(type(c)) or real(c, *rest))
    ctx = QContext.numeric(0.5)
    transition_density(0.3, 0.25, 1.0, 0.5, ctx)
    transition_density(np.array(0.3), 0.25, 1.0, np.array([0.5]), ctx)
    transition_density(np.array([0.3]), 0.25, 1.0, np.float64(0.5), ctx)
    qgauss_density(0.5, 1.0, ctx)
    assert seen == [float, float, float, float]
    transition_density(0.3, 0.25, 1.0, np.array([0.5, 0.6]), ctx)
    assert seen[-1] is np.ndarray
    # off the support the density is 0.0 without a kernel call
    seen.clear()
    assert transition_density(0.3, 0.25, 1.0, 10.0, ctx) == 0.0 and seen == []


def test_smallest_horizon_gives_finite_densities():
    # t = 1.5e-154 is just above sqrt(sys.float_info.min), below which t**2
    # underflows: every value on the support is finite and matches the
    # unit-time density scaled by sqrt(t); a subnormal t is rejected
    t = 1.5e-154
    for q in (0.01, 0.2, 0.5, 0.8, 0.95):
        ctx = QContext.numeric(q)
        w = support_halfwidth(t, q)
        ys = np.linspace(-1.0, 1.0, 41) * w
        dens = qgauss_density(ys, t, ctx)
        assert np.all(np.isfinite(dens)) and np.all(dens >= 0.0)
        # inside the support; at the edge either side may round to zero
        unit = qgauss_density(ys[1:-1] / math.sqrt(t), 1.0, ctx) / math.sqrt(t)
        assert dens[1:-1] == pytest.approx(unit, rel=1e-13, abs=0.0)
        for ratio in (0.5, 0.99):
            x = 0.9 * support_halfwidth(ratio * t, q)
            assert np.all(np.isfinite(transition_density(x, ratio * t, t, ys, ctx)))
    subnormal = math.nextafter(sys.float_info.min, 0.0)
    with pytest.raises(ValueError, match="underflows"):
        qgauss_density(0.0, subnormal, QContext.numeric(0.5))
    with pytest.raises(ValueError, match="underflows"):
        transition_spec(QContext.numeric(0.5), 0.0, subnormal, 0.0)


@pytest.mark.parametrize("t", [1e-163, 1e-300, sys.float_info.min])
def test_densities_below_the_square_root_of_the_float_floor(t):
    # horizons whose t**2 underflows: the marginal and a transition density
    # are finite and nonnegative on the support, with unit mass, and moments
    # in units of sqrt(t) (mean, and E y**2 = x**2 + t - s) to a few ulps
    rt = math.sqrt(t)
    moments = lambda y: np.vstack([np.ones_like(y), y / rt, (y / rt) ** 2])
    for q in (0.2, 0.5, 0.8):
        ctx = QContext.numeric(q)
        ys = np.linspace(-1.0, 1.0, 41) * support_halfwidth(t, q)
        s = 0.5 * t
        x = 0.4 * support_halfwidth(s, q)
        for dens in (qgauss_density(ys, t, ctx), transition_density(x, s, t, ys, ctx)):
            assert np.all(np.isfinite(dens)) and np.all(dens >= 0.0)
        u = x / rt
        for spec, mean, second in ((marginal_spec(ctx, t), 0.0, 1.0), (transition_spec(ctx, s, t, x), u, u * u + 1.0 - s / t)):
            mass, m1, m2 = integrate(moments, spec)
            assert abs(mass - 1.0) <= 4.5e-16 and abs(m1 - mean) <= 1e-15 and abs(m2 / second - 1.0) <= 1e-15


@given(
    q=st.floats(0.01, 0.99),
    log_t=st.floats(-154.0, 3.0),
    ratio=st.floats(0.0, 0.99),
    a=st.floats(-1.0, 1.0),
    b=st.floats(-1.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_kernel_is_finite_and_nonnegative_on_the_support(q, log_t, ratio, a, b):
    # t from 1e-154 to 1e3, and x and y anywhere in their supports, edges
    # too (below about 1e-305, 1 / t times the unit-time kernel overflows to
    # inf at s/t >= 0.9)
    t = 10.0**log_t
    s = ratio * t
    x = a * support_halfwidth(s, q)
    y = b * support_halfwidth(t, q)
    value = float(measures._kernel(y, x, s, t, q))
    assert math.isfinite(value) and value >= 0.0
    density = transition_density(x, s, t, y, QContext.numeric(q))
    assert math.isfinite(density) and density >= 0.0


def _frozen_unit_kernel(c, u, r, q, scale):
    """measures._unit_kernel as qbm 0.6.0 formed it, every constant of (q, r)
    formed again on each call, with its _tail_plan and _log_tail."""
    k0, n_terms, rho = measures._series_cut(q, PROD_EPS)
    log_y, m, rho_m, q_m = 0.0, 1, rho, q
    while rho_m > 1e-18 * m * (1.0 - q_m):
        log_y -= (r**m + q_m) * rho_m / (m * (1.0 - q_m))
        m, rho_m, q_m = m + 1, rho_m * rho, q_m * q
    # the log tail
    c2 = 2.0 * (c * c) - 1.0
    two_c, two_c2, two_u = 2.0 * c, 2.0 * c2, 2.0 * u
    t_prev, t_cur, d_prev, d_cur, s_prev, s_cur = 1.0, c, 1.0, c2, 1.0, u
    pair, rho_m, q_m = 0.0, 1.0, 1.0
    for m in range(1, n_terms + 1):
        rho_m *= rho
        q_m *= q
        a = rho_m / (m * (1.0 - q_m))
        log_y -= (2.0 * a) * d_cur
        d_prev, d_cur = d_cur, two_c2 * d_cur - d_prev
        pair += ((4.0 * a) * s_cur) * t_cur
        t_prev, t_cur = t_cur, two_c * t_cur - t_prev
        s_prev, s_cur = s_cur, two_u * s_cur - r * s_prev
    pair += log_y
    # the direct factors
    value = np.exp(pair)
    const = scale * (1.0 - q) * (1.0 - q) * (1.0 - r) / (2.0 * math.pi)
    c4, uu = 4.0 * (c * c), u * u
    num = den = qk = 1.0
    for k in range(k0):
        q2k = qk * qk
        if k:
            const *= (1.0 - r * qk) * (1.0 - q * qk)
            num *= (1.0 + qk) * (1.0 + qk) - qk * c4
        b = 1.0 - r * q2k
        f = ((-4.0 * qk * (1.0 + r * q2k)) * u) * c
        f += b * b + (r * q2k) * c4
        f += (4.0 * q2k) * uu
        den *= f
        qk *= q
    value *= (const * num) / den
    return value


@given(
    q=st.floats(0.05, 0.95),
    r=st.floats(0.0, 0.999),
    c=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    v=st.floats(-1.0, 1.0),
    scale=st.floats(0.01, 100.0),
    shape=st.tuples(st.integers(1, 5), st.integers(1, 9)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_kernel_plan_keeps_the_bits_of_per_call_constants(q, r, c, v, scale, shape, seed):
    # the constants of (q, r) taken from _tail_plan change no bit of the
    # kernel, on Python floats and on (rows x nodes) arrays, u = v sqrt(r)
    u = v * math.sqrt(r)
    got = measures._unit_kernel(c, u, r, q, scale)
    assert float(got).hex() == float(_frozen_unit_kernel(c, u, r, q, scale)).hex()
    rng = np.random.default_rng(seed)
    cs = np.append(rng.uniform(-1.0, 1.0, shape[1] - 1), c)[None, :]
    us = np.append(rng.uniform(-1.0, 1.0, shape[0] - 1), v)[:, None] * math.sqrt(r)
    got = measures._unit_kernel(cs, us, r, q, scale)
    assert got.shape == shape and got.tobytes() == _frozen_unit_kernel(cs, us, r, q, scale).tobytes()


def _decimal_kernel(y, x, s, t, q):
    """The kernel's product in the state variables, in 40-digit decimals from
    the exact float inputs, cut once q**k < 1e-40."""
    with localcontext() as dc:
        dc.prec = 40
        y, x, s, t, q = (Decimal(v) for v in (y, x, s, t, q))
        c = 1 - q
        out = c * c * (t - s) / (2 * Decimal("3.141592653589793238462643383279502884197"))
        qk = q2k = Decimal(1)
        k = 0
        while True:
            if k:
                out *= (t - s * qk) * (1 - qk * q) * (t * (1 + qk) ** 2 - c * y * y * qk)
            out /= (t - s * q2k) ** 2 + c * q2k * (s * y * y + t * x * x) - c * qk * (t + s * q2k) * x * y
            if qk < Decimal("1e-40"):
                return out
            qk, q2k, k = qk * q, q2k * q * q, k + 1


@pytest.mark.parametrize(
    "q, bound, n_points", [(0.2, 1e-13, 40), (0.5, 1e-13, 40), (0.8, 1e-13, 30), (0.95, 1e-12, 15), (0.99, 1e-10, 6)]
)
def test_kernel_matches_decimal_reference(q, bound, n_points):
    # random points: t log-uniform in [0.01, 100], s / t in [0, 0.99], x and
    # y uniform on their supports; values below 1e-280 are left out
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(n_points):
        t = float(np.exp(rng.uniform(math.log(0.01), math.log(100.0))))
        s = float(rng.uniform(0.0, 0.99)) * t
        x = float(rng.uniform(-1.0, 1.0)) * support_halfwidth(s, q)
        y = float(rng.uniform(-1.0, 1.0)) * support_halfwidth(t, q)
        ref = _decimal_kernel(y, x, s, t, q)
        if ref > Decimal("1e-280"):
            got = Decimal(float(measures._kernel(y, x, s, t, q)))
            worst = max(worst, float(abs(got / ref - 1)))
    assert worst <= bound


def _scalar_tails(q, r, rho):
    """log (r rho; q)_inf + log (q rho; q)_inf, factor by factor."""
    total, a = 0.0, rho
    while a > 1e-22:
        total += math.log1p(-r * a) + math.log1p(-q * a)
        a *= q
    return total


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 0.95, 0.99])
def test_tail_series_meets_its_remainder_bound_and_matches_the_product(q, monkeypatch):
    rng = np.random.default_rng(17)
    for prod_eps in (PROD_EPS, 1e-12):
        k0, n_terms, rho = measures._series_cut(q, prod_eps)
        assert k0 >= 1 and rho == pytest.approx(q**k0, rel=1e-13, abs=0.0)
        # the remainder bound 6 rho^(M+1) / ((M+1)(1-q)(1-rho)) holds, and
        # one term fewer would not meet it
        bound = lambda m: 6.0 * rho ** (m + 1) / ((m + 1) * (1.0 - q) * (1.0 - rho))
        assert bound(n_terms) <= prod_eps
        assert n_terms == 0 or bound(n_terms - 1) > prod_eps
        for r in (0.0, 0.3, q, 0.99):
            # the kernel's plan, formed afresh with PROD_EPS at prod_eps: this
            # cut, and its scalar tails by their series, factor by factor
            monkeypatch.setattr(measures, "PROD_EPS", prod_eps)
            plan = measures._tail_plan.__wrapped__(q, r)
            monkeypatch.undo()
            assert plan[:3] == (k0, n_terms, rho)
            assert plan[3] == pytest.approx(_scalar_tails(q, r, rho), rel=1e-13, abs=1e-18)
            if prod_eps == PROD_EPS:
                assert measures._tail_plan(q, r) == plan
            for phi, psi in rng.uniform(0.0, math.pi, (3, 2)):
                c, u = math.cos(phi), math.sqrt(r) * math.cos(psi)
                # brute force: the factors k >= k0 in complex form
                tail, k, qk = 1.0, k0, rho
                while qk > 1e-22:
                    num = (1 - r * qk) * (1 - q * qk) * abs(1 - qk * cmath.exp(2j * phi)) ** 2
                    a = math.sqrt(r) * qk
                    den = (abs(1 - a * cmath.exp(1j * (phi + psi))) * abs(1 - a * cmath.exp(1j * (phi - psi)))) ** 2
                    tail *= num / den
                    k, qk = k + 1, qk * q
                # the cut series is within prod_eps in log; rounding grows with
                # the size of the log and with the product's factor count
                got = math.exp(measures._log_tail(c, u, r, plan))
                allowance = prod_eps + 8.0 * sys.float_info.epsilon * (k - k0 + abs(math.log(tail)))
                assert got == pytest.approx(tail, rel=allowance, abs=0.0)


def _tables(q):
    """(table, spec of its rows, their start states) for both tables at q."""
    ctx = QContext.numeric(q)
    tt = scaled_transition_table(q)
    return (
        (scaled_marginal_table(q), marginal_spec(ctx, 1.0), np.zeros(1)),
        (tt, transition_spec(ctx, q, 1.0, 0.0), tt.x_grid),
    )


def test_tables_record_their_normalisation_defect():
    # a row's mass before normalisation is its Gauss-Lobatto sum over its
    # block's window; it agrees with the trapezoid quadrature of the same
    # density, and the defect is the largest |mass - 1| over the rows the
    # build inverts: the blocks from the centre row up, each at most
    # ROW_BLOCK rows whose states span at most WINDOW standard deviations
    ctx = QContext.numeric(0.5)
    for table, spec, xs in _tables(0.5):
        step = measures.ROW_BLOCK
        if xs.size > 1:
            span = measures.WINDOW * np.sqrt(spec.t - spec.s) / (xs[1] - xs[0])
            step = max(1, min(step, int(span) + 1))
        inverted = xs[xs.size // 2 :]
        blocks = range(0, inverted.size, step)
        masses = np.concatenate([measures._theta_cdf(spec, inverted[r : r + step])[2][:, -1] for r in blocks])
        assert 0.0 < table.defect <= measures.NORM_TOL
        assert table.defect == np.max(np.abs(masses - 1.0))
        for x, mass in zip(inverted[::64], masses[::64]):
            row = transition_spec(ctx, spec.s, spec.t, x)
            assert mass == pytest.approx(integrate(lambda y: np.ones_like(y), row), rel=0.0, abs=1e-13)


@pytest.mark.parametrize("q", [0.2, 0.5, 0.8, 0.95])
def test_transition_rows_below_the_centre_mirror_those_above(q):
    # the grid is odd with 0.0 at its centre; the rows from the centre up
    # are inverted, and each row i below it is the exact mirror of row
    # N - 1 - i: y / w at knot k is minus that row's at N_U - k, and the
    # slope is that row's there.  The blend loss is a palindrome
    table = scaled_transition_table(q)
    xg, cubic, n_u = table.x_grid, table.cubic, measures.N_U
    n = xg.size
    centre = n // 2
    assert np.array_equal(xg, -xg[::-1]) and xg[centre] == 0.0
    lower, k = np.arange(centre)[:, None], np.arange(1, n_u)
    assert np.array_equal(cubic[lower, k, 0], -cubic[n - 1 - lower, n_u - k, 0])
    assert np.array_equal(cubic[lower, k, 1], cubic[n - 1 - lower, n_u - k, 1])
    assert np.array_equal(table.blend_loss, table.blend_loss[::-1])
    # the upper half is a direct inversion of its blocks, bit for bit (at
    # these q the window caps no block below ROW_BLOCK rows)
    spec = transition_spec(QContext.numeric(q), q, 1.0, 0.0)
    for r in range(centre, n, measures.ROW_BLOCK):
        block = slice(r, r + measures.ROW_BLOCK)
        with np.errstate(divide="ignore", invalid="ignore"):
            quantile, slope = measures._invert_rows(spec, xg[block])[:2]
        z0, z1, d0, d1 = quantile[:, :-1], quantile[:, 1:], slope[:, :-1], slope[:, 1:]
        gap = z1 - z0
        records = np.stack([z0, d0, 3.0 * gap - 2.0 * d0 - d1, d0 + d1 - 2.0 * gap], axis=-1)
        assert np.array_equal(cubic[block], records)


def test_table_builds_gate_mass_and_u_error(monkeypatch):
    build = scaled_marginal_table.__wrapped__
    assert build(0.5).u_error > 1e-13
    monkeypatch.setattr(measures, "U_TOL", 1e-13)
    with pytest.raises(InvalidDensityError, match="in u"):
        build(0.5)
    monkeypatch.setattr(measures, "NORM_TOL", 0.0)
    with pytest.raises(InvalidDensityError, match="mass off"):
        build(0.5)


def test_marginal_moments():
    for q in (0.3, 0.6):
        ctx = QContext.numeric(q)
        for t in (0.5, 2.0):
            spec = marginal_spec(ctx, t)
            assert integrate(lambda y: np.ones_like(y), spec) == pytest.approx(1.0, abs=1e-10)
            assert integrate(lambda y: y, spec) == pytest.approx(0.0, abs=1e-10)
            assert integrate(lambda y: y * y, spec) == pytest.approx(t, rel=1e-9)
            assert integrate(lambda y: y**4, spec) == pytest.approx(
                (2 + q) * t * t, rel=1e-9
            )


def test_transition_kernel_martingale_moments():
    q = 0.5
    ctx = QContext.numeric(q)
    s, t, x = 0.5, 1.0, 0.6
    spec = transition_spec(ctx, s=s, t=t, x=x)
    assert integrate(lambda y: np.ones_like(y), spec) == pytest.approx(1.0, abs=1e-10)
    # conditional mean is the current state, conditional variance adds t - s
    assert integrate(lambda y: y, spec) == pytest.approx(x, rel=1e-9)
    assert integrate(lambda y: y * y, spec) == pytest.approx(x * x + t - s, rel=1e-9)


def test_marginal_matches_qhermite_weight():
    """The q-Hermite weight (Koekoek, Lesky & Swarttouw 2010, ch. 14) at
    y = 2 sqrt(t) cos(phi) / sqrt(1-q), in complex form, as an independent
    reference for the real product the density kernel multiplies out."""
    phis = np.linspace(0.02, math.pi - 0.02, 41)
    for q in (0.2, 0.5, 0.8, 0.95):
        ctx = QContext.numeric(q)
        qn = q ** np.arange(1, 2000)
        e2 = np.exp(2j * phis)[:, None]
        prod = np.prod((1.0 - qn) * np.abs(1.0 - qn * e2) ** 2, axis=1)
        for t in (0.5, 1.0, 3.0):
            ys = 2.0 * math.sqrt(t) * np.cos(phis) / math.sqrt(1.0 - q)
            ref = math.sqrt(1.0 - q) / (math.pi * math.sqrt(t)) * np.sin(phis) * prod
            assert qgauss_density(ys, t, ctx) == pytest.approx(ref, rel=1e-11, abs=0.0)


def test_theta_density_is_density_times_jacobian():
    ctx = QContext.numeric(0.7)
    s, t, x = 0.4, 1.1, -0.6
    spec = transition_spec(ctx, s=s, t=t, x=x)
    thetas = np.linspace(-1.5, 1.5, 31)
    w = spec.w
    expected = transition_density(x, s, t, w * np.sin(thetas), ctx) * w * np.cos(thetas)
    assert _theta_density(spec, thetas) == pytest.approx(expected, rel=1e-12)
    # an x override broadcasts against theta, one row per start state
    xs = np.array([x, 0.0, 0.5])
    rows = _theta_density(spec, thetas[None, :], xs[:, None])
    assert rows[0] == pytest.approx(_theta_density(spec, thetas), rel=1e-15)
    other = transition_spec(ctx, s=s, t=t, x=0.5)
    assert rows[2] == pytest.approx(_theta_density(other, thetas), rel=1e-15)


def test_transition_density_broadcasts_over_x():
    ctx = QContext.numeric(0.5)
    s, t = 0.5, 1.0
    xs = np.linspace(-0.9, 0.9, 7) * support_halfwidth(s, 0.5)
    y = 0.37
    together = transition_density(xs, s, t, y, ctx)
    assert together.shape == xs.shape
    one_by_one = [transition_density(float(xi), s, t, np.asarray([y]), ctx)[0] for xi in xs]
    assert together.tolist() == one_by_one
    # the y-density is exactly zero off the support
    w = support_halfwidth(t, 0.5)
    assert transition_density(xs, s, t, w, ctx).tolist() == [0.0] * len(xs)


def test_transition_rejects_state_outside_support():
    ctx = QContext.numeric(0.5)
    w = support_halfwidth(0.5, 0.5)
    with pytest.raises(ValueError):
        transition_density(1.5 * w, 0.5, 1.0, np.array([0.0]), ctx)
    # every x of an array is checked
    with pytest.raises(ValueError):
        transition_density(np.array([0.0, -1.01 * w]), 0.5, 1.0, 0.0, ctx)


def test_transition_rejects_nan_state_and_non_finite_time():
    ctx = QContext.numeric(0.5)
    with pytest.raises(ValueError):
        transition_density(math.nan, 0.5, 1.0, 0.3, ctx)
    with pytest.raises(ValueError):
        transition_density(np.array([0.0, math.nan]), 0.5, 1.0, 0.3, ctx)
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError):
            qgauss_density(0.0, t, ctx)


def _accurate_cdf(spec, x, theta, panels=32):
    """The theta-CDF of start state x at the angles theta: composite 16-point
    Gauss-Legendre over [-pi/2, theta], independent of the tables."""
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = -math.pi / 2.0 + (theta[:, None] + math.pi / 2.0) * (np.arange(panels + 1) / panels)
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    points = 0.5 * (edges[:, 1:] + edges[:, :-1])[:, :, None] + half * nodes
    dens = _theta_density(spec, points.reshape(theta.size, -1), x).reshape(points.shape)
    return np.sum(dens * half * weights, axis=(1, 2))


@pytest.mark.parametrize("q", [0.5, 0.8])
def test_inverse_tables_meet_their_u_error(q):
    # every row of both tables, at random uniforms and at the midpoints
    # between knots around u = 1/2, where the knots are widest: the accurate
    # CDF at the tabulated quantile is within the recorded u-error of u, which
    # is under the gate.  The build measures at the midpoints, where cubic
    # Hermite interpolation errs most to leading order; off them the error
    # can be a few per cent larger
    mids = measures._knot_u(np.arange(measures.N_U) + 0.5)
    u = np.concatenate([np.random.default_rng(7).random(8), mids[measures.N_U // 2 - 12 : measures.N_U // 2 + 12]])
    for table, spec, xs in _tables(q):
        assert 0.0 < table.u_error <= measures.U_TOL
        worst = 0.0
        for row, x in enumerate(xs):
            theta = np.arcsin(draw_from_table(table, row, u) / table.w)
            worst = max(worst, float(np.max(np.abs(_accurate_cdf(spec, x, theta) - u))))
        assert table.u_error / 2.0 < worst <= table.u_error * 1.1


@pytest.mark.parametrize("q", [0.5, 0.8])
def test_transition_draw_matches_two_inversions(q):
    # the one-pass step against two single-row draws: each input's row is
    # once the upper bracketing row j + 1 and once the lower row j; states at
    # the grid's ends and past them clip j and the weight.  The blend's lost
    # variance is restored about x, inside the support
    table = scaled_transition_table(q)
    xg, w = table.x_grid, table.w
    dx = xg[1] - xg[0]
    rng = np.random.default_rng(6)
    rows = rng.integers(0, xg.size, 4000)
    u = np.concatenate([rng.random(3000), measures._knot_u(rng.integers(0, measures.N_U, 996)), [0.0, 1.0 - 2.0**-53] * 2])
    lam = rng.random(rows.size)
    x = np.concatenate([xg[0] + (rows - 1 + lam) * dx, xg[0] + rows * dx, [xg[0] - dx, xg[-1], xg[-1] + dx]])
    u = np.concatenate([u, u, [0.0, 0.5, 1.0 - 2.0**-53]])
    pos = (x - xg[0]) / dx
    j = np.clip(np.floor(pos).astype(np.intp), 0, xg.shape[0] - 2)
    lam = np.clip(pos - j, 0.0, 1.0)
    assert {0, xg.shape[0] - 2} <= set(j.tolist()) and lam.min() == 0.0 and lam.max() == 1.0
    y = (1.0 - lam) * draw_from_table(table, j, u) + lam * draw_from_table(table, j + 1, u)
    y += (y - x) * (table.blend_loss[j] * lam * (1.0 - lam))
    drawn = draw_transition_batch(table, x, u)
    assert np.array_equal(drawn, np.clip(y, -w, w))
    # one state at a time on Python floats, at the uniforms' knot positions:
    # the same bits, and each row alone
    cells, offsets = (a.tolist() for a in measures._knot_cells(u))
    one = [measures._transition_at(table, xi, c, o) for xi, c, o in zip(x.tolist(), cells, offsets)]
    assert all(type(v) is float for v in one) and np.array(one).tobytes() == drawn.tobytes()
    rows = [measures._draw_at(table, r, c, o) for r, c, o in zip(j.tolist(), cells, offsets)]
    assert all(type(v) is float for v in rows) and np.array(rows).tobytes() == draw_from_table(table, j, u).tobytes()


@pytest.mark.parametrize("q", [0.5, 0.8])
def test_knot_positions_taken_together_keep_the_one_state_bits(q):
    # a single-path walk takes its uniforms' knot positions in one pass
    # (_knot_cells) and steps through _transition_at and _draw_at with them:
    # each draw is the array form's, bit for bit, at the grid's ends, past
    # them and at the uniforms' ends too
    table, marginal = scaled_transition_table(q), scaled_marginal_table(q)
    xg = table.x_grid
    rng = np.random.default_rng(8)
    ends = [0.0, 2.0**-60, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53]
    u = np.concatenate([rng.random(2000), measures._knot_u(rng.integers(0, measures.N_U, 200)), ends])
    x = rng.uniform(1.1 * xg[0], 1.1 * xg[-1], u.size)
    cells, offsets = (a.tolist() for a in measures._knot_cells(u))
    stepped = [measures._transition_at(table, xi, c, o) for xi, c, o in zip(x.tolist(), cells, offsets)]
    assert np.array(stepped).tobytes() == draw_transition_batch(table, x, u).tobytes()
    drawn = [measures._draw_at(marginal, 0, c, o) for c, o in zip(cells, offsets)]
    assert np.array(drawn).tobytes() == draw_from_table(marginal, 0, u).tobytes()


def test_draws_reject_uniforms_outside_the_unit_interval():
    marginal, transition = scaled_marginal_table(0.5), scaled_transition_table(0.5)
    for bad in (1.0, -(2.0**-60), math.nan, math.inf):
        u = np.array([0.5, bad, 0.25])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            draw_from_table(marginal, 0, u)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            draw_transition_batch(transition, np.zeros(3), u)


def test_transition_draws_take_states_and_uniforms_of_one_shape():
    transition = scaled_transition_table(0.5)
    for x, u in ((0.0, 0.5), (np.zeros(3), 0.5), (np.zeros(3), np.full(2, 0.5)), (np.zeros((2, 3)), np.full(3, 0.5))):
        with pytest.raises(ValueError, match="one shape"):
            draw_transition_batch(transition, x, u)


def test_non_finite_states_draw_nan():
    # a state that is not finite draws NaN in both forms, the one-state form
    # with no OverflowError from int(); a finite one far past the grid still
    # draws inside the support
    table = scaled_transition_table(0.5)
    u = np.array([0.3, 0.3])
    cell, offset = (a.tolist()[0] for a in measures._knot_cells(u))
    for x in (math.nan, math.inf, -math.inf):
        with np.errstate(invalid="ignore"):
            assert np.isnan(draw_transition_batch(table, np.array([x, 0.0]), u)[0])
        assert math.isnan(measures._transition_at(table, x, cell, offset))
    for x in (1e300, -1e300):
        assert abs(measures._transition_at(table, x, cell, offset)) <= table.w
