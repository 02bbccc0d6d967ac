"""Discrete stochastic integral, tail bounds, and the exponential."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbm import process
from qbm.process import GeometricGrid, GeometricPath, PathBatch, simulate_batch, simulate_path
from qbm.qcore import Poly, QContext, q_factorial, q_int
from qbm.qhermite import QPolynomial, hermite_eval_sequence
from qbm.qito import ito_decompose_batch
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


def same_bits(batch_value, path_value) -> bool:
    return np.float64(batch_value).tobytes() == np.float64(path_value).tobytes()


def test_batch_matches_single_paths():
    # the path form sums over the whole grid at once, the batch form column
    # by column; both add the same terms in the same order, to the same bits.
    # The integrands are the Monte Carlo suite's x**0..x**3 and
    # sde_residual(0.5, 2.0, ...)'s of degree 30
    sde = PolynomialIntegrand.from_hermite([2.0 * 0.5**n for n in range(31)])
    for q in (0.2, 0.5, 0.8):
        ctx = QContext.numeric(q)
        fs = [PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(d), ctx) for d in range(4)] + [sde]
        for depth in (1, 20, 80):
            grid = GeometricGrid.build(q=q, t=1.0, depth=depth)
            batch = simulate_batch(grid, n_paths=6, base_seed=3 + depth)
            for f in fs:
                vals = integrate_def_batch(f, batch, ctx)
                for i, path in enumerate(batch):
                    assert same_bits(vals[i], integrate_def(f, path, ctx).value), (q, depth, f.degree, i)
    # hand-built values at q = 0.5: +-0.0 and +-the support edge at each grid
    # time, in whole rows and mixed along a row, and a last row holding an
    # infinity, whose value stays non-finite
    ctx = QContext.numeric(0.5)
    fs = [PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(d), ctx) for d in range(4)] + [sde]
    for depth in (1, 6):
        grid = GeometricGrid.build(q=0.5, t=1.0, depth=depth)
        edge = np.array([2.0 * np.sqrt(t / 0.5) for t in grid.times])
        mixed = np.array([(0.0, -0.0, 1.0, -1.0)[k % 4] for k in range(depth + 1)])
        zeros = np.array([(-0.0, 0.0)[k % 2] for k in range(depth + 1)])
        rows = [0.0 * edge, -0.0 * edge, zeros, edge, -edge, mixed * edge, -mixed[::-1] * edge]
        values = np.array(rows + [np.where(np.arange(depth + 1) == 1, np.inf, 0.5 * edge)])
        batch = PathBatch(grid=grid, values=values, base_seed=0)
        for f in fs:
            with np.errstate(invalid="ignore", over="ignore"):
                vals = integrate_def_batch(f, batch, ctx)
            for i in range(len(rows)):
                assert same_bits(vals[i], integrate_def(f, batch.path(i), ctx).value), (depth, f.degree, i)
            assert not np.isfinite(vals[-1]), (depth, f.degree)


@pytest.mark.parametrize("q", [0.5, 0.8])
def test_walkers_keep_the_bits(monkeypatch, q):
    # a 3-block batch, its last block under _STREAM_CROSSOVER, simulated and
    # summed by one walker, by the default number and by three: the same
    # bits.  Each run starts from fresh polynomials, so their forms are
    # computed inside the calls
    n, base = 2 * process.PATH_BLOCK + 3, 2**32 - process.PATH_BLOCK - 1
    assert n % process.PATH_BLOCK < process._STREAM_CROSSOVER
    ctx = QContext.numeric(q)
    grid = GeometricGrid.build(q=q, t=1.0, depth=8)

    def run() -> list[bytes]:
        batch = simulate_batch(grid, n, base)
        f = QPolynomial.from_xt_terms({(3, 1): 0.7, (2, 0): -1.0, (1, 2): 0.25, (0, 1): 2.0})
        dec = ito_decompose_batch(f, batch, ctx)
        sums = integrate_def_batch(PolynomialIntegrand.from_qpolynomial(f, ctx), batch, ctx)
        terms = (dec.lhs, dec.gradient_term, dec.drift_term, dec.second_order_term, dec.residual)
        return [a.tobytes() for a in (batch.values, sums, *terms)]

    default = run()
    for walkers in (1, 3):
        monkeypatch.setattr(process, "_usable_cpus", lambda: walkers)
        assert run() == default, walkers


def test_poly_rows_runs_each_rows_own_horner_rule():
    # rows of unequal degree, a zero polynomial, signed zeros inside a row;
    # each row has the bits (floats) or the type and value (Fractions) of
    # Poly.__call__ at every time
    from qbm.qhermite import _poly_rows

    polys = [Poly([1.5, -0.0, 2.0, -0.25]), Poly(), Poly([-0.0, 3.0]), Poly([0.1]), Poly([-2.0, 0.0, 0.5])]
    lead = Poly([1.0])
    object.__setattr__(lead, "coeffs", (-0.0, -0.0))  # leading -0.0s, which Poly itself trims
    polys.append(lead)
    s = np.array([1e-300, 0.3, 1.0, 7.5])
    rows = _poly_rows(polys, s)
    for p, row in zip(polys, rows):
        assert row.tobytes() == np.array([p(t) for t in s]).tobytes(), p.coeffs
    exact = [Poly([Fraction(1, 3), 0, Fraction(-2, 7)]), Poly(), Poly([2]), Poly([0, Fraction(5, 2)])]
    times = np.array([Fraction(1, 2), Fraction(3), Fraction(1, 9)], dtype=object)
    for p, row in zip(exact, _poly_rows(exact, times)):
        for t, v in zip(times, row):
            assert type(v) is type(p(t)) is Fraction and v == p(t)


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
#: replaced and re-recorded at qbm 0.6.0, whose paths moved (the mirrored
#: transition-table rows; CHANGES.md lists the old digest); every value must
#: keep its bits
PATH_FORM_DIGEST = "92557698531481692a0aaddd29cc44a9e74a2f599f67c1eed11020d5214d9046"


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


def _path_calls(ctx):
    """The four single-path calls of a pathwise check, each as f, path ->
    its values as float.hex strings."""
    from qbm.qito import ito_decompose

    def ito(f, path):
        dec = ito_decompose(f, path, ctx)
        return [float(v).hex() for v in (dec.lhs, dec.gradient_term, dec.drift_term, dec.second_order_term, dec.residual)]

    def by_def(f, path):
        return float(integrate_def(PolynomialIntegrand.from_qpolynomial(f, ctx), path, ctx).value).hex()

    def by_parts(f, path):
        return float(integrate_byparts(PolynomialIntegrand.from_qpolynomial(f, ctx), path, ctx).value).hex()

    def sde(f, path):
        return sde_residual(0.5, 2.0, path, ctx, degree=30).hex()

    return {"ito": ito, "def": by_def, "byparts": by_parts, "sde": sde}


@pytest.mark.parametrize("q", [0.5, 0.8])
@pytest.mark.parametrize("depth", [20, 80])
def test_path_calls_keep_their_bits_in_any_order(q, depth):
    # the calls read the Hermite rows kept on the path and the step terms
    # kept on the integrands; in every order they give the values of calls
    # on a cleared memo (a fresh path, polynomial and series integrand per
    # call), and the gradient term is the defining sum of the gradient's own
    # integrand, as it was formed before the terms were shared
    import itertools

    from qbm import stochint
    from qbm.qhermite import to_hermite_basis
    from qbm.verify import _random_qpolynomial

    ctx = QContext.numeric(q)
    grid = GeometricGrid.build(q=q, t=1.0, depth=depth)
    calls = _path_calls(ctx)
    rng = np.random.default_rng(depth)
    for seed in (3, 2**40 + 1):
        values = simulate_path(grid, seed).values
        f0 = _random_qpolynomial(rng, 6, 2)

        def fresh():
            return QPolynomial(f0.coeffs), GeometricPath(grid=grid, values=values)

        expected = {}
        for name, call in calls.items():
            stochint._series_integrand.cache_clear()
            expected[name] = call(*fresh())
        f, path = fresh()
        own = PolynomialIntegrand(to_hermite_basis(f, ctx)[1:])
        assert float(stochint._def_sum(own, *stochint._path_arrays(path), ctx)).hex() == expected["ito"][1]
        for order in itertools.permutations(calls):
            f, path = fresh()
            assert {name: calls[name](f, path) for name in order} == expected, order


def test_changed_path_values_get_fresh_rows():
    # a path's kept Hermite rows carry the bytes of the values they were
    # formed on: after the values change in place, every call gives the
    # value of a fresh path with the new values
    from qbm.verify import _random_qpolynomial

    ctx = QContext.numeric(0.5)
    grid = GeometricGrid.build(q=0.5, t=1.0, depth=20)
    calls = _path_calls(ctx)
    f = _random_qpolynomial(np.random.default_rng(5), 6, 2)
    path = simulate_path(grid, 11)
    before = {name: call(f, path) for name, call in calls.items()}
    path.values[3] *= 0.5
    after = {name: call(f, path) for name, call in calls.items()}
    fresh = {name: call(QPolynomial(f.coeffs), GeometricPath(grid=grid, values=path.values.copy())) for name, call in calls.items()}
    assert after == fresh
    assert all(after[name] != before[name] for name in calls)
    key, rows = path._hermite_rows[ctx]
    assert key == path.values.tobytes() and not rows.flags.writeable


def test_kept_rows_grow_on_demand_and_go_with_the_path():
    import gc
    import weakref

    from qbm import stochint

    ctx = QContext.numeric(0.8)
    grid = GeometricGrid.build(q=0.8, t=1.0, depth=40)
    path = simulate_path(grid, 2)
    x, t = stochint._path_arrays(path)
    few = stochint._hermite_rows(4, x, t, ctx, path)
    many = stochint._hermite_rows(12, x, t, ctx, path)
    # the longer table goes on from the kept rows, with a pass's bits
    assert few.shape == (5, 41) and many.shape == (13, 41)
    assert many.tobytes() == np.array(hermite_eval_sequence(12, x, t, ctx)).tobytes()
    assert many[:5].tobytes() == few.tobytes()
    assert stochint._hermite_rows(7, x, t, ctx, path) is many
    # blocks and exact values keep no rows
    assert stochint._hermite_rows(3, x[None, :], t, ctx, path) is not many
    exact = free_path(GeometricGrid.build(q=Fraction(1, 2), t=1, depth=3), [Fraction(k, 3) for k in range(4)])
    integrate_def(PolynomialIntegrand.from_qpolynomial(QPolynomial.x_power(3), HALF), exact, HALF)
    assert "_hermite_rows" not in vars(exact)
    gone = weakref.ref(many)
    del few, many, path
    gc.collect()
    assert gone() is None


def test_threads_on_one_path_agree_with_serial_calls():
    # four threads call the four path calls, two by two in the same order,
    # on one path, polynomial and series integrand whose rows and terms none
    # has formed yet: each gets the serial values
    import sys
    import threading

    from qbm import stochint
    from qbm.verify import _random_qpolynomial

    ctx = QContext.numeric(0.8)
    calls = _path_calls(ctx)
    names = list(calls)
    rng = np.random.default_rng(17)
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for depth in (20, 80):
            grid = GeometricGrid.build(q=0.8, t=1.0, depth=depth)
            for seed in range(50):
                values = simulate_path(grid, seed).values
                f0 = _random_qpolynomial(rng, 6, 2)
                serial = {name: call(QPolynomial(f0.coeffs), GeometricPath(grid=grid, values=values)) for name, call in calls.items()}
                stochint._series_integrand.cache_clear()
                f, path = QPolynomial(f0.coeffs), GeometricPath(grid=grid, values=values)
                got = [None] * 4
                start = threading.Barrier(4)

                def run(i):
                    start.wait(timeout=30)
                    order = names[i // 2 :] + names[: i // 2]
                    got[i] = {name: calls[name](f, path) for name in order}

                threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert got == [serial] * 4, (depth, seed)
    finally:
        sys.setswitchinterval(saved)


def test_series_integrand_cache_is_bounded(monkeypatch):
    # sde_residual keeps its series integrand per (a, c, degree, grid), at
    # most 32 of them, and each one's step terms for its grid are formed once
    from qbm import stochint

    formed = []
    real = stochint._step_terms
    monkeypatch.setattr(stochint, "_step_terms", lambda *args: formed.append(args[2].shape) or real(*args))
    stochint._series_integrand.cache_clear()
    ctx = QContext.numeric(0.5)
    grids = [GeometricGrid.build(q=0.5, t=1.0, depth=k) for k in (10, 20)]
    for grid in grids:
        for seed in range(3):
            sde_residual(0.5, 2.0, simulate_path(grid, seed), ctx, degree=30)
    assert formed == [(11,), (21,)]
    kept = stochint._series_integrand(0.5, 2.0, 30, grids[0])
    assert [key[2] for key in kept._memo] == [grids[0]._time_array.tobytes()]
    path = simulate_path(grids[0], 0)
    for c in range(40):
        sde_residual(0.5, 1.0 + c, path, ctx, degree=30)
    info = stochint._series_integrand.cache_info()
    assert info.maxsize == 32 and info.currsize == 32
