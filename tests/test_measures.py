"""Densities, quadrature, and kernel moment identities."""

import math

import numpy as np
import pytest

from qbm import measures, qito
from qbm.measures import (
    QuadratureError,
    _theta_density,
    _trapezoid_nodes,
    integrate,
    invert_cdf,
    marginal_spec,
    qgauss_density,
    scaled_marginal_table,
    scaled_transition_table,
    support_halfwidth,
    transition_density,
    transition_spec,
)
from qbm.qcore import QContext
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


def _record_intervals(monkeypatch, stub):
    """Interval counts the adaptive driver asks for.  With stub, every count
    gets the 64-interval rule; without it, the real rule for each count."""
    counts = []
    real = measures._trapezoid_nodes

    def spy(m):
        counts.append(m)
        return real(64 if stub else m)

    monkeypatch.setattr(measures, "_trapezoid_nodes", spy)
    return counts


def test_integrate_nonconvergence_raises(monkeypatch):
    counts = _record_intervals(monkeypatch, stub=False)
    spec = marginal_spec(QContext.numeric(0.5), 1.0)
    with pytest.raises(QuadratureError):
        integrate(lambda y: np.cos(200.0 * y), spec, rel_tol=0.0)
    assert counts == [64, 128, 256, 512, 1024, 2048, 4096, 8192]


def test_delta_numeric_nonconvergence_stops_at_4096(monkeypatch):
    # the real inner leg at 4096 intervals is a 4095 x 4095 matrix of density
    # values, so every count gets the 64-interval rule here
    counts = _record_intervals(monkeypatch, stub=True)
    with pytest.raises(QuadratureError):
        qito.delta_numeric(QPolynomial.x_power(3), 0.2, 1.0, QContext.numeric(0.5), rel_tol=0.0)
    assert counts == [64, 128, 256, 512, 1024, 2048, 4096]


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


def _bisection_inverse(table, rows, u):
    """Reference inverse CDF: plain bisection over the whole row to the last
    cell j with cdf[row, j] <= u, then the same Newton step as invert_cdf."""
    thetas, cdf, pdf = table.thetas, table.cdf, table.pdf
    lo = np.zeros(u.shape, dtype=np.intp)
    hi = np.full(u.shape, thetas.shape[0] - 1, dtype=np.intp)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        below = cdf[rows, mid] <= u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    f0, f1, p0, p1 = cdf[rows, lo], cdf[rows, hi], pdf[rows, lo], pdf[rows, hi]
    h = thetas[1] - thetas[0]
    t0 = thetas[lo]
    frac = np.clip((u - f0) / np.maximum(f1 - f0, 1e-300), 0.0, 1.0)
    theta = t0 + frac * h
    rho = np.maximum(p0 + (p1 - p0) * frac, 1e-300)
    f_hat = f0 + (theta - t0) * 0.5 * (p0 + rho)
    theta = theta - (f_hat - u) / rho
    return np.clip(theta, t0, t0 + h)


@pytest.mark.parametrize("q", [0.5, 0.8])
def test_guided_inversion_matches_bisection(q):
    for table in (scaled_marginal_table(q), scaled_transition_table(q)):
        cdf = table.cdf
        n_rows, n = cdf.shape
        assert np.all(np.diff(cdf, axis=1) >= 0.0)
        assert np.all(cdf[:, 0] == 0.0) and np.all(cdf[:, -1] == 1.0)
        rng = np.random.default_rng(5)
        rows = [rng.integers(0, n_rows, 4000)]
        u = [rng.random(4000)]
        # both ends of [0, 1), on the first and the last row
        rows.append(np.array([0, 0, n_rows - 1, n_rows - 1]))
        u.append(np.array([0.0, 1.0 - 2.0**-53] * 2))
        # u exactly on tabulated CDF values
        on_rows = rng.integers(0, n_rows, 500)
        rows.append(on_rows)
        u.append(cdf[on_rows, rng.integers(0, n - 1, 500)])
        # every zero-increment cell of a spread of rows that have them
        flat_rows = np.flatnonzero(np.any(np.diff(cdf, axis=1) == 0.0, axis=1))
        for r in flat_rows[:: max(1, flat_rows.size // 8)]:
            flat = np.flatnonzero(np.diff(cdf[r]) == 0.0)
            rows.append(np.full(flat.size, r))
            u.append(cdf[r, flat])
        rows, u = np.concatenate(rows), np.concatenate(u)
        # draws lie in [0, 1); trailing flat cells tabulate exactly 1
        rows, u = rows[u < 1.0], u[u < 1.0]
        assert np.array_equal(invert_cdf(table, rows, u), _bisection_inverse(table, rows, u))
        for bad in (1.0, -(2.0**-60), math.nan):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                invert_cdf(table, rows[:3], np.array([0.5, bad, 0.25]))
    # the q = 0.8 transition rows do have zero-increment cells
    assert q != 0.8 or flat_rows.size > 0
