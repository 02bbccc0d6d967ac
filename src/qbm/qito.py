"""Change-of-variable operators for the q-deformed calculus.

For f(x, s) = sum_m b_m(s) h_m(x; s) / [m]! three operators are in play:

  * nabla, the q-gradient: a pure shift of the q-Hermite coefficients,
    nabla f = sum_m b_{m+1}(s) h_m(x; s) / [m]!;
  * the one-step generator A, acting on basis slices as
    A(h_m(.; s)) = [m] h_{m-1}(.; q s);
  * delta, the second-order part, assembled on monomials via
    delta(x**n) = sum_{k<n} x**k A(x**(n-1-k)), kept per (q, mode).

The basis is space-time harmonic: (D_t + delta) h_m = 0, with D_t the
q-derivative in the time slot.  Consequently, on a geometric grid each step
satisfies the exact algebraic identity

  f(x_k, t_k) - f(x_{k+1}, t_{k+1})
      = [gradient step k] + (1 - q) t_k (D_t f + delta f)(x_{k+1}, t_k)

and the K-step change-of-variable sum telescopes, leaving a residual of
exactly |f(B_K, t_K) - f(0, 0)|, which the attached tail bound dominates.
The gradient integral and the step sums of D_t f and delta f have one
implementation, _sums, on a single path (1-D values, float or exact
rational) or on a block of paths (one row per path): a batch is summed in
the blocks of process._each_block, each row in the single path's order, so
each of its paths gets the single path's bits; the walkers form f's kept
forms (QPolynomial.derived) on first use, as a single call does.

nabla and delta also have integral forms: first and second divided
differences of f integrated against explicit transition kernels.  The
numeric versions here evaluate those by adaptive trapezoid quadrature, for
polynomial f only, and serve as the independent cross-check of the exact
coefficient-space versions.  Their batch forms take (x, f) entries at one
time s, each bit for bit its single call, and share the densities: one per
state x, and for delta the s-free inner leg's moments of sin(theta)**j per
(q, level, width), kept between calls, since f[x, y, z] is a polynomial in z.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .measures import (
    QUAD_REL_TOL,
    _adaptive,
    _angle_density,
    _level_density,
    _nest,
    _trapezoid_nodes,
    integrate,
    transition_spec,
)
from . import process
from .process import GeometricGrid, GeometricPath, PathBatch
from .qcore import Poly, QContext, Scalar, _add_term, _grown, q_factorial
from .qhermite import (
    QPolynomial,
    _from_basis,
    from_hermite_basis,
    growth_constant,
    to_hermite_basis,
)
# integrate_def has no caller here, but perfbench/tracing.py wraps this
# module's name for it, so it stays imported
from .stochint import (
    PolynomialIntegrand,
    _def_sum,
    _path_arrays,
    _row_sums,
    integrate_def,
)

__all__ = [
    "ItoDecomposition",
    "a_operator",
    "delta_exact",
    "delta_numeric",
    "delta_numeric_batch",
    "ito_decompose",
    "ito_decompose_batch",
    "ito_tail_bound",
    "nabla_exact",
    "nabla_numeric",
    "nabla_numeric_batch",
]


def nabla_exact(f: QPolynomial, ctx: QContext) -> QPolynomial:
    """q-gradient of f: shift the q-Hermite coefficients down by one."""
    return from_hermite_basis(to_hermite_basis(f, ctx)[1:], ctx)


def a_operator(f: QPolynomial, ctx: QContext) -> QPolynomial:
    """Generator slice: sum_m b_m(t) h_{m-1}(x; q t) / [m-1]!."""
    return _from_basis(to_hermite_basis(f, ctx)[1:], ctx, ctx.q)


def _delta_row(rows: list, ctx: QContext) -> tuple:
    """Row m: delta(x**m) = sum_{k<m} x**k A(x**(m-1-k)), formed on QPolynomials."""
    m, x_power = len(rows), QPolynomial.x_power
    total = sum((x_power(k) * a_operator(x_power(m - 1 - k), ctx) for k in range(m)), QPolynomial.zero())
    return tuple((i, p.coeffs[-1], p.degree) for i, p in enumerate(total.coeffs) if p.coeffs)


def delta_exact(f: QPolynomial, ctx: QContext) -> QPolynomial:
    """Second-order operator, extended x-degree by x-degree from monomials.
    Computed once per context and kept on f."""
    return f.derived(_delta_exact, ctx)


def _delta_exact(f: QPolynomial, ctx: QContext) -> QPolynomial:
    """sum_n delta(x**n) a_n(t): each term c t**j scales and shifts a_n.
    Row n of the context's table (_grown) lists delta(x**n)'s x**i
    coefficients c t**j as (i, c, j)."""
    rows, cols = _grown("delta terms", ctx, f.degree, _delta_row), [[] for _ in f.coeffs]
    for n, a_n in enumerate(f.coeffs):
        for i, c, j in rows[n] if a_n.coeffs else ():
            cols[i] = _add_term(cols[i], a_n.coeffs, c, j)
    return QPolynomial(tuple(map(Poly, cols)))


def _divdiff1_poly(a: list[float], x: float, y):
    """First divided difference of sum a_n x**n via the symmetric-sum recursion."""
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    g = np.ones_like(y)
    ypow = np.ones_like(y)
    for n in range(1, len(a)):
        if a[n] != 0.0:
            total = total + a[n] * g
        ypow = ypow * y
        g = x * g + ypow
    return total


def _divdiff2_coeffs(a: list[float], x: float, w: float, c) -> list:
    """The second divided difference f[x, y, z] of sum a_n x**n as a
    polynomial in z / w, at y = w c: w**j E_j(x, y) for j <= deg f - 2, with
    f[x, y, z] = sum_j E_j(x, y) z**j and E_j = sum_n a_n H_(n-2-j)(x, y),
    H_k(x, y) = sum_(l+i=k) x**l y**i.  Two synthetic divisions give them:
    f[x, z] = sum_i b_i z**i, b_i = x b_(i+1) + a_(i+1), and then
    w**j E_j = c w**(j+1) E_(j+1) + w**j b_(j+1), the last one a float."""
    out, b, e = [], 0.0, None
    for j in range(len(a) - 2, 0, -1):
        b = x * b + a[j + 1]
        e = w ** (j - 1) * b if e is None else c * e + w ** (j - 1) * b
        out.append(e)
    return out[::-1]


def _coeffs_at(f: QPolynomial, s: float) -> list[float]:
    """Float x-coefficients of f at time s; f must be a QPolynomial."""
    if not isinstance(f, QPolynomial):
        raise TypeError(f"expected a QPolynomial, got {type(f).__name__}")
    return [float(c(s)) for c in f.coeffs]


def nabla_numeric(
    f: QPolynomial, x: float, s: float, ctx: QContext, rel_tol: float = QUAD_REL_TOL
) -> float:
    """q-gradient via its kernel form: int f[x, y] nu(dy).

    nu is the transition started at q x between times q**2 s and s, and
    f[x, y] is the exact first divided difference of the QPolynomial f at
    time s; any other f raises TypeError.
    """
    return float(nabla_numeric_batch([(x, f)], s, ctx, rel_tol)[0])


def nabla_numeric_batch(
    entries: Sequence[tuple[float, QPolynomial]], s: float, ctx: QContext,
    rel_tol: float = QUAD_REL_TOL,
) -> np.ndarray:
    """nabla_numeric of each (x, f) entry at one time s, each bit for bit; the
    entries at one state x are the stacked rows of one integrate call."""
    coeffs = [_coeffs_at(f, s) for _, f in entries]
    q = ctx.qf
    out = np.empty(len(entries))
    for x in dict.fromkeys(x for x, _ in entries):
        mine = [i for i, (xi, _) in enumerate(entries) if xi == x]
        rows = lambda y: np.array([_divdiff1_poly(coeffs[i], float(x), y) for i in mine])
        out[mine] = integrate(rows, transition_spec(ctx, s=q * q * s, t=s, x=q * x), rel_tol)
    return out


def delta_numeric(
    f: QPolynomial, x: float, s: float, ctx: QContext, rel_tol: float = QUAD_REL_TOL
) -> float:
    """Second-order operator via its nested kernel form.

    Outer leg: transition from x between times q s and s; inner leg from q y
    between q**2 s and s, integrated over the exact second divided difference
    f[x, y, z] of the QPolynomial f at time s; any other f raises TypeError.
    Both legs share one trapezoid rule in theta whose intervals double, up to
    4096, until two successive estimates agree to rel_tol.
    """
    return float(delta_numeric_batch([(x, f)], s, ctx, rel_tol)[0])


def delta_numeric_batch(
    entries: Sequence[tuple[float, QPolynomial]], s: float, ctx: QContext,
    rel_tol: float = QUAD_REL_TOL,
) -> np.ndarray:
    """delta_numeric of each (x, f) entry at one time s, each bit for bit.

    f[x, y, z] is a polynomial in z (_divdiff2_coeffs), so the inner leg at
    each outer node y is a sum over its powers of z times the inner leg's
    moments, which depend on q and the level alone (_inner_moments): kept
    between calls, they serve every entry and every s.  The outer leg's
    density is one nested row per state x.  A level then costs each entry
    O(m deg f) operations on the m - 1 nodes.
    """
    coeffs = [_coeffs_at(f, s) for _, f in entries]
    xs = list(dict.fromkeys(x for x, _ in entries))
    q = ctx.qf
    # the support is symmetric, so the largest |x| validates every outer leg
    outer = transition_spec(ctx, s=q * s, t=s, x=max((abs(x) for x in xs), default=0.0))
    states = [xs.index(x) for x, _ in entries]
    us, r = [x / outer.w for x in xs], outer.s / outer.t
    c = rho_out = None

    def estimate(level):
        nonlocal c, rho_out
        weights, fresh, _ = level
        rho_out = _nest(rho_out, _level_density(level, us, r, q))
        c = _nest(c, fresh)
        moments = _inner_moments(q, weights.size + 1, max([2, *map(len, coeffs)]) - 2).T
        est = np.empty(len(entries))
        for i, (j, a) in enumerate(zip(states, coeffs)):
            legs = 0.0
            for e, column in zip(_divdiff2_coeffs(a, float(xs[j]), outer.w, c), moments):
                legs = legs + e * column
            est[i] = np.sum(weights * rho_out[j] * legs)
        return est

    return _adaptive(estimate, rel_tol, 4096, q)


@lru_cache(maxsize=32)
def _inner_moments(q: float, m: int, width: int) -> np.ndarray:
    """S[h, j] = sum_z rho[h, z] weight_z sin(theta_z)**j for j < width on the
    m-interval level, rho delta_numeric's inner leg, from q y between times
    q**2 s and s, as a theta-density: row h starts from y = w sin(theta_h),
    w the time-s half-width, so on the unit scale u = q sin(theta_h) and
    r = q**2, free of s.  Formed 128 rows at a time, one matrix-vector
    product per column, so a column's bits depend on neither the width nor
    the call; read-only, and kept for the last 32 triples (q, m, width)."""
    thetas, weights = _trapezoid_nodes(m)
    c, powers = np.sin(thetas), [weights]
    while len(powers) < width:
        powers.append(powers[-1] * c)
    kept = np.empty((c.size, width))
    for r in range(0, c.size, 128):
        rho = _angle_density(c[None, :], (q * c[r : r + 128])[:, None], q * q, q)
        for j in range(width):
            kept[r : r + 128, j] = rho @ powers[j]
    kept.flags.writeable = False
    return kept


@dataclass(frozen=True)
class ItoDecomposition:
    """Terms of the discrete change-of-variable identity along one path
    (or, from ito_decompose_batch, arrays over the paths of a batch).

    lhs is f(B_0, t) - f(0, 0); the three terms are the gradient integral,
    the Jackson sum of the time q-derivative, and the Jackson sum of the
    second-order part, all truncated at depth K.  In exact arithmetic
    residual equals |f(B_K, t_K) - f(0, 0)|, and tail_bound dominates it.
    """

    lhs: Scalar
    gradient_term: Scalar
    drift_term: Scalar
    second_order_term: Scalar
    residual: float
    tail_bound: float
    K: int


def ito_tail_bound(f: QPolynomial, grid: GeometricGrid, ctx: QContext) -> float:
    """Bound for |f(B_K, t_K) - f(0, 0)| on the support.

    Uses |h_m(x; u)| <= C_m u**(m/2) for m >= 1 plus the coefficient
    variation of b_0 over [0, t_K].  Computed once per (t_K, ctx) and kept
    on f.
    """
    return f.derived(_ito_tail_bound, ctx, float(grid.times[grid.K]))


def _ito_tail_bound(f: QPolynomial, ctx: QContext, t_deep: float) -> float:
    b = to_hermite_basis(f, ctx)
    total = float(b[0].variation_bound(t_deep)) if b else 0.0
    for m in range(1, len(b)):
        bm = b[m]
        if bm.is_zero():
            continue
        total += (
            float(bm.abs_coeff_bound(t_deep))
            * growth_constant(m, ctx)
            * t_deep ** (m / 2.0)
            / float(q_factorial(m, ctx))
        )
    return total


def _sums(f: QPolynomial, x: np.ndarray, t: np.ndarray, ctx: QContext, path=None):
    """The gradient integral (the defining sum of nabla f's integrand),
    sum_k t_k (D_t f)(B_{k+1}, t_k) and sum_k t_k (delta f)(B_{k+1}, t_k),
    along a path (x its values B_k, 1-D, floats or exact rationals) or along
    each row of a block of paths, with t the grid's t_k: the terms on the
    whole grid at once, then added in grid order by _row_sums.  path as for
    stochint._hermite_rows."""
    grad = _def_sum(PolynomialIntegrand.from_qpolynomial(f, ctx), x, t, ctx, path, shift=1)
    s, y = t[:-1], x[..., 1:]
    drift, second = (_row_sums(0 * ctx.q, s * p(y, s)) for p in (f.dq_time(ctx), delta_exact(f, ctx)))
    return grad, drift, second


def _decompose(
    f: QPolynomial, grid: GeometricGrid, b0, grad, drift, second, ctx: QContext
) -> ItoDecomposition:
    """The identity's terms, given B_0 (b0) and _sums' three sums.

    For a batch each of them is a column with one entry per path, and so are
    every term and the residual.
    """
    one_minus_q = 1 - ctx.q
    drift = one_minus_q * drift
    second = one_minus_q * second
    zero = 0 * ctx.q
    lhs = f(b0, grid.times[0]) - f(zero, zero)
    gap = abs(lhs - (grad + drift + second))
    return ItoDecomposition(
        lhs=lhs,
        gradient_term=grad,
        drift_term=drift,
        second_order_term=second,
        residual=gap if isinstance(gap, np.ndarray) else float(gap),
        tail_bound=ito_tail_bound(f, grid, ctx),
        K=grid.K,
    )


def ito_decompose(f: QPolynomial, path: GeometricPath, ctx: QContext) -> ItoDecomposition:
    """Evaluate the K-step change-of-variable identity along a path, float or
    exact rational."""
    return _decompose(f, path.grid, path.values[0], *_sums(f, *_path_arrays(path), ctx, path), ctx)


def ito_decompose_batch(f: QPolynomial, batch: PathBatch, ctx: QContext) -> ItoDecomposition:
    """ito_decompose on every path of a batch, a block at a time
    (process._each_block).

    lhs, the three terms and residual are arrays over the paths; entry i is
    bit for bit ito_decompose's value on batch.path(i), as each row of a
    block is summed on its own, whichever walker sums it.
    """
    times = batch.grid._time_array
    blocks = process._each_block(len(batch), lambda start, stop: _sums(f, batch.values[start:stop], times, ctx))
    grad, drift, second = (np.concatenate(sums) for sums in zip(*blocks))
    return _decompose(f, batch.grid, batch.values[:, 0], grad, drift, second, ctx)
