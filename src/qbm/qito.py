"""Change-of-variable operators for the q-deformed calculus.

For f(x, s) = sum_m b_m(s) h_m(x; s) / [m]! three operators are in play:

  * nabla, the q-gradient: a pure shift of the q-Hermite coefficients,
    nabla f = sum_m b_{m+1}(s) h_m(x; s) / [m]!;
  * the one-step generator A, acting on basis slices as
    A(h_m(.; s)) = [m] h_{m-1}(.; q s);
  * delta, the second-order part, assembled on monomials via
    delta(x**n) = sum_{k<n} x**k A(x**(n-1-k)).

The basis is space-time harmonic: (D_t + delta) h_m = 0, with D_t the
q-derivative in the time slot.  Consequently, on a geometric grid each step
satisfies the exact algebraic identity

  f(x_k, t_k) - f(x_{k+1}, t_{k+1})
      = [gradient step k] + (1 - q) t_k (D_t f + delta f)(x_{k+1}, t_k)

and the K-step change-of-variable sum telescopes, leaving a residual of
exactly |f(B_K, t_K) - f(0, 0)|, which the attached tail bound dominates.
The gradient integral and the step sums of D_t f and delta f have one
implementation, _sums, on a single path (1-D values, float or exact
rational) or on a block of paths (one row per path): a batch is summed
PATH_BLOCK rows at a time, each row in the single path's order, so each of
its paths gets the single path's bits.

nabla and delta also have integral forms: first and second divided
differences of f integrated against explicit transition kernels.  The
numeric versions here evaluate those by adaptive trapezoid quadrature, for
polynomial f only, and serve as the independent cross-check of the exact
coefficient-space versions.  Their batch forms take (x, f) entries at one
time s, each bit for bit its single call, and share the densities: one per
state x, and for delta one s-free inner-leg matrix per (q, level), kept
between calls up to 256 intervals and formed in row blocks above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .measures import (
    QUAD_REL_TOL,
    _adaptive,
    _nest,
    _theta_density,
    _trapezoid_nodes,
    _unit_kernel,
    integrate,
    transition_spec,
)
from . import process
from .process import GeometricGrid, GeometricPath, PathBatch
from .qcore import QContext, Scalar, _q_numbers, q_factorial
from .qhermite import (
    QPolynomial,
    from_hermite_basis,
    growth_constant,
    qhermite,
    to_hermite_basis,
)
# integrate_def has no caller here, but perfbench/tracing.py wraps this
# module's name for it, so it stays imported
from .stochint import (
    PolynomialIntegrand,
    _as_array,
    _def_sum,
    _path_arrays,
    _poly_rows,
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
    b = to_hermite_basis(f, ctx)
    if len(b) <= 1:
        return QPolynomial.zero()
    return from_hermite_basis(b[1:], ctx)


def a_operator(f: QPolynomial, ctx: QContext) -> QPolynomial:
    """Generator slice: sum_m b_m(t) h_{m-1}(x; q t) / [m-1]!."""
    b = to_hermite_basis(f, ctx)
    out = QPolynomial.zero()
    for m in range(1, len(b)):
        bm = b[m]
        if bm.is_zero():
            continue
        base = qhermite(m - 1, ctx).subs_t_scale(ctx.q)
        out = out + base * (bm * (1 / q_factorial(m - 1, ctx)))
    return out


_DELTA_CACHE: dict[tuple, QPolynomial] = {}


def _delta_monomial(n: int, ctx: QContext) -> QPolynomial:
    key = (ctx.q, ctx.mode, n)
    if key not in _DELTA_CACHE:
        total = QPolynomial.zero()
        for k in range(n):
            part = a_operator(QPolynomial.x_power(n - 1 - k), ctx)
            total = total + QPolynomial.x_power(k) * part
        _DELTA_CACHE[key] = total
    return _DELTA_CACHE[key]


def delta_exact(f: QPolynomial, ctx: QContext) -> QPolynomial:
    """Second-order operator, extended x-degree by x-degree from monomials.
    Computed once per context and kept on f."""
    return f.derived(_delta_exact, ctx)


def _delta_exact(f: QPolynomial, ctx: QContext) -> QPolynomial:
    out = QPolynomial.zero()
    for n, a_n in enumerate(f.coeffs):
        if a_n.is_zero():
            continue
        out = out + _delta_monomial(n, ctx) * a_n
    return out


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


def _divdiff2_sums(polys: Sequence[list[float]], x: float, y, z) -> list[np.ndarray]:
    """Second divided difference of sum a_n x**n, exact and singularity-free,
    for each coefficient list a in polys at one x: the h/g recurrence runs
    once for all, and each total adds its own terms in its own order."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    shape = np.broadcast_shapes(y.shape, z.shape)
    # updated in place, and z's powers on z's shape: the same values, fewer arrays
    totals = [np.zeros(shape) for _ in polys]
    h = np.ones(shape)
    g = np.ones(shape)
    zpow = np.ones(z.shape)
    for n in range(2, max(len(a) for a in polys)):
        for a, total in zip(polys, totals):
            if n < len(a) and a[n] != 0.0:
                total += a[n] * h
        zpow = zpow * z
        g *= y
        g += zpow
        h *= x
        h += g
    return totals


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

    The inner leg's density depends on q and the level alone (_inner_rows),
    so it serves every entry and every s: kept as one matrix per level up
    to 256 intervals (_inner_leg), and above that formed 128 rows at a time,
    never whole (134 MB at 4096).  The outer leg's is one nested row per
    state x.  The divided differences' recurrence runs once per state and
    row block for its entries; each entry forms its own product and
    matrix-vector product, block by block.
    """
    coeffs = [_coeffs_at(f, s) for _, f in entries]
    xs = list(dict.fromkeys(x for x, _ in entries))
    q = ctx.qf
    # the support is symmetric, so the largest |x| validates every outer leg
    outer = transition_spec(ctx, s=q * s, t=s, x=max((abs(x) for x in xs), default=0.0))
    groups = [[i for i, (xi, _) in enumerate(entries) if xi == x] for x in xs]
    y = rho_out = None

    def estimate(thetas, weights):
        nonlocal y, rho_out
        new = thetas if y is None else np.ascontiguousarray(thetas[0::2])
        m = thetas.size + 1
        kept, c = (_inner_leg(q, m), None) if m <= 256 else (None, np.sin(thetas))
        rho_out = _nest(rho_out, _theta_density(outer, new[None, :], np.array(xs)[:, None]))
        y = _nest(y, outer.w * np.sin(new))
        # 128 rows at a time, which bounds memory
        est, legs = np.empty(len(entries)), np.empty((len(entries), thetas.size))
        for h in (slice(r, r + 128) for r in range(0, thetas.size, 128)):
            rho_in = _inner_rows(q, c, h) if kept is None else kept[h]
            for x, mine in zip(xs, groups):
                dd2 = _divdiff2_sums([coeffs[i] for i in mine], float(x), y[h, None], y[None, :])
                for i, d in zip(mine, dd2):
                    legs[i, h] = (rho_in * d) @ weights
        for j, mine in enumerate(groups):
            for i in mine:
                est[i] = np.sum(weights * rho_out[j] * legs[i])
        return est

    return _adaptive(estimate, rel_tol, 4096)


def _inner_rows(q: float, c: np.ndarray, rows: slice) -> np.ndarray:
    """delta_numeric's inner leg, from q y between times q**2 s and s, as a
    theta-density on the trapezoid nodes whose sines are c, for the start
    states of the given rows: row i starts from y = w c_i, w the time-s
    half-width, so on the unit scale u = q c_i and r = q**2, free of s."""
    edge = (1.0 - c) * (1.0 + c)
    return edge * _unit_kernel(c[None, :], (q * c[rows])[:, None], q * q, q, 4.0 / (1.0 - q))


@lru_cache(maxsize=8)
def _inner_leg(q: float, m: int) -> np.ndarray:
    """_inner_rows on every row of the m-interval level, in the row blocks
    delta_numeric forms above 256 intervals, read-only and kept for the last
    8 pairs (q, m).  It is asked for m <= 256 only: at most 4.2 MB.  The
    quadrature checks reach 7 pairs (q, m), 1.0 MB: 64 and 128 intervals
    at q = 0.2 and 0.5, and 64, 128 and 256 at q = 0.8."""
    c = np.sin(_trapezoid_nodes(m)[0])
    rho = np.empty((c.size, c.size))
    for r in range(0, c.size, 128):
        rho[r : r + 128] = _inner_rows(q, c, slice(r, r + 128))
    rho.flags.writeable = False
    return rho


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


def _on_grid(p: QPolynomial, x: np.ndarray, t: np.ndarray):
    """p(x_k, t_k) for all k at once, added as QPolynomial.__call__ adds it."""
    out = 0 * x
    for c in _poly_rows(p.coeffs, t)[::-1]:
        out = out * x + c
    return out


def _sums(f: QPolynomial, x: np.ndarray, t: np.ndarray, ctx: QContext):
    """The gradient integral (the defining sum of nabla f's integrand),
    sum_k t_k (D_t f)(B_{k+1}, t_k) and sum_k t_k (delta f)(B_{k+1}, t_k),
    along a path (x its values B_k, 1-D, floats or exact rationals) or along
    each row of a block of paths, with t the grid's t_k: the terms on the
    whole grid at once, then added in grid order by _row_sums."""
    grad = _def_sum(PolynomialIntegrand(to_hermite_basis(f, ctx)[1:]), x, t, ctx)
    s, y = t[:-1], x[..., 1:]
    drift, second = (_row_sums(0 * ctx.q, s * _on_grid(p, y, s)) for p in (f.dq_time(ctx), delta_exact(f, ctx)))
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
    return _decompose(f, path.grid, path.values[0], *_sums(f, *_path_arrays(path), ctx), ctx)


def ito_decompose_batch(f: QPolynomial, batch: PathBatch, ctx: QContext) -> ItoDecomposition:
    """ito_decompose on every path of a batch, PATH_BLOCK paths at a time
    (process._each_block).

    lhs, the three terms and residual are arrays over the paths; entry i is
    bit for bit ito_decompose's value on batch.path(i), as each row of a
    block is summed on its own, whichever walker sums it.
    """
    times = _as_array(batch.grid.times)
    # the forms of f and the q-numbers the blocks read, computed and kept
    # here, so the blocks' walkers only read them
    to_hermite_basis(f, ctx), f.dq_time(ctx), delta_exact(f, ctx), _q_numbers(f.degree + 1, ctx)
    blocks = process._each_block(len(batch), lambda start, stop: _sums(f, batch.values[start:stop], times, ctx))
    grad, drift, second = (np.concatenate(sums) for sums in zip(*blocks))
    return _decompose(f, batch.grid, batch.values[:, 0], grad, drift, second, ctx)
