"""Discrete stochastic integration against q-Brownian paths.

An integrand is a PolynomialIntegrand, the tuple of q-Hermite coefficients
b_m(t) that qhermite.to_hermite_basis returns: the integral of
f = sum_m b_m(t) h_m / [m]! over [0, t] is

    sum_m (1 / [m+1]!) sum_k b_m(t_k) (h_{m+1}(B_k; t_k) - h_{m+1}(B_{k+1}; t_{k+1}))

with t_k = t q**k.  Sums run over the grid increments k = 0..K-1 and every
result carries an analytic bound for the dropped tail, derived from the sharp
growth bound |h_n(x; u)| <= C_n u**(n/2) on the support.

A path (1-D values) or a block of paths (one row per path) is summed as
arrays over the whole grid: the Hermite values and coefficients at every t_k
at once, then each path's terms added one at a time in (k, m) order by
_row_sums, so a float path and an exact rational one (as object arrays, for
the zero-tolerance identity checks) take the same code, and each row of a
block gets its path's bits.  Only integrate_def_batch, for the 1e5-path
Monte Carlo batches, sums column by column over its grid-major values, one
block of process._each_block's equal spans at a time on its walkers, adding
the same terms (_def_terms) in the same order; its Hermite columns are
hermite_eval_sequence's, started from h_0 = 1 and h_1 = B_k itself.
Reciprocals such as 1 / [m+1]! are taken as 1 / x, which stays a Fraction in
an exact context and is 1.0 / x in a float one.

The float work that several calls on one path share is done once and kept,
read-only, with the bits of forming it afresh.  A float path keeps its
Hermite rows h_0..h_n(B_k; t_k) per context with the bytes of the values they
were formed on (_hermite_rows): a call that needs more rows goes on from
them, and changed values get fresh ones.  An integrand keeps its step terms
(the m with b_m not zero, 1 / [m+1]! and b_m(t_k)) per context and float grid
times (_def_terms); the q-gradient's terms, which ito_decompose sums, are
columns of them.  So ito_decompose, integrate_def, integrate_byparts and
sde_residual on one path form each row once, and sde_residual's series
integrand is kept per (a, c, degree, grid), at most 32 of them.  Exact paths
and blocks of paths form their rows and terms on every call.  The stochastic
exponential finds its factor count and q**k column in one pass per q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .qcore import PROD_EPS, Poly, QContext, Scalar, _q_numbers, q_factorial
from .qhermite import QPolynomial, _poly_rows, growth_constant, hermite_eval_sequence, to_hermite_basis
from . import process
from .process import GeometricGrid, GeometricPath, PathBatch, _as_array

__all__ = [
    "PolynomialIntegrand",
    "StochasticIntegralResult",
    "integrate_def",
    "integrate_byparts",
    "integrate_def_batch",
    "def_tail_bound",
    "deterministic_integral",
    "exponential_radius",
    "isometry_second_moment",
    "stochastic_exponential",
    "sde_residual",
]


@dataclass(frozen=True)
class PolynomialIntegrand:
    """Integrand in q-Hermite form: b[m] is the coefficient polynomial b_m(t)."""

    b: tuple[Poly, ...]

    # forms of the integrand kept on it, as on a QPolynomial (outside the
    # dataclass fields, so equality, hashing and repr ignore them)
    derived = QPolynomial.derived

    @property
    def degree(self) -> int:
        return len(self.b) - 1

    @classmethod
    def from_hermite(cls, b: Sequence[Poly | Scalar]) -> "PolynomialIntegrand":
        return cls(tuple(p if isinstance(p, Poly) else Poly.const(p) for p in b))

    @classmethod
    def from_qpolynomial(cls, f: QPolynomial, ctx: QContext) -> "PolynomialIntegrand":
        """f's integrand, kept on f per context (ito_decompose's gradient
        sum reads its step terms too)."""
        return f.derived(_integrand_of, ctx)


def _integrand_of(f: QPolynomial, ctx: QContext) -> PolynomialIntegrand:
    return PolynomialIntegrand(to_hermite_basis(f, ctx))


@dataclass(frozen=True)
class StochasticIntegralResult:
    """Value of a truncated stochastic integral plus its truncation metadata."""

    value: Scalar
    K: int
    tail_bound: float
    seed: int | None = None


def _path_arrays(path: GeometricPath) -> tuple[np.ndarray, np.ndarray]:
    """(B_k, t_k) for k = 0..K as arrays, the times kept on the grid."""
    return _as_array(path.values), path.grid._time_array


def _row_sums(init, *terms: np.ndarray):
    """init plus the terms along the last axis, one at a time in order, for a
    path (1-D terms) or for each row of a block (init a scalar, or a column
    with one entry per row); a path's sum is a scalar.  np.add.accumulate
    adds sequentially, where np.sum would add pairwise."""
    first = np.empty(terms[0].shape[:-1] + (1,), dtype=terms[0].dtype)
    first[..., 0] = init
    return np.add.accumulate(np.concatenate([first, *terms], axis=-1), axis=-1)[..., -1][()]


def _def_terms(f: PolynomialIntegrand, times: np.ndarray, ctx: QContext, shift: int = 0):
    """The terms of the defining sum of sum_m b_{m+shift} h_m / [m]! (f
    itself at shift 0, its q-gradient at 1): the m >= shift with b_m not
    zero, 1 / [m - shift + 1]! for those m, and b_m at the given times (row
    per time, column per m: the sums' (k, m) order).  Float times' terms are
    kept on f per (context, times, shift), read-only, and a shift's b_m are
    columns of shift 0's."""
    if times.dtype != float:
        return _step_terms(f, ctx, times, shift)
    return f.derived(_kept_step_terms, ctx, times.tobytes(), shift)


def _inverses(ms: Sequence[int], shift: int, ctx: QContext, dtype) -> np.ndarray:
    """1 / [m - shift + 1]! for the m in ms, in the context's arithmetic, as
    an array of the given dtype."""
    rows = _q_numbers(max(ms, default=shift) - shift + 1, ctx)
    return np.array([1 / rows[m - shift + 1][1] for m in ms], dtype=dtype)


def _step_terms(f: PolynomialIntegrand, ctx: QContext, times: np.ndarray, shift: int):
    ms = tuple(m for m, bm in enumerate(f.b) if m >= shift and not bm.is_zero())
    return ms, _inverses(ms, shift, ctx, times.dtype), _poly_rows([f.b[m] for m in ms], times).T


def _kept_step_terms(f: PolynomialIntegrand, ctx: QContext, times: bytes, shift: int):
    if shift:
        ms, _, b = f.derived(_kept_step_terms, ctx, times, 0)
        first = sum(m < shift for m in ms)
        terms = ms[first:], _inverses(ms[first:], shift, ctx, float), b[:, first:]
    else:
        terms = _step_terms(f, ctx, np.frombuffer(times), 0)
    for a in terms[1:]:
        a.flags.writeable = False
    return terms


def _hermite_rows(n_max: int, x: np.ndarray, t: np.ndarray, ctx: QContext, path=None) -> np.ndarray:
    """h_0..h_N(x; t), N >= n_max, as one array whose row m is h_m on x.

    Given the path whose float values x are (1-D), the rows are kept on it
    per context, read-only, with the bytes of x: a call whose x has other
    bytes (the values were changed) forms them afresh, and a call that
    needs more rows goes on from the kept ones.  The kept rows are replaced,
    never changed, so concurrent calls at worst form the same rows twice.
    Exact values and blocks of paths get fresh rows on every call.
    """
    if path is None or x.dtype != float or x.ndim != 1:
        return np.array(hermite_eval_sequence(n_max, x, t, ctx))
    kept = path.__dict__.setdefault("_hermite_rows", {})
    key, rows = kept.get(ctx, (None, ()))
    if key != x.tobytes():
        key, rows = x.tobytes(), ()
    if len(rows) <= n_max:
        rows = np.array(hermite_eval_sequence(n_max, x, t, ctx, head=rows))
        rows.flags.writeable = False
        kept[ctx] = key, rows
    return rows


def _path_terms(f: PolynomialIntegrand, x: np.ndarray, t: np.ndarray, ctx: QContext, path=None, shift: int = 0):
    """_def_terms along a path or block, x and t its values and times, with
    h_{m-shift+1}(B_k; t_k) for the same m (last axis m, the one before it
    k); path as for _hermite_rows."""
    ms, inv, b = _def_terms(f, t, ctx, shift)
    h = _hermite_rows(f.degree - shift + 1, x, t, ctx, path)[[m - shift + 1 for m in ms]]
    return inv, b, h.transpose(*range(1, h.ndim), 0)


def _def_sum(f: PolynomialIntegrand, x: np.ndarray, t: np.ndarray, ctx: QContext, path=None, shift: int = 0):
    """The defining sum of f (of its q-gradient at shift 1, as _def_terms)
    along a path, or along each row of a block of paths, x and t their
    values and times: the Hermite values and coefficients on the whole grid
    at once, then the terms added in (k, m) order from 0 * (B_0 q), as the
    column form adds them.  path as for _hermite_rows."""
    # x.T[0] is B_0: a scalar on a path (x[..., 0] would be a 0-d array,
    # whose arithmetic is slower), a column on a block
    total = 0 * (x.T[0] * ctx.q)
    if f.degree < shift:
        return total
    inv, b, h = _path_terms(f, x, t, ctx, path, shift)
    steps = (b[:-1] * inv) * (h[..., :-1, :] - h[..., 1:, :])
    return _row_sums(total, steps.reshape(x.shape[:-1] + (-1,)))


def _def_sum_columns(f: PolynomialIntegrand, values: np.ndarray, grid: GeometricGrid, ctx: QContext):
    """The defining sum of f for a block of paths (the rows of values), added
    grid column by grid column from f's step terms (_def_terms); each entry
    of a path with finite values is bit for bit _def_sum's value on its path
    (a non-finite value gives a non-finite sum, as there).  The Hermite
    columns are hermite_eval_sequence's from the head h_0 = 1, h_1 = B_k."""
    ms, inv, b = _def_terms(f, grid._time_array, ctx)
    coef = (b[:-1] * inv).tolist()
    total = 0 * (values[:, 0] * ctx.q)
    column = lambda k: hermite_eval_sequence(f.degree + 1, values[:, k], grid.times[k], ctx, head=(1, values[:, k]))
    h_cur = column(0)
    for k in range(grid.K):
        h_nxt = column(k + 1)
        for c, m in zip(coef[k], ms):
            d = h_cur[m + 1] - h_nxt[m + 1]
            d *= c
            total += d
        h_cur = h_nxt
    return total


def _tail_bounds(f: PolynomialIntegrand, grid: GeometricGrid, ctx: QContext):
    """Bounds for the dropped Jackson tail of the defining sum and for the
    depth-K boundary term sum_m |b_m(t_K) h_{m+1}(B_K; t_K)| / [m+1]!.

    Per term m, with sup taken over [0, t_K], where all dropped evaluations live:
        tail      2 sup|b_m| C_{m+1} t_K**((m+1)/2) / ((1 - q**((m+1)/2)) [m+1]!)
        boundary  sup|b_m| C_{m+1} t_K**((m+1)/2) / [m+1]!
    Computed once per (t_K, ctx) and kept on f.
    """
    return f.derived(_tail_bounds_at, ctx, float(grid.times[grid.K]))


def _tail_bounds_at(f: PolynomialIntegrand, ctx: QContext, t_deep: float):
    qf = ctx.qf
    tail = boundary = 0.0
    for m, bm in enumerate(f.b):
        if bm.is_zero():
            continue
        half = (m + 1) / 2.0
        sup_b = float(bm.abs_coeff_bound(t_deep))
        c = growth_constant(m + 1, ctx)
        t_pow = t_deep**half
        fact = float(q_factorial(m + 1, ctx))
        tail += 2.0 * sup_b * c * t_pow / ((1.0 - qf**half) * fact)
        boundary += sup_b * c * t_pow / fact
    return tail, boundary


def def_tail_bound(f: PolynomialIntegrand, grid: GeometricGrid, ctx: QContext) -> float:
    """Bound for the dropped Jackson tail of the defining sum."""
    return _tail_bounds(f, grid, ctx)[0]


def integrate_def(
    f: PolynomialIntegrand, path: GeometricPath, ctx: QContext
) -> StochasticIntegralResult:
    """Stochastic integral of f over the path, defining-sum form."""
    return StochasticIntegralResult(
        value=_def_sum(f, *_path_arrays(path), ctx, path),
        K=path.grid.K,
        tail_bound=def_tail_bound(f, path.grid, ctx),
        seed=path.seed,
    )


def integrate_byparts(
    f: PolynomialIntegrand, path: GeometricPath, ctx: QContext
) -> StochasticIntegralResult:
    """Same integral, by-parts form: boundary term minus the sum against d_q b_m.

    Differs from the defining sum by the dropped boundary term at t_K, so the
    attached bound is the defining-sum tail plus that boundary bound.
    """
    x, t = _path_arrays(path)
    total = 0 * (x[0] * ctx.q)
    if f.degree >= 0:
        # the boundary sum_m b_m(t_0) h_{m+1}(B_0; t_0) / [m+1]!, then each
        # step's (b_m(t_k) - b_m(t_{k+1})) h_{m+1}(B_{k+1}; t_{k+1}) / [m+1]!
        # subtracted in (k, m) order
        inv, b, h = _path_terms(f, x, t, ctx, path)
        steps = ((b[:-1] - b[1:]) * inv) * h[1:]
        total = _row_sums(total, (b[0] * inv) * h[0], -steps.reshape(-1))
    tail, boundary = _tail_bounds(f, path.grid, ctx)
    return StochasticIntegralResult(value=total, K=path.grid.K, tail_bound=tail + boundary, seed=path.seed)


def integrate_def_batch(f: PolynomialIntegrand, batch: PathBatch, ctx: QContext) -> np.ndarray:
    """Defining-sum values for every path of a batch, vectorised over the grid
    columns of a block at a time (process._each_block); a path's value does
    not depend on its block, on the walker that sums it or on the batch's
    memory layout, and is integrate_def's."""
    sums = lambda start, stop: _def_sum_columns(f, batch.values[start:stop], batch.grid, ctx)
    return np.asarray(np.concatenate(process._each_block(len(batch), sums)), dtype=float)


def deterministic_integral(b, batch: PathBatch) -> np.ndarray:
    """sum_k b(t_k) (B_k - B_{k+1}) per path, the defining sum of the integral
    of a deterministic integrand b (a function of time), summed in grid order.

    The values may be floats or exact rationals (an object array).
    """
    v, times = batch.values, batch.grid.times
    total = np.zeros(len(batch), dtype=v.dtype)
    for k in range(batch.grid.K):
        total += b(times[k]) * (v[:, k] - v[:, k + 1])
    return total


def isometry_second_moment(f: PolynomialIntegrand, t: Scalar, ctx: QContext) -> Scalar:
    """Closed form for E[(integral of f)**2]: sum_m (1/[m]!) int b_m(s)**2 s**m d_q s."""
    total = 0 * ctx.q
    for m, bm in enumerate(f.b):
        if bm.is_zero():
            continue
        sq = bm * bm
        shifted = Poly((0,) * m + sq.coeffs)
        val = shifted.jackson_antiderivative(ctx)(t)
        total = total + val / q_factorial(m, ctx)
    return total


#: factor-by-state entries the stochastic exponential holds at once
_EXP_BLOCK = 2**18


@lru_cache(maxsize=16)
def _factor_powers(q: float) -> np.ndarray:
    """q**k for k < N, N the smallest with q**N < PROD_EPS (166 at q = 0.8),
    as a read-only column, a running product: the exponential's factors."""
    n, p = 0, 1.0
    while p >= PROD_EPS:
        p *= q
        n += 1
    qk = np.multiply.accumulate(np.r_[1.0, np.full(n - 1, q)])[:, None]
    qk.flags.writeable = False
    return qk


def _exp_factors(a: float, x, t: float, ctx: QContext):
    """The N factors per state, all at once for a block of states and
    multiplied in factor order, q**k kept as a running product."""
    q = ctx.qf
    x = np.asarray(x, dtype=float)
    qk = _factor_powers(q)
    flat = x.reshape(-1)
    prod = np.empty(flat.shape)
    step = max(1, _EXP_BLOCK // len(qk))
    for i in range(0, flat.size, step):
        fac = 1.0 - (1.0 - q) * (a * qk * flat[i : i + step] - a * a * t * qk * qk)
        if np.any(fac <= 0.0):
            raise ValueError("stochastic exponential factor vanished; state outside the admissible region")
        prod[i : i + step] = np.multiply.accumulate(fac)[-1]
    return prod.reshape(x.shape)


def stochastic_exponential(a: float, c: float, x, t: float, ctx: QContext):
    """Product form of the stochastic exponential, truncated at N factors.

    Vectorised over the state x; every factor must stay positive, which holds
    for all |x| < 2 sqrt(t / (1-q)).
    """
    return (c / _exp_factors(float(a), x, float(t), ctx))[()]


def exponential_radius(a: float, ctx: QContext) -> float:
    """Largest horizon with square-integrable stochastic exponential: 1 / (a**2 (1-q))."""
    return 1.0 / (float(a) ** 2 * (1.0 - ctx.qf))


@lru_cache(maxsize=32)
def _series_integrand(a, c, degree: int, grid: GeometricGrid) -> PolynomialIntegrand:
    """The degree-d truncation sum_n c a**n h_n / [n]! of the stochastic
    exponential, kept for sde_residual with the step terms formed on it.
    The grid is in the key only so that each kept integrand holds one
    grid's terms: at most 32 integrands, each with its own grid's."""
    coeffs = []
    an = 1.0
    for n in range(degree + 1):
        coeffs.append(Poly.const(c * an))
        an *= float(a)
    return PolynomialIntegrand(tuple(coeffs))


def sde_residual(
    a: float, c: float, path: GeometricPath, ctx: QContext, degree: int = 20
) -> float:
    """|Z_t - c - a * (integral of the degree-d truncation of Z)| along a path.

    Z solves Z = c + a int Z dB; the residual mixes the product form of Z with
    the stochastic integral of its truncated q-Hermite series, so it carries
    both the series tail (degree) and the grid tail (K) and vanishes as both
    grow, inside the convergence radius.
    """
    t = float(path.grid.t)
    if t >= exponential_radius(a, ctx):
        raise ValueError("horizon outside the convergence radius of the stochastic exponential")
    value = _def_sum(_series_integrand(a, c, degree, path.grid), *_path_arrays(path), ctx, path)
    z = stochastic_exponential(a, c, float(path.values[0]), t, ctx)
    return abs(float(z) - c - float(a) * float(value))
