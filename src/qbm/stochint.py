"""Discrete stochastic integration against q-Brownian paths.

An integrand is a PolynomialIntegrand, the tuple of q-Hermite coefficients
b_m(t) that qhermite.to_hermite_basis returns: the integral of
f = sum_m b_m(t) h_m / [m]! over [0, t] is

    sum_m (1 / [m+1]!) sum_k b_m(t_k) (h_{m+1}(B_k; t_k) - h_{m+1}(B_{k+1}; t_{k+1}))

with t_k = t q**k.  Sums run over the grid increments k = 0..K-1 and every
result carries an analytic bound for the dropped tail, derived from the sharp
growth bound |h_n(x; u)| <= C_n u**(n/2) on the support.

A single path is summed as arrays over its whole grid: the Hermite values
and coefficients at every t_k at once, then the terms added one at a time in
(k, m) order, so a float path and an exact rational one (as object arrays,
for the zero-tolerance identity checks) take the same code.  A batch is
summed column by column, over views of its grid-major values, adding the
same terms in the same order, so each path's value is the path form's.
Reciprocals such as 1 / [m+1]! are taken as 1 / x, which stays a Fraction in
an exact context and is 1.0 / x in a float one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qcore import Poly, QContext, Scalar, q_factorial
from .qhermite import QPolynomial, growth_constant, hermite_eval_sequence, to_hermite_basis
from . import process
from .process import GeometricGrid, GeometricPath, PathBatch

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

    @property
    def degree(self) -> int:
        return len(self.b) - 1

    @classmethod
    def from_hermite(cls, b: Sequence[Poly | Scalar]) -> "PolynomialIntegrand":
        return cls(tuple(p if isinstance(p, Poly) else Poly.const(p) for p in b))

    @classmethod
    def from_qpolynomial(cls, f: QPolynomial, ctx: QContext) -> "PolynomialIntegrand":
        return cls(to_hermite_basis(f, ctx))


@dataclass(frozen=True)
class StochasticIntegralResult:
    """Value of a truncated stochastic integral plus its truncation metadata."""

    value: Scalar
    K: int
    tail_bound: float
    seed: int | None = None


def _inv_factorials(degree: int, ctx: QContext) -> list[Scalar]:
    """1 / [m+1]! for m = 0..degree, in the context's arithmetic."""
    return [1 / q_factorial(m + 1, ctx) for m in range(degree + 1)]


def _as_array(seq) -> np.ndarray:
    """seq as a float array, or as an object array of exact values."""
    a = np.asarray(seq)
    return a if a.dtype == float else np.array(seq, dtype=object)


def _path_arrays(path: GeometricPath) -> tuple[np.ndarray, np.ndarray]:
    """(B_k, t_k) for k = 0..K as arrays."""
    return _as_array(path.values), _as_array(path.grid.times)


def _poly_rows(polys: Sequence[Poly], s: np.ndarray) -> np.ndarray:
    """polys[i] at the times s, row i, by one Horner pass over their
    zero-padded coefficients.  Times are positive, so every padded step
    leaves +0 and each row is bit for bit that polynomial's own Horner rule."""
    width = max((len(p.coeffs) for p in polys), default=0)
    c = np.array([(0,) * (width - len(p.coeffs)) + p.coeffs[::-1] for p in polys], dtype=s.dtype)
    out = np.zeros((len(polys), 1), dtype=s.dtype) * s
    for j in range(width):
        out = out * s + c[:, j, None]
    return out


def _in_order(init, *blocks: np.ndarray):
    """init plus the entries of each block, one at a time in row-major order:
    np.add.accumulate adds sequentially, where np.sum would add pairwise."""
    return np.add.accumulate(np.concatenate([[init], *blocks], axis=None))[-1]


def _def_terms(f: PolynomialIntegrand, times: np.ndarray, ctx: QContext):
    """The m with b_m not zero, 1 / [m+1]! for those m (a column), and b_m at
    the given times (row per m, column per time)."""
    ms = [m for m, bm in enumerate(f.b) if not bm.is_zero()]
    inv = np.array(_inv_factorials(f.degree, ctx), dtype=times.dtype)[ms, None]
    return ms, inv, _poly_rows([f.b[m] for m in ms], times)


def _path_terms(f: PolynomialIntegrand, x: np.ndarray, t: np.ndarray, ctx: QContext):
    """_def_terms along one path, x and t its values and times, with
    h_{m+1}(B_k; t_k) for the same m (row per m, column per grid index)."""
    ms, inv, b = _def_terms(f, t, ctx)
    h = np.array(hermite_eval_sequence(f.degree + 1, x, t, ctx))[[m + 1 for m in ms]]
    return inv, b, h


def _def_sum(f: PolynomialIntegrand, x: np.ndarray, t: np.ndarray, ctx: QContext):
    """The defining sum along one path, x and t its values and times: the
    Hermite values and coefficients on the whole grid at once, then the terms
    added in (k, m) order from 0 * (B_0 q), as the column form adds them."""
    total = 0 * (x[0] * ctx.q)
    if f.degree < 0:
        return total
    inv, b, h = _path_terms(f, x, t, ctx)
    return _in_order(total, ((b[:, :-1] * inv) * (h[:, :-1] - h[:, 1:])).T)


def _def_sum_columns(f: PolynomialIntegrand, grid: GeometricGrid, values: np.ndarray, ctx: QContext):
    """The defining sum for a block of paths (the rows of values), added grid
    column by grid column; each entry is bit for bit _def_sum's value on its
    path."""
    total = 0 * (values[:, 0] * ctx.q)
    if f.degree < 0:
        return total
    times = grid.times
    ms, inv, b = _def_terms(f, _as_array(times[:-1]), ctx)
    coef = (b * inv).T.tolist()
    h_cur = hermite_eval_sequence(f.degree + 1, values[:, 0], times[0], ctx)
    for k in range(grid.K):
        h_nxt = hermite_eval_sequence(f.degree + 1, values[:, k + 1], times[k + 1], ctx)
        for c, m in zip(coef[k], ms):
            total = total + c * (h_cur[m + 1] - h_nxt[m + 1])
        h_cur = h_nxt
    return total


def _tail_bounds(f: PolynomialIntegrand, grid: GeometricGrid, ctx: QContext):
    """Bounds for the dropped Jackson tail of the defining sum and for the
    depth-K boundary term sum_m |b_m(t_K) h_{m+1}(B_K; t_K)| / [m+1]!.

    Per term m, with sup taken over [0, t_K], where all dropped evaluations live:
        tail      2 sup|b_m| C_{m+1} t_K**((m+1)/2) / ((1 - q**((m+1)/2)) [m+1]!)
        boundary  sup|b_m| C_{m+1} t_K**((m+1)/2) / [m+1]!
    """
    qf = ctx.qf
    t_deep = float(grid.times[grid.K])
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
        value=_def_sum(f, *_path_arrays(path), ctx),
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
        inv, b, h = _path_terms(f, x, t, ctx)
        steps = ((b[:, :-1] - b[:, 1:]) * inv) * h[:, 1:]
        total = _in_order(total, (b[:, 0] * inv[:, 0]) * h[:, 0], -steps.T)
    tail, boundary = _tail_bounds(f, path.grid, ctx)
    return StochasticIntegralResult(value=total, K=path.grid.K, tail_bound=tail + boundary, seed=path.seed)


def integrate_def_batch(f: PolynomialIntegrand, batch: PathBatch, ctx: QContext) -> np.ndarray:
    """Defining-sum values for every path of a batch, vectorised over the grid
    columns of PATH_BLOCK paths at a time; a path's value does not depend on
    its block or on the batch's memory layout, and is integrate_def's."""
    step = process.PATH_BLOCK
    blocks = (batch.values[i : i + step] for i in range(0, len(batch), step))
    return np.concatenate([np.asarray(_def_sum_columns(f, batch.grid, b, ctx), dtype=float) for b in blocks])


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


def _exp_factors(a: float, x, t: float, ctx: QContext):
    """The N factors per state, all at once for a block of states and
    multiplied in factor order, q**k kept as a running product."""
    q = ctx.qf
    n = ctx.n_product_factors()
    x = np.asarray(x, dtype=float)
    qk = np.multiply.accumulate(np.r_[1.0, np.full(n - 1, q)])[:, None]
    flat = x.reshape(-1)
    prod = np.empty(flat.shape)
    step = max(1, _EXP_BLOCK // n)
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
    coeffs = []
    an = 1.0
    for n in range(degree + 1):
        coeffs.append(Poly.const(c * an))
        an *= float(a)
    value = _def_sum(PolynomialIntegrand(tuple(coeffs)), *_path_arrays(path), ctx)
    z = stochastic_exponential(a, c, float(path.values[0]), t, ctx)
    return abs(float(z) - c - float(a) * float(value))
