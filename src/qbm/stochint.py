"""Discrete stochastic integration against q-Brownian paths.

An integrand is carried by its q-Hermite coefficients b_m(t): the integral of
f = sum_m b_m(t) h_m / [m]! over [0, t] is

    sum_m (1 / [m+1]!) sum_k b_m(t_k) (h_{m+1}(B_k; t_k) - h_{m+1}(B_{k+1}; t_{k+1}))

with t_k = t q**k.  Sums run over the grid increments k = 0..K-1 and every
result carries an analytic bound for the dropped tail, derived from the sharp
growth bound |h_n(x; u)| <= C_n u**(n/2) on the support.

The same accumulation code runs on exact rational paths (scalar Fractions,
used for zero-tolerance identity checks) and on numpy columns of a simulated
batch, which are views of its grid-major values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        return cls(to_hermite_basis(f, ctx).b)


@dataclass(frozen=True)
class StochasticIntegralResult:
    """Value of a truncated stochastic integral plus its truncation metadata."""

    value: Scalar
    K: int
    tail_bound: float
    seed: int | None = None


def _inv_factorials(degree: int, ctx: QContext) -> list[Scalar]:
    """1 / [m+1]! for m = 0..degree, in the context's arithmetic."""
    out = []
    for m in range(degree + 1):
        fact = q_factorial(m + 1, ctx)
        out.append(Fraction(1, 1) / fact if isinstance(fact, (Fraction, int)) else 1.0 / fact)
    return out


def _def_sum(f: PolynomialIntegrand, grid: GeometricGrid, value_at, ctx: QContext):
    """Core accumulation; value_at(k) may return a scalar or a numpy column."""
    d = f.degree
    if d < 0:
        return 0 * (value_at(0) * ctx.q)
    inv = _inv_factorials(d, ctx)
    times = grid.times
    total = 0 * (value_at(0) * ctx.q)
    h_cur = hermite_eval_sequence(d + 1, value_at(0), times[0], ctx)
    for k in range(grid.K):
        h_nxt = hermite_eval_sequence(d + 1, value_at(k + 1), times[k + 1], ctx)
        tk = times[k]
        for m in range(d + 1):
            bm = f.b[m]
            if bm.is_zero():
                continue
            total = total + (bm(tk) * inv[m]) * (h_cur[m + 1] - h_nxt[m + 1])
        h_cur = h_nxt
    return total


def _boundary_sum(f: PolynomialIntegrand, grid: GeometricGrid, value_at, ctx: QContext, k: int):
    """sum_m b_m(t_k) h_{m+1}(B_k; t_k) / [m+1]!."""
    d = f.degree
    inv = _inv_factorials(d, ctx)
    tk = grid.times[k]
    hs = hermite_eval_sequence(d + 1, value_at(k), tk, ctx)
    total = 0 * (value_at(k) * ctx.q)
    for m in range(d + 1):
        if not f.b[m].is_zero():
            total = total + (f.b[m](tk) * inv[m]) * hs[m + 1]
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
    value = _def_sum(f, path.grid, lambda k: path.values[k], ctx)
    return StochasticIntegralResult(
        value=value,
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
    grid = path.grid
    value_at = lambda k: path.values[k]
    d = f.degree
    inv = _inv_factorials(max(d, 0), ctx)
    total = _boundary_sum(f, grid, value_at, ctx, 0)
    for k in range(grid.K):
        h_nxt = hermite_eval_sequence(d + 1, value_at(k + 1), grid.times[k + 1], ctx)
        tk, tk1 = grid.times[k], grid.times[k + 1]
        for m in range(d + 1):
            bm = f.b[m]
            if bm.is_zero():
                continue
            total = total - ((bm(tk) - bm(tk1)) * inv[m]) * h_nxt[m + 1]
    tail, boundary = _tail_bounds(f, grid, ctx)
    bound = tail + boundary
    return StochasticIntegralResult(value=total, K=grid.K, tail_bound=bound, seed=path.seed)


def integrate_def_batch(f: PolynomialIntegrand, batch: PathBatch, ctx: QContext) -> np.ndarray:
    """Defining-sum values for every path of a batch, vectorised over the grid
    columns of PATH_BLOCK paths at a time; a path's value does not depend on
    its block or on the batch's memory layout."""
    step = process.PATH_BLOCK
    blocks = (batch.values[i : i + step] for i in range(0, len(batch), step))
    return np.concatenate([np.asarray(_def_sum(f, batch.grid, lambda k, b=b: b[:, k], ctx), dtype=float)
                           for b in blocks])


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


def _exp_factors(a: float, x, t: float, ctx: QContext):
    q = ctx.qf
    n = ctx.n_product_factors()
    x = np.asarray(x, dtype=float)
    prod = np.ones_like(x)
    qk = 1.0
    for _ in range(n):
        fac = 1.0 - (1.0 - q) * (a * qk * x - a * a * t * qk * qk)
        if np.any(fac <= 0.0):
            raise ValueError("stochastic exponential factor vanished; state outside the admissible region")
        prod = prod * fac
        qk *= q
    return prod


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
    integrand = PolynomialIntegrand(tuple(coeffs))
    res = integrate_def(integrand, path, ctx)
    z = stochastic_exponential(a, c, float(path.values[0]), t, ctx)
    return abs(float(z) - c - float(a) * float(res.value))
