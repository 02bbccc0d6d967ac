"""q-Gaussian marginals and Markov transition kernels.

Densities are supported on |y| <= 2 sqrt(t / (1-q)) and built from geometric
infinite products truncated at the first N with q**N < prod_eps.  All
quadrature runs in the angle variable theta with y = w sin(theta), which
removes the inverse square-root edge singularity: the transformed integrand
vanishes like cos(theta)**2 at the endpoints and is analytic inside, so
Gauss-Legendre converges geometrically.

Sampling is by inverse CDF on a tabulated theta-grid: deterministic given the
generator state, which keeps every Monte Carlo run reproducible from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import QContext

__all__ = [
    "DensitySpec",
    "QuadratureRule",
    "CdfTable",
    "QuadratureError",
    "InvalidDensityError",
    "support_halfwidth",
    "marginal_spec",
    "transition_spec",
    "qgauss_density",
    "transition_density",
    "integrate",
    "scaled_marginal_table",
    "scaled_transition_table",
    "invert_cdf",
    "draw_from_table",
    "draw_transition_batch",
]

#: tolerance of the tabulated-CDF normalisation gate
NORM_TOL = 1e-6

#: relative stopping rule for adaptive quadrature
QUAD_REL_TOL = 1e-10

#: tabulation grid for inverse-CDF sampling: theta nodes per row, and the
#: conditioning states of the scaled transition table
N_THETA = 2048
N_X = 513


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit the maximum order without converging."""


class InvalidDensityError(ValueError):
    """A tabulated density failed its normalisation gate."""


def support_halfwidth(t: float, q: float) -> float:
    """Edge of the support, 2 sqrt(t / (1-q))."""
    return 2.0 * math.sqrt(float(t) / (1.0 - float(q)))


@dataclass(frozen=True)
class DensitySpec:
    """One marginal or transition density, fully parameterised.

    kind is "marginal" (time-t q-Gaussian) or "transition" (from state x at
    time s to time t).  n_factors is the product truncation order.
    """

    kind: str
    q: float
    t: float
    s: float = 0.0
    x: float = 0.0
    n_factors: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("marginal", "transition"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")
        if self.t <= 0.0:
            raise ValueError("t must be positive")
        if self.n_factors < 1:
            raise ValueError("n_factors must be at least 1")
        if self.kind == "transition":
            if not (0.0 <= self.s < self.t):
                raise ValueError("transition needs 0 <= s < t")
            edge = support_halfwidth(self.s, self.q) if self.s > 0.0 else 0.0
            if abs(self.x) > edge:
                raise ValueError("x lies outside the time-s support")

    @property
    def w(self) -> float:
        """Support half-width at the target time."""
        return support_halfwidth(self.t, self.q)


def marginal_spec(ctx: QContext, t: float) -> DensitySpec:
    return DensitySpec(kind="marginal", q=ctx.qf, t=float(t), n_factors=ctx.n_product_factors())


def transition_spec(ctx: QContext, s: float, t: float, x: float) -> DensitySpec:
    return DensitySpec(
        kind="transition",
        q=ctx.qf,
        t=float(t),
        s=float(s),
        x=float(x),
        n_factors=ctx.n_product_factors(),
    )


# ---------------------------------------------------------------------------
# densities in the state variable y
# ---------------------------------------------------------------------------

def qgauss_density(y, t: float, ctx: QContext):
    """Density of the centred q-Gaussian with variance t, vectorised in y.

    The k = 0 product factor cancels the edge singularity analytically, so the
    returned values go to zero continuously at |y| = w and are exactly zero
    outside.
    """
    q = ctx.qf
    t = float(t)
    if t <= 0.0:
        raise ValueError("t must be positive")
    y = np.asarray(y, dtype=float)
    n = ctx.n_product_factors()
    disc = np.maximum(4.0 * t - (1.0 - q) * y * y, 0.0)
    inside = (4.0 * t - (1.0 - q) * y * y) > 0.0
    out = math.sqrt(1.0 - q) * np.sqrt(disc) / (2.0 * math.pi * t)
    y2t = y * y / t
    qk = q
    for _ in range(1, n):
        out *= (1.0 + qk) ** 2 - (1.0 - q) * y2t * qk
        qk *= q
    qk = q
    euler = 1.0
    for _ in range(n):
        euler *= 1.0 - qk
        qk *= q
    out = out * euler
    return np.where(inside, out, 0.0)[()]


def transition_density(x: float, s: float, t: float, y, ctx: QContext):
    """Transition density from state x at time s to time t, vectorised in y.

    Requires 0 <= s < t and |x| <= 2 sqrt(s / (1-q)); outside that region the
    absolutely continuous description used here does not apply and the call is
    rejected.
    """
    spec = transition_spec(ctx, s, t, x)
    y = np.asarray(y, dtype=float)
    q, n = spec.q, spec.n_factors
    s, t, x = spec.s, spec.t, spec.x
    disc = np.maximum(4.0 * t - (1.0 - q) * y * y, 0.0)
    inside = (4.0 * t - (1.0 - q) * y * y) > 0.0
    y2 = y * y
    den0 = (t - s) ** 2 - (1.0 - q) * (t + s) * x * y + (1.0 - q) * (s * y2 + t * x * x)
    out = math.sqrt(1.0 - q) * (1.0 - q) * (t - s) * np.sqrt(disc) / (2.0 * math.pi * den0)
    qk = q
    q2k = q * q
    for _ in range(1, n):
        num = (t - s * qk) * (1.0 - qk * q) * (t * (1.0 + qk) ** 2 - (1.0 - q) * y2 * qk)
        den = (
            (t - s * q2k) ** 2
            - (1.0 - q) * qk * (t + s * q2k) * x * y
            + (1.0 - q) * (s * y2 + t * x * x) * q2k
        )
        out *= num / den
        qk *= q
        q2k *= q * q
    return np.where(inside, out, 0.0)[()]


# ---------------------------------------------------------------------------
# densities in the angle variable theta (y = w sin theta)
# ---------------------------------------------------------------------------

def _marginal_theta_density(theta, t: float, q: float, n: int):
    """Marginal density transported to theta; bounded and analytic."""
    st = np.sin(theta)
    ct2 = 1.0 - st * st
    y2t = (4.0 / (1.0 - q)) * st * st  # y**2 / t on the substitution circle
    out = (2.0 / math.pi) * ct2
    qk = q
    for _ in range(1, n):
        out = out * ((1.0 + qk) ** 2 - (1.0 - q) * y2t * qk)
        qk *= q
    qk = q
    euler = 1.0
    for _ in range(n):
        euler *= 1.0 - qk
        qk *= q
    return out * euler


def _transition_theta_density(theta, x, s: float, t: float, q: float, n: int):
    """Transition density transported to theta; broadcasts over x and theta."""
    st = np.sin(theta)
    ct2 = 1.0 - st * st
    w = support_halfwidth(t, q)
    y = w * st
    y2 = y * y
    x = np.asarray(x, dtype=float)
    x2 = x * x
    den0 = (t - s) ** 2 - (1.0 - q) * (t + s) * x * y + (1.0 - q) * (s * y2 + t * x2)
    out = (2.0 * t * (1.0 - q) * (t - s) / math.pi) * ct2 / den0
    qk = q
    q2k = q * q
    for _ in range(1, n):
        num = (t - s * qk) * (1.0 - qk * q) * (t * (1.0 + qk) ** 2 - (1.0 - q) * y2 * qk)
        den = (
            (t - s * q2k) ** 2
            - (1.0 - q) * qk * (t + s * q2k) * x * y
            + (1.0 - q) * (s * y2 + t * x2) * q2k
        )
        out = out * (num / den)
        qk *= q
        q2k *= q * q
    return out


def _theta_density(spec: DensitySpec, theta):
    if spec.kind == "marginal":
        return _marginal_theta_density(theta, spec.t, spec.q, spec.n_factors)
    return _transition_theta_density(theta, spec.x, spec.s, spec.t, spec.q, spec.n_factors)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on theta in [-pi/2, pi/2].

    Weights are positive and sum to pi (the interval length).
    """

    thetas: np.ndarray
    weights: np.ndarray
    order: int

    @classmethod
    def gauss_legendre(cls, order: int) -> "QuadratureRule":
        nodes, weights = _gl_nodes(order)
        return cls(thetas=nodes, weights=weights, order=order)

    def __post_init__(self) -> None:
        if np.any(self.weights <= 0.0):
            raise ValueError("quadrature weights must be positive")
        if abs(float(np.sum(self.weights)) - math.pi) > 1e-9:
            raise ValueError("quadrature weights must sum to pi")


@lru_cache(maxsize=32)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    u, w = np.polynomial.legendre.leggauss(order)
    return (math.pi / 2.0) * u, (math.pi / 2.0) * w


def integrate(
    g,
    spec: DensitySpec,
    rel_tol: float = QUAD_REL_TOL,
    max_order: int = 8193,
) -> float:
    """Integral of g against the density, adaptive in the quadrature order.

    Doubles the Gauss-Legendre order until two successive estimates agree to
    rel_tol (relative, with a unit floor); raises QuadratureError if max_order
    is reached first.
    """
    order = 65
    prev = None
    while order <= max_order:
        r = QuadratureRule.gauss_legendre(order)
        y = spec.w * np.sin(r.thetas)
        gv = np.asarray(g(y), dtype=float)
        rho = _theta_density(spec, r.thetas)
        est = float(np.sum(r.weights * gv * rho))
        if prev is not None and abs(est - prev) < rel_tol * max(1.0, abs(est)):
            return est
        prev = est
        order = 2 * order - 1
    raise QuadratureError(
        f"quadrature did not converge by order {max_order} (last two: {prev}, kind={spec.kind})"
    )


# ---------------------------------------------------------------------------
# tabulated CDFs and inverse-CDF sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CdfTable:
    """Tabulated theta-CDF rows for one density family.

    Rows correspond to the conditioning states in x_grid (a single row for
    marginals and fixed-x transitions).  cdf rows increase from 0 to 1 after
    normalisation; pdf holds the theta-density at the nodes for Newton
    refinement during inversion.
    """

    thetas: np.ndarray
    cdf: np.ndarray
    pdf: np.ndarray
    w: float
    x_grid: np.ndarray | None = None


def _tabulate(density_rows, w: float, x_grid=None) -> CdfTable:
    """Build a CdfTable from a vectorised theta-density evaluator.

    CDF increments use two-point Gauss-Legendre inside each of the N_THETA - 1
    cells, accurate far beyond the normalisation gate.
    """
    thetas = np.linspace(-math.pi / 2.0, math.pi / 2.0, N_THETA)
    h = thetas[1] - thetas[0]
    off = h / (2.0 * math.sqrt(3.0))
    mids = 0.5 * (thetas[:-1] + thetas[1:])
    sub = np.concatenate([mids - off, mids + off, thetas])
    vals = density_rows(sub)
    vals = np.atleast_2d(vals)
    m = N_THETA - 1
    inc = 0.5 * h * (vals[:, :m] + vals[:, m : 2 * m])
    pdf = vals[:, 2 * m :]
    cdf = np.concatenate([np.zeros((vals.shape[0], 1)), np.cumsum(inc, axis=1)], axis=1)
    norms = cdf[:, -1].copy()
    if np.any(np.abs(norms - 1.0) > NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise InvalidDensityError(f"tabulated density mass off by {worst:.3e} (> {NORM_TOL})")
    cdf = cdf / norms[:, None]
    pdf = pdf / norms[:, None]
    return CdfTable(thetas=thetas, cdf=cdf, pdf=pdf, w=w, x_grid=x_grid)


@lru_cache(maxsize=16)
def scaled_marginal_table(q: float, prod_eps: float = 1e-16) -> CdfTable:
    """CDF table of the unit-time marginal; other horizons follow by sqrt(t) scaling."""
    spec = marginal_spec(QContext.numeric(q, prod_eps=prod_eps), 1.0)
    return _tabulate(lambda th: _theta_density(spec, th), spec.w)


@lru_cache(maxsize=16)
def scaled_transition_table(q: float, prod_eps: float = 1e-16) -> CdfTable:
    """CDF rows of the scaled one-step kernel (time q to time 1).

    On a geometric grid every step has time ratio q, and diffusive scaling
    reduces each transition to this single family indexed by the scaled state
    x' = x / sqrt(t) with |x'| <= 2 sqrt(q / (1-q)).
    """
    ctx = QContext.numeric(q, prod_eps=prod_eps)
    n = ctx.n_product_factors()
    edge = support_halfwidth(q, q)
    x_grid = np.linspace(-edge, edge, N_X)
    w = support_halfwidth(1.0, q)

    def rows(th):
        return _transition_theta_density(th[None, :], x_grid[:, None], q, 1.0, q, n)

    return _tabulate(rows, w, x_grid=x_grid)


def invert_cdf(table: CdfTable, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorised inverse CDF: bisection to a cell, then one Newton step.

    rows picks the table row per draw; u must lie in [0, 1).  Returns theta.
    """
    thetas, cdf, pdf = table.thetas, table.cdf, table.pdf
    n = thetas.shape[0]
    u = np.asarray(u, dtype=float)
    rows = np.asarray(rows, dtype=np.intp)
    lo = np.zeros(u.shape, dtype=np.intp)
    hi = np.full(u.shape, n - 1, dtype=np.intp)
    for _ in range(int(math.ceil(math.log2(n)))):
        mid = (lo + hi) // 2
        below = cdf[rows, mid] <= u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    f0 = cdf[rows, lo]
    f1 = cdf[rows, hi]
    p0 = pdf[rows, lo]
    p1 = pdf[rows, hi]
    h = thetas[1] - thetas[0]
    t0 = thetas[lo]
    df = np.maximum(f1 - f0, 1e-300)
    frac = np.clip((u - f0) / df, 0.0, 1.0)
    theta = t0 + frac * h
    rho = np.maximum(p0 + (p1 - p0) * frac, 1e-300)
    f_hat = f0 + (theta - t0) * 0.5 * (p0 + rho)
    theta = theta - (f_hat - u) / rho
    return np.clip(theta, t0, t0 + h)


def draw_from_table(table: CdfTable, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms through the tabulated inverse CDF to state space."""
    theta = invert_cdf(table, rows, u)
    return table.w * np.sin(theta)


def draw_transition_batch(table: CdfTable, x_scaled: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Batch draws from the scaled one-step kernel at states x_scaled.

    The conditional quantile function is interpolated linearly between the two
    bracketing x-grid rows, in state space.  Conditional means interpolate
    linearly in x, so the martingale property survives tabulation exactly up
    to each row's own quantile error.
    """
    xg = table.x_grid
    if xg is None:
        raise ValueError("table has no conditioning grid")
    dx = xg[1] - xg[0]
    pos = (np.asarray(x_scaled, dtype=float) - xg[0]) / dx
    j = np.clip(np.floor(pos).astype(np.intp), 0, xg.shape[0] - 2)
    lam = np.clip(pos - j, 0.0, 1.0)
    ya = table.w * np.sin(invert_cdf(table, j, u))
    yb = table.w * np.sin(invert_cdf(table, j + 1, u))
    return (1.0 - lam) * ya + lam * yb
