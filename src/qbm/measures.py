"""q-Gaussian marginals and Markov transition kernels.

Both densities come from one kernel: the transition density from state x at
time s to time t, an Al-Salam-Chihara weight, an infinite product of
q-Pochhammer factors.  The kernel is homogeneous, so it is evaluated on the
unit-time scale: the first few factors directly, the rest by the log series
of the q-Pochhammer symbols, cut where its remainder bound falls below
qcore.PROD_EPS.  Its cost per point no longer grows with 1/(1-q).  The time-t
marginal is the transition from x = 0 at s = 0.  Densities are supported on
|y| <= w = 2 sqrt(t / (1-q)), where they vanish like sqrt(w**2 - y**2); the
kernel is the density with that edge factor divided out, and is analytic on
the support.  All quadrature runs in the angle variable theta with
y = w sin(theta), where the Jacobian w cos(theta) turns the edge factor into
(w cos(theta))**2.  Each integrand is then an analytic function of
sin(theta), 2 pi-periodic and even about +-pi/2, so the composite trapezoid
rule on [-pi/2, pi/2] is the full-period rule and converges geometrically
(Trefethen & Weideman, SIAM Review 56, 2014).  Its levels nest: the nodes of
m intervals are, bit for bit, every other node of 2 m, so each doubling
evaluates only the new nodes and sums over all of them in node order, and
every estimate is the one a full evaluation gives; stacked integrands share
one density, each stopping at its own level.  At a single point the
kernel runs on Python floats, with the same value bit for bit.

Sampling is by inverse CDF on a tabulated theta-grid: deterministic given the
generator state, which keeps every Monte Carlo run reproducible from its seed.
Each table is built once per q and records its normalisation defect.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import PROD_EPS, QContext

__all__ = [
    "DensitySpec",
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

#: guide-table levels per CDF row, and rows tabulated per block
N_GUIDE = 2048
ROW_BLOCK = 32


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit the maximum order without converging."""


class InvalidDensityError(ValueError):
    """A tabulated density failed its normalisation gate."""


def support_halfwidth(t: float, q: float) -> float:
    """Edge of the support, 2 sqrt(t / (1-q))."""
    return 2.0 * math.sqrt(float(t) / (1.0 - float(q)))


@dataclass(frozen=True)
class DensitySpec:
    """The transition density from state x at time s to time t.

    s = 0 and x = 0 give the time-t q-Gaussian marginal.  t**2 must not
    underflow (t >= 1.49e-154).
    """

    q: float
    t: float
    s: float = 0.0
    x: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise ValueError("q must lie in (0, 1)")
        if not (0.0 < self.t < math.inf):
            raise ValueError("t must be positive and finite")
        if self.t * self.t < sys.float_info.min:
            raise ValueError(f"t = {self.t} is too small: t**2 underflows")
        if not (0.0 <= self.s < self.t):
            raise ValueError("transition needs 0 <= s < t")
        if not abs(self.x) <= support_halfwidth(self.s, self.q):
            raise ValueError("x lies outside the time-s support")

    @property
    def w(self) -> float:
        """Support half-width at the target time."""
        return support_halfwidth(self.t, self.q)


def marginal_spec(ctx: QContext, t: float) -> DensitySpec:
    return transition_spec(ctx, 0.0, t, 0.0)


def transition_spec(ctx: QContext, s: float, t: float, x: float) -> DensitySpec:
    return DensitySpec(q=ctx.qf, t=float(t), s=float(s), x=float(x))


# ---------------------------------------------------------------------------
# the density kernel
# ---------------------------------------------------------------------------

def _kernel(y, x, s: float, t: float, q: float):
    """Transition density from x at time s to y at time t, divided by its edge
    factor sqrt(w**2 - y**2), w the time-t half-width; broadcasts over y and x.
    It is homogeneous: 1/t times its unit-time value at cos(phi) = y / w,
    u = x / w and r = s / t (see _unit_kernel)."""
    w = support_halfwidth(t, q)
    c, u = np.asarray(y, dtype=float) / w, np.asarray(x, dtype=float) / w
    return _unit_kernel(c, u, s / t, q, 1.0 / t)


def _unit_kernel(c, u, r: float, q: float, scale: float):
    """scale times the unit-time kernel at cos(phi) = c and u = sqrt(r) cos(psi),
    NumPy arrays or floats; broadcasts over c and u.

    This is the Al-Salam-Chihara weight (Koekoek, Lesky & Swarttouw 2010,
    ch. 14), (1-q)**2 (1-r) / (2 pi) prod_{k>=1} num_k / prod_{k>=0} den_k,
      num_k = (1 - r q^k) (1 - q^(k+1)) |1 - q^k e^(2 i phi)|**2,
      den_k = prod_{+-,+-} (1 - sqrt(r) q^k e^(i (+-phi +- psi))) > 0.
    The factors k < k0 are multiplied out; by the log series of q-Pochhammer
    symbols (Gasper & Rahman, Basic Hypergeometric Series, 2004) the rest are
    exp of log (r rho; q)_inf + log (q rho; q)_inf
        - 2 sum_{m>=1} rho^m / (m (1 - q^m)) [T_m(cos 2 phi)
                                              - 2 r^(m/2) T_m(cos phi) T_m(cos psi)],
    rho = q**k0 and T_m the Chebyshev polynomials, cut after M terms
    (_tail_plan picks k0 and M).  Terms in c alone and in u alone are kept
    apart, so on a (rows x nodes) block only their products are full-size;
    those are updated in place, since NumPy does not reuse temporaries here
    and a second live full-size temporary costs more than the arithmetic.
    Every operation is elementwise in one order and exp is NumPy's, so each
    value depends on its own point alone.  When c and u are one point each,
    the terms run on Python floats (IEEE + - * / round as NumPy's float64
    ufuncs do, so the value is the same bit for bit, without some 30 NumPy
    calls per series term on a one-element array); a zero denominator there
    (off the support) takes the array path, for NumPy's inf or nan.
    """
    plan = _tail_plan(q, r)
    if np.size(c) == 1 and np.size(u) == 1:
        try:
            value = _unit_terms(np.asarray(c).item(), np.asarray(u).item(), r, q, plan, scale)
        except ZeroDivisionError:
            pass
        else:
            return np.full(np.broadcast_shapes(np.shape(c), np.shape(u)), value)
    return _unit_terms(c, u, r, q, plan, scale)


def _unit_terms(c, u, r: float, q: float, plan: tuple, scale: float):
    """_unit_kernel's value for its _tail_plan, on floats or arrays."""
    k0 = plan[0]
    const = scale * (1.0 - q) * (1.0 - q) * (1.0 - r) / (2.0 * math.pi)
    c4, uu = 4.0 * (c * c), u * u
    num = den = qk = 1.0
    for k in range(k0):
        q2k = qk * qk
        if k:
            const *= (1.0 - r * qk) * (1.0 - q * qk)
            num *= (1.0 + qk) * (1.0 + qk) - qk * c4
        # -(term in u) c + (terms in c) + (terms in u): one full-size product
        b = 1.0 - r * q2k
        f = ((-4.0 * qk * (1.0 + r * q2k)) * u) * c
        f += b * b + (r * q2k) * c4
        f += (4.0 * q2k) * uu
        den *= f
        qk *= q
    ratio = (const * num) / den
    value = np.exp(_log_tail(c, u, r, q, plan))
    value *= ratio
    return value


def _log_tail(c, u, r: float, q: float, plan: tuple):
    """log prod_{k>=k0} num_k / den_k, its series cut after M terms, for the
    _tail_plan (k0, M, rho, log_y) at (q, r)."""
    _, n_terms, rho, log_y = plan
    # Chebyshev recurrences: T_m at cos(phi) and cos(2 phi), r^(m/2) T_m at cos(psi)
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
        pair += ((4.0 * a) * s_cur) * t_cur  # the one full-size product
        t_prev, t_cur = t_cur, two_c * t_cur - t_prev
        s_prev, s_cur = s_cur, two_u * s_cur - r * s_prev
    pair += log_y
    return pair


@lru_cache(maxsize=256)
def _tail_plan(q: float, r: float) -> tuple[int, int, float, float]:
    """(k0, M, rho, log (r rho; q)_inf + log (q rho; q)_inf) for the kernel at
    (q, r), with _series_cut's (k0, M, rho) at PROD_EPS.  The scalar tails are
    -sum_m (r^m + q^m) rho^m / (m (1 - q^m)), summed until a term falls
    below 1e-18.  They are kept per r: at q <= 0.8 summing them takes 4-9 us,
    a fifth of a one-point kernel call."""
    k0, n_terms, rho = _series_cut(q, PROD_EPS)
    log_y, m, rho_m, q_m = 0.0, 1, rho, q
    while rho_m > 1e-18 * m * (1.0 - q_m):
        log_y -= (r**m + q_m) * rho_m / (m * (1.0 - q_m))
        m, rho_m, q_m = m + 1, rho_m * rho, q_m * q
    return k0, n_terms, rho, log_y


@lru_cache(maxsize=64)
def _series_cut(q: float, eps: float) -> tuple[int, int, float]:
    """(k0, M, rho = q**k0) for the kernel's log series.

    |T_m| <= 1 and r <= 1 bound the series' term m by 6 rho^m / (m (1 - q^m)),
    and its remainder after M terms by 6 rho^(M+1) / ((M+1) (1-q) (1-rho)).
    For each k0 >= 1, M is the fewest terms with that bound at most
    eps; the k0 taken has the least full-size work per point, four
    operations per direct factor and two per series term.
    """
    best = None
    k0, rho = 1, q
    while best is None or 4 * k0 < best[0]:
        n_terms = 0
        while 6.0 * rho ** (n_terms + 1) / ((n_terms + 1) * (1.0 - q) * (1.0 - rho)) > eps:
            n_terms += 1
        if best is None or 4 * k0 + 2 * n_terms < best[0]:
            best = (4 * k0 + 2 * n_terms, k0, n_terms, rho)
        k0, rho = k0 + 1, rho * q
    return best[1:]


def _y_density(spec: DensitySpec, y, x=None):
    """Density in the state variable: the edge factor times the kernel, and
    exactly zero off the support.  x overrides spec.x and broadcasts."""
    y = np.asarray(y, dtype=float)
    x = spec.x if x is None else x
    w = spec.w
    edge = np.sqrt(np.maximum(w * w - y * y, 0.0))
    # off the support the Chebyshev terms grow without bound; those values are dropped
    rho = edge * _kernel(np.clip(y, -w, w), x, spec.s, spec.t, spec.q)
    return np.where(np.abs(y) < w, rho, 0.0)[()]


def _theta_density(spec: DensitySpec, theta, x=None):
    """Density in the angle variable, y = w sin(theta): the Jacobian w cos(theta)
    times the edge factor is (w cos(theta))**2, so this is that times the
    kernel, bounded and analytic.  x overrides spec.x and broadcasts.

    On the kernel's unit-time scale cos(phi) = sin(theta), and
    w**2 / t = 4 / (1-q) leaves t only in u = x / w and r = s / t."""
    x = spec.x if x is None else x
    c = np.sin(theta)
    u = np.asarray(x, dtype=float) / spec.w
    scale = 4.0 / (1.0 - spec.q)
    return ((1.0 - c) * (1.0 + c)) * _unit_kernel(c, u, spec.s / spec.t, spec.q, scale)


def qgauss_density(y, t: float, ctx: QContext):
    """Density of the centred q-Gaussian with variance t, vectorised in y.

    Goes to zero continuously at |y| = w and is exactly zero from there out.
    """
    return _y_density(marginal_spec(ctx, t), y)


def transition_density(x, s: float, t: float, y, ctx: QContext):
    """Transition density from state x at time s to time t; broadcasts over x
    and y.

    Requires 0 <= s < t and |x| <= 2 sqrt(s / (1-q)) for every x; outside
    that region the absolutely continuous description used here does not
    apply and the call is rejected.
    """
    x = np.asarray(x, dtype=float)
    # the support is symmetric, so validating the largest |x| validates all
    spec = transition_spec(ctx, s, t, float(np.max(np.abs(x))))
    return _y_density(spec, y, x)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _trapezoid_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite trapezoid rule with m intervals on theta in [-pi/2, pi/2]:
    the m - 1 interior nodes -pi/2 + j pi/m, each of weight pi/m.  The end
    nodes are left out because every theta-integrand carries (w cos(theta))**2
    and vanishes there.  The nodes of m are bit for bit among those of 2 m."""
    return np.arange(1, m) * (math.pi / m) - math.pi / 2.0, np.full(m - 1, math.pi / m)


def _adaptive(estimate, rel_tol: float, max_intervals: int) -> np.ndarray:
    """Doubles the trapezoid intervals from 64 (64, 128, 256, ...) until two
    successive values of estimate(thetas, weights) agree to rel_tol (relative,
    with a unit floor); raises QuadratureError if max_intervals is passed first.
    An array of values stops entry by entry, each at the level where it
    would stop alone, and is returned once every entry has stopped.

    The levels nest: after the first, thetas[0::2] are the nodes the previous
    level lacks and thetas[1::2] are its nodes, so estimate can evaluate the
    new ones only and interleave them with what it kept (see _nest).
    """
    m, prev, value, done = 64, None, 0.0, np.False_
    while m <= max_intervals:
        est = estimate(*_trapezoid_nodes(m))
        if prev is not None:
            settled = ~done & (np.abs(est - prev) < rel_tol * np.maximum(1.0, np.abs(est)))
            value, done = np.where(settled, est, value), done | settled
            if np.all(done):
                return value
        prev, m = est, 2 * m
    raise QuadratureError(
        f"quadrature did not converge by {max_intervals} intervals (last estimate {prev})"
    )


def _nest(kept, fresh: np.ndarray) -> np.ndarray:
    """Values on a level's nodes, in node order along the last axis, from the
    previous level's (kept, None at the first level) and the new nodes'."""
    if kept is None:
        return fresh
    out = np.empty(fresh.shape[:-1] + (fresh.shape[-1] + kept.shape[-1],))
    out[..., 0::2] = fresh
    out[..., 1::2] = kept
    return out


def integrate(g, spec: DensitySpec, rel_tol: float = QUAD_REL_TOL) -> float | np.ndarray:
    """Integral of g against the density by the trapezoid rule in theta,
    adaptive up to 8192 intervals.

    g must act elementwise (g(y)[..., i] depends on y[i] alone): each level
    hands it only the nodes the previous level lacks.  g(y) of shape (k, n)
    stacks k integrands: the result is their k integrals, each bit for bit
    its own call's, and the density is evaluated once per level for all.
    """
    gv = rho = None

    def estimate(thetas, weights):
        nonlocal gv, rho
        new = thetas if rho is None else np.ascontiguousarray(thetas[0::2])
        gv = _nest(gv, np.asarray(g(spec.w * np.sin(new)), dtype=float))
        rho = _nest(rho, _theta_density(spec, new))
        return np.sum(weights * gv * rho, axis=-1)

    value = _adaptive(estimate, rel_tol, 8192)
    return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# tabulated CDFs and inverse-CDF sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CdfTable:
    """Tabulated theta-CDF rows for one density family.

    Rows correspond to the conditioning states in x_grid (a single row for
    marginals and fixed-x transitions).  cdf rows never decrease, from
    exactly 0 to exactly 1 after normalisation; pdf holds the theta-density
    at the nodes for Newton refinement during inversion.  guide[r, g] is the
    last cell j of row r with cdf[r, j] <= g / N_GUIDE (Chen & Asau's guide
    table).  defect is the largest |mass - 1| of the rows before
    normalisation, which the build gates at NORM_TOL.
    """

    thetas: np.ndarray
    cdf: np.ndarray
    pdf: np.ndarray
    guide: np.ndarray
    w: float
    x_grid: np.ndarray | None = None
    defect: float = 0.0


def _tabulate(spec: DensitySpec, x_grid=None) -> CdfTable:
    """Build a CdfTable of spec's theta-density, one row per start state in
    x_grid (spec.x alone without one).

    CDF increments use two-point Gauss-Legendre inside each of the N_THETA - 1
    cells, accurate far beyond the normalisation gate.  Rows are evaluated
    ROW_BLOCK at a time, so only one block of density values is live.
    """
    thetas = np.linspace(-math.pi / 2.0, math.pi / 2.0, N_THETA)
    h = thetas[1] - thetas[0]
    off = h / (2.0 * math.sqrt(3.0))
    mids = 0.5 * (thetas[:-1] + thetas[1:])
    sub = np.concatenate([mids - off, mids + off, thetas])
    xs = np.array([spec.x]) if x_grid is None else x_grid
    n_rows, m = xs.shape[0], N_THETA - 1
    cdf = np.empty((n_rows, N_THETA))
    pdf = np.empty((n_rows, N_THETA))
    cdf[:, 0] = 0.0
    for r in range(0, n_rows, ROW_BLOCK):
        block = slice(r, r + ROW_BLOCK)
        vals = _theta_density(spec, sub[None, :], xs[block, None])
        np.cumsum(0.5 * h * (vals[:, :m] + vals[:, m : 2 * m]), axis=1, out=cdf[block, 1:])
        pdf[block] = vals[:, 2 * m :]
    norms = cdf[:, -1].copy()
    worst = float(np.max(np.abs(norms - 1.0)))
    if not worst <= NORM_TOL:
        raise InvalidDensityError(f"tabulated density mass off by {worst:.3e} (> {NORM_TOL})")
    cdf /= norms[:, None]
    pdf /= norms[:, None]
    levels = np.arange(N_GUIDE + 1) / N_GUIDE
    guide = np.empty((n_rows, N_GUIDE + 1), dtype=np.int16)
    for r in range(n_rows):
        guide[r] = np.minimum(np.searchsorted(cdf[r], levels, side="right") - 1, m - 1)
    return CdfTable(thetas=thetas, cdf=cdf, pdf=pdf, guide=guide, w=spec.w, x_grid=x_grid, defect=worst)


@lru_cache(maxsize=16)
def scaled_marginal_table(q: float) -> CdfTable:
    """CDF table of the unit-time marginal; other horizons follow by sqrt(t) scaling."""
    return _tabulate(marginal_spec(QContext.numeric(q), 1.0))


@lru_cache(maxsize=16)
def scaled_transition_table(q: float) -> CdfTable:
    """CDF rows of the scaled one-step kernel (time q to time 1).

    On a geometric grid every step has time ratio q, and diffusive scaling
    reduces each transition to this single family indexed by the scaled state
    x' = x / sqrt(t) with |x'| <= 2 sqrt(q / (1-q)).
    """
    spec = transition_spec(QContext.numeric(q), q, 1.0, 0.0)
    edge = support_halfwidth(q, q)
    return _tabulate(spec, np.linspace(-edge, edge, N_X))


def invert_cdf(table: CdfTable, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorised inverse CDF: find the cell, then one Newton step.

    rows picks the table row per draw; raises ValueError unless every u lies
    in [0, 1) (NaN included).  Returns theta.
    The cell is the last j with cdf[row, j] <= u, unique because rows never
    decrease and end at exactly 1.  The guide entries at floor(u N_GUIDE)
    and the next level bracket it; bisection then runs only on the draws
    whose bracket spans more than one cell.
    """
    return _invert(table, u, rows)[0]


def _invert(table: CdfTable, u, *row_sets) -> list[np.ndarray]:
    """invert_cdf at the same u for each of row_sets, which share the check
    of u, its guide level and the table's flat views; the search and the
    Newton step run once per row set."""
    thetas, guide = table.thetas, table.guide
    cflat, pflat = table.cdf.ravel(), table.pdf.ravel()
    n, h = thetas.shape[0], thetas[1] - thetas[0]
    u, *row_sets = np.broadcast_arrays(np.asarray(u, dtype=float), *(np.asarray(r, dtype=np.intp) for r in row_sets))
    shape, u = u.shape, u.ravel()
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise ValueError("uniforms must lie in [0, 1)")
    level = (u * N_GUIDE).astype(np.intp)
    out = []
    for rows in row_sets:
        rows = rows.ravel()
        gi = rows * (N_GUIDE + 1) + level
        lo = guide.take(gi).astype(np.intp)
        hi = guide.take(gi + 1).astype(np.intp) + 1
        # invariant: cdf[row, lo] <= u < cdf[row, hi]
        base = rows * n
        active = np.flatnonzero(hi - lo > 1)
        while active.size:
            a_lo, a_hi = lo[active], hi[active]
            mid = (a_lo + a_hi) // 2
            below = cflat.take(base[active] + mid) <= u[active]
            a_lo = np.where(below, mid, a_lo)
            a_hi = np.where(below, a_hi, mid)
            lo[active], hi[active] = a_lo, a_hi
            active = active[a_hi - a_lo > 1]
        cell = base + lo
        f0, f1 = cflat.take(cell), cflat.take(cell + 1)
        p0, p1 = pflat.take(cell), pflat.take(cell + 1)
        t0 = thetas.take(lo)
        df = np.maximum(f1 - f0, 1e-300)
        frac = np.minimum(np.maximum((u - f0) / df, 0.0), 1.0)
        theta = t0 + frac * h
        rho = np.maximum(p0 + (p1 - p0) * frac, 1e-300)
        f_hat = f0 + (theta - t0) * 0.5 * (p0 + rho)
        theta = theta - (f_hat - u) / rho
        out.append(np.minimum(np.maximum(theta, t0), t0 + h).reshape(shape))
    return out


def draw_from_table(table: CdfTable, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms through the tabulated inverse CDF to state space."""
    return table.w * np.sin(invert_cdf(table, rows, u))


def draw_transition_batch(table: CdfTable, x_scaled: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Batch draws from the scaled one-step kernel at states x_scaled.

    The conditional quantile function is interpolated linearly between the two
    bracketing x-grid rows, in state space.  Conditional means interpolate
    linearly in x, so the martingale property survives tabulation exactly up
    to each row's own quantile error.  Both rows are inverted in one pass.
    """
    xg = table.x_grid
    if xg is None:
        raise ValueError("table has no conditioning grid")
    dx = xg[1] - xg[0]
    pos = (np.asarray(x_scaled, dtype=float) - xg[0]) / dx
    j = np.minimum(np.maximum(np.floor(pos).astype(np.intp), 0), xg.shape[0] - 2)
    lam = np.minimum(np.maximum(pos - j, 0.0), 1.0)
    ta, tb = _invert(table, u, j, j + 1)
    return (1.0 - lam) * (table.w * np.sin(ta)) + lam * (table.w * np.sin(tb))
