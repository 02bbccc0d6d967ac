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
(w cos(theta))**2, a product only _angle_density forms (for integrate and
for qito.delta_numeric's inner leg).  Each integrand is then an analytic
function of sin(theta), 2 pi-periodic and even about +-pi/2, so the
composite trapezoid rule on [-pi/2, pi/2] is the full-period rule and
converges geometrically (Trefethen & Weideman, SIAM Review 56, 2014).  Its
levels nest: the nodes of m intervals are, bit for bit, every other node of
2 m, so each doubling evaluates only the new nodes and sums over all of them
in node order, and every estimate is the one a full evaluation gives;
stacked integrands share one density, each stopping at its own level.  A
DensitySpec keeps the levels integrate evaluated on it, for callers that
integrate several functions on one spec one call at a time.  A one-point
density runs on Python floats from its entry to the kernel, with the array
form's bits, type and shape.

Sampling is by tabulated inverse CDFs (in the style of PINV: Derflinger,
Hoermann & Leydold, ACM TOMACS 20(4), 2010): each row stores the quantile and
its slope at fixed u-knots, which crowd toward u = 0 and 1 like k**4, where
the quantile behaves like a cube root; between knots it is the cubic Hermite
interpolant.  A draw is a closed-form knot index (two square roots, the
upper half mirrored by one np.where), a few gathers and the Hermite
evaluation, with no search and no iteration, and deterministic given
the uniforms, which keeps every Monte Carlo run reproducible from its seed.
A single-path walk draws at one state on Python floats, from knot positions
taken for all its uniforms in one pass, reading its records from the
table's bytes, with the array form's value bit for bit.
Each table is built once per q from the CDF of each row, by Gauss-Lobatto
quadrature on nodes that resolve its conditional standard deviation, and
records its normalisation defect and its u-error, |F(y(u)) - u| between
knots, both gated.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
    "draw_from_table",
    "draw_transition_batch",
    "table_quadrature",
]

#: tolerance of the tables' normalisation gate
NORM_TOL = 1e-6
#: tolerance of the tables' u-error gate
U_TOL = 1e-9

#: relative stopping rule for adaptive quadrature
QUAD_REL_TOL = 1e-10

#: inverse-CDF tables: knot intervals per row, and the conditioning states
#: of the scaled transition table
N_U = 1024
N_X = 513

#: building them: theta cells per conditional standard deviation, over the
#: support or over WINDOW standard deviations about the start states,
#: whichever is narrower; rows tabulated per block, at most; cells per
#: block, at most (an edge row's window spans of order sqrt(w / sd)
#: standard deviations of theta, 11513 at q = 0.998: past the cap the
#: u-error gate fails the build rather than memory running out)
CELLS_PER_SD = 32
WINDOW = 30.0
ROW_BLOCK = 16
MAX_CELLS = 2**14


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

    s = 0 and x = 0 give the time-t q-Gaussian marginal.  t must be a normal
    float: the kernel forms 1 / t, never t**2 (below t = 1e-305, at s/t >=
    0.9, 1 / t times the unit-time kernel can overflow to an inf y-density).
    _levels serves callers that integrate several functions on one spec one
    call at a time; the verification suites stack theirs per spec instead.
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
        if self.t < sys.float_info.min:
            raise ValueError(f"t = {self.t} underflows the normal float range")
        if not (0.0 <= self.s < self.t):
            raise ValueError("transition needs 0 <= s < t")
        if not abs(self.x) <= support_halfwidth(self.s, self.q):
            raise ValueError("x lies outside the time-s support")

    @property
    def w(self) -> float:
        """Support half-width at the target time."""
        return support_halfwidth(self.t, self.q)

    @cached_property
    def _levels(self) -> dict[int, np.ndarray]:
        """integrate's density levels on this spec, keyed on the node count
        (64, 128, ... intervals): at most 8 levels, 16312 values, 127 KiB."""
        return {}


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
    rho = q**k0 and T_m the Chebyshev polynomials, cut after M terms.  Every
    factor free of c and u comes from _tail_plan, once per (q, r).  Terms in
    c alone and in u alone are kept apart, so on a (rows x nodes) block only
    their products are full-size; those are updated in place, since NumPy
    does not reuse temporaries here and a second live full-size temporary
    costs more than the arithmetic.
    Every operation is elementwise in one order and exp is NumPy's, so each
    value depends on its own point alone, and on Python floats (IEEE + - * /
    round as NumPy's float64 ufuncs do) it is the array form's bit for bit;
    there a zero denominator raises ZeroDivisionError where NumPy gives inf
    or nan.
    """
    plan = _tail_plan(q, r)
    # the tail first, so its full-size temporaries are gone before den's
    value = np.exp(_log_tail(c, u, r, plan))
    const = scale * (1.0 - q) * (1.0 - q) * (1.0 - r) / (2.0 * math.pi)
    c4, uu = 4.0 * (c * c), u * u
    num = den = 1.0
    for k, (qk, one_qk2, step, lin, b2, rq2k, q2k4) in enumerate(plan[5]):
        if k:
            const *= step
            num *= one_qk2 - qk * c4
        # -(term in u) c + (terms in c) + (terms in u): one full-size product
        f = (lin * u) * c
        f += b2 + rq2k * c4
        f += q2k4 * uu
        den *= f
    value *= (const * num) / den
    return value


def _log_tail(c, u, r: float, plan: tuple):
    """log prod_{k>=k0} num_k / den_k, its series cut after M terms, for the
    _tail_plan at (q, r)."""
    log_y, series = plan[3:5]
    # Chebyshev recurrences: T_m at cos(phi) and cos(2 phi), r^(m/2) T_m at cos(psi)
    c2 = 2.0 * (c * c) - 1.0
    two_c, two_c2, two_u = 2.0 * c, 2.0 * c2, 2.0 * u
    t_prev, t_cur, d_prev, d_cur, s_prev, s_cur = 1.0, c, 1.0, c2, 1.0, u
    pair = 0.0
    for two_a, four_a in series:
        log_y -= two_a * d_cur
        d_prev, d_cur = d_cur, two_c2 * d_cur - d_prev
        pair += (four_a * s_cur) * t_cur  # the one full-size product
        t_prev, t_cur = t_cur, two_c * t_cur - t_prev
        s_prev, s_cur = s_cur, two_u * s_cur - r * s_prev
    pair += log_y
    return pair


@lru_cache(maxsize=256)
def _tail_plan(q: float, r: float) -> tuple:
    """The kernel's constants at (q, r), (k0, M, rho, log_y, series, direct):
    _series_cut's (k0, M, rho) at PROD_EPS; log_y = log (r rho; q)_inf +
    log (q rho; q)_inf = -sum_m (r^m + q^m) rho^m / (m (1 - q^m)), summed
    until a term falls below 1e-18; series the (2 a_m, 4 a_m) of the log
    series, a_m = rho^m / (m (1 - q^m)); direct, per k < k0, the factors of
    num_k, den_k and the constant free of c and u.  Each is formed as the
    kernel formed it on every call up to qbm 0.6.0, so values keep their
    bits."""
    k0, n_terms, rho = _series_cut(q, PROD_EPS)
    log_y, m, rho_m, q_m = 0.0, 1, rho, q
    while rho_m > 1e-18 * m * (1.0 - q_m):
        log_y -= (r**m + q_m) * rho_m / (m * (1.0 - q_m))
        m, rho_m, q_m = m + 1, rho_m * rho, q_m * q
    series, rho_m, q_m = [], 1.0, 1.0
    for m in range(1, n_terms + 1):
        rho_m, q_m = rho_m * rho, q_m * q
        a = rho_m / (m * (1.0 - q_m))
        series.append((2.0 * a, 4.0 * a))
    direct, qk = [], 1.0
    for _ in range(k0):
        q2k = qk * qk
        b = 1.0 - r * q2k
        factors = (-4.0 * qk * (1.0 + r * q2k), b * b, r * q2k, 4.0 * q2k)
        direct.append((qk, (1.0 + qk) * (1.0 + qk), (1.0 - r * qk) * (1.0 - q * qk), *factors))
        qk *= q
    return k0, n_terms, rho, log_y, tuple(series), tuple(direct)


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
    exactly zero off the support.  x overrides spec.x and broadcasts.  One y
    with one x runs on Python floats, with the array form's bits, type and
    shape; a zero denominator there takes the array form (inf or nan)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(spec.x if x is None else x, dtype=float)
    w = spec.w
    if y.size == 1 and x.size == 1:
        yf, shape = y.item(), (1,) * max(y.ndim, x.ndim)
        if not abs(yf) < w:
            return np.full(shape, 0.0)[()]
        try:
            kernel = _unit_kernel(yf / w, x.item() / w, spec.s / spec.t, spec.q, 1.0 / spec.t)
        except ZeroDivisionError:
            pass
        else:
            # |y| < w gives y * y <= w * w; math.sqrt rounds as np.sqrt does
            return np.full(shape, math.sqrt(w * w - yf * yf) * kernel)[()]
    edge = np.sqrt(np.maximum(w * w - y * y, 0.0))
    # off the support the Chebyshev terms grow without bound; those values are dropped
    rho = edge * _kernel(np.clip(y, -w, w), x, spec.s, spec.t, spec.q)
    return np.where(np.abs(y) < w, rho, 0.0)[()]


def _angle_density(c, u, r: float, q: float):
    """The transition density in the angle variable, y = w sin(theta), at
    c = sin(theta), u = x / w and r = s / t: the Jacobian w cos(theta) times
    the edge factor is (w cos(theta))**2, and w**2 / t = 4 / (1-q), so this is
    (1 - c) (1 + c) times the unit-time kernel (cos(phi) = c) at scale
    4 / (1-q), free of t, bounded and analytic.  Broadcasts over c and u."""
    return ((1.0 - c) * (1.0 + c)) * _unit_kernel(c, u, r, q, 4.0 / (1.0 - q))


def _theta_density(spec: DensitySpec, theta, x=None):
    """Density in the angle variable, y = w sin(theta) (_angle_density).
    x overrides spec.x and broadcasts."""
    x = spec.x if x is None else x
    return _angle_density(np.sin(theta), np.asarray(x, dtype=float) / spec.w, spec.s / spec.t, spec.q)


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
    spec = transition_spec(ctx, s, t, abs(x.item()) if x.size == 1 else float(np.max(np.abs(x))))
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
    The levels are kept on the spec (DensitySpec._levels) for callers that
    integrate several functions on one spec one call at a time: a later call
    evaluates the density only at levels no earlier call reached.  A level is
    stored by one setdefault, so threads sharing a spec read one array each.
    """
    levels = spec._levels
    gv = rho = None

    def estimate(thetas, weights):
        nonlocal gv, rho
        new = thetas if rho is None else np.ascontiguousarray(thetas[0::2])
        gv = _nest(gv, np.asarray(g(spec.w * np.sin(new)), dtype=float))
        kept = levels.get(thetas.size)
        if kept is None:
            kept = _nest(rho, _theta_density(spec, new))
            kept.flags.writeable = False
            kept = levels.setdefault(thetas.size, kept)
        rho = kept
        return np.sum(weights * gv * rho, axis=-1)

    value = _adaptive(estimate, rel_tol, 8192)
    return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# inverse-CDF tables and sampling
# ---------------------------------------------------------------------------

#: u at knot k is k**4 / _U_SCALE up to the middle knot and mirrored above it
_U_SCALE = N_U**4 / 8.0
#: the interior points of four-point Gauss-Lobatto on a unit cell, and the
#: coefficients of tau**1..tau**4 in the integral from 0 to tau of the cubic
#: through the values at its points
_LOBATTO = (0.5 - math.sqrt(0.05), 0.5 + math.sqrt(0.05))
_QUARTIC = np.linalg.inv(np.vander([0.0, *_LOBATTO, 1.0], 4, increasing=True)) / np.arange(1.0, 5.0)[:, None]


@dataclass(frozen=True)
class CdfTable:
    """Tabulated inverse CDFs of one density family, in units of the support
    half-width w.

    Rows correspond to the conditioning states in x_grid (a single row for
    the marginal).  The quantile y / w is tabulated with its slope
    d(y / w)/dk at the knots u = _knot_u(k), k = 0..N_U, and is the cubic
    Hermite interpolant in k between them: cubic[r, k] holds its four
    coefficients on [k, k + 1], in powers of k - floor(k), so a draw reads
    one 32-byte record.  The knots crowd toward u = 0 and u = 1 like k**4,
    where y(u) behaves like a cube root.  The end knots hold the ends of the
    window the row was built on (the support, or WINDOW standard deviations
    about the start states of its block if that is narrower), with slope 0.

    defect is the largest |mass - 1| of the rows before normalisation, gated
    at NORM_TOL; u_error the largest |F(y(u)) - u| at the midpoints between
    knots, F the row's CDF, gated at U_TOL.  Blending rows j and j + 1 with
    weight lam leaves 1 - 2 lam (1 - lam) blend_loss[j] of a row's variance
    (transition tables only).  A transition table's rows below its centre
    are exact mirrors of those above, which the gates cover (see _tabulate).
    """

    cubic: np.ndarray
    w: float
    x_grid: np.ndarray | None = None
    blend_loss: np.ndarray | None = None
    defect: float = 0.0
    u_error: float = 0.0

    @cached_property
    def _one_state(self) -> tuple:
        """What a one-state draw reads, without copying the arrays: the cubic
        records' bytes, a view of blend_loss, and x_grid's first state, its
        spacing and the last lower bracketing row."""
        xg = self.x_grid
        loss = None if self.blend_loss is None else memoryview(self.blend_loss)
        rows = (None, None, None) if xg is None else (float(xg[0]), float(xg[1] - xg[0]), xg.shape[0] - 2)
        return memoryview(self.cubic).cast("B"), loss, *rows


def _knot_u(k):
    """u at knot coordinates k in [0, N_U]."""
    k = np.asarray(k, dtype=float)
    near = np.minimum(k, N_U - k)
    v = np.square(np.square(near)) / _U_SCALE
    return np.where(k <= N_U / 2, v, 1.0 - v)


def _knot_du(k):
    """du/dk at knot coordinates k in [0, N_U]."""
    return 4.0 * np.minimum(k, N_U - k) ** 3 / _U_SCALE


def table_quadrature(points: int) -> tuple[np.ndarray, np.ndarray]:
    """(u, weights): Gauss-Legendre with the given number of points in
    every knot interval, in the knot coordinate k.  In each interval a
    table's quantile is a cubic in k and du/dk a cubic, so the rule is exact
    for a draw's moments of order r with 3 r + 3 <= 2 points - 1, up to
    rounding.  u is capped at the largest uniform below 1.
    """
    x, w = np.polynomial.legendre.leggauss(points)
    k = (np.arange(N_U)[:, None] + 0.5 * (x + 1.0)).ravel()
    return np.minimum(_knot_u(k), 1.0 - 2.0**-53), _knot_du(k) * np.tile(0.5 * w, N_U)


def _theta_cdf(spec: DensitySpec, xs: np.ndarray):
    """The theta-CDFs of the start states xs on nodes spread evenly over the
    union of their windows.

    Returns (lo, h, cdf, vals): the nodes are lo + h j, j = 0..m, shared by
    the rows, so the kernel's terms in theta alone are evaluated once for
    all of them.  A standard deviation sd of y spans at least sd / w in
    theta, so m cells of CELLS_PER_SD per sd / w resolve every row.  cdf
    holds each row's CDF at the nodes, before normalisation, by four-point
    Gauss-Lobatto in each cell; vals the density at the cells' interior
    Lobatto points (the first two blocks of m columns) and at the nodes (the
    last m + 1 columns).
    """
    w, sd = spec.w, math.sqrt(spec.t - spec.s)
    lo = math.asin(max((float(xs.min()) - WINDOW * sd) / w, -1.0))
    hi = math.asin(min((float(xs.max()) + WINDOW * sd) / w, 1.0))
    m = min(math.ceil((hi - lo) * w / sd * CELLS_PER_SD), MAX_CELLS)
    h = (hi - lo) / m
    cells = np.arange(m)
    offsets = np.concatenate([cells + _LOBATTO[0], cells + _LOBATTO[1], np.arange(m + 1.0)])
    vals = _theta_density(spec, (lo + h * offsets)[None, :], xs[:, None])
    nodes = vals[:, 2 * m :]
    cdf = np.zeros((xs.shape[0], m + 1))
    inc = 5.0 * (vals[:, :m] + vals[:, m : 2 * m])
    inc += nodes[:, :-1]
    inc += nodes[:, 1:]
    np.cumsum(inc, axis=1, out=cdf[:, 1:])
    cdf *= h / 12.0
    return lo, h, cdf, vals


class _CellModel:
    """The CDF of each row of a _theta_cdf inside given cells, rows[i] and
    cells[i] for target i: there the density is the cubic through its four
    Lobatto values, so the CDF is a quartic in the position tau in [0, 1]
    that takes the tabulated values f0 and f1 at the cell's ends."""

    def __init__(self, h: float, cdf: np.ndarray, vals: np.ndarray, rows: np.ndarray, cells: np.ndarray):
        m = cdf.shape[1] - 1
        i = rows * (3 * m + 1) + cells
        self.points = vals.take(i + np.array([[2 * m], [0], [m], [2 * m + 1]]))
        # F = f0 + sum_k coef[k] tau**(k+1)
        self.coef = (h * _QUARTIC) @ self.points
        j = rows * (m + 1) + cells
        self.f0, self.f1 = cdf.take(j), cdf.take(j + 1)

    def cdf(self, tau, sel=slice(None)):
        a0, a1, a2, a3 = self.coef[:, sel]
        return self.f0[sel] + tau * (a0 + tau * (a1 + tau * (a2 + tau * a3)))

    def slope(self, tau, sel=slice(None)):
        a0, a1, a2, a3 = self.coef[:, sel]
        return a0 + tau * (2.0 * a1 + tau * (3.0 * a2 + tau * (4.0 * a3)))

    def invert(self, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tau, dF/dtau there) with F(tau) = target, f0 <= target < f1.

        The start inverts the cubic Hermite interpolant of F's end values and
        slopes, or, in a cell that ends where the density vanishes (at the
        support's edge, like the square of the distance), F's cube-root law
        there.  Two Newton steps on the quartic follow for every target, and
        more for the few that still move by over 1e-10.
        """
        d = self.f1 - self.f0
        v = (target - self.f0) / d
        m0 = d / np.maximum(self.coef[0], d / 3.0)
        m1 = d / np.maximum(self.slope(1.0), d / 3.0)
        s = 1.0 - v
        tau = v * (v * (3.0 - 2.0 * v) + s * (m0 * s - m1 * v))
        left, right = np.flatnonzero(self.points[0] == 0.0), np.flatnonzero(self.points[3] == 0.0)
        tau[left] = np.cbrt(v[left])
        tau[right] = 1.0 - np.cbrt(s[right])
        for _ in range(2):
            slope = self.slope(tau)
            step = (self.cdf(tau) - target) / np.maximum(slope, 1e-300)
            tau = np.minimum(np.maximum(tau - step, 0.0), 1.0)
        sel = np.flatnonzero(np.abs(step) > 1e-10)
        for _ in range(60):
            if not sel.size:
                break
            cur = tau[sel]
            slope[sel] = self.slope(cur, sel)
            step = (self.cdf(cur, sel) - target[sel]) / np.maximum(slope[sel], 1e-300)
            tau[sel] = np.minimum(np.maximum(cur - step, 0.0), 1.0)
            sel = sel[np.abs(step) > 1e-10]
        return tau, slope


def _invert_rows(spec: DensitySpec, xs: np.ndarray):
    """The inverse CDFs of the start states xs as y / w and its slope in k at
    the knots (see CdfTable), their values at the midpoints between knots,
    their u-error and their defect; raises InvalidDensityError where
    _tabulate says."""
    lo, h, cdf, vals = _theta_cdf(spec, xs)
    n, m, k = xs.shape[0], cdf.shape[1] - 1, np.arange(1.0, N_U)
    mass = cdf[:, -1].copy()
    defect = float(np.max(np.abs(mass - 1.0)))
    if not defect <= NORM_TOL:
        off = f"off by {defect:.3e} (> {NORM_TOL})" if math.isfinite(defect) else "not finite"
        raise InvalidDensityError(f"tabulated density mass {off}")
    # knot targets in the unnormalised CDF: F = mass u
    target = mass[:, None] * _knot_u(k)
    cells = np.concatenate([np.searchsorted(c, t, side="right") - 1 for c, t in zip(cdf, target)])
    tau, dfdtau = _CellModel(h, cdf, vals, np.repeat(np.arange(n), N_U - 1), cells).invert(target.ravel())
    theta = (lo + h * (cells + tau)).reshape(n, -1)
    quantile = np.empty((n, N_U + 1))
    slope = np.zeros((n, N_U + 1))
    quantile[:, 0], quantile[:, -1] = math.sin(lo), math.sin(lo + h * m)
    quantile[:, 1:-1] = np.sin(theta)
    # d(y / w)/dk = cos(theta) dtheta/du du/dk, and dtheta/du = mass h / (dF/dtau)
    slope[:, 1:-1] = np.cos(theta) / dfdtau.reshape(n, -1) * ((h * mass)[:, None] * _knot_du(k))
    # the u-error where cubic Hermite interpolation errs most, between knots
    mid = 0.5 * (quantile[:, :-1] + quantile[:, 1:]) + 0.125 * (slope[:, :-1] - slope[:, 1:])
    pos = ((np.arcsin(np.minimum(np.maximum(mid, -1.0), 1.0)) - lo) / h).ravel()
    cells = np.minimum(np.maximum(pos.astype(np.intp), 0), m - 1)
    f = _CellModel(h, cdf, vals, np.repeat(np.arange(n), N_U), cells).cdf(np.minimum(np.maximum(pos - cells, 0.0), 1.0))
    u_error = float(np.max(np.abs(f.reshape(n, -1) / mass[:, None] - _knot_u(np.arange(N_U) + 0.5))))
    if not u_error <= U_TOL:
        raise InvalidDensityError(f"tabulated inverse CDF off by {u_error:.3e} in u (> {U_TOL})")
    return quantile, slope, mid, u_error, defect


def _hermite_records(out: np.ndarray, quantile: np.ndarray, slope: np.ndarray) -> None:
    """Write into out the cubic records (see CdfTable) of the rows whose knot
    values of y / w and its slope in k are quantile and slope."""
    z0, z1, d0, d1 = quantile[:, :-1], quantile[:, 1:], slope[:, :-1], slope[:, 1:]
    gap = z1 - z0
    out[..., 0], out[..., 1] = z0, d0
    out[..., 2] = 3.0 * gap - 2.0 * d0 - d1
    out[..., 3] = d0 + d1 - 2.0 * gap


def _tabulate(spec: DensitySpec, x_grid=None) -> CdfTable:
    """Build a CdfTable of spec's density, one row per start state in x_grid
    (spec.x alone without one), in blocks of at most ROW_BLOCK rows whose
    states span at most WINDOW standard deviations.

    An x_grid must be odd (x_grid == -x_grid[::-1], of odd length N): the
    density is unchanged under (x, y) -> (-x, -y), so only the rows from the
    centre up are inverted.  Row N - 1 - i mirrors row i: y / w at knot k
    is minus row i's at N_U - k (_knot_u(N_U - k) is 1 - _knot_u(k)), the
    slope is row i's there, and a lower pair's blend loss is its mirror
    pair's.  A mirror has its partner's mass and u-error, so the gates over
    the inverted rows cover every row.

    Raises InvalidDensityError if a row's mass before normalisation is off
    by more than NORM_TOL or not finite, or its u-error exceeds U_TOL.  The
    kernel's 0/0 at the edge rows near q = 1 is left to the mass gate,
    without a warning.
    """
    xs = np.array([spec.x]) if x_grid is None else x_grid
    n = xs.shape[0]
    cubic = np.empty((n, N_U, 4))
    # Var(Y_{j+1} - Y_j) by the midpoint rule in k, pair by pair as the rows come
    du = np.diff(_knot_u(np.arange(N_U + 1.0)))
    loss, last = (None if x_grid is None else np.empty(n - 1)), None
    defect = u_error = 0.0
    centre, step = n // 2, ROW_BLOCK
    if x_grid is not None:
        step = max(1, min(step, int(WINDOW * math.sqrt(spec.t - spec.s) / (x_grid[1] - x_grid[0])) + 1))
    for r in range(centre, n, step):
        block = slice(r, r + step)
        with np.errstate(divide="ignore", invalid="ignore"):
            quantile, slope, mid, err, off = _invert_rows(spec, xs[block])
        defect, u_error = max(defect, off), max(u_error, err)
        _hermite_records(cubic[block], quantile, slope)
        if loss is not None:
            # the mirrors n - 1 - i of the block's rows i past the centre
            skip = int(r == centre)
            mirror = slice(n - r - mid.shape[0], n - r - skip)
            _hermite_records(cubic[mirror], -quantile[skip:][::-1, ::-1], slope[skip:][::-1, ::-1])
            gap = np.diff(mid if last is None else np.vstack([last, mid]), axis=0)
            loss[r - (last is not None) : r + mid.shape[0] - 1] = np.square(gap) @ du - np.square(gap @ du)
            last = mid[-1:]
    if loss is not None:
        loss[:centre] = loss[centre:][::-1]
        loss *= spec.w**2 / (2.0 * (spec.t - spec.s))
    return CdfTable(cubic=cubic, w=spec.w, x_grid=x_grid, blend_loss=loss, defect=defect, u_error=u_error)


@lru_cache(maxsize=16)
def scaled_marginal_table(q: float) -> CdfTable:
    """Inverse-CDF table of the unit-time marginal; other horizons follow by
    sqrt(t) scaling."""
    return _tabulate(marginal_spec(QContext.numeric(q), 1.0))


@lru_cache(maxsize=16)
def scaled_transition_table(q: float) -> CdfTable:
    """Inverse-CDF rows of the scaled one-step kernel (time q to time 1).

    On a geometric grid every step has time ratio q, and diffusive scaling
    reduces each transition to this single family indexed by the scaled state
    x' = x / sqrt(t) with |x'| <= 2 sqrt(q / (1-q)).  The grid of x' is odd,
    its lower half the negated upper half of an even spacing, with 0.0 at its
    centre, so the rows below the centre mirror those above (_tabulate).
    """
    spec = transition_spec(QContext.numeric(q), q, 1.0, 0.0)
    edge = support_halfwidth(q, q)
    x_grid = np.linspace(-edge, edge, N_X)
    x_grid[: N_X // 2] = -x_grid[: N_X // 2 : -1]
    return _tabulate(spec, x_grid)


#: a table's cubic coefficients as one record per knot interval, as an
#: array dtype and as the bytes a one-state draw unpacks
_CUBIC_RECORD = np.dtype([("c0", "f8"), ("c1", "f8"), ("c2", "f8"), ("c3", "f8")])
_RECORD_BYTES = struct.Struct("4d")


def _quantiles(table: CdfTable, u, rows, pair: bool = False) -> np.ndarray:
    """y / w at the uniforms u in the given table rows (an int or an array
    of u's shape), or with pair in rows and rows + 1, stacked on a new first
    axis; raises ValueError unless every u lies in [0, 1) (NaN included).
    Each draw reads one record and evaluates its cubic, in place."""
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
        raise ValueError("uniforms must lie in [0, 1)")
    # u < 1 keeps the knot coordinate below N_U, so the interval stays in range
    cell, t = _knot_cells(u)
    # the records' indices, formed in place: row * N_U + cell, the next row's N_U on
    idx = np.multiply(rows, N_U, out=np.empty((1 + pair, *u.shape), np.intp))
    idx += cell
    idx[1:] += N_U
    del cell
    c = table.cubic.view(_CUBIC_RECORD).ravel().take(idx if pair else idx[0])
    del idx
    y = np.multiply(c["c3"], t)
    y += c["c2"]
    y *= t
    y += c["c1"]
    y *= t
    y += c["c0"]
    return y


def _knot_cells(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The knot coordinates k in [0, N_U) of uniforms in [0, 1), the inverse
    of _knot_u, as their knot intervals and the offsets in them."""
    t = np.subtract(1.0, u, out=np.empty_like(u))
    np.minimum(u, t, out=t)
    t *= _U_SCALE
    np.sqrt(t, out=t)
    np.sqrt(t, out=t)
    # the upper half mirrors: N_U - root where u >= 0.5
    t = np.where(u >= 0.5, N_U - t, t)
    cell = t.astype(np.intp)
    t -= cell
    return cell, t


def _quantile_at(records: memoryview, row: int, cell: int, t: float) -> float:
    """_quantiles' cubic in one row at offset t of a knot interval, from the
    table's record bytes (CdfTable._one_state)."""
    c0, c1, c2, c3 = _RECORD_BYTES.unpack_from(records, _RECORD_BYTES.size * (row * N_U + cell))
    return ((c3 * t + c2) * t + c1) * t + c0


def draw_from_table(table: CdfTable, rows: np.ndarray | int, u: np.ndarray) -> np.ndarray:
    """Map uniforms through the tabulated inverse CDF of the given rows (an
    int, or an array broadcast against u) to state space; raises ValueError
    unless every u lies in [0, 1)."""
    return table.w * _quantiles(table, u, rows)


def _draw_at(table: CdfTable, row: int, cell: int, t: float) -> float:
    """draw_from_table in one row at one knot position, an interval and the
    offset in it as _knot_cells gives them, on Python floats: the same
    operations, which round as NumPy's float64 ufuncs do, so the same bits."""
    return table.w * _quantile_at(table._one_state[0], row, cell, t)


def draw_transition_batch(table: CdfTable, x_scaled: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Batch draws from the scaled one-step kernel at states x_scaled.

    The conditional quantile function is interpolated linearly between the two
    bracketing x-grid rows, in state space.  Conditional means interpolate
    linearly in x, so the martingale property survives tabulation exactly up
    to each row's own quantile error.  Both rows are inverted in one pass.
    Blending two quantile functions loses variance, 2 lam (1 - lam)
    blend_loss[j] of it (up to 1e-5 near the edge at q = 0.99); the draw's
    deviation from x is scaled by 1 + lam (1 - lam) blend_loss[j] to restore
    it, which keeps the mean, and clipped to the support.  States and
    uniforms are arrays of one shape, one state per uniform (the steps below
    work in place); anything else raises ValueError.  _transition_at is the
    one-state form on Python floats, with the same bits.
    """
    xg = table.x_grid
    if xg is None:
        raise ValueError("table has no conditioning grid")
    x = np.asarray(x_scaled, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape != u.shape or x.ndim == 0:
        raise ValueError("states and uniforms must be arrays of one shape")
    lam = np.subtract(x, xg[0])
    lam /= xg[1] - xg[0]
    # truncation is floor wherever it matters: negative positions clip to row
    # 0; the clips run only where a reduction finds a value out of range
    j = lam.astype(np.intp)
    if not (j.min(initial=0) >= 0 and j.max(initial=0) <= xg.shape[0] - 2):
        np.maximum(j, 0, out=j)
        np.minimum(j, xg.shape[0] - 2, out=j)
    lam -= j
    if not (lam.min(initial=0.0) >= 0.0 and lam.max(initial=0.0) <= 1.0):
        np.maximum(lam, 0.0, out=lam)
        np.minimum(lam, 1.0, out=lam)
    y, zb = _quantiles(table, u, j, pair=True)
    rest = 1.0 - lam
    w = table.w
    # (1 - lam) (w za) + lam (w zb), each product in that order
    y *= w
    y *= rest
    zb *= w
    zb *= lam
    y += zb
    gain = table.blend_loss.take(j)
    gain *= lam
    gain *= rest
    dev = np.subtract(y, x)
    dev *= gain
    y += dev
    np.maximum(y, -w, out=y)
    return np.minimum(y, w, out=y)


def _transition_at(table: CdfTable, x: float, cell: int, t: float) -> float:
    """draw_transition_batch at one state and the knot position (cell, t) of
    its uniform, as _knot_cells gives them, on Python floats: each operation
    of the array form in its order, reading one record per bracketing row,
    so the same bits.  A non-finite state gives NaN, as there."""
    records, loss, x0, dx, top = table._one_state
    pos = (x - x0) / dx
    # the array form's truncation, clipped to [0, top]: NaN takes row 0, and a
    # position past the intp range takes top (NumPy's cast there is platform-defined)
    j = int(pos) if 0.0 <= pos < top else (top if pos >= top else 0)
    lam = pos - j
    if lam < 0.0:
        lam = 0.0
    elif lam > 1.0:
        lam = 1.0
    rest = 1.0 - lam
    w = table.w
    y = _quantile_at(records, j, cell, t) * w * rest + _quantile_at(records, j + 1, cell, t) * w * lam
    y += (y - x) * (loss[j] * lam * rest)
    return -w if y < -w else (w if y > w else y)
