"""Continuous q-Hermite martingale polynomials.

The family h_n(x; t) is monic in x and satisfies the three-term recurrence

    x h_n(x; t) = h_{n+1}(x; t) + t [n]_q h_{n-1}(x; t),    h_0 = 1, h_1 = x.

Any polynomial f(x, t) can be written in the normalised basis

    f(x, t) = sum_m b_m(t) h_m(x; t) / [m]_q!

and this module converts between the monomial form and the coefficient tuple
(b_0, ..., b_d), which stochint.PolynomialIntegrand carries as its b.  Each
x-coefficient of h_m is one term c t**j, so a conversion (and qito's delta)
scales and shifts f's coefficient lists, taking the operations of the Poly
arithmetic it stands for in their order: same bits, signed zeros included,
and exact Fractions in rational mode.  Kept per (q, mode), in qcore's
bounded record of the context: the terms of h_0..h_N and the growth
constants C_0..C_N, N the largest degree asked for.
A polynomial keeps its derived forms, such as b, once computed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .qcore import Poly, QContext, Scalar, _add_term, _grown, _q_numbers, _trim, q_binomial, q_factorial

__all__ = [
    "QPolynomial",
    "qhermite",
    "to_hermite_basis",
    "from_hermite_basis",
    "hermite_eval_sequence",
    "growth_constant",
]


class QPolynomial:
    """Polynomial in x whose coefficients are polynomials in t.

    Stored in the monomial basis: ``coeffs[i]`` is the t-polynomial multiplying
    x**i.  Immutable, with exact equality when built over Fractions.  Derived
    forms are kept in _memo, which equality, hashing and repr ignore.
    """

    __slots__ = ("coeffs", "_memo")

    def __init__(self, coeffs: Iterable[Union[Poly, Scalar]] = ()):
        cs = [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def x_power(cls, n: int, c: Scalar = 1) -> "QPolynomial":
        return cls((Poly(),) * n + (Poly.const(c),))

    @classmethod
    def from_xt_terms(cls, terms: dict[tuple[int, int], Scalar]) -> "QPolynomial":
        """Build from a {(x_power, t_power): coefficient} mapping."""
        if not terms:
            return cls.zero()
        deg = max(i for i, _ in terms)
        cols: list[list[Scalar]] = [[] for _ in range(deg + 1)]
        for (i, j), c in terms.items():
            col = cols[i]
            while len(col) <= j:
                col.append(0)
            col[j] += c
        return cls(tuple(Poly(col) for col in cols))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Poly:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Poly()

    def derived(self, form: Callable[..., object], ctx: QContext, *args):
        """form(self, ctx, *args), computed once per (form, ctx, *args) and
        kept on this immutable object, so freed with it; form's value must be
        immutable.  stochint.PolynomialIntegrand keeps its forms the same way.
        The memo is read once and made only if absent, so threads that fill
        it at once at worst form an equal value twice."""
        memo = getattr(self, "_memo", None)
        if memo is None:
            memo = {}
            object.__setattr__(self, "_memo", memo)
        key = (form, ctx, *args)
        if key not in memo:
            memo[key] = form(self, ctx, *args)
        return memo[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "QPolynomial":
        if isinstance(other, QPolynomial):
            if self.is_zero() or other.is_zero():
                return QPolynomial.zero()
            out = [Poly() for _ in range(self.degree + other.degree + 1)]
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return QPolynomial(out)
        return QPolynomial(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def mul_x(self) -> "QPolynomial":
        return QPolynomial((Poly(),) + self.coeffs)

    def mul_t(self) -> "QPolynomial":
        return QPolynomial(tuple(Poly((0,) + c.coeffs) for c in self.coeffs))

    def subs_t_scale(self, c: Scalar) -> "QPolynomial":
        """f(x, c * t) as a polynomial in (x, t)."""
        return QPolynomial(tuple(p.scale_arg(c) for p in self.coeffs))

    def dq_time(self, ctx: QContext) -> "QPolynomial":
        """q-derivative in the time variable, acting coefficient-wise.
        Computed once per context and kept on the polynomial."""
        return self.derived(_dq_time, ctx)

    def __call__(self, x: Scalar, t: Scalar) -> Scalar:
        """Horner's rule in x over the coefficients' values at t.  At an array
        t they take one pass (_poly_rows), with each one's own Horner bits; at
        float times only if all are floats, which the array holds as they are."""
        kind = t.dtype if isinstance(t, np.ndarray) else None
        rows = kind == object or (kind == float and all(type(c) is float for p in self.coeffs for c in p.coeffs))
        out = 0 * x
        for c in reversed(_poly_rows(self.coeffs, t) if rows else [p(t) for p in self.coeffs]):
            out = out * x + c
        return out

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r})"


def _poly_rows(polys: Sequence[Poly], s: np.ndarray) -> np.ndarray:
    """polys[i] at s, row i, by one Horner pass over their zero-padded
    coefficients in s's dtype: bit for bit (or, exact, value and type) each
    one's own Horner rule from 0 * s, if that dtype holds them as they are.
    At a finite s a padded step leaves a zero z, and z * s + c gives a row's
    leading coefficient c, as from 0 * s (at inf or nan both give nan); a
    polynomial with no coefficients gives 0 * s itself."""
    width = max([1] + [len(p.coeffs) for p in polys])
    c = np.array([(0,) * (width - len(p.coeffs)) + p.coeffs[::-1] for p in polys], dtype=s.dtype)
    c = c.reshape(len(polys), width, *(1,) * s.ndim)
    out = 0 * s + c[:, 0]
    for j in range(1, width):
        out = out * s + c[:, j]
    if not all(p.coeffs for p in polys):
        out[[not p.coeffs for p in polys]] = 0 * s
    return out


def _dq_time(f: QPolynomial, ctx: QContext) -> QPolynomial:
    return QPolynomial(tuple(p.q_derivative(ctx) for p in f.coeffs))


def _hermite_row(rows: list, ctx: QContext) -> tuple:
    """Row m + 1 of the context's table "hermite terms" (_grown), whose row m
    lists h_m's x**i coefficients c t**j as (i, c, j), i = m - 2k >= 0
    ascending.  Each c as h_{m+1} = x h_m - [m]_q t h_{m-1} forms it on Polys:
    c' + -(c'' [m]_q), or the one term present; h_m's leading 1 is an int."""
    m = len(rows) - 1
    if m < 1:
        return ((m + 1, 1, 0),)
    up, qm = {i + 1: c for i, c, _ in rows[m]}, _q_numbers(m, ctx)[m][0]
    for i, c, _ in rows[m - 1]:
        up[i] = up[i] + -(c * qm) if i in up else -(c * qm)
    return tuple((i, up[i], (m + 1 - i) // 2) for i in sorted(up))


def qhermite(n: int, ctx: QContext) -> QPolynomial:
    """h_n(x; t), exact in rational mode, as the three-term recurrence forms
    it on Polys: below each coefficient c t**j sit j zeros, -0 and +0 by turns."""
    if n < 0:
        raise ValueError("qhermite needs n >= 0")
    cols, zero = [Poly()] * (n + 1), ctx.q * 0
    for i, c, j in _grown("hermite terms", ctx, n, _hermite_row)[n]:
        cols[i] = Poly([(-zero, zero)[k % 2] for k in range(j)] + [c])
    return QPolynomial(cols)


def to_hermite_basis(f: QPolynomial, ctx: QContext) -> tuple[Poly, ...]:
    """The coefficients (b_0(t), ..., b_d(t)) of f = sum_m b_m(t) h_m(x; t) / [m]_q!,
    d the x-degree of f.

    The h_m are monic in x, so the expansion is triangular: from the top, b_m
    is [m]_q! times the x**m coefficient list, and each lower x**i list loses
    it times h_m's x**i coefficient c t**j, a scaled and shifted copy.
    Computed once per context and kept on f.
    """
    return f.derived(_hermite_coeffs, ctx)


def _hermite_coeffs(f: QPolynomial, ctx: QContext) -> tuple[Poly, ...]:
    rows, qn = _grown("hermite terms", ctx, f.degree, _hermite_row), _q_numbers(f.degree, ctx)
    work, out = [list(p.coeffs) for p in f.coeffs], [Poly()] * len(f.coeffs)
    for m in range(len(work) - 1, -1, -1):
        lead = work[m]
        if lead:
            fact = qn[m][1]
            out[m] = Poly([a * fact for a in lead])
            for i, c, j in rows[m][:-1]:
                work[i] = _add_term(work[i], lead, c, j, -1)
    return tuple(out)


def from_hermite_basis(b: tuple[Poly, ...], ctx: QContext) -> QPolynomial:
    """Rebuild the monomial form of sum_m b[m](t) h_m(x; t) / [m]_q!."""
    return _from_basis(b, ctx, ctx.q**0)


def _from_basis(b: tuple[Poly, ...], ctx: QContext, scale: Scalar) -> QPolynomial:
    """sum_m b[m](t) h_m(x; scale t) / [m]_q! on coefficient lists, with the
    bits of the QPolynomial sum of h_m.subs_t_scale(scale) * (b[m] / [m]_q!)."""
    rows, cols = _grown("hermite terms", ctx, len(b) - 1, _hermite_row), [[] for _ in b]
    powers = Poly([1] * len(b)).scale_arg(scale).coeffs
    for m, bm in enumerate(b):
        inv = 1 / q_factorial(m, ctx)
        s = _trim([x * inv for x in bm.coeffs])
        for i, c, j in rows[m] if s else ():
            cols[i] = _add_term(cols[i], s, c * powers[j], j)
    return QPolynomial(tuple(map(Poly, cols)))


def hermite_eval_sequence(n_max: int, x, t, ctx: QContext, head=()) -> list:
    """[h_0(x; t), ..., h_{n_max}(x; t)] sharing one pass of the recurrence.

    head may hold the first rows of an earlier pass at the same (x, t): a
    row does not depend on how far the pass runs, so this one goes on from
    them, with the bits of a pass from h_0.  At finite x, (1, x) are h_0
    and h_1 bit for bit, so a pass over a column may start from them, with
    no pass over the column for either.  For a float array t the
    products [m]_q t are formed for all m in one pass, each as the
    recurrence would form it.
    """
    out = list(head[: n_max + 1]) or [x * 0 + 1]
    if n_max == 0:
        return out
    if len(out) == 1:
        out.append(x * 0 + x)
    start = len(out) - 1
    rows, steps = _q_numbers(n_max, ctx), None
    if ctx.mode == "float" and isinstance(t, np.ndarray) and t.dtype == float:
        steps = np.multiply.outer([row[0] for row in rows[start:n_max]], t)
    for m in range(start, n_max):
        step = rows[m][0] * t if steps is None else steps[m - start]
        nxt = x * out[m]
        if m > 1:  # from h_2 on, x h_m has the shape of x and t broadcast
            nxt -= step * out[m - 1]
        else:
            nxt = nxt - step * out[m - 1]
        out.append(nxt)
    return out


def growth_constant(n: int, ctx: QContext) -> float:
    """Sharp constant C_n = (1-q)**(-n/2) * sum_k qbinom(n, k).

    Kept per context for n = 0..N and extended on demand (_grown).
    """
    if n < 0:
        raise ValueError("growth constant needs n >= 0")
    return _grown("growth constants", ctx, n, _growth_step)[n]


def _growth_step(seq: list, ctx: QContext) -> float:
    m = len(seq)
    total = sum(float(q_binomial(m, k, ctx)) for k in range(m + 1))
    return (1.0 - ctx.qf) ** (-m / 2.0) * total
