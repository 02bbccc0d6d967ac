"""Continuous q-Hermite martingale polynomials.

The family h_n(x; t) is monic in x and satisfies the three-term recurrence

    x h_n(x; t) = h_{n+1}(x; t) + t [n]_q h_{n-1}(x; t),    h_0 = 1, h_1 = x.

Coefficients are polynomials in t, kept exact in rational mode.  Any
polynomial f(x, t) can be written in the normalised basis

    f(x, t) = sum_m b_m(t) h_m(x; t) / [m]_q!

and this module converts between the monomial form and the coefficient tuple
(b_0, ..., b_d), which stochint.PolynomialIntegrand carries as its b.  A
polynomial keeps its derived forms, such as that tuple, once computed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

import numpy as np

from .qcore import Poly, QContext, Scalar, _q_numbers, q_binomial, q_factorial, q_int

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
        immutable.  stochint.PolynomialIntegrand keeps its forms the same way."""
        if not hasattr(self, "_memo"):
            object.__setattr__(self, "_memo", {})
        key = (form, ctx, *args)
        if key not in self._memo:
            self._memo[key] = form(self, ctx, *args)
        return self._memo[key]

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
        if isinstance(other, Poly):
            return QPolynomial(tuple(c * other for c in self.coeffs))
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
        out = 0 * x
        for c in reversed(self.coeffs):
            out = out * x + c(t)
        return out

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r})"


def _dq_time(f: QPolynomial, ctx: QContext) -> QPolynomial:
    return QPolynomial(tuple(p.q_derivative(ctx) for p in f.coeffs))


_HERMITE_CACHE: dict[tuple, list[QPolynomial]] = {}


def _hermite_list(n: int, ctx: QContext) -> list[QPolynomial]:
    key = (ctx.q, ctx.mode)
    seq = _HERMITE_CACHE.setdefault(key, [QPolynomial.x_power(0), QPolynomial.x_power(1)])
    while len(seq) <= n:
        m = len(seq) - 1
        nxt = seq[m].mul_x() - q_int(m, ctx) * seq[m - 1].mul_t()
        seq.append(nxt)
    return seq


def qhermite(n: int, ctx: QContext) -> QPolynomial:
    """h_n(x; t) from the three-term recurrence, exact in rational mode."""
    if n < 0:
        raise ValueError("qhermite needs n >= 0")
    return _hermite_list(n, ctx)[n]


def to_hermite_basis(f: QPolynomial, ctx: QContext) -> tuple[Poly, ...]:
    """The coefficients (b_0(t), ..., b_d(t)) of f = sum_m b_m(t) h_m(x; t) / [m]_q!,
    d the x-degree of f, by back-substitution.

    The h_m are monic in x, so the expansion is triangular: strip the leading
    x-coefficient, subtract that multiple of h_m, recurse.  Exact over
    Fractions.  Computed once per context and kept on f.
    """
    return f.derived(_hermite_coeffs, ctx)


def _hermite_coeffs(f: QPolynomial, ctx: QContext) -> tuple[Poly, ...]:
    """to_hermite_basis' back-substitution; h_m's zero coefficients are
    skipped, as subtracting lead * Poly() leaves a coefficient as it was."""
    hs = _hermite_list(max(f.degree, 0), ctx)
    work = list(f.coeffs)
    out = [Poly() for _ in range(len(work))]
    for m in range(len(work) - 1, -1, -1):
        lead = work[m]
        if not lead.is_zero():
            out[m] = lead * q_factorial(m, ctx)
            for i, hc in enumerate(hs[m].coeffs):
                if not hc.is_zero():
                    work[i] = work[i] - lead * hc
    return tuple(out)


def from_hermite_basis(b: tuple[Poly, ...], ctx: QContext) -> QPolynomial:
    """Rebuild the monomial form of sum_m b[m](t) h_m(x; t) / [m]_q!."""
    out = QPolynomial.zero()
    for m, bm in enumerate(b):
        if bm.is_zero():
            continue
        out = out + qhermite(m, ctx) * (bm * (1 / q_factorial(m, ctx)))
    return out


def hermite_eval_sequence(n_max: int, x, t, ctx: QContext, head=()) -> list:
    """[h_0(x; t), ..., h_{n_max}(x; t)] sharing one pass of the recurrence.

    head may hold the first rows of an earlier pass at the same (x, t): a
    row does not depend on how far the pass runs, so this one goes on from
    them, with the bits of a pass from h_0.  For a float array t the
    products [m]_q t are formed for all m in one pass, each as the
    recurrence would form it.
    """
    out = list(head[: n_max + 1]) or [x * 0 + 1]
    if n_max == 0:
        return out
    if len(out) == 1:
        out.append(x * 0 + x)
    start = len(out) - 1
    ints = _q_numbers(n_max, ctx)[0][start:n_max]
    if ctx.mode == "float" and isinstance(t, np.ndarray) and t.dtype == float:
        steps = np.multiply.outer(ints, t)
    else:
        steps = [c * t for c in ints]
    for m, step in enumerate(steps, start):
        out.append(x * out[m] - step * out[m - 1])
    return out


_GROWTH_CACHE: dict[tuple, list[float]] = {}


def growth_constant(n: int, ctx: QContext) -> float:
    """Sharp constant C_n = (1-q)**(-n/2) * sum_k qbinom(n, k).

    Kept per (q, mode) for n = 0..N and extended on demand.
    """
    if n < 0:
        raise ValueError("growth constant needs n >= 0")
    qf = ctx.qf
    seq = _GROWTH_CACHE.setdefault((ctx.q, ctx.mode), [])
    while len(seq) <= n:
        m = len(seq)
        total = sum(float(q_binomial(m, k, ctx)) for k in range(m + 1))
        seq.append((1.0 - qf) ** (-m / 2.0) * total)
    return seq[n]
