"""q-number arithmetic and Jackson q-integration.

Everything here is parameterised by a deformation parameter q in (0, 1),
carried by a :class:`QContext`.  Exact mode works over ``fractions.Fraction``
so that algebraic identities can be checked with zero tolerance; float mode
uses ordinary binary floats and truncates the infinite Jackson sums with an
explicit tail rule, and infinite q-products at the one tolerance PROD_EPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Sequence, Union

Scalar = Union[int, float, Fraction]

__all__ = [
    "QContext",
    "Poly",
    "SampledFunction",
    "q_int",
    "q_factorial",
    "q_binomial",
    "q_derivative",
    "jackson_integral",
    "jackson_stieltjes",
]

#: float-mode Jackson sums stop once the dropped tail is bounded by this
TAIL_EPS = 1e-12

#: truncation tolerance of infinite q-products: the stochastic exponential's
#: product stops at the first N with q**N < PROD_EPS, and the density
#: kernel's q-Pochhammer series where its remainder bound falls below it
PROD_EPS = 1e-16


@dataclass(frozen=True)
class QContext:
    """Deformation parameter plus arithmetic mode."""

    q: Scalar
    mode: str = "float"

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exact" and not isinstance(self.q, (Fraction, int)):
            raise TypeError("exact mode requires q as a Fraction (floats are ambiguous)")
        if not (0 < self.q < 1):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if self.mode == "float":
            # a float-mode context equal to another must compute in floats,
            # since the (q, mode) caches cannot tell them apart
            object.__setattr__(self, "q", float(self.q))

    @classmethod
    def exact(cls, q: Union[str, int, Fraction]) -> "QContext":
        return cls(q=Fraction(q), mode="exact")

    @classmethod
    def numeric(cls, q: float) -> "QContext":
        return cls(q=float(q), mode="float")

    @property
    def qf(self) -> float:
        """q as a float, for quadrature and sampling code."""
        return float(self.q)

    def n_product_factors(self) -> int:
        """Smallest N with q**N < PROD_EPS."""
        return _n_product_factors(self.qf)


@lru_cache(maxsize=256)
def _n_product_factors(qf: float) -> int:
    """QContext.n_product_factors, kept per q: every stochastic exponential
    asks for it, and at q = 0.8 the loop takes 166 steps."""
    n, p = 0, 1.0
    while p >= PROD_EPS:
        p *= qf
        n += 1
    return n


def _grown(tables: dict, ctx: QContext, n: int, step: Callable[[list, QContext], object]) -> list:
    """tables[(q, mode)], starting empty, with step(rows, ctx) appended until
    it holds entry n: built apart and published in one assignment, never
    changed in place, so threads read only whole tables.  Callers must not
    modify it."""
    key = (ctx.q, ctx.mode)
    rows = tables.get(key, ())
    if len(rows) <= n:
        rows = list(rows)
        while len(rows) <= n:
            rows.append(step(rows, ctx))
        tables[key] = rows
    return rows


_Q_NUMBERS: dict[tuple, list[tuple]] = {}


def _q_numbers(n: int, ctx: QContext) -> list[tuple]:
    """Rows ([k]_q, [k]_q!, q**k) for k = 0..N with N >= n in ctx's arithmetic,
    kept per (q, mode) and extended on demand (_grown).  Each new row takes
    one step of the defining loops, [k+1]_q = [k]_q + q**k with q**k a running
    product and [k+1]_q! = [k]_q! [k+1]_q, so every entry is their value.
    """
    return _grown(_Q_NUMBERS, ctx, n, _q_step)


def _q_step(rows: list, ctx: QContext) -> tuple:
    if not rows:
        return ctx.q * 0, ctx.q**0, ctx.q**0
    k, fact, power = rows[-1]
    return k + power, fact * (k + power), power * ctx.q


def q_int(n: int, ctx: QContext) -> Scalar:
    """[n]_q = 1 + q + ... + q**(n-1), with [0]_q = 0."""
    if n < 0:
        raise ValueError("q-integer needs n >= 0")
    return _q_numbers(n, ctx)[n][0]


def q_factorial(n: int, ctx: QContext) -> Scalar:
    """[n]_q! = [1]_q [2]_q ... [n]_q, empty product for n = 0."""
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    return _q_numbers(n, ctx)[n][1]


def q_binomial(n: int, k: int, ctx: QContext) -> Scalar:
    """Gaussian binomial [n]_q! / ([k]_q! [n-k]_q!)."""
    if k < 0 or k > n:
        return ctx.q * 0
    rows = _q_numbers(n, ctx)
    return rows[n][1] / (rows[k][1] * rows[n - k][1])


def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add(a: Sequence[Scalar], b: Sequence[Scalar]) -> list:
    """The coefficients of Poly(a) + Poly(b), with Poly's bits."""
    n = min(len(a), len(b))
    return _trim([x + y for x, y in zip(a, b)] + [*a[n:], *b[n:]])


def _add_term(w: Sequence[Scalar], a: Sequence[Scalar], c: Scalar, j: int, sign: int = 1) -> list:
    """The coefficients of Poly(w) + Poly(a) * Poly([0] * j + [c]), or of the
    difference for sign -1, a not empty, with the bits of that Poly
    arithmetic.  Poly.__mul__ starts each entry from 0, so a -0 product, and
    the j entries below a[0] c, come out +0; Poly.__sub__ then negates them
    to -0 (y * -1 is -y); and each result is trimmed, as Poly trims."""
    p = _trim([(0 + a[0] * 0 * c) * sign] * j + [(0 + x * c) * sign for x in a])
    return _trim([x + y for x, y in zip(w, p)] + (w[len(p):] or p[len(w):]))


class Poly:
    """Dense univariate polynomial with Fraction or float coefficients.

    Immutable; coefficients are stored ascending with trailing zeros trimmed.
    Arithmetic stays exact whenever all inputs are exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, s: Scalar) -> Scalar:
        out = 0 * s
        for c in reversed(self.coeffs):
            out = out * s + c
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(_add(self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        """self + (-other) coefficient by coefficient, with its bits: an exact
        zero negates to itself, so x - 0 would keep the -0.0 that x + (-0) drops."""
        return Poly(_add(self.coeffs, [-y for y in other.coeffs]))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, float, Fraction)):
                return NotImplemented
            return Poly(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def scale_arg(self, c: Scalar) -> "Poly":
        """p(c * s) as a polynomial in s."""
        out, p = [], c**0
        for a in self.coeffs:
            out.append(a * p)
            p *= c
        return Poly(out)

    def q_derivative(self, ctx: QContext) -> "Poly":
        """The q-derivative, mapping s**j to [j]_q s**(j-1)."""
        rows = _q_numbers(self.degree, ctx)
        return Poly([self.coeffs[j] * rows[j][0] for j in range(1, len(self.coeffs))])

    def jackson_antiderivative(self, ctx: QContext) -> "Poly":
        """Polynomial P with P(t) equal to the Jackson integral of self over [0, t].

        Maps s**j to s**(j+1) / [j+1]_q, the exact closed form of the
        infinite Jackson sum for monomials.
        """
        out = [0 * ctx.q]
        for j, c in enumerate(self.coeffs):
            out.append(c / q_int(j + 1, ctx))
        return Poly(out)

    def abs_coeff_bound(self, u: Scalar) -> Scalar:
        """sum_j |c_j| u**j, a sup bound for |p| on [0, u] (u >= 0)."""
        out, p = 0 * u, u**0
        for c in self.coeffs:
            out += abs(c) * p
            p *= u
        return out

    def variation_bound(self, u: Scalar) -> Scalar:
        """sum_{j>=1} |c_j| u**j, a bound for |p(s) - p(0)| on [0, u]."""
        return self.abs_coeff_bound(u) - (abs(self.coeffs[0]) if self.coeffs else 0 * u)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


@dataclass(frozen=True)
class SampledFunction:
    """Evaluation rule on [0, T] with declared behaviour near 0.

    Jackson sums probe s = q**k t all the way down to 0, so integrands must
    declare either a sup bound near 0 or a Hoelder-type modulus
    |f(s) - f(0)| <= holder_const * s**holder_exp.  Constants are declared by
    the caller, never estimated, except for polynomial rules where both are
    derived exactly from the coefficients.
    """

    func: Callable[[Scalar], Scalar]
    sup_near_zero: Scalar | None = None
    holder_const: Scalar | None = None
    holder_exp: Scalar | None = None
    poly: Poly | None = None

    @classmethod
    def from_poly(cls, p: Union[Poly, Sequence[Scalar]]) -> "SampledFunction":
        p = p if isinstance(p, Poly) else Poly(p)
        return cls(func=p.__call__, poly=p)

    @classmethod
    def from_callable(
        cls,
        func: Callable[[Scalar], Scalar],
        *,
        sup_near_zero: Scalar | None = None,
        holder: tuple[Scalar, Scalar] | None = None,
    ) -> "SampledFunction":
        c, d = holder if holder is not None else (None, None)
        return cls(func=func, sup_near_zero=sup_near_zero, holder_const=c, holder_exp=d)

    def __call__(self, s: Scalar) -> Scalar:
        return self.func(s)

    def sup_on(self, t: Scalar) -> Scalar:
        """Declared (or, for polynomials, derived) bound for |f| on [0, t]."""
        if self.poly is not None:
            return self.poly.abs_coeff_bound(t)
        if self.sup_near_zero is None:
            raise ValueError("integrand has no declared bound near 0")
        return self.sup_near_zero

    def holder_at(self, t: Scalar) -> tuple[Scalar, Scalar]:
        """(C, delta) with |f(s) - f(0)| <= C s**delta on [0, t]."""
        if self.poly is not None:
            if self.poly.degree < 1:
                return (0, 1)
            c = sum(abs(cj) * t ** (j - 1) for j, cj in enumerate(self.poly.coeffs) if j >= 1)
            return (c, 1)
        if self.holder_const is None or self.holder_exp is None:
            raise ValueError("integrator has no declared Hoelder modulus near 0")
        return (self.holder_const, self.holder_exp)


def _as_sampled(f) -> SampledFunction:
    if isinstance(f, SampledFunction):
        return f
    if isinstance(f, Poly):
        return SampledFunction.from_poly(f)
    raise TypeError("expected SampledFunction or Poly")


def q_derivative(f, s: Scalar, ctx: QContext) -> Scalar:
    """(f(s) - f(q s)) / ((1 - q) s); defined for s > 0 only."""
    if s <= 0:
        raise ValueError("q-derivative needs s > 0")
    g = _as_sampled(f)
    q = ctx.q
    return (g(s) - g(q * s)) / ((1 - q) * s)


def _jackson_cutoff(ctx: QContext, sup: float, t: float) -> int:
    """Smallest K with q**K * max(1, sup) * t < TAIL_EPS."""
    target = TAIL_EPS / (max(1.0, float(sup)) * float(t))
    k, p = 0, 1.0
    qf = ctx.qf
    while p >= target:
        p *= qf
        k += 1
        if k > 10_000_000:  # pragma: no cover
            raise RuntimeError("Jackson cutoff did not terminate")
    return k


def jackson_integral(f, t: Scalar, ctx: QContext) -> Scalar:
    """Jackson integral of f over [0, t]:  (1-q) t sum_k q**k f(q**k t).

    Exact mode uses the closed form for polynomial rules; float mode truncates
    at the smallest K with q**K * max(1, sup|f|) * t < TAIL_EPS.
    """
    g = _as_sampled(f)
    if t < 0:
        raise ValueError("Jackson integral needs t >= 0")
    if t == 0:
        return ctx.q * 0
    if ctx.mode == "exact" and g.poly is not None:
        return g.poly.jackson_antiderivative(ctx)(t)
    sup = g.sup_on(t)
    K = _jackson_cutoff(ctx, sup, t)
    q = ctx.q
    total = 0 * q
    p = q**0
    for _ in range(K):
        total += p * g(p * t)
        p *= q
    return (1 - q) * t * total


def _stieltjes_cutoff(ctx: QContext, sup_a: float, c: float, delta: float, t: float) -> int:
    """Smallest K with 2 sup|a| C t**delta q**(K delta) / (1 - q**delta) < TAIL_EPS."""
    qf = ctx.qf
    qd = qf ** float(delta)
    lead = 2.0 * max(1.0, float(sup_a)) * float(c) * float(t) ** float(delta) / (1.0 - qd)
    if lead == 0.0:
        return 1
    k, p = 0, 1.0
    while lead * p >= TAIL_EPS:
        p *= qd
        k += 1
        if k > 10_000_000:  # pragma: no cover
            raise RuntimeError("Jackson-Stieltjes cutoff did not terminate")
    return k


def jackson_stieltjes(a, b, t: Scalar, ctx: QContext) -> Scalar:
    """Jackson-Stieltjes integral of a against b over [0, t]:

        sum_k a(q**k t) (b(q**k t) - b(q**(k+1) t)).

    b must carry a Hoelder declaration near 0 (derived for polynomials);
    in exact mode with polynomial a and b this reduces to the Jackson
    integral of a times the q-derivative of b, which has a closed form.
    """
    fa, fb = _as_sampled(a), _as_sampled(b)
    if t < 0:
        raise ValueError("Jackson-Stieltjes integral needs t >= 0")
    if t == 0:
        return ctx.q * 0
    c, delta = fb.holder_at(t)  # raises if undeclared
    if ctx.mode == "exact" and fa.poly is not None and fb.poly is not None:
        prod = fa.poly * fb.poly.q_derivative(ctx)
        return prod.jackson_antiderivative(ctx)(t)
    sup_a = fa.sup_on(t)
    K = _stieltjes_cutoff(ctx, sup_a, c, delta, t)
    q = ctx.q
    total = 0 * q
    p = q**0
    for _ in range(K):
        s_hi, s_lo = p * t, p * q * t
        total += fa(s_hi) * (fb(s_hi) - fb(s_lo))
        p *= q
    return total
