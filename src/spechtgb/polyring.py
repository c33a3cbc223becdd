"""Exact sparse multivariate polynomials over the rationals or a prime field.

Monomials are fixed-width exponent tuples. Over Q a coefficient is an int
exactly when it is integral and a Fraction otherwise, so the integer
coefficients of Specht polynomials and monic bases never pay for Fraction
arithmetic; over F_p coefficients are canonical residues 0..p-1. Values are
immutable and every operation is re-entrant; there are no shared mutable
caches.

Owns the monomial orders (lex, graded lex, graded reverse lex, positive weight
with lex tiebreak), the polynomial text the CLI prints, and the order/field
syntax it reads: ``lex:3,1,2`` lists the variable ranking in ascending order,
``weight:w1,...,wn:lex:r1,...,rn`` adds positive rational weights, and fields
are spelled ``Q`` or ``F7``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul

MAX_VARS = 16

Monomial = tuple[int, ...]

# Deterministic Miller-Rabin with the primes up to 41 as bases is exact for
# every p below this bound, the smallest strong pseudoprime to all of them;
# larger characteristics are rejected. (The primes up to 37 alone would pass
# the strong pseudoprime 318665857834031151167461.)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    if p >= _MR_LIMIT:
        raise ValueError(f"field characteristic {p} is too large to certify as prime "
                         f"(limit {_MR_LIMIT})")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _q(c):
    """The canonical Q form of an int or Fraction: an int exactly when integral."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


@dataclass(frozen=True)
class Field:
    """Coefficient field: the rationals when p is None, else the prime field F_p."""

    p: int | None = None

    zero = 0
    one = 1

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"field characteristic must be prime, got {self.p}")

    def coerce(self, value):
        if type(value) is int:
            return value if self.p is None else value % self.p
        if isinstance(value, (float, complex)):
            raise TypeError(f"inexact coefficient {value!r}; use an int or a Fraction")
        if self.p is None:
            return _q(Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ValueError(
                    f"denominator {value.denominator} not invertible modulo {self.p}"
                )
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        return int(value) % self.p

    def add(self, a, b):
        return _q(a + b) if self.p is None else (a + b) % self.p

    def mul(self, a, b):
        return _q(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p is not None:
            return pow(a, -1, self.p)
        return int(a) if a == 1 or a == -1 else _q(1 / Fraction(a))

    def canonical(self, terms: dict) -> dict:
        """Terms whose coefficients are raw int/Fraction sums and products of
        field elements, in canonical form with the zero coefficients dropped."""
        if self.p is None:
            return {m: c if type(c) is int else _q(c) for m, c in terms.items() if c}
        p = self.p
        return {m: r for m, c in terms.items() if (r := c % p)}

    def text(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


QQ = Field(None)


def GF(p: int) -> Field:
    return Field(p)


def parse_field(text: str) -> Field:
    s = text.strip()
    if s == "Q":
        return QQ
    if s.startswith("F") and s[1:].isdigit():
        return Field(int(s[1:]))
    raise ValueError(f"cannot parse field from {text!r} (expected Q or F<p>)")


class MonomialOrder:
    """A total monomial order on a fixed number of variables.

    ranking lists the variables in ascending order: ranking[-1] is the most
    significant variable. key(m) returns a flat tuple of ints that sorts
    monomials, so max(terms, key=order.key) is the leading monomial: the
    exponents from the most significant variable down for lex, behind the
    total degree for grlex, the negated exponents from the least significant
    variable up behind the total degree for grevlex, and the lex part behind
    the weighted degree for weight orders. Rational weights are scaled once by
    the lcm of their denominators, which leaves the order unchanged.
    """

    KINDS = ("lex", "grlex", "grevlex", "weight")

    __slots__ = ("kind", "nvars", "ranking", "weights", "key")

    def __init__(self, kind: str, nvars: int, ranking=None, weights=None):
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {kind!r}")
        if not 1 <= nvars <= MAX_VARS:
            raise ValueError(f"nvars must be in 1..{MAX_VARS}, got {nvars}")
        rank = tuple(int(v) for v in (ranking if ranking is not None else range(1, nvars + 1)))
        if sorted(rank) != list(range(1, nvars + 1)):
            raise ValueError(f"ranking must be a permutation of 1..{nvars}: {rank}")
        if kind == "weight":
            if weights is None:
                raise ValueError("weight order needs weights")
            w = tuple(Fraction(x) for x in weights)
            if len(w) != nvars or any(x <= 0 for x in w):
                raise ValueError(f"weights must be {nvars} positive rationals: {weights}")
        else:
            if weights is not None:
                raise ValueError(f"{kind} order takes no weights")
            w = None
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "ranking", rank)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "key", _order_key(kind, rank, w))

    def __setattr__(self, name, value):
        raise AttributeError("MonomialOrder is immutable")

    def __reduce__(self):
        return MonomialOrder, (self.kind, self.nvars, self.ranking, self.weights)

    def text(self) -> str:
        rank = ",".join(str(v) for v in self.ranking)
        if self.kind == "weight":
            ws = ",".join(str(w) for w in self.weights)
            return f"weight:{ws}:lex:{rank}"
        return f"{self.kind}:{rank}"

    def _signature(self):
        return (self.kind, self.nvars, self.ranking, self.weights)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        return f"MonomialOrder({self.text()!r}, nvars={self.nvars})"


def _order_key(kind: str, ranking: tuple[int, ...], weights):
    """The flat integer key function of an order (see MonomialOrder)."""
    desc = tuple(v - 1 for v in reversed(ranking))
    if desc == tuple(range(len(desc))):
        lex = tuple  # the exponent vector is already its own lex key
    else:
        lex = itemgetter(*desc)
    if kind == "lex":
        return lex
    if kind == "grlex":
        return lambda mono: (sum(mono),) + lex(mono)
    if kind == "grevlex":
        asc = desc[::-1]
        return lambda mono: (sum(mono), *[-mono[i] for i in asc])
    scale = math.lcm(*(w.denominator for w in weights))
    iw = tuple(int(w * scale) for w in weights)
    return lambda mono: (sum(map(mul, iw, mono)),) + lex(mono)


def lex_order(nvars: int, ranking=None) -> MonomialOrder:
    return MonomialOrder("lex", nvars, ranking)


def parse_order(text: str, nvars: int) -> MonomialOrder:
    s = text.strip()
    head, _, rest = s.partition(":")
    fields = rest.split(":")
    if head == "weight" and (len(fields) != 3 or fields[1] != "lex"):
        raise ValueError(
            f"weight order must look like weight:w1,...,wn:lex:r1,...,rn, got {text!r}"
        )
    if head not in MonomialOrder.KINDS or (head != "weight" and len(fields) != 1):
        raise ValueError(f"cannot parse order from {text!r}")
    try:
        weights = [Fraction(w) for w in fields[0].split(",")] if head == "weight" else None
        ranking = [int(v) for v in fields[-1].split(",")] if fields[-1] else None
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse order from {text!r}") from None
    return MonomialOrder(head, nvars, ranking, weights)


class Poly:
    """A sparse polynomial: dict from exponent tuple to nonzero coefficient."""

    __slots__ = ("nvars", "field", "terms")

    def __init__(self, nvars: int, field: Field, terms):
        if nvars < 1:
            raise ValueError(f"nvars must be positive, got {nvars}")
        clean = {}
        for mono, coeff in dict(terms).items():
            m = tuple(int(e) for e in mono)
            if len(m) != nvars or any(e < 0 for e in m):
                raise ValueError(f"bad exponent vector {mono} for {nvars} variables")
            c = field.coerce(coeff)
            if c != field.zero:
                clean[m] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, nvars: int, field: Field, terms: dict) -> "Poly":
        # internal fast path: terms already canonical, zero coefficients removed
        obj = object.__new__(cls)
        object.__setattr__(obj, "nvars", nvars)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "terms", terms)
        return obj

    @classmethod
    def zero(cls, nvars: int, field: Field = QQ) -> "Poly":
        return cls._raw(nvars, field, {})

    @classmethod
    def constant(cls, value, nvars: int, field: Field = QQ) -> "Poly":
        c = field.coerce(value)
        if c == field.zero:
            return cls.zero(nvars, field)
        return cls._raw(nvars, field, {(0,) * nvars: c})

    @classmethod
    def variable(cls, index: int, nvars: int, field: Field = QQ) -> "Poly":
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        mono = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls._raw(nvars, field, {mono: field.one})

    def _check_compatible(self, other: "Poly") -> None:
        if self.nvars != other.nvars or self.field != other.field:
            raise ValueError("polynomials live in different rings")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.field, frozenset(self.terms.items())))

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.nvars, self.field)
        self._check_compatible(other)
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            out[m] = get(m, 0) + c
        return Poly._raw(self.nvars, self.field, self.field.canonical(out))

    def __radd__(self, other) -> "Poly":
        return self.__add__(other)

    def __neg__(self) -> "Poly":
        # field.neg inlined: a canonical coefficient c of F_p lies in 1..p-1
        p = self.field.p
        terms = ({m: -c for m, c in self.terms.items()} if p is None
                 else {m: p - c for m, c in self.terms.items()})
        return Poly._raw(self.nvars, self.field, terms)

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(other, self.nvars, self.field)
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "Poly":
        return (-self).__add__(other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.term_mul((0,) * self.nvars, other)
        self._check_compatible(other)
        out: dict = {}
        get = out.get
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        return Poly._raw(self.nvars, self.field, self.field.canonical(out))

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent")
        result = Poly.constant(1, self.nvars, self.field)
        for _ in range(exponent):
            result = result * self
        return result

    def term_mul(self, mono: Monomial, coeff) -> "Poly":
        """Multiply by coeff * x^mono in one pass."""
        field = self.field
        c = field.coerce(coeff)
        if c == 0:
            return Poly.zero(self.nvars, field)
        return Poly._raw(
            self.nvars,
            field,
            field.canonical({tuple(map(add, m, mono)): v * c for m, v in self.terms.items()}),
        )

    def evaluate(self, point):
        return next(next(evaluations((self,), (point,))))

    def __repr__(self) -> str:
        return f"Poly({polynomial_text(self)!r}, nvars={self.nvars}, field={self.field.text()})"


def evaluations(polys, points):
    """For each point in turn, yield an iterator of the values there of each
    polynomial of one ring in turn.

    A monomial m splits into its low half m[:h] and its high half m[h:], with
    h = nvars // 2. The terms of the polynomials are indexed once per call, by
    their distinct halves. The first value asked for at a point values each
    distinct half there; each value is then a sum of coefficient * low * high."""
    polys = tuple(polys)
    if not polys:
        yield from (iter(()) for _ in points)
        return
    for f in polys[1:]:
        polys[0]._check_compatible(f)
    nvars, field = polys[0].nvars, polys[0].field
    h = nvars // 2
    lows: dict = {}
    highs: dict = {}
    index = [(tuple(f.terms.values()),
              [lows.setdefault(m[:h], len(lows)) for m in f.terms],
              [highs.setdefault(m[h:], len(highs)) for m in f.terms]) for f in polys]
    for point in points:
        values = [field.coerce(v) for v in point]
        if len(values) != nvars:
            raise ValueError(f"point has {len(values)} coordinates, need {nvars}")
        yield _values_at(index, lows, highs, values, h, field)


def _values_at(index, lows, highs, values, h, field):
    """The values at one point of the indexed polynomials (see evaluations)."""
    lo = _half_table(lows, values[:h], field.p).__getitem__
    hi = _half_table(highs, values[h:], field.p).__getitem__
    for coeffs, li, hj in index:
        yield field.coerce(sum(map(mul, coeffs, map(mul, map(lo, li), map(hi, hj)))))


def _half_table(halves, values, p):
    """The value at values of each half monomial, in the order of halves."""
    if p is None:
        return [math.prod(map(pow, values, m)) for m in halves]
    moduli = (p,) * len(values)
    return [math.prod(map(pow, values, m, moduli)) % p for m in halves]


def leading_term(f: Poly, order: MonomialOrder) -> tuple[Monomial, object]:
    """The order-maximal (monomial, coefficient) pair of a nonzero polynomial."""
    if not f.terms:
        raise ValueError("the zero polynomial has no leading term")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def coefficients_in_last_variable(f: Poly) -> list[Poly]:
    """Write a nonzero f as sum g_k * (last variable)^k; returns [g_0, ..., g_d] in n-1 variables."""
    if not f.terms:
        raise ValueError("the zero polynomial has no last-variable expansion")
    if f.nvars < 2:
        raise ValueError("need at least two variables to split off the last one")
    d = max(m[-1] for m in f.terms)
    slices: list[dict] = [{} for _ in range(d + 1)]
    for m, c in f.terms.items():
        slices[m[-1]][m[:-1]] = c
    return [Poly._raw(f.nvars - 1, f.field, s) for s in slices]


def _term_text(mono: Monomial, coeff, field: Field, first: bool) -> str:
    body = "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(mono) if e
    )
    if field.p is None:
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
    else:
        negative = False
        magnitude = coeff
    if body and magnitude == field.one:
        core = body
    elif body:
        core = f"{magnitude}*{body}"
    else:
        core = str(magnitude)
    if first:
        return ("-" if negative else "") + core
    return ("- " if negative else "+ ") + core


def polynomial_text(f: Poly, order: MonomialOrder | None = None) -> str:
    """Render with terms in decreasing order."""
    if not f.terms:
        return "0"
    if order is None:
        order = lex_order(f.nvars)
    monos = sorted(f.terms, key=order.key, reverse=True)
    pieces = [_term_text(m, f.terms[m], f.field, i == 0) for i, m in enumerate(monos)]
    return " ".join(pieces)
