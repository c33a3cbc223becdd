"""Specht polynomials, generator sets for dominance filters, and span ranks.

A tableau's polynomial is the product of (x_i - x_j) over all pairs i above j
in the same column; single-row shapes give the constant 1. Generators are
normalized to leading coefficient 1 under the reference lex order
x1 < ... < xn, so the set attached to a filter does not depend on which order
a later computation uses.

The polynomial is a product of distinct linear factors, one per pair in a
column, so by unique factorization (over Q and over every F_p) the
polynomial up to a scalar fixes the columns of length two or more, and they
fix it up to sign. The distinct column-standard generators of a shape
therefore match the set partitions of 1..n of the conjugate type, Bell(n)
of them over all shapes of n, and each is built from its set partition and
expanded once. Every filling of the shape, column-standard or not, gives
one of them up to sign, which is how verify's lexgb ties the set to the
ideal of all Specht polynomials of the shape without expanding the n!
fillings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, itemgetter

from .combinatorics import (
    TABLEAU_MODES,
    Partition,
    PartitionFilter,
    Tableau,
    column_tableau,
    conjugate,
    dominates,
    partitions_of,
    set_partitions_of_type,
    tableaux,
    validate_partition,
)
from .groebner import normal_form
from .polyring import QQ, Field, Monomial, Poly, lex_order


@dataclass(frozen=True)
class SpechtGenerator:
    """One generator: the tableau it came from and its normalized polynomial."""

    shape: Partition
    tableau: Tableau
    polynomial: Poly


@lru_cache(maxsize=None)
def _column_terms(h: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The terms (exponents, coefficient) of prod_{a<b} (y_a - y_b) in h variables.

    By the Vandermonde determinant this is (-1)^C(h,2) sum_sigma sgn(sigma)
    prod_a y_a^sigma(a), over the permutations sigma of 0..h-1: h! terms with
    coefficient +-1 and no cancellation. The permutations of 0..m are built by
    inserting m into those of 0..m-1; at position k it passes the m - k
    smaller entries after it, each an inversion.
    """
    perms: list = [((), 1)]
    for m in range(h):
        perms = [(p[:k] + (m,) + p[k:], -s if (m - k) % 2 else s)
                 for p, s in perms for k in range(m + 1)]
    flip = -1 if h * (h - 1) // 2 % 2 else 1
    return tuple((p, flip * s) for p, s in perms)


@lru_cache(maxsize=None)
def _stacked_terms(n: int, heights: tuple[int, ...],
                   field: Field) -> tuple[tuple[tuple[int, ...], ...], tuple]:
    """The terms of a product of Vandermonde factors on disjoint variables, in
    layout order: n - sum(heights) zeros, then each column's exponents top to
    bottom. Returns the exponent tuples and, in the same order, the +-1
    coefficients as elements of the field."""
    monos: list = [(0,) * (n - sum(heights))]
    signs: list = [1]
    for h in heights:
        table = _column_terms(h)
        monos = [m + e for m in monos for e, _ in table]
        signs = [s * u for s in signs for _, u in table]
    coefficient = {1: field.one, -1: field.neg(field.one)}
    return tuple(monos), tuple(map(coefficient.__getitem__, signs))


def specht_polynomial(t: Tableau, field: Field = QQ) -> Poly:
    """Expanded column-difference product of a tableau: prod (x_i - x_j) over
    the pairs i above j in a column, with no normalization.

    Columns share no variables, so every term is one term of each column's
    Vandermonde expansion (see _column_terms), concatenated: prod h_j! terms,
    each with coefficient +-1. Those terms depend only on n, the column
    heights and the field, so they come from one table per height sequence
    (_stacked_terms); the tableau only says which variable each exponent
    belongs to.
    """
    n = t.n
    columns = [c for c in t.columns() if len(c) > 1]
    if not columns:
        return Poly.constant(1, n, field)
    # a term's exponents are laid out as the singleton entries' zeros, then each
    # column's entries top to bottom; slot[i] is where x_(i+1)'s exponent sits
    stacked = [e for c in columns for e in c]
    layout = sorted(set(range(1, n + 1)).difference(stacked)) + stacked
    slot = [0] * n
    for idx, v in enumerate(layout):
        slot[v - 1] = idx
    monos, coefficients = _stacked_terms(n, tuple(map(len, columns)), field)
    return Poly._raw(n, field, dict(zip(map(itemgetter(*slot), monos), coefficients)))


def shape_generators(shape, *, mode: str = "column_standard",
                     field: Field = QQ) -> tuple[SpechtGenerator, ...]:
    """Distinct generators for one shape, in tableau enumeration order.

    Two tableaux give the same generator exactly when they have the same
    columns of length two or more (see the module docstring). column_standard
    mode builds one tableau per set partition of 1..n of the conjugate type,
    the row-major-first column-standard filling with those columns
    (column_tableau), and expands each once: the tableau that the full
    column-standard enumeration meets first for its polynomial. Standard
    tableaux already have pairwise distinct columns. In both modes every
    column increases downwards, so the lex leading coefficient is
    (-1)^(sum_j C(h_j, 2)) over the column heights h_j, one sign per shape.
    Each (shape, mode, field) is expanded once per process; every call
    returns that tuple.
    """
    if mode not in TABLEAU_MODES:
        raise ValueError(f"mode must be one of {TABLEAU_MODES}, got {mode!r}")
    return _shape_generators_cached(validate_partition(shape), mode, field)


@lru_cache(maxsize=None)
def _shape_generators_cached(lam: Partition, mode: str,
                             field: Field) -> tuple[SpechtGenerator, ...]:
    if mode == "column_standard":
        fillings = sorted(map(column_tableau, set_partitions_of_type(conjugate(lam))),
                          key=attrgetter("rows"))
    else:
        fillings = tableaux(lam, mode)
    # each factor x_upper - x_lower has lex-leading term -x_lower
    odd = sum(h * (h - 1) // 2 for h in conjugate(lam)) % 2
    normalize = Poly.__neg__ if odd else (lambda p: p)
    return tuple(SpechtGenerator(shape=lam, tableau=t,
                                 polynomial=normalize(specht_polynomial(t, field)))
                 for t in fillings)


def filter_generators(filt: PartitionFilter, *, mode: str = "column_standard",
                      field: Field = QQ) -> tuple[SpechtGenerator, ...]:
    """Generator set attached to a nonempty lower filter: the union of the
    per-shape sets, shapes in canonical enumeration order."""
    if filt.kind != "lower":
        raise ValueError("generator sets attach to lower filters")
    if not len(filt):
        raise ValueError("the empty filter has no generator set")
    out: list[SpechtGenerator] = []
    for shape in filt.sorted_members():
        out.extend(shape_generators(shape, mode=mode, field=field))
    return tuple(out)


def restricted_shapes(shape) -> tuple[Partition, ...]:
    """The shapes below the given one in dominance with the same first-row
    length, in canonical enumeration order."""
    lam = validate_partition(shape)
    return tuple(mu for mu in partitions_of(sum(lam)) if mu[0] == lam[0] and dominates(lam, mu))


def restricted_standard_generators(shape, *, field: Field = QQ) -> tuple[SpechtGenerator, ...]:
    """Standard-tableau generators of every restricted shape (see restricted_shapes).

    A much smaller set than the full filter generators that still generates
    the shape's ideal and stays a basis under the reference lex order.
    """
    return tuple(g for mu in restricted_shapes(shape)
                 for g in shape_generators(mu, mode="standard", field=field))


def initial_monomial(t: Tableau) -> Monomial:
    """Closed form for the lex-leading monomial of a column-standard tableau's
    polynomial: entry i in 1-based row d contributes x_i^(d-1)."""
    if not t.is_column_standard():
        raise ValueError("the closed form only covers column-standard tableaux")
    rows = t.row_index()
    return tuple(rows[i] - 1 for i in range(1, t.n + 1))


def standard_span_rank(shape, *, field: Field = QQ) -> tuple[int, int]:
    """(rank of the span of every tableau's polynomial, number of standard tableaux).

    Every filling column-sorts to a column-standard one with the same
    polynomial up to sign (the sign rule is tested against a brute-force
    permutation sign in tests/test_specht.py), so the span is computed from
    the deduplicated column-standard representatives.

    They are homogeneous of one degree, so one of their monomials divides
    another only when the two are equal, and division by the rows kept so
    far is Gaussian elimination: a generator joins them exactly when it
    leaves a nonzero remainder, whose leading monomial no kept row shares.
    """
    lam = validate_partition(shape)
    order = lex_order(sum(lam))
    rows: list[Poly] = []
    for g in shape_generators(lam, mode="column_standard", field=field):
        remainder = normal_form(g.polynomial, rows, order)
        if remainder.terms:
            rows.append(remainder)
    return len(rows), len(tableaux(lam, "standard"))
