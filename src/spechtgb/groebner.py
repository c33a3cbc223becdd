"""Exact Buchberger engine: normal forms, S-pairs, reduced bases, intersections.

Determinism contract: identical inputs (same generator sequence, same order)
give identical outputs. Completion (`buchberger`) and certification
(`is_groebner_basis`) share one pair core. Completion pops pairs by lcm total
degree with (i, j) index tiebreaks. Certification settles pairs in (j, i)
order: its per-pair statuses are the hashed `pair_counts` evidence of the
verify checks, and another order changes which pairs the chain criterion
skips. The reducer is the earliest match in basis sequence, and reduced bases
come out monic and sorted ascending by leading monomial, so two independently
computed bases of the same ideal can be compared with ==.

A basis element is prepared once as a reducer tuple (lm, inv_lc, tail,
support): its leading monomial, the inverse of its leading coefficient, its
other terms as (monomial, coefficient) pairs, and the support of lm as
(variable index, exponent) pairs for its nonzero exponents. lm divides m
exactly when m[v] >= e for every (v, e) in the support, so divisor searches,
the coprime test and the chain criterion read only the variables that lm
involves instead of scanning whole exponent vectors (the short-vector idea of
Bachmann & Schoenemann, ISSAC 1998). A constant lm has empty support and
divides everything.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field as attribute
from operator import add, neg, sub

from .polyring import (
    MAX_VARS,
    QQ,
    Field,
    Monomial,
    Poly,
    leading_term,
    lex_order,
    mono_degree,
    mono_div,
    mono_lcm,
)

DEFAULT_PAIR_BUDGET = 200_000


class PairBudgetExceeded(RuntimeError):
    """Buchberger hit the configured S-pair budget before stabilizing."""

    def __init__(self, budget: int, basis_size: int):
        super().__init__(f"S-pair budget {budget} exhausted with {basis_size} basis elements")
        self.budget = budget
        self.basis_size = basis_size


def _neg_key(key):
    # order keys are flat tuples of ints; negate for min-heap use
    return tuple(map(neg, key))


def _prepare_reducers(basis, order):
    out = []
    for g in basis:
        lm, lc = leading_term(g, order)
        tail = tuple((m, c) for m, c in g.terms.items() if m != lm)
        support = tuple((v, e) for v, e in enumerate(lm) if e)
        out.append((lm, g.field.inv(lc), tail, support))
    return out


def _divides(support, m: Monomial) -> bool:
    # whether the leading monomial with this support divides m
    for v, e in support:
        if m[v] < e:
            return False
    return True


def _reduce_terms(terms: dict, reducers, field: Field, keyfn) -> dict:
    """Fully reduce a term dict in place, returning the remainder dict.

    Monomials are processed in strictly decreasing key order via a lazy heap
    (stale entries are skipped), so tail substitutions never touch monomials
    already settled into the remainder. Tail updates use raw int/Fraction
    arithmetic (reduced mod p over F_p); the remainder is made canonical once.
    """
    p = field.p
    heap = [(_neg_key(keyfn(m)), m) for m in terms]
    heapq.heapify(heap)
    remainder: dict = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = terms.pop(m, None)
        if c is None:
            continue
        # the earliest reducer in basis order whose leading monomial divides
        # m; _divides is written out here, the hottest loop of the engine
        for r in reducers:
            for var, e in r[3]:
                if m[var] < e:
                    break
            else:
                break
        else:
            remainder[m] = c
            continue
        lm, inv_lc, tail, _ = r
        shift = tuple(map(sub, m, lm))
        factor = field.mul(c, inv_lc)
        for tm, tc in tail:
            key = tuple(map(add, tm, shift))
            prev = terms.get(key)
            if prev is None:
                v = -factor * tc
                terms[key] = v if p is None else v % p
                heapq.heappush(heap, (_neg_key(keyfn(key)), key))
            else:
                v = prev - factor * tc
                if p is not None:
                    v %= p
                if v:
                    terms[key] = v
                else:
                    del terms[key]
    return field.canonical(remainder)


def _require_nonzero(basis) -> list[Poly]:
    gens = list(basis)
    for g in gens:
        if not g.terms:
            raise ValueError("zero polynomial in basis")
    return gens


def normal_form(f: Poly, basis, order) -> Poly:
    """Remainder of f on division by the basis; no remainder term is reducible."""
    gens = _require_nonzero(basis)
    if not gens or not f.terms:
        return f
    reducers = _prepare_reducers(gens, order)
    rem = _reduce_terms(dict(f.terms), reducers, f.field, order.key)
    return Poly._raw(f.nvars, f.field, rem)


def _s_terms(ri, rj, field: Field) -> dict:
    # S-polynomial of two prepared reducers (lm, inv_lc, tail): the leading
    # terms cancel, so only the tails, shifted up to the lcm, contribute
    lcm = mono_lcm(ri[0], rj[0])
    shift = mono_div(lcm, ri[0])
    terms = {tuple(map(add, m, shift)): c * ri[1] for m, c in ri[2]}
    shift = mono_div(lcm, rj[0])
    for m, c in rj[2]:
        key = tuple(map(add, m, shift))
        terms[key] = terms.get(key, 0) - c * rj[1]
    return field.canonical(terms)


def s_polynomial(f: Poly, g: Poly, order) -> Poly:
    """lcm/in(f) * f / lc(f) - lcm/in(g) * g / lc(g): leading terms cancel."""
    f._check_compatible(g)
    ri, rj = _prepare_reducers([f, g], order)
    return Poly._raw(f.nvars, f.field, _s_terms(ri, rj, f.field))


def _chain_link(i: int, j: int, lcm: Monomial, reducers, settled) -> int | None:
    # a third element whose leading monomial divides the lcm and whose two
    # linking pairs are settled; settled pairs were popped earlier, so the
    # justifications strictly descend in pop order and never loop
    for k, r in enumerate(reducers):
        if k == i or k == j or not _divides(r[3], lcm):
            continue
        a = (i, k) if i < k else (k, i)
        b = (j, k) if j < k else (k, j)
        if a in settled and b in settled:
            return k
    return None


def _settle_pairs(basis: list, order, *, complete: bool, pair_budget: int | None = None,
                  use_chain_criterion: bool = True, known=()) -> list:
    """Pop every pair of the basis once and return (i, j, status) in pop order.

    A status is "coprime", "chain:k", "zero_reduction", or, for a nonzero
    remainder, "added" when completing (the monic remainder joins basis and
    reducers, and its pairs join the heap) or "failed" when certifying.
    Completion pops by (lcm degree, i, j), certification by (j, i). A popped
    pair is settled for the chain criterion unless it failed.

    known lists (start, stop) index ranges of the input whose elements are
    already a Groebner basis on their own: a pair inside one range has a
    standard representation by that range, so it is settled without being
    pushed, popped or logged, and still links chain-criterion skips.
    """
    field = basis[0].field if basis else QQ
    reducers = _prepare_reducers(basis, order)
    lms = [r[0] for r in reducers]
    heap: list = []
    settled: set = set()
    log: list = []

    def push_pairs(j: int, stop: int) -> None:
        for i in range(stop):
            rank = mono_degree(mono_lcm(lms[i], lms[j])) if complete else j
            heapq.heappush(heap, (rank, i, j))

    block_start = list(range(len(basis)))
    for start, stop in known:
        block_start[start:stop] = [start] * (stop - start)
        settled.update((i, j) for j in range(start, stop) for i in range(start, j))
    for j, start in enumerate(block_start):
        push_pairs(j, start)
    while heap:
        _, i, j = heapq.heappop(heap)
        if pair_budget is not None and len(log) >= pair_budget:
            raise PairBudgetExceeded(pair_budget, len(basis))
        lmj = lms[j]
        if not any(lmj[v] for v, _ in reducers[i][3]):
            status = "coprime"
        elif use_chain_criterion and (k := _chain_link(
                i, j, mono_lcm(lms[i], lmj), reducers, settled)) is not None:
            status = f"chain:{k}"
        elif not (rem := _reduce_terms(_s_terms(reducers[i], reducers[j], field),
                                       reducers, field, order.key)):
            status = "zero_reduction"
        elif not complete:
            status = "failed"
        else:
            r = Poly._raw(basis[0].nvars, field, rem)
            basis.append(r.term_mul((0,) * r.nvars, field.inv(leading_term(r, order)[1])))
            reducers += _prepare_reducers(basis[-1:], order)
            lms.append(reducers[-1][0])
            push_pairs(len(basis) - 1, len(basis) - 1)
            status = "added"
        log.append((i, j, status))
        if status != "failed":
            settled.add((i, j))
    return log


def buchberger(generators, order, *, pair_budget: int = DEFAULT_PAIR_BUDGET,
               use_chain_criterion: bool = True) -> tuple[list[Poly], dict]:
    """Grow the nonzero generators into a Groebner basis; returns (basis, stats).

    Raises PairBudgetExceeded once more than pair_budget pairs are popped.
    The stats count popped pairs (pairs_processed) by how each settled, so
    pairs_processed == skipped_coprime + skipped_chain + zero_reductions +
    basis_added.
    """
    basis = [g.term_mul((0,) * g.nvars, g.field.inv(leading_term(g, order)[1]))
             for g in generators if g.terms]
    log = _settle_pairs(basis, order, complete=True, pair_budget=pair_budget,
                        use_chain_criterion=use_chain_criterion)
    tally = Counter(status.split(":")[0] for _, _, status in log)
    return basis, {
        "pairs_processed": len(log),
        "skipped_coprime": tally["coprime"],
        "skipped_chain": tally["chain"],
        "zero_reductions": tally["zero_reduction"],
        "basis_added": tally["added"],
    }


def reduce_groebner_basis(basis, order) -> list[Poly]:
    """The unique reduced basis: minimal, monic, fully inter-reduced, sorted.

    Input must already be a Groebner basis; the leading monomials are first
    minimalized under divisibility, then each survivor's tail is reduced by
    the minimal set (no leading monomial divides a smaller monomial, so an
    element never reduces its own tail).
    """
    gens = [g for g in basis if g.terms]
    if not gens:
        return []
    reducers: list = []
    for r in sorted(_prepare_reducers(gens, order), key=lambda r: order.key(r[0])):
        if not any(_divides(kept[3], r[0]) for kept in reducers):
            reducers.append(r)
    nvars, field = gens[0].nvars, gens[0].field
    out = []
    for lm, inv_lc, tail, _ in reducers:
        rem = _reduce_terms({m: c * inv_lc for m, c in tail}, reducers, field, order.key)
        out.append(Poly._raw(nvars, field, {lm: field.one, **rem}))
    return out


def groebner_basis(generators, order, *, pair_budget: int = DEFAULT_PAIR_BUDGET,
                   use_chain_criterion: bool = True) -> list[Poly]:
    """Reduced monic Groebner basis of the generated ideal ([] for the zero ideal)."""
    basis, _ = buchberger(generators, order, pair_budget=pair_budget,
                          use_chain_criterion=use_chain_criterion)
    return reduce_groebner_basis(basis, order)


def is_groebner_basis(gens, order, *, use_chain_criterion: bool = True) -> tuple[bool, dict]:
    """Whether every S-polynomial of the set reduces to zero by the set itself.

    The certificate lists one entry per unordered pair, in (j, i) order, with
    how it settled: reduced to zero, failed (a nonzero remainder), skipped
    with coprime leading monomials, or skipped via a third element k
    ("chain:k") whose leading monomial divides the pair lcm and whose two
    linking pairs were settled earlier without failure.
    """
    log = _settle_pairs(_require_nonzero(gens), order, complete=False,
                        use_chain_criterion=use_chain_criterion)
    tally = Counter(status.split(":")[0] for _, _, status in log)
    counts = {"total": len(log)}
    counts.update((s, tally[s]) for s in ("zero_reduction", "coprime", "chain", "failed"))
    ok = not counts["failed"]
    pairs = [{"i": i, "j": j, "status": status} for i, j, status in log]
    return ok, {"groebner": ok, "pairs": pairs, "counts": counts}


@dataclass(frozen=True)
class IdealBasis:
    """An ideal presented by generators; the zero ideal is the empty tuple."""

    nvars: int
    field: Field
    generators: tuple[Poly, ...]
    # whether the generators are known to be a Groebner basis under lex
    # x1 < ... < xn; only package code that has built such generators sets it
    _lex_basis: bool = attribute(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        kept = []
        for g in self.generators:
            if g.nvars != self.nvars or g.field != self.field:
                raise ValueError("generator lives in a different ring")
            if g.terms:
                kept.append(g)
        object.__setattr__(self, "generators", tuple(kept))

    def is_zero(self) -> bool:
        return not self.generators


def ideal_membership(f: Poly, groebner: list[Poly], order) -> bool:
    """Membership test against an already-computed Groebner basis."""
    return not normal_form(f, groebner, order).terms


def _lift(f: Poly, with_aux: bool) -> Poly:
    # t*f when with_aux, else (1 - t)*f, in one extra trailing variable
    field = f.field
    terms: dict = {}
    for m, c in f.terms.items():
        if with_aux:
            terms[m + (1,)] = c
        else:
            terms[m + (0,)] = c
            terms[m + (1,)] = field.neg(c)
    return Poly._raw(f.nvars + 1, field, terms)


def ideal_intersection(a: IdealBasis, b: IdealBasis, *,
                       pair_budget: int = DEFAULT_PAIR_BUDGET) -> IdealBasis:
    """Intersection via t*A + (1-t)*B and elimination of the auxiliary t.

    The elimination runs under lex x1 < ... < xn < t. Its auxiliary-free
    elements form a Groebner basis of the intersection under lex
    x1 < ... < xn (every element involving t keeps t in its leading
    monomial); the generators of the result are that basis, inter-reduced,
    so they are the reduced lex basis of the intersection, and the result
    is marked so. The auxiliary variable is one more than the ring has, so
    at most MAX_VARS - 1 variables are accepted.

    When an input is marked as a lex basis (an earlier result, or a subspace
    ideal), its block t*A or (1-t)*B is one under the elimination order: an
    S-polynomial inside it is t*S(a_i, a_j) or (1-t)*S(b_i, b_j), which has
    a standard representation. The pairs inside that block are then settled
    without being reduced.
    """
    if a.nvars != b.nvars or a.field != b.field:
        raise ValueError("ideals live in different rings")
    if a.nvars >= MAX_VARS:
        raise ValueError(f"intersection needs an auxiliary variable, so it takes at most "
                         f"{MAX_VARS - 1} variables, got {a.nvars}")
    if a.is_zero() or b.is_zero():
        return IdealBasis(a.nvars, a.field, ())
    basis = [_lift(f, True) for f in a.generators] + [_lift(g, False) for g in b.generators]
    split = len(a.generators)
    known = [block for block, ideal in (((0, split), a), ((split, len(basis)), b))
             if ideal._lex_basis]
    _settle_pairs(basis, lex_order(a.nvars + 1), complete=True,
                  pair_budget=pair_budget, known=known)
    free = [
        Poly._raw(a.nvars, a.field, {m[:-1]: c for m, c in g.terms.items()})
        for g in basis
        if all(m[-1] == 0 for m in g.terms)
    ]
    result = IdealBasis(a.nvars, a.field, tuple(reduce_groebner_basis(free, lex_order(a.nvars))))
    object.__setattr__(result, "_lex_basis", True)
    return result
