"""Exact Buchberger engine: normal forms, S-pairs, reduced bases, intersections,
and the Hilbert-series numerators of monomial ideals (hilbert_numerator).

Determinism contract: identical inputs (same generator sequence, same order)
give identical outputs. Completion (`buchberger`) and certification
(`is_groebner_basis`) share one pair core. Completion pops pairs by lcm total
degree with (i, j) index tiebreaks. Certification settles pairs in (j, i)
order: its per-pair statuses are the hashed `pair_counts` evidence of the
verify checks, and another order changes which pairs the chain criterion
skips. The reducer is the earliest match in basis sequence, and reduced bases
come out monic and sorted ascending by leading monomial, so two independently
computed bases of the same ideal can be compared with ==.

Inside the kernel a monomial is one int (packed exponent vectors, Monagan &
Pearce, CASC 2007). Each variable owns a field topped by a guard bit, in
ranking order with the most significant variable on top (the least for
grevlex); graded and weight orders add the (weighted) degree above them,
where an int is unbounded. The key k = deg << span + v (deg << span - v for
grevlex, v for lex) then compares as the order and is linear in the
exponents: a monomial product is k1 + k2, and term dicts and the heap hold
keys. lm divides m exactly when d = v(m) - v(lm), read off the low span bits,
is >= 0 with no guard bit set, and d is then the quotient. Fields start wide
enough for four times the inputs' largest degree. Every product is checked
against the guard bits, a whole tail at once through the fieldwise max of its
exponents; on overflow the call restarts with fields twice as wide, so no
carry crosses a field. A call packs its inputs once, and a completed basis
stays packed through reduction: only the leading monomial of a new basis
element and the call's final outputs are unpacked. A row holds its lc: over
Q rows are integral and primitive, over F_p monic, so reduction is int
arithmetic on both. Where lc does not divide a popped coefficient c, the
dividend left and the remainder are scaled by lc/gcd(c, lc), and reduce
returns (s*r, s). Denominators are cleared once where a polynomial enters,
and outputs come back monic and canonical. normal_forms packs its
basis once for all the polynomials it divides: `reduced`, `restricted`,
`containment`, `descent` and `standard_span_rank` divide on it.

ideal_intersection eliminates t from t*A + (1-t)*B and settles, unpopped, each
pair inside the block of an input known to be a lex basis and each pair of such
a block's row with a t-free row f: S(t*a, f) = t*S(a, f) and S((t-1)*b, f) =
(t-1)*h - (L/M)*f (h in B) have lcm-representations by the block.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field as attribute
from fractions import Fraction
from math import gcd, lcm
from operator import le, lshift, mul

from .polyring import MAX_VARS, QQ, Field, Poly, lex_order

DEFAULT_PAIR_BUDGET = 200_000


class PairBudgetExceeded(RuntimeError):
    """Buchberger hit the configured S-pair budget before stabilizing."""

    def __init__(self, budget: int, basis_size: int):
        super().__init__(f"S-pair budget {budget} exhausted with {basis_size} basis elements")
        self.budget = budget
        self.basis_size = basis_size


class _Overflow(Exception):
    """A packed exponent outgrew its field."""


class _Packed:
    """One call's packing of an order at one field width, and its reducers.

    A reducer row is (lm, v(lm), k(lm), lc, tail, top, variables): lm as a
    tuple, the tail as (key, coefficient) pairs, top the fieldwise max of the
    tail's v packings, and a bitmask of the variables lm involves. Over Q a
    row is integral and primitive, over F_p monic, so both share one
    reduction loop of int arithmetic. least is the smallest v(lm): a divisor
    never packs above its multiple, so nothing divides a term below it.
    """

    def __init__(self, order, bits: int, field: Field):
        n = order.nvars
        top_down = order.ranking if order.kind == "grevlex" else order.ranking[::-1]
        self.shifts = [(n - 1 - top_down.index(v)) * bits for v in range(1, n + 1)]
        self.bits, self.span, self.grev = bits, n * bits, order.kind == "grevlex"
        self.guard = sum(1 << (s + bits - 1) for s in self.shifts)
        self.low = (1 << self.span) - 1
        # the degree in a graded or weight key is linear: read its weights off the variables
        self.weights = None if order.kind == "lex" else [
            order.key(tuple(int(i == v) for i in range(n)))[0] for v in range(n)]
        self.field = field
        self.rows, self.lmv, self.first, self.least = [], [], {}, self.low + 1

    def key(self, m) -> int:
        v = sum(map(lshift, m, self.shifts))
        if self.weights is None:
            return v
        degree = sum(map(mul, self.weights, m)) << self.span
        return degree - v if self.grev else degree + v

    def lcm(self, a: int, b: int) -> int:
        # the fieldwise max of two v packings: a field keeps its guard bit in
        # (a | guard) - b where a's exponent is at least b's
        ge = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & (ge - (ge >> (self.bits - 1))))

    def row(self, terms: dict) -> tuple:
        # terms maps keys to integral coefficients (residues over F_p), made
        # monic over F_p and primitive over Q; only the leading monomial is unpacked
        lmk = max(terms)
        lc, p = terms[lmk], self.field.p
        if p is not None and lc != 1:
            inv = pow(lc, -1, p)
            terms, lc = {k: c * inv % p for k, c in terms.items()}, 1
        elif lc * lc != 1 and (g := gcd(*terms.values())) != 1:
            terms, lc = {k: c // g for k, c in terms.items()}, lc // g
        lmv, mask = (-lmk if self.grev else lmk) & self.low, (1 << (self.bits - 1)) - 1
        lm = tuple([(lmv >> s) & mask for s in self.shifts])
        tail = tuple((k, c) for k, c in terms.items() if k != lmk)
        top = 0
        for k, _ in tail:
            top = self.lcm(top, (-k if self.grev else k) & self.low)
        return lm, lmv, lmk, lc, tail, top, sum(1 << i for i, e in enumerate(lm) if e)

    def integral(self, f: Poly) -> tuple:
        # f's terms by key times the lcm d of their denominators, and d; the
        # sum of the coefficients is an int exactly when every one is
        terms = {self.key(m): c for m, c in f.terms.items()}
        if type(sum(terms.values())) is int:
            return terms, 1
        d = lcm(*[c.denominator for c in terms.values()])
        return {k: c.numerator * (d // c.denominator) for k, c in terms.items()}, d

    def divided(self, terms: dict, d: int) -> dict:
        # integral terms over d as canonical values; d is 1 over F_p
        return terms if d == 1 else self.field.canonical(
            {k: Fraction(c, d) for k, c in terms.items()})

    def pack(self, g: Poly) -> tuple:
        return self.row(self.integral(g)[0])

    def add(self, row: tuple) -> None:
        self.rows.append(row)
        self.lmv.append(row[1])
        self.first.setdefault(row[1], row[2:6])
        self.least = min(self.least, row[1])

    def unpack(self, terms: dict, nvars: int | None = None) -> dict:
        # keys back to exponent tuples of the first nvars variables, in the same order
        mask, sign, shifts = (1 << (self.bits - 1)) - 1, -1 if self.grev else 1, self.shifts[:nvars]
        return {tuple([(sign * k >> s) & mask for s in shifts]): c for k, c in terms.items()}

    def reduce(self, terms: dict) -> tuple:
        """Fully reduce an integral term dict (key -> coefficient) in place;
        return (s*r, s) for its remainder r and an int s != 0.

        Monomials are processed in strictly decreasing key order via a heap of
        negated keys, so tail substitutions never touch monomials already
        settled into the remainder. A key is pushed once: a term that cancels
        keeps a zero entry, skipped when popped. Updates are int arithmetic
        (mod p over F_p). Under lex a key is its packing, so once one pops
        below least, every term left is irreducible and joins the remainder
        unpopped.
        """
        p = self.field.p
        lmv, first, guard, low, grev = self.lmv, self.first, self.guard, self.low, self.grev
        least, lex = self.least, self.weights is None
        heappush, heappop = heapq.heappush, heapq.heappop
        heap = [-k for k in terms]
        heapq.heapify(heap)
        remainder: dict = {}
        scale = 1
        while heap:
            e = heappop(heap)
            m = -e
            c = terms.pop(m)
            if not c:
                continue
            mv = (e if grev else m) & low
            if mv < least:
                remainder[m] = c
                if lex:
                    remainder.update(terms)
                    break
                continue
            # the earliest reducer in basis order whose leading monomial divides m
            for lm in lmv:
                d = mv - lm
                if d >= 0 and not d & guard:
                    break
            else:
                remainder[m] = c
                continue
            lmk, lc, tail, top = first[lm]
            if (top + d) & guard:
                raise _Overflow
            shift = m - lmk
            if lc * lc == 1:
                factor = c * lc
            else:
                if c % lc:
                    # over Q only: scale what is left, and the remainder, so lc divides c
                    s = lc // gcd(c, lc)
                    c, scale = c * s, scale * s
                    for part in terms, remainder:
                        for k in part:
                            part[k] *= s
                factor = c // lc
            for tk, tc in tail:
                key = tk + shift
                prev = terms.get(key)
                if prev is None:
                    prev = 0
                    heappush(heap, -key)
                v = prev - factor * tc
                terms[key] = v if p is None else v % p
        return {k: c for k, c in remainder.items() if c}, scale

    def chain_link(self, i: int, j: int, settled: set) -> int | None:
        # the first k whose lm divides the pair's lcm and whose pairs with i
        # and with j are settled
        lcm, guard = self.lcm(self.lmv[i], self.lmv[j]), self.guard
        for k, lm in enumerate(self.lmv):
            d = lcm - lm
            if (d >= 0 and not d & guard and k != i and k != j
                    and (i << 32 | k if i < k else k << 32 | i) in settled
                    and (j << 32 | k if j < k else k << 32 | j) in settled):
                return k
        return None

    def s_terms(self, ri: tuple, rj: tuple) -> dict:
        # the S-polynomial (lc_j/g)*ri - (lc_i/g)*rj of two rows, g = gcd(lc_i,
        # lc_j): the leading terms cancel, so only the tails, shifted up to
        # the lcm, contribute
        lcm = (self.lcm(ri[1], rj[1]) if self.weights is None
               else self.key(tuple(map(max, ri[0], rj[0]))))
        lcmv = (-lcm if self.grev else lcm) & self.low
        li, lj = ri[3], rj[3]
        if li * li != 1 and lj * lj != 1:
            g = gcd(li, lj)
            li, lj = li // g, lj // g
        terms: dict = {}
        for r, factor in ((ri, lj), (rj, -li)):
            if (r[5] + lcmv - r[1]) & self.guard:
                raise _Overflow
            shift = lcm - r[2]
            for k, c in r[4]:
                k += shift
                terms[k] = terms.get(k, 0) + c * factor
        return self.field.canonical(terms)

    def polys(self, nvars: int, reduce: bool = False) -> list[Poly]:
        # every row as a monic polynomial in the first nvars variables, with
        # its tail first reduced by the rows when reduce is set: a tail over
        # lc 1 or -1 is made monic first, any other lc divides it at the end
        one, out = self.field.one, []
        for lm, _, _, lc, tail, _, _ in self.rows:
            unit = lc * lc == 1
            terms = {k: c * lc for k, c in tail} if unit else dict(tail)
            terms, s = self.reduce(terms) if reduce else (terms, 1)
            out.append(Poly._raw(nvars, self.field, {lm[:nvars]: one, **self.unpack(
                self.divided(terms, s if unit else s * lc), nvars)}))
        return out

    def reduced(self, rows: list, nvars: int) -> list[Poly]:
        # the reduced basis of a Groebner basis given as rows: the minimal set
        # under divisibility of leading monomials, sorted by them, with each
        # tail reduced by it (no leading monomial divides a smaller monomial,
        # so an element never reduces its own tail)
        self.rows, self.lmv, self.first, self.least = [], [], {}, self.low + 1
        for r in sorted(rows, key=lambda r: r[2]):
            if not any((d := r[1] - lm) >= 0 and not d & self.guard for lm in self.lmv):
                self.add(r)
        return self.polys(nvars, reduce=True)


def _widening(polys: list, order, run):
    """run(packing) with fields wide enough for every monomial it makes;
    ValueError unless all polynomials share the order's variables and one field."""
    ring = Poly.zero(order.nvars, polys[0].field if polys else QQ)
    for g in polys:
        ring._check_compatible(g)
    degree = max((sum(m) for g in polys for m in g.terms), default=0)
    bits = (4 * degree).bit_length() + 1
    while True:
        try:
            return run(_Packed(order, bits, ring.field))
        except _Overflow:
            bits *= 2


def _require_nonzero(basis) -> list[Poly]:
    gens = list(basis)
    if not all(g.terms for g in gens):
        raise ValueError("zero polynomial in basis")
    return gens


def normal_forms(polys, basis, order) -> list[Poly]:
    """The remainder of each polynomial on division by the basis, packed
    once for all of them; no remainder term is reducible."""
    gens, polys = _require_nonzero(basis), list(polys)

    def run(pk: _Packed) -> list[Poly]:
        for g in gens:
            pk.add(pk.pack(g))
        out = []
        for f in polys:
            terms, d = pk.integral(f)
            remainder, s = pk.reduce(terms)
            out.append(Poly._raw(f.nvars, f.field, pk.unpack(pk.divided(remainder, s * d))))
        return out

    return _widening(polys + gens, order, run)


def normal_form(f: Poly, basis, order) -> Poly:
    """Remainder of f on division by the basis; no remainder term is reducible."""
    return normal_forms([f], basis, order)[0]


def _settle_pairs(gens: list, order, *, complete: bool, pair_budget: int | None = None,
                  use_chain_criterion: bool = True, known=(), finish=lambda pk: None) -> tuple:
    """Pop every pair of the generators once; return (log, finish(packing)).

    The log lists (i, j, status) in pop order. A status is "coprime",
    "chain:k", "zero_reduction", or, for a nonzero remainder, "added" when
    completing (the remainder joins the packing's rows, and its pairs join
    the heap) or "failed" when certifying. Completion pops by (lcm degree,
    i, j), certification by (j, i). A popped pair is settled for the chain
    criterion unless it failed; settled pairs were popped earlier, so chain
    links strictly descend in pop order. finish then runs in the same
    packing, so an overflow in it restarts the whole call with wider fields.

    known lists (start, stop) index ranges of the input whose elements are
    already a Groebner basis on their own: a pair inside one range has a
    standard representation by that range, so it is settled without being
    pushed, popped or logged, and still links chain-criterion skips. So is
    the pair of a known row with a row that completion adds free of the last
    variable t: only ideal_intersection passes known ranges, and proves why.
    """

    def run(pk: _Packed) -> tuple:
        rows = pk.rows
        for g in gens:
            pk.add(pk.pack(g))
        heap: list = []
        settled: set = set()
        log: list = []

        def push_pairs(j: int, partners) -> None:
            for i in partners:
                rank = sum(map(max, rows[i][0], rows[j][0])) if complete else j
                heapq.heappush(heap, (rank, i, j))

        block_start = list(range(len(gens)))
        for start, stop in known:
            block_start[start:stop] = [start] * (stop - start)
            settled.update(i << 32 | j for j in range(start, stop) for i in range(start, j))
        for j, start in enumerate(block_start):
            push_pairs(j, range(start))
        known_rows = [i for start, stop in known for i in range(start, stop)]
        unknown_rows = sorted(set(range(len(gens))).difference(known_rows))
        while heap:
            _, i, j = heapq.heappop(heap)
            if pair_budget is not None and len(log) >= pair_budget:
                raise PairBudgetExceeded(pair_budget, len(rows))
            if not rows[i][6] & rows[j][6]:
                status = "coprime"
            elif use_chain_criterion and (k := pk.chain_link(i, j, settled)) is not None:
                status = f"chain:{k}"
            elif not (rem := pk.reduce(pk.s_terms(rows[i], rows[j]))[0]):
                status = "zero_reduction"
            elif not complete:
                status = "failed"
            else:
                pk.add(pk.row(rem))
                new = len(rows) - 1
                free = not rows[new][0][-1]
                if free:
                    settled.update(i << 32 | new for i in known_rows)
                push_pairs(new, unknown_rows if free else range(new))
                unknown_rows.append(new)
                status = "added"
            log.append((i, j, status))
            if status != "failed":
                settled.add(i << 32 | j)
        return log, finish(pk)

    return _widening(gens, order, run)


def buchberger(generators, order, *, pair_budget: int = DEFAULT_PAIR_BUDGET,
               use_chain_criterion: bool = True) -> tuple[list[Poly], dict]:
    """Grow the nonzero generators into a Groebner basis; returns (basis, stats).

    Raises PairBudgetExceeded once more than pair_budget pairs are popped.
    The stats count popped pairs (pairs_processed) by how each settled, so
    pairs_processed == skipped_coprime + skipped_chain + zero_reductions +
    basis_added. The basis is monic.
    """
    log, basis = _settle_pairs([g for g in generators if g.terms], order, complete=True,
                               pair_budget=pair_budget, use_chain_criterion=use_chain_criterion,
                               finish=lambda pk: pk.polys(order.nvars))
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

    Input must already be a Groebner basis.
    """
    gens = [g for g in basis if g.terms]
    return _widening(gens, order, lambda pk: pk.reduced(list(map(pk.pack, gens)), order.nvars))


def groebner_basis(generators, order, *, pair_budget: int = DEFAULT_PAIR_BUDGET,
                   use_chain_criterion: bool = True) -> list[Poly]:
    """Reduced monic Groebner basis of the generated ideal ([] for the zero ideal)."""
    _, basis = _settle_pairs([g for g in generators if g.terms], order, complete=True,
                             pair_budget=pair_budget, use_chain_criterion=use_chain_criterion,
                             finish=lambda pk: pk.reduced(pk.rows, order.nvars))
    return basis


def is_groebner_basis(gens, order, *, use_chain_criterion: bool = True) -> tuple[bool, dict]:
    """Whether every S-polynomial of the set reduces to zero by the set itself.

    The certificate lists one entry per unordered pair, in (j, i) order, with
    how it settled: reduced to zero, failed (a nonzero remainder), skipped
    with coprime leading monomials, or skipped via a third element k
    ("chain:k") whose leading monomial divides the pair lcm and whose two
    linking pairs were settled earlier without failure. The chain links
    depend on the list's order, and so does the cost, by orders of magnitude:
    under lex on a 2-core Xeon VM, n=7 lower<=[3,2,2] (260 generators) took
    3.1 s as enumerated and over 290 s reversed. `verify` passes enumeration
    order.
    """
    log, _ = _settle_pairs(_require_nonzero(gens), order, complete=False,
                           use_chain_criterion=use_chain_criterion)
    tally = Counter(status.split(":")[0] for _, _, status in log)
    counts = {"total": len(log)}
    counts.update((s, tally[s]) for s in ("zero_reduction", "coprime", "chain", "failed"))
    ok = not counts["failed"]
    pairs = [{"i": i, "j": j, "status": status} for i, j, status in log]
    return ok, {"groebner": ok, "pairs": pairs, "counts": counts}


def _minimal(monomials) -> tuple:
    """The minimal generators of the monomial ideal, sorted: a divisor has
    at most the degree of what it divides, so one pass by degree finds them."""
    kept: list = []
    for m in sorted(set(monomials), key=sum):
        if not any(all(map(le, k, m)) for k in kept):
            kept.append(m)
    return tuple(sorted(kept))


def _times_one_minus(num: list, d: int) -> list:
    # num * (1 - t^d)
    out = num + [0] * d
    for i, c in enumerate(num):
        out[i + d] -= c
    return out


def hilbert_numerator(monomials) -> tuple[int, ...]:
    """The numerator N of the Hilbert series N(t) / (1 - t)^n of S/I, where
    the monomials (exponent tuples) generate I in S = k[x1, ..., xn]: its
    coefficients by degree, (1,) for the zero ideal and () for the unit
    ideal. N depends on I alone, so two monomial ideals have one Hilbert
    function exactly when they have one numerator.

    Pivot recursion (Bayer & Stillman, JSC 1992; Bigatti, Comm. Algebra
    1997): N(I) = N(I + (p)) + t^e N(I : p) for p = x_i^e, with x_i the
    variable in the most generators that are not pure powers and e its least
    exponent there. Then p is not in I, and both ideals on the right are
    larger than I, so the recursion ends. A generator coprime to every other
    one splits off as a factor 1 - t^deg, so pairwise coprime generators,
    the unit generator 1 among them, are the base case. Numerators are
    memoized on minimal generators within the one call.
    """
    memo: dict = {}

    def numerator(gens: tuple) -> list:
        if gens in memo:
            return memo[gens]
        users = Counter(i for m in gens for i, e in enumerate(m) if e)
        alone: list = []
        rest: list = []
        for m in gens:
            (alone if all(users[i] == 1 for i, e in enumerate(m) if e) else rest).append(m)
        num = [1]
        if rest:
            mixed = [m for m in rest if sum(map(bool, m)) > 1]
            counts = Counter(i for m in mixed for i, e in enumerate(m) if e)
            i = max(sorted(counts), key=counts.__getitem__)
            e = min(m[i] for m in mixed if m[i])
            pivot = tuple(e if j == i else 0 for j in range(len(gens[0])))
            num = list(numerator(_minimal([m for m in rest if m[i] < e] + [pivot])))
            quotient = numerator(_minimal(m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in rest))
            num += [0] * (len(quotient) + e - len(num))
            for k, c in enumerate(quotient):
                num[k + e] += c
        for m in alone:
            num = _times_one_minus(num, sum(m))
        memo[gens] = num
        return num

    num = numerator(_minimal(monomials))
    while num and not num[-1]:
        num = num[:-1]
    return tuple(num)


@dataclass(frozen=True)
class IdealBasis:
    """An ideal presented by generators; the zero ideal is the empty tuple."""

    nvars: int
    field: Field
    generators: tuple[Poly, ...]
    # whether the generators are known to be a Groebner basis under lex
    # x1 < ... < xn; only package code that has built such generators sets it
    _lex_basis: bool = attribute(default=False, init=False, repr=False, compare=False)
    # the pairs the elimination that built them popped, if one did
    _pairs_popped: int = attribute(default=0, init=False, repr=False, compare=False)

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
    without being reduced, and so is the pair of each of its rows with each
    added row f free of t. Such an f lies in A and in B; let L = lcm(lm a,
    lm f) or lcm(lm b, lm f) and M = lm f, so the pair's lcm is t*L. For a
    in A, S(t*a, f) = t*S(a, f) with S(a, f) in A led below L, so t times
    its standard representation by the block has every term below t*L. For
    b monic in B, S((t-1)*b, f) = (t-1)*h - (L/M)*f with h = (L/lm b)*b -
    (L/M)*f in B led below L: the block represents (t-1)*h below t*L, and
    (L/M)*f leads with L. Both pairs have lcm-representations, which is
    all Buchberger's criterion asks (Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, ch. 2, sec. 9, Thm 6), over any field. The
    result keeps the number of pairs the elimination popped.
    """
    if a.nvars != b.nvars or a.field != b.field:
        raise ValueError("ideals live in different rings")
    if a.nvars >= MAX_VARS:
        raise ValueError(f"intersection needs an auxiliary variable, so it takes at most "
                         f"{MAX_VARS - 1} variables, got {a.nvars}")
    if a.is_zero() or b.is_zero():
        return IdealBasis(a.nvars, a.field, ())
    lifted = [_lift(f, True) for f in a.generators] + [_lift(g, False) for g in b.generators]
    split = len(a.generators)
    known = [block for block, ideal in (((0, split), a), ((split, len(lifted)), b))
             if ideal._lex_basis]
    # t is the top field, so a row is t-free exactly when its leading monomial is
    log, free = _settle_pairs(lifted, lex_order(a.nvars + 1), complete=True,
                              pair_budget=pair_budget, known=known, finish=lambda pk: pk.reduced(
                                  [r for r in pk.rows if not r[0][-1]], a.nvars))
    result = IdealBasis(a.nvars, a.field, tuple(free))
    object.__setattr__(result, "_lex_basis", True)
    object.__setattr__(result, "_pairs_popped", len(log))
    return result
