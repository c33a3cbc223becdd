"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: brute-force expansion over dicts,
closed-form counting formulas, definition-chasing predicates. No reference
runs the package's algorithms (except the checker, as named below), so a
bug there cannot hide in its own mirror image. What this module takes from
the package, so that both sides raise and return the same types:

- spechtgb.polyring: the Poly type and its arithmetic, Field, QQ, Monomial,
  MonomialOrder, leading_term and lex_order;
- spechtgb.groebner: DEFAULT_PAIR_BUDGET, PairBudgetExceeded, the
  IdealBasis container, and is_groebner_basis for ref_order_failure,
  ref_finite_field and ref_restricted only;
- spechtgb.combinatorics: partitions_of, set_partitions_of_type and
  validate_set_partition, which list the set partitions the strata
  references intersect (partitions_of also orders the lower-filter
  reference's subsets), and the Tableau type of the fillings that
  ref_fillings lists;
- spechtgb.specht: specht_polynomial, the expansion the generator-set
  reference deduplicates (ref_specht_polynomial referees it);
- spechtgb.strata: sample_stratum, the points the vanishing-check
  reference evaluates at, with partition_text from spechtgb.combinatorics
  for its reasons and ref_containment's.

The middle sections are the package's earlier Groebner kernel, kept
verbatim as differential references: the division that scans whole exponent
vectors for a divisor, the pair core before its coprime and chain tests
read leading-monomial supports, and the two-loop pair engine that the
shared pair core replaced. Then the Specht expansion that folded one factor
x_i - x_j at a time into a term dict, before each column was expanded as a
Vandermonde determinant, and the generator sets that expanded every
filling, normalized it and kept the first of each polynomial, before one
tableau was built per set partition; its fillings are the n! permutations
of 1..n cut into rows, which the package no longer enumerates. Then the
universal-order sweep that certified every order by Buchberger before
universal proved every order at once; it referees that proof, not the
kernel, so it runs the package's checker. So does the finite_field route
that certified and reduced over each prime before the rational certificate
covered every prime at once, and so does the restricted route that
divided its principal filter's generators by its certified set, beside
the containment route that divided every standard generator of each
dominated shape, before both compared reduced lex bases per shape. Then
dense row reduction, which computed span ranks before generators were
divided by one another; the
dominance-closure test that compared every member with every partition, and
the lower-filter enumeration that scanned every subset of the partitions;
and the per-check size rules that listed what each verify check expands.
Then the strata oracle that scanned every pair of set partitions, folded
each filter from scratch and interreduced each whole elimination basis,
starting from subspace ideals given by consecutive differences; its
eliminations run the frozen Buchberger and reduction. Last, the vanishing
check's loop before its generators shared one table of monomial values per
point.

The first section is not a reference but a fixture builder: the parser that
turns polynomial text into a Poly, so that tests can write their inputs the
way polynomial_text prints them. The monomial helpers after it also count
the standard monomials of a monomial ideal degree by degree, the Hilbert
function that hilbert_numerator's series must expand to.
"""

import heapq
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import factorial
from operator import add, neg, sub

from spechtgb.groebner import DEFAULT_PAIR_BUDGET, PairBudgetExceeded, is_groebner_basis
from spechtgb.polyring import (
    QQ,
    Field,
    Monomial,
    MonomialOrder,
    Poly,
    leading_term,
    lex_order,
)


# ---------------------------------------------------------------------------
# polynomial text: integers, rationals a/b, x1..xn, + - * ^ and parentheses

_TEXT = re.compile(r"(?:\s*(?:\d+|x\d+|[-+*^()/]))*\s*")
_TOKEN = re.compile(r"\d+|x\d+|[-+*^()/]")


def parse_polynomial(text: str, nvars: int, field: Field = QQ) -> Poly:
    """The Poly that text spells, in nvars variables over field; polynomial_text
    prints this form. Raises ValueError on any other text."""
    if not _TEXT.fullmatch(text):
        raise ValueError(f"cannot tokenize {text!r}")
    tokens = _TOKEN.findall(text) + [""]
    pos = 0

    def take(expected=None):
        nonlocal pos
        tok = tokens[pos]
        if not tok or (expected is not None and not expected(tok)):
            raise ValueError(f"unexpected {tok or 'end'!r} in {text!r}")
        pos += 1
        return tok

    def expr():
        value, op = Poly.zero(nvars, field), "+"
        if tokens[pos] in ("+", "-"):
            op = take()
        while True:
            value = value + term() if op == "+" else value - term()
            if tokens[pos] not in ("+", "-"):
                return value
            op = take()

    def term():
        value = factor()
        while tokens[pos] == "*":
            take()
            value = value * factor()
        return value

    def factor():
        value = base()
        if tokens[pos] == "^":
            take()
            value = value ** int(take(str.isdigit))
        return value

    def base():
        tok = take()
        if tok.isdigit():
            if tokens[pos] != "/":
                return Poly.constant(int(tok), nvars, field)
            take()
            denominator = int(take(str.isdigit))
            if not denominator:
                raise ValueError(f"zero denominator in {text!r}")
            return Poly.constant(Fraction(int(tok), denominator), nvars, field)
        if tok[0] == "x":
            return Poly.variable(int(tok[1:]), nvars, field)
        if tok == "(":
            value = expr()
            take(lambda t: t == ")")
            return value
        if tok == "-":
            return -factor()
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    value = expr()
    if tokens[pos]:
        raise ValueError(f"unexpected trailing {tokens[pos]!r} in {text!r}")
    return value


# ---------------------------------------------------------------------------
# monomials as exponent tuples


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def mono_degree(a: Monomial) -> int:
    return sum(a)


def ref_standard_counts(gens, n: int, top: int) -> list[int]:
    """The Hilbert function of S/I up to degree top, for I generated by the
    monomials gens in n variables: per degree, the monomials no generator
    divides, counted one by one."""
    counts = []
    for d in range(top + 1):
        counts.append(0)
        for picks in combinations_with_replacement(range(n), d):
            m = tuple(picks.count(i) for i in range(n))
            counts[-1] += not any(mono_divides(g, m) for g in gens)
    return counts


# ---------------------------------------------------------------------------
# naive sparse polynomials: dict from exponent tuple to Fraction


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b, dropping cancelled terms."""
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def term_product(a: dict, mono, coeff) -> dict:
    """a times coeff * x^mono."""
    if not coeff:
        return {}
    return {tuple(x + y for x, y in zip(m, mono)): c * coeff for m, c in a.items()}


def as_fractions(terms: dict) -> dict:
    """The same terms with every coefficient a Fraction."""
    return {m: Fraction(c) for m, c in terms.items()}


def difference_product(pairs, n: int) -> dict:
    """Expand prod (x_a - x_b) over the listed 1-based index pairs."""
    poly = {(0,) * n: Fraction(1)}
    for a, b in pairs:
        factor = {}
        ma = [0] * n
        ma[a - 1] = 1
        factor[tuple(ma)] = Fraction(1)
        mb = [0] * n
        mb[b - 1] = 1
        factor[tuple(mb)] = Fraction(-1)
        poly = poly_mul(poly, factor)
    return poly


def column_pairs(rows):
    """The (upper, lower) entry pairs contributing one difference factor each."""
    rows = [list(r) for r in rows]
    width = len(rows[0])
    out = []
    for c in range(width):
        col = [row[c] for row in rows if len(row) > c]
        for i in range(len(col)):
            for j in range(i + 1, len(col)):
                out.append((col[i], col[j]))
    return out


def eval_poly(poly: dict, point) -> Fraction:
    """The value at a point of int or Fraction coordinates, term by term. The
    arithmetic is exact and stays in ints while everything is integral."""
    total = 0
    for mono, coeff in poly.items():
        v = coeff
        for e, x in zip(mono, point):
            if e:
                v *= x ** e
        total += v
    return Fraction(total)


# ---------------------------------------------------------------------------
# counting formulas


def hook_length_count(shape) -> int:
    """Number of standard fillings, via the product of hook lengths."""
    shape = list(shape)
    n = sum(shape)
    conj = [sum(1 for p in shape if p > c) for c in range(shape[0])]
    prod = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            prod *= (row_len - c) + (conj[c] - (r + 1))
    assert factorial(n) % prod == 0
    return factorial(n) // prod


def column_group_order(shape) -> int:
    """Order of the group permuting each column within itself."""
    conj = [sum(1 for p in shape if p > c) for c in range(shape[0])]
    out = 1
    for h in conj:
        out *= factorial(h)
    return out


def set_partition_count(mu) -> int:
    """Partitions of {1..n} whose sorted block sizes equal mu."""
    mu = sorted(mu, reverse=True)
    n = sum(mu)
    count = factorial(n)
    for part in mu:
        count //= factorial(part)
    mult: dict = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for m in mult.values():
        count //= factorial(m)
    return count


def bell_number(n: int) -> int:
    """Total partitions of an n-element set, by the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# ---------------------------------------------------------------------------
# order predicates


def dominates_by_partial_sums(a, b) -> bool:
    """Prefix sums of a weakly exceed those of b (same total assumed)."""
    a = list(a)
    b = list(b)
    width = max(len(a), len(b))
    a += [0] * (width - len(a))
    b += [0] * (width - len(b))
    sa = sb = 0
    for i in range(width):
        sa += a[i]
        sb += b[i]
        if sa < sb:
            return False
    return True


def brute_partitions(n: int):
    """All partitions of n, as sorted tuples, by filtering compositions."""
    out = set()

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.add(tuple(prefix))
            return
        for p in range(min(remaining, max_part), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return out


def brute_permutation_sign(images) -> int:
    """Sign of the permutation sending i+1 to images[i], by counting inversions."""
    inv = 0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] > images[j]:
                inv += 1
    return -1 if inv % 2 else 1


def relabeled_rows(rows, images) -> list:
    """The rows with every entry e replaced by images[e - 1]."""
    return [[images[e - 1] for e in row] for row in rows]


def is_standard_filling(rows) -> bool:
    """Rows increase left to right and columns top to bottom."""
    rows = [list(r) for r in rows]
    return all(a < b for row in rows for a, b in zip(row, row[1:])) and all(
        upper[c] < lower[c] for upper, lower in zip(rows, rows[1:]) for c in range(len(lower)))


# ---------------------------------------------------------------------------
# division before support-indexed divisor search: every reducer test scans
# the whole exponent vector, and a reducer is (lm, inv_lc, tail)


def _neg_key(key):
    # order keys are flat tuples of ints; negate for min-heap use
    return tuple(map(neg, key))


def ref_prepare_reducers(basis, order):
    out = []
    for g in basis:
        lm, lc = leading_term(g, order)
        tail = tuple((m, c) for m, c in g.terms.items() if m != lm)
        out.append((lm, g.field.inv(lc), tail))
    return out


def ref_reduce_terms(terms: dict, reducers, field: Field, keyfn, quotients=None) -> dict:
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
        for idx, (lm, inv_lc, tail) in enumerate(reducers):
            divisible = True
            for a, b in zip(m, lm):
                if a < b:
                    divisible = False
                    break
            if not divisible:
                continue
            shift = tuple(map(sub, m, lm))
            factor = field.mul(c, inv_lc)
            if quotients is not None:
                q = quotients[idx]
                q[shift] = field.add(q.get(shift, 0), factor)
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
            break
        else:
            remainder[m] = c
    return field.canonical(remainder)


def _require_nonzero(basis) -> list[Poly]:
    gens = list(basis)
    for g in gens:
        if not g.terms:
            raise ValueError("zero polynomial in basis")
    return gens


def ref_normal_form(f: Poly, basis, order) -> Poly:
    """Remainder of f on division by the basis; no remainder term is reducible."""
    gens = _require_nonzero(basis)
    if not gens or not f.terms:
        return f
    reducers = ref_prepare_reducers(gens, order)
    rem = ref_reduce_terms(dict(f.terms), reducers, f.field, order.key)
    return Poly._raw(f.nvars, f.field, rem)


def ref_division(f: Poly, basis, order) -> tuple[list[Poly], Poly]:
    """Quotients and remainder with f == sum(q_i * basis_i) + remainder."""
    gens = _require_nonzero(basis)
    quotients = [dict() for _ in gens]
    if not gens or not f.terms:
        return [Poly.zero(f.nvars, f.field) for _ in gens], f
    reducers = ref_prepare_reducers(gens, order)
    rem = ref_reduce_terms(dict(f.terms), reducers, f.field, order.key, quotients)
    qs = [Poly._raw(f.nvars, f.field, q) for q in quotients]
    return qs, Poly._raw(f.nvars, f.field, rem)


# ---------------------------------------------------------------------------
# the shared pair core before support indexing: full-vector coprime and
# chain tests, on the reducers above


def ref_s_terms(ri, rj, field: Field) -> dict:
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


def ref_chain_link(i: int, j: int, lcm: Monomial, lms, settled) -> int | None:
    # a third element whose leading monomial divides the lcm and whose two
    # linking pairs are settled; settled pairs were popped earlier, so the
    # justifications strictly descend in pop order and never loop
    for k in range(len(lms)):
        if k == i or k == j or not mono_divides(lms[k], lcm):
            continue
        a = (i, k) if i < k else (k, i)
        b = (j, k) if j < k else (k, j)
        if a in settled and b in settled:
            return k
    return None


def ref_settle_pairs(basis: list, order, *, complete: bool, pair_budget: int | None = None,
                      use_chain_criterion: bool = True) -> list:
    """Pop every pair of the basis once and return (i, j, status) in pop order.

    A status is "coprime", "chain:k", "zero_reduction", or, for a nonzero
    remainder, "added" when completing (the monic remainder joins basis and
    reducers, and its pairs join the heap) or "failed" when certifying.
    Completion pops by (lcm degree, i, j), certification by (j, i). A popped
    pair is settled for the chain criterion unless it failed.
    """
    field = basis[0].field if basis else QQ
    reducers = ref_prepare_reducers(basis, order)
    lms = [r[0] for r in reducers]
    heap: list = []
    settled: set = set()
    log: list = []

    def push_pairs(j: int) -> None:
        for i in range(j):
            rank = mono_degree(mono_lcm(lms[i], lms[j])) if complete else j
            heapq.heappush(heap, (rank, i, j))

    for j in range(len(basis)):
        push_pairs(j)
    while heap:
        _, i, j = heapq.heappop(heap)
        if pair_budget is not None and len(log) >= pair_budget:
            raise PairBudgetExceeded(pair_budget, len(basis))
        lmi, lmj = lms[i], lms[j]
        lcm = mono_lcm(lmi, lmj)
        if all(a + b == c for a, b, c in zip(lmi, lmj, lcm)):
            status = "coprime"
        elif use_chain_criterion and (k := ref_chain_link(i, j, lcm, lms, settled)) is not None:
            status = f"chain:{k}"
        elif not (rem := ref_reduce_terms(ref_s_terms(reducers[i], reducers[j], field),
                                           reducers, field, order.key)):
            status = "zero_reduction"
        elif not complete:
            status = "failed"
        else:
            r = Poly._raw(basis[0].nvars, field, rem)
            basis.append(r.term_mul((0,) * r.nvars, field.inv(leading_term(r, order)[1])))
            reducers += ref_prepare_reducers(basis[-1:], order)
            lms.append(reducers[-1][0])
            push_pairs(len(basis) - 1)
            status = "added"
        log.append((i, j, status))
        if status != "failed":
            settled.add((i, j))
    return log


# ---------------------------------------------------------------------------
# the pair engine before the shared core: two pair loops, two chain criteria
# (completion asks "not pending", certification "settled without failure")


def ref_s_polynomial(f: Poly, g: Poly, order) -> Poly:
    """lcm/in(f) * f / lc(f) - lcm/in(g) * g / lc(g): leading terms cancel."""
    lmf, lcf = leading_term(f, order)
    lmg, lcg = leading_term(g, order)
    lcm = mono_lcm(lmf, lmg)
    field = f.field
    a = f.term_mul(mono_div(lcm, lmf), field.inv(lcf))
    b = g.term_mul(mono_div(lcm, lmg), field.inv(lcg))
    return a - b


def _chain_applies(i: int, j: int, lcm: Monomial, lms, pending) -> bool:
    # sound at pop time: a linking pair absent from pending was popped earlier,
    # so the justification chain strictly descends in pop order
    for k in range(len(lms)):
        if k == i or k == j:
            continue
        if not mono_divides(lms[k], lcm):
            continue
        a = (i, k) if i < k else (k, i)
        b = (j, k) if j < k else (k, j)
        if a not in pending and b not in pending:
            return True
    return False


def ref_buchberger(generators, order, *, pair_budget: int = DEFAULT_PAIR_BUDGET,
                   use_chain_criterion: bool = True) -> tuple[list[Poly], dict]:
    """Grow the nonzero generators into a Groebner basis; returns (basis, stats).

    Raises PairBudgetExceeded once more than pair_budget pairs are popped.
    """
    stats = {
        "pairs_processed": 0,
        "skipped_coprime": 0,
        "skipped_chain": 0,
        "zero_reductions": 0,
        "basis_added": 0,
    }
    basis: list[Poly] = []
    for g in generators:
        if g.terms:
            _, lc = leading_term(g, order)
            basis.append(g.term_mul((0,) * g.nvars, g.field.inv(lc)))
    if not basis:
        return [], stats
    field = basis[0].field
    reducers = ref_prepare_reducers(basis, order)
    lms = [r[0] for r in reducers]
    heap: list = []
    pending: set = set()

    def push_pairs(j: int) -> None:
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            heapq.heappush(heap, (mono_degree(lcm), i, j))
            pending.add((i, j))

    for j in range(len(basis)):
        push_pairs(j)

    while heap:
        _, i, j = heapq.heappop(heap)
        pending.discard((i, j))
        stats["pairs_processed"] += 1
        if stats["pairs_processed"] > pair_budget:
            raise PairBudgetExceeded(pair_budget, len(basis))
        lmi, lmj = lms[i], lms[j]
        lcm = mono_lcm(lmi, lmj)
        if all(a + b == c for a, b, c in zip(lmi, lmj, lcm)):
            stats["skipped_coprime"] += 1
            continue
        if use_chain_criterion and _chain_applies(i, j, lcm, lms, pending):
            stats["skipped_chain"] += 1
            continue
        s = ref_s_polynomial(basis[i], basis[j], order)
        rem = ref_reduce_terms(dict(s.terms), reducers, field, order.key)
        if not rem:
            stats["zero_reductions"] += 1
            continue
        r = Poly._raw(s.nvars, field, rem)
        lm, lc = leading_term(r, order)
        r = r.term_mul((0,) * r.nvars, field.inv(lc))
        basis.append(r)
        lms.append(lm)
        reducers.append((lm, field.one, tuple((m, c) for m, c in r.terms.items() if m != lm)))
        stats["basis_added"] += 1
        push_pairs(len(basis) - 1)
    return basis, stats


def ref_reduce_groebner_basis(basis, order) -> list[Poly]:
    """The unique reduced basis: minimal, monic, fully inter-reduced, sorted.

    Input must already be a Groebner basis; the leading monomials are first
    minimalized under divisibility, then each survivor is normal-formed
    against the others.
    """
    gens = [g for g in basis if g.terms]
    if not gens:
        return []
    field = gens[0].field
    ordered = sorted(gens, key=lambda g: order.key(leading_term(g, order)[0]))
    minimal: list[Poly] = []
    kept_lms: list[Monomial] = []
    for g in ordered:
        lm = leading_term(g, order)[0]
        if any(mono_divides(p, lm) for p in kept_lms):
            continue
        minimal.append(g)
        kept_lms.append(lm)
    out = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        r = ref_normal_form(g, others, order) if others else g
        _, lc = leading_term(r, order)
        out.append(r.term_mul((0,) * r.nvars, field.inv(lc)))
    out.sort(key=lambda g: order.key(leading_term(g, order)[0]))
    return out


def _checker_chain(i: int, j: int, lcm: Monomial, lms, statuses) -> int | None:
    for k in range(len(lms)):
        if k == i or k == j or not mono_divides(lms[k], lcm):
            continue
        a = (i, k) if i < k else (k, i)
        b = (j, k) if j < k else (k, j)
        sa = statuses.get(a)
        sb = statuses.get(b)
        if sa is not None and sb is not None and sa != "failed" and sb != "failed":
            return k
    return None


def ref_is_groebner_basis(gens, order, *, use_chain_criterion: bool = True) -> tuple[bool, dict]:
    """Whether every S-polynomial of the set reduces to zero by the set itself.

    The certificate lists one entry per unordered pair with how it settled:
    reduced to zero, skipped with coprime leading monomials, or skipped via a
    third element whose leading monomial divides the pair lcm and whose two
    linking pairs settled earlier without failure (justifications only point
    backwards in checking order, so they never loop).
    """
    basis = _require_nonzero(gens)
    reducers = ref_prepare_reducers(basis, order)
    lms = [r[0] for r in reducers]
    field = basis[0].field if basis else QQ
    statuses: dict = {}
    pairs = []
    counts = {"total": 0, "zero_reduction": 0, "coprime": 0, "chain": 0, "failed": 0}
    ok = True
    for j in range(len(basis)):
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            if all(a + b == c for a, b, c in zip(lms[i], lms[j], lcm)):
                status = "coprime"
            else:
                k = _checker_chain(i, j, lcm, lms, statuses) if use_chain_criterion else None
                if k is not None:
                    status = f"chain:{k}"
                else:
                    s = ref_s_polynomial(basis[i], basis[j], order)
                    rem = ref_reduce_terms(dict(s.terms), reducers, field, order.key)
                    status = "zero_reduction" if not rem else "failed"
                    if rem:
                        ok = False
            statuses[(i, j)] = status
            pairs.append({"i": i, "j": j, "status": status})
            counts["total"] += 1
            counts[status.split(":")[0]] += 1
    return ok, {"groebner": ok, "pairs": pairs, "counts": counts}


# ---------------------------------------------------------------------------
# the Specht expansion before the Vandermonde terms: a fold over the factors


def ref_specht_polynomial(t, field: Field = QQ) -> Poly:
    """Expanded column-difference product of a tableau."""
    n = t.n
    terms: dict = {(0,) * n: 1}
    for column in t.columns():
        for a in range(len(column)):
            for b in range(a + 1, len(column)):
                # fold the factor x_i - x_j into the integer term dict
                i, j = column[a] - 1, column[b] - 1
                out: dict = {}
                get = out.get
                for m, c in terms.items():
                    if not c:
                        continue
                    mi = m[:i] + (m[i] + 1,) + m[i + 1:]
                    out[mi] = get(mi, 0) + c
                    mj = m[:j] + (m[j] + 1,) + m[j + 1:]
                    out[mj] = get(mj, 0) - c
                terms = out
    return Poly._raw(n, field, field.canonical(terms))


@lru_cache(maxsize=None)
def ref_fillings(lam) -> tuple:
    """The rows of every filling of the shape by 1..n, in row-major
    lexicographic order: each permutation of 1..n cut into rows."""
    cuts = [sum(lam[:k]) for k in range(len(lam) + 1)]
    return tuple(tuple(perm[a:b] for a, b in zip(cuts, cuts[1:]))
                 for perm in permutations(range(1, sum(lam) + 1)))


def is_column_standard_filling(rows) -> bool:
    """Columns increase top to bottom."""
    return all(upper[c] < lower[c] for upper, lower in zip(rows, rows[1:])
               for c in range(len(lower)))


_KEPT_FILLINGS = {"all": lambda rows: True, "column_standard": is_column_standard_filling,
                  "standard": is_standard_filling}


def ref_normalized(p: Poly, order) -> Poly:
    """p scaled to leading coefficient 1 under order: p itself when it has
    one, -p when it has -1."""
    _, lc = leading_term(p, order)
    if lc == p.field.one:
        return p
    if lc == p.field.neg(p.field.one):
        return -p
    return p.term_mul((0,) * p.nvars, p.field.inv(lc))


def ref_shape_generators(lam, mode: str, field: Field = QQ) -> tuple:
    """(tableau, polynomial) for each distinct generator of a shape: every
    filling the mode keeps ("all", "column_standard" or "standard") expanded
    and normalized to leading coefficient 1 under lex, the first tableau of
    each polynomial kept, in row-major order of the fillings."""
    from spechtgb.combinatorics import Tableau
    from spechtgb.specht import specht_polynomial

    order = lex_order(sum(lam))
    kept: dict = {}
    for rows in filter(_KEPT_FILLINGS[mode], ref_fillings(tuple(lam))):
        t = Tableau(rows)
        kept.setdefault(ref_normalized(specht_polynomial(t, field), order), t)
    return tuple((t, p) for p, t in kept.items())


# ---------------------------------------------------------------------------
# the universal-order sweep before the all-orders proof: one certification
# per order. It certifies with the package's checker, since what it referees
# is the proof, not the kernel (the checker above referees that)


def ref_induced_lex(order: MonomialOrder) -> MonomialOrder:
    """The lex order that ranks the single variables as order does."""
    n = order.nvars
    units = {v: tuple(int(i == v - 1) for i in range(n)) for v in range(1, n + 1)}
    return MonomialOrder("lex", n, sorted(units, key=lambda v: order.key(units[v])))


def ref_order_failure(polys: list[Poly], orders, where: str) -> str | None:
    """Why polys is not a basis with induced-lex leading terms under every
    order, or None when it is one under each."""
    for order in orders:
        ok, _ = is_groebner_basis(polys, order)
        if not ok:
            return f"not a basis{where} under {order.text()}"
        induced = ref_induced_lex(order)
        # a lex order induces itself, so only the other kinds compare
        if induced != order and any(leading_term(p, order) != leading_term(p, induced)
                                    for p in polys):
            return f"leading term disagrees with the induced lex order{where} under {order.text()}"
    return None


# ---------------------------------------------------------------------------
# the finite_field route before the every-prime proof: one prime at a time, a
# lex certificate over F_p and over Q, then the reduced F_p basis against the
# image of the rational one. It certifies with the package's checker, as the
# sweep above does, and reduces with the frozen reduction


def ref_finite_field(polys_p: list[Poly], polys_q: list[Poly]) -> tuple[str, str | None]:
    """(verdict, reason) for generators over F_p and their rational set."""
    order = lex_order(polys_q[0].nvars)
    field = polys_p[0].field
    if not is_groebner_basis(polys_p, order)[0]:
        return "fail", f"not a lex basis over F_{field.p}"
    if not is_groebner_basis(polys_q, order)[0]:
        return "fail", "the rational generators are not a lex basis"
    try:
        image = [Poly(g.nvars, field, g.terms) for g in ref_reduce_groebner_basis(polys_q, order)]
    except ValueError:
        return "fail", f"a rational coefficient has no image mod {field.p}"
    if image != ref_reduce_groebner_basis(polys_p, order):
        return "fail", "the reduced basis mod p is not the image of the rational one"
    return "pass", None


# ---------------------------------------------------------------------------
# the restricted and containment routes before both compared reduced lex
# bases per shape: restricted divided every generator of the principal
# filter by its certified set, and containment divided every standard
# generator of each dominated shape by the completion of the dominating one.
# restricted certifies with the package's checker; division and completion
# are the frozen ones above


def ref_restricted(restricted: list[Poly], full: list[Poly]) -> tuple[str, str | None]:
    """(verdict, reason) of a restricted set against the full generator set of
    its shape's principal filter: a lex basis that lies among the full set
    and holds each of its members."""
    order = lex_order(restricted[0].nvars)
    if not is_groebner_basis(restricted, order)[0]:
        return "fail", "the restricted set is not a basis under lex"
    if not set(restricted) <= set(full) or any(
            ref_normal_form(f, restricted, order).terms for f in full):
        return "fail", "the restricted set generates a different ideal"
    return "pass", None


def ref_containment(own: dict, standard: dict) -> tuple[str, str | None]:
    """(verdict, reason) of containment over the shapes of n, in the order
    of own, which maps each shape to its column-standard generators;
    standard maps it to its standard ones. Dominance by partial sums."""
    from spechtgb.combinatorics import partition_text

    order = lex_order(next(iter(own.values()))[0].nvars)
    bases = {lam: ref_groebner_basis(gens, order) for lam, gens in own.items()}
    for lam in own:
        for mu in own:
            if mu == lam or not dominates_by_partial_sums(lam, mu):
                continue
            if any(ref_normal_form(g, bases[lam], order).terms for g in standard[mu]):
                return "fail", (f"a generator of {partition_text(mu)} is outside the ideal "
                                f"of {partition_text(lam)}")
    return "pass", None


# ---------------------------------------------------------------------------
# dense row reduction: rows are lists of field elements


def ref_echelon_basis(rows: list[list], field: Field) -> list[list]:
    """Reduced row echelon basis of the row space. Zero rows are dropped."""
    basis: list[list] = []
    pivots: list[int] = []
    zero = field.zero
    for row in rows:
        r = list(row)
        for b, p in zip(basis, pivots):
            c = r[p]
            if c != zero:
                r = [field.add(x, field.neg(field.mul(c, y))) for x, y in zip(r, b)]
        pivot = next((j for j, x in enumerate(r) if x != zero), None)
        if pivot is None:
            continue
        inv = field.inv(r[pivot])
        r = [field.mul(x, inv) for x in r]
        # clear the new pivot column in earlier rows to keep the basis reduced
        for k, b in enumerate(basis):
            c = b[pivot]
            if c != zero:
                basis[k] = [field.add(x, field.neg(field.mul(c, y))) for x, y in zip(b, r)]
        basis.append(r)
        pivots.append(pivot)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


def ref_rank(rows: list[list], field: Field) -> int:
    return len(ref_echelon_basis(rows, field))


def ref_poly_rank(polys: list[Poly], field: Field) -> int:
    """Rank of the span of polys, from their dense coefficient matrix."""
    monomials = sorted({m for p in polys for m in p.terms})
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    for p in polys:
        row = [field.zero] * len(monomials)
        for m, c in p.terms.items():
            row[index[m]] = c
        rows.append(row)
    return ref_rank(rows, field)


# ---------------------------------------------------------------------------
# dominance closure by comparing every member with every partition of n


def ref_closure_violations(n: int, members, kind: str) -> set:
    """Every (member, missing) pair that keeps members from being a filter of
    the kind: missing lies below the member (lower) or above it (upper)."""
    mem = {tuple(m) for m in members}
    out = set()
    for lam in mem:
        for mu in brute_partitions(n):
            if mu in mem:
                continue
            if kind == "lower":
                violates = dominates_by_partial_sums(lam, mu)
            else:
                violates = dominates_by_partial_sums(mu, lam)
            if violates:
                out.add((lam, mu))
    return out


def ref_enumerate_lower_filters(n: int, include_empty: bool = False) -> tuple:
    """The member sets of the lower filters of n, in the order of the scan
    that enumerate_lower_filters ran before its walk over down-sets: every
    subset of partitions_of(n) as a bitmask, in increasing order, kept when
    it holds everything its members dominate."""
    from spechtgb.combinatorics import partitions_of

    ps = partitions_of(n)
    masks = [sum(1 << j for j, mu in enumerate(ps) if dominates_by_partial_sums(lam, mu))
             for lam in ps]
    out = []
    for mask in range(1 << len(ps)):
        if mask == 0 and not include_empty:
            continue
        sel = [i for i in range(len(ps)) if mask >> i & 1]
        if all(mask | masks[i] == mask for i in sel):
            out.append(frozenset(ps[i] for i in sel))
    return tuple(out)


# ---------------------------------------------------------------------------
# what each verify check expanded, per check, before the registry stated one
# size rule per check: (shapes, tableau mode) pairs of one grid input


def _principal_members(lam):
    return [mu for mu in brute_partitions(sum(lam)) if dominates_by_partial_sums(lam, mu)]


def _filter_members(*modes):
    return lambda filt: [(filt.sorted_members(), mode) for mode in modes]


def _every_shape(*modes):
    return lambda n: [(brute_partitions(n), mode) for mode in modes]


REF_EXPANDS = {
    "lexgb": _filter_members("column_standard"),
    "universal": _filter_members("column_standard"),
    "reduced": _filter_members("column_standard"),
    "vanishing": _every_shape("column_standard"),
    "restricted": lambda lam: [
        ([mu for mu in _principal_members(lam) if mu[0] == lam[0]], "standard"),
        (_principal_members(lam), "column_standard")],
    "finite_field": _filter_members("column_standard"),
    "containment": _every_shape("column_standard", "standard"),
    "engine": lambda _: [],
}


# ---------------------------------------------------------------------------
# the strata oracle before absorption was decided per type: every pair of
# collected set partitions scanned, one left fold per filter with no memo,
# and each elimination interreduced in full before its t-free part was kept.
# Its eliminations run the frozen Buchberger and reduction above, so it
# referees the oracle's plan and the package's pair core at once; they know
# no Groebner blocks, so no pair is skipped.


def ref_subspace_within(inner, outer) -> bool:
    block_of = {i: k for k, block in enumerate(inner) for i in block}
    return all(len({block_of[i] for i in block}) == 1 for block in outer)


def ref_kept_subspaces(n: int, members) -> list:
    from spechtgb.combinatorics import partitions_of, set_partitions_of_type

    collected = []
    for mu in partitions_of(n):
        if mu in members:
            collected.extend(set_partitions_of_type(mu))
    kept = []
    for idx, blocks in enumerate(collected):
        absorbed = any(
            jdx != idx and ref_subspace_within(blocks, other)
            for jdx, other in enumerate(collected)
        )
        if not absorbed:
            kept.append(blocks)
    return kept


def ref_lift(f: Poly, with_aux: bool) -> Poly:
    """t*f when with_aux, else (1 - t)*f, in one extra trailing variable t."""
    g = Poly(f.nvars + 1, f.field, {m + (0,): c for m, c in f.terms.items()})
    tg = g * Poly.variable(f.nvars + 1, f.nvars + 1, f.field)
    return tg if with_aux else g - tg


def ref_groebner_basis(generators, order, *, pair_budget: int = DEFAULT_PAIR_BUDGET):
    """The reduced basis by the frozen Buchberger and reduction."""
    basis, _ = ref_buchberger(generators, order, pair_budget=pair_budget)
    return ref_reduce_groebner_basis(basis, order)


def ref_ideal_intersection(a, b, *, pair_budget: int = DEFAULT_PAIR_BUDGET):
    from spechtgb.groebner import IdealBasis
    from spechtgb.polyring import lex_order

    if a.nvars != b.nvars or a.field != b.field:
        raise ValueError("ideals live in different rings")
    if a.is_zero() or b.is_zero():
        return IdealBasis(a.nvars, a.field, ())
    lifted = [ref_lift(f, True) for f in a.generators] + [ref_lift(g, False) for g in b.generators]
    gb = ref_groebner_basis(lifted, lex_order(a.nvars + 1), pair_budget=pair_budget)
    kept = tuple(
        Poly._raw(a.nvars, a.field, {m[:-1]: c for m, c in g.terms.items()})
        for g in gb
        if all(m[-1] == 0 for m in g.terms)
    )
    return IdealBasis(a.nvars, a.field, kept)


def ref_subspace_ideal(blocks, n: int, *, field: Field = QQ):
    """The subspace ideal as consecutive differences x_i - x_j along each
    sorted block, before subspace ideals were built reduced."""
    from spechtgb.combinatorics import validate_set_partition
    from spechtgb.groebner import IdealBasis

    gens = []
    for block in validate_set_partition(blocks, n):
        for i, j in zip(block, block[1:]):
            gens.append(Poly.variable(i, n, field) - Poly.variable(j, n, field))
    return IdealBasis(n, field, tuple(gens))


def ref_vanishing_ideal_oracle(g, *, pair_budget: int = DEFAULT_PAIR_BUDGET):
    from spechtgb.groebner import IdealBasis
    from spechtgb.polyring import lex_order

    n = g.n
    kept = ref_kept_subspaces(n, frozenset(g.members))
    order = lex_order(n)
    result = ref_subspace_ideal(kept[0], n)
    for blocks in kept[1:]:
        result = ref_ideal_intersection(result, ref_subspace_ideal(blocks, n),
                                        pair_budget=pair_budget)
    if len(kept) == 1:
        result = IdealBasis(n, QQ, tuple(ref_groebner_basis(result.generators, order,
                                                            pair_budget=pair_budget)))
    return result


# ---------------------------------------------------------------------------
# the vanishing check before one table of monomial values per point: on a
# stratum the shape does not dominate, generator by generator, each at every
# point in turn; on a dominated one, point by point. Values by eval_poly.


def ref_stratum_vanishing(n: int, generators, *, samples: int = 10, seed: int = 0):
    """(verdict, reason, evidence) of the vanishing check, for generators
    mapping a shape to its list of polynomials."""
    from spechtgb.combinatorics import partition_text, partitions_of
    from spechtgb.strata import sample_stratum

    shapes = partitions_of(n)
    zero_evaluations = witness_points = 0
    for lam_idx, lam in enumerate(shapes):
        gens = generators(lam)
        for mu_idx, mu in enumerate(shapes):
            points = sample_stratum(mu, samples, seed * 1_000_003 + lam_idx * len(shapes) + mu_idx)
            if not dominates_by_partial_sums(lam, mu):
                for p in gens:
                    for point in points:
                        if eval_poly(p.terms, point) != 0:
                            return "fail", (
                                f"a generator of {partition_text(lam)} is nonzero on "
                                f"a point of type {partition_text(mu)}"
                            ), {"zero_evaluations": zero_evaluations}
                        zero_evaluations += 1
            else:
                for point in points:
                    if all(eval_poly(p.terms, point) == 0 for p in gens):
                        return "fail", (
                            f"no generator of {partition_text(lam)} is nonzero on "
                            f"a point of type {partition_text(mu)}"
                        ), {"witness_points": witness_points}
                    witness_points += 1
    evidence = {"shapes": len(shapes), "zero_evaluations": zero_evaluations,
                "witness_points": witness_points}
    return "pass", None, evidence
