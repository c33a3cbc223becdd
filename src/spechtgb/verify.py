"""Named verification checks, negative controls, the suite runner, and the CLI.

Every check runs an exact computation and returns a CheckReport whose payload
is deterministic for a fixed (configuration, seed): evidence holds counts and
small witnesses only, timing lives outside the payload. Where a fact has two
independent computational routes (tableau generators plus Buchberger on one
side, the strata intersection oracle on the other) the check runs both and
compares, rather than trusting either. Each check_* only builds its inputs
and hands them to its judge, the private function named after the check,
which its negative control runs on a corrupted input.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter

from .combinatorics import (
    PartitionFilter,
    Tableau,
    conjugate,
    dominates,
    enumerate_lower_filters,
    enumerate_upper_filters,
    derived_filter,
    filter_closure,
    filter_text,
    parse_filter_text,
    parse_partition_text,
    partition_text,
    partitions_of,
    set_partition_count,
    tableau_count,
    validate_partition,
)
from .groebner import (
    DEFAULT_PAIR_BUDGET,
    PairBudgetExceeded,
    groebner_basis,
    hilbert_numerator,
    is_groebner_basis,
    normal_forms,
    reduce_groebner_basis,
)
from .polyring import (
    GF,
    QQ,
    Field,
    MonomialOrder,
    Poly,
    coefficients_in_last_variable,
    evaluations,
    leading_term,
    lex_order,
    parse_field,
    parse_order,
    polynomial_text,
)
from .specht import (
    filter_generators,
    initial_monomial,
    restricted_shapes,
    restricted_standard_generators,
    shape_generators,
)
from .strata import oracle_counts, sample_stratum, vanishing_ideal_oracle

SCHEMA_VERSION = 1
# most tableaux one CLI request enumerates, and most terms its generators
# expand to, summed over its shapes (checked per input and mode by `verify`)
MAX_TABLEAUX = 10**5
MAX_TERMS = 2 * 10**6
# engine's randomized trials, and the primes finite_field runs over when the
# suite's field is Q
ENGINE_TRIALS = 100
PRIMES = (2, 3, 7)


@dataclass
class CheckReport:
    """One check outcome. payload() excludes timing and metrics, the counts of
    how the work was done, so identical runs hash identically."""

    check_id: str
    parameters: dict
    verdict: str
    reason: str | None
    evidence: dict
    timing_ms: int
    metrics: dict = dataclass_field(default_factory=dict)

    def payload(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "check_id": self.check_id,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "reason": self.reason,
            "evidence": self.evidence,
        }

    def record(self) -> dict:
        rec = self.payload()
        rec["timing_ms"] = self.timing_ms
        rec["metrics"] = self.metrics
        return rec


def _guarded(check_id: str, parameters: dict, body, metrics: dict | None = None) -> CheckReport:
    """Run body, which returns (verdict, reason, evidence) and may fill metrics."""
    started = time.perf_counter()
    try:
        verdict, reason, evidence = body()
    except Exception as e:
        # running out of pairs, or any other crash, is no counterexample; a
        # crash also leaves its traceback on stderr
        if not isinstance(e, PairBudgetExceeded):
            import traceback  # only a crash needs it, so no import of the package pays for it

            traceback.print_exc()
        name = type(e).__name__
        verdict, reason, evidence = "error", str(e) or name, {"exception": name}
    return CheckReport(
        check_id=check_id,
        parameters=parameters,
        verdict=verdict,
        reason=reason,
        evidence=evidence,
        timing_ms=int((time.perf_counter() - started) * 1000),
        metrics=metrics if metrics is not None else {},
    )


def _counting_oracle(body, metrics: dict):
    """body, filling metrics with the eliminations the strata oracle ran while
    it did, the pairs they popped and the fold prefixes it found computed
    already."""
    def counted():
        start = oracle_counts()
        try:
            return body()
        finally:
            metrics.update((k, v - start[k]) for k, v in oracle_counts().items())

    return counted


def _reduce_to_zero(polys, basis, order) -> bool:
    """Whether every polynomial lies in the ideal of the Groebner basis."""
    return not any(r.terms for r in normal_forms(polys, basis, order))


@lru_cache(maxsize=None)
def _lex_certificate(polys: tuple[Poly, ...]) -> tuple:
    """(verdict, counts, first five failed pair records) of the generators
    under lex x1 < ... < xn, once per set in a process: keyed on the set, not
    its filter, and all tuples, so no two rows share a dict. The per-pair log
    is not kept (384,126 entries for [7])."""
    ok, cert = is_groebner_basis(polys, lex_order(polys[0].nvars))
    failed = (tuple(p.items()) for p in cert["pairs"] if p["status"] == "failed")
    return ok, tuple(cert["counts"].items()), tuple(itertools.islice(failed, 5))


@lru_cache(maxsize=None)
def _lex_reduced(polys: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """The reduced lex basis of a set _lex_certificate certified, once per set."""
    return tuple(reduce_groebner_basis(polys, lex_order(polys[0].nvars)))


@lru_cache(maxsize=None)
def _shape_basis(gens: tuple[Poly, ...], pair_budget: int) -> tuple[Poly, ...]:
    """C(lam), the reduced lex basis of one shape's own generators, once per
    set and budget: a basis a larger budget completed passes no row whose
    budget runs out."""
    return tuple(groebner_basis(gens, lex_order(gens[0].nvars), pair_budget=pair_budget))


def _own_basis(lam, field: Field, pair_budget: int) -> tuple[Poly, ...]:
    """C(lam), from shape lam's column-standard generators over field."""
    return _shape_basis(tuple(g.polynomial for g in shape_generators(lam, field=field)), pair_budget)


# ---------------------------------------------------------------------------
# individual checks


def check_lexgb(filt: PartitionFilter, *, field: Field = QQ) -> CheckReport:
    """The column-standard generator set of a lower filter is already a basis
    under lex x1 < ... < xn, each generator's lex leading term is its
    tableau's closed form (initial_monomial) with coefficient 1, and every
    filling of the filter's shapes gives a generator up to sign.

    The last claim needs no filling: each generator's tableau is a
    column-standard filling of its shape, the generator is +- its column
    product, and per shape the generators' sets of columns of length two or
    more are distinct and as many as the set partitions of 1..n of the
    conjugate type (set_partition_count), so they are all of them. A
    filling's columns are one of those, and by unique factorization (see the
    specht module) its polynomial is +- the generator with the same columns.
    """
    parameters = {"n": filt.n, "filter": filter_text(filt), "field": field.text()}
    return _guarded("lexgb", parameters,
                    lambda: _lexgb(filt, filter_generators(filt, field=field)))


def _lexgb(filt: PartitionFilter, gens):
    """lexgb's judgment of generators offered for a lower filter."""
    order = lex_order(filt.n)
    entries = list(range(1, filt.n + 1))
    for g in gens:
        t = g.tableau
        if (t.shape != g.shape or g.shape not in filt or sorted(sum(t.rows, ())) != entries
                or not t.is_column_standard()):
            return "fail", "a tableau is not a column-standard filling of a filter shape", {
                "tableau": [list(r) for r in t.rows]}
        if leading_term(g.polynomial, order) != (initial_monomial(t), g.polynomial.field.one):
            return "fail", "a lex leading term is not 1 times its tableau's closed form", {
                "tableau": [list(r) for r in t.rows]}
    cs = tuple(g.polynomial for g in gens)
    ok, counts, failed = _lex_certificate(cs)
    evidence = {"generators": len(cs), "pair_counts": dict(counts)}
    if not ok:
        evidence["failed_pairs"] = [dict(p) for p in failed]
        return "fail", "an S-polynomial did not reduce to zero under lex", evidence
    seen = set()
    for g in gens:
        columns = frozenset(frozenset(c) for c in g.tableau.columns() if len(c) > 1)
        if columns in seen:
            return "fail", "two generators have the same columns", {
                "tableau": [list(r) for r in g.tableau.rows]}
        seen.add(columns)
    per_shape = Counter(g.shape for g in gens)
    for lam in filt.sorted_members():
        if per_shape[lam] != (count := set_partition_count(conjugate(lam))):
            return "fail", "a shape has fewer generators than set partitions of its conjugate", {
                "shape": partition_text(lam), "generators": per_shape[lam], "set_partitions": count}
    if (g := _not_a_column_product(gens)) is not None:
        return "fail", "a generator is not its tableau's column product", {
            "tableau": [list(r) for r in g.tableau.rows]}
    evidence["reduced_basis_size"] = len(_lex_reduced(cs))
    return "pass", None, evidence


def _referee_orders(n: int, seed: int) -> list[MonomialOrder]:
    """One grlex, one grevlex and one weight order, each with a variable
    ranking drawn from the seed; the weights are drawn from 1..9 over 1..3."""
    rng = random.Random(seed)
    orders = [MonomialOrder(kind, n, rng.sample(range(1, n + 1), n))
              for kind in ("grlex", "grevlex")]
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n)]
    orders.append(MonomialOrder("weight", n, rng.sample(range(1, n + 1), n), weights))
    return orders


def _scaled(terms: dict, field: Field) -> frozenset:
    """The terms up to a scalar, as a hashable set: divided by the
    coefficient of their largest exponent tuple."""
    inv = field.inv(terms[max(terms)])
    if inv == field.one:
        return frozenset(terms.items())
    return frozenset((m, field.mul(c, inv)) for m, c in terms.items())


def _stable_under_permutations(polys: list[Poly], keys: set) -> bool:
    """Whether the transposition (1 2) and the n-cycle (1 2 ... n), which
    generate S_n, each map polys into themselves up to scalars; keys holds
    their _scaled terms. A renaming of the variables maps that finite set
    injectively into itself, so each of the two permutes it, and so does
    every product of them."""
    n = polys[0].nvars
    if n < 2:
        return True
    # exponent tuples under x1 <-> x2, and under x_i -> x_(i+1), xn -> x1
    for source in ((1, 0, *range(2, n)), (n - 1, *range(n - 1))):
        rename = itemgetter(*source)
        if any(_scaled({rename(m): c for m, c in p.terms.items()}, p.field) not in keys
               for p in polys):
            return False
    return True


def _leading_series(polys: list[Poly], order) -> tuple[int, ...]:
    """The Hilbert-series numerator of the ideal of the leading monomials."""
    return hilbert_numerator(leading_term(p, order)[0] for p in polys)


@lru_cache(maxsize=None)
def _column_product(t: Tableau, field: Field) -> Poly:
    """The product of x_i - x_j over the pairs i above j in a column of t,
    multiplied out one factor at a time: a route to a generator that does not
    go through specht_polynomial's Vandermonde expansion. A grid meets each
    tableau in many filters, so each (tableau, field) is multiplied out once
    per process."""
    x = [Poly.variable(i, t.n, field) for i in range(1, t.n + 1)]
    product = Poly.constant(1, t.n, field)
    for column in t.columns():
        for i, j in itertools.combinations(column, 2):
            product = product * (x[i - 1] - x[j - 1])
    return product


def _not_a_column_product(gens):
    """The first generator that is not +- its tableau's column product, or
    None; lexgb and universal both test this."""
    for g in gens:
        product = _column_product(g.tableau, g.polynomial.field)
        if g.polynomial not in (product, -product):
            return g
    return None


def _every_order_failure(gens, seed: int, evidence: dict, metrics: dict) -> str | None:
    """Why the generators are not proved a basis under every monomial order,
    or None when they are.

    The proof rests on four facts, tested in this order: the polynomials are
    homogeneous; they are stable up to scalars under every permutation of the
    variables (_stable_under_permutations); they are a basis under lex
    x1 < ... < xn (_lex_certificate, shared per set with the other checks);
    and each is +- its tableau's column product of factors x_i - x_j
    (_not_a_column_product, shared with lexgb). Stability carries the lex
    basis to every lex ranking. Leading terms multiply, so under any order
    each generator's leading term is the product of its factors' larger
    variables, which is its leading term under the lex order that ranks the
    variables alike. The leading terms therefore generate that lex order's
    initial ideal, which lies inside the order's own; the ideal is
    homogeneous, so both have its Hilbert function and are equal. That holds
    over any field. Three seeded referee orders (_referee_orders), named in
    evidence, then cross-check the proof without its column-product argument,
    though leaning on the lex certificate: the leading monomials under lex
    then generate the initial ideal, so they have the ideal's Hilbert series,
    and under a referee order they generate part of its initial ideal, all of
    it (the set is a basis there) exactly when the two series agree
    (hilbert_numerator). metrics gets the time of each phase.
    """
    started = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal started
        now = time.perf_counter()
        metrics[f"{phase}_ms"] = int((now - started) * 1000)
        started = now

    polys = [g.polynomial for g in gens]
    n = polys[0].nvars
    if any(len({sum(m) for m in p.terms}) != 1 for p in polys):
        return "a generator is not homogeneous"
    stable = _stable_under_permutations(polys, {_scaled(p.terms, p.field) for p in polys})
    lap("stability")
    if not stable:
        return "not stable under permutations of the variables"
    lex_basis = _lex_certificate(tuple(polys))[0]
    lap("lex_certificate")
    if not lex_basis:
        return f"not a basis under {lex_order(n).text()}"
    if _not_a_column_product(gens) is not None:
        return "a generator is not its tableau's column product"
    lap("column_products")
    lex_series = _leading_series(polys, lex_order(n))
    referees = _referee_orders(n, seed)
    for order in referees:
        if _leading_series(polys, order) != lex_series:
            return f"not a basis under referee {order.text()}"
    lap("referees")
    evidence["referee_orders"] = [order.text() for order in referees]
    return None


def check_universal(filt: PartitionFilter, *, seed: int = 0,
                    field: Field = QQ) -> CheckReport:
    """The generator set is a basis under every monomial order: proved from
    the four facts of _every_order_failure, and cross-checked by Hilbert
    series under three referee orders drawn from the seed."""
    parameters = {"n": filt.n, "filter": filter_text(filt), "field": field.text(),
                  "seed": seed}
    metrics: dict = {}
    return _guarded("universal", parameters, lambda: _universal(
        filter_generators(filt, field=field), seed, metrics), metrics)


def _universal(gens, seed: int, metrics: dict):
    """universal's judgment of a generator set (_every_order_failure)."""
    evidence = {"generators": len(gens)}
    failure = _every_order_failure(gens, seed, evidence, metrics)
    return ("fail", failure, evidence) if failure else ("pass", None, evidence)


def check_reduced(filt: PartitionFilter, *,
                  pair_budget: int = DEFAULT_PAIR_BUDGET) -> CheckReport:
    """Dual-route identity for a lower filter: the ideal generated from its
    tableaux equals the full vanishing ideal of the strata outside the filter,
    computed independently as an intersection of subspace primes. Decided by
    one comparison of reduced lex bases (_reduced); passing means the
    generated ideal is radical and cuts out exactly those strata."""
    parameters = {"n": filt.n, "filter": filter_text(filt), "field": "Q"}
    metrics: dict = {}
    return _guarded("reduced", parameters, _counting_oracle(lambda: _reduced(
        tuple(g.polynomial for g in filter_generators(filt)), filt.complement(), pair_budget),
        metrics), metrics)


def _reduced(gens: tuple[Poly, ...], complement: PartitionFilter, pair_budget: int):
    """reduced's judgment of generators against the strata of complement. A
    reduced lex basis is unique to its ideal (Cox, Little & O'Shea, ch. 2,
    section 7), so once the generators certify as a lex basis, the ideals are
    equal exactly when their reduced bases are. An empty complement has the
    unit ideal."""
    if not _lex_certificate(gens)[0]:
        return "fail", "the generators are not a basis under lex", {"generators": len(gens)}
    lhs = _lex_reduced(gens)
    rhs = (vanishing_ideal_oracle(complement, pair_budget=pair_budget).generators
           if len(complement) else (Poly.constant(1, complement.n, QQ),))
    evidence = {"complement_size": len(complement), "generators": len(gens),
                "oracle_basis_size": len(rhs), "reduced_basis_size": len(lhs)}
    if lhs == rhs:
        return "pass", None, evidence
    return "fail", "generated ideal and strata oracle disagree", evidence


def check_stratum_vanishing(n: int, *, samples: int = 10, seed: int = 0) -> CheckReport:
    """Every generator of a shape vanishes at every sampled point of every
    stratum whose type the shape does not dominate, and at each sampled point
    of a dominated stratum at least one generator of the shape is nonzero."""
    _require_positive("n", n)
    _require_positive("samples", samples)
    parameters = {"n": n, "samples": samples, "seed": seed, "field": "Q"}
    return _guarded("vanishing", parameters, lambda: _vanishing(n, samples, seed, dominates))


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")


def _vanishing(n: int, samples: int, seed: int, dominates):
    """vanishing's judgment, under the dominance test dominates(lam, mu). A
    shape's generators are valued at the sampled points of all its strata
    by one evaluations call."""
    shapes = partitions_of(n)
    zero = QQ.zero
    zero_evaluations = 0
    witness_points = 0
    for lam_idx, lam in enumerate(shapes):
        gens = [g.polynomial for g in shape_generators(lam)]
        strata = [sample_stratum(mu, samples, seed * 1_000_003 + lam_idx * len(shapes) + mu_idx)
                  for mu_idx, mu in enumerate(shapes)]
        at_points = evaluations(gens, [point for points in strata for point in points])
        for mu, points in zip(shapes, strata):
            at = list(itertools.islice(at_points, len(points)))
            if not dominates(lam, mu):
                # generator by generator, each at every point in turn
                for values in zip(*at):
                    for v in values:
                        if v != zero:
                            return "fail", (
                                f"a generator of {partition_text(lam)} is nonzero on "
                                f"a point of type {partition_text(mu)}"
                            ), {"zero_evaluations": zero_evaluations}
                        zero_evaluations += 1
            else:
                for values in at:
                    if all(v == zero for v in values):
                        return "fail", (
                            f"no generator of {partition_text(lam)} is nonzero on "
                            f"a point of type {partition_text(mu)}"
                        ), {"witness_points": witness_points}
                    witness_points += 1
    evidence = {
        "shapes": len(shapes),
        "zero_evaluations": zero_evaluations,
        "witness_points": witness_points,
    }
    return "pass", None, evidence


def _random_degree2_poly(n: int, rng: random.Random, *, max_terms: int = 3) -> Poly:
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * n
        for _ in range(rng.randint(0, 2)):
            mono[rng.randrange(n)] += 1
        c = rng.randint(-3, 3)
        if c:
            m = tuple(mono)
            terms[m] = terms.get(m, 0) + c
    return Poly(n, QQ, terms)


def check_coefficient_descent(n: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> CheckReport:
    """The descent lemma for every upper filter G of n: write a member f of
    J(G), the vanishing ideal of G's strata, in powers of x_n with top degree
    d; every coefficient lies in J(derived_filter(G, d + 1)), over the ring
    with one variable fewer.

    Proved from the oracle's reduced basis of each J(G) by two facts. Under
    lex with x_n largest, division by that basis writes a member of x_n-degree
    at most d from basis elements of x_n-degree e <= d times multipliers of
    x_n-degree at most d - e (Cox, Little & O'Shea, Ideals, Varieties, and
    Algorithms, ch. 2). And D_(r+1) lies in D_r for D_r = derived_filter(G, r),
    so J(D_(e+1)) lies in J(D_(d+1)). The lemma therefore holds for every
    member exactly when it holds for each basis element, which _descent tests.
    With one variable there is no ring of one fewer, so n starts at 2.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    parameters = {"n": n, "field": "Q"}
    metrics: dict = {}
    return _guarded("descent", parameters, _counting_oracle(lambda: _descent(
        [(filt, vanishing_ideal_oracle(filt, pair_budget=pair_budget).generators)
         for filt in enumerate_upper_filters(n)], pair_budget), metrics), metrics)


def _descent(cases, pair_budget: int):
    """descent's judgment of (upper filter, the reduced lex basis offered for
    its vanishing ideal) pairs: every coefficient of a basis element of top
    x_n-degree e must reduce to zero by the oracle's basis of the filter
    derived at row e + 1. An empty derived filter has the unit ideal."""
    inner_order = lex_order(cases[0][0].n - 1)
    elements = memberships = trivial = 0
    for filt, basis in cases:
        for g in basis:
            elements += 1
            shares = coefficients_in_last_variable(g)
            derived = derived_filter(filt, len(shares))  # row e + 1 for top degree e
            if not len(derived):
                trivial += 1
                continue
            ideal = vanishing_ideal_oracle(derived, pair_budget=pair_budget).generators
            if not _reduce_to_zero(shares, ideal, inner_order):
                return "fail", "a coefficient escaped the derived filter's ideal", {
                    "filter": filter_text(filt), "derived": filter_text(derived),
                    "top_degree": len(shares) - 1}
            memberships += len(shares)
    return "pass", None, {"filters": len(cases), "basis_elements": elements,
                          "memberships": memberships, "trivial_cases": trivial}


def check_restricted(shape, *, field: Field = QQ,
                     pair_budget: int = DEFAULT_PAIR_BUDGET) -> CheckReport:
    """The standard generators of the shapes below lam that keep its first
    row (restricted_shapes) are a lex basis of I_lam, the ideal of lam's own
    generators (Haiman and Woo): they certify under lex x1 < ... < xn, and
    their reduced basis is C(lam) (_shape_basis), since a reduced basis is
    unique to its ideal (Cox, Little & O'Shea, ch. 2, section 7). With
    containment's I_lam = I(lower<=lam) they generate the principal filter's
    ideal. pair_budget bounds the completion, not the certificate."""
    lam = validate_partition(shape)
    n = sum(lam)
    parameters = {"n": n, "shape": partition_text(lam), "field": field.text()}
    return _guarded("restricted", parameters, lambda: _restricted(
        tuple(g.polynomial for g in restricted_standard_generators(lam, field=field)),
        _own_basis(lam, field, pair_budget)))


def _restricted(restricted: tuple[Poly, ...], basis: tuple[Poly, ...]):
    """restricted's judgment of a restricted set against its shape's C(lam)."""
    ok, counts, _ = _lex_certificate(restricted)
    evidence = {"restricted_generators": len(restricted), "pair_counts": dict(counts)}
    if not ok:
        return "fail", "the restricted set is not a basis under lex", evidence
    evidence["reduced_basis_size"] = len(reduced := _lex_reduced(restricted))
    if reduced != basis:
        return "fail", "the restricted set generates a different ideal", evidence
    return "pass", None, evidence


def check_finite_field(filt: PartitionFilter, p: int) -> CheckReport:
    """Mod every prime, the generators stay a lex basis whose reduced basis is
    the image of the rational one (_finite_field); p must be prime."""
    fp = GF(p)  # a p that is not prime raises before any work
    parameters = {"n": filt.n, "filter": filter_text(filt), "p": p}
    return _guarded("finite_field", parameters, lambda: _finite_field(
        tuple(g.polynomial for g in filter_generators(filt, field=fp)),
        tuple(g.polynomial for g in filter_generators(filt))))


def _finite_field(polys_p: tuple[Poly, ...], polys_q: tuple[Poly, ...]):
    """finite_field's judgment, from the rational set: its coefficients are
    integers, its lex (x1 < ... < xn) leading coefficients 1, it is a lex
    basis, and polys_p are its images. Division by integer polynomials with
    leading coefficient 1 gives integral quotients, so each S-polynomial's
    representation over Q, every term below the lcm of its pair, reduces
    mod p to one for the images: by Buchberger's criterion in this form
    (Cox, Little & O'Shea, ch. 2, section 9) they are a lex basis over every
    F_p. The rational reduced basis is integral, so its image is the F_p one."""
    evidence = {"generators": len(polys_q)}
    if any(type(c) is not int for g in polys_q for c in g.terms.values()):
        return "fail", "a rational coefficient is not an integer", evidence
    if any(leading_term(g, lex_order(g.nvars))[1] != 1 for g in polys_q):
        return "fail", "a lex leading coefficient is not 1", evidence
    ok, counts, _ = _lex_certificate(polys_q)
    evidence["pair_counts"] = dict(counts)
    if not ok:
        return "fail", "the rational generators are not a lex basis", evidence
    if polys_p != tuple(Poly(g.nvars, polys_p[0].field, g.terms) for g in polys_q):
        return "fail", "the F_p generators are not the images of the rational ones", evidence
    return "pass", None, {**evidence, "primes": "all"}


def check_containment(n: int, *, field: Field = QQ,
                      pair_budget: int = DEFAULT_PAIR_BUDGET) -> CheckReport:
    """I_mu lies in I_lam, the ideal of shape lam's own generators, whenever
    lam strictly dominates mu; so I_lam = I(lower<=lam). Tested on covers
    only (mu below lam, no shape strictly between): C(mu), the reduced lex
    basis of mu's generators (_shape_basis), reduces to zero by C(lam). A
    chain of covers joins every comparable pair, and containment of ideals
    is transitive, so the covers carry the claim to every pair."""
    _require_positive("n", n)
    parameters = {"n": n, "field": field.text()}
    return _guarded("containment", parameters,
                    lambda: _containment(n, field, pair_budget, dominates))


def _containment(n: int, field: Field, pair_budget: int, dominates):
    """containment's judgment, under the dominance test dominates(lam, mu)."""
    shapes = partitions_of(n)
    below = {lam: [mu for mu in shapes if mu != lam and dominates(lam, mu)] for lam in shapes}
    evidence = {"shapes": len(shapes), "comparable_pairs": sum(map(len, below.values())),
                "covering_pairs": 0, "memberships": 0}
    for lam in shapes:
        for mu in below[lam]:
            if any(mu in below[nu] for nu in below[lam]):
                continue  # a shape lies strictly between: covers join them
            evidence["covering_pairs"] += 1
            lower = _own_basis(mu, field, pair_budget)
            if not _reduce_to_zero(lower, _own_basis(lam, field, pair_budget), lex_order(n)):
                return "fail", (f"a generator of {partition_text(mu)} is outside the ideal "
                                f"of {partition_text(lam)}"), evidence
            evidence["memberships"] += len(lower)
    return "pass", None, evidence


def check_engine(*, trials: int = 100, seed: int = 0,
                 pair_budget: int = DEFAULT_PAIR_BUDGET) -> CheckReport:
    """Engine self-consistency on randomized inputs: permuting the generators
    never changes the reduced basis, and neither does disabling the chain
    criterion."""
    _require_positive("trials", trials)
    parameters = {"trials": trials, "seed": seed}
    return _guarded("engine", parameters,
                    lambda: _engine(trials, seed, pair_budget, groebner_basis))


def _engine(trials: int, seed: int, pair_budget: int, complete):
    """engine's judgment of complete, a stand-in for groebner_basis."""
    rng = random.Random(seed)
    ran = 0
    for trial in range(trials):
        n = rng.choice((2, 3))
        if trial % 10 == 9:
            filters = enumerate_lower_filters(n)
            filt = filters[rng.randrange(len(filters))]
            gens = [g.polynomial for g in filter_generators(filt)]
        else:
            gens = [_random_degree2_poly(n, rng, max_terms=4) for _ in range(rng.randint(2, 3))]
            gens = [g for g in gens if g.terms]
            if not gens:
                continue
        kind = rng.choice(("lex", "grlex", "grevlex"))
        ranking = tuple(rng.sample(range(1, n + 1), n))
        order = MonomialOrder(kind, n, ranking)
        base = complete(gens, order, pair_budget=pair_budget)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        if complete(shuffled, order, pair_budget=pair_budget) != base:
            return "fail", "permuting the generators changed the reduced basis", {
                "trial": trial}
        no_chain = complete(gens, order, pair_budget=pair_budget, use_chain_criterion=False)
        if no_chain != base:
            return "fail", "the chain criterion changed the reduced basis", {"trial": trial}
        ran += 1
    return "pass", None, {"trials_run": ran}


# ---------------------------------------------------------------------------
# negative controls: corrupted inputs that the checks' judges must refuse


def _reversed_dominance(lam, mu) -> bool:
    return dominates(mu, lam)


def negative_controls(*, seed: int = 0) -> list[CheckReport]:
    """One corrupted input per check, handed to that check's own judge.

    Each control passes exactly when the judge fails the input with the
    reason its corruption must give, so a passing control certifies that
    its check's decision can fail. The judges are looked up when a control
    runs, so wrapping one reaches both its check and its control.
    """
    lower21 = filter_closure(3, [(2, 1)], "lower")

    def without_x3_x1():
        return [g for g in filter_generators(lower21) if g.tableau.rows != ((1, 2), (3,))]

    # name -> (parameters, the judge on a corrupted input, the reason it must give)
    controls = {
        # x3 - x1 dropped from lower<=[2,1]: the rest is still a lex basis
        # of leading terms in closed form, so only the count of [2,1]'s
        # column sets can refuse it
        "lexgb": ({"n": 3, "fixture": "lower<=[2,1] without x3-x1"},
                  lambda: _lexgb(lower21, without_x3_x1()),
                  "a shape has fewer generators than set partitions of its conjugate"),
        # the same fixture is stable only without x3 - x1's orbit, so only
        # the stability test can refuse it
        "universal": ({"n": 3, "fixture": "lower<=[2,1] without x3-x1"},
                      lambda: _universal(without_x3_x1(), seed, {}),
                      "not stable under permutations of the variables"),
        # lower:[1,1,1] against the strata of upper:[3], not of its complement
        "reduced": ({"n": 3, "filter": "lower:[1,1,1]", "complement": "upper:[3]"},
                    lambda: _reduced(tuple(g.polynomial for g in shape_generators((1, 1, 1))),
                                     filter_closure(3, [(3,)], "upper"), DEFAULT_PAIR_BUDGET),
                    "generated ideal and strata oracle disagree"),
        # [3] no longer dominates [2,1], so its generator 1 must vanish there
        "vanishing": ({"n": 3, "seed": seed, "dominance": "reversed"},
                      lambda: _vanishing(3, 5, seed, _reversed_dominance),
                      "a generator of [3] is nonzero on a point of type [2,1]"),
        # x1 - x2 offered as the basis of upper:[2,1]: its one coefficient
        # must lie in the zero ideal of derived_filter(upper:[2,1], 1)
        "descent": ({"n": 3, "fixture": "x1-x2 as the basis of upper:[2,1]"},
                    lambda: _descent([(filter_closure(3, [(2, 1)], "upper"),
                                       (Poly(3, QQ, {(1, 0, 0): 1, (0, 1, 0): -1}),))],
                                     DEFAULT_PAIR_BUDGET),
                    "a coefficient escaped the derived filter's ideal"),
        # the shape's own generators dropped from the restricted set: the
        # rest is still a lex basis, so only the comparison can refuse it
        "restricted": ({"n": 4, "shape": "[2,2]"}, lambda: _restricted(
            tuple(g.polynomial for g in restricted_standard_generators((2, 2))
                  if g.shape != (2, 2)),
            _own_basis((2, 2), QQ, DEFAULT_PAIR_BUDGET)),
            "the restricted set generates a different ideal"),
        # lower:[1,1]'s x2 - x1 over Q bumped to x2 - 2*x1: only the image test refuses it
        "finite_field": ({"n": 2, "p": 3, "fixture": "x2-2*x1 vs lower:[1,1]"},
                         lambda: _finite_field((Poly(2, GF(3), {(0, 1): 1, (1, 0): -1}),),
                                               (Poly(2, QQ, {(0, 1): 1, (1, 0): -2}),)),
                         "the F_p generators are not the images of the rational ones"),
        # [2,1] now dominates [3], so its ideal must hold the generator 1
        "containment": ({"n": 3, "dominance": "reversed"}, lambda: _containment(
            3, QQ, DEFAULT_PAIR_BUDGET, _reversed_dominance),
            "a generator of [3] is outside the ideal of [2,1]"),
        # a completion that returns its input keeps the order it was given
        "engine": ({"trials": 10, "seed": 0, "fixture": "completion returns its input"},
                   lambda: _engine(10, 0, DEFAULT_PAIR_BUDGET, lambda gens, order, **_: gens),
                   "permuting the generators changed the reduced basis"),
    }

    def refused(judged, reason):
        verdict, got, evidence = judged()
        if (verdict, got) == ("fail", reason):
            return "pass", None, evidence
        return "fail", f"the judge gave {verdict} ({got}), not fail ({reason})", evidence

    return [_guarded(f"control_{name}", parameters, partial(refused, judged, reason))
            for name, (parameters, judged, reason) in controls.items()]


# ---------------------------------------------------------------------------
# suite


def _suite_lower_filters(n: int):
    if n <= 5:
        return enumerate_lower_filters(n)
    # beyond n = 5 principal filters only (11 of the 13 filters of 6, 15 of
    # the 19 of 7, 22 of the 37 of 8), built lazily, so that an oversized
    # grid is refused at its first input
    return (filter_closure(n, [lam], "lower") for lam in partitions_of(n))


# what one run of a check takes -> (the suite's inputs at size n, the
# parameters that name one input, the shapes whose generators it may build)
_INPUTS = {
    "filter": (_suite_lower_filters, lambda filt: {"n": filt.n, "filter": filter_text(filt)},
               lambda filt: filt.sorted_members()),
    # a shape's check builds at most its principal lower filter
    "shape": (partitions_of, lambda lam: {"n": sum(lam), "shape": partition_text(lam)},
              lambda lam: filter_closure(sum(lam), [lam], "lower").sorted_members()),
    "n": (lambda n: (n,), lambda n: {"n": n}, partitions_of),
}


@dataclass(frozen=True)
class _Check:
    """How the suite runs one check.

    takes is a key of _INPUTS, or None for a check run once with no input.
    over is "any"; "Q" for a check that is skipped over F_p; or "F_p" for a
    check that runs over SuiteConfig.field when it is finite and once per
    PRIMES otherwise. run calls the check by its module-level name, so that
    wrapping that name reaches the suite too. max_n is the largest n its grid
    runs. expands says whether it may build the generators of its input's
    shapes (see _INPUTS), so that an oversized input is refused before any of
    it runs; the column-standard count bounds the standard one too.
    """

    takes: str | None
    over: str
    run: Callable[[SuiteConfig, object], CheckReport]
    max_n: int | None = None
    expands: bool = True


_CHECKS = {
    "lexgb": _Check("filter", "any", lambda c, filt: check_lexgb(filt, field=c.field)),
    "universal": _Check("filter", "any", lambda c, filt: check_universal(
        filt, seed=c.seed, field=c.field)),
    "reduced": _Check("filter", "Q", lambda c, filt: check_reduced(
        filt, pair_budget=c.pair_budget)),
    "vanishing": _Check("n", "Q", lambda c, n: check_stratum_vanishing(
        n, samples=c.samples, seed=c.seed)),
    # builds no tableaux, but the strata oracles of every upper filter of 7
    # and of its derived filters do not finish in minutes
    "descent": _Check("n", "Q", lambda c, n: check_coefficient_descent(
        n, pair_budget=c.pair_budget), max_n=6, expands=False),
    "restricted": _Check("shape", "any", lambda c, lam: check_restricted(
        lam, field=c.field, pair_budget=c.pair_budget)),
    "finite_field": _Check("filter", "F_p", lambda c, filt: check_finite_field(
        filt, c.field.p), max_n=4),
    "containment": _Check("n", "any", lambda c, n: check_containment(
        n, field=c.field, pair_budget=c.pair_budget)),
    "engine": _Check(None, "any", lambda c, _: check_engine(
        trials=ENGINE_TRIALS, seed=c.seed, pair_budget=c.pair_budget), expands=False),
}
CHECK_NAMES = tuple(_CHECKS)
_RATIONAL_ONLY_REASON = "needs the rational field: strata are only dense there"


@dataclass
class SuiteConfig:
    checks: tuple[str, ...] = CHECK_NAMES
    min_n: int = 2
    max_n: int = 4
    field: Field = QQ
    seed: int = 0
    samples: int = 10
    pair_budget: int = DEFAULT_PAIR_BUDGET
    include_controls: bool = True


def _run_check(name: str, config: SuiteConfig, arg) -> list[CheckReport]:
    """The suite's reports for one input of one check."""
    spec = _CHECKS[name]
    if spec.over == "Q" and config.field.p is not None:
        parameters = {**_INPUTS[spec.takes][1](arg), "field": config.field.text()}
        return [CheckReport(name, parameters, "skipped", _RATIONAL_ONLY_REASON, {}, 0)]
    if spec.over == "F_p" and config.field.p is None:
        return [spec.run(replace(config, field=GF(p)), arg) for p in PRIMES]
    return [spec.run(config, arg)]


def _grid(name: str, config: SuiteConfig):
    """The inputs the suite runs one check on, generated in order."""
    spec = _CHECKS[name]
    if spec.takes is None:
        yield None
        return
    top = config.max_n if spec.max_n is None else min(config.max_n, spec.max_n)
    for n in range(max(config.min_n, 2), top + 1):
        yield from _INPUTS[spec.takes][0](n)


def run_suite(config: SuiteConfig) -> list[CheckReport]:
    """Run the configured checks over their grids, deterministically ordered."""
    for name in config.checks:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}")
    _require_positive("samples", config.samples)
    reports: list[CheckReport] = []
    for name in config.checks:
        for arg in _grid(name, config):
            reports.extend(_run_check(name, config, arg))
    if config.include_controls:
        reports.extend(negative_controls(seed=config.seed))
    reports.sort(key=lambda r: (r.check_id, json.dumps(r.parameters, sort_keys=True)))
    return reports


def suite_exit_code(reports: list[CheckReport]) -> int:
    """1 when a check failed, else 3 when one could not finish (out of its budget
    or crashed), else 0."""
    verdicts = {r.verdict for r in reports}
    if "fail" in verdicts:
        return 1
    return 3 if "error" in verdicts else 0


def determinism_hash(reports: list[CheckReport]) -> str:
    blob = "\n".join(json.dumps(r.payload(), sort_keys=True) for r in reports)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# CLI


def _summary_table(reports: list[CheckReport]) -> str:
    lines = []
    width = max((len(r.check_id) for r in reports), default=8) + 2
    for r in reports:
        params = json.dumps(r.parameters, sort_keys=True)
        line = f"{r.check_id:<{width}}{r.verdict:<9}{params}"
        if r.reason:
            line += f"  ({r.reason})"
        lines.append(line)
    totals = Counter(r.verdict for r in reports)
    lines.append("")
    lines.append(
        f"{totals['pass']} pass, {totals['fail']} fail, {totals['skipped']} skipped, "
        f"{totals['error']} error  [determinism sha256:{determinism_hash(reports)[:16]}]"
    )
    return "\n".join(lines)


def _write(body: str, out_path: str | None) -> None:
    """Write body to the --out file, or to stdout when there is none."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _emit(reports: list[CheckReport], fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        body = "\n".join(json.dumps(r.record(), sort_keys=True) for r in reports) + "\n"
    else:
        body = _summary_table(reports) + "\n"
    _write(body, out_path)
    if out_path:
        print(f"wrote {len(reports)} report(s) to {out_path}")


def _check_enumeration_size(shapes, mode: str, hint: str = "") -> None:
    """Refuse a request whose tableau enumeration or polynomial expansion
    alone would be exponential: a tableau's polynomial has prod h_j! terms
    over its column heights h_j."""
    counts = [(tableau_count(mu, mode), math.prod(math.factorial(h) for h in conjugate(mu)))
              for mu in shapes]
    tabs = sum(c for c, _ in counts)
    terms = sum(c * t for c, t in counts)
    if tabs > MAX_TABLEAUX:
        raise ValueError(
            f"this request enumerates {tabs} {mode} tableaux, more than the "
            f"limit of {MAX_TABLEAUX}; use a smaller --n, shape or filter{hint}"
        )
    if terms > MAX_TERMS:
        raise ValueError(
            f"this request expands polynomials with {terms} terms in all, more "
            f"than the limit of {MAX_TERMS}; use shapes with shorter columns"
        )


def _check_selection_size(config: SuiteConfig, single) -> None:
    """Refuse, before any check runs, a selection with an input whose
    generators would be exponential to build; single is the one input of a
    single run, or None for the grid."""
    for name in config.checks:
        spec = _CHECKS[name]
        if not spec.expands or spec.over == "Q" and config.field.p is not None:
            continue  # builds no generators, or is skipped
        shapes_of = _INPUTS[spec.takes][2]
        for arg in _grid(name, config) if single is None else [single]:
            _check_enumeration_size(shapes_of(arg), "column_standard")


def _cmd_gens(args) -> int:
    field = parse_field(args.field)
    if args.shape:
        lam = parse_partition_text(args.shape)
        if sum(lam) != args.n:
            raise ValueError(f"--shape {args.shape} is not a partition of --n {args.n}")
        if args.mode == "restricted_standard":
            _check_enumeration_size(restricted_shapes(lam), "standard")
            gens = restricted_standard_generators(lam, field=field)
        else:
            _check_enumeration_size((lam,), args.mode, ", or --mode standard")
            gens = shape_generators(lam, mode=args.mode, field=field)
    elif args.mode == "restricted_standard":
        raise ValueError("mode restricted_standard needs --shape")
    elif args.filter:
        filt = parse_filter_text(args.filter, args.n)
        _check_enumeration_size(filt.sorted_members(), args.mode, ", or --mode standard")
        gens = filter_generators(filt, mode=args.mode, field=field)
    else:
        raise ValueError("gens needs --filter or --shape")
    if args.report == "json":
        rows = [
            {
                "shape": partition_text(g.shape),
                "tableau": [list(r) for r in g.tableau.rows],
                "polynomial": polynomial_text(g.polynomial),
                "terms": len(g.polynomial.terms),
            }
            for g in gens
        ]
        body = "\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n"
    else:
        body = "\n".join(
            f"{partition_text(g.shape)}  {[list(r) for r in g.tableau.rows]}  "
            f"{polynomial_text(g.polynomial)}"
            for g in gens
        ) + "\n"
    _write(body, args.out)
    return 0


def _cmd_gb(args) -> int:
    field = parse_field(args.field)
    filt = parse_filter_text(args.filter, args.n)
    order = parse_order(args.order, args.n) if args.order else lex_order(args.n)
    _check_enumeration_size(filt.sorted_members(), "column_standard")
    gens = [g.polynomial for g in filter_generators(filt, field=field)]
    basis = groebner_basis(gens, order, pair_budget=args.pair_budget)
    _print_basis(basis, order, args)
    return 0


def _cmd_oracle(args) -> int:
    filt = parse_filter_text(args.filter, args.n)
    if filt.kind == "lower":
        target = filt.complement()
        if not len(target):
            raise ValueError("the complement of the full filter is empty")
    else:
        target = filt
    oracle = vanishing_ideal_oracle(target, pair_budget=args.pair_budget)
    _print_basis(list(oracle.generators), lex_order(args.n), args,
                 note=f"strata: {filter_text(target)}")
    return 0


def _print_basis(basis, order, args, note: str | None = None) -> None:
    if args.report == "json":
        payload = {
            "order": order.text(),
            "basis": [polynomial_text(p, order) for p in basis],
            "size": len(basis),
        }
        if note:
            payload["note"] = note
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        if note:
            lines.append(f"# {note}")
        if not basis:
            lines.append("0  (zero ideal)")
        lines.extend(polynomial_text(p, order) for p in basis)
        body = "\n".join(lines) + "\n"
    _write(body, args.out)


def _single_input(args):
    """The one input that --filter or --shape names, or None for a grid run."""
    takes = None if args.check == "all" else _CHECKS[args.check].takes
    for flag in ("filter", "shape"):
        if getattr(args, flag) is not None and flag != takes:
            raise ValueError(f"verify {args.check} takes no --{flag}")
    if args.filter is not None:
        if args.n is None:
            raise ValueError(f"{args.check} needs --n with --filter")
        filt = parse_filter_text(args.filter, args.n)
        if filt.kind != "lower":
            raise ValueError(f"verify {args.check} takes a lower filter")
        return filt
    if args.shape is not None:
        lam = parse_partition_text(args.shape)
        if args.n is not None and sum(lam) != args.n:
            raise ValueError(f"--shape {args.shape} is not a partition of --n {args.n}")
        return lam
    return None


def _cmd_verify(args) -> int:
    field = parse_field(args.field)
    config = SuiteConfig(
        checks=CHECK_NAMES if args.check == "all" else (args.check,),
        min_n=args.n if args.n is not None else 2,
        max_n=args.n if args.n is not None else args.max_n,
        field=field,
        seed=args.seed,
        samples=args.samples,
        pair_budget=args.pair_budget,
        include_controls=args.check == "all" and not args.no_controls,
    )
    single = _single_input(args)
    spec = _CHECKS.get(args.check)
    # one input, named by --filter or --shape, or by --n for a check that takes n
    if (spec and spec.over != "any" and (field.p is None) == (spec.over == "F_p")
            and (single is not None or spec.takes == "n" and args.n is not None)):
        needs = _RATIONAL_ONLY_REASON if spec.over == "Q" else (
            "needs a prime field: pass --field F<p>")
        raise ValueError(f"a single {args.check} run {needs}")
    _check_selection_size(config, single)
    reports = run_suite(config) if single is None else _run_check(args.check, config, single)
    if not reports:
        tops = "".join(f", {name}'s ends at n={_CHECKS[name].max_n}"
                       for name in config.checks if _CHECKS[name].max_n is not None)
        raise ValueError(f"this selection runs no check at the requested sizes; "
                         f"grids start at n=2{tops}")
    _emit(reports, args.report, args.out)
    return suite_exit_code(reports)


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_output_flags(p) -> None:
    p.add_argument("--report", choices=("text", "json"), default="text",
                   help="text summary or one JSON object per line")
    p.add_argument("--out", default=None, help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spechtgb",
        description="Specht ideals of dominance filters: exact bases, strata "
                    "oracles, and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gens_p = sub.add_parser("gens", help="list a generator set")
    gens_p.add_argument("--n", type=int, required=True)
    gens_source = gens_p.add_mutually_exclusive_group()
    gens_source.add_argument("--filter", help='e.g. "lower<=[2,1]" or "[2,1],[1,1,1]"')
    gens_source.add_argument("--shape", help='a single shape, e.g. "[2,1]" or "21"')
    gens_p.add_argument("--mode", default="column_standard",
                        choices=("column_standard", "standard", "restricted_standard"))
    gens_p.add_argument("--field", default="Q", help='"Q" or a prime field like "F7"')
    _add_output_flags(gens_p)

    gb_p = sub.add_parser("gb", help="reduced basis of a filter's ideal")
    gb_p.add_argument("--n", type=int, required=True)
    gb_p.add_argument("--filter", required=True)
    gb_p.add_argument("--order", default=None, help='e.g. "lex:3,1,2" or "grevlex:1,2,3"')
    gb_p.add_argument("--field", default="Q")
    gb_p.add_argument("--pair-budget", type=_nonnegative, default=DEFAULT_PAIR_BUDGET)
    _add_output_flags(gb_p)

    oracle_p = sub.add_parser("oracle", help="reduced basis of a strata vanishing ideal")
    oracle_p.add_argument("--n", type=int, required=True)
    oracle_p.add_argument("--filter", required=True,
                          help="upper filters are used directly, lower ones complemented")
    oracle_p.add_argument("--pair-budget", type=_nonnegative, default=DEFAULT_PAIR_BUDGET)
    _add_output_flags(oracle_p)

    verify_p = sub.add_parser("verify", help="run verification checks")
    verify_p.add_argument("check", choices=CHECK_NAMES + ("all",))
    verify_p.add_argument("--max-n", type=int, default=4)
    verify_p.add_argument("--n", type=int, default=None)
    verify_p.add_argument("--filter", default=None)
    verify_p.add_argument("--shape", default=None)
    verify_p.add_argument("--field", default="Q")
    verify_p.add_argument("--seed", type=int, default=0)
    verify_p.add_argument("--samples", type=_positive, default=10)
    verify_p.add_argument("--pair-budget", type=_nonnegative, default=DEFAULT_PAIR_BUDGET,
                          help="S-pairs per completion or elimination in descent, "
                               "containment, restricted and engine, and per oracle "
                               "elimination in reduced; lexgb, universal, finite_field "
                               "and the lex certificates of restricted and reduced have none")
    verify_p.add_argument("--no-controls", action="store_true",
                          help="skip the corrupted-fixture controls")
    _add_output_flags(verify_p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gens": _cmd_gens,
        "gb": _cmd_gb,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
    }
    try:
        if args.out:  # an --out that cannot be opened fails before any work
            open(args.out, "a", encoding="utf-8").close()
        return handlers[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PairBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
