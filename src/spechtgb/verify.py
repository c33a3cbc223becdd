"""Named verification checks, negative controls, the suite runner, and the CLI.

Every check runs an exact computation and returns a CheckReport whose payload
is deterministic for a fixed (configuration, seed): evidence holds counts and
small witnesses only, timing lives outside the payload. Where a fact has two
independent computational routes (tableau generators plus Buchberger on one
side, the strata intersection oracle on the other) the check runs both and
compares, rather than trusting either.
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
from functools import lru_cache
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
    it did and the fold prefixes it found computed already."""
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


def _generates(basis: list[Poly], gens: list[Poly], order) -> str | None:
    """None when the generators span the ideal of a Groebner basis under
    order, else which half of the test failed: the basis lies among the
    generators, so its ideal is in theirs, and each generator reduces to
    zero by it (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms, ch. 2)."""
    if not set(basis) <= set(gens):
        return "a basis element is not a generator"
    if not _reduce_to_zero(gens, basis, order):
        return "a generator is outside the basis's ideal"
    return None


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


# ---------------------------------------------------------------------------
# individual checks


def check_lexgb(filt: PartitionFilter, *, field: Field = QQ) -> CheckReport:
    """The column-standard generator set of a lower filter is already a basis
    under lex x1 < ... < xn, each generator's lex leading monomial is its
    tableau's closed form (initial_monomial), and enumerating every tableau
    instead of only the column-standard ones leaves the ideal unchanged,
    tested by membership against the certified set (_generates). The
    column-standard set is built from set partitions, one per set of
    columns, while all-mode expands every filling and drops the repeats, so
    this comparison is also the runtime cross-check of that construction."""
    parameters = {"n": filt.n, "filter": filter_text(filt), "field": field.text()}

    def body():
        order = lex_order(filt.n)
        gens = filter_generators(filt, field=field)
        cs = tuple(g.polynomial for g in gens)
        for g in gens:
            if leading_term(g.polynomial, order)[0] != initial_monomial(g.tableau):
                return "fail", "a lex leading monomial is not its tableau's closed form", {
                    "tableau": [list(r) for r in g.tableau.rows]}
        ok, counts, failed = _lex_certificate(cs)
        evidence = {"generators": len(cs), "pair_counts": dict(counts)}
        if not ok:
            evidence["failed_pairs"] = [dict(p) for p in failed]
            return "fail", "an S-polynomial did not reduce to zero under lex", evidence
        all_polys = [g.polynomial for g in filter_generators(filt, mode="all", field=field)]
        evidence["all_mode_same_generators"] = same_set = set(all_polys) == set(cs)
        evidence["reduced_basis_size"] = len(_lex_reduced(cs))
        if not same_set and (mismatch := _generates(cs, all_polys, order)):
            return "fail", "all-tableaux mode produced a different reduced basis", {
                **evidence, "mismatch": mismatch}
        return "pass", None, evidence

    return _guarded("lexgb", parameters, body)


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


def _every_order_failure(gens, seed: int, evidence: dict, metrics: dict) -> str | None:
    """Why the generators are not proved a basis under every monomial order,
    or None when they are.

    The proof rests on four facts, tested in this order: the polynomials are
    homogeneous; they are stable up to scalars under every permutation of the
    variables (_stable_under_permutations); they are a basis under lex
    x1 < ... < xn (_lex_certificate, shared per set with the other checks);
    and each is, up to a scalar, its tableau's column product of factors
    x_i - x_j (_column_product). Stability carries the lex basis to every
    lex ranking. Leading terms multiply, so under any order each generator's
    leading term is the product of its factors' larger variables, which is
    its leading term under the lex order that ranks the variables alike. The
    leading terms therefore generate that lex order's initial ideal, which
    lies inside the order's own; the ideal is homogeneous, so both have its
    Hilbert function and are equal. That holds over any field. Three seeded
    referee orders (_referee_orders), named in evidence, then cross-check
    the proof without its column-product argument, though leaning on the
    lex certificate: the leading monomials under lex then generate the
    initial ideal, so they have the ideal's Hilbert series, and under a
    referee order they generate part of its initial ideal, all of it (the
    set is a basis there) exactly when the two series agree
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
    keys = [_scaled(p.terms, p.field) for p in polys]
    stable = _stable_under_permutations(polys, set(keys))
    lap("stability")
    if not stable:
        return "not stable under permutations of the variables"
    lex_basis = _lex_certificate(tuple(polys))[0]
    lap("lex_certificate")
    if not lex_basis:
        return f"not a basis under {lex_order(n).text()}"
    for g, key in zip(gens, keys):
        product = _column_product(g.tableau, g.polynomial.field)
        if _scaled(product.terms, product.field) != key:
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

    def body():
        gens = filter_generators(filt, field=field)
        evidence = {"generators": len(gens)}
        failure = _every_order_failure(gens, seed, evidence, metrics)
        if failure:
            return "fail", failure, evidence
        return "pass", None, evidence

    return _guarded("universal", parameters, body, metrics)


def check_reduced(filt: PartitionFilter, *,
                  pair_budget: int = DEFAULT_PAIR_BUDGET) -> CheckReport:
    """Dual-route identity for a lower filter: the ideal generated from its
    tableaux equals the full vanishing ideal of the strata outside the filter,
    computed independently as an intersection of subspace primes. Checked by
    two-sided membership and by exact reduced-basis agreement; passing means
    the generated ideal is radical and cuts out exactly those strata."""
    parameters = {"n": filt.n, "filter": filter_text(filt), "field": "Q"}

    def body():
        order = lex_order(filt.n)
        gens = [g.polynomial for g in filter_generators(filt)]
        lhs = groebner_basis(gens, order, pair_budget=pair_budget)
        complement = filt.complement()
        if not len(complement):
            one = Poly.constant(1, filt.n, QQ)
            if lhs == [one]:
                return "pass", None, {"complement_size": 0, "unit_ideal": True}
            return "fail", "the full filter should generate the unit ideal", {
                "reduced_basis_size": len(lhs)}
        oracle = vanishing_ideal_oracle(complement, pair_budget=pair_budget)
        rhs = list(oracle.generators)
        oracle_in_gens = _reduce_to_zero(rhs, lhs, order)
        gens_in_oracle = _reduce_to_zero(gens, rhs, order)
        evidence = {
            "complement_size": len(complement),
            "generators": len(gens),
            "oracle_basis_size": len(rhs),
            "reduced_basis_size": len(lhs),
            "oracle_contained_in_generated": oracle_in_gens,
            "generated_contained_in_oracle": gens_in_oracle,
            "reduced_bases_equal": lhs == rhs,
        }
        if oracle_in_gens and gens_in_oracle and lhs == rhs:
            return "pass", None, evidence
        return "fail", "generated ideal and strata oracle disagree", evidence

    metrics: dict = {}
    return _guarded("reduced", parameters, _counting_oracle(body, metrics), metrics)


def check_stratum_vanishing(n: int, *, samples: int = 10, seed: int = 0) -> CheckReport:
    """Every generator of a shape vanishes at every sampled point of every
    stratum whose type the shape does not dominate, and at each sampled point
    of a dominated stratum at least one generator of the shape is nonzero."""
    parameters = {"n": n, "samples": samples, "seed": seed, "field": "Q"}

    def body():
        shapes = partitions_of(n)
        zero = QQ.zero
        zero_evaluations = 0
        witness_points = 0
        for lam_idx, lam in enumerate(shapes):
            gens = [g.polynomial for g in shape_generators(lam)]
            for mu_idx, mu in enumerate(shapes):
                stratum_seed = seed * 1_000_003 + lam_idx * len(shapes) + mu_idx
                points = sample_stratum(mu, samples, stratum_seed)
                if not dominates(lam, mu):
                    # generator by generator, each at every point in turn
                    for values in zip(*(evaluations(gens, point) for point in points)):
                        for v in values:
                            if v != zero:
                                return "fail", (
                                    f"a generator of {partition_text(lam)} is nonzero on "
                                    f"a point of type {partition_text(mu)}"
                                ), {"zero_evaluations": zero_evaluations}
                            zero_evaluations += 1
                else:
                    for point in points:
                        if all(v == zero for v in evaluations(gens, point)):
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

    return _guarded("vanishing", parameters, body)


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


def _random_member(gens: list[Poly], rng: random.Random) -> Poly:
    n = gens[0].nvars
    f = Poly.zero(n, QQ)
    for g in gens:
        f = f + _random_degree2_poly(n, rng) * g
    return f


def check_coefficient_descent(n: int, *, trials: int = 20, seed: int = 0,
                              pair_budget: int = DEFAULT_PAIR_BUDGET) -> CheckReport:
    """Write any member of an upper filter's vanishing ideal in powers of the
    last variable, with top degree d: every coefficient polynomial must lie in
    the vanishing ideal of the filter derived at row index d + 1, over the
    ring with one variable fewer. Tried on random ideal members; membership of
    the input is verified before the coefficient property is asserted."""
    parameters = {"n": n, "trials": trials, "seed": seed, "field": "Q"}

    def body():
        order = lex_order(n)
        inner_order = lex_order(n - 1)
        filters = enumerate_upper_filters(n)
        memberships = 0
        trivial = 0
        for f_idx, filt in enumerate(filters):
            oracle = vanishing_ideal_oracle(filt, pair_budget=pair_budget)
            if oracle.is_zero():
                trivial += 1
                continue
            gens = list(oracle.generators)
            rng = random.Random(seed * 7919 + f_idx)
            for _ in range(trials):
                f = _random_member(gens, rng)
                redraws = 0
                while not f.terms and redraws < 20:
                    f = _random_member(gens, rng)
                    redraws += 1
                if not f.terms:
                    continue
                if not _reduce_to_zero([f], gens, order):
                    return "fail", "a constructed member failed its membership precondition", {
                        "filter": filter_text(filt)}
                shares = coefficients_in_last_variable(f)
                top_degree = len(shares) - 1
                derived = derived_filter(filt, top_degree + 1)
                if not len(derived):
                    trivial += len(shares)
                    continue
                derived_oracle = vanishing_ideal_oracle(derived, pair_budget=pair_budget)
                for share in shares:
                    if not _reduce_to_zero([share], derived_oracle.generators, inner_order):
                        return "fail", "a coefficient escaped the derived filter's ideal", {
                            "filter": filter_text(filt),
                            "derived": filter_text(derived),
                            "top_degree": top_degree,
                        }
                    memberships += 1
        evidence = {
            "filters": len(filters),
            "memberships": memberships,
            "trivial_cases": trivial,
        }
        return "pass", None, evidence

    metrics: dict = {}
    return _guarded("descent", parameters, _counting_oracle(body, metrics), metrics)


def check_restricted(shape, *, field: Field = QQ) -> CheckReport:
    """The standard-tableau generators of the shapes below a given one that
    keep its first-row length form a lex basis on their own, and they generate
    the same ideal as the full generator set of the shape's principal filter,
    tested by membership against the certified set (_generates)."""
    lam = validate_partition(shape)
    n = sum(lam)
    parameters = {"n": n, "shape": partition_text(lam), "field": field.text()}

    def body():
        restricted = tuple(g.polynomial
                           for g in restricted_standard_generators(lam, field=field))
        ok, counts, _ = _lex_certificate(restricted)
        evidence = {"restricted_generators": len(restricted), "pair_counts": dict(counts)}
        if not ok:
            return "fail", "the restricted set is not a basis under lex", evidence
        full = [g.polynomial
                for g in filter_generators(filter_closure(n, [lam], "lower"), field=field)]
        evidence["full_generators"] = len(full)
        evidence["reduced_basis_size"] = len(_lex_reduced(restricted))
        if mismatch := _generates(restricted, full, lex_order(n)):
            return "fail", "the restricted set generates a different ideal", {
                **evidence, "mismatch": mismatch}
        return "pass", None, evidence

    return _guarded("restricted", parameters, body)


def check_finite_field(filt: PartitionFilter, p: int) -> CheckReport:
    """What reducing mod p adds to lexgb and universal run over F_p: the
    generator set is a lex basis over F_p and over Q, and its reduced basis
    over F_p is the termwise image of the rational one."""
    parameters = {"n": filt.n, "filter": filter_text(filt), "p": p}

    def body():
        fp = GF(p)
        gens_p = filter_generators(filt, field=fp)
        polys_p = tuple(g.polynomial for g in gens_p)
        ok, counts, _ = _lex_certificate(polys_p)
        evidence = {"generators_mod_p": len(gens_p), "pair_counts": dict(counts)}
        if not ok:
            return "fail", f"not a lex basis over F_{p}", evidence
        polys_q = tuple(g.polynomial for g in filter_generators(filt))
        if not _lex_certificate(polys_q)[0]:
            return "fail", "the rational generators are not a lex basis", evidence
        try:
            image = tuple(Poly(filt.n, fp, g.terms) for g in _lex_reduced(polys_q))
        except ValueError:
            return "fail", f"a rational coefficient has no image mod {p}", evidence
        rgb_p = _lex_reduced(polys_p)
        evidence["reduced_basis_size"] = len(rgb_p)
        if image != rgb_p:
            return "fail", "the reduced basis mod p is not the image of the rational one", evidence
        return "pass", None, evidence

    return _guarded("finite_field", parameters, body)


def check_containment(n: int, *, field: Field = QQ,
                      pair_budget: int = DEFAULT_PAIR_BUDGET) -> CheckReport:
    """For every strict dominance relation between shapes, each standard
    generator of the lower shape reduces to zero against a basis computed from
    the higher shape's own generators alone."""
    parameters = {"n": n, "field": field.text()}

    def body():
        order = lex_order(n)
        shapes = partitions_of(n)
        bases = {lam: groebner_basis([g.polynomial for g in shape_generators(lam, field=field)],
                                     order, pair_budget=pair_budget) for lam in shapes}
        comparable_pairs = 0
        memberships = 0
        for lam in shapes:
            for mu in shapes:
                if mu == lam or not dominates(lam, mu):
                    continue
                comparable_pairs += 1
                gens = [g.polynomial for g in shape_generators(mu, mode="standard", field=field)]
                if not _reduce_to_zero(gens, bases[lam], order):
                    return "fail", (
                        f"a generator of {partition_text(mu)} is outside the ideal "
                        f"of {partition_text(lam)}"
                    ), {"comparable_pairs": comparable_pairs}
                memberships += len(gens)
        evidence = {
            "shapes": len(shapes),
            "comparable_pairs": comparable_pairs,
            "memberships": memberships,
        }
        return "pass", None, evidence

    return _guarded("containment", parameters, body)


def check_engine(*, trials: int = 100, seed: int = 0,
                 pair_budget: int = DEFAULT_PAIR_BUDGET) -> CheckReport:
    """Engine self-consistency on randomized inputs: permuting the generators
    never changes the reduced basis, and neither does disabling the chain
    criterion."""
    parameters = {"trials": trials, "seed": seed}

    def body():
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
            base = groebner_basis(gens, order, pair_budget=pair_budget)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            if groebner_basis(shuffled, order, pair_budget=pair_budget) != base:
                return "fail", "permuting the generators changed the reduced basis", {
                    "trial": trial}
            no_chain = groebner_basis(gens, order, pair_budget=pair_budget,
                                      use_chain_criterion=False)
            if no_chain != base:
                return "fail", "the chain criterion changed the reduced basis", {"trial": trial}
            ran += 1
        return "pass", None, {"trials_run": ran}

    return _guarded("engine", parameters, body)


# ---------------------------------------------------------------------------
# negative controls: corrupted fixtures that the checks must reject


def _control(name: str, parameters: dict, body) -> CheckReport:
    def judged():
        detected, evidence = body()
        if detected:
            return "pass", None, evidence
        return "fail", "a corrupted input went undetected", evidence

    return _guarded(f"control_{name}", parameters, judged)


def negative_controls(*, seed: int = 0) -> list[CheckReport]:
    """One deliberately corrupted fixture per check class.

    Each control passes exactly when the corrupted computation is detected as
    wrong, so a passing control certifies that its check can actually fail.
    """
    reports = []

    def lexgb_body():
        # one shape dropped from a two-shape filter, label kept: what is
        # left is a lex basis whose ideal misses the all-mode generators
        corrupted = [g.polynomial for g in shape_generators((1, 1, 1))]
        every = filter_generators(filter_closure(3, [(2, 1)], "lower"), mode="all")
        detected = _generates(corrupted, [g.polynomial for g in every], lex_order(3)) is not None
        return detected, {"dropped_shape": partition_text((2, 1))}

    reports.append(_control("lexgb", {"n": 3, "filter": "lower:[2,1],[1,1,1]"}, lexgb_body))

    def universal_body():
        # x3 - x1 dropped from the stable set of lower<=[2,1]: the rest is
        # still a lex basis, so only the stability test can refuse it
        gens = filter_generators(filter_closure(3, [(2, 1)], "lower"))
        kept = [g for g in gens if g.tableau.rows != ((1, 2), (3,))]
        failure = _every_order_failure(kept, seed, {}, {})
        return failure == "not stable under permutations of the variables", {"reason": failure}

    reports.append(_control("universal", {"n": 3, "fixture": "lower<=[2,1] without x3-x1"},
                            universal_body))

    def reduced_body():
        # generated ideal compared against the oracle of the wrong complement
        order = lex_order(3)
        filt = filter_closure(3, [(1, 1, 1)], "lower")
        lhs = groebner_basis([g.polynomial for g in filter_generators(filt)], order)
        wrong = vanishing_ideal_oracle(filter_closure(3, [(3,)], "upper"))
        detected = lhs != list(wrong.generators)
        return detected, {"filter": filter_text(filt), "wrong_complement": "upper:[3]"}

    reports.append(_control("reduced", {"n": 3, "filter": "lower:[1,1,1]"}, reduced_body))

    def vanishing_body():
        # a dominated stratum: the generators must NOT all vanish there
        gens = [g.polynomial for g in shape_generators((2, 1))]
        points = sample_stratum((1, 1, 1), 5, seed)
        zero = QQ.zero
        all_vanish = all(v == zero for point in points for v in evaluations(gens, point))
        return not all_vanish, {"shape": "[2,1]", "stratum": "[1,1,1]", "points": len(points)}

    reports.append(_control("vanishing", {"n": 3, "seed": seed}, vanishing_body))

    def descent_body():
        # f outside the filter's ideal: the precondition must reject it, and
        # the coefficient property must fail when forced anyway
        filt = filter_closure(3, [(2, 1)], "upper")
        oracle = vanishing_ideal_oracle(filt)
        f = Poly(3, QQ, {(1, 0, 0): 1, (0, 1, 0): -1})
        rejected = not _reduce_to_zero([f], oracle.generators, lex_order(3))
        shares = coefficients_in_last_variable(f)
        derived = derived_filter(filt, len(shares))
        derived_oracle = vanishing_ideal_oracle(derived)
        property_fails = not _reduce_to_zero(shares, derived_oracle.generators, lex_order(2))
        return rejected and property_fails, {
            "filter": filter_text(filt),
            "precondition_rejected": rejected,
            "forced_property_failed": property_fails,
        }

    reports.append(_control("descent", {"n": 3, "fixture": "x1-x2 vs upper:[2,1]"},
                            descent_body))

    def restricted_body():
        # drop the shape's own generators from the restricted set: the rest
        # is still a lex basis, so only the membership test can refuse it
        order = lex_order(4)
        lam = (2, 2)
        corrupted = [g.polynomial for g in restricted_standard_generators(lam) if g.shape != lam]
        full = [g.polynomial for g in filter_generators(filter_closure(4, [lam], "lower"))]
        detected = is_groebner_basis(corrupted, order)[0] and _generates(
            corrupted, full, order) == "a generator is outside the basis's ideal"
        return detected, {"shape": partition_text(lam), "kept_generators": len(corrupted)}

    reports.append(_control("restricted", {"n": 4, "shape": "[2,2]"}, restricted_body))

    def finite_field_body():
        # one tail coefficient of the mod-p image bumped by one
        fp = GF(3)
        order = lex_order(2)
        filt = filter_closure(2, [(1, 1)], "lower")
        rgb_p = reduce_groebner_basis(
            [g.polynomial for g in filter_generators(filt, field=fp)], order)
        rgb_q = groebner_basis([g.polynomial for g in filter_generators(filt)], order)
        corrupted = []
        for g in rgb_q:
            terms = {m: fp.coerce(c) for m, c in g.terms.items()}
            tail = min(terms)
            terms[tail] = fp.add(terms[tail], fp.one)
            corrupted.append(Poly(2, fp, terms))
        return corrupted != rgb_p, {"p": 3, "filter": filter_text(filt)}

    reports.append(_control("finite_field", {"n": 2, "p": 3}, finite_field_body))

    def containment_body():
        # reversed inclusion: the lower shape's ideal must not contain the
        # higher shape's generators
        order = lex_order(3)
        low = groebner_basis([g.polynomial for g in shape_generators((1, 1, 1))], order)
        probe = Poly(3, QQ, {(1, 0, 0): 1, (0, 1, 0): -1})
        return not _reduce_to_zero([probe], low, order), {"pair": "[2,1] vs [1,1,1]"}

    reports.append(_control("containment", {"n": 3}, containment_body))

    def engine_body():
        # x1^2 - x2 and x1 are no basis under lex with x1 dominant, and that
        # must be recognized
        not_a_basis = [Poly(2, QQ, {(2, 0): 1, (0, 1): -1}), Poly(2, QQ, {(1, 0): 1})]
        x1_dominant = MonomialOrder("lex", 2, (2, 1))
        ok, _ = is_groebner_basis(not_a_basis, x1_dominant)
        detected = not ok and groebner_basis(not_a_basis, x1_dominant) == [
            Poly(2, QQ, {(0, 1): 1}), Poly(2, QQ, {(1, 0): 1})]
        return detected, {"fixture": "x1^2-x2,x1 under lex:2,1"}

    reports.append(_control("engine", {"n": 2}, engine_body))

    return reports


# ---------------------------------------------------------------------------
# suite


def _suite_lower_filters(n: int):
    if n <= 5:
        return enumerate_lower_filters(n)
    # beyond n = 5 the lattice of filters explodes; principal filters only,
    # built lazily, so that an oversized grid is refused at its first input
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
    runs. expands names the tableau modes in which it may build the
    generators of its input's shapes (see _INPUTS), so that an oversized
    input is refused before any of it runs; a mode with fewer tableaux per
    shape that the check also uses is covered by a larger one.
    """

    takes: str | None
    over: str
    run: Callable[[SuiteConfig, object], CheckReport]
    max_n: int | None = None
    expands: tuple[str, ...] = ("column_standard",)


_CHECKS = {
    "lexgb": _Check("filter", "any", lambda c, filt: check_lexgb(filt, field=c.field),
                    expands=("column_standard", "all")),
    "universal": _Check("filter", "any", lambda c, filt: check_universal(
        filt, seed=c.seed, field=c.field)),
    "reduced": _Check("filter", "Q", lambda c, filt: check_reduced(
        filt, pair_budget=c.pair_budget)),
    "vanishing": _Check("n", "Q", lambda c, n: check_stratum_vanishing(
        n, samples=c.samples, seed=c.seed)),
    # builds no tableaux, but the strata oracles of every upper filter of 7
    # and of its derived filters do not finish in minutes
    "descent": _Check("n", "Q", lambda c, n: check_coefficient_descent(
        n, trials=c.trials, seed=c.seed, pair_budget=c.pair_budget), max_n=6, expands=()),
    "restricted": _Check("shape", "any", lambda c, lam: check_restricted(lam, field=c.field)),
    "finite_field": _Check("filter", "F_p", lambda c, filt: check_finite_field(
        filt, c.field.p), max_n=4),
    "containment": _Check("n", "any", lambda c, n: check_containment(
        n, field=c.field, pair_budget=c.pair_budget)),
    "engine": _Check(None, "any", lambda c, _: check_engine(
        trials=ENGINE_TRIALS, seed=c.seed, pair_budget=c.pair_budget), expands=()),
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
    trials: int = 20
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
            shapes = shapes_of(arg)
            for mode in spec.expands:
                _check_enumeration_size(shapes, mode)


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
        trials=args.trials,
        pair_budget=args.pair_budget,
        include_controls=args.check == "all" and not args.no_controls,
    )
    single = _single_input(args)
    _check_selection_size(config, single)
    if single is None:
        reports = run_suite(config)
    elif _CHECKS[args.check].over == "F_p" and field.p is None:
        raise ValueError(f"a single {args.check} run needs a prime field: pass --field F<p>")
    else:
        reports = _run_check(args.check, config, single)
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
                        choices=("all", "column_standard", "standard", "restricted_standard"))
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
    verify_p.add_argument("--trials", type=_positive, default=20)
    verify_p.add_argument("--pair-budget", type=_nonnegative, default=DEFAULT_PAIR_BUDGET,
                          help="S-pairs per completion or elimination in reduced, descent, "
                               "containment and engine; lexgb, universal, restricted and "
                               "finite_field certify without a budget")
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
