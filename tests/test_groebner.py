"""Normal forms, S-pairs, Buchberger completion, reduced bases, intersections.

sympy's implementation serves as an outside referee for basis computations;
it shares no code with the engine under test.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtgb import (
    IdealBasis,
    MonomialOrder,
    DEFAULT_PAIR_BUDGET,
    PairBudgetExceeded,
    Poly,
    QQ,
    GF,
    buchberger,
    enumerate_lower_filters,
    filter_generators,
    groebner_basis,
    ideal_intersection,
    is_groebner_basis,
    leading_term,
    lex_order,
    normal_form,
    normal_forms,
    partitions_of,
    filter_closure,
    reduce_groebner_basis,
    shape_generators,
)
from spechtgb import groebner
from spechtgb.groebner import _Packed, _settle_pairs
from spechtgb.specht import _normalized

from oracles import (
    mono_divides,
    parse_polynomial,
    ref_buchberger,
    ref_ideal_intersection,
    ref_division,
    ref_groebner_basis,
    ref_is_groebner_basis,
    ref_normal_form,
    ref_reduce_groebner_basis,
    ref_settle_pairs,
)


def p(text, n=3, field=QQ):
    return parse_polynomial(text, n, field)


def to_sympy(f, syms):
    expr = sympy.Integer(0)
    for mono, coeff in f.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(syms, mono):
            if e:
                term *= s**e
        expr += term
    return expr


def sympy_reduced_gb(gens, order):
    """Reduced monic basis computed by sympy, mapped back into our ring."""
    n = gens[0].nvars
    syms = sympy.symbols(f"x1:{n + 1}")
    ordered = [syms[v - 1] for v in reversed(order.ranking)]
    gb = sympy.groebner(
        [to_sympy(g, syms) for g in gens], *ordered, order=order.kind
    )
    out = set()
    for e in gb.exprs:
        poly = sympy.Poly(e, *syms)
        terms = {
            tuple(int(x) for x in mono): Fraction(int(c.p), int(c.q))
            for mono, c in poly.terms()
        }
        f = Poly(n, QQ, terms)
        _, lead_c = leading_term(f, order)
        out.add(f * (Fraction(1) / lead_c))
    return out


def poly_strategy(nvars=3, max_terms=3):
    mono = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.builds(
        Fraction,
        st.integers(-4, 4).filter(lambda v: v != 0),
        st.integers(1, 3),
    )
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda d: Poly(nvars, QQ, d)
    )


def order_strategy(nvars=3):
    return st.tuples(
        st.sampled_from(["lex", "grlex", "grevlex"]),
        st.permutations(list(range(1, nvars + 1))),
    ).map(lambda kr: MonomialOrder(kr[0], nvars, kr[1]))


class TestDivision:
    """The normal form is the remainder of the frozen division in
    tests/oracles.py, whose quotients prove that f - remainder lies in the
    ideal."""

    def test_textbook_example(self):
        order = lex_order(2, [2, 1])  # x1 > x2
        f = p("x1^2*x2 + x1*x2^2 + x2^2", 2)
        basis = [p("x1*x2 - 1", 2), p("x2^2 - 1", 2)]
        quotients, remainder = ref_division(f, basis, order)
        assert quotients[0] == p("x1 + x2", 2)
        assert quotients[1] == p("1", 2)
        assert remainder == p("x1 + x2 + 1", 2)
        assert normal_form(f, basis, order) == remainder

    @settings(max_examples=60)
    @given(
        poly_strategy(),
        st.lists(poly_strategy(), min_size=1, max_size=3),
        order_strategy(),
    )
    def test_reconstruction_invariant(self, f, basis, order):
        quotients, remainder = ref_division(f, basis, order)
        assert typed([normal_form(f, basis, order)]) == typed([remainder])
        rebuilt = remainder
        for q, g in zip(quotients, basis):
            rebuilt = rebuilt + q * g
        assert rebuilt == f
        leads = [leading_term(g, order)[0] for g in basis]
        for mono in remainder.terms:
            assert not any(mono_divides(lm, mono) for lm in leads)
        # no quotient term overshoots the dividend
        if f.terms:
            fkey = order.key(leading_term(f, order)[0])
            for q, lm in zip(quotients, leads):
                for mono in q.terms:
                    assert order.key(
                        tuple(a + b for a, b in zip(mono, lm))
                    ) <= fkey

    def test_rejects_zero_divisor(self):
        with pytest.raises(ValueError):
            normal_form(p("x1"), [Poly.zero(3)], lex_order(3))


class TestBuchberger:
    def test_two_generator_chain(self):
        gens = [g.polynomial for g in shape_generators((2, 1))]
        gb = groebner_basis(gens, lex_order(3))
        assert gb == [p("x2 - x1"), p("x3 - x1")]

    def test_unit_ideal(self):
        gb = groebner_basis([p("x1"), p("x1 + 1")], lex_order(3))
        assert gb == [p("1")]

    def test_stats_account_for_every_pair(self):
        gens = [p("x1^2 + x2"), p("x1*x2 - 1"), p("x2^3 - x1")]
        basis, stats = buchberger(gens, lex_order(3, [3, 2, 1]))
        assert stats["pairs_processed"] == (
            stats["skipped_coprime"]
            + stats["skipped_chain"]
            + stats["zero_reductions"]
            + stats["basis_added"]
        )
        ok, _ = is_groebner_basis(basis, lex_order(3, [3, 2, 1]))
        assert ok

    def test_budget_is_enforced(self):
        gens = [
            p("x1^2 + x2^2 + x3^2 - 1"),
            p("x1*x2 - x3"),
            p("x1 + x2 + x3"),
        ]
        with pytest.raises(PairBudgetExceeded) as info:
            buchberger(gens, lex_order(3), pair_budget=1)
        assert info.value.budget == 1
        assert info.value.basis_size == 4

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(poly_strategy(max_terms=2), min_size=1, max_size=3),
        order_strategy(),
        st.randoms(use_true_random=False),
    )
    def test_output_is_a_groebner_basis_containing_the_input(
        self, gens, order, rng
    ):
        gb = groebner_basis(gens, order, pair_budget=20_000)
        ok, cert = is_groebner_basis(gb, order)
        assert ok or not gb
        assert not any(normal_forms(gens, gb, order))
        # invariance under generator shuffling and the chain criterion switch
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert groebner_basis(shuffled, order, pair_budget=20_000) == gb
        assert (
            groebner_basis(gens, order, pair_budget=20_000, use_chain_criterion=False)
            == gb
        )


class TestReducedBasis:
    def test_reduced_form_properties(self):
        order = lex_order(3)
        gens = [p("x3^2 - x1"), p("x3^2 - x2"), p("x1*x3 - x2*x3")]
        gb, _ = buchberger(gens, order)
        reduced = reduce_groebner_basis(gb, order)
        leads = [leading_term(g, order)[0] for g in reduced]
        assert len(set(leads)) == len(leads)
        for i, g in enumerate(reduced):
            assert leading_term(g, order)[1] == Fraction(1)
            others = [lm for j, lm in enumerate(leads) if j != i]
            for mono in g.terms:
                assert not any(mono_divides(lm, mono) for lm in others)
        # ascending by leading monomial
        keys = [order.key(lm) for lm in leads]
        assert keys == sorted(keys)

    def test_is_groebner_basis_flags_incomplete_sets(self):
        order = lex_order(3, [3, 2, 1])
        ok, cert = is_groebner_basis([p("x1*x2 - 1"), p("x1^2 - x3")], order)
        assert not ok
        assert cert["counts"]["failed"] == 1
        assert cert["pairs"] == [{"i": 0, "j": 1, "status": "failed"}]


class TestAgainstSympy:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(poly_strategy(max_terms=2), min_size=1, max_size=2), order_strategy())
    def test_random_systems(self, gens, order):
        ours = set(groebner_basis(gens, order, pair_budget=20_000))
        assert ours == sympy_reduced_gb(gens, order)

    def test_specht_filter_systems(self):
        rng = random.Random(11)
        for n in (3, 4):
            for filt_gen in partitions_of(n):
                filt = filter_closure(n, [filt_gen], "lower")
                gens = [g.polynomial for g in filter_generators(filt)]
                rank = list(range(1, n + 1))
                rng.shuffle(rank)
                for kind in ("lex", "grevlex"):
                    order = MonomialOrder(kind, n, rank)
                    ours = set(groebner_basis(gens, order))
                    assert ours == sympy_reduced_gb(gens, order), (
                        filt_gen,
                        kind,
                        rank,
                    )


class TestIdealOperations:
    def test_membership_basics(self):
        order = lex_order(3)
        gb = groebner_basis([p("x2 - x1"), p("x3 - x1")], order)
        assert not normal_form(p("x3 - x2"), gb, order)
        assert not normal_form(Poly.zero(3), gb, order)
        assert normal_form(p("x1"), gb, order)
        assert normal_form(p("1"), gb, order)
        assert not normal_form(Poly.zero(3), [], order)
        assert normal_form(p("x1"), [], order)

    def test_ideal_equal(self):
        # equal ideals share one reduced basis under a shared order
        order = lex_order(2)
        a = groebner_basis([p("x1", 2), p("x2", 2)], order)
        assert groebner_basis([p("x1 + x2", 2), p("x1 - x2", 2)], order) == a
        assert groebner_basis([p("x1", 2)], order) != a

    def test_zero_ideal_conventions(self):
        z = IdealBasis(2, QQ, (Poly.zero(2), Poly.zero(2)))
        assert z.is_zero()
        order = lex_order(2)
        assert groebner_basis(z.generators, order) == []
        assert not normal_form(Poly.zero(2), [], order)
        assert normal_form(p("x1", 2), [], order)
        with pytest.raises(ValueError):
            IdealBasis(2, QQ, (p("x1"),))  # wrong ring

    def test_intersection_of_coordinate_ideals(self):
        a = IdealBasis(2, QQ, (p("x1", 2),))
        b = IdealBasis(2, QQ, (p("x2", 2),))
        both = ideal_intersection(a, b)
        assert both.generators == (p("x1*x2", 2),)

    def test_triple_intersection_is_principal(self):
        planes = [
            IdealBasis(3, QQ, (p("x1 - x2"),)),
            IdealBasis(3, QQ, (p("x1 - x3"),)),
            IdealBasis(3, QQ, (p("x2 - x3"),)),
        ]
        meet = ideal_intersection(
            ideal_intersection(planes[0], planes[1]), planes[2]
        )
        product = p("x2 - x1") * p("x3 - x1") * p("x3 - x2")
        assert meet.generators == tuple(groebner_basis([product], lex_order(3)))

    def test_intersection_with_zero_and_unit(self):
        a = IdealBasis(2, QQ, (p("x1", 2),))
        zero = IdealBasis(2, QQ, ())
        assert ideal_intersection(a, zero).is_zero()
        unit = IdealBasis(2, QQ, (p("1", 2),))
        assert ideal_intersection(a, unit).generators == a.generators

    # elimination on arbitrary random systems blows up; curated cases keep
    # the property check honest and the runtime bounded
    @pytest.mark.parametrize(
        "ga,gb",
        [
            (["x1", "x2 - x3"], ["x2"]),
            (["x1^2 - x2"], ["x1 - x3"]),
            (["x1*x2"], ["x2*x3"]),
            (["x1 - x2", "x3"], ["x1 + x2"]),
            (["x1^2", "x2^2"], ["x1 + x2 + x3"]),
            (["x3^2 - x1*x2"], ["x3"]),
        ],
    )
    def test_intersection_membership_agrees_with_both_sides(self, ga, gb):
        order = lex_order(3)
        a = IdealBasis(3, QQ, tuple(p(t) for t in ga))
        b = IdealBasis(3, QQ, tuple(p(t) for t in gb))
        meet = ideal_intersection(a, b)
        # the generators are the reduced lex basis of the intersection
        assert list(meet.generators) == groebner_basis(meet.generators, order)
        # every product of one generator from each side lands in the intersection
        products = [f * g for f in a.generators for g in b.generators]
        assert not any(normal_forms(products, list(meet.generators), order))
        # members of the intersection are members on both sides, and the
        # intersection sits inside each factor
        for side in (a, b):
            basis = groebner_basis(side.generators, order)
            assert not any(normal_forms(meet.generators, basis, order))

    def test_intersection_refuses_sixteen_variables(self):
        # the auxiliary variable would be a seventeenth
        x = [Poly.variable(i, 16) for i in range(1, 17)]
        a = IdealBasis(16, QQ, (x[1] - x[0],))
        b = IdealBasis(16, QQ, (x[2] - x[0],))
        with pytest.raises(ValueError, match="at most 15 variables, got 16"):
            ideal_intersection(a, b)
        small = [Poly.variable(i, 15) for i in (1, 2, 3)]
        meet = ideal_intersection(IdealBasis(15, QQ, (small[1] - small[0],)),
                                  IdealBasis(15, QQ, (small[2] - small[0],)))
        assert meet.generators == ((small[1] - small[0]) * (small[2] - small[0]),)

    def test_matches_full_interreduction_on_non_bases(self):
        # reducing only the t-free part gives what reducing the whole
        # elimination basis and then dropping t gave, on inputs that are not
        # Groebner bases
        rng = random.Random(3)
        monos = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
                 if 0 < a + b + c <= 2]
        non_bases = 0
        for _ in range(40):
            sides = [tuple(Poly(3, QQ, {m: rng.choice([-2, -1, 1, 3])
                                        for m in rng.sample(monos, 2)})
                           for _ in range(2)) for _ in range(2)]
            a, b = (IdealBasis(3, QQ, gens) for gens in sides)
            try:
                want = ref_ideal_intersection(a, b, pair_budget=100)
            except PairBudgetExceeded:
                with pytest.raises(PairBudgetExceeded):
                    ideal_intersection(a, b, pair_budget=100)
                continue
            got = ideal_intersection(a, b, pair_budget=100)
            assert typed(got.generators) == typed(want.generators)
            non_bases += not is_groebner_basis(list(a.generators), lex_order(3))[0]
        assert non_bases >= 10


class TestFiniteFieldEngine:
    def test_groebner_over_f5(self):
        order = lex_order(2, [2, 1])
        gens = [p("x1^2 + x2", 2, GF(5)), p("x1*x2 + 3", 2, GF(5))]
        gb = groebner_basis(gens, order)
        ok, _ = is_groebner_basis(gb, order)
        assert ok
        assert not any(normal_forms(gens, gb, order))


class TestRingChecks:
    """Every kernel entry point refuses polynomials with another number of
    variables than its order has, or over another field, instead of
    computing with them."""

    CALLS = {
        "normal_form": lambda: normal_form(p("x2", 2), [p("x3 - x1")], lex_order(3)),
        # the basis and the first polynomial fit the order; the second does not
        "normal_forms": lambda: normal_forms([p("x2"), p("x1", field=GF(3))], [p("x3 - x1")],
                                             lex_order(3)),
        "buchberger": lambda: buchberger([p("x3 - x1"), p("x1^2 + x3", field=GF(5))],
                                         lex_order(3)),
        "groebner_basis": lambda: groebner_basis([p("x3 - x1"), p("x1^2 + x3")], lex_order(2)),
        "reduce_groebner_basis": lambda: reduce_groebner_basis(
            [p("x1", 2), p("x2 + x3", field=GF(3))], lex_order(3)),
        "is_groebner_basis": lambda: is_groebner_basis([p("x3 - x1"), p("x1", 2)], lex_order(3)),
        # the polynomial fits the order; the basis is over another field
        "normal_form_basis": lambda: normal_form(p("x2"), [p("x3 - x1", field=GF(7))],
                                                 lex_order(3)),
    }

    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_other_rings_are_refused(self, entry):
        with pytest.raises(ValueError, match="different rings"):
            self.CALLS[entry]()


def assert_canonical(polys):
    """No Q coefficient is stored as a Fraction with denominator 1."""
    for f in polys:
        for c in f.terms.values():
            assert c != 0
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def mixed_poly_strategy(nvars=3, max_terms=3, linear=False):
    if linear:
        # affine-linear forms keep elimination bases small
        mono = st.sampled_from([tuple(int(i == v) for i in range(nvars))
                                for v in range(-1, nvars)])
    else:
        mono = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.one_of(
        st.integers(-4, 4).filter(lambda v: v != 0),
        st.builds(Fraction, st.integers(-4, 4).filter(lambda v: v != 0), st.integers(1, 3)),
        st.builds(lambda k: Fraction(3 * k, 3), st.integers(1, 4)),
    )
    return st.dictionaries(mono, coeff, min_size=1, max_size=max_terms).map(
        lambda d: Poly(nvars, QQ, d)
    )


class TestCanonicalCoefficients:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(mixed_poly_strategy(max_terms=2), min_size=1, max_size=2),
           order_strategy())
    def test_engine_outputs_match_sympy_and_stay_canonical(self, gens, order):
        basis, _ = buchberger(gens, order, pair_budget=20_000)
        assert_canonical(basis)
        reduced = reduce_groebner_basis(basis, order)
        assert_canonical(reduced)
        assert set(reduced) == sympy_reduced_gb(gens, order)
        f = gens[0] * Fraction(1, 2) + 1
        remainder = normal_form(f, reduced, order)
        assert_canonical([remainder])
        quotients, old_remainder = ref_division(f, reduced, order)
        assert typed([remainder]) == typed([old_remainder])
        assert_canonical(quotients)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(mixed_poly_strategy(max_terms=3, linear=True), min_size=1, max_size=2),
           st.lists(mixed_poly_strategy(max_terms=3, linear=True), min_size=1, max_size=2))
    def test_intersection_outputs_stay_canonical(self, ga, gb):
        meet = ideal_intersection(IdealBasis(3, QQ, tuple(ga)), IdealBasis(3, QQ, tuple(gb)))
        assert_canonical(meet.generators)
        # the generators are the reduced lex basis of the intersection
        products = [f * g for f in ga for g in gb]
        assert not any(normal_forms(products, list(meet.generators), lex_order(3)))

    def test_normalized_generators_stay_canonical(self):
        order = lex_order(3)
        scaled = p("2*x3 - 4*x1 + 1")
        normalized = _normalized(scaled, order)
        assert normalized.terms == {(0, 0, 1): 1, (1, 0, 0): -2, (0, 0, 0): Fraction(1, 2)}
        assert_canonical([normalized])
        for lam in partitions_of(4):
            assert_canonical(g.polynomial for g in shape_generators(lam))

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)], ids=lambda f: f.text())
    def test_normalized_negation_is_scaling_by_the_inverse(self, field):
        # a leading coefficient of -1 negates; over F2, -1 = 1 keeps f as it is
        order = lex_order(3)
        f = p("-x3*x1 + 2*x2^2 - x1 + 1", field=field)
        assert leading_term(f, order)[1] == field.neg(field.one)
        scaled = f.term_mul((0, 0, 0), field.inv(field.neg(field.one)))
        normalized = _normalized(f, order)
        assert typed([normalized]) == typed([scaled])
        assert list(normalized.terms) == list(scaled.terms)
        assert leading_term(normalized, order)[1] == field.one
        if field.p == 2:
            assert normalized is f


def typed(polys):
    """Each polynomial's terms with every coefficient's type, in list order."""
    return [sorted((m, type(c).__name__, c) for m, c in f.terms.items()) for f in polys]


def assert_core_matches_two_loop_engine(gens, order, chain, pair_budget=DEFAULT_PAIR_BUDGET):
    """The shared pair core gives exactly what the two-loop engine gave."""
    assert (is_groebner_basis(gens, order, use_chain_criterion=chain)
            == ref_is_groebner_basis(gens, order, use_chain_criterion=chain))
    try:
        old_basis, old_stats = ref_buchberger(gens, order, pair_budget=pair_budget,
                                              use_chain_criterion=chain)
    except PairBudgetExceeded as e:
        with pytest.raises(PairBudgetExceeded) as info:
            buchberger(gens, order, pair_budget=pair_budget, use_chain_criterion=chain)
        assert (info.value.budget, info.value.basis_size) == (e.budget, e.basis_size)
        return
    basis, stats = buchberger(gens, order, pair_budget=pair_budget, use_chain_criterion=chain)
    assert stats == old_stats
    assert typed(basis) == typed(old_basis)
    assert typed(reduce_groebner_basis(basis, order)) == typed(
        ref_reduce_groebner_basis(old_basis, order))


class TestPairCoreMatchesTwoLoopEngine:
    """Differential tests against the pair loops the shared core replaced
    (kept verbatim in tests/oracles.py)."""

    @pytest.mark.parametrize("chain", [True, False])
    def test_filter_generators_under_lex_grevlex_and_weight_orders(self, chain):
        rng = random.Random(5)
        for n in (2, 3, 4):
            for filt in enumerate_lower_filters(n):
                gens = [g.polynomial for g in filter_generators(filt)]
                rank = list(range(1, n + 1))
                rng.shuffle(rank)
                weights = [Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(n)]
                for order in (lex_order(n), MonomialOrder("grevlex", n, rank),
                              MonomialOrder("weight", n, rank, weights)):
                    assert_core_matches_two_loop_engine(gens, order, chain)
                    # the generators are a basis already: reduce them directly
                    assert typed(reduce_groebner_basis(gens, order)) == typed(
                        ref_reduce_groebner_basis(gens, order))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(poly_strategy(max_terms=3), min_size=1, max_size=4),
           order_strategy(), st.booleans())
    def test_random_sets_certify_alike(self, gens, order, chain):
        # most random sets are not bases, so failed pairs and the chain
        # criterion's treatment of failed links are exercised
        assert (is_groebner_basis(gens, order, use_chain_criterion=chain)
                == ref_is_groebner_basis(gens, order, use_chain_criterion=chain))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(mixed_poly_strategy(max_terms=2), min_size=1, max_size=3),
           order_strategy(), st.booleans(), st.sampled_from([None, 5]))
    def test_random_sets_complete_and_reduce_alike(self, gens, order, chain, prime):
        if prime is not None:
            gens = [Poly(3, GF(prime), g.terms) for g in gens]
        assert_core_matches_two_loop_engine(gens, order, chain, pair_budget=2_000)

    def test_budget_exhaustion_matches(self):
        gens = [p("x1^2 + x2^2 + x3^2 - 1"), p("x1*x2 - x3"), p("x1 + x2 + x3")]
        for budget in (0, 1, 3, 6):
            assert_core_matches_two_loop_engine(gens, lex_order(3), True, pair_budget=budget)

    def test_a_failed_pair_never_links_a_chain_skip(self):
        # pair (1,2) would be skipped via k=0 if the failed pair (0,1) counted
        # as settled; the verdict is the same, the evidence is not
        gens = [p("-x2*x3"), p("-x2*x3 + 2*x1"), p("2*x1*x2*x3^2")]
        ok, cert = is_groebner_basis(gens, lex_order(3))
        assert not ok
        assert cert["pairs"] == [
            {"i": 0, "j": 1, "status": "failed"},
            {"i": 0, "j": 2, "status": "zero_reduction"},
            {"i": 1, "j": 2, "status": "failed"},
        ]
        assert cert["counts"] == {"total": 3, "zero_reduction": 1, "coprime": 0,
                                  "chain": 0, "failed": 2}



def any_order_strategy(nvars=3):
    """Orders of all four kinds, with weights for the weight orders."""
    weights = st.lists(st.builds(Fraction, st.integers(1, 6), st.integers(1, 3)),
                       min_size=nvars, max_size=nvars)
    return st.tuples(
        st.sampled_from(MonomialOrder.KINDS), st.permutations(list(range(1, nvars + 1))), weights,
    ).map(lambda kr: MonomialOrder(kr[0], nvars, kr[1], kr[2] if kr[0] == "weight" else None))


def field_polys(field, nvars=3, max_terms=3, min_size=1, max_size=3):
    """Lists of nonzero polynomials over the field, exponents up to 2; F_p
    coefficients are drawn from 1..p-1, so every residue class but 0 occurs."""
    if field.p is None:
        poly = mixed_poly_strategy(nvars, max_terms)
    else:
        poly = st.dictionaries(st.tuples(*[st.integers(0, 2)] * nvars),
                               st.integers(1, field.p - 1), min_size=1, max_size=max_terms
                               ).map(lambda d: Poly(nvars, field, d))
    return st.lists(poly, min_size=min_size, max_size=max_size)


FIELDS = st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)])


def settled_alike(gens, order, *, complete, chain, pair_budget=None):
    """The packed pair core settles every pair as the tuple one did, leaves
    its argument alone, and completion grows the same basis, which both
    reduce alike. The tuple core takes the generators made monic; packed
    rows carry 1/lc instead."""
    old_basis = [g.term_mul((0,) * g.nvars, g.field.inv(leading_term(g, order)[1]))
                 for g in gens]

    def settle(finish):
        arg = list(gens)
        result = _settle_pairs(arg, order, complete=complete, pair_budget=pair_budget,
                               use_chain_criterion=chain, finish=finish)
        assert arg == gens
        return result

    try:
        old_log = ref_settle_pairs(old_basis, order, complete=complete, pair_budget=pair_budget,
                                   use_chain_criterion=chain)
    except PairBudgetExceeded as e:
        with pytest.raises(PairBudgetExceeded) as info:
            settle(lambda pk: None)
        assert (info.value.budget, info.value.basis_size) == (e.budget, e.basis_size)
        return
    log, basis = settle(lambda pk: pk.polys(pk.field.canonical, order.nvars))
    assert log == old_log
    assert typed(basis) == typed(old_basis)
    if complete:
        _, reduced = settle(lambda pk: pk.reduced(pk.rows, order.nvars))
        assert typed(reduced) == typed(ref_reduce_groebner_basis(old_basis, order))


class TestSupportIndexedKernel:
    """Differential tests of the packed kernel (divisor search, coprime test,
    chain criterion, S-polynomials and reduction on int monomials) against
    the tuple kernel kept verbatim in tests/oracles.py, under all four order
    kinds with random rankings and weights, over Q and F_p."""

    @settings(max_examples=80, deadline=None)
    @given(FIELDS.flatmap(
               lambda field: st.tuples(field_polys(field, min_size=1, max_size=1),
                                       field_polys(field, max_terms=2, max_size=4))),
           any_order_strategy())
    def test_division_matches_the_full_vector_kernel(self, polys, order):
        (f,), basis = polys
        _, old_remainder = ref_division(f, basis, order)
        assert typed([normal_form(f, basis, order)]) == typed([old_remainder])

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([QQ, GF(2), GF(3), GF(7)]).flatmap(
               lambda field: st.tuples(field_polys(field, max_size=4),
                                       field_polys(field, max_terms=2, min_size=0, max_size=4))),
           any_order_strategy())
    def test_batched_division_matches_the_reference(self, polys, order):
        # every polynomial divided in one packing of the basis, each as alone
        fs, basis = polys
        want = [ref_normal_form(f, basis, order) for f in fs]
        assert typed(normal_forms(fs, basis, order)) == typed(want)
        assert typed([normal_form(f, basis, order) for f in fs]) == typed(want)

    def test_the_basis_is_packed_once_for_every_polynomial(self, monkeypatch):
        packed = []
        pack = _Packed.pack
        monkeypatch.setattr(_Packed, "pack", lambda pk, g: packed.append(g) or pack(pk, g))
        basis = [p("x2 - x1"), p("x3^2 - x1*x2")]
        fs = [p("x3^2*x2"), p("x2^3 + x3"), Poly.zero(3), p("x3^2 - x1^2")]
        assert normal_forms(fs, basis, lex_order(3)) == [
            p("x1^3"), p("x1^3 + x3"), Poly.zero(3), Poly.zero(3)]
        assert packed == basis
        assert normal_forms([], basis, lex_order(3)) == []
        with pytest.raises(ValueError, match="zero polynomial"):
            normal_forms(fs, basis + [Poly.zero(3)], lex_order(3))

    @settings(max_examples=60, deadline=None)
    @given(FIELDS.flatmap(lambda field: field_polys(field, max_size=4)),
           any_order_strategy(), st.booleans())
    def test_certification_logs_match(self, gens, order, chain):
        settled_alike(gens, order, complete=False, chain=chain)

    @settings(max_examples=40, deadline=None)
    @given(FIELDS.flatmap(
               lambda field: field_polys(field, max_terms=2, max_size=3)),
           any_order_strategy(), st.booleans())
    def test_completion_logs_and_bases_match(self, gens, order, chain):
        settled_alike(gens, order, complete=True, chain=chain, pair_budget=500)

    @settings(max_examples=40, deadline=None)
    @given(FIELDS.flatmap(
               lambda field: field_polys(field, max_terms=2, max_size=3)),
           any_order_strategy())
    def test_reduced_bases_match(self, gens, order):
        # completion and reduction in one packing against the two tuple runs
        try:
            want = ref_groebner_basis(gens, order, pair_budget=500)
        except PairBudgetExceeded:
            with pytest.raises(PairBudgetExceeded):
                groebner_basis(gens, order, pair_budget=500)
            return
        assert typed(groebner_basis(gens, order, pair_budget=500)) == typed(want)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
               any_order_strategy(n),
               st.lists(st.tuples(*[st.integers(0, 40)] * n), min_size=1, max_size=8))))
    def test_packed_keys_sort_as_the_order(self, case):
        order, monos = case
        # the narrowest fields that hold every exponent, and fields that hold every product
        narrow = _Packed(order, max(map(max, monos)).bit_length() + 1, QQ)
        wide = _Packed(order, (2 * max(map(max, monos))).bit_length() + 1, QQ)
        for a in monos:
            assert narrow.unpack({narrow.key(a): 1}) == {a: 1}
            for b in monos:
                assert ((narrow.key(a) > narrow.key(b)) == (order.key(a) > order.key(b)))
                product = tuple(x + y for x, y in zip(a, b))
                assert wide.key(a) + wide.key(b) == wide.key(product)
        assert sorted(monos, key=narrow.key) == sorted(monos, key=order.key)

    def test_a_shared_variable_is_not_divisibility(self):
        # x1^2 shares x1 with x1*x2 but does not divide it; x1 does
        order = lex_order(2, [2, 1])  # x1 > x2
        for basis, quotients, remainder in (
                ([p("x1^2", 2)], [Poly.zero(2)], p("x1*x2", 2)),
                ([p("x1^2 + x2", 2)], [Poly.zero(2)], p("x1*x2", 2)),
                ([p("x1^2 + x2", 2), p("x1 - 1", 2)], [Poly.zero(2), p("x2", 2)], p("x2", 2))):
            assert normal_form(p("x1*x2", 2), basis, order) == remainder
            assert ref_division(p("x1*x2", 2), basis, order) == (quotients, remainder)
        # under x2 > x1, x1^2 sorts first and must not absorb x1*x2
        assert reduce_groebner_basis([p("x1*x2", 2), p("x1^2", 2)], lex_order(2)) == [
            p("x1^2", 2), p("x1*x2", 2)]

    def test_a_constant_leading_monomial_divides_everything(self):
        order = lex_order(3)
        assert not normal_form(p("x1*x2 + 2*x3"), [p("3")], order)
        assert ref_division(p("x1*x2 + 2*x3"), [p("3")], order) == (
            [p("1/3*x1*x2 + 2/3*x3")], Poly.zero(3))
        assert reduce_groebner_basis([p("x1 + 1"), p("2")], order) == [p("1")]
        ok, cert = is_groebner_basis([p("x1 + 1"), p("2")], order)
        assert ok and cert["pairs"] == [{"i": 0, "j": 1, "status": "coprime"}]

    def test_coprime_and_chain_read_exponents_not_only_variables(self):
        order = lex_order(3)
        ok, cert = is_groebner_basis([p("x1^2"), p("x2^3")], order)
        assert ok and cert["pairs"] == [{"i": 0, "j": 1, "status": "coprime"}]
        # x1^2 shares x1 with x1*x2 and x1*x3, but does not divide the lcm
        # x1*x2*x3 of the last pair, so it cannot link that pair as a chain
        ok, cert = is_groebner_basis([p("x1^2"), p("x1*x2"), p("x1*x3")], order)
        assert ok and [pair["status"] for pair in cert["pairs"]] == ["zero_reduction"] * 3
        for gens in ([p("x1^2"), p("x1*x2"), p("x1*x3")],
                     [p("x1*x3"), p("x1*x2 + x3"), p("x1^2 + x2")]):
            for chain in (True, False):
                settled_alike(gens, order, complete=False, chain=chain)
                settled_alike(gens, lex_order(3, [3, 2, 1]), complete=True, chain=chain)


def mora_generators(k):
    # Mora's binomials in x4 > x3 > x2 > x1: of degree k + 1, with a reduced
    # grevlex basis that holds x2^(k^2 + 1) - x3^(k^2)*x1
    return [p(f"x4^{k + 1} - x3*x2^{k - 1}*x1", 4), p(f"x4*x3^{k - 1} - x2^{k}", 4),
            p(f"x4^{k}*x2 - x3^{k}*x1", 4)]


class TestPackedWidening:
    """Exponents that outgrow the initial packed fields. Fields start wide
    enough for four times the inputs' largest degree; a product past that
    sets a guard bit, and the call restarts with fields twice as wide. The
    degree of a graded or weight key sits above the variable fields, where an
    int has no bound: in those orders the degree passes the initial field
    width long before a variable field overflows. Each test fails with the
    guard checks removed."""

    @pytest.fixture
    def widths(self, monkeypatch):
        seen = []
        init = groebner._Packed.__init__

        def spy(packing, order, bits, field):
            seen.append(bits)
            init(packing, order, bits, field)

        monkeypatch.setattr(groebner._Packed, "__init__", spy)
        return seen

    def agree(self, gens, order, widths, *, widened=None):
        # widened: whether completion must restart with wider fields (None: either)
        # (a small pair budget keeps a wrong completion from running on)
        widths.clear()
        basis, stats = buchberger(gens, order, pair_budget=500)
        old_basis, old_stats = ref_buchberger(gens, order, pair_budget=500)
        assert stats == old_stats and typed(basis) == typed(old_basis)
        assert widened is None or (len(widths) > 1) == widened
        reduced = reduce_groebner_basis(basis, order)
        assert typed(reduced) == typed(ref_reduce_groebner_basis(old_basis, order))
        if order.kind != "weight":
            assert set(reduced) == sympy_reduced_gb(gens, order)
        return reduced

    def test_lex_squaring_chain(self, widths):
        # x_{j+1} - x_j^2 has the reduced lex basis x_{j+1} - x1^(2^j): the
        # inputs have degree 2, and x1^16 passes fields sized for 8
        gens = [p(f"x{j + 1} - x{j}^2", 5) for j in range(1, 5)]
        reduced = self.agree(gens, lex_order(5), widths, widened=False)
        assert reduced[-1] == p("x5 - x1^16", 5)
        widths.clear()
        assert reduce_groebner_basis(gens, lex_order(5)) == reduced and len(widths) == 2
        widths.clear()
        assert normal_form(p("x5^3", 5), gens, lex_order(5)) == p("x1^48", 5)
        assert len(widths) == 2
        assert typed([normal_form(p("x5^3 + x4*x3", 5), gens, lex_order(5))]) == typed(
            [ref_normal_form(p("x5^3 + x4*x3", 5), gens, lex_order(5))])
        # in a batch, the one polynomial that overflows restarts every division
        fs = [p("x4*x3 - x2", 5), p("x5^3 + x4*x3", 5), p("x2^2 + 1", 5)]
        widths.clear()
        assert typed(normal_forms(fs, gens, lex_order(5))) == typed(
            [ref_normal_form(f, gens, lex_order(5)) for f in fs])
        assert len(widths) == 2

    def test_lex_completion(self, widths):
        # degree 7 in, an exponent of 23 out
        gens = [p("x1*x3 - x1^3*x2"), p("x1^2*x3 - x1^3*x2*x3^3"), p("x1^2*x3^3 - x2^2")]
        self.agree(gens, lex_order(3), widths, widened=True)
        # here an S-polynomial, not a reduction step, is the first to overflow
        gens = [p("x3 - x1*x2^3*x3^3"), p("x1^3*x2^2*x3 - x1^3*x3^3"), p("x3^2 - x1^3*x3")]
        self.agree(gens, lex_order(3), widths, widened=True)
        for ranking in itertools.permutations([1, 2, 3]):
            self.agree([p("x2 - x1^300"), p("x1^200*x3 - x2")], lex_order(3, ranking), widths)

    def test_reduction_overflow_restarts_completion(self, widths, monkeypatch):
        # the squaring chain completes in fields sized for its degree 2, but
        # its reduction reaches x1^16 and overflows them: completion and
        # reduction share one packing, so both run again with wider fields
        gens = [p(f"x{j + 1} - x{j}^2", 5) for j in range(1, 5)]
        reduced_at = []
        reduced = groebner._Packed.reduced

        def spy(packing, rows, nvars):
            reduced_at.append(packing.bits)
            return reduced(packing, rows, nvars)

        monkeypatch.setattr(groebner._Packed, "reduced", spy)
        widths.clear()
        got = groebner_basis(gens, lex_order(5))
        assert got[-1] == p("x5 - x1^16", 5)
        assert typed(got) == typed(ref_groebner_basis(gens, lex_order(5)))
        assert reduced_at == widths == [5, 10]
        # and as the second input of an intersection with (x1^2), whose
        # elimination fits the fields its reduction overflows
        a, b = IdealBasis(5, QQ, (p("x1^2", 5),)), IdealBasis(5, QQ, tuple(gens))
        reduced_at.clear()
        widths.clear()
        got = ideal_intersection(a, b)
        assert typed(got.generators) == typed(ref_ideal_intersection(a, b).generators)
        assert reduced_at == widths == [5, 10]

    @pytest.mark.parametrize("order", [
        MonomialOrder("grlex", 4), MonomialOrder("grevlex", 4),
        MonomialOrder("weight", 4, None, [1, 2, 1, 1]),
        MonomialOrder("weight", 4, [2, 1, 3, 4], [Fraction(1, 2), 1, 1, 1])])
    def test_graded_and_weight_orders(self, order, widths):
        # degree 7 in, a basis element of degree 37 out
        self.agree(mora_generators(6), order, widths, widened=True)

    def test_over_a_prime_field(self, widths):
        gens = [Poly(4, GF(7), g.terms) for g in mora_generators(6)]
        order = MonomialOrder("grevlex", 4)
        widths.clear()
        basis, stats = buchberger(gens, order, pair_budget=500)
        assert len(widths) > 1
        old_basis, old_stats = ref_buchberger(gens, order, pair_budget=500)
        assert stats == old_stats and typed(basis) == typed(old_basis)
