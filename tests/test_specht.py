"""Difference-product generators: construction, normalization, spans."""

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtgb import (
    GF,
    SuiteConfig,
    Poly,
    QQ,
    Tableau,
    filter_closure,
    filter_generators,
    initial_monomial,
    leading_term,
    lex_order,
    partitions_of,
    restricted_standard_generators,
    run_suite,
    shape_generators,
    specht_polynomial,
    standard_span_rank,
    tableaux,
    dominates,
)
from spechtgb import specht

from oracles import (
    bell_number,
    brute_permutation_sign,
    column_pairs,
    difference_product,
    eval_poly,
    hook_length_count,
    is_standard_filling,
    ref_fillings,
    ref_poly_rank,
    ref_shape_generators,
    ref_specht_polynomial,
    relabeled_rows,
)

shapes_small = st.integers(2, 6).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


class TestSpechtPolynomial:
    def test_matches_brute_expansion_everywhere(self):
        for n in range(2, 6):
            for lam in partitions_of(n):
                for rows in ref_fillings(lam):
                    ref = difference_product(column_pairs(rows), n)
                    assert specht_polynomial(Tableau(rows)).terms == ref

    def test_worked_example(self):
        t = Tableau([[3, 2, 1, 7], [4, 5], [6]])
        f = specht_polynomial(t)
        assert len(f.terms) == 12
        assert max(map(sum, f.terms)) == 4
        mono, coeff = leading_term(f, lex_order(7))
        assert mono == (0, 0, 0, 1, 1, 2, 0)
        assert coeff == Fraction(1)

    def test_single_row_gives_one(self):
        t = Tableau([[2, 1, 3]])
        assert specht_polynomial(t) == Poly.constant(1, 3)

    def test_column_standard_leading_term_law(self):
        # lead monomial records each entry's row; lead coefficient is
        # (-1)^degree because the lower entry of every factor is the larger
        for n in range(2, 6):
            order = lex_order(n)
            for lam in partitions_of(n):
                for t in tableaux(lam, "column_standard"):
                    f = specht_polynomial(t)
                    mono, coeff = leading_term(f, order)
                    assert mono == initial_monomial(t)
                    assert coeff == Fraction((-1) ** max(map(sum, f.terms)))

    def test_initial_monomial_requires_column_standard(self):
        t = Tableau([[2, 1], [3]])
        assert t.is_column_standard()
        assert initial_monomial(t) == (0, 0, 1)
        bad = Tableau([[3, 1], [2]])
        assert not bad.is_column_standard()
        with pytest.raises(ValueError):
            initial_monomial(bad)

    def test_finite_field_image(self):
        t = Tableau([[1, 2], [3], [4]])
        f5 = specht_polynomial(t, GF(5))
        fq = specht_polynomial(t)
        assert f5 == Poly(4, GF(5), fq.terms)

    @settings(max_examples=40)
    @given(shapes_small, st.randoms(use_true_random=False))
    def test_relabeling_acts_as_variable_substitution(self, lam, rng):
        ts = tableaux(lam, "column_standard")
        t = ts[rng.randrange(len(ts))]
        # relabeling by any permutation permutes variables consistently
        n = sum(lam)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        u = Tableau(relabeled_rows(t.rows, perm))
        fu = specht_polynomial(u)
        ft = specht_polynomial(t)
        # substituting x_i -> x_perm(i) in ft gives fu
        substituted = Poly(
            n,
            QQ,
            {
                tuple(
                    sum(e for v, e in zip(range(1, n + 1), m) if perm[v - 1] == w)
                    for w in range(1, n + 1)
                ): c
                for m, c in ft.terms.items()
            },
        )
        assert substituted == fu


class TestVandermondeExpansion:
    """The column-by-column Vandermonde terms against the factor-by-factor fold
    they replaced."""

    FIELDS = (QQ, GF(2), GF(3))

    def assert_matches_fold(self, t):
        for field in self.FIELDS:
            assert specht_polynomial(t, field) == ref_specht_polynomial(t, field)

    def test_every_filling_up_to_five(self):
        for n in range(1, 6):
            for lam in partitions_of(n):
                for rows in ref_fillings(lam):
                    self.assert_matches_fold(Tableau(rows))

    def test_every_column_standard_tableau_of_six(self):
        for lam in partitions_of(6):
            for t in tableaux(lam, "column_standard"):
                self.assert_matches_fold(t)

    @pytest.mark.parametrize("rows", [
        [[4], [7], [1], [6], [2], [5], [3]],
        [[5, 2, 12, 9], [1, 8, 3, 4], [11, 6, 10, 7]],
    ])
    def test_tall_and_wide_columns(self, rows):
        self.assert_matches_fold(Tableau(rows))


class TestShapeGeneratorMemo:
    def test_repeated_call_returns_the_same_tuple(self):
        first = shape_generators((3, 2), mode="standard")
        assert shape_generators((3, 2), mode="standard") is first

    def test_equal_requests_share_one_entry(self):
        cache = specht._shape_generators_cached
        gens = shape_generators((2, 1))
        size = cache.cache_info().currsize
        assert shape_generators([2, 1]) is gens
        assert shape_generators((2, 1), field=QQ) is gens
        assert shape_generators((2, 1), mode="column_standard") is gens
        assert cache.cache_info().currsize == size

    def test_modes_and_fields_get_their_own_entries(self):
        cache = specht._shape_generators_cached
        cache.cache_clear()
        variants = [shape_generators((2, 1), mode="standard")]
        variants += [shape_generators((2, 1), field=field) for field in (QQ, GF(2), GF(3))]
        assert cache.cache_info().currsize == len(variants)
        assert {g.polynomial.field for g in variants[-1]} == {GF(3)}

    @pytest.mark.parametrize("shape, mode", [
        ((1, 2), "standard"), ((0,), "standard"), ((), "all"),
        ((2, 1), "fancy"), ((2, 1), ["standard"]), ((2, 1), "all"),
    ])
    def test_invalid_requests_still_raise(self, shape, mode):
        with pytest.raises(ValueError):
            shape_generators(shape, mode=mode)

    def test_no_caller_mutates_a_cached_entry(self):
        # every entry the suite leaves in the cache equals a fresh expansion;
        # a probe that grows the cache was not one of them
        cache = specht._shape_generators_cached
        cache.cache_clear()
        run_suite(SuiteConfig(max_n=4))
        cached = cache.cache_info().currsize
        checked = 0
        for n in range(1, 5):
            for lam in partitions_of(n):
                for mode in ("column_standard", "standard"):
                    for field in (QQ, GF(2), GF(3), GF(7)):
                        size = cache.cache_info().currsize
                        gens = shape_generators(lam, mode=mode, field=field)
                        if cache.cache_info().currsize > size:
                            continue
                        fresh = cache.__wrapped__(lam, mode, field)
                        assert gens == fresh
                        checked += 1
        assert checked == cached > 0


class TestColumnStabilizer:
    """The sign rule: relabeling a tableau by a permutation that keeps every
    entry in its column scales its polynomial by the permutation's sign."""

    def column_preserving_images(self, t):
        # images[e - 1] is the image of entry e
        cols = t.columns()
        for per_column in itertools.product(*[itertools.permutations(col) for col in cols]):
            mapping = {e: v for col, img in zip(cols, per_column) for e, v in zip(col, img)}
            yield [mapping[e] for e in range(1, t.n + 1)]

    def test_sign_rule_exhaustively_on_small_shapes(self):
        for lam in [(2, 1), (2, 2), (3, 1), (2, 1, 1), (2, 2, 1)]:
            reps = tableaux(lam, "column_standard")[:4]
            for t in reps:
                f = specht_polynomial(t)
                for images in self.column_preserving_images(t):
                    u = Tableau(relabeled_rows(t.rows, images))
                    assert specht_polynomial(u) == f * brute_permutation_sign(images)

    def test_sign_rule_statement(self):
        t = Tableau([[1, 3], [2], [4]])
        cycle = [4, 1, 3, 2]  # 1 -> 4 -> 2 -> 1 within the first column
        assert brute_permutation_sign(cycle) == 1
        assert specht_polynomial(Tableau(relabeled_rows(t.rows, cycle))) == specht_polynomial(t)
        swap = [2, 1, 3, 4]
        assert brute_permutation_sign(swap) == -1
        assert specht_polynomial(Tableau(relabeled_rows(t.rows, swap))) == -specht_polynomial(t)


class TestShapeGenerators:
    def test_counts_after_deduplication(self):
        expected = {
            (2, 2): 3,
            (3, 1): 6,
            (2, 1, 1): 4,
            (2, 2, 1): 10,
            (3, 2): 15,
        }
        for lam, count in expected.items():
            gens = shape_generators(lam)
            assert len(gens) == count
            polys = {g.polynomial for g in gens}
            assert len(polys) == count

    def test_all_mode_collapses_to_column_standard_set(self):
        # every filling, expanded, normalized and deduplicated, leaves the
        # column-standard generators, tableaux and order included
        for n in range(2, 6):
            for lam in partitions_of(n):
                cs = [(g.tableau, g.polynomial) for g in shape_generators(lam)]
                assert cs == list(ref_shape_generators(lam, "all"))

    def test_generators_are_monic_under_default_lex(self):
        for n in range(2, 6):
            order = lex_order(n)
            for lam in partitions_of(n):
                for g in shape_generators(lam):
                    assert g.shape == lam
                    _, coeff = leading_term(g.polynomial, order)
                    assert coeff == Fraction(1)

    def test_standard_mode_counts_are_hook_counts(self):
        for n in range(2, 7):
            for lam in partitions_of(n):
                assert len(shape_generators(lam, mode="standard")) == (
                    hook_length_count(lam)
                )

    def test_generator_tableaux_produce_their_polynomials(self):
        for g in shape_generators((2, 2, 1)):
            raw = specht_polynomial(g.tableau)
            mono, coeff = leading_term(raw, lex_order(5))
            assert g.polynomial == raw * (Fraction(1) / coeff)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            shape_generators((2, 1), mode="fancy")


GENERATOR_GRID = [pytest.param(n, field, id=f"{n}-{field.text()}")
                  for n in range(1, 7) for field in (QQ, GF(2), GF(3), GF(7))]
GENERATOR_GRID.append(pytest.param(7, QQ, id="7-Q"))


def generator_entries(pairs):
    """Each (tableau, polynomial) as rows and terms in dict order, with every
    coefficient's type."""
    return [(t.rows, [(m, type(c).__name__, c) for m, c in p.terms.items()], p.field)
            for t, p in pairs]


class TestDirectConstruction:
    """column_standard and standard generators, built without expanding a
    repeat, equal the expand-every-tableau-and-deduplicate construction:
    same tableaux, same polynomials, same order."""

    @pytest.mark.parametrize("n, field", GENERATOR_GRID)
    @pytest.mark.parametrize("mode", ["column_standard", "standard"])
    def test_matches_deduplicated_enumeration(self, n, field, mode):
        for lam in partitions_of(n):
            gens = shape_generators(lam, mode=mode, field=field)
            assert generator_entries((g.tableau, g.polynomial) for g in gens) == (
                generator_entries(ref_shape_generators(lam, mode, field)))
            assert {g.shape for g in gens} == {lam}

    def count_expansions(self, monkeypatch, n, mode):
        """(specht_polynomial calls, generators kept) over the shapes of n,
        expanded past the memo."""
        calls = []
        expand = specht.specht_polynomial

        def counted(t, field=QQ):
            calls.append(t)
            return expand(t, field)

        monkeypatch.setattr(specht, "specht_polynomial", counted)
        kept = sum(len(specht._shape_generators_cached.__wrapped__(lam, mode, QQ))
                   for lam in partitions_of(n))
        return len(calls), kept

    def test_column_standard_expands_once_per_set_partition(self, monkeypatch):
        assert self.count_expansions(monkeypatch, 6, "column_standard") == (203, 203)
        assert bell_number(6) == 203

    def test_standard_expands_once_per_standard_tableau(self, monkeypatch):
        standard = sum(hook_length_count(lam) for lam in partitions_of(6))
        assert self.count_expansions(monkeypatch, 6, "standard") == (standard, standard)


class TestStandardGeneratorsOfEight:
    """The known answer behind the benchmark's enumerate workload, on every
    three-row shape of 8."""

    POINT = (3, -7, 11, 2, -5, 13, 0, 8)

    def test_hook_many_distinct_standard_tableaux_with_their_products(self):
        shapes = [lam for lam in partitions_of(8) if len(lam) == 3]
        assert len(shapes) == 5
        for field, lam in itertools.product((QQ, GF(7)), shapes):
            gens = shape_generators(lam, mode="standard", field=field)
            assert len(gens) == hook_length_count(lam)
            order = [g.tableau.rows for g in gens]
            assert order == sorted(set(order))
            for g in gens:
                rows = g.tableau.rows
                assert tuple(len(r) for r in rows) == lam
                assert all(list(r) == sorted(r) for r in rows)
                pairs = column_pairs(rows)
                assert all(upper < lower for upper, lower in pairs)
                # normalized to leading coefficient 1 under lex with x_n
                # dominant, each factor is x_lower - x_upper
                expected = prod(self.POINT[b - 1] - self.POINT[a - 1] for a, b in pairs)
                value = eval_poly(g.polynomial.terms, self.POINT)
                if field.p is None:
                    assert value == expected
                else:  # the point's values taken mod p
                    assert value % field.p == expected % field.p


class TestFilterGenerators:
    def test_union_over_member_shapes(self):
        filt = filter_closure(4, [(2, 2)], "lower")
        gens = filter_generators(filt)
        assert len(gens) == 8
        by_shape = {}
        for g in gens:
            by_shape.setdefault(g.shape, []).append(g)
        assert {s: len(v) for s, v in by_shape.items()} == {
            (2, 2): 3,
            (2, 1, 1): 4,
            (1, 1, 1, 1): 1,
        }

    def test_rejects_upper_filters_and_empty(self):
        upper = filter_closure(4, [(2, 2)], "upper")
        with pytest.raises(ValueError):
            filter_generators(upper)

    def test_polynomials_are_pairwise_distinct(self):
        for n in range(2, 6):
            for lam in partitions_of(n):
                filt = filter_closure(n, [lam], "lower")
                gens = filter_generators(filt)
                assert len({g.polynomial for g in gens}) == len(gens)


class TestRestrictedGenerators:
    def test_single_row_shape_gives_the_constant(self):
        gens = restricted_standard_generators((4,))
        assert len(gens) == 1
        assert gens[0].polynomial == Poly.constant(1, 4)

    def test_shapes_are_dominated_with_matching_width(self):
        gens = restricted_standard_generators((2, 2))
        assert len(gens) == 5
        shapes = sorted(g.shape for g in gens)
        assert shapes == [(2, 1, 1)] * 3 + [(2, 2)] * 2
        for lam in [(3, 1), (2, 2, 1), (3, 2, 1)]:
            for g in restricted_standard_generators(lam):
                assert g.shape[0] == lam[0]
                assert dominates(lam, g.shape)
                assert is_standard_filling(g.tableau.rows)

    def test_counts_sum_hook_counts_over_matching_shapes(self):
        for n in range(2, 7):
            for lam in partitions_of(n):
                expected = sum(
                    hook_length_count(mu)
                    for mu in partitions_of(n)
                    if mu[0] == lam[0] and dominates(lam, mu)
                )
                assert len(restricted_standard_generators(lam)) == expected


class TestStandardSpanRank:
    def test_rank_equals_standard_count(self):
        for n in range(2, 7):
            for lam in partitions_of(n):
                rank, count = standard_span_rank(lam)
                assert count == hook_length_count(lam)
                assert rank == count

    def test_rank_over_small_prime_can_only_drop(self):
        for lam in [(2, 2), (3, 1), (2, 1, 1)]:
            rank_q, count = standard_span_rank(lam)
            rank_p, count_p = standard_span_rank(lam, field=GF(2))
            assert count_p == count
            assert rank_p <= rank_q

    @pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=lambda f: f.text())
    def test_matches_dense_row_reduction(self, field):
        # the generators divided by one another against their dense
        # coefficient matrix row-reduced, on every shape of n <= 7
        for n in range(1, 8):
            for lam in partitions_of(n):
                gens = [g.polynomial for g in shape_generators(lam, field=field)]
                rank, _ = standard_span_rank(lam, field=field)
                assert rank == ref_poly_rank(gens, field), (lam, field)
