"""Partitions, dominance, filters, tableaux, set partitions."""

import ast
import itertools
import re
import time
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtgb import (
    PartitionFilter,
    Tableau,
    add_box,
    conjugate,
    derived_filter,
    dominates,
    enumerate_lower_filters,
    enumerate_upper_filters,
    filter_closure,
    filter_text,
    orbit_type,
    parse_filter_text,
    parse_partition_text,
    partition_text,
    partitions_of,
    set_partitions_of_type,
    tableau_count,
    tableaux,
    validate_partition,
    validate_set_partition,
)
from spechtgb import combinatorics
from spechtgb.combinatorics import column_tableau

from oracles import (
    brute_partitions,
    column_group_order,
    dominates_by_partial_sums,
    hook_length_count,
    is_column_standard_filling,
    is_standard_filling,
    ref_closure_violations,
    ref_fillings,
    ref_enumerate_lower_filters,
    set_partition_count,
    bell_number,
)

partitions_small = st.integers(1, 7).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


class TestPartitions:
    def test_counts_match_brute_enumeration(self):
        # 1, 2, 3, 5, 7, 11, 15, 22, 30
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30]
        for n, count in zip(range(1, 10), expected):
            ps = partitions_of(n)
            assert len(ps) == count
            assert set(ps) == brute_partitions(n)

    def test_enumeration_order_is_dominance_compatible(self):
        # partitions_of lists in reverse lex, which refines dominance downward
        for n in range(1, 8):
            ps = partitions_of(n)
            for i, lam in enumerate(ps):
                for mu in ps[i + 1 :]:
                    assert not dominates(mu, lam) or mu == lam

    def test_validate_rejects_bad_input(self):
        with pytest.raises(ValueError):
            validate_partition([2, 3])
        with pytest.raises(ValueError):
            validate_partition([3, 0])
        with pytest.raises(ValueError):
            validate_partition([])
        with pytest.raises(ValueError):
            validate_partition([2, -1])

    def test_conjugate_small_cases(self):
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
        assert conjugate((1, 1, 1)) == (3,)
        assert conjugate((5,)) == (1, 1, 1, 1, 1)

    @given(partitions_small)
    def test_conjugate_is_an_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam
        assert sum(conjugate(lam)) == sum(lam)

    def test_parse_text_roundtrip(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert parse_partition_text(partition_text(lam)) == lam
        assert parse_partition_text("411") == (4, 1, 1)
        assert parse_partition_text("[10,2]") == (10, 2)
        with pytest.raises(ValueError):
            parse_partition_text("[3,")

    @pytest.mark.parametrize("text", ["[2,,1]", "[2,x]"])
    def test_unparsable_literal_is_named(self, text):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse partition from {text!r}")):
            parse_partition_text(text)


class TestDominance:
    def test_matches_partial_sum_reference(self):
        for n in range(1, 8):
            for a, b in itertools.product(partitions_of(n), repeat=2):
                assert dominates(a, b) == dominates_by_partial_sums(a, b)

    def test_incomparable_pairs_first_appear_at_six(self):
        for n in range(1, 6):
            for a, b in itertools.combinations(partitions_of(n), 2):
                assert dominates(a, b) or dominates(b, a)
        incomparable = [
            (a, b)
            for a, b in itertools.combinations(partitions_of(6), 2)
            if not dominates(a, b) and not dominates(b, a)
        ]
        assert incomparable == [
            ((4, 1, 1), (3, 3)),
            ((3, 1, 1, 1), (2, 2, 2)),
        ]

    def test_extremes(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert dominates((n,), lam)
                assert dominates(lam, (1,) * n)

    def test_conjugation_reverses_order(self):
        for n in range(1, 8):
            for a, b in itertools.product(partitions_of(n), repeat=2):
                assert dominates(a, b) == dominates(conjugate(b), conjugate(a))

    def test_rejects_mismatched_totals(self):
        with pytest.raises(ValueError):
            dominates((3,), (2, 2))


class TestAddBox:
    def test_row_cases(self):
        assert add_box((3, 1), 1) == (4, 1)
        assert add_box((3, 1), 2) == (3, 2)
        assert add_box((3, 1), 3) == (3, 1, 1)
        assert add_box((3, 1), 7) == (3, 1, 1)
        assert add_box((2, 2), 2) == (3, 2)  # resorted after the bump
        with pytest.raises(ValueError):
            add_box((3, 1), 0)

    @given(partitions_small, st.integers(1, 8))
    def test_result_is_a_partition_one_larger(self, lam, k):
        out = add_box(lam, k)
        assert validate_partition(out) == out
        assert sum(out) == sum(lam) + 1


class TestFilters:
    def test_constructor_validates_closure(self):
        PartitionFilter(4, [(1, 1, 1, 1), (2, 1, 1)], "lower")
        with pytest.raises(ValueError):
            PartitionFilter(4, [(2, 1, 1)], "lower")  # missing (1,1,1,1)
        with pytest.raises(ValueError):
            PartitionFilter(4, [(2, 1, 1)], "upper")  # missing everything above
        with pytest.raises(ValueError):
            PartitionFilter(4, [(2, 1)], "lower")  # wrong total

    @pytest.mark.parametrize("kind", ["lower", "upper"])
    def test_closure_test_matches_pairwise_reference(self, kind):
        # every subset of the partitions of n <= 6: accepted exactly when no
        # member misses a partition on its side, and a refusal names such a pair
        for n in range(1, 7):
            ps = partitions_of(n)
            for mask in range(1 << len(ps)):
                members = [lam for i, lam in enumerate(ps) if mask >> i & 1]
                violations = ref_closure_violations(n, members, kind)
                try:
                    PartitionFilter(n, members, kind)
                except ValueError as e:
                    named = re.fullmatch(
                        rf"{kind} filter is not dominance-closed: contains (.*) but not (.*)",
                        str(e))
                    assert named, str(e)
                    pair = tuple(ast.literal_eval(g) for g in named.groups())
                    assert pair in violations, (n, members, pair)
                else:
                    assert not violations, (n, members)

    def test_closure_generates_minimal_filter(self):
        f = filter_closure(6, [(4, 1, 1), (3, 3)], "upper")
        assert f.sorted_members() == (
            (6,),
            (5, 1),
            (4, 2),
            (4, 1, 1),
            (3, 3),
        )
        g = filter_closure(5, [(3, 2)], "lower")
        assert set(g.members) == {
            (3, 2),
            (3, 1, 1),
            (2, 2, 1),
            (2, 1, 1, 1),
            (1, 1, 1, 1, 1),
        }

    def test_enumeration_counts(self):
        # chain for n <= 5, genuine poset at 6
        assert [len(enumerate_lower_filters(n)) for n in range(2, 7)] == [
            2,
            3,
            5,
            7,
            13,
        ]
        assert len(enumerate_lower_filters(6, include_empty=True)) == 14

    @pytest.mark.parametrize("include_empty", [False, True])
    def test_enumeration_matches_the_subset_scan(self, include_empty):
        # the walk over down-sets lists the scan's filters in the scan's order
        for n in range(1, 8):
            lowers = enumerate_lower_filters(n, include_empty)
            expected = ref_enumerate_lower_filters(n, include_empty)
            assert [f.members for f in lowers] == list(expected)
            assert all(f.kind == "lower" for f in lowers)
            uppers = enumerate_upper_filters(n, include_empty)
            assert [f.complement().members for f in uppers] == [
                m for m in ref_enumerate_lower_filters(n, True)
                if include_empty or len(m) < len(partitions_of(n))]

    def test_enumeration_reaches_eight(self):
        # 2^22 subsets for the scan, 37 down-sets for the walk
        start = time.perf_counter()
        assert len(enumerate_lower_filters(8)) == 37
        assert time.perf_counter() - start < 1.0

    def test_derived_filters_shrink_as_the_row_grows(self):
        # D_(r+1) lies in D_r for an upper filter, a premise of descent's proof
        pairs = 0
        for n in range(2, 9):
            for f in enumerate_upper_filters(n):
                for r in range(1, n + 1):
                    assert derived_filter(f, r + 1).members <= derived_filter(f, r).members
                    pairs += 1
        assert pairs == 575

    def test_enumerated_filters_are_distinct_and_closed(self):
        for n in range(2, 7):
            filts = enumerate_lower_filters(n)
            assert len({f.members for f in filts}) == len(filts)
            for f in filts:
                for lam in f:
                    for mu in partitions_of(n):
                        if dominates(lam, mu):
                            assert mu in f

    def test_upper_filters_are_complements(self):
        for n in range(2, 7):
            lowers = enumerate_lower_filters(n, include_empty=True)
            uppers = enumerate_upper_filters(n, include_empty=True)
            assert len(lowers) == len(uppers)
            for f in lowers:
                c = f.complement()
                assert c.kind == "upper"
                assert c.complement() == f

    def test_derived_filter_worked_example(self):
        f = filter_closure(6, [(4, 1, 1), (3, 3)], "upper")
        assert set(derived_filter(f, 1).members) == {
            (5,),
            (4, 1),
            (3, 2),
            (3, 1, 1),
        }
        assert set(derived_filter(f, 2).members) == {(5,), (4, 1), (3, 2)}
        for k in (3, 4, 5, 9):
            assert set(derived_filter(f, k).members) == {(5,), (4, 1)}

    def test_derived_filter_preserves_kind_and_closure(self):
        for n in (4, 5, 6):
            for f in enumerate_upper_filters(n, include_empty=True):
                for k in range(1, n + 1):
                    d = derived_filter(f, k)
                    assert d.kind == "upper"
                    assert d.n == n - 1
        with pytest.raises(ValueError):
            derived_filter(PartitionFilter(1, [(1,)], "upper"), 1)

    def test_text_roundtrip(self):
        for n in range(2, 6):
            for f in enumerate_lower_filters(n):
                assert parse_filter_text(filter_text(f), n) == f
            for f in enumerate_upper_filters(n):
                assert parse_filter_text(filter_text(f), n) == f
        f = parse_filter_text("[2,1],[1,1,1]", 3)
        assert f.kind == "lower" and len(f) == 2
        with pytest.raises(ValueError):
            parse_filter_text("lower:[3]", 3)  # not closed downward


class TestTableaux:
    def test_validation(self):
        t = Tableau([[1, 2, 4], [3]])
        assert t.shape == (3, 1)
        assert t.n == 4
        with pytest.raises(ValueError):
            Tableau([[1, 2], [3, 4, 5]])  # rows not weakly decreasing
        with pytest.raises(ValueError):
            Tableau([[1, 2], [2]])  # repeated entry
        with pytest.raises(ValueError):
            Tableau([[1, 3]])  # not onto 1..n

    def test_columns_read_top_to_bottom(self):
        t = Tableau([[3, 2, 1, 7], [4, 5], [6]])
        assert t.columns() == ((3, 4, 6), (2, 5), (1,), (7,))
        assert t.row_index()[6] == 3
        assert not is_standard_filling(t.rows)
        assert is_standard_filling(Tableau([[1, 2], [3]]).rows)

    def test_mode_counts(self):
        # the n! fillings are listed on the test side up to n=6; the modes go
        # on to n=10, where column-standard counts reach 10!, so past n=8
        # only shapes with at most 20,000 of them are enumerated
        for n in range(1, 11):
            for lam in partitions_of(n):
                expected = {
                    "column_standard": factorial(n) // column_group_order(lam),
                    "standard": hook_length_count(lam),
                }
                if n <= 6:
                    assert len(ref_fillings(lam)) == factorial(n)
                for mode, count in expected.items():
                    assert tableau_count(lam, mode) == count
                    if n <= 8 or count <= 20_000:
                        rows = [t.rows for t in tableaux(lam, mode)]
                        assert len(rows) == count
                        # strictly increasing: rows order, and no repeats
                        assert all(a < b for a, b in zip(rows, rows[1:]))
        assert len(tableaux((4, 4, 4), "standard")) == 462
        for mode in ("restricted_standard", "all"):
            with pytest.raises(ValueError):
                tableau_count((2, 1), mode)
            with pytest.raises(ValueError):
                tableaux((2, 1), mode)

    def test_direct_modes_match_the_scan(self):
        # the modes keep exactly what filtering every filling keeps, in its order
        for n in range(1, 8):
            for lam in partitions_of(n):
                everything = ref_fillings(lam)
                assert [t.rows for t in tableaux(lam, "standard")] == [
                    rows for rows in everything if is_standard_filling(rows)
                ]
                assert [t.rows for t in tableaux(lam, "column_standard")] == [
                    rows for rows in everything if is_column_standard_filling(rows)
                ]

    def test_enumerated_tableaux_pass_validation(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                for mode in ("column_standard", "standard"):
                    for t in tableaux(lam, mode):
                        assert Tableau(t.rows).rows == t.rows

    def test_modes_nest(self):
        for lam in [(2, 2), (3, 1, 1), (2, 2, 1)]:
            everything = {Tableau(rows) for rows in ref_fillings(lam)}
            colstd = set(tableaux(lam, "column_standard"))
            std = set(tableaux(lam, "standard"))
            assert std <= colstd <= everything
            assert all(t.is_column_standard() for t in colstd)
            assert all(is_standard_filling(t.rows) for t in std)


    def test_column_tableau_is_the_first_filling_with_its_columns(self):
        # one tableau per set partition of the conjugate type, and it is the
        # first column-standard filling whose columns are those blocks
        for n in range(1, 8):
            for lam in partitions_of(n):
                first: dict = {}
                for t in tableaux(lam, "column_standard"):
                    first.setdefault(frozenset(t.columns()), t)
                built = []
                for blocks in set_partitions_of_type(conjugate(lam)):
                    t = column_tableau(blocks)
                    assert Tableau(t.rows).rows == t.rows
                    assert t.shape == lam
                    assert t.columns() == blocks
                    built.append(t)
                assert sorted(built, key=lambda t: t.rows) == sorted(
                    first.values(), key=lambda t: t.rows)


class TestOrbitsAndSetPartitions:
    def test_orbit_type_examples(self):
        assert orbit_type((4, 0, 2, 4, 2, 4)) == (3, 2, 1)
        assert orbit_type((7,)) == (1,)
        assert orbit_type((1, 1, 1)) == (3,)
        with pytest.raises(ValueError):
            orbit_type(())

    def test_type_counts_match_multinomial(self):
        for n in range(1, 7):
            total = 0
            for mu in partitions_of(n):
                parts = set_partitions_of_type(mu)
                assert len(parts) == set_partition_count(mu)
                assert len(set(parts)) == len(parts)
                for blocks in parts:
                    assert tuple(sorted(map(len, blocks), reverse=True)) == mu
                    assert validate_set_partition(blocks, n) == blocks
                total += len(parts)
            assert total == bell_number(n)

    def test_set_partition_count_is_the_enumerated_count(self):
        # the closed form that the oracle's size rule and lexgb's count read
        for n in range(1, 9):
            for mu in partitions_of(n):
                assert combinatorics.set_partition_count(mu) == len(set_partitions_of_type(mu))
        with pytest.raises(ValueError):
            combinatorics.set_partition_count((1, 2))

    def test_validate_canonicalizes(self):
        blocks = validate_set_partition([[3, 1], [2], [5, 4]], 5)
        assert blocks == ((1, 3), (4, 5), (2,))
        with pytest.raises(ValueError):
            validate_set_partition([[1, 2], [2, 3]], 3)
        with pytest.raises(ValueError):
            validate_set_partition([[1], []], 1)


@settings(max_examples=60)
@given(partitions_small, st.integers(1, 6))
def test_derived_filter_membership_definition(lam, k):
    n = sum(lam)
    f = filter_closure(n + 1, [add_box(lam, k)], "upper")
    assert lam in derived_filter(f, k)
