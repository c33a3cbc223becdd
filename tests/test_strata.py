"""Stratum sampling and the vanishing-ideal oracle."""

import ast
import random
from functools import reduce
from pathlib import Path

import pytest

from spechtgb import (
    GF,
    IdealBasis,
    Poly,
    QQ,
    UnsupportedFieldError,
    check_vanishing,
    enumerate_upper_filters,
    filter_closure,
    ideal_equal,
    ideal_intersection,
    lex_order,
    orbit_type,
    parse_polynomial,
    partitions_of,
    sample_stratum,
    set_partitions_of_type,
    subspace_ideal,
    vanishing_ideal_oracle,
)
from spechtgb import strata

from oracles import ref_rank


def p(text, n):
    return parse_polynomial(text, n)


class TestSampling:
    def test_points_realize_the_exact_type(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                sample = sample_stratum(mu, 8, seed=3)
                assert sample.mu == mu
                assert len(sample.points) == 8
                for point in sample.points:
                    assert orbit_type(point) == mu

    def test_determinism(self):
        a = sample_stratum((3, 1), 5, seed=42)
        b = sample_stratum((3, 1), 5, seed=42)
        c = sample_stratum((3, 1), 5, seed=43)
        assert a == b
        assert a.points != c.points

    def test_finite_fields_need_enough_values(self):
        sample = sample_stratum((2, 1), 4, seed=0, field=GF(2))
        for point in sample.points:
            assert orbit_type(point) == (2, 1)
            assert all(v in (0, 1) for v in point)
        with pytest.raises(UnsupportedFieldError):
            sample_stratum((1, 1, 1), 1, seed=0, field=GF(2))

    def test_count_validation(self):
        assert sample_stratum((2,), 0, seed=0).points == ()
        with pytest.raises(ValueError):
            sample_stratum((2,), -1, seed=0)


class TestSubspaceIdeal:
    def test_chain_generators(self):
        ideal = subspace_ideal([[1, 2, 3], [4]], 4)
        assert ideal.generators == (
            p("x1 - x2", 4),
            p("x2 - x3", 4),
        )

    def test_all_singletons_is_the_zero_ideal(self):
        assert subspace_ideal([[1], [2], [3]], 3).is_zero()

    def test_generators_vanish_exactly_on_the_subspace(self):
        ideal = subspace_ideal([[1, 3], [2, 4]], 4)
        on = (7, -2, 7, -2)
        off = (7, -2, 7, -3)
        for g in ideal.generators:
            assert g.evaluate(on) == 0
        assert any(g.evaluate(off) != 0 for g in ideal.generators)


def _indicator_rows(blocks, n):
    return [[1 if i + 1 in block else 0 for i in range(n)] for block in blocks]


class TestSubspaceContainment:
    def test_set_test_matches_row_space_containment(self):
        # V_P is the span of P's block indicators: V_inner lies in V_outer
        # exactly when adding inner's rows leaves outer's rank unchanged
        for n in range(1, 6):
            every = [b for mu in partitions_of(n) for b in set_partitions_of_type(mu)]
            for inner in every:
                for outer in every:
                    outer_rows = _indicator_rows(outer, n)
                    by_rank = ref_rank(outer_rows, QQ) == ref_rank(
                        outer_rows + _indicator_rows(inner, n), QQ)
                    assert strata._subspace_within(inner, outer) == by_rank, (inner, outer)


class TestOracleIndependence:
    def test_strata_module_never_reaches_generators(self):
        # the oracle is the second route; it must not share the first route's
        # tableaux or Specht generators
        tree = ast.parse(Path(strata.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "specht" not in (node.module or "").split("."), node.module
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not [name for name in names
                    if "tableau" in name.lower() or "specht" in name.split(".")]


class TestOracle:
    def test_requires_nonempty_upper_filter(self):
        lower = filter_closure(3, [(2, 1)], "lower")
        with pytest.raises(ValueError):
            vanishing_ideal_oracle(lower)
        from spechtgb import PartitionFilter

        with pytest.raises(ValueError):
            vanishing_ideal_oracle(PartitionFilter(3, [], "upper"))

    def test_single_max_type_is_the_diagonal(self):
        g = filter_closure(3, [(3,)], "upper")
        ideal = vanishing_ideal_oracle(g)
        assert list(ideal.generators) == [p("x2 - x1", 3), p("x3 - x1", 3)]

    def test_full_filter_gives_the_zero_ideal(self):
        g = filter_closure(4, [(1, 1, 1, 1)], "upper")
        assert vanishing_ideal_oracle(g).is_zero()

    def test_generators_vanish_on_every_stratum(self):
        for n in (3, 4):
            for g in enumerate_upper_filters(n):
                ideal = vanishing_ideal_oracle(g)
                for gen in ideal.generators:
                    assert check_vanishing(gen, g, samples_per_stratum=6, seed=5)

    def test_matches_plain_intersection_without_absorption(self):
        # same ideal computed the slow way: intersect every subspace of
        # every member type, no containment pruning
        for n in (3, 4):
            for g in enumerate_upper_filters(n):
                subspaces = []
                for mu in g.sorted_members():
                    subspaces.extend(set_partitions_of_type(mu))
                ideals = [subspace_ideal(b, n) for b in subspaces]
                slow = reduce(
                    lambda a, b: ideal_intersection(a, b, order=lex_order(n)),
                    ideals,
                )
                assert ideal_equal(slow, vanishing_ideal_oracle(g))

    def test_monotone_in_the_filter(self):
        # more strata to vanish on means a smaller ideal
        n = 4
        filters = enumerate_upper_filters(n)
        for a in filters:
            for b in filters:
                if not a.members <= b.members:
                    continue
                bigger = vanishing_ideal_oracle(a)
                smaller = vanishing_ideal_oracle(b)
                for gen in smaller.generators:
                    assert bigger.contains(gen)

    def test_radical_at_small_sizes(self):
        rng = random.Random(9)
        for n in (2, 3):
            for g in enumerate_upper_filters(n):
                ideal = vanishing_ideal_oracle(g)
                for _ in range(10):
                    terms = {
                        tuple(rng.randrange(3) for _ in range(n)): rng.randint(-3, 3)
                        for _ in range(3)
                    }
                    f = Poly(n, QQ, terms)
                    if not f.terms:
                        continue
                    assert ideal.contains(f * f) == ideal.contains(f)

    def test_oracle_output_is_reduced_lex_basis(self):
        from spechtgb import groebner_basis

        for g in enumerate_upper_filters(4):
            ideal = vanishing_ideal_oracle(g)
            order = lex_order(4)
            if ideal.is_zero():
                continue
            assert list(ideal.generators) == groebner_basis(
                ideal.generators, order
            )


class TestCheckVanishing:
    def test_detects_nonvanishing(self):
        g = filter_closure(3, [(3,)], "upper")
        assert not check_vanishing(p("x1 + 17", 3), g, 8, seed=1)
        assert check_vanishing(p("x1 - x2", 3), g, 8, seed=1)
        assert check_vanishing(Poly.zero(3), g, 8, seed=1)

    def test_validates_inputs(self):
        g = filter_closure(3, [(3,)], "upper")
        lower = filter_closure(3, [(2, 1)], "lower")
        with pytest.raises(ValueError):
            check_vanishing(p("x1", 3), lower, 4, seed=0)
        with pytest.raises(ValueError):
            check_vanishing(p("x1", 2), g, 4, seed=0)
        with pytest.raises(UnsupportedFieldError):
            check_vanishing(
                parse_polynomial("x1", 3, GF(5)), g, 4, seed=0
            )

    def test_distinguishes_strata(self):
        # vanishes on the diagonal but not on two-block strata
        g = filter_closure(4, [(2, 2)], "upper")
        f = p("x1 - x2", 4)
        assert not check_vanishing(f, g, 8, seed=2)
        diag_only = filter_closure(4, [(4,)], "upper")
        assert check_vanishing(f, diag_only, 8, seed=2)
