"""Stratum sampling, the vanishing-ideal oracle, and vanishing by oracle membership."""

import ast
import random
import time
from functools import reduce
from itertools import combinations
from pathlib import Path

import pytest

from spechtgb import (
    GF,
    IdealBasis,
    Poly,
    QQ,
    enumerate_upper_filters,
    filter_closure,
    ideal_intersection,
    lex_order,
    normal_form,
    normal_forms,
    orbit_type,
    partitions_of,
    reduce_groebner_basis,
    sample_stratum,
    set_partitions_of_type,
    subspace_ideal,
    vanishing_ideal_oracle,
)
from spechtgb import groebner, strata
from spechtgb.verify import main

from oracles import (
    parse_polynomial,
    ref_ideal_intersection,
    ref_kept_subspaces,
    ref_rank,
    ref_subspace_ideal,
    ref_subspace_within,
    ref_vanishing_ideal_oracle,
    set_partition_count,
)


def p(text, n):
    return parse_polynomial(text, n)


class TestSampling:
    def test_points_realize_the_exact_type(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                points = sample_stratum(mu, 8, seed=3)
                assert type(points) is tuple and len(points) == 8
                for point in points:
                    assert orbit_type(point) == mu
                    assert all(type(v) is int for v in point)

    def test_determinism(self):
        a = sample_stratum((3, 1), 5, seed=42)
        b = sample_stratum((3, 1), 5, seed=42)
        c = sample_stratum((3, 1), 5, seed=43)
        assert a == b
        assert a != c

    def test_count_validation(self):
        assert sample_stratum((2,), 0, seed=0) == ()
        with pytest.raises(ValueError):
            sample_stratum((2,), -1, seed=0)


class TestSubspaceIdeal:
    def test_chain_generators(self):
        ideal = subspace_ideal([[1, 2, 3], [4]], 4)
        assert ideal.generators == (
            p("x2 - x1", 4),
            p("x3 - x1", 4),
        )

    def test_reduced_basis_of_the_consecutive_differences(self):
        for field in (QQ, GF(5)):
            for n in range(1, 7):
                order = lex_order(n)
                for mu in partitions_of(n):
                    for blocks in set_partitions_of_type(mu):
                        old = ref_subspace_ideal(blocks, n, field=field)
                        want = IdealBasis(n, field, tuple(
                            reduce_groebner_basis(old.generators, order)))
                        assert typed(subspace_ideal(blocks, n, field=field)) == typed(want), (
                            field, blocks)

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
                    assert ref_subspace_within(inner, outer) == by_rank, (inner, outer)


def typed(ideal):
    """Each generator's terms with every coefficient's type, in order."""
    return [sorted((m, type(c).__name__, c) for m, c in f.terms.items())
            for f in ideal.generators]


def clear_oracle_caches():
    strata._fold.cache_clear()


class TestTypeAbsorption:
    def test_matches_the_set_level_scan(self):
        # every nonempty family of types of n <= 5, and every upper filter of 6
        cases = [(n, set(members)) for n in range(1, 6)
                 for size in range(1, len(partitions_of(n)) + 1)
                 for members in combinations(partitions_of(n), size)]
        cases += [(6, set(g.members)) for g in enumerate_upper_filters(6)]
        for n, members in cases:
            by_type = [blocks for mu in strata._kept_types(n, members)
                       for blocks in set_partitions_of_type(mu)]
            assert by_type == ref_kept_subspaces(n, members), (n, members)

    def test_subspace_count_is_the_orbit_size(self):
        for n in range(1, 8):
            for mu in partitions_of(n):
                assert strata.set_partition_count(mu) == set_partition_count(mu)
        assert strata.set_partition_count((2, 2, 1, 1)) == len(set_partitions_of_type((2, 2, 1, 1)))

    def test_merging_is_not_dominance(self):
        # [4,2] dominates [3,3], but a block of 3 does not fit in a block of 2
        assert not strata._merges_into((3, 3), (4, 2))
        assert strata._merges_into((2, 2, 1, 1), (3, 3))
        assert strata._merges_into((3, 1, 1), (5,))


class TestOracleMatchesReference:
    """The type-level, prefix-memoized fold with known-block eliminations
    against the frozen set-level, one-fold-per-filter oracle."""

    def test_every_upper_filter_up_to_five(self):
        clear_oracle_caches()
        for n in range(1, 6):
            for g in enumerate_upper_filters(n):
                assert typed(vanishing_ideal_oracle(g)) == typed(ref_vanishing_ideal_oracle(g)), g

    @pytest.mark.parametrize("lam", [(5, 1), (4, 2), (3, 3), (4, 1, 1), (3, 2, 1), (2, 2, 2)])
    def test_six_complements(self, lam):
        g = filter_closure(6, [lam], "lower").complement()
        assert typed(vanishing_ideal_oracle(g)) == typed(ref_vanishing_ideal_oracle(g))

    def test_single_subspace_filters(self):
        # the fold returns the subspace ideal itself, built reduced: the
        # diagonal of upper:[n], or the zero ideal of the full filter
        clear_oracle_caches()
        lone = [g for n in range(1, 7) for g in enumerate_upper_filters(n)
                if sum(map(strata.set_partition_count, strata._kept_types(g.n, g.members))) == 1]
        assert sorted(strata._kept_types(g.n, g.members) for g in lone) == sorted(
            {((n,),) for n in range(1, 7)} | {((1,) * n,) for n in range(1, 7)})
        for g in lone:
            assert typed(vanishing_ideal_oracle(g)) == typed(ref_vanishing_ideal_oracle(g)), g

    def test_prefix_memo_ignores_call_order(self):
        # upper >= [3,1,1] keeps ([3,1,1],), a prefix of upper >= [2,2,1]'s
        # ([3,1,1], [2,2,1]); the shared fold is built once either way
        x = filter_closure(5, [(3, 1, 1)], "upper")
        y = filter_closure(5, [(2, 2, 1)], "upper")
        results = []
        for first, second in ((x, y), (y, x)):
            clear_oracle_caches()
            start = strata.oracle_counts()
            got = {str(g): typed(vanishing_ideal_oracle(g)) for g in (first, second)}
            end = strata.oracle_counts()
            results.append((got, {k: end[k] - start[k] for k in end}))
        assert results[0][0] == results[1][0]
        assert results[0][1]["oracle_eliminations"] == results[1][1]["oracle_eliminations"]
        assert results[0][1]["oracle_prefixes_reused"] == 1
        assert results[1][1]["oracle_prefixes_reused"] == 1


def random_subspace_meet(n, rng):
    """The intersection of one to three random subspace ideals of n."""
    every = [b for mu in partitions_of(n)[:-1] for b in set_partitions_of_type(mu)]
    ideals = [subspace_ideal(b, n) for b in rng.sample(every, rng.randint(1, 3))]
    return reduce(ideal_intersection, ideals)


def rewrapped(ideal):
    """The same generators in a fresh IdealBasis, which is marked as no basis."""
    return IdealBasis(ideal.nvars, ideal.field, ideal.generators)


@pytest.fixture
def settle_calls(monkeypatch):
    """The known blocks and the log of every pair-core call, in call order."""
    calls = []
    settle = groebner._settle_pairs

    def recording(gens, order, **kwargs):
        result = settle(gens, order, **kwargs)
        calls.append((list(kwargs.get("known", ())), result[0]))
        return result

    monkeypatch.setattr(groebner, "_settle_pairs", recording)
    return calls


class TestKnownBlockElimination:
    def test_declared_blocks_change_no_result(self, settle_calls):
        # package-built inputs declare both blocks; the same generators
        # rewrapped declare none; the frozen reference knows no blocks
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(3, 5)
            a, b = random_subspace_meet(n, rng), random_subspace_meet(n, rng)
            settle_calls.clear()
            declared = ideal_intersection(a, b)
            plain = ideal_intersection(rewrapped(a), rewrapped(b))
            split, stop = len(a.generators), len(a.generators) + len(b.generators)
            assert [known for known, _ in settle_calls] == [[(0, split), (split, stop)], []]
            assert typed(declared) == typed(plain)
            assert typed(declared) == typed(ref_ideal_intersection(a, b))

    def test_the_mark_is_no_constructor_argument(self):
        for name in ("lex_basis", "_lex_basis"):
            with pytest.raises(TypeError):
                IdealBasis(2, QQ, (), **{name: True})

    def test_known_pairs_are_settled_unpopped(self, settle_calls):
        n = 4
        a = ideal_intersection(subspace_ideal([[1, 2], [3], [4]], n),
                               subspace_ideal([[1], [2], [3, 4]], n))
        b = subspace_ideal([[1, 3, 4], [2]], n)
        settle_calls.clear()
        declared = ideal_intersection(a, b)
        plain = ideal_intersection(rewrapped(a), rewrapped(b))
        (known, log), (plain_known, plain_log) = settle_calls
        split = len(a.generators)
        assert known == [(0, split), (split, split + len(b.generators))]
        assert plain_known == []
        assert not [(i, j) for i, j, _ in log for start, stop in known if start <= i < j < stop]
        assert len(log) < len(plain_log)
        assert typed(declared) == typed(plain)


@pytest.fixture
def settled_rows(monkeypatch):
    """The known blocks, the log and the leading monomials of all rows of
    every pair-core call, in call order."""
    calls = []
    settle = groebner._settle_pairs

    def recording(gens, order, *, finish, **kwargs):
        leading = []

        def spy(pk):
            leading.extend(row[0] for row in pk.rows)
            return finish(pk)

        log, result = settle(gens, order, finish=spy, **kwargs)
        calls.append((list(kwargs.get("known", ())), log, leading))
        return log, result

    monkeypatch.setattr(groebner, "_settle_pairs", recording)
    return calls


def assert_t_free_rows_settle_known_pairs(field, settled_rows):
    # one step of the oracle's fold over the n=5 [2,2,1] orbit: the first
    # six subspace ideals intersected, then with the seventh
    ideals = [subspace_ideal(b, 5, field=field) for b in set_partitions_of_type((2, 2, 1))]
    a, b = reduce(ideal_intersection, ideals[:6]), ideals[6]
    settled_rows.clear()
    declared = ideal_intersection(a, b)
    plain = ideal_intersection(rewrapped(a), rewrapped(b))
    (known, log, leading), (_, plain_log, plain_leading) = settled_rows
    stop = len(a.generators) + len(b.generators)
    assert known == [(0, len(a.generators)), (len(a.generators), stop)]
    # t is the last variable: no known row pairs with a t-free row in the
    # log, though the unmarked run pops such pairs
    assert not [(i, j) for i, j, _ in log if i < stop and not leading[j][-1]]
    assert [(i, j) for i, j, _ in plain_log if i < stop and not plain_leading[j][-1]]
    assert len(log) < len(plain_log)
    assert typed(declared) == typed(plain) == typed(ref_ideal_intersection(a, b))


class TestTFreeRowsSettleKnownPairs:
    """A row free of t that an elimination adds settles its pairs with every
    row of a marked input's block unpopped; the result stays the one the
    frozen reference and the unmarked run give."""

    def test_a_fold_step_of_the_five_orbit(self, settled_rows):
        assert_t_free_rows_settle_known_pairs(QQ, settled_rows)

    @pytest.mark.parametrize("prime", [2, 3])
    def test_a_fold_step_over_a_prime_field(self, prime, settled_rows):
        assert_t_free_rows_settle_known_pairs(GF(prime), settled_rows)

    def test_an_unmarked_input_that_is_no_lex_basis(self, settled_rows):
        # x3 - x2 divides x3^2 - x1 down to x2^2 - x1, so a's generators are
        # no lex basis: its rows pair with the t-free rows as usual
        a = IdealBasis(3, QQ, (p("x3 - x2", 3), p("x3^2 - x1", 3)))
        b = subspace_ideal([[1, 2, 3]], 3)
        got = ideal_intersection(a, b)
        ((known, log, leading),) = settled_rows
        assert known == [(2, 4)]
        assert [(i, j) for i, j, _ in log if i < 2 and not leading[j][-1]]
        assert typed(got) == typed(ref_ideal_intersection(a, b))


class TestOracleSizeRule:
    def test_limit_admits_small_grids_and_refuses_large_ones(self):
        def count(g):
            return sum(map(strata.set_partition_count, strata._kept_types(g.n, g.members)))

        small = [g for n in range(1, 7) for g in enumerate_upper_filters(n)]
        small += [filter_closure(7, [lam], "lower").complement() for lam in partitions_of(7)[1:]]
        assert max(map(count, small)) == 350
        assert max(map(count, small)) <= strata.MAX_ORACLE_SUBSPACES
        big = filter_closure(8, [(5, 1, 1, 1)], "lower").complement()
        assert count(big) == 966 > strata.MAX_ORACLE_SUBSPACES

    def test_refusal_comes_before_any_enumeration(self):
        big = filter_closure(8, [(5, 1, 1, 1)], "lower").complement()
        started = time.perf_counter()
        with pytest.raises(ValueError, match="966 subspace ideals"):
            vanishing_ideal_oracle(big)
        assert time.perf_counter() - started < 1.0

    def test_cli_exits_two_at_once(self, capsys):
        started = time.perf_counter()
        assert main(["oracle", "--n", "8", "--filter", "lower<=[5,1,1,1]"]) == 2
        assert time.perf_counter() - started < 1.0
        assert "966 subspace ideals" in capsys.readouterr().err

    def test_cli_refuses_a_sixteen_variable_intersection_at_once(self, capsys):
        # the 120 subspaces of [2,1^14] pass the size rule, but intersecting
        # them would need a seventeenth variable
        started = time.perf_counter()
        assert main(["oracle", "--n", "16", "--filter", f"lower<=[{','.join(['1'] * 16)}]"]) == 2
        assert time.perf_counter() - started < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: intersection needs an auxiliary variable, so it takes at most 15 "
            "variables, got 16"]


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

    def test_strata_module_imports_no_private_name(self):
        # a private route into another module would bypass what wraps the
        # public names, as the benchmark's tracer does
        tree = ast.parse(Path(strata.__file__).read_text(encoding="utf-8"))
        private = [alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []


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
        # the pointwise cross-check: every generator is zero at sampled points
        for n in (3, 4):
            for g in enumerate_upper_filters(n):
                ideal = vanishing_ideal_oracle(g)
                points = [point for mu in g.sorted_members() for point in sample_stratum(
                    mu, 6, seed=5 * 1_000_003 + partitions_of(n).index(mu))]
                for gen in ideal.generators:
                    assert all(gen.evaluate(point) == 0 for point in points)

    def test_matches_plain_intersection_without_absorption(self):
        # same ideal computed the slow way: intersect every subspace of
        # every member type, no containment pruning
        for n in (3, 4):
            for g in enumerate_upper_filters(n):
                subspaces = []
                for mu in g.sorted_members():
                    subspaces.extend(set_partitions_of_type(mu))
                slow = reduce(ideal_intersection, [subspace_ideal(b, n) for b in subspaces])
                # both are reduced lex bases
                assert typed(slow) == typed(vanishing_ideal_oracle(g))

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
                assert not any(normal_forms(smaller.generators, list(bigger.generators),
                                            lex_order(n)))

    def test_radical_at_small_sizes(self):
        rng = random.Random(9)
        for n in (2, 3):
            for g in enumerate_upper_filters(n):
                basis = list(vanishing_ideal_oracle(g).generators)
                for _ in range(10):
                    terms = {
                        tuple(rng.randrange(3) for _ in range(n)): rng.randint(-3, 3)
                        for _ in range(3)
                    }
                    f = Poly(n, QQ, terms)
                    if not f.terms:
                        continue
                    square, root = normal_forms([f * f, f], basis, lex_order(n))
                    assert bool(square) == bool(root)

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


def vanishes_on(f, g) -> bool:
    """Whether f vanishes on the strata of the upper filter g: membership in
    the oracle's reduced lex basis."""
    return not normal_form(f, list(vanishing_ideal_oracle(g).generators), lex_order(g.n))


class TestCheckVanishing:
    """Vanishing on strata, decided exactly by oracle membership."""

    def test_detects_nonvanishing(self):
        g = filter_closure(3, [(3,)], "upper")
        assert not vanishes_on(p("x1 + 17", 3), g)
        assert vanishes_on(p("x1 - x2", 3), g)
        assert vanishes_on(Poly.zero(3), g)

    def test_distinguishes_strata(self):
        # vanishes on the diagonal but not on two-block strata
        g = filter_closure(4, [(2, 2)], "upper")
        f = p("x1 - x2", 4)
        assert not vanishes_on(f, g)
        diag_only = filter_closure(4, [(4,)], "upper")
        assert vanishes_on(f, diag_only)
