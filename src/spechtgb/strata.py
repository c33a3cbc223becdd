"""Orbit-type strata: sampled rational points and the vanishing-ideal oracle.

The oracle is this module's point. It computes the ideal of all polynomials
vanishing on a union of strata WITHOUT touching the generator machinery that
will later be tested against it: each stratum closure is a union of
coordinate-equality subspaces, so the vanishing ideal is an intersection of
the subspaces' linear prime ideals and nothing else. Radical by construction.

The subspaces of one stratum form an orbit under permuting coordinates, so
the oracle works per type: a member type whose subspaces lie inside another
member's is dropped by one test per pair of types, the size of the rest is
counted in closed form before anything is enumerated, and the intersection
is a left fold memoized per prefix of kept types, so filters that share a
prefix share its eliminations. Each elimination intersects two Groebner
bases, which ideal_intersection knows from how they were built.

Whether f vanishes on the strata of g is whether normal_forms([f], the
oracle's generators, lex) is the zero polynomial, as tests/test_strata.py
checks; sampled points are only the pointwise cross-check of the verify
check `vanishing`.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from math import factorial

from .combinatorics import (
    Partition,
    PartitionFilter,
    orbit_type,
    partitions_of,
    set_partitions_of_type,
    validate_partition,
    validate_set_partition,
)
from .groebner import DEFAULT_PAIR_BUDGET, IdealBasis, ideal_intersection
from .polyring import QQ, Field, Poly

_SAMPLE_POOL = range(-1000, 1001)

# the oracle refuses an upper filter whose kept types have more subspaces:
# every upper filter of n <= 6 (at most 90) and every principal complement of
# n = 7 (at most 350) stay below it, the n=8 complement of [5,1,1,1] (966)
# does not
MAX_ORACLE_SUBSPACES = 500


def sample_stratum(mu, count: int, seed: int) -> tuple[tuple, ...]:
    """Rational points whose coordinate values realize exactly the given type.

    Values are drawn without repetition from a fixed integer pool, then
    assigned to a uniformly shuffled block of positions per value. Identical
    (mu, count, seed) always gives identical points.
    """
    lam = validate_partition(mu)
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = sum(lam)
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        values = rng.sample(_SAMPLE_POOL, len(lam))
        positions = list(range(n))
        rng.shuffle(positions)
        coords = [None] * n
        at = 0
        for size, value in zip(lam, values):
            for _ in range(size):
                coords[positions[at]] = value
                at += 1
        point = tuple(coords)
        if orbit_type(point) != lam:
            raise RuntimeError(f"sampled point has the wrong type: {point}")
        points.append(point)
    return tuple(points)


def subspace_ideal(blocks, n: int, *, field: Field = QQ) -> IdealBasis:
    """Ideal of the subspace of points constant on each block.

    Generators are x_j - x_i for every j in a block other than its least
    element i, sorted by j; the all-singletons partition gives the zero
    ideal (no generators). Under lex x1 < ... < xn their leading variables
    x_j are distinct and no other generator involves them, so they are the
    reduced basis under that order, and the ideal is marked so.
    """
    canon = validate_set_partition(blocks, n)
    least = {j: block[0] for block in canon for j in block[1:]}
    gens = tuple(Poly.variable(j, n, field) - Poly.variable(least[j], n, field)
                 for j in sorted(least))
    ideal = IdealBasis(n, field, gens)
    object.__setattr__(ideal, "_lex_basis", True)
    return ideal


def _merges_into(nu: Partition, mu: Partition) -> bool:
    """Whether mu comes from nu by merging parts.

    Then the blocks of some set partition of type nu group into the blocks
    of any given one of type mu, so each subspace of type mu lies inside a
    subspace of type nu. The parts of nu are placed one at a time into bins
    of the sizes of mu; bins with equal room are interchangeable.
    """
    def place(k: int, room: tuple) -> bool:
        if k == len(nu):
            return True
        tried = set()
        for i, r in enumerate(room):
            if r >= nu[k] and r not in tried:
                tried.add(r)
                if place(k + 1, room[:i] + (r - nu[k],) + room[i + 1:]):
                    return True
        return False

    return place(0, tuple(mu))


def _kept_types(n: int, members) -> tuple[Partition, ...]:
    """The member types whose subspaces no other member's subspace contains.

    A stratum's subspaces form one orbit under permuting coordinates, so a
    type is absorbed exactly when one of its subspaces lies inside a subspace
    of another member type, which is decided once per pair of types. Kept
    types come in partitions_of order.
    """
    return tuple(mu for mu in partitions_of(n) if mu in members
                 and not any(nu != mu and _merges_into(nu, mu) for nu in members))


def _subspace_count(mu: Partition) -> int:
    # set partitions of type mu: n! / (prod of part factorials * prod of
    # factorials of part multiplicities)
    count = factorial(sum(mu))
    for part in mu:
        count //= factorial(part)
    for multiplicity in Counter(mu).values():
        count //= factorial(multiplicity)
    return count


_COUNTS = Counter()


@lru_cache(maxsize=None)
def _fold(n: int, types: tuple, pair_budget: int) -> IdealBasis:
    """Left fold of the subspace ideals of every set partition of each type.

    The fold over types extends the fold over types[:-1], so filters whose
    kept types share a prefix share its intersection.
    """
    ideals = [subspace_ideal(blocks, n) for blocks in set_partitions_of_type(types[-1])]
    result = _fold(n, types[:-1], pair_budget) if len(types) > 1 else ideals.pop(0)
    for ideal in ideals:
        result = ideal_intersection(result, ideal, pair_budget=pair_budget)
        _COUNTS["oracle_eliminations"] += 1
    return result


def oracle_counts() -> dict:
    """Eliminations run and fold prefixes reused by the oracle in this process."""
    return {"oracle_eliminations": _COUNTS["oracle_eliminations"],
            "oracle_prefixes_reused": _fold.cache_info().hits}


def vanishing_ideal_oracle(g: PartitionFilter, *,
                           pair_budget: int = DEFAULT_PAIR_BUDGET) -> IdealBasis:
    """Ideal of everything vanishing on the strata of the given upper filter.

    Only valid over the rationals, where each stratum is dense in the union
    of its equality subspaces. A member type whose subspaces lie inside those
    of another member type is dropped first (that cannot change the
    intersection; the test is one per pair of types). The subspaces of the
    kept types, in partitions_of order, are then intersected in a left fold
    that is memoized per prefix of kept types, and the returned generators
    are the reduced basis under lex x1 < ... < xn.

    Raises ValueError, before any enumeration, when the kept types have
    more than MAX_ORACLE_SUBSPACES subspaces in all. Below that limit an
    elimination is bounded only by pair_budget.
    """
    if g.kind != "upper":
        raise ValueError("the oracle takes an upper filter")
    if not len(g):
        raise ValueError("the oracle needs a nonempty filter")
    types = _kept_types(g.n, g.members)
    count = sum(map(_subspace_count, types))
    if count > MAX_ORACLE_SUBSPACES:
        raise ValueError(f"the oracle would intersect {count} subspace ideals, "
                         f"more than the limit of {MAX_ORACLE_SUBSPACES}")
    return _fold(g.n, types, pair_budget)
