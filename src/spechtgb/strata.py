"""Orbit-type strata: exact point sampling and the vanishing-ideal oracle.

The oracle is this module's point. It computes the ideal of all polynomials
vanishing on a union of strata WITHOUT touching the generator machinery that
will later be tested against it: each stratum closure is a union of
coordinate-equality subspaces, so the vanishing ideal is an intersection of
the subspaces' linear prime ideals and nothing else. Radical by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import (
    Partition,
    PartitionFilter,
    SetPartition,
    orbit_type,
    partitions_of,
    set_partitions_of_type,
    validate_partition,
    validate_set_partition,
)
from .groebner import DEFAULT_PAIR_BUDGET, IdealBasis, groebner_basis, ideal_intersection
from .polyring import QQ, Field, Poly, lex_order

_SAMPLE_POOL = range(-1000, 1001)


class UnsupportedFieldError(RuntimeError):
    """The requested operation needs more field elements than are available."""


@dataclass(frozen=True)
class StratumSample:
    """Deterministically sampled points of exact coordinate-multiplicity type mu."""

    mu: Partition
    points: tuple[tuple, ...]
    seed: int


def sample_stratum(mu, count: int, seed: int, *, field: Field = QQ) -> StratumSample:
    """Sample points whose coordinate values realize exactly the given type.

    Values are drawn without repetition from a fixed integer pool (the whole
    prime field when finite), then assigned to a uniformly shuffled block of
    positions per value. Identical (mu, count, seed) always gives identical
    points.
    """
    lam = validate_partition(mu)
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = sum(lam)
    parts = len(lam)
    if field.p is not None and field.p < parts:
        raise UnsupportedFieldError(
            f"need {parts} distinct values, the field only has {field.p}"
        )
    rng = random.Random(seed)
    pool = range(field.p) if field.p is not None else _SAMPLE_POOL
    points = []
    for _ in range(count):
        values = rng.sample(pool, parts)
        positions = list(range(n))
        rng.shuffle(positions)
        coords = [None] * n
        at = 0
        for size, value in zip(lam, values):
            for _ in range(size):
                coords[positions[at]] = field.coerce(value)
                at += 1
        point = tuple(coords)
        if orbit_type(point) != lam:
            raise RuntimeError(f"sampled point has the wrong type: {point}")
        points.append(point)
    return StratumSample(mu=lam, points=tuple(points), seed=seed)


def subspace_ideal(blocks, n: int, *, field: Field = QQ) -> IdealBasis:
    """Ideal of the subspace of points constant on each block.

    Generators are the consecutive differences x_i - x_j along each sorted
    block; the all-singletons partition gives the zero ideal (no generators).
    """
    canon = validate_set_partition(blocks, n)
    gens = []
    for block in canon:
        for i, j in zip(block, block[1:]):
            gens.append(Poly.variable(i, n, field) - Poly.variable(j, n, field))
    return IdealBasis(n, field, tuple(gens))


def _subspace_within(inner: SetPartition, outer: SetPartition) -> bool:
    """Whether the inner subspace sits inside the outer one.

    A subspace is spanned by the indicator vectors of its blocks, so the
    inner one lies in the outer one exactly when each inner block is a union
    of outer blocks: when every block of outer lies inside one block of inner.
    """
    block_of = {i: k for k, block in enumerate(inner) for i in block}
    return all(len({block_of[i] for i in block}) == 1 for block in outer)


@lru_cache(maxsize=None)
def _oracle_cached(n: int, members: frozenset, pair_budget: int) -> IdealBasis:
    collected: list[SetPartition] = []
    for mu in partitions_of(n):
        if mu in members:
            collected.extend(set_partitions_of_type(mu))
    kept = []
    for idx, blocks in enumerate(collected):
        absorbed = any(
            jdx != idx and _subspace_within(blocks, other)
            for jdx, other in enumerate(collected)
        )
        if not absorbed:
            kept.append(blocks)
    order = lex_order(n)
    result = subspace_ideal(kept[0], n)
    for blocks in kept[1:]:
        result = ideal_intersection(result, subspace_ideal(blocks, n), order=order,
                                    pair_budget=pair_budget)
    if len(kept) == 1:
        result = IdealBasis(n, QQ, tuple(groebner_basis(result.generators, order,
                                                        pair_budget=pair_budget)))
    return result


def vanishing_ideal_oracle(g: PartitionFilter, *,
                           pair_budget: int = DEFAULT_PAIR_BUDGET) -> IdealBasis:
    """Ideal of everything vanishing on the strata of the given upper filter.

    Only valid over the rationals, where each stratum is dense in the union
    of its equality subspaces. Subspaces contained in another listed subspace
    are dropped first (that cannot change the intersection), the survivors'
    prime ideals are then intersected pairwise in enumeration order, and the
    returned generators are the reduced basis under lex x1 < ... < xn.
    """
    if g.kind != "upper":
        raise ValueError("the oracle takes an upper filter")
    if not len(g):
        raise ValueError("the oracle needs a nonempty filter")
    return _oracle_cached(g.n, frozenset(g.members), pair_budget)


def check_vanishing(f: Poly, g: PartitionFilter, samples_per_stratum: int, seed: int) -> bool:
    """Whether f evaluates to zero at every sampled point of every stratum in g."""
    if g.kind != "upper":
        raise ValueError("check_vanishing takes an upper filter")
    if f.field != QQ:
        raise UnsupportedFieldError("stratum evaluation is defined over the rationals")
    if f.nvars != g.n:
        raise ValueError("polynomial and filter live in different rings")
    zero = f.field.zero
    order = partitions_of(g.n)
    for mu in g.sorted_members():
        stratum_seed = seed * 1_000_003 + order.index(mu)
        sample = sample_stratum(mu, samples_per_stratum, stratum_seed)
        for point in sample.points:
            if f.evaluate(point) != zero:
                return False
    return True
