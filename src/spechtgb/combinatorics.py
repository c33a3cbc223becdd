"""Partitions, dominance order, dominance filters, Young tableaux, and set partitions.

Also owns the text syntax for partitions and filters shared by the CLI:
``[4,1,1]`` or compressed ``411`` for a partition, ``lower<=[3,2]`` /
``upper>=[3,2]`` for principal filters, and comma-separated member lists
(optionally prefixed ``lower:`` or ``upper:``) for explicit filters.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from math import factorial, prod
from operator import attrgetter

Partition = tuple[int, ...]

FILTER_KINDS = ("lower", "upper")
TABLEAU_MODES = ("column_standard", "standard")


def validate_partition(parts) -> Partition:
    """Coerce to a canonical partition tuple, rejecting malformed input."""
    lam = tuple(int(p) for p in parts)
    if not lam:
        raise ValueError("a partition needs at least one part")
    for i, p in enumerate(lam):
        if p < 1:
            raise ValueError(f"parts must be positive integers: {lam}")
        if i and lam[i - 1] < p:
            raise ValueError(f"parts must be non-increasing: {lam}")
    return lam


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in decreasing lexicographic order."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    out: list[Partition] = []

    def emit(remaining: int, cap: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            emit(remaining - part, part, prefix)
            prefix.pop()

    emit(n, n, [])
    return tuple(out)


def conjugate(lam) -> Partition:
    """Transpose of the Young diagram: part j counts the rows of length > j."""
    lam = validate_partition(lam)
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def dominates(lam, mu) -> bool:
    """True iff every prefix sum of lam is at least the matching prefix sum of mu."""
    lam = validate_partition(lam)
    mu = validate_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("dominance compares partitions of the same integer")
    a = b = 0
    for x, y in zip(lam, mu):
        a += x
        b += y
        if a < b:
            return False
    return True


def add_box(lam, k: int) -> Partition:
    """Add one box to row k and re-sort; append a new row of length 1 when k exceeds the row count."""
    lam = validate_partition(lam)
    if k < 1:
        raise ValueError(f"row index must be positive, got {k}")
    if k > len(lam):
        return lam + (1,)
    bumped = list(lam)
    bumped[k - 1] += 1
    return tuple(sorted(bumped, reverse=True))


class PartitionFilter:
    """A subset of the partitions of n closed downward (lower) or upward (upper) under dominance.

    Instances are immutable; closure is validated at construction, never trusted.
    """

    __slots__ = ("n", "kind", "members")

    def __init__(self, n: int, members, kind: str):
        if kind not in FILTER_KINDS:
            raise ValueError(f"kind must be one of {FILTER_KINDS}, got {kind!r}")
        mem = frozenset(validate_partition(m) for m in members)
        for m in mem:
            if sum(m) != n:
                raise ValueError(f"{m} is not a partition of {n}")
        # bit j of masks[i]: partition i dominates partition j. A lower filter
        # holds each member's down-set; an upper filter meets no non-member's
        ps = partitions_of(n)
        masks = _downset_masks(n)
        inside = sum(1 << i for i, p in enumerate(ps) if p in mem)
        for i, down in enumerate(masks):
            if kind == "lower":
                bad = down & ~inside if inside >> i & 1 else 0
            else:
                bad = 0 if inside >> i & 1 else down & inside
            if bad:
                j = (bad & -bad).bit_length() - 1
                lam, mu = (ps[i], ps[j]) if kind == "lower" else (ps[j], ps[i])
                raise ValueError(
                    f"{kind} filter is not dominance-closed: "
                    f"contains {lam} but not {mu}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "members", mem)

    def __setattr__(self, name, value):
        raise AttributeError("PartitionFilter is immutable")

    def __contains__(self, lam) -> bool:
        return tuple(lam) in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.sorted_members())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartitionFilter)
            and self.n == other.n
            and self.kind == other.kind
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.kind, self.members))

    def __repr__(self) -> str:
        return f"PartitionFilter(n={self.n}, kind={self.kind!r}, members={sorted(self.members, reverse=True)})"

    def sorted_members(self) -> tuple[Partition, ...]:
        """Members in the canonical enumeration order of partitions_of(n)."""
        return tuple(p for p in partitions_of(self.n) if p in self.members)

    def complement(self) -> "PartitionFilter":
        """The complementary filter of the opposite kind, revalidated on construction."""
        other = [p for p in partitions_of(self.n) if p not in self.members]
        kind = "upper" if self.kind == "lower" else "lower"
        return PartitionFilter(self.n, other, kind)


def filter_closure(n: int, generators, kind: str) -> PartitionFilter:
    """Smallest filter of the given kind containing the generators (empty input gives the empty filter)."""
    if kind not in FILTER_KINDS:
        raise ValueError(f"kind must be one of {FILTER_KINDS}, got {kind!r}")
    gens = [validate_partition(g) for g in generators]
    for g in gens:
        if sum(g) != n:
            raise ValueError(f"{g} is not a partition of {n}")
    if kind == "lower":
        members = [p for p in partitions_of(n) if any(dominates(g, p) for g in gens)]
    else:
        members = [p for p in partitions_of(n) if any(dominates(p, g) for g in gens)]
    return PartitionFilter(n, members, kind)


def derived_filter(filt: PartitionFilter, k: int) -> PartitionFilter:
    """Partitions of n-1 whose box-add in row k lands inside the given filter; inherits the kind."""
    if filt.n < 2:
        raise ValueError("derived filters need n >= 2")
    members = [mu for mu in partitions_of(filt.n - 1) if add_box(mu, k) in filt]
    return PartitionFilter(filt.n - 1, members, filt.kind)


@lru_cache(maxsize=None)
def _downset_masks(n: int) -> tuple[int, ...]:
    ps = partitions_of(n)
    masks = []
    for lam in ps:
        m = 0
        for j, mu in enumerate(ps):
            if dominates(lam, mu):
                m |= 1 << j
        masks.append(m)
    return tuple(masks)


def enumerate_lower_filters(n: int, include_empty: bool = False) -> tuple[PartitionFilter, ...]:
    """Every lower filter of the partitions of n, by increasing member mask
    (bit i for partitions_of(n)[i]). A stack walk decides the partitions from
    the last to the first, out before in, and takes one in only when all it
    dominates (listed after it) is in: it visits down-sets, not 2^p(n) masks."""
    ps = partitions_of(n)
    masks = _downset_masks(n)
    out = []
    stack = [(len(ps), 0)]
    while stack:
        i, mask = stack.pop()
        if i:
            taken = mask | 1 << (i - 1)
            if masks[i - 1] | mask == taken:
                stack.append((i - 1, taken))
            stack.append((i - 1, mask))
        elif mask or include_empty:
            out.append(PartitionFilter(n, [p for j, p in enumerate(ps) if mask >> j & 1], "lower"))
    return tuple(out)


def enumerate_upper_filters(n: int, include_empty: bool = False) -> tuple[PartitionFilter, ...]:
    """Every upper filter of the partitions of n (complements of the lower filters)."""
    lowers = enumerate_lower_filters(n, include_empty=True)
    uppers = [f.complement() for f in lowers]
    if not include_empty:
        uppers = [f for f in uppers if f.members]
    return tuple(uppers)


class Tableau:
    """A bijective filling of the Young diagram of its shape by the entries 1..n."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rws = tuple(tuple(int(e) for e in row) for row in rows)
        if not rws:
            raise ValueError("a tableau needs at least one row")
        validate_partition([len(r) for r in rws])
        n = sum(len(r) for r in rws)
        entries = [e for r in rws for e in r]
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"entries must be a bijection onto 1..{n}: {entries}")
        object.__setattr__(self, "rows", rws)

    def __setattr__(self, name, value):
        raise AttributeError("Tableau is immutable")

    @property
    def shape(self) -> Partition:
        return tuple(len(r) for r in self.rows)

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Column contents, each read top to bottom."""
        width = len(self.rows[0])
        return tuple(
            tuple(row[c] for row in self.rows if len(row) > c) for c in range(width)
        )

    def row_index(self) -> dict[int, int]:
        """Map from entry to its 1-based row."""
        return {e: r + 1 for r, row in enumerate(self.rows) for e in row}

    def is_column_standard(self) -> bool:
        return all(
            all(col[i] < col[i + 1] for i in range(len(col) - 1))
            for col in self.columns()
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tableau({[list(r) for r in self.rows]})"


def tableaux(shape, mode: str = "column_standard") -> tuple[Tableau, ...]:
    """Enumerate the column-standard or the standard fillings of the shape,
    ordered lexicographically by row-major entry sequence.

    Both are built directly: 1, 2, ..., n are placed in turn at the foot of a
    column that has room, which keeps every column increasing downwards, and
    in standard mode only under a cell whose left neighbour is already
    filled, which keeps every row increasing too. Each filling is reached
    exactly once; the results are then sorted by rows.
    """
    if mode not in TABLEAU_MODES:
        raise ValueError(f"mode must be one of {TABLEAU_MODES}, got {mode!r}")
    lam = validate_partition(shape)
    n = sum(lam)
    heights = conjugate(lam)
    standard = mode == "standard"
    states: list[tuple[tuple[int, ...], ...]] = [((),) * len(heights)]
    for v in range(1, n + 1):
        states = [s[:c] + (s[c] + (v,),) + s[c + 1:]
                  for s in states for c, h in enumerate(heights)
                  if len(s[c]) < h and not (standard and c and len(s[c - 1]) <= len(s[c]))]
    return tuple(sorted(map(column_tableau, states), key=attrgetter("rows")))


def column_tableau(blocks) -> Tableau:
    """The tableau whose columns, left to right and each read top to bottom, are
    the blocks, longest first: a canonical set partition (see
    validate_set_partition) or the columns that tableaux fills.

    Its shape is the conjugate of the block sizes. In a canonical set partition
    blocks of equal size come by least entry, so it is the row-major-first
    column-standard filling with these columns. It validates nothing.
    """
    t = object.__new__(Tableau)
    object.__setattr__(t, "rows", tuple(tuple(c[r] for c in blocks if len(c) > r)
                                        for r in range(len(blocks[0]))))
    return t


def tableau_count(shape, mode: str = "column_standard") -> int:
    """len(tableaux(shape, mode)) in closed form: n! over the product of c_j!
    for the column lengths c_j, or the hook-length count."""
    if mode not in TABLEAU_MODES:
        raise ValueError(f"mode must be one of {TABLEAU_MODES}, got {mode!r}")
    lam = validate_partition(shape)
    heights = conjugate(lam)
    if mode == "column_standard":
        divisor = prod(factorial(h) for h in heights)
    else:
        divisor = prod(p - c + heights[c] - r - 1 for r, p in enumerate(lam) for c in range(p))
    return factorial(sum(lam)) // divisor


def orbit_type(point) -> Partition:
    """Multiplicity pattern of the coordinate values, sorted decreasing."""
    values = tuple(point)
    if not values:
        raise ValueError("orbit type of an empty point is undefined")
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.values(), reverse=True))


SetPartition = tuple[tuple[int, ...], ...]


def validate_set_partition(blocks, n: int) -> SetPartition:
    """Canonicalize blocks (each sorted, ordered by size then content) and check they partition 1..n."""
    blks = tuple(tuple(sorted(int(e) for e in b)) for b in blocks)
    if any(not b for b in blks):
        raise ValueError("blocks must be nonempty")
    flat = sorted(e for b in blks for e in b)
    if flat != list(range(1, n + 1)):
        raise ValueError(f"blocks must partition 1..{n}: {blocks!r}")
    return tuple(sorted(blks, key=lambda b: (-len(b), b)))


def set_partition_count(mu) -> int:
    """len(set_partitions_of_type(mu)) in closed form: n! over the product of
    the parts' factorials and of the factorials of the parts' multiplicities."""
    mu = validate_partition(mu)
    divisor = prod(map(factorial, mu)) * prod(map(factorial, Counter(mu).values()))
    return factorial(sum(mu)) // divisor


def set_partitions_of_type(mu) -> tuple[SetPartition, ...]:
    """All set partitions of 1..n whose block sizes realize mu, deterministically ordered."""
    mu = validate_partition(mu)
    n = sum(mu)
    results: list[SetPartition] = []

    def rec(avail: tuple[int, ...], sizes: tuple[int, ...], acc: list) -> None:
        if not sizes:
            results.append(tuple(sorted(acc, key=lambda b: (-len(b), b))))
            return
        anchor, rest = avail[0], avail[1:]
        seen = set()
        for idx, s in enumerate(sizes):
            if s in seen:
                continue
            seen.add(s)
            remaining = sizes[:idx] + sizes[idx + 1 :]
            for combo in itertools.combinations(rest, s - 1):
                taken = set(combo)
                acc.append((anchor,) + combo)
                rec(tuple(e for e in rest if e not in taken), remaining, acc)
                acc.pop()

    rec(tuple(range(1, n + 1)), mu, [])
    return tuple(results)


def partition_text(lam) -> str:
    return "[" + ",".join(str(p) for p in validate_partition(lam)) + "]"


def parse_partition_text(text: str) -> Partition:
    """Parse ``[4,1,1]`` or the compressed form ``411`` (single-digit parts only)."""
    s = text.strip()
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"unterminated partition literal: {text!r}")
        body = s[1:-1].strip()
        if not body:
            raise ValueError("empty partition literal")
        try:
            parts = [int(p) for p in body.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse partition from {text!r}") from None
        return validate_partition(parts)
    if s.isdigit():
        return validate_partition(int(ch) for ch in s)
    raise ValueError(f"cannot parse partition from {text!r}")


def filter_text(filt: PartitionFilter) -> str:
    body = ",".join(partition_text(p) for p in filt.sorted_members())
    return f"{filt.kind}:{body}"


def _split_top_level(text: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_filter_text(text: str, n: int) -> PartitionFilter:
    """Parse a filter: principal form, or a member list (lower unless prefixed upper:)."""
    s = text.strip()
    if s.startswith("lower<="):
        return filter_closure(n, [parse_partition_text(s[7:])], "lower")
    if s.startswith("upper>="):
        return filter_closure(n, [parse_partition_text(s[7:])], "upper")
    kind = "lower"
    if s.startswith("lower:"):
        kind, s = "lower", s[6:]
    elif s.startswith("upper:"):
        kind, s = "upper", s[6:]
    chunks = [c for c in _split_top_level(s) if c.strip()]
    if not chunks:
        raise ValueError(f"no partitions in filter text {text!r}")
    return PartitionFilter(n, [parse_partition_text(c) for c in chunks], kind)
