"""Independent reference implementations used to pin expected values.

Everything here is deliberately naive: brute-force expansion over dicts,
closed-form counting formulas, definition-chasing predicates.  Nothing
imports from the package under test, so a bug there cannot hide in its
own mirror image.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial


# ---------------------------------------------------------------------------
# naive sparse polynomials: dict from exponent tuple to Fraction


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            c = out.get(m, 0) + c1 * c2
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b, dropping cancelled terms."""
    out = dict(a)
    for m, c in b.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def term_product(a: dict, mono, coeff) -> dict:
    """a times coeff * x^mono."""
    if not coeff:
        return {}
    return {tuple(x + y for x, y in zip(m, mono)): c * coeff for m, c in a.items()}


def as_fractions(terms: dict) -> dict:
    """The same terms with every coefficient a Fraction."""
    return {m: Fraction(c) for m, c in terms.items()}


def difference_product(pairs, n: int) -> dict:
    """Expand prod (x_a - x_b) over the listed 1-based index pairs."""
    poly = {(0,) * n: Fraction(1)}
    for a, b in pairs:
        factor = {}
        ma = [0] * n
        ma[a - 1] = 1
        factor[tuple(ma)] = Fraction(1)
        mb = [0] * n
        mb[b - 1] = 1
        factor[tuple(mb)] = Fraction(-1)
        poly = poly_mul(poly, factor)
    return poly


def column_pairs(rows):
    """The (upper, lower) entry pairs contributing one difference factor each."""
    rows = [list(r) for r in rows]
    width = len(rows[0])
    out = []
    for c in range(width):
        col = [row[c] for row in rows if len(row) > c]
        for i in range(len(col)):
            for j in range(i + 1, len(col)):
                out.append((col[i], col[j]))
    return out


def eval_poly(poly: dict, point) -> Fraction:
    total = Fraction(0)
    for mono, coeff in poly.items():
        v = coeff
        for e, x in zip(mono, point):
            v *= Fraction(x) ** e
        total += v
    return total


# ---------------------------------------------------------------------------
# counting formulas


def hook_length_count(shape) -> int:
    """Number of standard fillings, via the product of hook lengths."""
    shape = list(shape)
    n = sum(shape)
    conj = [sum(1 for p in shape if p > c) for c in range(shape[0])]
    prod = 1
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            prod *= (row_len - c) + (conj[c] - (r + 1))
    assert factorial(n) % prod == 0
    return factorial(n) // prod


def hook_product(shape) -> int:
    """Product of all hook lengths of the diagram."""
    n = sum(shape)
    return factorial(n) // hook_length_count(shape)


def column_group_order(shape) -> int:
    """Order of the group permuting each column within itself."""
    conj = [sum(1 for p in shape if p > c) for c in range(shape[0])]
    out = 1
    for h in conj:
        out *= factorial(h)
    return out


def set_partition_count(mu) -> int:
    """Partitions of {1..n} whose sorted block sizes equal mu."""
    mu = sorted(mu, reverse=True)
    n = sum(mu)
    count = factorial(n)
    for part in mu:
        count //= factorial(part)
    mult: dict = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for m in mult.values():
        count //= factorial(m)
    return count


def bell_number(n: int) -> int:
    """Total partitions of an n-element set, by the triangle recurrence."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


# ---------------------------------------------------------------------------
# order predicates


def dominates_by_partial_sums(a, b) -> bool:
    """Prefix sums of a weakly exceed those of b (same total assumed)."""
    a = list(a)
    b = list(b)
    width = max(len(a), len(b))
    a += [0] * (width - len(a))
    b += [0] * (width - len(b))
    sa = sb = 0
    for i in range(width):
        sa += a[i]
        sb += b[i]
        if sa < sb:
            return False
    return True


def brute_partitions(n: int):
    """All partitions of n, as sorted tuples, by filtering compositions."""
    out = set()

    def rec(remaining, max_part, prefix):
        if remaining == 0:
            out.add(tuple(prefix))
            return
        for p in range(min(remaining, max_part), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return out


def brute_permutation_sign(images) -> int:
    """Sign of the permutation sending i+1 to images[i], by counting inversions."""
    inv = 0
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] > images[j]:
                inv += 1
    return -1 if inv % 2 else 1


def all_permutations(n: int):
    return permutations(range(1, n + 1))
