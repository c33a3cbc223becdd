"""Exact row-reduction helpers over a coefficient field.

Rows are lists of field elements. Everything here is fraction-free in spirit
but not in implementation: we just divide, since the fields are exact.
"""

from __future__ import annotations

from .polyring import Field


def echelon_basis(rows: list[list], field: Field) -> list[list]:
    """Reduced row echelon basis of the row space. Zero rows are dropped."""
    basis: list[list] = []
    pivots: list[int] = []
    zero = field.zero
    for row in rows:
        r = list(row)
        for b, p in zip(basis, pivots):
            c = r[p]
            if c != zero:
                r = [field.sub(x, field.mul(c, y)) for x, y in zip(r, b)]
        pivot = next((j for j, x in enumerate(r) if x != zero), None)
        if pivot is None:
            continue
        inv = field.inv(r[pivot])
        r = [field.mul(x, inv) for x in r]
        # clear the new pivot column in earlier rows to keep the basis reduced
        for k, b in enumerate(basis):
            c = b[pivot]
            if c != zero:
                basis[k] = [field.sub(x, field.mul(c, y)) for x, y in zip(b, r)]
        basis.append(r)
        pivots.append(pivot)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


def rank(rows: list[list], field: Field) -> int:
    return len(echelon_basis(rows, field))
