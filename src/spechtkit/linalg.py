"""Exact integer linear algebra helpers.

Everything here works over the rationals but keeps integer representatives:
rows are cross-multiplied during elimination and renormalized by their gcd, so
no floating point or Fraction arithmetic appears on the hot paths.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence


def _normalize(row: Sequence[int]) -> tuple[int, ...] | None:
    """Divide by the gcd and make the leading nonzero entry positive; None for
    a zero row.  A row that is already primitive with a positive lead comes
    back as a tuple undivided."""
    g = gcd(*row)
    if not g:
        return None
    for lead in row:
        if lead:
            break
    if lead < 0:
        g = -g
    elif g == 1:
        return tuple(row)
    return tuple([x // g for x in row])


class RowSpace:
    """Incremental echelon basis for the row span of integer vectors."""

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: list[tuple[int, tuple[int, ...]]] = []  # (pivot col, row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...] | None:
        """Reduce *vec* against the basis; None if it lies in the span.

        Every stored row is zero at the pivot columns of the rows stored
        before it, so the residue is zero at every pivot column.  Up to scale
        it is the only vector a*vec + s (a != 0, s in the span) with that
        property: the projection of *vec* that kills the span.  Normalised, it
        is therefore the same for every nonzero multiple of *vec* plus any
        element of the span, and two vectors outside the span have equal
        residues exactly when each lies in the span of the other and the
        basis.
        """
        row = vec
        for col, piv in self.pivots:
            c = row[col]
            if c:
                p = piv[col]
                row = [p * a - c * b for a, b in zip(row, piv)]
        return _normalize(row)

    def add(self, vec: Sequence[int]) -> bool:
        """Insert *vec*; return True if it increased the rank."""
        residue = self.reduce(vec)
        if residue is None:
            return False
        for col, x in enumerate(residue):
            if x:
                break
        self.pivots.append((col, residue))
        return True

    def contains(self, vec: Sequence[int]) -> bool:
        return self.reduce(vec) is None


def int_rank(rows: Iterable[Sequence[int]], dim: int | None = None) -> int:
    """Rank of integer rows of length *dim*; stops once the rank is *dim*."""
    rows = list(rows)
    if not rows:
        return 0
    space = RowSpace(dim if dim is not None else len(rows[0]))
    for r in rows:
        space.add(r)
        if space.rank == space.dim:
            break
    return space.rank


def scaled_inverse(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """(a, s) with s > 0 and a = s * m^-1 integral, for an invertible integer
    matrix m, by Gauss-Jordan elimination."""
    k = len(m)
    rows = [list(row) + [int(i == c) for c in range(k)] for i, row in enumerate(m)]
    for c in range(k):
        r = next(r for r in range(c, k) if rows[r][c])
        pivot = rows[r] if rows[r][c] > 0 else [-x for x in rows[r]]
        rows[r], rows[c] = rows[c], pivot
        for r, row in enumerate(rows):
            if row[c] and r != c:
                row = [pivot[c] * x - row[c] * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                rows[r] = [x // g for x in row]
    # Now rows = [diag | diag * m^-1] with a positive diagonal.
    s = lcm(*(rows[i][i] for i in range(k)))
    return [[x * (s // rows[i][i]) for x in rows[i][k:]] for i in range(k)], s

