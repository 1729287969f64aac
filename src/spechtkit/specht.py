"""Specht matrices: pairing matrices of word rearrangements.

The entry at (row word w1, column word w2) is the signed incidence
``young_character(w1, w2)`` relative to a complementary base pair, and the
full matrix for a partition uses the canonical base pair with rows and
columns in lexicographic order.

Because the base pair (r1, r2) is complementary, its stacked columns are the
boxes of the diagram, each once.  A cell (w1, w2) is therefore nonzero only
when ``w1 = r1 o pi`` and ``w2 = r2 o pi`` for exactly one permutation pi of
the positions, and then it is ``sign(pi)``.  ``specht_matrix`` builds the
matrix in one signed sweep over S_n, writing n! entries into a zero grid;
n! never exceeds the number of cells.  The validating ``young_character`` is
the per-cell reference the tests hold the sweep to.

Many rows repeat (a hook's rows, for one), so ``SpechtMatrix.row_basis``
reduces only the first copy of each row.  The row basis spans the row space,
so its columns, d_lambda long, have the same column matroid as the full
columns, and ``matroid.specht_matroid`` is built on them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import threading
from dataclasses import dataclass
from functools import cached_property

from .combinatorics import (
    Partition,
    Permutation,
    Word,
    classify_pair,
    format_word,
    letter_multiplicities,
    normalize_word,
    rearrangement_count,
    rearrangements,
)
from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError
from .linalg import RowSpace


def young_character(w1: Word, w2: Word, r1: Word, r2: Word) -> int:
    """Signed incidence of (w1, w2) against a complementary base pair.

    Zero when stacking w1 over w2 repeats a column; otherwise the sign of the
    permutation sending the columns of (r1, r2) to the columns of (w1, w2).
    The base pair must be complementary so that the column lookup is unique,
    and ``young_character(r1, r2, r1, r2) == 1``.
    """
    base = classify_pair(r1, r2)
    if not base.is_complementary:
        raise DomainError("base pair is not complementary")
    if len(w1) != len(r1) or len(w2) != len(r2):
        raise DomainError("word lengths do not match the base pair")
    if letter_multiplicities(w1) != letter_multiplicities(r1):
        raise DomainError("first word is not a rearrangement of the base")
    if letter_multiplicities(w2) != letter_multiplicities(r2):
        raise DomainError("second word is not a rearrangement of the base")

    columns = list(zip(w1, w2))
    if len(set(columns)) < len(columns):
        return 0
    index = {col: i for i, col in enumerate(zip(r1, r2))}
    images = [index[col] for col in columns]
    return Permutation(tuple(i + 1 for i in images)).sign()


@dataclass(frozen=True)
class SpechtMatrix:
    partition: Partition
    row_labels: tuple[Word, ...]
    col_labels: tuple[Word, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def entry(self, w1: Word, w2: Word) -> int:
        return self.entries[self.row_labels.index(w1)][self.col_labels.index(w2)]

    @cached_property
    def row_basis(self) -> tuple[tuple[int, ...], ...]:
        """The first rank-many independent rows of ``entries``, in row order.

        Every row is a combination of these, so ``entries = B R`` with R these
        rows and B holding the identity on them; B is injective, and any
        construction that only combines whole columns has the same rank on R
        as on ``entries``.  A row equal to an earlier one lies in the span of
        the rows above it, so it is skipped without a reduction; the rows
        chosen are the same.  (2,1^5) has 2,520 rows but 42 distinct ones.
        Kept on the instance, so it is computed once per memoised matrix.
        """
        space = RowSpace(len(self.col_labels))
        seen = set()
        basis = []
        for row in self.entries:
            if space.rank == space.dim:
                break
            if row not in seen:
                seen.add(row)
                if space.add(row):
                    basis.append(row)
        return tuple(basis)

    def rank(self) -> int:
        return len(self.row_basis)

    def column(self, w2: Word) -> tuple[int, ...]:
        j = self.col_labels.index(w2)
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries))

    def to_json_dict(self) -> dict:
        return {
            "partition": list(self.partition.parts),
            "row_labels": [format_word(w) for w in self.row_labels],
            "col_labels": [format_word(w) for w in self.col_labels],
            "entries": [list(row) for row in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([""] + [format_word(w) for w in self.col_labels])
        for label, row in zip(self.row_labels, self.entries):
            writer.writerow([format_word(label)] + list(row))
        return buf.getvalue()

    @staticmethod
    def from_json_dict(data: dict) -> "SpechtMatrix":
        from .combinatorics import word_from_text

        return SpechtMatrix(
            partition=Partition(tuple(data["partition"])),
            row_labels=tuple(word_from_text(t) for t in data["row_labels"]),
            col_labels=tuple(word_from_text(t) for t in data["col_labels"]),
            entries=tuple(tuple(row) for row in data["entries"]),
        )


_cache: dict[tuple[int, ...], SpechtMatrix] = {}
_cache_lock = threading.Lock()


def _lex_permutation_signs(n: int) -> list[int]:
    """Signs of the permutations of n positions in lexicographic order.

    The k-th permutation's Lehmer code is k in the factorial base and its
    digit sum is the inversion count, so the signs are a product over digits.
    """
    signs = [1]
    for radix in range(2, n + 1):
        signs = [s if d % 2 == 0 else -s for d in range(radix) for s in signs]
    return signs


def specht_matrix(p: Partition, limits: Limits = DEFAULT_LIMITS) -> SpechtMatrix:
    """The full pairing matrix of p with lex-ordered row and column labels."""
    r1, r2 = p.canonical_words()
    cells = rearrangement_count(r1) * rearrangement_count(r2)
    limits.require("max_matrix_cells", cells)
    with _cache_lock:
        hit = _cache.get(p.parts)
    if hit is not None:
        return hit

    if not classify_pair(r1, r2).is_complementary:
        raise DomainError("base pair is not complementary")
    rows = rearrangements(r1)
    cols = rearrangements(r2)
    row_index = {w: i for i, w in enumerate(rows)}
    col_index = {w: j for j, w in enumerate(cols)}
    grid = [[0] * len(cols) for _ in rows]
    # itertools.permutations permutes by position in lexicographic index
    # order, so the k-th words are r1 o pi and r2 o pi for the k-th pi.
    for w1, w2, sign in zip(
        itertools.permutations(r1),
        itertools.permutations(r2),
        _lex_permutation_signs(p.n),
    ):
        grid[row_index[w1]][col_index[w2]] = sign
    mat = SpechtMatrix(p, tuple(rows), tuple(cols), tuple(map(tuple, grid)))
    with _cache_lock:
        _cache.setdefault(p.parts, mat)
    return mat


def specht_module_dimension(p: Partition, limits: Limits = DEFAULT_LIMITS) -> int:
    """Rank of the pairing matrix; equals the hook-length dimension."""
    return specht_matrix(p, limits).rank()


def pair_matrix_entry(w1: Word, w2: Word) -> int:
    """Pairing entry for arbitrary words after frequency normalization."""
    cls = classify_pair(w1, w2)
    if not cls.rearrangeable:
        raise DomainError("words have no complementary rearrangement")
    r1, r2 = cls.partition.canonical_words()
    return young_character(normalize_word(w1), normalize_word(w2), r1, r2)


def column_action_witness(
    p: Partition, sigma: Permutation, limits: Limits = DEFAULT_LIMITS
) -> dict[Word, tuple[Word, int]]:
    """Show that permuting letter positions permutes matrix columns by sign.

    For each column label c, the column of ``sigma.apply(c)`` read against
    rows ``sigma.apply(r)`` equals ``sign(sigma)`` times the original column;
    equivalently the column at label c of the position-permuted matrix equals
    ``sign(sigma)`` times the column at ``sigma.inverse().apply(c)``.  Returns
    ``{c: (source_label, sign)}`` and verifies the identity entry by entry.
    """
    if sigma.n != p.n:
        raise DomainError("permutation degree does not match partition size")
    mat = specht_matrix(p, limits)
    sign = sigma.sign()
    inv = sigma.inverse()
    witness: dict[Word, tuple[Word, int]] = {}
    for c in mat.col_labels:
        source = inv.apply(c)
        permuted = tuple(
            mat.entry(sigma.apply(r), c) for r in mat.row_labels
        )
        expected = tuple(sign * x for x in mat.column(source))
        if permuted != expected:
            raise AssertionError(
                f"column action failed at {format_word(c)} for {sigma.images}"
            )
        witness[c] = (source, sign)
    return witness
