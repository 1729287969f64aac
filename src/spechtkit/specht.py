"""Specht matrices: pairing matrices of word rearrangements.

The entry at (row word w1, column word w2) is the signed incidence
``young_character(w1, w2)`` relative to a complementary base pair, and the
full matrix for a partition uses the canonical base pair with rows and
columns in lexicographic order.

Because the base pair (r1, r2) is complementary, its stacked columns are the
boxes of the diagram, each once.  A cell (w1, w2) is therefore nonzero only
when ``w1 = r1 o pi`` and ``w2 = r2 o pi`` for exactly one permutation pi of
the positions, and then it is ``sign(pi)``.

``specht_matrix`` returns a ``SpechtMatrix``, a frozen dataclass whose one
field is the partition, memoised per partition in ``_cache``.  Its labels,
entries, row basis and shape are ``functools.cached_property`` values,
built on first read and kept on the memoised matrix; the shape is counted
by ``rearrangement_count`` without building the labels, and a cache hit
checks ``max_matrix_cells`` against it.  So is ``symmetric_group``, the
read-only one-line images and signs of S_n, n = |lambda|.  ``derived`` is a
dict that the coefficient layer fills with what it derives from the matrix
and a group and keeps for later calls (``kept``); ``coefficients`` names the
keys.  (Two threads reading an unbuilt value at once may both build it;
they store equal values.)

Permuting positions acts on labels, and ``action_table`` is that one action:
a |G| x labels table of label indices, checked against ``max_matrix_cells``
before it is built.  The coefficient walks read each factor's table through
``kept_tables``, which keeps it in ``derived`` and checks a kept one against
the numbers that built it; ``conjectures`` acts by S_n on row labels for the
funny sums, and by powers of the long cycle on the hook's column labels.

The entries come from one signed sweep over S_n, writing n! entries into a
zero grid (n! never exceeds the number of cells); the validating
``young_character`` is the per-cell reference the tests hold the sweep to.
Only callers that print or walk every cell read them, such as the
``specht-matrix`` output, ``conjectures.gram_column``, the polytope of the
columns and the dense ``*_matrix`` coefficient path.

The row basis and the rank read no rows.  ``SpechtMatrix.row_basis`` is the
d_lambda rows whose labels are Yamanouchi (lattice) words: every prefix
holds at least as many i's as (i+1)'s.  A Yamanouchi word names the row
of each of 1..n in a standard tableau, so these rows are indexed like the
standard polytabloids, the classical basis of S^lambda (Sagan, *The
Symmetric Group*, Thm 2.6.5).  Each is built from its label alone, with
prod lambda_i! nonzero cells, and added to a ``RowSpace``; a dependent row,
or a count other than the hook-length d_lambda, raises, so rank M_lambda =
d_lambda is checked, never assumed.  The basis spans the row space, so its
columns, d_lambda long, have the same column matroid as the full columns,
and ``matroid.specht_matroid`` is built on them.
"""

from __future__ import annotations

import csv
import io
import itertools
import threading
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .combinatorics import (
    Partition,
    Permutation,
    Word,
    classify_pair,
    format_word,
    letter_multiplicities,
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
    """The pairing matrix of a partition, with lex-ordered row and column
    labels.  The partition fixes every cell, so it is the only field: ``==``
    and ``hash`` compare it.  Labels, entries and the row basis are each
    built on first read and kept on the instance; the rank reads none of
    the rows."""

    partition: Partition

    @cached_property
    def row_labels(self) -> tuple[Word, ...]:
        return tuple(rearrangements(self.partition.canonical_words()[0]))

    @cached_property
    def col_labels(self) -> tuple[Word, ...]:
        return tuple(rearrangements(self.partition.canonical_words()[1]))

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """Every cell, in one signed sweep over the n! position permutations."""
        r1, r2 = self.partition.canonical_words()
        row_index = {w: i for i, w in enumerate(self.row_labels)}
        col_index = {w: j for j, w in enumerate(self.col_labels)}
        grid = [[0] * len(col_index) for _ in row_index]
        # itertools.permutations permutes by position in lexicographic index
        # order, so the k-th words are r1 o pi and r2 o pi for the k-th pi.
        for w1, w2, sign in zip(
            itertools.permutations(r1),
            itertools.permutations(r2),
            _lex_permutation_signs(self.partition.n),
        ):
            grid[row_index[w1]][col_index[w2]] = sign
        return tuple(map(tuple, grid))

    @cached_property
    def shape(self) -> tuple[int, int]:
        """(rows, columns), counted without building the labels."""
        return tuple(map(rearrangement_count, self.partition.canonical_words()))

    @cached_property
    def symmetric_group(self) -> tuple[np.ndarray, np.ndarray]:
        """S_n for n = |lambda|, as read-only int64 arrays: the zero-based
        one-line images, one row per element in lexicographic order, and
        their signs.  The coefficient walks and ``gram_column`` act by them."""
        n = self.partition.n
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        return frozen(perms), frozen(np.array(_lex_permutation_signs(n), dtype=np.int64))

    @cached_property
    def derived(self) -> dict:
        """Values the coefficient layer derives from this matrix and a group,
        keyed by ``coefficients`` and kept as long as the matrix is."""
        return {}

    def entry(self, w1: Word, w2: Word) -> int:
        return self.entries[self.row_labels.index(w1)][self.col_labels.index(w2)]

    @cached_property
    def row_basis(self) -> tuple[tuple[int, ...], ...]:
        """The rows at the Yamanouchi labels, in row order.

        Each is built from its label alone (``_yamanouchi_rows``) and added
        to a ``RowSpace``; a dependent row, or a count other than the
        hook-length d_lambda, raises, so the basis is checked exactly.  They
        are the first d_lambda independent rows of ``entries``: the tests
        hold them to the scan over every row.  Every row is a combination of
        these, so ``entries = B R`` with R these rows and B holding the
        identity on them; B is injective, and any construction that only
        combines whole columns has the same rank on R as on ``entries``.
        """
        space = RowSpace(len(self.col_labels))
        basis = tuple(self._yamanouchi_rows())
        for row in basis:
            if not space.add(row):
                raise AssertionError(f"Yamanouchi rows of {self.partition} are dependent")
        if len(basis) != self.partition.dimension():
            raise AssertionError(
                f"{len(basis)} Yamanouchi rows of {self.partition}, "
                f"not d = {self.partition.dimension()}"
            )
        return basis

    def _yamanouchi_rows(self) -> list[tuple[int, ...]]:
        """The rows at the Yamanouchi labels, in lex order, each built alone.

        A row label w1 = r1 o sigma has its nonzero cells at pi = tau o sigma
        for the tau in the row stabiliser of r1 (the permutations of the
        positions within each row of the diagram): the cell in column
        (r2 o tau) o sigma holds sign(tau) * sign(sigma).  So one list of
        (r2 o tau, sign(tau)) per shape, with prod lambda_i! members, gives
        every row, each member permuted by sigma with one ``itemgetter``.

        The labels come by backtracking: letter i + 1 may follow a prefix
        holding fewer i + 1's than i's.  The letter i at position k takes
        the next unused box of row i, ``sigma[k] = starts[i] + (i's so
        far)``.  Every box of a later row comes after that box in r1, and
        every box of its own or an earlier row before it, so the inversions
        of sigma it adds are the letters above i placed so far.
        """
        parts = self.partition.parts
        n = self.partition.n
        # r2 o tau on the i-th row block is a permutation of 1..lambda_i
        stabiliser = [((), 1)]
        for part in parts:
            block = list(
                zip(itertools.permutations(range(1, part + 1)), _lex_permutation_signs(part))
            )
            stabiliser = [(c + b, s * t) for c, s in stabiliser for b, t in block]
        col_index = {w: j for j, w in enumerate(self.col_labels)}
        starts = list(itertools.accumulate(parts, initial=0))
        counts = [0] * len(parts)
        sigma: list[int] = []
        rows = []

        def extend(inversions: int) -> None:
            if len(sigma) == n:
                sign = -1 if inversions & 1 else 1
                pick = itemgetter(*sigma) if n > 1 else (lambda c: c)
                row = [0] * len(col_index)
                for c, s in stabiliser:
                    row[col_index[pick(c)]] = s * sign
                rows.append(tuple(row))
                return
            for i, part in enumerate(parts):
                if counts[i] < part and (i == 0 or counts[i - 1] > counts[i]):
                    sigma.append(starts[i] + counts[i])
                    counts[i] += 1
                    extend(inversions + sum(counts[i + 1 :]))
                    counts[i] -= 1
                    sigma.pop()

        extend(0)
        return rows

    def rank(self) -> int:
        return len(self.row_basis)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.entries))

    def to_json_dict(self) -> dict:
        return {
            "partition": list(self.partition.parts),
            "row_labels": [format_word(w) for w in self.row_labels],
            "col_labels": [format_word(w) for w in self.col_labels],
            "entries": [list(row) for row in self.entries],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([""] + [format_word(w) for w in self.col_labels])
        for label, row in zip(self.row_labels, self.entries):
            writer.writerow([format_word(label)] + list(row))
        return buf.getvalue()


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
    """The pairing matrix of p with lex-ordered row and column labels.

    The guard counts every cell, rows times columns, whether or not the
    caller reads them: a cache hit reads the stored shape, and a miss
    checks before it stores the matrix.  The matrix is memoised whole, with
    whatever of it has been built.
    """
    with _cache_lock:
        hit = _cache.get(p.parts)
    mat = hit or SpechtMatrix(p)
    rows, cols = mat.shape
    limits.require("max_matrix_cells", rows * cols)
    if hit:
        return hit
    with _cache_lock:
        return _cache.setdefault(p.parts, mat)


# ---------------------------------------------------------------------------
# the label action


def action_table(labels: Sequence, positions: np.ndarray, limits: Limits) -> np.ndarray:
    """(|G|, len(labels)) array whose entry [g, c] is the index of g . labels[c],
    where g pulls a word back along the zero-based images positions[g],
    ``(g . w)[k] = w[p_g(k)]``, as ``Permutation.apply`` does.

    Each label is read as one word (a tuple of words as their concatenation)
    of L letters, with digits letter - 1 in radix the largest letter.  The
    letter at place j of w moves to place p_g^-1(j), so the codes of every
    g . w are one product of the digits with the place values of the inverse
    permutations, and a direct table over all radix^L codes turns them into
    label indices.  The result and that table are checked against
    ``max_matrix_cells`` before either is built.
    """
    letters = np.array(labels, dtype=np.int64).reshape(len(labels), -1)
    radix, length = int(letters.max()), letters.shape[1]
    if radix**length >= 2**63:
        raise DomainError("column labels are too long to encode in 64 bits")
    limits.require("max_matrix_cells", len(positions) * len(labels))
    limits.require("max_matrix_cells", radix**length)
    digits = letters - 1
    powers = radix ** np.arange(length - 1, -1, -1)
    lookup = np.zeros(radix**length, dtype=np.int64)
    lookup[digits @ powers] = np.arange(len(labels))
    # place[g, j] = powers[p_g^-1(j)], scattered along p_g
    place = np.empty_like(positions)
    place[np.arange(len(positions))[:, None], positions] = powers
    return lookup[place @ digits.T]


def frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def kept(owner, key: tuple, build: Callable):
    """``owner.derived[key]``, built by *build* on the first read."""
    value = owner.derived.get(key)
    if value is None:
        value = owner.derived.setdefault(key, build())
    return value


def kept_tables(factors, group: tuple, roles, positions, limits: Limits):
    """Each factor's action table in turn, kept in its ``derived`` under
    *group* plus its role, read or built only when the caller asks for it.

    A built table is ``action_table`` of the factor's column labels, which
    checks ``max_matrix_cells`` first; a kept one is checked against the
    same numbers in the same order, so a lower limit refuses it as it
    refuses the build.
    """
    for f, role, p in zip(factors, roles, positions):
        entry = f.derived.get(group + (role,))
        if entry is None:
            table = frozen(action_table(f.col_labels, p, limits))
            # each label rearranges one word: its letters give the code count
            word = np.ravel(f.col_labels[0])
            entry = f.derived.setdefault(group + (role,), (table, int(word.max()) ** len(word)))
        else:
            limits.require("max_matrix_cells", entry[0].size)
            limits.require("max_matrix_cells", entry[1])
        yield entry[0]
