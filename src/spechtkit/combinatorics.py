"""Partitions, diagrams, words, and permutations.

Conventions used throughout the package:

* boxes of a diagram are 1-based (row, column) pairs in matrix orientation;
* a word is a tuple of positive integers;
* a permutation acts on a word by position pullback, ``(s * w)[i] = w[s(i)]``,
  so applying ``s`` then ``t`` equals applying ``s * t`` on the right.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from math import factorial, prod
from typing import Iterator

from .errors import DomainError

Word = tuple[int, ...]
Box = tuple[int, int]


# ---------------------------------------------------------------------------
# partitions and diagrams


def _part(x) -> int:
    """A part as a Python int; integral numpy scalars convert, bools and
    non-integers (2.5, 2.0) are refused."""
    if isinstance(x, bool):
        raise DomainError(f"partition parts must be integers, not {x!r}")
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"partition parts must be integers, not {x!r}") from None


@dataclass(frozen=True, order=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        p = self.parts
        # plain ints in a tuple need no conversion
        if type(p) is not tuple or any(type(x) is not int for x in p):
            p = tuple(map(_part, p))
            object.__setattr__(self, "parts", p)
        if p and min(p) <= 0:
            raise DomainError(f"partition parts must be positive: {p}")
        if p != tuple(sorted(p, reverse=True)):
            raise DomainError(f"partition parts must be weakly decreasing: {p}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.parts)

    @staticmethod
    def parse(text: str) -> "Partition":
        try:
            parts = tuple(int(tok) for tok in text.split(",") if tok.strip())
        except ValueError as exc:
            raise DomainError(f"cannot parse partition {text!r}") from exc
        if not parts:
            raise DomainError("empty partition string")
        return Partition(parts)

    def conjugate(self) -> "Partition":
        return self._conjugate

    @cached_property
    def _conjugate(self) -> "Partition":
        """The conjugate, built once per instance."""
        parts = self.parts
        # lambda_i - lambda_{i+1} columns have length i, longest first
        conj: list[int] = []
        for i in range(len(parts), 0, -1):
            conj += [i] * (parts[i - 1] - (parts[i] if i < len(parts) else 0))
        return Partition(tuple(conj))

    def boxes_row_major(self) -> list[Box]:
        return [
            (i + 1, j + 1)
            for i, row in enumerate(self.parts)
            for j in range(row)
        ]

    def dimension(self) -> int:
        """Hook-length dimension (number of standard fillings).

        The hook of box (i, j), counted from 0, is arm + leg + 1 =
        (lambda_i - j - 1) + (lambda'_j - i - 1) + 1."""
        cols = [sum(1 for row in self.parts if row > j) for j in range(self.parts[0])]
        hooks = prod(
            row + cols[j] - i - j - 1 for i, row in enumerate(self.parts) for j in range(row)
        )
        num, rest = divmod(factorial(self.n), hooks)
        if rest:
            raise AssertionError(f"the hook product of {self} does not divide {self.n}!")
        return num

    def canonical_words(self) -> tuple[Word, Word]:
        """Row word and column word from a row-major walk over the boxes."""
        boxes = self.boxes_row_major()
        return (
            tuple(i for i, _ in boxes),
            tuple(j for _, j in boxes),
        )


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n in reverse-lex order, largest first part first."""
    out: list[Partition] = []

    def gen(remaining: int, maxpart: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for part in range(min(maxpart, remaining), 0, -1):
            prefix.append(part)
            gen(remaining - part, part, prefix)
            prefix.pop()

    if n == 0:
        return []
    gen(n, n, [])
    return out


def capped_factorial(n: int, bound: int) -> int:
    """n!, or the first product 2 * 3 * ... * k past *bound*, if n! is."""
    product, k = 1, 1
    while k < n and product <= bound:
        k += 1
        product *= k
    return product


# ---------------------------------------------------------------------------
# words


def word_from_text(text: str) -> Word:
    """Parse a word from digits, comma-separated integers, or letters.

    Letters are normalized to frequency rank (most common letter becomes 1,
    ties broken by first occurrence), mirroring how textual examples such as
    TENNESSEE are handled.
    """
    text = text.strip()
    if not text:
        raise DomainError("empty word")
    if "," in text:
        try:
            return tuple(int(tok) for tok in text.split(","))
        except ValueError:
            raise DomainError(f"cannot parse word {text!r}") from None
    if text.isdigit():
        return tuple(int(ch) for ch in text)
    if text.isalpha():
        return normalize_word(tuple(ord(ch) for ch in text.upper()))
    raise DomainError(f"cannot parse word {text!r}")


def format_word(w: Word) -> str:
    if all(1 <= x <= 9 for x in w):
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def format_label(label):
    """A ground-set label for output: a word as its `format_word` text, a
    string or an integer (a ``--matrix`` column label) as it is."""
    return format_word(label) if isinstance(label, tuple) else label


def letter_multiplicities(w: Word) -> dict[int, int]:
    mult: dict[int, int] = {}
    for x in w:
        mult[x] = mult.get(x, 0) + 1
    return mult


def normalize_word(w: Word) -> Word:
    """Relabel letters by frequency rank, ties broken by first occurrence."""
    mult = letter_multiplicities(w)
    first = {}
    for i, x in enumerate(w):
        first.setdefault(x, i)
    order = sorted(mult, key=lambda x: (-mult[x], first[x]))
    rank = {x: k + 1 for k, x in enumerate(order)}
    return tuple(rank[x] for x in w)


def rearrangements(w: Word) -> list[Word]:
    """All distinct rearrangements of *w* in lexicographic order."""
    if not w:
        raise DomainError("empty word has no rearrangements")
    current = sorted(w)
    out = [tuple(current)]
    n = len(current)
    while True:
        # classic next-multiset-permutation step
        i = n - 2
        while i >= 0 and current[i] >= current[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while current[j] <= current[i]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1 :] = reversed(current[i + 1 :])
        out.append(tuple(current))


def rearrangement_count(w: Word) -> int:
    mult = letter_multiplicities(w)
    return factorial(len(w)) // prod(factorial(m) for m in mult.values())


# ---------------------------------------------------------------------------
# complementary-pair classification


@dataclass(frozen=True)
class PairClass:
    rearrangeable: bool
    partition: Partition | None = None
    is_complementary: bool = False


def classify_pair(w1: Word, w2: Word) -> PairClass:
    """Decide whether two words have complementary rearrangements.

    The pair of letter-multiplicity histograms must form a partition and its
    conjugate; when it does, the (normalized) pair itself is complementary
    exactly when its stacked columns are pairwise distinct.
    """
    if not w1 or len(w1) != len(w2):
        return PairClass(False)
    m1 = sorted(letter_multiplicities(w1).values(), reverse=True)
    m2 = sorted(letter_multiplicities(w2).values(), reverse=True)
    lam = Partition(tuple(m1))
    if tuple(m2) != lam.conjugate().parts:
        return PairClass(False)
    v1, v2 = normalize_word(w1), normalize_word(w2)
    columns = list(zip(v1, v2))
    is_comp = len(set(columns)) == len(columns)
    if is_comp:
        # in the free orbit the column multiset is forced to be the diagram
        if frozenset(columns) != frozenset(lam.boxes_row_major()):
            raise AssertionError(f"distinct columns of {w1}, {w2} are not the boxes of {lam}")
    return PairClass(True, lam, is_comp)


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]  # one-line notation, images[i-1] = image of i

    def __post_init__(self):
        img = tuple(self.images)
        object.__setattr__(self, "images", img)
        if sorted(img) != list(range(1, len(img) + 1)):
            raise DomainError(f"not a permutation of 1..n: {img}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """(self * other)(i) = self(other(i))."""
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def sign(self) -> int:
        seen = [False] * self.n
        sign = 1
        for i in range(self.n):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def apply(self, w: Word) -> Word:
        """Position pullback: result[i] = w[self(i)]."""
        if len(w) != self.n:
            raise DomainError("word length does not match permutation degree")
        return tuple(w[self.images[i] - 1] for i in range(self.n))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))


def all_permutations(n: int) -> Iterator[Permutation]:
    for img in itertools.permutations(range(1, n + 1)):
        yield Permutation(img)
