"""Machine checks for two conjectural identities.

The first is a bilinear "funny sum" over properly ordered set partitions that
should detect equality of two permutations; the second matches the Chow
graded dimensions of the hook matroids M(2,1^(n-1)) against derangements
counted by excedances, with a cyclic-orbit refinement.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import factorial
from typing import Iterator

from .chow import chow_graded_dimensions, fy_basis_monomials
from .combinatorics import (
    Partition,
    Permutation,
    all_permutations,
    properly_ordered_set_partitions,
    rearrangements,
)
from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError
from .matroid import specht_matroid
from .specht import specht_matrix


# ---------------------------------------------------------------------------
# Conjecture 1: the funny sum


def _partition_tables(n: int, limits: Limits):
    """Per set partition: (word, column indices of the complementary word's
    rearrangements, weight, the shape's pairing-matrix entries, row-index
    lookup into them)."""
    tables = []
    for osp in properly_ordered_set_partitions(n, limits):
        shape = osp.shape()
        mat = specht_matrix(shape, limits)
        lookup = {w: i for i, w in enumerate(mat.row_labels)}
        cols = {w: j for j, w in enumerate(mat.col_labels)}
        rear = rearrangements(osp.complementary_word())
        weight = shape.dimension() ** 2
        tables.append(
            (osp.word(), [cols[r] for r in rear], weight, mat.entries, lookup)
        )
    return tables


def funny_sum(
    n: int,
    sigma: Permutation,
    tau: Permutation,
    limits: Limits = DEFAULT_LIMITS,
    _tables=None,
) -> int:
    """Sum of d(P)^2 * Y(sigma w_P, r) * Y(tau w_P, r) over partitions P and
    rearrangements r of the complementary word of P."""
    limits.require("max_funny_sum_n", n)
    if sigma.n != n or tau.n != n:
        raise DomainError("permutation degree must equal n")
    tables = _tables if _tables is not None else _partition_tables(n, limits)
    total = 0
    for word, col_idx, weight, entries, lookup in tables:
        row_s = entries[lookup[sigma.apply(word)]]
        row_t = entries[lookup[tau.apply(word)]]
        total += weight * sum(row_s[j] * row_t[j] for j in col_idx)
    return total


@dataclass(frozen=True)
class FunnySumReport:
    n: int
    mode: str  # "full" | "sampled"
    pairs_checked: int
    passed: bool
    seed: int | None = None
    counterexample: tuple | None = None  # (sigma, tau, value, expected)

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "mode": self.mode,
            "pairs_checked": self.pairs_checked,
            "passed": self.passed,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.counterexample is not None:
            s, t, v, e = self.counterexample
            out["counterexample"] = {
                "sigma": list(s.images),
                "tau": list(t.images),
                "value": v,
                "expected": e,
            }
        return out


def check_conjecture1(
    n: int,
    mode: str = "full",
    samples: int = 200,
    seed: int = 0,
    limits: Limits = DEFAULT_LIMITS,
) -> FunnySumReport:
    """Verify the detection identity: (n!)^2 on the diagonal, 0 off it."""
    limits.require("max_funny_sum_n", n)
    tables = _partition_tables(n, limits)
    expected_diag = factorial(n) ** 2

    def run_pair(s, t):
        value = funny_sum(n, s, t, limits, _tables=tables)
        expected = expected_diag if s.images == t.images else 0
        return value, expected

    if mode == "full":
        limits.require("max_conjecture1_full_n", n)
        perms = list(all_permutations(n))
        count = 0
        for s in perms:
            for t in perms:
                value, expected = run_pair(s, t)
                count += 1
                if value != expected:
                    return FunnySumReport(
                        n, mode, count, False, None, (s, t, value, expected)
                    )
        return FunnySumReport(n, mode, count, True)
    if mode == "sampled":
        if samples < 1:
            raise DomainError("samples must be positive")
        rng = random.Random(seed)
        perms = list(all_permutations(n))
        for i in range(samples):
            s = rng.choice(perms)
            # mix diagonal and off-diagonal pairs
            t = s if i % 4 == 0 else rng.choice(perms)
            value, expected = run_pair(s, t)
            if value != expected:
                return FunnySumReport(
                    n, mode, i + 1, False, seed, (s, t, value, expected)
                )
        return FunnySumReport(n, mode, samples, True, seed)
    raise DomainError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Conjecture 2: hook Chow dimensions vs derangement excedances


@dataclass(frozen=True)
class ExcedanceTable:
    n: int
    counts: tuple[int, ...]  # counts[k] = derangements with k+1 excedances


def _derangements(n: int) -> Iterator[tuple[Permutation, int]]:
    """Each derangement g of 1..n with its number of excedances g(i) > i."""
    for g in all_permutations(n):
        if all(g(i) != i for i in range(1, n + 1)):
            yield g, sum(1 for i in range(1, n + 1) if g(i) > i)


def derangement_excedance_counts(
    n: int, limits: Limits = DEFAULT_LIMITS
) -> ExcedanceTable:
    limits.require("max_derangement_n", n)
    counts: dict[int, int] = {}
    for _, exc in _derangements(n):
        counts[exc - 1] = counts.get(exc - 1, 0) + 1
    top = max(counts) if counts else -1
    return ExcedanceTable(n, tuple(counts.get(k, 0) for k in range(top + 1)))


def hook_matroid(n: int, limits: Limits = DEFAULT_LIMITS):
    """M(2, 1^(n-1)), the matroid of the near-staircase hook shape."""
    if n < 2:
        raise DomainError("n must be at least 2")
    return specht_matroid(Partition((2,) + (1,) * (n - 2)), limits)


@dataclass(frozen=True)
class Conjecture2Report:
    n: int
    chow_dims: tuple[int, ...]
    excedance_counts: tuple[int, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "chow_dims": list(self.chow_dims),
            "excedance_counts": list(self.excedance_counts),
            "passed": self.passed,
        }


def check_conjecture2(n: int, limits: Limits = DEFAULT_LIMITS) -> Conjecture2Report:
    dims = tuple(chow_graded_dimensions(hook_matroid(n, limits)))
    counts = derangement_excedance_counts(n, limits).counts
    return Conjecture2Report(n, dims, counts, dims == counts)


# ---------------------------------------------------------------------------
# cyclic-orbit refinement


@dataclass(frozen=True)
class OrbitStructure:
    sizes: tuple[int, ...]  # sorted orbit sizes

    def multiset(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.sizes:
            out[s] = out.get(s, 0) + 1
        return out

    @property
    def total(self) -> int:
        return sum(self.sizes)


def _orbits(elements, step) -> OrbitStructure:
    """Orbit sizes of the cyclic action generated by *step*."""
    remaining = set(elements)
    sizes = []
    while remaining:
        x = next(iter(remaining))
        size = 0
        y = x
        while True:
            remaining.discard(y)
            size += 1
            y = step(y)
            if y == x:
                break
        sizes.append(size)
    return OrbitStructure(tuple(sorted(sizes)))


def cyclic_orbit_structures(
    n: int, k: int, limits: Limits = DEFAULT_LIMITS
) -> tuple[OrbitStructure, OrbitStructure]:
    """Orbit-size multisets of the long cycle acting on (a) derangements of
    k+1 excedances by conjugation and (b) degree-k chain-basis monomials of
    the hook matroid by relabeling."""
    limits.require("max_derangement_n", n)
    m = hook_matroid(n, limits)
    if not 0 <= k <= n - 2:  # excedances run from 1 to n - 1
        raise DomainError(f"k must lie in 0..{n - 2} for n = {n}")
    cycle = Permutation.from_cycles(n, list(range(1, n + 1)))
    cycle_inv = cycle.inverse()

    conj = _orbits(
        [g.images for g, exc in _derangements(n) if exc == k + 1],
        lambda img: (cycle * Permutation(img) * cycle_inv).images,
    )

    monomials = fy_basis_monomials(m, k)

    def relabel(mono):
        return tuple(
            (frozenset(cycle_inv.apply(w) for w in flat), d) for flat, d in mono
        )

    fy = _orbits([tuple(mono) for mono in monomials], relabel)
    return conj, fy
