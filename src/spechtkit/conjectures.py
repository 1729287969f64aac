"""Machine checks for two conjectural identities.

The first is a bilinear "funny sum" over properly ordered set partitions that
should detect equality of two permutations; the second matches the Chow
graded dimensions of the hook matroids M(2,1^(n-2)) against derangements
counted by excedances, with a cyclic-orbit refinement.

The excedance table comes from a DP over the sets of values already placed
(2^n states, each one packed polynomial in x), not from the n! permutations;
``oracles.derangement_excedance_oracle`` enumerates them for the tests.  Both
sides of the orbit refinement are counted by Burnside, never listed: the
derangements by that DP on the cycles of each power of the long cycle,
the chain-basis monomials by the Chow DP on fixed flats;
``oracles.chain_basis_orbits_oracle`` lists the latter for the tests.  Both
checks act on labels through ``specht.action_table``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import factorial

import numpy as np

from .chow import chow_graded_dimensions
from .combinatorics import (
    Partition,
    Permutation,
    partitions_of,
    rearrangement_count,
)
from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError, ResourceLimitError
from .matroid import _members, specht_matroid
from .specht import action_table, specht_matrix


# ---------------------------------------------------------------------------
# Conjecture 1: the funny sum


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


def gram_column(n: int, limits: Limits = DEFAULT_LIMITS) -> list[int]:
    """The funny sum against the identity, one entry per permutation.

    Entry k is v[rho] = sum over shapes lambda of d_lambda^2 * sum_w
    G_lambda[rho.w, w] for the k-th permutation rho of ``all_permutations(n)``,
    where G_lambda = M_lambda M_lambda^T is the Gram matrix of the pairing
    matrix and w runs over its row labels.  The properly ordered set
    partitions of shape lambda are exactly the row words of M_lambda, and the
    rearrangements of a partition's complementary word are all of its
    columns, so ``funny_sum(n, sigma, tau) = sum_lambda d^2 sum_w
    G[sigma.w, tau.w]``.  Since ``apply`` is an action, that sum is unchanged
    by (sigma, tau) -> (g * sigma, g * tau) whatever the matrices are, and
    ``funny_sum(n, sigma, tau) == v[tau.inverse() * sigma]``.

    Each shape's action table (``specht.action_table`` on its row labels,
    rows times n! entries) is checked against ``max_matrix_cells``
    before any is built.  Entries of M are 0 or +-1, so |G[a, b]| <= cols and
    every |v[rho]| is at most sum_lambda d^2 * rows * cols; that bound is
    checked below 2^63, so the int64 sums are exact.
    """
    limits.require("max_funny_sum_n", n)
    if n < 1:
        raise DomainError("n must be positive")
    shapes = partitions_of(n)
    weights = [shape.dimension() ** 2 for shape in shapes]
    bound = 0
    for shape, weight in zip(shapes, weights):
        r1, r2 = shape.canonical_words()
        rows = rearrangement_count(r1)
        limits.require("max_matrix_cells", rows * factorial(n))
        bound += weight * rows * rearrangement_count(r2)
    if bound >= 2**63:
        raise ResourceLimitError(f"funny sums up to {bound} overflow int64")

    column = np.zeros(factorial(n), dtype=np.int64)
    group = None  # S_n, read on the first shape's matrix
    for shape, weight in zip(shapes, weights):
        mat = specht_matrix(shape, limits)
        group = group or mat.symmetric_group
        entries = np.array(mat.entries, dtype=np.int64)
        gram = entries @ entries.T
        acted = action_table(mat.row_labels, group[0], limits)  # [k, w]: rho_k . w
        column += weight * gram[acted, np.arange(len(gram))].sum(axis=1)
    return column.tolist()


def _pair_index(sigma: tuple[int, ...], tau: tuple[int, ...]) -> int:
    """Index of tau^-1 * sigma in ``all_permutations``, from one-line images."""
    rho = [tau.index(x) for x in sigma]  # zero-based images of tau^-1 * sigma
    # lexicographic rank: each image's place among the images not yet used
    unused = list(range(len(rho)))
    index = 0
    for x in rho:
        k = unused.index(x)
        index = index * len(unused) + k
        del unused[k]
    return index


def funny_sum(
    n: int, sigma: Permutation, tau: Permutation, limits: Limits = DEFAULT_LIMITS
) -> int:
    """Sum of d(P)^2 * Y(sigma w_P, r) * Y(tau w_P, r) over partitions P and
    rearrangements r of the complementary word of P, read off
    ``gram_column(n)`` at tau^-1 * sigma."""
    limits.require("max_funny_sum_n", n)
    if sigma.n != n or tau.n != n:
        raise DomainError("permutation degree must equal n")
    return gram_column(n, limits)[_pair_index(sigma.images, tau.images)]


def check_conjecture1(
    n: int,
    mode: str = "full",
    samples: int = 200,
    seed: int = 0,
    limits: Limits = DEFAULT_LIMITS,
) -> FunnySumReport:
    """Verify the detection identity: (n!)^2 on the diagonal, 0 off it.

    Every pair is read off ``gram_column``.  A failed full check reports the
    first wrong pair in (sigma, tau) order over ``all_permutations``; that
    pair has sigma = id, since the pair (id, rho^-1) carries v[rho].
    """
    limits.require("max_funny_sum_n", n)
    if mode not in ("full", "sampled"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise DomainError("samples must be positive")
    column = gram_column(n, limits)
    perms = list(itertools.permutations(range(1, n + 1)))
    expected_diag = factorial(n) ** 2

    def failure(count, s, t):
        """The failed report if pair number *count*, (s, t), is wrong."""
        value = column[_pair_index(s, t)]
        expected = expected_diag if s == t else 0
        if value == expected:
            return None
        return FunnySumReport(
            n, mode, count, False, None if mode == "full" else seed,
            (Permutation(s), Permutation(t), value, expected),
        )

    if mode == "full":
        for count, t in enumerate(perms, start=1):
            failed = failure(count, perms[0], t)
            if failed:
                return failed
        return FunnySumReport(n, mode, len(perms) ** 2, True)
    rng = random.Random(seed)
    for i in range(samples):
        s = rng.choice(perms)
        # mix diagonal and off-diagonal pairs
        t = s if i % 4 == 0 else rng.choice(perms)
        failed = failure(i + 1, s, t)
        if failed:
            return failed
    return FunnySumReport(n, mode, samples, True, seed)


# ---------------------------------------------------------------------------
# Conjecture 2: hook Chow dimensions vs derangement excedances


def derangement_excedance_counts(
    n: int, limits: Limits = DEFAULT_LIMITS
) -> tuple[int, ...]:
    """Derangements of 1..n counted by excedances: entry k counts those with
    k + 1.  Every permutation commutes with c^n, the identity, for c the
    long cycle, so this is ``_commuting_excedances(n, n)``: 2^n states
    instead of n! permutations.  ``oracles.derangement_excedance_oracle`` is
    the enumeration the tests hold it to."""
    limits.require("max_derangement_n", n)
    if n < 0:
        raise DomainError(f"n must be non-negative, got {n}")
    return _commuting_excedances(n, n) if n else ()


def _commuting_excedances(n: int, t: int) -> tuple[int, ...]:
    """Derangements of 0..n-1 commuting with c^t, t a divisor of n, counted
    by excedances: entry k counts those with k + 1.

    Such a permutation sends j + p*t to v + ((p + r) mod L)*t, L = n/t, with
    one target cycle v of c^t and one rotation r for each cycle j.  That has
    L - r excedances if r > 0 or v > j, none otherwise, and fixed points
    exactly when v = j and r = 0.  Cycles are sent in order, so a set S of
    targets used fixes the next cycle |S|, and each of the 2^t states holds
    its polynomial in x, x marking an excedance, packed into one integer
    with a field per power of x wide enough for the t! * L^t elements
    commuting with c^t.  At t = n, L = 1, it is the DP over the value sets
    of a permutation.
    """
    size = n // t
    width = (factorial(t) * size**t).bit_length() + 1
    shift = size * width  # x^L
    rotations = sum(1 << e * width for e in range(1, size))  # x + ... + x^(L-1)
    every = (1 << t) - 1
    polys = [0] * (1 << t)
    polys[0] = 1
    for used in range(len(polys)):
        poly = polys[used]
        if not poly:
            continue
        here = 1 << used.bit_count()  # the next cycle to send, as a bit
        raised = poly << shift
        free = every ^ used
        while free:
            bit = free & -free  # the lowest free target cycle
            free ^= bit
            if bit != here:
                polys[used | bit] += raised if bit > here else poly
        if rotations:  # L > 1: the rotations r > 0 reach every free cycle
            rotated = poly * rotations
            free = every ^ used
            while free:
                bit = free & -free
                free ^= bit
                polys[used | bit] += rotated
    field = (1 << width) - 1
    return tuple(polys[-1] >> e * width & field for e in range(1, n))


def hook_matroid(n: int, limits: Limits = DEFAULT_LIMITS):
    """M(2, 1^(n-2)), the matroid of the hook shape of size n."""
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
    counts = derangement_excedance_counts(n, limits)
    return Conjecture2Report(n, dims, counts, dims == counts)


# ---------------------------------------------------------------------------
# cyclic-orbit refinement


@dataclass(frozen=True)
class OrbitStructure:
    counts: dict[int, int]  # orbit size -> number of orbits, sizes ascending

    def multiset(self) -> dict[int, int]:
        return dict(self.counts)


def _orbit_sizes(n: int, fix: list[int]) -> OrbitStructure:
    """Orbits of the cyclic group <c> of order n counted by size, from fix,
    where fix[i] counts the elements that c^t fixes for the i-th divisor t
    of n, ascending.

    The E(s) elements of orbit size s, a divisor of n, are fixed by c^t
    exactly when s divides t, so Fix(s) less E(t) for the divisors t < s of
    s leaves E(s): E(s)/s orbits of size s (Burnside).  A remainder or a
    negative E(s) is a defect and raises; a size with no orbit is left out."""
    divisors = [t for t in range(1, n + 1) if n % t == 0]
    exact = {}
    for t, count in zip(divisors, fix, strict=True):
        exact[t] = count - sum(e for s, e in exact.items() if t % s == 0)
        if exact[t] % t or exact[t] < 0:
            raise AssertionError(f"{exact[t]} elements of orbit size {t}")
    return OrbitStructure({t: e // t for t, e in exact.items() if e})


def cyclic_orbit_structures(
    n: int, k: int, limits: Limits = DEFAULT_LIMITS
) -> tuple[OrbitStructure, OrbitStructure]:
    """Orbit-size multisets of the long cycle c = (1 2 ... n) acting on (a)
    derangements of k+1 excedances by conjugation and (b) degree-k
    chain-basis monomials of the hook matroid by relabeling its columns by
    c^-1, both counted by ``_orbit_sizes`` from Fix(t), the elements c^t
    fixes, for each divisor t of n.

    (a) c^t fixes a derangement exactly when the two commute, so Fix(t) is
    ``_commuting_excedances(n, t)``, the excedance DP on the cycles of c^t;
    no centralizer element is listed.  (b) c^t fixes a monomial exactly when
    it fixes every flat of its chain, so Fix(t) is the Chow DP on the flats
    c^t fixes.  The two counts share no code."""
    limits.require("max_derangement_n", n)
    m = hook_matroid(n, limits)
    if not 0 <= k <= n - 2:  # excedances run from 1 to n - 1
        raise DomainError(f"k must lie in 0..{n - 2} for n = {n}")
    divisors = [t for t in range(1, n + 1) if n % t == 0]
    conj = _orbit_sizes(n, [_commuting_excedances(n, t)[k] for t in divisors])

    masks = m.flat_lattice()[0]
    # c^t, t | n, relabels by c^-t: (c^t . w)[j] = w[j - t mod n], zero-based
    shifts = (np.arange(n) - np.array(divisors)[:, None]) % n
    fix = []
    for power in action_table(m.labels, shifts, limits).tolist():
        bit = [1 << i for i in power]
        fixed = sum(1 << f for f, x in enumerate(masks) if sum(bit[i] for i in _members(x)) == x)
        fix.append(chow_graded_dimensions(m, fixed=fixed)[k])
    return conj, _orbit_sizes(n, fix)
