"""Independent cross-checks used by the test suite.

Nothing here shares code paths with the main constructions: characters come
from the Murnaghan-Nakayama rule on beta-numbers, coefficient values from
character sums over partition-indexed conjugacy classes, dimensions from a
brute-force standard-filling counter, Chow graded dimensions from a
quotient-ring relation-matrix rank, and polytope facets from a search over
every spanning point subset.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Sequence

from .combinatorics import Partition, partitions_of

Parts = tuple[int, ...]


# ---------------------------------------------------------------------------
# symmetric group characters (Murnaghan-Nakayama on beta-numbers)


@lru_cache(maxsize=None)
def character_value(lam: Parts, rho: Parts) -> int:
    """chi^lam evaluated on the class of cycle type rho."""
    if sum(lam) != sum(rho):
        raise ValueError("sizes differ")
    beta = tuple(
        sorted((p + len(lam) - 1 - i for i, p in enumerate(lam)), reverse=True)
    )
    return _mn(beta, rho)


def _mn(beta: tuple[int, ...], rho: Parts) -> int:
    if not rho:
        return 1
    r = rho[0]
    rest = rho[1:]
    total = 0
    bset = set(beta)
    for b in beta:
        if b - r < 0 or b - r in bset:
            continue
        between = sum(1 for x in beta if b - r < x < b)
        new = tuple(sorted((x if x != b else b - r for x in beta), reverse=True))
        total += (-1) ** between * _mn(new, rest)
    return total


def class_size_factor(rho: Parts) -> int:
    """z_rho, the centralizer order: |class| = n! / z_rho."""
    mult: dict[int, int] = {}
    for k in rho:
        mult[k] = mult.get(k, 0) + 1
    return prod(k**m * factorial(m) for k, m in mult.items())


# ---------------------------------------------------------------------------
# coefficient oracles


def kronecker_oracle(lam: Partition, mu: Partition, nu: Partition) -> int:
    n = lam.n
    total = Fraction(0)
    for rho in partitions_of(n):
        r = rho.parts
        total += (
            Fraction(
                character_value(lam.parts, r)
                * character_value(mu.parts, r)
                * character_value(nu.parts, r),
                class_size_factor(r),
            )
        )
    assert total.denominator == 1
    return int(total)


def lr_oracle(lam: Partition, mu: Partition, nu: Partition) -> int:
    """<chi^lam x chi^mu, Res chi^nu> over S_l x S_m."""
    total = Fraction(0)
    for rho in partitions_of(lam.n):
        for pi in partitions_of(mu.n):
            joint = tuple(sorted(rho.parts + pi.parts, reverse=True))
            total += Fraction(
                character_value(lam.parts, rho.parts)
                * character_value(mu.parts, pi.parts)
                * character_value(nu.parts, joint),
                class_size_factor(rho.parts) * class_size_factor(pi.parts),
            )
    assert total.denominator == 1
    return int(total)


# power-sum expansions: a symmetric function of degree n is a dict
# {partition-of-n: Fraction coefficient} in the p-basis


def schur_in_powersums(lam: Partition) -> dict[Parts, Fraction]:
    return {
        rho.parts: Fraction(
            character_value(lam.parts, rho.parts), class_size_factor(rho.parts)
        )
        for rho in partitions_of(lam.n)
    }


def plethysm_oracle(lam: Partition, mu: Partition, nu: Partition) -> int:
    """<s_mu[s_lam], s_nu> computed entirely in the power-sum basis."""
    inner = schur_in_powersums(lam)
    outer = schur_in_powersums(mu)
    result: dict[Parts, Fraction] = {}
    for rho, c in outer.items():
        # p_r [ s_lam ] scales every p_k in the inner expansion to p_{rk}
        term: dict[Parts, Fraction] = {(): Fraction(1)}
        for r in rho:
            scaled = {
                tuple(sorted((r * k for k in sig), reverse=True)): v
                for sig, v in inner.items()
            }
            nxt: dict[Parts, Fraction] = {}
            for a, va in term.items():
                for b, vb in scaled.items():
                    key = tuple(sorted(a + b, reverse=True))
                    nxt[key] = nxt.get(key, Fraction(0)) + va * vb
            term = nxt
        for sig, v in term.items():
            result[sig] = result.get(sig, Fraction(0)) + c * v
    total = sum(
        (
            v * character_value(nu.parts, sig)
            for sig, v in result.items()
        ),
        Fraction(0),
    )
    assert total.denominator == 1
    return int(total)


# ---------------------------------------------------------------------------
# brute-force standard fillings


def standard_filling_count(p: Partition) -> int:
    """Count fillings of the diagram by 1..n increasing along rows and columns."""
    boxes = p.boxes_row_major()
    pos = {b: k for k, b in enumerate(boxes)}
    count = 0

    def place(value: int, filled: dict):
        nonlocal count
        if value > p.n:
            count += 1
            return
        for b in boxes:
            if b in filled:
                continue
            i, j = b
            if (i - 1, j) in pos and (i - 1, j) not in filled:
                continue
            if (i, j - 1) in pos and (i, j - 1) not in filled:
                continue
            filled[b] = value
            place(value + 1, filled)
            del filled[b]

    place(1, {})
    return count


# ---------------------------------------------------------------------------
# Chow ring quotient oracle


def chow_dims_quotient_oracle(m) -> list[int]:
    """Graded dimensions by explicit linear algebra in the quotient ring.

    Works degree by degree: monomials in the flat generators span each graded
    piece, relations are (a) rewriting by incomparable products being zero and
    (b) multiples of the linear forms.  Dimension = monomials minus relation
    rank.  Exponential in the flat count; intended for tiny matroids only.
    """
    from .linalg import int_rank

    flats = sorted(m.proper_nonempty_flats(), key=lambda f: (len(f), sorted(map(str, f))))
    k = len(flats)
    r = m.rank()
    comparable = [
        [flats[i] <= flats[j] or flats[j] <= flats[i] for j in range(k)]
        for i in range(k)
    ]
    loops = m.loops()
    elements = [e for e in m.labels if e not in loops]

    def monomials(degree):
        return list(
            itertools.combinations_with_replacement(range(k), degree)
        )

    dims = [1]
    prev_basis = [()]  # chains of generator indices for the previous degree
    for degree in range(1, r):
        mons = monomials(degree)
        index = {mo: i for i, mo in enumerate(mons)}
        rows = []
        # incomparability relations: any monomial containing an incomparable
        # pair is zero
        for mo in mons:
            if any(
                not comparable[a][b]
                for a, b in itertools.combinations(set(mo), 2)
            ):
                row = [0] * len(mons)
                row[index[mo]] = 1
                rows.append(row)
        # linear relations times every monomial of degree - 1
        if elements:
            a0 = elements[0]
            for b in elements[1:]:
                coeffs = [0] * k
                for i, f in enumerate(flats):
                    if a0 in f:
                        coeffs[i] += 1
                    if b in f:
                        coeffs[i] -= 1
                for small in monomials(degree - 1):
                    row = [0] * len(mons)
                    for i, c in enumerate(coeffs):
                        if c:
                            mo = tuple(sorted(small + (i,)))
                            row[index[mo]] += c
                    rows.append(row)
        dims.append(len(mons) - int_rank(rows, len(mons)))
    return dims


# ---------------------------------------------------------------------------
# brute-force polytope facets


def facets_oracle(
    points: Sequence[Sequence[int]], dim: int
) -> set[tuple[tuple[int, ...], int, frozenset[int]]]:
    """Facets of a full-dimensional point set in Z^dim by trying every subset.

    Each dim-subset of affinely independent points spans a hyperplane; it is
    a facet hyperplane when every point lies on one side.  Facets come back
    as (primitive inner normal, offset, indices of the points on it), the
    inside being normal . x >= offset.  C(N, dim) subsets: small sets only.
    """
    from .linalg import int_rank, nullspace_vector

    out = set()
    if dim == 0:  # a single point has no facets
        return out
    for combo in itertools.combinations(range(len(points)), dim):
        base = points[combo[0]]
        rows = [tuple(a - b for a, b in zip(points[i], base)) for i in combo[1:]]
        if int_rank(rows, dim) != dim - 1:
            continue
        normal = nullspace_vector(rows, dim)
        offset = sum(a * b for a, b in zip(normal, base))
        values = [sum(a * b for a, b in zip(normal, p)) for p in points]
        if min(values) < offset < max(values):
            continue
        tight = frozenset(i for i, v in enumerate(values) if v == offset)
        if min(values) < offset:  # flip so the points satisfy normal . x >= offset
            normal = tuple(-a for a in normal)
            offset = -offset
        out.add((normal, offset, tight))
    return out
