"""Independent cross-checks used by the test suite.

Nothing here shares code paths with the main constructions, not even exact
ranks, which come from an elimination of their own: characters come
from the Murnaghan-Nakayama rule on beta-numbers, coefficient values from
character sums over partition-indexed conjugacy classes, coefficient matrices
from a sum of pairing-matrix tensor products over every group element,
dimensions from a brute-force standard-filling counter, funny sums pair by
pair over properly ordered set partitions, excedance tables over every
permutation, matroid flats from the closure of
every independent subset, Tutte polynomials by deletion-contraction on the
columns, Chow graded dimensions from a quotient-ring relation-matrix rank over
those flats, Chow chain-basis monomials and their cyclic orbits by listing
chains of those flats, polytope facets from a search over every spanning
point subset, and polytope faces level by level from the facets.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
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


def coefficient_matrix_oracle(
    kind: str, lam: Partition, mu: Partition, nu: Partition
) -> tuple[tuple, tuple, list[list[int]]]:
    """Row labels, column labels and entries of a coefficient matrix.

    The entries are the dense group sum  sum_g w(g) (x)_f M_f[:, g . s_f]
    over every group element, each acting on the column labels through
    ``Permutation.apply``: S_n diagonally (w = sign) for "kronecker";
    S_l x S_m on the two small factors and through sigma x tau on 1..l+m
    (w = 1) for "lr"; for "plethysm" the wreath group on m slots of size l,
    through its permutation of the l*m dots on the concatenated slot words of
    the tensor power and on the third factor, and through the slot shuffle on
    the second (w = sgn(slot shuffle)^(l+1)).
    Labels are tuples of words in ``itertools.product`` order, the plethysm
    slot words flattened into the tuple.
    """
    import numpy as np

    from .combinatorics import Permutation, all_permutations
    from .specht import specht_matrix

    factors = [
        (mat.row_labels, mat.col_labels, np.array(mat.entries, dtype=np.int64))
        for mat in map(specht_matrix, (lam, mu, nu))
    ]
    l, m = lam.n, mu.n
    group = []  # (per-factor label actions, weight)
    if kind == "kronecker":
        for g in all_permutations(l):
            group.append(([g.apply] * 3, g.sign()))
    elif kind == "lr":
        for s in all_permutations(l):
            for t in all_permutations(m):
                joint = Permutation(s.images + tuple(l + x for x in t.images))
                group.append(([s.apply, t.apply, joint.apply], 1))
    elif kind == "plethysm":
        rows0, cols0, mat0 = factors[0]
        power = np.ones((1, 1), dtype=np.int64)
        for _ in range(m):
            power = np.kron(power, mat0)
        factors[0] = (
            tuple(itertools.product(rows0, repeat=m)),
            tuple(itertools.product(cols0, repeat=m)),
            power,
        )
        for tau in all_permutations(m):
            for rows in itertools.product(all_permutations(l), repeat=m):
                dots = [0] * (l * m)
                for j in range(1, m + 1):
                    for i in range(1, l + 1):
                        dots[(j - 1) * l + i - 1] = (tau(j) - 1) * l + rows[j - 1](i)
                big = Permutation(tuple(dots))

                def slots(lab, big=big):
                    word = big.apply(sum(lab, ()))
                    return tuple(word[k * l : (k + 1) * l] for k in range(m))

                weight = tau.sign() if l % 2 == 0 else 1
                group.append(([slots, tau.apply, big.apply], weight))
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}")

    total = 0
    for acts, weight in group:
        term = np.ones((1, 1), dtype=np.int64)
        for (_, cols, mat), act in zip(factors, acts):
            index = {lab: j for j, lab in enumerate(cols)}
            term = np.kron(term, mat[:, [index[act(lab)] for lab in cols]])
        total = total + weight * term
    row_labels = tuple(itertools.product(*(f[0] for f in factors)))
    col_labels = tuple(itertools.product(*(f[1] for f in factors)))
    if kind == "plethysm":
        flat = lambda lab: tuple(lab[0]) + lab[1:]
        row_labels = tuple(map(flat, row_labels))
        col_labels = tuple(map(flat, col_labels))
    return row_labels, col_labels, total.tolist()


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
# the funny sum of Conjecture 1, pair by pair


@dataclass(frozen=True)
class OrderedSetPartition:
    parts: tuple[frozenset[int], ...]

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)

    def shape(self) -> Partition:
        return Partition(tuple(len(p) for p in self.parts))

    def word(self) -> tuple[int, ...]:
        """Letter k at every position belonging to the k-th part."""
        out = [0] * self.n
        for k, part in enumerate(self.parts, start=1):
            for pos in part:
                out[pos - 1] = k
        return tuple(out)

    def complementary_word(self) -> tuple[int, ...]:
        """Column word pairing with :meth:`word` along sorted positions."""
        out = [0] * self.n
        for part in self.parts:
            for j, pos in enumerate(sorted(part), start=1):
                out[pos - 1] = j
        return tuple(out)


def properly_ordered_set_partitions(n: int) -> list[OrderedSetPartition]:
    """All ordered set partitions of {1..n} with weakly decreasing part sizes.

    Distinct orderings of equal-size parts are counted separately.
    """
    out: list[OrderedSetPartition] = []

    def extend(remaining: frozenset[int], max_size: int, prefix):
        if not remaining:
            out.append(OrderedSetPartition(tuple(prefix)))
            return
        rest = sorted(remaining)
        for size in range(min(max_size, len(rest)), 0, -1):
            for combo in itertools.combinations(rest, size):
                prefix.append(frozenset(combo))
                extend(remaining - frozenset(combo), size, prefix)
                prefix.pop()

    extend(frozenset(range(1, n + 1)), n, [])
    return out


def funny_sum_oracle(n: int, pairs: Sequence[tuple]) -> list[int]:
    """The funny sum of each (sigma, tau) in *pairs*, from its definition.

    Each value is the sum of d(P)^2 * Y(sigma w_P, r) * Y(tau w_P, r) over
    the properly ordered set partitions P of {1..n} and the rearrangements r
    of P's complementary word, Y read from the pairing matrix of P's shape.
    """
    from .combinatorics import rearrangements
    from .specht import specht_matrix

    tables = []
    for osp in properly_ordered_set_partitions(n):
        mat = specht_matrix(osp.shape())
        rows = {w: i for i, w in enumerate(mat.row_labels)}
        cols = {w: j for j, w in enumerate(mat.col_labels)}
        tables.append((
            osp.word(),
            [cols[r] for r in rearrangements(osp.complementary_word())],
            osp.shape().dimension() ** 2,
            mat.entries,
            rows,
        ))
    values = []
    for sigma, tau in pairs:
        total = 0
        for word, col_idx, weight, entries, rows in tables:
            row_s = entries[rows[sigma.apply(word)]]
            row_t = entries[rows[tau.apply(word)]]
            total += weight * sum(row_s[j] * row_t[j] for j in col_idx)
        values.append(total)
    return values


# ---------------------------------------------------------------------------
# derangements by excedances, one permutation at a time


def derangement_excedance_oracle(n: int) -> tuple[int, ...]:
    """Entry k counts the derangements of 1..n with k + 1 excedances
    g(i) > i, from every permutation in turn."""
    counts: Counter = Counter()
    for g in itertools.permutations(range(n)):
        if all(g[i] != i for i in range(n)):
            counts[sum(g[i] > i for i in range(n))] += 1
    top = max(counts, default=0)
    return tuple(counts[k] for k in range(1, top + 1))


# ---------------------------------------------------------------------------
# exact rank by fraction-free elimination


def _reduced(row: Sequence[int], piv: Sequence[int], col: int) -> list[int]:
    """*row* with its entry at *col* cleared by the integer row *piv*, which is
    nonzero there, divided by the gcd of its entries."""
    if not row[col]:
        return row
    out = [piv[col] * a - row[col] * b for a, b in zip(row, piv)]
    g = gcd(*out)
    return [x // g for x in out] if g else out


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of integer rows over Q: each nonzero row in turn clears its first
    nonzero column from the others."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    while rows:
        piv = rows.pop()
        col = next(i for i, x in enumerate(piv) if x)
        rows = [r for r in (_reduced(r, piv, col) for r in rows) if any(r)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# matroid flats


def flats_oracle(columns: Sequence[Sequence[int]]) -> set[frozenset[int]]:
    """Flats of the column matroid, as sets of column indices.

    The closure of a set is the closure of any maximal independent subset of
    it, so the flats are the closures of the independent sets.  These are
    walked depth first over parallel-class representatives (columns with
    proportional nonzero entries).  A node holds each representative reduced
    modulo the span of its chosen set, zero at the pivot columns of the
    chosen ones, so a representative lies in that span exactly when its
    residue is zero.  The classes in the span make the closure, and each
    class outside it extends the walk, its residue clearing its first
    nonzero column from the others.  Exponential in the number of classes;
    intended for small matroids only.
    """
    classes: list[list[int]] = []
    loops = []
    for i, col in enumerate(columns):
        if not any(col):
            loops.append(i)
            continue
        for cls in classes:
            if _rank([columns[cls[0]], col]) == 1:
                cls.append(i)
                break
        else:
            classes.append([i])
    out = set()

    def walk(residues: list[list[int]], start: int) -> None:
        inside = [i for cls, r in zip(classes, residues) if not any(r) for i in cls]
        out.add(frozenset(loops + inside))
        for k in range(start, len(classes)):
            piv = residues[k]
            if any(piv):
                col = next(i for i, x in enumerate(piv) if x)
                walk([_reduced(r, piv, col) for r in residues], k + 1)

    walk([list(columns[cls[0]]) for cls in classes], 0)
    return out


# ---------------------------------------------------------------------------
# Chow chain-basis monomials, listed, and their cyclic orbits


def fy_basis_monomials(
    m, degree: int | None = None
) -> list[tuple[tuple[frozenset, int], ...]]:
    """Basis monomials of the given degree, or of every degree when it is
    None, as ((flat, exponent), ...) chains, each flat a frozenset of labels,
    listed one by one.

    A monomial is a chain F1 < ... < Fk of flats strictly above the bottom
    (the loops; the ground set is allowed) with exponents
    0 < d_i < rank(F_i) - rank(F_{i-1}), F0 the bottom (Feichtner and
    Yuzvinsky 2004).  The flats come from :func:`flats_oracle` and their
    ranks from the rank of their columns.
    """
    flats = sorted(flats_oracle(m.columns), key=len)  # the bottom first
    rank = {f: _rank([m.columns[i] for i in f]) for f in flats}
    budget = max(rank.values()) - 1 if degree is None else degree
    out = []

    def extend(chain, last, remaining):
        if degree is None or remaining == 0:
            out.append(tuple(chain))
        for f in flats:
            if last < f:
                for d in range(1, min(rank[f] - rank[last] - 1, remaining) + 1):
                    chain.append((frozenset(m.labels[i] for i in f), d))
                    extend(chain, f, remaining - d)
                    chain.pop()

    extend([], flats[0], budget)
    return out


def chain_basis_orbits_oracle(m, degree: int) -> list[int]:
    """Sorted orbit sizes of the long cycle (1 2 ... n) on the listed
    degree-*degree* basis monomials of *m*, whose labels are words of length
    n: the cycle relabels each flat's words by moving every letter one place
    right, the last letter first.  A relabelled monomial that is not listed
    raises ``KeyError``."""

    def relabel(mono):
        return tuple((frozenset(w[-1:] + w[:-1] for w in f), d) for f, d in mono)

    remaining = set(fy_basis_monomials(m, degree))
    sizes = []
    while remaining:
        mono = start = remaining.pop()
        size = 1
        while (mono := relabel(mono)) != start:
            remaining.remove(mono)
            size += 1
        sizes.append(size)
    return sorted(sizes)


# ---------------------------------------------------------------------------
# Tutte polynomial by deletion-contraction

Poly2 = dict[tuple[int, int], int]


def tutte_deletion_contraction_oracle(columns: Sequence[Sequence[int]]) -> Poly2:
    """Tutte polynomial of the column matroid, as {(i, j): coefficient of
    x^i y^j}, by T(M) = T(M - e) + T(M / e), with T = y T(M - e) for a loop e
    and T = x T(M / e) for a coloop.  Contracting e projects the other
    columns modulo its span.  The coefficients are non-negative, so Counter
    sums keep them exactly.  Memoised on the sorted column tuple; exponential in
    the worst case, intended for small matroids only.
    """
    memo: dict[tuple, Counter] = {}

    def times(p: Counter, i: int, j: int) -> Counter:
        return Counter({(a + i, b + j): c for (a, b), c in p.items()})

    def solve(cols: tuple[tuple[int, ...], ...]) -> Counter:
        key = tuple(sorted(cols))
        if key not in memo:
            if not cols:
                memo[key] = Counter({(0, 0): 1})
            elif not any(cols[0]):  # loop
                memo[key] = times(solve(cols[1:]), 0, 1)
            elif _rank(cols[1:]) < _rank(cols):  # coloop
                memo[key] = times(solve(_contract(cols[1:], cols[0])), 1, 0)
            else:
                memo[key] = solve(cols[1:]) + solve(_contract(cols[1:], cols[0]))
        return memo[key]

    return dict(solve(tuple(tuple(c) for c in columns)))


def _contract(cols: Sequence[tuple[int, ...]], e: tuple[int, ...]):
    """Project the remaining columns modulo the span of e."""
    pivot = next(i for i, x in enumerate(e) if x != 0)
    p = e[pivot]
    out = []
    for c in cols:
        row = [p * c[i] - c[pivot] * e[i] for i in range(len(e))]
        row[pivot] = 0
        out.append(tuple(row))
    return tuple(out)


def characteristic_from_tutte(t: Poly2, rank: int) -> dict[int, int]:
    """The characteristic polynomial (-1)^r T(1 - t, 0) of a rank-r matroid
    from its Tutte polynomial, with (1 - t)^i expanded binomially, as
    {k: coefficient of t^k}."""
    out: dict[int, int] = {}
    for (i, j), c in t.items():
        if j == 0:
            for k in range(i + 1):
                out[k] = out.get(k, 0) + (-1) ** (rank + k) * c * comb(i, k)
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Chow ring quotient oracle


def chow_dims_quotient_oracle(m) -> list[int]:
    """Graded dimensions by explicit linear algebra in the quotient ring.

    Works degree by degree: monomials in the flat generators span each graded
    piece, relations are (a) incomparable products being zero and (b)
    multiples of the linear forms.  Relations (a) set to zero every monomial
    containing an incomparable pair, so the dimension is the number of the
    other monomials minus the rank of relations (b) restricted to them.  The
    generators are the flats strictly between the loops and the ground set,
    from :func:`flats_oracle`.  Exponential in the flat count; intended for
    tiny matroids only.
    """
    everything = frozenset(range(len(m.columns)))
    loops = frozenset(i for i, col in enumerate(m.columns) if not any(col))
    flats = sorted(
        (f for f in flats_oracle(m.columns) if f not in (loops, everything)),
        key=lambda f: (len(f), sorted(f)),
    )
    k = len(flats)
    r = _rank(m.columns)
    comparable = [
        [flats[i] <= flats[j] or flats[j] <= flats[i] for j in range(k)]
        for i in range(k)
    ]
    elements = [i for i in range(len(m.columns)) if i not in loops]

    def surviving(degree):
        """Monomials of the degree with no incomparable pair."""
        return [
            mo
            for mo in itertools.combinations_with_replacement(range(k), degree)
            if all(comparable[a][b] for a, b in itertools.combinations(mo, 2))
        ]

    dims = [1]
    smaller = [()]
    for degree in range(1, r):
        mons = surviving(degree)
        index = {mo: i for i, mo in enumerate(mons)}
        rows = []
        # linear relations times every surviving monomial of degree - 1 (the
        # other multiples lie in the span of relations (a))
        if elements:
            a0 = elements[0]
            for b in elements[1:]:
                coeffs = [0] * k
                for i, f in enumerate(flats):
                    if a0 in f:
                        coeffs[i] += 1
                    if b in f:
                        coeffs[i] -= 1
                for small in smaller:
                    row = [0] * len(mons)
                    for i, c in enumerate(coeffs):
                        j = index.get(tuple(sorted(small + (i,)))) if c else None
                        if j is not None:
                            row[j] += c
                    rows.append(row)
        dims.append(len(mons) - _rank(rows))
        smaller = mons
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
    out = set()
    if dim == 0:  # a single point has no facets
        return out
    for combo in itertools.combinations(range(len(points)), dim):
        base = points[combo[0]]
        rows = [tuple(a - b for a, b in zip(points[i], base)) for i in combo[1:]]
        normal = _hyperplane_normal(rows, dim)
        if normal is None:
            continue
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


def _hyperplane_normal(rows: list[tuple[int, ...]], dim: int) -> tuple[int, ...] | None:
    """The primitive integer vector orthogonal to dim - 1 independent *rows*,
    up to sign, by cross-multiplying Gauss-Jordan elimination; None if they
    are dependent."""
    m = [list(row) for row in rows]
    pivots = []
    for c in range(dim):
        r = next((r for r in range(len(pivots), len(m)) if m[r][c]), None)
        if r is None:
            continue
        top = len(pivots)
        m[top], m[r] = m[r], m[top]
        for i, row in enumerate(m):
            if i != top and row[c]:
                row = [m[top][c] * x - row[c] * y for x, y in zip(row, m[top])]
                g = gcd(*row) or 1  # a dependent row may vanish
                m[i] = [x // g for x in row]
        pivots.append(c)
    if len(pivots) != dim - 1:
        return None
    # each row i is now d_i at pivots[i] and u_i at the free column
    free = next(c for c in range(dim) if c not in pivots)
    scale = lcm(*(row[c] for row, c in zip(m, pivots)))
    kernel = [0] * dim
    kernel[free] = scale
    for row, c in zip(m, pivots):
        kernel[c] = -row[free] * (scale // row[c])
    g = gcd(*kernel)
    return tuple(x // g for x in kernel)


# ---------------------------------------------------------------------------
# polytope faces level by level


def face_levels_oracle(top: int, facets: Sequence[int]) -> list[list[int]]:
    """Faces of a polytope as vertex bitmasks, one list per dimension from the
    empty face up to P, given P's vertices *top* and each facet's vertices.

    The lattice is walked down by covers (Kaibel and Pfetsch, 2002): the
    facets of a face F are the inclusion-maximal sets F & H over the facets
    H that do not hold F, and a vertex's only facet is the empty face.  Each
    level is kept whole and every face of it meets every facet: small
    polytopes only.
    """
    levels = [[top]]
    while levels[-1] != [0]:
        covers: set[int] = set()
        for face in levels[-1]:
            meets = {face & h for h in facets} - {face}
            kept: list[int] = []  # the maximal meets, found largest first
            for m in sorted(meets, key=int.bit_count, reverse=True):
                for k in kept:
                    if m & k == m:
                        break
                else:
                    kept.append(m)
            covers.update(kept)
        levels.append(list(covers) or [0])
    return levels[::-1]
