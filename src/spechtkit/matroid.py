"""Linear matroids over the integers, with flats, Tutte and characteristic
polynomials.

A :class:`LinearMatroid` wraps labeled integer columns.  Subsets of the ground
set are represented as bitmasks internally; public APIs speak in labels.

Polynomials in x and y are dictionaries mapping exponent pairs to integer
coefficients; univariate polynomials map a single exponent to a coefficient.
Every polynomial printed, here and in ``chow.hilbert_series_text``, is written
by one monomial writer, :func:`_monomial`, and the text forms by one
signed-sum writer, :func:`_signed_sum`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, gcd, prod
from typing import Hashable, Iterable, Iterator

from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError
from .linalg import RowSpace, _normalize

Poly2 = dict[tuple[int, int], int]
Poly1 = dict[int, int]


def _members(bits: int) -> Iterator[int]:
    """The indices of the set bits, ascending."""
    s = bin(bits)[:1:-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


def _drop(res: tuple[int, ...], piv: tuple[int, ...]) -> tuple[int, ...] | None:
    """The residue of *res* modulo *piv*, both normalised residues, on the
    coordinates left once piv's lead coordinate is dropped, normalised; None
    when res is parallel to piv.

    The residue p*res - c*piv (p piv's lead, c res's entry there) is zero at
    the lead, so dropping that coordinate loses nothing.  A 3-long input, the
    step into a rank-2 contraction, is taken as a 2-vector directly.
    """
    if len(piv) == 3:
        a, b, c = res
        p, q, s = piv
        if p:
            u, v = p * b - a * q, p * c - a * s
        elif q:
            u, v = q * a, q * c - b * s
        else:  # piv = (0, 0, 1)
            u, v = a, b
        g = gcd(u, v)
        if not g:
            return None
        if (u or v) < 0:
            g = -g
        return (u // g, v // g)
    for col, p in enumerate(piv):
        if p:
            break
    c = res[col]
    if not c:  # dropping a zero keeps res normalised
        return res[:col] + res[col + 1 :]
    row = [p * a - c * b for a, b in zip(res, piv)]
    del row[col]
    return _normalize(row)


@dataclass
class LinearMatroid:
    labels: tuple[Hashable, ...]
    columns: tuple[tuple[int, ...], ...]
    limits: Limits = field(default=DEFAULT_LIMITS, compare=False)

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.columns = tuple(tuple(c) for c in self.columns)
        if len(self.labels) != len(self.columns):
            raise DomainError("labels and columns must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("labels must be distinct")
        self.limits.require("max_ground", len(self.labels))
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._dim = len(self.columns[0]) if self.columns else 0
        if any(len(c) != self._dim for c in self.columns):
            raise DomainError("columns must have equal length")
        self._vectors, self._rank = _row_basis(self.columns, self._dim)
        # mask -> rank of every flat in (rank, mask) order, the down-sets in
        # that order and the mask of each class's lowest column, once enumerated
        self._flat_ranks: dict[int, int] | None = None
        self._flat_below: list[int] | None = None
        self._lows: int | None = None

    # -- basic data ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.labels)

    def _mask(self, subset: Iterable[Hashable]) -> int:
        m = 0
        for lab in subset:
            try:
                m |= 1 << self._index[lab]
            except KeyError:
                raise DomainError(f"unknown element {lab!r}") from None
        return m

    def _labels_of(self, mask: int) -> frozenset:
        return frozenset(self.labels[i] for i in _members(mask))

    def _span(self, mask: int) -> RowSpace:
        space = RowSpace(self._rank)
        for i in range(self.size):
            if mask >> i & 1:
                space.add(self._vectors[i])
        return space

    def _rank_mask(self, mask: int) -> int:
        return self._span(mask).rank

    def rank(self, subset: Iterable[Hashable] | None = None) -> int:
        if subset is None:
            return self._rank
        return self._rank_mask(self._mask(subset))

    # -- flats --------------------------------------------------------------

    def _flat_masks(self) -> list[int]:
        """All flats, from the closure of the empty set to the top, sorted by
        (rank, mask).

        The lattice grows one rank at a time by covers.  A flat holds all of a
        parallel class of columns or none of it, and columns parallel modulo a
        flat stay parallel modulo every flat above it, so the work runs on
        classes and a cover takes whole classes.  A flat F is expanded through
        a dict ``{residue: class mask}`` of the classes outside it.  A residue
        is the class's projection modulo span(F), normalised, on quotient
        coordinates: the r - r(F) coordinates left once each pivot's lead
        coordinate is dropped.  Two columns outside F have the same residue
        exactly when they are parallel modulo span(F), so each entry gives the
        cover F | mask, of rank r(F) + 1.  Each flat found keeps one entry,
        ``[down-set, first parent's dict, its residue there]``, and builds its
        own dict only when its covers are made: the parent's, each other entry
        stepped once by :func:`_drop` against the flat's residue, equal
        residues merged.  A merged class keeps the place of its first entry,
        so the classes stay in order of their lowest column and the covers are
        found and counted in that order.  A flat of rank r - 1 has the ground
        set as its one cover, so it is not expanded, and the top is added once,
        above them all.  The dicts alive are those of the level being expanded
        and of the level below it, never those of the level being counted:
        refused at the default guard, (3,2,1,1) stays under 128 MiB traced.
        The ranks are kept in ``_flat_ranks``, one per flat, and the
        down-sets, read through :meth:`flat_lattice`, in ``_flat_below``: a
        cover's down-set is the union of the flats it covers and their
        down-sets, and the top's is every other flat.  The flats are counted
        as they are found and refused past ``max_flats``, since the down-sets
        take memory quadratic in their number.  F is *free* when it holds
        r(F) classes, ``(F & _lows).bit_count() == r(F)`` for ``_lows`` the
        lowest column of each class: the flats below F form a Boolean lattice.
        """
        if self._flat_ranks is None:
            bound = self.limits.max_flats
            found = 1
            ranks: dict[int, int] = {}
            below: list[int] = []
            classes = self._classes()
            bottom = classes.pop(None, 0)
            lows = sum(mask & -mask for mask in classes.values())
            level: dict[int, list] = {bottom: [0, classes, None]}
            for rank in range(self._rank):
                covers: dict[int, list] = {}
                for flat in sorted(level):
                    down, classes, piv = level.pop(flat)  # the last child frees the parent's dict
                    ranks[flat] = rank
                    below.append(down)
                    if rank + 1 == self._rank:  # a hyperplane, covered by the top alone
                        continue
                    if rank:  # the bottom's dict is the columns' classes
                        members = classes[piv]
                        step: dict[tuple[int, ...], int] = {}
                        for res, mask in classes.items():
                            if mask != members:
                                key = _drop(res, piv)
                                step[key] = step[key] | mask if key in step else mask
                        classes = step
                    down |= 1 << len(below) - 1
                    for piv, members in classes.items():
                        cover = flat | members
                        if cover in covers:
                            covers[cover][0] |= down
                            continue
                        found += 1
                        if found > bound:
                            self.limits.require("max_flats", found)
                        covers[cover] = [down, classes, piv]
                level = covers
            top = (1 << self.size) - 1
            if self._rank:
                found += 1
                if found > bound:
                    self.limits.require("max_flats", found)
            ranks[top] = self._rank
            below.append((1 << len(below)) - 1)
            self._flat_ranks, self._flat_below, self._lows = ranks, below, lows
        return list(self._flat_ranks)

    def flat_lattice(self) -> tuple[list[int], list[int], list[int]]:
        """The flats as masks in (rank, mask) order, their ranks, and their
        down-sets: bitsets over those indices of the flats strictly below."""
        masks = self._flat_masks()
        return masks, list(self._flat_ranks.values()), self._flat_below

    def flats(self) -> list[frozenset]:
        return [self._labels_of(m) for m in self._flat_masks()]

    # -- circuits, bases, loops --------------------------------------------

    def _classes(self) -> dict[tuple[int, ...] | None, int]:
        """Each normalised column, None for the loops, to the mask of its
        parallel class, in order of the lowest column."""
        out: dict[tuple[int, ...] | None, int] = {}
        for i, vec in enumerate(self._vectors):
            key = _normalize(vec)
            out[key] = out.get(key, 0) | 1 << i
        return out

    def _loop_mask(self) -> int:
        out = 0
        for i, vec in enumerate(self._vectors):
            if not any(vec):
                out |= 1 << i
        return out

    def circuits(self, max_size: int | None = None) -> list[frozenset]:
        """Minimal dependent sets, smallest first.

        Exhaustive over subsets, so guarded by ``max_circuit_ground``.
        """
        if max_size is not None and max_size < 1:
            raise DomainError("max_size must be positive")
        self.limits.require("max_circuit_ground", self.size)
        found: list[int] = []
        out: list[frozenset] = []
        top = max_size if max_size is not None else self.rank() + 1
        for size in range(1, top + 1):
            for combo in itertools.combinations(range(self.size), size):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                if any(mask & c == c for c in found):
                    continue
                if self._rank_mask(mask) < size:
                    found.append(mask)
                    out.append(self._labels_of(mask))
        return out

    def bases_count(self) -> int:
        return sum(self.tutte_polynomial().values())  # T(1, 1)

    # -- Tutte and characteristic polynomials -------------------------------

    def tutte_polynomial(self, strategy: str = "auto") -> Poly2:
        if strategy == "auto":
            strategy = "flats" if self.size > self.limits.tutte_subset_limit else "subsets"
        if strategy == "subsets":
            self.limits.require("tutte_subset_limit", self.size)
            return self._tutte_subsets()
        if strategy == "flats":
            return self._tutte_flats()
        raise DomainError(f"unknown tutte strategy {strategy!r}")

    def _tutte_subsets(self) -> Poly2:
        """Corank-nullity sum over all subsets of the ground set, walked by
        parallel classes.

        For each rank rho the walk sums v^|A| over the subsets A of rank rho,
        packed as :meth:`_tutte_flats` packs h_F.  A subset is its loops and
        a nonempty part of each parallel class it meets, and its rank is that
        of those classes.  So the walk runs depth first over sets K of classes,
        and K stands for (1 + v)^L * prod_{i in K} ((1 + v)^c_i - 1), L the
        loops and c_i the size of class i: the subsets meeting exactly the
        classes of K.  Each node carries the residues of the classes after
        K's last modulo span(K), on quotient coordinates as in
        :meth:`_flat_masks`, and None for a class inside the span.  A child
        that adds class i steps each later residue once by :func:`_drop`
        against i's, or keeps them all when i is inside the span.  At a span
        S of rank r - 2 or more the walk stops and closes in form, since the
        contraction by S has rank at most 2 and so is loops and parallel
        classes only (Brylawski and Oxley 1992).  Of the classes after K's
        last, those in S hold z columns, and the rest group by residue into
        parallel classes of sizes s_j.  A descendant keeps the rank of S if it
        takes columns from no group, gains one if from exactly one, and gains
        two if from more than one.  Every packed coefficient counts subsets of
        one size, so no field carries or borrows.
        """
        r, width = self._rank, self.size + 1
        grow = [(1 + (1 << width)) ** k for k in range(width)]  # (1 + v)^k, packed
        classes = self._classes()
        loops = classes.pop(None, 0).bit_count()
        counts = [mask.bit_count() for mask in classes.values()]
        gains = [grow[c] - 1 for c in counts]
        by_rank = [0] * (r + 1)

        def walk(start: int, weight: int, rk: int, residues: list[tuple[int, ...] | None]) -> None:
            if rk + 2 >= r:
                z = 0
                groups: dict[tuple[int, ...], int] = {}  # residue -> columns
                for res, c in zip(residues, counts[start:]):
                    if res is None:
                        z += c
                    else:
                        groups[res] = groups.get(res, 0) + c
                weight *= grow[z]
                by_rank[rk] += weight
                if groups:
                    one = sum(grow[s] for s in groups.values()) - len(groups)
                    by_rank[rk + 1] += weight * one
                    if len(groups) > 1:  # so rk = r - 2
                        several = prod(grow[s] for s in groups.values()) - 1 - one
                        by_rank[rk + 2] += weight * several
                return
            by_rank[rk] += weight
            for i, piv in enumerate(residues, start):
                rest = residues[i - start + 1 :]
                if piv is None:  # class i lies in the span
                    walk(i + 1, weight * gains[i], rk, rest)
                else:
                    rest = [None if res is None else _drop(res, piv) for res in rest]
                    walk(i + 1, weight * gains[i], rk + 1, rest)

        walk(0, grow[loops], 0, list(classes))
        return _tutte_from_rank_sums(by_rank, width)

    def _tutte_flats(self) -> Poly2:
        """Sum over the lattice of flats.

        T(x, y) = sum_F (x-1)^(r - r(F)) * h_F(y - 1) / (y - 1)^r(F), where
        h_F(v) = sum of v^|S| over the subsets S whose closure is exactly F.
        Every subset of F closes to a flat below F, so
        h_F(v) = (1 + v)^|F| - sum_{G < F} h_G(v), taken over F's down-set;
        h_F is divisible by v^r(F) exactly.

        Each h_F is packed into one integer, coefficient t in the field of W =
        |E| + 1 bits at bit W*t, so (1 + 2^W)^|F| is the packed binomial row
        and a down-set sum is one integer add per flat below.  The fields stay
        apart: coefficient t of h_G counts t-subsets of F closing to G, so
        h_G, its sums over F's down-set and h_F itself have every coefficient
        in [0, C(|F|, t)], below 2^W, and no add carries and no subtraction
        borrows across a field.  The same count bounds the sum over the flats
        of one rank by C(|E|, t), so those sums are packed too.
        """
        width = self.size + 1
        by_rank = [0] * (self._rank + 1)  # sum of h_F over the flats of each rank
        hs: list[int] = []
        for m, rf, down in zip(*self.flat_lattice()):
            if m.bit_count() == rf:  # independent: no other subset closes to F
                h = 1 << width * rf
            else:
                h = (1 + (1 << width)) ** m.bit_count() - sum(map(hs.__getitem__, _members(down)))
                assert not h & ((1 << width * rf) - 1), "division fails"
            by_rank[rf] += h
            hs.append(h)
        return _tutte_from_rank_sums(by_rank, width)

    def characteristic_polynomial(self) -> Poly1:
        """p(t) = sum over flats F of mu(F) t^(r - r(F)), where mu is the
        Moebius function from the bottom flat.  A matroid with loops has p = 0.

        By Weisner's theorem mu(F) = -sum mu(G) over the flats G covered by F
        that miss F's lowest element.  Flats come in (rank, mask) order, so
        only the slice of F's down-set that holds the flats of rank r(F) - 1
        is read.  A free flat (see :meth:`_flat_masks`), the bottom too, tops
        a Boolean lattice, so mu(F) = (-1)^r(F) and its down-set is not read.
        """
        if self._loop_mask():
            return {}
        masks, ranks, below = self.flat_lattice()
        out: Poly1 = {}
        mus: list[int] = []
        lo = hi = 0  # the index range of the flats one rank below
        for i, (m, rf, down) in enumerate(zip(masks, ranks, below)):
            if rf != ranks[hi]:
                lo, hi = hi, i
            if (m & self._lows).bit_count() == rf:
                mu = -1 if rf & 1 else 1
            else:
                covered = _members((down >> lo) & ((1 << (hi - lo)) - 1))
                mu = -sum(mus[lo + g] for g in covered if not masks[lo + g] & m & -m)
            out[self._rank - rf] = out.get(self._rank - rf, 0) + mu
            mus.append(mu)
        return {k: v for k, v in out.items() if v}


def _row_basis(columns, dim: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Columns restricted to a maximal independent set of coordinates, and
    their rank.

    The pivot coordinates of an echelon basis of the column span index such a
    set: restricting the span to them is injective, so the restricted columns
    have the same column matroid and every later reduction runs on vectors of
    length rank instead of dim.
    """
    space = RowSpace(dim)
    for col in columns:
        space.add(col)
        if space.rank == dim:  # every coordinate is a pivot
            return tuple(columns), dim
    coords = sorted(c for c, _ in space.pivots)
    return tuple(tuple(col[i] for i in coords) for col in columns), space.rank


def _tutte_from_rank_sums(by_rank: list[int], width: int) -> Poly2:
    """The Tutte polynomial from by_rank[rho], the sum of v^|A| over the
    subsets A of rank rho, packed one coefficient per field of *width* bits:
    coefficient t of rank rho is the count at (r - rho, t - rho)."""
    r, field = len(by_rank) - 1, (1 << width) - 1
    counts: dict[tuple[int, int], int] = {}
    for rho, h in enumerate(by_rank):
        h >>= width * rho
        t = 0
        while h:
            if h & field:
                counts[(r - rho, t)] = h & field
            h >>= width
            t += 1
    return _expand_corank_nullity(counts)


def _expand_corank_nullity(counts: dict[tuple[int, int], int]) -> Poly2:
    """Convert sum (x-1)^a (y-1)^b counts into coefficients of x^i y^j."""
    out: Poly2 = {}
    for (a, b), c in counts.items():
        for i in range(a + 1):
            ci = comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                cj = comb(b, j) * (-1) ** (b - j)
                key = (i, j)
                out[key] = out.get(key, 0) + c * ci * cj
    return {k: v for k, v in out.items() if v}


def _monomial(exponents: Iterable[int], names: Iterable[str]) -> str:
    """The monomial with these exponents in these variables, like ``x^2*y``;
    ``""`` for the constant."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exponents) if e)


def _signed_sum(terms: Iterable[tuple[int, str]]) -> str:
    """Ordered (coefficient, monomial) terms as ``x^2 - 2*x + 3``; ``"0"``
    when there are none.  A coefficient of +-1 is written only on the
    constant."""
    text = ""
    for c, mono in terms:
        coef = str(abs(c)) if abs(c) != 1 or not mono else ""
        text += (" - " if c < 0 else " + ") + "*".join(filter(None, (coef, mono)))
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def format_poly2(p: Poly2) -> str:
    """Human-readable form, e.g. ``x^3 + x*y^2 + y^3 + 3*x^2``."""
    order = sorted(p, key=lambda ij: (-ij[0] - ij[1], -ij[0]))
    return _signed_sum((p[ij], _monomial(ij, "xy")) for ij in order)


def format_poly1(p: Poly1, var: str = "t") -> str:
    return _signed_sum((p[k], _monomial((k,), (var,))) for k in sorted(p, reverse=True) if p[k])


def poly2_to_json(p: Poly2) -> dict[str, int]:
    return {_monomial(ij, "xy") or "1": p[ij] for ij in sorted(p)}


def poly1_to_json(p: Poly1, var: str = "t") -> dict[str, int]:
    return {_monomial((k,), (var,)) or "1": p[k] for k in sorted(p)}


def specht_matroid(p, limits: Limits = DEFAULT_LIMITS) -> LinearMatroid:
    """Matroid of the columns of the pairing matrix of p, under *limits*.

    It is built on the columns of the row basis, d_lambda entries long: the
    basis rows span the row space, so a set of columns is independent there
    exactly when it is in the full matrix.  The ground set is checked
    against ``max_ground`` before the row basis is built.
    """
    from .specht import specht_matrix

    mat = specht_matrix(p, limits)
    limits.require("max_ground", mat.shape[1])
    return LinearMatroid(mat.col_labels, tuple(zip(*mat.row_basis)), limits)
