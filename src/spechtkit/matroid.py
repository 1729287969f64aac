"""Linear matroids over the integers, with flats, Tutte and characteristic
polynomials.

A :class:`LinearMatroid` wraps labeled integer columns.  Subsets of the ground
set are represented as bitmasks internally; public APIs speak in labels.

Polynomials in x and y are dictionaries mapping exponent pairs to integer
coefficients; univariate polynomials map a single exponent to a coefficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError
from .linalg import RowSpace, int_rank

Poly2 = dict[tuple[int, int], int]
Poly1 = dict[int, int]


def _popcount(x: int) -> int:
    return bin(x).count("1")


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
        self._rank_cache: dict[int, int] = {}

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
        return frozenset(
            self.labels[i] for i in range(self.size) if mask >> i & 1
        )

    def _rank_mask(self, mask: int) -> int:
        hit = self._rank_cache.get(mask)
        if hit is not None:
            return hit
        space = RowSpace(self._dim)
        for i in range(self.size):
            if mask >> i & 1:
                space.add(self.columns[i])
        self._rank_cache[mask] = space.rank
        return space.rank

    def rank(self, subset: Iterable[Hashable] | None = None) -> int:
        if subset is None:
            return self._rank_mask((1 << self.size) - 1)
        return self._rank_mask(self._mask(subset))

    # -- closure and flats --------------------------------------------------

    def _closure_mask(self, mask: int) -> int:
        r = self._rank_mask(mask)
        out = mask
        for i in range(self.size):
            if not (out >> i & 1) and self._rank_mask(mask | 1 << i) == r:
                out |= 1 << i
        return out

    def closure(self, subset: Iterable[Hashable]) -> frozenset:
        return self._labels_of(self._closure_mask(self._mask(subset)))

    def _flat_masks(self) -> list[int]:
        """All flats (closed sets) including the empty closure and the top."""
        start = self._closure_mask(0)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for f in frontier:
                for i in range(self.size):
                    if f >> i & 1:
                        continue
                    g = self._closure_mask(f | 1 << i)
                    if g not in seen:
                        seen.add(g)
                        nxt.append(g)
            frontier = nxt
        return sorted(seen, key=lambda m: (self._rank_mask(m), m))

    def flats(self, rank: int | None = None) -> list[frozenset]:
        masks = self._flat_masks()
        if rank is not None:
            masks = [m for m in masks if self._rank_mask(m) == rank]
        return [self._labels_of(m) for m in masks]

    def proper_nonempty_flats(self) -> list[frozenset]:
        top = (1 << self.size) - 1
        topc = self._closure_mask(top)
        bottom = self._closure_mask(0)
        return [
            self._labels_of(m)
            for m in self._flat_masks()
            if m != topc and (m != bottom or bottom != 0) and m != 0
        ]

    # -- circuits, bases, loops --------------------------------------------

    def loops(self) -> frozenset:
        return frozenset(
            self.labels[i]
            for i in range(self.size)
            if all(x == 0 for x in self.columns[i])
        )

    def circuits(self, max_size: int | None = None) -> list[frozenset]:
        """Minimal dependent sets, smallest first.

        Exhaustive over subsets, so guarded by ``max_circuit_ground``.
        """
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

    def has_two_element_circuit(self) -> bool:
        seen: dict[tuple[int, ...] | None, int] = {}
        for col in self.columns:
            key = _primitive(col)
            if key is None:
                return True  # a loop forms a one-element circuit already
            if key in seen:
                return True
            seen[key] = 1
        return False

    def bases_count(self) -> int:
        return _eval_poly2(self.tutte_polynomial(), 1, 1)

    def is_basis(self, subset: Iterable[Hashable]) -> bool:
        mask = self._mask(subset)
        r = self.rank()
        return _popcount(mask) == r and self._rank_mask(mask) == r

    # -- Tutte and characteristic polynomials -------------------------------

    def tutte_polynomial(self, strategy: str = "auto") -> Poly2:
        if strategy == "auto":
            strategy = "flats" if self.size > self.limits.tutte_subset_limit else "subsets"
        if strategy == "subsets":
            self.limits.require("tutte_subset_limit", self.size)
            return self._tutte_subsets()
        if strategy == "deletion-contraction":
            return self._tutte_deletion_contraction()
        if strategy == "flats":
            return self._tutte_flats()
        raise DomainError(f"unknown tutte strategy {strategy!r}")

    def _tutte_subsets(self) -> Poly2:
        """Corank-nullity sum over all subsets of the ground set."""
        r = self.rank()
        counts: dict[tuple[int, int], int] = {}
        for mask in range(1 << self.size):
            rk = self._rank_mask(mask)
            key = (r - rk, _popcount(mask) - rk)
            counts[key] = counts.get(key, 0) + 1
        return _expand_corank_nullity(counts)

    def _tutte_deletion_contraction(self) -> Poly2:
        memo: dict[tuple, Poly2] = {}

        def solve(cols: tuple[tuple[int, ...], ...]) -> Poly2:
            key = tuple(sorted(cols))
            hit = memo.get(key)
            if hit is not None:
                return hit
            if not cols:
                out = {(0, 0): 1}
            else:
                e = cols[0]
                rest = cols[1:]
                if all(x == 0 for x in e):  # loop
                    out = _poly2_mul(solve(rest), {(0, 1): 1})
                elif int_rank(rest, len(e)) < int_rank(cols, len(e)):  # coloop
                    out = _poly2_mul(solve(_contract(rest, e)), {(1, 0): 1})
                else:
                    out = _poly2_add(solve(rest), solve(_contract(rest, e)))
            memo[key] = out
            return out

        return solve(self.columns)

    def _tutte_flats(self) -> Poly2:
        """Convolution over the lattice of flats via Mobius inversion.

        T(x, y) = sum_F (x-1)^(r - r(F)) * h_F(y - 1) where h_F collects the
        subsets whose closure is exactly F; h_F is recovered from the subset
        generating functions of the lower intervals by Mobius inversion and is
        divisible by v^(r(F)) exactly.
        """
        masks = self._flat_masks()
        ranks = [self._rank_mask(m) for m in masks]
        r = self.rank()
        idx = {m: i for i, m in enumerate(masks)}
        below = [
            [j for j, g in enumerate(masks) if g & m == g] for m in masks
        ]
        # mobius function mu(G, F) on the lattice of flats
        mu: list[dict[int, int]] = [dict() for _ in masks]
        for fi, m in enumerate(masks):
            mu[fi][fi] = 1
            for gi in sorted(below[fi], key=lambda j: -ranks[j]):
                if gi == fi:
                    continue
                s = -sum(
                    mu[fi][hi]
                    for hi in below[fi]
                    if hi in mu[fi] and masks[gi] & masks[hi] == masks[gi] and hi != gi
                )
                mu[fi][gi] = s
        out: Poly2 = {}
        for fi, m in enumerate(masks):
            # sum over G <= F of mu(G,F) * (1+v)^|G|, as a polynomial in v
            acc: Poly1 = {}
            for gi in below[fi]:
                coeff = mu[fi].get(gi, 0)
                if coeff:
                    k = _popcount(masks[gi])
                    for t in range(k + 1):
                        acc[t] = acc.get(t, 0) + coeff * _binom(k, t)
            # exact division by v^(r(F))
            rf = ranks[fi]
            assert all(c == 0 for t, c in acc.items() if t < rf), "division fails"
            h = {t - rf: c for t, c in acc.items() if t >= rf and c}
            # multiply by (x-1)^(r - rf) and substitute u = x-1, v = y-1
            for a in range(r - rf + 1):
                cu = _binom(r - rf, a) * (-1) ** (r - rf - a)
                for t, c in h.items():
                    # (y-1)^t expanded
                    for b in range(t + 1):
                        cv = _binom(t, b) * (-1) ** (t - b)
                        key = (a, b)
                        out[key] = out.get(key, 0) + cu * c * cv
        return {k: v for k, v in out.items() if v}

    def characteristic_polynomial(self) -> Poly1:
        """p(t) = (-1)^r T(1 - t, 0)."""
        t = self.tutte_polynomial()
        r = self.rank()
        out: Poly1 = {}
        for (i, j), c in t.items():
            if j != 0:
                continue
            # substitute x = 1 - t and expand (1-t)^i binomially
            for k in range(i + 1):
                coeff = c * _binom(i, k) * (-1) ** k
                out[k] = out.get(k, 0) + coeff
        sign = (-1) ** r
        return {k: sign * v for k, v in out.items() if v}


def _primitive(col: Sequence[int]) -> tuple[int, ...] | None:
    from math import gcd

    g = 0
    for x in col:
        g = gcd(g, x)
    if g == 0:
        return None
    lead = next(x for x in col if x)
    if lead < 0:
        g = -g
    return tuple(x // g for x in col)


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


def _binom(n: int, k: int) -> int:
    from math import comb

    return comb(n, k)


def _expand_corank_nullity(counts: dict[tuple[int, int], int]) -> Poly2:
    """Convert sum (x-1)^a (y-1)^b counts into coefficients of x^i y^j."""
    out: Poly2 = {}
    for (a, b), c in counts.items():
        for i in range(a + 1):
            ci = _binom(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                cj = _binom(b, j) * (-1) ** (b - j)
                key = (i, j)
                out[key] = out.get(key, 0) + c * ci * cj
    return {k: v for k, v in out.items() if v}


def _poly2_add(p: Poly2, q: Poly2) -> Poly2:
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _poly2_mul(p: Poly2, q: Poly2) -> Poly2:
    out: Poly2 = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return {k: v for k, v in out.items() if v}


def _eval_poly2(p: Poly2, x: int, y: int) -> int:
    return sum(c * x**i * y**j for (i, j), c in p.items())


def format_poly2(p: Poly2) -> str:
    """Human-readable form, e.g. ``x^3 + x*y^2 + y^3 + 3*x^2``."""
    if not p:
        return "0"
    terms = []
    for (i, j), c in sorted(p.items(), key=lambda kv: (-kv[0][0] - kv[0][1], -kv[0][0])):
        factors = []
        if abs(c) != 1 or (i == 0 and j == 0):
            factors.append(str(abs(c)))
        if i:
            factors.append("x" if i == 1 else f"x^{i}")
        if j:
            factors.append("y" if j == 1 else f"y^{j}")
        term = "*".join(factors)
        terms.append(("- " if c < 0 else "+ ") + term)
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def format_poly1(p: Poly1, var: str = "t") -> str:
    if not p:
        return "0"
    terms = []
    for k in sorted(p, reverse=True):
        c = p[k]
        if not c:
            continue
        factors = []
        if abs(c) != 1 or k == 0:
            factors.append(str(abs(c)))
        if k:
            factors.append(var if k == 1 else f"{var}^{k}")
        terms.append(("- " if c < 0 else "+ ") + "*".join(factors))
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def poly2_to_json(p: Poly2) -> dict[str, int]:
    out = {}
    for (i, j), c in sorted(p.items()):
        key_parts = []
        if i:
            key_parts.append("x" if i == 1 else f"x^{i}")
        if j:
            key_parts.append("y" if j == 1 else f"y^{j}")
        out["*".join(key_parts) or "1"] = c
    return out


def poly1_to_json(p: Poly1, var: str = "t") -> dict[str, int]:
    out = {}
    for k in sorted(p):
        out[(var if k == 1 else f"{var}^{k}") if k else "1"] = p[k]
    return out


def specht_matroid(p, limits: Limits = DEFAULT_LIMITS) -> LinearMatroid:
    """Matroid of the columns of the pairing matrix of p, under *limits*."""
    from .specht import specht_matrix

    mat = specht_matrix(p, limits)
    return LinearMatroid(mat.col_labels, tuple(mat.columns()), limits)
