"""Chow rings of matroids: presentations and graded dimensions.

The ring has one generator x_F per flat F strictly between the closure of the
empty set (the loops) and the ground set, with relations

* x_F * x_G for incomparable flats F, G, and
* sum over flats F containing a of x_F  minus  the same sum for b,
  for every pair of non-loop elements a, b.

Graded dimensions come from a chain-counting basis: monomials
x_{F1}^{d1} ... x_{Fk}^{dk} over chains of flats above the bottom with
0 < d_i < rank(F_i) - rank(F_{i-1}) for i < k and the top-of-chain exponent
bounded the same way against the previous flat, where the chain may also end
at the full ground set.  One DP over the flat lattice counts them, never
listing them; on the flats a symmetry fixes, it counts the ones it fixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import format_label
from .matroid import LinearMatroid, _members, _monomial


def _flat_key(f: frozenset) -> tuple:
    return (len(f), tuple(sorted(map(str, f))))


@dataclass(frozen=True)
class ChowPresentation:
    generators: tuple[frozenset, ...]
    quadratic_relations: tuple[tuple[frozenset, frozenset], ...]
    linear_relations: tuple[dict, ...]  # each: {"plus": [...], "minus": [...]}

    def _names(self) -> dict[frozenset, list[str]]:
        """Each generator's element labels as sorted text, each label rendered once."""
        text = {e: str(format_label(e)) for e in frozenset().union(*self.generators)}
        return {f: sorted(map(text.__getitem__, f)) for f in self.generators}

    def to_json_dict(self) -> dict:
        names = self._names()
        return {
            "generators": [names[f] for f in self.generators],
            "quadratic": [[names[a], names[b]] for a, b in self.quadratic_relations],
            "linear": [
                {
                    "plus": [names[f] for f in rel["plus"]],
                    "minus": [names[f] for f in rel["minus"]],
                }
                for rel in self.linear_relations
            ],
        }

    def to_macaulay2(self) -> str:
        """Render as a ring presentation in Macaulay2-style syntax."""
        name = {f: "x_" + "_".join(parts) for f, parts in self._names().items()}
        vars_ = ", ".join(name[f] for f in self.generators)
        quads = [f"{name[a]}*{name[b]}" for a, b in self.quadratic_relations]
        lins = []
        for rel in self.linear_relations:
            plus = "+".join(name[f] for f in rel["plus"]) or "0"
            minus = "+".join(name[f] for f in rel["minus"]) or "0"
            lins.append(f"({plus})-({minus})")
        ideal = ", ".join(quads + lins)
        return f"R = QQ[{vars_}];\nI = ideal({ideal});\nA = R/I;"


def chow_presentation(m: LinearMatroid) -> ChowPresentation:
    """Generators and the complete defining relations of the Chow ring."""
    # the flats strictly between the bottom (the loops) and the top, by index
    all_masks = m.flat_lattice()[0]
    labels = {i: m._labels_of(all_masks[i]) for i in range(1, len(all_masks) - 1)}
    order = sorted(labels, key=lambda i: _flat_key(labels[i]))
    masks = [all_masks[i] for i in order]
    flats = [labels[i] for i in order]
    # two distinct flats are comparable exactly when their meet is one of them
    quads = [
        (flats[a], flats[b])
        for a, x in enumerate(masks)
        for b, y in enumerate(masks[a + 1 :], a + 1)
        if x & y not in (x, y)
    ]
    loops = m._loop_mask()
    elements = [i for i in range(m.size) if not loops >> i & 1]
    linear = []
    if elements:

        def containing(i):
            return [f for f, x in zip(flats, masks) if x >> i & 1]

        sum0 = containing(elements[0])
        for b in elements[1:]:
            minus = containing(b)
            if minus != sum0:
                linear.append({"plus": sum0, "minus": minus})
    return ChowPresentation(tuple(flats), tuple(quads), tuple(linear))


def chow_graded_dimensions(m: LinearMatroid, *, fixed: int | None = None) -> list[int]:
    """Dimensions of the graded pieces, computed by counting basis monomials.

    The degree-d dimension is the number of monomials supported on chains
    F1 < F2 < ... < Fk of flats strictly above the bottom (the top flat is
    allowed) with exponents d_i satisfying 0 < d_i < rank(F_i) - rank(F_{i-1})
    and total degree d.

    *fixed*, a bitset over :meth:`LinearMatroid.flat_lattice` indices that
    holds the bottom (all by default), counts only the chains in those flats.
    A column symmetry of the matroid relabels a monomial flat by flat, so on
    the flats it fixes this counts the monomials it fixes.

    Each row of counts by degree d < r is packed into one integer, degree d in
    the field of W = r * bit_length(N*r + 1) + 1 bits at bit W*d, N the number
    of flats, so summing a down-set is one integer add per flat below.  Every
    count, of one row or of a sum of rows, is a number of distinct monomials:
    a chain of k flats with an exponent in [1, r) on each.  There are at most
    sum_k (N*r)^k <= (N*r + 1)^r < 2^(W - 1) of them, so no field overflows
    into the next.  Shifting a row up by e degrees pushes degrees past r - 1
    into the fields above; those are masked off, and since carries only run
    upward they cannot disturb the fields kept.
    """
    r = m.rank()
    masks, ranks, below = m.flat_lattice()
    width = r * (len(ranks) * r + 1).bit_length() + 1
    keep = (1 << width * r) - 1  # the fields of degrees 0 .. r - 1
    # ways[i] = the monomials whose largest chain element is flat i, by
    # degree; the bottom holds the empty monomial, an unfixed flat none.  A
    # monomial ending at F extends one ending at G < F by x_F^e,
    # 0 < e < r(F) - r(G), so the step depends on r(G) alone: sum the
    # down-set by rank first.  Flats come in (rank, mask) order, and no step
    # comes from rank r(F) - 1, so only the (fixed) flats in earlier[r(F) - 1],
    # those before the first flat of rank r(F) - 1, are read.  Below a free
    # flat (LinearMatroid._flat_masks) the lattice is Boolean, so the first
    # free flat of each rank is walked and every later one copies its row.
    earlier = [(1 << ranks.index(k)) - 1 for k in range(r)]
    flats, lows, rows = range(1, len(ranks)), m._lows, {}
    if fixed is not None and fixed != (1 << len(ranks)) - 1:  # lows = 0: none is free
        earlier, flats, lows = [x & fixed for x in earlier], _members(fixed & ~1), 0
    ways = [1] + [0] * (len(ranks) - 1)
    for f in flats:
        rf = ranks[f]
        free = (masks[f] & lows).bit_count() == rf
        if free and rf in rows:
            ways[f] = rows[rf]
            continue
        by_rank = [0] * rf
        for g in _members(below[f] & earlier[rf - 1]):
            by_rank[ranks[g]] += ways[g]
        acc = 0
        for rg, row in enumerate(by_rank):
            for e in range(1, rf - rg):
                acc += row << width * e
        ways[f] = acc & keep
        if free:
            rows[rf] = ways[f]
    total = sum(ways)
    field = (1 << width) - 1
    return [total >> width * d & field for d in range(max(r, 1))]


def hilbert_series_text(dims: list[int], var: str = "T") -> str:
    """Ascending rendering like ``1+11T+T^2`` with zero terms omitted."""
    terms = [(c, _monomial((d,), (var,))) for d, c in enumerate(dims) if c]
    return "+".join(mono if c == 1 and mono else f"{c}{mono}" for c, mono in terms) or "0"
