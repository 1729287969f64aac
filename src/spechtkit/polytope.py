"""Exact convex polytopes from integer point sets.

Points get integer coordinates in their affine hull from one frame per hull:
the echelon basis of the differences from the first point has pivot
coordinates piv, and reduced = (x - base)[piv] . q / g with integer q and g.
Facets are found by gift-wrapping across ridges (Chand and Kapur, 1970):
starting from one facet, each ridge is crossed by rotating the facet's
hyperplane about it until it meets another point.  The ridges of a facet are
found by wrapping the facet one dimension down, without the last nonzero
coordinate of its normal.  The coordinates left are the pivot coordinates of
the facet's direction space, so a face's frame, and the normals of its
ridges found there, are the same whichever way the face is reached.
Membership is a span test and one integer functional per facet, and the face
lattice is generated by intersecting facet vertex sets.  All arithmetic is on
integers, so f-vectors and lattice-point lists carry no numerical tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError
from .linalg import RowSpace, affine_rank, nullspace_vector

IntPoint = tuple[int, ...]


@dataclass(frozen=True)
class Facet:
    normal: IntPoint  # primitive inner normal in reduced coordinates
    offset: int  # facet hyperplane is normal . x = offset, inside is >=
    vertex_indices: frozenset[int]


@dataclass(frozen=True)
class Polytope:
    """A polytope with both ambient and reduced integer coordinates."""

    ambient_points: tuple[IntPoint, ...]  # distinct input points
    points: tuple[IntPoint, ...]  # same points in reduced coordinates
    dim: int
    facets: tuple[Facet, ...]  # sorted by vertex indices
    vertex_indices: tuple[int, ...]
    # x is in P iff x - ambient_points[0] lies in hull_space and w . x[piv] >= c
    # for every (w, c) in facet_functionals, piv being hull_space's pivots.
    hull_space: RowSpace = field(repr=False, compare=False)
    facet_functionals: tuple[tuple[IntPoint, int], ...] = field(repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_indices)

    def vertices(self) -> list[IntPoint]:
        return [self.ambient_points[i] for i in self.vertex_indices]

    # -- membership ---------------------------------------------------------

    def contains_point(self, point: Sequence[int | Fraction]) -> bool:
        """Whether *point*, with int or Fraction coordinates, lies in P."""
        base = self.ambient_points[0]
        if len(point) != len(base):
            raise DomainError("point has wrong ambient dimension")
        m, x = _clear_denominators(point)
        if not self.hull_space.contains([a - m * b for a, b in zip(x, base)]):
            return False
        y = [x[c] for c, _ in self.hull_space.pivots]
        return all(_dot(w, y) >= m * c for w, c in self.facet_functionals)

    def contains_origin(self) -> bool:
        return self.contains_point([0] * len(self.ambient_points[0]))

    # -- faces --------------------------------------------------------------

    def face_lattice(self) -> list[frozenset[int]]:
        """All faces as vertex-index sets, including the empty face and P."""
        verts = frozenset(self.vertex_indices)
        faces = {verts, frozenset()}
        frontier = [f.vertex_indices & verts for f in self.facets]
        faces.update(frontier)
        while frontier:
            nxt = []
            for face in frontier:
                for f in self.facets:
                    inter = face & f.vertex_indices
                    if inter not in faces:
                        faces.add(inter)
                        nxt.append(inter)
            frontier = nxt
        return sorted(faces, key=lambda s: (len(s), sorted(s)))

    def f_vector(self) -> list[int]:
        """Face counts by dimension from -1 (empty face) to dim (P itself)."""
        counts = [0] * (self.dim + 2)
        for face in self.face_lattice():
            if not face:
                d = -1
            else:
                d = affine_rank([self.points[i] for i in face])
            counts[d + 1] += 1
        return counts

    # -- lattice points -----------------------------------------------------

    def lattice_points(self, limits: Limits = DEFAULT_LIMITS) -> list[IntPoint]:
        """Integer ambient points inside the polytope, by bounding-box scan."""
        verts = self.vertices()
        ambient_dim = len(verts[0])
        limits.require("max_lattice_dim", ambient_dim)
        lo = [min(v[i] for v in verts) for i in range(ambient_dim)]
        hi = [max(v[i] for v in verts) for i in range(ambient_dim)]
        volume = 1
        for a, b in zip(lo, hi):
            volume *= b - a + 1
        limits.require("max_box_volume", volume)
        out = []
        for cand in itertools.product(
            *(range(a, b + 1) for a, b in zip(lo, hi))
        ):
            if self.contains_point(cand):
                out.append(cand)
        return out


def _clear_denominators(point: Sequence[int | Fraction]) -> tuple[int, IntPoint]:
    """(m, m * point) for the least m that makes every coordinate an integer."""
    for x in point:
        if type(x) is bool or not isinstance(x, (int, Fraction)):
            raise DomainError(f"coordinate {x!r} is not an int or a Fraction")
    m = lcm(*(x.denominator for x in point))
    return m, tuple(x.numerator * (m // x.denominator) for x in point)


def _dedup(points: Sequence[Sequence[int]]) -> tuple[IntPoint, ...]:
    seen = {}
    for p in points:
        seen.setdefault(tuple(int(x) for x in p), None)
    return tuple(seen)


def _hull_basis(points: tuple[IntPoint, ...]) -> RowSpace:
    """Echelon basis for the span of the differences from the first point."""
    base = points[0]
    space = RowSpace(len(base))
    for p in points[1:]:
        space.add(tuple(a - b for a, b in zip(p, base)))
    return space


def _hull_frame(
    points: tuple[IntPoint, ...], space: RowSpace
) -> tuple[list[list[int]], int, tuple[IntPoint, ...]]:
    """(q, g, reduced): reduced coordinates (x - base)[piv] . q / g of *points*.

    A hull point x is base + c . rows with c . t = (x - base)[piv], where
    t[i][j] = row_i[piv_j].  With q = s * t^-1 integral, the reduced
    coordinates s * c / g are the least multiple of c that is integral on
    every input point.
    """
    base = points[0]
    piv = [c for c, _ in space.pivots]
    q, s = _scaled_inverse([[row[c] for c in piv] for _, row in space.pivots])
    cols = list(zip(*q))
    lifted = []
    for p in points:
        y = [p[c] - base[c] for c in piv]
        lifted.append([_dot(y, col) for col in cols])
    g = gcd(s, *(v for row in lifted for v in row))
    return q, g, tuple(tuple(v // g for v in row) for row in lifted)


def _scaled_inverse(m: list[list[int]]) -> tuple[list[list[int]], int]:
    """(a, s) with s > 0 and a = s * m^-1 integral, by Gauss-Jordan elimination."""
    k = len(m)
    rows = [list(row) + [int(i == c) for c in range(k)] for i, row in enumerate(m)]
    for c in range(k):
        r = next(r for r in range(c, k) if rows[r][c])
        pivot = rows[r] if rows[r][c] > 0 else [-x for x in rows[r]]
        rows[r], rows[c] = rows[c], pivot
        for r, row in enumerate(rows):
            if row[c] and r != c:
                row = [pivot[c] * x - row[c] * y for x, y in zip(row, pivot)]
                g = gcd(*row)
                rows[r] = [x // g for x in row]
    # Now rows = [diag | diag * m^-1] with a positive diagonal.
    s = lcm(*(rows[i][i] for i in range(k)))
    return [[x * (s // rows[i][i]) for x in rows[i][k:]] for i in range(k)], s


def polytope_from_columns(
    columns: Sequence[Sequence[int]], limits: Limits = DEFAULT_LIMITS
) -> Polytope:
    """Convex hull data for a set of integer points."""
    ambient = _dedup(columns)
    if not ambient:
        raise DomainError("no points given")
    limits.require("max_polytope_points", len(ambient))

    space = _hull_basis(ambient)
    dim = space.rank
    limits.require("max_polytope_dim", dim)
    q, g, reduced = _hull_frame(ambient, space)

    wrapped = _gift_wrap(dict(enumerate(reduced)), dim, {}) if dim else []
    facets = sorted(
        (Facet(normal, offset, frozenset(_bits(mask))) for normal, offset, mask in wrapped),
        key=lambda f: sorted(f.vertex_indices),
    )
    vertex_indices = _find_vertices(len(reduced), [mask for _, _, mask in wrapped])
    # normal . reduced(x) >= offset, times g, is w . x[piv] >= c with w = q . normal
    base = [ambient[0][c] for c, _ in space.pivots]
    ws = [tuple(_dot(row, f.normal) for row in q) for f in facets]
    functionals = tuple((w, g * f.offset + _dot(w, base)) for w, f in zip(ws, facets))
    return Polytope(
        ambient, reduced, dim, tuple(facets), tuple(vertex_indices), space, functionals
    )


# ---------------------------------------------------------------------------
# facets by gift-wrapping
#
# A point set is a dict from point index to integer coordinates whose affine
# hull is all of Z^k.  Faces are bitmasks over the point indices.


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _gift_wrap(
    pts: dict[int, IntPoint], k: int, memo: dict[int, list[tuple[IntPoint, int]]]
) -> list[tuple[IntPoint, int, int]]:
    """Facets of the hull of *pts* as (primitive inner normal, offset, mask).

    *memo* maps a face's mask to its own facets as (inner normal, mask) in
    the face's frame; faces and their frames are intrinsic to the point set,
    so it is shared by every wrap of one hull.
    """
    if k == 1:
        lo = min(pts, key=lambda i: pts[i][0])
        hi = max(pts, key=lambda i: pts[i][0])
        return [((1,), pts[lo][0], 1 << lo), ((-1,), -pts[hi][0], 1 << hi)]
    first = _first_facet(pts, k)
    found = {first[2]: first}
    crossed: set[int] = set()  # each ridge joins two facets; cross it once
    queue = [first]
    while queue:
        normal, offset, mask = queue.pop()
        height = {i: _dot(normal, p) - offset for i, p in pts.items()}
        j = max(c for c, a in enumerate(normal) if a)
        if mask not in memo:
            # Dropping x_j maps the facet's hyperplane onto Z^(k-1) one to one.
            sub = {i: pts[i][:j] + pts[i][j + 1 :] for i in _bits(mask)}
            if len(sub) == k:
                memo[mask] = _simplex_facets(sub, k - 1)
            else:
                memo[mask] = [(n, m) for n, _, m in _gift_wrap(sub, k - 1, memo)]
        for sub_normal, ridge in memo[mask]:
            if ridge in crossed:
                continue
            crossed.add(ridge)
            # The ridge's inner normal in the facet, negated and lifted with
            # b_j = 0: it vanishes on the ridge and points out of the facet.
            b = tuple(-x for x in sub_normal[:j]) + (0,) + tuple(-x for x in sub_normal[j:])
            r0 = pts[(ridge & -ridge).bit_length() - 1]
            nxt = _rotate(pts, normal, b, height, r0)
            if nxt[2] not in found:
                found[nxt[2]] = nxt
                queue.append(nxt)
    return list(found.values())


def _simplex_facets(pts: dict[int, IntPoint], k: int) -> list[tuple[IntPoint, int]]:
    """Facets (inner normal, mask) of the k-simplex with the k + 1 vertices *pts*.

    With the edges p_l - p_0 as the rows of e, column l of e^-1 is the inner
    normal of the facet opposite p_l, and minus their sum is the one opposite
    p_0, so one inversion gives them all.
    """
    p0, *rest = pts.values()
    a, _ = _scaled_inverse([[x - y for x, y in zip(p, p0)] for p in rest])
    cols = [[-sum(row) for row in a]] + [list(col) for col in zip(*a)]
    full = sum(1 << i for i in pts)
    out = []
    for i, col in zip(pts, cols):
        g = gcd(*col)
        out.append((tuple(x // g for x in col), full ^ (1 << i)))
    return out


def _rotate(
    pts: dict[int, IntPoint],
    normal: IntPoint,
    b: IntPoint,
    height: dict[int, int],
    r0: IntPoint,
) -> tuple[IntPoint, int, int]:
    """Turn the supporting hyperplane about its flat where b . x = b . r0.

    The hyperplanes through that flat are t*normal - h*b with h > 0.  A point
    q off the current hyperplane, at height h_q = normal . q - offset > 0 and
    with t_q = b . (q - r0), is on their inner side while t_q/h_q <= t/h, so
    the point with the largest t_q/h_q (compared by cross-multiplying) gives
    the first supporting hyperplane met.  Its tight set is the points of the
    flat and those with equal ratio.  Adding a multiple of the normal to b
    shifts every ratio by the same amount and leaves the result unchanged.
    """
    b0 = _dot(b, r0)
    turn = {i: _dot(b, pts[i]) - b0 for i in pts}
    best_t, best_h = None, 1
    for i, h in height.items():
        t = turn[i]
        if h and (best_t is None or t * best_h > best_t * h):
            best_t, best_h = t, h
    new = [best_t * a - best_h * c for a, c in zip(normal, b)]
    g = gcd(*new)
    new = tuple(x // g for x in new)
    mask = 0
    for i, h in height.items():
        if best_t * h == best_h * turn[i]:
            mask |= 1 << i
    return new, _dot(new, r0), mask


def _first_facet(pts: dict[int, IntPoint], k: int) -> tuple[IntPoint, int, int]:
    """Rotate the supporting hyperplane x_0 >= min until it holds a facet."""
    normal: IntPoint = (1,) + (0,) * (k - 1)
    offset = min(p[0] for p in pts.values())
    while True:
        height = {i: _dot(normal, p) - offset for i, p in pts.items()}
        tight = [i for i, h in height.items() if h == 0]
        base = pts[tight[0]]
        space = RowSpace(k)
        for i in tight[1:]:
            space.add(tuple(a - b for a, b in zip(pts[i], base)))
        if space.rank == k - 1:
            return normal, offset, sum(1 << i for i in tight)
        # Any b constant on the tight points and independent of the normal
        # spans, with the normal, a pencil of hyperplanes through them.
        space.add(normal)
        for c in range(k):
            if space.rank == k - 1:
                break
            space.add(tuple(int(c == e) for e in range(k)))
        b = nullspace_vector([row for _, row in space.pivots], k)
        normal, offset, _ = _rotate(pts, normal, b, height, base)


def _find_vertices(n_points: int, facet_masks: list[int]) -> list[int]:
    """Points that are alone in the intersection of the facets holding them."""
    out = []
    for i in range(n_points):
        face = (1 << n_points) - 1
        for mask in facet_masks:
            if mask >> i & 1:
                face &= mask
        if face == 1 << i:
            out.append(i)
    return out


# ---------------------------------------------------------------------------
# root polytope comparison


@dataclass(frozen=True)
class RootPolytopeReport:
    k: int
    dim: int
    n_vertices: int
    n_edges: int
    n_facets: int
    n_lattice_points: int
    facet_grids_ok: bool
    matches_pair_matrix_columns: bool


def root_polytope(k: int, limits: Limits = DEFAULT_LIMITS) -> Polytope:
    """Convex hull of the pairwise difference vectors e_i - e_j in R^k."""
    if k < 2:
        raise DomainError("k must be at least 2")
    pts = []
    for i in range(k):
        for j in range(k):
            if i != j:
                v = [0] * k
                v[i], v[j] = 1, -1
                pts.append(tuple(v))
    return polytope_from_columns(pts, limits)


def root_polytope_structure_check(
    k: int, limits: Limits = DEFAULT_LIMITS
) -> RootPolytopeReport:
    """Check counts of vertices/edges/facets/lattice points of the difference
    polytope and whether it equals the column polytope of the two-row hook."""
    poly = root_polytope(k, limits)
    n_lattice = len(poly.lattice_points(limits)) if k <= limits.max_lattice_dim else -1

    # every facet should be a grid S x S^c of difference vectors
    grids_ok = True
    for f in poly.facets:
        pos = set()
        neg = set()
        for i in f.vertex_indices:
            v = poly.ambient_points[i]
            pos.add(v.index(1))
            neg.add(v.index(-1))
        if pos & neg or len(f.vertex_indices) != len(pos) * len(neg):
            grids_ok = False

    from .combinatorics import Partition
    from .specht import specht_matrix

    hook = Partition((k - 1, 1))
    cols = specht_matrix(hook, limits).columns()
    specht_poly = polytope_from_columns(cols, limits)
    matches = _same_vertex_set(poly, specht_poly)
    return RootPolytopeReport(
        k=k,
        dim=poly.dim,
        n_vertices=poly.n_vertices,
        n_edges=poly.f_vector()[2],
        n_facets=len(poly.facets),
        n_lattice_points=n_lattice,
        facet_grids_ok=grids_ok,
        matches_pair_matrix_columns=matches,
    )


def _same_vertex_set(a: Polytope, b: Polytope) -> bool:
    va = sorted(a.vertices())
    vb = sorted(b.vertices())
    return va == vb
