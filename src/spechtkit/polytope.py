"""Exact convex polytopes from integer point sets.

Points are reduced to integer coordinates inside their affine hull.  Facets
are found by gift-wrapping across ridges (Chand and Kapur, 1970): starting
from one facet, each ridge is crossed by rotating the facet's hyperplane
about it until it meets another point, and the ridges of a facet are found
by wrapping that facet in turn, one dimension down.  The face lattice is
generated by intersecting facet vertex sets.  All arithmetic is exact
(integers and Fractions), so results like f-vectors and lattice-point lists
carry no numerical tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_indices)

    def vertices(self) -> list[IntPoint]:
        return [self.ambient_points[i] for i in self.vertex_indices]

    # -- membership ---------------------------------------------------------

    @cached_property
    def _basis(self) -> list[IntPoint]:
        return _hull_basis(self.ambient_points)

    @cached_property
    def _scale(self) -> int:
        return _denominator_lcm(_hull_coords(self.ambient_points, self._basis))

    def _reduce_ambient(self, point: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
        """Map an ambient point into reduced coordinates; None if off the hull."""
        base = self.ambient_points[0]
        diff = [Fraction(x) - b for x, b in zip(point, base)]
        coords = _solve_exact(self._basis, diff)
        if coords is None:
            return None
        return tuple(c * self._scale for c in coords)

    def contains_point(self, point: Sequence[int | Fraction]) -> bool:
        if len(point) != len(self.ambient_points[0]):
            raise DomainError("point has wrong ambient dimension")
        reduced = self._reduce_ambient([Fraction(x) for x in point])
        if reduced is None:
            return False
        for f in self.facets:
            val = sum(a * x for a, x in zip(f.normal, reduced))
            if val < f.offset:
                return False
        return True

    def contains_origin(self) -> bool:
        return self.contains_point([0] * len(self.ambient_points[0]))

    # -- faces --------------------------------------------------------------

    def face_lattice(self) -> list[frozenset[int]]:
        """All faces as vertex-index sets, including the empty face and P."""
        verts = frozenset(self.vertex_indices)
        faces = {verts, frozenset()}
        frontier = [frozenset(f.vertex_indices) for f in self.facets]
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


def _dedup(points: Sequence[Sequence[int]]) -> tuple[IntPoint, ...]:
    seen = {}
    for p in points:
        seen.setdefault(tuple(int(x) for x in p), None)
    return tuple(seen)


def _hull_basis(points: tuple[IntPoint, ...]) -> list[IntPoint]:
    """Echelon basis for the span of the difference vectors."""
    base = points[0]
    space = RowSpace(len(base))
    for p in points[1:]:
        space.add(tuple(a - b for a, b in zip(p, base)))
    return [row for _, row in space.pivots]


def _hull_coords(
    points: tuple[IntPoint, ...], basis: list[IntPoint]
) -> list[list[Fraction]]:
    """Coordinates of every point, relative to the first, in the hull basis."""
    base = points[0]
    out = []
    for p in points:
        coords = _solve_exact(basis, [Fraction(a - b) for a, b in zip(p, base)])
        assert coords is not None
        out.append(coords)
    return out


def _denominator_lcm(coords: list[list[Fraction]]) -> int:
    """Smallest factor that makes every coordinate an integer."""
    return lcm(1, *(c.denominator for row in coords for c in row))


def _solve_exact(
    basis: list[IntPoint], target: list[Fraction]
) -> list[Fraction] | None:
    """Coordinates of *target* in the row span of *basis*, or None."""
    if not basis:
        return [] if all(x == 0 for x in target) else None
    coords = []
    residue = list(target)
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x != 0)
        c = residue[pivot] / row[pivot]
        coords.append(c)
        residue = [r - c * x for r, x in zip(residue, row)]
    if any(x != 0 for x in residue):
        return None
    return coords


def polytope_from_columns(
    columns: Sequence[Sequence[int]], limits: Limits = DEFAULT_LIMITS
) -> Polytope:
    """Convex hull data for a set of integer points."""
    ambient = _dedup(columns)
    if not ambient:
        raise DomainError("no points given")
    limits.require("max_polytope_points", len(ambient))

    basis = _hull_basis(ambient)
    dim = len(basis)
    limits.require("max_polytope_dim", dim)
    coords = _hull_coords(ambient, basis)
    scale = _denominator_lcm(coords)
    reduced = tuple(tuple(int(c * scale) for c in row) for row in coords)

    wrapped = _gift_wrap(dict(enumerate(reduced)), dim, {}) if dim else []
    facets = sorted(
        (Facet(normal, offset, frozenset(_bits(mask))) for normal, offset, mask in wrapped),
        key=lambda f: sorted(f.vertex_indices),
    )
    vertex_indices = _find_vertices(len(reduced), [mask for _, _, mask in wrapped])
    return Polytope(ambient, reduced, dim, tuple(facets), tuple(vertex_indices))


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
    pts: dict[int, IntPoint], k: int, memo: dict[int, list[int]]
) -> list[tuple[IntPoint, int, int]]:
    """Facets of the hull of *pts* as (primitive inner normal, offset, mask).

    *memo* maps a face's mask to the masks of its own facets; faces are
    intrinsic to the point set, so it is shared by every wrap of one hull.
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
        j = next(c for c, a in enumerate(normal) if a)
        for ridge in _facet_masks(mask, j, pts, k, memo):
            if ridge in crossed:
                continue
            crossed.add(ridge)
            nxt = _cross_ridge(pts, k, normal, height, mask, ridge, j)
            if nxt[2] not in found:
                found[nxt[2]] = nxt
                queue.append(nxt)
    return list(found.values())


def _facet_masks(
    mask: int, j: int, pts: dict[int, IntPoint], k: int, memo: dict[int, list[int]]
) -> list[int]:
    """Facets of the facet *mask* of a k-polytope, whose normal has x_j != 0.

    Dropping x_j maps the facet's hyperplane onto Z^(k-1) one to one, so the
    facet is wrapped there; a facet with k points is a simplex.
    """
    hit = memo.get(mask)
    if hit is None:
        idx = _bits(mask)
        if len(idx) == k:
            hit = [mask ^ (1 << i) for i in idx]
        else:
            sub = {i: pts[i][:j] + pts[i][j + 1 :] for i in idx}
            hit = [m for _, _, m in _gift_wrap(sub, k - 1, memo)]
        memo[mask] = hit
    return hit


def _cross_ridge(
    pts: dict[int, IntPoint],
    k: int,
    normal: IntPoint,
    height: dict[int, int],
    facet: int,
    ridge: int,
    j: int,
) -> tuple[IntPoint, int, int]:
    """The facet beyond *ridge* from the facet with inner *normal*."""
    idx = _bits(ridge)
    r0 = pts[idx[0]]
    rows = [tuple(a - b for a, b in zip(pts[i], r0)) for i in idx[1:]]
    unit = tuple(int(c == j) for c in range(k))
    # The ridge's hyperplane inside the facet, lifted with b_j = 0.
    b = nullspace_vector(rows + [unit], k)
    off = pts[_bits(facet & ~ridge)[0]]
    if _dot(b, off) > _dot(b, r0):  # point b out of the facet
        b = tuple(-x for x in b)
    return _rotate(pts, normal, b, height, r0)


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
    flat and those with equal ratio.
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
    faces = poly.face_lattice()
    edges = sum(
        1
        for f in faces
        if f and affine_rank([poly.points[i] for i in f]) == 1
    )
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
        n_edges=edges,
        n_facets=len(poly.facets),
        n_lattice_points=n_lattice,
        facet_grids_ok=grids_ok,
        matches_pair_matrix_columns=matches,
    )


def _same_vertex_set(a: Polytope, b: Polytope) -> bool:
    va = sorted(a.vertices())
    vb = sorted(b.vertices())
    return va == vb
