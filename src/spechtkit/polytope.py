"""Exact convex polytopes from integer point sets.

Every hull has one frame, its pivot coordinates: the echelon basis of the
differences from the first point has pivot columns piv, and x -> x[piv] is
integral and one to one on the affine hull, so the points' pivot coordinates
are a full-dimensional integer point set with the same faces, and each facet
found there is already an inequality on x[piv].
Facets are found by gift-wrapping across ridges (Chand and Kapur, 1970):
starting from one facet, each ridge is crossed by rotating the facet's
hyperplane about it until it meets another point.  The ridges of a facet are
found by wrapping the facet one dimension down, without the last nonzero
coordinate of its normal.  The coordinates left are the pivot coordinates of
the facet's direction space, so a face's frame, and the normals of its
ridges found there, are the same whichever way the face is reached.
Membership is a span test and one facet inequality per facet on x[piv].
Lattice points are scanned in the box of the vertices' pivot coordinates:
a point inside every facet is kept when its lift to the affine hull is
integral.  The face lattice is walked down by covers from the vertex-facet
incidences, one dimension per level, so the f-vector is the list of level
sizes.  All arithmetic is on integers, so f-vectors and lattice-point lists
carry no numerical tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from operator import index, mul
from typing import Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError
from .linalg import RowSpace, nullspace_vector, scaled_inverse

IntPoint = tuple[int, ...]


@dataclass(frozen=True)
class Facet:
    normal: IntPoint  # primitive inner normal in pivot coordinates
    offset: int  # facet hyperplane is normal . x[piv] = offset, inside is >=
    vertex_indices: frozenset[int]


@dataclass(frozen=True)
class Polytope:
    """A polytope with both ambient and pivot integer coordinates."""

    ambient_points: tuple[IntPoint, ...]  # distinct input points
    points: tuple[IntPoint, ...]  # pivot coordinates x[piv] of the same points
    dim: int
    facets: tuple[Facet, ...]  # sorted by vertex indices
    vertex_indices: tuple[int, ...]
    # echelon basis of x - ambient_points[0] over the points x; piv are the
    # pivot columns of its rows
    hull_space: RowSpace = field(repr=False, compare=False)

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
        return all(_dot(f.normal, y) >= m * f.offset for f in self.facets)

    def contains_origin(self) -> bool:
        return self.contains_point([0] * len(self.ambient_points[0]))

    # -- faces --------------------------------------------------------------

    def _face_levels(self) -> list[list[int]]:
        """Faces as vertex bitmasks, one list per dimension from P down to the
        empty face, walked by covers (Kaibel and Pfetsch, 2002): the facets of
        a face F are the inclusion-maximal sets F & H over the facets H of P
        that do not hold F, and a vertex's only facet is the empty face.
        """
        top = sum(1 << i for i in self.vertex_indices)
        facets = [top & sum(1 << i for i in f.vertex_indices) for f in self.facets]
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
        return levels

    def face_lattice(self) -> list[frozenset[int]]:
        """All faces as vertex-index sets, including the empty face and P."""
        faces = [frozenset(_bits(m)) for level in self._face_levels() for m in level]
        return sorted(faces, key=lambda s: (len(s), sorted(s)))

    def f_vector(self) -> list[int]:
        """Face counts by dimension from -1 (empty face) to dim (P itself)."""
        return [len(level) for level in reversed(self._face_levels())]

    # -- lattice points -----------------------------------------------------

    def lattice_points(self, limits: Limits = DEFAULT_LIMITS) -> list[IntPoint]:
        """Integer ambient points inside the polytope, sorted.

        The scan walks the box of the vertices' pivot coordinates.  A hull
        point with pivot coordinates y is base + c . rows with c . t =
        y - base[piv], t[i][j] = row_i[piv_j]; with q = s * t^-1 integral its
        lift is base + (y - base[piv]) . q . rows / s, and y inside every
        facet is kept when that lift is integral.
        """
        verts = [self.points[i] for i in self.vertex_indices]
        box = [range(min(c), max(c) + 1) for c in zip(*verts)]
        limits.require("max_box_volume", prod(map(len, box)))
        base, y0 = self.ambient_points[0], self.points[0]
        pivots = self.hull_space.pivots
        q, s = scaled_inverse([[row[c] for c, _ in pivots] for _, row in pivots])
        # lift[a] . (y - y0) = s * (x[a] - base[a])
        cols = [[row[a] for _, row in pivots] for a in range(len(base))]
        lift = [[_dot(q_row, col) for q_row in q] for col in cols]
        out = []
        for y in itertools.product(*box):
            if all(_dot(f.normal, y) >= f.offset for f in self.facets):
                d = [a - b for a, b in zip(y, y0)]
                num = [_dot(w, d) for w in lift]
                if all(v % s == 0 for v in num):
                    out.append(tuple(b + v // s for b, v in zip(base, num)))
        return sorted(out)


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
        seen.setdefault(tuple(map(_integer, p)), None)
    return tuple(seen)


def _integer(x) -> int:
    """*x* as an int; Python and numpy integers pass, bool and the rest do not."""
    if type(x) is not bool:
        try:
            return index(x)
        except TypeError:
            pass
    raise DomainError(f"coordinate {x!r} is not an integer")


def _hull_basis(points: tuple[IntPoint, ...]) -> RowSpace:
    """Echelon basis for the span of the differences from the first point."""
    base = points[0]
    space = RowSpace(len(base))
    for p in points[1:]:
        space.add(tuple(a - b for a, b in zip(p, base)))
    return space


def polytope_from_columns(
    columns: Sequence[Sequence[int]], limits: Limits = DEFAULT_LIMITS
) -> Polytope:
    """Convex hull data for a set of integer points."""
    ambient = _dedup(columns)
    if not ambient:
        raise DomainError("no points given")
    if len({len(p) for p in ambient}) > 1:
        raise DomainError("points differ in length")
    limits.require("max_polytope_points", len(ambient))

    space = _hull_basis(ambient)
    dim = space.rank
    limits.require("max_polytope_dim", dim)
    points = tuple(tuple(p[c] for c, _ in space.pivots) for p in ambient)

    wrapped = _gift_wrap(dict(enumerate(points)), dim, {}) if dim else []
    facets = sorted(
        (Facet(normal, offset, frozenset(_bits(mask))) for normal, offset, mask in wrapped),
        key=lambda f: sorted(f.vertex_indices),
    )
    vertex_indices = _find_vertices(len(points), [mask for _, _, mask in wrapped])
    return Polytope(ambient, points, dim, tuple(facets), tuple(vertex_indices), space)


# ---------------------------------------------------------------------------
# facets by gift-wrapping
#
# A point set is a dict from point index to integer coordinates whose affine
# hull is all of Q^k.  Faces are bitmasks over the point indices.


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
    a, _ = scaled_inverse([[x - y for x, y in zip(p, p0)] for p in rest])
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
    n_lattice = len(poly.lattice_points(limits))

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
    matches = sorted(poly.vertices()) == sorted(specht_poly.vertices())
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
