"""Exact convex polytopes from integer point sets.

Every hull has one frame, its pivot coordinates: the echelon basis of the
differences from the first point has pivot columns piv, and x -> x[piv] is
integral and one to one on the affine hull, so the points' pivot coordinates
are a full-dimensional integer point set with the same faces, and each facet
found there is already an inequality on x[piv].
Facets are found there in one pass over the points by the double description
method (Motzkin, Raiffa, Thompson and Thrall, 1953): a facet is an extreme
ray of the cone of functionals that are nonnegative on every lifted point
(1, p).  The rays start as those of a simplex of the first affinely
independent points, and each further point cuts the cone, replacing the rays
it makes negative by combinations of adjacent positive and negative rays.
Adjacency is the combinatorial test of Fukuda and Prodon (1996), read off
an index that keeps, for each point, the bitset of the rays vanishing there.
Membership is a span test and one facet inequality per facet on x[piv].
Lattice points are scanned in the box of the vertices' pivot coordinates:
a point inside every facet is kept when its lift to the affine hull is
integral.  Faces are walked depth first by the face iterator of Kliem and
Stump (2022), on bitmasks read off the vertex-facet incidences: a face's
facets are its maximal meets with the facets of its parent taken before it,
less those inside a face already visited, so every face comes out once and
memory is the depth times the coatoms, not a whole level.  The walk takes
the face lattice, whose coatoms are the facets as vertex sets, or the
reversed lattice, whose coatoms are the vertices as the sets of facets
holding them and whose k-faces are the (dim - 1 - k)-faces of P, whichever
has fewer coatoms.  The f-vector counts the faces as they come.  All
arithmetic is on integers, so f-vectors and lattice-point lists carry no
numerical tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import and_, index, mul, or_
from typing import Iterator, Sequence

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError
from .linalg import RowSpace, scaled_inverse

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

    def _incidences(self) -> tuple[list[int], list[int]]:
        """The coatoms of the face lattice and of the reversed lattice: each
        facet as the bitmask of its vertices, and each vertex as the bitmask
        of the facets that hold it."""
        top = sum(1 << i for i in self.vertex_indices)
        facets = [top & sum(1 << i for i in f.vertex_indices) for f in self.facets]
        vertices = [
            sum(1 << j for j, h in enumerate(facets) if h >> i & 1) for i in self.vertex_indices
        ]
        return facets, vertices

    def face_lattice(self) -> list[frozenset[int]]:
        """All faces as vertex-index sets, including the empty face and P."""
        facets, vertices = self._incidences()
        top = sum(1 << i for i in self.vertex_indices)
        if len(facets) <= len(vertices):
            masks = _lattice(facets, top, self.dim)
        else:  # a reversed face is the set of facets holding a face of P
            reversed_masks = _lattice(vertices, (1 << len(facets)) - 1, self.dim)
            masks = [reduce(and_, (facets[j] for j in _bits(m)), top) for m in reversed_masks]
        faces = [frozenset(_bits(m)) for m in masks]
        return sorted(faces, key=lambda s: (len(s), sorted(s)))

    def f_vector(self) -> list[int]:
        """Face counts by dimension from -1 (empty face) to dim (P itself)."""
        facets, vertices = self._incidences()
        if len(facets) <= len(vertices):
            return _face_counts(facets, self.dim)
        return _face_counts(vertices, self.dim)[::-1]

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

    wrapped = _double_description(points, dim) if dim else []
    facets = sorted(
        (Facet(normal, offset, frozenset(_bits(mask))) for normal, offset, mask in wrapped),
        key=lambda f: sorted(f.vertex_indices),
    )
    vertex_indices = _find_vertices(len(points), [mask for _, _, mask in wrapped])
    return Polytope(ambient, points, dim, tuple(facets), tuple(vertex_indices), space)


# ---------------------------------------------------------------------------
# facets by double description (Motzkin, Raiffa, Thompson and Thrall, 1953)
#
# Points are integer tuples whose affine hull is all of Q^k, and sets of them
# are bitmasks over their indices.


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _double_description(points: tuple[IntPoint, ...], k: int) -> list[tuple[IntPoint, int, int]]:
    """Facets of the full-dimensional point set *points* in Z^k as (primitive
    inner normal, offset, mask of the points on the facet).

    A facet normal . x >= offset is an extreme ray h = (-offset, normal) of
    the cone h . (1, p) >= 0 over the points p.  The cone of k + 1 affinely
    independent points has the columns of s * t^-1 as its rays, t the lifted
    points as rows; each further point v splits the rays by the sign of
    h . (1, v), drops the negative ones and adds s_p * h_n - s_n * h_p for
    each adjacent positive-negative pair.
    """
    lifted = [(1,) + p for p in points]
    space = RowSpace(k + 1)
    # the first k + 1 affinely independent points
    start = [i for i, a in enumerate(lifted) if space.rank <= k and space.add(a)]
    a, _ = scaled_inverse([lifted[i] for i in start])
    rays = [_primitive(col) for col in zip(*a)]
    full = sum(1 << i for i in start)
    tight = [full ^ (1 << i) for i in start]  # the points each ray vanishes at
    for v in range(len(points)):
        if v in start:
            continue
        vanish = _tight_index(tight, len(points))
        vals = [_dot(h, lifted[v]) for h in rays]
        neg = [j for j, s in enumerate(vals) if s < 0]
        pos = [j for j, s in enumerate(vals) if s > 0]
        new = [
            (_primitive([vals[p] * x - vals[n] * y for x, y in zip(rays[n], rays[p])]),
             tight[p] & tight[n] | 1 << v)
            for n, p in _adjacent_pairs(neg, pos, vals, tight, vanish, k)
        ]
        kept = [j for j, s in enumerate(vals) if s >= 0]
        rays = [rays[j] for j in kept] + [h for h, _ in new]
        tight = [tight[j] | (vals[j] == 0) << v for j in kept] + [z for _, z in new]
    return [(h[1:], -h[0], z) for h, z in zip(rays, tight)]


def _adjacent_pairs(
    neg: list[int], pos: list[int], vals: list[int], tight: list[int], vanish: list[int], k: int
) -> list[tuple[int, int]]:
    """The (negative, positive) pairs of adjacent rays.

    Two rays are adjacent when the points both vanish at have rank k - 1
    and no third ray vanishes at all of them (Fukuda and Prodon, 1996); the
    rays vanishing at a set of points are the AND of the points' *vanish*
    bitsets.  A ray vanishing at exactly k points, which are independent,
    meets each neighbour in one of its k ridges, whose AND holds only the
    two of them.
    """
    every = (1 << len(tight)) - 1
    out = []
    for n in neg:
        zn = tight[n]
        if zn.bit_count() == k:
            # ridge i is the AND of the bitsets before i and those after it
            sets = [vanish[r] for r in _bits(zn)]
            after = [every]
            for b in reversed(sets):
                after.append(after[-1] & b)
            before = every
            for b, rest in zip(sets, reversed(after[:-1])):
                other = ((before & rest) ^ (1 << n)).bit_length() - 1
                if other >= 0 and vals[other] > 0:
                    out.append((n, other))
                before &= b
            continue
        for p in pos:
            z = zn & tight[p]
            if z.bit_count() >= k - 1:
                common = every
                for r in _bits(z):
                    common &= vanish[r]
                if common.bit_count() == 2:
                    out.append((n, p))
    return out


def _tight_index(tight: list[int], n_points: int) -> list[int]:
    """For each point, the bitset of the rays that vanish at it: the
    transpose of the rays' point bitsets *tight*."""
    width = (n_points + 7) // 8
    by_ray = np.frombuffer(b"".join(z.to_bytes(width, "little") for z in tight), np.uint8)
    bits = np.unpackbits(by_ray.reshape(len(tight), width), axis=1, bitorder="little")
    by_point = np.packbits(bits[:, :n_points].T, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in by_point]


def _primitive(vec: Sequence[int]) -> IntPoint:
    g = gcd(*vec)
    return tuple(x // g for x in vec)


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
# faces depth first (Kliem and Stump, 2022)
#
# A lattice is given by its coatoms as bitmasks over its atoms: the facets as
# vertex sets for the face lattice of P, or the vertices as facet sets for
# the reversed lattice, which is the face lattice of the polar of P and has
# the same dimension.  A k-face of the reversed lattice is a
# (dim - 1 - k)-face of P.


def _face_walk(coatoms: list[int], dim: int) -> Iterator[tuple[int, int]]:
    """(k, face) for every face of dimension 1 <= k < dim, each once.

    The face iterator of Kliem and Stump: the faces below a face F are
    walked by taking F's candidate facets from last to first.  The
    candidates of such a facet G are its maximal meets with the candidates
    before it, less those inside a visited face, whose faces have all been
    walked; G is visited once its own faces are.  So every candidate is a
    new face, and the candidates of one face are its facets, none inside
    another.  The visited faces are one stack, so memory is the depth times
    the coatoms.  Edges are not expanded: their facets are the atoms.
    """
    if dim < 2:
        return
    visited: list[int] = []  # a stack shared by the frames
    # a frame: candidates, their dimension, the face they are the facets
    # of, and the length of *visited* when that face was reached
    stack = [(list(coatoms), dim - 1, 0, 0)]
    while stack:
        todo, k, owner, start = stack[-1]
        if not todo:
            stack.pop()
            del visited[start:]
            visited.append(owner)
            continue
        face = todo.pop()
        yield k, face
        if k == 1:
            continue
        kept: list[int] = []  # the maximal meets, found largest first
        for m in sorted({face & c for c in todo}, key=int.bit_count, reverse=True):
            for v in kept:
                if m & v == m:
                    break
            else:
                for v in visited:
                    if m & v == m:
                        break
                else:
                    kept.append(m)
        if k == 2:
            for m in kept:
                yield 1, m
            visited.append(face)
        else:
            stack.append((kept, k - 1, face, len(visited)))


def _face_counts(coatoms: list[int], dim: int) -> list[int]:
    """Face counts of the lattice by dimension, from the bottom to the top."""
    counts = [1] + [0] * dim + [1]
    counts[1] += reduce(or_, coatoms, 0).bit_count()  # the atoms; none when P is a point
    for k, _ in _face_walk(coatoms, dim):
        counts[k + 1] += 1
    return counts


def _lattice(coatoms: list[int], top: int, dim: int) -> list[int]:
    """Every face of the lattice: the top, the walk, the atoms and 0."""
    atoms = [1 << i for i in _bits(reduce(or_, coatoms, 0))]
    return [top, *(m for _, m in _face_walk(coatoms, dim)), *atoms, 0]


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
