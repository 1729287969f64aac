import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spechtkit import polytope
from spechtkit.combinatorics import Partition, partitions_of
from spechtkit.config import Limits
from spechtkit.errors import DomainError
from spechtkit.linalg import int_rank
from spechtkit.oracles import face_levels_oracle, facets_oracle
from spechtkit.polytope import (
    polytope_from_columns,
    root_polytope,
    root_polytope_structure_check,
)
from spechtkit.specht import specht_matrix


def column_polytope(parts):
    return polytope_from_columns(specht_matrix(Partition(parts)).columns())


def affine_rank(points):
    """Dimension of the affine hull of integer points, -1 for none: the rank
    of their differences from the first."""
    if not points:
        return -1
    return int_rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]], dim=len(points[0]))


LIGHT_F_VECTORS = {
    (3, 1): [1, 12, 24, 14, 1],
    (2, 2): [1, 3, 3, 1],
    (2, 1, 1): [1, 4, 6, 4, 1],
    (4, 1): [1, 20, 60, 70, 30, 1],
    (3, 2): [1, 15, 60, 80, 45, 12, 1],
    (2, 2, 1): [1, 10, 45, 90, 75, 22, 1],
    (2, 1, 1, 1): [1, 5, 10, 10, 5, 1],
}

CUBE4 = list(itertools.product((0, 1), repeat=4))  # 8 facets, 16 vertices
CROSS4 = [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]  # 16, 8


def test_square_from_unit_points():
    p = polytope_from_columns([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert p.dim == 2
    assert p.n_vertices == 4
    assert len(p.facets) == 4
    assert p.f_vector() == [1, 4, 4, 1]
    assert p.contains_point((0, 0)) and p.contains_origin()
    assert not p.contains_point((2, 0))
    assert sorted(p.lattice_points()) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_degenerate_inputs():
    single = polytope_from_columns([(3, 3)])
    assert single.dim == 0
    assert single.f_vector() == [1, 1]
    segment = polytope_from_columns([(0, 0, 0), (2, 2, 2), (1, 1, 1)])
    assert segment.dim == 1
    assert segment.n_vertices == 2
    assert len(segment.lattice_points()) == 3
    with pytest.raises(DomainError):
        polytope_from_columns([])


def test_hull_refuses_non_integer_coordinates():
    for bad in (0.5, Fraction(1, 2), Fraction(2, 1), True, 2.0, "2", np.True_):
        with pytest.raises(DomainError):
            polytope_from_columns([(bad, 0), (2, 0), (0, 2)])
    poly = polytope_from_columns([(np.int64(0), np.int8(0)), (2, 0), (0, 2)])
    assert poly.ambient_points == ((0, 0), (2, 0), (0, 2))
    assert all(type(x) is int for x in poly.ambient_points[0])


@pytest.mark.parametrize(
    "points", [[(0, 0), (1, 0, 5), (0, 1)], [(0, 0), (1,), (0, 1)]], ids=["longer", "shorter"]
)
def test_hull_refuses_points_of_different_lengths(points):
    with pytest.raises(DomainError, match="differ in length"):
        polytope_from_columns(points)


@pytest.mark.parametrize(
    "parts,fvec", sorted(LIGHT_F_VECTORS.items()), ids=[str(p) for p in sorted(LIGHT_F_VECTORS)]
)
def test_column_polytope_f_vectors(parts, fvec):
    assert column_polytope(parts).f_vector() == fvec


def test_column_polytope_2_1_1_is_a_simplex():
    p = column_polytope((2, 1, 1))
    assert p.dim == 3
    assert p.n_vertices == 4
    assert p.f_vector() == [1, 4, 6, 4, 1]


@pytest.mark.parametrize("k", range(1, 5))
def test_near_column_hooks_give_simplices(k):
    # shapes (2, 1^k): the column polytope is a k+1-dimensional simplex
    p = column_polytope((2,) + (1,) * k)
    d = p.dim
    assert p.n_vertices == d + 1
    assert p.f_vector() == [comb(d + 1, i) for i in range(d + 2)]


@pytest.mark.parametrize("n", range(2, 5))
def test_origin_in_interiors_except_single_column(n):
    for p in partitions_of(n):
        poly = column_polytope(p.parts)
        expected = p.parts != (1,) * n
        assert poly.contains_origin() == expected


@pytest.mark.parametrize("parts", sorted(LIGHT_F_VECTORS))
def test_euler_relation(parts):
    fvec = column_polytope(parts).f_vector()
    assert sum((-1) ** i for i, c in enumerate(fvec) for _ in range(c)) == 0


def test_face_lattice_closed_under_intersection():
    p = column_polytope((2, 2))
    faces = set(p.face_lattice())
    for a in faces:
        for b in faces:
            assert a & b in faces


@pytest.mark.parametrize("k", [3, 4, 5])
def test_root_polytope_counts(k):
    rep = root_polytope_structure_check(k)
    assert rep.dim == k - 1
    assert rep.n_vertices == k * (k - 1)
    assert rep.n_edges == (k - 2) * (k - 1) * k
    assert rep.n_facets == 2**k - 2
    assert rep.n_lattice_points == rep.n_vertices + 1
    assert rep.facet_grids_ok
    assert rep.matches_pair_matrix_columns == (k >= 4)


def test_root_polytope_rejects_tiny_k():
    with pytest.raises(DomainError):
        root_polytope(1)


def test_polytope_guards():
    from spechtkit.config import Limits
    from spechtkit.errors import ResourceLimitError

    with pytest.raises(ResourceLimitError):
        polytope_from_columns([(0, 0), (1, 0), (0, 1)], Limits(max_polytope_points=2))
    with pytest.raises(ResourceLimitError):
        polytope_from_columns([(1,), (0,)]).lattice_points(Limits(max_box_volume=1))


# ---------------------------------------------------------------------------
# facets against the brute-force oracle


def assert_matches_oracle(poly):
    got = {(f.normal, f.offset, f.vertex_indices) for f in poly.facets}
    want = facets_oracle(poly.points, poly.dim)
    assert got == want
    keys = [sorted(f.vertex_indices) for f in poly.facets]
    assert keys == sorted(keys) and len(keys) == len(got)
    # a vertex is a point whose facets' normals span the whole space
    vertices = [
        i
        for i in range(len(poly.points))
        if int_rank([n for n, _, tight in want if i in tight], poly.dim) == poly.dim
    ]
    assert list(poly.vertex_indices) == vertices


def assert_euler(poly):
    fvec = poly.f_vector()
    assert sum((-1) ** i * c for i, c in enumerate(fvec)) == 0


@pytest.mark.parametrize(
    "parts",
    [p.parts for n in range(1, 6) for p in partitions_of(n)],
    ids=str,
)
def test_facets_match_oracle_on_specht_shapes(parts):
    assert_matches_oracle(column_polytope(parts))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_facets_match_oracle_on_root_polytopes(k):
    assert_matches_oracle(root_polytope(k))


def test_non_simplicial_facets_match_oracle():
    cube = list(itertools.product((0, 1), repeat=3))
    octahedron = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    # a square pyramid with points inside its base edges and faces
    pyramid = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2), (1, 0, 0), (1, 1, 0)]
    # the 3-cube embedded in Z^5
    amap = injective_map(3, 3)
    embedded = [tuple(sum(a * x for a, x in zip(row, p)) for row in amap) + (7,) for p in cube]
    for pts in (cube, octahedron, pyramid, CUBE4, CROSS4, embedded):
        poly = polytope_from_columns(pts)
        assert_matches_oracle(poly)
        assert_euler(poly)
        assert_faces_match_levels(poly)
    assert len(polytope_from_columns(cube).facets) == 6
    assert polytope_from_columns(CUBE4).f_vector() == [1, 16, 32, 24, 8, 1]
    assert polytope_from_columns(CROSS4).f_vector() == [1, 8, 24, 32, 16, 1]
    assert polytope_from_columns(embedded).dim == 3


@st.composite
def point_sets(draw):
    """Small integer point sets, often lower-dimensional or repeated.

    Points are drawn in Z^m and mapped into Z^d by a random integer affine
    map, so collinear and coplanar sets, duplicates (from repeats or from a
    map that is not one to one) and grid-like sets with non-simplicial
    facets all come up.
    """
    m = draw(st.integers(0, 4))
    d = draw(st.integers(max(m, 1), 5))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * m), min_size=1, max_size=9))
    if draw(st.booleans()):
        amap = [draw(st.tuples(*[st.integers(-2, 2)] * m)) for _ in range(d)]
    else:  # coordinate embedding
        amap = [tuple(int(r == c) for c in range(m)) for r in range(d)]
    shift = draw(st.tuples(*[coord] * d))
    return [
        tuple(sum(a * x for a, x in zip(row, p)) + s for row, s in zip(amap, shift))
        for p in pts
    ]


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_facets_match_oracle_on_random_point_sets(pts):
    poly = polytope_from_columns(pts)
    assert poly.dim == int_rank(
        [tuple(a - b for a, b in zip(p, pts[0])) for p in pts], len(pts[0])
    )
    assert_matches_oracle(poly)
    assert_euler(poly)


def injective_map(seed, d):
    """A seeded injective integer map from Z^d into Z^(d + 1), as its rows."""
    rng = random.Random(seed)
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 1)]
        if int_rank(rows, d) == d:
            return rows


# Two maps of Z^2 into Z^3 whose first two rows have determinant 2; x_0, x_1
# are the pivot coordinates of their images.  Under the first, a point of the
# pivot box lifts to an integer point only when x_1 - x_0 is even; under the
# second, the integer points of the image's span include points such as
# (1, 2, 1) that are not images of integer points.
NON_UNIMODULAR = (((1, 0), (1, 2), (0, 1)), ((1, 0), (1, 2), (0, 2)))


@st.composite
def lattice_point_sets(draw):
    """(points in Z^d, None) with d <= 3, or (points in Z^d, map) with d <= 2
    and a seeded injective integer map that pushes them into Z^(d + 1)."""
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d + 1, max_size=8))
    if d == 3 or draw(st.booleans()):
        return pts, None
    return pts, injective_map(draw(st.integers(0, 2**16)), d)


@settings(max_examples=60, deadline=None)
@given(lattice_point_sets())
@example(([(0, 0), (2, 0), (0, 2)], NON_UNIMODULAR[0]))
@example(([(0, 0), (2, 0), (0, 2)], NON_UNIMODULAR[1]))
def test_lattice_points_match_box_scan(case):
    pts, amap = case
    if amap:
        pts = [tuple(sum(a * x for a, x in zip(row, p)) for row in amap) for p in pts]
    poly = polytope_from_columns(pts)
    d = len(pts[0])
    box = itertools.product(
        *(range(min(p[i] for p in pts), max(p[i] for p in pts) + 1) for i in range(d))
    )
    if amap:
        # membership keeps its own span test
        want = [x for x in box if poly.contains_point(x)]
    else:
        assume(poly.dim == d)
        # facets of the ambient set itself, from the oracle
        facets = facets_oracle(list(dict.fromkeys(pts)), d)
        want = [
            x for x in box if all(sum(a * b for a, b in zip(n, x)) >= c for n, c, _ in facets)
        ]
    assert poly.lattice_points() == want


def test_lattice_points_of_a_tilted_triangle():
    poly = polytope_from_columns([(0, 0, 1), (2, 0, 1), (0, 2, 1)])
    assert poly.lattice_points() == [
        (0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1)
    ]


def test_lattice_scan_sets_up_hull_data_once(monkeypatch):
    calls = []
    real = polytope._hull_basis

    def counting(points):
        calls.append(points)
        return real(points)

    monkeypatch.setattr(polytope, "_hull_basis", counting)
    poly = polytope_from_columns([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
    assert len(poly.lattice_points()) == 20
    assert len(calls) == 1  # the scan reads the hull's own basis


# ---------------------------------------------------------------------------
# membership against an independent reference


def solve_exact(vectors, target):
    """Rational mu with sum(mu_l * vectors[l]) == target, or None.

    *vectors* are linearly independent; plain Fraction Gauss-Jordan.
    """
    n = len(vectors)
    eqs = [[Fraction(v[c]) for v in vectors] + [Fraction(t)] for c, t in enumerate(target)]
    for col in range(n):
        r = next(r for r in range(col, len(eqs)) if eqs[r][col])
        eqs[col], eqs[r] = eqs[r], eqs[col]
        eqs[col] = [x / eqs[col][col] for x in eqs[col]]
        for r, row in enumerate(eqs):
            if r != col and row[col]:
                eqs[r] = [a - row[col] * b for a, b in zip(row, eqs[col])]
    if any(row[-1] for row in eqs[n:]):
        return None
    return [eqs[i][-1] for i in range(n)]


def diff(p, q):
    return tuple(a - b for a, b in zip(p, q))


def reference_membership(poly):
    """Membership from the oracle's facets and an exact affine-hull solve.

    Pivot coordinates are affine in the ambient ones, so a point x of the
    hull maps to the same combination of the points' pivot coordinates as
    of their ambient ones, taken over an affinely independent subset.
    """
    amb, red = poly.ambient_points, poly.points
    basis = []
    for i in range(1, len(amb)):
        if int_rank([diff(amb[j], amb[0]) for j in basis + [i]]) > len(basis):
            basis.append(i)
    vectors = [diff(amb[i], amb[0]) for i in basis]
    facets = facets_oracle(red, poly.dim)

    def contains(x):
        mu = solve_exact(vectors, diff(x, amb[0]))
        if mu is None:
            return False
        y = [red[0][c] + sum(m * (red[i][c] - red[0][c]) for m, i in zip(mu, basis))
             for c in range(poly.dim)]
        return all(sum(a * b for a, b in zip(n, y)) >= offset for n, offset, _ in facets)

    return contains


def probe_points(poly, limit=16000, sample=1500):
    """Every point of the bounding box widened by one, when it has at most
    *limit* points; else the input points, their unit-step neighbours and a
    seeded sample of the box.  Then midpoints and thirds of input pairs and
    of input points with probes, as Fractions."""
    amb = poly.ambient_points
    d = len(amb[0])
    ranges = [range(min(p[c] for p in amb) - 1, max(p[c] for p in amb) + 2) for c in range(d)]
    if prod(map(len, ranges)) <= limit:
        probes = list(itertools.product(*ranges))
    else:
        rng = random.Random(0)
        probes = list(amb) + [(0,) * d]
        probes += [p[:c] + (p[c] + s,) + p[c + 1 :] for p in amb for c in range(d) for s in (-1, 1)]
        probes += [tuple(rng.choice(r) for r in ranges) for _ in range(sample)]
    pairs = list(itertools.combinations(amb, 2)) + [(p, q) for p in amb for q in probes[:40]]
    for p, q in pairs:
        probes.append(tuple(Fraction(a + b, 2) for a, b in zip(p, q)))
        probes.append(tuple(Fraction(a + 2 * b, 3) for a, b in zip(p, q)))
    return probes


def assert_membership_matches_reference(poly, **probes):
    reference = reference_membership(poly)
    for x in probe_points(poly, **probes):
        assert poly.contains_point(x) == reference(x), x


@pytest.mark.parametrize(
    "parts",
    [p.parts for n in range(1, 5) for p in partitions_of(n)],
    ids=str,
)
def test_membership_matches_reference_on_specht_shapes(parts):
    assert_membership_matches_reference(column_polytope(parts))


def test_membership_matches_reference_on_a_point():
    poly = polytope_from_columns([(3, -1, 2)])
    assert poly.dim == 0
    assert_membership_matches_reference(poly)
    assert poly.contains_point((Fraction(6, 2), -1, 2))
    assert not poly.contains_point((Fraction(7, 2), -1, 2))


@settings(max_examples=60, deadline=None)
@given(point_sets())
def test_membership_matches_reference_on_random_point_sets(pts):
    assert_membership_matches_reference(polytope_from_columns(pts), limit=400, sample=200)


def test_membership_is_exact_and_refuses_other_types():
    square = polytope_from_columns([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert square.contains_point((Fraction(1, 2), Fraction(1, 2), 1))
    assert square.contains_point((Fraction(1, 3), 1, Fraction(3, 3)))
    assert not square.contains_point((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert not square.contains_point((Fraction(-1, 10**9), 0, 1))
    for bad in ((0.5, 0.5, 1), (0, 0, True), ("0", 0, 1), (0, 0, 1.0)):
        with pytest.raises(DomainError):
            square.contains_point(bad)
    with pytest.raises(DomainError):
        square.contains_point((0, 0))


# ---------------------------------------------------------------------------
# the face walk against intersection closure


def reference_faces(poly):
    """Faces from the oracle's facet point sets, closed under intersection
    and cut down to the vertices, with f-vector counts from affine_rank."""
    verts = frozenset(poly.vertex_indices)
    faces = {verts, frozenset()}
    frontier = [tight & verts for _, _, tight in facets_oracle(poly.points, poly.dim)]
    while frontier:
        faces.update(frontier)
        frontier = list({a & b for a in frontier for b in faces} - faces)
    fvec = [0] * (poly.dim + 2)
    for face in faces:
        fvec[affine_rank([poly.points[i] for i in face]) + 1] += 1
    return sorted(faces, key=lambda s: (len(s), sorted(s))), fvec


def assert_faces_match_reference(poly):
    faces, fvec = reference_faces(poly)
    assert poly.face_lattice() == faces
    assert poly.f_vector() == fvec


@pytest.mark.parametrize(
    "parts",
    [p.parts for n in range(1, 5) for p in partitions_of(n)],
    ids=str,
)
def test_face_walk_matches_closure_on_specht_shapes(parts):
    assert_faces_match_reference(column_polytope(parts))


@pytest.mark.parametrize("k", [3, 4])
def test_face_walk_matches_closure_on_root_polytopes(k):
    assert_faces_match_reference(root_polytope(k))


def test_face_walk_matches_closure_on_a_triangle_with_edge_points():
    assert_faces_match_reference(polytope_from_columns([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)]))


@settings(max_examples=100, deadline=None)
@given(point_sets())
def test_face_walk_matches_closure_on_random_point_sets(pts):
    assert_faces_match_reference(polytope_from_columns(pts))


def test_face_lattice_holds_vertex_sets_only():
    # (1, 0) sits on an edge and (1, 1) on the hypotenuse: neither is a vertex
    poly = polytope_from_columns([(0, 0), (2, 0), (0, 2), (1, 0), (1, 1)])
    assert poly.vertex_indices == (0, 1, 2)
    assert poly.face_lattice() == [
        frozenset(s) for s in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
    ]
    assert poly.f_vector() == [1, 3, 3, 1]


# ---------------------------------------------------------------------------
# the depth-first face walk against the level walk


def assert_faces_match_levels(poly):
    verts = set(poly.vertex_indices)
    facets = [sum(1 << i for i in f.vertex_indices if i in verts) for f in poly.facets]
    levels = face_levels_oracle(sum(1 << i for i in verts), facets)
    assert poly.f_vector() == [len(level) for level in levels]
    faces = [frozenset(i for i in verts if m >> i & 1) for level in levels for m in level]
    assert poly.face_lattice() == sorted(faces, key=lambda s: (len(s), sorted(s)))


@pytest.mark.parametrize(
    "parts",
    [p.parts for n in range(1, 6) for p in partitions_of(n)],
    ids=str,
)
def test_face_walk_matches_levels_on_specht_shapes(parts):
    assert_faces_match_levels(column_polytope(parts))


@pytest.mark.parametrize("k", [3, 4, 5])
def test_face_walk_matches_levels_on_root_polytopes(k):
    assert_faces_match_levels(root_polytope(k))


@settings(max_examples=100, deadline=None)
@given(point_sets())
def test_face_walk_matches_levels_on_random_point_sets(pts):
    assert_faces_match_levels(polytope_from_columns(pts))


@pytest.mark.parametrize(
    "points,reverses",
    [
        (CUBE4, False),
        (CROSS4, True),
        (specht_matrix(Partition((3, 2))).columns(), False),
        (specht_matrix(Partition((4, 1))).columns(), True),
        (root_polytope(5).ambient_points, True),
    ],
    ids=["4-cube", "4-cross", "(3,2)", "(4,1)", "root-5"],
)
def test_face_walk_counts_agree_on_both_sides(points, reverses):
    poly = polytope_from_columns(points)
    facets, vertices = poly._incidences()
    assert (len(vertices) < len(facets)) == reverses  # the side f_vector() walks
    counts = polytope._face_counts(facets, poly.dim)
    assert polytope._face_counts(vertices, poly.dim)[::-1] == counts == poly.f_vector()


def test_f_vector_memory_is_bounded_by_the_walk_depth():
    limits = Limits(max_polytope_dim=10)
    poly = polytope_from_columns(specht_matrix(Partition((4, 1, 1)), limits).columns(), limits)
    tracemalloc.start()
    try:
        fvec = poly.f_vector()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fvec == [1, 40, 580, 4050, 15330, 33384, 42744, 31650, 12630, 2280, 120, 1]
    assert peak < 1_000_000  # a walk keeping a whole level of 42,744 faces peaks near 7 MB


N6_F_VECTORS = {
    (5, 1): ([1, 30, 120, 210, 180, 62, 1], {}),
    (3, 3): ([1, 15, 60, 80, 45, 12, 1], {}),
    (2, 2, 2): ([1, 20, 90, 120, 60, 12, 1], {}),
    (2, 2, 1, 1): (
        [1, 15, 105, 435, 1095, 1657, 1470, 735, 195, 25, 1],
        {"max_polytope_dim": 10},
    ),
    (4, 1, 1): (
        [1, 40, 580, 4050, 15330, 33384, 42744, 31650, 12630, 2280, 120, 1],
        {"max_polytope_dim": 10},
    ),
}


@pytest.mark.parametrize("parts", list(N6_F_VECTORS), ids=str)
def test_n6_f_vectors(parts):
    fvec, guards = N6_F_VECTORS[parts]
    limits = Limits(**guards)
    poly = polytope_from_columns(specht_matrix(Partition(parts), limits).columns(), limits)
    assert poly.f_vector() == fvec
    assert_euler(poly)


# ---------------------------------------------------------------------------
# double description against the brute-force oracle


def facet_point_sets(poly):
    """Each facet as the set of ambient points on it."""
    return {frozenset(poly.ambient_points[i] for i in f.vertex_indices) for f in poly.facets}


def seeded_points(seed, n, d):
    rng = random.Random(seed)
    return [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)]


@pytest.mark.parametrize(
    "points",
    [
        specht_matrix(Partition((3, 1, 1))).columns(),
        list(itertools.product((0, 1), repeat=3)),
        seeded_points(5, 14, 4),
    ],
    ids=["(3,1,1)", "3-cube", "random"],
)
def test_facets_do_not_depend_on_point_order(points):
    poly = polytope_from_columns(points)
    assert poly.dim >= 3
    want = {
        frozenset(poly.ambient_points[i] for i in tight)
        for _, _, tight in facets_oracle(poly.points, poly.dim)
    }
    for seed in range(4):
        shuffled = list(points)
        random.Random(seed).shuffle(shuffled)
        assert facet_point_sets(polytope_from_columns(shuffled)) == want


def test_facets_of_a_segment_in_space():
    poly = polytope_from_columns([(2, 2, 2), (0, 0, 0), (3, 3, 3), (1, 1, 1), (0, 0, 0)])
    assert poly.dim == 1
    assert_matches_oracle(poly)
    assert facet_point_sets(poly) == {frozenset({(0, 0, 0)}), frozenset({(3, 3, 3)})}


def test_facets_with_repeated_and_interior_points_first():
    # the starting simplex is taken from the first points, here inside P
    inner = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1)]
    cube = list(itertools.product((0, 3), repeat=3))
    poly = polytope_from_columns(inner + cube + inner)
    assert_matches_oracle(poly)
    assert sorted(poly.vertices()) == cube
    assert len(poly.facets) == 6


def test_frontier_facets_of_4_1_1():
    from spechtkit.config import Limits

    limits = Limits(max_polytope_dim=10)
    poly = polytope_from_columns(specht_matrix(Partition((4, 1, 1)), limits).columns(), limits)
    assert poly.dim == 10
    assert len(poly.facets) == 120
    for f in poly.facets:
        values = [sum(a * b for a, b in zip(f.normal, p)) for p in poly.points]
        assert min(values) == f.offset
        assert {i for i, v in enumerate(values) if v == f.offset} == f.vertex_indices
        assert affine_rank([poly.points[i] for i in f.vertex_indices]) == poly.dim - 1
