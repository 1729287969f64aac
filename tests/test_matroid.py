import itertools
import random
import tracemalloc
from math import comb

import pytest

from spechtkit.chow import chow_graded_dimensions, hilbert_series_text
from spechtkit.cli import main
from spechtkit.combinatorics import (
    Partition,
    all_permutations,
    partitions_of,
    rearrangement_count,
    word_from_text,
)
from spechtkit.config import Limits
from spechtkit.errors import DomainError, ResourceLimitError
from spechtkit.linalg import _normalize
from spechtkit.matroid import (
    LinearMatroid,
    _drop,
    format_poly1,
    format_poly2,
    poly1_to_json,
    poly2_to_json,
    specht_matroid,
)
from spechtkit import specht
from spechtkit.specht import specht_matrix
from spechtkit.oracles import (
    characteristic_from_tutte,
    chow_dims_quotient_oracle,
    flats_oracle,
    tutte_deletion_contraction_oracle,
)

W = word_from_text


def test_labels_must_match_columns():
    with pytest.raises(DomainError):
        LinearMatroid((0, 1), ((1, 0),))
    with pytest.raises(DomainError):
        LinearMatroid((0, 0), ((1, 0), (0, 1)))
    with pytest.raises(DomainError):
        LinearMatroid((0, 1), ((1, 0), (0, 1, 0)))


def test_specht_matroid_honours_limits():
    p = Partition((4, 2))
    # the guard holds whether or not the pairing matrix is already built
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            specht_matroid(p)
        m = specht_matroid(p, Limits(max_ground=500))
        assert m.size == 180
        assert m.limits.max_ground == 500


def test_specht_matroid_refuses_before_building_the_row_basis(monkeypatch):
    monkeypatch.setattr(specht, "_cache", {})
    p = Partition((5, 4))
    message = r"^max_ground: requested 22680 exceeds limit 128$"
    with pytest.raises(ResourceLimitError, match=message):
        specht_matroid(p)
    assert "row_basis" not in vars(specht_matrix(p))


def closure(m, subset):
    """The least flat of *m* that contains *subset*."""
    return min((f for f in m.flats() if f >= set(subset)), key=len)


def test_rank_and_closure(x_matroid):
    m = x_matroid
    assert m.rank() == 3
    assert m.rank([0]) == 1
    assert m.rank([]) == 0
    assert closure(m, [0, 1]) == frozenset({0, 1, 3, 4})
    assert closure(m, []) == frozenset()
    with pytest.raises(DomainError):
        m.rank([99])


def test_x_matroid_flats(x_matroid):
    flats = [sorted(f) for f in x_matroid.flats()]
    expected = [
        [],
        [0],
        [1],
        [2],
        [3],
        [4],
        [5],
        [0, 2],
        [0, 5],
        [1, 2],
        [1, 5],
        [2, 3],
        [2, 4],
        [2, 5],
        [3, 5],
        [4, 5],
        [0, 1, 3, 4],
        [0, 1, 2, 3, 4, 5],
    ]
    assert sorted(flats) == sorted(expected)
    assert len(x_matroid.flats(rank=1)) == 6
    assert len([f for f in x_matroid.flats() if 0 < len(f) < x_matroid.size]) == 16


def test_closure_and_flats_with_loops():
    m = LinearMatroid("abcd", ((0, 0, 0), (1, 2, 0), (2, 4, 0), (0, 0, 0)))
    assert m.flats()[0] == {"a", "d"}  # the loops
    assert closure(m, []) == {"a", "d"}
    assert closure(m, ["b"]) == {"a", "b", "c", "d"}
    assert [sorted(f) for f in m.flats()] == [["a", "d"], ["a", "b", "c", "d"]]
    assert [sorted(f) for f in m.flats() if 0 < len(f) < m.size] == [["a", "d"]]


SHAPES = [p for n in range(1, 6) for p in partitions_of(n)]


@pytest.mark.parametrize("p", SHAPES, ids=[str(p.parts) for p in SHAPES])
def test_flats_match_oracle_on_specht_shapes(p):
    m = specht_matroid(p)
    masks = m._flat_masks()
    flats = {frozenset(i for i in range(m.size) if x >> i & 1) for x in masks}
    assert flats == flats_oracle(m.columns)
    assert masks == sorted(masks, key=lambda x: (m._rank_mask(x), x))
    assert all(m._flat_ranks[x] == m._rank_mask(x) for x in masks)


# every shape with n <= 5, two at n = 6, and the hooks of Conjecture 2
ROW_BASIS_SHAPES = SHAPES + [
    Partition(parts) for parts in [(2, 2, 1, 1), (3, 1, 1, 1)]
] + [Partition((2,) + (1,) * (n - 2)) for n in range(6, 9)]


@pytest.mark.parametrize(
    "p", ROW_BASIS_SHAPES, ids=[str(p.parts) for p in ROW_BASIS_SHAPES]
)
def test_specht_matroid_on_the_row_basis_equals_the_full_columns(p):
    m = specht_matroid(p)
    mat = specht_matrix(p)
    full = LinearMatroid(mat.col_labels, mat.columns())
    assert m.labels == full.labels
    assert len(m.columns[0]) == len(mat.row_basis) == p.dimension()
    assert m.flat_lattice() == full.flat_lattice()
    assert m.tutte_polynomial() == full.tutte_polynomial()
    assert chow_graded_dimensions(m) == chow_graded_dimensions(full)


def test_flat_count_of_3_1_1_1():
    m = specht_matroid(Partition((3, 1, 1, 1)))
    assert (m.size, m.rank()) == (30, 10)
    assert len(m.flats()) == 13667


def test_flat_guard_refuses_as_the_lattice_grows():
    p = Partition((3, 1, 1))
    assert len(specht_matroid(p, Limits(max_flats=314)).flats()) == 314
    m = specht_matroid(p, Limits(max_flats=100))
    # the 101st flat found is refused, before the rest of the lattice
    with pytest.raises(ResourceLimitError, match="max_flats: requested 101 exceeds limit 100"):
        m.flats()
    for lattice_reader in (m.characteristic_polynomial, lambda: chow_graded_dimensions(m)):
        with pytest.raises(ResourceLimitError, match="max_flats"):
            lattice_reader()


def test_refused_lattice_holds_two_levels_of_dicts():
    # the bound of the _flat_masks docstring: only the levels being expanded
    # and below hold residue dicts, never the level being counted
    m = specht_matroid(Partition((3, 2, 1, 1)))
    tracemalloc.start()
    try:
        with pytest.raises(
            ResourceLimitError, match="max_flats: requested 100001 exceeds limit 100000"
        ):
            chow_graded_dimensions(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20  # about 71 MiB


def boolean_matroid(n, limits=Limits(), scales=(1,), loops=0):
    """B_n: the identity columns, each repeated at every scale in *scales*
    (a parallel class), then *loops* zero columns."""
    cols = [tuple(s * (i == j) for j in range(n)) for i in range(n) for s in scales]
    cols += [(0,) * n] * loops
    return LinearMatroid(tuple(range(len(cols))), cols, limits)


def eulerian(n):
    """The Eulerian numbers A(n, k), k = 0 .. n - 1."""
    return [sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1)) for k in range(n)]


def test_flat_guard_counts_the_hyperplanes():
    # B_8 has 247 flats below rank 7, so the 251st flat found is a hyperplane,
    # at rank r - 1, a level that is counted but never expanded
    m = boolean_matroid(8, Limits(max_flats=250))
    with pytest.raises(ResourceLimitError, match="max_flats: requested 251 exceeds limit 250"):
        m.flats()
    assert len(boolean_matroid(8, Limits(max_flats=256)).flats()) == 256


def test_flat_guard_counts_the_top():
    # B_3 has 8 flats, and the top is found last, above the hyperplanes
    with pytest.raises(ResourceLimitError, match="max_flats: requested 8 exceeds limit 7"):
        boolean_matroid(3, Limits(max_flats=7)).flats()
    assert len(boolean_matroid(3, Limits(max_flats=8)).flats()) == 8
    assert len(LinearMatroid("ab", [(0,), (0,)], Limits(max_flats=1)).flats()) == 1


def check_lattice(m):
    """The lattice equals the oracle's flats, in (rank, mask) order, with the
    ranks of ``_rank_mask`` and the strict order ideals as down-sets, and ends
    at the ground set, loops included."""
    masks, ranks, below = m.flat_lattice()
    assert {frozenset(i for i in range(m.size) if x >> i & 1) for x in masks} == flats_oracle(
        m.columns
    )
    assert ranks == [m._rank_mask(x) for x in masks]
    assert masks == sorted(masks, key=lambda x: (m._rank_mask(x), x))
    for i, f in enumerate(masks):
        assert below[i] == sum(1 << j for j, g in enumerate(masks) if g != f and g & f == g)
    assert (masks[-1], ranks[-1]) == ((1 << m.size) - 1, m.rank())
    assert masks[0] == m._loop_mask()


def moment_curve(r, n):
    """n points (1, t, ..., t^(r-1)) with distinct t: any r are independent."""
    return [tuple(t**k for k in range(r)) for t in range(1, n + 1)]


# columns around the rank r - 1 boundary: a flat of rank r - 1 has the ground
# set as its one cover, so it is not expanded
RANK_BOUNDARY_CASES = {
    "empty": [],
    "rank 0, every column a loop": [(0, 0)] * 3,
    "rank 0, no coordinates": [()] * 2,
    "rank 1": [(2, 4), (-1, -2), (3, 6)],
    "rank 1 with loops": [(0, 0), (2, 4), (0, 0), (-1, -2)],
    "rank 2 with parallel classes": [(1, 0), (2, 0), (0, 1), (0, -3), (1, 1), (-2, -2), (1, 2)],
    "rank 3 with loops": [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0), (0, 0, 1), (1, 1, 1)],
    "rank 3, hyperplanes of whole classes": [
        tuple(s * x for x in col) for col in moment_curve(3, 5) for s in (1, -2)
    ] + [(0, 0, 0)],
    "rank 4 with classes and loops": [(0,) * 4]
    + [tuple(s * x for x in col) for col in moment_curve(4, 6) for s in (1, 3)]
    + [(1, 0, 0, 0), (0, 0, 0, 0), (2, 0, 0, 0)],
    "rank 5 in general position": moment_curve(5, 9),
}


@pytest.mark.parametrize("cols", RANK_BOUNDARY_CASES.values(), ids=list(RANK_BOUNDARY_CASES))
def test_lattice_at_the_rank_r_minus_1_boundary(cols):
    m = LinearMatroid(tuple(range(len(cols))), cols)
    check_lattice(m)
    assert m.tutte_polynomial("flats") == tutte_deletion_contraction_oracle(cols)


@pytest.mark.parametrize("n", range(1, 8))
def test_boolean_matroid_lattice_in_closed_form(n):
    assert eulerian(4) == [1, 11, 11, 1] and eulerian(7) == [1, 120, 1191, 2416, 1191, 120, 1]
    m = boolean_matroid(n)
    assert len(m.flats()) == 2**n
    assert chow_graded_dimensions(m) == eulerian(n)
    assert m.tutte_polynomial("flats") == {(n, 0): 1}
    assert m.characteristic_polynomial() == {k: comb(n, k) * (-1) ** (n - k) for k in range(n + 1)}


@pytest.mark.parametrize("n", range(1, 8))
def test_parallel_classes_and_a_loop_keep_the_boolean_lattice(n):
    m = boolean_matroid(n, scales=(1, -1, 2, -2), loops=1)
    assert len(m.flats()) == 2**n
    assert chow_graded_dimensions(m) == eulerian(n)
    assert m.characteristic_polynomial() == {}
    tutte = m.tutte_polynomial("flats")
    assert sum(tutte.values()) == 4**n  # T(1, 1): a basis picks one column per class
    assert tutte == tutte_deletion_contraction_oracle(m.columns)


def test_subset_tutte_keeps_no_per_subset_state():
    # 14 points on the moment curve: the uniform matroid U(4, 14)
    m = LinearMatroid(tuple(range(14)), [(1, t, t * t, t**3) for t in range(1, 15)])

    def state():
        return {k: len(v) if hasattr(v, "__len__") else v for k, v in vars(m).items()}

    before = state()
    t = m.tutte_polynomial("subsets")
    assert state() == before
    assert all(v is None or not hasattr(v, "__len__") or len(v) <= 14 for v in vars(m).values())
    assert sum(c * 2**i * 2**j for (i, j), c in t.items()) == 2**14
    assert t == m.tutte_polynomial("flats")


def uniform_tutte(r, n):
    """T(U(r, n)) = sum_{k<r} C(n,k) (x-1)^(r-k) + sum_{k>=r} C(n,k) (y-1)^(k-r),
    expanded into {(i, j): coefficient of x^i y^j}."""
    out: dict[tuple[int, int], int] = {}
    for k in range(n + 1):
        e = abs(r - k)
        for i in range(e + 1):
            key = (i, 0) if k < r else (0, i)
            out[key] = out.get(key, 0) + comb(n, k) * comb(e, i) * (-1) ** (e - i)
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("r, n", [(1, 1), (1, 5), (2, 2), (2, 6), (3, 3), (3, 8), (4, 9), (5, 11), (6, 12)])
def test_subset_tutte_of_uniform_matroids_in_closed_form(r, n):
    assert uniform_tutte(2, 4) == {(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1}
    m = LinearMatroid(tuple(range(n)), moment_curve(r, n))
    assert m.rank() == r
    assert m.tutte_polynomial("subsets") == uniform_tutte(r, n)


# columns whose spans of rank r - 1 hold further columns: parallel classes,
# loops and columns in a common hyperplane
CROWDED_CASES = {
    "rank 0": [(0, 0, 0)] * 4,
    "empty": [],
    "rank 1": [(1,), (0,), (-3,), (2,), (0,)],
    "rank 1, the root at rank r - 1": [(0, 0), (1, 2), (2, 4), (0, 0), (-1, -2)],
    "rank 2": [(1, 0), (0, 0), (2, 0), (0, 1), (0, 5), (1, 1), (-1, -1), (0, 0)],
    "rank 3": [
        (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 0), (3, 3, 0), (0, 0, 0),
        (0, 0, 1), (0, 0, 0), (1, 1, 1), (-1, -1, -1), (1, 0, 1),
    ],
    "rank 4": [(0, 0, 0, 0)]
    + [tuple(s * x for x in col) for col in moment_curve(4, 4) for s in (1, -1, 2)]
    + [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)],
}


@pytest.mark.parametrize("cols", CROWDED_CASES.values(), ids=list(CROWDED_CASES))
def test_subset_tutte_with_columns_inside_the_hyperplanes(cols):
    m = LinearMatroid(tuple(range(len(cols))), cols)
    t = m.tutte_polynomial("subsets")
    assert t == tutte_deletion_contraction_oracle(cols)
    assert t == m.tutte_polynomial("flats")
    assert sum(c * 2**i * 2**j for (i, j), c in t.items()) == 2 ** len(cols)  # T(2, 2)


def seeded_columns(rng, bound=2):
    """At most 10 integer columns of rank at most 5: loops, columns parallel
    to earlier ones at negative and non-unit multiples, and the images of
    0/±1 vectors under one integer map with entries in [-bound, bound], so
    that spans often hold later columns."""
    r = rng.randint(0, 5)
    cols = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.1:
            cols.append((0,) * r)
        elif kind < 0.4 and cols:
            scale = rng.choice((-3, -2, -1, 2, 3))
            cols.append(tuple(scale * x for x in rng.choice(cols)))
        else:
            cols.append(tuple(rng.choice((-1, 0, 0, 1)) for _ in range(r)))
    amap = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(r + 1)]
    return [tuple(sum(a * x for a, x in zip(row, c)) for row in amap) for c in cols]


@pytest.mark.parametrize("seed", range(8))
def test_subset_tutte_on_seeded_matroids(seed):
    rng = random.Random(seed)
    bound = 2**80 if seed % 2 else 2  # odd seeds: entries past 2^64
    for _ in range(40):
        cols = seeded_columns(rng, bound)
        m = LinearMatroid(tuple(range(len(cols))), cols)
        t = m.tutte_polynomial("subsets")
        assert t == tutte_deletion_contraction_oracle(cols), cols
        assert t == m.tutte_polynomial("flats"), cols
        check_lattice(m)


def eliminate(res, piv):
    """The generic step: p*res - c*piv, piv's lead coordinate dropped,
    normalised."""
    col = next(j for j, x in enumerate(piv) if x)
    p, c = piv[col], res[col]
    row = [p * a - c * b for a, b in zip(res, piv)]
    del row[col]
    return _normalize(row)


@pytest.mark.parametrize("seed", range(4))
def test_residue_step_is_the_generic_elimination(seed):
    rng = random.Random(seed)

    def residue(n, bound):
        while True:
            row = _normalize([rng.choice((0, rng.randint(-bound, bound))) for _ in range(n)])
            if row is not None:
                return row

    for _ in range(1000):
        n, bound = rng.randint(2, 6), rng.choice((1, 5, 2**80))
        piv = residue(n, bound)
        kind = rng.random()
        if kind < 0.2:  # res = k * piv, normalised
            res = _normalize([rng.choice((-1, 1)) * rng.randint(1, bound) * x for x in piv])
        elif kind < 0.4:  # res zero at piv's lead
            col = next(j for j, x in enumerate(piv) if x)
            res = residue(n, bound)
            res = _normalize(res[:col] + (0,) + res[col + 1 :]) or res
        else:
            res = residue(n, bound)
        parallel = all(res[i] * piv[j] == res[j] * piv[i] for i, j in itertools.combinations(range(n), 2))
        got = _drop(res, piv)
        assert got == eliminate(res, piv), (res, piv)
        assert (got is None) == parallel, (res, piv)
        assert got is None or (type(got) is tuple and len(got) == n - 1)


def test_subset_tutte_of_parallel_classes_in_closed_form():
    # 4 independent classes of 8 equal columns: each class is U(1, 8), with
    # T = x + y + ... + y^7, and a direct sum multiplies Tutte polynomials
    cols = [tuple(int(i == k) for i in range(4)) for k in range(4) for _ in range(8)]
    m = LinearMatroid(tuple(range(32)), cols, Limits(tutte_subset_limit=32))
    factor = {(1, 0): 1, **{(0, j): 1 for j in range(1, 8)}}
    want = {(0, 0): 1}
    for _ in range(4):
        out: dict[tuple[int, int], int] = {}
        for (a, b), c in want.items():
            for (i, j), d in factor.items():
                out[(a + i, b + j)] = out.get((a + i, b + j), 0) + c * d
        want = out
    assert m.tutte_polynomial("subsets") == want


def test_x_matroid_polynomials(x_matroid):
    assert (
        format_poly2(x_matroid.tutte_polynomial())
        == "x^3 + x*y^2 + y^3 + 3*x^2 + 2*x*y + 2*y^2 + 3*x + 3*y"
    )
    assert format_poly1(x_matroid.characteristic_polynomial()) == "t^3 - 6*t^2 + 12*t - 7"


# (polynomial, text, text in q, JSON items in order) on the writers' edge cases
POLY1_CASES = [
    ({}, "0", "0", []),
    ({6: 0}, "0", "0", [("t^6", 0)]),  # no nonzero term
    ({3: 1, 2: 0, 0: -1}, "t^3 - 1", "q^3 - 1", [("1", -1), ("t^2", 0), ("t^3", 1)]),
    ({0: 1}, "1", "1", [("1", 1)]),
    ({0: -1}, "-1", "-1", [("1", -1)]),
    ({1: -1, 0: 1}, "-t + 1", "-q + 1", [("1", 1), ("t", -1)]),
    ({12: 1, 10: -3, 1: 1}, "t^12 - 3*t^10 + t", "q^12 - 3*q^10 + q",
     [("t", 1), ("t^10", -3), ("t^12", 1)]),
    ({2: -1, 1: 2, 0: -3}, "-t^2 + 2*t - 3", "-q^2 + 2*q - 3",
     [("1", -3), ("t", 2), ("t^2", -1)]),
    ({4: -5}, "-5*t^4", "-5*q^4", [("t^4", -5)]),
]

POLY2_CASES = [
    ({}, "0", []),
    ({(0, 0): 1}, "1", [("1", 1)]),
    ({(0, 0): -1}, "-1", [("1", -1)]),
    ({(1, 0): -1, (0, 1): 1, (0, 0): -1}, "-x + y - 1", [("1", -1), ("y", 1), ("x", -1)]),
    ({(11, 0): 1, (0, 10): -2, (1, 12): 1}, "x*y^12 + x^11 - 2*y^10",
     [("y^10", -2), ("x*y^12", 1), ("x^11", 1)]),
    ({(2, 1): -3, (0, 0): 1}, "-3*x^2*y + 1", [("1", 1), ("x^2*y", -3)]),
]

HILBERT_CASES = [
    ([], "0", "0"),
    ([0], "0", "0"),
    ([0, 0, 0], "0", "0"),
    ([1, 0, 3], "1+3T^2", "1+3q^2"),
    ([0, 1, 0, 1], "T+T^3", "q+q^3"),
    ([2, 1, 1, 12, 0, 1, 0, 0, 0, 0, 0, 1], "2+T+T^2+12T^3+T^5+T^11", "2+q+q^2+12q^3+q^5+q^11"),
]


def test_polynomial_writers_on_their_edge_cases():
    for p, text, text_q, items in POLY1_CASES:
        assert (format_poly1(p), format_poly1(p, "q")) == (text, text_q), p
        assert list(poly1_to_json(p).items()) == items, p
    for p, text, items in POLY2_CASES:
        assert format_poly2(p) == text, p
        assert list(poly2_to_json(p).items()) == items, p
    for dims, text, text_q in HILBERT_CASES:
        assert (hilbert_series_text(dims), hilbert_series_text(dims, "q")) == (text, text_q), dims


def test_matroid_2_2_circuits_bases_flats():
    m = specht_matroid(Partition((2, 2)))
    pairs = {frozenset(c) for c in m.circuits(max_size=2)}
    assert pairs == {
        frozenset({W("1122"), W("2211")}),
        frozenset({W("1212"), W("2121")}),
        frozenset({W("1221"), W("2112")}),
    }
    # plus one circuit per transversal of the three parallel classes
    assert len(m.circuits()) == 3 + 8
    assert m.bases_count() == 12
    assert len(m.flats()) == 5  # empty, three parallel pairs, everything


def test_matroid_2_1_1_1_polynomials():
    m = specht_matroid(Partition((2, 1, 1, 1)))
    assert format_poly2(m.tutte_polynomial()) == "x^4 + x^3 + x^2 + x + y"
    assert (
        format_poly1(m.characteristic_polynomial())
        == "t^4 - 5*t^3 + 10*t^2 - 10*t + 4"
    )


def test_matroid_2_2_1_characteristic_polynomial():
    m = specht_matroid(Partition((2, 2, 1)))
    assert (
        format_poly1(m.characteristic_polynomial())
        == "t^5 - 10*t^4 + 45*t^3 - 105*t^2 + 120*t - 51"
    )


def test_tutte_strategies_agree(x_matroid):
    mats = [
        x_matroid,
        specht_matroid(Partition((2, 2))),
        specht_matroid(Partition((2, 1, 1))),
        LinearMatroid(("a", "b", "c"), ((1, 0), (0, 1), (0, 0))),
    ]
    for m in mats:
        subsets = m.tutte_polynomial("subsets")
        assert tutte_deletion_contraction_oracle(m.columns) == subsets
        assert m.tutte_polynomial("flats") == subsets


def test_deletion_contraction_is_not_a_strategy(x_matroid, capsys, x_matrix_file):
    with pytest.raises(DomainError):
        x_matroid.tutte_polynomial("deletion-contraction")
    assert main(["matroid", "tutte", "--matrix", x_matrix_file, "--strategy", "deletion-contraction"]) == 2
    assert "unknown tutte strategy" in capsys.readouterr().err


def check_lattice_paths(m):
    """Every lattice consumer against the subset walk or an oracle."""
    subsets = m.tutte_polynomial("subsets")
    assert m.characteristic_polynomial() == characteristic_from_tutte(subsets, m.rank())
    assert m.tutte_polynomial("flats") == subsets
    assert tutte_deletion_contraction_oracle(m.columns) == subsets
    if len(m.flats()) <= 30:  # the quotient-ring oracle is exponential in the flats
        assert chow_graded_dimensions(m) == chow_dims_quotient_oracle(m)


# the Specht matroids with at most 20 columns, up to n = 6 (the columns are
# the rearrangements of the column word)
SMALL_SHAPES = [
    p for n in range(1, 7) for p in partitions_of(n) if rearrangement_count(p.canonical_words()[1]) <= 20
]


@pytest.mark.parametrize("p", SMALL_SHAPES, ids=[str(p.parts) for p in SMALL_SHAPES])
def test_lattice_paths_agree_on_small_specht_shapes(p):
    check_lattice_paths(specht_matroid(p))


def test_lattice_paths_agree_on_the_x_matroid(x_matroid):
    check_lattice_paths(x_matroid)


def test_down_sets_are_the_strict_order_ideals():
    m = specht_matroid(Partition((3, 1, 1)))
    masks, ranks, below = m.flat_lattice()
    assert masks == m._flat_masks() and ranks == [m._flat_ranks[x] for x in masks]
    for i, f in enumerate(masks):
        expect = sum(1 << j for j, g in enumerate(masks) if g != f and g & f == g)
        assert below[i] == expect


def test_tutte_specializations(x_matroid):
    for m in [x_matroid, specht_matroid(Partition((2, 2)))]:
        t = m.tutte_polynomial()
        assert m.bases_count() == sum(t.values())  # T(1, 1)
        assert sum(c * 2**i * 2**j for (i, j), c in t.items()) == 2**m.size


def test_loops_and_coloops():
    m = LinearMatroid(("a", "b"), ((0, 0), (1, 0)))
    assert m.flats()[0] == {"a"}  # the loops
    assert m.tutte_polynomial() == {(1, 1): 1}
    assert {frozenset(c) for c in m.circuits()} == {frozenset({"a"})}


def conjugate_has_repeated_part(p):
    conj = p.conjugate().parts
    return len(set(conj)) < len(conj)


@pytest.mark.parametrize("n", range(2, 6))
def test_two_element_circuit_detection_matches_enumeration(n):
    for p in partitions_of(n):
        m = specht_matroid(p)
        if m.size > m.limits.max_circuit_ground:
            continue
        assert bool(m.circuits(max_size=2)) == conjugate_has_repeated_part(p)


SHAPES_TO_6 = [p for n in range(1, 7) for p in partitions_of(n)]


@pytest.mark.parametrize("p", SHAPES_TO_6, ids=str)
def test_two_element_circuit_iff_conjugate_has_repeated_part(p):
    # a parallel pair is two row-basis columns that normalise alike (v and -v
    # normalise alike); no column is zero, so there is no loop
    columns = list(zip(*specht_matrix(p).row_basis))
    keys = [_normalize(c) for c in columns]
    assert None not in keys
    assert (len(set(keys)) < len(keys)) == conjugate_has_repeated_part(p)


def test_rank_is_submodular(x_matroid):
    labels = x_matroid.labels
    subsets = [
        set(s)
        for size in range(4)
        for s in itertools.combinations(labels, size)
    ]
    for a in subsets:
        for b in subsets:
            assert x_matroid.rank(a | b) + x_matroid.rank(a & b) <= x_matroid.rank(
                a
            ) + x_matroid.rank(b)


@pytest.mark.parametrize("n", range(2, 5))
def test_flats_are_stable_under_letter_position_relabeling(n):
    for p in partitions_of(n):
        m = specht_matroid(p)
        flats = {frozenset(f) for f in m.flats()}
        for sigma in all_permutations(n):
            relabeled = {
                frozenset(sigma.apply(w) for w in f) for f in flats
            }
            assert relabeled == flats


def test_poly_json_serializers(x_matroid):
    t = poly2_to_json(x_matroid.tutte_polynomial())
    assert t["x^3"] == 1 and t["x*y^2"] == 1 and t["y"] == 3
    c = poly1_to_json(x_matroid.characteristic_polynomial())
    assert c == {"1": -7, "t": 12, "t^2": -6, "t^3": 1}


def test_format_poly_edge_cases():
    assert format_poly2({}) == "0"
    assert format_poly1({0: -1}) == "-1"
    assert format_poly1({1: 1, 0: -2}) == "t - 2"
