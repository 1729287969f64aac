"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass line when its criterion holds; any assertion
failure marks the criterion failed.  The suite is self-contained and can run
standalone: ``pytest tests/test_acceptance.py``.
"""

import itertools
from math import comb, factorial

from spechtkit.chow import chow_graded_dimensions, hilbert_series_text
from spechtkit.coefficients import (
    kronecker_coefficient,
    lr_coefficient,
    lr_matrix,
    plethysm_coefficient,
)
from spechtkit.combinatorics import (
    Partition,
    all_permutations,
    partitions_of,
    word_from_text,
)
from spechtkit.conjectures import (
    check_conjecture1,
    check_conjecture2,
    cyclic_orbit_structures,
    hook_matroid,
)
from spechtkit.matroid import (
    LinearMatroid,
    format_poly1,
    format_poly2,
    specht_matroid,
)
from spechtkit.oracles import (
    chow_dims_quotient_oracle,
    kronecker_oracle,
    lr_oracle,
    plethysm_oracle,
)
from spechtkit.polytope import polytope_from_columns, root_polytope_structure_check
from spechtkit.specht import specht_matrix, young_character

P = Partition.parse
W = word_from_text

X_ROWS = [
    [1, 0, 0, 1, 1, 1],
    [0, 1, 0, 2, 3, 4],
    [0, 0, 1, 0, 0, 1],
]
X_COLUMNS = tuple(tuple(row[j] for row in X_ROWS) for j in range(6))


def x_matroid():
    return LinearMatroid(tuple(range(6)), X_COLUMNS)


def test_criterion_1_pairing_matrix_goldens():
    mat = specht_matrix(P("2,2"))
    labels = ["1122", "1212", "1221", "2112", "2121", "2211"]
    assert [
        "".join(map(str, w)) for w in mat.row_labels
    ] == labels, "row labels must be the lex rearrangements"
    assert mat.row_labels == mat.col_labels
    assert [list(r) for r in mat.entries] == [
        [0, 1, -1, -1, 1, 0],
        [-1, 0, 1, 1, 0, -1],
        [1, -1, 0, 0, -1, 1],
        [1, -1, 0, 0, -1, 1],
        [-1, 0, 1, 1, 0, -1],
        [0, 1, -1, -1, 1, 0],
    ]

    mat = specht_matrix(P("2,1,1"))
    cols = [W("1211"), W("1121"), W("1112"), W("2111")]
    table = {
        "1123": [1, 0, 0, -1],
        "1132": [-1, 0, 0, 1],
        "1213": [0, -1, 0, 1],
        "1231": [0, 0, 1, -1],
        "1312": [0, 1, 0, -1],
        "1321": [0, 0, -1, 1],
        "2113": [-1, 1, 0, 0],
        "2131": [1, 0, -1, 0],
        "2311": [0, -1, 1, 0],
        "3112": [1, -1, 0, 0],
        "3121": [-1, 0, 1, 0],
        "3211": [0, 1, -1, 0],
    }
    for text, expect in table.items():
        assert [mat.entry(W(text), c) for c in cols] == expect
    print("criterion 1 (pairing matrix goldens): PASS")


def test_criterion_2_matroid_polynomials():
    assert (
        format_poly2(specht_matroid(P("2,1,1,1")).tutte_polynomial())
        == "x^4 + x^3 + x^2 + x + y"
    )
    charpolys = {
        "2,1,1,1": "t^4 - 5*t^3 + 10*t^2 - 10*t + 4",
        "2,2,1": "t^5 - 10*t^4 + 45*t^3 - 105*t^2 + 120*t - 51",
        "3,2": "t^5 - 15*t^4 + 90*t^3 - 260*t^2 + 350*t - 166",
    }
    for parts, expect in charpolys.items():
        m = specht_matroid(P(parts))
        assert format_poly1(m.characteristic_polynomial()) == expect, parts
    x = x_matroid()
    assert (
        format_poly2(x.tutte_polynomial())
        == "x^3 + x*y^2 + y^3 + 3*x^2 + 2*x*y + 2*y^2 + 3*x + 3*y"
    )
    assert format_poly1(x.characteristic_polynomial()) == "t^3 - 6*t^2 + 12*t - 7"
    print("criterion 2 (matroid polynomials): PASS")


def test_criterion_3_graded_dimension_table():
    table = {
        "4": [1],
        "3,1": [1, 8, 1],
        "2,2": [1, 1],
        "2,1,1": [1, 7, 1],
        "1,1,1,1": [1],
        "4,1": [1, 41, 41, 1],
        "2,2,1": [1, 151, 541, 151, 1],
        "3,2": [1, 256, 1026, 256, 1],
        "2,1,1,1": [1, 21, 21, 1],
        "3,1,1": [1, 303, 2553, 2553, 303, 1],
    }
    for parts, dims in table.items():
        assert chow_graded_dimensions(specht_matroid(P(parts))) == dims, parts

    x = x_matroid()
    dims = chow_graded_dimensions(x)
    assert hilbert_series_text(dims) == "1+11T+T^2"
    nonempty_flats = sorted(sorted(f) for f in x.flats() if f)
    assert len(nonempty_flats) == 17
    assert nonempty_flats == [
        [0],
        [0, 1, 2, 3, 4, 5],
        [0, 1, 3, 4],
        [0, 2],
        [0, 5],
        [1],
        [1, 2],
        [1, 5],
        [2],
        [2, 3],
        [2, 4],
        [2, 5],
        [3],
        [3, 5],
        [4],
        [4, 5],
        [5],
    ]
    print("criterion 3 (graded dimension table and reference example): PASS")


def test_criterion_4_near_column_hook_dimensions():
    expected = {
        2: (1,),
        3: (1, 1),
        4: (1, 7, 1),
        5: (1, 21, 21, 1),
        6: (1, 51, 161, 51, 1),
    }
    for n, dims in expected.items():
        assert tuple(chow_graded_dimensions(hook_matroid(n))) == dims, n
    print("criterion 4 (near-column hook dimension table): PASS")


def test_criterion_5_polytopes():
    f_vectors = {
        "3,1": [1, 12, 24, 14, 1],
        "2,2": [1, 3, 3, 1],
        "2,1,1": [1, 4, 6, 4, 1],
        "4,1": [1, 20, 60, 70, 30, 1],
        "3,2": [1, 15, 60, 80, 45, 12, 1],
        "3,1,1": [1, 20, 120, 290, 310, 144, 24, 1],
        "2,2,1": [1, 10, 45, 90, 75, 22, 1],
        "2,1,1,1": [1, 5, 10, 10, 5, 1],
    }
    for parts, fvec in f_vectors.items():
        cols = specht_matrix(P(parts)).columns()
        assert polytope_from_columns(cols).f_vector() == fvec, parts

    simplex = polytope_from_columns(specht_matrix(P("2,1,1")).columns())
    assert simplex.dim == 3 and simplex.n_vertices == 4
    assert simplex.f_vector() == [comb(4, i) for i in range(5)]

    for n in range(2, 6):
        for p in partitions_of(n):
            cols = specht_matrix(p).columns()
            contains = polytope_from_columns(cols).contains_origin()
            assert contains == (p.parts != (1,) * n), p

    for k in (3, 4, 5):
        rep = root_polytope_structure_check(k)
        assert rep.n_vertices == k * (k - 1), k
        assert rep.n_edges == (k - 2) * (k - 1) * k, k
        assert rep.n_facets == 2**k - 2, k
        assert rep.n_lattice_points == rep.n_vertices + 1, k
    print("criterion 5 (polytope structure): PASS")


def test_criterion_6_coefficient_ranks_match_oracles():
    mat = lr_matrix(P("2,1"), P("2,1"), P("3,2,1"))
    assert mat.rank() == 2
    assert polytope_from_columns(mat.entries.T.tolist()).dim == 2

    for n in range(1, 5):
        for lam, mu, nu in itertools.product(partitions_of(n), repeat=3):
            assert kronecker_coefficient(lam, mu, nu) == kronecker_oracle(
                lam, mu, nu
            ), (lam, mu, nu)

    for l in range(1, 5):
        for m in range(1, 5):
            if l + m > 5:
                continue
            for lam in partitions_of(l):
                for mu in partitions_of(m):
                    for nu in partitions_of(l + m):
                        assert lr_coefficient(lam, mu, nu) == lr_oracle(
                            lam, mu, nu
                        ), (lam, mu, nu)

    for l in range(1, 7):
        for m in range(1, 7):
            if l * m > 6 or factorial(l) ** m * factorial(m) > 10_000:
                continue
            for lam in partitions_of(l):
                for mu in partitions_of(m):
                    for nu in partitions_of(l * m):
                        assert plethysm_coefficient(lam, mu, nu) == plethysm_oracle(
                            lam, mu, nu
                        ), (lam, mu, nu)
    print("criterion 6 (coefficient ranks vs character oracles): PASS")


def test_criterion_7_conjecture_suites():
    for n in (2, 3, 4):
        assert check_conjecture1(n, mode="full").passed, n
    sampled = check_conjecture1(5, mode="sampled", samples=200, seed=0)
    assert sampled.passed and sampled.pairs_checked == 200

    for n in range(2, 7):
        assert check_conjecture2(n).passed, n

    conj, fy = cyclic_orbit_structures(6, 2)
    expected = {1: 1, 2: 2, 3: 4, 6: 24}
    assert conj.multiset() == expected
    assert fy.multiset() == expected
    print("criterion 7 (conjecture suites): PASS")


def test_criterion_8_property_suites():
    for n in range(1, 7):
        for p in partitions_of(n):
            assert specht_matrix(p).rank() == p.dimension(), p

    for n in range(1, 8):
        assert sum(p.dimension() ** 2 for p in partitions_of(n)) == factorial(n), n

    for n in range(1, 5):
        for p in partitions_of(n):
            r1, r2 = p.canonical_words()
            for s in all_permutations(n):
                assert young_character(r2, s.apply(r1), r2, r1) == s.sign() * (
                    young_character(s.inverse().apply(r2), r1, r2, r1)
                ), (p, s.images)

    for n in range(2, 6):
        for p in partitions_of(n):
            dims = chow_graded_dimensions(specht_matroid(p))
            assert dims == dims[::-1], p

    for n in range(2, 6):
        for p in partitions_of(n):
            fvec = polytope_from_columns(specht_matrix(p).columns()).f_vector()
            assert sum((-1) ** i * c for i, c in enumerate(fvec)) == 0, p

    small = [
        m
        for m in (
            specht_matroid(P("2,2")),
            specht_matroid(P("2,1")),
            specht_matroid(P("2,1,1")),
            specht_matroid(P("2,1,1,1")),
            x_matroid(),
        )
        if m.size <= 6
    ]
    for m in small:
        assert chow_graded_dimensions(m) == chow_dims_quotient_oracle(m)
    print("criterion 8 (property suites): PASS")
