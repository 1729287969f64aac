import pytest

from spechtkit.chow import chow_graded_dimensions, chow_presentation, hilbert_series_text
from spechtkit.combinatorics import Partition, Permutation, partitions_of
from spechtkit.matroid import LinearMatroid, specht_matroid
from spechtkit.oracles import chow_dims_quotient_oracle, fy_basis_monomials

TABLE_DIMS = {
    (4,): [1],
    (3, 1): [1, 8, 1],
    (2, 2): [1, 1],
    (2, 1, 1): [1, 7, 1],
    (1, 1, 1, 1): [1],
    (4, 1): [1, 41, 41, 1],
    (3, 2): [1, 256, 1026, 256, 1],
    (2, 2, 1): [1, 151, 541, 151, 1],
    (2, 1, 1, 1): [1, 21, 21, 1],
    (1, 1, 1, 1, 1): [1],
}


def test_presentation_generators_and_relation_counts(x_matroid):
    pres = chow_presentation(x_matroid)
    assert len(pres.generators) == 16  # 6 points and 10 lines
    assert len(pres.quadratic_relations) == 98
    assert len(pres.linear_relations) == 5


def test_presentation_point_line_products(x_matroid):
    # the 38 products of a point with a line not through it
    pres = chow_presentation(x_matroid)
    point_line = [
        (a, b)
        for a, b in pres.quadratic_relations
        if min(len(a), len(b)) == 1 and max(len(a), len(b)) > 1
    ]
    assert len(point_line) == 38
    for a, b in point_line:
        small, large = (a, b) if len(a) < len(b) else (b, a)
        assert not small <= large


def test_presentation_linear_relations_balance(x_matroid):
    pres = chow_presentation(x_matroid)
    for rel in pres.linear_relations:
        assert rel["plus"] and rel["minus"]
        assert set(rel["plus"]) != set(rel["minus"])
        for f in rel["plus"] + rel["minus"]:
            assert f in pres.generators


def test_macaulay2_rendering():
    m = specht_matroid(Partition((2, 2)))
    text = chow_presentation(m).to_macaulay2()
    lines = text.splitlines()
    assert lines[0].startswith("R = QQ[x_")
    assert lines[1].startswith("I = ideal(")
    assert lines[2] == "A = R/I;"
    assert "x_1122_2211" in lines[0]


def test_x_matroid_hilbert_series(x_matroid):
    dims = chow_graded_dimensions(x_matroid)
    assert dims == [1, 11, 1]
    assert hilbert_series_text(dims) == "1+11T+T^2"


def test_hilbert_series_rendering():
    assert hilbert_series_text([1]) == "1"
    assert hilbert_series_text([1, 1, 2]) == "1+T+2T^2"
    assert hilbert_series_text([]) == "0"


@pytest.mark.parametrize(
    "parts,dims", sorted(TABLE_DIMS.items()), ids=[str(p) for p, _ in sorted(TABLE_DIMS.items())]
)
def test_pairing_matroid_graded_dimensions(parts, dims):
    assert chow_graded_dimensions(specht_matroid(Partition(parts))) == dims


# shapes past the quotient-ring oracle (which stops near 30 flats): values
# pinned from the unpacked chain DP, each palindromic, with
# dims[1] = #flats - 2 - (#rank-1 flats - 1)
FRONTIER_DIMS = {
    (2, 2, 1, 1): [1, 10084, 674892, 5950860, 11813632, 5950860, 674892, 10084, 1],
    (3, 1, 1, 1): [1, 13651, 1421808, 19810870, 67393126, 67393126, 19810870, 1421808, 13651, 1],
}


@pytest.mark.parametrize("parts", sorted(FRONTIER_DIMS), ids=str)
def test_frontier_graded_dimensions(parts):
    m = specht_matroid(Partition(parts))
    dims = chow_graded_dimensions(m)
    assert dims == FRONTIER_DIMS[parts]
    assert dims[1] == len(m.flats()) - 2 - (m.flat_lattice()[1].count(1) - 1)


@pytest.mark.parametrize("n", range(2, 6))
def test_graded_dimensions_are_palindromic(n):
    for p in partitions_of(n):
        dims = chow_graded_dimensions(specht_matroid(p))
        assert dims == dims[::-1]


def test_graded_dimensions_match_quotient_ring_rank(x_matroid):
    small = [
        x_matroid,
        specht_matroid(Partition((2, 2))),
        specht_matroid(Partition((2, 1, 1))),
        specht_matroid(Partition((2, 1, 1, 1))),
        LinearMatroid(("a", "b", "c"), ((1, 0), (0, 1), (1, 1))),
    ]
    for m in small:
        assert chow_graded_dimensions(m) == chow_dims_quotient_oracle(m)


def test_basis_monomials_count_matches_dimensions(x_matroid):
    for m in [x_matroid, specht_matroid(Partition((2, 1, 1)))]:
        dims = chow_graded_dimensions(m)
        for d, c in enumerate(dims):
            monos = fy_basis_monomials(m, d)
            assert len(monos) == c
            for mono in monos:
                total = sum(e for _, e in mono)
                assert total == d
                flats = [f for f, _ in mono]
                for a, b in zip(flats, flats[1:]):
                    assert a < b


@pytest.mark.parametrize(
    "lam", [p for n in range(2, 6) for p in partitions_of(n)], ids=str
)
def test_fixed_flat_dp_counts_the_listed_monomials_a_symmetry_fixes(lam):
    m = specht_matroid(lam)
    n = lam.n
    dims = chow_graded_dimensions(m)
    masks = m.flat_lattice()[0]
    assert chow_graded_dimensions(m, fixed=(1 << len(masks)) - 1) == dims
    monomials = fy_basis_monomials(m)
    assert len(monomials) == sum(dims)
    flats = [m._labels_of(x) for x in masks]
    long_cycle = Permutation(tuple(range(2, n + 1)) + (1,))
    swap = Permutation((2, 1) + tuple(range(3, n + 1)))
    for perm in (long_cycle, swap):
        image = {w: perm.apply(w) for w in m.labels}

        def act(flat):
            return frozenset(map(image.__getitem__, flat))

        fixed = sum(1 << i for i, f in enumerate(flats) if act(f) == f)
        want = [0] * len(dims)
        for mono in monomials:
            if tuple((act(f), d) for f, d in mono) == mono:
                want[sum(d for _, d in mono)] += 1
        assert chow_graded_dimensions(m, fixed=fixed) == want, (lam, perm)


def test_rank_zero_and_one_matroids():
    loop_only = LinearMatroid(("a",), ((0,),))
    assert chow_graded_dimensions(loop_only) == [1]
    point = LinearMatroid(("a",), ((1,),))
    assert chow_graded_dimensions(point) == [1]


# a zero column (the loop 0) in front of a loopless configuration
LOOPED = {
    "plane": ([(0, 0), (1, 0), (0, 1)], [1, 1]),
    "four-points": ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], [1, 7, 1]),
}


@pytest.mark.parametrize("case", sorted(LOOPED))
def test_loops_are_not_generators(case):
    cols, dims = LOOPED[case]
    m = LinearMatroid(tuple(range(len(cols))), cols)
    loopless = LinearMatroid(tuple(range(1, len(cols))), cols[1:])
    pres = chow_presentation(m)
    bare = chow_presentation(loopless)
    # the loop lies in every flat and changes nothing else
    assert [f - {0} for f in pres.generators] == list(bare.generators)
    assert len(pres.quadratic_relations) == len(bare.quadratic_relations)
    assert len(pres.linear_relations) == len(bare.linear_relations)
    assert chow_graded_dimensions(m) == chow_graded_dimensions(loopless) == dims
    assert chow_dims_quotient_oracle(m) == dims
