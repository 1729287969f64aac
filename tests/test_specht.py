import pytest

from spechtkit.combinatorics import (
    Partition,
    all_permutations,
    partitions_of,
    rearrangements,
    word_from_text,
)
from spechtkit import specht
from spechtkit.config import Limits
from spechtkit.errors import DomainError, ResourceLimitError
from spechtkit.linalg import RowSpace, int_rank
from spechtkit.specht import (
    SpechtMatrix,
    specht_matrix,
    young_character,
)

W = word_from_text

GOLDEN_22_LABELS = ["1122", "1212", "1221", "2112", "2121", "2211"]
GOLDEN_22_ENTRIES = [
    [0, 1, -1, -1, 1, 0],
    [-1, 0, 1, 1, 0, -1],
    [1, -1, 0, 0, -1, 1],
    [1, -1, 0, 0, -1, 1],
    [-1, 0, 1, 1, 0, -1],
    [0, 1, -1, -1, 1, 0],
]


def test_young_character_base_pair_is_one():
    for n in range(1, 7):
        for p in partitions_of(n):
            r1, r2 = p.canonical_words()
            assert young_character(r1, r2, r1, r2) == 1


def test_young_character_repeated_column_is_zero():
    r1, r2 = Partition((2, 2)).canonical_words()
    assert young_character((1, 1, 2, 2), (1, 1, 2, 2), r1, r2) == 0


def test_young_character_rejects_non_complementary_base():
    with pytest.raises(DomainError):
        young_character((1, 1), (1, 1), (1, 1), (1, 1))


def test_young_character_rejects_foreign_words():
    r1, r2 = Partition((2, 1)).canonical_words()
    with pytest.raises(DomainError):
        young_character((1, 2, 3), (1, 2, 1), r1, r2)


def test_matrix_2_2_golden():
    mat = specht_matrix(Partition((2, 2)))
    assert [".".join(map(str, w)).replace(".", "") for w in mat.row_labels] == GOLDEN_22_LABELS
    assert mat.row_labels == mat.col_labels
    assert [list(row) for row in mat.entries] == GOLDEN_22_ENTRIES
    assert mat.rank() == 2


def test_matrix_2_1_1_golden_submatrix():
    # rows indexed by rearrangements of 1123, columns by those of 1112
    mat = specht_matrix(Partition((2, 1, 1)))
    cols = [W("1211"), W("1121"), W("1112"), W("2111")]
    rows = {
        W("1123"): [1, 0, 0, -1],
        W("1132"): [-1, 0, 0, 1],
        W("1213"): [0, -1, 0, 1],
        W("1231"): [0, 0, 1, -1],
        W("1312"): [0, 1, 0, -1],
        W("1321"): [0, 0, -1, 1],
        W("2113"): [-1, 1, 0, 0],
        W("2131"): [1, 0, -1, 0],
        W("2311"): [0, -1, 1, 0],
        W("3112"): [1, -1, 0, 0],
        W("3121"): [-1, 0, 1, 0],
        W("3211"): [0, 1, -1, 0],
    }
    assert set(mat.row_labels) == set(rows)
    for w1, expect in rows.items():
        assert [mat.entry(w1, w2) for w2 in cols] == expect


@pytest.mark.parametrize("n", range(1, 7))
def test_entries_are_signs(n):
    for p in partitions_of(n):
        mat = specht_matrix(p)
        for row in mat.entries:
            for x in row:
                assert x in (-1, 0, 1)


@pytest.mark.parametrize("n", range(2, 7))
def test_row_sums_vanish_for_non_column_shapes(n):
    for p in partitions_of(n):
        if p.parts == (1,) * n:
            continue
        mat = specht_matrix(p)
        for row in mat.entries:
            assert sum(row) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_rank_equals_hook_length_dimension(n):
    for p in partitions_of(n):
        assert specht_matrix(p).rank() == p.dimension()


@pytest.mark.parametrize("n", range(1, 7))
def test_row_basis_is_the_first_independent_rows(n):
    for p in partitions_of(n):
        mat = specht_matrix(p)
        basis = mat.row_basis
        assert len(basis) == p.dimension() == mat.rank()
        assert int_rank(basis, len(mat.col_labels)) == len(basis)
        # rows of entries in row order, each the first row outside the span
        # of the rows above it
        indices = [mat.entries.index(row) for row in basis]
        assert indices == sorted(set(indices))
        for k, i in enumerate(indices):
            assert int_rank(mat.entries[:i], len(mat.col_labels)) == k
        assert specht_matrix(p).row_basis is basis


@pytest.mark.parametrize("n", range(1, 8))
def test_row_basis_equals_the_walk_over_every_row(n):
    # skipping a repeated row must not change the rows chosen
    for p in partitions_of(n):
        mat = specht_matrix(p)
        space = RowSpace(len(mat.col_labels))
        walk = tuple(
            row for row in mat.entries if space.rank < space.dim and space.add(row)
        )
        assert mat.row_basis == walk, p


@pytest.mark.parametrize("n", range(1, 9))
def test_yamanouchi_basis_has_rank_d(n):
    for p in partitions_of(n):
        mat = specht_matrix(p)
        basis = mat.row_basis
        assert len(basis) == p.dimension(), p
        assert int_rank(basis, len(mat.col_labels)) == len(basis), p


def test_rank_leaves_rows_and_entries_unbuilt(monkeypatch):
    monkeypatch.setattr(specht, "_cache", {})
    for p, d in [(Partition((1,) * 7), 1), (Partition((2,) + (1,) * 7), 8)]:
        mat = specht_matrix(p)
        assert mat.rank() == d
        assert mat.shape == (len(rearrangements(p.canonical_words()[0])), len(mat.col_labels))
        assert "row_basis" in vars(mat)
        assert "row_labels" not in vars(mat) and "entries" not in vars(mat)


def test_matrices_compare_and_hash_by_partition(monkeypatch):
    monkeypatch.setattr(specht, "_cache", {})
    p = Partition((3, 2))
    mat = specht_matrix(p)
    fresh = SpechtMatrix(p)
    assert hash(fresh) == hash(mat) and fresh == mat != SpechtMatrix(p.conjugate())
    assert "entries" not in vars(mat) and "entries" not in vars(fresh)
    assert fresh.entries == mat.entries


@pytest.mark.parametrize("n", range(1, 5))
def test_simultaneous_position_permutation_multiplies_by_sign(n):
    for p in partitions_of(n):
        r1, r2 = p.canonical_words()
        mat = specht_matrix(p)
        for sigma in all_permutations(n):
            s = sigma.sign()
            for w1 in mat.row_labels:
                for w2 in mat.col_labels:
                    assert young_character(
                        sigma.apply(w1), sigma.apply(w2), r1, r2
                    ) == s * young_character(w1, w2, r1, r2)


@pytest.mark.parametrize("n", range(1, 6))
def test_transposed_matrix_is_signed_conjugate_matrix(n):
    for p in partitions_of(n):
        mat = specht_matrix(p)
        conj = specht_matrix(p.conjugate())
        assert mat.col_labels == conj.row_labels
        assert mat.row_labels == conj.col_labels
        transposed = [
            [mat.entries[i][j] for i in range(len(mat.row_labels))]
            for j in range(len(mat.col_labels))
        ]
        flat_t = [x for row in transposed for x in row]
        flat_c = [x for row in conj.entries for x in row]
        sign = 0
        for a, b in zip(flat_t, flat_c):
            assert (a == 0) == (b == 0)
            if a:
                if sign == 0:
                    sign = a * b
                assert a == sign * b
        assert sign in (-1, 1) or all(x == 0 for x in flat_t)


@pytest.mark.parametrize("n", range(1, 5))
def test_column_action_permutes_columns_with_sign(n):
    # M[sigma.r, sigma.c] = sgn(sigma) M[r, c], read off the sweep's entries
    for p in partitions_of(n):
        mat = specht_matrix(p)
        rows = {w: i for i, w in enumerate(mat.row_labels)}
        cols = {w: j for j, w in enumerate(mat.col_labels)}
        for sigma in all_permutations(n):
            s = sigma.sign()
            for r, i in rows.items():
                moved = mat.entries[rows[sigma.apply(r)]]
                for c, j in cols.items():
                    assert moved[cols[sigma.apply(c)]] == s * mat.entries[i][j]


def test_csv_has_header_and_labels():
    mat = specht_matrix(Partition((2,)))
    lines = mat.to_csv().strip().splitlines()
    assert lines[0] == ",12,21"
    assert lines[1] == "11,1,-1"


def test_canonical_words_stack_into_the_boxes():
    # so the canonical base pair is complementary, as the pairing needs
    for n in range(1, 9):
        for p in partitions_of(n):
            assert list(zip(*p.canonical_words())) == p.boxes_row_major(), p


def test_matrix_guard():
    with pytest.raises(ResourceLimitError):
        specht_matrix(Partition((4, 4)), Limits(max_matrix_cells=10))


def test_matrix_guard_holds_on_cold_and_warm_cache(monkeypatch):
    monkeypatch.setattr(specht, "_cache", {})
    p = Partition.parse("3,2,1")
    tight = Limits(max_matrix_cells=10)
    with pytest.raises(ResourceLimitError):
        specht_matrix(p, tight)
    assert specht_matrix(p).shape == (60, 60)
    with pytest.raises(ResourceLimitError):
        specht_matrix(p, tight)


def test_cache_hit_checks_the_cells_guard_on_the_stored_shape(monkeypatch):
    monkeypatch.setattr(specht, "_cache", {})
    p = Partition.parse("3,2,1")
    low = Limits(max_matrix_cells=3599)
    with pytest.raises(ResourceLimitError) as cold:
        specht_matrix(p, low)
    assert specht._cache == {}
    mat = specht_matrix(p, Limits(max_matrix_cells=10**9))
    assert specht._cache == {p.parts: mat}

    # a hit counts no words: it reads the shape kept on the matrix
    def recount(word):
        raise AssertionError("words recounted on a cache hit")

    monkeypatch.setattr(specht, "rearrangement_count", recount)
    with pytest.raises(ResourceLimitError) as warm:
        specht_matrix(p, low)
    assert str(warm.value) == str(cold.value) == (
        "max_matrix_cells: requested 3600 exceeds limit 3599"
    )
    assert specht_matrix(p, Limits(max_matrix_cells=3600)) is mat


SWEEP_SHAPES = [p for n in range(1, 7) for p in partitions_of(n)] + [
    Partition((4, 2, 1)),
    Partition((2, 1, 1, 1, 1, 1)),
    Partition((1,) * 7),
]


@pytest.mark.parametrize("p", SWEEP_SHAPES, ids=str)
def test_sweep_matches_young_character_cell_by_cell(p):
    r1, r2 = p.canonical_words()
    mat = specht_matrix(p)
    assert list(mat.row_labels) == rearrangements(r1)
    assert list(mat.col_labels) == rearrangements(r2)
    for w1, row in zip(mat.row_labels, mat.entries):
        expected = [young_character(w1, w2, r1, r2) for w2 in mat.col_labels]
        assert list(row) == expected


def test_columns_is_transpose():
    mat = specht_matrix(Partition((3, 1, 1)))
    assert mat.columns() == [
        tuple(row[j] for row in mat.entries) for j in range(len(mat.col_labels))
    ]
