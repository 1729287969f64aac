import itertools
import random
import tracemalloc
import types
from collections import Counter
from math import factorial

import pytest

from spechtkit import cli, conjectures, specht
from spechtkit.combinatorics import Partition, Permutation, all_permutations
from spechtkit.config import DEFAULT_LIMITS, Limits
from spechtkit.conjectures import (
    FunnySumReport,
    OrbitStructure,
    check_conjecture1,
    check_conjecture2,
    cyclic_orbit_structures,
    derangement_excedance_counts,
    funny_sum,
    gram_column,
    hook_matroid,
)
from spechtkit.errors import DomainError, ResourceLimitError
from spechtkit.oracles import (
    chain_basis_orbits_oracle,
    derangement_excedance_oracle,
    funny_sum_oracle,
)
from spechtkit.specht import specht_matrix

DERANGEMENT_TABLES = {
    2: (1,),
    3: (1, 1),
    4: (1, 7, 1),
    5: (1, 21, 21, 1),
    6: (1, 51, 161, 51, 1),
}


def test_funny_sum_small_values():
    e2 = Permutation.identity(2)
    swap = Permutation((2, 1))
    assert funny_sum(2, e2, e2) == 4
    assert funny_sum(2, swap, swap) == 4
    assert funny_sum(2, e2, swap) == 0
    e3 = Permutation.identity(3)
    assert funny_sum(3, e3, e3) == 36


@pytest.mark.parametrize("n", [2, 3])
def test_funny_sum_is_translation_invariant(n):
    # the premise of reading every pair off one column, held on the definition
    perms = list(all_permutations(n))
    pairs = [(s, t) for s in perms for t in perms]
    value = dict(zip(pairs, funny_sum_oracle(n, pairs)))
    for s, t in pairs:
        for g in perms:
            assert value[g * s, g * t] == value[s, t]


def test_funny_sum_matches_the_oracle_at_n6():
    perms = list(all_permutations(6))
    rng = random.Random(6)
    pairs = [(rng.choice(perms), rng.choice(perms)) for _ in range(4)]
    pairs.append((pairs[0][0], pairs[0][0]))
    assert [funny_sum(6, s, t) for s, t in pairs] == funny_sum_oracle(6, pairs)


def test_funny_sum_degree_mismatch():
    with pytest.raises(DomainError):
        funny_sum(3, Permutation.identity(2), Permutation.identity(3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_detection_identity_full(n):
    report = check_conjecture1(n, mode="full")
    assert report.passed
    assert report.pairs_checked == factorial(n) ** 2
    assert report.counterexample is None


def test_detection_identity_sampled():
    report = check_conjecture1(5, mode="sampled", samples=40, seed=0)
    assert report.passed
    assert report.mode == "sampled"
    assert report.pairs_checked == 40
    assert report.seed == 0
    data = report.to_json_dict()
    assert data["passed"] is True and data["seed"] == 0


def test_detection_identity_guards(capsys, monkeypatch):
    with pytest.raises(DomainError):
        check_conjecture1(3, mode="bogus")
    with pytest.raises(DomainError):
        check_conjecture1(0)
    # (3,1,1,1,1) has 840 rows, so its action table is 840 * 7! cells
    with pytest.raises(ResourceLimitError, match="max_matrix_cells: requested 4233600 "):
        check_conjecture1(7)

    # (2, 2) has 6 rows, so its action table is 6 * 4! = 144 cells, although
    # every n = 4 pairing matrix has at most 48
    built = []
    monkeypatch.setattr(conjectures, "specht_matrix", lambda *a: built.append(a))
    with pytest.raises(ResourceLimitError, match="max_matrix_cells: requested 144"):
        check_conjecture1(4, limits=Limits(max_matrix_cells=100))
    assert built == []

    assert cli.main(["check", "conjecture1", "--n", "7"]) == 3
    assert "max_matrix_cells: requested 4233600 " in capsys.readouterr().err
    assert cli.main(["check", "conjecture1", "--n", "4", "--max-conjecture1-full-n", "4"]) == 2
    assert "--max-conjecture1-full-n" in capsys.readouterr().err


def test_huge_n_is_refused_before_any_partition_or_factorial(monkeypatch):
    # the (n) shape's table is 1 x n! cells; 11! is the first product past
    # the default 4,000,000
    def boom(*args):
        raise AssertionError("called past the guard")

    monkeypatch.setattr(conjectures, "partitions_of", boom)
    monkeypatch.setattr(conjectures, "factorial", boom)
    for check in (conjectures.gram_column, check_conjecture1):
        with pytest.raises(ResourceLimitError, match="max_matrix_cells: requested 39916800 "):
            check(10**9)


def _quotient_index(n):
    """Map (sigma, tau) to the index of tau^-1 * sigma in all_permutations."""
    index = {p.images: k for k, p in enumerate(all_permutations(n))}
    return lambda s, t: index[(t.inverse() * s).images]


def _pair_loop_report(n, mode="full", samples=200, seed=0):
    """check_conjecture1 evaluated one oracle funny sum per pair, as a reference."""
    perms = list(all_permutations(n))
    if mode == "full":
        pairs = [(s, t) for s in perms for t in perms]
    else:
        rng = random.Random(seed)
        pairs = []
        for i in range(samples):
            s = rng.choice(perms)
            pairs.append((s, s if i % 4 == 0 else rng.choice(perms)))
    for count, ((s, t), value) in enumerate(zip(pairs, funny_sum_oracle(n, pairs)), start=1):
        expected = factorial(n) ** 2 if s == t else 0
        if value != expected:
            return FunnySumReport(
                n, mode, count, False, None if mode == "full" else seed, (s, t, value, expected)
            )
    return FunnySumReport(n, mode, len(pairs), True, None if mode == "full" else seed)


def _assert_column_matches_oracle(n, pairs):
    column = gram_column(n)
    at = _quotient_index(n)
    for (s, t), value in zip(pairs, funny_sum_oracle(n, pairs)):
        assert value == column[at(s, t)], (s, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_column_matches_funny_sum_on_every_pair(n):
    perms = list(all_permutations(n))
    _assert_column_matches_oracle(n, [(s, t) for s in perms for t in perms])


def test_gram_column_matches_funny_sum_on_sampled_pairs():
    perms = list(all_permutations(5))
    rng = random.Random(11)
    _assert_column_matches_oracle(
        5, [(rng.choice(perms), rng.choice(perms)) for _ in range(300)]
    )


def corrupt_matrix(monkeypatch, parts, row, col, change):
    """Make every pairing-matrix build of *parts* return a copy with entry
    (row, col) negated ("flip") or raised by 1 ("add")."""
    target = Partition(parts)

    def corrupted(p, limits=DEFAULT_LIMITS):
        mat = specht_matrix(p, limits)
        if p != target:
            return mat
        entries = [list(r) for r in mat.entries]
        x = entries[row][col]
        entries[row][col] = -x if change == "flip" else x + 1
        # gram_column and funny_sum_oracle read only the labels and entries
        return types.SimpleNamespace(
            row_labels=mat.row_labels,
            col_labels=mat.col_labels,
            entries=tuple(map(tuple, entries)),
        )

    # the oracle reads its matrices from the specht module
    monkeypatch.setattr(conjectures, "specht_matrix", corrupted)
    monkeypatch.setattr(specht, "specht_matrix", corrupted)


# A sign flip keeps every diagonal Gram entry, so those checks fail off the
# diagonal, some pairs into the loop; adding 1 to a zero breaks the diagonal.
@pytest.mark.parametrize(
    "parts,row,col,change",
    [
        ((3, 1), 0, 3, "flip"),
        ((3, 1), 1, 6, "flip"),
        ((2, 2), 0, 1, "flip"),
        ((2, 1, 1), 8, 0, "flip"),
        ((1, 1, 1, 1), 5, 0, "flip"),
        ((2, 1, 1), 0, 0, "add"),
    ],
)
def test_corrupted_matrix_reports_the_pair_loop_counterexample(
    monkeypatch, parts, row, col, change
):
    corrupt_matrix(monkeypatch, parts, row, col, change)
    perms = list(all_permutations(4))
    _assert_column_matches_oracle(4, [(s, t) for s in perms for t in perms])

    report = check_conjecture1(4)
    assert not report.passed
    assert report == _pair_loop_report(4)
    for seed in (0, 3):
        sampled = check_conjecture1(4, mode="sampled", samples=100, seed=seed)
        assert sampled == _pair_loop_report(4, "sampled", 100, seed)


@pytest.mark.parametrize("n,counts", sorted(DERANGEMENT_TABLES.items()))
def test_derangement_excedance_tables(n, counts):
    assert derangement_excedance_counts(n) == counts


@pytest.mark.parametrize("n", range(2, 15))
def test_excedance_counts_are_palindromic_and_count_derangements(n):
    counts = derangement_excedance_counts(n, Limits(max_derangement_n=14))
    assert counts == counts[::-1]
    derangements = [1, 0]  # D_0, D_1
    for m in range(2, n + 1):
        derangements.append((m - 1) * (derangements[-1] + derangements[-2]))
    assert sum(counts) == derangements[n]


@pytest.mark.parametrize("n", range(10))
def test_excedance_dp_matches_the_permutation_oracle(n):
    assert derangement_excedance_counts(n) == derangement_excedance_oracle(n)


def test_excedance_table_at_n_12():
    assert derangement_excedance_counts(12, Limits(max_derangement_n=12)) == (
        1, 4071, 453905, 8422679, 42924113, 72605303, 42924113, 8422679, 453905, 4071, 1,
    )


def test_excedance_dp_rejects_negative_n():
    with pytest.raises(DomainError, match="-1"):
        derangement_excedance_counts(-1)


def test_excedance_dp_honours_its_guard():
    with pytest.raises(ResourceLimitError, match="max_derangement_n: requested 10"):
        derangement_excedance_counts(10)
    with pytest.raises(ResourceLimitError):
        check_conjecture2(10)


def test_hook_matroid_rejects_tiny_n():
    with pytest.raises(DomainError):
        hook_matroid(1)


def test_conjecture2_honours_ground_guard():
    assert hook_matroid(4, Limits(max_ground=4)).size == 4
    with pytest.raises(ResourceLimitError):
        check_conjecture2(4, Limits(max_ground=3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hook_dimensions_match_excedances(n):
    report = check_conjecture2(n)
    assert report.passed
    assert report.chow_dims == DERANGEMENT_TABLES[n]
    data = report.to_json_dict()
    assert data["chow_dims"] == list(DERANGEMENT_TABLES[n])


@pytest.mark.parametrize("n", range(2, 10))
def test_orbit_walk_equals_the_permutation_enumeration(n):
    # zero-based derangements as tuples, by their excedances
    chosen = {e: set() for e in range(n + 1)}
    for g in itertools.permutations(range(n)):
        if all(g[x] != x for x in range(n)):
            chosen[sum(g[x] > x for x in range(n))].add(g)
    for k in range(n - 1):
        # orbit sizes of conjugation by the long cycle x -> x + 1 mod n,
        # which sends g to x -> g(x - 1) + 1 mod n
        remaining, sizes = chosen[k + 1], Counter()
        while remaining:
            g = start = remaining.pop()
            size = 1
            while (g := tuple((g[x - 1] + 1) % n for x in range(n))) != start:
                remaining.remove(g)
                size += 1
            sizes[size] += 1
        conj, _ = cyclic_orbit_structures(n, k)
        assert conj.multiset() == sizes, (n, k)


@pytest.mark.parametrize("n", range(2, 9))
def test_chain_basis_orbit_count_equals_the_listing_oracle(n):
    m = hook_matroid(n)
    for k in range(n - 1):
        _, fy = cyclic_orbit_structures(n, k)
        assert fy.multiset() == Counter(chain_basis_orbits_oracle(m, k)), (n, k)


@pytest.mark.parametrize("n", range(2, 9))
def test_commuting_excedance_dp_equals_the_permutation_enumeration(n):
    # zero-based derangements commuting with c^t: g(x + t) = g(x) + t mod n
    listed = Counter()
    for g in itertools.permutations(range(n)):
        if all(g[x] != x for x in range(n)):
            e = sum(g[x] > x for x in range(n))
            for t in range(1, n + 1):
                if n % t == 0 and all(g[(x + t) % n] == (g[x] + t) % n for x in range(n)):
                    listed[t, e] += 1
    for t in range(1, n + 1):
        if n % t == 0:
            counts = conjectures._commuting_excedances(n, t)
            assert counts == tuple(listed[t, e] for e in range(1, n)), (n, t)


@pytest.mark.parametrize(
    "n, t, counts",
    [
        (12, 6, (1, 63, 653, 2803, 6333, 8243, 6333, 2803, 653, 63, 1)),
        (14, 7, (1, 127, 2045, 12867, 42757, 84827, 106037, 84827, 42757, 12867, 2045, 127, 1)),
    ],
)
def test_commuting_excedance_tables(n, t, counts):
    # taken from a walk of the centralizer C_2 wr S_t of c^t
    assert conjectures._commuting_excedances(n, t) == counts


@pytest.mark.parametrize("side", ["derangement", "chain"])
@pytest.mark.parametrize("n, k", [(5, 1), (6, 2)])
def test_an_off_by_one_fixed_count_raises(monkeypatch, side, n, k):
    # one element too many fixed by c^n, the identity: E(n) = n * orbits + 1
    if side == "derangement":
        real_counts = conjectures._commuting_excedances

        def off_by_one(size, t):
            counts = list(real_counts(size, t))
            if t == size:
                counts[k] += 1
            return tuple(counts)

        monkeypatch.setattr(conjectures, "_commuting_excedances", off_by_one)
    else:
        real_dims = conjectures.chow_graded_dimensions

        def off_by_one(m, *, fixed=None):
            dims = real_dims(m, fixed=fixed)
            if fixed == (1 << len(m.flat_lattice()[0])) - 1:
                dims[k] += 1
            return dims

        monkeypatch.setattr(conjectures, "chow_graded_dimensions", off_by_one)
    with pytest.raises(AssertionError, match=f"elements of orbit size {n}$"):
        cyclic_orbit_structures(n, k)


def test_orbit_count_at_n_12_keeps_no_orbit_list():
    # 3,577,595 orbits a side: one entry per orbit would take 84 MiB traced
    limits = Limits(max_derangement_n=12, max_matrix_cells=3 * 10**9)
    tracemalloc.start()
    try:
        conj, fy = cyclic_orbit_structures(12, 4, limits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert conj == fy == OrbitStructure({1: 1, 2: 4, 3: 18, 4: 68, 6: 1045, 12: 3576459})
    assert peak <= 16 * 2**20  # about 2.7 MiB


@pytest.mark.parametrize("k", range(7))
def test_orbit_count_lists_no_centralizer(k):
    # C_2 wr S_4, the centralizer of c^4 at n = 8, has 384 elements
    conj, fy = cyclic_orbit_structures(8, k, Limits(max_group_order=1))
    assert conj == fy


def test_orbit_count_at_n_12_needs_no_group_guard():
    limits = Limits(max_derangement_n=12, max_matrix_cells=3 * 10**9)
    conj, fy = cyclic_orbit_structures(12, 4, limits)
    assert conj == fy == OrbitStructure({1: 1, 2: 4, 3: 18, 4: 68, 6: 1045, 12: 3576459})


def test_cyclic_orbits_agree_small():
    conj, fy = cyclic_orbit_structures(5, 1)
    assert conj == fy
    assert conj.multiset() == fy.multiset() == {1: 1, 5: 4}
    assert list(conj.counts) == [1, 5]  # sizes ascending
