from math import factorial

import pytest

from spechtkit.combinatorics import Permutation, all_permutations
from spechtkit.config import Limits
from spechtkit.conjectures import (
    check_conjecture1,
    check_conjecture2,
    cyclic_orbit_structures,
    derangement_excedance_counts,
    funny_sum,
    hook_matroid,
)
from spechtkit.errors import DomainError, ResourceLimitError

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
    perms = list(all_permutations(n))
    for s in perms:
        for t in perms:
            base = funny_sum(n, s, t)
            for g in perms:
                assert funny_sum(n, g * s, g * t) == base


def test_funny_sum_degree_mismatch():
    with pytest.raises(DomainError):
        funny_sum(3, Permutation.identity(2), Permutation.identity(3))


@pytest.mark.parametrize("n", [2, 3, 4])
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


def test_detection_identity_guards():
    with pytest.raises(DomainError):
        check_conjecture1(3, mode="bogus")
    with pytest.raises(ResourceLimitError):
        check_conjecture1(5, mode="full", limits=Limits(max_conjecture1_full_n=4))


@pytest.mark.parametrize("n,counts", sorted(DERANGEMENT_TABLES.items()))
def test_derangement_excedance_tables(n, counts):
    table = derangement_excedance_counts(n)
    assert table.counts == counts


@pytest.mark.parametrize("n", range(2, 9))
def test_excedance_counts_are_palindromic_and_count_derangements(n):
    counts = derangement_excedance_counts(n).counts
    assert counts == counts[::-1]
    derangements = sum(
        1
        for g in all_permutations(n)
        if not any(g(i) == i for i in range(1, n + 1))
    )
    assert sum(counts) == derangements


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


def test_cyclic_orbits_agree_small():
    conj, fy = cyclic_orbit_structures(5, 1)
    assert conj.multiset() == fy.multiset() == {1: 1, 5: 4}
    assert conj.total == 21
