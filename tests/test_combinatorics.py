from math import factorial

import numpy as np
import pytest

from spechtkit.combinatorics import (
    Partition,
    Permutation,
    all_permutations,
    classify_pair,
    format_word,
    letter_multiplicities,
    normalize_word,
    partitions_of,
    rearrangement_count,
    rearrangements,
    word_from_text,
)
from spechtkit.errors import DomainError
from spechtkit.oracles import standard_filling_count

PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


def test_partition_parse_and_str():
    p = Partition.parse("4,2,1")
    assert p.parts == (4, 2, 1)
    assert p.n == 7
    assert str(p) == "4,2,1"


@pytest.mark.parametrize("text", ["", "0", "1,2", "2,-1", "a"])
def test_partition_parse_rejects_bad_input(text):
    with pytest.raises(DomainError):
        Partition.parse(text)


@pytest.mark.parametrize("parts", [(2.5,), (True, 1), (2.0, 1.0), (np.True_,), ("2",)])
def test_partition_refuses_bools_and_non_integers(parts):
    with pytest.raises(DomainError, match="integers"):
        Partition(parts)


def test_partition_converts_integral_numpy_scalars():
    p = Partition((np.int64(3), np.int32(1)))
    assert p == Partition((3, 1)) and hash(p) == hash(Partition((3, 1)))
    assert all(type(x) is int for x in p.parts) and type(p.n) is int
    # any iterable of parts becomes a tuple
    for parts in [[3, 1], (x for x in (3, 1)), [np.int8(3), 1]]:
        q = Partition(parts)
        assert q == p and type(q.parts) is tuple


@pytest.mark.parametrize("parts,message", [
    ((0, 1), "partition parts must be positive: (0, 1)"),
    ((2, 3), "partition parts must be weakly decreasing: (2, 3)"),
    ((2, 0, 3), "partition parts must be positive: (2, 0, 3)"),
    ((np.int64(2), 3), "partition parts must be weakly decreasing: (2, 3)"),
    ((True,), "partition parts must be integers, not True"),
    ((2.0,), "partition parts must be integers, not 2.0"),
    ((3, 1.0), "partition parts must be integers, not 1.0"),
])
def test_partition_refusals_keep_their_texts_and_order(parts, message):
    # plain int parts skip the conversion, not the checks
    with pytest.raises(DomainError) as info:
        Partition(parts)
    assert str(info.value) == message


def test_conjugate_is_built_once_per_instance():
    p = Partition((4, 2, 1))
    assert p.conjugate() is p.conjugate() == Partition((3, 2, 1, 1))
    assert Partition((4, 2, 1)).conjugate() == p.conjugate()


@pytest.mark.parametrize("n,count", sorted(PARTITION_COUNTS.items()))
def test_partitions_of_counts(n, count):
    ps = partitions_of(n)
    assert len(ps) == count
    assert len(set(ps)) == count
    for p in ps:
        assert p.n == n


@pytest.mark.parametrize(
    "parts,conj",
    [((4,), (1, 1, 1, 1)), ((3, 1), (2, 1, 1)), ((2, 2), (2, 2)), ((3, 3, 1), (3, 2, 2))],
)
def test_conjugate_known_values(parts, conj):
    assert Partition(parts).conjugate().parts == conj


@pytest.mark.parametrize("n", range(1, 9))
def test_conjugate_is_an_involution(n):
    for p in partitions_of(n):
        assert p.conjugate().conjugate() == p


@pytest.mark.parametrize("n", range(1, 8))
def test_dimension_matches_filling_enumeration(n):
    for p in partitions_of(n):
        assert p.dimension() == standard_filling_count(p)


@pytest.mark.parametrize("n", range(1, 8))
def test_dimension_squares_sum_to_group_order(n):
    assert sum(p.dimension() ** 2 for p in partitions_of(n)) == factorial(n)


def test_hook_length_example():
    # hooks of (3,2): 4 3 1 / 2 1
    assert Partition((3, 2)).dimension() == factorial(5) // (4 * 3 * 1 * 2 * 1)


def test_canonical_word_multiplicities():
    for n in range(1, 8):
        for p in partitions_of(n):
            w1, w2 = p.canonical_words()
            assert sorted(letter_multiplicities(w1).values(), reverse=True) == list(p.parts)
            assert sorted(letter_multiplicities(w2).values(), reverse=True) == list(
                p.conjugate().parts
            )


# ---------------------------------------------------------------------------
# words


def test_word_from_text_digits_csv_letters():
    assert word_from_text("1122") == (1, 1, 2, 2)
    assert word_from_text("1,2,1,2") == (1, 2, 1, 2)
    # letters are normalized by frequency rank, then first appearance
    assert word_from_text("ABAB") == word_from_text("1212")
    for text in ["1,x", ",", "1,,2"]:
        with pytest.raises(DomainError, match="cannot parse word"):
            word_from_text(text)


def test_word_round_trip():
    w = (1, 2, 1, 3)
    assert word_from_text(format_word(w)) == w


def test_normalize_word_frequency_rank():
    # most frequent letter becomes 1
    assert normalize_word((7, 7, 3)) == (1, 1, 2)


def test_rearrangements_lex_and_count():
    rs = rearrangements((1, 1, 2))
    assert rs == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    for w in [(1, 1, 2, 2), (1, 2, 3), (1, 1, 1)]:
        rs = rearrangements(w)
        assert rs == sorted(rs)
        assert len(rs) == rearrangement_count(w)
        assert len(set(rs)) == len(rs)


# ---------------------------------------------------------------------------
# pair classification


def test_classify_canonical_pairs():
    for n in range(1, 9):
        for p in partitions_of(n):
            cls = classify_pair(*p.canonical_words())
            assert cls.rearrangeable
            assert cls.is_complementary
            assert cls.partition == p


def test_classify_single_column_pair():
    cls = classify_pair((1, 1), (1, 2))
    assert cls.rearrangeable and cls.is_complementary
    assert cls.partition == Partition((2,))


def test_classify_word_pair_with_repeated_column():
    # multiplicities fit (4,2,2,1) but a stacked column repeats
    w1 = word_from_text("TENNESSEE")
    w2 = word_from_text("SASSAFRAS")
    cls = classify_pair(w1, w2)
    assert cls.rearrangeable
    assert not cls.is_complementary
    assert cls.partition == Partition((4, 2, 2, 1))


def test_classify_rejects_mismatched_multiplicities():
    cls = classify_pair((1, 1, 2), (1, 2, 3))
    assert not cls.rearrangeable


def test_classify_rejects_unequal_lengths():
    cls = classify_pair((1, 2), (1, 2, 3))
    assert not cls.rearrangeable


# ---------------------------------------------------------------------------
# permutations


def test_permutation_compose_and_inverse():
    s = Permutation((2, 3, 1))
    t = Permutation((2, 1, 3))
    assert (s * t).images == tuple(s(t(i)) for i in (1, 2, 3))
    assert (s * s.inverse()).images == (1, 2, 3)
    assert s.sign() == 1 and t.sign() == -1


def test_permutation_sign_is_multiplicative():
    for s in all_permutations(4):
        for t in all_permutations(4):
            assert (s * t).sign() == s.sign() * t.sign()


def test_permutation_apply_composition():
    w = (1, 2, 2, 3)
    for s in all_permutations(4):
        for t in all_permutations(4):
            assert s.apply(t.apply(w)) == (t * s).apply(w)


def test_all_permutations_count():
    assert len(list(all_permutations(4))) == 24
