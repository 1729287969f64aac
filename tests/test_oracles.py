import random
from fractions import Fraction
from math import factorial, gcd

import pytest

from spechtkit.combinatorics import Partition, partitions_of
from spechtkit.linalg import int_rank
from spechtkit.oracles import (
    OrderedSetPartition,
    _hyperplane_normal,
    character_value,
    class_size_factor,
    derangement_excedance_oracle,
    face_levels_oracle,
    kronecker_oracle,
    lr_oracle,
    plethysm_oracle,
    properly_ordered_set_partitions,
    schur_in_powersums,
    standard_filling_count,
)

P = Partition.parse


@pytest.mark.parametrize(
    "lam,rho,value",
    [
        ((2, 1), (1, 1, 1), 2),
        ((2, 1), (2, 1), 0),
        ((2, 1), (3,), -1),
        ((3, 1), (2, 2), -1),
        ((2, 2), (2, 2), 2),
    ],
)
def test_character_table_values(lam, rho, value):
    assert character_value(lam, rho) == value


@pytest.mark.parametrize("n", range(1, 7))
def test_trivial_and_sign_characters(n):
    for rho in partitions_of(n):
        assert character_value((n,), rho.parts) == 1
        sign = (-1) ** sum(k - 1 for k in rho.parts)
        assert character_value((1,) * n, rho.parts) == sign


@pytest.mark.parametrize("n", range(1, 7))
def test_character_row_orthogonality(n):
    ps = partitions_of(n)
    for a in ps:
        for b in ps:
            total = sum(
                Fraction(
                    character_value(a.parts, r.parts)
                    * character_value(b.parts, r.parts),
                    class_size_factor(r.parts),
                )
                for r in ps
            )
            assert total == (1 if a == b else 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sizes_sum_to_group_order(n):
    assert sum(
        factorial(n) // class_size_factor(r.parts) for r in partitions_of(n)
    ) == factorial(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_standard_filling_count_matches_hook_lengths(n):
    for p in partitions_of(n):
        assert standard_filling_count(p) == p.dimension()


def test_schur_expansion_dimension_term():
    # coefficient of p_{1^n} is dim / n!
    for p in partitions_of(4):
        coeffs = schur_in_powersums(p)
        assert coeffs[(1, 1, 1, 1)] == Fraction(p.dimension(), 24)


def test_kronecker_oracle_small_values():
    assert kronecker_oracle(P("2"), P("2"), P("2")) == 1
    assert kronecker_oracle(P("2"), P("2"), P("1,1")) == 0
    assert kronecker_oracle(P("2,1"), P("2,1"), P("2,1")) == 1


def test_lr_oracle_small_values():
    assert lr_oracle(P("2,1"), P("2,1"), P("3,2,1")) == 2
    assert lr_oracle(P("1"), P("1"), P("2")) == 1
    assert lr_oracle(P("1"), P("1"), P("1,1")) == 1
    assert lr_oracle(P("2"), P("1,1"), P("4")) == 0


def test_plethysm_oracle_small_values():
    assert plethysm_oracle(P("2"), P("2"), P("4")) == 1
    assert plethysm_oracle(P("2"), P("2"), P("2,2")) == 1
    assert plethysm_oracle(P("2"), P("2"), P("3,1")) == 0
    assert plethysm_oracle(P("1,1"), P("1,1"), P("2,1,1")) == 1


@pytest.mark.parametrize("l", [2, 3])
def test_tensor_square_decomposes_into_plethysms(l):
    # s_lam * s_lam restricted to degree 2l splits as the sum of the
    # symmetric and antisymmetric plethysm parts
    for lam in partitions_of(l):
        for nu in partitions_of(2 * l):
            sym = plethysm_oracle(lam, P("2"), nu)
            alt = plethysm_oracle(lam, P("1,1"), nu)
            assert lr_oracle(lam, lam, nu) == sym + alt


def test_hyperplane_normal_on_seeded_rows():
    rng = random.Random(11)
    independent = 0
    for _ in range(400):
        dim = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim - 1)]
        if dim > 2 and rng.random() < 0.3:  # a multiple of another row
            rows[-1] = tuple(2 * x for x in rows[0])
        normal = _hyperplane_normal(rows, dim)
        if int_rank(rows, dim) != dim - 1:
            assert normal is None
            continue
        independent += 1
        assert all(sum(a * b for a, b in zip(row, normal)) == 0 for row in rows)
        assert gcd(*normal) == 1
    assert independent > 100


def test_face_levels_oracle_on_a_square_pyramid():
    # base square 0-1-2-3 around the rim, apex 4
    base = 0b01111
    sides = [1 << i | 1 << (i + 1) % 4 | 1 << 4 for i in range(4)]
    levels = face_levels_oracle(0b11111, [base] + sides)
    assert [len(level) for level in levels] == [1, 5, 8, 5, 1]
    assert levels[0] == [0] and levels[-1] == [0b11111]
    assert sorted(levels[1]) == [1 << i for i in range(5)]
    assert sorted(levels[3]) == sorted([base] + sides)


def test_derangement_excedance_oracle_counts_derangements():
    derangements = [1, 0]  # D_0, D_1
    for n in range(2, 8):
        derangements.append((n - 1) * (derangements[-1] + derangements[-2]))
    assert [derangement_excedance_oracle(n) for n in range(6)] == [
        (), (), (1,), (1, 1), (1, 7, 1), (1, 21, 21, 1),
    ]
    for n in range(2, 8):
        counts = derangement_excedance_oracle(n)
        assert sum(counts) == derangements[n]
        assert counts == counts[::-1]
        assert len(counts) == n - 1  # one to n - 1 excedances


@pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 10), (4, 47)])
def test_properly_ordered_set_partition_counts(n, count):
    osps = properly_ordered_set_partitions(n)
    assert len(osps) == count
    seen = set()
    for osp in osps:
        sizes = [len(b) for b in osp.parts]
        assert sizes == sorted(sizes, reverse=True)
        union = set().union(*osp.parts)
        assert union == set(range(1, n + 1))
        key = tuple(tuple(sorted(b)) for b in osp.parts)
        assert key not in seen
        seen.add(key)


def test_set_partition_words():
    osp = OrderedSetPartition((frozenset({1, 3}), frozenset({2})))
    # letter k marks the members of block k
    assert osp.word() == (1, 2, 1)
    # within each block, the j-th smallest member gets letter j
    assert osp.complementary_word() == (1, 1, 2)
