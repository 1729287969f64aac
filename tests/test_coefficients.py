import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtkit
from spechtkit import coefficients
from spechtkit.coefficients import (
    LabeledCoefficientMatrix,
    _coefficient,
    _kronecker_setup,
    _kronecker_vanishes,
    _lr_setup,
    _lr_vanishes,
    _orbit_walk,
    _plethysm_setup,
    _plethysm_vanishes,
    _TensorPowerFactor,
    _wreath_group,
    kronecker_coefficient,
    kronecker_matrix,
    lr_coefficient,
    lr_matrix,
    plethysm_coefficient,
    plethysm_matrix,
)
from spechtkit.combinatorics import Partition, Permutation, partitions_of
from spechtkit.config import Limits
from spechtkit.errors import DomainError, ResourceLimitError
from spechtkit.linalg import _normalize, int_rank
from spechtkit.oracles import (
    coefficient_matrix_oracle,
    kronecker_oracle,
    lr_oracle,
    plethysm_oracle,
)
from spechtkit.polytope import polytope_from_columns
from spechtkit import specht
from spechtkit.specht import SpechtMatrix, action_table, specht_matrix

P = Partition.parse
SETUPS = {"kronecker": _kronecker_setup, "lr": _lr_setup, "plethysm": _plethysm_setup}


def walk_value(kind, triple, limits=Limits()):
    """The rank of the orbit walk on the triple as given: no support rule
    and no conjugate variant stands in for it."""
    return _coefficient(*SETUPS[kind](*triple, limits), limits)


def test_kronecker_2_2_2_golden():
    mat = kronecker_matrix(P("2"), P("2"), P("2"))
    assert mat.shape == (1, 8)
    assert sorted(int(x) for x in mat.entries[0]) == [-2, -2, -2, -2, 2, 2, 2, 2]
    assert mat.entries[0][0] == 2  # column ((1,2),(1,2),(1,2))
    assert mat.rank() == 1
    assert kronecker_coefficient(P("2"), P("2"), P("2")) == 1


def test_kronecker_requires_equal_sizes():
    with pytest.raises(DomainError):
        kronecker_matrix(P("2"), P("2"), P("3"))


def test_kronecker_matches_oracle_and_matrix_rank():
    for n in (2, 3):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    expected = kronecker_oracle(lam, mu, nu)
                    assert kronecker_coefficient(lam, mu, nu) == expected
                    assert walk_value("kronecker", (lam, mu, nu)) == expected
                    assert kronecker_matrix(lam, mu, nu).rank() == expected


def test_kronecker_at_n6_matches_oracle_on_a_seeded_sample():
    # triples whose product has at most 100,000 columns: the default
    # max_matrix_cells admits each, and each answers in well under a second
    limits = Limits(max_coefficient_n=6)
    cols = {p: len(specht_matrix(p).col_labels) for p in partitions_of(6)}
    triples = [
        t
        for t in itertools.combinations_with_replacement(partitions_of(6), 3)
        if prod(cols[p] for p in t) <= 100_000
    ]
    for triple in random.Random(6).sample(triples, 24):
        expected = kronecker_oracle(*triple)
        assert kronecker_coefficient(*triple, limits) == expected, triple
        assert walk_value("kronecker", triple, limits) == expected, triple


def test_kronecker_is_symmetric_in_its_arguments():
    ps = partitions_of(3)
    for lam in ps:
        for mu in ps:
            for nu in ps:
                v = kronecker_coefficient(lam, mu, nu)
                assert kronecker_coefficient(mu, lam, nu) == v
                assert kronecker_coefficient(nu, mu, lam) == v


@pytest.mark.parametrize("n", range(2, 5))
def test_kronecker_with_trivial_factor_detects_equality(n):
    triv = Partition((n,))
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            assert kronecker_coefficient(lam, mu, triv) == int(lam == mu)
            assert walk_value("kronecker", (lam, mu, triv)) == int(lam == mu)


def test_lr_2_1_2_1_3_2_1_golden():
    mat = lr_matrix(P("2,1"), P("2,1"), P("3,2,1"))
    assert mat.rank() == 2
    assert lr_coefficient(P("2,1"), P("2,1"), P("3,2,1")) == 2
    assert polytope_from_columns(mat.entries.T.tolist()).dim == 2


def test_lr_requires_compatible_sizes():
    with pytest.raises(DomainError):
        lr_matrix(P("2"), P("2"), P("3"))


def test_lr_matches_oracle_and_matrix_rank():
    cases = [
        (l, m)
        for l in range(1, 4)
        for m in range(1, 4)
        if l + m <= 5
    ]
    for l, m in cases:
        for lam in partitions_of(l):
            for mu in partitions_of(m):
                for nu in partitions_of(l + m):
                    expected = lr_oracle(lam, mu, nu)
                    assert lr_coefficient(lam, mu, nu) == expected
                    assert walk_value("lr", (lam, mu, nu)) == expected
                    if l + m <= 4:
                        assert lr_matrix(lam, mu, nu).rank() == expected


def symmetric_group(n):
    return specht_matrix(Partition((n,))).symmetric_group


def test_symmetric_group_arrays_are_lexicographic_read_only_and_signed():
    for n in range(1, 6):
        perms, signs = symmetric_group(n)
        assert perms.tolist() == [list(p) for p in itertools.permutations(range(n))]
        assert signs.tolist() == [Permutation(tuple(x + 1 for x in p)).sign() for p in perms]
        assert not perms.flags.writeable and not signs.flags.writeable
        # every partition of n holds the same arrays, built on its own matrix
        for p in partitions_of(n):
            other = specht_matrix(p).symmetric_group
            assert all(np.array_equal(a, b) for a, b in zip(other, (perms, signs)))


def test_wreath_group_order_and_closure():
    for l, m in [(2, 2), (3, 2), (2, 3)]:
        dots, slots, signs = _wreath_group(symmetric_group(l)[0], *symmetric_group(m))
        assert dots.shape == (factorial(l) ** m * factorial(m), l * m)
        # element (tau, rows) in product order, tau major: dot (i, j) goes
        # to (rows_j(i), tau(j))
        elements = itertools.product(
            itertools.permutations(range(m)),
            itertools.product(itertools.permutations(range(l)), repeat=m),
        )
        expected = [
            [tau[j] * l + rows[j][i] for j in range(m) for i in range(l)] for tau, rows in elements
        ]
        assert dots.tolist() == expected
        assert slots.tolist() == [[x // l for x in row[::l]] for row in expected]
        assert signs.tolist() == [Permutation(tuple(x + 1 for x in s)).sign() for s in slots]
        assert (np.sort(dots, axis=1) == np.arange(l * m)).all()
        perms = {tuple(row) for row in dots.tolist()}
        assert len(perms) == len(dots)
        # closed under composition: row b of a[dots] is a o b
        for a in dots:
            assert all(tuple(row) in perms for row in a[dots].tolist())


@pytest.mark.parametrize(
    "lam,mu,nu,expected",
    [
        ("2", "2", "4", 1),  # h2[h2] = s4 + s22
        ("2", "2", "2,2", 1),
        ("2", "2", "3,1", 0),
        ("2", "1,1", "3,1", 1),  # e2 of h2 = s31
        ("2", "1,1", "4", 0),
        ("1,1", "2", "2,2", 1),  # h2[e2] = s22 + s1111
        ("1,1", "2", "1,1,1,1", 1),
        ("1,1", "1,1", "2,1,1", 1),  # e2[e2] = s211
        ("1,1", "1,1", "2,2", 0),
    ],
)
def test_plethysm_classical_degree_four_values(lam, mu, nu, expected):
    assert plethysm_coefficient(P(lam), P(mu), P(nu)) == expected
    assert walk_value("plethysm", (P(lam), P(mu), P(nu))) == expected
    assert plethysm_matrix(P(lam), P(mu), P(nu)).rank() == expected


def test_plethysm_requires_compatible_sizes():
    with pytest.raises(DomainError):
        plethysm_matrix(P("2"), P("2"), P("3"))


def test_plethysm_matches_oracle_and_matrix_rank():
    for l, m in [(1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
        for lam in partitions_of(l):
            for mu in partitions_of(m):
                for nu in partitions_of(l * m):
                    expected = plethysm_oracle(lam, mu, nu)
                    assert plethysm_coefficient(lam, mu, nu) == expected
                    assert walk_value("plethysm", (lam, mu, nu)) == expected
                    assert plethysm_matrix(lam, mu, nu).rank() == expected


def test_plethysm_slot_mixing_regression():
    # rank computations must treat the tensor slots as one factor shuffled by
    # the outer permutation; these values are wrong (off by one) when the
    # slots are acted on independently
    cases = [
        ("2,1", "2", "4,2"),
        ("2,1", "2", "3,2,1"),
        ("2,1", "1,1", "4,1,1"),
    ]
    for lam, mu, nu in cases:
        expected = plethysm_oracle(P(lam), P(mu), P(nu))
        assert plethysm_coefficient(P(lam), P(mu), P(nu)) == expected
        assert walk_value("plethysm", (P(lam), P(mu), P(nu))) == expected
        assert plethysm_matrix(P(lam), P(mu), P(nu)).rank() == expected


def test_matrix_json_schema_shape():
    mat = kronecker_matrix(P("2"), P("2"), P("2"))
    data = json.loads(mat.to_json())
    assert data["kind"] == "kronecker"
    assert data["partitions"] == [[2], [2], [2]]
    assert len(data["col_labels"]) == 8
    assert all(len(lab) == 3 for lab in data["col_labels"])
    assert data["entries"] == [[int(x) for x in mat.entries[0]]]


def test_plethysm_labels_are_flattened_word_tuples():
    mat = plethysm_matrix(P("2"), P("2"), P("4"))
    # m + 2 words per label: the slot words, the outer word, the big word
    assert all(len(lab) == 4 for lab in mat.row_labels)
    assert all(len(lab) == 4 for lab in mat.col_labels)


def test_coefficient_guard():
    with pytest.raises(ResourceLimitError):
        kronecker_matrix(P("2,2"), P("2,2"), P("2,2"), Limits(max_coefficient_n=3))


def small_triples(kind):
    """Kronecker n = 2..4 (unordered), LR l+m <= 4, plethysm l*m <= 4 with l, m < 4."""
    if kind == "kronecker":
        for n in range(2, 5):
            yield from itertools.combinations_with_replacement(partitions_of(n), 3)
    elif kind == "lr":
        for l, m in [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)]:
            yield from itertools.product(partitions_of(l), partitions_of(m), partitions_of(l + m))
    else:
        for l, m in [(1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]:
            yield from itertools.product(partitions_of(l), partitions_of(m), partitions_of(l * m))


BUILDERS = {"kronecker": kronecker_matrix, "lr": lr_matrix, "plethysm": plethysm_matrix}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_matrix_equals_dense_group_sum(kind):
    triples = list(small_triples(kind))
    assert len(triples) == {"kronecker": 49, "lr": 64, "plethysm": 46}[kind]
    for triple in triples:
        mat = BUILDERS[kind](*triple)
        rows, cols, entries = coefficient_matrix_oracle(kind, *triple)
        assert mat.row_labels == rows, triple
        assert mat.col_labels == cols, triple
        assert mat.entries.tolist() == entries, triple


@st.composite
def coefficient_triples(draw):
    kind = draw(st.sampled_from(["kronecker", "lr", "plethysm"]))
    if kind == "kronecker":
        n = draw(st.integers(1, 4))
        sizes = (n, n, n)
    elif kind == "lr":
        l = draw(st.integers(1, 3))
        m = draw(st.integers(1, 4 - l))
        sizes = (l, m, l + m)
    else:
        l, m = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (1, 4), (4, 1)]))
        sizes = (l, m, l * m)
    return kind, tuple(draw(st.sampled_from(partitions_of(k))) for k in sizes)


ORACLES = {"kronecker": kronecker_oracle, "lr": lr_oracle, "plethysm": plethysm_oracle}
VALUES = {"kronecker": kronecker_coefficient, "lr": lr_coefficient, "plethysm": plethysm_coefficient}


@settings(max_examples=60, deadline=None)
@given(coefficient_triples())
def test_coefficient_equals_matrix_rank_and_character_oracle(case):
    kind, triple = case
    expected = ORACLES[kind](*triple)
    assert VALUES[kind](*triple) == expected
    assert walk_value(kind, triple) == expected
    assert BUILDERS[kind](*triple).rank() == expected


def test_matrix_guard_counts_dense_cells_and_value_guard_does_not():
    # (2,1) has a 3 x 3 pairing matrix: 27 x 27 = 729 dense cells, but the
    # orbit walk holds 27-long columns, one per orbit
    limits = Limits(max_matrix_cells=200)
    p = P("2,1")
    with pytest.raises(ResourceLimitError, match="max_matrix_cells"):
        kronecker_matrix(p, p, p, limits)
    assert kronecker_coefficient(p, p, p, limits) == 1


def pullback_inputs(kind, n):
    """(labels, positions) pairs: three words under three permutations,
    every shape's row labels under S_n (what gram_column reads), or the
    hook's column labels under c^t for the long cycle c = (1 2 ... n) and
    each divisor t of n (what cyclic_orbit_structures reads), c^t relabeling
    by c^-t."""
    if kind == "words":
        return [([(1, 1, 2), (1, 2, 1), (2, 1, 1)], np.array([[0, 1, 2], [2, 0, 1], [1, 0, 2]]))]
    if kind == "rows":
        return [(specht_matrix(p).row_labels, symmetric_group(n)[0]) for p in partitions_of(n)]
    step = Permutation(tuple(range(2, n + 1)) + (1,)).inverse()
    power, rows = Permutation.identity(n), []
    for t in range(1, n + 1):
        power = power * step
        if n % t == 0:
            rows.append([i - 1 for i in power.images])
    return [(specht_matrix(Partition((2,) + (1,) * (n - 2))).col_labels, np.array(rows))]


@pytest.mark.parametrize(
    "kind,n",
    [("words", 3)] + [("rows", n) for n in range(1, 6)] + [("hook", n) for n in range(2, 10)],
)
def test_column_table_follows_the_position_pullback(kind, n):
    for labels, positions in pullback_inputs(kind, n):
        # row g holds the zero-based one-line images of a permutation p_g, and
        # g . w is Permutation.apply: result[k] = w[p_g(k)]
        table = action_table(labels, positions, Limits())
        if kind == "words":
            assert table.tolist() == [[0, 1, 2], [2, 0, 1], [0, 2, 1]]
        assert table.shape == (len(positions), len(labels))
        index = {w: c for c, w in enumerate(labels)}
        for p, row in zip(positions, table.tolist()):
            g = Permutation(tuple(int(x) + 1 for x in p))
            assert row == [index[g.apply(w)] for w in labels], (labels[0], g)


def test_column_table_refuses_codes_beyond_64_bits():
    word = tuple(range(1, 17))
    with pytest.raises(DomainError):
        action_table([word], np.arange(16)[None, :], Limits(max_matrix_cells=1))


def group_positions(kind, l, m):
    """Each factor's positions, one row per group element, built here from
    the definitions: S_n on all three factors; (sigma, tau) on the left,
    right and embedded factors; the wreath group's dots, slots and dots."""
    if kind == "kronecker":
        return [symmetric_group(l)[0]] * 3
    sigma, tau = symmetric_group(l)[0], symmetric_group(m)[0]
    if kind == "lr":
        pairs = list(itertools.product(sigma, tau))
        return [
            np.array([s for s, _ in pairs]),
            np.array([t for _, t in pairs]),
            np.array([np.concatenate([s, l + t]) for s, t in pairs]),
        ]
    dots, slots, _ = _wreath_group(sigma, *symmetric_group(m))
    return [dots, slots, dots]


def test_column_table_equals_permutation_apply_on_every_factor():
    # every factor of seeded setups: the three-slot tensor power (l, m) = (2, 3)
    # and LR's embedded sigma x tau action on its third factor among them.
    # Each case runs twice, so the second run reads kept tables
    rng = random.Random(13)
    pick = lambda *sizes: [rng.choice(partitions_of(k)) for k in sizes]
    cases = [("kronecker", pick(n, n, n)) for n in (3, 4, 4)]
    cases += [("lr", pick(l, m, l + m)) for l, m in ((2, 2), (3, 1), (1, 3))]
    cases += [("plethysm", pick(l, m, l * m)) for l, m in ((2, 2), (3, 2), (2, 3))]
    for kind, triple in cases * 2:
        factors, action = SETUPS[kind](*triple, Limits())
        tables, _ = action()
        positions = group_positions(kind, triple[0].n, triple[1].n)
        for f, p, table in zip(factors, positions, tables):
            words = [sum(lab, ()) if isinstance(lab[0], tuple) else lab for lab in f.col_labels]
            index = {w: c for c, w in enumerate(words)}
            assert not table.flags.writeable, triple
            assert table.shape == (len(p), len(words)), triple
            for g, row in zip(p, table.tolist()):
                perm = Permutation(tuple(int(x) + 1 for x in g))
                assert row == [index[perm.apply(w)] for w in words], (triple, g)


def test_plethysm_matrix_with_three_slots_equals_dense_group_sum():
    # three slots: the first wreath groups whose slot shuffles do not commute
    shapes = [P(nu) for nu in ("4,2", "3,2,1", "3,1,1,1", "2,2,2")]
    for triple in itertools.product(partitions_of(2), partitions_of(3), shapes):
        mat = plethysm_matrix(*triple)
        rows, cols, entries = coefficient_matrix_oracle("plethysm", *triple)
        assert (mat.row_labels, mat.col_labels) == (rows, cols), triple
        assert mat.entries.tolist() == entries, triple
        expected = plethysm_oracle(*triple)
        assert mat.rank() == expected, triple
        assert plethysm_coefficient(*triple) == walk_value("plethysm", triple) == expected, triple


@pytest.mark.parametrize("kind,triple", [
    ("kronecker", ("2,1", "2,1", "2,1")),
    ("lr", ("2,1", "1", "2,1,1")),
    ("plethysm", ("2", "2,1", "4,2")),
    ("plethysm", ("2,1", "2", "3,2,1")),
])
def test_factor_actions_form_one_group_action(kind, triple):
    # the orbit engine relies on g -> (action on every factor) being a group
    # action of the product: the composite of two elements is a third
    factors, action = SETUPS[kind](*map(P, triple), Limits())
    tables, weights = action()
    tables = list(tables)
    elements = {}
    for g in range(len(weights)):
        elements[tuple(np.concatenate([t[g] for t in tables]).tolist())] = int(weights[g])
    for g in range(len(weights)):
        for h in range(len(weights)):
            composite = tuple(np.concatenate([t[h][t[g]] for t in tables]).tolist())
            assert composite in elements
            assert elements[composite] == weights[g] * weights[h]


def test_coefficients_module_keeps_no_state():
    # tables are built per call; nothing may persist between calls
    import spechtkit.coefficients as module

    kronecker_coefficient(P("2,1"), P("2,1"), P("2,1"))
    state = [
        name
        for name, value in vars(module).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set, bytearray))
    ]
    assert state == []


def triples_up_to_4(kind):
    """Every triple whose largest partition has size at most 4."""
    if kind == "kronecker":
        sizes = [(n, n, n) for n in range(1, 5)]
    elif kind == "lr":
        sizes = [(l, m, l + m) for l in range(1, 4) for m in range(1, 5 - l)]
    else:
        sizes = [(l, m, l * m) for l in range(1, 5) for m in range(1, 5) if l * m <= 4]
    for size in sizes:
        yield from itertools.product(*map(partitions_of, size))


def walk_blocks(kind, triple, read):
    """Every block the orbit walk hands over, reading each factor by *read*."""
    factors, action = SETUPS[kind](*triple, Limits())
    tables, weights = action()
    blocks = []
    take = lambda *block: blocks.append(block)
    _orbit_walk([read(f) for f in factors], tables, weights, Limits(), take)
    return blocks


@pytest.mark.parametrize("kind", sorted(SETUPS))
def test_row_basis_value_equals_full_walk_and_oracle(kind):
    # M_f = B_f R_f with B_f injective, so the walk on the row bases R_f has
    # the rank of the walk on the full factors
    triples = list(triples_up_to_4(kind))
    assert len(triples) == {"kronecker": 161, "lr": 64, "plethysm": 97}[kind]
    for triple in triples:
        blocks = walk_blocks(kind, triple, lambda f: f.entries)
        expected = ORACLES[kind](*triple)
        assert int_rank(np.concatenate([b[0] for b in blocks]).tolist()) == expected, triple
        assert VALUES[kind](*triple) == walk_value(kind, triple) == expected, triple


@pytest.mark.parametrize("kind", sorted(SETUPS))
def test_orbit_map_is_the_same_on_row_bases_and_full_factors(kind):
    # summed on the full factors = (tensor of the B_f) summed on the row
    # bases, with the tensor injective: both walks hand over the same orbit
    # map block by block and cancel the same representatives
    cancelled = 0
    for triple in triples_up_to_4(kind):
        basis = walk_blocks(kind, triple, lambda f: f.row_basis)
        full = walk_blocks(kind, triple, lambda f: f.entries)
        assert len(basis) == len(full), triple
        for (low, *orbit_map), (high, *full_map) in zip(basis, full):
            for a, b in zip(orbit_map, full_map):
                assert np.array_equal(a, b), triple
            zero = ~low.any(axis=1)
            assert np.array_equal(zero, ~high.any(axis=1)), triple
            cancelled += int(zero.sum())
    assert cancelled == {"kronecker": 2981, "lr": 151, "plethysm": 221}[kind]


def joined(blocks):
    """The blocks of one walk joined in order, each *rep* shifted by the
    summed rows of the blocks before it."""
    offsets = np.cumsum([0] + [len(summed) for summed, *_ in blocks])
    return (
        np.concatenate([b[0] for b in blocks]),
        np.concatenate([b[1] for b in blocks]),
        np.concatenate([b[2] + offset for b, offset in zip(blocks, offsets)]),
        np.concatenate([b[3] for b in blocks]),
    )


@pytest.mark.parametrize("kind", sorted(SETUPS))
def test_walk_is_the_same_at_every_chunk_size(kind, monkeypatch):
    # a small _CHUNK cuts the runs of equal leading labels between passes,
    # and their parts must add up to the same summed columns.  _CHUNK also
    # sets the block length, so the walks are compared joined
    bases, full = (lambda f: f.row_basis), (lambda f: f.entries)
    walks = [(t, read) for t in triples_up_to_4(kind) for read in (bases, full)]
    if kind == "kronecker":
        walks.append(((P("3,1,1"),) * 3, bases))
    default = [joined(walk_blocks(kind, t, read)) for t, read in walks]
    for chunk in (1, 5, 64):
        monkeypatch.setattr(coefficients, "_CHUNK", chunk)
        for (triple, read), expected in zip(walks, default):
            got = joined(walk_blocks(kind, triple, read))
            for a, b in zip(got, expected):
                assert np.array_equal(a, b), (chunk, triple, read is bases)
        if kind == "kronecker":
            assert kronecker_coefficient(*walks[-1][0]) == kronecker_oracle(*walks[-1][0]) == 1


def test_frontier_value_walk_stays_under_its_memory_bound():
    # the bound of the _orbit_walk docstring, with the matrices, tables and
    # row bases warm: the walk's temporaries hold _CHUNK entries at most
    p, limits = P("3,2,1"), Limits(max_coefficient_n=6)
    assert kronecker_coefficient(p, p, p, limits) == 5
    tracemalloc.start()
    try:
        assert kronecker_coefficient(p, p, p, limits) == 5
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20  # about 20 MiB


@pytest.mark.parametrize("kind", sorted(SETUPS))
def test_walk_starts_at_the_first_factors_first_label(kind):
    # every group is transitive on the first factor's labels, so each
    # representative has first label 0; under the trivial character no orbit
    # cancels, and the orbits handed over cover every column exactly once
    for triple in triples_up_to_4(kind):
        factors, action = SETUPS[kind](*triple, Limits())
        tables, weights = action()
        tables = list(tables)
        n_cols = prod(f.shape[1] for f in factors)
        first = n_cols // factors[0].shape[1]  # the columns with first label 0
        for trivial in (False, True):
            blocks = []
            take = lambda summed, js, rep, g: blocks.append((js, rep))
            w = np.ones_like(weights) if trivial else weights
            _orbit_walk([f.row_basis for f in factors], tables, w, Limits(), take)
            handed = np.concatenate([js for js, _ in blocks])
            assert len(np.unique(handed)) == len(handed), triple
            if trivial:
                assert np.array_equal(np.sort(handed), np.arange(n_cols)), triple
            # each orbit's columns come sorted, its representative first
            reps = np.concatenate([js[np.diff(rep, prepend=-1) != 0] for js, rep in blocks])
            assert (reps < first).all(), triple


def test_walk_refuses_a_group_not_transitive_on_the_first_factor():
    p = P("2,1")
    factors, action = _kronecker_setup(p, p, p, Limits())
    tables, weights = action()
    tables = list(tables)
    fixed = np.tile(np.arange(3), (len(weights), 1))  # every element fixes factor 1
    tables[0] = action_table(factors[0].col_labels, fixed, Limits())
    with pytest.raises(ValueError, match="transitive"):
        _orbit_walk([f.row_basis for f in factors], tables, weights, Limits(), lambda *block: None)


def test_rule_zero_answers_read_no_group_array(monkeypatch):
    def refuse(what):
        def read(self):
            raise AssertionError(f"{what} of {self.partition} read")

        return property(read)

    walked = {kind: [t for t in small_triples(kind) if not VANISHES[kind](*t)] for kind in SETUPS}
    for kind, triples in walked.items():
        for triple in triples:  # every table, group and power they read is kept now
            VALUES[kind](*triple)
    monkeypatch.setattr(SpechtMatrix, "symmetric_group", refuse("group arrays"))
    monkeypatch.setattr(SpechtMatrix, "derived", refuse("kept values"))
    # the plethysm's 5040-element wreath group is checked, never built
    assert plethysm_coefficient(P("1"), P("1,1,1,1,1,1,1"), P("7")) == 0
    for kind in sorted(SETUPS):
        zeros = [t for t in small_triples(kind) if VANISHES[kind](*t)]
        assert zeros, kind
        for triple in zeros:
            assert VALUES[kind](*triple) == 0, triple
        # the walk reads its kept tables, and the group arrays where it keeps none
        for triple in walked[kind]:
            with pytest.raises(AssertionError, match="group arrays|kept values"):
                VALUES[kind](*triple)


def test_tensor_power_row_basis_is_the_power_of_the_base_row_basis():
    factor = _TensorPowerFactor(specht_matrix(P("2,1")), 2)
    dense, basis = factor.entries.tolist(), factor.row_basis.tolist()
    indices = [dense.index(row) for row in basis]
    assert indices == sorted(set(indices))
    assert len(basis) == int_rank(basis) == int_rank(dense) == 4


def test_plethysm_value_path_builds_no_dense_tensor_power(monkeypatch):
    def refuse(self):
        raise AssertionError("dense tensor power read on the value path")

    monkeypatch.setattr(_TensorPowerFactor, "entries", property(refuse))
    for triple in [("2,1", "2", "3,2,1"), ("2", "2,1", "4,2"), ("1,1", "3", "2,2,1,1")]:
        triple = tuple(map(P, triple))
        assert plethysm_coefficient(*triple) == plethysm_oracle(*triple)
        assert walk_value("plethysm", triple) == plethysm_oracle(*triple)


def test_kronecker_at_n_6_under_raised_limits():
    limits = Limits(max_coefficient_n=6, max_group_order=1000, max_matrix_cells=10**9)
    triple = (P("2,2,1,1"), P("3,2,1"), P("3,2,1"))
    assert kronecker_coefficient(*triple, limits) == kronecker_oracle(*triple) == 3
    assert walk_value("kronecker", triple, limits) == 3


def conjugate_variants(kind, lam, mu, nu):
    """The triples whose coefficient equals that of (lam, mu, nu), because
    S^lam' = S^lam (x) sgn: the walk of each must give the same rank."""
    c = Partition.conjugate
    if kind == "kronecker":
        return [(lam, mu, nu), (c(lam), c(mu), nu), (c(lam), mu, c(nu)), (lam, c(mu), c(nu))]
    if kind == "lr":
        return [(lam, mu, nu), (c(lam), c(mu), c(nu))]
    # omega(s_mu[s_lam]) = s_mu[s_lam'] for |lam| even, s_mu'[s_lam'] for odd
    return [(lam, mu, nu), (c(lam), mu if lam.n % 2 == 0 else c(mu), c(nu))]


@pytest.mark.parametrize("kind", sorted(SETUPS))
def test_value_equals_the_walk_of_every_conjugate_variant_and_the_oracle(kind):
    triples = list(small_triples(kind))
    if kind == "kronecker":
        triples += itertools.combinations_with_replacement(partitions_of(5), 3)
    assert len(triples) == {"kronecker": 133, "lr": 64, "plethysm": 46}[kind]
    for triple in triples:
        expected = ORACLES[kind](*triple)
        assert VALUES[kind](*triple) == expected, triple
        for variant in conjugate_variants(kind, *triple):
            setup = SETUPS[kind](*variant, Limits())
            assert _coefficient(*setup, Limits()) == expected, (triple, variant)


def test_value_path_walks_the_variant_with_fewest_columns(monkeypatch):
    # record the factors' partitions and column product of every value walk
    walked = []
    walk = coefficients._coefficient

    def record(factors, action, limits):
        shapes = tuple(str(getattr(f, "base", f).partition) for f in factors)
        walked.append((shapes, prod(f.shape[1] for f in factors)))
        return walk(factors, action, limits)

    monkeypatch.setattr(coefficients, "_coefficient", record)
    # (5)^3 has 120^3 columns, (1^5),(1^5),(5) has 120
    assert kronecker_coefficient(P("5"), P("5"), P("5")) == 1
    # h2[h3] has 6^2 * 2 * 720 columns, e2[e3] one; |lam| = 3 is odd, so mu
    # is conjugated too
    assert plethysm_coefficient(P("3"), P("2"), P("6")) == 1
    # c^(3,2,1)_(2,1),(2,1) is self-conjugate: a tie keeps the triple given
    assert lr_coefficient(P("2,1"), P("2,1"), P("3,2,1")) == 2
    # (3,1),(2,1,1),(1^4) ties (2,1,1),(3,1),(1^4) at 12 * 4 * 1 columns
    assert kronecker_coefficient(P("3,1"), P("2,1,1"), P("1,1,1,1")) == 1
    assert walked == [
        (("1,1,1,1,1", "1,1,1,1,1", "5"), 120),
        (("1,1,1", "1,1", "1,1,1,1,1,1"), 1),
        (("2,1", "2,1", "3,2,1"), 3 * 3 * 60),
        (("3,1", "2,1,1", "1,1,1,1"), 48),
    ]


def test_kronecker_4_2_4_2_4_1_1_answers_under_the_default_cells_guard():
    # as given, the walk holds more than max_matrix_cells and was refused
    # after seconds; (2,2,1,1),(2,2,1,1),(4,1,1) walks 15 * 15 * 120 columns
    triple = (P("4,2"), P("4,2"), P("4,1,1"))
    limits = Limits(max_coefficient_n=6)
    assert limits.max_matrix_cells == Limits().max_matrix_cells
    assert kronecker_coefficient(*triple, limits) == kronecker_oracle(*triple) == 1


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_value_path_admits_whatever_the_matrix_path_admits(kind, monkeypatch):
    # the value path may walk a conjugate variant with a factor larger than
    # any of the triple given; it must still fit the cells of the dense matrix
    requested = []
    require = Limits.require

    def record(self, name, value):
        if name == "max_matrix_cells":
            requested.append(value)
        require(self, name, value)

    for triple in small_triples(kind):
        requested.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Limits, "require", record)
            BUILDERS[kind](*triple)
        limits = Limits(max_matrix_cells=max(requested))
        assert VALUES[kind](*triple, limits) == ORACLES[kind](*triple), triple
        assert walk_value(kind, triple, limits) == ORACLES[kind](*triple), triple


def test_value_path_takes_no_factorial_past_the_cells_guard(monkeypatch):
    # a size whose n! passes max_matrix_cells is refused by every setup, so
    # choosing a variant for it must not cost more than the refusal
    def bounded(n):
        assert n <= 100, n
        return factorial(n)

    monkeypatch.setattr(coefficients, "factorial", bounded)
    big = P("1000000")
    with pytest.raises(ResourceLimitError, match="max_coefficient_n"):
        kronecker_coefficient(big, big, big)
    with pytest.raises(ResourceLimitError, match="max_coefficient_n"):
        lr_coefficient(big, P("1"), P("1000001"))
    with pytest.raises(ResourceLimitError, match="max_matrix_cells"):
        plethysm_coefficient(P("2"), P("10000"), P("20000"))


VANISHES = {"kronecker": _kronecker_vanishes, "lr": _lr_vanishes, "plethysm": _plethysm_vanishes}


def sized_triples(kind, size):
    """Kronecker n <= size (unordered: the rule is symmetric), LR l + m <= size,
    plethysm l*m <= size."""
    if kind == "kronecker":
        for n in range(1, size + 1):
            yield from itertools.combinations_with_replacement(partitions_of(n), 3)
    elif kind == "lr":
        for l, m in itertools.product(range(1, size), repeat=2):
            if l + m <= size:
                yield from itertools.product(partitions_of(l), partitions_of(m), partitions_of(l + m))
    else:
        for l, m in itertools.product(range(1, size + 1), repeat=2):
            if l * m <= size:
                yield from itertools.product(partitions_of(l), partitions_of(m), partitions_of(l * m))


@pytest.mark.parametrize("kind,size,answered", [
    ("kronecker", 7, 538),
    ("lr", 7, 1284),
    ("plethysm", 8, 1982),
])
def test_support_rules_answer_only_oracle_zeros(kind, size, answered):
    # a false zero fails the oracle; a weakened rule answers fewer triples
    zeros = [t for t in sized_triples(kind, size) if VANISHES[kind](*t)]
    assert len(zeros) == answered
    for triple in zeros:
        assert ORACLES[kind](*triple) == 0, triple


@pytest.mark.parametrize("kind", sorted(SETUPS))
def test_support_rules_run_after_every_setup_check(kind, monkeypatch):
    # on a rule-zero triple the value path checks the guards the walk would,
    # in the same order, up to where the walk begins
    def guards(triple, rule):
        checked = []
        require = Limits.require

        def record(self, name, value):
            checked.append((name, value))
            require(self, name, value)

        with monkeypatch.context() as patch:
            patch.setattr(Limits, "require", record)
            if not rule:
                patch.setattr(coefficients, f"_{kind}_vanishes", lambda *triple: False)
            assert VALUES[kind](*triple) == 0, triple
        return checked

    zeros = [t for t in small_triples(kind) if VANISHES[kind](*t)]
    assert zeros
    for triple in zeros:
        ruled, walked = guards(triple, True), guards(triple, False)
        assert ruled == walked[: len(ruled)] and len(ruled) < len(walked), triple


def test_support_rules_keep_the_setup_refusals():
    six, one = P("6"), P("1,1,1,1,1,1")
    assert _kronecker_vanishes(six, six, one)
    with pytest.raises(ResourceLimitError, match="max_coefficient_n: requested 6"):
        kronecker_coefficient(six, six, one)
    assert kronecker_coefficient(six, six, one, Limits(max_coefficient_n=6)) == 0
    with pytest.raises(DomainError, match="same size"):
        kronecker_coefficient(six, six, P("5"))
    triple = (P("1"), P("1,1,1,1,1,1,1"), P("7"))
    assert _plethysm_vanishes(*triple)
    with pytest.raises(ResourceLimitError, match="max_group_order: requested 5040"):
        plethysm_coefficient(*triple, Limits(max_group_order=5039))
    with pytest.raises(DomainError, match="l \\+ m"):
        lr_coefficient(P("3"), P("3"), P("1,1,1,1,1"))


def run_fresh(script, *args, flags=()):
    """Standard output of *script* run with *args* in a fresh interpreter,
    started with *flags*, that imports this checkout's spechtkit."""
    src = os.path.dirname(os.path.dirname(spechtkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, *flags, "-c", script, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_coefficient_jobs_import_no_numpy_ma():
    # numpy.ma costs about 15 ms to import; np.unique on numpy 2.4 imports it
    script = """
import sys
import spechtkit.cli
from spechtkit.coefficients import (
    kronecker_coefficient, kronecker_matrix, lr_coefficient, plethysm_coefficient,
)
from spechtkit.combinatorics import Partition

P = Partition.parse
assert kronecker_coefficient(P("2,1"), P("2,1"), P("2,1")) == 1
assert lr_coefficient(P("2,1"), P("1"), P("2,1,1")) == 1
assert plethysm_coefficient(P("2"), P("2"), P("2,2")) == 1
assert kronecker_matrix(P("2,1"), P("2,1"), P("2,1")).rank() == 1
print("numpy.ma" in sys.modules)
"""
    # each triple is walked, not answered by a support rule
    for kind, triple in [("kronecker", "2,1 2,1 2,1"), ("lr", "2,1 1 2,1,1"), ("plethysm", "2 2 2,2")]:
        assert not VANISHES[kind](*map(P, triple.split()))
    assert run_fresh(script) == "False\n"


CHECKED_CALL = """
import json, sys
from spechtkit import coefficients
from spechtkit.combinatorics import Partition
from spechtkit.config import Limits
from spechtkit.errors import ResourceLimitError


def checked_call(kind, triple, cells):
    \"\"\"The value or refusal text of the coefficient under max_matrix_cells
    = cells, and every (guard, number) it checked, in order.\"\"\"
    checked = []

    class Recorded(Limits):
        def require(self, name, value):
            checked.append([name, value])
            super().require(name, value)

    try:
        value = getattr(coefficients, kind + "_coefficient")(
            *map(Partition.parse, triple), Recorded(max_matrix_cells=cells)
        )
    except ResourceLimitError as exc:
        return str(exc), checked
    return str(value), checked


if __name__ == "__main__":
    print(json.dumps(checked_call(*json.loads(sys.argv[1]))))
"""


@pytest.mark.parametrize("kind,triple", [
    ("kronecker", ("2,1,1", "2,2", "2,1,1")),
    ("lr", ("2,1", "1,1", "2,2,1")),
    # (3,1,1) has 400 cells and a 480-cell table: the limit 479 admits every
    # check before the tables, so it reaches kept LR tables (the first LR
    # triple's limits are all refused before them)
    ("lr", ("2,1,1", "1", "3,1,1")),
    ("plethysm", ("2,1", "1,1", "3,2,1")),
])
def test_kept_tables_are_refused_as_a_fresh_process_refuses_them(kind, triple, monkeypatch):
    # each triple is the conjugate variant with the fewest columns, so every
    # limit below walks it as given.  Walk at the defaults, recording the two
    # max_matrix_cells numbers each table is checked against: its cells and
    # its code count
    assert not VANISHES[kind](*map(P, triple))
    counts = []
    kept_tables = specht.kept_tables

    def record(factors, group, roles, positions, limits):
        for f, table in zip(factors, kept_tables(factors, group, roles, positions, limits)):
            word = np.ravel(f.col_labels[0])
            counts.extend([table.size, int(word.max()) ** len(word)])
            yield table

    with monkeypatch.context() as patch:
        patch.setattr(coefficients, "kept_tables", record)
        value = VALUES[kind](*map(P, triple))
    assert value == ORACLES[kind](*map(P, triple)) and len(counts) == 6
    # every table is kept now; one below each count, this process refuses
    # with the text, and after the checks, of a process that keeps nothing
    namespace = {}
    exec(CHECKED_CALL, namespace)

    def build(*args):
        raise AssertionError("a table was built, not read")

    for cells in sorted(set(counts)):
        with monkeypatch.context() as patch:
            patch.setattr(specht, "action_table", build)
            warm = namespace["checked_call"](kind, triple, cells - 1)
        assert warm[0].startswith("max_matrix_cells: requested"), (cells, warm)
        cold = run_fresh(CHECKED_CALL, json.dumps([kind, triple, cells - 1]))
        assert json.loads(cold) == list(warm), cells


def test_kept_values_stay_on_the_memoised_matrices():
    p = P("2,1")
    kronecker_coefficient(p, p, p)
    plethysm_coefficient(p, P("2"), P("3,2,1"))
    mat = specht_matrix(p)
    table, codes = mat.derived[("S_n", "diagonal")]
    assert table.shape == (6, 3) and codes == 2**3 and not table.flags.writeable
    basis = mat.derived[("row basis",)]
    assert basis.tolist() == list(map(list, mat.row_basis)) and not basis.flags.writeable
    factor = _TensorPowerFactor(mat, 2)
    assert factor.row_basis is factor.row_basis and not factor.row_basis.flags.writeable
    # the power's row basis is its own, never the base's
    assert factor.row_basis.shape == (4, 9) and basis.shape == (2, 3)
    assert factor.col_labels is factor.col_labels is mat.derived[("power col_labels", 2)]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_matrix_rank_equals_int_rank_of_every_row(kind):
    for triple in triples_up_to_4(kind):
        mat = BUILDERS[kind](*triple)
        assert mat.rank() == int_rank(mat.entries.tolist()), triple


def test_rank_hands_int_rank_the_distinct_normalised_rows(monkeypatch):
    # seeded int64 matrices with zero, repeated, negated and scaled rows: the
    # rows handed to int_rank are the nonzero rows normalised as RowSpace
    # normalises them, each once, in first-seen order
    handed = []
    monkeypatch.setattr(
        coefficients, "int_rank", lambda rows, dim: handed.append(rows) or int_rank(rows, dim)
    )
    rng = random.Random(29)
    for _ in range(300):
        width = rng.randint(1, 7)
        rows = []
        for _ in range(rng.randint(1, 12)):
            pick = rng.choice(["zero", "new", "new", "repeat", "negate", "scale"])
            if pick == "zero":
                rows.append([0] * width)
            elif pick == "new" or not rows:
                rows.append([rng.randint(-4, 4) for _ in range(width)])
            else:
                row = rng.choice(rows)
                factor = {"repeat": 1, "negate": -1}.get(pick) or rng.choice([-6, -3, -2, 2, 3, 5])
                rows.append([factor * x for x in row])
        entries = np.array(rows, dtype=np.int64)
        mat = LabeledCoefficientMatrix("kronecker", (), (), (), entries)
        assert mat.rank() == int_rank(rows), rows
        normalised = [r for r in map(_normalize, rows) if r is not None]
        assert list(map(tuple, handed[-1])) == list(dict.fromkeys(normalised)), rows
