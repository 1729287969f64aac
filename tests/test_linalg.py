import random

from hypothesis import given, settings
from hypothesis import strategies as st

from spechtkit.linalg import RowSpace, _normalize, int_rank, scaled_inverse

vectors = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(tuple)


@settings(max_examples=100, deadline=None)
@given(st.lists(vectors, max_size=4), vectors, st.integers(1, 3), st.integers(0, 2**32))
def test_residue_kills_the_span_and_is_canonical(basis, vec, scale, seed):
    space = RowSpace(4)
    for b in basis:
        space.add(b)
    # stored rows vanish at the pivot columns of the rows stored before them
    for k, (_, row) in enumerate(space.pivots):
        assert all(row[col] == 0 for col, _ in space.pivots[:k])
    residue = space.reduce(vec)
    if residue is None:
        return
    assert all(residue[col] == 0 for col, _ in space.pivots)
    # a nonzero multiple of vec plus any span element has the same residue
    rng = random.Random(seed)
    shifted = [scale * x for x in vec]
    for b in basis:
        c = rng.randint(-2, 2)
        shifted = [x + c * y for x, y in zip(shifted, b)]
    assert space.reduce(shifted) == residue
    assert space.reduce([-x for x in shifted]) == residue
    # and adding the residue gives the span of the basis and vec
    grown = space.copy()
    grown.add(residue)
    assert grown.rank == space.rank + 1
    assert grown.contains(vec) and not space.contains(vec)


def test_normalize():
    assert _normalize([0, -2, 4]) == (0, 1, -2)
    assert _normalize([0, 0]) is None


def test_int_rank_stops_once_the_rank_is_dim():
    # a row after the rank reaches dim is never reduced
    assert int_rank([(1, 0, 0), (0, 1, 0), (0, 0, 1), ("not", "a", "row")]) == 3
    assert int_rank([(1, 1), (2, 2), (0, 1)], 2) == 2
    assert int_rank([(1, 1, 0), (2, 2, 0)]) == 1


def test_scaled_inverse_on_seeded_invertible_matrices():
    rng = random.Random(9)
    tried = 0
    while tried < 200:
        k = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        if int_rank(m, k) < k:
            continue
        tried += 1
        a, s = scaled_inverse(m)
        assert s > 0
        product = [[sum(a[i][l] * m[l][j] for l in range(k)) for j in range(k)] for i in range(k)]
        assert product == [[s * (i == j) for j in range(k)] for i in range(k)]
