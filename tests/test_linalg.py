import random
from math import gcd

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
    grown = RowSpace(4)
    for b in basis + [residue]:
        grown.add(b)
    assert grown.rank == space.rank + 1
    assert grown.contains(vec) and not space.contains(vec)


def test_normalize():
    assert _normalize([0, -2, 4]) == (0, 1, -2)
    assert _normalize([0, 0]) is None
    assert _normalize([]) is None and _normalize(()) is None
    primitive = (0, 3, -5)
    assert _normalize(primitive) is primitive  # returned undivided


rows = st.lists(st.integers(-40, 40), max_size=6)


@settings(max_examples=300, deadline=None)
@given(rows, st.integers(-6, 6).filter(bool), st.booleans())
def test_normalize_gives_the_primitive_multiple_with_a_positive_lead(row, scale, as_tuple):
    # scaling gives gcd > 1 and negative leads; zero rows come from row = [0, ...]
    row = [scale * x for x in row]
    arg = tuple(row) if as_tuple else list(row)
    out = _normalize(arg)
    assert arg == (tuple(row) if as_tuple else row)  # the input is left as it was
    if not any(row):
        assert out is None
        return
    assert type(out) is tuple and len(out) == len(row)
    assert gcd(*out) == 1
    lead = next(i for i, x in enumerate(out) if x)
    assert out[lead] > 0 and next(i for i, x in enumerate(row) if x) == lead
    # a rational multiple: out = (out[lead] / row[lead]) * row
    assert all(x * row[lead] == y * out[lead] for x, y in zip(out, row))


def _normalize_by_loop(row):
    """The gcd taken one entry at a time, as the kernel once did."""
    g = 0
    for x in row:
        g = gcd(g, x)
        if g == 1:
            break
    if g == 0:
        return None
    if next(x for x in row if x != 0) < 0:
        g = -g
    return tuple(x // g for x in row)


def _reduce_by_index_loop(pivots, dim, vec):
    """Elimination with an index loop over range(dim), as the kernel once did."""
    row = list(vec)
    for col, piv in pivots:
        c = row[col]
        if c:
            p = piv[col]
            for i in range(dim):
                row[i] = p * row[i] - c * piv[i]
    return _normalize_by_loop(row)


def test_reduce_equals_the_index_loop_elimination():
    rng = random.Random(20)
    for _ in range(400):
        dim = rng.randint(0, 7)
        space = RowSpace(dim)
        pivots = []  # the echelon rows the index loop builds
        spread = rng.choice([1, 3, 50, 10**6])
        vectors = [[rng.randint(-spread, spread) for _ in range(dim)] for _ in range(rng.randint(0, 9))]
        # some vectors in the span of earlier ones, some multiples
        for _ in range(rng.randint(0, 3)):
            if vectors:
                a, b = rng.choice(vectors), rng.choice(vectors)
                vectors.append([rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(a, b)])
        rng.shuffle(vectors)
        for vec in vectors:
            want = _reduce_by_index_loop(pivots, dim, vec)
            assert space.reduce(vec) == want
            assert space.reduce(tuple(vec)) == want
            assert space.add(vec) == (want is not None)
            if want is not None:
                pivots.append((next(i for i, x in enumerate(want) if x), want))
            assert space.pivots == pivots


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
