"""Property tests on random integer column configurations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from spechtkit.chow import chow_graded_dimensions
from spechtkit.matroid import LinearMatroid
from spechtkit.oracles import (
    characteristic_from_tutte,
    chow_dims_quotient_oracle,
    flats_oracle,
    tutte_deletion_contraction_oracle,
)


@st.composite
def configurations(draw, max_rank=4):
    """At most nine integer columns, often with more rows than rank.

    Columns are drawn in Z^k and mapped into Z^d, d >= k, by a random integer
    matrix; zero columns and multiples of earlier columns are mixed in.
    """
    k = draw(st.integers(0, max_rank))
    d = draw(st.integers(max(k, 1), 5))
    entry = st.integers(-2, 2)
    cols: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["random", "zero", "multiple"]))
        if kind == "zero":
            cols.append((0,) * k)
        elif kind == "multiple" and cols:
            base = draw(st.sampled_from(cols))
            scale = draw(st.sampled_from([-2, -1, 2, 3]))
            cols.append(tuple(scale * x for x in base))
        else:
            cols.append(draw(st.tuples(*[entry] * k)))
    amap = [draw(st.tuples(*[entry] * k)) for _ in range(d)]
    return [tuple(sum(a * x for a, x in zip(row, c)) for row in amap) for c in cols]


def matroid(cols):
    return LinearMatroid(tuple(range(len(cols))), cols)


@settings(max_examples=100, deadline=None)
@given(configurations())
def test_flats_match_oracle(cols):
    m = matroid(cols)
    masks = m._flat_masks()
    assert {frozenset(i for i in range(m.size) if x >> i & 1) for x in masks} == flats_oracle(cols)
    assert masks == sorted(masks, key=lambda x: (m._rank_mask(x), x))
    assert all(m._flat_ranks[x] == m._rank_mask(x) for x in masks)


@settings(max_examples=100, deadline=None)
@given(configurations())
def test_tutte_strategies_agree(cols):
    m = matroid(cols)
    subsets = m.tutte_polynomial("subsets")
    assert m.tutte_polynomial("flats") == subsets
    assert tutte_deletion_contraction_oracle(cols) == subsets
    assert m.characteristic_polynomial() == characteristic_from_tutte(subsets, m.rank())


# rank 3 at most: the quotient-ring oracle takes seconds on rank-4 cases
@settings(max_examples=100, deadline=None)
@given(configurations(max_rank=3))
def test_chow_dimensions_match_quotient_ring(cols):
    m = matroid(cols)
    assert chow_graded_dimensions(m) == chow_dims_quotient_oracle(m)
