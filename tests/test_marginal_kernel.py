"""The dense marginalization kernel against a pure-Python strict fold.

Property tests over small random tables with size-1 axes and zero cells:
every keep subset's dense marginal must equal, bit for bit, a left fold
from 0.0 in ascending mixed-radix state order, and the sparse marginal of
the same table. The fold and its blocks are checked the same way on N-d
arrays and non-contiguous views. Small blocks drive the blocked paths on
small tables.
"""

import itertools
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import hoinfo.distribution as distribution
import support
from hoinfo import marginalize

cardinalities = st.lists(
    st.integers(1, 4), min_size=2, max_size=6
).filter(lambda cards: math.prod(cards) <= 1024)


def lex_fold_marginal(table: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Marginal of ``table`` over ``keep``, one Python float add per cell."""
    out = np.zeros([table.shape[i] for i in keep])
    acc: dict[tuple[int, ...], float] = {}
    for state in itertools.product(*(range(c) for c in table.shape)):
        sub = tuple(state[i] for i in keep)
        acc[sub] = acc.get(sub, 0.0) + float(table[state])
    for sub, mass in acc.items():
        out[sub] = mass
    return out


@settings(max_examples=60, deadline=None)
@given(
    cards=cardinalities,
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.8]),
    chunk=st.sampled_from([1, 3, 7, distribution._BLOCK]),
)
@example(cards=[2, 2], seed=0, zero_share=0.3, chunk=1)  # n_drop == n_keep
@example(cards=[4, 2, 2], seed=1, zero_share=0.0, chunk=3)  # 4 == 4 for keep (0,)
@example(cards=[1, 3, 1, 2], seed=2, zero_share=0.3, chunk=2)
def test_dense_marginals_equal_lex_fold_and_sparse(cards, seed, zero_share,
                                                   chunk):
    dense = support.random_table(cards, seed, zero_share)
    sparse = dense.to_sparse()
    table = dense.dense_table()
    n = len(cards)
    with mock.patch.object(distribution, "_BLOCK", chunk):
        for size in range(1, n):
            for keep in itertools.combinations(range(n), size):
                got = marginalize(dense, keep).dense_table()
                assert got.tobytes() == lex_fold_marginal(table, keep).tobytes()
                assert got.tobytes() == (
                    marginalize(sparse, keep).dense_table().tobytes())


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=50),
    chunk=st.sampled_from([1, 2, 5, distribution._BLOCK]),
)
def test_fold_is_strict_left_to_right(values, chunk):
    expected = 0.0
    for v in values:
        expected += v
    with mock.patch.object(distribution, "_BLOCK", chunk):
        assert distribution._fold(np.array(values, dtype=np.float64)) == expected


def python_fold(values: np.ndarray, acc: float) -> float:
    """Left fold from ``acc`` over ``values`` in row-major order."""
    for v in values.ravel().tolist():
        acc += v
    return acc


nd_shapes = st.lists(st.integers(1, 5), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    shape=nd_shapes,
    seed=st.integers(0, 2**32 - 1),
    transpose=st.booleans(),
    acc=st.sampled_from([0.0, 0.3, -2.5, 2.0**52]),
    block=st.sampled_from([1, 2, 5, distribution._BLOCK]),
)
@example(shape=[1, 3, 1, 2], seed=0, transpose=True, acc=0.3, block=2)
@example(shape=[4, 1, 5], seed=1, transpose=False, acc=-2.5, block=5)
@example(shape=[1], seed=2, transpose=False, acc=2.0**52, block=1)
def test_fold_of_nd_views_is_strict_left_to_right(shape, seed, transpose, acc,
                                                  block):
    values = np.random.default_rng(seed).random(shape)
    if transpose:  # a non-contiguous view (unless at most one axis is long)
        values = values.T
    with mock.patch.object(distribution, "_BLOCK", block):
        assert distribution._fold(values, acc) == python_fold(values, acc)


@settings(max_examples=60, deadline=None)
@given(shape=nd_shapes, block=st.sampled_from([1, 2, 5, 7, 64]))
def test_blocks_cover_an_array_in_row_major_order(shape, block):
    values = np.arange(math.prod(shape), dtype=np.float64).reshape(shape).T
    with mock.patch.object(distribution, "_BLOCK", block):
        parts = [values[index] for index in distribution._blocks(values.shape)]
    assert all(part.size <= block for part in parts)
    cells = np.concatenate([part.reshape(-1) for part in parts])
    assert cells.tobytes() == values.reshape(-1).tobytes()
