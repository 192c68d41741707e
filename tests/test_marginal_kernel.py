"""The dense marginalization kernel against a pure-Python strict fold.

Property tests over small random tables with size-1 axes and zero cells:
every keep subset's dense marginal must equal, bit for bit, a left fold
from 0.0 in ascending mixed-radix state order, and the sparse marginal of
the same table. Small fold chunks drive the chunked path on small tables.
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
    chunk=st.sampled_from([1, 3, 7, distribution._FOLD_CHUNK]),
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
    with mock.patch.object(distribution, "_FOLD_CHUNK", chunk):
        for size in range(1, n):
            for keep in itertools.combinations(range(n), size):
                got = marginalize(dense, keep).dense_table()
                assert got.tobytes() == lex_fold_marginal(table, keep).tobytes()
                assert got.tobytes() == (
                    marginalize(sparse, keep).dense_table().tobytes())


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=50),
    chunk=st.sampled_from([1, 2, 5, distribution._FOLD_CHUNK]),
)
def test_fold_is_strict_left_to_right(values, chunk):
    expected = 0.0
    for v in values:
        expected += v
    with mock.patch.object(distribution, "_FOLD_CHUNK", chunk):
        assert distribution._fold(np.array(values, dtype=np.float64)) == expected
