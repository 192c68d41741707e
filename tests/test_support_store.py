"""The code-and-mass support store against the dict reference algorithms.

Property tests over small random tables: sparse construction with
duplicate states in shuffled order, every keep subset of a sparse
marginal, and sparse, dense and mixed products must equal the
``state -> mass`` dict algorithms in ``support`` bit for bit.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

import support
from hoinfo import EstimatorConfig, build_distribution, marginalize, product

cardinalities = st.lists(
    st.integers(1, 4), min_size=1, max_size=5
).filter(lambda cards: math.prod(cards) <= 256)

# masses spread over many binades, so a different summation order would
# show in the last bits
masses = st.floats(1e-6, 1.0).map(lambda x: x ** 3)


@settings(max_examples=80, deadline=None)
@given(cards=cardinalities, data=st.data())
def test_build_sums_duplicates_like_dict(cards, data):
    states = list(itertools.product(*(range(c) for c in cards)))
    base = data.draw(st.lists(
        st.tuples(st.sampled_from(states), masses), min_size=1, max_size=30))
    repeats = data.draw(st.lists(
        st.tuples(st.sampled_from([s for s, _ in base]), masses), max_size=30))
    entries = data.draw(st.permutations(base + repeats))
    summed = support.dict_build(entries)
    total = 0.0
    for m in summed.values():
        total += m
    expected = {s: m / total for s, m in summed.items()}
    configs = [EstimatorConfig()]
    if len(expected) < math.prod(cards):  # the support fits a sparse store
        configs.append(EstimatorConfig(max_dense_states=len(expected)))
    for cfg in configs:
        got = build_distribution(cards, entries, cfg, renormalize=True)
        assert got.representation == (
            "dense" if cfg.max_dense_states >= math.prod(cards) else "sparse")
        assert dict(got.items()) == expected


@settings(max_examples=60, deadline=None)
@given(cards=cardinalities, seed=st.integers(0, 2**32 - 1))
def test_sparse_marginals_equal_dict_fold(cards, seed):
    sparse = support.random_table(cards, seed, 0.5).to_sparse()
    pmf = dict(sparse.items())
    for size in range(1, len(cards)):
        for keep in itertools.combinations(range(len(cards)), size):
            got = marginalize(sparse, keep)
            assert got.representation == "sparse"
            assert dict(got.items()) == support.dict_marginal(pmf, keep)


@settings(max_examples=60, deadline=None)
@given(cards_a=cardinalities, cards_b=cardinalities,
       seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
def test_products_equal_dict_product(cards_a, cards_b, seeds):
    a = support.random_table(cards_a, seeds[0], 0.5)
    b = support.random_table(cards_b, seeds[1], 0.5)
    expected = support.dict_product(dict(a.items()), dict(b.items()))
    dense = product(a, b)
    assert dense.representation == "dense"
    table = dense.dense_table().tobytes()
    for left, right in ((a.to_sparse(), b.to_sparse()),
                        (a, b.to_sparse()), (a.to_sparse(), b)):
        got = product(left, right)
        assert got.representation == "sparse"
        assert dict(got.items()) == expected
        assert got.dense_table().tobytes() == table
    assert dict(dense.items()) == expected
