import hashlib
import math
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest

import oracle
import support
from hoinfo import (
    EmptyInputError,
    EstimatorConfig,
    GeneratorSpec,
    InvalidOrderError,
    MalformedInputError,
    TableTooLargeError,
    compose_independent,
    delta_k,
    dual_total_correlation,
    entropy,
    gamma_k,
    generate,
    generators,
    giant_bit,
    leave_one_out,
    marginalize,
    measure_report,
    o_information,
    parity,
    point_mass,
    product,
    random_distribution,
    s_information,
    spec_from_dict,
    total_correlation,
)
from hoinfo.distribution import _BLOCK, _digits, _encode, _prod


# ---------------------------------------------------------------------------
# giant bit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("a", [2, 3])
def test_giant_bit_entropies(k, a):
    g = giant_bit(k, a)
    h1 = math.log2(a)
    assert entropy(g) == pytest.approx(h1, abs=1e-12)
    for i in range(k):
        assert entropy(marginalize(g, (i,))) == pytest.approx(h1, abs=1e-12)


def test_giant_bit_alphabet_three_measures():
    g = giant_bit(3, 3)
    assert total_correlation(g) == pytest.approx(2 * math.log2(3), abs=1e-9)
    assert dual_total_correlation(g) == pytest.approx(math.log2(3), abs=1e-9)


def test_giant_bit_order_two_is_pairwise_only():
    g = giant_bit(2)
    assert total_correlation(g) == 1.0
    assert dual_total_correlation(g) == 1.0
    assert o_information(g) == 0.0


def test_giant_bit_beyond_int64_state_space():
    # 2**70 states: the support is stored sparsely, with state codes past
    # the int64 range
    g = giant_bit(70)
    assert g.representation == "sparse"
    assert g.support_size == 2
    report = measure_report(g)
    assert report.joint_entropy == 1.0
    assert report.total_correlation == 69.0
    assert report.dual_total_correlation == 1.0
    assert report.s_information == 70.0
    assert leave_one_out(g, 0).support_size == 2
    # independent product of two int64-coded systems into 3**45 states,
    # past 2**64: T and D add
    pair = product(giant_bit(25, 3), giant_bit(20, 3))
    assert pair.n_vars == 45 and pair.support_size == 9
    assert total_correlation(pair) == pytest.approx(43 * math.log2(3), abs=1e-9)
    assert dual_total_correlation(pair) == pytest.approx(2 * math.log2(3),
                                                         abs=1e-9)


@pytest.mark.parametrize("order,alphabet", [
    (3, 5), (62, 2), (63, 2), (64, 2), (65, 2), (39, 3), (40, 3), (41, 3),
])
def test_gadget_codes_are_those_of_their_states(order, alphabet):
    # 2**63 states and more take Python-int codes: 3**39 < 2**63 < 3**40
    cards = (alphabet,) * order
    diagonal = _encode([np.arange(alphabet)] * order, cards)
    zeros = _encode([np.zeros(1, dtype=np.int64)] * order, cards)
    for made, codes in ((giant_bit(order, alphabet), diagonal),
                        (point_mass(order, alphabet), zeros)):
        got, _ = made._support()
        assert got.dtype == codes.dtype
        assert got.tolist() == codes.tolist()
        assert list(map(type, got.tolist())) == list(map(type, codes.tolist()))


def test_giant_bit_rejects_bad_parameters():
    with pytest.raises(InvalidOrderError):
        giant_bit(1)
    with pytest.raises(InvalidOrderError):
        giant_bit(3, alphabet=1)
    for bad in (2.5, True, "3", None):
        with pytest.raises(InvalidOrderError, match="giant bit order"):
            giant_bit(bad)
        with pytest.raises(InvalidOrderError, match="giant bit alphabet"):
            giant_bit(3, bad)
    assert (giant_bit(np.int64(3), np.int64(3)).dense_table().tobytes()
            == giant_bit(3, 3).dense_table().tobytes())
    # a numpy alphabet is a Python int before the state space is sized
    wide = giant_bit(4, np.int64(2**16))
    assert wide.representation == giant_bit(4, 2**16).representation == "sparse"
    assert wide.cardinalities == (2**16,) * 4 and wide.support_size == 2**16


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4])
def test_parity_marginals_are_fully_independent(k):
    d = parity(k)
    for i in range(k):
        assert abs(total_correlation(leave_one_out(d, i))) <= 1e-12


def test_parity_alphabet_three_keeps_fragility():
    d = parity(3, alphabet=3)
    for i in range(3):
        assert abs(total_correlation(leave_one_out(d, i))) <= 1e-12
    assert total_correlation(d) == pytest.approx(math.log2(3), abs=1e-9)


def test_parity_two_equals_two_copy_giant_bit():
    assert np.array_equal(parity(2).dense_table(), giant_bit(2).dense_table())


def test_parity_four_delta_values():
    d = parity(4)
    assert abs(delta_k(d, 4)) < 1e-9
    assert delta_k(d, 3) == pytest.approx(1.0, abs=1e-9)  # (4-3)*1 - 0


def test_parity_three_measures():
    d = parity(3)
    assert total_correlation(d) == 1.0
    assert dual_total_correlation(d) == 2.0
    assert s_information(d) == 3.0
    assert o_information(d) == -1.0


@pytest.mark.parametrize("order, alphabet",
                         [(2, 2), (3, 2), (9, 3), (5, 7), (12, 2)])
def test_parity_codes_match_the_digit_sum(order, alphabet):
    # the check digit as the sum of the input digits, mod the alphabet
    n_inputs = alphabet ** (order - 1)
    inputs = np.arange(n_inputs)
    check = sum(_digits(inputs, (alphabet,) * (order - 1))) % alphabet
    reference = _encode([inputs, check], (n_inputs, alphabet))
    codes, _ = parity(order, alphabet)._support()
    assert codes.dtype == reference.dtype == np.int64
    assert np.array_equal(codes, reference)


def test_parity_rejects_bad_parameters():
    with pytest.raises(InvalidOrderError):
        parity(1)
    with pytest.raises(InvalidOrderError):
        parity(3, alphabet=1)
    for bad in (2.5, True, "3", None):
        with pytest.raises(InvalidOrderError, match="parity order"):
            parity(bad)
        with pytest.raises(InvalidOrderError, match="parity alphabet"):
            parity(3, bad)
    assert (parity(np.int64(4), np.int64(3)).dense_table().tobytes()
            == parity(4, 3).dense_table().tobytes())
    # 2**69 inputs: numpy integer arithmetic would overflow here
    for order in (70, np.int64(70)):
        with pytest.raises(TableTooLargeError):
            parity(order)


def test_point_mass_rejects_bad_parameters():
    for bad in (0, 2.5, True, "3", None):
        with pytest.raises(InvalidOrderError, match="point mass n_vars"):
            point_mass(bad)
    for bad in (0, 2.5, True, "3", None):
        with pytest.raises(InvalidOrderError, match="point mass alphabet"):
            point_mass(2, bad)
    assert (point_mass(np.int64(3), np.int64(2)).dense_table().tobytes()
            == point_mass(3, 2).dense_table().tobytes())


def test_three_way_interaction_survives_one_marginalization():
    # 4-variable system with a pure 3-way interaction and a free bit: the
    # interaction survives exactly one of the four single-variable removals.
    d = compose_independent(
        [GeneratorSpec(kind="parity", order=3),
         GeneratorSpec(kind="point_mass", n_vars=1, alphabet=2)]
    )
    free = d.n_vars - 1
    surviving = [
        i for i in range(d.n_vars)
        if total_correlation(leave_one_out(d, i)) > 1e-9
    ]
    assert surviving == [free]


# ---------------------------------------------------------------------------
# random tables
# ---------------------------------------------------------------------------

def test_random_is_reproducible_to_the_bit():
    a = random_distribution(4, 3, seed=123, concentration=0.4)
    b = random_distribution(4, 3, seed=123, concentration=0.4)
    assert np.array_equal(a.dense_table(), b.dense_table())
    assert total_correlation(a) == total_correlation(b)
    assert dual_total_correlation(a) == dual_total_correlation(b)


def test_random_different_seeds_differ():
    a = random_distribution(3, 2, seed=1)
    b = random_distribution(3, 2, seed=2)
    assert not np.array_equal(a.dense_table(), b.dense_table())


def test_random_masses_strictly_positive_and_exactly_normalized():
    d = random_distribution(3, 3, seed=5, concentration=0.2)
    table = d.dense_table()
    assert np.all(table > 0.0)
    assert d.total_mass() == 1.0


@pytest.mark.parametrize("concentration",
                         [1.0, 1e3, 1e15, 0.02, 0.001, 0.0005, 0.5, 2.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_residual_placement_matches_stable_sort(concentration, seed):
    # at concentration 1e15 the 4096 fractions take under 62 distinct
    # values, so the lowest-index tie-break decides most residual quanta;
    # at 0.02, 0.001 and 0.0005 most states round up to one quantum, so
    # the first residual is negative (a deficit) and the weights are
    # rescaled, leaving a surplus that gives every state one more quantum
    # and then one to each of the largest fractions; the 3 states of
    # seed 1 at 0.02 have a deficit of one quantum, and 37 states at
    # 0.001 (seed 2) a surplus of one past the whole quanta; 0.5 and 2.0
    # give the exponents 2 and 0.5, which numpy's power computes as a
    # square and a square root; at 0.02 the 3 states of seeds 0 and 2
    # leave a residual of exactly 0 with one state's floor at 0 quanta,
    # which still gets one quantum
    for cards in ((2,) * 12, (3, 5, 7, 11), (37,), (3,)):
        d = random_distribution(len(cards), cards, seed=seed,
                                concentration=concentration)
        expected = support.random_masses_by_argsort(
            math.prod(cards), seed, concentration)
        assert d.dense_table().reshape(-1).tobytes() == expected.tobytes()


@pytest.mark.parametrize("concentration", [1e15, 0.02, 0.001])
def test_random_residual_placement_beyond_one_block(concentration):
    # 2**17 states, four _BLOCKs: the residual's cut is found among the
    # whole table's fractions, at 0.02 and 0.001 those of the weights
    # rescaled after a deficit of about 65,000 and 126,000 quanta
    d = random_distribution(17, 2, seed=1, concentration=concentration)
    expected = support.random_masses_by_argsort(2**17, 1, concentration)
    assert d.dense_table().reshape(-1).tobytes() == expected.tobytes()


# sha256 of the table bytes of random tables without a deficit, taken
# before a deficit was rescaled; the rescale must not move them
@pytest.mark.parametrize("cards,seed,concentration,digest", [
    ((2,) * 17, 1, 1.0,
     "5905e5302eb5cb04c28bf0c404e4950ae7ab4c49eeb8a6572b1368cf16a3588c"),
    ((2,) * 17, 1, 1e15,
     "1a554ff42a3dd48884e7fa09dadb4a4df08df2149ca53682d91cf4b0d9029f5a"),
    ((3, 5, 7, 11), 0, 2.0,
     "e450e61a28bb49908b8a3ac318a9335f777fc1b9f11a3c0a73d3e4be3b5a6793"),
    ((2,) * 12, 2, 1.0,
     "1eac3752c27fe8f6db90016915dfe157590ee37c5698a35cfa7f2e3f176bd06d"),
    ((37,), 1, 1e15,
     "d5dc7dc06fe65bf0abe2802e03d83d1264ecb52dfc6a4ae289a8fc2670990e5f"),
    ((3,) * 6, 4, 2.0,
     "8b719f87209f8ad15b0dbe5a7b45947e17eaff67d8fbda59b3c8a75b0fa9d0fe"),
])
def test_random_tables_without_a_deficit_keep_their_bits(cards, seed,
                                                         concentration, digest):
    scaled, target = support.random_scaled_weights(
        math.prod(cards), seed, concentration)
    assert support.quanta_residual(scaled, target) >= 0
    d = random_distribution(len(cards), cards, seed, concentration)
    assert hashlib.sha256(d.dense_table().tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n_states,seed,concentration", [
    (3, 1, 0.02), (37, 2, 0.001), (4096, 0, 0.02), (4096, 1, 0.0005),
])
def test_a_deficit_is_rescaled_into_a_surplus(n_states, seed, concentration):
    scaled, target = support.random_scaled_weights(n_states, seed,
                                                   concentration)
    assert support.quanta_residual(scaled, target) < 0
    table = random_distribution(1, (n_states,), seed,
                                concentration).dense_table()
    assert table.sum() == 1.0
    assert table.min() >= 1.0 / target


def _largest_values(case: str, size: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    if case == "equal":
        return np.full(size, 0.375)
    if case == "three":
        return rng.choice([0.25, 0.5, 0.75], size)
    if case == "narrow":  # a range 1e-12 wide
        return 0.5 + rng.random(size) * 1e-12
    return rng.random(size)


@pytest.mark.parametrize("negated", [False, True], ids=["plain", "negated"])
@pytest.mark.parametrize("case", ["equal", "three", "narrow", "uniform"])
def test_largest_matches_stable_argsort(case, negated):
    size = 2**17
    values = _largest_values(case, size)
    if negated:
        values = -values
    for count in (1, 7, size // 3, size - 1):
        expected = np.zeros(size, dtype=bool)
        expected[np.argsort(-values, kind="stable")[:count]] = True
        cut, ties = generators._cut(values.copy(), count)  # partitions it
        chosen = []
        for start in range(0, size, _BLOCK):
            run, ties = generators._take(values[start:start + _BLOCK], cut, ties)
            chosen.append(run)
        assert ties == 0
        assert np.array_equal(np.concatenate(chosen), expected), count


@pytest.mark.parametrize("concentration,buffers", [
    (1.0, 2.5),
    (1e15, 2.5),
    (0.02, 2.5),  # a deficit: the weights are rescaled in place
    (0.05, 2.5),  # the same, with more states above one quantum
    (0.001, 2.5),  # a deficit with most states at one quantum
])
def test_random_table_is_built_in_few_table_sized_buffers(concentration,
                                                          buffers):
    n_vars = 18
    tracemalloc.start()
    try:
        random_distribution(n_vars, 2, seed=1, concentration=concentration)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= buffers * 8 * 2**n_vars


@pytest.mark.parametrize("seed", [0, 1])
def test_random_weights_that_underflow_are_an_error(seed):
    # every weight underflows to 0.0 at seed 0; at seed 1 they sum to a
    # subnormal whose reciprocal overflows
    with pytest.raises(InvalidOrderError,
                       match="concentration 0.001 .* of 1 states"):
        random_distribution(1, 1, seed=seed, concentration=0.001)


def test_random_high_concentration_approaches_uniform():
    d = random_distribution(3, 2, seed=17, concentration=1e6)
    assert total_correlation(d) < 0.1
    pmf = oracle.pmf_of(d)
    assert oracle.total_correlation(pmf, 3) < 0.1


def test_random_single_variable_is_valid():
    d = random_distribution(1, 4, seed=3)
    assert d.n_vars == 1
    assert entropy(d) > 0.0


def test_random_rejects_bad_parameters():
    with pytest.raises(InvalidOrderError):
        random_distribution(0, 2, seed=1)
    with pytest.raises(InvalidOrderError):
        random_distribution(2, 2, seed=1, concentration=0.0)
    with pytest.raises(InvalidOrderError):
        random_distribution(2, (2, 3, 2), seed=1)
    cfg = EstimatorConfig(max_dense_states=16)
    with pytest.raises(TableTooLargeError):
        random_distribution(5, 2, seed=1, config=cfg)
    for seed in (-1, 1.0, 2.5, True, "1", None):
        with pytest.raises(InvalidOrderError, match="seed"):
            random_distribution(2, 2, seed=seed)
    assert random_distribution(2, 2, seed=np.int64(3)).n_vars == 2
    for bad in (2.5, True, "3", None):
        with pytest.raises(InvalidOrderError, match="n_vars"):
            random_distribution(bad, 2, seed=1)
    for alphabet in (2.5, True, (2.7, 3), "23", None, (2, True)):
        with pytest.raises(InvalidOrderError):
            random_distribution(2, alphabet, seed=1)
    for concentration in ("x", None, True, math.nan, 10**400, -10**400):
        with pytest.raises(InvalidOrderError, match="concentration"):
            random_distribution(2, 2, seed=1, concentration=concentration)
    for spec in ({"kind": "random", "concentration": 10**400},
                 {"kind": "random", "concentration": -10**400}):
        with pytest.raises(InvalidOrderError, match="concentration"):
            spec_from_dict(spec)
    uniform = random_distribution(2, 2, seed=1, concentration=math.inf)
    assert uniform.dense_table().tolist() == [[0.25, 0.25], [0.25, 0.25]]
    expected = random_distribution(2, (2, 3), seed=4).dense_table().tobytes()
    for alphabet in ([2, 3], range(2, 4), np.array([2, 3]),
                     (np.int64(2), np.int64(3))):
        got = random_distribution(np.int64(2), alphabet, seed=np.int64(4))
        assert got.dense_table().tobytes() == expected
    assert (random_distribution(np.int64(3), np.int64(2), seed=5)
            .dense_table().tobytes()
            == random_distribution(3, 2, seed=5).dense_table().tobytes())


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_two_parity_triples():
    d = compose_independent(
        [GeneratorSpec(kind="parity", order=3)] * 2
    )
    assert d.n_vars == 6
    assert abs(delta_k(d, 3)) < 1e-9
    assert delta_k(d, 2) == pytest.approx(2.0, abs=1e-9)


def test_compose_parity_with_giant_bit_cancels_o():
    d = compose_independent(
        [GeneratorSpec(kind="parity", order=3),
         GeneratorSpec(kind="giant_bit", order=3)]
    )
    assert o_information(d) == pytest.approx(0.0, abs=1e-9)


def test_compose_with_point_mass_is_identity():
    base = giant_bit(3)
    d = compose_independent(
        [GeneratorSpec(kind="giant_bit", order=3),
         GeneratorSpec(kind="point_mass")]
    )
    for fn in (total_correlation, dual_total_correlation, s_information,
               o_information):
        assert fn(d) == pytest.approx(fn(base), abs=1e-12)


def test_compose_additivity_for_every_measure():
    spec_a = GeneratorSpec(kind="random_dirichlet_like", n_vars=2,
                           alphabet=3, seed=21)
    spec_b = GeneratorSpec(kind="random_dirichlet_like", n_vars=3,
                           alphabet=2, seed=22)
    a, b = generate(spec_a), generate(spec_b)
    joint = compose_independent([spec_a, spec_b])
    assert total_correlation(joint) == pytest.approx(
        total_correlation(a) + total_correlation(b), abs=1e-9
    )
    assert dual_total_correlation(joint) == pytest.approx(
        dual_total_correlation(a) + dual_total_correlation(b), abs=1e-9
    )
    assert s_information(joint) == pytest.approx(
        s_information(a) + s_information(b), abs=1e-9
    )
    assert o_information(joint) == pytest.approx(
        o_information(a) + o_information(b), abs=1e-9
    )
    for k in range(joint.n_vars + 1):
        assert delta_k(joint, k) == pytest.approx(
            delta_k(a, k) + delta_k(b, k), abs=1e-9
        )
        assert gamma_k(joint, k) == pytest.approx(
            gamma_k(a, k) + gamma_k(b, k), abs=1e-9
        )


def test_compose_requires_specs():
    with pytest.raises(EmptyInputError):
        compose_independent([])


# ---------------------------------------------------------------------------
# declarative specs
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(InvalidOrderError):
        GeneratorSpec(kind="mystery")
    with pytest.raises(InvalidOrderError, match="'parity' does not take "
                                               "'components'"):
        GeneratorSpec(kind="parity", components=(GeneratorSpec(kind="parity"),))
    with pytest.raises(InvalidOrderError, match="'independent_product' does "
                                               "not take 'alphabet'"):
        GeneratorSpec(kind="independent_product", alphabet=3,
                      components=(GeneratorSpec(kind="parity", order=3),))
    # a field that keeps its default is no breach
    assert GeneratorSpec(kind="giant_bit", order=3, alphabet=2,
                         concentration=1.0).describe() == (
        "gen:giant_bit(order=3, alphabet=2)")


def test_spec_dict_round_trip():
    spec = GeneratorSpec(
        kind="independent_product",
        components=(
            GeneratorSpec(kind="parity", order=3),
            GeneratorSpec(kind="random_dirichlet_like", n_vars=2, seed=7,
                          concentration=0.5),
        ),
    )
    assert spec_from_dict({
        "kind": "independent_product",
        "components": [
            {"kind": "parity", "order": 3, "alphabet": 2},
            {"kind": "random_dirichlet_like", "alphabet": 2, "n_vars": 2,
             "seed": 7, "concentration": 0.5},
        ],
    }) == spec


def test_spec_describe_strings():
    spec = GeneratorSpec(kind="parity", order=3)
    assert spec.describe() == "gen:parity(order=3, alphabet=2)"
    nested = GeneratorSpec(
        kind="independent_product",
        components=(spec, GeneratorSpec(kind="giant_bit", order=2)),
    )
    assert "independent_product" in nested.describe()
    assert "gen:parity(order=3, alphabet=2)" in nested.describe()


def test_generate_dispatch_and_missing_parameters():
    assert generate(GeneratorSpec(kind="giant_bit", order=2)).n_vars == 2
    assert generate(GeneratorSpec(kind="point_mass", n_vars=2)).n_vars == 2
    with pytest.raises(InvalidOrderError):
        generate(GeneratorSpec(kind="parity"))
    with pytest.raises(InvalidOrderError):
        generate(GeneratorSpec(kind="random_dirichlet_like", n_vars=2))
    with pytest.raises(InvalidOrderError):
        generate(GeneratorSpec(kind="independent_product"))
    # a missing n_vars is one variable; an n_vars of 0 is an error
    assert generate(GeneratorSpec(kind="point_mass")).n_vars == 1
    with pytest.raises(InvalidOrderError, match="n_vars"):
        generate(spec_from_dict({"kind": "point_mass", "n_vars": 0}))


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidOrderError):
        spec_from_dict({"kind": "parity", "order": 3, "frobnicate": 1})
    with pytest.raises(InvalidOrderError):
        spec_from_dict({"order": 3})


@pytest.mark.parametrize("make,args", [
    (parity, (21,)),
    (parity, (12, 4)),
    (giant_bit, (2, 2**20)),
])
def test_gadget_over_cap_fails_before_allocating(make, args):
    cfg = EstimatorConfig(max_dense_states=2**10)
    tracemalloc.start()
    try:
        with pytest.raises(TableTooLargeError, match="sparse support of"):
            make(*args, config=cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("make,args,message", [
    (parity, (100000,), "sparse support of ~4.99501e+30102 states"),
    (giant_bit, (2, 10**5000), "sparse support of ~1.00000e+5000 states"),
    (random_distribution, (100000, 2, 0), "random table of ~9.99002e+30102"),
    (random_distribution, (2, (10**5000, 2), 0),
     "random table of ~2.00000e+5000"),
    (parity, (14000,), "sparse support of ~1.31495e+4214 states"),
])
def test_huge_state_count_is_too_large_in_a_short_message(make, args, message):
    # str() of an int past 4,300 digits raises ValueError; the count is
    # written in six digits instead
    with pytest.raises(TableTooLargeError) as raised:
        make(*args)
    text = str(raised.value)
    assert text.startswith(message) and "max_dense_states=" in text
    assert len(text) < 100


@pytest.mark.parametrize("make,args", [
    (giant_bit, ()),
    (parity, ()),
    (point_mass, ()),
    (random_distribution, (2, 0)),
])
def test_more_variables_than_a_tuple_holds_are_rejected(make, args):
    # before any tuple or power of that size is built
    with pytest.raises(InvalidOrderError,
                       match=r"in \[\d, ~9\.22337e\+18\], got ~1\.00000e\+400$"):
        make(10**400, *args)


@pytest.mark.parametrize("make,args", [
    (giant_bit, (sys.maxsize,)),
    (point_mass, (sys.maxsize, 2)),
    (random_distribution, (sys.maxsize, 1, 0)),
])
def test_more_cardinalities_than_a_tuple_can_hold_are_too_large(make, args):
    # CPython rejects a tuple of sys.maxsize items before allocating it
    with pytest.raises(TableTooLargeError,
                       match=r"^~9\.22337e\+18 variables are more than a "
                             r"tuple of cardinalities can hold$"):
        make(*args)


def random_of_a_million_variables():
    with pytest.raises(TableTooLargeError, match=r"^random table of ~9\.90"):
        random_distribution(10**6, 2, 0)


@pytest.mark.parametrize("make", [
    lambda: giant_bit(10**6),
    lambda: point_mass(10**6, 2),
    random_of_a_million_variables,
    lambda: product(giant_bit(5 * 10**5), giant_bit(5 * 10**5)),
], ids=["giant_bit", "point_mass", "random", "product"])
def test_a_million_variables_build_quickly(make):
    # a running product of a million cardinalities takes tens of seconds
    start = time.perf_counter()
    make()
    assert time.perf_counter() - start < 10


def test_a_marginal_of_a_long_system_is_quick():
    # a running product over the variables after the kept one is quadratic
    # in their count: seconds at this length
    dist = giant_bit(4 * 10**5)
    start = time.perf_counter()
    marginal = marginalize(dist, (0,))
    assert time.perf_counter() - start < 2
    assert list(marginal.items()) == [((0,), 0.5), ((1,), 0.5)]


def test_balanced_product_is_the_product():
    rng = random.Random(0)
    for size in (0, 1, 64, 65, 1000):
        cards = tuple(rng.randrange(1, 10**rng.randrange(1, 30))
                      for _ in range(size))
        assert _prod(cards) == math.prod(cards)


def test_a_small_cap_bounds_states_not_variables():
    cfg = EstimatorConfig(max_dense_states=2**10)
    assert giant_bit(2**10 + 1, config=cfg).n_vars == 2**10 + 1
    assert point_mass(20000, 2, config=cfg).support_size == 1
    assert random_distribution(2**10 + 1, 1, seed=0, config=cfg).n_vars == 2**10 + 1
    # a parity whose count is too long to write is rejected unwritten
    with pytest.raises(TableTooLargeError,
                       match=r"^sparse support of 2\*\*~1\.00000e\+18 states "
                             r"exceeds max_dense_states=67108864$"):
        parity(10**18 + 1)
    with pytest.raises(TableTooLargeError,
                       match=r"^sparse support of 3\*\*999999 states "
                             r"exceeds max_dense_states=1024$"):
        parity(10**6, 3, config=cfg)


def test_huge_point_mass_writes_its_state_count_short():
    d = point_mass(20000, 2)
    assert repr(d).endswith("support=1/~3.98028e+6020)")
    with pytest.raises(TableTooLargeError,
                       match=r"^~3\.98028e\+6020 states exceed"):
        d.dense_table()


def test_gadget_at_cap_is_built():
    cfg = EstimatorConfig(max_dense_states=2**10)
    assert parity(11, config=cfg).support_size == 2**10
    assert giant_bit(3, 2**10, config=cfg).support_size == 2**10


def test_spec_from_dict_accepts_every_kind_spelling():
    for spelling, kind in {"random": "random_dirichlet_like",
                           "giant-bit": "giant_bit",
                           "point-mass": "point_mass",
                           "independent-product": "independent_product",
                           "parity": "parity"}.items():
        assert spec_from_dict({"kind": spelling}).kind == kind
    with pytest.raises(InvalidOrderError, match="unknown generator kind"):
        spec_from_dict({"kind": "xor"})


@pytest.mark.parametrize("obj", [
    5,
    [{"kind": "parity"}],
    {"kind": "parity", "order": 3.9},
    {"kind": "parity", "order": "3"},
    {"kind": "parity", "order": True},
    {"kind": "parity", "order": 3, "alphabet": 2.0},
    {"kind": "random", "n_vars": 2, "seed": 2.5},
    {"kind": "random", "n_vars": 2, "seed": 1, "concentration": "1"},
    {"kind": "random", "n_vars": 2, "seed": 1, "concentration": False},
    {"kind": "independent_product", "components": [5]},
    {"kind": "independent_product", "components": {"kind": "parity"}},
    # a falsy value is no list either; only null keeps the default
    {"kind": "independent_product", "components": False},
    {"kind": "independent_product", "components": 0},
    {"kind": "independent_product", "components": ""},
    {"kind": "independent_product", "components": {}},
])
def test_spec_from_dict_rejects_wrong_types(obj):
    with pytest.raises(MalformedInputError):
        spec_from_dict(obj)


def test_spec_from_dict_bounds_its_nesting():
    spec = spec_from_dict(
        support.nested_product(64, {"kind": "parity", "order": 3}))
    assert spec.describe().count("independent_product") == 63
    assert list(generate(spec).items()) == list(parity(3).items())
    # 450 levels used to end in RecursionError
    for levels in (65, 450):
        with pytest.raises(MalformedInputError) as raised:
            spec_from_dict(
                support.nested_product(levels, {"kind": "parity", "order": 3}))
        assert str(raised.value) == (
            "generator spec nests more than 64 levels deep")


def test_spec_from_dict_keeps_values_exact():
    spec = spec_from_dict({"kind": "random", "n_vars": 3, "seed": 4,
                           "concentration": 2, "order": None,
                           "components": None})
    assert spec == GeneratorSpec(kind="random_dirichlet_like", n_vars=3,
                                 seed=4, concentration=2.0)
    assert spec.describe() == ("gen:random_dirichlet_like(n_vars=3, "
                               "alphabet=2, seed=4, concentration=2.0)")
