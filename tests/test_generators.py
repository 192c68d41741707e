import math
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
    # at 0.02 most states round up to one quantum, so the residual is
    # negative and quanta are taken back from the smallest fractions; at
    # 0.001 whole passes bring states down to one quantum, and with 37
    # states at 0.0005 (seed 1) the deficit falls just past the passes
    # that drain a state; 0.5 and 2.0 give the exponents 2 and 0.5, which
    # numpy's power computes as a square and a square root
    for cards in ((2,) * 12, (3, 5, 7, 11), (37,)):
        d = random_distribution(len(cards), cards, seed=seed,
                                concentration=concentration)
        expected = support.random_masses_by_argsort(
            math.prod(cards), seed, concentration)
        assert d.dense_table().reshape(-1).tobytes() == expected.tobytes()


@pytest.mark.parametrize("concentration,buffers", [
    (1.0, 4),
    (1e15, 4),
    (0.02, 4),  # a negative residual: whole passes, then a last one
    (0.001, 4),  # a negative residual that drains most states
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
    for concentration in ("x", None, True, math.nan):
        with pytest.raises(InvalidOrderError, match="concentration"):
            random_distribution(2, 2, seed=1, concentration=concentration)
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
])
def test_spec_from_dict_rejects_wrong_types(obj):
    with pytest.raises(MalformedInputError):
        spec_from_dict(obj)


def test_spec_from_dict_keeps_values_exact():
    spec = spec_from_dict({"kind": "random", "n_vars": 3, "seed": 4,
                           "concentration": 2, "order": None})
    assert spec == GeneratorSpec(kind="random_dirichlet_like", n_vars=3,
                                 seed=4, concentration=2.0)
    assert spec.describe() == ("gen:random_dirichlet_like(n_vars=3, "
                               "alphabet=2, seed=4, concentration=2.0)")
