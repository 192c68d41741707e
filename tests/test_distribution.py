import itertools
import math

import numpy as np
import pytest

import hoinfo.distribution as distribution
import oracle
import support
from hoinfo import (
    EmptyInputError,
    EmptySubsetError,
    EstimatorConfig,
    IndexOutOfRangeError,
    InvalidOrderError,
    MalformedInputError,
    NegativeMassError,
    NonFiniteMassError,
    NotNormalizedError,
    RaggedRowsError,
    StateOutOfRangeError,
    SystemTooSmallError,
    TableTooLargeError,
    build_distribution,
    compute_spectrum,
    delta_k,
    dual_total_correlation,
    entropy,
    estimate_from_samples,
    gamma_k,
    giant_bit,
    infer_alphabets,
    leave_one_out,
    marginalize,
    measure_report,
    mutual_information,
    o_information,
    parity,
    point_mass,
    product,
    random_distribution,
    s_information,
    sign_interpretation,
    total_correlation,
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_build_uniform_bit():
    d = build_distribution([2], [((0,), 0.5), ((1,), 0.5)])
    assert d.n_vars == 1
    assert d.cardinalities == (2,)
    assert d.mass((0,)) == 0.5
    assert entropy(d) == 1.0


def test_build_accepts_bare_int_states_for_single_variable():
    d = build_distribution([2], [(0, 0.5), (1, 0.5)])
    assert d.mass((1,)) == 0.5


def test_build_two_copy_giant_bit():
    d = build_distribution([2, 2], [((0, 0), 0.5), ((1, 1), 0.5)])
    assert d.mass((0, 0)) == 0.5
    assert d.mass((0, 1)) == 0.0
    assert total_correlation(d) == 1.0


def test_build_rejects_unnormalized_masses():
    entries = [((0,), 0.5), ((1,), 0.499)]
    with pytest.raises(NotNormalizedError):
        build_distribution([2], entries)


def test_build_renormalize_flag():
    entries = [((0,), 1.0), ((1,), 3.0)]
    d = build_distribution([2], entries, renormalize=True)
    assert d.mass((0,)) == 0.25
    assert d.mass((1,)) == 0.75
    assert entropy(d) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_build_rejects_negative_mass():
    with pytest.raises(NegativeMassError):
        build_distribution([2], [((0,), 1.5), ((1,), -0.5)])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_build_rejects_non_finite_mass(bad):
    entries = [((0, 0), bad), ((1, 1), 1.0)]
    with pytest.raises(NonFiniteMassError):
        build_distribution([2, 2], entries)
    with pytest.raises(NonFiniteMassError):
        build_distribution([2, 2], entries, renormalize=True)


def test_renormalize_rejects_overflowing_total():
    with pytest.raises(NotNormalizedError):
        build_distribution([2], [((0,), 1e308), ((1,), 1e308)],
                           renormalize=True)


def test_build_rejects_out_of_range_state():
    with pytest.raises(StateOutOfRangeError):
        build_distribution([2], [((2,), 1.0)])


def test_build_rejects_wrong_arity_state():
    with pytest.raises(StateOutOfRangeError):
        build_distribution([2, 2], [((0,), 1.0)])


def test_build_rejects_empty_cardinalities():
    with pytest.raises(EmptyInputError):
        build_distribution([], [])


def test_build_rejects_nonpositive_cardinality():
    with pytest.raises(StateOutOfRangeError):
        build_distribution([2, 0], [((0, 0), 1.0)])


def test_build_duplicate_states_accumulate():
    d = build_distribution([2], [((0,), 0.25), ((0,), 0.25), ((1,), 0.5)])
    assert d.mass((0,)) == 0.5


def test_auto_representation_switches_to_sparse_over_cap():
    cfg = EstimatorConfig(max_dense_states=4)
    entries = [((0, 0, 0), 0.5), ((1, 1, 1), 0.5)]
    d = build_distribution([2, 2, 2], entries, cfg)
    assert d.representation == "sparse"
    assert d.support_size == 2


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(log_base=1.0)
    with pytest.raises(ValueError):
        EstimatorConfig(zero_tolerance=-1e-9)
    for field, value in [("log_base", "2"), ("log_base", None),
                         ("normalization_tolerance", "0"),
                         ("zero_tolerance", None),
                         ("max_dense_states", 2.5),
                         ("max_dense_states", True),
                         ("max_dense_states", 0)]:
        # the tolerances share one message: "tolerances must be ..."
        with pytest.raises(MalformedInputError,
                           match=field.rsplit("_", 1)[-1]):
            EstimatorConfig(**{field: value})
    cfg = EstimatorConfig(log_base=np.float64(2.0), zero_tolerance=0,
                          max_dense_states=np.int64(4))
    assert build_distribution([2, 2, 2], [((0, 0, 0), 1.0)],
                              cfg).representation == "sparse"


@pytest.mark.parametrize("field,value", [
    ("log_base", math.inf),
    ("log_base", math.nan),
    ("normalization_tolerance", math.inf),
    ("normalization_tolerance", math.nan),
    ("zero_tolerance", math.inf),
    ("zero_tolerance", math.nan),
])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match="finite"):
        EstimatorConfig(**{field: value})


def test_mass_checks_its_state_as_the_loader_does():
    d = parity(2)
    assert d.mass((0, 0)) == 0.5
    assert d.mass([1, 1]) == 0.5
    assert d.mass(np.array([1, 0])) == 0.0
    for bad in ((0.7, 0.2), (0, True), ("0", "1"), 5):
        with pytest.raises(MalformedInputError):
            d.mass(bad)
    with pytest.raises(StateOutOfRangeError, match="arity"):
        d.mass((0,))
    with pytest.raises(StateOutOfRangeError, match="outside"):
        d.mass((0, 2))
    with pytest.raises(StateOutOfRangeError, match="outside"):
        d.mass((-1, 0))


def test_sparse_mass_looks_up_hits_and_misses():
    d = parity(4).to_sparse()
    assert d.representation == "sparse"
    for state in itertools.product(range(2), repeat=4):
        assert d.mass(state) == (0.125 if sum(state) % 2 == 0 else 0.0)
    assert d.mass((1, 1, 1, 1)) == 0.125  # the last support code
    big = giant_bit(70)  # 2**70 states: Python-int (object) codes
    assert big.representation == "sparse" and big._codes.dtype == object
    assert big.mass((1,) * 70) == 0.5
    assert big.mass((0,) * 70) == 0.5
    assert big.mass((0,) * 69 + (1,)) == 0.0
    assert big.mass((1,) * 69 + (0,)) == 0.0


# ---------------------------------------------------------------------------
# marginalization
# ---------------------------------------------------------------------------

def test_marginalize_xor_triple_gives_independent_pair():
    d = support.xor_triple()
    pair = marginalize(d, (0, 1))
    # brute-force oracle over the 4-entry joint table
    expected = oracle.marginal(oracle.pmf_of(d), (0, 1))
    for state in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert pair.mass(state) == expected[state] == 0.25


def test_marginalize_giant_bit_keeps_copies():
    d = giant_bit(3)
    pair = marginalize(d, (0, 1))
    assert np.array_equal(pair.dense_table(), giant_bit(2).dense_table())


def test_marginalize_keep_all_is_identity():
    d = support.xor_triple()
    assert marginalize(d, (0, 1, 2)) is d


def test_marginalize_validates_subset():
    d = support.xor_triple()
    with pytest.raises(EmptySubsetError):
        marginalize(d, ())
    with pytest.raises(IndexOutOfRangeError):
        marginalize(d, (0, 3))
    # an index that is not an integer is not rounded, truncated or parsed
    for keep in ((1.5,), (0.7, True), (True,), ("0",), (0, 2.0)):
        with pytest.raises(MalformedInputError):
            marginalize(d, keep)
    assert marginalize(d, (np.int64(0), np.int32(2))).n_vars == 2


def test_marginalize_chain_matches_direct_exactly():
    # Dyadic masses make every mass sum exact, so two-stage and direct
    # marginalization must agree bit for bit.
    rng = np.random.default_rng(7)
    dists = [
        support.xor_triple(),
        giant_bit(4),
        support.dyadic_random_table(rng, (2, 3, 2, 3)),
        support.dyadic_random_table(rng, (3, 3, 2, 2)),
        random_distribution(4, (2, 3, 2, 2), seed=11),
    ]
    for d in dists:
        via_chain = marginalize(marginalize(d, (0, 1, 2)), (0, 2))
        direct = marginalize(d, (0, 2))
        assert np.array_equal(via_chain.dense_table(), direct.dense_table())


def test_marginal_entropy_never_exceeds_joint(suite50):
    for d in suite50:
        h = entropy(d)
        for keep in [(0,), (0, 1), tuple(range(d.n_vars - 1))]:
            assert entropy(marginalize(d, keep)) <= h + 1e-12


def test_leave_one_out_xor():
    d = support.xor_triple()
    pair = leave_one_out(d, 2)
    assert pair.n_vars == 2
    for state in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert pair.mass(state) == 0.25


def test_leave_one_out_giant_bit():
    assert np.array_equal(
        leave_one_out(giant_bit(3), 0).dense_table(),
        giant_bit(2).dense_table(),
    )


def test_leave_one_out_errors():
    single = build_distribution([2], [((0,), 0.5), ((1,), 0.5)])
    with pytest.raises(SystemTooSmallError):
        leave_one_out(single, 0)
    with pytest.raises(IndexOutOfRangeError):
        leave_one_out(support.xor_triple(), 3)
    with pytest.raises(IndexOutOfRangeError):
        leave_one_out(support.xor_triple(), -1)
    for i in (1.5, True, "0"):
        with pytest.raises(MalformedInputError):
            leave_one_out(support.xor_triple(), i)
    # the system size is checked before the index
    with pytest.raises(SystemTooSmallError):
        leave_one_out(single, 1.5)
    assert leave_one_out(support.xor_triple(), np.int64(1)).n_vars == 2


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_of_uniform_bits_is_independent():
    bit = build_distribution([2], [((0,), 0.5), ((1,), 0.5)])
    pair = product(bit, bit)
    assert pair.cardinalities == (2, 2)
    assert total_correlation(pair) == 0.0


def test_product_xor_xor_total_correlation():
    d = product(support.xor_triple(), support.xor_triple())
    assert d.n_vars == 6
    # additivity of T over independent blocks, checked by brute force
    assert oracle.total_correlation(oracle.pmf_of(d), 6) == pytest.approx(
        2.0, abs=1e-12
    )
    assert total_correlation(d) == pytest.approx(2.0, abs=1e-9)


def test_product_with_point_mass_preserves_measures():
    base = giant_bit(3)
    extended = product(base, point_mass())
    assert extended.n_vars == 4
    assert total_correlation(extended) == pytest.approx(
        total_correlation(base), abs=1e-12
    )
    assert dual_total_correlation(extended) == pytest.approx(
        dual_total_correlation(base), abs=1e-12
    )
    assert s_information(extended) == pytest.approx(
        s_information(base), abs=1e-12
    )
    assert o_information(extended) == pytest.approx(
        o_information(base), abs=1e-12
    )


def test_product_entropy_additivity(suite50):
    for a, b in zip(suite50[:20:2], suite50[1:20:2]):
        assert entropy(product(a, b)) == pytest.approx(
            entropy(a) + entropy(b), abs=1e-9
        )


def test_sparse_product_drops_underflowed_masses():
    a = build_distribution([2], [((0,), 1e-200), ((1,), 1.0)])
    dense = product(a, a)
    sparse = product(a.to_sparse(), a.to_sparse())
    assert sparse.representation == "sparse"
    # 1e-200 * 1e-200 underflows to 0.0 and is not support
    assert sparse.support_size == dense.support_size == 3
    pmf = dict(a.items())
    assert dict(sparse.items()) == support.dict_product(pmf, pmf)
    assert math.isfinite(entropy(sparse))
    assert entropy(sparse) == entropy(dense)
    for measure in (total_correlation, dual_total_correlation,
                    s_information, o_information):
        assert math.isfinite(measure(sparse))
        assert measure(sparse) == measure(dense)


def test_product_over_cap_raises():
    cfg = EstimatorConfig(max_dense_states=8)
    a = random_distribution(2, 2, seed=1, config=cfg)
    b = random_distribution(2, 2, seed=2, config=cfg)
    with pytest.raises(TableTooLargeError):
        product(a, b)


@pytest.mark.parametrize("zero_share", [0.3, 0.8])
def test_total_mass_folds_zero_cells_without_changing_its_bits(zero_share):
    d = support.random_table([3, 4, 5, 2], 7, zero_share)
    m = d._masses
    assert (m == 0.0).any()
    assert d.total_mass().hex() == distribution._fold(m[m > 0.0]).hex()


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_reference_values():
    bit = build_distribution([2], [((0,), 0.5), ((1,), 0.5)])
    assert entropy(bit) == 1.0
    assert entropy(point_mass()) == 0.0
    assert math.copysign(1.0, entropy(point_mass(3, 2))) == 1.0  # not -0.0
    skewed = build_distribution([2], [((0,), 0.25), ((1,), 0.75)])
    # direct evaluation of -sum p log2 p
    assert entropy(skewed) == pytest.approx(0.8112781244591328, abs=1e-15)


def test_entropy_keeps_masses_below_1e_15():
    # 2^16 - 1 states of 9e-16 each carry about 2.95e-9 bits between them
    tiny = 9e-16
    n_states = 1 << 16
    masses = [1.0 - (n_states - 1) * tiny] + [tiny] * (n_states - 1)
    entries = [
        (tuple((flat >> (15 - j)) & 1 for j in range(16)), m)
        for flat, m in enumerate(masses)
    ]
    d = build_distribution([2] * 16, entries)
    expected = oracle.entropy_bits(oracle.pmf_of(d))
    assert expected > 2.9e-9
    assert abs(entropy(d) - expected) < 1e-9


def test_entropy_bounds(suite50):
    for d in suite50:
        h = entropy(d)
        assert h >= 0.0
        assert h <= math.fsum(math.log2(c) for c in d.cardinalities) + 1e-12


def test_entropy_respects_log_base():
    cfg = EstimatorConfig(log_base=math.e)
    bit = build_distribution([2], [((0,), 0.5), ((1,), 0.5)], cfg)
    assert entropy(bit) == pytest.approx(math.log(2.0), abs=1e-15)


# ---------------------------------------------------------------------------
# dense/sparse agreement
# ---------------------------------------------------------------------------

def test_dense_sparse_measures_bit_identical(suite50):
    gadgets = [support.xor_triple(), giant_bit(3), giant_bit(3, 3)]
    for d in gadgets + suite50[:20]:
        sparse = d.to_sparse()
        assert sparse.representation == "sparse"
        assert entropy(sparse) == entropy(d)
        assert total_correlation(sparse) == total_correlation(d)
        assert dual_total_correlation(sparse) == dual_total_correlation(d)
        assert s_information(sparse) == s_information(d)
        assert o_information(sparse) == o_information(d)


def test_dense_sparse_marginals_bit_identical(suite50):
    for d in suite50[:20]:
        sparse = d.to_sparse()
        for i in range(d.n_vars):
            assert np.array_equal(
                leave_one_out(d, i).dense_table(),
                leave_one_out(sparse, i).dense_table(),
            )


def test_representation_round_trip():
    d = support.xor_triple()
    back = d.to_sparse().to_dense()
    assert np.array_equal(back.dense_table(), d.dense_table())


# ---------------------------------------------------------------------------
# sample ingestion
# ---------------------------------------------------------------------------

def test_estimate_giant_bit_from_samples():
    rows = [(0, 0)] * 500 + [(1, 1)] * 500
    d = estimate_from_samples(rows)
    assert d.cardinalities == (2, 2)
    assert d.mass((0, 0)) == 0.5
    assert total_correlation(d) == 1.0


def test_estimate_point_mass_from_samples():
    d = estimate_from_samples([(0,)] * 100)
    assert d.cardinalities == (1,)
    assert entropy(d) == 0.0


def test_estimate_exact_xor_from_enumerated_rows():
    rows = [s for s, _ in support.XOR_TRIPLE_ENTRIES for _ in range(2)]
    d = estimate_from_samples(rows)
    assert np.array_equal(d.dense_table(), support.xor_triple().dense_table())


def test_estimate_rejects_empty_and_ragged():
    with pytest.raises(EmptyInputError):
        estimate_from_samples([])
    with pytest.raises(RaggedRowsError):
        estimate_from_samples([(0, 1), (0,)])
    with pytest.raises(EmptyInputError):
        estimate_from_samples([(), ()])
    # symbols that cannot be sorted against each other, or hashed, are
    # malformed input, named by their column
    with pytest.raises(MalformedInputError, match="column 0"):
        estimate_from_samples([(1, 0), ("a", 1)])
    with pytest.raises(MalformedInputError, match="column 1"):
        infer_alphabets([(0, [1]), (1, [0])])
    # a row that is not a sequence
    with pytest.raises(MalformedInputError, match="sequence"):
        estimate_from_samples([5, 6])
    # NaN cells: distinct NaN objects hash apart, so each would be a symbol
    with pytest.raises(MalformedInputError, match="column 0.*NaN"):
        estimate_from_samples(list(np.array([[np.nan], [np.nan]])))
    with pytest.raises(MalformedInputError, match="column 1.*NaN"):
        infer_alphabets([(0, float("nan")), (1, 2.0), (0, float("nan"))])


def test_estimate_sorts_symbols_deterministically():
    rows = [("b", 1), ("a", 0), ("b", 1), ("a", 0)]
    assert infer_alphabets(rows) == [["a", "b"], [0, 1]]
    d = estimate_from_samples(rows)
    assert d.mass((0, 0)) == 0.5  # ("a", 0)
    assert d.mass((1, 1)) == 0.5  # ("b", 1)
    shuffled = estimate_from_samples(rows[::-1])
    assert np.array_equal(d.dense_table(), shuffled.dense_table())


def test_csv_integer_column_merges_spellings_of_one_value():
    # an all-integer column is read as integers, so "01" and "1" are one
    # symbol; a column with any other cell keeps every cell as its string
    _, rows = support.samples_csv_rows("x,y\n01,a\n1,a\n0,01\n00,1\n")
    assert rows == [(1, "a"), (1, "a"), (0, "01"), (0, "1")]
    assert infer_alphabets(rows) == [[0, 1], ["01", "1", "a"]]


def test_estimate_64_column_csv_matches_oracle():
    # 3**64 joint states: codes of the sparse support exceed int64
    rng = np.random.default_rng(64)
    inputs = rng.integers(0, 3, size=(300, 63))
    table = np.concatenate([inputs, inputs.sum(axis=1, keepdims=True) % 3],
                           axis=1)
    text = ",".join(f"x{j}" for j in range(64)) + "\n" + "".join(
        ",".join(map(str, row)) + "\n" for row in table.tolist())
    _, rows = support.samples_csv_rows(text)
    d = estimate_from_samples(rows)
    assert d.n_states == 3**64
    pmf = {}
    for row in rows:
        pmf[row] = pmf.get(row, 0) + 1
    pmf = {state: count / len(rows) for state, count in pmf.items()}
    assert dict(d.items()) == pmf
    report = measure_report(d)
    assert abs(report.joint_entropy - oracle.entropy_bits(pmf)) < 1e-9
    assert abs(report.total_correlation
               - oracle.total_correlation(pmf, 64)) < 1e-9
    assert abs(report.dual_total_correlation
               - oracle.dual_total_correlation(pmf, 64)) < 1e-9
    assert abs(report.s_information - oracle.s_information(pmf, 64)) < 1e-9


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_same_seed_same_table():
    a = random_distribution(3, (2, 3, 2), seed=99, concentration=0.7)
    b = random_distribution(3, (2, 3, 2), seed=99, concentration=0.7)
    assert np.array_equal(a.dense_table(), b.dense_table())
    assert entropy(a) == entropy(b)


def test_repeated_measure_calls_are_identical(suite50):
    # a later call reads the profile the first one kept, so compare with an
    # equal distribution built afresh
    d = suite50[0]
    fresh = support.random_suite(1)[0]
    assert fresh is not d
    assert np.array_equal(fresh.dense_table(), d.dense_table())
    assert dual_total_correlation(d) == dual_total_correlation(fresh)
    assert s_information(d) == s_information(fresh)
    assert dual_total_correlation(d) == dual_total_correlation(d)


# ---------------------------------------------------------------------------
# an int too long for str()
# ---------------------------------------------------------------------------

HUGE = 10**5000  # str() of an int past 4,300 digits raises ValueError
D3 = random_distribution(3, 2, seed=1)

HUGE_INT_CALLS = {
    "marginalize": (lambda: marginalize(D3, [HUGE]), IndexOutOfRangeError),
    "leave_one_out": (lambda: leave_one_out(D3, HUGE), IndexOutOfRangeError),
    "mutual_information": (lambda: mutual_information(D3, [0], [HUGE]),
                           IndexOutOfRangeError),
    "mass": (lambda: D3.mass((0, 0, HUGE)), StateOutOfRangeError),
    "mass_negative": (lambda: D3.mass((0, 0, -HUGE)), StateOutOfRangeError),
    "mass_arity": (lambda: D3.mass((HUGE,)), StateOutOfRangeError),
    "build_distribution": (lambda: build_distribution([2], [((HUGE,), 1.0)]),
                           StateOutOfRangeError),
    "cardinality_negative": (lambda: build_distribution([-HUGE], []),
                             StateOutOfRangeError),
    "mass_of_a_huge_state": (
        lambda: build_distribution([2 * HUGE], [((HUGE,), "x")]),
        MalformedInputError),
    "negative_mass_of_a_huge_state": (
        lambda: build_distribution([2 * HUGE], [((HUGE,), -1.0)]),
        NegativeMassError),
    "sign_interpretation": (
        lambda: sign_interpretation(compute_spectrum(D3), HUGE),
        IndexOutOfRangeError),
    "sign_interpretation_negative": (
        lambda: sign_interpretation(compute_spectrum(D3), -HUGE),
        IndexOutOfRangeError),
    "giant_bit": (lambda: giant_bit(-HUGE), InvalidOrderError),
    "random_seed": (lambda: random_distribution(3, 2, seed=-HUGE),
                    InvalidOrderError),
    "max_dense_states": (lambda: EstimatorConfig(max_dense_states=-HUGE),
                         MalformedInputError),
    "delta_k": (lambda: delta_k(D3, 10**400), MalformedInputError),
    "gamma_k": (lambda: gamma_k(D3, 10**400), MalformedInputError),
    # beside a value of another type, each element is quoted on its own
    "mass_beside_a_float": (lambda: D3.mass((0, 0.5, HUGE)),
                            MalformedInputError),
    "marginalize_beside_a_str": (lambda: marginalize(D3, [HUGE, "a"]),
                                 MalformedInputError),
    "cardinalities_beside_a_str": (
        lambda: build_distribution([HUGE, "a"], []), MalformedInputError),
    "mass_not_a_number": (
        lambda: build_distribution([2], [((0,), [HUGE])]), MalformedInputError),
    "log_base": (lambda: EstimatorConfig(log_base=[HUGE]), MalformedInputError),
    "tolerance": (lambda: EstimatorConfig(zero_tolerance=(HUGE,)),
                  MalformedInputError),
}


@pytest.mark.parametrize("name", sorted(HUGE_INT_CALLS))
def test_a_huge_int_raises_its_named_error(name):
    call, error = HUGE_INT_CALLS[name]
    with pytest.raises(error) as raised:
        call()
    text = str(raised.value)
    assert "e+" in text and len(text) < 100


def test_repr_writes_a_huge_cardinality_short():
    assert repr(build_distribution([HUGE], [((0,), 1.0)])) == (
        "JointDistribution(n_vars=1, cardinalities=[~1.00000e+5000], "
        "representation='sparse', support=1/~1.00000e+5000)")
    assert repr(build_distribution([2, 10**17], [((0, 0), 1.0)])) == (
        "JointDistribution(n_vars=2, cardinalities=[2, 100000000000000000], "
        "representation='sparse', support=1/200000000000000000)")


def test_small_ints_keep_their_messages():
    quote = distribution._quote
    assert quote((0, 0, 5)) == str((0, 0, 5))
    assert quote((5,)) == str((5,))
    assert quote([0, -7]) == str([0, -7])
    assert quote(-10**17) == str(-10**17)
    assert quote(np.int64(-3)) == "-3"
    assert quote(2.5) == "2.5"
    assert quote([0, 0.5, "a"]) == repr([0, 0.5, "a"])
    assert quote((None, (1,))) == repr((None, (1,)))
    cyclic = [0, "a"]
    cyclic.append(cyclic)
    assert quote(cyclic) == repr(cyclic) == "[0, 'a', [...]]"
    inside = ([],)
    inside[0].append(inside)
    assert quote(inside) == repr(inside) == "([(...)],)"


def test_a_quote_is_cut_and_names_its_length():
    text = distribution._quote("x" * 200_000)
    assert text == "'" + "x" * 99 + "... (200002 characters)"
    assert distribution._quote([[HUGE], "y" * 20]) == (
        "[[~1.00000e+5000], 'yyyyyyyyyyyyyyyyyyyy']")
    text = distribution._quote([[0] * 100] * 100)
    assert text.endswith("... (30200 characters)") and len(text) < 130


def test_a_value_too_deep_for_repr_is_quoted_by_its_type():
    deep = support.nested_product(2_000, {"kind": "parity", "order": 3})
    assert distribution._quote(deep) == "<dict nested too deep>"
    with pytest.raises(MalformedInputError) as raised:
        build_distribution(deep, [])
    assert str(raised.value).endswith("<dict nested too deep>")
