"""The entropy-profile kernels against the primitives they replace, and
the one profile kept per distribution.

Property tests over small random tables with size-1 axes and zero cells:
the leave-one-out entropies folded from the marginal kernel's blocks must
give, bit for bit, the entropy of each materialized leave-one-out marginal,
and every profile entropy must be the same for the dense and the sparse
representation. Every entropy of the joint table and of its leave-one-out
marginals must have the bits of a Python reference of the documented rule:
the pairwise sum of each run of ``_BLOCK`` terms, the run sums folded left
to right; the reference's pairwise sum must have the bits of numpy's.
Small blocks drive the blocked path, and blocks of only zero cells, on
small tables; a mixed-radix table at the real ``_BLOCK``, whose blocks do
not fill a run, drives the regrouping of terms into runs. A test that
patches ``_BLOCK`` builds its distributions itself, so no kept profile
hides the patched path.
The run-based sparse marginal codes must equal the digit-based ones, also
for object codes beyond 2**63 states. A 16-variable table checks every
profile entropy against a correctly rounded reference.
Every measure of one distribution, and every k of both sweeps, reads one
profile of Python floats, each of its two halves built once: T reads the
first half alone, and a report after T builds only the second. A report
is a pure function of a profile, so one assembled from the oracle's
entropies gives the oracle's measures, and one without its second half
raises. Threads that share a distribution, some asking for T first, get
the bits of a fresh one.
"""

import dataclasses
import itertools
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hoinfo.distribution as distribution
import hoinfo.measures as measures
import oracle
import support
from hoinfo import (
    build_distribution,
    compute_spectrum,
    delta_k,
    dual_total_correlation,
    entropy,
    gamma_k,
    giant_bit,
    leave_one_out,
    measure_report,
    o_information,
    parity,
    random_distribution,
    s_information,
    total_correlation,
)

cardinalities = st.lists(
    st.integers(1, 5), min_size=2, max_size=6
).filter(lambda cards: math.prod(cards) <= 1024)

BLOCKS = [1, 3, 7, distribution._BLOCK]


def bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def profile(dist) -> tuple[float, ...]:
    """The 2N+1 entropies of ``dist``'s profile in one tuple: H(X), every
    H(X_i), every H(X^-i)."""
    kept = distribution._entropy_profile(dist)
    return (kept.joint, *kept.singles, *kept.leave_one_out)


@settings(max_examples=60, deadline=None)
@given(
    cards=cardinalities,
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.8]),
    block=st.sampled_from(BLOCKS),
)
@example(cards=[2, 2], seed=0, zero_share=0.3, block=1)
@example(cards=[1, 3, 1, 2], seed=2, zero_share=0.3, block=3)
@example(cards=[5, 1, 2], seed=3, zero_share=0.0, block=7)  # c_0 > kept
def test_dense_kernel_equals_entropy_of_each_marginal(cards, seed, zero_share,
                                                      block):
    dense = support.random_table(cards, seed, zero_share)
    n = len(cards)
    materialized = []
    real_leave_one_out = distribution.leave_one_out

    def counted(dist, i):
        materialized.append(i)
        return real_leave_one_out(dist, i)

    # the runs of terms are _BLOCK long, so both sides take the same _BLOCK
    with mock.patch.object(distribution, "_BLOCK", block):
        expected = [entropy(leave_one_out(dense, i)) for i in range(n)]
        with mock.patch.object(distribution, "leave_one_out", counted):
            got = distribution._leave_one_out_entropies(dense)
    assert bits(got) == bits(expected)
    # no marginal is materialized, not even of a variable with more states
    # than its marginal has
    assert materialized == []


def test_blocks_of_zero_cells_are_skipped():
    # H(X^-0) = H(X_1): mass on states 0 and 1 of X_1 only, so with blocks
    # of 1 or 3 kept states the last blocks hold no positive cell
    dist = build_distribution([2, 4], [((0, 0), 0.5), ((0, 1), 0.5)])
    for block in BLOCKS:
        with mock.patch.object(distribution, "_BLOCK", block):
            got = distribution._leave_one_out_entropies(dist)
        assert got == (1.0, 0.0)
        assert bits(got) == bits([entropy(leave_one_out(dist, i))
                                  for i in range(2)])


@settings(max_examples=60, deadline=None)
@given(
    cards=cardinalities,
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.8]),
    block=st.sampled_from(BLOCKS),
)
@example(cards=[2, 3], seed=0, zero_share=0.0, block=distribution._BLOCK)
@example(cards=[4, 4], seed=1, zero_share=0.3, block=3)
def test_entropies_have_the_bits_of_a_python_fold(cards, seed, zero_share,
                                                  block):
    # blocks with and without zero cells, each against a reference that
    # shares no code with the kernel
    dense = support.random_table(cards, seed, zero_share)
    with mock.patch.object(distribution, "_BLOCK", block):
        joint = [entropy(dense), entropy(dense.to_sparse())]
        got = distribution._leave_one_out_entropies(dense)
        assert bits(joint) == bits([support.entropy_reference(dense)] * 2)
        assert bits(got) == bits(
            [support.entropy_reference(leave_one_out(dense, i))
             for i in range(len(cards))])


@settings(max_examples=60, deadline=None)
@given(
    cards=cardinalities,
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.8]),
    block=st.sampled_from(BLOCKS),
)
def test_profile_is_the_same_dense_and_sparse(cards, seed, zero_share, block):
    dense = support.random_table(cards, seed, zero_share)
    with mock.patch.object(distribution, "_BLOCK", block):
        got = profile(dense)
        assert len(got) == 2 * len(cards) + 1
        assert bits(got) == bits(profile(dense.to_sparse()))
        assert (total_correlation(dense)
                == measure_report(dense).total_correlation)


def test_pairwise_sum_has_the_bits_of_numpy():
    rng = np.random.default_rng(7)
    differ = []
    for size in [*range(1, 401), 4097, 32768]:
        values = rng.random(size) - 0.25
        if support.pairwise_sum(values.tolist()) != float(np.add.reduce(values)):
            differ.append(size)
    assert differ == []


def test_terms_are_regrouped_into_runs_at_the_real_block():
    # 688,905 cells, about 30% zero; dropping variable 4 leaves marginal
    # blocks of 31,185 cells, which do not fill a run of _BLOCK terms
    dense = support.random_table((3,) * 9 + (5, 7), 1, 0.3)
    sparse = dense.to_sparse()
    loo = distribution._leave_one_out_entropies(dense)
    assert bits(loo) == bits([entropy(leave_one_out(dense, i))
                              for i in range(dense.n_vars)])
    assert bits(loo) == bits(distribution._leave_one_out_entropies(sparse))
    assert bits([entropy(dense)]) == bits([entropy(sparse)])
    assert bits([entropy(leave_one_out(dense, 4))]) == bits(
        [support.entropy_reference(leave_one_out(dense, 4))])


def test_entropy_of_parity_is_the_same_dense_and_sparse():
    # half of the 2**17 cells are zero, so no block of the dense table is
    # a run of terms
    dense = parity(17)
    assert dense.representation == "dense"
    assert bits([entropy(dense)]) == bits([entropy(dense.to_sparse())])


@settings(max_examples=40, deadline=None)
@given(cards=cardinalities, seed=st.integers(0, 2**32 - 1),
       zero_share=st.sampled_from([0.0, 0.5]))
def test_run_codes_equal_digit_codes(cards, seed, zero_share):
    sparse = support.random_table(cards, seed, zero_share).to_sparse()
    assert_run_codes_equal_digit_codes(
        sparse, [keep for size in range(1, len(cards))
                 for keep in itertools.combinations(range(len(cards)), size)])


@settings(max_examples=30, deadline=None)
@given(keep=st.sets(st.integers(0, 69), min_size=1, max_size=69))
@example(keep=set(range(62)))  # 2**62 kept states: int64 from object codes
@example(keep=set(range(1, 70)))
def test_run_codes_beyond_int64(keep):
    dist = giant_bit(70)
    assert dist._codes.dtype == object
    assert_run_codes_equal_digit_codes(dist, [tuple(sorted(keep))])


def assert_run_codes_equal_digit_codes(sparse, keeps):
    cards = sparse.cardinalities
    digits = distribution._digits(sparse._codes, cards)
    for keep in keeps:
        got = distribution._kept_codes(sparse._codes, cards, keep)
        expected = distribution._encode([digits[i] for i in keep],
                                        [cards[i] for i in keep])
        assert got.dtype == expected.dtype
        assert got.tolist() == expected.tolist()


def fsum_marginal(table: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """Marginal over ``keep``, each mass the correctly rounded sum."""
    dropped = [i for i in range(table.ndim) if i not in keep]
    cells = np.transpose(table, list(keep) + dropped)
    rows = cells.reshape(math.prod(table.shape[i] for i in keep), -1)
    return np.array([math.fsum(row) for row in rows.tolist()])


def test_profile_of_a_large_table_is_accurate():
    n = 16
    dist = support.random_table((2,) * n, 3, 0.1)
    table = dist.dense_table()
    marginals = ([table.reshape(-1)]
                 + [fsum_marginal(table, (i,)) for i in range(n)]
                 + [fsum_marginal(table, tuple(j for j in range(n) if j != i))
                    for i in range(n)])
    for got, masses in zip(profile(dist), marginals):
        p = masses[masses > 0.0]
        terms = p * np.log2(p)
        reference = -math.fsum(terms)
        # A marginal mass folded from k cells is off by at most (k-1)u
        # relative, which moves its term by that much times
        # |p log2 p| + p/ln 2; folding m terms adds at most (m-1)u sum|t|.
        # With k*m = 2**n cells, 2**n * u * (sum|t| + 1/ln 2) bounds both.
        tol = table.size * 2.0**-53 * (math.fsum(np.abs(terms)) + 1 / math.log(2))
        assert abs(got - reference) <= tol


# ---------------------------------------------------------------------------
# one kept profile per distribution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sparse", [False, True])
def test_every_measure_of_one_distribution_builds_the_profile_once(
        monkeypatch, sparse):
    dist = random_distribution(5, (2, 3, 2, 2, 3), seed=8)
    expected = measure_report(random_distribution(5, (2, 3, 2, 2, 3), seed=8))
    if sparse:
        dist = dist.to_sparse()
    calls = support.count_profile_kernels(monkeypatch)
    n = dist.n_vars
    report = measure_report(dist)
    spectrum = compute_spectrum(dist)
    values = [dual_total_correlation(dist), s_information(dist),
              o_information(dist)]
    deltas = [delta_k(dist, k) for k in range(n + 1)]
    gammas = [gamma_k(dist, k) for k in range(n + 1)]
    assert calls == [(name, n) for name in support.PROFILE_KERNELS]
    # every read has the bits of a fresh distribution's report
    assert (bits(dataclasses.astuple(report))
            == bits(dataclasses.astuple(spectrum.measures))
            == bits(dataclasses.astuple(expected)))
    assert bits(values) == bits([expected.dual_total_correlation,
                                 expected.s_information,
                                 expected.o_information])
    assert bits(deltas) == bits(spectrum.delta)
    assert bits(gammas) == bits(spectrum.gamma)


def test_total_correlation_builds_no_leave_one_out_entropy(monkeypatch):
    dist = random_distribution(6, 2, seed=4)
    calls = support.count_profile_kernels(monkeypatch)
    t = total_correlation(dist)
    assert dist._profile.leave_one_out == ()
    assert "_leave_one_out_entropies" not in [name for name, _ in calls]
    assert t == measure_report(dist).total_correlation


@pytest.mark.parametrize("sparse", [False, True])
def test_total_correlation_reads_the_kept_profile(monkeypatch, sparse):
    dist = random_distribution(6, (2, 3, 2, 2, 3, 2), seed=5)
    if sparse:
        dist = dist.to_sparse()
    report = measure_report(dist)
    calls = support.count_profile_kernels(monkeypatch)
    assert bits([total_correlation(dist)]) == bits([report.total_correlation])
    assert calls == []


@pytest.mark.parametrize("sparse", [False, True])
def test_report_after_total_correlation_builds_only_the_second_half(
        monkeypatch, sparse):
    dist = random_distribution(6, (2, 3, 2, 2, 3, 2), seed=5)
    fresh = measure_report(random_distribution(6, (2, 3, 2, 2, 3, 2), seed=5))
    if sparse:
        dist = dist.to_sparse()
    calls = support.count_profile_kernels(monkeypatch)
    t = total_correlation(dist)
    del calls[:]
    report = measure_report(dist)
    assert calls == [("_leave_one_out_entropies", dist.n_vars)]
    assert bits(dataclasses.astuple(report)) == bits(dataclasses.astuple(fresh))
    assert bits([t]) == bits([fresh.total_correlation])


@pytest.mark.parametrize("seed", range(5))
def test_report_of_an_oracle_profile_matches_the_oracle(seed):
    dist = random_distribution(4, (2, 3, 2, 3), seed=seed)
    pmf, n = oracle.pmf_of(dist), dist.n_vars
    hand_made = distribution.EntropyProfile(
        oracle.entropy_bits(pmf),
        tuple(oracle.entropy_bits(oracle.marginal(pmf, (i,)))
              for i in range(n)),
        tuple(oracle.entropy_bits(
            oracle.marginal(pmf, oracle.leave_one_out_keep(n, i)))
            for i in range(n)),
    )
    report = measures._report(hand_made)
    expected = (oracle.total_correlation(pmf, n),
                oracle.dual_total_correlation(pmf, n),
                oracle.s_information(pmf, n),
                oracle.o_information(pmf, n))
    got = (report.total_correlation, report.dual_total_correlation,
           report.s_information, report.o_information)
    assert got == pytest.approx(expected, rel=0, abs=1e-9)


def test_report_of_a_first_half_raises():
    dist = random_distribution(4, 2, seed=1)
    first_half = distribution._entropy_profile(dist, leave_one_out=False)
    assert first_half.leave_one_out == ()
    with pytest.raises(ValueError):
        measures._report(first_half)


PROFILED = {
    "dense": lambda: random_distribution(4, 3, seed=2),
    "sparse": lambda: random_distribution(4, 3, seed=2).to_sparse(),
    "parity": lambda: parity(3),
    "object_codes": lambda: giant_bit(70),
}


@pytest.mark.parametrize("kind", sorted(PROFILED))
def test_kept_profile_holds_python_floats(kind):
    dist = PROFILED[kind]()
    kept = distribution._entropy_profile(dist)
    assert dist._profile is kept
    assert distribution._entropy_profile(dist) is kept
    values = profile(dist)
    assert len(values) == 2 * dist.n_vars + 1
    assert all(type(value) is float for value in values)


def test_threads_sharing_one_distribution_get_bit_equal_reports():
    shared = random_distribution(12, 2, seed=11)
    expected = measure_report(random_distribution(12, 2, seed=11))
    n_threads = 6
    start = threading.Barrier(n_threads)
    reports = []
    totals = []

    def work(first_half_first):
        start.wait(timeout=30)
        if first_half_first:
            totals.append(total_correlation(shared))
        reports.append(measure_report(shared))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % 2 == 0,))
                   for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(reports) == n_threads
    assert len(totals) == n_threads // 2
    for report in reports:
        assert bits(dataclasses.astuple(report)) == bits(
            dataclasses.astuple(expected))
    assert bits(totals) == bits([expected.total_correlation] * len(totals))
