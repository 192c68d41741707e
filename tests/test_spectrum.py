import math

import numpy as np
import pytest

import support
from support import delta_k_via_tc, gamma_k_via_tc
from hoinfo import (
    GeneratorSpec,
    IndexOutOfRangeError,
    MalformedInputError,
    SignInterpretation,
    SystemTooSmallError,
    compose_independent,
    compute_spectrum,
    delta_k,
    dual_total_correlation,
    gamma_k,
    giant_bit,
    measure_report,
    parity,
    point_mass,
    s_information,
    sign_interpretation,
    total_correlation,
)


def independent_bits(n):
    return compose_independent(
        [GeneratorSpec(kind="random_dirichlet_like", n_vars=1, alphabet=2,
                       seed=i, concentration=1e9) for i in range(n)]
    )


def test_xor_triple_spectrum():
    sp = compute_spectrum(support.xor_triple())
    assert sp.delta == (3.0, 2.0, 1.0, 0.0)
    assert sp.synergy_order == 3
    assert sp.delta_crossing == 3.0


def test_giant_bit_spectrum():
    sp = compute_spectrum(giant_bit(3))
    assert sp.gamma == (3.0, 2.0, 1.0, 0.0)
    assert sp.redundancy_order == 3
    assert sp.gamma_crossing == 3.0


def test_independent_system_spectrum_is_degenerate():
    sp = compute_spectrum(independent_bits(3))
    assert all(abs(v) < 1e-9 for v in sp.delta)
    assert all(abs(v) < 1e-9 for v in sp.gamma)
    assert sp.synergy_order is None
    assert sp.redundancy_order is None
    assert sp.delta_crossing is None
    assert sp.gamma_crossing is None


def test_spectrum_arrays_match_pointwise_measures(suite50):
    for d in suite50[:15]:
        sp = compute_spectrum(d)
        assert len(sp.delta) == d.n_vars + 1
        for k in range(d.n_vars + 1):
            assert sp.delta[k] == delta_k(d, k)
            assert sp.gamma[k] == gamma_k(d, k)


def test_spectrum_matches_summation_forms(suite50):
    for d in suite50[:15]:
        sp = compute_spectrum(d)
        for k in range(d.n_vars + 1):
            assert sp.delta[k] == pytest.approx(delta_k_via_tc(d, k), abs=1e-9)
            assert sp.gamma[k] == pytest.approx(gamma_k_via_tc(d, k), abs=1e-9)


def test_spectrum_head_identities(suite50):
    for d in suite50:
        sp = compute_spectrum(d)
        s = s_information(d)
        assert sp.delta[0] == sp.gamma[0] == s
        assert sp.delta[1] == pytest.approx(dual_total_correlation(d), abs=1e-9)
        assert sp.gamma[1] == pytest.approx(total_correlation(d), abs=1e-9)


def test_spectrum_is_monotone_nonincreasing(suite50):
    for d in suite50:
        sp = compute_spectrum(d)
        for k in range(d.n_vars):
            assert sp.delta[k + 1] <= sp.delta[k] + 1e-12
            assert sp.gamma[k + 1] <= sp.gamma[k] + 1e-12


def test_crossing_separates_signs(suite50):
    for d in suite50:
        sp = compute_spectrum(d)
        if sp.delta_crossing is None:
            continue
        for k in range(d.n_vars + 1):
            if sp.delta[k] > 1e-9:
                assert k < sp.delta_crossing + 1e-9
            if sp.delta[k] < -1e-9:
                assert k > sp.delta_crossing - 1e-9


@pytest.mark.parametrize("k", [2, 3, 4])
def test_parity_synergy_order_is_exact(k):
    assert compute_spectrum(parity(k)).synergy_order == k


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("a", [2, 3])
def test_giant_bit_redundancy_order_is_exact(k, a):
    assert compute_spectrum(giant_bit(k, a)).redundancy_order == k


def test_sign_interpretation_on_gadgets():
    xor = compute_spectrum(support.xor_triple())
    assert sign_interpretation(xor, 2) is SignInterpretation.HIGHER_ORDER_DOMINATED
    assert sign_interpretation(xor, 3) is SignInterpretation.BALANCED_AT_K
    giant = compute_spectrum(giant_bit(3))
    assert sign_interpretation(giant, 2) is SignInterpretation.LOWER_ORDER_DOMINATED


def test_sign_interpretation_validates_k():
    sp = compute_spectrum(support.xor_triple())
    with pytest.raises(IndexOutOfRangeError):
        sign_interpretation(sp, 4)
    with pytest.raises(IndexOutOfRangeError):
        sign_interpretation(sp, -1)
    for bad in (1.5, True, "2", None):
        with pytest.raises(MalformedInputError, match="k must be"):
            sign_interpretation(sp, bad)
    assert (sign_interpretation(sp, np.int64(2))
            is SignInterpretation.HIGHER_ORDER_DOMINATED)


def test_spectrum_requires_two_variables():
    with pytest.raises(SystemTooSmallError):
        compute_spectrum(point_mass(1, 2))


def test_spectrum_carries_the_measure_report_it_was_computed_from(suite50):
    for d in suite50:
        sp = compute_spectrum(d)
        assert sp.measures == measure_report(d)
        assert sp.delta[1] == sp.measures.s_information - sp.measures.total_correlation


# Sign convention: delta[k] > 0 reads "orders above k dominate" (the
# abstract words it the other way round). The closed forms pin it.
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("a", [2, 3])
def test_parity_delta_closed_form_at_every_k(n, a):
    sp = compute_spectrum(parity(n, a))
    assert len(sp.delta) == n + 1
    for k, value in enumerate(sp.delta):
        assert value == pytest.approx((n - k) * math.log2(a), abs=1e-9)
        assert delta_k(parity(n, a), k) == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("a", [2, 3])
def test_giant_bit_gamma_closed_form_at_every_k(n, a):
    sp = compute_spectrum(giant_bit(n, a))
    assert len(sp.gamma) == n + 1
    for k, value in enumerate(sp.gamma):
        assert value == pytest.approx((n - k) * math.log2(a), abs=1e-9)
        assert gamma_k(giant_bit(n, a), k) == pytest.approx(value, abs=1e-9)
