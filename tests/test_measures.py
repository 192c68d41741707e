import math

import pytest

import oracle
import support
from support import (
    delta_k_via_tc,
    dual_total_correlation_via_tc,
    gamma_k_via_tc,
)
from hoinfo import (
    EmptySubsetError,
    FunctionalNegativeError,
    FunctionalNonMonotoneError,
    MeasureFunctional,
    OverlappingSubsetsError,
    SystemTooSmallError,
    build_distribution,
    delta_k,
    dual_total_correlation,
    entropy,
    gamma_k,
    generic_delta_k,
    giant_bit,
    measure_report,
    mutual_information,
    o_information,
    parity,
    point_mass,
    product,
    random_distribution,
    s_information,
    total_correlation,
)

LOG2_3 = math.log2(3)


def uniform_bit():
    return build_distribution([2], [((0,), 0.5), ((1,), 0.5)])


def independent_bits(n):
    d = uniform_bit()
    for _ in range(n - 1):
        d = product(d, uniform_bit())
    return d


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mi_independent_pair_is_zero():
    assert mutual_information(independent_bits(2), (0,), (1,)) == 0.0


def test_mi_giant_bit_is_one():
    assert mutual_information(giant_bit(2), (0,), (1,)) == 1.0


def test_mi_xor_element_vs_rest():
    d = support.xor_triple()
    got = mutual_information(d, (0,), (1, 2))
    expected = oracle.mutual_information(oracle.pmf_of(d), (0,), (1, 2))
    assert expected == 1.0
    assert got == pytest.approx(expected, abs=1e-12)


def test_mi_symmetry(suite50):
    for d in suite50[:10]:
        if d.n_vars < 3:
            continue
        assert mutual_information(d, (0,), (1, 2)) == pytest.approx(
            mutual_information(d, (1, 2), (0,)), abs=1e-12
        )


def test_mi_nonnegative(suite50):
    for d in suite50[:20]:
        assert mutual_information(d, (0,), tuple(range(1, d.n_vars))) >= -1e-9


def test_mi_validates_subsets():
    d = support.xor_triple()
    with pytest.raises(OverlappingSubsetsError):
        mutual_information(d, (0, 1), (1, 2))
    with pytest.raises(EmptySubsetError):
        mutual_information(d, (), (1,))


# ---------------------------------------------------------------------------
# T, D, S, O on the canonical systems
# ---------------------------------------------------------------------------

def test_total_correlation_of_gadgets():
    assert total_correlation(giant_bit(3)) == 2.0  # (k-1)*H(X1)
    assert total_correlation(support.xor_triple()) == 1.0  # 3 - 2
    assert total_correlation(independent_bits(3)) == 0.0
    assert total_correlation(uniform_bit()) == 0.0  # N=1 edge


def test_total_correlation_upper_bound(suite50):
    from hoinfo import marginalize

    for d in suite50:
        max_single = max(
            entropy(marginalize(d, (i,))) for i in range(d.n_vars)
        )
        assert total_correlation(d) <= (d.n_vars - 1) * max_single + 1e-9


def test_dual_total_correlation_of_gadgets():
    assert dual_total_correlation(support.xor_triple()) == 2.0
    assert dual_total_correlation(giant_bit(3)) == 1.0  # H(X1)
    assert dual_total_correlation(independent_bits(3)) == 0.0


def test_dual_total_correlation_requires_two_vars():
    with pytest.raises(SystemTooSmallError):
        dual_total_correlation(uniform_bit())


def test_dtc_via_tc_gadget_values():
    # (3-1)*1 - 3*0 = 2 and 2*2 - 3*1 = 1
    assert dual_total_correlation_via_tc(support.xor_triple()) == 2.0
    assert dual_total_correlation_via_tc(giant_bit(3)) == 1.0
    assert dual_total_correlation_via_tc(independent_bits(3)) == 0.0


def test_dtc_reformulation_equivalence(suite500):
    for d in suite500:
        assert abs(
            dual_total_correlation(d) - dual_total_correlation_via_tc(d)
        ) < 1e-9


def test_s_information_of_gadgets():
    assert s_information(giant_bit(3)) == 3.0  # k*H(X1)
    assert s_information(support.xor_triple()) == 3.0  # 3 elements x 1 bit
    assert s_information(independent_bits(3)) == 0.0


def test_s_information_is_t_plus_d(suite50):
    for d in suite50:
        assert s_information(d) == pytest.approx(
            total_correlation(d) + dual_total_correlation(d), abs=1e-9
        )


def test_o_information_signs():
    assert o_information(giant_bit(3)) == 1.0
    assert o_information(support.xor_triple()) == -1.0
    pairwise_only = product(giant_bit(2), independent_bits(2))
    assert o_information(pairwise_only) == pytest.approx(0.0, abs=1e-12)


def test_nonnegativity_of_t_d_s(suite500):
    for d in suite500:
        assert total_correlation(d) >= -1e-9
        assert dual_total_correlation(d) >= -1e-9
        assert s_information(d) >= -1e-9


# ---------------------------------------------------------------------------
# delta_k and gamma_k
# ---------------------------------------------------------------------------

def test_delta_k_on_gadgets():
    xor = support.xor_triple()
    assert delta_k(xor, 3) == 0.0  # pure order-3 synergy
    assert delta_k(xor, 2) == 1.0  # (3-2)*1 - 0
    assert delta_k(giant_bit(3), 2) == -1.0  # equals -O


def test_gamma_k_on_gadgets():
    g = giant_bit(3)
    assert gamma_k(g, 3) == 0.0  # pure order-3 redundancy
    assert gamma_k(g, 2) == 1.0  # O = T - D = 2 - 1
    assert gamma_k(support.xor_triple(), 1) == 1.0  # T


def test_spectrum_identities(suite500):
    for d in suite500:
        s = s_information(d)
        t = total_correlation(d)
        dd = dual_total_correlation(d)
        o = o_information(d)
        assert abs(delta_k(d, 0) - s) < 1e-9
        assert abs(delta_k(d, 1) - dd) < 1e-9
        assert abs(delta_k(d, 2) + o) < 1e-9
        assert abs(gamma_k(d, 0) - s) < 1e-9
        assert abs(gamma_k(d, 1) - t) < 1e-9
        assert abs(gamma_k(d, 2) - o) < 1e-9


def test_linear_recursions(suite50):
    for d in suite50:
        t = total_correlation(d)
        dd = dual_total_correlation(d)
        for k in range(-1, d.n_vars + 1):
            assert delta_k(d, k + 1) == pytest.approx(
                delta_k(d, k) - t, abs=1e-9
            )
            assert gamma_k(d, k + 1) == pytest.approx(
                gamma_k(d, k) - dd, abs=1e-9
            )


def test_summation_forms_agree(suite50):
    for d in suite50:
        for k in range(0, d.n_vars + 1):
            assert delta_k(d, k) == pytest.approx(
                delta_k_via_tc(d, k), abs=1e-9
            )
            assert gamma_k(d, k) == pytest.approx(
                gamma_k_via_tc(d, k), abs=1e-9
            )


def test_additivity_over_independent_products(suite50):
    pairs = list(zip(suite50[0:20:2], suite50[1:20:2]))
    for a, b in pairs:
        joint = product(a, b)
        for k in range(0, joint.n_vars + 1):
            assert delta_k(joint, k) == pytest.approx(
                delta_k(a, k) + delta_k(b, k), abs=1e-9
            )
            assert gamma_k(joint, k) == pytest.approx(
                gamma_k(a, k) + gamma_k(b, k), abs=1e-9
            )


def test_pure_synergy_zero_for_orders_2_to_4():
    for k in (2, 3, 4):
        assert abs(delta_k(parity(k), k)) < 1e-9
        two = product(parity(k), parity(k))
        assert abs(delta_k(two, k)) < 1e-9


def test_pure_redundancy_zero_for_orders_2_to_4():
    for k in (2, 3, 4):
        for a in (2, 3):
            g = giant_bit(k, a)
            assert abs(gamma_k(g, k)) < 1e-9
            h1 = math.log2(a)
            assert total_correlation(g) == pytest.approx((k - 1) * h1, abs=1e-9)
            assert dual_total_correlation(g) == pytest.approx(h1, abs=1e-9)
            assert s_information(g) == pytest.approx(k * h1, abs=1e-9)


def test_joint_and_marginal_tc_cross_checks(suite50):
    # N*T - sum T(X^-i) = S  and  (N-2)*T - sum T(X^-i) = -O
    from hoinfo import leave_one_out

    for d in suite50:
        n = d.n_vars
        t = total_correlation(d)
        marginal_sum = 0.0
        for i in range(n):
            marginal_sum += total_correlation(leave_one_out(d, i))
        assert n * t - marginal_sum == pytest.approx(
            s_information(d), abs=1e-9
        )
        assert (n - 2) * t - marginal_sum == pytest.approx(
            -o_information(d), abs=1e-9
        )


def test_delta_accepts_any_integer_k():
    d = support.xor_triple()
    assert delta_k(d, -1) == 4.0  # S + T
    assert delta_k(d, 5) == -2.0
    assert gamma_k(d, -1) == 5.0  # S + D


# ---------------------------------------------------------------------------
# generic whole-minus-sum construction
# ---------------------------------------------------------------------------

def tc_functional():
    return MeasureFunctional(name="total_correlation", evaluate=total_correlation)


def test_generic_matches_delta_with_tc_functional():
    xor = support.xor_triple()
    with pytest.warns(UserWarning):
        assert generic_delta_k(tc_functional(), xor, 3) == delta_k(xor, 3) == 0.0


def test_generic_matches_delta_on_random(suite50):
    f = tc_functional()
    with pytest.warns(UserWarning, match="fragility"):
        for d in suite50[:10]:
            for k in range(0, d.n_vars + 1):
                assert generic_delta_k(f, d, k) == pytest.approx(
                    delta_k(d, k), abs=1e-9
                )


def test_generic_with_joint_entropy_functional():
    # H is non-negative and monotone but not fragile; on 3 independent
    # bits at k=1 the value is (3-1)*3 - 3*2 = 0.
    f = MeasureFunctional(name="joint_entropy", evaluate=entropy)
    d = independent_bits(3)
    with pytest.warns(UserWarning, match="fragility"):
        assert generic_delta_k(f, d, 1) == pytest.approx(0.0, abs=1e-12)


def test_generic_rejects_negative_functional():
    f = MeasureFunctional(name="negative", evaluate=lambda d: -1.0)
    with pytest.warns(UserWarning, match="fragility"), \
            pytest.raises(FunctionalNegativeError):
        generic_delta_k(f, support.xor_triple(), 2)


def test_generic_rejects_nonmonotone_functional():
    # Large on the two-variable marginals, zero on the joint.
    f = MeasureFunctional(
        name="nonmonotone", evaluate=lambda d: 0.0 if d.n_vars == 3 else 5.0
    )
    with pytest.warns(UserWarning, match="fragility"), \
            pytest.raises(FunctionalNonMonotoneError):
        generic_delta_k(f, support.xor_triple(), 2)


def test_generic_warns_once_per_functional():
    # the default filter shows a warning once per message and call site
    import warnings

    f = MeasureFunctional(name="fresh", evaluate=total_correlation)
    g = MeasureFunctional(name="other", evaluate=total_correlation)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for functional in (f, f, g, g):
            generic_delta_k(functional, support.xor_triple(), 2)
    assert [str(w.message).split(":")[0] for w in caught] == [
        "functional 'fresh'", "functional 'other'"]


def test_generic_warns_again_when_filters_ask_for_it():
    f = MeasureFunctional(name="repeated", evaluate=total_correlation)
    for _ in range(2):
        with pytest.warns(UserWarning, match="'repeated': fragility"):
            generic_delta_k(f, support.xor_triple(), 2)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_measure_report_matches_standalone_functions(suite50):
    for d in suite50[:10]:
        report = measure_report(d)
        assert report.joint_entropy == entropy(d)
        assert report.total_correlation == total_correlation(d)
        assert report.dual_total_correlation == dual_total_correlation(d)
        assert report.s_information == s_information(d)
        assert report.o_information == o_information(d)


def test_measure_report_invariants(suite50):
    for d in suite50:
        r = measure_report(d)
        assert r.total_correlation >= -1e-9
        assert r.dual_total_correlation >= -1e-9
        assert r.s_information >= -1e-9
        assert r.s_information == pytest.approx(
            r.total_correlation + r.dual_total_correlation, abs=1e-9
        )
        assert r.o_information == pytest.approx(
            r.total_correlation - r.dual_total_correlation, abs=1e-9
        )


def test_measures_reject_single_variable_systems():
    single = point_mass(1, 2)
    for fn in (dual_total_correlation, s_information, o_information):
        with pytest.raises(SystemTooSmallError):
            fn(single)
    with pytest.raises(SystemTooSmallError):
        delta_k(single, 1)
    with pytest.raises(SystemTooSmallError):
        gamma_k(single, 1)
