"""Property tests of T, D, S and O over random small tables.

Every value is checked against the brute-force ``oracle`` at 1e-9 bits:
T, D and S are non-negative, S = T + D and O = T - D, and all four add
over independent products. The conjugation that pairs the synergy and
redundancy families is checked on the measures' coefficient vectors over
the entropy profile.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import oracle
import support
from hoinfo import delta_k, gamma_k, measure_report, product, random_distribution
from hoinfo.distribution import _entropy_profile

TOL = 1e-9

cardinalities = st.lists(
    st.integers(1, 3), min_size=2, max_size=4
).filter(lambda cards: math.prod(cards) <= 81)
tables = st.builds(
    support.random_table,
    cardinalities,
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.3, 0.7]),
)


def oracle_measures(dist) -> dict:
    pmf, n = oracle.pmf_of(dist), dist.n_vars
    return {
        "T": oracle.total_correlation(pmf, n),
        "D": oracle.dual_total_correlation(pmf, n),
        "S": oracle.s_information(pmf, n),
        "O": oracle.o_information(pmf, n),
    }


def package_measures(dist) -> dict:
    r = measure_report(dist)
    return {"T": r.total_correlation, "D": r.dual_total_correlation,
            "S": r.s_information, "O": r.o_information}


@settings(max_examples=80, deadline=None)
@given(dist=tables)
def test_measures_match_oracle_signs_and_identities(dist):
    got = package_measures(dist)
    expected = oracle_measures(dist)
    for name in "TDSO":
        assert abs(got[name] - expected[name]) < TOL, name
    for name in "TDS":
        assert got[name] >= -TOL, name
    assert abs(got["S"] - (got["T"] + got["D"])) < TOL
    assert abs(got["O"] - (got["T"] - got["D"])) < TOL


@settings(max_examples=40, deadline=None)
@given(a=tables, b=tables)
def test_measures_add_over_independent_products(a, b):
    joint = package_measures(product(a, b))
    parts = [package_measures(a), package_measures(b)]
    expected = oracle_measures(product(a, b))
    for name in "TDSO":
        assert abs(joint[name] - (parts[0][name] + parts[1][name])) < TOL, name
        assert abs(joint[name] - expected[name]) < TOL, name


# The paper's conjugation: conj f = -f o psi with psi(H(X_S)) =
# H(X) - H(X_{S^c}) swaps T and D, fixes S and maps Delta^k to Gamma^k.
# Checked exactly on integer coefficient vectors over the entropy profile.


@pytest.mark.parametrize("n", range(2, 8))
def test_conjugation_swaps_the_synergy_and_redundancy_families(n):
    t, d, s = support.tc_vector(n), support.dtc_vector(n), support.s_vector(n)
    deltas = [support.delta_vector(n, k) for k in range(n + 1)]
    gammas = [support.gamma_vector(n, k) for k in range(n + 1)]
    assert support.conjugate(t) == d
    assert support.conjugate(s) == s
    assert [support.conjugate(delta) for delta in deltas] == gammas
    for f in [t, d, s, *deltas, *gammas]:
        assert support.conjugate(support.conjugate(f)) == f


@pytest.mark.parametrize("n", range(2, 8))
def test_profile_vectors_evaluate_to_the_measures(n):
    for seed, cards in ((n, 2), (100 + n, ([3, 2, 4] * 3)[:n])):
        dist = random_distribution(n, cards, seed)
        profile = _entropy_profile(dist)
        r = measure_report(dist)
        pairs = [(support.tc_vector(n), r.total_correlation),
                 (support.dtc_vector(n), r.dual_total_correlation),
                 (support.s_vector(n), r.s_information)]
        for k in range(n + 1):
            pairs.append((support.delta_vector(n, k), delta_k(dist, k)))
            pairs.append((support.gamma_vector(n, k), gamma_k(dist, k)))
        for f, value in pairs:
            assert abs(support.evaluate(f, profile) - value) < TOL
