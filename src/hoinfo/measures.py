"""Scalar information measures on discrete joint distributions.

Implements joint entropy H, mutual information I, total correlation T, dual
total correlation D, S-information S = T + D, O-information O = T - D, and
the two k-parameterized whole-minus-sum families built from them:

* ``delta_k``: S - k*T, equivalently (N-k)*T(X) - sum_i T(X without i).
  Special cases: k=0 gives S, k=1 gives D, k=2 gives -O.
* ``gamma_k``: S - k*D.
  Special cases: k=0 gives S, k=1 gives T, k=2 gives O.

Both families are affine in k, so each needs only one computation of S, T,
and D. Every multivariate measure here is read from the distribution's
entropy profile (H(X), every H(X_i) and every H(X^{-i})), which
:mod:`hoinfo.distribution` builds once per distribution and keeps:
:func:`measure_report` is a pure function of the whole profile, every
other measure but T a read of its result, and :func:`total_correlation`
reads the first half alone. So a sweep over k, or any mix of measures,
builds the 2N+1 entropies once.

All results are in units of ``dist.config.log_base`` (bits by default).
Sums over variable indices accumulate in ascending index order, so results
are deterministic and identical for dense and sparse representations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable

from .distribution import (
    EntropyProfile,
    JointDistribution,
    _entropy_profile,
    _is_int_type,
    _quote,
    as_subset,
    entropy,
    leave_one_out,
    marginalize,
)
from .errors import (
    FunctionalNegativeError,
    FunctionalNonMonotoneError,
    MalformedInputError,
    OverlappingSubsetsError,
    SystemTooSmallError,
)


@dataclass(frozen=True, slots=True)
class MeasureReport:
    """The five scalar measures of one distribution, in bits by default.

    Invariants (up to the configured zero tolerance): total_correlation,
    dual_total_correlation, and s_information are non-negative;
    s_information = total_correlation + dual_total_correlation; and
    o_information = total_correlation - dual_total_correlation.
    """

    joint_entropy: float
    total_correlation: float
    dual_total_correlation: float
    s_information: float
    o_information: float


@dataclass(frozen=True, slots=True)
class MeasureFunctional:
    """A named set function over distributions for :func:`generic_delta_k`.

    ``evaluate`` must be non-negative and non-increasing under
    marginalization; both properties are checked at call time, not assumed.
    """

    name: str
    evaluate: Callable[[JointDistribution], float]


def _require_multivariate(dist: JointDistribution) -> None:
    if dist.n_vars < 2:
        raise SystemTooSmallError(
            "measure undefined for systems with fewer than 2 variables"
        )


def _tc_from(profile: EntropyProfile) -> float:
    """T = sum_i H(X_i) - H(X), from the first half of ``profile``."""
    acc = 0.0
    for h in profile.singles:
        acc += h
    return acc - profile.joint


def measure_report(dist: JointDistribution) -> MeasureReport:
    """All five scalar measures, read from the 2N+1 entropies of the
    distribution's entropy profile.

    The profile (H(X), every H(X_i) from a halving tree of marginals and
    every H(X^{-i}) from a fused, blocked fold) is built on the first call
    for ``dist`` and kept on it; a later call, like each multivariate
    measure in this module that reads this report, only does the sums.
    """
    _require_multivariate(dist)
    return _report(_entropy_profile(dist))


def _report(profile: EntropyProfile) -> MeasureReport:
    """The five measures of a whole entropy profile; a profile without its
    leave-one-out half raises ``ValueError``."""
    h_joint, singles, loo = profile.joint, profile.singles, profile.leave_one_out
    t = _tc_from(profile)
    # D = H(X) - sum_i H(X_i | X^{-i}), with H(X_i | X^{-i}) = H(X) - H(X^{-i})
    acc = 0.0
    for h in loo:
        acc += h_joint - h
    d = h_joint - acc
    # S = sum_i I(X_i ; X^{-i})
    s = 0.0
    for h_single, h_rest in zip(singles, loo, strict=True):
        s += h_single + h_rest - h_joint
    return MeasureReport(h_joint, t, d, s, t - d)


def mutual_information(
    dist: JointDistribution,
    part_a: Iterable[int],
    part_b: Iterable[int],
) -> float:
    """Mutual information I(A;B) = H(A) + H(B) - H(A,B) between two
    disjoint, non-empty groups of variables."""
    a = as_subset(part_a, dist.n_vars)
    b = as_subset(part_b, dist.n_vars)
    if overlap := set(a) & set(b):
        raise OverlappingSubsetsError(
            "variable groups must be disjoint, both contain "
            f"{_quote(sorted(overlap))}")
    h_a = entropy(marginalize(dist, a))
    h_b = entropy(marginalize(dist, b))
    h_ab = entropy(marginalize(dist, a + b))
    return h_a + h_b - h_ab


def total_correlation(dist: JointDistribution) -> float:
    """Total correlation T = sum_i H(X_i) - H(X).

    Zero exactly when all variables are independent; bounded above by
    (N-1) * max_i H(X_i). Defined for N >= 1 (trivially 0 for N = 1).
    Reads H(X) and the singles from the first half of the kept entropy
    profile, building only that half if none is kept, so it agrees with
    :func:`measure_report` bit for bit.
    """
    return _tc_from(_entropy_profile(dist, leave_one_out=False))


def dual_total_correlation(dist: JointDistribution) -> float:
    """Dual total correlation D = H(X) - sum_i H(X_i | X^{-i}).

    The share of the joint entropy carried by two or more variables at
    once; zero under global independence, low under total synchrony.
    """
    return measure_report(dist).dual_total_correlation


def s_information(dist: JointDistribution) -> float:
    """S-information S = sum_i I(X_i ; X^{-i}) = T + D.

    Non-negative; zero only when all variables are independent.
    """
    return measure_report(dist).s_information


def o_information(dist: JointDistribution) -> float:
    """O-information O = T - D.

    Signed: negative means the dependency structure is dominated by
    synergistic interactions, positive means redundancy-dominated, and a
    system with only pairwise dependencies scores zero.
    """
    return measure_report(dist).o_information


def delta_k(dist: JointDistribution, k: int) -> float:
    """Synergy-ordered family Delta^k = S - k*T = (N-k)*T - sum_i T(X^{-i}).

    k = 0 gives S, k = 1 gives D, k = 2 gives -O. For a system made
    entirely of order-k synergistic interactions the value is 0; positive
    values indicate interactions of order above k dominate, negative
    values that lower orders dominate. Any integer k is accepted (numpy
    integers too); a k of another type, a bool included, or one beyond the
    float range raises :class:`MalformedInputError`.

    Sign convention: the source paper's abstract words it the other way
    round (Delta^k < 0 read as domination by orders above k). This code
    reads Delta^k > 0 that way, which agrees with Delta^0 = S >= 0 and with
    the closed form Delta^k = (N-k)*log2(a) of an N-variable parity over
    alphabet a, e.g. (4, 3, 2, 1, 0) bits for parity(4).
    """
    k = _float_k(k)
    r = measure_report(dist)
    return r.s_information - k * r.total_correlation


def gamma_k(dist: JointDistribution, k: int) -> float:
    """Redundancy-ordered family Gamma^k = S - k*D.

    k = 0 gives S, k = 1 gives T, k = 2 gives O. Zero for a system made
    entirely of order-k redundant interactions (k identical copies of one
    variable). Any integer k is accepted (numpy integers too); a k of another
    type, a bool included, or one beyond the float range raises
    :class:`MalformedInputError`.
    """
    k = _float_k(k)
    r = measure_report(dist)
    return r.s_information - k * r.dual_total_correlation


def generic_delta_k(
    functional: MeasureFunctional, dist: JointDistribution, k: int
) -> float:
    """Order-k whole-minus-sum statistic for an arbitrary functional.

    Returns (N-k) * f(X) - sum_i f(X^{-i}). With f = total correlation
    this reproduces :func:`delta_k`. Two of the three requirements for an
    order interpretation are enforced per call: f must be finite and
    non-negative on every evaluated distribution, and must not increase under
    marginalization. The third (pure order-k relationships must vanish
    under any single marginalization) quantifies over all pure systems and
    cannot be checked per input; a ``UserWarning`` naming the functional
    records that it is assumed, not verified. Under the default warning
    filters it is shown once per functional and call site.
    """
    k = _float_k(k)
    _require_multivariate(dist)
    tol = dist.config.zero_tolerance
    warnings.warn(
        f"functional {_quote(functional.name)}: fragility of pure order-k "
        "relationships is assumed, not verified; order interpretations "
        "require it",
        UserWarning,
        stacklevel=2,
    )
    f_joint = _checked_value(functional, dist, tol)
    acc = 0.0
    for i in range(dist.n_vars):
        f_i = _checked_value(functional, leave_one_out(dist, i), tol)
        if f_joint < f_i - tol:
            raise FunctionalNonMonotoneError(
                f"functional {_quote(functional.name)} increased under "
                f"marginalization of variable {i}: "
                f"f(X)={f_joint} < f(X^-i)={f_i}"
            )
        acc += f_i
    return (dist.n_vars - k) * f_joint - acc


def _check_k(k: object) -> int:
    """``k`` as a Python int; a k that is not of an integer type (a bool is
    not one) raises :class:`MalformedInputError`."""
    if not _is_int_type(type(k)):
        raise MalformedInputError(f"k must be an integer, got {_quote(k)}")
    return int(k)


def _float_k(k: object) -> float:
    """``k`` checked by :func:`_check_k`, as a float; an integer k beyond
    the float range raises :class:`MalformedInputError` too."""
    try:
        return float(_check_k(k))
    except OverflowError:
        raise MalformedInputError(
            f"k={_quote(k)} is beyond the float range") from None


def _checked_value(
    functional: MeasureFunctional, dist: JointDistribution, tol: float
) -> float:
    value = float(functional.evaluate(dist))
    # NaN fails every comparison, so it fails this one too
    if not -tol <= value < float("inf"):
        raise FunctionalNegativeError(
            f"functional {_quote(functional.name)} returned {value}, not a "
            "finite value >= 0")
    return value
