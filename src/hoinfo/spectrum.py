"""k-sweeps of the delta/gamma families and order diagnostics.

A single computation of S, T, and D (one :func:`measure_report`)
determines the whole sweep, since delta[k] = S - k*T and gamma[k] =
S - k*D are affine in k. The derived diagnostics locate where each
family hits zero:

* ``synergy_order``: smallest k with delta[k] <= zero_tolerance. A pure
  order-k synergy gadget (parity of order k) reports exactly k. The
  closely related query "largest k with delta[k] > 0" is this value minus
  one and can be read off the array directly.
* ``redundancy_order``: smallest k with gamma[k] <= zero_tolerance; a
  giant bit of order k reports exactly k.
* ``delta_crossing`` / ``gamma_crossing``: the real-valued zeros S/T and
  S/D of the two affine maps, exposed as convenience diagnostics.

When T (or D) is below tolerance the system is independent along that
axis and the corresponding order and crossing are undefined (None) rather
than infinite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .distribution import JointDistribution, _count_text
from .errors import IndexOutOfRangeError
from .measures import MeasureReport, _check_k, measure_report


class SignInterpretation(enum.Enum):
    """Reading of the sign of delta[k] for one k."""

    HIGHER_ORDER_DOMINATED = "higher_order_dominated"
    LOWER_ORDER_DOMINATED = "lower_order_dominated"
    BALANCED_AT_K = "balanced_at_k"


@dataclass(frozen=True, slots=True)
class SpectrumResult:
    """delta and gamma arrays over k = 0..N plus derived order diagnostics.

    Invariants: delta[0] = gamma[0] = S; delta decreases with slope -T and
    gamma with slope -D; when defined, delta[k] > 0 exactly for
    k < delta_crossing (up to tolerance). ``measures`` is the report the
    sweep was computed from.
    """

    delta: tuple[float, ...]
    gamma: tuple[float, ...]
    synergy_order: int | None
    redundancy_order: int | None
    delta_crossing: float | None
    gamma_crossing: float | None
    zero_tolerance: float
    measures: MeasureReport

    @property
    def n_vars(self) -> int:
        return len(self.delta) - 1


def compute_spectrum(dist: JointDistribution) -> SpectrumResult:
    """Sweep delta[k] and gamma[k] for k = 0..N and extract diagnostics.

    The distribution's config supplies the measure values and the
    zero_tolerance used for order and crossing determination.

    Sign convention: delta[k] > 0 is read as "interactions of order above k
    dominate", the reverse of the wording of the source paper's abstract
    (which puts that reading on delta[k] < 0). This reading agrees with
    delta[0] = S >= 0 and with the closed forms: parity(N, a) has
    delta[k] = (N-k)*log2(a), so parity(4) gives delta = (4, 3, 2, 1, 0),
    and giant_bit(N, a) has gamma[k] = (N-k)*log2(a).
    """
    measures = measure_report(dist)
    s = measures.s_information
    t = measures.total_correlation
    d = measures.dual_total_correlation
    n = dist.n_vars

    delta = tuple(s - k * t for k in range(n + 1))
    gamma = tuple(s - k * d for k in range(n + 1))

    tol = dist.config.zero_tolerance
    synergy_order = None
    delta_crossing = None
    if t > tol:
        synergy_order = next((k for k in range(n + 1) if delta[k] <= tol), None)
        delta_crossing = s / t
    redundancy_order = None
    gamma_crossing = None
    if d > tol:
        redundancy_order = next((k for k in range(n + 1) if gamma[k] <= tol), None)
        gamma_crossing = s / d

    return SpectrumResult(
        delta=delta,
        gamma=gamma,
        synergy_order=synergy_order,
        redundancy_order=redundancy_order,
        delta_crossing=delta_crossing,
        gamma_crossing=gamma_crossing,
        zero_tolerance=tol,
        measures=measures,
    )


def sign_interpretation(spectrum: SpectrumResult, k: int) -> SignInterpretation:
    """Classify the dependency structure relative to order k.

    delta[k] above tolerance means interactions of order greater than k
    dominate; below negative tolerance, lower orders dominate; otherwise
    the system is balanced at k (as pure order-k systems are). A k that is
    not of an integer type raises :class:`MalformedInputError`.
    """
    k = _check_k(k)
    if not 0 <= k <= spectrum.n_vars:
        raise IndexOutOfRangeError(
            f"k={_count_text(k)} outside the spectrum range "
            f"0..{spectrum.n_vars}"
        )
    value = spectrum.delta[k]
    if value > spectrum.zero_tolerance:
        return SignInterpretation.HIGHER_ORDER_DOMINATED
    if value < -spectrum.zero_tolerance:
        return SignInterpretation.LOWER_ORDER_DOMINATED
    return SignInterpretation.BALANCED_AT_K
