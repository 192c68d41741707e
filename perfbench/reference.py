"""Expected measures computed without the hoinfo package, and report checks.

Three kinds of reference, all computed before any op is timed:

* closed forms for the parity and giant-bit gadgets;
* numpy evaluation of a joint table (dense array or sample rows): joint,
  single-variable and leave-one-out entropies from axis sums or from
  ``np.unique`` counts;
* for the random tables the CLI generates itself (``--gen random``), the
  documented generation scheme re-implemented here, so the reference sees
  the same quantized masses the program does.

A report passes when every measure and every delta/gamma value is within
``TOL`` bits of the reference, and the report agrees with itself:
S = T + D, O = T - D, delta[k] = S - k*T, gamma[k] = S - k*D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9
MEASURE_KEYS = ("joint_entropy", "total_correlation", "dual_total_correlation",
                "s_information", "o_information")


@dataclass(frozen=True)
class Expected:
    """Reference measures of one system, in bits."""

    cardinalities: tuple[int, ...]
    h_joint: float
    singles: tuple[float, ...]
    loo: tuple[float, ...]

    @property
    def t(self) -> float:
        return math.fsum(self.singles) - self.h_joint

    @property
    def d(self) -> float:
        return self.h_joint - math.fsum(self.h_joint - h for h in self.loo)

    def measures(self) -> dict[str, float]:
        t, d = self.t, self.d
        return {"joint_entropy": self.h_joint, "total_correlation": t,
                "dual_total_correlation": d, "s_information": t + d,
                "o_information": t - d}


def _entropy_of_masses(p: np.ndarray) -> float:
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def from_table(table: np.ndarray) -> Expected:
    """Reference profile of a dense table (one axis per variable)."""
    n = table.ndim
    singles = tuple(
        _entropy_of_masses(table.sum(axis=tuple(j for j in range(n) if j != i)))
        for i in range(n)
    )
    loo = tuple(_entropy_of_masses(table.sum(axis=i).ravel()) for i in range(n))
    return Expected(tuple(table.shape), _entropy_of_masses(table.ravel()),
                    singles, loo)


def _entropy_of_codes(codes: np.ndarray) -> float:
    _, counts = np.unique(codes, return_counts=True)
    return _entropy_of_masses(counts / codes.shape[0])


def from_rows(rows: np.ndarray) -> Expected:
    """Plug-in reference of integer sample rows (rows x variables).

    Each column's alphabet is its sorted set of observed symbols.
    """
    n = rows.shape[1]
    index_cols = []
    cards = []
    for j in range(n):
        alphabet, inverse = np.unique(rows[:, j], return_inverse=True)
        index_cols.append(inverse.astype(np.int64))
        cards.append(len(alphabet))

    def codes(keep: list[int]) -> np.ndarray:
        out = np.zeros(rows.shape[0], dtype=np.int64)
        for j in keep:
            out = out * cards[j] + index_cols[j]
        return out

    everything = list(range(n))
    singles = tuple(_entropy_of_codes(index_cols[i]) for i in everything)
    loo = tuple(_entropy_of_codes(codes([j for j in everything if j != i]))
                for i in everything)
    return Expected(tuple(cards), _entropy_of_codes(codes(everything)),
                    singles, loo)


def parity(order: int, alphabet: int) -> Expected:
    """k variables, the last the sum of the rest mod the alphabet size."""
    h = math.log2(alphabet)
    return Expected((alphabet,) * order, (order - 1) * h, (h,) * order,
                    ((order - 1) * h,) * order)


def giant_bit(order: int, alphabet: int) -> Expected:
    """k identical copies of one uniform variable."""
    h = math.log2(alphabet)
    return Expected((alphabet,) * order, h, (h,) * order, (h,) * order)


def random_table(cards: tuple[int, ...], seed: int,
                 concentration: float = 1.0) -> np.ndarray:
    """The seeded random table of hoinfo's ``random`` generator kind.

    Follows the scheme its documentation fixes: one uniform deviate per
    state, weight (1 - u) ** (1 / concentration), normalized weights
    quantized to multiples of 2**-B with at least one quantum per state,
    and the quantization residual spread by fractional part, largest
    first, with stable index tie-breaks.
    """
    n_states = math.prod(cards)
    u = np.random.default_rng(seed).random(n_states)
    w = (1.0 - u) ** (1.0 / concentration)
    bits = min(48, max(40, n_states.bit_length() + 14))
    target = 1 << bits
    # cumsum is a strict left fold, the order the scheme normalizes in
    scaled = w * (target / float(np.cumsum(w)[-1]))
    floors = np.floor(scaled)
    quanta = np.maximum(floors, 1.0).astype(np.int64)
    frac = scaled - floors
    residual = target - int(quanta.sum())
    if residual > 0:
        order = np.argsort(-frac, kind="stable")
        whole, extra = divmod(residual, n_states)
        quanta += whole
        quanta[order[:extra]] += 1
    elif residual < 0:
        order = np.argsort(frac, kind="stable")
        deficit = -residual
        while deficit > 0:
            takeable = order[quanta[order] > 1][:deficit]
            quanta[takeable] -= 1
            deficit -= takeable.size
    return (quanta / float(target)).reshape(cards)


def check_report(report: dict, expected: Expected, *,
                 spectrum: bool) -> list[str]:
    """Mismatches between one CLI report and its reference; [] when it passes."""
    problems = []
    if tuple(report.get("cardinalities", ())) != expected.cardinalities:
        problems.append(f"cardinalities {report.get('cardinalities')} != "
                        f"{list(expected.cardinalities)}")
        return problems
    got = report["measures"]
    want = expected.measures()
    for key in MEASURE_KEYS:
        if not abs(got[key] - want[key]) <= TOL:
            problems.append(f"{key} {got[key]!r} != reference {want[key]!r}")
    s, t, d = (got["s_information"], got["total_correlation"],
               got["dual_total_correlation"])
    if not abs(s - (t + d)) <= TOL:
        problems.append(f"S - (T + D) = {s - (t + d)!r}")
    if not abs(got["o_information"] - (t - d)) <= TOL:
        problems.append(f"O - (T - D) = {got['o_information'] - (t - d)!r}")
    if spectrum:
        problems += _check_spectrum(report.get("spectrum"), got, want,
                                    report["config"]["zero_tolerance"])
    return problems


def _check_spectrum(spec: dict | None, got: dict, want: dict,
                    tol: float) -> list[str]:
    if spec is None:
        return ["spectrum missing"]
    n = len(spec["delta"]) - 1
    s, t, d = (got["s_information"], got["total_correlation"],
               got["dual_total_correlation"])
    problems = []
    for k in range(n + 1):
        for name, values, slope, ref_slope in (("delta", spec["delta"], t,
                                                want["total_correlation"]),
                                               ("gamma", spec["gamma"], d,
                                                want["dual_total_correlation"])):
            if not abs(values[k] - (s - k * slope)) <= TOL * max(1, k):
                problems.append(f"{name}[{k}] not affine in k")
            ref = want["s_information"] - k * ref_slope
            if not abs(values[k] - ref) <= TOL * max(1, k):
                problems.append(f"{name}[{k}] {values[k]!r} != reference {ref!r}")
    for name, values, slope, order_key in (
            ("delta", spec["delta"], t, "synergy_order"),
            ("gamma", spec["gamma"], d, "redundancy_order")):
        first_zero = next((k for k in range(n + 1) if values[k] <= tol), None)
        expect_order = first_zero if slope > tol else None
        if spec[order_key] != expect_order:
            problems.append(f"{order_key} {spec[order_key]} != {expect_order}")
    return problems
