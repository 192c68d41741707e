"""Shared construction helpers for the test suite.

Every random object is derived from an explicit master seed so the whole
suite is reproducible bit for bit.
"""

import math

import numpy as np

import hoinfo.distribution as distribution
from hoinfo import (
    JointDistribution,
    build_distribution,
    leave_one_out,
    random_distribution,
    total_correlation,
)
from hoinfo.fileio import parse_samples_csv

# Uniform inputs with the last variable their XOR: the canonical pure
# three-way synergy. Dyadic masses, so all derived sums are exact.
XOR_TRIPLE_ENTRIES = [
    ((0, 0, 0), 0.25),
    ((0, 1, 1), 0.25),
    ((1, 0, 1), 0.25),
    ((1, 1, 0), 0.25),
]


def xor_triple() -> JointDistribution:
    return build_distribution([2, 2, 2], XOR_TRIPLE_ENTRIES)


# The kernels of the entropy profile, in the order its builder calls them.
PROFILE_KERNELS = ("entropy", "_single_entropies", "_leave_one_out_entropies")


def count_profile_kernels(monkeypatch) -> list[tuple[str, int]]:
    """Patch the profile kernels of ``hoinfo.distribution`` to record the
    (name, n_vars) of each outermost call; the calls the kernels make of
    each other (the entropies of the singles tree's leaves, say) are not
    recorded. Returns the list the calls are recorded in."""
    calls: list[tuple[str, int]] = []
    depth = []

    def counting(name, real):
        def counted(dist):
            if not depth:
                calls.append((name, dist.n_vars))
            depth.append(name)
            try:
                return real(dist)
            finally:
                depth.pop()
        return counted

    for name in PROFILE_KERNELS:
        monkeypatch.setattr(distribution, name,
                            counting(name, getattr(distribution, name)))
    return calls


def nested_product(levels: int, leaf: dict) -> dict:
    """The generator spec ``leaf`` as the innermost of ``levels`` nested
    specs, each outer one an independent product of the one inside it."""
    for _ in range(levels - 1):
        leaf = {"kind": "independent_product", "components": [leaf]}
    return leaf


def samples_csv_rows(text: str) -> tuple[list[str], list[tuple]]:
    """(names, observation rows) of a samples CSV, each distinct row rebuilt
    from the alphabets and symbol indices that ``parse_samples_csv``
    returns and repeated by its count."""
    names, alphabets, digits, counts = parse_samples_csv(text)
    columns = [[alphabet[i] for i in d.tolist()]
               for alphabet, d in zip(alphabets, digits)]
    return names, [row for row, n in zip(zip(*columns), counts.tolist())
                   for _ in range(n)]


def random_suite(count: int, master_seed: int = 20240817,
                 n_range=(2, 5), cards=(2, 3)) -> list[JointDistribution]:
    """Seeded random distributions with mixed per-variable cardinalities."""
    master = np.random.default_rng(master_seed)
    suite = []
    for _ in range(count):
        n = int(master.integers(n_range[0], n_range[1] + 1))
        per_var = [int(master.choice(cards)) for _ in range(n)]
        concentration = float(master.choice([0.5, 1.0, 2.0]))
        seed = int(master.integers(0, 2**63 - 1))
        suite.append(
            random_distribution(n, per_var, seed, concentration)
        )
    return suite


def dyadic_random_table(rng: np.random.Generator, cards,
                        resolution_bits: int = 30) -> JointDistribution:
    """Random dense table whose masses are exact binary fractions.

    Sums of such masses are exact at every grouping, which makes
    marginalization associativity testable as exact equality.
    """
    n_states = int(np.prod(cards))
    weights = rng.integers(1, 1 << 16, size=n_states).astype(np.int64)
    total = int(weights.sum())
    target = 1 << resolution_bits
    assert target >= total
    weights[0] += target - total
    masses = weights / float(target)
    entries = []
    state = [0] * len(cards)
    for flat, mass in enumerate(masses):
        idx = flat
        for pos in range(len(cards) - 1, -1, -1):
            state[pos] = idx % cards[pos]
            idx //= cards[pos]
        entries.append((tuple(state), float(mass)))
    return build_distribution(cards, entries)


# Reference algorithms for the support store: plain ``state -> mass`` dicts
# that fold every sum in the order the package documents, so the package
# must match them bit for bit.


def dict_build(entries) -> dict:
    """Entries summed per state in input order from 0.0, in ascending
    state order, zero masses kept."""
    acc: dict = {}
    for state, mass in entries:
        acc[state] = acc.get(state, 0.0) + mass
    return dict(sorted(acc.items()))


def distribution_to_obj(dist: JointDistribution) -> dict:
    """The distribution JSON object of ``dist``, support entries in
    ascending state order; ``json.dumps(obj, indent=2)`` of it is the
    layout ``dumps_distribution`` must write byte for byte."""
    return {
        "cardinalities": list(dist.cardinalities),
        "entries": [
            {"state": list(state), "p": mass} for state, mass in dist.items()
        ],
    }


def loop_entry_error(cardinalities, entries):
    """(class name, message) of the error for the first invalid entry, as
    a per-entry loop finds it, or None when every entry is valid.

    Covers the rules for well-typed entries: arity, coordinate range, then
    a negative or non-finite mass, checked in that order within an entry.
    """
    n = len(cardinalities)
    for raw_state, raw_mass in entries:
        state = tuple(int(x) for x in raw_state)
        if len(state) != n:
            return ("StateOutOfRangeError",
                    f"state {state} has arity {len(state)}, expected {n}")
        for i, (s, c) in enumerate(zip(state, cardinalities)):
            if not 0 <= s < c:
                return ("StateOutOfRangeError",
                        f"coordinate {i} of state {state} outside [0, {c})")
        mass = float(raw_mass)
        if mass < 0.0:
            return ("NegativeMassError",
                    f"state {state} has negative mass {mass}")
        if not math.isfinite(mass):
            return ("NonFiniteMassError",
                    f"state {state} has non-finite mass {mass!r}")
    return None


def dict_marginal(pmf: dict, keep: tuple) -> dict:
    """Marginal of ``pmf`` over ``keep``: each kept state's mass folded
    from 0.0 over its states in ascending order."""
    acc: dict = {}
    for state, mass in sorted(pmf.items()):
        sub = tuple(state[i] for i in keep)
        acc[sub] = acc.get(sub, 0.0) + mass
    return {s: m for s, m in sorted(acc.items()) if m > 0.0}


def dict_product(pmf_a: dict, pmf_b: dict) -> dict:
    """Independent join of two supports; products that underflow to 0.0
    are not support."""
    out = {}
    for sa, ma in sorted(pmf_a.items()):
        for sb, mb in sorted(pmf_b.items()):
            if ma * mb > 0.0:
                out[sa + sb] = ma * mb
    return out


def random_table(cards, seed: int, zero_share: float) -> JointDistribution:
    """Dense table of masses that are not binary fractions, with about
    ``zero_share`` of its cells zero, so sums depend on their order."""
    rng = np.random.default_rng(seed)
    weights = rng.random(cards) ** 4
    weights[rng.random(cards) < zero_share] = 0.0
    weights.flat[0] += 1.0
    entries = [(s, float(weights[s])) for s in np.ndindex(*cards)]
    return build_distribution(cards, entries, renormalize=True)


def pairwise_sum(values) -> float:
    """numpy's pairwise sum of a sequence of floats, as ``np.add.reduce``
    takes it over a contiguous float64 array: below 8 values a left fold
    from 0.0; up to 128, eight accumulators over the first n - n%8 values,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the rest left to
    right; beyond that, the sums of the halves split at n//2 - (n//2)%8."""
    n = len(values)
    if n < 8:
        acc = 0.0
        for value in values:
            acc += value
        return acc
    if n <= 128:
        r = list(values[:8])
        whole = n - n % 8
        for i in range(8, whole, 8):
            for j in range(8):
                r[j] += values[i + j]
        acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for value in values[whole:]:
            acc += value
        return acc
    half = n // 2 - (n // 2) % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def entropy_reference(dist: JointDistribution) -> float:
    """Shannon entropy of ``dist`` by the documented rule, without the
    package's kernel: the terms ``np.log2(p) * p`` of the positive masses
    in ascending state order, cut into runs of ``distribution._BLOCK``
    terms (read at call time), each run summed by :func:`pairwise_sum`,
    the run sums folded left to right from 0.0."""
    _, masses = dist._support()
    terms = (np.log2(masses) * masses).tolist()
    run = distribution._BLOCK
    acc = 0.0
    for start in range(0, len(terms), run):
        acc += pairwise_sum(terms[start:start + run])
    return 0.0 - acc / math.log2(dist.config.log_base)


# Cross-check paths: D, delta and gamma from joint and leave-one-out total
# correlations alone, each marginal T recomputed from scratch. They share
# the package's total_correlation and leave_one_out, so they check the
# profile fold of measure_report, not the primitives (tests/oracle.py does).


def _marginal_tc_sum(dist: JointDistribution) -> float:
    """sum_i T(X^{-i}), each marginal total correlation from scratch."""
    acc = 0.0
    for i in range(dist.n_vars):
        acc += total_correlation(leave_one_out(dist, i))
    return acc


def dual_total_correlation_via_tc(dist: JointDistribution) -> float:
    """D recomputed as (N-1)*T(X) - sum_i T(X^{-i})."""
    n = dist.n_vars
    return float(n - 1) * total_correlation(dist) - _marginal_tc_sum(dist)


def delta_k_via_tc(dist: JointDistribution, k: int) -> float:
    """Delta^k from its summation form (N-k)*T(X) - sum_i T(X^{-i})."""
    n = dist.n_vars
    return float(n - k) * total_correlation(dist) - _marginal_tc_sum(dist)


def gamma_k_via_tc(dist: JointDistribution, k: int) -> float:
    """Gamma^k as (1 - (N-1)*(k-1)) * T(X) + (k-1) * sum_i T(X^{-i})."""
    n = dist.n_vars
    coeff = 1 - (n - 1) * (k - 1)
    return float(coeff) * total_correlation(dist) + float(k - 1) * _marginal_tc_sum(dist)


def random_scaled_weights(n_states: int, seed: int,
                          concentration: float) -> tuple[np.ndarray, int]:
    """The weights of ``random_distribution`` by its documented scheme,
    scaled by 2**B over their left-folded sum, and 2**B."""
    u = np.random.default_rng(seed).random(n_states)
    w = (1.0 - u) ** (1.0 / concentration)
    bits = min(48, max(40, n_states.bit_length() + 14))
    target = 1 << bits
    total = 0.0
    for x in w.tolist():
        total += x
    return w * (target / total), target


def quanta_residual(scaled: np.ndarray, target: int) -> int:
    """target - sum(max(floor(scaled), 1)): the quanta left to place, or
    minus those placed too many (a deficit)."""
    return target - int(np.maximum(np.floor(scaled), 1.0).sum())


def random_masses_by_argsort(n_states: int, seed: int,
                             concentration: float) -> np.ndarray:
    """Flat masses of ``random_distribution`` by its documented scheme,
    with the residual quanta placed by a full stable sort of the fractions
    (largest first, lowest index first among ties). A deficit is first
    rescaled away, which must leave a residual of at least ``n_states``
    in every table the tests build."""
    scaled, target = random_scaled_weights(n_states, seed, concentration)
    residual = quanta_residual(scaled, target)
    if residual < 0:
        scaled *= (target - 2 * n_states) / target
        residual = quanta_residual(scaled, target)
        assert residual >= n_states, residual
    floors = np.floor(scaled)
    quanta = np.maximum(floors, 1.0).astype(np.int64)
    frac = scaled - floors
    whole, extra = divmod(residual, n_states)
    quanta += whole
    quanta[np.argsort(-frac, kind="stable")[:extra]] += 1
    return quanta / float(target)


# The measures as linear functionals of the entropy profile: integer
# coefficient tuples over (H, H(X_1), ..., H(X_N), H(X^-1), ..., H(X^-N)).


def profile_functional(n: int, joint: int, single: int,
                       leave_one_out: int) -> tuple[int, ...]:
    """Coefficient ``joint`` on H, ``single`` on each H(X_i) and
    ``leave_one_out`` on each H(X^-i)."""
    return (joint,) + (single,) * n + (leave_one_out,) * n


def tc_vector(n: int) -> tuple[int, ...]:
    """T = sum_i H(X_i) - H."""
    return profile_functional(n, -1, 1, 0)


def dtc_vector(n: int) -> tuple[int, ...]:
    """D = H - sum_i (H - H(X^-i))."""
    return profile_functional(n, 1 - n, 0, 1)


def s_vector(n: int) -> tuple[int, ...]:
    """S = T + D."""
    return tuple(t + d for t, d in zip(tc_vector(n), dtc_vector(n)))


def delta_vector(n: int, k: int) -> tuple[int, ...]:
    """Delta^k = S - k*T."""
    return tuple(s - k * t for s, t in zip(s_vector(n), tc_vector(n)))


def gamma_vector(n: int, k: int) -> tuple[int, ...]:
    """Gamma^k = S - k*D."""
    return tuple(s - k * d for s, d in zip(s_vector(n), dtc_vector(n)))


def conjugate(f: tuple[int, ...]) -> tuple[int, ...]:
    """conj f = -f o psi, where psi(H(X_S)) = H(X) - H(X_{S^c}).

    psi maps H to H - H(X_empty) = H, each H(X_i) to H - H(X^-i) and each
    H(X^-i) to H - H(X_i). So f o psi has the sum of f's coefficients on
    H, and on H(X^-i) the negated coefficient f has on H(X_i), and the
    other way round; conj negates that."""
    n = (len(f) - 1) // 2
    singles, leave_one_out = f[1:n + 1], f[n + 1:]
    return (-sum(f),) + leave_one_out + singles


def evaluate(f: tuple[int, ...], profile) -> float:
    """The functional ``f`` at an ``EntropyProfile``."""
    values = (profile.joint, *profile.singles, *profile.leave_one_out)
    return math.fsum(c * v for c, v in zip(f, values))
