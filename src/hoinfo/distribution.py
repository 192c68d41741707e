"""Discrete joint probability distributions and entropy primitives.

The central object is :class:`JointDistribution`: N discrete variables with
finite alphabets and a normalized probability mass table. Each joint state
is identified by its code, the row-major (mixed-radix) index of the state,
and a distribution stores a flat float64 mass array against those codes.
A dense distribution holds one mass per state and its codes are implicit
(the array index). A sparse one holds only the positive masses, with the
ascending codes of their states beside them. Codes are int64 while the
state space has fewer than 2**63 states and Python ints (an object array)
beyond that; the same expressions serve both. Every information measure
in this package is built from the four primitives defined here:
marginalization, leave-one-out marginalization, independent products, and
Shannon entropy.

Determinism contract
--------------------
All mass summations are strict left-to-right folds over states in ascending
mixed-radix (lexicographic) order: dense tables fold in ascending linear
index order, sparse supports in ascending code order. Because adding an
exact zero never perturbs an accumulator, the two representations of the
same distribution produce bit-identical marginal masses, entropies, and
therefore bit-identical measures, and every result is reproducible run to
run.

A dense marginal is folded from strided views of the table, never a copy
of it, looping over whichever side of the marginal has fewer states. When
the dropped variables have no more joint states than the kept ones, one
accumulator over all kept states, starting at 0.0, takes one slice per
dropped state in ascending order; otherwise each kept state's cells are
folded one after another in row-major chunks. Either way every kept
state's mass is the same left fold over its cells in ascending order.

A sparse marginal, and the summing of duplicate entries at construction,
uses ``np.bincount``, which adds each mass into its target state's
accumulator, from 0.0, in input order: ascending code order for a
marginal, the caller's order for duplicates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    EmptySubsetError,
    IndexOutOfRangeError,
    MalformedInputError,
    NegativeMassError,
    NonFiniteMassError,
    NotNormalizedError,
    RaggedRowsError,
    StateOutOfRangeError,
    SystemTooSmallError,
    TableTooLargeError,
)

State = tuple[int, ...]

# Variable subsets are plain tuples of distinct ascending indices; public
# functions accept any iterable of ints and canonicalize.
VariableSubset = tuple[int, ...]

# Elements per np.add.accumulate chunk; bounds transient memory of a fold.
_FOLD_CHUNK = 1 << 20


@dataclass(frozen=True, slots=True)
class EstimatorConfig:
    """Numeric policy shared by construction and measures.

    Parameters
    ----------
    log_base : float
        Base of all logarithms; 2.0 yields results in bits.
    normalization_tolerance : float
        Maximum allowed |sum(masses) - 1| at construction.
    zero_tolerance : float
        Absolute threshold below which a measure is considered zero
        (used by spectrum order extraction and sign classification).
    max_dense_states : int
        Cap on the number of materialized table cells. Joint state spaces
        larger than this are stored sparsely; sparse supports and product
        results are capped at the same count.
    """

    log_base: float = 2.0
    normalization_tolerance: float = 1e-9
    zero_tolerance: float = 1e-9
    max_dense_states: int = 2**26

    def __post_init__(self) -> None:
        if not self.log_base > 1.0:
            raise ValueError("log_base must be > 1")
        if self.normalization_tolerance < 0 or self.zero_tolerance < 0:
            raise ValueError("tolerances must be >= 0")
        if self.max_dense_states < 1:
            raise ValueError("max_dense_states must be >= 1")


DEFAULT_CONFIG = EstimatorConfig()


def _code_dtype(cards: Sequence[int]) -> type:
    """int64 codes below 2**63 states, Python ints (object) from there on."""
    return np.int64 if math.prod(cards) < 2**63 else object


def _encode(digits: Sequence[np.ndarray], cards: Sequence[int]) -> np.ndarray:
    """Row-major codes of states given as one digit array per variable."""
    dtype = _code_dtype(cards)
    codes = np.zeros(len(digits[0]), dtype=dtype)
    for digit, card in zip(digits, cards):
        codes = codes * card + digit.astype(dtype)
    return codes


def _digits(codes: np.ndarray, cards: Sequence[int]) -> list[np.ndarray]:
    """Per-variable digit arrays of ``codes``; inverse of :func:`_encode`."""
    digits = []
    for card in reversed(cards):
        digits.append(codes % card)
        codes = codes // card
    return digits[::-1]


def _row_major_chunks(values: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive views of ``values`` that cover it in row-major order,
    each of at most ``_FOLD_CHUNK`` cells. Nothing is copied."""
    shape = values.shape
    split, inner = len(shape), 1
    while split > 0 and inner * shape[split - 1] <= _FOLD_CHUNK:
        split -= 1
        inner *= shape[split]
    if split == 0:
        yield values
        return
    # axis split-1 is too long to take whole: slice it into runs of rows
    rows = _FOLD_CHUNK // inner
    for lead in np.ndindex(shape[: split - 1]):
        block = values[lead]
        for start in range(0, shape[split - 1], rows):
            yield block[start : start + rows]


def _fold(values: np.ndarray) -> float:
    """Strict left-to-right sum of the cells of ``values`` in row-major order.

    Each chunk is copied into a contiguous scratch segment whose first cell
    absorbs the running sum; np.add.accumulate is defined by the sequential
    recurrence r[i] = r[i-1] + x[i], so the segment's last cell is exactly
    the left fold so far.
    """
    acc = 0.0
    if values.size == 0:
        return acc
    for chunk in _row_major_chunks(values):
        seg = chunk.flatten()
        seg[0] = acc + seg[0]
        np.add.accumulate(seg, out=seg)
        acc = float(seg[-1])
    return acc


def _marginal_table(
    table: np.ndarray, kept: VariableSubset, dropped: VariableSubset
) -> np.ndarray:
    """Dense marginal over ``kept``, folded from strided views of ``table``.

    Every kept state's mass is the strict left fold, from 0.0, of its cells
    in ascending mixed-radix order of the dropped variables, whichever side
    the loop runs over (see the module docstring).
    """
    new_cards = tuple(table.shape[i] for i in kept)
    drop_cards = tuple(table.shape[i] for i in dropped)
    if math.prod(drop_cards) <= math.prod(new_cards):
        view = np.transpose(table, dropped + kept)
        acc = np.zeros(new_cards, dtype=np.float64)
        for d in np.ndindex(drop_cards):
            acc += view[d]
        return acc
    view = np.transpose(table, kept + dropped)
    out = np.empty(new_cards, dtype=np.float64)
    for k in np.ndindex(new_cards):
        out[k] = _fold(view[k])
    return out


def as_subset(indices: Iterable[int], n_vars: int) -> VariableSubset:
    """Canonicalize an iterable of variable indices to a sorted tuple.

    Raises
    ------
    EmptySubsetError
        If no indices are given.
    IndexOutOfRangeError
        If any index falls outside [0, n_vars).
    """
    idx = sorted({int(i) for i in indices})
    if not idx:
        raise EmptySubsetError("variable subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= n_vars:
        raise IndexOutOfRangeError(
            f"variable index out of range for a {n_vars}-variable system: {idx}"
        )
    return tuple(idx)


class JointDistribution:
    """Immutable joint distribution over N discrete variables.

    Instances are produced by :func:`build_distribution`, the generators, or
    :func:`estimate_from_samples`; all operations return new objects and the
    underlying storage is never mutated, so instances are safe to share
    across threads.

    Attributes
    ----------
    n_vars : int
        Number of variables N.
    cardinalities : tuple of int
        Alphabet size per variable.
    representation : str
        Either ``"dense"`` (one mass per joint state, codes implicit) or
        ``"sparse"`` (the positive masses and their ascending codes).
    config : EstimatorConfig
        Numeric policy the distribution was built with; inherited by
        derived distributions.
    """

    __slots__ = ("n_vars", "cardinalities", "representation", "config",
                 "_masses", "_codes")

    def __init__(
        self,
        cardinalities: Sequence[int],
        masses: np.ndarray,
        codes: np.ndarray | None = None,
        *,
        config: EstimatorConfig,
    ):
        cards = tuple(int(c) for c in cardinalities)
        self.cardinalities = cards
        self.n_vars = len(cards)
        self.config = config
        self._masses = np.ascontiguousarray(masses, dtype=np.float64)
        self._masses.flags.writeable = False
        self._codes = codes
        self.representation = "dense" if codes is None else "sparse"

    # -- basic accessors -----------------------------------------------------

    @property
    def n_states(self) -> int:
        """Total size of the joint state space (product of cardinalities)."""
        return math.prod(self.cardinalities)

    @property
    def support_size(self) -> int:
        """Number of states carrying strictly positive mass."""
        return int(np.count_nonzero(self._masses))

    def mass(self, state: Sequence[int]) -> float:
        """Probability mass of one joint state."""
        s = self._check_state(tuple(int(x) for x in state))
        code = 0
        for digit, card in zip(s, self.cardinalities):
            code = code * card + digit
        if self._codes is None:
            return float(self._masses[code])
        i = int(np.searchsorted(self._codes, code))
        hit = i < self._codes.size and self._codes[i] == code
        return float(self._masses[i]) if hit else 0.0

    def items(self) -> Iterator[tuple[State, float]]:
        """Iterate ``(state, mass)`` over the support in ascending state order."""
        codes, masses = self._support()
        columns = [d.tolist() for d in _digits(codes, self.cardinalities)]
        yield from zip(zip(*columns), masses.tolist())

    def total_mass(self) -> float:
        """Canonical-order sum of all masses (1 up to rounding)."""
        m = self._masses
        return _fold(m[m > 0.0])

    def dense_table(self) -> np.ndarray:
        """Materialize the full table as a writable array copy."""
        if self.n_states > self.config.max_dense_states:
            raise TableTooLargeError(
                f"{self.n_states} states exceed max_dense_states="
                f"{self.config.max_dense_states}"
            )
        codes, masses = self._support()
        table = np.zeros(self.n_states, dtype=np.float64)
        table[codes] = masses
        return table.reshape(self.cardinalities)

    def to_dense(self) -> "JointDistribution":
        """Same distribution, dense representation."""
        return JointDistribution(
            self.cardinalities, self.dense_table().reshape(-1),
            config=self.config,
        )

    def to_sparse(self) -> "JointDistribution":
        """Same distribution, sparse representation."""
        codes, masses = self._support()
        return JointDistribution(
            self.cardinalities, masses, codes, config=self.config
        )

    def __repr__(self) -> str:
        return (
            f"JointDistribution(n_vars={self.n_vars}, "
            f"cardinalities={list(self.cardinalities)}, "
            f"representation={self.representation!r}, "
            f"support={self.support_size}/{self.n_states})"
        )

    # -- internals -------------------------------------------------------------

    def _check_state(self, state: State) -> State:
        if len(state) != self.n_vars:
            raise StateOutOfRangeError(
                f"state {state} has arity {len(state)}, expected {self.n_vars}"
            )
        for i, (s, c) in enumerate(zip(state, self.cardinalities)):
            if not 0 <= s < c:
                raise StateOutOfRangeError(
                    f"coordinate {i} of state {state} outside [0, {c})"
                )
        return state

    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, masses) of the positive masses in ascending code order;
        identical for both representations of the same distribution."""
        if self._codes is not None:
            return self._codes, self._masses
        codes = np.flatnonzero(self._masses)
        return codes, self._masses[codes]


def _from_support(
    cards: State, codes: np.ndarray, masses: np.ndarray, cfg: EstimatorConfig
) -> JointDistribution:
    """Distribution with ``masses`` on the ascending, distinct ``codes``:
    dense when the state space fits ``cfg.max_dense_states``, otherwise
    sparse over the positive masses."""
    n_states = math.prod(cards)
    if n_states <= cfg.max_dense_states:
        table = np.zeros(n_states, dtype=np.float64)
        table[codes] = masses
        return JointDistribution(cards, table, config=cfg)
    positive = masses > 0.0
    n_support = int(np.count_nonzero(positive))
    if n_support > cfg.max_dense_states:
        raise TableTooLargeError(
            f"sparse support of {n_support} states exceeds "
            f"max_dense_states={cfg.max_dense_states}"
        )
    return JointDistribution(cards, masses[positive], codes[positive], config=cfg)


def _is_int_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_number_type(kind: type) -> bool:
    return (issubclass(kind, (int, float, np.integer, np.floating))
            and not issubclass(kind, bool))


def _all_of_type(values: Iterable[object], accept) -> bool:
    """Whether ``accept`` holds for the type of every element of ``values``;
    each distinct type is tested once."""
    return all(map(accept, set(map(type, values))))


def _checked_cardinalities(cardinalities: Sequence[int]) -> State:
    try:
        cards = tuple(cardinalities)
    except TypeError:
        cards = None
    if cards is None or not _all_of_type(cards, _is_int_type):
        raise MalformedInputError(
            f"cardinalities must be a list of integers: {cardinalities!r}"
        )
    if not cards:
        raise EmptyInputError("cardinalities must be non-empty")
    cards = tuple(int(c) for c in cards)
    if any(c < 1 for c in cards):
        raise StateOutOfRangeError(f"cardinalities must all be >= 1: {cards}")
    return cards


def _entry_arrays(
    states: list, raw_masses: list, cards: State
) -> tuple[np.ndarray, np.ndarray] | None:
    """Entries as an (n_entries, N) digit array and a float64 mass array,
    checked as whole arrays; None when any entry breaks a rule that
    :func:`_entry_fault` states for one entry."""
    n = len(cards)
    try:
        if set(map(len, states)) - {n}:
            return None
        cells = list(itertools.chain.from_iterable(states))
        if not (_all_of_type(cells, _is_int_type)
                and _all_of_type(raw_masses, _is_number_type)):
            return None
        digits = np.fromiter(cells, _code_dtype(cards), len(cells))
        masses = np.array(raw_masses, dtype=np.float64)
    except (TypeError, OverflowError):  # an unsized state; a huge number
        return None
    digits = digits.reshape(len(states), n)
    in_range = (digits >= 0) & (digits < np.array(cards, dtype=digits.dtype))
    if not (in_range.all() and (np.isfinite(masses) & (masses >= 0.0)).all()):
        return None
    return digits, masses


def _entry_fault(raw_state: object, raw_mass: object, cards: State):
    """The error for the first rule one entry breaks, or None if it is valid.

    The rules, in the order they are checked: the state is a sequence of
    integers (not bools), of arity N, each coordinate inside its alphabet;
    the mass is a real number (not a bool), non-negative and finite.
    """
    try:
        len(raw_state)
        cells = tuple(raw_state)
    except TypeError:
        cells = None
    if cells is None or not _all_of_type(cells, _is_int_type):
        return MalformedInputError(
            f"state {raw_state!r} is not a sequence of integers"
        )
    state = tuple(int(x) for x in cells)
    if len(state) != len(cards):
        return StateOutOfRangeError(
            f"state {state} has arity {len(state)}, expected {len(cards)}"
        )
    for i, (s, c) in enumerate(zip(state, cards)):
        if not 0 <= s < c:
            return StateOutOfRangeError(
                f"coordinate {i} of state {state} outside [0, {c})"
            )
    if not _is_number_type(type(raw_mass)):
        return MalformedInputError(
            f"state {state} has mass {raw_mass!r}, which is not a number"
        )
    try:
        mass = float(raw_mass)
    except OverflowError:
        mass = math.inf
    if mass < 0.0:
        return NegativeMassError(f"state {state} has negative mass {mass}")
    if not math.isfinite(mass):
        return NonFiniteMassError(f"state {state} has non-finite mass {mass!r}")
    return None


def build_distribution(
    cardinalities: Sequence[int],
    entries: Iterable[tuple[Sequence[int] | int, float]],
    config: EstimatorConfig | None = None,
    *,
    renormalize: bool = False,
) -> JointDistribution:
    """Validate and construct a joint distribution from explicit entries.

    The result is dense when the state space fits under
    ``config.max_dense_states``, sparse otherwise. All entries are checked
    together as arrays; when one is invalid, the error raised is the one
    for the first invalid entry in input order.

    Parameters
    ----------
    cardinalities : sequence of int
        Alphabet size per variable; non-empty, all integers >= 1.
    entries : iterable of (state, mass)
        Joint states with their probability masses. A state is a sequence
        of integers (bools are not integers here); a mass is a real
        number. Unlisted states have mass 0; duplicate states accumulate,
        in the order given. For single-variable systems a bare int is
        accepted as the state.
    config : EstimatorConfig, optional
        Numeric policy; defaults to :data:`DEFAULT_CONFIG`.
    renormalize : bool
        When True, divide all masses by their total instead of requiring
        the total to be 1. Off by default: silently renormalizing hides
        data bugs upstream.

    Raises
    ------
    NotNormalizedError, StateOutOfRangeError, NegativeMassError,
    NonFiniteMassError, MalformedInputError, TableTooLargeError,
    EmptyInputError
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    cards = _checked_cardinalities(cardinalities)

    pairs = list(entries)
    states = [s for s, _ in pairs]
    raw_masses = [m for _, m in pairs]
    if any(map(_is_int_type, set(map(type, states)))):
        # a bare int is a one-variable state
        states = [(s,) if _is_int_type(type(s)) else s for s in states]
    arrays = _entry_arrays(states, raw_masses, cards)
    if arrays is None:  # raise the error of the first invalid entry
        raise next(filter(None, map(_entry_fault, states, raw_masses,
                                    itertools.repeat(cards))))
    digits, masses = arrays

    codes, inverse = np.unique(_encode(digits.T, cards), return_inverse=True)
    masses = np.bincount(inverse, weights=masses, minlength=codes.size)
    with np.errstate(over="ignore"):  # an infinite total is rejected below
        total = _fold(masses)
    if renormalize:
        if not 0.0 < total < math.inf:
            raise NotNormalizedError(
                f"cannot renormalize: total mass is {total!r}"
            )
        masses /= total
    elif abs(total - 1.0) > cfg.normalization_tolerance:
        raise NotNormalizedError(
            f"masses sum to {total!r}, outside tolerance "
            f"{cfg.normalization_tolerance} of 1"
        )
    return _from_support(cards, codes, masses, cfg)


def marginalize(dist: JointDistribution, keep: Iterable[int]) -> JointDistribution:
    """Marginal distribution over a subset of variables.

    Each retained state's mass is the sum of the discarded-variable
    assignments, accumulated in canonical state order. The result's
    variables appear in ascending original index order, and it has the
    representation of ``dist``.
    """
    kept = as_subset(keep, dist.n_vars)
    if kept == tuple(range(dist.n_vars)):
        return dist
    kept_set = set(kept)
    dropped = tuple(i for i in range(dist.n_vars) if i not in kept_set)
    new_cards = tuple(dist.cardinalities[i] for i in kept)

    if dist._codes is None:
        table = dist._masses.reshape(dist.cardinalities)
        folded = _marginal_table(table, kept, dropped).reshape(-1)
        return JointDistribution(new_cards, folded, config=dist.config)

    digits = _digits(dist._codes, dist.cardinalities)
    codes, inverse = np.unique(
        _encode([digits[i] for i in kept], new_cards), return_inverse=True
    )
    masses = np.bincount(inverse, weights=dist._masses, minlength=codes.size)
    return JointDistribution(new_cards, masses, codes, config=dist.config)


def leave_one_out(dist: JointDistribution, i: int) -> JointDistribution:
    """Marginal over all variables except variable ``i``."""
    if dist.n_vars < 2:
        raise SystemTooSmallError(
            "leave-one-out marginal requires at least 2 variables"
        )
    if not 0 <= i < dist.n_vars:
        raise IndexOutOfRangeError(
            f"variable index {i} out of range for {dist.n_vars} variables"
        )
    return marginalize(dist, (j for j in range(dist.n_vars) if j != i))


def product(
    dist_a: JointDistribution, dist_b: JointDistribution
) -> JointDistribution:
    """Independent join: P(x, y) = P_a(x) * P_b(y).

    The result is dense when both operands are dense and the combined state
    space fits the cap; otherwise sparse. The left operand's config carries
    over to the result.
    """
    cfg = dist_a.config
    cards = dist_a.cardinalities + dist_b.cardinalities

    both_dense = dist_a._codes is None and dist_b._codes is None
    if both_dense and math.prod(cards) <= cfg.max_dense_states:
        table = np.multiply.outer(dist_a._masses, dist_b._masses)
        return JointDistribution(cards, table.reshape(-1), config=cfg)

    nnz = dist_a.support_size * dist_b.support_size
    if nnz > cfg.max_dense_states:
        raise TableTooLargeError(
            f"product support of {nnz} states exceeds max_dense_states="
            f"{cfg.max_dense_states}"
        )
    codes_a, masses_a = dist_a._support()
    codes_b, masses_b = dist_b._support()
    dtype = _code_dtype(cards)
    codes = np.add.outer(
        codes_a.astype(dtype) * dist_b.n_states, codes_b.astype(dtype)
    ).reshape(-1)
    masses = np.multiply.outer(masses_a, masses_b).reshape(-1)
    positive = masses > 0.0  # a product can underflow to zero
    return JointDistribution(cards, masses[positive], codes[positive], config=cfg)


def entropy(dist: JointDistribution) -> float:
    """Shannon entropy -sum p*log(p), in units of ``config.log_base``.

    Uses the 0*log(0) = 0 convention: zero masses are skipped, and every
    positive mass, however small, contributes its finite p*log(p). The
    result is never -0.0 (a point mass has entropy +0.0).
    """
    m = dist._masses
    p = m[m > 0.0]
    # log2(p) * p in place: one table-sized temporary, not two
    terms = np.log2(p)
    terms *= p
    return 0.0 - _fold(terms) / math.log2(dist.config.log_base)


def _sample_columns(rows: Iterable[Sequence[object]]) -> list[tuple]:
    """The columns of sample rows, which must all have one arity."""
    rows = list(rows)
    if not rows:
        raise EmptyInputError("no sample rows given")
    arity = len(rows[0])
    if set(map(len, rows)) != {arity}:
        r = next(r for r in rows if len(r) != arity)
        raise RaggedRowsError(
            f"row arity {len(r)} does not match first row arity {arity}"
        )
    if arity == 0:
        raise EmptyInputError("sample rows have no columns")
    return list(zip(*rows))


def infer_alphabets(rows: Sequence[Sequence[object]]) -> list[list[object]]:
    """Per-variable alphabets observed in sample rows, in sorted symbol order.

    Sorting (rather than first-seen order) keeps the symbol-to-index mapping
    invariant under row permutations. Symbols within one column must be
    mutually comparable.
    """
    return [sorted(set(column)) for column in _sample_columns(rows)]


def estimate_from_samples(
    rows: Sequence[Sequence[object]],
    config: EstimatorConfig | None = None,
) -> JointDistribution:
    """Plug-in frequency estimate P(x) = count(x) / n_rows.

    The alphabet of each variable is the sorted set of its observed symbols
    (see :func:`infer_alphabets`); symbols are mapped to indices in that
    order. No bias correction is applied.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    columns = _sample_columns(rows)
    n_rows = len(columns[0])
    digits, cards = [], []
    for column in columns:
        alphabet = sorted(set(column))
        index = {symbol: i for i, symbol in enumerate(alphabet)}
        digits.append(np.fromiter(map(index.__getitem__, column), np.int64, n_rows))
        cards.append(len(alphabet))
    codes, counts = np.unique(_encode(digits, cards), return_counts=True)
    return _from_support(tuple(cards), codes, counts / n_rows, cfg)
