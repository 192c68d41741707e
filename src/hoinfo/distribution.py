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
All mass summations (the cells of each marginal state, the total mass and
the normalization check) are strict left-to-right folds over states in
ascending mixed-radix (lexicographic) order: dense tables fold in ascending
linear index order, sparse supports in ascending code order. Because adding
an exact zero never perturbs an accumulator, the two representations of
the same distribution produce bit-identical marginal masses. An entropy
reads the positive masses alone, in that order, so both representations
give bit-identical entropies and therefore bit-identical measures, and
every result is reproducible run to run on one host with one numpy build.
Across the CPU targets numpy dispatches to, an entropy can move in its last
bit, as ``np.log2`` rounds some values differently on each.

An entropy sums the terms p*log2(p) of the positive masses in runs of
``_BLOCK`` consecutive terms (the last run may be shorter). Inside a run
the sum is numpy's pairwise sum (``np.add.reduce`` of a contiguous array);
the run sums are then folded strictly left to right from 0.0. A run is cut
from the positive terms, not from table cells, so neither zero cells nor
the sizes of the blocks a kernel yields move its ends. Each run adds a
rounding error of about log2(``_BLOCK``) units in the last place, not the
up to ``_BLOCK`` of a left fold (Higham 2002, *Accuracy and Stability of
Numerical Algorithms*, ch. 4).

Every dense fold and every dense marginal walks the same row-major blocks
of at most ``_BLOCK`` cells. A dense marginal is folded from strided views
of the table, never a copy of it: each maximal run of consecutive kept, or
dropped, variables is first merged into one axis (a free reshape), and the
loop runs over whichever side of the marginal has fewer states. When the
dropped variables have no more joint states than the kept ones, each block
of kept states starts at 0.0 and takes one slice per dropped state in
ascending order; otherwise each kept state's cells are folded one after
another. Either way every kept state's mass is the same left fold over its
cells in ascending order.

A sparse marginal, and the summing of duplicate entries at construction,
uses ``np.bincount``, which adds each mass into its target state's
accumulator, from 0.0, in input order: ascending code order for a
marginal, the caller's order for duplicates. A sparse marginal's codes are
computed from the same runs of consecutive kept variables as the dense
merge; they are the same integers as re-encoding the kept digits.

A plug-in estimate counts its states with ``np.bincount`` too: each
distinct row's multiplicity (1 for a row given in Python, a line's count in
a samples CSV) is added into its state's count. The multiplicities are
exact integers, so the counts, and each mass count / rows, have the same
bits however the rows were grouped.

The entropy profile of a distribution (H(X), every H(X_i) and every
H(X^{-i})) is built by one function, :func:`_entropy_profile`, and kept on
the distribution as floats in two halves: H(X) and the singles the first
time a measure asks for them, the leave-one-out entropies the first time
a measure needs them too. Every later measure of that distribution reads
the kept profile, so each value has the bits of that one build. The
profile reads the one marginal kernel. The singles are the entropies of
the leaves of a halving tree of :func:`marginalize` calls (the first half
of the variables, then the second, recursively), the same calls in both
representations; so they can differ in the last bits from the entropy of
a direct one-variable marginal. The leave-one-out entropies of a dense
table are folded from the blocks of :func:`_marginal_blocks` as they are
made, without materializing the marginal; :func:`marginalize` writes the
same blocks and :func:`entropy` sums the same terms in the same runs, so
they have the bits of ``entropy(leave_one_out(dist, i))``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

# Cells per block of every dense fold and marginal, and terms per run of an
# entropy; sized so a block and its terms stay in cache.
_BLOCK = 1 << 15


def _is_int_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)


def _is_number_type(kind: type) -> bool:
    return (issubclass(kind, (int, float, np.integer, np.floating))
            and not issubclass(kind, bool))


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
        if not (_is_number_type(type(self.log_base))
                and 1.0 < self.log_base < math.inf):
            raise MalformedInputError(
                "log_base must be finite and > 1, got "
                f"{_value_text(self.log_base)}"
            )
        tolerances = (self.normalization_tolerance, self.zero_tolerance)
        if not all(_is_number_type(type(tol)) and 0.0 <= tol < math.inf
                   for tol in tolerances):
            raise MalformedInputError(
                "tolerances must be finite and >= 0: "
                f"({', '.join(map(_value_text, tolerances))})"
            )
        if not (_is_int_type(type(self.max_dense_states))
                and self.max_dense_states >= 1):
            raise MalformedInputError(
                f"max_dense_states must be an integer >= 1, "
                f"got {_count_text(self.max_dense_states)}"
            )


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


def _kept_codes(
    codes: np.ndarray, cards: Sequence[int], kept: VariableSubset
) -> np.ndarray:
    """Row-major codes over the ``kept`` variables of the states ``codes``;
    the same integers, in the same dtype, as ``_encode`` of their kept
    ``_digits``. Each maximal run ``[a, b)`` of consecutive kept variables
    is one ``//`` and one ``%``, Horner-combined across runs."""
    dtype = _code_dtype([cards[i] for i in kept])
    out = None
    for a, b in _runs(kept):
        width, stride = math.prod(cards[a:b]), math.prod(cards[b:])
        run = codes // stride if stride > 1 else codes
        if a > 0:
            run = run % width
        run = run.astype(dtype, copy=False)
        out = run if out is None else out * width + run
    return out


def _runs(kept: VariableSubset) -> list[tuple[int, int]]:
    """Maximal runs ``[a, b)`` of consecutive indices in ``kept``."""
    runs = []
    for i in kept:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return [(a, b) for a, b in runs]


def _blocks(shape: Sequence[int]) -> Iterator[tuple]:
    """Index tuples that cover an array of ``shape`` in row-major order, each
    selecting at most ``_BLOCK`` cells: whole trailing axes, then a run of
    rows of the next axis, for each index of the leading axes."""
    split, inner = len(shape), 1
    while split > 0 and inner * shape[split - 1] <= _BLOCK:
        split -= 1
        inner *= shape[split]
    if split == 0:
        yield ()
        return
    rows = _BLOCK // inner
    for lead in itertools.product(*map(range, shape[: split - 1])):
        for start in range(0, shape[split - 1], rows):
            yield lead + (slice(start, start + rows),)


def _fold(values: np.ndarray, acc: float = 0.0) -> float:
    """Strict left-to-right sum of the cells of ``values`` in row-major order,
    continuing from ``acc``. Each block is copied into a scratch segment
    whose first cell absorbs the running sum; np.add.accumulate is defined
    by the sequential recurrence r[i] = r[i-1] + x[i], so the segment's last
    cell is exactly the left fold so far."""
    for index in _blocks(values.shape):
        seg = values[index].flatten()
        if seg.size:
            seg[0] = acc + seg[0]
            np.add.accumulate(seg, out=seg)
            acc = float(seg[-1])
    return acc


# Cached: for a small table, working this out costs as much as the fold.
@functools.lru_cache(maxsize=1024)
def _merged_axes(cards: State, kept: VariableSubset) -> tuple:
    """How :func:`_marginal_blocks` views a table of shape ``cards``: the
    shape with each maximal run of consecutive kept, or dropped, variables
    merged into one axis; its kept and dropped axis sizes; whether the loop
    runs over the dropped states (wide); and the axis order that puts the
    looped-over side first."""
    cuts = [0, *itertools.chain(*_runs(kept)), len(cards)]
    shape = tuple(math.prod(cards[a:b]) for a, b in itertools.pairwise(cuts))
    # dropped runs on the even axes, kept runs on the odd ones; only the
    # first and the last run can be empty
    kept_shape, drop_shape = shape[1::2], shape[::2]
    kept_axes, drop_axes = range(1, len(shape), 2), range(0, len(shape), 2)
    wide = math.prod(drop_shape) <= math.prod(kept_shape)
    order = (*drop_axes, *kept_axes) if wide else (*kept_axes, *drop_axes)
    return shape, kept_shape, drop_shape, wide, order


def _marginal_blocks(
    masses: np.ndarray, cards: State, kept: VariableSubset
) -> Iterator[np.ndarray]:
    """The marginal over ``kept`` of the dense row-major table ``masses`` of
    shape ``cards``, in row-major blocks of at most ``_BLOCK`` kept states,
    folded from strided views of the table.

    Each maximal run of consecutive kept, or dropped, variables is first
    merged into one axis (a free reshape), so a leave-one-out marginal reads
    ``(outer, c_i, inner)``. Every kept state's mass is the strict left fold,
    from 0.0, of its cells in ascending mixed-radix order of the dropped
    variables, whichever side the loop runs over (see the module docstring).
    """
    shape, kept_shape, drop_shape, wide, order = _merged_axes(cards, kept)
    view = masses.reshape(shape).transpose(order)
    if wide:
        # one zeroed block takes one slice per dropped state, ascending
        lead = (slice(None),) * len(drop_shape)
        for index in _blocks(kept_shape):
            part = view[lead + index]
            blk = np.zeros(part.shape[len(drop_shape):])
            for d in itertools.product(*map(range, drop_shape)):
                blk += part[d]
            yield blk
        return
    # narrow: each kept state's cells are folded one after another
    for index in _blocks(kept_shape):
        part = view[index]
        blk = np.empty(part.shape[: part.ndim - len(drop_shape)])
        for k in itertools.product(*map(range, blk.shape)):
            blk[k] = _fold(part[k])
        yield blk


def _entropy_of(blocks: Iterable[np.ndarray], log_base: float) -> float:
    """-sum p*log(p) over the positive masses of ``blocks``, in order.

    The terms are cut into consecutive runs of ``_BLOCK`` terms, whatever
    the blocks' sizes (the last run may be shorter); each run is summed by
    numpy's pairwise sum (``np.add.reduce`` of a contiguous array), and the
    run sums are folded strictly left to right from 0.0. Each block's terms
    are written straight into one scratch run, so no term is copied; a
    block with no zero cell is read through a flat view of it."""
    acc = 0.0
    run = np.empty(_BLOCK)
    filled = 0
    for blk in blocks:
        p = blk.ravel() if blk.size and blk.min() > 0.0 else blk[blk > 0.0]
        while p.size:
            part, p = p[:_BLOCK - filled], p[_BLOCK - filled:]
            terms = run[filled:filled + part.size]
            np.log2(part, out=terms)
            terms *= part
            filled += part.size
            if filled == _BLOCK:
                acc += float(np.add.reduce(run))
                filled = 0
    if filled:
        acc += float(np.add.reduce(run[:filled]))
    return 0.0 - acc / math.log2(log_base)


def as_subset(indices: Iterable[int], n_vars: int) -> VariableSubset:
    """Canonicalize an iterable of variable indices to a sorted tuple.

    Raises
    ------
    MalformedInputError
        If an index is not an integer (a bool is not one).
    EmptySubsetError
        If no indices are given.
    IndexOutOfRangeError
        If any index falls outside [0, n_vars).
    """
    given = tuple(indices)
    if not _all_of_type(given, _is_int_type):
        raise MalformedInputError(
            f"variable indices must be integers: {_ints_text(given)}"
        )
    idx = sorted({int(i) for i in given})
    if not idx:
        raise EmptySubsetError("variable subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= n_vars:
        raise IndexOutOfRangeError(
            f"variable index out of range for a {n_vars}-variable system: "
            f"{_ints_text(idx)}"
        )
    return tuple(idx)


class JointDistribution:
    """Immutable joint distribution over N discrete variables.

    Instances are produced by :func:`build_distribution`, the generators, or
    :func:`estimate_from_samples`; all operations return new objects and the
    underlying storage is never mutated, so instances are safe to share
    across threads. The one slot written after construction is
    ``_profile``: :func:`_entropy_profile` fills it in two halves, each
    once, with an :class:`EntropyProfile` of floats, never tables. It needs
    no lock: threads that race on it compute the same bits, so a race costs
    at most a recomputation, and every profile kept has the same values.

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
                 "_masses", "_codes", "_profile")

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
        self._profile = None

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
        """Probability mass of one joint state: a sequence of integers, each
        inside its alphabet (the state rule of :func:`build_distribution`)."""
        fault = _state_fault(state, self.cardinalities)
        if fault is not None:
            raise fault
        code = 0
        for digit, card in zip(state, self.cardinalities):
            code = code * card + int(digit)
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
        return _fold(self._masses)

    def dense_table(self) -> np.ndarray:
        """Materialize the full table as a writable array copy."""
        if self.n_states > self.config.max_dense_states:
            raise TableTooLargeError(
                f"{_count_text(self.n_states)} states exceed "
                f"max_dense_states={_count_text(self.config.max_dense_states)}"
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
            f"support={self.support_size}/{_count_text(self.n_states)})"
        )

    # -- internals -------------------------------------------------------------

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
    _check_support_size(int(np.count_nonzero(positive)), cfg)
    return JointDistribution(cards, masses[positive], codes[positive], config=cfg)


def _check_support_size(n_support: int, cfg: EstimatorConfig) -> None:
    """Reject a support of more than ``cfg.max_dense_states`` states; a
    generator or :func:`product` calls this before it builds its support
    arrays."""
    if n_support > cfg.max_dense_states:
        raise TableTooLargeError(
            f"sparse support of {_count_text(n_support)} states exceeds "
            f"max_dense_states={_count_text(cfg.max_dense_states)}"
        )


def _count_text(count: int) -> str:
    """An int in decimal, or from 10**18 up in magnitude rounded to six
    digits, as in ``~4.99501e+30102``: str() of an int past 4,300 digits
    raises ValueError, and a longer number says no more. Error messages
    quote every int a caller gives through this, and a value of another
    type by its repr."""
    if not _is_int_type(type(count)):
        return repr(count)
    if -10**18 < count < 10**18:
        return str(count)
    from decimal import Decimal  # imported only for an int this long

    return f"~{Decimal(int(count)):.5e}"


def _ints_text(values: Sequence[int]) -> str:
    """``str(values)`` of a tuple or list, each element written by
    :func:`_count_text`."""
    text = ", ".join(map(_count_text, values))
    if isinstance(values, list):
        return f"[{text}]"
    return f"({text},)" if len(values) == 1 else f"({text})"


def _value_text(value: object) -> str:
    """A value a caller gave, as an error message quotes it: a list or tuple
    by :func:`_ints_text`, anything else by :func:`_count_text`."""
    if isinstance(value, (list, tuple)):
        return _ints_text(value)
    return _count_text(value)


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
            "cardinalities must be a list of integers: "
            f"{_value_text(cardinalities)}"
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
        # the cells are read from the states twice rather than copied into
        # one flat list
        if not (_all_of_type(itertools.chain.from_iterable(states),
                             _is_int_type)
                and _all_of_type(raw_masses, _is_number_type)):
            return None
        digits = np.fromiter(itertools.chain.from_iterable(states),
                             _code_dtype(cards), len(states) * n)
        masses = np.array(raw_masses, dtype=np.float64)
    except (TypeError, OverflowError):  # an unsized state; a huge number
        return None
    digits = digits.reshape(len(states), n)
    in_range = (digits >= 0) & (digits < np.array(cards, dtype=digits.dtype))
    if not (in_range.all() and (np.isfinite(masses) & (masses >= 0.0)).all()):
        return None
    return digits, masses


def _state_fault(raw_state: object, cards: State):
    """The error for the first rule a state breaks, or None if it is valid.

    The rules, in the order they are checked: the state is a sequence of
    integers (not bools), of arity N, each coordinate inside its alphabet.
    """
    try:
        len(raw_state)
        cells = tuple(raw_state)
    except TypeError:
        cells = None
    if cells is None or not _all_of_type(cells, _is_int_type):
        return MalformedInputError(
            f"state {_value_text(raw_state)} is not a sequence of integers"
        )
    state = tuple(int(x) for x in cells)
    if len(state) != len(cards):
        return StateOutOfRangeError(
            f"state {_ints_text(state)} has arity {len(state)}, "
            f"expected {len(cards)}"
        )
    for i, (s, c) in enumerate(zip(state, cards)):
        if not 0 <= s < c:
            return StateOutOfRangeError(
                f"coordinate {i} of state {_ints_text(state)} outside "
                f"[0, {_count_text(c)})"
            )
    return None


def _entry_fault(raw_state: object, raw_mass: object, cards: State):
    """The error for the first rule one entry breaks, or None if it is valid:
    the state rules of :func:`_state_fault`, then the mass is a real number
    (not a bool), non-negative and finite."""
    fault = _state_fault(raw_state, cards)
    if fault is not None:
        return fault
    state = tuple(map(int, raw_state))
    if not _is_number_type(type(raw_mass)):
        return MalformedInputError(
            f"state {state} has mass {_value_text(raw_mass)}, which is not a "
            "number"
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
    new_cards = tuple(dist.cardinalities[i] for i in kept)

    if dist._codes is None:
        folded, start = np.empty(math.prod(new_cards)), 0
        for blk in _marginal_blocks(dist._masses, dist.cardinalities, kept):
            folded[start : start + blk.size] = blk.reshape(-1)
            start += blk.size
        return JointDistribution(new_cards, folded, config=dist.config)

    codes, inverse = np.unique(
        _kept_codes(dist._codes, dist.cardinalities, kept), return_inverse=True
    )
    masses = np.bincount(inverse, weights=dist._masses, minlength=codes.size)
    return JointDistribution(new_cards, masses, codes, config=dist.config)


def leave_one_out(dist: JointDistribution, i: int) -> JointDistribution:
    """Marginal over all variables except variable ``i``."""
    if dist.n_vars < 2:
        raise SystemTooSmallError(
            "leave-one-out marginal requires at least 2 variables"
        )
    (i,) = as_subset((i,), dist.n_vars)
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

    _check_support_size(dist_a.support_size * dist_b.support_size, cfg)
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
    return _entropy_of((m[index] for index in _blocks(m.shape)),
                       dist.config.log_base)


def _single_entropies(dist: JointDistribution) -> tuple[float, ...]:
    """H(X_i) for every variable, in index order, from a halving tree.

    The tree marginalizes onto the variables ``[0, n//2)`` and
    ``[n//2, n)``, recurses into each half and takes :func:`entropy` at
    each one-variable leaf: about two passes over the table instead of N.
    Both representations make the same sequence of :func:`marginalize`
    calls, so they agree bit for bit.
    """
    if dist.n_vars == 1:
        return (entropy(dist),)
    half = dist.n_vars // 2
    return (_single_entropies(marginalize(dist, range(half)))
            + _single_entropies(marginalize(dist, range(half, dist.n_vars))))


def _leave_one_out_entropies(dist: JointDistribution) -> tuple[float, ...]:
    """H(X^{-i}) for every variable, in index order; each has the bits of
    ``entropy(leave_one_out(dist, i))``.

    A dense table's entropies are summed from :func:`_marginal_blocks`, so
    no marginal is materialized; a sparse table takes
    ``entropy(leave_one_out(dist, i))`` itself. Either way each marginal
    mass is a strict fold of its cells, and its terms are summed by the
    rule of :func:`_entropy_of`: pairwise inside each run of ``_BLOCK``
    terms, the run sums folded strictly in order. Requires N >= 2.
    """
    if dist._codes is not None:
        return tuple(entropy(leave_one_out(dist, i)) for i in range(dist.n_vars))
    everything = tuple(range(dist.n_vars))
    return tuple(
        _entropy_of(_marginal_blocks(dist._masses, dist.cardinalities,
                                     everything[:i] + everything[i + 1:]),
                    dist.config.log_base)
        for i in everything
    )


@dataclass(frozen=True, slots=True)
class EntropyProfile:
    """The entropies every multivariate measure is read from: H(X), each
    H(X_i) and each H(X^{-i}), in variable index order, as Python floats.
    The first half, H(X) and the singles, is a profile on its own; its
    leave-one-out half is then ``()``."""

    joint: float
    singles: tuple[float, ...]
    leave_one_out: tuple[float, ...] = ()


def _entropy_profile(dist: JointDistribution,
                     leave_one_out: bool = True) -> EntropyProfile:
    """The entropy profile of ``dist``, kept in ``dist._profile`` in two
    halves: H(X) and the singles (:func:`entropy`,
    :func:`_single_entropies`) on first use, the leave-one-out entropies
    (:func:`_leave_one_out_entropies`, N >= 2) on the first call that asks
    for them. A call that does not ask for them gets the first half or
    the whole profile, whichever is kept.

    The slot is read once and the profile read or built is written back
    and returned, never re-read: a racing call may have set the slot back
    to a first half since. So a race costs at most a recomputation of the
    same bits."""
    profile = dist._profile or EntropyProfile(entropy(dist),
                                              _single_entropies(dist))
    if leave_one_out and not profile.leave_one_out:
        profile = EntropyProfile(profile.joint, profile.singles,
                                 _leave_one_out_entropies(dist))
    dist._profile = profile
    return profile


def _index_samples(
    rows: Iterable[Sequence[object]],
    symbols: Callable[[set], dict] | None = None,
) -> tuple[list[list[object]], list[np.ndarray]]:
    """Each column's sorted alphabet and its cells' int64 indices in it, for
    sample rows given row by row; ``symbols`` is :func:`_index_column`'s.

    The one owner of the rules for sample rows: at least one row, each row
    a sequence, one arity of at least one column for every row, and in each
    column symbols that are hashable, not NaN, and can be sorted against
    each other.
    """
    rows = list(rows)
    if not rows:
        raise EmptyInputError("no sample rows given")
    try:
        arities = set(map(len, rows))
    except TypeError as exc:
        raise MalformedInputError(
            f"every sample row must be a sequence of symbols: {exc}"
        ) from None
    if len(arities) > 1:
        raise RaggedRowsError(f"sample row arities differ: {sorted(arities)}")
    if arities == {0}:
        raise EmptyInputError("sample rows have no columns")
    alphabets, digits = zip(*(_index_column(j, cells, symbols)
                              for j, cells in enumerate(zip(*rows))))
    return list(alphabets), list(digits)


def _index_column(
    j: int,
    cells: Sequence[object],
    symbols: Callable[[set], dict] | None = None,
) -> tuple[list[object], np.ndarray]:
    """The sorted alphabet of column ``j``, and each cell's index in it as
    an int64 array.

    ``symbols`` maps the set of distinct cells to ``{cell: symbol}``; by
    default each cell is its own symbol. It runs once per distinct cell,
    not once per cell, and cells with one symbol share its index. A symbol
    that is unhashable, NaN (each NaN object would be a symbol of its own),
    or cannot be sorted against the others raises
    :class:`~hoinfo.errors.MalformedInputError` naming the column.
    """
    try:
        distinct = set(cells)
        symbol = symbols(distinct) if symbols else dict(zip(distinct, distinct))
        alphabet = sorted(set(symbol.values()))
    except TypeError as exc:
        raise MalformedInputError(
            f"column {j} holds symbols that are unhashable or cannot be "
            f"sorted against each other: {exc}"
        ) from None
    if any(s != s for s in alphabet):
        raise MalformedInputError(f"column {j} holds a NaN cell")
    position = {s: i for i, s in enumerate(alphabet)}
    index = {cell: position[s] for cell, s in symbol.items()}
    return alphabet, np.fromiter(map(index.__getitem__, cells), np.int64,
                                 len(cells))


def _count_states(
    alphabets: Sequence[Sequence[object]],
    digits: Sequence[np.ndarray],
    counts: np.ndarray,
    cfg: EstimatorConfig,
) -> JointDistribution:
    """Plug-in estimate P(x) = count(x) / n_rows of samples given as each
    column's alphabet, its cells' indices in it, and each row's
    multiplicity ``counts`` (int64)."""
    cards = tuple(map(len, alphabets))
    codes, inverse = np.unique(_encode(digits, cards), return_inverse=True)
    return _from_support(cards, codes,
                         np.bincount(inverse, weights=counts) / counts.sum(),
                         cfg)


def infer_alphabets(rows: Sequence[Sequence[object]]) -> list[list[object]]:
    """Per-variable alphabets observed in sample rows, in sorted symbol order.

    Sorting (rather than first-seen order) keeps the symbol-to-index mapping
    invariant under row permutations. The symbols of one column must be
    hashable and sortable against each other, or
    :class:`~hoinfo.errors.MalformedInputError` names the column. No rows,
    or rows of no columns, raise :class:`~hoinfo.errors.EmptyInputError`,
    and rows of unequal arity :class:`~hoinfo.errors.RaggedRowsError`.
    These are the alphabets :func:`estimate_from_samples` indexes by, and
    no table is built.
    """
    return _index_samples(rows)[0]


def estimate_from_samples(
    rows: Sequence[Sequence[object]],
    config: EstimatorConfig | None = None,
) -> JointDistribution:
    """Plug-in frequency estimate P(x) = count(x) / n_rows.

    The alphabet of each variable is the sorted set of its observed symbols
    (see :func:`infer_alphabets`, whose row rules and errors apply);
    symbols are mapped to indices in that order. No bias correction is
    applied.
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    alphabets, digits = _index_samples(rows)
    return _count_states(alphabets, digits,
                         np.ones(len(digits[0]), np.int64), cfg)
