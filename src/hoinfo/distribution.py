"""Discrete joint probability distributions and entropy primitives.

The central object is :class:`JointDistribution`: N discrete variables with
finite alphabets and a normalized probability mass table, stored either as a
dense mixed-radix table (a C-ordered ``numpy`` array indexed by the joint
state) or as a sparse ``state -> mass`` map. Every information measure in
this package is built from the four primitives defined here:
marginalization, leave-one-out marginalization, independent products, and
Shannon entropy.

Determinism contract
--------------------
All mass summations are strict left-to-right folds over states in ascending
mixed-radix (lexicographic) order: dense tables fold in ascending linear
index order, sparse tables in sorted state order. Because adding an exact
zero never perturbs an accumulator, the two representations of the same
distribution produce bit-identical marginal masses, entropies, and therefore
bit-identical measures, and every result is reproducible run to run.

A dense marginal is folded from strided views of the table, never a copy
of it, looping over whichever side of the marginal has fewer states. When
the dropped variables have no more joint states than the kept ones, one
accumulator over all kept states, starting at 0.0, takes one slice per
dropped state in ascending order; otherwise each kept state's cells are
folded one after another in row-major chunks. Either way every kept
state's mass is the same left fold over its cells in ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    EmptySubsetError,
    IndexOutOfRangeError,
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
        Either ``"dense"`` (contiguous mixed-radix table) or ``"sparse"``
        (sorted state -> mass map holding only positive masses).
    config : EstimatorConfig
        Numeric policy the distribution was built with; inherited by
        derived distributions.
    """

    __slots__ = ("n_vars", "cardinalities", "representation", "config",
                 "_table", "_entries")

    def __init__(
        self,
        cardinalities: Sequence[int],
        *,
        table: np.ndarray | None = None,
        entries: dict[State, float] | None = None,
        config: EstimatorConfig,
    ):
        cards = tuple(int(c) for c in cardinalities)
        self.cardinalities = cards
        self.n_vars = len(cards)
        self.config = config
        if table is not None:
            table = np.ascontiguousarray(table, dtype=np.float64)
            table.flags.writeable = False
            self._table = table
            self._entries = None
            self.representation = "dense"
        else:
            assert entries is not None
            self._table = None
            self._entries = entries
            self.representation = "sparse"

    # -- basic accessors -----------------------------------------------------

    @property
    def n_states(self) -> int:
        """Total size of the joint state space (product of cardinalities)."""
        return math.prod(self.cardinalities)

    @property
    def support_size(self) -> int:
        """Number of states carrying strictly positive mass."""
        if self._table is not None:
            return int(np.count_nonzero(self._table))
        return len(self._entries)

    def mass(self, state: Sequence[int]) -> float:
        """Probability mass of one joint state."""
        s = self._check_state(tuple(int(x) for x in state))
        if self._table is not None:
            return float(self._table[s])
        return self._entries.get(s, 0.0)

    def items(self) -> Iterator[tuple[State, float]]:
        """Iterate ``(state, mass)`` over the support in ascending state order."""
        if self._table is not None:
            flat = self._table.reshape(-1)
            idx = np.flatnonzero(flat)
            coords = np.unravel_index(idx, self.cardinalities)
            for j, lin in enumerate(idx):
                yield tuple(int(c[j]) for c in coords), float(flat[lin])
        else:
            yield from self._entries.items()

    def total_mass(self) -> float:
        """Canonical-order sum of all masses (1 up to rounding)."""
        return _fold(self._nonzero_masses())

    def dense_table(self) -> np.ndarray:
        """Materialize the full table as a writable array copy."""
        if self.n_states > self.config.max_dense_states:
            raise TableTooLargeError(
                f"{self.n_states} states exceed max_dense_states="
                f"{self.config.max_dense_states}"
            )
        if self._table is not None:
            return self._table.copy()
        table = np.zeros(self.cardinalities, dtype=np.float64)
        for state, mass in self._entries.items():
            table[state] = mass
        return table

    def to_dense(self) -> "JointDistribution":
        """Same distribution, dense representation."""
        if self._table is not None:
            return self
        return JointDistribution(
            self.cardinalities, table=self.dense_table(), config=self.config
        )

    def to_sparse(self) -> "JointDistribution":
        """Same distribution, sparse representation."""
        if self._table is None:
            return self
        entries = dict(self.items())
        return JointDistribution(
            self.cardinalities, entries=entries, config=self.config
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

    def _nonzero_masses(self) -> np.ndarray:
        """Positive masses in ascending state order; identical for both
        representations of the same distribution."""
        if self._table is not None:
            flat = self._table.reshape(-1)
            return flat[flat > 0.0]
        return np.fromiter(
            self._entries.values(), dtype=np.float64, count=len(self._entries)
        )


def build_distribution(
    cardinalities: Sequence[int],
    entries: Iterable[tuple[Sequence[int] | int, float]],
    config: EstimatorConfig | None = None,
    *,
    renormalize: bool = False,
    representation: str = "auto",
) -> JointDistribution:
    """Validate and construct a joint distribution from explicit entries.

    Parameters
    ----------
    cardinalities : sequence of int
        Alphabet size per variable; non-empty, all >= 1.
    entries : iterable of (state, mass)
        Joint states with their probability masses. Unlisted states have
        mass 0; duplicate states accumulate. For single-variable systems a
        bare int is accepted as the state.
    config : EstimatorConfig, optional
        Numeric policy; defaults to :data:`DEFAULT_CONFIG`.
    renormalize : bool
        When True, divide all masses by their total instead of requiring
        the total to be 1. Off by default: silently renormalizing hides
        data bugs upstream.
    representation : {"auto", "dense", "sparse"}
        "auto" picks dense when the state space fits under
        ``config.max_dense_states``, sparse otherwise. Forcing "dense" on a
        larger space raises TableTooLargeError.

    Raises
    ------
    NotNormalizedError, StateOutOfRangeError, NegativeMassError,
    NonFiniteMassError, TableTooLargeError, EmptyInputError
    """
    cfg = config if config is not None else DEFAULT_CONFIG
    cards = tuple(int(c) for c in cardinalities)
    if not cards:
        raise EmptyInputError("cardinalities must be non-empty")
    if any(c < 1 for c in cards):
        raise StateOutOfRangeError(f"cardinalities must all be >= 1: {cards}")
    n = len(cards)

    acc: dict[State, float] = {}
    for raw_state, raw_mass in entries:
        if isinstance(raw_state, (int, np.integer)):
            state: State = (int(raw_state),)
        else:
            state = tuple(int(x) for x in raw_state)
        if len(state) != n:
            raise StateOutOfRangeError(
                f"state {state} has arity {len(state)}, expected {n}"
            )
        for i, (s, c) in enumerate(zip(state, cards)):
            if not 0 <= s < c:
                raise StateOutOfRangeError(
                    f"coordinate {i} of state {state} outside [0, {c})"
                )
        mass = float(raw_mass)
        if mass < 0.0:
            raise NegativeMassError(f"state {state} has negative mass {mass}")
        acc[state] = acc.get(state, 0.0) + mass

    ordered = dict(sorted(acc.items()))
    masses = np.fromiter(ordered.values(), dtype=np.float64, count=len(ordered))
    if not np.isfinite(masses).all():
        bad = next(s for s, m in ordered.items() if not math.isfinite(m))
        raise NonFiniteMassError(
            f"state {bad} has non-finite mass {ordered[bad]!r}"
        )
    total = _fold(masses)
    if renormalize:
        if not 0.0 < total < math.inf:
            raise NotNormalizedError(
                f"cannot renormalize: total mass is {total!r}"
            )
        ordered = {s: m / total for s, m in ordered.items()}
    elif abs(total - 1.0) > cfg.normalization_tolerance:
        raise NotNormalizedError(
            f"masses sum to {total!r}, outside tolerance "
            f"{cfg.normalization_tolerance} of 1"
        )

    n_states = math.prod(cards)
    if representation not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown representation {representation!r}")
    dense = representation == "dense" or (
        representation == "auto" and n_states <= cfg.max_dense_states
    )
    if dense:
        if n_states > cfg.max_dense_states:
            raise TableTooLargeError(
                f"dense table of {n_states} states exceeds max_dense_states="
                f"{cfg.max_dense_states}"
            )
        table = np.zeros(cards, dtype=np.float64)
        for state, mass in ordered.items():
            table[state] = mass
        return JointDistribution(cards, table=table, config=cfg)
    entries_pos = {s: m for s, m in ordered.items() if m > 0.0}
    if len(entries_pos) > cfg.max_dense_states:
        raise TableTooLargeError(
            f"sparse support of {len(entries_pos)} states exceeds "
            f"max_dense_states={cfg.max_dense_states}"
        )
    return JointDistribution(cards, entries=entries_pos, config=cfg)


def marginalize(dist: JointDistribution, keep: Iterable[int]) -> JointDistribution:
    """Marginal distribution over a subset of variables.

    Each retained state's mass is the sum of the discarded-variable
    assignments, accumulated in canonical state order. The result's
    variables appear in ascending original index order.
    """
    kept = as_subset(keep, dist.n_vars)
    if kept == tuple(range(dist.n_vars)):
        return dist
    kept_set = set(kept)
    dropped = tuple(i for i in range(dist.n_vars) if i not in kept_set)
    new_cards = tuple(dist.cardinalities[i] for i in kept)

    if dist.representation == "dense":
        folded = _marginal_table(dist._table, kept, dropped)
        return JointDistribution(new_cards, table=folded, config=dist.config)

    acc: dict[State, float] = {}
    for state, mass in dist._entries.items():
        sub = tuple(state[i] for i in kept)
        acc[sub] = acc.get(sub, 0.0) + mass
    entries = {s: m for s, m in sorted(acc.items()) if m > 0.0}
    return JointDistribution(new_cards, entries=entries, config=dist.config)


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
    n_states = math.prod(cards)

    both_dense = (
        dist_a.representation == "dense" and dist_b.representation == "dense"
    )
    if both_dense and n_states <= cfg.max_dense_states:
        table = np.multiply.outer(dist_a._table, dist_b._table)
        return JointDistribution(cards, table=table, config=cfg)

    nnz = dist_a.support_size * dist_b.support_size
    if nnz > cfg.max_dense_states:
        raise TableTooLargeError(
            f"product support of {nnz} states exceeds max_dense_states="
            f"{cfg.max_dense_states}"
        )
    b_items = list(dist_b.items())
    entries: dict[State, float] = {}
    for sa, ma in dist_a.items():
        for sb, mb in b_items:
            m = ma * mb
            if m > 0.0:  # a product can underflow to zero
                entries[sa + sb] = m
    return JointDistribution(cards, entries=entries, config=cfg)


def entropy(dist: JointDistribution) -> float:
    """Shannon entropy -sum p*log(p), in units of ``config.log_base``.

    Uses the 0*log(0) = 0 convention: zero masses are skipped, and every
    positive mass, however small, contributes its finite p*log(p). The
    result is never -0.0 (a point mass has entropy +0.0).
    """
    p = dist._nonzero_masses()
    # log2(p) * p in place: one table-sized temporary, not two
    terms = np.log2(p)
    terms *= p
    return 0.0 - _fold(terms) / math.log2(dist.config.log_base)


def infer_alphabets(rows: Sequence[Sequence[object]]) -> list[list[object]]:
    """Per-variable alphabets observed in sample rows, in sorted symbol order.

    Sorting (rather than first-seen order) keeps the symbol-to-index mapping
    invariant under row permutations. Symbols within one column must be
    mutually comparable.
    """
    if not rows:
        raise EmptyInputError("no sample rows given")
    arity = len(rows[0])
    for r in rows:
        if len(r) != arity:
            raise RaggedRowsError(
                f"row arity {len(r)} does not match first row arity {arity}"
            )
    if arity == 0:
        raise EmptyInputError("sample rows have no columns")
    return [sorted({row[j] for row in rows}) for j in range(arity)]


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
    rows = [tuple(r) for r in rows]
    alphabets = infer_alphabets(rows)
    index_maps = [{sym: i for i, sym in enumerate(alpha)} for alpha in alphabets]
    cards = tuple(len(a) for a in alphabets)

    counts: dict[State, int] = {}
    for row in rows:
        state = tuple(index_maps[j][row[j]] for j in range(len(cards)))
        counts[state] = counts.get(state, 0) + 1
    n = len(rows)
    entries = [(state, c / n) for state, c in sorted(counts.items())]
    return build_distribution(cards, entries, cfg)
