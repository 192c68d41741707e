"""Synthetic discrete systems: pure redundancies, pure synergies,
independent compositions, point masses, and seeded random tables.

The two canonical gadgets pin down the extremes of the order-k hierarchy:

* :func:`giant_bit`: k identical copies of one uniform variable, the pure
  order-k redundancy. T = (k-1)*log2(a), D = log2(a), S = k*log2(a).
* :func:`parity`: k variables whose last coordinate is the modular sum of
  the first k-1 (XOR for binary), the pure order-k synergy: removing any
  single variable leaves a fully independent system, so every leave-one-out
  marginal has zero total correlation.

All constructors are pure; randomness enters only through explicitly
passed seeds. Every order, alphabet, n_vars and seed is an integer (numpy
integers too, bools not) at or above its minimum, and every order and n_vars
at most ``sys.maxsize``. Anything else raises :class:`InvalidOrderError`
naming the argument; a count of variables whose cardinalities no tuple can
hold raises :class:`TableTooLargeError` naming the count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .distribution import (
    _BLOCK,
    DEFAULT_CONFIG,
    EstimatorConfig,
    JointDistribution,
    _check_support_size,
    _code_dtype,
    _fold,
    _from_support,
    _is_int_type,
    _is_number_type,
    _prod,
    _quote,
    # ROADMAP item 7 deletes this binding
    build_distribution,  # noqa: F401 - perfbench/traced.py wraps this name
    product,
)
from .errors import (
    EmptyInputError,
    InvalidOrderError,
    MalformedInputError,
    TableTooLargeError,
)

# The most bits of a parity's support count that error text writes out;
# writing one takes time quadratic in its bits, and computing it more.
_WRITTEN_BITS = 2**17

# The spec fields each kind reads, in the order its descriptor names them;
# every other field keeps its default.
_KIND_FIELDS = {
    "giant_bit": ("order", "alphabet"),
    "parity": ("order", "alphabet"),
    "independent_product": ("components",),
    "random_dirichlet_like": ("n_vars", "alphabet", "seed", "concentration"),
    "point_mass": ("n_vars", "alphabet"),
}

GENERATOR_KINDS = tuple(_KIND_FIELDS)

# Every accepted spelling of a kind: its name with "_" or "-", plus "random".
GENERATOR_KIND_ALIASES = {
    spelling: kind
    for kind in GENERATOR_KINDS
    for spelling in (kind, kind.replace("_", "-"))
} | {"random": "random_dirichlet_like"}


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    """Declarative description of a synthetic system.

    ``order`` applies to giant_bit and parity (their variable count k);
    ``n_vars`` to random and point-mass kinds; ``seed`` and
    ``concentration`` to the random kind; ``alphabet`` to every kind but
    independent_product, whose ``components`` holds its child specs. A
    field the kind does not read must keep its default, or
    :class:`InvalidOrderError` names it.
    """

    kind: str
    order: int | None = None
    alphabet: int = 2
    n_vars: int | None = None
    seed: int | None = None
    concentration: float = 1.0
    components: tuple["GeneratorSpec", ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise InvalidOrderError(
                f"unknown generator kind {_quote(self.kind)}; "
                f"expected one of {GENERATOR_KINDS}")
        for spec_field in fields(self)[1:]:  # every field after kind
            if (spec_field.name not in _KIND_FIELDS[self.kind]
                    and getattr(self, spec_field.name) != spec_field.default):
                raise InvalidOrderError(
                    f"generator kind {_quote(self.kind)} does not take "
                    f"{_quote(spec_field.name)}")

    def describe(self) -> str:
        """Canonical provenance string, e.g. ``gen:parity(order=3, alphabet=2)``."""
        if self.kind == "independent_product":
            inner = ", ".join(c.describe() for c in self.components)
            return f"gen:independent_product[{inner}]"
        parts = (f"{name}={getattr(self, name)}"
                 for name in _KIND_FIELDS[self.kind]
                 if getattr(self, name) is not None)
        return f"gen:{self.kind}({', '.join(parts)})"


# The value keys of a spec and the type test of each.
_SPEC_VALUE_TYPES = dict.fromkeys(
    ("order", "alphabet", "n_vars", "seed"), _is_int_type
) | {"concentration": _is_number_type}


# The most levels a generator spec may nest, itself the first: each level
# of ``components`` is a few Python frames deep to read, describe and
# generate, so the bound keeps every spec well inside the recursion limit.
_MAX_SPEC_DEPTH = 64


def spec_from_dict(obj: Mapping) -> GeneratorSpec:
    """Build a GeneratorSpec from its JSON object form.

    This is the one reader of generator specs from outside input: manifest
    items and the command-line flags both come through here. ``kind`` may
    be any spelling in :data:`GENERATOR_KIND_ALIASES`. ``order``,
    ``alphabet``, ``n_vars`` and ``seed`` must be integers and
    ``concentration`` a number (bools are neither); ``null`` leaves a value
    at its default. Nothing is coerced: a value of the wrong type, a
    ``components`` that is neither a list nor ``null``, or a spec or
    component that is not an object, raises :class:`MalformedInputError`;
    a ``kind`` that is not one of those strings, or a ``concentration``
    that is not above 0 within the float range, raises
    :class:`InvalidOrderError`. A spec whose ``components`` nest more than
    64 levels deep, itself the first, raises :class:`MalformedInputError`.
    """
    return _spec_from_dict(obj, 1)


def _spec_from_dict(obj: Mapping, depth: int) -> GeneratorSpec:
    """:func:`spec_from_dict` of a spec nested ``depth`` levels deep."""
    if depth > _MAX_SPEC_DEPTH:
        raise MalformedInputError(
            f"generator spec nests more than {_MAX_SPEC_DEPTH} levels deep")
    if not isinstance(obj, Mapping):
        raise MalformedInputError(
            f"generator spec must be an object: {_quote(obj)}")
    if "kind" not in obj:
        raise InvalidOrderError("generator spec is missing 'kind'")
    unknown = [key for key in obj
               if key not in ("kind", "components", *_SPEC_VALUE_TYPES)]
    if unknown:
        raise InvalidOrderError(f"unknown generator spec keys: {_quote(unknown)}")
    kind = (GENERATOR_KIND_ALIASES.get(obj["kind"])
            if isinstance(obj["kind"], str) else None)
    if kind is None:
        raise InvalidOrderError(
            f"unknown generator kind {_quote(obj['kind'])}; expected one of "
            f"{sorted(GENERATOR_KIND_ALIASES)}")
    values = {key: obj[key] for key in _SPEC_VALUE_TYPES if obj.get(key) is not None}
    for key, value in values.items():
        if not _SPEC_VALUE_TYPES[key](type(value)):
            raise MalformedInputError(
                f"generator spec {_quote(key)} must be "
                f"{'a number' if key == 'concentration' else 'an integer'}, "
                f"got {_quote(value)}")
    if "concentration" in values:
        values["concentration"] = _check_concentration(values["concentration"])
    components = () if obj.get("components") is None else obj["components"]
    if not isinstance(components, (list, tuple)):
        raise MalformedInputError(
            f"generator spec 'components' must be a list: {_quote(components)}")
    return GeneratorSpec(
        kind=kind,
        components=tuple(_spec_from_dict(c, depth + 1) for c in components),
        **values)


def _check_int(
    value: object, name: str, minimum: int, maximum: float = math.inf
) -> int:
    """``value`` as a Python int if it has an integer type (a bool has not)
    and lies in [``minimum``, ``maximum``]; otherwise
    :class:`InvalidOrderError`."""
    if not (_is_int_type(type(value)) and minimum <= value <= maximum):
        raise InvalidOrderError(f"{name} must be an integer in [{minimum}, "
                                f"{_quote(maximum)}], got {_quote(value)}")
    return int(value)


def _check_concentration(value: object) -> float:
    """``value`` as a float if it is a number (a bool is not) above 0 that a
    float can hold, inf included; otherwise :class:`InvalidOrderError`."""
    if not (_is_number_type(type(value)) and 0.0 < value
            and (value <= sys.float_info.max or value == math.inf)):
        raise InvalidOrderError("concentration must be a positive number in "
                                f"the float range, got {_quote(value)}")
    return float(value)


def _repeated_cards(alphabet: int, count: int) -> tuple[int, ...]:
    """The cardinalities of ``count`` variables of ``alphabet`` symbols;
    :class:`TableTooLargeError` naming the count where no tuple can hold
    them."""
    try:
        return (alphabet,) * count
    except MemoryError:
        raise TableTooLargeError(
            f"{_quote(count)} variables are more than a tuple of "
            "cardinalities can hold") from None


def giant_bit(
    order: int, alphabet: int = 2, config: EstimatorConfig | None = None
) -> JointDistribution:
    """k identical copies of one uniform variable: the pure order-k redundancy.

    Uniform over the diagonal states (a, a, ..., a). Knowing any one
    variable determines all others.
    """
    order = _check_int(order, "giant bit order", 2, sys.maxsize)
    alphabet = _check_int(alphabet, "giant bit alphabet", 2)
    cfg = config if config is not None else DEFAULT_CONFIG
    _check_support_size(alphabet, cfg)
    cards = _repeated_cards(alphabet, order)
    # the diagonal state (i, ..., i) has the code i * (1 + a + ... + a**(k-1))
    codes = (np.arange(alphabet, dtype=_code_dtype(cards))
             * ((alphabet**order - 1) // (alphabet - 1)))
    return _from_support(cards, codes, np.full(alphabet, 1.0 / alphabet), cfg)


def parity(
    order: int, alphabet: int = 2, config: EstimatorConfig | None = None
) -> JointDistribution:
    """k variables whose last is the modular sum of the rest: pure order-k synergy.

    The first k-1 variables are independent and uniform; the last equals
    their sum mod ``alphabet`` (XOR when binary). Dropping any single
    variable leaves the remaining k-1 fully independent and uniform, so
    every leave-one-out marginal carries zero total correlation.
    """
    order = _check_int(order, "parity order", 2, sys.maxsize)
    alphabet = _check_int(alphabet, "parity alphabet", 2)
    cfg = config if config is not None else DEFAULT_CONFIG
    # alphabet ** (order - 1) has more than (order - 1) * (bit_length - 1)
    # bits; a count past the cap and too long to write quickly is rejected
    # before the power is taken
    if (order - 1) * (alphabet.bit_length() - 1) >= max(
            cfg.max_dense_states.bit_length(), _WRITTEN_BITS):
        raise TableTooLargeError(
            f"sparse support of {_quote(alphabet)}**{_quote(order - 1)} states "
            f"exceeds max_dense_states={_quote(cfg.max_dense_states)}")
    n_inputs = alphabet ** (order - 1)
    _check_support_size(n_inputs, cfg)
    cards = _repeated_cards(alphabet, order)
    # the check digit of the inputs in row-major order, one input variable
    # (the least significant digit) added at a time
    check = np.zeros(1, np.int64)
    for _ in range(order - 1):
        check = np.add.outer(check, np.arange(alphabet)).ravel() % alphabet
    codes = np.arange(n_inputs) * alphabet + check
    masses = np.full(n_inputs, 1.0 / n_inputs)
    return _from_support(cards, codes, masses, cfg)


def point_mass(
    n_vars: int = 1, alphabet: int = 1, config: EstimatorConfig | None = None
) -> JointDistribution:
    """Deterministic system: all mass on the all-zeros state.

    The additive identity for independent composition; contributes nothing
    to any measure.
    """
    n_vars = _check_int(n_vars, "point mass n_vars", 1, sys.maxsize)
    alphabet = _check_int(alphabet, "point mass alphabet", 1)
    cfg = config if config is not None else DEFAULT_CONFIG
    cards = _repeated_cards(alphabet, n_vars)
    codes = np.zeros(1, dtype=_code_dtype(cards))
    return _from_support(cards, codes, np.ones(1), cfg)


def _cut(values: np.ndarray, count: int) -> tuple[float, int]:
    """The ``count`` largest of the finite ``values`` (0 < count < size),
    lowest index first among ties, as a stable descending sort heads them:
    the values above ``cut`` and the first ``ties`` values equal to it.

    Partitions ``values`` in place, so :func:`_take` picks them out of
    the values as they stood before, or of the same values recomputed.
    """
    at = values.size - count
    values.partition(at)
    cut = values[at]
    above = sum(np.count_nonzero(values[start:start + _BLOCK] > cut)
                for start in range(at + 1, values.size, _BLOCK))
    return float(cut), count - above


def _take(values: np.ndarray, cut: float, ties: int) -> tuple[np.ndarray, int]:
    """Mask of the values :func:`_cut` chose in ``values``, the next run of
    the values it selected from, and the ties left for the runs after."""
    chosen = values > cut
    if ties:
        tied = np.flatnonzero(values == cut)[:ties]
        chosen[tied] = True
        ties -= tied.size
    return chosen, ties


def random_distribution(
    n_vars: int,
    alphabet: int | Sequence[int],
    seed: int,
    concentration: float = 1.0,
    config: EstimatorConfig | None = None,
) -> JointDistribution:
    """Seeded random table with strictly positive mass on every state.

    Scheme (fixed for reproducibility): draw one uniform deviate u per
    state from ``numpy.random.default_rng(seed)``, shape it into a weight
    w = (1 - u) ** (1 / concentration), then quantize the normalized
    weights to integer multiples of 2**-B (B in [40, 48], chosen from the
    state count) with every state kept at >= 1 quantum: each state takes
    max(floor(x), 1) quanta of its scaled weight x. Where those sum past
    2**B (a deficit), the scaled weights are first scaled once more, by
    (2**B - 2n) / 2**B for n states, which always leaves a surplus. The
    surplus is placed deterministically by fractional part, lowest index
    first among equal fractions: every state gets one quantum per whole
    multiple of the state count, then one more to each state with the
    largest fractions until it is spent. Quantized masses are exact binary
    fractions, so the table sums to exactly 1.0.

    Small concentration concentrates mass on few states; as concentration
    grows the table approaches uniform. ``alphabet`` is either one shared
    cardinality or a per-variable sequence (tuple, list, range or 1-D
    array). ``seed``, ``n_vars`` and every cardinality are integers (numpy
    integers too, bools not), the seed >= 0 and the others >= 1, with
    ``n_vars`` at most ``sys.maxsize``; ``concentration`` is a number
    > 0 that a float can hold, inf included. Anything else raises
    :class:`InvalidOrderError`, as does a concentration so small that the
    weights underflow to a sum that cannot be scaled to 2**B.
    """
    seed = _check_int(seed, "random seed", 0)
    n_vars = _check_int(n_vars, "random n_vars", 1, sys.maxsize)
    if isinstance(alphabet, (tuple, list, range)) or np.ndim(alphabet) == 1:
        cards = tuple(_check_int(a, "random cardinality", 1) for a in alphabet)
        if len(cards) != n_vars:
            raise InvalidOrderError(
                f"got {len(cards)} cardinalities for {n_vars} variables"
            )
    else:
        cards = _repeated_cards(_check_int(alphabet, "random alphabet", 1),
                                n_vars)
    # checked, but the caller's value, not its float, sets the weights' bits
    _check_concentration(concentration)
    cfg = config if config is not None else DEFAULT_CONFIG
    n_states = _prod(cards)
    if n_states > cfg.max_dense_states:
        raise TableTooLargeError(
            f"random table of {_quote(n_states)} states exceeds "
            f"max_dense_states={_quote(cfg.max_dense_states)}")

    # Built in place in two table-sized buffers. u is drawn, then becomes
    # w, then the scaled weights (scaled once more after a deficit), which
    # it keeps until the residual's cut is found, then their fractions. q
    # is first the fractions, which the cut partitions, then the quanta:
    # float64 whole numbers whose partial sums stay below 2**53, so every
    # += and their sum are exact. The fractions u - floor(u) are exact
    # too, so they are recomputed where needed; all else is a _BLOCK at a
    # time.
    u = np.random.default_rng(seed).random(n_states)
    np.subtract(1.0, u, out=u)
    u **= 1.0 / concentration  # w, in [0, 1]

    bits = min(48, max(40, n_states.bit_length() + 14))
    target = 1 << bits
    total = _fold(u)
    scale = target / total if total > 0.0 else math.inf
    if math.isinf(scale):
        raise InvalidOrderError(
            f"concentration {_quote(concentration)} is too small for a "
            f"random table of {n_states} states: the weights (1 - u) ** "
            f"(1 / concentration) underflow to a sum of {total}")
    u *= scale
    q = np.empty(n_states)
    scratch = np.empty(min(n_states, _BLOCK))

    def runs(values: np.ndarray) -> list[np.ndarray]:
        """``values`` as views of _BLOCK values, the last one shorter."""
        return np.split(values, range(_BLOCK, values.size, _BLOCK))

    def residual_pass() -> int:
        """target - sum(max(floor(u), 1)), with the fractions put in q."""
        residual = target
        for block, run in zip(runs(u), runs(q)):
            floors = np.floor(block, out=scratch[:block.size])
            np.subtract(block, floors, out=run)
            residual -= int(np.maximum(floors, 1.0, out=floors).sum())
        return residual

    residual = residual_pass()
    if residual < 0:
        # A deficit: scale the weights to sum to target - 2 * n_states and
        # take the residual again. The strict fold and the two scalings
        # leave sum(u) within about (n_states + 3) * 2**(bits - 53) <=
        # (n_states + 3) / 32 quanta of that (bits <= 48), and
        # max(floor(u), 1) <= u + 1, so the quanta sum to at most
        # target - n_states + (n_states + 3) / 32 < target: the new
        # residual is above 0.
        u *= (target - 2 * n_states) / target
        residual = residual_pass()
    whole, extra = divmod(residual, n_states)
    if extra:
        cut, ties = _cut(q, extra)
    # the quanta are max(floor(u), 1) + whole, which is
    # max(floor(u) + whole, 1 + whole), then one more for each state chosen
    for block, run in zip(runs(u), runs(q)):  # q held the fractions
        block -= np.floor(block, out=run)  # the floors, and the fractions
        run += whole
        np.maximum(run, 1.0 + whole, out=run)
        if extra:
            chosen, ties = _take(block, cut, ties)
            np.add(run, chosen, out=run)

    q /= float(target)
    return JointDistribution(cards, q, config=cfg)


def generate(
    spec: GeneratorSpec, config: EstimatorConfig | None = None
) -> JointDistribution:
    """Materialize a GeneratorSpec as a JointDistribution."""
    if spec.kind == "giant_bit":
        return giant_bit(spec.order, spec.alphabet, config)
    if spec.kind == "parity":
        return parity(spec.order, spec.alphabet, config)
    if spec.kind == "point_mass":
        n_vars = 1 if spec.n_vars is None else spec.n_vars
        return point_mass(n_vars, spec.alphabet, config)
    if spec.kind == "random_dirichlet_like":
        return random_distribution(
            spec.n_vars, spec.alphabet, spec.seed, spec.concentration, config
        )
    # independent_product
    if not spec.components:
        raise InvalidOrderError("independent_product requires 'components'")
    return compose_independent(spec.components, config)


def compose_independent(
    specs: Iterable[GeneratorSpec], config: EstimatorConfig | None = None
) -> JointDistribution:
    """Independent join of generated subsystems, left to right."""
    specs = tuple(specs)
    if not specs:
        raise EmptyInputError("compose_independent needs at least one spec")
    dist = generate(specs[0], config)
    for spec in specs[1:]:
        dist = product(dist, generate(spec, config))
    return dist
