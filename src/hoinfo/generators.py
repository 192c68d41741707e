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
integers too, bools not) at or above its minimum; anything else raises
:class:`InvalidOrderError` naming the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .distribution import (
    DEFAULT_CONFIG,
    EstimatorConfig,
    JointDistribution,
    _BLOCK,
    _check_support_size,
    _digits,
    _encode,
    _fold,
    _from_support,
    _is_int_type,
    _is_number_type,
    build_distribution,  # noqa: F401 -- kept in this module's namespace
    product,
)
from .errors import (
    EmptyInputError,
    InvalidOrderError,
    MalformedInputError,
    TableTooLargeError,
)

GENERATOR_KINDS = (
    "giant_bit",
    "parity",
    "independent_product",
    "random_dirichlet_like",
    "point_mass",
)

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
    ``concentration`` to the random kind; ``components`` holds the child
    specs of an independent_product.
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
                f"unknown generator kind {self.kind!r}; "
                f"expected one of {GENERATOR_KINDS}"
            )
        if self.components and self.kind != "independent_product":
            raise InvalidOrderError(
                "components are only valid for kind='independent_product'"
            )

    def describe(self) -> str:
        """Canonical provenance string, e.g. ``gen:parity(order=3, alphabet=2)``."""
        if self.kind == "independent_product":
            inner = ", ".join(c.describe() for c in self.components)
            return f"gen:independent_product[{inner}]"
        parts = []
        if self.order is not None:
            parts.append(f"order={self.order}")
        if self.n_vars is not None:
            parts.append(f"n_vars={self.n_vars}")
        parts.append(f"alphabet={self.alphabet}")
        if self.kind == "random_dirichlet_like":
            parts.append(f"seed={self.seed}")
            parts.append(f"concentration={self.concentration}")
        return f"gen:{self.kind}({', '.join(parts)})"


# The value keys of a spec and the type test of each.
_SPEC_VALUE_TYPES = dict.fromkeys(
    ("order", "alphabet", "n_vars", "seed"), _is_int_type
) | {"concentration": _is_number_type}


def spec_from_dict(obj: Mapping) -> GeneratorSpec:
    """Build a GeneratorSpec from its JSON object form.

    This is the one reader of generator specs from outside input: manifest
    items and the command-line flags both come through here. ``kind`` may
    be any spelling in :data:`GENERATOR_KIND_ALIASES`. ``order``,
    ``alphabet``, ``n_vars`` and ``seed`` must be integers and
    ``concentration`` a number (bools are neither); ``null`` leaves a value
    at its default. Nothing is coerced: a value of the wrong type, or a
    spec or component that is not an object, raises
    :class:`MalformedInputError`.
    """
    if not isinstance(obj, Mapping):
        raise MalformedInputError(f"generator spec must be an object: {obj!r}")
    if "kind" not in obj:
        raise InvalidOrderError("generator spec is missing 'kind'")
    unknown = set(obj) - {"kind", "components", *_SPEC_VALUE_TYPES}
    if unknown:
        raise InvalidOrderError(f"unknown generator spec keys: {sorted(unknown)}")
    kind = GENERATOR_KIND_ALIASES.get(str(obj["kind"]))
    if kind is None:
        raise InvalidOrderError(
            f"unknown generator kind {obj['kind']!r}; expected one of "
            f"{sorted(GENERATOR_KIND_ALIASES)}"
        )
    values = {key: obj[key] for key in _SPEC_VALUE_TYPES if obj.get(key) is not None}
    for key, value in values.items():
        if not _SPEC_VALUE_TYPES[key](type(value)):
            raise MalformedInputError(
                f"generator spec {key!r} must be "
                f"{'a number' if key == 'concentration' else 'an integer'}, "
                f"got {value!r}"
            )
    if "concentration" in values:
        values["concentration"] = float(values["concentration"])
    components = obj.get("components") or ()
    if not isinstance(components, (list, tuple)):
        raise MalformedInputError(
            f"generator spec 'components' must be a list: {components!r}"
        )
    return GeneratorSpec(
        kind=kind, components=tuple(map(spec_from_dict, components)), **values
    )


def _check_int(value: object, name: str, minimum: int) -> int:
    """``value`` as a Python int if it has an integer type (a bool has not)
    and is at least ``minimum``; otherwise :class:`InvalidOrderError`."""
    if not (_is_int_type(type(value)) and value >= minimum):
        raise InvalidOrderError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )
    return int(value)


def giant_bit(
    order: int, alphabet: int = 2, config: EstimatorConfig | None = None
) -> JointDistribution:
    """k identical copies of one uniform variable: the pure order-k redundancy.

    Uniform over the diagonal states (a, a, ..., a). Knowing any one
    variable determines all others.
    """
    order = _check_int(order, "giant bit order", 2)
    alphabet = _check_int(alphabet, "giant bit alphabet", 2)
    cfg = config if config is not None else DEFAULT_CONFIG
    _check_support_size(alphabet, cfg)
    cards = (alphabet,) * order
    codes = _encode([np.arange(alphabet)] * order, cards)
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
    order = _check_int(order, "parity order", 2)
    alphabet = _check_int(alphabet, "parity alphabet", 2)
    cfg = config if config is not None else DEFAULT_CONFIG
    n_inputs = alphabet ** (order - 1)
    _check_support_size(n_inputs, cfg)
    inputs = np.arange(n_inputs)
    check = sum(_digits(inputs, (alphabet,) * (order - 1))) % alphabet
    codes = _encode([inputs, check], (n_inputs, alphabet))
    masses = np.full(n_inputs, 1.0 / n_inputs)
    return _from_support((alphabet,) * order, codes, masses, cfg)


def point_mass(
    n_vars: int = 1, alphabet: int = 1, config: EstimatorConfig | None = None
) -> JointDistribution:
    """Deterministic system: all mass on the all-zeros state.

    The additive identity for independent composition; contributes nothing
    to any measure.
    """
    n_vars = _check_int(n_vars, "point mass n_vars", 1)
    alphabet = _check_int(alphabet, "point mass alphabet", 1)
    cfg = config if config is not None else DEFAULT_CONFIG
    cards = (alphabet,) * n_vars
    codes = _encode([np.zeros(1, dtype=np.int64)] * n_vars, cards)
    return _from_support(cards, codes, np.ones(1), cfg)


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
    state count) with every state kept at >= 1 quantum. The quantization
    residual is spread deterministically by fractional part, largest
    first, with stable index tie-breaks. Quantized masses are exact binary
    fractions, so the table sums to exactly 1.0.

    Small concentration concentrates mass on few states; as concentration
    grows the table approaches uniform. ``alphabet`` is either one shared
    cardinality or a per-variable sequence (tuple, list, range or 1-D
    array). ``seed``, ``n_vars`` and every cardinality are integers (numpy
    integers too, bools not), the seed >= 0 and the others >= 1;
    ``concentration`` is a number > 0. Anything else raises
    :class:`InvalidOrderError`.
    """
    seed = _check_int(seed, "random seed", 0)
    n_vars = _check_int(n_vars, "random n_vars", 1)
    if isinstance(alphabet, (tuple, list, range)) or np.ndim(alphabet) == 1:
        cards = tuple(_check_int(a, "random cardinality", 1) for a in alphabet)
        if len(cards) != n_vars:
            raise InvalidOrderError(
                f"got {len(cards)} cardinalities for {n_vars} variables"
            )
    else:
        cards = (_check_int(alphabet, "random alphabet", 1),) * n_vars
    if not (_is_number_type(type(concentration)) and concentration > 0.0):
        raise InvalidOrderError(
            f"concentration must be a positive number, got {concentration!r}"
        )
    cfg = config if config is not None else DEFAULT_CONFIG
    n_states = math.prod(cards)
    if n_states > cfg.max_dense_states:
        raise TableTooLargeError(
            f"random table of {n_states} states exceeds max_dense_states="
            f"{cfg.max_dense_states}"
        )

    # Built in place: u becomes w, then the scaled weights, then their
    # fractions. The quanta are float64 whole numbers whose partial sums
    # stay below 2**53, so every += and their sum are exact. Placing the
    # residual takes one more table-sized buffer.
    u = np.random.default_rng(seed).random(n_states)
    np.subtract(1.0, u, out=u)
    u **= 1.0 / concentration  # w, in (0, 1]

    bits = min(48, max(40, n_states.bit_length() + 14))
    target = 1 << bits
    u *= target / _fold(u)
    quanta = np.floor(u)
    u -= quanta  # the fractions
    np.maximum(quanta, 1.0, out=quanta)
    residual = target - int(quanta.sum())
    if residual > 0:
        whole, extra = divmod(residual, n_states)
        if whole:
            quanta += whole
        if extra:
            # the `extra` largest fractions, lowest index first among ties:
            # the head of a stable descending sort, selected in O(n)
            cut = np.partition(u, n_states - extra)[n_states - extra]
            above = u > cut
            quanta += above
            ties = np.flatnonzero(u == cut)
            quanta[ties[: extra - int(np.count_nonzero(above))]] += 1
    elif residual < 0:
        order = np.argsort(u, kind="stable")
        del u
        deficit = -residual
        while deficit > 0:
            # one pass, smallest fraction first, a run of states at a time:
            # one quantum back from each of the first `deficit` states above
            # one quantum
            before = deficit
            for start in range(0, n_states, _BLOCK):
                run = order[start : start + _BLOCK]
                takeable = run[quanta[run] > 1.0][:deficit]
                quanta[takeable] -= 1.0
                deficit -= takeable.size
                if not deficit:
                    break
            # target >= n_states * 2**14, so an oversubscribed table always
            # has states above one quantum
            assert deficit < before

    quanta /= float(target)
    return JointDistribution(cards, quanta, config=cfg)


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
