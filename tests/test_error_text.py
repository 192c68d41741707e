"""Error text quotes every outside value through one bounded helper.

``distribution._quote`` is the one rule by which an error message or a
warning quotes a value a caller gave. The lint test fails when an f-string
in ``src/hoinfo`` uses a ``!r`` conversion inside the arguments of a call
to a name ending in ``Error`` or to ``warnings.warn``: such a repr is
unbounded, and raises ValueError for an int past 4,300 digits. The seeded
fuzz tests feed malformed manifest items and generator specs to the CLI
and the Python API and check that every failure is a named error with a
message of at most ``BOUND`` characters.
"""

import ast
import builtins
import inspect
import json
import pathlib
import random

import pytest

import hoinfo.cli
import hoinfo.errors
import support
from hoinfo import (
    EstimatorConfig,
    HoinfoError,
    build_distribution,
    compute_spectrum,
    delta_k,
    giant_bit,
    marginalize,
    parity,
    point_mass,
    random_distribution,
    sign_interpretation,
)
from hoinfo.cli import main
from hoinfo.generators import generate, spec_from_dict

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "hoinfo"

# Every message below holds a few quoted values of at most about 125
# characters each.
BOUND = 1_000
LONG = "x" * 200_000
BIG = int("9" * 400)  # an integer as long as JSON text may write one
HUGE = 10**5000  # past the 4,300 digits of str(); only Python passes one
KINDS = ["giant_bit", "parity", "random", "point-mass", "independent_product"]
SPEC_KEYS = ["kind", "order", "alphabet", "n_vars", "seed", "concentration",
             "components", LONG]
NAMED = {name for name, cls in inspect.getmembers(hoinfo.errors, inspect.isclass)
         if issubclass(cls, HoinfoError)}


def reprs_in_error_calls(source: str) -> list[str]:
    """``"line: callee"`` of every ``!r`` conversion in an f-string inside
    the arguments of a call to a name ending in ``Error`` or to
    ``warnings.warn``."""
    found = []
    for call in ast.walk(ast.parse(source)):
        if not isinstance(call, ast.Call):
            continue
        callee = ast.unparse(call.func)
        if not (callee.endswith("Error") or callee == "warnings.warn"):
            continue
        for argument in [*call.args, *(k.value for k in call.keywords)]:
            found += [f"{node.lineno}: {callee}" for node in ast.walk(argument)
                      if isinstance(node, ast.FormattedValue)
                      and node.conversion == ord("r")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_error_text_quotes_by_repr(path):
    assert reprs_in_error_calls(path.read_text(encoding="utf-8")) == []


def test_a_repr_in_error_text_is_reported():
    source = (
        "import warnings\n"
        "raise ValueError(f'bad {x!r}')\n"
        "raise errors.MalformedInputError('a', f'{x} and {_quote(x)}')\n"
        "warnings.warn(f'{name!r} is assumed', UserWarning)\n"
        "raise InvalidOrderError(message=('k ' + f'{k!r}'))\n"
        "print(f'{x!r}')\n"
        "text = f'{x!r}'\n"
    )
    assert reprs_in_error_calls(source) == [
        "2: ValueError", "4: warnings.warn", "5: InvalidOrderError"]


def nested(depth: int, leaf: object) -> object:
    for _ in range(depth):
        leaf = [leaf]
    return leaf


def values(rng: random.Random, big: int) -> list:
    """Malformed values: long strings, long ints, nested lists and every
    falsy JSON value that is not null."""
    return [LONG, big, -big, nested(rng.randrange(1, 300), big),
            [LONG, [big, [LONG]]], False, 0, "", {}, [], 1.5, None,
            {"kind": LONG}]


def spec(rng: random.Random, big: int, depth: int = 0) -> dict:
    """A generator spec with a few keys, known or not, set to malformed
    values; an independent product's components are specs like it. The
    spec, or a valid one, may sit inside a chain of up to 450 products of
    one component, far past the 64 levels a spec may nest."""
    obj = {"kind": rng.choice([*KINDS, LONG, big, None, ["parity"]])}
    for key in rng.sample(SPEC_KEYS, rng.randrange(1, 4)):
        if key == "components" and depth < 2 and rng.random() < 0.5:
            obj[key] = [spec(rng, big, depth + 1)
                        for _ in range(rng.randrange(1, 3))]
        else:
            obj[key] = rng.choice(values(rng, big))
    if depth == 0 and rng.random() < 0.1:
        leaf = rng.choice([obj, {"kind": "parity", "order": 3}])
        return support.nested_product(rng.randrange(2, 450), leaf)
    return obj


def item(rng: random.Random, paths: list[str]) -> object:
    """A manifest item: a value that is not an object, or an object with a
    spec, an input and a key, each present or not, known or not."""
    if rng.random() < 0.15:
        return rng.choice(values(rng, BIG))
    obj = {}
    if rng.random() < 0.7:
        obj["gen"] = spec(rng, BIG)
    if rng.random() < 0.3:
        obj["input"] = rng.choice([*paths, BIG, [LONG]])
    if rng.random() < 0.4:
        key = rng.choice(["format", "normalize", "spectrum", "note", LONG])
        obj[key] = rng.choice([*values(rng, BIG), "dist-json", True])
    return obj


@pytest.mark.parametrize("seed", range(3))
def test_batch_errors_are_named_bounded_and_independent_of_jobs(
        tmp_path, capsys, monkeypatch, seed):
    first = hoinfo.cli._allowed_cpus()[0]  # two workers even on one CPU
    monkeypatch.setattr(hoinfo.cli, "_allowed_cpus", lambda: [first, first])
    dist = tmp_path / "dist.json"
    dist.write_text('{"cardinalities": [2, 2], "entries": '
                    '[{"state": [0, 0], "p": 0.5}, {"state": [1, 1], "p": 0.5}]}')
    rng = random.Random(seed)
    items = [item(rng, [str(dist), str(tmp_path / "missing.json"), LONG])
             for _ in range(40)]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(items))
    runs = []
    for jobs in ("1", "2"):
        main(["batch", str(manifest), "--jobs", jobs])
        runs.append(capsys.readouterr())
    assert runs[0] == runs[1]
    lines = runs[0].out.splitlines()
    assert len(lines) == len(items)
    errors = [(json.loads(line).get("error"), given)
              for line, given in zip(lines, items)]
    assert any(error for error, _ in errors)
    for error, given in errors:
        if error is None:
            continue
        if error["type"] in NAMED:
            assert len(error["message"]) <= BOUND
        else:  # Python writes the whole path into the text of an OSError
            assert issubclass(getattr(builtins, error["type"]), OSError)
            assert "input" in given


D3 = random_distribution(3, 2, seed=1)
API_CALLS = [
    lambda v: build_distribution(v, []),
    lambda v: build_distribution([2, 2], [(v, 1.0)]),
    lambda v: build_distribution([2], [((0,), v)]),
    lambda v: build_distribution([2 * HUGE], [((HUGE,), v)]),
    lambda v: EstimatorConfig(log_base=v),
    lambda v: EstimatorConfig(max_dense_states=v),
    lambda v: giant_bit(v),
    lambda v: parity(3, v),
    lambda v: point_mass(v),
    lambda v: random_distribution(2, v, 1),
    lambda v: random_distribution(2, 2, 1, concentration=v),
    lambda v: marginalize(D3, v),
    lambda v: D3.mass(v),
    lambda v: delta_k(D3, v),
    lambda v: sign_interpretation(compute_spectrum(D3), v),
    lambda v: generate(spec_from_dict(v)),
]


@pytest.mark.parametrize("seed", range(3))
def test_python_api_errors_are_named_and_bounded(seed):
    rng = random.Random(seed)
    for _ in range(150):
        call = rng.choice(API_CALLS)
        value = spec(rng, HUGE) if rng.random() < 0.3 else rng.choice(
            values(rng, HUGE))
        try:
            call(value)
        except HoinfoError as exc:
            assert len(str(exc)) <= BOUND
