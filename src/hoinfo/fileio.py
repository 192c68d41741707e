"""On-disk formats: distribution JSON and samples CSV.

Distribution JSON::

    {"cardinalities": [2, 2, 2],
     "entries": [{"state": [0, 0, 0], "p": 0.25}, ...]}

Unlisted states have p = 0. A state is a list of JSON integers (a bare
integer also works for a one-variable system), each cardinality is a JSON
integer and ``p`` is a JSON number; ``true``/``false``, ``0.5`` and
``"1"`` are not integers. A value of any other type raises
:class:`~hoinfo.errors.MalformedInputError`; nothing is coerced.

The writer's layout is pinned: byte for byte what ``json.dumps(obj,
indent=2)`` writes for that object, with the support entries in ascending
state order. Probabilities are emitted with full float64 fidelity
(shortest round-tripping decimal form), so a write/read cycle reproduces
every mass bit for bit.

Samples CSV: a header row of variable names, then one row per
observation. A column whose every cell parses as an integer is read as
integers; otherwise its cells stay strings. In an all-integer column,
cells that spell the same integer are one symbol: "01", "1" and "+1" are
all the integer 1. A column with any non-integer cell keeps "01" and "1"
apart. Symbols are mapped to indices in sorted order by the estimator.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Mapping, Sequence

from .distribution import (
    EstimatorConfig,
    JointDistribution,
    build_distribution,
)
from .errors import EmptyInputError, MalformedInputError, RaggedRowsError

FORMAT_DIST_JSON = "dist-json"
FORMAT_SAMPLES_CSV = "samples-csv"


def dumps_distribution(dist: JointDistribution) -> str:
    """Distribution JSON of ``dist``: the support in ascending state order,
    laid out byte for byte as ``json.dumps(obj, indent=2)`` lays out
    ``{"cardinalities": [...], "entries": [{"state": [...], "p": ...}]}``."""
    cards = ",\n".join(f"    {c}" for c in dist.cardinalities)
    entry = (
        '\n    {\n      "state": [\n'
        + ",\n".join(["        %d"] * dist.n_vars)
        + '\n      ],\n      "p": %r\n    }'
    )
    body = ",".join([entry % (*state, mass) for state, mass in dist.items()])
    return (f'{{\n  "cardinalities": [\n{cards}\n  ],\n'
            f'  "entries": [{body}\n  ]\n}}')


def distribution_from_obj(
    obj: Mapping,
    config: EstimatorConfig | None = None,
    *,
    renormalize: bool = False,
) -> JointDistribution:
    """Parse the distribution JSON object form, with full validation."""
    if not isinstance(obj, Mapping):
        raise EmptyInputError("distribution JSON must be an object")
    if "cardinalities" not in obj or "entries" not in obj:
        raise EmptyInputError(
            "distribution JSON needs 'cardinalities' and 'entries'"
        )
    try:
        entries = [(item["state"], item["p"]) for item in obj["entries"]]
    except KeyError:
        raise EmptyInputError("each entry needs 'state' and 'p'") from None
    except TypeError:
        raise MalformedInputError(
            "'entries' must be a list of objects with 'state' and 'p'"
        ) from None
    return build_distribution(
        obj["cardinalities"], entries, config, renormalize=renormalize
    )


def loads_distribution(
    text: str,
    config: EstimatorConfig | None = None,
    *,
    renormalize: bool = False,
) -> JointDistribution:
    return distribution_from_obj(
        json.loads(text), config, renormalize=renormalize
    )


def parse_samples_csv(text: str) -> tuple[list[str], list[tuple]]:
    """Read a samples CSV into (variable names, typed observation rows)."""
    reader = csv.reader(io.StringIO(text))
    table = [row for row in reader if row]
    if not table:
        raise EmptyInputError("samples CSV is empty")
    header, *raw_rows = table
    if not raw_rows:
        raise EmptyInputError("samples CSV has a header but no observations")
    arity = len(header)
    if set(map(len, raw_rows)) != {arity}:
        row = next(row for row in raw_rows if len(row) != arity)
        raise RaggedRowsError(
            f"row {row!r} has {len(row)} columns, header has {arity}"
        )
    columns = [_typed_column(cells) for cells in zip(*raw_rows)]
    return list(header), list(zip(*columns))


def _typed_column(cells: tuple[str, ...]) -> Sequence:
    """The column as integers if every cell parses as one, else unchanged.

    ``int`` runs once per distinct cell text, not once per cell.
    """
    try:
        value = {cell: int(cell) for cell in set(cells)}
    except ValueError:
        return cells
    return list(map(value.__getitem__, cells))


def sniff_format(path: str, text: str) -> str:
    """Guess dist-json vs samples-csv from extension, then content."""
    lower = path.lower()
    if lower.endswith(".json"):
        return FORMAT_DIST_JSON
    if lower.endswith(".csv"):
        return FORMAT_SAMPLES_CSV
    stripped = text.lstrip()
    return FORMAT_DIST_JSON if stripped.startswith("{") else FORMAT_SAMPLES_CSV
