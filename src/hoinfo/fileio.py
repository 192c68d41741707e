"""On-disk formats: distribution JSON and samples CSV.

Distribution JSON::

    {"cardinalities": [2, 2, 2],
     "entries": [{"state": [0, 0, 0], "p": 0.25}, ...]}

Unlisted states have p = 0. Probabilities are emitted with full float64
fidelity (shortest round-tripping decimal form), so a write/read cycle
reproduces every mass bit for bit.

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
from .errors import EmptyInputError, RaggedRowsError

FORMAT_DIST_JSON = "dist-json"
FORMAT_SAMPLES_CSV = "samples-csv"


def distribution_to_obj(dist: JointDistribution) -> dict:
    """JSON-ready object for a distribution (support entries only)."""
    return {
        "cardinalities": list(dist.cardinalities),
        "entries": [
            {"state": list(state), "p": mass} for state, mass in dist.items()
        ],
    }


def dumps_distribution(dist: JointDistribution) -> str:
    return json.dumps(distribution_to_obj(dist), indent=2)


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
    entries = []
    for item in obj["entries"]:
        if "state" not in item or "p" not in item:
            raise EmptyInputError("each entry needs 'state' and 'p'")
        entries.append((tuple(item["state"]), float(item["p"])))
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
    for row in raw_rows:
        if len(row) != arity:
            raise RaggedRowsError(
                f"row {row!r} has {len(row)} columns, header has {arity}"
            )
    columns = []
    for j in range(arity):
        cells = [row[j] for row in raw_rows]
        try:
            columns.append([int(c) for c in cells])
        except ValueError:
            columns.append(cells)
    rows = [tuple(col[i] for col in columns) for i in range(len(raw_rows))]
    return list(header), rows


def sniff_format(path: str, text: str) -> str:
    """Guess dist-json vs samples-csv from extension, then content."""
    lower = path.lower()
    if lower.endswith(".json"):
        return FORMAT_DIST_JSON
    if lower.endswith(".csv"):
        return FORMAT_SAMPLES_CSV
    stripped = text.lstrip()
    return FORMAT_DIST_JSON if stripped.startswith("{") else FORMAT_SAMPLES_CSV
