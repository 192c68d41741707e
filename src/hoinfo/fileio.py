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
every mass bit for bit. Each line of an entry depends on one digit or on
the mass alone, so the writer cuts the variables into maximal runs of at
most 256 joint states, formats each distinct code of a run (the lines of
its digits) and each distinct mass once, and gathers the entries' text
from those pieces; the bytes stay those of ``json.dumps``. Text that is
not JSON raises :class:`~hoinfo.errors.MalformedInputError`. The decoded
document is a tree of dicts and lists, which reference counting frees, so
a read decodes it and builds the distribution with the cyclic garbage
collector paused, and drops it before the collector resumes; another
thread may see the collector paused meanwhile, and no result depends on
it.

Samples CSV: a header row of distinct variable names, then one row per
observation. A column whose every cell parses as an integer is read as
integers; otherwise its cells stay strings. In an all-integer column,
cells that spell the same integer are one symbol: "01", "1" and "+1" are
all the integer 1. A column with any non-integer cell keeps "01" and "1"
apart. The reader counts the text's lines first and parses and indexes
each distinct line once, as one row whose multiplicity is the line's
count; rows keep the order in which their lines first appear, so a line
that cannot be parsed fails as it would in a record-by-record read. The
header is the first non-blank line, and each later line that repeats it
is a data row. Text that holds a ``"`` is parsed record by record, each
record a row of multiplicity 1, because a quoted cell may span lines;
without one, no csv state crosses a line end. Each column is indexed
once: its symbols are sorted into its alphabet and every cell is returned
as its symbol's index there, the indices the estimator counts. ``int``
runs once per distinct cell text.
Text the ``csv`` module cannot parse, a repeated column name, or a header
whose width is not the rows' raises
:class:`~hoinfo.errors.MalformedInputError`, and empty text
:class:`~hoinfo.errors.EmptyInputError`. The observation rows follow the
rules and raise the errors of :func:`~hoinfo.estimate_from_samples`: a
header with no rows, or rows of unequal width, is rejected there.
"""

from __future__ import annotations

import csv
import gc
import io
import json
from collections import Counter
from contextlib import contextmanager
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .distribution import (
    EstimatorConfig,
    JointDistribution,
    _digits,
    _index_samples,
    _prod,
    _quote,
    build_distribution,
)
from .errors import EmptyInputError, MalformedInputError

FORMAT_DIST_JSON = "dist-json"
FORMAT_SAMPLES_CSV = "samples-csv"

# the most joint states of a run of variables whose distinct codes the
# writer formats once: fewer pieces per entry than one per variable, while
# a run's codes stay few; 1024 and 4096 wrote parity(16) and small random
# tables more slowly
_GROUP_STATES = 256


def dumps_distribution(dist: JointDistribution) -> str:
    """Distribution JSON of ``dist``: the support in ascending state order,
    laid out byte for byte as ``json.dumps(obj, indent=2)`` lays out
    ``{"cardinalities": [...], "entries": [{"state": [...], "p": ...}]}``.

    The variables are cut, left to right, into maximal runs of at most
    ``_GROUP_STATES`` joint states (a wider variable is a run of its own).
    An entry's text is one piece per run, the lines of its digits there,
    and one for its mass, so the body is an (entries x (runs + 1)) array of
    pieces, each column gathered from the text of its distinct values."""
    codes, masses = dist._support()
    groups = _groups(dist.cardinalities)
    pieces = np.empty((len(codes), len(groups) + 1), object)
    for g, (group, group_codes) in enumerate(
            zip(groups, _digits(codes, [_prod(group) for group in groups]))):
        distinct, inverse = np.unique(group_codes, return_inverse=True)
        lines = []
        for i, digits in enumerate(_digits(distinct, group)):
            opening = '\n    {\n      "state": [' if g == i == 0 else ","
            lines.append([f"{opening}\n        {d}" for d in digits.tolist()])
        texts = list(map("".join, zip(*lines)))
        pieces[:, g] = np.array(texts, object)[inverse]
    pieces[:, -1] = _formatted('\n      ],\n      "p": %r\n    },', masses)
    cards = ",\n".join(f"    {c}" for c in dist.cardinalities)
    # the head joins the first piece, and the last piece drops its comma
    # for the tail, so the whole document is one join
    pieces[0, 0] = (f'{{\n  "cardinalities": [\n{cards}\n  ],\n'
                    f'  "entries": [{pieces[0, 0]}')
    pieces[-1, -1] = pieces[-1, -1][:-1] + "\n  ]\n}"
    return "".join(pieces.ravel().tolist())


def _groups(cards: Sequence[int]) -> list[list[int]]:
    """``cards`` cut, left to right, into maximal runs whose product is at
    most ``_GROUP_STATES``; a larger cardinality is a run of its own."""
    groups, size = [], _GROUP_STATES + 1
    for card in cards:
        if size * card > _GROUP_STATES:
            groups.append([])
            size = 1
        groups[-1].append(card)
        size *= card
    return groups


def _formatted(template: str, values: np.ndarray) -> np.ndarray:
    """``template % v`` for each of ``values`` (as a Python int or float),
    as an object array; each distinct value is formatted once."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([template % v for v in distinct.tolist()], object)[inverse]


def distribution_from_obj(
    obj: Mapping,
    config: EstimatorConfig | None = None,
    *,
    renormalize: bool = False,
) -> JointDistribution:
    """Parse the distribution JSON object form, with full validation."""
    if not isinstance(obj, Mapping):
        raise MalformedInputError("distribution JSON must be an object")
    if "cardinalities" not in obj or "entries" not in obj:
        raise EmptyInputError(
            "distribution JSON needs 'cardinalities' and 'entries'"
        )
    try:
        entries = [(item["state"], item["p"]) for item in obj["entries"]]
    except (KeyError, TypeError):
        raise MalformedInputError(
            "'entries' must be a list of objects with 'state' and 'p'"
        ) from None
    return build_distribution(
        obj["cardinalities"], entries, config, renormalize=renormalize
    )


@contextmanager
def _collector_paused():
    """Run the block with Python's cyclic garbage collector disabled, then
    give it back the state the caller had, on every exit path. The
    collector is process-wide: another thread sees it paused meanwhile."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def decode_json(text: str, name: str):
    """``json.loads(text)`` with the cyclic collector paused; text that is
    not JSON, or that nests too deep for the parser, raises
    :class:`~hoinfo.errors.MalformedInputError` naming ``name``."""
    with _collector_paused():
        try:
            return json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise MalformedInputError(f"{name} cannot be parsed: {exc}") from None


def loads_distribution(
    text: str,
    config: EstimatorConfig | None = None,
    *,
    renormalize: bool = False,
) -> JointDistribution:
    """Parse distribution JSON text, with full validation; text that is not
    JSON, or that nests too deep for the parser, raises
    :class:`~hoinfo.errors.MalformedInputError`.

    The decode and the build run with the cyclic garbage collector paused,
    because the document they walk holds no reference cycles; a thread
    that reads JSON at the same moment may see the collector paused, and
    no result depends on it. The text is dropped once decoded, so a caller
    that hands over its only reference does not hold it through the
    build, and the document once built, so the collector's first pass
    after the read does not walk it."""
    with _collector_paused():
        obj = decode_json(text, "distribution JSON")
        del text
        dist = distribution_from_obj(obj, config, renormalize=renormalize)
        del obj  # freed before the collector resumes, not scanned by it
    return dist


def parse_samples_csv(
    text: str,
) -> tuple[list[str], list[list], list[np.ndarray], np.ndarray]:
    """Read a samples CSV into (variable names, the sorted alphabet of each
    column, each column's int64 indices of its cells in that alphabet, and
    each row's int64 multiplicity): one row per distinct line."""
    try:
        if '"' in text:
            # only a quoted field carries csv state from one line to the
            # next, so text with a quote is parsed record by record
            records = list(csv.reader(io.StringIO(text)))
            counts = [1] * len(records)
        else:
            lines = Counter(text.split("\n"))
            records, counts = list(csv.reader(lines)), list(lines.values())
    except csv.Error as exc:
        raise MalformedInputError(f"samples CSV cannot be parsed: {exc}") from None
    counts = list(compress(counts, records))  # blank records are skipped
    rows = list(compress(records, records))
    if not rows:
        raise EmptyInputError("samples CSV is empty")
    header = rows[0]
    repeated = sorted(name for name, n in Counter(header).items() if n > 1)
    if repeated:
        raise MalformedInputError(
            f"samples CSV repeats the column names {_quote(repeated)}")
    counts[0] -= 1  # the header's first line; a later repeat is a data row
    if not counts[0]:
        del rows[0], counts[0]
    alphabets, digits = _index_samples(rows, _cell_symbols)
    if len(alphabets) != len(header):
        raise MalformedInputError(
            f"samples CSV header has width {len(header)}, "
            f"its rows width {len(alphabets)}"
        )
    return header, alphabets, digits, np.array(counts, np.int64)


def _cell_symbols(texts: set[str]) -> dict:
    """Each distinct cell text's symbol: its integer if every text parses as
    one, else the text itself."""
    try:
        return {text: int(text) for text in texts}
    except ValueError:
        return {text: text for text in texts}


def sniff_format(path: str, text: str) -> str:
    """Guess dist-json vs samples-csv from extension, then content."""
    lower = path.lower()
    if lower.endswith(".json"):
        return FORMAT_DIST_JSON
    if lower.endswith(".csv"):
        return FORMAT_SAMPLES_CSV
    stripped = text.lstrip()
    return FORMAT_DIST_JSON if stripped.startswith("{") else FORMAT_SAMPLES_CSV
