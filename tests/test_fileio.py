"""Distribution JSON and samples CSV against per-entry references.

The writer must reproduce ``json.dumps(obj, indent=2)`` byte for byte,
the array-checked loader must build what the dict reference builds and
report the same first invalid entry as a per-entry loop, and the
column-wise CSV reader must type cells as a per-cell reader does. A
malformed input file raises its named error and makes the CLI exit 1.
"""

import collections
import csv
import gc
import io
import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

import support
from hoinfo import (
    EmptyInputError,
    EstimatorConfig,
    HoinfoError,
    MalformedInputError,
    NotNormalizedError,
    RaggedRowsError,
    StateOutOfRangeError,
    build_distribution,
    estimate_from_samples,
    giant_bit,
    infer_alphabets,
    parity,
    point_mass,
    product,
    random_distribution,
)
from hoinfo.cli import main
from hoinfo.distribution import DEFAULT_CONFIG, _count_states
from hoinfo.fileio import (
    distribution_from_obj,
    dumps_distribution,
    loads_distribution,
    parse_samples_csv,
)

WRITER_CASES = {
    "dense_parity": lambda: parity(10),
    "dense_ternary_parity": lambda: parity(5, 3),
    "dense_mixed_radix": lambda: random_distribution(5, [2, 3, 1, 5, 4], 7, 0.5),
    "sparse_random": lambda: random_distribution(8, 3, 11).to_sparse(),
    "sparse_over_cap": lambda: build_distribution(
        [3, 3, 3, 3], [((2, 1, 0, 2), 0.5), ((0, 0, 0, 0), 0.5)],
        EstimatorConfig(max_dense_states=4)),
    "object_codes_giant_bit_70": lambda: giant_bit(70),
    "product_of_gadgets": lambda: product(parity(3), giant_bit(2, 4)),
    "point_mass": lambda: point_mass(4, 3),
    "single_variable": lambda: build_distribution([3], [(2, 1.0)]),
    "multi_digit_states": lambda: random_distribution(3, [12, 1, 101], 5),
    "cardinality_2_to_70_with_two_entries": lambda: build_distribution(
        [2**70, 3], [((2**70 - 1, 2), 0.5), ((10**20, 0), 0.5)]),
    # states (i % 3, i % 5, i * i % 7) repeat with period 105: two masses
    "plug_in_with_repeated_masses": lambda: estimate_from_samples(
        [(i % 3, i % 5, i * i % 7) for i in range(200)]),
    "subnormal_beside_reprs_of_unequal_length": lambda: build_distribution(
        [6], [(0, 5e-324), (1, 0.5), (2, 0.25), (3, 0.125), (4, 0.0625),
              (5, 0.0625)]),
    # the writer cuts the variables into runs of at most 256 joint states
    "one_run_of_256_states": lambda: parity(8),
    "a_run_boundary": lambda: parity(9),
    "runs_of_16_by_16_then_2": lambda: random_distribution(3, [16, 16, 2], 4),
    "a_257_state_variable_is_a_run_of_its_own": lambda: random_distribution(
        5, [2, 2, 257, 2, 2], 6),
}


@pytest.mark.parametrize("name", sorted(WRITER_CASES))
def test_writer_matches_json_dumps_byte_for_byte(name):
    dist = WRITER_CASES[name]()
    text = dumps_distribution(dist)
    assert text == json.dumps(support.distribution_to_obj(dist), indent=2)
    again = loads_distribution(text, dist.config)
    assert list(again.items()) == list(dist.items())


# Masses from a small pool, so that both digits and masses repeat; a
# renormalized subnormal may round to 0 and leave the support.
pooled_masses = st.sampled_from([5e-324, 1e-300, 0.1, 0.25, 1 / 3, 1.0, 3.0])


@settings(max_examples=80, deadline=None)
@given(cards=st.lists(st.integers(1, 300), min_size=1, max_size=4),
       data=st.data())
def test_writer_matches_json_dumps_when_values_repeat(cards, data):
    states = data.draw(st.lists(
        st.tuples(*[st.integers(0, c - 1) for c in cards]),
        min_size=1, max_size=40, unique=True))
    weights = data.draw(st.lists(
        pooled_masses, min_size=len(states), max_size=len(states)))
    # a table of more than 2**16 states is kept sparse, to stay small
    sparse = data.draw(st.booleans()) or math.prod(cards) > 2**16
    config = EstimatorConfig(max_dense_states=len(states)) if sparse else None
    dist = build_distribution(cards, list(zip(states, weights)), config,
                              renormalize=True)
    text = dumps_distribution(dist)
    assert text == json.dumps(support.distribution_to_obj(dist), indent=2)
    again = loads_distribution(text, dist.config)
    assert list(again.items()) == list(dist.items())


cardinalities = st.lists(
    st.integers(1, 4), min_size=1, max_size=5
).filter(lambda cards: math.prod(cards) <= 256)
masses = st.floats(1e-6, 1.0).map(lambda x: x ** 3)


@settings(max_examples=60, deadline=None)
@given(cards=cardinalities, data=st.data())
def test_loader_sums_duplicates_like_dict(cards, data):
    states = list(itertools.product(*(range(c) for c in cards)))
    base = data.draw(st.lists(
        st.tuples(st.sampled_from(states), masses), min_size=1, max_size=30))
    repeats = data.draw(st.lists(
        st.tuples(st.sampled_from([s for s, _ in base]), masses), max_size=30))
    entries = data.draw(st.permutations(base + repeats))
    summed = support.dict_build(entries)
    total = 0.0
    for m in summed.values():
        total += m
    expected = {s: m / total for s, m in summed.items()}
    text = json.dumps({
        "cardinalities": cards,
        "entries": [{"state": list(s), "p": m} for s, m in entries],
    })
    got = loads_distribution(text, renormalize=True)
    assert dict(got.items()) == expected


# Entries that break the rules a per-entry loop always enforced: wrong
# arity, a coordinate outside its alphabet, a negative or non-finite mass.
bad_masses = st.sampled_from(
    [0.25, 0.0, 1e-300, -0.5, -0.0, -math.inf, math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(cards=st.lists(st.integers(1, 3), min_size=1, max_size=4),
       data=st.data())
def test_first_invalid_entry_is_reported_as_a_loop_would(cards, data):
    states = st.one_of(
        st.tuples(*[st.integers(0, c - 1) for c in cards]),
        st.tuples(*[st.integers(-1, c) for c in cards]),
        st.lists(st.integers(-1, 3), max_size=5).map(tuple).filter(
            lambda s: len(s) != len(cards)),
    )
    entries = data.draw(st.lists(st.tuples(states, bad_masses), max_size=12))
    expected = support.loop_entry_error(cards, entries)
    try:
        build_distribution(cards, entries, renormalize=True)
    except HoinfoError as exc:
        got = (type(exc).__name__, str(exc))
    else:
        got = None
    if expected is None:
        assert got is None or got[0] == "NotNormalizedError"
    else:
        assert got == expected


def test_first_invalid_entry_wins_across_rule_kinds():
    wrong_type = ((0, 0.5), 0.25)
    out_of_range = ((2, 0), 0.25)
    with pytest.raises(MalformedInputError, match=r"\(0, 0\.5\)"):
        build_distribution([2, 2], [((0, 0), 0.5), wrong_type, out_of_range])
    with pytest.raises(StateOutOfRangeError, match="coordinate 0"):
        build_distribution([2, 2], [((0, 0), 0.5), out_of_range, wrong_type])


WRONG_TYPES = {
    "bool_coordinate": ([2, 2], [((0, True), 1.0)]),
    "float_coordinate": ([2, 2], [((0, 1.0), 1.0)]),
    "string_coordinates": ([2, 2], [(("1", "0"), 1.0)]),
    "string_state": ([2, 2], [("10", 1.0)]),
    "null_state": ([2, 2], [(None, 1.0)]),
    "bool_bare_state": ([2], [(True, 1.0)]),
    "string_mass": ([2, 2], [((0, 0), "1.0")]),
    "null_mass": ([2, 2], [((0, 0), None)]),
    "bool_mass": ([2, 2], [((0, 0), True)]),
    "float_cardinality": ([2.0, 2], [((0, 0), 1.0)]),
    "bool_cardinality": ([True, 2], [((0, 0), 1.0)]),
    "scalar_cardinalities": (2, [((0,), 1.0)]),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPES))
def test_build_rejects_values_of_the_wrong_type(name):
    cards, entries = WRONG_TYPES[name]
    with pytest.raises(MalformedInputError):
        build_distribution(cards, entries)


def test_loader_rejects_entries_that_are_not_objects():
    with pytest.raises(MalformedInputError):
        distribution_from_obj({"cardinalities": [2], "entries": [5]})
    with pytest.raises(MalformedInputError):
        distribution_from_obj({"cardinalities": [2], "entries": 5})


# ---------------------------------------------------------------------------
# samples CSV
# ---------------------------------------------------------------------------

def cellwise_parse(text):
    """Reference reader: int() on every cell of a column, else strings."""
    header, *rows = [row for row in csv.reader(io.StringIO(text)) if row]
    columns = []
    for j in range(len(header)):
        cells = [row[j] for row in rows]
        try:
            columns.append([int(c) for c in cells])
        except ValueError:
            columns.append(cells)
    return header, [tuple(col[i] for col in columns) for i in range(len(rows))]


cells = st.sampled_from([
    "0", "1", "01", "+1", " 2", "-3", "a", "b", "1.0",
    "a,b", 'say "hi"', "two\nlines", "",
    str(2**64), str(-2**63 - 1), "0" + str(2**64),
])


newlines = st.sampled_from(["\n", "\r\n"])


@settings(max_examples=120, deadline=None)
@given(data=st.data(), arity=st.integers(1, 4))
def test_csv_columns_match_cellwise_reader_and_counts(data, arity):
    # quoted cells hold commas, newlines and doubled quotes; some integers
    # do not fit int64; each line ends in its own newline; blank lines may
    # come before the header and between any two lines; the header may
    # repeat as a data row
    pools = [data.draw(st.lists(cells, min_size=1, max_size=4, unique=True))
             for _ in range(arity)]
    rows = data.draw(st.lists(
        st.tuples(*[st.sampled_from(pool) for pool in pools]),
        min_size=1, max_size=40))
    header = [f"v{j}" for j in range(arity)]
    if data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))), tuple(header))
    lines = io.StringIO()
    lines.write(data.draw(newlines) * data.draw(st.integers(0, 1)))
    for row in [header, *rows]:
        csv.writer(lines, lineterminator=data.draw(newlines)).writerow(row)
        lines.write(data.draw(newlines) * data.draw(st.integers(0, 1)))
    text = lines.getvalue()
    names, typed = support.samples_csv_rows(text)
    cellwise_names, cellwise = cellwise_parse(text)
    assert names == cellwise_names
    assert collections.Counter(typed) == collections.Counter(cellwise)
    assert collections.Counter(tuple(map(type, r)) for r in typed) == (
        collections.Counter(tuple(map(type, r)) for r in cellwise))
    _, alphabets, digits, multiplicity = parse_samples_csv(text)
    assert alphabets == infer_alphabets(typed)
    assert alphabets == [sorted({r[j] for r in typed}) for j in range(arity)]
    counts = collections.Counter(
        tuple(a.index(s) for a, s in zip(alphabets, r)) for r in typed)
    expected = {s: c / len(typed) for s, c in sorted(counts.items())}
    assert dict(estimate_from_samples(typed).items()) == expected
    assert dict(_count_states(alphabets, digits, multiplicity,
                              DEFAULT_CONFIG).items()) == expected


# Samples CSVs with the alphabets and masses the record-by-record reader
# gives them. Text without a quote is read one distinct line at a time; the
# one quoted cell of "one_quoted_cell" sends it record by record, and its
# unquoted twin must read the same.
TWIN_READ = ([[0, 1], [0, 1]], {(0, 1): 2 / 3, (1, 0): 1 / 3})
SAMPLES_CSV_CASES = {
    "header_repeated_as_a_row": (
        "x,y\nx,y\n0,1\n",
        ([["0", "x"], ["1", "y"]], {(0, 0): 0.5, (1, 1): 0.5})),
    "blank_lines_before_the_header_and_between_rows": (
        "\n\r\nx,y\n0,1\n\n1,0\n\r\n\n0,1\n", TWIN_READ),
    "mixed_line_endings": (
        "x,y\r\n0,1\n0,1\r\n1,1\n1,0\r\n0,1",
        ([[0, 1], [0, 1]], {(0, 1): 0.6, (1, 0): 0.2, (1, 1): 0.2})),
    "one_quoted_cell": ('x,y\n"0",1\n0,1\n1,0\n', TWIN_READ),
    "unquoted_twin": ("x,y\n0,1\n0,1\n1,0\n", TWIN_READ),
}


@pytest.mark.parametrize("case", sorted(SAMPLES_CSV_CASES))
def test_samples_csv_cases_read_as_the_record_reader_does(case):
    text, (alphabets, masses) = SAMPLES_CSV_CASES[case]
    names, got, digits, multiplicity = parse_samples_csv(text)
    assert (names, got) == (["x", "y"], alphabets)
    assert dict(_count_states(got, digits, multiplicity,
                              DEFAULT_CONFIG).items()) == masses


# ---------------------------------------------------------------------------
# malformed input files
# ---------------------------------------------------------------------------

# Each malformed input file: (suffix, text, the error its reader raises).
INPUT_FAULTS = {
    "csv_empty": (".csv", "", EmptyInputError),
    "csv_blank_lines_only": (".csv", "\n\r\n\n", EmptyInputError),
    "csv_header_only": (".csv", "x,y\n", EmptyInputError),
    "csv_row_of_another_width": (".csv", "x,y\n0,1\n0\n1,0\n",
                                 RaggedRowsError),
    "csv_rows_narrower_than_header": (".csv", "x,y,z\n0,1\n1,0\n",
                                      MalformedInputError),
    "csv_rows_wider_than_header": (".csv", "x\n0,1\n1,0\n",
                                   MalformedInputError),
    "csv_bare_cr_inside_a_line": (".csv", "x\n0\r1\n", MalformedInputError),
    "csv_field_over_the_limit_after_1000_lines": (
        ".csv", "x\n" + "0\n1\n" * 500 + "1" * 131073 + "\n",
        MalformedInputError),
    "json_not_an_object": (".json", "[2, 2]", MalformedInputError),
    "json_no_cardinalities": (
        ".json", '{"entries": [{"state": [0], "p": 1.0}]}', EmptyInputError),
    "json_no_entries": (".json", '{"cardinalities": [2]}', EmptyInputError),
    "json_entry_without_state": (
        ".json", '{"cardinalities": [2], "entries": [{"p": 1.0}]}',
        MalformedInputError),
    "json_entry_without_p": (
        ".json", '{"cardinalities": [2], "entries": [{"state": [0]}]}',
        MalformedInputError),
    "json_truncated_document": (
        ".json", '{"cardinalities": [2], "entries": [{"state": [0], "p"',
        MalformedInputError),
    "json_empty_text": (".json", "", MalformedInputError),
    "json_integer_over_the_digit_limit": (
        ".json", '{"cardinalities": [' + "2" * 5000 + "]}",
        MalformedInputError),
    "json_nested_too_deep": (".json", "[" * 100000, MalformedInputError),
}


def csv_module_error(text):
    """The message of the csv module's error on reading ``text`` record by
    record, as the samples CSV reader reports it."""
    try:
        list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        return f"samples CSV cannot be parsed: {exc}"
    raise AssertionError("the csv module reads the text")


def json_module_error(text):
    """The message of the json module's error on ``text``, as the
    distribution JSON reader reports it."""
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        return f"distribution JSON cannot be parsed: {exc}"
    raise AssertionError("the json module reads the text")


# Faults the csv module raises, read one distinct line at a time, and
# faults the json module raises.
CSV_MODULE_FAULTS = ("csv_bare_cr_inside_a_line",
                     "csv_field_over_the_limit_after_1000_lines")
JSON_MODULE_FAULTS = ("json_truncated_document", "json_empty_text",
                      "json_integer_over_the_digit_limit",
                      "json_nested_too_deep")


@pytest.mark.parametrize("case", sorted(INPUT_FAULTS))
def test_malformed_input_raises_its_error_and_exits_1(tmp_path, capsys, case):
    suffix, text, error = INPUT_FAULTS[case]
    read = parse_samples_csv if suffix == ".csv" else loads_distribution
    with pytest.raises(HoinfoError) as caught:
        read(text)
    assert type(caught.value) is error
    if case in CSV_MODULE_FAULTS:
        assert str(caught.value) == csv_module_error(text)
    if case in JSON_MODULE_FAULTS:
        assert str(caught.value) == json_module_error(text)
    path = tmp_path / f"bad{suffix}"
    path.write_text(text)
    assert main(["measures", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"hoinfo: error: {caught.value}\n"


# ---------------------------------------------------------------------------

# A read runs with the cyclic collector paused, so it must create no
# reference cycles, and it must give the collector back as it found it.

def test_reading_distribution_json_leaves_no_reference_cycles():
    texts = [dumps_distribution(parity(10)),
             dumps_distribution(random_distribution(6, [2, 3, 2, 4, 2, 3], 9)),
             dumps_distribution(WRITER_CASES["sparse_over_cap"]())]
    gc.collect()
    read = [loads_distribution(text) for text in texts[:2]]
    read.append(loads_distribution(
        texts[2], EstimatorConfig(max_dense_states=4)))
    assert gc.collect() == 0
    assert [d.representation for d in read] == ["dense", "dense", "sparse"]


def test_reading_frees_the_document_before_the_collector_resumes():
    text = dumps_distribution(parity(12))
    gc.collect()
    young = []

    def record(phase, info):
        if phase == "start":
            young.append(len(gc.get_objects(generation=0)))

    gc.callbacks.append(record)
    try:
        loads_distribution(text)
        [[] for _ in range(10**4)]  # enough allocations to start a collection
    finally:
        gc.callbacks.remove(record)
    # with the decoded tree still alive, its 4,000-odd entries are young
    assert young and young[0] < 100


READ_OUTCOMES = {
    "success": ('{"cardinalities": [2], "entries": [{"state": [0], "p": 1}]}',
                None),
    "truncated_document": (INPUT_FAULTS["json_truncated_document"][1],
                           MalformedInputError),
    "nested_too_deep": (INPUT_FAULTS["json_nested_too_deep"][1],
                        MalformedInputError),
    "not_normalized": (
        '{"cardinalities": [2], "entries": [{"state": [0], "p": 0.5}]}',
        NotNormalizedError),
    "state_out_of_range": (
        '{"cardinalities": [2], "entries": [{"state": [2], "p": 1.0}]}',
        StateOutOfRangeError),
}


def read_outcome(text):
    """The type of the error ``loads_distribution(text)`` raises, or None."""
    try:
        loads_distribution(text)
    except HoinfoError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("case", sorted(READ_OUTCOMES))
def test_read_restores_the_collector_state(case):
    text, error = READ_OUTCOMES[case]
    assert gc.isenabled()
    assert read_outcome(text) is error
    assert gc.isenabled()
    gc.disable()
    try:
        assert read_outcome(text) is error
        assert not gc.isenabled()
    finally:
        gc.enable()
