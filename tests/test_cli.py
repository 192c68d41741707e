import csv
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hoinfo.cli
import support
from hoinfo import giant_bit, measure_report, parity
from hoinfo.cli import main
from hoinfo.generators import GENERATOR_KIND_ALIASES


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def utf8_stdin(text):
    """A stdin whose bytes are ``text`` encoded as UTF-8, as a pipe gives it."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def test_measures_on_parity_gadget(capsys):
    code, out, _ = run_cli(
        capsys, ["measures", "--gen", "parity", "--order", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["n_vars"] == 3
    assert report["cardinalities"] == [2, 2, 2]
    assert report["measures"]["total_correlation"] == 1.0
    assert report["measures"]["dual_total_correlation"] == 2.0
    assert report["measures"]["s_information"] == 3.0
    assert report["measures"]["o_information"] == -1.0


def test_measures_on_giant_bit(capsys):
    code, out, _ = run_cli(
        capsys, ["measures", "--gen", "giant-bit", "--order", "3"])
    assert code == 0
    report = json.loads(out)
    assert report["measures"]["total_correlation"] == 2.0
    assert report["measures"]["dual_total_correlation"] == 1.0
    assert report["measures"]["s_information"] == 3.0


def test_measures_rejects_unnormalized_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "cardinalities": [2],
        "entries": [{"state": [0], "p": 0.4}, {"state": [1], "p": 0.5}],
    }))
    code, _, err = run_cli(capsys, ["measures", "--input", str(bad)])
    assert code == 1
    assert "tolerance" in err or "sum" in err


def test_measures_normalize_flag_recovers(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "cardinalities": [2, 2],
        "entries": [{"state": [0, 0], "p": 0.4}, {"state": [1, 1], "p": 0.4}],
    }))
    code, out, _ = run_cli(
        capsys, ["measures", "--input", str(bad), "--normalize"])
    assert code == 0
    assert json.loads(out)["measures"]["joint_entropy"] == 1.0
    assert json.loads(out)["measures"]["total_correlation"] == 1.0


def test_spectrum_of_parity_four(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--gen", "parity", "--order", "4"])
    assert code == 0
    spectrum = json.loads(out)["spectrum"]
    assert spectrum["delta"] == [4.0, 3.0, 2.0, 1.0, 0.0]
    assert spectrum["synergy_order"] == 4
    assert spectrum["delta_crossing"] == 4.0


def test_spectrum_of_giant_bit_two(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--gen", "giant-bit", "--order", "2"])
    assert code == 0
    spectrum = json.loads(out)["spectrum"]
    assert spectrum["gamma"] == [2.0, 1.0, 0.0]
    assert spectrum["redundancy_order"] == 2


def test_spectrum_of_independent_file(tmp_path, capsys):
    independent = tmp_path / "independent.json"
    independent.write_text(json.dumps({
        "cardinalities": [2, 2],
        "entries": [{"state": [a, b], "p": 0.25}
                    for a in (0, 1) for b in (0, 1)],
    }))
    code, out, _ = run_cli(
        capsys, ["spectrum", "--input", str(independent)])
    assert code == 0
    spectrum = json.loads(out)["spectrum"]
    assert spectrum["delta"] == [0.0, 0.0, 0.0]
    assert spectrum["synergy_order"] is None
    assert spectrum["redundancy_order"] is None
    assert spectrum["delta_crossing"] is None


def test_single_variable_input_exits_2(tmp_path, capsys):
    single = tmp_path / "single.json"
    single.write_text(json.dumps({
        "cardinalities": [2],
        "entries": [{"state": [0], "p": 0.5}, {"state": [1], "p": 0.5}],
    }))
    code, _, err = run_cli(capsys, ["measures", "--input", str(single)])
    assert code == 2
    assert "2 variables" in err


def test_gen_emits_distribution_json(capsys):
    code, out, _ = run_cli(
        capsys, ["gen", "--kind", "parity", "--order", "3", "--emit"])
    assert code == 0
    obj = json.loads(out)
    assert obj["cardinalities"] == [2, 2, 2]
    assert len(obj["entries"]) == 4
    assert all(e["p"] == 0.25 for e in obj["entries"])


def test_gen_giant_bit_alphabet_three(capsys):
    code, out, _ = run_cli(
        capsys,
        ["gen", "--kind", "giant-bit", "--order", "2", "--alphabet", "3",
         "--emit"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["entries"]) == 3
    assert all(e["p"] == 1.0 / 3.0 for e in obj["entries"])


def test_gen_summary_without_emit(capsys):
    code, out, _ = run_cli(capsys, ["gen", "--kind", "parity", "--order", "3"])
    assert code == 0
    assert "gen:parity" in out
    assert "support=4/8" in out


def test_gen_invalid_order_exits_1(capsys):
    code, _, err = run_cli(
        capsys, ["gen", "--kind", "parity", "--order", "1", "--emit"])
    assert code == 1
    assert "order" in err


def test_gen_measures_round_trip_is_bit_exact(tmp_path, capsys, monkeypatch):
    code, emitted, _ = run_cli(
        capsys,
        ["gen", "--kind", "random", "--n-vars", "3", "--alphabet", "3",
         "--seed", "77", "--emit"])
    assert code == 0

    expected = measure_report(
        __import__("hoinfo").random_distribution(3, 3, seed=77)
    )

    # through a file
    path = tmp_path / "dist.json"
    path.write_text(emitted)
    code, out, _ = run_cli(capsys, ["measures", "--input", str(path)])
    assert code == 0
    via_file = json.loads(out)["measures"]

    # through stdin, as in a shell pipeline
    monkeypatch.setattr(sys, "stdin", utf8_stdin(emitted))
    code, out, _ = run_cli(capsys, ["measures", "--input", "-"])
    assert code == 0
    via_stdin = json.loads(out)["measures"]

    for report in (via_file, via_stdin):
        assert report["joint_entropy"] == expected.joint_entropy
        assert report["total_correlation"] == expected.total_correlation
        assert report["dual_total_correlation"] == expected.dual_total_correlation
        assert report["s_information"] == expected.s_information
        assert report["o_information"] == expected.o_information


def test_samples_csv_ingestion_reports_mapping(tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    rows = ["x,y,z"] + ["0,0,0", "0,1,1", "1,0,1", "1,1,0"] * 25
    csv_path.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, ["measures", "--input", str(csv_path)])
    assert code == 0
    report = json.loads(out)
    assert report["alphabet_mapping"] == {"x": [0, 1], "y": [0, 1], "z": [0, 1]}
    assert report["measures"]["total_correlation"] == 1.0
    assert report["measures"]["dual_total_correlation"] == 2.0


def test_quoted_csv_cell_keeps_its_carriage_return(tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_bytes(b'x,y\r\n"a\r\nb",0\r\nc,1\r\n')
    code, out, _ = run_cli(capsys, ["measures", "--input", str(csv_path)])
    assert code == 0
    assert json.loads(out)["alphabet_mapping"] == {"x": ["a\r\nb", "c"],
                                                   "y": [0, 1]}


def test_unparseable_csv_exits_1_and_fails_its_batch_item(tmp_path, capsys):
    # one cell past the csv module's 131072-character field limit
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n" + "1" * 131073 + ",0\n")
    code, out, err = run_cli(capsys, ["measures", "--input", str(bad)])
    assert code == 1
    assert out == ""
    assert err.startswith("hoinfo: error: ") and err.count("\n") == 1
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"input": str(bad)}]))
    code, out, _ = run_cli(capsys, ["batch", str(manifest)])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "MalformedInputError"


def test_input_that_is_not_utf8_exits_1_and_fails_its_batch_item(
        tmp_path, capsys, monkeypatch):
    # a UTF-16 file with its byte order mark, and a truncated JSON document
    utf16 = b"\xff\xfe" + '{"cardinalities": [2]}'.encode("utf-16-le")
    bad = tmp_path / "utf16.json"
    bad.write_bytes(utf16)
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"cardinalities": [2], "entries": [{"sta')
    code, out, err = run_cli(capsys, ["measures", "--input", str(bad)])
    assert (code, out) == (1, "")
    assert err.startswith(f"hoinfo: error: {bad} cannot be decoded: ")
    assert err.count("\n") == 1
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(utf16),
                                                       encoding="utf-8"))
    code, out, err = run_cli(capsys, ["measures", "--input", "-"])
    assert (code, out) == (1, "")
    assert err.startswith("hoinfo: error: stdin cannot be decoded: ")
    errors = batch_errors(tmp_path, capsys,
                          [{"input": str(bad)}, {"input": str(truncated)}])
    assert [error["type"] for error in errors] == ["MalformedInputError"] * 2
    assert errors[1]["message"].startswith(
        "distribution JSON cannot be parsed: ")


@pytest.mark.parametrize("content,fault", [
    (b"[" * 100000, "cannot be parsed: maximum recursion depth exceeded"),
    # a UTF-16 manifest with its byte order mark
    (b"\xff\xfe" + "[]".encode("utf-16-le"), "cannot be decoded: "),
])
def test_manifest_that_cannot_be_read_exits_1_naming_it(tmp_path, capsys,
                                                        content, fault):
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(content)
    code, out, err = run_cli(capsys, ["batch", str(manifest)])
    assert (code, out) == (1, "")
    assert err.startswith(f"hoinfo: error: manifest {manifest} {fault}")
    assert err.count("\n") == 1


def test_csv_with_a_repeated_column_name_exits_1(tmp_path, capsys):
    bad = tmp_path / "repeated.csv"
    bad.write_text("x,y,x,z,y\n0,1,0,1,0\n")
    code, out, err = run_cli(capsys, ["measures", "--input", str(bad)])
    assert code == 1
    assert out == ""
    assert err == (
        "hoinfo: error: samples CSV repeats the column names ['x', 'y']\n")


def test_csv_output_round_trips_floats(capsys):
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--gen", "random", "--n-vars", "3", "--seed", "5",
         "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "field,value"
    values = dict(line.split(",", 1) for line in lines[1:])
    from hoinfo import random_distribution, total_correlation
    expected = total_correlation(random_distribution(3, 2, seed=5))
    assert float(values["total_correlation"]) == expected
    assert float(values["delta_0"]) == float(values["gamma_0"])


def test_report_round_trips_through_its_serialization(capsys):
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--gen", "random", "--n-vars", "4", "--seed", "13"])
    assert code == 0
    parsed = json.loads(out)
    assert json.loads(json.dumps(parsed)) == parsed
    # every numeric field is finite
    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            assert node == node and abs(node) != float("inf")
    walk(parsed)


def test_batch_runs_manifest_in_order(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"gen": {"kind": "parity", "order": 3}},
        {"gen": {"kind": "giant_bit", "order": 3}, "spectrum": True},
        {"gen": {"kind": "random_dirichlet_like", "n_vars": 2, "seed": 9}},
    ]))
    code, out, _ = run_cli(capsys, ["batch", str(manifest)])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    first, second, third = (json.loads(line) for line in lines)
    assert first["input_descriptor"].startswith("gen:parity")
    assert "spectrum" not in first
    assert second["spectrum"]["redundancy_order"] == 3
    assert third["input_descriptor"].startswith("gen:random_dirichlet_like")


def test_batch_reports_item_failures_inline(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"gen": {"kind": "parity", "order": 3}},
        {"input": str(missing)},
        {"gen": {"kind": "giant_bit", "order": 2}},
    ]))
    code, out, _ = run_cli(capsys, ["batch", str(manifest)])
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3
    error_record = json.loads(lines[1])
    assert error_record["item"] == 1
    assert "error" in error_record


def test_batch_output_is_independent_of_jobs(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"gen": {"kind": "random_dirichlet_like", "n_vars": 3, "seed": s},
         "spectrum": True}
        for s in range(8)
    ]))
    outputs = []
    for jobs in ("1", "8"):
        code, out, _ = run_cli(
            capsys, ["batch", str(manifest), "--jobs", jobs, "--spectrum"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def run_cli_process(argv, cwd, stdin=b"", prelude="", env=None):
    """Run the CLI in a child interpreter with the bytes ``stdin`` piped to
    it and the variables ``env`` added to its environment; the ``prelude``
    runs in that interpreter before ``main``."""
    src = str(Path(hoinfo.__file__).resolve().parents[1])
    code = f"{prelude}\nimport sys\nfrom hoinfo.cli import main\nsys.exit(main({argv!r}))"
    return subprocess.run(
        [sys.executable, "-c", code], input=stdin, cwd=cwd,
        capture_output=True, env={**os.environ, "PYTHONPATH": src, **(env or {})},
        timeout=120)


@pytest.mark.parametrize("env", [{}, {"LC_ALL": "C"}], ids=["default", "LC_ALL=C"])
def test_stdin_that_is_not_utf8_exits_1_whatever_the_locale(tmp_path, env):
    # Python's UTF-8 mode would decode these bytes with surrogateescape
    latin1 = b"x,y\n\xe9,1\n\xe8,0\n"
    run = run_cli_process(["measures", "--input", "-"], tmp_path, latin1,
                          env=env)
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr.startswith(b"hoinfo: error: stdin cannot be decoded: ")
    (tmp_path / "manifest.json").write_text(json.dumps([{"input": "-"}]))
    run = run_cli_process(["batch", "manifest.json"], tmp_path, latin1, env=env)
    assert run.returncode == 1
    [line] = run.stdout.splitlines()
    assert json.loads(line)["error"]["type"] == "MalformedInputError"


def test_batch_stdin_items_are_independent_of_jobs(tmp_path):
    # the first item never reads stdin; the second reads all of it and the
    # last finds it empty, as when the items read it one after another
    (tmp_path / "manifest.json").write_text(json.dumps([
        {"input": "-", "spectrum": "yes"},
        {"input": "-", "format": "samples-csv"},
        {"gen": PARITY3},
        {"input": "-", "format": "samples-csv"},
    ]))
    stdin = b'x,y\n"a\r\nb",0\nc,1\n'
    runs = [run_cli_process(["batch", "manifest.json", "--jobs", jobs],
                            tmp_path, stdin) for jobs in ("1", "2")]
    assert [run.returncode for run in runs] == [1, 1]
    assert runs[0].stdout == runs[1].stdout
    wrong, read, generated, empty = map(json.loads, runs[0].stdout.splitlines())
    assert wrong["error"]["type"] == "MalformedInputError"
    assert read["input_descriptor"] == "stdin"
    assert read["alphabet_mapping"]["x"] == ["a\r\nb", "c"]
    assert "error" not in generated
    assert empty["error"] == {"type": "EmptyInputError",
                              "message": "samples CSV is empty"}


def test_batch_errors_are_independent_of_jobs(tmp_path, capsys, monkeypatch):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"gen": PARITY3},
        {"input": str(tmp_path / "missing.json")},
        5,
        {"gen": PARITY3, "spectrum": 1},
        {"gen": {"kind": "giant_bit", "order": 2}, "spectrum": True},
    ]))
    runs = []
    for jobs in ("1", "2"):
        runs.append(run_cli(capsys, ["batch", str(manifest), "--jobs", jobs]))
        assert multiprocessing.active_children() == []
    # where fork is not available, the items run in process
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    runs.append(run_cli(capsys, ["batch", str(manifest), "--jobs", "2"]))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][0] == 1
    errors = [json.loads(line).get("error") for line in runs[0][1].splitlines()]
    assert [error and error["type"] for error in errors] == [
        None, "FileNotFoundError", "MalformedInputError",
        "MalformedInputError", None]


def two_cpus(monkeypatch):
    """Let a batch start two workers, both placed on the first allowed
    CPU, so that they can run on a machine with one."""
    first = hoinfo.cli._allowed_cpus()[0]
    monkeypatch.setattr(hoinfo.cli, "_allowed_cpus", lambda: [first, first])


def test_batch_naming_stdin_runs_in_process(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("a batch worker process was started")

    monkeypatch.setattr(hoinfo.cli, "_fork_batch_lines", fail)
    two_cpus(monkeypatch)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"gen": PARITY3}, {"gen": PARITY3}]))
    with pytest.raises(AssertionError, match="worker"):
        main(["batch", str(manifest), "--jobs", "2"])
    # the items read stdin in manifest order: the first reader takes it all
    manifest.write_text(json.dumps([
        {"gen": PARITY3},
        {"input": "-", "format": "samples-csv"},
        {"gen": PARITY3},
        {"input": "-", "format": "samples-csv"},
    ]))
    runs = []
    for jobs in ("1", "2"):
        monkeypatch.setattr(sys, "stdin", utf8_stdin("x,y\n0,1\n1,0\n"))
        runs.append(run_cli(capsys, ["batch", str(manifest), "--jobs", jobs]))
    assert runs[0] == runs[1]
    assert runs[0][0] == 1
    lines = [json.loads(line) for line in runs[0][1].splitlines()]
    assert lines[1]["input_descriptor"] == "stdin"
    assert lines[1]["measures"]["total_correlation"] == 1.0
    assert lines[3]["error"]["type"] == "EmptyInputError"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_batch_jobs_below_one_exits_1(tmp_path, capsys, jobs):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"gen": {"kind": "parity", "order": 3}}]))
    code, out, err = run_cli(capsys, ["batch", str(manifest), "--jobs", jobs])
    assert (code, out) == (1, "")
    assert err == f"hoinfo: error: --jobs must be an integer >= 1, got {jobs}\n"


@pytest.mark.parametrize("jobs,items,cpus,workers", [
    (1, 48, 2, 1), (2, 48, 2, 2), (8, 48, 2, 2), (10000, 48, 64, 48),
    (10000, 3, 64, 3), (4, 48, 64, 4), (0, 48, 2, 1), (-3, 48, 2, 1),
    (2, 0, 2, 1),
])
def test_batch_worker_count_is_capped(jobs, items, cpus, workers):
    assert hoinfo.cli._worker_count(jobs, items, cpus) == workers


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform cannot restrict a process's CPUs")
def test_batch_with_one_allowed_cpu_runs_in_process(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps(
        [{"gen": PARITY3}, {"gen": PARITY3, "spectrum": True}]))
    prelude = (
        "import os, hoinfo.cli\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "def fail(*args):\n"
        "    raise AssertionError('a batch worker process was started')\n"
        "hoinfo.cli._fork_batch_lines = fail")
    runs = [run_cli_process(["batch", "manifest.json", "--jobs", jobs],
                            tmp_path, prelude=prelude) for jobs in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.count(b"\n") == 2


def test_text_written_before_batch_appears_once(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps([{"gen": PARITY3}, {"gen": PARITY3}]))
    run = run_cli_process(["batch", "manifest.json", "--jobs", "2"], tmp_path,
                          prelude="print('before')")
    assert run.returncode == 0
    assert run.stdout.decode().split("\n")[0] == "before"
    assert run.stdout.count(b"before") == 1
    assert run.stdout.count(b"\n") == 3


def test_dead_batch_worker_exits_1_without_traceback(tmp_path, capsys,
                                                     monkeypatch):
    parent = os.getpid()

    def die(*args):
        if os.getpid() != parent:
            os._exit(3)
        raise AssertionError("the item ran in the parent process")

    monkeypatch.setattr(hoinfo.cli, "_batch_item_report", die)
    two_cpus(monkeypatch)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"gen": PARITY3}, {"gen": PARITY3}]))
    code, out, err = run_cli(capsys, ["batch", str(manifest), "--jobs", "2"])
    assert (code, out) == (1, "")
    assert err.startswith("hoinfo: error: a batch worker process ended ")
    assert err.count("\n") == 1
    assert multiprocessing.active_children() == []


def test_base_flag_changes_units(capsys):
    # parity(3) has H = 2 bits = 1.0 in base-4 units
    code, out, _ = run_cli(
        capsys,
        ["measures", "--gen", "parity", "--order", "3", "--base", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["log_base"] == 4.0
    assert report["measures"]["joint_entropy"] == 1.0
    assert report["measures"]["dual_total_correlation"] == 1.0


def test_missing_input_arguments_exit_1(capsys):
    code, _, err = run_cli(capsys, ["measures"])
    assert code == 1
    assert "input" in err


def test_conflicting_input_arguments_exit_1(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        ["measures", "--input", "x.json", "--gen", "parity", "--order", "3"])
    assert code == 1
    assert "not both" in err


def test_console_entry_point_matches_in_process(capsys):
    code, in_process, _ = run_cli(
        capsys, ["measures", "--gen", "parity", "--order", "3"])
    assert code == 0
    result = subprocess.run(
        [sys.executable, "-m", "hoinfo.cli", "measures", "--gen", "parity",
         "--order", "3"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout == in_process


def test_measures_rejects_nan_mass_file(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(
        '{"cardinalities": [2, 2], "entries": ['
        '{"state": [0, 0], "p": NaN}, {"state": [1, 1], "p": 1.0}]}'
    )
    code, out, err = run_cli(capsys, ["measures", "--input", str(bad)])
    assert code == 1
    assert out == ""
    assert "non-finite" in err


# Distribution JSON that used to crash with a TypeError traceback or be
# coerced into plausible numbers; each must be a one-line error, exit 1.
MALFORMED_JSON = {
    "entry_not_an_object": '{"cardinalities": [2], "entries": [5]}',
    "state_not_a_list": (
        '{"cardinalities": [2, 2], "entries": [{"state": 5, "p": 1.0}]}'),
    "null_mass": (
        '{"cardinalities": [2], "entries": [{"state": [0], "p": null}]}'),
    "scalar_cardinalities": (
        '{"cardinalities": 2, "entries": [{"state": [0], "p": 1.0}]}'),
    "float_coordinate": (
        '{"cardinalities": [2, 2], "entries": [{"state": [0, 0.5], "p": 1.0}]}'),
    "bool_coordinate": (
        '{"cardinalities": [2, 2], "entries": [{"state": [0, true], "p": 1.0}]}'),
    "string_coordinates": (
        '{"cardinalities": [2, 2], '
        '"entries": [{"state": ["1", "0"], "p": 1.0}]}'),
    "string_mass": (
        '{"cardinalities": [2], "entries": [{"state": [0], "p": "1.0"}]}'),
    "float_cardinality": (
        '{"cardinalities": [2.7, 2], '
        '"entries": [{"state": [0, 0], "p": 1.0}]}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
def test_malformed_distribution_json_exits_1(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(MALFORMED_JSON[case])
    code, out, err = run_cli(capsys, ["measures", "--input", str(bad)])
    assert code == 1
    assert out == ""
    assert err.startswith("hoinfo: error: ") and err.count("\n") == 1


def test_normalize_rejects_infinite_mass_file(tmp_path, capsys):
    bad = tmp_path / "inf.json"
    bad.write_text(
        '{"cardinalities": [2, 2], "entries": ['
        '{"state": [0, 0], "p": Infinity}, {"state": [1, 1], "p": 0.5}]}'
    )
    code, out, err = run_cli(
        capsys, ["measures", "--input", str(bad), "--normalize"])
    assert code == 1
    assert out == ""
    assert "non-finite" in err


def test_point_mass_report_has_no_negative_zero(capsys):
    code, out, _ = run_cli(
        capsys, ["spectrum", "--gen", "point-mass", "--n-vars", "3"])
    assert code == 0
    assert "-0.0" not in out
    report = json.loads(out)
    values = list(report["measures"].values())
    values += report["spectrum"]["delta"] + report["spectrum"]["gamma"]
    assert len(values) == 5 + 2 * 4
    for value in values:
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0


def test_spectrum_builds_the_entropy_profile_once(capsys, monkeypatch):
    calls = support.count_profile_kernels(monkeypatch)
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--gen", "random", "--n-vars", "4", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["n_vars"] == 4
    # H(X), then the four H(X_i) and the four H(X^-i) from one call each,
    # though the report reads both the measures and the spectrum
    assert calls == [(name, 4) for name in support.PROFILE_KERNELS]


def test_batch_rejects_unknown_item_format(tmp_path, capsys):
    dist_path = tmp_path / "dist.json"
    code, emitted, _ = run_cli(
        capsys, ["gen", "--kind", "parity", "--order", "3", "--emit"])
    assert code == 0
    dist_path.write_text(emitted)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"input": str(dist_path), "format": "xml"},
        {"input": str(dist_path)},
    ]))
    code, out, _ = run_cli(capsys, ["batch", str(manifest)])
    assert code == 1
    error_record, report = (json.loads(line) for line in out.splitlines())
    assert error_record["item"] == 0
    assert error_record["error"]["type"] == "InvalidOrderError"
    assert "xml" in error_record["error"]["message"]
    assert report["measures"]["s_information"] == 3.0


def test_batch_describes_stdin_input_as_stdin(tmp_path, capsys, monkeypatch):
    code, emitted, _ = run_cli(
        capsys, ["gen", "--kind", "giant-bit", "--order", "2", "--emit"])
    assert code == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"input": "-"}]))
    monkeypatch.setattr(sys, "stdin", utf8_stdin(emitted))
    code, out, _ = run_cli(capsys, ["batch", str(manifest)])
    assert code == 0
    report = json.loads(out)
    assert report["input_descriptor"] == "stdin"
    assert report["measures"]["total_correlation"] == 1.0


@pytest.mark.parametrize("spelling,kind", [
    ("giant-bit", "giant_bit"),
    ("giant_bit", "giant_bit"),
    ("parity", "parity"),
    ("point-mass", "point_mass"),
    ("point_mass", "point_mass"),
    ("random", "random_dirichlet_like"),
    ("random-dirichlet-like", "random_dirichlet_like"),
    ("random_dirichlet_like", "random_dirichlet_like"),
])
def test_gen_kind_spellings(capsys, spelling, kind):
    code, out, _ = run_cli(
        capsys, ["gen", "--kind", spelling, *cli_flags(CLI_SPECS[spelling])])
    assert code == 0
    assert out.startswith(f"gen:{kind}(")


@pytest.mark.parametrize("argv,name", [
    (["gen", "--kind", "point-mass", "--n-vars", "0"], "n_vars"),
    (["spectrum", "--gen", "point-mass", "--n-vars", "0"], "n_vars"),
    (["gen", "--kind", "random", "--n-vars", "2", "--seed", "-1"], "seed"),
    (["measures", "--gen", "random", "--n-vars", "2", "--seed", "-1"], "seed"),
])
def test_invalid_generator_value_exits_1(capsys, argv, name):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("hoinfo: error: ") and name in err


def test_gen_unknown_kind_lists_spellings(capsys):
    code, out, err = run_cli(
        capsys, ["gen", "--kind", "independent-product", "--order", "2"])
    assert code == 1
    assert out == ""
    assert err == (
        "hoinfo: error: unknown generator kind 'independent-product'; "
        "expected one of ['giant-bit', 'giant_bit', 'parity', 'point-mass', "
        "'point_mass', 'random', 'random-dirichlet-like', "
        "'random_dirichlet_like']\n"
    )


@pytest.mark.parametrize("flag,value", [
    ("--base", "inf"), ("--base", "nan"),
    ("--tolerance", "inf"), ("--tolerance", "nan"),
])
@pytest.mark.parametrize("command", ["measures", "spectrum"])
def test_non_finite_config_flags_exit_1(capsys, command, flag, value):
    code, out, err = run_cli(
        capsys, [command, "--gen", "parity", "--order", "3", flag, value])
    assert code == 1
    assert out == ""
    assert err.startswith("hoinfo: error: ") and "finite" in err


# Each CLI spelling with flags that make a valid system of that kind.
CLI_SPECS = {
    "giant-bit": {"order": 3, "alphabet": 3},
    "giant_bit": {"order": 2},
    "parity": {"order": 4},
    "point-mass": {"n_vars": 3},
    "point_mass": {"n_vars": 2, "alphabet": 3},
    "random": {"n_vars": 3, "seed": 5},
    "random-dirichlet-like": {"n_vars": 2, "alphabet": 3, "seed": 1,
                              "concentration": 0.5},
    "random_dirichlet_like": {"n_vars": 4, "seed": 9, "concentration": 3.0},
}


def cli_flags(values: dict) -> list[str]:
    """The generator flags that set ``values``."""
    return [arg for key, value in values.items()
            for arg in (f"--{key.replace('_', '-')}", str(value))]


@pytest.mark.parametrize("spelling", sorted(CLI_SPECS))
def test_flags_and_manifest_give_equal_reports(tmp_path, capsys, spelling):
    values = CLI_SPECS[spelling]
    code, out, _ = run_cli(
        capsys, ["spectrum", "--gen", spelling, *cli_flags(values)])
    assert code == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(
        [{"gen": {"kind": spelling, **values}, "spectrum": True}]))
    code, line, _ = run_cli(capsys, ["batch", str(manifest)])
    assert code == 0
    assert json.loads(line) == json.loads(out)


PARITY3 = {"kind": "parity", "order": 3}


def batch_errors(tmp_path, capsys, items):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(items))
    code, out, _ = run_cli(capsys, ["batch", str(manifest)])
    assert code == 1
    return [json.loads(line).get("error") for line in out.splitlines()]


@pytest.mark.parametrize("spelling,key,value", [
    ("parity", "n_vars", 5),
    ("random", "order", 7),
    ("giant-bit", "seed", 4),
    ("giant-bit", "concentration", 0.5),
    ("point-mass", "order", 2),
    ("point_mass", "seed", 1),
    ("random_dirichlet_like", "order", 2),
])
def test_generator_value_the_kind_does_not_read_is_an_error(
        tmp_path, capsys, spelling, key, value):
    kind = GENERATOR_KIND_ALIASES[spelling]
    values = {**CLI_SPECS[spelling], key: value}
    code, out, err = run_cli(
        capsys, ["measures", "--gen", spelling, *cli_flags(values)])
    assert (code, out) == (1, "")
    assert err == (f"hoinfo: error: generator kind {kind!r} does not take "
                   f"{key!r}\n")
    [error] = batch_errors(tmp_path, capsys,
                           [{"gen": {"kind": spelling, **values}}])
    assert error == {"type": "InvalidOrderError",
                     "message": err.removeprefix("hoinfo: error: ").strip()}


def test_manifest_item_with_input_and_gen_is_an_error(tmp_path, capsys):
    code, emitted, _ = run_cli(
        capsys, ["gen", "--kind", "parity", "--order", "3", "--emit"])
    dist_path = tmp_path / "dist.json"
    dist_path.write_text(emitted)
    errors = batch_errors(tmp_path, capsys, [
        {"input": str(dist_path), "gen": {"kind": "giant_bit", "order": 2}},
        {},
        {"input": str(dist_path)},
    ])
    for error in errors[:2]:
        assert error["type"] == "InvalidOrderError"
        assert "not both" in error["message"]
    assert errors[2] is None


@pytest.mark.parametrize("gen", [
    {"kind": "parity", "order": 3.9},
    {"kind": "parity", "order": "3"},
    {"kind": "parity", "order": 3, "alphabet": True},
    {"kind": "random", "n_vars": 2, "seed": 2.5},
    {"kind": "random", "n_vars": 2, "seed": 1, "concentration": "2"},
    5,
    {"kind": "independent_product", "components": [{"kind": "parity",
                                                    "order": 3}, 5]},
])
def test_manifest_spec_of_wrong_type_is_an_error(tmp_path, capsys, gen):
    [error] = batch_errors(tmp_path, capsys, [{"gen": gen}])
    assert error["type"] == "MalformedInputError"


@pytest.mark.parametrize("item", [5, [1], "input", None])
def test_manifest_item_that_is_not_an_object_is_an_error(tmp_path, capsys,
                                                         item):
    errors = batch_errors(tmp_path, capsys, [item, {"gen": PARITY3}])
    assert errors[0]["type"] == "MalformedInputError"
    assert "JSON object" in errors[0]["message"]
    assert errors[1] is None


@pytest.mark.parametrize("key", ["spectrm", "fromat", "jobs"])
def test_manifest_item_with_unknown_key_is_an_error(tmp_path, capsys, key):
    errors = batch_errors(tmp_path, capsys, [
        {"gen": PARITY3, key: True}, {"gen": PARITY3}])
    assert errors[0]["type"] == "MalformedInputError"
    assert repr(key) in errors[0]["message"]
    assert errors[1] is None


@pytest.mark.parametrize("key,value", [
    ("input", True),  # once opened file descriptor 1 and closed stdout
    ("input", 0),  # once read stdin
    ("input", None),
    ("format", 1),
    ("spectrum", "no"),  # once coerced to True
    ("spectrum", 0),
    ("normalize", "yes"),
    ("normalize", None),
])
def test_manifest_value_of_wrong_type_is_an_error(tmp_path, capsys, key,
                                                  value):
    item = {key: value} if key == "input" else {"gen": PARITY3, key: value}
    errors = batch_errors(tmp_path, capsys, [item, {"gen": PARITY3}])
    assert errors[0]["type"] == "MalformedInputError"
    assert repr(key) in errors[0]["message"]
    assert errors[1] is None


def test_measures_and_spectrum_do_not_go_through_batch(capsys, monkeypatch):
    import hoinfo.cli

    def fail(*args):
        raise AssertionError("_batch_item_report called")

    monkeypatch.setattr(hoinfo.cli, "_batch_item_report", fail)
    for command in ("measures", "spectrum"):
        code, _, _ = run_cli(
            capsys, [command, "--gen", "parity", "--order", "3"])
        assert code == 0


# Report bytes of `--output csv`, as written before the CSV rows were
# derived from the JSON report, but for the quoting of a cell that holds a
# comma.
GOLDEN_CSV_MEASURES = """\
field,value
tool,hoinfo
version,0.1.0
input_descriptor,"gen:parity(order=3, alphabet=2)"
n_vars,3
cardinalities,2 2 2
log_base,2.0
normalization_tolerance,1e-09
zero_tolerance,1e-09
joint_entropy,2.0
total_correlation,1.0
dual_total_correlation,2.0
s_information,3.0
o_information,-1.0
"""

GOLDEN_CSV_SPECTRUM = """\
field,value
tool,hoinfo
version,0.1.0
input_descriptor,"gen:random_dirichlet_like(n_vars=3, alphabet=2, seed=5, \
concentration=1.0)"
n_vars,3
cardinalities,2 2 2
log_base,2.0
normalization_tolerance,1e-09
zero_tolerance,1e-09
joint_entropy,2.824926692535345
total_correlation,0.07474844093104549
dual_total_correlation,0.07413192700355786
s_information,0.1488803679346029
o_information,0.0006165139274876275
delta_0,0.1488803679346029
delta_1,0.07413192700355742
delta_2,-0.0006165139274880715
delta_3,-0.07536495485853356
gamma_0,0.1488803679346029
gamma_1,0.07474844093104505
gamma_2,0.0006165139274871834
gamma_3,-0.07351541307607068
synergy_order,2
redundancy_order,3
delta_crossing,1.991752150013981
gamma_crossing,2.0083164427582947
"""

GOLDEN_CSV_POINT_MASS = """\
field,value
tool,hoinfo
version,0.1.0
input_descriptor,"gen:point_mass(n_vars=2, alphabet=2)"
n_vars,2
cardinalities,2 2
log_base,2.0
normalization_tolerance,1e-09
zero_tolerance,1e-09
joint_entropy,0.0
total_correlation,0.0
dual_total_correlation,0.0
s_information,0.0
o_information,0.0
delta_0,0.0
delta_1,0.0
delta_2,0.0
gamma_0,0.0
gamma_1,0.0
gamma_2,0.0
synergy_order,
redundancy_order,
delta_crossing,
gamma_crossing,
"""

SAMPLES_WITH_STRING_COLUMN = (
    "color,x,y\nred,0,1\nblue,1,1\nred,1,0\ngreen,0,0\nblue,0,0\nred,1,1\n"
)

GOLDEN_CSV_SAMPLES_SPECTRUM = """\
field,value
tool,hoinfo
version,0.1.0
input_descriptor,stdin
n_vars,3
cardinalities,3 2 2
log_base,2.0
normalization_tolerance,1e-09
zero_tolerance,1e-09
joint_entropy,2.584962500721156
total_correlation,0.8741854163060889
dual_total_correlation,1.2516291673878226
s_information,2.125814583693911
o_information,-0.37744375108173367
delta_0,2.125814583693911
delta_1,1.2516291673878222
delta_2,0.3774437510817332
delta_3,-0.4967416652243557
gamma_0,2.125814583693911
gamma_1,0.8741854163060885
gamma_2,-0.3774437510817341
gamma_3,-1.6290729184695567
synergy_order,3
redundancy_order,2
delta_crossing,2.431766240938495
gamma_crossing,1.6984380350695507
"""


@pytest.mark.parametrize("argv,golden", [
    (["measures", "--gen", "parity", "--order", "3"], GOLDEN_CSV_MEASURES),
    (["spectrum", "--gen", "random", "--n-vars", "3", "--seed", "5"],
     GOLDEN_CSV_SPECTRUM),
    (["spectrum", "--gen", "point-mass", "--n-vars", "2"],
     GOLDEN_CSV_POINT_MASS),
])
def test_csv_report_bytes(capsys, argv, golden):
    code, out, _ = run_cli(capsys, [*argv, "--output", "csv"])
    assert code == 0
    assert out == golden


def test_csv_report_rows_are_two_csv_fields(tmp_path, capsys):
    # a generator descriptor and an input path may hold commas
    path = tmp_path / "parity, order 3.json"
    path.write_text(run_cli(
        capsys, ["gen", "--kind", "parity", "--order", "3", "--emit"])[1])
    for argv, descriptor in (
        (["spectrum", "--gen", "point-mass", "--n-vars", "2"],
         "gen:point_mass(n_vars=2, alphabet=2)"),
        (["measures", "--input", str(path)], str(path)),
    ):
        code, out, _ = run_cli(capsys, [*argv, "--output", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert {len(row) for row in rows} == {2}
        assert dict(rows)["input_descriptor"] == descriptor


def test_csv_report_bytes_of_samples_with_a_string_column(capsys,
                                                          monkeypatch):
    monkeypatch.setattr(sys, "stdin", utf8_stdin(SAMPLES_WITH_STRING_COLUMN))
    code, out, _ = run_cli(
        capsys, ["spectrum", "--input", "-", "--output", "csv"])
    assert code == 0
    assert out == GOLDEN_CSV_SAMPLES_SPECTRUM
    monkeypatch.setattr(sys, "stdin", utf8_stdin(SAMPLES_WITH_STRING_COLUMN))
    code, out, _ = run_cli(capsys, ["measures", "--input", "-"])
    assert json.loads(out)["alphabet_mapping"] == {
        "color": ["blue", "green", "red"], "x": [0, 1], "y": [0, 1]}
