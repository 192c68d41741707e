import io
import json
import math
import subprocess
import sys

import pytest

from hoinfo import giant_bit, measure_report, parity
from hoinfo.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    monkeypatch.setattr(sys, "stdin", io.StringIO(emitted))
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
    import hoinfo.measures

    calls = []
    real_entropy = hoinfo.measures.entropy

    def counting_entropy(dist):
        calls.append(dist.n_vars)
        return real_entropy(dist)

    monkeypatch.setattr(hoinfo.measures, "entropy", counting_entropy)
    code, out, _ = run_cli(
        capsys,
        ["spectrum", "--gen", "random", "--n-vars", "4", "--seed", "5"])
    assert code == 0
    assert json.loads(out)["n_vars"] == 4
    # H(X), the four H(X_i) and the four H(X^-i): 2N + 1 entropies
    assert len(calls) == 9
    assert sorted(calls) == [1, 1, 1, 1, 3, 3, 3, 3, 4]


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
    monkeypatch.setattr(sys, "stdin", io.StringIO(emitted))
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
    code, out, _ = run_cli(capsys, ["gen", "--kind", spelling, "--order",
                                    "2", "--n-vars", "2", "--seed", "1"])
    assert code == 0
    assert out.startswith(f"gen:{kind}(")


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
