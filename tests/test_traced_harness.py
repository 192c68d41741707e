"""The traced benchmark harness wraps names that exist.

``perfbench/traced.py`` rebinds each (module, name) pair of its ``WRAPPED``
table before it runs the CLI; a name that a refactor renamed or deleted,
or a call that stopped going through its binding, would break every
traced benchmark run. The harness is imported from its file, or run as a
script, and only read.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = ROOT / "perfbench" / "traced.py"
SRC = ROOT / "src"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    wrapped = load_traced().WRAPPED
    assert wrapped
    for module_name, names in wrapped.items():
        module = importlib.import_module(module_name)
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert missing == [], f"{module_name} lacks {missing}"


def test_csv_read_is_a_span_of_its_own(tmp_path):
    # the benchmark books the CSV read to the parse layer by this span name
    samples = tmp_path / "samples.csv"
    samples.write_text("x,y\n0,1\n1,0\n1,1\n")
    spans_out = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(TRACED), str(spans_out), "--",
         "measures", "--input", str(samples)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    names = [span[1] for span in json.loads(spans_out.read_text())["spans"]]
    assert "cli.parse_samples_csv" in names
