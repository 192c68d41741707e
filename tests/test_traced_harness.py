"""The traced benchmark harness wraps names that exist.

``perfbench/traced.py`` rebinds each (module, name) pair of its ``WRAPPED``
table before it runs the CLI; a name that a refactor renamed or deleted
would break every traced benchmark run. The harness is imported from its
file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


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
