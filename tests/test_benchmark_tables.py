"""The benchmark's random tables are the package's, bit for bit.

``perfbench/reference.py`` builds the expected tables of the
``dense_spectrum`` workload by its own copy of ``random_distribution``'s
scheme, one that still takes a deficit back quantum by quantum. It
agrees with the package only while no workload table has a deficit,
which this checks for the seeds the benchmark runs at. The benchmark
files are imported from their paths and only read.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import support
from hoinfo import random_distribution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str, monkeypatch):
    """The module ``perfbench/<name>.py``, in ``sys.modules`` under its bare
    name for the test's duration, as the benchmark imports it."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_spectrum_tables_match_the_package_without_a_deficit(
        tmp_path, monkeypatch, seed):
    reference = load("reference", monkeypatch)
    workload = load("workloads", monkeypatch).DenseSpectrum(tmp_path, seed)
    tables = [((2,) * workload.N_BINARY, workload.seed_binary)]
    tables += [((a,) * n, s)
               for (n, a), s in zip(workload.MIXED, workload.seeds_mixed)]
    for cards, table_seed in tables:
        scaled, target = support.random_scaled_weights(
            math.prod(cards), table_seed, 1.0)
        assert support.quanta_residual(scaled, target) >= 0, (cards, table_seed)
        want = reference.random_table(cards, table_seed)
        got = random_distribution(len(cards), cards, table_seed).dense_table()
        assert got.tobytes() == want.tobytes(), (cards, table_seed)
