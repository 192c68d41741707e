"""Results across the CPU targets numpy dispatches to.

A child process with ``NPY_DISABLE_CPU_FEATURES`` set runs numpy's
baseline and AVX2 loops where this process runs its AVX-512 ones. The
masses of every table must keep their bits; an entropy may move by one
unit in the last place, as ``np.log2`` rounds some values differently
(H(X_13) of the 16-variable table at concentration 0.02 does).
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

import hoinfo
from hoinfo import estimate_from_samples, giant_bit, parity, product
from hoinfo import random_distribution
from hoinfo.distribution import _entropy_profile

DISABLED = "X86_V4 AVX512_ICL AVX512_SPR"
SRC = Path(hoinfo.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


def tables():
    """The tables compared, by name."""
    for n_vars in (3, 10, 16):
        for concentration in (0.001, 0.02, 0.5, 1.0, 2.0, 1e15):
            yield (f"random({n_vars}, seed={n_vars}, {concentration})",
                   random_distribution(n_vars, 2, seed=n_vars,
                                       concentration=concentration))
    rng = np.random.default_rng(5)
    yield "samples", estimate_from_samples(rng.integers(0, 3, (4000, 6)).tolist())
    yield "gadgets", product(parity(5, 3), giant_bit(3, 2))


def results():
    """Each table's masses as a sha256 and its entropy profile as floats."""
    out = {}
    for name, dist in tables():
        profile = _entropy_profile(dist)
        out[name] = [
            hashlib.sha256(dist.dense_table().tobytes()).hexdigest(),
            [profile.joint, *profile.singles, *profile.leave_one_out],
        ]
    return out


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"),
                    reason="numpy dispatches to no X86_V4 target here")
def test_results_across_cpu_dispatch_targets():
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, test_cpu_dispatch as t; "
         "json.dump(t.results(), sys.stdout)"],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]),
             "NPY_DISABLE_CPU_FEATURES": DISABLED})
    theirs = json.loads(child.stdout)
    ours = results()
    assert theirs.keys() == ours.keys()
    for name, (masses, entropies) in ours.items():
        assert theirs[name][0] == masses, name
        for mine, other in zip(entropies, theirs[name][1], strict=True):
            assert abs(mine - other) <= math.ulp(mine), (name, mine, other)
