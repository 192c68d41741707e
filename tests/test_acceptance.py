"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line once its assertions hold (visible with
``pytest -s`` or in captured output); a failing criterion fails the test.
Tolerances are absolute, in bits, and fixed here rather than configurable.
"""

import io
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import oracle
import support
from support import (
    delta_k_via_tc,
    dual_total_correlation_via_tc,
    gamma_k_via_tc,
)
from hoinfo import (
    GeneratorSpec,
    compose_independent,
    compute_spectrum,
    delta_k,
    dual_total_correlation,
    entropy,
    gamma_k,
    giant_bit,
    leave_one_out,
    measure_report,
    o_information,
    parity,
    product,
    random_distribution,
    s_information,
    total_correlation,
)
from hoinfo.cli import main as cli_main

TOL = 1e-9


def _passed(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number}: {text}: PASS")


def test_criterion_1_dtc_reformulation_on_500_random_systems():
    start = time.perf_counter()
    suite = support.random_suite(500)
    worst = 0.0
    for d in suite:
        gap = abs(dual_total_correlation(d) - dual_total_correlation_via_tc(d))
        worst = max(worst, gap)
        assert gap < TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s"
    _passed(1, f"D == (N-1)T - sum T(loo) on 500 systems "
               f"(worst gap {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_spectrum_identities(suite500):
    for d in suite500:
        s = s_information(d)
        t = total_correlation(d)
        dd = dual_total_correlation(d)
        o = o_information(d)
        assert abs(delta_k(d, 0) - s) < TOL
        assert abs(delta_k(d, 1) - dd) < TOL
        assert abs(delta_k(d, 2) + o) < TOL
        assert abs(gamma_k(d, 0) - s) < TOL
        assert abs(gamma_k(d, 1) - t) < TOL
        assert abs(gamma_k(d, 2) - o) < TOL
    _passed(2, "delta/gamma heads equal S, D, -O and S, T, O on 500 systems")


def test_criterion_3_additivity_over_independent_products(suite500):
    pairs = list(zip(suite500[0:200:2], suite500[1:200:2]))
    assert len(pairs) >= 100
    for a, b in pairs:
        joint = product(a, b)
        for k in range(joint.n_vars + 1):
            assert abs(delta_k(joint, k) - (delta_k(a, k) + delta_k(b, k))) < TOL
            assert abs(gamma_k(joint, k) - (gamma_k(a, k) + gamma_k(b, k))) < TOL
    _passed(3, f"delta/gamma additive over {len(pairs)} independent products, "
               "every k")


def test_criterion_4_pure_synergy_zero_and_order():
    for k in (2, 3, 4):
        gadget = parity(k)
        assert abs(delta_k(gadget, k)) < TOL
        assert compute_spectrum(gadget).synergy_order == k
        pair = compose_independent(
            [GeneratorSpec(kind="parity", order=k)] * 2
        )
        assert abs(delta_k(pair, k)) < TOL
        assert compute_spectrum(pair).synergy_order == k
    _passed(4, "parity(k) and double-parity compositions: delta_k = 0, "
               "synergy order exactly k, k in {2,3,4}")


def test_criterion_5_pure_redundancy_zero_and_order():
    for k in (2, 3, 4):
        for a in (2, 3):
            g = giant_bit(k, a)
            h1 = math.log2(a)
            assert abs(gamma_k(g, k)) < TOL
            assert abs(total_correlation(g) - (k - 1) * h1) < TOL
            assert abs(dual_total_correlation(g) - h1) < TOL
            assert abs(s_information(g) - k * h1) < TOL
            assert compute_spectrum(g).redundancy_order == k
    _passed(5, "giant_bit(k, a): gamma_k = 0 with closed-form T, D, S values, "
               "redundancy order exactly k")


def test_criterion_6_sign_semantics():
    assert abs(o_information(parity(3)) - (-1.0)) < TOL
    assert abs(o_information(giant_bit(3, 2)) - 1.0) < TOL
    pairwise_only = product(giant_bit(2), giant_bit(2))
    assert abs(delta_k(pairwise_only, 2)) < TOL
    _passed(6, "O(parity(3)) = -1, O(giant_bit(3)) = +1, pairwise-only "
               "union gives delta_2 = 0")


def test_criterion_7_joint_marginal_tc_cross_checks(suite500):
    for d in suite500:
        n = d.n_vars
        t = total_correlation(d)
        marginal_sum = 0.0
        for i in range(n):
            marginal_sum += total_correlation(leave_one_out(d, i))
        assert abs(n * t - marginal_sum - s_information(d)) < TOL
        assert abs((n - 2) * t - marginal_sum + o_information(d)) < TOL
    _passed(7, "N*T - sum T(loo) = S and (N-2)*T - sum T(loo) = -O on 500 "
               "systems")


def test_criterion_8_brute_force_oracle_equivalence(suite500):
    systems = [
        support.xor_triple(),
        parity(2), parity(3), parity(4), parity(3, 3),
        giant_bit(2), giant_bit(3), giant_bit(4), giant_bit(3, 3),
        product(parity(3), giant_bit(3)),
        product(parity(3), parity(3)),
        product(giant_bit(2), giant_bit(2)),
    ] + list(suite500[:100])
    for d in systems:
        assert d.n_states <= 2**12
        pmf = oracle.pmf_of(d)
        n = d.n_vars
        assert abs(entropy(d) - oracle.entropy_bits(pmf)) < TOL
        assert abs(total_correlation(d) - oracle.total_correlation(pmf, n)) < TOL
        assert abs(
            dual_total_correlation(d) - oracle.dual_total_correlation(pmf, n)
        ) < TOL
        assert abs(s_information(d) - oracle.s_information(pmf, n)) < TOL
        assert abs(o_information(d) - oracle.o_information(pmf, n)) < TOL
        for k in range(n + 1):
            assert abs(delta_k(d, k) - oracle.delta_k(pmf, n, k)) < TOL
            assert abs(gamma_k(d, k) - oracle.gamma_k(pmf, n, k)) < TOL
            assert abs(delta_k_via_tc(d, k) - oracle.delta_k(pmf, n, k)) < TOL
            assert abs(gamma_k_via_tc(d, k) - oracle.gamma_k(pmf, n, k)) < TOL
    _passed(8, f"naive-oracle equivalence on {len(systems)} systems "
               "(gadgets, compositions, 100 random)")


def test_criterion_9_sixteen_variable_spectrum_performance():
    build_start = time.perf_counter()
    d = random_distribution(16, 2, seed=161616)
    assert d.n_states == 65536
    start = time.perf_counter()
    first = compute_spectrum(d)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"16-variable spectrum took {elapsed:.2f}s"
    second = compute_spectrum(d)
    assert first.delta == second.delta
    assert first.gamma == second.gamma
    rebuilt = compute_spectrum(random_distribution(16, 2, seed=161616))
    assert first.delta == rebuilt.delta
    assert first.gamma == rebuilt.gamma
    total = time.perf_counter() - build_start
    _passed(9, f"16-variable dense spectrum in {elapsed:.2f}s "
               f"({total:.2f}s with build), bit-identical across runs")


def test_criterion_10_cli_round_trip_and_batch_determinism(tmp_path, capsys,
                                                           monkeypatch):
    # gen | measures pipeline versus in-process computation
    code = cli_main(["gen", "--kind", "random", "--n-vars", "4",
                     "--alphabet", "2", "--seed", "4242", "--emit"])
    emitted = capsys.readouterr().out
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(emitted.encode("utf-8")), encoding="utf-8"))
    code = cli_main(["measures", "--input", "-"])
    piped = json.loads(capsys.readouterr().out)["measures"]
    assert code == 0
    expected = measure_report(random_distribution(4, 2, seed=4242))
    assert piped["joint_entropy"] == expected.joint_entropy
    assert piped["total_correlation"] == expected.total_correlation
    assert piped["dual_total_correlation"] == expected.dual_total_correlation
    assert piped["s_information"] == expected.s_information
    assert piped["o_information"] == expected.o_information

    # a real shell pipe through the module entry point
    shell = subprocess.run(
        f"{sys.executable} -m hoinfo.cli gen --kind random --n-vars 4 "
        f"--alphabet 2 --seed 4242 --emit | "
        f"{sys.executable} -m hoinfo.cli measures --input -",
        shell=True, capture_output=True, text=True, check=True,
    )
    assert json.loads(shell.stdout)["measures"] == piped

    # batch output is invariant to --jobs
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"gen": {"kind": "random_dirichlet_like", "n_vars": 3, "seed": s},
         "spectrum": True}
        for s in range(6)
    ]))
    outputs = []
    for jobs in ("1", "8"):
        code = cli_main(["batch", str(manifest), "--jobs", jobs])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    _passed(10, "gen|measures pipeline bit-exact (in-process and shell), "
                "batch invariant to --jobs")
