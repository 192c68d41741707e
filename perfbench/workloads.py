"""The benchmark's workloads: inputs made from a seed, the ops that read them.

Every op is one ``hoinfo`` CLI invocation. A workload writes its input
files into a work directory (this is timed as set-up), then computes the
reference result of every op (untimed) and returns the ops with a check
for their output bytes.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

# Largest support a batch item may have to also be checked against the
# brute-force dict oracle in tests/oracle.py.
ORACLE_MAX_SUPPORT = 4096


@dataclass
class Op:
    """One CLI invocation, run with the work directory as its cwd."""

    name: str
    argv: list[str]
    items: int  # reports the op writes: 1, or the batch length
    check: Callable[[bytes], int]  # output bytes -> failed items
    stdout_name: str = ""

    def __post_init__(self) -> None:
        self.stdout_name = self.stdout_name or f"{self.name}.out"


def _report_check(expected: ref.Expected, spectrum: bool,
                  label: str) -> Callable[[bytes], int]:
    def check(out: bytes) -> int:
        try:
            problems = ref.check_report(json.loads(out), expected,
                                        spectrum=spectrum)
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable report: {exc!r}"]
        return _failed(label, problems)
    return check


def _failed(label: str, problems: list[str]) -> int:
    for problem in problems[:5]:
        print(f"  MISMATCH {label}: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _batch_check(expected: list[tuple[ref.Expected, dict | None]],
                 label: str) -> Callable[[bytes], int]:
    """Check one report line per manifest item, in manifest order."""
    def check(out: bytes) -> int:
        lines = out.decode("utf-8", "replace").splitlines()
        if len(lines) != len(expected):
            _failed(label, [f"{len(lines)} lines for {len(expected)} items"])
            return len(expected)
        failed = 0
        for index, (line, (want, oracle_measures)) in enumerate(zip(lines, expected)):
            try:
                report = json.loads(line)
                if "error" in report:
                    problems = [f"error line {report['error']}"]
                else:
                    problems = ref.check_report(report, want, spectrum=True)
                    if oracle_measures is not None:
                        problems += [
                            f"{key} {report['measures'][key]!r} != oracle {value!r}"
                            for key, value in oracle_measures.items()
                            if not abs(report["measures"][key] - value) <= ref.TOL
                        ]
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            failed += _failed(f"{label} item {index}", problems)
        return failed
    return check


def load_oracle():
    """tests/oracle.py, the repository's brute-force reference, or None."""
    tests_dir = Path(__file__).resolve().parent.parent / "tests"
    if not (tests_dir / "oracle.py").is_file():
        return None
    sys.path.insert(0, str(tests_dir))
    try:
        import oracle
    finally:
        sys.path.remove(str(tests_dir))
    return oracle


def oracle_measures(oracle, pmf: dict, n: int) -> dict:
    t = oracle.total_correlation(pmf, n)
    d = oracle.dual_total_correlation(pmf, n)
    return {"joint_entropy": oracle.entropy_bits(pmf),
            "total_correlation": t, "dual_total_correlation": d,
            "s_information": oracle.s_information(pmf, n),
            "o_information": oracle.o_information(pmf, n)}


# -- input files -------------------------------------------------------------

def write_csv(path: Path, rows: np.ndarray) -> None:
    """Samples CSV of single-digit symbols: header x0..x{m-1}, one row per line."""
    n, m = rows.shape
    buf = np.empty((n, 2 * m), dtype=np.uint8)
    buf[:, 0::2] = rows + ord("0")
    buf[:, 1::2] = ord(",")
    buf[:, -1] = ord("\n")
    header = ",".join(f"x{j}" for j in range(m)) + "\n"
    path.write_bytes(header.encode() + buf.tobytes())


def write_dist_json(path: Path, table: np.ndarray) -> None:
    """Compact distribution JSON of the positive cells of a dense table,
    in ascending state order."""
    flat = table.ravel()
    idx = np.flatnonzero(flat)
    states = np.stack(np.unravel_index(idx, table.shape), axis=1).tolist()
    obj = {"cardinalities": list(table.shape),
           "entries": [{"state": s, "p": float(p)}
                       for s, p in zip(states, flat[idx])]}
    path.write_text(json.dumps(obj))


def parity_table(order: int, alphabet: int) -> np.ndarray:
    grids = np.indices((alphabet,) * (order - 1)).reshape(order - 1, -1)
    table = np.zeros((alphabet,) * order)
    check = grids.sum(axis=0) % alphabet
    table[tuple(grids) + (check,)] = 1.0 / alphabet ** (order - 1)
    return table


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.rng = np.random.default_rng(seed)
        self.draw()

    def draw(self) -> None:
        """Draw every random choice of the inputs from ``self.rng``."""

    def write_inputs(self) -> None:
        """Write the input files into the work directory (timed set-up)."""

    def ops(self) -> list[Op]:
        """The ops of one cycle, with references for their checks (untimed)."""
        raise NotImplementedError


class DenseSpectrum(Workload):
    """Dense marginalization and the duplicate profile build of spectrum
    dominate; there is no parsing. measures_binary builds the profile once."""

    name = "dense_spectrum"
    N_BINARY = 20
    MIXED = ((10, 3), (1, 5), (1, 7))  # (n_vars, alphabet) of each component

    def draw(self) -> None:
        self.seed_binary = int(self.rng.integers(2**31))
        self.seeds_mixed = [int(s) for s in self.rng.integers(2**31, size=3)]

    def write_inputs(self) -> None:
        components = [{"kind": "random_dirichlet_like", "n_vars": n,
                       "alphabet": a, "seed": s}
                      for (n, a), s in zip(self.MIXED, self.seeds_mixed)]
        item = {"gen": {"kind": "independent_product", "components": components}}
        (self.work / "mixed.json").write_text(json.dumps([item]))

    def ops(self) -> list[Op]:
        binary = ref.from_table(
            ref.random_table((2,) * self.N_BINARY, self.seed_binary))
        mixed_table = None
        for (n, a), s in zip(self.MIXED, self.seeds_mixed):
            part = ref.random_table((a,) * n, s)
            mixed_table = part if mixed_table is None else np.multiply.outer(
                mixed_table, part)
        mixed = ref.from_table(mixed_table)
        gen = ["--gen", "random", "--n-vars", str(self.N_BINARY),
               "--seed", str(self.seed_binary)]
        return [
            Op("spectrum_binary", ["spectrum", *gen], 1,
               _report_check(binary, True, "spectrum_binary")),
            Op("spectrum_mixed", ["batch", "mixed.json", "--spectrum"], 1,
               _batch_check([(mixed, None)], "spectrum_mixed")),
            Op("measures_binary", ["measures", *gen], 1,
               _report_check(binary, False, "measures_binary")),
        ]


class SamplesCsv(Workload):
    """CSV parse and plug-in estimation: sparse dict marginals dominate
    csv_sparse; csv_lowsupport parses as much but its marginals are tiny."""

    name = "samples_csv"

    def draw(self) -> None:
        rng = self.rng
        inputs = rng.integers(0, 2, size=(5_000, 29), dtype=np.uint8)
        self.sparse = np.concatenate(
            [inputs, (inputs.sum(axis=1, dtype=np.uint8) % 2)[:, None]], axis=1)
        # spike-like activity: 4 assemblies of 4 units over a 0.02 background
        active = rng.random((60_000, 4)) < 0.15
        fire = np.where(np.repeat(active, 4, axis=1), 0.8, 0.02)
        self.dense = (rng.random((60_000, 16)) < fire).astype(np.uint8)
        patterns = rng.integers(0, 2, size=(24, 30), dtype=np.uint8)
        weights = rng.random(24) + 0.05
        picks = rng.choice(24, size=30_000, p=weights / weights.sum())
        self.lowsupport = patterns[picks]

    def write_inputs(self) -> None:
        write_csv(self.work / "sparse.csv", self.sparse)
        write_csv(self.work / "dense.csv", self.dense)
        write_csv(self.work / "lowsupport.csv", self.lowsupport)

    def ops(self) -> list[Op]:
        return [
            Op(name, ["measures", "--input", f"{stem}.csv"], 1,
               _report_check(ref.from_rows(rows), False, name))
            for name, stem, rows in (
                ("csv_sparse", "sparse", self.sparse),
                ("csv_dense", "dense", self.dense),
                ("csv_lowsupport", "lowsupport", self.lowsupport))
        ]


class JsonIoBatch(Workload):
    """Distribution JSON written and read back by fileio, then 48 small
    items through the batch thread pool at --jobs 2."""

    name = "json_io_batch"
    EMIT_ORDER = 16

    # Item sizes are fixed so that every seed gives the batch the same work;
    # the seed picks the tables, the sample rows and the item order.
    PARITY = ((8, 2), (9, 2), (10, 2), (11, 2), (12, 2), (12, 2),
              (8, 3), (8, 3), (9, 3), (9, 3), (10, 2), (11, 2))
    TABLE_VARS = (9, 10, 11, 12) * 3
    GIANT_BIT = ((10, 2), (10, 2), (11, 2), (11, 2), (12, 2), (12, 2),
                 (13, 2), (14, 2), (8, 3), (8, 3), (9, 3), (9, 3))

    def draw(self) -> None:
        rng = self.rng
        items = []  # (kind, file stem or None, data)
        for i, sizes in enumerate(self.PARITY):
            items.append(("parity", f"parity{i:02d}", sizes))
        for i, n in enumerate(self.TABLE_VARS):
            w = rng.random(2**n) ** 2 + 1e-3
            items.append(("table", f"table{i:02d}", (w / w.sum()).reshape((2,) * n)))
        for i in range(12):
            items.append(("csv", f"samples{i:02d}",
                          rng.integers(0, 3, size=(6_000, 8), dtype=np.uint8)))
        for sizes in self.GIANT_BIT:
            items.append(("gen", None, sizes))
        self.items = [items[i] for i in rng.permutation(len(items))]

    def write_inputs(self) -> None:
        manifest = []
        for kind, stem, data in self.items:
            if kind == "parity":
                write_dist_json(self.work / f"{stem}.json", parity_table(*data))
            elif kind == "table":
                write_dist_json(self.work / f"{stem}.json", data)
            elif kind == "csv":
                write_csv(self.work / f"{stem}.csv", data)
            if kind == "gen":
                order, alphabet = data
                manifest.append({"gen": {"kind": "giant_bit", "order": order,
                                         "alphabet": alphabet}})
            else:
                suffix = "csv" if kind == "csv" else "json"
                manifest.append({"input": f"{stem}.{suffix}"})
        (self.work / "manifest.json").write_text(json.dumps(manifest, indent=1))

    def batch_expected(self) -> list[tuple[ref.Expected, dict | None]]:
        oracle = load_oracle()
        if oracle is None:
            print("note: tests/oracle.py not found; batch items are checked "
                  "against closed forms and numpy only", file=sys.stderr)
        expected = []
        for kind, _, data in self.items:
            pmf = None
            if kind == "parity":
                want = ref.parity(*data)
                table = parity_table(*data)
            elif kind == "gen":
                want = ref.giant_bit(*data)
                table = None
            elif kind == "table":
                table = data
                want = ref.from_table(data)
            else:
                want = ref.from_rows(data)
                table = None
            if table is not None and np.count_nonzero(table) <= ORACLE_MAX_SUPPORT:
                idx = np.flatnonzero(table)
                states = zip(*np.unravel_index(idx, table.shape))
                pmf = {tuple(int(x) for x in s): float(p)
                       for s, p in zip(states, table.ravel()[idx])}
            from_oracle = (None if oracle is None or pmf is None
                           else oracle_measures(oracle, pmf, table.ndim))
            expected.append((want, from_oracle))
        return expected

    def ops(self) -> list[Op]:
        order = self.EMIT_ORDER
        return [
            Op("emit", ["gen", "--kind", "parity", "--order", str(order),
                        "--emit"], 1, _emit_check(order), stdout_name="emitted.json"),
            Op("load", ["measures", "--input", "emitted.json"], 1,
               _report_check(ref.parity(order, 2), False, "load")),
            Op("batch", ["batch", "manifest.json", "--jobs", "2", "--spectrum"],
               len(self.items), _batch_check(self.batch_expected(), "batch")),
        ]


def _emit_check(order: int) -> Callable[[bytes], int]:
    """The emitted file must be binary parity(order): every even-weight
    state once, ascending, each with mass 2**-(order - 1)."""
    def check(out: bytes) -> int:
        problems = []
        try:
            obj = json.loads(out)
            states = np.array([e["state"] for e in obj["entries"]], dtype=np.int64)
            masses = np.array([e["p"] for e in obj["entries"]])
            want = np.flatnonzero(parity_table(order, 2).ravel())
            codes = states @ (1 << np.arange(order - 1, -1, -1))
            if obj["cardinalities"] != [2] * order:
                problems.append(f"cardinalities {obj['cardinalities']}")
            elif not np.array_equal(codes, want):
                problems.append("support is not the parity states in order")
            elif not np.all(masses == math.ldexp(1.0, 1 - order)):
                problems.append("masses are not all 2**-(order-1)")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable distribution JSON: {exc!r}")
        return _failed("emit", problems)
    return check


WORKLOADS = {cls.name: cls for cls in (DenseSpectrum, SamplesCsv, JsonIoBatch)}
