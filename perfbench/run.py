"""hoinfo CLI benchmark: end-to-end times, or per-layer numbers from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seed N]

Run from the repository root. Each op is one ``hoinfo`` subprocess
(``python3 -m hoinfo.cli`` on ./src), run closed-loop by one client: the
next op starts when the previous one has ended. The run sets up the
workload's inputs five times (``setup_s`` is the median), computes the
reference results, then cycles through the workload's ops until
``--seconds`` have passed, completing at least one cycle. Every output is
checked against its reference; outputs whose bytes were already checked
are matched by sha256 instead.

With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics. Every timed sample is scaled to the reference speed of the
machine: a fixed probe (see ``probe``) runs between samples, and a sample
is multiplied by PROBE_REF_S over the mean of the probes on either side.
An op's time is the median of its scaled samples. With ``--trace 1`` each op
runs once plain and once under ``traced.py``, and the metrics are the
per-layer numbers of the traced runs. A record of the run (environment, per-op samples and stdout
digests) is written to .perfbench_work/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
PROBE_REF_S = 0.120  # the probe's time on the reference host (see README)
OP_TIMEOUT_S = 150.0
RUN_BUDGET_S = 165.0  # no op starts if it would likely end past this
WARMUP_ARGV = ["measures", "--gen", "parity", "--order", "3"]

# Entropy and marginalize calls per op at the commit the benchmark was
# written against (the CLI spectrum builds the entropy profile twice).
SEED_COUNTS = {"spectrum_binary": (82, 80), "spectrum_mixed": (50, 48),
               "csv_sparse": (61, 60), "load": (33, 32)}

# Span name -> layer its self time is booked to. Marginalization spans
# are booked to the dense or sparse kernel by their input's representation.
SPAN_LAYER = {
    "cli.main": "cli.self", "cli.item": "cli.self",
    "cli.loads_distribution": "fileio.parse_self",
    "cli.parse_samples_csv": "fileio.parse_self",
    "cli.dumps_distribution": "fileio.serialize",
    "cli.generate": "generators.generate",
    "generators.generate": "generators.generate",
    "generators.product": "generators.generate",
    "cli.estimate_from_samples": "distribution.estimate",
    "distribution.build_distribution": "distribution.build",
    "fileio.build_distribution": "distribution.build",
    "generators.build_distribution": "distribution.build",
    "measures.entropy": "distribution.entropy",
    "cli.measure_report": "measures.self",
    "cli.compute_spectrum": "spectrum.self",
}
MARGINAL_SPANS = ("measures.marginalize", "distribution.marginalize",
                  "measures.leave_one_out")


def child_env() -> dict:
    """Fixed environment for every child: thread pools capped at one."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "PYTHONUTF8": "1",
           "PYTHONPYCACHEPREFIX": str(WORK / "pycache"), "LC_ALL": "C.UTF-8"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


class Launcher:
    """Client of launch.py, which starts and times every child process."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env())
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list[str], cwd: Path,
            stdout_path: Path) -> tuple[float, int, float]:
        """Run one process to completion: (wall seconds, exit code, peak RSS MiB)."""
        request = {"argv": argv, "cwd": str(cwd), "stdout": str(stdout_path),
                   "stderr": str(stdout_path.with_suffix(".err")),
                   "env": child_env(), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["code"], reply["maxrss_kib"] / 1024.0


def hoinfo_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "hoinfo.cli", *args]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def environment(args: argparse.Namespace) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "hoinfo").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def cache(level: int) -> str:
        for index in range(8):
            base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}")
            try:
                if (base / "level").read_text().strip() == str(level):
                    return (base / "size").read_text().strip()
            except OSError:
                break
        return "unknown"

    return {"commit": commit, "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "l2": cache(2), "l3": cache(3),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


# -- per-layer numbers from one traced op --------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_numbers(spans: list, wall: float) -> dict:
    """Self time per layer, counts and the accounting residual of one op.

    A span's self time is its duration minus the union of its children's
    intervals. Children on other threads (batch items) can overlap, so
    wall = import + sum(self) - overlap + residual, where overlap is the
    time children ran in parallel and residual is interpreter start-up
    and exit.
    """
    children: dict[int, list] = {}
    for span in spans:
        children.setdefault(span[4], []).append(span)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    overlap = 0.0
    for span_id, name, start, end, _, _, meta in spans:
        kids = [(k[2], k[3]) for k in children.get(span_id, ())]
        covered = _union_length(kids)
        overlap += sum(e - s for s, e in kids) - covered
        self_time = end - start - covered
        if name == "cli.import":
            add("cli.import", end - start)
            continue
        if name in MARGINAL_SPANS:
            layer = ("distribution.marginalize_dense" if meta["dense"]
                     else "distribution.marginalize_sparse")
        else:
            layer = SPAN_LAYER[name]
        add(layer, self_time)
        if name in MARGINAL_SPANS[:2]:
            add("distribution.marginalize_calls", 1)
            add("distribution.marginal_cells_in", meta["cells"])
        elif name == "measures.entropy":
            add("distribution.entropy_calls", 1)
        elif name in ("cli.loads_distribution", "cli.parse_samples_csv"):
            add("fileio.bytes_in", meta["bytes"])
        elif name == "cli.dumps_distribution":
            add("fileio.bytes_out", meta["bytes"])
        elif name == "cli.measure_report":
            add("measures.report", end - start)
        elif name == "cli.compute_spectrum":
            add("spectrum.spectrum", end - start)
        elif name == "cli.item":
            add("cli.item_busy", end - start)
        elif name == "cli.main" and any(k[1] == "cli.item"
                                        for k in children.get(span_id, ())):
            add("cli.batch_wall", end - start)
    self_total = sum(v for k, v in out.items() if k in LAYER_KEYS)
    out["trace.overlap"] = overlap
    out["trace.residual"] = wall - (out.get("cli.import", 0.0) + self_total - overlap)
    out["trace.wall"] = wall
    return out


LAYER_KEYS = ("cli.self", "fileio.parse_self", "fileio.serialize",
              "generators.generate", "distribution.build",
              "distribution.estimate", "distribution.marginalize_dense",
              "distribution.marginalize_sparse", "distribution.entropy",
              "measures.self", "spectrum.self")

# (metric name, unit, key in the summed layer numbers)
PER_LAYER = [
    ("cli.import_s", "s", "cli.import"),
    ("cli.self_s", "s", "cli.self"),
    ("cli.batch_parallelism", "ratio", None),
    ("fileio.parse_self_s", "s", "fileio.parse_self"),
    ("fileio.bytes_in", "B", "fileio.bytes_in"),
    ("fileio.parse_mb_per_s", "MB/s", None),
    ("fileio.serialize_s", "s", "fileio.serialize"),
    ("fileio.bytes_out", "B", "fileio.bytes_out"),
    ("fileio.serialize_mb_per_s", "MB/s", None),
    ("generators.generate_s", "s", "generators.generate"),
    ("distribution.build_s", "s", "distribution.build"),
    ("distribution.estimate_s", "s", "distribution.estimate"),
    ("distribution.marginalize_dense_s", "s", "distribution.marginalize_dense"),
    ("distribution.marginalize_sparse_s", "s", "distribution.marginalize_sparse"),
    ("distribution.marginalize_calls", "count", "distribution.marginalize_calls"),
    ("distribution.marginal_cells_in", "count", "distribution.marginal_cells_in"),
    ("distribution.entropy_calls", "count", "distribution.entropy_calls"),
    ("distribution.entropy_s", "s", "distribution.entropy"),
    ("measures.report_s", "s", "measures.report"),
    ("measures.self_s", "s", "measures.self"),
    ("spectrum.spectrum_s", "s", "spectrum.spectrum"),
    ("spectrum.self_s", "s", "spectrum.self"),
    ("trace.overhead_s", "s", "trace.overhead"),
    ("trace.residual_s", "s", "trace.residual"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer_metrics(per_op: dict[str, dict]) -> dict:
    """Sum of each op's median layer numbers over the workload's ops."""
    total: dict[str, float] = {}
    for numbers in per_op.values():
        for key, value in numbers.items():
            total[key] = total.get(key, 0.0) + value
    metrics = {}
    for name, unit, key in PER_LAYER:
        if key is not None:
            value = total.get(key, 0.0)
        elif name == "cli.batch_parallelism":
            value = _ratio(total.get("cli.item_busy", 0.0), total.get("cli.batch_wall", 0.0))
        elif name == "fileio.parse_mb_per_s":
            value = _ratio(total.get("fileio.bytes_in", 0.0) / 1e6,
                           total.get("fileio.parse_self", 0.0))
        else:
            value = _ratio(total.get("fileio.bytes_out", 0.0) / 1e6,
                           total.get("fileio.serialize", 0.0))
        if unit == "count" or unit == "B":
            value = int(round(value))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def median_numbers(samples: list[dict]) -> dict:
    keys = set().union(*samples)
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in keys}


def print_trace_table(name: str, numbers: dict) -> None:
    layers = {k: numbers.get(k, 0.0) for k in LAYER_KEYS}
    top = max(layers, key=layers.get)
    print(f"  trace {name}: wall {numbers['trace.wall']:.3f}s = import "
          f"{numbers.get('cli.import', 0.0):.3f} + layers "
          f"{sum(layers.values()):.3f} - overlap {numbers['trace.overlap']:.3f}"
          f" + residual {numbers['trace.residual']:.3f}; largest self time: {top}")
    print("    " + ", ".join(f"{k}={v:.3f}" for k, v in layers.items() if v))
    calls = (int(numbers.get("distribution.entropy_calls", 0)),
             int(numbers.get("distribution.marginalize_calls", 0)))
    note = ""
    if name in SEED_COUNTS:
        note = (" (as at the seed commit)" if calls == SEED_COUNTS[name]
                else f" (seed commit: {SEED_COUNTS[name]})")
    print(f"    entropy_calls={calls[0]} marginalize_calls={calls[1]}{note}")


# -- the run -------------------------------------------------------------------

class OpRecord:
    def __init__(self, op: workloads.Op):
        self.op = op
        self.walls: list[float] = []
        self.scaled: list[float] = []  # walls at the probe's reference speed
        self.traced_walls: list[float] = []
        self.layers: list[dict] = []
        self.digests: list[str] = []
        self.checked: dict[str, int] = {}  # digest -> failed items
        self.attempted = 0
        self.failed = 0
        self.peak_rss = 0.0

    def outcome(self, code: int, stdout_path: Path) -> str:
        """Book one output: exit code, bytes checked or matched by digest."""
        digest = sha256_file(stdout_path)
        self.attempted += self.op.items
        if code != 0:
            err = stdout_path.with_suffix(".err").read_text(errors="replace")
            print(f"  FAILED {self.op.name}: exit {code}: {err.strip()[-300:]}",
                  file=sys.stderr)
        if digest not in self.checked:
            self.checked[digest] = self.op.check(stdout_path.read_bytes())
        failed = self.checked[digest]
        if code != 0:
            failed = max(failed, 1)
        if self.digests and digest != self.digests[0]:
            print(f"  FAILED {self.op.name}: output differs from its first run",
                  file=sys.stderr)
            failed = max(failed, 1)
        self.failed += failed
        return digest


def run_traced(launcher: Launcher, rec: OpRecord, work: Path) -> None:
    """Run the op again under traced.py and book its layer numbers."""
    spans_path = work / "spans.json"
    spans_path.unlink(missing_ok=True)
    out = work / f"{rec.op.name}.traced.out"
    argv = [sys.executable, str(HERE / "traced.py"), str(spans_path), "--",
            *rec.op.argv]
    wall, code, _ = launcher.run(argv, work, out)
    rec.attempted += 1
    if code != 0 or not spans_path.exists() or sha256_file(out) != rec.digests[-1]:
        print(f"  FAILED {rec.op.name}: traced run exited {code} or its output "
              "differs from the plain run", file=sys.stderr)
        rec.failed += 1
        return
    rec.traced_walls.append(wall)
    with open(spans_path, encoding="utf-8") as handle:
        rec.layers.append(layer_numbers(json.load(handle)["spans"], wall))


_PROBE_RNG = np.random.default_rng(0)
_PROBE_SORT = _PROBE_RNG.random(1 << 20)
_PROBE_TABLE = _PROBE_RNG.random(1 << 22)
_PROBE_INDEX = _PROBE_RNG.integers(0, 1 << 22, size=1 << 20)


def probe() -> float:
    """Seconds a fixed mix of interpreter, allocation and numpy work takes now.

    Other tenants of a shared host slow every process by up to 1.9x, in
    phases that last seconds to minutes. The probe slows with them, so a
    sample divided by the probes taken on either side of it keeps less of
    that slowdown. The mix (dict updates, tuple allocation, a sort and a
    random gather) tracked the ops' times more closely than any one of its
    parts did. It runs no hoinfo code, so a change to the program cannot
    change it.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(100_000):
        table[i & 4095] = table.get(i & 4095, 0) + i
    for _ in range(2):
        pairs = [(i, i + 1) for i in range(100_000)]
        del pairs
    for _ in range(4):
        np.sort(_PROBE_SORT)
    for _ in range(3):
        _PROBE_TABLE[_PROBE_INDEX].sum()
    return time.perf_counter() - start


def scaled(wall: float, before: float, after: float) -> float:
    """A wall time at the probe's reference speed."""
    return wall * PROBE_REF_S / ((before + after) / 2)


def measure(launcher: Launcher, ops: list[workloads.Op], work: Path,
            seconds: float, trace: bool, run_start: float) -> list[OpRecord]:
    records = [OpRecord(op) for op in ops]
    deadline = time.perf_counter() + seconds
    before = probe()
    cycle = 0
    while True:
        for rec in records:
            now = time.perf_counter()
            if cycle > 0 and (now >= deadline or now - run_start
                              + (1 + trace) * max(rec.walls) > RUN_BUDGET_S):
                return records
            out = work / rec.op.stdout_name
            wall, code, rss = launcher.run(hoinfo_argv(rec.op.argv), work, out)
            after = probe()
            rec.walls.append(wall)
            rec.scaled.append(scaled(wall, before, after))
            before = after
            rec.peak_rss = max(rec.peak_rss, rss)
            rec.digests.append(rec.outcome(code, out))
            if trace:
                run_traced(launcher, rec, work)
                before = probe()
        cycle += 1
        if time.perf_counter() >= deadline:
            return records


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(launcher: Launcher, args: argparse.Namespace) -> int:
    run_start = time.perf_counter()
    env = environment(args)
    print("environment: " + json.dumps(env))
    print(f"note: byte and cell counts are computed from sizes, not measured "
          f"traffic; the largest table (16 MiB) fits in the {env['l3']} "
          f"shared L3, so no bandwidth figure is given")
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](work, args.seed)

    setup_times, setup_scaled = [], []
    before = probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.write_inputs()
        _, code, _ = launcher.run(hoinfo_argv(WARMUP_ARGV), work, work / "warmup.out")
        setup_times.append(time.perf_counter() - start)
        after = probe()
        setup_scaled.append(scaled(setup_times[-1], before, after))
        before = after
        if code != 0:
            print("error: warm-up invocation failed", file=sys.stderr)
            return 1
    start = time.perf_counter()
    ops = workload.ops()
    print(f"setup: {', '.join(f'{t:.3f}' for t in setup_times)} s wall, "
          f"{', '.join(f'{t:.3f}' for t in setup_scaled)} s scaled; "
          f"references {time.perf_counter() - start:.2f} s")

    records = measure(launcher, ops, work, args.seconds, bool(args.trace),
                      run_start)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    per_op = {}
    for index, rec in enumerate(records, 1):
        med = statistics.median(rec.walls)
        line = (f"op{index} {rec.op.name}: median {statistics.median(rec.scaled):.4f}"
                f" s scaled of {len(rec.walls)}; wall median {med:.4f} s (min "
                f"{min(rec.walls):.4f}, max {max(rec.walls):.4f});"
                f" peak RSS {rec.peak_rss:.0f} MiB; sha256 {rec.digests[0][:16]}")
        if rec.op.items > 1:
            line += f"; {rec.op.items / med:.2f} items/s"
        print(line)
        if args.trace:
            if not rec.layers:
                continue
            numbers = median_numbers(rec.layers)
            numbers["trace.overhead"] = min(rec.traced_walls) - min(rec.walls)
            per_op[rec.op.name] = numbers
            print_trace_table(rec.op.name, numbers)

    if args.trace:
        metrics = per_layer_metrics(per_op)
    else:
        metrics = {"setup_s": metric(statistics.median(setup_scaled), "s")}
        for index, rec in enumerate(records, 1):
            metrics[f"op{index}_s"] = metric(statistics.median(rec.scaled), "s")
        metrics["peak_rss_mib"] = metric(max(r.peak_rss for r in records), "MiB")
        metrics["success_ratio"] = metric(1.0 - failed / attempted, "ratio")

    record = {"environment": env, "setup_s": setup_times,
              "setup_scaled_s": setup_scaled,
              "ops": {r.op.name: {"argv": r.op.argv, "walls": r.walls,
                                  "scaled": r.scaled,
                                  "traced_walls": r.traced_walls,
                                  "stdout_sha256": r.digests,
                                  "attempted": r.attempted, "failed": r.failed,
                                  "peak_rss_mib": r.peak_rss}
                      for r in records},
              "metrics": metrics}
    records_dir = WORK / "records"
    records_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records_dir / name).write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def self_check(launcher: Launcher, seed: int) -> int:
    """Checks kept out of timed runs: references against tests/oracle.py and
    hoinfo's generator, and batch output at --jobs 1 against --jobs 2."""
    problems = []
    oracle = workloads.load_oracle()
    sys.path.insert(0, str(SRC))
    from hoinfo.generators import random_distribution
    rng = np.random.default_rng(seed)
    for cards in ((2, 2, 2), (3, 2, 4), (2,) * 9, (5, 3)):
        s = int(rng.integers(2**31))
        table = reference.random_table(cards, s)
        if not np.array_equal(table, random_distribution(len(cards), cards, s).dense_table()):
            problems.append(f"random_table{cards} differs from hoinfo's generator")
        if oracle is not None:
            pmf = {idx: float(p) for idx, p in np.ndenumerate(table)}
            want = workloads.oracle_measures(oracle, pmf, len(cards))
            got = reference.from_table(table).measures()
            problems += [f"from_table{cards} {k}" for k in want
                         if not abs(want[k] - got[k]) <= reference.TOL]
    rows = rng.integers(0, 3, size=(500, 4))
    if oracle is not None:
        pmf: dict = {}
        for row in map(tuple, rows.tolist()):
            pmf[row] = pmf.get(row, 0.0) + 1 / len(rows)
        want = workloads.oracle_measures(oracle, pmf, 4)
        got = reference.from_rows(rows).measures()
        problems += [f"from_rows {k}" for k in want
                     if not abs(want[k] - got[k]) <= reference.TOL]
    for order, a in ((5, 2), (4, 3)):
        got = reference.from_table(workloads.parity_table(order, a)).measures()
        want = reference.parity(order, a).measures()
        problems += [f"parity({order},{a}) {k}" for k in want
                     if not abs(want[k] - got[k]) <= reference.TOL]

    work = WORK / "self_check"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    batch = workloads.JsonIoBatch(work, seed)
    batch.write_inputs()
    digests = []
    for jobs in ("1", "2"):
        out = work / f"jobs{jobs}.out"
        wall, code, _ = launcher.run(hoinfo_argv(["batch", "manifest.json", "--jobs",
                                               jobs, "--spectrum"]), work, out)
        digests.append(sha256_file(out))
        print(f"batch --jobs {jobs}: {wall:.2f} s, exit {code}, sha256 {digests[-1][:16]}")
        if code != 0:
            problems.append(f"batch --jobs {jobs} exited {code}")
    if digests[0] != digests[1]:
        problems.append("batch output at --jobs 1 differs from --jobs 2")
    shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (SRC / "hoinfo" / "cli.py").is_file():
        print(f"error: {SRC / 'hoinfo'} not found; run from a full checkout "
              "of the repository", file=sys.stderr)
        return 2
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    with Launcher() as launcher:
        if args.self_check:
            return self_check(launcher, args.seed)
        return run(launcher, args)


if __name__ == "__main__":
    sys.exit(main())
