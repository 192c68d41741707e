"""Command-line front end.

Four subcommands: ``measures`` and ``spectrum`` ingest a distribution
(JSON file, samples CSV, or an inline generator) and emit a run report;
``gen`` emits a generated distribution in the distribution JSON format;
``batch`` runs a manifest of inputs and writes one report per line, in
manifest order; with ``--jobs N`` its items run in worker processes
(forked), capped at the item count and the CPUs this process may run
on. A manifest that names stdin (``"-"``) runs in process, and its items
read the stream in manifest order.

Exit codes: 0 on success, 1 on parse/validation failure, 2 when a measure
is requested on a system with fewer than two variables. Diagnostics go to
standard error; reports go to standard output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
from typing import Mapping, Sequence

from . import __version__
from .distribution import (
    EstimatorConfig,
    JointDistribution,
    _count_states,
    estimate_from_samples,  # noqa: F401 - perfbench/traced.py wraps this name
)
from .errors import (
    HoinfoError,
    InvalidOrderError,
    MalformedInputError,
    SystemTooSmallError,
)
from .fileio import (
    FORMAT_DIST_JSON,
    FORMAT_SAMPLES_CSV,
    decode_json,
    dumps_distribution,
    loads_distribution,
    parse_samples_csv,
    sniff_format,
)
from .generators import (
    GENERATOR_KIND_ALIASES,
    GeneratorSpec,
    generate,
    spec_from_dict,
)
from .measures import measure_report
from .spectrum import compute_spectrum

# Every kind spelling but the independent product's: no flag gives its
# component specs.
_CLI_KINDS = sorted(
    spelling for spelling, kind in GENERATOR_KIND_ALIASES.items()
    if kind != "independent_product"
)
# The generator flags; each is stored under its generator spec key.
_GEN_FLAGS = ("order", "alphabet", "n_vars", "seed", "concentration")
# The SpectrumResult fields a report's "spectrum" object holds, in order.
_SPECTRUM_FIELDS = ("delta", "gamma", "synergy_order", "redundancy_order",
                    "delta_crossing", "gamma_crossing")


def _config_from_args(args: argparse.Namespace) -> EstimatorConfig:
    return EstimatorConfig(log_base=args.base, zero_tolerance=args.tolerance)


def _spec_from_args(args: argparse.Namespace) -> GeneratorSpec | None:
    """The spec of ``--gen``/``--kind`` and the generator flags, read by
    :func:`spec_from_dict`; None when no kind is named."""
    if args.gen is None:
        return None
    if args.gen not in _CLI_KINDS:
        raise InvalidOrderError(
            f"unknown generator kind {args.gen!r}; expected one of {_CLI_KINDS}"
        )
    return spec_from_dict(
        {"kind": args.gen, **{key: getattr(args, key) for key in _GEN_FLAGS}}
    )


def _read_text(path: str | None, name: str) -> str:
    """The bytes of the file at ``path``, or of stdin for None, decoded as
    strict UTF-8 whatever the locale, so each ``"\\r"`` stays as written:
    the samples CSV reader, not universal-newline translation, decides what
    it means. Bytes that do not decode raise :class:`MalformedInputError`
    naming the input as ``name``."""
    if path is None:
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{name} cannot be decoded: {exc}") from None


def _load_input(
    gen_spec: GeneratorSpec | None,
    path: str | None,
    fmt: str,
    normalize: bool,
    config: EstimatorConfig,
) -> tuple[JointDistribution, str, dict | None]:
    """Generate ``gen_spec``, or read the distribution JSON or samples CSV
    file at ``path`` (``"-"`` reads stdin); exactly one must be given.

    Returns (distribution, provenance descriptor, alphabet mapping or None).
    """
    if (gen_spec is None) == (path is None):
        raise InvalidOrderError(
            "give either an input file (--input PATH; 'input' in a manifest) "
            "or a generator (--gen KIND; 'gen'), not both"
        )
    if gen_spec is not None:
        return generate(gen_spec, config), gen_spec.describe(), None
    descriptor = "stdin" if path == "-" else path
    text = _read_text(None if path == "-" else path, descriptor)
    if fmt == "auto":
        fmt = sniff_format(descriptor, text)
    if fmt == FORMAT_DIST_JSON:
        return loads_distribution(text, config, renormalize=normalize), descriptor, None
    if fmt == FORMAT_SAMPLES_CSV:
        names, alphabets, digits, counts = parse_samples_csv(text)
        return (_count_states(alphabets, digits, counts, config), descriptor,
                dict(zip(names, alphabets)))
    raise InvalidOrderError(f"unknown input format {fmt!r}")


def _run_report(
    dist: JointDistribution,
    descriptor: str,
    alphabet_mapping: dict | None,
    *,
    include_spectrum: bool,
) -> dict:
    report: dict = {
        "tool": "hoinfo",
        "version": __version__,
        "input_descriptor": descriptor,
        "n_vars": dist.n_vars,
        "cardinalities": list(dist.cardinalities),
        "config": {
            "log_base": dist.config.log_base,
            "normalization_tolerance": dist.config.normalization_tolerance,
            "zero_tolerance": dist.config.zero_tolerance,
        },
    }
    if alphabet_mapping is not None:
        report["alphabet_mapping"] = alphabet_mapping
    report["measures"] = dataclasses.asdict(measure_report(dist))
    if include_spectrum:
        spec = compute_spectrum(dist)
        report["spectrum"] = {f: getattr(spec, f) for f in _SPECTRUM_FIELDS}
    return report


def _report_csv_rows(report: Mapping) -> list[tuple[str, object]]:
    """Flatten a report to (field, value) rows for spreadsheet use.

    Nested objects are walked in place under their own keys and a list
    or tuple field becomes one ``field_k`` row per element, except that
    ``cardinalities`` is one space-joined row and ``alphabet_mapping`` is
    left out.
    """
    rows: list[tuple[str, object]] = []
    for key, value in report.items():
        if key == "cardinalities":
            rows.append((key, " ".join(map(str, value))))
        elif isinstance(value, Mapping):
            if key != "alphabet_mapping":
                rows += _report_csv_rows(value)
        elif isinstance(value, (list, tuple)):
            rows += [(f"{key}_{k}", item) for k, item in enumerate(value)]
        else:
            rows.append((key, value))
    return rows


def _emit_report(report: dict, output: str, stream) -> None:
    if output == "json":
        stream.write(json.dumps(report, indent=2))
        stream.write("\n")
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(("field", "value"))
    for field, value in _report_csv_rows(report):
        # a float by repr; the writer leaves None as the empty cell
        writer.writerow(
            (field, repr(value) if isinstance(value, float) else value))


def _add_generator_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=int, help="gadget order k")
    parser.add_argument("--alphabet", type=int,
                        help="per-variable alphabet size (default 2)")
    parser.add_argument("--n-vars", type=int, dest="n_vars",
                        help="variable count for random/point-mass kinds")
    parser.add_argument("--seed", type=int, help="seed for the random kind")
    parser.add_argument("--concentration", type=float,
                        help="mass concentration for the random kind")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--base", type=float, default=2.0,
                        help="logarithm base (default 2: bits)")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="zero tolerance in result units (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoinfo",
        description="Higher-order information measures on discrete joint "
                    "distributions.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = "giant-bit, parity, random, point-mass"

    for name, help_text in (
        ("measures", "joint entropy, T, D, S, and O for one input"),
        ("spectrum", "measures plus the delta/gamma sweep over k = 0..N"),
    ):
        p_report = sub.add_parser(name, help=help_text)
        p_report.add_argument(
            "--input", metavar="PATH",
            help="distribution JSON or samples CSV; '-' reads stdin")
        p_report.add_argument(
            "--format", choices=["auto", FORMAT_DIST_JSON, FORMAT_SAMPLES_CSV],
            default="auto",
            help="input format (default: by extension, then content)")
        p_report.add_argument("--gen", metavar="KIND",
                              help=f"generate the input instead: {kinds}")
        _add_generator_arguments(p_report)
        p_report.add_argument(
            "--normalize", action="store_true",
            help="renormalize file masses instead of rejecting them")
        _add_config_arguments(p_report)
        p_report.add_argument("--output", choices=["json", "csv"],
                              default="json")

    p_gen = sub.add_parser(
        "gen", help="emit a generated distribution as distribution JSON")
    p_gen.add_argument("--kind", dest="gen", metavar="KIND", required=True,
                       help=kinds)
    _add_generator_arguments(p_gen)
    p_gen.add_argument("--emit", action="store_true",
                       help="write the distribution JSON to stdout "
                            "(otherwise print a one-line summary)")
    _add_config_arguments(p_gen)

    p_batch = sub.add_parser(
        "batch", help="run a JSON manifest of inputs, one report per line")
    p_batch.add_argument("manifest", help="path to the manifest JSON list")
    p_batch.add_argument("--jobs", type=int, default=1,
                         help="worker processes (forked), an integer >= 1, "
                              "capped at the item count and the CPUs this "
                              "process may run on (default 1: run in "
                              "process); a manifest "
                              "naming '-' runs in process, its items reading "
                              "stdin in manifest order; output order and "
                              "content do not depend on this")
    p_batch.add_argument("--spectrum", action="store_true",
                         help="include the spectrum in every report")
    p_batch.add_argument("--normalize", action="store_true")
    _add_config_arguments(p_batch)

    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    """``measures`` and ``spectrum``."""
    config = _config_from_args(args)
    report = _run_report(
        *_load_input(_spec_from_args(args), args.input, args.format,
                     args.normalize, config),
        include_spectrum=args.command == "spectrum",
    )
    _emit_report(report, args.output, sys.stdout)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    spec = _spec_from_args(args)
    dist = generate(spec, config)
    if args.emit:
        sys.stdout.write(dumps_distribution(dist))
        sys.stdout.write("\n")
    else:
        sys.stdout.write(
            f"{spec.describe()}: n_vars={dist.n_vars}, "
            f"cardinalities={list(dist.cardinalities)}, "
            f"support={dist.support_size}/{dist.n_states}\n"
        )
    return 0


# The keys a manifest item may have, with the JSON type of each value.
_ITEM_TYPES = {"gen": Mapping, "input": str, "format": str, "normalize": bool,
               "spectrum": bool}


def _batch_item_report(
    item: Mapping,
    args: argparse.Namespace,
    config: EstimatorConfig,
) -> dict:
    if not isinstance(item, Mapping):
        raise MalformedInputError(
            f"manifest item must be a JSON object, got {item!r}"
        )
    wrong = {key: value for key, value in item.items()
             if not isinstance(value, _ITEM_TYPES.get(key, ()))}
    if wrong:
        raise MalformedInputError(
            f"unknown manifest item keys or values of the wrong type: {wrong}; "
            f"expected an object for 'gen', strings for 'input' and 'format', "
            f"and booleans for 'normalize' and 'spectrum'"
        )
    return _run_report(
        *_load_input(
            spec_from_dict(item["gen"]) if "gen" in item else None,
            item.get("input"),
            item.get("format", "auto"),
            item.get("normalize", args.normalize),
            config,
        ),
        include_spectrum=item.get("spectrum", args.spectrum),
    )


def _batch_line(
    index: int,
    item: object,
    args: argparse.Namespace,
    config: EstimatorConfig,
) -> tuple[bool, str]:
    """Whether manifest item ``index`` failed, and its output line. The
    item's exception becomes its error line here, so no exception object
    has to cross from a worker process to the parent."""
    try:
        report = _batch_item_report(item, args, config)
    except Exception as exc:  # noqa: BLE001 - reported inline per item
        error = {"type": type(exc).__name__, "message": str(exc)}
        return True, json.dumps({"item": index, "error": error})
    return False, json.dumps(report)


def _allowed_cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order; where the
    platform cannot say, the first ``os.cpu_count()`` CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _worker_count(jobs: int, items: int, cpus: int) -> int:
    """Worker processes for a batch: no more than ``--jobs`` asks for, than
    there are items or than there are CPUs, and at least one."""
    return max(1, min(jobs, items, cpus))


def _place_worker(queue, cpus: list[int]) -> None:
    """Move this worker process to the CPU it takes from ``queue``, then
    let it run on any of the allowed ``cpus`` again. A forked child starts
    on its parent's CPU; where the kernel does not move it to an idle CPU,
    as on some virtual machines, every worker would share that one CPU."""
    os.sched_setaffinity(0, {queue.get()})
    os.sched_setaffinity(0, cpus)


def _fork_batch_lines(context, workers: int, columns: tuple,
                      cpus: list[int]) -> list[tuple[bool, str]]:
    """:func:`_batch_line` of each item, in manifest order, run in
    ``workers`` processes forked from this one by the multiprocessing
    ``context`` and placed one by one on the allowed ``cpus``. The workers
    inherit the imported modules."""
    import concurrent.futures

    place = {}
    if hasattr(os, "sched_setaffinity"):
        queue = context.SimpleQueue()
        for cpu in cpus[:workers]:
            queue.put(cpu)
        place = {"initializer": _place_worker, "initargs": (queue, cpus)}
    try:
        with concurrent.futures.ProcessPoolExecutor(
                workers, mp_context=context, **place) as pool:
            return list(pool.map(_batch_line, *columns))
    except concurrent.futures.process.BrokenProcessPool as exc:
        raise OSError(f"a batch worker process ended abruptly: {exc}") from None


def _run_batch_lines(workers: int, columns: tuple,
                     cpus: list[int]) -> list[tuple[bool, str]]:
    """:func:`_batch_line` of each item, in manifest order: in forked
    worker processes on the allowed ``cpus`` if ``workers`` > 1 and fork is
    available, else in this process."""
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _fork_batch_lines(multiprocessing.get_context("fork"),
                                     workers, columns, cpus)
    return list(map(_batch_line, *columns))


def _cmd_batch(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise MalformedInputError(
            f"--jobs must be an integer >= 1, got {args.jobs}")
    config = _config_from_args(args)
    name = f"manifest {args.manifest}"
    manifest = decode_json(_read_text(args.manifest, name), name)
    if not isinstance(manifest, list):
        raise InvalidOrderError("manifest must be a JSON list of items")

    columns = (range(len(manifest)), manifest, itertools.repeat(args),
               itertools.repeat(config))
    cpus = _allowed_cpus()
    workers = _worker_count(args.jobs, len(manifest), len(cpus))
    if any(isinstance(item, Mapping) and item.get("input") == "-"
           for item in manifest):
        # a forked worker's stdin is /dev/null: the items run here and read
        # the stream in manifest order, the first reader taking all of it
        workers = 1
    failed = False
    for item_failed, line in _run_batch_lines(workers, columns, cpus):
        failed |= item_failed
        sys.stdout.write(line)
        sys.stdout.write("\n")
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "batch":
            return _cmd_batch(args)
        return _cmd_report(args)
    except SystemTooSmallError as exc:
        print(f"hoinfo: error: {exc}", file=sys.stderr)
        return 2
    except (HoinfoError, ValueError, OSError) as exc:
        print(f"hoinfo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
