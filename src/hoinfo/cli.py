"""Command-line front end.

Four subcommands: ``measures`` and ``spectrum`` ingest a distribution
(JSON file, samples CSV, or an inline generator) and emit a run report;
``gen`` emits a generated distribution in the distribution JSON format;
``batch`` runs a manifest of inputs and streams one report per line.

Exit codes: 0 on success, 1 on parse/validation failure, 2 when a measure
is requested on a system with fewer than two variables. Diagnostics go to
standard error; reports go to standard output.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
from typing import Mapping, Sequence

from . import __version__
from .distribution import (
    EstimatorConfig,
    JointDistribution,
    estimate_from_samples,
    infer_alphabets,
)
from .errors import HoinfoError, InvalidOrderError, SystemTooSmallError
from .fileio import (
    FORMAT_DIST_JSON,
    FORMAT_SAMPLES_CSV,
    dumps_distribution,
    loads_distribution,
    parse_samples_csv,
    sniff_format,
)
from .generators import (
    GENERATOR_KINDS,
    GeneratorSpec,
    generate,
    spec_from_dict,
)
from .measures import measure_report
from .spectrum import compute_spectrum

# Each kind the command line can build, spelled with "_" or "-", plus "random".
_GEN_KIND_ALIASES = {
    spelling: kind
    for kind in GENERATOR_KINDS
    if kind != "independent_product"
    for spelling in (kind, kind.replace("_", "-"))
} | {"random": "random_dirichlet_like"}


def _config_from_args(args: argparse.Namespace) -> EstimatorConfig:
    return EstimatorConfig(
        log_base=args.base,
        zero_tolerance=args.tolerance,
    )


def _spec_from_args(args: argparse.Namespace, kind_flag: str) -> GeneratorSpec:
    raw_kind = getattr(args, kind_flag)
    kind = _GEN_KIND_ALIASES.get(raw_kind)
    if kind is None:
        raise InvalidOrderError(
            f"unknown generator kind {raw_kind!r}; expected one of "
            f"{sorted(set(_GEN_KIND_ALIASES))}"
        )
    return GeneratorSpec(
        kind=kind,
        order=args.order,
        alphabet=args.alphabet,
        n_vars=args.n_vars,
        seed=args.seed,
        concentration=args.concentration,
    )


def _read_input_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _resolve_input(
    args: argparse.Namespace, config: EstimatorConfig
) -> tuple[JointDistribution, str, dict | None]:
    """Load the requested distribution.

    Returns (distribution, provenance descriptor, alphabet mapping or None).
    """
    if args.gen is not None and args.input is not None:
        raise InvalidOrderError("give either --input or --gen, not both")
    if args.gen is not None:
        spec = _spec_from_args(args, "gen")
        return generate(spec, config), spec.describe(), None
    if args.input is None:
        raise InvalidOrderError("an input is required: --input PATH or --gen KIND")
    return _load_file(args.input, args.format, args.normalize, config)


def _load_file(
    path: str, fmt: str, normalize: bool, config: EstimatorConfig
) -> tuple[JointDistribution, str, dict | None]:
    """Read a distribution JSON or samples CSV file; ``"-"`` reads stdin.

    Returns (distribution, provenance descriptor, alphabet mapping or None).
    """
    text = _read_input_text(path)
    descriptor = "stdin" if path == "-" else path
    if fmt == "auto":
        fmt = sniff_format("" if path == "-" else path, text)
    if fmt == FORMAT_DIST_JSON:
        dist = loads_distribution(text, config, renormalize=normalize)
        return dist, descriptor, None
    if fmt == FORMAT_SAMPLES_CSV:
        names, rows = parse_samples_csv(text)
        mapping = {
            name: alphabet
            for name, alphabet in zip(names, infer_alphabets(rows))
        }
        return estimate_from_samples(rows, config), descriptor, mapping
    raise InvalidOrderError(f"unknown input format {fmt!r}")


def _run_report(
    dist: JointDistribution,
    descriptor: str,
    *,
    include_spectrum: bool,
    alphabet_mapping: dict | None = None,
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
    if include_spectrum:
        spec = compute_spectrum(dist)
        measures = spec.measures
    else:
        measures = measure_report(dist)
    report["measures"] = {
        "joint_entropy": measures.joint_entropy,
        "total_correlation": measures.total_correlation,
        "dual_total_correlation": measures.dual_total_correlation,
        "s_information": measures.s_information,
        "o_information": measures.o_information,
    }
    if include_spectrum:
        report["spectrum"] = {
            "delta": list(spec.delta),
            "gamma": list(spec.gamma),
            "synergy_order": spec.synergy_order,
            "redundancy_order": spec.redundancy_order,
            "delta_crossing": spec.delta_crossing,
            "gamma_crossing": spec.gamma_crossing,
        }
    return report


def _report_csv_rows(report: Mapping) -> list[tuple[str, object]]:
    """Flatten a report to (field, value) rows for spreadsheet use."""
    rows: list[tuple[str, object]] = [
        ("tool", report["tool"]),
        ("version", report["version"]),
        ("input_descriptor", report["input_descriptor"]),
        ("n_vars", report["n_vars"]),
        ("cardinalities", " ".join(str(c) for c in report["cardinalities"])),
        ("log_base", report["config"]["log_base"]),
        ("normalization_tolerance", report["config"]["normalization_tolerance"]),
        ("zero_tolerance", report["config"]["zero_tolerance"]),
    ]
    for key, value in report["measures"].items():
        rows.append((key, value))
    spectrum = report.get("spectrum")
    if spectrum is not None:
        for k, value in enumerate(spectrum["delta"]):
            rows.append((f"delta_{k}", value))
        for k, value in enumerate(spectrum["gamma"]):
            rows.append((f"gamma_{k}", value))
        for key in ("synergy_order", "redundancy_order",
                    "delta_crossing", "gamma_crossing"):
            rows.append((key, spectrum[key]))
    return rows


def _emit_report(report: dict, output: str, stream) -> None:
    if output == "json":
        stream.write(json.dumps(report, indent=2))
        stream.write("\n")
        return
    stream.write("field,value\n")
    for field, value in _report_csv_rows(report):
        value_text = "" if value is None else repr(value) if isinstance(value, float) else str(value)
        stream.write(f"{field},{value_text}\n")


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", metavar="PATH",
                        help="distribution JSON or samples CSV; '-' reads stdin")
    parser.add_argument("--format", choices=["auto", FORMAT_DIST_JSON,
                                             FORMAT_SAMPLES_CSV],
                        default="auto",
                        help="input format (default: by extension, then content)")
    parser.add_argument("--gen", metavar="KIND",
                        help="generate the input instead: giant-bit, parity, "
                             "random, point-mass")
    parser.add_argument("--order", type=int, help="gadget order k")
    parser.add_argument("--alphabet", type=int, default=2,
                        help="per-variable alphabet size (default 2)")
    parser.add_argument("--n-vars", type=int, dest="n_vars",
                        help="variable count for random/point-mass kinds")
    parser.add_argument("--seed", type=int, help="seed for the random kind")
    parser.add_argument("--concentration", type=float, default=1.0,
                        help="mass concentration for the random kind")
    parser.add_argument("--normalize", action="store_true",
                        help="renormalize file masses instead of rejecting them")


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

    p_measures = sub.add_parser(
        "measures", help="joint entropy, T, D, S, and O for one input")
    _add_input_arguments(p_measures)
    _add_config_arguments(p_measures)
    p_measures.add_argument("--output", choices=["json", "csv"],
                            default="json")

    p_spectrum = sub.add_parser(
        "spectrum", help="measures plus the delta/gamma sweep over k = 0..N")
    _add_input_arguments(p_spectrum)
    _add_config_arguments(p_spectrum)
    p_spectrum.add_argument("--output", choices=["json", "csv"],
                            default="json")

    p_gen = sub.add_parser(
        "gen", help="emit a generated distribution as distribution JSON")
    p_gen.add_argument("--kind", required=True,
                       help="giant-bit, parity, random, point-mass")
    p_gen.add_argument("--order", type=int)
    p_gen.add_argument("--alphabet", type=int, default=2)
    p_gen.add_argument("--n-vars", type=int, dest="n_vars")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--concentration", type=float, default=1.0)
    p_gen.add_argument("--emit", action="store_true",
                       help="write the distribution JSON to stdout "
                            "(otherwise print a one-line summary)")
    _add_config_arguments(p_gen)

    p_batch = sub.add_parser(
        "batch", help="run a JSON manifest of inputs, one report per line")
    p_batch.add_argument("manifest", help="path to the manifest JSON list")
    p_batch.add_argument("--jobs", type=int, default=1,
                         help="worker threads (default 1); output order and "
                              "content do not depend on this")
    p_batch.add_argument("--spectrum", action="store_true",
                         help="include the spectrum in every report")
    p_batch.add_argument("--normalize", action="store_true")
    _add_config_arguments(p_batch)

    return parser


def _cmd_measures(args: argparse.Namespace, *, include_spectrum: bool) -> int:
    config = _config_from_args(args)
    dist, descriptor, mapping = _resolve_input(args, config)
    report = _run_report(
        dist, descriptor,
        include_spectrum=include_spectrum,
        alphabet_mapping=mapping,
    )
    _emit_report(report, args.output, sys.stdout)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    spec = _spec_from_args(args, "kind")
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


def _batch_item_report(
    item: Mapping, args: argparse.Namespace, config: EstimatorConfig
) -> dict:
    include_spectrum = bool(item.get("spectrum", args.spectrum))
    if "gen" in item:
        spec = spec_from_dict(item["gen"])
        dist = generate(spec, config)
        descriptor = spec.describe()
        mapping = None
    elif "input" in item:
        dist, descriptor, mapping = _load_file(
            item["input"],
            item.get("format", "auto"),
            bool(item.get("normalize", args.normalize)),
            config,
        )
    else:
        raise InvalidOrderError(
            "manifest items need either an 'input' path or a 'gen' spec"
        )
    return _run_report(
        dist, descriptor,
        include_spectrum=include_spectrum,
        alphabet_mapping=mapping,
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    with open(args.manifest, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if not isinstance(manifest, list):
        raise InvalidOrderError("manifest must be a JSON list of items")

    jobs = max(1, args.jobs)

    def run_item(item: Mapping) -> dict:
        return _batch_item_report(item, args, config)

    results: list[dict] = []
    failed = False
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_item, item) for item in manifest]
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except Exception as exc:  # noqa: BLE001 - reported inline per item
                failed = True
                results.append({
                    "item": index,
                    "error": {
                        "type": type(exc).__name__,
                        "message": str(exc),
                    },
                })
    for report in results:
        sys.stdout.write(json.dumps(report))
        sys.stdout.write("\n")
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "measures":
            return _cmd_measures(args, include_spectrum=False)
        if args.command == "spectrum":
            return _cmd_measures(args, include_spectrum=True)
        if args.command == "gen":
            return _cmd_gen(args)
        return _cmd_batch(args)
    except SystemTooSmallError as exc:
        print(f"hoinfo: error: {exc}", file=sys.stderr)
        return 2
    except (HoinfoError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"hoinfo: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
