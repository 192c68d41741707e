"""Run ``hoinfo.cli.main(argv)`` with spans recorded around each layer call.

Usage: python3 traced.py SPANS_OUT -- HOINFO_ARGS...

The public functions each hoinfo module binds are replaced by wrappers
that record one span per call: (id, name, start, end, parent, thread,
meta). Spans stay in memory and are written to SPANS_OUT as JSON after
``main`` returns. The process exits with ``main``'s return code. The
program's own files are not modified; only the names bound in its module
namespaces are rebound in this process.
"""

import importlib
import itertools
import json
import sys
import threading
import time

# (module, bound name) pairs to wrap. A call goes through exactly one
# binding, so no call is counted twice.
WRAPPED = {
    "hoinfo.cli": ("loads_distribution", "parse_samples_csv",
                   "estimate_from_samples", "generate", "measure_report",
                   "compute_spectrum", "dumps_distribution",
                   "_batch_item_report"),
    "hoinfo.measures": ("entropy", "marginalize", "leave_one_out"),
    "hoinfo.distribution": ("marginalize", "build_distribution"),
    "hoinfo.fileio": ("build_distribution",),
    "hoinfo.generators": ("build_distribution", "product", "generate"),
}


def _dist_meta(dist) -> dict:
    """Input table size of a marginalization: cells if dense, support if sparse."""
    dense = dist.representation == "dense"
    return {"dense": dense,
            "cells": dist.n_states if dense else dist.support_size}


META_BEFORE = {"marginalize": lambda args: _dist_meta(args[0]),
               "leave_one_out": lambda args: _dist_meta(args[0]),
               "loads_distribution": lambda args: {"bytes": len(args[0])},
               "parse_samples_csv": lambda args: {"bytes": len(args[0])}}
META_AFTER = {"dumps_distribution": lambda result: {"bytes": len(result)}}


class Tracer:
    def __init__(self):
        self.spans = []
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.root = 0  # parent of spans opened on a thread with no open span
        self.threads = {}

    def _stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, meta_key):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span_id = next(self.ids)
        thread = self.threads.setdefault(threading.get_ident(), len(self.threads))
        before = META_BEFORE.get(meta_key)
        meta = before(args) if before else {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append([span_id, name, start, end, parent, thread, meta])
        after = META_AFTER.get(meta_key)
        if after:
            meta.update(after(result))
        return result

    def wrap(self, name, fn, meta_key):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, meta_key)
        return traced


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: traced.py SPANS_OUT -- HOINFO_ARGS...")
    spans_out, argv = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    start = time.perf_counter()
    cli = importlib.import_module("hoinfo.cli")
    tracer.spans.append([next(tracer.ids), "cli.import", start,
                         time.perf_counter(), 0, 0, {}])
    for module_name, names in WRAPPED.items():
        module = importlib.import_module(module_name)
        short = module_name.split(".")[1]
        for name in names:
            label = "cli.item" if name == "_batch_item_report" else f"{short}.{name}"
            setattr(module, name, tracer.wrap(label, getattr(module, name), name))
    tracer.root = next(tracer.ids)
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        tracer.spans.append([tracer.root, "cli.main", start,
                             time.perf_counter(), 0, 0, {}])
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
