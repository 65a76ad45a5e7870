"""Run the flrq CLI with outside-in timing wrappers around each module's functions.

Usage: python3 tracer.py SPANS_JSON <flrq cli arguments...>

The wrappers are installed on every module attribute that binds a traced
function (``from .x import y`` copies the name, so each binding is wrapped
separately and records its call site). Spans are kept in memory, one stack
per thread, and written to SPANS_JSON when the command returns. The
program's own code is not modified.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from pathlib import Path

# (binding module, function name). The span name is "<home module>.<name>",
# the site is the binding module, so a call is attributed to its caller.
BINDINGS = (
    ("flrq.cli", "flrq_layer"),
    ("flrq.cli", "quantize_matrix"),
    ("flrq.cli", "layer_error"),
    ("flrq.blc", "channel_mean"),
    ("flrq.blc", "scaled_flr"),
    ("flrq.blc", "select_rank"),
    ("flrq.blc", "search_clip"),
    ("flrq.blc", "quantize_matrix"),
    ("flrq.blc", "dequantize"),
    ("flrq.blc", "clip"),
    ("flrq.blc", "layer_error"),
    ("flrq.quantize", "quantize_matrix"),
    ("flrq.quantize", "dequantize"),
    ("flrq.quantize", "clip"),
    ("flrq.rankselect", "r1_step"),
    ("flrq.rankselect", "rank1_subtract"),
    ("flrq.sketch", "gemv"),
    ("flrq.sketch", "gemv_t"),
    ("flrq.io", "read_container_file"),
    ("flrq.io", "write_bundle"),
    ("flrq.io", "emit_report"),
)

# A root span with one of these names opens a new trace (one per layer);
# the RTN baseline calls that follow on the same thread inherit it.
LAYER_ROOTS = ("blc.channel_mean", "blc.flrq_layer")


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


# Work counters recorded with a span, computed from arguments and results.
SUMMARIES = {
    "rankselect.select_rank": lambda a, r: {
        "tried": len(r[1].steps), "kept": r[0].rank, "stop": r[1].stop_reason,
    },
    "blc.flrq_layer": lambda a, r: {
        "epochs": len(r.blc_trace), "best_epoch": r.best_epoch, "rank": r.factors.rank,
    },
    "quantize.search_clip": lambda a, r: {
        "m": a[0].shape[0], "n": a[0].shape[1], "tokens": a[1].shape[1],
        "candidates": len(r.grid_errors),
    },
    "linalg.gemv": lambda a, r: {"bytes": a[0].nbytes + a[1].nbytes + r.nbytes},
    "linalg.gemv_t": lambda a, r: {"bytes": a[0].nbytes + a[1].nbytes + r.nbytes},
    "linalg.rank1_subtract": lambda a, r: {
        "bytes": a[0].nbytes + a[1].nbytes + a[2].nbytes + r.nbytes,
    },
    "io.read_container_file": lambda a, r: {"bytes": os.path.getsize(a[0])},
    "io.write_bundle": lambda a, r: {"bytes": _dir_bytes(a[0])},
}


class Recorder:
    """Holds finished spans; one open-span stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._next_trace = 1

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack, st.trace, st.last_root = [], 0, None
        return st

    def enter(self, name: str, site: str) -> dict:
        st = self._state()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if not st.stack and name in LAYER_ROOTS and not (
                name == "blc.flrq_layer" and st.last_root == "blc.channel_mean"
            ):
                st.trace = self._next_trace
                self._next_trace += 1
        if not st.stack:
            st.last_root = name
        span = {
            "id": span_id,
            "name": name,
            "site": site,
            "parent": st.stack[-1]["id"] if st.stack else None,
            "trace": st.trace,
            "start": time.perf_counter(),
        }
        st.stack.append(span)
        return span

    def exit(self, span: dict, end: float, info: dict | None) -> None:
        self._state().stack.pop()
        span["end"] = end
        if info is not None:
            span["info"] = info
        with self._lock:
            self.spans.append(span)


def _wrap(fn, name: str, site: str, rec: Recorder):
    summarize = SUMMARIES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.enter(name, site)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.exit(span, time.perf_counter(), {"raised": True})
            raise
        end = time.perf_counter()
        rec.exit(span, end, summarize(args, result) if summarize else None)
        return result

    return traced


def install(rec: Recorder) -> None:
    """Replace every binding in BINDINGS with a wrapper; fail if one is missing."""
    originals = {}
    for mod_name, attr in BINDINGS:
        mod = importlib.import_module(mod_name)
        if not callable(getattr(mod, attr, None)):
            raise SystemExit(f"tracer: {mod_name}.{attr} is not a function")
        originals[(mod_name, attr)] = (mod, getattr(mod, attr))
    for (mod_name, attr), (mod, fn) in originals.items():
        name = f"{fn.__module__.removeprefix('flrq.')}.{fn.__name__}"
        setattr(mod, attr, _wrap(fn, name, mod_name.removeprefix("flrq."), rec))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import flrq.cli

    rec = Recorder()
    install(rec)
    try:
        return flrq.cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps({"spans": rec.spans}))


if __name__ == "__main__":
    sys.exit(main())
