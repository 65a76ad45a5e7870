"""Per-layer metrics and counter identities from one traced `flrq quantize` run.

Spans come from tracer.py. A span's self time is its duration minus the
durations of its direct children (children run on the span's own thread,
nested inside it). The RTN baseline that the CLI computes after each layer
(``quantize_matrix`` and ``layer_error`` called from ``flrq.cli``, and
everything under them) is reported only as ``cli.rtn_baseline_s``; every
other ``blc.*`` and ``quantize.*`` figure covers the flrq pipeline alone.
Byte and flop counts are computed from array sizes, not measured.
"""

from __future__ import annotations

from collections import defaultdict

MIB = 2**20


class Spans:
    """Index over the span list: durations, self times and RTN membership."""

    def __init__(self, spans: list[dict]):
        self.by_id = {s["id"]: s for s in spans}
        child_time = defaultdict(float)
        for s in spans:
            s["dur"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] += s["dur"]
        for s in spans:
            s["self"] = s["dur"] - child_time[s["id"]]
            s["rtn"] = self._under_rtn(s)
        self.spans = spans

    def _under_rtn(self, s: dict) -> bool:
        while s is not None:
            if s["site"] == "cli" and s["name"] != "blc.flrq_layer":
                return True
            s = self.by_id.get(s["parent"])
        return False

    def select(self, name: str, parent: str | None = None):
        """Pipeline spans (RTN excluded) of ``name``, optionally only those under ``parent``."""
        return [
            s for s in self.spans
            if s["name"] == name and not s["rtn"]
            and (parent is None or self.by_id.get(s["parent"], {}).get("name") == parent)
        ]


def _total(spans, key="dur") -> float:
    return sum(s[key] for s in spans)


def _info(spans, key) -> float:
    return sum(s["info"][key] for s in spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(ix: Spans, traced_wall_s: float, untraced_median_s: float) -> dict:
    """Per-layer metric values, keyed by the per_layer names in BENCHMARK.json."""
    spans = ix.spans
    layers = ix.select("blc.flrq_layer")
    layer_err = ix.select("blc.layer_error")
    select = ix.select("rankselect.select_rank")
    r1 = ix.select("sketch.r1_step")
    gemv = ix.select("linalg.gemv") + ix.select("linalg.gemv_t")
    r1sub = ix.select("linalg.rank1_subtract")
    search = ix.select("quantize.search_clip")
    qm = ix.select("quantize.quantize_matrix")
    deq = ix.select("quantize.dequantize")
    clip = ix.select("quantize.clip")
    reads = ix.select("io.read_container_file")
    writes = ix.select("io.write_bundle")
    busy = _total([s for s in spans if s["parent"] is None])
    rtn = _total([s for s in spans if s["parent"] is None and s["rtn"]])
    search_flop = sum(
        2 * s["info"]["m"] * s["info"]["n"] * s["info"]["tokens"] * (s["info"]["candidates"] + 1)
        for s in search
    )
    layer_durs = [s["dur"] for s in layers]
    tried, kept = _info(select, "tried"), _info(select, "kept")
    epochs = _info(layers, "epochs")
    return {
        "cli.rtn_baseline_s": rtn,
        "io.read_s": _total(reads),
        "io.read_calls": len(reads),
        "io.read_mb": _info(reads, "bytes") / MIB,
        "io.write_bundle_s": _total(writes),
        "io.write_mb": _info(writes, "bytes") / MIB,
        "io.emit_report_s": _total(ix.select("io.emit_report")),
        "blc.channel_scaling_s": _total(ix.select("blc.channel_mean")),
        "blc.layer_s": sum(layer_durs),
        "blc.layer_s_mean": _ratio(sum(layer_durs), len(layer_durs)),
        "blc.layer_s_max": max(layer_durs, default=0.0),
        "blc.layer_self_s": _total(layers, "self"),
        "blc.layer_error_s": _total(layer_err),
        "blc.layer_error_calls": len(layer_err),
        "blc.epochs_run": epochs,
        "blc.useful_epoch_ratio": _ratio(_info(layers, "best_epoch"), epochs),
        "rankselect.select_rank_s": _total(select),
        "rankselect.select_rank_self_s": _total(select, "self"),
        "rankselect.select_rank_calls": len(select),
        "rankselect.components_tried": tried,
        "rankselect.components_kept": kept,
        "rankselect.keep_ratio": _ratio(kept, tried),
        "sketch.r1_step_s": _total(r1),
        "sketch.r1_step_self_s": _total(r1, "self"),
        "sketch.r1_step_calls": len(r1),
        "sketch.gemv_per_component": _ratio(len(gemv), len(r1)),
        "linalg.gemv_s": _total(gemv),
        "linalg.gemv_calls": len(gemv),
        "linalg.gemv_gb_computed": _info(gemv, "bytes") / 1e9,
        "linalg.rank1_subtract_s": _total(r1sub),
        "linalg.rank1_subtract_calls": len(r1sub),
        "linalg.rank1_subtract_gb_computed": _info(r1sub, "bytes") / 1e9,
        "quantize.search_clip_s": _total(search),
        "quantize.search_clip_self_s": _total(search, "self"),
        "quantize.search_clip_calls": len(search),
        "quantize.clip_candidates": len(ix.select("quantize.quantize_matrix", parent="quantize.search_clip")),
        "quantize.search_gemm_gflop_computed": search_flop / 1e9,
        "quantize.quantize_matrix_s": _total(qm),
        "quantize.quantize_matrix_calls": len(qm),
        "quantize.dequantize_s": _total(deq),
        "quantize.dequantize_calls": len(deq),
        "quantize.clip_s": _total(clip),
        "share.fake_quant": _ratio(_total(qm + deq + clip, "self"), busy),
        "share.search_gemm": _ratio(_total(search, "self") + _total(layer_err, "self"), busy),
        "share.select_rank": _ratio(_total(select), busy),
        "trace.busy_s": busy,
        "trace.overhead_s": traced_wall_s - untraced_median_s,
    }


def identity_errors(ix: Spans, values: dict, it: int, grid_len: int, meta_epochs: int):
    """Counter identities that must hold; each mismatch means a wrapper missed a call."""
    search = ix.select("quantize.search_clip")
    errors = []

    def check(label, got, want):
        if got != want:
            errors.append(f"{label}: {got} != {want}")

    r1_calls = values["sketch.r1_step_calls"]
    check("gemv calls == (2*it+2) * r1_step calls", values["linalg.gemv_calls"], (2 * it + 2) * r1_calls)
    check("r1_step calls == selection steps", r1_calls, values["rankselect.components_tried"])
    check("clip candidates == search results", values["quantize.clip_candidates"], _info(search, "candidates"))
    if all(s["info"]["candidates"] for s in search):
        check("clip candidates == searches * grid", values["quantize.clip_candidates"], len(search) * grid_len)
    check("epochs run == sum len(blc_trace) in meta.json", values["blc.epochs_run"], meta_epochs)
    return errors
