"""The benchmark's tracer must see every call it counts and change no output byte.

benchmark/tracer.py wraps functions by their module bindings, so a refactor
that moves a call to another binding, or adds or drops one, breaks its
counter identities without failing any other test.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import flrq
from flrq import cli
from flrq.cli import main
from flrq.quantize import CLIP_GRID
from test_cli import tree_digest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load_benchmark(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_keeps_bytes_and_counter_identities(tmp_path):
    assert main(["gen-synth", "--family", "outlier_channels", "--m", "96", "--n", "160",
                 "--tokens", "64", "--layers", "2", "--seed", "3",
                 "--out-dir", str(tmp_path / "in")]) == 0
    argv = ["quantize", "--in", str(tmp_path / "in"), "--d", "2", "--epochs", "3",
            "--threads", "2", "--seed", "3"]
    assert main([*argv, "--out-dir", str(tmp_path / "plain")]) == 0
    spans_path, traced = tmp_path / "spans.json", tmp_path / "traced"
    env = dict(os.environ, PYTHONPATH=str(Path(flrq.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(BENCHMARK / "tracer.py"), str(spans_path), *argv,
         "--out-dir", str(traced)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert tree_digest(traced) == tree_digest(tmp_path / "plain")

    layer_metrics = load_benchmark("layer_metrics")
    ix = layer_metrics.Spans(json.loads(spans_path.read_text())["spans"])
    values = layer_metrics.compute(ix, 0.0, 0.0)
    report = json.loads((traced / "report.json").read_text())
    meta_epochs = sum(len(json.loads((traced / name / "meta.json").read_text())["blc_trace"])
                      for name in report["config"]["layers"])
    assert meta_epochs == 6
    errors = layer_metrics.identity_errors(ix, values, it=2, grid_len=len(set(CLIP_GRID)),
                                           meta_epochs=meta_epochs)
    assert errors == []
    assert values["quantize.clip_candidates"] == 6 * len(CLIP_GRID)


@pytest.mark.parametrize("threads", [1, 2])
def test_reader_calibration_is_traced(tmp_path, monkeypatch, threads):
    # The main thread calibrates every layer, the next one while a worker runs layer 0;
    # the tracer must see each channel_mean there, and every identity must still hold.
    tracer, layer_metrics = load_benchmark("tracer"), load_benchmark("layer_metrics")
    assert main(["gen-synth", "--family", "outlier_channels", "--m", "96", "--n", "160",
                 "--tokens", "64", "--layers", "3", "--seed", "5",
                 "--out-dir", str(tmp_path / "in")]) == 0
    argv = ["quantize", "--in", str(tmp_path / "in"), "--d", "2", "--epochs", "3",
            "--threads", str(threads)]
    assert main([*argv, "--out-dir", str(tmp_path / "plain")]) == 0
    reader_calibrated, main_means = threading.Event(), []

    class Recorder(tracer.Recorder):  # marks each span with whether the main thread ran it
        def enter(self, name, site):
            span = super().enter(name, site)
            span["main"] = threading.current_thread() is threading.main_thread()
            if span["main"] and name == "blc.channel_mean":
                main_means.append(span)
                if len(main_means) == 2:  # layer 1's
                    reader_calibrated.set()
            return span

    for mod_name, attr in tracer.BINDINGS:  # each untraced binding is restored after the test
        mod = importlib.import_module(mod_name)
        monkeypatch.setattr(mod, attr, getattr(mod, attr))
    rec = Recorder()
    tracer.install(rec)
    traced_layer = cli.flrq_layer

    def gated_layer(w, calib, cfg):  # --seed 0: layer 0 runs once the reader has calibrated 1
        if cfg.seed == 0:
            assert reader_calibrated.wait(timeout=30)
        return traced_layer(w, calib, cfg)

    monkeypatch.setattr(cli, "flrq_layer", gated_layer)
    assert main([*argv, "--out-dir", str(tmp_path / "traced")]) == 0
    assert tree_digest(tmp_path / "traced") == tree_digest(tmp_path / "plain")

    ix = layer_metrics.Spans(rec.spans)
    on_main = [s["main"] for s in ix.spans if s["name"] == "blc.channel_mean"]
    assert on_main == [True] * 3
    values = layer_metrics.compute(ix, 0.0, 0.0)
    assert values["blc.channel_scaling_s"] > 0
    meta_epochs = sum(len(json.loads(meta.read_text())["blc_trace"])
                      for meta in (tmp_path / "traced").glob("layer_*/meta.json"))
    assert meta_epochs == 9
    errors = layer_metrics.identity_errors(ix, values, it=2, grid_len=len(set(CLIP_GRID)),
                                           meta_epochs=meta_epochs)
    assert errors == []
