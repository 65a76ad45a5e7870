"""The benchmark's tracer must see every call it counts and change no output byte.

benchmark/tracer.py wraps functions by their module bindings, so a refactor
that moves a call to another binding, or adds or drops one, breaks its
counter identities without failing any other test.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import flrq
from flrq.cli import main
from flrq.quantize import CLIP_GRID
from test_cli import tree_digest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load_layer_metrics():
    spec = importlib.util.spec_from_file_location("layer_metrics", BENCHMARK / "layer_metrics.py")
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

    layer_metrics = load_layer_metrics()
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
