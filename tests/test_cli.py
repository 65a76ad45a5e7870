import csv
import dataclasses
import hashlib
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import flrq
import paper
from flrq import blc, cli, linalg, quantize
from flrq import io as flrq_io
from flrq.cli import build_parser, main
from flrq.config import FlrqConfig
from flrq.errors import FormatError
from flrq.io import DTYPE_F32, TensorContainer, container_from_array, read_bundle, write_container_file
from paper import ABLATIONS


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "layers"
    rc = main([
        "gen-synth", "--family", "outlier_channels", "--m", "64", "--n", "96",
        "--layers", "2", "--tokens", "32", "--outlier-count", "1",
        "--outlier-boost", "20", "--seed", "11", "--out-dir", str(out),
    ])
    assert rc == 0
    return out


def gen_synth(out: Path, *flags) -> Path:
    """``out``, filled with layers by ``gen-synth`` with ``flags``."""
    assert main(["gen-synth", *flags, "--out-dir", str(out)]) == 0
    return out


def write_layer(directory: Path, w, x) -> Path:
    directory.mkdir(parents=True)
    write_container_file(directory / "weights.flrqten", container_from_array(w))
    write_container_file(directory / "activations.flrqten", container_from_array(x))
    return directory


BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"

EXPERIMENTS = ("ablate",)  # commands of experiments/paper.py
# and its retired ones, now ablate --which rank and ablate --which svd
PAPER_COMMANDS = (*EXPERIMENTS, "rank-sweep", "compare-svd")


def run(argv) -> int:
    """Run a command in this process: flrq's CLI, or the paper driver for an experiment."""
    return (paper.main if argv[0] in PAPER_COMMANDS else main)(argv)


def run_cli(*argv, **env_vars) -> subprocess.CompletedProcess:
    """Run a command in a fresh interpreter, so an uncaught exception shows as a traceback.

    Experiments run as ``python experiments/paper.py`` with only ``src`` on PYTHONPATH.
    ``env_vars`` are set in the command's environment.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(flrq.__file__).parents[1]), **env_vars)
    entry = [paper.__file__] if argv[0] in PAPER_COMMANDS else ["-m", "flrq.cli"]
    return subprocess.run(
        [sys.executable, *entry, *map(str, argv)], capture_output=True, text=True, env=env,
    )


# Removed flags: each must be rejected by name, not ignored or read as a prefix of another flag.
RETIRED_FLAGS = {
    "group-size-0": ["quantize", "--group-size", "0"],
    "clip-grid-above-1": ["quantize", "--clip-grid", "1.5"],
    "clip-grid-empty": ["quantize", "--clip-grid", ","],
    "t-nan": ["quantize", "--t", "nan"],
    "alpha-exponent-nan": ["quantize", "--alpha-exponent", "nan"],
    "d-fp-32": ["quantize", "--d-fp", "32"],
    "slope-window-1": ["quantize", "--slope-window", "1"],
    "gen-synth-f32": ["gen-synth", "--f32"],
    "gen-synth-nu-inf": ["gen-synth", "--nu", "inf"],
    # ablate reads --in; the generator flags belong to gen-synth alone.
    **{f"ablate-{flag}": ["ablate", f"--{flag}", "2", "--which", "it"]
       for flag in ("layers", "m", "n", "tokens", "family", "outlier-count", "outlier-boost")},
}
# Removed commands: each must be rejected by name, whatever flags follow it.
RETIRED_COMMANDS = {
    "compare-svd-rank-0": ["compare-svd", "--rank", "0"],
    "compare-svd-seeds-0": ["compare-svd", "--seeds", "0"],
    "compare-svd-seeds-negative": ["compare-svd", "--seeds", "-1"],
    "compare-svd-threads": ["compare-svd", "--threads", "2"],
    "rank-sweep-group-size": ["rank-sweep", "--group-size", "64"],
    "rank-sweep-it": ["rank-sweep", "--it", "2"],
    "rank-sweep-max-rank-negative": ["rank-sweep", "--max-rank", "-1"],
    "rank-sweep-threads": ["rank-sweep", "--threads", "2"],
}
BAD_FLAGS = {
    **RETIRED_FLAGS,
    **RETIRED_COMMANDS,
    "epochs-0": ["quantize", "--epochs", "0"],
    "x-negative": ["quantize", "--x", "-1"],
    "it-negative": ["quantize", "--it", "-1"],
    "threads-0": ["quantize", "--threads", "0"],
    # non-finite values: NaN slips past `value < 0`-style checks
    "x-nan": ["quantize", "--x", "nan"],
    "gen-synth-outlier-boost-nan": [
        "gen-synth", "--family", "outlier_channels", "--outlier-boost", "nan",
    ],
    "gen-synth-outlier-boost-inf": [
        "gen-synth", "--family", "outlier_channels", "--outlier-boost", "inf",
    ],
    "gen-synth-m-0": ["gen-synth", "--m", "0"],
    # count flags: none of them can be 0 or negative
    "gen-synth-layers-negative": ["gen-synth", "--layers", "-1"],
    # --threads belongs to quantize alone; elsewhere it would be silently ignored.
    "gen-synth-threads": ["gen-synth", "--threads", "2"],
    "ablate-threads": ["ablate", "--which", "it", "--threads", "2"],
}
READS_LAYERS = ("quantize", *PAPER_COMMANDS)  # the commands that take --in, or took it
BAD_FLAG_CASES = [pytest.param(argv, False, id=name) for name, argv in BAD_FLAGS.items()] + [
    pytest.param(argv, True, id=f"{name}-bad-magic")
    for name, argv in BAD_FLAGS.items()
    if argv[0] in READS_LAYERS
]


class TestGenSynth:
    def test_writes_layer_dirs(self, synth_dir):
        assert (synth_dir / "layer_000" / "weights.flrqten").exists()
        assert (synth_dir / "layer_001" / "activations.flrqten").exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["gen-synth", "--m", "16", "--n", "16", "--layers", "1",
                  "--seed", "3", "--out-dir", str(out)])
        assert tree_digest(a) == tree_digest(b)


class TestQuantizeCommand:
    def test_report_and_bundles(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        rc = main(["quantize", "--in", str(synth_dir), "--out-dir", str(out),
                   "--seed", "11", "--d", "4"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["layers"]) == 2
        for row in report["layers"]:
            assert row["rel_error"] < row["rtn_rel_error"]
            assert row["rank"] <= 8
        assert report["config"]["seed"] == 11
        assert (out / "layer_000" / "meta.json").exists()

    def test_report_carries_the_benchmark_contract(self, synth_dir, tmp_path, monkeypatch):
        # benchmark/run.py checks its traced counters against these report fields.
        searches, candidates = [], []
        search, quantize_matrix = blc.search_clip, quantize.quantize_matrix

        def traced_search(*args):
            found = search(*args)
            searches.append(len(found.grid_errors))
            return found

        monkeypatch.setattr(blc, "search_clip", traced_search)
        monkeypatch.setattr(quantize, "quantize_matrix",
                            lambda *args: candidates.append(1) or quantize_matrix(*args))
        out = tmp_path / "out"
        assert main(["quantize", "--in", str(synth_dir), "--out-dir", str(out), "--d", "2",
                     "--epochs", "3"]) == 0
        config = json.loads((out / "report.json").read_text())["config"]
        assert (config["it"], config["layers"]) == (2, ["layer_000", "layer_001"])
        assert config["clip_grid"] == list(quantize.CLIP_GRID)
        grid_len = len(set(config["clip_grid"]))
        epochs = computed = 0
        for name in config["layers"]:
            ranks = [r["rank"] for r in json.loads((out / name / "meta.json").read_text())["blc_trace"]]
            # Epochs after a second rank-0 epoch are copied, not computed.
            rank0 = [epoch for epoch, rank in enumerate(ranks, start=1) if rank == 0]
            epochs += len(ranks)
            computed += rank0[1] if len(rank0) > 1 else len(ranks)
        assert epochs == 6
        assert 0 < computed < epochs  # this tree replays some epochs
        assert searches == [grid_len] * computed
        assert len(candidates) == grid_len * computed

    def test_gaussian_layer_beats_plain_rtn(self, tmp_path):
        src = tmp_path / "gauss"
        main(["gen-synth", "--family", "gaussian", "--m", "64", "--n", "96",
              "--layers", "1", "--tokens", "32", "--seed", "7", "--out-dir", str(src)])
        out = tmp_path / "out"
        rc = main(["quantize", "--in", str(src), "--out-dir", str(out),
                   "--seed", "7", "--d", "4"])
        assert rc == 0
        row = json.loads((out / "report.json").read_text())["layers"][0]
        assert row["rank"] <= 8
        assert row["rel_error"] < row["rtn_rel_error"]

    def test_x_zero_means_no_factors(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        rc = main(["quantize", "--in", str(synth_dir), "--out-dir", str(out),
                   "--seed", "11", "--d", "4", "--x", "0"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert all(row["rank"] == 0 for row in report["layers"])

    def test_rerun_byte_identical(self, synth_dir, tmp_path):
        outs = [tmp_path / f"out{i}" for i in range(2)]
        for out in outs:
            rc = main(["quantize", "--in", str(synth_dir), "--out-dir", str(out),
                       "--seed", "5", "--d", "3"])
            assert rc == 0
        assert tree_digest(outs[0]) == tree_digest(outs[1])

    @staticmethod
    def pipeline_tree(root: Path, layers: int) -> Path:
        """Layer i has 8 + i rows, so its weights name it, and tokens > n, so L is not X."""
        g = np.random.default_rng(4)
        for idx in range(layers):
            write_layer(root / f"layer_{idx:03d}",
                        g.standard_normal((8 + idx, 16)), g.standard_normal((16, 40)))
        return root

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_x_freed_before_its_layer_quantizes(self, tmp_path, monkeypatch, threads):
        xs, alive = {}, {}  # layer index -> weakref to its X; -> whether X lived at flrq_layer
        read, quantize_layer = cli.read_layer_inputs, cli.flrq_layer

        def traced_read(path):
            w, x = read(path)
            xs[w.shape[0] - 8] = weakref.ref(x)
            return w, x

        def traced_layer(w, calib, cfg):  # --seed 0: cfg.seed is the layer index
            alive[cfg.seed] = xs[cfg.seed]() is not None
            return quantize_layer(w, calib, cfg)

        monkeypatch.setattr(cli, "read_layer_inputs", traced_read)
        monkeypatch.setattr(cli, "flrq_layer", traced_layer)
        rc = main(["quantize", "--in", str(self.pipeline_tree(tmp_path / "in", 3)),
                   "--out-dir", str(tmp_path / "out"), "--threads", str(threads)])
        assert rc == 0
        assert alive == {0: False, 1: False, 2: False}

    def test_reader_calibrates_one_layer_ahead(self, tmp_path, monkeypatch):
        # Layer 0 runs until the main thread has calibrated layer 1, so the reader
        # calibrates while the one worker is busy, then waits for it.
        lock, finished, unfinished, on_main = threading.Lock(), [], [], {}
        xs, live_xs = {}, []  # layer index -> weakref to its X; X's alive at the reader's calibrate
        reader_calibrated = threading.Event()
        read, calib_one, quantize_layer = cli.read_layer_inputs, cli.calibrate, cli.flrq_layer

        def traced_read(path):
            with lock:  # layers read before this one and not finished yet
                unfinished.append(int(path.name[-3:]) - len(finished))
            w, x = read(path)
            xs[w.shape[0] - 8] = weakref.ref(x)
            return w, x

        def traced_calibrate(w, x):
            on_main[w.shape[0] - 8] = threading.current_thread() is threading.main_thread()
            if on_main[w.shape[0] - 8]:
                live_xs.append(sum(ref() is not None for ref in xs.values()))
                if w.shape[0] - 8 == 1:
                    reader_calibrated.set()
            return calib_one(w, x)

        def traced_layer(w, calib, cfg):
            if cfg.seed == 0:
                assert reader_calibrated.wait(timeout=30)
            layer = quantize_layer(w, calib, cfg)
            with lock:
                finished.append(cfg.seed)
            return layer

        monkeypatch.setattr(cli, "read_layer_inputs", traced_read)
        monkeypatch.setattr(cli, "calibrate", traced_calibrate)
        monkeypatch.setattr(cli, "flrq_layer", traced_layer)
        rc = main(["quantize", "--in", str(self.pipeline_tree(tmp_path / "in", 4)),
                   "--out-dir", str(tmp_path / "out"), "--threads", "1"])
        assert rc == 0
        assert sorted(finished) == [0, 1, 2, 3]
        assert on_main == dict.fromkeys(range(4), True)  # the reader calibrates every layer
        assert max(unfinished) == 1  # the reader is never more than one layer ahead
        assert set(live_xs) == {1}  # its own: no worker is calibrating beside it

    def test_reader_calibrates_with_one_x_alive(self, tmp_path, monkeypatch):
        # As many workers as layers: each worker is free, yet the main thread calibrates
        # every layer, and no layer's X is alive while the next one is calibrated.
        xs, on_main, live_xs = [], [], []  # weakrefs to each X read; per calibrate call
        read, calib_one = cli.read_layer_inputs, cli.calibrate

        def traced_read(path):
            w, x = read(path)
            xs.append(weakref.ref(x))
            return w, x

        def traced_calibrate(w, x):
            on_main.append(threading.current_thread() is threading.main_thread())
            live_xs.append(sum(ref() is not None for ref in xs))
            return calib_one(w, x)

        monkeypatch.setattr(cli, "read_layer_inputs", traced_read)
        monkeypatch.setattr(cli, "calibrate", traced_calibrate)
        rc = main(["quantize", "--in", str(self.pipeline_tree(tmp_path / "in", 3)),
                   "--out-dir", str(tmp_path / "out"), "--threads", "3"])
        assert rc == 0
        assert on_main == [True] * 3
        assert live_xs == [1] * 3

    def test_free_worker_takes_the_next_layer(self, tmp_path, monkeypatch):
        # Layer 0 runs until layer 2 has started; layer 1 is done long before,
        # so its worker must take layer 2 without waiting for layer 0.
        g = np.random.default_rng(2)
        for idx in range(3):
            write_layer(tmp_path / "in" / f"layer_{idx:03d}",
                        g.standard_normal((8, 16)), g.standard_normal((16, 4)))
        third_started, waits = threading.Event(), []
        quantize_layer = cli.flrq_layer

        def traced_layer(w, x, cfg):  # --seed 0: cfg.seed is the layer index
            if cfg.seed == 2:
                third_started.set()
            elif cfg.seed == 0:
                waits.append(third_started.wait(timeout=30))
            return quantize_layer(w, x, cfg)

        monkeypatch.setattr(cli, "flrq_layer", traced_layer)
        rc = main(["quantize", "--in", str(tmp_path / "in"), "--out-dir", str(tmp_path / "out"),
                   "--threads", "2"])
        assert rc == 0
        assert waits == [True]

    def test_blas_threads_pinned(self, synth_dir, tmp_path, monkeypatch, capsys, openblas):
        seen = []
        quantize_layer = cli.flrq_layer

        def traced_layer(*args):
            seen.append(openblas())
            return quantize_layer(*args)

        monkeypatch.setattr(cli, "flrq_layer", traced_layer)
        rc = main(["quantize", "--in", str(synth_dir), "--out-dir", str(tmp_path / "out"),
                   "--threads", "2"])
        assert rc == 0
        assert seen == [1, 1]
        assert "(2 worker(s) x 1 BLAS thread(s))" in capsys.readouterr().err

    def test_unreachable_blas_runs_unpinned(self, synth_dir, tmp_path, monkeypatch, capsys):
        def no_library(name):
            raise OSError(f"cannot load {name}")

        monkeypatch.setattr(linalg.ctypes, "CDLL", no_library)
        assert linalg._pin_blas() is None
        monkeypatch.setattr(cli, "BLAS_THREADS", None)
        rc = main(["quantize", "--in", str(synth_dir), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "(1 worker(s) x BLAS unpinned)" in capsys.readouterr().err

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # Layers large enough for OpenBLAS to split its GEMMs across threads.
        assert main(["gen-synth", "--family", "outlier_channels", "--m", "256", "--n", "256",
                     "--tokens", "512", "--layers", "2", "--seed", "4",
                     "--out-dir", str(tmp_path / "in")]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(flrq.__file__).parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        digests = set()
        for threads in ("1", "2"):
            for blas_env in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
                out = tmp_path / f"out_{threads}_{len(blas_env)}"
                subprocess.run(
                    [sys.executable, "-m", "flrq.cli", "quantize", "--in", str(tmp_path / "in"),
                     "--out-dir", str(out), "--d", "3", "--threads", threads],
                    env={**env, **blas_env}, check=True, capture_output=True,
                )
                digests.add(tree_digest(out))
        assert len(digests) == 1

    def test_bytes_independent_of_threads_at_200(self, tmp_path):
        # Without the pin, --threads 1 with OPENBLAS_NUM_THREADS=2 gave another report.json here.
        assert main(["gen-synth", "--family", "outlier_channels", "--m", "200", "--n", "200",
                     "--tokens", "700", "--layers", "2", "--seed", "4",
                     "--out-dir", str(tmp_path / "in")]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(flrq.__file__).parents[1]))
        digests = set()
        for threads in ("1", "2"):
            for blas in ("1", "2"):
                out = tmp_path / f"out_{threads}_{blas}"
                subprocess.run(
                    [sys.executable, "-m", "flrq.cli", "quantize", "--in", str(tmp_path / "in"),
                     "--out-dir", str(out), "--d", "2", "--epochs", "3", "--threads", threads],
                    env={**env, "OPENBLAS_NUM_THREADS": blas}, check=True, capture_output=True,
                )
                digests.add(tree_digest(out))
        assert len(digests) == 1

    def test_zero_channel_with_many_tokens(self, tmp_path):
        # tokens > n, so the Gram factor is computed; a dead channel makes X X^T singular.
        g = np.random.default_rng(5)
        x = g.standard_normal((48, 200))
        x[9] = 0.0
        layer = write_layer(tmp_path / "dead", g.standard_normal((32, 48)), x)
        out = tmp_path / "out"
        assert main(["quantize", "--in", str(layer), "--out-dir", str(out)]) == 0
        back, _ = read_bundle(out / "dead")
        assert back.warnings == ["1 zero-activation channel(s) floored at 1e-08"]

    def test_overflowing_tokens_are_not_floored(self, tmp_path):
        # X's squares overflow; W is scaled down by as much, so ||W X||_F stays finite.
        g = np.random.default_rng(0)
        w, x = g.standard_normal((24, 64)), g.standard_normal((64, 48))
        layer = write_layer(tmp_path / "big", np.ldexp(w, -600), np.ldexp(x, 600))
        proc = run_cli("quantize", "--in", layer, "--out-dir", tmp_path / "out")
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        meta = json.loads((tmp_path / "out" / "big" / "meta.json").read_text())
        assert not any("floored" in warning for warning in meta["warnings"])

    @pytest.mark.parametrize("flag, value", [("--x", "inf"), ("--x", "1e309")])
    def test_infinite_flag_echo_is_strict_json(self, synth_dir, tmp_path, flag, value):
        out = tmp_path / "out"
        assert main(["quantize", "--in", str(synth_dir), "--out-dir", str(out), flag, value]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert report["config"]["x"] == "inf"
        metas = sorted(out.glob("layer_*/meta.json"))
        assert len(metas) == 2
        for path in metas:
            meta = json.loads(path.read_text(), parse_constant=reject)
            assert meta["config"]["x"] == "inf"
            # the slope is +inf until the window fills, and reads back as a float
            assert meta["rank_trace"]["steps"][0]["slope"] == "inf"
            assert read_bundle(path.parent)[0].rank_trace.steps[0].slope == float("inf")

    def test_flags_are_config_fields(self):
        # A renamed flag must not silently fall back to the config default.
        args = vars(build_parser().parse_args(["quantize", "--in", "layers"]))
        flags = set(args) - {"command", "run", "out_dir", "in_dir", "threads"}
        assert flags == {f.name for f in dataclasses.fields(FlrqConfig)}

    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(["quantize", "--in", str(tmp_path / "nope"), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("d", [2, 4])
    def test_all_zero_layer_is_rank_zero(self, tmp_path, d):
        layer = write_layer(tmp_path / "zero", np.zeros((40, 30)), np.ones((30, 8)))
        out = tmp_path / "out"
        rc = main(["quantize", "--in", str(layer), "--out-dir", str(out), "--d", str(d)])
        assert rc == 0
        row = json.loads((out / "report.json").read_text())["layers"][0]
        assert (row["rank"], row["rel_error"], row["rtn_rel_error"]) == (0, 0.0, 0.0)
        back, _ = read_bundle(out / "zero")
        assert not back.reconstruct().any()

    def test_single_layer_named_by_its_directory(self, synth_dir, tmp_path, monkeypatch):
        # `--in .` names the layer after the working directory, not "".
        monkeypatch.chdir(synth_dir / "layer_001")
        out = tmp_path / "out"
        assert main(["quantize", "--in", ".", "--out-dir", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["config"]["layers"] == ["layer_001"]
        assert sorted(p.name for p in out.iterdir()) == ["layer_001", "report.json"]
        assert run(["ablate", "--which", "rank", "--in", ".", "--out-dir", str(out)]) == 0
        sweep = json.loads((out / "ablate_rank.json").read_text())
        assert sweep["config"]["layers"] == ["layer_001"]

    def test_gapped_tree_passes_benchmark_verify(self, tmp_path):
        # Each bundle is named after its input layer, so the verifier reads the right inputs.
        g = np.random.default_rng(3)
        for name in ("layer_000", "layer_002", "layer_007"):
            write_layer(tmp_path / "in" / name, g.standard_normal((16, 32)),
                        g.standard_normal((32, 48)))
        out = tmp_path / "out"
        assert main(["quantize", "--in", str(tmp_path / "in"), "--out-dir", str(out),
                     "--d", "2", "--epochs", "3"]) == 0
        assert sorted(p.name for p in out.glob("layer_*")) == ["layer_000", "layer_002", "layer_007"]
        env = dict(os.environ, PYTHONPATH=str(Path(flrq.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, str(BENCHMARK / "helper.py"), "verify", str(out), str(tmp_path / "in")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr


class TestStreamedActivations:
    def test_reader_leaves_a_wide_payload_unread(self, tmp_path):
        g = np.random.default_rng(0)
        w, x = g.standard_normal((4, 8)), g.standard_normal((8, 40))
        x[3, 17] = np.nan  # only calibrate's pass over the chunks can find it
        layer = write_layer(tmp_path / "wide", w, x)
        _, source = cli.read_layer_inputs(layer)
        st = os.stat(layer / cli.ACTIVATIONS_FILE)
        assert isinstance(source, flrq_io.ActivationSource) and weakref.ref(source)() is source
        assert source.shape == (8, 40) and source.key == (st.st_dev, st.st_ino)
        with pytest.raises(FormatError, match="non-finite"):
            blc.calibrate(w, source)
        narrow = write_layer(tmp_path / "narrow", w, g.standard_normal((8, 8)))
        assert isinstance(cli.read_layer_inputs(narrow)[1], np.ndarray)  # tokens <= n: X is L

    @pytest.mark.parametrize("corrupt", ["truncated", "trailing-bytes", "dims-past-file-size",
                                         "n-not-w-columns"])
    def test_bad_header_fails_before_any_chunk(self, tmp_path, monkeypatch, capsys, corrupt):
        g = np.random.default_rng(1)
        x = g.standard_normal((9 if corrupt == "n-not-w-columns" else 8, 40))
        layer = write_layer(tmp_path / "layer", g.standard_normal((4, 8)), x)
        path = layer / cli.ACTIVATIONS_FILE
        data = path.read_bytes()
        if corrupt == "truncated":
            path.write_bytes(data[:-4])
        elif corrupt == "trailing-bytes":
            path.write_bytes(data + bytes(1))
        elif corrupt == "dims-past-file-size":  # tokens, the second dim, at bytes 25..33
            path.write_bytes(data[:25] + struct.pack("<Q", 2**61) + data[33:])
        reads = []
        monkeypatch.setattr(flrq_io.ActivationSource, "chunks", lambda source, width: reads.append(width))
        assert main(["quantize", "--in", str(layer), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert reads == []
        assert len(err) == 1 and cli.ACTIVATIONS_FILE in err[0]

    @pytest.mark.parametrize("argv", [["quantize"], ["ablate", "--which", "blc"]],
                             ids=["quantize", "ablate-blc"])
    def test_source_writes_the_bytes_of_the_whole_array(self, tmp_path, monkeypatch, argv):
        # Two chunks and one token: X streams, and the outputs equal those computed from X itself.
        src = gen_synth(tmp_path / "in", "--family", "outlier_channels", "--layers", "2", "--m", "64",
                        "--n", "128", "--outlier-count", "2", "--outlier-boost", "30",
                        "--tokens", str(2 * blc.CALIBRATION_CHUNK + 1), "--seed", "3")
        argv = [*argv, "--in", str(src), "--d", "2", "--seed", "3"]
        assert run([*argv, "--out-dir", str(tmp_path / "streamed")]) == 0
        read = cli.read_layer_inputs

        def read_whole(path):
            w, source = read(path)
            assert isinstance(source, flrq_io.ActivationSource)
            return w, linalg.as_matrix(flrq_io.read_container_file(source.path).to_array())

        monkeypatch.setattr(cli, "read_layer_inputs", read_whole)
        assert run([*argv, "--out-dir", str(tmp_path / "whole")]) == 0
        assert tree_digest(tmp_path / "streamed") == tree_digest(tmp_path / "whole")


class TestRankSweep:
    def test_rank1_layer_error_collapses(self, tmp_path):
        g = np.random.default_rng(0)
        u, v = g.standard_normal(48), g.standard_normal(64)
        w = np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)) * 480
        w += 0.01 * g.standard_normal((48, 64))
        layer = write_layer(tmp_path / "layer", w, g.standard_normal((64, 16)))
        out = tmp_path / "sweep"
        rc = paper.main(["ablate", "--which", "rank", "--in", str(layer), "--d", "4",
                         "--seed", "1", "--out-dir", str(out)])
        assert rc == 0
        with open(out / "ablate_rank.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["r"]) for r in rows] == list(range(33))
        errs = [float(r["rel_error"]) for r in rows]
        assert errs[1] <= 0.1 * errs[0]
        amaxes = [float(r["amax"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(amaxes, amaxes[1:]))

    def test_small_layer_swept_to_its_rank_silently(self, tmp_path, capsys):
        # A layer with min(m, n) < 32 gives the rows r = 0 ... min(m, n), and no warning.
        g = np.random.default_rng(0)
        layer = write_layer(tmp_path / "small", g.standard_normal((6, 20)),
                            g.standard_normal((20, 8)))
        out = tmp_path / "sweep"
        rc = paper.main(["ablate", "--which", "rank", "--in", str(layer), "--seed", "1",
                         "--out-dir", str(out)])
        assert rc == 0
        with open(out / "ablate_rank.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["r"]) for r in rows] == list(range(7))
        assert "warning" not in capsys.readouterr().err


class TestAblate:
    def test_unknown_name_lists_valid(self, tmp_path, capsys):
        rc = paper.main(["ablate", "--which", "bogus", "--in", str(tmp_path),
                         "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        for name in ("it", "blc", "x", "fixed-vs-flex"):
            assert name in err

    def test_svd_never_calibrates(self, tmp_path, monkeypatch):
        # svd reads only W, so no layer is calibrated, and a layer over the exact-SVD
        # guard is refused before any calibration.
        calibrated = []
        monkeypatch.setattr(cli, "calibrate", lambda w, x: calibrated.append(w.shape))
        src = gen_synth(tmp_path / "in", "--layers", "2", "--m", "16", "--n", "24")
        assert paper.main(["ablate", "--which", "svd", "--in", str(src),
                           "--out-dir", str(tmp_path / "out")]) == 0
        g = np.random.default_rng(0)
        big = write_layer(tmp_path / "big", g.standard_normal((1025, 1025)),
                          g.standard_normal((1025, 1)))
        assert paper.main(["ablate", "--which", "svd", "--in", str(big),
                           "--out-dir", str(tmp_path / "big_out")]) == 3
        assert calibrated == []

    def test_it_ablation_extraction_error_monotone(self, tmp_path):
        src = gen_synth(tmp_path / "in", "--family", "outlier_channels", "--layers", "2",
                        "--m", "96", "--n", "96", "--seed", "0")
        out = tmp_path / "ab"
        rc = paper.main(["ablate", "--which", "it", "--in", str(src), "--d", "3", "--seed", "0",
                         "--out-dir", str(out)])
        assert rc == 0
        rows = json.loads((out / "ablate_it.json").read_text())["rows"]
        by_layer = {}
        for row in rows:
            by_layer.setdefault(row["layer"], []).append((row["it"], row["sketch_residual"]))
        for hist in by_layer.values():
            hist.sort()
            vals = [v for _, v in hist]
            assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_blc_ablation_two_bit_wins(self, tmp_path):
        src = gen_synth(tmp_path / "in", "--family", "outlier_channels", "--layers", "10",
                        "--m", "128", "--n", "128", "--outlier-boost", "30",
                        "--outlier-count", "2", "--seed", "0")
        out = tmp_path / "ab"
        rc = paper.main(["ablate", "--which", "blc", "--in", str(src), "--d", "2", "--seed", "0",
                         "--out-dir", str(out)])
        assert rc == 0
        rows = json.loads((out / "ablate_blc.json").read_text())["rows"]
        wins = sum(row["improved"] for row in rows)
        assert wins >= 9

    def test_fixed_vs_flex_memory(self, tmp_path):
        src = gen_synth(tmp_path / "in", "--family", "outlier_channels", "--layers", "3",
                        "--m", "128", "--n", "128", "--outlier-boost", "30",
                        "--outlier-count", "2", "--seed", "0")
        out = tmp_path / "ab"
        rc = paper.main(["ablate", "--which", "fixed-vs-flex", "--in", str(src), "--d", "4",
                         "--seed", "0", "--out-dir", str(out)])
        assert rc == 0
        rows = json.loads((out / "ablate_fixed_vs_flex.json").read_text())["rows"]
        for row in rows:
            assert row["flex_extra_bits"] <= row["fixed_extra_bits"]

    def test_blc_on_repeats_quantize(self, tmp_path):
        # The README recipe: ablate on quantize's tree, --d and --seed explains its rows,
        # so the two commands must seed layers and default the pipeline alike.
        src = gen_synth(tmp_path / "in", "--family", "outlier_channels", "--layers", "3",
                        "--m", "128", "--n", "128", "--outlier-boost", "30",
                        "--outlier-count", "2", "--seed", "7")
        out = tmp_path / "out"
        assert main(["quantize", "--in", str(src), "--d", "2", "--seed", "7",
                     "--out-dir", str(out / "q")]) == 0
        assert paper.main(["ablate", "--which", "blc", "--in", str(src), "--d", "2",
                           "--seed", "7", "--out-dir", str(out / "ab")]) == 0
        report = json.loads((out / "q" / "report.json").read_text())
        ablation = json.loads((out / "ab" / "ablate_blc.json").read_text())
        assert ablation["config"]["layers"] == report["config"]["layers"]
        assert ([row["blc_on_rel_error"] for row in ablation["rows"]]
                == [layer["rel_error"] for layer in report["layers"]])
        assert any(row["blc_on_rel_error"] < row["blc_off_rel_error"] for row in ablation["rows"])

    def test_blc_off_repeats_a_single_epoch_quantize(self, tmp_path):
        # BLC off is quantize --epochs 1: the same exact error, bit for bit.
        src = gen_synth(tmp_path / "in", "--family", "outlier_channels", "--layers", "3",
                        "--m", "128", "--n", "128", "--outlier-boost", "30",
                        "--outlier-count", "2", "--seed", "7")
        out = tmp_path / "out"
        assert main(["quantize", "--in", str(src), "--d", "2", "--epochs", "1", "--seed", "7",
                     "--out-dir", str(out / "q")]) == 0
        assert paper.main(["ablate", "--which", "blc", "--in", str(src), "--d", "2",
                           "--seed", "7", "--out-dir", str(out / "ab")]) == 0
        report = json.loads((out / "q" / "report.json").read_text())
        ablation = json.loads((out / "ab" / "ablate_blc.json").read_text())
        assert ([row["blc_off_rel_error"] for row in ablation["rows"]]
                == [layer["rel_error"] for layer in report["layers"]])


class TestCompareSvd:
    def test_rank1_layer_both_residuals_vanish(self, tmp_path):
        g = np.random.default_rng(2)
        w = np.outer(g.standard_normal(32), g.standard_normal(48))
        layer = write_layer(tmp_path / "layer", w, g.standard_normal((48, 8)))
        out = tmp_path / "cmp"
        rc = paper.main(["ablate", "--which", "svd", "--in", str(layer), "--seed", "0",
                         "--out-dir", str(out)])
        assert rc == 0
        [row] = json.loads((out / "ablate_svd.json").read_text())["rows"]
        scale = np.linalg.norm(w)
        assert row["svd_residual"] <= 1e-9 * scale
        assert row["sketch_residual_mean"] <= 1e-6 * scale

    def test_guard_exceeded_is_numerical_error(self, tmp_path):
        layer = tmp_path / "layer"
        layer.mkdir()
        for name, shape in (("weights", (1030, 1030)), ("activations", (1030, 2))):
            ones = np.ones(shape, "<f4").tobytes()
            write_container_file(layer / f"{name}.flrqten", TensorContainer(DTYPE_F32, shape, ones))
        rc = paper.main(["ablate", "--which", "svd", "--in", str(layer),
                         "--out-dir", str(tmp_path / "cmp")])
        assert rc == 3


class TestCommands:
    def test_flrq_lists_only_the_quantizer(self):
        proc = run_cli("--help")
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert "{gen-synth,quantize}" in proc.stdout
        assert main(["rank-sweep", "--in", "layers"]) == 1  # now paper.py ablate --which rank

    def test_paper_driver_lists_the_experiments(self):
        assert "{ablate}" in paper.build_parser().format_help()

    def test_readme_commands_parse(self):
        # A retired command or flag left in the README's examples fails here.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        parsers = {"flrq": build_parser(), "python experiments/paper.py": paper.build_parser()}
        commands = []
        for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
            for line in block.replace("\\\n", " ").splitlines():  # continuation lines joined
                for tool, parser in parsers.items():
                    if line.startswith(f"{tool} "):
                        try:
                            args = parser.parse_args(shlex.split(line[len(tool):], comments=True))
                        except cli.UsageError as exc:
                            pytest.fail(f"README: {line}: {exc}")
                        commands.append(args.command)
        assert set(commands) == {"gen-synth", "quantize", "ablate"}

    def test_readme_library_block_runs(self, capsys):
        # The README's library example runs as written: a name it imports that the
        # package no longer exports fails here.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        [block] = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
        g = np.random.default_rng(0)
        namespace = {"W": g.standard_normal((24, 40)), "X": g.standard_normal((40, 64))}
        exec(block, namespace)
        rank, rel_error = capsys.readouterr().out.split()
        assert int(rank) >= 0 and np.isfinite(float(rel_error))
        assert namespace["W_hat"].shape == (24, 40)


class TestExitCodes:
    def test_usage_error(self):
        assert main(["quantize"]) == 1  # missing --in
        assert paper.main(["ablate", "--which", "it"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize(
        "w_shape, x_shape, nan, bad_file",
        [
            ((8,), (8, 4), False, "weights.flrqten"),  # 1-D weights
            ((4, 8), (6, 3), False, "activations.flrqten"),  # W/X shape mismatch
            ((4, 8), (8, 3), True, "weights.flrqten"),  # non-finite weights
            ((4, 8), (8, 0), False, "activations.flrqten"),  # no calibration tokens
        ],
        ids=["1d-weights", "shape-mismatch", "nan-weights", "zero-tokens"],
    )
    def test_bad_layer_inputs_are_data_errors(self, tmp_path, w_shape, x_shape, nan, bad_file):
        w = np.ones(w_shape)
        if nan:
            w[0, 0] = np.nan
        layer = write_layer(tmp_path / "layer", w, np.ones(x_shape))
        proc = run_cli("quantize", "--in", layer, "--out-dir", tmp_path / "out")
        assert proc.returncode == 2
        assert bad_file in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, bad_magic", BAD_FLAG_CASES)
    def test_bad_flags_are_usage_errors(self, tmp_path, argv, bad_magic):
        g = np.random.default_rng(0)
        w, x = g.standard_normal((8, 16)), g.standard_normal((16, 4))
        layer = write_layer(tmp_path / "layer", w, x)
        if bad_magic:  # flags are checked before any layer file is opened
            (layer / "weights.flrqten").write_bytes(b"NOTFLRQ\0" + bytes(32))
        inputs = ["--in", layer] if argv[0] in READS_LAYERS else []
        proc = run_cli(*argv, *inputs, "--out-dir", tmp_path / "out")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("[flrq] usage error:")
        if argv in RETIRED_FLAGS.values():
            assert f"unrecognized arguments: {argv[1]}" in lines[0]
        if argv in RETIRED_COMMANDS.values():
            assert f"invalid choice: '{argv[0]}'" in lines[0]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("w_scale, x_scale", [(1e153, 1), (1e154, 1), (1e160, 1), (1, 1e160)],
                             ids=["w-1e153", "w-1e154", "w-1e160", "x-1e160"])
    def test_overflowing_layer_is_numerical_error(self, tmp_path, w_scale, x_scale, d):
        g = np.random.default_rng(0)
        w, x = g.standard_normal((8, 16)), g.standard_normal((16, 32))
        layer = write_layer(tmp_path / "layer", w * w_scale, x * x_scale)
        proc = run_cli("quantize", "--in", layer, "--d", d, "--out-dir", tmp_path / "out")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("[flrq] numerical failure:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, w_scale, x_scale, cause", [
        (["quantize"], 1, 1e-310, "calibration activations underflow"),  # finite, nonzero X
        # svd never calibrates, so the residuals' own check must catch the overflow. At 1e200 the
        # sketch's rounding residual (about 1e184) is finite, but its squares overflow.
        (["ablate", "--which", "svd"], 1e200, 1, "residual ||W - W_r||_F overflows float64"),
        (["ablate", "--which", "svd"], 1e200, 1e-200, "residual ||W - W_r||_F overflows float64"),
    ], ids=["quantize-x-1e-310", "ablate-svd-w-1e200", "ablate-svd-w-1e200-x-1e-200"])
    def test_out_of_range_layer_names_its_cause(self, tmp_path, argv, w_scale, x_scale, cause):
        g = np.random.default_rng(0)
        w, x = g.standard_normal((8, 16)), g.standard_normal((16, 32))
        layer = write_layer(tmp_path / "layer", w * w_scale, x * x_scale)
        proc = run_cli(*argv, "--in", layer, "--out-dir", tmp_path / "out")
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("[flrq] numerical failure:")
        assert cause in lines[0]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("warnings_env", [{}, {"PYTHONWARNINGS": "error"}], ids=["default", "W-error"])
    def test_overflowing_baseline_is_numerical_error(self, tmp_path, warnings_env):
        # W is finite with amax 1.5 * 2^1023 and W X is in range, so flrq's own layer quantizes;
        # plain RTN's group span max - min overflows, and its error would be NaN.
        rng = np.random.default_rng(0)
        w = np.outer(rng.standard_normal(64), rng.standard_normal(128)) + 0.01 * rng.standard_normal((64, 128))
        w = np.ldexp(w / np.abs(w).max(), 1023) * 1.5
        x = np.ldexp(rng.standard_normal((128, 64)), -1023)
        layer = write_layer(tmp_path / "in" / "layer_000", w, x)
        proc = run_cli("quantize", "--in", layer.parent, "--d", 3, "--out-dir", tmp_path / "out",
                       **warnings_env)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [
            "[flrq] numerical failure: layer_000: the round-to-nearest baseline's error overflows float64"]
        assert not (tmp_path / "out").exists()

    @staticmethod
    def overflowing_factor_layer():
        # amax(W) is about 1.93 * 2^1023 once scaled by alpha: the rank-1 left factor, put back
        # into W's scale, overflows float64.
        g = np.random.default_rng(0)
        u, v = g.standard_normal(64), g.standard_normal(128)
        x = g.standard_normal((128, 256))
        x[:4] *= 30
        x = np.ldexp(x, -1020)
        w = np.outer(u, v) + 0.01 * g.standard_normal((64, 128))
        w = w / np.abs(w * blc.alpha(blc.calibrate(w, x).mean)).max() * np.ldexp(1.6, 1023)
        return w, x, 3

    @staticmethod
    def edge_of_range_layer():
        # amax(W) is 1.9 * 2^1023: every clip candidate's output error overflows.
        g = np.random.default_rng(0)
        w, x = g.standard_normal((64, 128)), g.standard_normal((128, 256))
        x[:4] *= 30
        return np.ldexp(w / np.abs(w).max(), 1023) * 1.9, np.ldexp(x, -1020), 2

    @pytest.mark.parametrize("warnings_env", [{}, {"PYTHONWARNINGS": "error"}], ids=["default", "W-error"])
    @pytest.mark.parametrize("make, cause", [
        ("overflowing_factor_layer", "the low-rank factors overflow float64"),
        ("edge_of_range_layer", "no clip threshold gives a finite output error"),
    ], ids=["factor", "clip"])
    def test_layer_past_float64_is_one_line(self, tmp_path, make, cause, warnings_env):
        # Finite layers whose float64 arithmetic overflows end in one line, with no warning.
        w, x, d = getattr(self, make)()
        layer = write_layer(tmp_path / "in" / "layer_000", w, x)
        proc = run_cli("quantize", "--in", layer.parent, "--d", d, "--out-dir", tmp_path / "out",
                       **warnings_env)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines() == [f"[flrq] numerical failure: layer_000: {cause}"]
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_first_failing_layer_is_reported(self, tmp_path, threads):
        # layer_001 overflows (exit 3) and layer_002 is truncated (exit 2); the reader
        # runs a layer ahead, yet layer_001's error wins at every --threads.
        g = np.random.default_rng(3)
        for idx, scale in enumerate([1, 1e160, 1]):
            write_layer(tmp_path / "in" / f"layer_{idx:03d}",
                        g.standard_normal((8, 16)) * scale, g.standard_normal((16, 32)))
        truncated = tmp_path / "in" / "layer_002" / "activations.flrqten"
        truncated.write_bytes(truncated.read_bytes()[:-8])
        proc = run_cli("quantize", "--in", tmp_path / "in", "--out-dir", tmp_path / "out",
                       "--threads", threads)
        assert proc.returncode == 3
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("[flrq] numerical failure: layer_001: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv", [["ablate", "--which", "x"], ["ablate", "--which", "rank"]],
        ids=["ablate", "ablate-rank"],
    )
    def test_paper_driver_names_the_failing_layer(self, tmp_path, argv):
        g = np.random.default_rng(3)
        for idx, scale in enumerate([1, 1e160, 1]):
            write_layer(tmp_path / "in" / f"layer_{idx:03d}",
                        g.standard_normal((8, 16)) * scale, g.standard_normal((16, 32)))
        proc = run_cli(*argv, "--in", tmp_path / "in", "--out-dir", tmp_path / "out")
        assert proc.returncode == 3
        lines = proc.stderr.strip().splitlines()
        assert lines == ["[flrq] numerical failure: layer_001: "
                         "the layer's output ||W X||_F overflows float64"]
        assert not (tmp_path / "out").exists()

    def test_bad_later_layer_writes_nothing(self, tmp_path):
        g = np.random.default_rng(1)
        for idx in range(2):
            write_layer(tmp_path / "in" / f"layer_{idx:03d}",
                        g.standard_normal((8, 16)), g.standard_normal((16, 4)))
        bad = tmp_path / "in" / "layer_001" / "weights.flrqten"
        bad.write_bytes(b"NOTFLRQ\0" + bytes(32))
        proc = run_cli("quantize", "--in", tmp_path / "in", "--out-dir", tmp_path / "out")
        assert proc.returncode == 2
        assert "layer_001" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


class TestByteStable:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-synth", "--m", "16", "--n", "24", "--layers", "2", "--seed", "3"],
            *(["ablate", "--which", which] for which in ABLATIONS),
        ],
        ids=["gen-synth", *(f"ablate-{w}" for w in ABLATIONS)],
    )
    def test_rerun_byte_identical(self, synth_dir, tmp_path, argv):
        layer = synth_dir / "layer_000"
        if argv[0] == "ablate":
            layer = gen_synth(tmp_path / "in", "--family", "outlier_channels", "--layers", "1",
                              "--m", "32", "--n", "32")
        inputs = [] if argv[0] == "gen-synth" else ["--in", str(layer)]
        outs = [tmp_path / f"out{i}" for i in range(2)]
        for out in outs:
            assert run([*argv, *inputs, "--out-dir", str(out)]) == 0
        assert tree_digest(outs[0]) == tree_digest(outs[1])

    @pytest.mark.parametrize(
        "argv", [["ablate", "--which", "rank"], ["ablate", "--which", "svd"]],
        ids=["ablate-rank", "ablate-svd"],
    )
    def test_tree_rows_repeat_each_layer_alone(self, tmp_path, argv):
        # Layer i of a tree run with --seed S gives the rows of layer i alone with --seed S ^ i.
        src = gen_synth(tmp_path / "in", "--family", "outlier_channels", "--layers", "3",
                        "--m", "32", "--n", "48", "--seed", "2")

        def rows(in_dir: Path, seed: int, out: Path) -> list[dict]:
            assert paper.main([*argv, "--in", str(in_dir), "--seed", str(seed),
                               "--out-dir", str(out)]) == 0
            [record] = out.glob("*.json")
            return json.loads(record.read_text())["rows"]

        tree = rows(src, 5, tmp_path / "tree")
        for idx in range(3):
            alone = rows(src / f"layer_{idx:03d}", 5 ^ idx, tmp_path / f"alone_{idx}")
            assert [{**row, "layer": idx} for row in alone] == [
                row for row in tree if row["layer"] == idx]

    def test_rank_sweep_independent_of_blas_threads(self, tmp_path):
        # Run unpinned, this layer's rank_sweep.csv differed at 1 and 2 OpenBLAS threads.
        assert main(["gen-synth", "--family", "outlier_channels", "--m", "700", "--n", "700",
                     "--tokens", "2100", "--layers", "1", "--seed", "4",
                     "--out-dir", str(tmp_path / "in")]) == 0
        sweeps = []
        for blas in ("1", "2"):
            out = tmp_path / f"out_{blas}"
            proc = run_cli("ablate", "--which", "rank", "--in", tmp_path / "in", "--d", "2",
                           "--out-dir", out, OPENBLAS_NUM_THREADS=blas)
            assert proc.returncode == 0, proc.stderr
            sweeps.append((out / "ablate_rank.csv").read_bytes())
        assert sweeps[0] == sweeps[1]
