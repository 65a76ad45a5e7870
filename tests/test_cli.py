import csv
import ctypes
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import flrq
from flrq import cli, linalg
from flrq.cli import ABLATIONS, build_parser, main
from flrq.config import FlrqConfig
from flrq.io import container_from_array, read_bundle, write_container_file


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


def write_layer(directory: Path, w, x) -> Path:
    directory.mkdir(parents=True)
    write_container_file(directory / "weights.flrqten", container_from_array(w))
    write_container_file(directory / "activations.flrqten", container_from_array(x))
    return directory


def openblas_thread_count():
    """A reader of the thread count of numpy's bundled OpenBLAS (skips the test without it)."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    paths = sorted(libs.glob("libscipy_openblas64_*.so"))
    if not paths:
        pytest.skip("numpy's bundled OpenBLAS is not reachable")
    get = ctypes.CDLL(str(paths[0])).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get


def run_cli(*argv) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(flrq.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "flrq.cli", *map(str, argv)],
        capture_output=True, text=True, env=env,
    )


BAD_FLAGS = {
    "group-size-0": ["quantize", "--group-size", "0"],
    "epochs-0": ["quantize", "--epochs", "0"],
    "x-negative": ["quantize", "--x", "-1"],
    "clip-grid-above-1": ["quantize", "--clip-grid", "1.5"],
    "clip-grid-empty": ["quantize", "--clip-grid", ","],
    "it-negative": ["quantize", "--it", "-1"],
    "threads-0": ["quantize", "--threads", "0"],
    "gen-synth-m-0": ["gen-synth", "--m", "0"],
    "compare-svd-rank-0": ["compare-svd", "--rank", "0"],
    # count flags: none of them can be 0 or negative
    "gen-synth-layers-negative": ["gen-synth", "--layers", "-1"],
    "ablate-layers-0": ["ablate", "--which", "it", "--layers", "0"],
    "compare-svd-seeds-0": ["compare-svd", "--seeds", "0"],
    "compare-svd-seeds-negative": ["compare-svd", "--seeds", "-1"],
    # --threads belongs to quantize alone; elsewhere it would be silently ignored.
    "gen-synth-threads": ["gen-synth", "--threads", "2"],
    "rank-sweep-threads": ["rank-sweep", "--threads", "2"],
    "ablate-threads": ["ablate", "--which", "it", "--threads", "2"],
    "compare-svd-threads": ["compare-svd", "--threads", "2"],
}
BAD_FLAG_CASES = [pytest.param(argv, False, id=name) for name, argv in BAD_FLAGS.items()] + [
    pytest.param(argv, True, id=f"{name}-bad-magic")
    for name, argv in BAD_FLAGS.items()
    if argv[0] == "quantize"
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

    def test_one_layer_held_per_worker(self, synth_dir, tmp_path, monkeypatch):
        events = []
        read, quantize_layer = cli._read_layer_inputs, cli.flrq_layer

        def traced_read(path):
            events.append("read")
            return read(path)

        def traced_layer(*args):
            layer = quantize_layer(*args)
            events.append("done")
            return layer

        monkeypatch.setattr(cli, "_read_layer_inputs", traced_read)
        monkeypatch.setattr(cli, "flrq_layer", traced_layer)
        rc = main(["quantize", "--in", str(synth_dir), "--out-dir", str(tmp_path / "out"),
                   "--threads", "1"])
        assert rc == 0
        assert events == ["read", "done", "read", "done"]

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

    def test_blas_threads_capped_then_restored(self, synth_dir, tmp_path, monkeypatch, capsys):
        get = openblas_thread_count()
        before, seen = get(), []
        quantize_layer = cli.flrq_layer

        def traced_layer(*args):
            seen.append(get())
            return quantize_layer(*args)

        monkeypatch.setattr(cli, "flrq_layer", traced_layer)
        rc = main(["quantize", "--in", str(synth_dir), "--out-dir", str(tmp_path / "out"),
                   "--threads", "2"])
        assert rc == 0
        assert get() == before
        per_worker = max(1, min(before, len(os.sched_getaffinity(0)) // 2))
        assert seen == [per_worker, per_worker]
        assert f"(2 worker(s) x {per_worker} BLAS thread(s))" in capsys.readouterr().err

    def test_unreachable_blas_runs_unpinned(self, synth_dir, tmp_path, monkeypatch, capsys):
        def no_library(name):
            raise OSError(f"cannot load {name}")

        monkeypatch.setattr(linalg.ctypes, "CDLL", no_library)
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

    def test_flags_are_config_fields(self):
        # A renamed flag must not silently fall back to the config default.
        args = vars(build_parser().parse_args(["quantize", "--in", "layers"]))
        flags = set(args) - {"command", "out_dir", "in_dir", "threads"}
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
        back, _ = read_bundle(out / "layer_000")
        assert not back.reconstruct().any()


class TestRankSweep:
    def test_rank1_layer_error_collapses(self, tmp_path):
        g = np.random.default_rng(0)
        u, v = g.standard_normal(48), g.standard_normal(64)
        w = np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)) * 480
        w += 0.01 * g.standard_normal((48, 64))
        layer = write_layer(tmp_path / "layer", w, g.standard_normal((64, 16)))
        out = tmp_path / "sweep"
        rc = main(["rank-sweep", "--in", str(layer), "--max-rank", "4",
                   "--seed", "1", "--out-dir", str(out)])
        assert rc == 0
        with open(out / "rank_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        errs = [float(r["rel_error"]) for r in rows]
        assert errs[1] <= 0.1 * errs[0]
        amaxes = [float(r["amax"]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(amaxes, amaxes[1:]))

    def test_max_rank_zero_gives_baseline_row(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["rank-sweep", "--in", str(synth_dir / "layer_000"),
                   "--max-rank", "0", "--seed", "1", "--out-dir", str(out)])
        assert rc == 0
        with open(out / "rank_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["r"] == "0"

    def test_max_rank_clamped_with_warning(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["rank-sweep", "--in", str(synth_dir / "layer_000"),
                   "--max-rank", "1000", "--seed", "1", "--out-dir", str(out)])
        assert rc == 0
        assert "clamping" in capsys.readouterr().err


class TestAblate:
    def test_unknown_name_lists_valid(self, tmp_path, capsys):
        rc = main(["ablate", "--which", "bogus", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        for name in ("it", "blc", "x", "fixed-vs-flex"):
            assert name in err

    def test_it_ablation_extraction_error_monotone(self, tmp_path):
        out = tmp_path / "ab"
        rc = main(["ablate", "--which", "it", "--layers", "2", "--m", "96",
                   "--n", "96", "--d", "3", "--seed", "0", "--out-dir", str(out)])
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
        out = tmp_path / "ab"
        rc = main(["ablate", "--which", "blc", "--layers", "10", "--m", "128",
                   "--n", "128", "--d", "2", "--outlier-boost", "30",
                   "--outlier-count", "2", "--seed", "0", "--out-dir", str(out)])
        assert rc == 0
        rows = json.loads((out / "ablate_blc.json").read_text())["rows"]
        wins = sum(row["improved"] for row in rows)
        assert wins >= 9

    def test_fixed_vs_flex_memory(self, tmp_path):
        out = tmp_path / "ab"
        rc = main(["ablate", "--which", "fixed-vs-flex", "--layers", "3",
                   "--m", "128", "--n", "128", "--d", "4", "--outlier-boost", "30",
                   "--outlier-count", "2", "--seed", "0", "--out-dir", str(out)])
        assert rc == 0
        rows = json.loads((out / "ablate_fixed_vs_flex.json").read_text())["rows"]
        for row in rows:
            assert row["flex_extra_bits"] <= row["fixed_extra_bits"]


class TestCompareSvd:
    def test_rank1_layer_both_residuals_vanish(self, tmp_path):
        g = np.random.default_rng(2)
        w = np.outer(g.standard_normal(32), g.standard_normal(48))
        layer = write_layer(tmp_path / "layer", w, g.standard_normal((48, 8)))
        out = tmp_path / "cmp"
        rc = main(["compare-svd", "--in", str(layer), "--rank", "1", "--seeds", "2",
                   "--seed", "0", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        scale = np.linalg.norm(w)
        assert report["svd_residual"] <= 1e-9 * scale
        assert report["sketch_residual_mean"] <= 1e-6 * scale

    def test_guard_exceeded_is_numerical_error(self, tmp_path):
        layer = tmp_path / "layer"
        layer.mkdir()
        w = np.ones((1030, 1030))
        write_container_file(layer / "weights.flrqten", container_from_array(w, f32=True))
        write_container_file(
            layer / "activations.flrqten",
            container_from_array(np.ones((1030, 2)), f32=True),
        )
        rc = main(["compare-svd", "--in", str(layer), "--rank", "4",
                   "--out-dir", str(tmp_path / "cmp")])
        assert rc == 3


class TestExitCodes:
    def test_usage_error(self):
        assert main(["quantize"]) == 1  # missing --in

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
        inputs = ["--in", layer] if argv[0] in ("quantize", "rank-sweep", "compare-svd") else []
        proc = run_cli(*argv, *inputs, "--out-dir", tmp_path / "out")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("[flrq] usage error:")

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
            ["rank-sweep", "--max-rank", "4", "--seed", "1"],
            *(
                ["ablate", "--which", which, "--layers", "1", "--m", "32", "--n", "32"]
                for which in ABLATIONS
            ),
            ["compare-svd", "--rank", "4", "--seeds", "2", "--seed", "0"],
        ],
        ids=["gen-synth", "rank-sweep", *(f"ablate-{w}" for w in ABLATIONS), "compare-svd"],
    )
    def test_rerun_byte_identical(self, synth_dir, tmp_path, argv):
        layer = synth_dir / "layer_000"
        inputs = [] if argv[0] in ("gen-synth", "ablate") else ["--in", str(layer)]
        outs = [tmp_path / f"out{i}" for i in range(2)]
        for out in outs:
            assert main([*argv, *inputs, "--out-dir", str(out)]) == 0
        assert tree_digest(outs[0]) == tree_digest(outs[1])
