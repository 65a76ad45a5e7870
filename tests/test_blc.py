import contextlib
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import flrq
from flrq import linalg, rankselect
from flrq.blc import EpochRecord, QuantizedLayer
from flrq.blc import alpha, calibrate, channel_mean, flrq_layer, gram_factor, layer_error
from flrq.blc import CALIBRATION_CHUNK, CHANNEL_MEAN_CHUNK, CHANNEL_MEAN_EPS, scaled_flr
from flrq.cli import main
from flrq.config import FlrqConfig
from flrq.errors import NumericalError
from flrq.io import DTYPE_F32, ActivationSource, TensorContainer, container_from_array, write_bundle
from flrq.io import write_container_file
from flrq.linalg import fro_norm
from flrq.quantize import GROUP_SIZE, dequantize, quantize_matrix, search_clip
from flrq.rankselect import deflate, select_rank
from flrq.sketch import LowRankFactors
from flrq.synth import SynthSpec, gen_layer
from test_cli import tree_digest


# Script lines for the subprocess tests: import gram_factor and build a 256 x 2048 X (tokens > n).
GRAM_X = """
import hashlib
import numpy as np
from flrq.blc import gram_factor
x = np.random.default_rng(3).standard_normal((256, 2048))
"""


def run_python(script: str, **env_vars) -> str:
    """stdout of ``script`` run in a fresh interpreter, with ``env_vars`` set."""
    env = dict(os.environ, PYTHONPATH=str(Path(flrq.__file__).parents[1]), **env_vars)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True)
    return proc.stdout


def transposed_channel_mean(x):
    """channel_mean through a transposed copy of each chunk, a row per token, summed in
    order by add.reduce over the rows: the reference bytes of the in-place cumulative sum."""
    total, live_tokens = np.zeros(x.shape[0]), 0
    for start in range(0, x.shape[1], CHANNEL_MEAN_CHUNK):
        chunk = x[:, start:start + CHANNEL_MEAN_CHUNK]
        scaled = np.abs(chunk)
        top = scaled.max(axis=0)
        exp = np.frexp(top)[1]
        scale = np.ldexp(1.0, np.where(top < np.finfo(np.float64).tiny, exp, -exp))
        scaled *= scale
        norms = np.sqrt(np.add.reduce(np.square(scaled, out=scaled), axis=0))
        a = np.abs(chunk.T, order="C")
        a *= scale[:, None]
        a /= np.where(norms > 0.0, norms, 1.0)[:, None]
        a[0] += total
        total = np.add.reduce(a, axis=0)
        live_tokens += np.count_nonzero(norms)
    return np.maximum(total / live_tokens, CHANNEL_MEAN_EPS)


class TestChannelMean:
    def test_one_hot_tokens(self):
        out = channel_mean(np.eye(3))
        assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3])

    def test_identical_columns(self):
        col = np.array([3.0, 4.0])
        x = np.stack([col, col, col], axis=1)
        assert np.allclose(channel_mean(x), [0.6, 0.8])

    def test_single_column(self):
        assert np.allclose(channel_mean(np.array([[3.0], [4.0]])), [0.6, 0.8])

    def test_zero_column_skipped(self):
        x = np.array([[3.0, 0.0], [4.0, 0.0]])
        assert np.allclose(channel_mean(x), [0.6, 0.8])

    def test_all_zero_errors(self):
        with pytest.raises(NumericalError):
            channel_mean(np.zeros((3, 2)))

    def test_floor_applied(self):
        x = np.array([[1.0], [0.0]])
        out = channel_mean(x)
        assert out[1] == pytest.approx(1e-8)

    @pytest.mark.parametrize("zero_tokens", [False, True])
    def test_in_place_bytes_match_the_plain_formula(self, zero_tokens):
        x = np.random.default_rng(9).standard_normal((48, 300))
        if zero_tokens:
            x[:, [0, 17, 299]] = 0.0
        norms = np.linalg.norm(x, axis=0)
        live = norms > 0.0
        plain = np.maximum((np.abs(x[:, live]) / norms[live]).mean(axis=1), CHANNEL_MEAN_EPS)
        assert np.array_equal(channel_mean(x), plain)

    # Each case's tokens, and the ones zeroed: scattered, one whole chunk, none.
    STREAMED = {
        "zero-tokens": (300, [0, 17, 299]),
        "zero-chunk": (3 * CHANNEL_MEAN_CHUNK, range(CHANNEL_MEAN_CHUNK, 2 * CHANNEL_MEAN_CHUNK)),
        "ragged-last-chunk": (2 * CHANNEL_MEAN_CHUNK + 5, []),
        "under-one-chunk": (CHANNEL_MEAN_CHUNK - 1, [3]),
        "single-token": (1, []),
    }

    @pytest.mark.parametrize("case", STREAMED.values(), ids=STREAMED.keys())
    def test_streamed_bytes_match_the_one_shot_formula(self, case):
        tokens, zeroed = case
        x = np.random.default_rng(tokens).standard_normal((40, tokens)) * np.arange(1.0, 41.0)[:, None]
        x[:, list(zeroed)] = 0.0
        norms = np.linalg.norm(x, axis=0)
        live = norms > 0.0
        one_shot = np.maximum((np.abs(x[:, live]) / norms[live]).mean(axis=1), CHANNEL_MEAN_EPS)
        assert channel_mean(x).tobytes() == one_shot.tobytes()

    def test_underflowing_tokens_keep_their_direction(self):
        x = np.random.default_rng(5).standard_normal((16, 8))
        small = x.copy()
        small[:, [1, 3, 4, 6]] *= 1e-170  # normal entries whose squares underflow to 0
        assert np.allclose(channel_mean(small), channel_mean(x), rtol=1e-14, atol=0)
        small[:, [1, 3, 4, 6]] *= 1e-150  # subnormal entries: their precision is gone, skipped
        assert np.allclose(channel_mean(small), channel_mean(x[:, [0, 2, 5, 7]]), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("k", [-600, -100, 100, 600])
    def test_power_of_two_scale_keeps_the_bytes(self, k):
        # At 2^-600 every token's squares underflow, at 2^600 they overflow.
        x = np.random.default_rng(3).standard_normal((40, 300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert channel_mean(np.ldexp(x, k)).tobytes() == channel_mean(x).tobytes()

    # Tokens: 777 leaves a ragged last chunk of 9. Zeroed: scattered, one whole chunk, the
    # first of a chunk. Scaled by 2^k: at 2^-600 squares underflow, at 2^600 they overflow.
    TRANSPOSED = {
        "ragged-777": (777, [], 0),
        "zero-tokens": (777, [0, 5, CHANNEL_MEAN_CHUNK, 776], 0),
        "zero-chunk": (3 * CHANNEL_MEAN_CHUNK, range(CHANNEL_MEAN_CHUNK, 2 * CHANNEL_MEAN_CHUNK), 0),
        "scaled-2^-600": (777, [3], -600),
        "scaled-2^600": (777, [3], 600),
    }

    @pytest.mark.parametrize("case", TRANSPOSED.values(), ids=TRANSPOSED.keys())
    def test_bytes_match_the_transposed_sum(self, case):
        tokens, zeroed, k = case
        x = np.random.default_rng(tokens).standard_normal((40, tokens)) * np.arange(1.0, 41.0)[:, None]
        x[:, list(zeroed)] = 0.0
        x = np.ldexp(x, k)
        assert channel_mean(x).tobytes() == transposed_channel_mean(x).tobytes()

    def test_underflowing_tokens_are_named(self):
        x = np.random.default_rng(2).standard_normal((16, 8)) * 1e-310  # finite, nonzero, x*x == 0
        with pytest.raises(NumericalError, match="underflow"):
            channel_mean(x)


class TestGramFactor:
    @pytest.mark.parametrize("tokens", [16, 40, 200])  # below, at and above n = 40
    def test_gram_matrix_preserved(self, tokens):
        x = np.random.default_rng(tokens).standard_normal((40, tokens))
        l = gram_factor(x)
        assert l.shape == (40, min(40, tokens)) and l.flags.c_contiguous
        assert np.allclose(l @ l.T, x @ x.T, rtol=1e-12, atol=1e-10 * tokens)
        assert (l is x) == (tokens <= 40)

    def test_idempotent_bytes(self):
        l = gram_factor(np.random.default_rng(1).standard_normal((32, 100)))
        assert gram_factor(l).tobytes() == l.tobytes()

    def test_layer_error_same_through_x_or_factor(self):
        g = np.random.default_rng(2)
        n = 2 * GROUP_SIZE
        w, x = g.standard_normal((24, n)), g.standard_normal((n, 600))
        q = quantize_matrix(w, 3)
        factors = LowRankFactors(g.standard_normal((24, 2)), g.standard_normal((2, n)))
        assert layer_error(w, q, factors, x) == layer_error(w, q, factors, gram_factor(x))

    def test_square_x_layer_has_the_bytes_of_the_full_product(self, tmp_path, monkeypatch):
        # tokens = n: X is square but not triangular, so every error must take the full
        # a @ L. Replacing the blocked product by a @ L must change no byte.
        w, x = gen_layer(SynthSpec(m=64, n=GROUP_SIZE, family="outlier_channels", seed=8,
                                   tokens=GROUP_SIZE))
        cfg = FlrqConfig(d=2, seed=8, epochs=3)
        write_bundle(tmp_path / "kernel", flrq_layer(w, calibrate(w, x), cfg))
        monkeypatch.setattr(linalg, "_times_factor", lambda a, l: a @ l)
        write_bundle(tmp_path / "full", flrq_layer(w, calibrate(w, x), cfg))
        assert tree_digest(tmp_path / "kernel") == tree_digest(tmp_path / "full")

    def test_calibrate_rejects_nonconforming_shapes(self):
        with pytest.raises(ValueError):
            calibrate(np.ones((2, 4)), np.ones((5, 3)))

    @pytest.mark.parametrize("n", [130, 257])
    def test_factor_has_the_bytes_of_a_bare_cholesky(self, n):
        # gram_factor hands LAPACK the transpose of X X^T; being exactly symmetric, it is the same matrix.
        x = np.random.default_rng(n).standard_normal((n, 3 * n))
        assert x.flags.c_contiguous
        assert gram_factor(x).tobytes() == np.linalg.cholesky(x @ x.T).tobytes()

    def test_strided_or_f32_chunks_factor_as_their_float64_c_copy(self):
        # The syrk binding reads raw pointers, so such a chunk is copied before it reaches BLAS.
        x = np.random.default_rng(11).standard_normal((48, 2 * CALIBRATION_CHUNK + 5))
        l = gram_factor(x)
        assert gram_factor(np.asfortranarray(x)).tobytes() == l.tobytes()  # column stride 8n
        assert gram_factor(x[::-1]).tobytes() == gram_factor(x[::-1].copy()).tobytes()  # negative rows
        x32 = x.astype(np.float32)
        assert gram_factor(x32).dtype == np.float64
        assert gram_factor(x32).tobytes() == gram_factor(x32.astype(np.float64)).tobytes()

    def test_zero_channel_falls_back_to_qr(self):
        x = np.random.default_rng(4).standard_normal((40, 200))
        x[7] = 0.0  # X X^T is singular, so its Cholesky factorization fails
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(x @ x.T)
        qr = np.ascontiguousarray(np.linalg.qr(x.T, mode="r").T)
        l = gram_factor(x)
        assert l.tobytes() == qr.tobytes()
        assert np.allclose(l @ l.T, x @ x.T, rtol=1e-12, atol=1e-10 * 200)

    def test_bytes_independent_of_blas_threads(self):
        # At this shape a bare cholesky(X X^T) differs at 1 and 2 OpenBLAS threads.
        script = GRAM_X + "print(hashlib.sha256(gram_factor(x).tobytes()).hexdigest())\n"
        digests = {run_python(script, OPENBLAS_NUM_THREADS=blas) for blas in ("1", "2")}
        assert len(digests) == 1

    @pytest.mark.usefixtures("openblas")  # skips when numpy's OpenBLAS cannot be reached
    def test_import_pins_blas_for_concurrent_callers(self):
        # A pin that restored the caller's count on exit lost it when two threads overlapped.
        script = f"""
import ctypes, threading
from pathlib import Path
import numpy as np
libs = Path(np.__file__).parent.parent / "numpy.libs"
lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
get = lib.scipy_openblas_get_num_threads64_
get.restype = ctypes.c_int
before = get()
import flrq
pinned = get()
{GRAM_X}
digests = set()

def factor():
    for _ in range(30):
        digests.add(hashlib.sha256(gram_factor(x).tobytes()).hexdigest())

workers = [threading.Thread(target=factor) for _ in range(2)]
for t in workers:
    t.start()
for t in workers:
    t.join()
print(before, pinned, get(), len(digests))
"""
        before, pinned, after, distinct = run_python(script, OPENBLAS_NUM_THREADS="2").split()
        if before != "2":
            pytest.skip("OpenBLAS does not run 2 threads here")
        assert (pinned, after, distinct) == ("1", "1", "1")

    @pytest.mark.usefixtures("openblas")  # skips when numpy's OpenBLAS cannot be reached
    @pytest.mark.skipif(not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
                        reason="needs /proc and 2 or more cores for OpenBLAS to start threads")
    def test_import_before_numpy_starts_no_blas_threads(self):
        env = dict(os.environ, PYTHONPATH=str(Path(flrq.__file__).parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        report = ("import os\nfrom flrq.linalg import BLAS_THREADS\n"
                  "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'),"
                  " BLAS_THREADS)")

        def run(first: str, **env_vars) -> list[str]:
            proc = subprocess.run([sys.executable, "-c", f"{first}\n{report}"], env={**env, **env_vars},
                                  capture_output=True, text=True, check=True)
            return proc.stdout.split()

        # flrq imported first, variable unset: it is set to 1 and OpenBLAS starts no thread.
        assert run("import flrq.cli") == ["1", "1", "1"]
        # experiments/paper.py imports flrq before numpy too.
        experiments = Path(flrq.__file__).parents[2] / "experiments"
        assert run("import paper", PYTHONPATH=os.pathsep.join([env["PYTHONPATH"], str(experiments)])) == [
            "1", "1", "1"]
        # numpy imported first: its pool exists already, so the environment stays as it was.
        assert run("import numpy\nimport flrq")[1:] == ["None", "1"]
        # An explicit count is kept, and the pin still runs BLAS on 1 thread.
        assert run("import flrq.cli", OPENBLAS_NUM_THREADS="2")[1:] == ["2", "1"]


@contextlib.contextmanager
def numpy_gram_path():
    """Calibration through numpy's expressions: the syrk/potrf binding finds no OpenBLAS handle."""
    with pytest.MonkeyPatch.context() as mp:
        linalg._gram_routines.cache_clear()
        mp.setattr(linalg, "OPENBLAS", None)
        try:
            yield
        finally:
            linalg._gram_routines.cache_clear()


@pytest.fixture
def numpy_gram():
    with numpy_gram_path():
        assert linalg._gram_routines() is None
        yield


@pytest.mark.usefixtures("numpy_gram")
class TestGramFactorThroughNumpy(TestGramFactor):
    """TestGramFactor where numpy ships no OpenBLAS with syrk and potrf."""

    # Subprocess tests: the patch does not reach a fresh interpreter.
    test_bytes_independent_of_blas_threads = None
    test_import_pins_blas_for_concurrent_callers = None
    test_import_before_numpy_starts_no_blas_threads = None


def source_of(path: Path, x: np.ndarray, f32: bool = False) -> ActivationSource:
    """An ActivationSource over ``x`` written to ``path``, as f64, or as f32 when ``f32``."""
    f32_container = TensorContainer(DTYPE_F32, x.shape, x.astype("<f4").tobytes())
    write_container_file(path, f32_container if f32 else container_from_array(x))
    return ActivationSource(path)


def assert_same_calibration(a, b) -> None:
    assert a.mean.tobytes() == b.mean.tobytes()
    assert a.l.tobytes() == b.l.tobytes()
    assert a.wx_norm.hex() == b.wx_norm.hex()


class TestStreamedCalibration:
    # n = 48: tokens below n, at n, above n within one chunk, and one token past two chunks.
    @pytest.mark.parametrize("tokens", [20, 48, 600, 2 * CALIBRATION_CHUNK + 1])
    @pytest.mark.parametrize("f32", [False, True], ids=["f64", "f32"])
    def test_source_calibrates_as_its_array(self, tmp_path, tokens, f32):
        g = np.random.default_rng(tokens)
        w, x = g.standard_normal((16, 48)), g.standard_normal((48, tokens))
        if f32:
            x = x.astype(np.float32).astype(np.float64)
        source = source_of(tmp_path / "x.flrqten", x, f32)
        assert source.shape == x.shape
        whole = calibrate(w, x)
        assert_same_calibration(calibrate(w, source), whole)
        # layer_error recomputes L from the whole X, as benchmark/helper.py's verify does, and a
        # chunk holds whole CHANNEL_MEAN_CHUNK steps, so the means keep channel_mean's bytes.
        assert whole.l.tobytes() == gram_factor(x).tobytes()
        assert whole.mean.tobytes() == channel_mean(x).tobytes()

    def test_zero_channel_over_many_chunks_falls_back_to_qr(self, tmp_path):
        tokens = 2 * CALIBRATION_CHUNK + 1
        g = np.random.default_rng(5)
        w, x = g.standard_normal((8, 40)), g.standard_normal((40, tokens))
        x[7] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(x @ x.T)
        l = gram_factor(x)
        assert l.shape == (40, 40) and np.array_equal(l, np.tril(l)) and not l[7].any()
        assert np.allclose(l @ l.T, x @ x.T, rtol=1e-12, atol=1e-10 * tokens)
        assert_same_calibration(calibrate(w, source_of(tmp_path / "x.flrqten", x)), calibrate(w, x))

    def test_streamed_peak_does_not_grow_with_tokens(self, tmp_path):
        g = np.random.default_rng(6)
        w, peaks = g.standard_normal((16, 128)), {}
        for chunks in (4, 16):
            x = g.standard_normal((128, chunks * CALIBRATION_CHUNK))
            source, x_bytes = source_of(tmp_path / f"x{chunks}.flrqten", x), x.nbytes
            del x
            tracemalloc.start()
            try:
                calibrate(w, source)
                peaks[chunks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks[chunks] < x_bytes / 2
        assert abs(peaks[16] - peaks[4]) < 2**20


@pytest.mark.usefixtures("numpy_gram")
class TestStreamedCalibrationThroughNumpy(TestStreamedCalibration):
    """TestStreamedCalibration where numpy ships no OpenBLAS with syrk and potrf."""


class TestGramRoutines:
    def test_bound_on_the_first_factor_not_at_import(self):
        script = ("import flrq.cli\nfrom flrq import linalg\n"
                  "print(linalg._gram_routines.cache_info().currsize)\n" + GRAM_X +
                  "gram_factor(x)\nprint(linalg._gram_routines() is not None, np.__version__)\n")
        at_import, bound, version = run_python(script).split()
        assert at_import == "0"
        # Under the numpy that every bit-for-bit claim was measured on, the factor runs on BLAS.
        assert bound == "True" or version != "2.4.6"

    @pytest.mark.parametrize("tokens", [CALIBRATION_CHUNK + 1, 3 * CALIBRATION_CHUNK])
    def test_paths_agree_over_several_chunks(self, tokens):
        # A sum of chunks adds in another order through syrk's beta = 1, so last bits can move.
        x = np.random.default_rng(tokens).standard_normal((200, tokens))
        blas = gram_factor(x)
        with numpy_gram_path():
            plain = gram_factor(x)
        assert np.abs(blas - plain).max() <= 1e-12 * np.abs(plain).max()

    def test_quantize_through_numpy_keeps_the_bytes_of_one_chunk(self, tmp_path):
        assert main(["gen-synth", "--m", "32", "--n", "128", "--tokens", "600", "--layers", "2",
                     "--out-dir", str(tmp_path / "in")]) == 0
        runs = {}
        for path, context in (("blas", contextlib.nullcontext()), ("numpy", numpy_gram_path())):
            with context:
                argv = ["quantize", "--in", str(tmp_path / "in"), "--out-dir", str(tmp_path / path)]
                assert main([*argv, "--threads", "2"]) == 0
            runs[path] = tree_digest(tmp_path / path)
        assert runs["blas"] == runs["numpy"]

    def test_calibrate_holds_one_chunk_and_one_gram_buffer(self, tmp_path):
        # Beyond one chunk and G, calibrate holds channel_mean's n x 128 step temporaries, then
        # the W-sized product of ||W X||_F. A chunk's product or a Cholesky copy adds n^2 x 8 bytes.
        n = 256
        g = np.random.default_rng(12)
        w, x = g.standard_normal((n, n)), g.standard_normal((n, 4 * CALIBRATION_CHUNK))
        source = source_of(tmp_path / "x.flrqten", x)
        del x
        tracemalloc.start()
        try:
            calibrate(w, source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk, gram = n * CALIBRATION_CHUNK * 8, n * n * 8
        assert peak < chunk + gram + w.nbytes + gram // 2


class TestAlpha:
    def test_constant_mean(self):
        out = alpha(np.full(4, 0.5), 2.5)
        assert np.allclose(out, 0.5**1.5)

    def test_hand_case(self):
        out = alpha(np.array([1.0, 4.0]), 2.5)
        assert np.allclose(out, [0.5, 16.0])

    def test_zero_exponent_uniform(self):
        out = alpha(np.array([1.0, 4.0]), 0.0)
        assert np.allclose(out, [0.5, 0.5])


class TestScaledFlr:
    def test_unit_alpha_matches_plain(self):
        # Unit alpha: select_rank itself, whose factors come back as float64.
        w, _ = outlier_layer(3, m=96, n=96)
        cfg = FlrqConfig(d=4, x=1.0, seed=3)
        plain, _ = select_rank(w, cfg)
        scaled, _ = scaled_flr(w, np.ones(96), cfg)
        assert plain.rank >= 1
        assert scaled.left.dtype == scaled.right.dtype == np.float64
        assert scaled.left.tobytes() == plain.left.tobytes()
        assert scaled.right.tobytes() == plain.right.tobytes()

    def test_deflate_gives_the_factors_selection_keeps(self):
        # deflate extracts from the same normalized float32 matrix as quantize's selection.
        w, _ = outlier_layer(3, m=96, n=96)
        cfg = FlrqConfig(d=4, x=1.0, seed=3)
        scaled, _ = scaled_flr(w, np.ones(96), cfg)
        assert scaled.rank >= 2
        for r in range(1, scaled.rank + 1):
            fixed = deflate(w, r, cfg)
            assert fixed.left.tobytes() == scaled.left[:, :r].tobytes()
            assert fixed.right.tobytes() == scaled.right[:r].tobytes()

    def test_selection_runs_in_float32(self, monkeypatch):
        seen = set()
        for name in ("r1_step", "rank1_subtract"):
            fn = getattr(rankselect, name)
            monkeypatch.setattr(rankselect, name, lambda a, *args, fn=fn, name=name, **kwargs:
                                seen.add((name, a.dtype)) or fn(a, *args, **kwargs))
        w, x = outlier_layer(3, m=96, n=96)
        layer = flrq_layer(w, calibrate(w, x), FlrqConfig(d=2, seed=3))
        assert layer.factors.rank >= 1
        assert seen == {("r1_step", np.dtype(np.float32)), ("rank1_subtract", np.dtype(np.float32))}

    def test_matches_selection_on_the_float64_product(self):
        # alpha is folded into normalized's pass: the factors and trace of select_rank(w * alpha).
        w, x = outlier_layer(3, m=200, n=96)
        a = alpha(channel_mean(x))
        cfg = FlrqConfig(d=4, x=1.0, seed=3)
        plain, plain_trace = select_rank(w * a, cfg)
        scaled, trace = scaled_flr(w, a, cfg)
        assert plain.rank >= 1 and trace == plain_trace
        assert scaled.left.tobytes() == plain.left.tobytes()
        assert scaled.right.tobytes() == (plain.right / a).tobytes()

    def test_holds_no_float64_product(self):
        # The float32 selection matrix and its residual, not a float64 w * alpha beside them.
        w, x = outlier_layer(6, m=1024, n=512)
        a = alpha(channel_mean(x))
        tracemalloc.start()
        try:
            scaled_flr(w, a, FlrqConfig(d=3, seed=6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w.nbytes

    def test_rank1_exact_under_any_scaling(self):
        g = np.random.default_rng(1)
        w = np.outer(g.standard_normal(24), g.standard_normal(36)) * 8
        a = g.uniform(0.5, 4.0, size=36)
        factors, _ = scaled_flr(w, a, FlrqConfig(d=4, x=1.0, seed=4))
        assert factors.rank >= 1
        assert fro_norm(w - factors.reconstruct()) <= 1e-6 * fro_norm(w)

    def test_boosted_channel_improves_reconstruction(self):
        # Outliers live in one channel; scaling that channel up makes the
        # extraction spend its budget there.
        wins = 0
        for s in range(10):
            g = np.random.default_rng(s)
            w = g.standard_normal((32, 32))
            w[:, 7] *= 10.0
            a = np.ones(32)
            a[7] = 10.0
            cfg = FlrqConfig(d=4, x=1.0, seed=s)
            plain, _ = select_rank(w, cfg)
            scaled, _ = scaled_flr(w, a, cfg)
            wins += fro_norm(w - scaled.reconstruct()) <= fro_norm(w - plain.reconstruct()) + 1e-9
        assert wins >= 8


class TestLayerError:
    def test_exact_lattice_decomposition(self):
        # a span of 15 steps at 4 bits: every entry is a lattice point
        w = np.array([[-7, 2, 8, 0]], dtype=float) * 0.5
        q = quantize_matrix(w, 4)
        x = np.eye(4)
        assert layer_error(w, q, LowRankFactors.empty(1, 4), x) <= 1e-12

    def test_empty_factors_equal_plain_error(self):
        rng = np.random.default_rng(2)
        n = 2 * GROUP_SIZE
        w = rng.standard_normal((8, n))
        x = rng.standard_normal((n, 4))
        q = quantize_matrix(w, 2)
        expected = fro_norm(w @ x - dequantize(q) @ x)
        assert layer_error(w, q, LowRankFactors.empty(8, n), x) == pytest.approx(expected)

    def test_matches_naive_dense_evaluation(self):
        rng = np.random.default_rng(3)
        n = 2 * GROUP_SIZE
        w = rng.standard_normal((8, n))
        x = rng.standard_normal((n, 8))
        q = quantize_matrix(w, 3)
        left = rng.standard_normal((8, 2))
        right = rng.standard_normal((2, n))
        factors = LowRankFactors(left=left, right=right)
        approx = dequantize(q) + left @ right
        naive = np.sqrt(np.sum((w @ x - approx @ x) ** 2))
        assert layer_error(w, q, factors, x) == pytest.approx(naive, rel=1e-13)

    def test_shape_mismatch(self):
        q = quantize_matrix(np.ones((2, 4)), 4)
        with pytest.raises(ValueError):
            layer_error(np.ones((2, 4)), q, LowRankFactors.empty(2, 4), np.ones((5, 3)))


def outlier_layer(seed, m=256, n=256, count=2, boost=30.0):
    spec = SynthSpec(m=m, n=n, family="outlier_channels", seed=seed, tokens=64,
                     outlier_count=count, outlier_boost=boost)
    return gen_layer(spec)


def every_epoch(w, calib, cfg):
    """flrq_layer's alternation with every epoch computed: (trace, best layer, exact errors).

    exact[i] is layer_error for epoch i + 1. A record holds its clip search's winning error,
    and the best epoch is the first with the lowest of those. Then the best record, and every
    record that repeats it, holds the exact error instead.
    """
    alpha_vec = alpha(calib.mean)
    trace, exact, best, w_q = [], [], None, None
    for epoch in range(1, cfg.resolved_epochs() + 1):
        factors, rank_trace = scaled_flr(w if w_q is None else w - dequantize(w_q), alpha_vec, cfg)
        found = search_clip(w - factors.reconstruct(), calib.l, cfg.d)
        w_q = found.q
        exact.append(layer_error(w, w_q, factors, calib.l))
        trace.append(EpochRecord(epoch, min(err for _, err in found.grid_errors), found.p_clp, factors.rank))
        if best is None or trace[-1].error < trace[best[0] - 1].error:
            best = (epoch, w_q, factors, rank_trace)
    epoch, q, factors, rank_trace = best
    best_record = trace[epoch - 1]
    trace = [replace(r, error=exact[epoch - 1]) if replace(r, epoch=epoch) == best_record else r
             for r in trace]
    return trace, QuantizedLayer(q, factors, trace, epoch, calib.wx_norm, rank_trace), exact


# (m, n, tokens, seed) -> the ranks of the 20 2-bit epochs, so where rank 0 recurs.
REPLAY_LAYERS = {
    "period-1": ((128, 256, 128, 1027), [2] + [0] * 19),  # alt2bit seed 4 layer 3's seed, smaller
    "period-2": ((64, 128, 32, 18), [0, 1] * 10),
    "period-3": ((64, 128, 32, 20), ([0, 1, 1] * 7)[:20]),
    "one-rank-0": ((64, 128, 32, 0), [0] + [1] * 19),
    "no-rank-0": ((64, 128, 32, 3), [1] * 20),
}


class TestReplay:
    @pytest.mark.parametrize("case", REPLAY_LAYERS.values(), ids=REPLAY_LAYERS.keys())
    def test_copied_epochs_equal_computed_ones(self, case, tmp_path):
        (m, n, tokens, seed), ranks = case
        w, x = gen_layer(SynthSpec(m=m, n=n, family="outlier_channels", seed=seed, tokens=tokens))
        calib, cfg = calibrate(w, x), FlrqConfig(d=2, seed=seed)
        layer = flrq_layer(w, calib, cfg)
        trace, expected, _ = every_epoch(w, calib, cfg)
        assert [r.rank for r in trace] == ranks
        assert layer.blc_trace == trace
        assert layer.best_epoch == expected.best_epoch
        write_bundle(tmp_path / "replayed", layer)
        write_bundle(tmp_path / "computed", expected)
        assert tree_digest(tmp_path / "replayed") == tree_digest(tmp_path / "computed")


class TestEpochErrors:
    def test_layer_error_runs_once_per_layer(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return layer_error(*args)

        monkeypatch.setattr("flrq.blc.layer_error", counted)
        w, x = outlier_layer(51, m=64, n=128)
        for epochs in (1, 20):
            calls.clear()
            layer = flrq_layer(w, calibrate(w, x), FlrqConfig(d=2, seed=2, epochs=epochs))
            assert len(calls) == 1
            assert calls[0][1] is layer.q

    @pytest.mark.parametrize("case", REPLAY_LAYERS.values(), ids=REPLAY_LAYERS.keys())
    def test_records_are_within_ulps_of_their_exact_error(self, case):
        # The clip search scores in float32, so a record other than the best is its layer_error
        # to about 1e-6 relative (3e-8 on these layers), not within ulps as the name still says;
        # the best record is layer_error's own.
        (m, n, tokens, seed), _ = case
        w, x = gen_layer(SynthSpec(m=m, n=n, family="outlier_channels", seed=seed, tokens=tokens))
        calib, cfg = calibrate(w, x), FlrqConfig(d=2, seed=seed)
        layer = flrq_layer(w, calib, cfg)
        _, _, exact = every_epoch(w, calib, cfg)
        assert len(layer.blc_trace) == len(exact) == 20
        for record, err in zip(layer.blc_trace, exact):
            assert record.error == pytest.approx(err, rel=1e-6, abs=0)
        assert layer.best_error == exact[layer.best_epoch - 1]
        assert layer.best_error == layer_error(w, layer.q, layer.factors, x)


class TestFlrqLayer:
    def test_single_epoch_trace(self):
        w, x = outlier_layer(50, m=64, n=64)
        cfg = FlrqConfig(d=4, seed=1, epochs=1)
        layer = flrq_layer(w, calibrate(w, x), cfg)
        assert len(layer.blc_trace) == 1
        assert layer.best_epoch == 1

    def test_epoch_default_follows_bit_width(self):
        assert FlrqConfig(d=2).resolved_epochs() == 20
        assert FlrqConfig(d=3).resolved_epochs() == 1
        assert FlrqConfig(d=4).resolved_epochs() == 1

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            FlrqConfig(d=4, epochs=0)

    def test_two_bit_alternation_improves(self):
        w, x = outlier_layer(51)
        cfg = FlrqConfig(d=2, seed=2, epochs=20)
        layer = flrq_layer(w, calibrate(w, x), cfg)
        assert layer.best_error < layer.blc_trace[0].error

    def test_four_bit_nearly_converged_at_first_epoch(self):
        # At 4-bit the first decomposition is already close to the best the
        # alternation finds (the 2-bit rescue lives in the acceptance suite).
        gains = []
        for s in range(5):
            w, x = outlier_layer(1000 + s)
            l4 = flrq_layer(w, calibrate(w, x), FlrqConfig(d=4, seed=s, epochs=5))
            gains.append(1.0 - l4.best_error / l4.blc_trace[0].error)
        assert np.mean(gains) <= 0.10

    def test_best_so_far_non_increasing(self):
        w, x = outlier_layer(53, m=128, n=128)
        cfg = FlrqConfig(d=2, seed=4, epochs=12)
        layer = flrq_layer(w, calibrate(w, x), cfg)
        best_so_far = np.minimum.accumulate([r.error for r in layer.blc_trace])
        assert np.all(np.diff(best_so_far) <= 0 + 1e-15)
        assert layer.best_error == best_so_far[-1]

    def test_snapshot_is_best_epoch_not_last(self):
        w, x = outlier_layer(54, m=128, n=128)
        cfg = FlrqConfig(d=2, seed=5, epochs=10)
        layer = flrq_layer(w, calibrate(w, x), cfg)
        best = min(r.error for r in layer.blc_trace)
        assert layer.best_error == best
        assert layer.blc_trace[layer.best_epoch - 1].error == best
        recon_err = fro_norm(w @ x - layer.reconstruct() @ x)
        assert recon_err == pytest.approx(layer.best_error, rel=1e-10)

    def test_fidelity_ordering_two_bit(self):
        # averaged over seeds: full loop <= single pass <= plain quantization
        on_err, off_err, plain_err = [], [], []
        for s in range(10):
            w, x = outlier_layer(60 + s)
            calib = calibrate(w, x)
            on = flrq_layer(w, calib, FlrqConfig(d=2, seed=s, epochs=20))
            off = flrq_layer(w, calib, FlrqConfig(d=2, seed=s, epochs=1))
            q = quantize_matrix(w, 2)
            plain = layer_error(w, q, LowRankFactors.empty(*w.shape), x)
            on_err.append(on.rel_error)
            off_err.append(off.rel_error)
            plain_err.append(plain / on.wx_norm)
        assert np.mean(on_err) <= np.mean(off_err) <= np.mean(plain_err)

    def test_alpha_neutral_path_is_bit_exact(self):
        # one epoch: the pipeline must equal the manual composition of
        # scaled rank selection and the clip search.
        w, x = outlier_layer(55, m=96, n=96)
        cfg = FlrqConfig(d=4, seed=6, epochs=1)
        calib = calibrate(w, x)
        layer = flrq_layer(w, calib, cfg)
        factors, _ = scaled_flr(w, alpha(channel_mean(x)), cfg)
        q = search_clip(w - factors.reconstruct(), calib.l, 4).q
        assert np.array_equal(layer.q.codes, q.codes)
        assert np.array_equal(layer.q.scales, q.scales)
        assert np.array_equal(layer.q.zeros, q.zeros)
        assert np.array_equal(layer.factors.left, factors.left)
        assert np.array_equal(layer.factors.right, factors.right)

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("k", [-100, 100])
    def test_scale_equivariant(self, d, k):
        # W * 2^k gives the same codes, zeros, right factors and relative error,
        # with scales and left factors exactly 2^k times W's.
        w, x = gen_layer(SynthSpec(m=128, n=96, family="outlier_channels", seed=3, tokens=200,
                                   outlier_count=2, outlier_boost=30.0))
        cfg = FlrqConfig(d=d, seed=3)
        base = flrq_layer(w, calibrate(w, x), cfg)
        assert base.factors.rank >= 1
        ws = np.ldexp(w, k)
        got = flrq_layer(ws, calibrate(ws, x), cfg)
        for a, b in ((got.q.codes, base.q.codes), (got.q.zeros, base.q.zeros),
                     (got.factors.right, base.factors.right),
                     (got.q.scales, np.ldexp(base.q.scales, k)),
                     (got.factors.left, np.ldexp(base.factors.left, k))):
            assert a.tobytes() == b.tobytes()
        assert got.rel_error == base.rel_error

    @pytest.mark.parametrize("k", [-600, 600, -1000, 1000])
    def test_weights_past_squares_range_keep_their_ranks(self, k):
        # W * 2^k with X * 2^-k: W X is unchanged, while every square of W over- or underflows.
        w, x = gen_layer(SynthSpec(m=64, n=128, family="outlier_channels", seed=3, tokens=64))
        cfg = FlrqConfig(d=2, seed=1)
        base = flrq_layer(w, calibrate(w, x), cfg)
        ws = np.ldexp(w, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = flrq_layer(ws, calibrate(ws, np.ldexp(x, -k)), cfg)
        assert base.factors.rank == 1
        assert [r.rank for r in got.blc_trace] == [r.rank for r in base.blc_trace]
        assert got.rel_error == base.rel_error

    @pytest.mark.parametrize("k", [-600, 600, -1000, 1000])
    def test_rank_trace_amax_scales_with_the_weights(self, k):
        # The layers above: selection runs on the same normalized float32 matrix at every k,
        # and each step's amax goes back to the channel-scaled weights' space.
        w, x = gen_layer(SynthSpec(m=64, n=128, family="outlier_channels", seed=3, tokens=64))
        cfg = FlrqConfig(d=2, seed=1)
        base = flrq_layer(w, calibrate(w, x), cfg).rank_trace
        ws = np.ldexp(w, k)
        got = flrq_layer(ws, calibrate(ws, np.ldexp(x, -k)), cfg).rank_trace
        assert base.steps
        assert got.steps == [replace(s, amax=math.ldexp(s.amax, k)) for s in base.steps]

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("m, n, r", [(256, 256, 1), (256, 256, 2), (128, 384, 2), (128, 384, 3)])
    def test_exactly_low_rank_layers_keep_their_rank(self, m, n, r, d):
        # Float32 rounding leaves up to about 5e-8 of amax after r pairs: its floor, not the
        # slope r + 3 pairs later, ends the loop there, as the float64 floor does.
        g = np.random.default_rng(r)
        w = g.standard_normal((m, r)) @ g.standard_normal((r, n))
        layer = flrq_layer(w, calibrate(w, g.standard_normal((n, 200))), FlrqConfig(d=d, x=1.0, seed=r))
        assert [e.rank for e in layer.blc_trace] == [r] * len(layer.blc_trace)
        assert (layer.rank_trace.selected_rank, layer.rank_trace.stop_reason) == (r, "max_rank")
        assert layer.rel_error < 1e-6  # float32 factors: about 1e-8, where float64 gave 1e-16

    def test_floored_channel_warning_recorded(self):
        g = np.random.default_rng(7)
        x = g.standard_normal((16, 8))
        x[3, :] = 0.0  # dead channel
        w = g.standard_normal((8, 16))
        layer = flrq_layer(w, calibrate(w, x), FlrqConfig(d=4, seed=8))
        assert any("floored" in msg for msg in layer.warnings)
