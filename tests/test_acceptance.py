"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (the summary lines print even
without -s). Every tolerance and runtime budget is asserted, not logged.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import paper
from flrq.blc import calibrate, flrq_layer
from flrq.cli import main
from flrq.config import FlrqConfig
from flrq.errors import BadMagicError, BadVersionError, TruncatedError
from flrq.io import (
    container_from_array,
    pack_codes,
    read_bundle,
    read_container,
    unpack_codes,
    write_bundle,
    write_container,
)
from flrq.linalg import fro_norm
from flrq.quantize import GROUP_SIZE, dequantize, quantize_matrix
from flrq.rankselect import D_FP, deflate, qk, select_rank
from flrq.sketch import r1_step, make_rng
from flrq.synth import SynthSpec, gen_layer


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce


def check(announce, number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    announce(f"[acceptance {number:2d}] {name}: {status}  ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def rank1_dominant(m, n, seed, scale=10.0, noise=0.01):
    g = np.random.default_rng(seed)
    u = g.standard_normal(m)
    v = g.standard_normal(n)
    base = np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)) * scale * m
    return base + noise * g.standard_normal((m, n))


def outlier_workload(seed):
    spec = SynthSpec(m=256, n=256, family="outlier_channels", seed=seed, tokens=64,
                     outlier_count=2, outlier_boost=30.0)
    return gen_layer(spec)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_01_rank1_exactness(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for s in range(200):
        u = rng.standard_normal(64)
        v = rng.standard_normal(128)
        a = np.outer(u, v)
        pair = r1_step(a, FlrqConfig(it=0, seed=s), make_rng(s))
        worst = max(worst, fro_norm(a - pair.reconstruct()) / fro_norm(a))
    elapsed = time.perf_counter() - t0
    check(
        announce, 1, "rank-1 exactness",
        worst <= 1e-5 and elapsed < 5.0,
        f"worst relative residual {worst:.2e} over 200 pairs, {elapsed:.1f}s",
    )


def test_02_sketch_vs_oracle_quality(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    ratios2, ratios8 = [], []
    for s in range(100):
        a = rng.standard_normal((128, 256))
        optimal = fro_norm(np.linalg.svd(a, full_matrices=False)[1][16:])
        f2 = deflate(a, 16, FlrqConfig(it=2, seed=7000 + s))
        f8 = deflate(a, 16, FlrqConfig(it=8, seed=7000 + s))
        ratios2.append(fro_norm(a - f2.reconstruct()) / optimal)
        ratios8.append(fro_norm(a - f8.reconstruct()) / optimal)
    mean2, mean8 = float(np.mean(ratios2)), float(np.mean(ratios8))
    elapsed = time.perf_counter() - t0
    check(
        announce, 2, "sketch vs oracle",
        mean2 <= 1.10 and mean8 <= 1.02 and elapsed < 120.0,
        f"mean ratio it=2 {mean2:.4f} (<=1.10), it=8 {mean8:.4f} (<=1.02), {elapsed:.1f}s",
    )


def test_03_randomized_tail_bound(announce):
    t0 = time.perf_counter()
    n = 128
    rng = np.random.default_rng(303)
    residuals = {1: [], 2: []}
    sigma3 = []
    for s in range(100):
        a = rng.standard_normal((64, n))
        sigma3.append(np.linalg.svd(a, full_matrices=False)[1][2])
        for it in (1, 2):
            f = deflate(a, 2, FlrqConfig(it=it, seed=8000 + s))
            residuals[it].append(np.linalg.norm(a - f.reconstruct(), 2))
    ok = True
    details = []
    for it in (1, 2):
        bound = np.mean(sigma3) * (1 + (1 + 4 * math.sqrt(2 * n / (2 - 1))) ** (1 / (it + 1)))
        mean_res = float(np.mean(residuals[it]))
        ok &= mean_res <= bound
        details.append(f"it={it}: {mean_res:.2f} <= {bound:.2f}")
    elapsed = time.perf_counter() - t0
    check(announce, 3, "randomized tail bound", ok and elapsed < 60.0,
          "; ".join(details) + f", {elapsed:.1f}s")


def test_04_quantization_round_trip(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    ok = True
    worst = 0.0
    for s in range(100):
        w = rng.standard_normal((8, 4 * GROUP_SIZE)) * rng.uniform(0.05, 20)
        for d in (2, 3, 4):
            q = quantize_matrix(w, d)
            err = np.abs(w - dequantize(q))
            bound = np.repeat(q.scales, GROUP_SIZE, axis=1) / 2 + 1e-12
            ok &= bool(np.all(err <= bound))
            worst = max(worst, float((err - bound).max()))
    for d in (2, 3, 4):
        codes = np.arange(2**d)
        ok &= bool(np.array_equal(unpack_codes(pack_codes(codes, d), d, codes.size), codes))
    elapsed = time.perf_counter() - t0
    check(announce, 4, "quantization round trip", ok and elapsed < 30.0,
          f"100 seeds x 3 widths, exhaustive pack/unpack, {elapsed:.1f}s")


def test_05_qk_oracle(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(1000):
        d = int(rng.choice([2, 3, 4]))
        d_fp = int(rng.choice([16, 32]))
        m = int(rng.integers(1, 8192))
        n = int(rng.integers(1, 8192))
        r = int(rng.integers(0, 512))
        w0 = float(rng.uniform(1e-3, 1e3))
        wr = float(rng.uniform(1e-6, 1.0) * w0)
        q, k = qk(d, d_fp, m, n, r, w0, wr)
        q_ref = (d + math.log(w0 / wr, 2)) / d
        k_ref = 1 + d_fp * r * (m + n) / (d * m * n)
        ok &= abs(q - q_ref) <= 1e-12 * max(abs(q_ref), 1)
        ok &= abs(k - k_ref) <= 1e-12 * max(abs(k_ref), 1)
    exact1 = qk(4, 16, 4096, 4096, 32, 2.0, 1.0) == (1.25, 1.0625)
    q2, k2 = qk(2, 16, 1024, 1024, 64, 4.0, 1.0)
    exact2 = q2 == 2.0 and k2 == 2.0 and k2 >= q2
    elapsed = time.perf_counter() - t0
    check(announce, 5, "q/k oracle", ok and exact1 and exact2 and elapsed < 1.0,
          f"1000 tuples at 1e-12, worked cases exact, {elapsed:.2f}s")


def test_06_flexible_rank_behavior(announce):
    t0 = time.perf_counter()
    ranks_dominant = []
    ranks_gauss = []
    caps_ok = True
    for s in range(20):
        w = rank1_dominant(64, 64, 900 + s)
        cfg = FlrqConfig(d=4, seed=s)
        factors, _ = select_rank(w, cfg)
        ranks_dominant.append(factors.rank)
        _, k = qk(cfg.d, D_FP, 64, 64, factors.rank, 1.0, 1.0)
        caps_ok &= k <= 1 + cfg.x + 1e-12
    for s in range(20):
        w = np.random.default_rng(950 + s).standard_normal((64, 64))
        cfg = FlrqConfig(d=4, seed=s)
        factors, _ = select_rank(w, cfg)
        ranks_gauss.append(factors.rank)
        _, k = qk(cfg.d, D_FP, 64, 64, factors.rank, 1.0, 1.0)
        caps_ok &= k <= 1 + cfg.x + 1e-12
    elapsed = time.perf_counter() - t0
    ok = all(r == 1 for r in ranks_dominant) and all(r <= 8 for r in ranks_gauss) and caps_ok
    check(announce, 6, "flexible rank selection", ok and elapsed < 60.0,
          f"dominant ranks {sorted(set(ranks_dominant))}, gaussian max {max(ranks_gauss)}, "
          f"caps ok {caps_ok}, {elapsed:.1f}s")


def test_07_blc_monotonicity_and_2bit_rescue(announce):
    t0 = time.perf_counter()
    improved = 0
    mono_ok = True
    on_errs, off_errs = [], []
    for s in range(10):
        w, x = outlier_workload(1000 + s)
        calib = calibrate(w, x)
        on = flrq_layer(w, calib, FlrqConfig(d=2, seed=s, epochs=20))
        off = flrq_layer(w, calib, FlrqConfig(d=2, seed=s, epochs=1))
        best_so_far = np.minimum.accumulate([r.error for r in on.blc_trace])
        mono_ok &= bool(np.all(np.diff(best_so_far) <= 1e-15))
        improved += on.best_error < on.blc_trace[0].error
        on_errs.append(on.rel_error)
        off_errs.append(off.rel_error)
    elapsed = time.perf_counter() - t0
    ok = mono_ok and np.mean(on_errs) <= np.mean(off_errs) and improved >= 8
    check(announce, 7, "alternating loop at 2-bit", ok and elapsed < 300.0,
          f"best-so-far monotone {mono_ok}, mean on {np.mean(on_errs):.4f} <= "
          f"off {np.mean(off_errs):.4f}, improved {improved}/10, {elapsed:.1f}s")


def test_08_flexible_vs_fixed_efficiency(announce, tmp_path):
    t0 = time.perf_counter()
    src, out = tmp_path / "in", tmp_path / "ablate"
    assert main(["gen-synth", "--family", "outlier_channels", "--layers", "10", "--m", "256",
                 "--n", "256", "--outlier-count", "2", "--outlier-boost", "30", "--seed", "42",
                 "--out-dir", str(src)]) == 0
    rc = paper.main(["ablate", "--which", "fixed-vs-flex", "--in", str(src), "--d", "4",
                     "--seed", "42", "--out-dir", str(out)])
    rows = json.loads((out / "ablate_fixed_vs_flex.json").read_text())["rows"]
    flex_bits = float(np.mean([r["flex_extra_bits"] for r in rows]))
    fixed_bits = float(np.mean([r["fixed_extra_bits"] for r in rows]))
    flex_err = float(np.mean([r["flex_rel_error"] for r in rows]))
    fixed_err = float(np.mean([r["fixed_rel_error"] for r in rows]))
    elapsed = time.perf_counter() - t0
    # "within 5%": the two relative output errors agree to five points.
    ok = rc == 0 and flex_bits <= fixed_bits and abs(flex_err - fixed_err) <= 0.05
    check(announce, 8, "flexible vs fixed memory", ok and elapsed < 180.0,
          f"bits {flex_bits:.3f} <= {fixed_bits:.3f}, rel err {flex_err:.4f} vs "
          f"{fixed_err:.4f} (|diff| {abs(flex_err - fixed_err):.4f} <= 0.05), {elapsed:.1f}s")


def test_09_cli_determinism(announce, tmp_path):
    t0 = time.perf_counter()
    src = tmp_path / "in"
    rc = main(["gen-synth", "--family", "outlier_channels", "--m", "64", "--n", "96",
               "--layers", "3", "--tokens", "32", "--outlier-count", "1",
               "--outlier-boost", "20", "--seed", "13", "--out-dir", str(src)])
    assert rc == 0
    digests = []
    for threads in ("1", "8"):
        for rep in range(2):
            out = tmp_path / f"out_t{threads}_{rep}"
            rc = main(["quantize", "--in", str(src), "--out-dir", str(out),
                       "--seed", "13", "--d", "3", "--threads", threads])
            assert rc == 0
            digests.append(tree_digest(out))
    elapsed = time.perf_counter() - t0
    ok = len(set(digests)) == 1
    check(announce, 9, "command determinism", ok,
          f"4 runs (threads 1 and 8, twice each) -> {len(set(digests))} distinct digest(s), "
          f"{elapsed:.1f}s")


def test_10_container_io(announce, tmp_path):
    rng = np.random.default_rng(606)
    a = rng.standard_normal((5, 9))
    data = write_container(container_from_array(a))
    bitexact = read_container(data).to_array().tobytes() == a.tobytes()
    scalar_ok = read_container(write_container(container_from_array(np.array(2.5)))).to_array() == 2.5

    typed_errors = True
    try:
        read_container(b"BADMAGIC" + data[8:])
        typed_errors = False
    except BadMagicError:
        pass
    bad_version = bytearray(data)
    bad_version[8] = 9
    try:
        read_container(bytes(bad_version))
        typed_errors = False
    except BadVersionError:
        pass
    try:
        read_container(data[: len(data) - 3])
        typed_errors = False
    except TruncatedError:
        pass

    spec = SynthSpec(m=32, n=64, family="outlier_channels", seed=3, tokens=16,
                     outlier_count=1, outlier_boost=15.0)
    w, x = gen_layer(spec)
    layer = flrq_layer(w, calibrate(w, x), FlrqConfig(d=2, x=1.0, seed=3, epochs=2))
    write_bundle(tmp_path / "bundle", layer, {"d": 2})
    back, _ = read_bundle(tmp_path / "bundle")
    bundle_ok = (
        dequantize(back.q).tobytes() == dequantize(layer.q).tobytes()
        and back.reconstruct().tobytes() == layer.reconstruct().tobytes()
    )
    ok = bitexact and bool(scalar_ok) and typed_errors and bundle_ok
    check(announce, 10, "container and bundle io", ok,
          f"round-trips bit-exact {bitexact and bundle_ok}, typed header errors {typed_errors}")
