import dataclasses
import json
import math

import numpy as np
import pytest

from flrq import rankselect
from flrq.config import FlrqConfig
from flrq.errors import NumericalError
from flrq.linalg import amax, fro_norm, rank1_subtract
from flrq.rankselect import (
    D_FP, RESIDUAL_FLOOR, SLOPE_T, SLOPE_WINDOW, STOP_REASONS, components, qk, select_rank, slope,
)
from flrq.sketch import make_rng, r1_step
from flrq.synth import SynthSpec, gen_layer


def rank1_dominant(m, n, seed, scale=10.0, noise=0.01):
    g = np.random.default_rng(seed)
    u = g.standard_normal(m)
    v = g.standard_normal(n)
    base = np.outer(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)) * scale * m
    return base + noise * g.standard_normal((m, n))


class TestQk:
    def test_no_extraction(self):
        q, k = qk(4, 16, 64, 64, 0, 5.0, 5.0)
        assert q == 1.0
        assert k == 1.0

    def test_worked_case_4bit(self):
        q, k = qk(4, 16, 4096, 4096, 32, 2.0, 1.0)
        assert k == 1.0625
        assert q == 1.25

    def test_worked_case_2bit_equality(self):
        q, k = qk(2, 16, 1024, 1024, 64, 4.0, 1.0)
        assert q == 2.0
        assert k == 2.0

    def test_exact_capture_returns_inf(self):
        q, k = qk(4, 16, 8, 8, 1, 3.0, 0.0)
        assert math.isinf(q)
        assert k > 1.0

    def test_nonpositive_original_errors(self):
        with pytest.raises(ValueError):
            qk(4, 16, 8, 8, 1, 0.0, 1.0)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.choice([2, 3, 4]))
            d_fp = int(rng.choice([16, 32]))
            m = int(rng.integers(1, 5000))
            n = int(rng.integers(1, 5000))
            r = int(rng.integers(0, 200))
            w0 = float(rng.uniform(0.01, 100))
            wr = float(rng.uniform(0.001, w0))
            q, k = qk(d, d_fp, m, n, r, w0, wr)
            q_ref = (d + math.log(w0 / wr, 2)) / d
            k_ref = 1 + d_fp * r * (m + n) / (d * m * n)
            assert q == pytest.approx(q_ref, rel=1e-12)
            assert k == pytest.approx(k_ref, rel=1e-12)


class TestSlope:
    def test_constant_history(self):
        assert slope([5, 5, 5, 5, 5], 4) == 0.0

    def test_linear_decay(self):
        assert slope([8, 6, 4, 2, 0], 4) == pytest.approx(0.25)

    def test_short_history_sentinel(self):
        assert slope([5, 4], 4) == math.inf

    def test_empty_history_errors(self):
        with pytest.raises(ValueError):
            slope([], 4)

    def test_zero_origin_errors(self):
        with pytest.raises(NumericalError):
            slope([0.0, 0.0], 1)

    def test_window_one(self):
        assert slope([10.0, 5.0], 1) == pytest.approx(0.5)


class TestSelectRank:
    def test_rank1_dominant_selects_one(self):
        for s in range(5):
            w = rank1_dominant(64, 64, 100 + s)
            factors, trace = select_rank(w, FlrqConfig(d=4, seed=s))
            assert factors.rank == 1
            assert trace.stop_reason in ("memory_cap", "slope")

    def test_rank1_dominant_slope_stop(self):
        # Wide enough that the memory cap does not fire first: the amax is flat
        # after the dominant pair, and the first full slope window ends the loop.
        w = rank1_dominant(256, 256, 3)
        factors, trace = select_rank(w, FlrqConfig(d=4, seed=5))
        assert factors.rank == SLOPE_WINDOW
        assert trace.stop_reason == "slope"

    def test_gaussian_selects_small_rank(self):
        for s in range(5):
            w = np.random.default_rng(200 + s).standard_normal((64, 64))
            factors, _ = select_rank(w, FlrqConfig(d=4, seed=s))
            assert factors.rank <= 8

    def test_memory_cap_zero_forbids_extraction(self):
        w = np.random.default_rng(5).standard_normal((32, 32))
        factors, _ = select_rank(w, FlrqConfig(d=4, x=0.0, seed=9))
        assert factors.rank == 0

    def test_budget_cap_always_respected(self):
        for s in range(8):
            w = rank1_dominant(48, 80, 300 + s, scale=5)
            cfg = FlrqConfig(d=2, x=0.5, seed=s)
            factors, _ = select_rank(w, cfg)
            _, k = qk(cfg.d, D_FP, 48, 80, factors.rank, 1.0, 1.0)
            assert k <= 1.0 + cfg.x + 1e-12

    def test_zero_matrix_is_rank_zero(self):
        factors, trace = select_rank(np.zeros((8, 8)), FlrqConfig(seed=0))
        assert factors.rank == 0
        assert trace.stop_reason == "max_rank"
        assert trace.steps == []

    def test_trace_amax_non_increasing(self):
        # Two strong outlier channels keep q above k for several steps (a Gaussian
        # layer stops on budget_qk after one, leaving nothing to compare).
        spec = SynthSpec(m=64, n=96, family="outlier_channels", seed=6,
                         outlier_count=2, outlier_boost=30.0)
        w, _ = gen_layer(spec)
        _, trace = select_rank(w, FlrqConfig(d=2, x=2.0, seed=7))
        assert len(trace.steps) >= 3
        vals = [s.amax for s in trace.steps]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_trace_reproducible_byte_for_byte(self):
        w = np.random.default_rng(7).standard_normal((32, 48))
        cfg = FlrqConfig(d=3, x=1.0, seed=11)
        _, t1 = select_rank(w, cfg)
        _, t2 = select_rank(w, cfg)
        assert json.dumps(dataclasses.asdict(t1)) == json.dumps(dataclasses.asdict(t2))

    def test_single_stop_reason_recorded(self):
        w = np.random.default_rng(8).standard_normal((16, 16))
        _, trace = select_rank(w, FlrqConfig(d=4, seed=2))
        assert trace.stop_reason in ("budget_qk", "memory_cap", "slope", "max_rank")


class TestComponents:
    CASES = {
        "slope": (rank1_dominant(256, 256, 3), FlrqConfig(d=4, seed=5)),
        "memory-cap": (rank1_dominant(64, 64, 100), FlrqConfig(d=4, seed=0)),
        "budget": (np.random.default_rng(8).standard_normal((16, 16)), FlrqConfig(d=2, seed=2)),
        "exhausted": (np.outer(np.arange(1.0, 65.0), np.ones(64)), FlrqConfig(d=4, seed=1)),
        "zero": (np.zeros((8, 8)), FlrqConfig(seed=0)),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_select_rank_never_extracts_ahead(self, monkeypatch, case):
        # One r1_step call per trace step: the stopping pair is the last one extracted.
        w, cfg = case
        calls = []
        step = rankselect.r1_step
        monkeypatch.setattr(rankselect, "r1_step", lambda *a: calls.append(1) or step(*a))
        _, trace = select_rank(w, cfg)
        assert len(calls) == len(trace.steps)
        assert trace.stop_reason in STOP_REASONS  # what read_bundle accepts

    def test_yields_min_dim_pairs_with_running_residuals(self):
        w = np.random.default_rng(9).standard_normal((12, 20))
        residual, count = w, 0
        for pair, after, _ in components(w, FlrqConfig(seed=3)):
            residual = rank1_subtract(residual, pair.left, pair.right)
            assert after.tobytes() == residual.tobytes()
            count += 1
        assert count == 12

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_envelope_is_the_running_min_of_residual_amax(self, case):
        w, cfg = case
        expected = amax(w)
        for _, residual, envelope in components(w, cfg):
            expected = min(expected, amax(residual))
            assert envelope == expected

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_input_kept_and_residuals_match_out_of_place(self, case):
        # One working residual is updated in place; a is never written.
        w, cfg = case
        a, expected = w.copy(), w
        for pair, residual, _ in components(a, cfg):
            expected = expected - np.outer(pair.left, pair.right)
            assert residual.tobytes() == expected.tobytes()
        assert a.tobytes() == w.tobytes()


def fro_rule_pairs(a, cfg):
    """The pairs components yields, from a loop that tests every residual's fro_norm."""
    rng, residual, pairs = make_rng(cfg.seed), a.copy(), []
    floor = RESIDUAL_FLOOR * fro_norm(a)
    while len(pairs) < min(a.shape) and fro_norm(residual) > floor:
        pairs.append(r1_step(residual, cfg, rng))
        residual = residual - np.outer(pairs[-1].left, pairs[-1].right)
    return pairs


class TestOnePassDeflation:
    @pytest.mark.parametrize("k", [1, 3])
    # 2^-540: the residual's squares underflow; 2^-1000: so do a's, and its floor is 0;
    # 2^-1070: a's entries are subnormal.
    @pytest.mark.parametrize("scale", [1, 100, -100, -540, -1000, -1070])
    def test_stops_where_the_fro_norm_rule_stops(self, k, scale):
        g = np.random.default_rng(k)
        a = np.ldexp(g.integers(-4, 5, (24, k)) @ g.integers(-4, 5, (k, 40)).astype(float), scale)
        cfg = FlrqConfig(seed=k)
        got = [pair for pair, _, _ in components(a, cfg)]
        expected = fro_rule_pairs(a, cfg)
        assert len(got) == len(expected)
        assert all(p.left.tobytes() == q.left.tobytes() and p.right.tobytes() == q.right.tobytes()
                   for p, q in zip(got, expected))

    def test_at_floor_is_the_fro_norm_test(self):
        # Floors on both sides of amax, fro_norm and sqrt(mn) amax, at every scale. The rounded
        # fro_norm of np.full((3, 7), c) exceeds the rounded sqrt(21) * c.
        g = np.random.default_rng(6)
        for scale in (0, 300, -300, -520, -540, -1060):
            for residual in (g.standard_normal((5, 7)), np.full((3, 7), 0.501369250085074),
                             np.eye(5, 7), np.zeros((5, 7))):
                residual = np.ldexp(residual, scale)
                top, fro = amax(residual), fro_norm(residual)
                for bound in (top, fro, np.sqrt(residual.size) * top, 2 * np.sqrt(residual.size) * top):
                    for floor in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf)):
                        assert rankselect._at_floor(residual, top, floor) == (fro <= floor)

    def test_zero_residual_amax_is_recorded_as_positive_zero(self):
        # The pair cancels w[0, 0] exactly; the other entries are -0.0 - (+0.0), and numpy
        # returns -0.0 as both the residual's max and its min.
        w = np.full((8, 8), -0.0)
        w[0, 0] = 2.0
        _, trace = select_rank(w, FlrqConfig(d=2, seed=1))
        assert [s.amax for s in trace.steps] == [0.0]
        assert math.copysign(1.0, trace.steps[0].amax) == 1.0


class TestLoopOracle:
    def test_matches_straight_line_replay(self):
        # Replay the selection loop independently on the identical pair
        # stream and compare the stopping rank and kept factors.
        for s in range(6):
            w = rank1_dominant(32, 48, 400 + s, scale=4, noise=0.2)
            cfg = FlrqConfig(d=3, x=0.8, seed=s)
            factors, trace = select_rank(w, cfg)

            rng = make_rng(cfg.seed)
            residual = w.copy()
            w0 = amax(w)
            envelope = w0
            history = [w0]
            kept = 0
            for r in range(1, min(w.shape) + 1):
                pair = r1_step(residual, cfg, rng)
                candidate = rank1_subtract(residual, pair.left, pair.right)
                envelope = min(envelope, amax(candidate))
                history.append(envelope)
                q = (cfg.d + math.log2(w0 / envelope)) / cfg.d if envelope > 0 else math.inf
                k = 1 + D_FP * r * sum(w.shape) / (cfg.d * w.shape[0] * w.shape[1])
                if len(history) < SLOPE_WINDOW + 1:
                    s_now = math.inf
                else:
                    s_now = (history[-1 - SLOPE_WINDOW] - history[-1]) / (SLOPE_WINDOW * w0)
                if k >= q or k > 1 + cfg.x or s_now < SLOPE_T:
                    break
                residual = candidate
                kept = r
            assert factors.rank == kept
            assert trace.selected_rank == kept
