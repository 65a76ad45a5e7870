import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from flrq import rankselect
from flrq.config import FlrqConfig
from flrq.linalg import amax, rank1_subtract
from flrq.quantize import dequantize, quantize_matrix
from flrq.rankselect import (
    D_FP, RESIDUAL_FLOOR, SLOPE_T, SLOPE_WINDOW, STOP_REASONS, RankStep, components, normalized, qk,
    rank_cap, select_rank, slope,
)
from flrq.sketch import LowRankFactors, make_rng, r1_step
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

    def test_window_one(self):
        assert slope([10.0, 5.0], 1) == pytest.approx(0.5)


class TestSelectRank:
    @pytest.mark.parametrize("k", [-600, 600])
    def test_scale_past_squares_range_is_exact(self, k):
        # At 2^+-600 every square of W over- or underflows; the decisions must not see it.
        w = rank1_dominant(64, 64, 100)
        cfg = FlrqConfig(d=4, seed=0)
        base, base_trace = select_rank(w, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, trace = select_rank(np.ldexp(w, k), cfg)
        assert base.rank == 1
        assert (trace.selected_rank, trace.stop_reason) == (base_trace.selected_rank, base_trace.stop_reason)
        assert got.right.tobytes() == base.right.tobytes()
        assert got.left.tobytes() == np.ldexp(base.left, k).tobytes()
        assert trace.steps == [dataclasses.replace(s, amax=math.ldexp(s.amax, k)) for s in base_trace.steps]

    @pytest.mark.parametrize("k", [-1070, -600, 0, 600, 1000])
    def test_column_scale_is_the_product_normalized(self, k):
        # normalized(w, s) forms w * s itself, so it is normalized(w * s) byte for byte, shift too.
        g = np.random.default_rng(7)
        w = np.ldexp(g.standard_normal((300, 40)), k)
        w[:, 3] = -0.0  # a column whose maximum is -0.0
        s = g.uniform(0.01, 3.0, 40)
        got, shift = normalized(w, s)
        want, want_shift = normalized(w * s)
        assert (got.tobytes(), shift) == (want.tobytes(), want_shift)

    @pytest.mark.parametrize("k", [1, 2])
    def test_all_subnormal_input_keeps_its_rank(self, k):
        # At 2^-1070 an exactly rank-k integer matrix has only subnormal entries, all exact:
        # normalized hands selection the same float32 matrix, so the same rank and right factors.
        g = np.random.default_rng(k)
        a = g.integers(-4, 5, (64, k)) @ g.integers(-4, 5, (k, 96)).astype(float)
        cfg = FlrqConfig(d=4, x=1.0, seed=k)
        base, base_trace = select_rank(a, cfg)
        got, trace = select_rank(np.ldexp(a, -1070), cfg)
        assert base.rank == k
        assert (trace.selected_rank, trace.stop_reason) == (base_trace.selected_rank, base_trace.stop_reason)
        assert got.right.tobytes() == base.right.tobytes()
        assert got.left.tobytes() == np.ldexp(base.left, -1070).tobytes()

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


def counted_r1_steps(monkeypatch) -> list:
    """Patch rankselect's r1_step to append to the returned list on each call."""
    calls = []
    step = rankselect.r1_step
    monkeypatch.setattr(rankselect, "r1_step", lambda *a: calls.append(1) or step(*a))
    return calls


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
        calls = counted_r1_steps(monkeypatch)
        _, trace = select_rank(w, cfg)
        assert len(calls) == len(trace.steps)
        assert trace.stop_reason in STOP_REASONS  # what read_bundle accepts

    def test_one_amax_of_the_input(self, monkeypatch):
        # select_rank takes amax(w) once, for normalized's shift, and hands the normalized copy's
        # amax to components: one pass over each, then one per float32 residual.
        w, cfg = self.CASES["slope"]
        seen = []
        monkeypatch.setattr(rankselect, "amax", lambda a: seen.append((a is w, a.dtype)) or amax(a))
        _, trace = select_rank(w, cfg)
        assert seen == [(True, np.float64)] + [(False, np.float32)] * (1 + len(trace.steps))

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


def amax_rule_pairs(a, cfg):
    """The pairs components yields, from a loop that tests every residual's amax against amax(a)."""
    rng, residual, pairs = make_rng(cfg.seed), a.copy(), []
    floor = RESIDUAL_FLOOR * float(np.abs(a).max())
    while len(pairs) < min(a.shape) and np.abs(residual).max() > floor:
        pairs.append(r1_step(residual, cfg, rng))
        residual = residual - np.outer(pairs[-1].left, pairs[-1].right)
    return pairs


def pair_bytes(pairs, scale=0):
    return [(np.ldexp(p.left, scale).tobytes(), p.right.tobytes()) for p in pairs]


class TestOnePassDeflation:
    @pytest.mark.parametrize("k", [1, 3])
    # 2^-540: the residual's squares underflow; 2^-1000: so do a's; 2^-1070: a's entries are
    # subnormal, yet exact, so normalized(a) is the same matrix.
    @pytest.mark.parametrize("scale", [1, 100, -100, -540, -1000, -1070])
    def test_stops_where_the_fro_norm_rule_stops(self, k, scale):
        # Exactly rank k: k pairs of normalized(a), where a Frobenius-norm floor stops too; the
        # same pairs, with shift + scale, at every scale.
        g = np.random.default_rng(k)
        a = g.integers(-4, 5, (24, k)) @ g.integers(-4, 5, (k, 40)).astype(float)
        cfg = FlrqConfig(seed=k)
        b, shift = normalized(a)
        expected = amax_rule_pairs(b, cfg)
        assert len(expected) == k
        assert pair_bytes(pair for pair, _, _ in components(b, cfg)) == pair_bytes(expected)
        bs, shift_s = normalized(np.ldexp(a, scale))
        assert shift_s == shift + scale
        assert pair_bytes(pair for pair, _, _ in components(bs, cfg)) == pair_bytes(expected)

    def test_zero_residual_amax_is_recorded_as_positive_zero(self):
        # The pair cancels w[0, 0] exactly; the other entries are -0.0 - (+0.0), and numpy
        # returns -0.0 as both the residual's max and its min. x = 2 lets k = 3 draw that pair.
        w = np.full((8, 8), -0.0)
        w[0, 0] = 2.0
        _, trace = select_rank(w, FlrqConfig(d=2, x=2.0, seed=1))
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


def drawn_then_tested(w, cfg):
    """The rank rule as a loop that draws every pair of normalized(w), then tests k < q,
    k <= 1 + x and the slope in that order: (kept pairs, steps with amaxes in w's scale,
    stop reason)."""
    m, n = w.shape
    a, shift = normalized(w)
    w0 = amax(a)
    history, pairs, steps = [w0], [], []
    for r, (pair, _, envelope) in enumerate(components(a, cfg), start=1):
        history.append(envelope)
        q, k = qk(cfg.d, D_FP, m, n, r, w0, envelope)
        s = slope(history, SLOPE_WINDOW)
        steps.append(RankStep(r=r, amax=math.ldexp(envelope, shift), q=q, k=k, slope=s))
        for reason, failed in (("budget_qk", k >= q), ("memory_cap", k > 1.0 + cfg.x), ("slope", s < SLOPE_T)):
            if failed:
                return pairs, steps, reason
        pairs.append(pair)
    return pairs, steps, "max_rank"


def outlier_layer(m, n, seed, remainder=False):
    """A 2-bit workload's layer, or the remainder of its plain 2-bit quantization (a later epoch's input)."""
    w, _ = gen_layer(SynthSpec(m=m, n=n, family="outlier_channels", seed=seed, tokens=8))
    return w - dequantize(quantize_matrix(w, 2)) if remainder else w


class TestCapBoundsTheLoop:
    @pytest.mark.parametrize("d, m, n", [(2, 8, 8), (2, 512, 512), (3, 64, 96), (4, 1024, 1024), (2, 1, 7)])
    def test_rank_cap_is_the_largest_rank_qk_allows(self, d, m, n):
        ks = [qk(d, D_FP, m, n, r, 1.0, 1.0)[1] for r in range(min(m, n) + 1)]
        # Every k - 1 exactly, and the floats just below and above it, where the rounding decides.
        xs = {0.0, 0.2, 1e-300, 1e300, math.inf}
        xs |= {f(k - 1.0) for k in ks for f in (lambda v: v, lambda v: math.nextafter(v, 0.0),
                                               lambda v: math.nextafter(v, math.inf))}
        for x in xs:
            assert rank_cap(d, m, n, x) == max(r for r, k in enumerate(ks) if k <= 1.0 + x), x

    def test_cap_bounds_the_extractions(self, monkeypatch):
        # At d = 2, x = 0.2, k = 1 + r / 16 on 256 x 256: the cap is 3, and it ends the loop.
        w = outlier_layer(256, 256, seed=2)
        cfg = FlrqConfig(d=2, seed=2)
        calls = counted_r1_steps(monkeypatch)
        factors, trace = select_rank(w, cfg)
        assert rank_cap(2, 256, 256, cfg.x) == 3
        assert (len(calls), len(trace.steps), factors.rank) == (3, 3, 3)
        assert trace.stop_reason == "memory_cap"

    def test_zero_cap_extracts_nothing(self, monkeypatch):
        calls = counted_r1_steps(monkeypatch)
        factors, trace = select_rank(np.random.default_rng(5).standard_normal((32, 32)),
                                     FlrqConfig(d=4, x=0.0, seed=9))
        assert (calls, factors.rank, trace.steps, trace.stop_reason) == ([], 0, [], "memory_cap")

    def test_keeps_what_drawing_then_testing_keeps(self):
        # The same pairs, rank and steps as a loop that draws the pair past the cap and then
        # rejects it; that pair's step is gone, and its stop reason reads memory_cap.
        layers = [(64, 96, seed, rem, x) for seed in range(4) for rem in (False, True) for x in (0.2, 1.0)]
        layers += [(128, 128, 2, True, 0.2), (128, 128, 5, False, 0.2), (256, 256, 2, False, 0.2)]
        cases = [(outlier_layer(m, n, seed, rem), FlrqConfig(d=2, x=x, seed=seed))
                 for m, n, seed, rem, x in layers]
        cases.append((rank1_dominant(256, 256, 3), FlrqConfig(d=4, seed=5)))  # ends on the slope
        cases.append((np.zeros((8, 8)), FlrqConfig(seed=0)))  # ends at the floor, before the cap
        past_cap = set()
        for w, cfg in cases:
            factors, trace = select_rank(w, cfg)
            pairs, steps, stop = drawn_then_tested(w, cfg)
            if steps and steps[-1].r > rank_cap(cfg.d, *w.shape, cfg.x):
                past_cap.add(stop)
                steps, stop = steps[:-1], "memory_cap"
            expected = LowRankFactors.from_pairs(pairs, *w.shape, normalized(w)[1])
            assert (factors.left.tobytes(), factors.right.tobytes()) == (
                expected.left.tobytes(), expected.right.tobytes())
            assert (trace.selected_rank, trace.steps, trace.stop_reason) == (len(pairs), steps, stop)
        assert past_cap == {"budget_qk", "memory_cap"}  # both reasons the step past the cap read
