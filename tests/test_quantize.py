import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flrq.blc import gram_factor
from flrq.errors import NumericalError
from flrq.linalg import BLOCK_ROWS, amax
from flrq.quantize import (
    CLIP_GRID,
    GROUP_SIZE,
    ClipSearchResult,
    clip,
    dequantize,
    quantize_matrix,
    search_clip,
)
from flrq.sketch import LowRankFactors


def reference_quantize(w, d):
    """The module docstring's rules as a plain loop: (codes, scales, zeros, dequantized)."""
    m, n = w.shape
    groups = -(-n // GROUP_SIZE)
    codes = np.zeros((m, n), dtype=np.int16)
    scales, zeros, deq = np.zeros((m, groups)), np.zeros((m, groups)), np.zeros((m, n))
    for i in range(m):
        for g in range(groups):
            cols = range(g * GROUP_SIZE, min(n, (g + 1) * GROUP_SIZE))
            vals = [w[i, j] for j in cols]
            hi = 2**d - 1
            span = max(vals) - min(vals)
            # a constant group takes |value| / levels, so scale 0 means all zero
            scale = (span if span != 0.0 else abs(max(vals))) / hi
            zero = np.round(-min(vals) / scale) if scale > 0.0 else 0.0
            scales[i, g], zeros[i, g] = scale, zero
            for j, v in zip(cols, vals):
                code = min(max(np.round(v / scale) + zero, 0), hi) if scale > 0.0 else 0
                codes[i, j] = code
                deq[i, j] = (np.float64(code) - zero) * scale
    return codes, scales, zeros, deq


@st.composite
def group_matrices(draw):
    """A matrix whose groups are each normal, constant, all zero, half zero or subnormal.

    n runs to three groups and one column, so a row's last group can be one
    column wide. Every zero in one matrix has the same sign: the sign of a
    group minimum that is +0.0 in one place and -0.0 in another depends on
    numpy's reduction order, so no rule can pin it.
    """
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3 * GROUP_SIZE + 1))
    zero = draw(st.sampled_from([0.0, -0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((m, n)) * 10.0 ** draw(st.integers(-300, 300))
    for i in range(m):
        for start in range(0, n, GROUP_SIZE):
            g = w[i, start : start + GROUP_SIZE]
            kind = rng.integers(5)
            if kind == 1:
                g[:] = g[0]
            elif kind == 2:
                g[:] = zero
            elif kind == 3:
                g[::2] = zero
            elif kind == 4:
                k = rng.integers(-2, 3, size=g.size)
                g[:] = np.where(k == 0, zero, k * 5e-324)
    return w


class TestQuantizeMatrix:
    @given(w=group_matrices(), d=st.sampled_from([2, 3, 4]))
    @example(w=np.random.default_rng(7).standard_normal((2, 3 * GROUP_SIZE + 1)), d=3)  # 1-wide tail
    def test_matches_per_group_loop(self, w, d):
        codes, scales, zeros, deq = reference_quantize(w, d)
        q = quantize_matrix(w, d)
        assert q.codes.dtype == np.int16 and q.codes.flags.c_contiguous
        assert q.codes.tobytes() == codes.tobytes()
        assert q.scales.tobytes() == scales.tobytes()
        assert q.zeros.tobytes() == zeros.tobytes()
        assert dequantize(q).tobytes() == deq.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        n=st.integers(1, 3 * GROUP_SIZE + 1),
        d=st.sampled_from([2, 3, 4]),
        exponent=st.integers(-8, 8),
    )
    def test_dequantize_within_half_step(self, seed, m, n, d, exponent):
        w = np.random.default_rng(seed).standard_normal((m, n)) * 10.0**exponent
        q = quantize_matrix(w, d)
        step = np.repeat(q.scales, GROUP_SIZE, axis=1)[:, :n]
        assert (np.abs(dequantize(q) - w) <= step / 2 + 1e-12 * amax(w)).all()

    def test_all_zero_group(self):
        q = quantize_matrix(np.zeros((2, 8)), 3)
        assert np.all(q.codes == 0)
        assert np.all(q.scales == 0.0)
        assert np.all(dequantize(q) == 0.0)

    def test_lattice_points_roundtrip_exactly(self):
        # a span of 15 steps at 4 bits: scale 0.25, zero 7
        w = np.array([[-7, -3, 0, 2, 8]], dtype=float) * 0.25
        q = quantize_matrix(w, 4)
        assert q.codes.tolist() == [[0, 4, 7, 9, 15]]
        assert np.array_equal(dequantize(q), w)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            quantize_matrix(np.array([[np.nan]]), 4)

    def test_rejects_bad_bit_width(self):
        with pytest.raises(ValueError):
            quantize_matrix(np.ones((2, 2)), 5)

    def test_constant_nonzero_group_asymmetric(self):
        # scale = 0 must only ever mean an all-zero group
        w = np.full((1, 4), 3.7)
        q = quantize_matrix(w, 2)
        assert q.scales[0, 0] > 0
        assert np.allclose(dequantize(q), w, atol=1e-12)

    def test_group_count(self):
        q = quantize_matrix(np.random.default_rng(0).standard_normal((3, 130)), 4)
        assert q.scales.shape == (3, 2)
        assert q.shape == q.codes.shape == (3, 130)

    def test_code_ranges(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 4 * GROUP_SIZE)) * 10
        for d in (2, 3, 4):
            q = quantize_matrix(w, d)
            assert q.codes.min() >= 0
            assert q.codes.max() <= 2**d - 1


class TestDequantizeRoundTrip:
    @pytest.mark.parametrize("d", [2, 3, 4], ids=lambda d: f"asymmetric-{d}")
    def test_elementwise_bound(self, d):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.standard_normal((8, 4 * GROUP_SIZE)) * rng.uniform(0.1, 10)
            q = quantize_matrix(w, d)
            err = np.abs(w - dequantize(q))
            step = np.repeat(q.scales, GROUP_SIZE, axis=1)
            assert np.all(err <= step / 2 + 1e-12)

    def test_zero_tensor(self):
        q = quantize_matrix(np.zeros((3, 5)), 2)
        assert np.all(dequantize(q) == 0.0)

    @pytest.mark.parametrize("n", [2 * GROUP_SIZE, 2 * GROUP_SIZE + 1], ids=["whole", "ragged"])
    def test_into_out_writes_the_same_bytes(self, n):
        # As search_clip calls it: into the leading rows of a larger scratch, and into the whole of one.
        w = np.random.default_rng(n).standard_normal((6, n)) * 3.0
        for rows in (6, 4):
            q = quantize_matrix(w[:rows], 3)
            scratch = np.full((6, n), np.nan)
            out = scratch[:rows]
            assert dequantize(q, out=out) is out
            assert out.tobytes() == dequantize(q).tobytes()
            assert np.isnan(scratch[rows:]).all()

    def test_into_a_strided_out(self):
        # Splitting the column axis into groups is a view of any layout, so writes reach out.
        q = quantize_matrix(np.random.default_rng(1).standard_normal((4, 2 * GROUP_SIZE + 3)), 2)
        out = np.empty((2 * GROUP_SIZE + 3, 4)).T
        dequantize(q, out=out)
        assert np.array_equal(out, dequantize(q))


class TestMaxQuantError:
    def test_bounds_actual_error(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((6, 4 * GROUP_SIZE))
        q = quantize_matrix(w, 3)
        assert np.abs(w - dequantize(q)).max() <= q.scales.max() / 2.0 + 1e-12


class TestClip:
    def test_noop_above_amax(self):
        w = np.array([[-2.0, 1.0]])
        assert np.array_equal(clip(w, 5.0), w)

    def test_hand_case(self):
        w = np.array([[-5.0, 2.0, 5.0]])
        assert clip(w, 3.0).tolist() == [[-3.0, 2.0, 3.0]]

    def test_small_threshold_saturates_everything(self):
        w = np.array([[-5.0, 2.0, 0.0]])
        out = clip(w, 1e-9)
        assert np.all(np.abs(out) <= 1e-9)
        assert np.sign(out[0, 0]) == -1.0

    def test_idempotent(self):
        w = np.random.default_rng(4).standard_normal((5, 5)) * 3
        once = clip(w, 1.5)
        assert np.array_equal(clip(once, 1.5), once)

    def test_rejects_negative_and_nan_threshold(self):
        with pytest.raises(ValueError):
            clip(np.ones((2, 2)), -1.0)
        with pytest.raises(ValueError):
            clip(np.ones((2, 2)), float("nan"))

    def test_zero_threshold_zeroes_every_entry(self):
        assert np.array_equal(clip(np.array([[-2.0, 0.0, 3.0]]), 0.0), np.zeros((1, 3)))

    def test_into_out(self):
        w = np.array([[-5.0, 2.0, 5.0]])
        out = np.empty((1, 3))
        assert clip(w, 3.0, out=out) is out
        assert out.tobytes() == clip(w, 3.0).tobytes()
        assert w.tolist() == [[-5.0, 2.0, 5.0]]


def reference_search_clip(w, l, d, score=np.float64):
    """The full-matrix grid search: every candidate quantizes and multiplies all of W.

    Each candidate is ranked by the norm of (W - W_hat) * 2^-sw times L * 2^-sl, multiplied
    in ``score``'s precision with its squares summed per row, as search_clip does; a grid
    error is that norm put back into W's scale. Returns (p_clp, q, grid_errors, norms)."""
    sw, sl = (int(np.frexp(amax(a))[1]) for a in (w, l))
    lf, top = np.ldexp(l, -sl).astype(score), amax(w)
    best_p, best_q, best_norm = None, None, np.inf
    grid_errors, norms = [], []
    for rho in CLIP_GRID:
        p = rho * top
        q = quantize_matrix(clip(w, p), d)
        prod = np.ldexp(w - dequantize(q), -sw).astype(score) @ lf
        norm = math.sqrt(np.square(prod).sum(axis=1).astype(np.float64).sum())
        grid_errors.append((p, float(np.ldexp(norm, sw + sl))))
        norms.append(norm)
        if norm < best_norm:
            best_norm, best_p, best_q = norm, p, q
    return best_p, best_q, grid_errors, norms


def near_tie(norms, rel):
    """Whether the two lowest norms lie within ``rel`` of each other (relative)."""
    low, second = sorted(norms)[:2]
    return second - low <= rel * second


def assert_same_quantization(a, b):
    for name in ("codes", "scales", "zeros"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


# float32 rounds to 2^-24. Scored errors sum up to a few hundred products, some cancelling, so
# the row redo and the full-matrix product agree to 2^-13 and float64 decides ties below 1e-6.
F32_REL, TIE_REL = 2.0**-13, 1e-6


# Row maxima as fractions of amax(W): "one" has no other row above 0.98 amax, so the
# 0.98 threshold redoes only the amax row; "all" has every row above 0.70 amax, so the
# last threshold redoes every row; "free" leaves the Gaussian rows as drawn.
ROW_PEAKS = {"one": (0.05, 0.97), "all": (0.71, 1.0), "free": None}


@st.composite
def clip_layers(draw):
    """(W, L, d): W is m x n, L = gram_factor(X) for an n x tokens X (triangular if tokens > n)."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 2 * GROUP_SIZE + 40))
    tokens = draw(st.integers(1, 2 * n + 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((m, n))
    peaks = ROW_PEAKS[draw(st.sampled_from(sorted(ROW_PEAKS)))]
    if peaks is not None:
        target = rng.uniform(*peaks, size=m)
        target[rng.integers(m)] = 1.0  # one row holds amax(W)
        w *= (target / np.abs(w).max(axis=1))[:, None]
    w *= 10.0 ** draw(st.integers(-3, 3))
    return w, gram_factor(rng.standard_normal((n, tokens))), draw(st.sampled_from([2, 3, 4]))


class TestSearchClip:
    @given(case=clip_layers())
    @example(case=(np.array([[3.0, -1.0, 0.5]]), np.eye(3), 2))  # a single row
    @example(case=(  # n % GROUP_SIZE = 72, tokens > n: L is triangular
        np.random.default_rng(1).standard_normal((5, 200)),
        gram_factor(np.random.default_rng(2).standard_normal((200, 500))),
        3,
    ))
    def test_matches_full_matrix_search(self, case):
        # Both score in float32, where a GEMM over the redone rows and the full product differ in
        # their last bits: the grid errors agree to F32_REL, and the winner does unless it ties.
        w, l, d = case
        p_clp, q, grid_errors, norms = reference_search_clip(w, l, d, np.float32)
        res = search_clip(w, l, d)
        assert [p for p, _ in res.grid_errors] == [p for p, _ in grid_errors]
        for (_, got), (_, want) in zip(res.grid_errors, grid_errors):
            assert math.isclose(got, want, rel_tol=F32_REL, abs_tol=0.0)
        if not near_tie(norms, 2 * F32_REL):
            assert res.p_clp == p_clp
            assert_same_quantization(res.q, q)
        assert_same_quantization(res.q, quantize_matrix(clip(w, res.p_clp), d))
        assert (res.p_clp, res.error) in res.grid_errors  # the winner's own entry
        assert res.error == min(err for _, err in res.grid_errors)

    @given(case=clip_layers(), k=st.sampled_from([-600, 0, 600]))
    @example(case=(  # n % GROUP_SIZE = 72, tokens > n: L is triangular
        np.random.default_rng(1).standard_normal((5, 200)),
        gram_factor(np.random.default_rng(2).standard_normal((200, 500))),
        2,
    ), k=-600)
    def test_float32_scoring_picks_float64s_winner(self, case, k):
        # The float64 reference ranks on the same exact powers of two, so at W * 2^-600 it still
        # tells the candidates apart; at W * 2^600 float64's squares overflow and nothing wins.
        w, l, d = case
        w = np.ldexp(w, k)
        p_clp, q, _, norms = reference_search_clip(w, l, d)
        shift = int(np.frexp(amax(w))[1]) + int(np.frexp(amax(l))[1])
        with np.errstate(over="ignore"):  # a losing candidate's error may overflow, as in float64
            if np.isinf(np.ldexp(min(norms) ** 2, 2 * shift)):
                with pytest.raises(NumericalError, match="no clip threshold gives a finite"):
                    search_clip(w, l, d)
                return
            res = search_clip(w, l, d)
        if not near_tie(norms, TIE_REL):
            assert res.p_clp == p_clp
            assert_same_quantization(res.q, q)
        assert_same_quantization(res.q, quantize_matrix(clip(w, res.p_clp), d))

    @pytest.mark.parametrize("n", [2 * GROUP_SIZE, 2 * GROUP_SIZE + 1], ids=["whole", "ragged"])
    def test_never_writes_w(self, n):
        g = np.random.default_rng(n)
        w = g.standard_normal((16, n))
        w[3, 7] = 40.0  # later thresholds redo row 3 only
        before = w.tobytes()
        w.flags.writeable = False  # a write raises
        search_clip(w, gram_factor(g.standard_normal((n, n + 8))), 2)
        assert w.tobytes() == before

    def test_lattice_exact_picks_full_range(self):
        w = np.array([[-7, 1, 3, 8]], dtype=float) * 0.5  # 15 steps of 0.5 at 4 bits
        x = np.eye(4)
        res = search_clip(w, x, 4)
        assert res.p_clp == pytest.approx(amax(w))
        best = min(err for _, err in res.grid_errors)
        assert best <= 1e-10

    def test_outlier_matrix_prefers_clipping(self):
        g = np.random.default_rng(3)
        w = g.standard_normal((8, 128)) * 0.1
        w[3, 77] = 25.0
        x = g.standard_normal((128, 32))
        res = search_clip(w, x, 2)
        errs = dict(res.grid_errors)
        full_range_err = errs[max(errs)]
        assert res.p_clp < amax(w)
        assert min(errs.values()) < full_range_err

    def test_never_worse_than_full_range(self):
        rng = np.random.default_rng(6)
        for s in range(10):
            w = rng.standard_normal((6, 4 * GROUP_SIZE))
            x = rng.standard_normal((4 * GROUP_SIZE, 8))
            res = search_clip(w, x, 3)
            errs = dict(res.grid_errors)
            assert errs[res.p_clp] <= errs[max(errs)] + 1e-12
            chosen = quantize_matrix(clip(w, res.p_clp), 3)
            assert res.q.codes.tobytes() == chosen.codes.tobytes()
            assert (res.q.scales.tobytes(), res.q.zeros.tobytes()) == (
                chosen.scales.tobytes(), chosen.zeros.tobytes())

    def test_tie_breaks_to_larger_threshold(self):
        # all-zero columns through x make every candidate equal
        w = np.array([[1.0, -1.0]])
        x = np.zeros((2, 3))
        res = search_clip(w, x, 4)
        assert res.p_clp == 1.0
        assert len(res.grid_errors) == len(CLIP_GRID)

    def test_grid_is_unique_descending_ratios(self):
        # search_clip tries the grid in order, so the tie-break needs it descending, and it
        # quantizes every row only for the first ratio, so that ratio must be the largest.
        assert list(CLIP_GRID) == sorted(set(CLIP_GRID), reverse=True)
        assert all(0.0 < rho <= 1.0 for rho in CLIP_GRID)

    def test_first_ratio_clips_nothing(self):
        # The first candidate quantizes R in place, which leaves R's bits only if its threshold
        # is amax(R); each later one redoes the rows above it, so the grid must strictly fall.
        assert CLIP_GRID[0] == 1.0
        assert all(a > b for a, b in zip(CLIP_GRID, CLIP_GRID[1:]))

    def test_no_finite_candidate_is_numerical_error(self):
        g = np.random.default_rng(0)
        w, x = g.standard_normal((8, 16)) * 1e160, g.standard_normal((16, 32))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="no clip threshold gives a finite"):
            search_clip(w, x, 3)

    def test_zero_matrix_searches_the_grid_at_zero(self):
        # An all-zero remainder (a pruned layer) takes the ordinary grid at threshold 0.
        w = np.zeros((2, 4))
        res = search_clip(w, np.ones((4, 2)), 4)
        assert isinstance(res, ClipSearchResult)
        assert res.p_clp == 0.0
        assert res.grid_errors == [(0.0, 0.0)] * len(CLIP_GRID)
        plain = quantize_matrix(w, 4)
        for name in ("codes", "scales", "zeros"):
            assert getattr(res.q, name).tobytes() == getattr(plain, name).tobytes()


@st.composite
def factored_layers(draw):
    """(W, factors, L, d): m has a tail of fewer than 8 rows past its BLOCK_ROWS blocks (or is
    below 8), n < GROUP_SIZE, the rank runs from 0, and tokens are at most n or above it."""
    m = BLOCK_ROWS * draw(st.integers(0, 2)) + draw(st.integers(1, 7))
    n, rank = draw(st.integers(1, GROUP_SIZE - 1)), draw(st.integers(0, 3))
    tokens = draw(st.one_of(st.integers(1, n), st.integers(n + 1, 2 * n + 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((m, n))
    w[:, rng.integers(n)] *= 10.0  # an outlier channel, which the factors may take
    factors = LowRankFactors(rng.standard_normal((m, rank)), rng.standard_normal((rank, n)))
    return w, factors, gram_factor(rng.standard_normal((n, tokens))), draw(st.sampled_from([2, 3, 4]))


class TestSearchClipOnFactors:
    @given(case=factored_layers())
    def test_equals_the_search_of_the_remainder(self, case):
        # The search forms W - left @ right itself, by one product per row block; given the
        # remainder from the same blocks, the plain search must agree in every byte.
        w, factors, l, d = case
        rest = np.concatenate([w[s:s + BLOCK_ROWS] - factors.left[s:s + BLOCK_ROWS] @ factors.right
                               for s in range(0, len(w), BLOCK_ROWS)])
        got, want = search_clip(w, l, d, factors), search_clip(rest, l, d)
        assert_same_quantization(got.q, want.q)
        assert (got.p_clp, got.error) == (want.p_clp, want.error)
        assert got.grid_errors == want.grid_errors

    def test_never_writes_w_or_factors(self):
        g = np.random.default_rng(3)
        w = g.standard_normal((BLOCK_ROWS + 3, 40))
        factors = LowRankFactors(g.standard_normal((len(w), 2)), g.standard_normal((2, 40)))
        before = [a.copy() for a in (w, factors.left, factors.right)]
        search_clip(w, gram_factor(g.standard_normal((40, 90))), 2, factors)
        assert all(np.array_equal(a, b) for a, b in zip((w, factors.left, factors.right), before))


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, which tracemalloc sees numpy's too."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedTemporaries:
    # Freed m x n float64 temporaries let malloc trim a heap top and fault it in again on the
    # next call, hundreds of times a layer. These bounds are deterministic; timings are not.
    def test_quantize_matrix_holds_one_row_block_of_quotients(self):
        w = np.random.default_rng(0).standard_normal((1024, 1024))
        q, peak = traced_peak(quantize_matrix, w, 2)
        # The codes, one block of float64 quotients, and a few arrays of one entry per group.
        assert peak < q.codes.nbytes + BLOCK_ROWS * w.shape[1] * 8 + 12 * q.scales.nbytes

    def test_search_clip_allocates_one_m_by_n_float64(self):
        g = np.random.default_rng(1)
        w = g.standard_normal((1024, 1024))
        w[:, :4] *= 10.0  # every row holds an outlier, so each threshold redoes every row
        res, peak = traced_peak(search_clip, w, gram_factor(g.standard_normal((1024, 64))), 2)
        assert res.p_clp < amax(w)
        # Its scratch, two candidates' int16 codes and row blocks: no second m x n float64.
        assert peak < 2 * w.nbytes

    @pytest.mark.parametrize("rank", [0, 3])
    def test_search_clip_holds_r_and_the_redone_rows(self, rank):
        # R, a buffer for the rows that the last ratio redoes, and L's float32 copy, plus codes
        # and row blocks: a second m x n float64 breaks the bound.
        g = np.random.default_rng(0)
        m, n = 1024, 256
        w = g.standard_normal((m, n))
        w[::3, 5] = 12.0  # a third of the rows lie above the last threshold
        factors = LowRankFactors(0.1 * g.standard_normal((m, rank)), g.standard_normal((rank, n)))
        rowmax = np.abs(w - factors.reconstruct()).max(axis=1)
        share = np.count_nonzero(rowmax > CLIP_GRID[-1] * rowmax.max()) / m
        _, peak = traced_peak(search_clip, w, gram_factor(g.standard_normal((n, 2 * n))), 2, factors)
        assert 0.0 < share < 1.0
        assert peak < 8 * m * n * (2 + share) + 4 * n * n
