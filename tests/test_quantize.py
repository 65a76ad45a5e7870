import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flrq.blc import gram_factor
from flrq.errors import NumericalError
from flrq.linalg import amax, fro_norm
from flrq.quantize import (
    CLIP_GRID,
    GROUP_SIZE,
    ClipSearchResult,
    clip,
    dequantize,
    quantize_matrix,
    search_clip,
)


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


def reference_search_clip(w, l, d):
    """The full-matrix grid search: every candidate quantizes and multiplies all of W."""
    top = amax(w)
    best_p, best_q, best_err = None, None, np.inf
    grid_errors = []
    for rho in CLIP_GRID:
        p = rho * top
        q = quantize_matrix(clip(w, p), d)
        err = fro_norm((w - dequantize(q)) @ l)
        grid_errors.append((p, err))
        if err < best_err:
            best_err, best_p, best_q = err, p, q
    return best_p, best_q, grid_errors


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
        w, l, d = case
        p_clp, q, grid_errors = reference_search_clip(w, l, d)
        res = search_clip(w, l, d)
        assert res.p_clp == p_clp
        assert res.q.codes.tobytes() == q.codes.tobytes()
        assert res.q.scales.tobytes() == q.scales.tobytes()
        assert res.q.zeros.tobytes() == q.zeros.tobytes()
        assert [p for p, _ in res.grid_errors] == [p for p, _ in grid_errors]
        for (_, got), (_, want) in zip(res.grid_errors, grid_errors):
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)

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
