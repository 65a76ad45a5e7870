import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flrq.linalg import amax
from flrq.quantize import (
    ClipSearchResult,
    clip,
    dequantize,
    quantize_matrix,
    search_clip,
)


def reference_quantize(w, d, group_size, mode):
    """The module docstring's rules as a plain loop: (codes, scales, zeros, dequantized)."""
    m, n = w.shape
    groups = -(-n // group_size)
    codes = np.zeros((m, n), dtype=np.int16)
    scales, zeros, deq = np.zeros((m, groups)), np.zeros((m, groups)), np.zeros((m, n))
    for i in range(m):
        for g in range(groups):
            cols = range(g * group_size, min(n, (g + 1) * group_size))
            vals = [w[i, j] for j in cols]
            if mode == "symmetric":
                lo, hi = -(2 ** (d - 1) - 1), 2 ** (d - 1) - 1
                scale, zero = max(abs(v) for v in vals) / hi, 0.0
            else:
                lo, hi = 0, 2**d - 1
                span = max(vals) - min(vals)
                # a constant group takes |value| / levels, so scale 0 means all zero
                scale = (span if span != 0.0 else abs(max(vals))) / hi
                zero = np.round(-min(vals) / scale) if scale > 0.0 else 0.0
            scales[i, g], zeros[i, g] = scale, zero
            for j, v in zip(cols, vals):
                code = min(max(np.round(v / scale) + zero, lo), hi) if scale > 0.0 else 0
                codes[i, j] = code
                deq[i, j] = (np.float64(code) - zero) * scale
    return codes, scales, None if mode == "symmetric" else zeros, deq


@st.composite
def group_matrices(draw):
    """A matrix whose groups are each normal, constant, all zero, half zero or subnormal.

    Every zero in one matrix has the same sign: the sign of a group minimum
    that is +0.0 in one place and -0.0 in another depends on numpy's
    reduction order, so no rule can pin it.
    """
    m, n, group_size = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 48))
    zero = draw(st.sampled_from([0.0, -0.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((m, n)) * 10.0 ** draw(st.integers(-300, 300))
    for i in range(m):
        for start in range(0, n, group_size):
            g = w[i, start : start + group_size]
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
    return w, group_size


class TestQuantizeMatrix:
    @given(case=group_matrices(), d=st.sampled_from([2, 3, 4]),
           mode=st.sampled_from(["symmetric", "asymmetric"]))
    def test_matches_per_group_loop(self, case, d, mode):
        w, group_size = case
        codes, scales, zeros, deq = reference_quantize(w, d, group_size, mode)
        q = quantize_matrix(w, d, group_size=group_size, mode=mode)
        assert q.codes.dtype == np.int16 and q.codes.flags.c_contiguous
        assert q.codes.tobytes() == codes.tobytes()
        assert q.scales.tobytes() == scales.tobytes()
        assert (q.zeros is None) == (zeros is None)
        if zeros is not None:
            assert q.zeros.tobytes() == zeros.tobytes()
        assert dequantize(q).tobytes() == deq.tobytes()

    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        n=st.integers(1, 70),
        group_size=st.integers(1, 32),
        d=st.sampled_from([2, 3, 4]),
        mode=st.sampled_from(["symmetric", "asymmetric"]),
        exponent=st.integers(-8, 8),
    )
    def test_dequantize_within_half_step(self, seed, m, n, group_size, d, mode, exponent):
        w = np.random.default_rng(seed).standard_normal((m, n)) * 10.0**exponent
        q = quantize_matrix(w, d, group_size=group_size, mode=mode)
        step = np.repeat(q.scales, group_size, axis=1)[:, :n]
        assert (np.abs(dequantize(q) - w) <= step / 2 + 1e-12 * amax(w)).all()

    def test_hand_case_symmetric_4bit(self):
        r = np.array([[-3.0, 1.0, 2.9]])
        q = quantize_matrix(r, 4, group_size=3, mode="symmetric")
        assert q.codes.tolist() == [[-7, 2, 7]]
        assert q.scales[0, 0] == pytest.approx(3.0 / 7.0, rel=1e-15)
        deq = dequantize(q)
        assert deq[0, 0] == pytest.approx(-3.0, abs=1e-12)
        assert deq[0, 1] == pytest.approx(6.0 / 7.0, rel=1e-12)
        assert deq[0, 2] == pytest.approx(3.0, abs=1e-12)

    def test_all_zero_group(self):
        for mode in ("symmetric", "asymmetric"):
            q = quantize_matrix(np.zeros((2, 8)), 3, group_size=4, mode=mode)
            assert np.all(q.codes == 0)
            assert np.all(q.scales == 0.0)
            assert np.all(dequantize(q) == 0.0)

    def test_lattice_points_roundtrip_exactly(self):
        step = 0.25
        codes = np.array([[-7, -3, 0, 2, 7]], dtype=float)
        w = codes * step
        q = quantize_matrix(w, 4, group_size=5, mode="symmetric")
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
        q = quantize_matrix(w, 2, group_size=4, mode="asymmetric")
        assert q.scales[0, 0] > 0
        assert np.allclose(dequantize(q), w, atol=1e-12)

    def test_group_count(self):
        q = quantize_matrix(np.random.default_rng(0).standard_normal((3, 130)), 4, group_size=128)
        assert q.scales.shape == (3, 2)

    def test_code_ranges(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 64)) * 10
        for d in (2, 3, 4):
            qs = quantize_matrix(w, d, group_size=16, mode="symmetric")
            assert qs.codes.min() >= -(2 ** (d - 1) - 1)
            assert qs.codes.max() <= 2 ** (d - 1) - 1
            qa = quantize_matrix(w, d, group_size=16, mode="asymmetric")
            assert qa.codes.min() >= 0
            assert qa.codes.max() <= 2**d - 1

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_symmetric_code_lattice_is_distinct(self, d):
        # every representable code dequantizes to its own lattice point
        half = 2 ** (d - 1) - 1
        codes = np.arange(-half, half + 1, dtype=float)
        w = codes[None, :] * 0.37
        q = quantize_matrix(w, d, group_size=codes.size, mode="symmetric")
        assert np.array_equal(q.codes[0], codes)
        deq = dequantize(q)[0]
        assert np.unique(deq).size == codes.size


class TestDequantizeRoundTrip:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    def test_elementwise_bound(self, d, mode):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = rng.standard_normal((8, 128)) * rng.uniform(0.1, 10)
            q = quantize_matrix(w, d, group_size=32, mode=mode)
            err = np.abs(w - dequantize(q))
            step = np.repeat(q.scales, 32, axis=1)
            assert np.all(err <= step / 2 + 1e-12)

    def test_zero_tensor(self):
        q = quantize_matrix(np.zeros((3, 5)), 2, group_size=5)
        assert np.all(dequantize(q) == 0.0)

    def test_extreme_codes_hit_amax_symmetric(self):
        w = np.array([[-4.0, 0.0, 4.0]])
        q = quantize_matrix(w, 3, group_size=3, mode="symmetric")
        deq = dequantize(q)
        assert deq[0, 0] == pytest.approx(-4.0, abs=1e-12)
        assert deq[0, 2] == pytest.approx(4.0, abs=1e-12)


class TestMaxQuantError:
    def test_bounds_actual_error(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((6, 64))
        for mode in ("symmetric", "asymmetric"):
            q = quantize_matrix(w, 3, group_size=16, mode=mode)
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

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            clip(np.ones((2, 2)), 0.0)
        with pytest.raises(ValueError):
            clip(np.ones((2, 2)), -1.0)


class TestSearchClip:
    def test_lattice_exact_picks_full_range(self):
        step = 0.5
        w = np.array([[-7, 1, 3, 7]], dtype=float) * step
        x = np.eye(4)
        res = search_clip(w, x, 4, group_size=4, mode="symmetric")
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

    def test_singleton_grid(self):
        w = np.random.default_rng(5).standard_normal((4, 16))
        res = search_clip(w, np.eye(16), 4, group_size=8, grid=(1.0,))
        assert res.p_clp == pytest.approx(amax(w))

    def test_never_worse_than_full_range(self):
        rng = np.random.default_rng(6)
        for s in range(10):
            w = rng.standard_normal((6, 32))
            x = rng.standard_normal((32, 8))
            res = search_clip(w, x, 3, group_size=8)
            errs = dict(res.grid_errors)
            assert errs[res.p_clp] <= errs[max(errs)] + 1e-12
            chosen = quantize_matrix(clip(w, res.p_clp), 3, group_size=8)
            assert res.q.codes.tobytes() == chosen.codes.tobytes()
            assert (res.q.scales.tobytes(), res.q.zeros.tobytes()) == (
                chosen.scales.tobytes(), chosen.zeros.tobytes())

    def test_tie_breaks_to_larger_threshold(self):
        # all-zero columns through x make every candidate equal
        w = np.array([[1.0, -1.0]])
        x = np.zeros((2, 3))
        res = search_clip(w, x, 4, group_size=2, grid=(0.5, 1.0))
        assert res.p_clp == pytest.approx(1.0)

    def test_empty_grid_errors(self):
        with pytest.raises(ValueError):
            search_clip(np.ones((2, 2)), np.ones((2, 2)), 4, grid=())

    def test_bad_ratio_errors(self):
        with pytest.raises(ValueError):
            search_clip(np.ones((2, 2)), np.ones((2, 2)), 4, grid=(1.5,))

    def test_zero_matrix_returns_empty_search(self):
        res = search_clip(np.zeros((2, 4)), np.ones((4, 2)), 4)
        assert isinstance(res, ClipSearchResult)
        assert res.p_clp == 0.0
        assert res.grid_errors == []
        assert res.q is None
