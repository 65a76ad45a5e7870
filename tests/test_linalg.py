import numpy as np
import pytest

from flrq.blc import gram_factor, layer_error
from flrq.errors import NumericalError
from flrq.linalg import (
    RANK1_BLOCK_ROWS,
    TRI_BLOCKS,
    amax,
    as_matrix,
    fro_norm,
    gemv,
    gemv_t,
    product_norm,
    rank1_subtract,
    row_sq_norms,
)
from flrq.quantize import quantize_matrix
from flrq.sketch import LowRankFactors
from paper import SVD_DIM_LIMIT, check_svd_size


class TestMatrixValidation:
    def test_accepts_nested_lists(self):
        a = as_matrix([[1.0, 2.0], [3.0, 4.0]])
        assert a.shape == (2, 2)
        assert a.dtype == np.float64

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_matrix([[np.inf, 0.0]])

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            as_matrix([1.0, 2.0])


class TestGemv:
    def test_identity(self):
        a = np.eye(3)
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(gemv(a, x), x)

    def test_zeros(self):
        assert np.array_equal(gemv(np.zeros((2, 2)), np.array([5.0, 7.0])), np.zeros(2))

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(gemv(a, np.array([1.0, 1.0])), np.array([3.0, 7.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gemv(np.zeros((2, 3)), np.zeros(2))


class TestGemvT:
    def test_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(gemv_t(np.eye(3), x), x)

    def test_hand_case(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(gemv_t(a, np.array([1.0, 1.0])), np.array([4.0, 6.0]))

    def test_zeros(self):
        assert np.array_equal(gemv_t(np.zeros((3, 2)), np.zeros(3)), np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gemv_t(np.zeros((2, 3)), np.zeros(3))

    def test_matches_transposed_gemv(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m, n = rng.integers(1, 12, size=2)
            a = rng.standard_normal((m, n))
            x = rng.standard_normal(m)
            assert np.allclose(gemv_t(a, x), gemv(a.T.copy(), x), atol=1e-12)


class TestRank1Subtract:
    def test_exact_rank1_cancels(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        a = np.outer(u, v)
        out = rank1_subtract(a, u, v)
        assert np.abs(out).max() < 1e-12

    def test_zero_vectors_leave_unchanged(self):
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(rank1_subtract(a, np.zeros(2), np.zeros(3)), a)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        expected = a.copy()
        for i in range(4):
            for j in range(4):
                expected[i, j] -= u[i] * v[j]
        assert np.allclose(rank1_subtract(a, u, v), expected, atol=1e-14)

    def test_does_not_mutate_input(self):
        a = np.ones((2, 2))
        rank1_subtract(a, np.ones(2), np.ones(2))
        assert np.array_equal(a, np.ones((2, 2)))

    def test_out_updates_in_place_with_the_same_bytes(self):
        g = np.random.default_rng(4)
        a, u, v = g.standard_normal((6, 9)), g.standard_normal(6), g.standard_normal(9)
        expected = rank1_subtract(a, u, v)
        assert rank1_subtract(a, u, v, out=a) is a
        assert a.tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rank1_subtract(np.zeros((2, 3)), np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("m", [1, RANK1_BLOCK_ROWS - 1, RANK1_BLOCK_ROWS + 1, 3 * RANK1_BLOCK_ROWS + 7])
    def test_blocks_give_the_bytes_of_the_whole_outer_product(self, m):
        g = np.random.default_rng(m)
        a, u, v = g.standard_normal((m, 37)), g.standard_normal(m), g.standard_normal(37)
        expected = (a - np.outer(u, v)).tobytes()
        assert rank1_subtract(a, u, v).tobytes() == expected
        assert rank1_subtract(a, u, v, out=a) is a
        assert a.tobytes() == expected


class TestAmaxFro:
    def test_amax_scan(self):
        assert amax(np.array([[-3.0, 1.0], [2.0, 0.0]])) == 3.0

    def test_amax_zero_matrix(self):
        assert amax(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("entries", [[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]])
    def test_amax_of_signed_zeros_is_positive_zero(self, entries):
        assert np.copysign(1.0, amax(np.array([entries]))) == 1.0

    def test_amax_matches_the_largest_absolute_entry(self):
        g = np.random.default_rng(5)
        for a in (g.standard_normal((7, 9)), -np.abs(g.standard_normal((3, 4))), np.abs(g.standard_normal((4, 3)))):
            assert amax(a) == np.abs(a).max()

    def test_amax_single_element(self):
        assert amax(np.array([[-7.0]])) == 7.0

    def test_amax_empty_errors(self):
        with pytest.raises(ValueError):
            amax(np.zeros((0, 3)))

    def test_fro_identity(self):
        assert fro_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_fro_zero(self):
        assert fro_norm(np.zeros((4, 5))) == 0.0

    def test_fro_hand_case(self):
        assert fro_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, rel=1e-15)

    def test_amax_bounded_by_fro(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
            assert amax(a) <= fro_norm(a) + 1e-12

    def test_amax_equals_fro_iff_single_nonzero(self):
        a = np.zeros((3, 4))
        a[1, 2] = -5.0
        assert amax(a) == fro_norm(a)


def activations(n, tokens, seed=0):
    """n x tokens X, or a lower-triangular n x n X for tokens == "tril"."""
    g = np.random.default_rng(seed)
    return np.tril(g.standard_normal((n, n))) if tokens == "tril" else g.standard_normal((n, tokens))


def full_row_sq_norms(a, l):
    """The row errors through the full product, which the kernel's full path must equal."""
    prod = a @ l
    return np.square(prod, out=prod).sum(axis=1)


def full_product_norm(a, b):
    prod = a @ b
    return float(np.sqrt(np.sum(np.square(prod, out=prod))))


def skipped_blocks(n):
    """(rows, cols) of each block above l's diagonal blocks, which the triangular path skips."""
    edges = [n * j // TRI_BLOCKS for j in range(TRI_BLOCKS + 1)]
    return [(slice(0, lo), slice(lo, hi)) for lo, hi in zip(edges[1:], edges[2:])]


# n in {130, 257}: TRI_BLOCKS does not divide it. Tokens below, at and above n, and a square
# lower-triangular X, which gram_factor passes through unchanged.
SHAPES = [(n, t) for n in (130, 257) for t in (n // 2, n, 3 * n, "tril")]


class TestRowSqNorms:
    @pytest.mark.parametrize("n,tokens", SHAPES)
    def test_matches_the_full_product(self, n, tokens):
        a, l = np.random.default_rng(n).standard_normal((40, n)), gram_factor(activations(n, tokens))
        expected = np.square(a @ l).sum(1)
        assert np.allclose(row_sq_norms(a, l), expected, rtol=1e-14, atol=0)
        assert product_norm(a, l) == pytest.approx(np.sqrt(expected.sum()), rel=1e-14)

    @pytest.mark.parametrize("n,tokens", [s for s in SHAPES if s[1] != "tril" and s[1] <= s[0]])
    def test_non_triangular_bytes_are_the_full_products(self, n, tokens):
        # tokens <= n: gram_factor returns X, which is not square, or square but full.
        a, l = np.random.default_rng(n).standard_normal((40, n)), gram_factor(activations(n, tokens))
        assert row_sq_norms(a, l).tobytes() == full_row_sq_norms(a, l).tobytes()
        assert product_norm(a, l) == full_product_norm(a, l)

    @pytest.mark.parametrize("n", [130, 257])
    def test_any_nonzero_in_a_skipped_block_takes_the_full_product(self, n):
        a = np.random.default_rng(n).standard_normal((40, n))
        for rows, cols in skipped_blocks(n):
            for i, j in ((rows.stop - 1, cols.start), (0, cols.stop - 1)):  # block corners
                l = gram_factor(activations(n, 3 * n))
                l[i, j] = 1.0
                assert row_sq_norms(a, l).tobytes() == full_row_sq_norms(a, l).tobytes()
                assert product_norm(a, l) == full_product_norm(a, l)

    @pytest.mark.parametrize("n,tokens", SHAPES)
    def test_layer_error_same_through_x_or_factor(self, n, tokens):
        g = np.random.default_rng(n)
        w, x = g.standard_normal((24, n)), activations(n, tokens)
        factors = LowRankFactors(g.standard_normal((24, 2)), g.standard_normal((2, n)))
        q = quantize_matrix(w, 3)
        assert layer_error(w, q, factors, x) == layer_error(w, q, factors, gram_factor(x))

    def test_tiny_factors(self):
        # n < TRI_BLOCKS leaves some column blocks empty.
        for n in (1, 2, 3):
            a, l = np.arange(1.0, 2 * n + 1).reshape(2, n), np.tril(np.ones((n, n)))
            assert np.array_equal(row_sq_norms(a, l), np.square(a @ l).sum(1))


def thin_svd(a):
    return np.linalg.svd(a, full_matrices=False)


class TestSvdOracle:
    """numpy's LAPACK SVD is the exact reference of the sketch tests, acceptance 02/03 and
    `ablate --which svd` (whose tail norm is ``fro_norm(sigma[r:])``); these pin what they
    assume."""

    def test_diagonal(self):
        _, s, _ = thin_svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0], atol=1e-12)

    def test_rank1(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal(9)
        v = rng.standard_normal(5)
        _, s, _ = thin_svd(np.outer(u, v))
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert s[0] == pytest.approx(expected, rel=1e-12)
        assert s[1] < 1e-12 * expected

    def test_sigma_matches_gram_eigendecomposition(self):
        # Independent route: eigenvalues of A^T A.
        a = np.random.default_rng(5).standard_normal((8, 5))
        _, s, _ = thin_svd(a)
        eig = np.sort(np.linalg.eigvalsh(a.T @ a))[::-1]
        assert np.allclose(s**2, eig, rtol=1e-8, atol=1e-10)

    def test_reconstruction_tight(self):
        rng = np.random.default_rng(6)
        for shape in [(12, 7), (7, 12), (20, 20)]:
            a = rng.standard_normal(shape)
            u, s, vt = thin_svd(a)
            assert fro_norm(u @ np.diag(s) @ vt - a) <= 1e-9 * fro_norm(a)

    def test_descending_order(self):
        _, s, _ = thin_svd(np.random.default_rng(7).standard_normal((15, 11)))
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0)

    def test_orthonormal_factors(self):
        u, s, vt = thin_svd(np.random.default_rng(8).standard_normal((10, 14)))
        k = s.shape[0]
        assert np.abs(u.T @ u - np.eye(k)).max() < 1e-10
        assert np.abs(vt @ vt.T - np.eye(k)).max() < 1e-10

    def test_eckart_young(self):
        # The best rank-r error equals the sigma tail norm for every r.
        a = np.random.default_rng(9).standard_normal((12, 9))
        u, s, vt = thin_svd(a)
        for r in range(s.shape[0] + 1):
            err = fro_norm(a - (u[:, :r] * s[:r]) @ vt[:r])
            assert err == pytest.approx(fro_norm(s[r:]), rel=1e-8, abs=1e-10)

    def test_size_guard(self):
        # ablate --which svd takes the exact SVD only up to SVD_DIM_LIMIT on the short side.
        assert SVD_DIM_LIMIT == 1024
        with pytest.raises(NumericalError):
            check_svd_size((1025, 1025))
        with pytest.raises(NumericalError):
            check_svd_size((2048, 1025))
        check_svd_size((1024, 1024))
        check_svd_size((4096, 3))

    def test_zero_matrix(self):
        u, s, _ = thin_svd(np.zeros((4, 6)))
        assert np.all(s == 0.0)
        assert np.abs(u.T @ u - np.eye(4)).max() < 1e-10

    def test_input_not_mutated(self):
        # ablate --which svd deflates the same matrix after taking its SVD.
        a = np.random.default_rng(10).standard_normal((5, 12))
        before = a.copy()
        thin_svd(a)
        assert np.array_equal(a, before)
