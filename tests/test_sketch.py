import numpy as np
import pytest

from flrq.config import FlrqConfig
from flrq.errors import NumericalError
from flrq.linalg import fro_norm
from flrq.rankselect import deflate
from flrq.sketch import layer_seed, make_rng, r1_step


def gaussian(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


class TestR1Step:
    def test_exact_rank1_recovery(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(16)
        v = rng.standard_normal(24)
        a = np.outer(u, v)
        for it in (0, 2):
            pair = r1_step(a, FlrqConfig(it=it, seed=1), make_rng(1))
            assert fro_norm(a - pair.reconstruct()) <= 1e-6 * fro_norm(a)

    def test_right_factor_unit_norm(self):
        a = gaussian((12, 20), 1)
        pair = r1_step(a, FlrqConfig(it=2, seed=2), make_rng(2))
        assert np.linalg.norm(pair.right) == pytest.approx(1.0, abs=1e-10)

    def test_high_it_converges_to_top_singular_pair(self):
        a = np.diag([3.0, 1.0])
        pair = r1_step(a, FlrqConfig(it=8, seed=3), make_rng(3))
        assert np.linalg.norm(pair.left) == pytest.approx(3.0, rel=1e-3)

    def test_tiny_matrix_probe_does_not_underflow(self):
        # p = (A A^T)^2 A s scales as A^5, so p . p underflows for A near 1e-42.
        a = gaussian((128, 128), 4)
        base = r1_step(a, FlrqConfig(seed=1), make_rng(1))
        pair = r1_step(np.ldexp(a, -140), FlrqConfig(seed=1), make_rng(1))
        assert pair.right.tobytes() == base.right.tobytes()
        assert pair.left.tobytes() == np.ldexp(base.left, -140).tobytes()

    def test_zero_matrix_errors(self):
        with pytest.raises(NumericalError):
            r1_step(np.zeros((4, 4)), FlrqConfig(seed=0), make_rng(0))

    def test_deterministic_for_fixed_seed(self):
        a = gaussian((10, 14), 2)
        p1 = r1_step(a, FlrqConfig(it=2, seed=9), make_rng(9))
        p2 = r1_step(a, FlrqConfig(it=2, seed=9), make_rng(9))
        assert np.array_equal(p1.left, p2.left)
        assert np.array_equal(p1.right, p2.right)

    def test_mean_residual_bounded_by_randomized_svd_rate(self):
        # 100 probes on 64x128 Gaussian matrices: the mean rank-1 residual
        # (spectral norm) stays below sigma_2 * (1 + (1 + 4*sqrt(2n))^(1/(it+1))),
        # the rank-2 instantiation of the randomized-SVD tail factor.
        n = 128
        it = 2
        residuals, sigma2 = [], []
        rng = np.random.default_rng(11)
        for s in range(100):
            a = rng.standard_normal((64, n))
            sigma2.append(np.linalg.svd(a, full_matrices=False)[1][1])
            f = deflate(a, 1, FlrqConfig(it=it, seed=5000 + s))
            residuals.append(np.linalg.norm(a - f.reconstruct(), 2))
        bound = np.mean(sigma2) * (1 + (1 + 4 * np.sqrt(2 * n)) ** (1 / (it + 1)))
        assert np.mean(residuals) <= bound

    def test_it2_beats_it0_on_average(self):
        a = gaussian((64, 128), 5)
        def mean_residual(it):
            vals = [
                fro_norm(a - deflate(a, 1, FlrqConfig(it=it, seed=s)).reconstruct())
                for s in range(50)
            ]
            return np.mean(vals)
        assert mean_residual(2) <= mean_residual(0)


class TestDeflate:
    def test_orthogonal_rank2_construction(self):
        rng = np.random.default_rng(6)
        u1 = rng.standard_normal(20); u1 /= np.linalg.norm(u1)
        u2 = rng.standard_normal(20); u2 -= (u2 @ u1) * u1; u2 /= np.linalg.norm(u2)
        v1 = rng.standard_normal(30); v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(30); v2 -= (v2 @ v1) * v1; v2 /= np.linalg.norm(v2)
        a = np.outer(u1, v1) + 0.1 * np.outer(u2, v2)
        f = deflate(a, 2, FlrqConfig(it=4, seed=7))
        assert fro_norm(a - f.reconstruct()) <= 1e-5 * fro_norm(a)

    def test_full_rank_extraction(self):
        a = gaussian((8, 8), 7)
        f = deflate(a, 8, FlrqConfig(it=8, seed=8))
        assert fro_norm(a - f.reconstruct()) <= 1e-4 * fro_norm(a)

    def test_zero_matrix_truncates(self):
        f = deflate(np.zeros((5, 5)), 3, FlrqConfig(seed=0))
        assert f.rank == 0

    def test_rank1_input_truncates_early(self):
        rng = np.random.default_rng(8)
        a = np.outer(rng.standard_normal(10), rng.standard_normal(12))
        f = deflate(a, 5, FlrqConfig(it=2, seed=1))
        assert f.rank == 1

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            deflate(np.ones((4, 4)), 0, FlrqConfig(seed=0))
        with pytest.raises(ValueError):
            deflate(np.ones((4, 4)), 5, FlrqConfig(seed=0))

    def test_monotone_residual_norm(self):
        a = gaussian((24, 36), 9)
        cfg = FlrqConfig(it=2, seed=10)
        rng = make_rng(cfg.seed)
        residual = a.copy()
        prev = fro_norm(residual)
        for _ in range(min(a.shape)):
            pair = r1_step(residual, cfg, rng)
            residual = residual - np.outer(pair.left, pair.right)
            cur = fro_norm(residual)
            assert cur <= prev + 1e-12
            prev = cur

    def test_deterministic_bytes(self):
        a = gaussian((16, 16), 12)
        f1 = deflate(a, 4, FlrqConfig(it=2, seed=13))
        f2 = deflate(a, 4, FlrqConfig(it=2, seed=13))
        assert f1.left.tobytes() == f2.left.tobytes()
        assert f1.right.tobytes() == f2.right.tobytes()


class TestSeeding:
    def test_layer_seed_xor(self):
        assert layer_seed(0b1100, 0b1010) == 0b0110
        assert layer_seed(7, 0) == 7

    def test_streams_differ_across_layers(self):
        a = gaussian((10, 10), 17)
        p0 = r1_step(a, FlrqConfig(seed=layer_seed(42, 0)), make_rng(layer_seed(42, 0)))
        p1 = r1_step(a, FlrqConfig(seed=layer_seed(42, 1)), make_rng(layer_seed(42, 1)))
        assert not np.allclose(p0.right, p1.right)
