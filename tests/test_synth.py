import numpy as np
import pytest

from flrq.synth import SynthSpec, gen_layer


class TestSynthSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SynthSpec(m=0, n=4)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            SynthSpec(m=4, n=4, family="cauchy")

    def test_rejects_boost_below_one(self):
        with pytest.raises(ValueError):
            SynthSpec(m=4, n=4, family="outlier_channels", outlier_boost=1.0)

    @pytest.mark.parametrize(
        "family, field, value",
        [
            ("outlier_channels", "outlier_boost", np.nan),
            ("outlier_channels", "outlier_boost", np.inf),
        ],
        ids=["boost-nan", "boost-inf"],
    )
    def test_rejects_non_finite(self, family, field, value):
        with pytest.raises(ValueError):
            SynthSpec(m=8, n=8, family=family, **{field: value})

    def test_rejects_count_beyond_n(self):
        with pytest.raises(ValueError):
            SynthSpec(m=4, n=4, family="outlier_channels", outlier_count=5)


class TestGenLayer:
    def test_deterministic_bytes(self):
        spec = SynthSpec(m=4, n=4, family="gaussian", seed=12)
        w1, x1 = gen_layer(spec)
        w2, x2 = gen_layer(spec)
        assert w1.tobytes() == w2.tobytes()
        assert x1.tobytes() == x2.tobytes()

    def test_seeds_change_output(self):
        w1, _ = gen_layer(SynthSpec(m=4, n=4, seed=1))
        w2, _ = gen_layer(SynthSpec(m=4, n=4, seed=2))
        assert not np.array_equal(w1, w2)

    def test_shapes(self):
        w, x = gen_layer(SynthSpec(m=6, n=10, tokens=5, seed=0))
        assert w.shape == (6, 10)
        assert x.shape == (10, 5)

    def test_boosted_column_dominates(self):
        for s in range(20):
            spec = SynthSpec(
                m=64, n=96, family="outlier_channels", seed=s,
                outlier_count=1, outlier_boost=10.0,
            )
            w, _ = gen_layer(spec)
            col_amax = np.abs(w).max(axis=0)
            assert col_amax.max() >= 5.0 * np.median(col_amax)

    def test_boost_applies_to_matching_activation_rows(self):
        spec = SynthSpec(
            m=32, n=48, family="outlier_channels", seed=3,
            outlier_count=2, outlier_boost=25.0,
        )
        w, x = gen_layer(spec)
        boosted_w = set(np.argsort(-np.abs(w).max(axis=0))[:2])
        boosted_x = set(np.argsort(-np.abs(x).max(axis=1))[:2])
        assert boosted_w == boosted_x
