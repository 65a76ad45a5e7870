import dataclasses

import numpy as np
import pytest

from flrq.config import FlrqConfig

BAD_VALUES = {
    "d-5": {"d": 5},
    "x-negative": {"x": -0.1},
    "x-nan": {"x": float("nan")},
    "it-negative": {"it": -1},
    "epochs-0": {"epochs": 0},
    "d-none": {"d": None},
}


class TestFlrqConfig:
    @pytest.mark.parametrize("bad", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_rejects_bad_value_at_construction(self, bad):
        with pytest.raises(ValueError):
            FlrqConfig(**bad)

    def test_fields_are_the_knobs_callers_set(self):
        names = {f.name for f in dataclasses.fields(FlrqConfig)}
        assert names == {"d", "x", "it", "seed", "epochs"}

    # Integer fields take Python and numpy ints only: a float would fail deep in the pipeline.
    @pytest.mark.parametrize("field", ["d", "it", "seed", "epochs"])
    def test_non_integer_is_named(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            FlrqConfig(**{field: 3.0})

    def test_numpy_integers_are_accepted(self):
        cfg = FlrqConfig(d=np.int64(3), it=np.int32(1), seed=np.uint64(7), epochs=np.int16(2))
        assert (cfg.d, cfg.it, cfg.seed, cfg.resolved_epochs()) == (3, 1, 7, 2)

    def test_infinite_memory_cap_means_no_cap(self):
        assert FlrqConfig(x=float("inf")).x == float("inf")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FlrqConfig().seed = 1
