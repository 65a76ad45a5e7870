import dataclasses

import pytest

from flrq.config import FlrqConfig

BAD_VALUES = {
    "d-5": {"d": 5},
    "x-negative": {"x": -0.1},
    "x-nan": {"x": float("nan")},
    "it-negative": {"it": -1},
    "epochs-0": {"epochs": 0},
}


class TestFlrqConfig:
    @pytest.mark.parametrize("bad", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_rejects_bad_value_at_construction(self, bad):
        with pytest.raises(ValueError):
            FlrqConfig(**bad)

    def test_fields_are_the_knobs_callers_set(self):
        names = {f.name for f in dataclasses.fields(FlrqConfig)}
        assert names == {"d", "x", "it", "seed", "epochs"}

    def test_infinite_memory_cap_means_no_cap(self):
        assert FlrqConfig(x=float("inf")).x == float("inf")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FlrqConfig().seed = 1
