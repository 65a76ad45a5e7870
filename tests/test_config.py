import dataclasses

import pytest

from flrq.config import FlrqConfig

BAD_VALUES = {
    "d-5": {"d": 5},
    "d-fp-8": {"d_fp": 8},
    "x-negative": {"x": -0.1},
    "x-nan": {"x": float("nan")},
    "t-negative": {"t": -1e-3},
    "t-nan": {"t": float("nan")},
    "slope-window-0": {"slope_window": 0},
    "it-negative": {"it": -1},
    "epochs-0": {"epochs": 0},
    "clip-grid-empty": {"clip_grid": ()},
    "clip-grid-above-1": {"clip_grid": (1.0, 1.5)},
    "clip-grid-zero": {"clip_grid": (0.0,)},
    "group-size-0": {"group_size": 0},
    "alpha-exponent-nan": {"alpha_exponent": float("nan")},
    "alpha-exponent-inf": {"alpha_exponent": float("inf")},
}


class TestFlrqConfig:
    @pytest.mark.parametrize("bad", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_rejects_bad_value_at_construction(self, bad):
        with pytest.raises(ValueError):
            FlrqConfig(**bad)

    def test_infinite_memory_cap_means_no_cap(self):
        assert FlrqConfig(x=float("inf")).x == float("inf")

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FlrqConfig().seed = 1
