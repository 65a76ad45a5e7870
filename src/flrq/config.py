"""The one set of hyperparameters for the FLRQ pipeline.

R1-FLR (the rank-1 sketch and its rank rule) and BLC (channel scaling,
clip search, alternation) run as one pipeline, so one frozen config
carries every knob and rejects bad values when it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .quantize import DEFAULT_CLIP_GRID, DEFAULT_GROUP_SIZE, check_args, check_grid


@dataclass(frozen=True)
class FlrqConfig:
    d: int = 4  # target quantization bit width
    d_fp: int = 16  # storage width of the factors, bits
    x: float = 0.2  # cap on fractional model-size increase
    t: float = 1e-3  # slope threshold
    slope_window: int = 4
    it: int = 2  # power iterations per rank-1 extraction
    seed: int = 0  # Philox key of the sketch probes
    epochs: int | None = None  # None: 20 at 2-bit, 1 at 3/4-bit
    alpha_exponent: float = 2.5
    clip_grid: tuple[float, ...] = DEFAULT_CLIP_GRID
    group_size: int = DEFAULT_GROUP_SIZE

    def __post_init__(self):
        check_args(self.d, self.group_size)
        check_grid(self.clip_grid)
        if self.d_fp not in (16, 32):
            raise ValueError(f"factor storage width must be 16 or 32, got {self.d_fp}")
        if not self.x >= 0.0:  # written so that NaN fails; inf means no cap
            raise ValueError(f"memory cap x must be >= 0, got {self.x}")
        if not self.t >= 0.0:
            raise ValueError(f"slope threshold must be >= 0, got {self.t}")
        if self.slope_window < 1:
            raise ValueError("slope window must be >= 1")
        if self.it < 0:
            raise ValueError("power-iteration count must be >= 0")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not math.isfinite(self.alpha_exponent):
            raise ValueError(f"alpha exponent must be finite, got {self.alpha_exponent}")

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return 20 if self.d == 2 else 1
