"""The hyperparameters a caller sets for the FLRQ pipeline.

R1-FLR (the rank-1 sketch and its rank rule) and BLC (channel scaling,
clip search, alternation) run as one pipeline, so one frozen config
carries every knob and rejects bad values when it is built. The constants
no caller varies live beside the code that uses them: ``quantize.GROUP_SIZE``
and ``CLIP_GRID``, ``rankselect.D_FP``, ``SLOPE_T`` and ``SLOPE_WINDOW``, and
``blc.alpha``'s exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quantize import BIT_WIDTHS


@dataclass(frozen=True)
class FlrqConfig:
    d: int = 4  # target quantization bit width
    x: float = 0.2  # cap on fractional model-size increase
    it: int = 2  # power iterations per rank-1 extraction
    seed: int = 0  # Philox key of the sketch probes
    epochs: int | None = None  # None: 20 at 2-bit, 1 at 3/4-bit

    def __post_init__(self):
        for name in ("d", "it", "seed") + (("epochs",) if self.epochs is not None else ()):
            if not hasattr(type(getattr(self, name)), "__index__"):  # as operator.index: numpy ints too
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.d not in BIT_WIDTHS:
            raise ValueError(f"bit width must be one of {BIT_WIDTHS}, got {self.d}")
        if not self.x >= 0.0:  # written so that NaN fails; inf means no cap
            raise ValueError(f"memory cap x must be >= 0, got {self.x}")
        if self.it < 0:
            raise ValueError("power-iteration count must be >= 0")
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epochs must be >= 1")

    def resolved_epochs(self) -> int:
        if self.epochs is not None:
            return self.epochs
        return 20 if self.d == 2 else 1
