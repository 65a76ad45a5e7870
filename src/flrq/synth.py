"""Synthetic weight/activation generators standing in for real model layers.

The outlier_channels family is the main workload: it boosts a few input
channels of both the weights and the activations, producing exactly the
correlated heavy columns that low-rank extraction is meant to soak up.
Gaussian layers are the negative control (no structure, rank should stay
tiny).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sketch import make_rng

FAMILIES = ("gaussian", "outlier_channels")


@dataclass(frozen=True)
class SynthSpec:
    m: int
    n: int
    family: str = "gaussian"
    seed: int = 0
    tokens: int = 64
    outlier_count: int = 4
    outlier_boost: float = 10.0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("layer dimensions must be >= 1")
        if self.tokens < 1:
            raise ValueError("token count must be >= 1")
        if not math.isfinite(self.outlier_boost):
            raise ValueError("outlier boost must be finite")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.family == "outlier_channels":
            if self.outlier_boost <= 1.0:
                raise ValueError("outlier boost must be > 1")
            if not 1 <= self.outlier_count <= self.n:
                raise ValueError("outlier count must be in [1, n]")


def gen_layer(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministically generate (weights m x n, activations n x tokens) for one layer."""
    rng = make_rng(spec.seed)
    w = rng.standard_normal((spec.m, spec.n))
    x = rng.standard_normal((spec.n, spec.tokens))
    if spec.family == "outlier_channels":
        channels = rng.choice(spec.n, size=spec.outlier_count, replace=False)
        w[:, channels] *= spec.outlier_boost
        x[channels, :] *= spec.outlier_boost
    return w, x
