"""Rank-1 sketch extraction.

A single extraction draws a Gaussian probe s, runs `it` rounds of power
iteration using only matrix-vector products, and returns a rank-1 pair
(left carries the magnitude, right is unit norm). Extracting repeatedly
from the running residual (``rankselect.components``) builds a rank-r
approximation without ever forming a full decomposition.

Randomness is a Philox counter-based stream, so results are bit-stable
for a fixed seed. Stream splitting across layers is by convention
``layer_seed = global_seed ^ layer_index``; the probe for each step fills
its n-by-1 column in element order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FlrqConfig
from .errors import NumericalError
from .linalg import gemv, gemv_t


@dataclass(frozen=True)
class Rank1Pair:
    left: np.ndarray  # length m, carries the magnitude
    right: np.ndarray  # length n, unit norm

    def reconstruct(self) -> np.ndarray:
        return np.outer(self.left, self.right)


@dataclass
class LowRankFactors:
    """Stacked rank-1 factors: left (m, r) times right (r, n)."""

    left: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    @classmethod
    def empty(cls, m: int, n: int) -> "LowRankFactors":
        return cls(left=np.zeros((m, 0)), right=np.zeros((0, n)))

    @classmethod
    def from_pairs(cls, pairs: list[Rank1Pair], m: int, n: int) -> "LowRankFactors":
        if not pairs:
            return cls.empty(m, n)
        left = np.stack([p.left for p in pairs], axis=1)
        right = np.stack([p.right for p in pairs], axis=0)
        return cls(left=left, right=right)

    def reconstruct(self) -> np.ndarray:
        return self.left @ self.right


def make_rng(seed: int) -> np.random.Generator:
    """Philox stream for the given seed (64-bit, counter-based)."""
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFFFFFFFFFF))


def layer_seed(global_seed: int, layer_index: int) -> int:
    return (global_seed ^ layer_index) & 0xFFFFFFFFFFFFFFFF


def _rescaled(v: np.ndarray) -> np.ndarray:
    """``v`` times the power of two that puts its amax in [0.5, 1): exact, and 0 stays 0."""
    return np.ldexp(v, -np.frexp(np.abs(v).max())[1])


def r1_step(a: np.ndarray, cfg: FlrqConfig, rng: np.random.Generator) -> Rank1Pair:
    """Extract one rank-1 pair from ``a`` using 2*it + 2 matrix-vector products.

    The probe p = (A A^T)^it A s is built from one Gaussian draw s by alternating
    gemv/gemv_t calls; k = A^T p then gives left = (|k| / |p|^2) p and right = k / |k|.
    Both are degree 0 in p, so p is rescaled exactly after every product; k is rescaled
    too, and its power of two goes back into left. So the pair of 2^e A is (2^e left,
    right), and no scale of A underflows the probe or over- or underflows |k|. A probe that
    collapses to zero (always, for a zero ``a``) raises NumericalError. The pair has ``a``'s
    dtype; the draw is float64 in every dtype, so the stream does not depend on it.
    """
    p = _rescaled(gemv(a, rng.standard_normal(a.shape[1]).astype(a.dtype, copy=False)))
    for _ in range(cfg.it):
        p = _rescaled(gemv(a, _rescaled(gemv_t(a, p))))
    p_norm_sq = float(p @ p)
    if not p_norm_sq > 0.0:  # written so that NaN fails too
        raise NumericalError("sketch probe collapsed")
    k = gemv_t(a, p)
    shift = int(np.frexp(np.abs(k).max())[1])
    k = np.ldexp(k, -shift)  # amax(k) in [0.5, 1): k @ k neither overflows nor underflows
    k_norm = float(np.sqrt(k @ k))
    left = np.ldexp((k_norm / p_norm_sq) * p, shift)
    right = k / k_norm
    return Rank1Pair(left=left, right=right)
