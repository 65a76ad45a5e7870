"""Activation-aware scaling and the alternating low-rank/clip loop.

One layer is quantized by (1) deriving a per-channel scale from calibration
activations, (2) extracting a flexible-rank correction from the scaled
weights, (3) clip-searching and quantizing the remainder, then (4)
alternating: re-extract the correction from the dequantization residual,
re-search the clip threshold, re-quantize, always keeping the epoch with
the lowest calibration output error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import FlrqConfig
from .errors import NumericalError
from .linalg import fro_norm
# clip is not called here, but benchmark/tracer.py wraps it as a blc name.
from .quantize import QuantizedTensor, clip, dequantize, quantize_matrix, search_clip  # noqa: F401
from .rankselect import RankTrace, select_rank
from .sketch import LowRankFactors

CHANNEL_MEAN_EPS = 1e-8


@dataclass
class EpochRecord:
    epoch: int
    error: float
    p_clp: float
    rank: int


@dataclass
class QuantizedLayer:
    """Best decomposition found for one layer, with its optimization trace."""

    q: QuantizedTensor
    factors: LowRankFactors
    alpha: np.ndarray
    blc_trace: list[EpochRecord]
    best_epoch: int
    best_error: float
    wx_norm: float
    p_clp: float
    rank_trace: RankTrace
    warnings: list[str] = field(default_factory=list)

    @property
    def rel_error(self) -> float:
        return self.best_error / self.wx_norm if self.wx_norm > 0 else 0.0

    def reconstruct(self) -> np.ndarray:
        return dequantize(self.q) + self.factors.reconstruct()


def channel_mean(x: np.ndarray) -> np.ndarray:
    """Per-channel mean of column-normalized absolute activations.

    Each token (column) is scaled to unit L2 norm first; all-zero tokens are
    skipped. Entries are floored at a small epsilon so downstream scaling
    stays finite.
    """
    if x.size == 0:
        raise ValueError("activation matrix is empty")
    norms = np.linalg.norm(x, axis=0)
    live = norms > 0.0
    if not live.any():
        raise NumericalError("all calibration tokens are zero")
    normalized = np.abs(x[:, live]) / norms[live]
    return np.maximum(normalized.mean(axis=1), CHANNEL_MEAN_EPS)


def alpha(x_bar: np.ndarray, exponent: float = 2.5) -> np.ndarray:
    """Channel scaling x_bar^exponent / sqrt(max(x_bar) * min(x_bar))."""
    if (x_bar <= 0.0).any():
        raise ValueError("channel means must be strictly positive (floor them first)")
    return np.power(x_bar, exponent) / np.sqrt(x_bar.max() * x_bar.min())


def scaled_flr(
    w: np.ndarray, alpha_vec: np.ndarray, cfg: FlrqConfig
) -> tuple[LowRankFactors, RankTrace]:
    """Flexible-rank extraction on the channel-scaled weights.

    Columns of w are multiplied by alpha before selection; the inverse scale
    is folded into the right factor, so left @ right approximates w in the
    original space.
    """
    if alpha_vec.shape != (w.shape[1],):
        raise ValueError(f"alpha length {alpha_vec.shape} does not match input dim {w.shape[1]}")
    if (alpha_vec <= 0.0).any():
        raise ValueError("alpha must be strictly positive")
    factors, trace = select_rank(w * alpha_vec, cfg)
    return LowRankFactors(factors.left, factors.right / alpha_vec, factors.truncated), trace


def layer_error(
    w: np.ndarray, q: QuantizedTensor, factors: LowRankFactors, x: np.ndarray
) -> float:
    """||W X - (dequant(q) + left @ right) X||_F."""
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"activations {x.shape} do not conform to weights {w.shape}")
    if q.shape != w.shape:
        raise ValueError(f"quantized shape {q.shape} does not match weights {w.shape}")
    if factors.left.shape[0] != w.shape[0] or factors.right.shape[1] != w.shape[1]:
        raise ValueError("factor shapes do not match the weights")
    approx = dequantize(q) + factors.reconstruct()
    return fro_norm(w @ x - approx @ x)


def _clip_and_quantize(
    w_rest: np.ndarray, x: np.ndarray, cfg: FlrqConfig
) -> tuple[QuantizedTensor, float]:
    found = search_clip(w_rest, x, cfg.d, cfg.group_size, cfg.clip_grid, cfg.mode)
    if found.q is None:  # an all-zero remainder: nothing to clip
        return quantize_matrix(w_rest, cfg.d, cfg.group_size, cfg.mode), found.p_clp
    return found.q, found.p_clp


def flrq_layer(w: np.ndarray, x: np.ndarray, cfg: FlrqConfig) -> QuantizedLayer:
    """Quantize one layer (m x n weights, n x tokens activations) with the full pipeline."""
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"calibration {x.shape} does not conform to weights {w.shape}")
    epochs = cfg.resolved_epochs()
    mean = channel_mean(x)
    floored = int(np.count_nonzero(mean <= CHANNEL_MEAN_EPS))
    warnings: list[str] = []
    if floored:
        warnings.append(f"{floored} zero-activation channel(s) floored at {CHANNEL_MEAN_EPS}")
    alpha_vec = alpha(mean, cfg.alpha_exponent)

    factors, rank_trace = scaled_flr(w, alpha_vec, cfg)
    w_q, p_clp = _clip_and_quantize(w - factors.reconstruct(), x, cfg)

    wx_norm = fro_norm(w @ x)
    trace: list[EpochRecord] = []
    best: QuantizedLayer | None = None
    for epoch in range(1, epochs + 1):
        err = layer_error(w, w_q, factors, x)
        trace.append(EpochRecord(epoch=epoch, error=err, p_clp=p_clp, rank=factors.rank))
        if best is None or err < best.best_error:
            best = QuantizedLayer(
                q=w_q,
                factors=factors,
                alpha=alpha_vec,
                blc_trace=trace,
                best_epoch=epoch,
                best_error=err,
                wx_norm=wx_norm,
                p_clp=p_clp,
                rank_trace=rank_trace,
                warnings=warnings,
            )
        if epoch == epochs:
            break
        factors, rank_trace = scaled_flr(w - dequantize(w_q), alpha_vec, cfg)
        w_q, p_clp = _clip_and_quantize(w - factors.reconstruct(), x, cfg)
    best.blc_trace = trace
    return best
