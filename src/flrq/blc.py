"""Activation-aware scaling and the alternating low-rank/clip loop.

One layer is quantized by (1) deriving a per-channel scale from calibration
activations, (2) extracting a flexible-rank correction from the scaled
weights, (3) clip-searching and quantizing the remainder, then (4)
alternating: re-extract the correction from the dequantization residual,
re-search the clip threshold, re-quantize, always keeping the epoch with
the lowest calibration output error, evaluated as ||(W - W_hat) L||_F with
L L^T = X X^T (``calibrate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import FlrqConfig
from .errors import NumericalError
from .linalg import TINY, amax, product_norm
# clip and quantize_matrix are not called here, but benchmark/tracer.py wraps them as blc names.
from .quantize import QuantizedTensor, clip, dequantize, quantize_matrix, search_clip  # noqa: F401
from .rankselect import RankTrace, select_rank
from .sketch import LowRankFactors

CHANNEL_MEAN_EPS = 1e-8
CHANNEL_MEAN_CHUNK = 128  # tokens per step of channel_mean's pass over x


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
    blc_trace: list[EpochRecord]
    best_epoch: int
    wx_norm: float
    rank_trace: RankTrace
    warnings: list[str] = field(default_factory=list)

    @property
    def best_error(self) -> float:
        return self.blc_trace[self.best_epoch - 1].error

    @property
    def p_clp(self) -> float:
        return self.blc_trace[self.best_epoch - 1].p_clp

    @property
    def rel_error(self) -> float:
        return self.best_error / self.wx_norm if self.wx_norm > 0 else 0.0

    def reconstruct(self) -> np.ndarray:
        return dequantize(self.q) + self.factors.reconstruct()


@dataclass(frozen=True)
class Calibration:  # one layer's activations, reduced by ``calibrate``
    mean: np.ndarray  # channel_mean(X)
    l: np.ndarray  # the Gram factor: L L^T = X X^T
    wx_norm: float  # ||W X||_F


def gram_factor(x: np.ndarray) -> np.ndarray:
    """L L^T = X X^T: X when tokens <= n, else the n x n cholesky(X X^T), or R^T of qr(X^T) when
    X X^T is singular (an all-zero channel). gram_factor(L) is L."""
    if x.shape[1] <= x.shape[0]:
        return x
    try:
        g = x @ x.T  # exactly symmetric: numpy computes it by syrk and mirrors the triangle
        return np.linalg.cholesky(g.T)  # g in the Fortran order LAPACK reads: no transposing copy
    except np.linalg.LinAlgError:
        return np.ascontiguousarray(np.linalg.qr(x.T, mode="r").T)


def calibrate(w: np.ndarray, x: np.ndarray) -> Calibration:
    """Reduce the activations x (n x tokens) of weights w once; the caller can drop x on
    return (the Calibration keeps it only as L, when tokens <= n)."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
        l = gram_factor(x)
        wx_norm = product_norm(w, l)
    if not (np.isfinite(wx_norm) and np.isfinite(l).all()):
        raise NumericalError("the layer's output ||W X||_F overflows float64")
    return Calibration(channel_mean(x), l, wx_norm)


def channel_mean(x: np.ndarray) -> np.ndarray:
    """Per-channel mean of column-normalized absolute activations.

    Each token (column) is scaled to unit L2 norm. It is first scaled by the power of
    two that puts its largest entry in [0.5, 1), which is exact, so its direction
    survives squares that would underflow or overflow. A token with no normal entry
    (all zero, or all subnormal: their precision is gone already) is skipped. Entries
    are floored at a small epsilon so downstream scaling stays finite. x is read
    once, in CHANNEL_MEAN_CHUNK-token chunks, never copied or transposed: each chunk's
    tokens are summed in order by a cumulative sum along its rows.
    """
    if x.size == 0:
        raise ValueError("activation matrix is empty")
    total, live_tokens = np.zeros(x.shape[0]), 0
    for start in range(0, x.shape[1], CHANNEL_MEAN_CHUNK):
        a = np.abs(x[:, start:start + CHANNEL_MEAN_CHUNK])
        top = a.max(axis=0)
        exp = np.frexp(top)[1]
        a *= np.ldexp(1.0, np.where(top < TINY, exp, -exp))  # a power of two: exact; zeros below TINY
        norms = np.sqrt(np.add.reduce(np.square(a), axis=0))
        a /= np.where(norms > 0.0, norms, 1.0)  # a skipped token adds exact zeros
        a[:, 0] += total
        total = np.cumsum(a, axis=1, out=a)[:, -1].copy()  # tokens added one after another
        live_tokens += np.count_nonzero(norms)
    if not live_tokens:
        raise NumericalError("calibration activations underflow: every nonzero token is subnormal"
                             if x.any() else "all calibration tokens are zero")
    return np.maximum(total / live_tokens, CHANNEL_MEAN_EPS)


def alpha(x_bar: np.ndarray, exponent: float = 2.5) -> np.ndarray:
    """Channel scaling x_bar^exponent / sqrt(max(x_bar) * min(x_bar)), for x_bar > 0."""
    return np.power(x_bar, exponent) / np.sqrt(x_bar.max() * x_bar.min())


def scaled_flr(
    w: np.ndarray, alpha_vec: np.ndarray, cfg: FlrqConfig
) -> tuple[LowRankFactors, RankTrace]:
    """Flexible-rank extraction on the channel-scaled weights, in float32.

    w * alpha is scaled by the power of two 2^-shift that puts its amax in [0.5, 1), which is
    exact at every scale of w, and cast for select_rank. The factors come back as float64, with
    2^shift in left and 1 / alpha in right, so left @ right approximates w; the trace's amaxes
    are multiplied by 2^shift, back to the channel-scaled weights' space.
    """
    a = w * alpha_vec
    shift = int(np.frexp(amax(a))[1])
    a = np.ldexp(a, -shift, out=a).astype(np.float32)  # the float64 product is freed here
    factors, trace = select_rank(a, cfg)
    trace.steps = [replace(step, amax=math.ldexp(step.amax, shift)) for step in trace.steps]
    left = np.ldexp(factors.left.astype(np.float64), shift)
    return LowRankFactors(left, factors.right / alpha_vec), trace  # float32 / float64: float64


def layer_error(
    w: np.ndarray, q: QuantizedTensor, factors: LowRankFactors, x: np.ndarray
) -> float:
    """||(W - dequant(q) - left @ right) L||_F, with L = gram_factor(x); x may be L itself."""
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"activations {x.shape} do not conform to weights {w.shape}")
    if q.shape != w.shape:
        raise ValueError(f"quantized shape {q.shape} does not match weights {w.shape}")
    if factors.left.shape[0] != w.shape[0] or factors.right.shape[1] != w.shape[1]:
        raise ValueError("factor shapes do not match the weights")
    approx = dequantize(q)
    if factors.rank:  # rank 0 adds a zero matrix
        approx += factors.reconstruct()
    return product_norm(np.subtract(w, approx, out=approx), gram_factor(x))


def flrq_layer(w: np.ndarray, calib: Calibration, cfg: FlrqConfig) -> QuantizedLayer:
    """Quantize one layer (m x n weights; calib = calibrate(w, x)) with the full pipeline."""
    epochs = cfg.resolved_epochs()
    floored = int(np.count_nonzero(calib.mean <= CHANNEL_MEAN_EPS))
    warnings: list[str] = []
    if floored:
        warnings.append(f"{floored} zero-activation channel(s) floored at {CHANNEL_MEAN_EPS}")
    alpha_vec = alpha(calib.mean)

    trace: list[EpochRecord] = []
    best = None  # (epoch, q, factors, rank_trace) of the lowest-error epoch so far
    found = None  # the last epoch's clip search
    rank0_epochs: list[int] = []
    for epoch in range(1, epochs + 1):
        # Epoch 1 extracts from W itself, later epochs from the dequantization residual.
        factors, rank_trace = scaled_flr(w if found is None else w - dequantize(found.q), alpha_vec, cfg)
        rest = w - factors.reconstruct() if factors.rank else w
        found = search_clip(rest, calib.l, cfg.d)
        del rest  # freed before the next epoch's residual
        trace.append(EpochRecord(epoch=epoch, error=found.error, p_clp=found.p_clp, rank=factors.rank))
        if best is None or found.error < trace[best[0] - 1].error:
            best = (epoch, found.q, factors, rank_trace)
        if factors.rank == 0:
            rank0_epochs.append(epoch)
        if len(rank0_epochs) == 2:
            break
    epoch, q, factors, rank_trace = best
    # The returned record gets layer_error's bits, which a search error can miss in its last ulps.
    trace[epoch - 1].error = layer_error(w, q, factors, calib.l)
    # A rank-0 epoch quantizes W alone and epoch e + 1 depends only on epoch e's codes, so the
    # trace repeats from there; the strict < above never picks a copy of an error already seen.
    for e in range(len(trace) + 1, epochs + 1):  # none unless the loop broke
        period = rank0_epochs[1] - rank0_epochs[0]
        trace.append(replace(trace[e - period - 1], epoch=e))
    return QuantizedLayer(q, factors, trace, epoch, calib.wx_norm, rank_trace, warnings)
