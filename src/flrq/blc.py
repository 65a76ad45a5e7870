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

from dataclasses import dataclass, field, replace

import numpy as np

from .config import FlrqConfig
from .errors import NumericalError
from .linalg import BLOCK_ROWS, TINY, add_gram, blocks_norm, gram_cholesky, product_norm
# clip and quantize_matrix are not called here, but benchmark/tracer.py wraps them as blc names.
from .quantize import QuantizedTensor, clip, dequantize, quantize_matrix, search_clip  # noqa: F401
from .rankselect import RankTrace, select_rank
from .sketch import LowRankFactors

CHANNEL_MEAN_EPS = 1e-8
CHANNEL_MEAN_CHUNK = 128  # tokens per step of channel_mean's pass over x
CALIBRATION_CHUNK = 1024  # tokens per chunk of calibrate's pass: a multiple of CHANNEL_MEAN_CHUNK


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


def _columns(x, width: int):
    return (x[:, s:s + width] for s in range(0, x.shape[1], width))  # views of width tokens each


def _chunks(x):
    """X's CALIBRATION_CHUNK-token column chunks: an array's views, or a source's reads."""
    return _columns(x, CALIBRATION_CHUNK) if isinstance(x, np.ndarray) else x.chunks(CALIBRATION_CHUNK)


def _gram_steps(x, g: np.ndarray):
    """X's CHANNEL_MEAN_CHUNK-token steps, chunk after chunk, adding each X_c X_c^T into g on
    the way (``add_gram``: g's upper triangle, by syrk with no per-chunk temporary)."""
    for c in _chunks(x):
        add_gram(g, c)
        yield from _columns(c, CHANNEL_MEAN_CHUNK)


def gram_factor(x, g: np.ndarray | None = None) -> np.ndarray:
    """L L^T = X X^T: X when tokens <= n, else the float64 cholesky of g = X X^T summed over X's
    chunks (here, unless given) in g's memory or, when g is singular (an all-zero channel), R^T of
    X^T's QR, R = qr([R; X_c^T]) chunk after chunk. x is an array, or a source when tokens > n."""
    if x.shape[1] <= x.shape[0]:
        return x  # so gram_factor(L) is L
    if g is None:
        g = np.zeros((x.shape[0],) * 2)
        for c in _chunks(x):
            add_gram(g, c)
    try:
        return gram_cholesky(g)
    except np.linalg.LinAlgError:
        r = np.empty((0, x.shape[0]))
        for c in _chunks(x):
            r = np.linalg.qr(np.concatenate((r, c.T)), mode="r")
        return np.ascontiguousarray(r.T)


def calibrate(w, x) -> Calibration:
    """Reduce the activations x of weights w in one pass over X's chunks. x is an n x tokens
    array or an ``io.ActivationSource``, read whole if tokens <= n (L is X); the caller can
    drop x on return. w is an array or a source, whose payload is read only once X's pass and
    the factor are done; ``w.read()`` then gives the caller that same array."""
    n, tokens = x.shape
    if tokens <= n and not isinstance(x, np.ndarray):
        x = x.read()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
        g = np.zeros((n, n)) if tokens > n else None
        mean = channel_mean(x if g is None else _gram_steps(x, g))
        l = gram_factor(x, g)
        wx_norm = product_norm(w if isinstance(w, np.ndarray) else w.read(), l)
    if not (np.isfinite(wx_norm) and np.isfinite(l).all()):
        raise NumericalError("the layer's output ||W X||_F overflows float64")
    return Calibration(mean, l, wx_norm)


def channel_mean(x) -> np.ndarray:
    """Per-channel mean of column-normalized absolute activations.

    Each token (column) is scaled to unit L2 norm. It is first scaled by the power of
    two that puts its largest entry in [0.5, 1), which is exact, so its direction
    survives squares that would underflow or overflow. A token with no normal entry
    (all zero, or all subnormal: their precision is gone already) is skipped. Entries
    are floored at a small epsilon so downstream scaling stays finite. x (an array, or its
    CHANNEL_MEAN_CHUNK-token column steps) is read once, a step at a time, never copied or
    transposed: each step's tokens are summed in order by a cumulative sum along its rows.
    """
    if isinstance(x, np.ndarray) and x.size == 0:
        raise ValueError("activation matrix is empty")
    total, live_tokens, nonzero_tokens = 0.0, 0, 0
    for step in _columns(x, CHANNEL_MEAN_CHUNK) if isinstance(x, np.ndarray) else x:
        a = np.abs(step)
        top = a.max(axis=0)
        exp = np.frexp(top)[1]
        a *= np.ldexp(1.0, np.where(top < TINY, exp, -exp))  # a power of two: exact; zeros below TINY
        norms = np.sqrt(np.add.reduce(np.square(a), axis=0))
        a /= np.where(norms > 0.0, norms, 1.0)  # a skipped token adds exact zeros
        a[:, 0] += total
        total = np.cumsum(a, axis=1, out=a)[:, -1].copy()  # tokens added one after another
        live_tokens += np.count_nonzero(norms)
        nonzero_tokens += np.count_nonzero(top)
    if not live_tokens:
        raise NumericalError("calibration activations underflow: every nonzero token is subnormal"
                             if nonzero_tokens else "all calibration tokens are zero")
    return np.maximum(total / live_tokens, CHANNEL_MEAN_EPS)


def alpha(x_bar: np.ndarray, exponent: float = 2.5) -> np.ndarray:
    """Channel scaling x_bar^exponent / sqrt(max(x_bar) * min(x_bar)), for x_bar > 0."""
    return np.power(x_bar, exponent) / np.sqrt(x_bar.max() * x_bar.min())


def scaled_flr(
    w: np.ndarray, alpha_vec: np.ndarray, cfg: FlrqConfig
) -> tuple[LowRankFactors, RankTrace]:
    """Flexible-rank extraction on the channel-scaled weights w * alpha, with 1 / alpha put
    into right, so left @ right approximates w; the trace is in w * alpha's space."""
    factors, trace = select_rank(w, cfg, alpha_vec)  # forms w * alpha block by block, in float32
    return LowRankFactors(factors.left, factors.right / alpha_vec), trace


def layer_error(
    w: np.ndarray, q: QuantizedTensor, factors: LowRankFactors, x: np.ndarray
) -> float:
    """||(W - dequant(q) - left @ right) L||_F, with L = gram_factor(x); x may be L itself.
    Summed over BLOCK_ROWS-row blocks (``blocks_norm``): no m-row residual or product is formed."""
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"activations {x.shape} do not conform to weights {w.shape}")
    if q.shape != w.shape:
        raise ValueError(f"quantized shape {q.shape} does not match weights {w.shape}")
    if factors.left.shape[0] != w.shape[0] or factors.right.shape[1] != w.shape[1]:
        raise ValueError("factor shapes do not match the weights")
    buf = np.empty((min(len(w), BLOCK_ROWS), w.shape[1]))

    def residual(start: int) -> np.ndarray:  # rows start ... of W - dequant(q) - left @ right
        rows = slice(start, start + BLOCK_ROWS)
        approx = dequantize(q, out=buf[:len(w[rows])], rows=rows)
        if factors.rank:  # rank 0 adds a zero matrix
            approx += factors.left[rows] @ factors.right
        return np.subtract(w[rows], approx, out=approx)

    return blocks_norm(map(residual, range(0, len(w), BLOCK_ROWS)), gram_factor(x))


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
        # Epoch 1 extracts from W itself, later epochs from W - dequant(q), in dequantize's array.
        residual = w if found is None else dequantize(found.q)
        if found is not None:
            np.subtract(w, residual, out=residual)
        factors, rank_trace = scaled_flr(residual, alpha_vec, cfg)
        del residual  # freed before the search
        found = search_clip(w, calib.l, cfg.d, factors)  # on W - left @ right
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
