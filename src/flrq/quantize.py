"""Group-wise integer quantization, clipping, and clip-threshold grid search.

Weights are grouped along the input dimension: contiguous runs of
``GROUP_SIZE`` = 128 within each row (the common weight-only format), so a
row's last group is shorter when 128 does not divide n. Each group maps to
codes in [0, 2^d-1] with step (max-min)/(2^d-1) and an integer-valued
zero-point, so a value v is stored as round(v / step) + zero. Rounding is
half-to-even so repeated requantization stays unbiased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BIT_WIDTHS
from .errors import NumericalError
from .linalg import BLOCK_ROWS, lower_blocks, row_sq_norms
from .rankselect import normalized

GROUP_SIZE = 128
CLIP_GRID = (1.0, 0.98, 0.95, 0.92, 0.90, 0.85, 0.80, 0.70)  # clip ratios, unique and descending


@dataclass
class QuantizedTensor:
    """Integer codes plus per-group scales and zero-points."""

    codes: np.ndarray  # (m, n) int16, in [0, 2^bit_width - 1]
    scales: np.ndarray  # (m, ceil(n / GROUP_SIZE)) f64
    zeros: np.ndarray  # same shape as scales, integer-valued f64
    bit_width: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape


def _group_views(*arrays: np.ndarray):
    """Views of each same-shape array as (m, groups, width), then their slice of the group axis:
    the whole groups if any, then the short last one if any. Writes to a view reach its array."""
    m, n = arrays[0].shape
    whole, edge = n // GROUP_SIZE, n - n % GROUP_SIZE
    if whole:
        yield *(a[:, :edge].reshape(m, whole, GROUP_SIZE) for a in arrays), slice(None, whole)
    if edge < n:
        yield *(a[:, edge:].reshape(m, 1, n - edge) for a in arrays), slice(whole, None)


def quantize_matrix(r: np.ndarray, d: int) -> QuantizedTensor:
    """Quantize a dense matrix group by group."""
    if d not in BIT_WIDTHS:
        raise ValueError(f"bit width must be one of {BIT_WIDTHS}, got {d}")
    r = np.asarray(r, dtype=np.float64)
    m, n = r.shape
    starts = np.arange(0, n, GROUP_SIZE)  # reduceat: no padding, faster than max(axis=2)
    gmax, gmin = np.maximum.reduceat(r, starts, axis=1), np.minimum.reduceat(r, starts, axis=1)
    if not (np.isfinite(gmax).all() and np.isfinite(gmin).all()):
        raise ValueError("cannot quantize non-finite values")

    hi = 2**d - 1
    span = gmax - gmin
    # A constant nonzero group gets |value| / levels: scale 0 only means all zero.
    scales = np.where(span == 0.0, np.abs(gmax) / hi, span / hi)
    # A group with scale 0 is divided by 1 instead: all its values round to code 0.
    live = scales > 0.0
    divisor = np.where(live, scales, 1.0)
    zeros = np.where(live, np.round(-gmin / divisor), 0.0)
    codes = np.empty((m, n), np.int16)
    quotient = np.empty((min(m, BLOCK_ROWS), n))  # one block of rows at a time, not an m x n array
    for start in range(0, m, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        for part, qp, dest, g in _group_views(r[rows], quotient[:m - start], codes[rows]):
            np.round(np.divide(part, divisor[rows, g, None], out=qp), out=qp)
            # quotient + zeros holds small integers, so clipping after the cast clips the same values.
            np.add(qp, zeros[rows, g, None], out=dest, casting="unsafe")
    np.clip(codes, 0, hi, out=codes)
    return QuantizedTensor(codes, scales, zeros, d)


def dequantize(q: QuantizedTensor, out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct the dense matrix from codes and group parameters, into ``out`` if given."""
    out = np.empty(q.shape) if out is None else out
    out[...] = q.codes  # small integers, exact in float64
    for part, g in _group_views(out):
        part -= q.zeros[:, g, None]
        part *= q.scales[:, g, None]
    return out


def clip(w: np.ndarray, p_clp: float, out: np.ndarray | None = None) -> np.ndarray:
    """Saturate entries to [-p_clp, p_clp], into ``out`` if given; 0 zeroes every entry."""
    if not p_clp >= 0.0:  # written so that NaN fails
        raise ValueError(f"clip threshold must be >= 0, got {p_clp}")
    return np.clip(w, -p_clp, p_clp, out=out)


@dataclass
class ClipSearchResult:
    """The search's outcome. An all-zero W searches the grid at threshold 0, to p_clp 0.0."""

    p_clp: float
    error: float  # the chosen candidate's output error: its grid_errors entry
    grid_errors: list[tuple[float, float]]  # (candidate threshold, output error)
    q: QuantizedTensor  # the chosen candidate, quantized


def search_clip(w: np.ndarray, l: np.ndarray, d: int) -> ClipSearchResult:
    """Grid-search the clip threshold minimizing ||(W - dequant(quant(clip(W)))) L||_F.

    L is the layer's Gram factor (``blc.gram_factor``), so this is the output error through X;
    the row errors come from ``linalg.row_sq_norms``, which skips L's zero blocks when it is
    the lower-triangular factor of tokens > n. They are scored in float32, BLOCK_ROWS rows at a
    time, on (W - W_hat) * 2^-sw and ``normalized(L)``: the shifts are exact, so float32 only
    blurs the ranking, by about 1e-6 relative.
    Candidates are ratio * amax(W) for each ratio of CLIP_GRID; ties break toward the
    larger threshold. The first ratio quantizes every row; a later threshold p redoes only
    the rows with an entry above p, and the rest keep the first's codes and row errors.
    Quantization is row-local, so q equals quantize_matrix(clip(W, p_clp)) byte for byte.
    """
    rowmax = np.maximum(w.max(axis=1), -w.min(axis=1)) + 0.0  # as amax: a zero W searches at +0.0
    top = float(rowmax.max())
    sw, (lf, sl) = int(np.frexp(top)[1]), normalized(l)
    edges = lower_blocks(lf)  # once for every row block; None (a full L) is tested per block
    scratch = np.empty(w.shape)  # each candidate's clipped rows, then their dequantization
    w_block = np.empty((min(len(w), BLOCK_ROWS), w.shape[1]))  # one block of a candidate's W rows
    scaled = np.empty(w_block.shape, np.float32)  # ... and of their W - W_hat, shifted
    base, base_err = None, None
    best_norm, best_err, best_p, best_rows, best_q = np.inf, np.inf, None, None, None
    grid_errors: list[tuple[float, float]] = []
    for rho in CLIP_GRID:
        p = rho * top
        rows = np.arange(len(w)) if base is None else np.flatnonzero(rowmax > p)
        full, sub = len(rows) == len(w), scratch[:len(rows)]  # full: rows is arange, so read w in place
        # np.take gathers rows into out= directly in any mode but "raise", which copies first.
        q = quantize_matrix(clip(w if full else np.take(w, rows, 0, sub, "wrap"), p, out=sub), d)
        diff = dequantize(q, out=sub)
        errs = np.empty(len(w)) if base is None else base_err.copy()  # redone rows replace the first's
        for start in range(0, len(rows), BLOCK_ROWS):
            block = slice(start, start + BLOCK_ROWS)
            k = len(diff[block])
            w_rows = w[block] if full else np.take(w, rows[block], 0, w_block[:k], "wrap")
            part = np.subtract(w_rows, diff[block], out=diff[block])  # W - W_hat, in float64
            part = np.ldexp(part, -sw, out=scaled[:k], casting="same_kind")
            errs[rows[block]] = row_sq_norms(part, lf, edges)
        if base is None:
            base, base_err = q, errs
        total = errs.sum()
        err = float(np.sqrt(np.ldexp(total, 2 * (sw + sl))))  # overflows where float64's squares do
        grid_errors.append((p, err))
        if np.sqrt(total) < best_norm:  # ranked before scaling back, so a tiny W does not tie at 0
            best_norm, best_err, best_p, best_rows, best_q = np.sqrt(total), err, p, rows, q
    if not best_err < np.inf:
        raise NumericalError("no clip threshold gives a finite output error")
    for name in ("codes", "scales", "zeros"):
        getattr(base, name)[best_rows] = getattr(best_q, name)
    return ClipSearchResult(p_clp=best_p, error=best_err, grid_errors=grid_errors, q=base)
