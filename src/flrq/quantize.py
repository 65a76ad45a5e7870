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

from .errors import NumericalError
from .linalg import row_sq_norms

BIT_WIDTHS = (2, 3, 4)

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


def _group_views(a: np.ndarray):
    """Views of ``a`` as (m, groups, width), each with its slice of the group axis: the whole
    groups if any, then the short last one if any. Writes to a view reach ``a``."""
    m, n = a.shape
    whole, edge = n // GROUP_SIZE, n - n % GROUP_SIZE
    if whole:
        yield a[:, :edge].reshape(m, whole, GROUP_SIZE), slice(None, whole)
    if edge < n:
        yield a[:, edge:].reshape(m, 1, n - edge), slice(whole, None)


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
    q = np.empty((m, n))  # before the codes: freeing it leaves a hole, not a heap top malloc trims
    codes = np.empty((m, n), np.int16)
    for (part, g), (qp, _), (dest, _) in zip(_group_views(r), _group_views(q), _group_views(codes)):
        np.round(np.divide(part, divisor[:, g, None], out=qp), out=qp)
        # q + zeros holds small integers, so clipping after the cast clips the same values.
        np.add(qp, zeros[:, g, None], out=dest, casting="unsafe")
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
    the lower-triangular factor of tokens > n.
    Candidates are ratio * amax(W) for each ratio of CLIP_GRID; ties break toward the
    larger threshold. The first ratio quantizes every row; a later threshold p redoes only
    the rows with an entry above p, and the rest keep the first's codes and row errors.
    Quantization is row-local, so q equals quantize_matrix(clip(W, p_clp)) byte for byte.
    """
    rowmax = np.abs(w).max(axis=1)
    top = float(rowmax.max())
    scratch = np.empty(w.shape)  # each candidate's clipped rows, then their dequantization
    base, base_err = None, None
    best_p, best_rows, best_q, best_err = None, None, None, np.inf
    grid_errors: list[tuple[float, float]] = []
    for rho in CLIP_GRID:
        p = rho * top
        rows = slice(None) if base is None else np.flatnonzero(rowmax > p)
        w_rows = w[rows]
        clipped = clip(w_rows, p, out=scratch[:len(w_rows)])
        q = quantize_matrix(clipped, d)
        diff = dequantize(q, out=clipped)
        row_err = row_sq_norms(np.subtract(w_rows, diff, out=diff), l)
        if base is None:
            base, base_err = q, row_err
        errs = base_err.copy()
        errs[rows] = row_err
        err = float(np.sqrt(errs.sum()))
        grid_errors.append((p, err))
        if err < best_err:
            best_err, best_p, best_rows, best_q = err, p, rows, q
    if best_q is None:
        raise NumericalError("no clip threshold gives a finite output error")
    for name in ("codes", "scales", "zeros"):
        getattr(base, name)[best_rows] = getattr(best_q, name)
    return ClipSearchResult(p_clp=best_p, error=best_err, grid_errors=grid_errors, q=base)
