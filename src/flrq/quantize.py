"""Group-wise integer quantization, clipping, and clip-threshold grid search.

Weights are grouped along the input dimension (contiguous runs of
``group_size`` within each row). Symmetric mode maps a group to codes in
[-(2^(d-1)-1), 2^(d-1)-1] with step amax/(2^(d-1)-1); asymmetric mode maps
to [0, 2^d-1] with step (max-min)/(2^d-1) and a float zero-point. Rounding
is half-to-even so repeated requantization stays unbiased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import amax, fro_norm

BIT_WIDTHS = (2, 3, 4)
MODES = ("symmetric", "asymmetric")

DEFAULT_GROUP_SIZE = 128
DEFAULT_CLIP_GRID = (1.0, 0.98, 0.95, 0.92, 0.90, 0.85, 0.80, 0.70)


@dataclass
class QuantizedTensor:
    """Integer codes plus per-group scales (and zero-points in asymmetric mode)."""

    codes: np.ndarray  # (m, n) int16
    scales: np.ndarray  # (m, ceil(n / group_size))
    zeros: np.ndarray | None  # same shape as scales, asymmetric only
    bit_width: int
    group_size: int
    mode: str
    shape: tuple[int, int]


def check_args(d: int, group_size: int, mode: str) -> None:
    if d not in BIT_WIDTHS:
        raise ValueError(f"bit width must be one of {BIT_WIDTHS}, got {d}")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def check_grid(grid: tuple[float, ...]) -> None:
    if len(grid) == 0:
        raise ValueError("clip grid is empty")
    for rho in grid:
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"clip ratios must lie in (0, 1], got {rho}")


def _grouped(a: np.ndarray, group_size: int) -> np.ndarray:
    """``a`` as (m, groups, group_size): a view, or an edge-padded copy when n is ragged."""
    if a.shape[1] % group_size:
        a = np.pad(a, ((0, 0), (0, -a.shape[1] % group_size)), mode="edge")
    return a.reshape(a.shape[0], a.shape[1] // group_size, group_size)


def quantize_matrix(
    r: np.ndarray,
    d: int,
    group_size: int = DEFAULT_GROUP_SIZE,
    mode: str = "asymmetric",
) -> QuantizedTensor:
    """Quantize a dense matrix group by group."""
    check_args(d, group_size, mode)
    r = np.asarray(r, dtype=np.float64)
    m, n = r.shape
    starts = np.arange(0, n, group_size)  # reduceat: no padding, faster than max(axis=2)
    gmax, gmin = np.maximum.reduceat(r, starts, axis=1), np.minimum.reduceat(r, starts, axis=1)
    if not (np.isfinite(gmax).all() and np.isfinite(gmin).all()):
        raise ValueError("cannot quantize non-finite values")

    if mode == "symmetric":
        lo, hi = 1 - 2 ** (d - 1), 2 ** (d - 1) - 1
        scales = (np.maximum(gmax, -gmin) + 0.0) / hi  # max |value|; + 0.0 turns -0.0 into 0.0
    else:
        lo, hi = 0, 2**d - 1
        span = gmax - gmin
        # A constant nonzero group gets |value| / levels: scale 0 only means all zero.
        scales = np.where(span == 0.0, np.abs(gmax) / hi, span / hi)
    # A group with scale 0 is divided by 1 instead: all its values round to code 0.
    live = scales > 0.0
    divisor = np.where(live, scales, 1.0)
    q = np.divide(_grouped(r, group_size), divisor[:, :, None])  # a view of r is never written
    np.round(q, out=q)
    zeros = None
    if mode == "asymmetric":
        zeros = np.where(live, np.round(-gmin / divisor), 0.0)
        q += zeros[:, :, None]
    # q holds small integers here, so clipping after the cast clips the same values.
    codes = np.clip(q.astype(np.int16), lo, hi).reshape(m, q.shape[1] * group_size)[:, :n]
    return QuantizedTensor(
        codes=np.ascontiguousarray(codes),
        scales=scales,
        zeros=zeros,
        bit_width=d,
        group_size=group_size,
        mode=mode,
        shape=(m, n),
    )


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct the dense matrix from codes and group parameters."""
    m, n = q.shape
    out = _grouped(q.codes, q.group_size).astype(np.float64)
    if q.mode == "asymmetric":
        out -= q.zeros[:, :, None]
    out *= q.scales[:, :, None]
    return np.ascontiguousarray(out.reshape(m, out.shape[1] * q.group_size)[:, :n])


def clip(w: np.ndarray, p_clp: float) -> np.ndarray:
    """Saturate entries to [-p_clp, p_clp]."""
    if p_clp <= 0.0:
        raise ValueError(f"clip threshold must be positive, got {p_clp}")
    return np.clip(w, -p_clp, p_clp)


@dataclass
class ClipSearchResult:
    p_clp: float
    grid_errors: list[tuple[float, float]]  # (candidate threshold, output error)
    q: QuantizedTensor | None = None  # the chosen candidate, quantized; None if none was tried


def search_clip(
    w: np.ndarray,
    x: np.ndarray,
    d: int,
    group_size: int = DEFAULT_GROUP_SIZE,
    grid: tuple[float, ...] = DEFAULT_CLIP_GRID,
    mode: str = "asymmetric",
) -> ClipSearchResult:
    """Grid-search the clip threshold minimizing ||W X - dequant(quant(clip(W))) X||_F.

    Candidates are ratio * amax(W); ties break toward the larger threshold.
    """
    check_grid(grid)
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"activation shape {x.shape} does not conform to weights {w.shape}")
    top = amax(w)
    if top == 0.0:
        # Nothing to clip; record an empty search.
        return ClipSearchResult(p_clp=0.0, grid_errors=[])
    wx = w @ x
    best_p, best_q, best_err = None, None, np.inf
    grid_errors: list[tuple[float, float]] = []
    for rho in sorted(set(grid), reverse=True):
        p = rho * top
        q = quantize_matrix(clip(w, p), d, group_size, mode)
        err = fro_norm(wx - dequantize(q) @ x)
        grid_errors.append((p, err))
        if err < best_err:
            best_err, best_p, best_q = err, p, q
    return ClipSearchResult(p_clp=best_p, grid_errors=grid_errors, q=best_q)
