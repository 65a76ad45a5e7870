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


def _grouped(a: np.ndarray, group_size: int) -> tuple[np.ndarray, int]:
    """Pad columns to a multiple of group_size and reshape to (m, G, group_size)."""
    m, n = a.shape
    groups = -(-n // group_size)
    padded = np.zeros((m, groups * group_size))
    padded[:, :n] = a
    return padded.reshape(m, groups, group_size), groups


def quantize_matrix(
    r: np.ndarray,
    d: int,
    group_size: int = DEFAULT_GROUP_SIZE,
    mode: str = "asymmetric",
) -> QuantizedTensor:
    """Quantize a dense matrix group by group."""
    check_args(d, group_size, mode)
    if not np.isfinite(r).all():
        raise ValueError("cannot quantize non-finite values")
    m, n = r.shape
    blocks, groups = _grouped(r, group_size)
    # Padding columns are zero; mask them out of the group statistics.
    mask = np.zeros((1, groups, group_size), dtype=bool)
    mask[0].reshape(-1)[:n] = True

    if mode == "symmetric":
        half = 2 ** (d - 1) - 1
        gmax = np.where(mask, np.abs(blocks), 0.0).max(axis=2)
        scales = gmax / half
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.round(blocks / scales[:, :, None])
        q = np.where(scales[:, :, None] > 0.0, q, 0.0)
        codes = np.clip(q, -half, half).astype(np.int16)
        zeros = None
    else:
        levels = 2**d - 1
        neg_inf = np.full_like(blocks, -np.inf)
        pos_inf = np.full_like(blocks, np.inf)
        gmax = np.where(mask, blocks, neg_inf).max(axis=2)
        gmin = np.where(mask, blocks, pos_inf).min(axis=2)
        span = gmax - gmin
        # Constant nonzero groups get a span-free scale so that scale == 0
        # only ever means an all-zero group.
        const = span == 0.0
        scales = np.where(const, np.abs(gmax) / levels, span / levels)
        with np.errstate(divide="ignore", invalid="ignore"):
            zeros = np.round(-gmin / scales)
            q = np.round(blocks / scales[:, :, None]) + zeros[:, :, None]
        live = scales > 0.0
        zeros = np.where(live, zeros, 0.0)
        q = np.where(live[:, :, None], q, 0.0)
        codes = np.clip(q, 0, levels).astype(np.int16)

    codes = codes.reshape(m, groups * group_size)[:, :n]
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
    blocks, groups = _grouped(q.codes.astype(np.float64), q.group_size)
    if q.mode == "symmetric":
        out = blocks * q.scales[:, :, None]
    else:
        out = (blocks - q.zeros[:, :, None]) * q.scales[:, :, None]
    return np.ascontiguousarray(out.reshape(m, groups * q.group_size)[:, :n])


def clip(w: np.ndarray, p_clp: float) -> np.ndarray:
    """Saturate entries to [-p_clp, p_clp]."""
    if p_clp <= 0.0:
        raise ValueError(f"clip threshold must be positive, got {p_clp}")
    return np.clip(w, -p_clp, p_clp)


@dataclass
class ClipSearchResult:
    p_clp: float
    grid_errors: list[tuple[float, float]]  # (candidate threshold, output error)


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
    best_p = None
    best_err = np.inf
    grid_errors: list[tuple[float, float]] = []
    for rho in sorted(set(grid), reverse=True):
        p = rho * top
        q = quantize_matrix(clip(w, p), d, group_size, mode)
        err = fro_norm(wx - dequantize(q) @ x)
        grid_errors.append((p, err))
        if err < best_err:
            best_err = err
            best_p = p
    return ClipSearchResult(p_clp=best_p, grid_errors=grid_errors)
