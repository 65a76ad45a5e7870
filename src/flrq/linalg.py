"""Dense linear algebra kernels, GEMV-centric, and the BLAS thread pin set on import.

Kernels compute in their inputs' dtype: float64, but float32 in rank selection and in the
clip search's scoring (both behind ``rankselect.normalized``) and at the I/O boundary. Every
kernel is pure, so values can move freely between threads.

Imported before numpy with OPENBLAS_NUM_THREADS unset, it sets that variable to 1 (which
child processes inherit), so OpenBLAS starts no server threads for the pin to leave idle.
A process that loaded numpy first, or set the variable itself, keeps its environment.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402


def _pin_blas() -> int | None:
    """Pin numpy's bundled OpenBLAS to 1 thread, where its results depend on no thread count.

    Returns 1, or None (changing nothing) when that library or its thread call
    cannot be found. The count is process-wide, so nothing restores it. It is the only
    guard when numpy loaded first or OPENBLAS_NUM_THREADS was set to another count.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    try:
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas64_*.so"))))
        put = lib.scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):
        return None
    put.argtypes, put.restype = [ctypes.c_int], None
    put(1)
    return 1


BLAS_THREADS = _pin_blas()  # every flrq entry point imports this module, so all run pinned
TINY = np.finfo(np.float64).tiny  # the smallest normal float64


def as_matrix(data) -> np.ndarray:
    """Validate and canonicalize a dense, non-empty 2-D matrix (float64, row-major, finite)."""
    a = np.ascontiguousarray(data, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"matrix of shape {a.shape} is empty")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def gemv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = A x."""
    return a @ x


def gemv_t(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = A^T x."""
    return a.T @ x


RANK1_BLOCK_ROWS = 64  # rows per step of rank1_subtract: its outer-product block stays in cache


def rank1_subtract(a: np.ndarray, u: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """Return A - u v^T, written into ``out`` when given (``out=a`` updates A in place).

    One pass over A in RANK1_BLOCK_ROWS-row blocks, with the bytes of a - np.outer(u, v).
    """
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("rank1_subtract expects 1-D factor vectors")
    if u.shape[0] != a.shape[0] or v.shape[0] != a.shape[1]:
        raise ValueError(
            f"rank1_subtract dimension mismatch: A is {a.shape}, "
            f"u has length {u.shape[0]}, v has length {v.shape[0]}"
        )
    if out is None:
        out = np.empty(a.shape, np.result_type(a, u, v))
    for start in range(0, a.shape[0], RANK1_BLOCK_ROWS):
        rows = slice(start, start + RANK1_BLOCK_ROWS)
        np.subtract(a[rows], u[rows, None] * v, out=out[rows])  # u[rows, None] * v: np.outer's block
    return out


def amax(a: np.ndarray) -> float:
    """Largest absolute entry, +0.0 for a zero matrix; no np.abs temporary."""
    return max(float(a.max()), -float(a.min())) + 0.0  # + 0.0 turns -0.0 into 0.0


BLOCK_ROWS = 128  # rows per step of a pass that holds one block's float64 temporary, not A's


def fro_norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.square(a))))


TRI_BLOCKS = 4  # column blocks of a lower-triangular factor, with edges n * j // TRI_BLOCKS


def lower_blocks(l: np.ndarray) -> list[int] | None:
    """The edges n * j // TRI_BLOCKS of l's column blocks if l is square and zero above its
    diagonal blocks (a lower-triangular Gram factor), else None. They depend on n and l's zeros."""
    n = l.shape[0]
    edges = [n * j // TRI_BLOCKS for j in range(TRI_BLOCKS + 1)]
    if l.shape[1] != n or any(l[:lo, lo:hi].any() for lo, hi in zip(edges[1:], edges[2:])):
        return None
    return edges


def _by_blocks(a: np.ndarray, l: np.ndarray, edges: list[int] | None) -> np.ndarray:
    """a @ l; given edges, column block j is a[:, lo:] @ l[lo:, lo:hi], skipping l's zero blocks
    (3/8 of the multiplies)."""
    if edges is None:
        return a @ l
    out = np.empty((a.shape[0], l.shape[1]), np.result_type(a, l))
    for lo, hi in zip(edges, edges[1:]):
        np.matmul(a[:, lo:], l[lo:, lo:hi], out=out[:, lo:hi])
    return out


def _times_factor(a: np.ndarray, l: np.ndarray) -> np.ndarray:
    return _by_blocks(a, l, lower_blocks(l))


def row_sq_norms(a: np.ndarray, l: np.ndarray, edges: list[int] | None = None) -> np.ndarray:
    """Per-row sums of (a @ l)**2, through l's triangular blocks if it has them. A caller that
    multiplies by one l many times passes edges = lower_blocks(l), so l is tested once."""
    prod = _times_factor(a, l) if edges is None else _by_blocks(a, l, edges)
    return np.square(prod, out=prod).sum(axis=1)


def product_norm(a: np.ndarray, b: np.ndarray) -> float:
    """fro_norm(a @ b), squaring the product in place: one temporary instead of two. A
    lower-triangular b is multiplied block by block, as in row_sq_norms."""
    prod = _times_factor(a, b)
    return float(np.sqrt(np.sum(np.square(prod, out=prod))))
