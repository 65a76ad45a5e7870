"""Dense linear algebra kernels, GEMV-centric, and the BLAS thread pin set on import.

Kernels compute in their inputs' dtype: float64, but float32 in rank selection and in the
clip search's scoring (both behind ``rankselect.normalized``) and at the I/O boundary. Every
kernel but the Gram pair, which writes its caller's g, is pure: values move freely between threads.

Imported before numpy with OPENBLAS_NUM_THREADS unset, it sets that variable to 1 (which
child processes inherit), so OpenBLAS starts no server threads for the pin to leave idle.
A process that loaded numpy first, or set the variable itself, keeps its environment.

The Gram pair calls syrk (``scipy_cblas_dsyrk64_``) and potrf (``scipy_dpotrf_64_``) of the pinned
library, bound on first use. Where numpy bundles another library, the pair uses numpy's @ and cholesky.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from pathlib import Path

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402


def _pin_blas() -> ctypes.CDLL | None:
    """Pin numpy's bundled OpenBLAS to 1 thread, where its results depend on no thread count.

    Returns the library, or None (changing nothing) when that library or its thread call
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
    return lib


OPENBLAS = _pin_blas()  # every flrq entry point imports this module, so all run pinned
BLAS_THREADS = None if OPENBLAS is None else 1
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


@functools.cache
def _gram_routines():
    """OPENBLAS's syrk and potrf (ILP64), bound on the first call, or None where either is missing."""
    try:
        syrk, potrf = OPENBLAS.scipy_cblas_dsyrk64_, OPENBLAS.scipy_dpotrf_64_
    except AttributeError:  # also when OPENBLAS is None
        return None
    i64, ptr, f64, p64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double, ctypes.POINTER(ctypes.c_int64)
    syrk.argtypes, syrk.restype = [ctypes.c_int] * 3 + [i64, i64, f64, ptr, i64, f64, ptr, i64], None
    potrf.argtypes, potrf.restype = [ctypes.c_char_p, p64, ptr, p64, p64], None
    return syrk, potrf


def add_gram(g: np.ndarray, c: np.ndarray) -> None:
    """g += c c^T for a C-ordered float64 g: into its upper triangle by syrk, else by numpy."""
    if c.dtype != np.float64 or c.strides[1] != 8 or c.strides[0] % 8 or c.strides[0] < 8 * c.shape[1]:
        c = np.ascontiguousarray(c, np.float64)  # syrk reads raw pointers: a wrong lda corrupts memory
    if (blas := _gram_routines()) is None:
        g += c @ c.T  # numpy's syrk, into a temporary it mirrors
    else:  # numpy's call (RowMajor, Upper, NoTrans), with lda = c's row stride, and beta = 1
        blas[0](101, 121, 111, *c.shape, 1.0, c.ctypes.data, c.strides[0] // 8, 1.0, g.ctypes.data, len(g))


def gram_cholesky(g: np.ndarray) -> np.ndarray:
    """C-ordered L with L L^T = g, from g's upper triangle, written over g by potrf (else
    np.linalg.cholesky(g.T), the same potrf call on copies); LinAlgError unless g is positive definite."""
    if (blas := _gram_routines()) is None:
        return np.linalg.cholesky(g.T)  # g in the Fortran order LAPACK reads: no transposing copy
    n, info = ctypes.c_int64(len(g)), ctypes.c_int64()
    blas[1](b"L", n, g.ctypes.data, n, info)  # g's buffer in Fortran order: g^T's lower triangle
    if info.value:  # > 0: not positive definite; < 0: an argument potrf rejected
        raise (np.linalg.LinAlgError if info.value > 0 else ValueError)(f"potrf: info {info.value}")
    for lo in range(0, len(g), BLOCK_ROWS):  # potrf left L^T in g's upper triangle
        g[lo:, lo:lo + BLOCK_ROWS] = np.triu(g[lo:lo + BLOCK_ROWS, lo:]).T  # a copy: the two overlap
        g[lo:lo + BLOCK_ROWS, lo + BLOCK_ROWS:] = 0.0
    return g
