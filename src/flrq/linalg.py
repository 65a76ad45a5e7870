"""Dense linear algebra kernels, GEMV-centric, plus an exact SVD used for verification.

All compute is 64-bit float; 32-bit appears only at the I/O boundary. Every
function is pure, so values can move freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

SVD_DIM_LIMIT = 1024


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
    if a.ndim != 2 or x.ndim != 1:
        raise ValueError("gemv expects a 2-D matrix and a 1-D vector")
    if x.shape[0] != a.shape[1]:
        raise ValueError(f"gemv dimension mismatch: A is {a.shape}, x has length {x.shape[0]}")
    return a @ x


def gemv_t(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y = A^T x."""
    if a.ndim != 2 or x.ndim != 1:
        raise ValueError("gemv_t expects a 2-D matrix and a 1-D vector")
    if x.shape[0] != a.shape[0]:
        raise ValueError(f"gemv_t dimension mismatch: A is {a.shape}, x has length {x.shape[0]}")
    return a.T @ x


def rank1_subtract(a: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return A - u v^T without mutating A."""
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("rank1_subtract expects 1-D factor vectors")
    if u.shape[0] != a.shape[0] or v.shape[0] != a.shape[1]:
        raise ValueError(
            f"rank1_subtract dimension mismatch: A is {a.shape}, "
            f"u has length {u.shape[0]}, v has length {v.shape[0]}"
        )
    return a - np.outer(u, v)


def amax(a: np.ndarray) -> float:
    """Largest absolute entry."""
    if a.size == 0:
        raise ValueError("amax of an empty matrix is undefined")
    return float(np.abs(a).max())


def fro_norm(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.square(a))))


@dataclass(frozen=True)
class SvdResult:
    """Full thin SVD: A = U diag(s) V^T with s sorted descending."""

    u: np.ndarray  # (m, k)
    singular_values: np.ndarray  # (k,), descending, non-negative
    v: np.ndarray  # (n, k)

    @property
    def rank_limit(self) -> int:
        return self.singular_values.shape[0]

    def low_rank(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Best rank-r factors (left carries the singular values)."""
        r = min(r, self.rank_limit)
        left = self.u[:, :r] * self.singular_values[:r]
        right = self.v[:, :r].T
        return left, right

    def truncation_error(self, r: int) -> float:
        """Frobenius norm of the discarded tail."""
        return float(np.sqrt(np.sum(np.square(self.singular_values[r:]))))


def svd_oracle(a: np.ndarray) -> SvdResult:
    """Exact thin SVD via LAPACK. Verification tool, desk scale only."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("svd_oracle expects a 2-D matrix")
    m, n = a.shape
    if min(m, n) > SVD_DIM_LIMIT:
        raise NumericalError(
            f"svd_oracle guard: min(m, n) = {min(m, n)} exceeds {SVD_DIM_LIMIT}; "
            "use the sketch path for matrices this large"
        )
    u, sigma, vt = np.linalg.svd(a, full_matrices=False)
    return SvdResult(u=u, singular_values=sigma, v=vt.T)
