"""Per-layer flexible rank selection.

The loop extracts rank-1 components from the running residual and keeps
them while the effective-bit gain q from the shrinking amax outpaces the
storage growth k of the factors (charged at D_FP bits per entry), subject
to a hard memory cap (``FlrqConfig.x``) and a flatness test on the amax
curve (its slope over SLOPE_WINDOW steps falls below SLOPE_T). Because the
sketch is randomized, the amax used for q (and recorded in the trace) is
the running minimum of the observed values, which keeps the decision
sequence monotone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .config import FlrqConfig
from .errors import NumericalError
from .linalg import amax, fro_norm, rank1_subtract
from .sketch import LowRankFactors, Rank1Pair, make_rng, r1_step

# Residual mass below this (relative to the input) counts as numerically zero.
RESIDUAL_FLOOR = 1e-13
SQRT_TINY = math.sqrt(np.finfo(np.float64).tiny)  # below this amax, squares underflow

D_FP = 16  # bits charged per factor entry (and by the report per scale and zero)
SLOPE_T = 1e-3  # the loop stops once the windowed amax slope falls below this
SLOPE_WINDOW = 4


@dataclass(frozen=True)
class RankStep:
    r: int
    amax: float  # monotone envelope of the residual amax
    q: float
    k: float
    slope: float


STOP_REASONS = ("max_rank", "budget_qk", "memory_cap", "slope")  # each rule select_rank ends on


@dataclass
class RankTrace:
    stop_reason: str = ""  # select_rank sets one of STOP_REASONS
    selected_rank: int = 0
    steps: list[RankStep] = field(default_factory=list)


def qk(d: int, d_fp: int, m: int, n: int, r: int, w0: float, wr: float) -> tuple[float, float]:
    """Effective-bit gain q and storage growth k for keeping r factors.

    q = (d + log2(w0 / wr)) / d, k = 1 + d_fp * r * (m + n) / (d * m * n).
    A fully captured residual (wr <= 0) returns q = +inf.
    """
    if w0 <= 0.0:
        raise ValueError("original amax must be positive")
    if r < 0:
        raise ValueError("rank must be >= 0")
    k = 1.0 + (d_fp * r * (m + n)) / (d * m * n)
    if wr <= 0.0:
        return math.inf, k
    d_prime = math.log2(w0 / wr)
    q = (d + d_prime) / d
    return q, k


def slope(amax_history, window: int) -> float:
    """Windowed decrease of the amax curve, normalized by the original amax.

    Returns +inf while the history is shorter than window + 1 so the test
    can never stop the loop before enough points exist.
    """
    hist = list(amax_history)
    if not hist:
        raise ValueError("amax history is empty")
    a0 = hist[0]
    if a0 == 0.0:
        raise NumericalError("slope undefined: original amax is zero")
    if len(hist) < window + 1:
        return math.inf
    return (hist[-1 - window] - hist[-1]) / (window * a0)


def _at_floor(residual: np.ndarray, top: float, floor: float) -> bool:
    """fro_norm(residual) <= floor, with top = amax(residual). amax <= fro_norm <= sqrt(mn) amax
    (doubled, for rounding) decides it unless floor lies between, or amax^2 underflows."""
    if 0.0 < top < SQRT_TINY or top <= floor < 2.0 * math.sqrt(residual.size) * top:
        return fro_norm(residual) <= floor
    return top <= floor


def components(a: np.ndarray, cfg: FlrqConfig) -> Iterator[tuple[Rank1Pair, np.ndarray, float]]:
    """Rank-1 pairs of ``a`` in extraction order, each with the residual left after it and the
    envelope: the running minimum of amax(a) and the amax of every residual so far.

    Lazy: a pair is extracted only when the caller asks for it, so a caller
    that stops early never pays for the next extraction. Ends after min(m, n)
    pairs, or before an extraction once the residual is numerically zero. Past its
    2*it + 2 GEMVs, a pair costs one pass over the residual (``rank1_subtract``) and
    its amax, which the zero test and the envelope share.
    ``a`` is never written; each yielded residual is overwritten by the next step.
    """
    rng = make_rng(cfg.seed)
    floor = RESIDUAL_FLOOR * fro_norm(a)
    residual, top = a, amax(a)
    envelope = top
    for _ in range(min(a.shape)):
        if _at_floor(residual, top, floor):
            return
        pair = r1_step(residual, cfg, rng)
        # The first subtraction writes a new array, the later ones overwrite it.
        residual = rank1_subtract(residual, pair.left, pair.right, out=None if residual is a else residual)
        top = amax(residual)
        envelope = min(envelope, top)
        yield pair, residual, envelope


def deflate(a: np.ndarray, r: int, cfg: FlrqConfig) -> LowRankFactors:
    """Greedy rank-r approximation: the first r pairs of ``components(a, cfg)``.

    Stops early, with fewer than r components, once the residual is
    numerically zero.
    """
    m, n = a.shape
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank must be in [1, {min(m, n)}], got {r}")
    return LowRankFactors.from_pairs([pair for pair, _, _ in islice(components(a, cfg), r)], m, n)


def select_rank(w: np.ndarray, cfg: FlrqConfig) -> tuple[LowRankFactors, RankTrace]:
    """Run the flexible-rank loop on one layer.

    Extracts rank-1 pairs from the residual; a pair is kept only if, with it
    included, k < q, k <= 1 + x, and the amax slope is still >= SLOPE_T. The pair
    that triggers a stop is discarded, so rank 0 is a valid outcome. A zero
    matrix is already at the residual floor: it stops before any extraction
    with reason ``max_rank``.
    """
    m, n = w.shape
    w0 = amax(w)
    history = [w0]
    pairs: list[Rank1Pair] = []
    trace = RankTrace(stop_reason="max_rank")  # kept if no pair is left to extract
    for r, (pair, _, envelope) in enumerate(components(w, cfg), start=1):
        history.append(envelope)
        q, k = qk(cfg.d, D_FP, m, n, r, w0, envelope)
        s = slope(history, SLOPE_WINDOW)
        trace.steps.append(RankStep(r=r, amax=envelope, q=q, k=k, slope=s))
        if k >= q:
            trace.stop_reason = "budget_qk"
            break
        if k > 1.0 + cfg.x:
            trace.stop_reason = "memory_cap"
            break
        if s < SLOPE_T:
            trace.stop_reason = "slope"
            break
        pairs.append(pair)
    trace.selected_rank = len(pairs)
    return LowRankFactors.from_pairs(pairs, m, n), trace
