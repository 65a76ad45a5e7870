"""Per-layer flexible rank selection.

The loop extracts rank-1 components from the running residual and keeps
them while the effective-bit gain q from the shrinking amax outpaces the
storage growth k of the factors (charged at D_FP bits per entry) and the
amax curve is not yet flat (its slope over SLOPE_WINDOW steps is at least
SLOPE_T). A hard memory cap (``FlrqConfig.x``) bounds how many components
are drawn at all. Because the sketch is randomized, the amax used for q
(and recorded in the trace) is the running minimum of the observed values,
which keeps the decision sequence monotone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .config import FlrqConfig
from .linalg import amax, rank1_subtract
from .sketch import LowRankFactors, Rank1Pair, make_rng, r1_step

# A residual amax at or below this (relative to the input's) counts as numerically zero. In
# float32, rounding leaves up to about 5e-8 of amax after an exact rank, so its floor is higher.
RESIDUAL_FLOOR = 1e-13
RESIDUAL_FLOOR_F32 = 1e-6

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
    if len(hist) < window + 1:
        return math.inf
    return (hist[-1 - window] - hist[-1]) / (window * hist[0])


def residual_floor(top: float, dtype: np.dtype) -> float:
    """The amax at or below which a residual of a ``dtype`` input with amax ``top`` is zero."""
    # No squares, so the test scales with the input; an all-subnormal input has lost its precision.
    relative = RESIDUAL_FLOOR_F32 if dtype == np.float32 else RESIDUAL_FLOOR
    return max(relative * top, float(np.finfo(dtype).tiny))


def components(a: np.ndarray, cfg: FlrqConfig, top: float | None = None
               ) -> Iterator[tuple[Rank1Pair, np.ndarray, float]]:
    """Rank-1 pairs of ``a`` in extraction order, each with the residual left after it and the
    envelope: the running minimum of amax(a) and the amax of every residual so far.

    Lazy: a pair is extracted only when the caller asks for it, so a caller
    that stops early, or bounds it with ``islice`` as ``select_rank`` does at the memory
    cap, never pays for the next extraction. Ends after min(m, n) pairs, or before an
    extraction once the residual is numerically zero: its amax at most
    ``residual_floor(amax(a), a.dtype)``. Past its 2*it + 2 GEMVs, a pair costs one
    pass over the residual (``rank1_subtract``) and its amax, which the zero test and
    the envelope share. Everything runs in ``a``'s dtype; ``top``, when given, is amax(a).
    ``a`` is never written; each yielded residual is overwritten by the next step.
    """
    rng = make_rng(cfg.seed)
    residual, top = a, amax(a) if top is None else top
    envelope, floor = top, residual_floor(top, a.dtype)
    for _ in range(min(a.shape)):
        if top <= floor:
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


def rank_cap(d: int, m: int, n: int, x: float) -> int:
    """The largest r <= min(m, n) whose k, as ``qk`` computes it, is at most 1 + x.

    k grows with r, so x * d * m * n / (D_FP * (m + n)) is the cap up to rounding (and past
    min(m, n) for an infinite x); the loops move it a step at most, onto qk's own float test.
    """
    def fits(r: int) -> bool:
        return qk(d, D_FP, m, n, r, 1.0, 1.0)[1] <= 1.0 + x

    r = int(min(x * d * m * n / (D_FP * (m + n)), min(m, n)))
    while r < min(m, n) and fits(r + 1):
        r += 1
    while r > 0 and not fits(r):
        r -= 1
    return r


def select_rank(w: np.ndarray, cfg: FlrqConfig) -> tuple[LowRankFactors, RankTrace]:
    """Run the flexible-rank loop on one layer.

    Extracts rank-1 pairs from the residual; a pair is kept only if, with it
    included, k < q and the amax slope is still >= SLOPE_T. The pair that
    triggers a stop is discarded, so rank 0 is a valid outcome. The memory cap
    k <= 1 + x bounds the loop instead of testing a pair: no pair past ``rank_cap``
    is extracted, and the loop ends with ``memory_cap`` when the cap, not the residual
    floor or min(m, n), ended it. A zero matrix is already at the residual floor: it
    stops before any extraction with reason ``max_rank``. Kept pairs have ``w``'s dtype.
    """
    m, n = w.shape
    w0 = envelope = amax(w)
    history = [w0]
    pairs: list[Rank1Pair] = []
    trace = RankTrace(stop_reason="max_rank")  # kept if no pair is left to extract
    cap = rank_cap(cfg.d, m, n, cfg.x)
    for r, (pair, _, envelope) in enumerate(islice(components(w, cfg, w0), cap), start=1):
        history.append(envelope)
        q, k = qk(cfg.d, D_FP, m, n, r, w0, envelope)
        s = slope(history, SLOPE_WINDOW)
        trace.steps.append(RankStep(r=r, amax=envelope, q=q, k=k, slope=s))
        if k >= q:
            trace.stop_reason = "budget_qk"
            break
        if s < SLOPE_T:
            trace.stop_reason = "slope"
            break
        pairs.append(pair)
    else:  # every pair drawn was kept; the cap ended the loop if components held another one,
        # that is, below min(m, n) and with the last residual (so the envelope) above the floor
        if cap < min(m, n) and envelope > residual_floor(w0, w.dtype):
            trace.stop_reason = "memory_cap"
    trace.selected_rank = len(pairs)
    return LowRankFactors.from_pairs(pairs, m, n), trace
