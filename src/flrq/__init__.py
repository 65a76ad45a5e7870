"""Low-bit weight quantization with a flexible-rank full-precision residual.

The pipeline per layer: derive a channel scale from calibration
activations, extract a flexible-rank correction with a GEMV-only rank-1
sketch, clip-search and group-quantize the remainder, then alternate the
two halves keeping the epoch with the lowest calibration output error.
"""

from .blc import QuantizedLayer, alpha, calibrate, channel_mean, flrq_layer, layer_error, scaled_flr
from .config import FlrqConfig
from .errors import (
    BadMagicError,
    BadVersionError,
    FlrqError,
    FormatError,
    NumericalError,
    TruncatedError,
)
from .linalg import amax, fro_norm, gemv, gemv_t, rank1_subtract
from .quantize import (
    ClipSearchResult,
    QuantizedTensor,
    clip,
    dequantize,
    quantize_matrix,
    search_clip,
)
from .rankselect import RankTrace, components, deflate, qk, select_rank, slope
from .sketch import LowRankFactors, Rank1Pair, layer_seed, make_rng, r1_step
from .synth import SynthSpec, gen_layer

__version__ = "0.1.0"
