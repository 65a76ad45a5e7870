"""Low-bit weight quantization with a flexible-rank full-precision residual.

The pipeline per layer: derive a channel scale from calibration
activations, extract a flexible-rank correction with a GEMV-only rank-1
sketch, clip-search and group-quantize the remainder, then alternate the
two halves keeping the epoch with the lowest calibration output error.
"""

# linalg first: it asks for 1 OpenBLAS thread before numpy loads, so no idle thread pool starts.
from . import linalg  # noqa: F401
from .blc import QuantizedLayer, calibrate, flrq_layer, layer_error
from .config import FlrqConfig
from .errors import FlrqError, FormatError, NumericalError

__version__ = "0.1.0"
