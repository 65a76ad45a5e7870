"""Bit-exact tensor containers, layer bundles, code packing, and JSON reports.

Container layout (all little-endian, no padding):

    magic    8 bytes  b"FLRQTEN\\0"
    version  u32      1
    dtype    u8       0 = f32, 1 = f64, 2 = packed codes (raw bytes)
    ndim     u32
    dims     u64 * ndim
    payload  row-major element bytes

Packed-code containers are 1-D byte tensors; the logical shape and bit
width live in the bundle metadata. Codes are packed as an LSB-first
bitstream of d-bit fields (so 4-bit codes go low nibble first, 2-bit codes
four to a byte from bit 0, 3-bit codes eight per 3-byte block). Symmetric
codes are stored offset-binary (code + 2^(d-1) - 1); asymmetric codes are
stored raw.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .blc import EpochRecord, QuantizedLayer
from .errors import BadMagicError, BadVersionError, FormatError, TruncatedError
from .quantize import BIT_WIDTHS, MODES, QuantizedTensor
from .rankselect import RankStep, RankTrace
from .sketch import LowRankFactors

MAGIC = b"FLRQTEN\0"
VERSION = 1
DTYPE_F32 = 0
DTYPE_F64 = 1
DTYPE_PACKED = 2

_ELEMENT_SIZE = {DTYPE_F32: 4, DTYPE_F64: 8, DTYPE_PACKED: 1}
_NUMPY_DTYPE = {DTYPE_F32: "<f4", DTYPE_F64: "<f8"}


@dataclass
class TensorContainer:
    dtype_code: int
    dims: tuple[int, ...]
    payload: bytes | memoryview  # a view of the file bytes when read

    def to_array(self) -> np.ndarray:
        if self.dtype_code == DTYPE_PACKED:
            raise FormatError("packed-code containers have no dense array form")
        return (
            np.frombuffer(self.payload, dtype=_NUMPY_DTYPE[self.dtype_code])
            .reshape(self.dims)
            .astype(np.float64, copy=False)  # f64: a read-only view of the payload
        )


def container_from_array(a: np.ndarray, f32: bool = False) -> TensorContainer:
    a = np.asarray(a)
    code = DTYPE_F32 if f32 else DTYPE_F64
    payload = a.astype(_NUMPY_DTYPE[code]).tobytes()  # astype yields a C-order copy
    return TensorContainer(dtype_code=code, dims=tuple(a.shape), payload=payload)


def container_from_packed(packed: bytes) -> TensorContainer:
    return TensorContainer(dtype_code=DTYPE_PACKED, dims=(len(packed),), payload=packed)


def write_container(c: TensorContainer) -> bytes:
    expected = math.prod(c.dims) * _ELEMENT_SIZE[c.dtype_code]
    if len(c.payload) != expected:
        raise FormatError(
            f"payload length {len(c.payload)} does not match dims {c.dims} "
            f"for dtype {c.dtype_code}"
        )
    head = MAGIC + struct.pack("<IBI", VERSION, c.dtype_code, len(c.dims))
    head += struct.pack(f"<{len(c.dims)}Q", *c.dims) if c.dims else b""
    return head + c.payload


def read_container(data: bytes) -> TensorContainer:
    if len(data) < len(MAGIC):
        raise TruncatedError("container shorter than the magic header")
    if data[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"bad magic {bytes(data[:len(MAGIC)])!r}")
    offset = len(MAGIC)
    if len(data) < offset + 9:
        raise TruncatedError("container header is truncated")
    version, dtype_code, ndim = struct.unpack_from("<IBI", data, offset)
    offset += 9
    if version != VERSION:
        raise BadVersionError(f"unsupported container version {version}")
    if dtype_code not in _ELEMENT_SIZE:
        raise FormatError(f"unknown dtype code {dtype_code}")
    if len(data) < offset + 8 * ndim:
        raise TruncatedError("container dims are truncated")
    dims = struct.unpack_from(f"<{ndim}Q", data, offset) if ndim else ()
    offset += 8 * ndim
    expected = math.prod(dims) * _ELEMENT_SIZE[dtype_code]  # Python int: no wraparound
    payload = memoryview(data)[offset:]  # a view: the payload is not copied
    if len(payload) < expected:
        raise TruncatedError(f"payload has {len(payload)} bytes, expected {expected}")
    if len(payload) > expected:
        raise FormatError(f"payload has {len(payload)} trailing bytes beyond {expected}")
    return TensorContainer(dtype_code=dtype_code, dims=tuple(int(d) for d in dims), payload=payload)


def write_container_file(path, c: TensorContainer) -> None:
    Path(path).write_bytes(write_container(c))


def read_container_file(path) -> TensorContainer:
    # Headers are 17 + 8*ndim bytes, so reading 7 bytes into an aligned buffer puts an
    # f64 payload on an 8-byte boundary; numpy's matmul copies an unaligned operand.
    buf = np.empty(Path(path).stat().st_size + 7, dtype=np.uint8)
    with open(path, "rb") as fh:
        got = fh.readinto(memoryview(buf)[7:])
    return read_container(memoryview(buf)[7 : 7 + got].toreadonly())


def pack_codes(codes, d: int) -> bytes:
    """Pack unsigned d-bit codes into an LSB-first bitstream."""
    if d not in (2, 3, 4):
        raise ValueError(f"bit width must be 2, 3 or 4, got {d}")
    arr = np.asarray(codes).reshape(-1)
    if arr.size == 0:
        return b""
    if arr.min() < 0 or arr.max() > 2**d - 1:
        raise ValueError(f"codes out of range for {d}-bit packing")
    bits = np.unpackbits(arr.astype(np.uint8)[:, None], axis=1, count=d, bitorder="little")
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def unpack_codes(data: bytes, d: int, count: int) -> np.ndarray:
    """Inverse of pack_codes; ``count`` disambiguates the trailing pad bits."""
    if d not in (2, 3, 4):
        raise ValueError(f"bit width must be 2, 3 or 4, got {d}")
    expected = (count * d + 7) // 8
    if len(data) != expected:
        raise FormatError(f"packed stream has {len(data)} bytes, expected {expected}")
    if count == 0:
        return np.zeros(0, dtype=np.int16)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    tail = bits[count * d :]
    if tail.any():
        raise FormatError("nonzero padding bits in packed stream")
    fields = bits[: count * d].reshape(count, d)
    weights = (1 << np.arange(d)).astype(np.int16)
    return (fields @ weights).astype(np.int16)


# --- layer bundles -----------------------------------------------------------

_BUNDLE_FILES = {
    "codes": "codes.flrqten",
    "scales": "scales.flrqten",
    "zeros": "zeros.flrqten",
    "left": "left.flrqten",
    "right": "right.flrqten",
    "alpha": "alpha.flrqten",
}
_META_FILE = "meta.json"
_META_KEYS = (
    "d", "group_size", "mode", "shape", "p_clp", "best_epoch", "best_error", "wx_norm",
    "blc_trace", "rank_trace",
)


def _code_offset(q: QuantizedTensor) -> int:
    return 2 ** (q.bit_width - 1) - 1 if q.mode == "symmetric" else 0


def write_bundle(directory, layer: QuantizedLayer, config: dict | None = None) -> None:
    """Write one quantized layer as a directory of containers plus metadata."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    q = layer.q
    stored = q.codes.astype(np.int64) + _code_offset(q)
    write_container_file(
        d / _BUNDLE_FILES["codes"], container_from_packed(pack_codes(stored, q.bit_width))
    )
    write_container_file(d / _BUNDLE_FILES["scales"], container_from_array(q.scales))
    if q.zeros is not None:
        write_container_file(d / _BUNDLE_FILES["zeros"], container_from_array(q.zeros))
    write_container_file(d / _BUNDLE_FILES["left"], container_from_array(layer.factors.left))
    write_container_file(d / _BUNDLE_FILES["right"], container_from_array(layer.factors.right))
    write_container_file(d / _BUNDLE_FILES["alpha"], container_from_array(layer.alpha))
    meta = {
        "d": q.bit_width,
        "group_size": q.group_size,
        "mode": q.mode,
        "shape": list(q.shape),
        "rank": layer.factors.rank,
        "p_clp": layer.p_clp,
        "best_epoch": layer.best_epoch,
        "best_error": layer.best_error,
        "wx_norm": layer.wx_norm,
        "warnings": layer.warnings,
        "blc_trace": [asdict(r) for r in layer.blc_trace],
        "rank_trace": asdict(layer.rank_trace),
        "config": config if config is not None else {},
    }
    (d / _META_FILE).write_text(json.dumps(meta, indent=2) + "\n")


def _is_count(v) -> bool:
    return type(v) is int and v >= 1


def _read_meta(path: Path) -> dict:
    """Parse a bundle's metadata and check the fields that shape its arrays."""
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: expected a JSON object")
    missing = [k for k in _META_KEYS if k not in meta]
    if missing:
        raise FormatError(f"{path}: missing keys {missing}")
    shape = meta["shape"]
    if not (isinstance(shape, list) and len(shape) == 2 and all(map(_is_count, shape))):
        raise FormatError(f"{path}: shape {shape!r} is not two positive integers")
    if type(meta["d"]) is not int or meta["d"] not in BIT_WIDTHS:
        raise FormatError(f"{path}: bit width {meta['d']!r} is not one of {BIT_WIDTHS}")
    if meta["mode"] not in MODES:
        raise FormatError(f"{path}: mode {meta['mode']!r} is not one of {MODES}")
    if not _is_count(meta["group_size"]):
        raise FormatError(f"{path}: group size {meta['group_size']!r} is not a positive integer")
    return meta


def read_bundle(directory) -> tuple[QuantizedLayer, dict]:
    """Read a layer bundle back; returns the layer and its metadata record."""
    d = Path(directory)
    meta_path = d / _META_FILE
    if not meta_path.exists():
        raise FormatError(f"bundle {d} has no {_META_FILE}")
    meta = _read_meta(meta_path)
    m, n = meta["shape"]
    bit_width = meta["d"]
    mode = meta["mode"]
    group_size = meta["group_size"]
    packed = read_container_file(d / _BUNDLE_FILES["codes"])
    if packed.dtype_code != DTYPE_PACKED:
        raise FormatError("codes container is not packed")
    stored = unpack_codes(packed.payload, bit_width, m * n).reshape(m, n)
    offset = 2 ** (bit_width - 1) - 1 if mode == "symmetric" else 0
    codes = (stored - offset).astype(np.int16)
    scales = read_container_file(d / _BUNDLE_FILES["scales"]).to_array()
    zeros_path = d / _BUNDLE_FILES["zeros"]
    zeros = read_container_file(zeros_path).to_array() if zeros_path.exists() else None
    if mode == "asymmetric" and zeros is None:
        raise FormatError("asymmetric bundle is missing its zeros container")
    groups = (m, -(-n // group_size))
    for name, arr in (("scales", scales), ("zeros", zeros)):
        if arr is not None and arr.shape != groups:
            raise FormatError(f"bundle {name} shape {arr.shape} does not match {groups}")
    left = read_container_file(d / _BUNDLE_FILES["left"]).to_array()
    right = read_container_file(d / _BUNDLE_FILES["right"]).to_array()
    alpha = read_container_file(d / _BUNDLE_FILES["alpha"]).to_array()
    if (left.ndim, right.ndim) != (2, 2) or (
        left.shape[1] != right.shape[0] or left.shape[0] != m or right.shape[1] != n
    ):
        raise FormatError(
            f"bundle factor shapes {left.shape} x {right.shape} do not match layer {m}x{n}"
        )
    q = QuantizedTensor(
        codes=codes,
        scales=scales,
        zeros=zeros,
        bit_width=bit_width,
        group_size=group_size,
        mode=mode,
        shape=(m, n),
    )
    try:
        trace = [EpochRecord(**r) for r in meta["blc_trace"]]
        rt = meta["rank_trace"]
        rank_trace = RankTrace(**{**rt, "steps": [RankStep(**s) for s in rt["steps"]]})
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{meta_path}: malformed trace ({exc!r})") from None
    layer = QuantizedLayer(
        q=q,
        factors=LowRankFactors(left=left, right=right),
        alpha=alpha,
        blc_trace=trace,
        best_epoch=meta["best_epoch"],
        best_error=meta["best_error"],
        wx_norm=meta["wx_norm"],
        p_clp=meta["p_clp"],
        rank_trace=rank_trace,
        warnings=list(meta.get("warnings", [])),
    )
    return layer, meta


# --- reports -----------------------------------------------------------------


def extra_bits(d_fp: int, rank: int, m: int, n: int) -> float:
    """Average extra bits per weight from storing rank factors at d_fp bits."""
    return d_fp * rank * (m + n) / (m * n)


def emit_report(layers, config: dict, extras: list[dict] | None = None) -> str:
    """Render the canonical JSON report for a set of quantized layers.

    Keys are emitted in a fixed order and floats use their shortest repr, so
    identical inputs produce byte-identical text; ``total_time`` is always
    null for the same reason. ``extras`` optionally merges additional
    per-layer columns (e.g. baseline errors) into the rows.
    """
    d_fp = int(config.get("d_fp", 16))
    rows = []
    for idx, layer in enumerate(layers):
        m, n = layer.q.shape
        meta_bits = d_fp * (1 + (1 if layer.q.mode == "asymmetric" else 0)) / layer.q.group_size
        xb = extra_bits(d_fp, layer.factors.rank, m, n)
        row = {
            "index": idx,
            "rank": layer.factors.rank,
            "extra_bits": xb,
            "extra_bits_with_meta": xb + meta_bits,
            "rel_error": layer.rel_error,
            "abs_error": layer.best_error,
            "stop_reason": layer.rank_trace.stop_reason,
            "blc_best_epoch": layer.best_epoch,
            "p_clp": layer.p_clp,
        }
        if extras is not None:
            row.update(extras[idx])
        rows.append(row)
    if rows:
        aggregate = {
            "avg_rank": float(np.mean([r["rank"] for r in rows])),
            "avg_extra_bits": float(np.mean([r["extra_bits"] for r in rows])),
            "total_time": None,
        }
    else:
        aggregate = {"avg_rank": None, "avg_extra_bits": None, "total_time": None}
    report = {"config": config, "layers": rows, "aggregate": aggregate}
    return json.dumps(report, indent=2) + "\n"
