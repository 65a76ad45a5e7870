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
four to a byte from bit 0, 3-bit codes eight per 3-byte block).

A layer bundle is a directory of codes, scales, zeros, left and right
containers plus meta.json, which is strict JSON: +inf is written as "inf".
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
from .quantize import BIT_WIDTHS, QuantizedTensor
from .rankselect import D_FP, STOP_REASONS, RankStep, RankTrace
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

_ARRAYS = ("scales", "zeros", "left", "right")  # f64 containers <name>.flrqten, besides codes
_META_FILE = "meta.json"
_META_KEYS = (
    "d", "group_size", "shape", "p_clp", "best_epoch", "best_error", "wx_norm",
    "blc_trace", "rank_trace",
)


def inf_to_json(v):
    """``v``, with +inf as the string "inf": strict JSON has no infinity."""
    return "inf" if v == math.inf else v


def write_bundle(directory, layer: QuantizedLayer, config: dict | None = None) -> None:
    """Write one quantized layer as a directory of containers plus metadata."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    q = layer.q
    packed = container_from_packed(pack_codes(q.codes, q.bit_width))
    write_container_file(d / "codes.flrqten", packed)
    for name, a in zip(_ARRAYS, (q.scales, q.zeros, layer.factors.left, layer.factors.right)):
        write_container_file(d / f"{name}.flrqten", container_from_array(a))
    rank_trace = asdict(layer.rank_trace)
    rank_trace["steps"] = [{k: inf_to_json(v) for k, v in s.items()} for s in rank_trace["steps"]]
    meta = {
        "d": q.bit_width,
        "group_size": q.group_size,
        "shape": list(q.shape),
        "rank": layer.factors.rank,
        "p_clp": layer.p_clp,
        "best_epoch": layer.best_epoch,
        "best_error": layer.best_error,
        "wx_norm": layer.wx_norm,
        "warnings": layer.warnings,
        "blc_trace": [asdict(r) for r in layer.blc_trace],
        "rank_trace": rank_trace,
        "config": config if config is not None else {},
    }
    (d / _META_FILE).write_text(json.dumps(meta, indent=2) + "\n")


def _is_count(v) -> bool:
    return type(v) is int and v >= 1


def _typed(v, name: str, types=(int, float)):
    """``v`` if its type is one of ``types`` and it is not NaN (a bool is neither int nor float)."""
    if type(v) not in types or v != v:
        raise ValueError(f"{name} {v!r} is not {' or '.join(t.__name__ for t in types)}")
    return v


def _record(cls, r: dict, ints: tuple[str, ...], inf_ok: bool = False):
    """``cls(**r)``: the fields in ``ints`` must be ints, the rest numbers (or "inf" if allowed)."""
    return cls(**{k: _typed(v, k, (int,)) if k in ints else math.inf if inf_ok and v == "inf"
                  else _typed(v, k) for k, v in r.items()})


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
    if not _is_count(meta["group_size"]):
        raise FormatError(f"{path}: group size {meta['group_size']!r} is not a positive integer")
    return meta


def read_bundle(directory) -> tuple[QuantizedLayer, dict]:
    """Read a layer bundle back; returns the layer and its metadata record."""
    d = Path(directory)
    files = [_META_FILE, "codes.flrqten", *(f"{name}.flrqten" for name in _ARRAYS)]
    missing = [f for f in files if not (d / f).exists()]
    if missing:
        raise FormatError(f"bundle {d} is missing {', '.join(missing)}")
    meta_path = d / _META_FILE
    meta = _read_meta(meta_path)
    m, n = meta["shape"]
    packed = read_container_file(d / "codes.flrqten")
    if packed.dtype_code != DTYPE_PACKED:
        raise FormatError("codes container is not packed")
    codes = unpack_codes(packed.payload, meta["d"], m * n).reshape(m, n)
    scales, zeros, left, right = (
        read_container_file(d / f"{name}.flrqten").to_array() for name in _ARRAYS
    )
    groups = (m, -(-n // meta["group_size"]))
    for name, arr in (("scales", scales), ("zeros", zeros)):
        if arr.shape != groups:
            raise FormatError(f"bundle {name} shape {arr.shape} does not match {groups}")
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
        bit_width=meta["d"],
        group_size=meta["group_size"],
        shape=(m, n),
    )
    try:
        trace = [_record(EpochRecord, r, ints=("epoch", "rank")) for r in meta["blc_trace"]]
        rt = meta["rank_trace"]
        steps = [_record(RankStep, s, ints=("r",), inf_ok=True) for s in rt["steps"]]
        if rt["stop_reason"] not in STOP_REASONS:
            raise ValueError(f"stop_reason {rt['stop_reason']!r} is not one of {STOP_REASONS}")
        selected = _typed(rt["selected_rank"], "selected_rank", (int,))
        rank_trace = RankTrace(**{**rt, "steps": steps, "selected_rank": selected})
        warnings = meta.get("warnings", [])
        if type(warnings) is not list or not all(type(w) is str for w in warnings):
            raise ValueError(f"warnings {warnings!r} is not a list of strings")
        layer = QuantizedLayer(
            q=q,
            factors=LowRankFactors(left=left, right=right),
            blc_trace=trace,
            best_epoch=_typed(meta["best_epoch"], "best_epoch", (int,)),
            rank_trace=rank_trace,
            warnings=warnings,
            **{k: _typed(meta[k], k) for k in ("best_error", "wx_norm", "p_clp")},
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{meta_path}: malformed metadata ({exc!r})") from None
    return layer, meta


# --- reports -----------------------------------------------------------------


def extra_bits(d_fp: int, rank: int, m: int, n: int) -> float:
    """Average extra bits per weight from storing rank factors at d_fp bits."""
    return d_fp * rank * (m + n) / (m * n)


def emit_report(layers, config: dict, extras: list[dict] | None = None) -> str:
    """Render the canonical JSON report for a set of quantized layers.

    Keys are emitted in a fixed order and floats use their shortest repr, so
    identical inputs produce byte-identical text; wall time is never recorded.
    Factors, scales and zeros are charged at ``D_FP`` bits. ``extras``
    optionally merges additional per-layer columns (e.g. baseline errors)
    into the rows.
    """
    rows = []
    for idx, layer in enumerate(layers):
        m, n = layer.q.shape
        meta_bits = D_FP * 2 / layer.q.group_size  # a scale and a zero per group
        xb = extra_bits(D_FP, layer.factors.rank, m, n)
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
    aggregate = {f"avg_{key}": float(np.mean([r[key] for r in rows])) if rows else None
                 for key in ("rank", "extra_bits")}
    report = {"config": config, "layers": rows, "aggregate": aggregate}
    return json.dumps(report, indent=2) + "\n"
