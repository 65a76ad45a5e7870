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
import os
import struct
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .blc import EpochRecord, QuantizedLayer
from .errors import BadMagicError, BadVersionError, FormatError, TruncatedError
from .quantize import BIT_WIDTHS, GROUP_SIZE, QuantizedTensor
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


def container_from_array(a: np.ndarray) -> TensorContainer:
    a = np.asarray(a)
    payload = a.astype("<f8").tobytes()  # astype yields a C-order copy
    return TensorContainer(dtype_code=DTYPE_F64, dims=tuple(a.shape), payload=payload)


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
    head += struct.pack(f"<{len(c.dims)}Q", *c.dims)
    return head + c.payload


def read_container(data, size: int | None = None) -> TensorContainer:
    """The container in ``data``; given the file's ``size``, data may be the file's head alone."""
    size = len(data) if size is None else size
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
    dims = struct.unpack_from(f"<{ndim}Q", data, offset)
    offset += 8 * ndim
    expected = math.prod(dims) * _ELEMENT_SIZE[dtype_code]  # Python int: no wraparound
    if size - offset < expected:
        raise TruncatedError(f"payload has {size - offset} bytes, expected {expected}")
    if size - offset > expected:
        raise FormatError(f"payload has {size - offset - expected} trailing bytes beyond {expected}")
    payload = memoryview(data)[offset:]  # a view: the payload is not copied
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


class ActivationSource:
    """A 2-D f32 or f64 container file (X or W): its header is checked here, the rest read later."""

    def __init__(self, path):
        with open(path, "rb") as fh:
            st = os.fstat(fh.fileno())  # key: st_dev and st_ino name the file, whichever link reached it
            head = read_container(fh.read(4096), st.st_size)  # ndim > 509 reads as truncated
        self.path, self.key, self.shape, self.array = Path(path), (st.st_dev, st.st_ino), head.dims, None
        if len(self.shape) != 2 or 0 in self.shape or head.dtype_code == DTYPE_PACKED:
            raise FormatError(f"expected a non-empty 2-D f32 or f64 matrix, got dims {self.shape}")
        self.dtype = np.dtype(_NUMPY_DTYPE[head.dtype_code])
        self.offset = st.st_size - math.prod(self.shape) * self.dtype.itemsize

    def read(self) -> np.ndarray:
        """The whole matrix in float64, read on the first call; later calls return that array."""
        if self.array is None:
            array = read_container_file(self.path).to_array()  # the header is checked already
            if not np.isfinite(array).all():
                raise FormatError(f"{self.path}: matrix contains non-finite entries")
            self.array = array
        return self.array

    def chunks(self, width: int) -> Iterator[np.ndarray]:
        """Its float64 column chunks of ``width`` tokens, read by row into one reused buffer."""
        (n, tokens), size = self.shape, self.dtype.itemsize
        raw = np.empty(n * min(width, tokens), self.dtype)
        flat = raw if raw.dtype == np.float64 else np.empty(raw.size)  # f32 is widened exactly
        with open(self.path, "rb") as fh:
            for start in range(0, tokens, width):
                k = min(width, tokens - start)
                rows, chunk = raw[:n * k].reshape(n, k), flat[:n * k].reshape(n, k)
                for i, row in enumerate(rows):
                    if os.preadv(fh.fileno(), [row], self.offset + (i * tokens + start) * size) < k * size:
                        raise TruncatedError(f"{self.path}: the payload ends inside row {i}")
                np.copyto(chunk, rows)  # a no-op for f64, where rows is chunk
                if not np.isfinite(chunk).all():
                    raise FormatError(f"{self.path}: matrix contains non-finite entries")
                yield chunk


def pack_codes(codes, d: int) -> bytes:
    """Pack unsigned d-bit codes into an LSB-first bitstream."""
    if d not in BIT_WIDTHS:
        raise ValueError(f"bit width must be one of {BIT_WIDTHS}, got {d}")
    arr = np.asarray(codes).reshape(-1)
    if arr.size == 0:
        return b""
    if arr.min() < 0 or arr.max() > 2**d - 1:
        raise ValueError(f"codes out of range for {d}-bit packing")
    bits = np.unpackbits(arr.astype(np.uint8)[:, None], axis=1, count=d, bitorder="little")
    return np.packbits(bits.reshape(-1), bitorder="little").tobytes()


def unpack_codes(data: bytes, d: int, count: int) -> np.ndarray:
    """Inverse of pack_codes; ``count`` disambiguates the trailing pad bits."""
    if d not in BIT_WIDTHS:
        raise ValueError(f"bit width must be one of {BIT_WIDTHS}, got {d}")
    expected = (count * d + 7) // 8
    if len(data) != expected:
        raise FormatError(f"packed stream has {len(data)} bytes, expected {expected}")
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


# A kind is a leaf (what it is, a test), [kind] for a list, or {field: kind} for a record.
_INT = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
_COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
_NUMBER = ("a finite number >= 0", lambda v: type(v) in (int, float) and 0 <= v < math.inf)
_STEP_NUMBER = ('"inf" or a finite number >= 0', lambda v: v == "inf" or _NUMBER[1](v))


def _one_of(options: tuple) -> tuple:
    return f"one of {options}", lambda v: any(type(v) is type(o) and v == o for o in options)


def _kind_of(cls, number: tuple) -> dict:
    """The kind of a serialized ``cls``: int fields are ``_INT``, float fields ``number``."""
    return {k: {int: _INT, float: number}[t] for k, t in get_type_hints(cls).items()}


# meta.json's fields, in the order write_bundle writes them.
META = {
    "d": _one_of(BIT_WIDTHS),
    "group_size": _one_of((GROUP_SIZE,)),
    "shape": ("two integers >= 1", lambda v: type(v) is list and len(v) == 2 and all(map(_COUNT[1], v))),
    "rank": _INT,
    "p_clp": _NUMBER,
    "best_epoch": _INT,
    "best_error": _NUMBER,
    "wx_norm": _NUMBER,
    "warnings": [("a string", lambda v: type(v) is str)],
    "blc_trace": [_kind_of(EpochRecord, _NUMBER)],
    "rank_trace": {"stop_reason": _one_of(STOP_REASONS), "selected_rank": _INT,
                   "steps": [_kind_of(RankStep, _STEP_NUMBER)]},
    "config": ("an object", lambda v: type(v) is dict),  # the quantize flags echoed as they are
}


def inf_to_json(v):
    """``v``, with +inf as the string "inf": strict JSON has no infinity."""
    return "inf" if v == math.inf else v


def write_bundle(directory, layer: QuantizedLayer, config: dict | None = None) -> None:
    """Write one quantized layer as a directory of containers plus metadata."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    q = layer.q
    write_container_file(d / "codes.flrqten", container_from_packed(pack_codes(q.codes, q.bit_width)))
    for name, a in zip(_ARRAYS, (q.scales, q.zeros, layer.factors.left, layer.factors.right)):
        write_container_file(d / f"{name}.flrqten", container_from_array(a))
    rank_trace = asdict(layer.rank_trace)
    rank_trace["steps"] = [{k: inf_to_json(v) for k, v in s.items()} for s in rank_trace["steps"]]
    values = {"d": q.bit_width, "group_size": GROUP_SIZE, "shape": list(q.shape),
              "rank": layer.factors.rank, "blc_trace": [asdict(r) for r in layer.blc_trace],
              "rank_trace": rank_trace, "config": config if config is not None else {}}
    # Every other field is the layer attribute of the same name.
    meta = {k: values[k] if k in values else getattr(layer, k) for k in META}
    (d / _META_FILE).write_text(json.dumps(meta, indent=2) + "\n")


def _mistyped(v, kind, path: str = "") -> Iterator[str]:
    """A message for each part of the JSON value ``v`` (at ``path``) that is not of ``kind``."""
    at = path or "the top level"
    if isinstance(kind, tuple):
        if not kind[1](v):
            yield f"{at} {v!r:.40} is not {kind[0]}"
    elif type(v) is not type(kind):
        yield f"{at} {v!r:.40} is not {'a list' if type(kind) is list else 'an object'}"
    elif type(kind) is list:
        for i, item in enumerate(v):
            yield from _mistyped(item, kind[0], f"{path}[{i}]")
    else:
        yield from (f"{path}.{k}".lstrip(".") + " is missing" for k in kind if k not in v)
        yield from (f"{at} has unknown field {k!r:.40}" for k in v if k not in kind)
        for k in kind:
            yield from _mistyped(v[k], kind[k], f"{path}.{k}".lstrip("."))


def _contradictions(meta: dict) -> Iterator[str]:
    """A message for each rule between well-typed fields that ``meta`` breaks."""
    trace, rt, best = meta["blc_trace"], meta["rank_trace"], meta["best_epoch"]
    for path, recs, key in (("blc_trace", trace, "epoch"), ("rank_trace.steps", rt["steps"], "r")):
        yield from (f"{path}[{i}].{key} is {r[key]}, expected {i + 1}"
                    for i, r in enumerate(recs) if r[key] != i + 1)
    if not 1 <= best <= len(trace):
        yield f"best_epoch {best} is not an epoch of blc_trace (1..{len(trace)})"
        return
    for key, field in (("best_error", "error"), ("p_clp", "p_clp"), ("rank", "rank")):
        if repr(meta[key]) != repr(trace[best - 1][field]):  # 0 and 0.0 write back differently
            yield f"{key} {meta[key]!r} differs from blc_trace[{best - 1}].{field}"
    if rt["selected_rank"] != meta["rank"]:
        yield f"rank_trace.selected_rank {rt['selected_rank']} is not rank {meta['rank']}"
    # A pair that fails k < q or the slope test keeps its step; the cap and the floor stop before one.
    tried = rt["selected_rank"] + (rt["stop_reason"] in ("budget_qk", "slope"))
    if len(rt["steps"]) != tried:
        yield f"rank_trace.steps has {len(rt['steps'])} entries, expected {tried}"


def read_bundle(directory) -> tuple[QuantizedLayer, dict]:
    """Read a layer bundle back; returns the layer and its metadata record."""
    d = Path(directory)
    files = [_META_FILE, "codes.flrqten", *(f"{name}.flrqten" for name in _ARRAYS)]
    missing = [f for f in files if not (d / f).exists()]
    if missing:
        raise FormatError(f"bundle {d} is missing {', '.join(missing)}")
    meta_path = d / _META_FILE
    try:
        meta = json.loads(meta_path.read_text())
    except (RecursionError, ValueError) as exc:
        raise FormatError(f"{meta_path}: not valid JSON ({exc})") from None
    for problem in chain(_mistyped(meta, META), _contradictions(meta)):  # stop at the first
        raise FormatError(f"{meta_path}: {problem}")
    (m, n), rank = meta["shape"], meta["rank"]
    packed = read_container_file(d / "codes.flrqten")
    if packed.dtype_code != DTYPE_PACKED:
        raise FormatError("codes container is not packed")
    codes = unpack_codes(packed.payload, meta["d"], m * n).reshape(m, n)
    groups = (m, -(-n // GROUP_SIZE))
    arrays = {name: read_container_file(d / f"{name}.flrqten").to_array() for name in _ARRAYS}
    for (name, a), shape in zip(arrays.items(), (groups, groups, (m, rank), (rank, n))):
        if a.shape != shape:
            raise FormatError(f"bundle {name}.flrqten shape {a.shape} is not {shape}")
        if not np.isfinite(a).all():
            raise FormatError(f"bundle {name}.flrqten holds a non-finite value")
    if (arrays["zeros"] != np.round(arrays["zeros"])).any():
        raise FormatError("bundle zeros.flrqten holds a zero-point that is not an integer")
    rt = meta["rank_trace"]
    steps = [RankStep(**{k: math.inf if v == "inf" else v for k, v in s.items()}) for s in rt["steps"]]
    layer = QuantizedLayer(
        q=QuantizedTensor(codes, arrays["scales"], arrays["zeros"], meta["d"]),
        factors=LowRankFactors(left=arrays["left"], right=arrays["right"]),
        blc_trace=[EpochRecord(**r) for r in meta["blc_trace"]],
        rank_trace=RankTrace(rt["stop_reason"], rt["selected_rank"], steps),
        **{k: meta[k] for k in ("best_epoch", "wx_norm", "warnings")},
    )
    return layer, meta


# --- reports -----------------------------------------------------------------


def extra_bits(d_fp: int, rank: int, m: int, n: int) -> float:
    """Average extra bits per weight from storing rank factors at d_fp bits."""
    return d_fp * rank * (m + n) / (m * n)


def report_row(idx: int, layer: QuantizedLayer, rtn_rel_error: float) -> dict:
    """Layer ``idx``'s report row: factors, scales and zeros charged at ``D_FP`` bits; RTN's last."""
    m, n = layer.q.shape
    xb = extra_bits(D_FP, layer.factors.rank, m, n)
    meta_bits = 2 * D_FP * layer.q.scales.size / (m * n)  # a scale and a zero per group
    return {
        "index": idx,
        "rank": layer.factors.rank,
        "extra_bits": xb,
        "extra_bits_with_meta": xb + meta_bits,
        "rel_error": layer.rel_error,
        "abs_error": layer.best_error,
        "stop_reason": layer.rank_trace.stop_reason,
        "blc_best_epoch": layer.best_epoch,
        "p_clp": layer.p_clp,
        "rtn_rel_error": rtn_rel_error,
    }


def emit_report(rows: list[dict], config: dict) -> str:
    """Render the canonical JSON report of the layers' ``report_row``s. Keys are emitted in a fixed
    order and floats use their shortest repr, so identical inputs produce byte-identical text;
    wall time is never recorded."""
    aggregate = {f"avg_{key}": float(np.mean([r[key] for r in rows])) if rows else None
                 for key in ("rank", "extra_bits")}
    report = {"config": config, "layers": rows, "aggregate": aggregate}
    return json.dumps(report, indent=2) + "\n"
