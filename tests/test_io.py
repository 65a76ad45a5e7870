import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flrq.blc import flrq_layer
from flrq.config import FlrqConfig
from flrq.errors import BadMagicError, BadVersionError, FormatError, TruncatedError
from flrq.io import (
    DTYPE_F64,
    MAGIC,
    TensorContainer,
    container_from_array,
    container_from_packed,
    emit_report,
    extra_bits,
    pack_codes,
    read_bundle,
    read_container,
    read_container_file,
    unpack_codes,
    write_bundle,
    write_container,
    write_container_file,
)
from flrq.quantize import dequantize
from flrq.synth import SynthSpec, gen_layer


class TestContainer:
    def test_roundtrip_f64(self):
        a = np.random.default_rng(0).standard_normal((3, 5))
        data = write_container(container_from_array(a))
        out = read_container(data)
        assert out.dims == (3, 5)
        assert np.array_equal(out.to_array(), a)
        assert write_container(out) == data

    def test_f64_reads_are_views_not_copies(self, tmp_path):
        a = np.arange(6.0).reshape(2, 3)
        data = write_container(container_from_array(a))
        arr = read_container(data).to_array()
        assert np.shares_memory(arr, np.frombuffer(data, dtype=np.uint8))
        assert not arr.flags.writeable
        # From a file the payload lands 8-byte aligned, so matmul need not copy it.
        write_container_file(tmp_path / "a.flrqten", container_from_array(a))
        arr = read_container_file(tmp_path / "a.flrqten").to_array()
        assert arr.flags.aligned and not arr.flags.writeable
        assert np.array_equal(arr, a)

    def test_roundtrip_f32(self):
        a = np.random.default_rng(1).standard_normal((4, 2)).astype(np.float32)
        data = write_container(container_from_array(a, f32=True))
        out = read_container(data)
        assert np.array_equal(out.to_array(), a.astype(np.float64))

    def test_zero_dim_scalar(self):
        a = np.array(3.5)
        data = write_container(container_from_array(a))
        out = read_container(data)
        assert out.dims == ()
        assert out.to_array() == 3.5

    def test_bad_magic(self):
        data = write_container(container_from_array(np.ones((2, 2))))
        with pytest.raises(BadMagicError):
            read_container(b"XXXXXXXX" + data[8:])

    def test_bad_version(self):
        data = bytearray(write_container(container_from_array(np.ones((2, 2)))))
        data[8] = 99
        with pytest.raises(BadVersionError):
            read_container(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(TruncatedError):
            read_container(b"FLRQTEN\0\x01")

    def test_truncated_payload(self):
        data = write_container(container_from_array(np.ones((2, 2))))
        with pytest.raises(TruncatedError):
            read_container(data[:-4])

    def test_huge_dims_do_not_wrap(self):
        # 2^62 * 4 elements wrap to 0 in int64 arithmetic; the empty payload must not pass.
        dims = (2**62, 4)
        header = b"FLRQTEN\0" + struct.pack("<IBI2Q", 1, DTYPE_F64, len(dims), *dims)
        with pytest.raises(TruncatedError):
            read_container(header)
        with pytest.raises(FormatError):
            write_container(TensorContainer(dtype_code=DTYPE_F64, dims=dims, payload=b""))

    def test_trailing_garbage_rejected(self):
        data = write_container(container_from_array(np.ones((2, 2))))
        with pytest.raises(FormatError):
            read_container(data + b"\x00")

    def test_unknown_dtype(self):
        data = bytearray(write_container(container_from_array(np.ones((2, 2)))))
        data[12] = 9
        with pytest.raises(FormatError):
            read_container(bytes(data))

    @given(
        st.one_of(
            st.binary(max_size=64),
            st.binary(max_size=64).map(lambda b: MAGIC + b),
            st.tuples(
                st.integers(0, 3), st.integers(0, 3), st.binary(max_size=64)
            ).map(lambda t: MAGIC + struct.pack("<IBI", 1, t[0], t[1]) + t[2]),
        )
    )
    def test_random_bytes_raise_only_format_errors(self, data):
        try:
            read_container(data)
        except FormatError:
            pass

    def test_packed_roundtrip(self):
        payload = bytes(range(17))
        data = write_container(container_from_packed(payload))
        out = read_container(data)
        assert out.payload == payload
        assert out.dims == (17,)


class TestPacking:
    def test_two_bit_layout(self):
        assert pack_codes([0, 1, 2, 3], 2) == bytes([0b11100100])

    def test_four_bit_nibbles(self):
        assert pack_codes([0x0, 0xF], 4) == bytes([0xF0])

    def test_three_bit_layout(self):
        assert pack_codes([7], 3) == bytes([0x07])
        assert pack_codes([0, 7], 3) == bytes([0b00111000])
        assert len(pack_codes([1] * 8, 3)) == 3

    def test_empty(self):
        assert pack_codes([], 2) == b""
        assert unpack_codes(b"", 2, 0).size == 0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_exhaustive_all_code_values(self, d):
        codes = np.arange(2**d)
        packed = pack_codes(codes, d)
        assert np.array_equal(unpack_codes(packed, d, codes.size), codes)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_lengths_roundtrip(self, d):
        rng = np.random.default_rng(d)
        for length in (1, 2, 7, 8, 9, 100, 1000):
            codes = rng.integers(0, 2**d, size=length)
            assert np.array_equal(unpack_codes(pack_codes(codes, d), d, length), codes)

    @given(st.sampled_from([2, 3, 4]).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(st.integers(0, 2**d - 1), max_size=200))
    ))
    def test_pack_unpack_identity(self, case):
        d, codes = case
        assert unpack_codes(pack_codes(codes, d), d, len(codes)).tolist() == codes

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError):
            pack_codes([4], 2)
        with pytest.raises(ValueError):
            pack_codes([-1], 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(FormatError):
            unpack_codes(b"\x00\x00", 2, 1)


def make_layer(seed=0, d=3, mode="asymmetric"):
    spec = SynthSpec(m=32, n=64, family="outlier_channels", seed=seed, tokens=16,
                     outlier_count=1, outlier_boost=20.0)
    w, x = gen_layer(spec)
    return flrq_layer(w, x, FlrqConfig(d=d, x=1.0, seed=seed, epochs=2, mode=mode))


class TestBundles:
    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    def test_roundtrip_dequantizes_identically(self, tmp_path, mode):
        layer = make_layer(d=2, mode=mode)
        write_bundle(tmp_path / "b", layer, {"d": 2})
        back, meta = read_bundle(tmp_path / "b")
        assert np.array_equal(back.q.codes, layer.q.codes)
        assert dequantize(back.q).tobytes() == dequantize(layer.q).tobytes()
        assert back.reconstruct().tobytes() == layer.reconstruct().tobytes()
        assert np.array_equal(back.alpha, layer.alpha)
        assert meta["mode"] == mode

    def test_metadata_roundtrip(self, tmp_path):
        layer = make_layer(d=4)
        write_bundle(tmp_path / "b", layer, {"note": "cfg"})
        back, meta = read_bundle(tmp_path / "b")
        assert back.best_epoch == layer.best_epoch
        assert back.p_clp == layer.p_clp
        assert back.best_error == layer.best_error
        assert back.rank_trace.stop_reason == layer.rank_trace.stop_reason
        assert [r.error for r in back.blc_trace] == [r.error for r in layer.blc_trace]
        assert meta["config"] == {"note": "cfg"}

    def test_missing_meta_rejected(self, tmp_path):
        (tmp_path / "b").mkdir()
        with pytest.raises(FormatError):
            read_bundle(tmp_path / "b")

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda meta: meta.update(mode="weird"),
            lambda meta: meta.update(group_size=0),
            lambda meta: meta.update(group_size=7),  # disagrees with the scales' shape
            lambda meta: meta.update(d=5),
            lambda meta: meta.update(shape=[32 * 64]),
            lambda meta: meta.update(shape=[-32, -64]),
            lambda meta: meta.pop("best_error"),
            None,  # not JSON at all
            lambda meta: meta["blc_trace"][0].pop("error"),
            lambda meta: meta.update(blc_trace=5),
            lambda meta: meta.pop("rank_trace"),
        ],
        ids=["mode", "group-size-0", "group-size-7", "d-5", "shape-1d", "shape-negative",
             "missing-key", "bad-json", "blc-trace-missing-key", "blc-trace-not-a-list",
             "no-rank-trace"],
    )
    def test_tampered_metadata_rejected(self, tmp_path, tamper):
        write_bundle(tmp_path / "b", make_layer(d=4))
        meta_path = tmp_path / "b" / "meta.json"
        if tamper is None:
            meta_path.write_text("{not json")
        else:
            meta = json.loads(meta_path.read_text())
            tamper(meta)
            meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError):
            read_bundle(tmp_path / "b")


class TestReport:
    def test_zero_layers_valid_json(self):
        import json

        report = json.loads(emit_report([], {"d": 4}))
        assert report["aggregate"]["avg_rank"] is None
        assert report["aggregate"]["avg_extra_bits"] is None
        assert report["layers"] == []

    def test_rank_zero_layer_has_zero_extra_bits(self):
        import json

        layer = make_layer(seed=1, d=4)
        report = json.loads(emit_report([layer], {"d": 4, "d_fp": 16}))
        row = report["layers"][0]
        assert row["extra_bits"] == pytest.approx(
            extra_bits(16, layer.factors.rank, *layer.q.shape)
        )
        if layer.factors.rank == 0:
            assert row["extra_bits"] == 0.0

    def test_extra_bits_formula(self):
        assert extra_bits(16, 32, 4096, 4096) == pytest.approx(0.25)
        assert extra_bits(16, 0, 64, 64) == 0.0

    def test_meta_overhead_field(self):
        import json

        layer = make_layer(seed=2, d=3)
        report = json.loads(emit_report([layer], {"d": 3, "d_fp": 16}))
        row = report["layers"][0]
        overhead = 16 * 2 / layer.q.group_size  # scale + zero at d_fp bits
        assert row["extra_bits_with_meta"] == pytest.approx(row["extra_bits"] + overhead)

    def test_byte_identical_for_identical_inputs(self):
        layer = make_layer(seed=3, d=2)
        a = emit_report([layer], {"d": 2, "d_fp": 16})
        b = emit_report([layer], {"d": 2, "d_fp": 16})
        assert a == b
