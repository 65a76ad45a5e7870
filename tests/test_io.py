import functools
import json
import operator
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flrq.blc import calibrate, flrq_layer
from flrq.config import FlrqConfig
from flrq.errors import BadMagicError, BadVersionError, FormatError, TruncatedError
from flrq.io import (
    DTYPE_F32,
    DTYPE_F64,
    MAGIC,
    TensorContainer,
    container_from_array,
    container_from_packed,
    emit_report,
    report_row,
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
from flrq.quantize import GROUP_SIZE, dequantize
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
        data = write_container(TensorContainer(DTYPE_F32, a.shape, a.astype("<f4").tobytes()))
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

    def test_set_pad_bit_rejected(self):
        # One 2-bit code uses bits 0-1; bit 2 is padding.
        with pytest.raises(FormatError, match="nonzero padding bits"):
            unpack_codes(b"\x04", 2, 1)


def make_layer(seed=0, d=3, n=64):
    spec = SynthSpec(m=32, n=n, family="outlier_channels", seed=seed, tokens=16,
                     outlier_count=1, outlier_boost=20.0)
    w, x = gen_layer(spec)
    return flrq_layer(w, calibrate(w, x), FlrqConfig(d=d, x=1.0, seed=seed, epochs=2))


BUNDLE_FILES = ("codes", "scales", "zeros", "left", "right")

# One wrong-typed value per typed metadata field: its path in meta.json and the value.
MISTYPED = {
    "best-error": (("best_error",), "oops"),
    "wx-norm": (("wx_norm",), True),
    "p-clp": (("p_clp",), None),
    "best-epoch": (("best_epoch",), 1.0),
    "epoch-epoch": (("blc_trace", 0, "epoch"), "1"),
    "epoch-error": (("blc_trace", 0, "error"), [1]),
    "epoch-p-clp": (("blc_trace", 0, "p_clp"), "inf"),
    "epoch-rank": (("blc_trace", 0, "rank"), False),
    "step-amax": (("rank_trace", "steps", 0, "amax"), "garbage"),
    "step-q": (("rank_trace", "steps", 0, "q"), float("nan")),
    "step-k": (("rank_trace", "steps", 0, "k"), "-inf"),
    "step-slope": (("rank_trace", "steps", 0, "slope"), {"inf": 1}),
    "selected-rank": (("rank_trace", "selected_rank"), "two"),
    "stop-reason": (("rank_trace", "stop_reason"), 7),
    "warnings": (("warnings",), "oops"),
    "warnings-item": (("warnings",), ["fine", 3]),
}

DELETE = object()  # as an edit's value: remove the key

# One edit that contradicts another field of a valid rank-4, two-epoch bundle (best epoch 2):
# its path in meta.json, the value, and the field path the error must name.
CONTRADICTIONS = {
    "rank-99": (("rank",), 99, "rank 99 differs from blc_trace[1].rank"),
    "rank-removed": (("rank",), DELETE, "rank is missing"),
    "best-epoch-7": (("best_epoch",), 7, "best_epoch 7 is not an epoch of blc_trace"),
    "blc-trace-empty": (("blc_trace",), [], "best_epoch 2 is not an epoch of blc_trace (1..0)"),
    "best-error-high": (("best_error",), 1.0, "best_error 1.0 differs from blc_trace[1].error"),
    "best-error-negative": (("best_error",), -1.0, "best_error -1.0 is not a finite number"),
    "p-clp": (("p_clp",), 1.0, "p_clp 1.0 differs from blc_trace[1].p_clp"),
    "selected-rank": (("rank_trace", "selected_rank"), 3, "rank_trace.selected_rank 3 is not rank"),
    "steps-empty": (("rank_trace", "steps"), [], "rank_trace.steps has 0 entries"),
    "epoch-renumbered": (("blc_trace", 0, "epoch"), 2, "blc_trace[0].epoch is 2, expected 1"),
    "step-renumbered": (("rank_trace", "steps", 1, "r"), 1, "rank_trace.steps[1].r is 1, expected 2"),
    "wx-norm-negative": (("wx_norm",), -3, "wx_norm -3 is not a finite number"),
    "wx-norm-inf": (("wx_norm",), float("inf"), "wx_norm inf is not a finite number"),
}

# The values a single-leaf edit may take.
EDIT_POOL = (1, -1, 0, 99, 1.0, -1.0, "inf", "x", None, True, [], {})


def edit_meta(bundle, path, value) -> str:
    """Set (or, for DELETE, remove) the meta.json entry at ``path``; returns the new text."""
    meta_path = bundle / "meta.json"
    meta = json.loads(meta_path.read_text())
    *parents, key = path
    parent = functools.reduce(operator.getitem, parents, meta)
    if value is DELETE:
        del parent[key]
    else:
        parent[key] = value
    text = json.dumps(meta, indent=2) + "\n"  # as write_bundle writes it
    meta_path.write_text(text)
    return text


def meta_paths(v, path=()):
    """The path of every value nested in the JSON value ``v``."""
    items = v.items() if type(v) is dict else enumerate(v) if type(v) is list else ()
    for k, sub in items:
        yield (*path, k)
        yield from meta_paths(sub, (*path, k))


@pytest.fixture(scope="module")
def valid_bundle(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("valid") / "b"
    write_bundle(bundle, make_layer(d=4), {"d": 4, "x": 1.0})
    return bundle


class TestBundles:
    @pytest.mark.parametrize("d", [2], ids=["asymmetric"])
    def test_roundtrip_dequantizes_identically(self, tmp_path, d):
        layer = make_layer(d=d)
        write_bundle(tmp_path / "b", layer, {"d": d})
        back, _ = read_bundle(tmp_path / "b")
        assert np.array_equal(back.q.codes, layer.q.codes)
        assert dequantize(back.q).tobytes() == dequantize(layer.q).tobytes()
        assert back.reconstruct().tobytes() == layer.reconstruct().tobytes()
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == sorted(
            ["meta.json", *(f"{name}.flrqten" for name in BUNDLE_FILES)])

    @pytest.mark.parametrize("name", BUNDLE_FILES)
    def test_missing_container_is_format_error(self, tmp_path, name):
        write_bundle(tmp_path / "b", make_layer(d=4))
        (tmp_path / "b" / f"{name}.flrqten").unlink()
        with pytest.raises(FormatError, match=f"{name}.flrqten"):
            read_bundle(tmp_path / "b")

    def test_unpacked_codes_rejected(self, tmp_path):
        write_bundle(tmp_path / "b", make_layer(d=4))
        write_container_file(tmp_path / "b" / "codes.flrqten", container_from_array(np.zeros(1024)))
        with pytest.raises(FormatError, match="codes container is not packed"):
            read_bundle(tmp_path / "b")

    def test_symmetric_bundle_rejected(self, tmp_path):
        # The retired symmetric format stored offset-binary codes and no zero-points.
        write_bundle(tmp_path / "b", make_layer(d=4))
        meta_path = tmp_path / "b" / "meta.json"
        meta_path.write_text(json.dumps({**json.loads(meta_path.read_text()), "mode": "symmetric"}))
        (tmp_path / "b" / "zeros.flrqten").unlink()
        with pytest.raises(FormatError, match="zeros.flrqten"):
            read_bundle(tmp_path / "b")

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
            lambda meta: meta.update(group_size=0),
            lambda meta: meta.update(group_size=7),  # disagrees with the scales' shape
            lambda meta: meta.update(d=5),
            lambda meta: meta.update(shape=[32 * 64]),
            lambda meta: meta.update(shape=[-32, -64]),
            lambda meta: meta.pop("best_error"),
            "{not json",
            "[" * 100_000,  # nested too deep for the parser
            lambda meta: meta["blc_trace"][0].pop("error"),
            lambda meta: meta.update(blc_trace=5),
            lambda meta: meta.pop("rank_trace"),
        ],
        ids=["group-size-0", "group-size-7", "d-5", "shape-1d", "shape-negative",
             "missing-key", "bad-json", "deep-json", "blc-trace-missing-key", "blc-trace-not-a-list",
             "no-rank-trace"],
    )
    def test_tampered_metadata_rejected(self, tmp_path, tamper):
        write_bundle(tmp_path / "b", make_layer(d=4))
        meta_path = tmp_path / "b" / "meta.json"
        if isinstance(tamper, str):
            meta_path.write_text(tamper)
        else:
            meta = json.loads(meta_path.read_text())
            tamper(meta)
            meta_path.write_text(json.dumps(meta))
        with pytest.raises(FormatError):
            read_bundle(tmp_path / "b")

    def test_group_size_is_the_pipelines(self, tmp_path):
        # 129 still gives 2 groups per 256-wide row, so the scales' shape cannot catch it.
        write_bundle(tmp_path / "b", make_layer(d=4, n=256))
        edit_meta(tmp_path / "b", ("group_size",), 129)
        with pytest.raises(FormatError, match="group_size 129 is not one of") as exc:
            read_bundle(tmp_path / "b")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("path, value", MISTYPED.values(), ids=MISTYPED.keys())
    def test_mistyped_value_rejected(self, tmp_path, path, value):
        write_bundle(tmp_path / "b", make_layer(d=4))
        edit_meta(tmp_path / "b", path, value)
        with pytest.raises(FormatError, match=path[-1]):
            read_bundle(tmp_path / "b")

    @pytest.mark.parametrize("reason", ["budget_qk", "slope", "memory_cap", "max_rank"])
    def test_trailing_step_only_after_a_failed_test(self, valid_bundle, tmp_path, reason):
        # k >= q and a flat slope reject the pair they tested, whose step stays in the trace;
        # the memory cap and the residual floor end the loop before drawing a pair.
        trailing = reason in ("budget_qk", "slope")
        trace = json.loads((valid_bundle / "meta.json").read_text())["rank_trace"]
        steps, rank = trace["steps"], trace["selected_rank"]
        assert len(steps) == rank + 1  # the valid bundle stopped on a failed test
        for count in (rank, rank + 1):
            bundle = tmp_path / f"{reason}-{count}"
            shutil.copytree(valid_bundle, bundle)
            edit_meta(bundle, ("rank_trace", "stop_reason"), reason)
            edit_meta(bundle, ("rank_trace", "steps"), steps[:count])
            if count == rank + trailing:
                assert read_bundle(bundle)[0].rank_trace.stop_reason == reason
            else:
                with pytest.raises(FormatError, match=f"rank_trace.steps has {count} entries"):
                    read_bundle(bundle)

    @pytest.mark.parametrize("path, value, field", CONTRADICTIONS.values(),
                             ids=CONTRADICTIONS.keys())
    def test_contradiction_rejected(self, tmp_path, path, value, field):
        write_bundle(tmp_path / "b", make_layer(d=4))
        edit_meta(tmp_path / "b", path, value)
        with pytest.raises(FormatError, match=re.escape(field)) as exc:
            read_bundle(tmp_path / "b")
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("value, ok", [(1.0, True), (1, False)], ids=["float", "int"])
    def test_best_error_matches_its_record_as_written(self, tmp_path, value, ok):
        # The layer reads best_error from blc_trace, so a 1 beside a 1.0 would write back as 1.0.
        write_bundle(tmp_path / "b", make_layer(d=4))
        edit_meta(tmp_path / "b", ("blc_trace", 1, "error"), 1.0)
        edit_meta(tmp_path / "b", ("best_error",), value)
        if ok:
            assert read_bundle(tmp_path / "b")[0].best_error == 1.0
        else:
            with pytest.raises(FormatError, match=re.escape("best_error 1 differs from blc_trace[1]")):
                read_bundle(tmp_path / "b")

    @settings(deadline=None)
    @given(data=st.data())
    def test_single_leaf_edit_is_rejected_or_written_back(self, valid_bundle, tmp_path_factory,
                                                          data):
        bundle = tmp_path_factory.mktemp("edit") / "b"
        shutil.copytree(valid_bundle, bundle)
        paths = list(meta_paths(json.loads((bundle / "meta.json").read_text())))
        path = data.draw(st.sampled_from(paths), label="path")
        text = edit_meta(bundle, path, data.draw(st.sampled_from(EDIT_POOL), label="value"))
        try:
            layer, meta = read_bundle(bundle)
        except FormatError as exc:
            assert "\n" not in str(exc)
            return
        write_bundle(bundle.parent / "back", layer, meta["config"])
        assert (bundle.parent / "back" / "meta.json").read_text() == text

    @pytest.mark.parametrize("name, value", [("scales", np.nan), ("zeros", 0.5), ("zeros", np.inf),
                                             ("left", np.inf), ("right", np.nan)],
                             ids=["scales-nan", "zeros-half", "zeros-inf", "left-inf", "right-nan"])
    def test_bad_array_value_rejected(self, tmp_path, name, value):
        write_bundle(tmp_path / "b", make_layer(d=4))
        path = tmp_path / "b" / f"{name}.flrqten"
        a = read_container_file(path).to_array().copy()
        a[0, 0] = value
        write_container_file(path, container_from_array(a))
        with pytest.raises(FormatError, match=re.escape(f"{name}.flrqten")):
            read_bundle(tmp_path / "b")

    def test_factor_columns_must_match_rank(self, tmp_path):
        # Drop one component from both factors: they still agree with each other, not with rank.
        layer = make_layer(d=4)
        write_bundle(tmp_path / "b", layer)
        for name, a in (("left", layer.factors.left[:, 1:]), ("right", layer.factors.right[1:])):
            write_container_file(tmp_path / "b" / f"{name}.flrqten", container_from_array(a))
        with pytest.raises(FormatError, match=r"left\.flrqten shape \(32, 3\) is not \(32, 4\)"):
            read_bundle(tmp_path / "b")


def report_of(layers, config, rtn_rel_errors) -> dict:
    """The report of ``layers`` as quantize writes it: one report_row each, then emit_report."""
    rows = [report_row(idx, *row) for idx, row in enumerate(zip(layers, rtn_rel_errors, strict=True))]
    return json.loads(emit_report(rows, config))


class TestReport:
    def test_zero_layers_valid_json(self):
        import json

        report = json.loads(emit_report([], {"d": 4}))
        assert report["aggregate"]["avg_rank"] is None
        assert report["aggregate"] == {"avg_rank": None, "avg_extra_bits": None}
        assert report["layers"] == []

    def test_rank_zero_layer_has_zero_extra_bits(self):
        import json

        layer = make_layer(seed=1, d=4)
        report = report_of([layer], {"d": 4}, [1.0])
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
        # make_layer's 32 x 64 layer has one 64-wide group per row: a scale and a zero at
        # 16 bits over 64 weights.
        report = report_of([make_layer(seed=2, d=3)], {"d": 3}, [1.0])
        row = report["layers"][0]
        assert row["extra_bits_with_meta"] == pytest.approx(row["extra_bits"] + 16 * 2 / 64)

    @pytest.mark.parametrize("n", [200, 256])
    def test_meta_overhead_charges_every_group(self, n):
        # 16 * 2 * ceil(n / GROUP_SIZE) / n: 0.32 at n = 200, whose last group is short.
        report = report_of([make_layer(seed=2, d=3, n=n)], {"d": 3}, [1.0])
        row = report["layers"][0]
        overhead = 16 * 2 * -(-n // GROUP_SIZE) / n
        assert row["extra_bits_with_meta"] == pytest.approx(row["extra_bits"] + overhead)

    def test_byte_identical_for_identical_inputs(self):
        layer = make_layer(seed=3, d=2)
        a = emit_report([report_row(0, layer, 1.0)], {"d": 2})
        b = emit_report([report_row(0, layer, 1.0)], {"d": 2})
        assert a == b

    def test_rtn_rel_error_is_the_last_column(self):
        report = report_of([make_layer(seed=4, d=2)], {"d": 2}, [0.25])
        assert list(report["layers"][0].items())[-1] == ("rtn_rel_error", 0.25)
