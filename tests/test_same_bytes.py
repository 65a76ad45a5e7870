"""tools/same_bytes.py names each differing file, and a JSON file's differing top-level keys."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_bytes.py"


@pytest.fixture(scope="module")
def same_bytes():
    spec = importlib.util.spec_from_file_location("same_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


META = {"rank": 2, "best_error": 0.5, "rank_trace": {"stop_reason": "memory_cap", "steps": [1, 2]}}


def write_tree(root: Path, meta: dict, codes: bytes, extra: str | None = None) -> Path:
    (root / "layer_000").mkdir(parents=True)
    (root / "layer_000" / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    (root / "layer_000" / "codes.flrqten").write_bytes(codes)
    (root / "report.json").write_text(json.dumps({"layers": [1], "config": {"d": 2}}))
    if extra is not None:
        (root / extra).write_text("{}")
    return root


def compare(same_bytes, a: Path, b: Path) -> list[str]:
    return [same_bytes.describe(a, b, rel) for rel in same_bytes.differing_files(a, b)]


def test_identical_trees_differ_nowhere(same_bytes, tmp_path):
    a = write_tree(tmp_path / "a", META, b"\x01\x02")
    b = write_tree(tmp_path / "b", META, b"\x01\x02")
    assert compare(same_bytes, a, b) == []


def test_names_the_differing_top_level_keys(same_bytes, tmp_path):
    moved = {**META, "rank_trace": {"stop_reason": "memory_cap", "steps": [1]}, "best_error": -0.0}
    other = {**META, "best_error": 0.0}  # equal as numbers, written differently
    a = write_tree(tmp_path / "a", other, b"\x01\x02", extra="only_a.json")
    b = write_tree(tmp_path / "b", moved, b"\x01\x03")
    assert compare(same_bytes, a, b) == [
        "layer_000/codes.flrqten",  # not JSON: named alone
        "layer_000/meta.json: best_error, rank_trace",
        "only_a.json",  # in one tree only: named alone
    ]


def test_a_key_held_by_one_side_or_a_non_object_file(same_bytes, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, meta, listed in ((a, {"x": 1}, [1]), (b, {"x": 1, "y": None}, [2])):
        root.mkdir()
        (root / "meta.json").write_text(json.dumps(meta))
        (root / "list.json").write_text(json.dumps(listed))
    (b / "broken.json").write_text("{")
    (a / "broken.json").write_text("{}")
    assert compare(same_bytes, a, b) == ["broken.json", "list.json", "meta.json: y"]


TRACE = [{"epoch": 1, "error": 2.0, "p_clp": 0.5, "rank": 1}, {"epoch": 2, "error": 1.0, "p_clp": 0.4, "rank": 1}]


def traced(records, **top):
    return {**META, "best_epoch": 2, "p_clp": 0.4, "blc_trace": records, **top}


def test_a_moved_trace_gives_its_largest_error_change(same_bytes, tmp_path):
    nudged = [{**TRACE[0], "error": 2.0 * (1 + 3e-7)}, TRACE[1]]
    a = write_tree(tmp_path / "a", traced(TRACE), b"\x01")
    b = write_tree(tmp_path / "b", traced(nudged), b"\x01")
    assert compare(same_bytes, a, b) == ["layer_000/meta.json: blc_trace (errors by <= 3e-07 relative)"]
    assert same_bytes.trace_moves(a / "layer_000/meta.json", b / "layer_000/meta.json") == (
        pytest.approx(3e-7), [])


def test_a_moved_threshold_rank_or_best_epoch_is_named(same_bytes, tmp_path):
    moved = [{**TRACE[0], "p_clp": 0.45, "rank": 2}, TRACE[1]]
    a = write_tree(tmp_path / "a", traced(TRACE), b"\x01")
    b = write_tree(tmp_path / "b", traced(moved, best_epoch=1), b"\x01")
    assert compare(same_bytes, a, b) == [
        "layer_000/meta.json: best_epoch, blc_trace (errors by <= 0 relative; moved: p_clp, rank, best_epoch)"]


def test_traces_that_do_not_pair_up_are_only_named(same_bytes, tmp_path):
    a = write_tree(tmp_path / "a", traced(TRACE), b"\x01")
    b = write_tree(tmp_path / "b", traced(TRACE[:1]), b"\x01")
    assert compare(same_bytes, a, b) == ["layer_000/meta.json: blc_trace"]
