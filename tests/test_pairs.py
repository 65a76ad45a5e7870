"""tools/pairs.py: its statistics on fixed lists, and interleaved runs of a tiny hand-made root."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_interpolate_between_order_statistics(pairs):
    assert pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 3.25)


def test_sign_test_is_two_sided_and_capped_at_one(pairs):
    assert pairs.sign_test(10, 0) == pairs.sign_test(0, 10) == 2 / 1024
    assert pairs.sign_test(9, 1) == 2 * 11 / 1024
    assert pairs.sign_test(8, 2) == 2 * 56 / 1024
    assert pairs.sign_test(5, 5) == pairs.sign_test(0, 0) == 1.0


def test_summarize_counts_lower_pairs_and_drops_ties(pairs):
    s = pairs.summarize([1.0, 2.0, 3.0, 4.0], [0.5, 2.0, 5.0, 3.0])
    assert (s["parent_median"], s["parent_q1"], s["parent_q3"]) == (2.5, 1.75, 3.25)
    assert (s["change_median"], s["rel_change"]) == (2.5, 0.0)
    assert (s["lower"], s["pairs"]) == (2, 4)
    assert s["sign_p"] == 1.0  # 2 lower, 1 higher, 1 tie: 2 * (1 + 3) / 8, capped


# A stand-in for flrq.cli: gen-synth writes nothing, quantize writes a report.json.
STUB = """

def main(argv):
    if argv[0] == "quantize":
        out = Path(argv[argv.index("--out-dir") + 1])
        out.mkdir(parents=True)
        (out / "report.json").write_text(json.dumps({"d": argv[argv.index("--d") + 1], **REPORT}))
    return CODE


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
"""


def stub_root(path: Path, report: str = "{}", code: int = 0) -> Path:
    (path / "src" / "flrq").mkdir(parents=True)
    (path / "src" / "flrq" / "__init__.py").write_text("")
    head = f"import json, sys, time\nfrom pathlib import Path\n\nREPORT = {report}\nCODE = {code}\n"
    (path / "src" / "flrq" / "cli.py").write_text(head + STUB)
    return path


def test_a_root_against_itself(pairs, tmp_path, capsys):
    root = stub_root(tmp_path / "root")
    code = pairs.main([str(root), str(root), "--workload", "alt2bit", "--pairs", "2",
                       "--env-change", "MALLOC_ARENA_MAX=1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert (result["workload"], result["seed"], result["pairs"]) == ("alt2bit", 1, 2)
    assert result["env_change"] == {"MALLOC_ARENA_MAX": "1"}
    assert result["report_stable"] and result["same_report"]
    assert sorted(result["metrics"]) == sorted(pairs.METRICS)
    for s in result["metrics"].values():
        assert s["pairs"] == 2 and 0.0 <= s["sign_p"] <= 1.0
        assert s["parent_q1"] <= s["parent_median"] <= s["parent_q3"]


def test_a_report_that_changes_between_runs_exits_1(pairs, tmp_path, capsys):
    root = stub_root(tmp_path / "root", report='{"ns": time.time_ns()}')
    assert pairs.main([str(root), str(root), "--workload", "calib4k", "--pairs", "2"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["report_stable"] is False


def test_a_failing_run_exits_2(pairs, tmp_path, capsys):
    parent, change = stub_root(tmp_path / "parent"), stub_root(tmp_path / "change", code=3)
    with pytest.raises(SystemExit) as exc:
        pairs.main([str(parent), str(change), "--workload", "alt2bit", "--pairs", "1"])
    assert exc.value.code == 2
    assert "exited 3" in capsys.readouterr().err
