"""tools/lines.py counts the non-blank lines of src/flrq/*.py, then adds experiments/*.py."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lines.py"


def test_counts_non_blank_lines_of_each_tree(tmp_path):
    (tmp_path / "src" / "flrq" / "sub").mkdir(parents=True)
    (tmp_path / "experiments").mkdir()
    (tmp_path / "src" / "flrq" / "a.py").write_text("x = 1\n\n   \ny = 2\n")
    (tmp_path / "src" / "flrq" / "b.py").write_text("\n# a comment counts\n")
    (tmp_path / "src" / "flrq" / "notes.txt").write_text("not python\n")
    (tmp_path / "src" / "flrq" / "sub" / "c.py").write_text("z = 3\n")  # not directly in src/flrq
    (tmp_path / "experiments" / "paper.py").write_text("\tpass\n\n")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [json.dumps({"src/flrq": 3, "src/flrq+experiments": 4})]
