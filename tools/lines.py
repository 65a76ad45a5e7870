"""Print the non-blank line counts of flrq's code as one JSON line.

    python3 tools/lines.py [ROOT]

``src/flrq`` counts the non-blank lines of ``ROOT/src/flrq/*.py``, and
``src/flrq+experiments`` adds those of ``ROOT/experiments/*.py``. ROOT defaults
to this repository. The counts measure and gate nothing: the exit code is 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def non_blank(directory: Path) -> int:
    """Non-blank lines of the ``*.py`` files directly in ``directory``."""
    return sum(bool(line.strip()) for path in directory.glob("*.py") for line in path.read_text().splitlines())


def counts(root: Path) -> dict[str, int]:
    src = non_blank(root / "src" / "flrq")
    return {"src/flrq": src, "src/flrq+experiments": src + non_blank(root / "experiments")}


if __name__ == "__main__":
    print(json.dumps(counts(Path(sys.argv[1]) if sys.argv[1:] else Path(__file__).resolve().parents[1])))
