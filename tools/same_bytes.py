"""Check that two checkouts of flrq write the same quantize bytes on the benchmark's workloads.

    python3 tools/same_bytes.py PARENT_ROOT CHANGE_ROOT --seeds 1-20

For each seed and each workload of this repository's ``benchmark/workloads.py``, the
inputs are generated once (``benchmark/helper.py generate``, importing PARENT_ROOT's
``src/``); then ``Workload.quantize_args`` runs once under each root's ``src/``. One
line per tree says ``identical`` or names the files that differ. Exits 0 when every tree
is identical, 1 on any difference, 2 when a command fails. Inputs and outputs go to a
temporary directory that is removed at the end. A differing JSON file is followed by the
top-level keys whose values differ, e.g. ``layer_001/meta.json: rank_trace``. When a
``meta.json``'s ``blc_trace`` differs, the line also gives the largest relative change of
its ``error`` fields and names whichever of ``p_clp``, ``rank`` and ``best_epoch`` moved, in
a record or at the top level; a last line sums these up over every tree.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCHMARK))

from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> range:
    """'1-20' -> 1 ... 20; '3' -> 3."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


MOVES = ("p_clp", "rank", "best_epoch")  # what a blc_trace change must name when it moves


def fail(argv: list[str], root: Path, code: int, stderr: str) -> None:
    """Report a failed command and exit 2."""
    print(f"{' '.join(argv)} under {root} exited {code}:\n{stderr}", file=sys.stderr)
    sys.exit(2)


def run(root: Path, argv: list[str]) -> None:
    """Run ``argv`` with ``root``'s flrq on the path; exit 2 if it fails."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        fail(argv, root, proc.returncode, proc.stderr)


def differing_files(a: Path, b: Path) -> list[str]:
    """Relative paths present in only one tree, or with different bytes."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    other = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    changed = {p for p in files & other if not filecmp.cmp(a / p, b / p, shallow=False)}
    return sorted(map(str, (files ^ other) | changed))


def differing_keys(a: Path, b: Path) -> list[str]:
    """Top-level keys of two JSON objects that only one holds or whose values write differently;
    none when either file is not a JSON object."""
    try:
        x, y = (json.loads(p.read_text()) for p in (a, b))
    except ValueError:
        return []
    if not (isinstance(x, dict) and isinstance(y, dict)):
        return []
    return sorted(k for k in x.keys() | y.keys()
                  if k not in x or k not in y or json.dumps(x[k]) != json.dumps(y[k]))


def trace_moves(a: Path, b: Path) -> tuple[float, list[str]] | None:
    """For two ``meta.json`` files whose ``blc_trace`` lists differ record by record: the largest
    relative change of an ``error``, and which of MOVES moved. None when they do not pair up."""
    try:
        x, y = (json.loads(p.read_text()) for p in (a, b))
        pairs = list(zip(x["blc_trace"], y["blc_trace"], strict=True))
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if all(r == s for r, s in pairs):  # no record moved, or no records
        return None
    worst = max(abs(s["error"] - r["error"]) / abs(r["error"]) if r["error"] else float(s["error"] != 0)
                for r, s in pairs)
    moved = [k for k in MOVES if x.get(k) != y.get(k) or any(r.get(k) != s.get(k) for r, s in pairs)]
    return worst, moved


def describe(a: Path, b: Path, rel: str) -> str:
    """``rel``, followed by its differing top-level keys when both trees hold it as JSON, and by
    how its ``blc_trace`` moved when that differs."""
    both = (a / rel).is_file() and (b / rel).is_file()
    keys = differing_keys(a / rel, b / rel) if both and rel.endswith(".json") else []
    moves = trace_moves(a / rel, b / rel) if "blc_trace" in keys else None
    if moves:
        moved = f"; moved: {', '.join(moves[1])}" if moves[1] else ""
        keys[keys.index("blc_trace")] += f" (errors by <= {moves[0]:.2g} relative{moved})"
    return f"{rel}: {', '.join(keys)}" if keys else rel


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, help="root of the reference checkout")
    p.add_argument("change", type=Path, help="root of the checkout under test")
    p.add_argument("--seeds", type=seed_range, default=seed_range("1"), help="e.g. 1-20 (default 1)")
    args = p.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    differ, traces = 0, []
    with tempfile.TemporaryDirectory(prefix="same_bytes-") as tmp:
        for seed in args.seeds:
            for wl in WORKLOADS.values():
                work = Path(tmp) / f"{wl.name}-{seed}"
                run(roots["parent"], [str(BENCHMARK / "helper.py"), "generate", wl.name, str(seed),
                                      str(work / "in")])
                for name, root in roots.items():
                    run(root, ["-m", "flrq.cli", *wl.quantize_args(work / "in", work / name, seed)])
                rels = differing_files(work / "parent", work / "change")
                diff = [describe(work / "parent", work / "change", rel) for rel in rels]
                traces += filter(None, (trace_moves(work / "parent" / r, work / "change" / r) for r in rels))
                differ += bool(diff)
                print(f"{wl.name} seed {seed}: {'; '.join(diff) if diff else 'identical'}", flush=True)
                shutil.rmtree(work)
    if traces:
        moved = ", ".join(k for k in MOVES if any(k in names for _, names in traces))
        print(f"blc_trace errors moved by at most {max(w for w, _ in traces):.3g} relative; "
              f"moved: {moved or 'none of ' + ', '.join(MOVES)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
