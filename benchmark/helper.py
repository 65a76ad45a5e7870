"""Benchmark steps that need numpy or flrq, each run in a process of its own.

A child's ``ru_maxrss`` includes the high-water memory of the process that
spawned it (the child runs in, or as a copy of, its parent until exec), so
run.py never imports numpy or flrq: a large harness would inflate every
``peak_rss_mb`` it measures.

    python3 helper.py generate WORKLOAD SEED IN_DIR
    python3 helper.py verify OUT_DIR IN_DIR
    python3 helper.py provenance
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import WORKLOADS, generate


def verify(out_dir: Path, in_dir: Path) -> None:
    """Read every bundle back, recompute its error bit for bit, and hold it to RTN's."""
    from flrq import io as flrq_io
    from flrq.blc import layer_error
    from flrq.cli import ACTIVATIONS_FILE, WEIGHTS_FILE

    report = json.loads((out_dir / "report.json").read_text())
    names = report["config"]["layers"]
    if len(names) != len(report["layers"]):
        sys.exit("report.json: config and rows disagree on the layer count")
    for name, row in zip(names, report["layers"]):
        if not row["rel_error"] <= row["rtn_rel_error"]:
            sys.exit(f"{name}: rel_error {row['rel_error']!r} worse than RTN's {row['rtn_rel_error']!r}")
        layer, meta = flrq_io.read_bundle(out_dir / name)
        w = flrq_io.read_container_file(in_dir / name / WEIGHTS_FILE).to_array()
        x = flrq_io.read_container_file(in_dir / name / ACTIVATIONS_FILE).to_array()
        err = layer_error(w, layer.q, layer.factors, x)
        if err != meta["best_error"]:
            sys.exit(f"{name}: recomputed error {err!r} != meta.json best_error {meta['best_error']!r}")


def provenance() -> dict:
    import numpy as np

    import flrq

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "flrq_file": str(Path(flrq.__file__).resolve()),
    }


def main(argv: list[str]) -> None:
    cmd, args = argv[0], argv[1:]
    if cmd == "generate":
        generate(WORKLOADS[args[0]], int(args[1]), Path(args[2]))
    elif cmd == "verify":
        verify(Path(args[0]), Path(args[1]))
    elif cmd == "provenance":
        print(json.dumps(provenance()))
    else:
        sys.exit(f"unknown helper command {cmd!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
