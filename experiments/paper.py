"""The paper's experiments, run over the flrq library.

One command, ablate, writes the table --which names: rank (rank vs amax/error
curves), it, blc, x, fixed-vs-flex, or svd (exact truncation vs sketch deflation).
It runs quantize's layer loop (cli.each_layer) over an --in tree with one worker
and writes one row set per layer. Run from the repository root with PYTHONPATH=src
(or flrq installed): python experiments/paper.py ablate --which NAME ... Outputs are
deterministic for a fixed --seed. Exit codes are flrq's: 0 ok, 1 usage,
2 data/format, 3 numerical failure.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
import time
from itertools import islice
from pathlib import Path

import numpy as np

from flrq import cli
from flrq.blc import flrq_layer
from flrq.errors import NumericalError
from flrq.io import extra_bits
from flrq.linalg import amax, fro_norm
from flrq.quantize import BIT_WIDTHS
from flrq.rankselect import D_FP, components, deflate, select_rank
from flrq.sketch import LowRankFactors, layer_seed

ABLATIONS = ("rank", "it", "blc", "x", "fixed-vs-flex", "svd")

SVD_DIM_LIMIT = 1024  # the exact SVD is a desk-scale check
SVD_RANK, SVD_SKETCH_RUNS = 16, 10  # svd: rank min(16, m, n), sketch residual over 10 seeds
SWEEP_RANK = 32  # rank: one row per rank 0 ... min(32, m, n)


def build_parser() -> cli.Parser:
    p = cli.Parser(prog="paper.py", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    a = sub.add_parser("ablate", help="run one of the experiments, per layer")
    a.set_defaults(run=cmd_ablate)
    cli.common(a)
    a.add_argument("--which", choices=ABLATIONS, required=True)
    a.add_argument("--in", dest="in_dir", type=Path, required=True)
    a.add_argument("--d", type=int, default=3, choices=BIT_WIDTHS)
    return p


def cmd_ablate(args) -> int:
    """Collect the rows of --which over the layers of --in through quantize's layer loop,
    with one worker; write them as ablate_<which>.csv and .json."""
    names, per_layer = cli.each_layer(args, lambda *layer: ablation_rows(args, *layer),
                                      calibrated=args.which != "svd")  # svd reads only W
    rows = [row for rows in per_layer for row in rows]

    stem = f"ablate_{args.which.replace('-', '_')}"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.out_dir / f"{stem}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        writer.writerows(row.values() for row in rows)
    echo = cli.config_echo(args, layers=names)
    record = args.out_dir / f"{stem}.json"
    record.write_text(json.dumps({"config": echo, "rows": rows}, indent=2) + "\n")
    cli.log(f"ablate: {len(rows)} rows -> {record}")
    return 0


def ablation_rows(args, idx: int, w, calib, base) -> list[dict]:
    """Layer ``idx``'s rows of the ablation --which; ``calib`` (None for svd) and ``base``
    are the layer's."""
    m, n = w.shape
    if args.which == "rank":  # the amax envelope and plain rel_error after each of the first ranks
        max_rank = min(SWEEP_RANK, m, n)
        error = cli.plain_rel_error(w, calib, LowRankFactors.empty(m, n), base)
        rows = [{"layer": idx, "r": 0, "amax": amax(w), "rel_error": error}]
        pairs = []
        for pair, _, envelope in islice(components(w, base), max_rank):
            pairs.append(pair)
            prefix = LowRankFactors.from_pairs(pairs, m, n)
            rows.append({"layer": idx, "r": len(pairs), "amax": envelope,
                         "rel_error": cli.plain_rel_error(w, calib, prefix, base)})
        if len(pairs) < max_rank:
            cli.log(f"layer {idx}: residual exhausted at rank {len(pairs)}; stopping sweep early")
        return rows
    if args.which == "it":
        # sketch_residual (fixed-rank extraction quality) is the monotone
        # column; the end-to-end rel_error also trends down but can wobble
        # per layer through the clip search.
        rows = []
        for it in (0, 1, 2, 4):
            cfg = dataclasses.replace(base, it=it)
            probe = deflate(w, min(8, m, n), cfg)
            residual = fro_norm(w - probe.reconstruct())
            rows.append({"layer": idx, "it": it, "sketch_residual": residual,
                         "rel_error": flrq_layer(w, calib, cfg).rel_error})
        return rows
    if args.which == "blc":
        layer = flrq_layer(w, calib, dataclasses.replace(base, epochs=20))  # epoch 1: BLC off
        on, off = layer.rel_error, dataclasses.replace(layer, best_epoch=1).rel_error
        return [{"layer": idx, "blc_on_rel_error": on, "blc_off_rel_error": off,
                 "improved": on <= off}]
    if args.which == "x":
        rows = []
        for x_cap in (0.1, 0.2, 0.4):
            layer = flrq_layer(w, calib, dataclasses.replace(base, x=x_cap))
            rank = layer.factors.rank
            rows.append({"layer": idx, "x": x_cap, "rank": rank,
                         "extra_bits": extra_bits(D_FP, rank, m, n), "rel_error": layer.rel_error})
        return rows
    if args.which == "svd":
        return [svd_row(idx, w, base)]
    flex, _ = select_rank(w, base)  # fixed-vs-flex
    fixed = deflate(w, min(32, m, n), base)
    row = {"layer": idx}
    for name, factors in (("flex", flex), ("fixed", fixed)):
        row.update({f"{name}_rank": factors.rank,
                    f"{name}_extra_bits": extra_bits(D_FP, factors.rank, m, n),
                    f"{name}_rel_error": cli.plain_rel_error(w, calib, factors, base)})
    return [row]


def check_svd_size(shape) -> None:
    """Refuse the exact SVD when min(m, n) exceeds SVD_DIM_LIMIT."""
    if min(shape) > SVD_DIM_LIMIT:
        raise NumericalError(f"exact SVD guard: min(m, n) = {min(shape)} exceeds "
                             f"{SVD_DIM_LIMIT}; use the sketch path for matrices this large")


def svd_row(idx: int, w, cfg) -> dict:
    """The rank-r residual of exact SVD truncation against the mean of sketch deflation's."""
    check_svd_size(w.shape)
    rank = min(SVD_RANK, *w.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
        t0 = time.perf_counter()
        svd_residual = fro_norm(np.linalg.svd(w, full_matrices=False)[1][rank:])
        svd_time = time.perf_counter() - t0

        sketch_residuals = []
        t0 = time.perf_counter()
        for rep in range(SVD_SKETCH_RUNS):
            factors = deflate(w, rank, dataclasses.replace(cfg, seed=layer_seed(cfg.seed, rep)))
            sketch_residuals.append(fro_norm(w - factors.reconstruct()))
        sketch_time = (time.perf_counter() - t0) / SVD_SKETCH_RUNS
        mean_sketch = float(np.mean(sketch_residuals))
    if not np.isfinite([svd_residual, mean_sketch]).all():
        raise NumericalError(f"the rank-{rank} residual ||W - W_r||_F overflows float64")
    cli.log(f"layer {idx}, rank {rank}: svd residual {svd_residual:.4f} ({svd_time:.3f}s), "
            f"sketch mean {mean_sketch:.4f} ({sketch_time:.3f}s/run)")
    return {"layer": idx, "rank": rank, "svd_residual": svd_residual,
            "sketch_residual_mean": mean_sketch,
            "ratio": mean_sketch / svd_residual if svd_residual > 0 else None}


def main(argv=None) -> int:
    return cli.main(argv, build_parser())


if __name__ == "__main__":
    sys.exit(main())
