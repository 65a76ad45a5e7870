"""The paper's experiments, run over the flrq library.

Subcommands: rank-sweep (rank vs amax/error curves for one layer), ablate
(trend tables: it, blc, x, fixed-vs-flex, over every layer of an --in tree,
seeded as quantize seeds it), compare-svd (exact truncation vs sketch
deflation at one rank). Run from the repository root with PYTHONPATH=src (or
flrq installed): python experiments/paper.py COMMAND ... Outputs are
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

from flrq import LowRankFactors, NumericalError, amax, calibrate, cli, components, deflate
from flrq import flrq_layer, fro_norm, layer_seed, select_rank
from flrq.io import extra_bits
from flrq.quantize import BIT_WIDTHS
from flrq.rankselect import D_FP

ABLATIONS = ("it", "blc", "x", "fixed-vs-flex")

SVD_DIM_LIMIT = 1024  # the exact SVD is a desk-scale check


def build_parser() -> cli.Parser:
    p = cli.Parser(prog="paper.py", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("rank-sweep", help="rank vs amax/error curves for one layer")
    r.set_defaults(run=cmd_rank_sweep)
    cli.common(r)
    r.add_argument("--in", dest="in_dir", type=Path, required=True)
    r.add_argument("--max-rank", type=int, default=32)
    r.add_argument("--it", type=int, default=2)
    r.add_argument("--d", type=int, default=4, choices=BIT_WIDTHS)

    a = sub.add_parser("ablate", help="run one of the trend ablations")
    a.set_defaults(run=cmd_ablate)
    cli.common(a)
    a.add_argument("--which", choices=ABLATIONS, required=True)
    a.add_argument("--in", dest="in_dir", type=Path, required=True)
    a.add_argument("--d", type=int, default=3, choices=BIT_WIDTHS)

    c = sub.add_parser("compare-svd", help="exact truncation vs sketch deflation on one layer")
    c.set_defaults(run=cmd_compare_svd)
    cli.common(c)
    c.add_argument("--in", dest="in_dir", type=Path, required=True)
    c.add_argument("--rank", type=cli.count, default=16)
    c.add_argument("--it", type=int, default=2)
    c.add_argument("--seeds", type=cli.count, default=10)
    return p


def write_outputs(args, csv_name: str, header, rows, json_name: str, record: dict) -> None:
    """Write ``rows`` under ``header`` as CSV and ``record`` as JSON into --out-dir."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.out_dir / csv_name, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    (args.out_dir / json_name).write_text(json.dumps(record, indent=2) + "\n")


def read_one_layer(in_dir: Path):
    """(name, W, X) of the one layer under ``in_dir``; a tree of several is a usage error."""
    layers = cli.discover_layers(in_dir)
    if len(layers) > 1:
        raise cli.UsageError(f"--in {in_dir} holds {len(layers)} layers; "
                             f"pass one layer directory, such as --in {layers[0]}")
    return layers[0].name, *cli.read_layer_inputs(layers[0])


def cmd_rank_sweep(args) -> int:
    if args.max_rank < 0:  # 0 is legal: the baseline row alone
        raise cli.UsageError(f"--max-rank must be >= 0, got {args.max_rank}")
    cfg = cli.flrq_config(args)
    name, w, x = read_one_layer(args.in_dir)
    max_rank = args.max_rank
    limit = min(w.shape)
    if max_rank > limit:
        cli.log(f"warning: clamping --max-rank {max_rank} to min(m, n) = {limit}")
        max_rank = limit
    calib = calibrate(w, x)

    envelope = amax(w)
    rows = [(0, envelope, cli.plain_rel_error(w, calib, LowRankFactors.empty(*w.shape), cfg))]
    pairs = []
    for pair, residual in islice(components(w, cfg), max_rank):
        pairs.append(pair)
        envelope = min(envelope, amax(residual))
        prefix = LowRankFactors.from_pairs(pairs, *w.shape)
        rows.append((len(pairs), envelope, cli.plain_rel_error(w, calib, prefix, cfg)))
    if len(pairs) < max_rank:
        cli.log(f"residual exhausted at rank {len(pairs)}; stopping sweep early")

    echo = cli.config_echo(args, max_rank=max_rank, layer=name)
    write_outputs(args, "rank_sweep.csv", ["r", "amax", "rel_error"], rows,
                  "report.json", {"config": echo, "rows": len(rows)})
    cli.log(f"wrote {len(rows)} sweep rows to {args.out_dir / 'rank_sweep.csv'}")
    return 0


def ablation_rows(which: str, idx: int, w, calib, base) -> list[dict]:
    """One layer's rows of the ablation ``which``; ``calib`` and ``base`` are the layer's."""
    m, n = w.shape
    if which == "it":
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
    if which == "blc":
        layer = flrq_layer(w, calib, dataclasses.replace(base, epochs=20))  # epoch 1: BLC off
        on, off = layer.rel_error, dataclasses.replace(layer, best_epoch=1).rel_error
        return [{"layer": idx, "blc_on_rel_error": on, "blc_off_rel_error": off,
                 "improved": on <= off}]
    if which == "x":
        rows = []
        for x_cap in (0.1, 0.2, 0.4):
            layer = flrq_layer(w, calib, dataclasses.replace(base, x=x_cap))
            rank = layer.factors.rank
            rows.append({"layer": idx, "x": x_cap, "rank": rank,
                         "extra_bits": extra_bits(D_FP, rank, m, n), "rel_error": layer.rel_error})
        return rows
    flex, _ = select_rank(w, base)  # fixed-vs-flex
    fixed = deflate(w, min(32, m, n), base)
    return [{
        "layer": idx,
        "flex_rank": flex.rank,
        "flex_extra_bits": extra_bits(D_FP, flex.rank, m, n),
        "flex_rel_error": cli.plain_rel_error(w, calib, flex, base),
        "fixed_rank": fixed.rank,
        "fixed_extra_bits": extra_bits(D_FP, fixed.rank, m, n),
        "fixed_rel_error": cli.plain_rel_error(w, calib, fixed, base),
    }]


def cmd_ablate(args) -> int:
    cfg = cli.flrq_config(args)
    layers = cli.discover_layers(args.in_dir)
    rows = []
    for idx, path in enumerate(layers):  # seeded as quantize seeds the same tree
        w, x = cli.read_layer_inputs(path)
        base = dataclasses.replace(cfg, seed=layer_seed(args.seed, idx))
        rows += ablation_rows(args.which, idx, w, calibrate(w, x), base)

    stem = f"ablate_{args.which.replace('-', '_')}"
    echo = cli.config_echo(args, layers=[p.name for p in layers])
    write_outputs(args, f"{stem}.csv", rows[0].keys(), [row.values() for row in rows],
                  f"{stem}.json", {"config": echo, "rows": rows})
    cli.log(f"ablation {args.which}: {len(rows)} rows -> {args.out_dir / f'{stem}.json'}")
    return 0


def check_svd_size(shape) -> None:
    """Refuse the exact SVD when min(m, n) exceeds SVD_DIM_LIMIT."""
    if min(shape) > SVD_DIM_LIMIT:
        raise NumericalError(
            f"exact SVD guard: min(m, n) = {min(shape)} exceeds {SVD_DIM_LIMIT}; "
            "use the sketch path for matrices this large"
        )


def cmd_compare_svd(args) -> int:
    cfg = cli.flrq_config(args)
    name, w, _ = read_one_layer(args.in_dir)
    check_svd_size(w.shape)
    rank = min(args.rank, min(w.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
        t0 = time.perf_counter()
        svd_residual = fro_norm(np.linalg.svd(w, full_matrices=False)[1][rank:])
        svd_time = time.perf_counter() - t0

        sketch_residuals = []
        t0 = time.perf_counter()
        for rep in range(args.seeds):
            factors = deflate(w, rank, dataclasses.replace(cfg, seed=layer_seed(args.seed, rep)))
            sketch_residuals.append(fro_norm(w - factors.reconstruct()))
        sketch_time = (time.perf_counter() - t0) / args.seeds
        mean_sketch = float(np.mean(sketch_residuals))
    if not np.isfinite([svd_residual, mean_sketch]).all():
        raise NumericalError(f"the rank-{rank} residual ||W - W_r||_F overflows float64")

    rows = [["svd_truncation", rank, svd_residual], ["sketch_deflate", rank, mean_sketch]]
    report = {
        "config": cli.config_echo(args, rank=rank, layer=name),
        "svd_residual": svd_residual,
        "sketch_residual_mean": mean_sketch,
        "ratio": mean_sketch / svd_residual if svd_residual > 0 else None,
    }
    write_outputs(args, "compare_svd.csv", ["method", "rank", "residual_fro"], rows,
                  "report.json", report)
    cli.log(
        f"rank {rank}: svd residual {svd_residual:.4f} ({svd_time:.3f}s), "
        f"sketch mean {mean_sketch:.4f} ({sketch_time:.3f}s/run)"
    )
    return 0


def main(argv=None) -> int:
    return cli.main(argv, build_parser())


if __name__ == "__main__":
    sys.exit(main())
