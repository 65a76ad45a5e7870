"""Command-line frontend.

Subcommands: gen-synth (make synthetic layers), quantize (full pipeline),
rank-sweep (rank vs amax/error curves), ablate (trend tables), compare-svd
(sketch vs exact truncation). Every command is deterministic for a fixed
--seed; quantize's --threads only changes wall time. Exit codes: 0 ok,
1 usage, 2 data/format, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import io as flrq_io
from .blc import QuantizedLayer, flrq_layer, layer_error
from .config import FlrqConfig
from .errors import FlrqError, FormatError, NumericalError
from .linalg import amax, as_matrix, fro_norm, svd_oracle
from .quantize import DEFAULT_CLIP_GRID, quantize_matrix
from .rankselect import select_rank
from .sketch import LowRankFactors, deflate, layer_seed
from .synth import FAMILIES, SynthSpec, gen_layer

ABLATIONS = ("it", "blc", "x", "fixed-vs-flex")

WEIGHTS_FILE = "weights.flrqten"
ACTIVATIONS_FILE = "activations.flrqten"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _log(msg: str) -> None:
    print(f"[flrq] {msg}", file=sys.stderr)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise UsageError(f"bad clip grid {text!r}: {exc}") from None


def build_parser() -> _Parser:
    p = _Parser(prog="flrq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0, help="global seed")
        sp.add_argument("--out-dir", type=Path, default=Path("flrq_out"))

    g = sub.add_parser("gen-synth", help="generate synthetic layers")
    common(g)
    g.add_argument("--family", choices=FAMILIES, default="gaussian")
    g.add_argument("--m", type=int, default=64)
    g.add_argument("--n", type=int, default=64)
    g.add_argument("--tokens", type=int, default=64)
    g.add_argument("--layers", type=int, default=1)
    g.add_argument("--nu", type=float, default=3.0)
    g.add_argument("--outlier-count", type=int, default=4)
    g.add_argument("--outlier-boost", type=float, default=10.0)
    g.add_argument("--f32", action="store_true", help="store weights/activations as f32")

    q = sub.add_parser("quantize", help="quantize a directory of layers")
    common(q)
    q.add_argument("--threads", type=int, default=1,
                   help="worker threads, one layer each (never changes output bytes)")
    q.add_argument("--in", dest="in_dir", type=Path, required=True)
    q.add_argument("--d", type=int, default=4, choices=(2, 3, 4))
    q.add_argument("--d-fp", type=int, default=16, choices=(16, 32))
    q.add_argument("--group-size", type=int, default=128)
    q.add_argument("--x", type=float, default=0.2)
    q.add_argument("--t", type=float, default=1e-3)
    q.add_argument("--slope-window", type=int, default=4)
    q.add_argument("--it", type=int, default=2)
    q.add_argument("--epochs", type=int, default=None)
    q.add_argument("--alpha-exponent", type=float, default=2.5)
    q.add_argument("--clip-grid", type=_parse_grid, default=DEFAULT_CLIP_GRID)
    q.add_argument("--mode", choices=("symmetric", "asymmetric"), default="asymmetric")

    r = sub.add_parser("rank-sweep", help="rank vs amax/error curves for one layer")
    common(r)
    r.add_argument("--in", dest="in_dir", type=Path, required=True)
    r.add_argument("--max-rank", type=int, default=32)
    r.add_argument("--it", type=int, default=2)
    r.add_argument("--d", type=int, default=4, choices=(2, 3, 4))
    r.add_argument("--group-size", type=int, default=128)
    r.add_argument("--mode", choices=("symmetric", "asymmetric"), default="asymmetric")

    a = sub.add_parser("ablate", help="run one of the trend ablations")
    common(a)
    a.add_argument("--which", type=str, required=True)
    a.add_argument("--layers", type=int, default=4)
    a.add_argument("--m", type=int, default=128)
    a.add_argument("--n", type=int, default=128)
    a.add_argument("--tokens", type=int, default=64)
    a.add_argument("--d", type=int, default=3, choices=(2, 3, 4))
    a.add_argument("--family", choices=FAMILIES, default="outlier_channels")
    a.add_argument("--outlier-count", type=int, default=4)
    a.add_argument("--outlier-boost", type=float, default=10.0)

    c = sub.add_parser("compare-svd", help="exact truncation vs sketch deflation on one layer")
    common(c)
    c.add_argument("--in", dest="in_dir", type=Path, required=True)
    c.add_argument("--rank", type=int, default=16)
    c.add_argument("--it", type=int, default=2)
    c.add_argument("--seeds", type=int, default=10)
    return p


# --- layer I/O helpers --------------------------------------------------------


def _write_layer_inputs(directory: Path, w, x, f32: bool = False) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    flrq_io.write_container_file(directory / WEIGHTS_FILE, flrq_io.container_from_array(w, f32=f32))
    flrq_io.write_container_file(
        directory / ACTIVATIONS_FILE, flrq_io.container_from_array(x, f32=f32)
    )


def _read_matrix(path: Path) -> np.ndarray:
    try:
        return as_matrix(flrq_io.read_container_file(path).to_array())
    except (ValueError, FormatError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _read_layer_inputs(directory: Path):
    wpath = directory / WEIGHTS_FILE
    xpath = directory / ACTIVATIONS_FILE
    if not wpath.exists() or not xpath.exists():
        raise FormatError(f"{directory} does not contain {WEIGHTS_FILE} + {ACTIVATIONS_FILE}")
    w = _read_matrix(wpath)
    x = _read_matrix(xpath)
    if w.shape[1] != x.shape[0]:
        raise FormatError(f"{xpath}: activations {x.shape} do not conform to weights {w.shape}")
    return w, x


def _discover_layers(in_dir: Path) -> list[Path]:
    if (in_dir / WEIGHTS_FILE).exists():
        return [in_dir]
    layers = sorted(p for p in in_dir.glob("layer_*") if p.is_dir())
    if not layers:
        raise FormatError(f"no layer_* directories under {in_dir}")
    return layers


# --- subcommands --------------------------------------------------------------


def _config_echo(args, **resolved) -> dict:
    """The command's arguments minus paths and threads, then ``resolved``.

    Keys follow the parser's argument order, which the report bytes depend on.
    """
    echo = {k: v for k, v in vars(args).items() if k not in ("out_dir", "threads", "in_dir")}
    echo.update(resolved)
    return echo


def _fields_of(cls, args) -> dict:
    """The arguments whose names are fields of the dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names}


def _flrq_config(args) -> FlrqConfig:
    """The command's FlrqConfig, checked before any input is read."""
    return FlrqConfig(**_fields_of(FlrqConfig, args))


def _synth_specs(args) -> list[SynthSpec]:
    """One SynthSpec per layer from the arguments that name SynthSpec fields."""
    base = SynthSpec(**_fields_of(SynthSpec, args))
    return [dataclasses.replace(base, seed=layer_seed(args.seed, i)) for i in range(args.layers)]


def _plain_rel_error(w, x, factors: LowRankFactors, cfg: FlrqConfig, wx_norm) -> float:
    """Relative output error of plainly quantizing W - LR and adding LR back."""
    q = quantize_matrix(w - factors.reconstruct(), cfg.d, cfg.group_size, cfg.mode)
    err = layer_error(w, q, factors, x)
    return err / wx_norm if wx_norm > 0 else 0.0


def cmd_gen_synth(args) -> int:
    specs = _synth_specs(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for idx, spec in enumerate(specs):
        w, x = gen_layer(spec)
        layer_dir = args.out_dir / f"layer_{idx:03d}"
        _write_layer_inputs(layer_dir, w, x, f32=args.f32)
        (layer_dir / "synth.json").write_text(json.dumps(dataclasses.asdict(spec), indent=2) + "\n")
    _log(f"wrote {args.layers} synthetic layer(s) to {args.out_dir}")
    return 0


def cmd_quantize(args) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    cfg = _flrq_config(args)
    layers = _discover_layers(args.in_dir)
    config_echo = _config_echo(args, layers=[p.name for p in layers])

    def run_one(idx: int, w, x) -> tuple[QuantizedLayer, dict]:
        layer = flrq_layer(w, x, dataclasses.replace(cfg, seed=layer_seed(args.seed, idx)))
        rtn = _plain_rel_error(w, x, LowRankFactors.empty(*w.shape), cfg, layer.wx_norm)
        return layer, {"rtn_rel_error": rtn}

    # A layer is read when a worker is free for it, so at most `threads` layers'
    # inputs are held. The main thread reads them: inputs allocated on a worker
    # thread share that thread's malloc heap with the clip search's temporaries,
    # and glibc then trims and re-faults it (14x the page faults on 512^2 layers).
    t0 = time.perf_counter()
    results, running = [], deque()
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        for idx, path in enumerate(layers):
            if len(running) == args.threads:
                results.append(running.popleft().result())
            running.append(pool.submit(run_one, idx, *_read_layer_inputs(path)))
        results += [f.result() for f in running]
    elapsed = time.perf_counter() - t0

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for idx, (layer, _) in enumerate(results):
        flrq_io.write_bundle(args.out_dir / f"layer_{idx:03d}", layer, config_echo)
    report = flrq_io.emit_report(
        [layer for layer, _ in results], config_echo, extras=[extra for _, extra in results]
    )
    (args.out_dir / "report.json").write_text(report)
    _log(f"quantized {len(layers)} layer(s) in {elapsed:.2f}s -> {args.out_dir}")
    return 0


def cmd_rank_sweep(args) -> int:
    cfg = _flrq_config(args)
    layer_dir = _discover_layers(args.in_dir)[0]
    w, x = _read_layer_inputs(layer_dir)
    max_rank = args.max_rank
    limit = min(w.shape)
    if max_rank > limit:
        _log(f"warning: clamping --max-rank {max_rank} to min(m, n) = {limit}")
        max_rank = limit
    wx_norm = fro_norm(w @ x)

    envelope = amax(w)
    rows = [(0, envelope, _plain_rel_error(w, x, LowRankFactors.empty(*w.shape), cfg, wx_norm))]
    if max_rank >= 1:
        factors = deflate(w, max_rank, cfg)
        residual = w
        for r in range(1, factors.rank + 1):
            residual = residual - np.outer(factors.left[:, r - 1], factors.right[r - 1])
            envelope = min(envelope, amax(residual))
            prefix = LowRankFactors(left=factors.left[:, :r], right=factors.right[:r])
            rows.append((r, envelope, _plain_rel_error(w, x, prefix, cfg, wx_norm)))
        if factors.truncated:
            _log(f"residual exhausted at rank {factors.rank}; stopping sweep early")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "rank_sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "amax", "rel_error"])
        writer.writerows(rows)
    config_echo = _config_echo(args, max_rank=max_rank, layer=layer_dir.name)
    (args.out_dir / "report.json").write_text(
        json.dumps({"config": config_echo, "rows": len(rows)}, indent=2) + "\n"
    )
    _log(f"wrote {len(rows)} sweep rows to {csv_path}")
    return 0


def cmd_ablate(args) -> int:
    if args.which not in ABLATIONS:
        raise UsageError(f"unknown ablation {args.which!r}; valid names: {', '.join(ABLATIONS)}")
    cfg = _flrq_config(args)
    workload = [gen_layer(spec) for spec in _synth_specs(args)]
    args.out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []

    for idx, (w, x) in enumerate(workload):
        base = dataclasses.replace(cfg, seed=layer_seed(args.seed, idx))
        if args.which == "it":
            # sketch_residual (fixed-rank extraction quality) is the monotone
            # column; the end-to-end rel_error also trends down but can wobble
            # per layer through the clip search.
            for it in (0, 1, 2, 4):
                it_cfg = dataclasses.replace(base, it=it)
                layer = flrq_layer(w, x, it_cfg)
                probe = deflate(w, min(8, min(w.shape)), it_cfg)
                rows.append(
                    {
                        "layer": idx,
                        "it": it,
                        "sketch_residual": fro_norm(w - probe.reconstruct()),
                        "rel_error": layer.rel_error,
                    }
                )
        elif args.which == "blc":
            on = flrq_layer(w, x, dataclasses.replace(base, epochs=20))
            off = flrq_layer(w, x, dataclasses.replace(base, epochs=1))
            rows.append(
                {
                    "layer": idx,
                    "blc_on_rel_error": on.rel_error,
                    "blc_off_rel_error": off.rel_error,
                    "improved": on.rel_error <= off.rel_error,
                }
            )
        elif args.which == "x":
            for x_cap in (0.1, 0.2, 0.4):
                layer = flrq_layer(w, x, dataclasses.replace(base, x=x_cap))
                m, n = layer.q.shape
                rows.append(
                    {
                        "layer": idx,
                        "x": x_cap,
                        "rank": layer.factors.rank,
                        "extra_bits": flrq_io.extra_bits(16, layer.factors.rank, m, n),
                        "rel_error": layer.rel_error,
                    }
                )
        else:  # fixed-vs-flex
            m, n = w.shape
            wxn = fro_norm(w @ x)
            flex, _ = select_rank(w, base)
            fixed = deflate(w, min(32, min(m, n)), base)
            rows.append(
                {
                    "layer": idx,
                    "flex_rank": flex.rank,
                    "flex_extra_bits": flrq_io.extra_bits(16, flex.rank, m, n),
                    "flex_rel_error": _plain_rel_error(w, x, flex, base, wxn),
                    "fixed_rank": fixed.rank,
                    "fixed_extra_bits": flrq_io.extra_bits(16, fixed.rank, m, n),
                    "fixed_rel_error": _plain_rel_error(w, x, fixed, base, wxn),
                }
            )

    out = {"config": _config_echo(args), "rows": rows}
    path = args.out_dir / f"ablate_{args.which.replace('-', '_')}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    csv_path = args.out_dir / f"ablate_{args.which.replace('-', '_')}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if rows:
            writer.writerow(list(rows[0].keys()))
            for row in rows:
                writer.writerow(list(row.values()))
    _log(f"ablation {args.which}: {len(rows)} rows -> {path}")
    return 0


def cmd_compare_svd(args) -> int:
    cfg = _flrq_config(args)
    layer_dir = _discover_layers(args.in_dir)[0]
    w, _ = _read_layer_inputs(layer_dir)
    rank = min(args.rank, min(w.shape))
    t0 = time.perf_counter()
    oracle = svd_oracle(w)
    svd_time = time.perf_counter() - t0
    svd_residual = oracle.truncation_error(rank)

    sketch_residuals = []
    t0 = time.perf_counter()
    for rep in range(args.seeds):
        factors = deflate(w, rank, dataclasses.replace(cfg, seed=layer_seed(args.seed, rep)))
        sketch_residuals.append(fro_norm(w - factors.reconstruct()))
    sketch_time = (time.perf_counter() - t0) / max(args.seeds, 1)
    mean_sketch = float(np.mean(sketch_residuals))

    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = args.out_dir / "compare_svd.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "rank", "residual_fro"])
        writer.writerow(["svd_truncation", rank, svd_residual])
        writer.writerow(["sketch_deflate", rank, mean_sketch])
    (args.out_dir / "report.json").write_text(
        json.dumps(
            {
                "config": _config_echo(args, rank=rank, layer=layer_dir.name),
                "svd_residual": svd_residual,
                "sketch_residual_mean": mean_sketch,
                "ratio": mean_sketch / svd_residual if svd_residual > 0 else None,
            },
            indent=2,
        )
        + "\n"
    )
    _log(
        f"rank {rank}: svd residual {svd_residual:.4f} ({svd_time:.3f}s), "
        f"sketch mean {mean_sketch:.4f} ({sketch_time:.3f}s/run)"
    )
    return 0


_COMMANDS = {
    "gen-synth": cmd_gen_synth,
    "quantize": cmd_quantize,
    "rank-sweep": cmd_rank_sweep,
    "ablate": cmd_ablate,
    "compare-svd": cmd_compare_svd,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:  # ValueError: a flag value the config rejects
        _log(f"usage error: {exc}")
        return 1
    except NumericalError as exc:
        _log(f"numerical failure: {exc}")
        return 3
    except (FormatError, FlrqError) as exc:
        _log(f"error: {exc}")
        return 2
    except OSError as exc:
        _log(f"i/o error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
