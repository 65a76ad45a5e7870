"""Command-line frontend.

Subcommands: gen-synth (make synthetic layers) and quantize (full pipeline).
Each is deterministic for a fixed --seed, whatever --threads and the BLAS
thread count are (README). Exit codes: 0 ok, 1 usage, 2 data/format, 3
numerical failure. The paper's experiments (experiments/paper.py ablate) reuse the
parser, the layer loop (each_layer), config_echo, plain_rel_error and the exit-code
mapping defined here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

from . import io as flrq_io
from .blc import Calibration, QuantizedLayer, calibrate, flrq_layer, layer_error
from .config import FlrqConfig
from .errors import FlrqError, FormatError, NumericalError
from .linalg import BLAS_THREADS, as_matrix
from .quantize import BIT_WIDTHS, CLIP_GRID, quantize_matrix
from .sketch import LowRankFactors, layer_seed
from .synth import FAMILIES, SynthSpec, gen_layer

WEIGHTS_FILE = "weights.flrqten"
ACTIVATIONS_FILE = "activations.flrqten"
LAYER_ERRORS = (FlrqError, OSError)  # a layer's own failure, reported under the layer's name


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach ``main`` as usage errors (exit 1).

    Flags must be spelled out, or a retired ``--t`` would be taken as ``--threads``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def log(msg: str) -> None:
    print(f"[flrq] {msg}", file=sys.stderr)


def count(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


def common(sp) -> None:
    """The flags every command takes."""
    sp.add_argument("--seed", type=int, default=0, help="global seed")
    sp.add_argument("--out-dir", type=Path, default=Path("flrq_out"))


def build_parser() -> Parser:
    p = Parser(prog="flrq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="generate synthetic layers")
    g.set_defaults(run=cmd_gen_synth)
    common(g)
    g.add_argument("--family", choices=FAMILIES, default=SynthSpec.family)
    g.add_argument("--m", type=int, default=64)
    g.add_argument("--n", type=int, default=64)
    g.add_argument("--tokens", type=int, default=SynthSpec.tokens)
    g.add_argument("--layers", type=count, default=1)
    g.add_argument("--outlier-count", type=int, default=SynthSpec.outlier_count)
    g.add_argument("--outlier-boost", type=float, default=SynthSpec.outlier_boost)

    q = sub.add_parser("quantize", help="quantize a directory of layers")
    q.set_defaults(run=cmd_quantize)
    common(q)
    q.add_argument("--threads", type=count, default=1,
                   help="worker threads, one layer each")
    q.add_argument("--in", dest="in_dir", type=Path, required=True)
    q.add_argument("--d", type=int, default=FlrqConfig.d, choices=BIT_WIDTHS)
    q.add_argument("--x", type=float, default=FlrqConfig.x)
    q.add_argument("--it", type=int, default=FlrqConfig.it)
    q.add_argument("--epochs", type=int, default=FlrqConfig.epochs)
    return p


# --- layer I/O helpers --------------------------------------------------------


def _read(path: Path, read=lambda path: as_matrix(flrq_io.read_container_file(path).to_array())):
    try:
        return read(path)
    except (ValueError, FormatError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_layer_inputs(directory: Path):
    """W, and X: an ActivationSource when X has more tokens than channels, whose header is
    checked here and whose payload ``calibrate`` reads in chunks; else X's array, its factor L."""
    wpath = directory / WEIGHTS_FILE
    xpath = directory / ACTIVATIONS_FILE
    if not wpath.exists() or not xpath.exists():
        raise FormatError(f"{directory} does not contain {WEIGHTS_FILE} + {ACTIVATIONS_FILE}")
    w, x = _read(wpath), _read(xpath, flrq_io.ActivationSource)
    if w.shape[1] != x.shape[0]:
        raise FormatError(f"{xpath}: activations {x.shape} do not conform to weights {w.shape}")
    return w, x if x.shape[1] > x.shape[0] else _read(xpath)


def discover_layers(in_dir: Path) -> list[Path]:
    """The input layers; each one's directory name is its name in the outputs."""
    if (in_dir / WEIGHTS_FILE).exists():
        return [in_dir.resolve()]  # resolved, so that `--in .` has a name too
    layers = sorted(p for p in in_dir.glob("layer_*") if p.is_dir())
    if not layers:
        raise FormatError(f"no layer_* directories under {in_dir}")
    return layers


# --- subcommands --------------------------------------------------------------


def config_echo(args, **resolved) -> dict:
    """The command's arguments minus paths, threads and its handler, then ``resolved``.

    Keys follow the parser's argument order, which the report bytes depend on.
    JSON has no infinity, so a legal --x inf is echoed as "inf".
    """
    skip = ("out_dir", "threads", "in_dir", "run")
    return {k: flrq_io.inf_to_json(v)
            for k, v in {**vars(args), **resolved}.items() if k not in skip}


def _fields_of(cls, args) -> dict:
    """The arguments whose names are fields of the dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in vars(args).items() if k in names}


def plain_rel_error(w, calib: Calibration, factors: LowRankFactors, cfg: FlrqConfig) -> float:
    """Relative output error of plainly quantizing W - LR and adding LR back."""
    error = layer_error(w, quantize_matrix(w - factors.reconstruct() if factors.rank else w, cfg.d),
                        factors, calib.l)
    if not np.isfinite(error):
        raise NumericalError("the round-to-nearest baseline's error overflows float64")
    return error / calib.wx_norm if calib.wx_norm > 0 else 0.0


def cmd_gen_synth(args) -> int:
    base = SynthSpec(**_fields_of(SynthSpec, args))
    for idx in range(args.layers):
        spec = dataclasses.replace(base, seed=layer_seed(args.seed, idx))
        layer_dir = args.out_dir / f"layer_{idx:03d}"
        layer_dir.mkdir(parents=True, exist_ok=True)
        for name, a in zip((WEIGHTS_FILE, ACTIVATIONS_FILE), gen_layer(spec)):
            container = flrq_io.container_from_array(a)
            flrq_io.write_container_file(layer_dir / name, container)
        (layer_dir / "synth.json").write_text(json.dumps(dataclasses.asdict(spec), indent=2) + "\n")
    log(f"wrote {args.layers} synthetic layer(s) to {args.out_dir}")
    return 0


def each_layer(args, work, workers: int = 1, calibrated: bool = True) -> tuple[list[str], list]:
    """Run ``work(idx, w, calib, cfg)`` on every layer of --in over ``workers`` threads.

    Layer ``idx``'s ``cfg`` is the command's config seeded ``layer_seed(--seed, idx)``, and
    its ``calib`` is ``calibrate(w, x)``, or None when not ``calibrated``.
    Returns the layers' names and results in layer order. A layer's failure is raised
    under its directory name; after one, no layer is started, the running ones finish,
    and the lowest failing layer's error is raised, so the error does not depend on
    ``workers``.
    """
    cfg = FlrqConfig(**_fields_of(FlrqConfig, args))  # checked before any input is read
    layers = discover_layers(args.in_dir)
    workers = min(workers, len(layers))

    def read(path: Path):
        w, x = read_layer_inputs(path)
        return w, calibrate(w, x) if calibrated else None  # the one pass over x; freed on return

    def guarded(*layer):  # numpy's errstate is per thread, so it is set on the worker
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in one NumericalError
            return work(*layer)

    def collect(futures) -> None:
        for f in futures:
            idx = running.pop(f)
            try:
                done[idx] = f.result()
            except LAYER_ERRORS as exc:
                failed[idx] = exc

    # The main thread reads and calibrates every layer, one layer ahead of the workers,
    # and holds one x at a time: inputs allocated on a worker thread share that thread's
    # malloc heap with the clip search's temporaries, and glibc then trims and re-faults
    # it (14x the page faults on 512^2 layers).
    done, failed, running = {}, {}, {}  # index -> result; -> its error; future -> index
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for idx, path in enumerate(layers):
            try:
                w, calib = read(path)
            except LAYER_ERRORS as exc:
                failed[idx] = exc
            if len(running) == workers and not failed:
                collect(wait(running, return_when=FIRST_COMPLETED).done)
            if failed:
                break
            cfg_i = dataclasses.replace(cfg, seed=layer_seed(args.seed, idx))
            running[pool.submit(guarded, idx, w, calib, cfg_i)] = idx
        collect(wait(running).done)
    if failed:
        idx = min(failed)
        raise type(failed[idx])(f"{layers[idx].name}: {failed[idx]}") from None
    return [p.name for p in layers], [done[idx] for idx in range(len(layers))]


def quantize_layer(idx: int, w, calib: Calibration, cfg: FlrqConfig):
    """The layer quantized, and the rel_error of plain RTN on the same calibration."""
    return flrq_layer(w, calib, cfg), plain_rel_error(w, calib, LowRankFactors.empty(*w.shape), cfg)


def cmd_quantize(args) -> int:
    t0 = time.perf_counter()
    names, results = each_layer(args, quantize_layer, args.threads)
    elapsed = time.perf_counter() - t0
    quantized, rtn_rel_errors = zip(*results)
    echo = config_echo(args, clip_grid=CLIP_GRID, layers=names)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, layer in zip(names, quantized):
        flrq_io.write_bundle(args.out_dir / name, layer, echo)
    (args.out_dir / "report.json").write_text(flrq_io.emit_report(quantized, echo, rtn_rel_errors))
    blas = f"{BLAS_THREADS} BLAS thread(s)" if BLAS_THREADS else "BLAS unpinned"
    log(f"quantized {len(names)} layer(s) in {elapsed:.2f}s "
        f"({min(args.threads, len(names))} worker(s) x {blas}) -> {args.out_dir}")
    return 0


def main(argv=None, parser=None) -> int:
    """Run the command ``argv`` names; its subparser sets ``run`` to the handler.

    Maps failures to exit codes: 1 usage, 2 data/format or I/O, 3 numerical.
    """
    try:
        args = (parser or build_parser()).parse_args(argv)
        return args.run(args)
    except (UsageError, ValueError) as exc:  # ValueError: a flag value the config rejects
        log(f"usage error: {exc}")
        return 1
    except NumericalError as exc:
        log(f"numerical failure: {exc}")
        return 3
    except FlrqError as exc:
        log(f"error: {exc}")
        return 2
    except OSError as exc:
        log(f"i/o error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
