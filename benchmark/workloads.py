"""The benchmark's workloads and their seeded input generator.

Each workload is a directory of ``layer_NNN/{weights,activations}.flrqten``
inputs written by ``flrq gen-synth`` from the workload seed, plus the fixed
``flrq quantize`` flags it runs with. Generation happens before any timing
starts, in helper.py's process; the program under test only ever sees the
written containers. flrq is imported inside ``generate``, so run.py can
import this module and stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path


def program_seed(seed: int) -> int:
    """The ``--seed`` given to gen-synth and quantize for benchmark seed ``seed``.

    flrq derives layer i's seed as ``seed ^ i``, so consecutive benchmark
    seeds would share layers; shifting past the layer index keeps every
    benchmark seed's layers distinct.
    """
    return seed << 8


@dataclass(frozen=True)
class Workload:
    name: str
    layers: int
    m: int
    n: int
    tokens: int
    d: int
    threads: int  # never above the 2 cores the benchmark is sized for

    def quantize_args(self, in_dir: Path, out_dir: Path, seed: int) -> list[str]:
        return [
            "quantize", "--in", str(in_dir), "--out-dir", str(out_dir),
            "--d", str(self.d), "--threads", str(self.threads), "--seed", str(program_seed(seed)),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Many small calls: 20 alternation epochs of clip search and group
        # quantization; the only workload with layer parallelism.
        Workload(name="alt2bit", layers=4, m=512, n=512, tokens=256, d=2, threads=2),
        # Few large calls: tokens >> n, so GEMMs through X in clip search and
        # error evaluation dominate, plus 32 MB of activations read per layer.
        Workload(name="calib4k", layers=4, m=1024, n=1024, tokens=4096, d=3, threads=1),
    )
}


def generate(wl: Workload, seed: int, out_dir: Path) -> None:
    """Write the workload's ``outlier_channels`` layer inputs for ``seed`` under ``out_dir``."""
    from flrq.cli import main as flrq_main

    code = flrq_main([
        "gen-synth", "--family", "outlier_channels", "--m", str(wl.m), "--n", str(wl.n),
        "--tokens", str(wl.tokens), "--layers", str(wl.layers),
        "--outlier-count", "4", "--outlier-boost", "10",
        "--seed", str(program_seed(seed)), "--out-dir", str(out_dir),
    ])
    if code != 0:
        raise RuntimeError(f"gen-synth exited {code}")
