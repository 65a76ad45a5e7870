"""Time two checkouts of flrq in interleaved pairs on one benchmark workload.

    python3 tools/pairs.py PARENT_ROOT CHANGE_ROOT --workload alt2bit --seed 1 --pairs 10 \\
        [--env-change K=V ...]

The workload's inputs are generated once, under PARENT_ROOT (as ``tools/same_bytes.py``
does). Each pair then runs ``python -m flrq.cli quantize`` with ``Workload.quantize_args``
once under each root's ``src/``, alternating which root goes first. ``--env-change K=V``
sets K in the change's environment only, so a probe such as a malloc setting can be
compared against the same code. Each child's ``os.wait4`` rusage gives its wall time,
``cpu_s`` (user + system), ``peak_rss_mb`` and minor page faults (``minflt``).

Per metric it prints the parent's median and quartiles, the change's median, the relative
change, the pairs in which the change read lower, and a two-sided sign-test p-value (ties
dropped). The last line is one JSON object with the same numbers, to 4 significant digits.
It measures and does not gate: it exits 0, or 2 when a run fails, or 1 when two runs of one
root write different ``report.json`` digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from same_bytes import BENCHMARK, WORKLOADS, fail, run  # noqa: E402

METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "minflt")


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, interpolated between order statistics."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def sign_test(lower: int, higher: int) -> float:
    """Two-sided sign-test p-value of ``lower`` against ``higher`` pairs (ties left out)."""
    n = lower + higher
    tail = sum(math.comb(n, i) for i in range(min(lower, higher) + 1))
    return min(1.0, 2 * tail / 2**n)


def sig(value: float) -> float:
    """``value`` to 4 significant digits, for a JSON line that fits in a changelog."""
    return float(f"{value:.4g}")


def summarize(parent: list[float], change: list[float]) -> dict:
    """One metric's paired runs: the parent's median and quartiles against the change's median."""
    lower = sum(c < p for p, c in zip(parent, change))
    higher = sum(c > p for p, c in zip(parent, change))
    med, q1, q3 = statistics.median(parent), *quartiles(parent)
    cmed = statistics.median(change)
    return {"parent_median": sig(med), "parent_q1": sig(q1), "parent_q3": sig(q3),
            "change_median": sig(cmed), "rel_change": sig((cmed - med) / med) if med else 0.0,
            "lower": lower, "pairs": len(parent), "sign_p": sig(sign_test(lower, higher))}


def timed(root: Path, argv: list[str], env: dict[str, str], out: Path) -> tuple[dict, str]:
    """Run ``argv`` with ``root``'s flrq; its metrics and the sha256 of ``out/report.json``."""
    env = {**os.environ, **env, "PYTHONPATH": str(root / "src")}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read()  # the child exits only once its stderr is drained
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        fail(argv, root, proc.returncode, stderr.decode(errors="replace"))
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    shutil.rmtree(out)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024, "minflt": usage.ru_minflt}, digest


def env_pair(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not (key and sep):
        raise argparse.ArgumentTypeError(f"expected K=V, got {text!r}")
    return key, value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, help="root of the reference checkout")
    p.add_argument("change", type=Path, help="root of the checkout under test")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--env-change", type=env_pair, action="append", default=[], metavar="K=V",
                   help="set K=V in the change's environment only (repeatable)")
    args = p.parse_args(argv)
    wl, changed_env = WORKLOADS[args.workload], dict(args.env_change)
    sides = {"parent": (args.parent.resolve(), {}), "change": (args.change.resolve(), changed_env)}
    samples = {side: {name: [] for name in METRICS} for side in sides}
    digests = {side: set() for side in sides}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        inputs = Path(tmp) / "in"
        generate = [str(BENCHMARK / "helper.py"), "generate", wl.name, str(args.seed), str(inputs)]
        run(sides["parent"][0], generate)
        for i in range(args.pairs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                root, env = sides[side]
                out = Path(tmp) / side
                argv = ["-m", "flrq.cli", *wl.quantize_args(inputs, out, args.seed)]
                metrics, digest = timed(root, argv, env, out)
                for name in METRICS:
                    samples[side][name].append(metrics[name])
                digests[side].add(digest)
            print(f"pair {i + 1}/{args.pairs}: cpu_s {samples['parent']['cpu_s'][-1]:.3f} -> "
                  f"{samples['change']['cpu_s'][-1]:.3f}", flush=True)
    result = {name: summarize(samples["parent"][name], samples["change"][name]) for name in METRICS}
    for name, s in result.items():
        print(f"{name}: parent {s['parent_median']:.4g} [{s['parent_q1']:.4g}, {s['parent_q3']:.4g}]"
              f" -> change {s['change_median']:.4g} ({s['rel_change']:+.1%}), lower in"
              f" {s['lower']}/{s['pairs']}, sign-test p {s['sign_p']:.3g}")
    stable = all(len(d) == 1 for d in digests.values())
    same_report = stable and digests["parent"] == digests["change"]
    print(json.dumps({"workload": wl.name, "seed": args.seed, "pairs": args.pairs,
                      "env_change": changed_env, "report_stable": stable, "same_report": same_report,
                      "metrics": result}))
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main())
