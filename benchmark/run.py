#!/usr/bin/env python3
"""Benchmark `flrq quantize` end to end, and per module under an outside-in trace.

Usage (from the repository root):

    python3 benchmark/run.py --workload {alt2bit,calib4k,all} \
        --seed N --seconds S --trace {0,1}

One run writes the workload's inputs from the seed (untimed), then runs
``python -m flrq.cli quantize`` in a fresh process, again and again for S
seconds with tracing off. Before the first of these and after each, it
times a few fresh interpreters importing ``flrq.cli`` (``setup_s``), so the
set-up samples spread over the whole run. Every run's output is checked.
With ``--trace 1`` the workload is run once more under tracer.py, and the
per-module metrics of that traced run are reported instead of the
end-to-end ones. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

The program is imported from ``src/`` of the checkout this file sits in;
BLAS thread variables are inherited and recorded, never set. Metric names
and units come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HELPER = Path(__file__).resolve().parent / "helper.py"
WORK = ROOT / ".bench_work"
SETUP_REPS = 8  # import probes before the first quantize run and after each one

# {name: unit} of the metrics reported with --trace 0 and with --trace 1.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
PER_RUN = ("quantize_s", "cpu_s", "peak_rss_mb")


class RunFailed(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path) -> dict:
    """Run one child to completion; wall time spawn->exit and that child's rusage."""
    t0 = time.perf_counter()
    with open(log, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=_child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # KiB on Linux; also covers this process's own peak, which helper.py keeps small
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "code": proc.returncode,
        "stderr": log.read_text(errors="replace"),
    }


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):  # chunked, so the harness stays small
                h.update(chunk)
    return h.hexdigest()


def check_process(sample: dict) -> None:
    if sample["code"] != 0:
        raise RunFailed(f"exit code {sample['code']}: {sample['stderr'].strip()[-500:]}")
    if "Traceback" in sample["stderr"]:
        raise RunFailed(f"traceback on stderr: {sample['stderr'].strip()[-500:]}")


def read_report(out_dir: Path) -> dict:
    try:
        return json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        raise RunFailed(f"report.json unreadable: {exc}") from None


def helper(*args) -> str:
    """Run one helper.py step (numpy and flrq live there, not here); return its stdout."""
    proc = subprocess.run(
        [sys.executable, str(HELPER), *map(str, args)], cwd=ROOT, env=_child_env(),
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RunFailed(f"helper {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def provenance() -> dict:
    lines = sum(
        1 for p in sorted((SRC / "flrq").glob("*.py"))
        for line in p.read_text().splitlines() if line.strip()
    )
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **json.loads(helper("provenance")),
        "git_commit": _git_commit(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "src_nonblank_lines": lines,
    }


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree; the benchmark runs without git too."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def flush_to_disk(directory: Path) -> None:
    """fsync every file, so writeback of fresh inputs does not overlap the timed runs."""
    for path in directory.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    wl = WORKLOADS[name]
    in_dir = work / "in"
    helper("generate", name, seed, in_dir)
    flush_to_disk(in_dir)

    def probe_setup() -> None:
        for _ in range(SETUP_REPS):
            sample = spawn(["-c", "import flrq.cli"], work / "setup.log")
            check_process(sample)
            setup.append(sample["wall_s"])

    setup: list[float] = []
    spawn(["-c", "import flrq.cli"], work / "setup.log")  # fill bytecode caches once
    probe_setup()

    # Timed region: the quantize processes, the cheap per-run checks, and
    # the set-up probes between runs (timed separately).
    samples, digest, ref_out = [], None, None
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        out_dir = work / f"out_{len(samples)}"
        sample = spawn(["-m", "flrq.cli", *wl.quantize_args(in_dir, out_dir, seed)], work / "run.log")
        samples.append(sample)
        try:
            check_process(sample)
            read_report(out_dir)
            sample["digest"] = tree_digest(out_dir)
            if digest is None:
                digest, ref_out = sample["digest"], out_dir
            elif sample["digest"] != digest:
                raise RunFailed(f"output digest {sample['digest'][:12]} != first output's {digest[:12]}")
        except (RunFailed, OSError) as exc:
            sample["error"] = str(exc)
        if out_dir != ref_out:
            shutil.rmtree(out_dir, ignore_errors=True)
        probe_setup()

    # Full checks on the first output stand for every run with the same digest.
    report = metas = None
    try:
        if ref_out is None:
            raise RunFailed("no run produced output")
        report = read_report(ref_out)
        helper("verify", ref_out, in_dir)
        metas = [json.loads((ref_out / n / "meta.json").read_text()) for n in report["config"]["layers"]]
    except Exception as exc:  # any failure here means the output is wrong
        report = None
        for s in samples:
            s.setdefault("error", f"output check: {type(exc).__name__}: {exc}")

    ok = [s for s in samples if "error" not in s]
    result = {
        "workload": name,
        "seed": seed,
        "samples": samples,
        "digest": digest,
        "input_digest": tree_digest(in_dir),
        "end_to_end": {},
        "per_layer": None,
        "work": None,
    }
    if report is not None and ok:
        rows = report["layers"]
        result["end_to_end"] = {
            "quantize_s": statistics.median(s["wall_s"] for s in ok),
            "cpu_s": statistics.median(s["cpu_s"] for s in ok),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
            "setup_s": statistics.median(setup),
            "bits_per_weight": wl.d + statistics.fmean(r["extra_bits_with_meta"] for r in rows),
        }
        result["info"] = {
            "rel_error_mean": statistics.fmean(r["rel_error"] for r in rows),
            "rel_error_max": max(r["rel_error"] for r in rows),
            "avg_extra_bits": report["aggregate"]["avg_extra_bits"],
            "rtn_rel_error_mean": statistics.fmean(r["rtn_rel_error"] for r in rows),
            "quantize_s_all": [round(s["wall_s"], 4) for s in samples],
            "setup_s_samples": len(setup),
            "peak_rss_mb_all": [round(s["peak_rss_mb"], 1) for s in samples],
        }
        result["work"] = [
            {
                "layer": r["index"], "rank": r["rank"], "stop_reason": r["stop_reason"],
                "components_tried_last_epoch": len(m["rank_trace"]["steps"]),
                "epochs_run": len(m["blc_trace"]), "best_epoch": m["best_epoch"],
            }
            for r, m in zip(rows, metas)
        ]
    if trace:
        traced = {"wall_s": None}
        samples.append(traced)
        try:
            if "quantize_s" not in result["end_to_end"]:
                raise RunFailed("no verified untraced output to compare the traced run with")
            result["per_layer"] = traced_run(wl, seed, in_dir, work, report, digest,
                                             result["end_to_end"]["quantize_s"])
        except Exception as exc:  # a broken identity or output fails the traced run
            traced["error"] = f"traced run: {type(exc).__name__}: {exc}"
    return result


def traced_run(wl, seed, in_dir, work, report, digest, untraced_median) -> dict:
    out_dir, spans_path = work / "out_traced", work / "spans.json"
    tracer = str(Path(__file__).resolve().parent / "tracer.py")
    sample = spawn([tracer, str(spans_path), *wl.quantize_args(in_dir, out_dir, seed)],
                   work / "trace.log")
    check_process(sample)
    traced_digest = tree_digest(out_dir)
    if traced_digest != digest:
        raise RunFailed(f"traced output digest {traced_digest[:12]} != untraced {digest[:12]}")
    spans = json.loads(spans_path.read_text())["spans"]
    ix = layer_metrics.Spans(spans)
    values = layer_metrics.compute(ix, sample["wall_s"], untraced_median)
    meta_epochs = sum(
        len(json.loads((out_dir / name / "meta.json").read_text())["blc_trace"])
        for name in report["config"]["layers"]
    )
    errors = layer_metrics.identity_errors(
        ix, values, it=report["config"]["it"],
        grid_len=len(set(report["config"]["clip_grid"])), meta_epochs=meta_epochs,
    )
    if errors:
        raise RunFailed("counter identities broken: " + "; ".join(errors))
    return values


def _print_result(res: dict) -> None:
    name, samples = res["workload"], res["samples"]
    failed = [s["error"] for s in samples if "error" in s]
    print(f"[{name}] seed {res['seed']}: {len(samples)} run(s), {len(failed)} failed, "
          f"fail_rate {len(failed) / len(samples):.3f}")
    for msg in failed:
        print(f"[{name}] FAILED {msg}")
    print(f"[{name}] output digest {res['digest']}  input digest {res['input_digest']}")
    if res["work"] is not None:
        print(f"[{name}] work {json.dumps(res['work'])}")
        print(f"[{name}] info {json.dumps(res['info'])}")
    timed = sum(1 for s in samples if s["wall_s"] is not None and "error" not in s)
    for metric, unit in END_TO_END.items():
        if metric in res["end_to_end"]:
            how = f" (median of {timed} runs)" if metric in PER_RUN else ""
            print(f"[{name}] {metric} = {res['end_to_end'][metric]:.6g} {unit}{how}")
    if res["per_layer"] is not None:
        for metric, unit in PER_LAYER.items():
            print(f"[{name}] {metric} = {res['per_layer'][metric]:.6g} {unit}")


def _metric_block(res: dict, trace: bool, prefix: str = "") -> dict:
    units, values = (PER_LAYER, res["per_layer"] or {}) if trace else (END_TO_END, res["end_to_end"])
    return {prefix + m: {"value": values[m], "unit": units[m]} for m in units if m in values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "flrq" / "cli.py").is_file():
        print(f"benchmark: no flrq sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = []
    try:
        prov = provenance()
        if Path(prov["flrq_file"]).parent != (SRC / "flrq").resolve():
            raise RunFailed(f"flrq imports from {prov['flrq_file']}, not {SRC}")
        for name in names:
            wdir = work / name
            wdir.mkdir(parents=True)
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), wdir))
            shutil.rmtree(wdir)
    except RunFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    print(f"provenance {json.dumps(prov)}")
    for res in results:
        _print_result(res)
    attempted = sum(len(r["samples"]) for r in results)
    failed = sum(1 for r in results for s in r["samples"] if "error" in s)
    metrics = {}
    for res in results:
        metrics.update(_metric_block(res, bool(args.trace), f"{res['workload']}." if len(results) > 1 else ""))
    expected = len(PER_LAYER if args.trace else END_TO_END) * len(results)
    correct = failed == 0 and len(metrics) == expected
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
