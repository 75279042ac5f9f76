#!/usr/bin/env python3
"""Benchmark of the multiprobe figure pipeline.

    python3 bench/run.py --workload curves --seed 1 --seconds 15 --trace 0

Runs whole rounds of one workload's operations (see workloads.py), each
round in a fresh single-threaded interpreter started by worker.py, until
the rounds have taken ``--seconds``.  The first round's outputs are checked
against independent computations (checks.py); later rounds must write the
same bytes.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics (medians over rounds) with ``--trace 0``, the per-layer metrics
of traced rounds with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 11
SETUP_KERNELS = 20
ROUND_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from speed import REFERENCE_S, kernel  # noqa: E402
from tracing import METRICS  # noqa: E402


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the speed probe and
    the work it scales run on the same core."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def measure_setup(env: dict) -> float:
    """Median time of a fresh interpreter that imports multiprobe.cli, in reference seconds."""
    cmd = [sys.executable, "-c", "import multiprobe.cli"]
    samples, speed = [], []
    for i in range(SETUP_SAMPLES + 1):
        speed.extend(kernel() for _ in range(SETUP_KERNELS))
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode:
            raise BenchError(f"import multiprobe.cli failed:\n{proc.stderr}")
        if i:  # the first start may compile bytecode, which users pay once
            samples.append(elapsed)
    return statistics.median(samples) * statistics.fmean(REFERENCE_S / k for k in speed)


def run_round(ops: list[dict], outdir: pathlib.Path, env: dict, spans=None) -> tuple[dict, float]:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--outdir", str(outdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, input=json.dumps(ops), env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=ROUND_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


class Verdicts:
    """Checks each distinct output once; operations that wrote the same bytes share it."""

    def __init__(self, check):
        self.check = check
        self.by_digest: dict[tuple[str, str], str | None] = {}

    def __call__(self, op: dict, path: pathlib.Path) -> str | None:
        """None if the output is right, else why not."""
        key = (op["name"], hashlib.sha256(path.read_bytes()).hexdigest())
        if key not in self.by_digest:
            try:
                self.check(op, path)
                self.by_digest[key] = None
            except Exception as exc:  # any failure of the check marks the output wrong
                self.by_digest[key] = f"{type(exc).__name__}: {exc}"
        return self.by_digest[key]


def score_round(report: dict, ops: list[dict], outdir: pathlib.Path, verdicts: Verdicts):
    """(failed operations, wrong outputs) of one round."""
    failed = wrong = 0
    for op, res in zip(ops, report["ops"]):
        if res["code"] != 0:
            print(f"{op['name']}: exit code {res['code']}", file=sys.stderr)
            failed += 1
            continue
        why = verdicts(op, workloads.output_path(outdir, op))
        if why is not None:
            print(f"{op['name']}: wrong output: {why}", file=sys.stderr)
            failed += 1
            wrong += 1
    return failed, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "multiprobe" / "cli.py").is_file():
        print(f"no multiprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checks use the program's block fidelities
    from checks import check
    env = child_env()
    pin_to_one_cpu()
    ops = workloads.operations(args.workload, args.seed)
    outdir = OUT / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    verdicts = Verdicts(check)
    try:
        setup_s = measure_setup(env)
        rounds, traced = [], []
        attempted = failed = wrong = 0
        busy = 0.0
        # traced runs alternate untraced and traced rounds; the difference is the overhead
        while not rounds or busy < args.seconds or (args.trace and len(traced) < len(rounds)):
            spans = None
            if args.trace and len(traced) < len(rounds):
                spans = OUT / f"spans-{args.workload}.npz"
            report, elapsed = run_round(ops, outdir, env, spans)
            busy += elapsed
            (traced if spans is not None else rounds).append(report)
            f, w = score_round(report, ops, outdir, verdicts)
            attempted += len(ops)
            failed += f
            wrong += w
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    def median(key, reports):
        return statistics.median(r[key] for r in reports)

    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = median("run_s", traced) - median("run_s", rounds)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in METRICS.items()}
    else:
        metrics = {
            "run_s": {"value": median("run_s", rounds), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb", rounds), "unit": "MB"},
        }
    times = ", ".join(f"{r['run_s']:.3f} ({r['wall_s']:.3f} x {r['scale']:.3f})" for r in rounds)
    print(f"{args.workload}: rounds of {times} s, {len(traced)} traced, "
          f"{attempted} operations, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
