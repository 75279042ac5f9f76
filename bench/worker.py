"""One round of a workload in a fresh interpreter, as a user's script runs it.

Reads the operations as JSON on stdin, runs each through
``multiprobe.cli.main`` in this one process (so block-fidelity caches are
shared between the commands of a round, as in ``scripts/``, but never
between rounds), and prints one JSON line: the round's time in reference
seconds (see speed.py) and as measured, each operation's exit code and
seconds, the process's peak resident memory and, when traced, the
per-layer metrics.  Start-up and ``import multiprobe.cli``
are not in the round time; ``run.py`` measures them as ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import resource
import sys
import time
import traceback

import multiprobe.cli as cli
from speed import SpeedProbe
from workloads import output_path


def data_rows(path: pathlib.Path) -> int:
    """Rows the command wrote: CSV lines after the comment and header, or JSON lines."""
    with open(path) as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    return len(lines) - (0 if path.suffix == ".jsonl" else 1)


def run_op(op: dict, out: pathlib.Path) -> int:
    try:
        if op["kind"] == "validate":
            with open(out, "w") as fh, contextlib.redirect_stdout(fh):
                return cli.main(op["argv"])
        return cli.main(op["argv"] + ["--out", str(out)])
    except Exception:  # an operation that raises counts as failed; the round goes on
        traceback.print_exc()
        return -1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", type=pathlib.Path, required=True)
    ap.add_argument("--spans", type=pathlib.Path, default=None,
                    help="trace the round and write its spans here")
    args = ap.parse_args()
    ops = json.load(sys.stdin)
    tracer = None
    if args.spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    probe = SpeedProbe()
    probe.start()
    t_round = time.perf_counter()
    for op in ops:
        t_op = time.perf_counter()
        code = run_op(op, output_path(args.outdir, op))
        results.append({"name": op["name"], "code": code, "seconds": time.perf_counter() - t_op})
    wall_s = time.perf_counter() - t_round
    probe.stop()
    report = {
        "run_s": (wall_s - probe.busy_s) * probe.scale,
        "wall_s": wall_s,
        "scale": probe.scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        # a census histogram's length depends on the drawn values, so it is not counted
        rows = sum(data_rows(output_path(args.outdir, op)) for op, res in zip(ops, results)
                   if res["code"] == 0 and op["kind"] != "census")
        tracer.save(args.spans)
        report["layers"] = tracer.metrics(rows, probe.scale)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
