#!/usr/bin/env python3
"""Fidelity degeneracy censuses for m=10 pure-loss patterns.

Compares the spectrum of pair fidelities for a full 10-mode GHZ probe and
disjoint TMSV pairs (both at 2 copies) against the nearest-neighbour ring
(1 copy), matching the average channel use.  The ring's census support is
much wider, which is what makes it the better discriminator.
"""

import argparse
import pathlib
import sys

from multiprobe.cli import main as cli_main

CONFIGS = (
    ("full-ghz", 2.0),
    ("tmsv-disjoint", 2.0),
    ("nn", 1.0),
)


def run(outdir: pathlib.Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    for probe, copies in CONFIGS:
        out = outdir / f"census_loss_m10_{probe}.csv"
        code = cli_main(
            [
                "census",
                "--family", "pure-loss",
                "--m", "10",
                "--eta-b", "0.99",
                "--eta-t", "0.97",
                "--ns", "20",
                "--space", "full",
                "--probe", probe,
                "--copies", str(copies),
                "--out", str(out),
            ]
        )
        if code:
            return code
        with open(out) as fh:
            n_buckets = sum(1 for _ in fh) - 2
        print(f"wrote {out} ({n_buckets} distinct fidelity values)")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", type=pathlib.Path)
    args = ap.parse_args()
    sys.exit(run(args.outdir))
