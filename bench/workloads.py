"""The four workloads: the CLI operations of one round, drawn from a seed.

An operation is one ``multiprobe`` command that writes one output file.  The
seed draws channel parameters, energies and grid end points from the
ranges the paper plots; it never changes the number of operations, grid
points, patterns or degeneracy classes, so the work per round is the same
for every seed.  Every operation carries a ``spec`` that the output checks
read; the checks never take parameters from the program's own output.
"""

from __future__ import annotations

import pathlib
import random

PROBES = ("classical", "full-ghz", "tmsv-disjoint", "nn", "idler-full")
SPACES = ("full", "cpf:3", "cpf:1")
CURVE_POINTS = 2
SURFACE_STEPS = 18
M12 = 12

def _families(rng: random.Random) -> dict:
    """Pure loss and additive noise near the m=9 figures' 0.99/0.97 and 0.02/0.01."""
    return {
        "pure-loss": {"eta-b": rng.uniform(0.985, 0.995), "eta-t": rng.uniform(0.965, 0.975)},
        "additive-noise": {"nu-b": rng.uniform(0.018, 0.022), "nu-t": rng.uniform(0.009, 0.011)},
    }


def _mbar_grid(rng: random.Random, points: int) -> dict:
    """A log M grid inside the figures' 10..5000 average channel use."""
    return {
        "name": "mbar",
        "start": rng.uniform(10.0, 12.0),
        "stop": rng.uniform(4000.0, 5000.0),
        "steps": points,
        "log": True,
    }


def _grid_arg(grid: dict) -> str:
    log = "log:" if grid["log"] else ""
    return f"{grid['name']}={log}{grid['start']!r}:{grid['stop']!r}:{grid['steps']}"


def _bounds_op(name: str, spec: dict) -> dict:
    argv = ["bounds", "--family", spec["family"], "--m", str(spec["m"]),
            "--space", spec["space"], "--probe", spec["probe"]]
    for key, value in spec["fixed"].items():
        argv += [f"--{key}", repr(value)]
    for grid in spec["grids"]:
        argv += ["--grid", _grid_arg(grid)]
    argv.append("--against-classical")
    return {"name": name, "kind": "bounds", "argv": argv, "spec": spec}


def _census_op(name: str, spec: dict) -> dict:
    argv = ["census", "--family", spec["family"], "--m", str(spec["m"]),
            "--space", spec["space"], "--probe", spec["probe"],
            "--copies", repr(spec["copies"])]
    for key, value in spec["fixed"].items():
        argv += [f"--{key}", repr(value)]
    return {"name": name, "kind": "census", "argv": argv, "spec": spec}


def curves(rng: random.Random) -> list[dict]:
    """Both m=9 sweep scripts' configurations on a coarse log M grid."""
    families = _families(rng)
    ns = rng.uniform(15.0, 25.0)
    grid = _mbar_grid(rng, CURVE_POINTS)
    ops = []
    for family, params in families.items():
        for space in SPACES:
            for probe in PROBES:
                spec = {"family": family, "m": 9, "space": space, "probe": probe,
                        "fixed": dict(params, ns=ns), "grids": [grid]}
                tag = f"{family}_m9_{space.replace(':', '')}_{probe}"
                ops.append(_bounds_op(tag, spec))
    return ops


def surface(rng: random.Random) -> list[dict]:
    """The advantage-surface script's configurations: a new channel or energy per point."""
    ns_grid = {"name": "ns", "start": rng.uniform(1.0, 1.2), "stop": rng.uniform(45.0, 50.0),
               "steps": SURFACE_STEPS, "log": True}
    loss_grid = {"name": "eta-b", "start": rng.uniform(0.95, 0.955),
                 "stop": rng.uniform(0.995, 0.999), "steps": SURFACE_STEPS, "log": False}
    noise_grid = {"name": "nu-b", "start": rng.uniform(0.012, 0.014),
                  "stop": rng.uniform(0.09, 0.1), "steps": SURFACE_STEPS, "log": False}
    loss_fixed = {"eta-t": 1.0, "mbar": rng.uniform(90.0, 110.0)}
    noise_fixed = {"nu-t": rng.uniform(0.009, 0.011), "mbar": rng.uniform(450.0, 550.0)}
    ops = []
    for probe in ("nn", "idler-full"):
        for family, fixed, grid in (("pure-loss", loss_fixed, loss_grid),
                                    ("additive-noise", noise_fixed, noise_grid)):
            spec = {"family": family, "m": 9, "space": "cpf:1", "probe": probe,
                    "fixed": dict(fixed), "grids": [grid, ns_grid]}
            ops.append(_bounds_op(f"surface_{family}_{probe}", spec))
    return ops


def m12(rng: random.Random) -> list[dict]:
    """The largest dense pattern set (m=12, 4096 patterns): nn bounds and two censuses."""
    families = _families(rng)
    ns = rng.uniform(15.0, 25.0)
    loss, noise = families["pure-loss"], families["additive-noise"]
    ops = []
    one_point = 10.0 ** rng.uniform(1.0, 3.7)
    for family, params, grids in (("pure-loss", dict(loss, ns=ns), [_mbar_grid(rng, 2)]),
                                  ("additive-noise", dict(noise, ns=ns, mbar=one_point), [])):
        spec = {"family": family, "m": M12, "space": "full", "probe": "nn",
                "fixed": params, "grids": grids}
        ops.append(_bounds_op(f"m12_{family}_nn", spec))
    # the census script's pairing: the ring at one copy, disjoint pairs at two
    for probe, copies in (("nn", 1.0), ("tmsv-disjoint", 2.0)):
        spec = {"family": "pure-loss", "m": M12, "space": "full", "probe": probe,
                "fixed": dict(loss, ns=ns), "copies": copies}
        ops.append(_census_op(f"m12_census_{probe}", spec))
    return ops


def validate(rng: random.Random) -> list[dict]:
    """``multiprobe validate --scale full``; it has no inputs, so the seed is unused."""
    return [{"name": "validate_full", "kind": "validate",
             "argv": ["validate", "--scale", "full"], "spec": {}}]


WORKLOADS = {"curves": curves, "surface": surface, "m12": m12, "validate": validate}


def operations(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(seed))


def output_path(outdir: pathlib.Path, op: dict) -> pathlib.Path:
    return outdir / (op["name"] + (".jsonl" if op["kind"] == "validate" else ".csv"))
