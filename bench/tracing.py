"""Spans around the calls into each layer of multiprobe, and the per-layer metrics.

The wrappers live here, not in the program.  Each one replaces a public
function under every name it is bound to in the ``multiprobe`` modules
(``multiprobe.bounds.gaussian_fidelity`` as well as
``multiprobe.gaussian.gaussian_fidelity``), so calls made inside a module
are traced too.  A span records its name, start, end, the enclosing span
and one integer tag (mode count, pattern count or class count).  Spans are
kept in flat arrays in memory and written out once, when the round ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, function, span name, tag) -- tag maps (args, result) to an int
TARGETS = (
    ("multiprobe.gaussian", "gaussian_fidelity", "gaussian.fidelity", lambda a, r: a[0].n_modes),
    ("multiprobe.channels", "apply_mode_channels", "channels.apply", None),
    ("multiprobe.imagespace", "full_space", "imagespace.build", lambda a, r: len(r)),
    ("multiprobe.imagespace", "cpf_space", "imagespace.build", lambda a, r: len(r)),
    ("multiprobe.imagespace", "bcpf_space", "imagespace.build", lambda a, r: len(r)),
    ("multiprobe.probes", "extend_for_mutual_probing", "probes.extend", None),
    ("multiprobe.probes", "assemble_probe", "probes.assemble", None),
    ("multiprobe.bounds", "counting_census", "bounds.census", lambda a, r: len(r)),
    ("multiprobe.bounds", "fidelity_table_counting", "bounds.table.counting", None),
    ("multiprobe.bounds", "fidelity_table_blocks", "bounds.table.blocks", lambda a, r: r.n_patterns),
    ("multiprobe.bounds", "fidelity_table_bruteforce", "bounds.table.brute", lambda a, r: r.n_patterns),
    ("multiprobe.bounds", "bounds_from_table", "bounds.from_table", None),
    ("multiprobe.bounds", "classical_benchmark", "bounds.classical", None),
    ("multiprobe.bounds", "block_subfidelity", "bounds.block_lookup", None),
    ("multiprobe.bounds", "block_pair_fidelity", "bounds.block_lookup", None),
    ("multiprobe.cli", "main", "cli.main", None),
)

# the ten names SuiteResult.suite reports
SUITES = (
    "ghz_spectrum", "bona_fide_outputs", "fidelity_symmetry", "closed_form_oracles",
    "counting_vs_bruteforce", "tmsv_closed_form", "degeneracy_classes",
    "block_multiplicativity", "bound_monotonicity", "mutual_vs_bruteforce",
)

# per-layer metrics: name -> unit, in the order they are reported
METRICS = {
    "gaussian.fidelity_calls": "count",
    "gaussian.fidelity_s": "s",
    "gaussian.fidelity_us.le4": "us",
    "gaussian.fidelity_us.ge5": "us",
    "gaussian.covmatrix_calls": "count",
    "gaussian.covmatrix_s": "s",
    "channels.apply_calls": "count",
    "channels.apply_s": "s",
    "imagespace.patterns": "count",
    "imagespace.build_s": "s",
    "probes.extend_s": "s",
    "probes.assemble_s": "s",
    "bounds.census_calls": "count",
    "bounds.census_classes": "count",
    "bounds.census_s": "s",
    "bounds.table_s.counting": "s",
    "bounds.table_s.blocks": "s",
    "bounds.table_s.brute": "s",
    "bounds.table_entries": "count",
    "bounds.from_table_calls": "count",
    "bounds.from_table_s": "s",
    "bounds.block_lookups": "count",
    "bounds.block_hit_ratio": "ratio",
    "bounds.classical_s": "s",
    "cli.rows": "count",
    "cli.self_s": "s",
    **{f"validate.suite_s.{name}": "s" for name in SUITES},
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans for one round in one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, tag=None, rename=None):
        """``fn`` inside a span; ``rename(result)`` may name the span after the call."""
        name_id = self._id(name)
        names, parents, tags = self.name, self.parent, self.tag
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            tags.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if tag is not None:
                tags[idx] = tag(args, result)
            if rename is not None:
                names[idx] = self._id(rename(result))
            return result

        return traced

    def install(self) -> None:
        """Patch every binding of every target in the loaded multiprobe modules."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "multiprobe" or key.startswith("multiprobe.")]
        for module_name, attr, name, tag in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                print(f"trace: {module_name}.{attr} not found; its metrics read 0", file=sys.stderr)
                continue
            _rebind(modules, original, self.wrap(original, name, tag))
        from multiprobe.gaussian import CovMatrix
        CovMatrix.__init__ = self.wrap(CovMatrix.__init__, "gaussian.covmatrix")
        validate = importlib.import_module("multiprobe.validate")
        suites = getattr(validate, "_SUITES", [])
        optional = [getattr(validate, "suite_mutual_vs_bruteforce", None)]
        for original in list(suites) + [fn for fn in optional if fn is not None]:
            wrapped = self.wrap(original, "validate.suite", rename=lambda r: "validate.suite." + r.suite)
            suites[:] = [wrapped if fn is original else fn for fn in suites]
            _rebind(modules, original, wrapped)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), tag=np.asarray(self.tag),
                 start=np.asarray(self.start), end=np.asarray(self.end))

    def metrics(self, rows: int, scale: float) -> dict[str, float]:
        """Per-layer metrics of the spans so far, times in reference seconds.

        ``rows`` is counted from the outputs; ``scale`` turns measured
        seconds into reference seconds (see speed.py).
        """
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        tag = np.asarray(self.tag, dtype=float)
        dur = (np.asarray(self.end) - np.asarray(self.start)) * scale
        children = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        ids = {n: i for i, n in enumerate(self.names)}

        def pick(span):
            return name == ids.get(span, -1)

        def total(span, values=dur):
            return float(values[pick(span)].sum())

        def count(span):
            return int(pick(span).sum())

        def mean_us(mask):
            return float(dur[mask].mean() * 1e6) if mask.any() else 0.0

        fid = pick("gaussian.fidelity")
        lookups = count("bounds.block_lookup")
        lookup_parent = np.zeros(len(dur), dtype=bool)
        lookup_parent[nested] = pick("bounds.block_lookup")[parent[nested]]
        evals = int((fid & lookup_parent).sum())
        dense = pick("bounds.table.blocks") | pick("bounds.table.brute")
        out = {
            "gaussian.fidelity_calls": count("gaussian.fidelity"),
            "gaussian.fidelity_s": total("gaussian.fidelity"),
            "gaussian.fidelity_us.le4": mean_us(fid & (tag <= 4)),
            "gaussian.fidelity_us.ge5": mean_us(fid & (tag >= 5)),
            "gaussian.covmatrix_calls": count("gaussian.covmatrix"),
            "gaussian.covmatrix_s": total("gaussian.covmatrix"),
            "channels.apply_calls": count("channels.apply"),
            "channels.apply_s": total("channels.apply"),
            "imagespace.patterns": int(total("imagespace.build", tag)),
            "imagespace.build_s": total("imagespace.build"),
            "probes.extend_s": total("probes.extend"),
            "probes.assemble_s": total("probes.assemble"),
            "bounds.census_calls": count("bounds.census"),
            "bounds.census_classes": int(total("bounds.census", tag)),
            "bounds.census_s": total("bounds.census"),
            "bounds.table_s.counting": total("bounds.table.counting"),
            "bounds.table_s.blocks": total("bounds.table.blocks"),
            "bounds.table_s.brute": total("bounds.table.brute"),
            "bounds.table_entries": int((tag[dense] ** 2).sum()),
            "bounds.from_table_calls": count("bounds.from_table"),
            "bounds.from_table_s": total("bounds.from_table"),
            "bounds.block_lookups": lookups,
            "bounds.block_hit_ratio": 1.0 - evals / lookups if lookups else 0.0,
            "bounds.classical_s": total("bounds.classical"),
            "cli.rows": rows,
            "cli.self_s": total("cli.main", dur - children),
        }
        for suite in SUITES:
            out[f"validate.suite_s.{suite}"] = total(f"validate.suite.{suite}")
        return out


def _rebind(modules, original, wrapped) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
