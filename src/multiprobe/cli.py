"""Command-line front end: bound sweeps, validation runs, censuses.

Exit codes: 0 success, 1 usage/config error, 2 validation failure,
3 numeric error.  Output is deterministic: identical configurations
produce byte-identical files on one machine and software version; the
committed results reproduce elsewhere within the tolerance stated in the
README.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from .bounds import bounds_from_table, census_histogram, evaluate_points, guaranteed_advantage
from .channels import ChannelFamily
from .errors import NumericError
from .imagespace import bcpf_space, cpf_space, full_space, read_space
from .presets import CLASSICAL, MUTUAL, ProbePlan, resolve_probe
from .probes import SINGLE_IDLER
from .validate import SCALES, run_suites

COLUMNS = [
    "family",
    "m",
    "space",
    "probe",
    "eta_b",
    "eta_t",
    "nu_b",
    "nu_t",
    "tau_b",
    "tau_t",
    "eps_b",
    "eps_t",
    "ns",
    "mu",
    "copies",
    "m_bar",
    "lower_raw",
    "lower",
    "upper_raw",
    "upper",
    "delta_perr",
    "method",
    "rounds",
]

HEADER_COMMENT = "# multiprobe bounds columns-v1"
CENSUS_COMMENT = "# multiprobe census columns-v1"

SWEEPABLE = (
    "eta-b",
    "eta-t",
    "nu-b",
    "nu-t",
    "tau-b",
    "tau-t",
    "eps-b",
    "eps-t",
    "ns",
    "mu",
    "copies",
    "mbar",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_grid(spec: str):
    """``param=start:stop:steps`` (linear) or ``param=log:start:stop:steps``."""
    try:
        name, rest = spec.split("=", 1)
        name = name.strip()
        parts = rest.split(":")
        log = False
        if parts[0] == "log":
            log = True
            parts = parts[1:]
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except (ValueError, IndexError) as exc:
        raise UsageError(f"bad grid spec {spec!r}; expected param=start:stop:steps") from exc
    if name not in SWEEPABLE:
        raise UsageError(f"cannot sweep {name!r}; sweepable: {', '.join(SWEEPABLE)}")
    if steps < 1:
        raise UsageError("grid needs at least one step")
    if steps == 1:
        values = [start]
    elif log:
        values = [float(x) for x in np.geomspace(start, stop, steps)]
    else:
        values = [float(x) for x in np.linspace(start, stop, steps)]
    return name, values


def build_space(text: str, m: int):
    """``full``, ``cpf:K``, ``bcpf:K1,K2``, or ``file:PATH``."""
    text = text.strip()
    if text == "full":
        return full_space(m)
    if text.startswith("cpf:"):
        return cpf_space(m, int(text[4:]))
    if text.startswith("bcpf:"):
        return bcpf_space(m, [int(tok) for tok in text[5:].split(",")])
    if text.startswith("file:"):
        with open(text[5:]) as fh:
            space = read_space(fh)
        if space.m != m:
            raise UsageError(f"space file has m={space.m}, expected {m}")
        return space
    raise UsageError(f"unknown space {text!r}; use full, cpf:K, bcpf:K1,K2 or file:PATH")


def build_family(payload: dict) -> ChannelFamily:
    kind = payload["family"]
    if kind == "pure-loss":
        if payload.get("eta-b") is None or payload.get("eta-t") is None:
            raise UsageError("pure-loss needs --eta-b and --eta-t")
        return ChannelFamily.pure_loss(payload["eta-b"], payload["eta-t"])
    if kind == "additive-noise":
        if payload.get("nu-b") is None or payload.get("nu-t") is None:
            raise UsageError("additive-noise needs --nu-b and --nu-t")
        return ChannelFamily.additive(payload["nu-b"], payload["nu-t"])
    if kind == "thermal":
        needed = ("tau-b", "eps-b", "tau-t", "eps-t")
        if any(payload.get(k) is None for k in needed):
            raise UsageError("thermal needs --tau-b, --eps-b, --tau-t, --eps-t")
        return ChannelFamily.thermal(*(payload[k] for k in needed))
    raise UsageError(f"unknown family {kind!r}")


def _energy(payload: dict):
    ns, mu = payload.get("ns"), payload.get("mu")
    if mu is None and ns is None:
        raise UsageError("need --ns or --mu (or a grid over one of them)")
    if mu is None:
        mu = ns + 0.5
    if ns is None:
        ns = mu - 0.5
    return float(ns), float(mu)


def _copies(payload: dict, m: int, l_overlap: int) -> float:
    copies, mbar = payload.get("copies"), payload.get("mbar")
    if copies is None and mbar is None:
        raise UsageError("need --copies or --mbar (or a grid over one of them)")
    if copies is not None and mbar is not None:
        raise UsageError("--copies and --mbar are mutually exclusive")
    return mbar * m / (m + l_overlap) if copies is None else copies


def _points(payloads: list[dict]):
    """The space and the (plan, family, ns, mu) evaluation point of each of
    ``payloads``, which share a structure (everything but the channel
    parameters, the energy and the copy number): the space is built once
    and the plan once per energy."""
    first = payloads[0]
    m = first["m"]
    space = build_space(first["space"], m)
    plans: dict[float, ProbePlan] = {}
    points = []
    for payload in payloads:
        ns, mu = _energy(payload)
        if mu not in plans:
            plans[mu] = resolve_probe(first["probe"], m, mu, first["odd_strategy"])
        points.append((plans[mu], build_family(payload), ns, mu))
    return space, points


def _eval_group(configs: list[list[dict]]) -> list[list[dict]]:
    """Rows of configurations that share a structure, one list per
    configuration, whose grid points differ only in ``copies``/``mbar``.

    The tables of every configuration come from one ``evaluate_points``
    batch; ``cmd_bounds`` passes every configuration of a sweep in one call.
    """
    first = configs[0][0]
    m = first["m"]
    space, points = _points([payloads[0] for payloads in configs])
    plan = points[0][0]
    l_overlap = plan.partition.l_overlap if plan.route == MUTUAL else 0
    copies_lists = [[_copies(payload, m, l_overlap) for payload in payloads] for payloads in configs]
    tables = evaluate_points(space, points)
    comparators = [None] * len(points)
    if first["against_classical"] and plan.route != CLASSICAL:
        comparators = evaluate_points(
            space, [(ProbePlan(CLASSICAL), family, ns, None) for _, family, ns, _ in points]
        )
    results = []
    for payloads, copies_list, (_, family, ns, mu), table, comparator in zip(
        configs, copies_lists, points, tables, comparators
    ):
        rows = []
        for payload, copies in zip(payloads, copies_list):
            report = bounds_from_table(table, copies)
            delta = None
            if comparator is not None:
                delta = guaranteed_advantage(bounds_from_table(comparator, report.m_bar), report)
            row = {c: None for c in COLUMNS}
            row.update(
                family=family.kind,
                m=m,
                space=payload["space"],
                probe=payload["probe"],
                ns=ns,
                mu=mu,
                copies=report.copies,
                m_bar=report.m_bar,
                lower_raw=report.lower_raw,
                lower=report.lower,
                upper_raw=report.upper_raw,
                upper=report.upper,
                delta_perr=delta,
                method=report.method,
                rounds=report.rounds,
            )
            for key in ("eta-b", "eta-t", "nu-b", "nu-t", "tau-b", "tau-t", "eps-b", "eps-t"):
                row[key.replace("-", "_")] = payload.get(key)
            rows.append(row)
        results.append(rows)
    return results


def _write_rows(rows, columns, fmt: str, out, comment: str) -> None:
    if fmt == "csv":
        out.write(comment + "\n")
        out.write(",".join(columns) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    else:
        for row in rows:
            out.write(json.dumps({c: row[c] for c in columns}) + "\n")


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


# ---------------------------------------------------------------------------
# subcommands


def _sweep_payloads(args) -> list[dict]:
    """One payload per grid point, the first grid outermost; grid values
    replace the scalar flags and follow them in key order."""
    scalars = {
        "family": args.family,
        "m": args.m,
        "space": args.space,
        "probe": args.probe,
        "odd_strategy": args.odd_strategy,
        "against_classical": getattr(args, "against_classical", False),
    }
    for name in SWEEPABLE:
        scalars[name] = getattr(args, name.replace("-", "_"), None)
    grids = [parse_grid(spec) for spec in getattr(args, "grid", None) or []]
    for name, _ in grids:
        scalars.pop(name, None)
    names = [name for name, _ in grids]
    return [
        {**scalars, **dict(zip(names, point))}
        for point in itertools.product(*(values for _, values in grids))
    ]


def cmd_bounds(args) -> int:
    payloads = _sweep_payloads(args)
    # one configuration per setting of everything but the copy number
    configs: dict[tuple, list[int]] = {}
    for i, payload in enumerate(payloads):
        key = tuple(item for item in payload.items() if item[0] not in ("copies", "mbar"))
        configs.setdefault(key, []).append(i)
    # grids vary only channel parameters, energy and copy number, so all
    # configurations share one structure and go into one batch
    results = _eval_group([[payloads[i] for i in idx] for idx in configs.values()])
    rows = [None] * len(payloads)
    for idx, config_rows in zip(configs.values(), results):
        for i, row in zip(idx, config_rows):
            rows[i] = row
    out, close = _open_out(args.out)
    try:
        _write_rows(rows, COLUMNS, args.format, out, HEADER_COMMENT)
    finally:
        if close:
            out.close()
    return 0


def cmd_validate(args) -> int:
    results = run_suites(args.scale)
    for res in results:
        print(json.dumps(res.to_dict()))
    return 0 if all(r.passed for r in results) else 2


def cmd_census(args) -> int:
    (payload,) = _sweep_payloads(args)
    space, points = _points([payload])
    (table,) = evaluate_points(space, points)
    pairs = census_histogram(table, payload["copies"])
    rows = [{"fidelity": v, "multiplicity": c} for v, c in pairs]
    out, close = _open_out(args.out)
    try:
        _write_rows(rows, ["fidelity", "multiplicity"], args.format, out, CENSUS_COMMENT)
    finally:
        if close:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: _Parser, with_copies: bool = True) -> None:
    p.add_argument("--family", choices=("pure-loss", "additive-noise", "thermal"), required=True)
    p.add_argument("--m", type=int, required=True, help="number of channels in the pattern")
    p.add_argument("--space", default="full", help="full | cpf:K | bcpf:K1,K2 | file:PATH")
    p.add_argument("--probe", default="classical", help="preset name or part:LITERAL")
    p.add_argument("--odd-strategy", default=SINGLE_IDLER,
                   choices=("single-idler", "hybrid-coherent"),
                   help="remainder handling for tmsv-disjoint with odd m")
    for name in ("eta-b", "eta-t", "nu-b", "nu-t", "tau-b", "tau-t", "eps-b", "eps-t"):
        p.add_argument(f"--{name}", type=float, default=None)
    p.add_argument("--ns", type=float, default=None, help="mean photon number per mode")
    p.add_argument("--mu", type=float, default=None, help="squeezing energy, mu = ns + 1/2")
    if with_copies:
        p.add_argument("--copies", type=float, default=None, help="probe copies M")
        p.add_argument("--mbar", type=float, default=None, help="average channel use")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The command-line parser, built once per process: ``main`` may run
    many commands in one process, as the scripts do, and parsing leaves
    the parser unchanged."""
    parser = _Parser(prog="multiprobe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="error-probability bound sweeps")
    _add_common(p_bounds)
    p_bounds.add_argument("--grid", action="append", default=[],
                          metavar="PARAM=START:STOP:STEPS",
                          help="sweep a parameter (repeatable; log:START:STOP:STEPS for geometric)")
    p_bounds.add_argument("--against-classical", action="store_true",
                          help="emit the guaranteed advantage against the classical benchmark")
    p_bounds.add_argument("--config", default=None, help="JSON config file (overrides flags)")
    p_bounds.set_defaults(func=cmd_bounds)

    p_val = sub.add_parser("validate", help="oracle-equivalence and invariant suites")
    p_val.add_argument("--scale", choices=SCALES, default="quick")
    p_val.set_defaults(func=cmd_validate)

    p_cen = sub.add_parser("census", help="fidelity degeneracy histogram")
    _add_common(p_cen, with_copies=False)
    p_cen.add_argument("--copies", type=float, default=1.0,
                       help="fidelities reported as F^copies")
    p_cen.set_defaults(func=cmd_census)
    return parser


def _apply_config(args, parser: _Parser) -> None:
    """Overlay the ``--config`` JSON object on the subcommand's options but
    --help and --config: a key sets the option of that name, with a warning
    when the command line gave it a value other than its default and the
    file's; any other key is a usage error."""
    if getattr(args, "config", None) is None:
        return
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError("a config file holds one JSON object")
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defaults = {a.dest: a.default for a in sub.choices[args.command]._actions
                if a.option_strings and a.dest not in ("help", "config")}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in defaults:
            raise UsageError(f"unknown config field {key!r}")
        current = getattr(args, dest)
        if current != defaults[dest] and current != value:
            print(f"warning: config file overrides --{key}={current} with {value}", file=sys.stderr)
        setattr(args, dest, value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args, parser)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
