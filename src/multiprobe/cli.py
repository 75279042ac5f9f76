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
import math
import operator
import sys

import numpy as np

from .bounds import bound_reports, census_histogram, evaluate_points, guaranteed_advantage
from .channels import ChannelFamily
from .errors import NumericError
from .imagespace import bcpf_space, cpf_space, full_space, read_space
from .presets import CLASSICAL, SCALES, resolve_preset
from .probes import HYBRID_COHERENT, SINGLE_IDLER, ProbeSpec

# grouped as ``_eval_group`` fills them
COLUMNS = [
    "family", "m", "space", "probe",
    "eta_b", "eta_t", "nu_b", "nu_t", "tau_b", "tau_t", "eps_b", "eps_t",
    "ns", "mu", "copies", "m_bar",
    "lower_raw", "lower", "upper_raw", "upper", "delta_perr",
    "method", "rounds",
]

HEADER_COMMENT = "# multiprobe bounds columns-v1"
CENSUS_COMMENT = "# multiprobe census columns-v1"

# the eight channel parameters, the energy, then the copy number
SWEEPABLE = (
    "eta-b", "eta-t", "nu-b", "nu-t", "tau-b", "tau-t", "eps-b", "eps-t",
    "ns", "mu",
    "copies", "mbar",
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


def _cells(column: list, texts: dict) -> list[str]:
    """The CSV text (``_fmt``) of each value of ``column``.  ``texts`` maps
    each value formatted so far, in this column or another, to its text,
    per type, and gains this column's, so a value is formatted once however
    often it repeats: the clipped bounds mostly repeat the raw ones.  A
    column in which equal values may format apart, one of mixed types (1,
    1.0, True) or one that holds a zero (0.0, -0.0), is formatted value by
    value."""
    kinds, distinct = set(map(type, column)), dict.fromkeys(column)
    if len(kinds) != 1 or 0 in distinct:
        return list(map(_fmt, column))
    kind = kinds.pop()
    text = texts.setdefault(kind, {})
    new = distinct.keys() - text.keys()
    text.update(zip(new, map(float.__repr__ if kind is float else _fmt, new)))
    return list(map(text.__getitem__, column))


def parse_grid(spec: str):
    """``param=start:stop:steps`` (linear) or ``param=log:start:stop:steps``
    (geometric): exactly three fields after the optional ``log:``, finite
    endpoints, and positive ones on a geometric grid."""
    try:
        name, rest = spec.split("=", 1)
        name = name.strip()
        parts = rest.split(":")
        log = parts[0] == "log"
        start, stop, steps = parts[1:] if log else parts
        start, stop, steps = float(start), float(stop), int(steps)
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}; expected param=start:stop:steps") from exc
    if name not in SWEEPABLE:
        raise UsageError(f"cannot sweep {name!r}; sweepable: {', '.join(SWEEPABLE)}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise UsageError(f"grid spec {spec!r} needs finite endpoints")
    if log and not (start > 0 and stop > 0):
        raise UsageError(f"log grid spec {spec!r} needs positive endpoints")
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
        return cpf_space(m, _target_count(text[4:], text))
    if text.startswith("bcpf:"):
        return bcpf_space(m, [_target_count(tok, text) for tok in text[5:].split(",")])
    if text.startswith("file:"):
        with open(text[5:]) as fh:
            space = read_space(fh)
        if space.m != m:
            raise UsageError(f"space file has m={space.m}, expected {m}")
        return space
    raise UsageError(f"unknown space {text!r}; use full, cpf:K, bcpf:K1,K2 or file:PATH")


def _target_count(token: str, spec: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise UsageError(f"bad space {spec!r}; target counts are integers, as in cpf:K or bcpf:K1,K2") from None


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
    """(ns, mu) from either or both; both must agree up to rounding."""
    ns, mu = payload.get("ns"), payload.get("mu")
    if mu is None and ns is None:
        raise UsageError("need --ns or --mu (or a grid over one of them)")
    if mu is None:
        mu = ns + 0.5
    elif ns is None:
        ns = mu - 0.5
    elif abs(mu - (ns + 0.5)) > 2 * math.ulp(mu):
        raise UsageError(f"--ns {ns!r} and --mu {mu!r} disagree; mu = ns + 1/2")
    if not (math.isfinite(ns) and math.isfinite(mu)):
        raise UsageError(f"energies must be finite, got ns={ns!r}, mu={mu!r}")
    return float(ns), float(mu)


def _copies(payload: dict, m: int, l_overlap: int) -> float:
    copies, mbar = payload.get("copies"), payload.get("mbar")
    if copies is None and mbar is None:
        raise UsageError("need --copies or --mbar (or a grid over one of them)")
    if copies is not None and mbar is not None:
        raise UsageError("--copies and --mbar are mutually exclusive")
    if copies is None:
        copies = mbar * m / (m + l_overlap)
    if not (math.isfinite(copies) and copies >= 1):
        raise UsageError(f"copy number must be finite and >= 1, got {copies!r}")
    return copies


def _points(payloads: list[dict]):
    """The space, and the (probe, family, ns) evaluation point and the mu of
    each of ``payloads``, which share a structure (everything but the
    channel parameters, the energy and the copy number): the space and the
    preset are built once, the probe once per energy and the family once
    per channel setting."""
    first = payloads[0]
    m = first["m"]
    space = build_space(first["space"], m)
    probe_at = resolve_preset(first["probe"], m, first["odd_strategy"])
    probes: dict[float, ProbeSpec | str] = {}
    families: dict[tuple, ChannelFamily] = {}
    setting = operator.itemgetter("family", *SWEEPABLE[:8])  # the channel parameters
    points, mus = [], []
    for payload in payloads:
        ns, mu = _energy(payload)
        if mu not in probes:
            probes[mu] = probe_at(mu)
        key = setting(payload)
        if key not in families:
            families[key] = build_family(payload)
        points.append((probes[mu], families[key], ns))
        mus.append(mu)
    return space, points, mus


def _eval_group(configs: list[list[dict]]) -> dict:
    """The output columns (``COLUMNS``) of configurations that share a
    structure, whose grid points differ only in ``copies``/``mbar``: the
    rows of each configuration in turn, and in each a column of one value
    per row, or one value for every row.

    ``cmd_bounds`` passes every configuration of a sweep in one call, and
    ``bound_reports`` picks the route of the probe and of its classical
    comparator, which is read at the probe's average channel use.
    """
    first = configs[0][0]
    m = first["m"]
    heads = [payloads[0] for payloads in configs]  # the channels and energy of each configuration
    space, points, mus = _points(heads)
    probe = points[0][0]
    l_overlap = 0 if probe == CLASSICAL else probe.l_overlap
    copies_lists = [[_copies(payload, m, l_overlap) for payload in payloads] for payloads in configs]
    reports = bound_reports(space, points, copies_lists)
    delta = None
    if first["against_classical"] and probe != CLASSICAL:
        m_bar = iter(reports.m_bar.tolist())
        comparisons = bound_reports(
            space,
            [(CLASSICAL, family, ns) for _, family, ns in points],
            [list(itertools.islice(m_bar, len(cs))) for cs in copies_lists],
        )
        delta = guaranteed_advantage(comparisons, reports).tolist()
    sizes = [len(payloads) for payloads in configs]

    def per_row(values):
        """The column of one value per configuration: that of every row when
        there is one configuration, else repeated for each of its rows (as
        they are, when each configuration has one row, as on a surface)."""
        if len(values) == 1:
            return values[0]
        if len(values) == len(reports):
            return list(values)
        return list(itertools.chain.from_iterable(map(itertools.repeat, values, sizes)))

    return dict(zip(COLUMNS, (
        points[0][1].kind, m, first["space"], first["probe"],
        *map(per_row, zip(*map(operator.itemgetter(*SWEEPABLE[:8]), heads))),
        per_row([ns for *_, ns in points]), per_row(mus),
        *(col.tolist() for col in (reports.copies, reports.m_bar, reports.lower_raw, reports.lower,
                                   reports.upper_raw, reports.upper)),
        delta, reports.method, reports.rounds,
    )))


def _write_rows(columns: dict, n: int, args, comment: str) -> None:
    """Write ``n`` rows of ``columns`` to ``args.out`` (default: standard
    output) in ``args.format``: a column is a list of one value per row, or
    one value for every row, which is formatted once."""
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w")
    try:
        if args.format == "csv":
            out.write(comment + "\n")
            out.write(",".join(columns) + "\n")
            texts: dict[type, dict] = {}
            cells = [_cells(col, texts) if isinstance(col, list) else itertools.repeat(_fmt(col), n)
                     for col in columns.values()]
            out.writelines(line + "\n" for line in map(",".join, zip(*cells)))
        else:
            values = [col if isinstance(col, list) else itertools.repeat(col, n) for col in columns.values()]
            for row in zip(*values):
                out.write(json.dumps(dict(zip(columns, row))) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


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
    names = [name for name, _ in grids]
    for name in names:
        if names.count(name) > 1:
            raise UsageError(f"grid over {name!r} given more than once")
        scalars.pop(name, None)
    return [
        {**scalars, **dict(zip(names, point))}
        for point in itertools.product(*(values for _, values in grids))
    ]


def cmd_bounds(args) -> int:
    payloads = _sweep_payloads(args)
    # one configuration per setting of everything but the copy number; only
    # the sweepable values differ between payloads
    setting = operator.itemgetter(*SWEEPABLE[:-2])
    configs: dict[tuple, list[int]] = {}
    for i, payload in enumerate(payloads):
        configs.setdefault(setting(payload), []).append(i)
    # grids vary only channel parameters, energy and copy number, so all
    # configurations share one structure and go into one batch
    columns = _eval_group([[payloads[i] for i in idx] for idx in configs.values()])
    # back in grid order: the evaluated row of each payload
    rows = np.argsort(list(itertools.chain(*configs.values()))).tolist()
    columns = {name: list(map(col.__getitem__, rows)) if isinstance(col, list) else col
               for name, col in columns.items()}
    _write_rows(columns, len(payloads), args, HEADER_COMMENT)
    return 0


def cmd_validate(args) -> int:
    # imported here, so that bounds and census do not load the suites
    from .validate import run_suites

    results = run_suites(args.scale)
    for res in results:
        print(json.dumps(res.to_dict()))
    return 0 if all(r.passed for r in results) else 2


def cmd_census(args) -> int:
    (payload,) = _sweep_payloads(args)
    copies = _copies(payload, payload["m"], 0)
    space, points, _ = _points([payload])
    (table,) = evaluate_points(space, points)
    pairs = census_histogram(table, copies)
    columns = {"fidelity": [v for v, _ in pairs], "multiplicity": [c for _, c in pairs]}
    _write_rows(columns, len(pairs), args, CENSUS_COMMENT)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(p: _Parser, with_copies: bool = True) -> None:
    p.add_argument("--family", choices=("pure-loss", "additive-noise", "thermal"), required=True)
    p.add_argument("--m", type=int, required=True, help="number of channels in the pattern")
    p.add_argument("--space", default="full", help="full | cpf:K | bcpf:K1,K2 | file:PATH")
    p.add_argument("--probe", default="classical", help="preset name or part:LITERAL")
    p.add_argument("--odd-strategy", default=SINGLE_IDLER,
                   choices=(SINGLE_IDLER, HYBRID_COHERENT),
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


def _config_value(action: argparse.Action, key: str, value):
    """A config file's ``value`` for the option of ``action``, as the
    command line would give it: converted with the option's type and
    checked against its choices, a list of such values for a repeatable
    option, a JSON boolean for a switch, or null for an option unset by
    default; any other value is a usage error."""
    if value is None and action.default is None:
        return None
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise UsageError(f"config field {key!r} must be true or false")
        return value
    if isinstance(action, argparse._AppendAction):
        values = value if isinstance(value, list) else [value]
        return [_config_scalar(action, key, v) for v in values]
    return _config_scalar(action, key, value)


def _config_scalar(action: argparse.Action, key: str, value):
    kind = {int: (int,), float: (int, float), None: (str,)}[action.type]
    if isinstance(value, bool) or not isinstance(value, kind):
        name = {int: "an integer", float: "a number", None: "a string"}[action.type]
        raise UsageError(f"config field {key!r} must be {name}, got {value!r}")
    if action.type is not None:
        value = action.type(value)
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config field {key!r}: {value!r} is not one of {', '.join(map(str, action.choices))}")
    return value


def _apply_config(args, parser: _Parser) -> None:
    """Overlay the ``--config`` JSON object on the subcommand's options but
    --help and --config: a key sets the option of that name, with a warning
    when the command line gave it a value other than its default and the
    file's; any other key, or a value the option would not take, is a
    usage error."""
    if getattr(args, "config", None) is None:
        return
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise UsageError("a config file holds one JSON object")
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise UsageError(f"unknown config field {key!r}")
        value = _config_value(actions[dest], key, value)
        current = getattr(args, dest)
        if current != actions[dest].default and current != value:
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
