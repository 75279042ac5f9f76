"""Error-probability bounds for channel-pattern discrimination.

All bounds reduce to prior-weighted sums over ordered pattern pairs of
output-state fidelities raised to the copy number: the
pretty-good-measurement upper bound uses F^M, the lower bound F^(2M).
They are read off a fidelity table or summed directly.

- Tables: ``evaluate`` builds the fidelity table of one probe
  configuration once, as (ordered pair count, log F) entries, and
  ``evaluate_points`` those of configurations that differ only in
  channels and energy; ``bounds_from_table`` reads a table at any copy
  number, and ``census_histogram`` histograms it.
- Sums: ``bound_reports`` gives the bounds of a sweep; on uniform
  full/cpf/bcpf spaces it sums F^M and F^(2M) per configuration and copy
  number straight from the DP, with no entry per distinct log F.

Both entry points resolve a sweep's route alike: the classed DP of a
uniform full/cpf/bcpf space (``_dp``: the counting DP for disjoint blocks,
the frontier DP for overlapping ones such as the ``nn`` ring and ``part:``
literals), one dense table per point on any other space (``_dense_table``),
or the classical probe's distance table.
Fidelities of block-structured probes factor over blocks and are
degenerate within per-block (v, u, d) classes, so one Gaussian fidelity
per block and class suffices.  On uniform position-finding spaces a DP
over blocks counts ordered pattern pairs per distinct log-fidelity from
the multiplicities of those classes, and overlapping blocks are counted
by a DP over channels that keeps the bits of the channels still read,
both without enumerating patterns.  ``multiprobe.dp`` owns both plans of
key transitions, the classes and their representative local pairs; a
plan depends on no fidelity and names the local pairs it reads, and
``_dp`` evaluates them in one ``multiprobe.blocks`` batch per lut key
over all configurations.  The table replays the plan with (log F, count)
entries per state, the sums with count * F^M and count * F^(2M) per
state.
Custom spaces get one entry per unordered pattern pair from per-block
lookups, which read each block's channels off the pattern whether or not
the blocks overlap, so overlapping blocks need no copy-channel extension.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ADDITIVE, PURE_LOSS, ChannelFamily, layout_channels, mode_channel_map
from .closedform import coherent_loss_fidelity, vacuum_additive_fidelity
from .blocks import block_fidelities, block_signature, block_subfidelity
from .dp import (counting_plan, frontier_plan, hamming_census, local_pairs, replay_entries, replay_sums,
                 representative_local_patterns)
from .errors import (
    CapacityError,
    ComparabilityError,
    DimensionError,
    EnergyError,
    NumericError,
    PartitionError,
    UnsupportedBenchmarkError,
)
from .gaussian import BATCH_MAX_FLOATS, stacked_fidelities
from .imagespace import ImageSpace
from .presets import CLASSICAL
from .probes import (BlockDescriptor, ProbeSpec, assemble_probe, average_channel_use, decompose_rounds,
                     odd_m_disjoint_spec)

BRUTE_TABLE_MAX_PATTERNS = 512
BLOCK_TABLE_MAX_PATTERNS = 4096

# Census entries whose neighbouring log F differ by at most this many eps,
# relative, are one degeneracy class: a class's members sum the same block
# log F in different orders, a few ulps apart, while distinct classes of
# the committed censuses lie at least 1e-5 relative apart.
CENSUS_MERGE_EPS = 16


@dataclass
class BoundReport:
    """Lower/upper error-probability bounds plus resource accounting.

    Raw values are the bare fidelity sums (the upper one may exceed 1 for
    small M); ``lower``/``upper`` are clipped to [0, 1].  The one-report
    routes, ``bounds_from_table`` and the closed forms, give one; a sweep's
    ``bound_reports`` gives BoundColumns.
    """

    lower_raw: float
    upper_raw: float
    copies: float
    m_bar: float
    method: str
    rounds: int | None = None

    @property
    def lower(self) -> float:
        return min(max(self.lower_raw, 0.0), 1.0)

    @property
    def upper(self) -> float:
        return min(max(self.upper_raw, 0.0), 1.0)


@dataclass(eq=False)
class BoundColumns:
    """The bounds of a sweep's (point, copy number) rows as columns, point
    by point and, within a point, in the order of its copy numbers.

    The fields are those of BoundReport, one array entry per row, but the
    route's ``method`` and ``rounds``, which hold for every row (None
    without rows).  ``lower``/``upper`` clip the raw columns as
    BoundReport clips its values, -0.0 kept, once per column.
    """

    copies: np.ndarray
    m_bar: np.ndarray
    lower_raw: np.ndarray
    upper_raw: np.ndarray
    method: str | None
    rounds: int | None = None

    def __len__(self) -> int:
        return len(self.copies)

    @functools.cached_property
    def lower(self) -> np.ndarray:
        return _clip(self.lower_raw)

    @functools.cached_property
    def upper(self) -> np.ndarray:
        return _clip(self.upper_raw)


def _clip(x: np.ndarray) -> np.ndarray:
    """min(max(x, 0.0), 1.0) of each entry: np.minimum, as min, keeps -0.0
    and NaN."""
    clipped = np.minimum(x, 1.0)
    clipped[x < 0.0] = 0.0
    return clipped


def _check_range(lower: np.ndarray, upper: np.ndarray) -> None:
    """One range check of the raw bounds of every row: NumericError for the
    first row whose sums are not finite, whose lower bound is negative
    beyond rounding, or whose upper bound falls below it."""
    # each comparison fails for NaN; an infinite bound fails one of them
    ok = (lower >= -1e-12) & (upper >= lower - 1e-12) & (upper < np.inf)
    if np.count_nonzero(ok) == len(ok):
        return
    row = int(ok.argmin())
    lo, up = lower[row].item(), upper[row].item()
    if not (math.isfinite(lo) and math.isfinite(up)):
        raise NumericError("bound sums are not finite")
    if lo < -1e-12:
        raise NumericError(f"negative lower bound {lo}")
    raise NumericError("upper bound fell below lower bound")


def _checked_report(copies: float, m_bar: float, lower: float, upper: float, method: str,
                    rounds: int | None = None) -> BoundReport:
    """The report of one row, range-checked as ``_check_range`` checks rows."""
    _check_range(np.array([lower]), np.array([upper]))
    return BoundReport(lower, upper, copies, m_bar, method, rounds)


def _checked_columns(copies: np.ndarray, m_bar: np.ndarray, lower: np.ndarray, upper: np.ndarray, method: str,
                     rounds: int | None = None) -> BoundColumns:
    """The columns of a route's rows, range-checked once (``_check_range``)."""
    _check_range(lower, upper)
    return BoundColumns(copies, m_bar, lower, upper, method, rounds)


def guaranteed_advantage(classical, quantum):
    """Classical lower bound minus quantum upper bound (clipped values), of
    two BoundReports or, row by row, of two BoundColumns.

    Positive values certify quantum advantage.  Both must refer to the same
    average channel use, row by row: ComparabilityError names the first
    row where they differ.
    """
    a, b = np.asarray(classical.m_bar), np.asarray(quantum.m_bar)
    # not math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), row by row
    apart = (a != b) & ~(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), np.abs(b)))
    if apart.any():
        row = int(apart.argmax())
        raise ComparabilityError(f"average channel use differs: {a.flat[row].item()} vs {b.flat[row].item()}")
    return classical.lower - quantum.upper


# ---------------------------------------------------------------------------
# per-block fidelity classes


def tmsv_subfidelity(family: ChannelFamily, mu: float, v: int, u: int, d: int) -> float:
    """Numeric two-mode sub-fidelity F_{vu}(d) for a bare TMSV probe."""
    return block_subfidelity(BlockDescriptor("ghz", (0, 1), mu=mu), family, v, u, d)


# ---------------------------------------------------------------------------
# fidelity tables


def counting_applies(space: ImageSpace) -> bool:
    """Whether occupancy counting covers the space: uniform full/cpf/bcpf."""
    return space.target_counts is not None and space.uniform


@dataclass
class FidelityTable:
    """Single-copy output fidelities as (ordered pair count, log F) entries.

    Every bound is a prior-weighted sum over ordered pattern pairs, so a
    table is a list of entries: ``counts[k]`` ordered pairs share the
    fidelity ``exp(logf[k])``.  The counting routes on full/cpf/bcpf spaces
    hold one entry per distinct log-fidelity; the dense routes on custom
    spaces one per unordered pair, counted twice.  The
    optional per-entry ``weights`` = sqrt(pi_i pi_j) carry non-uniform
    priors; without them the priors are uniform.  ``method`` names the
    route that built the table; a mutual-probing table also carries its
    overlapping ``probe``, which sets the average channel use, and the
    number of disjoint ``rounds``.
    """

    n_patterns: int
    counts: np.ndarray
    logf: np.ndarray
    weights: np.ndarray | None = None
    method: str = "brute"
    probe: ProbeSpec | None = None
    rounds: int | None = None

    def __post_init__(self):
        if len(self.counts) != len(self.logf) or (
            self.weights is not None and len(self.weights) != len(self.logf)
        ):
            raise DimensionError("table counts, log-fidelities and weights differ in length")

    @classmethod
    def pairs(cls, n: int, logf, priors=None, **kw) -> FidelityTable:
        """Dense table: ``logf`` holds one entry per unordered pair i < j in
        row-major order (see ``_pair_entries``), each counted twice."""
        logf = np.asarray(logf, dtype=float)
        weights = None
        if priors is not None:
            pri = np.asarray(priors, dtype=float)
            weights = _pair_entries(n, lambda i: np.sqrt(pri[i] * pri[i + 1:]))
        return cls(n, np.full(len(logf), 2.0), logf, weights, **kw)

    @classmethod
    def from_fidelities(cls, n: int, fids, priors=None) -> FidelityTable:
        """Dense table from one fidelity per unordered pair (see ``pairs``)."""
        return cls.pairs(n, [_log(fid) for fid in np.asarray(fids).tolist()], priors)


def _log(fid: float) -> float:
    return math.log(fid) if fid > 0 else -math.inf


def _pair_entries(n: int, row) -> np.ndarray:
    """Concatenate ``row(i)``, the values of the pairs (i, j > i), over i."""
    out = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        out[start:start + n - 1 - i] = row(i)
        start += n - 1 - i
    return out


def bounds_from_table(table: FidelityTable, copies, *, m_bar=None) -> BoundReport:
    """Pretty-good-measurement upper bound and the matching lower bound.

    UB = sum_{i != j} sqrt(pi_i pi_j) F_ij^M, LB = (1/2) sum pi_i pi_j F_ij^(2M);
    uniform priors collapse to the 1/|U| and 1/(2|U|^2) prefactors.  The
    average channel use defaults to M, or to (m + l) / m * M for a
    mutual-probing table, in floats, as in ``bound_reports``.
    """
    m_val = float(copies)
    if m_val < 1:
        raise ValueError(f"copy number must be >= 1, got {copies}")
    ((lb, ub),) = _table_sums(table, np.array([m_val]))
    m_bar = _m_bar(table.probe, m_val) if m_bar is None else float(m_bar)
    return _checked_report(m_val, m_bar, lb, ub, table.method, table.rounds)


def _m_bar(probe: ProbeSpec | None, power):
    """The average channel use of rows at copy numbers ``power`` (an array,
    or one float): M, or (m + l) / m * M for an overlapping ``probe``
    (``average_channel_use`` at a float M), on every route."""
    return power if probe is None else average_channel_use(probe, 1.0) * power


def _table_sums(table: FidelityTable, power, scale=None) -> list[tuple[float, float]]:
    """(lower_raw, upper_raw) of rows that read ``table`` at copy number
    ``power[r]``, with log F times ``scale[r]`` if given (see
    ``bounds_from_table``), in chunks of at most BATCH_MAX_FLOATS entries.
    Each row takes one exp per entry and one dot product per bound, so its
    value is that of the row alone."""
    if table.weights is None:
        upper, lower, n_upper, n_lower = table.counts, table.counts, table.n_patterns, table.n_patterns**2
    else:
        upper = table.counts * table.weights
        lower, n_upper, n_lower = upper * table.weights, 1, 1
    per_chunk = max(1, BATCH_MAX_FLOATS // max(1, len(table.logf)))
    sums = []
    for start in range(0, len(power), per_chunk):
        logf = table.logf if scale is None else table.logf * scale[start:start + per_chunk, None]
        m_val = power[start:start + per_chunk, None]
        sums += [(0.5 * float(lower @ f2m) / n_lower, float(upper @ fm) / n_upper)
                 for fm, f2m in zip(np.exp(m_val * logf), np.exp(2.0 * m_val * logf))]
    return sums


def census_histogram(table: FidelityTable, copies=1.0) -> list[tuple[float, int]]:
    """Degeneracy histogram: (F^copies rounded to 12 decimals, number of
    ordered pattern pairs), in ascending fidelity.

    Entries are first merged into classes: in ascending log F, an entry
    within CENSUS_MERGE_EPS eps (relative) of its predecessor joins its
    class.  Each class is rounded at the midpoint of its smallest and
    largest log F, so a class whose members straddle a rounding boundary
    still prints as one row; classes that round alike share a row.
    """
    if not len(table.logf):
        return []
    # a stable sort and reduceat rather than np.unique, whose first call imports numpy.ma
    order = np.argsort(table.logf, kind="stable")
    logf = table.logf[order]
    # a comparison, not a difference of neighbours: log F = -inf (F = 0) makes no NaN
    apart = logf[:-1] < logf[1:] - CENSUS_MERGE_EPS * np.finfo(float).eps * np.abs(logf[1:])
    first = np.flatnonzero(np.concatenate(([True], apart)))
    last = np.append(first[1:], len(logf)) - 1
    rounded = np.round(np.exp(float(copies) * ((logf[first] + logf[last]) / 2.0)), 12)
    counts = np.add.reduceat(table.counts[order], first)
    row = np.flatnonzero(np.concatenate(([True], rounded[1:] != rounded[:-1])))
    return [(float(v), int(c)) for v, c in zip(rounded[row], np.add.reduceat(counts, row))]


def _dp(space: ImageSpace, points):
    """The classed route of (probe, family, ns) points that share one block
    structure on a uniform full/cpf/bcpf space: the plan and final states
    of its DP and its block fidelities (a lut key -> (point, lut entry)
    map).  ``evaluate_points`` replays the plan with entries per state,
    ``bound_reports`` with sums.

    A block's lut key is its signature under each distinct probe of the
    sweep, so blocks whose numbers agree at every point share one lut:
    channel labels enter no block fidelity.  Disjoint blocks take the
    counting DP over blocks, overlapping ones the frontier DP over
    channels.  Each lut key's fidelities come from one batch over every
    point and the local pairs the plan reads.  Replayed with entries, log F
    sums one block log-fidelity per block in block order, so pairs whose
    blocks read the same local pairs reach the same float.  More DP states
    or entries than a dense table may hold raise CapacityError."""
    probe = points[0][0]
    families = [family for _, family, _ in points]
    # a sweep's points share few probe objects, so blocks are grouped once per probe
    probes: dict[int, tuple[int, ProbeSpec]] = {}
    index = [probes.setdefault(id(p), (len(probes), p))[0] for p, *_ in points]
    descs, blocks = {}, []
    for per_probe in zip(*(p.blocks for _, p in probes.values())):
        # the family is the same for every block of a point, so one stands for all
        key = tuple(block_signature(desc, families[0]) for desc in per_probe)
        descs.setdefault(key, [per_probe[i] for i in index])
        blocks.append((key, per_probe[0].channels))
    if probe.disjoint:
        dp_plan, final, codes = counting_plan([(key, len(ch)) for key, ch in blocks], space.m, space.target_counts)
    else:
        dp_plan, final, codes = frontier_plan(blocks, space.m, space.target_counts, _state_cap())
    fids = {key: block_fidelities(list(zip(descs[key], families)), local_pairs(read, len(descs[key][0].channels)))
            for key, read in codes.items()}
    return dp_plan, final, fids


def _fields(probe: ProbeSpec, method: str) -> dict:
    """The table fields of ``probe`` on the route ``method``: mutual
    probing, with the probe and its number of disjoint rounds, for
    overlapping blocks."""
    if probe.disjoint:
        return {"method": method}
    rounds = decompose_rounds(tuple(blk.channels for blk in probe.blocks))
    return {"method": "mutual", "probe": probe, "rounds": len(rounds)}


def _rows(copies) -> tuple[np.ndarray, np.ndarray]:
    """The copy number and the point of each (point, copy number) row: the
    rows of each point in the order of its list in ``copies``."""
    power = np.array([float(c) for cs in copies for c in cs])
    if (power < 1).any():
        raise ValueError(f"copy number must be >= 1, got {power.min()}")
    return power, np.repeat(np.arange(len(copies)), [len(cs) for cs in copies])


def _plan_columns(n: int, plan, final, fids, fields: dict, power, point) -> BoundColumns:
    """The bounds over n patterns of the rows of ``_rows``, whose sums
    of F^M and F^(2M) over the ordered pattern pairs that differ come from
    replaying ``plan``; ``fids`` as ``_dp`` gives them, ``fields`` as ``_fields``.

    A (point, copy number) row is an F^M and an F^(2M) column; the block
    factors of a column are f^M and f^(2M) of its point's fidelities.  The
    rows are independent of each other and of the keys, so they run in
    chunks whose states x rows stay within BATCH_MAX_FLOATS, each chunk
    over the same plan, and every sum adds in a fixed order, so a row's
    value does not depend on the rows that ran with it.
    """
    # columns F^M of each row, then F^2M of each row; no points, no blocks: an empty plan
    per_chunk = max(1, BATCH_MAX_FLOATS // (2 * max((len(parent) for parent, *_ in plan), default=1)))
    sums = []
    for start in range(0, len(power), per_chunk):
        rows = slice(start, start + per_chunk)
        cols, col_point = np.concatenate((power[rows], 2.0 * power[rows])), np.tile(point[rows], 2)
        luts = {key: f[col_point].T ** cols for key, f in fids.items()}
        sums.append(replay_sums(plan, final, luts).reshape(2, -1))
    s1, s2 = np.concatenate(sums, axis=1) if sums else np.empty((2, 0))
    return _checked_columns(power, _m_bar(fields.get("probe"), power), 0.5 * s2 / n**2, s1 / n,
                            fields["method"], fields.get("rounds"))


def _state_cap() -> int:
    """The most states or entries a DP may hold: the entries of the largest
    dense table."""
    return BLOCK_TABLE_MAX_PATTERNS**2 // 2


def fidelity_table_blocks(patterns, priors, descs, family: ChannelFamily, *, method="blocks",
                          **fields) -> FidelityTable:
    """Dense table from per-block fidelity lookups (any space, any priors),
    with the table ``fields`` given.

    A pair's log F sums one looked-up block log-fidelity per block, in
    block order.
    """
    n = len(patterns)
    if n > BLOCK_TABLE_MAX_PATTERNS:
        raise CapacityError(f"dense block table capped at {BLOCK_TABLE_MAX_PATTERNS} patterns")
    lookups = []
    for desc in descs:
        locals_ = [tuple(p[c] for c in desc.channels) for p in patterns]
        uniq = sorted(set(locals_))
        index = {lp: a for a, lp in enumerate(uniq)}
        fids = block_fidelities([(desc, family)], [(la, lb) for la in uniq for lb in uniq])[0]
        lut = np.array([_log(f) for f in fids.tolist()]).reshape(len(uniq), len(uniq))
        lookups.append((lut, np.array([index[lp] for lp in locals_])))
    logf = _pair_entries(n, lambda i: sum(lut[code[i], code[i + 1:]] for lut, code in lookups))
    return FidelityTable.pairs(n, logf, priors, method=method, **fields)


def bruteforce_fidelities(patterns, spec: ProbeSpec, family: ChannelFamily) -> np.ndarray:
    """Full-state output fidelities of the pattern pairs i < j, in row-major
    order; the slow reference path.

    No block factorisation and no degeneracy grouping: the channels of
    ``layout_channels`` act on the complete probe state for every pattern
    in one stacked step, and every pair runs through one
    ``stacked_fidelities`` call, so each value equals ``gaussian_fidelity``
    of the two ``probe.output`` states bit for bit.  That call evaluates each distinct canonical pair
    once: pairs that are mirror images under a symmetry of the probe share
    one evaluation.  Patterns are checked as ``probe.output`` checks them.
    """
    patterns = list(patterns)
    n = len(patterns)
    if n > BRUTE_TABLE_MAX_PATTERNS:
        raise CapacityError(f"brute-force table capped at {BRUTE_TABLE_MAX_PATTERNS} patterns")
    probe = assemble_probe(spec)
    taus, nus = layout_channels(family, probe.layout, patterns)
    data, means = mode_channel_map(probe.cm.data, probe.cm.mean, taus, nus)
    first, second = np.triu_indices(n, 1)
    return stacked_fidelities(data, means, list(zip(first.tolist(), second.tolist())))


def fidelity_table_bruteforce(space_patterns, priors, spec: ProbeSpec, family: ChannelFamily) -> FidelityTable:
    """Dense table from full-state fidelities (see ``bruteforce_fidelities``)."""
    patterns = list(space_patterns)
    return FidelityTable.from_fidelities(len(patterns), bruteforce_fidelities(patterns, spec, family), priors)


def per_channel_classical_fidelity(family: ChannelFamily, ns: float) -> float:
    """Single-copy output fidelity of the optimal classical probe of one channel."""
    if family.kind == PURE_LOSS:
        if ns is None:
            raise EnergyError("the optimal classical probe of pure loss needs an energy ns")
        return coherent_loss_fidelity(family.background.tau, family.target.tau, ns)
    if family.kind == ADDITIVE:
        return vacuum_additive_fidelity(family.background.nu, family.target.nu)
    raise UnsupportedBenchmarkError(
        f"no optimal classical benchmark is defined for {family.kind!r} patterns"
    )


def evaluate(probe: ProbeSpec | str, space: ImageSpace, family: ChannelFamily, *, ns=None) -> FidelityTable:
    """The fidelity table of one probe configuration, for every copy number:
    the one-point case of ``evaluate_points``.  ``ns`` is the energy of the
    optimal classical probe."""
    return evaluate_points(space, [(probe, family, ns)])[0]


def _structure(probe: ProbeSpec | str):
    """What the points of one ``evaluate_points`` call share: the channels
    and idlers of the probe's blocks, not their numbers."""
    return probe if probe == CLASSICAL else (probe.m, [(blk.channels, blk.idlers) for blk in probe.blocks])


def _check_points(space: ImageSpace, points) -> ProbeSpec | str:
    """The probe that ``points`` share, checked against ``space``; see
    ``evaluate_points``.  A probe over another number of channels than the
    space raises DimensionError."""
    probe = points[0][0]
    structure = _structure(probe)
    # a sweep's points share few probe objects
    if any(_structure(p) != structure for p in {id(p): p for p, *_ in points}.values()):
        raise ValueError("the points of one evaluation must share the probe structure")
    if probe != CLASSICAL and probe.m != space.m:
        raise DimensionError(f"probe over m={probe.m} but space has m={space.m}")
    return probe


def evaluate_points(space: ImageSpace, points) -> list[FidelityTable]:
    """The fidelity tables of probe configurations that differ only in the
    channels and the numbers of their blocks, one per (probe, family, ns)
    point, each equal bit for bit to the table of its point alone.  A
    point's probe is a ProbeSpec, or CLASSICAL for the optimal classical
    probe at energy ``ns``.

    On a uniform full/cpf/bcpf space each point replays the plan of its
    DP (``_dp``) with (log F, ordered pair count) entries per state,
    merged by state and log F at every step (classed); these are the
    tables that ``census`` and ``validate`` read, while ``bound_reports``
    sums the bounds of the same DPs without them.  On any other space:
    per-block lookups (dense, ``_dense_table``), per point, over the
    blocks as they sit, overlapping or not, with no copy-channel
    extension.  The optimal classical probe gets the Hamming census, which
    factors per channel so that a pair at distance d has fidelity f^d.
    """
    if not points:
        return []
    probe = _check_points(space, points)
    if probe == CLASSICAL:
        table, logfs = _classical(space, points)
        return [FidelityTable(table.n_patterns, table.counts, table.logf * lf, table.weights, method="classical")
                for lf in logfs]
    if not counting_applies(space):
        return [_dense_table(space, point) for point in points]
    dp_plan, final, fids = _dp(space, points)
    tables = []
    for k, (p, *_) in enumerate(points):
        luts = {key: np.array([_log(f) for f in f_all[k].tolist()]) for key, f_all in fids.items()}
        logf, cnt = replay_entries(dp_plan, final, luts, _state_cap())
        tables.append(FidelityTable(len(space), cnt.astype(float), logf, **_fields(p, "counting")))
    return tables


def _dense_table(space: ImageSpace, point) -> FidelityTable:
    """The dense table of one (probe, family, ns) point on a custom space,
    from per-block lookups (``fidelity_table_blocks``)."""
    probe, family, _ = point
    priors = None if space.uniform else space.priors
    return fidelity_table_blocks(space.patterns, priors, probe.blocks, family, **_fields(probe, "blocks"))


def _classical(space: ImageSpace, points) -> tuple[FidelityTable, list[float]]:
    """The optimal classical probe's per-channel log-fidelity at each
    (probe, family, ns) point, and its table with each pair's Hamming
    distance d in place of log F: the probe factors per channel, so the
    pair's fidelity is f^d.  The Hamming census on uniform full/cpf/bcpf
    spaces, one entry per unordered pair otherwise."""
    logfs = [_log(per_channel_classical_fidelity(family, ns)) for _, family, ns in points]
    if counting_applies(space):
        return FidelityTable(len(space), *hamming_census(space.m, space.target_counts), method="classical"), logfs
    n = len(space)
    if n > BLOCK_TABLE_MAX_PATTERNS:
        raise CapacityError("classical dense table too large")
    bits = np.array(space.patterns, dtype=np.uint8)
    dists = _pair_entries(n, lambda i: (bits[i] != bits[i + 1:]).sum(axis=1))
    return FidelityTable.pairs(n, dists, None if space.uniform else space.priors, method="classical"), logfs


def bound_reports(space: ImageSpace, points, copies) -> BoundColumns:
    """The bounds of probe configurations of one structure, one row per
    (probe, family, ns) point (as ``evaluate_points``) and copy number in
    the point's list in ``copies``: the rows of the first point, in the
    order of its copy numbers, then those of the next.

    The route is that of ``evaluate_points``, read with sums.  On a uniform
    full/cpf/bcpf space a probe sums its bounds straight from the plan of
    its DP (``_dp``), with no table.  The classical probe reads one
    distance table for the whole sweep, every (point, copy number) row at
    its point's per-channel log-fidelity.  Every other probe on a custom
    space reads dense tables (``_dense_table``), one at a time, each read
    at all its copy numbers before the next is built.  Each route
    range-checks its rows once.
    """
    if not points:
        return BoundColumns(*np.empty((4, 0)), method=None)
    probe = _check_points(space, points)
    power, point = _rows(copies)
    if probe == CLASSICAL:
        table, logfs = _classical(space, points)
        lower, upper = _sum_columns(_table_sums(table, power, np.array(logfs)[point]))
        return _checked_columns(power, power, lower, upper, "classical")
    if counting_applies(space):
        return _plan_columns(len(space), *_dp(space, points), _fields(probe, "counting"), power, point)
    sums = []
    for k, p in enumerate(points):
        table = _dense_table(space, p)
        sums += _table_sums(table, power[point == k])
    return _checked_columns(power, _m_bar(table.probe, power), *_sum_columns(sums), table.method, table.rounds)


def _sum_columns(sums: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """The lower and the upper column of ``_table_sums`` rows."""
    return tuple(np.array(sums, dtype=float).reshape(-1, 2).T)


# ---------------------------------------------------------------------------
# top-level bound computations


def _tmsv_pair_fidelities(family: ChannelFamily, mu: float) -> list[float]:
    """The sub-fidelities f01, f12, f11, f02 of the paired-TMSV sums, in one
    batch (as ``tmsv_subfidelity``)."""
    classes = ((0, 1, 1), (1, 2, 1), (1, 1, 2), (0, 2, 2))
    pairs = [representative_local_patterns(2, v, u, d) for v, u, d in classes]
    return block_fidelities([(BlockDescriptor("ghz", (0, 1), mu=mu), family)], pairs)[0].tolist()


def _pair_excess(fids: list[float], power: float) -> float:
    """f01^p + f12^p + (f11^p + f02^p)/2 of ``_tmsv_pair_fidelities``: the
    per-pair factor of the paired-TMSV sums minus its identical-pair 1,
    formed without that 1."""
    f01, f12, f11, f02 = fids
    return f01**power + f12**power + (f11**power + f02**power) / 2.0


def bounds_tmsv_pairs(family: ChannelFamily, mu: float, copies, m: int) -> BoundReport:
    """Closed-form bounds for disjoint two-mode blocks over the full uniform
    space of an even-length pattern: (1 + s)^(m/2) - 1, with s the pair
    excess (see ``_tmsv_pairs_report``)."""
    if m % 2:
        raise PartitionError(f"the paired-TMSV closed form needs even m, got {m}")
    return _tmsv_pairs_report(family, mu, copies, m)


def bounds_tmsv_pairs_odd(
    family: ChannelFamily, mu: float, copies, m: int, strategy: str
) -> BoundReport:
    """Odd-m variant: paired blocks on m-1 channels plus a remainder term.

    The remainder channel contributes a factor (1 + F^M), where F is the
    fidelity of the last block of ``odd_m_disjoint_spec(m, mu, strategy)``
    between the background and the target channel: the idler-assisted
    (Choi) fidelity for ``single-idler``, the coherent-probe fidelity for
    ``hybrid-coherent``.
    """
    if m % 2 == 0 or m < 3:
        raise PartitionError(f"odd-m closed form needs odd m >= 3, got {m}")
    remainder = odd_m_disjoint_spec(m, mu, strategy).blocks[-1]
    return _tmsv_pairs_report(family, mu, copies, m, block_subfidelity(remainder, family, 0, 1, 1))


def _tmsv_pairs_report(family: ChannelFamily, mu: float, copies, m: int, f_rem: float | None = None) -> BoundReport:
    """The paired-TMSV bounds of m // 2 pairs, times (1 + f_rem^M) for a
    remainder channel of fidelity ``f_rem``, less 1: the product minus 1 is
    formed as expm1 of a sum of log1p terms, so that it does not cancel
    when the pair excess is tiny."""
    fids = _tmsv_pair_fidelities(family, mu)
    m_val = float(copies)

    def excess(power: float) -> float:
        log_prod = m // 2 * math.log1p(_pair_excess(fids, power))
        if f_rem is not None:
            log_prod += math.log1p(f_rem**power)
        return math.expm1(log_prod)

    ub = excess(m_val)
    lb = excess(2 * m_val) / 2 ** (m + 1)
    return _checked_report(m_val, m_val, lb, ub, "closed-form-d2")
