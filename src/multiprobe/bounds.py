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
per block and class suffices.  ``multiprobe.blocks`` evaluates the local
pattern pairs the routes need in one stacked batch per block over all
configurations and caches them; a class reads its representative pair.
On uniform position-finding spaces
a DP over blocks counts ordered pattern pairs per distinct log-fidelity
from occupancy multiplicities, and overlapping blocks are counted by a DP
over channels that keeps the bits of the channels still read, both
without enumerating patterns.  Each DP is one plan of key transitions
that depends on no fidelity (``multiprobe.dp``): the table replays it with
(log F, count) entries per state, the sums with count * F^M and
count * F^(2M) per state.
Custom spaces get one entry per unordered pattern pair from per-block
lookups, which read each block's channels off the pattern whether or not
the blocks overlap, so overlapping blocks need no copy-channel extension.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ADDITIVE, PURE_LOSS, ChannelFamily, layout_channels, mode_channel_map
from .closedform import coherent_loss_fidelity, vacuum_additive_fidelity
from .blocks import block_fidelities, block_signature, block_subfidelity, representative_local_patterns
from .dp import counting_plan, frontier_plan, local_pairs, replay_entries, replay_sums
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
from .presets import CLASSICAL, MUTUAL, ProbePlan
from .probes import (
    HYBRID_COHERENT,
    SINGLE_IDLER,
    BlockDescriptor,
    Partition,
    ProbeSpec,
    assemble_probe,
    average_channel_use,
    decompose_rounds,
)

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
    small M); ``lower``/``upper`` are clipped to [0, 1].  The routes
    range-check their reports together (``_checked_reports``).
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


def _checked_reports(rows: list, copies, method: str, rounds: int | None = None) -> list[list[BoundReport]]:
    """The reports of (M, m_bar, lower_raw, upper_raw) rows (see ``_rows``),
    one list per point, after one range check of them all: NumericError for
    the first row whose sums are not finite, whose lower bound is negative
    beyond rounding, or whose upper bound falls below it."""
    for *_, lower, upper in rows:
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise NumericError("bound sums are not finite")
        if lower < -1e-12:
            raise NumericError(f"negative lower bound {lower}")
        if upper < lower - 1e-12:
            raise NumericError("upper bound fell below lower bound")
    reports = iter([BoundReport(lb, ub, c, mb, method, rounds) for c, mb, lb, ub in rows])
    return [list(itertools.islice(reports, len(cs))) for cs in copies]


def guaranteed_advantage(classical: BoundReport, quantum: BoundReport) -> float:
    """Classical lower bound minus quantum upper bound (clipped values).

    Positive values certify quantum advantage.  Both reports must refer to
    the same average channel use.
    """
    if not math.isclose(classical.m_bar, quantum.m_bar, rel_tol=1e-12, abs_tol=0.0):
        raise ComparabilityError(
            f"average channel use differs: {classical.m_bar} vs {quantum.m_bar}"
        )
    return classical.lower - quantum.upper


# ---------------------------------------------------------------------------
# per-block fidelity classes


def tmsv_subfidelity(family: ChannelFamily, mu: float, v: int, u: int, d: int) -> float:
    """Numeric two-mode sub-fidelity F_{vu}(d) for a bare TMSV probe."""
    desc = BlockDescriptor("ghz", (0, 1), 0, mu=mu)
    return block_subfidelity(desc, family, v, u, d)


# ---------------------------------------------------------------------------
# fidelity tables


@functools.lru_cache(maxsize=None)
def _block_occupancy_options(size: int, v: int, u: int) -> tuple[tuple[int, int], ...]:
    """(d, multiplicity) for ordered sub-pattern pairs with v and u targets."""
    return tuple(
        (2 * t - (v + u), math.comb(size, t) * math.comb(t, u) * math.comb(u, v + u - t))
        for t in range(max(v, u), min(v + u, size) + 1)
    )


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
    overlapping ``partition``, which sets the average channel use, and the
    number of disjoint ``rounds``.
    """

    n_patterns: int
    counts: np.ndarray
    logf: np.ndarray
    weights: np.ndarray | None = None
    method: str = "brute"
    partition: Partition | None = None
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
    mutual-probing table.
    """
    m_val = float(copies)
    if m_val < 1:
        raise ValueError(f"copy number must be >= 1, got {copies}")
    ((lb, ub),) = _table_sums(table, np.array([m_val]))
    m_bar = _m_bar(table.partition, copies) if m_bar is None else float(m_bar)
    return _checked_reports([(m_val, m_bar, lb, ub)], [[copies]], table.method, table.rounds)[0][0]


def _m_bar(partition: Partition | None, copies) -> float:
    """The average channel use at ``copies``: M, or (m + l) / m * M for a
    mutual-probing ``partition``."""
    return float(copies if partition is None else average_channel_use(partition, copies))


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
    """The classed route of (plan, family, ns, mu) points that share one
    probe structure on a uniform full/cpf/bcpf space: the plan and final
    states of its DP, its block fidelities (a lut key -> (point, lut entry)
    map, from one batch per key over every point) and the fields of its
    tables.  A mutual plan takes the frontier DP over channels, a disjoint
    one the counting DP over blocks.  ``evaluate_points`` replays the plan
    with entries per state, ``bound_reports`` with sums."""
    plan = points[0][0]
    if plan.route == MUTUAL:
        return (*_frontier(space, plan.partition, [(family, mu) for _, family, _, mu in points]),
                _mutual_fields(plan.partition))
    return (*_counting(space, [(p.spec, family) for p, family, _, _ in points]), {"method": "counting"})


def _mutual_fields(partition: Partition) -> dict:
    """The table fields of mutual probing over ``partition``."""
    return {"method": "mutual", "partition": partition, "rounds": len(decompose_rounds(partition))}


def _counting(space: ImageSpace, points):
    """The plan of the counting DP of the points' shared blocks on
    ``space`` (see ``dp.counting_plan``) and, per group of blocks with the
    same signatures, the (point, representative pair) fidelities of every
    (spec, family) point, from one batch (as ``block_subfidelity``).  A
    sweep's points share few specs, so blocks are grouped once per spec.

    Replayed with entries, log F sums one class fidelity per block in block
    order, so pairs whose blocks fall in the same classes reach the same
    float; replayed with sums, adding a block multiplies them by the class
    count and the block's f^M and f^(2M)."""
    specs: dict[ProbeSpec, int] = {}
    index = [specs.setdefault(spec, len(specs)) for spec, _ in points]
    groups: dict[tuple, tuple] = {}  # signatures -> the block's descriptor under each spec
    blocks = []
    for descs in zip(*(spec.descriptors() for spec in specs)):
        # the family is the same for every block of a point, so one stands for all
        shape = tuple(block_signature(desc, points[0][1]) for desc in descs)
        groups.setdefault(shape, descs)
        blocks.append((shape, len(descs[0].channels)))
    ks = space.target_counts
    classes = {size: _block_classes(size, space.m, min(ks), max(ks)) for _, size in blocks}
    plan, final = counting_plan(blocks, {size: arrays for size, (arrays, _) in classes.items()}, space.m, ks)
    fids = {
        shape: block_fidelities([(descs[i], family) for i, (_, family) in zip(index, points)],
                                classes[len(descs[0].channels)][1])
        for shape, descs in groups.items()
    }
    return plan, final, fids


@functools.lru_cache(maxsize=None)
def _block_classes(size: int, m: int, kmin: int, kmax: int):
    """The ordered (v, u, d) classes of a block of ``size`` channels that a
    pattern pair with kmin..kmax targets over m channels can pass through,
    as arrays v, u, d, ordered sub-pattern pair counts and the index of
    each class's representative local pair (as ``block_subfidelity``),
    then the distinct pairs.  (v, u, d) and (u, v, d) share one.  Cached,
    so the arrays are read-only."""
    # a block holds at most kmax targets, and the other m - size channels at most m - size
    targets = range(max(0, kmin - (m - size)), min(size, kmax) + 1)
    classes = [
        (v, u, d, count)
        for v in targets
        for u in targets
        for d, count in _block_occupancy_options(size, v, u)
    ]
    index: dict[tuple, int] = {}
    pair = [index.setdefault((min(v, u), max(v, u), d), len(index)) for v, u, d, _ in classes]
    pairs = tuple(representative_local_patterns(size, *vud) for vud in index)
    arrays = (*np.array(classes, dtype=np.int64).T, np.array(pair))
    for array in arrays:
        array.flags.writeable = False
    return arrays, pairs


def _rows(copies) -> tuple[np.ndarray, np.ndarray]:
    """The copy number and the point of each (point, copy number) row: the
    rows of each point in the order of its list in ``copies``."""
    power = np.array([float(c) for cs in copies for c in cs])
    if (power < 1).any():
        raise ValueError(f"copy number must be >= 1, got {power.min()}")
    return power, np.repeat(np.arange(len(copies)), [len(cs) for cs in copies])


def _plan_reports(n: int, plan, final, fids, fields: dict, copies):
    """The reports over n patterns of each row (see ``_rows``), whose sums
    of F^M and F^(2M) over the ordered pattern pairs that differ come from
    replaying ``plan``; ``fids`` and ``fields`` as ``_dp`` gives them.

    A (point, copy number) row is an F^M and an F^(2M) column; the block
    factors of a column are f^M and f^(2M) of its point's fidelities.  The
    rows are independent of each other and of the keys, so they run in
    chunks whose states x rows stay within BATCH_MAX_FLOATS, each chunk
    over the same plan, and every sum adds in a fixed order, so a row's
    value does not depend on the rows that ran with it.
    """
    power, point = _rows(copies)
    # columns F^M of each row, then F^2M of each row; no points, no blocks: an empty plan
    per_chunk = max(1, BATCH_MAX_FLOATS // (2 * max((len(parent) for parent, *_ in plan), default=1)))
    sums = []
    for start in range(0, len(power), per_chunk):
        rows = slice(start, start + per_chunk)
        cols, col_point = np.concatenate((power[rows], 2.0 * power[rows])), np.tile(point[rows], 2)
        luts = {key: f[col_point].T ** cols for key, f in fids.items()}
        sums += replay_sums(plan, final, luts).reshape(2, -1).T.tolist()
    partition = fields.get("partition")
    rows = [(c, _m_bar(partition, c), 0.5 * s2 / n**2, s1 / n) for c, (s1, s2) in zip(power.tolist(), sums)]
    return _checked_reports(rows, copies, fields["method"], fields.get("rounds"))


def _frontier(space: ImageSpace, partition: Partition, points):
    """The plan of the frontier DP of ``partition`` on ``space`` (see
    ``dp.frontier_plan``) and, per block size, the (point, reachable local
    pair) fidelities of every (family, mu) point, from one batch.

    Replayed with entries, a new state takes every entry of its parent plus
    the log-fidelities of the blocks added at that channel in block order,
    so log F is the same float as the dense route's entry; replayed with
    sums, adding a block multiplies them by its f^M and f^(2M).  More
    states or entries than a dense table may hold raise CapacityError."""
    plan, final, reach = frontier_plan(partition, space.target_counts, _state_cap())
    fids = {}
    for size, (blk, codes) in reach.items():
        descs = {mu: BlockDescriptor("ghz", blk, mu=mu) for mu in dict.fromkeys(mu for _, mu in points)}
        fids[size] = block_fidelities([(descs[mu], family) for family, mu in points], local_pairs(codes, size))
    return plan, final, fids


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


def evaluate(plan: ProbePlan, space: ImageSpace, family: ChannelFamily, *, ns=None, mu=None) -> FidelityTable:
    """The fidelity table of one probe configuration, for every copy number:
    the one-point case of ``evaluate_points``.  ``ns`` is the energy of the
    optimal classical probe and ``mu`` the squeezing energy of the
    mutual-probing blocks."""
    return evaluate_points(space, [(plan, family, ns, mu)])[0]


def _structure(plan: ProbePlan) -> tuple:
    """What the points of one ``evaluate_points`` call share: the plan
    without its energy."""
    spec = plan.spec
    blocks = None if spec is None else (spec.m, spec.blocks, spec.idlers, [c for c, _ in spec.coherent])
    return plan.route, plan.partition, blocks


def _check_points(space: ImageSpace, points) -> ProbePlan:
    """The plan that ``points`` share, checked against ``space``; see
    ``evaluate_points``.  A probe over another number of channels than the
    space raises DimensionError, a partition PartitionError, as do idlers
    on the blocks of a mutual plan, which its routes do not read."""
    plan = points[0][0]
    structure = _structure(plan)
    # a sweep's points share few plan objects
    if any(_structure(p) != structure for p in {id(p): p for p, *_ in points}.values()):
        raise ValueError("the points of one evaluation must share the probe structure")
    if plan.route == MUTUAL and any(mu is None for *_, mu in points):
        raise EnergyError("mutual probing needs a squeezing energy mu")
    if plan.partition is not None and plan.partition.m != space.m:
        raise PartitionError(f"partition over m={plan.partition.m} does not match space m={space.m}")
    if plan.route == MUTUAL and any(plan.partition.idlers):
        raise PartitionError("mutual probing takes no idlers")
    if plan.spec is not None and plan.spec.m != space.m:
        raise DimensionError(f"probe over m={plan.spec.m} but space has m={space.m}")
    return plan


def evaluate_points(space: ImageSpace, points) -> list[FidelityTable]:
    """The fidelity tables of probe configurations that differ only in the
    channels and the energy, one per (plan, family, ns, mu) point, each
    equal bit for bit to the table of its point alone.

    On a uniform full/cpf/bcpf space each point replays the plan of its
    DP (``_dp``) with (log F, ordered pair count) entries per state,
    merged by state and log F at every step (classed); these are the
    tables that ``census`` and ``validate`` read, while ``bound_reports``
    sums the bounds of the same DPs without them.  On any other space:
    per-block lookups (dense, ``_dense_table``), per point, over the
    blocks as they sit, overlapping or not, with no copy-channel
    extension.  The optimal classical probe at energy ``ns`` gets the
    Hamming census, which factors per channel so that a pair at distance
    d has fidelity f^d.  ``mu`` is the squeezing energy of the
    mutual-probing blocks; a disjoint plan carries its own.
    """
    if not points:
        return []
    plan = _check_points(space, points)
    if plan.route == CLASSICAL:
        table, logfs = _classical(space, points)
        return [FidelityTable(table.n_patterns, table.counts, table.logf * lf, table.weights, method="classical")
                for lf in logfs]
    if not counting_applies(space):
        return [_dense_table(space, point) for point in points]
    dp_plan, final, fids, fields = _dp(space, points)
    tables = []
    for k in range(len(points)):
        luts = {key: np.array([_log(f) for f in f_all[k].tolist()]) for key, f_all in fids.items()}
        logf, cnt = replay_entries(dp_plan, final, luts, _state_cap())
        tables.append(FidelityTable(len(space), cnt.astype(float), logf, **fields))
    return tables


def _dense_table(space: ImageSpace, point) -> FidelityTable:
    """The dense table of one (plan, family, ns, mu) point on a custom
    space, from per-block lookups (``fidelity_table_blocks``)."""
    plan, family, _, mu = point
    priors = None if space.uniform else space.priors
    if plan.route == MUTUAL:
        descs = [BlockDescriptor("ghz", blk, mu=mu) for blk in plan.partition.blocks]
        return fidelity_table_blocks(space.patterns, priors, descs, family, **_mutual_fields(plan.partition))
    return fidelity_table_blocks(space.patterns, priors, plan.spec.descriptors(), family)


def _classical(space: ImageSpace, points) -> tuple[FidelityTable, list[float]]:
    """The optimal classical probe's per-channel log-fidelity at each
    (plan, family, ns, mu) point, and its table with each pair's Hamming
    distance d in place of log F: the probe factors per channel, so the
    pair's fidelity is f^d.  The Hamming census on uniform full/cpf/bcpf
    spaces, one entry per unordered pair otherwise."""
    logfs = [_log(per_channel_classical_fidelity(family, ns)) for _, family, ns, _ in points]
    if counting_applies(space):
        return FidelityTable(len(space), *_hamming_census(space.m, space.target_counts), method="classical"), logfs
    n = len(space)
    if n > BLOCK_TABLE_MAX_PATTERNS:
        raise CapacityError("classical dense table too large")
    bits = np.array(space.patterns, dtype=np.uint8)
    dists = _pair_entries(n, lambda i: (bits[i] != bits[i + 1:]).sum(axis=1))
    return FidelityTable.pairs(n, dists, None if space.uniform else space.priors, method="classical"), logfs


@functools.lru_cache(maxsize=None)
def _hamming_census(m: int, target_counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pattern pair counts and their Hamming distances d > 0 on a
    uniform full/cpf/bcpf space: one block over all m channels, keyed like
    the per-block classes.  Cached, so the arrays are read-only."""
    census: dict[tuple[int, int, int], int] = {}
    for v in target_counts:
        for u in target_counts:
            for d, count in _block_occupancy_options(m, v, u):
                if d:
                    key = (min(v, u), max(v, u), d)
                    census[key] = census.get(key, 0) + count
    arrays = (np.fromiter(census.values(), dtype=float, count=len(census)),
              np.fromiter((key[2] for key in census), dtype=float, count=len(census)))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def bound_reports(space: ImageSpace, points, copies) -> list[list[BoundReport]]:
    """The bound reports of probe configurations of one structure, one list
    per (plan, family, ns, mu) point (as ``evaluate_points``) with one
    report per copy number in the matching list of ``copies``.

    The route is that of ``evaluate_points``, read with sums.  On a uniform
    full/cpf/bcpf space a probe sums its bounds straight from the plan of
    its DP (``_dp``), with no table.  The classical probe reads one
    distance table for the whole sweep, every (point, copy number) row at
    its point's per-channel log-fidelity.  Every other probe on a custom
    space reads dense tables (``_dense_table``), one at a time, each read
    at all its copy numbers before the next is built.  Each route
    range-checks its reports once.
    """
    if not points:
        return []
    plan = _check_points(space, points)
    if plan.route == CLASSICAL:
        table, logfs = _classical(space, points)
        power, point = _rows(copies)
        sums = _table_sums(table, power, np.array(logfs)[point])
        return _checked_reports([(c, c, lb, ub) for c, (lb, ub) in zip(power.tolist(), sums)], copies, "classical")
    if counting_applies(space):
        return _plan_reports(len(space), *_dp(space, points), copies)
    power, point = _rows(copies)
    rows = []
    for k, (p, cs) in enumerate(zip(points, copies)):
        table = _dense_table(space, p)
        sums = _table_sums(table, power[point == k])
        rows += [(float(c), _m_bar(table.partition, c), lb, ub) for c, (lb, ub) in zip(cs, sums)]
    return _checked_reports(rows, copies, table.method, table.rounds)


# ---------------------------------------------------------------------------
# top-level bound computations


def _tmsv_pair_fidelities(family: ChannelFamily, mu: float) -> list[float]:
    """The sub-fidelities f01, f12, f11, f02 of the paired-TMSV sums, in one
    batch (as ``tmsv_subfidelity``)."""
    desc = BlockDescriptor("ghz", (0, 1), 0, mu=mu)
    classes = ((0, 1, 1), (1, 2, 1), (1, 1, 2), (0, 2, 2))
    pairs = [representative_local_patterns(2, v, u, d) for v, u, d in classes]
    return block_fidelities([(desc, family)], pairs)[0].tolist()


def _pair_excess(fids: list[float], power: float) -> float:
    """f01^p + f12^p + (f11^p + f02^p)/2 of ``_tmsv_pair_fidelities``: the
    per-pair factor of the paired-TMSV sums minus its identical-pair 1,
    formed without that 1."""
    f01, f12, f11, f02 = fids
    return f01**power + f12**power + (f11**power + f02**power) / 2.0


def bounds_tmsv_pairs(family: ChannelFamily, mu: float, copies, m: int) -> BoundReport:
    """Closed-form bounds for disjoint two-mode blocks over the full uniform
    space of an even-length pattern: (1 + s)^(m/2) - 1, with s the pair
    excess, evaluated as expm1((m/2) log1p(s)) so that it does not cancel
    when s is tiny."""
    if m % 2:
        raise PartitionError(f"the paired-TMSV closed form needs even m, got {m}")
    m_val = float(copies)
    fids = _tmsv_pair_fidelities(family, mu)

    def d_even(power: float) -> float:
        return math.expm1(m / 2 * math.log1p(_pair_excess(fids, power)))

    ub = d_even(m_val)
    lb = d_even(2 * m_val) / 2 ** (m + 1)
    return _checked_reports([(m_val, m_val, lb, ub)], [[copies]], "closed-form-d2")[0][0]


def bounds_tmsv_pairs_odd(
    family: ChannelFamily, mu: float, copies, m: int, strategy: str
) -> BoundReport:
    """Odd-m variant: paired blocks on m-1 channels plus a remainder term.

    The remainder channel contributes a factor (1 + F^M) where F is the
    idler-assisted (Choi) fidelity or the coherent-probe fidelity; the
    product minus 1 is again formed through log1p/expm1.
    """
    if m % 2 == 0 or m < 3:
        raise PartitionError(f"odd-m closed form needs odd m >= 3, got {m}")
    if strategy == SINGLE_IDLER:
        desc = BlockDescriptor("ghz", (0,), 1, mu=mu)
    elif strategy == HYBRID_COHERENT:
        desc = BlockDescriptor("coherent", (0,), alpha=float(np.sqrt(mu - 0.5)))
    else:
        raise ValueError(f"unknown odd-m strategy {strategy!r}")
    f_rem = block_subfidelity(desc, family, 0, 1, 1)
    fids = _tmsv_pair_fidelities(family, mu)
    m_val = float(copies)

    def d_odd(power: float) -> float:
        return math.expm1(
            math.log1p(f_rem**power) + (m - 1) / 2 * math.log1p(_pair_excess(fids, power))
        )

    ub = d_odd(m_val)
    lb = d_odd(2 * m_val) / 2 ** (m + 1)
    return _checked_reports([(m_val, m_val, lb, ub)], [[copies]], "closed-form-d2")[0][0]
