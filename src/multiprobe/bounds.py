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
- Sums: on uniform full/cpf/bcpf spaces, ``counting_bounds`` (disjoint
  blocks) and ``frontier_bounds`` (overlapping blocks: the ``nn`` ring,
  ``part:`` literals) sum F^M and F^(2M) per configuration and copy
  number, with no entry per distinct log F.

``bound_reports`` picks the route for a sweep: the sums where they apply,
the tables otherwise; the census and ``evaluate`` always build tables.
Fidelities of block-structured probes factor over blocks and are
degenerate within per-block (v, u, d) classes, so one Gaussian fidelity
per block and class suffices.  ``block_fidelities`` evaluates the local
pattern pairs the routes need in one stacked batch per block over all
configurations and caches them per block signature and unordered pair; a
class reads its representative pair.  On uniform position-finding spaces
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
import math
from dataclasses import dataclass

import numpy as np

from .channels import ADDITIVE, PURE_LOSS, ChannelFamily, check_pattern, mode_channel_map
from .closedform import coherent_loss_fidelity, vacuum_additive_fidelity
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
from .gaussian import coherent_cm, ghz_cm, stacked_fidelities
from .imagespace import ImageSpace
from .presets import CLASSICAL, DISJOINT, MUTUAL, ProbePlan
from .probes import (
    HYBRID_COHERENT,
    SINGLE_IDLER,
    BlockDescriptor,
    NonDisjointPartition,
    ProbeSpec,
    assemble_probe,
    average_channel_use,
    decompose_rounds,
)

BRUTE_TABLE_MAX_PATTERNS = 512
BLOCK_TABLE_MAX_PATTERNS = 4096
# Floats in one temporary of a batch over grid points: the covariance-matrix
# entries of one stacked block batch, or the bound sums' states x columns.
# Larger batches run in chunks; the results do not depend on it.
BATCH_MAX_FLOATS = 1 << 16


@dataclass
class BoundReport:
    """Lower/upper error-probability bounds plus resource accounting.

    Raw values are the bare fidelity sums (the upper one may exceed 1 for
    small M); ``lower``/``upper`` are clipped to [0, 1].
    """

    lower_raw: float
    upper_raw: float
    copies: float
    m_bar: float
    method: str
    rounds: int | None = None
    delta_perr: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.lower_raw) or not np.isfinite(self.upper_raw):
            raise NumericError("bound sums are not finite")
        if self.lower_raw < -1e-12:
            raise NumericError(f"negative lower bound {self.lower_raw}")
        if self.upper_raw < self.lower_raw - 1e-12:
            raise NumericError("upper bound fell below lower bound")

    @property
    def lower(self) -> float:
        return min(max(self.lower_raw, 0.0), 1.0)

    @property
    def upper(self) -> float:
        return min(max(self.upper_raw, 0.0), 1.0)


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


def representative_local_patterns(size: int, v: int, u: int, d: int):
    """A sub-pattern pair with v and u targets at Hamming distance d."""
    if (v + u - d) % 2:
        raise ValueError(f"class {(v, u, d)} has non-integer overlap")
    overlap = (v + u - d) // 2
    if overlap < 0 or overlap > min(v, u) or v + u - overlap > size:
        raise ValueError(f"class {(v, u, d)} impossible for block size {size}")
    pat_a = [0] * size
    pat_b = [0] * size
    for k in range(v):
        pat_a[k] = 1
    for k in range(overlap):
        pat_b[k] = 1
    for k in range(v, v + u - overlap):
        pat_b[k] = 1
    return tuple(pat_a), tuple(pat_b)


_BLOCK_FID_CACHE: dict[tuple, float] = {}


def _block_signature(desc: BlockDescriptor, family: ChannelFamily) -> tuple:
    """What a block's output fidelities depend on: not its channel labels."""
    b, t = family.background, family.target
    return (desc.kind, len(desc.channels), desc.idlers, desc.mu, desc.alpha,
            family.kind, b.tau, b.nu, t.tau, t.nu)


def block_fidelities(points, pairs) -> np.ndarray:
    """Output fidelities of one block at K points for local pattern pairs
    (a, b), as a (K, len(pairs)) array.

    ``points`` holds one (descriptor, family) per point; the descriptors
    differ at most in mu or alpha.  Values are cached per block signature
    and unordered pair.  The misses of all points are evaluated in one
    batch: one probe state per distinct energy, the channels act on every
    distinct local pattern in one stacked step (idlers pass), and the pairs
    run through ``stacked_fidelities`` in chunks of points of at most
    BATCH_MAX_FLOATS matrix entries, so each value equals
    ``gaussian_fidelity`` of the two output states bit for bit, and
    identical outputs give exactly 1.0.
    """
    sigs = [_block_signature(desc, family) for desc, family in points]
    ordered = [(a, b) if a <= b else (b, a) for a, b in pairs]
    distinct = sorted({pair for pair in ordered if pair[0] != pair[1]})
    missing: dict[tuple, tuple[int, list]] = {}  # signature -> (point, missing pairs)
    for k, sig in enumerate(sigs):
        if sig not in missing:
            missing[sig] = (k, [pair for pair in distinct if (sig, *pair) not in _BLOCK_FID_CACHE])
    todo = [(sig, k, miss) for sig, (k, miss) in missing.items() if miss]
    if todo:
        _fill_block_cache(points, todo)
    return np.array([[1.0 if a == b else _BLOCK_FID_CACHE[sig, a, b] for a, b in ordered] for sig in sigs])


def _fill_block_cache(points, todo) -> None:
    """Evaluate the missing pairs ``todo`` = [(signature, point, pairs)] of
    one block into the cache; see ``block_fidelities``."""
    desc = points[todo[0][1]][0]
    locals_ = sorted({lp for _, _, miss in todo for pair in miss for lp in pair})
    row = {lp: r for r, lp in enumerate(locals_)}
    bits = np.array(locals_, dtype=bool)
    states = {}  # one probe state per energy
    probes = []
    for _, k, _ in todo:
        d = points[k][0]
        energy = d.alpha if d.kind == "coherent" else d.mu
        if energy not in states:
            states[energy] = coherent_cm([d.alpha]) if d.kind == "coherent" else ghz_cm(d.n_modes, d.mu)
        probes.append(states[energy])
    fams = [points[k][1] for _, k, _ in todo]

    def per_point(values):
        return np.array(values)[:, None, None]

    def channel(attr, idler):
        """(points, local patterns, modes) of ``attr``; idler modes come first."""
        target = per_point([getattr(f.target, attr) for f in fams])
        background = per_point([getattr(f.background, attr) for f in fams])
        idle = np.full((len(todo), len(locals_), desc.idlers), idler)
        return np.concatenate([idle, np.where(bits, target, background)], axis=-1)

    taus, nus = channel("tau", 1.0), channel("nu", 0.0)  # idlers pass
    dim = 2 * desc.n_modes
    per_call = max(1, BATCH_MAX_FLOATS // (len(locals_) * dim * dim))
    for start in range(0, len(todo), per_call):
        stop = min(start + per_call, len(todo))
        data, means = mode_channel_map(
            np.stack([p.data for p in probes[start:stop]])[:, None],
            np.stack([p.mean for p in probes[start:stop]])[:, None],
            taus[start:stop],
            nus[start:stop],
        )
        pairs, keys = [], []
        for c, (sig, _, miss) in enumerate(todo[start:stop]):
            pairs += [(c * len(locals_) + row[a], c * len(locals_) + row[b]) for a, b in miss]
            keys += [(sig, a, b) for a, b in miss]
        fids = stacked_fidelities(data.reshape(-1, dim, dim), means.reshape(-1, dim), pairs)
        _BLOCK_FID_CACHE.update(zip(keys, fids.tolist()))


def block_subfidelity(desc: BlockDescriptor, family: ChannelFamily, v: int, u: int, d: int) -> float:
    """Single-copy output fidelity of one block for a (v, u, d) class.

    Degenerate within the class up to rounding, so one representative
    local pattern pair stands for it (see ``block_fidelities``).
    """
    if d == 0:
        return 1.0
    pair = representative_local_patterns(len(desc.channels), min(v, u), max(v, u), d)
    return float(block_fidelities([(desc, family)], [pair])[0, 0])


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
    partition: NonDisjointPartition | None = None
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
    if m_bar is None:
        m_bar = m_val if table.partition is None else average_channel_use(table.partition, copies)
    n = table.n_patterns
    fm = np.exp(m_val * table.logf)
    f2m = np.exp(2.0 * m_val * table.logf)
    if table.weights is None:
        ub = float(table.counts @ fm) / n
        lb = 0.5 * float(table.counts @ f2m) / n**2
    else:
        weighted = table.counts * table.weights
        ub = float(weighted @ fm)
        lb = 0.5 * float((weighted * table.weights) @ f2m)
    return BoundReport(
        lower_raw=lb,
        upper_raw=ub,
        copies=m_val,
        m_bar=float(m_bar),
        method=table.method,
        rounds=table.rounds,
    )


def census_histogram(table: FidelityTable, copies=1.0) -> list[tuple[float, int]]:
    """Degeneracy histogram: (F^copies rounded to 12 decimals, number of
    ordered pattern pairs), in ascending fidelity."""
    if not len(table.logf):
        return []
    # a stable sort and reduceat rather than np.unique, whose first call imports numpy.ma
    rounded = np.round(np.exp(float(copies) * table.logf), 12)
    order = np.argsort(rounded, kind="stable")
    rounded = rounded[order]
    first = np.flatnonzero(np.concatenate(([True], rounded[1:] != rounded[:-1])))
    return [(float(v), int(c)) for v, c in zip(rounded[first], np.add.reduceat(table.counts[order], first))]


def fidelity_table_counting(space: ImageSpace, points) -> list[FidelityTable]:
    """Classed tables of a disjoint probe by the counting DP over blocks,
    one per (spec, family) point; uniform position-finding spaces only.

    The specs share their blocks and differ at most in energy.  Each point
    replays the plan of ``dp.counting_plan`` with (log F, ordered pair count)
    entries per state: a child takes every entry of its parent, its class's
    count of ordered sub-pattern pairs and the class's block log-fidelity,
    and entries equal in state and log F merge at every step.  So log F
    sums one class fidelity per block in block order, and pairs whose
    blocks fall in the same classes reach the same float and merge.  The
    class fidelities of every point come from one batch per block
    signature (see ``_counting``).
    """
    plan, final, fids = _counting(space, points)
    tables = []
    for k in range(len(points)):
        luts = {sig: np.array([_log(f) for f in f_all[k].tolist()]) for sig, f_all in fids.items()}
        logf, cnt = replay_entries(plan, final, luts, _state_cap())
        tables.append(FidelityTable(len(space), cnt.astype(float), logf, method="counting"))
    return tables


def counting_bounds(space: ImageSpace, points, copies) -> list[list[BoundReport]]:
    """Bound reports of a disjoint probe, one list per (spec, family) point
    with one report per copy number in ``copies``, summed straight from the
    counting DP; uniform position-finding spaces only.

    The plan is that of ``fidelity_table_counting``, but each state carries
    count * F^M and count * F^(2M) per (point, copy number) row instead of
    its entries, as in ``frontier_bounds``: adding a block multiplies them
    by the class count and the block's f^M and f^(2M).  The reports carry
    m_bar = M.
    """
    plan, final, fids = _counting(space, points)
    n = len(space)
    return [
        [BoundReport(lower_raw=0.5 * s2 / n**2, upper_raw=s1 / n, copies=c, m_bar=c, method="counting")
         for c, s1, s2 in row]
        for row in _plan_sums(plan, final, fids, copies)
    ]


def _counting(space: ImageSpace, points):
    """The plan of the counting DP of the points' shared blocks on
    ``space`` (see ``dp.counting_plan``) and, per block signature, the
    (point, representative pair) fidelities of every (spec, family) point,
    from one batch (as ``block_subfidelity``)."""
    if not counting_applies(space):
        raise ValueError("counting needs a uniform full/cpf/bcpf space")
    for spec, _ in points:
        if spec.m != space.m:
            raise DimensionError(f"probe over m={spec.m} but space has m={space.m}")
    families = [family for _, family in points]
    descriptors: dict[ProbeSpec, tuple] = {}  # a sweep's points share few specs
    for spec, _ in points:
        if spec not in descriptors:
            descriptors[spec] = spec.descriptors()
    groups: dict[tuple, list] = {}  # signature -> the block's (descriptor, family) per point
    blocks = []
    for descs in zip(*(descriptors[spec] for spec, _ in points)):
        sig = tuple(map(_block_signature, descs, families))
        groups.setdefault(sig, list(zip(descs, families)))
        blocks.append((sig, len(descs[0].channels)))
    ks = space.target_counts
    classes = {size: _block_classes(size, space.m, min(ks), max(ks)) for _, size in blocks}
    plan, final = counting_plan(blocks, {size: arrays for size, (arrays, _) in classes.items()}, space.m, ks)
    fids = {sig: block_fidelities(block, classes[len(block[0][0].channels)][1]) for sig, block in groups.items()}
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


def fidelity_table_frontier(
    space: ImageSpace, partition: NonDisjointPartition, points
) -> list[FidelityTable]:
    """Tables of possibly overlapping GHZ blocks by the frontier DP over
    channels, one per (family, mu) point; uniform position-finding spaces
    only.

    Each point replays the plan of ``dp.frontier_plan`` with (log F, ordered
    pair count) entries per state: a new state takes every entry of its
    parent, plus the log-fidelities of the blocks added at that channel in
    block order, and entries equal in state and log F merge at every step.
    So log F sums in block order and is the same float as the dense route's
    entry.  The block fidelities of every point come from one batch per
    block size (see ``_frontier``).  More entries than a dense table may
    hold raise CapacityError, as more states do.
    """
    plan, final, fids = _frontier(space, partition, points)
    tables = []
    for k in range(len(points)):
        luts = {size: np.array([_log(f) for f in f_all[k].tolist()]) for size, f_all in fids.items()}
        logf, cnt = replay_entries(plan, final, luts, _state_cap())
        tables.append(FidelityTable(len(space), cnt.astype(float), logf, method="mutual", partition=partition))
    return tables


def frontier_bounds(
    space: ImageSpace, partition: NonDisjointPartition, points, copies
) -> list[list[BoundReport]]:
    """Bound reports of possibly overlapping GHZ blocks, one list per
    (family, mu) point with one report per copy number in ``copies``,
    summed straight from the frontier DP; uniform position-finding spaces
    only.

    The plan is that of ``fidelity_table_frontier``, but each state carries
    count * F^M and count * F^(2M) per (point, copy number) row instead of
    its entries: adding a block multiplies them by its f^M and f^(2M).  The
    rows are independent of each other and of the keys, so they run in
    chunks whose states x rows stay within BATCH_MAX_FLOATS, each chunk
    over the same plan, and every sum adds in a fixed order, so a row's
    value does not depend on the rows that ran with it.  The block
    fidelities of every point come from one batch per block size.  More
    states than the entries a dense table may hold raise CapacityError.
    """
    plan, final, fids = _frontier(space, partition, points)
    n = len(space)
    rounds = len(decompose_rounds(partition))
    return [
        [BoundReport(lower_raw=0.5 * s2 / n**2, upper_raw=s1 / n, copies=c,
                     m_bar=float(average_channel_use(partition, c)), method="mutual", rounds=rounds)
         for c, s1, s2 in row]
        for row in _plan_sums(plan, final, fids, copies)
    ]


def _plan_sums(plan, final, fids, copies) -> list[list[tuple[float, float, float]]]:
    """(M, sum F^M, sum F^(2M)) over the ordered pattern pairs that differ,
    one list per point with one triple per copy number M in the matching
    list of ``copies``, by replaying ``plan``; ``fids`` maps a lut key to
    the (point, lut entry) block fidelities of every point.

    A (point, copy number) row is an F^M and an F^(2M) column; the block
    factors of a column are f^M and f^(2M) of its point's fidelities.  The
    rows are independent of each other and of the keys, so they run in
    chunks whose states x rows stay within BATCH_MAX_FLOATS, each chunk
    over the same plan, and every sum adds in a fixed order, so a row's
    value does not depend on the rows that ran with it.
    """
    power = np.array([float(c) for cs in copies for c in cs])
    if (power < 1).any():
        raise ValueError(f"copy number must be >= 1, got {power.min()}")
    point = np.repeat(np.arange(len(copies)), [len(cs) for cs in copies])
    # columns F^M of each row, then F^2M of each row; no points, no blocks: an empty plan
    per_chunk = max(1, BATCH_MAX_FLOATS // (2 * max((len(parent) for parent, *_ in plan), default=1)))
    sums = []
    for start in range(0, len(power), per_chunk):
        rows = slice(start, start + per_chunk)
        cols, col_point = np.concatenate((power[rows], 2.0 * power[rows])), np.tile(point[rows], 2)
        luts = {key: f[col_point].T ** cols for key, f in fids.items()}
        sums += replay_sums(plan, final, luts).reshape(2, -1).T.tolist()
    rows = [(c, s1, s2) for c, (s1, s2) in zip(power.tolist(), sums)]
    ends = np.cumsum([len(cs) for cs in copies]).tolist()
    return [rows[end - len(cs):end] for cs, end in zip(copies, ends)]


def _frontier(space: ImageSpace, partition: NonDisjointPartition, points):
    """The plan of the frontier DP of ``partition`` on ``space`` (see
    ``dp.frontier_plan``) and, per block size, the (point, reachable local
    pair) fidelities of every (family, mu) point, from one batch."""
    if not counting_applies(space):
        raise ValueError("the frontier DP needs a uniform full/cpf/bcpf space")
    if partition.m != space.m:
        raise PartitionError(f"partition over m={partition.m} does not match space m={space.m}")
    plan, final, reach = frontier_plan(partition, space.target_counts, _state_cap())
    fids = {
        size: block_fidelities([(BlockDescriptor("ghz", blk, mu=mu), family) for family, mu in points],
                               local_pairs(codes, size))
        for size, (blk, codes) in reach.items()
    }
    return plan, final, fids


def _state_cap() -> int:
    """The most states or entries a DP may hold: the entries of the largest
    dense table."""
    return BLOCK_TABLE_MAX_PATTERNS**2 // 2


def fidelity_table_blocks(patterns, priors, descs, family: ChannelFamily) -> FidelityTable:
    """Dense table from per-block fidelity lookups (any space, any priors).

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
    return FidelityTable.pairs(n, logf, priors, method="blocks")


def bruteforce_fidelities(patterns, spec: ProbeSpec, family: ChannelFamily) -> np.ndarray:
    """Full-state output fidelities of the pattern pairs i < j, in row-major
    order; the slow reference path.

    No block factorisation and no degeneracy grouping: the channels act on
    the complete probe state for every pattern in one stacked step (idlers
    pass), and every pair runs through one ``stacked_fidelities`` call, so
    each value equals ``gaussian_fidelity`` of the two ``probe.output``
    states bit for bit.  Patterns are checked as ``probe.output`` checks
    them.
    """
    patterns = list(patterns)
    n = len(patterns)
    if n > BRUTE_TABLE_MAX_PATTERNS:
        raise CapacityError(f"brute-force table capped at {BRUTE_TABLE_MAX_PATTERNS} patterns")
    probe = assemble_probe(spec)
    modes = probe.layout.mode_channels()
    probed = [k for k, ch in enumerate(modes) if ch is not None]
    channels = [modes[k] for k in probed]
    rows = []
    for pattern in patterns:
        bits = check_pattern(pattern, spec.m)
        rows.append([bits[c] for c in channels])
    targets = np.array(rows, dtype=bool).reshape(n, len(channels))
    taus, nus = np.ones((n, len(modes))), np.zeros((n, len(modes)))
    taus[:, probed] = np.where(targets, family.target.tau, family.background.tau)
    nus[:, probed] = np.where(targets, family.target.nu, family.background.nu)
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


def _check_points(points) -> ProbePlan:
    """The plan that ``points`` share; see ``evaluate_points``."""
    plan = points[0][0]
    if any(_structure(p) != _structure(plan) for p, *_ in points[1:]):
        raise ValueError("the points of one evaluation must share the probe structure")
    if plan.route == MUTUAL and any(mu is None for *_, mu in points):
        raise EnergyError("mutual probing needs a squeezing energy mu")
    return plan


def evaluate_points(space: ImageSpace, points) -> list[FidelityTable]:
    """The fidelity tables of probe configurations that differ only in the
    channels and the energy, one per (plan, family, ns, mu) point, each
    equal bit for bit to the table of its point alone.

    The one place a table's route is chosen.  On a uniform full/cpf/bcpf
    space: occupancy counting for a disjoint probe and the frontier DP
    for overlapping blocks, both with the block fidelities of all points
    in one batch per block (classed); these are the tables that ``census``
    and ``validate`` read, while ``bound_reports`` sums the bounds of the
    same DPs without them.  On any other space:
    per-block lookups (dense), per point, over the blocks as they sit,
    overlapping or not, with no copy-channel extension.  The optimal
    classical probe at energy ``ns`` gets the Hamming census, which
    factors per channel so that a pair at distance d has fidelity f^d.
    ``mu`` is the squeezing energy of the mutual-probing blocks; a
    disjoint plan carries its own.
    """
    if not points:
        return []
    plan = _check_points(points)
    pri = None if space.uniform else space.priors
    if plan.route == CLASSICAL:
        logfs = [_log(per_channel_classical_fidelity(family, ns)) for _, family, ns, _ in points]
        if counting_applies(space):
            # one block over all m channels, keyed like the per-block classes
            census: dict[tuple[int, int, int], int] = {}
            for v in space.target_counts:
                for u in space.target_counts:
                    for d, count in _block_occupancy_options(space.m, v, u):
                        if d:
                            key = (min(v, u), max(v, u), d)
                            census[key] = census.get(key, 0) + count
            counts = np.fromiter(census.values(), dtype=float, count=len(census))
            dists = np.fromiter((key[2] for key in census), dtype=float, count=len(census))
            return [FidelityTable(len(space), counts, dists * lf, method="classical") for lf in logfs]
        n = len(space)
        if n > BLOCK_TABLE_MAX_PATTERNS:
            raise CapacityError("classical dense table too large")
        bits = np.array(space.patterns, dtype=np.uint8)
        dists = _pair_entries(n, lambda i: (bits[i] != bits[i + 1:]).sum(axis=1))
        return [FidelityTable.pairs(n, dists * lf, pri, method="classical") for lf in logfs]
    if plan.route == MUTUAL:
        if counting_applies(space):
            tables = fidelity_table_frontier(space, plan.partition, [(f, mu) for _, f, _, mu in points])
        else:
            if plan.partition.m != space.m:
                raise PartitionError(f"partition over m={plan.partition.m} does not match space m={space.m}")
            tables = [
                fidelity_table_blocks(
                    space.patterns, pri, [BlockDescriptor("ghz", blk, mu=mu) for blk in plan.partition.blocks], f
                )
                for _, f, _, mu in points
            ]
        rounds = len(decompose_rounds(plan.partition))
        for table in tables:
            table.method = "mutual"
            table.partition = plan.partition
            table.rounds = rounds
        return tables
    if counting_applies(space):
        return fidelity_table_counting(space, [(p.spec, family) for p, family, _, _ in points])
    if plan.spec.m != space.m:
        raise DimensionError(f"probe over m={plan.spec.m} but space has m={space.m}")
    return [fidelity_table_blocks(space.patterns, pri, p.spec.descriptors(), f) for p, f, _, _ in points]


def bound_reports(space: ImageSpace, points, copies) -> list[list[BoundReport]]:
    """The bound reports of probe configurations of one structure, one list
    per (plan, family, ns, mu) point (as ``evaluate_points``) with one
    report per copy number in the matching list of ``copies``.

    The one place a sweep's route is chosen.  On a uniform full/cpf/bcpf
    space a probe sums its bounds straight from its DP, with no table: a
    mutual plan from the frontier DP (``frontier_bounds``), a disjoint one
    from the counting DP (``counting_bounds``).  The classical probe, and
    every probe on a custom space, reads tables from ``evaluate_points``:
    the classed ones of all points in one batch, the dense ones of custom
    spaces one at a time, each read at every copy number before the next
    is built.
    """
    if not points:
        return []
    plan = _check_points(points)
    if counting_applies(space):
        if plan.route == MUTUAL:
            return frontier_bounds(space, plan.partition, [(f, mu) for _, f, _, mu in points], copies)
        if plan.route == DISJOINT:
            return counting_bounds(space, [(p.spec, f) for p, f, _, _ in points], copies)
        return [_reports(table, cs) for table, cs in zip(evaluate_points(space, points), copies)]
    return [_reports(evaluate_points(space, [point])[0], cs) for point, cs in zip(points, copies)]


def _reports(table: FidelityTable, copies) -> list[BoundReport]:
    return [bounds_from_table(table, c) for c in copies]


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
    return BoundReport(lb, ub, m_val, m_val, "closed-form-d2")


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
    return BoundReport(lb, ub, m_val, m_val, "closed-form-d2")
