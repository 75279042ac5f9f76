"""Error-probability bounds for channel-pattern discrimination.

All bounds reduce to prior-weighted sums of output-state fidelities raised
to the copy number: the pretty-good-measurement upper bound uses F^M, the
lower bound F^(2M).  Fidelities of block-structured probes factor over
blocks and are degenerate within per-block (v, u, d) classes, so one
Gaussian fidelity per block and class suffices.  On uniform
position-finding spaces the two sums themselves factor over blocks too:
``bounds_by_counting`` runs a DP over blocks whose state is (targets of
pattern A so far, targets of B so far, whether the pair differs yet), with
occupancy multiplicities in place of enumerated pattern pairs.  The
per-class census (``counting_census``) remains for fidelity histograms and
as the oracle of that DP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ADDITIVE, PURE_LOSS, ChannelFamily, apply_mode_channels
from .closedform import coherent_loss_fidelity, vacuum_additive_fidelity
from .errors import (
    CapacityError,
    ComparabilityError,
    DimensionError,
    NumericError,
    PartitionError,
    UnsupportedBenchmarkError,
)
from .gaussian import CovMatrix, coherent_cm, gaussian_fidelity, ghz_cm
from .imagespace import ClassKey, ImageSpace, pair_class_key
from .probes import (
    HYBRID_COHERENT,
    SINGLE_IDLER,
    BlockDescriptor,
    NonDisjointPartition,
    ProbeSpec,
    assemble_probe,
    average_channel_use,
    decompose_rounds,
    extend_for_mutual_probing,
)

BRUTE_TABLE_MAX_PATTERNS = 512
BLOCK_TABLE_MAX_PATTERNS = 4096


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


def _family_key(family: ChannelFamily) -> tuple:
    b, t = family.background, family.target
    return (family.kind, b.tau, b.nu, t.tau, t.nu)


def block_subfidelity(desc: BlockDescriptor, family: ChannelFamily, v: int, u: int, d: int) -> float:
    """Single-copy output fidelity of one block for a (v, u, d) class.

    Degenerate within the class, so results are cached per block signature.
    """
    v, u = min(v, u), max(v, u)
    if d == 0:
        return 1.0
    size = len(desc.channels)
    key = (desc.kind, size, desc.idlers, desc.mu, desc.alpha, _family_key(family), v, u, d)
    hit = _BLOCK_FID_CACHE.get(key)
    if hit is not None:
        return hit
    pat_a, pat_b = representative_local_patterns(size, v, u, d)
    if desc.kind == "coherent":
        state = coherent_cm([desc.alpha])
        pa, pb = family.params(pat_a[0]), family.params(pat_b[0])
        out_a = apply_mode_channels(state, [pa.tau], [pa.nu])
        out_b = apply_mode_channels(state, [pb.tau], [pb.nu])
    else:
        state = ghz_cm(desc.n_modes, desc.mu)
        pad = [1.0] * desc.idlers
        params_a = [family.params(bit) for bit in pat_a]
        params_b = [family.params(bit) for bit in pat_b]
        out_a = apply_mode_channels(
            state, pad + [p.tau for p in params_a], [0.0] * desc.idlers + [p.nu for p in params_a]
        )
        out_b = apply_mode_channels(
            state, pad + [p.tau for p in params_b], [0.0] * desc.idlers + [p.nu for p in params_b]
        )
    fid = gaussian_fidelity(out_a, out_b)
    _BLOCK_FID_CACHE[key] = fid
    return fid


def tmsv_subfidelity(family: ChannelFamily, mu: float, v: int, u: int, d: int) -> float:
    """Numeric two-mode sub-fidelity F_{vu}(d) for a bare TMSV probe."""
    desc = BlockDescriptor("ghz", (0, 1), 0, mu=mu)
    return block_subfidelity(desc, family, v, u, d)


_BLOCK_OUT_CACHE: dict[tuple, CovMatrix] = {}


def _block_output(desc: BlockDescriptor, family: ChannelFamily, local_bits) -> CovMatrix:
    sig = (desc.kind, len(desc.channels), desc.idlers, desc.mu, desc.alpha, _family_key(family))
    key = (sig, local_bits)
    out = _BLOCK_OUT_CACHE.get(key)
    if out is not None:
        return out
    if desc.kind == "coherent":
        state = coherent_cm([desc.alpha])
    else:
        state = ghz_cm(desc.n_modes, desc.mu)
    params = [family.params(bit) for bit in local_bits]
    out = apply_mode_channels(
        state,
        [1.0] * desc.idlers + [p.tau for p in params],
        [0.0] * desc.idlers + [p.nu for p in params],
    )
    _BLOCK_OUT_CACHE[key] = out
    return out


def block_pair_fidelity(desc: BlockDescriptor, family: ChannelFamily, local_a, local_b) -> float:
    """Output fidelity of one block for a specific local pattern pair.

    Unlike block_subfidelity this does not substitute a class representative,
    so it reproduces an exhaustive per-pair evaluation bit for bit (cached,
    with the symmetric pair evaluated once).
    """
    if local_a == local_b:
        return 1.0
    la, lb = (local_a, local_b) if local_a <= local_b else (local_b, local_a)
    sig = (desc.kind, len(desc.channels), desc.idlers, desc.mu, desc.alpha, _family_key(family))
    key = (sig, la, lb)
    hit = _BLOCK_FID_CACHE.get(key)
    if hit is not None:
        return hit
    fid = gaussian_fidelity(_block_output(desc, family, la), _block_output(desc, family, lb))
    _BLOCK_FID_CACHE[key] = fid
    return fid


def class_log_fidelity(key: ClassKey, descs, family: ChannelFamily) -> float:
    """log of the product of block fidelities for one census class."""
    total = 0.0
    for desc, (v, u, d) in zip(descs, key):
        fid = block_subfidelity(desc, family, v, u, d)
        if fid <= 0.0:
            return -math.inf
        total += math.log(fid)
    return total


# ---------------------------------------------------------------------------
# counting census (no pattern enumeration)


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


def counting_census(m: int, block_sizes, ks) -> dict[ClassKey, int]:
    """Census of ordered pattern pairs grouped by per-block (v, u, d) classes.

    Equivalent to enumerating all pairs of patterns whose target count lies
    in ks and classifying them per block, but runs on occupancy combinatorics
    only.  Pairs with zero distance in every block (identical patterns) are
    excluded, matching the off-diagonal pair census.
    """
    sizes = tuple(int(s) for s in block_sizes)
    if sum(sizes) != m:
        raise PartitionError(f"block sizes {sizes} do not tile m={m} channels")
    ks = sorted(set(int(k) for k in ks))
    kmin, kmax = ks[0], ks[-1]
    suffix = np.concatenate([np.cumsum(sizes[::-1])[::-1][1:], [0]])
    states: dict[tuple[int, int, ClassKey], int] = {(0, 0, ()): 1}
    for j, size in enumerate(sizes):
        rem = int(suffix[j])
        new: dict[tuple[int, int, ClassKey], int] = {}
        for (v0, u0, key), cnt in states.items():
            for v in range(0, min(size, kmax - v0) + 1):
                if v0 + v + rem < kmin:
                    continue
                for u in range(0, min(size, kmax - u0) + 1):
                    if u0 + u + rem < kmin:
                        continue
                    for d, c in _block_occupancy_options(size, v, u):
                        st = (v0 + v, u0 + u, key + ((min(v, u), max(v, u), d),))
                        new[st] = new.get(st, 0) + cnt * c
        states = new
    census: dict[ClassKey, int] = {}
    for (v, u, key), cnt in states.items():
        if v in ks and u in ks and any(cls[2] for cls in key):
            census[key] = census.get(key, 0) + cnt
    return census


# ---------------------------------------------------------------------------
# fidelity tables


@dataclass
class FidelityTable:
    """Single-copy output fidelities, per degeneracy class or per pair.

    Classed tables assume uniform priors; dense tables carry a symmetric
    fidelity matrix (diagonal ignored) plus optional per-pattern priors.
    """

    n_patterns: int
    class_counts: np.ndarray | None = None
    class_logf: np.ndarray | None = None
    matrix: np.ndarray | None = None
    priors: np.ndarray | None = None

    def __post_init__(self):
        classed = self.class_counts is not None
        if classed != (self.class_logf is not None) or classed == (self.matrix is not None):
            raise ValueError("table must be either classed or dense")
        if classed and self.priors is not None:
            raise ValueError("classed tables assume uniform priors")
        if self.matrix is not None:
            mat = np.asarray(self.matrix, dtype=float)
            if mat.shape != (self.n_patterns, self.n_patterns):
                raise DimensionError("fidelity matrix shape mismatch")
            if not np.allclose(mat, mat.T, rtol=0, atol=1e-12):
                raise NumericError("fidelity matrix is not symmetric")


def _copy_number(copies) -> float:
    m_val = float(copies)
    if m_val < 1:
        raise ValueError(f"copy number must be >= 1, got {copies}")
    return m_val


def bounds_from_table(
    table: FidelityTable,
    copies,
    *,
    m_bar=None,
    method: str = "brute",
    rounds: int | None = None,
) -> BoundReport:
    """Pretty-good-measurement upper bound and the matching lower bound.

    UB = sum_{i != j} sqrt(pi_i pi_j) F_ij^M, LB = (1/2) sum pi_i pi_j F_ij^(2M);
    uniform priors collapse to the 1/|U| and 1/(2|U|^2) prefactors.
    """
    m_val = _copy_number(copies)
    n = table.n_patterns
    if table.class_counts is not None:
        with np.errstate(invalid="ignore"):
            ub = float(table.class_counts @ np.exp(m_val * table.class_logf)) / n
            lb = 0.5 * float(table.class_counts @ np.exp(2.0 * m_val * table.class_logf)) / n**2
    else:
        pri = table.priors if table.priors is not None else np.full(n, 1.0 / n)
        off = ~np.eye(n, dtype=bool)
        fm = np.power(table.matrix, m_val, where=off, out=np.zeros((n, n)))
        f2m = np.power(table.matrix, 2.0 * m_val, where=off, out=np.zeros((n, n)))
        wub = np.sqrt(np.outer(pri, pri))
        wlb = np.outer(pri, pri)
        ub = float(np.sum(wub * fm, where=off))
        lb = 0.5 * float(np.sum(wlb * f2m, where=off))
    return BoundReport(
        lower_raw=lb,
        upper_raw=ub,
        copies=m_val,
        m_bar=float(m_bar) if m_bar is not None else m_val,
        method=method,
        rounds=rounds,
    )


def fidelity_table_counting(space: ImageSpace, spec: ProbeSpec, family: ChannelFamily) -> FidelityTable:
    """Classed table via occupancy counting; uniform position-finding spaces only."""
    if not counting_applies(space):
        raise ValueError("counting needs a uniform full/cpf/bcpf space")
    if spec.m != space.m:
        raise DimensionError(f"probe over m={spec.m} but space has m={space.m}")
    descs = spec.descriptors()
    census = counting_census(space.m, [len(d.channels) for d in descs], space.target_counts)
    counts = np.fromiter((c for c in census.values()), dtype=float, count=len(census))
    logf = np.fromiter(
        (class_log_fidelity(key, descs, family) for key in census), dtype=float, count=len(census)
    )
    return FidelityTable(len(space), class_counts=counts, class_logf=logf)


def fidelity_table_blocks(patterns, priors, descs, family: ChannelFamily) -> FidelityTable:
    """Dense table from per-block fidelity lookups (any space, any priors)."""
    n = len(patterns)
    if n > BLOCK_TABLE_MAX_PATTERNS:
        raise CapacityError(f"dense block table capped at {BLOCK_TABLE_MAX_PATTERNS} patterns")
    log_f = np.zeros((n, n))
    for desc in descs:
        locals_ = [tuple(p[c] for c in desc.channels) for p in patterns]
        uniq = sorted(set(locals_))
        code = np.array([uniq.index(lp) for lp in locals_])
        lut = np.zeros((len(uniq), len(uniq)))
        for a, la in enumerate(uniq):
            for b, lb in enumerate(uniq):
                fid = block_pair_fidelity(desc, family, la, lb)
                lut[a, b] = math.log(fid) if fid > 0 else -math.inf
        log_f += lut[np.ix_(code, code)]
    with np.errstate(invalid="ignore"):
        mat = np.exp(log_f)
    np.fill_diagonal(mat, 1.0)
    return FidelityTable(n, matrix=mat, priors=None if priors is None else np.asarray(priors))


def fidelity_table_bruteforce(space_patterns, priors, spec: ProbeSpec, family: ChannelFamily) -> FidelityTable:
    """Dense table from full-state fidelities; the slow reference path.

    Evaluates the fidelity on the complete output covariance matrices with
    no block factorisation and no degeneracy grouping.
    """
    patterns = list(space_patterns)
    n = len(patterns)
    if n > BRUTE_TABLE_MAX_PATTERNS:
        raise CapacityError(f"brute-force table capped at {BRUTE_TABLE_MAX_PATTERNS} patterns")
    probe = assemble_probe(spec)
    outputs = [probe.output(family, p) for p in patterns]
    mat = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            fid = gaussian_fidelity(outputs[i], outputs[j])
            mat[i, j] = mat[j, i] = fid
    return FidelityTable(n, matrix=mat, priors=None if priors is None else np.asarray(priors))


# ---------------------------------------------------------------------------
# top-level bound computations


def bounds_brute_force(space: ImageSpace, spec: ProbeSpec, family: ChannelFamily, copies) -> BoundReport:
    """Reference bounds from exhaustive full-state fidelity evaluation."""
    pri = None if space.uniform else space.priors
    table = fidelity_table_bruteforce(space.patterns, pri, spec, family)
    return bounds_from_table(table, copies, method="brute")


def _counting_sums(space: ImageSpace, spec: ProbeSpec, family: ChannelFamily, m_val: float):
    """(sum F^M, sum F^(2M)) over ordered pairs of distinct patterns.

    A DP over blocks.  Its state is (targets of pattern A so far, targets
    of pattern B so far, whether A and B differ in an earlier block); its
    value is the two partial sums over the sub-pattern pairs that reach
    the state.  Identical pairs are excluded by the flag, never by
    subtracting |U| from a total, which would cancel at large M.
    """
    ks = set(space.target_counts)
    kmin, kmax = min(ks), max(ks)
    rem = space.m
    states = {(0, 0, False): (1.0, 1.0)}
    for desc in spec.descriptors():
        size = len(desc.channels)
        rem -= size
        # per (v, u): the count of identical sub-pattern pairs, and the
        # fidelity-weighted counts of differing ones at M and 2M copies
        steps = []
        for v in range(size + 1):
            for u in range(size + 1):
                same, diff_m, diff_2m = 0.0, 0.0, 0.0
                for d, count in _block_occupancy_options(size, v, u):
                    if d == 0:
                        same = float(count)
                        continue
                    fid = block_subfidelity(desc, family, v, u, d)
                    diff_m += count * fid**m_val
                    diff_2m += count * fid ** (2.0 * m_val)
                steps.append((v, u, same, diff_m, diff_2m))
        new: dict[tuple[int, int, bool], tuple[float, float]] = {}

        def add(state, dx, dy):
            px, py = new.get(state, (0.0, 0.0))
            new[state] = (px + dx, py + dy)

        for (a0, b0, differs), (x, y) in states.items():
            for v, u, same, diff_m, diff_2m in steps:
                a, b = a0 + v, b0 + u
                if a > kmax or b > kmax or a + rem < kmin or b + rem < kmin:
                    continue
                if differs:
                    add((a, b, True), x * (same + diff_m), y * (same + diff_2m))
                else:
                    add((a, b, True), x * diff_m, y * diff_2m)
                    if same:
                        add((a, b, False), x * same, y * same)
        states = new
    sum_m = sum_2m = 0.0
    for (a, b, differs), (x, y) in states.items():
        if differs and a in ks and b in ks:
            sum_m += x
            sum_2m += y
    return sum_m, sum_2m


def bounds_by_counting(space: ImageSpace, spec: ProbeSpec, family: ChannelFamily, copies) -> BoundReport:
    """Degeneracy-accelerated bounds by the block DP on uniform
    position-finding spaces; any other space goes through the dense block
    table."""
    if not counting_applies(space):
        table = fidelity_table_blocks(
            space.patterns, None if space.uniform else space.priors, spec.descriptors(), family
        )
        return bounds_from_table(table, copies, method="blocks")
    if spec.m != space.m:
        raise DimensionError(f"probe over m={spec.m} but space has m={space.m}")
    m_val = _copy_number(copies)
    sum_m, sum_2m = _counting_sums(space, spec, family, m_val)
    n = len(space)
    return BoundReport(
        lower_raw=0.5 * sum_2m / n**2,
        upper_raw=sum_m / n,
        copies=m_val,
        m_bar=m_val,
        method="counting",
    )


def _pair_excess(family: ChannelFamily, mu: float, power: float) -> float:
    """f01^p + f12^p + (f11^p + f02^p)/2: the per-pair factor of the
    paired-TMSV sums minus its identical-pair 1, formed without that 1."""
    f01 = tmsv_subfidelity(family, mu, 0, 1, 1)
    f02 = tmsv_subfidelity(family, mu, 0, 2, 2)
    f11 = tmsv_subfidelity(family, mu, 1, 1, 2)
    f12 = tmsv_subfidelity(family, mu, 1, 2, 1)
    return f01**power + f12**power + (f11**power + f02**power) / 2.0


def bounds_tmsv_pairs(family: ChannelFamily, mu: float, copies, m: int) -> BoundReport:
    """Closed-form bounds for disjoint two-mode blocks over the full uniform
    space of an even-length pattern: (1 + s)^(m/2) - 1, with s the pair
    excess, evaluated as expm1((m/2) log1p(s)) so that it does not cancel
    when s is tiny."""
    if m % 2:
        raise PartitionError(f"the paired-TMSV closed form needs even m, got {m}")
    m_val = float(copies)

    def d_even(power: float) -> float:
        return math.expm1(m / 2 * math.log1p(_pair_excess(family, mu, power)))

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
    m_val = float(copies)

    def d_odd(power: float) -> float:
        return math.expm1(
            math.log1p(f_rem**power) + (m - 1) / 2 * math.log1p(_pair_excess(family, mu, power))
        )

    ub = d_odd(m_val)
    lb = d_odd(2 * m_val) / 2 ** (m + 1)
    return BoundReport(lb, ub, m_val, m_val, "closed-form-d2")


def bounds_mutual_probing(
    space: ImageSpace,
    partition: NonDisjointPartition,
    family: ChannelFamily,
    mu: float,
    copies,
) -> BoundReport:
    """Bounds for overlapping blocks via the copy-channel extension.

    The image space is mapped onto m + l channels where blocks are disjoint,
    fidelities factor per block, and the generic bounds apply; the average
    channel use bookkeeping grows by (m + l) / m.
    """
    ext_partition, ext_space = extend_for_mutual_probing(partition, space)
    spec = ProbeSpec(ext_partition.m, mu, ext_partition.blocks)
    pri = None if space.uniform else space.priors
    table = fidelity_table_blocks(ext_space.extended, pri, spec.descriptors(), family)
    m_bar = average_channel_use(partition, copies)
    return bounds_from_table(
        table,
        copies,
        m_bar=float(m_bar),
        method="mutual",
        rounds=len(decompose_rounds(partition)),
    )


def per_channel_classical_fidelity(family: ChannelFamily, ns: float) -> float:
    """Single-copy output fidelity of the optimal classical probe of one channel."""
    if family.kind == PURE_LOSS:
        return coherent_loss_fidelity(family.background.tau, family.target.tau, ns)
    if family.kind == ADDITIVE:
        return vacuum_additive_fidelity(family.background.nu, family.target.nu)
    raise UnsupportedBenchmarkError(
        f"no optimal classical benchmark is defined for {family.kind!r} patterns"
    )


def classical_benchmark(space: ImageSpace, family: ChannelFamily, ns: float, copies) -> BoundReport:
    """Bounds for the optimal classical strategy (coherent light or vacuum).

    Classical probes factor per channel, so a pattern pair at Hamming
    distance d has fidelity f^d with f from the closed forms; the sums then
    collapse onto the Hamming-distance census of the space.
    """
    f = per_channel_classical_fidelity(family, ns)
    logf_ch = math.log(f) if f > 0 else -math.inf
    if counting_applies(space):
        census = counting_census(space.m, [space.m], space.target_counts)
        counts = np.fromiter(census.values(), dtype=float, count=len(census))
        dists = np.fromiter((key[0][2] for key in census), dtype=float, count=len(census))
        with np.errstate(invalid="ignore"):
            table = FidelityTable(len(space), class_counts=counts, class_logf=dists * logf_ch)
    else:
        n = len(space)
        if n > BLOCK_TABLE_MAX_PATTERNS:
            raise CapacityError("classical dense table too large")
        bits = np.array(space.patterns, dtype=np.uint8)
        dmat = (bits[:, None, :] != bits[None, :, :]).sum(axis=-1).astype(float)
        with np.errstate(invalid="ignore"):
            mat = np.exp(dmat * logf_ch)
        np.fill_diagonal(mat, 1.0)
        table = FidelityTable(n, matrix=mat, priors=None if space.uniform else space.priors)
    return bounds_from_table(table, copies, method="classical")
