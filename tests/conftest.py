"""Shared strategies and reference implementations for the test suite."""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from multiprobe import gaussian
from multiprobe.bounds import BoundReport, block_subfidelity, bound_reports, bounds_from_table
from multiprobe.channels import (
    ChannelFamily,
    apply_mode_channels,
    apply_pattern_with_idlers,
    check_pattern,
)
from multiprobe.dp import pattern_classes
from multiprobe.errors import DimensionError
from multiprobe.gaussian import gaussian_fidelity, ghz_cm, stacked_fidelities, symplectic_form, tensor
from multiprobe.probes import Partition, ProbeSpec, assemble_probe, decompose_rounds
from multiprobe.validate import XP_CASES, SuiteResult, _phase_rotated, _random_family, _random_spec


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def ghz_spec(m, mu, blocks, idlers=()):
    """GHZ blocks at squeezing mu on the channel tuples ``blocks``, with
    their idler counts (none by default)."""
    return ProbeSpec.from_partition(Partition(m, blocks, idlers), mu)


def pure_symmetric_numbers(n, mu):
    """(mu, mu, c1, c2) of the pure n-mode permutation-symmetric state at
    per-mode energy mu: both of its symplectic eigenvalues,
    sqrt((mu + (n-1) c1)(mu + (n-1) c2)) and sqrt((mu - c1)(mu - c2)), are
    1/2, so c1 c2 = (1/4 - mu^2)/(n - 1) and c1 + c2 = -(n - 2) c1 c2 / mu."""
    prod = (0.25 - mu * mu) / (n - 1)
    total = -(n - 2) * prod / mu
    root = math.sqrt(total * total - 4.0 * prod)
    return mu, mu, (total + root) / 2.0, (total - root) / 2.0


def apply_pattern(state, family, pattern):
    """Send mode k of the state through the pattern's k-th channel."""
    bits = check_pattern(pattern, state.n_modes)
    params = [family.params(b) for b in bits]
    return apply_mode_channels(state, [p.tau for p in params], [p.nu for p in params])


def rotated_squeezed(nbar, r, theta):
    """Covariance matrix of a thermal state squeezed by r and rotated by
    theta: x-p correlated unless theta is a multiple of pi/2; its one
    symplectic eigenvalue is nbar + 1/2."""
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return (nbar + 0.5) * rot @ np.diag([np.exp(2 * r), np.exp(-2 * r)]) @ rot.T


def squeezed_product(*modes):
    """Covariance matrix of a product of ``rotated_squeezed`` modes, given
    as (nbar, r, theta) each."""
    return gaussian.direct_sum([(rotated_squeezed(*mode), np.zeros(2)) for mode in modes])[0]


def hamming(a, b) -> int:
    """Number of positions where two equal-length patterns differ."""
    if len(a) != len(b):
        raise DimensionError(f"pattern lengths differ: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x != y)


def block_class(pat_a, pat_b, block) -> tuple[int, int, int]:
    """(v, u, d) of one block's sub-patterns, with v <= u canonically.

    Swapping the two patterns leaves the block fidelity unchanged, so the
    unordered (v, u) labels one degeneracy class.
    """
    sub_a = [pat_a[c] for c in block]
    sub_b = [pat_b[c] for c in block]
    v, u = sum(sub_a), sum(sub_b)
    d = sum(1 for x, y in zip(sub_a, sub_b) if x != y)
    return (min(v, u), max(v, u), d)


ClassKey = tuple[tuple[int, int, int], ...]


def pair_codes(pairs) -> np.ndarray:
    """The class codes of local pattern pairs (a, b) of one block, as
    ``block_fidelities`` takes them."""
    return pattern_classes([a for a, _ in pairs], [b for _, b in pairs])


def representative_pair(size, v, u, d):
    """A local pair with v and u targets at Hamming distance d, built bit by
    bit: a holds targets at its first v channels, b at the first
    (v + u - d) / 2 of them and at the channels after them."""
    overlap = (v + u - d) // 2
    pat_a = tuple(int(k < v) for k in range(size))
    pat_b = tuple(int(k < overlap or v <= k < v + u - overlap) for k in range(size))
    return pat_a, pat_b


def class_pairs(size):
    """One local pair per class of a block of ``size`` channels, identical
    patterns included: the representative pair of each (v, u, d) with
    v <= u, in ascending v, u, d."""
    return [representative_pair(size, v, u, d)
            for (v, u), options in occupancies(size).items() if v <= u for d, _ in options]


def pair_class_key(pat_a, pat_b, blocks) -> ClassKey:
    """Per-block (v, u, d) classes of a pattern pair, in block order."""
    return tuple(block_class(pat_a, pat_b, blk) for blk in blocks)


def fidelity_sqrtm_reference(v1, v2):
    """Matrix-function form of the mixed-state Gaussian fidelity.

    Independent of the production eigenvalue form; zero-mean states only.
    Evaluated in 50-digit arithmetic, so it is exact for the given double
    inputs: in doubles the cancellation in V2 Omega V1 and the square root
    near its branch point left it up to 2e-10 off near purity.
    """
    n = v1.shape[0] // 2
    with mpmath.workdps(50):
        omega = mpmath.matrix(symplectic_form(n).tolist())
        a, b = mpmath.matrix(v1.tolist()), mpmath.matrix(v2.tolist())
        vsum = a + b
        vaux = omega.T * mpmath.inverse(vsum) * (omega / 4 + b * omega * a)
        w = vaux * omega
        mat = mpmath.eye(2 * n) + mpmath.inverse(w * w) / 4
        core = 2 * (mpmath.sqrtm(mat) + mpmath.eye(2 * n)) * vaux
        return float(mpmath.re(mpmath.det(core) / mpmath.det(vsum)) ** 0.25)


def budget_pairs(monkeypatch, pairs: int, n: int) -> list:
    """Set the float budget to ``pairs`` pairs of n-mode states per stacked
    ``gaussian._fidelity`` call, and so four times as many per key chunk,
    and record the number of pairs of each key chunk."""
    monkeypatch.setattr(gaussian, "BATCH_MAX_FLOATS", pairs * 12 * (2 * n) ** 2)
    chunks, keys = [], gaussian._pair_keys
    monkeypatch.setattr(gaussian, "_pair_keys", lambda data, means, states, *rest: (
        chunks.append(states.shape[1]) or keys(data, means, states, *rest)))
    return chunks


def whole_array_pick(data, means, i, j) -> list[tuple[int, int, list[int]]]:
    """(first state, second state, mode order) of the canonical form of
    each pair (i, j) of a stack, picked on whole arrays: of the candidates
    (a, b) and (b, a), each with its modes in the stable lexicographic
    order of the two states' per-mode (x variance, p variance, x mean,
    p mean), the one whose sorted per-mode numbers, then V_a, mean a, V_b
    and mean b with modes in that order, come first in row-major order;
    (a, b) where all of these are equal."""
    n = data.shape[-1] // 2
    per_mode = np.concatenate([np.diagonal(data, axis1=1, axis2=2).reshape(-1, n, 2), means.reshape(-1, n, 2)], axis=2)
    picks = []
    for a, b in zip(np.asarray(i).tolist(), np.asarray(j).tolist()):
        candidates = []
        for first, second in ((a, b), (b, a)):
            rows = np.concatenate([per_mode[first], per_mode[second]], axis=1)
            order = np.lexsort(rows.T[::-1])  # column 0 primary
            q = (2 * order[:, None] + np.arange(2)).ravel()
            arrays = [rows[order], data[first][np.ix_(q, q)], means[first][q],
                      data[second][np.ix_(q, q)], means[second][q]]
            candidates.append((np.concatenate([x.ravel() for x in arrays]).tolist(), (first, second, order.tolist())))
        (mine, pick), (theirs, other) = candidates
        picks.append(other if theirs < mine else pick)
    return picks


def loss_families():
    return st.tuples(
        st.floats(0.3, 0.999), st.floats(0.3, 0.999)
    ).filter(lambda p: abs(p[0] - p[1]) > 1e-6).map(lambda p: ChannelFamily.pure_loss(*p))


def additive_families():
    return st.tuples(
        st.floats(0.001, 0.5), st.floats(0.001, 0.5)
    ).filter(lambda p: abs(p[0] - p[1]) > 1e-9).map(lambda p: ChannelFamily.additive(*p))


def thermal_families():
    from multiprobe.channels import THERMAL, thermal_params

    return (
        st.tuples(
            st.floats(0.3, 1.7), st.floats(0.5, 2.0), st.floats(0.3, 1.7), st.floats(0.5, 2.0)
        )
        .map(lambda p: (thermal_params(p[0], p[1]), thermal_params(p[2], p[3])))
        .filter(lambda q: q[0] != q[1])
        .map(lambda q: ChannelFamily(THERMAL, q[0], q[1]))
    )


def any_family():
    return st.one_of(loss_families(), additive_families(), thermal_families())


def patterns(m):
    return st.lists(st.integers(0, 1), min_size=m, max_size=m).map(tuple)


def pair_degeneracy_census(space, blocks):
    """Count ordered off-diagonal pattern pairs per per-block class tuple.

    Two pairs in the same class share their output fidelity for any probe
    whose entangled blocks match ``blocks``.  Totals always sum to
    |U|^2 - |U|.
    """
    census = {}
    for i, pa in enumerate(space.patterns):
        for j, pb in enumerate(space.patterns):
            if i == j:
                continue
            key = pair_class_key(pa, pb, blocks)
            census[key] = census.get(key, 0) + 1
    return census


@functools.cache
def occupancies(size):
    """{(v, u): ((d, count), ...) in ascending d} of the ordered sub-pattern
    pairs (a, b) of a block of ``size`` channels, a with v targets and b
    with u, at Hamming distance d: counted over all 2^size x 2^size pairs."""
    codes = np.arange(2**size)
    ones = np.array([bin(code).count("1") for code in codes])
    # each pair's (v * (size + 1) + u) * (size + 1) + d
    key = (ones[:, None] * (size + 1) + ones[None, :]) * (size + 1) + ones[codes[:, None] ^ codes[None, :]]
    counts = np.bincount(key.ravel(), minlength=(size + 1) ** 3).reshape((size + 1,) * 3)
    return {(v, u): tuple((d, int(counts[v, u, d])) for d in range(size + 1) if counts[v, u, d])
            for v in range(size + 1) for u in range(size + 1)}


def counting_sums(space, spec, family, m_val):
    """(sum F^M, sum F^(2M)) over ordered pairs of distinct patterns.

    A DP over blocks for one copy number.  Its state is (targets of pattern
    A so far, targets of pattern B so far, whether A and B differ in an
    earlier block); its value is the two partial sums over the sub-pattern
    pairs that reach the state.  Identical pairs are excluded by the flag,
    never by subtracting |U| from a total, which would cancel at large M.
    """
    ks = set(space.target_counts)
    kmin, kmax = min(ks), max(ks)
    rem = space.m
    states = {(0, 0, False): (1.0, 1.0)}
    for desc in spec.blocks:
        size = len(desc.channels)
        rem -= size
        # per (v, u): the count of identical sub-pattern pairs, and the
        # fidelity-weighted counts of differing ones at M and 2M copies
        steps = []
        for v in range(size + 1):
            for u in range(size + 1):
                same, diff_m, diff_2m = 0.0, 0.0, 0.0
                for d, count in occupancies(size)[v, u]:
                    if d == 0:
                        same = float(count)
                        continue
                    fid = block_subfidelity(desc, family, v, u, d)
                    diff_m += count * fid**m_val
                    diff_2m += count * fid ** (2.0 * m_val)
                steps.append((v, u, same, diff_m, diff_2m))
        new = {}

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


def report_rows(space, points, copies):
    """``bound_reports`` of a sweep, its columns read back as BoundReports:
    one list per point, with one report per copy number in the point's list
    in ``copies``."""
    cols = bound_reports(space, points, copies)
    assert len(cols) == sum(map(len, copies))
    values = (col.tolist() for col in (cols.copies, cols.m_bar, cols.lower_raw, cols.upper_raw))
    rows = iter([BoundReport(lo, up, c, mb, cols.method, cols.rounds) for c, mb, lo, up in zip(*values)])
    return [list(itertools.islice(rows, len(cs))) for cs in copies]


def assert_sums_match_entries(reports, tables, copies, method):
    """Each point's ``bound_reports`` row at ``copies`` (as ``report_rows``
    reads them) equals the bounds
    read off its table (``evaluate_points``) to rounding, and carries the
    table's route ``method``, channel use and rounds."""
    for table, row in zip(tables, reports):
        assert [r.copies for r in row] == [float(c) for c in copies]
        rounds = None if table.probe is None else len(decompose_rounds(tuple(b.channels for b in table.probe.blocks)))
        for c, got in zip(copies, row):
            want = bounds_from_table(table, c)
            assert (got.m_bar, got.method, got.rounds) == (want.m_bar, method, rounds)
            assert want.rounds == rounds
            for a, b in ((got.upper_raw, want.upper_raw), (got.lower_raw, want.lower_raw)):
                if b >= np.finfo(float).tiny:
                    assert a == pytest.approx(b, rel=1e-12, abs=0)
                elif b > 0:
                    assert a > 0
                else:
                    assert a == 0


# Scalar references of the batched validate suites: one CovMatrix per state
# and one gaussian_fidelity call per pair, drawing from the rng in the same
# order as the suites.


def scalar_ghz_spectrum(scale: str) -> SuiteResult:
    tol = 1e-10
    worst, cases = 0.0, 0
    for mu in [0.5, 0.7, 2.5, 20.5, 317.0, 1e4]:
        slack = float(gaussian._scale_tol(0.0, mu))
        for m in range(2, 13):
            got = gaussian.symplectic_spectrum(ghz_cm(m, mu))
            want = gaussian.ghz_spectrum_closed_form(m, mu)
            worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(want, 1.0))) - slack)
            cases += 1
    return SuiteResult("ghz_spectrum", worst < tol, worst, tol, cases)


def scalar_bona_fide(scale: str, seed: int = 0) -> SuiteResult:
    tol = gaussian.BONA_FIDE_TOL
    rng = np.random.default_rng(seed)
    n_cases = {"smoke": 10, "quick": 60, "full": 200}[scale]
    worst = 0.0
    for _ in range(n_cases):
        m = int(rng.integers(2, 6))
        spec = _random_spec(rng, m)
        family = _random_family(rng)
        probe = assemble_probe(spec)
        pattern = tuple(int(b) for b in rng.integers(0, 2, m))
        out = probe.output(family, pattern)  # construction re-validates
        worst = max(worst, max(0.0, 0.5 - float(out.spectrum[0])))
    return SuiteResult("bona_fide_outputs", worst < tol, worst, tol, n_cases)


def scalar_fidelity_symmetry(scale: str, seed: int = 1) -> SuiteResult:
    tol = 1e-12
    rng = np.random.default_rng(seed)
    n_cases = {"smoke": 10, "quick": 50, "full": 150}[scale]
    worst = 0.0
    for _ in range(n_cases):
        m = int(rng.integers(2, 5))
        spec = _random_spec(rng, m)
        family = _random_family(rng)
        probe = assemble_probe(spec)
        pa = tuple(int(b) for b in rng.integers(0, 2, m))
        pb = tuple(int(b) for b in rng.integers(0, 2, m))
        oa, ob = probe.output(family, pa), probe.output(family, pb)
        mixed = not (oa.is_pure or ob.is_pure)
        ab = float(gaussian._fidelity(oa.data, ob.data, mixed, oa.mean - ob.mean))
        ba = float(gaussian._fidelity(ob.data, oa.data, mixed, ob.mean - oa.mean))
        worst = max(worst, abs(ab - ba))
    return SuiteResult("fidelity_symmetry", worst < tol, worst, tol, n_cases)


def scalar_multiplicativity(scale: str, seed: int = 2) -> SuiteResult:
    tol = 1e-10
    rng = np.random.default_rng(seed)
    n_cases = {"smoke": 10, "quick": 40, "full": 100}[scale] + XP_CASES
    worst = 0.0
    for case in range(n_cases):
        family = _random_family(rng)
        theta = float(rng.uniform(0.1, 1.4)) if case >= n_cases - XP_CASES else 0.0
        parts_a, parts_b = [], []
        for _ in range(int(rng.integers(2, 4))):
            mu = float(rng.uniform(0.6, 30.0))
            k = int(rng.integers(2, 4))
            block = ghz_cm(k, mu)
            if theta:
                block = gaussian.CovMatrix(*_phase_rotated((block.data, block.mean), theta))
            pa = tuple(int(b) for b in rng.integers(0, 2, k))
            pb = tuple(int(b) for b in rng.integers(0, 2, k))
            lay = tuple(range(k))
            parts_a.append(apply_pattern_with_idlers(block, family, pa, lay))
            parts_b.append(apply_pattern_with_idlers(block, family, pb, lay))
        joint = gaussian_fidelity(tensor(*parts_a), tensor(*parts_b))
        product = math.prod(gaussian_fidelity(a, b) for a, b in zip(parts_a, parts_b))
        worst = max(worst, abs(joint - product))
    return SuiteResult("block_multiplicativity", worst < tol, worst, tol, n_cases)


def scalar_mutual_reference(ext_part, ext_patterns, family, mu) -> list[float]:
    """log F of every extended pattern pair i < j, row-major: the product of
    per-block fidelities, one CovMatrix per pattern and block."""
    probe_blocks = []
    for blk in ext_part.blocks:
        state = ghz_cm(len(blk), mu)
        lay = tuple(range(len(blk)))
        probe_blocks.append((blk, state, lay))
    outs = []
    for pat in ext_patterns:
        outs.append(
            [
                apply_pattern_with_idlers(st, family, tuple(pat[c] for c in blk), lay)
                for blk, st, lay in probe_blocks
            ]
        )
    pairs = list(zip(*(idx.tolist() for idx in np.triu_indices(len(outs), 1))))
    per_block = [
        stacked_fidelities(np.stack([out[b].data for out in outs]), np.stack([out[b].mean for out in outs]),
                           pairs).tolist()
        for b in range(len(probe_blocks))
    ]
    return [math.log(math.prod(fids)) for fids in zip(*per_block)]
