"""Shared strategies and reference implementations for the test suite."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from multiprobe import gaussian
from multiprobe.bounds import _block_occupancy_options, block_subfidelity
from multiprobe.channels import BlockLayout, ChannelFamily, IdlerLayout, apply_pattern_with_idlers
from multiprobe.errors import DimensionError
from multiprobe.gaussian import gaussian_fidelities, gaussian_fidelity, ghz_cm, symplectic_form, tensor
from multiprobe.probes import assemble_probe
from multiprobe.validate import SuiteResult, _random_family, _random_spec


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


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


# Scalar references of the batched validate suites: one CovMatrix per state
# and one gaussian_fidelity call per pair, drawing from the rng in the same
# order as the suites.


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
        worst = max(worst, abs(gaussian_fidelity(oa, ob) - gaussian_fidelity(ob, oa)))
    return SuiteResult("fidelity_symmetry", worst < tol, worst, tol, n_cases)


def scalar_multiplicativity(scale: str, seed: int = 2) -> SuiteResult:
    tol = 1e-10
    rng = np.random.default_rng(seed)
    n_cases = {"smoke": 10, "quick": 40, "full": 100}[scale]
    worst = 0.0
    for _ in range(n_cases):
        family = _random_family(rng)
        parts_a, parts_b = [], []
        for _ in range(int(rng.integers(2, 4))):
            mu = float(rng.uniform(0.6, 30.0))
            k = int(rng.integers(2, 4))
            block = ghz_cm(k, mu)
            pa = tuple(int(b) for b in rng.integers(0, 2, k))
            pb = tuple(int(b) for b in rng.integers(0, 2, k))
            lay = IdlerLayout((BlockLayout(0, tuple(range(k))),))
            parts_a.append(apply_pattern_with_idlers(block, family, pa, lay))
            parts_b.append(apply_pattern_with_idlers(block, family, pb, lay))
        joint = gaussian_fidelity(tensor(*parts_a), tensor(*parts_b))
        product = math.prod(gaussian_fidelity(a, b) for a, b in zip(parts_a, parts_b))
        worst = max(worst, abs(joint - product))
    return SuiteResult("block_multiplicativity", worst < tol, worst, tol, n_cases)


def scalar_mutual_reference(ext_part, ext_space, family, mu) -> list[float]:
    """log F of every extended pattern pair i < j, row-major: the product of
    per-block fidelities, one CovMatrix per pattern and block."""
    probe_blocks = []
    for blk in ext_part.blocks:
        state = ghz_cm(len(blk), mu)
        lay = IdlerLayout((BlockLayout(0, tuple(range(len(blk)))),))
        probe_blocks.append((blk, state, lay))
    outs = []
    for pat in ext_space.extended:
        outs.append(
            [
                apply_pattern_with_idlers(st, family, tuple(pat[c] for c in blk), lay)
                for blk, st, lay in probe_blocks
            ]
        )
    ref_logf = []
    for i in range(len(outs)):
        per_block = [
            gaussian_fidelities(out, [later[b] for later in outs[i + 1:]]).tolist()
            for b, out in enumerate(outs[i])
        ]
        ref_logf.extend(math.log(math.prod(fids)) for fids in zip(*per_block))
    return ref_logf
