"""Shared strategies and reference implementations for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.linalg import sqrtm

from multiprobe.bounds import _block_occupancy_options, block_subfidelity
from multiprobe.channels import ChannelFamily
from multiprobe.errors import DimensionError
from multiprobe.gaussian import symplectic_form


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
    """
    n = v1.shape[0] // 2
    omega = symplectic_form(n)
    vsum = v1 + v2
    vaux = omega.T @ np.linalg.inv(vsum) @ (omega / 4.0 + v2 @ omega @ v1)
    w = vaux @ omega
    mat = np.eye(2 * n) + np.linalg.inv(w @ w) / 4.0
    core = 2.0 * (sqrtm(mat) + np.eye(2 * n)) @ vaux
    return float(np.real(np.linalg.det(core) / np.linalg.det(vsum)) ** 0.25)


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
