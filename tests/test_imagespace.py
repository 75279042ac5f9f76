import io
import itertools
import math

import numpy as np
import pytest

from multiprobe.errors import CapacityError, DimensionError
from multiprobe.imagespace import (
    ImageSpace,
    bcpf_space,
    cpf_space,
    full_space,
    read_space,
)

from conftest import hamming, pair_class_key, pair_degeneracy_census


def test_full_space_m2_order():
    assert full_space(2).patterns == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_cpf_space_counts():
    assert len(cpf_space(9, 1)) == 9
    assert len(cpf_space(6, 2)) == 15


def test_bcpf_space_counts():
    space = bcpf_space(4, (1, 2))
    assert len(space) == 4 + 6


def test_space_hierarchy_containment():
    m = 5
    full = set(full_space(m).patterns)
    bc = set(bcpf_space(m, (1, 2)).patterns)
    for k in (1, 2):
        ck = set(cpf_space(m, k).patterns)
        assert ck <= bc <= full


def test_priors_uniform_and_custom():
    space = full_space(3)
    assert space.uniform
    assert space.priors.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        ImageSpace(2, ((0, 0), (1, 1)), np.array([0.7, 0.7]))
    custom = ImageSpace(2, ((0, 0), (1, 1)), np.array([0.25, 0.75]))
    assert not custom.uniform


@pytest.mark.parametrize("priors", [[np.nan, 1.0], [np.inf, 0.0], [0.5, np.nan]])
def test_non_finite_priors_rejected(priors):
    with pytest.raises(ValueError, match="finite"):
        ImageSpace(2, ((0, 0), (1, 1)), np.array(priors))


@pytest.mark.parametrize("weights", ["0 0 0", "0.5 nan 0.25", "0.5 inf 0.25", "-1 1 0"])
def test_read_space_rejects_weights_it_cannot_normalise(weights):
    lines = [f"{p} {w}" for p, w in zip(("000", "011", "101"), weights.split())]
    with pytest.raises(ValueError, match="pattern weights"):
        read_space(io.StringIO("\n".join(lines) + "\n"))


def _lazy_spaces(m: int):
    """(lazy space, admissible target counts) for every position-finding space
    over m channels: the full space, every cpf space and the bcpf spaces of
    one or two counts."""
    yield full_space(m), set(range(m + 1))
    for k in range(m + 1):
        yield cpf_space(m, k), {k}
    for ks in itertools.combinations(range(m + 1), 2):
        yield bcpf_space(m, ks), set(ks)


@pytest.mark.parametrize("m", range(1, 11))
def test_lazy_spaces_match_materialised(m):
    for space, ks in _lazy_spaces(m):
        # size, counts and uniformity are read before any pattern is
        pats = tuple(p for p in itertools.product((0, 1), repeat=m) if sum(p) in ks)
        assert len(space) == len(pats)
        assert space.target_counts == tuple(sorted(ks))
        assert space.uniform is True
        want = ImageSpace(m, pats, np.full(len(pats), 1.0 / len(pats)), target_counts=space.target_counts)
        assert want.uniform is True
        assert want.target_counts == space.target_counts
        assert space.patterns == want.patterns
        assert np.array_equal(space.priors, want.priors)


@pytest.mark.parametrize("m", range(1, 11))
def test_explicit_priors_keep_the_eager_path(m):
    rng = np.random.default_rng(m)
    for build in (
        lambda pri: full_space(m, pri),
        lambda pri: cpf_space(m, m // 2, pri),
        lambda pri: bcpf_space(m, (0, m), pri),
    ):
        lazy = build(None)
        pri = rng.random(len(lazy))
        pri /= pri.sum()
        eager = build(pri)
        assert eager.target_counts == lazy.target_counts
        assert len(eager) == len(lazy)
        assert eager.patterns == lazy.patterns
        assert np.array_equal(eager.priors, pri)
        assert eager.uniform is (len(lazy) == 1)
        assert build(np.full(len(lazy), 1.0 / len(lazy))).uniform is True
        with pytest.raises(DimensionError):
            build(np.full(len(lazy) + 1, 1.0 / (len(lazy) + 1)))


def test_only_position_finding_spaces_leave_patterns_out():
    with pytest.raises(ValueError):
        ImageSpace(3)
    with pytest.raises(ValueError):
        ImageSpace(3, priors=np.full(8, 0.125), target_counts=full_space(3).target_counts)
    with pytest.raises(DimensionError):
        full_space(0)


def test_full_space_capacity_guard():
    with pytest.raises(CapacityError):
        full_space(25)


def test_every_space_is_capped_at_24_channels():
    long_patterns = [(0,) * 25, (1,) + (0,) * 24]
    for build in (
        lambda: full_space(25),
        lambda: cpf_space(25, 1),
        lambda: bcpf_space(25, (1, 3)),
        lambda: ImageSpace(25, long_patterns, [0.5, 0.5]),
        lambda: read_space(io.StringIO("".join("".join(map(str, p)) + "\n" for p in long_patterns))),
    ):
        with pytest.raises(CapacityError, match="capped at m=24"):
            build()
    # the cap itself is a space
    assert len(cpf_space(24, 1)) == 24


def test_hamming_basics():
    assert hamming((0, 1, 1), (0, 1, 1)) == 0
    assert hamming((0, 1), (1, 0)) == 2
    with pytest.raises(DimensionError):
        hamming((0,), (0, 1))


@pytest.mark.parametrize("m", range(2, 9))
def test_hamming_attainable_distances_between_cpf_spaces(m):
    # distances between v-target and u-target patterns are exactly
    # 2t - (v + u) for t from max(v, u) to min(v + u, m)
    for v in range(0, m + 1):
        for u in range(v + 1, m + 1):
            got = {
                hamming(a, b)
                for a in cpf_space(m, v).patterns
                for b in cpf_space(m, u).patterns
            }
            want = {2 * t - (v + u) for t in range(u, min(v + u, m) + 1)}
            assert got == want


def write_space(space: ImageSpace, fh) -> None:
    """Write a space in the format ``read_space`` reads: one pattern per
    line as a bitstring, then its weight."""
    for pat, w in zip(space.patterns, space.priors):
        fh.write("".join(str(b) for b in pat) + f" {float(w)!r}\n")


def test_serialization_round_trip_uniform():
    space = cpf_space(4, 2)
    buf = io.StringIO()
    write_space(space, buf)
    buf.seek(0)
    back = read_space(buf)
    assert back.patterns == space.patterns
    assert np.allclose(back.priors, space.priors, atol=1e-15)


def test_serialization_round_trip_weighted():
    pri = np.array([0.125, 0.375, 0.5])
    space = ImageSpace(2, ((0, 0), (0, 1), (1, 1)), pri)
    buf = io.StringIO()
    write_space(space, buf)
    buf.seek(0)
    back = read_space(buf)
    assert np.allclose(back.priors, pri, atol=1e-15)


def test_census_single_tmsv_block_m2():
    # classes 01, 02, 11, 12 with ordered-pair multiplicities 4, 2, 2, 4
    census = pair_degeneracy_census(full_space(2), ((0, 1),))
    assert census == {
        ((0, 1, 1),): 4,
        ((0, 2, 2),): 2,
        ((1, 1, 2),): 2,
        ((1, 2, 1),): 4,
    }


def test_census_total_excludes_diagonal():
    for space in (full_space(3), cpf_space(4, 2), bcpf_space(4, (1, 2))):
        census = pair_degeneracy_census(space, ((0, 1), (2, 3)) if space.m == 4 else ((0, 1, 2),))
        assert sum(census.values()) == len(space) ** 2 - len(space)


def test_census_m4_pair_blocks_total():
    census = pair_degeneracy_census(full_space(4), ((0, 1), (2, 3)))
    assert sum(census.values()) == 240


def test_cpf_census_counts_match_binomials():
    # single-block census of a k-CPF space: multiplicity of distance
    # 2(t-k) equals C(m,t) C(t,k) C(k,2k-t); exhaustive up to m = 10
    for m in range(2, 11):
        for k in range(1, m + 1):
            census = pair_degeneracy_census(cpf_space(m, k), (tuple(range(m)),))
            got = {key[0][2]: count for key, count in census.items()}
            want = {}
            for t in range(k + 1, min(2 * k, m) + 1):
                want[2 * (t - k)] = math.comb(m, t) * math.comb(t, k) * math.comb(k, 2 * k - t)
            assert got == want


def test_pair_class_key_canonicalizes():
    key = pair_class_key((0, 0, 1, 1), (1, 1, 1, 0), ((0, 1), (2, 3)))
    assert key == ((0, 2, 2), (1, 2, 1))
