import itertools
import math

import numpy as np
import pytest

from multiprobe.bounds import (
    FidelityTable,
    block_fidelities,
    bounds_from_table,
    bound_reports,
    census_histogram,
    evaluate,
    fidelity_table_bruteforce,
)
from multiprobe.channels import ChannelFamily, apply_pattern_with_idlers
from multiprobe.gaussian import gaussian_fidelity, ghz_cm
from multiprobe.errors import DimensionError, PartitionError
from multiprobe.imagespace import ImageSpace, full_space
from multiprobe.probes import (
    BlockDescriptor,
    Partition,
    ProbeSpec,
    extend_for_mutual_probing,
    nn_partition,
)

from conftest import ghz_spec

LOSS = ChannelFamily.pure_loss(0.99, 0.97)
ADD = ChannelFamily.additive(0.02, 0.01)


def mutual_bounds(space, partition, family, mu, copies):
    return bounds_from_table(evaluate(ProbeSpec.from_partition(partition, mu), space, family), copies)


def exhaustive_product_table(partition, space, family, mu):
    """Per-pair products of per-block fidelities, no grouping or lookup."""
    ext_part, ext_patterns = extend_for_mutual_probing(partition, space)
    blocks = []
    for blk in ext_part.blocks:
        state = ghz_cm(len(blk), mu)
        lay = tuple(range(len(blk)))
        blocks.append((blk, state, lay))
    outs = [
        [
            apply_pattern_with_idlers(state, family, tuple(pat[c] for c in blk), lay)
            for blk, state, lay in blocks
        ]
        for pat in ext_patterns
    ]
    n = len(outs)
    logf = [
        math.log(math.prod(gaussian_fidelity(a, b) for a, b in zip(outs[i], outs[j])))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return FidelityTable.pairs(n, logf)


@pytest.mark.parametrize("family", [LOSS, ADD], ids=["loss", "additive"])
@pytest.mark.parametrize("m", [3, 4])
def test_nn_matches_exhaustive_products(family, m):
    mu, copies = 20.5, 2
    partition = nn_partition(m)
    space = full_space(m)
    got = mutual_bounds(space, partition, family, mu, copies)
    ref = bounds_from_table(exhaustive_product_table(partition, space, family, mu), copies)
    assert got.upper_raw == pytest.approx(ref.upper_raw, rel=1e-12)
    assert got.lower_raw == pytest.approx(ref.lower_raw, rel=1e-12)


@pytest.mark.parametrize("family", [LOSS, ADD], ids=["loss", "additive"])
def test_nn_m3_matches_joint_state_fidelities(family):
    # multiplicativity cross-check: products of block fidelities equal the
    # fidelity on the full extended covariance matrix
    mu, copies = 20.5, 2
    partition = nn_partition(3)
    space = full_space(3)
    ext_part, ext_patterns = extend_for_mutual_probing(partition, space)
    spec = ProbeSpec.from_partition(ext_part, mu)
    joint = fidelity_table_bruteforce(ext_patterns, None, spec, family)
    ref = bounds_from_table(joint, copies)
    got = mutual_bounds(space, partition, family, mu, copies)
    assert got.upper_raw == pytest.approx(ref.upper_raw, rel=1e-10)
    assert got.lower_raw == pytest.approx(ref.lower_raw, rel=1e-10)


def test_mutual_with_disjoint_partition_reduces_to_counting():
    # a partition whose blocks do not overlap is probed as a disjoint spec
    partition = Partition(4, ((0, 1), (2, 3)))
    space = full_space(4)
    spec = ghz_spec(4, 20.5, ((0, 1), (2, 3)))
    mut = mutual_bounds(space, partition, ADD, 20.5, 3)
    cnt = bounds_from_table(evaluate(spec, space, ADD), 3)
    brt = bounds_from_table(fidelity_table_bruteforce(space.patterns, None, spec, ADD), 3)
    assert mut.m_bar == mut.copies == 3.0
    assert (mut.method, mut.rounds) == ("counting", None)
    assert mut.upper_raw == pytest.approx(cnt.upper_raw, rel=1e-10)
    assert mut.upper_raw == pytest.approx(brt.upper_raw, rel=1e-10)
    assert mut.lower_raw == pytest.approx(brt.lower_raw, rel=1e-10)


def test_mutual_plan_rejects_idlers():
    # the frontier and dense routes read no idlers: overlapping blocks with
    # idlers are refused when the spec is built, not dropped
    with pytest.raises(PartitionError, match="idlers"):
        ProbeSpec(3, (BlockDescriptor("ghz", (0,), 1, mu=20.5), BlockDescriptor("ghz", (0, 1, 2), mu=20.5)))
    with pytest.raises(PartitionError, match="idlers"):
        Partition(3, ((0,), (0, 1, 2)), (1, 0))


def test_mutual_resource_accounting():
    rep = mutual_bounds(full_space(4), nn_partition(4), ADD, 20.5, 5)
    assert rep.copies == 5.0
    assert rep.m_bar == 10.0  # l = m doubles the average channel use
    assert rep.rounds == 2
    assert rep.method == "mutual"


def test_every_route_gives_one_channel_use():
    # (m + l) / m * M in floats, for an integer M too, on the dense route
    # (a custom space), the frontier DP and off a table: with m = 3 and
    # l = 1, 4 / 3 * 5 is not the float nearest to 20 / 3
    spec = ProbeSpec.from_partition(Partition(3, ((0, 1), (1, 2))), 20.5)
    space = full_space(3)
    custom = ImageSpace(3, space.patterns, space.priors)
    copies = [1, 5, 7]
    want = [4 / 3 * c for c in copies]
    assert want[1] != 20 / 3
    for target in (custom, space):
        assert bound_reports(target, [(spec, ADD, None)], [copies]).m_bar.tolist() == want
        assert [bounds_from_table(evaluate(spec, target, ADD), c).m_bar for c in copies] == want


def test_mutual_extension_cardinality_m4():
    partition = nn_partition(4)
    space = full_space(4)
    _, ext_patterns = extend_for_mutual_probing(partition, space)
    assert len(ext_patterns) == len(space) == 16


@pytest.mark.parametrize("family", [LOSS, ADD], ids=["loss", "additive"])
def test_dense_census_equals_pair_enumeration(family):
    # F^copies over every ordered pair of distinct extended patterns, with
    # log F summed over blocks in block order and rounded to 12 decimals
    mu, copies = 20.5, 2.5
    partition = nn_partition(4)
    space = full_space(4)
    table = evaluate(ProbeSpec.from_partition(partition, mu), space, family)
    ext_part, ext_patterns = extend_for_mutual_probing(partition, space)
    descs = ProbeSpec.from_partition(ext_part, mu).blocks
    hist = {}
    for a in ext_patterns:
        for b in ext_patterns:
            if a == b:
                continue
            logf = 0.0
            for desc in descs:
                local_a = tuple(a[c] for c in desc.channels)
                local_b = tuple(b[c] for c in desc.channels)
                logf += math.log(block_fidelities([(desc, family)], [(local_a, local_b)])[0, 0])
            value = float(np.round(np.exp(copies * logf), 12))
            hist[value] = hist.get(value, 0) + 1
    assert sum(hist.values()) == 16 * 15
    assert census_histogram(table, copies) == sorted(hist.items())


def test_dense_mutual_rejects_a_partition_of_another_length():
    # custom spaces take the dense route, which reads blocks off the patterns;
    # classed spaces the frontier DP
    space = full_space(5)
    custom = ImageSpace(5, space.patterns, space.priors)
    for target, m in itertools.product((custom, space), (4, 6)):
        spec = ProbeSpec.from_partition(nn_partition(m), 20.5)
        with pytest.raises(DimensionError):
            evaluate(spec, target, ADD)
        with pytest.raises(DimensionError):
            bound_reports(target, [(spec, ADD, None)], [[1]])
