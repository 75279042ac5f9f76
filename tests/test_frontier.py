"""The frontier DP for overlapping blocks, and the dense route that
``evaluate`` takes on custom spaces, against the dense copy-channel
extension table, which evaluates every pattern pair."""

import math

import numpy as np
import pytest

import multiprobe.bounds as bounds_mod
from multiprobe.bounds import (
    FidelityTable,
    bounds_from_table,
    census_histogram,
    evaluate,
    fidelity_table_blocks,
    fidelity_table_frontier,
)
from multiprobe.channels import ChannelFamily
from multiprobe.cli import build_space, main
from multiprobe.errors import CapacityError
from multiprobe.imagespace import ImageSpace
from multiprobe.presets import MUTUAL, ProbePlan
from multiprobe.probes import ProbeSpec, extend_for_mutual_probing, nn_partition, parse_partition

MU = 20.5
FAMILIES = {
    "loss": ChannelFamily.pure_loss(0.99, 0.97),
    "additive": ChannelFamily.additive(0.02, 0.01),
    "thermal": ChannelFamily.thermal(0.9, 1.2, 0.8, 1.5),
}
CASES = [(f"nn-m{m}-{space}", "nn", m, space)
         for m in range(3, 13) for space in ("full", "cpf:1", "cpf:3", "bcpf:1,3")]
CASES += [
    ("windows-m7-full", "123|345|567|71", 7, "full"),
    ("windows-m7-cpf2", "123|345|567|71", 7, "cpf:2"),
    ("out-of-order-m5-full", "45|12|23|34|51", 5, "full"),
    ("out-of-order-m5-bcpf", "45|12|23|34|51", 5, "bcpf:0,2,5"),
]
COPIES = (1, 2, 7.5)
MS = (1, 10, 100, 1000, 5000)


def _partition(text, m):
    return nn_partition(m) if text == "nn" else parse_partition(text, m)


def dense_table(space, partition, family):
    """One entry per unordered pair of extended patterns."""
    ext_part, ext_space = extend_for_mutual_probing(partition, space)
    descs = ProbeSpec(ext_part.m, MU, ext_part.blocks).descriptors()
    return fidelity_table_blocks(ext_space.extended, None, descs, family)


def merged(table):
    """The dense table with equal log F entries merged: the same census and
    pair sums, without sorting 8.4M entries for every copy number at m=12."""
    logf, mult = np.unique(table.logf, return_counts=True)
    return FidelityTable(table.n_patterns, 2.0 * mult, logf)


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
@pytest.mark.parametrize("text, m, space_text", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_frontier_matches_dense_extension(text, m, space_text, family):
    space = build_space(space_text, m)
    partition = _partition(text, m)
    got = fidelity_table_frontier(space, partition, [(family, MU)])[0]
    dense = dense_table(space, partition, family)
    # a custom copy of the space takes the dense route, which reads the
    # overlapping blocks off the patterns: the extension's entries exactly
    custom = ImageSpace(m, space.patterns, space.priors)
    direct = evaluate(ProbePlan(MUTUAL, partition=partition), custom, family, mu=MU)
    assert np.array_equal(direct.logf, dense.logf)
    assert np.array_equal(direct.counts, dense.counts)
    assert direct.weights is None
    ref = merged(dense)
    n = len(space)
    assert got.counts.sum() == n * (n - 1)
    # the same log F floats as the dense block-order sums, with their pair counts
    assert np.array_equal(got.logf, ref.logf)
    assert np.array_equal(got.counts, ref.counts)
    for copies in COPIES:
        assert census_histogram(got, copies) == census_histogram(ref, copies)
    for copies in MS:
        a, b = bounds_from_table(got, copies), bounds_from_table(ref, copies)
        assert a.upper_raw == pytest.approx(b.upper_raw, rel=1e-12, abs=0)
        assert a.lower_raw == pytest.approx(b.lower_raw, rel=1e-12, abs=0)


def test_evaluate_takes_the_frontier_dp_on_uniform_spaces():
    space = build_space("cpf:3", 9)
    plan = ProbePlan(MUTUAL, partition=nn_partition(9))
    table = evaluate(plan, space, FAMILIES["loss"], mu=MU)
    assert (table.method, table.partition, table.rounds) == ("mutual", plan.partition, 3)
    # one entry per distinct log F, not per pattern pair
    assert len(np.unique(table.logf)) == len(table.logf) < len(space) * (len(space) - 1) // 2


def test_frontier_upper_bound_matches_exact_sum_m12():
    space = build_space("full", 12)
    partition = nn_partition(12)
    family = FAMILIES["loss"]
    got = fidelity_table_frontier(space, partition, [(family, MU)])[0]
    dense_logf = dense_table(space, partition, family).logf
    n = len(space)
    for copies in (1, 100):
        exact = 2.0 * math.fsum(np.exp(copies * dense_logf)) / n
        assert bounds_from_table(got, copies).upper_raw == pytest.approx(exact, rel=1e-14, abs=0)


def _nn_bounds_argv(m):
    return ["bounds", "--family", "pure-loss", "--m", str(m), "--eta-b", "0.99",
            "--eta-t", "0.97", "--ns", "20", "--mbar", "10", "--space", "full", "--probe", "nn"]


def test_nn_bounds_beyond_the_dense_cap(capsys):
    # 16,384 patterns: over the dense table's 4,096
    assert main(_nn_bounds_argv(14)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2].endswith(",mutual,2")


def test_frontier_state_cap(monkeypatch, capsys):
    monkeypatch.setattr(bounds_mod, "BLOCK_TABLE_MAX_PATTERNS", 8)
    with pytest.raises(CapacityError):
        fidelity_table_frontier(build_space("full", 6), nn_partition(6), [(FAMILIES["loss"], MU)])
    assert main(_nn_bounds_argv(6)) == 1
    assert "frontier DP capped" in capsys.readouterr().err


@pytest.mark.parametrize("floats", [64, 4096])
def test_split_rows_give_the_tables_of_lone_points(monkeypatch, floats):
    space, partition = build_space("full", 9), nn_partition(9)
    points = [(family, mu) for family in FAMILIES.values() for mu in (MU, 5.5)]
    alone = [fidelity_table_frontier(space, partition, [point])[0] for point in points]
    groups, batches = [], []
    rows, lookup = bounds_mod._frontier_rows, bounds_mod.block_fidelities

    def rows_spy(*args):
        got = rows(*args)
        groups.append((got[0], len(got[2])))
        return got

    def lookup_spy(block, pairs):
        batches.append(len(block))
        return lookup(block, pairs)

    monkeypatch.setattr(bounds_mod, "BATCH_MAX_FLOATS", floats)
    monkeypatch.setattr(bounds_mod, "_frontier_rows", rows_spy)
    monkeypatch.setattr(bounds_mod, "block_fidelities", lookup_spy)
    got = fidelity_table_frontier(space, partition, points)
    # the rows that did not fit resume later; together they cover every point once
    assert len(groups) > 1
    assert sorted(first + k for first, size in groups for k in range(size)) == list(range(len(points)))
    if floats == 64:
        assert sorted(groups) == [(k, 1) for k in range(len(points))]
    # block log-fidelities are looked up for every point at once
    assert batches and set(batches) == {len(points)}
    for table, ref in zip(got, alone):
        assert np.array_equal(table.logf, ref.logf)
        assert np.array_equal(table.counts, ref.counts)
