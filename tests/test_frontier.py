"""The frontier DP for overlapping blocks, and the dense route that
``evaluate`` takes on custom spaces, against the dense copy-channel
extension table, which evaluates every pattern pair; and the bound sums
that ``bound_reports`` takes straight from the frontier DP: how they split
their rows, look up their block fidelities and meet their edge cases.  The
sums against the tables of both DPs are checked in ``test_counting``."""

import itertools
import math

import numpy as np
import pytest

import multiprobe.blocks as blocks_mod
import multiprobe.bounds as bounds_mod
import multiprobe.dp as dp
from multiprobe.bounds import (
    FidelityTable,
    bounds_from_table,
    bruteforce_fidelities,
    census_histogram,
    evaluate,
    evaluate_points,
    fidelity_table_blocks,
)
from multiprobe.channels import ChannelFamily
from multiprobe.cli import build_space, main
from multiprobe.errors import CapacityError
from multiprobe.imagespace import ImageSpace
from multiprobe.probes import (
    BlockDescriptor,
    ProbeSpec,
    SymmetricBlock,
    extend_for_mutual_probing,
    nn_partition,
    parse_partition,
)

from conftest import assert_sums_match_entries, pair_codes, pure_symmetric_numbers, report_rows

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


def probe_points(partition, points):
    """The (probe, family, ns) points of (family, mu) points: GHZ blocks on
    ``partition``, one spec per mu."""
    specs = {mu: ProbeSpec.from_partition(partition, mu) for _, mu in points}
    return [(specs[mu], family, None) for family, mu in points]


def frontier_tables(space, partition, points):
    """The frontier DP tables of (family, mu) points, through ``evaluate_points``."""
    return evaluate_points(space, probe_points(partition, points))


def frontier_sums(space, partition, points, copies):
    """The frontier DP sums of (family, mu) points, through ``bound_reports``
    (``report_rows``)."""
    return report_rows(space, probe_points(partition, points), copies)


def dense_table(space, partition, family):
    """One entry per unordered pair of extended patterns."""
    ext_part, ext_patterns = extend_for_mutual_probing(partition, space)
    descs = ProbeSpec.from_partition(ext_part, MU).blocks
    return fidelity_table_blocks(ext_patterns, None, descs, family)


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
    got = frontier_tables(space, partition, [(family, MU)])[0]
    dense = dense_table(space, partition, family)
    # a custom copy of the space takes the dense route, which reads the
    # overlapping blocks off the patterns: the extension's entries exactly
    custom = ImageSpace(m, space.patterns, space.priors)
    direct = evaluate(ProbeSpec.from_partition(partition, MU), custom, family)
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
    spec = ProbeSpec.from_partition(nn_partition(9), MU)
    table = evaluate(spec, space, FAMILIES["loss"])
    assert (table.method, table.probe, table.rounds) == ("mutual", spec, 3)
    # one entry per distinct log F, not per pattern pair
    assert len(np.unique(table.logf)) == len(table.logf) < len(space) * (len(space) - 1) // 2


def test_frontier_upper_bound_matches_exact_sum_m12():
    space = build_space("full", 12)
    partition = nn_partition(12)
    family = FAMILIES["loss"]
    got = frontier_tables(space, partition, [(family, MU)])[0]
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
        frontier_tables(build_space("full", 6), nn_partition(6), [(FAMILIES["loss"], MU)])
    assert main(_nn_bounds_argv(6)) == 1
    assert "frontier DP capped" in capsys.readouterr().err


def test_entries_are_capped_apart_from_the_keys(monkeypatch):
    # nn at m=9 has at most 14 keys per channel, but far more (key, log F) entries
    monkeypatch.setattr(bounds_mod, "BLOCK_TABLE_MAX_PATTERNS", 16)
    space, partition, points = build_space("full", 9), nn_partition(9), [(FAMILIES["loss"], MU)]
    (row,) = frontier_sums(space, partition, points, [[1, 10]])
    assert len(row) == 2
    with pytest.raises(CapacityError, match="frontier DP capped at 128 states"):
        frontier_tables(space, partition, points)


def test_evaluate_points_gives_the_tables_of_lone_points():
    space, partition = build_space("full", 9), nn_partition(9)
    points = probe_points(partition, [(family, mu) for family in FAMILIES.values() for mu in (MU, 5.5)])
    tables = evaluate_points(space, points)
    assert len(tables) == len(points)
    for table, point in zip(tables, points):
        (alone,) = evaluate_points(space, [point])
        assert np.array_equal(table.logf, alone.logf)
        assert np.array_equal(table.counts, alone.counts)
        assert (table.method, table.probe, table.rounds) == ("mutual", point[0], alone.rounds)


SUMS_COPIES = [1, 10, 100, 1000, 5000]


def test_sums_route_rows_do_not_depend_on_their_chunks(monkeypatch):
    space, partition = build_space("cpf:3", 9), nn_partition(9)
    points = [(family, mu) for family in FAMILIES.values() for mu in (MU, 5.5)]
    copies = [SUMS_COPIES] * len(points)
    whole = frontier_sums(space, partition, points, copies)
    chunks = []
    sums = bounds_mod.replay_sums

    def spy(plan, final, luts):
        chunks.append(next(iter(luts.values())).shape[1])
        return sums(plan, final, luts)

    monkeypatch.setattr(bounds_mod, "BATCH_MAX_FLOATS", 8)
    monkeypatch.setattr(bounds_mod, "replay_sums", spy)
    chunked = frontier_sums(space, partition, points, copies)
    # one (point, copy number) row, as F^M and F^2M columns, per chunk
    assert chunks == [2] * len(points) * len(SUMS_COPIES)
    assert chunked == whole
    tables = frontier_tables(space, partition, points)
    assert_sums_match_entries(chunked, tables, SUMS_COPIES, "mutual")
    alone = [frontier_sums(space, partition, [point], [[c]])[0][0] for point in points for c in SUMS_COPIES]
    assert [r for row in whole for r in row] == alone


@pytest.mark.parametrize("floats", [64, 2048])
def test_split_rows_give_the_tables_of_lone_points(monkeypatch, floats):
    space, partition = build_space("full", 9), nn_partition(9)
    points = [(family, mu) for family in FAMILIES.values() for mu in (MU, 5.5)]
    copies = [SUMS_COPIES] * len(points)
    alone_tables = [frontier_tables(space, partition, [point])[0] for point in points]
    alone = [frontier_sums(space, partition, [point], [SUMS_COPIES])[0] for point in points]
    chunks, batches = [], []
    sums, lookup = bounds_mod.replay_sums, bounds_mod.block_fidelities

    def sums_spy(plan, final, luts):
        chunks.append(next(iter(luts.values())).shape[1] // 2)
        return sums(plan, final, luts)

    def lookup_spy(block, codes):
        batches.append(len(block))
        return lookup(block, codes)

    monkeypatch.setattr(bounds_mod, "BATCH_MAX_FLOATS", floats)
    monkeypatch.setattr(bounds_mod, "replay_sums", sums_spy)
    monkeypatch.setattr(bounds_mod, "block_fidelities", lookup_spy)
    got = frontier_sums(space, partition, points, copies)
    # the rows that did not fit run in later chunks; together they cover every row once
    assert len(chunks) > 1
    assert sum(chunks) == len(points) * len(SUMS_COPIES)
    if floats == 64:
        assert chunks == [1] * len(points) * len(SUMS_COPIES)
    # block fidelities are looked up for every point at once
    assert batches and set(batches) == {len(points)}
    assert got == alone
    assert_sums_match_entries(got, alone_tables, SUMS_COPIES, "mutual")


@pytest.mark.parametrize("consumer", [
    lambda space, partition, points: frontier_sums(space, partition, points, [[1]] * len(points)),
    frontier_tables,
], ids=["sums", "entries"])
def test_frontier_looks_up_reachable_pairs_in_one_batch(monkeypatch, consumer):
    # both consumers of the plan share its lookup
    space, partition = build_space("cpf:1", 9), nn_partition(9)
    points = [(family, mu) for family in FAMILIES.values() for mu in (MU, 5.5)]
    batches = []
    lookup = bounds_mod.block_fidelities

    def spy(block, codes):
        batches.append((len(block), dp.class_counts(2, codes).tolist()))
        return lookup(block, codes)

    monkeypatch.setattr(bounds_mod, "block_fidelities", spy)
    consumer(space, partition, points)
    # two-channel blocks; on cpf:1 a block holds at most one target of each
    # pattern: (n00, n01, n10, n11) of (2, 0, 0, 0), (1, 0, 0, 1), (1, 1, 0, 0)
    # and (0, 1, 1, 0), of all 7 classes
    ((n_points, classes),) = batches
    assert n_points == len(points)
    assert classes == [[2, 0, 0, 0], [1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0]]


def test_sums_route_on_a_one_pattern_space():
    # no pair of patterns differs: both bounds are an empty sum
    space, partition = build_space("cpf:0", 4), nn_partition(4)
    (row,) = frontier_sums(space, partition, [(FAMILIES["loss"], MU)], [[1, 7]])
    assert [(r.lower_raw, r.upper_raw) for r in row] == [(0.0, 0.0)] * 2
    (table,) = frontier_tables(space, partition, [(FAMILIES["loss"], MU)])
    assert len(table.logf) == 0


def test_sums_route_checks_its_copy_numbers():
    space, partition = build_space("full", 4), nn_partition(4)
    with pytest.raises(ValueError, match="copy number"):
        frontier_sums(space, partition, [(FAMILIES["loss"], MU)], [[0.5]])


def test_frontier_keys_fit_an_int64_up_to_the_boundary():
    # a block over every channel holds them all to the end: m slots, so
    # 2 * 26 + 1 + 2 * bit_length(26) = 63 key bits at m = 26, 65 at m = 27
    blocks = [(26, tuple(range(26))), (2, (0, 1))]
    plan, final, codes = dp.frontier_plan(blocks, 26, (1,), cap=10**6)
    # with every block factor 1 the sum counts the ordered pairs of one-target patterns
    luts = {size: np.ones((len(reachable), 1)) for size, reachable in codes.items()}
    assert dp.replay_sums(plan, final, luts).tolist() == [26 * 25]
    with pytest.raises(CapacityError, match="65 bits"):
        dp.frontier_plan([(27, tuple(range(27))), (2, (0, 1))], 27, (1,), cap=10**6)


@pytest.mark.parametrize("family", FAMILIES.values(), ids=FAMILIES.keys())
def test_block_fidelities_are_bitwise_symmetric_in_the_pair(monkeypatch, family):
    # the frontier DP merges each state with its mirror, which is exact only
    # if (a, b) and (b, a) read the same value, whichever order comes first:
    # both have one class code, and so one lut entry
    blocks = [BlockDescriptor("ghz", (0, 1, 2), mu=MU), SymmetricBlock((0, 1, 2), 0, *pure_symmetric_numbers(3, MU)),
              BlockDescriptor("ghz", (0, 1), 1, mu=5.5), BlockDescriptor("coherent", (0, 1), alpha=1.5)]
    for block in blocks:
        local = list(itertools.product((0, 1), repeat=len(block.channels)))
        pairs = list(itertools.product(local, repeat=2))
        codes, mirrored = pair_codes(pairs), pair_codes([(b, a) for a, b in pairs])
        assert np.array_equal(codes, mirrored)
        monkeypatch.setattr(blocks_mod, "_BLOCK_FID_CACHE", {})
        fids = blocks_mod.block_fidelities([(block, family)], codes)
        monkeypatch.setattr(blocks_mod, "_BLOCK_FID_CACHE", {})
        swapped = blocks_mod.block_fidelities([(block, family)], mirrored[::-1])
        assert np.array_equal(fids, swapped[:, ::-1])
        assert len(np.unique(fids)) > 2


@pytest.mark.parametrize("m, space_text, states", [
    (9, "full", [3, 10, 14, 14, 14, 14, 14, 14, 2]),
    (9, "cpf:3", [3, 10, 36, 70, 85, 86, 74, 43, 2]),
    (12, "full", [3, 10] + [14] * 9 + [2]),
])
def test_frontier_merges_each_state_with_its_mirror(m, space_text, states):
    # kept apart, a state and its mirror (A and B swapped) give the nn ring
    # [4, 16, 20, ..., 2] states per channel on full, and on cpf:3 at m=9
    # [4, 16, 64, 125, 151, 152, 129, 71, 2]
    space = build_space(space_text, m)
    plan, final, codes = dp.frontier_plan(list(enumerate(nn_partition(m).blocks)), m, space.target_counts, cap=10**6)
    assert [len(starts) for *_, starts in plan] == states
    # with every block factor 1 the merged states still count every ordered pair
    luts = {lut: np.ones((len(reachable), 1)) for lut, reachable in codes.items()}
    assert dp.replay_sums(plan, final, luts).tolist() == [len(space) * (len(space) - 1)]


# overlapping specs by the numbers of their blocks: GHZ at one energy, GHZ at
# two energies in turn, and pure symmetric blocks, which differ from GHZ from
# three modes on
OVERLAPPING = {
    "ghz-nn3": ("ghz", "nn", 3),
    "ghz-nn4": ("ghz", "nn", 4),
    "ghz-nn5": ("ghz", "nn", 5),
    "two-energies-nn4": ("two-energies", "nn", 4),
    "two-energies-nn5": ("two-energies", "nn", 5),
    "pure-windows-m5": ("pure", "123|345|51", 5),
}


def overlapping_spec(numbers, text, m):
    blocks = _partition(text, m).blocks
    if numbers == "ghz":
        descs = [BlockDescriptor("ghz", blk, mu=MU) for blk in blocks]
    elif numbers == "two-energies":
        descs = [BlockDescriptor("ghz", blk, mu=(MU, 5.5)[j % 2]) for j, blk in enumerate(blocks)]
    else:
        descs = [SymmetricBlock(blk, 0, *pure_symmetric_numbers(len(blk), MU)) for blk in blocks]
    return ProbeSpec(m, descs)


@pytest.mark.parametrize("space_text", ["full", "cpf:1", "file"])
@pytest.mark.parametrize("numbers, text, m", OVERLAPPING.values(), ids=OVERLAPPING.keys())
def test_overlapping_specs_match_the_joint_state(tmp_path, numbers, text, m, space_text):
    # the frontier tables and sums, and the dense route on a weighted custom
    # space, against full-state fidelities of the joint probe of all blocks,
    # each channel used once per block that holds it
    spec = overlapping_spec(numbers, text, m)
    assert not spec.disjoint
    if space_text == "file":
        space_file = tmp_path / "space.txt"
        weighted = [f"{k:0{m}b} {1 + k % 3}" for k in range(2**m) if bin(k).count("1") in (1, 2)]
        space_file.write_text("\n".join(weighted) + "\n")
        space_text = f"file:{space_file}"
    space = build_space(space_text, m)
    families = [FAMILIES["loss"], FAMILIES["additive"]]
    points = [(spec, family, None) for family in families]
    copies = (1, 7, 100)
    tables = evaluate_points(space, points)
    sums = report_rows(space, points, [copies] * len(points))
    priors = None if space.uniform else space.priors
    checked = 0
    for family, table, row in zip(families, tables, sums):
        assert table.method == "mutual" and table.probe is spec
        ref = FidelityTable.from_fidelities(len(space), bruteforce_fidelities(space.patterns, spec, family), priors)
        for c, rs in zip(copies, row):
            want = bounds_from_table(ref, c)
            for got in (bounds_from_table(table, c), rs):
                for g, w in ((got.upper_raw, want.upper_raw), (got.lower_raw, want.lower_raw)):
                    assert w > 0 and abs(g - w) <= 1e-10 * w
                    checked += 1
    assert checked == 2 * 2 * 2 * len(copies)


@pytest.mark.parametrize("m", range(1, 13))
def test_reach_follows_the_admissible_counts(m):
    # the full space, every single count, every set less one count (so
    # either endpoint), and every two counts, adjacent or gapped
    counts = range(m + 1)
    sets = ([tuple(counts)] + [(k,) for k in counts] + [tuple(c for c in counts if c != k) for k in counts]
            + list(itertools.combinations(counts, 2)))
    for ks in sets:
        reach = dp._reach(m, ks)
        if set(ks) == set(counts):
            assert reach is None
            continue
        want = [[any(t <= k <= t + rem for k in ks) for t in counts] for rem in counts]
        assert reach.tolist() == want, ks
