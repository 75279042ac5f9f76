import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiprobe.blocks as blocks_mod
import multiprobe.bounds as bounds_mod
import multiprobe.dp as dp
from multiprobe.bounds import (
    BoundReport,
    FidelityTable,
    bound_reports,
    bounds_from_table,
    bounds_tmsv_pairs,
    bounds_tmsv_pairs_odd,
    block_fidelities,
    census_histogram,
    block_subfidelity,
    evaluate,
    evaluate_points,
    fidelity_table_bruteforce,
    guaranteed_advantage,
    per_channel_classical_fidelity,
    tmsv_subfidelity,
)
from multiprobe.channels import ChannelFamily, apply_mode_channels, layout_channels, mode_channel_map
from multiprobe.closedform import coherent_loss_fidelity, vacuum_additive_fidelity
from multiprobe.errors import (
    ComparabilityError,
    DimensionError,
    EnergyError,
    PartitionError,
    UnsupportedBenchmarkError,
)
from multiprobe.imagespace import (
    ImageSpace,
    bcpf_space,
    cpf_space,
    full_space,
)
from multiprobe import gaussian
from multiprobe.gaussian import CovMatrix, gaussian_fidelity, stacked_fidelities
from multiprobe.presets import CLASSICAL, resolve_probe
from multiprobe.probes import (
    HYBRID_COHERENT,
    SINGLE_IDLER,
    BlockDescriptor,
    ProbeSpec,
    SymmetricBlock,
    assemble_probe,
    extend_for_mutual_probing,
    full_idler_partition,
    nn_partition,
    odd_m_disjoint_spec,
    pair_partition,
)

from conftest import (any_family, budget_pairs, class_pairs, counting_sums, ghz_spec, hamming, occupancies,
                      pair_class_key, pair_codes, pair_degeneracy_census, patterns, pure_symmetric_numbers,
                      representative_pair)

LOSS = ChannelFamily.pure_loss(0.99, 0.97)
ADD = ChannelFamily.additive(0.02, 0.01)
THERMAL = ChannelFamily.thermal(0.8, 1.2, 0.9, 0.7)


def brute_table(space, spec, family):
    """The full-state reference table of a space, with its priors."""
    return fidelity_table_bruteforce(space.patterns, None if space.uniform else space.priors, spec, family)


def classed_table(counts, fids, n):
    logf = np.array([math.log(f) if f > 0 else -math.inf for f in fids])
    return FidelityTable(n, np.array(counts, float), logf)


def test_perfect_discrimination_gives_zero_bounds():
    table = classed_table([6], [0.0], 3)
    rep = bounds_from_table(table, 4)
    assert rep.upper_raw == 0.0
    assert rep.lower_raw == 0.0


def test_two_pattern_space_bounds():
    # |U| = 2, single fidelity f: UB = f^M, LB = f^(2M)/4
    f, m_copies = 0.9, 3
    table = classed_table([2], [f], 2)
    rep = bounds_from_table(table, m_copies)
    assert rep.upper_raw == pytest.approx(f**m_copies, rel=1e-14)
    assert rep.lower_raw == pytest.approx(f ** (2 * m_copies) / 4.0, rel=1e-14)


def test_report_clipping_and_invariants():
    table = classed_table([20], [0.999], 4)
    rep = bounds_from_table(table, 1)
    assert rep.upper_raw > 1.0
    assert rep.upper == 1.0
    assert 0.0 <= rep.lower <= rep.upper
    with pytest.raises(ValueError):
        bounds_from_table(table, 0.5)


def test_single_pattern_space_is_trivial():
    spec = ghz_spec(2, 20.5, ((0, 1),))
    rep = bounds_from_table(evaluate(spec, cpf_space(2, 2), LOSS), 5)
    assert rep.upper_raw == 0.0
    assert rep.lower_raw == 0.0


def test_one_cpf_ghz_closed_form():
    # single GHZ probe on 1-CPF: UB = (m-1) F^M, LB = (m-1)/(2m) F^(2M)
    m, copies = 5, 3
    spec = ghz_spec(m, 20.5, (tuple(range(m)),))
    space = cpf_space(m, 1)
    rep = bounds_from_table(evaluate(spec, space, ADD), copies)
    table = evaluate(spec, space, ADD)
    assert len(table.counts) == 1  # all 1-CPF pairs are one class
    fid = math.exp(table.logf[0])
    assert rep.upper_raw == pytest.approx((m - 1) * fid**copies, rel=1e-12)
    assert rep.lower_raw == pytest.approx(
        (m - 1) / (2 * m) * fid ** (2 * copies), rel=1e-12
    )


def enumerated_histogram(space, spec, family):
    """log F -> number of ordered pairs of distinct patterns, by enumerating
    the pairs' class keys and summing block log-fidelities in block order."""
    descs = spec.blocks
    hist = {}
    for key, count in pair_degeneracy_census(space, [desc.channels for desc in descs]).items():
        logf = 0.0
        for desc, (v, u, d) in zip(descs, key):
            logf += math.log(block_subfidelity(desc, family, v, u, d))
        hist[logf] = hist.get(logf, 0) + count
    return hist


def table_histogram(table):
    return dict(zip(table.logf.tolist(), table.counts.tolist()))


@pytest.mark.parametrize("seed", range(6))
def test_counting_census_totals_random_configs(seed):
    # ordered off-diagonal pair count must equal |U|^2 - |U| for any block
    # tiling and any admissible-target-count set
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 8))
    sizes = []
    left = m
    while left:
        s = int(rng.integers(1, left + 1))
        sizes.append(s)
        left -= s
    ks = sorted(rng.choice(range(m + 1), size=rng.integers(1, m + 1), replace=False))
    starts = np.cumsum([0] + sizes)
    blocks = tuple(tuple(range(starts[j], starts[j + 1])) for j in range(len(sizes)))
    spec = ghz_spec(m, 20.5, blocks, tuple(int(s == 1) for s in sizes))
    table = evaluate(spec, bcpf_space(m, ks), LOSS)
    n_patterns = sum(math.comb(m, k) for k in ks)
    assert sum(table.counts) == n_patterns**2 - n_patterns


def test_census_class_straddling_a_rounding_boundary_prints_as_one_row():
    # one class whose log F, ulps apart as sums of block log F in different
    # orders are, rounds to two 12-decimal values on its own; a distinct
    # class next to it, and two F = 0 entries
    centre = math.log(0.6484702612435)
    spread = centre + np.arange(-16, 17) * np.spacing(abs(centre))
    assert len(set(np.round(np.exp(spread), 12).tolist())) == 2
    logf = np.concatenate([spread[::-1], [math.log(0.6484702612), -math.inf, -math.inf]])
    counts = np.ones(len(logf))
    table = FidelityTable(12, counts, logf)
    # the class prints once, at its midpoint
    merged = float(np.round(np.exp(centre), 12))
    assert census_histogram(table) == [(0.0, 2), (0.648470261200, 1), (merged, len(spread))]
    assert [c for _, c in census_histogram(table, 2.0)] == [2, 1, len(spread)]
    # classes that round alike share a row, as before
    assert census_histogram(FidelityTable(12, counts[:2], np.log([0.25, 0.25 + 1e-14]))) == [(0.25, 2)]


def test_counting_census_equals_enumeration_m6_three_blocks():
    spec = ghz_spec(6, 20.5, ((0, 1, 2), (3, 4, 5)))
    for space in (full_space(6), cpf_space(6, 2), bcpf_space(6, (1, 2))):
        table = evaluate(spec, space, LOSS)
        assert table_histogram(table) == enumerated_histogram(space, spec, LOSS)


def test_hybrid_coherent_block_additive_equals_vacuum_benchmark():
    # displacements cancel for additive noise, so the hybrid remainder's
    # fidelity is the vacuum benchmark regardless of amplitude
    from multiprobe.probes import BlockDescriptor

    desc = BlockDescriptor("coherent", (0,), alpha=np.sqrt(20.0))
    got = block_subfidelity(desc, ADD, 0, 1, 1)
    assert got == pytest.approx(vacuum_additive_fidelity(0.02, 0.01), rel=1e-13)


def entrywise_state(n, a, b, c1, c2, alpha=0.0):
    """The n-mode permutation-symmetric state of numbers (a, b, c1, c2,
    alpha), built entry by entry apart from ``gaussian.symmetric_state``."""
    data, mean = np.zeros((2 * n, 2 * n)), np.zeros(2 * n)
    for i, j in itertools.product(range(n), repeat=2):
        data[2 * i, 2 * j] = a if i == j else c1
        data[2 * i + 1, 2 * j + 1] = b if i == j else c2
    mean[0::2] = math.sqrt(2.0) * alpha
    return CovMatrix(data, mean)


def scalar_block_fidelity(desc, family, local_a, local_b, state=None):
    """gaussian_fidelity on separately built output states of one block,
    whose state is built entry by entry from its numbers unless given."""
    if local_a == local_b:
        return 1.0
    if state is None:
        state = entrywise_state(desc.n_modes, desc.a, desc.b, desc.c1, desc.c2, desc.alpha)
    outs = []
    for bits in (local_a, local_b):
        params = [family.params(bit) for bit in bits]
        taus = [1.0] * desc.idlers + [p.tau for p in params]
        nus = [0.0] * desc.idlers + [p.nu for p in params]
        outs.append(apply_mode_channels(state, taus, nus))
    return gaussian_fidelity(*outs)


@st.composite
def block_descriptors(draw):
    """GHZ blocks of 1-4 channels with 0-2 idlers (two modes at least), a
    coherent mode, or a pure symmetric block of 3-4 channels."""
    shape = draw(st.integers(0, 5))
    if shape == 0:
        return BlockDescriptor("coherent", (0,), alpha=draw(st.floats(0.0, 6.0)))
    if shape == 1:
        size = draw(st.integers(3, 4))
        return SymmetricBlock(tuple(range(size)), 0, *pure_symmetric_numbers(size, draw(st.floats(0.5, 50.0))))
    size = draw(st.integers(1, 4))
    idlers = draw(st.integers(1 if size == 1 else 0, 2))
    return BlockDescriptor("ghz", tuple(range(size)), idlers, mu=draw(st.floats(0.5, 50.0)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), desc=block_descriptors(), family=any_family())
def test_block_fidelities_equal_scalar_path_bit_for_bit(data, desc, family):
    size = len(desc.channels)
    pairs = data.draw(st.lists(st.tuples(patterns(size), patterns(size)), min_size=1, max_size=30))
    pairs += [(a, a) for a, _ in pairs[:3]] + [(b, a) for a, b in pairs[:6]]
    if data.draw(st.booleans()):
        every = list(itertools.product((0, 1), repeat=size))
        pairs += list(itertools.product(every, every))
    data.draw(st.randoms()).shuffle(pairs)
    blocks_mod._BLOCK_FID_CACHE.clear()
    # every pair of a class reads its one value, which has the bits of each
    got = block_fidelities([(desc, family)], pair_codes(pairs))[0].tolist()
    assert got == [scalar_block_fidelity(desc, family, a, b) for a, b in pairs]
    # cached values are the same bits
    assert block_fidelities([(desc, family)], pair_codes(pairs[::-1]))[0].tolist() == got[::-1]


def test_two_block_shapes_of_one_size_and_energy_differ():
    # a 3-mode GHZ block, then the pure symmetric block on the same
    # channels at the same per-mode energy, in one process: block
    # fidelities are cached per state, so the second reads none of the
    # first's values
    n, mu = 3, 20.5
    c = math.sqrt(mu * mu - 0.25) / (n - 1)
    shapes = [(BlockDescriptor("ghz", (0, 1, 2), mu=mu), (mu, mu, c, -c)),
              (SymmetricBlock((0, 1, 2), 0, *pure_symmetric_numbers(n, mu)), pure_symmetric_numbers(n, mu))]
    for desc, numbers in shapes:
        data, mean = desc.state()
        assert np.array_equal(data, entrywise_state(n, *numbers).data) and not mean.any()
    pair = representative_pair(n, 0, 1, 1)
    blocks_mod._BLOCK_FID_CACHE.clear()
    got = [block_subfidelity(desc, LOSS, 0, 1, 1) for desc, _ in shapes]
    assert got == [scalar_block_fidelity(desc, LOSS, *pair, state=entrywise_state(n, *numbers))
                   for desc, numbers in shapes]
    assert got == pytest.approx([0.98799, 0.95621], abs=1e-5)
    pure = CovMatrix(*shapes[1][0].state())
    assert pure.spectrum == pytest.approx([0.5] * n, abs=1e-10)


@pytest.mark.parametrize("family", [
    LOSS, ADD, ChannelFamily.thermal(0.9, 1.5, 1.2, 0.8), ChannelFamily.pure_loss(0.0, 1.0),
], ids=["loss", "additive", "thermal", "loss-from-zero"])
@pytest.mark.parametrize("idlers", [0, 2])
def test_block_fidelities_beyond_the_stack_cap(monkeypatch, family, idlers):
    # every pair of a four-channel block, the largest evaluated whole,
    # without idlers or with two: 17 classes of differing patterns, one pair
    # each, with the float budget at three pairs per stacked _fidelity call
    # and twelve per key chunk: the key pass runs in several chunks and the
    # pairs in several stacked calls
    size = 4
    chunks = budget_pairs(monkeypatch, 3, size + idlers)
    desc = BlockDescriptor("ghz", tuple(range(size)), idlers, mu=7.3)
    every = list(itertools.product((0, 1), repeat=size))
    pairs = list(itertools.product(every, every))
    stacks, fidelity = [], gaussian._fidelity
    monkeypatch.setattr(gaussian, "_fidelity", lambda v1, *rest: stacks.append(len(v1)) or fidelity(v1, *rest))
    blocks_mod._BLOCK_FID_CACHE.clear()
    got = block_fidelities([(desc, family)], pair_codes(pairs))[0].tolist()
    assert max(chunks) == 12 and max(stacks) == 3
    assert sum(stacks) == 17 and len(stacks) > 2
    assert len(chunks) > 1
    assert got == [scalar_block_fidelity(desc, family, a, b) for a, b in pairs]
    v_u_d = [(v, u, d) for (v, u), options in occupancies(size).items() for d, _ in options]
    for v, u, d in v_u_d:
        pair = representative_pair(size, v, u, d)
        assert block_subfidelity(desc, family, v, u, d) == scalar_block_fidelity(desc, family, *pair)


QUOTIENT_FAMILIES = {"loss": LOSS, "additive": ADD, "thermal": ChannelFamily.thermal(0.9, 1.5, 1.2, 0.8),
                     "loss-from-zero": ChannelFamily.pure_loss(0.0, 1.0)}

# Blocks of more than four channels take the quotient route.  Measured worst
# relative gap to stacked_fidelities on the whole block's outputs over every
# case of the three tests below: 3.4e-13, on the 12-channel GHZ block at
# mu 50.5 under loss (8.5e-14 at most on the 9-channel blocks)
QUOTIENT_ACCURACY = 1e-12


def quotient_blocks() -> list[SymmetricBlock]:
    """Blocks of 5-12 channels: GHZ at several mu, pure symmetric, coherent
    with alpha != 0, and GHZ with one or two idlers."""
    return [BlockDescriptor("ghz", tuple(range(5)), mu=1.2), BlockDescriptor("ghz", tuple(range(7)), mu=7.3),
            BlockDescriptor("ghz", tuple(range(9)), mu=20.5), BlockDescriptor("ghz", tuple(range(12)), mu=50.5),
            SymmetricBlock(tuple(range(6)), 0, *pure_symmetric_numbers(6, 20.5)),
            SymmetricBlock(tuple(range(10)), 0, *pure_symmetric_numbers(10, 3.5)),
            BlockDescriptor("coherent", tuple(range(8)), alpha=2.5),
            BlockDescriptor("ghz", tuple(range(6)), 1, mu=20.5), BlockDescriptor("ghz", tuple(range(11)), 2, mu=5.5)]


def whole_block_fidelities(desc, family, pairs) -> np.ndarray:
    """Fidelities of local pattern pairs of a block on channels 0..k-1 from
    one ``stacked_fidelities`` call on its whole output states: the route of
    blocks of at most four channels, the oracle of the quotient route."""
    patterns = sorted({local for pair in pairs for local in pair})
    row = {local: r for r, local in enumerate(patterns)}
    taus, nus = layout_channels(family, desc.layout, patterns)
    outputs = mode_channel_map(*(part[None] for part in desc.state()), taus, nus)
    return stacked_fidelities(*outputs, [(row[a], row[b]) for a, b in pairs])


def assert_quotient_matches_whole(got, points, pairs):
    """Each point's row of ``block_fidelities`` against its whole block."""
    for row, (desc, family) in zip(got, points):
        want = whole_block_fidelities(desc, family, pairs)
        assert (np.abs(row - want) <= QUOTIENT_ACCURACY * want).all()
        assert (row[[a == b for a, b in pairs]] == 1.0).all()


@pytest.mark.parametrize("family", QUOTIENT_FAMILIES.values(), ids=QUOTIENT_FAMILIES.keys())
def test_quotient_route_matches_the_whole_block(monkeypatch, family):
    # every (n00, n01, n10, n11) class of each block through its
    # representative pair, random pairs, their images under a permutation
    # of the channels, which share their bits, and both pair orders, which
    # read the same bits whichever came first; no fidelity of more than the
    # quotient's four modes, five with idlers, is evaluated
    rng = np.random.default_rng(35)
    modes, pair_fidelities = [], gaussian._pair_fidelities
    for desc in quotient_blocks():
        size = len(desc.channels)
        pairs = class_pairs(size)
        pairs += [tuple(tuple(rng.integers(0, 2, size).tolist()) for _ in range(2)) for _ in range(20)]
        perm = rng.permutation(size)
        images = [tuple(tuple(local[k] for k in perm) for local in pair) for pair in pairs]
        monkeypatch.setattr(gaussian, "_pair_fidelities", lambda data, *rest: (
            modes.append(data.shape[-1] // 2) or pair_fidelities(data, *rest)))
        blocks_mod._BLOCK_FID_CACHE.clear()
        got = block_fidelities([(desc, family)], pair_codes(pairs + images))
        monkeypatch.undo()
        assert max(modes) == 4 + bool(desc.idlers)
        modes.clear()
        assert np.array_equal(pair_codes(pairs + images), pair_codes([(b, a) for a, b in pairs + images]))
        assert_quotient_matches_whole(got, [(desc, family)], pairs + images)


def test_quotient_route_batches_points_of_different_signatures():
    # one batch per block size over points whose blocks and families differ,
    # with and without idlers: each point's row is its own block's, in
    # either pair order
    rng = np.random.default_rng(36)
    families = list(QUOTIENT_FAMILIES.values())
    batches = [[BlockDescriptor("ghz", tuple(range(9)), mu=mu) for mu in (1.2, 20.5, 50.5)]
               + [SymmetricBlock(tuple(range(9)), 0, *pure_symmetric_numbers(9, 20.5)),
                  BlockDescriptor("coherent", tuple(range(9)), alpha=1.5)],
               [BlockDescriptor("ghz", tuple(range(7)), idlers, mu=mu) for idlers, mu in ((2, 5.5), (2, 20.5))]]
    for descs in batches:
        size = len(descs[0].channels)
        points = [(desc, families[k % len(families)]) for k, desc in enumerate(descs)]
        pairs = [tuple(tuple(rng.integers(0, 2, size).tolist()) for _ in range(2)) for _ in range(40)]
        blocks_mod._BLOCK_FID_CACHE.clear()
        got = block_fidelities(points, pair_codes(pairs))
        blocks_mod._BLOCK_FID_CACHE.clear()
        assert np.array_equal(block_fidelities(points, pair_codes([(b, a) for a, b in pairs])), got)
        assert_quotient_matches_whole(got, points, pairs)


@pytest.mark.parametrize("family", QUOTIENT_FAMILIES.values(), ids=QUOTIENT_FAMILIES.keys())
@pytest.mark.parametrize("idlers", [0, 2])
def test_quotient_fidelities_beyond_the_stack_cap(monkeypatch, family, idlers):
    # every pair of a five-channel block at two energies (28 classes each),
    # one point per block batch, and a float budget of five quotient pairs
    # per stacked _fidelity call and twenty per key chunk: each point's
    # classes run in two key chunks and six stacked calls, then both
    # points' contrast pairs in one call, with the values of one unbudgeted
    # batch, bit for bit
    every = list(itertools.product((0, 1), repeat=5))
    pairs = list(itertools.product(every, every))
    points = [(BlockDescriptor("ghz", tuple(range(5)), idlers, mu=mu), family) for mu in (7.3, 20.5)]
    blocks_mod._BLOCK_FID_CACHE.clear()
    want = block_fidelities(points, pair_codes(pairs))
    chunks = budget_pairs(monkeypatch, 5, 4 + bool(idlers))
    monkeypatch.setattr(blocks_mod, "BATCH_MAX_FLOATS", 1)
    stacks, fidelity = [], gaussian._fidelity
    monkeypatch.setattr(gaussian, "_fidelity", lambda v1, *rest: stacks.append(len(v1)) or fidelity(v1, *rest))
    blocks_mod._BLOCK_FID_CACHE.clear()
    got = block_fidelities(points, pair_codes(pairs))
    assert chunks == [20, 8, 20, 8, 2]
    assert stacks == [5, 5, 5, 5, 5, 3] * 2 + [2]
    assert np.array_equal(got, want)
    assert_quotient_matches_whole(got, points, pairs)


@pytest.mark.parametrize("size, idlers", [(2, 0), (3, 0), (4, 0), (2, 1)])
def test_mirror_image_local_pairs_give_the_same_bits(size, idlers):
    # a GHZ block is symmetric under any permutation of its channels, so a
    # pair of local patterns and its image under one permutation have one
    # fidelity; over the advantage surfaces' grid stacked_fidelities gives
    # them its bits on the whole outputs (evaluated in their given mode
    # order they differ by up to 7e-13 at 2 modes and 3e-11 at 4), so one
    # class code stands for every pair of its class bit for bit
    every = list(itertools.product((0, 1), repeat=size))
    pairs = list(itertools.combinations(every, 2))
    images = [tuple(tuple(bits[k] for k in perm) for bits in pair)
              for perm in itertools.permutations(range(size)) for pair in pairs]
    families = [ChannelFamily.pure_loss(eta, 1.0) for eta in (0.95, 0.98, 0.999)]
    families += [ChannelFamily.additive(nu, 0.01) for nu in (0.012, 0.05, 0.1)]
    for ns in (1.0, 7.1, 50.0):
        desc = BlockDescriptor("ghz", tuple(range(size)), idlers, mu=ns + 0.5)
        for family in families:
            got = whole_block_fidelities(desc, family, images).reshape(-1, len(pairs))
            assert (got == got[:1]).all()


@pytest.mark.parametrize("family", [LOSS, ADD], ids=["loss", "additive"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_counting_census_equals_enumeration(family, m):
    for spec in (
        ghz_spec(m, 20.5, (tuple(range(m)),)),
        odd_m_disjoint_spec(m, 20.5, SINGLE_IDLER) if m % 2 else ProbeSpec.from_partition(pair_partition(m), 20.5),
    ):
        for space in (full_space(m), cpf_space(m, 1), bcpf_space(m, (1, 2))):
            table = evaluate(spec, space, family)
            assert table_histogram(table) == enumerated_histogram(space, spec, family)


@pytest.mark.parametrize("family", [LOSS, ADD], ids=["loss", "additive"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_counting_matches_brute_force(family, m):
    specs = [ghz_spec(m, 20.5, (tuple(range(m)),))]
    if m % 2 == 0:
        specs.append(ProbeSpec.from_partition(pair_partition(m), 20.5))
    else:
        specs.append(odd_m_disjoint_spec(m, 20.5, SINGLE_IDLER))
    for spec in specs:
        for space in (full_space(m), cpf_space(m, 1), bcpf_space(m, (1, 2))):
            brute_t, fast_t = brute_table(space, spec, family), evaluate(spec, space, family)
            for copies in (1, 10):
                brute = bounds_from_table(brute_t, copies)
                fast = bounds_from_table(fast_t, copies)
                assert fast.method == "counting"
                assert fast.upper_raw == pytest.approx(brute.upper_raw, rel=1e-10, abs=1e-300)
                assert fast.lower_raw == pytest.approx(brute.lower_raw, rel=1e-10, abs=1e-300)


def _scalar_pair_logf(spec, family, patterns):
    """log F of every pair i < j from one ``probe.output`` per pattern and
    one ``gaussian_fidelity`` per pair: the loop the brute-force table replaced."""
    probe = assemble_probe(spec)
    outs = [probe.output(family, p) for p in patterns]
    return [
        math.log(gaussian_fidelity(outs[i], outs[j]))
        for i in range(len(outs))
        for j in range(i + 1, len(outs))
    ]


def _bruteforce_cases():
    """Patterns and the probe specs to evaluate on them, per case id."""
    odd = [
        ghz_spec(5, 20.5, (tuple(range(5)),)),
        odd_m_disjoint_spec(5, 20.5, HYBRID_COHERENT),
        odd_m_disjoint_spec(5, 20.5, SINGLE_IDLER),  # the idler mode passes through
    ]
    even = [
        ProbeSpec.from_partition(pair_partition(6), 20.5),
        ghz_spec(6, 7.5, ((0, 1, 2), (3, 4, 5))),
        ProbeSpec.from_partition(full_idler_partition(6), 3.5),
    ]
    ext_part, ext_patterns = extend_for_mutual_probing(nn_partition(4), full_space(4))
    return {
        "full": (full_space(5).patterns, odd),
        "cpf2": (cpf_space(5, 2).patterns, odd),
        "bcpf6": (bcpf_space(6, (1, 2)).patterns, even),
        # copy-channel patterns, as the mutual-probing cross-checks feed them
        "nn4-extended": (ext_patterns, [ghz_spec(ext_part.m, 20.5, ext_part.blocks)]),
    }


BRUTEFORCE_CASES = _bruteforce_cases()


@pytest.mark.parametrize("family", [LOSS, ADD, THERMAL], ids=["loss", "additive", "thermal"])
@pytest.mark.parametrize("space", list(BRUTEFORCE_CASES))
def test_bruteforce_table_equals_scalar_pair_loop(space, family):
    patterns, specs = BRUTEFORCE_CASES[space]
    for spec in specs:
        table = fidelity_table_bruteforce(patterns, None, spec, family)
        assert table.logf.tolist() == _scalar_pair_logf(spec, family, patterns)
        assert table.counts.tolist() == [2.0] * len(table.logf)
        assert table.weights is None


@pytest.mark.parametrize("family", [LOSS, THERMAL], ids=["loss", "thermal"])
def test_bruteforce_prior_weights_equal_scalar_loop(family):
    m = 5
    pri = np.linspace(1, 3, 2**m)
    space = ImageSpace(m, full_space(m).patterns, pri / pri.sum())
    spec = odd_m_disjoint_spec(m, 20.5, SINGLE_IDLER)
    n = len(space)
    want_logf = _scalar_pair_logf(spec, family, space.patterns)
    want_weights = [
        math.sqrt(space.priors[i] * space.priors[j]) for i in range(n) for j in range(i + 1, n)
    ]
    table = fidelity_table_bruteforce(space.patterns, space.priors, spec, family)
    assert table.logf.tolist() == want_logf
    assert table.weights.tolist() == want_weights
    ref = FidelityTable.pairs(n, want_logf, space.priors)
    for copies in (1, 7):
        got = bounds_from_table(table, copies)
        want = bounds_from_table(ref, copies)
        assert (got.upper_raw, got.lower_raw) == (want.upper_raw, want.lower_raw)


@pytest.mark.parametrize(
    "bad, error",
    [
        ((0, 1, 0), DimensionError),
        ((0, 1, 0, 1, 1), DimensionError),
        ((0, 1, 0, 2), ValueError),
        ((), DimensionError),
    ],
    ids=["short", "long", "bit-two", "empty"],
)
def test_bruteforce_rejects_patterns_probe_output_rejects(bad, error):
    spec = ProbeSpec.from_partition(pair_partition(4), 20.5)
    with pytest.raises(error):
        assemble_probe(spec).output(LOSS, bad)
    with pytest.raises(error):
        fidelity_table_bruteforce([(0, 0, 0, 0), bad], None, spec, LOSS)


def test_counting_falls_back_for_nonuniform_priors():
    m = 3
    space = full_space(m)
    pri = np.linspace(1, 2, len(space))
    skew = ImageSpace(m, space.patterns, pri / pri.sum())
    spec = odd_m_disjoint_spec(m, 20.5, SINGLE_IDLER)
    rep = bounds_from_table(evaluate(spec, skew, ADD), 2)
    assert rep.method == "blocks"
    brute = bounds_from_table(brute_table(skew, spec, ADD), 2)
    assert rep.upper_raw == pytest.approx(brute.upper_raw, rel=1e-10)
    assert rep.lower_raw == pytest.approx(brute.lower_raw, rel=1e-10)


def test_tmsv_pairs_m2_single_block_formula():
    # m=2, M=1: UB = f01 + f12 + (f11 + f02)/2
    for family in (LOSS, ADD):
        f01 = tmsv_subfidelity(family, 20.5, 0, 1, 1)
        f02 = tmsv_subfidelity(family, 20.5, 0, 2, 2)
        f11 = tmsv_subfidelity(family, 20.5, 1, 1, 2)
        f12 = tmsv_subfidelity(family, 20.5, 1, 2, 1)
        rep = bounds_tmsv_pairs(family, 20.5, 1, 2)
        assert rep.upper_raw == pytest.approx(f01 + f12 + (f11 + f02) / 2, rel=1e-14)


def test_tmsv_pairs_vanish_as_fidelities_die():
    # all sub-fidelities < 1, so the pair sum tends to 1 and both bounds
    # tend to zero as the copy number grows
    for family in (LOSS, ADD):
        rep = bounds_tmsv_pairs(family, 20.5, 1e6, 4)
        assert rep.upper_raw < 1e-6
        assert rep.lower_raw < 1e-12


def test_tmsv_pairs_odd_unit_remainder_reduces_to_even():
    # a remainder factor with fidelity ~1 doubles the even-case pair sum:
    # D_odd[M] = 2 (D_even[M] + 1) - 1 when the remainder cannot be told apart
    family = ChannelFamily.additive(0.02, 0.02 + 1e-12)
    m, copies = 5, 3
    odd = bounds_tmsv_pairs_odd(family, 20.5, copies, m, SINGLE_IDLER)
    even = bounds_tmsv_pairs(family, 20.5, copies, m - 1)
    assert odd.upper_raw == pytest.approx(2 * (even.upper_raw + 1) - 1, rel=1e-6)


def test_additive_f11_equal_noise_is_unity():
    # identical channels on both positions: theta - sqrt(xi- xi+) collapses
    # to 1 and the patterns are indistinguishable at any energy
    from multiprobe.closedform import tmsv_additive_f11

    for mu in (0.6, 5.0, 500.0):
        assert tmsv_additive_f11(mu, 0.03, 0.03) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("family", [LOSS, ADD], ids=["loss", "additive"])
def test_tmsv_pairs_even_matches_brute(family):
    # class representatives carry ~1e-12 numerical degeneracy spread that
    # the copy powers amplify; 1e-10 is the contract tolerance
    m, copies = 4, 10
    spec = ProbeSpec.from_partition(pair_partition(m), 20.5)
    brute = bounds_from_table(brute_table(full_space(m), spec, family), copies)
    closed = bounds_tmsv_pairs(family, 20.5, copies, m)
    assert closed.upper_raw == pytest.approx(brute.upper_raw, rel=1e-10)
    assert closed.lower_raw == pytest.approx(brute.lower_raw, rel=1e-10)


@pytest.mark.parametrize("strategy", [SINGLE_IDLER, HYBRID_COHERENT])
@pytest.mark.parametrize("family", [LOSS, ADD], ids=["loss", "additive"])
def test_tmsv_pairs_odd_matches_brute(strategy, family):
    m, copies = 3, 4
    spec = odd_m_disjoint_spec(m, 20.5, strategy)
    brute = bounds_from_table(brute_table(full_space(m), spec, family), copies)
    closed = bounds_tmsv_pairs_odd(family, 20.5, copies, m, strategy)
    assert closed.upper_raw == pytest.approx(brute.upper_raw, rel=1e-10)
    assert closed.lower_raw == pytest.approx(brute.lower_raw, rel=1e-10)


def test_tmsv_pairs_rejects_odd_m():
    with pytest.raises(PartitionError):
        bounds_tmsv_pairs(LOSS, 20.5, 1, 3)
    with pytest.raises(PartitionError):
        bounds_tmsv_pairs_odd(LOSS, 20.5, 1, 4, SINGLE_IDLER)


def test_idler_single_strategy_beats_hybrid_for_loss():
    # the coherent remainder loses the entanglement advantage, so the
    # idler-assisted variant must not be worse at Fig-4-style parameters
    for copies in (1, 10, 100):
        idler = bounds_tmsv_pairs_odd(LOSS, 20.5, copies, 9, SINGLE_IDLER)
        hybrid = bounds_tmsv_pairs_odd(LOSS, 20.5, copies, 9, HYBRID_COHERENT)
        assert idler.upper_raw <= hybrid.upper_raw


def test_classical_benchmark_pure_loss_value():
    # per-channel coherent fidelity at energy N_S, pairs at distance d
    # contribute f^(d M)
    m, ns, copies = 3, 20.0, 4
    space = cpf_space(m, 1)
    rep = bounds_from_table(evaluate(CLASSICAL, space, LOSS, ns=ns), copies)
    f = coherent_loss_fidelity(0.99, 0.97, ns)
    want_ub = (m - 1) * f ** (2 * copies)  # 1-CPF pairs differ at 2 positions
    assert rep.upper_raw == pytest.approx(want_ub, rel=1e-12)
    assert rep.m_bar == copies


def test_classical_benchmark_additive_vacuum():
    space = full_space(2)
    # the energy is ignored by the vacuum probe
    rep = bounds_from_table(evaluate(CLASSICAL, space, ADD, ns=123.0), 1)
    f = vacuum_additive_fidelity(0.02, 0.01)
    want = (8 * f + 4 * f**2) / 4  # 8 ordered pairs at distance 1, 4 at distance 2
    assert rep.upper_raw == pytest.approx(want, rel=1e-12)


def test_classical_benchmark_counting_equals_dense():
    space = full_space(4)
    custom = ImageSpace(4, space.patterns, space.priors)  # no target counts, same priors
    a = bounds_from_table(evaluate(CLASSICAL, space, LOSS, ns=20.0), 3)
    b = bounds_from_table(evaluate(CLASSICAL, custom, LOSS, ns=20.0), 3)
    assert a.upper_raw == pytest.approx(b.upper_raw, rel=1e-12)
    assert a.lower_raw == pytest.approx(b.lower_raw, rel=1e-12)


@pytest.mark.parametrize("space", [bcpf_space(7, (1, 3, 6)), cpf_space(5, 0)] + [full_space(m) for m in range(1, 9)],
                         ids=["bcpf-1-3-6", "cpf-0"] + [f"full-{m}" for m in range(1, 9)])
def test_classical_census_equals_bruteforce_pair_distances(space):
    counts, dists = dp.hamming_census(space.m, space.target_counts)
    bits = np.array(space.patterns)
    want = np.bincount((bits[:, None] != bits[None]).sum(axis=2).ravel(), minlength=space.m + 1)
    want[0] -= len(space)  # a pattern paired with itself
    assert (counts > 0).all() and (dists > 0).all()
    assert np.bincount(dists.astype(int), weights=counts, minlength=space.m + 1).tolist() == want.tolist()


def test_classical_benchmark_rejects_thermal():
    thermal = ChannelFamily.thermal(0.8, 1.0, 0.8, 1.5)
    with pytest.raises(UnsupportedBenchmarkError):
        evaluate(CLASSICAL, full_space(2), thermal, ns=5.0)


def test_classical_near_degenerate_channels():
    # as the channels coincide the per-channel fidelity tends to 1 and the
    # raw upper bound approaches |U| - 1 (the prior-only value)
    space = full_space(3)
    for family in (
        ChannelFamily.pure_loss(0.99, 0.99 - 1e-9),
        ChannelFamily.additive(0.02, 0.02 + 1e-12),
    ):
        rep = bounds_from_table(evaluate(CLASSICAL, space, family, ns=20.0), 1)
        assert rep.upper_raw == pytest.approx(len(space) - 1, rel=1e-6)
        assert rep.upper == 1.0


def test_bound_monotonic_in_copies():
    spec = ghz_spec(4, 20.5, ((0, 1, 2, 3),))
    space = full_space(4)
    table = evaluate(spec, space, LOSS)
    prev = None
    for copies in (1, 2, 4, 8, 32, 128):
        rep = bounds_from_table(table, copies)
        if prev is not None:
            assert rep.upper <= prev.upper + 1e-15
            assert rep.lower <= prev.lower + 1e-15
        prev = rep


def test_guaranteed_advantage():
    cl = BoundReport(0.3, 0.8, 10, 10.0, "classical")
    q = BoundReport(0.0, 0.1, 10, 10.0, "counting")
    assert guaranteed_advantage(cl, q) == pytest.approx(0.2)
    assert guaranteed_advantage(cl, cl) <= 0
    other = BoundReport(0.0, 0.1, 10, 20.0, "mutual")
    with pytest.raises(ComparabilityError):
        guaranteed_advantage(cl, other)


def test_quantum_upper_zero_gives_full_classical_lower():
    cl = BoundReport(0.25, 0.9, 5, 5.0, "classical")
    q = BoundReport(0.0, 0.0, 5, 5.0, "counting")
    assert guaranteed_advantage(cl, q) == pytest.approx(0.25)


def test_per_channel_classical_fidelity_dispatch():
    assert per_channel_classical_fidelity(LOSS, 20.0) == coherent_loss_fidelity(0.99, 0.97, 20.0)
    assert per_channel_classical_fidelity(ADD, 20.0) == vacuum_additive_fidelity(0.02, 0.01)


def test_idler_full_equals_choi_powers():
    # per-channel idler-assisted blocks: pattern pairs at distance d have
    # fidelity F_choi^d
    from multiprobe.probes import BlockDescriptor

    m, copies = 3, 5
    spec = ProbeSpec.from_partition(full_idler_partition(m), 20.5)
    space = cpf_space(m, 1)
    rep = bounds_from_table(evaluate(spec, space, LOSS), copies)
    f_choi = block_subfidelity(BlockDescriptor("ghz", (0,), 1, mu=20.5), LOSS, 0, 1, 1)
    assert rep.upper_raw == pytest.approx((m - 1) * f_choi ** (2 * copies), rel=1e-12)


def test_idler_assisted_m9_golden_values():
    """Frozen oracle data for the m=9 idler-assisted 1-CPF regime.

    The literals were computed by the exhaustive brute-force path (full
    18-mode output fidelities, no degeneracy grouping); the counting path
    must reproduce them.  Class-representative noise grows linearly with
    the copy power, hence the graded tolerances.
    """
    spec = ProbeSpec.from_partition(full_idler_partition(9), 20.5)
    space = cpf_space(9, 1)
    table = evaluate(spec, space, LOSS)
    golden = {
        1.0: (7.192932616117448, 0.35929360847226527, 1e-10),
        10.0: (2.762167654357331, 0.05298312604706858, 1e-9),
        100.0: (0.0001926151617599882, 2.576430593043502e-10, 1e-8),
    }
    prev_ub = None
    for copies, (ub, lb, tol) in golden.items():
        rep = bounds_from_table(table, copies)
        assert rep.upper_raw == pytest.approx(ub, rel=tol)
        assert rep.lower_raw == pytest.approx(lb, rel=2 * tol)
        if prev_ub is not None:
            assert rep.upper_raw < prev_ub
        prev_ub = rep.upper_raw


def test_lemma_degeneracy_spread_small():
    # all pattern pairs in one (v, u, d) class share their fidelity
    from multiprobe.gaussian import gaussian_fidelity
    from multiprobe.probes import assemble_probe

    m = 4
    spec = ghz_spec(m, 20.5, (tuple(range(m)),))
    probe = assemble_probe(spec)
    space = full_space(m)
    outs = [probe.output(LOSS, p) for p in space.patterns]
    blocks = [desc.channels for desc in spec.blocks]
    groups = {}
    for i, pa in enumerate(space.patterns):
        for j, pb in enumerate(space.patterns):
            if i < j:
                key = pair_class_key(pa, pb, blocks)
                groups.setdefault(key, []).append(gaussian_fidelity(outs[i], outs[j]))
    for vals in groups.values():
        assert max(vals) - min(vals) < 1e-10


FIGURE_COPIES = np.geomspace(10, 5000, 50)


@pytest.mark.parametrize("probe", ["full-ghz", "tmsv-disjoint", "idler-full"])
@pytest.mark.parametrize("space", [full_space(9), cpf_space(9, 3)], ids=["full", "cpf3"])
@pytest.mark.parametrize("family", [LOSS, ADD], ids=["loss", "additive"])
def test_counting_dp_equals_class_table_on_figure_grid(family, space, probe):
    # the counting table against a per-copy-number DP of the two bound sums
    # over the m=9 figure range; below 1e-300 both are subnormal and only
    # roughly equal
    spec = resolve_probe(probe, 9, 20.5)
    n = len(space)
    table = evaluate(spec, space, family)
    for copies in FIGURE_COPIES:
        sum_m, sum_2m = counting_sums(space, spec, family, copies)
        got = bounds_from_table(table, copies)
        assert got.method == "counting"
        for g, w in ((got.upper_raw, sum_m / n), (got.lower_raw, 0.5 * sum_2m / n**2)):
            if w > 1e-300:
                assert g == pytest.approx(w, rel=1e-12, abs=0.0)
            else:
                assert abs(g - w) <= 1e-300


def _break_block_fidelities(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("broken block fidelity")

    # the batched evaluator both DPs call for their block fidelities
    monkeypatch.setattr(bounds_mod, "block_fidelities", broken)


def test_counting_dp_errors_propagate(monkeypatch):
    # a fault inside the DP must surface, not fall back to the dense table
    _break_block_fidelities(monkeypatch)
    spec = odd_m_disjoint_spec(3, 20.5, SINGLE_IDLER)
    with pytest.raises(ValueError, match="broken block fidelity"):
        evaluate(spec, full_space(3), ADD)


def test_frontier_dp_errors_propagate(monkeypatch):
    # likewise for overlapping blocks: no fallback to the copy-channel extension
    _break_block_fidelities(monkeypatch)
    with pytest.raises(ValueError, match="broken block fidelity"):
        evaluate(resolve_probe("nn", 4, 20.5), full_space(4), ADD)


def test_evaluate_points_needs_one_structure():
    space = cpf_space(4, 1)
    assert evaluate_points(space, []) == []
    mixed = [(resolve_probe(probe, 4, 20.5), ADD, 20.0) for probe in ("full-ghz", "tmsv-disjoint")]
    with pytest.raises(ValueError, match="share the probe structure"):
        evaluate_points(space, mixed)
    # energies may differ: each table is the one of its point alone
    points = [(resolve_probe("tmsv-disjoint", 4, mu), fam, mu - 0.5) for mu in (1.5, 20.5) for fam in (ADD, LOSS)]
    blocks_mod._BLOCK_FID_CACHE.clear()
    for table, (spec, fam, ns) in zip(evaluate_points(space, points), points):
        blocks_mod._BLOCK_FID_CACHE.clear()
        alone = evaluate(spec, space, fam, ns=ns)
        assert table.counts.tolist() == alone.counts.tolist()
        assert table.logf.tolist() == alone.logf.tolist()


@pytest.mark.parametrize("custom", [False, True], ids=["full", "custom"])
def test_evaluate_without_the_energy_it_needs_raises_energy_error(custom):
    space = full_space(4)
    if custom:
        space = ImageSpace(4, space.patterns, space.priors)
    with pytest.raises(EnergyError, match="mu"):
        evaluate(resolve_probe("nn", 4, None), space, LOSS)
    with pytest.raises(EnergyError, match="mu"):
        evaluate_points(space, [(resolve_probe("nn", 4, mu), LOSS, None) for mu in (20.5, None)])
    with pytest.raises(EnergyError, match="ns"):
        evaluate(CLASSICAL, space, LOSS)
    # the vacuum probe of additive noise has no energy
    table = evaluate(CLASSICAL, space, ADD)
    assert table.logf.tolist() == evaluate(CLASSICAL, space, ADD, ns=20.0).logf.tolist()


@pytest.mark.parametrize("space, probe", [
    (cpf_space(9, 1), "full-ghz"),
    (cpf_space(7, 3), "tmsv-disjoint"),
    (bcpf_space(6, (1, 2)), "idler-full"),
    (full_space(5), "full-ghz"),
], ids=["cpf1-full-ghz", "cpf3-tmsv", "bcpf-idler", "full-full-ghz"])
def test_counting_evaluates_only_feasible_classes(monkeypatch, space, probe):
    spec = resolve_probe(probe, space.m, 20.5)
    kmin, kmax = min(space.target_counts), max(space.target_counts)
    batches = []
    evaluate_block = bounds_mod.block_fidelities

    def spy(points, codes):
        batches.append((len(points[0][0].channels), list(codes)))
        return evaluate_block(points, codes)

    monkeypatch.setattr(bounds_mod, "block_fidelities", spy)
    blocks_mod._BLOCK_FID_CACHE.clear()
    got = evaluate(spec, space, LOSS)
    for size, codes in batches:
        # a block holds at most kmax targets, and the rest of the pattern at
        # most m - size; a class's patterns hold n10 + n11 and n01 + n11
        lo, hi = max(0, kmin - (space.m - size)), min(size, kmax)
        _, n01, n10, n11 = dp.class_counts(size, codes).T
        assert all(lo <= n10 + n11) and all(n10 + n11 <= hi) and all(lo <= n01 + n11) and all(n01 + n11 <= hi)
    if probe == "full-ghz" and space.target_counts == (1,):
        # the block holds the whole pattern: (v, u, d) = (1, 1, 0) or (1, 1, 2) of all 220 classes
        assert [len(codes) for _, codes in batches] == [2]
    # the same table as from every class of every block: dp's per-block target range widened to 0..size
    classes_of = dp.block_classes
    monkeypatch.setattr(dp, "block_classes", lambda size, lo, hi: classes_of(size, 0, size))
    want = evaluate(spec, space, LOSS)
    assert got.counts.tolist() == want.counts.tolist()
    assert got.logf.tolist() == want.logf.tolist()


def test_counting_rejects_mismatched_pattern_length():
    spec = ghz_spec(3, 20.5, ((0, 1, 2),))
    # the dense route on a custom space too, rather than ignore the fourth channel
    custom = ImageSpace(4, full_space(4).patterns, full_space(4).priors)
    for space in (full_space(4), custom):
        with pytest.raises(DimensionError):
            evaluate(spec, space, LOSS)
        # the sums that bounds takes
        with pytest.raises(DimensionError):
            bound_reports(space, [(spec, LOSS, None)], [[1]])


@pytest.mark.parametrize("copies", [1000, 5000])
@pytest.mark.parametrize("m", [9, 10])
def test_tmsv_closed_forms_do_not_cancel_at_large_copies(m, copies):
    # (1 + s)^(m/2) - 1 with s ~ 1e-17 at M = 1000: formed naively it is 0.0;
    # odd m is checked with both remainder strategies
    space = full_space(m)
    if m % 2:
        cases = [(odd_m_disjoint_spec(m, 20.5, strategy), bounds_tmsv_pairs_odd(LOSS, 20.5, copies, m, strategy))
                 for strategy in (SINGLE_IDLER, HYBRID_COHERENT)]
    else:
        cases = [(ProbeSpec.from_partition(pair_partition(m), 20.5), bounds_tmsv_pairs(LOSS, 20.5, copies, m))]
    for spec, closed in cases:
        counted = bounds_from_table(evaluate(spec, space, LOSS), copies)
        assert counted.lower_raw > 0.0
        assert closed.upper_raw == pytest.approx(counted.upper_raw, rel=1e-12, abs=0.0)
        assert closed.lower_raw == pytest.approx(counted.lower_raw, rel=1e-12, abs=0.0)


def test_fidelity_table_rejects_mismatched_lengths():
    with pytest.raises(DimensionError):
        FidelityTable(3, np.full(2, 2.0), np.zeros(3))
    with pytest.raises(DimensionError):
        FidelityTable(3, np.full(3, 2.0), np.zeros(3), weights=np.ones(2))


def prior_weighted_sums(fid, priors, copies):
    """sum_{i != j} sqrt(pi_i pi_j) F_ij^M and (1/2) sum_{i != j} pi_i pi_j F_ij^(2M)."""
    ub = lb = 0.0
    for i, pi in enumerate(priors):
        for j, pj in enumerate(priors):
            if i != j:
                f = fid(i, j)
                ub += math.sqrt(pi * pj) * f**copies
                lb += 0.5 * pi * pj * f ** (2 * copies)
    return ub, lb


def block_product_fidelity(blocks, patterns, family, mu):
    """F_ij as the product over blocks of the full-state fidelities of the
    block's outputs, each block probed by its own single-block state."""
    probes = [assemble_probe(ghz_spec(len(b), mu, (tuple(range(len(b))),))) for b in blocks]
    outs = [
        [probe.output(family, tuple(p[c] for c in b)) for probe, b in zip(probes, blocks)]
        for p in patterns
    ]
    return lambda i, j: math.prod(gaussian_fidelity(a, b) for a, b in zip(outs[i], outs[j]))


@pytest.mark.parametrize("family", [LOSS, ADD], ids=["loss", "additive"])
@pytest.mark.parametrize("route", ["blocks", "mutual", "classical"])
def test_dense_routes_weight_nonuniform_priors(route, family):
    # the dense routes against the prior-weighted double sum over ordered
    # pairs.  Quantum fidelities are products of full-state block-output
    # fidelities computed here; the classical probe's are f^d with the
    # closed-form f, which the numeric fidelity matches only to ~1e-12.
    m, mu, ns = 4, 20.5, 20.0
    pri = np.random.default_rng(3).uniform(0.2, 2.0, 2**m)
    space = ImageSpace(m, full_space(m).patterns, pri / pri.sum())
    if route == "blocks":
        spec = ghz_spec(m, mu, ((0, 1), (2, 3)))
        table = evaluate(spec, space, family)
        fid = block_product_fidelity([blk.channels for blk in spec.blocks], space.patterns, family, mu)
    elif route == "mutual":
        partition = nn_partition(m)
        table = evaluate(ProbeSpec.from_partition(partition, mu), space, family)
        ext_partition, ext_patterns = extend_for_mutual_probing(partition, space)
        fid = block_product_fidelity(ext_partition.blocks, ext_patterns, family, mu)
    else:
        table = evaluate(CLASSICAL, space, family, ns=ns)
        f = per_channel_classical_fidelity(family, ns)

        def fid(i, j):
            return f ** hamming(space.patterns[i], space.patterns[j])

    assert table.method == route
    for copies in (1, 7, 100):
        rep = bounds_from_table(table, copies)
        ub, lb = prior_weighted_sums(fid, space.priors, copies)
        assert rep.upper_raw == pytest.approx(ub, rel=1e-12, abs=0.0)
        assert rep.lower_raw == pytest.approx(lb, rel=1e-12, abs=0.0)
