from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiprobe.errors import EnergyError, PartitionError
from multiprobe import gaussian
from multiprobe.gaussian import coherent_cm, ghz_cm, symplectic_spectrum, tensor
from multiprobe.imagespace import full_space
from multiprobe.probes import (
    HYBRID_COHERENT,
    SINGLE_IDLER,
    Partition,
    ProbeSpec,
    assemble_probe,
    average_channel_use,
    decompose_rounds,
    extend_for_mutual_probing,
    format_partition,
    full_idler_partition,
    nn_partition,
    odd_m_disjoint_spec,
    pair_partition,
    parse_partition,
    probe_state,
)

# ---------------------------------------------------------------------------
# grammar


def test_parse_disjoint():
    p = parse_partition("12|34")
    assert p == Partition(4, ((0, 1), (2, 3)), (0, 0))
    assert p.blocks == ((0, 1), (2, 3))
    assert p.m == 4
    assert p.disjoint and p.idlers == (0, 0)


def test_parse_idler():
    p = parse_partition("1*|23")
    assert p.disjoint
    assert p.blocks == ((0,), (1, 2))
    assert p.idlers == (1, 0)


def test_parse_nondisjoint():
    p = parse_partition("12|23|31")
    assert not p.disjoint
    assert p.l_overlap == 3


def test_parse_multi_digit():
    p = parse_partition("1,2|3,4,5|6,7|8,9,10")
    assert p.m == 10
    assert p.blocks[3] == (7, 8, 9)
    with pytest.raises(PartitionError):
        parse_partition("1,2|3,10", m=10)  # channels 4..9 uncovered


def test_parse_rejects_bare_single():
    with pytest.raises(PartitionError):
        parse_partition("1|23")
    with pytest.raises(PartitionError):
        parse_partition("12|23*")  # idlers on overlapping blocks


def test_partition_rules():
    with pytest.raises(PartitionError, match="overlapping"):
        Partition(3, ((0, 1), (1, 2)), (1, 0))
    with pytest.raises(PartitionError, match="fewer than 2 modes"):
        Partition(3, ((0, 1), (2,)))
    with pytest.raises(PartitionError, match="one idler count per block"):
        Partition(3, ((0, 1), (2,)), (1,))
    with pytest.raises(PartitionError, match=">= 0"):
        Partition(3, ((0, 1, 2),), (-1,))
    with pytest.raises(PartitionError, match="not covered"):
        Partition(4, ((0, 1), (1, 2)))
    with pytest.raises(PartitionError, match="mutual probing"):
        ProbeSpec.from_partition(nn_partition(4), 20.5)
    # a bare channel with an idler is a two-mode block
    assert Partition(3, ((0, 1), (2,)), (0, 1)).disjoint


def test_format_round_trip_examples():
    for text in ("12|34", "12|23|31", "1*|23", "123|45", "1,2|3,4,5|6,7|8,9,10",
                 "1,2|3,4|5,6|7,8|9*|10,*", "1,10*|2,3,4,5,6,7,8,9|11,*|12,**"):
        p = parse_partition(text)
        assert format_partition(p) == text
        q = parse_partition(format_partition(p), p.m)
        assert q == p


@pytest.mark.parametrize("m", [10, 11, 12])
def test_format_round_trips_one_channel_blocks_beyond_nine(m):
    # "10*" reads as channels 1 and 0: a lone two-digit label keeps its comma
    p = full_idler_partition(m)
    text = format_partition(p)
    assert text.split("|")[8:] == ["9*"] + [f"{c},*" for c in range(10, m + 1)]
    assert parse_partition(text, m) == p


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_format_parse_round_trip_random(data):
    m = data.draw(st.integers(4, 12))
    order = data.draw(st.permutations(range(m)))
    blocks, idlers, at = [], [], 0
    while at < m:
        size = data.draw(st.integers(1, min(3, m - at)))
        blocks.append(tuple(sorted(order[at : at + size])))
        idlers.append(data.draw(st.integers(max(0, 2 - size), 2)))  # a single channel needs an idler
        at += size
    p = Partition(m, tuple(blocks), tuple(idlers))
    assert parse_partition(format_partition(p), m) == p


# ---------------------------------------------------------------------------
# constructions and rounds


def test_nn_partition_m3():
    assert nn_partition(3).blocks == ((0, 1), (1, 2), (2, 0))


def test_nn_partition_m9():
    p = nn_partition(9)
    assert len(p.blocks) == 9
    assert p.l_overlap == 9
    assert average_channel_use(p, 100) == 200


def test_nn_requires_ring():
    with pytest.raises(PartitionError):
        nn_partition(2)


def test_decompose_rounds_disjoint_is_single():
    p = Partition(4, ((0, 1), (2, 3)))
    assert len(decompose_rounds(p)) == 1


def test_decompose_rounds_nn_even_is_two():
    rounds = decompose_rounds(nn_partition(4))
    assert len(rounds) == 2
    for rnd in rounds:
        flat = [c for blk in rnd for c in blk]
        assert len(flat) == len(set(flat))


def test_decompose_rounds_nn_odd_is_three():
    # odd rings are odd cycles in the conflict graph: three rounds exactly
    for m in (3, 5, 7):
        assert len(decompose_rounds(nn_partition(m))) == 3


def test_decompose_rounds_three_round_example():
    blocks = ((0, 1), (2, 5), (3, 4), (0, 3), (1, 2), (4, 5), (0, 4), (1, 5))
    p = Partition(6, blocks)
    rounds = decompose_rounds(p)
    assert len(rounds) == 3
    all_blocks = sorted(blk for rnd in rounds for blk in rnd)
    assert all_blocks == sorted(blocks)


def test_average_channel_use_examples():
    assert average_channel_use(Partition(4, ((0, 1), (2, 3))), 100) == 100
    # all-pairs set on m=4: l = 2 C(4,2) - 4 = 8, so (4+8)/4 * 1 = 3
    all_pairs = Partition(
        4, tuple((i, j) for i in range(4) for j in range(i + 1, 4))
    )
    assert average_channel_use(all_pairs, 1) == Fraction(3)
    assert average_channel_use(nn_partition(3), 2.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        average_channel_use(all_pairs, 0)


# ---------------------------------------------------------------------------
# extension


def test_extension_all_pairs_m3():
    # {12|23|13} relabels onto {12|34|56}; patterns map to
    # (i1 i2, i2 i3, i1 i3)
    part = Partition(3, ((0, 1), (1, 2), (0, 2)))
    space = full_space(3)
    ext_part, ext_patterns = extend_for_mutual_probing(part, space)
    assert ext_part.blocks == ((0, 1), (2, 3), (4, 5))
    assert ext_part.m == 6
    i = space.patterns.index((1, 0, 1))
    assert ext_patterns[i] == (1, 0, 0, 1, 1, 1)
    assert len(ext_patterns) == len(space)


def test_extension_identity_for_disjoint():
    part = Partition(4, ((0, 1), (2, 3)))
    space = full_space(4)
    ext_part, ext_patterns = extend_for_mutual_probing(part, space)
    assert part.l_overlap == 0
    assert ext_part.m == 4
    assert ext_patterns == space.patterns


def test_extension_nn_m4_preserves_cardinality():
    part = nn_partition(4)
    space = full_space(4)
    _, ext_patterns = extend_for_mutual_probing(part, space)
    assert len(set(ext_patterns)) == 16


# ---------------------------------------------------------------------------
# probe specs and assembly


def test_spec_single_ghz_block_is_ghz_cm():
    spec = ProbeSpec(4, 3.5, blocks=((0, 1, 2, 3),))
    probe = assemble_probe(spec)
    assert np.allclose(probe.cm.data, ghz_cm(4, 3.5).data, atol=0)


def test_spec_pair_blocks():
    spec = ProbeSpec.from_partition(pair_partition(4), 20.5)
    probe = assemble_probe(spec)
    want = ghz_cm(2, 20.5).data
    assert np.allclose(probe.cm.data[:4, :4], want, atol=0)
    assert np.allclose(probe.cm.data[4:, 4:], want, atol=0)
    assert np.all(probe.cm.data[:4, 4:] == 0)


def test_classical_vacuum_spec():
    spec = ProbeSpec.classical(3, 0.0)
    probe = assemble_probe(spec)
    assert np.allclose(probe.cm.data, 0.5 * np.eye(6), atol=0)
    assert np.all(probe.cm.mean == 0)


def test_spec_requires_energy_for_blocks():
    with pytest.raises(EnergyError):
        ProbeSpec(2, None, blocks=((0, 1),))
    with pytest.raises(EnergyError):
        ProbeSpec(2, 0.3, blocks=((0, 1),))


def test_spec_rejects_uncovered_channels():
    with pytest.raises(PartitionError):
        ProbeSpec(3, 2.0, blocks=((0, 1),))


def test_odd_spec_single_idler():
    spec = odd_m_disjoint_spec(3, 20.5, SINGLE_IDLER)
    assert spec.blocks == ((0, 1), (2,))
    assert spec.idlers == (0, 1)
    probe = assemble_probe(spec)
    assert probe.cm.n_modes == 4
    assert probe.layout == (0, 1, None, 2)


def test_block_layouts_are_their_slices_of_the_probe_layout():
    spec = ProbeSpec(6, 3.5, blocks=((0, 2), (3,)), idlers=(1, 2), coherent=((1, 0.5), (4, 0.0), (5, 1.0)))
    data, mean, layout = probe_state(spec)
    descs = spec.descriptors()
    assert [d.layout for d in descs] == [(None, 0, 2), (None, None, 3), (1,), (4,), (5,)]
    start = 0
    for desc in descs:
        stop = start + desc.n_modes
        assert layout[start:stop] == desc.layout
        # the slice of the probe is the descriptor's own state, in its layout's order
        block, block_mean = desc.state()
        assert np.array_equal(data[2 * start:2 * stop, 2 * start:2 * stop], block)
        assert np.array_equal(mean[2 * start:2 * stop], block_mean)
        start = stop
    assert start == len(layout) == data.shape[0] // 2


def test_odd_spec_hybrid():
    spec = odd_m_disjoint_spec(9, 20.5, HYBRID_COHERENT)
    assert len(spec.blocks) == 4
    assert spec.coherent == ((8, pytest.approx(np.sqrt(20.0))),)
    probe = assemble_probe(spec)
    assert probe.cm.n_modes == 9
    assert probe.cm.mean[16] == pytest.approx(np.sqrt(2.0 * 20.0))


def test_odd_spec_rejects_even():
    with pytest.raises(PartitionError):
        odd_m_disjoint_spec(4, 2.0, SINGLE_IDLER)


def test_three_block_odd_partition_literal():
    # odd m handled with one wider block: {12|34|56|789}
    p = parse_partition("12|34|56|789")
    assert p.disjoint
    assert sorted(len(b) for b in p.blocks) == [2, 2, 2, 3]
    spec = ProbeSpec.from_partition(p, 20.5)
    probe = assemble_probe(spec)
    assert probe.cm.n_modes == 9


def test_assembled_probes_are_bona_fide_and_saturated():
    for spec in (
        ProbeSpec(4, 20.5, blocks=((0, 1, 2, 3),)),
        ProbeSpec.from_partition(pair_partition(6), 7.0),
        odd_m_disjoint_spec(5, 3.0, SINGLE_IDLER),
        ProbeSpec.from_partition(full_idler_partition(3), 12.0),
    ):
        probe = assemble_probe(spec)
        spectrum = symplectic_spectrum(probe.cm)
        assert spectrum[0] >= 0.5 - 1e-9
        # saturated correlations pin the smallest eigenvalue at 1/2
        assert spectrum[0] == pytest.approx(0.5, abs=1e-10)


def test_assembly_checks_the_tensor_product_once(monkeypatch):
    # a block-diagonal state is bona fide exactly when each block is
    spec = odd_m_disjoint_spec(5, 20.5, HYBRID_COHERENT)
    want = tensor(*(ghz_cm(2, 20.5) for _ in range(2)), coherent_cm([np.sqrt(20.0)]))
    calls = []
    checked = gaussian._checked
    monkeypatch.setattr(gaussian, "_checked", lambda data: calls.append(data.shape) or checked(data))
    probe = assemble_probe(spec)
    assert calls == [(10, 10)]
    assert probe.cm.data.tolist() == want.data.tolist()
    assert probe.cm.mean.tolist() == want.mean.tolist()
    assert probe.cm.is_pure == want.is_pure
