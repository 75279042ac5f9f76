"""The block classes of ``multiprobe.dp`` against enumeration: the (v, u, d)
class census, the class code of each pair of local patterns, and the
classes that the counting and frontier DPs read."""

import itertools

import numpy as np
import pytest

import multiprobe.blocks as blocks_mod
import multiprobe.dp as dp
from multiprobe.bounds import block_subfidelity
from multiprobe.channels import ChannelFamily
from multiprobe.imagespace import bcpf_space, cpf_space, full_space
from multiprobe.probes import BlockDescriptor, nn_partition, parse_partition

from conftest import pair_codes, representative_pair


def oriented_counts(a, b) -> tuple[int, int, int, int]:
    """(n00, n01, n10, n11) of a local pair, counted channel by channel, with
    A and B swapped where n01 < n10."""
    counts = [sum(1 for x, y in zip(a, b) if (x, y) == bits) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]
    if counts[1] < counts[2]:
        counts[1], counts[2] = counts[2], counts[1]
    return tuple(counts)


def decoded(size, codes) -> set[tuple]:
    return set(map(tuple, dp.class_counts(size, codes).tolist()))


@pytest.mark.parametrize("size", range(7))
def test_block_classes_equal_enumeration(size):
    every = list(itertools.product((0, 1), repeat=size))
    for lo in range(size + 1):
        for hi in range(lo, size + 1):
            want: dict[tuple, int] = {}
            classes: dict[tuple, set] = {}
            for a, b in itertools.product(every, every):
                if lo <= sum(a) <= hi and lo <= sum(b) <= hi:
                    vud = (sum(a), sum(b), sum(x != y for x, y in zip(a, b)))
                    want[vud] = want.get(vud, 0) + 1
                    classes.setdefault(vud, set()).add(oriented_counts(a, b))
            v, u, d, count, code = (array.tolist() for array in dp.block_classes(size, lo, hi))
            assert list(zip(v, u, d)) == sorted(want)
            assert count == [want[vud] for vud in zip(v, u, d)]
            # one class per (v, u, d), which the code names
            assert [decoded(size, [c]) for c in code] == [classes[vud] for vud in zip(v, u, d)]


@pytest.mark.parametrize("size", range(9))
def test_pair_code_decodes_to_the_representative_pair(size):
    # the class code of a pair decodes to the counts of the pair's channels
    # by (bit in A, bit in B), oriented n01 >= n10, in either pair order
    for v, u in itertools.product(range(size + 1), repeat=2):
        for s in range(max(v, u), min(v + u, size) + 1):
            d = 2 * s - v - u
            want = representative_pair(size, v, u, d)
            assert [sum(want[0]), sum(want[1]), sum(x != y for x, y in zip(*want))] == [v, u, d]
            codes = pair_codes([want, want[::-1]]).tolist()
            assert codes[0] == codes[1] == dp.class_code(size, s - v, s - u, v + u - s)
            assert decoded(size, codes) == {oriented_counts(*want)}


def test_representative_pair_rejects_impossible_classes():
    # block_subfidelity names a class by (v, u, d), which must have a pair
    desc, family = BlockDescriptor("ghz", (0, 1, 2), mu=20.5), ChannelFamily.pure_loss(0.99, 0.97)
    with pytest.raises(ValueError, match=r"class \(1, 2, 2\) has non-integer overlap"):
        block_subfidelity(desc, family, 1, 2, 2)
    # a negative overlap, targets beyond the block, an overlap above min(v, u)
    for v, u, d in ((1, 1, 4), (0, 4, 4), (1, 3, 0)):
        with pytest.raises(ValueError, match=rf"class \({v}, {u}, {d}\) impossible for block size 3"):
            block_subfidelity(desc, family, v, u, d)


@pytest.mark.parametrize("size", range(1, 6))
def test_images_of_a_pair_share_one_class_code_and_cache_entry(monkeypatch, size):
    # a local pair, its mirror (A and B swapped) and their images under every
    # permutation of the block's channels: one code, one cached fidelity
    every = list(itertools.product((0, 1), repeat=size))
    pairs = list(itertools.product(every, every))
    images = {pair: [tuple(tuple(bits[k] for k in perm) for bits in image)
                     for perm in itertools.permutations(range(size)) for image in (pair, pair[::-1])]
              for pair in pairs}
    for pair, group in images.items():
        assert len(set(pair_codes(group).tolist())) == 1
    classes = {oriented_counts(*pair) for pair in pairs}
    codes = pair_codes(pairs)
    assert decoded(size, codes) == classes and len(set(codes.tolist())) == len(classes)
    desc, family = BlockDescriptor("ghz", tuple(range(size)), 1, mu=5.5), ChannelFamily.additive(0.02, 0.01)
    monkeypatch.setattr(blocks_mod, "_BLOCK_FID_CACHE", {})
    got = blocks_mod.block_fidelities([(desc, family)], [code for pair in pairs for code in pair_codes(images[pair])])
    ((sig, cache),) = blocks_mod._BLOCK_FID_CACHE.items()
    assert sig == blocks_mod.block_signature(desc, family) and len(cache) == len(classes)
    # identical patterns, n01 = n10 = 0, give exactly 1.0
    assert [cache[c] == 1.0 for c in codes.tolist()] == [a == b for a, b in pairs]
    assert (got.reshape(len(pairs), -1) == got.reshape(len(pairs), -1)[:, :1]).all()


@pytest.mark.parametrize("space, sizes", [
    (cpf_space(9, 1), (9,)),
    (cpf_space(7, 3), (2, 2, 2, 1)),
    (bcpf_space(6, (1, 2)), (1,) * 6),
    (bcpf_space(7, (2, 5)), (3, 2, 2)),
    (full_space(5), (5,)),
    (full_space(6), (2, 1, 3)),
], ids=["cpf1-9", "cpf3-pairs", "bcpf-singles", "bcpf-mixed", "full-5", "full-mixed"])
def test_counting_plan_reads_the_classes_of_its_surviving_children(monkeypatch, space, sizes):
    # every surviving child extends to an ordered pair of the space's
    # patterns, equal or not, so a lut key's codes are the classes its
    # blocks take over those pairs; the lut key is the block size here
    ranges, classes_of = set(), dp.block_classes
    monkeypatch.setattr(dp, "block_classes", lambda *args: ranges.add(args) or classes_of(*args))
    _, _, codes = dp.counting_plan([(size, size) for size in sizes], space.m, space.target_counts)
    starts = np.cumsum((0,) + sizes).tolist()
    want: dict[int, set] = {}
    held: dict[int, set] = {}
    for a, b in itertools.product(space.patterns, repeat=2):
        for size, at in zip(sizes, starts):
            la, lb = a[at:at + size], b[at:at + size]
            want.setdefault(size, set()).add(oriented_counts(la, lb))
            held.setdefault(size, set()).add(sum(la))
    # each code decodes to one enumerated class, and each class has one code
    assert {size: decoded(size, read) for size, read in codes.items()} == want
    assert {size: len(read) for size, read in codes.items()} == {size: len(c) for size, c in want.items()}
    assert all(read == sorted(read) for read in codes.values())
    # the census of a block spans no more targets than the space's patterns put in it
    assert ranges == {(size, min(vs), max(vs)) for size, vs in held.items()}
    if space.target_counts == (1,) and sizes == (space.m,):
        # the block holds the whole pattern: (v, u, d) = (1, 1, 0) or (1, 1, 2)
        assert len(codes[space.m]) == 2


@pytest.mark.parametrize("space, literal", [
    (full_space(6), "123|345|561"),
    (cpf_space(6, 2), "1234|4561"),
    (bcpf_space(5, (1, 3)), "123|345|51"),
], ids=["full", "cpf2", "bcpf"])
@pytest.mark.parametrize("ring", [True, False], ids=["nn", "windows"])
def test_frontier_plan_reads_the_classes_of_its_reachable_pairs(space, literal, ring):
    # the frontier DP reads each block's class off the bits of the child it
    # adds; over a uniform space every child extends to an ordered pair of
    # patterns, equal or not, so a block's codes are its classes over them
    blocks = (nn_partition(space.m) if ring else parse_partition(literal, space.m)).blocks
    _, _, codes = dp.frontier_plan(list(enumerate(blocks)), space.m, space.target_counts, cap=10**6)
    want: dict[int, set] = {}
    for a, b in itertools.product(space.patterns, repeat=2):
        for j, blk in enumerate(blocks):
            want.setdefault(j, set()).add(oriented_counts([a[c] for c in blk], [b[c] for c in blk]))
    assert {j: decoded(len(blocks[j]), read) for j, read in codes.items()} == want
    assert {j: len(read) for j, read in codes.items()} == {j: len(c) for j, c in want.items()}
