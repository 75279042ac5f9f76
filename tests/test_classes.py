"""The (v, u, d) block classes of ``multiprobe.dp`` against enumeration:
the class census, the code of each class's representative local pair, and
the local pairs that the counting DP reads."""

import itertools

import numpy as np
import pytest

import multiprobe.dp as dp
from multiprobe.imagespace import bcpf_space, cpf_space, full_space


def reference_pair(size, v, u, d):
    """The representative pair built bit by bit: a holds targets at its
    first v channels, b at the first (v + u - d) / 2 of them and at the
    channels after them."""
    overlap = (v + u - d) // 2
    pat_a = tuple(int(k < v) for k in range(size))
    pat_b = tuple(int(k < overlap or v <= k < v + u - overlap) for k in range(size))
    return pat_a, pat_b


@pytest.mark.parametrize("size", range(7))
def test_block_classes_equal_enumeration(size):
    every = list(itertools.product((0, 1), repeat=size))
    for lo in range(size + 1):
        for hi in range(lo, size + 1):
            want: dict[tuple, int] = {}
            for a, b in itertools.product(every, every):
                if lo <= sum(a) <= hi and lo <= sum(b) <= hi:
                    vud = (sum(a), sum(b), sum(x != y for x, y in zip(a, b)))
                    want[vud] = want.get(vud, 0) + 1
            v, u, d, count, code = (array.tolist() for array in dp.block_classes(size, lo, hi))
            assert list(zip(v, u, d)) == sorted(want)
            assert count == [want[vud] for vud in zip(v, u, d)]
            assert code == [dp.pair_code(size, min(vud[:2]), max(vud[:2]), vud[2]) for vud in zip(v, u, d)]


@pytest.mark.parametrize("size", range(9))
def test_pair_code_decodes_to_the_representative_pair(size):
    for v, u in itertools.product(range(size + 1), repeat=2):
        for s in range(max(v, u), min(v + u, size) + 1):
            d = 2 * s - v - u
            want = reference_pair(size, v, u, d)
            assert dp.local_pairs([dp.pair_code(size, v, u, d)], size) == [want]
            assert dp.representative_local_patterns(size, v, u, d) == want
            assert [sum(want[0]), sum(want[1]), sum(x != y for x, y in zip(*want))] == [v, u, d]


def test_representative_pair_rejects_impossible_classes():
    with pytest.raises(ValueError, match=r"class \(1, 2, 2\) has non-integer overlap"):
        dp.representative_local_patterns(3, 1, 2, 2)
    # a negative overlap, targets beyond the block, an overlap above min(v, u)
    for v, u, d in ((1, 1, 4), (0, 4, 4), (1, 3, 0)):
        with pytest.raises(ValueError, match=rf"class \({v}, {u}, {d}\) impossible for block size 3"):
            dp.representative_local_patterns(3, v, u, d)


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
            v, u, d = sum(la), sum(lb), sum(x != y for x, y in zip(la, lb))
            want.setdefault(size, set()).add(dp.pair_code(size, min(v, u), max(v, u), d))
            held.setdefault(size, set()).add(v)
    assert codes == {size: sorted(read) for size, read in want.items()}
    # the census of a block spans no more targets than the space's patterns put in it
    assert ranges == {(size, min(vs), max(vs)) for size, vs in held.items()}
    if space.target_counts == (1,) and sizes == (space.m,):
        # the block holds the whole pattern: (v, u, d) = (1, 1, 0) or (1, 1, 2)
        assert len(codes[space.m]) == 2
