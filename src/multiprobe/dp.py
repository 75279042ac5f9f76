"""Key plans of the pattern-pair DPs, their replays, and the (v, u, d)
block classes and local pairs they read.

Both DPs count ordered pattern pairs on uniform full/cpf/bcpf spaces
without enumerating patterns: ``counting_plan`` over the blocks of a
disjoint probe, whose children are the classes of ``block_classes``,
``frontier_plan`` over the channels of possibly overlapping blocks.  A
plan depends on no fidelity.  Per step it holds the parent state of each
child, the child's multiplicity (None: every child counts one pair of
sub-patterns) and, per block added, its lut key and the index of each
child's local pair in that lut, all in the order of the merged keys, with
the first child of each merged key; then come the final states whose
patterns differ, and per lut key the sorted codes of the local pairs its
children read (see ``local_pairs``), which index its lut.
``frontier_plan`` keys a state by the smaller of it and its mirror, its
A and B bits and target counts swapped: every block lut is symmetric in
its local pair, so the two hold the same entries and factors and merge
exactly.  ``replay_entries`` replays a plan with (log F, ordered pair
count) entries per state, ``replay_sums`` with products of block factors
per column.
``hamming_census`` reads the classes of one block over every channel.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import CapacityError


def _reach(m: int, target_counts: tuple[int, ...]) -> np.ndarray | None:
    """reach[rem, t]: whether t targets so far can end at an admissible count
    with rem of the m channels left, for rem and t in 0..m; None when every
    count 0..m is admissible, so that no state need track its targets."""
    admissible = np.zeros(m + 1, dtype=bool)
    admissible[list(target_counts)] = True
    if admissible.all():
        return None
    # below[t]: the admissible counts under t
    below = np.concatenate(([0], np.cumsum(admissible)))
    t = np.arange(m + 1)
    return below[np.minimum(t + t[:, None] + 1, m + 1)] > below[t]


def pair_code(size: int, v, u, d):
    """The code (see ``local_pairs``) of the representative local pair of
    the (v, u, d) class of a block of ``size`` channels: a holds targets at
    its first v channels, b at the first (v + u - d) / 2 of them and at the
    channels after them.  Takes ints or integer arrays; unchecked."""
    overlap = (v + u - d) // 2
    return (1 << v) - 1 | ((1 << overlap) - 1 | (1 << u - overlap) - 1 << v) << size


def representative_local_patterns(size: int, v: int, u: int, d: int):
    """A sub-pattern pair with v and u targets at Hamming distance d."""
    if (v + u - d) % 2:
        raise ValueError(f"class {(v, u, d)} has non-integer overlap")
    overlap = (v + u - d) // 2
    if overlap < 0 or overlap > min(v, u) or v + u - overlap > size:
        raise ValueError(f"class {(v, u, d)} impossible for block size {size}")
    return local_pairs([pair_code(size, v, u, d)], size)[0]


@functools.cache
def block_classes(size: int, lo: int, hi: int):
    """The ordered (v, u, d) classes of a block of ``size`` channels whose
    patterns hold lo..hi targets each, as arrays v, u, d, the ordered
    sub-pattern pairs in each and the code of its representative local
    pair, which (v, u, d) and (u, v, d) share; in ascending v, u, d.  A
    pair whose union holds s targets has d = 2s - v - u.  Cached, so the
    arrays are read-only."""
    comb = np.array([[math.comb(n, k) for k in range(size + 1)] for n in range(size + 1)])
    t = np.arange(lo, hi + 1)
    v, u, s = t[:, None, None], t[:, None], np.arange(size + 1)
    i, j, s = np.nonzero((np.maximum(v, u) <= s) & (s <= np.minimum(v + u, size)))
    v, u = t[i], t[j]
    d = 2 * s - v - u
    arrays = (v, u, d, comb[size, s] * comb[s, u] * comb[u, v + u - s],
              pair_code(size, np.minimum(v, u), np.maximum(v, u), d))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def hamming_census(m: int, target_counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pattern pair counts and their Hamming distances d > 0 on a
    uniform full/cpf/bcpf space: the classes (v, u, d) of one block over
    all m channels with admissible v <= u, in ascending v, u, d; a class
    with v < u counts (u, v, d) too, which holds as many pairs."""
    v, u, d, count, _ = block_classes(m, min(target_counts), max(target_counts))
    keep = (d > 0) & (v <= u)
    reach = _reach(m, target_counts)
    if reach is not None:
        # with no channel left, a count reaches only itself
        keep &= reach[0, v] & reach[0, u]
    return (count * np.where(v < u, 2, 1))[keep].astype(float), d[keep].astype(float)


def counting_plan(blocks, m: int, target_counts: tuple[int, ...]):
    """The counting DP over keys alone, which depends on the block sizes
    and the admissible target counts only.

    ``blocks`` holds (lut key, size) per block, in block order.  A block of
    ``size`` channels holds at most max(target_counts) targets, and the
    other m - size channels at most m - size, so its classes are those of
    ``block_classes`` over that range of targets.  A state's key holds the
    targets of A and of B so far when the space fixes them, and whether A
    and B differ yet.  Adding a block gives each state a child per class,
    less those whose targets can no longer reach an admissible count; the
    child's multiplicity is the class's count, and its block reads the
    class's representative pair.  Children of equal keys merge.

    Returns the plan, the final states and the codes per lut key (see the
    module docstring).
    """
    reach = _reach(m, target_counts)
    track = reach is not None
    kmin, kmax = min(target_counts), max(target_counts)
    # key: (targets of A * (m + 1) + targets of B) * 2 + differs; the targets stay 0 untracked
    key = np.zeros(1, dtype=np.int64)
    if track:
        feasible = np.repeat(reach[:, :, None] & reach[:, None, :], 2).reshape(m + 1, -1)
    steps: dict[int, tuple] = {}
    raw = []
    rem = m
    for lut, size in blocks:
        rem -= size
        if size not in steps:
            v, u, d, count, code = block_classes(size, max(0, kmin - (m - size)), min(size, kmax))
            steps[size] = ((v * (m + 1) + u) * 2 * track, d > 0, count, code)
        inc, step_differs, count, code = steps[size]
        # child (state, class) sits at state * classes + class
        child = ((key[:, None] + inc) | step_differs).ravel()
        if track:
            flat = np.flatnonzero(feasible[rem][child])
            child = child[flat]
        else:
            flat = np.arange(len(child))
        order = np.argsort(child, kind="stable")
        child = child[order]
        parent, cls = np.divmod(flat[order], len(inc))
        starts = np.flatnonzero(np.concatenate(([True], child[1:] != child[:-1])))
        key = child[starts]
        raw.append((parent, count[cls], ((lut, code[cls]),), starts))
    plan, codes = _indexed(raw)
    return plan, np.flatnonzero(key & 1), codes


def _indexed(raw):
    """The plan of ``raw`` steps whose blocks name each child's local pair
    by its code, with each code replaced by its index among the sorted
    codes that its lut key reads; then those codes per lut key."""
    seen: dict = {}
    for _, _, adds, _ in raw:
        for lut, code in adds:
            seen.setdefault(lut, []).append(code)
    # a sort rather than np.unique, whose first call imports numpy.ma
    read = {lut: np.sort(np.concatenate(code)) for lut, code in seen.items()}
    read = {lut: code[np.concatenate(([True], code[1:] != code[:-1]))] for lut, code in read.items()}
    plan = tuple(
        (parent, mult, tuple((lut, read[lut].searchsorted(code)) for lut, code in adds), starts)
        for parent, mult, adds, starts in raw
    )
    return plan, {lut: code.tolist() for lut, code in read.items()}


def frontier_plan(blocks, m: int, target_counts: tuple[int, ...], cap: int):
    """The frontier DP over keys alone, which depends on the channels of the
    blocks and the admissible target counts only.

    ``blocks`` holds (lut key, channels) per block, in block order, and the
    blocks cover the m channels, overlapping or not.  A state's key holds
    the A and B bits of the channels that a block not yet added still
    reads, the targets of A and of B when the space fixes them, and whether
    A and B differ yet.  At channel c each state has a
    child per (a, b) bit choice, less those whose targets can no longer
    reach an admissible count.  Block j is added at the channel that
    completes every block up to j, so blocks add in block order, and its
    local pair is read off the child's key.  Then the bits that no later
    block reads are dropped, each key becomes the smaller of it and its
    mirror (A and B bits and target counts swapped, differs kept), and
    children of equal keys merge.  The merge is exact: a block's fidelity
    of (a, b) is that of (b, a) bit for bit (``blocks.block_fidelities``
    caches unordered pairs), and both A and B end at the same admissible
    counts, so a state and its mirror hold the same (log F, count) entries
    and have mirrored children of equal factors; the merged state carries
    both, as the two would have summed at the end.

    Returns the plan, the final states and the codes per lut key (see the
    module docstring).  More than ``cap`` states, or keys wider than an
    int64 holds, raise CapacityError.
    """
    luts, blocks = zip(*blocks)
    # the step after which block j is added, and the last step that reads channel c
    added = [max(max(blk) for blk in blocks[:j + 1]) for j in range(len(blocks))]
    last = [max(added[j] for j, blk in enumerate(blocks) if c in blk) for c in range(m)]
    slot: dict[int, int] = {}
    for c in range(m):
        held = {slot[ch] for ch in range(c) if last[ch] >= c}
        slot[c] = min(set(range(len(held) + 1)) - held)
    width = max(slot.values()) + 1
    # key bits: A per slot, B per slot, differs, then targets of A and of B
    differs = 1 << 2 * width
    ta_shift = 2 * width + 1
    tbits = m.bit_length()
    slot_mask, count_mask = (1 << width) - 1, (1 << tbits) - 1
    if ta_shift + 2 * tbits > 63:
        raise CapacityError(f"frontier DP keys need {ta_shift + 2 * tbits} bits, more than the 63 of an int64")
    reach = _reach(m, target_counts)
    key = np.zeros(1, dtype=np.int64)
    raw = []
    for c in range(m):
        check_states(4 * len(key), cap)
        a_inc, b_inc = 1 << slot[c], 1 << width + slot[c]
        if reach is not None:
            a_inc += 1 << ta_shift
            b_inc += 1 << ta_shift + tbits
        child = ((key[:, None] + np.array([0, a_inc, b_inc, a_inc + b_inc]))
                 | np.array([0, differs, differs, 0])).ravel()
        parent = np.repeat(np.arange(len(key)), 4)
        if reach is not None:
            ok, targets = reach[m - 1 - c], child >> ta_shift
            feasible = ok[targets & count_mask] & ok[targets >> tbits]
            child, parent = child[feasible], parent[feasible]
        keep_bits = ~sum((1 << slot[ch]) | (1 << width + slot[ch]) for ch in range(m) if last[ch] == c)
        # a key and its mirror, A and B swapped, hold the same entries, so they merge
        merged = child & keep_bits
        mirror = merged & differs | (merged & slot_mask) << width | merged >> width & slot_mask
        if reach is not None:
            mirror |= (merged >> ta_shift & count_mask) << ta_shift + tbits | merged >> ta_shift + tbits << ta_shift
        merged = np.minimum(merged, mirror)
        order = np.argsort(merged, kind="stable")
        child, parent, merged = child[order], parent[order], merged[order]
        step_adds = []
        for j, (lut, blk) in enumerate(zip(luts, blocks)):
            if added[j] == c:
                shifts = np.array([slot[ch] for ch in blk] + [width + slot[ch] for ch in blk])
                step_adds.append((lut, (child[:, None] >> shifts & 1) @ (1 << np.arange(2 * len(blk)))))
        starts = np.flatnonzero(np.concatenate(([True], merged[1:] != merged[:-1])))
        key = merged[starts]
        raw.append((parent, None, step_adds, starts))
    plan, codes = _indexed(raw)
    return plan, np.flatnonzero(key & differs), codes


def local_pairs(codes, size: int) -> list[tuple]:
    """The local pattern pairs (a, b) of a block of ``size`` channels whose
    bits a0..a(size-1) b0..b(size-1) form the integers ``codes``."""
    bits = (np.array(codes, dtype=np.int64)[:, None] >> np.arange(2 * size) & 1).tolist()
    return [(tuple(row[:size]), tuple(row[size:])) for row in bits]


def replay_entries(plan, final, luts, cap: int):
    """Replay ``plan`` on the entries of one point; ``luts`` maps a lut key
    to the log-fidelities of its local pairs.  A child's entries are its
    parent's, with their counts times the child's multiplicity and the
    log-fidelities of its blocks added.  Returns the log F and ordered pair
    counts of the final states whose patterns differ, merged by log F, in
    ascending log F.  More than ``cap`` entries raise CapacityError."""
    # the entries, grouped by state
    state, logf, cnt = np.zeros(1, dtype=np.int64), np.zeros(1), np.ones(1, dtype=np.int64)
    n_states = 1
    for parent, mult, adds, starts in plan:
        # each new state copies the entries first[p]:first[p + 1] of its parent p
        first = np.searchsorted(state, np.arange(n_states + 1))
        size = (first[1:] - first[:-1])[parent]
        check_states(int(size.sum()), cap)
        new = np.repeat(np.arange(len(parent)), size)
        entry = np.arange(len(new)) + np.repeat(first[parent] - (np.cumsum(size) - size), size)
        logf, cnt = logf[entry], cnt[entry]
        if mult is not None:
            cnt *= mult[new]
        for key, idx in adds:
            logf += luts[key][idx[new]]
        # the merged state of each child: the number of merged keys that start at or before it, less one
        merged = np.zeros(len(parent), dtype=np.int64)
        merged[starts[1:]] = 1
        state, logf, cnt = merge_states(merged.cumsum()[new], logf, cnt)
        n_states = len(starts)
    differ = np.zeros(n_states, dtype=bool)
    differ[final] = True
    keep = differ[state]
    _, logf, cnt = merge_states(np.zeros(int(keep.sum()), dtype=np.int64), logf[keep], cnt[keep])
    return logf, cnt


def replay_sums(plan, final, luts) -> np.ndarray:
    """Replay ``plan`` on one chunk of rows; ``luts`` maps a lut key to its
    (local pair, column) block factors, which a child's values take on
    after its parent's and its multiplicity.  Returns the column sums over
    the final states whose patterns differ."""
    vals = np.ones((1, next(iter(luts.values())).shape[1]))
    for parent, mult, adds, starts in plan:
        vals = vals[parent]
        if mult is not None:
            vals *= mult[:, None]
        for key, idx in adds:
            vals *= luts[key][idx]
        # reduceat sums each column alone, so no column depends on the others
        vals = np.add.reduceat(vals, starts, axis=0)
    if not len(final):
        return np.zeros(vals.shape[1])
    return np.add.reduceat(vals[final], [0], axis=0)[0]


def check_states(n: int, cap: int) -> None:
    """Raise CapacityError for more than ``cap`` DP states or entries."""
    if n > cap:
        raise CapacityError(f"frontier DP capped at {cap} states")


def merge_states(key, logf, cnt):
    """Sum the counts of states equal in key and log F, sorted by key, then
    by log F."""
    if not len(key):
        return key, logf, cnt
    order = np.lexsort((logf, key))
    key, logf, cnt = key[order], logf[order], cnt[order]
    first = np.flatnonzero(np.concatenate(([True], (key[1:] != key[:-1]) | (logf[1:] != logf[:-1]))))
    return key[first], logf[first], np.add.reduceat(cnt, first)
