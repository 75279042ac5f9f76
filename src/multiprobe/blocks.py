"""Output fidelities of single probe blocks, which every bound route reads:
``block_fidelities`` evaluates the local pattern pairs a route needs at
every grid point of a sweep in one stacked batch per block, and caches
them; ``block_subfidelity`` reads a (v, u, d) class off its
representative pair."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channels import ChannelFamily, layout_channels, mode_channel_map
from .gaussian import BATCH_MAX_FLOATS, _checked, stacked_fidelities
from .probes import BlockDescriptor


def representative_local_patterns(size: int, v: int, u: int, d: int):
    """A sub-pattern pair with v and u targets at Hamming distance d."""
    if (v + u - d) % 2:
        raise ValueError(f"class {(v, u, d)} has non-integer overlap")
    overlap = (v + u - d) // 2
    if overlap < 0 or overlap > min(v, u) or v + u - overlap > size:
        raise ValueError(f"class {(v, u, d)} impossible for block size {size}")
    pat_a = [0] * size
    pat_b = [0] * size
    for k in range(v):
        pat_a[k] = 1
    for k in range(overlap):
        pat_b[k] = 1
    for k in range(v, v + u - overlap):
        pat_b[k] = 1
    return tuple(pat_a), tuple(pat_b)


_BLOCK_FID_CACHE: dict[tuple, float] = {}


def block_signature(desc: BlockDescriptor, family: ChannelFamily) -> tuple:
    """What a block's output fidelities depend on: not its channel labels."""
    b, t = family.background, family.target
    return (desc.kind, len(desc.channels), desc.idlers, desc.mu, desc.alpha,
            family.kind, b.tau, b.nu, t.tau, t.nu)


def block_fidelities(points, pairs) -> np.ndarray:
    """Output fidelities of one block at K points for local pattern pairs
    (a, b), as a (K, len(pairs)) array.

    ``points`` holds one (descriptor, family) per point; the descriptors
    differ at most in mu or alpha.  Values are cached per block signature
    and unordered pair; a signature that misses any pair has all of them
    evaluated again.  The signatures to fill are evaluated in one batch:
    one probe state per distinct (mu, alpha), all checked in one stacked
    call, the channels of ``layout_channels`` act on every distinct local
    pattern in one stacked step, and the pairs run through
    ``stacked_fidelities`` in chunks of points of at most BATCH_MAX_FLOATS
    matrix entries, so each value equals ``gaussian_fidelity`` of the two
    output states bit for bit, and identical outputs give exactly 1.0.
    """
    sigs = [block_signature(desc, family) for desc, family in points]
    ordered = [(a, b) if a <= b else (b, a) for a, b in pairs]
    distinct = sorted({pair for pair in ordered if pair[0] != pair[1]})
    first: dict[tuple, int] = {}  # signature -> its first point
    for k, sig in enumerate(sigs):
        first.setdefault(sig, k)
    todo = [(sig, k) for sig, k in first.items()
            if any((sig, *pair) not in _BLOCK_FID_CACHE for pair in distinct)]
    if todo:
        _fill_block_cache(points, distinct, todo)
    return np.array([[1.0 if a == b else _BLOCK_FID_CACHE[sig, a, b] for a, b in ordered] for sig in sigs])


def _fill_block_cache(points, distinct, todo) -> None:
    """Evaluate the pairs ``distinct`` of one block into the cache for each
    (signature, point) of ``todo``; see ``block_fidelities``."""
    descs = [points[k][0] for _, k in todo]
    local = replace(descs[0], channels=tuple(range(len(descs[0].channels))))
    locals_ = sorted({lp for pair in distinct for lp in pair})
    row = {lp: r for r, lp in enumerate(locals_)}
    ends = np.array([(row[a], row[b]) for a, b in distinct])
    states = {(d.mu, d.alpha): d for d in descs}  # one probe state per (mu, alpha), all checked at once
    probe_data, probe_means = (np.array(part) for part in zip(*(d.state() for d in states.values())))
    _checked(probe_data)
    position = {key: i for i, key in enumerate(states)}
    probe = [position[d.mu, d.alpha] for d in descs]
    taus, nus = layout_channels([points[k][1] for _, k in todo], local.layout, locals_)
    dim = 2 * local.n_modes
    per_call = max(1, BATCH_MAX_FLOATS // (len(locals_) * dim * dim))
    for start in range(0, len(todo), per_call):
        chunk = slice(start, start + per_call)
        data, means = mode_channel_map(probe_data[probe[chunk], None], probe_means[probe[chunk], None],
                                       taus[chunk], nus[chunk])
        pairs = (len(locals_) * np.arange(len(data))[:, None, None] + ends).reshape(-1, 2)
        fids = stacked_fidelities(data.reshape(-1, dim, dim), means.reshape(-1, dim), pairs).tolist()
        _BLOCK_FID_CACHE.update(zip(((sig, *pair) for sig, _ in todo[chunk] for pair in distinct), fids))


def block_subfidelity(desc: BlockDescriptor, family: ChannelFamily, v: int, u: int, d: int) -> float:
    """Single-copy output fidelity of one block for a (v, u, d) class.

    Degenerate within the class up to rounding, so one representative
    local pattern pair stands for it (see ``block_fidelities``).
    """
    if d == 0:
        return 1.0
    pair = representative_local_patterns(len(desc.channels), min(v, u), max(v, u), d)
    return float(block_fidelities([(desc, family)], [pair])[0, 0])
