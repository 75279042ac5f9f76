"""Output fidelities of single probe blocks, which every bound route reads:
``block_fidelities`` evaluates the local pattern pairs a route needs at
every grid point of a sweep in one stacked batch per block, and caches
them; ``block_subfidelity`` reads a (v, u, d) class off its
representative pair."""

from __future__ import annotations

import itertools

import numpy as np

from .channels import ChannelFamily, mode_channel_map
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
    and unordered pair.  The misses of all points are evaluated in one
    batch: one probe state per distinct energy, all checked in one stacked
    call, the channels act on every distinct local pattern in one stacked
    step (idlers pass), and the pairs run through ``stacked_fidelities`` in
    chunks of points of at most BATCH_MAX_FLOATS matrix entries, so each
    value equals ``gaussian_fidelity`` of the two output states bit for
    bit, and identical outputs give exactly 1.0.
    """
    sigs = [block_signature(desc, family) for desc, family in points]
    ordered = [(a, b) if a <= b else (b, a) for a, b in pairs]
    distinct = sorted({pair for pair in ordered if pair[0] != pair[1]})
    missing: dict[tuple, tuple[int, list]] = {}  # signature -> (point, which distinct pairs miss)
    for k, sig in enumerate(sigs):
        if sig not in missing:
            missing[sig] = (k, [(sig, *pair) not in _BLOCK_FID_CACHE for pair in distinct])
    todo = [(sig, k, miss) for sig, (k, miss) in missing.items() if any(miss)]
    if todo:
        _fill_block_cache(points, distinct, todo)
    return np.array([[1.0 if a == b else _BLOCK_FID_CACHE[sig, a, b] for a, b in ordered] for sig in sigs])


def _fill_block_cache(points, distinct, todo) -> None:
    """Evaluate the missing pairs of one block into the cache: ``todo``
    holds (signature, point, which of the pairs ``distinct`` miss) per
    signature; see ``block_fidelities``."""
    desc = points[todo[0][1]][0]
    locals_ = sorted({lp for pair in distinct for lp in pair})
    row = {lp: r for r, lp in enumerate(locals_)}
    ends = np.array([(row[a], row[b]) for a, b in distinct]).T
    descs = [points[k][0] for _, k, _ in todo]
    energy = [d.alpha if d.kind == "coherent" else d.mu for d in descs]
    states = dict(zip(energy, descs))  # one probe state per energy, all checked at once
    probe_data, probe_means = (np.array(part) for part in zip(*(d.state() for d in states.values())))
    _checked(probe_data)
    position = {e: i for i, e in enumerate(states)}
    probe = [position[e] for e in energy]
    # (tau, nu) per point, local pattern and mode; idler modes come first and pass
    params = np.array([[(f.background.tau, f.background.nu), (f.target.tau, f.target.nu)]
                       for f in (points[k][1] for _, k, _ in todo)])
    idle = np.full((len(todo), len(locals_), desc.idlers, 2), (1.0, 0.0))
    taus, nus = np.concatenate([idle, params[:, np.array(locals_, dtype=int)]], axis=2).transpose(3, 0, 1, 2)
    dim = 2 * desc.n_modes
    per_call = max(1, BATCH_MAX_FLOATS // (len(locals_) * dim * dim))
    missing = np.array([miss for *_, miss in todo])
    for start in range(0, len(todo), per_call):
        chunk = slice(start, start + per_call)
        data, means = mode_channel_map(probe_data[probe[chunk], None], probe_means[probe[chunk], None],
                                       taus[chunk], nus[chunk])
        point, pair = np.nonzero(missing[chunk])
        at = point * len(locals_)
        pairs = np.array([at + ends[0, pair], at + ends[1, pair]]).T
        fids = iter(stacked_fidelities(data.reshape(-1, dim, dim), means.reshape(-1, dim), pairs).tolist())
        for sig, _, miss in todo[chunk]:
            # zip takes no value past the signature's last pair
            _BLOCK_FID_CACHE.update(zip(((sig, *pair) for pair in itertools.compress(distinct, miss)), fids))


def block_subfidelity(desc: BlockDescriptor, family: ChannelFamily, v: int, u: int, d: int) -> float:
    """Single-copy output fidelity of one block for a (v, u, d) class.

    Degenerate within the class up to rounding, so one representative
    local pattern pair stands for it (see ``block_fidelities``).
    """
    if d == 0:
        return 1.0
    pair = representative_local_patterns(len(desc.channels), min(v, u), max(v, u), d)
    return float(block_fidelities([(desc, family)], [pair])[0, 0])
