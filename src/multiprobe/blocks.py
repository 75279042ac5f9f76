"""Output fidelities of single probe blocks, which every bound route reads:
``block_fidelities`` evaluates the local pattern pairs a route names (the
DP routes: the pairs their plans read) at every grid point of a sweep in
one stacked batch per block, and caches them; ``block_subfidelity`` reads
a (v, u, d) class off its representative pair, which ``multiprobe.dp``
owns."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .channels import ChannelFamily, layout_channels, mode_channel_map
from .dp import representative_local_patterns
from .gaussian import BATCH_MAX_FLOATS, _checked, stacked_fidelities
from .probes import SymmetricBlock


# block signature -> {canonical local pair: fidelity}; identical local
# patterns are the pair None, of fidelity exactly 1.0
_BLOCK_FID_CACHE: dict[tuple, dict] = {}


def block_signature(desc: SymmetricBlock, family: ChannelFamily) -> tuple:
    """What a block's output fidelities depend on: not its channel labels."""
    b, t = family.background, family.target
    return (*desc.numbers, family.kind, b.tau, b.nu, t.tau, t.nu)


def block_fidelities(points, pairs) -> np.ndarray:
    """Output fidelities of one block at K points for local pattern pairs
    (a, b), as a (K, len(pairs)) array.

    ``points`` holds one (block, family) per point; the blocks differ at
    most in their numbers (a, b, c1, c2, alpha).  Values are cached per
    block signature and unordered pair, so a point's row is one lookup per
    pair in its signature's values; a signature that misses any pair has
    all of them evaluated again.  The signatures to fill are evaluated
    in one batch: one probe state per distinct block, all checked in one
    stacked call, the channels of ``layout_channels`` act on every distinct
    local pattern in one stacked step, and the pairs run through
    ``stacked_fidelities`` in chunks of points of at most BATCH_MAX_FLOATS
    matrix entries, so each value equals ``gaussian_fidelity`` of the two
    output states bit for bit, and identical outputs give exactly 1.0.
    """
    sigs = [block_signature(desc, family) for desc, family in points]
    ordered = [(a, b) if a < b else (b, a) if a > b else None for a, b in pairs]
    need = set(ordered) - {None}
    distinct = sorted(need)
    first: dict[tuple, int] = {}  # signature -> its first point
    for k, sig in enumerate(sigs):
        first.setdefault(sig, k)
    # every signature gets its entry, which holds the identical pair at least
    todo = [(sig, k) for sig, k in first.items() if not _BLOCK_FID_CACHE.setdefault(sig, {None: 1.0}).keys() >= need]
    if todo:
        _fill_block_cache(points, distinct, todo)
    rows = {sig: list(map(_BLOCK_FID_CACHE[sig].__getitem__, ordered)) for sig in first}
    return np.array([rows[sig] for sig in sigs])


def _fill_block_cache(points, distinct, todo) -> None:
    """Evaluate the pairs ``distinct`` of one block into the cache for each
    (signature, point) of ``todo``; see ``block_fidelities``."""
    descs = [points[k][0] for _, k in todo]
    local = replace(descs[0], channels=tuple(range(len(descs[0].channels))))
    locals_ = sorted({lp for pair in distinct for lp in pair})
    row = {lp: r for r, lp in enumerate(locals_)}
    ends = np.array([(row[a], row[b]) for a, b in distinct])
    states = {d.numbers: d for d in descs}  # one probe state per distinct block, all checked at once
    probe_data, probe_means = (np.array(part) for part in zip(*(d.state() for d in states.values())))
    _checked(probe_data)
    position = {key: i for i, key in enumerate(states)}
    probe = [position[d.numbers] for d in descs]
    taus, nus = layout_channels([points[k][1] for _, k in todo], local.layout, locals_)
    dim = 2 * local.n_modes
    per_call = max(1, BATCH_MAX_FLOATS // (len(locals_) * dim * dim))
    for start in range(0, len(todo), per_call):
        chunk = slice(start, start + per_call)
        data, means = mode_channel_map(probe_data[probe[chunk], None], probe_means[probe[chunk], None],
                                       taus[chunk], nus[chunk])
        pairs = (len(locals_) * np.arange(len(data))[:, None, None] + ends).reshape(-1, 2)
        fids = iter(stacked_fidelities(data.reshape(-1, dim, dim), means.reshape(-1, dim), pairs).tolist())
        for sig, _ in todo[chunk]:
            _BLOCK_FID_CACHE[sig].update(zip(distinct, fids))


def block_subfidelity(desc: SymmetricBlock, family: ChannelFamily, v: int, u: int, d: int) -> float:
    """Single-copy output fidelity of one block for a (v, u, d) class.

    Degenerate within the class up to rounding, so one representative
    local pattern pair stands for it (see ``block_fidelities``).
    """
    if d == 0:
        return 1.0
    pair = representative_local_patterns(len(desc.channels), min(v, u), max(v, u), d)
    return float(block_fidelities([(desc, family)], [pair])[0, 0])
