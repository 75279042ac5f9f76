"""Output fidelities of single probe blocks, which every bound route reads:
``block_fidelities`` evaluates the classes a route names (the DP routes:
the classes their plans read; see ``multiprobe.dp.class_code``) at every
grid point of a sweep in one stacked batch per block, and caches them;
``block_subfidelity`` reads a (v, u, d) class.

A block of at most four channels is evaluated on its whole output states.
A larger one is evaluated through its quotient (Serafini, Adesso &
Illuminati, PRA 71, 032349 (2005)): a pair of local patterns splits the
block's modes into groups by (bit in A, bit in B), with its idlers as a
fifth group.  The passive change of basis O (+) O, group averages and then
contrasts within each group, leaves the group averages, whose state is
that of one mode per group, and decouples every contrast into the same
one-mode state, X = a - c1 and P = b - c2 with zero mean.  Contrasts of the
(0, 0), (1, 1) and idler groups meet one channel in both outputs, so
F(block) = F(quotient) f^(max(n01 - 1, 0) + max(n10 - 1, 0)), where f is
the contrast state's fidelity through background against target.
"""

from __future__ import annotations

import numpy as np

from .channels import ChannelFamily, layout_channels, mode_channel_map
from .dp import class_code, class_counts
from .gaussian import BATCH_MAX_FLOATS, _checked, stacked_fidelities
from .probes import SymmetricBlock


# blocks of more channels are evaluated through their quotient
_WHOLE_MAX_CHANNELS = 4

# a quotient's bits per group (0, 0), (0, 1), (1, 0), (1, 1): in output A,
# in output B, and in output B where the (1, 0) group is empty, so that its
# padding mode meets output A's channel in both
_QUOTIENT_BITS = ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1))

# block signature -> {class code: fidelity}
_BLOCK_FID_CACHE: dict[tuple, dict] = {}


def block_signature(desc: SymmetricBlock, family: ChannelFamily) -> tuple:
    """What a block's output fidelities depend on: not its channel labels."""
    b, t = family.background, family.target
    return (*desc.numbers, family.kind, b.tau, b.nu, t.tau, t.nu)


def block_fidelities(points, codes) -> np.ndarray:
    """Output fidelities of one block at K points for class codes (see
    ``multiprobe.dp.class_code``), as a (K, len(codes)) array.

    ``points`` holds one (block, family) per point; the blocks differ at
    most in their numbers (a, b, c1, c2, alpha).  Values are cached per
    block signature and class, so a point's row is one lookup per code in
    its signature's values; a signature that misses any class has all of
    them evaluated again.  The signatures to fill are evaluated in one
    batch, with one probe state per distinct block, all checked in one
    stacked call.  A class with n01 = n10 = 0, of identical local patterns,
    gives exactly 1.0.

    A block of at most four channels is evaluated whole, at one local pair
    per class: the channels of ``layout_channels`` act on every distinct
    local pattern in one stacked step, and the pairs run through
    ``stacked_fidelities`` in chunks of points of at most BATCH_MAX_FLOATS
    matrix entries, so each value equals ``gaussian_fidelity`` of the two
    output states of any pair of the class bit for bit (its canonical form).

    A larger block is evaluated through its quotient (see the module
    docstring), one per class: four modes, (0, 0), (0, 1), (1, 0), (1, 1),
    after one idler mode if the block has idlers, with X[g, h] = delta_gh
    (a - c1) + sqrt(n_g n_h) c1, P likewise with b and c2, and x mean
    sqrt(2 n_g) alpha.  An empty group is such a mode with n_g = 0,
    decoupled, and meets one channel in both outputs: a factor of exactly 1
    in theory.  The quotient pairs run through one ``stacked_fidelities``
    call per chunk of points of at most BATCH_MAX_FLOATS matrix entries,
    and the contrast fidelities f of every point through one more.  The
    values agree with the whole outputs' ``stacked_fidelities`` to within
    1e-12 relative (measured worst 3.4e-13, at 12 channels and mu 50.5;
    ``tests/test_bounds.py``), and, against a 70-digit reference on a
    9-channel GHZ block, are no less accurate on -log F.
    """
    sigs = [block_signature(desc, family) for desc, family in points]
    codes = np.asarray(codes, dtype=np.int64).tolist()
    need = set(codes)
    first: dict[tuple, int] = {}  # signature -> its first point
    for k, sig in enumerate(sigs):
        first.setdefault(sig, k)
    todo = [(sig, k) for sig, k in first.items() if not _BLOCK_FID_CACHE.setdefault(sig, {}).keys() >= need]
    if todo:
        _fill_block_cache(points, sorted(need), todo)
    rows = {sig: list(map(_BLOCK_FID_CACHE[sig].__getitem__, codes)) for sig in first}
    return np.array([rows[sig] for sig in sigs])


def _fill_block_cache(points, distinct, todo) -> None:
    """Evaluate the classes ``distinct`` of one block into the cache for
    each (signature, point) of ``todo``; see ``block_fidelities``."""
    descs = [points[k][0] for _, k in todo]
    families = [points[k][1] for _, k in todo]
    states = {d.numbers: d for d in descs}  # one probe state per distinct block, all checked at once
    probe_data, probe_means = (np.array(part) for part in zip(*(d.state() for d in states.values())))
    _checked(probe_data)
    size = len(descs[0].channels)
    classes = class_counts(size, distinct)
    differ = classes[:, 1] > 0  # n01 >= n10, so n01 = 0 leaves the patterns identical
    fids = np.ones((len(todo), len(distinct)))
    if differ.any() and size > _WHOLE_MAX_CHANNELS:
        fids[:, differ] = _quotient_fidelities(descs, families, classes[differ])
    elif differ.any():
        position = {key: i for i, key in enumerate(states)}
        probe = [position[d.numbers] for d in descs]
        fids[:, differ] = _whole_fidelities(probe_data[probe], probe_means[probe], descs[0], families, classes[differ])
    for (sig, _), values in zip(todo, fids.tolist()):
        _BLOCK_FID_CACHE[sig].update(zip(distinct, values))


def _whole_fidelities(probe_data, probe_means, desc, families, classes) -> np.ndarray:
    """Fidelities of the classes (n00, n01, n10, n11), the rows of
    ``classes``, on the whole output states of a block, one row per point,
    whose probe state is (probe_data[t], probe_means[t]) and channels
    families[t].  A class's local pair holds n11 channels (1, 1), then n10
    (1, 0), n01 (0, 1) and n00 (0, 0)."""
    chosen = [((1,) * (n11 + n10) + (0,) * (n01 + n00), (1,) * n11 + (0,) * n10 + (1,) * n01 + (0,) * n00)
              for n00, n01, n10, n11 in classes.tolist()]
    locals_ = sorted({lp for pair in chosen for lp in pair})
    ends = np.array([[locals_.index(lp) for lp in pair] for pair in chosen])
    taus, nus = layout_channels(families, (None,) * desc.idlers + tuple(range(len(desc.channels))), locals_)
    dim = 2 * desc.n_modes
    per_call = max(1, BATCH_MAX_FLOATS // (len(locals_) * dim * dim))
    fids = []
    for start in range(0, len(families), per_call):
        chunk = slice(start, start + per_call)
        data, means = mode_channel_map(probe_data[chunk, None], probe_means[chunk, None], taus[chunk], nus[chunk])
        pairs = (len(locals_) * np.arange(len(data))[:, None, None] + ends).reshape(-1, 2)
        fids.append(stacked_fidelities(data.reshape(-1, dim, dim), means.reshape(-1, dim), pairs))
    return np.concatenate(fids).reshape(len(families), -1)


def _quotient_fidelities(descs, families, classes) -> np.ndarray:
    """Fidelities of the classes (n00, n01, n10, n11), n01 >= n10, the rows
    of ``classes``, of blocks ``descs`` through channels ``families``, one
    row per point, each the fidelity of the class's quotient times f^e
    (see ``block_fidelities``)."""
    exponent = np.maximum(classes[:, 1] - 1, 0) + np.maximum(classes[:, 2] - 1, 0)
    idlers = descs[0].idlers
    sizes = np.concatenate([np.full((len(classes), min(idlers, 1)), idlers), classes], axis=1)
    n, dim = sizes.shape[1], 2 * sizes.shape[1]
    taus, nus = layout_channels(families, (None,) * min(idlers, 1) + (0, 1, 2, 3), _QUOTIENT_BITS)
    outputs = np.stack([np.zeros(len(classes), dtype=np.int64), 1 + (classes[:, 2] == 0)])  # rows of _QUOTIENT_BITS
    numbers = np.array([d.numbers[2:] for d in descs])  # (points, 5): a, b, c1, c2, alpha
    root, eye = np.sqrt(sizes[:, :, None] * sizes[:, None, :]), np.eye(n)
    per_call = max(1, BATCH_MAX_FLOATS // (2 * len(classes) * dim * dim))
    fq = []
    for start in range(0, len(descs), per_call):
        chunk = slice(start, start + per_call)
        a, b, c1, c2, alpha = (col[:, None, None, None] for col in numbers[chunk].T)
        data = np.zeros((len(a), len(classes), dim, dim))
        data[..., 0::2, 0::2] = (a - c1) * eye + c1 * root
        data[..., 1::2, 1::2] = (b - c2) * eye + c2 * root
        means = np.zeros((len(a), len(classes), dim))
        means[..., 0::2] = alpha[..., 0] * np.sqrt(2.0 * sizes)
        data, means = mode_channel_map(data[:, None], means[:, None], taus[chunk][:, outputs], nus[chunk][:, outputs])
        at = np.arange(data.size // (dim * dim)).reshape(len(a), 2, -1)  # per point, output A of each class, then B
        pairs = at.swapaxes(1, 2).reshape(-1, 2)
        fq.append(stacked_fidelities(data.reshape(-1, dim, dim), means.reshape(-1, dim), pairs))
    return np.concatenate(fq).reshape(len(descs), -1) * _contrast_fidelities(numbers, families)[:, None] ** exponent


def _contrast_fidelities(numbers, families) -> np.ndarray:
    """Per point, the one-mode fidelity f of a block's contrast mode
    (X = a - c1, P = b - c2, zero mean) through the background channel
    against the target channel, in one stacked call."""
    data = np.zeros((len(numbers), 1, 2, 2))
    data[:, 0, 0, 0] = numbers[:, 0] - numbers[:, 2]
    data[:, 0, 1, 1] = numbers[:, 1] - numbers[:, 3]
    taus, nus = layout_channels(families, (0,), [(0,), (1,)])
    data, means = mode_channel_map(data, np.zeros((len(numbers), 1, 2)), taus, nus)
    return stacked_fidelities(data.reshape(-1, 2, 2), means.reshape(-1, 2), np.arange(2 * len(numbers)).reshape(-1, 2))


def block_subfidelity(desc: SymmetricBlock, family: ChannelFamily, v: int, u: int, d: int) -> float:
    """Single-copy output fidelity of one block for the pairs of local
    patterns with v and u targets at Hamming distance d: the class with
    n11 = (v + u - d) / 2 (see ``block_fidelities``)."""
    if (v + u - d) % 2:
        raise ValueError(f"class {(v, u, d)} has non-integer overlap")
    n11 = (v + u - d) // 2
    if n11 < 0 or n11 > min(v, u) or v + u - n11 > len(desc.channels):
        raise ValueError(f"class {(v, u, d)} impossible for block size {len(desc.channels)}")
    if d == 0:
        return 1.0
    return float(block_fidelities([(desc, family)], [class_code(len(desc.channels), u - n11, v - n11, n11)])[0, 0])
