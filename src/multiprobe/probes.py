"""Partition sets over channel patterns and probe-state assembly.

A partition distributes entangled blocks over the m channels of a
pattern.  Disjoint blocks tile the channels and may carry idler modes;
overlapping blocks (mutual probing) are realised by extending the pattern
with copy-channels.

Text grammar (1-based channel labels): blocks are separated by ``|``.  A
block containing a comma lists channels as comma-separated integers
("1,2|3,10"); otherwise every character is a single-digit channel.  Each
``*`` in a block adds one idler mode to it ("1*|23").  A one-channel block
over channel 10 or beyond therefore needs a trailing comma ("10,*"), since
"10*" reads as channels 1 and 0.  Overlapping blocks take no idlers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import apply_pattern_with_idlers
from .errors import EnergyError, PartitionError
from .gaussian import CovMatrix, coherent_state, direct_sum, ghz_state
from .imagespace import ImageSpace, Pattern

Block = tuple[int, ...]

HYBRID_COHERENT = "hybrid-coherent"
SINGLE_IDLER = "single-idler"


def _check_cover(blocks, m: int, *, disjoint: bool) -> None:
    seen: list[int] = []
    for blk in blocks:
        if len(set(blk)) != len(blk):
            raise PartitionError(f"block {blk} repeats a channel")
        if any(not 0 <= c < m for c in blk):
            raise PartitionError(f"block {blk} outside channel range 0..{m - 1}")
        seen.extend(blk)
    if disjoint and len(set(seen)) != len(seen):
        raise PartitionError("blocks overlap in a disjoint partition")
    if set(seen) != set(range(m)):
        missing = sorted(set(range(m)) - set(seen))
        raise PartitionError(f"channels {missing} not covered by any block")


@dataclass(frozen=True)
class Partition:
    """Entangled blocks over m channels, each with an idler count (none by
    default), covering every channel.  Blocks may overlap (mutual probing)
    only without idlers; every block holds at least two modes."""

    m: int
    blocks: tuple[Block, ...]
    idlers: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        object.__setattr__(self, "idlers", tuple(int(q) for q in self.idlers or (0,) * len(self.blocks)))
        if len(self.idlers) != len(self.blocks):
            raise PartitionError("need one idler count per block")
        _check_cover(self.blocks, self.m, disjoint=False)
        if any(self.idlers) and not self.disjoint:
            raise PartitionError("idlers are not supported on overlapping blocks")
        for blk, q in zip(self.blocks, self.idlers):
            if q < 0:
                raise PartitionError("idler counts must be >= 0")
            if len(blk) + q < 2:
                raise PartitionError(f"block {blk} with {q} idlers has fewer than 2 modes")

    @property
    def l_overlap(self) -> int:
        """Channel instances beyond one per channel."""
        return sum(len(b) for b in self.blocks) - self.m

    @property
    def disjoint(self) -> bool:
        return self.l_overlap == 0


# ---------------------------------------------------------------------------
# text grammar


def parse_partition(text: str, m: int | None = None) -> Partition:
    """Parse the compact partition grammar (see module docstring)."""
    blocks: list[Block] = []
    idlers: list[int] = []
    for chunk in text.strip().split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise PartitionError(f"empty block in partition literal {text!r}")
        stars = chunk.count("*")
        body = chunk.replace("*", "")
        if "," in body:
            labels = [int(tok) for tok in body.split(",") if tok]
        else:
            labels = [int(ch) for ch in body]
        if any(lab < 1 for lab in labels):
            msg = f"channel labels are 1-based, but block {chunk!r} reads as channels {labels}"
            if "," not in body and len(body) > 1:
                msg += f"; list channels 10 and beyond with commas, as in {body + ',' + '*' * stars!r}"
            raise PartitionError(msg)
        blocks.append(tuple(lab - 1 for lab in labels))
        idlers.append(stars)
    if m is None:
        m = max(c for blk in blocks for c in blk) + 1
    return Partition(m, tuple(blocks), tuple(idlers))


def format_partition(partition: Partition) -> str:
    """Inverse of parse_partition (round-trips for every valid partition)."""
    multi = partition.m > 9
    parts = []
    for blk, q in zip(partition.blocks, partition.idlers):
        labels = [c + 1 for c in blk]
        body = ",".join(str(x) for x in labels) if multi else "".join(str(x) for x in labels)
        if len(labels) == 1 and labels[0] > 9:
            body += ","  # "10*" would read as channels 1 and 0
        parts.append(body + "*" * q)
    return "|".join(parts)


# ---------------------------------------------------------------------------
# standard constructions


def nn_partition(m: int) -> Partition:
    """Nearest-neighbour ring: blocks (k, k+1) on a closed 1-d lattice."""
    if m < 3:
        raise PartitionError(f"nearest-neighbour ring needs m >= 3, got {m}")
    blocks = tuple((k, (k + 1) % m) for k in range(m))
    return Partition(m, blocks)


def pair_partition(m: int) -> Partition:
    """Adjacent disjoint pairs (12)(34)... for even m."""
    if m % 2:
        raise PartitionError(f"pair tiling needs even m, got {m}")
    return Partition(m, tuple((2 * k, 2 * k + 1) for k in range(m // 2)))


def full_idler_partition(m: int) -> Partition:
    """Every channel probed by its own two-mode block with one idler."""
    return Partition(m, tuple((k,) for k in range(m)), (1,) * m)


def average_channel_use(partition: Partition, copies):
    """Average probings per channel: (m + l) / m * M.

    Returns an exact Fraction for integral M, a float otherwise.
    """
    if copies < 1:
        raise ValueError(f"copy number must be >= 1, got {copies}")
    m, l = partition.m, partition.l_overlap
    if isinstance(copies, (int, np.integer)) or (
        isinstance(copies, Fraction) and copies.denominator == 1
    ):
        return Fraction((m + l) * int(copies), m)
    return (m + l) / m * float(copies)


# ---------------------------------------------------------------------------
# disjoint-round decomposition


def _conflicts(blocks) -> list[set[int]]:
    n = len(blocks)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if set(blocks[i]) & set(blocks[j]):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def _greedy_coloring(adj) -> list[int]:
    colors = [-1] * len(adj)
    for i in range(len(adj)):
        used = {colors[j] for j in adj[i] if colors[j] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    return colors


def _exact_coloring(adj, k: int) -> list[int] | None:
    """Backtracking k-coloring; None if impossible."""
    n = len(adj)
    order = sorted(range(n), key=lambda i: -len(adj[i]))
    colors = [-1] * n

    def place(pos: int, max_used: int) -> bool:
        if pos == n:
            return True
        i = order[pos]
        used = {colors[j] for j in adj[i] if colors[j] >= 0}
        # fresh colors beyond max_used + 1 are symmetric, skip them
        for c in range(min(k, max_used + 2)):
            if c in used:
                continue
            colors[i] = c
            if place(pos + 1, max(max_used, c)):
                return True
            colors[i] = -1
        return False

    return colors if place(0, -1) else None


@functools.lru_cache(maxsize=128)
def decompose_rounds(partition: Partition) -> tuple[tuple[Block, ...], ...]:
    """Split the blocks into a minimal number of internally disjoint rounds.

    Rounds need not cover every channel, only the union over rounds does.
    Minimality is exact for up to 12 blocks (backtracking on the conflict
    graph), greedy first-fit beyond that.  Memoised per partition: a sweep
    evaluates one partition at many channel parameters.
    """
    blocks = partition.blocks
    adj = _conflicts(blocks)
    colors = _greedy_coloring(adj)
    n_colors = max(colors) + 1
    if len(blocks) <= 12:
        for k in range(1, n_colors):
            exact = _exact_coloring(adj, k)
            if exact is not None:
                colors, n_colors = exact, k
                break
    rounds: list[list[Block]] = [[] for _ in range(n_colors)]
    for blk, c in zip(blocks, colors):
        rounds[c].append(blk)
    return tuple(tuple(r) for r in rounds)


# ---------------------------------------------------------------------------
# copy-channel extension for mutual probing


def extend_for_mutual_probing(
    partition: Partition, space: ImageSpace
) -> tuple[Partition, tuple[Pattern, ...]]:
    """Relabel overlapping blocks onto m + l fresh channels.

    Every channel instance in block order gets a new label, so the blocks
    become consecutive disjoint groups (with their idlers); the i-th
    extended pattern is the bits of ``space.patterns[i]`` read off per
    block.  The map is injective, since every channel sits in a block, so
    the extended patterns are as many as the space's and keep its priors.
    """
    if space.m != partition.m:
        raise PartitionError(
            f"partition over m={partition.m} does not match space m={space.m}"
        )
    sizes = [len(b) for b in partition.blocks]
    bounds = np.cumsum([0] + sizes)
    new_blocks = tuple(
        tuple(range(bounds[j], bounds[j + 1])) for j in range(len(sizes))
    )
    m_ext = int(bounds[-1])
    extended = tuple(
        tuple(pat[c] for blk in partition.blocks for c in blk) for pat in space.patterns
    )
    return Partition(m_ext, new_blocks, partition.idlers), extended


# ---------------------------------------------------------------------------
# probe specifications and assembly


@dataclass(frozen=True)
class BlockDescriptor:
    """One sub-state of a probe: an entangled block or a coherent mode."""

    kind: str  # "ghz" | "coherent"
    channels: Block
    idlers: int = 0
    mu: float | None = None
    alpha: float | None = None

    @property
    def n_modes(self) -> int:
        return self.idlers + len(self.channels)

    @property
    def layout(self) -> tuple[int | None, ...]:
        """The mode order of ``state()``: None for each idler, idlers
        first, then the index of each of its channels."""
        return (None,) * self.idlers + self.channels

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """Covariance matrix and mean of the sub-state in ``layout`` order,
        unchecked: a GHZ state over its idler and probe modes, or a
        displaced vacuum mode."""
        return ghz_state(self.n_modes, self.mu) if self.kind == "ghz" else coherent_state([self.alpha])


@dataclass(frozen=True)
class ProbeSpec:
    """Declarative description of what to shine at an m-channel pattern.

    Entangled blocks (with optional idlers, all at squeezing mu) plus
    single-mode coherent probes must jointly cover every channel exactly
    once.  An all-coherent spec with amplitude 0 is the vacuum probe.
    """

    m: int
    mu: float | None
    blocks: tuple[Block, ...] = ()
    idlers: tuple[int, ...] = ()
    coherent: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        idlers = self.idlers or (0,) * len(self.blocks)
        object.__setattr__(self, "idlers", tuple(int(q) for q in idlers))
        object.__setattr__(
            self, "coherent", tuple((int(c), float(a)) for c, a in self.coherent)
        )
        if len(self.idlers) != len(self.blocks):
            raise PartitionError("need one idler count per entangled block")
        cover = list(self.blocks) + [(c,) for c, _ in self.coherent]
        _check_cover(cover, self.m, disjoint=True)
        for blk, q in zip(self.blocks, self.idlers):
            if len(blk) + q < 2:
                raise PartitionError(f"entangled block {blk} needs >= 2 modes (use an idler)")
        if self.blocks:
            if self.mu is None:
                raise EnergyError("entangled blocks need a squeezing energy mu")
            if self.mu < 0.5:
                raise EnergyError(f"squeezing mu must be >= 1/2, got {self.mu}")

    @classmethod
    def from_partition(cls, partition: Partition, mu: float) -> "ProbeSpec":
        if not partition.disjoint:
            raise PartitionError("overlapping blocks are probed via mutual probing, not directly")
        return cls(partition.m, mu, partition.blocks, partition.idlers)

    @classmethod
    def classical(cls, m: int, alpha: float = 0.0) -> "ProbeSpec":
        """Per-channel coherent (or vacuum, alpha=0) probes."""
        return cls(m, None, coherent=tuple((c, alpha) for c in range(m)))

    def descriptors(self) -> tuple[BlockDescriptor, ...]:
        out = [
            BlockDescriptor("ghz", blk, q, mu=self.mu)
            for blk, q in zip(self.blocks, self.idlers)
        ]
        out.extend(
            BlockDescriptor("coherent", (c,), alpha=a) for c, a in self.coherent
        )
        return tuple(out)


def odd_m_disjoint_spec(m: int, mu: float, strategy: str) -> ProbeSpec:
    """Two-mode blocks over m-1 channels plus a remainder-channel strategy.

    ``single-idler``: the remainder channel is probed by one arm of an
    extra two-mode block whose other arm is kept as an idler.
    ``hybrid-coherent``: the remainder channel gets a coherent probe of
    the same per-mode energy as the squeezed blocks.
    """
    if m % 2 == 0 or m < 3:
        raise PartitionError(f"odd-m strategies need odd m >= 3, got {m}")
    pairs = tuple((2 * k, 2 * k + 1) for k in range((m - 1) // 2))
    if strategy == SINGLE_IDLER:
        return ProbeSpec(m, mu, pairs + ((m - 1,),), (0,) * len(pairs) + (1,))
    if strategy == HYBRID_COHERENT:
        alpha = float(np.sqrt(mu - 0.5))
        return ProbeSpec(m, mu, pairs, coherent=((m - 1, alpha),))
    raise ValueError(f"unknown odd-m strategy {strategy!r}")


@dataclass(frozen=True)
class ProbeState:
    """Assembled probe: covariance matrix plus its layout, the probed
    channel of each mode or None for an idler."""

    spec: ProbeSpec
    cm: CovMatrix
    layout: tuple[int | None, ...]

    def output(self, family, pattern) -> CovMatrix:
        return apply_pattern_with_idlers(self.cm, family, pattern, self.layout)


def probe_state(spec: ProbeSpec) -> tuple[np.ndarray, np.ndarray, tuple[int | None, ...]]:
    """Covariance matrix, mean and layout of the probe of ``spec``,
    unchecked: the block-diagonal matrix of its descriptors in order, each
    in its own ``BlockDescriptor.layout``.

    Entangled blocks become GHZ states over their idler and probe modes;
    coherent entries become displaced vacuum modes.
    """
    descs = spec.descriptors()
    layout = tuple(ch for desc in descs for ch in desc.layout)
    return (*direct_sum([desc.state() for desc in descs]), layout)


def assemble_probe(spec: ProbeSpec) -> ProbeState:
    """The probe of ``spec`` (see ``probe_state``), checked once as a
    whole: the tensor product is bona fide exactly when every block is."""
    data, mean, layout = probe_state(spec)
    return ProbeState(spec, CovMatrix(data, mean), layout)
