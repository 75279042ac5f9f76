"""Pattern image spaces: enumeration, priors and serialization.

An image space is an ordered collection of binary patterns with prior
weights.  Position-finding spaces fix the number of target channels:
cpf(k) holds every pattern with exactly k targets, bcpf(ks) the union over
a set of target counts, and the full space all 2^m patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .channels import MAX_PATTERN_LEN
from .errors import CapacityError, DimensionError

Pattern = tuple[int, ...]

FULL = "full"
CPF = "cpf"
BCPF = "bcpf"
CUSTOM = "custom"

PRIOR_TOL = 1e-12


def _cpf_patterns(m: int, k: int) -> list[Pattern]:
    pats = []
    for targets in combinations(range(m), k):
        bits = [0] * m
        for t in targets:
            bits[t] = 1
        pats.append(tuple(bits))
    return pats


@dataclass(frozen=True, eq=False)
class ImageSpace:
    """Ordered patterns plus priors.  Patterns are lexicographically sorted."""

    m: int
    patterns: tuple[Pattern, ...]
    priors: np.ndarray
    kind: tuple = (CUSTOM,)

    def __post_init__(self):
        if not 1 <= self.m <= MAX_PATTERN_LEN:
            raise DimensionError(f"pattern length must be in [1, {MAX_PATTERN_LEN}]")
        if not self.patterns:
            raise ValueError("image space is empty")
        for p in self.patterns:
            if len(p) != self.m or any(b not in (0, 1) for b in p):
                raise ValueError(f"bad pattern {p!r} for m={self.m}")
        if len(set(self.patterns)) != len(self.patterns):
            raise ValueError("duplicate patterns in image space")
        priors = np.asarray(self.priors, dtype=float)
        if priors.shape != (len(self.patterns),):
            raise DimensionError("one prior per pattern required")
        if (priors < 0).any() or abs(priors.sum() - 1.0) > PRIOR_TOL:
            raise ValueError("priors must be nonnegative and sum to 1")
        object.__setattr__(self, "priors", priors)

    def __len__(self) -> int:
        return len(self.patterns)

    @cached_property
    def uniform(self) -> bool:
        return bool(np.allclose(self.priors, 1.0 / len(self), rtol=0, atol=PRIOR_TOL))

    @property
    def target_counts(self) -> tuple[int, ...] | None:
        """Admissible numbers of target channels, when the kind fixes them."""
        if self.kind[0] == FULL:
            return tuple(range(self.m + 1))
        if self.kind[0] == CPF:
            return (self.kind[1],)
        if self.kind[0] == BCPF:
            return self.kind[1]
        return None


def full_space(m: int, priors=None) -> ImageSpace:
    """All 2^m patterns in lexicographic order."""
    if m > MAX_PATTERN_LEN:
        raise CapacityError(f"full space enumeration capped at m={MAX_PATTERN_LEN}")
    pats = sorted(p for k in range(m + 1) for p in _cpf_patterns(m, k))
    pri = np.full(len(pats), 1.0 / len(pats)) if priors is None else priors
    return ImageSpace(m, tuple(pats), pri, kind=(FULL,))


def cpf_space(m: int, k: int, priors=None) -> ImageSpace:
    """Patterns with exactly k target channels."""
    if not 0 <= k <= m:
        raise ValueError(f"target count k={k} outside [0, {m}]")
    pats = sorted(_cpf_patterns(m, k))
    pri = np.full(len(pats), 1.0 / len(pats)) if priors is None else priors
    return ImageSpace(m, tuple(pats), pri, kind=(CPF, k))


def bcpf_space(m: int, ks, priors=None) -> ImageSpace:
    """Patterns whose target count lies in the set ks."""
    ks = tuple(sorted(set(int(k) for k in ks)))
    if not ks or ks[0] < 0 or ks[-1] > m:
        raise ValueError(f"target counts {ks} outside [0, {m}]")
    pats = sorted(p for k in ks for p in _cpf_patterns(m, k))
    pri = np.full(len(pats), 1.0 / len(pats)) if priors is None else priors
    return ImageSpace(m, tuple(pats), pri, kind=(BCPF, ks))


@dataclass(frozen=True, eq=False)
class ExtendedImageSpace:
    """An image space mapped over copy-channels to m + l channels.

    extended[i] is the image of base.patterns[i]; the map is injective and
    priors carry over unchanged, so |extended| = |base|.
    """

    base: ImageSpace
    extended: tuple[Pattern, ...]
    m_ext: int

    def __post_init__(self):
        if len(self.extended) != len(self.base):
            raise ValueError("extension must preserve the number of patterns")
        if len(set(self.extended)) != len(self.extended):
            raise ValueError("extension map is not injective")
        for p in self.extended:
            if len(p) != self.m_ext:
                raise DimensionError(f"extended pattern {p!r} has wrong length")


# ---------------------------------------------------------------------------
# serialization: one pattern per line as a bitstring, optional weight


def write_space(space: ImageSpace, fh) -> None:
    for pat, w in zip(space.patterns, space.priors):
        fh.write("".join(str(b) for b in pat) + f" {float(w)!r}\n")


def read_space(fh) -> ImageSpace:
    patterns, weights = [], []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        bits = tuple(int(c) for c in parts[0])
        patterns.append(bits)
        weights.append(float(parts[1]) if len(parts) > 1 else None)
    if not patterns:
        raise ValueError("no patterns in file")
    m = len(patterns[0])
    if any(w is None for w in weights):
        if not all(w is None for w in weights):
            raise ValueError("either all lines carry weights or none")
        pri = np.full(len(patterns), 1.0 / len(patterns))
    else:
        pri = np.asarray(weights, dtype=float)
        pri = pri / pri.sum()
    return ImageSpace(m, tuple(patterns), pri, kind=(CUSTOM,))
