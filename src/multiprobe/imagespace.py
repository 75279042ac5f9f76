"""Pattern image spaces: enumeration, priors and serialization.

An image space is an ordered collection of binary patterns with prior
weights.  Position-finding spaces fix the number of target channels:
cpf(k) holds every pattern with exactly k targets, bcpf(ks) the union over
a set of target counts, and the full space all 2^m patterns.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations

import numpy as np

from .channels import MAX_PATTERN_LEN
from .errors import CapacityError, DimensionError

Pattern = tuple[int, ...]

PRIOR_TOL = 1e-12


def _cpf_patterns(m: int, k: int) -> list[Pattern]:
    pats = []
    for targets in combinations(range(m), k):
        bits = [0] * m
        for t in targets:
            bits[t] = 1
        pats.append(tuple(bits))
    return pats


def _enumerate(m: int, ks) -> tuple[Pattern, ...]:
    """Every pattern over m channels with a target count in ks, sorted."""
    return tuple(sorted(p for k in ks for p in _cpf_patterns(m, k)))


class ImageSpace:
    """Ordered patterns plus priors.  Patterns are lexicographically sorted.

    ``target_counts`` holds the admissible numbers of target channels of a
    full/cpf/bcpf position-finding space, None for a custom one.  Without
    patterns, the target counts describe a uniform space: its size and
    uniformity follow from m and them, and its patterns and priors are
    enumerated, and checked as given ones are, on the first read of either.
    Only the dense routes, the brute-force oracle and serialization read
    them.  Patterns over more than MAX_PATTERN_LEN channels raise
    CapacityError, whether or not they are listed.
    """

    def __init__(self, m: int, patterns=None, priors=None, target_counts: tuple[int, ...] | None = None):
        if m > MAX_PATTERN_LEN:
            raise CapacityError(f"image spaces are capped at m={MAX_PATTERN_LEN}, got m={m}")
        if m < 1:
            raise DimensionError(f"pattern length must be at least 1, got m={m}")
        self.m = m
        self.target_counts = target_counts
        if patterns is None:
            if priors is not None or target_counts is None:
                raise ValueError("only a uniform full/cpf/bcpf space may leave its patterns out")
            self._size = sum(math.comb(m, k) for k in target_counts)
            if not self._size:
                raise ValueError("image space is empty")
            self.uniform = True
        else:
            self._contents = _checked(m, tuple(patterns), priors)
            self._size = len(self.patterns)
            self.uniform = bool(np.allclose(self.priors, 1.0 / len(self), rtol=0, atol=PRIOR_TOL))

    @cached_property
    def _contents(self) -> tuple[tuple[Pattern, ...], np.ndarray]:
        pats = _enumerate(self.m, self.target_counts)
        return _checked(self.m, pats, np.full(len(pats), 1.0 / len(pats)))

    @property
    def patterns(self) -> tuple[Pattern, ...]:
        return self._contents[0]

    @property
    def priors(self) -> np.ndarray:
        return self._contents[1]

    def __len__(self) -> int:
        return self._size


def _checked(m: int, patterns: tuple[Pattern, ...], priors) -> tuple[tuple[Pattern, ...], np.ndarray]:
    """The patterns and priors of an image space over m channels, checked."""
    if not patterns:
        raise ValueError("image space is empty")
    for p in patterns:
        if len(p) != m or any(b not in (0, 1) for b in p):
            raise ValueError(f"bad pattern {p!r} for m={m}")
    if len(set(patterns)) != len(patterns):
        raise ValueError("duplicate patterns in image space")
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (len(patterns),):
        raise DimensionError("one prior per pattern required")
    # NaN fails every comparison, so it needs a test of its own
    if not np.isfinite(priors).all() or (priors < 0).any() or abs(priors.sum() - 1.0) > PRIOR_TOL:
        raise ValueError("priors must be finite, nonnegative and sum to 1")
    return patterns, priors


def full_space(m: int, priors=None) -> ImageSpace:
    """All 2^m patterns in lexicographic order."""
    return _position_space(m, tuple(range(m + 1)), priors)


def cpf_space(m: int, k: int, priors=None) -> ImageSpace:
    """Patterns with exactly k target channels."""
    if not 0 <= k <= m:
        raise ValueError(f"target count k={k} outside [0, {m}]")
    return _position_space(m, (k,), priors)


def bcpf_space(m: int, ks, priors=None) -> ImageSpace:
    """Patterns whose target count lies in the set ks."""
    ks = tuple(sorted(set(int(k) for k in ks)))
    if not ks or ks[0] < 0 or ks[-1] > m:
        raise ValueError(f"target counts {ks} outside [0, {m}]")
    return _position_space(m, ks, priors)


def _position_space(m: int, ks: tuple[int, ...], priors) -> ImageSpace:
    """A lazy uniform space, or the enumerated one when priors are given."""
    space = ImageSpace(m, target_counts=ks)
    if priors is None:
        return space
    return ImageSpace(m, _enumerate(m, ks), priors, target_counts=ks)


# ---------------------------------------------------------------------------
# serialization: one pattern per line as a bitstring, optional weight


def read_space(fh) -> ImageSpace:
    patterns, weights = [], []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) > 2:
            raise ValueError(f"space file line {line!r} holds more than a pattern and a weight")
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
        if not np.isfinite(pri).all() or (pri < 0).any() or not pri.sum() > 0:
            raise ValueError("pattern weights must be finite and nonnegative, with a positive sum")
        pri = pri / pri.sum()
    return ImageSpace(m, tuple(patterns), pri)
