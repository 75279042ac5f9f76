"""Named probe presets used by the CLI, the experiment scripts and the
suites of ``multiprobe validate``, and the scale names of those suites.

A preset resolves to a ProbeSpec, GHZ blocks with or without idlers,
overlapping or not (see ``ProbeSpec.from_partition``), or to CLASSICAL,
the closed-form classical benchmark.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from .errors import PartitionError
from .probes import (
    SINGLE_IDLER,
    Partition,
    ProbeSpec,
    full_idler_partition,
    nn_partition,
    odd_m_disjoint_spec,
    pair_partition,
    parse_partition,
)

CLASSICAL = "classical"

PRESET_NAMES = ("full-ghz", "tmsv-disjoint", "nn", "idler-full", "classical")

# the scales of ``multiprobe validate``, smallest first (see ``multiprobe.validate``)
SCALES = ("smoke", "quick", "full")


def resolve_probe(name: str, m: int, mu: float | None, odd_strategy: str = SINGLE_IDLER) -> ProbeSpec | str:
    """Map a preset name or ``part:`` literal to its probe spec at squeezing
    mu, or to CLASSICAL (see ``resolve_preset``)."""
    return resolve_preset(name, m, odd_strategy)(mu)


def resolve_preset(name: str, m: int, odd_strategy: str = SINGLE_IDLER) -> Callable[[float | None], ProbeSpec | str]:
    """The probe of a preset name or ``part:`` literal as a function of the
    squeezing mu: its partition is parsed and checked here, once, so that a
    sweep over energies builds only the probe spec at each mu.

    ``tmsv-disjoint`` tiles even patterns with adjacent pairs; odd patterns
    use the requested remainder strategy (single idler by default).
    """
    name = name.strip()
    if name == "classical":
        return lambda mu: CLASSICAL
    if name.startswith("part:"):
        partition = parse_partition(name[5:], m)
    elif name == "full-ghz":
        partition = Partition(m, (tuple(range(m)),))
    elif name == "tmsv-disjoint":
        if m % 2:
            return lambda mu: odd_m_disjoint_spec(m, mu, odd_strategy)
        partition = pair_partition(m)
    elif name == "nn":
        partition = nn_partition(m)
    elif name == "idler-full":
        partition = full_idler_partition(m)
    else:
        raise PartitionError(f"unknown probe {name!r}; use one of {PRESET_NAMES} or a 'part:' literal")
    return functools.partial(ProbeSpec.from_partition, partition)
