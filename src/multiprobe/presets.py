"""Named probe presets used by the CLI, the experiment scripts and the
suites of ``multiprobe validate``, and the scale names of those suites.

A preset resolves to one of three computation routes: a disjoint (possibly
idler-assisted) ProbeSpec, a partition of overlapping blocks handled by
mutual probing, or the closed-form classical benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

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

DISJOINT = "disjoint"
MUTUAL = "mutual"
CLASSICAL = "classical"

PRESET_NAMES = ("full-ghz", "tmsv-disjoint", "nn", "idler-full", "classical")

# the scales of ``multiprobe validate``, smallest first (see ``multiprobe.validate``)
SCALES = ("smoke", "quick", "full")


@dataclass(frozen=True)
class ProbePlan:
    """How to evaluate one probe configuration."""

    route: str
    spec: ProbeSpec | None = None
    partition: Partition | None = None


def resolve_probe(name: str, m: int, mu: float | None, odd_strategy: str = SINGLE_IDLER) -> ProbePlan:
    """Map a preset name or ``part:`` literal to a probe plan.

    ``tmsv-disjoint`` tiles even patterns with adjacent pairs; odd patterns
    use the requested remainder strategy (single idler by default).
    """
    name = name.strip()
    if name == "classical":
        return ProbePlan(CLASSICAL)
    if name.startswith("part:"):
        partition = parse_partition(name[5:], m)
        if partition.disjoint:
            return ProbePlan(DISJOINT, spec=ProbeSpec.from_partition(partition, mu))
        return ProbePlan(MUTUAL, partition=partition)
    if name == "full-ghz":
        return ProbePlan(DISJOINT, spec=ProbeSpec(m, mu, blocks=(tuple(range(m)),)))
    if name == "tmsv-disjoint":
        if m % 2 == 0:
            spec = ProbeSpec.from_partition(pair_partition(m), mu)
        else:
            spec = odd_m_disjoint_spec(m, mu, odd_strategy)
        return ProbePlan(DISJOINT, spec=spec)
    if name == "nn":
        return ProbePlan(MUTUAL, partition=nn_partition(m))
    if name == "idler-full":
        return ProbePlan(DISJOINT, spec=ProbeSpec.from_partition(full_idler_partition(m), mu))
    raise PartitionError(
        f"unknown probe {name!r}; use one of {PRESET_NAMES} or a 'part:' literal"
    )
