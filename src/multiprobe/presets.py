"""Named probe presets used by the CLI and the experiment scripts, and the
scale names of ``multiprobe validate``.

A preset resolves to one of three computation routes: a disjoint (possibly
idler-assisted) ProbeSpec, a non-disjoint partition handled by mutual
probing, or the closed-form classical benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PartitionError
from .probes import (
    SINGLE_IDLER,
    NonDisjointPartition,
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
    partition: NonDisjointPartition | None = None
    label: str = ""


def resolve_probe(name: str, m: int, mu: float | None, odd_strategy: str = SINGLE_IDLER) -> ProbePlan:
    """Map a preset name or ``part:`` literal to a probe plan.

    ``tmsv-disjoint`` tiles even patterns with adjacent pairs; odd patterns
    use the requested remainder strategy (single idler by default).
    """
    name = name.strip()
    if name == "classical":
        return ProbePlan(CLASSICAL, label="classical")
    if name.startswith("part:"):
        partition = parse_partition(name[5:], m)
        if isinstance(partition, NonDisjointPartition):
            return ProbePlan(MUTUAL, partition=partition, label=name[5:])
        return ProbePlan(DISJOINT, spec=ProbeSpec.from_partition(partition, mu), label=name[5:])
    if name == "full-ghz":
        spec = ProbeSpec(m, mu, blocks=(tuple(range(m)),))
        return ProbePlan(DISJOINT, spec=spec, label="full-ghz")
    if name == "tmsv-disjoint":
        if m % 2 == 0:
            spec = ProbeSpec.from_partition(pair_partition(m), mu)
        else:
            spec = odd_m_disjoint_spec(m, mu, odd_strategy)
        return ProbePlan(DISJOINT, spec=spec, label="tmsv-disjoint")
    if name == "nn":
        return ProbePlan(MUTUAL, partition=nn_partition(m), label="nn")
    if name == "idler-full":
        spec = ProbeSpec.from_partition(full_idler_partition(m), mu)
        return ProbePlan(DISJOINT, spec=spec, label="idler-full")
    raise PartitionError(
        f"unknown probe {name!r}; use one of {PRESET_NAMES} or a 'part:' literal"
    )
