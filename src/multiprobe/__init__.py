"""Multipartite Gaussian probing of binary channel patterns.

Builds covariance-matrix probe states over channel patterns, propagates
them through Gaussian phase-insensitive channels, and computes classical
and quantum error-probability bounds for pattern discrimination.
"""

from .bounds import (
    BoundColumns,
    BoundReport,
    FidelityTable,
    block_subfidelity,
    bound_reports,
    bounds_from_table,
    bounds_tmsv_pairs,
    bounds_tmsv_pairs_odd,
    census_histogram,
    evaluate,
    evaluate_points,
    fidelity_table_bruteforce,
    guaranteed_advantage,
    tmsv_subfidelity,
)
from .channels import (
    ChannelFamily,
    GpiParams,
    apply_pattern_with_idlers,
)
from .closedform import subfidelity_oracle
from .gaussian import (
    CovMatrix,
    coherent_cm,
    gaussian_fidelity,
    ghz_cm,
    symplectic_spectrum,
    tensor,
    tmsv_cm,
    vacuum_cm,
)
from .imagespace import (
    ImageSpace,
    bcpf_space,
    cpf_space,
    full_space,
)
from .probes import (
    Partition,
    ProbeSpec,
    assemble_probe,
    average_channel_use,
    decompose_rounds,
    extend_for_mutual_probing,
    format_partition,
    nn_partition,
    odd_m_disjoint_spec,
    parse_partition,
)

__version__ = "0.1.0"

__all__ = [
    "BoundColumns",
    "BoundReport",
    "ChannelFamily",
    "CovMatrix",
    "FidelityTable",
    "GpiParams",
    "ImageSpace",
    "Partition",
    "ProbeSpec",
    "apply_pattern_with_idlers",
    "assemble_probe",
    "average_channel_use",
    "bcpf_space",
    "block_subfidelity",
    "bound_reports",
    "bounds_from_table",
    "bounds_tmsv_pairs",
    "bounds_tmsv_pairs_odd",
    "census_histogram",
    "coherent_cm",
    "cpf_space",
    "decompose_rounds",
    "evaluate",
    "evaluate_points",
    "extend_for_mutual_probing",
    "fidelity_table_bruteforce",
    "format_partition",
    "full_space",
    "gaussian_fidelity",
    "ghz_cm",
    "guaranteed_advantage",
    "nn_partition",
    "odd_m_disjoint_spec",
    "parse_partition",
    "subfidelity_oracle",
    "symplectic_spectrum",
    "tensor",
    "tmsv_cm",
    "tmsv_subfidelity",
    "vacuum_cm",
]
