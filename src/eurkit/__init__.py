"""Entropic uncertainty sums and lower bounds for multiple qutrit
measurements, with tomographic state reconstruction from projection
records and verification of pulse sequences against their projection
targets.

Basis order everywhere: index 0 is |0>, index 1 is |-1>, index 2 is
|+1>.  Entropies are in bits.
"""

from .bounds import (
    BoundReport,
    MajorizationProfile,
    bound_report,
    lmf_bound,
    lmf_bound_best_ordering,
    lmf_chain_coefficient,
    mu_bound,
    rpz_bound,
    rpz_profile,
    scb_bound,
)
from .documents import builtin_state
from .entropy import (
    EntropyBreakdown,
    binary_entropy,
    entropy_sum,
    shannon_entropy,
    von_neumann_entropy,
)
from .family import (
    build_family,
    default_grid,
    entropy_total_closed_form,
    sweep,
    SweepRow,
)
from .linalg import (
    ATOL,
    DATA_PSD_TOL,
    CapacityError,
    DataQualityError,
    DensityOperator,
    ProjectiveMeasurement,
    ValidationError,
    as_density_matrix,
    as_state_vector,
    born_probabilities,
    hermitian_eigen,
    matrix_sqrt_psd,
    overlap_c,
    ray_fidelity,
)
from .pulses import (
    CHANNELS,
    PROJECTION_TABLE,
    Channel,
    Pulse,
    RowCheck,
    TableRow,
    apply_pulses,
    calibrated_angle,
    pulse_unitary,
    verify_projection_sequence,
    verify_row,
    verify_table,
)
from .tomography import (
    REFERENCE_RECONSTRUCTION,
    REFERENCE_TARGET_KET,
    ReconstructionResult,
    TomographyRecord,
    fidelity,
    fidelity_with_ket,
    project_physical,
    reconstruct,
    simulate_projections,
)

__version__ = "0.1.0"

__all__ = [
    "ATOL",
    "DATA_PSD_TOL",
    "BoundReport",
    "CHANNELS",
    "CapacityError",
    "Channel",
    "DataQualityError",
    "DensityOperator",
    "EntropyBreakdown",
    "MajorizationProfile",
    "PROJECTION_TABLE",
    "ProjectiveMeasurement",
    "Pulse",
    "REFERENCE_RECONSTRUCTION",
    "REFERENCE_TARGET_KET",
    "ReconstructionResult",
    "RowCheck",
    "SweepRow",
    "TableRow",
    "TomographyRecord",
    "ValidationError",
    "apply_pulses",
    "as_density_matrix",
    "as_state_vector",
    "binary_entropy",
    "born_probabilities",
    "bound_report",
    "build_family",
    "builtin_state",
    "calibrated_angle",
    "default_grid",
    "entropy_sum",
    "entropy_total_closed_form",
    "fidelity",
    "fidelity_with_ket",
    "hermitian_eigen",
    "lmf_bound",
    "lmf_bound_best_ordering",
    "lmf_chain_coefficient",
    "matrix_sqrt_psd",
    "mu_bound",
    "overlap_c",
    "project_physical",
    "pulse_unitary",
    "ray_fidelity",
    "reconstruct",
    "rpz_bound",
    "rpz_profile",
    "scb_bound",
    "shannon_entropy",
    "simulate_projections",
    "sweep",
    "verify_projection_sequence",
    "verify_row",
    "verify_table",
    "von_neumann_entropy",
]
