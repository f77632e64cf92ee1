"""schurkit: the Schur transform on n qudits by cascaded Clebsch-Gordan
coupling, numerical Schur-Weyl duality verification, and method-of-types
applications (spectrum estimation, entanglement concentration, universal
compression, the symmetric-group Fourier transform, generalized phase
estimation, and channel normal forms) at dense desk scale.
"""

from .channels import (
    ChannelNormalForm,
    channel_normal_form,
    invariant_basis,
    kronecker,
    phi_lambda,
)
from .characters import character, young_orthogonal
from .combinatorics import (
    add_box,
    dim_p,
    dim_q,
    enumerate_gz,
    enumerate_partitions,
    enumerate_yy,
    kostka,
    schur_poly,
)
from .duality_checks import (
    IrrepBlockReport,
    rep_matrix_p,
    rep_matrix_q,
    rho_blocks,
    spectral_weights,
    verify_block_diagonal,
)
from .operators import DenseOperator, collective_unitary, dense_cap, permutation_action
from .qtypes import (
    CompressRateRecord,
    ConcentrationReport,
    SpectrumEstimateReport,
    classical_type_bounds,
    compress_rate,
    concentrate,
    sector_distribution,
    spectrum_estimate,
    trace_bound_check,
    trace_bound_checks,
    typical_mass,
)
from .schur_transform import (
    SchurLabelCodec,
    central_projector_oracle,
    dfs_decode,
    dfs_encode,
    measure_schur,
    schur,
    schur_unitary,
)
from .sn_fourier import (
    FourierReport,
    GPEResult,
    gpe_instrument,
    gpe_measure,
    sn_qft_from_schur,
    verify_fourier,
)
from .wigner import cg_block, cg_output_blocks, reduced_wigner, that_matrix

__version__ = "0.1.0"

__all__ = [
    "ChannelNormalForm",
    "CompressRateRecord",
    "ConcentrationReport",
    "DenseOperator",
    "FourierReport",
    "GPEResult",
    "IrrepBlockReport",
    "SchurLabelCodec",
    "SpectrumEstimateReport",
    "add_box",
    "central_projector_oracle",
    "cg_block",
    "cg_output_blocks",
    "channel_normal_form",
    "character",
    "classical_type_bounds",
    "collective_unitary",
    "compress_rate",
    "concentrate",
    "dense_cap",
    "dfs_decode",
    "dfs_encode",
    "dim_p",
    "dim_q",
    "enumerate_gz",
    "enumerate_partitions",
    "enumerate_yy",
    "gpe_instrument",
    "gpe_measure",
    "invariant_basis",
    "kostka",
    "kronecker",
    "measure_schur",
    "permutation_action",
    "phi_lambda",
    "rep_matrix_p",
    "rep_matrix_q",
    "rho_blocks",
    "schur",
    "schur_poly",
    "schur_unitary",
    "sector_distribution",
    "sn_qft_from_schur",
    "spectral_weights",
    "spectrum_estimate",
    "trace_bound_check",
    "trace_bound_checks",
    "typical_mass",
    "verify_block_diagonal",
    "verify_fourier",
    "young_orthogonal",
]
