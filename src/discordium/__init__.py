"""Classical-quantum discord, classicality certificates, and measurement
channels for bipartite density matrices."""

__version__ = "0.1.0"

from .errors import (
    BadConfig,
    BadRank,
    CertificateInconsistent,
    DiagonalForbidden,
    DimensionMismatch,
    DiscordiumError,
    IndexOutOfRange,
    InvalidPovm,
    NegativeEigenvalue,
    NotAtEquality,
    NotHermitian,
    NotIsometry,
    NotPositive,
    NotPovm,
    NotRankOne,
    NotUnitary,
    ParseError,
    TraceNotOne,
    ValidationError,
    WrongDimension,
)
from .linalg import (
    EigenDecomposition,
    distance,
    hermitian_eig,
    kron,
    matrix_function_on_support,
    partial_trace,
    support_cutoff,
    trace_distance,
)
from .states import (
    BipartiteState,
    ConditionalEnsemble,
    DensityMatrix,
    assemble_cq,
    bipartite,
    block,
    conditional_ensemble,
    haar_unitary,
    random_cq_state,
    random_cq_state_with_parts,
    random_state,
    reduced_state,
    validate_density,
)
from .measures import (
    RelEntropyValue,
    mutual_information,
    relative_entropy,
    spectrum_entropy,
    von_neumann_entropy,
)
from .channels import (
    ExtremalityReport,
    KrausChannel,
    KrausMap,
    Povm,
    Refinement,
    adjoint,
    apply,
    apply_matrix,
    coarse_grain_channel,
    dephase,
    dephasing_channel,
    embed_state,
    is_extremal,
    isometry_to_povm,
    measurement_map,
    povm,
    povm_to_isometry,
    projective_povm,
    refine_to_rank_one,
)
from .petz import (
    PetzMap,
    apply_petz,
    build_petz,
    reconstruct_cq,
    recovery_residual,
)
from .classicality import (
    ClassicalityCertificate,
    DiscordConfig,
    DiscordResult,
    NotClassical,
    PeelingTrace,
    certify_classical,
    discord,
    equality_residuals,
    equality_weights,
    peel_extremal,
    qubit_discord_oracle,
)
from .counterexample import (
    COUNTEREXAMPLE_MATRIX,
    ZeroingReport,
    run_counterexample,
    zero_conjugate_pair,
    zeroing_report,
)
