"""Composite parameterization of U(d) and the bounds it enables.

Angle matrices (d x d, real) generate unitaries through ordered products
of plane factors; truncated products give redundancy-free rank-k density
matrices and k-dimensional subspace bases; conjugating antisymmetric
generator pairs with parameterized local rotations gives optimizable
lower bounds on bipartite and multipartite concurrence, plus a
distillability witness with a parameter count linear in the dimension.
"""

from .composite import (
    apply_factor,
    build_ucd,
    build_ucs,
    build_unitary,
    decompose,
    projector,
    random_param_matrix,
    sigma,
    sigma_pairs,
    unitarity_defect,
)
from .entanglement import (
    Bipartition,
    BoundReport,
    MultipartiteBound,
    bopt_objective,
    bound_b,
    bound_x,
    distill_objective,
    enumerate_bipartitions,
    linear_entropy,
    make_bopt_objective,
    make_distill_objective,
    max_concurrence,
    max_distill_x_sq,
    multipartite_bound_b,
    n_copy_state,
    offdiag_positions,
    offdiag_to_matrix,
    optimized_bound_b,
    optimized_bounds_b,
    ppt_min_eigenvalue,
    pure_m_concurrence_sq,
    ucs_block_positions,
    ucs_block_to_matrix,
)
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DimensionTooLargeError,
    IndexOrderError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonFiniteError,
    NonSquareError,
    NormalizationError,
    NotHermitianError,
    NotOrthonormalError,
    NotPSDError,
    NotUnitaryError,
    RankOutOfRangeError,
    UniparamError,
)
from .linalg import (
    HermitianEig,
    herm_eig,
    kron,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    psd_sqrt,
)
from .optimize import OptimizerConfig, OptimizerResult, minimize, minimize_many, refine
from .states import (
    build_density,
    canonicalize_subspace,
    simplex_weights,
    subspace_basis,
    validate_density,
)

__version__ = "0.1.0"
