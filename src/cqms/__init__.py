"""Finite compact quantum groups as compact quantum metric spaces.

Builds finite quantum groups (function and group algebras of finite groups),
their Peter-Weyl truncations with induced coactions and bi-invariant
Lip-norms, and certified upper bounds on Gromov-Hausdorff type distances
between a truncation and the full algebra.
"""

from .chains import check_chain, frequency_chain, length_chain, prefix_chain
from .compress import (
    InducedCoaction,
    TruncatedSystem,
    canonical_symbol_state,
    cocommutation_residual,
    comultiplication_coaction,
    conditional_expectation,
    induced_coaction,
    isometry_witness_residual,
    isotypical_projection,
    liftable_states,
    optimized_symbol_state,
    pullback_state,
    restrict_state,
    symbol_map,
    truncate,
)
from .corep import (
    Corepresentation,
    GNSSpace,
    PWDecomposition,
    corep_from_group_rep,
    default_irreps,
    gns_build,
    matrix_coefficients,
    mor_dim,
    multiplicative_unitary,
    pw_decompose,
    pw_projector,
    trivial_corep,
    validate_corep,
)
from .hopf import (
    AxiomReport,
    FiniteQuantumGroup,
    Functional,
    State,
    certify_state,
    check_axioms,
    convolve,
    counit_state,
    counit_support_projection,
    function_algebra,
    group_algebra,
    haar_state,
    slice_map,
)
from .lipnorm import (
    CommutatorSeminorm,
    LipValueBracket,
    PolyhedralSeminorm,
    check_invariance,
    group_case_seminorms,
    induced_lip,
    induced_lip_bi,
    induced_lip_bracket,
    invariant_upgrade,
    lip_from_metric,
    lip_fourier,
    max_numerical_radius,
    numerical_radius,
    sampled_state_lower_bound,
)
from .mkdist import (
    CriterionInputs,
    HausdorffEstimate,
    MKResult,
    admissible_sum_lipnorm,
    criterion_bound,
    diameter_bracket,
    hausdorff_estimate,
    matrix_mk_lower_bound,
    mk_distance,
    sa_basis,
    truncation_bound,
)
from .simplex import LPProblem, LPSolution, solve_lp

__all__ = [name for name in dir() if not name.startswith("_")]
