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
    induced_coaction,
    isometry_witness_residual,
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
    default_irreps,
    gns_build,
    multiplicative_unitary,
    pw_decompose,
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
)
from .lipnorm import (
    LipValueBracket,
    PolyhedralSeminorm,
    check_invariance,
    group_case_seminorms,
    induced_lip,
    induced_lip_bi,
    invariant_upgrade,
    lip_from_metric,
    lip_fourier,
    max_numerical_radius,
    numerical_radius,
)
from .mkdist import (
    MKResult,
    diameter_bracket,
    matrix_mk_lower_bound,
    mk_distance,
    sa_basis,
    truncation_bound,
)
from .simplex import LPProblem, LPSolution, solve_lp

__all__ = [name for name in dir() if not name.startswith("_")]
