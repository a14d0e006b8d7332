"""Divergence decompositions, fundamental (n-1)-forms and boundary
relations for constant-coefficient linear differential operators.

Exact symbolic core (Gaussian-rational polynomial coefficients), a
rewrite engine whose every step is oracle-checked, spectral substitution
machinery, and a quadrature harness that confirms boundary relations
numerically against manufactured solutions.
"""

from .algebra import (
    BilinearExpr,
    BilinearTerm,
    MultiIndex,
    brace,
    bracket,
    divergence,
    partial,
    term,
)
from .catalog import verify_stokes_adjoint
from .decompose import (
    DecompositionPlan,
    DivergenceDecomposition,
    EnumerationLimit,
    PairTerm,
    PlanError,
    TermPlan,
    collapse_step,
    count_forms,
    decompose,
    default_plan,
    ensure_verified,
    enumerate_plans,
    exchange_step,
    reduce_step,
    sigma_count,
    verify_divergence,
)
from .forms import assemble, exterior_derivative, forms_equivalent
from .manufactured import ManufacturedSolution, parse_solution
from .operators import (
    MatrixPDO,
    ScalarPDO,
    adjoint,
    apply_symbol,
    bilinear_rhs,
    symbol,
)
from .parser import (
    OperatorSyntaxError,
    format_operator,
    parse_matrix_operator,
    parse_operator,
    parse_scalar_operator,
)
from .ring import GaussianRational, Poly
from .spectral import (
    ConstraintVariety,
    GlobalRelation,
    IntegralRepresentation,
    SpinorTriple,
    SubstitutedForm,
    adjoint_constraint,
    check_parameterization,
    global_relation,
    integral_representation,
    reduce_mod_quadric,
    spectral_exterior_derivative,
    spinor_isotropic,
    substitute_exponential,
)
from .verify import QuadratureSpec, ResidualReport, boundary_residual

__version__ = "0.1.0"
