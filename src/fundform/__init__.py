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
    divergence,
    partial,
    term,
)
from .decompose import (
    DecompositionPlan,
    DivergenceDecomposition,
    EnumerationLimit,
    PlanError,
    TermPlan,
    count_forms,
    decompose,
    default_plan,
    enumerate_plans,
    sigma_count,
)
from .forms import assemble, exterior_derivative
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
    global_relation,
    integral_representation,
    spinor_isotropic,
    substitute_exponential,
)
from .verify import QuadratureSpec, ResidualReport, boundary_residual

__version__ = "0.1.0"
