"""Numeric confirmation of boundary relations by tensor Gauss-Legendre
quadrature.

Given a substituted form at a concrete spectral point and a manufactured
solution of the operator equation, the oriented face integrals of the
form over a box must cancel.  The reported figure of merit is the total
residual against the largest single face integral, which measures exactly
the cancellation the relation asserts.

On the faces normal to axis k the integrand sum coeff * trace * exp(E . x)
is formed as one exponential-polynomial sum c x^a exp(lam . x) by the
shift rule of ``manufactured``, the spectral slopes E folded into every
lam.  Each term is a product of one-axis factors, so its tensor
Gauss-Legendre sum over a face is
c v^(a_k) exp(lam_k v) prod_(j != k) S_j(a_j, lam_j) with the one-axis sums
S_j(p, mu) = sum_i w_i x_i^p exp(mu x_i): the same tensor rule in O(d n)
work per term instead of O(n^(d-1)).  Each S_j is computed once per
(axis, power, slope) in a call, and the exp(mu x_i) at one axis's nodes
once per (axis, slope), whatever the powers that use them.  The two
faces normal to axis k share their free axes, so they take one face grid
and each term's free-axis sums once, multiplied into both faces' parts.

The interior pre-check merges each row of the operator applied to the
solution in closed form; a row that merges to no terms is 0 everywhere
and is not evaluated.  Like the face integrals, it refuses a solution
on other axes than the operator's and a box without one interval per
axis.  The spectral point's pre-check reads the rows of
``operators.adjoint_rows`` at the parameter values.

Everything here is plain Python floats and complex numbers: the one-axis
rule is solved by Newton's method on the Legendre recurrence, and the
interior pre-check evaluates at points drawn from random.Random(seed).
"""

from __future__ import annotations

import cmath
import math
import random
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from .catalog import catalog_case
from .decompose import decompose
from .forms import assemble
from .manufactured import ManufacturedSolution
from .operators import Operator, adjoint_rows, grid
from .parser import MAX_NODES
from .ring import PolyLike
from .spectral import SubstitutedForm, substitute_exponential

DEFAULT_RELATIVE_TOL = 1e-8
# Gauss-Legendre nodes per axis unless a call gives its own.
DEFAULT_NODES = 20
# Interior points at which ``interior_residual`` evaluates the solution.
INTERIOR_POINTS = 50


class _QuadratureSpecFields(NamedTuple):
    nodes: int


class QuadratureSpec(_QuadratureSpecFields):
    """Gauss-Legendre nodes per axis for the face integrals."""

    __slots__ = ()

    def __new__(cls, nodes: int = DEFAULT_NODES) -> "QuadratureSpec":
        if nodes < 1:
            raise ValueError("quadrature needs at least one node per axis")
        if nodes > MAX_NODES:
            raise ValueError(
                f"quadrature takes at most {MAX_NODES} nodes per axis"
            )
        return tuple.__new__(cls, (nodes,))

    @classmethod
    def _make(cls, iterable) -> "QuadratureSpec":
        """Build through the checked constructor; ``_replace`` calls this."""
        return cls(*iterable)


class ResidualReport(NamedTuple):
    residual: complex
    scale: float
    face_integrals: tuple

    @property
    def relative(self) -> float:
        return abs(self.residual) / max(self.scale, 1.0)

    def passes(self, tol: float = DEFAULT_RELATIVE_TOL) -> bool:
        return self.relative <= tol


def _numeric_fluxes(sf: SubstitutedForm, assignment: Mapping) -> tuple:
    """Evaluate flux coefficients and exponent slopes at a numeric point."""
    slopes = tuple(s.evaluate(assignment) for s in sf.exponent_slopes())
    fluxes = tuple(
        tuple((coeff.evaluate(assignment), field, deriv) for coeff, field, deriv in flux)
        for flux in sf.fluxes
    )
    return slopes, fluxes


# Newton steps from Tricomi's second-order estimates that reach rounding
# level for every node count up to MAX_NODES.
NEWTON_STEPS = 3


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple:
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1]: two tuples
    of floats (Golub & Welsch 1969 give reference values).

    Each root of P_n is found by Newton's method on the Legendre recurrence,
    started from Tricomi's second-order estimate
    (1 - (n - 1) / (8 n^3)) cos(pi (i + 3/4) / (n + 1/2)).  Only
    the positive roots are solved; the negative ones are their mirror
    images, so the rule is exactly symmetric.  A weight is
    2 (1 - x^2) / (n (P_(n-1)(x) - x P_n(x)))^2.  n (P_(n-1) - x P_n) is
    (1 - x^2) P_n', which is stationary at a root, so this form does not
    amplify the rounding of a node near +-1 as 2 (1 - x^2) / (n P_(n-1))^2,
    equal at an exact root, does."""
    # (k + 1) P_(k+1) = (2k + 1) x P_k - k P_(k-1), its ratios computed once
    recurrence = [((2 * k + 1) / (k + 1), k / (k + 1)) for k in range(1, nodes)]

    def legendre(x: float) -> tuple:
        """P_n(x) and P_(n-1)(x)."""
        low, high = 1.0, x
        for a, b in recurrence:
            low, high = high, a * x * high - b * low
        return high, low

    points = [0.0] * nodes
    weights = [0.0] * nodes
    shrink = 1 - (nodes - 1) / (8 * nodes ** 3)
    for i in range((nodes + 1) // 2):
        if 2 * i + 1 == nodes:
            x = 0.0
        else:
            x = shrink * math.cos(math.pi * (i + 0.75) / (nodes + 0.5))
            for _ in range(NEWTON_STEPS):
                p, q = legendre(x)
                x -= p * (x * x - 1) / (nodes * (x * p - q))
        p, q = legendre(x)
        points[i], points[-1 - i] = -x, x
        weights[i] = weights[-1 - i] = (
            2 * (1 - x) * (1 + x) / (nodes * (q - x * p)) ** 2
        )
    return tuple(points), tuple(weights)


class _Rows(tuple):
    """Rows of floats; `size` counts their entries."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return sum(map(len, self))


def _face_grid(box: Sequence, axis: int, end: str, spec: QuadratureSpec,
               axes: Sequence[str]) -> tuple:
    """One face's fixed coordinate, then the Gauss-Legendre nodes and
    weights of its free axes scaled to the box: one row of floats per free
    axis, in axis order.  ``boundary_residual`` asks once per axis, for the
    hi face; the lo face shares its rows.

    This exists only for the benchmark harness: `perfbench/tracer.py`
    wraps it by name and counts `result[1].size` quadrature points.  The
    harness change of ROADMAP item 1 deletes it."""
    points, weights = _gauss_legendre(spec.nodes)
    nodes, scaled = [], []
    for j, (lo, hi) in enumerate(box):
        if j == axis:
            continue
        if hi == lo:
            raise ValueError(f"box is degenerate along axis {axes[j]}")
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        nodes.append(tuple(half * x + mid for x in points))
        scaled.append(tuple(half * w for w in weights))
    lo, hi = box[axis]
    return (hi if end == "hi" else lo), _Rows(nodes), _Rows(scaled)


def _axis_exponentials(nodes: Sequence[float], slope: complex) -> list:
    """exp(slope x_i) at each node of one axis."""
    return [cmath.exp(slope * x) for x in nodes]


def _axis_sum(nodes: Sequence[float], weights: Sequence[float], power: int,
              exponentials: Sequence[complex] | None) -> complex:
    """sum_i w_i x_i^power exp(slope x_i): one axis's factor of a tensor
    Gauss-Legendre sum.  `exponentials` holds the exp(slope x_i) as
    ``_axis_exponentials`` tabulates them, and is None for a zero slope."""
    if exponentials is not None:
        return sum(w * x ** power * e for x, w, e in zip(nodes, weights, exponentials))
    return complex(sum(w * x ** power for x, w in zip(nodes, weights)))


def boundary_residual(sf: SubstitutedForm, solution: ManufacturedSolution,
                      box: Sequence, spec: QuadratureSpec = QuadratureSpec(),
                      assignment: Mapping | None = None) -> ResidualReport:
    """Sum of oriented face integrals of the substituted form over the box.

    `assignment` gives complex values for every spectral name and operator
    parameter appearing in the form.  The faces normal to one axis share
    one integrand, the solution's derivative sum (formed in closed form
    and merged once) with the weight exp(sum_j E_j x^j) folded into its
    slopes; its tensor Gauss-Legendre sum on each face is a product of
    one-axis sums, cached per (axis, power, slope) for the call.  The
    exp(slope x_i) at one axis's nodes are tabulated once per (axis,
    slope) and serve every power.  The hi and lo faces of an axis take
    one face grid, the lo face's fixed coordinate being box[axis][0], and
    each term's free-axis sums are fetched once for both, multiplied in
    the order a face on its own would use.  Integrals that leave the
    float range raise ValueError.
    """
    if solution.axes != sf.axes:
        raise ValueError("solution and form use different axes")
    if len(box) != sf.dimension:
        raise ValueError("box must give one interval per axis")
    assignment = dict(assignment or {})
    rules: dict = {}
    exponentials: dict = {}
    sums: dict = {}

    def axis_sum(j: int, power: int, slope: complex) -> complex:
        key = (j, power, slope)
        if key not in sums:
            nodes, weights = rules[j]
            table = None
            if slope:
                table = exponentials.get((j, slope))
                if table is None:
                    table = exponentials[j, slope] = _axis_exponentials(nodes, slope)
            sums[key] = _axis_sum(nodes, weights, power, table)
        return sums[key]

    integrals = []
    try:
        slopes, fluxes = _numeric_fluxes(sf, assignment)
        for axis in range(sf.dimension):
            if not fluxes[axis]:
                integrals += [((sf.axes[axis], end), 0j) for end in ("hi", "lo")]
                continue
            free = [j for j in range(sf.dimension) if j != axis]
            integrand = solution.derivative_sum(fluxes[axis], slopes).terms
            # the hi and lo faces share their free-axis rows and sums
            hi, nodes, weights = _face_grid(box, axis, "hi", spec, sf.axes)
            lo = box[axis][0]
            for r, j in enumerate(free):
                if j not in rules:
                    rules[j] = (nodes[r], weights[r])
            hi_total = lo_total = 0j
            for a, lam, c in integrand:
                hi_part = c * hi ** a[axis] * cmath.exp(lam[axis] * hi)
                lo_part = c * lo ** a[axis] * cmath.exp(lam[axis] * lo)
                for j in free:
                    factor = axis_sum(j, a[j], lam[j])
                    hi_part *= factor
                    lo_part *= factor
                hi_total += hi_part
                lo_total += lo_part
            for end, orientation, total in (("hi", 1, hi_total), ("lo", -1, lo_total)):
                integrals.append(((sf.axes[axis], end), orientation * total))
        residual = sum(value for _, value in integrals)
    except OverflowError:
        residual = math.inf
    if not cmath.isfinite(residual):
        raise ValueError("face integrals overflow the float range on the box")
    scale = max((abs(value) for _, value in integrals), default=0.0)
    return ResidualReport(residual, scale, tuple(integrals))


def interior_residual(op: Operator, solution: ManufacturedSolution,
                      box: Sequence, seed: int = 0,
                      params: Mapping | None = None) -> float:
    """Max |(op solution)_i| over INTERIOR_POINTS interior points drawn from
    random.Random(seed); the manufactured-solution pre-check.  Each row of
    op applied to the solution is merged in closed form, then evaluated
    point by point, unless it merged to no terms: the empty sum is 0 at
    every point.  A solution on other axes (or in another order) than the
    operator's, a box without one interval per axis, and values that leave
    the float range raise ValueError."""
    if solution.axes != op.axes:
        raise ValueError("solution and operator use different axes")
    if len(box) != op.dimension:
        raise ValueError("box must give one interval per axis")
    rng = random.Random(seed)
    params = dict(params or {})
    columns = [[lo + (hi - lo) * rng.random() for _ in range(INTERIOR_POINTS)]
               for _, (lo, hi) in zip(solution.axes, box)]
    samples = [dict(zip(solution.axes, point)) for point in zip(*columns)]
    worst = 0.0
    for row in grid(op):
        try:
            entries = [(coeff.evaluate(params), j, alpha)
                       for j, entry in enumerate(row) for alpha, coeff in entry.terms]
            merged = solution.derivative_sum(entries)
            if not merged.terms:
                continue  # the empty sum is 0 at every point
            values = [abs(merged.evaluate(point)) for point in samples]
        except OverflowError:
            values = [math.inf]
        if not all(math.isfinite(value) for value in values):
            raise ValueError(
                "solution overflows the float range at interior points"
            )
        worst = max([worst, *values])
    return worst


# ---------------------------------------------------------------------------
# Catalog plumbing

CONSTRAINT_TOL = 1e-12
# Largest interior residual of a solution that passes ``run_catalog_case``.
PDE_TOL = 1e-10


def adjoint_point_residual(op: Operator, sigma: Sequence[PolyLike], sign: int,
                           amplitudes: Sequence[PolyLike] | None,
                           params: Mapping | None = None) -> float:
    """|rows of the adjoint symbol applied to the exact exponential data|,
    evaluated at the parameter values; 0 when the spectral point sits on the
    constraint variety.  Values that leave the float range raise ValueError."""
    rows = adjoint_rows(op, sigma, sign, amplitudes)
    try:
        return max(abs(row.evaluate(params or {})) for row in rows)
    except OverflowError:
        raise ValueError(
            "adjoint symbol overflows the float range at the spectral point"
        ) from None


def case_substituted_form(case) -> tuple:
    """Substituted form of a catalog case at its exact spectral point, plus
    the numeric assignment of the operator parameters."""
    sf = substitute_exponential(assemble(decompose(case.operator)),
                                case.sigma, case.sign, case.amplitudes)
    return sf, dict(case.params)


def run_catalog_case(tag: str, nodes: int = DEFAULT_NODES, seed: int = 0,
                     solution: ManufacturedSolution | None = None,
                     tol: float = DEFAULT_RELATIVE_TOL) -> dict:
    """Full pipeline for one catalog tag: pre-check the solution and the
    spectral point, then integrate the substituted form over the box.
    Returns the document `fundform verify` prints, the complex residual as
    [re, im].  A tolerance that is not a finite positive number raises
    ValueError."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a finite positive number, not {tol}")
    case = catalog_case(tag)
    used_solution = solution if solution is not None else case.solution
    pde_residual = interior_residual(case.operator, used_solution, case.box,
                                     seed=seed, params=case.params)
    constraint_residual = adjoint_point_residual(
        case.operator, case.sigma, case.sign, case.amplitudes, case.params
    )
    if constraint_residual > CONSTRAINT_TOL:
        raise ValueError(
            f"spectral point misses the constraint variety by {constraint_residual:.2e}"
        )
    sf, assignment = case_substituted_form(case)
    report = boundary_residual(sf, used_solution, case.box,
                               QuadratureSpec(nodes), assignment)
    return {
        "case": tag,
        "nodes": nodes,
        "pde_residual": pde_residual,
        "constraint_residual": constraint_residual,
        "residual": [report.residual.real, report.residual.imag],
        "scale": report.scale,
        "relative": report.relative,
        "passed": report.passes(tol) and pde_residual <= PDE_TOL,
    }
