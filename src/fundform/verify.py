"""Numeric confirmation of boundary relations by tensor Gauss-Legendre
quadrature.

Given a substituted form at a concrete spectral point and a manufactured
solution of the operator equation, the oriented face integrals of the
form over a box must cancel.  The reported figure of merit is the total
residual against the largest single face integral, which measures exactly
the cancellation the relation asserts.

On the faces normal to axis k the integrand sum coeff * trace * exp(E . x)
is merged into one exponential-polynomial sum c x^a exp(lam . x), the
spectral slopes E folded into every lam.  Each term is a product of
one-axis factors, so its tensor Gauss-Legendre sum over a face is
c v^(a_k) exp(lam_k v) prod_(j != k) S_j(a_j, lam_j) with the one-axis sums
S_j(p, mu) = sum_i w_i x_i^p exp(mu x_i): the same tensor rule in O(d n)
work per term instead of O(n^(d-1)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .catalog import builtin_solutions
from .decompose import decompose
from .forms import assemble
from .manufactured import ManufacturedSolution
from .operators import Operator, adjoint, apply_symbol_rows, grid
from .parser import MAX_NODES
from .ring import P_ONE, QI_I, Poly
from .spectral import SubstitutedForm, substitute_exponential

DEFAULT_RELATIVE_TOL = 1e-8


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Legendre nodes per axis for the face integrals."""

    nodes: int = 20

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("quadrature needs at least one node per axis")
        if self.nodes > MAX_NODES:
            raise ValueError(
                f"quadrature takes at most {MAX_NODES} nodes per axis"
            )


@dataclass(frozen=True)
class ResidualReport:
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


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    points, weights = np.polynomial.legendre.leggauss(nodes)
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


def _face_grid(box: Sequence, axis: int, end: str, spec: QuadratureSpec,
               axes: Sequence[str]) -> tuple:
    """One face's fixed coordinate, then the Gauss-Legendre nodes and
    weights of its free axes scaled to the box: arrays of shape
    (free axes, nodes), row r for the r-th free axis in axis order."""
    points, weights = _gauss_legendre(spec.nodes)
    free = []
    for j, (lo, hi) in enumerate(box):
        if j == axis:
            continue
        if hi == lo:
            raise ValueError(f"box is degenerate along axis {axes[j]}")
        free.append((0.5 * (hi - lo) * points + 0.5 * (hi + lo),
                     0.5 * (hi - lo) * weights))
    shape = (len(free), spec.nodes)
    nodes = np.array([pts for pts, _ in free]).reshape(shape)
    scaled = np.array([wts for _, wts in free]).reshape(shape)
    lo, hi = box[axis]
    return (hi if end == "hi" else lo), nodes, scaled


def _axis_sum(nodes: Sequence[float], weights: Sequence[float], power: int,
              slope: complex) -> complex:
    """sum_i w_i x_i^power exp(slope x_i): one axis's factor of a tensor
    Gauss-Legendre sum."""
    if slope:
        return sum(w * x ** power * cmath.exp(slope * x)
                   for x, w in zip(nodes, weights))
    return complex(sum(w * x ** power for x, w in zip(nodes, weights)))


@np.errstate(all="ignore")
def boundary_residual(sf: SubstitutedForm, solution: ManufacturedSolution,
                      box: Sequence, spec: QuadratureSpec = QuadratureSpec(),
                      assignment: Mapping | None = None) -> ResidualReport:
    """Sum of oriented face integrals of the substituted form over the box.

    `assignment` gives complex values for every spectral name and operator
    parameter appearing in the form.  The faces normal to one axis share
    one integrand, the solution's traces merged with the weight
    exp(sum_j E_j x^j) folded into their slopes; its tensor Gauss-Legendre
    sum on each face is a product of one-axis sums, cached per (axis,
    power, slope) for the call.  Integrals that leave the float range
    raise ValueError.
    """
    if solution.axes != sf.axes:
        raise ValueError("solution and form use different axes")
    if len(box) != sf.dimension:
        raise ValueError("box must give one interval per axis")
    assignment = dict(assignment or {})
    rules: dict = {}
    sums: dict = {}

    def axis_sum(j: int, power: int, slope: complex) -> complex:
        key = (j, power, slope)
        if key not in sums:
            sums[key] = _axis_sum(*rules[j], power, slope)
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
            for end, orientation in (("hi", 1), ("lo", -1)):
                fixed, nodes, weights = _face_grid(box, axis, end, spec, sf.axes)
                for r, j in enumerate(free):
                    if j not in rules:
                        rules[j] = (nodes[r].tolist(), weights[r].tolist())
                total = 0j
                for a, lam, c in integrand:
                    part = c * fixed ** a[axis] * cmath.exp(lam[axis] * fixed)
                    for j in free:
                        part *= axis_sum(j, a[j], lam[j])
                    total += part
                integrals.append(((sf.axes[axis], end), orientation * total))
        residual = sum(value for _, value in integrals)
    except OverflowError:
        residual = math.inf
    if not cmath.isfinite(residual):
        raise ValueError("face integrals overflow the float range on the box")
    scale = max((abs(value) for _, value in integrals), default=0.0)
    return ResidualReport(residual, scale, tuple(integrals))


@np.errstate(all="ignore")
def interior_residual(op: Operator, solution: ManufacturedSolution,
                      box: Sequence, points: int = 50, seed: int = 0,
                      params: Mapping | None = None) -> float:
    """Max |(op solution)_i| over seeded random interior points; the
    manufactured-solution pre-check.  Each row of op applied to the
    solution is merged in closed form, then evaluated.  Values that leave
    the float range raise ValueError."""
    rng = np.random.default_rng(seed)
    params = dict(params or {})
    samples = {
        axis: lo + (hi - lo) * rng.random(points)
        for axis, (lo, hi) in zip(solution.axes, box)
    }
    worst = 0.0
    for row in grid(op):
        try:
            entries = [(coeff.evaluate(params), j, alpha)
                       for j, entry in enumerate(row) for alpha, coeff in entry.terms]
            total = solution.derivative_sum(entries).evaluate(samples)
        except OverflowError:
            total = math.inf
        if not np.all(np.isfinite(total)):
            raise ValueError(
                "solution overflows the float range at interior points"
            )
        worst = max(worst, float(np.max(np.abs(total))))
    return worst


# ---------------------------------------------------------------------------
# Catalog plumbing

CONSTRAINT_TOL = 1e-12


def _spectral_slots(sigma: Sequence[complex],
                    amplitudes: Sequence[complex] | None,
                    params: Mapping | None) -> tuple:
    """Named Poly slots sg<j> and am<j> for numeric spectral data, plus the
    assignment binding them and the operator parameters."""
    names = [f"sg{j}" for j in range(len(sigma))]
    assignment = dict(zip(names, sigma))
    assignment.update(params or {})
    amplitude_slots = None
    if amplitudes is not None:
        anames = [f"am{j}" for j in range(len(amplitudes))]
        amplitude_slots = [Poly.var(a) for a in anames]
        assignment.update(zip(anames, amplitudes))
    return [Poly.var(n) for n in names], amplitude_slots, assignment


def adjoint_point_residual(op: Operator, sigma: Sequence[complex], sign: int,
                           amplitudes: Sequence[complex] | None,
                           params: Mapping | None = None) -> float:
    """|rows of the adjoint symbol applied to the exponential data|; must be
    ~0 for the spectral point to sit on the constraint variety."""
    sigma_slots, amplitude_slots, assignment = _spectral_slots(
        sigma, amplitudes, params
    )
    adj = adjoint(op)
    if amplitude_slots is None:
        amplitude_slots = [P_ONE] * len(grid(adj))
    unit = Poly.const(QI_I * sign)
    rows = apply_symbol_rows(adj, [unit * s for s in sigma_slots],
                             amplitude_slots)
    return max(abs(row.evaluate(assignment)) for row in rows)


def case_substituted_form(case, dec=None) -> tuple:
    """Substituted form of a catalog case at named spectral slots, plus the
    numeric assignment binding them (spectral data and parameters)."""
    if dec is None:
        dec = decompose(case.operator)
    sigma_slots, amplitude_slots, assignment = _spectral_slots(
        case.sigma, case.amplitudes, case.params
    )
    sf = substitute_exponential(assemble(dec), sigma_slots, case.sign,
                                amplitude_slots)
    return sf, assignment


def run_catalog_case(tag: str, nodes: int = 20, seed: int = 0,
                     solution: ManufacturedSolution | None = None,
                     tol: float = DEFAULT_RELATIVE_TOL) -> dict:
    """Full pipeline for one catalog tag: pre-check the solution and the
    spectral point, then integrate the substituted form over the box.  A
    tolerance that is not a finite positive number raises ValueError."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a finite positive number, not {tol}")
    case = builtin_solutions(tag)[0]
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
        "tag": tag,
        "nodes": nodes,
        "pde_residual": pde_residual,
        "constraint_residual": constraint_residual,
        "residual": report.residual,
        "scale": report.scale,
        "relative": report.relative,
        "passed": report.passes(tol) and pde_residual <= 1e-10,
    }
