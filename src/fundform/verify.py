"""Numeric confirmation of boundary relations by tensor Gauss-Legendre
quadrature.

Given a substituted form at a concrete spectral point and a manufactured
solution of the operator equation, the oriented face integrals of the
form over a box must cancel.  The reported figure of merit is the total
residual against the largest single face integral, which measures exactly
the cancellation the relation asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .catalog import builtin_solutions
from .decompose import decompose
from .forms import assemble
from .manufactured import ManufacturedSolution
from .operators import Operator, adjoint, apply_symbol_rows, grid
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


def _face_grid(box: Sequence, axis: int, end: str, spec: QuadratureSpec,
               axes: Sequence[str]) -> tuple:
    """Coordinate arrays and total weight array on one face."""
    nodes, weights = np.polynomial.legendre.leggauss(spec.nodes)
    coords = {}
    running = []
    for j, (lo, hi) in enumerate(box):
        if j == axis:
            continue
        if hi == lo:
            raise ValueError(f"box is degenerate along axis {axes[j]}")
        pts = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        wts = 0.5 * (hi - lo) * weights
        running.append((j, pts, wts))
    shape = [spec.nodes] * len(running)
    weight = np.ones(shape) if running else np.ones(())
    for pos, (j, pts, wts) in enumerate(running):
        reshape = [1] * len(running)
        reshape[pos] = spec.nodes
        coords[axes[j]] = pts.reshape(reshape) * np.ones(shape)
        weight = weight * wts.reshape(reshape)
    lo, hi = box[axis]
    coords[axes[axis]] = np.full(shape, hi if end == "hi" else lo, dtype=float)
    return coords, weight


@np.errstate(all="ignore")
def boundary_residual(sf: SubstitutedForm, solution: ManufacturedSolution,
                      box: Sequence, spec: QuadratureSpec = QuadratureSpec(),
                      assignment: Mapping | None = None) -> ResidualReport:
    """Sum of oriented face integrals of the substituted form over the box.

    `assignment` gives complex values for every spectral name and operator
    parameter appearing in the form.  Traces of the solution are computed
    symbolically and evaluated on the quadrature grid; the weight
    exp(sum_j E_j x^j) is evaluated in closed form.  Integrals that leave
    the float range raise ValueError.
    """
    if solution.axes != sf.axes:
        raise ValueError("solution and form use different axes")
    if len(box) != sf.dimension:
        raise ValueError("box must give one interval per axis")
    assignment = dict(assignment or {})
    slopes, fluxes = _numeric_fluxes(sf, assignment)
    integrals = []
    for axis in range(sf.dimension):
        for end, orientation in (("hi", 1), ("lo", -1)):
            if not fluxes[axis]:
                integrals.append(((sf.axes[axis], end), 0j))
                continue
            coords, weight = _face_grid(box, axis, end, spec, sf.axes)
            exponent = sum(
                slopes[j] * coords[sf.axes[j]] for j in range(sf.dimension)
            )
            kernel = np.exp(exponent) * weight
            total = 0j
            for coeff, field, deriv in fluxes[axis]:
                trace = solution.trace(field, deriv).evaluate(coords)
                total += coeff * complex(np.sum(np.asarray(trace * kernel)))
            integrals.append(((sf.axes[axis], end), orientation * total))
    residual = sum(value for _, value in integrals)
    if not np.isfinite(residual):
        raise ValueError("face integrals overflow the float range on the box")
    scale = max((abs(value) for _, value in integrals), default=0.0)
    return ResidualReport(residual, scale, tuple(integrals))


@np.errstate(all="ignore")
def interior_residual(op: Operator, solution: ManufacturedSolution,
                      box: Sequence, points: int = 50, seed: int = 0,
                      params: Mapping | None = None) -> float:
    """Max |(op solution)_i| over seeded random interior points; the
    manufactured-solution pre-check.  Values that leave the float range
    raise ValueError."""
    rng = np.random.default_rng(seed)
    params = dict(params or {})
    samples = {
        axis: lo + (hi - lo) * rng.random(points)
        for axis, (lo, hi) in zip(solution.axes, box)
    }
    worst = 0.0
    for row in grid(op):
        total = np.zeros(points, dtype=complex)
        for j, entry in enumerate(row):
            for alpha, coeff in entry.terms:
                trace = solution.trace(j, alpha).evaluate(samples)
                total = total + coeff.evaluate(params) * np.asarray(
                    trace, dtype=complex
                )
        if not np.all(np.isfinite(total)):
            raise ValueError(
                "solution overflows the float range at interior points"
            )
        worst = max(worst, float(np.max(np.abs(total))))
    return worst


def convergence_residuals(sf: SubstitutedForm, solution: ManufacturedSolution,
                          box: Sequence, node_counts: Sequence[int],
                          assignment: Mapping | None = None) -> list:
    return [
        boundary_residual(sf, solution, box, QuadratureSpec(n), assignment)
        for n in node_counts
    ]


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
    spectral point, then integrate the substituted form over the box."""
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
