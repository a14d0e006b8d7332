"""Built-in operators and verified trial solutions used by the CLI and
the test rig.

Spectral points are exact Gaussian integers on the relevant constraint
variety, so the numeric harness only sees floating error from quadrature,
never from the data.  The Stokes adjoint rows, one
``operators.adjoint_rows`` call at the spinor test function, live here,
next to the operator they check.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

from .manufactured import ManufacturedSolution
from .operators import MatrixPDO, Operator, ScalarPDO, adjoint_rows
from .parser import parse_matrix_operator, parse_scalar_operator
from .ring import Poly, PolyLike, QI_I
from .spectral import SpinorTriple, spinor_isotropic

WAVE_TEXT = "axes x,t; Dt^2 - Dx^2"
HEAT_TEXT = "axes x,t; Dt - Dx^2"
BIHARMONIC_TEXT = (
    "axes x,y,z; Dx^4 + Dy^4 + Dz^4 + 2*Dx^2*Dy^2 + 2*Dy^2*Dz^2 + 2*Dz^2*Dx^2"
)

STOKES_JSON = {
    "axes": ["x", "y", "z", "t"],
    "params": ["nu"],
    "fields": ["u1", "u2", "u3", "p"],
    "entries": [
        ["Dt - nu*(Dx^2+Dy^2+Dz^2)", "0", "0", "Dx"],
        ["0", "Dt - nu*(Dx^2+Dy^2+Dz^2)", "0", "Dy"],
        ["0", "0", "Dt - nu*(Dx^2+Dy^2+Dz^2)", "Dz"],
        ["Dx", "Dy", "Dz", "0"],
    ],
}


def wave_operator() -> ScalarPDO:
    return parse_scalar_operator(WAVE_TEXT)


def heat_operator() -> ScalarPDO:
    return parse_scalar_operator(HEAT_TEXT)


def biharmonic_operator() -> ScalarPDO:
    return parse_scalar_operator(BIHARMONIC_TEXT)


def stokes_operator() -> MatrixPDO:
    """Unsteady incompressible system on (x, y, z, t): three momentum rows
    with symbolic viscosity nu and one divergence row."""
    return parse_matrix_operator(STOKES_JSON)


def _stokes_test_function(triple: SpinorTriple, xi3: PolyLike) -> tuple:
    """(sigma, sign, amplitudes) of the test function
    (k, xi3) exp(-i k.x + i xi3 t): sigma = (k, -xi3) with sign -1."""
    return (*triple.k, -xi3), -1, (*triple.k, xi3)


def stokes_adjoint_residual(op: MatrixPDO, triple: SpinorTriple,
                            xi3: PolyLike | None = None) -> tuple:
    """Rows of L^+ applied to (k, xi3) exp(-i k.x + i xi3 t), for `op` the
    ``stokes_operator()`` that the caller holds; all rows are identically
    zero because k.k = 0 holds as a polynomial identity."""
    xi3 = Poly.var("xi3") if xi3 is None else Poly.coerce(xi3)
    return adjoint_rows(op, *_stokes_test_function(triple, xi3))


class CatalogCase(NamedTuple):
    """One ready-to-run verification case: operator, exact-on-variety
    spectral data, a trial solution, and parameter values."""

    tag: str
    operator: Operator
    solution: ManufacturedSolution
    sigma: tuple  # per-axis spectral values (exact)
    sign: int
    amplitudes: tuple | None  # per-field test-slot amplitudes (exact)
    params: Mapping
    box: tuple


def catalog_case(tag: str) -> CatalogCase:
    """The verified trial solution, with its spectral data, of a catalog
    tag; an unknown tag raises KeyError."""
    unit = (0.0, 1.0)
    if tag == "wave":
        solution = ManufacturedSolution.scalar(
            ("x", "t"), "(x-t)^3 + (x+t)^2"
        )
        return CatalogCase("wave", wave_operator(), solution,
                           (1, -1), 1, None, {}, (unit, unit))
    if tag == "heat":
        solution = ManufacturedSolution.scalar(("x", "t"), "exp(x+t)")
        return CatalogCase("heat", heat_operator(), solution,
                           (1, -QI_I), 1, None, {}, (unit, unit))
    if tag == "biharmonic":
        solution = ManufacturedSolution.scalar(
            ("x", "y", "z"), "x^3 - 3*x*y^2 + z"
        )
        return CatalogCase("biharmonic", biharmonic_operator(), solution,
                           (3, 4, 5 * QI_I), 1, None, {},
                           (unit, unit, unit))
    if tag == "stokes":
        solution = ManufacturedSolution.system(
            ("x", "y", "z", "t"),
            ["exp(-1*t)*sin(y)", "0", "0", "0"],
        )
        sigma, sign, amplitudes = _stokes_test_function(spinor_isotropic(1, 2), 1)
        return CatalogCase("stokes", stokes_operator(), solution,
                           sigma, sign, amplitudes, {"nu": 1.0},
                           (unit, unit, unit, unit))
    raise KeyError(f"unknown catalog tag {tag!r}; "
                   "have wave, heat, biharmonic, stokes")


CATALOG_TAGS = ("wave", "heat", "biharmonic", "stokes")
