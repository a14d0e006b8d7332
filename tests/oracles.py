"""Reference helpers that only the tests call.

Each one is an independent route to a result the engine computes another
way, or a convenience the engine itself never needs: building pairings
term by term, evaluating or substituting a polynomial exactly, checking a
rational parameterization at exact samples, the exterior derivative of a
substituted form, reduction modulo a quadric, form equivalence, operator
printing, one derivative of an exponential polynomial, and the twelve-plan
triple-product operator.  None of them is part of ``fundform``.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import Mapping

from fundform.algebra import BilinearExpr, divergence, term
from fundform.decompose import DivergenceDecomposition
from fundform.manufactured import ExpPoly, _merge
from fundform.operators import MatrixPDO, Operator, ScalarPDO, parameters
from fundform.parser import parse_scalar_operator
from fundform.ring import (QI_ZERO, GaussianRational, Poly, PolyLike, signed_sum,
                           times_text)
from fundform.spectral import ConstraintVariety, SubstitutedForm, _merge_spectral_terms

TRIPLE_PRODUCT_TEXT = "axes x,y,z; Dx^2*Dy^2*Dz^2 + Dx^2*Dy^2 + Dz^2"


def triple_product_operator() -> ScalarPDO:
    """Sixth-order three-axis operator whose constraint variety has a
    rational parameterization; the standard twelve-plan example."""
    return parse_scalar_operator(TRIPLE_PRODUCT_TEXT)


# ---------------------------------------------------------------------------
# Pairings, built term by term


def _pair(alpha, beta, left_field, right_field, coeff, mirror) -> BilinearExpr:
    """coeff d^alpha q d^beta qt + mirror d^beta q d^alpha qt."""
    return BilinearExpr([term(coeff, alpha, beta, left_field, right_field),
                         term(mirror, beta, alpha, left_field, right_field)])


def bracket(alpha, beta, left_field: int = 0, right_field: int = 0,
            coeff: PolyLike = 1) -> BilinearExpr:
    """Antisymmetric pairing: d^beta qt d^alpha q - d^beta q d^alpha qt."""
    c = Poly.coerce(coeff)
    return _pair(alpha, beta, left_field, right_field, c, -c)


def brace(alpha, beta, left_field: int = 0, right_field: int = 0,
          coeff: PolyLike = 1) -> BilinearExpr:
    """Symmetric pairing: d^beta qt d^alpha q + d^beta q d^alpha qt."""
    c = Poly.coerce(coeff)
    return _pair(alpha, beta, left_field, right_field, c, c)


# ---------------------------------------------------------------------------
# Exact polynomial evaluation


def substitute(poly: Poly, assignment: Mapping) -> Poly:
    """Replace each named generator by a Poly (or exact scalar)."""
    result = Poly()
    for mono, coeff in poly.terms:
        factor = Poly.const(coeff)
        for name, exp in mono:
            if name in assignment:
                factor = factor * Poly.coerce(assignment[name]) ** exp
            else:
                factor = factor * Poly.var(name, exp)
        result = result + factor
    return result


def evaluate_exact(poly: Poly, assignment: Mapping) -> GaussianRational:
    total = QI_ZERO
    for mono, coeff in poly.terms:
        value = coeff
        for name, exp in mono:
            value = value * GaussianRational.coerce(assignment[name]) ** exp
        total = total + value
    return total


# ---------------------------------------------------------------------------
# Spectral oracles


def spectral_exterior_derivative(sf: SubstitutedForm) -> tuple:
    """Volume coefficient of d(substituted form), divided by the weight:
    each flux differentiates both the trace and the exponential."""
    slopes = sf.exponent_slopes()
    terms = []
    for j, flux in enumerate(sf.fluxes):
        for coeff, field, deriv in flux:
            terms.append(((field, deriv), coeff * slopes[j]))
            terms.append(((field, deriv.incr(j)), coeff))
    return _merge_spectral_terms(terms)


def reduce_mod_quadric(poly: Poly, name: str, replacement: PolyLike) -> Poly:
    """Rewrite modulo  name^2 = replacement  until degree in `name` is <= 1."""
    replacement = Poly.coerce(replacement)
    if name in replacement.variables():
        raise ValueError(
            f"replacement for {name}^2 must not itself contain {name}"
        )
    out = Poly()
    for exp, part in poly.coeffs_by_power(name).items():
        factor = replacement ** (exp // 2) * Poly.var(name) ** (exp % 2)
        out = out + part * factor
    return out


def _as_rational_function(value) -> tuple:
    if isinstance(value, tuple):
        num, den = value
        return Poly.coerce(num), Poly.coerce(den)
    return Poly.coerce(value), Poly.const(1)


def check_parameterization(constraint: ConstraintVariety | Poly,
                           substitution: Mapping,
                           var: str = "lam",
                           samples: int = 20) -> tuple:
    """Evaluate the cleared constraint at exact rational samples of the
    parameter, with substituted variables given as rational functions
    (num, den) of `var`.  Returns (True, None) on success or
    (False, witness sample) at the first nonzero value."""
    poly = constraint.poly if isinstance(constraint, ConstraintVariety) else constraint
    subs = {name: _as_rational_function(value)
            for name, value in substitution.items()}
    missing = set(poly.variables()) - set(subs)
    if missing:
        raise ValueError(f"substitution misses constraint variables {sorted(missing)}")
    good = 0
    for t in itertools.count(1):
        if t > 10 * samples + 10:
            raise ValueError("could not find enough samples avoiding poles")
        lam = GaussianRational(Fraction(t))
        values = {}
        pole = False
        for name, (num, den) in subs.items():
            den_value = evaluate_exact(den, {var: lam})
            if den_value.is_zero:
                pole = True
                break
            values[name] = evaluate_exact(num, {var: lam}) / den_value
        if pole:
            continue
        if not evaluate_exact(poly, values).is_zero:
            return False, Fraction(t)
        good += 1
        if good >= samples:
            return True, None


# ---------------------------------------------------------------------------
# Forms, operator text and exponential polynomials


def forms_equivalent(f: DivergenceDecomposition,
                     g: DivergenceDecomposition) -> bool:
    """True when the flux difference is identically divergence-free.

    The divergence is linear, so that holds exactly when the two
    canonical divergences are equal; no flux difference is built."""
    if f.dimension != g.dimension:
        raise ValueError(
            f"dimension mismatch: {f.dimension} vs {g.dimension}"
        )
    return divergence(f.fluxes) == divergence(g.fluxes)


def format_scalar_operator(op: ScalarPDO, header: bool = True) -> str:
    body = signed_sum(
        times_text(coeff, "*".join(f"D{op.axes[k]}" + (f"^{e}" if e > 1 else "")
                                   for k, e in enumerate(alpha) if e))
        for alpha, coeff in op.terms
    )
    if not header:
        return body
    params = sorted(parameters(op))
    prefix = f"params {','.join(params)}; " if params else ""
    return f"{prefix}axes {','.join(op.axes)}; {body}"


def format_matrix_operator(op: MatrixPDO) -> str:
    return json.dumps(
        {
            "axes": list(op.axes),
            "params": sorted(parameters(op)),
            "fields": list(op.fields),
            "entries": [
                [format_scalar_operator(entry, header=False) for entry in row]
                for row in op.entries
            ],
        },
        indent=2,
    )


def format_operator(op: Operator) -> str:
    """Operator text that ``parser.parse_operator`` reads back to `op`."""
    if isinstance(op, ScalarPDO):
        return format_scalar_operator(op)
    return format_matrix_operator(op)


def exp_poly_diff(expr: ExpPoly, axis: str) -> ExpPoly:
    """d/d(axis) of an exponential polynomial, one term at a time:
    d/dx_k c x^a e^(lam.x) = lam_k c x^a e^(lam.x) + a_k c x^(a-e_k) e^(lam.x)."""
    k = expr.axes.index(axis)
    out = []
    for a, lam, c in expr.terms:
        if lam[k]:
            out.append((a, lam, lam[k] * c))
        if a[k]:
            out.append((a[:k] + (a[k] - 1,) + a[k + 1:], lam, a[k] * c))
    return _merge(expr.axes, out)
