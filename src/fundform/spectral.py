"""Spectral layer: exponential substitutions and what they buy.

Substituting  qt = A * exp(sign * i * sigma . x)  into a verified form
turns each test-slot derivative into a polynomial factor, leaving fluxes
of the shape  (polynomial in sigma) * d^mu q * weight.  On the zero set
of the adjoint symbol the substituted form is closed exactly when the
operator equation holds, which is what makes boundary relations out of
it.  Boundary traces stay symbolic here: a relation is structure (face,
orientation, coefficient, weight, trace), never an evaluated integral.

A substitution takes one amplitude per test field (all 1 when none are
given) and refuses a list of another length.  It reads each flux's packed
(key, coeff) pairs, split by ``algebra._key_halves`` into a trial half
(f, mu) and a test half (g, nu), each one int.  The test half keys the
factor amplitude * prod_j slope_j^nu_j, formed once per (g, nu); the
trial half keys the one merge of the flux, and each merged term is
unpacked to (coeff, field, MultiIndex) once.  No ``BilinearTerm`` is
built.  At a numeric spectral point, where every slope and amplitude is a
constant, the factor is an exact Gaussian rational and scales the flux
coefficients; no constant is wrapped as a polynomial.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .algebra import MultiIndex, _key_halves
from .decompose import DivergenceDecomposition, decompose
from .forms import assemble
from .operators import (
    MatrixPDO,
    ScalarPDO,
    adjoint,
    check_sigma_count,
    exponential_slopes,
    grid,
    monomial,
    refuse_clash,
    symbol,
)
from .ring import P_I, Poly, PolyLike, QI_ONE, merge_terms


class SubstitutedForm(NamedTuple):
    """A form with the test slot bound to an exponential.

    fluxes[j] is a tuple of (coeff: Poly, field, deriv) terms; all share
    the weight exp(sum_j E_j x^j) with exponent slope E_j = sign*i*sigma_j.
    """

    axes: tuple
    sign: int
    sigma: tuple
    amplitudes: tuple
    fluxes: tuple

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def exponent_slopes(self) -> tuple:
        return exponential_slopes(self.sigma, self.sign)


def substitute_exponential(form: DivergenceDecomposition,
                           sigma: Sequence[PolyLike],
                           sign: int = 1,
                           amplitudes: Sequence[PolyLike] | None = None) -> SubstitutedForm:
    """Replace every test-slot derivative d^nu qt_g by
    amplitudes[g] * prod_j (sign*i*sigma_j)^nu_j times the common weight.
    There is one amplitude per test field (all 1 when none are given); a
    list of another length raises ValueError.  The form's source operator
    fixes its test fields, one per row of its grid; a form written without
    one has as many as the amplitudes given, or 1.  A flux term that names
    a test field past that count raises ValueError.

    The terms are read from each flux's packed keys, whose test half (g,
    nu) keys the factor and whose trial half (f, mu) keys the merge, so
    that factor is formed once per (g, nu) in the call and each merged
    term unpacked once.  At a numeric point, where every slope and
    amplitude is a constant, the factor is an exact GaussianRational and
    each term's coefficient is scaled by it; otherwise it is a Poly and
    multiplies the coefficient.  A flux of another dimension than the
    form's raises ValueError."""
    check_sigma_count(sigma, form.dimension)
    sigma = tuple(Poly.coerce(s) for s in sigma)
    slopes = exponential_slopes(sigma, sign)
    if form.source is not None:
        nfields = len(grid(form.source))
    else:
        nfields = 1 if amplitudes is None else len(amplitudes)
    if amplitudes is None:
        amplitudes = tuple(Poly.const(1) for _ in range(nfields))
    elif len(amplitudes) != nfields:
        raise ValueError(f"one amplitude per test field required: the form has "
                         f"{nfields}, {len(amplitudes)} given")
    else:
        amplitudes = tuple(Poly.coerce(a) for a in amplitudes)
    spectral_names = {name for p in sigma + amplitudes for name in p.variables()}
    if spectral_names:  # at a numeric point nothing can clash
        param_names = {name for flux in form.fluxes for _, coeff in flux._pairs
                       for name in coeff.variables()}
        refuse_clash(spectral_names, set(form.axes) | param_names,
                     "axis or parameter")
    numeric = all(p.is_constant for p in slopes + amplitudes)
    if numeric:
        values = [p.constant_value() for p in slopes]
        scalars = [a.constant_value() for a in amplitudes]
    else:
        values, scalars = slopes, amplitudes
    n = form.dimension
    width = n + 1
    new = tuple.__new__
    factors: dict = {}
    out = []
    for flux in form.fluxes:
        if flux._dim not in (None, n):
            raise ValueError(f"a flux has dimension {flux._dim}; "
                             f"the form has {n}")
        pairs = []
        for trial, test, coeff in _key_halves(flux._pairs, n):
            factor = factors.get(test)
            if factor is None:
                raw = test.to_bytes(width, "big")
                if raw[0] >= nfields:
                    raise ValueError(f"a flux names test field {raw[0]}; "
                                     f"the form has {nfields}")
                factor = factors[test] = monomial(scalars[raw[0]], values, raw[1:])
            pairs.append((trial, coeff.scale(factor) if numeric else coeff * factor))
        terms = []
        for trial, coeff in merge_terms(pairs):
            raw = trial.to_bytes(width, "big")
            terms.append((coeff, raw[0], new(MultiIndex, raw[1:])))
        out.append(tuple(terms))
    return SubstitutedForm(form.axes, sign, sigma, amplitudes, tuple(out))


# ---------------------------------------------------------------------------
# Constraint varieties


class ConstraintVariety(NamedTuple):
    """Zero set of the adjoint symbol in the spectral variables."""

    names: tuple
    poly: Poly
    solved: tuple = ()


def _solved_forms(poly: Poly, names: Sequence[str]) -> tuple:
    out = []
    for name in names:
        powers = poly.coeffs_by_power(name)
        if set(powers) <= {0, 2} and 2 in powers:
            lead = powers[2]
            num = -powers.get(0, Poly())
            if lead.is_constant:
                num = num.scale(QI_ONE / lead.constant_value())
                lead = Poly.const(1)
            out.append((name, num, lead))
    return tuple(out)


def adjoint_constraint(op: ScalarPDO, names: Sequence[str],
                       sign: int = 1) -> ConstraintVariety:
    """Polynomial condition on sigma for exp(sign*i*sigma.x) to solve the
    adjoint equation, with solved forms  s_k^2 = num/den  where extractable.
    The names must be distinct identifiers other than i, none an axis or
    parameter."""
    if isinstance(op, MatrixPDO):
        raise ValueError("constraint varieties are emitted for scalar operators")
    poly = symbol(adjoint(op), names, sign)
    return ConstraintVariety(tuple(names), poly, _solved_forms(poly, names))


# ---------------------------------------------------------------------------
# Global relations on boxes


class RelationTerm(NamedTuple):
    axis: int
    end: str  # "lo" | "hi"
    sign: int  # divergence-theorem orientation: hi +1, lo -1
    coeff: Poly
    weight_exponent: Poly  # exponent of the weight at the fixed coordinate
    field: int
    deriv: MultiIndex


class GlobalRelation(NamedTuple):
    """Structured statement that the boundary integral of the substituted
    form vanishes: one record per (face, trace) pair, traces unevaluated."""

    axes: tuple
    box: tuple  # per axis (lo: Poly, hi: Poly)
    sigma: tuple
    sign: int
    amplitudes: tuple
    terms: tuple


def global_relation(sf: SubstitutedForm, box: Sequence) -> GlobalRelation:
    """Boundary relation of the substituted form on a coordinate box.

    For each axis j the flux a_j is restricted to the two faces x_j = hi
    (orientation +1) and x_j = lo (orientation -1); the weight contributes
    exp(E_j * endpoint) on the fixed coordinate and stays implicit in the
    trace transforms on the running coordinates.  No spectral name may
    also name a box endpoint.
    """
    if len(box) != sf.dimension:
        raise ValueError("box must give one interval per axis")
    intervals = tuple((Poly.coerce(lo), Poly.coerce(hi)) for lo, hi in box)
    refuse_clash({name for p in sf.sigma + sf.amplitudes for name in p.variables()},
                 {name for span in intervals for p in span for name in p.variables()},
                 "box endpoint")
    slopes = sf.exponent_slopes()
    faces = {
        (j, end): (orientation, slopes[j] * endpoint)
        for j, (lo, hi) in enumerate(intervals)
        for end, orientation, endpoint in (("hi", 1, hi), ("lo", -1, lo))
    }
    merged = merge_terms(
        ((j, end, field, deriv), coeff)
        for (j, end) in faces
        for coeff, field, deriv in sf.fluxes[j]
    )
    terms = []
    for (j, end, field, deriv), coeff in merged:
        orientation, weight_exponent = faces[j, end]
        terms.append(RelationTerm(j, end, orientation, coeff, weight_exponent,
                                  field, deriv))
    return GlobalRelation(sf.axes, intervals, sf.sigma, sf.sign,
                          sf.amplitudes, tuple(terms))


# ---------------------------------------------------------------------------
# Integral representation


class IntegralRepresentation(NamedTuple):
    """q(x) = -(2 pi)^(-n) int_R^n dk int_boundary e^(ik.x) eta(y, k) / D(k)
    with D the operator's symbol at ik and eta substituted at exp(-ik.y)."""

    axes: tuple
    spectral_names: tuple
    prefactor_sign: int
    two_pi_power: int
    denominator: Poly
    eta: SubstitutedForm


def integral_representation(op: ScalarPDO,
                            names: Sequence[str] | None = None) -> IntegralRepresentation:
    if isinstance(op, MatrixPDO):
        raise ValueError("integral representations are emitted for scalar operators")
    if names is None:
        names = tuple(f"k{j + 1}" for j in range(op.dimension))
    names = tuple(names)
    denominator = symbol(op, names, sign=1)
    if denominator.is_zero:
        raise ValueError("operator symbol vanishes identically; no representation")
    form = assemble(decompose(op))
    eta = substitute_exponential(form, [Poly.var(n) for n in names], sign=-1)
    return IntegralRepresentation(op.axes, names, -1, -op.dimension,
                                  denominator, eta)


# ---------------------------------------------------------------------------
# Isotropic spinor construction for the incompressible system


class SpinorTriple(NamedTuple):
    """Isotropic 3-vector built from a 2-spinor:
    k = (xi1^2 - xi2^2, i(xi1^2 + xi2^2), -2 xi1 xi2), so k.k = 0 identically."""

    xi1: Poly
    xi2: Poly
    k: tuple

    def isotropy(self) -> Poly:
        return sum((c * c for c in self.k), Poly())


def spinor_isotropic(xi1: PolyLike | None = None,
                     xi2: PolyLike | None = None) -> SpinorTriple:
    xi1 = Poly.var("xi1") if xi1 is None else Poly.coerce(xi1)
    xi2 = Poly.var("xi2") if xi2 is None else Poly.coerce(xi2)
    k = (
        xi1 * xi1 - xi2 * xi2,
        P_I * (xi1 * xi1 + xi2 * xi2),
        Poly.const(-2) * xi1 * xi2,
    )
    return SpinorTriple(xi1, xi2, k)


def amplitudes_pairwise_independent(amplitudes: Sequence[Poly]) -> bool:
    """Pairwise non-proportionality of the test-slot amplitudes; the
    computable piece of the linear-independence requirement for systems."""
    amps = [Poly.coerce(a) for a in amplitudes]
    for a, b in itertools.combinations(amps, 2):
        if a.proportional_to(b):
            return False
    return True
