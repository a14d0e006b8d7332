"""Reference helpers that only the tests call.

Each one is an independent route to a result the engine computes another
way, or a convenience the engine itself never needs: building an
operator from loose terms through the checked constructor
(``scalar_operator``), sums and multiples of scalar operators
(``operator_sum``), building pairings term by term, the multi-index
steps ``incr`` and ``decr``, the tuple-based rewrite rules and their
term walk (``reference_walk``, the reference for the engine's packed
walk), adapters that run the packed rules on ``PairTerm`` and
``BilinearTerm`` records, evaluating or substituting a polynomial
exactly, checking a rational parameterization at exact samples, the
term-by-term exponential substitution
(``reference_substitute``, the reference for the engine's packed one),
the exterior derivative of a substituted form, reduction modulo a
quadric, form equivalence, operator printing, the descent that read
every factor of operator text as an expansion
(``reference_parse_operator``, the reference for the parser's one-pass
products), the first printing of exact scalars and polynomials
(``reference_scalar_text`` and ``reference_poly_text``, the references
for ``ring``'s), one derivative
of an exponential polynomial, the face integrals of a relation one face
at a time (``reference_face_integrals``), and the twelve-plan triple-product
operator.  None of them is part of ``fundform``.
"""

from __future__ import annotations

import cmath
import importlib
import itertools
import json
from fractions import Fraction
from typing import Mapping, NamedTuple

from fundform.algebra import (BilinearExpr, BilinearTerm, MultiIndex, _key_bytes,
                              _packed, _pairing, divergence, pack, product_rule)
from fundform.decompose import DivergenceDecomposition, EngineError, PlanError
from fundform.manufactured import ExpPoly, _merge
from fundform.operators import (MatrixPDO, Operator, ScalarPDO, exponential_slopes,
                                 grid, monomial, parameters)
from fundform.parser import parse_scalar_operator
from fundform.ring import (P_I, P_ONE, QI_ZERO, GaussianRational, Poly, PolyLike,
                           merge_terms, pretty_name, quoted, signed_sum, times_text)
from fundform.spectral import ConstraintVariety, SubstitutedForm
from fundform.verify import (_axis_exponentials, _axis_sum, _face_grid,
                             _numeric_fluxes)

engine = importlib.import_module("fundform.decompose")
parser = importlib.import_module("fundform.parser")

BRACKET = "bracket"
BRACE = "brace"

TRIPLE_PRODUCT_TEXT = "axes x,y,z; Dx^2*Dy^2*Dz^2 + Dx^2*Dy^2 + Dz^2"


def triple_product_operator() -> ScalarPDO:
    """Sixth-order three-axis operator whose constraint variety has a
    rational parameterization; the standard twelve-plan example."""
    return parse_scalar_operator(TRIPLE_PRODUCT_TEXT)


def scalar_operator(axes, terms) -> ScalarPDO:
    """A ScalarPDO on `axes` from a mapping or an iterable of (multi-index,
    coefficient) pairs, through the checked constructor, which coerces
    and merges them."""
    items = terms.items() if isinstance(terms, Mapping) else terms
    return ScalarPDO(tuple(axes), tuple(items))


def operator_sum(*parts) -> ScalarPDO:
    """sum_t c_t L_t of (c_t, L_t) pairs, scalar operators on one axes
    tuple, through the checked constructor, which merges the terms."""
    axes = {op.axes for _, op in parts}
    if len(axes) != 1:
        raise ValueError("operators on different axes")
    return ScalarPDO(axes.pop(), tuple((alpha, coeff * Poly.coerce(c))
                                       for c, op in parts
                                       for alpha, coeff in op.terms))


# ---------------------------------------------------------------------------
# Pairings, built term by term


def term(coeff: PolyLike, left, right, left_field: int = 0,
         right_field: int = 0) -> BilinearTerm:
    """A BilinearTerm built with its coefficient coerced and its slots
    checked: one dimension, and every field index and count in one byte."""
    left, right = MultiIndex(left), MultiIndex(right)
    left._check(right)
    _key_bytes(left_field, right_field, left, right)
    return BilinearTerm(Poly.coerce(coeff), left_field, left, right_field, right)


def term_key(t: BilinearTerm) -> tuple:
    """(left_field, right_field, left, right): the order of an expression's
    terms."""
    return (t.left_field, t.right_field, t.left, t.right)


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
# Multi-index steps


def incr(index: MultiIndex, k: int) -> MultiIndex:
    """index + e_k."""
    entries = list(index)
    entries[k] += 1
    return MultiIndex(entries)


def decr(index: MultiIndex, k: int) -> MultiIndex:
    """index - e_k; ValueError when entry k is 0."""
    if index[k] == 0:
        raise ValueError(f"axis {k} has no derivative to remove in {index}")
    entries = list(index)
    entries[k] -= 1
    return MultiIndex(entries)


# ---------------------------------------------------------------------------
# The tuple-based rewrite rules and term walk: the reference for the
# engine's packed walk


class _PairTermFields(NamedTuple):
    kind: str
    coeff: Poly
    alpha: MultiIndex
    beta: MultiIndex
    left_field: int
    right_field: int


class PairTerm(_PairTermFields):
    """A signed bracket or brace:  coeff * [alpha, beta]  or  coeff * {alpha, beta}.

    Built as given, like ``BilinearTerm``: callers pass a Poly and two
    MultiIndexes of one dimension.
    """

    __slots__ = ()

    def __new__(cls, kind: str, coeff: Poly, alpha: MultiIndex,
                beta: MultiIndex, left_field: int = 0,
                right_field: int = 0) -> "PairTerm":
        if kind not in (BRACKET, BRACE):
            raise ValueError(f"unknown pairing kind {kind!r}")
        return tuple.__new__(cls, (kind, coeff, alpha, beta, left_field,
                                   right_field))

    @classmethod
    def _make(cls, iterable) -> "PairTerm":
        """Build through the checked constructor; ``_replace`` calls this."""
        return cls(*iterable)

    def products(self) -> tuple:
        """The two constituent products (first, mirror) as BilinearTerm."""
        first = BilinearTerm(self.coeff, self.left_field, self.alpha,
                             self.right_field, self.beta)
        coeff = -self.coeff if self.kind == BRACKET else self.coeff
        mirror = BilinearTerm(coeff, self.left_field, self.beta,
                              self.right_field, self.alpha)
        return first, mirror


def _reference_reduce(pair: PairTerm, k: int) -> tuple:
    """K(alpha, beta) = d_k K(alpha - e_k, beta) - K(alpha - e_k, beta + e_k):
    (flux, remaining PairTerm), the identity checked."""
    kind, coeff, alpha, beta, lf, rf = pair
    if alpha[k] < 1:
        raise PlanError(
            f"axis {k} has no derivative left to move in {tuple(alpha)}"
        )
    lowered = decr(alpha, k)
    negated = -coeff
    flux = _packed(merge_terms(pack(_pairing(
        lowered, beta, lf, rf, coeff, negated if kind == BRACKET else coeff,
    ))), len(alpha), max(lf, rf, *lowered, *beta))
    remainder = PairTerm(kind, negated, lowered, incr(beta, k), lf, rf)
    minus = _pairing(*pair[2:], negated,
                     coeff if kind == BRACKET else negated)
    plus = _pairing(*remainder[2:], negated,
                    coeff if kind == BRACKET else negated)
    if merge_terms([*product_rule(flux, k), *pack((*plus, *minus))]):
        raise EngineError(f"reduction step failed its identity on axis {k}")
    return flux, remainder


def _reference_exchange(term: BilinearTerm, k: int, j: int) -> tuple:
    """term = swapped + d_k flux_k + d_j flux_j:
    (swapped, ((k, flux_k), (j, flux_j))), the identity checked."""
    coeff, lf, left, rf, right = term
    if left[k] < 1:
        raise PlanError(f"trial slot has no axis-{k} derivative in {term_key(term)}")
    if right[j] < 1:
        raise PlanError(f"test slot has no axis-{j} derivative in {term_key(term)}")
    lowered = decr(left, k)
    moved = incr(decr(right, j), k)
    swapped = BilinearTerm(coeff, lf, incr(lowered, j), rf, moved)
    (key_k, _), (key_j, negated) = pack(((coeff, lf, lowered, rf, right),
                                         (-coeff, lf, lowered, rf, moved)))
    n = len(left)
    flux_k = _packed(((key_k, coeff),), n, max(lf, rf, *lowered, *right))
    flux_j = _packed(((key_j, negated),), n, max(lf, rf, *lowered, *moved))
    if merge_terms([*product_rule(flux_k, k), *product_rule(flux_j, j),
                    *pack((swapped, (-coeff, *term[1:])))]):
        raise EngineError(f"exchange step failed its identity on axes {k},{j}")
    return swapped, ((k, flux_k), (j, flux_j))


def _reference_collapse(first: BilinearTerm, second: BilinearTerm) -> tuple:
    """T(c + e_r, d) + T(c, d + e_r) = d_r T(c, d): (r, flux), the
    identity checked."""
    coeff, lf, left, rf, right = first
    if (lf, rf) != (second.left_field, second.right_field):
        raise EngineError("collapse pair mixes fields")
    if coeff != second.coeff:
        raise EngineError("collapse pair has mismatched coefficients")
    diff = [a - b for a, b in zip(left, second.left)]
    axes = [r for r, d in enumerate(diff) if d]
    if len(axes) != 1 or diff[axes[0]] != 1:
        raise EngineError("terms do not form a product-rule pair")
    r = axes[0]
    if second.right != incr(right, r):
        raise EngineError("terms do not form a product-rule pair")
    lowered = second.left
    flux = _packed(tuple(pack(((coeff, lf, lowered, rf, right),))),
                   len(left), max(lf, rf, *lowered, *right))
    if merge_terms([*product_rule(flux, r),
                    *pack(((-coeff, *first[1:]), (-coeff, *second[1:])))]):
        raise EngineError("pair collapse failed its identity")
    return r, flux


def reference_walk(alpha, plans, coeff=1, left_field: int = 0,
                   right_field: int = 0):
    """Yield (plan, emitted) for each plan of the term  coeff d^alpha  with
    the given fields, one plan at a time on PairTerm and BilinearTerm
    states: its path reductions, its sorted transfer reductions, its
    exchanges, then the closing collapse or mirror-cancel check.  With the
    defaults it is the unit term that the engine's ``_walk_term`` walks."""
    alpha = MultiIndex(alpha)
    odd = alpha.odd_axes()
    kind = BRACE if alpha.order % 2 else BRACKET
    for plan in plans:
        state = PairTerm(kind, coeff, alpha, MultiIndex.zero(len(alpha)),
                         left_field, right_field)
        emitted = []
        for k in (*plan.path, *sorted(plan.transfer)):
            flux, state = _reference_reduce(state, k)
            emitted.append((k, flux))
        current, mirror = state.products()
        for k, j in plan.exchanges:
            current, pairs = _reference_exchange(current, k, j)
            emitted += pairs
        if not odd:
            if state.alpha != state.beta:
                raise EngineError("even-term reduction did not close on a diagonal")
        elif len(odd) % 2 == 0:
            if BilinearExpr([current, mirror]):
                raise EngineError("exchange chain failed to cancel the mirror term")
        else:
            emitted.append(_reference_collapse(current, mirror))
        yield plan, emitted


# ---------------------------------------------------------------------------
# The engine's packed rules on tuple records


def packed_pair(pair: PairTerm) -> tuple:
    """The packed products ``decompose.reduce_step`` takes:
    ((key, coeff), (mirror key, mirror coeff))."""
    return tuple(pack(pair.products()))


def _unpacked(key: int, coeff, n: int) -> BilinearTerm:
    term, = _packed(((key, coeff),), n, 0).terms
    return term


def reduce_pair(pair: PairTerm, k: int, rule=None) -> tuple:
    """``decompose.reduce_step`` (or another rule of its shape, such as
    ``_reduce``) on a PairTerm: (flux, remaining PairTerm).  The packed
    remainder must be the packing of that PairTerm, mirror included."""
    n = len(pair.alpha)
    flux, rest = (rule or engine.reduce_step)(packed_pair(pair), k, n)
    _, lf, alpha, rf, beta = _unpacked(*rest[0], n)
    remainder = PairTerm(pair.kind, rest[0][1], alpha, beta, lf, rf)
    assert packed_pair(remainder) == rest
    return flux, remainder


def exchange_term(term: BilinearTerm, k: int, j: int, rule=None) -> tuple:
    """``decompose.exchange_step`` (or ``_exchange``) on a BilinearTerm,
    the swapped product returned as a BilinearTerm."""
    n = len(term.left)
    (product,) = pack((term,))
    swapped, *fluxes = (rule or engine.exchange_step)(product, k, j, n)
    return (_unpacked(*swapped, n), *fluxes)


def collapse_terms(first: BilinearTerm, second: BilinearTerm,
                   rule=None) -> tuple:
    """``decompose.collapse_step`` (or ``_collapse``) on two BilinearTerms."""
    return (rule or engine.collapse_step)(*pack((first, second)),
                                             len(first.left))


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


def _flux_terms(pairs) -> tuple:
    """Flux terms (coeff, field, deriv) from ((field, deriv), coeff) pairs."""
    return tuple(
        (coeff, field, deriv) for (field, deriv), coeff in merge_terms(pairs)
    )


def reference_substitute(form: DivergenceDecomposition, sigma, sign: int = 1,
                         amplitudes=None) -> SubstitutedForm:
    """``spectral.substitute_exponential`` term by term on valid input:
    each ``BilinearTerm`` c d^mu q_f d^nu qt_g becomes
    c amplitudes[g] prod_j slope_j^nu_j d^mu q_f, merged on (f, mu)
    tuples, with the factor formed once per (g, nu) tuple."""
    sigma = tuple(Poly.coerce(s) for s in sigma)
    slopes = exponential_slopes(sigma, sign)
    if form.source is not None:
        nfields = len(grid(form.source))
    else:
        nfields = 1 if amplitudes is None else len(amplitudes)
    if amplitudes is None:
        amplitudes = tuple(Poly.const(1) for _ in range(nfields))
    else:
        amplitudes = tuple(Poly.coerce(a) for a in amplitudes)
    numeric = all(p.is_constant for p in slopes + amplitudes)
    if numeric:
        values = [p.constant_value() for p in slopes]
        scalars = [a.constant_value() for a in amplitudes]
    else:
        values, scalars = slopes, amplitudes
    factors: dict = {}

    def substituted(t) -> Poly:
        key = (t.right_field, t.right)
        if key not in factors:
            factors[key] = monomial(scalars[t.right_field], values, t.right)
        return t.coeff.scale(factors[key]) if numeric else t.coeff * factors[key]

    out = tuple(
        _flux_terms(((t.left_field, t.left), substituted(t)) for t in flux)
        for flux in form.fluxes
    )
    return SubstitutedForm(form.axes, sign, sigma, amplitudes, out)


def spectral_exterior_derivative(sf: SubstitutedForm) -> tuple:
    """Volume coefficient of d(substituted form), divided by the weight:
    each flux differentiates both the trace and the exponential."""
    slopes = sf.exponent_slopes()
    terms = []
    for j, flux in enumerate(sf.fluxes):
        for coeff, field, deriv in flux:
            terms.append(((field, deriv), coeff * slopes[j]))
            terms.append(((field, incr(deriv, j)), coeff))
    return _flux_terms(terms)


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


class _ReferenceOperatorParser(parser._OperatorParser):
    """The operator grammar as it read every factor before products of
    one-term factors were read in one pass: each atom is an expansion,
    and every '*' and '^' goes through ``multiply`` and ``power``."""

    term = parser.Parser.term

    def atom(self) -> tuple:
        kind, text, pos = self.next()
        zero = MultiIndex.zero(len(self.axes))
        if kind in ("int", "imag"):
            value = self.integer(text.rstrip("i"), pos)
            if kind == "int" and self.peek()[1] == "/":
                self.next()
                kind, text, pos = self.next()
                q = self.integer(text.rstrip("i"), pos) if kind in ("int", "imag") else 0
                if q == 0:
                    raise self.error("expected nonzero integer denominator", pos)
                value = Fraction(value, q)
            if kind == "imag":
                value = GaussianRational(0, value)
            return ((zero, Poly.const(value)),) if value else ()
        if kind == "ident":
            if text == "i":
                return ((zero, P_I),)
            if text.startswith("D") and text[1:] in self.axes:
                alpha = [0] * len(self.axes)
                alpha[self.axes.index(text[1:])] = 1
                return ((MultiIndex(alpha), P_ONE),)
            if text in self.params:
                return ((zero, Poly.var(text)),)
            if not self.axes:
                raise self.error(f"unknown name {quoted(text)}", pos)
            if text.startswith("D") and len(text) > 1:
                raise self.error(f"unknown axis {quoted(text[1:])}", pos)
            raise self.error(f"unknown parameter or axis name {quoted(text)}", pos)
        if text == "(":
            return self.nested(pos)
        found = text or "end of input"
        factor = "D<axis> factor" if self.axes else "name"
        raise self.error(
            f"expected a coefficient, {factor} or '(', found {quoted(found)}", pos)


def reference_parse_operator(source: str) -> Operator:
    """``parser.parse_operator`` with every operator text, a matrix
    operator's entries included, read by ``_ReferenceOperatorParser``:
    the reference for the parser's one-pass products."""
    engine_reader = parser._OperatorParser
    parser._OperatorParser = _ReferenceOperatorParser
    try:
        return parser.parse_operator(source)
    finally:
        parser._OperatorParser = engine_reader


def reference_scalar_text(value: GaussianRational) -> str:
    """``GaussianRational.to_text`` read through the parts ``re`` and
    ``im`` (``Fraction``s when d > 1), the way the engine first printed
    it: the reference for the printing from the stored integers."""
    if value.is_zero:
        return "0"
    re, im = value.re, value.im
    if im == 0:
        return str(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imag = "i" if mag == 1 else f"{mag}i"
    return f"({re}{sign}{imag})"


def reference_poly_text(poly: Poly, latex: bool = False) -> str:
    """``Poly.to_text`` (``to_latex`` with `latex`) the way the engine
    first printed it: every polynomial through ``signed_sum``, a unit
    coefficient found by comparing with 1 and -1, and each other
    coefficient through ``reference_scalar_text``."""
    one = GaussianRational(1)
    parts = []
    for mono, coeff in poly.terms:
        if latex:
            factors = [pretty_name(name) + (f"^{{{exp}}}" if exp > 1 else "")
                       for name, exp in mono]
        else:
            factors = [name + (f"^{exp}" if exp > 1 else "") for name, exp in mono]
        joiner = " " if latex else "*"
        if not factors:
            parts.append(reference_scalar_text(coeff))
        elif coeff == one:
            parts.append(joiner.join(factors))
        elif coeff == -one:
            parts.append("-" + joiner.join(factors))
        else:
            parts.append(joiner.join([reference_scalar_text(coeff)] + factors))
    return signed_sum(parts)


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


# ---------------------------------------------------------------------------
# Face integrals, one face at a time


def reference_face_integrals(sf: SubstitutedForm, solution, box, spec,
                             assignment=None) -> tuple:
    """The face integrals of ``verify.boundary_residual``, in its order and
    with its arithmetic, one face at a time: each face builds its own grid
    and its own one-axis sums, none shared with the opposite face or
    cached across terms."""
    slopes, fluxes = _numeric_fluxes(sf, dict(assignment or {}))
    out = []
    for axis in range(sf.dimension):
        if not fluxes[axis]:
            out += [((sf.axes[axis], end), 0j) for end in ("hi", "lo")]
            continue
        integrand = solution.derivative_sum(fluxes[axis], slopes).terms
        for end, orientation in (("hi", 1), ("lo", -1)):
            fixed, nodes, weights = _face_grid(box, axis, end, spec, sf.axes)
            free = [j for j in range(sf.dimension) if j != axis]
            total = 0j
            for a, lam, c in integrand:
                part = c * fixed ** a[axis] * cmath.exp(lam[axis] * fixed)
                for r, j in enumerate(free):
                    table = _axis_exponentials(nodes[r], lam[j]) if lam[j] else None
                    part *= _axis_sum(nodes[r], weights[r], a[j], table)
                total += part
            out.append(((sf.axes[axis], end), orientation * total))
    return tuple(out)
