"""Exponential-polynomial trial solutions with closed-form derivatives.

A solution field is a finite sum of terms ``c * x^a * exp(lam . x)``: per-axis
powers ``a``, complex per-axis slopes ``lam`` and a complex coefficient
``c``.  By the Ehrenpreis-Palamodov fundamental principle such sums span
the solution spaces of constant-coefficient systems, and the class is
closed under differentiation without growing; one derivative is

    d/dx_k c x^a e^(lam.x) = lam_k c x^a e^(lam.x) + a_k c x^(a-e_k) e^(lam.x)

A linear combination of derivatives, P(D) with P(xi) = sum coeff xi^beta,
is formed in one step by the shift rule

    P(D) (x^a e^(lam.x)) = e^(lam.x) P(D + lam) x^a

so each term gives one term per gamma <= a, and the combination (times an
exponential weight) is one exponential-polynomial, merged once before it
is evaluated (one point at a time) or integrated.  The coefficients of
P(xi + lam) are formed for all of a field's slopes that share their top
power and their zero entries in one shift of P, one column per slope.  A
trace is the combination of one derivative.  Every merge goes through
``ring.merge_terms``, keyed on a and the (real, imag) pairs of lam.

Solution text is read by the expression parser of ``parser`` (signs,
``*``, ``^ INT`` and parentheses; no ``/``), whose atoms here are::

    atom := NUMBER['i'] | 'i' | coordinate | exp(expr) | sin(expr)
            | cos(expr) | '(' expr ')'

with NUMBER := INT ['.' INT].  The argument of exp, sin and cos must be
affine in the coordinates (degree at most one, no exp, sin or cos
inside); sin and cos become exponential pairs.  Only a product, a sum and
such a pair are merged: a negation flips each coefficient, and a power is
computed by square-and-multiply from its base (``x^0`` is 1).  A product
that could exceed ``MAX_TERMS`` terms is refused before it is computed, a
sum at the first '+' or '-' that takes its running count of merged terms
past it (the sum is merged once, at its end), and text whose values leave
the finite float range is refused.  Every refusal is a
``SolutionSyntaxError`` with a line and a column.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from math import comb, perm, prod
from operator import add, le, mul, sub
from typing import Mapping, NamedTuple, Sequence

from .parser import MAX_TERMS, Parser, TextSyntaxError, quoted
from .ring import merge_terms, square_and_multiply


def _merge(axes: tuple, triples) -> "ExpPoly":
    """Sum coefficients of equal (a, lam) through ``ring.merge_terms``, drop
    zeros and order by a, then by the (real, imag) pairs of lam.  The pairs
    are built once per distinct lam, and each term is keyed on (a, pairs,
    lam): a and the pairs decide the order, so lam is never compared for
    it, and an equal (a, lam) keeps the spelling of its first term (-0j
    against 0j).  A coefficient's zero parts read +0, whatever the order of
    its sum."""
    slopes: dict = {}
    keyed = []
    for a, lam, c in triples:
        parts = slopes.get(lam)
        if parts is None:
            parts = slopes[lam] = tuple([(s.real, s.imag) for s in lam])
        keyed.append(((a, parts, lam), c))
    return ExpPoly(axes, tuple((a, lam, c + 0j)
                               for (a, _, lam), c in merge_terms(keyed)))


@dataclass(frozen=True)
class ExpPoly:
    """Sum of c * x^a * exp(lam . x) over sorted (a, lam, c) terms on
    named axes; a holds ints, lam and c complex numbers."""

    axes: tuple
    terms: tuple

    def evaluate(self, coords: Mapping) -> complex:
        """Value at one point: one number per axis.  Terms that share a
        slope share one exp(lam . x)."""
        x = [coords[name] for name in self.axes]
        by_slope: dict = {}
        for a, lam, c in self.terms:
            for xj, p in zip(x, a):
                if p:
                    c *= xj ** p
            by_slope[lam] = by_slope.get(lam, 0j) + c
        return sum((part * cmath.exp(sum(s * xj for s, xj in zip(lam, x)))
                    for lam, part in by_slope.items()), 0j)


def _constant(axes: tuple, value: complex) -> ExpPoly:
    n = len(axes)
    return ExpPoly(axes, (((0,) * n, (0j,) * n, complex(value)),) if value else ())


def _product(p: ExpPoly, q: ExpPoly) -> ExpPoly:
    return _merge(p.axes, (
        (tuple(x + y for x, y in zip(a, b)),
         tuple(x + y for x, y in zip(lam, mu)), c * d)
        for a, lam, c in p.terms for b, mu, d in q.terms
    ))


def _shifted_symbols(symbol: dict, lams: Sequence[tuple], top: tuple) -> dict:
    """The coefficients Q_gamma of P(xi + lam) for gamma <= `top`, one
    column per slope lam in `lams`, where `symbol` maps each beta to its
    coefficient in P(xi):

        Q_gamma = sum_beta coeff prod_k C(beta_k, gamma_k) lam_k^(beta_k - gamma_k)

    One axis at a time: the shift along axis k replaces beta_k by every
    gamma_k <= min(beta_k, top_k), and equal multi-indices merge before the
    next axis.  A zero slope keeps gamma_k = beta_k only.  The slopes share
    their zero entries, so every column meets the same multi-indices in the
    same order and holds what a shift by its slope alone gives, summed in
    the same order; C(b, g) lam_k^(b - g) is formed once per (axis, b, g)
    for all columns."""
    table = {beta: [coeff] * len(lams) for beta, coeff in symbol.items()}
    for k, t in enumerate(top):
        current, table = table, {}
        if not lams[0][k]:
            for beta, column in current.items():
                if beta[k] <= t:
                    table[beta] = column
            continue
        slopes = [lam[k] for lam in lams]
        factors: dict = {}
        for beta, column in current.items():
            b = beta[k]
            head, tail = beta[:k], beta[k + 1:]
            for g in range(min(b, t) + 1):
                key = head + (g,) + tail
                if b > g:
                    factor = factors.get((b, g))
                    if factor is None:
                        binom, e = comb(b, g), b - g
                        factor = factors[b, g] = [binom * s ** e for s in slopes]
                    values = list(map(mul, column, factor))
                else:
                    values = column
                row = table.get(key)
                table[key] = values if row is None else list(map(add, row, values))
    return table


def _finite(p: ExpPoly) -> bool:
    return all(cmath.isfinite(v) for _, lam, c in p.terms for v in (c, *lam))


# ---------------------------------------------------------------------------
# Text grammar

_SOLUTION_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?i|\d+\.\d+)|(?P<int>\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[-+*^()]))"
)

# (weight, rate) pairs: f(u) = sum weight * exp(rate * u).
_FUNCTIONS = {
    "exp": ((1, 1),),
    "sin": ((-0.5j, 1j), (0.5j, -1j)),
    "cos": ((0.5, 1j), (0.5, -1j)),
}
_OVERFLOW = "solution coefficients overflow the float range"


class SolutionSyntaxError(TextSyntaxError):
    """Raised on malformed solution text; carries the source position."""


class _SolutionSum:
    """A sum of solution terms read term by term: the coefficients by
    (a, lam), so that every '+' is checked against MAX_TERMS, and for a
    value that leaves the float range, as a merge of the sum so far would
    be; the sum is merged once, at its end."""

    def __init__(self, parser: "_SolutionParser", first: ExpPoly) -> None:
        self.parser = parser
        self.coeffs = {(a, lam): c for a, lam, c in first.terms}

    def add(self, b: ExpPoly, pos: int) -> None:
        coeffs = self.coeffs
        finite = True
        for a, lam, c in b.terms:
            # an equal key keeps its first spelling, as a merge does (lam
            # may hold -0j where the sum so far holds 0j)
            key = (a, lam)
            c = coeffs.get(key, 0j) + c
            if c != 0:
                coeffs[key] = c
                finite = finite and cmath.isfinite(c)
            else:
                coeffs.pop(key, None)
        parser = self.parser
        if len(coeffs) > MAX_TERMS:
            raise parser.error(
                f"solution expands beyond the limit of {MAX_TERMS} terms", pos)
        # every other value was checked where it was formed
        if parser.overflow is None and not finite:
            parser.overflow = pos

    def total(self) -> ExpPoly:
        return _merge(self.parser.axes,
                      ((a, lam, c) for (a, lam), c in self.coeffs.items()))


class _SolutionParser(Parser):
    """Solution text as an ExpPoly on the given axes; `overflow` is the
    position of the first value that left the finite float range."""

    TOKEN = _SOLUTION_TOKEN
    Error = SolutionSyntaxError
    Sum = _SolutionSum

    def __init__(self, source: str, axes: Sequence[str]) -> None:
        super().__init__(source)
        self.axes = tuple(axes)
        self.overflow = None

    def _checked(self, value: ExpPoly, pos: int) -> ExpPoly:
        if self.overflow is None and not _finite(value):
            self.overflow = pos
        return value

    def negate(self, a: ExpPoly) -> ExpPoly:
        # the product by -1, term by term: an infinite part makes its partner
        # nan, as in every product, and zero parts read +0, as after a merge
        return ExpPoly(a.axes, tuple((k, lam, -1 * c + 0j) for k, lam, c in a.terms))

    def multiply(self, a: ExpPoly, b: ExpPoly, pos: int) -> ExpPoly:
        if len(a.terms) * len(b.terms) > MAX_TERMS:
            raise self.error(
                f"solution expands beyond the limit of {MAX_TERMS} terms", pos)
        return self._checked(_product(a, b), pos)

    def power(self, base: ExpPoly, n: int, pos: int) -> ExpPoly:
        # square-and-multiply from the base: a few products even for a huge
        # exponent
        if not n:
            return _constant(self.axes, 1)
        return square_and_multiply(base, n,
                                   lambda a, b: self.multiply(a, b, pos))

    def _function(self, name: str, arg: ExpPoly, pos: int) -> ExpPoly:
        """sum_r weight_r * exp(rate_r * arg) for an affine arg."""
        n = len(self.axes)
        offset = 0j
        slopes = [0j] * n
        for a, lam, c in arg.terms:
            if any(lam) or sum(a) > 1:
                raise self.error(
                    f"{name} needs an argument affine in the coordinates", pos)
            if sum(a):
                slopes[a.index(1)] = c
            else:
                offset = c
        try:
            weights = [(weight * cmath.exp(rate * offset), rate)
                       for weight, rate in _FUNCTIONS[name]]
        except (OverflowError, ValueError):
            raise self.error(_OVERFLOW, pos) from None
        return _merge(self.axes, (((0,) * n, tuple(rate * s for s in slopes), weight)
                                  for weight, rate in weights))

    def atom(self) -> ExpPoly:
        kind, text, pos = self.next()
        if kind in ("int", "num"):
            value = complex(0, float(text[:-1])) if text.endswith("i") else float(text)
            return self._checked(_constant(self.axes, value), pos)
        if kind == "ident":
            if text in _FUNCTIONS:
                if self.peek()[1] != "(":
                    raise self.error(f"{text} needs a parenthesised argument", pos)
                return self._function(text, self.nested(self.next()[2]), pos)
            if text == "i":
                return _constant(self.axes, 1j)
            if text in self.axes:
                k = self.axes.index(text)
                n = len(self.axes)
                power = tuple(int(j == k) for j in range(n))
                return ExpPoly(self.axes, ((power, (0j,) * n, 1 + 0j),))
            raise self.error(f"unknown name {quoted(text)} in solution text", pos)
        if text == "(":
            return self.nested(pos)
        raise self.error(f"unexpected token {quoted(text or 'end of input')}", pos)


def parse_solution(source: str, axes: Sequence[str]) -> ExpPoly:
    """Parse solution text; text whose coefficients or slopes leave the
    finite float range is refused at the first value that does."""
    parser = _SolutionParser(source, axes)
    expr = parser.parse()
    # Every value the parser forms is checked where it is formed (a number,
    # a product, each '+' of a sum) or cannot leave the float range from
    # finite parts (a coordinate, i, a negation, exp, sin or cos of an
    # affine argument, whose cmath.exp raises on overflow): a result with a
    # value out of range has recorded an overflow.  Only then is it scanned,
    # since a value that overflowed may cancel later, as in (2^2000)^0.
    if parser.overflow is not None and not _finite(expr):
        raise parser.error(_OVERFLOW, parser.overflow)
    return expr


class ManufacturedSolution(NamedTuple):
    """Per-field exponential-polynomials on named axes, one ExpPoly per
    field."""

    axes: tuple
    fields: tuple

    @staticmethod
    def scalar(axes: Sequence[str], expr: ExpPoly | str) -> "ManufacturedSolution":
        return ManufacturedSolution.system(axes, (expr,))

    @staticmethod
    def system(axes: Sequence[str], exprs: Sequence) -> "ManufacturedSolution":
        parsed = tuple(
            parse_solution(e, axes) if isinstance(e, str) else e for e in exprs
        )
        return ManufacturedSolution(tuple(axes), parsed)

    def trace(self, field: int, deriv: Sequence[int]) -> ExpPoly:
        """d^deriv of one field: the one-entry derivative sum."""
        return self.derivative_sum(((1, field, deriv),))

    def derivative_sum(self, entries, shift: Sequence[complex] | None = None) -> ExpPoly:
        """sum coeff * d^deriv q_field over (coeff, field, deriv) entries,
        merged once.  A `shift` (one complex slope per axis) is added to
        every term's lam, which multiplies the sum by exp(shift . x).

        The entries of one field form its symbol P(xi) = sum coeff
        xi^deriv, and by the shift rule each term c x^a e^(lam.x) of the
        field contributes c (a)_gamma Q_gamma(lam) x^(a-gamma) e^(lam.x)
        for every gamma <= a, with the falling factorial (a)_gamma =
        prod_k a_k! / (a_k - gamma_k)! and Q_gamma(lam) the coefficients of
        P(xi + lam).  The field's slopes are grouped by their top (the
        largest a of each) and their zero entries; the symbol is shifted
        once per group, one column per slope, so each Q is computed once
        per (field, lam) in the call, and each power's (a - gamma,
        (a)_gamma) pairs once per group.  The terms are merged once, at the
        end, in the order of the field's terms and of the gammas."""
        symbols: dict = {}
        for coeff, field, deriv in entries:
            symbol = symbols.setdefault(field, {})
            deriv = tuple(deriv)
            symbol[deriv] = symbol.get(deriv, 0) + coeff
        triples = []
        for field, symbol in symbols.items():
            terms = self.fields[field].terms
            tops: dict = {}
            for a, lam, _ in terms:
                tops[lam] = tuple(map(max, tops.get(lam, a), a))
            groups: dict = {}
            for lam, top in tops.items():
                groups.setdefault((top, tuple(not s for s in lam)), []).append(lam)
            # each slope's table, its column there, its group's pairs by
            # power, and its shifted slope
            columns: dict = {}
            for (top, _), lams in groups.items():
                table = tuple(_shifted_symbols(symbol, lams, top).items())
                pairs: dict = {}
                for col, lam in enumerate(lams):
                    out = lam if shift is None else tuple(map(add, lam, shift))
                    columns[lam] = (table, col, pairs, out)
            for a, lam, c in terms:
                table, col, pairs, out = columns[lam]
                falling = pairs.get(a)
                if falling is None:
                    falling = pairs[a] = [
                        (tuple(map(sub, a, gamma)), prod(map(perm, a, gamma)), q)
                        for gamma, q in table if all(map(le, gamma, a))]
                for rest, count, q in falling:
                    triples.append((rest, out, c * count * q[col]))
        return _merge(self.axes, triples)
