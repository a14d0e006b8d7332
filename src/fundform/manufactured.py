"""Exponential-polynomial trial solutions with closed-form derivatives.

A solution field is a finite sum of terms ``c * x^a * exp(lam . x)``: per-axis
powers ``a``, complex per-axis slopes ``lam`` and a complex coefficient
``c``.  By the Ehrenpreis-Palamodov fundamental principle such sums span
the solution spaces of constant-coefficient systems, and the class is
closed under differentiation without growing:

    d/dx_k c x^a e^(lam.x) = lam_k c x^a e^(lam.x) + a_k c x^(a-e_k) e^(lam.x)

so every trace is differentiated in closed form, and a linear combination
of traces (times an exponential weight) is again one exponential-polynomial,
merged once before it is evaluated (one point at a time) or integrated.

Solution text is read by the expression parser of ``parser`` (signs,
``*``, ``^ INT`` and parentheses; no ``/``), whose atoms here are::

    atom := NUMBER['i'] | 'i' | coordinate | exp(expr) | sin(expr)
            | cos(expr) | '(' expr ')'

with NUMBER := INT ['.' INT].  The argument of exp, sin and cos must be
affine in the coordinates (degree at most one, no exp, sin or cos
inside); sin and cos become exponential pairs.  A power is computed by
square-and-multiply, and ``x^0`` is 1.  A product that could exceed
``MAX_TERMS`` terms is refused before it is computed, a sum whose merged
terms exceed it as soon as it is merged, and text whose
values leave the finite float range is refused.  Every refusal is a
``SolutionSyntaxError`` with a line and a column.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .parser import MAX_TERMS, Parser, TextSyntaxError
from .records import Record


def _merge(axes: tuple, triples) -> "ExpPoly":
    """Sum coefficients of equal (a, lam), drop zeros and sort by a, then
    by the (real, imag) pairs of lam.  The slope key is built once per
    distinct lam, and terms sort on (a, rank of lam)."""
    acc: dict = {}
    for a, lam, c in triples:
        key = (a, lam)
        acc[key] = acc.get(key, 0j) + c
    slopes = sorted({lam for _, lam in acc},
                    key=lambda lam: tuple((s.real, s.imag) for s in lam))
    rank = {lam: r for r, lam in enumerate(slopes)}
    ranked = sorted((a, rank[lam], lam, c) for (a, lam), c in acc.items() if c != 0)
    return ExpPoly(axes, tuple((a, lam, c) for a, _, lam, c in ranked))


@dataclass(frozen=True)
class ExpPoly:
    """Sum of c * x^a * exp(lam . x) over sorted (a, lam, c) terms on
    named axes; a holds ints, lam and c complex numbers."""

    axes: tuple
    terms: tuple

    def diff(self, axis: str) -> "ExpPoly":
        k = self.axes.index(axis)
        out = []
        for a, lam, c in self.terms:
            if lam[k]:
                out.append((a, lam, lam[k] * c))
            if a[k]:
                out.append((a[:k] + (a[k] - 1,) + a[k + 1:], lam, a[k] * c))
        return _merge(self.axes, out)

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
    return _merge(axes, [((0,) * n, (0j,) * n, complex(value))])


def _product(p: ExpPoly, q: ExpPoly) -> ExpPoly:
    return _merge(p.axes, (
        (tuple(x + y for x, y in zip(a, b)),
         tuple(x + y for x, y in zip(lam, mu)), c * d)
        for a, lam, c in p.terms for b, mu, d in q.terms
    ))


def _scaled(p: ExpPoly, factor: complex) -> ExpPoly:
    return _merge(p.axes, ((a, lam, factor * c) for a, lam, c in p.terms))


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


class _SolutionParser(Parser):
    """Solution text as an ExpPoly on the given axes; `overflow` is the
    position of the first value that left the finite float range."""

    TOKEN = _SOLUTION_TOKEN
    Error = SolutionSyntaxError

    def __init__(self, source: str, axes: Sequence[str]) -> None:
        super().__init__(source)
        self.axes = tuple(axes)
        self.overflow = None

    def _checked(self, value: ExpPoly, pos: int) -> ExpPoly:
        if self.overflow is None and not _finite(value):
            self.overflow = pos
        return value

    def negate(self, a: ExpPoly) -> ExpPoly:
        return _scaled(a, -1)

    def add(self, a: ExpPoly, b: ExpPoly, pos: int) -> ExpPoly:
        total = _merge(self.axes, a.terms + b.terms)
        if len(total.terms) > MAX_TERMS:
            raise self.error(
                f"solution expands beyond the limit of {MAX_TERMS} terms", pos)
        return self._checked(total, pos)

    def multiply(self, a: ExpPoly, b: ExpPoly, pos: int) -> ExpPoly:
        if len(a.terms) * len(b.terms) > MAX_TERMS:
            raise self.error(
                f"solution expands beyond the limit of {MAX_TERMS} terms", pos)
        return self._checked(_product(a, b), pos)

    def power(self, base: ExpPoly, n: int, pos: int) -> ExpPoly:
        # square-and-multiply: a few products even for a huge exponent
        out = _constant(self.axes, 1)
        while n:
            if n & 1:
                out = self.multiply(out, base, pos)
            n >>= 1
            if n:
                base = self.multiply(base, base, pos)
        return out

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
            raise self.error(f"unknown name {text!r} in solution text", pos)
        if text == "(":
            return self.nested(pos)
        raise self.error(f"unexpected token {text or 'end of input'!r}", pos)


def parse_solution(source: str, axes: Sequence[str]) -> ExpPoly:
    """Parse solution text; text whose coefficients or slopes leave the
    finite float range is refused at the first value that does."""
    parser = _SolutionParser(source, axes)
    expr = parser.parse()
    # a value that overflowed may cancel later, as in (2^2000)^0
    if not _finite(expr):
        raise parser.error(_OVERFLOW, parser.overflow)
    return expr


class ManufacturedSolution(Record):
    """Per-field exponential-polynomials on named axes, one ExpPoly per
    field.  Traces are memoised per (field, deriv) on the instance; the
    memo takes no part in equality, hashing or the repr."""

    __slots__ = ("axes", "fields", "_traces")
    _fields = ("axes", "fields")

    def __init__(self, axes: tuple, fields: tuple) -> None:
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "_traces", {})

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
        key = (field, tuple(deriv))
        if key not in self._traces:
            # climb axis by axis, reusing every memoised lower-order trace
            expr = self.fields[field]
            step = [0] * len(self.axes)
            for k, count in enumerate(key[1]):
                for _ in range(count):
                    step[k] += 1
                    lower, expr = expr, self._traces.get((field, tuple(step)))
                    if expr is None:
                        expr = lower.diff(self.axes[k])
                        self._traces[field, tuple(step)] = expr
            self._traces[key] = expr
        return self._traces[key]

    def derivative_sum(self, entries, shift: Sequence[complex] | None = None) -> ExpPoly:
        """sum coeff * d^deriv q_field over (coeff, field, deriv) entries,
        merged once.  A `shift` (one complex slope per axis) is added to
        every term's lam, which multiplies the sum by exp(shift . x).

        Derivatives are read from the trace memo.  A miss is filled by
        calling `trace`, so that every derivation still happens, and can
        be observed, there."""
        triples = []
        for coeff, field, deriv in entries:
            key = (field, tuple(deriv))
            if key not in self._traces:
                self.trace(field, deriv)
            triples.extend((a, lam, coeff * c) for a, lam, c in self._traces[key].terms)
        if shift is not None:
            shift = tuple(shift)
            triples = [(a, tuple(s + t for s, t in zip(lam, shift)), c)
                       for a, lam, c in triples]
        return _merge(self.axes, triples)
