"""Exponential-polynomial trial solutions with closed-form derivatives.

A solution field is a finite sum of terms ``c * x^a * exp(lam . x)``: per-axis
powers ``a``, complex per-axis slopes ``lam`` and a complex coefficient
``c``.  By the Ehrenpreis-Palamodov fundamental principle such sums span
the solution spaces of constant-coefficient systems, and the class is
closed under differentiation without growing:

    d/dx_k c x^a e^(lam.x) = lam_k c x^a e^(lam.x) + a_k c x^(a-e_k) e^(lam.x)

so every trace is differentiated in closed form, and a linear combination
of traces (times an exponential weight) is again one exponential-polynomial,
merged once before it is evaluated or integrated.  Small text grammar::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := NUMBER['i'] | 'i' | coordinate | exp(expr) | sin(expr)
              | cos(expr) | '(' expr ')'

The argument of exp, sin and cos must be affine in the coordinates
(degree at most one, no exp, sin or cos inside); sin and cos become
exponential pairs.  An expansion that could exceed ``MAX_TERMS`` terms is
refused before it is computed.
"""

from __future__ import annotations

import cmath
import dataclasses
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .parser import MAX_NESTING, MAX_TERMS


def _slope_order(term: tuple) -> tuple:
    a, lam, _ = term
    return a, tuple((s.real, s.imag) for s in lam)


def _merge(axes: tuple, triples) -> "ExpPoly":
    """Sum coefficients of equal (a, lam), drop zeros and sort."""
    acc: dict = {}
    for a, lam, c in triples:
        key = (a, lam)
        acc[key] = acc.get(key, 0j) + c
    terms = [(a, lam, c) for (a, lam), c in acc.items() if c != 0]
    return ExpPoly(axes, tuple(sorted(terms, key=_slope_order)))


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

    def evaluate(self, coords: Mapping) -> np.ndarray | complex:
        """Value at numeric coordinates (scalars or broadcastable arrays,
        one per axis).  Each x_j^p and each exp(lam . x) is computed once
        per call; at real coordinates exp(conj(lam) . x) is taken as the
        conjugate of exp(lam . x)."""
        x = [np.asarray(coords[name]) for name in self.axes]
        real = not any(np.iscomplexobj(v) for v in x)
        powers: dict = {}
        by_slope: dict = {}
        for a, lam, c in self.terms:
            part = c
            for j, p in enumerate(a):
                if p:
                    if (j, p) not in powers:
                        powers[j, p] = x[j] ** p
                    part = part * powers[j, p]
            by_slope[lam] = by_slope.get(lam, 0) + part
        exps: dict = {}
        total = 0j
        for lam, part in by_slope.items():
            if any(lam):
                mirror = tuple(s.conjugate() for s in lam)
                if real and mirror in exps:
                    exps[lam] = np.conj(exps[mirror])
                else:
                    exps[lam] = np.exp(sum(s * x[j] for j, s in enumerate(lam) if s))
                part = part * exps[lam]
            total = total + part
        return total


def _constant(axes: tuple, value: complex) -> ExpPoly:
    n = len(axes)
    return _merge(axes, [((0,) * n, (0j,) * n, complex(value))])


def _product(p: ExpPoly, q: ExpPoly) -> ExpPoly:
    if len(p.terms) * len(q.terms) > MAX_TERMS:
        raise SolutionSyntaxError(
            f"solution expands beyond the limit of {MAX_TERMS} terms"
        )
    return _merge(p.axes, (
        (tuple(x + y for x, y in zip(a, b)),
         tuple(x + y for x, y in zip(lam, mu)), c * d)
        for a, lam, c in p.terms for b, mu, d in q.terms
    ))


def _scaled(p: ExpPoly, factor: complex) -> ExpPoly:
    return _merge(p.axes, ((a, lam, factor * c) for a, lam, c in p.terms))


def _exp_of(name: str, arg: ExpPoly, rates: tuple) -> ExpPoly:
    """sum_r weight_r * exp(rate_r * arg) for an affine arg."""
    n = len(arg.axes)
    offset = 0j
    slopes = [0j] * n
    for a, lam, c in arg.terms:
        if any(lam) or sum(a) > 1:
            raise SolutionSyntaxError(
                f"{name} needs an argument affine in the coordinates"
            )
        if sum(a):
            slopes[a.index(1)] = c
        else:
            offset = c
    return _merge(arg.axes, (
        ((0,) * n, tuple(rate * s for s in slopes), weight * cmath.exp(rate * offset))
        for weight, rate in rates
    ))


# ---------------------------------------------------------------------------
# Text grammar

_SOLUTION_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?i?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*^()]))"
)

# (weight, rate) pairs: f(u) = sum weight * exp(rate * u).
_FUNCTIONS = {
    "exp": ((1, 1),),
    "sin": ((-0.5j, 1j), (0.5j, -1j)),
    "cos": ((0.5, 1j), (0.5, -1j)),
}


class SolutionSyntaxError(ValueError):
    pass


def _tokenize_solution(source: str) -> list:
    out = []
    pos = 0
    while pos < len(source):
        if not source[pos:].strip():
            break
        m = _SOLUTION_TOKEN.match(source, pos)
        if m is None:
            raise SolutionSyntaxError(
                f"unexpected character {source[pos:].lstrip()[0]!r} in solution text"
            )
        kind = m.lastgroup
        out.append((kind, m.group(kind)))
        pos = m.end()
    out.append(("eof", ""))
    return out


class _SolutionParser:
    def __init__(self, source: str, axes: Sequence[str]) -> None:
        self.tokens = _tokenize_solution(source)
        self.axes = tuple(axes)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> ExpPoly:
        expr = self.expr()
        kind, text = self.peek()
        if kind != "eof":
            raise SolutionSyntaxError(f"unexpected trailing {text!r}")
        return expr

    def expr(self) -> ExpPoly:
        sign = 1
        while self.peek()[1] in ("+", "-"):
            if self.next()[1] == "-":
                sign = -sign
        total = self.term()
        if sign < 0:
            total = _scaled(total, -1)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            if op == "-":
                rhs = _scaled(rhs, -1)
            total = _merge(self.axes, total.terms + rhs.terms)
        return total

    def term(self) -> ExpPoly:
        total = self.factor()
        while self.peek()[1] == "*":
            self.next()
            total = _product(total, self.factor())
        return total

    def factor(self) -> ExpPoly:
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        self.next()
        kind, text = self.next()
        if kind != "num" or not text.isdigit():
            raise SolutionSyntaxError("expected integer exponent after '^'")
        # square-and-multiply: a few products even for a huge exponent
        out = _constant(self.axes, 1)
        power = int(text)
        while power:
            if power & 1:
                out = _product(out, base)
            power >>= 1
            if power:
                base = _product(base, base)
        return out

    def nested(self) -> ExpPoly:
        """An expression inside parentheses, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise SolutionSyntaxError(
                f"parentheses nested deeper than {MAX_NESTING} levels"
            )
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        return inner

    def atom(self) -> ExpPoly:
        kind, text = self.next()
        if kind == "num":
            if text.endswith("i"):
                return _constant(self.axes, complex(0, float(text[:-1])))
            return _constant(self.axes, float(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                if self.peek()[1] != "(":
                    raise SolutionSyntaxError(f"{text} needs a parenthesised argument")
                self.next()
                inner = self.nested()
                if self.next()[1] != ")":
                    raise SolutionSyntaxError(f"unclosed argument of {text}")
                return _exp_of(text, inner, _FUNCTIONS[text])
            if text in self.axes:
                k = self.axes.index(text)
                n = len(self.axes)
                power = tuple(int(j == k) for j in range(n))
                return ExpPoly(self.axes, ((power, (0j,) * n, 1 + 0j),))
            if text == "i":
                return _constant(self.axes, 1j)
            raise SolutionSyntaxError(f"unknown name {text!r} in solution text")
        if text == "(":
            inner = self.nested()
            if self.next()[1] != ")":
                raise SolutionSyntaxError("unclosed parenthesis")
            return inner
        raise SolutionSyntaxError(f"unexpected token {text or 'end of input'!r}")


def parse_solution(source: str, axes: Sequence[str]) -> ExpPoly:
    """Parse solution text; text whose coefficients or slopes leave the
    finite float range is refused."""
    try:
        expr = _SolutionParser(source, axes).parse()
        finite = all(cmath.isfinite(v) for _, lam, c in expr.terms for v in (c, *lam))
    except OverflowError:
        finite = False
    if not finite:
        raise SolutionSyntaxError("solution coefficients overflow the float range")
    return expr


@dataclass(frozen=True)
class ManufacturedSolution:
    """Per-field exponential-polynomials on named axes.  Traces are
    memoised per (field, deriv) on the instance; the memo takes no part
    in equality or hashing."""

    axes: tuple
    fields: tuple  # one ExpPoly per field
    _traces: dict = dataclasses.field(default_factory=dict, compare=False,
                                      repr=False)

    @staticmethod
    def scalar(axes: Sequence[str], expr: ExpPoly | str) -> "ManufacturedSolution":
        if isinstance(expr, str):
            expr = parse_solution(expr, axes)
        return ManufacturedSolution(tuple(axes), (expr,))

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
