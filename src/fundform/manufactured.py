"""Closed-form trial solutions with exact symbolic differentiation.

Expression trees over coordinate powers, exp, sin and cos with complex
coefficients; closed under sums, products and differentiation, so every
boundary trace is differentiated symbolically and only then evaluated
(vectorised over numpy grids).  Small text grammar::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' INT)?
    atom   := NUMBER['i'] | 'i' | coordinate | exp(expr) | sin(expr)
              | cos(expr) | '(' expr ')'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .parser import MAX_NESTING


class Expr:
    __slots__ = ()

    def diff(self, axis: str) -> "Expr":
        raise NotImplementedError

    def evaluate(self, coords: Mapping) -> np.ndarray | complex:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: complex

    def diff(self, axis: str) -> Expr:
        return ZERO

    def evaluate(self, coords):
        return self.value


@dataclass(frozen=True)
class Coord(Expr):
    name: str

    def diff(self, axis: str) -> Expr:
        return ONE if axis == self.name else ZERO

    def evaluate(self, coords):
        return coords[self.name]


@dataclass(frozen=True)
class Add(Expr):
    args: tuple

    def diff(self, axis: str) -> Expr:
        return add(*(a.diff(axis) for a in self.args))

    def evaluate(self, coords):
        total = self.args[0].evaluate(coords)
        for a in self.args[1:]:
            total = total + a.evaluate(coords)
        return total


@dataclass(frozen=True)
class Mul(Expr):
    args: tuple

    def diff(self, axis: str) -> Expr:
        parts = []
        for i, arg in enumerate(self.args):
            rest = self.args[:i] + self.args[i + 1:]
            parts.append(mul(arg.diff(axis), *rest))
        return add(*parts)

    def evaluate(self, coords):
        total = self.args[0].evaluate(coords)
        for a in self.args[1:]:
            total = total * a.evaluate(coords)
        return total


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def diff(self, axis: str) -> Expr:
        if self.exponent == 0:
            return ZERO
        return mul(Const(self.exponent), power(self.base, self.exponent - 1),
                   self.base.diff(axis))

    def evaluate(self, coords):
        return self.base.evaluate(coords) ** self.exponent


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr

    def diff(self, axis: str) -> Expr:
        return mul(self.arg.diff(axis), self)

    def evaluate(self, coords):
        return np.exp(self.arg.evaluate(coords))


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr

    def diff(self, axis: str) -> Expr:
        return mul(self.arg.diff(axis), Cos(self.arg))

    def evaluate(self, coords):
        return np.sin(self.arg.evaluate(coords))


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr

    def diff(self, axis: str) -> Expr:
        return mul(Const(-1), self.arg.diff(axis), Sin(self.arg))

    def evaluate(self, coords):
        return np.cos(self.arg.evaluate(coords))


ZERO = Const(0)
ONE = Const(1)


def add(*args: Expr) -> Expr:
    flat: list = []
    const = 0j
    for a in args:
        if isinstance(a, Add):
            flat.extend(a.args)
        elif isinstance(a, Const):
            const += a.value
        else:
            flat.append(a)
    pure = [a for a in flat if not isinstance(a, Const)]
    const += sum(a.value for a in flat if isinstance(a, Const))
    if const != 0:
        pure.append(Const(const))
    if not pure:
        return ZERO
    if len(pure) == 1:
        return pure[0]
    return Add(tuple(pure))


def mul(*args: Expr) -> Expr:
    flat: list = []
    const = 1 + 0j
    for a in args:
        if isinstance(a, Mul):
            flat.extend(a.args)
        else:
            flat.append(a)
    pure = []
    for a in flat:
        if isinstance(a, Const):
            const *= a.value
        else:
            pure.append(a)
    if const == 0:
        return ZERO
    if const != 1:
        pure.insert(0, Const(const))
    if not pure:
        return ONE
    if len(pure) == 1:
        return pure[0]
    return Mul(tuple(pure))


def power(base: Expr, exponent: int) -> Expr:
    if exponent < 0:
        raise ValueError("negative powers are not supported")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** exponent)
    return Pow(base, exponent)


def derivative(expr: Expr, deriv: Sequence[int], axes: Sequence[str]) -> Expr:
    for axis, count in zip(axes, deriv):
        for _ in range(count):
            expr = expr.diff(axis)
    return expr


# ---------------------------------------------------------------------------
# Text grammar

_SOLUTION_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?i?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*^()]))"
)

_FUNCTIONS = {"exp": Exp, "sin": Sin, "cos": Cos}


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
        self.axes = set(axes)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> Expr:
        expr = self.expr()
        kind, text = self.peek()
        if kind != "eof":
            raise SolutionSyntaxError(f"unexpected trailing {text!r}")
        return expr

    def expr(self) -> Expr:
        sign = 1
        while self.peek()[1] in ("+", "-"):
            if self.next()[1] == "-":
                sign = -sign
        total = self.term()
        if sign < 0:
            total = mul(Const(-1), total)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            total = add(total, rhs if op == "+" else mul(Const(-1), rhs))
        return total

    def term(self) -> Expr:
        total = self.factor()
        while self.peek()[1] == "*":
            self.next()
            total = mul(total, self.factor())
        return total

    def factor(self) -> Expr:
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        self.next()
        kind, text = self.next()
        if kind != "num" or not text.isdigit():
            raise SolutionSyntaxError("expected integer exponent after '^'")
        return power(base, int(text))

    def nested(self) -> Expr:
        """An expression inside parentheses, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise SolutionSyntaxError(
                f"parentheses nested deeper than {MAX_NESTING} levels"
            )
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        return inner

    def atom(self) -> Expr:
        kind, text = self.next()
        if kind == "num":
            if text.endswith("i"):
                return Const(complex(0, float(text[:-1])))
            return Const(complex(float(text)))
        if kind == "ident":
            if text in _FUNCTIONS:
                if self.peek()[1] != "(":
                    raise SolutionSyntaxError(f"{text} needs a parenthesised argument")
                self.next()
                inner = self.nested()
                if self.next()[1] != ")":
                    raise SolutionSyntaxError(f"unclosed argument of {text}")
                return _FUNCTIONS[text](inner)
            if text in self.axes:
                return Coord(text)
            if text == "i":
                return Const(1j)
            raise SolutionSyntaxError(f"unknown name {text!r} in solution text")
        if text == "(":
            inner = self.nested()
            if self.next()[1] != ")":
                raise SolutionSyntaxError("unclosed parenthesis")
            return inner
        raise SolutionSyntaxError(f"unexpected token {text or 'end of input'!r}")


def parse_solution(source: str, axes: Sequence[str]) -> Expr:
    return _SolutionParser(source, axes).parse()


@dataclass(frozen=True)
class ManufacturedSolution:
    """Per-field closed-form expressions on named axes."""

    axes: tuple
    fields: tuple  # one Expr per field

    @staticmethod
    def scalar(axes: Sequence[str], expr: Expr | str) -> "ManufacturedSolution":
        if isinstance(expr, str):
            expr = parse_solution(expr, axes)
        return ManufacturedSolution(tuple(axes), (expr,))

    @staticmethod
    def system(axes: Sequence[str], exprs: Sequence) -> "ManufacturedSolution":
        parsed = tuple(
            parse_solution(e, axes) if isinstance(e, str) else e for e in exprs
        )
        return ManufacturedSolution(tuple(axes), parsed)

    def trace(self, field: int, deriv: Sequence[int]) -> Expr:
        return derivative(self.fields[field], deriv, self.axes)
