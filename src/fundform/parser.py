"""Text front end for operators.

Scalar grammar (UTF-8 text)::

    [params name(,name)*;] axes name(,name)*; expr

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor | '/' INT)*
    factor   := primary ('^' INT)?
    primary  := INT ('/' INT)? | IDENT | '(' expr ')'

``D<axis>`` is a derivative factor, a declared parameter name is a
symbolic constant, and a bare ``i`` (when not declared) is the imaginary
unit.  A ``/`` right after an integer literal belongs to the literal, so
``2/3^2`` is (2/3)^2; any other ``/`` divides the term so far by a
nonzero integer, as in ``nu/3*Dx^2`` or ``Dx^2/2``.  Matrix operators
come in as JSON:
``{"axes": [...], "params": [...], "fields": [...], "entries": [[expr text, ...], ...]}``.

Errors carry the offending position so the CLI can point at it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Sequence

from .algebra import MultiIndex
from .operators import MatrixPDO, Operator, ScalarPDO
from .ring import P_I, Poly, merge_terms

# Deepest parenthesis nesting the recursive-descent grammars accept; it
# keeps hostile input far from the interpreter's recursion limit.
MAX_NESTING = 100
# Highest total derivative order (and largest '^' exponent) operator text
# may reach.  Order 10 is the highest any shipped workload or test uses.
MAX_ORDER = 32
# Most terms an expansion may reach: (multi-index, coefficient monomial)
# pairs in operator text, exponential-polynomial terms in solution text.
# A product is refused when len(a) * len(b) exceeds it, before the work.
MAX_TERMS = 1024
# Most Gauss-Legendre nodes per axis a quadrature may use.  The 1000-node
# rule takes about 0.1 s to compute, and the cost grows faster than the
# node count.
MAX_NODES = 1000

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
                       r"|(?P<sym>[-+*^(),;/]))")


class OperatorSyntaxError(ValueError):
    """Raised on malformed operator text; carries the source position."""

    def __init__(self, message: str, source: str, pos: int) -> None:
        line = source.count("\n", 0, pos) + 1
        col = pos - (source.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.pos = pos
        self.line = line
        self.column = col


class _Tokens:
    def __init__(self, source: str) -> None:
        self.source = source
        self.items = []
        pos = 0
        while pos < len(source):
            m = _TOKEN_RE.match(source, pos)
            if m is None or m.end() == m.start():
                stripped = source[pos:].lstrip()
                if not stripped:
                    break
                bad = len(source) - len(stripped)
                raise OperatorSyntaxError(
                    f"unexpected character {source[bad]!r}", source, bad
                )
            kind = m.lastgroup
            self.items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.items.append(("eof", "", len(source)))
        self.index = 0

    def peek(self) -> tuple:
        return self.items[self.index]

    def next(self) -> tuple:
        tok = self.items[self.index]
        self.index += 1
        return tok

    def expect(self, value: str, what: str | None = None) -> tuple:
        kind, text, pos = self.peek()
        if text != value:
            expected = what or f"{value!r}"
            found = text or "end of input"
            raise OperatorSyntaxError(
                f"expected {expected}, found {found!r}" if text else
                f"expected {expected} before end of input",
                self.source, pos,
            )
        return self.next()


def _parse_name_list(tokens: _Tokens, what: str) -> list:
    names = []
    while True:
        kind, text, pos = tokens.next()
        if kind != "ident":
            raise OperatorSyntaxError(f"expected {what} name", tokens.source, pos)
        if text in names:
            raise OperatorSyntaxError(f"duplicate {what} name {text!r}",
                                      tokens.source, pos)
        names.append(text)
        if tokens.peek()[1] != ",":
            return names
        tokens.next()


class _ExprParser:
    """Parses an expression into (multi-index, Poly coefficient) pairs."""

    def __init__(self, tokens: _Tokens, axes: Sequence[str],
                 params: Sequence[str]) -> None:
        self.tokens = tokens
        self.axes = list(axes)
        self.params = set(params)
        self.depth = 0

    def _mono(self, axis: int, exp: int = 1) -> tuple:
        alpha = [0] * len(self.axes)
        alpha[axis] = exp
        return ((MultiIndex(alpha), Poly.const(1)),)

    @staticmethod
    def _const(poly: Poly, n: int) -> tuple:
        return ((MultiIndex.zero(n), poly),)

    def _mul(self, a: tuple, b: tuple, pos: int) -> tuple:
        """Product of two expansions, refused before any work when it
        could pass MAX_ORDER or MAX_TERMS."""
        order = max((alpha.order for alpha, _ in a), default=0) + max(
            (beta.order for beta, _ in b), default=0)
        if order > MAX_ORDER:
            raise OperatorSyntaxError(
                f"operator exceeds the order limit of {MAX_ORDER}",
                self.tokens.source, pos)
        size = sum(len(c.terms) for _, c in a) * sum(len(c.terms) for _, c in b)
        if size > MAX_TERMS:
            raise OperatorSyntaxError(
                f"operator expands beyond the limit of {MAX_TERMS} terms",
                self.tokens.source, pos)
        return merge_terms(
            (alpha + beta, ca * cb) for alpha, ca in a for beta, cb in b
        )

    def expr(self) -> tuple:
        sign = 1
        if self.tokens.peek()[1] in ("+", "-"):
            sign = -1 if self.tokens.next()[1] == "-" else 1
        total = self.term()
        if sign < 0:
            total = tuple((a, -c) for a, c in total)
        while self.tokens.peek()[1] in ("+", "-"):
            op = self.tokens.next()[1]
            rhs = self.term()
            if op == "-":
                rhs = tuple((a, -c) for a, c in rhs)
            total = merge_terms(total + rhs)
        return total

    def term(self) -> tuple:
        total = self.factor()
        while self.tokens.peek()[1] in ("*", "/"):
            _, op, pos = self.tokens.next()
            if op == "*":
                total = self._mul(total, self.factor(), pos)
            else:
                scale = Fraction(1, self._denominator())
                total = tuple((alpha, c.scale(scale)) for alpha, c in total)
        return total

    def _denominator(self) -> int:
        """The nonzero integer literal that follows a '/'."""
        kind, text, pos = self.tokens.next()
        if kind != "int" or int(text) == 0:
            raise OperatorSyntaxError("expected nonzero integer denominator",
                                      self.tokens.source, pos)
        return int(text)

    def factor(self) -> tuple:
        base = self.primary()
        if self.tokens.peek()[1] != "^":
            return base
        self.tokens.next()
        kind, text, pos = self.tokens.next()
        if kind != "int" or int(text) < 1:
            raise OperatorSyntaxError("expected positive integer exponent",
                                      self.tokens.source, pos)
        power = int(text)
        if power > MAX_ORDER:
            raise OperatorSyntaxError(
                f"exponent exceeds the order limit of {MAX_ORDER}",
                self.tokens.source, pos)
        out = self._const(Poly.const(1), len(self.axes))
        for _ in range(power):
            out = self._mul(out, base, pos)
        return out

    def primary(self) -> tuple:
        kind, text, pos = self.tokens.next()
        n = len(self.axes)
        if kind == "int":
            value = Fraction(int(text))
            if self.tokens.peek()[1] == "/":
                self.tokens.next()
                value /= self._denominator()
            return self._const(Poly.const(value), n)
        if kind == "ident":
            if text.startswith("D") and text[1:] in self.axes:
                return self._mono(self.axes.index(text[1:]))
            if text in self.params:
                return self._const(Poly.var(text), n)
            if text == "i":
                return self._const(P_I, n)
            if text.startswith("D") and len(text) > 1:
                raise OperatorSyntaxError(f"unknown axis {text[1:]!r}",
                                          self.tokens.source, pos)
            raise OperatorSyntaxError(f"unknown parameter or axis name {text!r}",
                                      self.tokens.source, pos)
        if text == "(":
            if self.depth == MAX_NESTING:
                raise OperatorSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING} levels",
                    self.tokens.source, pos,
                )
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.tokens.expect(")")
            return inner
        found = text or "end of input"
        raise OperatorSyntaxError(
            f"expected a coefficient, D<axis> factor or '(', found {found!r}",
            self.tokens.source, pos,
        )


def _parse_header(tokens: _Tokens) -> tuple:
    params: list = []
    kind, text, pos = tokens.peek()
    if text == "params":
        tokens.next()
        params = _parse_name_list(tokens, "parameter")
        tokens.expect(";")
        kind, text, pos = tokens.peek()
    if text != "axes":
        raise OperatorSyntaxError("expected 'axes' declaration", tokens.source, pos)
    tokens.next()
    axes = _parse_name_list(tokens, "axis")
    tokens.expect(";")
    clash = set(axes) & set(params)
    if clash:
        raise OperatorSyntaxError(
            f"name declared as both axis and parameter: {sorted(clash)}",
            tokens.source, pos,
        )
    return axes, params


def parse_scalar_operator(source: str) -> ScalarPDO:
    tokens = _Tokens(source)
    axes, params = _parse_header(tokens)
    terms = _ExprParser(tokens, axes, params).expr()
    kind, text, pos = tokens.peek()
    if kind != "eof":
        raise OperatorSyntaxError(f"unexpected trailing input {text!r}",
                                  tokens.source, pos)
    return ScalarPDO.build(axes, terms)


def _parse_entry(source: str, axes: Sequence[str],
                 params: Sequence[str]) -> ScalarPDO:
    tokens = _Tokens(source)
    terms = _ExprParser(tokens, axes, params).expr()
    kind, text, pos = tokens.peek()
    if kind != "eof":
        raise OperatorSyntaxError(f"unexpected trailing input {text!r}",
                                  tokens.source, pos)
    return ScalarPDO.build(axes, terms)


def parse_matrix_operator(source: str | dict) -> MatrixPDO:
    data = json.loads(source) if isinstance(source, str) else source
    for key in ("axes", "fields", "entries"):
        if key not in data:
            raise ValueError(f"matrix operator JSON is missing {key!r}")
    axes = list(data["axes"])
    params = list(data.get("params", []))
    fields = list(data["fields"])
    entries = data["entries"]
    m = len(fields)
    if len(entries) != m or any(len(row) != m for row in entries):
        raise ValueError(
            f"matrix operator must be square: expected {m}x{m} entries"
        )
    grid = tuple(
        tuple(_parse_entry(text, axes, params) for text in row)
        for row in entries
    )
    return MatrixPDO(tuple(axes), tuple(fields), grid)


def parse_operator(source: str) -> Operator:
    """Parse either grammar; JSON objects are matrix operators."""
    if source.lstrip().startswith("{"):
        return parse_matrix_operator(source)
    return parse_scalar_operator(source)


def _coeff_dsl(poly: Poly) -> tuple:
    """Render a coefficient in grammar-compatible text, factoring a leading
    minus sign out of single-term negative-real coefficients."""
    terms = poly.terms
    if len(terms) != 1:
        return 1, "(" + _poly_dsl(poly) + ")"
    mono, coeff = terms[0]
    sign = 1
    if coeff.re < 0 or (coeff.re == 0 and coeff.im < 0):
        sign, coeff = -1, -coeff
    parts = []
    if coeff.im == 0:
        if coeff.re != 1 or not mono:
            parts.append(str(coeff.re))
    elif coeff.re == 0:
        if coeff.im != 1:
            parts.append(str(coeff.im))
        parts.append("i")
    else:
        parts.append(f"({coeff.re}+{coeff.im}*i)" if coeff.im > 0
                     else f"({coeff.re}-{-coeff.im}*i)")
    parts.extend(
        name if exp == 1 else f"{name}^{exp}" for name, exp in mono
    )
    return sign, "*".join(parts)


def _poly_dsl(poly: Poly) -> str:
    pieces = []
    for mono, coeff in poly.terms:
        sign, text = _coeff_dsl(Poly([(mono, coeff)]))
        pieces.append(("-" if sign < 0 else "+", text))
    if not pieces:
        return "0"
    first_sign, first = pieces[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def format_scalar_operator(op: ScalarPDO, header: bool = True) -> str:
    chunks = []
    for alpha, coeff in op.terms:
        mono = "*".join(
            f"D{op.axes[k]}" + (f"^{e}" if e > 1 else "")
            for k, e in enumerate(alpha) if e
        )
        sign, ctext = _coeff_dsl(coeff)
        if not mono:
            text = ctext
        elif ctext:
            text = f"{ctext}*{mono}"
        else:
            text = mono
        chunks.append(("-" if sign < 0 else "+", text))
    if not chunks:
        body = "0"
    else:
        body = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
        for sign, text in chunks[1:]:
            body += f" {sign} {text}"
    if not header:
        return body
    params = sorted(
        {name for _, coeff in op.terms for name in coeff.variables()}
    )
    prefix = f"params {','.join(params)}; " if params else ""
    return f"{prefix}axes {','.join(op.axes)}; {body}"


def format_matrix_operator(op: MatrixPDO) -> str:
    params = sorted(
        {
            name
            for row in op.entries
            for entry in row
            for _, coeff in entry.terms
            for name in coeff.variables()
        }
    )
    return json.dumps(
        {
            "axes": list(op.axes),
            "params": params,
            "fields": list(op.fields),
            "entries": [
                [format_scalar_operator(entry, header=False) for entry in row]
                for row in op.entries
            ],
        },
        indent=2,
    )


def format_operator(op: Operator) -> str:
    if isinstance(op, ScalarPDO):
        return format_scalar_operator(op)
    return format_matrix_operator(op)


def parse_poly(source: str, names: Sequence[str]) -> Poly:
    """Parse a polynomial in the given names with the expression grammar
    (no derivative factors); used for spectral values on the CLI."""
    tokens = _Tokens(source)
    table = _ExprParser(tokens, [], names).expr()
    kind, text, pos = tokens.peek()
    if kind != "eof":
        raise OperatorSyntaxError(f"unexpected trailing input {text!r}",
                                  tokens.source, pos)
    return dict(table).get(MultiIndex(()), Poly())
