"""Text front end: one expression parser for every text input.

Every text grammar of fundform is read by one recursive descent::

    expr   := ('+'|'-')* term (('+'|'-') term)*
    term   := factor ('*' factor | '/' INT)*
    factor := atom ('^' INT)?

Parentheses nest at most ``MAX_NESTING`` levels deep, and every error
carries its line and column.  A grammar (a ``Parser`` subclass) supplies
its token pattern, its atoms and the arithmetic of its values.  This
module holds the operator grammar, which reads operator text, matrix
entries, spectral values and box endpoints (UTF-8 text)::

    [params name(,name)*;] axes name(,name)*; expr
    atom := INT ('/' INT)? ['i'] | IDENT | '(' expr ')'

``D<axis>`` is a derivative factor, a declared parameter name is a
symbolic constant, and ``i`` is the imaginary unit.  A ``/`` right after
an integer literal belongs to the literal, so ``2/3^2`` is (2/3)^2; any
other ``/`` divides the term so far by a nonzero integer, as in
``nu/3*Dx^2`` or ``Dx^2/2``.  An ``i`` right after a literal's last
digit makes the whole literal imaginary: ``2i`` is 2*i and ``-1/2i`` is
-(1/2)*i.  A divisor takes no suffix, so ``Dx^2/2i`` is refused.  This is
how ``Poly.to_text`` writes exact values, so every expression the engine
prints reads back to its value.

An operator expression is a sorted tuple of (multi-index, nonzero
coefficient) pairs, one per multi-index.  A sum keeps a running count of
its merged terms, is refused at the first '+' or '-' that takes the count
past ``MAX_TERMS``, and is merged once, at its end.  A product or power
that could pass ``MAX_ORDER`` or ``MAX_TERMS`` is refused before it is
formed; for a product of two one-term expansions, the common case, both
bounds are read off the two terms.  A product with a one-term factor is
then formed with no merge (every key of the other factor moves by one
multi-index), and a one-term power whose coefficient is one monomial in
one step; any other power multiplies one factor at a time, each step
checked.  An integer literal stays an ``int`` unless a '/' makes it a
``Fraction``, and the unit coefficient of a derivative factor is kept
through products and powers, not multiplied.

No axis, parameter, field or spectral name is ``i`` (``ring.is_name``).
Matrix operators come in as JSON:
``{"axes": [...], "params": [...], "fields": [...], "entries": [[expr text, ...], ...]}``.
The solution grammar lives in ``manufactured``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Sequence

from .algebra import MultiIndex
from .operators import MatrixPDO, Operator, ScalarPDO
from .ring import (P_I, P_ONE, GaussianRational, Poly, is_name, merge_terms, quoted,
                   quoted_names)

# Deepest parenthesis nesting the recursive-descent grammars accept; it
# keeps hostile input far from the interpreter's recursion limit.
MAX_NESTING = 100
# Highest total derivative order (and largest '^' exponent) operator text
# may reach.  Order 10 is the highest any shipped workload or test uses.
MAX_ORDER = 32
# Most terms an expansion may reach: (multi-index, coefficient monomial)
# pairs in operator text, exponential-polynomial terms in solution text.
# A product is refused when len(a) * len(b) exceeds it, before the work,
# and a sum when its merged terms do.  The entries of a matrix operator
# share one budget of MAX_TERMS terms.
MAX_TERMS = 1024
# Most axes an operator may declare, checked before any term is read.  At
# this limit 1024 terms of order 32 decompose in about 7 s and 165 MB
# (Python 3.11, shared 2-CPU host); the cost grows with the axis count.
MAX_AXES = 64
# Most Gauss-Legendre nodes per axis a quadrature may use.  The 1000-node
# rule takes about 0.2 s to compute (Python 3.11, shared 2-CPU host), and
# the cost grows with the square of the node count.
MAX_NODES = 1000

_TOKEN_RE = re.compile(r"\s*(?:(?P<imag>\d+i)|(?P<int>\d+)"
                       r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[-+*^(),;/]))")


class TextSyntaxError(ValueError):
    """Raised on malformed text; carries the source position."""

    def __init__(self, message: str, source: str, pos: int) -> None:
        line = source.count("\n", 0, pos) + 1
        col = pos - (source.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.pos = pos
        self.line = line
        self.column = col


class OperatorSyntaxError(TextSyntaxError):
    """Raised on malformed operator, matrix-entry or spectral text."""


class Parser:
    """The recursive descent of the module docstring over one text.

    A grammar sets ``TOKEN`` (a pattern with the groups ``int``, ``ident``
    and ``sym``, and any of its own), ``Error`` and ``Sum``, and supplies
    ``atom()`` and the arithmetic of its values: ``negate(a)``,
    ``multiply(a, b, pos)``, ``power(a, n, pos)`` and, when its ``sym``
    group has '/', ``divide(a, n)``.  ``pos`` is the index of the operator
    in the text.  ``Sum(parser, a)`` is a running sum that starts at `a`:
    its ``add(b, pos)`` adds one term and checks the sum so far, and its
    ``total()`` is the sum, merged once.
    """

    TOKEN: re.Pattern
    Error = TextSyntaxError
    Sum: type

    def __init__(self, source: str) -> None:
        self.source = source
        self.items = items = []
        pos = 0
        for m in iter(self.TOKEN.scanner(source).match, None):
            kind = m.lastgroup
            items.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        pos = len(source) - len(source[pos:].lstrip())
        if pos < len(source):
            raise self.error(f"unexpected character {source[pos]!r}", pos)
        self.items.append(("eof", "", pos))
        self.index = 0
        self.depth = 0

    def error(self, message: str, pos: int) -> TextSyntaxError:
        return self.Error(message, self.source, pos)

    def peek(self) -> tuple:
        return self.items[self.index]

    def next(self) -> tuple:
        tok = self.items[self.index]
        self.index += 1
        return tok

    def expect(self, value: str) -> None:
        _, text, pos = self.next()
        if text != value:
            raise self.error(f"expected {value!r}, found {quoted(text)}" if text else
                             f"expected {value!r} before end of input", pos)

    def end(self) -> None:
        kind, text, pos = self.peek()
        if kind != "eof":
            raise self.error(f"unexpected trailing input {quoted(text)}", pos)

    def parse(self):
        """The whole text as one expression."""
        value = self.expr()
        self.end()
        return value

    def expr(self):
        negative = False
        while self.peek()[1] in ("+", "-"):
            negative ^= self.next()[1] == "-"
        first = self.term()
        if negative:
            first = self.negate(first)
        if self.peek()[1] not in ("+", "-"):
            return first
        total = self.Sum(self, first)
        while self.peek()[1] in ("+", "-"):
            _, op, pos = self.next()
            rhs = self.term()
            total.add(self.negate(rhs) if op == "-" else rhs, pos)
        return total.total()

    def term(self):
        total = self.factor()
        while self.peek()[1] in ("*", "/"):
            _, op, pos = self.next()
            if op == "*":
                total = self.multiply(total, self.factor(), pos)
            else:
                total = self.divide(total, self.denominator())
        return total

    def integer(self, text: str, pos: int) -> int:
        """The integer token `text` at `pos`; refused there when too long."""
        try:
            return int(text)
        except ValueError:
            raise self.error(
                f"integer of {len(text)} digits is too long", pos) from None

    def denominator(self) -> int:
        """The nonzero integer literal that follows a '/'."""
        kind, text, pos = self.next()
        value = self.integer(text, pos) if kind == "int" else 0
        if value == 0:
            raise self.error("expected nonzero integer denominator", pos)
        return value

    def factor(self):
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        self.next()
        kind, text, pos = self.next()
        if kind != "int":
            raise self.error("expected integer exponent", pos)
        return self.power(base, self.integer(text, pos), pos)

    def nested(self, pos: int):
        """The expression after the '(' at `pos`, and its ')'."""
        if self.depth == MAX_NESTING:
            raise self.error(
                f"parentheses nested deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        inner = self.expr()
        self.depth -= 1
        self.expect(")")
        return inner


def _parse_name_list(parser: Parser, what: str) -> list:
    names = []
    seen = set()
    while True:
        _, text, pos = parser.next()
        if not is_name(text):
            raise parser.error(f"expected {what} name other than 'i'", pos)
        if text in seen:
            raise parser.error(f"duplicate {what} name {quoted(text)}", pos)
        names.append(text)
        seen.add(text)
        if parser.peek()[1] != ",":
            return names
        parser.next()


def _parse_header(parser: Parser) -> tuple:
    params: list = []
    kind, text, pos = parser.peek()
    if text == "params":
        parser.next()
        params = _parse_name_list(parser, "parameter")
        parser.expect(";")
        kind, text, pos = parser.peek()
    if text != "axes":
        raise parser.error("expected 'axes' declaration", pos)
    parser.next()
    axes = _parse_name_list(parser, "axis")
    if len(axes) > MAX_AXES:
        raise parser.error(f"operator has more than {MAX_AXES} axes", pos)
    parser.expect(";")
    clash = set(axes) & set(params)
    if clash:
        raise parser.error(
            "name declared as both axis and parameter: "
            f"{quoted_names(sorted(clash))}", pos)
    return axes, params


def term_count(terms: tuple) -> int:
    """The (multi-index, coefficient monomial) pairs of an expansion."""
    return sum(len(coeff.terms) for _, coeff in terms)


class _OperatorSum:
    """A sum of expansions read term by term: the coefficients by
    multi-index and the count of their monomials, so that every '+' is
    checked against MAX_TERMS as a merge of the sum so far would be, and
    the sum is merged once, at its end."""

    def __init__(self, parser: Parser, first: tuple) -> None:
        self.parser = parser
        self.coeffs = dict(first)
        self.count = term_count(first)

    def add(self, b: tuple, pos: int) -> None:
        coeffs = self.coeffs
        for alpha, c in b:
            prev = coeffs.get(alpha)
            if prev is not None:
                self.count -= len(prev.terms)
                c = prev + c
            if c:
                coeffs[alpha] = c
                self.count += len(c.terms)
            elif prev is not None:
                del coeffs[alpha]
        if self.count > MAX_TERMS:
            raise self.parser.error(
                f"operator expands beyond the limit of {MAX_TERMS} terms", pos)

    def total(self) -> tuple:
        return merge_terms(self.coeffs.items())


class _OperatorParser(Parser):
    """Operator text as (multi-index, Poly coefficient) pairs.  Without
    `axes` the text starts with its own header."""

    TOKEN = _TOKEN_RE
    Error = OperatorSyntaxError
    Sum = _OperatorSum

    def __init__(self, source: str, axes: Sequence[str] | None = None,
                 params: Sequence[str] = ()) -> None:
        super().__init__(source)
        if axes is None:
            axes, params = _parse_header(self)
        self.axes = list(axes)
        self.params = set(params)
        self.zero = MultiIndex._trusted((0,) * len(self.axes))

    def _const(self, poly: Poly) -> tuple:
        return ((self.zero, poly),)

    def negate(self, a: tuple) -> tuple:
        return tuple((alpha, -c) for alpha, c in a)

    def divide(self, a: tuple, n: int) -> tuple:
        scale = Fraction(1, n)
        return tuple((alpha, c.scale(scale)) for alpha, c in a)

    def multiply(self, a: tuple, b: tuple, pos: int) -> tuple:
        """Product of two expansions, refused before any work when it
        could pass MAX_ORDER or MAX_TERMS."""
        if len(a) == 1 and len(b) == 1:
            # the common case, read off the two terms
            (alpha, ca), = a
            (beta, cb), = b
            order = alpha.order + beta.order
            count = len(ca.terms) * len(cb.terms)
        else:
            order = max((alpha.order for alpha, _ in a), default=0) + max(
                (beta.order for beta, _ in b), default=0)
            count = term_count(a) * term_count(b)
        if order > MAX_ORDER:
            raise self.error(f"operator exceeds the order limit of {MAX_ORDER}", pos)
        if count > MAX_TERMS:
            raise self.error(
                f"operator expands beyond the limit of {MAX_TERMS} terms", pos)
        # Times one term, every key moves by the same multi-index, which
        # keeps the keys distinct and in order, and no product of nonzero
        # coefficients is zero: the result is already canonical.  A
        # derivative factor's unit coefficient multiplies by nothing.
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            (alpha, ca), = a
            return tuple((alpha + beta, cb if ca is P_ONE else
                          ca if cb is P_ONE else ca * cb) for beta, cb in b)
        return merge_terms(
            (alpha + beta, ca * cb) for alpha, ca in a for beta, cb in b
        )

    def power(self, base: tuple, n: int, pos: int) -> tuple:
        """`base` to the `n`th power, refused where the products that form
        it one factor at a time would be."""
        if n < 1:
            raise self.error("expected positive integer exponent", pos)
        if n > MAX_ORDER:
            raise self.error(f"exponent exceeds the order limit of {MAX_ORDER}", pos)
        # One term with a one-monomial coefficient stays one term of one
        # monomial, so only the order bound can refuse it.  A coefficient
        # of several monomials grows, and keeps the per-step checks.
        if len(base) == 1 and len(base[0][1].terms) == 1:
            (alpha, c), = base
            if n * alpha.order > MAX_ORDER:
                raise self.error(
                    f"operator exceeds the order limit of {MAX_ORDER}", pos)
            return ((MultiIndex._trusted([e * n for e in alpha]),
                     c if c is P_ONE else c ** n),)
        out = base
        for _ in range(n - 1):
            out = self.multiply(out, base, pos)
        return out

    def atom(self) -> tuple:
        kind, text, pos = self.next()
        if kind in ("int", "imag"):
            value = self.integer(text.rstrip("i"), pos)
            if kind == "int" and self.peek()[1] == "/":
                self.next()
                # the divisor's 'i' suffix makes the whole literal imaginary
                kind, text, pos = self.next()
                q = self.integer(text.rstrip("i"), pos) if kind in ("int", "imag") else 0
                if q == 0:
                    raise self.error("expected nonzero integer denominator", pos)
                value = Fraction(value, q)
            if kind == "imag":
                value = GaussianRational(0, value)
            # a zero literal is the empty expansion: no expansion holds a
            # zero coefficient
            return self._const(Poly.const(value)) if value else ()
        if kind == "ident":
            if text == "i":
                return self._const(P_I)
            if text.startswith("D") and text[1:] in self.axes:
                alpha = [0] * len(self.axes)
                alpha[self.axes.index(text[1:])] = 1
                return ((MultiIndex._trusted(alpha), P_ONE),)
            if text in self.params:
                return self._const(Poly.var(text))
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


def parse_scalar_operator(source: str) -> ScalarPDO:
    parser = _OperatorParser(source)
    return ScalarPDO.build(parser.axes, parser.parse())


def _json_names(data: dict, key: str, what: str, optional: bool = False) -> list:
    """data[key] as a list of distinct names (see ``is_name``), and at
    least one unless `optional` (the header's rules)."""
    names = data.get(key, [])
    if not isinstance(names, list) or not (names or optional) or not all(
            map(is_name, names)):
        kind = "list" if optional else "non-empty list"
        raise ValueError(f"matrix operator {key!r} must be a {kind} of {what} "
                         "names other than 'i'")
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate {what} name {quoted(name)} in matrix operator {key!r}")
        seen.add(name)
    return names


def parse_matrix_operator(source: str | dict) -> MatrixPDO:
    """A matrix operator from its JSON object.  The names follow the
    header's rules, the entries are m lists of m operator texts, and all
    entries together count at most MAX_TERMS terms, each at least one."""
    try:
        data = json.loads(source) if isinstance(source, str) else source
    except RecursionError:
        raise ValueError("matrix operator JSON is nested deeper than the JSON "
                         "reader allows") from None
    for key in ("axes", "fields", "entries"):
        if key not in data:
            raise ValueError(f"matrix operator JSON is missing {key!r}")
    axes = _json_names(data, "axes", "axis")
    if len(axes) > MAX_AXES:
        raise ValueError(f"matrix operator has more than {MAX_AXES} axes")
    params = _json_names(data, "params", "parameter", optional=True)
    fields = _json_names(data, "fields", "field")
    clash = set(axes) & set(params)
    if clash:
        raise ValueError("name declared as both axis and parameter: "
                         f"{quoted_names(sorted(clash))}")
    entries = data["entries"]
    m = len(fields)
    if not isinstance(entries, list) or len(entries) != m or not all(
            isinstance(row, list) and len(row) == m
            and all(isinstance(text, str) for text in row) for row in entries):
        raise ValueError(
            f"matrix operator entries must be a {m}x{m} list of lists of "
            "operator texts"
        )
    if m * m > MAX_TERMS:
        raise ValueError(f"matrix operator has more than {MAX_TERMS} entries")
    budget = MAX_TERMS
    grid = []
    for row in entries:
        grid.append([])
        for text in row:
            terms = _OperatorParser(text, axes, params).parse()
            budget -= max(1, term_count(terms))
            if budget < 0:
                raise ValueError(
                    f"matrix operator expands beyond the limit of {MAX_TERMS} "
                    "terms in all")
            grid[-1].append(ScalarPDO.build(axes, terms))
    return MatrixPDO(tuple(axes), tuple(fields), grid)


def parse_operator(source: str) -> Operator:
    """Parse either grammar; JSON objects are matrix operators."""
    if source.lstrip().startswith("{"):
        return parse_matrix_operator(source)
    return parse_scalar_operator(source)


def parse_poly(source: str, names: Sequence[str]) -> Poly:
    """Parse a polynomial in the given names with the expression grammar
    (no derivative factors); used for spectral values on the CLI."""
    table = _OperatorParser(source, (), names).parse()
    return dict(table).get(MultiIndex(()), Poly())


def parse_names(source: str, what: str) -> list:
    """A comma-separated list of distinct names, read by the header's
    rule; `what` names them in errors."""
    parser = _OperatorParser(source, ())
    names = _parse_name_list(parser, what)
    parser.end()
    return names
