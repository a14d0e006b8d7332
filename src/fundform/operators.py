"""Constant-coefficient linear differential operators, scalar and matrix.

A scalar operator is a finite sum  sum_alpha c_alpha d^alpha  with exact
coefficients; a matrix operator is a square grid of scalar ones acting on
named fields.  This module supplies the formal adjoint, polynomial
symbols, and the bilinear pairing ``qt L q - q L^+ qt`` that the
decomposition engine consumes.  The slopes ``sign * i * sigma_k`` of an
exponential ``exp(sign * i * sigma . x)`` come from ``exponential_slopes``
alone, for symbols and substitutions alike, and ``check_sigma_count`` is
the one rule that a spectral point gives one value per axis.
``adjoint_rows`` is the one adjoint check, the rows of L^+ applied to
A exp(sign * i * sigma . x), for any square system; its amplitudes A, like
a substitution's, go through ``field_amplitudes``, the one rule that a
test function carries one amplitude per test field.

A scalar operator is canonicalised once.  Its constructor coerces,
checks and merges terms that come from outside; what the engine builds
is canonical already, and ``ScalarPDO._trusted`` wraps it without a
second pass: the parser's expansions (sorted, merged, nonzero, with
``MultiIndex`` keys and ``Poly`` coefficients), ``adjoint``, which only
negates coefficients, and the one-term operators of
``decompose.term_pieces``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import BilinearExpr, MultiIndex, _packed, _pairing, pack
from .ring import (P_I, P_ONE, Poly, PolyLike, QI_I, is_name, merge_terms,
                   quoted_names)


@dataclass(frozen=True)
class ScalarPDO:
    """Scalar operator: canonical map multi-index -> exact coefficient,
    held as (MultiIndex, Poly) pairs sorted by multi-index.  The
    constructor coerces, checks and merges its terms; ``_trusted`` wraps
    terms that are canonical already."""

    axes: tuple
    terms: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        n = len(self.axes)
        pairs = [(MultiIndex(alpha), Poly.coerce(coeff))
                 for alpha, coeff in self.terms]
        for alpha, _ in pairs:
            if len(alpha) != n:
                raise ValueError(
                    f"multi-index {tuple(alpha)} does not match {n} axes"
                )
        object.__setattr__(self, "terms", merge_terms(pairs))

    @staticmethod
    def _trusted(axes: tuple, terms: tuple) -> "ScalarPDO":
        """Wrap terms that are already canonical on the tuple `axes`: sorted
        (MultiIndex, nonzero Poly) pairs, one per multi-index, each of
        len(axes) entries.  Skips the checks and the merge of the public
        constructor, which stay for input from outside; the parser's
        expansions, ``adjoint`` and the engine's one-term pieces use it."""
        op = object.__new__(ScalarPDO)
        object.__setattr__(op, "axes", axes)
        object.__setattr__(op, "terms", terms)
        return op

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ScalarPDO") -> "ScalarPDO":
        if self.axes != other.axes:
            raise ValueError("operators on different axes")
        return ScalarPDO(self.axes, self.terms + other.terms)

    def __neg__(self) -> "ScalarPDO":
        return self.scale(-1)

    def __sub__(self, other: "ScalarPDO") -> "ScalarPDO":
        return self + (-other)

    def scale(self, value: PolyLike) -> "ScalarPDO":
        c = Poly.coerce(value)
        return ScalarPDO(self.axes, tuple((a, p * c) for a, p in self.terms))


@dataclass(frozen=True)
class MatrixPDO:
    """Square grid of scalar operators acting on named fields."""

    axes: tuple
    fields: tuple
    entries: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "fields", tuple(self.fields))
        m = len(self.fields)
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != m or any(len(row) != m for row in rows):
            raise ValueError(f"operator grid is not {m}x{m}")
        for row in rows:
            for entry in row:
                if entry.axes != self.axes:
                    raise ValueError("matrix entries disagree on axes")
        object.__setattr__(self, "entries", rows)

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def size(self) -> int:
        return len(self.fields)


Operator = ScalarPDO | MatrixPDO


def grid(op: Operator) -> tuple:
    """Rows of scalar entries, row i holding the entries that act on each
    field j; a scalar operator is a 1x1 grid."""
    return op.entries if isinstance(op, MatrixPDO) else ((op,),)


def adjoint(op: Operator) -> Operator:
    """Formal adjoint: c_alpha -> (-1)^|alpha| c_alpha, transposed for grids."""
    if isinstance(op, ScalarPDO):
        # negating coefficients keeps the terms canonical
        return ScalarPDO._trusted(
            op.axes,
            tuple(
                (alpha, coeff if alpha.order % 2 == 0 else -coeff)
                for alpha, coeff in op.terms
            ),
        )
    m = op.size
    return MatrixPDO(
        op.axes,
        op.fields,
        tuple(
            tuple(adjoint(op.entries[j][i]) for j in range(m)) for i in range(m)
        ),
    )


def bilinear_rhs(op: Operator) -> BilinearExpr:
    """qt L q - q L^+ qt, assembled as braces on odd-order terms and
    brackets on even-order ones.  Entry (i, j) of a grid pairs trial field
    j with test field i.

    The two products of every term's brace or bracket are packed and
    merged in one pass.  A zero-order term's bracket is zero: its
    products cancel, and its bytes do not raise the top byte."""
    n = op.dimension
    zero = MultiIndex.zero(n)
    products = []
    top = 0
    for i, row in enumerate(grid(op)):
        for j, entry in enumerate(row):
            for alpha, coeff in entry.terms:
                order = alpha.order
                products += _pairing(alpha, zero, j, i, coeff,
                                     coeff if order % 2 else -coeff)
                if order:
                    top = max(top, i, j, *alpha)
    return _packed(merge_terms(pack(products)), n, top)


def monomial(coeff: PolyLike, values: Sequence[PolyLike],
             alpha: Iterable[int]) -> PolyLike:
    """coeff * prod_k values[k]^alpha_k, in Polys or in exact scalars."""
    for k, e in enumerate(alpha):
        if e:
            coeff = coeff * values[k] ** e
    return coeff


def check_sigma_count(sigma: Sequence, dimension: int) -> None:
    """Refuse a spectral point that does not give one value per axis; a
    caller can run this before it pays for the decomposition."""
    if len(sigma) != dimension:
        raise ValueError("one spectral value per axis required")


def apply_symbol(op: ScalarPDO, values: Sequence[PolyLike]) -> Poly:
    """Evaluate sum_alpha c_alpha * prod_k values[k]^alpha_k."""
    check_sigma_count(values, op.dimension)
    values = [Poly.coerce(v) for v in values]
    total = Poly()
    for alpha, coeff in op.terms:
        total = total + monomial(coeff, values, alpha)
    return total


def field_amplitudes(amplitudes: Sequence[PolyLike] | None, fields: int,
                     what: str) -> tuple:
    """One amplitude per test field as Polys, all 1 when none are given;
    another count raises ValueError naming both."""
    if amplitudes is None:
        return (P_ONE,) * fields
    if len(amplitudes) != fields:
        raise ValueError(f"one amplitude per test field required: the {what} has "
                         f"{fields}, {len(amplitudes)} given")
    return tuple(map(Poly.coerce, amplitudes))


def adjoint_rows(op: Operator, sigma: Sequence[PolyLike], sign: int,
                 amplitudes: Sequence[PolyLike] | None = None) -> tuple:
    """Rows of L^+ applied to A exp(sign*i*sigma.x), over the exponential:
    row i is sum_j A_j times the symbol of L^+_ij at the slopes, with
    ``field_amplitudes`` of the grid's rows; all are zero exactly where
    the exponential solves the adjoint equation."""
    rows = grid(adjoint(op))
    amplitudes = field_amplitudes(amplitudes, len(rows), "operator")
    slopes = exponential_slopes(sigma, sign)
    return tuple(sum((apply_symbol(entry, slopes) * amp
                      for entry, amp in zip(row, amplitudes)), Poly())
                 for row in rows)


def exponential_slopes(sigma: Sequence[PolyLike], sign: int) -> tuple:
    """Per-axis slopes sign * i * sigma_k of exp(sign * i * sigma . x): the
    one place where a sign chooses between i and -i."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    unit = P_I if sign == 1 else Poly.const(-QI_I)
    return tuple(unit * s for s in sigma)


def parameters(op: Operator) -> set:
    """The parameter names used in the operator's coefficients."""
    return {name for row in grid(op) for entry in row
            for _, coeff in entry.terms for name in coeff.variables()}


def refuse_clash(names, taken, what: str) -> None:
    """ValueError when a spectral name is also one of the `taken` names."""
    clash = set(names) & set(taken)
    if clash:
        raise ValueError(f"spectral names collide with {what} names: "
                         f"{quoted_names(sorted(clash))}")


def symbol(op: ScalarPDO, names: Sequence[str], sign: int = 1) -> Poly:
    """Polynomial symbol with d_k replaced by sign * i * s_k.  The names
    must be distinct identifiers other than i, none an axis or parameter."""
    if len(set(names)) != len(names) or not all(map(is_name, names)):
        raise ValueError("spectral names must be distinct identifiers other than "
                         f"'i': {quoted_names(list(names))}")
    refuse_clash(names, set(op.axes) | parameters(op), "axis or parameter")
    return apply_symbol(op, exponential_slopes([Poly.var(name) for name in names], sign))
