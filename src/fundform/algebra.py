"""Bilinear differential expressions in a trial slot q and a test slot qt.

A term has the shape ``c * d^mu q_f * d^nu qt_g`` where mu, nu are
derivative multi-indices of a fixed ambient dimension and f, g are field
indices (both 0 for scalar problems).  Expressions are kept in a sorted,
merged canonical form, so ``==`` on two expressions is the engine's
ground-truth identity test: every rewrite rule is validated against it
through the product rule (``product_rule``, merged by ``partial``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .ring import Poly, PolyLike, merge_terms


class MultiIndex(tuple):
    """Derivative counts per axis; an element of Z^n with entries >= 0."""

    def __new__(cls, entries: Iterable[int]) -> "MultiIndex":
        entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in entries):
            raise ValueError(f"negative derivative count in {entries}")
        return super().__new__(cls, entries)

    @staticmethod
    def _trusted(entries) -> "MultiIndex":
        """Build from entries already known to be non-negative ints,
        skipping the check of the public constructor; results derived from
        valid indices use it."""
        return tuple.__new__(MultiIndex, entries)

    @classmethod
    def zero(cls, n: int) -> "MultiIndex":
        return cls((0,) * n)

    @classmethod
    def unit(cls, n: int, k: int) -> "MultiIndex":
        if not 0 <= k < n:
            raise ValueError(f"axis {k} out of range for dimension {n}")
        return cls(tuple(1 if i == k else 0 for i in range(n)))

    @property
    def order(self) -> int:
        return sum(self)

    def odd_axes(self) -> tuple:
        return tuple(k for k, e in enumerate(self) if e % 2)

    def half(self) -> "MultiIndex":
        return MultiIndex._trusted([e // 2 for e in self])

    def incr(self, k: int) -> "MultiIndex":
        entries = list(self)
        entries[k] += 1
        return MultiIndex._trusted(entries)

    def decr(self, k: int) -> "MultiIndex":
        if self[k] == 0:
            raise ValueError(f"axis {k} has no derivative to remove in {self}")
        entries = list(self)
        entries[k] -= 1
        return MultiIndex._trusted(entries)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check(other)
        return MultiIndex._trusted([a + b for a, b in zip(self, other)])

    def __sub__(self, other) -> "MultiIndex":
        self._check(other)
        return MultiIndex(a - b for a, b in zip(self, other))

    def _check(self, other) -> None:
        if len(self) != len(other):
            raise ValueError(
                f"multi-index dimension mismatch: {len(self)} vs {len(other)}"
            )


class BilinearTerm(NamedTuple):
    """One product  coeff * d^left q_{left_field} * d^right qt_{right_field}.

    A tuple, so that building one is cheap: the engine passes a Poly and
    two MultiIndexes of one dimension, and expressions rebuild their
    merged terms with ``tuple.__new__``.  ``term`` is the constructor that
    coerces and checks.
    """

    coeff: Poly
    left_field: int
    left: MultiIndex
    right_field: int
    right: MultiIndex

    @property
    def key(self) -> tuple:
        return (self.left_field, self.right_field, self.left, self.right)

    def scaled(self, value: PolyLike) -> "BilinearTerm":
        return BilinearTerm(
            self.coeff * Poly.coerce(value),
            self.left_field, self.left, self.right_field, self.right,
        )

    def negated(self) -> "BilinearTerm":
        """``scaled(-1)`` without coercing -1: only the coefficient changes."""
        return tuple.__new__(BilinearTerm, (-self.coeff, *self[1:]))


def term(coeff: PolyLike, left, right, left_field: int = 0,
         right_field: int = 0) -> BilinearTerm:
    left, right = MultiIndex(left), MultiIndex(right)
    left._check(right)
    return BilinearTerm(Poly.coerce(coeff), left_field, left, right_field, right)


class BilinearExpr:
    """Canonical finite sum of BilinearTerm, ordered by
    (left_field, right_field, left, right); no zero coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[BilinearTerm] = ()) -> None:
        pairs = [((lf, rf, left, right), coeff)
                 for coeff, lf, left, rf, right in terms]
        if len({len(key[2]) for key, _ in pairs}) > 1:
            raise ValueError("mixed ambient dimensions in one expression")
        new = tuple.__new__
        object.__setattr__(
            self,
            "_terms",
            tuple([
                new(BilinearTerm, (coeff, lf, left, rf, right))
                for (lf, rf, left, right), coeff in merge_terms(pairs)
            ]),
        )

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def dimension(self) -> int | None:
        return len(self._terms[0].left) if self._terms else None

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[BilinearTerm]:
        return iter(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BilinearExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def _check_dim(self, other: "BilinearExpr") -> None:
        if (
            self.dimension is not None
            and other.dimension is not None
            and self.dimension != other.dimension
        ):
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other: "BilinearExpr") -> "BilinearExpr":
        self._check_dim(other)
        return BilinearExpr(self._terms + other._terms)

    def __sub__(self, other: "BilinearExpr") -> "BilinearExpr":
        return self + (-other)

    def __neg__(self) -> "BilinearExpr":
        return BilinearExpr(t.negated() for t in self._terms)

    def scale(self, value: PolyLike) -> "BilinearExpr":
        return BilinearExpr(t.scaled(value) for t in self._terms)

    def __repr__(self) -> str:
        return f"BilinearExpr({list(self._terms)!r})"


def bracket(alpha, beta, left_field: int = 0, right_field: int = 0,
            coeff: PolyLike = 1) -> BilinearExpr:
    """Antisymmetric pairing: d^beta qt d^alpha q - d^beta q d^alpha qt."""
    alpha, beta = MultiIndex(alpha), MultiIndex(beta)
    c = Poly.coerce(coeff)
    return BilinearExpr(
        [
            BilinearTerm(c, left_field, alpha, right_field, beta),
            BilinearTerm(-c, left_field, beta, right_field, alpha),
        ]
    )


def brace(alpha, beta, left_field: int = 0, right_field: int = 0,
          coeff: PolyLike = 1) -> BilinearExpr:
    """Symmetric pairing: d^beta qt d^alpha q + d^beta q d^alpha qt."""
    alpha, beta = MultiIndex(alpha), MultiIndex(beta)
    c = Poly.coerce(coeff)
    return BilinearExpr(
        [
            BilinearTerm(c, left_field, alpha, right_field, beta),
            BilinearTerm(c, left_field, beta, right_field, alpha),
        ]
    )


def expr_sum(exprs: Iterable[BilinearExpr]) -> BilinearExpr:
    """Sum of many expressions in one merge of all their terms, where a
    chain of ``+`` would merge (and sort) the running total once per
    operand.  A lone nonzero operand is the sum as it stands.  Mixed
    dimensions raise ValueError."""
    nonzero = [expr for expr in exprs if expr._terms]
    if len(nonzero) == 1:
        return nonzero[0]
    return BilinearExpr([t for expr in nonzero for t in expr._terms])


def product_rule(expr: BilinearExpr, k: int) -> list:
    """The terms of d_k expr before they are merged: each product
    c d^mu q d^nu qt gives c d^(mu+e_k) q d^nu qt + c d^mu q d^(nu+e_k) qt.

    This is the oracle every rewrite rule in the engine is checked
    against; it is deliberately the dumbest possible implementation.  A
    rule merges these terms with the rest of its identity, so that the
    identity costs one merge.
    """
    if expr.is_zero:
        return []
    n = expr.dimension
    if not 0 <= k < n:
        raise ValueError(f"axis {k} out of range for dimension {n}")
    new = tuple.__new__
    out = []
    for coeff, lf, left, rf, right in expr._terms:
        out.append(new(BilinearTerm, (coeff, lf, left.incr(k), rf, right)))
        out.append(new(BilinearTerm, (coeff, lf, left, rf, right.incr(k))))
    return out


def partial(expr: BilinearExpr, k: int) -> BilinearExpr:
    """Derivative along axis k by the product rule."""
    if expr.is_zero:
        return expr
    return BilinearExpr(product_rule(expr, k))


def divergence(fluxes: Iterable[BilinearExpr]) -> BilinearExpr:
    """Sum over axes j of partial(flux_j, j), added in one merge."""
    return expr_sum(partial(flux, k) for k, flux in enumerate(fluxes))
