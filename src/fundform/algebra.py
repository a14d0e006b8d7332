"""Bilinear differential expressions in a trial slot q and a test slot qt.

A term has the shape ``c * d^mu q_f * d^nu qt_g`` where mu, nu are
derivative multi-indices of a fixed ambient dimension and f, g are field
indices (both 0 for scalar problems).  Expressions are kept in a sorted,
merged canonical form, so ``==`` on two expressions is the engine's
ground-truth identity test: every rewrite rule is validated against it
through the product rule (``product_rule``, merged by ``partial``).

Packed keys.  An expression holds its merged terms as (key, coeff) pairs,
where the key packs (f, g, mu, nu) into one int: the bytes
``(f, g, *mu, *nu)`` read big-endian, one W = 8-bit byte per field index
and per entry.  Within one dimension n every key is 2 + 2n bytes long, so
comparing two keys compares their bytes lexicographically, which is the
order of the tuples (f, g, mu, nu): ``merge_terms`` sorts packed keys into
the order tuple keys had, and every printed document keeps its term
order.  Keys of different dimensions can coincide (``q_x qt`` on one axis
and ``q qt_x`` on two both read 0x100), so an expression also stores its
dimension, and ``==`` and every sum compare it.

The product rule adds a unit to a key: 1 << 8(2n-1-k) raises mu_k, and
1 << 8(n-1-k) raises nu_k.  A byte that passed 255 would carry silently
into its neighbour, so each expression keeps a bound on its largest byte
(the maximum of its key bytes, fields included; a derivative adds one),
and ``product_rule`` refuses in O(1) a derivative that could pass 255.
Packing refuses an entry or field index outside 0..255 with ValueError.
Terms are unpacked into ``BilinearTerm``s with ``MultiIndex`` slots only
when ``terms`` or iteration asks for them, once per expression.

``pack``, the one packing helper, turns products into (key, coeff) pairs
through the same byte check, and ``_packed`` wraps merged pairs, with the
dimension and top byte ``BilinearExpr`` would compute, as an expression
without building a term.  The rewrite rules of ``decompose`` pack their
walk's first pairing once and then offset keys by the same units as
``product_rule``.  ``_pairing`` lists the two products of a bracket or
brace in the form ``pack`` takes; ``operators.bilinear_rhs`` builds its
pairings with it.  ``_field_offset`` is what a key with fields (0, 0)
gains to carry other fields; ``decompose`` places its unit walks with it.
``_key_halves`` splits each key into its trial half (f, mu) and its test
half (g, nu), each one int in the same byte order; ``spectral``
substitutes on them.

Stored derivatives.  An expression keeps the last derivative ``partial``
took of it, with its axis, and ``partial`` along that axis returns it
without a merge: a decomposition's final gate differentiates its fluxes,
and a later exterior derivative of the same fluxes (``enumerate``'s
verdict) reads what the gate merged.  This is sound because an
expression never changes once built, which its lazily unpacked ``terms``
already rely on, so its derivative along an axis is fixed for its whole
life.  The store holds the derivative through its expression only, so
it is freed with the expression; a new expression, even one equal to an
old one, starts with none.
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

    @staticmethod
    def coerce(entries) -> "MultiIndex":
        """`entries` itself when it is a MultiIndex, else the checked
        constructor's result, as ``Poly.coerce`` does for values."""
        if isinstance(entries, MultiIndex):
            return entries
        return MultiIndex(entries)

    @staticmethod
    def zero(n: int) -> "MultiIndex":
        return MultiIndex._trusted((0,) * n)

    @property
    def order(self) -> int:
        return sum(self)

    def odd_axes(self) -> tuple:
        return tuple(k for k, e in enumerate(self) if e % 2)

    def half(self) -> "MultiIndex":
        return MultiIndex._trusted([e // 2 for e in self])

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        self._check(other)
        return MultiIndex._trusted([a + b for a, b in zip(self, other)])

    def _check(self, other) -> None:
        if len(self) != len(other):
            raise ValueError(
                f"multi-index dimension mismatch: {len(self)} vs {len(other)}"
            )


class BilinearTerm(NamedTuple):
    """One product  coeff * d^left q_{left_field} * d^right qt_{right_field}.

    A tuple, so that building one is cheap: the engine passes a Poly and
    two MultiIndexes of one dimension, and expressions unpack their merged
    keys into terms with ``tuple.__new__``.  Nothing here coerces or
    checks; ``BilinearExpr`` refuses a field index or count that does not
    pack.
    """

    coeff: Poly
    left_field: int
    left: MultiIndex
    right_field: int
    right: MultiIndex


# Bits per field index and per entry of a packed key, and the largest
# value a byte holds.
_WIDTH = 8
_LIMIT = (1 << _WIDTH) - 1


def _key_bytes(left_field: int, right_field: int, left, right) -> bytes:
    try:
        return bytes((left_field, right_field, *left, *right))
    except ValueError:
        raise ValueError(
            f"field indices and derivative counts must lie in 0..{_LIMIT}: "
            f"{(left_field, right_field, tuple(left), tuple(right))}"
        ) from None


def pack(terms: Iterable) -> list:
    """(key, coeff) pairs of the terms, unmerged: the form ``product_rule``
    returns, so that a rewrite step merges both in one identity.  A term
    is a BilinearTerm or a plain (coeff, left_field, left, right_field,
    right) tuple; a field index or count outside 0..255 raises
    ValueError, never a key whose byte carried."""
    return [(int.from_bytes(_key_bytes(lf, rf, left, right), "big"), coeff)
            for coeff, lf, left, rf, right in terms]


def _pairing(alpha, beta, left_field: int, right_field: int,
             coeff, mirror) -> tuple:
    """The two products of a pairing of alpha and beta, as the plain
    tuples ``pack`` takes:  coeff d^beta qt d^alpha q  and its mirror
    mirror d^alpha qt d^beta q.  A bracket's mirror is -coeff, a brace's
    coeff."""
    return ((coeff, left_field, alpha, right_field, beta),
            (mirror, left_field, beta, right_field, alpha))


def _field_offset(left_field: int, right_field: int, n: int) -> int:
    """What a key of dimension n with fields (0, 0) gains to carry the
    fields (left_field, right_field): left_field << 8(2n+1) plus
    right_field << 16n.  A field outside 0..255 raises the ValueError
    that ``pack`` raises."""
    return int.from_bytes(_key_bytes(left_field, right_field, (), ()),
                          "big") << 2 * _WIDTH * n


def _key_halves(pairs, n: int) -> list:
    """(trial, test, coeff) from (key, coeff) pairs of dimension n: the
    trial half (f, mu) and the test half (g, nu) of each key, each the
    bytes of its tuple read big-endian as one int, so that halves of one
    dimension compare as their tuples do."""
    entries = _WIDTH * n
    mask = (1 << entries) - 1
    fields = 2 * entries
    return [((key >> fields + _WIDTH) << entries | (key >> entries) & mask,
             (key >> fields & _LIMIT) << entries | key & mask, coeff)
            for key, coeff in pairs]


def _packed(pairs: tuple, dim: int | None, top: int) -> "BilinearExpr":
    """An expression from merged (key, coeff) pairs of dimension `dim`
    whose key bytes are at most `top`; the zero expression has no
    dimension."""
    expr = object.__new__(BilinearExpr)
    expr._pairs = pairs
    expr._dim = dim if pairs else None
    expr._top = top if pairs else 0
    expr._terms = None
    expr._derivative = None
    return expr


class BilinearExpr:
    """Canonical finite sum of BilinearTerm, ordered by
    (left_field, right_field, left, right); no zero coefficients.  Held as
    packed (key, coeff) pairs; see the module docstring."""

    __slots__ = ("_pairs", "_dim", "_top", "_terms", "_derivative")

    def __init__(self, terms: Iterable[BilinearTerm] = ()) -> None:
        pairs = []
        dims = set()
        top = 0
        for coeff, lf, left, rf, right in terms:
            raw = _key_bytes(lf, rf, left, right)
            dims.add(len(left))
            dims.add(len(right))
            top = max(top, max(raw))
            pairs.append((int.from_bytes(raw, "big"), coeff))
        if len(dims) > 1:
            raise ValueError("mixed ambient dimensions in one expression")
        self._pairs = pairs = merge_terms(pairs)
        self._dim = dims.pop() if pairs else None
        self._top = top if pairs else 0
        self._terms = None
        self._derivative = None

    @property
    def terms(self) -> tuple:
        terms = self._terms
        if terms is None:
            n = self._dim or 0
            size, mid = 2 + 2 * n, 2 + n
            new = tuple.__new__
            terms = []
            for key, coeff in self._pairs:
                raw = key.to_bytes(size, "big")
                terms.append(new(BilinearTerm, (
                    coeff, raw[0], new(MultiIndex, raw[2:mid]),
                    raw[1], new(MultiIndex, raw[mid:]),
                )))
            self._terms = terms = tuple(terms)
        return terms

    @property
    def dimension(self) -> int | None:
        return self._dim

    @property
    def is_zero(self) -> bool:
        return not self._pairs

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __iter__(self) -> Iterator[BilinearTerm]:
        return iter(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BilinearExpr):
            return NotImplemented
        return self._dim == other._dim and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def _check_dim(self, other: "BilinearExpr") -> None:
        if (
            self._dim is not None
            and other._dim is not None
            and self._dim != other._dim
        ):
            raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")

    def __add__(self, other: "BilinearExpr") -> "BilinearExpr":
        self._check_dim(other)
        dim = self._dim if other._dim is None else other._dim
        return _packed(merge_terms(self._pairs + other._pairs), dim,
                       max(self._top, other._top))

    def __sub__(self, other: "BilinearExpr") -> "BilinearExpr":
        return self + (-other)

    def __neg__(self) -> "BilinearExpr":
        # still sorted, and no coefficient becomes zero: nothing to merge
        return _packed(tuple([(key, -coeff) for key, coeff in self._pairs]),
                       self._dim, self._top)

    def scale(self, value: PolyLike) -> "BilinearExpr":
        value = Poly.coerce(value)
        return _packed(
            merge_terms([(key, coeff * value) for key, coeff in self._pairs]),
            self._dim, self._top,
        )

    def __repr__(self) -> str:
        return f"BilinearExpr({list(self.terms)!r})"


def expr_sum(exprs: Iterable[BilinearExpr]) -> BilinearExpr:
    """Sum of many expressions in one merge of all their terms, where a
    chain of ``+`` would merge (and sort) the running total once per
    operand.  A lone nonzero operand is the sum as it stands.  Mixed
    dimensions raise ValueError."""
    nonzero = [expr for expr in exprs if expr._pairs]
    if len(nonzero) == 1:
        return nonzero[0]
    dims = {expr._dim for expr in nonzero}
    if len(dims) > 1:
        raise ValueError("mixed ambient dimensions in one expression")
    return _packed(
        merge_terms([pair for expr in nonzero for pair in expr._pairs]),
        dims.pop() if dims else None,
        max([expr._top for expr in nonzero], default=0),
    )


def product_rule(expr: BilinearExpr, k: int) -> list:
    """The terms of d_k expr before they are merged, as packed (key,
    coeff) pairs: each product c d^mu q d^nu qt gives
    c d^(mu+e_k) q d^nu qt + c d^mu q d^(nu+e_k) qt, a key plus a unit.

    This is the oracle every rewrite rule in the engine is checked
    against; it is deliberately the dumbest possible implementation.  A
    rule merges these pairs with the packed rest of its identity, so that
    the identity costs one merge.  A derivative count that could pass
    the packed width is refused, never carried.
    """
    pairs = expr._pairs
    if not pairs:
        return []
    n = expr._dim
    if not 0 <= k < n:
        raise ValueError(f"axis {k} out of range for dimension {n}")
    if expr._top >= _LIMIT:
        raise ValueError(
            f"a derivative count could pass {_LIMIT}, the packed width"
        )
    # the units that raise entry k of the trial and of the test slot
    units = (1 << _WIDTH * (2 * n - 1 - k), 1 << _WIDTH * (n - 1 - k))
    return [(key + unit, coeff) for key, coeff in pairs for unit in units]


def partial(expr: BilinearExpr, k: int) -> BilinearExpr:
    """Derivative along axis k by the product rule.

    The expression keeps the last derivative taken of it, with its axis,
    and a second call along that axis returns it without a merge (see the
    module docstring for why that is sound); a call along another axis
    replaces it.  A refused axis or count stores nothing."""
    if expr.is_zero:
        return expr
    stored = expr._derivative
    if stored is not None and stored[0] == k:
        return stored[1]
    derivative = _packed(merge_terms(product_rule(expr, k)), expr._dim,
                         expr._top + 1)
    expr._derivative = (k, derivative)
    return derivative


def divergence(fluxes: Iterable[BilinearExpr]) -> BilinearExpr:
    """Sum over axes j of partial(flux_j, j), added in one merge."""
    return expr_sum(partial(flux, k) for k, flux in enumerate(fluxes))
