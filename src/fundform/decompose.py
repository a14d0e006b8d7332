"""Rewrite engine: peel the bilinear pairing of an operator into an exact
divergence  sum_j d_j a_j.

Three rules do all the work:

* a reduction step moves one derivative from the trial slot to the test
  slot of a bracket/brace, emitting one flux term;
* an exchange step swaps a derivative between the two slots of a single
  product, emitting two flux terms;
* a collapse step recognises a product-rule pair and absorbs it into a
  single flux term.

Signs are never tracked by hand.  Every step asserts its defining identity
through the product-rule oracle, as one merge of packed terms (the
product rule's pairs and the step's own terms) that must come out empty,
and a completed decomposition is re-checked as a whole before it
is returned, so a bookkeeping slip is a loud failure at the step where it
happens rather than a wrong answer.

Each rule is a builder (``_reduce``, ``_exchange``, ``_collapse``) and the
identity check around it.  The builders form their fluxes' packed keys
directly, through ``algebra.pack``, which refuses a count past 255, and
wrap them with ``algebra._packed``; the checks pack the products of the
step's input and output with the same helper.  No ``BilinearExpr`` is
constructed from terms on this path.

The steps only negate a coefficient and never read a field, so the walk
of a term  c d^alpha  (trial field f, test field g) is the walk of the
unit term d^alpha, scaled by c and moved to the fields (f, g).  The engine
walks the unit term: coefficient the int 1, fields (0, 0), so that every
step builds and checks its fluxes on small integers.  ``_place`` then maps
each unit flux to the real term in one pass: it adds the packed offset of
(f, g) to each key, which keeps the keys sorted and merged, turns each
integer multiplicity v into v c, and raises the top byte to the fields.
The final gate checks the placed fluxes, with their real coefficients.
Terms of one ``decompose`` call with equal alpha and equal term plan,
such as the Stokes diagonal, share one walk.

Plans record the free choices (reduction order, transfer subset, exchange
pairing order); enumerating them reproduces the full family of
constructible decompositions, whose size is  prod_alpha O_alpha! sigma(alpha).
The pairing is linear over terms, so each member is a sum of per-term
pieces, and the sum_alpha O_alpha! sigma(alpha) pieces describe the family.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Iterator, NamedTuple, Sequence

from .algebra import (BilinearExpr, BilinearTerm, MultiIndex, _field_offset,
                      _packed, _pairing, divergence, expr_sum, pack,
                      product_rule)
from .operators import MatrixPDO, Operator, ScalarPDO, bilinear_rhs, grid
from .ring import Poly, merge_terms

BRACKET = "bracket"
BRACE = "brace"

DEFAULT_PLAN_CEILING = 10 ** 6


class PlanError(ValueError):
    """A decomposition plan does not fit the operator it was given."""


class EnumerationLimit(RuntimeError):
    """Plan family too large to materialise; carries the exact count."""

    def __init__(self, count: int, ceiling: int) -> None:
        super().__init__(
            f"{count} plans exceed the enumeration ceiling of {ceiling}"
        )
        self.count = count
        self.ceiling = ceiling


class EngineError(RuntimeError):
    """An internal rewrite failed its oracle check; always a bug."""


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
    MultiIndexes of one dimension.  The unit walk of ``_walk_term`` passes
    the int 1 as the coefficient, and the steps keep integers from there.
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


def _reduce(pair: PairTerm, k: int) -> tuple:
    """What ``reduce_step`` returns, before its identity is checked."""
    kind, coeff, alpha, beta, lf, rf = pair
    if alpha[k] < 1:
        raise PlanError(
            f"axis {k} has no derivative left to move in {tuple(alpha)}"
        )
    lowered = alpha.decr(k)
    negated = -coeff
    # the flux is the pairing coeff * K(lowered, beta): its two products,
    # packed and merged as BilinearExpr would merge them
    flux = _packed(merge_terms(pack(_pairing(
        lowered, beta, lf, rf, coeff, negated if kind == BRACKET else coeff,
    ))), len(alpha), max(lf, rf, *lowered, *beta))
    remainder = tuple.__new__(PairTerm, (kind, negated, lowered,
                                         beta.incr(k), lf, rf))
    return flux, remainder


def reduce_step(pair: PairTerm, k: int) -> tuple:
    """One derivative moves off axis k of the trial slot:

        K(alpha, beta) = d_k K(alpha - e_k, beta) - K(alpha - e_k, beta + e_k)

    Returns (flux expression for axis k, remaining PairTerm).
    """
    flux, remainder = _reduce(pair, k)
    coeff, rest = pair.coeff, remainder.coeff
    negated = -coeff
    # a bracket's mirror carries the opposite sign, a brace's the same
    minus = _pairing(*pair[2:], negated,
                     coeff if pair.kind == BRACKET else negated)
    plus = _pairing(*remainder[2:], rest,
                    -rest if remainder.kind == BRACKET else rest)
    # d_k flux + remainder - pair, in one merge of packed terms
    if merge_terms([*product_rule(flux, k), *pack((*plus, *minus))]):
        raise EngineError(f"reduction step failed its identity on axis {k}")
    return flux, remainder


def _exchange(term: BilinearTerm, k: int, j: int) -> tuple:
    """What ``exchange_step`` returns, before its identity is checked:
    (swapped term, flux_k, flux_j)."""
    coeff, lf, left, rf, right = term
    if left[k] < 1:
        raise PlanError(f"trial slot has no axis-{k} derivative in {term.key}")
    if right[j] < 1:
        raise PlanError(f"test slot has no axis-{j} derivative in {term.key}")
    lowered = left.decr(k)
    moved = right.decr(j).incr(k)
    swapped = tuple.__new__(BilinearTerm, (coeff, lf, lowered.incr(j), rf,
                                           moved))
    (key_k, _), (key_j, negated) = pack(((coeff, lf, lowered, rf, right),
                                         (-coeff, lf, lowered, rf, moved)))
    n = len(left)
    flux_k = _packed(((key_k, coeff),), n, max(lf, rf, *lowered, *right))
    flux_j = _packed(((key_j, negated),), n, max(lf, rf, *lowered, *moved))
    return swapped, flux_k, flux_j


def exchange_step(term: BilinearTerm, k: int, j: int) -> tuple:
    """Swap one derivative on axis k of the trial slot with one on axis j
    of the test slot.  Returns (swapped term, ((k, flux_k), (j, flux_j)))
    with signs folded in, so  term = swapped + d_k flux_k + d_j flux_j.
    """
    swapped, flux_k, flux_j = _exchange(term, k, j)
    # swapped + d_k flux_k + d_j flux_j - term, in one merge of packed terms
    if merge_terms([*product_rule(flux_k, k), *product_rule(flux_j, j),
                    *pack((swapped, (-term.coeff, *term[1:])))]):
        raise EngineError(f"exchange step failed its identity on axes {k},{j}")
    return swapped, ((k, flux_k), (j, flux_j))


def _collapse(first: BilinearTerm, second: BilinearTerm) -> tuple:
    """What ``collapse_step`` returns, before its identity is checked."""
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
    if second.right != right.incr(r):
        raise EngineError("terms do not form a product-rule pair")
    lowered = second.left
    return r, _packed(tuple(pack(((coeff, lf, lowered, rf, right),))),
                      len(left), max(lf, rf, *lowered, *right))


def collapse_step(first: BilinearTerm, second: BilinearTerm) -> tuple:
    """Absorb a product-rule pair  T(c + e_r, d) + T(c, d + e_r)  into the
    flux T(c, d) on axis r.  Returns (r, flux expression).

    On the two products of a brace {beta + e_r, beta} the flux is
    d^beta q d^beta qt, i.e. half of {beta, beta}: the doubled form printed
    in some references fails the product rule, and the oracle assertion
    here pins the factor.
    """
    r, flux = _collapse(first, second)
    coeff, other = first.coeff, second.coeff
    negated = -coeff
    # the two products of one brace share their coefficient
    other = negated if other is coeff else -other
    # d_r flux - first - second, in one merge of packed terms
    if merge_terms([*product_rule(flux, r),
                    *pack(((negated, *first[1:]), (other, *second[1:])))]):
        raise EngineError("pair collapse failed its identity")
    return r, flux


# perfbench/tracer.py wraps the collapse rule under this name.
_pair_collapse = collapse_step


# ---------------------------------------------------------------------------
# Plans


class _TermPlanFields(NamedTuple):
    path: tuple
    transfer: tuple
    exchanges: tuple


class TermPlan(_TermPlanFields):
    """Free choices for one operator term.

    path       : axis order for the reduction stage (axis k listed
                 alpha_k // 2 times);
    transfer   : the odd axes moved to the test slot before exchanging
                 (floor(#odd / 2) of them, applied in ascending order);
    exchanges  : ordered (trial-axis, test-axis) pairs, consuming each
                 transferred axis exactly once.

    The constructor makes tuples of its parts; ``term_plans``, whose parts
    are tuples already, builds with ``tuple.__new__``.
    """

    __slots__ = ()

    def __new__(cls, path=(), transfer=(), exchanges=()) -> "TermPlan":
        return tuple.__new__(cls, (tuple(path), tuple(transfer),
                                   tuple(tuple(p) for p in exchanges)))

    @classmethod
    def _make(cls, iterable) -> "TermPlan":
        """Build through the checked constructor; ``_replace`` calls this."""
        return cls(*iterable)


class _DecompositionPlanFields(NamedTuple):
    items: tuple


class DecompositionPlan(_DecompositionPlanFields):
    """Per-term plans keyed by (test field, trial field, multi-index),
    held sorted by key and looked up by bisection; a plan that names one
    term twice is refused."""

    __slots__ = ()

    def __new__(cls, items) -> "DecompositionPlan":
        items = tuple(sorted(items))
        for (key, _), (after, _) in zip(items, items[1:]):
            if key == after:
                raise PlanError(f"plan names operator term {after} twice")
        return tuple.__new__(cls, (items,))

    @classmethod
    def _make(cls, iterable) -> "DecompositionPlan":
        """Build through the checked constructor; ``_replace`` calls this."""
        return cls(*iterable)

    def get(self, key) -> TermPlan:
        row, col, alpha = key
        key = (row, col, tuple(alpha))
        items = self.items
        at = bisect_left(items, (key,))
        if at == len(items) or items[at][0] != key:
            raise PlanError(f"no plan for operator term {key}")
        return items[at][1]


def _validate_term_plan(alpha: MultiIndex, plan: TermPlan) -> None:
    gamma = alpha.half()
    if tuple(sorted(plan.path)) != tuple(
        k for k, g in enumerate(gamma) for _ in range(g)
    ):
        raise PlanError(
            f"path {plan.path} does not use each axis k exactly "
            f"alpha_k // 2 times for {tuple(alpha)}"
        )
    odd = alpha.odd_axes()
    m = len(odd) // 2
    transfer = plan.transfer
    if len(set(transfer)) != len(transfer) or not set(transfer) <= set(odd):
        raise PlanError(f"transfer set {transfer} is not a subset of odd axes {odd}")
    if len(transfer) != m:
        raise PlanError(f"transfer set must have {m} axes for {tuple(alpha)}")
    kept = [a for a in odd if a not in transfer]
    lefts = [k for k, _ in plan.exchanges]
    rights = [j for _, j in plan.exchanges]
    if sorted(rights) != sorted(transfer):
        raise PlanError("exchanges must consume each transferred axis exactly once")
    if len(set(lefts)) != len(lefts) or not set(lefts) <= set(kept):
        raise PlanError("exchange trial axes must be distinct kept odd axes")
    if len(odd) % 2 == 0 and sorted(lefts) != sorted(kept):
        raise PlanError("exchanges must consume every kept odd axis")


def _term_key(alpha: MultiIndex, row: int, col: int) -> tuple:
    return (row, col, alpha)


def _operator_terms(op: Operator) -> Iterator[tuple]:
    """Yield (key, alpha, coeff, trial field, test field) per scalar term."""
    for i, row in enumerate(grid(op)):
        for j, entry in enumerate(row):
            for alpha, coeff in entry.terms:
                yield _term_key(alpha, i, j), alpha, coeff, j, i


def first_term_plan(alpha: MultiIndex) -> TermPlan:
    """``next(term_plans(alpha))`` in closed form: the ascending reduction
    path, the first floor(#odd / 2) odd axes transferred, and the kept odd
    axes paired with them in ascending order.  Valid by construction, so
    ``decompose`` does not check it; it costs a fraction of starting
    ``term_plans``."""
    odd = alpha.odd_axes()
    m = len(odd) // 2
    path = tuple(k for k, e in enumerate(alpha) for _ in range(e // 2))
    return tuple.__new__(TermPlan, (path, odd[:m], tuple(zip(odd[m:], odd[:m]))))


def default_plan(op: Operator) -> DecompositionPlan:
    """The first plan of every term: ascending reduction path,
    lexicographically first transfer subset, ascending exchange pairing."""
    return DecompositionPlan(
        tuple((key, first_term_plan(alpha))
              for key, alpha, _, _, _ in _operator_terms(op))
    )


def sigma_count(alpha) -> int:
    """Number of distinct reduction paths: (sum gamma)! / prod gamma_k!."""
    gamma = MultiIndex(alpha).half()
    total = math.factorial(sum(gamma))
    for g in gamma:
        total //= math.factorial(g)
    return total


def term_plan_count(alpha) -> int:
    alpha = MultiIndex(alpha)
    return math.factorial(len(alpha.odd_axes())) * sigma_count(alpha)


def count_forms(op: Operator) -> int:
    """Size of the constructible family: prod over terms of O_alpha! sigma(alpha)."""
    total = 1
    for _, alpha, _, _, _ in _operator_terms(op):
        total *= term_plan_count(alpha)
    return total


def _multiset_permutations(items: Sequence) -> Iterator[tuple]:
    counts = {}
    for item in items:
        counts[item] = counts.get(item, 0) + 1
    keys = sorted(counts)

    def rec(prefix: list, remaining: int) -> Iterator[tuple]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for key in keys:
            if counts[key]:
                counts[key] -= 1
                prefix.append(key)
                yield from rec(prefix, remaining - 1)
                prefix.pop()
                counts[key] += 1

    yield from rec([], len(items))


def term_plans(alpha) -> Iterator[TermPlan]:
    """All plans for one term; exactly term_plan_count(alpha) of them."""
    alpha = MultiIndex(alpha)
    gamma = alpha.half()
    base_path = [k for k, g in enumerate(gamma) for _ in range(g)]
    odd = alpha.odd_axes()
    m = len(odd) // 2
    for path in _multiset_permutations(base_path):
        for transfer in itertools.combinations(odd, m):
            kept = [a for a in odd if a not in transfer]
            for lefts in itertools.permutations(kept, m):
                for rights in itertools.permutations(transfer):
                    yield tuple.__new__(TermPlan, (path, transfer,
                                                   tuple(zip(lefts, rights))))


def enumerate_plans(op: Operator,
                    ceiling: int = DEFAULT_PLAN_CEILING) -> Iterator[DecompositionPlan]:
    """All decomposition plans for the operator, in a deterministic order:
    the product of the terms' ``term_plans``, the last term changing
    fastest.

    Refuses (EnumerationLimit, carrying the exact count) when the family
    is larger than `ceiling`.  The plans of every term but the last are
    held in lists; the last term's are streamed again from ``term_plans``
    for each combination of the others, so memory grows with the other
    terms' plans and does not grow with the family.
    """
    total = count_forms(op)
    if total > ceiling:
        raise EnumerationLimit(total, ceiling)
    keys = [key for key, *_ in _operator_terms(op)]
    if not keys:
        yield DecompositionPlan(())
        return
    *others, last = keys
    for combo in itertools.product(*(list(term_plans(key[2])) for key in others)):
        items = tuple(zip(others, combo))
        for tp in term_plans(last[2]):
            yield DecompositionPlan((*items, (last, tp)))


# ---------------------------------------------------------------------------
# Decomposition


class DivergenceDecomposition(NamedTuple):
    """Fluxes a_1..a_n with  sum_j d_j a_j  equal to the operator pairing.

    Once verified it is also the fundamental form (see ``forms``); a form
    written by hand has no plan and may have no source.
    """

    axes: tuple
    fluxes: tuple
    source: Operator | None
    plan: DecompositionPlan | None = None
    verified: bool = False

    @property
    def dimension(self) -> int:
        return len(self.axes)


def _walk_term(alpha: MultiIndex, plans) -> Iterator[tuple]:
    """Yield (plan, emitted) for each of the given plans of the unit term
    d^alpha (coefficient the int 1, fields (0, 0)), where emitted lists
    the (axis, unit flux) pairs the plan's steps emit; ``_place`` maps
    them to a real term.  The plans must be valid for the term:
    ``term_plans`` and ``first_term_plan`` make only valid plans, and
    ``decompose`` checks a supplied one before the walk.

    A plan is a chain of steps: its path reductions, then its sorted
    transfer reductions, then its exchanges.  Plans in ``term_plans``
    order share long prefixes of that chain, so the walk keeps a stack of
    (step, state, emitted pairs), pops back to the prefix a plan shares
    with the one before, and runs only the steps after it: each distinct
    step runs once, with its oracle, and the plans that share it share
    its flux objects.  The closing collapse (or the mirror-cancel check)
    runs for every plan.  A state is the remaining PairTerm until the
    first exchange, then the (current, mirror) products.
    """
    odd = alpha.odd_axes()
    kind = BRACE if alpha.order % 2 else BRACKET
    root = PairTerm(kind, 1, alpha, MultiIndex.zero(len(alpha)))
    stack: list = []
    for plan in plans:
        # an int is a reduction on that axis, a pair an exchange
        steps = (*plan.path, *sorted(plan.transfer), *plan.exchanges)
        shared = 0
        for (done, _, _), step in zip(stack, steps):
            if done != step:
                break
            shared += 1
        del stack[shared:]
        state = stack[-1][1] if stack else root
        for step in steps[shared:]:
            if isinstance(step, int):
                flux, state = reduce_step(state, step)
                pairs = ((step, flux),)
            else:
                current, mirror = (state.products()
                                   if isinstance(state, PairTerm) else state)
                current, pairs = exchange_step(current, *step)
                state = (current, mirror)
            stack.append((step, state, pairs))
        emitted = [pair for _, _, pairs in stack for pair in pairs]
        if not odd:
            if state.alpha != state.beta:
                raise EngineError("even-term reduction did not close on a diagonal")
            yield plan, emitted  # [gamma, gamma] = 0
            continue
        current, mirror = (state.products() if isinstance(state, PairTerm)
                           else state)
        if len(odd) % 2 == 0:
            if BilinearExpr([current, mirror]):
                raise EngineError("exchange chain failed to cancel the mirror term")
        else:
            emitted.append(collapse_step(current, mirror))
        yield plan, emitted


def _place(walks, n: int, lf: int, rf: int, coeff: Poly) -> list:
    """The emitted lists `walks` of a unit walk in dimension n, placed on
    the term  coeff d^alpha  with trial field lf and test field rf.

    Each key gains the packed offset of the fields, which keeps the keys
    sorted and distinct; each integer multiplicity v becomes v coeff; the
    top byte rises to the fields.  A flux object that several emitted
    lists share is placed once.  A field outside 0..255 raises the
    ValueError that ``pack`` raises, even for a term that emits nothing.
    """
    offset = _field_offset(lf, rf, n)
    fields = max(lf, rf)
    negated = -coeff
    placed: dict = {}
    out = []
    for emitted in walks:
        row = []
        for axis, flux in emitted:
            real = placed.get(id(flux))
            if real is None:
                real = placed[id(flux)] = _packed(tuple([
                    (key + offset, coeff if v == 1 else negated if v == -1
                     else coeff.scale(v))
                    for key, v in flux._pairs
                ]), flux._dim, max(flux._top, fields))
            row.append((axis, real))
        out.append(row)
    return out


def decompose(op: Operator,
              plan: DecompositionPlan | None = None) -> DivergenceDecomposition:
    """Construct and verify a divergence decomposition of the operator's
    bilinear pairing.  Never returns an unverified result.  Terms with
    equal alpha and equal term plan share one unit walk, placed on each
    term."""
    # a supplied plan has every term's plan found and checked before any
    # rewrite step runs; default_plan's are first_term_plan's, valid by
    # construction
    supplied = plan is not None
    if not supplied:
        plan = default_plan(op)
    terms = []
    for key, alpha, coeff, lf, rf in _operator_terms(op):
        term_plan = plan.get(key)
        if supplied:
            _validate_term_plan(alpha, term_plan)
        terms.append((alpha, coeff, lf, rf, term_plan))
    n = op.dimension
    walks: dict = {}
    emitted = []
    for alpha, coeff, lf, rf, term_plan in terms:
        walk = walks.get((alpha, term_plan))
        if walk is None:
            (_, walk), = _walk_term(alpha, (term_plan,))
            walks[alpha, term_plan] = walk
        emitted += _place((walk,), n, lf, rf, coeff)[0]
    return _gate(op, plan, emitted, bilinear_rhs(op))


def _gate(op: Operator, plan: DecompositionPlan, emitted: list,
          rhs: BilinearExpr) -> DivergenceDecomposition:
    """Sum the emitted (axis, flux) pairs into one flux per axis, then the
    final gate: their divergence must equal the pairing ``rhs``."""
    per_axis = [[] for _ in range(op.dimension)]
    for axis, flux in emitted:
        per_axis[axis].append(flux)
    fluxes = tuple(expr_sum(axis) for axis in per_axis)
    if divergence(fluxes) != rhs:
        raise EngineError(
            "final divergence check failed; this is an engine bug"
        )
    return DivergenceDecomposition(op.axes, fluxes, op, plan, verified=True)


def term_pieces(op: Operator) -> Iterator[tuple]:
    """Yield (key, pieces) per operator term, in plan-item order.  The
    pieces decompose the term alone (for a system, entry (row, col) of an
    operator that is zero elsewhere) once under each of its term plans,
    in ``term_plans`` order.

    The pairing is linear over terms, so the fluxes of the family member
    with term plans (p_1, ..., p_m) are the sum of piece p_t of each
    term t: the family costs sum_t term_plan_count(alpha_t) gated
    decompositions instead of their product.  One walk of the term's
    plans runs each rewrite step shared by several plans once; every
    piece still closes with its own collapse and passes the final gate
    against the term's pairing, computed once.
    """
    n = op.dimension
    for key, alpha, coeff, lf, rf in _operator_terms(op):
        row, col, _ = key
        alone = ScalarPDO(op.axes, ((alpha, coeff),))
        if isinstance(op, MatrixPDO):
            zero = ScalarPDO(op.axes, ())
            alone = MatrixPDO(op.axes, op.fields, tuple(
                tuple(alone if (i, j) == (row, col) else zero
                      for j in range(op.size))
                for i in range(op.size)
            ))
        rhs = bilinear_rhs(alone)
        walk = list(_walk_term(alpha, term_plans(alpha)))
        placed = _place([emitted for _, emitted in walk], n, lf, rf, coeff)
        yield key, [_gate(alone, DecompositionPlan(((key, tp),)), fluxes, rhs)
                    for (tp, _), fluxes in zip(walk, placed)]
