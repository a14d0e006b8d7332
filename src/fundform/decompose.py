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
through the product-rule oracle, as one residual expression that must be
empty, and a completed decomposition is re-checked as a whole before it
is returned, so a bookkeeping slip is a loud failure at the step where it
happens rather than a wrong answer.

Plans record the free choices (reduction order, transfer subset, exchange
pairing order); enumerating them reproduces the full family of
constructible decompositions, whose size is  prod_alpha O_alpha! sigma(alpha).
The pairing is linear over terms, so each member is a sum of per-term
pieces, and the sum_alpha O_alpha! sigma(alpha) pieces describe the family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import (BilinearExpr, BilinearTerm, MultiIndex, divergence,
                      expr_sum, product_rule)
from .operators import MatrixPDO, Operator, ScalarPDO, bilinear_rhs, grid
from .ring import Poly

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


@dataclass(frozen=True)
class PairTerm:
    """A signed bracket or brace:  coeff * [alpha, beta]  or  coeff * {alpha, beta}.

    Built as given, like ``BilinearTerm``: callers pass a Poly and two
    MultiIndexes of one dimension.
    """

    kind: str
    coeff: Poly
    alpha: MultiIndex
    beta: MultiIndex
    left_field: int = 0
    right_field: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (BRACKET, BRACE):
            raise ValueError(f"unknown pairing kind {self.kind!r}")

    def to_expr(self) -> BilinearExpr:
        return BilinearExpr(self.products())

    def products(self) -> tuple:
        """The two constituent products (first, mirror) as BilinearTerm."""
        first = BilinearTerm(self.coeff, self.left_field, self.alpha,
                             self.right_field, self.beta)
        sign = -1 if self.kind == BRACKET else 1
        mirror = BilinearTerm(self.coeff.scale(sign), self.left_field,
                              self.beta, self.right_field, self.alpha)
        return first, mirror


def _reduce(pair: PairTerm, k: int) -> tuple:
    """What ``reduce_step`` returns, before its identity is checked."""
    if pair.alpha[k] < 1:
        raise PlanError(
            f"axis {k} has no derivative left to move in {tuple(pair.alpha)}"
        )
    lowered = pair.alpha.decr(k)
    flux = PairTerm(pair.kind, pair.coeff, lowered, pair.beta,
                    pair.left_field, pair.right_field)
    remainder = PairTerm(pair.kind, -pair.coeff, lowered, pair.beta.incr(k),
                         pair.left_field, pair.right_field)
    return flux.to_expr(), remainder


def reduce_step(pair: PairTerm, k: int) -> tuple:
    """One derivative moves off axis k of the trial slot:

        K(alpha, beta) = d_k K(alpha - e_k, beta) - K(alpha - e_k, beta + e_k)

    Returns (flux expression for axis k, remaining PairTerm).
    """
    flux, remainder = _reduce(pair, k)
    negated = PairTerm(pair.kind, -pair.coeff, pair.alpha, pair.beta,
                       pair.left_field, pair.right_field)
    # d_k flux + remainder - pair, in one merge
    if BilinearExpr([*product_rule(flux, k), *remainder.products(),
                     *negated.products()]):
        raise EngineError(f"reduction step failed its identity on axis {k}")
    return flux, remainder


def _exchange(term: BilinearTerm, k: int, j: int) -> tuple:
    """What ``exchange_step`` returns, before its identity is checked:
    (swapped term, flux_k, flux_j)."""
    if term.left[k] < 1:
        raise PlanError(f"trial slot has no axis-{k} derivative in {term.key}")
    if term.right[j] < 1:
        raise PlanError(f"test slot has no axis-{j} derivative in {term.key}")
    lowered = term.left.decr(k)
    moved = term.right.decr(j).incr(k)
    swapped = BilinearTerm(term.coeff, term.left_field, lowered.incr(j),
                           term.right_field, moved)
    flux_k = BilinearExpr([
        BilinearTerm(term.coeff, term.left_field, lowered, term.right_field,
                     term.right)
    ])
    flux_j = BilinearExpr([
        BilinearTerm(term.coeff.scale(-1), term.left_field, lowered,
                     term.right_field, moved)
    ])
    return swapped, flux_k, flux_j


def exchange_step(term: BilinearTerm, k: int, j: int) -> tuple:
    """Swap one derivative on axis k of the trial slot with one on axis j
    of the test slot.  Returns (swapped term, ((k, flux_k), (j, flux_j)))
    with signs folded in, so  term = swapped + d_k flux_k + d_j flux_j.
    """
    swapped, flux_k, flux_j = _exchange(term, k, j)
    # swapped + d_k flux_k + d_j flux_j - term, in one merge
    if BilinearExpr([swapped, *product_rule(flux_k, k),
                     *product_rule(flux_j, j), term.scaled(-1)]):
        raise EngineError(f"exchange step failed its identity on axes {k},{j}")
    return swapped, ((k, flux_k), (j, flux_j))


def _collapse(first: BilinearTerm, second: BilinearTerm) -> tuple:
    """What ``collapse_step`` returns, before its identity is checked."""
    if (first.left_field, first.right_field) != (second.left_field,
                                                 second.right_field):
        raise EngineError("collapse pair mixes fields")
    if first.coeff != second.coeff:
        raise EngineError("collapse pair has mismatched coefficients")
    diff = [a - b for a, b in zip(first.left, second.left)]
    axes = [r for r, d in enumerate(diff) if d]
    if len(axes) != 1 or diff[axes[0]] != 1:
        raise EngineError("terms do not form a product-rule pair")
    r = axes[0]
    if second.right != first.right.incr(r):
        raise EngineError("terms do not form a product-rule pair")
    return r, BilinearExpr([
        BilinearTerm(first.coeff, first.left_field, second.left,
                     first.right_field, first.right)
    ])


def collapse_step(first: BilinearTerm, second: BilinearTerm) -> tuple:
    """Absorb a product-rule pair  T(c + e_r, d) + T(c, d + e_r)  into the
    flux T(c, d) on axis r.  Returns (r, flux expression).

    On the two products of a brace {beta + e_r, beta} the flux is
    d^beta q d^beta qt, i.e. half of {beta, beta}: the doubled form printed
    in some references fails the product rule, and the oracle assertion
    here pins the factor.
    """
    r, flux = _collapse(first, second)
    # d_r flux - first - second, in one merge
    if BilinearExpr([*product_rule(flux, r), first.scaled(-1),
                     second.scaled(-1)]):
        raise EngineError("pair collapse failed its identity")
    return r, flux


# perfbench/tracer.py wraps the collapse rule under this name.
_pair_collapse = collapse_step


# ---------------------------------------------------------------------------
# Plans


@dataclass(frozen=True)
class TermPlan:
    """Free choices for one operator term.

    path       : axis order for the reduction stage (axis k listed
                 alpha_k // 2 times);
    transfer   : the odd axes moved to the test slot before exchanging
                 (floor(#odd / 2) of them, applied in ascending order);
    exchanges  : ordered (trial-axis, test-axis) pairs, consuming each
                 transferred axis exactly once.
    """

    path: tuple = ()
    transfer: tuple = ()
    exchanges: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "path", tuple(self.path))
        object.__setattr__(self, "transfer", tuple(self.transfer))
        object.__setattr__(
            self, "exchanges", tuple(tuple(p) for p in self.exchanges)
        )


@dataclass(frozen=True)
class DecompositionPlan:
    """Per-term plans keyed by (test field, trial field, multi-index)."""

    items: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(sorted(self.items)))

    def get(self, key) -> TermPlan:
        row, col, alpha = key
        key = (row, col, MultiIndex(alpha))
        for item_key, plan in self.items:
            if item_key == key:
                return plan
        raise PlanError(f"no plan for operator term {key}")


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


def default_plan(op: Operator) -> DecompositionPlan:
    """The first plan of every term: ascending reduction path,
    lexicographically first transfer subset, ascending exchange pairing."""
    return DecompositionPlan(
        tuple((key, next(term_plans(alpha)))
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
                    yield TermPlan(path, transfer, tuple(zip(lefts, rights)))


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


@dataclass(frozen=True)
class DivergenceDecomposition:
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

    def flux(self, axis: str) -> BilinearExpr:
        return self.fluxes[self.axes.index(axis)]


def _walk_term(alpha: MultiIndex, coeff: Poly, lf: int, rf: int,
               plans) -> Iterator[tuple]:
    """Yield (plan, emitted) for each of the given plans of one operator
    term, where emitted lists the (axis, flux) pairs the plan's steps emit.

    A plan is a chain of steps: its path reductions, then its sorted
    transfer reductions, then its exchanges.  Plans in ``term_plans``
    order share long prefixes of that chain, so the walk keeps a stack of
    (step, state, emitted pairs), pops back to the prefix a plan shares
    with the one before, and runs only the steps after it: each distinct
    step runs once, with its oracle.  The closing collapse (or the
    mirror-cancel check) runs for every plan.  A state is the remaining
    PairTerm until the first exchange, then the (current, mirror) products.
    """
    odd = alpha.odd_axes()
    kind = BRACE if alpha.order % 2 else BRACKET
    root = PairTerm(kind, coeff, alpha, MultiIndex.zero(len(alpha)), lf, rf)
    stack: list = []
    for plan in plans:
        if alpha.order == 0:
            yield plan, []  # [0, 0] vanishes by antisymmetry
            continue
        _validate_term_plan(alpha, plan)
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
                current, mirror = (state if isinstance(state, tuple)
                                   else state.products())
                current, pairs = exchange_step(current, *step)
                state = (current, mirror)
            stack.append((step, state, pairs))
        emitted = [pair for _, _, pairs in stack for pair in pairs]
        if not odd:
            if state.alpha != state.beta:
                raise EngineError("even-term reduction did not close on a diagonal")
            yield plan, emitted  # [gamma, gamma] = 0
            continue
        current, mirror = state if isinstance(state, tuple) else state.products()
        if len(odd) % 2 == 0:
            if BilinearExpr([current, mirror]):
                raise EngineError("exchange chain failed to cancel the mirror term")
        else:
            emitted.append(collapse_step(current, mirror))
        yield plan, emitted


def decompose(op: Operator,
              plan: DecompositionPlan | None = None) -> DivergenceDecomposition:
    """Construct and verify a divergence decomposition of the operator's
    bilinear pairing.  Never returns an unverified result."""
    if plan is None:
        plan = default_plan(op)
    return _gated_decompose(op, plan, bilinear_rhs(op))


def _gated_decompose(op: Operator, plan: DecompositionPlan,
                     rhs: BilinearExpr) -> DivergenceDecomposition:
    """``decompose`` with the pairing ``rhs = bilinear_rhs(op)`` already
    computed: each term walks its one plan."""
    emitted = [pair
               for key, alpha, coeff, lf, rf in _operator_terms(op)
               for _, pairs in _walk_term(alpha, coeff, lf, rf,
                                          (plan.get(key),))
               for pair in pairs]
    return _gate(op, plan, emitted, rhs)


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
        yield key, [_gate(alone, DecompositionPlan(((key, tp),)), emitted, rhs)
                    for tp, emitted in _walk_term(alpha, coeff, lf, rf,
                                                  term_plans(alpha))]


def verify_divergence(dec: DivergenceDecomposition,
                      op: Operator | None = None) -> BilinearExpr:
    """Residual  sum_j d_j a_j - pairing(op); empty means the identity holds."""
    if op is None:
        op = dec.source
    if op.dimension != dec.dimension:
        raise ValueError("decomposition and operator dimensions differ")
    return divergence(dec.fluxes) - bilinear_rhs(op)


def ensure_verified(dec: DivergenceDecomposition,
                    op: Operator | None = None) -> DivergenceDecomposition:
    """Re-check a hand-built decomposition and mark it verified."""
    residual = verify_divergence(dec, op)
    if residual:
        raise ValueError("decomposition does not satisfy its divergence identity")
    return DivergenceDecomposition(dec.axes, dec.fluxes, dec.source, dec.plan,
                                   verified=True)
