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

The rules work on packed keys (see ``algebra``).  In dimension n the
trial unit of axis k is 1 << 8(2n-1-k) and its test unit 1 << 8(n-1-k).
A walk's one state shape is a pairing's two products as (key, coeff)
pairs, the mirror's coefficient negated for a bracket and equal for a
brace; the root is ``algebra._pairing`` packed by ``pack``.  A
reduction on axis k subtracts the trial unit from the first key and adds
the test unit, and the mirror key the other way round; an exchange
offsets the first product, and a collapse reads the last two.  Each
rule is a builder (``_reduce``, ``_exchange``, ``_collapse``) and the
identity check around it.  A builder refuses an axis outside 0..n-1 or a
count that would pass 255 (ValueError) and a missing derivative
(PlanError); its fluxes take their top byte from their key.  The check
merges ``product_rule`` of the fluxes with the packed input and output
products, and a nonempty merge raises EngineError.

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

``decompose`` matches a plan to its operator in one pass: the plan's items
go into one dict keyed by (row, col, alpha), and each operator term pops
its own key, so a term with no item and an item for a term the operator
lacks are both refused (PlanError) before any rewrite step runs.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Sequence

from .algebra import (_LIMIT, _WIDTH, BilinearExpr, MultiIndex, _field_offset,
                      _packed, _pairing, divergence, expr_sum, pack,
                      product_rule)
from .operators import MatrixPDO, Operator, ScalarPDO, bilinear_rhs, grid
from .ring import Poly, merge_terms

# Most plans ``enumerate_plans`` materialises.
PLAN_CEILING = 10 ** 6


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


def _shifts(n: int, k: int) -> tuple:
    """The bit offsets of axis k's trial and test bytes in a key of
    dimension n; an axis outside 0..n-1 raises ValueError."""
    if not 0 <= k < n:
        raise ValueError(f"axis {k} out of range for dimension {n}")
    return _WIDTH * (2 * n - 1 - k), _WIDTH * (n - 1 - k)


def _slots(key: int, n: int) -> tuple:
    """The (trial, test) entries of a key, for error messages."""
    raw = key.to_bytes(2 + 2 * n, "big")
    return tuple(raw[2:2 + n]), tuple(raw[2 + n:])


def _flux(pairs: tuple, key: int, n: int) -> BilinearExpr:
    """The expression of merged pairs whose keys hold the bytes of `key`."""
    return _packed(pairs, n, max(key.to_bytes(2 + 2 * n, "big")))


def _reduce(products: tuple, k: int, n: int) -> tuple:
    """What ``reduce_step`` returns, before its identity is checked."""
    (key, coeff), (mirror, second) = products
    trial, test = _shifts(n, k)
    if not key >> trial & _LIMIT:
        raise PlanError(f"axis {k} has no derivative left to move in "
                        f"{_slots(key, n)[0]}")
    if key >> test & _LIMIT == _LIMIT:
        raise ValueError(f"a derivative count could pass {_LIMIT}, the "
                         "packed width")
    down, up = 1 << trial, 1 << test
    # the flux is the pairing coeff * K(alpha - e_k, beta): its products
    # sit a trial unit below the pair's and a test unit below the mirror's
    first, other = key - down, mirror - up
    if first < other:
        pairs = ((first, coeff), (other, second))
    elif other < first:
        pairs = ((other, second), (first, coeff))
    else:
        pairs = merge_terms(((first, coeff), (other, second)))
    return _flux(pairs, first, n), ((first + up, -coeff),
                                    (other + down, -second))


def reduce_step(products: tuple, k: int, n: int) -> tuple:
    """One derivative moves off axis k of the trial slot:

        K(alpha, beta) = d_k K(alpha - e_k, beta) - K(alpha - e_k, beta + e_k)

    on the pairing K given as its (key, coeff) products (d^alpha q d^beta
    qt, d^beta q d^alpha qt) in dimension n; the mirror's coefficient is
    the first's negated for a bracket and equal for a brace.  Returns
    (flux expression for axis k, remaining products).
    """
    flux, remainder = _reduce(products, k, n)
    (key, coeff), (mirror, second) = products
    # d_k flux + remainder - pairing, in one merge of packed terms
    if merge_terms([*product_rule(flux, k), *remainder, (key, -coeff),
                    (mirror, -second)]):
        raise EngineError(f"reduction step failed its identity on axis {k}")
    return flux, remainder


def _exchange(product: tuple, k: int, j: int, n: int) -> tuple:
    """What ``exchange_step`` returns, before its identity is checked:
    (swapped product, flux_k, flux_j)."""
    key, coeff = product
    trial_k, test_k = _shifts(n, k)
    trial_j, test_j = _shifts(n, j)
    if not key >> trial_k & _LIMIT:
        raise PlanError(f"trial slot has no axis-{k} derivative in "
                        f"{_slots(key, n)}")
    if not key >> test_j & _LIMIT:
        raise PlanError(f"test slot has no axis-{j} derivative in "
                        f"{_slots(key, n)}")
    if k != j and _LIMIT in (key >> test_k & _LIMIT, key >> trial_j & _LIMIT):
        raise ValueError(f"derivative counts must lie in 0..{_LIMIT}: "
                         f"{_slots(key, n)} exchanged on axes {k},{j}")
    lowered = key - (1 << trial_k)
    moved = lowered - (1 << test_j) + (1 << test_k)
    return ((moved + (1 << trial_j), coeff),
            _flux(((lowered, coeff),), lowered, n),
            _flux(((moved, -coeff),), moved, n))


def exchange_step(product: tuple, k: int, j: int, n: int) -> tuple:
    """Swap one derivative on axis k of the trial slot with one on axis j
    of the test slot of the product (key, coeff) in dimension n.  Returns
    (swapped product, ((k, flux_k), (j, flux_j))) with signs folded in, so
    product = swapped + d_k flux_k + d_j flux_j.
    """
    swapped, flux_k, flux_j = _exchange(product, k, j, n)
    key, coeff = product
    # swapped + d_k flux_k + d_j flux_j - product, in one merge
    if merge_terms([*product_rule(flux_k, k), *product_rule(flux_j, j),
                    swapped, (key, -coeff)]):
        raise EngineError(f"exchange step failed its identity on axes {k},{j}")
    return swapped, ((k, flux_k), (j, flux_j))


def _collapse(first: tuple, second: tuple, n: int) -> tuple:
    """What ``collapse_step`` returns, before its identity is checked."""
    (key, coeff), (other, other_coeff) = first, second
    if key >> 2 * _WIDTH * n != other >> 2 * _WIDTH * n:
        raise EngineError("collapse pair mixes fields")
    if coeff != other_coeff:
        raise EngineError("collapse pair has mismatched coefficients")
    # first is T(c + e_r, d) and second T(c, d + e_r): their keys differ
    # by a trial unit less a test unit, and neither byte borrowed
    diff = key - other
    for r in range(n):
        trial, test = _shifts(n, r)
        if diff == (1 << trial) - (1 << test):
            break
    else:
        raise EngineError("terms do not form a product-rule pair")
    if not (key >> trial & _LIMIT and other >> test & _LIMIT):
        raise EngineError("terms do not form a product-rule pair")
    lowered = key - (1 << trial)
    return r, _flux(((lowered, coeff),), lowered, n)


def collapse_step(first: tuple, second: tuple, n: int) -> tuple:
    """Absorb a product-rule pair  T(c + e_r, d) + T(c, d + e_r), given as
    (key, coeff) products in dimension n, into the flux T(c, d) on axis r.
    Returns (r, flux expression).

    On the two products of a brace {beta + e_r, beta} the flux is
    d^beta q d^beta qt, i.e. half of {beta, beta}: the doubled form printed
    in some references fails the product rule, and the oracle assertion
    here pins the factor.
    """
    r, flux = _collapse(first, second, n)
    (key, coeff), (other, other_coeff) = first, second
    negated = -coeff
    # the two products of one brace share their coefficient
    other_coeff = negated if other_coeff is coeff else -other_coeff
    # d_r flux - first - second, in one merge of packed terms
    if merge_terms([*product_rule(flux, r), (key, negated),
                    (other, other_coeff)]):
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
    held sorted by key; a plan that names one term twice is refused.
    ``decompose`` matches the items to the operator's terms by key."""

    __slots__ = ()

    def __new__(cls, items) -> "DecompositionPlan":
        items = tuple(sorted(items))
        for (key, _), (after, _) in zip(items, items[1:]):
            if key == after:
                raise PlanError(f"plan names operator term {after} twice")
        return tuple.__new__(cls, (items,))

    @staticmethod
    def _trusted(items: tuple) -> "DecompositionPlan":
        """Wrap items already sorted by key, each key once, skipping the
        sort and check of the public constructor: the engine's plans list
        their terms in ``operator_terms`` order, which is key order."""
        return tuple.__new__(DecompositionPlan, (items,))

    @classmethod
    def _make(cls, iterable) -> "DecompositionPlan":
        """Build through the checked constructor; ``_replace`` calls this."""
        return cls(*iterable)


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


def operator_terms(op: Operator) -> Iterator[tuple]:
    """Yield ((row, col, alpha), coeff) once per scalar term, in key
    order: row is the term's test field and col its trial field."""
    for i, row in enumerate(grid(op)):
        for j, entry in enumerate(row):
            for alpha, coeff in entry.terms:
                yield (i, j, alpha), coeff


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
    return DecompositionPlan._trusted(
        tuple((key, first_term_plan(key[2])) for key, _ in operator_terms(op))
    )


def sigma_count(alpha) -> int:
    """Number of distinct reduction paths: (sum gamma)! / prod gamma_k!."""
    gamma = MultiIndex.coerce(alpha).half()
    total = math.factorial(sum(gamma))
    for g in gamma:
        total //= math.factorial(g)
    return total


def term_plan_count(alpha) -> int:
    alpha = MultiIndex.coerce(alpha)
    return math.factorial(len(alpha.odd_axes())) * sigma_count(alpha)


def count_forms(op: Operator) -> int:
    """Size of the constructible family: prod over terms of O_alpha! sigma(alpha)."""
    total = 1
    for (_, _, alpha), _ in operator_terms(op):
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
    alpha = MultiIndex.coerce(alpha)
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


def enumerate_plans(op: Operator) -> Iterator[DecompositionPlan]:
    """All decomposition plans for the operator, in a deterministic order:
    the product of the terms' ``term_plans``, the last term changing
    fastest.

    Refuses (EnumerationLimit, carrying the exact count) when the family
    is larger than PLAN_CEILING.  The plans of every term but the last are
    held in lists; the last term's are streamed again from ``term_plans``
    for each combination of the others, so memory grows with the other
    terms' plans and does not grow with the family.
    """
    total = count_forms(op)
    if total > PLAN_CEILING:
        raise EnumerationLimit(total, PLAN_CEILING)
    keys = [key for key, _ in operator_terms(op)]
    if not keys:
        yield DecompositionPlan._trusted(())
        return
    *others, last = keys
    for combo in itertools.product(*(list(term_plans(key[2])) for key in others)):
        items = tuple(zip(others, combo))
        for tp in term_plans(last[2]):
            yield DecompositionPlan._trusted((*items, (last, tp)))


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
    its flux objects.  Every state is the (key, coeff) products of a
    pairing, from the root [alpha, 0] or {alpha, 0} to the last two
    products; a walk with an odd number of odd axes closes on their
    collapse, any other on a check that they cancel, for every plan.  The
    rules are looked up as module globals at each step.
    """
    n = len(alpha)
    odd = len(alpha.odd_axes())
    # [alpha, 0] for an even order, {alpha, 0} for an odd one
    root = tuple(pack(_pairing(alpha, bytes(n), 0, 0, 1,
                               1 if alpha.order % 2 else -1)))
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
                flux, state = reduce_step(state, step, n)
                pairs = ((step, flux),)
            else:
                current, pairs = exchange_step(state[0], *step, n)
                state = (current, state[1])
            stack.append((step, state, pairs))
        emitted = [pair for _, _, pairs in stack for pair in pairs]
        if odd % 2:
            emitted.append(collapse_step(*state, n))
        elif merge_terms(state):
            raise EngineError("the walk's last two products do not cancel")
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
    # the plan's items are matched to the terms, and a supplied plan's
    # term plans checked, before any rewrite step runs; default_plan's are
    # first_term_plan's, valid by construction
    supplied = plan is not None
    if not supplied:
        plan = default_plan(op)
    unmatched = dict(plan.items)
    terms = []
    for key, coeff in operator_terms(op):
        row, col, alpha = key
        term_plan = unmatched.pop(key, None)
        if term_plan is None:
            raise PlanError(f"no plan for operator term {(row, col, tuple(alpha))}")
        if supplied:
            _validate_term_plan(alpha, term_plan)
        terms.append((alpha, coeff, col, row, term_plan))
    if unmatched:
        row, col, alpha = next(iter(unmatched))
        raise PlanError(f"plan names operator term {(row, col, tuple(alpha))}, "
                        "which the operator lacks")
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


def _gate(op: Operator, plan: DecompositionPlan | None, emitted: list,
          rhs: BilinearExpr) -> DivergenceDecomposition:
    """Sum the emitted (axis, flux) pairs into one flux per axis, then the
    final gate: their divergence must equal the pairing ``rhs``.  The
    result records `plan`, None for a sum of pieces that no plan names."""
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
    for key, coeff in operator_terms(op):
        row, col, alpha = key
        alone = ScalarPDO._trusted(op.axes, ((alpha, coeff),))
        if isinstance(op, MatrixPDO):
            zero = ScalarPDO._trusted(op.axes, ())
            alone = MatrixPDO(op.axes, op.fields, tuple(
                tuple(alone if (i, j) == (row, col) else zero
                      for j in range(op.size))
                for i in range(op.size)
            ))
        rhs = bilinear_rhs(alone)
        walk = list(_walk_term(alpha, term_plans(alpha)))
        placed = _place([emitted for _, emitted in walk], n, col, row, coeff)
        yield key, [_gate(alone, DecompositionPlan._trusted(((key, tp),)), fluxes, rhs)
                    for (tp, _), fluxes in zip(walk, placed)]
