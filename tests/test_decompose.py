import importlib
import itertools
import json
import random

import pytest

from conftest import random_operator, random_poly
from oracles import (
    BRACE,
    BRACKET,
    PairTerm,
    brace,
    bracket,
    collapse_terms,
    decr,
    exchange_term,
    incr,
    packed_pair,
    reduce_pair,
    reference_walk,
    scalar_operator,
    term,
    triple_product_operator,
)
from fundform.algebra import (
    BilinearExpr,
    BilinearTerm,
    MultiIndex,
    divergence,
    pack,
    partial,
)
from fundform.decompose import (
    DecompositionPlan,
    EngineError,
    EnumerationLimit,
    PlanError,
    TermPlan,
    count_forms,
    decompose,
    default_plan,
    enumerate_plans,
    exchange_step,
    operator_terms,
    reduce_step,
    sigma_count,
    term_pieces,
    term_plan_count,
    term_plans,
    DivergenceDecomposition,
)
from fundform.operators import MatrixPDO, ScalarPDO, bilinear_rhs
from fundform.parser import parse_operator
from fundform.ring import Poly
from fundform.catalog import (
    biharmonic_operator,
    heat_operator,
    stokes_operator,
    wave_operator,
)

engine = importlib.import_module("fundform.decompose")


def expr_dict(expr):
    return {(t.left_field, t.right_field, tuple(t.left), tuple(t.right)): t.coeff
            for t in expr}


# ---------------------------------------------------------------------------
# Individual rewrite rules


def test_reduce_step_triple_product_first_move():
    # [(2,2,2), 0] -> d_x [(1,2,2), 0] - [(1,2,2), (1,0,0)]
    pair = PairTerm(BRACKET, Poly.const(1), MultiIndex((2, 2, 2)),
                    MultiIndex((0, 0, 0)))
    flux, remainder = reduce_pair(pair, 0)
    assert flux == bracket((1, 2, 2), (0, 0, 0))
    assert remainder == PairTerm(BRACKET, Poly.const(-1), MultiIndex((1, 2, 2)),
                                 MultiIndex((1, 0, 0)))


def test_reduce_step_reaches_vanishing_diagonal():
    pair = PairTerm(BRACKET, Poly.const(1), MultiIndex((2, 0)), MultiIndex((0, 0)))
    flux, remainder = reduce_pair(pair, 0)
    assert remainder.alpha == remainder.beta
    assert BilinearExpr(remainder.products()).is_zero


def test_reduce_step_brace_variant():
    pair = PairTerm(BRACE, Poly.const(1), MultiIndex((2, 0)), MultiIndex((0, 0)))
    flux, remainder = reduce_pair(pair, 0)
    assert flux == brace((1, 0), (0, 0))
    assert remainder == PairTerm(BRACE, Poly.const(-1), MultiIndex((1, 0)),
                                 MultiIndex((1, 0)))
    # oracle: d_x {(1,0),(0,0)} - {(1,0),(1,0)} = {(2,0),(0,0)}
    assert partial(flux, 0) + BilinearExpr(remainder.products()) == BilinearExpr(pair.products())


def test_reduce_step_requires_available_axis():
    with pytest.raises(PlanError):
        reduce_pair(PairTerm(BRACKET, Poly.const(1), MultiIndex((0, 2)),
                             MultiIndex((0, 0))), 0)


def test_reduce_step_identity_randomized():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 4)
        alpha = MultiIndex([rng.randint(0, 3) for _ in range(n)])
        beta = MultiIndex([rng.randint(0, 2) for _ in range(n)])
        axes_available = [k for k in range(n) if alpha[k] > 0]
        if not axes_available:
            continue
        k = rng.choice(axes_available)
        kind = rng.choice((BRACKET, BRACE))
        pair = PairTerm(kind, Poly.const(rng.randint(1, 5)), alpha, beta)
        flux, remainder = reduce_pair(pair, k)
        assert partial(flux, k) + BilinearExpr(remainder.products()) == BilinearExpr(pair.products())


def test_exchange_step_smallest_case():
    # q_x qt_y = q_y qt_x + d_x(q qt_y) - d_y(q qt_x)
    start = BilinearTerm(Poly.const(1), 0, MultiIndex((1, 0)), 0, MultiIndex((0, 1)))
    swapped, contributions = exchange_term(start, 0, 1)
    assert swapped == BilinearTerm(Poly.const(1), 0, MultiIndex((0, 1)), 0,
                                   MultiIndex((1, 0)))
    (k, flux_k), (j, flux_j) = contributions
    assert (k, j) == (0, 1)
    assert expr_dict(flux_k) == {(0, 0, (0, 0), (0, 1)): Poly.const(1)}
    assert expr_dict(flux_j) == {(0, 0, (0, 0), (1, 0)): Poly.const(-1)}


def test_exchange_step_same_axis_degenerate():
    start = BilinearTerm(Poly.const(1), 0, MultiIndex((1,)), 0, MultiIndex((1,)))
    swapped, contributions = exchange_term(start, 0, 0)
    assert swapped == start
    total = sum((flux for _, flux in contributions), BilinearExpr())
    assert total.is_zero


def test_exchange_step_precondition():
    start = BilinearTerm(Poly.const(1), 0, MultiIndex((1, 0)), 0, MultiIndex((0, 1)))
    with pytest.raises(PlanError):
        exchange_term(start, 1, 1)
    with pytest.raises(PlanError):
        exchange_term(start, 0, 0)


def test_exchange_step_identity_randomized():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 4)
        left = MultiIndex([rng.randint(0, 2) for _ in range(n)])
        right = MultiIndex([rng.randint(0, 2) for _ in range(n)])
        ks = [k for k in range(n) if left[k] > 0]
        js = [j for j in range(n) if right[j] > 0]
        if not ks or not js:
            continue
        k, j = rng.choice(ks), rng.choice(js)
        start = BilinearTerm(Poly.const(rng.randint(1, 4)), 0, left, 0, right)
        swapped, contributions = exchange_term(start, k, j)
        total = BilinearExpr([swapped])
        for axis, flux in contributions:
            total = total + partial(flux, axis)
        assert total == BilinearExpr([start])


def collapse_brace(alpha, beta, coeff=1):
    """collapse_step on the two products of the brace coeff * {alpha, beta}."""
    pair = PairTerm(BRACE, Poly.const(coeff), MultiIndex(alpha), MultiIndex(beta))
    return collapse_terms(*pair.products())


def test_brace_collapse_zero_base():
    k, flux = collapse_brace((0, 1), (0, 0))
    assert k == 1
    assert expr_dict(flux) == {(0, 0, (0, 0), (0, 0)): Poly.const(1)}
    assert partial(flux, 1) == brace((0, 1), (0, 0))


def test_brace_collapse_shifted_base():
    # {e1, e1+e2} = d_y(q_x qt_x)
    k, flux = collapse_brace((1, 1), (1, 0))
    assert k == 1
    assert expr_dict(flux) == {(0, 0, (1, 0), (1, 0)): Poly.const(1)}
    assert partial(flux, 1) == brace((1, 1), (1, 0))


def test_brace_collapse_pair_mirror_orientation():
    # the rule takes the pair in product-rule order only: the term with
    # the extra trial derivative first
    k, flux = collapse_brace((1, 1), (1, 0), coeff=3)
    assert k == 1 and partial(flux, 1) == brace((1, 1), (1, 0), coeff=3)
    with pytest.raises(EngineError):
        collapse_brace((1, 0), (1, 1))


def test_brace_collapse_pair_shape_errors():
    with pytest.raises(EngineError):
        collapse_brace((2, 0), (0, 0))
    with pytest.raises(EngineError):
        collapse_brace((1, 1), (0, 0))
    # a bracket's two products carry opposite coefficients
    bracket_pair = PairTerm(BRACKET, Poly.const(1), MultiIndex((1, 0)),
                            MultiIndex((0, 0)))
    with pytest.raises(EngineError):
        collapse_terms(*bracket_pair.products())
    first, second = PairTerm(BRACE, Poly.const(1), MultiIndex((1,)),
                             MultiIndex((0,))).products()
    with pytest.raises(EngineError):  # mixed fields
        collapse_terms(first, BilinearTerm(second.coeff, 1, second.left, 0,
                                           second.right))


def _same_packing(flux, terms):
    """`flux` holds the pairs, dimension and top byte of the expression
    that BilinearExpr builds from `terms`."""
    expect = BilinearExpr(terms)
    assert (flux._pairs, flux._dim, flux._top) == (
        expect._pairs, expect._dim, expect._top)
    assert type(flux._pairs) is tuple and flux == expect


def _entries(rng, n):
    """n derivative counts in 0..254, the edges and small counts often."""
    return MultiIndex(rng.choice((0, 1, 2, 253, 254, rng.randint(0, 254)))
                      for _ in range(n))


def test_builders_pack_their_fluxes_as_bilinear_expr_would():
    # each builder forms its flux's packed keys directly; the flux must be
    # the expression BilinearExpr would build from the same products
    rng = random.Random(2024)
    for _ in range(600):
        n = rng.randint(1, 6)
        lf, rf = rng.randint(0, 3), rng.randint(0, 3)
        coeff = random_poly(rng, names=("nu", "k"))
        kind = rng.choice((BRACKET, BRACE))
        alpha, beta = _entries(rng, n), _entries(rng, n)
        k = rng.randrange(n)
        if rng.random() < 0.2:  # on the diagonal the two products meet
            beta = alpha
        if alpha[k] == 0:
            alpha = incr(alpha, k)
        pair = PairTerm(kind, coeff, alpha, beta, lf, rf)
        lowered = decr(alpha, k)
        flux, remainder = reduce_pair(pair, k, engine._reduce)
        _same_packing(flux, PairTerm(kind, coeff, lowered, beta, lf,
                                     rf).products())
        assert remainder == PairTerm(kind, -coeff, lowered, incr(beta, k),
                                     lf, rf)
        if flux._top < 255:
            assert reduce_pair(pair, k) == (flux, remainder)

        # exchange: axis k of the trial slot with axis j of the test slot
        left, right = _entries(rng, n), _entries(rng, n)
        j = rng.randrange(n)
        if left[k] == 0:
            left = incr(left, k)
        if right[j] == 0:
            right = incr(right, j)
        start = BilinearTerm(coeff, lf, left, rf, right)
        swapped, flux_k, flux_j = exchange_term(start, k, j, engine._exchange)
        moved = incr(decr(right, j), k)
        assert swapped == BilinearTerm(coeff, lf, incr(decr(left, k), j), rf,
                                       moved)
        _same_packing(flux_k, [BilinearTerm(coeff, lf, decr(left, k), rf,
                                            right)])
        _same_packing(flux_j, [BilinearTerm(-coeff, lf, decr(left, k), rf,
                                            moved)])
        if max(flux_k._top, flux_j._top, *swapped.left) < 255:
            assert exchange_term(start, k, j) == (
                swapped, ((k, flux_k), (j, flux_j)))

        # collapse of T(c + e_r, d) + T(c, d + e_r) into T(c, d)
        base, rest = _entries(rng, n), _entries(rng, n)
        first = BilinearTerm(coeff, lf, incr(base, k), rf, rest)
        second = BilinearTerm(coeff, lf, base, rf, incr(rest, k))
        r, flux = collapse_terms(first, second, engine._collapse)
        assert r == k
        _same_packing(flux, [BilinearTerm(coeff, lf, base, rf, rest)])
        if flux._top < 255:
            assert collapse_terms(first, second) == (r, flux)


def test_steps_refuse_a_count_past_the_packed_width():
    # 255 is the largest count a key byte holds: a step whose result would
    # hold 256 raises, and never carries into the neighbouring byte
    one = Poly.const(1)
    pair = PairTerm(BRACE, one, MultiIndex((2, 1)), MultiIndex((254, 0)), 0, 3)
    flux, remainder = reduce_pair(pair, 0)
    assert remainder.beta == (255, 0) and flux._top == 254
    with pytest.raises(ValueError, match="packed width"):
        reduce_pair(remainder, 0)
    # the exchange's moved test slot, and its swapped trial slot
    with pytest.raises(ValueError, match="0..255"):
        exchange_term(BilinearTerm(one, 0, MultiIndex((1, 0)), 0,
                                   MultiIndex((255, 1))), 0, 1)
    with pytest.raises(ValueError, match="0..255"):
        exchange_term(BilinearTerm(one, 0, MultiIndex((1, 0)), 0,
                                   MultiIndex((255, 1))), 0, 1, engine._exchange)
    with pytest.raises(ValueError):
        exchange_term(BilinearTerm(one, 0, MultiIndex((1, 255)), 0,
                                   MultiIndex((0, 1))), 0, 1)
    # a collapse whose flux holds 255 cannot be differentiated
    first = BilinearTerm(one, 0, MultiIndex((1, 255)), 0, MultiIndex((0, 0)))
    second = BilinearTerm(one, 0, MultiIndex((0, 255)), 0, MultiIndex((1, 0)))
    with pytest.raises(ValueError, match="packed width"):
        collapse_terms(first, second)
    # field indices past 255 are refused by the same packing
    with pytest.raises(ValueError, match="0..255"):
        reduce_pair(PairTerm(BRACKET, one, MultiIndex((1,)), MultiIndex((0,)),
                             256, 0), 0)


# ---------------------------------------------------------------------------
# Plans


def test_default_plan_examples():
    assert next(term_plans((2, 0))) == TermPlan(path=(0,))
    assert next(term_plans((2, 2, 2))) == TermPlan(path=(0, 1, 2))
    assert next(term_plans((1, 1))) == TermPlan(
        path=(), transfer=(0,), exchanges=((1, 0),)
    )


def test_plan_validation_errors():
    op = parse_operator("axes x,y; Dx^2*Dy^2")
    key = (0, 0, MultiIndex((2, 2)))
    bad_path = DecompositionPlan(((key, TermPlan(path=(0, 0))),))
    with pytest.raises(PlanError):
        decompose(op, bad_path)
    odd_op = parse_operator("axes x,y; Dx*Dy")
    odd_key = (0, 0, MultiIndex((1, 1)))
    with pytest.raises(PlanError):
        decompose(odd_op, DecompositionPlan(
            ((odd_key, TermPlan(transfer=(0, 1), exchanges=())),)
        ))
    with pytest.raises(PlanError):
        decompose(odd_op, DecompositionPlan(
            ((odd_key, TermPlan(transfer=(0,), exchanges=())),)
        ))
    with pytest.raises(PlanError):
        decompose(odd_op, DecompositionPlan(
            ((odd_key, TermPlan(transfer=(0,), exchanges=((0, 0),))),)
        ))
    with pytest.raises(PlanError):
        decompose(op, DecompositionPlan(()))  # missing term plan


# ---------------------------------------------------------------------------
# Whole decompositions against frozen fixtures


def test_wave_decomposition_fixture():
    dec = decompose(wave_operator())
    a_x, a_t = dec.fluxes
    assert a_t == bracket((0, 1), (0, 0))          # qt q_t - q qt_t
    assert a_x == -bracket((1, 0), (0, 0))         # -(qt q_x - q qt_x)
    assert dec.verified


def test_heat_decomposition_fixture():
    dec = decompose(heat_operator())
    a_x, a_t = dec.fluxes
    assert expr_dict(a_t) == {(0, 0, (0, 0), (0, 0)): Poly.const(1)}  # q qt
    assert a_x == -bracket((1, 0), (0, 0))
    assert dec.verified


def test_triple_product_default_plan_matches_display():
    dec = decompose(triple_product_operator())
    zero = (0, 0, 0)
    a_x, a_y, a_z = dec.fluxes
    assert a_x == bracket((1, 2, 2), zero) + bracket((1, 2, 0), zero)
    assert a_y == -(bracket((1, 1, 2), (1, 0, 0)) + bracket((1, 1, 0), (1, 0, 0)))
    assert a_z == bracket((1, 1, 1), (1, 1, 0)) + bracket((0, 0, 1), zero)


def test_pure_odd_term_decomposes():
    op = parse_operator("axes x,y,z; Dx*Dy*Dz")
    dec = decompose(op)
    assert (divergence(dec.fluxes) - bilinear_rhs(op)).is_zero
    # default plan: transfer {x}, exchange (y, x), collapse on z
    assert expr_dict(dec.fluxes[0])[(0, 0, (0, 1, 1), (0, 0, 0))] == Poly.const(1)


def test_verify_divergence_negative_control():
    dec = decompose(wave_operator())
    corrupted = DivergenceDecomposition(
        dec.axes,
        (dec.fluxes[0] + BilinearExpr([term(1, (0, 0), (0, 0))]), dec.fluxes[1]),
        dec.source,
        dec.plan,
    )
    residual = divergence(corrupted.fluxes) - bilinear_rhs(corrupted.source)
    # the residual is exactly d_x(q qt)
    assert residual == partial(BilinearExpr([term(1, (0, 0), (0, 0))]), 0)


def test_decomposition_linearity():
    left = parse_operator("axes x,t; Dt^2")
    right = parse_operator("axes x,t; -Dx^2")
    combined = parse_operator("axes x,t; Dt^2 - Dx^2")
    dl, dr, dc = decompose(left), decompose(right), decompose(combined)
    for a, b, c in zip(dl.fluxes, dr.fluxes, dc.fluxes):
        assert a + b == c


def test_random_operators_decompose_and_verify():
    rng = random.Random(47)
    for _ in range(40):
        op = random_operator(rng, with_params=rng.random() < 0.3)
        dec = decompose(op)
        assert dec.verified
        assert (divergence(dec.fluxes) - bilinear_rhs(op)).is_zero


# ---------------------------------------------------------------------------
# Counting and enumeration


def test_sigma_count_values():
    assert sigma_count((2, 2, 4)) == 12
    assert sigma_count((2, 2, 5, 6)) == 420
    assert sigma_count((0, 0)) == 1
    assert sigma_count((1, 1)) == 1


def test_count_forms_values():
    assert count_forms(wave_operator()) == 1
    assert count_forms(triple_product_operator()) == 12
    assert count_forms(biharmonic_operator()) == 8


def test_count_forms_system_multiplies_entries():
    heat = heat_operator()
    zero = scalar_operator(heat.axes, {})
    grid = MatrixPDO(heat.axes, ("a", "b"), ((heat, zero), (zero, heat)))
    assert count_forms(grid) == count_forms(heat) ** 2


def test_term_plans_match_count():
    for alpha in [(2, 0), (1, 1), (1, 1, 1), (3, 1), (2, 1, 1, 1), (2, 2, 4)]:
        plans = list(term_plans(alpha))
        assert len(plans) == term_plan_count(alpha)
        assert len(set(plans)) == len(plans)


def test_enumerate_plans_cardinality_and_validity():
    op = triple_product_operator()
    plans = list(enumerate_plans(op))
    assert len(plans) == count_forms(op) == 12
    assert len(set(plans)) == 12
    for plan in plans:
        assert decompose(op, plan).verified


def test_enumerate_plans_every_plan_verifies_small_random():
    rng = random.Random(53)
    seen = 0
    while seen < 6:
        op = random_operator(rng, max_dim=3, max_order=4, max_terms=2)
        if count_forms(op) > 24:
            continue
        seen += 1
        plans = list(enumerate_plans(op))
        assert len(plans) == count_forms(op)
        for plan in plans:
            assert decompose(op, plan).verified


def test_term_pieces_sum_to_every_member():
    # linearity over terms: each member's fluxes are one piece per term, summed
    rng = random.Random(61)
    coupled = parse_operator(json.dumps({
        "axes": ["x", "y"], "fields": ["u", "v"],
        "entries": [["Dx*Dy", "Dx"], ["2*Dy", "Dx^2*Dy^2 + Dx*Dy"]],
    }))
    ops = [triple_product_operator(), stokes_operator(), coupled]
    while len(ops) < 7:
        op = random_operator(rng, max_dim=3, max_order=5, max_terms=3,
                             with_params=True)
        if 1 < count_forms(op) <= 24:
            ops.append(op)
    for op in ops:
        pieces = {key: dict(zip(term_plans(key[2]), decs))
                  for key, decs in term_pieces(op)}
        for plan in enumerate_plans(op):
            summed = [BilinearExpr() for _ in op.axes]
            for key, tp in plan.items:
                piece = pieces[key][tp]
                assert piece.verified and piece.plan.items == ((key, tp),)
                summed = [a + b for a, b in zip(summed, piece.fluxes)]
            assert tuple(summed) == decompose(op, plan).fluxes


def test_final_gate_refuses_planted_flux(monkeypatch):
    # each rewrite step passes its oracle, then a flux piece with nonzero
    # divergence joins axis 0: the gate must refuse it, on the whole
    # operator and on a term piece (gated against the term's shared pairing)
    real = engine._walk_term

    def planted(alpha, plans):
        extra = BilinearExpr([term(1, (0,) * len(alpha), (0,) * len(alpha))])
        for plan, emitted in real(alpha, plans):
            yield plan, [*emitted, (0, extra)]

    monkeypatch.setattr(engine, "_walk_term", planted)
    op = triple_product_operator()
    with pytest.raises(EngineError, match="final divergence check"):
        decompose(op)
    with pytest.raises(EngineError, match="final divergence check"):
        list(term_pieces(op))


def _count_rule_calls(monkeypatch):
    """Count calls of the three rewrite rules, looked up as module globals."""
    calls = dict.fromkeys(("reduce_step", "exchange_step", "collapse_step"), 0)
    for name in calls:
        def counted(*args, real=getattr(engine, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(engine, name, counted)
    return calls


def test_term_walk_runs_each_shared_step_once(monkeypatch):
    # Dx^3*Dy^3*Dz has 2 paths x 3 transfers x 2 exchange pairings = 12
    # plans of 5 rule calls each.  Walking the plan trie takes 4 path and
    # 6 transfer reductions, 12 exchanges and one collapse per plan
    op = parse_operator("axes x,y,z,w; Dx^3*Dy^3*Dz")
    calls = _count_rule_calls(monkeypatch)
    (key, pieces), = term_pieces(op)
    assert calls == {"reduce_step": 10, "exchange_step": 12, "collapse_step": 12}
    assert len(pieces) == 12
    calls.update(dict.fromkeys(calls, 0))
    for tp in term_plans(key[2]):
        decompose(op, DecompositionPlan(((key, tp),)))
    assert sum(calls.values()) == 60


def test_only_supplied_plans_are_validated(monkeypatch):
    # term_plans makes only valid plans, so the term walk of term_pieces
    # checks none; decompose checks every supplied term plan before any
    # rewrite rule runs, here a bad plan for the term walked last
    validated = []
    real = engine._validate_term_plan

    def counted(alpha, plan):
        validated.append(plan)
        return real(alpha, plan)

    monkeypatch.setattr(engine, "_validate_term_plan", counted)
    op = parse_operator("axes x,y,z,w; Dx^3*Dy^3*Dz + Dx*Dy")
    pieces = list(term_pieces(op))
    assert [len(term) for _, term in pieces] == [2, 12]
    assert validated == []
    calls = _count_rule_calls(monkeypatch)
    (first, first_plan), (last, _) = default_plan(op).items
    assert first[2] < last[2]
    bad = DecompositionPlan(((first, first_plan), (last, TermPlan(path=(0,)))))
    with pytest.raises(PlanError, match="does not use each axis"):
        decompose(op, bad)
    assert sum(calls.values()) == 0
    assert len(validated) == 2
    # a plan that decompose makes itself is first_term_plan's, valid by
    # construction (test_first_term_plan_is_the_first_of_term_plans)
    decompose(op)
    assert len(validated) == 2
    assert sum(calls.values()) > 0


def _term_alone(op, key, coeff):
    """The operator holding only the term `key` of `op`."""
    row, col, alpha = key
    alone = ScalarPDO(op.axes, ((alpha, coeff),))
    if not isinstance(op, MatrixPDO):
        return alone
    zero = ScalarPDO(op.axes, ())
    return MatrixPDO(op.axes, op.fields, [
        [alone if (i, j) == (row, col) else zero for j in range(op.size)]
        for i in range(op.size)
    ])


@pytest.mark.parametrize("text", [
    "axes x,y,z,w; Dx^3*Dy^3*Dz",
    "axes x,y,z,w; Dx^3*Dy*Dz*Dw - 2*Dx*Dy",
    "axes x,y,z; Dx^2*Dy^2*Dz^2 + Dx^4 + 3",
    json.dumps({"axes": ["x", "y", "z"], "fields": ["u", "v"],
                "entries": [["Dx*Dy*Dz", "Dx^3*Dy"], ["2*Dy", "Dx^2*Dz"]]}),
], ids=["brace", "even-odd", "even-and-constant", "matrix"])
def test_term_walk_matches_per_plan_route(text):
    # every piece of the walk is the term decomposed alone under its plan,
    # one plan at a time
    op = parse_operator(text)
    coeffs = dict(operator_terms(op))
    seen = 0
    for key, pieces in term_pieces(op):
        alone = _term_alone(op, key, coeffs[key])
        plans = list(term_plans(key[2]))
        assert len(pieces) == len(plans)
        for piece, tp in zip(pieces, plans):
            plan = DecompositionPlan(((key, tp),))
            expected = decompose(alone, plan)
            assert piece.verified and piece.source == alone
            assert (piece.fluxes, piece.plan) == (expected.fluxes, expected.plan)
            seen += 1
    assert seen == sum(term_plan_count(key[2]) for key in coeffs)


def test_first_term_plan_is_the_first_of_term_plans():
    # the closed form is the first plan term_plans makes, for every alpha
    # with entries 0-4 on 1-4 axes, and default_plan's items all pass the
    # check that decompose runs on a supplied plan
    for n in range(1, 5):
        alphas = [MultiIndex(a) for a in itertools.product(range(5), repeat=n)]
        for alpha in alphas:
            assert engine.first_term_plan(alpha) == next(term_plans(alpha))
        op = ScalarPDO(tuple(f"x{k}" for k in range(n)),
                       tuple((alpha, 1) for alpha in alphas))
        items = default_plan(op).items
        assert len(items) == 5 ** n
        for (_, _, alpha), tp in items:
            engine._validate_term_plan(MultiIndex(alpha), tp)


def _wide_grid(row, col, text):
    """A 257-field operator on one axis, zero but for entry (row, col)."""
    fields = tuple(f"f{k}" for k in range(257))
    zero = ScalarPDO(("x",), ())
    entry = parse_operator(f"axes x; {text}")
    return MatrixPDO(("x",), fields, tuple(
        tuple(entry if (i, j) == (row, col) else zero for j in range(257))
        for i in range(257)))


@pytest.mark.parametrize("row,col,text", [
    (256, 0, "Dx"), (0, 256, "Dx^2"), (256, 256, "3"),
], ids=["test-field", "trial-field", "constant"])
def test_field_past_the_packed_width_refused(row, col, text):
    # a field index of 256 is refused, as pack refuses it, also for a
    # zero-order term whose walk emits nothing
    op = _wide_grid(row, col, text)
    with pytest.raises(ValueError, match=r"0\.\.255"):
        decompose(op)
    with pytest.raises(ValueError, match=r"0\.\.255"):
        list(term_pieces(op))


def test_placement_is_the_term_with_its_fields_and_coefficient():
    # each unit flux of a walk, placed on a term, is the expression of its
    # products with the term's fields and each multiplicity times the
    # coefficient: same pairs, dimension and top byte
    rng = random.Random(27)
    for _ in range(60):
        n = rng.randint(1, 4)
        alpha = MultiIndex(rng.randint(0, 5) for _ in range(n))
        lf, rf = rng.choice((0, 1, 3, 255)), rng.choice((0, 2, 255))
        coeff = random_poly(rng)
        for _, emitted in engine._walk_term(alpha, term_plans(alpha)):
            placed, = engine._place((emitted,), n, lf, rf, coeff)
            assert [axis for axis, _ in placed] == [axis for axis, _ in emitted]
            for (_, unit), (_, real) in zip(emitted, placed):
                expected = BilinearExpr([
                    BilinearTerm(coeff.scale(v), lf, left, rf, right)
                    for v, _, left, _, right in unit])
                assert (real._pairs, real._dim, real._top) == (
                    expected._pairs, expected._dim, expected._top)
    for lf, rf in ((256, 0), (0, 256), (-1, 0)):
        with pytest.raises(ValueError, match=r"0\.\.255"):
            engine._place(((),), 2, lf, rf, Poly.const(1))


def test_equal_alpha_shares_one_walk(monkeypatch):
    # Stokes' three diagonal blocks and its paired gradient entries repeat
    # alpha and plan: 7 rule calls instead of one walk per term (18)
    calls = _count_rule_calls(monkeypatch)
    decompose(stokes_operator())
    assert calls == {"reduce_step": 3, "exchange_step": 0, "collapse_step": 4}


def test_equal_alpha_with_different_paths_walks_each():
    # a supplied plan can give two entries with equal alpha different
    # paths: the walk is shared only by equal plans
    op = parse_operator(json.dumps({
        "axes": ["x", "y"], "fields": ["u", "v"],
        "entries": [["Dx^2*Dy^2", "0"], ["0", "2*Dx^2*Dy^2"]]}))
    coeffs = dict(operator_terms(op))
    (first, _), (second, _) = coeffs.items()
    plans = {first: TermPlan(path=(0, 1)), second: TermPlan(path=(1, 0))}
    dec = decompose(op, DecompositionPlan(tuple(plans.items())))
    alone = [decompose(_term_alone(op, key, coeffs[key]),
                       DecompositionPlan(((key, tp),)))
             for key, tp in plans.items()]
    assert alone[0].fluxes != decompose(
        _term_alone(op, first, coeffs[first]),
        DecompositionPlan(((first, plans[second]),))).fluxes
    assert dec.fluxes == tuple(a + b for a, b in zip(alone[0].fluxes,
                                                    alone[1].fluxes))


def _corrupt_rule_output(monkeypatch, builder, change):
    """Pass the output a rule builds through `change` before the rule's
    own identity check sees it."""
    engine = importlib.import_module("fundform.decompose")
    real = getattr(engine, builder)
    monkeypatch.setattr(engine, builder, lambda *args: change(*real(*args)))


def test_reduce_oracle_refuses_flipped_flux(monkeypatch):
    _corrupt_rule_output(monkeypatch, "_reduce",
                         lambda flux, remainder: (-flux, remainder))
    pair = PairTerm(BRACKET, Poly.const(1), MultiIndex((1, 1, 1)),
                    MultiIndex.zero(3))
    with pytest.raises(EngineError, match="reduction step failed"):
        reduce_pair(pair, 0)
    with pytest.raises(EngineError, match="reduction step failed"):
        decompose(parse_operator("axes x,y,z; Dx*Dy*Dz"))


def test_exchange_oracle_refuses_flipped_flux_j(monkeypatch):
    _corrupt_rule_output(monkeypatch, "_exchange",
                         lambda swapped, flux_k, flux_j: (swapped, flux_k, -flux_j))
    start = BilinearTerm(Poly.const(1), 0, MultiIndex((1, 0)), 0, MultiIndex((0, 1)))
    with pytest.raises(EngineError, match="exchange step failed"):
        exchange_term(start, 0, 1)
    with pytest.raises(EngineError, match="exchange step failed"):
        decompose(parse_operator("axes x,y,z; Dx*Dy*Dz"))


def test_collapse_oracle_refuses_doubled_coefficient(monkeypatch):
    # the doubled flux that fails the product rule on a brace pair
    _corrupt_rule_output(monkeypatch, "_collapse",
                         lambda r, flux: (r, flux.scale(2)))
    with pytest.raises(EngineError, match="pair collapse failed"):
        collapse_brace((1, 1), (1, 0))
    with pytest.raises(EngineError, match="pair collapse failed"):
        decompose(parse_operator("axes x,y,z; Dx*Dy*Dz"))


@pytest.mark.parametrize("rule,text", [
    ("reduce_step", "axes x,y; Dx^2*Dy^2"),
    ("exchange_step", "axes x,y; Dx*Dy"),
], ids=["even-term", "exchange-chain"])
def test_walk_refuses_last_products_that_do_not_cancel(monkeypatch, rule, text):
    # a walk that does not close on a collapse checks that its last two
    # products cancel; a rule whose output passed its own identity but
    # was then doubled reaches that check
    real = getattr(engine, rule)

    def doubled(*args):
        first, second = real(*args)
        if rule == "reduce_step":  # (flux, remaining products)
            (key, coeff), mirror = second
            return first, ((key, 2 * coeff), mirror)
        key, coeff = first  # (swapped product, fluxes)
        return (key, 2 * coeff), second

    monkeypatch.setattr(engine, rule, doubled)
    with pytest.raises(EngineError, match="last two products do not cancel"):
        decompose(parse_operator(text))


def test_enumeration_ceiling(monkeypatch):
    op = triple_product_operator()
    monkeypatch.setattr(engine, "PLAN_CEILING", 5)
    with pytest.raises(EnumerationLimit) as err:
        list(enumerate_plans(op))
    assert err.value.count == 12
    assert err.value.ceiling == 5


# ---------------------------------------------------------------------------
# Systems


def test_block_diagonal_system_decouples():
    heat = heat_operator()
    zero = scalar_operator(heat.axes, {})
    grid = MatrixPDO(heat.axes, ("a", "b"), ((heat, zero), (zero, heat)))
    dec = decompose(grid)
    scalar = decompose(heat)
    for axis in range(2):
        parts = expr_dict(dec.fluxes[axis])
        for (lf, rf, left, right), coeff in expr_dict(scalar.fluxes[axis]).items():
            assert parts[(lf, rf, left, right)] == coeff        # field a copy
            assert parts[(lf + 1, rf + 1, left, right)] == coeff  # field b copy
        assert len(parts) == 2 * len(expr_dict(scalar.fluxes[axis]))


def test_coupled_system_gains_mixed_field_flux():
    heat = heat_operator()
    zero = scalar_operator(heat.axes, {})
    coupling = parse_operator("axes x,t; Dx")
    grid = MatrixPDO(heat.axes, ("a", "b"),
                     ((heat, coupling), (zero, heat)))
    dec = decompose(grid)
    assert (divergence(dec.fluxes) - bilinear_rhs(grid)).is_zero
    # the d_x coupling of field b into row a contributes the flux  q_b qt_a
    assert expr_dict(dec.fluxes[0])[(1, 0, (0, 0), (0, 0))] == Poly.const(1)


def _stokes_flux_fixture():
    nu = Poly.var("nu")
    one = Poly.const(1)
    zero = MultiIndex.zero(4)
    e = {axis: incr(zero, axis) for axis in range(3)}
    rho = {(m, m, tuple(zero), tuple(zero)): one for m in range(3)}
    js = []
    for axis in range(3):
        flux = {
            (3, axis, tuple(zero), tuple(zero)): one,   # p * (test field axis)
            (axis, 3, tuple(zero), tuple(zero)): one,   # (trial field axis) * p~
        }
        for m in range(3):
            flux[(m, m, tuple(zero), tuple(e[axis]))] = nu
            flux[(m, m, tuple(e[axis]), tuple(zero))] = -nu
        js.append(flux)
    return js + [rho]


def test_stokes_decomposition_matches_density_and_fluxes():
    dec = decompose(stokes_operator())
    expected = _stokes_flux_fixture()
    for flux, fixture in zip(dec.fluxes, expected):
        assert expr_dict(flux) == fixture
    assert (divergence(dec.fluxes) - bilinear_rhs(stokes_operator())).is_zero


def test_divergence_of_stokes_fluxes_is_system_pairing():
    dec = decompose(stokes_operator())
    assert divergence(dec.fluxes) == bilinear_rhs(stokes_operator())


# The sympy oracle puts concrete fields q_f = exp(a_f . x) and
# qt_g = exp(b_g . x), with symbolic rates, into the fluxes, differentiates
# with sympy.diff and compares sum_j d_j a_j with qt.Lq - q.L^+qt built
# from the operator's terms.  A bilinear expression vanishes exactly when
# it vanishes on these fields for all rates, so the check is complete.  It
# reads the fluxes' terms but shares no code with `partial`, `bilinear_rhs`
# or the BilinearExpr arithmetic that the engine's own gate uses.
CATALOG_OPERATORS = [wave_operator, heat_operator, biharmonic_operator,
                     triple_product_operator, stokes_operator]


def sympy_poly(sympy, poly):
    total = sympy.Integer(0)
    for mono, c in poly.terms:
        value = (sympy.Rational(c.re.numerator, c.re.denominator)
                 + sympy.I * sympy.Rational(c.im.numerator, c.im.denominator))
        for name, exp in mono:
            value *= sympy.Symbol(name) ** exp
        total += value
    return total


def sympy_fields(sympy, xs, count, rate):
    return [sympy.exp(sum(sympy.Symbol(f"{rate}{f}_{k}") * x
                          for k, x in enumerate(xs)))
            for f in range(count)]


@pytest.mark.parametrize("make_op", CATALOG_OPERATORS,
                         ids=lambda make: make.__name__)
def test_decomposition_against_sympy(make_op):
    sympy = pytest.importorskip("sympy")
    op = make_op()
    xs = sympy.symbols(op.axes)
    rows = op.entries if isinstance(op, MatrixPDO) else ((op,),)
    q = sympy_fields(sympy, xs, len(rows), "a")
    qt = sympy_fields(sympy, xs, len(rows), "b")

    def d(expr, deriv):
        wrt = [item for x, e in zip(xs, deriv) if e for item in (x, e)]
        return sympy.diff(expr, *wrt) if wrt else expr

    dec = decompose(op)
    divergence_sum = sum(
        sympy.diff(sum((sympy_poly(sympy, t.coeff) * d(q[t.left_field], t.left)
                        * d(qt[t.right_field], t.right) for t in flux.terms),
                       sympy.Integer(0)), x)
        for x, flux in zip(xs, dec.fluxes)
    )
    pairing = sympy.Integer(0)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            for alpha, coeff in entry.terms:
                c = sympy_poly(sympy, coeff)
                pairing += qt[i] * c * d(q[j], alpha)
                pairing -= q[j] * (-1) ** sum(alpha) * c * d(qt[i], alpha)
    assert sympy.expand(divergence_sum - pairing) == 0


def _flux_fields(emitted):
    return [(axis, flux._pairs, flux._dim, flux._top) for axis, flux in emitted]


def test_packed_walk_matches_the_tuple_reference():
    # every flux the packed walk emits, and its placement on a term with
    # fields and a parametric coefficient, equals the tuple-based rules'
    # walk of that term: same pairs, dimension and top byte per axis
    rng = random.Random(31)
    nu = Poly.var("nu")
    alphas = set()
    while len(alphas) < 300:
        n = rng.randint(1, 5)
        alphas.add(MultiIndex(rng.randint(0, 4) for _ in range(n)))
    walked = 0
    for alpha in sorted(alphas):
        plans = list(itertools.islice(term_plans(alpha), 50))
        walk = list(engine._walk_term(alpha, plans))
        assert [plan for plan, _ in walk] == plans
        for (_, emitted), (_, expected) in zip(walk,
                                              reference_walk(alpha, plans)):
            assert _flux_fields(emitted) == _flux_fields(expected)
        lf, rf = rng.randint(0, 3), rng.randint(0, 3)
        coeff = nu * rng.randint(-3, 3) + rng.randint(1, 4)
        placed = engine._place([emitted for _, emitted in walk], len(alpha),
                               lf, rf, coeff)
        for row, (_, expected) in zip(placed, reference_walk(
                alpha, plans, coeff, lf, rf)):
            assert _flux_fields(row) == _flux_fields(expected)
        walked += len(plans)
    assert walked > 3000


def test_packed_rules_refuse_an_axis_out_of_range():
    # the axis picks a byte by shifting: an axis outside 0..n-1 would take
    # a negative shift or read a neighbouring byte, so it is refused
    pair = packed_pair(PairTerm(BRACKET, 1, MultiIndex((2, 1)),
                                MultiIndex((1, 1))))
    (product,) = pack((BilinearTerm(1, 0, MultiIndex((1, 1)), 0,
                                    MultiIndex((1, 1))),))
    for axis in (2, -1):
        with pytest.raises(ValueError, match=f"axis {axis} out of range"):
            reduce_step(pair, axis, 2)
        with pytest.raises(ValueError, match=f"axis {axis} out of range"):
            exchange_step(product, axis, 0, 2)
        with pytest.raises(ValueError, match=f"axis {axis} out of range"):
            exchange_step(product, 0, axis, 2)
    # a missing derivative on an axis in range is still the plan's fault
    empty = packed_pair(PairTerm(BRACKET, 1, MultiIndex((0, 1)),
                                 MultiIndex((0, 0))))
    with pytest.raises(PlanError, match="axis 0 has no derivative"):
        reduce_step(empty, 0, 2)
    with pytest.raises(PlanError, match="no axis-0 derivative"):
        exchange_step(pack((BilinearTerm(1, 0, MultiIndex((0, 1)), 0,
                                         MultiIndex((1, 0))),))[0], 0, 0, 2)
