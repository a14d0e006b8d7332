import importlib
import json
import random

import pytest

from conftest import random_operator
from fundform.algebra import (
    BilinearExpr,
    BilinearTerm,
    MultiIndex,
    brace,
    bracket,
    divergence,
    partial,
    term,
)
from fundform.decompose import (
    BRACE,
    BRACKET,
    DecompositionPlan,
    EngineError,
    EnumerationLimit,
    PairTerm,
    PlanError,
    TermPlan,
    collapse_step,
    count_forms,
    decompose,
    ensure_verified,
    enumerate_plans,
    exchange_step,
    reduce_step,
    sigma_count,
    term_pieces,
    term_plan_count,
    term_plans,
    verify_divergence,
    DivergenceDecomposition,
)
from fundform.operators import MatrixPDO, ScalarPDO, bilinear_rhs
from fundform.parser import parse_operator
from fundform.ring import Poly
from fundform.catalog import (
    biharmonic_operator,
    heat_operator,
    stokes_operator,
    triple_product_operator,
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
    flux, remainder = reduce_step(pair, 0)
    assert flux == bracket((1, 2, 2), (0, 0, 0))
    assert remainder == PairTerm(BRACKET, Poly.const(-1), MultiIndex((1, 2, 2)),
                                 MultiIndex((1, 0, 0)))


def test_reduce_step_reaches_vanishing_diagonal():
    pair = PairTerm(BRACKET, Poly.const(1), MultiIndex((2, 0)), MultiIndex((0, 0)))
    flux, remainder = reduce_step(pair, 0)
    assert remainder.alpha == remainder.beta
    assert remainder.to_expr().is_zero


def test_reduce_step_brace_variant():
    pair = PairTerm(BRACE, Poly.const(1), MultiIndex((2, 0)), MultiIndex((0, 0)))
    flux, remainder = reduce_step(pair, 0)
    assert flux == brace((1, 0), (0, 0))
    assert remainder == PairTerm(BRACE, Poly.const(-1), MultiIndex((1, 0)),
                                 MultiIndex((1, 0)))
    # oracle: d_x {(1,0),(0,0)} - {(1,0),(1,0)} = {(2,0),(0,0)}
    assert partial(flux, 0) + remainder.to_expr() == pair.to_expr()


def test_reduce_step_requires_available_axis():
    with pytest.raises(PlanError):
        reduce_step(PairTerm(BRACKET, Poly.const(1), MultiIndex((0, 2)),
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
        flux, remainder = reduce_step(pair, k)
        assert partial(flux, k) + remainder.to_expr() == pair.to_expr()


def test_exchange_step_smallest_case():
    # q_x qt_y = q_y qt_x + d_x(q qt_y) - d_y(q qt_x)
    start = BilinearTerm(Poly.const(1), 0, MultiIndex((1, 0)), 0, MultiIndex((0, 1)))
    swapped, contributions = exchange_step(start, 0, 1)
    assert swapped == BilinearTerm(Poly.const(1), 0, MultiIndex((0, 1)), 0,
                                   MultiIndex((1, 0)))
    (k, flux_k), (j, flux_j) = contributions
    assert (k, j) == (0, 1)
    assert expr_dict(flux_k) == {(0, 0, (0, 0), (0, 1)): Poly.const(1)}
    assert expr_dict(flux_j) == {(0, 0, (0, 0), (1, 0)): Poly.const(-1)}


def test_exchange_step_same_axis_degenerate():
    start = BilinearTerm(Poly.const(1), 0, MultiIndex((1,)), 0, MultiIndex((1,)))
    swapped, contributions = exchange_step(start, 0, 0)
    assert swapped == start
    total = sum((flux for _, flux in contributions), BilinearExpr())
    assert total.is_zero


def test_exchange_step_precondition():
    start = BilinearTerm(Poly.const(1), 0, MultiIndex((1, 0)), 0, MultiIndex((0, 1)))
    with pytest.raises(PlanError):
        exchange_step(start, 1, 1)
    with pytest.raises(PlanError):
        exchange_step(start, 0, 0)


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
        swapped, contributions = exchange_step(start, k, j)
        total = BilinearExpr([swapped])
        for axis, flux in contributions:
            total = total + partial(flux, axis)
        assert total == BilinearExpr([start])


def collapse_brace(alpha, beta, coeff=1):
    """collapse_step on the two products of the brace coeff * {alpha, beta}."""
    pair = PairTerm(BRACE, Poly.const(coeff), MultiIndex(alpha), MultiIndex(beta))
    return collapse_step(*pair.products())


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
        collapse_step(*bracket_pair.products())
    first, second = PairTerm(BRACE, Poly.const(1), MultiIndex((1,)),
                             MultiIndex((0,))).products()
    with pytest.raises(EngineError):  # mixed fields
        collapse_step(first, BilinearTerm(second.coeff, 1, second.left, 0,
                                          second.right))


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
    assert verify_divergence(dec).is_zero
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
    residual = verify_divergence(corrupted)
    # the residual is exactly d_x(q qt)
    assert residual == partial(BilinearExpr([term(1, (0, 0), (0, 0))]), 0)


def test_ensure_verified_rejects_bad_fluxes():
    dec = decompose(wave_operator())
    broken = DivergenceDecomposition(
        dec.axes, (dec.fluxes[1], dec.fluxes[0]), dec.source, dec.plan
    )
    with pytest.raises(ValueError):
        ensure_verified(broken)
    assert ensure_verified(
        DivergenceDecomposition(dec.axes, dec.fluxes, dec.source, dec.plan)
    ).verified


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
        assert verify_divergence(dec).is_zero


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
    zero = ScalarPDO.build(heat.axes, {})
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

    def planted(alpha, coeff, lf, rf, plans):
        extra = BilinearExpr([term(1, (0,) * len(alpha), (0,) * len(alpha))])
        for plan, emitted in real(alpha, coeff, lf, rf, plans):
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
    rhs = bilinear_rhs(op)
    for tp in term_plans(key[2]):
        engine._gated_decompose(op, DecompositionPlan(((key, tp),)), rhs)
    assert sum(calls.values()) == 60


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
    coeffs = {key: coeff for key, _, coeff, _, _ in engine._operator_terms(op)}
    seen = 0
    for key, pieces in term_pieces(op):
        alone = _term_alone(op, key, coeffs[key])
        rhs = bilinear_rhs(alone)
        plans = list(term_plans(key[2]))
        assert len(pieces) == len(plans)
        for piece, tp in zip(pieces, plans):
            plan = DecompositionPlan(((key, tp),))
            expected = engine._gated_decompose(alone, plan, rhs)
            assert piece.verified and piece.source == alone
            assert (piece.fluxes, piece.plan) == (expected.fluxes, expected.plan)
            seen += 1
    assert seen == sum(term_plan_count(key[2]) for key in coeffs)


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
        reduce_step(pair, 0)
    with pytest.raises(EngineError, match="reduction step failed"):
        decompose(parse_operator("axes x,y,z; Dx*Dy*Dz"))


def test_exchange_oracle_refuses_flipped_flux_j(monkeypatch):
    _corrupt_rule_output(monkeypatch, "_exchange",
                         lambda swapped, flux_k, flux_j: (swapped, flux_k, -flux_j))
    start = BilinearTerm(Poly.const(1), 0, MultiIndex((1, 0)), 0, MultiIndex((0, 1)))
    with pytest.raises(EngineError, match="exchange step failed"):
        exchange_step(start, 0, 1)
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


def test_enumeration_ceiling():
    op = triple_product_operator()
    with pytest.raises(EnumerationLimit) as err:
        list(enumerate_plans(op, ceiling=5))
    assert err.value.count == 12
    assert err.value.ceiling == 5


# ---------------------------------------------------------------------------
# Systems


def test_block_diagonal_system_decouples():
    heat = heat_operator()
    zero = ScalarPDO.build(heat.axes, {})
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
    zero = ScalarPDO.build(heat.axes, {})
    coupling = parse_operator("axes x,t; Dx")
    grid = MatrixPDO(heat.axes, ("a", "b"),
                     ((heat, coupling), (zero, heat)))
    dec = decompose(grid)
    assert verify_divergence(dec).is_zero
    # the d_x coupling of field b into row a contributes the flux  q_b qt_a
    assert expr_dict(dec.fluxes[0])[(1, 0, (0, 0), (0, 0))] == Poly.const(1)


def _stokes_flux_fixture():
    nu = Poly.var("nu")
    one = Poly.const(1)
    e = {axis: MultiIndex.unit(4, axis) for axis in range(3)}
    zero = MultiIndex.zero(4)
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
    assert verify_divergence(dec, stokes_operator()).is_zero


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
