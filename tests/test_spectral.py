import random
from fractions import Fraction

import pytest

from conftest import random_gaussian, random_operator
from oracles import (
    check_parameterization,
    evaluate_exact,
    reduce_mod_quadric,
    reference_substitute,
    spectral_exterior_derivative,
    substitute,
    term,
    triple_product_operator,
)
from fundform.algebra import BilinearExpr, MultiIndex
from fundform.decompose import DivergenceDecomposition, decompose
from fundform.forms import assemble
from fundform.operators import adjoint, apply_symbol, exponential_slopes, symbol
from fundform.parser import parse_operator
from fundform.ring import P_I, GaussianRational, Poly, QI_I, merge_terms
from fundform.spectral import (
    adjoint_constraint,
    amplitudes_pairwise_independent,
    global_relation,
    integral_representation,
    spinor_isotropic,
    substitute_exponential,
)
from fundform.catalog import (
    CATALOG_TAGS,
    _stokes_test_function,
    biharmonic_operator,
    catalog_case,
    heat_operator,
    stokes_adjoint_residual,
    stokes_operator,
    wave_operator,
)


def spectral_dict(flux):
    return {(field, tuple(deriv)): coeff for coeff, field, deriv in flux}


def var(name):
    return Poly.var(name)


# ---------------------------------------------------------------------------
# Constraint varieties


def test_wave_constraint():
    cv = adjoint_constraint(wave_operator(), ("sx", "st"))
    assert cv.poly == var("sx") ** 2 - var("st") ** 2
    solved = {name: (num, den) for name, num, den in cv.solved}
    assert solved["st"][0] == var("sx") ** 2
    assert solved["st"][1] == Poly.const(1)


def test_triple_product_constraint_cleared_form():
    cv = adjoint_constraint(triple_product_operator(), ("s1", "s2", "s0"))
    s1, s2, s0 = var("s1"), var("s2"), var("s0")
    cleared = s1 ** 2 * s2 ** 2 * (Poly.const(1) - s0 ** 2) - s0 ** 2
    assert cv.poly.proportional_to(cleared)
    solved = {name: (num, den) for name, num, den in cv.solved}
    num, den = solved["s0"]
    # s0^2 = s1^2 s2^2 / (1 + s1^2 s2^2), up to a shared unit
    assert num * (Poly.const(1) + s1 ** 2 * s2 ** 2) == den * s1 ** 2 * s2 ** 2


def test_biharmonic_constraint_is_square_of_laplacian_symbol():
    cv = adjoint_constraint(biharmonic_operator(), ("s1", "s2", "s3"))
    laplacian = var("s1") ** 2 + var("s2") ** 2 + var("s3") ** 2
    assert cv.poly.proportional_to(laplacian ** 2)
    assert not cv.poly.proportional_to(laplacian)
    assert not cv.poly.proportional_to(var("s1") ** 4)


def test_heat_constraint_branch():
    cv = adjoint_constraint(heat_operator(), ("sx", "st"))
    # -i st + sx^2 = 0, so st = -i sx^2 solves it
    assert cv.poly == var("sx") ** 2 - P_I * var("st")
    point = {"sx": Poly.const(1).constant_value(),
             "st": Poly.const(-QI_I).constant_value()}
    assert evaluate_exact(cv.poly, point).is_zero


# ---------------------------------------------------------------------------
# Exponential substitution


def test_wave_substitution_both_branches():
    form = assemble(decompose(wave_operator()))
    k = var("k")
    minus = substitute_exponential(form, [k, -k], sign=1)
    a_x, a_t = minus.fluxes
    assert spectral_dict(a_t) == {(0, (0, 1)): Poly.const(1), (0, (0, 0)): P_I * k}
    assert spectral_dict(a_x) == {(0, (1, 0)): Poly.const(-1), (0, (0, 0)): P_I * k}
    plus = substitute_exponential(form, [k, k], sign=1)
    a_x2, a_t2 = plus.fluxes
    assert spectral_dict(a_t2) == {(0, (0, 1)): Poly.const(1),
                                   (0, (0, 0)): -(P_I * k)}
    assert spectral_dict(a_x2) == spectral_dict(a_x)


def test_biharmonic_x_flux_matches_reference_display():
    form = assemble(decompose(biharmonic_operator()))
    s1, s2, s3 = var("s1"), var("s2"), var("s3")
    sub = substitute_exponential(form, [s1, s2, s3], sign=1)
    i = P_I
    expected = {
        (0, (3, 0, 0)): Poly.const(1),
        (0, (0, 0, 0)): i * s1 ** 3 + (i * s1 * s2 ** 2).scale(2)
        + (i * s1 * s3 ** 2).scale(2),
        (0, (2, 0, 0)): -(i * s1),
        (0, (1, 0, 0)): -(s1 ** 2),
        (0, (1, 2, 0)): Poly.const(2),
        (0, (1, 0, 2)): Poly.const(2),
    }
    assert spectral_dict(sub.fluxes[0]) == expected


def test_pure_test_slot_terms_become_polynomial_multiples_of_q():
    flux = BilinearExpr([term(1, (0, 0), (2, 1))])
    form = DivergenceDecomposition(("x", "y"), (flux, BilinearExpr()), None)
    sub = substitute_exponential(form, [var("a"), var("b")], sign=1)
    coeff = spectral_dict(sub.fluxes[0])[(0, (0, 0))]
    assert coeff == (P_I * var("a")) ** 2 * (P_I * var("b"))


def test_substitution_name_collision_rejected():
    form = assemble(decompose(wave_operator()))
    with pytest.raises(ValueError):
        substitute_exponential(form, [var("x"), var("k")], sign=1)
    nu_form = assemble(decompose(parse_operator("params nu; axes x; nu*Dx^2")))
    with pytest.raises(ValueError):
        substitute_exponential(nu_form, [var("nu")], sign=1)


def test_substitution_sign_validation():
    form = assemble(decompose(wave_operator()))
    with pytest.raises(ValueError):
        substitute_exponential(form, [var("a"), var("b")], sign=2)
    with pytest.raises(ValueError):
        substitute_exponential(form, [var("a")], sign=1)


def decoupled_operator():
    """Two fields on one axis; the second has an all-zero row and column,
    so no flux names it."""
    return parse_operator('{"axes":["x"],"fields":["u","v"],'
                          '"entries":[["Dx","0"],["0","0"]]}')


@pytest.mark.parametrize("make,fields", [(wave_operator, 1), (stokes_operator, 4),
                                         (decoupled_operator, 2)],
                         ids=["wave", "stokes", "decoupled"])
@pytest.mark.parametrize("extra", [-1, 1], ids=["too-few", "too-many"])
def test_substitution_refuses_an_amplitude_count_off_the_test_fields(make, fields,
                                                                     extra):
    op = make()
    form = assemble(decompose(op))
    sigma = [Poly.const(1)] * op.dimension
    given = fields + extra
    with pytest.raises(ValueError, match=f"one amplitude per test field required: "
                                         f"the form has {fields}, {given} given$"):
        substitute_exponential(form, sigma, amplitudes=[1] * given)
    amplitudes = [Poly.const(g + 1) for g in range(fields)]
    sub = substitute_exponential(form, sigma, amplitudes=amplitudes)
    assert sub.amplitudes == tuple(amplitudes)
    # the default is one amplitude 1 per field of the source operator
    assert substitute_exponential(form, sigma).amplitudes == (Poly.const(1),) * fields


def test_a_form_without_source_has_a_field_per_amplitude():
    # no operator fixes the test fields of a hand-written form: it has as
    # many as the amplitudes given, or one, and a flux naming a field past
    # that count is refused with ValueError, not IndexError
    flux = BilinearExpr([term(1, (0,), (1,), 0, 1)])
    form = DivergenceDecomposition(("x",), (flux,), None)
    with pytest.raises(ValueError, match="names test field 1; the form has 1$"):
        substitute_exponential(form, [var("a")])
    with pytest.raises(ValueError, match="names test field 1; the form has 1$"):
        substitute_exponential(form, [Poly.const(2)], amplitudes=[3])
    sub = substitute_exponential(form, [var("a")], amplitudes=[1, var("b")])
    assert spectral_dict(sub.fluxes[0]) == {(0, (0,)): P_I * var("a") * var("b")}


def test_substituted_closure_heat():
    op = heat_operator()
    form = assemble(decompose(op))
    sub = substitute_exponential(form, [var("s"), var("w")], sign=1)
    derived = spectral_dict(spectral_exterior_derivative(sub))
    slopes = [P_I * var("s"), P_I * var("w")]
    P = apply_symbol(adjoint(op), slopes)
    expected = {(0, tuple(alpha)): coeff for alpha, coeff in op.terms}
    zero_key = (0, (0, 0))
    expected[zero_key] = expected.get(zero_key, Poly()) - P
    expected = {key: val for key, val in expected.items() if not val.is_zero}
    assert derived == expected


def test_substituted_closure_randomized():
    rng = random.Random(71)
    names = ("sa", "sb", "sc", "sd")
    for _ in range(20):
        op = random_operator(rng, max_dim=3, max_order=4, max_terms=4)
        form = assemble(decompose(op))
        used = names[: op.dimension]
        sub = substitute_exponential(form, [var(n) for n in used], sign=1)
        derived = spectral_dict(spectral_exterior_derivative(sub))
        slopes = [P_I * var(n) for n in used]
        P = apply_symbol(adjoint(op), slopes)
        expected = {(0, tuple(alpha)): coeff for alpha, coeff in op.terms}
        zero_key = (0, (0,) * op.dimension)
        expected[zero_key] = expected.get(zero_key, Poly()) - P
        expected = {k: v for k, v in expected.items() if not v.is_zero}
        assert derived == expected


def substituted_term_by_term(form, sigma, sign, amplitudes):
    """The fluxes of the substitution with every term's factor formed on
    its own: coeff * amplitude of its test field * prod_k slope_k^nu_k."""
    slopes = exponential_slopes([Poly.coerce(s) for s in sigma], sign)
    out = []
    for flux in form.fluxes:
        pairs = []
        for t in flux:
            value = t.coeff * amplitudes[t.right_field]
            for slope, e in zip(slopes, t.right):
                value = value * slope ** e
            pairs.append(((t.left_field, t.left), value))
        out.append(tuple((c, f, d) for (f, d), c in merge_terms(pairs)))
    return tuple(out)


def point_put_in(fluxes, values):
    """Each coefficient with the values substituted, zeros dropped."""
    out = []
    for flux in fluxes:
        terms = ((substitute(c, values), f, d) for c, f, d in flux)
        out.append(tuple(term for term in terms if term[0]))
    return tuple(out)


def test_numeric_point_substitution_matches_symbolic():
    # the substitution at a point equals the symbolic one with the point put
    # in afterwards, and the symbolic one equals a term-by-term substitution
    # that shares no factor between terms (Stokes has four test fields with
    # different amplitudes and shared derivatives)
    rng = random.Random(2828)
    cases = []
    for case in range(32):
        op = random_operator(rng, max_dim=3, max_order=4, max_terms=4,
                             with_params=True)
        point = [random_gaussian(rng) for _ in range(op.dimension)]
        cases.append((op, point, (1, -1)[case % 2], None))
    op = parse_operator("params nu; axes x,y,t; nu*Dx^2*Dy - Dt^2 + (1/2)*Dx*Dt")
    cases.append((op, [Fraction(2, 3), 0, GaussianRational(1, -1)], -1, None))
    cases.append((op, [var("w"), Fraction(-5, 2), 0], 1, None))
    sigma, sign, amplitudes = _stokes_test_function(spinor_isotropic(1, 2), 1)
    cases.append((stokes_operator(), sigma, sign, amplitudes))
    numeric = 0
    for op, point, sign, amplitudes in cases:
        form = assemble(decompose(op))
        names = [var(f"s{j + 1}") for j in range(op.dimension)]
        values = {f"s{j + 1}": value for j, value in enumerate(point)}
        amp_names = None
        if amplitudes is not None:
            amp_names = [var(f"a{g}") for g in range(len(amplitudes))]
            values.update((f"a{g}", a) for g, a in enumerate(amplitudes))
        symbolic = substitute_exponential(form, names, sign, amp_names)
        assert symbolic.fluxes == substituted_term_by_term(
            form, names, sign, amp_names or [Poly.const(1)])
        at_point = substitute_exponential(form, point, sign, amplitudes)
        assert at_point.fluxes == point_put_in(symbolic.fluxes, values), (op, point)
        numeric += all(Poly.coerce(p).is_constant for p in point)
    assert numeric == len(cases) - 1


def test_packed_substitution_matches_the_term_reference():
    # the substitution on packed keys gives the term-by-term one exactly:
    # equal fluxes in the same term order, each derivative a MultiIndex
    cases = [(case.operator, case.sigma, case.sign, case.amplitudes)
             for case in map(catalog_case, CATALOG_TAGS)]
    sigma, sign, amplitudes = _stokes_test_function(spinor_isotropic(1, 2), 1)
    cases.append((stokes_operator(), sigma, sign, amplitudes))
    cases.append((decoupled_operator(), [var("k")], 1, [2, var("a")]))
    rng = random.Random(3333)
    for case in range(200):
        op = random_operator(rng, max_dim=3, max_order=5, max_terms=4,
                             with_params=case % 4 == 0)
        if case % 2:
            point = [random_gaussian(rng) for _ in range(op.dimension)]
        else:
            point = [var(f"s{j + 1}") for j in range(op.dimension)]
        cases.append((op, point, (1, -1)[case // 2 % 2], None))
    for op, point, sign, amplitudes in cases:
        form = assemble(decompose(op))
        got = substitute_exponential(form, point, sign, amplitudes)
        assert got == reference_substitute(form, point, sign, amplitudes), op
        assert all(type(deriv) is MultiIndex
                   for flux in got.fluxes for _, _, deriv in flux)
    # a flux that names a test field past the form's count is still refused
    flux = BilinearExpr([term(1, (0,), (1,), 0, 1)])
    form = DivergenceDecomposition(("x",), (flux,), None)
    with pytest.raises(ValueError, match="names test field 1; the form has 1$"):
        substitute_exponential(form, [Poly.const(2)])
    # so is a flux whose keys have another dimension than the form
    form = DivergenceDecomposition(("x", "y"), (flux, BilinearExpr()), None)
    with pytest.raises(ValueError, match="a flux has dimension 1; the form has 2$"):
        substitute_exponential(form, [Poly.const(2), Poly.const(3)])


# ---------------------------------------------------------------------------
# Quadric reduction


def test_reduce_mod_quadric_fourth_power():
    s1, s2, s3 = var("s1"), var("s2"), var("s3")
    rule = -(s1 ** 2) - s2 ** 2
    assert reduce_mod_quadric(s3 ** 4, "s3", rule) == (s1 ** 2 + s2 ** 2) ** 2


def test_reduce_mod_quadric_idempotent_on_reduced():
    s1, s3 = var("s1"), var("s3")
    p = s1 ** 2 * s3 + s1
    assert reduce_mod_quadric(p, "s3", -(s1 ** 2)) == p


def test_reduce_mod_quadric_rejects_self_referential_rule():
    with pytest.raises(ValueError):
        reduce_mod_quadric(var("s3") ** 2, "s3", var("s3") + Poly.const(1))


def test_biharmonic_closure_after_reduction():
    op = biharmonic_operator()
    form = assemble(decompose(op))
    s = [var("s1"), var("s2"), var("s3")]
    sub = substitute_exponential(form, s, sign=1)
    rule = -(s[0] ** 2) - s[1] ** 2
    derived = spectral_dict(spectral_exterior_derivative(sub))
    reduced = {
        key: reduce_mod_quadric(coeff, "s3", rule) for key, coeff in derived.items()
    }
    reduced = {key: val for key, val in reduced.items() if not val.is_zero}
    expected = {(0, tuple(alpha)): coeff for alpha, coeff in op.terms}
    assert reduced == expected


# ---------------------------------------------------------------------------
# Global relations


def _wave_relation(sigma_t_sign: int):
    form = assemble(decompose(wave_operator()))
    k = var("k")
    sub = substitute_exponential(form, [k, k.scale(sigma_t_sign)], sign=1)
    box = [(Poly.const(0), var("l")), (Poly.const(0), var("T"))]
    return global_relation(sub, box)


def test_wave_relation_first_branch_fixture():
    rel = _wave_relation(-1)
    k, length, horizon = var("k"), var("l"), var("T")
    ik = P_I * k
    zero, one = Poly(), Poly.const(1)
    expected = (
        (0, "hi", 1, ik, ik * length, 0, (0, 0)),
        (0, "hi", 1, -one, ik * length, 0, (1, 0)),
        (0, "lo", -1, ik, zero, 0, (0, 0)),
        (0, "lo", -1, -one, zero, 0, (1, 0)),
        (1, "hi", 1, ik, -(ik * horizon), 0, (0, 0)),
        (1, "hi", 1, one, -(ik * horizon), 0, (0, 1)),
        (1, "lo", -1, ik, zero, 0, (0, 0)),
        (1, "lo", -1, one, zero, 0, (0, 1)),
    )
    got = tuple(
        (axis, end, orient, coeff, weight, field, tuple(deriv))
        for axis, end, orient, coeff, weight, field, deriv in rel.terms
    )
    assert got == expected


def test_wave_relation_second_branch_fixture():
    rel = _wave_relation(1)
    k, length, horizon = var("k"), var("l"), var("T")
    ik = P_I * k
    zero, one = Poly(), Poly.const(1)
    expected = (
        (0, "hi", 1, ik, ik * length, 0, (0, 0)),
        (0, "hi", 1, -one, ik * length, 0, (1, 0)),
        (0, "lo", -1, ik, zero, 0, (0, 0)),
        (0, "lo", -1, -one, zero, 0, (1, 0)),
        (1, "hi", 1, -ik, ik * horizon, 0, (0, 0)),
        (1, "hi", 1, one, ik * horizon, 0, (0, 1)),
        (1, "lo", -1, -ik, zero, 0, (0, 0)),
        (1, "lo", -1, one, zero, 0, (0, 1)),
    )
    got = tuple(
        (axis, end, orient, coeff, weight, field, tuple(deriv))
        for axis, end, orient, coeff, weight, field, deriv in rel.terms
    )
    assert got == expected
    assert rel.sigma == (k, k)


def test_zero_operator_gives_empty_relation():
    op = parse_operator("axes x,t; 0")
    form = assemble(decompose(op))
    sub = substitute_exponential(form, [var("a"), var("b")], sign=1)
    rel = global_relation(sub, [(Poly.const(0), Poly.const(1))] * 2)
    assert rel.terms == ()


def test_relation_box_arity_checked():
    form = assemble(decompose(wave_operator()))
    sub = substitute_exponential(form, [var("a"), var("b")], sign=1)
    with pytest.raises(ValueError):
        global_relation(sub, [(Poly.const(0), Poly.const(1))])


# ---------------------------------------------------------------------------
# Integral representations


def test_representation_denominator_matches_symbol_randomized():
    rng = random.Random(73)
    for _ in range(25):
        op = random_operator(rng, max_dim=3, max_order=4, max_terms=4)
        rep = integral_representation(op)
        assert rep.denominator == symbol(op, rep.spectral_names, sign=1)


def test_representation_two_dimensional_shape():
    rep = integral_representation(parse_operator("axes x,y; Dx^2 + Dy^2"))
    assert rep.prefactor_sign == -1
    assert rep.two_pi_power == -2
    assert rep.spectral_names == ("k1", "k2")
    assert rep.denominator == -(var("k1") ** 2) - var("k2") ** 2
    assert rep.eta.sign == -1


def test_representation_rejects_zero_symbol():
    with pytest.raises(ValueError):
        integral_representation(parse_operator("axes x; 0"))


# ---------------------------------------------------------------------------
# Rational parameterization checks


def _triple_product_substitution(perturbed: bool = False):
    lam = var("lam")
    two_lam = lam.scale(2)
    s0_num = two_lam
    s0_den = lam ** 2 + Poly.const(1)
    if perturbed:
        s0_num = s0_num + s0_den  # adds +1 to the substituted value
    return {
        "s1": (two_lam, lam ** 2 - Poly.const(1)),
        "s2": (Poly.const(1), Poly.const(1)),
        "s0": (s0_num, s0_den),
    }


def test_parameterization_passes():
    cv = adjoint_constraint(triple_product_operator(), ("s1", "s2", "s0"))
    ok, witness = check_parameterization(cv, _triple_product_substitution())
    assert ok and witness is None


def test_parameterization_skips_poles():
    # lam = 1 is a pole of 2 lam / (lam^2 - 1) and must be skipped, not fail
    cv = adjoint_constraint(triple_product_operator(), ("s1", "s2", "s0"))
    ok, _ = check_parameterization(cv, _triple_product_substitution(), samples=3)
    assert ok


def test_parameterization_perturbed_fails_with_witness():
    cv = adjoint_constraint(triple_product_operator(), ("s1", "s2", "s0"))
    ok, witness = check_parameterization(cv, _triple_product_substitution(True))
    assert not ok
    assert witness == Fraction(2)  # first non-pole sample


def test_parameterization_requires_all_variables():
    cv = adjoint_constraint(triple_product_operator(), ("s1", "s2", "s0"))
    with pytest.raises(ValueError):
        check_parameterization(cv, {"s1": (Poly.const(1), Poly.const(1))})


def test_parameterization_all_poles_error():
    constraint = var("s") - var("s")  # zero poly, any sample works, but...
    subs = {"s": (Poly.const(1), Poly())}  # denominator identically zero
    with pytest.raises(ValueError):
        check_parameterization(var("s"), subs)


# ---------------------------------------------------------------------------
# Spinor construction


def test_spinor_isotropy_symbolic():
    triple = spinor_isotropic()
    assert triple.isotropy().is_zero
    assert triple.k[0] == var("xi1") ** 2 - var("xi2") ** 2


def test_spinor_even_under_negation():
    triple = spinor_isotropic()
    negated = spinor_isotropic(-var("xi1"), -var("xi2"))
    assert triple.k == negated.k


def test_spinor_numeric_point():
    triple = spinor_isotropic(Poly.const(1), Poly.const(2))
    assert triple.isotropy().is_zero
    assert triple.k[0] == Poly.const(-3)


def test_stokes_adjoint_rows_vanish_symbolically():
    triple = spinor_isotropic()
    rows = stokes_adjoint_residual(triple)
    assert len(rows) == 4
    assert all(row.is_zero for row in rows)


def test_stokes_adjoint_rows_for_concrete_spinor():
    triple = spinor_isotropic(Poly.const(1), Poly.const(2))
    assert all(row.is_zero
               for row in stokes_adjoint_residual(triple, Poly.const(5)))


def test_amplitude_independence_check():
    triple = spinor_isotropic()
    amps = list(triple.k) + [var("xi3")]
    assert amplitudes_pairwise_independent(amps)
    assert not amplitudes_pairwise_independent([var("a"), var("a").scale(3)])


BAD_NAMES = {"parameter": ("nu", "s"), "repeated": ("s", "s"), "axis": ("x", "s"),
             "empty": ("a", "")}


@pytest.mark.parametrize(
    "entry,names",
    [(adjoint_constraint, names) for names in BAD_NAMES.values()]
    + [(integral_representation, names) for names in BAD_NAMES.values()],
    ids=list(BAD_NAMES) + [f"represent-{case}" for case in BAD_NAMES])
def test_adjoint_constraint_refuses_bad_names(entry, names):
    op = parse_operator("params nu; axes x,t; nu*Dx^2 - Dt")
    with pytest.raises(ValueError):
        entry(op, names)


def test_global_relation_refuses_spectral_box_endpoints():
    sub = substitute_exponential(assemble(decompose(wave_operator())),
                                 [var("k"), -var("k")])
    with pytest.raises(ValueError, match="box endpoint"):
        global_relation(sub, [(0, var("l")), (0, var("k"))])
    assert global_relation(sub, [(0, var("l")), (0, var("T"))]).terms


@pytest.mark.parametrize("entry,what", [
    (adjoint_constraint, "constraint varieties"),
    (integral_representation, "integral representations"),
])
def test_matrix_operators_refused_by_the_scalar_only_entries(entry, what):
    with pytest.raises(ValueError,
                       match=f"^{what} are emitted for scalar operators$"):
        entry(stokes_operator(), ["k1", "k2", "k3", "k4"])
