import random

import pytest

from conftest import random_operator
from fundform.algebra import BilinearExpr, BilinearTerm, MultiIndex, bracket
from fundform.operators import (
    MatrixPDO,
    ScalarPDO,
    adjoint,
    apply_symbol,
    bilinear_rhs,
    even_odd_split,
    exponential_slopes,
    symbol,
)
from fundform.parser import (
    MAX_TERMS,
    OperatorSyntaxError,
    format_operator,
    parse_matrix_operator,
    parse_operator,
    parse_poly,
    parse_scalar_operator,
    term_count,
)
from fundform.ring import Poly, QI_I
from fundform.catalog import STOKES_JSON, stokes_operator, wave_operator


def bilinear_rhs_direct(op: ScalarPDO, left_field: int = 0,
                        right_field: int = 0) -> BilinearExpr:
    """Reference route for ``bilinear_rhs``: qt L q - q L^+ qt expanded
    term by term into products, with no bracket or brace helpers."""
    zero = MultiIndex.zero(op.dimension)
    out = []
    for alpha, coeff in op.terms:
        out.append(BilinearTerm(coeff, left_field, alpha, right_field, zero))
        sign = -1 if alpha.order % 2 == 0 else 1
        out.append(
            BilinearTerm(coeff.scale(sign), left_field, zero, right_field, alpha)
        )
    return BilinearExpr(out)


def terms_of(op):
    return {tuple(alpha): coeff for alpha, coeff in op.terms}


def test_parse_wave():
    op = parse_operator("axes x,t; Dt^2 - Dx^2")
    assert op.axes == ("x", "t")
    assert terms_of(op) == {(0, 2): Poly.const(1), (2, 0): Poly.const(-1)}


def test_parse_monomial_products():
    op = parse_operator("axes x,y,z; Dx^2*Dy^2*Dz^2 + Dx^2*Dy^2 + Dz^2")
    assert terms_of(op) == {
        (2, 2, 2): Poly.const(1),
        (2, 2, 0): Poly.const(1),
        (0, 0, 2): Poly.const(1),
    }


def test_parse_symbolic_parameter():
    op = parse_operator("params nu; axes x,y,z,t; Dt - nu*(Dx^2+Dy^2+Dz^2)")
    nu = Poly.var("nu")
    assert terms_of(op) == {
        (0, 0, 0, 1): Poly.const(1),
        (2, 0, 0, 0): -nu,
        (0, 2, 0, 0): -nu,
        (0, 0, 2, 0): -nu,
    }


def test_parse_rational_and_imaginary_coefficients():
    op = parse_operator("axes x; 3/2*Dx - i*Dx^3 + (1-2*i)*Dx^2")
    assert terms_of(op)[(1,)] == Poly.const(Poly.const(3).constant_value() / 2)
    assert terms_of(op)[(3,)] == Poly.const(-QI_I)
    assert terms_of(op)[(2,)].constant_value().to_text() == "(1-2i)"
    # i is always the unit, never an axis or parameter name
    with pytest.raises(OperatorSyntaxError, match="expected axis name other than 'i'"):
        parse_operator("axes i,t; i*Di - Dt")
    assert parse_poly("i", ["i"]) == Poly.const(QI_I)


def test_parse_division_by_integer_after_any_factor():
    def same(text, expected):
        assert parse_operator(text) == parse_operator(expected)

    same("params nu; axes x,t; nu/3*Dx^2 - Dt",
         "params nu; axes x,t; (1/3)*nu*Dx^2 - Dt")
    same("axes x,t; (1+i)/2*Dx^2 - Dt", "axes x,t; (1/2+1/2*i)*Dx^2 - Dt")
    same("axes x,t; Dx^2/2 - Dt", "axes x,t; 1/2*Dx^2 - Dt")
    same("axes x,y; -Dx*Dy/4/3 + Dy", "axes x,y; -(1/12)*Dx*Dy + Dy")
    # a '/' after an integer literal still belongs to the literal
    same("axes x; 2/3^2*Dx", "axes x; 4/9*Dx")
    same("axes x; 2/3/4*Dx", "axes x; 1/6*Dx")
    # an 'i' suffix on the literal's last integer scales the whole literal
    same("axes x; 2i*Dx", "axes x; 2*i*Dx")
    same("axes x; -1/2i*Dx", "axes x; -(1/2)*i*Dx")
    same("axes x; 1/2i^2*Dx", "axes x; -(1/4)*Dx")
    same("axes x; 2i/3*Dx", "axes x; (2/3)*i*Dx")
    same("axes x; 3*2i*Dx", "axes x; 6*i*Dx")
    for bad in ("axes x; Dx/0", "axes x; Dx/", "axes x; Dx/Dx", "axes x; Dx/2^2",
                "axes x; Dx/(2)", "axes x; Dx/2i", "axes x; 1/0i*Dx",
                "axes x; 2^2i*Dx", "axes x; 2 i*Dx"):
        with pytest.raises(OperatorSyntaxError):
            parse_operator(bad)


def test_repeated_leading_signs():
    assert parse_operator("axes x; --Dx") == parse_operator("axes x; Dx")
    # each '-' flips the sign of the first term, as in solution text
    assert parse_operator("axes x; -+-Dx^2") == parse_operator("axes x; Dx^2")
    assert parse_operator("axes x; -+-+-Dx^2") == parse_operator("axes x; -Dx^2")
    assert parse_operator("axes x,t; Dt - (--Dx^2)") == parse_operator("axes x,t; Dt - Dx^2")
    entry = parse_matrix_operator({"axes": ["x"], "fields": ["a"], "entries": [["+-Dx"]]})
    assert entry.entry(0, 0) == parse_operator("axes x; -Dx")
    assert parse_poly("--k", ["k"]) == Poly.var("k")
    assert parse_poly("-+-k^2", ["k"]) == Poly.var("k") ** 2
    assert parse_poly("- -k", ["k"]) == Poly.var("k")


def test_parse_cancellation_and_zero():
    assert parse_operator("axes x; Dx - Dx").is_zero
    assert parse_operator("axes x; 0").is_zero


# 2,080 distinct second-order terms on 64 axes
SUM_AXES = [f"a{j}" for j in range(64)]
SUM_HEAD = f"axes {','.join(SUM_AXES)}; "
SUM_PAIRS = [f"D{SUM_AXES[j]}*D{SUM_AXES[k]}"
             for j in range(64) for k in range(j, 64)]


@pytest.mark.parametrize("text", [
    SUM_HEAD + " + ".join(SUM_PAIRS[:MAX_TERMS + 1]),
    # one multi-index whose coefficient grows to MAX_TERMS + 1 monomials
    f"params {','.join(f'p{j}' for j in range(MAX_TERMS + 1))}; axes x; "
    + " + ".join(f"p{j}*Dx" for j in range(MAX_TERMS + 1)),
], ids=["terms", "monomials"])
def test_sum_refused_at_the_plus_that_crosses_the_term_limit(text):
    head = text.rpartition(" + ")[0]
    assert term_count(parse_operator(head).terms) == MAX_TERMS
    with pytest.raises(OperatorSyntaxError) as err:
        parse_operator(text)
    column = len(head) + 2
    assert str(err.value) == (f"operator expands beyond the limit of {MAX_TERMS} "
                              f"terms (line 1, column {column})")


def test_sum_that_cancels_back_under_the_term_limit_is_read():
    # 2,100 summands, but the sum so far never holds more than 1,000 terms
    rest = " + ".join(SUM_PAIRS[1000:1100])
    text = (SUM_HEAD + " + ".join(SUM_PAIRS[:1000]) + " - "
            + " - ".join(SUM_PAIRS[:1000]) + " + " + rest)
    assert parse_operator(text) == parse_operator(SUM_HEAD + rest)
    # a coefficient that cancels to fewer monomials frees its count
    params = f"params {','.join(f'p{j}' for j in range(MAX_TERMS))}; axes x; "
    text = params + " + ".join(f"p{j}*Dx - p{j}*Dx" for j in range(MAX_TERMS)) + " + Dx"
    assert parse_operator(text) == parse_operator("axes x; Dx")


def test_parse_errors_carry_positions():
    with pytest.raises(OperatorSyntaxError) as err:
        parse_operator("axes x,t; Dt^2 - Dq^2")
    assert "unknown axis 'q'" in str(err.value)
    assert "column" in str(err.value)
    with pytest.raises(OperatorSyntaxError):
        parse_operator("axes x; mu*Dx")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("axes x; Dx +")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("axes x; Dx^0")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("Dx^2")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("axes x; (Dx")
    with pytest.raises(OperatorSyntaxError):
        parse_operator("axes x; Dx) ")


def test_parse_matrix_requires_square():
    bad = {"axes": ["x"], "fields": ["a", "b"], "entries": [["Dx", "0"]]}
    with pytest.raises(ValueError):
        parse_matrix_operator(bad)


def test_parse_matrix_stokes():
    op = parse_matrix_operator(STOKES_JSON)
    assert op.size == 4
    assert op.fields == ("u1", "u2", "u3", "p")
    assert terms_of(op.entry(0, 3)) == {(1, 0, 0, 0): Poly.const(1)}
    assert terms_of(op.entry(0, 0))[(0, 0, 0, 1)] == Poly.const(1)
    assert terms_of(op.entry(0, 0))[(2, 0, 0, 0)] == -Poly.var("nu")


def test_format_parse_roundtrip_fixed():
    texts = [
        "axes x,t; Dt^2 - Dx^2",
        "params nu; axes x,y,z,t; Dt - nu*(Dx^2+Dy^2+Dz^2)",
        "axes x; 3/2*Dx - i*Dx^3",
        "axes x,y; 2",
        "axes x,t; (1/3+2i)*Dx^2 + 2i*Dt",
        "params nu; axes x,y; -1/2i*nu*Dx*Dy + (nu^2 - i)*Dy - 3/7i",
        "axes x; 2i/3*Dx^2 + (3/37-18/37i) - 0i*Dx",
    ]
    for text in texts:
        op = parse_operator(text)
        assert parse_operator(format_operator(op)) == op
    # the printer writes each coefficient as Poly.to_text does
    assert format_operator(parse_operator(texts[4])) == (
        "axes x,t; 2i*Dt + (1/3+2i)*Dx^2")
    assert format_operator(parse_operator(texts[5])) == (
        "params nu; axes x,y; -3/7i + (-i + nu^2)*Dy - 1/2i*nu*Dx*Dy")
    assert format_operator(parse_operator(texts[6])) == (
        "axes x; (3/37-18/37i) + 2/3i*Dx^2")


def test_format_parse_roundtrip_randomized():
    rng = random.Random(31)
    for _ in range(40):
        op = random_operator(rng, with_params=rng.random() < 0.5)
        assert parse_operator(format_operator(op)) == op


def test_format_parse_roundtrip_matrix():
    op = stokes_operator()
    assert parse_operator(format_operator(op)) == op


def test_adjoint_examples():
    wave = wave_operator()
    assert adjoint(wave) == wave
    ddx = parse_operator("axes x; Dx")
    assert adjoint(ddx) == parse_operator("axes x; -Dx")


def test_adjoint_stokes_displayed_form():
    adj = adjoint(stokes_operator())
    # diagonal: -d_t - nu*Laplacian; borders: -d_x, -d_y, -d_z
    expected_diag = parse_scalar_operator(
        "params nu; axes x,y,z,t; -Dt - nu*(Dx^2+Dy^2+Dz^2)"
    )
    for m in range(3):
        assert adj.entry(m, m).terms == expected_diag.terms
    assert terms_of(adj.entry(0, 3)) == {(1, 0, 0, 0): Poly.const(-1)}
    assert terms_of(adj.entry(3, 0)) == {(1, 0, 0, 0): Poly.const(-1)}


def test_adjoint_involution_randomized():
    rng = random.Random(13)
    for _ in range(40):
        op = random_operator(rng, with_params=True)
        assert adjoint(adjoint(op)) == op


def test_even_odd_split_examples():
    wave = wave_operator()
    even, odd = even_odd_split(wave)
    assert even == wave and odd.is_zero
    heat = parse_operator("axes x,t; Dt - Dx^2")
    even, odd = even_odd_split(heat)
    assert even == parse_operator("axes x,t; -Dx^2")
    assert odd == parse_operator("axes x,t; Dt")
    airy = parse_operator("axes x,t; Dt + Dx^3")
    even, odd = even_odd_split(airy)
    assert even.is_zero and odd == airy


def test_even_odd_split_adjointness_randomized():
    rng = random.Random(17)
    for _ in range(30):
        op = random_operator(rng)
        even, odd = even_odd_split(op)
        assert even + odd == op
        assert adjoint(even) == even
        assert adjoint(odd) == -odd


def test_bilinear_rhs_wave():
    wave = wave_operator()
    expected = bracket((0, 2), (0, 0)) - bracket((2, 0), (0, 0))
    assert bilinear_rhs(wave) == expected


def test_bilinear_rhs_zero_order_vanishes():
    helmholtz = parse_operator("axes x,y; Dx^2 + Dy^2 + 5")
    laplace = parse_operator("axes x,y; Dx^2 + Dy^2")
    assert bilinear_rhs(helmholtz) == bilinear_rhs(laplace)


def test_bilinear_rhs_bracket_sum():
    op = parse_operator("axes x,y,z; Dx^2*Dy^2*Dz^2 + Dx^2*Dy^2 + Dz^2")
    zero = (0, 0, 0)
    expected = (
        bracket((2, 2, 2), zero) + bracket((2, 2, 0), zero)
        + bracket((0, 0, 2), zero)
    )
    assert bilinear_rhs(op) == expected


def test_bilinear_rhs_matches_direct_expansion_randomized():
    rng = random.Random(19)
    for _ in range(60):
        op = random_operator(rng, with_params=True)
        assert bilinear_rhs(op) == bilinear_rhs_direct(op)


def test_system_bilinear_rhs_single_field_reduces():
    op = parse_operator("axes x,t; Dt - Dx^2")
    grid = MatrixPDO(op.axes, ("q",), ((op,),))
    assert bilinear_rhs(grid) == bilinear_rhs(op)


def test_system_bilinear_rhs_block_diagonal():
    heat = parse_operator("axes x,t; Dt - Dx^2")
    zero = ScalarPDO.build(heat.axes, {})
    grid = MatrixPDO(heat.axes, ("a", "b"), ((heat, zero), (zero, heat)))
    expected = bilinear_rhs_direct(heat, 0, 0) + bilinear_rhs_direct(heat, 1, 1)
    assert bilinear_rhs(grid) == expected


def test_symbol_wave():
    wave = wave_operator()
    # (i s_t)^2 - (i s_x)^2 = s_x^2 - s_t^2
    sx, st = Poly.var("sx"), Poly.var("st")
    assert symbol(wave, ("sx", "st")) == sx * sx - st * st


def test_symbol_refuses_the_unit_as_a_name():
    with pytest.raises(ValueError) as err:
        symbol(wave_operator(), ("i", "j"))
    assert str(err.value) == (
        "spectral names must be distinct identifiers other than 'i': ['i', 'j']")


def test_symbol_triple_product():
    op = parse_operator("axes x,y,z; Dx^2*Dy^2*Dz^2 + Dx^2*Dy^2 + Dz^2")
    s1, s2, s3 = (Poly.var(n) for n in ("s1", "s2", "s3"))
    expected = -(s1 ** 2 * s2 ** 2 * s3 ** 2) + s1 ** 2 * s2 ** 2 - s3 ** 2
    assert symbol(op, ("s1", "s2", "s3")) == expected


def test_symbol_adjoint_sign_flip_randomized():
    rng = random.Random(37)
    names = ("s1", "s2", "s3", "s4")
    for _ in range(30):
        op = random_operator(rng)
        used = names[: op.dimension]
        assert symbol(adjoint(op), used, sign=1) == symbol(op, used, sign=-1)


def test_exponential_slopes():
    s = Poly.var("s")
    assert exponential_slopes([s, 2], 1) == (Poly.const(QI_I) * s, Poly.const(2 * QI_I))
    assert exponential_slopes([s, 2], -1) == (Poly.const(-QI_I) * s, Poly.const(-2 * QI_I))
    for sign in (0, 2):
        with pytest.raises(ValueError, match="sign"):
            exponential_slopes([s], sign)


def test_apply_symbol_arity_check():
    with pytest.raises(ValueError):
        apply_symbol(wave_operator(), [Poly.var("a")])
