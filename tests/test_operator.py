import random
from fractions import Fraction

import pytest

from conftest import random_operator
from oracles import brace, bracket, format_operator, operator_sum, scalar_operator
from fundform.algebra import BilinearExpr, BilinearTerm, MultiIndex, expr_sum
from fundform.operators import (
    MatrixPDO,
    ScalarPDO,
    adjoint,
    apply_symbol,
    bilinear_rhs,
    exponential_slopes,
    symbol,
)
from fundform.parser import (
    MAX_ORDER,
    MAX_TERMS,
    OperatorSyntaxError,
    parse_matrix_operator,
    parse_operator,
    parse_poly,
    parse_scalar_operator,
    term_count,
)
from fundform.ring import GaussianRational, Poly, QI_I
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
    assert entry.entries[0][0] == parse_operator("axes x; -Dx")
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


def _spelled_term(rng, axes, alpha, literal, param):
    """Several spellings of one term: the literal (unsigned), the
    parameter factor or None, and a derivative factor per unit of alpha."""
    factors = [f"D{axis}" for axis, e in zip(axes, alpha) for _ in range(e)]
    powers = [f"D{axis}" + (f"^{e}" if e > 1 else "")
              for axis, e in zip(axes, alpha) if e]
    scalars = [literal] + ([param] if param else [])
    shuffled = scalars + factors
    rng.shuffle(shuffled)
    grouped = [f"({'*'.join(factors[:2] or scalars)})^1",
               *(scalars if factors else []), *factors[2:]]
    return ["*".join(scalars + powers), "*".join(shuffled), "*".join(grouped),
            "*".join(powers + scalars)]


def test_spellings_of_one_operator_read_alike():
    # each spelling of each term (coefficient first, factors shuffled or
    # grouped under a '^1', coefficient last) reads as the one operator,
    # as format_operator's round trip does
    rng = random.Random(2503)
    names = ["x", "y", "z", "w"]
    for _ in range(150):
        axes = names[:rng.randint(2, 4)]
        alphas = {tuple(rng.randint(0, 3) for _ in axes)
                  for _ in range(rng.randint(1, 6))}
        expected, spellings = {}, []
        for alpha in sorted(alphas):
            p, q = rng.randint(1, 12), rng.choice([1, 1, 2, 3, 4, 7])
            imaginary = rng.random() < 0.3
            literal = (f"{p}" if q == 1 else f"{p}/{q}") + ("i" if imaginary else "")
            value = Fraction(p, q)
            value = GaussianRational(0, value) if imaginary else GaussianRational(value)
            negative = rng.random() < 0.4
            param = rng.choice([None, None, "c", "c^2"])
            coeff = Poly.const(-value if negative else value)
            if param:
                coeff = coeff * Poly.var("c", 2 if param == "c^2" else 1)
            expected[alpha] = coeff
            spellings.append((negative, _spelled_term(rng, axes, alpha, literal, param)))
        op = scalar_operator(axes, expected)
        header = f"params c; axes {','.join(axes)}; "
        round_trip = parse_operator(format_operator(op))
        for k in range(4):
            text = header + " ".join(
                ("- " if negative else "+ ") + forms[k] for negative, forms in spellings)
            read = parse_operator(text)
            assert read == op == round_trip, text
            assert repr(read) == repr(round_trip), text
        # a negative coefficient inside the parentheses, terms in another order
        rng.shuffle(spellings)
        text = header + " + ".join(
            f"(-{forms[0]})" if negative else forms[1] for negative, forms in spellings)
        assert parse_operator(text) == op, text


def test_product_of_one_term_factors_refused_at_its_star():
    with pytest.raises(OperatorSyntaxError) as err:
        parse_operator("axes x; Dx^20*Dx^13")
    assert str(err.value) == (f"operator exceeds the order limit of {MAX_ORDER} "
                              "(line 1, column 14)")
    # two one-term factors of 33 monomials each: 1,089 > 1,024
    names = [f"p{j}" for j in range(33)]
    factor = f"(({'+'.join(names)})*Dx)"
    head = f"params {','.join(names)}; axes x; {factor}"
    with pytest.raises(OperatorSyntaxError) as err:
        parse_operator(f"{head}*{factor}")
    assert str(err.value) == (f"operator expands beyond the limit of {MAX_TERMS} "
                              f"terms (line 1, column {len(head) + 1})")
    # at the order limit the product is read
    assert parse_operator("axes x; Dx^16*Dx^16") == parse_operator("axes x; Dx^32")


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
    assert terms_of(op.entries[0][3]) == {(1, 0, 0, 0): Poly.const(1)}
    assert terms_of(op.entries[0][0])[(0, 0, 0, 1)] == Poly.const(1)
    assert terms_of(op.entries[0][0])[(2, 0, 0, 0)] == -Poly.var("nu")


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
        assert adj.entries[m][m].terms == expected_diag.terms
    assert terms_of(adj.entries[0][3]) == {(1, 0, 0, 0): Poly.const(-1)}
    assert terms_of(adj.entries[3][0]) == {(1, 0, 0, 0): Poly.const(-1)}


def test_adjoint_involution_randomized():
    rng = random.Random(13)
    for _ in range(40):
        op = random_operator(rng, with_params=True)
        assert adjoint(adjoint(op)) == op


def _even_odd_parts(op: ScalarPDO) -> tuple:
    """The even-order and the odd-order part of a scalar operator."""
    return tuple(ScalarPDO(op.axes, tuple((a, c) for a, c in op.terms
                                          if a.order % 2 == parity))
                 for parity in (0, 1))


def test_even_odd_split_examples():
    wave = wave_operator()
    even, odd = _even_odd_parts(wave)
    assert even == wave and odd.is_zero
    heat = parse_operator("axes x,t; Dt - Dx^2")
    even, odd = _even_odd_parts(heat)
    assert even == parse_operator("axes x,t; -Dx^2")
    assert odd == parse_operator("axes x,t; Dt")
    airy = parse_operator("axes x,t; Dt + Dx^3")
    even, odd = _even_odd_parts(airy)
    assert even.is_zero and odd == airy
    # the even-order part is the self-adjoint piece, the odd-order part
    # the skew-adjoint one
    assert operator_sum((1, heat), (1, adjoint(heat))) == parse_operator(
        "axes x,t; -2*Dx^2")
    assert operator_sum((1, heat), (-1, adjoint(heat))) == parse_operator(
        "axes x,t; 2*Dt")


def test_even_odd_split_adjointness_randomized():
    rng = random.Random(17)
    for _ in range(30):
        op = random_operator(rng)
        even, odd = _even_odd_parts(op)
        assert operator_sum((1, even), (1, odd)) == op
        assert adjoint(even) == even
        assert adjoint(odd) == operator_sum((-1, odd))


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
    zero = scalar_operator(heat.axes, {})
    grid = MatrixPDO(heat.axes, ("a", "b"), ((heat, zero), (zero, heat)))
    expected = bilinear_rhs_direct(heat, 0, 0) + bilinear_rhs_direct(heat, 1, 1)
    assert bilinear_rhs(grid) == expected


def _grid_of(rng, n: int, size: int) -> MatrixPDO:
    """A size x size grid of random entries on n axes, some of them zero
    and some of them constants, which pair to zero."""
    axes = tuple(f"x{k + 1}" for k in range(n))
    entries = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = {}
            for _ in range(rng.choice((0, 1, 2, 3))):
                alpha = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                terms[alpha] = rng.randint(-3, 3) or 1
            row.append(scalar_operator(axes, terms))
        entries.append(row)
    return MatrixPDO(axes, tuple(f"f{k}" for k in range(size)), entries)


def test_bilinear_rhs_is_the_one_merge_of_its_pairings():
    # one merge of every term's products gives what the sum of the terms'
    # braces and brackets gives, dimension and top byte included: a
    # zero-order term adds no byte, and an operator of constants pairs to
    # the zero expression
    rng = random.Random(27)
    ops = [random_operator(rng, with_params=True) for _ in range(40)]
    ops += [_grid_of(rng, rng.randint(1, 3), rng.randint(1, 4)) for _ in range(40)]
    ops += [parse_operator("axes x,y; 5"), _grid_of(random.Random(1), 2, 0)]
    const = scalar_operator(("x",), {(0,): 2})
    zero = scalar_operator(("x",), {})
    ops.append(MatrixPDO(("x",), ("a", "b", "c"), (
        (zero, zero, zero), (zero, parse_operator("axes x; Dx"), zero),
        (zero, zero, const))))
    for op in ops:
        zero_index = MultiIndex.zero(op.dimension)
        grid = op.entries if isinstance(op, MatrixPDO) else ((op,),)
        expected = expr_sum(
            (brace if alpha.order % 2 else bracket)(alpha, zero_index, j, i, c)
            for i, row in enumerate(grid) for j, entry in enumerate(row)
            for alpha, c in entry.terms)
        got = bilinear_rhs(op)
        assert (got._pairs, got._dim, got._top) == (
            expected._pairs, expected._dim, expected._top)


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
