import cmath
import itertools
import math
import random
import re
import sys

import numpy as np
import pytest

from oracles import exp_poly_diff, reference_face_integrals
from fundform import verify
from fundform.catalog import CATALOG_TAGS, catalog_case
from fundform.decompose import decompose, enumerate_plans
from fundform.forms import assemble
from fundform.manufactured import (
    ManufacturedSolution,
    SolutionSyntaxError,
    _merge,
    parse_solution,
)
from fundform.parser import MAX_NODES, MAX_TERMS, parse_operator
from fundform.ring import GaussianRational, Poly
from fundform.spectral import spinor_isotropic, substitute_exponential
from fundform.verify import (
    QuadratureSpec,
    _axis_exponentials,
    _axis_sum,
    _face_grid,
    _gauss_legendre,
    adjoint_point_residual,
    boundary_residual,
    case_substituted_form,
    interior_residual,
    run_catalog_case,
)


# ---------------------------------------------------------------------------
# Exponential-polynomials


def test_parse_solution_evaluates():
    expr = parse_solution("(x-t)^3 + (x+t)^2", ("x", "t"))
    assert expr.evaluate({"x": 2.0, "t": 0.5}) == pytest.approx(
        (2.0 - 0.5) ** 3 + (2.0 + 0.5) ** 2
    )
    trig = parse_solution("exp(2*x)*sin(y) + 3i*cos(y)", ("x", "y"))
    x, y = 0.3, 1.1
    assert trig.evaluate({"x": x, "y": y}) == pytest.approx(
        cmath.exp(2 * x) * cmath.sin(y) + 3j * cmath.cos(y)
    )
    # i is the imaginary unit even where a caller names an axis i
    assert parse_solution("i", ("i", "t")).terms == (((0, 0), (0j, 0j), 1j),)


def test_parse_solution_rejects_garbage():
    with pytest.raises(SolutionSyntaxError):
        parse_solution("x +", ("x",))
    with pytest.raises(SolutionSyntaxError):
        parse_solution("q^2", ("x",))
    with pytest.raises(SolutionSyntaxError):
        parse_solution("sin x", ("x",))
    with pytest.raises(SolutionSyntaxError):
        parse_solution("exp(x", ("x",))
    with pytest.raises(SolutionSyntaxError):
        parse_solution("exp(exp(x))", ("x",))
    with pytest.raises(SolutionSyntaxError):
        parse_solution("cos(x^2)", ("x",))


@pytest.mark.parametrize("text,message,column", [
    ("1.5.2", "unexpected character '.'", 4),
    ("x*t t", "unexpected trailing input 't'", 5),
    ("x^1.5", "expected integer exponent", 3),
    ("x^t", "expected integer exponent", 3),
    ("sin(2x)", "expected ')', found 'x'", 6),
    ("t + sin(x", "expected ')' before end of input", 10),
    ("2^100000", "overflow", 3),
], ids=["character", "trailing", "decimal-exponent", "name-exponent",
        "unclosed-sin", "unclosed-at-end", "overflow"])
def test_solution_errors_carry_line_and_column(text, message, column):
    with pytest.raises(SolutionSyntaxError) as err:
        parse_solution(text, ("x", "t"))
    assert message in str(err.value)
    assert (err.value.line, err.value.column) == (1, column)
    assert str(err.value).endswith(f"(line 1, column {column})")
    with pytest.raises(SolutionSyntaxError) as err:
        parse_solution("x +\n  " + text, ("x", "t"))
    assert (err.value.line, err.value.column) == (2, column + 2)


@pytest.mark.parametrize("text,value", [("(2^2000)^0", 1), ("(1-1)*2^2000", 0)])
def test_overflow_that_cancels_is_read(text, value):
    assert parse_solution(text, ("x",)).evaluate({"x": 0.5}) == value


@pytest.mark.parametrize("text,column", [("1 + 2^2000", 7),
                                         ("x*(3*2^2000 - 2^2000)", 8)])
def test_overflow_refused_at_its_first_value(text, column):
    with pytest.raises(SolutionSyntaxError, match="overflow") as err:
        parse_solution(text, ("x",))
    assert (err.value.line, err.value.column) == (1, column)


def test_solution_sum_overflow_refused_at_its_plus():
    # two finite values whose sum leaves the float range
    text = "9" * 308 + " + " + "9" * 308
    with pytest.raises(SolutionSyntaxError, match="overflow") as err:
        parse_solution(text, ("x",))
    assert (err.value.line, err.value.column) == (1, 310)


def test_solution_sum_refused_at_the_plus_that_crosses_the_term_limit():
    powers = [f"x^{k}" for k in range(MAX_TERMS + 1)]
    assert len(parse_solution(" + ".join(powers[:-1]), ("x",)).terms) == MAX_TERMS
    text = " + ".join(powers)
    with pytest.raises(SolutionSyntaxError,
                       match=f"limit of {MAX_TERMS} terms") as err:
        parse_solution(text, ("x",))
    assert (err.value.line, err.value.column) == (1, text.rindex("+") + 1)


def test_solution_sum_that_cancels_back_under_the_term_limit_is_read():
    # 2,100 summands, but the sum so far never holds more than 1,000 terms
    up = [f"x^{k}" for k in range(1000)]
    rest = " + ".join(f"y^{k}" for k in range(1, 101))
    text = " + ".join(up) + " - " + " - ".join(up) + " + " + rest
    assert parse_solution(text, ("x", "y")) == parse_solution(rest, ("x", "y"))


def test_terms_merge_and_zeros_drop():
    axes = ("x", "y")
    one = parse_solution("sin(x+y)^2 + cos(x+y)^2", axes)
    assert one.terms == parse_solution("1", axes).terms
    assert parse_solution("exp(x)*x - x*exp(x)", axes).terms == ()


def _oracle_merge(triples):
    """A plain dict summed in input order, zeros dropped, sorted on a and
    then the (real, imag) pairs of lam."""
    acc = {}
    for a, lam, c in triples:
        acc[a, lam] = acc.get((a, lam), 0) + c
    return sorted(((a, lam, c) for (a, lam), c in acc.items() if c != 0),
                  key=lambda t: (t[0], [(s.real, s.imag) for s in t[1]]))


def _zero_signs(lam):
    return [(math.copysign(1, s.real), math.copysign(1, s.imag)) for s in lam]


def test_merge_matches_a_dict_and_sort_oracle():
    # seeded triples on two axes: repeated slopes, zero parts spelled +0 and
    # -0, and coefficients that cancel; halves keep every sum exact
    rng = random.Random(2222)
    zeros = [0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
    parts = [1j, -2 + 0j, 0.5 - 1j, complex(-0.0, 3.0)]
    respelled = cancelled = 0
    for _ in range(300):
        triples = []
        for _ in range(rng.randint(1, 12)):
            if triples and rng.random() < 0.3:
                # an earlier (a, lam), its zero parts spelled anew, and its
                # coefficient taken back out
                a, lam, c = rng.choice(triples)
                triples.append((a, tuple(s if s else rng.choice(zeros) for s in lam), -c))
                continue
            a = (rng.randint(0, 2), rng.randint(0, 2))
            lam = tuple(rng.choice(zeros if rng.random() < 0.5 else parts)
                        for _ in range(2))
            triples.append((a, lam, complex(rng.randint(-3, 3), rng.randint(-3, 3)) / 2))
        got = _merge(("x", "y"), triples).terms
        want = _oracle_merge(triples)
        # the oracle's terms, in the oracle's order; zeros drop
        assert list(got) == want
        assert all(c != 0 for *_, c in got)
        cancelled += len({(a, lam) for a, lam, _ in triples}) - len(got)
        # an equal (a, lam) keeps the spelling of its first triple
        for a, lam, _ in got:
            spellings = [_zero_signs(mu) for b, mu, _ in triples if (b, mu) == (a, lam)]
            assert _zero_signs(lam) == spellings[0]
            respelled += any(signs != spellings[0] for signs in spellings)
    assert cancelled >= 100 and respelled >= 50


def test_negation_and_powers_match_products():
    # halves and small integers throughout, so that every product is exact
    rng = random.Random(2223)
    axes = ("x", "t")
    for _ in range(15):
        text = " + ".join(
            f"{rng.choice(['1', '2', '0.5', '3i'])}*{rng.choice(axes)}^{rng.randint(0, 2)}"
            f"*{rng.choice(['exp', 'sin', 'cos'])}({rng.choice(['x', '-x', '2*t', 'x-t'])})"
            for _ in range(rng.randint(1, 2)))
        p = parse_solution(text, axes)
        neg = parse_solution(f"-({text})", axes)
        # each coefficient flips; the keys, their spellings and order stay
        assert [(a, repr(lam)) for a, lam, _ in neg.terms] == [
            (a, repr(lam)) for a, lam, _ in p.terms]
        assert [c for *_, c in neg.terms] == [-c for *_, c in p.terms]
        for n in range(6):
            chain = "*".join([f"({text})"] * n) or "1"
            assert parse_solution(f"({text})^{n}", axes) == parse_solution(chain, axes)


def test_symbolic_derivative_against_finite_differences():
    axes = ("x", "y")
    samples = [
        "(x-y)^3 + (x+y)^2",
        "exp(x)*sin(2*y)",
        "x^2*cos(x+y) + 5",
        "exp(1i*x + y)",
    ]
    rng = random.Random(79)
    h = 1e-5
    for text in samples:
        expr = parse_solution(text, axes)
        for axis in axes:
            sym = exp_poly_diff(expr, axis)
            for _ in range(5):
                point = {"x": rng.uniform(0.2, 1.0), "y": rng.uniform(0.2, 1.0)}
                up = dict(point)
                down = dict(point)
                up[axis] += h
                down[axis] -= h
                fd = (expr.evaluate(up) - expr.evaluate(down)) / (2 * h)
                assert sym.evaluate(point) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_trace_is_the_one_entry_derivative_sum():
    solution = ManufacturedSolution.scalar(("x", "y"), "exp(x)*sin(2*y)")
    expected = solution.derivative_sum(((1, 0, (2, 1)),))
    assert expected.terms
    assert solution.trace(0, (2, 1)) == expected
    assert solution.trace(0, [2, 1]) == expected


ROADMAP_EXAMPLE = "exp(x+t)*sin(2*x)*cos(t)*(x^3+t)"


def test_high_order_trace_stays_small():
    sol = ManufacturedSolution.scalar(("x", "t"), ROADMAP_EXAMPLE)
    assert len(sol.trace(0, (8, 8)).terms) <= 40


# The sympy oracle reads the solution text with its own parser and
# differentiates with sympy.diff; it shares no code with `manufactured`.
ORACLE_CASES = [
    (("x", "t"), "(x-t)^3 + (x+t)^2", "wave"),
    (("x", "t"), "exp(x+t)", "heat"),
    (("x", "y", "z"), "x^3 - 3*x*y^2 + z", "biharmonic"),
    (("x", "y", "z", "t"), "exp(-1*t)*sin(y)", "stokes"),
    (("x", "y"), "(x-y)^3 + (x+y)^2", None),
    (("x", "y"), "exp(x)*sin(2*y)", None),
    (("x", "y"), "x^2*cos(x+y) + 5", None),
    (("x", "y"), "exp(1i*x + y)", None),
    (("x", "t"), ROADMAP_EXAMPLE, None),
]


def sympy_field(text, axes):
    sympy = pytest.importorskip("sympy")
    reader = pytest.importorskip("sympy.parsing.sympy_parser")
    text = re.sub(r"(\d+(?:\.\d+)?)i\b", r"(\1*I)", text)
    text = re.sub(r"\bi\b", "I", text)
    names = {name: sympy.Symbol(name, real=True) for name in axes}
    names.update(I=sympy.I, exp=sympy.exp, sin=sympy.sin, cos=sympy.cos)
    transformations = reader.standard_transformations + (reader.convert_xor,)
    return reader.parse_expr(text, local_dict=names,
                             transformations=transformations), names


@pytest.mark.parametrize("axes,text,tag", ORACLE_CASES)
def test_traces_against_sympy(axes, text, tag):
    sympy = pytest.importorskip("sympy")
    expr, names = sympy_field(text, axes)
    solution = ManufacturedSolution.scalar(axes, text)
    if tag is not None:
        assert catalog_case(tag).solution.fields[0] == solution.fields[0]
    rng = random.Random(104)
    n = len(axes)
    derivs = [(0,) * n, (4,) * n] + [
        tuple(int(j == k) for j in range(n)) for k in range(n)
    ] + [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(3)]
    for deriv in derivs:
        wrt = [item for name, count in zip(axes, deriv)
               for item in (names[name], count) if count]
        exact = sympy.diff(expr, *wrt) if wrt else expr
        for _ in range(3):
            point = {name: rng.uniform(0.2, 1.0) for name in axes}
            expected = complex(exact.evalf(subs={names[k]: v for k, v in point.items()}))
            got = complex(solution.trace(0, deriv).evaluate(point))
            assert got == pytest.approx(expected, rel=1e-9), (text, deriv, point)


def random_solution_text(rng, axes):
    """Two to four terms c x^a exp(lam . x): decimal and imaginary
    coefficients and slopes, powers up to 4 per axis."""
    def number():
        """A signed decimal, real or imaginary, in parentheses."""
        return (f"({rng.choice(['', '-'])}{rng.randint(0, 9)}.{rng.randint(1, 99)}"
                f"{rng.choice(['', 'i'])})")

    terms = []
    for _ in range(rng.randint(2, 4)):
        factors = [f"({number()} + {number()})"]
        factors += [f"{axis}^{rng.randint(0, 4)}" for axis in axes]
        slopes = " + ".join(f"{number()}*{axis}" for axis in axes
                            if rng.random() < 0.8)
        if slopes:
            factors.append(f"exp({slopes})")
        terms.append("*".join(factors))
    return " + ".join(terms)


def diff_chain(expr, axes, deriv):
    for axis, count in zip(axes, deriv):
        for _ in range(count):
            expr = exp_poly_diff(expr, axis)
    return expr


def random_entries(rng, n, fields):
    """One to eight (coeff, field, deriv) entries of order at most 8, the
    first one twice."""
    entries = []
    for _ in range(rng.randint(1, 8)):
        order = rng.randint(0, 8)
        deriv = [0] * n
        for _ in range(order):
            deriv[rng.randrange(n)] += 1
        coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        entries.append((coeff, rng.randrange(fields), tuple(deriv)))
    entries.append(entries[0])  # one derivative twice
    return entries


def check_sum_against_chains(rng, solution, entries, shift) -> int:
    """The derivative sum against one exp_poly_diff per derivative, at four
    points; returns how many of them have a nonzero value."""
    axes = solution.axes
    got = solution.derivative_sum(entries, shift)
    chains = [(coeff, diff_chain(solution.fields[field], axes, deriv))
              for coeff, field, deriv in entries]
    _, field, deriv = entries[0]
    assert solution.trace(field, deriv) == solution.derivative_sum(
        [(1, field, deriv)])
    nonzero = 0
    for _ in range(4):
        point = {axis: rng.uniform(-1, 1) for axis in axes}
        weight = cmath.exp(sum(s * point[axis] for s, axis in zip(shift, axes))
                           ) if shift else 1
        parts = [coeff * chain.evaluate(point) * weight for coeff, chain in chains]
        scale = sum(map(abs, parts))
        nonzero += scale > 0
        assert abs(got.evaluate(point) - sum(parts)) <= 1e-12 * scale, (
            entries, point)
    return nonzero


# Fields whose slopes share a top: the shift rule shifts each field's symbol
# once per group of slopes with one top and the same zero entries.
SHARED_SLOPE_FIELDS = {
    # four slopes of top (2, 1), one group
    "one top": ("x^2*y*(exp(2*x + y) + cos(3*x - y) + exp(-x + 2i*y))",),
    # slopes of one top that differ only where some are zero: (2, 0) and
    # (-1, 0) in one group, (2, 3) and (-1, 3) in another
    "zero entries": ("x*y*(exp(2*x) + exp(-x) + exp(2*x + 3*y) - exp(-x + 3*y))",),
    # tops (2, 0) and (0, 3), each with three slopes
    "two tops": ("x^2*(exp(x + y) + cos(2*y - x)) - 3*y^3*(exp(2*x - 1i*y)"
                 " + sin(x + y))",),
    # two fields, each with a group of several slopes
    "two fields": ("(x + y)^2*(exp(x - y) + cos(x + 2*y))",
                   "y*(sin(2*x) + exp(1i*x + y) - exp(2*x + 2*y)) + x^3"),
}


def test_derivative_sums_match_diff_chains():
    # the shift rule against one exp_poly_diff per derivative, on seeded
    # two-field systems over two and three axes, then on fields whose
    # slopes share a top, each with and without a shift
    rng = random.Random(2020)
    nonzero = 0
    for case in range(40):
        axes = ("x", "y", "z")[:rng.choice([2, 3])]
        solution = ManufacturedSolution.system(
            axes, [random_solution_text(rng, axes) for _ in range(2)])
        entries = random_entries(rng, len(axes), 2)
        shift = None if case % 2 else tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-2, 2)) for _ in axes)
        nonzero += check_sum_against_chains(rng, solution, entries, shift)
    assert nonzero >= 100
    axes = ("x", "y")
    for texts in SHARED_SLOPE_FIELDS.values():
        solution = ManufacturedSolution.system(axes, texts)
        for _ in range(3):
            entries = random_entries(rng, 2, len(texts))
            for shift in (None, (complex(rng.uniform(-1, 1), rng.uniform(-2, 2)),
                                 complex(rng.uniform(-1, 1), 0))):
                assert check_sum_against_chains(rng, solution, entries, shift)


def test_trace_orders_match_mixed_partials():
    sol = ManufacturedSolution.scalar(("x", "y"), "x^3*y^2")
    assert sol.trace(0, (2, 1)).evaluate({"x": 2.0, "y": 3.0}) == pytest.approx(
        6 * 2.0 * 2 * 3.0
    )


# ---------------------------------------------------------------------------
# Catalog solutions


def test_catalog_solutions_satisfy_their_equations():
    for tag in CATALOG_TAGS:
        case = catalog_case(tag)
        residual = interior_residual(case.operator, case.solution, case.box,
                                     params=case.params)
        assert residual <= 1e-10, tag


def test_catalog_spectral_points_sit_on_the_variety():
    for tag in CATALOG_TAGS:
        case = catalog_case(tag)
        residual = adjoint_point_residual(case.operator, case.sigma, case.sign,
                                          case.amplitudes, case.params)
        assert residual <= 1e-12, tag


def test_catalog_spectral_data_are_exact():
    for tag in CATALOG_TAGS:
        case = catalog_case(tag)
        residual = adjoint_point_residual(case.operator, case.sigma, case.sign,
                                          case.amplitudes, case.params)
        assert residual == 0.0, tag
    assert catalog_case("stokes").sigma[:3] == spinor_isotropic(1, 2).k


def test_adjoint_point_residual_refuses_an_amplitude_count_off_the_fields():
    # neither a surplus amplitude is ignored nor a missing one read as 0
    stokes, heat = catalog_case("stokes"), catalog_case("heat")
    for case, given, fields in [(stokes, stokes.amplitudes[:1], 4),
                                (stokes, (*stokes.amplitudes, 1), 4),
                                (heat, (1, 1, 1), 1)]:
        with pytest.raises(ValueError, match="one amplitude per test field required: "
                                             f"the operator has {fields}, "
                                             f"{len(given)} given$"):
            adjoint_point_residual(case.operator, case.sigma, case.sign, given,
                                   case.params)
    # each catalog case, with its own amplitudes or none, still reads 0.0
    for tag in CATALOG_TAGS:
        case = catalog_case(tag)
        assert adjoint_point_residual(case.operator, case.sigma, case.sign,
                                      case.amplitudes, case.params) == 0.0, tag


def test_unknown_catalog_tag():
    with pytest.raises(KeyError):
        catalog_case("plate")


# ---------------------------------------------------------------------------
# Boundary residuals


def test_boundary_residuals_all_catalog_cases():
    for tag in CATALOG_TAGS:
        report = run_catalog_case(tag, nodes=20)
        assert report["passed"], (tag, report["relative"])
        assert report["relative"] <= 1e-8


def test_zero_solution_gives_exactly_zero():
    case = catalog_case("wave")
    zero = ManufacturedSolution.scalar(("x", "t"), "0")
    sf, assignment = case_substituted_form(case)
    report = boundary_residual(sf, zero, case.box, QuadratureSpec(8), assignment)
    assert report.residual == 0
    assert report.scale == 0


def test_wrong_solution_detected():
    report = run_catalog_case(
        "wave", nodes=20,
        solution=ManufacturedSolution.scalar(("x", "t"), "x^4"),
    )
    assert not report["passed"]
    assert report["relative"] >= 1e-2


def test_residual_converges_with_quadrature_order():
    for tag in CATALOG_TAGS:
        case = catalog_case(tag)
        sf, assignment = case_substituted_form(case)
        reports = [boundary_residual(sf, case.solution, case.box,
                                     QuadratureSpec(n), assignment)
                   for n in (5, 10, 20)]
        floor = 1e-12 * max(reports[-1].scale, 1.0)
        assert reports[-1].relative <= 1e-8, tag
        assert abs(reports[-1].residual) <= abs(reports[0].residual) + floor
        assert abs(reports[-1].residual) <= abs(reports[1].residual) + floor


def test_residual_plan_invariant():
    # two different plans of the biharmonic family must agree to quadrature
    # accuracy on the same relation data
    case = catalog_case("biharmonic")
    plans = []
    for plan in enumerate_plans(case.operator):
        plans.append(plan)
        if len(plans) == 2:
            break
    reports = []
    for plan in plans:
        dec = decompose(case.operator, plan)
        sf = substitute_exponential(assemble(dec), case.sigma, case.sign,
                                    case.amplitudes)
        assignment = dict(case.params)
        reports.append(
            boundary_residual(sf, case.solution, case.box, QuadratureSpec(20),
                              assignment)
        )
    assert reports[0].relative <= 1e-8
    assert reports[1].relative <= 1e-8
    assert abs(reports[0].residual - reports[1].residual) <= 1e-8 * max(
        reports[0].scale, 1.0
    )


def laplacian_power_relation(rng: random.Random) -> tuple:
    """A seeded Laplacian^k relation, k = 2..4 on two or three axes: q is
    p h with h harmonic and deg p = k - 1, sigma on sum_j sigma_j^2 = 0,
    on a seeded box."""
    k, n = rng.choice((2, 3, 4)), rng.choice((2, 3))
    axes = ("x", "y", "z")[:n]
    laplacian = " + ".join(f"D{a}^2" for a in axes)
    op = parse_operator(f"axes {','.join(axes)}; ({laplacian})^{k}")
    if n == 2:
        rate = rng.choice((2, 3))
        harmonic = f"exp({rate}*x)*cos({rate}*y)"
        a = rng.choice((1, 2, 3))
        sigma = [a, GaussianRational(0, rng.choice((-1, 1)) * a)]
    else:
        harmonic = "exp(5*x)*cos(3*y)*sin(4*z)"
        sigma = [GaussianRational(0, 5), 3, -4]
    poly = f"({rng.choice((2, 3))}*x^{k - 1} - {rng.choice((2, 3))}*{axes[-1]} + 1)"
    solution = ManufacturedSolution.scalar(axes, f"{poly}*{harmonic}")
    box = [(lo, lo + rng.choice((0.5, 1.0))) for lo in
           (rng.choice((-0.5, 0.0, 0.25)) for _ in axes)]
    sf = substitute_exponential(assemble(decompose(op)), sigma)
    return sf, solution, box, {}


def test_face_integrals_match_the_per_face_loop():
    # the hi and lo faces of an axis share one grid and its one-axis sums;
    # each face integral is still bit for bit what a per-face loop gives
    relations = []
    for tag in CATALOG_TAGS:
        case = catalog_case(tag)
        sf, assignment = case_substituted_form(case)
        relations.append((sf, case.solution, case.box, assignment, 20))
    rng = random.Random(3434)
    for _ in range(8):
        relations.append((*laplacian_power_relation(rng), rng.choice((5, 9))))
    for sf, solution, box, assignment, nodes in relations:
        spec = QuadratureSpec(nodes)
        report = boundary_residual(sf, solution, box, spec, assignment)
        expected = reference_face_integrals(sf, solution, box, spec, assignment)
        assert repr(report.face_integrals) == repr(expected)
        assert report.scale > 0


def test_degenerate_box_rejected():
    case = catalog_case("wave")
    sf, assignment = case_substituted_form(case)
    with pytest.raises(ValueError):
        boundary_residual(sf, case.solution, ((0.0, 0.0), (0.0, 1.0)),
                          QuadratureSpec(4), assignment)


@pytest.mark.filterwarnings("error")
def test_overflowing_solution_refused():
    # exp(800*x) and its derivatives overflow at x near 1, inside and on the box
    case = catalog_case("wave")
    huge = ManufacturedSolution.scalar(("x", "t"), "exp(800*x)")
    sf, assignment = case_substituted_form(case)
    with pytest.raises(ValueError, match="overflow"):
        boundary_residual(sf, huge, case.box, QuadratureSpec(4), assignment)
    with pytest.raises(ValueError, match="overflow"):
        interior_residual(case.operator, huge, case.box)
    # a finite solution, but an operator coefficient beyond the float range
    wide = parse_operator("axes x,t; " + "9" * 400 + "*Dt^2 - Dx^2")
    with pytest.raises(ValueError, match="overflow"):
        interior_residual(wide, case.solution, case.box)
    wide_form = substitute_exponential(assemble(decompose(wide)),
                                       [Poly.var("k"), Poly.var("k")])
    with pytest.raises(ValueError, match="overflow"):
        boundary_residual(wide_form, case.solution, case.box, QuadratureSpec(4),
                          {"k": 1})


@pytest.mark.filterwarnings("error")
def test_overflowing_derivative_coefficients_refused():
    # exp(1e110 i x) has modulus one on the box, but its third and fourth
    # x derivatives have coefficients beyond the float range
    case = catalog_case("biharmonic")
    spin = ManufacturedSolution.scalar(("x", "y", "z"), f"exp(1{'0' * 110}i*x)")
    assert spin.derivative_sum([(1, 0, (2, 0, 0))]).terms
    with pytest.raises(OverflowError):
        spin.derivative_sum([(1, 0, (3, 0, 0))])
    sf, assignment = case_substituted_form(case)
    with pytest.raises(ValueError) as err:
        boundary_residual(sf, spin, case.box, QuadratureSpec(4), assignment)
    assert str(err.value) == "face integrals overflow the float range on the box"
    with pytest.raises(ValueError) as err:
        interior_residual(case.operator, spin, case.box)
    assert str(err.value) == "solution overflows the float range at interior points"


def test_overflowing_operator_refused_at_spectral_point():
    # an operator coefficient beyond the float range, on the wave's data
    case = catalog_case("wave")
    wide = parse_operator("axes x,t; " + "9" * 400 + "*Dt^2 - Dx^2")
    with pytest.raises(ValueError, match="overflow"):
        adjoint_point_residual(wide, case.sigma, case.sign, case.amplitudes,
                               case.params)


def test_interior_points_come_from_a_seeded_random(monkeypatch):
    # (Dt^2 - Dx^2) x^4 = -12 x^2; x is the first axis, drawn first
    monkeypatch.setattr(verify, "INTERIOR_POINTS", 7)
    case = catalog_case("wave")
    quartic = ManufacturedSolution.scalar(("x", "t"), "x^4")
    box = ((0.5, 2.0), (0.0, 1.0))
    rng = random.Random(3)
    xs = [0.5 + 1.5 * rng.random() for _ in range(7)]
    expected = max(12 * x ** 2 for x in xs)
    got = interior_residual(case.operator, quartic, box, seed=3)
    assert got == pytest.approx(expected, rel=1e-14)
    assert interior_residual(case.operator, quartic, box, seed=4) != got


def test_quadrature_spec_validated():
    with pytest.raises(ValueError):
        QuadratureSpec(0)
    with pytest.raises(ValueError, match=f"at most {MAX_NODES} nodes"):
        QuadratureSpec(MAX_NODES + 1)
    assert QuadratureSpec(MAX_NODES).nodes == MAX_NODES


def test_axis_mismatch_rejected():
    case = catalog_case("wave")
    sf, assignment = case_substituted_form(case)
    wrong = ManufacturedSolution.scalar(("x", "y"), "x")
    with pytest.raises(ValueError):
        boundary_residual(sf, wrong, case.box, QuadratureSpec(4), assignment)


def test_interior_residual_refuses_other_axes_and_a_short_box():
    # the residual of x*exp(x+t) depends on the order of the solution's
    # axes (6.27 on (t, x), 12.55 on (x, t)), so only the operator's is read
    op = catalog_case("heat").operator
    box = ((0.0, 1.0), (0.0, 1.0))
    assert interior_residual(
        op, ManufacturedSolution.scalar(("x", "t"), "x*exp(x+t)"), box) > 12
    swapped = ManufacturedSolution.scalar(("t", "x"), "x*exp(x+t)")
    with pytest.raises(ValueError, match="^solution and operator use different axes$"):
        interior_residual(op, swapped, box)
    solution = catalog_case("heat").solution
    for short in ((), box[:1]):
        with pytest.raises(ValueError, match="^box must give one interval per axis$"):
            interior_residual(op, solution, short)


def test_boundary_residual_axis_without_flux():
    # Dx^2 has no flux along y: both y faces are 0j and are not integrated
    op = parse_operator("axes x,y; Dx^2")
    sf = substitute_exponential(assemble(decompose(op)), [0, 1])
    assert sf.fluxes[1] == ()
    solution = ManufacturedSolution.scalar(("x", "y"), "x*exp(y) + 3*x")
    report = boundary_residual(sf, solution, ((0.0, 1.0), (0.0, 2.0)))
    faces = dict(report.face_integrals)
    assert faces[("y", "hi")] == faces[("y", "lo")] == 0j
    assert faces[("x", "hi")] != 0j
    assert report.relative == 0.0


# ---------------------------------------------------------------------------
# The one-axis Gauss-Legendre rule

RULE_SIZES = list(range(1, 65)) + [200, 1000]


def test_gauss_legendre_matches_leggauss():
    # leggauss's own weights drift from the true ones as n grows (by 1.8e-12
    # relative at n = 60 and 8e-9 at the end nodes of n = 1000), so they are
    # compared absolutely; the weights sum to 2.  Relative accuracy is
    # checked against a high-precision reference below.
    for n in RULE_SIZES:
        points, weights = _gauss_legendre(n)
        want_points, want_weights = np.polynomial.legendre.leggauss(n)
        assert len(points) == len(weights) == n
        assert max(abs(x - y) for x, y in zip(points, want_points)) <= 1e-15, n
        assert max(abs(w - v) for w, v in zip(weights, want_weights)) <= 1e-13, n


def test_gauss_legendre_is_symmetric_and_exact():
    eps = sys.float_info.epsilon
    for n in RULE_SIZES:
        points, weights = _gauss_legendre(n)
        assert all(x == -y for x, y in zip(points, reversed(points))), n
        assert all(w == v for w, v in zip(weights, reversed(weights))), n
        assert list(points) == sorted(points), n
        assert abs(math.fsum(weights) - 2) <= 1e-14, n
        # the rule is exact through degree 2n - 1; x^p scales a node's
        # rounding by p, so that is the rounding allowed
        top = 2 * n - 1
        odd = math.fsum(w * x ** top for x, w in zip(points, weights))
        even = math.fsum(w * x ** (top - 1) for x, w in zip(points, weights))
        assert abs(odd) <= 2 * top * eps, n
        assert abs(even - 2 / top) <= 2 * top * eps * (2 / top), n


@pytest.mark.parametrize("n", [7, 20, 41, 60, 200, 1000])
def test_gauss_legendre_weights_against_high_precision(n):
    # 30-digit roots of mpmath.legendre, Newton-polished from the rule's ten
    # largest nodes, where a weight is most sensitive.  A weight must agree
    # to 1e-12 relative, plus eps / (1 - x): the node's own rounding moves
    # 1 - x^2 by that much.
    mpmath = pytest.importorskip("mpmath")
    points, weights = _gauss_legendre(n)
    with mpmath.workdps(30):
        for x0, w in zip(points[-10:], weights[-10:]):
            x = mpmath.mpf(x0)
            for _ in range(3):
                p, q = mpmath.legendre(n, x), mpmath.legendre(n - 1, x)
                x -= p * (x * x - 1) / (n * (x * p - q))
            exact = 2 * (1 - x * x) / (n * mpmath.legendre(n - 1, x)) ** 2
            tol = 1e-12 + sys.float_info.epsilon / (1 - abs(x0))
            assert abs(x0 - x) <= 2e-16 and abs(w - exact) <= tol * exact, x0


# ---------------------------------------------------------------------------
# Separable quadrature against independent oracles


def exact_moment(power: int, slope: complex, lo: float, hi: float) -> complex:
    """Integral of x^power exp(slope x) over [lo, hi] in closed form:
    I_p = (x^p e^(slope x) - p I_(p-1)) / slope, or a monomial integral
    when slope = 0."""
    if slope == 0:
        return (hi ** (power + 1) - lo ** (power + 1)) / (power + 1)

    def antiderivative(x: float) -> complex:
        value = cmath.exp(slope * x) / slope
        for p in range(1, power + 1):
            value = (x ** p * cmath.exp(slope * x) - p * value) / slope
        return value

    return antiderivative(hi) - antiderivative(lo)


@pytest.mark.parametrize("lo,hi", [(0.0, 1.0), (-0.5, 2.0)])
@pytest.mark.parametrize("slope", [0, 2.5, -3.0, 1.5j, 2 - 3j])
def test_one_axis_sums_match_closed_form_integrals(lo, hi, slope):
    # 30 nodes integrate x^p exp(slope x) to rounding on these intervals
    box = ((lo, hi), (0.0, 1.0))
    _, nodes, weights = _face_grid(box, 1, "hi", QuadratureSpec(30), ("x", "y"))
    table = _axis_exponentials(nodes[0], slope) if slope else None
    for power in range(7):
        exact = exact_moment(power, slope, lo, hi)
        got = _axis_sum(nodes[0], weights[0], power, table)
        assert abs(got - exact) <= 1e-12 * max(abs(exact), 1.0), (power, slope)


def brute_force_faces(sf, solution, box, nodes, assignment) -> list:
    """Oriented face integrals by a plain tensor Gauss-Legendre sum: every
    flux term's trace evaluated at every face node, times exp(E . x)."""
    points, weights = np.polynomial.legendre.leggauss(nodes)
    slopes = [s.evaluate(assignment) for s in sf.exponent_slopes()]
    axes = sf.axes
    integrals = []
    for k, flux in enumerate(sf.fluxes):
        free = [j for j in range(len(axes)) if j != k]
        rules = [[(0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w)
                  for x, w in zip(points, weights)]
                 for lo, hi in (box[j] for j in free)]
        for end, orientation in (("hi", 1), ("lo", -1)):
            fixed = box[k][1] if end == "hi" else box[k][0]
            total = 0j
            for combo in itertools.product(*rules):
                point = {axes[k]: fixed}
                weight = 1.0
                for j, (x, w) in zip(free, combo):
                    point[axes[j]] = float(x)
                    weight *= float(w)
                kernel = cmath.exp(sum(s * point[a] for s, a in zip(slopes, axes)))
                value = sum(coeff.evaluate(assignment)
                            * complex(solution.trace(field, deriv).evaluate(point))
                            for coeff, field, deriv in flux)
                total += weight * kernel * value
            integrals.append(((axes[k], end), orientation * total))
    return integrals


def laplacian_squared_case():
    """Laplacian^2 on three axes, q = (2x + 3z) exp(5x) cos(3y) cos(4z),
    sigma = (5i, 3, 4): slopes of both the solution and the weight are
    complex."""
    op = parse_operator("axes x,y,z; (Dx^2 + Dy^2 + Dz^2)^2")
    sigma = [Poly.var("s1"), Poly.var("s2"), Poly.var("s3")]
    sf = substitute_exponential(assemble(decompose(op)), sigma)
    solution = ManufacturedSolution.scalar(
        ("x", "y", "z"), "(2*x + 3*z)*exp(5*x)*cos(3*y)*cos(4*z)")
    box = ((0.0, 1.0), (-0.5, 0.5), (0.0, 0.75))
    return sf, solution, box, {"s1": 5j, "s2": 3, "s3": 4}


def shared_slope_case():
    """A slope that the solution and the weight give both axes alike, on a
    box whose axes have different nodes: each axis tabulates its own
    exponentials."""
    op = parse_operator("axes x,y; Dx^2*Dy + Dy^2 - Dx")
    sf = substitute_exponential(assemble(decompose(op)),
                                [Poly.var("s1"), Poly.var("s2")])
    solution = ManufacturedSolution.scalar(
        ("x", "y"), "x^2*exp(x + y) + y*exp(x + y) + cos(x - 2*y)")
    box = ((0.0, 1.0), (-0.5, 1.5))
    return sf, solution, box, {"s1": 0.3, "s2": 0.3}


def stokes_case():
    case = catalog_case("stokes")
    sf, assignment = case_substituted_form(case)
    return sf, case.solution, case.box, assignment


@pytest.mark.parametrize("make", [stokes_case, laplacian_squared_case,
                                  shared_slope_case],
                         ids=["stokes", "laplacian2", "shared-slope"])
def test_separable_faces_match_brute_force_tensor_sum(make):
    sf, solution, box, assignment = make()
    nodes = 5
    report = boundary_residual(sf, solution, box, QuadratureSpec(nodes), assignment)
    expected = brute_force_faces(sf, solution, box, nodes, assignment)
    assert [face for face, _ in report.face_integrals] == [face for face, _ in expected]
    scale = max(abs(value) for _, value in expected)
    assert scale > 0 and math.isfinite(scale)
    for (face, got), (_, want) in zip(report.face_integrals, expected):
        assert abs(got - want) <= 1e-12 * scale, face
