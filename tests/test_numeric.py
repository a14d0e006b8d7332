import cmath
import random
import re

import pytest

from fundform.catalog import CATALOG_TAGS, builtin_solutions
from fundform.decompose import decompose, enumerate_plans
from fundform.manufactured import (
    ManufacturedSolution,
    SolutionSyntaxError,
    parse_solution,
)
from fundform.verify import (
    QuadratureSpec,
    adjoint_point_residual,
    boundary_residual,
    case_substituted_form,
    convergence_residuals,
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


def test_terms_merge_and_zeros_drop():
    axes = ("x", "y")
    one = parse_solution("sin(x+y)^2 + cos(x+y)^2", axes)
    assert one.terms == parse_solution("1", axes).terms
    assert parse_solution("exp(x)*x - x*exp(x)", axes).terms == ()


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
            sym = expr.diff(axis)
            for _ in range(5):
                point = {"x": rng.uniform(0.2, 1.0), "y": rng.uniform(0.2, 1.0)}
                up = dict(point)
                down = dict(point)
                up[axis] += h
                down[axis] -= h
                fd = (expr.evaluate(up) - expr.evaluate(down)) / (2 * h)
                assert sym.evaluate(point) == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_trace_memo_is_per_instance():
    text = "exp(x)*sin(2*y)"
    first = ManufacturedSolution.scalar(("x", "y"), text)
    assert first.trace(0, (2, 1)) is first.trace(0, [2, 1])
    fresh = ManufacturedSolution.scalar(("x", "y"), text)
    assert fresh == first and hash(fresh) == hash(first)
    assert fresh.trace(0, (2, 1)) is not first.trace(0, (2, 1))
    assert fresh.trace(0, (2, 1)) == first.trace(0, (2, 1))


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
        assert builtin_solutions(tag)[0].solution.fields[0] == solution.fields[0]
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


def test_trace_orders_match_mixed_partials():
    sol = ManufacturedSolution.scalar(("x", "y"), "x^3*y^2")
    assert sol.trace(0, (2, 1)).evaluate({"x": 2.0, "y": 3.0}) == pytest.approx(
        6 * 2.0 * 2 * 3.0
    )


# ---------------------------------------------------------------------------
# Catalog solutions


def test_catalog_solutions_satisfy_their_equations():
    for tag in CATALOG_TAGS:
        case = builtin_solutions(tag)[0]
        residual = interior_residual(case.operator, case.solution, case.box,
                                     params=case.params)
        assert residual <= 1e-10, tag


def test_catalog_spectral_points_sit_on_the_variety():
    for tag in CATALOG_TAGS:
        case = builtin_solutions(tag)[0]
        residual = adjoint_point_residual(case.operator, case.sigma, case.sign,
                                          case.amplitudes, case.params)
        assert residual <= 1e-12, tag


def test_unknown_catalog_tag():
    with pytest.raises(KeyError):
        builtin_solutions("plate")


# ---------------------------------------------------------------------------
# Boundary residuals


def test_boundary_residuals_all_catalog_cases():
    for tag in CATALOG_TAGS:
        report = run_catalog_case(tag, nodes=20)
        assert report["passed"], (tag, report["relative"])
        assert report["relative"] <= 1e-8


def test_zero_solution_gives_exactly_zero():
    case = builtin_solutions("wave")[0]
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
        case = builtin_solutions(tag)[0]
        sf, assignment = case_substituted_form(case)
        reports = convergence_residuals(sf, case.solution, case.box,
                                        (5, 10, 20), assignment)
        floor = 1e-12 * max(reports[-1].scale, 1.0)
        assert reports[-1].relative <= 1e-8, tag
        assert abs(reports[-1].residual) <= abs(reports[0].residual) + floor
        assert abs(reports[-1].residual) <= abs(reports[1].residual) + floor


def test_residual_plan_invariant():
    # two different plans of the biharmonic family must agree to quadrature
    # accuracy on the same relation data
    case = builtin_solutions("biharmonic")[0]
    plans = []
    for plan in enumerate_plans(case.operator):
        plans.append(plan)
        if len(plans) == 2:
            break
    reports = []
    for plan in plans:
        dec = decompose(case.operator, plan)
        sf, assignment = case_substituted_form(case, dec)
        reports.append(
            boundary_residual(sf, case.solution, case.box, QuadratureSpec(20),
                              assignment)
        )
    assert reports[0].relative <= 1e-8
    assert reports[1].relative <= 1e-8
    assert abs(reports[0].residual - reports[1].residual) <= 1e-8 * max(
        reports[0].scale, 1.0
    )


def test_degenerate_box_rejected():
    case = builtin_solutions("wave")[0]
    sf, assignment = case_substituted_form(case)
    with pytest.raises(ValueError):
        boundary_residual(sf, case.solution, ((0.0, 0.0), (0.0, 1.0)),
                          QuadratureSpec(4), assignment)


def test_quadrature_spec_validated():
    with pytest.raises(ValueError):
        QuadratureSpec(0)


def test_axis_mismatch_rejected():
    case = builtin_solutions("wave")[0]
    sf, assignment = case_substituted_form(case)
    wrong = ManufacturedSolution.scalar(("x", "y"), "x")
    with pytest.raises(ValueError):
        boundary_residual(sf, wrong, case.box, QuadratureSpec(4), assignment)
