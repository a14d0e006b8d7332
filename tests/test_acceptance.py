"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them) and holding its stated budget."""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import random_operator
from oracles import (
    check_parameterization,
    forms_equivalent,
    incr,
    reduce_mod_quadric,
    spectral_exterior_derivative,
    term,
    triple_product_operator,
)
from fundform.algebra import BilinearExpr, MultiIndex, divergence
from fundform.decompose import (
    count_forms,
    decompose,
    enumerate_plans,
    sigma_count,
)
from fundform.forms import assemble
from fundform.manufactured import ManufacturedSolution
from fundform.operators import bilinear_rhs, symbol
from fundform.ring import P_I, Poly
from fundform.spectral import (
    SubstitutedForm,
    adjoint_constraint,
    global_relation,
    integral_representation,
    spinor_isotropic,
    substitute_exponential,
)
from fundform.verify import run_catalog_case
from fundform.catalog import (
    CATALOG_TAGS,
    biharmonic_operator,
    stokes_adjoint_residual,
    stokes_operator,
    wave_operator,
)
from fundform.emit import representation_latex


@contextmanager
def criterion(number: int, name: str, budget: float | None = None):
    start = time.monotonic()
    ok = False
    try:
        yield
        elapsed = time.monotonic() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
            )
        ok = True
        print(f"ACCEPTANCE {number} ({name}): PASS ({elapsed:.2f}s)")
    finally:
        if not ok:
            print(f"ACCEPTANCE {number} ({name}): FAIL")


def var(name):
    return Poly.var(name)


def test_criterion_1_counting():
    with criterion(1, "decomposition family counts", budget=1.0):
        assert count_forms(wave_operator()) == 1
        assert count_forms(triple_product_operator()) == 12
        assert count_forms(biharmonic_operator()) == 8
        assert sigma_count((2, 2, 4)) == 12
        assert sigma_count((2, 2, 5, 6)) == 420


def test_criterion_2_oracle_soundness():
    with criterion(2, "200 random operators decompose exactly", budget=30.0):
        rng = random.Random(2024)
        for _ in range(200):
            op = random_operator(rng, max_dim=4, max_order=6, max_terms=6)
            dec = decompose(op)
            assert dec.verified
            assert (divergence(dec.fluxes) - bilinear_rhs(op)).is_zero


def test_criterion_3_enumeration_completeness():
    with criterion(3, "twelve plans, all verified, all equivalent", budget=10.0):
        op = triple_product_operator()
        plans = list(enumerate_plans(op))
        assert len(plans) == 12
        assert len(set(plans)) == 12
        forms = []
        for plan in plans:
            dec = decompose(op, plan)
            assert (divergence(dec.fluxes) - bilinear_rhs(op)).is_zero
            forms.append(assemble(dec))
        pairs = list(itertools.combinations(forms, 2))
        assert len(pairs) == 66
        assert all(forms_equivalent(f, g) for f, g in pairs)


def _wave_flux_fixture():
    e_x, e_t, zero = (1, 0), (0, 1), (0, 0)
    a_t = BilinearExpr([term(1, e_t, zero), term(-1, zero, e_t)])
    a_x = BilinearExpr([term(-1, e_x, zero), term(1, zero, e_x)])
    return a_x, a_t


def _triple_product_flux_fixture():
    zero = (0, 0, 0)

    def pair(alpha, beta, sign=1):
        return BilinearExpr([term(sign, alpha, beta), term(-sign, beta, alpha)])

    a_x = pair((1, 2, 2), zero) + pair((1, 2, 0), zero)
    a_y = pair((1, 1, 2), (1, 0, 0), -1) + pair((1, 1, 0), (1, 0, 0), -1)
    a_z = pair((1, 1, 1), (1, 1, 0)) + pair((0, 0, 1), zero)
    return a_x, a_y, a_z


def _stokes_flux_fixture():
    nu = var("nu")
    one = Poly.const(1)
    zero = MultiIndex.zero(4)
    density = BilinearExpr(
        [term(one, zero, zero, m, m) for m in range(3)]
    )
    currents = []
    for axis in range(3):
        step = incr(zero, axis)
        terms = [
            term(one, zero, zero, 3, axis),   # pressure times test velocity
            term(one, zero, zero, axis, 3),   # trial velocity times test pressure
        ]
        for m in range(3):
            terms.append(term(nu, zero, step, m, m))
            terms.append(term(-nu, step, zero, m, m))
        currents.append(BilinearExpr(terms))
    return tuple(currents) + (density,)


def test_criterion_4_reference_decompositions():
    with criterion(4, "reference decompositions match term for term"):
        wave = decompose(wave_operator())
        assert wave.fluxes == _wave_flux_fixture()

        triple = decompose(triple_product_operator())
        assert triple.fluxes == _triple_product_flux_fixture()

        stokes = decompose(stokes_operator())
        assert stokes.fluxes == _stokes_flux_fixture()
        assert (divergence(stokes.fluxes)
                == bilinear_rhs(stokes_operator()))


def _wave_relation_fixture(branch: int):
    k, length, horizon = var("k"), var("l"), var("T")
    ik = P_I * k
    zero, one = Poly(), Poly.const(1)
    x_terms = (
        (0, "hi", 1, ik, ik * length, 0, (0, 0)),
        (0, "hi", 1, -one, ik * length, 0, (1, 0)),
        (0, "lo", -1, ik, zero, 0, (0, 0)),
        (0, "lo", -1, -one, zero, 0, (1, 0)),
    )
    if branch < 0:
        t_terms = (
            (1, "hi", 1, ik, -(ik * horizon), 0, (0, 0)),
            (1, "hi", 1, one, -(ik * horizon), 0, (0, 1)),
            (1, "lo", -1, ik, zero, 0, (0, 0)),
            (1, "lo", -1, one, zero, 0, (0, 1)),
        )
    else:
        t_terms = (
            (1, "hi", 1, -ik, ik * horizon, 0, (0, 0)),
            (1, "hi", 1, one, ik * horizon, 0, (0, 1)),
            (1, "lo", -1, -ik, zero, 0, (0, 0)),
            (1, "lo", -1, one, zero, 0, (0, 1)),
        )
    return x_terms + t_terms


def test_criterion_5_wave_global_relations():
    with criterion(5, "wave boundary relations for both branches"):
        form = assemble(decompose(wave_operator()))
        box = [(Poly.const(0), var("l")), (Poly.const(0), var("T"))]
        for branch in (-1, 1):
            sub = substitute_exponential(
                form, [var("k"), var("k").scale(branch)], sign=1
            )
            rel = global_relation(sub, box)
            got = tuple(
                (axis, end, sign, coeff, weight, field, tuple(deriv))
                for axis, end, sign, coeff, weight, field, deriv
                in rel.terms
            )
            assert got == _wave_relation_fixture(branch)


def test_criterion_6_constraint_and_parameterization():
    with criterion(6, "constraint variety and rational parameterization"):
        cv = adjoint_constraint(triple_product_operator(), ("s1", "s2", "s0"))
        s1, s2, s0 = var("s1"), var("s2"), var("s0")
        cleared = s1 ** 2 * s2 ** 2 * (Poly.const(1) - s0 ** 2) - s0 ** 2
        assert cv.poly.proportional_to(cleared)

        lam = var("lam")
        substitution = {
            "s1": (lam.scale(2), lam ** 2 - Poly.const(1)),
            "s2": (Poly.const(1), Poly.const(1)),
            "s0": (lam.scale(2), lam ** 2 + Poly.const(1)),
        }
        ok, _ = check_parameterization(cv, substitution, samples=20)
        assert ok
        perturbed = dict(substitution)
        perturbed["s0"] = (lam.scale(2) + (lam ** 2 + Poly.const(1)),
                           lam ** 2 + Poly.const(1))
        ok, witness = check_parameterization(cv, perturbed, samples=20)
        assert not ok and witness is not None


def _biharmonic_substituted_fixture() -> SubstitutedForm:
    """Hand-entered sigma-substituted fluxes of the ascending-path
    decomposition (two coefficient slips in the common handwritten form
    are corrected here: the divergence identity forces 2i s1 s2^2 in the
    x flux and 2i s2 s3^2 in the y flux)."""
    i = P_I
    s1, s2, s3 = var("s1"), var("s2"), var("s3")

    def entries(table):
        return tuple(
            (coeff, 0, MultiIndex(deriv)) for deriv, coeff in table
        )

    a_x = entries([
        ((3, 0, 0), Poly.const(1)),
        ((0, 0, 0), i * s1 ** 3 + (i * s1 * s2 ** 2).scale(2)
         + (i * s1 * s3 ** 2).scale(2)),
        ((2, 0, 0), -(i * s1)),
        ((1, 0, 0), -(s1 ** 2)),
        ((1, 2, 0), Poly.const(2)),
        ((1, 0, 2), Poly.const(2)),
    ])
    a_y = entries([
        ((0, 3, 0), Poly.const(1)),
        ((0, 0, 0), i * s2 ** 3 + (i * s2 * s3 ** 2).scale(2)),
        ((0, 2, 0), -(i * s2)),
        ((0, 1, 0), -(s2 ** 2)),
        ((1, 1, 0), (i * s1).scale(-2)),
        ((1, 0, 0), (s1 * s2).scale(-2)),
        ((0, 1, 2), Poly.const(2)),
    ])
    a_z = entries([
        ((0, 0, 3), Poly.const(1)),
        ((0, 0, 0), i * s3 ** 3),
        ((0, 0, 2), -(i * s3)),
        ((0, 0, 1), -(s3 ** 2)),
        ((1, 0, 1), (i * s1).scale(-2)),
        ((1, 0, 0), (s1 * s3).scale(-2)),
        ((0, 1, 1), (i * s2).scale(-2)),
        ((0, 1, 0), (s2 * s3).scale(-2)),
    ])
    return SubstitutedForm(("x", "y", "z"), 1, (s1, s2, s3),
                           (Poly.const(1),), (a_x, a_y, a_z))


def test_criterion_7_biharmonic_closure():
    with criterion(7, "biharmonic closure on the constraint variety"):
        fixture = _biharmonic_substituted_fixture()
        rule = -(var("s1") ** 2) - var("s2") ** 2
        derived = {
            (field, tuple(deriv)): reduce_mod_quadric(coeff, "s3", rule)
            for coeff, field, deriv in spectral_exterior_derivative(fixture)
        }
        derived = {key: val for key, val in derived.items() if not val.is_zero}
        expected = {
            (0, tuple(alpha)): coeff
            for alpha, coeff in biharmonic_operator().terms
        }
        assert derived == expected

        # the fixture is exactly the engine's ascending-path output
        engine = substitute_exponential(
            assemble(decompose(biharmonic_operator())),
            [var("s1"), var("s2"), var("s3")], sign=1,
        )
        for got, entered in zip(engine.fluxes, fixture.fluxes):
            assert ({(f, tuple(d)): c for c, f, d in got}
                    == {(f, tuple(d)): c for c, f, d in entered})


def test_criterion_8_spinor_identities():
    with criterion(8, "isotropic spinor identities and adjoint solution"):
        triple = spinor_isotropic()
        assert triple.isotropy().is_zero
        negated = spinor_isotropic(-var("xi1"), -var("xi2"))
        assert triple.k == negated.k
        # free symbolic xi3
        stokes = stokes_operator()
        assert all(row.is_zero for row in stokes_adjoint_residual(stokes, triple))
        assert all(row.is_zero
                   for row in stokes_adjoint_residual(stokes, triple, var("zeta")))


def test_criterion_9_numeric_global_relations():
    with criterion(9, "numeric boundary residuals", budget=10.0):
        for tag in CATALOG_TAGS:
            report = run_catalog_case(tag, nodes=20)
            assert report["relative"] <= 1e-8, (tag, report["relative"])
            assert report["passed"]
        control = run_catalog_case(
            "wave", nodes=20,
            solution=ManufacturedSolution.scalar(("x", "t"), "x^4"),
        )
        assert control["relative"] >= 1e-2
        assert not control["passed"]


def test_criterion_10_integral_representation():
    with criterion(10, "integral representation emission"):
        rng = random.Random(55)
        for _ in range(50):
            op = random_operator(rng, max_dim=4, max_order=5, max_terms=5)
            rep = integral_representation(op)
            assert rep.denominator == symbol(op, rep.spectral_names, sign=1)
        rep = integral_representation(
            decompose(wave_operator()).source
        )
        assert rep.prefactor_sign == -1 and rep.two_pi_power == -2
        latex = representation_latex(rep)
        assert "\\frac{-1}{(2\\pi)^{2}}" in latex
        assert "\\int_{\\mathbb{R}^{2}}" in latex
        assert "\\int_{\\partial\\Omega}" in latex
        assert "\\eta" in latex
