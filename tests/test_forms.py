import itertools
import random

import pytest

from conftest import random_bilinear, random_operator
from oracles import forms_equivalent, term, triple_product_operator
from fundform.algebra import BilinearExpr, partial
from fundform.decompose import (
    DivergenceDecomposition,
    decompose,
    enumerate_plans,
)
from fundform.forms import assemble, exterior_derivative
from fundform.operators import bilinear_rhs
from fundform.catalog import wave_operator


def test_assemble_rejects_unverified():
    dec = decompose(wave_operator())
    unverified = DivergenceDecomposition(dec.axes, dec.fluxes, dec.source,
                                         dec.plan, verified=False)
    with pytest.raises(ValueError):
        assemble(unverified)
    assert assemble(dec) is dec


def test_wave_form_fluxes():
    form = assemble(decompose(wave_operator()))
    dec = decompose(wave_operator())
    assert form.fluxes[form.axes.index("t")] == dec.fluxes[dec.axes.index("t")]
    assert exterior_derivative(form) == bilinear_rhs(wave_operator())


def test_two_axis_sign_convention():
    # with fluxes (a_1, a_2) the volume coefficient is d_1 a_1 + d_2 a_2
    a1 = BilinearExpr([term(1, (1, 0), (0, 0))])
    a2 = BilinearExpr([term(1, (0, 0), (0, 1))])
    form = DivergenceDecomposition(("x", "y"), (a1, a2), None)
    assert exterior_derivative(form) == partial(a1, 0) + partial(a2, 1)


def test_zero_fluxes_closed():
    form = DivergenceDecomposition(("x", "y"), (BilinearExpr(), BilinearExpr()), None)
    assert exterior_derivative(form).is_zero


def test_exterior_derivative_matches_pairing_randomized():
    rng = random.Random(61)
    for _ in range(25):
        op = random_operator(rng, max_dim=3, max_order=5, max_terms=4)
        form = assemble(decompose(op))
        assert exterior_derivative(form) == bilinear_rhs(op)


def test_curl_shift_is_equivalent():
    rng = random.Random(67)
    op = wave_operator()
    base = assemble(decompose(op))
    psi = random_bilinear(rng, 2)
    shifted = DivergenceDecomposition(
        base.axes,
        (base.fluxes[0] + partial(psi, 1), base.fluxes[1] - partial(psi, 0)),
        base.source,
    )
    assert forms_equivalent(base, shifted)
    assert forms_equivalent(shifted, base)


def test_inequivalent_negative_control():
    base = assemble(decompose(wave_operator()))
    bumped = DivergenceDecomposition(
        base.axes,
        (base.fluxes[0] + BilinearExpr([term(1, (0, 0), (0, 0))]),
         base.fluxes[1]),
        base.source,
    )
    assert not forms_equivalent(base, bumped)


def test_equivalence_relation_on_enumerated_family():
    op = triple_product_operator()
    forms = [assemble(decompose(op, plan)) for plan in enumerate_plans(op)]
    for f in forms:
        assert forms_equivalent(f, f)
    for f, g in itertools.combinations(forms, 2):
        assert forms_equivalent(f, g)
        assert forms_equivalent(g, f)
    # transitivity across a chain
    for f, g, h in zip(forms, forms[1:], forms[2:]):
        assert forms_equivalent(f, g) and forms_equivalent(g, h)
        assert forms_equivalent(f, h)


def test_dimension_mismatch_rejected():
    two = assemble(decompose(wave_operator()))
    three = assemble(decompose(triple_product_operator()))
    with pytest.raises(ValueError):
        forms_equivalent(two, three)
