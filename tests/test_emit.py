import json
import re

from fundform.decompose import decompose
from fundform.forms import assemble
from fundform.parser import parse_operator
from fundform.ring import Poly
from fundform.spectral import (global_relation, spinor_isotropic,
                               substitute_exponential)
from fundform.emit import (
    bilinear_text,
    decomposition_json,
    decomposition_latex,
    form_latex,
    relation_json,
    relation_latex,
    to_pretty_json,
)
from fundform.catalog import _stokes_test_function, stokes_operator, wave_operator


def test_bilinear_text_scalar_and_fields():
    dec = decompose(wave_operator())
    assert bilinear_text(dec.fluxes[1], dec.axes) == "-q*q~_t + q_t*q~"
    stokes = decompose(stokes_operator())
    text = bilinear_text(stokes.fluxes[3], stokes.axes, stokes.source.fields)
    assert text == "u1*u1~ + u2*u2~ + u3*u3~"


def test_decomposition_json_roundtrips_through_json():
    dec = decompose(wave_operator())
    document = json.loads(to_pretty_json(decomposition_json(dec)))
    assert document["axes"] == ["x", "t"]
    assert document["verified"] is True
    t_terms = document["fluxes"][1]["terms"]
    assert {"coeff": "1", "dq": [0, 1], "dqt": [0, 0],
            "field_q": 0, "field_qt": 0} in t_terms


def test_decomposition_latex_mentions_all_axes():
    text = decomposition_latex(decompose(wave_operator()))
    assert "\\partial_{x}" in text and "\\partial_{t}" in text
    assert text.endswith("% verified: true")


def test_form_latex_renders_omitted_factors_with_hats():
    form = assemble(decompose(wave_operator()))
    text = form_latex(form)
    assert text.startswith("\\eta = ")
    assert "\\widehat{\\mathrm{d}x}" in text
    assert "\\widehat{\\mathrm{d}t}" in text
    # alternating orientation signs
    assert " - " in text or text.count("-\\left") >= 1


def test_stokes_form_latex_uses_field_names():
    form = assemble(decompose(stokes_operator()))
    text = form_latex(form)
    assert "\\tilde{u1}" in text or "\\tilde{u_" in text or "u1" in text
    assert "\\widehat{\\mathrm{d}t}" in text


def test_relation_emission():
    op = parse_operator("axes x,t; Dt^2 - Dx^2")
    form = assemble(decompose(op))
    sub = substitute_exponential(form, [Poly.var("k"), -Poly.var("k")], sign=1)
    rel = global_relation(sub, [(Poly.const(0), Poly.var("l")),
                                (Poly.const(0), Poly.var("T"))])
    document = relation_json(rel)
    assert document["box"][0] == {"axis": "x", "lo": "0", "hi": "l"}
    weights = {t["weight"] for t in document["terms"]}
    assert "i*k*l" in weights and "0" in weights
    latex = relation_latex(rel)
    assert latex.startswith("0 = ")
    assert "e^{i k l}" in latex
    assert "\\mathcal{T}_{t=0}" in latex


def test_stokes_relation_emission_names_each_field():
    # the paper's Stokes relation on the unit box: a system's traces are
    # printed q^{(f+1)}, one per term, in term order
    sigma, sign, amplitudes = _stokes_test_function(spinor_isotropic(),
                                                    Poly.var("xi3"))
    form = assemble(decompose(stokes_operator()))
    rel = global_relation(substitute_exponential(form, sigma, sign, amplitudes),
                          [(Poly.const(0), Poly.const(1))] * 4)
    assert len(rel.terms) == 48
    assert sorted({t.field for t in rel.terms}) == [0, 1, 2, 3]
    latex = relation_latex(rel)
    assert latex.startswith("0 = ")
    assert [int(f) for f in re.findall(r"q\^\{\((\d+)\)\}", latex)] == [
        t.field + 1 for t in rel.terms]
    for f in range(1, 5):
        assert f"q^{{({f})}}" in latex
    assert "q^{(5)}" not in latex
    document = json.loads(to_pretty_json(relation_json(rel)))
    assert [record["trace"] for record in document["terms"]] == [
        {"field": t.field, "deriv": list(t.deriv)} for t in rel.terms]
    assert [record["axis"] for record in document["terms"]] == [
        rel.axes[t.axis] for t in rel.terms]
