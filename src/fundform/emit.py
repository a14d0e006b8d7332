"""Rendering: JSON documents for machines, LaTeX for humans, terse text
for terminals.  All emitters are deterministic given canonical inputs.

Every coefficient, weight and endpoint is printed by ``ring``'s
``to_text`` or ``to_latex``.  The document builders (``*_json``) return
plain dicts and lists, and ``to_pretty_json`` lays out every JSON
document the CLI prints (``enumerate``'s head and tail, around the plans
that ``cli`` writes member by member in the same layout), and the
``--format text`` of ``global-relation`` at indent 1.  Its text is byte
for byte that of ``json.dumps(value, indent=indent)``: dicts, lists and
tuples (and their subclasses, a ``MultiIndex`` among them) as json lays
them out, str escaped to ASCII, int, bool, None and float (``NaN``,
``Infinity``, ``-Infinity``) as json spells them, dict keys by json's
key rules, and the same ``TypeError`` for a value or key json refuses.
It builds each container's text with one ``str.join``, where
``json.dumps`` with an indent runs its pure-Python generator encoder.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Sequence

from .algebra import BilinearExpr, MultiIndex
from .decompose import DivergenceDecomposition
from .ring import P_ONE, pretty_name, signed_sum, times_text
from .spectral import (
    GlobalRelation,
    IntegralRepresentation,
    SubstitutedForm,
)

# relation_latex elides a coefficient of 1 or -1 into the term's sign
_P_MINUS_ONE = -P_ONE


def _subscript(deriv: MultiIndex, axes: Sequence[str], latex: bool) -> str:
    names = [axes[k] for k, e in enumerate(deriv) for _ in range(e)]
    if not names:
        return ""
    joiner = "" if all(len(n) == 1 for n in names) else ","
    body = joiner.join(names)
    return f"_{{{body}}}" if latex else f"_{body}"


def _slot_text(field: int, deriv: MultiIndex, axes: Sequence[str],
               fields: Sequence[str] | None, test_slot: bool,
               latex: bool) -> str:
    if fields is None:
        base = "q"
    else:
        base = fields[field]
    sub = _subscript(deriv, axes, latex)
    if latex:
        head = f"\\tilde{{{base}}}" if test_slot else base
        return head + sub
    return base + ("~" if test_slot else "") + sub


def bilinear_text(expr: BilinearExpr, axes: Sequence[str] | None = None,
                  fields: Sequence[str] | None = None,
                  latex: bool = False) -> str:
    if axes is None:
        axes = tuple(f"x{k + 1}" for k in range(expr.dimension))
    parts = []
    for t in expr:
        trial = _slot_text(t.left_field, t.left, axes, fields, False, latex)
        test = _slot_text(t.right_field, t.right, axes, fields, True, latex)
        body = f"{trial} {test}" if latex else f"{trial}*{test}"
        parts.append(times_text(t.coeff, body, latex))
    return signed_sum(parts)


def bilinear_terms_json(expr: BilinearExpr) -> list:
    return [
        {
            "coeff": t.coeff.to_text(),
            "dq": list(t.left),
            "dqt": list(t.right),
            "field_q": t.left_field,
            "field_qt": t.right_field,
        }
        for t in expr
    ]


def _field_names(source) -> list | None:
    return list(source.fields) if hasattr(source, "fields") else None


def decomposition_json(dec: DivergenceDecomposition) -> dict:
    return {
        "axes": list(dec.axes),
        "verified": dec.verified,
        "fluxes": [
            {"axis": axis, "terms": bilinear_terms_json(flux)}
            for axis, flux in zip(dec.axes, dec.fluxes)
        ],
    }


def decomposition_latex(dec: DivergenceDecomposition) -> str:
    fields = _field_names(dec.source)
    pieces = [
        f"\\partial_{{{axis}}}\\left({bilinear_text(flux, dec.axes, fields, latex=True)}\\right)"
        for axis, flux in zip(dec.axes, dec.fluxes)
    ]
    lines = [" + ".join(pieces)]
    lines.append(f"% verified: {str(dec.verified).lower()}")
    return "\n".join(lines)


def decomposition_text(dec: DivergenceDecomposition) -> str:
    fields = _field_names(dec.source)
    lines = [
        f"a_{axis} = {bilinear_text(flux, dec.axes, fields)}"
        for axis, flux in zip(dec.axes, dec.fluxes)
    ]
    lines.append(f"verified: {str(dec.verified).lower()}")
    return "\n".join(lines)


def _wedge(axes: Sequence[str], omit: int) -> str:
    factors = [
        f"\\widehat{{\\mathrm{{d}}{axes[j]}}}" if j == omit else f"\\mathrm{{d}}{axes[j]}"
        for j in range(len(axes))
    ]
    return " \\wedge ".join(factors)


def form_latex(form: DivergenceDecomposition) -> str:
    fields = _field_names(form.source)
    pieces = []
    for j, (axis, flux) in enumerate(zip(form.axes, form.fluxes)):
        sign = "" if j % 2 == 0 else "-"
        body = bilinear_text(flux, form.axes, fields, latex=True)
        pieces.append(f"{sign}\\left({body}\\right)\\, {_wedge(form.axes, j)}")
    joined = pieces[0]
    for piece in pieces[1:]:
        joined += " " + piece if piece.startswith("-") else " + " + piece
    return f"\\eta = {joined}"


def substituted_form_json(sf: SubstitutedForm) -> dict:
    return {
        "axes": list(sf.axes),
        "exponent_sign": sf.sign,
        "sigma": [s.to_text() for s in sf.sigma],
        "amplitudes": [a.to_text() for a in sf.amplitudes],
        "fluxes": [
            {
                "axis": axis,
                "terms": [
                    {"coeff": coeff.to_text(), "field": field, "deriv": list(deriv)}
                    for coeff, field, deriv in flux
                ],
            }
            for axis, flux in zip(sf.axes, sf.fluxes)
        ],
    }


def relation_json(rel: GlobalRelation) -> dict:
    return {
        "box": [
            {"axis": axis, "lo": lo.to_text(), "hi": hi.to_text()}
            for axis, (lo, hi) in zip(rel.axes, rel.box)
        ],
        "exponent_sign": rel.sign,
        "sigma": [s.to_text() for s in rel.sigma],
        "terms": [
            {
                "axis": rel.axes[t.axis],
                "end": t.end,
                "sign": t.sign,
                "coeff": t.coeff.to_text(),
                "weight": t.weight_exponent.to_text(),
                "trace": {"field": t.field, "deriv": list(t.deriv)},
            }
            for t in rel.terms
        ],
    }


def relation_latex(rel: GlobalRelation) -> str:
    pieces = []
    for t in rel.terms:
        axis = rel.axes[t.axis]
        lo, hi = rel.box[t.axis]
        endpoint = (hi if t.end == "hi" else lo).to_latex()
        sign = t.sign
        coeff = t.coeff
        if coeff == P_ONE:
            ctext = ""
        elif coeff == _P_MINUS_ONE:
            sign, ctext = -sign, ""
        elif len(coeff.terms) > 1:
            ctext = f"\\left({coeff.to_latex()}\\right)"
        else:
            ctext = coeff.to_latex()
            if ctext.startswith("-"):
                sign, ctext = -sign, ctext[1:]
        weight = t.weight_exponent.to_latex()
        trace = "q" + _subscript(t.deriv, rel.axes, latex=True)
        if len(rel.amplitudes) > 1:
            trace = f"q^{{({t.field + 1})}}" + _subscript(t.deriv, rel.axes, True)
        kernel = f"e^{{{weight}}}\\," if weight != "0" else ""
        body = f"{ctext}\\, " if ctext else ""
        pieces.append(("-" if sign < 0 else "") + f"{body}{kernel}"
                      f"\\mathcal{{T}}_{{{axis}={endpoint}}}\\!\\left[{trace}\\right]")
    return "0 = " + signed_sum(pieces)


def representation_json(rep: IntegralRepresentation) -> dict:
    return {
        "dimension": len(rep.axes),
        "axes": list(rep.axes),
        "spectral_names": list(rep.spectral_names),
        "prefactor": {"sign": rep.prefactor_sign, "two_pi_power": rep.two_pi_power},
        "denominator": rep.denominator.to_text(),
        "eta": substituted_form_json(rep.eta),
    }


def representation_latex(rep: IntegralRepresentation) -> str:
    n = len(rep.axes)
    pretty = [pretty_name(k) for k in rep.spectral_names]
    ks = ", ".join(pretty)
    dks = "\\, ".join(f"\\mathrm{{d}}{k}" for k in pretty)
    phase = " + ".join(f"{k} {axis}" for k, axis in zip(pretty, rep.axes))
    return (
        f"q(x) = \\frac{{-1}}{{(2\\pi)^{{{n}}}}}"
        f"\\int_{{\\mathbb{{R}}^{{{n}}}}} {dks}"
        f"\\int_{{\\partial\\Omega}} \\frac{{e^{{i({phase})}}\\,"
        f"\\eta(y; {ks})}}{{{rep.denominator.to_latex()}}}"
    )


_INFINITY = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    """A dict key as json prints it: a str as it is, a float, bool, None
    or int as its JSON text, each quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        return f'"{_float_text(key)}"'
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _layout(value, newline: str, step: str) -> str:
    """`value` as JSON text whose line starts after `newline`; each level
    of nesting adds `step`.  Exact str, int, list and dict come first, as
    the documents hold them; the checks after them are json's, in json's
    order."""
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if cls is not list and cls is not dict:
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        if isinstance(value, float):
            return _float_text(value)
        if not isinstance(value, (list, tuple, dict)):
            raise TypeError(f"Object of type {value.__class__.__name__} "
                            "is not JSON serializable")
    inner = newline + step
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + inner + ("," + inner).join([
            _key_text(key) + ": " + _layout(item, inner, step)
            for key, item in value.items()]) + newline + "}")
    if not value:
        return "[]"
    return ("[" + inner + ("," + inner).join([
        _layout(item, inner, step) for item in value]) + newline + "]")


def to_pretty_json(value, indent: int = 2) -> str:
    """``json.dumps(value, indent=indent)``, byte for byte (see the module
    docstring).  A container that holds itself is not detected, and ends
    in RecursionError where json raises ValueError."""
    return _layout(value, "\n", " " * indent)
