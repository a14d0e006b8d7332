import argparse
import contextlib
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import random_multiindex, random_poly
from oracles import format_operator, forms_equivalent, scalar_operator, term
from fundform.algebra import BilinearExpr, product_rule
from fundform.catalog import STOKES_JSON
from fundform import cli, emit
from fundform.cli import main
from fundform.decompose import (
    PLAN_CEILING,
    DivergenceDecomposition,
    count_forms,
    decompose,
    enumerate_plans,
    term_plan_count,
)
from fundform.forms import assemble
from fundform.operators import parameters
from fundform.parser import (
    MAX_AXES,
    MAX_NODES,
    MAX_ORDER,
    MAX_TERMS,
    parse_operator,
    parse_poly,
)
from fundform.ring import P_I, QUOTE_LIMIT, Poly, quoted, quoted_names
from fundform.spectral import (
    adjoint_constraint,
    global_relation,
    integral_representation,
    substitute_exponential,
)

TRIPLE = "axes x,y,z; Dx^2*Dy^2*Dz^2 + Dx^2*Dy^2 + Dz^2"
BIHARM = "axes x,y,z; Dx^4 + Dy^4 + Dz^4 + 2*Dx^2*Dy^2 + 2*Dy^2*Dz^2 + 2*Dz^2*Dx^2"
WAVE = "axes x,t; Dt^2 - Dx^2"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_triple_product(capsys):
    code, out, _ = run(capsys, "count", "--op", TRIPLE)
    assert code == 0
    assert json.loads(out)["count"] == 12


def test_count_biharmonic(capsys):
    code, out, _ = run(capsys, "count", "--op", BIHARM)
    assert code == 0
    assert json.loads(out)["count"] == 8


def test_decompose_latex_reports_verified(capsys):
    code, out, _ = run(capsys, "decompose", "--op", "axes x,t; Dt^2 - Dx^2",
                       "--format", "latex")
    assert code == 0
    assert "verified: true" in out
    assert "\\partial_{t}" in out


def test_decompose_json_schema(capsys):
    code, out, _ = run(capsys, "decompose", "--op", "axes x,t; Dt^2 - Dx^2")
    document = json.loads(out)
    assert code == 0
    assert document["verified"] is True
    assert [flux["axis"] for flux in document["fluxes"]] == ["x", "t"]
    sample = document["fluxes"][1]["terms"][0]
    assert set(sample) == {"coeff", "dq", "dqt", "field_q", "field_qt"}


def test_decompose_with_explicit_plan(capsys):
    code, out, _ = run(capsys, "decompose", "--op", "axes x,y,z; Dx^2*Dy^2*Dz^2",
                       "--path", "z,y,x", "--format", "json")
    document = json.loads(out)
    assert code == 0 and document["verified"] is True
    # the z-first path peels z before x and y, so the z flux keeps the
    # highest-order trial trace
    z_terms = document["fluxes"][2]["terms"]
    assert {tuple(t["dq"]) for t in z_terms} == {(0, 0, 0), (2, 2, 1)}


PLAN_OP = "axes x,y; Dx*Dy + Dx^2"  # terms Dx*Dy, then Dx^2
FIRST_PLANS = "a_x = -q*q~_x + q_y*q~ + q_x*q~\na_y = -q*q~_x\nverified: true\n"
EXCHANGED = "a_x = -q*q~_y - q*q~_x + q_x*q~\na_y = q_x*q~\nverified: true\n"


@pytest.mark.parametrize("flags,expected", [
    ((), FIRST_PLANS),
    (("--transfer", "y", "--exchange", "x:y"), EXCHANGED),
    (("--transfer", "y", "--exchange", "x:y;"), EXCHANGED),
    (("--transfer", "y", "--transfer", "", "--exchange", "x:y", "--exchange", ";",
      "--path", ",", "--path", "x"), EXCHANGED),
    (("--transfer", "x", "--exchange", "y:x", "--path", "", "--path", " x "),
     FIRST_PLANS),
], ids=["none", "one-term", "one-term-semicolon", "both-terms", "both-terms-first"])
def test_plan_flags_pick_each_terms_plan(capsys, flags, expected):
    assert run(capsys, "decompose", "--op", PLAN_OP, *flags,
               "--format", "text") == (0, expected, "")


@pytest.mark.parametrize("flags,message", [
    (("--exchange", "x"), "exchange 'x' must look like trialaxis:testaxis"),
    (("--transfer", "x", "--exchange", "x:y"),
     "exchanges must consume each transferred axis exactly once"),
    (("--path", "q"), "unknown axis 'q'; operator axes are ('x', 'y')"),
    (("--path", "", "--path", "x,q"), "unknown axis 'q'; operator axes are ('x', 'y')"),
], ids=["exchange-without-colon", "transferred-trial-axis", "unknown-axis",
        "unknown-axis-second-term"])
def test_bad_plan_flags_exit_2(capsys, flags, message):
    assert run(capsys, "decompose", "--op", PLAN_OP, *flags) == (
        2, "", f"error: {message}\n")


def test_plan_of_an_order_zero_term_is_checked(capsys):
    # the constant term's only plan is empty; a path for it is refused
    code, _, err = run(capsys, "decompose", "--op", "axes x; 1 + Dx^2", "--path", "x")
    assert refused(code, err, "path (0,) does not use each axis")
    assert run(capsys, "decompose", "--op", "axes x; 1 + Dx^2", "--path", "",
               "--path", "x")[0] == 0


def test_enumerate_summary(capsys):
    code, out, _ = run(capsys, "enumerate", "--op", TRIPLE)
    document = json.loads(out)
    assert code == 0
    assert document["count"] == 12
    assert len(document["plans"]) == 12
    assert document["pairwise_equivalent"] is True


# Operators with non-integer, imaginary and parameter coefficients.  Their
# documents were written by fundform when each coefficient part was a
# Fraction, and must stay byte-identical.
EXACT_OPERATORS = {
    "third-plus-2i": "axes x,t; (1/3+2*i)*Dx^2 - Dt",
    "imaginary-two-sevenths": "axes x,y; -(2/7)*i*Dx*Dy + Dy^2",
    "nu-third": "params nu; axes x,t; (1/3)*nu*Dx^2 - (5/2)*Dt",
}
EXACT_DOCUMENTS = json.loads(
    (Path(__file__).parent / "golden" / "exact_coefficients.json").read_text())


@pytest.mark.parametrize("command", ["decompose", "enumerate", "constraint",
                                     "global-relation", "represent"])
@pytest.mark.parametrize("name", sorted(EXACT_OPERATORS))
def test_exact_coefficient_documents_pinned(capsys, name, command):
    op = EXACT_OPERATORS[name]
    for fmt, expected in EXACT_DOCUMENTS[op][command].items():
        code, out, err = run(capsys, command, "--op", op, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == expected, f"{command} --format {fmt}"


def _library_relation(op, sigma, box=None):
    box = box or [(Poly(), Poly.const(1))] * op.dimension
    return global_relation(substitute_exponential(assemble(decompose(op)), sigma), box)


@pytest.mark.parametrize("name", sorted(EXACT_OPERATORS))
def test_every_printed_expression_reads_back(capsys, name):
    # each expression field of each JSON document, read by the grammar
    # with the document's names, is the engine's value
    text = EXACT_OPERATORS[name]
    op = parse_operator(text)
    params = sorted(parameters(op))

    document = json.loads(run(capsys, "decompose", "--op", text)[1])
    assert [[parse_poly(t["coeff"], params) for t in flux["terms"]]
            for flux in document["fluxes"]] == [
        [t.coeff for t in flux] for flux in decompose(op).fluxes]

    document = json.loads(run(capsys, "constraint", "--op", text)[1])
    names = document["names"] + params
    variety = adjoint_constraint(op, document["names"])
    assert parse_poly(document["poly"], names) == variety.poly
    assert [(s["name"], parse_poly(s["num"], names), parse_poly(s["den"], names))
            for s in document["solved"]] == list(variety.solved)

    # a named, a rational and an imaginary endpoint
    x, y = op.axes
    document = json.loads(run(capsys, "global-relation", "--op", text,
                              "--box", f"{x}=-1/2..l,{y}=0..i")[1])
    names = ["s1", "s2", "l"] + params
    rel = _library_relation(op, [Poly.var("s1"), Poly.var("s2")],
                            [(Poly.const(Fraction(-1, 2)), Poly.var("l")), (Poly(), P_I)])
    assert [(parse_poly(span["lo"], names), parse_poly(span["hi"], names))
            for span in document["box"]] == list(rel.box)
    assert [parse_poly(s, names) for s in document["sigma"]] == list(rel.sigma)
    assert [(parse_poly(t["coeff"], names), parse_poly(t["weight"], names))
            for t in document["terms"]] == [
        (t.coeff, t.weight_exponent) for t in rel.terms]

    document = json.loads(run(capsys, "represent", "--op", text)[1])
    rep = integral_representation(op)
    names = document["spectral_names"] + params
    eta = document["eta"]
    assert parse_poly(document["denominator"], names) == rep.denominator
    assert [parse_poly(s, names) for s in eta["sigma"] + eta["amplitudes"]] == list(
        rep.eta.sigma + rep.eta.amplitudes)
    assert [[parse_poly(t["coeff"], names) for t in flux["terms"]]
            for flux in eta["fluxes"]] == [
        [coeff for coeff, _, _ in flux] for flux in rep.eta.fluxes]


@pytest.mark.parametrize("text", [
    "axes x,t; (1/3+2*i)*Dx^2 + i*Dt",
    EXACT_OPERATORS["third-plus-2i"],
    "axes x,y; Dx^2 + (2-i)*Dy^2 + 5/3*i",
])
def test_solved_numerator_chains_into_global_relation(capsys, text):
    # pick sigma on the constraint variety, then couple the data through it:
    # a solved numerator over 1, printed by `constraint`, is a --sigma entry
    op = parse_operator(text)
    document = json.loads(run(capsys, "constraint", "--op", text)[1])
    names = document["names"]
    solved = adjoint_constraint(op, names).solved
    chained = 0
    for (name, num, den), printed in zip(solved, document["solved"]):
        if printed["den"] != "1":
            continue
        assert den == Poly.const(1)
        j = names.index(name)
        sigma = [num if k == j else Poly.var(n) for k, n in enumerate(names)]
        entries = [printed["num"] if k == j else n for k, n in enumerate(names)]
        code, out, err = run(capsys, "global-relation", "--op", text,
                             "--sigma", ",".join(entries))
        assert (code, err) == (0, "")
        assert json.loads(out) == emit.relation_json(_library_relation(op, sigma))
        chained += 1
    assert chained


def _planted_pieces(monkeypatch, index: int, piece: int) -> None:
    # piece `piece` of term `index` gains a flux whose divergence does not vanish
    cli = importlib.import_module("fundform.cli")
    real = cli.term_pieces

    def planted(op):
        out = list(real(op))
        _, pieces = out[index]
        dec = pieces[piece]
        extra = BilinearExpr([term(1, (0,) * op.dimension, (0,) * op.dimension)])
        pieces[piece] = DivergenceDecomposition(
            dec.axes, (dec.fluxes[0] + extra,) + dec.fluxes[1:], dec.source,
            dec.plan, verified=True)
        return out

    monkeypatch.setattr(cli, "term_pieces", planted)


def test_enumerate_detects_inequivalent_member(capsys, monkeypatch):
    # TRIPLE's last term (Dx^2*Dy^2*Dz^2) has six pieces; the last one is bad
    _planted_pieces(monkeypatch, -1, -1)
    code, out, _ = run(capsys, "enumerate", "--op", TRIPLE)
    assert code == 0
    assert json.loads(out)["pairwise_equivalent"] is False


def test_enumerate_detects_bad_sibling_of_a_middle_term(capsys, monkeypatch):
    # TRIPLE's terms in plan-item order: Dz^2 (one piece), Dx^2*Dy^2 (two),
    # Dx^2*Dy^2*Dz^2 (six); the second piece of the middle term is bad
    counts = [len(pieces) for _, pieces in cli.term_pieces(parse_operator(TRIPLE))]
    assert counts == [1, 2, 6]
    _planted_pieces(monkeypatch, 1, 1)
    code, out, _ = run(capsys, "enumerate", "--op", TRIPLE)
    assert code == 0
    assert json.loads(out)["pairwise_equivalent"] is False


def test_pairwise_verdict_differentiates_each_piece_once(monkeypatch):
    # beyond the gates (one per piece and one for the first member), the
    # verdict takes one exterior derivative per piece, first pieces
    # included, and each reads the derivatives its piece's gate took: no
    # product rule runs inside the verdict's derivatives
    engine = importlib.import_module("fundform.decompose")
    algebra = importlib.import_module("fundform.algebra")
    calls = {"verdict": 0, "gates": 0, "product_rule": 0}
    in_verdict = []

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    def verdict(form):
        calls["verdict"] += 1
        in_verdict.append(form)
        try:
            return real_verdict(form)
        finally:
            in_verdict.pop()

    def product_rule_in_verdict(*args):
        calls["product_rule"] += bool(in_verdict)
        return real_product_rule(*args)

    real_verdict, real_product_rule = cli.exterior_derivative, algebra.product_rule
    monkeypatch.setattr(cli, "exterior_derivative", verdict)
    monkeypatch.setattr(algebra, "product_rule", product_rule_in_verdict)
    monkeypatch.setattr(engine, "divergence", counted("gates", engine.divergence))
    op = parse_operator(TRIPLE)
    pieces = sum(term_plan_count(key[2]) for key, *_ in cli._operator_terms(op))
    assert pieces == 9
    assert cli._pairwise_equivalent(op) is True
    assert calls == {"verdict": pieces, "gates": pieces + 1, "product_rule": 0}


def test_enumerate_pieces_must_sum_to_whole(capsys, monkeypatch):
    # a bad first piece no longer sums to decompose(op) with the others
    _planted_pieces(monkeypatch, 0, 0)
    code, out, err = run(capsys, "enumerate", "--op", TRIPLE)
    assert code == 1 and out == ""
    assert err.startswith("error: internal check failed: ")
    assert err.count("\n") == 1


def _product_route(op) -> dict:
    """enumerate's documents by the product route: every plan decomposed
    whole and checked against the first."""
    plans = list(enumerate_plans(op))
    first, *rest = [decompose(op, plan) for plan in plans]
    verdict = all(forms_equivalent(first, form) for form in rest)
    document = {
        "count": len(plans),
        "ceiling": PLAN_CEILING,
        "plans": [
            [{"row": row, "col": col, "alpha": list(alpha),
              "path": [op.axes[k] for k in tp.path],
              "transfer": [op.axes[k] for k in tp.transfer],
              "exchanges": [[op.axes[k], op.axes[j]] for k, j in tp.exchanges]}
             for (row, col, alpha), tp in plan.items]
            for plan in plans
        ],
        "pairwise_equivalent": verdict,
    }
    return {
        "json": json.dumps(document, indent=2) + "\n",
        "latex": f"N(\\mathcal{{L}}) = {len(plans)}\n",
        "text": f"N = {len(plans)}\npairwise equivalent: {str(verdict).lower()}\n",
    }


def _seeded_nu_operator(seed: int) -> str:
    """Two terms with several plans each and coefficients in nu."""
    rng = random.Random(seed)
    alphas = set()
    while len(alphas) < 2:
        alpha = random_multiindex(rng, 3, 6)
        if term_plan_count(alpha) > 1:
            alphas.add(alpha)
    terms = {alpha: random_poly(rng) * Poly.var("nu") for alpha in sorted(alphas)}
    return format_operator(scalar_operator(("x", "y", "z"), terms))


@pytest.mark.parametrize("text", [
    TRIPLE,
    BIHARM,
    "axes x,y,z,w; Dx^3*Dy^3*Dz*Dw + Dx^2*Dy^2 + Dz^2",
    _seeded_nu_operator(11),
    STOKES_JSON,
    "axes x; Dx - Dx",
    {"axes": ["x", "y"], "fields": ["u", "v"],
     "entries": [["0", "0"], ["Dx - Dx", "0"]]},
], ids=["triple", "biharmonic", "N96", "seeded-nu", "stokes-file",
        "zero", "zero-matrix-file"])
def test_enumerate_matches_product_route(capsys, tmp_path, text):
    # a dict is matrix JSON, read through --op-file
    if isinstance(text, dict):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(text))
        source = ["--op-file", str(path)]
        op = parse_operator(json.dumps(text))
    else:
        source = ["--op", text]
        op = parse_operator(text)
    expected = _product_route(op)
    for fmt, document in expected.items():
        code, out, _ = run(capsys, "enumerate", *source, "--format", fmt)
        assert code == 0
        assert out == document, fmt


def test_enumerate_checks_families_above_limit_by_pieces(capsys):
    # two four-odd-axis terms: N = 24 * 24 = 576 members but 48 pieces
    code, out, _ = run(capsys, "enumerate", "--op",
                       "axes x,y,z,w; Dx*Dy*Dz*Dw + Dx^3*Dy*Dz*Dw",
                       "--format", "text")
    assert code == 0
    assert out == "N = 576\npairwise equivalent: true\n"


SIX_AXES = "axes a,b,c,d,e,f; Da*Db*Dc*Dd*De*Df"  # one term, N = 720


class _Discard:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _json_print_peak(text: str) -> int:
    """Peak traced memory, in bytes, while the enumerate JSON document of
    `text` is printed to a sink that discards it."""
    op = parse_operator(text)
    document = {"count": count_forms(op), "ceiling": PLAN_CEILING,
                "plans": [], "pairwise_equivalent": None}
    with contextlib.redirect_stdout(_Discard()):
        tracemalloc.start()
        try:
            cli._print_plans_json(op, document)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_enumerate_json_memory_does_not_grow_with_the_family():
    # one term, so nothing is held per member: doubling the family (N = 720
    # to 1440) may cost only the longer member text and plan of the larger
    # one, a few kB in all and well under 16 bytes per extra member;
    # holding the plans or their fragments costs about 1 kB per member.
    # The first calls fill the interpreter's free lists, which tracemalloc
    # counts as held, so each document is printed once first and the least
    # peak of three prints is kept.
    large = "axes a,b,c,d,e,f; Da^3*Db^3*Dc*Dd*De*Df"
    peaks = {}
    for text in (SIX_AXES, large):
        _json_print_peak(text)
        peaks[text] = min(_json_print_peak(text) for _ in range(3))
    assert peaks[large] - peaks[SIX_AXES] < 16 * (1440 - 720)


def module_env() -> dict:
    """The environment of a `python -m fundform` child process: this
    checkout's `src` first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _closed_stdout_run(argv, stdout, close):
    """Run fundform in a child process with a block-buffered stdout;
    `close` shuts the read end of that stdout.  Returns (exit code, stderr
    bytes)."""
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "fundform", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)
    close(proc)
    with proc.stderr:
        err = proc.stderr.read()
    return proc.wait(timeout=120), err


def test_closed_stdout_exits_1_without_traceback():
    # the document (over 300 kB) cannot fit in the pipe, so the writer
    # meets the read end closed after the first line
    def after_first_line(proc):
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()

    assert _closed_stdout_run(["enumerate", "--op", SIX_AXES, "--format", "json"],
                              subprocess.PIPE, after_first_line) == (1, b"")
    # a short document reaches the pipe only when stdout is flushed
    read, write = os.pipe()
    os.close(read)
    with open(write, "wb") as pipe:
        assert _closed_stdout_run(["count", "--op", "axes x,t; Dt^2 - Dx^2"],
                                  pipe, lambda proc: None) == (1, b"")


def test_enumerate_ceiling_fallback(capsys):
    # ten first-order axes: N = 10! = 3628800 plans, above the 10^6 ceiling
    axes = [f"x{k}" for k in range(10)]
    op = f"axes {','.join(axes)}; " + "*".join(f"D{a}" for a in axes)
    code, out, _ = run(capsys, "enumerate", "--op", op)
    document = json.loads(out)
    assert code == 0
    assert document["count"] == 3628800
    assert document["plans"] is None


def test_enumerate_json_past_the_item_limit_prints_the_count(capsys):
    # Da*...*Dh (N = 8! = 40,320) and the 248 one-plan terms D<axis>^k,
    # k = 2..32: about 10^7 plan items, which printed 3.9 GB in 12 s
    axes = "abcdefgh"
    op = (f"axes {','.join(axes)}; " + "*".join(f"D{a}" for a in axes)
          + "".join(f" + D{a}^{k}" for a in axes for k in range(2, 33)))
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--op", op)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "count": 40320, "ceiling": PLAN_CEILING, "plans": None,
        "pairwise_equivalent": None,
        "note": f"plan items (members x terms) exceed {cli.PLAN_ITEM_LIMIT}; "
                "count only"}
    # the text and latex formats print the count as before
    assert run(capsys, "enumerate", "--op", op, "--format", "text") == (
        0, "N = 40320\n", "")
    assert run(capsys, "enumerate", "--op", op, "--format", "latex") == (
        0, "N(\\mathcal{L}) = 40320\n", "")


def _six_axes_family(ones: int, axes=tuple("abcdef")) -> str:
    """Da*...*Df (720 plans) and `ones` one-plan terms D<axis>^k: a family
    of 720 members with 720 * (ones + 1) plan items."""
    terms = ["*".join(f"D{a}" for a in axes)]
    terms += [f"D{a}^{k}" for a in axes for k in range(2, 33)][:ones]
    return f"axes {','.join(axes)}; " + " + ".join(terms)


def test_enumerate_json_at_the_item_limit_prints_every_member(capsys):
    # 138 terms make 99,360 items, within the limit; 139 make 100,080
    assert 720 * 138 <= cli.PLAN_ITEM_LIMIT < 720 * 139
    code, out, err = run(capsys, "enumerate", "--op", _six_axes_family(137))
    assert (code, err) == (0, "")
    assert out.startswith('{\n  "count": 720,\n  "ceiling": 1000000,\n'
                          '  "plans": [\n    [\n      {\n')
    assert out.endswith('\n    ]\n  ],\n  "pairwise_equivalent": null\n}\n')
    assert out.count("\n    [\n") == 720
    assert out.count("\n      {\n") == 720 * 138
    code, out, err = run(capsys, "enumerate", "--op", _six_axes_family(138))
    assert (code, err) == (0, "")
    assert json.loads(out)["plans"] is None


def test_enumerate_json_item_limit_weighs_name_length(capsys):
    # names of 4-6 characters weigh twice as much per item as names of
    # 1-3, so the 138-term family that prints every member with names of
    # up to 3 characters prints its count with 4-character ones
    code, out, err = run(capsys, "enumerate", "--op",
                         _six_axes_family(137, tuple(a * 3 for a in "abcdef")))
    assert (code, err) == (0, "")
    assert out.count("\n    [\n") == 720
    assert out.count("\n      {\n") == 720 * 138
    op = _six_axes_family(137, tuple(a * 4 for a in "abcdef"))
    code, out, err = run(capsys, "enumerate", "--op", op)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "count": 720, "ceiling": PLAN_CEILING, "plans": None,
        "pairwise_equivalent": None,
        "note": f"plan items (members x terms) exceed "
                f"{cli.PLAN_ITEM_LIMIT // 2}; count only"}


def test_enumerate_json_long_names_print_the_count(capsys):
    # Da*...*Dg on 7 of 64 axes and 18 one-plan terms: 5,040 members and
    # 95,760 items, within the item limit, printed 422 MB with names of
    # 200 characters; it now prints its count
    axes = [f"n{k:02}" + "x" * 197 for k in range(64)]
    op = (f"axes {','.join(axes)}; " + "*".join(f"D{a}" for a in axes[:7])
          + "".join(f" + D{a}^2" for a in axes[7:25]))
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", "--op", op)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert 5040 * 19 <= cli.PLAN_ITEM_LIMIT
    assert json.loads(out) == {
        "count": 5040, "ceiling": PLAN_CEILING, "plans": None,
        "pairwise_equivalent": None,
        "note": f"plan items (members x terms) exceed "
                f"{cli.PLAN_ITEM_LIMIT // 67}; count only"}


# The enumerate anchors of the benchmark workload, with the sha256 of
# their JSON documents as printed before the item limit was added.
ENUMERATE_ANCHORS = [
    ("axes x,y,z,w; 1*Dz^4 + 1*Dx^3*Dy^3*Dz*Dw",
     "00190ff2a7a8161dc84386f8df50c78ceda69f3a4b0aa5f42e2f493848c79d11"),
    ("axes x,y,z,w; 1*Dz^2 + 1*Dx^2*Dy^2 + 1*Dx^3*Dy^3*Dz*Dw",
     "cb9918ba4018b086570c40af9e9717e176c0136daefac34654146f476a51af00"),
    ("axes x,y,z,w,v; 1*Dx^3*Dy*Dz*Dw*Dv",
     "04f789a7f1c3f20a218a12576def01ed2989c7d97eb11957296bf5326961cb77"),
]


@pytest.mark.parametrize("text,digest", ENUMERATE_ANCHORS,
                         ids=["N48", "N96", "N120"])
def test_enumerate_anchor_documents_pinned(capsys, text, digest):
    code, out, err = run(capsys, "enumerate", "--op", text, "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def paired_axes(factors: int) -> str:
    """(Da+Db)*(Dc+Dd)*... with `factors` factors over 2*factors axes,
    lettered from a and skipping i (the imaginary unit, never a name)."""
    axes = [c for c in map(chr, range(ord("a"), ord("z") + 1)) if c != "i"][:2 * factors]
    return (f"axes {','.join(axes)}; "
            + "*".join(f"(D{axes[2 * k]}+D{axes[2 * k + 1]})"
                       for k in range(factors)))


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_form_count_digit_limit(capsys, command):
    # nine factors: N has 2,847 digits and prints; ten: 6,718 digits, refused
    total = count_forms(parse_operator(paired_axes(9)))
    code, out, _ = run(capsys, command, "--op", paired_axes(9), "--format", "text")
    assert code == 0 and out.split()[:3] == ["N", "=", str(total)]
    assert len(str(total)) == 2847
    code, out, err = run(capsys, command, "--op", paired_axes(10))
    assert out == "" and refused(code, err, f"more than {cli.MAX_COUNT_DIGITS} digits")


def test_constraint_document(capsys):
    code, out, _ = run(capsys, "constraint", "--op", TRIPLE,
                       "--spectral-names", "s1,s2,s0")
    document = json.loads(out)
    assert code == 0
    assert document["poly"] == "-s0^2 - s0^2*s1^2*s2^2 + s1^2*s2^2"
    assert any(entry["name"] == "s0" for entry in document["solved"])


def test_global_relation_document(capsys):
    code, out, _ = run(capsys, "global-relation", "--op", "axes x,t; Dt^2 - Dx^2",
                       "--spectral-names", "k", "--sigma", "k,-k",
                       "--box", "x=0..l,t=0..T")
    document = json.loads(out)
    assert code == 0
    assert document["box"] == [
        {"axis": "x", "lo": "0", "hi": "l"},
        {"axis": "t", "lo": "0", "hi": "T"},
    ]
    assert len(document["terms"]) == 8
    sample = document["terms"][0]
    assert set(sample) == {"axis", "end", "sign", "coeff", "weight", "trace"}


@pytest.mark.parametrize("argv", [
    ("--sigma", "1"),
    ("--sigma", "1,2,3,4"),
    ("--spectral-names", "a,b"),
])
def test_global_relation_miscount_refused_before_decomposing(capsys, monkeypatch,
                                                             argv):
    def no_decompose(*args):
        raise AssertionError("decompose ran before the count was checked")

    monkeypatch.setattr(cli, "decompose", no_decompose)
    code, out, err = run(capsys, "global-relation", "--op",
                         "axes x,y,z; (Dx+Dy+Dz)^24", *argv)
    assert (code, out) == (2, "")
    assert err == "error: one spectral value per axis required\n"


def test_represent_document(capsys):
    code, out, _ = run(capsys, "represent", "--op", "axes x,y; Dx^2 + Dy^2")
    document = json.loads(out)
    assert code == 0
    assert document["prefactor"] == {"sign": -1, "two_pi_power": -2}
    assert document["denominator"] == "-k1^2 - k2^2"


def test_verify_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--case", "wave", "--format", "text")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify", "--case", "wave",
                       "--solution", "x^4", "--format", "text")
    assert code == 1 and "FAIL" in out


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-8"])
def test_verify_bad_tolerance_exits_2(capsys, tol):
    code, _, err = run(capsys, "verify", "--case", "wave", f"--tol={tol}")
    assert refused(code, err, "tolerance must be a finite positive number")


def test_verify_node_limit(capsys):
    code, _, err = run(capsys, "verify", "--case", "stokes",
                       "--nodes", str(MAX_NODES + 1))
    assert refused(code, err, f"at most {MAX_NODES} nodes")
    code, out, _ = run(capsys, "verify", "--case", "stokes",
                       "--nodes", str(MAX_NODES), "--format", "text")
    assert code == 0 and "pass" in out


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "decompose", "--op", "axes x; Dq^2")
    assert code == 2
    assert "unknown axis" in err


def test_division_after_any_factor(capsys):
    code, out, _ = run(capsys, "decompose", "--op",
                       "params nu; axes x,t; nu/3*Dx^2 - Dt", "--format", "text")
    assert code == 0
    assert out == run(capsys, "decompose", "--op",
                      "params nu; axes x,t; (1/3)*nu*Dx^2 - Dt", "--format", "text")[1]
    code, _, err = run(capsys, "decompose", "--op", "axes x; Dx/0")
    assert refused(code, err, "nonzero integer denominator")


def test_missing_operator_exits_2(capsys):
    code, _, err = run(capsys, "count")
    assert code == 2
    assert "operator is required" in err


def test_unknown_case_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--case", "plate")
    assert code == 2


DEEP = "(" * 3000 + "{}" + ")" * 3000


@pytest.mark.parametrize("argv", [
    ("decompose", "--op", "axes x,t; " + DEEP.format("Dx")),
    ("global-relation", "--op", "axes x,t; Dt^2 - Dx^2", "--spectral-names", "k",
     "--sigma", DEEP.format("k") + ",-k"),
    ("verify", "--case", "wave", "--solution", DEEP.format("x")),
    ("decompose", "--op", '{"axes": ' + "[" * 100000),
])
def test_deep_nesting_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "nested deeper" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def refused(code: int, err: str, reason: str) -> bool:
    return (code == 2 and err.startswith("error: ") and reason in err
            and err.count("\n") == 1 and "Traceback" not in err)


LONG = "9" * 5000  # more digits than the interpreter converts to an int
WAVE_SIGMA = ("global-relation", "--op", "axes x,t; Dt^2 - Dx^2",
              "--spectral-names", "k", "--sigma")


@pytest.mark.parametrize("argv,column", [
    (("decompose", "--op", f"axes x; {LONG}*Dx"), 9),
    (("decompose", "--op", f"axes x; Dx^{LONG}"), 12),
    (("decompose", "--op", f"axes x; Dx/{LONG}"), 12),
    (WAVE_SIGMA + (f"{LONG}*k,-k",), 1),
    (WAVE_SIGMA + (f"k^{LONG},-k",), 3),
    (WAVE_SIGMA + (f"k/{LONG},-k",), 3),
    (("verify", "--case", "wave", "--solution", f"{LONG}*x"), 1),
    (("verify", "--case", "wave", "--solution", f"x^{LONG}"), 3),
    (("verify", "--case", "wave", "--solution", f"x/{LONG}"), 2),
], ids=[f"{text}-{place}" for text in ("operator", "sigma", "solution")
        for place in ("literal", "exponent", "denominator")])
def test_long_integers_refused_with_a_position(capsys, argv, column):
    code, _, err = run(capsys, *argv)
    assert refused(code, err, f"(line 1, column {column})"), err[:200]


@pytest.mark.parametrize("solution", ["exp(x^2)", "sin(x*t)"])
def test_non_affine_solution_exits_2(capsys, solution):
    code, _, err = run(capsys, "verify", "--case", "wave", "--solution", solution)
    assert refused(code, err, "affine")


def test_solution_expansion_limit_exits_2(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", "--case", "wave",
                       "--solution", "(x+t+x*t)^400")
    assert time.perf_counter() - start < 1.0
    assert refused(code, err, f"limit of {MAX_TERMS} terms")


@pytest.mark.parametrize("op", ["axes x,y; (Dx+Dy)^400",
                                "axes x,y; (Dx+Dy)^20*(Dx+Dy)^20"])
def test_operator_order_limit_exits_2(capsys, op):
    code, _, err = run(capsys, "count", "--op", op)
    assert refused(code, err, f"order limit of {MAX_ORDER}")


@pytest.mark.parametrize("op,message", [
    # a single term whose coefficient has several monomials keeps the
    # per-step term budget; each power would otherwise grow unchecked
    ("params nu,mu; axes x; ((nu+mu+1)*Dx)^30",
     f"operator expands beyond the limit of {MAX_TERMS} terms (line 1, column 38)"),
    ("params a,b,c,d; axes x; ((a+b+c+d+1)*Dx)^20",
     f"operator expands beyond the limit of {MAX_TERMS} terms (line 1, column 42)"),
    # a single term of one monomial is raised in one step, after the
    # order bound
    ("axes x,y; (Dx*Dy)^17",
     f"operator exceeds the order limit of {MAX_ORDER} (line 1, column 19)"),
], ids=["two-params", "four-params", "one-monomial"])
def test_single_term_power_refused_at_once(capsys, op, message):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--op", op)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_single_term_power_at_the_order_limit_accepted(capsys):
    code, out, _ = run(capsys, "count", "--op", "axes x,y; (Dx*Dy)^16")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert [t["alpha"] for t in terms] == [[16, 16]]


def test_operator_term_limit_exits_2(capsys):
    code, _, err = run(capsys, "count", "--op", "axes x,y,z,w; (Dx+Dy+Dz+Dw)^30")
    assert refused(code, err, f"limit of {MAX_TERMS} terms")


# each power is inside the limit, the sum of all eight (1,176 terms) is not
CUBE_POWERS = " + ".join(f"(Dx+Dy+Dz)^{k}" for k in range(12, 20))


@pytest.mark.parametrize("op", [
    "axes x,y,z; " + CUBE_POWERS,
    json.dumps({"axes": ["x", "y", "z"], "fields": ["u"], "entries": [[CUBE_POWERS]]}),
], ids=["scalar", "matrix-entry"])
def test_operator_sum_term_limit_exits_2(capsys, op):
    code, _, err = run(capsys, "count", "--op", op)
    assert refused(code, err, f"limit of {MAX_TERMS} terms")


def test_solution_sum_term_limit_exits_2(capsys):
    solution = "+".join(f"x^{k}*t^{j}" for k in range(40) for j in range(30))
    code, _, err = run(capsys, "verify", "--case", "wave", "--solution", solution)
    assert refused(code, err, f"limit of {MAX_TERMS} terms")


@pytest.mark.parametrize("solution", ["2^100000", "exp(1000)", "9" * 400],
                         ids=["power", "exp", "digits"])
def test_overflowing_solution_exits_2(capsys, solution):
    code, _, err = run(capsys, "verify", "--case", "wave", "--solution", solution)
    assert refused(code, err, "overflow")


@pytest.mark.filterwarnings("error")
def test_overflowing_evaluation_exits_2(capsys):
    # finite coefficients, but exp(800*x) overflows on the unit box
    code, _, err = run(capsys, "verify", "--case", "wave",
                       "--solution", "exp(800*x)")
    assert refused(code, err, "overflows the float range")


@pytest.mark.filterwarnings("error")
def test_overflowing_derivative_exits_2(capsys):
    # exp(1e160 i x) is finite on the box; its second x derivative is not
    code, _, err = run(capsys, "verify", "--case", "heat",
                       "--solution", f"exp(1{'0' * 160}i*x)")
    assert refused(code, err, "overflows the float range")
    assert err == "error: solution overflows the float range at interior points\n"


def test_engine_fault_exits_1(capsys, monkeypatch):
    engine = importlib.import_module("fundform.decompose")
    # the product-rule oracle doubles every term: the first rewrite step fails
    monkeypatch.setattr(engine, "product_rule",
                        lambda expr, k: [(key, coeff * 2)
                                         for key, coeff in product_rule(expr, k)])
    code, out, err = run(capsys, "decompose", "--op", "axes x,t; Dt^2 - Dx^2")
    assert code == 1 and out == ""
    assert err.startswith("error: internal check failed: ")
    assert err.count("\n") == 1


def test_bad_box_exits_2(capsys):
    code, _, err = run(capsys, "global-relation", "--op", "axes x,t; Dt^2 - Dx^2",
                       "--box", "x=0..l")
    assert code == 2
    assert "box" in err


def global_relation_run(capsys, box: str):
    return run(capsys, "global-relation", "--op", "axes x,t; Dt^2 - Dx^2",
               "--box", box)


@pytest.mark.parametrize("endpoint", ["1/0", "-1/0", "1e5000", "0.5", "1_0"])
def test_box_endpoint_refused_with_its_text(capsys, endpoint):
    # an endpoint that is not a name is a constant expr, read as --sigma is
    code, out, err = global_relation_run(capsys, f"x=0..{endpoint},t=0..1")
    assert refused(code, err, f"box endpoint {endpoint!r}: ") and out == "", err


@pytest.mark.parametrize("argv,message", [
    (("global-relation", "--op", WAVE, "--sigma", "s1,s2+)"),
     "sigma entry 's2+)': expected a coefficient, name or '(', found ')' "
     "(line 1, column 4)"),
    (("global-relation", "--op", WAVE, "--sigma", "1,"),
     "sigma entry '': expected a coefficient, name or '(', found "
     "'end of input' (line 1, column 1)"),
    (("global-relation", "--op", WAVE, "--sigma", "Dx,1"),
     "sigma entry 'Dx': unknown name 'Dx' (line 1, column 1)"),
    (("global-relation", "--op", WAVE, "--box", "x=0..,t=0..1"),
     "box endpoint '': expected a coefficient, name or '(', found "
     "'end of input' (line 1, column 1)"),
    (("decompose", "--op", "axes x; 2*"),
     "expected a coefficient, D<axis> factor or '(', found 'end of input' "
     "(line 1, column 11)"),
], ids=["sigma-syntax", "sigma-empty-entry", "sigma-derivative", "box-empty",
        "operator-words"])
def test_sigma_and_endpoint_errors_pinned(capsys, argv, message):
    # a --sigma entry is named like a box endpoint, its column counted in
    # the entry; text read without axes never mentions D<axis> factors,
    # while operator text keeps them
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


LONG_NAME = "a" * 5000
# 64 distinct names of 63 characters, declared as both params and axes
MANY_NAMES = ",".join(f"n{k:02d}" + "a" * 60 for k in range(64))


@pytest.mark.parametrize("argv,position", [
    (("global-relation", "--op", WAVE, "--sigma", "(" * 3000),
     "(line 1, column 101)"),
    (("decompose", "--op", f"axes x; Dx + {LONG_NAME}"), "(line 1, column 14)"),
    (("decompose", "--op", WAVE, "--path", LONG_NAME), None),
    (("global-relation", "--op", WAVE, "--box", LONG_NAME), None),
    (("verify", "--case", LONG_NAME), None),
    (("verify", "--case", "heat", "--solution", LONG_NAME),
     "(line 1, column 1)"),
    (("decompose", "--op", f"axes {LONG_NAME},y; D{LONG_NAME}", "--path", "b"), None),
    (("global-relation", "--op", f"axes {LONG_NAME},y; D{LONG_NAME}",
      "--box", "y=0..1"), None),
    (("count", "--op", f"params {LONG_NAME}; axes {LONG_NAME}; D{LONG_NAME}"),
     "(line 1, column 5010)"),
    (("count", "--op", json.dumps({"axes": [LONG_NAME], "params": [LONG_NAME],
                                   "fields": ["u"], "entries": [["0"]]})), None),
    (("constraint", "--op", f"axes {LONG_NAME}; D{LONG_NAME}",
      "--spectral-names", LONG_NAME), None),
    (("count", "--op-file", LONG_NAME), None),
    (("count", "--op", f"params {MANY_NAMES}; axes {MANY_NAMES}; Dn00" + "a" * 60),
     "(line 1, column 4105)"),
], ids=["sigma", "op", "path", "box", "case", "solution", "axes", "box-axes",
        "header-clash", "matrix-clash", "spectral-clash", "op-file", "many-names"])
def test_long_text_errors_quote_a_bounded_prefix(capsys, argv, position):
    # an error quotes at most the first 40 characters of a text or of each
    # name in a list (100 of a file path) and its length, prints a list's
    # first names only, and keeps the position of the error in the text
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith("\n") and err.count("\n") == 1
    assert len(err.encode()) < 200
    assert any(f"... ({n} characters)" in err for n in (3000, 5000, 63))
    if position is not None:
        assert position in err


def test_quoted_cuts_only_a_text_past_the_limit():
    text = "a" * QUOTE_LIMIT
    assert quoted(text) == repr(text)
    assert quoted(text + "b") == f"{text!r}... ({QUOTE_LIMIT + 1} characters)"


def test_quoted_names_prints_a_bounded_prefix():
    # a short list prints as its repr; a longer one keeps its first eight
    # names, or fewer where they would pass 80 characters, the first
    # always, and then its length
    names = [f"x{k}" for k in range(9)]
    assert quoted_names(names[:8]) == repr(names[:8])
    assert quoted_names(("x",)) == "('x',)" and quoted_names((1, 2)) == "(1, 2)"
    assert quoted_names(names) == repr(names[:8])[:-1] + ", ... (9 names)]"
    assert quoted_names(tuple(names)) == repr(tuple(names[:8]))[:-1] + ", ... (9 names))"
    wide = ["w" * 30, "v" * 30, "u" * 30]
    assert quoted_names(wide) == f"['{wide[0]}', '{wide[1]}', ... (3 names)]"
    long = ["a" * 100, "b" * 100]
    assert quoted_names(long) == f"[{quoted(long[0])}, ... (2 names)]"


def test_box_endpoint_with_a_huge_exponent_exits_at_once():
    proc = subprocess.run(
        [sys.executable, "-m", "fundform", "global-relation", "--op",
         "axes x,t; Dt - Dx^2", "--box", "x=0..1e100000000,t=0..1"],
        env=module_env(), capture_output=True, text=True, timeout=20)
    assert refused(proc.returncode, proc.stderr, "box endpoint '1e100000000'")


@pytest.mark.parametrize("box,ends,weights", [
    ("x=0..l,t=0..T", ["0", "l", "0", "T"],
     ["i*l*s1", "i*l*s1", "0", "0", "i*T*s2", "i*T*s2", "0", "0"]),
    ("x=-1/2..3,t=0..i", ["-1/2", "3", "0", "i"],
     ["3i*s1", "3i*s1", "-1/2i*s1", "-1/2i*s1", "-s2", "-s2", "0", "0"]),
    ("x= 2/4 ..+7,t=0..1", ["1/2", "7", "0", "1"],
     ["7i*s1", "7i*s1", "1/2i*s1", "1/2i*s1", "i*s2", "i*s2", "0", "0"]),
], ids=["names", "rational-and-i", "spaced-and-signed"])
def test_box_endpoint_documents_pinned(capsys, box, ends, weights):
    # a bare name stays a name; the rest, a bare `i` included, are constants
    code, out, _ = global_relation_run(capsys, box)
    document = json.loads(out)
    assert code == 0
    assert [end for span in document["box"] for end in (span["lo"], span["hi"])] == ends
    assert [record["weight"] for record in document["terms"]] == weights


@pytest.mark.parametrize("endpoint,text", [("2^3", "8"), ("2*i", "2i"),
                                           ("(1+i)/2", "(1/2+1/2i)"), ("i", "i"),
                                           ("2i", "2i"), ("-1/2i", "-1/2i"),
                                           ("(3/37-18/37i)", "(3/37-18/37i)")])
def test_box_endpoint_is_a_constant_expr(capsys, endpoint, text):
    code, out, _ = global_relation_run(capsys, f"x=0..{endpoint},t=0..1")
    assert code == 0 and json.loads(out)["box"][0]["hi"] == text


@pytest.mark.parametrize("argv,err", [
    (("decompose", "--op", "params i; axes x; i*Dx"),
     "expected parameter name other than 'i' (line 1, column 8)"),
    (("decompose", "--op", "axes i,t; i*Di - Dt"),
     "expected axis name other than 'i' (line 1, column 6)"),
    (("decompose", "--op", json.dumps({"axes": ["x"], "params": ["i"], "fields": ["u"],
                                       "entries": [["Dx"]]})),
     "matrix operator 'params' must be a list of parameter names other than 'i'"),
    (("decompose", "--op", json.dumps({"axes": ["x"], "fields": ["i"],
                                       "entries": [["Dx"]]})),
     "matrix operator 'fields' must be a non-empty list of field names other than 'i'"),
    (("constraint", "--op", "axes x,t; Dt - Dx^2", "--spectral-names", "i,j"),
     "expected spectral name other than 'i' (line 1, column 1)"),
    (("decompose", "--op", "axes x; Dx^2/2i"),
     "expected nonzero integer denominator (line 1, column 14)"),
], ids=["header-param", "header-axis", "json-param", "json-field", "spectral-names",
        "suffixed-divisor"])
def test_i_is_the_unit_never_a_name_pinned(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_box_naming_an_axis_twice_exits_2(capsys):
    code, out, err = global_relation_run(capsys, "x=0..1,x=0..2,t=0..1")
    assert refused(code, err, "box names axis 'x' twice") and out == ""


@pytest.mark.parametrize("command,what", [
    ("constraint", "constraint varieties"),
    ("represent", "integral representations"),
])
def test_matrix_refusals_of_scalar_only_commands_pinned(capsys, command, what):
    code, out, err = run(capsys, command, "--op", json.dumps(STOKES_JSON))
    assert (code, out, err) == (
        2, "", f"error: {what} are emitted for scalar operators\n")


@pytest.mark.parametrize("argv", [
    ("constraint", "--op", "axes x,t; Dt - Dx^2", "--spectral-names", "a,b,c"),
    ("global-relation", "--op", "axes x,t; Dt - Dx^2", "--spectral-names", "k",
     "--sigma", "k"),
    ("global-relation", "--op", "axes x,t; Dt - Dx^2", "--spectral-names", "k"),
], ids=["constraint-names", "sigma-entries", "relation-names"])
def test_per_axis_counts_refused_by_the_engine(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: one spectral value per axis required\n")


@pytest.mark.parametrize("change,reason", [
    ({"entries": [[1]]}, "1x1 list of lists of operator texts"),
    ({"entries": 5}, "1x1 list of lists of operator texts"),
    ({"entries": [5]}, "1x1 list of lists of operator texts"),
    ({"entries": [["Dx", "0"]]}, "1x1 list of lists of operator texts"),
    ({"fields": 3}, "'fields' must be a non-empty list of field names"),
    ({"fields": [], "entries": []}, "'fields' must be a non-empty list of field names"),
    ({"params": 5}, "'params' must be a list of parameter names"),
    ({"params": None}, "'params' must be a list of parameter names"),
    ({"axes": None}, "'axes' must be a non-empty list of axis names"),
    ({"axes": [], "entries": [["1"]]}, "'axes' must be a non-empty list of axis names"),
    ({"axes": ["x y"]}, "'axes' must be a non-empty list of axis names"),
    ({"axes": ["x", "x"]}, "duplicate axis name 'x' in matrix operator 'axes'"),
    ({"fields": ["u", "u"], "entries": [["Dx", "0"], ["0", "Dx"]]},
     "duplicate field name 'u'"),
    ({"params": ["x"]}, "name declared as both axis and parameter: ['x']"),
], ids=["entry-int", "entries-int", "row-int", "row-too-long", "fields-int",
        "no-fields", "params-int", "params-null", "axes-null", "no-axes",
        "axis-not-identifier",
        "repeated-axis", "repeated-field", "axis-and-parameter"])
def test_malformed_matrix_json_exits_2(capsys, change, reason):
    op = json.dumps({"axes": ["x"], "fields": ["u"], "entries": [["Dx"]], **change})
    code, _, err = run(capsys, "decompose", "--op", op)
    assert refused(code, err, reason), err


def cube_grid(m: int, entry: str = "(Dx+Dy+Dz)^12") -> str:
    """An m x m matrix operator with every entry `entry` (91 terms)."""
    return json.dumps({"axes": ["x", "y", "z"],
                       "fields": [f"f{i}" for i in range(m)],
                       "entries": [[entry] * m for _ in range(m)]})


@pytest.mark.parametrize("command", ["decompose", "count"])
@pytest.mark.parametrize("op,reason", [
    (cube_grid(12), f"limit of {MAX_TERMS} terms in all"),
    (cube_grid(4), f"limit of {MAX_TERMS} terms in all"),
    (cube_grid(33, "0"), f"more than {MAX_TERMS} entries"),
], ids=["12x12", "4x4", "33x33-zeros"])
def test_matrix_term_budget_exits_2(capsys, command, op, reason):
    code, _, err = run(capsys, command, "--op", op)
    assert refused(code, err, reason), err


@pytest.mark.parametrize("op", [cube_grid(3), cube_grid(32, "0")],
                         ids=["3x3", "32x32-zeros"])
def test_matrix_within_term_budget_is_read(capsys, op):
    code, out, err = run(capsys, "count", "--op", op, "--format", "text")
    assert (code, err) == (0, "") and out.startswith("N = ")


@pytest.mark.parametrize("name,reason", [("missing", "No such file"),
                                         (".", "Is a directory")])
def test_unreadable_op_file_exits_2(tmp_path, capsys, name, reason):
    path = tmp_path / name
    code, out, err = run(capsys, "decompose", "--op-file", str(path))
    assert refused(code, err, f"cannot read --op-file {str(path)!r}: {reason}")
    assert out == ""


def test_empty_op_is_given_operator_text(tmp_path, capsys):
    # an empty --op is read (and refused) as operator text, and an empty
    # --op-file as a file name; with the other option either one is a
    # source too many
    code, out, err = run(capsys, "count", "--op", "")
    assert refused(code, err, "expected 'axes' declaration (line 1, column 1)")
    assert out == ""
    code, out, err = run(capsys, "count", "--op-file", "")
    assert refused(code, err, "cannot read --op-file '': No such file")
    assert out == ""
    path = tmp_path / "op.txt"
    path.write_text("axes x; Dx", encoding="utf-8")
    for argv in (["--op", "", "--op-file", str(path)],
                 ["--op-file", "", "--op", WAVE]):
        code, out, err = run(capsys, "count", *argv)
        assert refused(code, err, "give either --op or --op-file, not both")
        assert out == ""


@pytest.mark.parametrize("argv,message", [
    (("verify", "--case", "heat", "--solution", ""),
     "unexpected token 'end of input' (line 1, column 1)"),
    (("global-relation", "--op", WAVE, "--sigma", ""),
     "sigma entry '': expected a coefficient, name or '(', found "
     "'end of input' (line 1, column 1)"),
    (("constraint", "--op", WAVE, "--spectral-names", ""),
     "expected spectral name other than 'i' (line 1, column 1)"),
], ids=["solution", "sigma", "spectral-names"])
def test_empty_option_value_is_read_and_refused_pinned(capsys, argv, message):
    # an empty --solution, --sigma or --spectral-names is text all the
    # same: its reader refuses it, in place of the catalog solution or the
    # default names
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def wide_header(n: int) -> str:
    return f"axes {','.join(f'a{k}' for k in range(n))}; Da0*Da{n - 1}"


def wide_matrix(n: int) -> str:
    return json.dumps({"axes": [f"a{k}" for k in range(n)], "fields": ["u"],
                       "entries": [[f"Da0*Da{n - 1}"]]})


@pytest.mark.parametrize("wide", [wide_header, wide_matrix], ids=["header", "matrix"])
def test_axis_limit(capsys, wide):
    code, out, err = run(capsys, "count", "--op", wide(MAX_AXES), "--format", "text")
    assert (code, err) == (0, "") and out.startswith("N = 2\n")
    code, out, err = run(capsys, "count", "--op", wide(MAX_AXES + 1))
    assert refused(code, err, f"more than {MAX_AXES} axes") and out == "", err


def test_op_file_and_matrix(tmp_path, capsys):
    path = tmp_path / "stokes.json"
    path.write_text(json.dumps(STOKES_JSON))
    code, out, _ = run(capsys, "decompose", "--op-file", str(path))
    document = json.loads(out)
    assert code == 0
    assert document["verified"] is True
    assert [flux["axis"] for flux in document["fluxes"]] == ["x", "y", "z", "t"]


def test_stokes_pipeline(capsys):
    code, out, _ = run(capsys, "stokes")
    document = json.loads(out)
    assert code == 0
    assert all(document["checks"].values())
    assert document["spinor"]["k"] == ["xi1^2 - xi2^2", "i*xi1^2 + i*xi2^2",
                                       "-2*xi1*xi2"]


def test_repeated_runs_byte_identical(capsys):
    _, first, _ = run(capsys, "decompose", "--op", TRIPLE)
    _, second, _ = run(capsys, "decompose", "--op", TRIPLE)
    assert first == second


def test_seed_is_a_verify_option_only(capsys):
    code, out, _ = run(capsys, "verify", "--case", "heat", "--seed", "3",
                       "--format", "text")
    assert code == 0 and "pass" in out
    with pytest.raises(SystemExit) as exc:
        run(capsys, "decompose", "--op", TRIPLE, "--seed", "3")
    assert exc.value.code == 2


HEAT_NU = "params nu; axes x,t; nu*Dx^2 - Dt"


@pytest.mark.parametrize("argv,reason", [
    (("constraint", "--op", HEAT_NU, "--spectral-names", "nu,s"), "collide"),
    (("constraint", "--op", HEAT_NU, "--spectral-names", "s,s"), "duplicate spectral name"),
    (("constraint", "--op", HEAT_NU, "--spectral-names", "a, "), "expected spectral name"),
    (("constraint", "--op", HEAT_NU, "--spectral-names", "x,s"), "collide"),
    (("global-relation", "--op", "axes x,t; Dt^2 - Dx^2", "--spectral-names", "k",
      "--sigma", "k,-k", "--box", "x=0..l,t=0..k"), "collide"),
    (("global-relation", "--op", "axes x,t; Dt^2 - Dx^2",
      "--box", "x=0..l,t=0..s2"), "collide"),
], ids=["parameter", "repeated", "empty", "axis", "box-endpoint", "default-name"])
def test_bad_spectral_names_exit_2(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert refused(code, err, reason) and out == ""


def test_spectral_names_take_the_header_list(capsys):
    code, out, _ = run(capsys, "constraint", "--op", HEAT_NU,
                       "--spectral-names", " a , b", "--format", "text")
    assert code == 0 and out == "-a^2*nu + i*b = 0\n"


# ---------------------------------------------------------------------------
# main reads a well-formed call from the option table, and any other call
# with the full parser; both routes give the same outcome

PARSER_ARGV = [
    [], ["--help"], ["nosuch"], ["-h", "count"], ["count", "--op", WAVE, "extra"],
    ["verify"], ["verify", "--nodes", "x", "--case", "heat"],
    ["global-relation", "--op", WAVE, "--exp-sign", "2"],
    ["decompose", "--op", WAVE], ["count", "--op", WAVE, "--format", "text"],
    ["enumerate", "--op", WAVE], ["constraint", "--op", WAVE],
    ["global-relation", "--op", WAVE, "--box", "x=0..1,t=0..1"],
    ["represent", "--op", WAVE, "--format", "latex"],
    ["verify", "--case", "heat", "--nodes", "3"], ["stokes", "--format", "text"],
    # every option of every subcommand, read from the option table
    ["decompose", "--op", "axes x,y; Dx^2*Dy^2 + Dx^2 + Dy^2", "--path", "y",
     "--path", "x", "--path", "y,x", "--transfer", "", "--exchange", "",
     "--format", "text"],
    ["count", "--op-file", "", "--op", WAVE, "--format", "latex"],
    ["count", "--op-file", ""], ["count", "--op-file", "", "--op", WAVE],
    ["represent", "--op", "", "--op", WAVE, "--format", "text"],
    ["constraint", "--op", WAVE, "--spectral-names", "a,b", "--format", "text"],
    ["global-relation", "--op", WAVE, "--spectral-names", "k,w", "--sigma", "k,k",
     "--box", "x=0..1,t=0..1", "--exp-sign", "1", "--format", "text"],
    ["verify", "--case", "wave", "--nodes", "3", "--tol", "0.5", "--seed", "1",
     "--solution", "(x-t)^3", "--format", "text"],
    ["verify", "--case", "heat", "--nodes", " 7", "--format", "text"],
    ["verify", "--case", "heat", "--case", "wave", "--nodes", "3"],
    # an empty value is a value
    ["verify", "--case", "heat", "--solution", ""],
    ["global-relation", "--op", WAVE, "--sigma", ""],
    ["constraint", "--op", WAVE, "--spectral-names", ""],
    # spellings the table leaves to argparse
    ["global-relation", "--op", WAVE, "--exp-sign", "-1", "--format", "text"],
    ["count", "--form", "text", "--op", WAVE], ["count", f"--op={WAVE}"],
    ["represent", "--op", "-Dx"],
] + [[name, *tail] for name in cli.COMMANDS
     for tail in (["--help"], ["--bogus"], ["--format", "xml"])]


def outcome(capsys, call) -> tuple:
    try:
        result = call()
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_ARGV, ids=" ".join)
def test_narrowed_parser_matches_the_full_one(capsys, monkeypatch, argv):
    # the narrowed parser is the option-table reader: main with it gives
    # what main gives when every call goes to the full argparse parser
    table = outcome(capsys, lambda: main(argv))
    monkeypatch.setattr(cli, "_read_call", lambda argv: None)
    assert table == outcome(capsys, lambda: main(argv))


# Help, usage and error texts at 40 and 200 columns, captured with Python
# 3.10-3.12 (all 16 match on 3.10.13, 3.11.7 and 3.12.1).  Python 3.13 is
# skipped, and CI leaves it out: its argparse texts change between patch
# releases (4 of the 16 differ on 3.13.0, 7 on 3.13.13, where invalid-choice
# messages drop their quotes), so a 3.13 golden file would fail on whichever
# patch release is installed.
CLI_TEXTS = json.loads(
    (Path(__file__).parent / "golden" / "cli_texts.json").read_text())


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse of Python 3.13 wraps usage differently")
@pytest.mark.parametrize("record", CLI_TEXTS, ids=lambda record: (
    f"{record['columns']}: {' '.join(record['argv']) or '(no arguments)'}"))
def test_help_usage_and_error_texts_pinned(capsys, monkeypatch, record):
    monkeypatch.setenv("COLUMNS", str(record["columns"]))
    assert outcome(capsys, lambda: main(record["argv"])) == (
        ("exit", record["exit"]), record["stdout"], record["stderr"])


def test_a_call_builds_no_parser_or_the_full_one(capsys, monkeypatch):
    # a well-formed call is read from the option table and builds no
    # parser; any other call builds the full parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert main(["count", "--op", WAVE, "--format", "text"]) == 0
    assert built == []
    full = ["fundform", *(f"fundform {name}" for name in cli.COMMANDS)]
    for argv, code in ((["count", "--op", WAVE, "extra"], 2), (["--help"], 0)):
        built.clear()
        assert outcome(capsys, lambda: main(argv))[0] == ("exit", code)
        assert built == full


def registered(parser: argparse.ArgumentParser) -> list:
    sub, = (action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction))
    return list(sub.choices)


def test_build_parser_registers_every_command():
    assert registered(cli.build_parser()) == list(cli.COMMANDS)
    assert len(cli.COMMANDS) == 8


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["fundform", "count", "--op", WAVE,
                                      "--format", "text"])
    assert main() == 0
    assert capsys.readouterr().out.splitlines()[0] == "N = 1"
    monkeypatch.setattr(sys, "argv", ["fundform", "nosuch"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Console calls, one row each: argv, exit code, and one check of what the
# call printed (stderr when it exits 2, and then stdout is empty; stdout
# otherwise): ("line", text) is a line it prints, ("prefix", text) the
# start of its first line, ("same", label) the stdout of another row.  A
# bounded row runs in a child process that must exit within 20 s, so that
# a refusal that stops being prompt fails instead of hanging the suite.

class Console(NamedTuple):
    argv: list
    code: int
    check: tuple
    env: dict | None = None
    bounded: bool = False


AXES_64 = "axes " + ",".join(f"a{k}" for k in range(64))
PATHS = ["decompose", "--op", "axes x,y; Dx^2*Dy^2 + Dx^2 + Dy^2", "--path", "y",
         "--path", "x", "--format", "text", "--path"]
VERIFY_WAVE = ["verify", "--case", "wave", "--format", "text", "--solution"]

CONSOLE_CASES = {
    "count-format": Console(["count", "--format", "text", "--op", WAVE], 0,
                            ("line", "N = 1")),
    "count-form-abbreviated": Console(["count", "--form", "text", "--op", WAVE], 0,
                                      ("same", "count-format")),
    "verify-heat-nodes=8": Console(
        ["verify", "--case", "heat", "--nodes=8", "--format", "text"], 0,
        ("prefix", "case heat: relative residual ")),
    # a power of zero whose base overflowed reads as 1
    "solution-overflowed-base": Console(
        VERIFY_WAVE + ["(2^2000)^0 + (x-t)^3 - sin(x+t) + cos(2*x-2*t)"], 0,
        ("prefix", "case wave: relative residual ")),
    # three tops, one of them with three slopes, each shifted as one group
    "solution-three-tops": Console(
        VERIFY_WAVE + ["(x-t)^3 + exp(x+t) + (x+t)^2*exp(2*x+2*t) + cos(x-t)"], 0,
        ("prefix", "case wave: relative residual ")),
    "solution-of-another-equation": Console(
        ["verify", "--case", "wave", "--solution", "x^2*t"], 1,
        ("line", '  "passed": false')),
    "stokes-text": Console(["stokes", "--format", "text"], 0, ("line", "isotropy: true")),
    "stokes-latex": Console(["stokes", "--format", "latex"], 0, ("prefix", "\\eta = ")),
    "relation-latex": Console(["global-relation", "--op", HEAT_NU, "--format", "latex"],
                              0, ("prefix", "0 = ")),
    "relation-exp-sign-negative": Console(
        ["global-relation", "--op", HEAT_NU, "--exp-sign", "-1", "--format", "text"], 0,
        ("line", '  "weight": "-i*s1",')),
    "path-per-term": Console(PATHS + ["y,x"], 0, ("line", "verified: true")),
    "path-off-its-term": Console(PATHS + ["y,y"], 2, ("line", (
        "error: path (1, 1) does not use each axis k exactly alpha_k // 2 times "
        "for (2, 2)"))),
    "help-at-60-columns": Console(["decompose", "--help"], 0,
                                  ("prefix", "usage: fundform decompose [-h]"),
                                  env={"COLUMNS": "60"}),
    "usage-at-200-columns": Console(["count", "--op", WAVE, "--bogus"], 2,
                                    ("prefix", "usage: fundform [-h] {decompose,count,"),
                                    env={"COLUMNS": "200"}),
    "grid-over-the-term-budget": Console(["decompose", "--op", cube_grid(12)], 2, (
        "line", f"error: matrix operator expands beyond the limit of {MAX_TERMS} "
                "terms in all"), bounded=True),
    "power-of-a-sum-coefficient": Console(
        ["count", "--op", "params a,b,c,d; axes x; ((a+b+c+d+1)*Dx)^20"], 2,
        ("line", f"error: operator expands beyond the limit of {MAX_TERMS} terms "
                 "(line 1, column 42)"), bounded=True),
    # the widest packed keys the bounds allow, through every rewrite step
    # and the final gate
    "widest-keys": Console(
        ["decompose", "--op", f"{AXES_64}; Da0^11*Da31^11*Da63^10 + Da5*Da40^31"], 0,
        ("line", '  "verified": true,'), bounded=True),
}


def console(capsys, monkeypatch, case: Console) -> tuple:
    """(exit code, stdout, stderr) of one console call."""
    env = case.env or {}
    if case.bounded:
        proc = subprocess.run([sys.executable, "-m", "fundform", *case.argv],
                              env={**module_env(), **env}, capture_output=True,
                              text=True, timeout=20)
        return proc.returncode, proc.stdout, proc.stderr
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    result, out, err = outcome(capsys, lambda: main(case.argv))
    return (result[1] if isinstance(result, tuple) else result), out, err


@pytest.mark.parametrize("label", CONSOLE_CASES)
def test_console_cases(capsys, monkeypatch, label):
    case = CONSOLE_CASES[label]
    code, out, err = console(capsys, monkeypatch, case)
    assert code == case.code, err
    kind, expected = case.check
    if code == 2:
        assert out == ""
        out = err
    if kind == "line":
        assert expected in out.splitlines()
    elif kind == "prefix":
        assert out.startswith(expected)
    else:
        assert out == console(capsys, monkeypatch, CONSOLE_CASES[expected])[1]
