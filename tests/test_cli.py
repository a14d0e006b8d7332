import contextlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from conftest import random_multiindex, random_poly
from fundform.algebra import BilinearExpr, product_rule, term
from fundform.catalog import STOKES_JSON
from fundform import cli
from fundform.cli import main
from fundform.decompose import (
    DEFAULT_PLAN_CEILING,
    DivergenceDecomposition,
    count_forms,
    decompose,
    enumerate_plans,
    term_plan_count,
)
from fundform.forms import forms_equivalent
from fundform.operators import ScalarPDO
from fundform.parser import MAX_ORDER, MAX_TERMS, format_operator, parse_operator
from fundform.ring import Poly

TRIPLE = "axes x,y,z; Dx^2*Dy^2*Dz^2 + Dx^2*Dy^2 + Dz^2"
BIHARM = "axes x,y,z; Dx^4 + Dy^4 + Dz^4 + 2*Dx^2*Dy^2 + 2*Dy^2*Dz^2 + 2*Dz^2*Dx^2"


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
                                     "represent"])
@pytest.mark.parametrize("name", sorted(EXACT_OPERATORS))
def test_exact_coefficient_documents_pinned(capsys, name, command):
    op = EXACT_OPERATORS[name]
    for fmt, expected in EXACT_DOCUMENTS[op][command].items():
        code, out, err = run(capsys, command, "--op", op, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == expected, f"{command} --format {fmt}"


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
        "ceiling": DEFAULT_PLAN_CEILING,
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
    return format_operator(ScalarPDO.build(("x", "y", "z"), terms))


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
    document = {"count": count_forms(op), "ceiling": DEFAULT_PLAN_CEILING,
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


def _closed_stdout_run(argv, stdout, close):
    """Run fundform in a child process with a block-buffered stdout;
    `close` shuts the read end of that stdout.  Returns (exit code, stderr
    bytes)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
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
])
def test_deep_nesting_exits_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "nested deeper" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def refused(code: int, err: str, reason: str) -> bool:
    return (code == 2 and err.startswith("error: ") and reason in err
            and err.count("\n") == 1 and "Traceback" not in err)


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


def test_operator_term_limit_exits_2(capsys):
    code, _, err = run(capsys, "count", "--op", "axes x,y,z,w; (Dx+Dy+Dz+Dw)^30")
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


def test_engine_fault_exits_1(capsys, monkeypatch):
    engine = importlib.import_module("fundform.decompose")
    # the product-rule oracle doubles every term: the first rewrite step fails
    monkeypatch.setattr(engine, "product_rule",
                        lambda expr, k: [t.scaled(2) for t in product_rule(expr, k)])
    code, out, err = run(capsys, "decompose", "--op", "axes x,t; Dt^2 - Dx^2")
    assert code == 1 and out == ""
    assert err.startswith("error: internal check failed: ")
    assert err.count("\n") == 1


def test_bad_box_exits_2(capsys):
    code, _, err = run(capsys, "global-relation", "--op", "axes x,t; Dt^2 - Dx^2",
                       "--box", "x=0..l")
    assert code == 2
    assert "box" in err


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
    _, first, _ = run(capsys, "decompose", "--op", TRIPLE, "--seed", "3")
    _, second, _ = run(capsys, "decompose", "--op", TRIPLE, "--seed", "3")
    assert first == second

