"""Tests of the benchmark itself: checks fail on planted faults, inputs
are deterministic per seed, every declared metric is printed with its
unit, and the tracer sees re-imported names and leaves nothing patched.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracer
import workloads
from conftest import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _first_fails(calls) -> bool:
    return bool(run.run_pass(calls, None).failures)


# -- checks fail on planted faults -------------------------------------------


def test_flux_check_catches_a_corrupted_coefficient():
    op = workloads.catalog_operators()["triple"]
    code, out = workloads.run_cli(["decompose", "--op", op.text()])
    doc = json.loads(out)
    assert code == 0 and checks.check_flux_document(doc, op) is None
    term = doc["fluxes"][0]["terms"][0]
    term["coeff"] = f"2*({term['coeff']})"
    assert checks.check_flux_document(doc, op) is not None


def test_stokes_flux_check_uses_the_parameter():
    op = workloads.stokes_operator()
    code, out = workloads.run_cli(["stokes"])
    assert code == 0 and checks.check_stokes("json", out, op) is None
    wrong = workloads.stokes_operator()
    wrong.entries[(0, 0)][(2, 0, 0, 0)] = checks.Coeff(Fraction(-2), "nu")
    assert checks.check_stokes("json", out, wrong) is not None


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_count_check_catches_a_wrong_count(fmt):
    op = workloads.catalog_operators()["biharmonic"]
    code, out = workloads.run_cli(["count", "--op", op.text(), "--format", fmt])
    assert code == 0 and checks.check_count(fmt, out, op) is None
    assert checks.check_count(fmt, out.replace("8", "9", 1), op) is not None


def test_enumerate_check_requires_distinct_plans():
    op = workloads.catalog_operators()["triple"]
    code, out = workloads.run_cli(["enumerate", "--op", op.text()])
    doc = json.loads(out)
    assert code == 0 and checks.check_enumerate("json", out, op) is None
    doc["plans"][1] = doc["plans"][0]
    assert checks.check_enumerate("json", json.dumps(doc), op) is not None


@pytest.mark.parametrize("k", [2, 3, 4])
def test_deep_check_catches_a_non_solution(k):
    good = workloads.deep_case(random.Random(k), k, 2, 20)
    bad = workloads.deep_case(random.Random(k), k, 2, 20, raise_degree=True)
    assert not _first_fails([workloads.deep_call(good)])
    assert _first_fails([workloads.deep_call(bad)])


def test_planted_program_faults_make_calls_fail(monkeypatch):
    import fundform.cli
    import fundform.emit

    calls = [c for c in workloads.cli_catalog(1)
             if c.label in ("decompose wave json", "count wave json")]
    assert len(calls) == 2 and not _first_fails(calls)
    original = fundform.emit.bilinear_terms_json

    def corrupt(expr):
        terms = original(expr)
        if terms:
            terms[0]["coeff"] = "3"
        return terms

    monkeypatch.setattr(fundform.emit, "bilinear_terms_json", corrupt)
    monkeypatch.setattr(fundform.cli, "count_forms", lambda op: 7)
    failures = run.run_pass(calls, None).failures
    assert len(failures) == 2


def test_golden_documents_detect_a_changed_byte():
    golden = workloads.load_golden()
    label = "constraint heat text"
    golden[label] = golden[label].replace("s2", "s1", 1)
    calls = [c for c in workloads.cli_catalog(1, golden) if c.label == label]
    assert _first_fails(calls)


def test_text_evaluator_reads_gaussian_rationals():
    values = {"nu": Fraction(2), "s1": Fraction(1, 3)}
    assert checks.evaluate_text("(1/2+3i)*nu^2 - 3/2i*s1", values) == checks.Q(
        Fraction(2), Fraction(23, 2))
    assert checks.evaluate_text("-nu + i", values) == checks.Q(Fraction(-2), Fraction(1))


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    first = [c.request for c in workloads.build(name, 11)]
    again = [c.request for c in workloads.build(name, 11)]
    other = [c.request for c in workloads.build(name, 12)]
    assert first == again
    assert first != other


def test_generated_inputs_stay_in_their_declared_ranges():
    rng = random.Random(5)
    for index in range(len(workloads.RANDOM_TEMPLATES)):
        op = workloads.random_operator(rng, index)
        orders = [sum(alpha) for _, _, alpha, _ in op.terms()]
        assert 2 <= len(op.axes) <= 4 and 1 <= len(orders) <= 4
        assert all(1 <= order <= 6 for order in orders)
    calls = workloads.enumerate_families(5)
    assert [c.items for c in calls] == [6, 12, 12, 12, 12, 48, 96, 120]
    assert [c.repeat for c in calls] == [True] * 5 + [False] * 3
    for call in workloads.verify_deep(5):
        op_text, solution_text, sigma, nodes = call.request
        assert 20 <= nodes <= 60 and abs(sum(s * s for s in sigma)) == 0


# -- metrics ------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_declared_metric_is_printed_with_its_unit(monkeypatch, capsys, tmp_path,
                                                       name, trace):
    calls = workloads.build(name, 3)
    cheap = sorted(calls, key=lambda c: c.items)[:2] if name == "enumerate-families" \
        else calls[:3]
    monkeypatch.setattr(workloads, "build", lambda workload, seed: cheap)
    monkeypatch.setattr(run, "measure_setup", lambda root, workload, seed: (0.5, []))
    monkeypatch.setattr(run, "SPANS_DIR", str(tmp_path / "spans"))
    result = run.run_workload(ROOT, name, 3, 1, bool(trace), SPEC)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0
    capsys.readouterr()


def test_scaled_time_counts_reference_loops():
    """A call doing the work of two reference loops reads as about two
    REFERENCE_S, whatever the machine's speed."""
    call = workloads.Call("two loops", (), lambda: run.reference_loop() + run.reference_loop(),
                          lambda out: None)
    passes = [run.run_pass([call], None) for _ in range(15)]
    assert run.call_times(passes)[0] == pytest.approx(2 * run.REFERENCE_S, rel=0.25)


def test_benchmark_json_follows_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout.strip() == ""


# -- tracer -------------------------------------------------------------------


def test_tracer_sees_reimported_names_and_uninstalls():
    import importlib

    engine = importlib.import_module("fundform.decompose")
    spectral = importlib.import_module("fundform.spectral")
    original = engine.decompose
    t = tracer.Tracer()
    t.install()
    try:
        assert spectral.decompose is engine.decompose is not original
        code, _ = workloads.run_cli(["represent", "--op", "axes x,t; Dt^2 - Dx^2"])
    finally:
        t.uninstall()
    assert code == 0
    assert engine.decompose is original and spectral.decompose is original
    counts = t.call_counts()
    assert counts["decompose.decompose"] == 1
    assert counts["algebra.partial"] > 0 and counts["ring.Poly.__add__"] > 0
    self_times = t.self_times()
    wall = t.end[0] - t.start[0]
    assert t.names[t.name[0]] == "cli.main"
    assert sum(self_times.values()) == pytest.approx(wall, rel=1e-6)
    assert all(value >= -1e-9 for value in self_times.values())
    inclusive = t.inclusive_times()
    assert inclusive["cli"] == pytest.approx(wall)
    assert self_times["decompose.decompose"] < inclusive["decompose"] < wall
