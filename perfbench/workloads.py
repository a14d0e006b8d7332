"""Seeded call lists for the three benchmark workloads.

Each workload is a list of ``Call`` objects built from the seed alone.  A
call drives fundform the way a user does -- through ``fundform.cli.main``
or the library quickstart path -- and carries its own output check from
``checks``.  Program entry points are looked up on their modules at call
time, so the tracer's module-attribute wrappers see every call.

The first call of every list is a cheap one: it is the warm-up call that
set-up time includes.  fundform is imported inside the call functions,
once run.py has put the checkout's sources on the path.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
from checks import Coeff, DeepCase, GenOperator

FORMATS = ("json", "latex", "text")
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "catalog.json"


@dataclass
class Call:
    """One request of a workload.

    request is what the program receives (CLI arguments, or the library
    inputs); run() sends it and returns the output; check(output) returns
    None or the reason the output is wrong.  items is the work the call
    stands for (plans for enumerate-families, relations for verify-deep,
    1 otherwise); row names the ROADMAP baseline row it reproduces.  A call
    with repeat=False is too long to repeat within a run: it runs and is
    checked once, after the timed passes, and reports only its row.
    """

    label: str
    request: tuple
    run: Callable[[], object]
    check: Callable[[object], str | None]
    items: int = 1
    row: str | None = None
    repeat: bool = True


def run_cli(argv: list) -> tuple:
    """fundform.cli.main(argv) with stdout and stderr captured; returns
    (exit code, stdout text)."""
    import fundform.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fundform.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _cli_call(label: str, argv: list, check, golden: dict | None = None,
              items: int = 1, row: str | None = None) -> Call:
    def checked(result) -> str | None:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        if golden is not None:
            if label not in golden:
                return "no golden document"
            reason = checks.check_golden(out, golden[label])
            if reason:
                return reason
        return check(out)

    return Call(label, tuple(argv), lambda: run_cli(argv), checked, items, row)


# ---------------------------------------------------------------------------
# Operators


def _c(value) -> Coeff:
    return Coeff(Fraction(value))


def catalog_operators() -> dict:
    """The four scalar catalog operators, as the benchmark writes them."""
    return {
        "wave": GenOperator(("x", "t"), {(0, 0): {(0, 2): _c(1), (2, 0): _c(-1)}},
                            name="wave"),
        "heat": GenOperator(("x", "t"), {(0, 0): {(0, 1): _c(1), (2, 0): _c(-1)}},
                            name="heat"),
        "biharmonic": GenOperator(("x", "y", "z"), {(0, 0): {
            (4, 0, 0): _c(1), (0, 4, 0): _c(1), (0, 0, 4): _c(1),
            (2, 2, 0): _c(2), (0, 2, 2): _c(2), (2, 0, 2): _c(2)}},
            name="biharmonic"),
        "triple": GenOperator(("x", "y", "z"), {(0, 0): {
            (2, 2, 2): _c(1), (2, 2, 0): _c(1), (0, 0, 2): _c(1)}},
            name="triple"),
    }


def stokes_operator() -> GenOperator:
    """Unsteady incompressible system on (x, y, z, t) with viscosity nu."""
    axes = ("x", "y", "z", "t")
    entries: dict = {}
    for i in range(3):
        momentum = {(0, 0, 0, 1): _c(1)}
        for j in range(3):
            alpha = tuple(2 if k == j else 0 for k in range(4))
            momentum[alpha] = Coeff(Fraction(-1), "nu")
        entries[(i, i)] = momentum
        grad = tuple(1 if k == i else 0 for k in range(4))
        entries[(i, 3)] = {grad: _c(1)}
        entries[(3, i)] = {grad: _c(1)}
    return GenOperator(axes, entries, fields=("u1", "u2", "u3", "p"),
                       params=("nu",), name="stokes")


def seeded_operator(rng: random.Random, template: tuple, name: str,
                    param: str | None = None) -> GenOperator:
    """The template's multi-indices on randomly named and permuted axes,
    with random small rational coefficients; `param` multiplies the first
    term.  Relabelling axes and changing coefficients varies the input
    without changing how much work it asks for, so every seed weighs the
    same."""
    n = len(template[0])
    names = rng.sample("xyzwuv", n)
    perm = rng.sample(range(n), n)
    terms = {}
    for position, alpha in enumerate(template):
        value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        terms[tuple(alpha[perm[k]] for k in range(n))] = Coeff(
            value, param if position == 0 else None)
    return GenOperator(tuple(names), {(0, 0): terms},
                       params=(param,) if param else (), name=name)


# Random scalar operators of cli-catalog: 2-4 axes, 1-4 distinct terms,
# orders 1-6, odd and even terms; (multi-indices, parameter on term 0).
RANDOM_TEMPLATES = (
    (((3, 3),), False),
    (((2, 1, 1), (0, 2, 0)), True),
    (((2, 1, 1, 1), (1, 0, 2, 0), (0, 0, 0, 1)), False),
    (((2, 2, 2), (1, 1, 1), (0, 2, 0), (0, 0, 1)), True),
    (((1, 2, 1, 2), (1, 1, 1, 1), (0, 2, 0, 0), (0, 0, 0, 1)), False),
)


def random_operator(rng: random.Random, index: int) -> GenOperator:
    template, with_param = RANDOM_TEMPLATES[index]
    return seeded_operator(rng, template, f"random{index}",
                           "nu" if with_param else None)


# ---------------------------------------------------------------------------
# cli-catalog

SCALAR_SUBCOMMANDS = {
    "decompose": checks.check_decompose,
    "count": checks.check_count,
    "constraint": checks.check_constraint,
    "global-relation": checks.check_global_relation,
    "represent": checks.check_represent,
}
ENUMERATED_CATALOG = ("triple", "biharmonic")
ROW_DECOMPOSE = ("wave", "triple", "biharmonic", "stokes")
VERIFY_CASES = ("wave", "heat", "biharmonic", "stokes")
VERIFY_NODES = 20


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _requests(op: GenOperator, subcommands) -> list:
    """(label, argv, check) for each subcommand and format on one operator."""
    out = []
    for sub in subcommands:
        check = SCALAR_SUBCOMMANDS[sub]
        for fmt in FORMATS:
            out.append((f"{sub} {op.name} {fmt}",
                        [sub, "--op", op.text(), "--format", fmt],
                        lambda text, op=op, fmt=fmt, check=check: check(fmt, text, op)))
    return out


def golden_requests() -> list:
    """(label, argv, check) for the fixed catalog inputs of the exact
    subcommands, whose documents must match the golden file byte for byte."""
    stokes = stokes_operator()
    out = []
    for op in catalog_operators().values():
        out += _requests(op, SCALAR_SUBCOMMANDS)
    out += _requests(stokes, ("decompose", "count"))
    for fmt in FORMATS:
        out.append((f"stokes stokes {fmt}", ["stokes", "--format", fmt],
                    lambda text, fmt=fmt: checks.check_stokes(fmt, text, stokes)))
    return out


def _row(label: str) -> str | None:
    sub, name, fmt = label.split()
    if fmt == "json" and ((sub == "decompose" and name in ROW_DECOMPOSE)
                          or sub == "verify"):
        return f"{sub}/{name}"
    return None


def cli_catalog(seed: int, golden: dict | None = None) -> list:
    """Every subcommand in every format on the catalog operators plus
    seeded random scalar operators; each operator is decomposed afresh by
    every call, so no work is shared between calls."""
    if golden is None:
        golden = load_golden()
    rng = random.Random(seed)
    catalog = catalog_operators()
    randoms = [random_operator(rng, i) for i in range(len(RANDOM_TEMPLATES))]
    calls = [_cli_call(label, argv, check, golden, row=_row(label))
             for label, argv, check in golden_requests()]
    for tag in VERIFY_CASES:
        for fmt in FORMATS:
            label = f"verify {tag} {fmt}"
            calls.append(_cli_call(
                label, ["verify", "--case", tag, "--nodes", str(VERIFY_NODES),
                        "--format", fmt],
                lambda out, fmt=fmt: checks.check_verify(fmt, out), row=_row(label)))
    for name in ENUMERATED_CATALOG:
        op = catalog[name]
        for fmt in FORMATS:
            calls.append(_cli_call(
                f"enumerate {name} {fmt}",
                ["enumerate", "--op", op.text(), "--format", fmt],
                lambda out, op=op, fmt=fmt: checks.check_enumerate(fmt, out, op)))
    for op in randoms:
        calls += [_cli_call(label, argv, check)
                  for label, argv, check in _requests(op, SCALAR_SUBCOMMANDS)]
    return calls


# ---------------------------------------------------------------------------
# enumerate-families


def _anchor(axes: str, terms: list, name: str) -> GenOperator:
    return GenOperator(tuple(axes), {(0, 0): {alpha: _c(1) for alpha in terms}},
                       name=name)


ANCHORS = (
    # axes x,y,z,w; Dx*Dy*Dz*Dw*Dx^2*Dy^2 + Dz^4
    _anchor("xyzw", [(3, 3, 1, 1), (0, 0, 4, 0)], "N48"),
    # axes x,y,z,w; Dx^3*Dy^3*Dz*Dw + Dx^2*Dy^2 + Dz^2  (multi-term)
    _anchor("xyzw", [(3, 3, 1, 1), (2, 2, 0, 0), (0, 0, 2, 0)], "N96"),
    # axes x,y,z,w,v; Dx*Dy*Dz*Dw*Dv*Dx^2  (single term)
    _anchor("xyzwv", [(3, 1, 1, 1, 1)], "N120"),
)
# Seeded families, each enumerated in about 20-120 ms: N = 6 and N = 12
# single-term, N = 12 with two terms (two shapes) and N = 12 with three.
# Calls this short are repeated often enough within a run for their
# fastest repeat to be steady on a machine whose speed drifts; calls of a
# second or more are not.
SEEDED_FAMILIES = (
    ("single6", ((1, 1, 1, 0),)),
    ("single12", ((3, 3, 1, 0),)),
    ("pair12", ((1, 1, 1, 2), (2, 2, 0, 0))),
    ("pair12b", ((3, 1, 1, 0), (0, 0, 2, 2))),
    ("triple12", ((2, 2, 2, 0), (2, 2, 0, 0), (0, 0, 2, 0))),
)


def enumerate_families(seed: int) -> list:
    """`enumerate` on the seeded families, repeated, and on the three
    ROADMAP anchors, which take 2-16 s each and run once per run for their
    rows."""
    rng = random.Random(seed)
    seeded = [seeded_operator(rng, template, name)
              for name, template in SEEDED_FAMILIES]
    calls = []
    for op in seeded + list(ANCHORS):
        n = checks.family_size(op)
        anchor = op in ANCHORS
        call = _cli_call(
            f"enumerate {op.name} N={n}",
            ["enumerate", "--op", op.text(), "--format", "json"],
            lambda out, op=op: checks.check_enumerate("json", out, op),
            items=n, row=f"enumerate/{op.name}" if anchor else None)
        call.repeat = not anchor
        calls.append(call)
    return calls


# ---------------------------------------------------------------------------
# verify-deep

DEEP_ORDERS = (2, 3, 4)
DEEP_DIMENSIONS = (2, 3)
DEEP_NODES = (20, 60)


def deep_case(rng: random.Random, k: int, n: int, nodes: int,
              raise_degree: bool = False) -> DeepCase:
    """p * h with deg p = k - 1 (k with raise_degree, then not a
    solution), h harmonic, and sigma on sum_j sigma_j^2 = 0."""
    axes = ("x", "y", "z")[:n]
    order = list(axes)
    rng.shuffle(order)
    if n == 2:
        rate = rng.choice([2, 3])
        harmonic = (("exp", order[0], rng.choice([-1, 1]) * rate),
                    (rng.choice(["cos", "sin"]), order[1], rate))
        a = rng.choice([1, 2, 3])
        sigma_by_axis = {order[0]: complex(a, 0),
                         order[1]: complex(0, rng.choice([-1, 1]) * a)}
    else:
        a, b = rng.choice([(3, 4), (4, 3)])
        harmonic = (("exp", order[0], rng.choice([-1, 1]) * 5),
                    (rng.choice(["cos", "sin"]), order[1], a),
                    (rng.choice(["cos", "sin"]), order[2], b))
        real_axes = order[:]
        rng.shuffle(real_axes)
        sa, sb = rng.choice([(3, 4), (4, 3)])
        sigma_by_axis = {real_axes[0]: complex(0, rng.choice([-1, 1]) * 5),
                         real_axes[1]: complex(rng.choice([-1, 1]) * sa, 0),
                         real_axes[2]: complex(rng.choice([-1, 1]) * sb, 0)}
    top = k if raise_degree else k - 1
    # p = c1 u v^(top-1) + c2 w^max(top-1, 1) + c3, with u the exponential's
    # axis, v and w the trigonometric ones (w = v on two axes): the
    # monomials are fixed relative to the seeded axis order, so every seed
    # builds traces of one size.
    u, v, w = order[0], order[1], order[-1]
    monomials = ({u: 1, v: top - 1}, {w: max(top - 1, 1)}, {})
    # Never +-1: the solution parser drops a unit factor, which would make
    # the trace trees of some seeds smaller than others.
    poly = {tuple(m.get(axis, 0) for axis in axes): rng.choice([-3, -2, 2, 3])
            for m in monomials}
    return DeepCase(k, axes, poly, harmonic,
                    tuple(sigma_by_axis[axis] for axis in axes), nodes,
                    rel_seed=rng.randrange(2 ** 31))


def deep_call(case: DeepCase) -> Call:
    """The README library path, then both residuals, for one relation."""
    op_text = case.operator().text()
    solution_text = case.solution_text()
    box = [(0.0, 1.0)] * len(case.axes)

    def run():
        import fundform as ff
        import fundform.verify

        op = ff.parse_operator(op_text)
        form = ff.assemble(ff.decompose(op))
        sigma = [ff.Poly.const(ff.GaussianRational(Fraction(int(s.real)),
                                                   Fraction(int(s.imag))))
                 for s in case.sigma]
        sf = ff.substitute_exponential(form, sigma)
        solution = ff.ManufacturedSolution.scalar(case.axes, solution_text)
        interior = fundform.verify.interior_residual(op, solution, box)
        report = ff.boundary_residual(sf, solution, box,
                                      ff.QuadratureSpec(case.nodes))
        return interior, report.residual, report.scale

    def check(result) -> str | None:
        return checks.check_deep(case, *result)

    label = f"relation k={case.k} n={len(case.axes)} nodes={case.nodes}"
    return Call(label, (op_text, solution_text, case.sigma, case.nodes), run, check)


def verify_deep(seed: int) -> list:
    """Every (k, n, nodes) combination once, cheapest first."""
    rng = random.Random(seed)
    cases = [deep_case(rng, k, n, nodes) for k in DEEP_ORDERS
             for n in DEEP_DIMENSIONS for nodes in DEEP_NODES]
    return [deep_call(case) for case in cases]


WORKLOADS = {
    "cli-catalog": cli_catalog,
    "enumerate-families": enumerate_families,
    "verify-deep": verify_deep,
}
# What Call.items counts in each workload.
ITEM_NAMES = {"cli-catalog": "calls", "enumerate-families": "plans",
              "verify-deep": "relations"}


def build(name: str, seed: int) -> list:
    return WORKLOADS[name](seed)
