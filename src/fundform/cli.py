"""Command-line front end.

Subcommands: decompose, count, enumerate, constraint, global-relation,
represent, verify, stokes.  JSON is the machine format, LaTeX the human
one, text a terse summary.  Exit codes: 0 success, 1 verification
failure (or stdout closed by its reader), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import emit
from .algebra import divergence, expr_sum
from .catalog import CATALOG_TAGS, builtin_solutions, stokes_operator
from .decompose import (
    DEFAULT_PLAN_CEILING,
    DecompositionPlan,
    EngineError,
    EnumerationLimit,
    TermPlan,
    _operator_terms,
    count_forms,
    decompose,
    enumerate_plans,
    sigma_count,
    term_pieces,
    term_plan_count,
    term_plans,
)
from .forms import assemble, forms_equivalent
from .manufactured import ManufacturedSolution
from .operators import MatrixPDO, Operator, bilinear_rhs
from .parser import parse_operator, parse_poly
from .ring import Poly
from .spectral import (
    adjoint_constraint,
    global_relation,
    integral_representation,
    spinor_isotropic,
    stokes_adjoint_residual,
    substitute_exponential,
    amplitudes_pairwise_independent,
)
from .verify import run_catalog_case

PAIRWISE_SUMMARY_LIMIT = 500


class UsageError(ValueError):
    pass


def _load_operator(args) -> Operator:
    if getattr(args, "op", None) and getattr(args, "op_file", None):
        raise UsageError("give either --op or --op-file, not both")
    if getattr(args, "op", None):
        return parse_operator(args.op)
    if getattr(args, "op_file", None):
        with open(args.op_file, "r", encoding="utf-8") as handle:
            return parse_operator(handle.read())
    raise UsageError("an operator is required (--op or --op-file)")


def _axis_index(op: Operator, name: str) -> int:
    name = name.strip()
    if name not in op.axes:
        raise UsageError(f"unknown axis {name!r}; operator axes are {op.axes}")
    return op.axes.index(name)


def _parse_plan(op: Operator, args) -> DecompositionPlan | None:
    paths = args.path or []
    transfers = args.transfer or []
    exchanges = args.exchange or []
    if not (paths or transfers or exchanges):
        return None
    keys = [key for key, *_ in _operator_terms(op)]

    def nth(seq, index):
        return seq[index] if index < len(seq) else None

    items = []
    for index, key in enumerate(keys):
        alpha = key[2]
        plan = next(term_plans(alpha))
        path_text = nth(paths, index)
        if path_text is not None:
            path = tuple(
                _axis_index(op, part)
                for part in path_text.split(",") if part.strip()
            )
            plan = TermPlan(path, plan.transfer, plan.exchanges)
        transfer_text = nth(transfers, index)
        if transfer_text is not None:
            transfer = tuple(
                _axis_index(op, part)
                for part in transfer_text.split(",") if part.strip()
            )
            plan = TermPlan(plan.path, transfer, plan.exchanges)
        exchange_text = nth(exchanges, index)
        if exchange_text is not None:
            pairs = []
            for chunk in exchange_text.replace(";", ",").split(","):
                if not chunk.strip():
                    continue
                if ":" not in chunk:
                    raise UsageError(
                        f"exchange {chunk!r} must look like trialaxis:testaxis"
                    )
                left, right = chunk.split(":", 1)
                pairs.append((_axis_index(op, left), _axis_index(op, right)))
            plan = TermPlan(plan.path, plan.transfer, tuple(pairs))
        items.append((key, plan))
    return DecompositionPlan(tuple(items))


def _parse_box(op: Operator, text: str | None) -> list:
    if text is None:
        return [(Poly.const(0), Poly.const(1)) for _ in op.axes]
    spans = {}
    for chunk in text.split(","):
        if "=" not in chunk or ".." not in chunk:
            raise UsageError(
                f"box chunk {chunk!r} must look like axis=lo..hi"
            )
        axis, rest = chunk.split("=", 1)
        lo, hi = rest.split("..", 1)
        spans[_axis_index(op, axis)] = (_endpoint(lo), _endpoint(hi))
    missing = [op.axes[j] for j in range(op.dimension) if j not in spans]
    if missing:
        raise UsageError(f"box misses axes {missing}")
    return [spans[j] for j in range(op.dimension)]


def _endpoint(text: str) -> Poly:
    text = text.strip()
    try:
        return Poly.const(Fraction(text))
    except ValueError:
        if not text.isidentifier():
            raise UsageError(f"box endpoint {text!r} is neither rational nor a name")
        return Poly.var(text)


def _emit(args, document: dict, latex: str, text: str) -> None:
    if args.format == "json":
        print(emit.to_pretty_json(document))
    elif args.format == "latex":
        print(latex)
    else:
        print(text)


def _json_array(items, pad: str) -> str:
    """Already encoded items as a JSON array, laid out the way
    json.dumps(..., indent=2) lays out an array whose line starts at
    indent `pad`."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(f"{pad}  {item}" for item in items) + f"\n{pad}]"


def _print_plans_json(op: Operator, document: dict) -> None:
    """Print the enumerate document byte for byte as emit.to_pretty_json
    would, with its empty "plans" list filled member by member from
    enumerate_plans.  The last term's plan changes from one member to the
    next, so its fragment is encoded for each member; the fragments of
    the other terms are encoded once and shared by the members holding
    them.  Memory grows with the other terms' pieces, not with the family
    or the last term's pieces."""
    names = [json.dumps(axis) for axis in op.axes]
    keys = [key for key, *_ in _operator_terms(op)]
    last = keys[-1] if keys else None
    encoded: dict = {}
    # members sit at depth 2, fragments at depth 3 and their keys at depth 4
    pad = " " * 8

    def fragment(item) -> str:
        text = encoded.get(item)
        if text is None:
            (row, col, alpha), tp = item
            exchanges = [_json_array((names[k], names[j]), pad + "  ")
                         for k, j in tp.exchanges]
            text = (f'      {{\n{pad}"row": {row},\n{pad}"col": {col},\n'
                    f'{pad}"alpha": {_json_array(alpha, pad)},\n'
                    f'{pad}"path": {_json_array([names[k] for k in tp.path], pad)},\n'
                    f'{pad}"transfer": '
                    f'{_json_array([names[k] for k in tp.transfer], pad)},\n'
                    f'{pad}"exchanges": {_json_array(exchanges, pad)}\n      }}')
            if item[0] != last:
                encoded[item] = text
        return text

    head, tail = emit.to_pretty_json(document).split('"plans": []')
    out = sys.stdout
    out.write(head + '"plans": [')
    separator = "\n"
    for plan in enumerate_plans(op):
        # a zero operator has one plan with no items, encoded as "[]"
        member = ("    [\n" + ",\n".join(fragment(item) for item in plan.items)
                  + "\n    ]" if plan.items else "    []")
        out.write(separator + member)
        separator = ",\n"
    out.write("\n  ]" + tail + "\n")


def cmd_decompose(args) -> int:
    op = _load_operator(args)
    plan = _parse_plan(op, args)
    dec = decompose(op, plan)
    _emit(args, emit.decomposition_json(dec), emit.decomposition_latex(dec),
          emit.decomposition_text(dec))
    return 0


def cmd_count(args) -> int:
    op = _load_operator(args)
    breakdown = []
    for (row, col, alpha), *_ in _operator_terms(op):
        breakdown.append({
            "row": row,
            "col": col,
            "alpha": list(alpha),
            "odd_axes": len(alpha.odd_axes()),
            "sigma": sigma_count(alpha),
            "plans": term_plan_count(alpha),
        })
    total = count_forms(op)
    document = {"count": total, "terms": breakdown}
    text = "\n".join(
        [f"N = {total}"] + [
            f"  alpha={tuple(t['alpha'])} sigma={t['sigma']} odd={t['odd_axes']} "
            f"plans={t['plans']}"
            for t in breakdown
        ]
    )
    _emit(args, document, f"N(\\mathcal{{L}}) = {total}", text)
    return 0


def _pairwise_equivalent(op: Operator) -> bool:
    """True when every family member's form is equivalent to every other.

    A member's fluxes are a sum of one piece per term (``term_pieces``),
    so any two members differ by a sum of per-term piece differences, and
    a bad piece shows in the member that differs from the first only in
    that term: comparing each piece with its term's first piece decides
    every pair.  The first member is the sum of the first pieces, and it
    must pass the final divergence gate against the whole operator's
    pairing.
    """
    pieces = [term for _, term in term_pieces(op)]
    whole = tuple(expr_sum(term[0].fluxes[j] for term in pieces)
                  for j in range(op.dimension))
    if divergence(whole) != bilinear_rhs(op):
        raise EngineError(
            "the first per-term pieces do not sum to a decomposition of the "
            "whole operator"
        )
    return all(forms_equivalent(first, piece)
               for first, *rest in pieces for piece in rest)


def cmd_enumerate(args) -> int:
    op = _load_operator(args)
    total = count_forms(op)
    document: dict = {"count": total, "ceiling": DEFAULT_PLAN_CEILING}
    if total > DEFAULT_PLAN_CEILING:
        document["plans"] = None
        document["note"] = "plan family exceeds the ceiling; count only"
        _emit(args, document, f"N(\\mathcal{{L}}) = {total}",
              f"N = {total} (exceeds ceiling {DEFAULT_PLAN_CEILING}; count only)")
        return 0
    # The check costs one piece per (term, term plan); a family of at most
    # PAIRWISE_SUMMARY_LIMIT members is always checked.
    pieces = sum(term_plan_count(alpha) for _, alpha, *_ in _operator_terms(op))
    verdict = (_pairwise_equivalent(op)
               if min(total, pieces) <= PAIRWISE_SUMMARY_LIMIT else None)
    if args.format == "json":
        _print_plans_json(op, dict(document, plans=[],
                                   pairwise_equivalent=verdict))
        return 0
    text_lines = [f"N = {total}"]
    if verdict is not None:
        text_lines.append(f"pairwise equivalent: {str(verdict).lower()}")
    _emit(args, document, f"N(\\mathcal{{L}}) = {total}", "\n".join(text_lines))
    return 0


def cmd_constraint(args) -> int:
    op = _load_operator(args)
    if isinstance(op, MatrixPDO):
        raise UsageError("constraint varieties are emitted for scalar operators")
    names = (
        [n.strip() for n in args.spectral_names.split(",")]
        if args.spectral_names
        else [f"s{j + 1}" for j in range(op.dimension)]
    )
    if len(names) != op.dimension:
        raise UsageError("need one spectral name per axis")
    variety = adjoint_constraint(op, names)
    document = {
        "names": names,
        "poly": variety.poly.to_text(),
        "solved": [
            {"name": name, "num": num.to_text(), "den": den.to_text()}
            for name, num, den in variety.solved
        ],
    }
    _emit(args, document, f"{variety.poly.to_latex()} = 0",
          f"{variety.poly.to_text()} = 0")
    return 0


def cmd_global_relation(args) -> int:
    op = _load_operator(args)
    if isinstance(op, MatrixPDO):
        raise UsageError(
            "global relations for systems go through the stokes subcommand"
        )
    names = (
        [n.strip() for n in args.spectral_names.split(",")]
        if args.spectral_names
        else [f"s{j + 1}" for j in range(op.dimension)]
    )
    if args.sigma:
        chunks = args.sigma.split(",")
        if len(chunks) != op.dimension:
            raise UsageError("need one sigma entry per axis")
        sigma = [parse_poly(chunk, names) for chunk in chunks]
    else:
        if len(names) != op.dimension:
            raise UsageError("need one spectral name per axis")
        sigma = [Poly.var(n) for n in names]
    box = _parse_box(op, args.box)
    dec = decompose(op)
    sub = substitute_exponential(assemble(dec), sigma, args.exp_sign)
    rel = global_relation(sub, box)
    document = emit.relation_json(rel)
    _emit(args, document, emit.relation_latex(rel),
          json.dumps(document["terms"], indent=1))
    return 0


def cmd_represent(args) -> int:
    op = _load_operator(args)
    if isinstance(op, MatrixPDO):
        raise UsageError("integral representations are emitted for scalar operators")
    rep = integral_representation(op)
    _emit(args, emit.representation_json(rep), emit.representation_latex(rep),
          f"denominator: {rep.denominator.to_text()}")
    return 0


def cmd_verify(args) -> int:
    if args.case not in CATALOG_TAGS:
        raise UsageError(f"unknown case {args.case!r}; have {CATALOG_TAGS}")
    solution = None
    if args.solution:
        case = builtin_solutions(args.case)[0]
        fields = [args.solution] + ["0"] * (len(case.solution.fields) - 1)
        solution = ManufacturedSolution.system(case.solution.axes, fields)
    report = run_catalog_case(args.case, nodes=args.nodes, seed=args.seed,
                              solution=solution, tol=args.tol)
    document = {
        "case": report["tag"],
        "nodes": report["nodes"],
        "pde_residual": report["pde_residual"],
        "constraint_residual": report["constraint_residual"],
        "residual": [report["residual"].real, report["residual"].imag],
        "scale": report["scale"],
        "relative": report["relative"],
        "passed": report["passed"],
    }
    text = (
        f"case {report['tag']}: relative residual {report['relative']:.3e} "
        f"(scale {report['scale']:.3e}) -> "
        f"{'pass' if report['passed'] else 'FAIL'}"
    )
    _emit(args, document, f"% {text}", text)
    return 0 if report["passed"] else 1


def cmd_stokes(args) -> int:
    op = stokes_operator()
    dec = decompose(op)
    form = assemble(dec)
    triple = spinor_isotropic()
    negated = spinor_isotropic(-Poly.var("xi1"), -Poly.var("xi2"))
    rows = stokes_adjoint_residual(triple)
    checks = {
        "isotropy": triple.isotropy().is_zero,
        "even_under_spinor_negation": triple.k == negated.k,
        "adjoint_rows_vanish": all(row.is_zero for row in rows),
        "amplitudes_pairwise_independent": amplitudes_pairwise_independent(
            list(triple.k) + [Poly.var("xi3")]
        ),
        "decomposition_verified": dec.verified,
    }
    document = {
        "fields": list(op.fields),
        "decomposition": emit.decomposition_json(dec),
        "form_latex": emit.form_latex(form),
        "spinor": {
            "k": [c.to_text() for c in triple.k],
            "adjoint_rows": [row.to_text() for row in rows],
        },
        "checks": checks,
    }
    ok = all(checks.values())
    text = "\n".join(
        [f"{name}: {str(value).lower()}" for name, value in checks.items()]
    )
    _emit(args, document, emit.form_latex(form), text)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fundform",
        description=(
            "Divergence decompositions, fundamental (n-1)-forms and "
            "boundary relations for constant-coefficient operators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, op: bool = True):
        if op:
            p.add_argument("--op", help="operator text (scalar grammar or matrix JSON)")
            p.add_argument("--op-file", help="file with operator text or JSON")
        p.add_argument("--format", choices=("json", "latex", "text"),
                       default="json")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("decompose", help="fluxes plus verification verdict")
    add_common(p)
    p.add_argument("--path", action="append",
                   help="reduction order per term, e.g. x,y,z (repeatable)")
    p.add_argument("--transfer", action="append",
                   help="transferred odd axes per term (repeatable)")
    p.add_argument("--exchange", action="append",
                   help="exchange pairs per term, e.g. x:y (repeatable)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("count", help="size of the constructible family")
    add_common(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="all plans up to the ceiling")
    add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("constraint", help="adjoint constraint variety")
    add_common(p)
    p.add_argument("--spectral-names", help="comma-separated names per axis")
    p.set_defaults(func=cmd_constraint)

    p = sub.add_parser("global-relation", help="boundary relation on a box")
    add_common(p)
    p.add_argument("--spectral-names", help="free spectral names")
    p.add_argument("--sigma", help="per-axis spectral values, e.g. k,-k")
    p.add_argument("--box", help="axis=lo..hi per axis, e.g. x=0..l,t=0..T")
    p.add_argument("--exp-sign", type=int, choices=(1, -1), default=1)
    p.set_defaults(func=cmd_global_relation)

    p = sub.add_parser("represent", help="integral representation document")
    add_common(p)
    p.set_defaults(func=cmd_represent)

    p = sub.add_parser("verify", help="numeric residual of a catalog relation")
    add_common(p, op=False)
    p.add_argument("--case", required=True, help="|".join(CATALOG_TAGS))
    p.add_argument("--nodes", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--solution",
                   help="override first-field solution text (control runs)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stokes", help="full incompressible-system pipeline")
    add_common(p, op=False)
    p.set_defaults(func=cmd_stokes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes to
        # the null device, so that the interpreter's final flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except EngineError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, EnumerationLimit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
