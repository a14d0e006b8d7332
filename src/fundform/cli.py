"""Command-line front end.

Subcommands: decompose, count, enumerate, constraint, global-relation,
represent, verify, stokes.  JSON is the machine format, LaTeX the human
one, text a terse summary.  Exit codes: 0 success, 1 verification
failure (or stdout closed by its reader), 2 usage or parse error.

Each subcommand's options sit in one table (`COMMANDS`).  A well-formed
call is read from that table.  Every other call (help, usage, errors and
the spellings the table reader leaves to argparse: prefixes, `=` forms,
values that start with '-') is read by the full argparse parser that
`build_parser` builds from the same table.

The front end reaches the engine through its public names only: plan
flags are laid over ``decompose.default_plan``, and the family verdict
that `enumerate` prints is ``forms.pairwise_equivalent``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import emit
from .catalog import (
    CATALOG_TAGS,
    catalog_case,
    stokes_adjoint_residual,
    stokes_operator,
)
from .decompose import (
    PLAN_CEILING,
    DecompositionPlan,
    EngineError,
    EnumerationLimit,
    TermPlan,
    count_forms,
    decompose,
    default_plan,
    enumerate_plans,
    operator_terms,
    sigma_count,
    term_plan_count,
)
from .forms import assemble, pairwise_equivalent
from .manufactured import ManufacturedSolution
from .operators import (MatrixPDO, Operator, check_sigma_count, parameters,
                        refuse_clash)
from .parser import parse_names, parse_operator, parse_poly
from .ring import PATH_QUOTE_LIMIT, Poly, is_name, quoted, quoted_names
from .spectral import (
    adjoint_constraint,
    global_relation,
    integral_representation,
    spinor_isotropic,
    substitute_exponential,
    amplitudes_pairwise_independent,
)
from .verify import DEFAULT_NODES, DEFAULT_RELATIVE_TOL, run_catalog_case

PAIRWISE_SUMMARY_LIMIT = 500
# Most plan items, members times terms, that `enumerate --format json`
# prints: its document holds one fragment per item, so this bounds its
# size as PLAN_CEILING bounds the members.  A larger family is printed
# count only.  A fragment prints axis names, so with names longer than
# NAME_UNIT characters the limit is divided by the longest name's length
# in NAME_UNITs, rounded up.
PLAN_ITEM_LIMIT = 10 ** 5
NAME_UNIT = 3
# Most digits of a form count that `count` and `enumerate` print: the
# interpreter's default limit on converting an int to text.
MAX_COUNT_DIGITS = 4300


class UsageError(ValueError):
    pass


def _load_operator(args) -> Operator:
    # an empty --op or --op-file is given all the same: the reader refuses
    # empty operator text, and an empty file name cannot be read
    if args.op is not None and args.op_file is not None:
        raise UsageError("give either --op or --op-file, not both")
    if args.op is not None:
        return parse_operator(args.op)
    if args.op_file is not None:
        try:
            with open(args.op_file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            path = quoted(args.op_file, PATH_QUOTE_LIMIT)
            raise UsageError(f"cannot read --op-file {path}: {exc.strerror}") from None
        return parse_operator(text)
    raise UsageError("an operator is required (--op or --op-file)")


def _axis_index(op: Operator, name: str) -> int:
    name = name.strip()
    if name not in op.axes:
        raise UsageError(f"unknown axis {quoted(name)}; "
                         f"operator axes are {quoted_names(op.axes)}")
    return op.axes.index(name)


def _flag_items(op: Operator, text: str, pairs: bool) -> tuple:
    """One plan flag's comma list as axis indices; with `pairs` (an
    --exchange list, which also splits on ';') as trial:test index pairs."""
    items = []
    for chunk in (text.replace(";", ",") if pairs else text).split(","):
        if not chunk.strip():
            continue
        if not pairs:
            items.append(_axis_index(op, chunk))
        elif ":" in chunk:
            items.append(tuple(_axis_index(op, part) for part in chunk.split(":", 1)))
        else:
            raise UsageError(f"exchange {quoted(chunk)} must look like trialaxis:testaxis")
    return tuple(items)


def _parse_plan(op: Operator, args) -> DecompositionPlan | None:
    """--path, --transfer and --exchange, the n-th of each for the n-th
    term; a term without one keeps that part of its first plan.  A flag
    given more times than the operator has terms is refused."""
    flags = (("--path", args.path or [], False),
             ("--transfer", args.transfer or [], False),
             ("--exchange", args.exchange or [], True))
    if not any(texts for _, texts, _ in flags):
        return None
    firsts = default_plan(op).items
    for flag, texts, _ in flags:
        if len(texts) > len(firsts):
            raise UsageError(f"more {flag} flags ({len(texts)}) than operator "
                             f"terms ({len(firsts)})")
    items = []
    for index, (key, first) in enumerate(firsts):
        parts = list(first)
        for slot, (_, texts, pairs) in enumerate(flags):
            if index < len(texts):
                parts[slot] = _flag_items(op, texts[index], pairs)
        items.append((key, TermPlan(*parts)))
    return DecompositionPlan(tuple(items))


def _parse_box(op: Operator, text: str | None) -> list:
    if text is None:
        return [(Poly.const(0), Poly.const(1)) for _ in op.axes]
    spans = {}
    for chunk in text.split(","):
        if "=" not in chunk or ".." not in chunk:
            raise UsageError(
                f"box chunk {quoted(chunk)} must look like axis=lo..hi"
            )
        axis, rest = chunk.split("=", 1)
        lo, hi = rest.split("..", 1)
        j = _axis_index(op, axis)
        if j in spans:
            raise UsageError(f"box names axis {quoted(op.axes[j])} twice")
        spans[j] = (_endpoint(lo), _endpoint(hi))
    missing = [op.axes[j] for j in range(op.dimension) if j not in spans]
    if missing:
        raise UsageError(f"box misses axes {quoted_names(missing)}")
    return [spans[j] for j in range(op.dimension)]


def _endpoint(text: str) -> Poly:
    """A box endpoint: a bare name, or else a constant `expr` (so a bare
    `i` is the imaginary unit)."""
    text = text.strip()
    if is_name(text):
        return Poly.var(text)
    try:
        return parse_poly(text, ())
    except ValueError as exc:
        raise UsageError(f"box endpoint {quoted(text)}: {exc}") from None


def _sigma_entry(text: str, names) -> Poly:
    """One comma-separated entry of --sigma, a polynomial in the spectral
    names; an error names the entry, whose text its column counts in."""
    try:
        return parse_poly(text, names)
    except ValueError as exc:
        raise UsageError(f"sigma entry {quoted(text)}: {exc}") from None


def _spectral_names(args, op: Operator, box=()) -> list:
    """--spectral-names (s1..sn without it), read by the header's name-list
    rule; no name may be an axis, a parameter or a box endpoint name."""
    if args.spectral_names is None:
        return [f"s{j + 1}" for j in range(op.dimension)]
    names = parse_names(args.spectral_names, "spectral")
    taken = set(op.axes).union(
        parameters(op), *(end.variables() for span in box for end in span))
    refuse_clash(names, taken, "axis, parameter or box endpoint")
    return names


def _emit(args, document, latex, text) -> None:
    """Print the rendering that --format asks for.  Each argument is a
    callable of no arguments that renders one format (the JSON document as
    a dict), and only the chosen one is called."""
    if args.format == "json":
        print(emit.to_pretty_json(document()))
    elif args.format == "latex":
        print(latex())
    else:
        print(text())


def _json_array(items, pad: str) -> str:
    """Already encoded items as a JSON array, laid out the way
    emit.to_pretty_json lays out an array whose line starts at indent
    `pad`."""
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
    names = [emit.to_pretty_json(axis) for axis in op.axes]
    keys = [key for key, _ in operator_terms(op)]
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
    _emit(args, lambda: emit.decomposition_json(dec),
          lambda: emit.decomposition_latex(dec),
          lambda: emit.decomposition_text(dec))
    return 0


def _form_count(op: Operator) -> int:
    """count_forms(op), refused when it has more than MAX_COUNT_DIGITS
    digits."""
    total = count_forms(op)
    # 10^d has more than 3d bits, so the power is computed only for a long count
    if (total.bit_length() > 3 * MAX_COUNT_DIGITS
            and total >= 10 ** MAX_COUNT_DIGITS):
        raise UsageError(
            f"the form count of this operator has more than {MAX_COUNT_DIGITS} "
            "digits, the most that count and enumerate print"
        )
    return total


def cmd_count(args) -> int:
    op = _load_operator(args)
    breakdown = []
    for (row, col, alpha), _ in operator_terms(op):
        breakdown.append({
            "row": row,
            "col": col,
            "alpha": list(alpha),
            "odd_axes": len(alpha.odd_axes()),
            "sigma": sigma_count(alpha),
            "plans": term_plan_count(alpha),
        })
    total = _form_count(op)
    _emit(args, lambda: {"count": total, "terms": breakdown},
          lambda: f"N(\\mathcal{{L}}) = {total}",
          lambda: "\n".join([f"N = {total}"] + [
              f"  alpha={tuple(t['alpha'])} sigma={t['sigma']} "
              f"odd={t['odd_axes']} plans={t['plans']}"
              for t in breakdown
          ]))
    return 0


def cmd_enumerate(args) -> int:
    op = _load_operator(args)
    total = _form_count(op)
    document: dict = {"count": total, "ceiling": PLAN_CEILING}
    if total > PLAN_CEILING:
        document["plans"] = None
        document["note"] = "plan family exceeds the ceiling; count only"
        _emit(args, lambda: document, lambda: f"N(\\mathcal{{L}}) = {total}",
              lambda: (f"N = {total} (exceeds ceiling {PLAN_CEILING}; "
                       "count only)"))
        return 0
    # The check costs one piece per (term, term plan); a family of at most
    # PAIRWISE_SUMMARY_LIMIT members is always checked.
    counts = [term_plan_count(alpha) for (_, _, alpha), _ in operator_terms(op)]
    verdict = (pairwise_equivalent(op)
               if min(total, sum(counts)) <= PAIRWISE_SUMMARY_LIMIT else None)
    if args.format == "json":
        longest = max(map(len, op.axes), default=0)
        limit = PLAN_ITEM_LIMIT // max(1, -(-longest // NAME_UNIT))
        if total * len(counts) <= limit:
            _print_plans_json(op, dict(document, plans=[],
                                       pairwise_equivalent=verdict))
        else:
            print(emit.to_pretty_json(dict(
                document, plans=None, pairwise_equivalent=verdict,
                note=f"plan items (members x terms) exceed {limit}; "
                     "count only")))
        return 0
    text_lines = [f"N = {total}"]
    if verdict is not None:
        text_lines.append(f"pairwise equivalent: {str(verdict).lower()}")
    _emit(args, lambda: document, lambda: f"N(\\mathcal{{L}}) = {total}",
          lambda: "\n".join(text_lines))
    return 0


def cmd_constraint(args) -> int:
    op = _load_operator(args)
    names = _spectral_names(args, op)
    variety = adjoint_constraint(op, names)

    def document() -> dict:
        return {
            "names": names,
            "poly": variety.poly.to_text(),
            "solved": [
                {"name": name, "num": num.to_text(), "den": den.to_text()}
                for name, num, den in variety.solved
            ],
        }

    _emit(args, document, lambda: f"{variety.poly.to_latex()} = 0",
          lambda: f"{variety.poly.to_text()} = 0")
    return 0


def cmd_global_relation(args) -> int:
    op = _load_operator(args)
    if isinstance(op, MatrixPDO):
        raise UsageError(
            "global relations for systems go through the stokes subcommand"
        )
    box = _parse_box(op, args.box)
    names = _spectral_names(args, op, box)
    if args.sigma is not None:
        sigma = [_sigma_entry(chunk, names) for chunk in args.sigma.split(",")]
    else:
        sigma = [Poly.var(n) for n in names]
    check_sigma_count(sigma, op.dimension)
    dec = decompose(op)
    sub = substitute_exponential(assemble(dec), sigma, args.exp_sign)
    rel = global_relation(sub, box)
    _emit(args, lambda: emit.relation_json(rel),
          lambda: emit.relation_latex(rel),
          lambda: emit.to_pretty_json(emit.relation_json(rel)["terms"], indent=1))
    return 0


def cmd_represent(args) -> int:
    op = _load_operator(args)
    rep = integral_representation(op)
    _emit(args, lambda: emit.representation_json(rep),
          lambda: emit.representation_latex(rep),
          lambda: f"denominator: {rep.denominator.to_text()}")
    return 0


def cmd_verify(args) -> int:
    if args.case not in CATALOG_TAGS:
        raise UsageError(f"unknown case {quoted(args.case)}; have {CATALOG_TAGS}")
    solution = None
    if args.solution is not None:
        case = catalog_case(args.case)
        fields = [args.solution] + ["0"] * (len(case.solution.fields) - 1)
        solution = ManufacturedSolution.system(case.solution.axes, fields)
    report = run_catalog_case(args.case, nodes=args.nodes, seed=args.seed,
                              solution=solution, tol=args.tol)
    text = (
        f"case {report['case']}: relative residual {report['relative']:.3e} "
        f"(scale {report['scale']:.3e}) -> "
        f"{'pass' if report['passed'] else 'FAIL'}"
    )
    _emit(args, lambda: report, lambda: f"% {text}", lambda: text)
    return 0 if report["passed"] else 1


def cmd_stokes(args) -> int:
    op = stokes_operator()
    dec = decompose(op)
    form = assemble(dec)
    triple = spinor_isotropic()
    negated = spinor_isotropic(-Poly.var("xi1"), -Poly.var("xi2"))
    rows = stokes_adjoint_residual(op, triple)
    checks = {
        "isotropy": triple.isotropy().is_zero,
        "even_under_spinor_negation": triple.k == negated.k,
        "adjoint_rows_vanish": all(row.is_zero for row in rows),
        "amplitudes_pairwise_independent": amplitudes_pairwise_independent(
            list(triple.k) + [Poly.var("xi3")]
        ),
        "decomposition_verified": dec.verified,
    }

    def document() -> dict:
        return {
            "fields": list(op.fields),
            "decomposition": emit.decomposition_json(dec),
            "form_latex": emit.form_latex(form),
            "spinor": {
                "k": [c.to_text() for c in triple.k],
                "adjoint_rows": [row.to_text() for row in rows],
            },
            "checks": checks,
        }

    _emit(args, document, lambda: emit.form_latex(form), lambda: "\n".join(
        f"{name}: {str(value).lower()}" for name, value in checks.items()))
    return 0 if all(checks.values()) else 1


_FORMAT = {"--format": {"choices": ("json", "latex", "text"), "default": "json"}}
_OPERATOR = {
    "--op": {"help": "operator text (scalar grammar or matrix JSON)"},
    "--op-file": {"help": "file with operator text or JSON"},
    **_FORMAT,
}

# name: (help, handler, options), in the order `--help` lists them.  The
# options map each flag to its add_argument keywords, in `--help` order:
# `build_parser` builds argparse options from them, and `_read_call` reads
# a well-formed call with them.
COMMANDS = {
    "decompose": ("fluxes plus verification verdict", cmd_decompose, {
        **_OPERATOR,
        "--path": {"action": "append",
                   "help": "reduction order per term, e.g. x,y,z (repeatable)"},
        "--transfer": {"action": "append",
                       "help": "transferred odd axes per term (repeatable)"},
        "--exchange": {"action": "append",
                       "help": "exchange pairs per term, e.g. x:y (repeatable)"},
    }),
    "count": ("size of the constructible family", cmd_count, _OPERATOR),
    "enumerate": ("all plans up to the ceiling", cmd_enumerate, _OPERATOR),
    "constraint": ("adjoint constraint variety", cmd_constraint, {
        **_OPERATOR,
        "--spectral-names": {"help": "comma-separated names per axis"},
    }),
    "global-relation": ("boundary relation on a box", cmd_global_relation, {
        **_OPERATOR,
        "--spectral-names": {"help": "free spectral names"},
        "--sigma": {"help": "per-axis spectral values, e.g. k,-k"},
        "--box": {"help": "axis=lo..hi per axis, e.g. x=0..l,t=0..T"},
        "--exp-sign": {"type": int, "choices": (1, -1), "default": 1},
    }),
    "represent": ("integral representation document", cmd_represent, _OPERATOR),
    "verify": ("numeric residual of a catalog relation", cmd_verify, {
        **_FORMAT,
        "--case": {"required": True, "help": "|".join(CATALOG_TAGS)},
        "--nodes": {"type": int, "default": DEFAULT_NODES},
        "--tol": {"type": float, "default": DEFAULT_RELATIVE_TOL},
        "--seed": {"type": int, "default": 0,
                   "help": "seed of the interior check's sample points"},
        "--solution": {"help": "override first-field solution text (control runs)"},
    }),
    "stokes": ("full incompressible-system pipeline", cmd_stokes, _FORMAT),
}


def _read_call(argv: list) -> argparse.Namespace | None:
    """The namespace argparse builds for `argv`, a call whose first
    argument is a subcommand, read from the option table; None for a call
    this reader leaves to argparse.  It reads only exact flags, each
    followed by a value that does not start with '-' (argparse has its own
    rules for those) and that passes the option's type and choices, and it
    needs every required option.  Prefixes, `-h`, `=` forms, positionals
    and every error go to argparse."""
    name, *rest = argv
    _, handler, options = COMMANDS[name]
    if len(rest) % 2:
        return None
    values = {flag: keywords.get("default") for flag, keywords in options.items()
              if not keywords.get("required")}
    for flag, text in zip(rest[::2], rest[1::2]):
        keywords = options.get(flag)
        if keywords is None or text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        if keywords.get("action") == "append":
            value = (values[flag] or []) + [value]
        values[flag] = value
    if len(values) < len(options):  # a required option is missing
        return None
    return argparse.Namespace(command=name, func=handler, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def build_parser() -> argparse.ArgumentParser:
    """The `fundform` parser, with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="fundform",
        description=(
            "Divergence decompositions, fundamental (n-1)-forms and "
            "boundary relations for constant-coefficient operators."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_call(argv) if argv and argv[0] in COMMANDS else None
    if args is None:
        args = build_parser().parse_args(argv)
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
