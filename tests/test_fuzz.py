"""Fuzz properties: for any generated operator, sigma or solution text,
``main`` exits 0, 1 or 2 and never raises; solution text is either read
or refused with a SolutionSyntaxError that points into the text; every
polynomial's text form reads back to the polynomial; the operator
reader's products and powers equal the generic merge they shortcut, and
operator text reads as the descent that took every factor as an
expansion read it; a call read from the CLI's option table gives the
namespace argparse gives; the JSON writer prints what ``json.dumps``
prints."""

import contextlib
import io
import json
import random
from datetime import timedelta
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import random_operator  # noqa: E402
from oracles import format_operator, reference_parse_operator  # noqa: E402

from fundform.algebra import MultiIndex  # noqa: E402
from fundform.catalog import CATALOG_TAGS  # noqa: E402
from fundform.cli import COMMANDS, _read_call, build_parser, main  # noqa: E402
from fundform.decompose import count_forms  # noqa: E402
from fundform.emit import to_pretty_json  # noqa: E402
from fundform.manufactured import SolutionSyntaxError, parse_solution  # noqa: E402
from fundform.parser import (OperatorSyntaxError, _OperatorParser,  # noqa: E402
                             parse_operator, parse_poly)
from fundform.ring import P_ONE, GaussianRational, Poly, merge_terms  # noqa: E402

FUZZ_AXES = ("x", "y", "z", "t", "u", "w")  # at most 6 odd axes per term
FUZZ_PLAN_LIMIT = 720  # 6!: larger families are counted, not enumerated

_coefficients = st.sampled_from(["", "2*", "nu*", "(1/2+3*i)*", "0*", "7/3*",
                                 "2i*", "(1/2-3/4i)*"])
_op_tokens = st.sampled_from([
    "Dx", "Dy", "Dz", "Dt", "Dq", "nu", "i", "x", "0", "1", "2", "3", "1/2",
    "+", "-", "*", "^", "(", ")", ",", ";", " ", "axes", "params", "@", "Dx^2",
    "/", "/0", "2i", "1/2i", "0i",
])
_sigma_tokens = st.sampled_from([
    "k", "-k", "s1", "nu", "i", "2", "1/3", "0", "(", ")", "^", "*", "+", "-",
    ",", "k^2", "@", "2i", "-1/3i",
])
_sigma_atoms = st.sampled_from(["k", "-k", "2*k", "i*k", "1/2", "k^2", "0"])
_solution_tokens = st.sampled_from([
    "x", "t", "y", "exp(", "sin(", "cos(", "(", ")", "+", "-", "*", "^", "2",
    "3", "1000", "i", "0.5", "99999", "2i", "q",
])
_solution_leaves = st.sampled_from(["x", "t", "y", "2", "0.5", "3i", "1000"])
_solution_factor = st.tuples(
    st.one_of(_solution_leaves,
              st.tuples(st.sampled_from(["exp", "sin", "cos"]), _solution_leaves,
                        _solution_leaves).map(lambda f: f"{f[0]}({f[1]}*{f[2]})")),
    st.sampled_from(["", "^2", "^3", "^99", "^100000"]),
).map("".join)


@st.composite
def structured_expression(draw, axes):
    text = draw(st.sampled_from(["", "-"]))
    for index in range(draw(st.integers(1, 3))):
        if index:
            text += draw(st.sampled_from([" + ", " - "]))
        powers = draw(st.lists(st.integers(0, 3), min_size=len(axes),
                               max_size=len(axes)))
        factors = [f"D{a}^{e}" for a, e in zip(axes, powers) if e]
        text += draw(_coefficients) + ("*".join(factors) or "1")
    return text


@st.composite
def structured_operator(draw, n=None):
    if n is None:
        n = draw(st.integers(1, len(FUZZ_AXES)))
    axes = FUZZ_AXES[:n]
    header = draw(st.sampled_from(["", "params nu; "]))
    return (f"{header}axes {','.join(axes)}; "
            + draw(structured_expression(axes)))


def _soup(tokens, max_size):
    return st.lists(tokens, max_size=max_size).map("".join)


_scalar_text = st.one_of(
    structured_operator(),
    st.tuples(st.sampled_from(["axes x,y,z; ", "params nu; axes x,t; ", "axes x; ",
                               "axes x,x; ", ""]),
              _soup(_op_tokens, 12)).map("".join),
    st.text(max_size=20),
)
_matrix_entry = st.one_of(_soup(_op_tokens, 4), structured_expression(("x", "t")))
# values that break the shape or the name rules of one matrix JSON key
_malformed = st.sampled_from([None, 3, "x", [], [1], [None], ["x", "x"], ["nu"],
                              ["x"], ["a b"], [["Dx"]], [5], [["Dx", 2]], ["i"]])


@st.composite
def well_formed_matrix(draw):
    """A matrix JSON object of 1-4 fields whose entries are all text: in
    half of them all operator text, in the others token soup as well."""
    m = draw(st.integers(1, 4))
    entry = draw(st.sampled_from([structured_expression(("x", "t")), _matrix_entry]))
    return {"axes": ["x", "t"], "params": ["nu"], "fields": list("abcd"[:m]),
            "entries": [[draw(entry) for _ in range(m)] for _ in range(m)]}


@st.composite
def malformed_matrix(draw):
    """A well-formed object with one key, or one entry, broken."""
    document = draw(well_formed_matrix())
    key = draw(st.sampled_from(["axes", "params", "fields", "entries", "entry"]))
    if key == "entry":
        row = draw(st.sampled_from(document["entries"]))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from([1, None, ["Dx"]]))
    else:
        document[key] = draw(_malformed)
    return document


_matrix_text = st.one_of(well_formed_matrix(), malformed_matrix()).map(json.dumps)
_op_text = st.one_of(_scalar_text, _matrix_text)
_format = st.sampled_from(["json", "latex", "text"])


@st.composite
def global_relation_argv(draw):
    n = draw(st.integers(1, 3))
    op = draw(st.one_of(structured_operator(n), _op_text))
    chunks = draw(st.one_of(st.lists(_sigma_atoms, min_size=n, max_size=n),
                            st.lists(_soup(_sigma_tokens, 4), max_size=4)))
    names = draw(st.sampled_from(["k", "s1,s2", "k,,"]))
    return ("global-relation", "--op", op, "--spectral-names", names,
            "--sigma", ",".join(chunks))


_solution_text = st.one_of(
    _soup(_solution_tokens, 12),
    st.lists(st.lists(_solution_factor, min_size=1, max_size=3).map("*".join),
             min_size=1, max_size=3).map("+".join),
)
_op_command = st.sampled_from(["decompose", "count", "enumerate", "constraint",
                               "represent"])
fuzz_argv = st.one_of(
    st.tuples(_op_command, st.just("--op"), _op_text, st.just("--format"), _format),
    global_relation_argv(),
    st.tuples(st.just("verify"), st.just("--case"), st.sampled_from(CATALOG_TAGS),
              st.just("--solution"), _solution_text, st.just("--format"), _format),
)


def _plan_count(text: str):
    try:
        return count_forms(parse_operator(text))
    except (ValueError, KeyError):
        return None


def _assert_exits_0_1_or_2(argv):
    argv = list(argv)
    if argv[0] == "enumerate" and (_plan_count(argv[2]) or 0) > FUZZ_PLAN_LIMIT:
        argv[0] = "count"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an argument
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=80, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(argv=fuzz_argv)
def test_generated_text_exits_0_1_or_2(argv):
    _assert_exits_0_1_or_2(argv)


@settings(max_examples=60, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(command=_op_command, text=_matrix_text)
def test_generated_matrix_json_exits_0_1_or_2(command, text):
    _assert_exits_0_1_or_2((command, "--op", text))


@settings(max_examples=300, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(text=st.one_of(_solution_text, st.text(max_size=12)))
def test_solution_refusals_point_into_the_text(text):
    try:
        parse_solution(text, ("x", "t"))
    except SolutionSyntaxError as exc:
        assert 1 <= exc.column <= len(text) + 1
        assert exc.line == text.count("\n", 0, exc.pos) + 1


# Generator names are identifiers other than i; coefficient parts are
# small integers or p/q, so values come negative, pure imaginary or p/q
# with an imaginary part.
_names = st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,4}", fullmatch=True).filter(
    lambda name: name != "i")
_parts = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                             st.integers(1, 10 ** 4)))


@st.composite
def named_polys(draw):
    names = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    monos = st.lists(st.tuples(st.sampled_from(names), st.integers(1, 4)), max_size=3)
    terms = draw(st.lists(st.tuples(monos, st.builds(GaussianRational, _parts, _parts)),
                          max_size=5))
    return Poly(terms), names


@settings(max_examples=300, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(case=named_polys())
def test_printed_polynomials_read_back(case):
    poly, names = case
    assert parse_poly(poly.to_text(), names) == poly


# Expansions read from operator text over two axes: zero, constant,
# parameter, Gaussian and several-monomial coefficients, with or without
# derivative factors.
_EXPANSION_AXES = ("x", "y")
_EXPANSION_PARAMS = ("nu", "mu")
_expansion_coefficients = st.sampled_from([
    "", "0*", "3*", "(-1/3)*", "2i*", "(1/2+3i)*", "nu*", "nu^2*mu*", "(nu+1)*",
    "(mu-2i*nu)*",
])


@st.composite
def expansions(draw):
    text = draw(st.sampled_from(["", "-"]))
    for index in range(draw(st.integers(1, 3))):
        if index:
            text += draw(st.sampled_from([" + ", " - "]))
        powers = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2))
        factors = [f"D{a}^{e}" for a, e in zip(_EXPANSION_AXES, powers) if e]
        text += draw(_expansion_coefficients) + ("*".join(factors) or "1")
    return _OperatorParser(text, _EXPANSION_AXES, _EXPANSION_PARAMS).parse()


def _merged_product(a, b):
    return merge_terms((alpha + beta, ca * cb) for alpha, ca in a for beta, cb in b)


@settings(max_examples=300, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(a=expansions(), b=expansions(), n=st.integers(1, 3))
def test_products_and_powers_match_the_generic_merge(a, b, n):
    reader = _OperatorParser("", _EXPANSION_AXES, _EXPANSION_PARAMS)
    assert reader.multiply(a, b, 0) == _merged_product(a, b)
    assert reader.multiply(b, a, 0) == _merged_product(b, a)
    repeated = ((MultiIndex((0, 0)), P_ONE),)
    for _ in range(n):
        repeated = _merged_product(repeated, a)
    assert reader.power(a, n, 0) == repeated


@settings(max_examples=200, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(value=st.builds(GaussianRational, _parts, _parts),
       mono=st.lists(st.tuples(st.sampled_from(["nu", "mu"]), st.integers(1, 3)),
                     max_size=2, unique_by=lambda pair: pair[0]))
def test_one_term_powers_match_repeated_multiplication(value, mono):
    for poly in (Poly.const(value), Poly([(mono, value)])):
        repeated = P_ONE
        for n in range(9):
            assert poly ** n == repeated
            repeated = repeated * poly


# Products of one-term factors near the order bound, with zero literals,
# '/' divisors and factors of several terms among them: half the factors
# are derivative powers.
_product_factors = st.one_of(
    st.tuples(st.sampled_from(["Dx", "Dy"]),
              st.sampled_from(["", "^13", "^16", "^20", "^32"])).map("".join),
    st.sampled_from(["nu", "nu^2", "i", "i^3", "2", "2/3", "3i", "1/2i", "2^3",
                     "0", "0i", "0^2", "(Dx+Dy)", "(Dx*Dy)^2", "(nu+1)",
                     "(Dy^13+Dx)", "(0)", "Dq", "Dx^0", "nu^33"]),
)


@st.composite
def product_text(draw):
    text = draw(_product_factors)
    for _ in range(draw(st.integers(0, 5))):
        text += draw(st.sampled_from(["*", "*", "*", "/2"]))
        if text[-1] == "*":
            text += draw(_product_factors)
    return "params nu; axes x,y; " + draw(st.sampled_from(["", "-"])) + text


def _read(read, text: str) -> tuple:
    """`read(text)` as (operator, its repr), or as (exception type, message)."""
    try:
        op = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return op, repr(op)


@settings(max_examples=400, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(text=st.one_of(_op_text, structured_operator(), product_text()))
def test_operator_text_reads_as_the_expansion_descent_read_it(text):
    assert _read(parse_operator, text) == _read(reference_parse_operator, text)


def test_printed_operators_read_as_the_expansion_descent_read_them():
    # orders up to 40 put some products past MAX_ORDER at one of their '*'s
    rng = random.Random(4001)
    for _ in range(150):
        op = random_operator(rng, max_dim=3, max_order=40,
                             with_params=rng.random() < 0.5)
        text = format_operator(op)
        read = _read(parse_operator, text)
        assert read == _read(reference_parse_operator, text)
        assert read[0] == op or read[0] is OperatorSyntaxError


# Option values: plain ones, ones with '-', '=' or spaces, signed and
# underscored numerals, and ones outside an option's choices.
_option_values = st.sampled_from([
    "json", "latex", "text", "xml", "heat", "wave", "nosuch", "x,t", "y,x",
    "axes x,t; Dt^2 - Dx^2", "", "a b", " 7", "7 ", "a=b", "x=0..1,t=0..1",
    "k,-k", "-x", "-", "--", "--op", "-a b", "-h", "1", "-1", "+1", "2", "0",
    "1_000", "1__0", "_1", "0.5", "-0.5", "1e-3", "nan",
])


def _own_values(keywords: dict) -> list:
    """Values an option reads: its choices, numerals for its type, or text."""
    if "choices" in keywords:
        return [str(choice) for choice in keywords["choices"]]
    return {int: ["3", " 7", "1_0", "+2"], float: ["0.5", "1e-3", "+1_0.5"]}.get(
        keywords.get("type"), ["heat", "x,t", "a b", ""])


@st.composite
def option_argv(draw):
    """A subcommand with exact flags and values they read, the required
    option first or missing, and at most one spoiler: a prefix, `=` form,
    `-h`, `--` or positional in place of a flag, one of the values above in
    place of a value, or a flag or value with nothing after it."""
    name = draw(st.sampled_from(list(COMMANDS)))
    options = COMMANDS[name][2]
    flags = [flag for flag, keywords in options.items() if not keywords.get("required")]
    required = [flag for flag in options if flag not in flags]
    flags = (draw(st.sampled_from([required, []]))
             + draw(st.lists(st.sampled_from(flags), max_size=4)))
    argv = [name]
    for flag in flags:
        argv += [flag, draw(st.sampled_from(_own_values(options[flag])))]
    spoiler = draw(st.sampled_from(["none", "flag", "value", "tail"]))
    if spoiler == "flag" or len(argv) == 1:
        at = draw(st.integers(0, len(flags))) * 2 + 1
        argv[at:at] = [draw(st.sampled_from(
            [flag[:-1] for flag in options] + [f"{flag}=text" for flag in options]
            + ["-h", "--help", "--", "extra"])), draw(_option_values)]
    elif spoiler == "value":
        argv[draw(st.integers(1, len(flags))) * 2] = draw(_option_values)
    elif spoiler == "tail":
        argv.append(argv[-1])
    return argv


@settings(max_examples=500, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(argv=option_argv())
def test_option_table_reads_calls_as_argparse_does(argv):
    args = _read_call(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


class _List(list):
    pass


class _Dict(dict):
    pass


class _Str(str):
    pass


# json prints a subclass of int or float through int.__repr__ and
# float.__repr__, never through the subclass's own text
class _Int(int):
    def __repr__(self) -> str:
        return "_Int"

    __str__ = __repr__


class _Float(float):
    def __repr__(self) -> str:
        return "_Float"

    __str__ = __repr__


# Leaves json prints: text with control and non-ASCII characters, big
# ints, bools, None, floats with -0.0, NaN and both infinities,
# subclasses of str, int and float, and multi-indices (a tuple
# subclass); keys of every type json accepts.
_json_leaves = st.one_of(
    st.text(max_size=6), st.builds(_Str, st.text(max_size=3)),
    st.sampled_from(["\x00\x1f\n\t\"\\/", "\u00e9\u2603\U0001d11e", "\x7f"]),
    st.integers(-10 ** 40, 10 ** 40), st.builds(_Int, st.integers(-9, 9)),
    st.builds(_Float, st.floats()),
    st.booleans(), st.none(), st.floats(),
    st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.lists(st.integers(0, 255), max_size=4).map(MultiIndex),
)
_json_keys = st.one_of(st.text(max_size=4), st.integers(-10 ** 20, 10 ** 20),
                       st.builds(_Int, st.integers(-9, 9)), st.floats(),
                       st.builds(_Float, st.floats()), st.booleans(), st.none())
_json_values = st.recursive(_json_leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.lists(inner, max_size=3).map(_List),
    st.dictionaries(_json_keys, inner, max_size=4),
    st.dictionaries(st.text(max_size=3), inner, max_size=3).map(_Dict),
), max_leaves=24)


def _dumped(write, value, indent):
    """write(value, indent), or the type and text of the TypeError it
    raises."""
    try:
        return write(value, indent)
    except TypeError as exc:
        return TypeError, str(exc)


@settings(max_examples=400, deadline=timedelta(seconds=10), derandomize=True,
          database=None)
@given(value=_json_values, bad=st.sampled_from([{1, 2}, frozenset(), object(),
                                                 b"x", 1j]))
def test_pretty_json_writer_prints_what_json_dumps_prints(value, bad):
    def dumps(item, indent):
        return json.dumps(item, indent=indent)

    for indent in (1, 2):
        assert to_pretty_json(value, indent) == dumps(value, indent)
        # a value json cannot print, anywhere, and a key it refuses
        for spoiled in ([value, bad], {"k": [bad]}, {(1,): value}):
            refusal = _dumped(to_pretty_json, spoiled, indent)
            assert refusal[0] is TypeError
            assert refusal == _dumped(dumps, spoiled, indent)
