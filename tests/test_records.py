"""The engine's immutable records: repr text, equality, hashing and
immutability, and the checks each constructor makes.  The repr of a
record is its class name and its public fields, in declaration order,
each written with repr; the hash is that of the tuple of those fields."""

import copy
import hashlib
import json
import pickle
import random

import pytest

from conftest import random_operator
from oracles import BRACE, BRACKET, TRIPLE_PRODUCT_TEXT, PairTerm, format_operator
from fundform import emit
from fundform.algebra import MultiIndex
from fundform.catalog import (BIHARMONIC_TEXT, HEAT_TEXT, STOKES_JSON, WAVE_TEXT,
                              CatalogCase, catalog_case)
from fundform.cli import main
from fundform.decompose import (
    DecompositionPlan,
    DivergenceDecomposition,
    PlanError,
    TermPlan,
    count_forms,
    decompose,
    default_plan,
    enumerate_plans,
)
from fundform.manufactured import ManufacturedSolution
from fundform.operators import MatrixPDO, Operator, ScalarPDO, adjoint, grid
from fundform.parser import MAX_NODES, parse_operator, parse_scalar_operator
from fundform.ring import QI_I, Poly
from fundform.spectral import (
    ConstraintVariety,
    GlobalRelation,
    IntegralRepresentation,
    RelationTerm,
    SpinorTriple,
    SubstitutedForm,
    adjoint_constraint,
    global_relation,
    integral_representation,
    spinor_isotropic,
    substitute_exponential,
)
from fundform.verify import QuadratureSpec, ResidualReport

HEAT = "axes x,t; Dt - Dx^2"
FORMATS = ("json", "latex", "text")


def _heat_form(coeff: int = 1):
    return decompose(parse_scalar_operator(f"axes x,t; Dt - {coeff}*Dx^2"))


def _heat_relation(hi: int = 1):
    sf = substitute_exponential(_heat_form(), (1, -QI_I))
    return global_relation(sf, ((0, hi), (0, 1)))


def _unverified():
    dec = _heat_form()
    return DivergenceDecomposition(dec.axes, dec.fluxes, dec.source, dec.plan)


# (class, public fields, build a record, build one that differs in a field)
RECORDS = [
    (CatalogCase,
     ("tag", "operator", "solution", "sigma", "sign", "amplitudes", "params",
      "box"),
     lambda: catalog_case("heat"),
     lambda: catalog_case("wave")),
    (PairTerm,
     ("kind", "coeff", "alpha", "beta", "left_field", "right_field"),
     lambda: PairTerm(BRACKET, Poly.const(2), MultiIndex((1, 0)),
                      MultiIndex((0, 1)), 0, 1),
     lambda: PairTerm(BRACKET, Poly.const(2), MultiIndex((1, 0)),
                      MultiIndex((0, 1)), 0, 0)),
    (TermPlan, ("path", "transfer", "exchanges"),
     lambda: TermPlan((0,), (1,), ((0, 1),)),
     lambda: TermPlan((0,), (1,), ((1, 1),))),
    (DecompositionPlan, ("items",),
     lambda: _heat_form().plan,
     lambda: DecompositionPlan(())),
    (DivergenceDecomposition,
     ("axes", "fluxes", "source", "plan", "verified"),
     _heat_form, _unverified),
    (SubstitutedForm, ("axes", "sign", "sigma", "amplitudes", "fluxes"),
     lambda: substitute_exponential(_heat_form(), (1, -QI_I)),
     lambda: substitute_exponential(_heat_form(), (1, -QI_I), sign=-1)),
    (ConstraintVariety, ("names", "poly", "solved"),
     lambda: adjoint_constraint(parse_scalar_operator(HEAT), ("s1", "s2")),
     lambda: adjoint_constraint(parse_scalar_operator(HEAT), ("a", "b"))),
    (RelationTerm,
     ("axis", "end", "sign", "coeff", "weight_exponent", "field", "deriv"),
     lambda: _heat_relation().terms[0],
     lambda: _heat_relation().terms[1]),
    (GlobalRelation, ("axes", "box", "sigma", "sign", "amplitudes", "terms"),
     _heat_relation, lambda: _heat_relation(2)),
    (IntegralRepresentation,
     ("axes", "spectral_names", "prefactor_sign", "two_pi_power",
      "denominator", "eta"),
     lambda: integral_representation(parse_scalar_operator(HEAT)),
     lambda: integral_representation(parse_scalar_operator(HEAT), ("u", "v"))),
    (SpinorTriple, ("xi1", "xi2", "k"),
     lambda: spinor_isotropic(1, 2), lambda: spinor_isotropic(2, 1)),
    (QuadratureSpec, ("nodes",),
     lambda: QuadratureSpec(8), lambda: QuadratureSpec(9)),
    (ResidualReport, ("residual", "scale", "face_integrals"),
     lambda: ResidualReport(1 + 2j, 3.0, ((("x", "hi"), 1j),)),
     lambda: ResidualReport(1 + 2j, 4.0, ((("x", "hi"), 1j),))),
    (ManufacturedSolution, ("axes", "fields"),
     lambda: ManufacturedSolution.scalar(("x",), "x^2"),
     lambda: ManufacturedSolution.scalar(("x",), "x^3")),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, fields, make, other", RECORDS, ids=IDS)
def test_record_repr_lists_its_fields(cls, fields, make, other):
    record = make()
    assert type(record) is cls
    assert repr(record) == cls.__name__ + "(" + ", ".join(
        f"{name}={getattr(record, name)!r}" for name in fields) + ")"


@pytest.mark.parametrize("cls, fields, make, other", RECORDS, ids=IDS)
def test_record_is_the_tuple_of_its_fields(cls, fields, make, other):
    record = make()
    assert isinstance(record, tuple)
    assert record == tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("cls, fields, make, other", RECORDS, ids=IDS)
def test_record_equality_and_hash(cls, fields, make, other):
    record, copy, changed = make(), make(), other()
    assert record is not copy
    assert record == copy and not record != copy
    assert record != changed and not record == changed
    values = tuple(getattr(record, name) for name in fields)
    if cls is CatalogCase:  # its params are a dict
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(copy) == hash(values)
        assert len({record, copy, changed}) == 2


@pytest.mark.parametrize("cls, fields, make, other", RECORDS, ids=IDS)
def test_record_is_immutable(cls, fields, make, other):
    record = make()
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert tuple(getattr(record, name) for name in fields) == tuple(
        getattr(make(), name) for name in fields)


@pytest.mark.parametrize("cls, fields, make, other", RECORDS, ids=IDS)
def test_record_copies_and_pickles(cls, fields, make, other):
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_leaf_record_reprs_pinned():
    assert repr(PairTerm(BRACKET, Poly.const(2), MultiIndex((1, 0)),
                         MultiIndex((0, 1)), 0, 1)) == (
        "PairTerm(kind='bracket', coeff=Poly(2), alpha=(1, 0), beta=(0, 1), "
        "left_field=0, right_field=1)")
    assert repr(TermPlan((0,), (1,), ((0, 1),))) == (
        "TermPlan(path=(0,), transfer=(1,), exchanges=((0, 1),))")
    assert repr(TermPlan()) == "TermPlan(path=(), transfer=(), exchanges=())"
    assert repr(QuadratureSpec()) == "QuadratureSpec(nodes=20)"
    assert repr(ResidualReport(1 + 2j, 3.0, ((("x", "hi"), 1j),))) == (
        "ResidualReport(residual=(1+2j), scale=3.0, "
        "face_integrals=((('x', 'hi'), 1j),))")
    assert repr(ManufacturedSolution.scalar(("x",), "x^2")) == (
        "ManufacturedSolution(axes=('x',), fields=(ExpPoly(axes=('x',), "
        "terms=(((2,), (0j,), (1+0j)),)),))")


def test_record_defaults():
    assert TermPlan() == TermPlan((), (), ())
    assert QuadratureSpec().nodes == 20
    dec = _heat_form()
    bare = DivergenceDecomposition(dec.axes, dec.fluxes, None)
    assert bare.plan is None and bare.verified is False
    assert ConstraintVariety(("s",), Poly.var("s")).solved == ()


def test_pair_term_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown pairing kind 'bogus'"):
        PairTerm("bogus", Poly.const(1), MultiIndex((1,)), MultiIndex((0,)))
    assert PairTerm(BRACE, Poly.const(1), MultiIndex((1,)),
                    MultiIndex((0,))).kind == BRACE


def test_term_plan_coerces_its_parts_to_tuples():
    plan = TermPlan([0], [1], [[0, 1]])
    assert plan == TermPlan((0,), (1,), ((0, 1),))
    assert hash(plan) == hash(TermPlan((0,), (1,), ((0, 1),)))
    assert plan.path == (0,) and type(plan.path) is tuple
    assert plan.exchanges == ((0, 1),) and type(plan.exchanges[0]) is tuple
    assert TermPlan(path=iter([2, 1])).path == (2, 1)


def _plan_refusal(text: str, plan: DecompositionPlan) -> str:
    """The PlanError text of decompose on the operator `text` under `plan`."""
    with pytest.raises(PlanError) as refused:
        decompose(parse_operator(text), plan)
    return str(refused.value)


MISSED = "no plan for operator term {}"
LACKED = "plan names operator term {}, which the operator lacks"


def test_decomposition_plan_sorts_its_items():
    first = ((0, 0, MultiIndex((0, 2))), TermPlan((1,)))
    second = ((0, 0, MultiIndex((2, 0))), TermPlan((0,)))
    plan = DecompositionPlan((second, first))
    assert plan.items == (first, second)
    assert plan == DecompositionPlan((first, second))
    assert hash(plan) == hash(DecompositionPlan((first, second)))
    # decompose matches the items to the operator's terms by key, in
    # either order of the terms
    for text in ("axes x,y; Dx^2 + Dy^2", "axes x,y; Dy^2 + Dx^2"):
        assert decompose(parse_operator(text), plan).plan == plan
    # a term below, between or above the planned keys has no plan, and
    # that is found before an item left over
    for text, key in (("axes x,y; Dy", "(0, 0, (0, 1))"),
                      ("axes x,y; Dx^2 + Dx*Dy + Dy^2", "(0, 0, (1, 1))"),
                      ("axes x,y; Dx^3 + Dy^2", "(0, 0, (3, 0))")):
        assert _plan_refusal(text, plan) == MISSED.format(key)
    assert (_plan_refusal("axes x,y; Dx^2", DecompositionPlan(()))
            == MISSED.format("(0, 0, (2, 0))"))
    # an item for a term the operator lacks is refused, not ignored
    assert _plan_refusal("axes x,y; Dy^2", plan) == LACKED.format("(0, 0, (2, 0))")
    assert _plan_refusal("axes x,y; Dx^2", plan) == LACKED.format("(0, 0, (0, 2))")
    assert _plan_refusal("axes x,y; 0", plan) == LACKED.format("(0, 0, (0, 2))")


def test_matrix_plan_items_match_by_row_and_col():
    # a 2x2 operator's terms are keyed by (row, col, alpha): an item with
    # the right alpha at another entry matches nothing
    text = json.dumps({"axes": ["x", "y"], "fields": ["u", "v"],
                       "entries": [["Dx^2", "0"], ["0", "Dy^2"]]})
    top = ((0, 0, (2, 0)), TermPlan((0,)))
    bottom = ((1, 1, (0, 2)), TermPlan((1,)))
    assert decompose(parse_operator(text), DecompositionPlan((bottom, top))).verified
    moved = ((1, 0, (0, 2)), TermPlan((1,)))
    assert (_plan_refusal(text, DecompositionPlan((top, moved)))
            == MISSED.format("(1, 1, (0, 2))"))
    for extra in (((0, 1, (2, 0)), TermPlan((0,))), ((1, 0, (2, 0)), TermPlan((0,)))):
        assert (_plan_refusal(text, DecompositionPlan((top, bottom, extra)))
                == LACKED.format(extra[0]))


def test_decomposition_plan_refuses_a_term_named_twice():
    key = (0, 0, MultiIndex((2, 0)))
    with pytest.raises(PlanError, match="names operator term .* twice"):
        DecompositionPlan(((key, TermPlan((0,))), (key, TermPlan((1,)))))
    with pytest.raises(PlanError, match="names operator term .* twice"):
        DecompositionPlan(((key, TermPlan((0,))), (key, TermPlan((0,)))))
    # the repeat is found wherever it stands in the input
    other = ((0, 0, MultiIndex((1, 1))), TermPlan((), (0,), ()))
    with pytest.raises(PlanError,
                       match=r"names operator term \(0, 0, \(2, 0\)\) twice"):
        DecompositionPlan(((key, TermPlan((0,))), other, (key, TermPlan((1,)))))
    # a plain tuple and a MultiIndex name the same term
    with pytest.raises(PlanError, match="twice"):
        DecompositionPlan(((key, TermPlan((0,))), ((0, 0, (2, 0)), TermPlan((0,)))))


def test_make_and_replace_go_through_the_checked_constructor():
    # NamedTuple's own _make and _replace build with tuple.__new__; each
    # checked record routes them through its constructor instead
    spec = QuadratureSpec(20)
    for bad in (0, MAX_NODES + 1):
        with pytest.raises(ValueError, match="quadrature"):
            spec._replace(nodes=bad)
        with pytest.raises(ValueError, match="quadrature"):
            QuadratureSpec._make([bad])
    assert spec._replace(nodes=8) == QuadratureSpec._make([8]) == (8,)
    assert type(spec._replace(nodes=8)) is QuadratureSpec

    pair = PairTerm(BRACKET, Poly.const(2), MultiIndex((1, 0)),
                    MultiIndex((0, 1)))
    with pytest.raises(ValueError, match="unknown pairing kind 'bogus'"):
        pair._replace(kind="bogus")
    with pytest.raises(ValueError, match="unknown pairing kind 'bogus'"):
        PairTerm._make(("bogus", *pair[1:]))
    assert pair._replace(kind=BRACE) == PairTerm(BRACE, *pair[1:])
    assert PairTerm._make(pair) == pair and type(PairTerm._make(pair)) is PairTerm

    plan = TermPlan._make(([0], iter([1]), [[0, 1]]))
    assert plan == TermPlan([0], [1], [[0, 1]]) == ((0,), (1,), ((0, 1),))
    assert type(plan.path) is type(plan.transfer) is tuple
    assert type(plan.exchanges[0]) is tuple
    replaced = plan._replace(exchanges=[[1, 0]])
    assert replaced.exchanges == ((1, 0),) and type(replaced.exchanges[0]) is tuple

    first = ((0, 0, MultiIndex((0, 2))), TermPlan((1,)))
    second = ((0, 0, MultiIndex((2, 0))), TermPlan((0,)))
    for built in (DecompositionPlan._make([(second, first)]),
                  DecompositionPlan(())._replace(items=(second, first))):
        assert built == DecompositionPlan((first, second))
        assert built.items == (first, second)
        assert decompose(parse_operator("axes x,y; Dx^2 + Dy^2"), built).plan == built
        assert (_plan_refusal("axes x,y; Dy^2", built)
                == LACKED.format("(0, 0, (2, 0))"))
        assert (_plan_refusal("axes x,y; Dx^2 + Dx*Dy", built)
                == MISSED.format("(0, 0, (1, 1))"))
    with pytest.raises(PlanError, match="twice"):
        DecompositionPlan._make([(first, second, first)])
    with pytest.raises(PlanError, match="twice"):
        DecompositionPlan(())._replace(items=(first, first))
    # a wrong field name is still refused, as NamedTuple refuses it
    with pytest.raises(ValueError, match="unexpected field"):
        spec._replace(node=3)


def _checked_rebuild(op: Operator) -> Operator:
    """`op` built again through the checked constructors."""
    if isinstance(op, ScalarPDO):
        return ScalarPDO(op.axes, op.terms)
    return MatrixPDO(op.axes, op.fields, [[_checked_rebuild(entry) for entry in row]
                                          for row in op.entries])


def _checked_adjoint(op: Operator) -> Operator:
    """The formal adjoint from its definition, through the checked
    constructors: (-1)^|alpha| on each coefficient, the grid transposed."""
    rows = grid(op)
    entries = [[ScalarPDO(op.axes, [(alpha, -coeff if alpha.order % 2 else coeff)
                                    for alpha, coeff in rows[j][i].terms])
                for j in range(len(rows))] for i in range(len(rows))]
    if isinstance(op, ScalarPDO):
        return entries[0][0]
    return MatrixPDO(op.axes, op.fields, entries)


def _assert_canonical(op: Operator, expected: Operator) -> None:
    # == alone takes a tuple for a MultiIndex and an int for a Poly
    assert type(op) is type(expected) and type(op.axes) is tuple
    for got, want in zip((e for row in grid(op) for e in row),
                         (e for row in grid(expected) for e in row)):
        assert got == want and type(got.axes) is type(got.terms) is tuple
        for alpha, coeff in got.terms:
            assert type(alpha) is MultiIndex and type(coeff) is Poly
            assert all(type(entry) is int for entry in alpha)
    assert op == expected


def test_trusted_constructions_are_canonical_and_stay_trusted(monkeypatch, capsys):
    # the parser's expansions, adjoint and the engine's plans skip the
    # checked constructors; each must equal its checked rebuild
    rng = random.Random(36)
    coupled = json.dumps({"axes": ["x", "y"], "fields": ["u", "v"],
                          "entries": [["Dx*Dy", "Dx"], ["2*Dy", "Dx^2*Dy^2 + Dx*Dy"]]})
    catalog = (WAVE_TEXT, HEAT_TEXT, BIHARMONIC_TEXT, TRIPLE_PRODUCT_TEXT)
    texts = [*catalog, json.dumps(STOKES_JSON), coupled]
    texts += [format_operator(random_operator(rng, with_params=k % 2 == 1))
              for k in range(200)]
    for text in texts:
        op = parse_operator(text)
        _assert_canonical(op, _checked_rebuild(op))
        _assert_canonical(adjoint(op), _checked_adjoint(op))
        plan = default_plan(op)
        assert type(plan) is DecompositionPlan and plan == DecompositionPlan(plan.items)
        if count_forms(op) <= 24:
            for plan in enumerate_plans(op):
                assert plan == DecompositionPlan(plan.items)

    # with the checked constructors refusing, the calls of the CLI
    # benchmark on the catalog operators still succeed
    def refuse(*args, **kwargs):
        raise AssertionError("checked constructor called on engine-built input")

    monkeypatch.setattr(ScalarPDO, "__post_init__", refuse)
    monkeypatch.setattr(MultiIndex, "__new__", refuse)
    monkeypatch.setattr(DecompositionPlan, "__new__", refuse)
    for make in (lambda: MultiIndex((1,)), lambda: DecompositionPlan(()),
                 lambda: ScalarPDO(("x",), ())):
        with pytest.raises(AssertionError, match="checked constructor"):
            make()
    argvs = [["stokes", "--format", fmt] for fmt in FORMATS]
    argvs += [[sub, "--op", json.dumps(STOKES_JSON), "--format", fmt]
              for fmt in FORMATS for sub in ("decompose", "count")]
    for text in catalog:
        argvs.append(["enumerate", "--op", text, "--format", "json"])
        argvs += [[sub, "--op", text, "--format", fmt] for fmt in FORMATS
                  for sub in ("decompose", "count", "constraint", "global-relation",
                              "represent")]
    for argv in argvs:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""


def test_manufactured_solution_is_unchanged_by_a_trace():
    used = ManufacturedSolution.scalar(("x", "t"), "x^3*t + exp(x)")
    fresh = ManufacturedSolution.scalar(("x", "t"), "x^3*t + exp(x)")
    before = repr(used)
    assert used == fresh and hash(used) == hash(fresh)
    used.trace(0, (2, 1))
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == before == repr(fresh)
    # the benchmark's tracer wraps trace in the class dict
    assert "trace" in vars(ManufacturedSolution)


# 1024 distinct second-order terms on 64 axes: the first 1024 pairs (i, j),
# i <= j, in lexicographic order, with coefficients 1, 2, 3, 1, 2, 3, ...
WIDE_AXES = tuple(f"a{k}" for k in range(64))
WIDE_DIGEST = "a7483a9839c5cfe62733835d3eb3710855546af16c3fcd02b3aba95896eb8d0b"


def _wide_operator() -> ScalarPDO:
    pairs = [(i, j) for i in range(64) for j in range(i, 64)][:1024]
    terms = []
    for n, (i, j) in enumerate(pairs):
        alpha = [0] * 64
        alpha[i] += 1
        alpha[j] += 1
        terms.append((MultiIndex(alpha), Poly.const(1 + n % 3)))
    return ScalarPDO(WIDE_AXES, tuple(terms))


def test_wide_decomposition_unchanged():
    dec = decompose(_wide_operator())
    assert dec.verified and len(dec.plan.items) == 1024
    text = emit.to_pretty_json(emit.decomposition_json(dec))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == WIDE_DIGEST
