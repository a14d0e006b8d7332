import math
import random
from datetime import timedelta
from fractions import Fraction

import pytest

from conftest import random_bilinear, random_gaussian, random_multiindex, random_poly
from oracles import brace, bracket, decr, incr, term, term_key
from fundform.algebra import (
    BilinearExpr,
    BilinearTerm,
    MultiIndex,
    divergence,
    expr_sum,
    pack,
    partial,
    product_rule,
)
from fundform.ring import P_ONE, GaussianRational, Poly

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property below needs hypothesis
    st = None


def keys(expr):
    return {(t.left_field, t.right_field, tuple(t.left), tuple(t.right)): t.coeff
            for t in expr}


def test_multiindex_basics():
    a = MultiIndex((2, 0, 1))
    assert a.order == 3
    assert a.odd_axes() == (2,)
    assert a.half() == MultiIndex((1, 0, 0))
    assert incr(a, 1) == MultiIndex((2, 1, 1))
    assert a + MultiIndex((0, 1, 0)) == MultiIndex((2, 1, 1))
    with pytest.raises(ValueError):
        MultiIndex((-1, 0))
    with pytest.raises(ValueError):
        a + MultiIndex((1, 2))
    with pytest.raises(ValueError):
        decr(a, 1)


def test_bracket_wave_style_term():
    expr = bracket((2, 0), (0, 0))
    assert keys(expr) == {
        (0, 0, (2, 0), (0, 0)): Poly.const(1),
        (0, 0, (0, 0), (2, 0)): Poly.const(-1),
    }


def test_bracket_antisymmetry_diagonal():
    assert bracket((1, 2), (1, 2)).is_zero


def test_bracket_mixed_axes():
    expr = bracket((1, 0), (0, 1))
    assert keys(expr) == {
        (0, 0, (1, 0), (0, 1)): Poly.const(1),
        (0, 0, (0, 1), (1, 0)): Poly.const(-1),
    }


def test_brace_first_order():
    expr = brace((1, 0, 0), (0, 0, 0))
    assert keys(expr) == {
        (0, 0, (1, 0, 0), (0, 0, 0)): Poly.const(1),
        (0, 0, (0, 0, 0), (1, 0, 0)): Poly.const(1),
    }


def test_brace_diagonal_doubles():
    expr = brace((1, 1), (1, 1))
    assert keys(expr) == {(0, 0, (1, 1), (1, 1)): Poly.const(2)}


def test_brace_symmetry_canonical():
    assert brace((0, 1), (1, 0)) == brace((1, 0), (0, 1))


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket((1, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        brace((1,), (0, 0))


def test_partial_product_rule():
    qq = BilinearExpr([term(1, (0, 0), (0, 0))])
    assert keys(partial(qq, 0)) == {
        (0, 0, (1, 0), (0, 0)): Poly.const(1),
        (0, 0, (0, 0), (1, 0)): Poly.const(1),
    }


def test_partial_of_doubled_brace():
    # d_k {0,0} = d_k(2 q qt) = 2(q_k qt + q qt_k)
    assert partial(brace((0, 0), (0, 0)), 1) == brace((0, 1), (0, 0)).scale(2)


def test_partial_cross_terms_cancel():
    # hand expansion: d_x(qt q_x - q qt_x) leaves qt q_xx - q qt_xx
    expected = BilinearExpr([
        term(1, (2, 0), (0, 0)),
        term(-1, (0, 0), (2, 0)),
    ])
    assert partial(bracket((1, 0), (0, 0)), 0) == expected


def test_partial_axis_range():
    expr = bracket((1, 0), (0, 0))
    with pytest.raises(ValueError):
        partial(expr, 2)
    with pytest.raises(ValueError):
        partial(expr, -1)
    assert partial(BilinearExpr(), 5).is_zero


def test_partials_commute_randomized():
    rng = random.Random(23)
    for _ in range(40):
        expr = random_bilinear(rng, 3)
        assert partial(partial(expr, 0), 2) == partial(partial(expr, 2), 0)
        assert partial(partial(expr, 1), 1) == partial(partial(expr, 1), 1)


def test_pairing_symmetries_randomized():
    rng = random.Random(5)
    for _ in range(40):
        a = random_multiindex(rng, 3, 4)
        b = random_multiindex(rng, 3, 4)
        assert bracket(a, b) == -bracket(b, a)
        assert brace(a, b) == brace(b, a)


def test_canonical_idempotence_randomized():
    rng = random.Random(9)
    for _ in range(30):
        expr = random_bilinear(rng, 2)
        shuffled = list(expr.terms) * 2
        rng.shuffle(shuffled)
        doubled = BilinearExpr(shuffled)
        assert doubled == expr.scale(2)
        assert BilinearExpr(doubled.terms) == doubled


def test_expr_arithmetic():
    a = bracket((1, 0), (0, 0))
    b = brace((0, 1), (0, 0))
    assert a + b - a == b
    assert (a - a).is_zero
    assert a.scale(0).is_zero
    assert (-a) + a == BilinearExpr()


def test_expr_dimension_mixing_rejected():
    a = bracket((1, 0), (0, 0))
    b = bracket((1, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        BilinearExpr(list(a.terms) + list(b.terms))


def test_zero_coefficient_terms_dropped():
    expr = BilinearExpr([
        term(1, (1, 0), (0, 0)),
        term(-1, (1, 0), (0, 0)),
    ])
    assert expr.is_zero
    assert not expr


def test_divergence_helper():
    fluxes = [bracket((0, 1), (0, 0)), brace((1, 0), (0, 0))]
    assert divergence(fluxes) == partial(fluxes[0], 0) + partial(fluxes[1], 1)


def test_expr_sum_small_cases():
    a = bracket((1, 0), (0, 0))
    b = brace((0, 1), (0, 0))
    assert expr_sum([]) == BilinearExpr()
    assert expr_sum([a]) == a
    assert expr_sum([a, b, -a]) == b
    assert expr_sum(iter([a, BilinearExpr(), b])) == a + b


def test_negated_matches_scaled_minus_one_seeded():
    # Gaussian-rational and parameter coefficients alike
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 4)
        coeff = (Poly.const(random_gaussian(rng)) if rng.random() < 0.5
                 else random_poly(rng, names=("nu", "mu")))
        t = BilinearTerm(coeff, rng.randint(0, 2), random_multiindex(rng, n, 4),
                         rng.randint(0, 2), random_multiindex(rng, n, 4))
        negated = t._replace(coeff=-t.coeff)
        assert type(negated) is BilinearTerm
        flipped = BilinearTerm(t.coeff * -1, *t[1:])
        assert negated == flipped and hash(negated) == hash(flipped)
        assert negated._replace(coeff=-negated.coeff) == t
        expr = BilinearExpr([t])
        assert -expr == expr.scale(-1) and (-expr + expr).is_zero


def test_expr_sum_of_one_nonzero_operand_matches_fold_seeded():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(1, 4)
        lone = random_bilinear(rng, n)
        exprs = [BilinearExpr() for _ in range(rng.randint(0, 3))]
        exprs.insert(rng.randint(0, len(exprs)), lone)
        fold = BilinearExpr()
        for expr in exprs:
            fold = fold + expr
        total = expr_sum(iter(exprs))
        assert total == fold and hash(total) == hash(fold)
        assert total.terms == fold.terms
    # two nonzero operands of different dimensions still meet the merge
    with pytest.raises(ValueError):
        expr_sum([BilinearExpr(), bracket((1, 0), (0, 0)),
                  bracket((1, 0, 0), (0, 0, 0))])


def test_packed_width_refused_never_carried():
    # one byte per entry: 255 packs, 256 is refused, fields alike
    assert term(1, (255,), (0,)).left == (255,)
    for bad in (dict(left=(256,), right=(0,)), dict(left=(0,), right=(256,))):
        with pytest.raises(ValueError, match="0..255"):
            term(1, **bad)
    with pytest.raises(ValueError, match="0..255"):
        term(1, (0,), (0,), left_field=256)
    with pytest.raises(ValueError, match="0..255"):
        BilinearExpr([BilinearTerm(P_ONE, 0, MultiIndex((256, 0)), 0,
                                   MultiIndex((0, 0)))])
    # 255 derivatives of q qt give the binomial row; the 256th would carry
    # the top entry into the test field, and is refused instead
    expr = BilinearExpr([term(1, (0,), (0,))])
    for _ in range(255):
        expr = partial(expr, 0)
    assert keys(expr) == {(0, 0, (255 - j,), (j,)): Poly.const(math.comb(255, j))
                          for j in range(256)}
    with pytest.raises(ValueError, match="packed width"):
        partial(expr, 0)
    with pytest.raises(ValueError, match="packed width"):
        product_rule(expr, 0)


def test_equality_includes_the_dimension():
    # q_x qt on one axis and q qt_x on two pack to the same key
    one = BilinearExpr([term(1, (1,), (0,))])
    two = BilinearExpr([term(1, (0, 0), (1, 0))])
    assert [key for key, _ in pack(one.terms)] == [0x100]
    assert [key for key, _ in pack(two.terms)] == [0x100]
    assert one != two and not one == two
    assert one.dimension == 1 and two.dimension == 2
    for bad in ([one, two], [two, one]):
        with pytest.raises(ValueError):
            expr_sum(bad)
        with pytest.raises(ValueError):
            bad[0] + bad[1]
    # zero expressions have no dimension, whatever they came from
    zeros = [BilinearExpr(), one - one, two - two, partial(BilinearExpr(), 3),
             two.scale(0), expr_sum([])]
    assert all(z == BilinearExpr() and hash(z) == hash(BilinearExpr())
               and z.dimension is None for z in zeros)


def _reference_sum(terms) -> dict:
    """Coefficient per (fields, indices) key with zero sums dropped,
    written without the engine's merge."""
    acc = {}
    for t in terms:
        key = (t.left_field, t.right_field, tuple(t.left), tuple(t.right))
        acc[key] = acc.get(key, Poly()) + t.coeff
    return {key: c for key, c in acc.items() if not c.is_zero}


def _reference_divergence(fluxes) -> dict:
    def bump(index, k):
        return tuple(e + (i == k) for i, e in enumerate(index))

    terms = []
    for k, flux in enumerate(fluxes):
        for c, lf, left, rf, right in flux:
            terms.append(term(c, bump(left, k), right, lf, rf))
            terms.append(term(c, left, bump(right, k), lf, rf))
    return _reference_sum(terms)


def _as_dict(expr) -> dict:
    return {(t.left_field, t.right_field, tuple(t.left), tuple(t.right)): t.coeff
            for t in expr}


if st is None:
    def test_expr_sum_matches_fold_and_reference():
        pytest.skip("hypothesis is not installed")
else:
    _fraction = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    _scalar = st.builds(GaussianRational, _fraction, _fraction)
    # coefficients in Q(i)[nu]: non-integer, imaginary and zero parts
    _coeff = st.lists(st.tuples(st.integers(0, 2), _scalar), min_size=1,
                      max_size=2).map(
        lambda parts: Poly([((("nu", e),) if e else (), c) for e, c in parts]))

    @st.composite
    def _expr_family(draw):
        """Expressions of one dimension drawn from a shared pool of terms,
        each taken with either sign, so that sums cancel."""
        n = draw(st.integers(1, 3))
        index = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(MultiIndex)
        field = st.integers(0, 1)
        pool = draw(st.lists(st.builds(BilinearTerm, _coeff, field, index, field,
                                       index), min_size=1, max_size=6))
        picks = st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([1, -1])),
                         max_size=6)
        exprs = [BilinearExpr([t if sign > 0 else t._replace(coeff=-t.coeff)
                               for t, sign in draw(picks)])
                 for _ in range(draw(st.integers(0, 4)))]
        return n, exprs

    @settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True)
    @given(_expr_family())
    def test_expr_sum_matches_fold_and_reference(family):
        n, exprs = family
        total = expr_sum(exprs)
        fold = BilinearExpr()
        for expr in exprs:
            fold = fold + expr
        assert total == fold and hash(total) == hash(fold)
        assert _as_dict(total) == _reference_sum(t for e in exprs for t in e)
        keys = [term_key(t) for t in total]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

        fluxes = exprs[:n]
        fold = BilinearExpr()
        for k, flux in enumerate(fluxes):
            fold = fold + partial(flux, k)
        assert divergence(fluxes) == fold
        assert _as_dict(fold) == _reference_divergence(fluxes)

        other = BilinearExpr([term(1, (0,) * (n + 1), (0,) * (n + 1))])
        nonzero = [e for e in exprs if e]
        if nonzero:
            with pytest.raises(ValueError):
                expr_sum(nonzero + [other])
            with pytest.raises(ValueError):
                nonzero[0] + other
            with pytest.raises(ValueError):
                divergence([nonzero[0], other])

        # merged terms are rebuilt as tuples; they must behave as the
        # positionally built terms they stand for
        for t in total:
            rebuilt = BilinearTerm(t.coeff, t.left_field, t.left, t.right_field,
                                   t.right)
            assert type(t) is BilinearTerm
            assert rebuilt == t and hash(rebuilt) == hash(t)
            assert BilinearTerm(*t) == t and term_key(rebuilt) == term_key(t)
            doubled = t._replace(coeff=t.coeff * 2)
            assert doubled != t and len({rebuilt, t, doubled}) == 2


if st is None:
    def test_packed_keys_keep_tuple_order_and_round_trip():
        pytest.skip("hypothesis is not installed")
else:
    @st.composite
    def _tuple_keys(draw):
        """Keys (left_field, right_field, left, right) of 1-64 axes, with
        entries up to MAX_ORDER + 1 and fields up to 31, and one axis.  The
        keys edit a few entries of one base, so that they share long
        prefixes and compare deep into their entries."""
        n = draw(st.integers(1, 64))
        base = draw(st.lists(st.integers(0, 33), min_size=2 * n, max_size=2 * n))
        edits = st.lists(st.tuples(st.integers(0, 2 * n - 1), st.integers(0, 33)),
                         max_size=3)
        field = st.integers(0, 31)
        keys = []
        for lf, rf, changes in draw(st.lists(st.tuples(field, field, edits),
                                             min_size=1, max_size=8)):
            entries = list(base)
            for pos, value in changes:
                entries[pos] = value
            keys.append((lf, rf, MultiIndex(entries[:n]), MultiIndex(entries[n:])))
        return keys, draw(st.integers(0, n - 1))

    @settings(max_examples=300, deadline=timedelta(seconds=5), derandomize=True)
    @given(_tuple_keys())
    def test_packed_keys_keep_tuple_order_and_round_trip(drawn):
        keys, k = drawn
        terms = [BilinearTerm(P_ONE, lf, left, rf, right)
                 for lf, rf, left, right in keys]
        packed = [key for key, _ in pack(terms)]
        for a, pa in zip(keys, packed):
            for b, pb in zip(keys, packed):
                assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
        # merged in tuple order, unpacked to the keys they came from
        expr = BilinearExpr(terms)
        assert [term_key(t) for t in expr] == sorted(set(keys))
        assert all(t.coeff == Poly.const(keys.count(term_key(t))) for t in expr)
        assert all(type(t.left) is MultiIndex and type(t.right) is MultiIndex
                   for t in expr)
        # one derivative is a key plus a unit, in each slot
        lf, rf, left, right = keys[0]
        raised = pack([BilinearTerm(P_ONE, lf, incr(left, k), rf, right),
                       BilinearTerm(P_ONE, lf, left, rf, incr(right, k))])
        single = BilinearExpr(terms[:1])
        assert product_rule(single, k) == raised
        assert partial(single, k) == BilinearExpr(
            [term(1, incr(left, k), right, lf, rf),
             term(1, left, incr(right, k), lf, rf)])
        # an entry at 255 refuses the derivative instead of carrying it
        full = MultiIndex([255 if i == k else e for i, e in enumerate(left)])
        with pytest.raises(ValueError, match="packed width"):
            product_rule(BilinearExpr([term(1, full, right, lf, rf)]), k)
