import random
from datetime import timedelta
from fractions import Fraction
from math import gcd

import pytest

from conftest import random_gaussian, random_poly
from oracles import evaluate_exact, substitute
from fundform.ring import GaussianRational, Poly, QI_I, QI_ONE

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property below needs hypothesis
    st = None


def test_gaussian_exactness():
    third = GaussianRational(Fraction(1, 3))
    sixth = GaussianRational(Fraction(1, 6))
    assert third + sixth == GaussianRational(Fraction(1, 2))
    assert QI_I * QI_I == GaussianRational(-1)
    assert (QI_ONE / GaussianRational(3)) * GaussianRational(3) == QI_ONE


def test_gaussian_division_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        a = random_gaussian(rng)
        b = random_gaussian(rng)
        assert (a / b) * b == a


def test_gaussian_pow_and_conjugate():
    z = GaussianRational(Fraction(1, 2), Fraction(3))
    assert z ** 0 == QI_ONE
    assert z ** 3 == z * z * z
    assert z ** -1 == QI_ONE / z
    # the product with the conjugate is |z|^2
    assert z * GaussianRational(z.re, -z.im) == GaussianRational(z.re ** 2 + z.im ** 2)


def test_gaussian_text():
    assert GaussianRational(0).to_text() == "0"
    assert GaussianRational(Fraction(-1, 2)).to_text() == "-1/2"
    assert QI_I.to_text() == "i"
    assert (-QI_I).to_text() == "-i"
    assert GaussianRational(1, 2).to_text() == "(1+2i)"


def test_poly_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        a = random_poly(rng, ("nu", "s1"))
        b = random_poly(rng, ("nu", "s1"))
        c = random_poly(rng, ("nu", "s1"))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + Poly() == a
        assert a * Poly.const(1) == a
        assert (a * Poly()).is_zero


def test_poly_substitute_vs_exact_eval():
    rng = random.Random(3)
    for _ in range(30):
        p = random_poly(rng, ("u", "v"), max_terms=4)
        value_u = random_gaussian(rng)
        value_v = random_gaussian(rng)
        substituted = substitute(p, {"u": Poly.const(value_u),
                                     "v": Poly.const(value_v)})
        assert substituted.is_constant
        assert substituted.constant_value() == evaluate_exact(
            p, {"u": value_u, "v": value_v}
        )


def test_poly_coeffs_by_power():
    s = Poly.var("s")
    t = Poly.var("t")
    p = s * s * t - s * s + t * t + Poly.const(5)
    parts = p.coeffs_by_power("s")
    assert parts[2] == t - Poly.const(1)
    assert parts[0] == t * t + Poly.const(5)
    reassembled = sum(
        (part * Poly.var("s", exp) if exp else part for exp, part in parts.items()),
        Poly(),
    )
    assert reassembled == p


def test_poly_proportional_to():
    s = Poly.var("s")
    p = s * s - Poly.const(2)
    assert p.proportional_to(p.scale(GaussianRational(Fraction(-3, 7))))
    assert not p.proportional_to(s * s + Poly.const(2))
    assert Poly().proportional_to(Poly())
    assert not p.proportional_to(Poly())


def test_poly_degree_and_variables():
    p = Poly.var("s1", 3) * Poly.var("nu") + Poly.var("s2")
    assert p.variables() == ("nu", "s1", "s2")


def test_poly_text_deterministic():
    p = Poly.var("s0", 2).scale(-1) + Poly.var("s1", 2) * Poly.var("s2", 2)
    assert p.to_text() == "-s0^2 + s1^2*s2^2"
    assert (Poly.const(QI_I) * Poly.var("k")).to_text() == "i*k"


def test_poly_negative_power_rejected():
    with pytest.raises(ValueError):
        Poly.var("s") ** -1


def _assert_canonical(poly):
    """Sorted monomials, no zero coefficient, and each coefficient stored
    as (a + b*i) / d with d > 0 and gcd(a, b, d) == 1."""
    monos = [mono for mono, _ in poly.terms]
    assert monos == sorted(set(monos))
    for _, coeff in poly.terms:
        assert coeff and coeff._d > 0 and gcd(coeff._a, coeff._b, coeff._d) == 1


def test_one_term_sum_that_cancels_is_zero():
    rng = random.Random(17)
    for mono in ((), (("nu", 2),), (("k", 1), ("nu", 1))):
        for _ in range(20):
            z = random_gaussian(rng)
            p = Poly([(mono, z)])
            for total in (p + Poly([(mono, -z)]), p - p, -p + p, p + (-p)):
                assert total == Poly() and not total and total.is_zero
                assert total.terms == () and hash(total) == hash(Poly())
                assert total + p == p and p + total == p
    assert Poly.const(2) + (-2) == 0 and not Poly.var("nu") - Poly.var("nu")


def test_one_term_sums_with_mixed_denominators_stay_canonical():
    rng = random.Random(19)
    for _ in range(300):
        a, b = random_gaussian(rng, span=12), random_gaussian(rng, span=12)
        for mono in ((), (("nu", 1),)):
            total = Poly([(mono, a)]) + Poly([(mono, b)])
            # the public constructor reduces the Fraction parts itself
            expect = Poly([(mono, GaussianRational(a.re + b.re, a.im + b.im))])
            assert total == expect and hash(total) == hash(expect)
            _assert_canonical(total)
            _assert_canonical(-total)
            assert -total == Poly([(mono, GaussianRational(-(a.re + b.re),
                                                           -(a.im + b.im)))])
            assert -(-total) == total
        _assert_canonical(Poly.const(a) + Poly.var("nu") * b)


def _counting(monkeypatch, cls):
    calls = []
    original = cls.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counted)
    return calls


@pytest.mark.parametrize("n", range(1, 10))
def test_power_squares_from_its_base(monkeypatch, n):
    """bit_length - 1 squarings and one product per further set bit."""
    base = Poly.var("s1") + Poly.var("s2")
    chain = base
    for _ in range(n - 1):
        chain = chain * base
    z = GaussianRational(3, 4)
    z_chain = z
    for _ in range(n - 1):
        z_chain = z_chain * z
    products = n.bit_length() - 1 + bin(n).count("1") - 1
    calls = _counting(monkeypatch, Poly)
    assert base ** n == chain
    assert len(calls) == products
    calls = _counting(monkeypatch, GaussianRational)
    assert z ** n == z_chain
    assert len(calls) == products


# Reference model: a Gaussian rational as a pair of Fractions (re, im), with
# the arithmetic and text of the Fraction-pair representation.

def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    if norm == 0:
        raise ZeroDivisionError
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def _ref_pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _ref_mul(out, x)
    return _ref_div((Fraction(1), Fraction(0)), out) if n < 0 else out


def _ref_text(x):
    re, im = x
    if re == 0 and im == 0:
        return "0"
    if im == 0:
        return str(re)
    if re == 0:
        return "i" if im == 1 else "-i" if im == -1 else f"{im}i"
    mag = abs(im)
    return f"({re}{'+' if im > 0 else '-'}{'i' if mag == 1 else f'{mag}i'})"


def _check_against(z, ref):
    re, im = ref
    assert (z.re, z.im) == (re, im)
    a, b, d = z._a, z._b, z._d  # the stored (a + b*i) / d
    assert d > 0 and gcd(a, b, d) == 1
    rebuilt = GaussianRational(re, im)
    assert rebuilt == z and hash(rebuilt) == hash(z)
    assert z.to_text() == _ref_text(ref)
    c, expected = complex(z), complex(float(re), float(im))
    assert (c.real.hex(), c.imag.hex()) == (expected.real.hex(), expected.imag.hex())


if st is None:
    def test_gaussian_rational_matches_fraction_pairs():
        pytest.skip("hypothesis is not installed")
else:
    _parts = st.one_of(
        st.integers(-3, 3).map(Fraction),
        st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6)),
    )
    _pairs = st.tuples(_parts, _parts)

    @settings(max_examples=400, deadline=timedelta(seconds=5), derandomize=True)
    @given(_pairs, _pairs, st.integers(-3, 4))
    def test_gaussian_rational_matches_fraction_pairs(x, y, n):
        gx, gy = GaussianRational(*x), GaussianRational(*y)
        _check_against(gx, x)
        _check_against(gx + gy, (x[0] + y[0], x[1] + y[1]))
        _check_against(gx - gy, (x[0] - y[0], x[1] - y[1]))
        _check_against(gx * gy, _ref_mul(x, y))
        _check_against(-gx, (-x[0], -x[1]))
        _check_against(gx + y[0], (x[0] + y[0], x[1]))
        _check_against(y[0] * gx, (y[0] * x[0], y[0] * x[1]))
        assert (gx == gy) == (x == y)
        if y == (0, 0):
            with pytest.raises(ZeroDivisionError):
                gx / gy
        else:
            _check_against(gx / gy, _ref_div(x, y))
        if x == (0, 0) and n < 0:
            with pytest.raises(ZeroDivisionError):
                gx ** n
        else:
            _check_against(gx ** n, _ref_pow(x, n))
