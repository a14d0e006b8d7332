"""Shared generators for seeded randomized tests."""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import incr, scalar_operator
from fundform.algebra import BilinearExpr, BilinearTerm, MultiIndex
from fundform.operators import ScalarPDO
from fundform.ring import GaussianRational, Poly


def random_gaussian(rng: random.Random, span: int = 6) -> GaussianRational:
    def frac() -> Fraction:
        return Fraction(rng.randint(-span, span), rng.randint(1, 4))

    value = GaussianRational(frac(), frac() if rng.random() < 0.4 else 0)
    if value.is_zero:
        return GaussianRational(1)
    return value


def random_poly(rng: random.Random, names=("nu",), max_terms: int = 3,
                max_exp: int = 2) -> Poly:
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(
            (name, rng.randint(1, max_exp))
            for name in names if rng.random() < 0.5
        )
        terms.append((mono, random_gaussian(rng)))
    poly = Poly(terms)
    return poly if poly else Poly.const(1)


def random_multiindex(rng: random.Random, n: int, max_order: int = 6) -> MultiIndex:
    order = rng.randint(0, max_order)
    entries = [0] * n
    for _ in range(order):
        entries[rng.randrange(n)] += 1
    return MultiIndex(entries)


def random_bilinear(rng: random.Random, n: int, max_terms: int = 5,
                    max_order: int = 3) -> BilinearExpr:
    terms = [
        BilinearTerm(
            Poly.const(random_gaussian(rng)),
            0,
            random_multiindex(rng, n, max_order),
            0,
            random_multiindex(rng, n, max_order),
        )
        for _ in range(rng.randint(1, max_terms))
    ]
    return BilinearExpr(terms)


def random_operator(rng: random.Random, max_dim: int = 4, max_order: int = 6,
                    max_terms: int = 6, with_params: bool = False) -> ScalarPDO:
    n = rng.randint(1, max_dim)
    axes = tuple(f"x{k + 1}" for k in range(n))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = random_multiindex(rng, n, max_order)
        coeff = (
            random_poly(rng) if with_params
            else Poly.const(random_gaussian(rng))
        )
        terms[alpha] = terms.get(alpha, Poly()) + coeff
    op = scalar_operator(axes, terms)
    if op.is_zero:
        return scalar_operator(axes, {incr(MultiIndex.zero(n), 0): Poly.const(1)})
    return op


def _gaussian_integer(rng: random.Random, span: int = 2) -> GaussianRational:
    return GaussianRational(rng.randint(-span, span), rng.randint(-span, span))


def value_text(value) -> str:
    """An exact value as parenthesised text, a factor in operator and
    solution text alike."""
    return f"({Poly.coerce(value).to_text()})"


def operator_with_zeros(rng: random.Random, n: int, order: int) -> tuple:
    """(text, P, sigma, sign) for an operator on n axes whose terms have
    total order `order` >= 2, each c_t (D_j - P_j)(D_k - Q_k) A_t(D) with
    Gaussian-integer c_t, P and Q and A_t a sum of one or two monomials of
    order `order` - 2.  Every term vanishes at the slopes P, so exp(P.x)
    solves L q = 0, and at Q, so with sigma = sign*i*Q the test exponential
    exp(sign*i*sigma.x), whose slopes are -Q, solves the adjoint equation
    (L^+ at the slopes s is L at -s)."""
    axes = [f"x{k + 1}" for k in range(n)]
    p = tuple(_gaussian_integer(rng) for _ in range(n))
    q = tuple(_gaussian_integer(rng) for _ in range(n))
    terms = []
    for _ in range(rng.randint(1, 3)):
        j, k = rng.randrange(n), rng.randrange(n)
        factors = [f"(D{axes[j]} - {value_text(p[j])})",
                   f"(D{axes[k]} - {value_text(q[k])})"]
        if order > 2:
            monomials = []
            for _ in range(rng.randint(1, 2)):
                alpha = MultiIndex.zero(n)
                for _ in range(order - 2):
                    alpha = incr(alpha, rng.randrange(n))
                monomials.append("*".join(f"D{axes[m]}^{e}" for m, e in enumerate(alpha) if e))
            factors.append(f"({' + '.join(monomials)})")
        coeff = _gaussian_integer(rng, 3) or GaussianRational(1)
        terms.append(value_text(coeff) + "*" + "*".join(factors))
    sign = rng.choice((1, -1))
    sigma = tuple(GaussianRational(0, sign) * value for value in q)
    return f"axes {','.join(axes)}; " + " + ".join(terms), p, sigma, sign
