"""Shared generators for seeded randomized tests."""

from __future__ import annotations

import random
from fractions import Fraction

from oracles import incr
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
    op = ScalarPDO.build(axes, terms)
    if op.is_zero:
        return ScalarPDO.build(axes, {incr(MultiIndex.zero(n), 0): Poly.const(1)})
    return op
