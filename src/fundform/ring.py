"""Exact scalar arithmetic: Gaussian rationals and sparse polynomials over them.

Every coefficient in the engine lives in Q(i)[n1, n2, ...] for named
commuting generators: operator parameters such as ``nu``, spectral
variables such as ``s1`` or ``k``, box endpoints such as ``l``.  Nothing
is ever rounded; floating point only appears when a value is explicitly
evaluated at a numeric assignment.

A Gaussian rational is stored as (a + b*i) / d: a Gaussian-integer
numerator (two ``int``s) over one ``int`` denominator, kept canonical by
the invariant d > 0 and gcd(a, b, d) == 1.  Each value therefore has one
representation, so ``==`` and ``hash`` compare the three integers.
Almost every coefficient the engine meets is a Gaussian integer (d == 1),
and those add, subtract and multiply with no gcd at all.  The parts
``.re`` and ``.im`` are an ``int`` when d == 1 and a ``Fraction``
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Callable, Iterable, Mapping, Union

RatLike = Union[int, Fraction]


class GaussianRational:
    """Exact complex number (a + b*i) / d with d > 0 and gcd(a, b, d) == 1.

    Immutable.  The constructor takes the real and imaginary parts as
    ``int`` or ``Fraction`` (anything ``Fraction`` accepts).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RatLike = 0, im: RatLike = 0) -> None:
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # lcm of two reduced denominators: the result is already canonical
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @staticmethod
    def coerce(value: "ScalarLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot treat {type(value).__name__} as an exact scalar")

    @property
    def re(self) -> RatLike:
        return self._a if self._d == 1 else Fraction(self._a, self._d)

    @property
    def im(self) -> RatLike:
        return self._b if self._d == 1 else Fraction(self._b, self._d)

    def __eq__(self, other: object) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __add__(self, other: "ScalarLike") -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        d, e = self._d, other._d
        if d == 1 and e == 1:
            value = object.__new__(GaussianRational)
            value._a = self._a + other._a
            value._b = self._b + other._b
            value._d = 1
            return value
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d,
                        d * e)

    __radd__ = __add__

    def __sub__(self, other: "ScalarLike") -> "GaussianRational":
        return self + -GaussianRational.coerce(other)

    def __rsub__(self, other: "ScalarLike") -> "GaussianRational":
        return GaussianRational.coerce(other) - self

    def __neg__(self) -> "GaussianRational":
        value = object.__new__(GaussianRational)
        value._a = -self._a
        value._b = -self._b
        value._d = self._d
        return value

    def __mul__(self, other: "ScalarLike") -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _gaussian(a * c - b * e, a * e + b * c, 1)
        return _reduced(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarLike") -> "GaussianRational":
        # (a+bi)/d / ((c+ei)/f) = f (a+bi)(c-ei) / (d (c^2+e^2))
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f,
                        self._d * norm)

    def __pow__(self, exponent: int) -> "GaussianRational":
        if exponent < 0:
            return (QI_ONE / self) ** (-exponent)
        if exponent == 0:
            return QI_ONE
        return square_and_multiply(self, exponent, mul)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __complex__(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def to_text(self) -> str:
        if self.is_zero:
            return "0"
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imag = "i" if mag == 1 else f"{mag}i"
        return f"({re}{sign}{imag})"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _gaussian(a: int, b: int, d: int) -> GaussianRational:
    """Wrap parts that already satisfy the invariant; arithmetic results
    use it, skipping the coercion of the public constructor."""
    value = object.__new__(GaussianRational)
    value._a = a
    value._b = b
    value._d = d
    return value


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """Divide (a + b*i) / d, d > 0, by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g == 1:
        return _gaussian(a, b, d)
    return _gaussian(a // g, b // g, d // g)


QI_ZERO = GaussianRational()
QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)

ScalarLike = Union[GaussianRational, int, Fraction]

# A monomial is a sorted tuple of (name, positive exponent) pairs.
Mono = tuple

_GREEK = {
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "nu", "xi", "pi", "rho", "sigma",
    "tau", "upsilon", "phi", "chi", "psi", "omega",
}


def pretty_name(name: str) -> str:
    """LaTeX form of a generator name: greek words get a backslash and a
    trailing digit run becomes a subscript (``xi3`` -> ``\\xi_{3}``)."""
    stem = name.rstrip("0123456789")
    sub = name[len(stem):]
    head = f"\\{stem}" if stem in _GREEK else stem
    return f"{head}_{{{sub}}}" if sub else head


def signed_sum(parts: Iterable[str]) -> str:
    """``a - b + c`` from the rendered terms ``a``, ``-b`` and ``c``: a term
    that starts with '-' is subtracted, any other added; no terms give 0."""
    parts = iter(parts)
    out = next(parts, "0")
    for part in parts:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


def is_name(text: object) -> bool:
    """True when `text` can name an axis, parameter, field or generator in
    the text form: an ASCII identifier other than ``i``, which the text
    form reads as the imaginary unit."""
    return (isinstance(text, str) and text.isascii() and text.isidentifier()
            and text != "i")


# Most characters of user text that an error message quotes (``quoted``),
# and of a file path, which runs longer than a name.
QUOTE_LIMIT = 40
PATH_QUOTE_LIMIT = 100


def quoted(text: str, limit: int = QUOTE_LIMIT) -> str:
    """`text` as an error message quotes it: its repr, or for a text
    longer than `limit` characters the repr of its first `limit`
    characters and its length, so that the message stays one short line."""
    if len(text) <= limit:
        return repr(text)
    return f"{text[:limit]!r}... ({len(text)} characters)"


def quoted_names(names: list | tuple) -> str:
    """A list or tuple of names as its repr prints it, but each str
    through ``quoted``."""
    inner = ", ".join(quoted(n) if isinstance(n, str) else repr(n) for n in names)
    if isinstance(names, list):
        return f"[{inner}]"
    return f"({inner},)" if len(names) == 1 else f"({inner})"


def times_text(coeff: "Poly", body: str, latex: bool = False) -> str:
    """`coeff` times `body` as one term of ``signed_sum``: a coefficient of
    1 or -1 leaves only its sign, one of several terms is parenthesised,
    and an empty body leaves the coefficient alone."""
    text = coeff.to_latex() if latex else coeff.to_text()
    if len(coeff.terms) > 1:
        text = f"({text})"
    if not body:
        return text
    if text in ("1", "-1"):
        return text[:-1] + body
    return f"{text}{' ' if latex else '*'}{body}"


def merge_terms(pairs: Iterable) -> tuple:
    """Sum the coefficients of equal keys, drop zero sums and return the
    (key, coefficient) pairs sorted by key.

    The one sparse merge of the engine: monomials, polynomials, bilinear
    expressions, operators, parsed expressions, substituted fluxes and
    exponential-polynomial terms all canonicalise through it.
    """
    acc: dict = {}
    get = acc.get
    for key, coeff in pairs:
        prev = get(key)
        acc[key] = coeff if prev is None else prev + coeff
    items = [item for item in acc.items() if item[1]]
    items.sort()
    return tuple(items)


def square_and_multiply(base, n: int, multiply: Callable):
    """base^n for n >= 1, starting from the base itself: n.bit_length() - 1
    squarings and one product per set bit of n after the lowest, so
    ``multiply`` never sees the unit or a square that goes unused."""
    while not n & 1:
        base = multiply(base, base)
        n >>= 1
    out = base
    while n := n >> 1:
        base = multiply(base, base)
        if n & 1:
            out = multiply(out, base)
    return out


def _normalize_mono(mono: Iterable) -> Mono:
    mono = tuple(mono)
    for name, exp in mono:
        if exp < 0:
            raise ValueError(f"negative exponent for {name!r}")
    return merge_terms(mono)


class Poly:
    """Sparse multivariate polynomial over GaussianRational.

    Immutable; canonical term order makes ``==`` a true identity test.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = ()) -> None:
        self._terms = merge_terms(
            (_normalize_mono(mono), GaussianRational.coerce(coeff))
            for mono, coeff in terms
        )

    @staticmethod
    def _trusted(terms: tuple) -> "Poly":
        """Wrap terms that are already canonical (merged monomials,
        GaussianRational coefficients, sorted, no zeros), skipping the
        normalisation of the public constructor; arithmetic results use it."""
        value = object.__new__(Poly)
        value._terms = terms
        return value

    @staticmethod
    def const(value: ScalarLike) -> "Poly":
        value = GaussianRational.coerce(value)
        return Poly._trusted((((), value),) if value else ())

    @staticmethod
    def var(name: str, exp: int = 1) -> "Poly":
        return Poly([(((name, exp),), QI_ONE)])

    @staticmethod
    def coerce(value: "PolyLike") -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(GaussianRational.coerce(value))

    @property
    def terms(self) -> tuple:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0] == ())

    def constant_value(self) -> GaussianRational:
        if not self._terms:
            return QI_ZERO
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self._terms[0][1]

    def variables(self) -> tuple:
        names = {name for mono, _ in self._terms for name, _ in mono}
        return tuple(sorted(names))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.coerce(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "PolyLike") -> "Poly":
        if type(other) is not Poly:
            other = Poly.coerce(other)
        mine, theirs = self._terms, other._terms
        if not theirs:
            return self
        if not mine:
            return other
        if len(mine) == 1 and len(theirs) == 1 and mine[0][0] == theirs[0][0]:
            # one monomial each: a cancellation is the shared zero
            coeff = mine[0][1] + theirs[0][1]
            if not coeff:
                return P_ZERO
            value = object.__new__(Poly)
            value._terms = ((mine[0][0], coeff),)
            return value
        return Poly._trusted(merge_terms(mine + theirs))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        value = object.__new__(Poly)
        value._terms = tuple([(mono, -coeff) for mono, coeff in self._terms])
        return value

    def __sub__(self, other: "PolyLike") -> "Poly":
        return self + (-Poly.coerce(other))

    def __rsub__(self, other: "PolyLike") -> "Poly":
        return Poly.coerce(other) - self

    def __mul__(self, other: "PolyLike") -> "Poly":
        if type(other) is not Poly:
            other = Poly.coerce(other)
        mine, theirs = self._terms, other._terms
        if len(mine) == 1 and mine[0][0] == ():
            return other.scale(mine[0][1])
        if len(theirs) == 1 and theirs[0][0] == ():
            return self.scale(theirs[0][1])
        return Poly._trusted(merge_terms(
            (merge_terms(mono_a + mono_b), ca * cb)
            for mono_a, ca in self._terms for mono_b, cb in other._terms
        ))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        if exponent == 0:
            return P_ONE
        if len(self._terms) == 1:
            # one term: raise its coefficient once, scale its exponents
            (mono, coeff), = self._terms
            mono = tuple((name, exp * exponent) for name, exp in mono)
            return Poly._trusted(((mono, coeff ** exponent),))
        return square_and_multiply(self, exponent, mul)

    def scale(self, value: ScalarLike) -> "Poly":
        value = GaussianRational.coerce(value)
        if not value:
            return P_ZERO
        return Poly._trusted(
            tuple((mono, coeff * value) for mono, coeff in self._terms)
        )

    def coeffs_by_power(self, name: str) -> dict:
        """Split into { power of `name`: Poly free of `name` }."""
        out: dict[int, list] = {}
        for mono, coeff in self._terms:
            exp = 0
            rest = []
            for var, e in mono:
                if var == name:
                    exp = e
                else:
                    rest.append((var, e))
            out.setdefault(exp, []).append((tuple(rest), coeff))
        return {exp: Poly(items) for exp, items in out.items()}

    def evaluate(self, assignment: Mapping) -> complex:
        total = 0j
        for mono, coeff in self._terms:
            value = complex(coeff)
            for name, exp in mono:
                value *= complex(assignment[name]) ** exp
            total += value
        return total

    def proportional_to(self, other: "Poly") -> bool:
        """True when self == c * other for a nonzero exact constant c."""
        other = Poly.coerce(other)
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if len(self._terms) != len(other._terms):
            return False
        ratio = self._terms[0][1] / other._terms[0][1]
        return self == other.scale(ratio)

    def _term_text(self, mono: Mono, coeff: GaussianRational, latex: bool) -> str:
        if latex:
            factors = [
                pretty_name(name) + (f"^{{{exp}}}" if exp > 1 else "")
                for name, exp in mono
            ]
            joiner = " "
        else:
            factors = [
                name + (f"^{exp}" if exp > 1 else "") for name, exp in mono
            ]
            joiner = "*"
        if not factors:
            return coeff.to_text()
        if coeff == QI_ONE:
            return joiner.join(factors)
        if coeff == -QI_ONE:
            return "-" + joiner.join(factors)
        return joiner.join([coeff.to_text()] + factors)

    def _render(self, latex: bool) -> str:
        return signed_sum(self._term_text(mono, coeff, latex)
                          for mono, coeff in self._terms)

    def to_text(self) -> str:
        return self._render(latex=False)

    def to_latex(self) -> str:
        return self._render(latex=True)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Poly({self.to_text()})"


PolyLike = Union[Poly, GaussianRational, int, Fraction]

P_ZERO = Poly()
P_ONE = Poly.const(1)
P_I = Poly.const(QI_I)
