"""Output checks that share no code with the engine.

Nothing here imports ``fundform``; numpy only evaluates closed-form
solutions.  Exact values are pairs of ``fractions.Fraction`` (real,
imaginary); polynomial text printed by the program is re-read by a small
evaluator of its own, and divergence identities are rebuilt from the
benchmark's own multi-indices with the product rule.  Every check returns
``None`` on success and a one-line reason on failure.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

# Parameters are evaluated at one fixed rational point.
PARAM_VALUES = {"nu": Fraction(7, 3)}


# ---------------------------------------------------------------------------
# Exact complex numbers over Q


@dataclass(frozen=True)
class Q:
    """Exact re + im*i with rational parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __add__(self, other: "Q") -> "Q":
        return Q(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "Q":
        return Q(-self.re, -self.im)

    def __sub__(self, other: "Q") -> "Q":
        return self + (-other)

    def __mul__(self, other: "Q") -> "Q":
        return Q(self.re * other.re - self.im * other.im,
                 self.re * other.im + self.im * other.re)

    def __pow__(self, n: int) -> "Q":
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)


ZERO = Q()
ONE = Q(Fraction(1))
I = Q(Fraction(0), Fraction(1))


def real(value) -> Q:
    return Q(Fraction(value))


# ---------------------------------------------------------------------------
# Operators as the benchmark generates them


@dataclass(frozen=True)
class Coeff:
    """Rational factor, optionally times one named parameter."""

    value: Fraction
    param: str | None = None

    def at(self, params=PARAM_VALUES) -> Q:
        scale = params[self.param] if self.param else Fraction(1)
        return real(self.value * scale)

    def text(self) -> str:
        mag = abs(self.value)
        body = str(mag) if mag != 1 or not self.param else ""
        if self.param:
            body = f"{body}*{self.param}" if body else self.param
        return body


@dataclass(frozen=True)
class GenOperator:
    """A scalar (one entry) or matrix operator: entries[(row, col)] maps a
    multi-index tuple to its Coeff.  Row is the test field, col the trial
    field, as in ``qt L q``."""

    axes: tuple
    entries: dict
    fields: tuple = ("q",)
    params: tuple = ()
    name: str = ""

    @property
    def is_scalar(self) -> bool:
        return len(self.fields) == 1

    def terms(self):
        for (row, col), terms in sorted(self.entries.items()):
            for alpha, coeff in sorted(terms.items()):
                yield row, col, alpha, coeff

    def text(self) -> str:
        """Operator text in the program's input grammar."""
        if self.is_scalar:
            header = f"params {','.join(self.params)}; " if self.params else ""
            return f"{header}axes {','.join(self.axes)}; " + self._entry_text(
                self.entries.get((0, 0), {}))
        grid = [[self._entry_text(self.entries.get((i, j), {}))
                 for j in range(len(self.fields))]
                for i in range(len(self.fields))]
        return json.dumps({"axes": list(self.axes), "params": list(self.params),
                           "fields": list(self.fields), "entries": grid})

    def _entry_text(self, terms: dict) -> str:
        if not terms:
            return "0"
        out = ""
        for alpha, coeff in sorted(terms.items()):
            factors = [f"D{axis}" + (f"^{e}" if e > 1 else "")
                       for axis, e in zip(self.axes, alpha) if e]
            body = "*".join([coeff.text()] + factors)
            sign = "-" if coeff.value < 0 else "+"
            out += f" {sign} {body}" if out else ("-" if sign == "-" else "") + body
        return out


def family_size(op: GenOperator) -> int:
    """prod over terms of O_alpha! * sigma(alpha): O_alpha counts odd
    entries, sigma is the multinomial of the half exponents."""
    total = 1
    for _, _, alpha, _ in op.terms():
        half = [e // 2 for e in alpha]
        sigma = math.factorial(sum(half))
        for h in half:
            sigma //= math.factorial(h)
        total *= math.factorial(sum(e % 2 for e in alpha)) * sigma
    return total


def pairing(op: GenOperator) -> dict:
    """qt L q - q L^+ qt as {(field_q, dq, field_qt, dqt): value}."""
    zero = (0,) * len(op.axes)
    out: dict = {}
    for row, col, alpha, coeff in op.terms():
        value = coeff.at()
        sign = -1 if sum(alpha) % 2 == 0 else 1
        _accumulate(out, (col, alpha, row, zero), value)
        _accumulate(out, (col, zero, row, alpha), value * real(sign))
    return out


def _accumulate(acc: dict, key, value: Q) -> None:
    total = acc.get(key, ZERO) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def symbol_at(op: GenOperator, point, unit: Q) -> Q:
    """sum_alpha c_alpha prod_k (unit * point_k)^alpha_k for a scalar op."""
    total = ZERO
    for _, _, alpha, coeff in op.terms():
        value = coeff.at()
        for s, e in zip(point, alpha):
            value = value * (unit * s) ** e
        total = total + value
    return total


# ---------------------------------------------------------------------------
# Reading polynomial text printed by the program

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?i?)|(?P<name>[A-Za-z_]\w*)"
                    r"|(?P<sym>[-+*^()]))")


class TextError(ValueError):
    pass


def evaluate_text(text: str, values: dict) -> Q:
    """Exact value of polynomial text such as ``-3/2*nu*s1^2 + (1/2+3i)``."""
    tokens = []
    pos = 0
    while pos < len(text):
        if not text[pos:].strip():
            break
        m = _TOKEN.match(text, pos)
        if m is None:
            raise TextError(f"cannot read {text!r} at {pos}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    tokens.append("")
    index = 0

    def peek() -> str:
        return tokens[index]

    def take() -> str:
        nonlocal index
        index += 1
        return tokens[index - 1]

    def expr() -> Q:
        negate = False
        while peek() in ("+", "-"):
            negate ^= take() == "-"
        total = term()
        total = -total if negate else total
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def term() -> Q:
        total = factor()
        while peek() == "*":
            take()
            total = total * factor()
        return total

    def factor() -> Q:
        base = atom()
        if peek() == "^":
            take()
            exp = take()
            if not exp.isdigit():
                raise TextError(f"bad exponent {exp!r} in {text!r}")
            base = base ** int(exp)
        return base

    def atom() -> Q:
        tok = take()
        if tok == "(":
            inner = expr()
            if take() != ")":
                raise TextError(f"unclosed parenthesis in {text!r}")
            return inner
        if tok and tok[0].isdigit():
            imag = tok.endswith("i")
            value = Fraction(tok.rstrip("i"))
            return Q(Fraction(0), value) if imag else real(value)
        if tok == "i" and "i" not in values:
            return I
        if tok in values:
            value = values[tok]
            return value if isinstance(value, Q) else real(value)
        raise TextError(f"unexpected {tok or 'end of text'!r} in {text!r}")

    value = expr()
    if peek() != "":
        raise TextError(f"trailing {peek()!r} in {text!r}")
    return value


# ---------------------------------------------------------------------------
# Checks on program outputs


def check_flux_document(doc: dict, op: GenOperator) -> str | None:
    """Re-derive sum_j d_j a_j from a decomposition document by the product
    rule and compare it with the operator's pairing."""
    if doc.get("verified") is not True:
        return "decomposition not marked verified"
    axes = doc.get("axes")
    if axes != list(op.axes):
        return f"axes {axes} differ from {list(op.axes)}"
    total: dict = {}
    for j, flux in enumerate(doc["fluxes"]):
        if flux["axis"] != axes[j]:
            return f"flux {j} is labelled {flux['axis']!r}"
        for t in flux["terms"]:
            value = evaluate_text(t["coeff"], PARAM_VALUES)
            dq, dqt = tuple(t["dq"]), tuple(t["dqt"])
            up_q = dq[:j] + (dq[j] + 1,) + dq[j + 1:]
            up_qt = dqt[:j] + (dqt[j] + 1,) + dqt[j + 1:]
            _accumulate(total, (t["field_q"], up_q, t["field_qt"], dqt), value)
            _accumulate(total, (t["field_q"], dq, t["field_qt"], up_qt), value)
    target = pairing(op)
    if total != target:
        wrong = min(key for key in set(total) | set(target)
                    if total.get(key) != target.get(key))
        return f"divergence of the fluxes differs from the pairing at {wrong}"
    return None


def _sample_point(n: int, salt: int = 0) -> list:
    return [real(Fraction(2 + k + salt, 3 + 2 * k)) for k in range(n)]


def check_decompose(fmt: str, out: str, op: GenOperator) -> str | None:
    if fmt == "json":
        return check_flux_document(json.loads(out), op)
    marker = "% verified: true" if fmt == "latex" else "verified: true"
    return None if out.rstrip("\n").endswith(marker) else f"missing {marker!r}"


def _number_after(prefix: str, out: str) -> int | None:
    m = re.search(re.escape(prefix) + r"(\d+)", out)
    return int(m.group(1)) if m else None


def check_count(fmt: str, out: str, op: GenOperator) -> str | None:
    expected = family_size(op)
    if fmt == "json":
        got = json.loads(out)["count"]
    else:
        got = _number_after("N = " if fmt == "text" else "= ", out)
    return None if got == expected else f"count {got}, expected {expected}"


def check_enumerate(fmt: str, out: str, op: GenOperator) -> str | None:
    expected = family_size(op)
    if fmt == "json":
        doc = json.loads(out)
        plans = doc.get("plans") or []
        distinct = {json.dumps(plan, sort_keys=True) for plan in plans}
        if doc.get("count") != expected or len(plans) != expected:
            return f"{len(plans)} plans, count {doc.get('count')}, expected {expected}"
        if len(distinct) != expected:
            return f"only {len(distinct)} of {expected} plans are distinct"
        if doc.get("pairwise_equivalent") is not True:
            return "pairwise_equivalent is not true"
        return None
    if fmt == "text":
        if "pairwise equivalent: true" not in out:
            return "pairwise equivalence not reported true"
        got = _number_after("N = ", out)
    else:
        got = _number_after("= ", out)
    return None if got == expected else f"count {got}, expected {expected}"


def check_constraint(fmt: str, out: str, op: GenOperator) -> str | None:
    """The constraint is the adjoint symbol at d_k -> i s_k, i.e. the
    symbol of L at -i s_k; compared at two exact sample points."""
    if fmt == "latex":
        return None if out.rstrip("\n").endswith(" = 0") else "no ' = 0'"
    text = json.loads(out)["poly"] if fmt == "json" else out.rstrip("\n")[:-4]
    names = [f"s{k + 1}" for k in range(len(op.axes))]
    for salt in (0, 5):
        point = _sample_point(len(names), salt)
        values = dict(PARAM_VALUES, **dict(zip(names, point)))
        if evaluate_text(text, values) != symbol_at(op, point, -I):
            return f"constraint {text!r} differs from the adjoint symbol"
    return None


def check_represent(fmt: str, out: str, op: GenOperator) -> str | None:
    """The denominator is the symbol of L at d_k -> i k_k."""
    if fmt == "latex":
        return None if out.startswith("q(x) = ") else "no 'q(x) = '"
    if fmt == "json":
        text = json.loads(out)["denominator"]
    else:
        text = out.strip().removeprefix("denominator: ")
    names = [f"k{k + 1}" for k in range(len(op.axes))]
    for salt in (0, 5):
        point = _sample_point(len(names), salt)
        values = dict(PARAM_VALUES, **dict(zip(names, point)))
        if evaluate_text(text, values) != symbol_at(op, point, I):
            return f"denominator {text!r} differs from the symbol"
    return None


def check_global_relation(fmt: str, out: str, op: GenOperator) -> str | None:
    if fmt == "latex":
        return None if out.startswith("0 = ") else "no '0 = '"
    terms = json.loads(out)["terms"] if fmt == "json" else json.loads(out)
    if not terms:
        return "relation has no boundary terms"
    names = {f"s{k + 1}": s for k, s in enumerate(_sample_point(len(op.axes)))}
    for t in terms:
        if t["axis"] not in op.axes or t["end"] not in ("lo", "hi"):
            return f"bad face {t['axis']}={t['end']}"
        evaluate_text(t["coeff"], dict(PARAM_VALUES, **names))
    return None


def check_stokes(fmt: str, out: str, op: GenOperator) -> str | None:
    if fmt == "json":
        doc = json.loads(out)
        failed = [name for name, ok in doc["checks"].items() if ok is not True]
        if failed:
            return f"stokes checks failed: {failed}"
        return check_flux_document(doc["decomposition"], op)
    if fmt == "text":
        lines = out.strip().splitlines()
        bad = [line for line in lines if not line.endswith(": true")]
        return f"stokes check lines not true: {bad}" if bad or not lines else None
    return None if out.strip() else "empty LaTeX form"


def check_verify(fmt: str, out: str) -> str | None:
    if fmt == "json":
        return None if json.loads(out).get("passed") is True else "not passed"
    return None if "-> pass" in out else "relation not reported as pass"


def check_golden(out: str, golden: str) -> str | None:
    return None if out == golden else "output differs from the golden document"


# ---------------------------------------------------------------------------
# Deep numeric relations

BOUNDARY_RELATIVE_TOL = 1e-8
INTERIOR_RELATIVE_TOL = 1e-10


@dataclass(frozen=True)
class DeepCase:
    """One polyharmonic relation: L = Laplacian^k on `axes`, solution
    p * h with p a polynomial {exponents: int coefficient} and h a product
    of one exponential and trigonometric factors (harmonic by choice of
    rates), spectral point sigma on the constraint variety."""

    k: int
    axes: tuple
    poly: dict
    harmonic: tuple  # ((func, axis, rate), ...), func in exp/cos/sin
    sigma: tuple  # per-axis complex
    nodes: int
    rel_seed: int = 0

    def operator(self) -> GenOperator:
        n = len(self.axes)
        terms: dict = {}
        # (sum_j D_j^2)^k expanded by the multinomial theorem.
        for split in _compositions(self.k, n):
            coeff = math.factorial(self.k)
            for part in split:
                coeff //= math.factorial(part)
            terms[tuple(2 * part for part in split)] = Coeff(Fraction(coeff))
        return GenOperator(self.axes, {(0, 0): terms}, name=f"lap^{self.k}")

    def solution_text(self) -> str:
        mono = []
        for exps, c in sorted(self.poly.items()):
            factors = [f"{a}^{e}" if e > 1 else a
                       for a, e in zip(self.axes, exps) if e]
            mono.append("*".join([str(c)] + factors))
        poly = " + ".join(mono).replace("+ -", "- ")
        h = "*".join(f"{func}({rate}*{axis})" for func, axis, rate in self.harmonic)
        return f"({poly})*{h}"

    def value(self, coords: dict):
        """q at numpy coordinate arrays, from the closed form."""
        import numpy as np

        total = 0
        for exps, c in self.poly.items():
            term = c
            for axis, e in zip(self.axes, exps):
                term = term * coords[axis] ** e
            total = total + term
        for func, axis, rate in self.harmonic:
            total = total * getattr(np, func)(rate * coords[axis])
        return total

    def symbol_scale(self) -> float:
        """sum_alpha |c_alpha| prod_j (1 + rate_j)^alpha_j: a bound on the
        size of the terms of L q relative to q."""
        rates = {axis: abs(rate) for _, axis, rate in self.harmonic}
        return float(sum((1 + rates.get(axis, 0)) ** 2 for axis in self.axes)
                     ) ** self.k


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def check_deep(case: DeepCase, interior: float, residual: complex,
               scale: float) -> str | None:
    """Relative boundary residual against a nonzero scale, and an interior
    residual small relative to the size of q and of its derivatives."""
    if not scale > 0:
        return "boundary scale is zero"
    relative = abs(residual) / scale
    if not relative <= BOUNDARY_RELATIVE_TOL:
        return f"boundary relative residual {relative:.2e}"
    # numpy is imported here, not at module level, so that set-up time
    # counts numpy's import only where fundform itself imports it.
    import numpy as np

    rng = np.random.default_rng(case.rel_seed)
    coords = {axis: rng.random(200) for axis in case.axes}
    magnitude = float(np.max(np.abs(case.value(coords))))
    if not magnitude > 0:
        return "solution vanishes on the sample"
    interior_relative = interior / (magnitude * case.symbol_scale())
    if not interior_relative <= INTERIOR_RELATIVE_TOL:
        return f"interior relative residual {interior_relative:.2e}"
    return None
