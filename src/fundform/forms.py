"""Assembly of verified flux sets into an (n-1)-form, its exterior
derivative, and the verdict on an operator's family of forms.

Convention, fixed once: with axes x^1..x^n in declaration order,

    eta = sum_j (-1)^(j+1) a_j dx^1 ^ ... ^ (dx^j omitted) ^ ... ^ dx^n

so that  d eta = (sum_j d_j a_j) dx^1 ^ ... ^ dx^n  with no stray signs.
A form is the verified DivergenceDecomposition itself: its fluxes are the
a_j.  Two forms for the same operator are equivalent exactly when their
flux difference is divergence-free as an identity (no equation on q or qt
assumed), that is when their exterior derivatives are equal; equivalent
forms produce identical boundary relations.  ``pairwise_equivalent``
decides that for every pair of forms in an operator's constructible
family, from the family's per-term pieces.
"""

from __future__ import annotations

from .algebra import BilinearExpr, divergence
from .decompose import DivergenceDecomposition, _gate, term_pieces
from .operators import Operator, bilinear_rhs


def assemble(dec: DivergenceDecomposition) -> DivergenceDecomposition:
    """The form of a verified decomposition; unverified input is refused."""
    if not dec.verified:
        raise ValueError(
            "refusing to assemble an unverified decomposition; "
            "run it through verify first"
        )
    return dec


def exterior_derivative(form: DivergenceDecomposition) -> BilinearExpr:
    """Coefficient of the volume form in d eta, i.e. sum_j d_j a_j."""
    return divergence(form.fluxes)


def pairwise_equivalent(op: Operator) -> bool:
    """True when every family member's form is equivalent to every other.

    A member's fluxes are a sum of one piece per term (``term_pieces``),
    so any two members differ by a sum of per-term piece differences, and
    a bad piece shows in the member that differs from the first only in
    that term: comparing each piece's exterior derivative with that of
    its term's first piece decides every pair.  Each piece's exterior
    derivative is taken from the fluxes given here, but a flux keeps the
    derivative its gate took (``algebra.partial``), so a gated piece costs
    one merge of its per-axis derivatives; a flux built after its gate is
    a new expression and is differentiated afresh.  The first member is
    the sum of the first pieces, and it must pass the final divergence
    gate against the whole operator's pairing.
    """
    pieces = [term for _, term in term_pieces(op)]
    _gate(op, None, [pair for term in pieces for pair in enumerate(term[0].fluxes)],
          bilinear_rhs(op))
    for first, *rest in pieces:
        target = exterior_derivative(first)
        if any(exterior_derivative(piece) != target for piece in rest):
            return False
    return True
