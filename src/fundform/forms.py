"""Assembly of verified flux sets into an (n-1)-form and equivalence tests.

Convention, fixed once: with axes x^1..x^n in declaration order,

    eta = sum_j (-1)^(j+1) a_j dx^1 ^ ... ^ (dx^j omitted) ^ ... ^ dx^n

so that  d eta = (sum_j d_j a_j) dx^1 ^ ... ^ dx^n  with no stray signs.
A form is the verified DivergenceDecomposition itself: its fluxes are the
a_j.  Two forms for the same operator are equivalent exactly when their
flux difference is divergence-free as an identity (no equation on q or qt
assumed); equivalent forms produce identical boundary relations.
"""

from __future__ import annotations

from .algebra import BilinearExpr, divergence
from .decompose import DivergenceDecomposition


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


def forms_equivalent(f: DivergenceDecomposition,
                     g: DivergenceDecomposition) -> bool:
    """True when the flux difference is identically divergence-free.

    The divergence is linear, so that holds exactly when the two
    canonical divergences are equal; no flux difference is built."""
    if f.dimension != g.dimension:
        raise ValueError(
            f"dimension mismatch: {f.dimension} vs {g.dimension}"
        )
    return divergence(f.fluxes) == divergence(g.fluxes)
