"""Block-diagonal boundary forms and the gluing test they must pass.

Two manifolds with positive Ricci curvature glue to a positive-Ricci manifold
when the sum of their boundary second fundamental forms is positive
semi-definite (Perelman's gluing lemma).  The forms met at the ends of a neck
are multiples of the identity on each sphere factor, so the test reduces to a
blockwise sum-of-coefficients check.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COEFF_TOL",
    "FormStructureError",
    "BlockDiagonalForm",
    "perelman_form_check",
]

# Absolute tolerance for all >=-type checks on form coefficients.  Double
# precision trig evaluation is good to ~1e-14; 1e-9 absorbs roundoff without
# masking genuine violations.
COEFF_TOL = 1e-9


class FormStructureError(ValueError):
    """Raised when two block forms cannot be aligned block-by-block."""


@dataclass(frozen=True)
class BlockDiagonalForm:
    """A symmetric form that is a multiple of the identity on each block.

    ``blocks`` is a tuple of (coefficient, multiplicity) pairs; multiplicities
    sum to the dimension of the hypersurface the form lives on.
    """

    blocks: tuple[tuple[float, int], ...]

    def __post_init__(self):
        for coef, mult in self.blocks:
            if mult < 1 or int(mult) != mult:
                raise FormStructureError(f"multiplicity must be a positive integer, got {mult}")


def perelman_form_check(form1: BlockDiagonalForm, form2: BlockDiagonalForm) -> bool:
    """Gluing admissibility: is form1 + form2 positive semi-definite?

    Blocks are matched in declared order and must have equal multiplicities.
    For block-identity forms the p.s.d. condition is exactly a blockwise
    coefficient-sum test, passed at >= -COEFF_TOL.
    """
    b1, b2 = form1.blocks, form2.blocks
    if len(b1) != len(b2) or any(m1 != m2 for (_, m1), (_, m2) in zip(b1, b2)):
        raise FormStructureError(
            f"block structures do not align: {[m for _, m in b1]} vs {[m for _, m in b2]}")
    return all(c1 + c2 >= -COEFF_TOL for (c1, _), (c2, _) in zip(b1, b2))
