"""Unit-root spectrum of an integer matrix and the periodic-part projection.

The unit-root period N is the lcm of the root-of-unity orders in the
spectrum, which the MatrixContext scans once when it is built
(linalg.cyclotomic_orders).  Everything is exact (integer matrices,
Fraction projections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .enumeration import BallIndex
from .groups import MatrixContext
from .linalg import (
    identity_matrix,
    integer_kernel_basis,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    smith_normal_form,
)

__all__ = [
    "ProjectionSetup",
    "unit_root_projection",
    "relative_growth_table",
    "epsilon_norm_table",
]


# ---------------------------------------------------------------------------
# Projection onto the periodic part
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjectionSetup:
    """Linear projection of Q^n onto the periodic part along an M-invariant
    complement.

    denominator_lcm is the lcm of the denominators of the inverse basis
    matrix; it clears every entry of the projection, and 1/denominator_lcm
    times the basis lattice contains Z^n.
    """

    period: int
    kernel_basis: tuple[tuple[int, ...], ...]
    image_basis: tuple[tuple[int, ...], ...]
    matrix: tuple[tuple[Fraction, ...], ...]
    denominator_lcm: int

    def apply(self, v) -> tuple[Fraction, ...]:
        return tuple(
            sum((c * x for c, x in zip(row, v)), start=Fraction(0))
            for row in self.matrix
        )


def unit_root_projection(ctx: MatrixContext) -> ProjectionSetup:
    """Projection onto P = ker(M^N - I) along the image of (M^N - I)^n.

    (M^N - I)^n splits Q^n into its kernel and image; when the unit-root
    eigenvalues are semisimple the kernel of the power equals P itself and
    the image is an M-invariant complement.  Otherwise no invariant
    complement exists and this raises.
    """
    n = ctx.n
    period = math.lcm(*ctx.unit_root_orders)
    shifted = mat_sub(ctx.matrix_power(period), identity_matrix(n))
    kernel = integer_kernel_basis(shifted)
    power = mat_pow(shifted, n)
    basis = list(kernel)
    image = []
    for c in range(n):
        col = tuple(power[r][c] for r in range(n))
        if not any(col):
            continue
        # the rank is the number of nonzero Smith diagonal entries
        if sum(1 for d in smith_normal_form(basis + [col]).diag if d) > len(basis):
            basis.append(col)
            image.append(col)
    if len(basis) != n:
        raise ValueError(
            "no invariant complement to the periodic subgroup: the unit-root "
            "part of M is not semisimple"
        )
    change = tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))
    # U change V = diag inverts as change^-1 = V diag^-1 U
    snf = smith_normal_form(change)
    scaled_left = tuple(
        tuple(Fraction(x, d) for x in row) for row, d in zip(snf.left, snf.diag)
    )
    change_inv = mat_mul(snf.right, scaled_left)
    k = len(kernel)
    proj = tuple(
        tuple(
            sum((change[i][s] * change_inv[s][j] for s in range(k)), start=Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    )
    # scaling by the inverse-basis denominator clears every entry of the
    # projection, and (1/denom) times the basis lattice contains Z^n
    denom = math.lcm(*(entry.denominator for row in change_inv for entry in row))
    return ProjectionSetup(period, tuple(kernel), tuple(image), proj, denom)


# ---------------------------------------------------------------------------
# Ball statistics
# ---------------------------------------------------------------------------


def relative_growth_table(
    ctx: MatrixContext, index: BallIndex
) -> list[tuple[int, int, int]]:
    """Rows (r, |S^r|, |P intersect S^r|) with both counts cumulative."""
    mpow = ctx.matrix_power(math.lcm(*ctx.unit_root_orders))
    rows = []
    ball = 0
    inside = 0
    for r in range(index.radius + 1):
        sphere = index.sphere(r)
        ball += len(sphere)
        for g in sphere:
            if g.texp == 0 and mat_vec(mpow, g.kpart) == g.kpart:
                inside += 1
        rows.append((r, ball, inside))
    return rows


def epsilon_norm_table(
    ctx: MatrixContext, index: BallIndex
) -> list[tuple[int, Fraction]]:
    """Rows (r, max sup-norm of the projection over kernel elements of S^r),
    cumulative in r."""
    setup = unit_root_projection(ctx)
    rows = []
    best = Fraction(0)
    for r in range(index.radius + 1):
        for g in index.sphere(r):
            if g.texp != 0:
                continue
            image = setup.apply(g.kpart)
            norm = max((abs(x) for x in image), default=Fraction(0))
            if norm > best:
                best = norm
        rows.append((r, best))
    return rows
