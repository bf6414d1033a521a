"""Unit-root spectrum of an integer matrix and the periodic-part projection.

The unit-root period N is the lcm of the root-of-unity orders in the
spectrum, which the MatrixContext scans once when it is built
(linalg.cyclotomic_orders).  The periodic subgroup is P = ker A with
A = M^N - I.  One Smith form U A V = diag of rank r gives both halves of
the splitting: the columns of V past r span ker A, and the first r columns
of A V span im A.  When the unit-root part of M is semisimple these two
subspaces are complementary and im A is M-invariant, so the projection
onto P along im A is the unique M-equivariant one; otherwise ker A meets
im A, the change of basis is singular and the projection is refused.
Everything is exact (integer matrices, Fraction projections).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .enumeration import BallIndex
from .groups import MatrixContext
from .linalg import identity_matrix, mat_mul, mat_sub, mat_vec, smith_normal_form

__all__ = [
    "unit_root_projection",
    "relative_growth_table",
    "epsilon_norm_table",
]


# ---------------------------------------------------------------------------
# Projection onto the periodic part
# ---------------------------------------------------------------------------


def unit_root_projection(ctx: MatrixContext) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the projection onto P = ker(M^N - I) along im(M^N - I).

    With U A V = diag of rank r, the basis [V_ker | (A V)_img] (columns of
    V past r, then the first r columns of A V) is inverted through its own
    Smith form, U' B V' = diag' giving B^-1 = V' diag'^-1 U', and the
    projection is B[:, :k] B^-1[:k, :] with k = n - r.  A 0 on diag' means
    ker A meets im A: the unit-root part of M is not semisimple, no
    invariant complement exists and this raises.
    """
    n = ctx.n
    shifted = mat_sub(
        ctx.matrix_power(math.lcm(*ctx.unit_root_orders)), identity_matrix(n)
    )
    snf = smith_normal_form(shifted)
    rank = sum(1 for d in snf.diag if d)
    image = mat_mul(shifted, snf.right)
    change = tuple(
        kernel_row[rank:] + image_row[:rank]
        for kernel_row, image_row in zip(snf.right, image)
    )
    inv = smith_normal_form(change)
    if 0 in inv.diag:
        raise ValueError(
            "no invariant complement to the periodic subgroup: the unit-root "
            "part of M is not semisimple"
        )
    scaled_left = tuple(
        tuple(Fraction(x, d) for x in row) for row, d in zip(inv.left, inv.diag)
    )
    change_inv = mat_mul(inv.right, scaled_left)
    k = n - rank
    return tuple(
        tuple(
            sum((change[i][s] * change_inv[s][j] for s in range(k)), start=Fraction(0))
            for j in range(n)
        )
        for i in range(n)
    )


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
    cumulative in r.

    The scan runs in integers: with den the lcm of the projection's
    denominators, den P is an integer matrix and max |P v| is
    max |den P v| / den exactly.
    """
    proj = unit_root_projection(ctx)
    den = math.lcm(*(x.denominator for row in proj for x in row))
    scaled = tuple(tuple(int(x * den) for x in row) for row in proj)
    rows = []
    best = 0
    for r in range(index.radius + 1):
        for g in index.sphere(r):
            if g.texp != 0:
                continue
            norm = max(map(abs, mat_vec(scaled, g.kpart)))
            if norm > best:
                best = norm
        rows.append((r, Fraction(best, den)))
    return rows
