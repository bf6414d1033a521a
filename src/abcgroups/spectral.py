"""Unit-root spectrum of an integer matrix and the periodic-part projection.

The unit-root period N is the lcm of the root-of-unity orders in the
spectrum, which the MatrixContext finds once when it is built, as the
cyclotomic factors of the characteristic polynomial (linalg.charpoly and
cyclotomic_orders).  The periodic subgroup is P = ker(M^N - I), and the
projection onto it is read off the characteristic polynomial of M^N, or
refused when the unit-root part of M is not semisimple.  Everything is
exact (integer matrices, Fraction projections).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .enumeration import BallIndex
from .groups import MatrixContext
from .linalg import charpoly, linear_map, mat_mul, poly_at_matrix

__all__ = [
    "unit_root_projection",
    "relative_growth_table",
    "epsilon_norm_table",
]


# ---------------------------------------------------------------------------
# Projection onto the periodic part
# ---------------------------------------------------------------------------


def unit_root_projection(ctx: MatrixContext) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the projection onto P = ker(B - I) along im(B - I), B = M^N.

    Write chi_B = (x - 1)^a r(x) with r(1) != 0.  By Cayley-Hamilton r(B)
    vanishes on the other generalised eigenspaces of B, and on that of 1,
    where B = I + J with J nilpotent, (B - I) r(B) = r(1) J + r'(1) J^2 + ...
    is 0 exactly when J = 0.  So BP = P certifies P = r(B) / r(1): it gives
    P^2 = P, and P is a polynomial in M, so it commutes with M.  Otherwise
    the unit-root part of M is not semisimple, no invariant complement
    exists and this raises.
    """
    power = ctx.matrix_power(math.lcm(*ctx.unit_root_orders))
    rest = charpoly(power)
    while not sum(rest):
        # rest(1) = 0: the quotient by x - 1 has the suffix sums as coefficients
        rest = [sum(rest[i + 1 :]) for i in range(len(rest) - 1)]
    scaled = poly_at_matrix(rest, power)
    if mat_mul(power, scaled) != scaled:
        raise ValueError(
            "no invariant complement to the periodic subgroup: the unit-root "
            "part of M is not semisimple"
        )
    return tuple(tuple(Fraction(x, sum(rest)) for x in row) for row in scaled)


# ---------------------------------------------------------------------------
# Ball statistics
# ---------------------------------------------------------------------------


def relative_growth_table(
    ctx: MatrixContext, index: BallIndex
) -> list[tuple[int, int, int]]:
    """Rows (r, |S^r|, |P intersect S^r|) with both counts cumulative; P
    lies in the kernel, so only stratum 0 of each sphere is scanned."""
    period_map = ctx.power_map(math.lcm(*ctx.unit_root_orders))
    rows = []
    inside = 0
    for r in range(index.radius + 1):
        inside += sum(period_map(a) == a for a in index.strata(r).get(0, ()))
        rows.append((r, index.ball_size(r), inside))
    return rows


def epsilon_norm_table(
    ctx: MatrixContext, index: BallIndex
) -> list[tuple[int, Fraction]]:
    """Rows (r, max sup-norm of the projection over kernel elements of S^r),
    cumulative in r; the kernel elements of a sphere are its stratum 0.

    The scan runs in integers: with den the lcm of the projection's
    denominators, den P is an integer matrix and max |P v| is
    max |den P v| / den exactly.
    """
    proj = unit_root_projection(ctx)
    den = math.lcm(*(x.denominator for row in proj for x in row))
    project = linear_map(tuple(tuple(int(x * den) for x in row) for row in proj))
    rows = []
    best = 0
    for r in range(index.radius + 1):
        for a in index.strata(r).get(0, ()):
            norm = max(map(abs, project(a)))
            if norm > best:
                best = norm
        rows.append((r, Fraction(best, den)))
    return rows
