"""Unit-root spectrum of an integer matrix and the periodic-part projection.

A primitive d-th root of unity is an eigenvalue of M exactly when the
d-th cyclotomic polynomial kills a nonzero vector, i.e. when
det(Phi_d(M)) == 0.  Only finitely many d can occur: deg Phi_d = phi(d)
must be at most n, and phi(d) >= sqrt(d/2) bounds the scan by 2 n^2 + 2.
Everything is exact (integer polynomial arithmetic, Fraction projections).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .enumeration import BallIndex
from .groups import MatrixContext
from .linalg import (
    det_int,
    identity_matrix,
    integer_kernel_basis,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
)

__all__ = [
    "totient",
    "cyclotomic_poly",
    "cyclotomic_orders",
    "unit_root_period",
    "periodic_subgroup_basis",
    "ProjectionSetup",
    "unit_root_projection",
    "relative_growth_table",
    "epsilon_norm_table",
]


def totient(d: int) -> int:
    if d < 1:
        raise ValueError(f"totient needs a positive argument, got {d}")
    out = d
    rem = d
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            out -= out // p
            while rem % p == 0:
                rem //= p
        p += 1
    if rem > 1:
        out -= out // rem
    return out


# ---------------------------------------------------------------------------
# Integer polynomials, coefficients low degree first
# ---------------------------------------------------------------------------


def _poly_divexact(a: list[int], b) -> list[int]:
    rem = list(a)
    out = [0] * (len(rem) - len(b) + 1)
    for i in reversed(range(len(out))):
        lead = rem[i + len(b) - 1]
        q, r = divmod(lead, b[-1])
        if r:
            raise ValueError("inexact polynomial division")
        out[i] = q
        for j, bv in enumerate(b):
            rem[i + j] -= q * bv
    if any(rem):
        raise ValueError("inexact polynomial division")
    return out


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {1: (-1, 1)}


def cyclotomic_poly(d: int) -> tuple[int, ...]:
    """Coefficients of the d-th cyclotomic polynomial, low degree first."""
    cached = _CYCLOTOMIC_CACHE.get(d)
    if cached is not None:
        return cached
    # x^d - 1 equals the product of Phi_e over all divisors e of d
    coeffs = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            coeffs = _poly_divexact(coeffs, cyclotomic_poly(e))
    out = tuple(coeffs)
    _CYCLOTOMIC_CACHE[d] = out
    return out


def _poly_at_matrix(coeffs, matrix):
    n = len(matrix)
    ident = identity_matrix(n)
    acc = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    for c in reversed(coeffs):
        acc = mat_mul(acc, matrix)
        acc = tuple(
            tuple(x + c * e for x, e in zip(ra, re)) for ra, re in zip(acc, ident)
        )
    return acc


def cyclotomic_orders(matrix) -> list[int]:
    """Orders d such that some eigenvalue of M is a primitive d-th root of unity."""
    n = len(matrix)
    out = []
    for d in range(1, 2 * n * n + 3):
        if totient(d) > n:
            continue
        if det_int(_poly_at_matrix(cyclotomic_poly(d), matrix)) == 0:
            out.append(d)
    return out


def unit_root_period(matrix) -> int:
    return math.lcm(*cyclotomic_orders(matrix))


def periodic_subgroup_basis(matrix) -> tuple[tuple[int, ...], ...]:
    """Integer basis of P = {v : M^N v = v}, N the unit-root period.

    Any v with a finite M-orbit satisfies M^N v = v because every root of
    unity in the spectrum has order dividing N, so this kernel is the full
    periodic subgroup.
    """
    period = unit_root_period(matrix)
    shifted = mat_sub(mat_pow(matrix, period), identity_matrix(len(matrix)))
    return integer_kernel_basis(shifted)


# ---------------------------------------------------------------------------
# Projection onto the periodic part
# ---------------------------------------------------------------------------


def _rank(vectors) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _fraction_inverse(matrix):
    n = len(matrix)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                factor = aug[i][c]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


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


def unit_root_projection(matrix) -> ProjectionSetup:
    """Projection onto P = ker(M^N - I) along the image of (M^N - I)^n.

    (M^N - I)^n splits Q^n into its kernel and image; when the unit-root
    eigenvalues are semisimple the kernel of the power equals P itself and
    the image is an M-invariant complement.  Otherwise no invariant
    complement exists and this raises.
    """
    n = len(matrix)
    period = unit_root_period(matrix)
    shifted = mat_sub(mat_pow(matrix, period), identity_matrix(n))
    kernel = integer_kernel_basis(shifted)
    power = mat_pow(shifted, n)
    basis = list(kernel)
    image = []
    for c in range(n):
        col = tuple(power[r][c] for r in range(n))
        if any(col) and _rank(basis + [col]) > len(basis):
            basis.append(col)
            image.append(col)
    if len(basis) != n:
        raise ValueError(
            "no invariant complement to the periodic subgroup: the unit-root "
            "part of M is not semisimple"
        )
    change = tuple(tuple(basis[j][i] for j in range(n)) for i in range(n))
    change_inv = _fraction_inverse(change)
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
    ctx: MatrixContext, index: BallIndex, period: int | None = None
) -> list[tuple[int, int, int]]:
    """Rows (r, |S^r|, |P intersect S^r|) with both counts cumulative."""
    if period is None:
        period = unit_root_period(ctx.matrix)
    mpow = ctx.matrix_power(period)
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
    ctx: MatrixContext, index: BallIndex, setup: ProjectionSetup | None = None
) -> list[tuple[int, Fraction]]:
    """Rows (r, max sup-norm of the projection over kernel elements of S^r),
    cumulative in r."""
    if setup is None:
        setup = unit_root_projection(ctx.matrix)
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
