"""Exact integer matrix helpers: products, Smith normal form and what it
yields (unimodular inverses, singularity tests), a positive-definiteness
test, and polynomials: the characteristic polynomial, the one source of
spectral facts, with the root-of-unity orders it holds, a polynomial at a
matrix, and the square-free part.

Matrices are tuples of row tuples of Python ints, so everything here is
arbitrary precision and hashable.  mat_vec also takes Fraction entries, in
the matrix or the vector, and then returns Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul
from typing import NamedTuple

__all__ = [
    "identity_matrix",
    "mat_mul",
    "mat_pow",
    "mat_vec",
    "mat_sub",
    "SmithNormalForm",
    "smith_normal_form",
    "unimodular_inverse",
    "positive_definite",
    "charpoly",
    "totient",
    "cyclotomic_poly",
    "poly_at_matrix",
    "cyclotomic_orders",
    "squarefree_part",
]

Matrix = tuple[tuple[int, ...], ...]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def mat_pow(a: Matrix, e: int) -> Matrix:
    """a^e for e >= 0, by repeated squaring."""
    if e < 0:
        raise ValueError(f"exponent must be nonnegative, got {e}")
    acc = identity_matrix(len(a))
    while e:
        if e & 1:
            acc = mat_mul(acc, a)
        e >>= 1
        if e:
            a = mat_mul(a, a)
    return acc


def mat_vec(a: Matrix, v) -> tuple:
    return tuple([sum(map(mul, row, v)) for row in a])


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


class SmithNormalForm(NamedTuple):
    """U A V = diag with U, V unimodular and diag a divisibility chain."""

    diag: tuple[int, ...]
    left: Matrix
    right: Matrix


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a, u, dst, src, q):
    # row_dst += q * row_src
    ad, asrc = a[dst], a[src]
    for c in range(len(ad)):
        ad[c] += q * asrc[c]
    ud, usrc = u[dst], u[src]
    for c in range(len(ud)):
        ud[c] += q * usrc[c]


def _add_col(a, v, dst, src, q):
    for row in a:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]


def smith_normal_form(matrix) -> SmithNormalForm:
    """Diagonalize an integer matrix over Z with unimodular transforms.

    Returns diag of length min(rows, cols) with nonnegative entries, each
    dividing the next, zeros at the end.
    """
    a = [list(int(x) for x in row) for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if any(len(row) != nc for row in a):
        raise ValueError("ragged matrix")
    u = [list(row) for row in identity_matrix(nr)]
    v = [list(row) for row in identity_matrix(nc)]

    def pivot_at(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        pos = pivot_at(t)
        if pos is None:
            break
        _swap_rows(a, u, t, pos[0])
        _swap_cols(a, v, t, pos[1])
        while True:
            # reduce the pivot column
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _add_row(a, u, i, t, -q)
                    if a[i][t]:
                        _swap_rows(a, u, t, i)
                        dirty = True
            if dirty:
                continue
            # reduce the pivot row
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    _add_col(a, v, j, t, -q)
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(a, u, t, offender, 1)
        if a[t][t] < 0:
            for c in range(nc):
                a[t][c] = -a[t][c]
            for c in range(nr):
                u[t][c] = -u[t][c]
        t += 1

    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    return SmithNormalForm(
        diag,
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
    )


def unimodular_inverse(matrix: Matrix) -> Matrix:
    """Integer inverse of a square matrix with determinant +-1.

    U A V = I gives A^-1 = V U; any other Smith diagonal means |det A| != 1.
    """
    snf = smith_normal_form(matrix)
    if len(snf.left) != len(snf.right) or any(d != 1 for d in snf.diag):
        raise ValueError(
            f"matrix must have determinant +-1, its Smith diagonal is {list(snf.diag)}"
        )
    return mat_mul(snf.right, snf.left)


def positive_definite(matrix: Matrix) -> bool:
    """Whether a symmetric integer matrix is positive definite.

    Elimination without row exchanges has k-th pivot equal to the ratio of
    the k-th and (k-1)-th leading principal minors, so every pivot is > 0
    exactly when every leading minor is (Sylvester's criterion).
    """
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    for t in range(n):
        if a[t][t] <= 0:
            return False
        for i in range(t + 1, n):
            r = a[i][t] / a[t][t]
            for j in range(t, n):
                a[i][j] -= r * a[t][j]
    return True


# ---------------------------------------------------------------------------
# The characteristic polynomial and the root-of-unity orders it holds
#
# Polynomials are integer coefficient lists, low degree first.  A primitive
# d-th root of unity is an eigenvalue of M exactly when the d-th cyclotomic
# polynomial divides chi_M, because Phi_d is irreducible over Q.  Only
# finitely many d can occur: deg Phi_d = phi(d) must be at most n, and
# phi(d) >= sqrt(d/2) bounds the scan by 2 n^2 + 2.
# ---------------------------------------------------------------------------


def charpoly(matrix: Matrix) -> tuple[int, ...]:
    """Coefficients of chi_M = det(xI - M), low degree first.

    Newton's identities, k c_k = -sum_j c_(k-j) tr M^j over 1 <= j <= k,
    give x^n + c_1 x^(n-1) + ... + c_n from the power sums tr M^j; each
    division by k is exact.
    """
    n = len(matrix)
    powers = accumulate(repeat(matrix, n), mat_mul)
    sums = [n] + [sum(p[i][i] for i in range(n)) for p in powers]
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs.append(-sum(coeffs[k - j] * sums[j] for j in range(1, k + 1)) // k)
    return tuple(reversed(coeffs))


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
            quot, rem = _poly_divmod(coeffs, cyclotomic_poly(e))
            assert not rem and all(q.denominator == 1 for q in quot)
            coeffs = [int(q) for q in quot]
    out = tuple(coeffs)
    _CYCLOTOMIC_CACHE[d] = out
    return out


def poly_at_matrix(coeffs, matrix: Matrix) -> Matrix:
    """f(M) for an integer polynomial f, low degree first, by Horner's rule."""
    n = len(matrix)
    ident = identity_matrix(n)
    acc = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    for c in reversed(coeffs):
        acc = mat_mul(acc, matrix)
        acc = tuple(
            tuple(x + c * e for x, e in zip(ra, re)) for ra, re in zip(acc, ident)
        )
    return acc


def cyclotomic_orders(matrix: Matrix) -> list[int]:
    """Orders d such that some eigenvalue of M is a primitive d-th root of unity."""
    n = len(matrix)
    chi = charpoly(matrix)
    return [
        d
        for d in range(1, 2 * n * n + 3)
        if totient(d) <= n and not _poly_divmod(chi, cyclotomic_poly(d))[1]
    ]


def _poly_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of polynomials over Q, low degree first; the
    leading coefficient of b is nonzero, and the remainder is trimmed."""
    rem = [Fraction(x) for x in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in reversed(range(len(quot))):
        q = quot[i] = rem[i + len(b) - 1] / b[-1]
        for j, bv in enumerate(b):
            rem[i + j] -= q * bv
    rem = rem[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def squarefree_part(coeffs) -> list[Fraction]:
    """f / gcd(f, f') made monic, for f of positive degree given low degree
    first: the same roots as f, each a simple root."""
    f = [Fraction(x) for x in coeffs]
    g, h = f, [i * x for i, x in enumerate(f)][1:]
    while h:
        g, h = h, _poly_divmod(g, h)[1]
    quot = _poly_divmod(f, g)[0]
    return [x / quot[-1] for x in quot]
