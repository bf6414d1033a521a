"""Exact integer matrix helpers: products, the straight-line kernels
v -> M v and (a, b) -> a + b that the Z^n arithmetic runs on, the index of a
lattice, and polynomials: the characteristic polynomial, the one source of
spectral facts, with what it yields (the adjugate and determinant by
Cayley-Hamilton, unimodular inverses, a positive-definiteness test and the
root-of-unity orders), a polynomial at a matrix, and whether polynomials
generate the unit ideal of a ring of Laurent polynomials.

Matrices are tuples of row tuples of Python ints, so everything here is
arbitrary precision and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from typing import Callable

__all__ = [
    "identity_matrix",
    "mat_add",
    "mat_mul",
    "mat_pow",
    "linear_map",
    "vector_add",
    "mat_sub",
    "unimodular_inverse",
    "positive_definite",
    "lattice_index",
    "charpoly",
    "prime_factors",
    "totient",
    "cyclotomic_poly",
    "poly_at_matrix",
    "adjugate",
    "cyclotomic_orders",
    "unit_ideal",
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


def linear_map(matrix: Matrix) -> Callable[[tuple], tuple]:
    """The function v -> matrix v, its sums written out once.

    Its body is one tuple expression, row i being m_i_0 * v0 + m_i_1 * v1
    + ..., so a call pays for the arithmetic and no map, zip or sum.
    """
    width = len(matrix[0]) if matrix else 0
    rows = [
        " + ".join(f"m_{i}_{j} * v{j}" for j in range(width)) or "0"
        for i in range(len(matrix))
    ]
    entries = {
        f"m_{i}_{j}": x for i, row in enumerate(matrix) for j, x in enumerate(row)
    }
    return _straight_line({"v": width}, rows, entries)


def vector_add(n: int) -> Callable[[tuple, tuple], tuple]:
    """The function (a, b) -> a + b on vectors of length n, written out."""
    return _straight_line({"a": n, "b": n}, [f"a{j} + b{j}" for j in range(n)], {})


def _straight_line(args: dict[str, int], exprs: list[str], names: dict):
    """A function of the vector arguments args (name -> length), each
    unpacked into name0, name1, ..., returning the tuple of exprs.

    As collections.namedtuple builds its methods, the source text holds
    only names: the values in names are bound in the function's namespace,
    never pasted into the text, so an entry of any size or type is read as
    it is and the text has one shape for every matrix of that shape.
    """
    unpack = "".join(
        f"    {''.join(f'{arg}{j}, ' for j in range(size))}= {arg}\n"
        for arg, size in args.items()
        if size
    )
    body = "".join(f"{expr}, " for expr in exprs)
    source = f"def straight_line({', '.join(args)}):\n{unpack}    return ({body})\n"
    namespace = {"__builtins__": {}, **names}
    exec(source, namespace)
    # popped, so the function and its namespace form no reference cycle
    return namespace.pop("straight_line")


def mat_add(*matrices: Matrix) -> Matrix:
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*matrices))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def unimodular_inverse(matrix: Matrix) -> Matrix:
    """Integer inverse det * adj of a square matrix with determinant +-1."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square to have a determinant")
    adj, det = adjugate(matrix)
    if det not in (1, -1):
        raise ValueError(f"matrix must have determinant +-1, got {det}")
    return tuple(tuple(det * x for x in row) for row in adj)


def positive_definite(matrix: Matrix) -> bool:
    """Whether a symmetric integer matrix is positive definite.

    Its eigenvalues are real, so they are all > 0 exactly when chi_S(-x)
    has no root >= 0, that is (Descartes' rule of signs) when the
    coefficients of chi_S alternate strictly in sign and none is zero.
    """
    n = len(matrix)
    return all(c * (-1) ** (n - k) > 0 for k, c in enumerate(charpoly(matrix)))


def lattice_index(vectors, n: int) -> int:
    """[Z^n : L] for the lattice L that the vectors span, 0 below rank n.

    Euclid's algorithm on one coordinate at a time leaves a single vector
    nonzero there, a column echelon form of the same lattice; the index is
    the product of those pivots.
    """
    rows = [list(v) for v in vectors]
    index = 1
    for i in range(n):
        while True:
            live = [r for r in rows if r[i]]
            if not live:
                return 0
            pivot = min(live, key=lambda r: abs(r[i]))
            if len(live) == 1:
                break
            for r in live:
                if r is not pivot:
                    q = r[i] // pivot[i]
                    r[:] = [x - q * y for x, y in zip(r, pivot)]
        index *= abs(pivot[i])
        rows.remove(pivot)
    return index


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


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def totient(d: int) -> int:
    if d < 1:
        raise ValueError(f"totient needs a positive argument, got {d}")
    out = d
    for p in prime_factors(d):
        out -= out // p
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


def adjugate(matrix: Matrix) -> tuple[Matrix, int]:
    """adj M and det M, with M adj M = det M * I.

    Cayley-Hamilton: chi_M = x q(x) + c_0 vanishes at M and
    c_0 = (-1)^n det M, so adj M = (-1)^(n+1) q(M).
    """
    n = len(matrix)
    chi = charpoly(matrix)
    sign = -1 if n % 2 else 1
    adj = poly_at_matrix([-sign * c for c in chi[1:]], matrix)
    return adj, sign * chi[0]


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


def unit_ideal(polys, m: int) -> bool:
    """Whether integer polynomials, low degree first, generate the unit
    ideal of Z/m[x, 1/x] for m >= 2, or of Z[x, 1/x] for m = 0.

    By the Chinese remainder theorem, and as l is nilpotent mod l^e, they
    do for m >= 2 exactly when their gcd over F_l is a monomial for every
    prime l | m.  For m = 0 their gcd over Q must be a monomial N x^j with
    N in the ideal (see _pseudo_gcd); the ideal then contains N, and the
    test for m = |N| decides.
    """
    if not m:
        g = _pseudo_gcd(polys, 0)
        if sum(map(bool, g)) != 1:
            return False
        m = abs(sum(g))
    return all(sum(map(bool, _pseudo_gcd(polys, l))) == 1 for l in prime_factors(m))


def _pseudo_gcd(polys, modulus: int) -> list[int]:
    """A gcd of integer polynomials over F_modulus for a prime modulus, or
    over Q for modulus 0, trimmed and low degree first; [] when all vanish.

    Euclid divides by pseudo-remainders lead(b) a - lead(a) x^s b, so every
    polynomial it makes is a Z[x]-combination of the inputs: over Q the gcd
    it returns lies in the ideal they generate over Z.
    """

    def trim(f):
        f = [c % modulus for c in f] if modulus else list(f)
        while f and not f[-1]:
            f.pop()
        return f

    g = []
    for f in map(trim, polys):
        while f:
            while len(g) >= len(f):
                shifted = [0] * (len(g) - len(f)) + f
                g = trim([f[-1] * x - g[-1] * y for x, y in zip(g, shifted)])
            g, f = f, g
    return g
