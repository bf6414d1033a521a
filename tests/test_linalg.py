import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _oracles import (
    adjugate,
    det_int,
    integer_kernel_basis,
    leading_minors,
    mat_vec,
    smith_normal_form,
)
from abcgroups import linalg
from abcgroups.linalg import (
    charpoly,
    cyclotomic_orders,
    cyclotomic_poly,
    identity_matrix,
    lattice_index,
    linear_map,
    mat_add,
    mat_mul,
    mat_pow,
    mat_sub,
    positive_definite,
    totient,
    unimodular_inverse,
    vector_add,
)


def test_det_examples():
    assert det_int(((5,),)) == 5
    assert det_int(((2, 1), (1, 1))) == 1
    assert det_int(((0, -1), (1, 0))) == 1
    assert det_int(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == 0
    assert det_int(identity_matrix(4)) == 1


def test_mat_helpers():
    a = ((1, 2), (3, 4))
    b = ((0, 1), (1, 0))
    assert mat_mul(a, b) == ((2, 1), (4, 3))
    assert mat_sub(a, b) == ((1, 1), (2, 4))
    assert mat_add(a, b, b) == ((1, 4), (5, 4))
    assert linear_map(a)((1, -1)) == (-1, -1)
    assert vector_add(2)((1, 2), (3, -5)) == (4, -3)


@given(
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    st.integers(0, 12),
)
def test_mat_pow_matches_repeated_product(entries, e):
    a = (tuple(entries[:2]), tuple(entries[2:]))
    acc = identity_matrix(2)
    for _ in range(e):
        acc = mat_mul(acc, a)
    assert mat_pow(a, e) == acc


HUGE = 10**200
fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
# ints up to 10^200 in size, small ones and zeros more often, or Fractions
entries = (
    st.integers(-HUGE, HUGE) | st.integers(-50, 50) | st.sampled_from([0, 1, -1])
) | fractions
# 0-6 rows of width 1-6, and a vector of that width, both of ints or Fractions
matrix_and_vector = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(entries, min_size=n, max_size=n), max_size=6),
        st.lists(entries, min_size=n, max_size=n),
    )
)


@given(matrix_and_vector)
@example(([], [3]))
@example(([[HUGE, -HUGE]] * 6, [HUGE, HUGE - 1]))
@example(([[Fraction(1, 2)] * 6, [0] * 6], [Fraction(-2, 3)] * 6))
@example(([[0] * 6], [Fraction(1, 3)] * 6))
def test_linear_map_matches_mat_vec(case):
    rows, v = case
    a = tuple(map(tuple, rows))
    expected = mat_vec(a, tuple(v))
    out = linear_map(a)(tuple(v))
    assert type(out) is tuple
    assert out == expected
    assert [type(x) for x in out] == [type(x) for x in expected]


def test_linear_map_binds_entries_not_text():
    # the entries are names in the function's namespace: the compiled text
    # is the same for every matrix of one shape, whatever it holds
    first = linear_map(((2, 1), (1, 1)))
    second = linear_map(((10**200, Fraction(-1, 3)), (0, -7)))
    for attr in ("co_code", "co_consts", "co_names"):
        assert getattr(first.__code__, attr) == getattr(second.__code__, attr)
    assert second((3, 6)) == (3 * 10**200 - 2, -42)
    with pytest.raises(ValueError):
        first((1, 2, 3))  # a vector of the wrong length is refused


vector_pairs = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=2, max_size=2
    )
)


@given(vector_pairs)
def test_vector_add_matches_the_sum_of_entries(pair):
    a, b = map(tuple, pair)
    out = vector_add(len(a))(a, b)
    expected = tuple(x + y for x, y in zip(a, b))
    assert type(out) is tuple
    assert out == expected
    assert [type(x) for x in out] == [type(x) for x in expected]


def test_mat_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        mat_pow(((2, 1), (1, 1)), -1)


small_matrix = st.integers(1, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: tuple(tuple(r) for r in rows))
)


@given(small_matrix)
@settings(max_examples=150)
def test_adjugate_identity(m):
    n = len(m)
    d = det_int(m)
    assert mat_mul(m, adjugate(m)) == tuple(
        tuple(d if i == j else 0 for j in range(n)) for i in range(n)
    )


def test_adjugate_base_case():
    assert adjugate(((7,),)) == ((1,),)


def assert_charpoly_matches_determinants(m):
    # chi_M has degree n, so its values at x = 0 .. n determine it
    n = len(m)
    chi = charpoly(m)
    assert len(chi) == n + 1 and chi[-1] == 1
    for x in range(n + 1):
        scalar = tuple(tuple(x * e for e in row) for row in identity_matrix(n))
        assert sum(c * x**k for k, c in enumerate(chi)) == det_int(mat_sub(scalar, m))


# [[2,1],[1,1]], the order-4 and order-6 rotations, J2(1), the Pisot
# companion, I + [[2,1],[1,1]], the order-4 rotation + [[2,1],[1,1]], the
# companions of Phi_12 and of (x^2 - 3x + 1)^2, and [[7]]
@pytest.mark.parametrize(
    "m",
    [
        ((2, 1), (1, 1)),
        ((0, -1), (1, 0)),
        ((0, -1), (1, 1)),
        ((1, 1), (0, 1)),
        ((0, 0, 1), (1, 0, 1), (0, 1, 0)),
        ((1, 0, 0), (0, 2, 1), (0, 1, 1)),
        ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1)),
        ((0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0)),
        ((0, 0, 0, -1), (1, 0, 0, 6), (0, 1, 0, -11), (0, 0, 1, 6)),
        ((7,),),
    ],
)
def test_charpoly_named_matrices(m):
    assert_charpoly_matches_determinants(m)


@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(lambda rows: tuple(tuple(r) for r in rows))
    )
)
@settings(max_examples=150)
def test_charpoly_matches_determinants(m):
    assert_charpoly_matches_determinants(m)


def test_unimodular_inverse():
    m = ((2, 1), (1, 1))
    inv = unimodular_inverse(m)
    assert mat_mul(m, inv) == identity_matrix(2)
    flip = ((0, 1), (1, 0))
    assert mat_mul(flip, unimodular_inverse(flip)) == identity_matrix(2)


def test_smith_normal_form_examples():
    m = ((-4, -3), (-3, -1))
    snf = smith_normal_form(m)
    assert snf.diag == (1, 5)
    # U m V = D
    assert mat_mul(mat_mul(snf.left, m), snf.right) == (
        (1, 0),
        (0, 5),
    )
    assert smith_normal_form(((0, 0), (0, 0))).diag == (0, 0)
    assert smith_normal_form(((2, 4), (4, 8))).diag == (2, 0)


@given(small_matrix)
@settings(max_examples=150)
def test_smith_normal_form_properties(m):
    n = len(m)
    snf = smith_normal_form(m)
    d = tuple(
        tuple(snf.diag[i] if i == j else 0 for j in range(n)) for i in range(n)
    )
    assert mat_mul(mat_mul(snf.left, m), snf.right) == d
    assert det_int(snf.left) in (1, -1)
    assert det_int(snf.right) in (1, -1)
    diag = [x for x in snf.diag if x]
    assert all(x > 0 for x in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
    # zero entries trail the nonzero ones
    assert list(snf.diag) == diag + [0] * (n - len(diag))


def test_positive_definite_examples():
    # the Hermite trace form of x^3 - x - 1, which has a complex root pair
    hermite = ((3, 0, 2), (0, 2, 3), (2, 3, 2))
    assert leading_minors(hermite) == [3, 6, -23]
    assert not positive_definite(hermite)
    assert positive_definite(((2, -1), (-1, 3)))
    assert not positive_definite(((0, 0), (0, 1)))


@given(small_matrix, st.integers(-3, 3))
@settings(max_examples=150)
def test_positive_definite_matches_leading_minors(m, shift):
    # m^T m is positive semidefinite, so the shift decides the borderline
    s = mat_mul(tuple(zip(*m)), m)
    s = tuple(
        tuple(x + (shift if i == j else 0) for j, x in enumerate(row))
        for i, row in enumerate(s)
    )
    assert positive_definite(s) == all(minor > 0 for minor in leading_minors(s))


def test_integer_kernel_basis():
    assert integer_kernel_basis(((1, 0), (0, 1))) == ()
    basis = integer_kernel_basis(((1, 2, 3), (2, 4, 6), (0, 0, 0)))
    assert len(basis) == 2
    for v in basis:
        assert mat_vec(((1, 2, 3), (2, 4, 6), (0, 0, 0)), v) == (0, 0, 0)
    full = integer_kernel_basis(((0, 0), (0, 0)))
    assert len(full) == 2


@given(small_matrix)
@settings(max_examples=100)
def test_kernel_vectors_annihilate(m):
    n = len(m)
    for v in integer_kernel_basis(m):
        assert mat_vec(m, v) == (0,) * n


def test_unimodular_inverse_round_trip():
    for m in (((1, 1), (0, 1)), ((3, 2), (4, 3)), ((0, -1), (1, 0))):
        inv = unimodular_inverse(m)
        assert mat_mul(inv, m) == identity_matrix(2)


# ---------------------------------------------------------------------------
# Cayley-Hamilton adjugate, inverse and lattice index against the Bareiss
# and Smith-form references
# ---------------------------------------------------------------------------

matrix_up_to_4 = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: tuple(tuple(r) for r in rows))
)


@st.composite
def unimodular_matrix(draw):
    """A product of row negations and row additions, so det is +-1."""
    n = draw(st.integers(1, 4))
    rows = [list(row) for row in identity_matrix(n)]
    for _ in range(draw(st.integers(0, 12))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            q = draw(st.integers(-3, 3))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return tuple(tuple(row) for row in rows)


@given(matrix_up_to_4, st.integers(0, 3))
@settings(max_examples=200)
def test_adjugate_matches_cofactors(m, rank_drop):
    # the last rank_drop rows copy the first, so singular inputs are common
    rows = [m[0] if i >= len(m) - rank_drop else row for i, row in enumerate(m)]
    m = tuple(rows)
    assert linalg.adjugate(m) == (adjugate(m), det_int(m))


vectors_in_z_up_to_4 = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n).map(tuple),
            max_size=2 * n + 1,
        ),
    )
)


@given(vectors_in_z_up_to_4)
@settings(max_examples=200)
def test_lattice_index_matches_smith_diagonal(case):
    n, vectors = case
    columns = tuple(tuple(v[i] for v in vectors) for i in range(n))
    diag = smith_normal_form(columns).diag
    expected = math.prod(diag) if len(diag) == n else 0
    assert lattice_index(vectors, n) == expected


def test_lattice_index_examples():
    assert lattice_index([], 2) == 0
    assert lattice_index([(1, 2), (2, 4)], 2) == 0
    assert lattice_index([(2, 0), (4, 2)], 2) == 4
    assert lattice_index([(3, 5), (2, 3)], 2) == 1
    assert lattice_index([(0, 0, 1), (0, 1, 0)], 3) == 0


@given(unimodular_matrix())
@settings(max_examples=150)
def test_unimodular_inverse_matches_adjugate(m):
    d = det_int(m)
    assert d in (1, -1)
    # A^-1 = adj(A) / det A, and 1 / det = det for det = +-1
    assert unimodular_inverse(m) == tuple(
        tuple(d * x for x in row) for row in adjugate(m)
    )


@given(matrix_up_to_4)
@settings(max_examples=150)
def test_unimodular_inverse_refuses_other_determinants(m):
    assume(det_int(m) not in (1, -1))
    with pytest.raises(ValueError, match="determinant"):
        unimodular_inverse(m)


@given(matrix_up_to_4, st.integers(-3, 3))
@settings(max_examples=100)
def test_unimodular_inverse_refuses_singular(m, q):
    # the last row becomes a multiple of the first (zero when n = 1)
    rows = list(m)
    rows[-1] = tuple(q * x for x in rows[0]) if len(m) > 1 else (0,)
    singular = tuple(rows)
    assert det_int(singular) == 0
    with pytest.raises(ValueError, match="determinant"):
        unimodular_inverse(singular)


def test_unimodular_inverse_refuses_non_square():
    with pytest.raises(ValueError, match="determinant"):
        unimodular_inverse(((1, 0),))


def _poly_at(coeffs, m):
    n = len(m)
    acc = tuple((0,) * n for _ in range(n))
    for c in reversed(coeffs):
        acc = mat_mul(acc, m)
        acc = tuple(
            tuple(x + (c if i == j else 0) for j, x in enumerate(row))
            for i, row in enumerate(acc)
        )
    return acc


def reference_orders(m) -> list[int]:
    """Every d with det(Phi_d(M)) == 0, scanning well past the package's bound."""
    n = len(m)
    return [
        d
        for d in range(1, 8 * n * n + 8)
        if totient(d) <= n and det_int(_poly_at(cyclotomic_poly(d), m)) == 0
    ]


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-1, 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(lambda rows: tuple(tuple(r) for r in rows))
    )
)
# a 3-cycle, a rotation beside an order-3 companion, the Phi_12 companion
@example(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
@example(((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -1, -1)))
@example(((0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0)))
@settings(max_examples=150)
def test_cyclotomic_orders_match_determinant_scan(m):
    assert cyclotomic_orders(m) == reference_orders(m)
