import pytest
from hypothesis import given, settings, strategies as st

from abcgroups.linalg import (
    adjugate,
    det_int,
    identity_matrix,
    integer_kernel_basis,
    mat_mul,
    mat_pow,
    mat_sub,
    mat_vec,
    smith_normal_form,
    unimodular_inverse,
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
    assert mat_vec(a, (1, -1)) == (-1, -1)


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


def test_unimodular_inverse():
    m = ((2, 1), (1, 1))
    inv = unimodular_inverse(m, 1)
    assert mat_mul(m, inv) == identity_matrix(2)
    flip = ((0, 1), (1, 0))
    assert mat_mul(flip, unimodular_inverse(flip, -1)) == identity_matrix(2)


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
        inv = unimodular_inverse(m, det_int(m))
        assert mat_mul(inv, m) == identity_matrix(2)
