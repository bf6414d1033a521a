import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import MatrixContext
from abcgroups.linalg import (
    cyclotomic_orders,
    cyclotomic_poly,
    identity_matrix,
    integer_kernel_basis,
    mat_pow,
    mat_sub,
    mat_vec,
    totient,
)
from abcgroups.spectral import (
    epsilon_norm_table,
    relative_growth_table,
    unit_root_projection,
)

HYP = ((2, 1), (1, 1))
ROT4 = ((0, -1), (1, 0))
BLOCK = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))
MIXED3 = ((1, 0, 0), (0, 2, 1), (0, 1, 1))


def periodic_subgroup_basis(matrix) -> tuple[tuple[int, ...], ...]:
    """Integer basis of P = {v : M^N v = v}, N the unit-root period.

    Any v with a finite M-orbit satisfies M^N v = v because every root of
    unity in the spectrum has order dividing N, so this kernel is the full
    periodic subgroup.
    """
    period = math.lcm(*cyclotomic_orders(matrix))
    shifted = mat_sub(mat_pow(matrix, period), identity_matrix(len(matrix)))
    return integer_kernel_basis(shifted)


def test_totient():
    assert [totient(d) for d in range(1, 13)] == [
        1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4,
    ]


def test_cyclotomic_poly_examples():
    # coefficients from the constant term up
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclotomic_product(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, cyclotomic_poly(d))
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected


def test_cyclotomic_orders():
    assert cyclotomic_orders(HYP) == []
    assert cyclotomic_orders(identity_matrix(2)) == [1]
    assert cyclotomic_orders(((-1, 0), (0, -1))) == [2]
    assert cyclotomic_orders(ROT4) == [4]
    assert cyclotomic_orders(((0, -1), (1, 1))) == [6]
    assert cyclotomic_orders(BLOCK) == [4]
    assert cyclotomic_orders(((1, 1), (0, 1))) == [1]
    # companion matrix of the order-12 cyclotomic polynomial
    comp12 = ((0, 0, 0, -1), (1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0))
    assert cyclotomic_orders(comp12) == [12]


def test_unit_root_period():
    def period(matrix):
        return unit_root_projection(MatrixContext(matrix)).period

    assert period(HYP) == 1
    assert period(ROT4) == 4
    assert period(BLOCK) == 4
    assert period(((-1, 0), (0, -1))) == 2


def test_periodic_subgroup_basis():
    assert periodic_subgroup_basis(HYP) == ()
    full = periodic_subgroup_basis(ROT4)
    assert len(full) == 2
    partial = periodic_subgroup_basis(BLOCK)
    assert len(partial) == 2
    for v in partial:
        assert v[2] == v[3] == 0


def test_projection_identity_cases():
    setup = unit_root_projection(MatrixContext(ROT4))
    assert setup.period == 4
    assert setup.denominator_lcm == 1
    assert setup.matrix == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    minus = unit_root_projection(MatrixContext(((-1, 0), (0, -1))))
    assert minus.period == 2
    assert minus.matrix[0][0] == 1 and minus.matrix[1][1] == 1


def test_projection_properties():
    for rows in (BLOCK, MIXED3):
        n = len(rows)
        setup = unit_root_projection(MatrixContext(rows))
        e = setup.matrix
        # idempotent
        for i in range(n):
            for j in range(n):
                assert sum(e[i][s] * e[s][j] for s in range(n)) == e[i][j]
        # fixes the periodic subgroup pointwise
        for v in setup.kernel_basis:
            assert setup.apply(v) == tuple(Fraction(x) for x in v)
        # kills the complement spanned by the image columns
        for w in setup.image_basis:
            assert all(x == 0 for x in setup.apply(w))
        # commutes with the defining matrix
        for i in range(n):
            for j in range(n):
                via_m = sum(Fraction(rows[i][s]) * e[s][j] for s in range(n))
                via_e = sum(e[i][s] * Fraction(rows[s][j]) for s in range(n))
                assert via_m == via_e
        # the declared denominator clears every entry
        for row in e:
            for entry in row:
                assert setup.denominator_lcm % entry.denominator == 0


def test_projection_refuses_non_semisimple():
    with pytest.raises(ValueError, match="semisimple"):
        unit_root_projection(MatrixContext(((1, 1), (0, 1))))
    with pytest.raises(ValueError):
        unit_root_projection(MatrixContext(((1, 0), (1, 1))))


@given(st.tuples(*(st.integers(-30, 30) for _ in range(4))))
def test_projection_commutes_on_vectors(v):
    setup = unit_root_projection(MatrixContext(BLOCK))
    mv = mat_vec(BLOCK, v)
    lhs = setup.apply(mv)
    rhs = tuple(
        sum(Fraction(BLOCK[i][j]) * x for j, x in enumerate(setup.apply(v)))
        for i in range(4)
    )
    assert lhs == rhs


def test_relative_growth_table():
    ctx = MatrixContext(MIXED3)
    index = enumerate_ball(ctx, 4)
    rows = relative_growth_table(ctx, index)
    assert [r for r, _, _ in rows] == [0, 1, 2, 3, 4]
    balls = [index.ball_size(r) for r in range(5)]
    assert [b for _, b, _ in rows] == balls
    # the periodic subgroup is the first coordinate axis: 2r + 1 points
    assert [p for _, _, p in rows] == [1, 3, 5, 7, 9]


def test_relative_growth_table_trivial_subgroup():
    ctx = MatrixContext(HYP)
    index = enumerate_ball(ctx, 3)
    rows = relative_growth_table(ctx, index)
    assert [p for _, _, p in rows] == [1, 1, 1, 1]


def test_epsilon_norm_table():
    ctx = MatrixContext(MIXED3)
    index = enumerate_ball(ctx, 4)
    rows = epsilon_norm_table(ctx, index)
    # the projection keeps the first coordinate, whose reach grows with r
    assert rows == [(r, Fraction(r)) for r in range(5)]


def test_epsilon_norm_table_is_monotone():
    ctx = MatrixContext(MIXED3)
    index = enumerate_ball(ctx, 4)
    rows = epsilon_norm_table(ctx, index)
    values = [v for _, v in rows]
    assert all(a <= b for a, b in zip(values, values[1:]))
