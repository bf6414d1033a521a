import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    epsilon_norm_reference,
    epsilon_norm_table_by_sphere,
    integer_kernel_basis,
    mat_vec,
    relative_growth_table_by_sphere,
)
from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import MatrixContext
from abcgroups.linalg import (
    cyclotomic_orders,
    cyclotomic_poly,
    identity_matrix,
    mat_mul,
    mat_pow,
    mat_sub,
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
ROT6 = ((0, -1), (1, 1))
PISOT = ((0, 0, 1), (1, 0, 1), (0, 1, 0))
JORDAN = ((1, 1), (0, 1))


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
        return math.lcm(*MatrixContext(matrix).unit_root_orders)

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
    proj = unit_root_projection(MatrixContext(ROT4))
    assert proj == (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    minus = unit_root_projection(MatrixContext(((-1, 0), (0, -1))))
    assert minus[0][0] == 1 and minus[1][1] == 1


def assert_projection_properties(rows, proj):
    """The four properties that determine the projection onto
    P = ker(M^N - I) along im((M^N - I)^n), however it was built."""
    n = len(rows)
    shifted = mat_sub(
        mat_pow(rows, math.lcm(*cyclotomic_orders(rows))), identity_matrix(n)
    )
    assert all(isinstance(x, Fraction) for row in proj for x in row)
    # idempotent
    assert mat_mul(proj, proj) == proj
    # fixes the periodic subgroup pointwise
    for v in integer_kernel_basis(shifted):
        assert mat_vec(proj, v) == v
    # kills every column of (M^N - I)^n
    power = mat_pow(shifted, n)
    for c in range(n):
        assert not any(mat_vec(proj, [row[c] for row in power]))
    # commutes with the defining matrix
    assert mat_mul(proj, rows) == mat_mul(rows, proj)


def test_projection_properties():
    for rows in (BLOCK, MIXED3):
        assert_projection_properties(rows, unit_root_projection(MatrixContext(rows)))


def block_sum(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return tuple(tuple(row) for row in out)


BLOCKS = [((1,),), ((-1,),), ROT4, ROT6, HYP, PISOT, JORDAN, ((-1, 1), (0, -1))]
NONTRIVIAL_UNIT_ROOT_JORDAN = {JORDAN, ((-1, 1), (0, -1))}


@st.composite
def conjugated_block_sum(draw):
    """(S B S^-1, B's blocks) for a block sum B of at most 5 rows and a
    unimodular S built from elementary row operations."""
    blocks = draw(
        st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=3).filter(
            lambda bs: sum(len(b) for b in bs) <= 5
        )
    )
    n = sum(len(b) for b in blocks)
    s = [list(row) for row in identity_matrix(n)]
    s_inv = [list(row) for row in identity_matrix(n)]
    if n > 1:
        ops = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)
                ).filter(lambda op: op[0] != op[1]),
                max_size=6,
            )
        )
        for i, j, c in ops:
            # row_i += c row_j on S, column_j -= c column_i on S^-1
            s[i] = [x + c * y for x, y in zip(s[i], s[j])]
            for row in s_inv:
                row[j] -= c * row[i]
    s, s_inv = tuple(map(tuple, s)), tuple(map(tuple, s_inv))
    return mat_mul(mat_mul(s, block_sum(blocks)), s_inv), blocks


@given(conjugated_block_sum())
@settings(deadline=None)
def test_projection_on_conjugated_block_sums(case):
    rows, blocks = case
    ctx = MatrixContext(rows)
    if any(b in NONTRIVIAL_UNIT_ROOT_JORDAN for b in blocks):
        with pytest.raises(ValueError, match="semisimple"):
            unit_root_projection(ctx)
        return
    assert_projection_properties(rows, unit_root_projection(ctx))


def test_projection_refuses_non_semisimple():
    with pytest.raises(ValueError, match="semisimple"):
        unit_root_projection(MatrixContext(((1, 1), (0, 1))))
    with pytest.raises(ValueError):
        unit_root_projection(MatrixContext(((1, 0), (1, 1))))
    # chi = (x - 1)^2 r(x) with r = x^2 - 2x - 1 and r'(1) = 0, so r(M) / r(1)
    # is idempotent although the eigenvalue 1 is not semisimple
    with pytest.raises(ValueError, match="semisimple"):
        unit_root_projection(MatrixContext(block_sum([JORDAN, ((0, 1), (1, 2))])))


@given(st.tuples(*(st.integers(-30, 30) for _ in range(4))))
def test_projection_commutes_on_vectors(v):
    proj = unit_root_projection(MatrixContext(BLOCK))
    assert mat_vec(proj, mat_vec(BLOCK, v)) == mat_vec(BLOCK, mat_vec(proj, v))


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


DEN5 = ((-1, 1, 1), (0, 2, 1), (0, 1, 1))
DEN3 = ((0, -1, 1, 0), (1, 0, 0, 1), (0, 0, 2, 1), (0, 0, 1, 1))


@pytest.mark.parametrize(
    "rows, radius, den", [(DEN5, 7, 5), (DEN3, 5, 3), (MIXED3, 8, 1)]
)
def test_epsilon_norm_table_matches_fraction_reference(rows, radius, den):
    # the table scans den P in integers; the reference applies P in Fractions
    ctx = MatrixContext(rows)
    proj = unit_root_projection(ctx)
    assert math.lcm(*(x.denominator for row in proj for x in row)) == den
    index = enumerate_ball(ctx, radius)
    table = epsilon_norm_table(ctx, index)
    assert table == epsilon_norm_reference(ctx, index)
    assert all(isinstance(v, Fraction) for _, v in table)


@pytest.mark.parametrize(
    "rows, den, k", [(DEN5, 5, 2), (DEN3, 3, 4)], ids=["rows0-5", "rows1-3"]
)
def test_epsilon_norm_table_fractional_norms(rows, den, k):
    # with R = {0, +-e_3, +-e_k} the kernel elements of S^r reach
    # |P v| = 2r / den, so the integer scan must divide by den at every
    # radius; e_3 alone spans a submodule of index 2 (DEN5) or 5 (DEN3),
    # and e_k completes it to Z^n over M
    n = len(rows)
    units = [tuple(1 if i == j else 0 for i in range(n)) for j in (2, k - 1)]
    kgens = [(0,) * n] + [w for e in units for w in (e, tuple(-x for x in e))]
    ctx = MatrixContext(rows, kgens=kgens)
    index = enumerate_ball(ctx, 8)
    table = epsilon_norm_table(ctx, index)
    assert table == [(r, Fraction(2 * r, den)) for r in range(9)]
    assert table == epsilon_norm_reference(ctx, index)


@pytest.mark.parametrize(
    "ctx, radius",
    [
        (MatrixContext(MIXED3), 7),
        # the den5 config: R = {0, +-e_3, +-e_2}
        (MatrixContext(DEN5, kgens=((0, 0, 0), (0, 0, 1), (0, 0, -1), (0, 1, 0), (0, -1, 0))), 6),
    ],
    ids=["unit-root-r7", "den5-r6"],
)
def test_stratum_tables_equal_sphere_tables(ctx, radius):
    # the tables scan stratum 0 of each sphere; the oracles test the
    # t-exponent of every element of each whole sphere
    index = enumerate_ball(ctx, radius)
    assert relative_growth_table(ctx, index) == relative_growth_table_by_sphere(
        ctx, index
    )
    assert epsilon_norm_table(ctx, index) == epsilon_norm_table_by_sphere(ctx, index)


def test_epsilon_norm_table_is_monotone():
    ctx = MatrixContext(MIXED3)
    index = enumerate_ball(ctx, 4)
    rows = epsilon_norm_table(ctx, index)
    values = [v for _, v in rows]
    assert all(a <= b for a, b in zip(values, values[1:]))
