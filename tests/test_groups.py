import json

import pytest
from hypothesis import given, strategies as st

from _oracles import adjugate, conjugate, det_int, element, mat_vec
from abcgroups.groups import (
    BaumslagSolitarContext,
    Element,
    LamplighterContext,
    MatrixContext,
    load_matrix_config,
    parse_group_descriptor,
)
from abcgroups.linalg import identity_matrix, mat_mul, mat_pow, mat_sub

HYP = ((2, 1), (1, 1))
# companions of x^3 - x - 1 and x^4 - x - 1
PISOT = ((0, 0, 1), (1, 0, 1), (0, 1, 0))
QUARTIC = ((0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))


def test_constructor_validation():
    with pytest.raises(ValueError):
        LamplighterContext(1)
    with pytest.raises(ValueError):
        LamplighterContext(-3)
    with pytest.raises(ValueError):
        BaumslagSolitarContext(1)
    with pytest.raises(ValueError, match="determinant"):
        MatrixContext(((2, 0), (0, 1)))
    with pytest.raises(ValueError, match="determinant"):
        MatrixContext(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        MatrixContext(((1, 2), (3,)))


def test_kgen_set_validation():
    # missing the inverse of (1, 0)
    with pytest.raises(ValueError):
        BaumslagSolitarContext(2, kgens=((0, 0), (1, 0)))
    # missing zero
    with pytest.raises(ValueError):
        BaumslagSolitarContext(2, kgens=((1, 0), (-1, 0)))


def test_bs_kgens_must_generate_the_kernel():
    # R spans gcd(numerators) Z[1/k], which is Z[1/k] only when every prime
    # of the gcd divides k; {0, +-3} in bs:2 spans 3 Z[1/2], where the keys
    # of BS(1,2) find 23 classes at r5 and the oracle 27 blocks at rc12
    for k, nums in ((2, (3,)), (2, ()), (3, (2, 4)), (6, (5, 10)), (6, (35,))):
        kgens = [(0, 0)] + [(s * a, 0) for a in nums for s in (1, -1)]
        with pytest.raises(ValueError, match="generate"):
            BaumslagSolitarContext(k, kgens=kgens)
    for k, kgens in (
        (2, ((0, 0), (2, 0), (-2, 0))),
        (2, ((0, 0), (1, 1), (-1, 1))),
        (2, ((0, 0), (1, 0), (-1, 0), (3, 0), (-3, 0))),
        (2, ((0, 0), (3, 0), (-3, 0), (8, 0), (-8, 0))),
        (6, ((0, 0), (12, 0), (-12, 0))),
        (6, ((0, 0), (35, 0), (-35, 0), (36, 0), (-36, 0))),
    ):
        BaumslagSolitarContext(k, kgens=kgens)


def symmetric(m, *confs):
    """{0} and each configuration with its negative, lamps mod m."""
    return [()] + [
        tuple((i, s * v % m if m else s * v) for i, v in conf)
        for conf in confs
        for s in (1, -1)
    ]


def test_lamplighter_kgens_must_generate_the_kernel():
    # R generates K over t when its Laurent polynomials sum v_i x^i generate
    # Z/m[x, 1/x]; {0, d_0 + d_1} in lamplighter:2 spans only the even lamp
    # counts, where the keys find 28 classes at r6 and the oracle 36 at rc12
    pair, two, three = ((0, 1), (1, 1)), ((0, 2),), ((0, 3),)
    for m, confs in (
        (2, [pair]),
        (4, [two]),
        (0, [two]),
        (2, []),
        (0, [pair, ((0, 1), (1, -1))]),
        (0, [((0, 2), (1, 1)), three]),
    ):
        with pytest.raises(ValueError, match="generate"):
            LamplighterContext(m, kgens=symmetric(m, *confs))
    for m, confs in (
        (6, [two, three]),
        (0, [pair, ((0, 1), (1, 2))]),
        (2, [((0, 1),), ((1, 1),), pair]),
        (2, [((1, 1),)]),
        (5, [((-3, 2),)]),
        (3, [((2, 1), (5, 1)), ((3, 1),)]),
    ):
        LamplighterContext(m, kgens=symmetric(m, *confs))


def test_generator_counts_and_order():
    assert len(BaumslagSolitarContext(2).generators()) == 4
    # with mod 2 lamps the lamp generator is its own inverse
    assert len(LamplighterContext(2).generators()) == 3
    assert len(MatrixContext(HYP).generators()) == 6
    for ctx in (BaumslagSolitarContext(2), LamplighterContext(3), MatrixContext(HYP)):
        gens = ctx.generators()
        assert ctx.identity not in gens
        assert gens[-2].texp == 1 and gens[-1].texp == -1


def test_bs_arithmetic():
    ctx = BaumslagSolitarContext(2)
    t = Element((0, 0), 1)
    g0 = Element((1, 0), 0)
    assert conjugate(ctx, t, g0) == Element((2, 0), 0)
    assert conjugate(ctx, ctx.invert(t), g0) == Element((1, 1), 0)
    g = ctx.multiply(Element((1, 0), 1), Element((1, 0), 1))
    assert g == Element((3, 0), 2)
    assert ctx.multiply(g, ctx.invert(g)) == ctx.identity


def test_bs_canonical_kpart():
    ctx = BaumslagSolitarContext(2)
    assert ctx.canonical_kpart((4, 2)) == (1, 0)
    assert ctx.canonical_kpart((6, 1)) == (3, 0)
    assert ctx.canonical_kpart((0, 5)) == (0, 0)
    assert ctx.canonical_kpart((3, -2)) == (12, 0)
    assert ctx.canonical_kpart((5, 3)) == (5, 3)


def test_lamplighter_arithmetic():
    ctx = LamplighterContext(2)
    t = Element((), 1)
    delta0 = Element(((0, 1),), 0)
    assert conjugate(ctx, t, delta0) == Element(((1, 1),), 0)
    # mod 2: the same lamp toggled twice goes dark
    assert ctx.multiply(delta0, delta0) == ctx.identity
    ctx3 = LamplighterContext(3)
    d = Element(((0, 1),), 0)
    assert ctx3.multiply(d, d) == Element(((0, 2),), 0)
    assert ctx3.invert(d) == Element(((0, 2),), 0)


def test_integer_lamps():
    ctx = LamplighterContext(0)
    d = Element(((0, 1),), 0)
    g = ctx.multiply(ctx.multiply(d, d), d)
    assert g == Element(((0, 3),), 0)
    assert ctx.invert(g) == Element(((0, -3),), 0)


def test_matrix_arithmetic():
    ctx = MatrixContext(HYP)
    t = Element((0, 0), 1)
    e1 = Element((1, 0), 0)
    assert conjugate(ctx, t, e1) == Element((2, 1), 0)
    assert conjugate(ctx, ctx.invert(t), e1) == Element((1, -1), 0)
    assert ctx.phi_power((1, 0), 2) == (5, 3)
    assert ctx.phi_power(ctx.phi_power((4, -7), 3), -3) == (4, -7)


def test_matrix_power_far_out():
    # a power is not built from the chain of all smaller ones
    ctx = MatrixContext(HYP)
    assert ctx.phi_power(ctx.phi_power((4, -7), 1500), -1500) == (4, -7)
    # M^n = [[F(2n+1), F(2n)], [F(2n), F(2n-1)]] for Fibonacci numbers F
    (a, b), (c, d) = ctx.matrix_power(1500)
    assert b == c and a == b + d and a * d - b * c == 1


bs_elements = st.builds(
    lambda num, e, p: (num, e, p),
    st.integers(-50, 50),
    st.integers(0, 4),
    st.integers(-3, 3),
)


@given(bs_elements, bs_elements, bs_elements)
def test_bs_associativity(ta, tb, tc):
    ctx = BaumslagSolitarContext(2)
    a, b, c = (element(ctx, (num, e), p) for num, e, p in (ta, tb, tc))
    lhs = ctx.multiply(ctx.multiply(a, b), c)
    rhs = ctx.multiply(a, ctx.multiply(b, c))
    assert lhs == rhs


lamp_config = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(1, 2)), max_size=4
).map(tuple)


@given(lamp_config, lamp_config, st.integers(-3, 3), st.integers(-3, 3))
def test_lamplighter_associativity_and_inverse(ka, kb, pa, pb):
    ctx = LamplighterContext(3)
    a = element(ctx, ka, pa)
    b = element(ctx, kb, pb)
    ab = ctx.multiply(a, b)
    assert ctx.multiply(ab, ctx.invert(ab)) == ctx.identity
    assert ctx.invert(ab) == ctx.multiply(ctx.invert(b), ctx.invert(a))


@given(st.integers(-20, 20), st.integers(0, 3), st.integers(-4, 4), st.integers(-4, 4))
def test_phi_power_additive(num, e, i, j):
    ctx = BaumslagSolitarContext(3)
    a = ctx.canonical_kpart((num, e))
    assert ctx.phi_power(a, i + j) == ctx.phi_power(ctx.phi_power(a, j), i)


@given(lamp_config)
def test_canonical_idempotent(cfg):
    ctx = LamplighterContext(2)
    once = ctx.canonical_kpart(cfg)
    assert ctx.canonical_kpart(once) == once
    assert all(v == 1 for _, v in once)
    assert [i for i, _ in once] == sorted(i for i, _ in once)


KERNEL_BASES = [identity_matrix(n) for n in range(1, 5)] + [
    ((-1,),),
    HYP,
    PISOT,
    QUARTIC,
]
# a base M, then two vectors a and b
base_then_rows = st.sampled_from(KERNEL_BASES).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(
            st.lists(st.integers(-(10**9), 10**9), min_size=len(m), max_size=len(m)),
            min_size=2,
            max_size=2,
        ),
    )
)


@given(base_then_rows)
def test_matrix_kernels_match_generator_formulas(case):
    m, rows = case
    n = len(m)
    a, b = map(tuple, rows)
    ctx = MatrixContext(m)
    assert ctx.kpart_add(a, b) == tuple(x + y for x, y in zip(a, b))
    assert ctx.kpart_neg(a) == tuple(-x for x in a)
    # phi^i by i steps of M, or of M^-1 = det M adj M with the cofactor adjugate
    inverse = tuple(tuple(det_int(m) * x for x in row) for row in adjugate(m))
    for i in range(-3, 4):
        w = a
        for _ in range(abs(i)):
            w = mat_vec(m if i > 0 else inverse, w)
        assert ctx.phi_power(a, i) == w
    power = identity_matrix(n)
    for k in range(1, 4):
        power = mat_mul(power, m)
        d_mat = mat_sub(identity_matrix(n), power)
        d_det = det_int(d_mat)
        if not d_det:
            with pytest.raises(ValueError, match="singular"):
                ctx.quotient(k)
            continue
        qd = ctx.quotient(k)
        raw = mat_vec(adjugate(d_mat), a)
        assert qd.coords(a) == tuple(x % abs(d_det) for x in raw)
        exact = all(x % d_det == 0 for x in raw)
        assert qd.solve(a) == (tuple(x // d_det for x in raw) if exact else None)
        assert qd.solve(mat_vec(d_mat, b)) == b


@pytest.mark.parametrize(
    "m,n,det", [(((-2, 1), (1, 0)), 1, 2), (HYP, 2, -5)], ids=["plus", "minus"]
)
@given(st.lists(st.integers(-(10**9), 10**9), min_size=2, max_size=2))
def test_quotient_reads_residues_mod_abs_det(m, n, det, a):
    # residues are taken mod |det D|, whatever its sign, and solve divides
    # by the signed det D
    a = tuple(a)
    d_mat = mat_sub(identity_matrix(2), mat_pow(m, n))
    assert det_int(d_mat) == det
    q = MatrixContext(m).quotient(n)
    raw = mat_vec(adjugate(d_mat), a)
    assert q.coords(a) == tuple(x % abs(det) for x in raw)
    exact = all(x % det == 0 for x in raw)
    assert q.solve(a) == (tuple(x // det for x in raw) if exact else None)
    assert q.solve(mat_vec(d_mat, a)) == a


def test_parse_group_descriptor():
    assert parse_group_descriptor("bs:2").k == 2
    assert parse_group_descriptor("lamplighter:5").m == 5
    with pytest.raises(ValueError):
        parse_group_descriptor("bs")
    with pytest.raises(ValueError):
        parse_group_descriptor("heisenberg:3")


def test_load_matrix_config(tmp_path):
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({"n": 2, "rows": [[2, 1], [1, 1]]}))
    ctx = load_matrix_config(str(path))
    assert ctx.matrix == HYP
    assert len(ctx.generators()) == 6

    custom = tmp_path / "gen.json"
    custom.write_text(
        json.dumps({"rows": [[2, 1], [1, 1]], "generators": [[1, 1]]})
    )
    ctx2 = load_matrix_config(str(custom))
    assert ctx2.kgen_nonzero == ((1, 1), (-1, -1))

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "rows": [[1, 0], [0, 1]]}))
    with pytest.raises(ValueError):
        load_matrix_config(str(bad))
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 2}))
    with pytest.raises(ValueError):
        load_matrix_config(str(missing))


def test_format_element():
    ctx = BaumslagSolitarContext(2)
    assert ctx.format_element(Element((3, 2), -1)) == "(3/2^2; t^-1)"
    lamp = LamplighterContext(3)
    assert lamp.format_element(Element(((0, 2), (5, 1)), 4)) == "(2@0+1@5; t^4)"
    assert lamp.format_element(lamp.identity) == "(0; t^0)"


@pytest.mark.parametrize(
    "config",
    [
        {"rows": [[2.7, 1], [1, 1.2]]},
        {"rows": [[2.0, 1], [1, 1]]},
        {"rows": [[True, 0], [0, True]]},
        {"rows": [[2, 1], [1, "1"]]},
        {"rows": [[2, 1], [1, 1]], "generators": [[1.9, 0]]},
        {"rows": [[2, 1], [1, 1]], "generators": [[False, True]]},
        {"rows": 5},
        {"rows": [[2, 1], [1, 1]], "generators": [1, 0]},
        {"n": 2.0, "rows": [[2, 1], [1, 1]]},
        {"n": True, "rows": [[1]]},
    ],
)
def test_load_matrix_config_rejects_non_integer_entries(tmp_path, config):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValueError):
        load_matrix_config(str(path))


@pytest.mark.parametrize(
    "rows, generators",
    [
        ([[2, 1], [1, 1]], [[0, 0]]),
        # (2, 0) and M (2, 0) = (4, 2) span a subgroup of index 4
        ([[2, 1], [1, 1]], [[2, 0]]),
        ([[2, 1], [1, 1]], []),
        # M fixes the first coordinate axis, which these never reach
        ([[1, 0, 0], [0, 2, 1], [0, 1, 1]], [[0, 1, 0], [0, 0, 1]]),
    ],
)
def test_load_matrix_config_rejects_proper_submodules(tmp_path, rows, generators):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"rows": rows, "generators": generators}))
    with pytest.raises(ValueError, match="generate"):
        load_matrix_config(str(path))


def test_matrix_context_checks_its_kernel_generators():
    # (2, 0) and M (2, 0) = (4, 2) span a subgroup of index 4
    with pytest.raises(ValueError, match="generate"):
        MatrixContext(HYP, kgens=[(0, 0), (2, 0), (-2, 0)])
    with pytest.raises(ValueError, match="generate"):
        MatrixContext(HYP, kgens=[(0, 0)])
    ctx = MatrixContext(HYP, kgens=[(0, 0), (1, 1), (-1, -1)])
    assert ctx.kgen_nonzero == ((1, 1), (-1, -1))


def test_load_matrix_config_accepts_module_generators(tmp_path):
    # one vector can generate Z^3 over M, and a redundant set is fine
    path = tmp_path / "matrix.json"
    rows = [[0, 0, 1], [1, 0, -1], [0, 1, 0]]
    path.write_text(json.dumps({"rows": rows, "generators": [[1, 0, 0]]}))
    assert load_matrix_config(str(path)).kgen_nonzero == ((1, 0, 0), (-1, 0, 0))
    path.write_text(
        json.dumps({"rows": [[2, 1], [1, 1]], "generators": [[2, 0], [0, 1]]})
    )
    assert len(load_matrix_config(str(path)).generators()) == 6


def test_matrix_context_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        MatrixContext([[2.7, 1], [1, 1.2]])
    ctx = MatrixContext(HYP)
    with pytest.raises(ValueError):
        ctx.canonical_kpart((1.9, 0))
