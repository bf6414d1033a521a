import functools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    adjugate,
    bs_value,
    conjugate,
    det_int,
    element,
    lamp_canonical,
    lamp_class_sums,
    lamp_fields,
    lamp_kpart_add,
    lamp_pairs,
    lamp_solve,
    lamp_word_length,
    mat_vec,
)
from abcgroups.enumeration import ResourceCapError, enumerate_ball
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
    t = element(ctx, (0, 0), 1)
    g0 = element(ctx, (1, 0), 0)
    assert conjugate(ctx, t, g0) == element(ctx, (2, 0), 0)
    assert conjugate(ctx, ctx.invert(t), g0) == element(ctx, (1, 1), 0)
    g = ctx.multiply(element(ctx, (1, 0), 1), element(ctx, (1, 0), 1))
    assert g == element(ctx, (3, 0), 2)
    assert ctx.multiply(g, ctx.invert(g)) == ctx.identity


def test_bs_canonical_kpart():
    ctx = BaumslagSolitarContext(2)
    # each pair (num, e) and the pair of its value with e minimal
    for raw, least in [
        ((4, 2), (1, 0)),
        ((6, 1), (3, 0)),
        ((0, 5), (0, 0)),
        ((3, -2), (12, 0)),
        ((5, 3), (5, 3)),
    ]:
        assert ctx.canonical_kpart(raw) == ctx.canonical_kpart(least)
        assert bs_value(ctx, ctx.canonical_kpart(raw)) == Fraction(least[0], 2 ** least[1])


def test_lamplighter_arithmetic():
    ctx = LamplighterContext(2)
    t = element(ctx, (), 1)
    delta0 = element(ctx, ((0, 1),))
    assert conjugate(ctx, t, delta0) == element(ctx, ((1, 1),))
    # mod 2: the same lamp toggled twice goes dark
    assert ctx.multiply(delta0, delta0) == ctx.identity
    ctx3 = LamplighterContext(3)
    d = element(ctx3, ((0, 1),))
    assert ctx3.multiply(d, d) == element(ctx3, ((0, 2),))
    assert ctx3.invert(d) == element(ctx3, ((0, 2),))


def test_integer_lamps():
    ctx = LamplighterContext(0)
    d = element(ctx, ((0, 1),))
    g = ctx.multiply(ctx.multiply(d, d), d)
    assert g == element(ctx, ((0, 3),))
    assert ctx.invert(g) == element(ctx, ((0, -3),))


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
    pairs = lamp_pairs(ctx, once)
    assert ctx.canonical_kpart(pairs) == once
    assert all(v == 1 for _, v in pairs)
    assert pairs == lamp_canonical(2, cfg)


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
    assert ctx.format_element(element(ctx, (3, 2), -1)) == "(3/2^2; t^-1)"
    lamp = LamplighterContext(3)
    assert lamp.format_element(element(lamp, ((5, 1), (0, 2)), 4)) == "(2@0+1@5; t^4)"
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


# ---------------------------------------------------------------------------
# bs K-parts as one integer x k^E, checked against Fractions
# ---------------------------------------------------------------------------


def least_pair(k: int, value: Fraction) -> tuple[int, int]:
    """(num, e) with value = num / k^e and e >= 0 minimal, the pair a bs
    K-part was stored as before it became one integer."""
    e = 0
    while (value * k**e).denominator != 1:
        e += 1
    return int(value * k**e), e


# bs:k and a ball of it on which word_length is checked
BS_BALL_RADIUS = {2: 11, 3: 8, 5: 7}


@functools.cache
def bs_ball(k):
    ctx = BaumslagSolitarContext(k)
    return ctx, enumerate_ball(ctx, BS_BALL_RADIUS[k])


raw_kparts = st.tuples(st.integers(-(10**6), 10**6), st.integers(-3, 20))


@settings(max_examples=300, deadline=None)
@given(
    k=st.sampled_from([2, 3, 5]),
    x=raw_kparts,
    y=raw_kparts,
    i=st.integers(-90, 90),
)
def test_bs_kparts_match_fraction_arithmetic(k, x, y, i):
    ctx = BaumslagSolitarContext(k)
    a, b = ctx.canonical_kpart(x), ctx.canonical_kpart(y)
    va = Fraction(x[0]) * Fraction(k) ** -x[1]
    vb = Fraction(y[0]) * Fraction(k) ** -y[1]
    assert bs_value(ctx, a) == va
    assert bs_value(ctx, ctx.kpart_add(a, b)) == va + vb
    assert bs_value(ctx, ctx.kpart_neg(a)) == -va
    image = va * Fraction(k) ** i
    if (image * k**ctx.reach).denominator == 1:
        assert bs_value(ctx, ctx.phi_power(a, i)) == image
    else:
        # phi^i leaves k^-E Z: refused, never rounded
        with pytest.raises(ResourceCapError):
            ctx.phi_power(a, i)
    # the (num, e) form the K-parts were printed in
    num, e = least_pair(k, va)
    assert ctx.format_kpart(a) == (str(num) if e == 0 else f"{num}/{k}^{e}")


@settings(max_examples=200, deadline=None)
@given(
    k=st.sampled_from([2, 3, 5]),
    num=st.integers(-40, 40),
    e=st.integers(0, 4),
    p=st.integers(-4, 4),
    bound=st.integers(0, 12),
)
def test_bs_word_length_matches_the_ball(k, num, e, p, bound):
    ctx, index = bs_ball(k)
    g = element(ctx, (num, e), p)
    length = ctx.word_length(g)
    if g in index:
        assert length == index.word_length(g)
    else:
        assert length > index.radius
    assert ctx.word_length(g, bound) == min(length, bound + 1)


def test_bs_kparts_past_the_reach_raise():
    ctx = BaumslagSolitarContext(2, reach=5)
    one = ctx.canonical_kpart((1, 0))
    assert bs_value(ctx, one) == 1
    assert bs_value(ctx, ctx.phi_power(one, -5)) == Fraction(1, 32)
    with pytest.raises(ResourceCapError, match="reach 5"):
        ctx.phi_power(one, -6)
    with pytest.raises(ResourceCapError, match="reach 5"):
        ctx.canonical_kpart((1, 6))
    with pytest.raises(ResourceCapError, match="reach 5"):
        ctx.invert(Element(one, 6))
    # an exact division stays inside: 6 / 2^6 = 3 / 2^5
    assert ctx.phi_power(ctx.canonical_kpart((6, 0)), -6) == ctx.canonical_kpart((3, 5))
    assert ctx.canonical_kpart((2, 6)) == ctx.canonical_kpart((1, 5))
    # phi^i for i >= 0 never leaves k^-E Z
    assert bs_value(ctx, ctx.phi_power(one, 200)) == 2**200
    assert BaumslagSolitarContext(3).reach == 64
    assert parse_group_descriptor("bs:3", reach=7).reach == 7
    with pytest.raises(ValueError, match="reach"):
        BaumslagSolitarContext(2, reach=-1)


# ---------------------------------------------------------------------------
# Lamplighter K-parts as one integer of lamp fields, checked against the
# (index, value) pairs they were stored as before
# ---------------------------------------------------------------------------

# the kernel generators {0, d0, d1, d0 + d1} of lamplighter:2, and
# {0, +-(d0 + d1), +-(d0 + 2 d1)} of lamplighter:0, whose values size wider
# fields than the standard ones
LAMP2_R4 = [(), ((0, 1),), ((1, 1),), ((0, 1), (1, 1))]
LAMP0_R5 = [
    (),
    ((0, 1), (1, 1)),
    ((0, -1), (1, -1)),
    ((0, 1), (1, 2)),
    ((0, -1), (1, -2)),
]
LAMP_CONTEXTS = {
    "m2": (2, None),
    "m3": (3, None),
    "m5": (5, None),
    "m0": (0, None),
    "m2-R4": (2, LAMP2_R4),
    "m0-R5": (0, LAMP0_R5),
}


@functools.cache
def lamp_context(name: str, reach: int) -> LamplighterContext:
    m, kgens = LAMP_CONTEXTS[name]
    return LamplighterContext(m, kgens, reach=reach)


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(sorted(LAMP_CONTEXTS)),
    # E mod n meets every residue of every n <= 6
    reach=st.integers(12, 40),
    n=st.integers(1, 6),
)
def test_lamplighter_kparts_match_the_pair_reference(data, name, reach, n):
    ctx = lamp_context(name, reach)
    m = ctx.m
    # integer lamps stay within E / 2, so that every sum below is valid
    value = st.integers(1, m - 1) if m else st.sampled_from([-2, -1, 1, 2])
    config = st.lists(
        st.tuples(st.integers(-reach, reach), value), max_size=6 if m else 3
    )
    x, y = data.draw(config), data.draw(config)
    a, b = ctx.canonical_kpart(x), ctx.canonical_kpart(y)
    ra, rb = lamp_canonical(m, x), lamp_canonical(m, y)
    assert lamp_pairs(ctx, a) == ra
    assert lamp_pairs(ctx, ctx.kpart_add(a, b)) == lamp_kpart_add(m, ra, rb)
    neg_a = lamp_canonical(m, [(i, -v) for i, v in ra])
    assert lamp_pairs(ctx, ctx.kpart_neg(a)) == neg_a
    assert ctx.format_kpart(a) == ("+".join(f"{v}@{i}" for i, v in ra) or "0")
    i = data.draw(st.integers(-2 * reach - 1, 2 * reach + 1))
    moved = tuple((j + i, v) for j, v in ra)
    if all(-reach <= j <= reach for j, _ in moved):
        assert lamp_pairs(ctx, ctx.phi_power(a, i)) == moved
    else:
        # a lamp would leave [-E, E]: refused, never dropped
        with pytest.raises(ResourceCapError, match=f"reach {reach}"):
            ctx.phi_power(a, i)
    # the quotient of the strata +-n: class sums, their rotations, solver
    q = ctx.quotient(n)
    sums = lamp_class_sums(m, n, ra)
    assert lamp_fields(ctx, q.coords(a), n) == sums
    assert [lamp_fields(ctx, c, n) for c in q.orbit(q.coords(a))] == [
        sums[n - j :] + sums[: n - j] for j in range(n)
    ]
    c = ctx.canonical_kpart([(j, v) for j, v in ra if j + n <= reach])
    image = ctx.kpart_add(c, ctx.kpart_neg(ctx.phi_power(c, n)))
    for w in (a, image, ctx.kpart_add(a, image)):
        expected = lamp_solve(m, n, lamp_pairs(ctx, w))
        solved = q.solve(w)
        assert (solved is None) == (expected is None)
        if expected is not None:
            assert lamp_pairs(ctx, solved) == expected
    assert q.solve(image) == c
    if LAMP_CONTEXTS[name][1] is None:  # the closed form needs the standard R
        p = data.draw(st.integers(-reach, reach))
        bound = data.draw(st.integers(0, 4 * reach))
        length = lamp_word_length(m, ra, p)
        assert ctx.word_length(Element(a, p)) == length
        assert ctx.word_length(Element(a, p), bound) == min(length, bound + 1)


@pytest.mark.parametrize("m", [2, 3, 5, 0])
def test_lamplighter_kparts_past_the_reach_raise(m):
    ctx = LamplighterContext(m, reach=3)
    edge = ctx.canonical_kpart(((3, 1), (-3, 1)))
    for i in (1, -1, 7, -7):
        with pytest.raises(ResourceCapError, match="reach 3"):
            ctx.phi_power(edge, i)
    low, high = ctx.canonical_kpart(((-3, 1),)), ctx.canonical_kpart(((3, 1),))
    assert ctx.phi_power(low, 6) == high and ctx.phi_power(high, -6) == low
    with pytest.raises(ResourceCapError, match="reach 3"):
        ctx.canonical_kpart(((4, 1),))
    with pytest.raises(ResourceCapError, match="reach 3"):
        ctx.invert(Element(high, -1))
    with pytest.raises(ResourceCapError, match="reach 3"):
        ctx.multiply(Element(0, 1), Element(high, 0))
    assert LamplighterContext(m).reach == 64
    assert parse_group_descriptor(f"lamplighter:{m}", reach=7).reach == 7
    with pytest.raises(ValueError, match="reach"):
        LamplighterContext(m, reach=-1)


@pytest.mark.parametrize("kgens, top", [(None, 1), (LAMP0_R5, 2)])
def test_integer_lamp_overflow_raises(kgens, top):
    # every value up to E max|R| is valid; the adds stay exact until a
    # value leaves the range of the fields, and that add raises
    ctx = LamplighterContext(0, kgens, reach=5)
    edge = 5 * top
    a = ctx.canonical_kpart(((0, edge), (2, -edge), (-5, 1)))
    assert lamp_pairs(ctx, a) == ((-5, 1), (0, edge), (2, -edge))
    acc = 0
    with pytest.raises(ResourceCapError, match="reach 5"):
        for count in range(1, 1 << 12):
            acc = ctx.kpart_add(acc, a)
            expected = ((-5, count), (0, count * edge), (2, -count * edge))
            assert lamp_pairs(ctx, acc) == expected
    with pytest.raises(ResourceCapError, match="reach 5"):
        ctx.canonical_kpart(((0, 10**6),))
