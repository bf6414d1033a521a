import gc
import hashlib
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import (
    adjugate,
    are_conjugate,
    bs_class_residues,
    bs_orbit_min,
    bs_value,
    conjugate,
    conjugation_sweep,
    det_int,
    element,
    lamp_pairs,
    lamplighter_rotation_key,
    matrix_form_minimum,
    matrix_orbit_min,
    mat_vec,
    matrix_shift_canonical,
    pairwise_partition,
    quotient_representative,
    stratum_census,
    witness_merges,
)
import abcgroups
from abcgroups import linalg
from abcgroups.conjugacy import (
    UnionFind,
    brute_force_partition,
    closed_form_lengths,
    conjugacy_key,
)
from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import (
    BaumslagSolitarContext,
    Element,
    LamplighterContext,
    MatrixContext,
)
from abcgroups.linalg import (
    identity_matrix,
    mat_mul,
    mat_pow,
    mat_sub,
)

HYP = ((2, 1), (1, 1))
# companion of x^3 - x - 1: one real eigenvalue above 1, a complex pair inside
PISOT = ((0, 0, 1), (1, 0, 1), (0, 1, 0))
# a conjugate S M S^-1 of [[3,1],[2,1]] (trace 4, determinant 1)
HYP32_CONJ = ((-14, -23), (11, 18))


def as_block_set(blocks):
    return {frozenset(block) for block in blocks}


def key_partition(ctx, index, r):
    classes = {}
    for g in index.elements(r):
        classes.setdefault(conjugacy_key(ctx, g), []).append(g)
    return classes


# ---------------------------------------------------------------------------
# Key examples per family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m, radius", [(2, 12), (3, 10), (0, 8)])
def test_lamplighter_key_matches_all_rotations(m, radius):
    # the key takes the least window of sums + sums, memoised for every
    # rotation of the orbit; the oracle builds each rotation afresh; the
    # p = 0 key has no rotations
    ctx = LamplighterContext(m)
    index = enumerate_ball(ctx, radius)
    moving = [g for g in index.elements() if g.texp]
    assert moving
    for g in moving:
        assert conjugacy_key(ctx, g) == lamplighter_rotation_key(ctx, g)


def bs_conjugate(ctx, g, h):
    """are_conjugate on elements given as ((num, e), p) for num / k^e."""
    return are_conjugate(ctx, element(ctx, *g), element(ctx, *h))


def test_bs_positive_stratum():
    ctx = BaumslagSolitarContext(2)
    # conjugation multiplies the kernel entry by powers of 2 mod 2^2 - 1
    assert bs_conjugate(ctx, ((1, 0), 2), ((2, 0), 2))
    assert not bs_conjugate(ctx, ((1, 0), 2), ((3, 0), 2))
    assert bs_conjugate(ctx, ((3, 0), 2), ((0, 0), 2))
    # every (a, t) is conjugate into (0, t)
    assert bs_conjugate(ctx, ((5, 2), 1), ((0, 0), 1))
    # negative strata behave symmetrically
    assert bs_conjugate(ctx, ((1, 0), -2), ((2, 0), -2))
    assert not bs_conjugate(ctx, ((1, 0), -2), ((3, 0), -2))


def test_bs_zero_stratum():
    ctx = BaumslagSolitarContext(2)
    # t-conjugation scales by 2, so the odd part is the invariant
    assert bs_conjugate(ctx, ((1, 0), 0), ((2, 0), 0))
    assert bs_conjugate(ctx, ((3, 2), 0), ((12, 0), 0))
    assert not bs_conjugate(ctx, ((1, 0), 0), ((-1, 0), 0))
    assert not bs_conjugate(ctx, ((1, 0), 0), ((3, 0), 0))
    assert not bs_conjugate(ctx, ((1, 0), 0), ((0, 0), 0))


def test_texp_is_invariant():
    ctx = BaumslagSolitarContext(2)
    assert not bs_conjugate(ctx, ((0, 0), 1), ((0, 0), -1))
    assert not bs_conjugate(ctx, ((1, 0), 0), ((1, 0), 2))


def test_lamplighter_positive_stratum():
    ctx = LamplighterContext(2)
    a = element(ctx, ((0, 1), (3, 1)), 2)
    b = element(ctx, ((1, 1), (2, 1)), 2)
    assert are_conjugate(ctx, a, b)
    # a lone lamp cannot reach an even split across both residues
    assert not are_conjugate(
        ctx, element(ctx, ((0, 1), (1, 1)), 2), element(ctx, ((0, 1),), 2)
    )


def test_lamplighter_zero_stratum():
    ctx = LamplighterContext(2)
    assert are_conjugate(ctx, element(ctx, ((0, 1),)), element(ctx, ((5, 1),)))
    assert are_conjugate(
        ctx, element(ctx, ((0, 1), (1, 1))), element(ctx, ((3, 1), (4, 1)))
    )
    assert not are_conjugate(
        ctx, element(ctx, ((0, 1), (1, 1))), element(ctx, ((0, 1), (2, 1)))
    )


def test_matrix_stratum_one_collapses():
    # |det(I - M)| = 1, so the t-exponent 1 stratum is a single class
    ctx = MatrixContext(HYP)
    index = enumerate_ball(ctx, 4)
    keys = {conjugacy_key(ctx, g) for g in index.elements() if g.texp == 1}
    assert len(keys) == 1


def test_matrix_zero_stratum():
    ctx = MatrixContext(HYP)
    e1 = Element((1, 0), 0)
    assert are_conjugate(ctx, e1, Element((2, 1), 0))
    assert are_conjugate(ctx, e1, Element((1, -1), 0))
    assert not are_conjugate(ctx, e1, Element((0, 1), 0))
    assert not are_conjugate(ctx, e1, Element((-1, 0), 0))


def test_unit_root_refusal():
    parabolic = MatrixContext(((1, 1), (0, 1)))
    with pytest.raises(ValueError, match="root"):
        conjugacy_key(parabolic, Element((1, 0), 1))
    rotation = MatrixContext(((0, -1), (1, 0)))
    with pytest.raises(ValueError):
        are_conjugate(rotation, Element((1, 0), 0), Element((0, 1), 0))
    # det(I - M) = 2 here, so only the root-of-unity check refuses this key
    with pytest.raises(ValueError, match="root"):
        conjugacy_key(rotation, Element((1, 0), 1))
    # enumeration does not involve class keys and still works
    assert enumerate_ball(parabolic, 3).ball_size() > 1


# ---------------------------------------------------------------------------
# Quotient bookkeeping
# ---------------------------------------------------------------------------


def test_quotient_descriptor_round_trip():
    ctx = MatrixContext(HYP)
    q = ctx.quotient(2)
    d_mat = mat_sub(identity_matrix(2), ctx.matrix_power(2))
    # det(I - M^2) = -5, and (r, 0) for r in 0..4 meets every class
    assert linalg.adjugate(d_mat)[1] == det_int(d_mat) == -5
    seen = set()
    for residue in range(5):
        coords = q.coords((residue, 0))
        rep = quotient_representative(d_mat, coords)
        assert q.coords(rep) == coords
        seen.add(q.coords(rep))
    assert len(seen) == 5


def test_quotient_coords_well_defined():
    ctx = MatrixContext(HYP)
    qd = ctx.quotient(2)
    shift = tuple(
        a - b for a, b in zip((7, -3), ctx.phi_power((7, -3), 2))
    )
    for v in ((0, 0), (1, 0), (-4, 9), (12, 5)):
        moved = tuple(x + y for x, y in zip(v, shift))
        assert qd.coords(v) == qd.coords(moved)


FAMILY_CONTEXTS = {
    "bs": lambda: BaumslagSolitarContext(2),
    "lamplighter": lambda: LamplighterContext(2),
    "matrix": lambda: MatrixContext(HYP),
}


@pytest.mark.parametrize("family", FAMILY_CONTEXTS)
def test_quotient_is_cached(family):
    # the strata +-3 share one quotient, and its memo with it; the bs key
    # keeps no memo (see groups)
    ctx = FAMILY_CONTEXTS[family]()
    q = ctx.quotient(3)
    assert ctx.quotient(3) is q
    a = ctx.kgen_nonzero[0]
    least = ctx.stratum_key(3)(a)[1]
    filled = len(q.memo)
    assert ctx.stratum_key(-3)(a) == (-3, least)
    assert len(q.memo) == filled == (0 if family == "bs" else 3)


@pytest.mark.parametrize("family", FAMILY_CONTEXTS)
def test_cached_keys_and_solvers_do_not_hold_the_context(family):
    # cli.run pauses the cyclic collector, so a cached key or quotient
    # that referred back to its context would keep it alive
    ctx = FAMILY_CONTEXTS[family]()
    held = [ctx.stratum_key(0)]
    for n in range(1, 5):
        held += [ctx.stratum_key(n), ctx.stratum_key(-n), ctx.quotient(n)]
    ref = weakref.ref(ctx)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del ctx
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert len(held) == 13


def adjugate_solve(a, w):
    """The unique b with a b = w as adj(a) w / det a, or None if not integral."""
    det = det_int(a)
    raw = mat_vec(adjugate(a), w)
    if any(x % det for x in raw):
        return None
    return tuple(x // det for x in raw)


def elementary_product(n, ops, flip):
    """A unimodular n x n matrix: the product of the elementary matrices
    I + c E_ij of ops, then the sign flip of row 0 when flip is set."""
    m = identity_matrix(n)
    for i, j, c in ops:
        if i % n != j % n:
            e = [list(row) for row in identity_matrix(n)]
            e[i % n][j % n] = c
            m = mat_mul(tuple(map(tuple, e)), m)
    return ((tuple(-x for x in m[0]),) + m[1:]) if flip else m


unimodular_up_to_4 = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.builds(
            elementary_product,
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
                max_size=6,
            ),
            st.booleans(),
        ),
        st.integers(1, 4),
        st.lists(st.integers(-30, 30), min_size=n, max_size=n),
        st.lists(st.integers(-30, 30), min_size=n, max_size=n),
    )
)


@given(unimodular_up_to_4)
@settings(max_examples=200, deadline=None)
def test_quotient_solve_matches_adjugate(case):
    m, n, w, b = case
    d_mat = mat_sub(identity_matrix(len(m)), mat_pow(m, n))
    det = det_int(d_mat)
    if not det:
        with pytest.raises(ValueError, match="singular"):
            MatrixContext(m).quotient(n)
        return
    q = MatrixContext(m).quotient(n)
    w = tuple(w)
    assert q.coords(w) == tuple(x % abs(det) for x in mat_vec(adjugate(d_mat), w))
    assert q.solve(w) == adjugate_solve(d_mat, w)
    image = mat_vec(d_mat, b)
    assert q.solve(image) == adjugate_solve(d_mat, image) == tuple(b)


HYP_INV = ((1, -1), (-1, 2))


def test_every_stratum_solver_matches_adjugate():
    # the solver of n answers stratum n as written and stratum -n through
    # (1 - M^-n) b = w  <=>  (1 - M^n) b = -M^n w, as pairwise_partition uses
    ctx = MatrixContext(HYP)
    rng = random.Random(7)
    for p in [p for p in range(-12, 13) if p]:
        n = abs(p)
        d_mat = mat_sub(identity_matrix(2), mat_pow(HYP if p > 0 else HYP_INV, n))
        q = ctx.quotient(n)

        def solve_p(w):
            return q.solve(w if p > 0 else ctx.kpart_neg(ctx.phi_power(w, n)))

        for _ in range(100):
            w = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            assert q.orbit(q.coords(w))[0] == q.coords(w)
            assert solve_p(w) == adjugate_solve(d_mat, w)
            b = (rng.randint(-50, 50), rng.randint(-50, 50))
            image = mat_vec(d_mat, b)
            assert solve_p(image) == adjugate_solve(d_mat, image) == b


# ---------------------------------------------------------------------------
# Matrix keys against the step-by-step reference walks
# ---------------------------------------------------------------------------


def reference_key(ctx, g):
    p = g.texp
    if p == 0:
        return (0, matrix_form_minimum(ctx, g.kpart))
    return (p, matrix_orbit_min(ctx, abs(p), g.kpart))


@pytest.mark.parametrize(
    "rows,r,p0_only,p0_classes",
    [(HYP, 9, False, 125), (PISOT, 6, False, 97), (HYP, 11, True, 265)],
    ids=["rows0-9", "rows1-6", "rows2-11-p0"],
)
def test_matrix_keys_match_reference(rows, r, p0_only, p0_classes):
    # the p != 0 reference walk is too slow for the whole r11 ball (68,607
    # elements), so that case checks its t-exponent-0 stratum (1,465)
    ctx = MatrixContext(rows)
    pairs = set()
    for g in enumerate_ball(ctx, r).elements():
        if p0_only and g.texp != 0:
            continue
        key = conjugacy_key(ctx, g)
        assert key == reference_key(ctx, g)
        if g.texp == 0:
            pairs.add((key, matrix_shift_canonical(ctx, g.kpart)))
    # on p = 0 the keys and the window search induce the same partition
    keys, window = zip(*pairs)
    assert len(set(keys)) == len(set(window)) == len(pairs) == p0_classes


def test_matrix_keys_do_not_depend_on_order():
    ctx = MatrixContext(HYP)
    ball = list(enumerate_ball(ctx, 9).elements())
    forward = [conjugacy_key(ctx, g) for g in ball]
    fresh = MatrixContext(HYP)
    backward = [conjugacy_key(fresh, g) for g in reversed(ball)]
    assert backward[::-1] == forward


def test_lamplighter_keys_do_not_depend_on_order():
    # the rotation memo fills in the opposite order and gives the same keys
    for m, radius in ((2, 10), (0, 7)):
        ctx = LamplighterContext(m)
        ball = list(enumerate_ball(ctx, radius).elements())
        forward = [conjugacy_key(ctx, g) for g in ball]
        fresh = LamplighterContext(m)
        backward = [conjugacy_key(fresh, g) for g in reversed(ball)]
        assert backward[::-1] == forward
        for g, key in zip(reversed(ball), backward):
            if g.texp:
                assert key == lamplighter_rotation_key(fresh, g)


# ---------------------------------------------------------------------------
# Stratum key functions against a reference per family
# ---------------------------------------------------------------------------


def family_reference_key(ctx, g):
    """The key of g from the tests' own references, one per family."""
    p, a = g.texp, g.kpart
    if isinstance(ctx, MatrixContext):
        return reference_key(ctx, g)
    if isinstance(ctx, LamplighterContext):
        if p:
            return lamplighter_rotation_key(ctx, g)
        # the configuration shifted to start at field 0, index -E
        lamps = lamp_pairs(ctx, a)
        base = lamps[0][0] if lamps else 0
        return (0, sum(v << ctx.width * (i - base) for i, v in lamps))
    if p:
        return (p, bs_orbit_min(ctx, abs(p), a))
    # the value times a power of k, with every factor of k then removed
    value = bs_value(ctx, a)
    while value.denominator != 1:
        value *= ctx.k
    num = int(value)
    while num and num % ctx.k == 0:
        num //= ctx.k
    return (0, num)


@pytest.mark.parametrize(
    "make, r",
    [
        (lambda: BaumslagSolitarContext(2), 10),
        (lambda: BaumslagSolitarContext(3), 7),
        (lambda: LamplighterContext(2), 10),
        (lambda: MatrixContext(HYP), 7),
    ],
    ids=["bs2-10", "bs3-7", "lamplighter2-10", "hyperbolic-7"],
)
def test_stratum_keys_match_the_family_references(make, r):
    ctx = make()
    ball = list(enumerate_ball(ctx, r).elements())
    for g in ball:
        key = ctx.stratum_key(g.texp)(g.kpart)
        assert key == conjugacy_key(ctx, g) == family_reference_key(ctx, g)
    # every stratum of the ball was keyed, negative p included
    assert {g.texp for g in ball} == set(range(-r, r + 1))
    if isinstance(ctx, BaumslagSolitarContext):
        # K-parts num / k^e with e >= |p| > 0, whose class num k^-e the
        # reference reduces only after clearing the denominator
        assert any(
            0 < ctx.k ** abs(g.texp) <= bs_value(ctx, g.kpart).denominator
            for g in ball
        )


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 5),
    p=st.integers(-7, 7).filter(bool),
    num=st.integers(-(10**8), 10**8),
    e=st.integers(0, 24),
    reach=st.integers(24, 70),
)
def test_bs_stratum_key_and_residues_match_fraction_residues(k, p, num, e, reach):
    # e runs past |p|: the class of num / k^e is num k^(-e mod |p|), read off
    # the kpart num k^(E - e) through k^(-E mod |p|), for every E mod |p|
    ctx = BaumslagSolitarContext(k, reach=reach)
    a = ctx.canonical_kpart((num, e))
    assert ctx.stratum_key(p)(a) == (p, bs_orbit_min(ctx, abs(p), a))
    q = ctx.quotient(abs(p))
    assert q.orbit(q.coords(a)) == bs_class_residues(ctx, abs(p), a)


# a symmetric hyperbolic matrix with three real roots (x^3 - 2x^2 - x + 1)
SYM3 = ((1, 1, 1), (1, 1, 0), (1, 0, 0))
# companions of x^3 - x^2 - 1 and x^4 - x - 1: complex pairs off the circle
PISOT_B = ((0, 0, 1), (1, 0, 0), (0, 1, 1))
QUARTIC = ((0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
# each root twice, so no vector is cyclic
HYP_SUM = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))


# two real blocks with disjoint spectra
HYP_PLUS = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 3, 1), (0, 0, 2, 1))
# companion of (x^2 - 3x + 1)^2: each root twice, in one Jordan block
DOUBLE_ROOTS = ((0, 0, 0, -1), (1, 0, 0, 6), (0, 1, 0, -11), (0, 0, 1, 6))


@st.composite
def conjugated(draw, base):
    """S B S^-1 for S a product of elementary matrices I + c E_ij."""
    n = len(base)
    m = base
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        s = [list(row) for row in identity_matrix(n)]
        s[i][j] = c
        s_inv = [list(row) for row in identity_matrix(n)]
        s_inv[i][j] = -c
        m = mat_mul(mat_mul(s, m), s_inv)
    return m


CONVEX_BASES = [
    HYP,
    ((3, 1), (2, 1)),
    SYM3,
    PISOT,
    PISOT_B,
    QUARTIC,
    HYP_SUM,
    HYP_PLUS,
    DOUBLE_ROOTS,
]


@given(data=st.data(), base=st.sampled_from(CONVEX_BASES))
@settings(deadline=None)
def test_convex_form_key_is_orbit_invariant(data, base):
    # real, complex, repeated and non-semisimple roots alike: the reference
    # checks P > 0 and C > 0 itself, then scans the orbit without the descent
    m = data.draw(conjugated(base))
    ctx = MatrixContext(m)
    v = data.draw(st.tuples(*[st.integers(-50, 50)] * len(m)))
    key = conjugacy_key(ctx, Element(v, 0))
    assert key == (0, matrix_form_minimum(ctx, v))
    for j in data.draw(st.lists(st.integers(-40, 40), min_size=1, max_size=4)):
        assert conjugacy_key(ctx, Element(ctx.phi_power(v, j), 0)) == key


@given(data=st.data(), base=st.sampled_from([PISOT, HYP_SUM, DOUBLE_ROOTS]))
@settings(deadline=None)
def test_convex_form_key_matches_the_window_partition(data, base):
    # none of these has a positive Q with Q M = M^T Q, and DOUBLE_ROOTS is not
    # semisimple; their convex-form keys must still split p = 0 as the window
    # search does
    m = data.draw(conjugated(base))
    ctx = MatrixContext(m)
    vs = data.draw(
        st.lists(st.tuples(*[st.integers(-20, 20)] * len(m)), min_size=1, max_size=3)
    )
    js = data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=3))
    vs = vs + [ctx.phi_power(v, j) for v in vs for j in js]
    keys = [conjugacy_key(ctx, Element(v, 0)) for v in vs]
    window = [matrix_shift_canonical(ctx, v) for v in vs]
    for a in range(len(vs)):
        for b in range(len(vs)):
            assert (keys[a] == keys[b]) == (window[a] == window[b])


def check_convex_form_key_on_a_ball(base, radius, classes):
    ctx = MatrixContext(base)
    pairs = {
        (conjugacy_key(ctx, g), matrix_shift_canonical(ctx, g.kpart))
        for g in enumerate_ball(ctx, radius).elements()
        if g.texp == 0
    }
    # on p = 0 the descent and the window search induce the same partition
    keys, window = zip(*pairs)
    assert len(set(keys)) == len(set(window)) == len(pairs) == classes
    for v in ((1, 0, 0, 0), (3, -1, 2, 5)):
        key = conjugacy_key(ctx, Element(v, 0))
        assert key == (0, matrix_form_minimum(ctx, v))
        for j in (-9, 4):
            assert conjugacy_key(ctx, Element(ctx.phi_power(v, j), 0)) == key


def test_convex_form_key_on_two_real_blocks():
    check_convex_form_key_on_a_ball(HYP_PLUS, 3, 111)


def test_convex_form_key_on_a_jordan_block():
    check_convex_form_key_on_a_ball(DOUBLE_ROOTS, 4, 197)


def tent_form(m, width):
    """sum_(|i| < width) (width - |i|) (M^i)^T M^i, one power at a time."""
    inv = linalg.unimodular_inverse(m)
    out = [[0] * len(m) for _ in m]
    for i in range(1 - width, width):
        a = mat_pow(m, i) if i >= 0 else mat_pow(inv, -i)
        gram = mat_mul(tuple(zip(*a)), a)
        for row, gram_row in zip(out, gram):
            row[:] = [x + (width - abs(i)) * y for x, y in zip(row, gram_row)]
    return tuple(map(tuple, out))


def test_convex_form_is_the_least_tent_sum():
    # C_1 = G_1 + G_-1 - 2I > 0 already for [[2,1],[1,1]], so P = I; the
    # Pisot companion and the non-semisimple DOUBLE_ROOTS need width 4
    assert MatrixContext(HYP).convex_form == identity_matrix(2)
    for base in (PISOT, DOUBLE_ROOTS):
        assert MatrixContext(base).convex_form == tent_form(base, 4)


RESIDUE_CONTEXTS = [
    BaumslagSolitarContext(2),
    BaumslagSolitarContext(3),
    LamplighterContext(2),
    LamplighterContext(0),
    MatrixContext(HYP),
    MatrixContext(PISOT),
]


@given(
    data=st.data(),
    ctx=st.sampled_from(RESIDUE_CONTEXTS),
    p=st.sampled_from([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]),
)
@settings(deadline=None)
def test_phi_p_fixes_the_stratum_quotient(data, ctx, p):
    # the oracle reads the residue of every shift j off the |p| images
    letters = data.draw(st.lists(st.sampled_from(ctx.generators()), max_size=20))
    g = ctx.identity
    for x in letters:
        g = ctx.multiply(g, x)
    w = g.kpart
    n = abs(p)
    q = ctx.quotient(n)

    def residues(w):
        return q.orbit(q.coords(w))

    orbit = residues(w)
    assert len(orbit) == n
    assert residues(ctx.phi_power(w, p)) == orbit
    # the orbit holds the residue of phi^j(w) at index j mod n
    for j in range(-12, 13):
        assert residues(ctx.phi_power(w, j))[0] == orbit[j % n]
    if ctx.family == "matrix":
        # the key over |p| images equals the walk until return
        assert conjugacy_key(ctx, Element(w, p)) == (p, matrix_orbit_min(ctx, n, w))


# ---------------------------------------------------------------------------
# Keys are conjugation invariants: key(x g x^-1) == key(g)
# ---------------------------------------------------------------------------


def random_element(ctx, rng, length):
    gens = ctx.generators()
    g = ctx.identity
    for _ in range(length):
        g = ctx.multiply(g, rng.choice(gens))
    return g


@pytest.mark.parametrize(
    "family,param",
    [
        ("bs", 2),
        ("bs", 3),
        ("lamplighter", 2),
        ("lamplighter", 0),
        ("matrix", HYP),
        ("matrix", PISOT),
    ],
)
def test_key_is_conjugation_invariant(family, param):
    ctx = build(family, param)
    rng = random.Random(20240)
    for _ in range(150):
        g = random_element(ctx, rng, rng.randint(0, 12))
        x = random_element(ctx, rng, rng.randint(0, 40))
        assert conjugacy_key(ctx, conjugate(ctx, x, g)) == conjugacy_key(ctx, g)


# ---------------------------------------------------------------------------
# Union-find
# ---------------------------------------------------------------------------


def test_union_find():
    uf = UnionFind(range(6))
    uf.union(0, 1)
    uf.union(2, 3)
    uf.union(1, 2)
    assert uf.find(0) == uf.find(3)
    assert uf.find(0) != uf.find(4)
    blocks = {frozenset(b) for b in uf.blocks()}
    assert blocks == {frozenset({0, 1, 2, 3}), frozenset({4}), frozenset({5})}


# ---------------------------------------------------------------------------
# Brute-force partition against the key partition and the raw sweep
# ---------------------------------------------------------------------------

AGREEMENT_CASES = [
    ("bs", 2, 3, 6, 13),
    ("bs", 2, 4, 8, 19),
    ("bs", 3, 3, 6, 17),
    ("lamplighter", 2, 4, 8, 19),
    ("lamplighter", 3, 3, 6, 17),
    ("bs", 3, 6, 12, 77),
    ("lamplighter", 3, 6, 12, 79),
    ("lamplighter", 0, 5, 10, 95),
    ("matrix", HYP, 6, 12, 111),
    # past the reach of the conjugator ball: S^20 of bs:2 has 1,062,841
    # elements, and the closed-form lengths need only S^r
    ("bs", 2, 10, 20, 163),
    ("lamplighter", 2, 12, 22, 225),
    # a conjugate of [[3,1],[2,1]] with large entries: the shortest
    # conjugator of (1,0; t) and (0,1; t) is (3,-2), of length 5, and a
    # walk of one-generator conjugations inside S^(r+2) does not join them
    ("matrix", HYP32_CONJ, 2, 5, 19),
    ("matrix", HYP32_CONJ, 3, 6, 37),
]


def build(family, param):
    if family == "bs":
        return BaumslagSolitarContext(param)
    if family == "lamplighter":
        return LamplighterContext(param)
    return MatrixContext(param)


@pytest.mark.parametrize("family,param,r,rc,expected", AGREEMENT_CASES)
def test_partition_matches_keys(family, param, r, rc, expected):
    ctx = build(family, param)
    # bs and the lamplighter measure conjugators in closed form
    index = enumerate_ball(ctx, r if closed_form_lengths(ctx) else rc)
    blocks = brute_force_partition(ctx, index, r, rc)
    classes = key_partition(ctx, index, r)
    assert len(blocks) == len(classes) == expected
    assert as_block_set(blocks) == as_block_set(classes.values())


# R = {0, +-1, +-3} in bs:2 and {0, d_0, d_1, d_0 + d_1} in lamplighter:2
BS2_ONE_THREE = ((0, 0), (1, 0), (-1, 0), (3, 0), (-3, 0))
LAMP2_PAIR = ((), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)))


@pytest.mark.parametrize(
    "ctx, expected",
    [
        (BaumslagSolitarContext(2, kgens=BS2_ONE_THREE), 57),
        (LamplighterContext(2, kgens=LAMP2_PAIR), 47),
    ],
    ids=["bs-2-pm1-pm3", "lamplighter-2-d0-d1-d01"],
)
def test_other_generating_sets_use_the_conjugator_ball(ctx, expected):
    # the standard-generator formula does not hold here (a^3 has length 1
    # in the first group, and on the radius-12 balls it is wrong for 37,580
    # and 11,336 elements), so word_length refuses, and the oracle reads
    # conjugator lengths off S^RC and refuses a ball that is smaller
    with pytest.raises(NotImplementedError):
        ctx.word_length(ctx.identity)
    assert not closed_form_lengths(ctx)
    with pytest.raises(ValueError):
        brute_force_partition(ctx, enumerate_ball(ctx, 6), 6, 12)
    index = enumerate_ball(ctx, 12)
    blocks = brute_force_partition(ctx, index, 6, 12)
    classes = key_partition(ctx, index, 6)
    assert len(blocks) == len(classes) == expected
    assert as_block_set(blocks) == as_block_set(classes.values())


def test_matrix_partition_matches_keys():
    ctx = MatrixContext(HYP)
    index = enumerate_ball(ctx, 6)
    blocks = brute_force_partition(ctx, index, 3, 6)
    classes = key_partition(ctx, index, 3)
    assert len(blocks) == len(classes) == 27
    assert as_block_set(blocks) == as_block_set(classes.values())


def test_partition_matches_elementwise_sweep():
    # the solver-based merge must compute the same closure as literally
    # conjugating by every element of the conjugator ball
    # the last three are bs and lamplighter contexts without closed-form
    # lengths, so the p < 0 mirror also runs where conjugators are looked up
    for ctx, r, rc in (
        (BaumslagSolitarContext(2), 3, 5),
        (LamplighterContext(2), 3, 5),
        (MatrixContext(HYP), 2, 4),
        (BaumslagSolitarContext(2, kgens=BS2_ONE_THREE), 3, 5),
        (LamplighterContext(2, kgens=LAMP2_PAIR), 3, 5),
        (LamplighterContext(0), 3, 5),
    ):
        index = enumerate_ball(ctx, rc)
        fast = as_block_set(brute_force_partition(ctx, index, r, rc))
        slow = conjugation_sweep(
            ctx, list(index.elements(r)), list(index.elements(rc))
        )
        assert fast == slow


@pytest.mark.parametrize(
    "family,param,r,rc",
    [
        ("bs", 2, 5, 10),
        ("bs", 3, 4, 8),
        ("lamplighter", 2, 5, 10),
        ("lamplighter", 3, 4, 8),
        ("lamplighter", 0, 4, 8),
        ("matrix", HYP, 4, 8),
        # buckets whose member groups are cut short by a merge 132 and 26
        # times, against 0 to 14 times in the cases above
        ("bs", 3, 7, 14),
        ("lamplighter", 2, 8, 14),
    ],
)
def test_partition_matches_pairwise_reference(family, param, r, rc):
    # the residue buckets only skip pairs that have no conjugator, and the
    # member groups only pairs already in one block, so the blocks and
    # their order equal those of the exhaustive pairwise loop
    ctx = build(family, param)
    index = enumerate_ball(ctx, rc)
    assert brute_force_partition(ctx, index, r, rc) == pairwise_partition(
        ctx, index, r, rc
    )


# A stratum's residue must vanish on a K-part exactly when the solver finds
# its preimage under (1 - phi^p); otherwise the buckets would drop pairs
# that have a conjugator.
KPART_SAMPLES = {
    "bs": st.tuples(st.integers(-(10**6), 10**6), st.integers(0, 6)),
    "lamplighter": st.lists(
        st.tuples(st.integers(-8, 8), st.integers(-3, 3)), max_size=6
    ),
    "matrix": st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
}


@pytest.mark.parametrize(
    "family,param",
    [
        ("bs", 2),
        ("bs", 3),
        ("lamplighter", 2),
        ("lamplighter", 3),
        ("lamplighter", 0),
        ("matrix", HYP),
    ],
)
@given(data=st.data())
def test_residue_matches_solver(family, param, data):
    ctx = build(family, param)
    n = data.draw(st.sampled_from([1, 2, 3, 4]))
    a, b, c = (
        ctx.canonical_kpart(data.draw(KPART_SAMPLES[family])) for _ in range(3)
    )
    q = ctx.quotient(n)
    solve = q.solve

    def residues(w):
        return q.orbit(q.coords(w))

    def residue(w):
        return residues(w)[0]

    if data.draw(st.booleans()):
        # force a shared residue: b = a + (1 - phi^n)(c), so a - b = -c
        image = ctx.kpart_add(c, ctx.kpart_neg(ctx.phi_power(c, n)))
        b = ctx.kpart_add(a, image)
        assert solve(ctx.kpart_add(a, ctx.kpart_neg(b))) == ctx.kpart_neg(c)
        # (1 - phi^-n)K = (1 - phi^n)K, so the stratum -n shares the residue
        mirror = ctx.kpart_add(c, ctx.kpart_neg(ctx.phi_power(c, -n)))
        assert residue(ctx.kpart_add(a, mirror)) == residue(a)
    w = ctx.kpart_add(a, ctx.kpart_neg(b))
    assert (residue(a) == residue(b)) == (solve(w) is not None)
    # residues(a) lists the residue of each of the n shifts of a
    assert residues(a) == [residue(ctx.phi_power(a, i)) for i in range(n)]


@pytest.mark.parametrize("m", [2, 3, 0])
def test_lamplighter_solver_inverts_one_minus_phi(m):
    # dense configurations on a short window, so that w = (1 - phi^n)(c)
    # cancels inside c and leaves runs of indices without a lamp, where the
    # solver carries its class sums across
    ctx = LamplighterContext(m)
    rng = random.Random(11)
    values = range(1, m) if m else [v for v in range(-3, 4) if v]
    for _ in range(400):
        c = ctx.canonical_kpart(
            (i, rng.choice(values)) for i in range(-5, 6) if rng.random() < 0.6
        )
        for n in range(1, 6):
            w = ctx.kpart_add(c, ctx.kpart_neg(ctx.phi_power(c, n)))
            assert ctx.quotient(n).solve(w) == c


@pytest.mark.parametrize(
    "ctx",
    [BaumslagSolitarContext(2), LamplighterContext(2), MatrixContext(HYP)],
    ids=["bs", "lamplighter", "matrix"],
)
def test_stratum_index_must_be_positive(ctx):
    # strata are indexed by n = |p|: the oracle mirrors p < 0 and the keys
    # read quotient(|p|), so a quotient for n < 1 would be a silent second path
    for n in (0, -1, -2):
        with pytest.raises(ValueError, match="indexed by n"):
            ctx.quotient(n)


def test_partition_coarsens_with_conjugator_radius():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 8)
    small = brute_force_partition(ctx, index, 3, 4)
    large = brute_force_partition(ctx, index, 3, 8)
    assert len(small) >= len(large)
    big_blocks = as_block_set(large)
    for block in as_block_set(small):
        assert any(block <= bb for bb in big_blocks)


def test_partition_is_sound():
    # every merge the oracle makes is confirmed by the class invariant
    ctx = LamplighterContext(2)
    index = enumerate_ball(ctx, 6)
    for block in brute_force_partition(ctx, index, 3, 6):
        keys = {conjugacy_key(ctx, g) for g in block}
        assert len(keys) == 1


def test_partition_blocks_are_sorted():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 4)
    blocks = brute_force_partition(ctx, index, 2, 4)
    # sorted by ball position: within each block, and blocks by first member
    position = {g: i for i, g in enumerate(index.elements(2))}
    for block in blocks:
        assert block == sorted(block, key=position.__getitem__)
    firsts = [position[b[0]] for b in blocks]
    assert firsts == sorted(firsts)


# sha256 over one line per oracle block, in block order, each block's
# elements by format_element: pins the block order the conjtest mismatch
# listing prints, which no golden file shows while the keys agree
BLOCK_ORDER_DIGEST = "b433912ad5aee2b633f7dc9b7312579e09dc065fcdf301839b28b8b228c91a13"


def test_matrix_block_order_is_pinned():
    ctx = MatrixContext(HYP)
    blocks = brute_force_partition(ctx, enumerate_ball(ctx, 8), 4, 8)
    text = "".join(
        " ".join(ctx.format_element(g) for g in block) + "\n" for block in blocks
    )
    assert hashlib.sha256(text.encode()).hexdigest() == BLOCK_ORDER_DIGEST


# prints sha256 digests of the sphere listing and the block listing, one
# format_element line per element and one line per block
ORDER_SCRIPT = """
import hashlib
from abcgroups.conjugacy import brute_force_partition
from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import LamplighterContext, MatrixContext

HYP = MatrixContext(((2, 1), (1, 1)))
for ctx, r, rc in ((LamplighterContext(2), 6, 12), (HYP, 4, 8)):
    index = enumerate_ball(ctx, rc)
    spheres = "".join(ctx.format_element(g) + "\\n" for g in index.elements())
    blocks = "".join(
        " ".join(map(ctx.format_element, b)) + "\\n"
        for b in brute_force_partition(ctx, index, r, rc)
    )
    for text in (spheres, blocks):
        print(hashlib.sha256(text.encode()).hexdigest())
"""


def test_listing_order_ignores_the_hash_seed():
    # spheres and blocks keep BFS discovery order, which no set or hash
    # order enters, so two interpreters with different string hashing agree
    src = str(Path(abcgroups.__file__).resolve().parents[1])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", ORDER_SCRIPT],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outputs = [run.communicate(timeout=60)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert len(outputs[0].split()) == 4
    assert outputs[0] == outputs[1]


def test_partition_argument_validation():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 4)
    with pytest.raises(ValueError):
        brute_force_partition(ctx, index, 4, 3)
    with pytest.raises(ValueError):
        brute_force_partition(ctx, index, 5, 6)
    with pytest.raises(ValueError):
        brute_force_partition(ctx, index, -1, 6)
    # bs measures conjugators in closed form, so the index need only cover
    # r; without a closed form it must cover the conjugator radius
    assert brute_force_partition(ctx, index, 2, 6) == brute_force_partition(
        ctx, enumerate_ball(ctx, 6), 2, 6
    )
    matrix = MatrixContext(HYP)
    with pytest.raises(ValueError):
        brute_force_partition(matrix, enumerate_ball(matrix, 4), 2, 6)


def test_key_partition_closed_under_inversion():
    # g ~ h forces g^-1 ~ h^-1; the key partitions must respect that
    for ctx in (BaumslagSolitarContext(2), LamplighterContext(3), MatrixContext(HYP)):
        index = enumerate_ball(ctx, 4)
        strata: dict[int, list[Element]] = {}
        for g in index.elements():
            strata.setdefault(g.texp, []).append(g)
        for els in strata.values():
            for i, g in enumerate(els):
                for h in els[i + 1 :]:
                    if are_conjugate(ctx, g, h):
                        assert are_conjugate(ctx, ctx.invert(g), ctx.invert(h))



@pytest.mark.parametrize("k, radius", [(2, 8), (3, 6)])
def test_default_reach_covers_the_bench_conjugations(k, radius):
    # bench/child.py's metamorphic check builds bs:2 and bs:3 with the
    # library default reach and tests key(x g x^-1) = key(g) on ball
    # elements g and words x of up to 40 letters; T^40 takes the deepest
    # K-part of S^r, 1/k^(r-1), to 1/k^(r+39)
    ctx = BaumslagSolitarContext(k)
    letters = [s for s in ctx.generators() if s != ctx.identity]
    ball = sorted(enumerate_ball(ctx, radius).elements())
    rng = random.Random(11)
    pairs = [
        (g, [rng.choice(letters) for _ in range(rng.randint(1, 40))])
        for g in rng.sample(ball, 150)
    ]
    deepest = max(ball, key=lambda g: bs_value(ctx, g.kpart).denominator)
    assert bs_value(ctx, deepest.kpart).denominator == k ** (radius - 1)
    pairs.append((deepest, [letters[-1]] * 40))  # T^40
    for g, word in pairs:
        x = ctx.identity
        for s in word:
            x = ctx.multiply(x, s)
        assert conjugacy_key(ctx, conjugate(ctx, x, g)) == conjugacy_key(ctx, g)


# ---------------------------------------------------------------------------
# Census and witnesses: every stratum p != 0 against its Burnside count, and
# a conjugator for every key merge
# ---------------------------------------------------------------------------

# the kernel generators {0, +-1, +-3} of bs:2
BS2_R13 = [(0, 0), (1, 0), (-1, 0), (3, 0), (-3, 0)]
# the kernel generators {0, d0, d1, d0 + d1} of lamplighter:2
LAMP2_R4 = [(), ((0, 1),), ((1, 1),), ((0, 1), (1, 1))]

# name -> (context, census radius, the strata |p| <= s it saturates,
# witness radius, the merges witnessed there)
CERTIFIED = {
    "bs2": (lambda: BaumslagSolitarContext(2), 14, 9, 12, 12_908),
    "bs3": (lambda: BaumslagSolitarContext(3), 11, 5, 9, 5_678),
    "bs5": (lambda: BaumslagSolitarContext(5), 7, 2, 6, 786),
    "lamplighter2": (None, 18, 9, 12, 3_852),
    "lamplighter3": (lambda: LamplighterContext(3), 12, 6, 9, 4_562),
    "hyperbolic": (lambda: MatrixContext(HYP), 9, 5, 7, 3_026),
    "bs2-R13": (lambda: BaumslagSolitarContext(2, BS2_R13), 10, 7, 8, 3_358),
    "lamplighter2-R4": (lambda: LamplighterContext(2, LAMP2_R4), 12, 8, 10, 3_754),
}


@pytest.fixture(scope="module", params=CERTIFIED)
def certified(request):
    """(context, ball, census radius, saturation, witness radius, merges),
    one ball per case.  lamplighter:2 reuses the session's r18 ball with a
    context of its own, so that its key memos end with this module; both
    contexts have the default reach, as the ball's K-parts are read only
    at the reach they were built with."""
    make, r, saturated, rw, merges = CERTIFIED[request.param]
    if make is None:
        ctx, index = LamplighterContext(2), request.getfixturevalue("lamp18")[1]
    else:
        ctx = make()
        index = enumerate_ball(ctx, r)
    return ctx, index, r, saturated, rw, merges


def test_no_stratum_exceeds_its_burnside_count(certified):
    # the classes of stratum p != 0 are the phi-orbits on Q_|p|, C(|p|) of
    # them, so a stratum with more keys splits a class; a stratum with C(|p|)
    # keys is saturated, its keys complete at any radius
    ctx, index, r, saturated, _, _ = certified
    census = stratum_census(ctx, index, r)
    assert sorted(census) == [p for p in range(-r, r + 1) if p]
    assert all(found <= total for found, total in census.values())
    full = sorted(p for p, (found, total) in census.items() if found == total)
    assert full == [p for p in range(-saturated, saturated + 1) if p]


def test_every_key_merge_has_a_conjugator(certified):
    # both signs of p are witnessed directly, not mirrored by inversion
    ctx, index, _, _, rw, merges = certified
    assert witness_merges(ctx, index, rw) == merges


def test_integer_lamp_merges_have_conjugators():
    # lamplighter:0 has the infinite quotients Q_n = Z^n, so no Burnside
    # count bounds its strata; its key merges are still each witnessed
    ctx = LamplighterContext(0)
    assert witness_merges(ctx, enumerate_ball(ctx, 9), 9) == 17_016


def off_the_unit_roots(m):
    # a 2 x 2 M of det +-1 has a root-of-unity eigenvalue exactly when
    # |tr M| <= 2 (det 1) or tr M = 0 (det -1)
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    trace = m[0][0] + m[1][1]
    return abs(trace) > 2 if det == 1 else trace != 0


@given(
    st.builds(
        elementary_product,
        st.just(2),
        st.lists(
            st.tuples(st.just(0), st.just(1), st.sampled_from([-2, -1, 1, 2]))
            | st.tuples(st.just(1), st.just(0), st.sampled_from([-2, -1, 1, 2])),
            min_size=2,
            max_size=6,
        ),
        st.booleans(),
    ).filter(off_the_unit_roots)
)
@settings(max_examples=20, deadline=None)
def test_census_and_witnesses_hold_off_the_unit_roots(m):
    # every 2 x 2 det +-1 matrix with no unit-root eigenvalue has finite
    # quotients Q_n, so no stratum of B^5 may exceed C(|p|), and every key
    # merge there has a conjugator (witness_merges asserts each one)
    ctx = MatrixContext(m)
    index = enumerate_ball(ctx, 5)
    census = stratum_census(ctx, index, 5)
    assert sorted(census) == [p for p in range(-5, 6) if p]
    assert all(found <= total for found, total in census.values())
    assert witness_merges(ctx, index, 5) > 0
