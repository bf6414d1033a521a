"""Presentation invariance: isomorphic presentations give one ratio table,
one conjtest partition and one growth table.

An isomorphism of groups that carries one generating set onto the other
preserves word length, the t-letter count of geodesics and conjugacy, so
the ratio CSV of both presentations must agree byte for byte.  One
comparison covers BFS (the ball and sphere columns), the t-counts (U_count)
and the class keys (the class columns) at radii the brute-force oracle does
not reach.  The same isomorphism carries conjugators onto conjugators of
equal length, so on the ball conjtest builds (S^r where the word length has
a closed form, otherwise S^RC) the ball size, the oracle's block count and
block sizes and the key class count agree too; for bs with k^j R that pits
the closed-form conjugator lengths against lengths read off S^RC.  For a
matrix with a root-of-unity eigenvalue, v -> A v also carries the fixed
points of M^N onto those of A M^N A^-1, so the periodic subgroup growth
table agrees.  The sup-norm of the unit-root projection depends on the
basis, so the epsilon-norm table is not compared.  The identities used:

- change of basis: M with standard generators against A M A^-1 with
  generators A e_i, through v -> A v;
- t -> t^-1: M against M^-1;
- phi-images of the kernel generators: bs:k with R against k^j R, and the
  lamplighter with R against its shift by delta_j, through conjugation by
  a power of t;
- unit multiples: the lamplighter with R against u R for a unit u mod m,
  through a -> u a on K, which commutes with the shift.

The negative controls, A M A^-1 with standard generators and a lamplighter
R scaled by u on one generator only, must differ: without them a
comparison that compared nothing would pass.

Beyond the fixed bases above, A is also drawn from GL_2(Z) and GL_3(Z) by
fixed seeds, with entries in the hundreds and |det A| = 1 certified by
linalg.adjugate, so the change of basis reaches numbers no hand-picked
basis does.
"""

import random
from functools import cache

import pytest

from abcgroups.conjugacy import (
    brute_force_partition,
    closed_form_lengths,
    conjugacy_key,
)
from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import BaumslagSolitarContext, LamplighterContext, MatrixContext
from abcgroups.linalg import adjugate, identity_matrix, mat_mul
from abcgroups.ratios import format_csv, ratio_table
from abcgroups.spectral import relative_growth_table

HYP = ((2, 1), (1, 1))
HYP_BASIS = ((1, 1), (0, 1))
HYP_CONJ = ((3, -1), (1, 0))  # HYP_BASIS HYP HYP_BASIS^-1
HYP_INV = ((1, -1), (-1, 2))

PISOT = ((0, 0, 1), (1, 0, 1), (0, 1, 0))
PISOT_BASIS = ((1, 2, 0), (0, 1, 3), (1, 2, 1))
PISOT_CONJ = ((-13, -4, 15), (3, 1, -2), (-10, -3, 12))
PISOT_INV = ((-1, 1, 0), (0, 0, 1), (1, 0, 0))

UNIT_ROOT = ((1, 0, 0), (0, 2, 1), (0, 1, 1))
UNIT_ROOT_CONJ = ((5, 2, -4), (11, 5, -11), (7, 3, -6))  # by PISOT_BASIS


def carried_generators(basis):
    """{0, +-A e_i}: the standard generators carried by v -> A v."""
    n = len(basis)
    columns = [tuple(row[i] for row in basis) for i in range(n)]
    return [(0,) * n] + [w for v in columns for w in (v, tuple(-x for x in v))]


PRESENTATIONS = {
    "hyp": lambda: MatrixContext(HYP),
    "hyp_conj": lambda: MatrixContext(HYP_CONJ, carried_generators(HYP_BASIS)),
    "hyp_conj_standard": lambda: MatrixContext(HYP_CONJ),
    "hyp_inv": lambda: MatrixContext(HYP_INV),
    "pisot": lambda: MatrixContext(PISOT),
    "pisot_conj": lambda: MatrixContext(PISOT_CONJ, carried_generators(PISOT_BASIS)),
    "pisot_conj_standard": lambda: MatrixContext(PISOT_CONJ),
    "pisot_inv": lambda: MatrixContext(PISOT_INV),
    "unit_root": lambda: MatrixContext(UNIT_ROOT),
    "unit_root_conj": lambda: MatrixContext(
        UNIT_ROOT_CONJ, carried_generators(PISOT_BASIS)
    ),
    "unit_root_conj_standard": lambda: MatrixContext(UNIT_ROOT_CONJ),
    "bs2": lambda: BaumslagSolitarContext(2),
    "bs2_times_2": lambda: BaumslagSolitarContext(2, [(0, 0), (2, 0), (-2, 0)]),
    "bs2_times_half": lambda: BaumslagSolitarContext(2, [(0, 0), (1, 1), (-1, 1)]),
    "lamp2": lambda: LamplighterContext(2),
    "lamp2_shift": lambda: LamplighterContext(2, [(), ((1, 1),)]),
    # {0, +-delta_0, +-delta_1} mod 5, against 2 R and against 2 on delta_1 only
    "lamp5": lambda: LamplighterContext(
        5, [(), ((0, 1),), ((0, 4),), ((1, 1),), ((1, 4),)]
    ),
    "lamp5_times_2": lambda: LamplighterContext(
        5, [(), ((0, 2),), ((0, 3),), ((1, 2),), ((1, 3),)]
    ),
    "lamp5_mixed": lambda: LamplighterContext(
        5, [(), ((0, 1),), ((0, 4),), ((1, 2),), ((1, 3),)]
    ),
}


@cache
def table(name: str, radius: int) -> str:
    ctx = PRESENTATIONS[name]()
    return format_csv(ratio_table(ctx, enumerate_ball(ctx, radius)))


@cache
def partition(name: str, r: int, rc: int):
    """Ball size, oracle block count, key class count and sorted block sizes
    of S^r with conjugator radius rc, on the ball conjtest builds."""
    ctx = PRESENTATIONS[name]()
    index = enumerate_ball(ctx, r if closed_form_lengths(ctx) else rc)
    blocks = brute_force_partition(ctx, index, r, rc)
    keys = {conjugacy_key(ctx, g) for g in index.elements(r)}
    return index.ball_size(r), len(blocks), len(keys), sorted(map(len, blocks))


@cache
def growth(name: str, radius: int) -> list[tuple[int, int, int]]:
    ctx = PRESENTATIONS[name]()
    return relative_growth_table(ctx, enumerate_ball(ctx, radius))


def test_conjugates_and_inverses_are_what_they_claim():
    for m, basis, conj in [
        (HYP, HYP_BASIS, HYP_CONJ),
        (PISOT, PISOT_BASIS, PISOT_CONJ),
        (UNIT_ROOT, PISOT_BASIS, UNIT_ROOT_CONJ),
    ]:
        assert mat_mul(basis, m) == mat_mul(conj, basis)
    for m, inv in [(HYP, HYP_INV), (PISOT, PISOT_INV)]:
        assert mat_mul(m, inv) == identity_matrix(len(m))


@pytest.mark.parametrize(
    "base, other, radius",
    [
        ("hyp", "hyp_conj", 10),
        ("hyp", "hyp_inv", 10),
        ("pisot", "pisot_conj", 7),
        ("pisot", "pisot_inv", 7),
        ("bs2", "bs2_times_2", 12),
        ("bs2", "bs2_times_half", 12),
        ("lamp2", "lamp2_shift", 10),
        ("lamp5", "lamp5_times_2", 7),
    ],
)
def test_isomorphic_presentations_give_one_table(base, other, radius):
    assert table(other, radius) == table(base, radius)


@pytest.mark.parametrize(
    "base, other, radius, balls",
    [
        ("hyp", "hyp_conj_standard", 10, [32_817, 33_101]),
        ("pisot", "pisot_conj_standard", 7, [3_859, 85_845]),
        ("lamp5", "lamp5_mixed", 7, [4_863, 9_095]),
    ],
)
def test_non_isomorphic_generating_sets_differ(base, other, radius, balls):
    tables = [table(base, radius), table(other, radius)]
    assert tables[0] != tables[1]
    assert [int(t.splitlines()[-1].split(",")[1]) for t in tables] == balls


@pytest.mark.parametrize(
    "base, other, r, rc, counts",
    [
        ("hyp", "hyp_conj", 5, 10, (663, 69, 69)),
        ("hyp", "hyp_inv", 5, 10, (663, 69, 69)),
        ("pisot", "pisot_conj", 3, 6, (157, 23, 23)),
        ("pisot", "pisot_inv", 3, 6, (157, 23, 23)),
        ("bs2", "bs2_times_2", 5, 10, (191, 27, 27)),
        ("bs2", "bs2_times_half", 5, 10, (191, 27, 27)),
        ("lamp2", "lamp2_shift", 5, 10, (84, 25, 25)),
    ],
)
def test_isomorphic_presentations_give_one_partition(base, other, r, rc, counts):
    assert partition(base, r, rc)[:3] == counts
    assert partition(other, r, rc) == partition(base, r, rc)


@pytest.mark.parametrize(
    "base, other, r, rc, counts",
    [
        ("hyp", "hyp_conj_standard", 5, 10, (685, 67, 67)),
        ("pisot", "pisot_conj_standard", 3, 6, (285, 67, 67)),
    ],
)
def test_non_isomorphic_generating_sets_partition_differently(
    base, other, r, rc, counts
):
    assert partition(other, r, rc)[:3] == counts
    assert partition(other, r, rc) != partition(base, r, rc)


def draw_basis(seed: int, n: int):
    """A in GL_n(Z) with largest entry in [100, 999], from a fixed seed.

    Row operations r_i += c r_j with |c| <= 3 keep |det| = 1; they are
    applied until the largest entry reaches 100, and the draw starts again
    if it passes 999 on the way.
    """
    rng = random.Random(seed)
    while True:
        rows = [list(row) for row in identity_matrix(n)]
        top = 1
        while top < 100:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
            top = max(abs(x) for row in rows for x in row)
        if top <= 999:
            return tuple(map(tuple, rows))


@pytest.mark.parametrize(
    "base, seed, radius",
    [("hyp", seed, 10) for seed in range(1, 6)]
    + [("pisot", seed, 7) for seed in range(1, 6)],
)
def test_drawn_changes_of_basis_give_one_table(base, seed, radius):
    m = {"hyp": HYP, "pisot": PISOT}[base]
    basis = draw_basis(seed, len(m))
    adj, det = adjugate(basis)
    assert det in (1, -1)
    inverse = tuple(tuple(det * x for x in row) for row in adj)
    assert mat_mul(basis, inverse) == identity_matrix(len(m))
    conj = mat_mul(mat_mul(basis, m), inverse)
    assert max(abs(x) for row in conj for x in row) > 1000
    ctx = MatrixContext(conj, carried_generators(basis))
    assert format_csv(ratio_table(ctx, enumerate_ball(ctx, radius))) == table(
        base, radius
    )


def test_isomorphic_presentations_give_one_growth_table():
    assert growth("unit_root", 7)[-1] == (7, 8557, 15)
    assert growth("unit_root_conj", 7) == growth("unit_root", 7)
    assert growth("unit_root_conj_standard", 7)[-1] == (7, 58179, 7)
