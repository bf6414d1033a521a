import hashlib
import json

import pytest

from _oracles import geodesic_words, t_count_map, t_counts, whole_ball_bfs, word_ball
from abcgroups.enumeration import ResourceCapError, enumerate_ball
from abcgroups.groups import (
    BaumslagSolitarContext,
    Element,
    LamplighterContext,
    MatrixContext,
    load_matrix_config,
)
from abcgroups.words import evaluate, format_word, t_exponent

HYP = ((2, 1), (1, 1))
# I + [[2,1],[1,1]] on the last two coordinates: a unit-root eigenvalue and
# six kernel generators +-e_i
UNIT_ROOT = ((1, 0, 0), (0, 2, 1), (0, 1, 1))


def contexts():
    return [
        (BaumslagSolitarContext(2), 5),
        (BaumslagSolitarContext(3), 4),
        (LamplighterContext(2), 5),
        (LamplighterContext(3), 4),
        (MatrixContext(HYP), 4),
    ]


def other_generating_sets(tmp_path):
    # more than one pair of kernel generators, so each t-level shifts
    # several deltas
    path = tmp_path / "den5.json"
    path.write_text(
        json.dumps(
            {"rows": [[-1, 1, 1], [0, 2, 1], [0, 1, 1]], "generators": [[0, 0, 1], [0, 1, 0]]}
        )
    )
    return [
        (BaumslagSolitarContext(2, kgens=((0, 0), (1, 0), (-1, 0), (3, 0), (-3, 0))), 6),
        (LamplighterContext(2, kgens=((), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)))), 6),
        (load_matrix_config(str(path)), 5),
    ]


def test_ball_matches_word_oracle(tmp_path):
    for ctx, radius in contexts() + other_generating_sets(tmp_path):
        index = enumerate_ball(ctx, radius)
        oracle = word_ball(ctx, radius)
        assert len(index) == len(oracle)
        t_count = t_count_map(index)
        for g, (dist, min_t) in oracle.items():
            assert index.word_length(g) == dist
            assert t_count[g] == min_t


def test_ball_matches_whole_ball_bfs(tmp_path):
    # probing the two previous layers finds what probing the whole ball
    # finds: the same spheres in the same order, t-counts and lengths, and
    # caps that raise at the same radius, the last or the one before it
    for ctx, radius in contexts() + other_generating_sets(tmp_path) + [
        (LamplighterContext(0), 4),
        (MatrixContext(UNIT_ROOT), 4),
    ]:
        index = enumerate_ball(ctx, radius)
        records, layers, t_layers = whole_ball_bfs(ctx, radius)
        assert [index.sphere(r) for r in range(radius + 1)] == layers
        assert [t_counts(index, r) for r in range(radius + 1)] == t_layers
        assert len(index) == len(records)
        for g, dist in records.items():
            assert g in index
            assert index.word_length(g) == dist
        for g in layers[radius]:
            for s in ctx.generators():
                h = ctx.multiply(g, s)
                assert (h in index) == (h in records)
        for cap in (len(index) - 1, index.ball_size(radius - 1) - 1):
            with pytest.raises(ResourceCapError) as fast:
                enumerate_ball(ctx, radius, element_cap=cap)
            with pytest.raises(ResourceCapError) as slow:
                whole_ball_bfs(ctx, radius, element_cap=cap)
            assert str(fast.value) == str(slow.value)


def test_ball_types_and_shapes(tmp_path):
    # spheres list Elements, never plain tuples, though the index keys its
    # strata by K-part, and a plain tuple looks up the same record as the
    # equal Element
    for ctx, radius in contexts() + other_generating_sets(tmp_path):
        index = enumerate_ball(ctx, radius)
        for r in range(radius + 1):
            sphere = index.sphere(r)
            assert all(type(g) is Element for g in sphere)
            assert len(t_counts(index, r)) == len(sphere)
            for g in sphere:
                assert index.word_length(tuple(g)) == index.word_length(g) == r
        # multiply builds its Element by tuple.__new__, so pin its type and
        # fields against the generic formula
        outer = index.sphere(radius)
        for g in outer[:20]:
            for h in ctx.generators() + outer[:5]:
                gh = ctx.multiply(g, h)
                assert type(gh) is Element
                assert gh.kpart == ctx.kpart_add(g.kpart, ctx.phi_power(h.kpart, g.texp))
                assert gh.texp == g.texp + h.texp
        # sphere hands out copies and strata read-only views: clearing or
        # growing what they return leaves the index's own spheres as BFS
        # built them
        size = len(index)
        for r in range(radius + 1):
            sphere, counts = index.sphere(r), t_counts(index, r)
            kept = list(sphere), list(counts)
            sphere.append(ctx.identity)
            sphere.clear()
            strata = index.strata(r)
            for stratum in strata.values():
                with pytest.raises(TypeError):
                    stratum[ctx.identity.kpart] = -1
            strata.clear()
            assert (index.sphere(r), t_counts(index, r)) == kept
            assert len(index) == size
            assert all(index.word_length(g) == r for g in kept[0])
    with pytest.raises(ValueError):
        index.strata(radius + 1)


def test_strata_group_the_sphere(tmp_path):
    # strata(r) is sphere(r) grouped by t-exponent: each stratum lists the
    # K-parts of its elements in sphere order, never Elements, with each
    # element's t-count, and holds no empty stratum
    for ctx, radius in contexts() + other_generating_sets(tmp_path) + [
        (MatrixContext(UNIT_ROOT), 4)
    ]:
        index = enumerate_ball(ctx, radius)
        _, _, t_layers = whole_ball_bfs(ctx, radius)
        for r in range(radius + 1):
            grouped: dict = {}
            for g, m in zip(index.sphere(r), t_layers[r]):
                grouped.setdefault(g.texp, []).append((g.kpart, m))
            strata = index.strata(r)
            assert sorted(strata) == sorted(grouped)
            for p, stratum in strata.items():
                assert list(stratum.items()) == grouped[p]
                assert not any(type(a) is Element for a in stratum)


def test_frozen_ball_sizes():
    index = enumerate_ball(BaumslagSolitarContext(2), 5)
    assert [index.ball_size(r) for r in range(6)] == [1, 5, 17, 43, 93, 191]
    lamp = enumerate_ball(LamplighterContext(2), 5)
    assert [lamp.ball_size(r) for r in range(6)] == [1, 4, 10, 22, 44, 84]


def test_far_lamp_needs_a_long_word():
    # lighting only the lamp at 5 costs t^5 g0 T^5
    ctx = LamplighterContext(2)
    index = enumerate_ball(ctx, 11)
    g = Element(((5, 1),), 0)
    assert index.word_length(g) == 11
    assert t_count_map(index)[g] == 10


def test_sphere_and_elements():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 3)
    assert index.sphere(0) == [ctx.identity]
    assert index.sphere(1) == ctx.generators()
    assert list(index.elements()) == [
        g for r in range(4) for g in index.sphere(r)
    ]
    assert index.ball_size(3) == len(index)
    with pytest.raises(ValueError):
        index.sphere(4)
    with pytest.raises(ValueError):
        index.ball_size(-1)
    for r in (4, -1):
        with pytest.raises(ValueError):
            list(index.elements(r))
    with pytest.raises(KeyError):
        index.word_length(Element((99, 0), 0))


def test_inversion_symmetry():
    # the generating set is symmetric, so d(1, g) = d(1, g^-1)
    for ctx, radius in contexts()[:3]:
        index = enumerate_ball(ctx, radius)
        for g in index.elements():
            assert index.word_length(ctx.invert(g)) == index.word_length(g)


def test_geodesic_words():
    for ctx, radius in contexts():
        index = enumerate_ball(ctx, radius)
        words = geodesic_words(ctx, index, radius)
        t_count = t_count_map(index)
        for g in index.elements():
            w = words[g]
            assert len(w) == index.word_length(g)
            assert evaluate(ctx, w) == g
            tcount = sum(1 for x in w if x in ("t", "T"))
            assert tcount >= t_count[g]


def test_min_t_parity_and_bound():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 6)
    for g, m in t_count_map(index).items():
        assert m >= abs(g.texp)
        assert (m - g.texp) % 2 == 0


def test_element_cap():
    with pytest.raises(ResourceCapError):
        enumerate_ball(BaumslagSolitarContext(2), 5, element_cap=50)
    # the cap is checked before the layer is committed
    index = enumerate_ball(BaumslagSolitarContext(2), 2, element_cap=17)
    assert len(index) == 17


def test_negative_radius():
    with pytest.raises(ValueError):
        enumerate_ball(BaumslagSolitarContext(2), -1)


def test_spheres_are_in_discovery_order(tmp_path):
    # BFS reaches h on sphere r from the earliest g on sphere r - 1 with
    # g s_i = h, ties going to the lower generator index i, and lists the
    # sphere in the order it first reached each element
    for ctx, radius in contexts() + other_generating_sets(tmp_path) + [
        (LamplighterContext(0), 3)
    ]:
        index = enumerate_ball(ctx, radius)
        gens = ctx.generators()
        assert index.sphere(1) == gens
        for r in range(2, radius + 1):
            first: dict = {}
            for pos, g in enumerate(index.sphere(r - 1)):
                for i, s in enumerate(gens):
                    first.setdefault(ctx.multiply(g, s), (pos, i))
            sphere = index.sphere(r)
            assert sphere == sorted(sphere, key=first.__getitem__)


@pytest.mark.parametrize(
    "ctx, r, texp, listing",
    [
        (
            LamplighterContext(2),
            5,
            2,
            ["(1@0+1@1+1@2; t^2)", "(1@3; t^2)", "(1@-1; t^2)"],
        ),
        (
            LamplighterContext(0),
            3,
            1,
            [
                "(2@0; t^1)",
                "(1@0+1@1; t^1)",
                "(1@0+-1@1; t^1)",
                "(-2@0; t^1)",
                "(-1@0+1@1; t^1)",
                "(-1@0+-1@1; t^1)",
                "(2@1; t^1)",
                "(-2@1; t^1)",
            ],
        ),
        (
            BaumslagSolitarContext(2),
            2,
            -1,
            ["(1; t^-1)", "(-1; t^-1)", "(1/2^1; t^-1)", "(-1/2^1; t^-1)"],
        ),
        (
            MatrixContext(HYP),
            1,
            0,
            ["((1,0); t^0)", "((-1,0); t^0)", "((0,1); t^0)", "((0,-1); t^0)"],
        ),
    ],
    ids=["lamplighter-2", "lamplighter-0", "bs-2", "matrix"],
)
def test_sphere_order_is_frozen(ctx, r, texp, listing):
    # discovery order, which follows the previous sphere and the
    # generator order
    sphere = enumerate_ball(ctx, r).sphere(r)
    assert [ctx.format_element(g) for g in sphere if g.texp == texp] == listing


def test_determinism():
    a = enumerate_ball(LamplighterContext(3), 4)
    b = enumerate_ball(LamplighterContext(3), 4)
    assert list(a.elements()) == list(b.elements())
    for g in a.elements():
        assert a.word_length(g) == b.word_length(g)
    assert [t_counts(a, r) for r in range(5)] == [t_counts(b, r) for r in range(5)]


def test_geodesic_t_exponent_matches():
    ctx = MatrixContext(HYP)
    index = enumerate_ball(ctx, 4)
    for g, w in geodesic_words(ctx, index, 4).items():
        assert t_exponent(w) == g.texp


# sha256 over "element word\n" lines in elements() order, with spheres in
# discovery order: each word ends in the letter by which BFS first reached
# its element
GEODESIC_DIGESTS = [
    (
        BaumslagSolitarContext(2),
        6,
        "9c576ade4b6eaeafe4782e6cb3b440c000c2b68b7a8428dbfb742c12ffd061e4",
    ),
    (
        LamplighterContext(2),
        6,
        "18e65c25dbad7237f58fb9d7ade280535a3414c19bd491765879e425ebdc4f4d",
    ),
    (
        MatrixContext(HYP),
        5,
        "e811e56aec3396088b612679fbbfc4243037087aa64eeec293527c94599b83ab",
    ),
]


@pytest.mark.parametrize(
    "ctx, radius, digest", GEODESIC_DIGESTS, ids=["bs-2", "lamplighter-2", "matrix"]
)
def test_geodesic_choice_is_pinned(ctx, radius, digest):
    index = enumerate_ball(ctx, radius)
    words = geodesic_words(ctx, index, radius)
    text = "".join(
        f"{ctx.format_element(g)} {format_word(words[g])}\n"
        for g in index.elements()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def check_closed_form_lengths(ctx, index):
    # BFS is the reference: equal lengths on the whole ball, every neighbour
    # of the inner ball inside it, and every neighbour of the sphere outside
    # it at length R + 1; those neighbours are the whole sphere R + 1
    gens = ctx.generators()
    radius = index.radius
    for g in index.elements():
        length = index.word_length(g)
        assert ctx.word_length(g) == length
        for s in gens:
            h = ctx.multiply(g, s)
            if length < radius:
                assert h in index
            elif h not in index:
                assert ctx.word_length(h) == radius + 1


def test_lamplighter2_lengths_match_closed_form(lamp18):
    check_closed_form_lengths(*lamp18)


@pytest.mark.parametrize("m, radius", [(3, 12), (0, 10)])
def test_lamplighter_lengths_match_closed_form(m, radius):
    ctx = LamplighterContext(m)
    check_closed_form_lengths(ctx, enumerate_ball(ctx, radius))


@pytest.mark.parametrize("k, radius", [(2, 14), (3, 10), (5, 8)])
def test_bs_lengths_match_digit_program(k, radius):
    ctx = BaumslagSolitarContext(k)
    check_closed_form_lengths(ctx, enumerate_ball(ctx, radius))


def check_bounded_lengths(ctx, index):
    # the oracle asks for min(|g|, bound + 1); BFS is the reference, on the
    # whole ball and on the sphere R + 1 that the sphere R reaches
    radius = index.radius
    lengths = {g: index.word_length(g) for g in index.elements()}
    for g in index.sphere(radius):
        for s in ctx.generators():
            lengths.setdefault(ctx.multiply(g, s), radius + 1)
    for bound in range(radius + 2):
        for g, length in lengths.items():
            assert ctx.word_length(g, bound) == min(length, bound + 1)


@pytest.mark.parametrize("k, radius", [(2, 10), (3, 8), (5, 6)])
def test_bs_bounded_lengths_match_bfs(k, radius):
    ctx = BaumslagSolitarContext(k)
    check_bounded_lengths(ctx, enumerate_ball(ctx, radius))


@pytest.mark.parametrize("m, radius", [(2, 8), (0, 5)])
def test_lamplighter_bounded_lengths_match_bfs(m, radius):
    ctx = LamplighterContext(m)
    check_bounded_lengths(ctx, enumerate_ball(ctx, radius))


def test_ball_lengths_take_a_bound():
    # the ball reads min(|g|, bound + 1) off its spheres up to the bound,
    # which it must cover
    ctx = MatrixContext(HYP)
    index = enumerate_ball(ctx, 5)
    for g in index.elements():
        length = index.word_length(g)
        for bound in range(6):
            assert index.word_length(g, bound) == min(length, bound + 1)
    outside = [
        h
        for g in index.sphere(5)
        for s in ctx.generators()
        if (h := ctx.multiply(g, s)) not in index
    ]
    assert outside
    assert {index.word_length(h, 5) for h in outside} == {6}
    with pytest.raises(KeyError):
        index.word_length(outside[0])
    with pytest.raises(ValueError):
        index.word_length(ctx.identity, 6)
