from math import log

import pytest

from _oracles import (
    decay_fit,
    full_ratio_table,
    low_t_count,
    ratio_table_by_sphere,
    sphere_class_histogram,
    t_count_map,
    t_counts,
)
from abcgroups.conjugacy import conjugacy_key
from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import BaumslagSolitarContext, LamplighterContext, MatrixContext
from abcgroups.ratios import (
    CSV_HEADER,
    RatioRow,
    format_csv,
    gnuplot_script,
    ratio_table,
    threshold_function,
)

HYP = ((2, 1), (1, 1))
BS2_ONE_THREE = ((0, 0), (1, 0), (-1, 0), (3, 0), (-3, 0))


def test_threshold_sqrt():
    f = threshold_function("sqrt")
    assert [f(r) for r in (0, 1, 2, 4, 5, 9, 10, 16, 17)] == [
        0, 1, 2, 2, 3, 3, 4, 4, 5,
    ]


def test_threshold_log2():
    f = threshold_function("log2")
    assert f(0) == 0
    assert f(1) == 0
    assert f(3) == 2
    assert f(10) == 6


def test_threshold_const():
    f = threshold_function("const:3")
    assert f(0) == f(100) == 3
    with pytest.raises(ValueError):
        threshold_function("const:-1")
    with pytest.raises(ValueError):
        threshold_function("const:x")
    with pytest.raises(ValueError):
        threshold_function("cubic")


def test_ratio_table_first_rows():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 6)
    table = ratio_table(ctx, index)
    row0 = table[0]
    assert (row0.r, row0.ball, row0.sphere) == (0, 1, 1)
    assert (row0.classes_cum, row0.classes_new) == (1, 1)
    assert row0.cr == 1.0 and row0.scr == 1.0
    # every radius-1 element is alone in its class
    row1 = table[1]
    assert row1.cr == 1.0
    # (2, t^0) merges into the class of (1, t^0) at radius 2
    assert table[2].cr < 1.0
    assert [row.r for row in table] == list(range(7))


def test_ratio_table_cumulative_consistency():
    ctx = LamplighterContext(2)
    index = enumerate_ball(ctx, 6)
    table = ratio_table(ctx, index)
    balls = [index.ball_size(r) for r in range(7)]
    assert [row.ball for row in table] == balls
    assert [row.sphere for row in table] == [
        len(index.sphere(r)) for r in range(7)
    ]
    total_new = 0
    for row in table:
        total_new += row.classes_new
        assert row.classes_cum == total_new
        assert row.cr == row.classes_cum / row.ball
        assert row.scr == row.classes_new / row.sphere
        assert 0 <= row.f_classes <= row.classes_new
        assert 0 <= row.f_size


# balls on which ratio_table's p < 0 mirror is checked, with non-standard
# kernel generating sets: R = {0, +-1, +-3} in bs:2, {0, d_0, d_1, d_0 + d_1}
# in lamplighter:2 and {0, +-e_1, +-(1, 1)} for [[2,1],[1,1]]; the last
# ball is the companion of x^3 - x - 1
MIRROR_BALLS = [
    pytest.param(
        lambda: BaumslagSolitarContext(2, kgens=BS2_ONE_THREE), 8, id="bs-2-pm1-pm3-r8"
    ),
    pytest.param(lambda: BaumslagSolitarContext(3), 10, id="bs-3-r10"),
    pytest.param(lambda: BaumslagSolitarContext(5), 8, id="bs-5-r8"),
    pytest.param(lambda: LamplighterContext(3), 10, id="lamplighter-3-r10"),
    pytest.param(lambda: LamplighterContext(0), 8, id="lamplighter-0-r8"),
    pytest.param(
        lambda: LamplighterContext(
            2, kgens=((), ((0, 1),), ((1, 1),), ((0, 1), (1, 1)))
        ),
        7,
        id="lamplighter-2-d0-d1-d01-r7",
    ),
    pytest.param(lambda: MatrixContext(HYP), 9, id="hyperbolic-r9"),
    pytest.param(
        lambda: MatrixContext(HYP, kgens=((0, 0), (1, 0), (-1, 0), (1, 1), (-1, -1))),
        7,
        id="hyperbolic-e1-11-r7",
    ),
    pytest.param(
        lambda: MatrixContext(((0, 0, 1), (1, 0, 1), (0, 1, 0))), 6, id="pisot-r6"
    ),
]


@pytest.mark.parametrize("make_ctx, radius", MIRROR_BALLS)
def test_mirrored_table_equals_full_key_pass(make_ctx, radius):
    ctx = make_ctx()
    index = enumerate_ball(ctx, radius)
    for f in ("sqrt", "log2", "const:3"):
        assert ratio_table(ctx, index, f) == full_ratio_table(ctx, index, f)


SPHERE_ORACLE_BALLS = [
    pytest.param(lambda: BaumslagSolitarContext(2), 10, id="bs-2-r10"),
    pytest.param(lambda: BaumslagSolitarContext(3), 7, id="bs-3-r7"),
    pytest.param(lambda: LamplighterContext(2), 10, id="lamplighter-2-r10"),
    pytest.param(lambda: LamplighterContext(0), 6, id="lamplighter-0-r6"),
    pytest.param(lambda: MatrixContext(HYP), 7, id="hyperbolic-r7"),
    pytest.param(
        lambda: BaumslagSolitarContext(2, kgens=BS2_ONE_THREE), 7, id="bs-2-pm1-pm3-r7"
    ),
]


@pytest.mark.parametrize("make_ctx, radius", SPHERE_ORACLE_BALLS)
def test_stratum_table_equals_sphere_table(make_ctx, radius):
    # ratio_table counts stratum by stratum from the index's strata; the
    # oracle keys each element of each whole sphere on its own
    ctx = make_ctx()
    index = enumerate_ball(ctx, radius)
    for f in ("sqrt", "log2", "const:3"):
        assert ratio_table(ctx, index, f) == ratio_table_by_sphere(ctx, index, f)


def inversion_breaks(ctx, index) -> list[str]:
    """Which of the facts ratio_table's mirror rests on fail on the index:
    g -> g^-1 maps each sphere onto itself with equal t-counts, it maps each
    class of a stratum p > 0 into one class of stratum -p with the same
    count on the sphere, and the strata p and -p have the same multiset of
    class counts."""
    t_count = t_count_map(index)
    broken = []
    for r in range(index.radius + 1):
        sphere = index.sphere(r)
        if {ctx.invert(g): t_count[g] for g in sphere} != dict(
            zip(sphere, t_counts(index, r))
        ):
            broken.append(f"S_{r} is not closed under inversion")
            continue
        hist = sphere_class_histogram(ctx, index, r)
        stratum = {}
        inverse_keys: dict = {}  # key of a class with p > 0 -> keys of g^-1
        for g in sphere:
            key = conjugacy_key(ctx, g)
            stratum[key] = g.texp
            if g.texp > 0:
                inverse = conjugacy_key(ctx, ctx.invert(g))
                inverse_keys.setdefault(key, set()).add(inverse)
        for key, keys in inverse_keys.items():
            if len(keys) != 1:
                broken.append(f"key(g^-1) varies on the class {key} of S_{r}")
                continue
            (inverse,) = keys
            if stratum[inverse] != -stratum[key] or hist[inverse] != hist[key]:
                broken.append(f"the class {key} and its inverse differ on S_{r}")
        for p in {abs(q) for q in stratum.values()} - {0}:
            counts = [
                sorted(c for key, c in hist.items() if stratum[key] == q)
                for q in (p, -p)
            ]
            if counts[0] != counts[1]:
                broken.append(f"strata {p} and {-p} differ on S_{r}")
    return broken


@pytest.mark.parametrize("make_ctx, radius", MIRROR_BALLS)
def test_inversion_pairs_spheres_and_classes(make_ctx, radius):
    ctx = make_ctx()
    assert inversion_breaks(ctx, enumerate_ball(ctx, radius)) == []


def test_inversion_check_flags_a_non_symmetric_generating_set():
    # the context refuses R = {0, +-1, 3}; set it behind the check's back
    ctx = BaumslagSolitarContext(2, kgens=BS2_ONE_THREE)
    ctx.kgen_nonzero = ((1, 0), (-1, 0), (3, 0))
    assert inversion_breaks(ctx, enumerate_ball(ctx, 4))


def test_histogram_sums_to_sphere():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 5)
    for r in range(6):
        hist = sphere_class_histogram(ctx, index, r)
        assert sum(hist.values()) == len(index.sphere(r))
        assert all(v >= 1 for v in hist.values())


def test_u_count_matches_direct_scan():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 6)
    f = threshold_function("sqrt")
    table = ratio_table(ctx, index)
    for row in table:
        assert row.u_count == low_t_count(index, row.r, f(row.r))


def test_u_count_with_identity_threshold_is_ball():
    # min_t never exceeds the word length, so f = 5 counts everything
    ctx = LamplighterContext(2)
    index = enumerate_ball(ctx, 5)
    table = ratio_table(ctx, index, f="const:5")
    for row in table:
        assert row.u_count == row.ball


def test_low_t_count_zero_bound():
    # bound 0 keeps exactly the elements spelled without t letters
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 4)
    count = low_t_count(index, 4, 0)
    assert count == sum(1 for m in t_count_map(index).values() if m == 0)
    assert count == 9  # (a, t^0) for a in -4..4


def test_decay_fit_constant_table():
    rows = tuple(
        RatioRow(
            r=r,
            ball=1,
            sphere=1,
            classes_cum=1,
            classes_new=1,
            cr=1.0,
            scr=0.5,
            f_size=0,
            f_classes=0,
            u_count=0,
        )
        for r in range(3, 7)
    )
    fit = decay_fit(rows)
    assert fit.rows_used == 4
    assert fit.cr_constant == pytest.approx(max(r / log(r) for r in range(3, 7)))
    assert fit.scr_constant == pytest.approx(
        max(0.5 * r / log(r) for r in range(3, 7))
    )


def test_decay_fit_needs_enough_rows():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 5)
    table = ratio_table(ctx, index)  # rows 3, 4, 5 only
    with pytest.raises(ValueError):
        decay_fit(table)
    fit = decay_fit(ratio_table(ctx, enumerate_ball(ctx, 6)))
    assert fit.rows_used == 4
    assert fit.cr_constant > 0


def test_write_csv_format():
    ctx = BaumslagSolitarContext(2)
    index = enumerate_ball(ctx, 3)
    table = ratio_table(ctx, index)
    lines = format_csv(table).splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    # floats written via repr so the table re-parses exactly
    row2 = table[2]
    assert lines[3].split(",")[5] == repr(row2.cr)


def test_gnuplot_script():
    script = gnuplot_script("out.csv")
    assert "set datafile separator ','" in script
    assert "out.csv" in script
    assert "set title 'class ratios'" in script
    assert script.endswith("\n")
