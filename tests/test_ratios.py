from math import log

import pytest

from _oracles import decay_fit, low_t_count, sphere_class_histogram, t_count_map
from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import BaumslagSolitarContext, LamplighterContext
from abcgroups.ratios import (
    CSV_HEADER,
    RatioRow,
    format_csv,
    gnuplot_script,
    ratio_table,
    threshold_function,
)


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
