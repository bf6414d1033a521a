"""Acceptance gate: one test per numbered criterion.

Each test records a PASS/FAIL line (printed in the terminal summary) and
then asserts, so a red run still reports every criterion's outcome.
"""

import math
import time
from fractions import Fraction

import pytest

from _oracles import (
    congruence_witness,
    decay_fit,
    element,
    finite_n_solutions,
    geodesic_words,
    window_nonempty,
    word_ball,
)
from abcgroups.conjugacy import brute_force_partition, conjugacy_key
from abcgroups.enumeration import enumerate_ball
from abcgroups.folner import translate_experiment
from abcgroups.groups import BaumslagSolitarContext, LamplighterContext, MatrixContext
from abcgroups.ratios import ratio_table
from abcgroups.spectral import epsilon_norm_table, relative_growth_table
from abcgroups.words import cyclic_reduce, evaluate, to_staircase
from conftest import record_acceptance

MIXED3 = ((1, 0, 0), (0, 2, 1), (0, 1, 1))


def check(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    record_acceptance(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def bs8():
    # the oracle measures conjugators in closed form, so S^8 serves rc = 16
    ctx = BaumslagSolitarContext(2)
    return ctx, enumerate_ball(ctx, 8)


@pytest.fixture(scope="module")
def mixed8():
    ctx = MatrixContext(MIXED3)
    return ctx, enumerate_ball(ctx, 8)


def partition_agreement(ctx, index, r, rc):
    """(ok, classes_by_key, classes_by_oracle) for S^r under S^rc conjugators."""
    blocks = brute_force_partition(ctx, index, r, rc)
    by_key: dict = {}
    for g in index.elements(r):
        by_key.setdefault(conjugacy_key(ctx, g), []).append(g)
    fast = {frozenset(pool) for pool in by_key.values()}
    slow = {frozenset(block) for block in blocks}
    return fast == slow, len(by_key), len(blocks)


def test_criterion_1_bs_key_completeness(bs8):
    ctx, index = bs8
    started = time.monotonic()
    ok, by_key, by_oracle = partition_agreement(ctx, index, 8, 16)
    elapsed = time.monotonic() - started
    check(
        1,
        ok and by_key == by_oracle,
        f"bs:2 r=8 rc=16, {by_key} key classes vs {by_oracle} oracle blocks, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_lamplighter_key_completeness():
    ctx = LamplighterContext(2)
    index = enumerate_ball(ctx, 10)
    started = time.monotonic()
    ok, by_key, by_oracle = partition_agreement(ctx, index, 10, 18)
    elapsed = time.monotonic() - started
    check(
        2,
        ok and by_key == by_oracle,
        f"lamplighter:2 r=10 rc=18, {by_key} key classes vs {by_oracle} "
        f"oracle blocks, {elapsed:.1f}s",
    )


def test_criterion_3_ratio_decay(bs8, lamp18):
    details = []
    ok = True
    for label, (ctx, _) in (("bs:2", bs8), ("lamplighter:2", lamp18)):
        table = ratio_table(ctx, enumerate_ball(ctx, 12))
        cr = {row.r: row.cr for row in table}
        strictly_down = all(cr[r] > cr[r + 1] for r in range(6, 12))
        scaled = {r: cr[r] * r / math.log(r) for r in range(8, 13)}
        non_increasing = all(scaled[r] >= scaled[r + 1] for r in range(8, 12))
        fit = decay_fit(table)
        finite = math.isfinite(fit.cr_constant) and math.isfinite(fit.scr_constant)
        ok = ok and strictly_down and non_increasing and finite
        details.append(
            f"{label} cr(12)={cr[12]:.4f} down={strictly_down} "
            f"scaled_down={non_increasing} C={fit.cr_constant:.2f}"
        )
    check(3, ok, "; ".join(details))


def test_criterion_4_translated_boxes():
    ctx = BaumslagSolitarContext(2)
    reports = [translate_experiment(ctx, n) for n in (1, 2, 3)]
    sizes_ok = [r.box_size for r in reports] == [8, 128, 1536]
    classes_ok = all(r.classes == r.box_size and r.matches for r in reports)
    letters = reports[0].right_defects.keys()
    defects_down = all(
        reports[0].right_defects[x]
        > reports[1].right_defects[x]
        > reports[2].right_defects[x]
        for x in letters
    )
    left_ok = all(r.left_defect_t >= Fraction(2, 5) for r in reports)
    check(
        4,
        sizes_ok and classes_ok and defects_down and left_ok,
        f"sizes {[r.box_size for r in reports]}, classes "
        f"{[r.classes for r in reports]}, left defects "
        f"{[str(r.left_defect_t) for r in reports]}",
    )


def test_criterion_5_congruence_cross_check():
    from _oracles import are_conjugate

    mismatches = 0
    checked = 0
    for k in (2, 3):
        ctx = BaumslagSolitarContext(k)
        for n in range(1, 7):
            for a in range(-20, 21):
                ga = element(ctx, (a, 0), n)
                key_a = conjugacy_key(ctx, ga)
                for b in range(-20, 21):
                    gb = element(ctx, (b, 0), n)
                    witness = congruence_witness(ctx, a, b, n)
                    conj = key_a == conjugacy_key(ctx, gb)
                    checked += 1
                    if (witness is not None) != conj:
                        mismatches += 1
    ctx2 = BaumslagSolitarContext(2)
    sol = finite_n_solutions(ctx2, 1, 3, 30)
    window_empty = all(not window_nonempty(ctx2, 1, 3, n) for n in range(2, 31))
    ok = mismatches == 0 and sol.solutions == (1,) and window_empty
    check(
        5,
        ok,
        f"{checked} pairs, {mismatches} mismatches; solutions {sol.solutions}, "
        f"windows empty past n=1: {window_empty}",
    )


def test_criterion_6_rewrite_forms(bs8, lamp18):
    ok = True
    details = []
    for label, (ctx, index) in (("bs:2", bs8), ("lamplighter:2", lamp18)):
        words = geodesic_words(ctx, index, 6)
        stair_ok = True
        for g in index.elements(6):
            if g.texp < 0:
                continue
            w = words[g]
            s = to_staircase(w)
            if len(s) != len(w) or evaluate(ctx, s) != g:
                stair_ok = False
                break
        by_class: dict = {}
        for g in index.elements(6):
            if g.texp > 0:
                by_class.setdefault(conjugacy_key(ctx, g), []).append(g)
        cyclic_ok = True
        for members in by_class.values():
            fix = min(len(cyclic_reduce(words[g])) for g in members)
            shortest = min(index.word_length(g) for g in members)
            if fix != shortest:
                cyclic_ok = False
                break
        ok = ok and stair_ok and cyclic_ok
        details.append(
            f"{label} staircase={stair_ok} fixpoint={cyclic_ok} "
            f"classes={len(by_class)}"
        )
    check(6, ok, "; ".join(details))


def test_criterion_7_matrix_tables(mixed8):
    ctx, index = mixed8
    growth = relative_growth_table(ctx, index)
    balls = {r: b for r, b, _ in growth}
    p_counts = {r: p for r, _, p in growth}
    slope = (math.log(p_counts[8]) - math.log(p_counts[4])) / (
        math.log(8) - math.log(4)
    )
    slope_ok = slope <= 2
    # tail = ball values over the last quarter of the radius range; log
    # growth is linear there when consecutive increments nearly agree
    tail = range(6, 9)
    increments = [
        math.log(balls[r]) - math.log(balls[r - 1]) for r in list(tail)[1:]
    ]
    spread = max(increments) / min(increments) - 1
    linear_ok = spread <= 0.10
    norms = epsilon_norm_table(ctx, index)
    eps_ok = all(eps <= Fraction(r**5) for r, eps in norms if r > 0)
    check(
        7,
        slope_ok and linear_ok and eps_ok,
        f"p-slope {slope:.3f} <= 2, log-ball spread {spread:.3f} <= 0.10, "
        f"eps <= r^5: {eps_ok}",
    )


def test_criterion_8_enumeration_sanity(lamp18):
    ctx, index = lamp18
    sizes_ok = index.ball_size(1) == 4 and index.ball_size(2) == 10
    oracle = word_ball(ctx, 4)
    oracle_ok = len(oracle) == index.ball_size(4) and all(
        index.word_length(g) == dist for g, (dist, _) in oracle.items()
    )
    spheres_ok = all(
        len(index.sphere(r)) == index.ball_size(r) - index.ball_size(r - 1)
        for r in range(1, 19)
    )
    check(
        8,
        sizes_ok and oracle_ok and spheres_ok,
        f"balls(1,2)=({index.ball_size(1)},{index.ball_size(2)}), oracle r<=4 "
        f"match={oracle_ok}, sphere diffs={spheres_ok}",
    )
