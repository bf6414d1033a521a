"""Conjugacy-class growth statistics over balls.

For each radius r the table records the ball and sphere sizes, the number
of conjugacy classes meeting the ball (cumulative) and the number first
reached at r (new), their ratios cr and scr, the size of the thin part
F(r) of the new-class sphere under a threshold function f, and the count
of ball elements whose geodesics can avoid more than f(r) t-type letters.

Each sphere is read stratum by stratum (BallIndex.strata), and only the
strata p >= 0 are keyed.  The generating set is symmetric, so inversion is
a bijection of each sphere, and it maps conjugacy classes onto conjugacy
classes, as (x g x^-1)^-1 = x g^-1 x^-1, and stratum p onto -p.  So for
p != 0 the inverse class C^-1 is not C and meets every sphere in as many
elements as C, and each new class of a stratum p > 0 is counted twice.  A
class of p = 0 can be its own inverse, so stratum 0 is keyed in full and
each of its classes counts once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import ceil, isqrt, log
from typing import Callable

from .enumeration import BallIndex
from .groups import GroupContext, parse_int

__all__ = [
    "RatioRow",
    "threshold_function",
    "ratio_table",
    "format_csv",
    "gnuplot_script",
    "CSV_HEADER",
]

CSV_HEADER = "r,ball,sphere,classes_cum,classes_new,cr,scr,F_size,F_classes,U_count"


@dataclass(frozen=True)
class RatioRow:
    r: int
    ball: int
    sphere: int
    classes_cum: int
    classes_new: int
    cr: float
    scr: float
    f_size: int
    f_classes: int
    u_count: int


def threshold_function(spec: str) -> Callable[[int], int]:
    """Threshold choices: sqrt -> ceil(sqrt(r)), log2 -> ceil(ln(r)^2),
    const:c -> the constant c."""
    if spec == "sqrt":
        return lambda r: 0 if r == 0 else isqrt(r - 1) + 1
    if spec == "log2":
        return lambda r: 0 if r == 0 else ceil(log(r) ** 2)
    if spec.startswith("const:"):
        c = parse_int(spec.split(":", 1)[1], f"constant threshold in {spec!r}")
        if c < 0:
            raise ValueError(f"threshold constant must be nonnegative, got {c}")
        return lambda r: c
    raise ValueError(f"unknown threshold spec {spec!r} (try sqrt, log2, const:c)")


def ratio_table(
    ctx: GroupContext, index: BallIndex, f: str = "sqrt"
) -> tuple[RatioRow, ...]:
    """One row per radius of the index, under the threshold spec f.

    Works stratum by stratum: keys only the strata p >= 0, each through one
    key function, and counts each new class of a stratum p > 0 twice, for
    its inverse class in -p (see the module doc).
    """
    bound_at = threshold_function(f)
    seen: set = set()  # the keys of the classes met so far
    classes_cum = 0
    # t_hist[m] counts ball elements whose geodesics need m t-letters
    t_hist: Counter = Counter()
    rows = []
    ball = 0
    for r in range(index.radius + 1):
        bound = bound_at(r)
        sphere = classes_new = f_size = f_classes = 0
        for p, stratum in index.strata(r).items():
            sphere += len(stratum)
            t_hist.update(stratum.values())
            if p < 0:
                continue
            # key -> sphere count, for the classes new at r
            hist = Counter(map(ctx.stratum_key(p), stratum))
            for key in seen.intersection(hist):
                del hist[key]
            seen.update(hist)
            weight = 2 if p else 1  # a class of p > 0 stands for C^-1 too
            small = [count for count in hist.values() if count <= bound]
            classes_new += weight * len(hist)
            f_classes += weight * len(small)
            f_size += weight * sum(small)
        ball += sphere
        u_count = sum(count for m, count in t_hist.items() if m <= bound)
        classes_cum += classes_new
        rows.append(
            RatioRow(
                r=r,
                ball=ball,
                sphere=sphere,
                classes_cum=classes_cum,
                classes_new=classes_new,
                cr=classes_cum / ball,
                scr=classes_new / sphere,
                f_size=f_size,
                f_classes=f_classes,
                u_count=u_count,
            )
        )
    return tuple(rows)


def format_csv(rows: tuple[RatioRow, ...]) -> str:
    """The table as CSV text; floats via repr, so it re-parses exactly."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{row.r},{row.ball},{row.sphere},{row.classes_cum},"
            f"{row.classes_new},{row.cr!r},{row.scr!r},{row.f_size},"
            f"{row.f_classes},{row.u_count}"
        )
    return "\n".join(lines) + "\n"


def gnuplot_script(csv_path: str) -> str:
    return "\n".join(
        [
            "set datafile separator ','",
            "set title 'class ratios'",
            "set logscale y",
            "set xlabel 'r'",
            "set key top right",
            f"plot '{csv_path}' using 1:6 with linespoints title 'cr', \\",
            f"     '{csv_path}' using 1:7 with linespoints title 'scr'",
            "",
        ]
    )
