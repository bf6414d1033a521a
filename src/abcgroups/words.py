"""Words over the standard generating set, and two canonical rewrites.

A word is a tuple of letters, the tokens "t", "T" (= t^-1), "g<i>" for
the i-th nonzero kernel generator and "G<i>" for its inverse.

Two word shapes matter here.  The staircase form

    T^p  u_0 t u_1 t ... t u_d  t^(m-q)

collects kernel letters level by level (u_i sits at t-level i-p, with
d = p+q covering every level that carries a letter) and never increases
length; applied to a geodesic it stays a geodesic.  For words of positive
t-exponent sum m, the ascending form

    u_0 t u_1 t ... u_{m-1} t

is reached from the staircase by repeatedly cutting the trailing block,
cyclically permuting it to the front and merging it into the block m
levels below; each such step conjugates the value and removes one t and
one T.
"""

from __future__ import annotations

import re

from .groups import Element, GroupContext

__all__ = [
    "parse_word",
    "format_word",
    "generator_letters",
    "letter_element",
    "evaluate",
    "t_exponent",
    "to_staircase",
    "cyclic_reduce",
]

_LETTER_RE = re.compile(r"^(t|T|[gG][0-9]+)$")


def parse_word(text: str) -> tuple[str, ...]:
    """Parse a whitespace-separated token string."""
    letters = tuple(text.split())
    for tok in letters:
        if not _LETTER_RE.match(tok):
            raise ValueError(f"bad word letter {tok!r}")
    return letters


def format_word(w: tuple[str, ...]) -> str:
    return " ".join(w)


def generator_letters(ctx: GroupContext) -> list[str]:
    """Letter token for each entry of ctx.generators()."""
    return [f"g{i}" for i in range(len(ctx.kgen_nonzero))] + ["t", "T"]


def letter_element(ctx: GroupContext, letter: str) -> Element:
    if letter == "t":
        return Element(ctx.kpart_zero(), 1)
    if letter == "T":
        return Element(ctx.kpart_zero(), -1)
    idx = int(letter[1:])
    if idx >= len(ctx.kgen_nonzero):
        raise ValueError(f"letter {letter!r} exceeds the {len(ctx.kgen_nonzero)} kernel generators")
    kpart = ctx.kgen_nonzero[idx]
    if letter[0] == "G":
        kpart = ctx.kpart_neg(kpart)
    return Element(kpart, 0)


def evaluate(ctx: GroupContext, w: tuple[str, ...]) -> Element:
    g = ctx.identity
    for letter in w:
        g = ctx.multiply(g, letter_element(ctx, letter))
    return g


def t_exponent(w: tuple[str, ...]) -> int:
    return sum(1 if x == "t" else -1 if x == "T" else 0 for x in w)


def _level_blocks(w: tuple[str, ...]) -> tuple[dict[int, list[str]], int, int, int]:
    """Kernel letters grouped by the t-level they act at, the net t-exponent,
    and the lowest and highest of level 0 and the levels with letters."""
    level = 0
    buckets: dict[int, list[str]] = {}
    for letter in w:
        if letter == "t":
            level += 1
        elif letter == "T":
            level -= 1
        else:
            buckets.setdefault(level, []).append(letter)
    return buckets, level, min((0, *buckets)), max((0, *buckets))


def to_staircase(w: tuple[str, ...]) -> tuple[str, ...]:
    """Rewrite into staircase form without increasing length.

    The value is unchanged.  Requires a nonnegative t-exponent sum.
    """
    buckets, m, lo, hi = _level_blocks(w)
    if m < 0:
        raise ValueError(f"t-exponent sum must be nonnegative, got {m}")
    letters: list[str] = ["T"] * (-lo)
    for level in range(lo, hi + 1):
        letters.extend(buckets.get(level, ()))
        if level < hi:
            letters.append("t")
    tail = m - hi
    letters.extend(["t"] * tail if tail >= 0 else ["T"] * (-tail))
    return tuple(letters)


def cyclic_reduce(w: tuple[str, ...]) -> tuple[str, ...]:
    """Reduce a word of positive t-exponent sum to ascending form.

    The output evaluates to a conjugate of the input value and is never
    longer; every merge step removes exactly two t-letters.
    """
    buckets, m, lo, hi = _level_blocks(w)
    if m <= 0:
        raise ValueError(f"t-exponent sum must be positive, got {m}")
    # Staircase blocks with the leading T^p rotated to the end, so the word
    # reads u_0 t u_1 t ... u_l t^(m-l) with l = hi - lo.
    blocks = [list(buckets.get(level, ())) for level in range(lo, hi + 1)]
    while len(blocks) - 1 > m:
        last = blocks.pop()
        blocks[-m] = last + blocks[-m]
    if len(blocks) - 1 == m:
        last = blocks.pop()
        blocks[0] = last + blocks[0]
    while len(blocks) < m:
        blocks.append([])
    letters: list[str] = []
    for block in blocks:
        letters.extend(block)
        letters.append("t")
    return tuple(letters)
