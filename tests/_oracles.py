"""Slow reference implementations used only by the tests.

Everything here recomputes results from first principles (raw generator
words, elementwise conjugation sweeps) or by the plain exhaustive loop a
fast path replaced (pairwise conjugator solving, step-by-step orbit
walks), so the fast code paths have an independent answer to match.
"""

from __future__ import annotations

from abcgroups.conjugacy import UnionFind, _block_solver, conjugacy_key
from abcgroups.enumeration import BallIndex, enumerate_ball
from abcgroups.groups import Element, GroupContext, MatrixContext
from abcgroups.words import generator_letters, letter_element


def word_ball(ctx: GroupContext, radius: int) -> dict[Element, tuple[int, int]]:
    """Map each element of the radius-ball to (distance, min t-letters).

    Grown one letter at a time over all geodesic prefixes.  Every geodesic
    has geodesic prefixes, so carrying the full set of (element, t-count)
    states at each exact distance is enough to minimize the t-count over
    all geodesics.
    """
    letters = [x for x in generator_letters(ctx) if x is not None]
    steps = [(letter_element(ctx, x), 1 if x in ("t", "T") else 0) for x in letters]
    best: dict[Element, tuple[int, int]] = {ctx.identity: (0, 0)}
    frontier = {(ctx.identity, 0)}
    for dist in range(1, radius + 1):
        nxt = set()
        for g, tcount in frontier:
            for step, tcost in steps:
                h = ctx.multiply(g, step)
                seen = best.get(h)
                if seen is not None and seen[0] < dist:
                    continue
                state = (h, tcount + tcost)
                if state in nxt:
                    continue
                nxt.add(state)
                if seen is None or state[1] < seen[1]:
                    best[h] = (dist, state[1])
        frontier = nxt
    return best


def lamplighter_word_length(ctx: GroupContext, g: Element) -> int:
    """Word length of g in the lamplighter group, in closed form.

    Cleary and Taback (Q. J. Math. 2005), after Parry (Trans. AMS 1992):
    each lamp of value v costs min(v, m - v) letters (|v| for integer
    lamps), and the cursor walks from 0 to the cursor position p past
    every lit lamp, turning once at the leftmost point l and once at the
    rightmost point r of {0, p, lit lamps}, whichever end it visits first.
    Holds for the default generators: the lamp at the cursor and t.
    """
    m = ctx.m
    lamps = sum(min(v, m - v) if m else abs(v) for _, v in g.kpart)
    p = g.texp
    points = [0, p, *(i for i, _ in g.kpart)]
    lo, hi = min(points), max(points)
    travel = min(-lo + (hi - lo) + (hi - p), hi + (hi - lo) + (p - lo))
    return lamps + travel


def conjugation_sweep(
    ctx: GroupContext, elements, conjugators
) -> set[frozenset[Element]]:
    """Partition of `elements` under single conjugation moves.

    Merges g with x g x^-1 whenever the conjugate lands back in the set,
    for every x in `conjugators`, then takes the transitive closure.
    """
    pool = list(elements)
    parent: dict[Element, Element] = {g: g for g in pool}

    def find(g: Element) -> Element:
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    for g in pool:
        for x in conjugators:
            h = ctx.conjugate(x, g)
            if h in parent:
                ra, rb = find(g), find(h)
                if ra != rb:
                    parent[rb] = ra
    blocks: dict[Element, set[Element]] = {}
    for g in pool:
        blocks.setdefault(find(g), set()).add(g)
    return {frozenset(v) for v in blocks.values()}


def pairwise_partition(
    ctx: GroupContext, index, r: int, conjugator_radius: int
) -> list[list[Element]]:
    """brute_force_partition without residue buckets.

    Solves for a conjugator of g to h for every pair (g, h) of a stratum,
    g listed first, at every |j| <= RC.  Blocks are sorted the same way.
    """
    big = index if index.radius >= conjugator_radius else enumerate_ball(
        ctx, conjugator_radius
    )
    ball = list(index.elements(r))
    ball_set = set(ball)
    uf = UnionFind(ball)
    strata: dict[int, list[Element]] = {}
    for g in ball:
        strata.setdefault(g.texp, []).append(g)

    span = range(-conjugator_radius, conjugator_radius + 1)
    for p, els in sorted(strata.items()):
        if p == 0:
            for g in els:
                for j in span:
                    h = Element(ctx.phi_power(g.kpart, j), 0)
                    if h in ball_set:
                        uf.union(g, h)
            continue
        _, solve = _block_solver(ctx, p)
        for i, g in enumerate(els):
            for h in els[i + 1 :]:
                if uf.same(g, h):
                    continue
                for j in span:
                    w = ctx.kpart_add(h.kpart, ctx.kpart_neg(ctx.phi_power(g.kpart, j)))
                    b = solve(w)
                    if b is None:
                        continue
                    x = Element(b, j)
                    if x in big and big.word_length(x) <= conjugator_radius:
                        uf.union(g, h)
                        break

    blocks = [sorted(block, key=ctx.sort_key) for block in uf.blocks()]
    blocks.sort(key=lambda block: ctx.sort_key(block[0]))
    return blocks


def sphere_class_histogram(ctx: GroupContext, index: BallIndex, r: int) -> dict:
    """Class key -> number of sphere-r elements carrying it."""
    out: dict = {}
    for g in index.sphere(r):
        key = conjugacy_key(ctx, g)
        out[key] = out.get(key, 0) + 1
    return out


def low_t_count(index: BallIndex, r: int, bound: int) -> int:
    """Number of elements of B^r with a geodesic using at most bound t-letters."""
    total = 0
    for rr in range(r + 1):
        for g in index.sphere(rr):
            if index.min_t_count(g) <= bound:
                total += 1
    return total


def matrix_orbit_min(ctx: MatrixContext, qd, v) -> tuple[int, ...]:
    """The matrix p != 0 key, walked one class at a time.

    Each step lifts the class to a vector, applies M and reduces again,
    and the walk stops at the first class it has seen; nothing is cached.
    """
    start = qd.coords(v)
    best = cur = start
    seen = {start}
    while True:
        cur = qd.coords(ctx.phi_power(qd.representative(cur), 1))
        if cur in seen:
            return best
        seen.add(cur)
        if cur < best:
            best = cur


def matrix_shift_canonical(ctx: MatrixContext, v, bound: int) -> tuple[int, ...]:
    """The matrix p = 0 key, recomputing every window from its centre.

    Minimizes (sup-norm, lex) over M^i cur for |i| <= bound, scanning
    i = 1..bound then -1..-bound with strict <, and re-centres at the
    winner until the centre itself wins.
    """
    zero = ctx.kpart_zero()
    if v == zero:
        return zero

    def rank(w):
        return (max(abs(x) for x in w), w)

    cur = v
    while True:
        best, best_rank = cur, rank(cur)
        for step in (1, -1):
            w = cur
            for _ in range(bound):
                w = ctx.phi_power(w, step)
                r = rank(w)
                if r < best_rank:
                    best, best_rank = w, r
        if best == cur:
            return cur
        cur = best
