"""Slow reference implementations used only by the tests.

Everything here recomputes results from first principles (raw generator
words, elementwise conjugation sweeps) or by the plain exhaustive loop a
fast path replaced (pairwise conjugator solving), so the fast code paths
have an independent answer to match.
"""

from __future__ import annotations

from abcgroups.conjugacy import UnionFind, _block_solver
from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import Element, GroupContext
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


def conjugation_sweep(
    ctx: GroupContext, elements, conjugators
) -> set[frozenset[bytes]]:
    """Partition of `elements` under single conjugation moves.

    Merges g with x g x^-1 whenever the conjugate lands back in the set,
    for every x in `conjugators`, then takes the transitive closure.
    """
    pool = list(elements)
    codes = {g: ctx.encode(g) for g in pool}
    inside = set(codes.values())
    parent: dict[bytes, bytes] = {c: c for c in codes.values()}

    def find(c: bytes) -> bytes:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for g in pool:
        for x in conjugators:
            h = ctx.conjugate(x, g)
            hc = ctx.encode(h)
            if hc in inside:
                ra, rb = find(codes[g]), find(hc)
                if ra != rb:
                    parent[rb] = ra
    blocks: dict[bytes, set[bytes]] = {}
    for c in codes.values():
        blocks.setdefault(find(c), set()).add(c)
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

    blocks = [sorted(block, key=ctx.encode) for block in uf.blocks()]
    blocks.sort(key=lambda block: ctx.encode(block[0]))
    return blocks
