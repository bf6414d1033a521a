"""Conjugacy invariants for the three families, plus a brute-force oracle.

Conjugating (x, t^p) by (c, t^j) gives (phi^j(x) + (1 - phi^p)(c), t^p),
so the t-exponent is invariant and, for p != 0, a class is a phi-orbit in
K / (1 - phi^p)K, which is K / (1 - phi^n)K for n = |p|: 1 - phi^-n is the
unit -phi^-n times 1 - phi^n.  As phi^n(x) - x lies in (1 - phi^n)K, phi^n
fixes that quotient, and every orbit is just the n images phi^j(x),
0 <= j < n.  Each family admits an exact canonical form for that data:

* bs, p != 0: (1 - phi^n) Z[1/k] = (k^n - 1) Z[1/k], and Z[1/k] / (k^n - 1)
  = Z / (k^n - 1) because k is invertible there (k * k^(n-1) = k^n = 1).
  The class of num / k^e is num k^-e, a power of k times num, so the key
  is the least residue of the orbit of num under multiplication by k.
  The stored K-part a = num k^(E - e) (groups) lies in that orbit too, so
  the key reads a mod k^n - 1 with no unpacking.
* bs, p = 0: conjugation only multiplies by powers of k, so the key is
  the numerator with all factors of k removed, sign preserved, which is
  the stored a with all its factors of k removed.
* lamplighter, p != 0: summing a configuration over each residue class of
  indices mod n kills (1 - phi^n) K exactly, and shifting rotates the n
  sums, so the key is the least rotation.  The stored K-part (groups) is
  one int, lamp i in field i + E; lifted by (-E) mod n fields, its blocks
  of n fields fold onto the lowest (xor for m = 2, the field add
  otherwise) into the n class sums, and phi rotates those n fields.
* lamplighter, p = 0: the support-shifted normal form of the configuration:
  the int shifted down until its lowest lit lamp sits at field 0.
* matrix, p != 0: coordinates adj(D) v mod |det D| in Z^n / D Z^n,
  D = I - M^|p| (adj D = det D * D^-1, so they are a complete residue),
  minimized over the |p| images M^j v (needs det D != 0, which
  holds whenever no eigenvalue of M is a root of unity).
* matrix, p = 0: the class is the orbit {M^i v}.  MatrixContext.convex_form
  is an integer symmetric P with P > 0 and C = M^T P M + M^-T P M^-1 - 2P
  > 0, both checked exactly.  For v != 0, f(i) = P(M^i v) has second
  difference f(i+1) + f(i-1) - 2 f(i) = (M^i v)^T C (M^i v), a positive
  integer, so at least 1.  Hence f(i) >= f(0) + i (f(1) - f(0)) + i(i-1)/2
  grows without bound in both directions, and f is strictly convex with
  its minimum attained at one i or at two adjacent ones.  A walk from v in
  the direction where f strictly drops lowers an integer that is bounded
  below on the orbit, so it stops there after finitely many steps.  The
  key is the lexicographically least minimiser: exact, with no bound and
  no assumption on the spectrum.  P is the tent sum of the Gram matrices
  G_i = (M^i)^T M^i with weights K - |i| over |i| < K, whose C is
  G_K + G_-K - 2I; the least K that makes it positive exists exactly when
  no eigenvalue lies on the unit circle, semisimple or not.  For an
  eigenvalue on the circle that is not a root of unity no such P exists,
  and the key raises ValueError, as it does past K = TENT_K_MAX.

Each family implements its quotient once: _build_quotient(n) returns
coords(w), the class of w in Q_n = K / (1 - phi^n)K, orbit(c), the n
classes of phi^j(w), 0 <= j < n, in order, from the class c of w, and
solve(w), the unique b with (1 - phi^n)(b) = w or None.
GroupContext.quotient(n) caches it for the strata +-n with one memo that
both share.  From it GroupContext builds the p != 0 key, the least class
of the orbit, memoised for every class of it; the oracle below reads the
quotient directly.  bs keeps its own p != 0 key, an inline loop with no
memo (see groups), and each family builds its p = 0 key.

GroupContext.stratum_key(p) returns a function kpart -> key of
(kpart, t^p), built on first use and cached on the context, that holds
what the stratum shares.  The matrix refusals, of a root-of-unity
eigenvalue, a singular stratum or a missing convex form, are made when
the function is built.  conjugacy_key(ctx, g), the one entry point per
element, applies the function of g's stratum, and a pass over many
elements of one stratum (ratios.ratio_table, folner.separating_translate)
fetches the function once and applies it to the K-parts directly.  Where
a closed form exists, each context also gives the conjugator lengths of
the oracle as word_length(g, bound); this module adds the entry point,
the union-find and the oracle.
"""

from __future__ import annotations

from typing import Iterable

from .enumeration import BallIndex
from .groups import Element, GroupContext

__all__ = [
    "conjugacy_key",
    "UnionFind",
    "brute_force_partition",
    "closed_form_lengths",
]


def conjugacy_key(ctx: GroupContext, g: Element):
    """Canonical, order-comparable conjugacy invariant (complete; see module doc)."""
    return ctx.stratum_key(g.texp)(g.kpart)


# ---------------------------------------------------------------------------
# Union-find
# ---------------------------------------------------------------------------


class UnionFind:
    """Disjoint sets over a fixed item collection, path halving plus size."""

    def __init__(self, items: Iterable):
        self._parent = {x: x for x in items}
        self._size = {x: 1 for x in self._parent}

    def find(self, x):
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]

    def blocks(self) -> list[list]:
        """The sets as lists, in item order.

        Blocks come in the order of their first member, and each block lists
        its members in the order the items were given.
        """
        by_root: dict = {}
        for x in self._parent:
            by_root.setdefault(self.find(x), []).append(x)
        return list(by_root.values())


# ---------------------------------------------------------------------------
# Brute-force partition
#
# The partition is the union-find closure of the pairs {g, x g x^-1} with
# g, x g x^-1 in S^r and x in S^RC.  Instead of sweeping every x, a pair
# (g, h) in a stratum p > 0 is tested by solving
#     (1 - phi^p)(b) = h.kpart - phi^j(g.kpart)
# for b at each |j| <= RC; the solution is unique, and the pair merges
# exactly when some solution (b, t^j) lies in S^RC.  This computes the same
# relation as the elementwise sweep.
#
# |(b, t^j)| <= RC is read off the family's closed-form word length when it
# has one (ctx.word_length: bs and the lamplighter with their standard
# generators), so the oracle needs only the ball S^r and, for these
# families, rests on that formula; tests/ checks it against BFS on whole
# balls.  Every other context looks the conjugator up in a ball that covers
# S^RC.  Either length is asked with the bound RC and returns
# min(|x|, RC + 1): the bs digit program starts from RC + 1 as its best
# candidate and stops once no walk can come in under it, and the ball
# decides |x| <= RC in one pass over its spheres up to RC.  The strata of
# S^r come from the index (BallIndex.strata), and p = 0 is probed with bare
# K-parts against the set of its stratum-0 K-parts.
#
# A solution exists exactly when h.kpart and phi^j(g.kpart) have the same
# residue in K / (1 - phi^p)K, so each stratum is bucketed by residue and g
# is solved only against the bucket of residue(phi^j(g.kpart)).  A skipped
# pair has no conjugator part at all, of any length, so skipping it leaves
# the relation unchanged.  The residues are the ones the keys use: the
# class mod k^p - 1 (bs), the class sums over indices mod p (lamplighter)
# and the adjugate coordinates of the quotient (matrix).  A bucketed pair
# without a solution means residue and solver disagree, and raises.  The
# residue of phi^j(g.kpart) depends only on j mod p (module doc), and the
# quotient's orbit lists the p of them from the residue of g.kpart alone:
# k^j times it mod k^p - 1 (bs), its class sums rotated j places
# (lamplighter), M^j times its coordinates mod |det D| (matrix).  The
# shifts j in [-RC, RC] are split by j mod p once per stratum, so g's
# residue at index i of that list is tried at the i-th class of shifts, in
# order of j, stopping at the first conjugator in S^RC.  The shift cache
# holds -phi^j(g.kpart), so each solve is solve(h.kpart + moved[j]); it is
# filled only at a shift where a pair is solved, negating once per shift of
# g, not once per pair tried.
#
# Each bucket keeps its members in groups, by the block root each member
# had at insertion; a group's members share one block then and forever, so
# one find per group skips every member in g's own block, and a pair
# already in one block is not solved at all.  After g merges with one
# member, the rest of that group lies in g's block too, and the group is
# not tried further.  Every member stays: two members of one block may
# need conjugators of different lengths to reach g.  Union order does not
# change UnionFind.blocks(), so the blocks and their order are those of the
# plain pairwise loop.
#
# Each unordered pair is tested in one orientation, g against the elements
# before it in its stratum, and only the strata p > 0 are solved.  The
# generating set is symmetric, so |x^-1| = |x| for every x, and
# x g x^-1 = h exactly when x^-1 h x = g and when x g^-1 x^-1 = h^-1: each
# merge (g, h) is also made as (g^-1, h^-1), mirroring stratum p onto -p.
# ratios.ratio_table counts the classes of p < 0 by the same fact.
# ---------------------------------------------------------------------------


def closed_form_lengths(ctx: GroupContext) -> bool:
    """Whether ctx.word_length gives exact lengths; without it the oracle
    reads conjugator lengths off a ball that covers the conjugator radius."""
    try:
        ctx.word_length(ctx.identity)
    except NotImplementedError:
        return False
    return True


def brute_force_partition(
    ctx: GroupContext,
    index: BallIndex,
    r: int,
    conjugator_radius: int,
) -> list[list[Element]]:
    """Partition of S^r merged under conjugation by every element of S^RC.

    Sound by construction: merged pairs are genuinely conjugate.  Small
    conjugator radii may under-merge.  The conjugator radius must cover r,
    and the index must cover r, or the conjugator radius when the context
    has no closed-form word length.
    """
    if conjugator_radius < r:
        raise ValueError(
            f"conjugator radius {conjugator_radius} is below the ball radius {r}"
        )
    closed = closed_form_lengths(ctx)
    needed = r if closed else conjugator_radius
    if index.radius < needed:
        raise ValueError(
            f"index radius {index.radius} does not cover the radius {needed} "
            f"the oracle needs"
        )
    length = ctx.word_length if closed else index.word_length

    ball = list(index.elements(r))
    uf = UnionFind(ball)
    find = uf.find
    strata: dict[int, list] = {}  # p -> the K-parts of stratum p, in ball order
    for s in range(r + 1):
        for p, stratum in index.strata(s).items():
            strata.setdefault(p, []).extend(stratum)

    rc = conjugator_radius
    new = tuple.__new__
    phip = ctx.phi_power
    kadd = ctx.kpart_add
    zero = strata.get(0, [])
    zero_set = set(zero)
    for a in zero:
        g = new(Element, (a, 0))
        for j in range(-rc, rc + 1):
            b = phip(a, j)
            if b in zero_set:
                uf.union(g, new(Element, (b, 0)))
    for p in range(1, r + 1):  # each stratum -p mirrors p by inversion
        coords, residues, solve, _ = ctx.quotient(p)
        # the shifts j in [-RC, RC] by j mod p, each class in order of j
        shift_classes = [range(-rc + (i + rc) % p, rc + 1, p) for i in range(p)]
        buckets: dict = {}  # residue -> {root at insertion: members}
        for a in strata.get(p, ()):
            g = new(Element, (a, p))
            orbit = residues(coords(a))
            moved: dict = {}  # j -> -phi^j(g.kpart), computed at its first solve
            root = find(g)
            for res, shifts in zip(orbit, shift_classes):
                for key, members in buckets.get(res, {}).items():
                    if find(key) == root:
                        continue
                    for h in members:
                        for j in shifts:
                            w = moved.get(j)
                            if w is None:
                                w = moved[j] = ctx.kpart_neg(phip(a, j))
                            b = solve(kadd(h.kpart, w))
                            if b is None:
                                raise RuntimeError(
                                    f"residue admits no conjugator part for "
                                    f"{ctx.format_element(g)} and "
                                    f"{ctx.format_element(h)}"
                                )
                            if length(new(Element, (b, j)), rc) <= rc:
                                break
                        else:
                            continue  # no shift reaches h within RC
                        # the whole group now lies in the block of g
                        uf.union(g, h)
                        uf.union(ctx.invert(g), ctx.invert(h))
                        root = find(g)
                        break
            buckets.setdefault(orbit[0], {}).setdefault(root, []).append(g)

    return uf.blocks()
