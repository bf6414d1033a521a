"""Conjugacy invariants for the three families, plus a brute-force oracle.

Conjugating (x, t^p) by (c, t^j) gives (phi^j(x) + (1 - phi^p)(c), t^p),
so the t-exponent is invariant and the class of x in K is determined by
the image of K under (1 - phi^p) together with the phi-orbit.  Each family
admits an exact canonical form for that data:

* bs, p != 0: (1 - phi^p) Z[1/k] = (k^|p| - 1) Z[1/k] (the two differ by
  the unit -k^|p|), and Z[1/k] / (k^|p| - 1) = Z / (k^|p| - 1) because k
  is invertible there (k * k^(|p|-1) = k^|p| = 1).  The key is the minimum
  of the residue over its orbit under multiplication by k.
* bs, p = 0: conjugation only multiplies by powers of k, so the key is
  the numerator with all factors of k removed, sign preserved.
* lamplighter, p != 0: summing a configuration over each residue class of
  indices mod |p| kills (1 - phi^p) K exactly, and shifting rotates the
  |p| sums, so the key is the lexicographically least rotation.
* lamplighter, p = 0: the support-shifted normal form of the configuration.
* matrix, p != 0: coordinates in Z^n / (I - M^p) Z^n via the Smith form,
  minimized over the induced orbit of M (needs det(I - M^p) != 0, which
  holds whenever no eigenvalue of M is a root of unity).  The orbit is
  walked in quotient coordinates, one product by U M U^-1 and a reduction
  mod the Smith diagonal per step, until it returns to its start; the
  minimum is then memoised for every class of the orbit on the stratum's
  cached QuotientDescriptor, so each orbit is walked once per context.
* matrix, p = 0: the orbit M^i v is searched for |i| <= orbit_bound only,
  keeping candidates no larger than the current vector in sup-norm; the
  key is exact for spectra without unit-circle eigenvalues at this scale
  but is a bounded search by construction.  Each orbit point is computed
  once per key and shared by the re-centred windows that contain it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .enumeration import BallIndex, enumerate_ball
from .groups import (
    BaumslagSolitarContext,
    Element,
    GroupContext,
    LamplighterContext,
    MatrixContext,
)
from .linalg import (
    adjugate,
    det_int,
    identity_matrix,
    mat_mul,
    mat_sub,
    mat_vec,
    smith_normal_form,
    unimodular_inverse,
)
from .spectral import cyclotomic_orders

__all__ = [
    "conjugacy_key",
    "are_conjugate",
    "QuotientDescriptor",
    "matrix_quotient",
    "smith_normal_form",
    "UnionFind",
    "brute_force_partition",
    "DEFAULT_ORBIT_BOUND",
]

DEFAULT_ORBIT_BOUND = 64


# ---------------------------------------------------------------------------
# Matrix-family quotient descriptor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientDescriptor:
    """Z^n / (I - M^p) Z^n in diagonal coordinates.

    With U (I - M^p) V = diag, a vector w lies in (I - M^p) Z^n exactly
    when each coordinate of U w is divisible by the matching diagonal
    entry, so coords() is a complete residue invariant.

    M commutes with I - M^p, so it permutes the quotient.  In these
    coordinates it acts by action = U M U^-1 followed by reduction mod
    diag (step()).  orbit_min maps each class met so far to the least
    class of its M-orbit.
    """

    texp: int
    diag: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    left_inverse: tuple[tuple[int, ...], ...]
    action: tuple[tuple[int, ...], ...]
    orbit_min: dict = field(default_factory=dict, compare=False, repr=False)

    def coords(self, v) -> tuple[int, ...]:
        w = mat_vec(self.left, v)
        return tuple(x % d for x, d in zip(w, self.diag))

    def representative(self, coords) -> tuple[int, ...]:
        return mat_vec(self.left_inverse, coords)

    def step(self, coords) -> tuple[int, ...]:
        """coords(M v) for any v with coords(v) == coords."""
        w = mat_vec(self.action, coords)
        return tuple(x % d for x, d in zip(w, self.diag))

    @property
    def order(self) -> int:
        out = 1
        for d in self.diag:
            out *= d
        return out


def _unit_root_orders(ctx: MatrixContext) -> list[int]:
    cached = getattr(ctx, "_unit_root_orders", None)
    if cached is None:
        cached = cyclotomic_orders(ctx.matrix)
        ctx._unit_root_orders = cached
    return cached


def _require_conjugacy_support(ctx: MatrixContext) -> None:
    orders = _unit_root_orders(ctx)
    if orders:
        raise ValueError(
            f"conjugacy invariants are unavailable: M has root-of-unity "
            f"eigenvalues of orders {orders}"
        )


def matrix_quotient(ctx: MatrixContext, texp: int) -> QuotientDescriptor:
    """Quotient descriptor for the stratum of t-exponent texp != 0."""
    if texp == 0:
        raise ValueError("quotient is only defined for nonzero t-exponent")
    cache = getattr(ctx, "_quotient_cache", None)
    if cache is None:
        cache = ctx._quotient_cache = {}
    qd = cache.get(texp)
    if qd is not None:
        return qd
    d_mat = mat_sub(identity_matrix(ctx.n), ctx.matrix_power(texp))
    if det_int(d_mat) == 0:
        raise ValueError(
            f"I - M^{texp} is singular; the stratum has no finite quotient"
        )
    snf = smith_normal_form(d_mat)
    left_inverse = unimodular_inverse(snf.left)
    action = mat_mul(snf.left, mat_mul(ctx.matrix, left_inverse))
    qd = QuotientDescriptor(texp, snf.diag, snf.left, left_inverse, action)
    cache[texp] = qd
    return qd


def _matrix_orbit_min(qd: QuotientDescriptor, v) -> tuple[int, ...]:
    # lexicographic minimum of the induced M-orbit of v in the quotient;
    # M permutes the finite quotient, so the orbit is a cycle through start
    start = qd.coords(v)
    best = qd.orbit_min.get(start)
    if best is not None:
        return best
    orbit = [start]
    cur = qd.step(start)
    while cur != start:
        orbit.append(cur)
        cur = qd.step(cur)
    best = min(orbit)
    qd.orbit_min.update(dict.fromkeys(orbit, best))
    return best


def _matrix_shift_canonical(ctx: MatrixContext, v, bound: int) -> tuple[int, ...]:
    # minimize (sup-norm, lex) over the orbit window; the composite order
    # makes the result orbit-invariant whenever both endpoints see the
    # norm dip, which a hyperbolic M guarantees at these scales
    zero = ctx.kpart_zero()
    if v == zero:
        return zero
    # i -> (sup-norm, M^i v), computed once and shared by every window
    # that contains i; each window is scanned outwards from its centre,
    # so the neighbour a new point is computed from is always there
    ranks = {0: (max(map(abs, v)), v)}
    centre = 0
    while True:
        best, best_rank = centre, ranks[centre]
        for step in (1, -1):
            m = ctx.matrix_power(step)
            i = centre
            for _ in range(bound):
                i += step
                r = ranks.get(i)
                if r is None:
                    w = mat_vec(m, ranks[i - step][1])
                    r = ranks[i] = (max(map(abs, w)), w)
                if r < best_rank:
                    best, best_rank = i, r
        if best == centre:
            return best_rank[1]
        centre = best


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def _bs_residue(k: int, n: int, w) -> int:
    # class of w = num / k^e in Z[1/k] / (k^n - 1) = Z / (k^n - 1)
    num, e = w
    modulus = k**n - 1
    return num * pow(k, -e % n, modulus) % modulus


def _lamplighter_class_sums(ctx: LamplighterContext, n: int, conf) -> tuple:
    # lamp sums over each class of indices mod n: the class of conf in
    # K / (1 - phi^n) K
    sums = [0] * n
    for i, v in conf:
        sums[i % n] += v
    if ctx.m:
        return tuple(v % ctx.m for v in sums)
    return tuple(sums)


def _strip_factors(num: int, k: int) -> int:
    while num and num % k == 0:
        num //= k
    return num


def conjugacy_key(ctx: GroupContext, g: Element, orbit_bound: int = DEFAULT_ORBIT_BOUND):
    """Canonical, order-comparable conjugacy invariant (complete; see module doc)."""
    p = g.texp
    if isinstance(ctx, BaumslagSolitarContext):
        num = g.kpart[0]
        k = ctx.k
        if p == 0:
            return (0, _strip_factors(num, k))
        n = abs(p)
        modulus = k**n - 1
        if modulus == 1:
            return (p, 0)
        res = _bs_residue(k, n, g.kpart)
        best = res
        for _ in range(n - 1):
            res = res * k % modulus
            if res < best:
                best = res
        return (p, best)
    if isinstance(ctx, LamplighterContext):
        conf = g.kpart
        if p == 0:
            if not conf:
                return (0, ())
            base = conf[0][0]
            return (0, tuple((i - base, v) for i, v in conf))
        n = abs(p)
        sums = _lamplighter_class_sums(ctx, n, conf)
        return (p, min(sums[i:] + sums[:i] for i in range(n)))
    if isinstance(ctx, MatrixContext):
        _require_conjugacy_support(ctx)
        if p == 0:
            return (0, _matrix_shift_canonical(ctx, g.kpart, orbit_bound))
        return (p, _matrix_orbit_min(matrix_quotient(ctx, p), g.kpart))
    raise TypeError(f"unsupported context {type(ctx).__name__}")


def are_conjugate(
    ctx: GroupContext, g: Element, h: Element, orbit_bound: int = DEFAULT_ORBIT_BOUND
) -> bool:
    if g.texp != h.texp:
        return False
    return conjugacy_key(ctx, g, orbit_bound) == conjugacy_key(ctx, h, orbit_bound)


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

    def same(self, a, b) -> bool:
        return self.find(a) == self.find(b)

    def blocks(self) -> list[list]:
        by_root: dict = {}
        for x in self._parent:
            by_root.setdefault(self.find(x), []).append(x)
        return list(by_root.values())


# ---------------------------------------------------------------------------
# Brute-force partition
#
# The partition is the union-find closure of the pairs {g, x g x^-1} with
# g, x g x^-1 in S^r and x in S^RC.  Instead of sweeping every x, a pair
# (g, h) in a stratum p != 0 is tested by solving
#     (1 - phi^p)(b) = h.kpart - phi^j(g.kpart)
# for b at each |j| <= RC; the solution is unique, and the pair merges
# exactly when some solution (b, t^j) lies in S^RC.  This computes the same
# relation as the elementwise sweep.
#
# A solution exists exactly when h.kpart and phi^j(g.kpart) have the same
# residue in K / (1 - phi^p)K, so each stratum is bucketed by residue and g
# is solved only against the bucket of residue(phi^j(g.kpart)).  A skipped
# pair has no conjugator part at all, of any length, so skipping it leaves
# the relation unchanged.  The residues are the ones the keys use: the
# class mod k^|p| - 1 (bs), the class sums over indices mod |p| (lamplighter)
# and the Smith coordinates of the quotient (matrix).  A bucketed pair
# without a solution means residue and solver disagree, and raises.  The
# bucket hits of g are grouped by h, so that each pair stops at its first
# conjugator in S^RC and a pair already in one block is not solved at all.
#
# Each unordered pair is tested in one orientation: g against the elements
# before it in its stratum.  x g x^-1 = h exactly when x^-1 h x = g, and
# |x^-1| = |x| because the generating set is symmetric, so a conjugator in
# S^RC exists in one direction exactly when it exists in the other.
# ---------------------------------------------------------------------------


def _bs_block_solver(ctx: BaumslagSolitarContext, p: int):
    k = ctx.k
    n = abs(p)
    den = k**n - 1

    def residue(w):
        return _bs_residue(k, n, w)

    def solve(w):
        if p > 0:
            num, e = w
            num = -num
        else:
            num, e = ctx.phi_power(w, n)
        if num % den:
            return None
        return ctx.canonical_kpart((num // den, e))

    return residue, solve


def _lamplighter_block_solver(ctx: LamplighterContext, p: int):
    n = abs(p)
    norm = ctx._norm_value

    def residue(w):
        return _lamplighter_class_sums(ctx, n, w)

    def solve(w):
        if not w:
            return ()
        by_class: dict[int, list[tuple[int, int]]] = {}
        for i, v in w:
            by_class.setdefault(i % n, []).append((i, v))
        out = []
        for idxs in by_class.values():
            if p < 0:
                idxs = idxs[::-1]
            running = 0
            for (i, v), nxt in zip(idxs, idxs[1:] + [None]):
                running = norm(running + v)
                if nxt is None:
                    if running:
                        return None
                    break
                if running:
                    gap = abs(nxt[0] - i)
                    step = n if p > 0 else -n
                    out.extend((i + step * q, running) for q in range(gap // n))
        return tuple(sorted(out))

    return residue, solve


def _matrix_block_solver(ctx: MatrixContext, p: int):
    d_mat = mat_sub(identity_matrix(ctx.n), ctx.matrix_power(p))
    det = det_int(d_mat)
    if det == 0:
        raise ValueError(f"I - M^{p} is singular; no unique conjugator part")
    adj = adjugate(d_mat)

    def solve(w):
        raw = mat_vec(adj, w)
        if any(x % det for x in raw):
            return None
        return tuple(x // det for x in raw)

    return matrix_quotient(ctx, p).coords, solve


def _block_solver(ctx: GroupContext, p: int):
    """(residue, solve) for the stratum p != 0; see the comment above."""
    if isinstance(ctx, BaumslagSolitarContext):
        return _bs_block_solver(ctx, p)
    if isinstance(ctx, LamplighterContext):
        return _lamplighter_block_solver(ctx, p)
    if isinstance(ctx, MatrixContext):
        return _matrix_block_solver(ctx, p)
    raise TypeError(f"unsupported context {type(ctx).__name__}")


def _kpart_sub(ctx: GroupContext, a, b):
    return ctx.kpart_add(a, ctx.kpart_neg(b))


def brute_force_partition(
    ctx: GroupContext,
    index: BallIndex,
    r: int,
    conjugator_radius: int,
) -> list[list[Element]]:
    """Partition of S^r merged under conjugation by every element of S^RC.

    Sound by construction: merged pairs are genuinely conjugate.  Small
    conjugator radii may under-merge.
    """
    if conjugator_radius < r:
        raise ValueError(
            f"conjugator radius {conjugator_radius} is below the ball radius {r}"
        )
    if index.radius < r:
        raise ValueError(f"index radius {index.radius} does not cover radius {r}")
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
        residue, solve = _block_solver(ctx, p)
        buckets: dict = {}
        for g in els:
            # h -> the (j, phi^j(g.kpart)) whose residue h shares
            tries: dict[Element, list] = {}
            for j in span:
                moved = ctx.phi_power(g.kpart, j)
                for h in buckets.get(residue(moved), ()):
                    tries.setdefault(h, []).append((j, moved))
            root = uf.find(g)
            for h, shifts in tries.items():
                if uf.find(h) == root:
                    continue
                for j, moved in shifts:
                    b = solve(_kpart_sub(ctx, h.kpart, moved))
                    if b is None:
                        raise RuntimeError(
                            f"residue admits no conjugator part for "
                            f"{ctx.format_element(g)} and {ctx.format_element(h)}"
                        )
                    x = Element(b, j)
                    if x in big and big.word_length(x) <= conjugator_radius:
                        uf.union(g, h)
                        root = uf.find(g)
                        break
            buckets.setdefault(residue(g.kpart), []).append(g)

    blocks = [sorted(block, key=ctx.sort_key) for block in uf.blocks()]
    blocks.sort(key=lambda block: ctx.sort_key(block[0]))
    return blocks
