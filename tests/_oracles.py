"""Slow reference implementations used only by the tests.

Everything here recomputes results from first principles (raw generator
words, elementwise conjugation sweeps, geodesic words rebuilt from the
discovery order of the spheres) or by the plain exhaustive loop a fast
path replaced (BFS against a whole-ball dict, pairwise conjugator
solving, step-by-step orbit walks, whole-window orbit scans,
all-rotations keys, bs K-parts and key residues as Fractions, lamplighter
K-parts as (index, value) pairs with their merge, class sums, solver and
closed-form length, Fraction projection scans, a ratio table keyed on
both signs of p, the ratio and
spectral tables element by element over whole spheres, one multiply per
element for the Folner defects), so the fast code paths have an
independent answer to match.
Helpers that only tests call live here too: each sphere's t-counts in
sphere order (t_counts), element construction from a raw kernel part,
conjugation, are_conjugate, quotient representatives, integer kernel
bases, the decay fit of a ratio table, the bs congruence witnesses and
power windows, and the certificates of the p != 0 keys: each stratum's
key count against its Burnside count of classes, and a conjugator for
every key merge.  det_int and adjugate are the
Bareiss determinant and cofactor adjugate that the package's
Cayley-Hamilton adjugate, inverse, solve and singularity tests are checked
against, and leading_minors (Sylvester's criterion) checks its
positive-definiteness test.  smith_normal_form, the Smith normal form by
unimodular row and column operations, is the reference for
linalg.lattice_index and gives integer_kernel_basis; the package itself
has no Smith form.  mat_vec, the matrix-vector product as a sum over each
row, is the reference for the straight-line maps of linalg.linear_map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, log
from operator import mul
from typing import NamedTuple, Optional

from abcgroups.conjugacy import UnionFind, conjugacy_key
from abcgroups.enumeration import (
    DEFAULT_ELEMENT_CAP,
    BallIndex,
    ResourceCapError,
    enumerate_ball,
)
from abcgroups.folner import _require_bs
from abcgroups.groups import (
    BaumslagSolitarContext,
    Element,
    GroupContext,
    LamplighterContext,
    MatrixContext,
)
from abcgroups.linalg import Matrix, identity_matrix, linear_map, mat_mul, mat_sub
from abcgroups.ratios import RatioRow, threshold_function
from abcgroups.spectral import unit_root_projection
from abcgroups.words import generator_letters, letter_element


def mat_vec(a: Matrix, v) -> tuple:
    """a v, each entry the sum over a row; Fraction entries give Fractions."""
    return tuple([sum(map(mul, row, v)) for row in a])


def det_int(matrix: Matrix) -> int:
    """Fraction-free Bareiss elimination; exact for integer input."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            pivot = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
            if pivot is None:
                return 0
            a[t], a[pivot] = a[pivot], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def _cofactor_det(matrix: list[list[int]]) -> int:
    return det_int(tuple(tuple(row) for row in matrix))


def adjugate(matrix: Matrix) -> Matrix:
    """Transposed cofactor matrix; matrix @ adjugate == det * identity."""
    n = len(matrix)
    if n == 1:
        return ((1,),)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [matrix[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * _cofactor_det(minor)
    return tuple(tuple(row) for row in adj)


class SmithNormalForm(NamedTuple):
    """U A V = diag with U, V unimodular and diag a divisibility chain."""

    diag: tuple[int, ...]
    left: Matrix
    right: Matrix


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a, u, dst, src, q):
    # row_dst += q * row_src
    ad, asrc = a[dst], a[src]
    for c in range(len(ad)):
        ad[c] += q * asrc[c]
    ud, usrc = u[dst], u[src]
    for c in range(len(ud)):
        ud[c] += q * usrc[c]


def _add_col(a, v, dst, src, q):
    for row in a:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]


def smith_normal_form(matrix) -> SmithNormalForm:
    """Diagonalize an integer matrix over Z with unimodular transforms.

    Returns diag of length min(rows, cols) with nonnegative entries, each
    dividing the next, zeros at the end.
    """
    a = [list(int(x) for x in row) for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if any(len(row) != nc for row in a):
        raise ValueError("ragged matrix")
    u = [list(row) for row in identity_matrix(nr)]
    v = [list(row) for row in identity_matrix(nc)]

    def pivot_at(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        pos = pivot_at(t)
        if pos is None:
            break
        _swap_rows(a, u, t, pos[0])
        _swap_cols(a, v, t, pos[1])
        while True:
            # reduce the pivot column
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    _add_row(a, u, i, t, -q)
                    if a[i][t]:
                        _swap_rows(a, u, t, i)
                        dirty = True
            if dirty:
                continue
            # reduce the pivot row
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    _add_col(a, v, j, t, -q)
                    if a[t][j]:
                        _swap_cols(a, v, t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(a, u, t, offender, 1)
        if a[t][t] < 0:
            for c in range(nc):
                a[t][c] = -a[t][c]
            for c in range(nr):
                u[t][c] = -u[t][c]
        t += 1

    diag = tuple(a[i][i] for i in range(min(nr, nc)))
    return SmithNormalForm(
        diag,
        tuple(tuple(row) for row in u),
        tuple(tuple(row) for row in v),
    )


def integer_kernel_basis(matrix) -> tuple[tuple[int, ...], ...]:
    """Basis of the integer kernel {x : A x = 0}, from the Smith form of A."""
    snf = smith_normal_form(matrix)
    nc = len(snf.right)
    cols = []
    for idx in range(nc):
        d = snf.diag[idx] if idx < len(snf.diag) else 0
        if d == 0:
            cols.append(tuple(snf.right[r][idx] for r in range(nc)))
    return tuple(cols)


def element(ctx: GroupContext, kpart, texp: int = 0) -> Element:
    """The element with the canonical form of a raw kernel part."""
    return Element(ctx.canonical_kpart(kpart), texp)


def conjugate(ctx: GroupContext, x: Element, g: Element) -> Element:
    """x g x^-1."""
    return ctx.multiply(ctx.multiply(x, g), ctx.invert(x))


def quotient_representative(d_mat: Matrix, coords) -> tuple[int, ...]:
    """A vector w with adj(D) w = coords mod |det D|: D coords / det D.

    For coords = adj(D) w + |det D| c it is w +- D c, an integer vector.
    """
    det = det_int(d_mat)
    raw = mat_vec(d_mat, coords)
    assert all(x % det == 0 for x in raw)
    return tuple(x // det for x in raw)


def word_ball(ctx: GroupContext, radius: int) -> dict[Element, tuple[int, int]]:
    """Map each element of the radius-ball to (distance, min t-letters).

    Grown one letter at a time over all geodesic prefixes.  Every geodesic
    has geodesic prefixes, so carrying the full set of (element, t-count)
    states at each exact distance is enough to minimize the t-count over
    all geodesics.
    """
    steps = [
        (letter_element(ctx, x), 1 if x in ("t", "T") else 0)
        for x in generator_letters(ctx)
    ]
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


def whole_ball_bfs(
    ctx: GroupContext, radius: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[dict[Element, int], list[list[Element]], list[list[int]]]:
    """enumerate_ball with a whole-ball dict of known elements.

    Returns (records, layers, t_layers): records maps each ball element to
    its distance, and every candidate is tested against it rather than
    against the two previous layers.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    identity = ctx.identity
    kgens = []  # kernel parts of the kernel generators
    tmoves = []  # +-1
    for s in ctx.generators():
        if s.texp == 0:
            kgens.append(s.kpart)
        else:
            tmoves.append(s.texp)

    kadd = ctx.kpart_add
    phip = ctx.phi_power
    shifts_at: dict[int, list] = {}  # p -> [phi^p(d) for d in kgens]

    records: dict[Element, int] = {identity: 0}
    layers: list[list[Element]] = [[identity]]
    t_layers: list[list[int]] = [[0]]
    for r in range(1, radius + 1):
        pending: dict[Element, int] = {}  # Element -> min_t
        for g, min_t in zip(layers[r - 1], t_layers[r - 1]):
            a, p = g
            shifts = shifts_at.get(p)
            if shifts is None:
                shifts = shifts_at[p] = [phip(d, p) for d in kgens]
            for d in shifts:
                b = kadd(a, d)
                h = (b, p)
                if h in records:
                    continue
                seen = pending.get(h)
                if seen is None:
                    pending[Element(b, p)] = min_t
                elif min_t < seen:
                    pending[h] = min_t  # the key stays the Element stored first
            nt = min_t + 1
            for dt in tmoves:
                h = (a, p + dt)
                if h in records:
                    continue
                seen = pending.get(h)
                if seen is None:
                    pending[Element(a, p + dt)] = nt
                elif nt < seen:
                    pending[h] = nt
        if len(records) + len(pending) > element_cap:
            raise ResourceCapError(
                f"ball exceeds the element cap ({element_cap}) at radius {r}"
            )
        layer = list(pending)
        for h in layer:
            records[h] = r
        layers.append(layer)
        t_layers.append([pending[h] for h in layer])
    return records, layers, t_layers


def geodesic_words(
    ctx: GroupContext, index: BallIndex, radius: int
) -> dict[Element, tuple[str, ...]]:
    """A geodesic word for each element of the radius-ball, by the BFS's
    first-discovery rule.

    h on sphere r extends the word of the predecessor h s_i^-1 on sphere
    r-1 that comes first in sphere order, ties going to the lower generator
    index i, by the letter of s_i.
    """
    gens = ctx.generators()
    inverses = [ctx.invert(s) for s in gens]
    letters = generator_letters(ctx)
    words = {ctx.identity: ()}
    for r in range(1, radius + 1):
        position = {g: pos for pos, g in enumerate(index.sphere(r - 1))}
        for h in index.sphere(r):
            _, i, pred = min(
                (position[pred], i, pred)
                for i, inv in enumerate(inverses)
                if (pred := ctx.multiply(h, inv)) in position
            )
            words[h] = words[pred] + (letters[i],)
    return words


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
            h = conjugate(ctx, x, g)
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
    g listed first, at every |j| <= RC.  Every stratum p != 0 is solved in
    its own right, with no mirror by inversion: for p = -n the equation
    (1 - phi^-n) b = w is (1 - phi^n) b = -phi^n(w), given to the solver
    of quotient(n).  Blocks come in the same order, ball order by first
    member and within each block.
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
        n = abs(p)
        solve = ctx.quotient(n).solve
        for i, g in enumerate(els):
            for h in els[i + 1 :]:
                if uf.find(g) == uf.find(h):
                    continue
                for j in span:
                    w = ctx.kpart_add(h.kpart, ctx.kpart_neg(ctx.phi_power(g.kpart, j)))
                    if p < 0:
                        w = ctx.kpart_neg(ctx.phi_power(w, n))
                    b = solve(w)
                    if b is None:
                        continue
                    x = Element(b, j)
                    if x in big and big.word_length(x) <= conjugator_radius:
                        uf.union(g, h)
                        break

    return uf.blocks()


def sphere_class_histogram(ctx: GroupContext, index: BallIndex, r: int) -> dict:
    """Class key -> number of sphere-r elements carrying it."""
    out: dict = {}
    for g in index.sphere(r):
        key = conjugacy_key(ctx, g)
        out[key] = out.get(key, 0) + 1
    return out


def t_counts(index: BallIndex, r: int) -> list[int]:
    """Least t-letter count over the geodesics of each sphere(r) element,
    in sphere order, looked up element by element in the strata."""
    strata = index.strata(r)
    return [strata[p][a] for a, p in index.sphere(r)]


def t_count_map(index: BallIndex) -> dict[Element, int]:
    """Each ball element's least t-letter count, read off the sphere layers."""
    out: dict[Element, int] = {}
    for r in range(index.radius + 1):
        out.update(zip(index.sphere(r), t_counts(index, r)))
    return out


def low_t_count(index: BallIndex, r: int, bound: int) -> int:
    """Number of elements of B^r with a geodesic using at most bound t-letters."""
    total = 0
    for rr in range(r + 1):
        for m in t_counts(index, rr):
            if m <= bound:
                total += 1
    return total


def matrix_orbit_min(ctx: MatrixContext, n: int, v) -> tuple[int, ...]:
    """The matrix key of the strata p = +-n, walked one class at a time.

    Each step lifts the class to a vector, applies M and reduces again,
    and the walk stops at the first class it has seen; nothing is cached.
    """
    qd = ctx.quotient(n)
    d_mat = mat_sub(identity_matrix(ctx.n), ctx.matrix_power(n))
    start = qd.coords(v)
    best = cur = start
    seen = {start}
    while True:
        cur = qd.coords(ctx.phi_power(quotient_representative(d_mat, cur), 1))
        if cur in seen:
            return best
        seen.add(cur)
        if cur < best:
            best = cur


def bs_value(ctx: BaumslagSolitarContext, a) -> Fraction:
    """The element of Z[1/k] that the kpart a stands for, a / k^E."""
    return Fraction(a, ctx.k**ctx.reach)


def bs_class_residues(ctx: BaumslagSolitarContext, n: int, kpart) -> list[int]:
    """The classes of phi^j(w), 0 <= j < n, mod k^n - 1, from Fractions alone.

    phi^j(w) = w k^j is a Fraction (bs_value), made an integer by factors
    k^n, which are 1 mod k^n - 1, and then reduced, with no modular
    inverse.
    """
    k = ctx.k
    modulus = k**n - 1
    residues = []
    for j in range(n):
        value = bs_value(ctx, kpart) * k**j
        while value.denominator != 1:
            value *= k**n
        residues.append(int(value) % modulus)
    return residues


def bs_orbit_min(ctx: BaumslagSolitarContext, n: int, kpart) -> int:
    """The bs key residue of the strata p = +-n: the least of
    w k^j mod k^n - 1 over 0 <= j < n (bs_class_residues)."""
    return min(bs_class_residues(ctx, n, kpart))


def lamp_fields(ctx: LamplighterContext, x: int, count: int) -> tuple[int, ...]:
    """The count fields of ctx.width bits of x, lowest first, each the digit
    x mod 2^w taken in [0, 2^w) (m >= 2) or in [-2^(w-1), 2^(w-1)) (m = 0)."""
    size = 1 << ctx.width
    out = []
    for _ in range(count):
        x, digit = divmod(x, size)
        if not ctx.m and 2 * digit >= size:
            x, digit = x + 1, digit - size
        out.append(digit)
    assert x == 0, "bits above the fields"
    return tuple(out)


def lamp_pairs(ctx: LamplighterContext, a: int) -> tuple:
    """The packed K-part a as the sorted (index, value) pairs of its nonzero
    lamps: lamp i is field i + E, E = ctx.reach."""
    fields = lamp_fields(ctx, a, 2 * ctx.reach + 1)
    return tuple((f - ctx.reach, v) for f, v in enumerate(fields) if v)


def lamp_canonical(m: int, pairs) -> tuple:
    """The (index, value) pairs summed per index, sorted, zeros dropped."""
    acc: dict[int, int] = {}
    for i, v in pairs:
        acc[i] = acc.get(i, 0) + v
    out = ((i, v % m if m else v) for i, v in sorted(acc.items()))
    return tuple((i, v) for i, v in out if v)


def lamp_kpart_add(m: int, a: tuple, b: tuple) -> tuple:
    """The sum of two sorted pair tuples, merged lamp by lamp."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (ia, va), (ib, vb) = a[i], b[j]
        if ia < ib:
            out.append(a[i])
            i += 1
        elif ib < ia:
            out.append(b[j])
            j += 1
        else:
            v = (va + vb) % m if m else va + vb
            if v:
                out.append((ia, v))
            i += 1
            j += 1
    return tuple(out + list(a[i:]) + list(b[j:]))


def lamp_class_sums(m: int, n: int, conf: tuple) -> tuple[int, ...]:
    """The lamps of a pair tuple summed over each class of indices mod n."""
    sums = [0] * n
    for i, v in conf:
        sums[i % n] += v
    return tuple(v % m if m else v for v in sums)


def lamp_solve(m: int, n: int, w: tuple) -> Optional[tuple]:
    """The b with b_i - b_(i-n) = w_i, the running sum of w over the indices
    of each class mod n, or None when a class sum is not 0."""
    if not w:
        return ()
    values, sums, out = dict(w), [0] * n, []
    for i in range(w[0][0], w[-1][0] + 1):
        s = sums[i % n] + values.get(i, 0)
        sums[i % n] = s % m if m else s
        if sums[i % n]:
            out.append((i, sums[i % n]))
    return None if any(sums) else tuple(out)


def lamp_word_length(m: int, conf: tuple, p: int) -> int:
    """The closed-form length of (conf, t^p) on pair tuples: each lamp costs
    min(v, m - v) (|v| when m = 0), plus a walk over the hull of 0, p and
    the lit lamps."""
    lamps = sum(min(v, m - v) if m else abs(v) for _, v in conf)
    ends = [0, p] + [i for i, _ in conf]
    return lamps + 2 * (max(ends) - min(ends)) - abs(p)


def lamplighter_rotation_key(ctx: LamplighterContext, g: Element):
    """The lamplighter p != 0 key, building every rotation of the class sums.

    Sums the lamps over each index class mod |p|, reduces mod m, packs
    each of the |p| rotations sums[i:] + sums[:i] with sums[r] at field r,
    and takes the least.
    """
    n = abs(g.texp)
    sums = lamp_class_sums(ctx.m, n, lamp_pairs(ctx, g.kpart))
    rotations = (sums[i:] + sums[:i] for i in range(n))
    return (
        g.texp,
        min(sum(v << ctx.width * r for r, v in enumerate(rot)) for rot in rotations),
    )


def burnside_count(ctx: GroupContext, n: int) -> int:
    """C(n), the number of phi-orbits on Q_n = K / (1 - phi^n)K, n >= 1.

    phi^n fixes Q_n, so <phi> acts as a cyclic group of order n, and
    Burnside's lemma counts its orbits as (1/n) sum_(d|n) totient(n/d)
    |Fix phi^d|, where |Fix phi^d| = |K / (1 - phi^d)K| is k^d - 1 (bs:k),
    m^d (lamplighter:m, m >= 2) or |det(I - M^d)| (a matrix).  The counts
    are read off the family's parameters, not off the package's quotient.
    """

    def fixed(d: int) -> int:
        if ctx.family == "bs":
            return ctx.k**d - 1
        if ctx.family == "lamplighter":
            assert ctx.m, "lamplighter:0 has infinite quotients"
            return ctx.m**d
        size = abs(det_int(mat_sub(identity_matrix(ctx.n), ctx.matrix_power(d))))
        assert size, f"I - M^{d} is singular: Q_{n} is infinite"
        return size

    def totient(q: int) -> int:
        return sum(1 for i in range(1, q + 1) if gcd(i, q) == 1)

    total = sum(totient(n // d) * fixed(d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def stratum_census(ctx: GroupContext, index: BallIndex, r: int) -> dict:
    """p -> (the distinct stratum_key(p) values of stratum p in B^r, C(|p|))
    for each stratum p != 0 of the ball."""
    strata: dict[int, list] = {}
    for s in range(r + 1):
        for p, stratum in index.strata(s).items():
            strata.setdefault(p, []).extend(stratum)
    return {
        p: (len(set(map(ctx.stratum_key(p), kparts))), burnside_count(ctx, abs(p)))
        for p, kparts in strata.items()
        if p
    }


def witness_merges(ctx: GroupContext, index: BallIndex, r: int) -> int:
    """Certify every key merge of the strata p != 0 of B^r; the merge count.

    For each key class, its first member g0 and each other member h, j is
    the place of h's residue in the quotient's orbit of g0, and x = (b, t^j)
    with (1 - phi^p)(b) = h - phi^j(g0), which p < 0 solves as
    (1 - phi^n)(b) = -phi^n(h - phi^j(g0)), n = |p|, since
    1 - phi^-n = -phi^-n (1 - phi^n).  x g0 x^-1 = h is then checked with
    multiply and invert alone, so a wrong residue can fail the search but
    cannot certify a false merge.
    """
    classes: dict = {}  # key -> the members of its class, in ball order
    for g in index.elements(r):
        if g.texp:
            classes.setdefault(conjugacy_key(ctx, g), []).append(g)
    merges = 0
    for (p, _), (g0, *rest) in classes.items():
        n = abs(p)
        q = ctx.quotient(n)
        orbit = q.orbit(q.coords(g0.kpart))
        for h in rest:
            j = orbit.index(q.coords(h.kpart))
            w = ctx.kpart_add(h.kpart, ctx.kpart_neg(ctx.phi_power(g0.kpart, j)))
            if p < 0:
                w = ctx.kpart_neg(ctx.phi_power(w, n))
            b = q.solve(w)
            assert b is not None, f"no conjugator part for {g0} and {h}"
            x = Element(b, j)
            assert conjugate(ctx, x, g0) == h, f"{x} does not conjugate {g0} to {h}"
            merges += 1
    return merges


def matrix_shift_canonical(ctx: MatrixContext, v) -> tuple[int, ...]:
    """A bounded p = 0 orbit search, the partition reference for the key.

    Minimizes (sup-norm, lex) over M^i cur for |i| <= 64, scanning
    i = 1..64 then -1..-64 with strict <, and re-centres at the winner
    until the centre itself wins.  Nothing certifies it, but it shares no
    code with the convex form, so equal partitions check both.
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
            for _ in range(64):
                w = ctx.phi_power(w, step)
                r = rank(w)
                if r < best_rank:
                    best, best_rank = w, r
        if best == cur:
            return cur
        cur = best


def leading_minors(matrix: Matrix) -> list[int]:
    """det of each leading principal k x k block, k = 1..n, by Bareiss."""
    return [
        det_int(tuple(row[:k] for row in matrix[:k])) for k in range(1, len(matrix) + 1)
    ]


def matrix_form_minimum(ctx: MatrixContext, v) -> tuple[int, ...]:
    """The matrix p = 0 key under the convex form, by a plain orbit scan.

    Checks on its own that P = ctx.convex_form and
    C = M^T P M + M^-T P M^-1 - 2P have every leading minor > 0, then
    returns the w with the least (P(w), w) over w = M^i v for |i| <= 64;
    no descent and no re-centring.
    """
    p = ctx.convex_form
    m, inv = ctx.matrix, ctx.matrix_power(-1)
    ahead = mat_mul(tuple(zip(*m)), mat_mul(p, m))
    back = mat_mul(tuple(zip(*inv)), mat_mul(p, inv))
    c = tuple(
        tuple(x + y - 2 * z for x, y, z in zip(ra, rb, rp))
        for ra, rb, rp in zip(ahead, back, p)
    )
    assert all(minor > 0 for minor in leading_minors(p))
    assert all(minor > 0 for minor in leading_minors(c))

    def height(w):
        return sum(x * y for x, y in zip(w, mat_vec(p, w)))

    orbit = [v]
    for step in (1, -1):
        w = v
        for _ in range(64):
            w = ctx.phi_power(w, step)
            orbit.append(w)
    return min((height(w), w) for w in orbit)[1]


def epsilon_norm_reference(
    ctx: MatrixContext, index: BallIndex
) -> list[tuple[int, Fraction]]:
    """epsilon_norm_table in Fraction arithmetic: the projection applied to
    each kernel element of S^r entry by entry, the largest |entry| kept
    cumulatively in r."""
    proj = unit_root_projection(ctx)
    rows = []
    best = Fraction(0)
    for r in range(index.radius + 1):
        for g in index.sphere(r):
            if g.texp != 0:
                continue
            for row in proj:
                entry = sum((x * y for x, y in zip(row, g.kpart)), Fraction(0))
                best = max(best, abs(entry))
        rows.append((r, best))
    return rows


def relative_growth_table_by_sphere(
    ctx: MatrixContext, index: BallIndex
) -> list[tuple[int, int, int]]:
    """relative_growth_table over whole spheres of Elements, each element's
    t-exponent tested on its own."""
    period_map = ctx.power_map(lcm(*ctx.unit_root_orders))
    rows = []
    ball = 0
    inside = 0
    for r in range(index.radius + 1):
        sphere = index.sphere(r)
        ball += len(sphere)
        for g in sphere:
            if g.texp == 0 and period_map(g.kpart) == g.kpart:
                inside += 1
        rows.append((r, ball, inside))
    return rows


def epsilon_norm_table_by_sphere(
    ctx: MatrixContext, index: BallIndex
) -> list[tuple[int, Fraction]]:
    """epsilon_norm_table over whole spheres of Elements, each element's
    t-exponent tested on its own."""
    proj = unit_root_projection(ctx)
    den = lcm(*(x.denominator for row in proj for x in row))
    project = linear_map(tuple(tuple(int(x * den) for x in row) for row in proj))
    rows = []
    best = 0
    for r in range(index.radius + 1):
        for g in index.sphere(r):
            if g.texp != 0:
                continue
            norm = max(map(abs, project(g.kpart)))
            if norm > best:
                best = norm
        rows.append((r, Fraction(best, den)))
    return rows


def ratio_table_by_sphere(
    ctx: GroupContext, index: BallIndex, f: str = "sqrt"
) -> tuple[RatioRow, ...]:
    """ratio_table element by element over whole spheres: each element with
    p >= 0 keyed on its own, a class of p > 0 counted twice, and the
    t-count histogram grown one t-count at a time."""
    bound_at = threshold_function(f)
    seen: set = set()
    classes_cum = 0
    t_hist: dict[int, int] = {}
    rows = []
    ball = 0
    for r in range(index.radius + 1):
        sphere = index.sphere(r)
        ball += len(sphere)
        # (key, weight) -> sphere count; a class of p > 0 weighs 2, for C^-1
        new_hist: dict = {}
        for a, p in sphere:
            if p >= 0:
                entry = (ctx.stratum_key(p)(a), 2 if p else 1)
                if entry not in seen:
                    new_hist[entry] = new_hist.get(entry, 0) + 1
        for m in t_counts(index, r):
            t_hist[m] = t_hist.get(m, 0) + 1
        seen.update(new_hist)
        bound = bound_at(r)
        u_count = sum(count for m, count in t_hist.items() if m <= bound)
        classes_new = sum(w for _, w in new_hist)
        classes_cum += classes_new
        f_classes = sum(w for (_, w), c in new_hist.items() if c <= bound)
        f_size = sum(w * c for (_, w), c in new_hist.items() if c <= bound)
        rows.append(
            RatioRow(
                r=r,
                ball=ball,
                sphere=len(sphere),
                classes_cum=classes_cum,
                classes_new=classes_new,
                cr=classes_cum / ball,
                scr=classes_new / len(sphere),
                f_size=f_size,
                f_classes=f_classes,
                u_count=u_count,
            )
        )
    return tuple(rows)


def full_ratio_table(
    ctx: GroupContext, index: BallIndex, f: str = "sqrt"
) -> tuple[RatioRow, ...]:
    """ratio_table with a key for every ball element, both signs of p."""
    bound_at = threshold_function(f)
    seen_keys: set = set()
    # t_hist[m] counts ball elements whose geodesics need m t-letters
    t_hist: dict[int, int] = {}
    rows = []
    ball = 0
    for r in range(index.radius + 1):
        sphere = index.sphere(r)
        ball += len(sphere)
        new_hist: dict = {}
        for g in sphere:
            key = conjugacy_key(ctx, g)
            if key not in seen_keys:
                new_hist[key] = new_hist.get(key, 0) + 1
        for m in t_counts(index, r):
            t_hist[m] = t_hist.get(m, 0) + 1
        seen_keys.update(new_hist)
        bound = bound_at(r)
        u_count = sum(count for m, count in t_hist.items() if m <= bound)
        f_classes = sum(1 for c in new_hist.values() if c <= bound)
        f_size = sum(c for c in new_hist.values() if c <= bound)
        rows.append(
            RatioRow(
                r=r,
                ball=ball,
                sphere=len(sphere),
                classes_cum=len(seen_keys),
                classes_new=len(new_hist),
                cr=len(seen_keys) / ball,
                scr=len(new_hist) / len(sphere),
                f_size=f_size,
                f_classes=f_classes,
                u_count=u_count,
            )
        )
    return tuple(rows)


def right_defect_elementwise(ctx: GroupContext, elements, x: Element) -> Fraction:
    """|Fx sym-diff F| / |F| by one multiply per element of F, the loop that
    folner.right_defect's layer-by-layer pass replaced."""
    elems = frozenset(elements)
    moved = sum(1 for e in elems if ctx.multiply(e, x) not in elems)
    return Fraction(2 * moved, len(elems))


def left_defect_elementwise(ctx: GroupContext, elements, x: Element) -> Fraction:
    """|xF sym-diff F| / |F| by one multiply per element of F."""
    elems = frozenset(elements)
    moved = sum(1 for e in elems if ctx.multiply(x, e) not in elems)
    return Fraction(2 * moved, len(elems))


def are_conjugate(ctx: GroupContext, g: Element, h: Element) -> bool:
    if g.texp != h.texp:
        return False
    return conjugacy_key(ctx, g) == conjugacy_key(ctx, h)


class DecayFit(NamedTuple):
    cr_constant: float
    scr_constant: float
    rows_used: int


def decay_fit(table: tuple[RatioRow, ...]) -> DecayFit:
    """Least constants C with cr(r) <= C log(r)/r and likewise for scr,
    over the rows with r >= 3."""
    rows = [row for row in table if row.r >= 3]
    if len(rows) < 4:
        raise ValueError(
            f"decay fit needs at least 4 rows with r >= 3, got {len(rows)}"
        )
    cr_c = max(row.cr * row.r / log(row.r) for row in rows)
    scr_c = max(row.scr * row.r / log(row.r) for row in rows)
    return DecayFit(cr_c, scr_c, len(rows))


def congruence_witness(
    ctx: GroupContext, a: int, b: int, n: int
) -> Optional[int]:
    """Least m in [0, n) with k^m a = b mod k^n - 1, or None.

    None certifies (a, t^n) and (b, t^n) are not conjugate; the converse
    holds as well because k has multiplicative order n mod k^n - 1.
    """
    ctx = _require_bs(ctx)
    if n < 1:
        raise ValueError(f"the exponent n must be at least 1, got {n}")
    modulus = ctx.k**n - 1
    if modulus == 1:
        return 0
    cur = a % modulus
    target = b % modulus
    for m in range(n):
        if cur == target:
            return m
        cur = cur * ctx.k % modulus
    return None


def window_nonempty(ctx: GroupContext, a: int, b: int, n: int) -> bool:
    """Whether some power k^j lies in [(k^n - 1 + b)/a, k^n b / (k^n - 1 + a)].

    For k^n - 1 > max(a, b) and b/a not a power of k, any witness for the
    congruence forces its power into this interval, so an empty window
    rules the exponent n out.
    """
    ctx = _require_bs(ctx)
    if a < 1 or b < 1:
        raise ValueError(f"window bounds need positive entries, got {a}, {b}")
    if n < 1:
        raise ValueError(f"the exponent n must be at least 1, got {n}")
    k = ctx.k
    lower = Fraction(k**n - 1 + b, a)
    upper = Fraction(k**n * b, k**n - 1 + a)
    if lower > upper:
        return False
    power = Fraction(1)
    while power < lower:
        power *= k
    while power / k >= lower:
        power /= k
    return power <= upper


def _strip_k(value: int, k: int) -> int:
    while value % k == 0:
        value //= k
    return value


@dataclass(frozen=True)
class CongruenceSolutions:
    a: int
    b: int
    n_max: int
    solutions: tuple[int, ...]
    window_limit: int


def finite_n_solutions(
    ctx: GroupContext, a: int, b: int, n_max: int
) -> CongruenceSolutions:
    """All exponents n <= n_max whose congruence has a witness, plus the
    largest n whose power window is nonempty (0 when every window is empty).

    Beyond both bounds no further solutions exist, which is the finiteness
    statement being exercised.
    """
    ctx = _require_bs(ctx)
    if a < 1 or b < 1:
        raise ValueError(f"need positive entries, got {a}, {b}")
    k = ctx.k
    if _strip_k(a, k) == _strip_k(b, k):
        raise ValueError(
            f"{b}/{a} is a power of {k}; every exponent admits a witness"
        )
    solutions = tuple(
        n for n in range(1, n_max + 1) if congruence_witness(ctx, a, b, n) is not None
    )
    # the window edges cross like k^2n versus k^n; once the interval is
    # empty past the vertex of (x - 1 + a)(x - 1 + b) - abx in x = k^n it
    # stays empty for every larger n
    vertex_doubled = a * b + 2 - a - b
    limit = 0
    n = 1
    while True:
        k_n = k**n
        if Fraction(k_n - 1 + b, a) <= Fraction(k_n * b, k_n - 1 + a):
            if window_nonempty(ctx, a, b, n):
                limit = n
        elif 2 * k_n >= vertex_doubled:
            break
        n += 1
    return CongruenceSolutions(a, b, n_max, solutions, limit)
