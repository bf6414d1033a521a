"""Breadth-first enumeration of word-metric balls.

The index stores the spheres of the ball S^R, and per sphere the minimum
number of t letters over all geodesics of each of its elements (computed
layer by layer: an element at distance r minimizes over its distance r-1
predecessors).

BFS tests whether a candidate is already known against the two previous
layers only.  The generating set is symmetric (_set_kgens refuses a kernel
generator set without inverses, and t and t^-1 are both generators), so a
neighbour h = g s of g on sphere r-1 has g = h s^-1 with s^-1 a generator,
hence r-1 <= |h| + 1, and |h| is r-2, r-1 or r.

Each sphere is kept by stratum, since conjugation keeps the t-exponent p
and every per-class count splits by p: a dict p -> {kpart: t-count} and
the list of the sphere's t-exponents.  The keys are bare K-parts, so BFS
builds no (kpart, p) pair and no Element.  That one store gives the
strata, the sphere, its t-counts, membership and word length (the first
sphere whose stratum p holds the K-part).

Each layer lists its elements in discovery order: by the earliest element
of the previous layer that reaches them, ties going to the generator that
comes first in ctx.generators().  The order follows from the previous
layer and the generator order alone, so no set or hash order enters it.
Each stratum lists its K-parts in that order, and the t-exponent list
names the stratum of each next element, so BFS walks the previous layer,
and sphere(r) rebuilds it, in discovery order.
"""

from __future__ import annotations

from itertools import chain
from types import MappingProxyType
from typing import Iterator, Mapping, Optional

from .groups import Element, GroupContext

__all__ = [
    "BallIndex",
    "enumerate_ball",
    "ResourceCapError",
    "DEFAULT_ELEMENT_CAP",
]

DEFAULT_ELEMENT_CAP = 50_000_000


class ResourceCapError(RuntimeError):
    """An explicit resource cap was hit; results were not truncated."""


class BallIndex:
    """Ball S^R as its spheres in discovery order, with per-sphere t-counts.

    Sphere r is kept as (strata, texps), as the module doc says; strata
    hands out read-only views, and sphere a fresh list of Elements.
    """

    def __init__(self, radius: int, layers):
        self.radius = radius
        self._layers = layers  # layers[r]: (p -> {kpart: min t-count}, texps)

    def __contains__(self, g: Element) -> bool:
        a, p = g
        return any(a in strata.get(p, ()) for strata, _ in self._layers)

    def __len__(self) -> int:
        return sum(len(texps) for _, texps in self._layers)

    def word_length(self, g: Element, bound: Optional[int] = None) -> int:
        """|g|, or with a bound min(|g|, bound + 1), in one pass over the
        spheres up to the bound; the ball must cover the bound."""
        layers = self._layers
        if bound is not None:
            self._check_radius(bound)
            layers = layers[: bound + 1]
        a, p = g
        for r, (strata, _) in enumerate(layers):
            if a in strata.get(p, ()):
                return r
        if bound is None:
            raise KeyError(f"element outside the radius-{self.radius} ball: {g!r}")
        return bound + 1

    def _check_radius(self, r: int) -> None:
        if not 0 <= r <= self.radius:
            raise ValueError(f"radius {r} outside [0, {self.radius}]")

    def strata(self, r: int) -> dict[int, Mapping]:
        """p -> kpart -> least t-count, for the elements of sphere(r) with
        t-exponent p, each stratum in discovery order."""
        self._check_radius(r)
        return {p: MappingProxyType(s) for p, s in self._layers[r][0].items()}

    def sphere(self, r: int) -> list[Element]:
        self._check_radius(r)
        strata, texps = self._layers[r]
        kparts = {p: iter(s) for p, s in strata.items()}
        new = tuple.__new__
        return [new(Element, (next(kparts[p]), p)) for p in texps]

    def ball_size(self, r: Optional[int] = None) -> int:
        if r is None:
            r = self.radius
        self._check_radius(r)
        return sum(len(self._layers[i][1]) for i in range(r + 1))

    def elements(self, max_radius: Optional[int] = None) -> Iterator[Element]:
        if max_radius is None:
            max_radius = self.radius
        self._check_radius(max_radius)
        return chain.from_iterable(map(self.sphere, range(max_radius + 1)))


def enumerate_ball(
    ctx: GroupContext, radius: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> BallIndex:
    """Enumerate S^radius; raises ResourceCapError beyond element_cap elements."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
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

    older: dict[int, dict] = {}  # sphere r-2: p -> {kpart: min_t}
    last: dict[int, dict] = {0: {ctx.identity.kpart: 0}}  # sphere r-1
    last_texps = [0]
    layers = [(last, last_texps)]
    size = 1
    for r in range(1, radius + 1):
        pending: dict[int, dict] = {}  # sphere r
        # p -> (stratum p of sphere r-1 in order, the shifted kernel gens,
        # strata p of spheres r-2, r-1 and r, and the same for q = p + dt)
        plans = {}
        for p, stratum in last.items():
            shifts = shifts_at.get(p)
            if shifts is None:
                shifts = shifts_at[p] = [phip(d, p) for d in kgens]
            near = [
                (q, older.get(q, ()), last.get(q, ()), pending.setdefault(q, {}))
                for q in [p] + [p + dt for dt in tmoves]
            ]
            plans[p] = (iter(stratum.items()), shifts, near[0][1:], near[1:])
        texps: list[int] = []
        append = texps.append
        for p in last_texps:
            items, shifts, (before, prev, here), moves = plans[p]
            a, min_t = next(items)
            for d in shifts:
                b = kadd(a, d)
                if b in before or b in prev:
                    continue
                seen = here.get(b)
                if seen is None:
                    here[b] = min_t
                    append(p)
                elif min_t < seen:
                    here[b] = min_t  # the key stays the K-part stored first
            nt = min_t + 1
            for q, q_before, q_prev, q_here in moves:
                if a in q_before or a in q_prev:
                    continue
                seen = q_here.get(a)
                if seen is None:
                    q_here[a] = nt
                    append(q)
                elif nt < seen:
                    q_here[a] = nt
        size += len(texps)
        if size > element_cap:
            raise ResourceCapError(
                f"ball exceeds the element cap ({element_cap}) at radius {r}"
            )
        pending = {q: stratum for q, stratum in pending.items() if stratum}
        layers.append((pending, texps))
        older, last, last_texps = last, pending, texps
    return BallIndex(radius, layers)
