"""Breadth-first enumeration of word-metric balls.

The index stores the spheres of the ball S^R, and per sphere the minimum
number of t letters over all geodesics of each of its elements (computed
layer by layer: an element at distance r minimizes over its distance r-1
predecessors).

BFS tests whether a candidate is already known against the two previous
layers only.  The generating set is symmetric (_set_kgens refuses a kernel
generator set without inverses, and t and t^-1 are both generators), so a
neighbour h = g s of g on sphere r-1 has g = h s^-1 with s^-1 a generator,
hence r-1 <= |h| + 1, and |h| is r-2, r-1 or r.  The index keeps each
sphere as the dict BFS built for it, element -> t-count: that one store
gives the sphere, its t-counts, membership (some sphere holds g) and word
length (the first sphere that holds g).

Each layer lists its elements in discovery order: by the earliest element
of the previous layer that reaches them, ties going to the generator that
comes first in ctx.generators().  The order follows from the previous
layer and the generator order alone, so no set or hash order enters it.

Candidates are probed as plain (kpart, texp) tuples, which hash and compare
like the Element NamedTuple, so an Element is built only for an element
met for the first time, and then from its probe tuple by tuple.__new__,
in C, without the NamedTuple's Python-level constructor.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, Optional

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

    Each sphere is the dict BFS built for it; membership and word_length
    ask the spheres in turn, and sphere and t_counts return copies.
    """

    def __init__(self, radius: int, layers):
        self.radius = radius
        self._layers = layers  # layers[r]: Element -> min t-count, in discovery order

    def __contains__(self, g: Element) -> bool:
        return any(g in layer for layer in self._layers)

    def __len__(self) -> int:
        return sum(map(len, self._layers))

    def word_length(self, g: Element, bound: Optional[int] = None) -> int:
        """|g|, or with a bound min(|g|, bound + 1), in one pass over the
        spheres up to the bound; the ball must cover the bound."""
        layers = self._layers
        if bound is not None:
            self._check_radius(bound)
            layers = layers[: bound + 1]
        for r, layer in enumerate(layers):
            if g in layer:
                return r
        if bound is None:
            raise KeyError(f"element outside the radius-{self.radius} ball: {g!r}")
        return bound + 1

    def _check_radius(self, r: int) -> None:
        if not 0 <= r <= self.radius:
            raise ValueError(f"radius {r} outside [0, {self.radius}]")

    def sphere(self, r: int) -> list[Element]:
        self._check_radius(r)
        return list(self._layers[r])

    def t_counts(self, r: int) -> list[int]:
        """Least t-letter count over the geodesics of each sphere(r) element."""
        self._check_radius(r)
        return list(self._layers[r].values())

    def ball_size(self, r: Optional[int] = None) -> int:
        if r is None:
            r = self.radius
        self._check_radius(r)
        return sum(len(self._layers[i]) for i in range(r + 1))

    def elements(self, max_radius: Optional[int] = None) -> Iterator[Element]:
        if max_radius is None:
            max_radius = self.radius
        self._check_radius(max_radius)
        return chain.from_iterable(self._layers[: max_radius + 1])


def enumerate_ball(
    ctx: GroupContext, radius: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> BallIndex:
    """Enumerate S^radius; raises ResourceCapError beyond element_cap elements."""
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
    new = tuple.__new__
    shifts_at: dict[int, list] = {}  # p -> [phi^p(d) for d in kgens]

    older: dict[Element, int] = {}  # sphere r-2: Element -> min_t
    last: dict[Element, int] = {identity: 0}  # sphere r-1
    layers = [last]
    size = 1
    for r in range(1, radius + 1):
        pending: dict[Element, int] = {}  # sphere r
        for g, min_t in last.items():
            a, p = g
            shifts = shifts_at.get(p)
            if shifts is None:
                shifts = shifts_at[p] = [phip(d, p) for d in kgens]
            for d in shifts:
                b = kadd(a, d)
                h = (b, p)
                if h in older or h in last:
                    continue
                seen = pending.get(h)
                if seen is None:
                    pending[new(Element, h)] = min_t
                elif min_t < seen:
                    pending[h] = min_t  # the key stays the Element stored first
            nt = min_t + 1
            for dt in tmoves:
                h = (a, p + dt)
                if h in older or h in last:
                    continue
                seen = pending.get(h)
                if seen is None:
                    pending[new(Element, h)] = nt
                elif nt < seen:
                    pending[h] = nt
        size += len(pending)
        if size > element_cap:
            raise ResourceCapError(
                f"ball exceeds the element cap ({element_cap}) at radius {r}"
            )
        layers.append(pending)
        older, last = last, pending
    return BallIndex(radius, layers)
