"""Breadth-first enumeration of word-metric balls.

The index stores, per element of the ball S^R: the word length and the
minimum number of t letters over all geodesics (computed layer by layer:
an element at distance r minimizes over its distance r-1 predecessors).
"""

from __future__ import annotations

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
    """Ball S^R with per-element word length and t-count."""

    def __init__(self, radius: int, records, layers):
        self.radius = radius
        self._records = records  # Element -> (dist, min_t)
        self._layers = layers  # layers[r]: list of Element, sorted by ctx.sort_key

    def __contains__(self, g: Element) -> bool:
        return g in self._records

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, g: Element):
        rec = self._records.get(g)
        if rec is None:
            raise KeyError(f"element outside the radius-{self.radius} ball: {g!r}")
        return rec

    def word_length(self, g: Element) -> int:
        return self._record(g)[0]

    def min_t_count(self, g: Element) -> int:
        return self._record(g)[1]

    def sphere(self, r: int) -> list[Element]:
        if not 0 <= r <= self.radius:
            raise ValueError(f"radius {r} outside [0, {self.radius}]")
        return list(self._layers[r])

    def ball_size(self, r: Optional[int] = None) -> int:
        if r is None:
            r = self.radius
        if not 0 <= r <= self.radius:
            raise ValueError(f"radius {r} outside [0, {self.radius}]")
        return sum(len(self._layers[i]) for i in range(r + 1))

    def elements(self, max_radius: Optional[int] = None) -> Iterator[Element]:
        top = self.radius if max_radius is None else max_radius
        for r in range(top + 1):
            yield from self._layers[r]


def enumerate_ball(
    ctx: GroupContext, radius: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> BallIndex:
    """Enumerate S^radius; raises ResourceCapError beyond element_cap elements."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    identity = ctx.identity
    kmoves = []  # (gen index, kernel part), shift cached per t-level
    tmoves = []  # +-1
    for idx, s in enumerate(ctx.generators()):
        if s.texp == 0:
            kmoves.append((idx, s.kpart))
        else:
            tmoves.append(s.texp)

    kadd = ctx.kpart_add
    phip = ctx.phi_power
    shift_cache: dict[tuple[int, int], object] = {}

    records: dict[Element, tuple[int, int]] = {identity: (0, 0)}
    layers: list[list[Element]] = [[identity]]
    for r in range(1, radius + 1):
        pending: dict[Element, int] = {}  # Element -> min_t
        for g in layers[r - 1]:
            a, p = g
            min_t = records[g][1]
            for idx, dk in kmoves:
                key = (idx, p)
                shifted = shift_cache.get(key)
                if shifted is None:
                    shifted = shift_cache[key] = phip(dk, p)
                h = Element(kadd(a, shifted), p)
                if h in records:
                    continue
                seen = pending.get(h)
                if seen is None or min_t < seen:
                    pending[h] = min_t
            for dt in tmoves:
                h = Element(a, p + dt)
                if h in records:
                    continue
                nt = min_t + 1
                seen = pending.get(h)
                if seen is None or nt < seen:
                    pending[h] = nt
        if len(records) + len(pending) > element_cap:
            raise ResourceCapError(
                f"ball exceeds the element cap ({element_cap}) at radius {r}"
            )
        layer = sorted(pending, key=ctx.sort_key)
        for h in layer:
            records[h] = (r, pending[h])
        layers.append(layer)
    return BallIndex(radius, records, layers)

