"""Right-Folner boxes for the bs family and the translated-box experiment.

The box F_n = {(b k^-n, t^p) : 0 <= b < k^{3n}, 0 <= p < n} has right
translation defects O(1/n) + O(k^-n) while left multiplication by t
rescales every K-part and destroys a fixed proportion of the set, so the
sequence is right-Folner but not left-Folner.  Translating F_n on the
left by a suitable g makes every element lie in its own conjugacy class,
which keeps the conjugacy-to-size ratio of the translated boxes at 1.

The separating translate g = t^{n1} (L, 1) t^{n2} is found by search:
n2 clears all denominators of A, L = 2 max|k^{n2} a_i| + 1 shifts the
cleared K-parts to positive values with no power-of-k quotients among
them (for the nonnegative K-parts used here), and n1 grows until the
conjugacy keys of gA are pairwise distinct.  Only finitely many moduli
k^N - 1 can fuse a fixed pair with distinct such K-parts, so the search
terminates; a candidate cap guards it anyway.  A candidate is dropped at
its first repeated key, since two equal keys already prove two elements
of gA conjugate; only the accepted candidate has every key computed, and
that single pass also gives the class count of the translated box.

Right defects are computed once per inverse pair of generators:
|F x^-1 sym-diff F| = |(F sym-diff F x) x^-1| = |F sym-diff F x|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .conjugacy import conjugacy_key
from .enumeration import ResourceCapError
from .groups import BaumslagSolitarContext, Element, GroupContext
from .words import generator_letters

__all__ = [
    "FolnerBox",
    "folner_box",
    "right_defect",
    "left_defect",
    "SeparatingTranslate",
    "separating_translate",
    "TranslateReport",
    "translate_experiment",
    "DEFAULT_BOX_CAP",
    "N1_SEARCH_CAP",
]

DEFAULT_BOX_CAP = 5_000_000
N1_SEARCH_CAP = 512


@dataclass(frozen=True)
class FolnerBox:
    elements: frozenset

    @property
    def size(self) -> int:
        return len(self.elements)


def _require_bs(ctx: GroupContext) -> BaumslagSolitarContext:
    if not isinstance(ctx, BaumslagSolitarContext):
        raise ValueError(
            f"box construction needs a bs context, got {type(ctx).__name__}"
        )
    return ctx


def folner_box(
    ctx: GroupContext, n: int, element_cap: int = DEFAULT_BOX_CAP
) -> FolnerBox:
    """The box of n t-layers on the grid k^-n Z, width k^{3n}."""
    ctx = _require_bs(ctx)
    if n < 1:
        raise ValueError(f"box parameter must be at least 1, got {n}")
    k = ctx.k
    width = k ** (3 * n)
    if n * width > element_cap:
        raise ResourceCapError(
            f"box size {n * width} exceeds the cap {element_cap}"
        )
    elements = frozenset(
        Element(ctx.canonical_kpart((b, n)), p)
        for b in range(width)
        for p in range(n)
    )
    return FolnerBox(elements)


def _element_set(collection) -> frozenset:
    if isinstance(collection, FolnerBox):
        return collection.elements
    out = frozenset(collection)
    if not out:
        raise ValueError("defects need a nonempty set")
    return out


def right_defect(ctx: GroupContext, collection, x: Element) -> Fraction:
    """|Fx symmetric-difference F| / |F|, exactly."""
    elems = _element_set(collection)
    moved = sum(1 for e in elems if ctx.multiply(e, x) not in elems)
    # |Fx| = |F|, so the symmetric difference is twice the escaped part
    return Fraction(2 * moved, len(elems))


def left_defect(ctx: GroupContext, collection, x: Element) -> Fraction:
    elems = _element_set(collection)
    moved = sum(1 for e in elems if ctx.multiply(x, e) not in elems)
    return Fraction(2 * moved, len(elems))


# ---------------------------------------------------------------------------
# Separating translate and the translated-box experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeparatingTranslate:
    element: Element
    n1: int
    n2: int
    shift: int
    classes: int


def separating_translate(
    ctx: GroupContext, collection: Iterable[Element], n1_cap: int = N1_SEARCH_CAP
) -> SeparatingTranslate:
    """A left translate g with every element of gA in its own class.

    g = t^{n1} (shift, 1) t^{n2}, with n1 tried upward from 1 - min texp.
    Each candidate's keys are computed one element at a time and the
    candidate is rejected at its first repeated key.  The accepted one has
    the conjugacy key of every element of gA computed, so a returned value
    is always verified, and ``classes`` is the number of distinct keys
    found in that pass.  Raises when no candidate n1 within the cap
    verifies.
    """
    ctx = _require_bs(ctx)
    elems = _element_set(collection)
    n2 = max(e for (_, e), _ in elems)
    cleared = [num * ctx.k ** (n2 - e) for (num, e), _ in elems]
    shift = 2 * max(abs(v) for v in cleared) + 1
    start = 1 - min(el.texp for el in elems)
    base = ctx.canonical_kpart((shift, 0))
    for n1 in range(start, start + n1_cap):
        g = Element(ctx.phi_power(base, n1), n1 + n2)
        keys = set()
        for el in elems:
            key = conjugacy_key(ctx, ctx.multiply(g, el))
            if key in keys:
                break
            keys.add(key)
        else:
            return SeparatingTranslate(g, n1, n2, shift, len(keys))
    raise ResourceCapError(
        f"no separating translate found within {n1_cap} candidates"
    )


@dataclass(frozen=True)
class TranslateReport:
    k: int
    n: int
    box_size: int
    translate: SeparatingTranslate
    classes: int
    ratio: Fraction
    right_defects: dict
    left_defect_t: Fraction
    matches: bool

    def as_dict(self, ctx: GroupContext) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "box_size": self.box_size,
            "translate": {
                "element": ctx.format_element(self.translate.element),
                "n1": self.translate.n1,
                "n2": self.translate.n2,
                "shift": self.translate.shift,
            },
            "classes": self.classes,
            "ratio": str(self.ratio),
            "right_defects": {
                letter: str(value) for letter, value in self.right_defects.items()
            },
            "left_defect_t": str(self.left_defect_t),
            "matches": self.matches,
        }


def translate_experiment(
    ctx: GroupContext,
    n: int,
    element_cap: int = DEFAULT_BOX_CAP,
    n1_cap: int = N1_SEARCH_CAP,
) -> TranslateReport:
    """Translate the box F_n so that its conjugacy-to-size ratio is 1."""
    ctx = _require_bs(ctx)
    box = folner_box(ctx, n, element_cap)
    sep = separating_translate(ctx, box, n1_cap)
    gens = ctx.generators()
    by_gen: dict = {}
    for gen in gens:
        inverse = ctx.invert(gen)
        if inverse in by_gen:
            by_gen[gen] = by_gen[inverse]
        else:
            by_gen[gen] = right_defect(ctx, box, gen)
    defects = dict(zip(generator_letters(ctx), (by_gen[gen] for gen in gens)))
    left_t = left_defect(ctx, box, Element(ctx.kpart_zero(), 1))
    return TranslateReport(
        k=ctx.k,
        n=n,
        box_size=box.size,
        translate=sep,
        classes=sep.classes,
        ratio=Fraction(sep.classes, box.size),
        right_defects=defects,
        left_defect_t=left_t,
        # left translation is injective, so gF_n has |F_n| elements
        matches=sep.classes == box.size,
    )
