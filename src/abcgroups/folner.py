"""Right-Folner boxes for the bs family and the translated-box experiment.

The box F_n = {(b k^-n, t^p) : 0 <= b < k^{3n}, 0 <= p < n} has right
translation defects O(1/n) + O(k^-n) while left multiplication by t
rescales every K-part and destroys a fixed proportion of the set, so the
sequence is right-Folner but not left-Folner.  Translating F_n on the
left by a suitable g makes every element lie in its own conjugacy class,
which keeps the conjugacy-to-size ratio of the translated boxes at 1.

The separating translate g = t^{n1} (L, 1) t^{n2} comes from the box
itself: n2 clears all denominators of A, and L = 2 max|k^{n2} a_i| + 1
shifts the cleared K-parts to positive values x, all below k^D for D the
base-k digit count of the largest.  An element of gA in stratum
P = n1 + n2 + p is (k^{n1} x, t^P), and its class key is the least
cyclic rotation of the P-digit base-k string of x.  Taking
n1 = (1 - min texp) + max(0, 2D - n2) makes every P exceed 2D, so the
wrap-around zero run (at least P - D > D digits) is the unique longest
run of that string, and two parts in one stratum share a key only when
their ratio is a power of k.  The box's cleared parts lie in [0, M], so
its x lie in [2M + 1, 3M + 1], where every ratio is below 3/2 < k, and
every element of gF_n has its own class.  One key pass over gA still
counts the classes; a repeated key there means two elements differ by a
power of k, which t^s conjugates for every n1, so the collection is
refused.

Every pass works layer by layer.  A collection is grouped by t-exponent
into layers of K-parts; the n layers of a box are one shared set B of
k^{3n} K-parts, which the box stores once.  With x = (r, t^q), the right
translate of layer p is {a + phi^p(r) : a in it} in layer p + q, one shift
for the whole layer (none when phi^p(r) is zero), and the left translate
is {r + phi^q(a)}, whatever the layer, so it is computed once per distinct
set.  Either defect counts what a translated layer leaves its target layer
by a set difference.  Likewise g (a, t^p) has the K-part
L k^{n1} + k^{n1 + n2} a in every layer, so the key pass makes one product
per K-part and keys it once for each layer that holds it.

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
]

DEFAULT_BOX_CAP = 5_000_000

_EMPTY = frozenset()


@dataclass(frozen=True)
class FolnerBox:
    """The n t-layers 0 <= p < n, each holding the one K-part set kparts."""

    kparts: frozenset
    n: int

    @property
    def size(self) -> int:
        return self.n * len(self.kparts)

    @property
    def elements(self) -> frozenset:
        """The box as a set of Elements, built anew on each read."""
        return frozenset(Element(a, p) for a in self.kparts for p in range(self.n))


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
    # k^(3n) >= 2^(3n (b - 1)) for b the bit length of k: a box that this
    # bound already puts past the cap is refused without building k^(3n),
    # which has millions of digits at n = 10^7
    if (
        3 * n * (k.bit_length() - 1) >= element_cap.bit_length()
        or n * k ** (3 * n) > element_cap
    ):
        raise ResourceCapError(
            f"the box for n = {n} has n * {k}^(3n) elements, over the cap "
            f"{element_cap}"
        )
    # one K-part per b, shared by the box's n layers
    return FolnerBox(
        frozenset(ctx.canonical_kpart((b, n)) for b in range(k ** (3 * n))), n
    )


def _layers(collection) -> dict:
    """t-exponent -> the set of K-parts of the collection in that layer.

    A box's layers are all its one K-part set; a plain collection is
    grouped in one pass.
    """
    if isinstance(collection, FolnerBox):
        return dict.fromkeys(range(collection.n), collection.kparts)
    layers: dict = {}
    for a, p in collection:
        layers.setdefault(p, set()).add(a)
    if not layers:
        raise ValueError("defects need a nonempty set")
    return layers


def _shared(layers: dict) -> list:
    """(K-part set, the t-exponents of the layers holding it) per distinct set."""
    out: dict = {}
    for p, kparts in layers.items():
        out.setdefault(id(kparts), (kparts, []))[1].append(p)
    return list(out.values())


def _ratio(moved: int, layers: dict) -> Fraction:
    # |F x| = |F|, so the symmetric difference is twice the escaped part
    return Fraction(2 * moved, sum(map(len, layers.values())))


def right_defect(ctx: GroupContext, collection, x: Element) -> Fraction:
    """|Fx symmetric-difference F| / |F|, exactly."""
    layers = _layers(collection)
    r, q = x
    zero = ctx.kpart_zero()
    moved = 0
    for p, kparts in layers.items():
        # (a, t^p) x = (a + phi^p(r), t^(p+q)): one shift c for the layer
        c = ctx.phi_power(r, p)
        image = kparts if c == zero else {ctx.kpart_add(a, c) for a in kparts}
        moved += len(image - layers.get(p + q, _EMPTY))
    return _ratio(moved, layers)


def left_defect(ctx: GroupContext, collection, x: Element) -> Fraction:
    """|xF symmetric-difference F| / |F|, exactly."""
    layers = _layers(collection)
    r, q = x
    moved = 0
    for kparts, ps in _shared(layers):
        # x (a, t^p) = (r + phi^q(a), t^(q+p)): the same K-part in every layer
        image = {ctx.kpart_add(r, ctx.phi_power(a, q)) for a in kparts}
        moved += sum(len(image - layers.get(p + q, _EMPTY)) for p in ps)
    return _ratio(moved, layers)


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
    ctx: GroupContext, collection: Iterable[Element]
) -> SeparatingTranslate:
    """A left translate g with every element of gA in its own class.

    g = t^{n1} (shift, 1) t^{n2}, with n1 derived from the digit count of
    the shifted K-parts as in the module doc.  The conjugacy key of every
    element of gA is computed, so ``classes`` is the number of distinct
    keys found in that pass.  Raises ValueError, naming the pair, when two
    elements share a key: their shifted K-parts differ by a power of k,
    so no translate of this form separates them.
    """
    ctx = _require_bs(ctx)
    layers = _layers(collection)
    shared = _shared(layers)
    k = ctx.k
    n2 = max(e for kparts, _ in shared for _, e in kparts)
    cleared = [num * k ** (n2 - e) for kparts, _ in shared for num, e in kparts]
    shift = 2 * max(map(abs, cleared)) + 1
    largest = shift + max(cleared)
    digits = 0
    while k**digits <= largest:
        digits += 1
    n1 = 1 - min(layers) + max(0, 2 * digits - n2)
    exponent = n1 + n2
    g = Element(ctx.phi_power(ctx.canonical_kpart((shift, 0)), n1), exponent)
    owners: dict = {}  # key -> the K-part whose translate has it
    for kparts, ps in shared:
        for a in kparts:
            # g (a, t^p) = (g.kpart + phi^exponent(a), t^(exponent + p)): one
            # product for every layer
            product = ctx.kpart_add(g.kpart, ctx.phi_power(a, exponent))
            for p in ps:
                # built in C, as GroupContext.multiply builds its Elements
                translated = tuple.__new__(Element, (product, exponent + p))
                key = conjugacy_key(ctx, translated)
                other = owners.setdefault(key, a)
                if other != a:
                    # conjugate elements share their t-exponent, so both
                    # lie in layer p
                    raise ValueError(
                        f"no translate separates "
                        f"{ctx.format_element(Element(other, p))} and "
                        f"{ctx.format_element(Element(a, p))}: their shifted "
                        f"K-parts differ by a power of {k}"
                    )
    return SeparatingTranslate(g, n1, n2, shift, len(owners))


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
    ctx: GroupContext, n: int, element_cap: int = DEFAULT_BOX_CAP
) -> TranslateReport:
    """Translate the box F_n so that its conjugacy-to-size ratio is 1."""
    ctx = _require_bs(ctx)
    box = folner_box(ctx, n, element_cap)
    sep = separating_translate(ctx, box)
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
