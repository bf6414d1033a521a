"""Right-Folner boxes for the bs family and the translated-box experiment.

The box F_n = {(b k^-n, t^p) : 0 <= b < k^{3n}, 0 <= p < n} has right
translation defects O(1/n) + O(k^-n) while left multiplication by t
rescales every K-part and destroys a fixed proportion of the set, so the
sequence is right-Folner but not left-Folner.  Translating F_n on the
left by a suitable g makes every element lie in its own conjugacy class,
which keeps the conjugacy-to-size ratio of the translated boxes at 1.

The box's n layers 0 <= p < n all hold one set B of k^{3n} K-parts,
which the box stores once.  The separating translate
g = t^{n1} (L, 1) t^{n2} comes from B itself: n2 clears all denominators
of B, and L = 2 max|k^{n2} a_i| + 1 shifts the cleared K-parts to
positive values x, all below k^D for D the base-k digit count of the
largest.  An element of gF_n in stratum P = n1 + n2 + p is
(k^{n1} x, t^P), and its class key is the least cyclic rotation of the
P-digit base-k string of x.  Taking n1 = 1 + max(0, 2D - n2) makes every
P exceed 2D, so the wrap-around zero run (at least P - D > D digits) is
the unique longest run of that string, and two parts in one stratum share
a key only when their ratio is a power of k.  The box's cleared parts lie
in [0, M], so its x lie in [2M + 1, 3M + 1], where every ratio is below
3/2 < k, and every element of gF_n has its own class.  One key pass over
gF_n still counts the classes and certifies the argument: a repeated key
would mean two elements differ by a power of k, and the pass raises,
naming both, rather than report a ratio below 1.

Every pass works layer by layer.  With x = (r, t^q), the right translate
of layer p is {a + phi^p(r) : a in B} in layer p + q, one shift for the
whole layer (none when phi^p(r) is zero); a layer with p + q outside
[0, n) leaves the box whole.  The left translate is {r + phi^q(a)} in
every layer, so it is computed once; max(0, n - |q|) layers land on a
layer of the box and the other min(n, |q|) outside it.  Either defect
counts what a translated layer leaves its target layer by a set
difference.  Likewise g (a, t^p) has the K-part L k^{n1} + k^{n1 + n2} a
in every layer, so the key pass makes one product per K-part and keys it
once per layer, through the stratum key function of the layer's
t-exponent (GroupContext.stratum_key), fetched once per layer and applied
to the products themselves.  Conjugate elements share their t-exponent,
so each layer's keys are checked for repeats on their own.

Right defects are computed once per inverse pair of generators:
|F x^-1 sym-diff F| = |(F sym-diff F x) x^-1| = |F sym-diff F x|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
    # one K-part b k^-n per b, shared by the box's n layers: b times the
    # int kpart of k^-n, which raises past the context's reach
    step = ctx.canonical_kpart((1, n))
    return FolnerBox(frozenset(range(0, step * k ** (3 * n), step)), n)


def right_defect(ctx: GroupContext, box: FolnerBox, x: Element) -> Fraction:
    """|Fx symmetric-difference F| / |F|, exactly."""
    kparts, n = box.kparts, box.n
    r, q = x
    zero = ctx.kpart_zero()
    moved = 0
    for p in range(n):
        if not 0 <= p + q < n:
            # the whole layer lands outside the box
            moved += len(kparts)
            continue
        # (a, t^p) x = (a + phi^p(r), t^(p+q)): one shift c for the layer
        c = ctx.phi_power(r, p)
        if c != zero:
            moved += len({ctx.kpart_add(a, c) for a in kparts} - kparts)
    # |F x| = |F|, so the symmetric difference is twice the escaped part
    return Fraction(2 * moved, box.size)


def left_defect(ctx: GroupContext, box: FolnerBox, x: Element) -> Fraction:
    """|xF symmetric-difference F| / |F|, exactly."""
    n = box.n
    r, q = x
    # x (a, t^p) = (r + phi^q(a), t^(q+p)): the same K-part in every layer
    image = {ctx.kpart_add(r, ctx.phi_power(a, q)) for a in box.kparts}
    # min(n, |q|) layers land outside the box, the others on a layer of it
    outside = min(n, abs(q))
    moved = (n - outside) * len(image - box.kparts) + outside * len(image)
    return Fraction(2 * moved, box.size)


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


def separating_translate(ctx: GroupContext, box: FolnerBox) -> SeparatingTranslate:
    """A left translate g with every element of gF_n in its own class.

    g = t^{n1} (shift, 1) t^{n2}, with n1 derived from the digit count of
    the shifted K-parts as in the module doc.  The conjugacy key of every
    element of gF_n is computed, so ``classes`` is the number of distinct
    keys found in that pass.  Raises ValueError, naming the pair, when two
    elements share a key, which the module doc's argument rules out.
    """
    ctx = _require_bs(ctx)
    kparts = box.kparts
    k = ctx.k
    # the box's finest grid is k^-n, and its kparts are x k^E, E >= n
    n2 = box.n
    scale = k ** (ctx.reach - n2)
    cleared = [a // scale for a in kparts]
    shift = 2 * max(map(abs, cleared)) + 1
    largest = shift + max(cleared)
    digits = 0
    while k**digits <= largest:
        digits += 1
    n1 = 1 + max(0, 2 * digits - n2)
    exponent = n1 + n2
    g = Element(ctx.phi_power(ctx.canonical_kpart((shift, 0)), n1), exponent)
    # g (a, t^p) = (g.kpart + phi^exponent(a), t^(exponent + p)): one product
    # per K-part, shared by every layer, in the iteration order of kparts;
    # phi^exponent multiplies a kpart by k^exponent
    add, offset, factor = ctx.kpart_add, g.kpart, k**exponent
    products = [add(offset, a * factor) for a in kparts]
    classes = 0
    for p in range(box.n):
        # conjugate elements share their t-exponent, so a repeated key lies
        # within one layer, and the layer's products are keyed by one
        # function
        key = ctx.stratum_key(exponent + p)
        owners: dict = {}  # key -> the K-part whose translate has it
        for a, product in zip(kparts, products):
            other = owners.setdefault(key(product), a)
            if other != a:
                raise ValueError(
                    f"no translate separates "
                    f"{ctx.format_element(Element(other, p))} and "
                    f"{ctx.format_element(Element(a, p))}: their shifted "
                    f"K-parts differ by a power of {k}"
                )
        classes += len(owners)
    return SeparatingTranslate(g, n1, n2, shift, classes)


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
