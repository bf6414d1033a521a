"""Exact arithmetic in abelian-by-cyclic groups K ⋊ <t>.

An element is a pair (kpart, texp) with kpart in an abelian kernel K and
texp the exponent of the distinguished cyclic generator t.  Multiplication
follows (a, t^p) (b, t^q) = (a + phi^p(b), t^(p+q)) where phi is the
defining automorphism of K.

Three kernel families are supported:

* lamplighter: K = finitely supported configurations Z -> Z_m (or Z when
  m = 0), phi shifts the support up by one; a configuration is stored as
  one int, lamp i in a field at bit w (i + E), E the context's reach
  (LamplighterContext).
* bs: K = Z[1/k] for Baumslag-Solitar BS(1,k), phi multiplies by k; x is
  stored as the int x k^E, E the context's reach (BaumslagSolitarContext).
* matrix: K = Z^n with phi given by an integer matrix of determinant +-1.

Each family's context supplies its p = 0 conjugacy key and, for the
strata p = +-n, the quotient Q_n = K / (1 - phi^n)K as (coords, orbit,
solve): the class of w, the n classes of phi^j(w), 0 <= j < n, from the
class of w, and the solver of (1 - phi^n)(b) = w.  GroupContext builds
from the quotient the p != 0 key, one function per stratum; the
brute-force oracle reads the quotient directly.  bs and the lamplighter
also give an exact word length for their standard generators.  The
conjugacy module explains them.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from math import gcd, inf
from operator import add, mul, neg, pos, xor
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .linalg import (
    adjugate,
    cyclotomic_orders,
    identity_matrix,
    lattice_index,
    linear_map,
    mat_add,
    mat_mul,
    mat_pow,
    mat_sub,
    positive_definite,
    unimodular_inverse,
    unit_ideal,
    vector_add,
)

__all__ = [
    "Element",
    "GroupContext",
    "LamplighterContext",
    "BaumslagSolitarContext",
    "MatrixContext",
    "Quotient",
    "ResourceCapError",
    "load_matrix_config",
    "parse_group_descriptor",
    "parse_int",
]


class ResourceCapError(RuntimeError):
    """An explicit resource cap was hit; results were not truncated."""


class Element(NamedTuple):
    """Group element: kernel part plus t-exponent."""

    kpart: Any
    texp: int


# ---------------------------------------------------------------------------
# Context base class
# ---------------------------------------------------------------------------


class Quotient(NamedTuple):
    """Q_n = K / (1 - phi^n)K = K / (1 - phi^-n)K, of the strata p = +-n.

    phi^n fixes Q_n, so the orbit of a class is the n classes of phi^j(w),
    0 <= j < n, and phi^j(w) has class orbit(coords(w))[j % n].
    """

    coords: Callable  # w -> the class of w
    orbit: Callable  # the class of w -> the classes of phi^j(w), 0 <= j < n
    solve: Callable  # w -> the unique b with (1 - phi^n)(b) = w, or None
    memo: dict  # class -> the least class of its orbit, as the key met it


class GroupContext:
    """Family-independent element operations on top of kernel arithmetic.

    No cached quotient or key refers back to the context, which stays free
    of reference cycles: cli.run pauses the cyclic collector.
    """

    family: str = ""

    def __init__(self):
        # p -> the key function of stratum p (stratum_key)
        self._stratum_keys: dict[int, Callable] = {}
        # n -> the quotient of the strata +-n (quotient)
        self._quotients: dict[int, Quotient] = {}

    # Kernel primitives supplied by each family.  kparts are canonical
    # ints (bs, lamplighter) or immutable tuples (matrix), so elements are
    # hashable dict keys.

    def kpart_zero(self):
        raise NotImplementedError

    def kpart_add(self, a, b):
        raise NotImplementedError

    def kpart_neg(self, a):
        raise NotImplementedError

    def canonical_kpart(self, a):
        raise NotImplementedError

    def phi_power(self, a, i: int):
        """Apply the defining automorphism i times (i may be negative)."""
        raise NotImplementedError

    def format_kpart(self, a) -> str:
        raise NotImplementedError

    # Conjugacy data supplied by each family.

    def _build_quotient(self, n: int) -> tuple[Callable, Callable, Callable]:
        """(coords, orbit, solve) of Q_n, n >= 1, as in Quotient."""
        raise NotImplementedError

    def _build_zero_key(self) -> Callable:
        """kpart -> the conjugacy key of (kpart, t^0)."""
        raise NotImplementedError

    # Conjugacy data built from the quotient.

    def quotient(self, n: int) -> Quotient:
        """The quotient of the strata p = +-n, built once; n < 1 raises."""
        if n < 1:
            raise ValueError(f"strata are indexed by n = |p| >= 1, got {n}")
        q = self._quotients.get(n)
        if q is None:
            q = self._quotients[n] = Quotient(*self._build_quotient(n), {})
        return q

    def stratum_key(self, p: int) -> Callable:
        """kpart -> the conjugacy key of (kpart, t^p), built once per p.

        The function holds what every element of the stratum shares, so a
        pass over one stratum computes it once.
        """
        key = self._stratum_keys.get(p)
        if key is None:
            key = self._stratum_keys[p] = self._build_stratum_key(p)
        return key

    def _build_stratum_key(self, p: int) -> Callable:
        if p == 0:
            return self._build_zero_key()
        coords, orbit, _, memo = self.quotient(abs(p))

        def key(w):
            # the least class of the orbit, memoised for every class of it
            c = coords(w)
            best = memo.get(c)
            if best is None:
                classes = orbit(c)
                best = min(classes)
                memo.update(dict.fromkeys(classes, best))
            return (p, best)

        return key

    def word_length(self, g: Element, bound: Optional[int] = None) -> int:
        """Exact word length of g over generators(), without a ball.

        Given a bound, it returns min(|g|, bound + 1), which decides
        |g| <= bound with less work where the family's program can stop
        early.  Families with a closed form implement it for their standard
        generating set only; every other context raises, and its lengths
        come from an enumerated ball.
        """
        raise NotImplementedError(
            f"no closed-form word length for this {self.family} generating set"
        )

    # Element level operations.

    @property
    def identity(self) -> Element:
        return Element(self.kpart_zero(), 0)

    def multiply(self, g: Element, h: Element) -> Element:
        # tuple.__new__ builds the Element in C, without the NamedTuple's
        # Python-level __new__; this is the kernel's hottest constructor
        kpart = self.kpart_add(g.kpart, self.phi_power(h.kpart, g.texp))
        return tuple.__new__(Element, (kpart, g.texp + h.texp))

    def invert(self, g: Element) -> Element:
        return Element(self.phi_power(self.kpart_neg(g.kpart), -g.texp), -g.texp)

    def generators(self) -> list[Element]:
        """Generating set: nonzero kernel generators, then t, t^-1."""
        zero = self.kpart_zero()
        kgens = [Element(r, 0) for r in self.kgen_nonzero]
        return kgens + [Element(zero, 1), Element(zero, -1)]

    def format_element(self, g: Element) -> str:
        return f"({self.format_kpart(g.kpart)}; t^{g.texp})"

    # Kernel generator bookkeeping shared by all families.

    def _set_kgens(self, kgens: Iterable) -> None:
        seen = []
        for raw in kgens:
            a = self.canonical_kpart(raw)
            if a not in seen:
                seen.append(a)
        zero = self.kpart_zero()
        if zero not in seen:
            raise ValueError("kernel generator set must contain zero")
        for a in seen:
            if self.kpart_neg(a) not in seen:
                raise ValueError(
                    "kernel generator set is not symmetric: missing inverse "
                    f"of {self.format_kpart(a)}"
                )
        self.kgen_nonzero = tuple(a for a in seen if a != zero)


# E of a library context; bench/child.py's metamorphic check conjugates
# radius-8 balls by words of up to 40 letters, so it meets bs K-parts with
# e <= 48 and lamps at indices |i| <= 48
DEFAULT_REACH = 64


def _fields(value: int, width: int, count: int) -> int:
    """The int with value in each of count fields of width bits."""
    return value * ((1 << width * count) - 1) // ((1 << width) - 1)


# ---------------------------------------------------------------------------
# Lamplighter family
# ---------------------------------------------------------------------------


class LamplighterContext(GroupContext):
    """Z_m (or Z) lamps indexed by Z; t shifts the configuration up by one.

    The kpart is one Python int: lamp i, -E <= i <= E for E = reach, is the
    w-bit field at bit w (i + E).  phi^i shifts by w i bits, equal K-parts
    are equal ints, and a lamp moved past [-E, E] raises ResourceCapError,
    never a dropped lamp.  kpart_add is bound per m:

    * m = 2: w = 1 and kpart_add is xor (C, no method call);
    * m >= 3: w = m.bit_length() + 1 and each field holds v in [0, m).  A
      sum of two fields is below 2m < 2^w, so a + b carries nowhere; adding
      C = 2^(w-1) - m per field sets the top bit of the fields at m or
      above, and they lose m;
    * m = 0: the kpart is sum v_i 2^(w (i + E)) with signed v_i, so the add
      is a + b and kpart_neg is -a.  The valid values are [-2^g, 2^g),
      2^g > E max|v| over the lamps of R, and w leaves room for a sum of
      2E + 1 of them, so class sums and the solver's running sums stay
      exact; an add or a solution with a value past the valid range raises
      ResourceCapError.

    The CLI takes E from each command's parameters as for bs (cli).
    canonical_kpart packs (index, value) pairs and format_kpart unpacks
    them, values in [1, m-1] when m >= 2.
    """

    family = "lamplighter"

    def __init__(
        self, m: int, kgens: Optional[Iterable] = None, reach: int = DEFAULT_REACH
    ):
        if m == 1 or m < 0:
            raise ValueError(f"lamp modulus must be 0 (integer lamps) or >= 2, got {m}")
        if reach < 0:
            raise ValueError(f"lamplighter reach must be >= 0, got {reach}")
        super().__init__()
        self.m = m
        self.reach = reach
        if kgens is None:
            kgens = ((), ((0, 1),), ((0, -1),))
        kgens = [tuple(conf) for conf in kgens]
        span = 2 * reach + 1
        self._checked = pos  # values mod m never leave their fields
        if m == 2:
            width = 1
            # C functions, bound as MatrixContext binds its add
            self.kpart_add, self.kpart_neg = xor, pos
            self._lamp_cost = int.bit_count
        elif m:
            width = m.bit_length() + 1
            self.kpart_add, self.kpart_neg, self._lamp_cost = _modular_fields(
                m, width, span
            )
        else:
            top = max(
                (abs(v) for conf in kgens for v in self._collect(conf).values()),
                default=1,
            )
            low = max(reach * top, 1).bit_length()
            width = low + span.bit_length() + 3
            self.kpart_add, self._checked, self._lamp_cost = _integer_fields(
                low, width, span, reach
            )
            self.kpart_neg = neg
        self.width = width
        self._span = span
        # m = 0 stores signed fields, read as digits in [-2^(w-1), 2^(w-1))
        self._signed = not m
        self._set_kgens(kgens)
        # R spans the ideal of Z/m[x, 1/x] (Z[x, 1/x] for m = 0) that its
        # configurations sum v_i x^i generate, so R generates K over t
        # exactly when that ideal is the unit ideal
        polys = [
            [lamps.get(i, 0) for i in range(min(lamps), max(lamps) + 1)]
            for lamps in map(dict, map(self._lamps, self.kgen_nonzero))
        ]
        if not unit_ideal(polys, m):
            raise ValueError("kernel generators do not generate the lamps over t")
        one = self.canonical_kpart(((0, 1),))
        self._standard_gens = set(self.kgen_nonzero) == {one, self.kpart_neg(one)}

    def kpart_zero(self):
        return 0

    def _collect(self, pairs) -> dict[int, int]:
        """index -> value of the nonzero lamps that the (index, value) pairs
        sum to, values reduced mod m when m >= 2."""
        acc: dict[int, int] = {}
        for i, v in pairs:
            acc[i] = acc.get(i, 0) + v
        if self.m:
            acc = {i: v % self.m for i, v in acc.items()}
        return {i: v for i, v in acc.items() if v}

    def canonical_kpart(self, a):
        """The kpart of the lamps given as (index, value) pairs."""
        reach, width = self.reach, self.width
        out = 0
        for i, v in self._collect(a).items():
            if not -reach <= i <= reach:
                raise ResourceCapError(f"lamp {i} is past the reach {reach}")
            out += v << width * (i + reach)
        return self._checked(out)

    def _lamps(self, a) -> list[tuple[int, int]]:
        """The (index, value) pairs of the nonzero lamps of a, by index."""
        width, out, i = self.width, [], -self.reach
        field = (1 << width) - 1
        half = 1 << width - 1 if self._signed else 0
        while a:
            v = ((a + half) & field) - half
            if v:
                out.append((i, v))
            a = (a - v) >> width
            i += 1
        return out

    def phi_power(self, a, i: int):
        shift = self.width * i
        if i >= 0:
            b = a << shift
            # the top field lies at bit length // w (signed) or (length - 1) // w
            if abs(b).bit_length() <= self.width * self._span - self._signed:
                return b
        elif not a & ((1 << -shift) - 1):
            return a >> -shift
        raise ResourceCapError(
            f"{self.format_kpart(a)} moved by t^{i} is past the reach {self.reach}"
        )

    def format_kpart(self, a) -> str:
        if not a:
            return "0"
        return "+".join(f"{v}@{i}" for i, v in self._lamps(a))

    def word_length(self, g: Element, bound: Optional[int] = None) -> int:
        """Word length of g for the standard generators, in closed form.

        Cleary and Taback (Q. J. Math. 2005), after Parry (Trans. AMS 1992):
        each lamp of value v costs min(v, m - v) letters (|v| for integer
        lamps), and the cursor walks from 0 to p past every lit lamp, so it
        covers [lo, hi], the hull of {0, p, lit lamps}, at the least cost
        2 (hi - lo) - |p| of turning at whichever end lies away from p.
        The lamp costs are summed field by field in the int, and lo and hi
        are the lowest and the highest nonzero field.
        """
        if not self._standard_gens:
            return super().word_length(g, bound)
        a, p = g
        length = self._lamp_cost(a) - abs(p)
        if a:
            width, reach = self.width, self.reach
            lo = ((a & -a).bit_length() - 1) // width - reach
            hi = (abs(a).bit_length() - (not self._signed)) // width - reach
            length += 2 * (max(hi, p, 0) - min(lo, p, 0))
        else:
            length += 2 * abs(p)
        return length if bound is None or length <= bound else bound + 1

    def _build_zero_key(self) -> Callable:
        width = self.width

        def shifted(a):
            # the configuration moved down to start at field 0
            low = (a & -a).bit_length() - 1
            return (0, a >> low - low % width) if a else (0, 0)

        return shifted

    def _build_quotient(self, n: int):
        width, span, signed = self.width, self._span, self._signed
        # class sums and running sums: the field add mod m, or the plain add
        # for integer lamps, whose sums may pass the range of one lamp
        plus = self.kpart_add if self.m else add

        def bias(bits):
            # x = low + (x + bias) >> bits << bits splits x at bits, with
            # low read as signed fields (m = 0) or unsigned ones
            return 1 << bits >> 1 if signed else 0

        # lamp i sits at field i + E; lifted by (-E) mod n more fields it
        # sits at a field of its class i mod n, and the fold then adds the
        # blocks of n fields onto the lowest one, halving their count
        lift = -self.reach % n * width
        blocks = -(-(span + lift // width) // n)
        folds = []  # (bits of the lower blocks, their mask, the split's bias)
        while blocks > 1:
            blocks = (blocks + 1) // 2
            cut = blocks * n * width
            folds.append((cut, (1 << cut) - 1, bias(cut)))

        def coords(w):
            # the n class sums, class r at field r, reduced mod m when m >= 2
            x = w << lift
            if signed:
                # signed fields split at cut; the unsigned ones just mask,
                # which keeps the key pass's loop short
                for cut, _, half in folds:
                    high = (x + half) >> cut
                    x += high - (high << cut)
            else:
                for cut, mask, _ in folds:
                    x = plus(x & mask, x >> cut)
            return x

        # phi moves the sum of class r to class r + 1 mod n, so phi^j
        # rotates the n fields j places up
        below = (n - 1) * width
        top_half = bias(below)

        def orbit(c):
            out = [c]
            for _ in range(n - 1):
                high = (c + top_half) >> below
                c = ((c - (high << below)) << width) + high
                out.append(c)
            return out

        # b_i - b_(i-n) = w_i: b_i is the running sum of w over the indices
        # of its class mod n up to i, a stride-n prefix sum built by
        # doubling within the 2E + 1 fields; a finite b exists exactly when
        # every class sum, which the top n fields then hold, is 0
        doublings = []
        stride = n
        while stride < span:
            doublings.append(stride * width)
            stride *= 2
        bits, cut = span * width, max(span - n, 0) * width
        span_half, cut_half = bias(bits), bias(cut)
        checked = self._checked

        def solve(w):
            x = w
            for shift in doublings:
                y = x << shift
                x = plus(x, y - ((y + span_half) >> bits << bits))
            return None if (x + cut_half) >> cut else checked(x)

        return coords, orbit, solve


def _modular_fields(m: int, width: int, span: int):
    """kpart_add, kpart_neg and the lamp cost of Z_m lamps, m >= 3, in span
    fields of width bits."""
    shift = width - 1
    tops = _fields(1 << shift, width, span)
    # v + (2^(w-1) - m) sets the top bit exactly when v >= m
    carry = _fields((1 << shift) - m, width, span)
    # v + (2^(w-1) - m // 2 - 1) sets it exactly when 2 v > m
    far = _fields((1 << shift) - m // 2 - 1, width, span)
    every = _fields(m, width, span)
    ones = _fields(1, width, span)
    field = (1 << width) - 1

    def add(a, b):
        s = a + b
        return s - (((s + carry) & tops) >> shift) * m

    def negate(a):
        # m - v lies in [1, m], and the fields at m go to 0
        s = every - a
        return s - (((s + carry) & tops) >> shift) * m

    def cost(a):
        # min(v, m - v) per field, then the fields summed bit plane by plane
        flip = ((a + far) & tops) >> shift
        c = a + flip * m - 2 * (a & flip * field)
        return sum(((c >> b) & ones).bit_count() << b for b in range(width))

    return add, negate, cost


def _integer_fields(low: int, width: int, span: int, reach: int):
    """kpart_add, the range check and the lamp cost of integer lamps, valid
    in [-2^low, 2^low), as signed fields of width bits, span of them."""
    half = 1 << width - 1
    # v + 2^(w-1) + 2^low has bits low+1 .. w-1 equal to 10..0 exactly when
    # v is valid; for a sum of two valid values it lies in [0, 2^w)
    offset = _fields(half + (1 << low), width, span)
    band = _fields(((1 << width) - 1) & ~((2 << low) - 1), width, span)
    tops = _fields(half, width, span)
    field = (1 << width) - 1
    shift = width - 1

    def checked(s):
        if (s + offset) & band != tops:
            raise ResourceCapError(
                f"a lamp value is past [-2^{low}, 2^{low}), the range of the "
                f"reach {reach}"
            )
        return s

    def add(a, b):
        return checked(a + b)

    def cost(a):
        # |v| per field: less twice the negative fields, whose top bit is
        # clear once 2^(w-1) is added to each; the sum of the fields is
        # below 2^w - 1, so it is their residue mod 2^w - 1
        u = a + tops
        negative = (~u & tops) >> shift
        c = a - 2 * ((u & negative * field) - (negative << shift))
        return c % field

    return add, checked, cost


# ---------------------------------------------------------------------------
# Baumslag-Solitar family BS(1,k)
# ---------------------------------------------------------------------------


class BaumslagSolitarContext(GroupContext):
    """K = Z[1/k]; the kpart of x is the Python int x * k**reach.

    One exponent E = reach serves the whole context, so kpart_add is a + b
    and kpart_neg is -a (the C functions themselves), phi^i multiplies by
    k^i and phi^-i divides exactly by k^i, and equal K-parts are equal
    ints.  A K-part outside k^-E Z raises ResourceCapError, never a rounded
    value.  The CLI takes E from each command's parameters: 2R for
    enumerate and ratio, R + RC for conjtest, n for folner and the word's
    length for rewrite.  canonical_kpart packs the pair (num, e) for
    num / k^e; format_kpart and word_length unpack it with e >= 0 minimal.
    """

    family = "bs"

    def __init__(
        self, k: int, kgens: Optional[Iterable] = None, reach: int = DEFAULT_REACH
    ):
        if k < 2:
            raise ValueError(f"bs parameter k must be >= 2, got {k}")
        if reach < 0:
            raise ValueError(f"bs reach must be >= 0, got {reach}")
        super().__init__()
        self.k = k
        self.reach = reach
        one = self._one = k**reach
        # C functions, bound as MatrixContext binds its add: no method call
        self.kpart_add = add
        self.kpart_neg = neg
        kgens = ((0, 0), (1, 0), (-1, 0)) if kgens is None else tuple(kgens)
        self._set_kgens(kgens)
        # R spans g Z[1/k] over t, g the gcd of its numerators: all of Z[1/k]
        # when g is a unit there, which is when g divides k^(bit length of g)
        g = gcd(*(num for num, _ in kgens))
        if not g or k ** g.bit_length() % g:
            raise ValueError("kernel generators do not generate Z[1/k] over t")
        self._standard_gens = set(self.kgen_nonzero) == {one, self.kpart_neg(one)}

    def kpart_zero(self):
        return 0

    def canonical_kpart(self, a):
        """The kpart of num / k^e, given as the pair (num, e)."""
        num, e = a
        return self.phi_power(num * self._one, -e)

    def phi_power(self, a, i: int):
        if i >= 0:
            return a * self.k**i
        q, r = divmod(a, self.k**-i)
        if r:
            raise ResourceCapError(
                f"{self.format_kpart(a)} / {self.k}^{-i} is past the reach {self.reach}"
            )
        return q

    def _fraction(self, a) -> tuple[int, int]:
        """(num, e) with kpart a standing for num / k^e, e >= 0 minimal."""
        k, e = self.k, self.reach if a else 0
        # strip min(E, factors of k in a) factors of k, 2^j at a time
        for step in (1 << j for j in reversed(range(e.bit_length()))):
            if step <= e and not a % k**step:
                a //= k**step
                e -= step
        return a, e

    def format_kpart(self, a) -> str:
        num, e = self._fraction(a)
        return f"{num}/{self.k}^{e}" if e else str(num)

    def word_length(self, g: Element, bound: Optional[int] = None) -> int:
        """Word length of g = (num / k^e, t^p) for the generators a, t.

        Reading a word left to right, a letter a^c at t-level l adds c k^l,
        and the t-letters walk from level 0 to p.  A walk that covers the
        interval [L, H] (L <= min(0, p), H >= max(0, p)) costs at least
        2 (H - L) - |p| t-letters, turning at whichever end lies away from
        p, and a walk of that cost can drop a^(c_l) at each level l of
        [L, H] on its first visit.  So |g| is the least 2 (H - L) - |p|
        + sum |c_l| over intervals and digits with sum c_l k^l = num / k^e.

        The digits need L <= -e.  Going lower never helps: a nonzero
        lowest digit below -e is a multiple of k, and moving it up one
        level as c / k makes the digit sum smaller.  So L = min(0, p, -e),
        and the digits write N = num k^(-e-L) as sum c_j k^j, j = l - L.
        Below the top level H every digit lies in (-k, k): a digit c >= k
        becomes c - k with one more on the next level, which saves k - 1
        or more, and likewise for c <= -k.  So with v the value still to
        write at a level and r = v mod k, its digit is r or r - k, the next
        level writes (v - digit) / k, and the top digit is the whole value
        left.  Those next values are q = v div k and q + 1, so one pass
        upward from L keeps just v and v + 1, with least digit sums a and
        b.  Writing v + 1 instead of v costs at most 1 more (one unit on
        the current digit), and back, so the pass may start from a = 0,
        b = 1 without changing any minimum.  Each level H >= max(0, p)
        gives the candidate path + min(a + |v|, b + |v + 1|), where the
        path is 2 (H - L) - |p|.  min(a, b) never falls as the pass goes
        up, and no candidate has a shorter path than the level max(0, p),
        so the pass stops once min(a, b) plus the path of the current
        level, or of that first candidate level below it, reaches the best
        candidate.  It also stops when v is 0 or -1 at a level H: v then
        stays there and no later candidate is lower.  A bound starts the
        pass with best = bound + 1, so it stops as soon as no candidate
        can come in under the bound.  Elder (Illinois J. Math. 2010) gives
        linear-time geodesics in BS(1, k).
        """
        if not self._standard_gens:
            return super().word_length(g, bound)
        k = self.k
        num, e = self._fraction(g.kpart)
        p = g.texp
        low = min(0, p, -e)
        # a and b: least digit sums with v and with v + 1 still to write
        v = num * k ** (-e - low)
        a, b = 0, 1
        below = max(0, p) - low  # levels left below the first candidate
        path = 2 * below - abs(p)  # of that level, then of the current one
        best = inf if bound is None else bound + 1
        while True:
            least = a if a < b else b
            if path + least >= best:
                return best
            if below:
                below -= 1
            else:
                x = a + abs(v)
                y = b + abs(v + 1)
                here = path + (x if x < y else y)
                if here < best:
                    best = here
                if v == 0 or v == -1:
                    return best
                path += 2
            v, r = divmod(v, k)
            # v from v by digit r or from v + 1 by r + 1, v + 1 by r - k or
            # r + 1 - k; the digits +-k this admits are valid, never better.
            # The comparisons are min(a, b + 1) and min(a + 1, b).
            a, b = r + least + (a > b), k - r - 1 + least + (a < b)

    def _build_zero_key(self) -> Callable:
        k = self.k

        def stripped(a):
            while a and not a % k:
                a //= k
            return (0, a)

        return stripped

    def _build_stratum_key(self, p: int) -> Callable:
        # bs keeps its own p != 0 key, an inline loop with no memo: every
        # residue of a Folner key pass is distinct, so the memo of the
        # quotient's key only grows; on a 2-vCPU box it took folner --k 3
        # --n 3 from 0.3-0.5 to 0.8-1.3 s and its peak RSS from 26 to 148 MB
        if p == 0:
            return self._build_zero_key()
        k = self.k
        modulus = k ** abs(p) - 1
        rest = range(abs(p) - 1)

        def key(a):
            # a = num k^(E - e) for x = num / k^e is a power of k times num,
            # so its orbit, and the least residue of it, are those of num
            res = best = a % modulus
            for _ in rest:
                res = res * k % modulus
                if res < best:
                    best = res
            return (p, best)

        return key

    def _build_quotient(self, n: int):
        k = self.k
        den = k**n - 1
        # the class of x in Z[1/k] / (k^n - 1) = Z / (k^n - 1) is a k^-E for
        # its kpart a, and k^-E = k^(-E mod n) there, as k^n = 1
        unit = pow(k, -self.reach % n, den)
        # phi^j multiplies the class by k^j, which is below den for j < n
        powers = [k**j for j in range(n)]

        def coords(w):
            return w * unit % den

        def orbit(c):
            return [c * u % den for u in powers]

        def solve(w):
            # (1 - k^n) b = w: b = -w / (k^n - 1), and k is prime to
            # k^n - 1, so b lies in k^-E Z exactly when den divides w
            return None if w % den else -w // den

        return coords, orbit, solve


# ---------------------------------------------------------------------------
# Matrix family Z^n x| <t>
# ---------------------------------------------------------------------------

def _int_entries(values, what: str) -> tuple[int, ...]:
    """The entries as a tuple; floats, bools and other non-ints are refused."""
    out = tuple(values)
    for x in out:
        if type(x) is not int:
            raise ValueError(f"{what} entries must be integers, got {x!r}")
    return out


# the widest tent sum MatrixContext.convex_form tries; K grows with the log
# of the condition number of a basis that splits M's spectrum at the circle
TENT_K_MAX = 1024


def _convex(form, m, inv) -> bool:
    """Whether P > 0 and M^T P M + M^-T P M^-1 - 2P > 0, checked exactly."""
    ahead, back = (mat_mul(tuple(zip(*a)), mat_mul(form, a)) for a in (m, inv))
    curvature = mat_sub(mat_add(ahead, back), mat_add(form, form))
    return positive_definite(form) and positive_definite(curvature)


class MatrixContext(GroupContext):
    """K = Z^n with phi(v) = M v for an integer matrix M, |det M| = 1.

    The vector arithmetic runs on linalg's straight-line kernels: kpart_add
    is built for n when the context is, and v -> M^i v once per power i
    that phi_power meets.
    """

    family = "matrix"

    def __init__(self, rows: Iterable[Iterable[int]], kgens: Optional[Iterable] = None):
        matrix = tuple(_int_entries(row, "matrix") for row in rows)
        super().__init__()
        n = len(matrix)
        if n == 0 or any(len(row) != n for row in matrix):
            raise ValueError("matrix must be square and nonempty")
        self.matrix = matrix
        self.n = n
        # the built function itself: a method around it costs one more call per add
        self.kpart_add = vector_add(n)
        self._inverse = unimodular_inverse(matrix)
        self._maps: dict[int, Callable] = {}  # i -> v -> M^i v
        self.unit_root_orders = cyclotomic_orders(matrix)
        if kgens is None:
            units = []
            for i in range(n):
                e = tuple(1 if j == i else 0 for j in range(n))
                units.append(e)
                units.append(self.kpart_neg(e))
            kgens = [self.kpart_zero()] + units
        self._set_kgens(kgens)
        # det M = +-1 makes M^-1 an integer polynomial in M, so the
        # Z[M, M^-1]-span of the generators is the Z-span of M^i g, 0 <= i < n
        columns = [self.phi_power(v, i) for v in self.kgen_nonzero for i in range(n)]
        if lattice_index(columns, n) != 1:
            raise ValueError(
                "kernel generators do not generate Z^n as a module over M"
            )

    def matrix_power(self, i: int) -> tuple[tuple[int, ...], ...]:
        """M^i, computed afresh: power_map, quotient and the spectral
        projection each ask for a given power once."""
        return mat_pow(self.matrix if i > 0 else self._inverse, abs(i))

    def power_map(self, i: int) -> Callable:
        """v -> M^i v, built once per power."""
        apply = self._maps.get(i)
        if apply is None:
            apply = self._maps[i] = linear_map(self.matrix_power(i))
        return apply

    def kpart_zero(self):
        return (0,) * self.n

    def kpart_neg(self, a):
        return tuple(map(neg, a))

    def canonical_kpart(self, a):
        v = _int_entries(a, "kernel vector")
        if len(v) != self.n:
            raise ValueError(f"kernel vector must have length {self.n}")
        return v

    def phi_power(self, a, i: int):
        if i == 0:
            return a
        return (self._maps.get(i) or self.power_map(i))(a)

    def format_kpart(self, a) -> str:
        return "(" + ",".join(str(x) for x in a) + ")"

    def _build_stratum_key(self, p: int) -> Callable:
        if self.unit_root_orders:
            raise ValueError(
                f"conjugacy invariants are unavailable: M has root-of-unity "
                f"eigenvalues of orders {self.unit_root_orders}"
            )
        return super()._build_stratum_key(p)

    def _build_zero_key(self) -> Callable:
        height, steps = self._height, (self.power_map(1), self.power_map(-1))
        return lambda v: (0, _descend(v, height, steps))

    @cached_property
    def convex_form(self) -> tuple[tuple[int, ...], ...]:
        """An integer P > 0 with C = M^T P M + M^-T P M^-1 - 2P > 0.

        Then i -> P(M^i v) has integer second difference (M^i v)^T C (M^i v)
        >= 1 for v != 0, so the p = 0 descent is exact (see the conjugacy
        module).
        P is the tent sum P_K = sum_(|i|<K) (K - |i|) G_i of the Gram
        matrices G_i = (M^i)^T M^i, for the least K <= TENT_K_MAX with
        C_K = G_K + G_-K - 2I > 0: M^T G_i M = G_(i+1), and the tent weights
        have second difference -2 at 0 and 1 at +-K, so C = C_K.  Such a K
        exists exactly when no eigenvalue lies on the unit circle.  The exact
        check of P and C decides, and ValueError when no K passes it.
        """
        m, inv = self.matrix, self._inverse
        ident = identity_matrix(self.n)
        twice = mat_add(ident, ident)
        # P_(K+1) = P_K + S_(K+1), with the window S_K = sum_(|i|<K) G_i
        form = window = ahead = back = ident
        for _ in range(TENT_K_MAX):
            ahead, back = mat_mul(m, ahead), mat_mul(inv, back)
            grams = mat_add(*(mat_mul(tuple(zip(*a)), a) for a in (ahead, back)))
            if positive_definite(mat_sub(grams, twice)) and _convex(form, m, inv):
                return form
            window = mat_add(window, grams)
            form = mat_add(form, window)
        raise ValueError(
            "no certified convex form for the p = 0 conjugacy key: no tent sum "
            f"of width K <= {TENT_K_MAX} passed the exact check, as for an "
            "eigenvalue on the unit circle that is not a root of unity "
            "(Salem type), where none can"
        )

    @cached_property
    def _height(self) -> Callable:
        """v -> v^T P v for P the convex form."""
        apply = linear_map(self.convex_form)
        return lambda w: sum(map(mul, w, apply(w)))

    def _build_quotient(self, n: int):
        adj, det = adjugate(mat_sub(identity_matrix(self.n), self.matrix_power(n)))
        if det == 0:
            raise ValueError(
                f"I - M^{n} is singular; the stratum has no finite quotient"
            )
        # adj D = det D * D^-1 for D = I - M^n, so w lies in D Z^n exactly
        # when adj D w = 0 mod |det D|: that residue is the class of w, and
        # solve divides adj D w by det D
        adj_map, d, apply = linear_map(adj), abs(det), self.power_map(1)

        def coords(w):
            return tuple([x % d for x in adj_map(w)])

        def orbit(c):
            # adj D is a polynomial in D, so it commutes with M, and the
            # class of M v is M times the class of v, mod |det D|
            out = [c]
            for _ in range(n - 1):
                c = tuple([x % d for x in apply(c)])
                out.append(c)
            return out

        def solve(w):
            x = adj_map(w)
            if any(xi % det for xi in x):
                return None
            return tuple([xi // det for xi in x])

        return coords, orbit, solve


def _descend(v, height, steps) -> tuple[int, ...]:
    """The least minimiser of height over the orbit of v under the maps
    steps = (M, M^-1), for height the convex form's v -> v^T P v."""
    # i -> P(M^i v) is strictly convex with at most two minimisers, so walk
    # downhill while it strictly drops (see the conjugacy module)
    best, low = v, height(v)
    for apply in steps:
        w = apply(best)
        h = height(w)
        if h > low:
            continue
        while h < low:
            best, low = w, h
            w = apply(w)
            h = height(w)
        return min(best, w) if h == low else best
    return best


def load_matrix_config(path: str) -> MatrixContext:
    """Build a matrix context from a JSON file {"n":, "rows":, "generators":?}."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("matrix config must be a JSON object")
    rows = data.get("rows")
    if rows is None:
        raise ValueError("matrix config is missing 'rows'")
    if not _is_list_of_lists(rows):
        raise ValueError("matrix config 'rows' must be a list of lists")
    n = data.get("n", len(rows))
    if type(n) is not int:
        raise ValueError(f"matrix config 'n' must be an integer, got {n!r}")
    if n != len(rows):
        raise ValueError(f"matrix config declares n={n} but has {len(rows)} rows")
    if "generators" not in data:
        return MatrixContext(rows)
    if not _is_list_of_lists(data["generators"]):
        raise ValueError("matrix config 'generators' must be a list of lists")
    vectors = [_int_entries(vec, "kernel vector") for vec in data["generators"]]
    kgens = [(0,) * n] + [w for v in vectors for w in (v, tuple(map(neg, v)))]
    return MatrixContext(rows, kgens)


def _is_list_of_lists(value) -> bool:
    return isinstance(value, list) and all(isinstance(row, list) for row in value)


def parse_int(text: str, what: str) -> int:
    """An integer written as [+-]?[0-9]+ and nothing else.

    int() would also take underscores, surrounding whitespace and non-ASCII
    digits; such text is refused with ValueError naming it.
    """
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"{what} must be a decimal integer, got {text!r}")
    return int(text)


def parse_group_descriptor(desc: str, reach: int = DEFAULT_REACH) -> GroupContext:
    """Parse "lamplighter:m" or "bs:k" of the given reach, or "matrix:<path>"."""
    head, sep, rest = desc.partition(":")
    if not sep:
        raise ValueError(f"bad group descriptor {desc!r}: expected family:parameter")
    if head == "lamplighter":
        return LamplighterContext(
            parse_int(rest, f"lamp modulus in {desc!r}"), reach=reach
        )
    if head == "bs":
        return BaumslagSolitarContext(parse_int(rest, f"base in {desc!r}"), reach=reach)
    if head == "matrix":
        return load_matrix_config(rest)
    raise ValueError(f"unknown group family {head!r}")

