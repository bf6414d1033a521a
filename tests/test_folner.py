import functools
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    are_conjugate,
    congruence_witness,
    element,
    finite_n_solutions,
    left_defect_elementwise,
    right_defect_elementwise,
    window_nonempty,
)
from abcgroups.conjugacy import conjugacy_key
from abcgroups.enumeration import ResourceCapError
from abcgroups.folner import (
    folner_box,
    left_defect,
    right_defect,
    separating_translate,
    translate_experiment,
)
from abcgroups.groups import BaumslagSolitarContext, Element, LamplighterContext


def test_box_sizes():
    ctx = BaumslagSolitarContext(2)
    assert folner_box(ctx, 1).size == 8
    assert folner_box(ctx, 2).size == 128
    assert folner_box(ctx, 3).size == 1536
    assert folner_box(BaumslagSolitarContext(3), 1).size == 27


def test_box_contents():
    ctx = BaumslagSolitarContext(2)
    box = folner_box(ctx, 2)
    assert ctx.identity in box.elements
    for (num, e), p in box.elements:
        assert 0 <= p < 2
        assert 0 <= e <= 2
        # the kernel entry lies on the grid 2^-2 Z inside [0, 2^4)
        value = Fraction(num, 2**e)
        assert 0 <= value < 2**4


def test_box_rejects_bad_arguments():
    ctx = BaumslagSolitarContext(2)
    with pytest.raises(ValueError):
        folner_box(ctx, 0)
    with pytest.raises(ValueError):
        folner_box(LamplighterContext(2), 1)
    with pytest.raises(ResourceCapError):
        folner_box(ctx, 3, element_cap=100)


def test_right_defect_values():
    ctx = BaumslagSolitarContext(2)
    g0 = Element((1, 0), 0)
    t = Element((0, 0), 1)
    expected = {1: Fraction(1, 2), 2: Fraction(3, 16), 3: Fraction(7, 96)}
    for n, value in expected.items():
        box = folner_box(ctx, n)
        assert right_defect(ctx, box, g0) == value
        assert right_defect(ctx, box, t) == Fraction(2, n)
    assert right_defect(ctx, folner_box(ctx, 2), ctx.identity) == 0


def test_left_defect_values():
    ctx = BaumslagSolitarContext(2)
    t = Element((0, 0), 1)
    for n, value in ((1, Fraction(2)), (2, Fraction(3, 2)), (3, Fraction(4, 3))):
        assert left_defect(ctx, folner_box(ctx, n), t) == value


def test_right_defects_decrease():
    ctx = BaumslagSolitarContext(2)
    boxes = [folner_box(ctx, n) for n in range(1, 5)]
    for gen in ctx.generators():
        values = [right_defect(ctx, box, gen) for box in boxes]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_congruence_witness_examples():
    ctx = BaumslagSolitarContext(2)
    assert congruence_witness(ctx, 5, 5, 1) == 0
    assert congruence_witness(ctx, 1, 2, 2) == 1
    assert congruence_witness(ctx, 1, 3, 2) is None
    assert congruence_witness(ctx, 7, 14, 3) == 0
    with pytest.raises(ValueError):
        congruence_witness(ctx, 1, 2, 0)


def test_witness_agrees_with_class_keys():
    for k in (2, 3):
        ctx = BaumslagSolitarContext(k)
        for n in range(1, 5):
            for a in range(1, 13):
                ga = element(ctx, (a, 0), n)
                for b in range(1, 13):
                    gb = element(ctx, (b, 0), n)
                    found = congruence_witness(ctx, a, b, n) is not None
                    assert found == are_conjugate(ctx, ga, gb)


def test_window_nonempty():
    ctx = BaumslagSolitarContext(2)
    assert window_nonempty(ctx, 7, 4, 2)
    # interval [6, 12/5] is empty
    assert not window_nonempty(ctx, 1, 3, 2)
    with pytest.raises(ValueError):
        window_nonempty(ctx, 0, 3, 2)
    with pytest.raises(ValueError):
        window_nonempty(ctx, 1, 3, 0)


def test_finite_n_solutions():
    ctx = BaumslagSolitarContext(2)
    sol = finite_n_solutions(ctx, 1, 3, 30)
    assert sol.solutions == (1,)
    assert sol.window_limit == 0
    sol2 = finite_n_solutions(ctx, 3, 5, 20)
    assert sol2.solutions == (1, 3)
    assert sol2.window_limit == 3
    # past both bounds the congruence never holds again
    for n in range(4, 40):
        assert congruence_witness(ctx, 3, 5, n) is None


def test_finite_n_solutions_rejects_power_ratios():
    ctx = BaumslagSolitarContext(2)
    with pytest.raises(ValueError):
        finite_n_solutions(ctx, 1, 4, 10)
    with pytest.raises(ValueError):
        finite_n_solutions(ctx, 2, 1, 10)
    with pytest.raises(ValueError):
        finite_n_solutions(ctx, 0, 3, 10)


def test_separating_translate_validation():
    with pytest.raises(ValueError, match="needs a bs context"):
        separating_translate(
            LamplighterContext(2), folner_box(BaumslagSolitarContext(2), 1)
        )


class MergingBaumslagSolitar(BaumslagSolitarContext):
    """A bs context whose stratum key puts the element ``merged`` in the
    class of ``kept``, as a wrong key would."""

    def __init__(self, k, kept, merged):
        super().__init__(k)
        self.kept, self.merged = kept, merged

    def stratum_key(self, p):
        key = super().stratum_key(p)
        if p != self.merged.texp:
            return key
        kept, merged = self.kept.kpart, self.merged.kpart
        return lambda a: key(kept if a == merged else a)


def test_separating_translate_refuses_a_repeated_key():
    # the translates of (1/2, t) and (3/2, t) share a key in layer 1 of F_2
    ctx = BaumslagSolitarContext(2)
    g = separating_translate(ctx, folner_box(ctx, 2)).element
    kept, merged = (ctx.multiply(g, element(ctx, (b, 1), 1)) for b in (1, 3))
    merging = MergingBaumslagSolitar(2, kept, merged)
    with pytest.raises(ValueError, match="power of 2") as refused:
        separating_translate(merging, folner_box(merging, 2))
    assert "(1/2^1; t^1)" in str(refused.value)
    assert "(3/2^1; t^1)" in str(refused.value)


def test_translate_experiment_small():
    ctx = BaumslagSolitarContext(2)
    report = translate_experiment(ctx, 1)
    assert report.k == 2 and report.n == 1
    assert report.box_size == 8
    assert report.classes == 8
    assert report.ratio == 1
    assert report.matches
    assert report.right_defects["t"] == 2
    assert report.right_defects["g0"] == Fraction(1, 2)
    assert report.left_defect_t == 2

    second = translate_experiment(ctx, 2)
    assert second.box_size == second.classes == 128
    assert second.matches


def test_translate_experiment_as_dict():
    ctx = BaumslagSolitarContext(2)
    report = translate_experiment(ctx, 1)
    data = report.as_dict(ctx)
    blob = json.dumps(data, sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["ratio"] == "1"
    assert parsed["matches"] is True
    assert parsed["right_defects"]["t"] == "2"
    assert parsed["translate"]["shift"] == report.translate.shift


def test_translate_experiment_cap():
    ctx = BaumslagSolitarContext(2)
    with pytest.raises(ResourceCapError):
        translate_experiment(ctx, 3, element_cap=1000)


# boxes on which the search result is rechecked by full key scans
SCANNED_BOXES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


def full_key_count(ctx, g, elements) -> int:
    return len({conjugacy_key(ctx, ctx.multiply(g, x)) for x in elements})


def shifted_parts(ctx, collection) -> dict:
    """texp -> shifted cleared K-parts of the collection, from the module
    doc's formulas: n2 = max denominator exponent, shift = 2 max|v| + 1."""
    n2 = max(e for (_, e), _ in collection)
    cleared = [(num * ctx.k ** (n2 - e), p) for (num, e), p in collection]
    shift = 2 * max(abs(v) for v, _ in cleared) + 1
    out: dict = {}
    for v, p in cleared:
        out.setdefault(p, []).append(shift + v)
    return out


@pytest.mark.parametrize("k,n", SCANNED_BOXES)
def test_separating_translate_rechecked_by_full_scan(k, n):
    ctx = BaumslagSolitarContext(k)
    box = folner_box(ctx, n)
    sep = separating_translate(ctx, box)
    assert sep.classes == box.size
    assert full_key_count(ctx, sep.element, box.elements) == box.size
    # no pair in a stratum of gF_n is conjugate at the derived exponent,
    # checked by the congruence alone, without the class key
    for p, parts in shifted_parts(ctx, box.elements).items():
        exponent = sep.n1 + sep.n2 + p
        for i, x in enumerate(parts):
            for y in parts[i + 1 :]:
                assert congruence_witness(ctx, x, y, exponent) is None


@pytest.mark.parametrize("k,n", SCANNED_BOXES)
def test_separating_translate_follows_the_module_doc(k, n):
    ctx = BaumslagSolitarContext(k)
    box = folner_box(ctx, n)
    sep = separating_translate(ctx, box)
    # the box's finest grid is k^-n, and its cleared parts fill [0, M]
    n2 = max(e for (_, e), _ in box.elements)
    assert n2 == n
    parts = shifted_parts(ctx, box.elements)
    assert sorted(parts) == list(range(n))
    shifted = sorted(parts[0])
    assert all(sorted(layer) == shifted for layer in parts.values())
    shift = shifted[0]
    # shifted by L = 2M + 1, the parts lie in [2M + 1, 3M + 1]
    assert shifted[-1] == 3 * (shift - 1) // 2 + 1
    digits = next(d for d in itertools.count() if k**d > shifted[-1])
    n1 = 1 + max(0, 2 * digits - n2)
    assert (sep.n1, sep.n2, sep.shift) == (n1, n2, shift)
    assert sep.element == element(ctx, (shift * k**n1, 0), n1 + n2)


@pytest.mark.parametrize("k,n", SCANNED_BOXES)
def test_right_defect_is_inverse_symmetric(k, n):
    ctx = BaumslagSolitarContext(k)
    box = folner_box(ctx, n)
    for gen in ctx.generators():
        assert right_defect(ctx, box, gen) == right_defect(ctx, box, ctx.invert(gen))


@pytest.mark.parametrize("k,n", SCANNED_BOXES)
def test_layered_defects_match_elementwise(k, n):
    ctx = BaumslagSolitarContext(k)
    box = folner_box(ctx, n)
    elements = box.elements
    probes = [
        *ctx.generators(),
        ctx.identity,
        element(ctx, (3, 0), 2),
        element(ctx, (1, 1), -1),
    ]
    for x in probes:
        assert right_defect(ctx, box, x) == right_defect_elementwise(ctx, elements, x)
        assert left_defect(ctx, box, x) == left_defect_elementwise(ctx, elements, x)


@functools.cache
def box_and_elements(k, n):
    ctx = BaumslagSolitarContext(k)
    box = folner_box(ctx, n)
    return ctx, box, box.elements


@settings(max_examples=150, deadline=None)
@given(
    # |q| up to n + 1, so that whole layers of the box leave it
    knq=st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]).flatmap(
        lambda kn: st.tuples(st.just(kn), st.integers(-kn[1] - 1, kn[1] + 1))
    ),
    num=st.integers(-20, 20),
    e=st.integers(0, 2),
)
def test_layered_defects_match_elementwise_on_boxes(knq, num, e):
    (k, n), q = knq
    ctx, box, elements = box_and_elements(k, n)
    probe = element(ctx, (num, e), q)
    assert right_defect(ctx, box, probe) == right_defect_elementwise(
        ctx, elements, probe
    )
    assert left_defect(ctx, box, probe) == left_defect_elementwise(
        ctx, elements, probe
    )


class CountingBaumslagSolitar(BaumslagSolitarContext):
    """Counts kpart_add calls, the strata whose key function is built, and
    the per-element conjugacy_key calls."""

    def __init__(self, k):
        super().__init__(k)
        self.adds = 0
        self.built = []
        self.element_keys = 0

    def kpart_add(self, a, b):
        self.adds += 1
        return super().kpart_add(a, b)

    def _build_stratum_key(self, p):
        self.built.append(p)
        return super()._build_stratum_key(p)

    def conjugacy_key(self, g):
        self.element_keys += 1
        return super().conjugacy_key(g)


def test_separating_translate_adds_once_per_kpart():
    # g (a, t^p) has the same K-part in every layer p of the box
    ctx = CountingBaumslagSolitar(2)
    box = folner_box(ctx, 3)
    ctx.adds = 0
    sep = separating_translate(ctx, box)
    assert sep.classes == box.size == 3 * len(box.kparts)
    assert ctx.adds == len(box.kparts)


@pytest.mark.parametrize("k,n", SCANNED_BOXES)
def test_separating_translate_builds_one_key_per_layer(k, n):
    # the key pass keys every product of a layer through that layer's
    # stratum function, with no Element and no per-element key call
    ctx = CountingBaumslagSolitar(k)
    box = folner_box(ctx, n)
    sep = separating_translate(ctx, box)
    assert sep.classes == box.size
    exponent = sep.n1 + sep.n2
    assert ctx.built == [exponent + p for p in range(n)]
    assert ctx.element_keys == 0


def test_translate_experiment_reports_the_key_pass_count():
    ctx = BaumslagSolitarContext(3)
    report = translate_experiment(ctx, 2)
    assert report.classes == report.translate.classes == report.box_size == 1458
    assert report.matches
    assert report.right_defects["g0"] == report.right_defects["g1"]
    assert report.right_defects["t"] == report.right_defects["T"]
