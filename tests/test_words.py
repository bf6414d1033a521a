import pytest
from hypothesis import given, strategies as st

from _oracles import conjugate
from abcgroups.conjugacy import conjugacy_key
from abcgroups.groups import (
    BaumslagSolitarContext,
    Element,
    GroupContext,
    LamplighterContext,
)
from abcgroups.words import (
    cyclic_reduce,
    evaluate,
    format_word,
    generator_letters,
    letter_element,
    parse_word,
    t_exponent,
    to_staircase,
)


def is_ascending_form(w: tuple[str, ...]) -> bool:
    """True for words u_0 t u_1 t ... u_{m-1} t with no T letters, m > 0."""
    return bool(w) and "T" not in w and w[-1] == "t"


def cyclic_permutations(w: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [w[i:] + w[:i] for i in range(len(w))]


def distinct_cyclic_values(ctx: GroupContext, w: tuple[str, ...]) -> int:
    rotations = cyclic_permutations(w) or [w]
    return len({evaluate(ctx, rot) for rot in rotations})


def test_parse_format_round_trip():
    w = parse_word("g0 t T g12 G3")
    assert w == ("g0", "t", "T", "g12", "G3")
    assert format_word(w) == "g0 t T g12 G3"
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("g0 x t")
    with pytest.raises(ValueError):
        parse_word("g")


def test_letter_element():
    ctx = BaumslagSolitarContext(2)
    assert letter_element(ctx, "t") == Element((0, 0), 1)
    assert letter_element(ctx, "T") == Element((0, 0), -1)
    assert letter_element(ctx, "g0") == Element((1, 0), 0)
    assert letter_element(ctx, "G0") == Element((-1, 0), 0)
    with pytest.raises(ValueError):
        letter_element(ctx, "g7")


def test_evaluate():
    ctx = BaumslagSolitarContext(2)
    # t g0 T multiplies the kernel entry by k
    assert evaluate(ctx, parse_word("t g0 T")) == Element((2, 0), 0)
    assert evaluate(ctx, parse_word("T g0 t")) == Element((1, 1), 0)
    assert evaluate(ctx, parse_word("g0 t g0 t")) == Element((3, 0), 2)
    lamp = LamplighterContext(2)
    assert evaluate(lamp, parse_word("g0 t g0 T")) == Element(((0, 1), (1, 1)), 0)


def test_t_exponent():
    assert t_exponent(parse_word("t t T g0 t")) == 2
    assert t_exponent(parse_word("g0 G0")) == 0


def test_staircase_examples():
    ctx = BaumslagSolitarContext(2)
    w = parse_word("t g0 T g0 t t")
    s = to_staircase(w)
    assert s == ("g0", "t", "g0", "t")
    assert evaluate(ctx, s) == evaluate(ctx, w)
    # letters below the baseline force a leading T block
    w2 = parse_word("T g0 t t")
    s2 = to_staircase(w2)
    assert s2 == ("T", "g0", "t", "t")
    assert evaluate(ctx, s2) == evaluate(ctx, w2)
    with pytest.raises(ValueError):
        to_staircase(parse_word("T"))


def test_staircase_never_longer():
    ctx = LamplighterContext(2)
    for text in ("g0 t t T g0 t", "t T t T", "g0 g0 t g0", "t t g0 T g0 t"):
        w = parse_word(text)
        s = to_staircase(w)
        assert len(s) <= len(w)
        assert evaluate(ctx, s) == evaluate(ctx, w)
        assert t_exponent(s) == t_exponent(w)


def test_cyclic_reduce_examples():
    ctx = BaumslagSolitarContext(2)
    w = parse_word("T g0 t t")
    red = cyclic_reduce(w)
    assert red == ("g0", "t")
    assert is_ascending_form(red)
    # conjugate values: T g0 t t evaluates to (1/2; t), g0 t to (1; t)
    a = evaluate(ctx, w)
    b = evaluate(ctx, red)
    conj = Element((0, 0), -1)
    assert conjugate(ctx, conj, b) == a
    with pytest.raises(ValueError):
        cyclic_reduce(parse_word("g0"))
    with pytest.raises(ValueError):
        cyclic_reduce(parse_word("T g0 t T"))


def test_cyclic_reduce_drops_two_t_letters_per_step():
    ctx = LamplighterContext(2)
    w = parse_word("T T g0 t t t")
    red = cyclic_reduce(w)
    assert is_ascending_form(red)
    assert t_exponent(red) == t_exponent(w) == 1
    assert len(red) == len(w) - 4


def test_is_ascending_form():
    assert is_ascending_form(parse_word("g0 t g0 t"))
    assert is_ascending_form(parse_word("t"))
    assert not is_ascending_form(parse_word(""))
    assert not is_ascending_form(parse_word("t g0"))
    assert not is_ascending_form(parse_word("T t t"))


def test_cyclic_permutations():
    w = parse_word("g0 t T")
    rots = cyclic_permutations(w)
    assert len(rots) == 3
    assert rots[0] == w
    assert rots[1] == ("t", "T", "g0")
    assert cyclic_permutations(()) == []


def test_cyclic_permutations_stay_conjugate():
    ctx = BaumslagSolitarContext(2)
    w = parse_word("g0 t g0 t T g0")
    base = evaluate(ctx, w)
    for i, rot in enumerate(cyclic_permutations(w)):
        # rotating by i conjugates by the inverted prefix
        prefix = evaluate(ctx, w[:i])
        assert evaluate(ctx, rot) == conjugate(ctx, ctx.invert(prefix), base)


def test_distinct_cyclic_values():
    ctx = BaumslagSolitarContext(2)
    assert distinct_cyclic_values(ctx, parse_word("t t")) == 1
    assert distinct_cyclic_values(ctx, ()) == 1
    lamp = LamplighterContext(2)
    # rotations of g0 t place the lamp at levels 0 and -1
    assert distinct_cyclic_values(lamp, parse_word("g0 t")) == 2


@st.composite
def random_word(draw, letters=("g0", "G0", "t", "T")):
    toks = draw(st.lists(st.sampled_from(letters), min_size=0, max_size=10))
    return tuple(toks)


@given(random_word())
def test_staircase_preserves_value(w):
    ctx = BaumslagSolitarContext(2)
    if t_exponent(w) < 0:
        with pytest.raises(ValueError):
            to_staircase(w)
        return
    s = to_staircase(w)
    assert evaluate(ctx, s) == evaluate(ctx, w)
    assert len(s) <= len(w)


@given(random_word(letters=("g0", "t", "T")))
def test_cyclic_reduce_conjugates(w):
    ctx = LamplighterContext(2)
    m = t_exponent(w)
    if m <= 0:
        with pytest.raises(ValueError):
            cyclic_reduce(w)
        return
    red = cyclic_reduce(w)
    assert is_ascending_form(red)
    assert t_exponent(red) == m
    assert len(red) <= len(w)
    assert conjugacy_key(ctx, evaluate(ctx, red)) == conjugacy_key(
        ctx, evaluate(ctx, w)
    )


def test_generator_letters_alignment():
    for ctx in (BaumslagSolitarContext(2), LamplighterContext(3)):
        letters = generator_letters(ctx)
        gens = ctx.generators()
        assert len(letters) == len(gens)
        for letter, gen in zip(letters, gens):
            assert letter_element(ctx, letter) == gen
