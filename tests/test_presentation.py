import pytest
from hypothesis import given, strategies as st

from fillprobe.errors import PresentationSyntaxError
from fillprobe.presentation import (
    GroupPresentation,
    cyclically_reduce,
    free_reduce,
    inverse_word,
    parse_presentation,
    parse_word,
    shortlex_key,
    word_to_text,
)

letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
words = st.lists(letters, max_size=24).map(tuple)


def test_parse_free_group_pipe_form():
    p = parse_presentation("a,b |")
    assert p.generators == ("a", "b")
    assert p.relators == ()


def test_parse_z2_pipe_form():
    p = parse_presentation("a,b | a b a^-1 b^-1")
    assert p.num_generators == 2
    assert len(p.relators) == 1
    assert len(p.relators[0]) == 4


def test_parse_unknown_generator():
    with pytest.raises(PresentationSyntaxError) as exc:
        parse_presentation("a | b")
    assert "unknown generator" in str(exc.value)


def test_parse_line_format_with_comments():
    src = """
# free abelian
generators: a, b
relator: a b a^-1 b^-1   # the commutator
"""
    p = parse_presentation(src)
    assert p.generators == ("a", "b")
    assert p.relators == ((1, 2, -1, -2),)


def test_parse_json_format():
    p = parse_presentation('{"generators": ["x", "y"], "relators": ["x y x^-1 y^-1"]}')
    assert p.generators == ("x", "y")
    assert p.relators == ((1, 2, -1, -2),)


def test_parse_powers():
    p = parse_presentation("a, t | t a t^-1 a^-2")
    assert p.relators[0] == (2, 1, -2, -1, -1)


def test_trivial_relator_dropped_with_warning():
    p = parse_presentation("a, b | a a^-1")
    assert p.relators == ()
    assert len(p.warnings) == 1


def test_syntax_error_carries_position():
    with pytest.raises(PresentationSyntaxError) as exc:
        parse_presentation("generators: a\nrelator: a$\n")
    assert exc.value.line == 2


def test_duplicate_generators_rejected():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("a, a |")


def test_free_reduce_examples():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((1, 2, -2, 1)) == (1, 1)
    assert free_reduce(()) == ()


def test_cyclic_reduction():
    assert cyclically_reduce((1, 2, -1)) == (2,)
    assert cyclically_reduce((1, 2, 1, -1, -2, -1)) == ()


@given(words)
def test_free_reduce_shrinks_and_keeps_parity(w):
    r = free_reduce(w)
    assert len(r) <= len(w)
    assert (len(w) - len(r)) % 2 == 0
    assert free_reduce(r) == r


@given(words)
def test_word_inverse_reduces_to_identity(w):
    assert free_reduce(w + inverse_word(w)) == ()


@given(words)
def test_word_text_roundtrip(w):
    gens = ("a", "b", "c")
    text = word_to_text(w, gens)
    assert parse_word(text, gens) == w


def test_shortlex_orders_inverse_after_generator():
    assert shortlex_key((1,)) < shortlex_key((-1,))
    assert shortlex_key((-1,)) < shortlex_key((2,))
    assert shortlex_key((2,)) < shortlex_key((1, 1))


def test_make_validates_letter_range():
    with pytest.raises(PresentationSyntaxError):
        GroupPresentation(("a",), ((2,),))
