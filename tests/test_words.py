import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyreglab.words import (
    Alphabet,
    OriginWord,
    Word,
    WordError,
    concat,
    erase,
    mark_token,
    marked_alphabet,
)


def test_alphabet_basics():
    ab = Alphabet.of("a", "b")
    assert "a" in ab and "c" not in ab
    assert len(ab) == 2
    assert list(ab) == ["a", "b"]
    assert ab.render() == "a b"
    assert (ab | Alphabet.of("c")).letters == frozenset("abc")
    assert Alphabet.of("a").issubset(ab)


def test_alphabet_rejects_bad_tokens():
    with pytest.raises(WordError):
        Alphabet.of("")
    with pytest.raises(WordError):
        Alphabet.of("a b")


def test_word_parse_per_char():
    w = Word.parse("aba")
    assert w.tokens == ("a", "b", "a")
    assert len(w) == 3


def test_word_parse_whitespace_split():
    w = Word.parse("club1 a club1")
    assert w.tokens == ("club1", "a", "club1")


def test_word_parse_greedy_with_alphabet():
    alpha = Alphabet.of("a", "♣1")
    assert Word.parse("♣1a♣1", alpha).tokens == ("♣1", "a", "♣1")
    with pytest.raises(WordError):
        Word.parse("♣2", alpha)


def test_word_indexing_is_one_based():
    w = Word.parse("abc")
    assert w[1] == "a" and w[3] == "c"
    with pytest.raises(WordError):
        w[0]
    with pytest.raises(WordError):
        w[4]


def test_word_concat_count_erase():
    w = Word.parse("ab") + Word.parse("ba")
    assert w.render() == "abba"
    assert w.count("b") == 2
    assert erase(w, {"b"}).render() == "aa"
    assert concat([Word.parse("a"), Word(), Word.parse("b")]).render() == "ab"


def test_render_spaces_only_for_multichar_tokens():
    assert Word.of("a", "b").render() == "ab"
    assert Word.of("a", "♣1").render() == "a ♣1"
    assert Word().render() == ""


def test_marking_round_trip():
    assert mark_token("a") == "_a"
    marked = marked_alphabet(Alphabet.of("a", "#"))
    assert marked.letters == frozenset({"a", "#", "_a", "_#"})


def test_marked_alphabet_collision():
    with pytest.raises(WordError):
        marked_alphabet(Alphabet.of("a", "_a"))


def test_origin_word():
    ow = OriginWord((("a", (1,)), ("b", (2, 3))))
    assert ow.word().render() == "ab"
    assert ow.origins() == ((1,), (2, 3))
    assert "a/1" in ow.render()


@given(st.lists(st.sampled_from("ab#"), max_size=12))
def test_parse_render_round_trip_single_char(tokens):
    w = Word(tuple(tokens))
    assert Word.parse(w.render(), Alphabet.of("a", "b", "#")) == w


@given(st.lists(st.sampled_from(["a", "♣1", "box2"]), max_size=10))
def test_parse_render_round_trip_multi_char(tokens):
    w = Word(tuple(tokens))
    alpha = Alphabet.of("a", "♣1", "box2")
    assert Word.parse(w.render(), alpha) == w
