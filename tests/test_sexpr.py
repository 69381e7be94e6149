import pytest

from polyreglab import sexpr
from polyreglab.sexpr import QuotedAtom, SexprError


def test_parse_nested():
    assert sexpr.parse_one("(a (b c) d)") == ["a", ["b", "c"], "d"]


def test_comments_and_whitespace():
    text = "; header\n(a ; trailing\n  b)\n"
    assert sexpr.parse_one(text) == ["a", "b"]


def test_quoted_atoms():
    got = sexpr.parse_one('(re "a*#" x)')
    assert got == ["re", "a*#", "x"]
    assert isinstance(got[1], QuotedAtom)
    assert not isinstance(got[2], QuotedAtom)


def test_quoted_escapes():
    got = sexpr.parse_one(r'("a\"b\\c")')
    assert got == ['a"b\\c']


def test_render_round_trip():
    expr = ["pebble", "f", [["#", ["const", "#"]], ["•", ["reg", "g"]]]]
    assert sexpr.parse_one(sexpr.render(expr)) == expr


def test_render_quotes_when_needed():
    assert sexpr.render(QuotedAtom("a b")) == '"a b"'
    assert sexpr.render("plain") == "plain"


def test_parse_all():
    assert sexpr.parse_all("(a) (b c)") == [["a"], ["b", "c"]]


def test_errors():
    with pytest.raises(SexprError):
        sexpr.parse_one("(a")
    with pytest.raises(SexprError):
        sexpr.parse_one("(a))")
    with pytest.raises(SexprError):
        sexpr.parse_one("")


# A malformed s-expression text, by what is wrong with it, and the message
# that reading it raises.
SEXPR_READER_ERRORS = {
    "unterminated-string": ('(a "b c)', "unterminated string literal"),
    "unterminated-final-string": ('"', "unterminated string literal"),
    "missing-close": ("(a", "missing closing parenthesis"),
    "unexpected-close": ("(a))", "unexpected closing parenthesis"),
    "empty": ("", "expected a single expression, found 0"),
}


@pytest.mark.parametrize("case", sorted(SEXPR_READER_ERRORS))
def test_sexpr_reader_errors(case):
    text, message = SEXPR_READER_ERRORS[case]
    with pytest.raises(SexprError) as caught:
        sexpr.parse_one(text)
    assert str(caught.value) == message
