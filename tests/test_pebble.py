import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreglab import pebble
from polyreglab.pebble import (
    Blind,
    Pebble,
    Pebble0,
    PebbleDepth,
    PebbleError,
    Reg,
    apply,
    apply_trace,
    builtin_polyfun,
    builtin_polyfuns,
    depth,
    innsq_direct,
    max_growth_constant,
    parse_polyfun,
    render_polyfun,
)
from polyreglab.twoway import builtin_regular_fn, erasing_fn, identity_fn
from polyreglab.words import Alphabet, Word, concat, mark_token

INNSQ_CASES = {
    "aba#baa#bb": "abaaba#baabaa#bbbb",
    "###": "###",
    "#": "#",
    "": "",
    "a": "",
    "ab": "",
    "ba#": "ba#",
    "#ab": "#ab",
    "a##b": "aa##bb",
    "a#b#a": "aa#bb#aa",
}


def test_innsq_direct_examples():
    for src, want in INNSQ_CASES.items():
        assert innsq_direct(Word.parse(src)).render() == want, src


def test_innsq_pebble_examples():
    p = builtin_polyfun("innsq-pebble")
    for src, want in INNSQ_CASES.items():
        assert apply(p, Word.parse(src)).render() == want, src


def test_innsq_pebble_agrees_with_direct_exhaustively():
    p = builtin_polyfun("innsq-pebble")
    for n in range(0, 7):
        for toks in itertools.product("ab#", repeat=n):
            w = Word(toks)
            assert apply(p, w) == innsq_direct(w), w.render()


def test_builtin_registry():
    assert "innsq-pebble" in builtin_polyfuns()
    with pytest.raises(KeyError):
        builtin_polyfun("no-such-polyfun")


def test_innsq_tree_shape():
    p = builtin_polyfun("innsq-pebble")
    assert isinstance(p, Pebble)
    assert set(p.branches) == {"•", "#"}
    assert isinstance(p.branches["•"], Blind)
    assert isinstance(p.branches["#"], Pebble0)


def test_depths():
    p = builtin_polyfun("innsq-pebble")
    assert depth(p) == PebbleDepth(3, "pebble")
    assert depth(p.branches["•"]) == PebbleDepth(2, "blind")
    assert depth(p.branches["#"]) == PebbleDepth(0, "blind")
    assert depth(Reg(identity_fn(Alphabet.of("a")))) == PebbleDepth(1, "blind")


def test_trace_decomposes_the_output():
    p = builtin_polyfun("innsq-pebble")
    for src in INNSQ_CASES:
        w = Word.parse(src)
        out, rows = apply_trace(p, w)
        assert out == apply(p, w)
        assert sum(n for _, _, n in rows) == len(out)
        for letter, origin, _ in rows:
            assert letter in p.branches
            assert 1 <= origin <= len(w)


def test_trace_on_leaf_has_no_rows():
    out, rows = apply_trace(Pebble0(default=Word.parse("x")), Word())
    assert out == Word.parse("x")
    assert rows == []


def test_growth_bound():
    p = builtin_polyfun("innsq-pebble")
    c = max_growth_constant(p)
    assert c == 1
    k = depth(p).k
    for n in range(0, 7):
        for toks in itertools.product("ab#", repeat=n):
            w = Word(toks)
            assert len(apply(p, w)) <= (c * (len(w) + 1)) ** k


def _definitional(p, w):
    """The output of ``p`` on ``w`` and its root's trace rows, straight
    from the definition: every head letter runs its branch, blind or not."""
    if isinstance(p, Reg):
        return p.fn(w).word(), []
    if isinstance(p, Pebble0):
        for pattern, out in p.cases:
            if re.fullmatch(pattern, w.render()):
                return out, []
        return p.default, []
    rows, pieces = [], []
    for letter, (i,) in p.head(w):
        arg = w
        if isinstance(p, Pebble):
            arg = Word(w.tokens[: i - 1] + (mark_token(w.tokens[i - 1]),) + w.tokens[i:])
        piece, _ = _definitional(p.branches[letter], arg)
        rows.append((letter, i, len(piece)))
        pieces.append(piece)
    return concat(pieces), rows


def _block_marker_blind():
    """A blind tree whose head repeats two letters: • per a or b, # per #."""
    classify = Pebble0(
        cases=(("a.*", Word.parse("x")), (".*#.*#.*", Word.parse("yy")), ("b*", Word())),
        default=Word.parse("z"),
    )
    drop_hashes = Reg(erasing_fn(Alphabet.of("a", "b", "#"), Alphabet.of("#")))
    return Blind(builtin_regular_fn("block-marker"), {"•": classify, "#": drop_hashes})


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(["innsq-pebble", "block-marker blind"]),
    st.lists(st.sampled_from("ab#"), max_size=12),
)
def test_apply_and_trace_agree_with_the_definition(tree, toks):
    """Sharing a blind node's pieces per head letter gives the output and
    the trace rows of running its branch at every head letter."""
    p = builtin_polyfun(tree) if tree == "innsq-pebble" else _block_marker_blind()
    w = Word(tuple(toks))
    want, want_rows = _definitional(p, w)
    assert apply(p, w) == want
    assert apply_trace(p, w) == (want, want_rows)


def test_blind_runs_its_branch_once_per_distinct_head_letter(monkeypatch):
    """In innsq-pebble the outer head calls the blind node once per
    non-empty block, and the blind head outputs one • per #, so with k #s
    its branch would run k times per call; it runs once."""
    p = builtin_polyfun("innsq-pebble")
    copier = p.branches["•"]
    copy = copier.branches["•"]
    calls = {copier: 0, copy: 0}
    inner = pebble.apply

    def counting(q, w):
        if q in calls:
            calls[q] += 1
        return inner(q, w)

    monkeypatch.setattr(pebble, "apply", counting)
    for k in range(1, 5):
        w = Word.parse("#".join(["ab", "b", "aab", "", "a"][: k + 1]))
        calls.update(dict.fromkeys(calls, 0))
        assert pebble.apply(p, w) == innsq_direct(w)
        assert calls[copier] == sum(1 for block in w.render().split("#") if block)
        assert calls[copy] == calls[copier]


# -- leaves -------------------------------------------------------------------


def test_pebble0_first_match_wins():
    p = Pebble0(
        cases=(("a*", Word.parse("x")), ("a*b", Word.parse("y"))),
        default=Word.parse("z"),
    )
    assert apply(p, Word.parse("aaa")) == Word.parse("x")
    assert apply(p, Word.parse("aab")) == Word.parse("y")
    assert apply(p, Word.parse("ba")) == Word.parse("z")


def test_pebble0_matches_whole_rendering():
    p = Pebble0(cases=(("a", Word.parse("x")),), default=Word())
    assert apply(p, Word.parse("aa")) == Word()


def test_constant_leaf_does_not_render_its_argument(monkeypatch):
    rendered = []
    monkeypatch.setattr(Word, "render", lambda w: rendered.append(w) or "")
    assert apply(Pebble0(default=Word.parse("#")), Word.parse("ab#")) == Word.parse("#")
    assert rendered == []


def test_constant_leaf_reads_the_plain_word(monkeypatch):
    """A pebble node gives a Pebble0 without cases the word itself, and
    every other branch, a piecewise one too, the word with the origin
    underlined."""
    calls = []
    inner = pebble.apply

    def recording(p, w):
        calls.append((p, w))
        return inner(p, w)

    monkeypatch.setattr(pebble, "apply", recording)
    constant = Pebble0(default=Word.of("#"))
    piecewise = Pebble0(cases=(("_a.*", Word.of("x")),), default=Word.of("y"))
    tree = Pebble(builtin_regular_fn("block-marker"), {"•": piecewise, "#": constant})
    w = Word.parse("ab#b#a")
    assert pebble.apply(tree, w) == Word.parse("x#y#y")
    assert [arg for p, arg in calls if p is constant] == [w, w]
    assert all(arg is w for p, arg in calls if p is constant)
    marked = [arg.tokens for p, arg in calls if p is piecewise]
    assert marked == [
        ("_a", "b", "#", "b", "#", "a"),
        ("a", "b", "#", "_b", "#", "a"),
        ("a", "b", "#", "b", "#", "_a"),
    ]


def test_pebble0_rejects_bad_regex():
    with pytest.raises(PebbleError, match="bad matcher regex"):
        Pebble0(cases=(("(", Word()),))


def test_reg_leaf():
    fn = builtin_regular_fn("reverse-blocks-ab")
    assert apply(Reg(fn), Word.parse("a#aa")) == Word.parse("aabb#ab")


# -- branch validation ----------------------------------------------------------


def test_branches_must_cover_head_outputs():
    head = builtin_regular_fn("block-marker")  # outputs • and #
    with pytest.raises(PebbleError, match="misses head outputs"):
        Blind(head, {"#": Pebble0()})


def test_stray_branches_rejected():
    head = builtin_regular_fn("block-marker")
    with pytest.raises(PebbleError, match="never outputs"):
        Blind(head, {"•": Pebble0(), "#": Pebble0(), "x": Pebble0()})


def test_pebble_branch_alphabet_must_accept_marked_words():
    head = builtin_regular_fn("block-marker")
    narrow = Reg(identity_fn(Alphabet.of("a", "b", "#")))
    with pytest.raises(PebbleError, match="marked words"):
        Pebble(head, {"•": narrow, "#": narrow})


def test_blind_branches_may_stay_unmarked():
    head = builtin_regular_fn("block-marker")
    narrow = Reg(identity_fn(Alphabet.of("a", "b", "#")))
    p = Blind(head, {"•": narrow, "#": narrow})
    assert apply(p, Word.parse("ab#")) == Word.parse("ab#ab#")


# -- file format ----------------------------------------------------------------


def test_builtin_file_round_trip():
    p = builtin_polyfun("innsq-pebble")
    back = parse_polyfun(render_polyfun(p))
    for src in INNSQ_CASES:
        w = Word.parse(src)
        assert apply(back, w) == apply(p, w), src


def test_piecewise_file_form():
    p = Pebble0(cases=(("a+", Word.parse("x")),), default=Word.parse("yz"))
    back = parse_polyfun(render_polyfun(p))
    assert isinstance(back, Pebble0)
    assert apply(back, Word.parse("aa")) == Word.parse("x")
    assert apply(back, Word.parse("b")) == Word.parse("yz")


def test_reg_file_form_uses_builtin_names():
    text = render_polyfun(Reg(builtin_regular_fn("hash-counter")))
    assert "hash-counter" in text
    back = parse_polyfun(text)
    assert apply(back, Word.parse("a#b#")) == Word(("•", "•"))


# A malformed ``.pfn`` text, by what is wrong with it, and the message that
# reading it raises.
POLYFUN_READER_ERRORS = {
    "not-a-list": ("reverse-blocks-ab\n", "bad combinator expression reverse-blocks-ab"),
    "reg-malformed": ("(reg)\n", "(reg <name-or-file>) malformed"),
    "const-malformed": ("(const a (b))\n", "(const <tokens...>) malformed"),
    "piecewise-malformed": (
        "(piecewise ((a a)))\n",
        "(piecewise ((<regex> <tokens...>) ...) (<tokens...>)) malformed",
    ),
    "bad-piecewise-case": ("(piecewise (a) ())\n", "bad piecewise case a"),
    "pebble-malformed": (
        "(pebble reverse-blocks-ab)\n",
        "(pebble <regfn> ((i <subtree>) ...)) malformed",
    ),
    "blind-malformed": (
        "(blind (reg reverse-blocks-ab) ())\n",
        "(blind <regfn> ((i <subtree>) ...)) malformed",
    ),
    "bad-branch": ("(pebble reverse-blocks-ab ((a)))\n", "bad branch (a)"),
}


@pytest.mark.parametrize("case", sorted(POLYFUN_READER_ERRORS))
def test_polyfun_reader_errors(case):
    """Each way a ``.pfn`` combinator expression can be malformed raises
    its own message."""
    text, message = POLYFUN_READER_ERRORS[case]
    with pytest.raises(PebbleError) as caught:
        parse_polyfun(text)
    assert str(caught.value) == message


def test_parse_rejects_unknown_heads():
    with pytest.raises(PebbleError, match="unknown combinator head"):
        parse_polyfun("(mystery a b)")


def test_parse_rejects_unknown_regfn():
    with pytest.raises(PebbleError, match="neither a builtin"):
        parse_polyfun("(reg no-such-fn)")


def test_file_heads_render_as_the_reference_they_were_read_by(tmp_path):
    """A head read from a file whose ``name`` line names a builtin renders
    as the file, not as the builtin, so the tree re-parsed beside it is the
    same function."""
    from polyreglab.pebble import polyfuns
    from polyreglab.twoway import render_transducer

    table = render_transducer(builtin_regular_fn("reverse-blocks-ab").transducer)
    renamed = table.replace("name reverse-blocks-ab", "name hash-counter")
    (tmp_path / "m.2dft").write_text(renamed, encoding="utf-8")
    (tmp_path / "t.pfn").write_text("(reg m.2dft)\n", encoding="utf-8")
    branches = "((# (const #)) (a (reg m.2dft)) (b (const b)))"
    (tmp_path / "p.pfn").write_text(f"(blind m.2dft {branches})\n", encoding="utf-8")
    w = Word.parse("aa#a")
    for name in ("t.pfn", "p.pfn"):
        tree = polyfuns.load(name, str(tmp_path))
        back = parse_polyfun(render_polyfun(tree), str(tmp_path))
        assert apply(back, w) == apply(tree, w)
    assert render_polyfun(polyfuns.load("t.pfn", str(tmp_path))) == "(reg m.2dft)\n"
    assert apply(polyfuns.load("t.pfn", str(tmp_path)), w) == Word.parse("ab#aabb")
    assert render_polyfun(builtin_polyfun("innsq-pebble")).startswith("(pebble block-marker ")
