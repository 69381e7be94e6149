import itertools
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreglab import logic
from polyreglab.interp import builtin_interp, eval_interp, eval_interp_details, parse_interp
from polyreglab.logic import Leq, Letter, check_sortable
from polyreglab.psi import (
    DecoratedInput,
    MarkerScheme,
    PsiError,
    dcomplete_witness,
    enumerate_decorated,
    family,
    family_markers,
    fprime_oracle,
    fresh_scheme,
    psi,
)
from polyreglab.words import Alphabet, Word, erase
from test_logic import _generated

DATA = pathlib.Path(__file__).parent / "data"

COLORED_INPUT = "♣♣a♣♣♣a♣a♣♣"
COLORED_OUTPUT = "a□□□◊◊◊a□□□◊b□□□◊◊a□◊◊◊a□◊b□◊◊"


def test_colored_example_via_lift():
    lifted = psi(builtin_interp("squaring-family"))
    out = eval_interp(lifted, Word.parse(COLORED_INPUT))
    assert out.word().render() == COLORED_OUTPUT


def test_colored_example_via_oracle():
    dec = DecoratedInput.undecorate(Word.parse(COLORED_INPUT))
    assert dec.u == Word.parse("aaa")
    assert dec.p == (2, 3, 1, 2)
    got = fprime_oracle(builtin_interp("squaring-family"), dec)
    assert got.render() == COLORED_OUTPUT


def test_club_free_input_coincides_with_base():
    sq = builtin_interp("squaring-family")
    lifted = psi(sq)
    for n in range(0, 5):
        w = Word(("a",) * n)
        lift_out = eval_interp(lifted, w)
        base_out = eval_interp(sq, w)
        assert lift_out.word() == base_out.word()
        assert lift_out.origins() == base_out.origins()


def test_clubs_only_input_gives_empty_output():
    lifted = psi(builtin_interp("squaring-family"))
    assert eval_interp(lifted, Word.parse("♣♣♣")).word() == Word()


def test_oracle_with_zero_padding_is_base_output():
    I = builtin_interp("innsq-interp")
    for src in ("ab#a", "###", "a"):
        u = Word.parse(src)
        dec = DecoratedInput(u, (0,) * (len(u) + 1))
        assert fprime_oracle(I, dec) == eval_interp(I, u).word()


def test_innsq_oracle_golden():
    dec = DecoratedInput(Word.parse("a#a"), (0, 1, 0, 0))
    got = fprime_oracle(builtin_interp("innsq-interp"), dec)
    assert got.render() == "a□#a"


def test_lift_agrees_with_oracle_on_squaring_sweep():
    sq = builtin_interp("squaring-family")
    scheme = fresh_scheme(sq)
    lifted = psi(sq, scheme)
    box_diamond = (scheme.box, scheme.diamond)
    for dec in enumerate_decorated(sq.input_alphabet, 3, 2):
        want = fprime_oracle(sq, dec, scheme)
        got = eval_interp(lifted, dec.decorate(scheme.club)).word()
        assert got == want, (dec.u.render(), dec.p)
        base_letters = eval_interp(sq, dec.u).word()
        assert erase(want, box_diamond) == base_letters


def test_lift_agrees_with_oracle_on_innsq_spot_checks():
    I = builtin_interp("innsq-interp")
    scheme = fresh_scheme(I)
    lifted = psi(I, scheme)
    cases = [
        DecoratedInput(Word.parse("a#a"), (0, 1, 0, 0)),
        DecoratedInput(Word.parse("a#b"), (2, 0, 1, 0)),
        DecoratedInput(Word.parse("#"), (1, 1)),
        DecoratedInput(Word.parse("ab#"), (0, 0, 2, 1)),
        DecoratedInput(Word(), (2,)),
    ]
    for dec in cases:
        want = fprime_oracle(I, dec, scheme)
        got = eval_interp(lifted, dec.decorate(scheme.club)).word()
        assert got == want, (dec.u.render(), dec.p)


def test_lift_of_unsortable_order_stays_empty():
    demo = builtin_interp("cross-sort-demo")
    lifted = psi(demo)
    dec = DecoratedInput(Word.parse("aa"), (1, 0, 0))
    result = eval_interp_details(lifted, dec.decorate())
    assert result.word() == Word()
    assert result.diagnostic is not None
    assert result.diagnostic.kind == "order-not-linear"
    assert fprime_oracle(demo, dec) == Word()


# -- the family ----------------------------------------------------------------


def test_family_level_one_is_the_base():
    f1 = family(1)
    sq = builtin_interp("squaring-family")
    for n in range(0, 6):
        w = Word(("a",) * n)
        assert eval_interp(f1, w).word() == eval_interp(sq, w).word()


def test_family_level_two_alphabets():
    f2 = family(2)
    assert f2.input_alphabet == Alphabet.of("a", "♣1")
    assert f2.output_alphabet == Alphabet.of("a", "b", "□1", "◊1")


def test_family_level_two_quadratic_bound_exhaustive():
    # every word over {a, ♣1} up to length 10; slow but exhaustive
    f2 = family(2)
    letters = sorted(f2.input_alphabet.letters)
    for n in range(0, 11):
        for toks in itertools.product(letters, repeat=n):
            w = Word(toks)
            assert len(eval_interp(f2, w)) <= len(w) ** 2


def test_family_level_three():
    f3 = family(3)
    assert f3.input_alphabet == Alphabet.of("a", "♣1", "♣2")
    assert f3.output_alphabet == Alphabet.of("a", "b", "□1", "◊1", "□2", "◊2")
    out = eval_interp(f3, Word(("a", "♣1", "a", "♣2")))
    assert out.word().tokens == ("a", "□1", "◊1", "b", "◊2", "□1", "◊2")


def test_family_level_three_agrees_with_the_oracle_over_level_two():
    """``family(3)`` is the lift of ``family(2)`` with the level-2 markers:
    on every decoration of a word u over {a, ♣1} with |u| <= 2 and club
    counts <= 2, it outputs what ``fprime_oracle`` computes from
    ``family(2)`` on u.  Its inner hats sit in guards of ♣2, so they read
    the witness tables of positions that are neither ♣1 nor ♣2."""
    f2, f3, scheme = family(2), family(3), MarkerScheme.for_level(2)
    for dec in enumerate_decorated(f2.input_alphabet, 2, 2):
        got = eval_interp(f3, dec.decorate(scheme.club)).word()
        assert got == fprime_oracle(f2, dec, scheme), (dec.u.render(), dec.p)


@pytest.mark.parametrize(
    "name, loops, witnesses",
    [("psi(innsq-interp)", 6, 3), ("family(2)", 2, 3), ("family_3.interp", 2, 4)],
)
def test_lift_hats_are_answered_from_witness_tables(name, loops, witnesses):
    """The order plans of the lifts read witness tables: the hats of the y
    variables are answered inline, and those of the x variables, row
    variables, loop over the club-free positions and first look up the
    rows whose x has that position as its witness.  The loop units and the
    witness tables of each plan are pinned, so a rule that stops firing
    (``family 3``'s golden file read back, with its renamed binders,
    included) fails here: one hat more in a loop, or one witness table
    fewer."""
    interp = {
        "psi(innsq-interp)": lambda: psi(builtin_interp("innsq-interp")),
        "family(2)": lambda: family(2),
        "family_3.interp": lambda: parse_interp((DATA / "family_3.interp").read_text("utf-8")),
    }[name]()
    plan = interp.order_plan
    units = _generated(plan).sources[:-1]
    assert sum("while todo" in unit for unit in units) == loops
    assert sum(spec[0] == "witness" for _, spec in plan._specs) == witnesses


def test_planning_the_lift_runs_a_truth_table_per_hat(monkeypatch):
    """Planning the letters and the order of psi(innsq-interp) runs the
    truth table of ``logic._excludes`` six times, once per hat, and each
    one matches: the eight foralls that it ran on before and rejected, whose
    comparison atoms cannot tell z from v or from x, are skipped."""
    verdicts = []
    excludes = logic._excludes
    monkeypatch.setattr(logic, "_excludes", lambda *args: verdicts.append(excludes(*args)) or verdicts[-1])
    lifted = psi(builtin_interp("innsq-interp"))
    lifted.letters_plan, lifted.order_plan
    assert verdicts == [True] * 6


def test_family_markers():
    assert family_markers(1) == ()
    assert family_markers(3) == (MarkerScheme.for_level(1), MarkerScheme.for_level(2))


def test_family_rejects_level_zero():
    with pytest.raises(PsiError):
        family(0)


# -- witnesses --------------------------------------------------------------------


def test_dcomplete_witness_shape():
    assert dcomplete_witness(Word.parse("aaa")).p == (0, 1, 2, 3)
    assert dcomplete_witness(Word()).p == (0,)
    assert dcomplete_witness(Word.parse("ab")).decorate().render() == "a♣b♣♣"


def test_witness_marker_blocks_pairwise_distinct():
    for name in ("squaring-family", "innsq-interp"):
        I = builtin_interp(name)
        scheme = fresh_scheme(I)
        plain = I.output_alphabet.letters
        letters = sorted(I.input_alphabet.letters)
        for n in range(0, 5):
            for toks in itertools.product(letters, repeat=n):
                out = fprime_oracle(I, dcomplete_witness(Word(toks)), scheme)
                blocks = []
                current: list[str] = []
                for tok in out:
                    if tok in plain:
                        blocks.append(tuple(current))
                        current = []
                    else:
                        current.append(tok)
                inner = blocks[1:]  # the block before the first letter is w0
                assert len(set(inner)) == len(inner), (name, toks)


def test_sortability_preserved_by_lift():
    for name in ("squaring-family", "innsq-interp"):
        I = builtin_interp(name)
        assert check_sortable(I).ok
        assert check_sortable(psi(I)).ok


# -- marker schemes ----------------------------------------------------------------


def test_plain_scheme():
    scheme = MarkerScheme.plain()
    assert (scheme.club, scheme.box, scheme.diamond) == ("♣", "□", "◊")
    assert scheme.tokens() == frozenset(("♣", "□", "◊"))


def test_scheme_tokens_must_differ():
    with pytest.raises(PsiError, match="distinct"):
        MarkerScheme("♣", "♣", "◊")


def test_level_indexing():
    assert MarkerScheme.for_level(2) == MarkerScheme("♣2", "□2", "◊2")
    with pytest.raises(PsiError):
        MarkerScheme.for_level(0)


def test_fresh_scheme_avoids_taken_markers():
    sq = builtin_interp("squaring-family")
    assert fresh_scheme(sq) == MarkerScheme.plain()
    lifted = psi(sq)  # alphabets now contain the plain markers
    assert fresh_scheme(lifted) == MarkerScheme.for_level(1)


def test_psi_rejects_colliding_scheme():
    with pytest.raises(PsiError, match="collide"):
        psi(builtin_interp("squaring-family"), MarkerScheme("a", "□", "◊"))


def test_psi_rejects_wrong_dimension():
    from polyreglab.interp import Interpretation

    one_dim = Interpretation(
        dim=1,
        input_alphabet=Alphabet.of("a"),
        output_alphabet=Alphabet.of("a"),
        letter_formulas={"a": Letter("a", "x1")},
        order_formula=Leq("x1", "y1"),
    )
    with pytest.raises(PsiError, match="dimension 2"):
        psi(one_dim)


# -- decorated inputs ----------------------------------------------------------------


def test_decorated_input_validation():
    with pytest.raises(PsiError, match="club counts"):
        DecoratedInput(Word.parse("ab"), (0, 0))
    with pytest.raises(PsiError, match="non-negative"):
        DecoratedInput(Word.parse("a"), (0, -1))


def test_enumerate_decorated_counts():
    assert sum(1 for _ in enumerate_decorated(Alphabet.of("a", "b", "#"), 3, 2)) == 2460
    assert sum(1 for _ in enumerate_decorated(Alphabet.of("a"), 3, 2)) == 120


@given(
    st.lists(st.sampled_from("ab"), max_size=6).map(tuple),
    st.data(),
)
@settings(max_examples=60)
def test_decorate_undecorate_round_trip(toks, data):
    u = Word(toks)
    p = tuple(
        data.draw(st.integers(min_value=0, max_value=3)) for _ in range(len(u) + 1)
    )
    dec = DecoratedInput(u, p)
    assert DecoratedInput.undecorate(dec.decorate()) == dec


@given(st.lists(st.sampled_from(("a", "b", "♣")), max_size=8).map(tuple))
@settings(max_examples=60)
def test_every_decorated_word_parses_uniquely(toks):
    w = Word(toks)
    assert DecoratedInput.undecorate(w).decorate() == w
