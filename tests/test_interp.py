import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreglab import interp as interp_module
from polyreglab.cli import main
from polyreglab.interp import (
    Interpretation,
    InterpError,
    builtin_interp,
    builtin_interpretations,
    check_linear_order,
    compute_domain,
    eval_interp,
    eval_interp_details,
    parse_interp,
    render_interp,
)
from polyreglab.langlab import enumerate_image, resolve_function, words_upto
from polyreglab.logic import (
    And,
    Eq,
    FormulaEvaluator,
    FormulaPlan,
    Leq,
    Letter,
    Or,
    disj,
    eval_formula,
    strict_less,
)
from polyreglab.pebble import innsq_direct
from polyreglab.psi import family, psi
from polyreglab.words import Alphabet, Word


def _lex_order():
    return Or(
        (
            strict_less("x1", "y1"),
            And((Eq("x1", "y1"), Leq("x2", "y2"))),
        )
    )


def test_squaring_on_aaa():
    out = eval_interp(builtin_interp("squaring-family"), Word.parse("aaa"))
    assert out.word().render() == "aabaab"
    assert out.origins() == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))


def test_squaring_small_ns():
    sq = builtin_interp("squaring-family")
    assert eval_interp(sq, Word.parse("a")).word() == Word()
    for n in range(1, 12):
        got = eval_interp(sq, Word(("a",) * n)).word()
        want = Word((("a",) * (n - 1) + ("b",)) * (n - 1))
        assert got == want, n


def test_innsq_interp_examples():
    I = builtin_interp("innsq-interp")
    cases = {
        "aba#baa#bb": "abaaba#baabaa#bbbb",
        "###": "###",
        "#": "#",
        "": "",
        "a": "",
        "ab": "",
        "a#b": "a#b",
        "a##b": "aa##bb",
        "ab#": "ab#",
        "#ab": "#ab",
    }
    for src, want in cases.items():
        assert eval_interp(I, Word.parse(src)).word().render() == want, src


def test_innsq_interp_agrees_with_direct_exhaustively():
    I = builtin_interp("innsq-interp")
    for n in range(0, 5):
        for toks in itertools.product("ab#", repeat=n):
            w = Word(toks)
            assert eval_interp(I, w).word() == innsq_direct(w), w.render()


def test_empty_input_gives_empty_output():
    for name in builtin_interpretations():
        assert eval_interp(builtin_interp(name), Word()).word() == Word()


def test_quadratic_bound_holds():
    I = builtin_interp("innsq-interp")
    for n in range(0, 5):
        for toks in itertools.product("ab#", repeat=n):
            w = Word(toks)
            assert len(eval_interp(I, w)) <= len(w) ** 2


def test_determinism():
    I = builtin_interp("innsq-interp")
    w = Word.parse("ab#ba#")
    first = eval_interp(I, w)
    second = eval_interp(I, w)
    assert first.word() == second.word()
    assert first.origins() == second.origins()


# -- order checking -----------------------------------------------------------


def _dummy_interp(order):
    return Interpretation(
        dim=2,
        input_alphabet=Alphabet.of("a"),
        output_alphabet=Alphabet.of("a"),
        letter_formulas={"a": And((Letter("a", "x1"), Letter("a", "x2")))},
        order_formula=order,
    )


def test_lex_order_is_linear():
    dom = [(i, j) for i in (1, 2) for j in (1, 2, 3)]
    check = check_linear_order(dom, _dummy_interp(_lex_order()), Word.parse("aaa"))
    assert check.ok
    assert check.sorted_tuples == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))


def test_always_true_order_fails_antisymmetry():
    dom = [(1, 1), (2, 2)]
    always = And((Eq("x1", "x1"), Eq("x2", "x2"), Eq("y1", "y1"), Eq("y2", "y2")))
    check = check_linear_order(dom, _dummy_interp(always), Word.parse("aa"))
    assert not check.ok
    assert check.violation is not None
    assert check.violation.kind == "antisymmetry"
    assert set(check.violation.tuples) == {(1, 1), (2, 2)}


def test_innsq_order_check():
    I = builtin_interp("innsq-interp")
    u = Word.parse("aba#baa#bb")
    dom = compute_domain(I, u)
    check = check_linear_order(dom.tuples(), I, u)
    assert check.ok


def _relation_interp(m, pairs):
    """A dimension-1 interpretation that selects every position of the word
    made of the first m letters a, b, c, ... and orders positions by
    ``pairs`` (1-based (s, t) meaning s <= t)."""
    letters = "abcdef"[:m]
    order = disj(
        *(And((Letter(letters[s - 1], "x1"), Letter(letters[t - 1], "y1"))) for s, t in pairs)
    )
    return Interpretation(
        dim=1,
        input_alphabet=Alphabet.of(*letters),
        output_alphabet=Alphabet.of("o"),
        letter_formulas={"o": disj(*(Letter(c, "x1") for c in letters))},
        order_formula=order,
    )


# a <= e and e <= a both hold, and d, e are incomparable; yet the predecessor
# counts are exactly 1..5 and each tuple is <= the next one in count order.
_WITNESS = _relation_interp(
    5,
    [(i, i) for i in range(1, 6)]
    + [(1, 5), (2, 1), (3, 1), (3, 2), (3, 5), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2)],
)


def test_non_linear_order_witness_is_rejected(capsys, tmp_path):
    result = eval_interp_details(_WITNESS, Word.parse("abcde"))
    assert result.word() == Word()
    assert result.diagnostic is not None
    assert result.diagnostic.kind == "order-not-linear"
    path = tmp_path / "witness.interp"
    path.write_text(render_interp(_WITNESS), encoding="utf-8")
    assert main(["eval-interp", str(path), "abcde"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n"
    assert captured.err.startswith("note: order-not-linear: ")


def _is_linear(m, rel):
    return any(
        rel == {(p[i], p[j]) for i in range(m) for j in range(i, m)}
        for p in itertools.permutations(range(1, m + 1))
    )


def _breaks(kind, positions, rel):
    if kind == "reflexivity":
        (t,) = positions
        return (t, t) not in rel
    if kind == "antisymmetry":
        s, t = positions
        return s != t and (s, t) in rel and (t, s) in rel
    if kind == "comparability":
        s, t = positions
        return s != t and (s, t) not in rel and (t, s) not in rel
    if kind == "transitivity":
        a, b, c = positions
        return (a, b) in rel and (b, c) in rel and (a, c) not in rel
    return False


@st.composite
def _reflexive_relations(draw):
    """A linear order on 1..m with some off-diagonal pairs toggled."""
    m = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(1, m + 1)))
    rel = {(perm[i], perm[j]) for i in range(m) for j in range(i, m)}
    off = [(s, t) for s in range(1, m + 1) for t in range(1, m + 1) if s != t]
    if off:
        rel ^= draw(st.sets(st.sampled_from(off)))
    return m, frozenset(rel)


@settings(deadline=None, max_examples=300)
@given(_reflexive_relations())
def test_order_check_accepts_exactly_linear_orders(case):
    m, rel = case
    letters = "abcdef"[:m]
    check = check_linear_order(
        [(i,) for i in range(1, m + 1)], _relation_interp(m, sorted(rel)), Word(tuple(letters))
    )
    assert check.ok == _is_linear(m, rel)
    if check.ok:
        ranked = [t for (t,) in check.sorted_tuples]
        assert all((s, t) in rel for s, t in itertools.combinations(ranked, 2))
    else:
        positions = [t for (t,) in check.violation.tuples]
        assert _breaks(check.violation.kind, positions, rel)


def test_order_check_evaluates_each_pair_once(monkeypatch):
    """One order query per domain tuple t; its mask holds bit i exactly when
    the order formula holds on (tuple i, t), as a point evaluation says."""
    calls = []
    at = FormulaEvaluator.at

    def counted(self, values):
        result = at(self, values)
        calls.append((values, result))
        return result

    monkeypatch.setattr(FormulaEvaluator, "at", counted)
    cases = [
        (builtin_interp("innsq-interp"), Word.parse("aba#baa#bb")),
        (builtin_interp("cross-sort-demo"), Word.parse("aaa")),
        (_WITNESS, Word.parse("abcde")),
    ]
    for interp, u in cases:
        dom = compute_domain(interp, u).tuples()
        calls.clear()
        check_linear_order(dom, interp, u)
        queried = list(calls)
        m = len(dom)
        assert [t for t, _ in queried] == dom
        xs, ys = interp.tuple_vars(), tuple(f"y{k}" for k in range(1, interp.dim + 1))
        for t, mask in queried:
            assert 0 <= mask < 1 << m
            pairs = [
                eval_formula(u, interp.order_formula, {**dict(zip(xs, s)), **dict(zip(ys, t))})
                for s in dom
            ]
            assert mask == sum(1 << i for i, holds in enumerate(pairs) if holds)


# -- domain pass -----------------------------------------------------------------


_PARTLY_OVERLAPPING = Interpretation(
    dim=2,
    input_alphabet=Alphabet.of("a", "b"),
    output_alphabet=Alphabet.of("x", "y"),
    letter_formulas={"x": Leq("x1", "x2"), "y": And((Letter("a", "x1"), Eq("x2", "x2")))},
    order_formula=_lex_order(),
)


@pytest.mark.parametrize(
    "interp",
    [
        builtin_interp("squaring-family"),
        builtin_interp("innsq-interp"),
        family(2),
        _PARTLY_OVERLAPPING,
    ],
    ids=["squaring-family", "innsq-interp", "family-2", "partly-overlapping"],
)
def test_domain_agrees_with_point_queries(interp):
    for u in words_upto(interp.input_alphabet, 4):
        expected = {}
        for tup in itertools.product(range(1, len(u) + 1), repeat=interp.dim):
            env = dict(zip(interp.tuple_vars(), tup))
            holds = {c for c, f in interp.letter_formulas.items() if eval_formula(u, f, env)}
            if holds:
                expected[tup] = frozenset(holds)
        assert dict(compute_domain(interp, u).letters_at) == expected, u.render()


def test_eval_interp_queries_through_module_evaluator(monkeypatch):
    """Evaluators are built through ``interp.FormulaEvaluator`` and queried
    through ``at``, the two bindings a tracer wraps to count queries."""
    built, queries = [], []

    class Counting(FormulaEvaluator):
        def __init__(self, *args, **kwargs):
            built.append(args[1])
            super().__init__(*args, **kwargs)

        def at(self, values):
            queries.append(values)
            return super().at(values)

    monkeypatch.setattr(interp_module, "FormulaEvaluator", Counting)
    innsq = builtin_interp("innsq-interp")
    out = eval_interp(innsq, Word.parse("aba#baa#bb"))
    assert out.word().render() == "abaaba#baabaa#bbbb"
    assert built == [*innsq.letter_formulas.values(), innsq.order_formula]
    assert len(queries) == len(innsq.letter_formulas) + len(out)


def test_image_sweep_plans_each_formula_once(monkeypatch):
    """Enumerating the image of ``psi:innsq-interp`` up to length 3 plans
    each formula of the lifted interpretation once for the whole sweep, and
    binds each letter formula once per non-empty word and the order formula
    at most once per word."""
    planned, built = [], []
    plan_init = FormulaPlan.__init__

    def counting_plan(self, formula, *args, **kwargs):
        planned.append(formula)
        plan_init(self, formula, *args, **kwargs)

    class Counting(FormulaEvaluator):
        def __init__(self, word, formula, *args, **kwargs):
            built.append((word, formula))
            super().__init__(word, formula, *args, **kwargs)

    monkeypatch.setattr(FormulaPlan, "__init__", counting_plan)
    monkeypatch.setattr(interp_module, "FormulaEvaluator", Counting)
    lifted = resolve_function("psi:innsq-interp")
    enumerate_image(lifted.fn, lifted.input_alphabet, 3)
    expected = psi(builtin_interp("innsq-interp"))
    assert planned == [*expected.letter_formulas.values(), expected.order_formula]
    *letters, order = planned
    words = [w for w in words_upto(lifted.input_alphabet, 3) if len(w)]
    for f in letters:
        assert [w for w, g in built if g is f] == words
    ordered = [w for w, g in built if g is order]
    assert 0 < len(ordered) == len(set(ordered)) <= len(words)
    assert len(built) == len(letters) * len(words) + len(ordered)


# -- totalization diagnostics ---------------------------------------------------


def test_letter_overlap_diagnostic():
    overlapping = Interpretation(
        dim=2,
        input_alphabet=Alphabet.of("a"),
        output_alphabet=Alphabet.of("x", "y"),
        letter_formulas={
            "x": Leq("x1", "x2"),
            "y": Leq("x1", "x2"),
        },
        order_formula=_lex_order(),
    )
    result = eval_interp_details(overlapping, Word.parse("aa"))
    assert result.word() == Word()
    assert result.diagnostic is not None
    assert result.diagnostic.kind == "letter-overlap"
    assert set(result.diagnostic.letters) == {"x", "y"}
    assert result.diagnostic.tuples


def test_order_not_linear_diagnostic():
    demo = builtin_interp("cross-sort-demo")
    result = eval_interp_details(demo, Word.parse("aaa"))
    assert result.word() == Word()
    assert result.diagnostic is not None
    assert result.diagnostic.kind == "order-not-linear"
    payload = result.diagnostic.to_json()
    assert payload["kind"] == "order-not-linear"
    assert payload["tuples"]


def test_diagnostic_is_machine_readable():
    demo = builtin_interp("cross-sort-demo")
    result = eval_interp_details(demo, Word.parse("aa"))
    data = result.diagnostic.to_json()
    assert set(data) == {"kind", "detail", "tuples", "letters"}


# -- construction validation and file format -------------------------------------


def test_validation_rejects_bad_free_vars():
    with pytest.raises(InterpError):
        Interpretation(
            dim=2,
            input_alphabet=Alphabet.of("a"),
            output_alphabet=Alphabet.of("a"),
            letter_formulas={"a": Letter("a", "x1")},
            order_formula=_lex_order(),
        )


def test_validation_rejects_stray_letters():
    with pytest.raises(InterpError):
        Interpretation(
            dim=2,
            input_alphabet=Alphabet.of("a"),
            output_alphabet=Alphabet.of("a"),
            letter_formulas={
                "a": And((Letter("q", "x1"), Letter("a", "x2"))),
            },
            order_formula=_lex_order(),
        )


def test_validation_requires_exact_letter_cover():
    with pytest.raises(InterpError):
        Interpretation(
            dim=2,
            input_alphabet=Alphabet.of("a"),
            output_alphabet=Alphabet.of("a", "b"),
            letter_formulas={"a": And((Letter("a", "x1"), Letter("a", "x2")))},
            order_formula=_lex_order(),
        )


def test_file_round_trip_builtins():
    for name in builtin_interpretations():
        I = builtin_interp(name)
        text = render_interp(I)
        back = parse_interp(text, name=name)
        assert back.dim == I.dim
        assert back.input_alphabet == I.input_alphabet
        assert back.output_alphabet == I.output_alphabet
        assert back.letter_formulas == dict(I.letter_formulas)
        assert back.order_formula == I.order_formula


def test_round_trip_preserves_semantics():
    I = builtin_interp("innsq-interp")
    back = parse_interp(render_interp(I))
    for src in ("ab#a", "a##b", "###"):
        w = Word.parse(src)
        assert eval_interp(back, w).word() == eval_interp(I, w).word()
