import itertools
import random
import sys
import threading

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
    Not,
    Or,
    RowSpace,
    bit_flags,
    conj,
    disj,
    eval_formula,
    row_geometry,
    strict_less,
)
from polyreglab.pebble import innsq_direct
from polyreglab.psi import family, psi
from polyreglab.sexpr import SexprError
from polyreglab.words import Alphabet, Word
from test_logic import _mask, _random_formula, naive_eval


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


def _mask_of(dom, space):
    """The mask over ``space`` of the rows that ``dom`` lists."""
    return _mask(row in dom for row in itertools.product(range(1, space.n + 1), repeat=space.dim))


def test_lex_order_is_linear():
    dom = [(i, j) for i in (1, 2) for j in (1, 2, 3)]
    space = RowSpace(Word.parse("aaa"), 2)
    check = check_linear_order(_mask_of(dom, space), _dummy_interp(_lex_order()), space)
    assert check.ok
    assert check.sorted_tuples == ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))


def test_always_true_order_fails_antisymmetry():
    dom = [(1, 1), (2, 2)]
    always = And((Eq("x1", "x1"), Eq("x2", "x2"), Eq("y1", "y1"), Eq("y2", "y2")))
    space = RowSpace(Word.parse("aa"), 2)
    check = check_linear_order(_mask_of(dom, space), _dummy_interp(always), space)
    assert not check.ok
    assert check.violation is not None
    assert check.violation.kind == "antisymmetry"
    assert set(check.violation.tuples) == {(1, 1), (2, 2)}


def test_innsq_order_check():
    I = builtin_interp("innsq-interp")
    u = Word.parse("aba#baa#bb")
    dom = compute_domain(I, u)
    check = check_linear_order(dom.selected(), I, RowSpace(u, I.dim))
    assert check.ok


def _relation_interp(m, pairs):
    """A dimension-1 interpretation that selects every position of the word
    made of the first m letters a, b, c, ... and orders positions by
    ``pairs`` (1-based (s, t) meaning s <= t)."""
    letters = "abcdefghi"[:m]
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
        (1 << m) - 1, _relation_interp(m, sorted(rel)), RowSpace(Word(tuple(letters)), 1)
    )
    assert check.ok == _is_linear(m, rel)
    if check.ok:
        ranked = [t for (t,) in check.sorted_tuples]
        assert all((s, t) in rel for s, t in itertools.combinations(ranked, 2))
    else:
        positions = [t for (t,) in check.violation.tuples]
        assert _breaks(check.violation.kind, positions, rel)


@settings(deadline=None, max_examples=200)
@given(_reflexive_relations(), st.data())
def test_unselected_rows_never_change_the_verdict(case, data):
    """The order check over the first m positions of a word of m + k
    distinct letters, whose order relates the other k positions to each
    other and to the first m arbitrarily, gives the verdict, the sorted
    tuples and the violation that it gives on the word of the first m
    letters alone: the rows outside the domain are masked out."""
    m, rel = case
    k = data.draw(st.integers(1, 3))
    outside = [(s, t) for s in range(1, m + k + 1) for t in range(1, m + k + 1) if max(s, t) > m]
    extra = data.draw(st.sets(st.sampled_from(outside)))
    dom = [(i,) for i in range(1, m + 1)]
    word = Word(tuple("abcdefghi"[: m + k]))
    selected = _mask_of(dom, RowSpace(word, 1))
    check = check_linear_order(selected, _relation_interp(m + k, sorted(rel | extra)), RowSpace(word, 1))
    alone = check_linear_order(selected, _relation_interp(m, sorted(rel)), RowSpace(Word(word.tokens[:m]), 1))
    assert check == alone


def _tuple_list_check(dom, interp, space):
    """The order check as it was written when it took the selected tuples
    as a list in increasing order: each tuple's bit found back from its
    components (here by its index in the product), the mask summed from
    the bits, and no bits in the result."""
    m = len(dom)
    if m == 0:
        return interp_module.OrderCheck(True, ())
    product = list(itertools.product(range(1, space.n + 1), repeat=space.dim))
    bits = [product.index(t) for t in dom]
    selected = sum(map((1).__lshift__, bits))
    at = FormulaEvaluator(interp.order_plan, space).at
    masks = [at(t) & selected for t in dom]
    ranked = sorted(range(m), key=lambda j: masks[j].bit_count())
    below = 0
    for j in ranked:
        below |= 1 << bits[j]
        if masks[j] != below:
            masks = [sum((mask >> b & 1) << i for i, b in enumerate(bits)) for mask in masks]
            return interp_module.OrderCheck(False, (), interp_module._order_violation(dom, masks))
    return interp_module.OrderCheck(True, tuple(dom[j] for j in ranked))


@st.composite
def _row_relations(draw):
    """A dimension of 1 or 2, a word of distinct letters, a mask of
    selected rows of its product space, and a relation on all its rows: a
    linear order with a few pairs reversed, which can leave a cycle, and a
    few pairs toggled, the diagonal included."""
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(0, 4 if dim == 1 else 3))
    rows = list(itertools.product(range(1, n + 1), repeat=dim))
    selected = draw(st.integers(0, (1 << len(rows)) - 1))
    perm = draw(st.permutations(rows))
    rel = {(perm[i], perm[j]) for i in range(len(rows)) for j in range(i, len(rows))}
    if rows:
        pairs = st.sets(st.tuples(st.sampled_from(rows), st.sampled_from(rows)), max_size=4)
        flips = draw(pairs)
        rel = {(t, s) if (s, t) in flips else (s, t) for s, t in rel} ^ draw(pairs)
    return dim, Word(tuple("abcd"[:n])), selected, rel


@settings(deadline=None, max_examples=150)
@given(_row_relations())
def test_mask_check_agrees_with_the_tuple_list_check(case):
    """On random relations over the rows of dimensions 1 and 2 and random
    selections of rows, the check that takes the selected rows as a mask
    gives the verdict, the sorted tuples and the violation that the check
    taking them as a list gave, and the bits of its sorted tuples."""
    dim, word, selected, rel = case
    xs, ys = (tuple(f"{v}{i}" for i in range(1, dim + 1)) for v in "xy")
    tokens = word.tokens
    pairs = [
        conj(*(Letter(tokens[p - 1], v) for p, v in zip(s + t, xs + ys))) for s, t in sorted(rel)
    ]
    order = disj(*pairs) if pairs else And((*(Eq(v, v) for v in xs + ys), Not(Eq(xs[0], xs[0]))))
    letters = Alphabet.of(*tokens) if tokens else Alphabet.of("a")
    domain = conj(*(Eq(v, v) for v in xs))
    interp = Interpretation(dim, letters, Alphabet.of("o"), {"o": domain}, order)
    space = RowSpace(word, dim)
    check = check_linear_order(selected, interp, space)
    old = _tuple_list_check(space.rows_at(selected), interp, space)
    assert (check.ok, check.sorted_tuples, check.violation) == (old.ok, old.sorted_tuples, old.violation)
    product = list(itertools.product(range(1, len(word) + 1), repeat=dim))
    assert check.bits == tuple(product.index(t) for t in check.sorted_tuples)


def test_order_check_evaluates_each_pair_once(monkeypatch):
    """One order query per domain tuple t; its mask over the product space
    holds the bit of row s exactly when the order formula holds on (s, t),
    as a point evaluation says, for every row s, selected or not."""
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
        domain = compute_domain(interp, u)
        dom = domain.space.rows_at(domain.selected())
        calls.clear()
        check_linear_order(domain.selected(), interp, RowSpace(u, interp.dim))
        queried = list(calls)
        assert [t for t, _ in queried] == dom
        xs, ys = interp.tuple_vars(), tuple(f"y{k}" for k in range(1, interp.dim + 1))
        rows = list(itertools.product(range(1, len(u) + 1), repeat=interp.dim))
        for t, mask in queried:
            assert 0 <= mask < 1 << len(rows)
            pairs = [
                eval_formula(u, interp.order_formula, {**dict(zip(xs, s)), **dict(zip(ys, t))})
                for s in rows
            ]
            assert mask == _mask(pairs)


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
        expected = dict.fromkeys(interp.letter_formulas, 0)
        for i, tup in enumerate(itertools.product(range(1, len(u) + 1), repeat=interp.dim)):
            env = dict(zip(interp.tuple_vars(), tup))
            for c, f in interp.letter_formulas.items():
                expected[c] |= eval_formula(u, f, env) << i
        assert dict(compute_domain(interp, u).masks) == expected, u.render()


_LETTERS_CASES = {
    "squaring-family": lambda: builtin_interp("squaring-family"),
    "innsq-interp": lambda: builtin_interp("innsq-interp"),
    "cross-sort-demo": lambda: builtin_interp("cross-sort-demo"),
    "family-2": lambda: family(2),
    "partly-overlapping": lambda: _PARTLY_OVERLAPPING,
}


@pytest.mark.parametrize("name", sorted(_LETTERS_CASES))
def test_letters_plan_agrees_with_each_letter_alone(name):
    """On every word up to length 4, the empty word included, the masks of
    the one letters plan equal those of a plan of each letter formula alone,
    bound to the word's product space, and the naive reference's."""
    interp = _LETTERS_CASES[name]()
    xs = interp.tuple_vars()
    alone = {c: FormulaPlan(f, (), xs) for c, f in interp.letter_formulas.items()}
    for u in words_upto(interp.input_alphabet, 4):
        rows = list(itertools.product(range(1, len(u) + 1), repeat=interp.dim))
        domain = compute_domain(interp, u)
        assert list(domain.masks) == list(interp.letter_formulas)
        for c, f in interp.letter_formulas.items():
            want = _mask(naive_eval(u, f, dict(zip(xs, row))) for row in rows)
            assert FormulaEvaluator(alone[c], RowSpace(u, interp.dim)).at(()) == want
            assert domain.masks[c] == want, (name, u.render(), c)


def test_letters_plan_binds_words_of_one_length_in_any_order():
    """The letters plans of the lifted innsq and of ``family(2)`` bound to
    every word of length 3 before any is queried, then queried in an
    interleaved order, answer what a fresh evaluator answers for each."""
    for interp in (psi(builtin_interp("innsq-interp")), family(2)):
        plan, xs = interp.letters_plan, interp.tuple_vars()
        words = [w for w in words_upto(interp.input_alphabet, 3) if len(w) == 3]
        bound = [(w, FormulaEvaluator(plan, RowSpace(w, 2))) for w in words]
        for w, ev in bound[::2] + bound[1::2][::-1]:
            fresh = FormulaEvaluator(FormulaPlan(plan.formula, (), xs), RowSpace(w, 2))
            assert ev.at(()) == fresh.at(()), w.render()


@pytest.mark.parametrize("letters", [1, 3, 300])
def test_domain_letters_follow_its_tuples(letters):
    """``InterpDomain.letter_at_bit`` has the bit of each tuple that
    ``space.rows_at`` lists for ``selected()``, and names the one letter
    whose mask holds that bit, for disjoint random masks of one, three and
    300 letters over product spaces of dimension 1 to 3."""
    rng = random.Random(letters)
    for dim, n in [(1, 0), (1, 5), (2, 4), (3, 3)]:
        space = RowSpace(Word(("a",) * n), dim)
        masks = dict.fromkeys((f"c{k}" for k in range(letters)), 0)
        for i in range(n**dim):
            if rng.random() < 0.7:
                masks[rng.choice(list(masks))] |= 1 << i
        domain = interp_module.InterpDomain(space, masks)
        assert domain.overlap() is None
        product = list(itertools.product(range(1, n + 1), repeat=dim))
        rows = space.rows_at(domain.selected())
        letter_at = domain.letter_at_bit()
        assert sorted(letter_at) == [product.index(t) for t in rows]
        bits = range(n**dim)
        assert letter_at == {i: c for c, mask in masks.items() for i in bits if mask >> i & 1}


def _reference_details(interp, u):
    """The output letters with origins and the diagnostic's JSON, computed
    the old way from the naive reference: the letters holding on each
    tuple, the first tuple in order where several do, then one relation
    mask per tuple."""
    xs, ys = interp.tuple_vars(), tuple(f"y{k}" for k in range(1, interp.dim + 1))
    holding = {}
    for tup in itertools.product(range(1, len(u) + 1), repeat=interp.dim):
        env = dict(zip(xs, tup))
        holds = sorted(c for c, f in interp.letter_formulas.items() if naive_eval(u, f, env))
        if holds:
            holding[tup] = holds
    dom = sorted(holding)
    for tup in dom:
        if len(holding[tup]) > 1:
            detail = f"letters {holding[tup]} all hold on {tup}"
            diagnostic = {"kind": "letter-overlap", "detail": detail, "tuples": [list(tup)]}
            return [], {**diagnostic, "letters": holding[tup]}
    order = interp.order_formula
    masks = [
        _mask(naive_eval(u, order, {**dict(zip(xs, s)), **dict(zip(ys, t))}) for s in dom) for t in dom
    ]
    ranked = sorted(range(len(dom)), key=lambda j: masks[j].bit_count())
    below = [_mask(i in ranked[: r + 1] for i in range(len(dom))) for r in range(len(dom))]
    if any(masks[j] != below[r] for r, j in enumerate(ranked)):
        violation = interp_module._order_violation(dom, masks)
        tuples = [list(t) for t in violation.tuples]
        detail = violation.render()
        return [], {"kind": "order-not-linear", "detail": detail, "tuples": tuples, "letters": []}
    return [(holding[dom[j]][0], dom[j]) for j in ranked], None


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_diagnostics_match_the_per_letter_reference(seed):
    """Random interpretations of dimension 1 and 2 with one to three letter
    formulas, which often overlap, and random order formulas, which often
    fail to be linear: on every word up to length 3, the outputs with their
    origins and the letter-overlap and order-not-linear diagnostics (kind,
    detail text, tuples and letters) equal the reference's exactly."""
    rng = random.Random(seed)
    dim = rng.choice([1, 2])
    xs = [f"x{i}" for i in range(1, dim + 1)]
    ys = [f"y{i}" for i in range(1, dim + 1)]
    pad = lambda f, vs: And((f, *(Eq(v, v) for v in vs)))  # noqa: E731
    letters = {c: pad(_random_formula(rng, xs, 3, 2), xs) for c in "pqr"[: rng.randint(1, 3)]}
    order = pad(_random_formula(rng, xs + ys, 3, 1), xs + ys)
    interp = Interpretation(dim, Alphabet.of("a", "b", "#"), Alphabet.of(*letters), letters, order)
    for u in words_upto(interp.input_alphabet, 3):
        result = eval_interp_details(interp, u)
        diagnostic = result.diagnostic and result.diagnostic.to_json()
        assert (list(result.output.letters), diagnostic) == _reference_details(interp, u), u.render()


def test_set_bits_decodes_every_set_bit():
    """``logic.bit_flags`` under ``itertools.compress``, the one decoder of
    set bits that ``InterpDomain.letter_at_bit``, ``check_linear_order``
    and ``RowSpace.rows_at`` share,
    lists the same indices as reading the binary digits one by one, on 0,
    on seeded random masks of up to 1,000 bits, sparse and dense, and on a
    random mask of 100,000 bits."""
    rng = random.Random(3)
    masks = [0, 1, 1 << 999] + [
        sum(1 << i for i in range(rng.randint(1, 1000)) if rng.random() < density)
        for density in (0.02, 0.2, 0.5, 0.98)
        for _ in range(25)
    ]
    masks.append(rng.getrandbits(100_000) | 1 << 99_999)
    for mask in masks:
        digits = [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
        assert list(itertools.compress(itertools.count(), bit_flags(mask))) == digits


def test_eval_interp_sorts_the_domain_once(monkeypatch):
    """The domain's mask is decoded into its rows once, and the order
    check gets that very mask."""
    decoded, checked = [], []
    rows_at, check = RowSpace.rows_at, interp_module.check_linear_order

    def decoding(self, mask):
        decoded.append(mask)
        return rows_at(self, mask)

    def checking(selected, interp, space):
        checked.append(selected)
        return check(selected, interp, space)

    monkeypatch.setattr(RowSpace, "rows_at", decoding)
    monkeypatch.setattr(interp_module, "check_linear_order", checking)
    out = eval_interp(builtin_interp("innsq-interp"), Word.parse("ab#ba#"))
    assert out.word() == innsq_direct(Word.parse("ab#ba#"))
    assert len(decoded) == len(checked) == 1 and checked[0] is decoded[0]


def test_eval_interp_queries_through_module_evaluator(monkeypatch):
    """Evaluators are built through ``interp.FormulaEvaluator`` and queried
    through ``at``, the two bindings a tracer wraps to count queries: one
    evaluator and one query for all letter formulas, then one evaluator
    for the order formula and one query per output letter."""
    built, queries = [], []

    class Counting(FormulaEvaluator):
        def __init__(self, plan, space):
            built.append(plan.formula)
            super().__init__(plan, space)

        def at(self, values):
            queries.append(values)
            return super().at(values)

    monkeypatch.setattr(interp_module, "FormulaEvaluator", Counting)
    innsq = builtin_interp("innsq-interp")
    out = eval_interp(innsq, Word.parse("aba#baa#bb"))
    assert out.word().render() == "abaaba#baabaa#bbbb"
    assert built == [tuple(innsq.letter_formulas.values()), innsq.order_formula]
    assert len(queries) == 1 + len(out)


def test_eval_interp_builds_each_table_once_per_word(monkeypatch):
    """One ``eval_interp`` of the lifted innsq interpretation on a word of
    length 6 makes two row spaces: the product space of the 36 tuples, to
    which both the letters plan and the order plan are bound, and its
    positions space.  Each of the 27 distinct tables that the two
    evaluators ask for is built once, also those both plans read, such as
    the lift's hat witness tables: 32 requests, 27 builds."""
    spaces, requests, builds = [], [], []
    init, build_table = RowSpace.__init__, RowSpace.table

    def counting_init(self, *args):
        spaces.append(self)
        init(self, *args)

    def counting_table(self, spec):
        requests.append((id(self), spec))
        if spec not in self._tables:
            builds.append((id(self), spec))
        return build_table(self, spec)

    monkeypatch.setattr(RowSpace, "__init__", counting_init)
    monkeypatch.setattr(RowSpace, "table", counting_table)
    lifted = psi(builtin_interp("innsq-interp"))
    lifted.letters_plan, lifted.order_plan  # planned before counting
    spaces.clear()
    out = eval_interp(lifted, Word.parse("a♣b#♣a"))
    assert len(out) == 9
    assert [space.all.bit_length() for space in spaces] == [36, 6]
    assert (len(requests), len(builds), len(set(builds))) == (32, 27, 27)
    assert set(builds) == set(requests)


def test_threads_share_plans_and_geometries():
    """Four threads, more than the cores, evaluate innsq-interp and its
    lift on every word up to length 3 in their own orders, through one
    plan each and with a short switch interval, after the geometry cache
    is cleared, so that threads build and share the geometries of each
    length: every output and origin equals the one-thread result."""
    interps = [builtin_interp("innsq-interp"), psi(builtin_interp("innsq-interp"))]
    want = {(I, w): eval_interp(I, w) for I in interps for w in words_upto(I.input_alphabet, 3)}
    wrong, finished = [], []

    def work(seed):
        jobs = list(want)
        random.Random(seed).shuffle(jobs)
        wrong.extend(job for job in jobs if eval_interp(*job) != want[job])
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        row_geometry.cache_clear()
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1, 2, 3] and wrong == []


def test_image_sweep_plans_each_formula_once(monkeypatch):
    """Enumerating the image of ``psi:innsq-interp`` up to length 3 plans
    the letter formulas of the lifted interpretation together and its order
    formula, each once for the whole sweep, and binds the letters plan once
    per non-empty word and the order formula at most once per word."""
    planned, built = [], []
    plan_init = FormulaPlan.__init__

    def counting_plan(self, formula, *args, **kwargs):
        planned.append(formula)
        plan_init(self, formula, *args, **kwargs)

    class Counting(FormulaEvaluator):
        def __init__(self, plan, space):
            built.append((space.word, plan.formula))
            super().__init__(plan, space)

    monkeypatch.setattr(FormulaPlan, "__init__", counting_plan)
    monkeypatch.setattr(interp_module, "FormulaEvaluator", Counting)
    lifted = resolve_function("psi:innsq-interp")
    enumerate_image(lifted.fn, lifted.input_alphabet, 3)
    expected = psi(builtin_interp("innsq-interp"))
    assert planned == [tuple(expected.letter_formulas.values()), expected.order_formula]
    letters, order = planned
    words = [w for w in words_upto(lifted.input_alphabet, 3) if len(w)]
    assert [w for w, g in built if g is letters] == words
    ordered = [w for w, g in built if g is order]
    assert 0 < len(ordered) == len(set(ordered)) <= len(words)
    assert len(built) == len(words) + len(ordered)


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


_HEADER = "dim 1\ninput-alphabet a\noutput-alphabet o\n"
_LETTER = "(letter o (letter a x1))\n"
_ORDER = "(order (leq x1 y1))\n"

# A malformed ``.interp`` text, by what is wrong with it, and the message
# that reading it raises.
INTERP_READER_ERRORS = {
    "missing-header": (
        "dim 1\ninput-alphabet a\n" + _LETTER + _ORDER,
        "missing header lines: ['output-alphabet']",
    ),
    "dim-not-an-integer": (
        _HEADER.replace("dim 1", "dim one") + _LETTER + _ORDER,
        "dim header needs a single integer",
    ),
    "dim-zero": (
        _HEADER.replace("dim 1", "dim 0") + _LETTER + _ORDER,
        "dimension must be positive, got 0",
    ),
    "bad-block": (_HEADER + _LETTER + _ORDER + "stray\n", "bad block stray"),
    "letter-malformed": (_HEADER + "(letter o)\n" + _ORDER, "(letter c <formula>) block malformed"),
    "order-malformed": (_HEADER + _LETTER + "(order)\n", "(order <formula>) block malformed"),
    "duplicate-letter": (_HEADER + _LETTER + _LETTER + _ORDER, "duplicate letter block for 'o'"),
    "duplicate-order": (_HEADER + _LETTER + _ORDER + _ORDER, "duplicate order block"),
    "unknown-block": (
        _HEADER + _LETTER + "(sort (leq x1 y1))\n" + _ORDER,
        "unknown block 'sort'",
    ),
    "missing-order": (_HEADER + _LETTER, "missing (order ...) block"),
    "order-free-variables": (
        _HEADER + _LETTER + "(order (leq x1 x1))\n",
        "order formula must have free variables ['x1', 'y1'], has ['x1']",
    ),
    "unterminated-string": (
        _HEADER + '(letter o (letter "a x1))\n' + _ORDER,
        "unterminated string literal",
    ),
}


def test_the_reader_error_base_interp_reads():
    base = parse_interp(_HEADER + _LETTER + _ORDER)
    assert eval_interp(base, Word.parse("aa")).word() == Word.parse("oo")


@pytest.mark.parametrize("case", sorted(INTERP_READER_ERRORS))
def test_interp_reader_errors(case):
    """Each way a ``.interp`` text can be malformed, in its header, its
    blocks or the interpretation they describe, raises its own message."""
    text, message = INTERP_READER_ERRORS[case]
    with pytest.raises((InterpError, SexprError)) as caught:
        parse_interp(text)
    assert str(caught.value) == message


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
