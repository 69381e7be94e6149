"""Formula AST, evaluator, relativization and the sortability analysis.

The evaluator is cross-checked against a deliberately naive reference
written here in the test module: plain recursive Tarskian semantics over
a dict environment, no compilation, no caching.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreglab import sexpr
from polyreglab.interp import Interpretation, builtin_interp
from polyreglab.logic import (
    And,
    Eq,
    Exists,
    Forall,
    FormulaEvaluator,
    FormulaPlan,
    Implies,
    Leq,
    Letter,
    LogicError,
    Max,
    Min,
    Not,
    Or,
    check_sortable,
    eval_formula,
    expand_macros,
    free_vars,
    parse_formula,
    quantifier_count,
    relativize,
    rename_bound,
    substitute,
    to_sexpr,
)
from polyreglab.words import Alphabet, Word


def naive_eval(w, f, env):
    if isinstance(f, Letter):
        return w[env[f.var]] == f.letter
    if isinstance(f, Leq):
        return env[f.left] <= env[f.right]
    if isinstance(f, Eq):
        return env[f.left] == env[f.right]
    if isinstance(f, Not):
        return not naive_eval(w, f.body, env)
    if isinstance(f, And):
        return all(naive_eval(w, p, env) for p in f.parts)
    if isinstance(f, Or):
        return any(naive_eval(w, p, env) for p in f.parts)
    if isinstance(f, Implies):
        return (not naive_eval(w, f.left, env)) or naive_eval(w, f.right, env)
    if isinstance(f, Max):
        return all(i <= env[f.var] for i in range(1, len(w) + 1))
    if isinstance(f, Min):
        return all(env[f.var] <= i for i in range(1, len(w) + 1))
    if isinstance(f, Forall):
        return all(
            naive_eval(w, f.body, {**env, f.var: i}) for i in range(1, len(w) + 1)
        )
    if isinstance(f, Exists):
        return any(
            naive_eval(w, f.body, {**env, f.var: i}) for i in range(1, len(w) + 1)
        )
    raise AssertionError(f)


# the sentence that holds exactly on a*b*
ASTAR_BSTAR = Forall(
    "x",
    Or((Letter("b", "x"), Forall("y", Or((Letter("a", "y"), Leq("x", "y")))))),
)


def test_astar_bstar_sentence():
    assert eval_formula(Word.parse("aab"), ASTAR_BSTAR) is True
    assert eval_formula(Word.parse("ba"), ASTAR_BSTAR) is False
    assert eval_formula(Word(), ASTAR_BSTAR) is True


def test_astar_bstar_exhaustive():
    for n in range(0, 6):
        for toks in itertools.product("ab", repeat=n):
            w = Word(toks)
            in_lang = "ba" not in "".join(toks)
            assert eval_formula(w, ASTAR_BSTAR) == in_lang, w.render()


def test_eval_env_errors():
    f = Letter("a", "x")
    with pytest.raises(LogicError):
        eval_formula(Word.parse("a"), f)
    with pytest.raises(LogicError):
        eval_formula(Word.parse("a"), f, {"x": 2})
    with pytest.raises(LogicError):
        eval_formula(Word.parse("a"), f, {"x": 0})


def test_max_min_macros():
    w = Word.parse("abc")
    assert eval_formula(w, Max("x"), {"x": 3})
    assert not eval_formula(w, Max("x"), {"x": 2})
    assert eval_formula(w, Min("x"), {"x": 1})
    core = expand_macros(Max("x"))
    assert not isinstance(core, Max)
    assert free_vars(core) == frozenset({"x"})


def _random_formula(rng, vars_free, depth, qdepth):
    """Small random AST; quantifier nesting bounded by qdepth."""
    leaf_pool = ["letter", "leq", "eq", "max"]
    if depth <= 0 or (qdepth <= 0 and rng.random() < 0.3):
        kind = rng.choice(leaf_pool)
        if kind == "letter":
            return Letter(rng.choice("ab#"), rng.choice(vars_free))
        if kind == "leq":
            return Leq(rng.choice(vars_free), rng.choice(vars_free))
        if kind == "eq":
            return Eq(rng.choice(vars_free), rng.choice(vars_free))
        return Max(rng.choice(vars_free))
    kind = rng.choice(["not", "and", "or", "implies", "forall", "exists"])
    if kind == "not":
        return Not(_random_formula(rng, vars_free, depth - 1, qdepth))
    if kind in ("and", "or"):
        parts = tuple(
            _random_formula(rng, vars_free, depth - 1, qdepth)
            for _ in range(rng.randint(1, 3))
        )
        return And(parts) if kind == "and" else Or(parts)
    if kind == "implies":
        return Implies(
            _random_formula(rng, vars_free, depth - 1, qdepth),
            _random_formula(rng, vars_free, depth - 1, qdepth),
        )
    if qdepth <= 0:
        return Letter(rng.choice("ab#"), rng.choice(vars_free))
    var = rng.choice(["u", "v", "t"])
    body = _random_formula(rng, vars_free + [var], depth - 1, qdepth - 1)
    return Forall(var, body) if kind == "forall" else Exists(var, body)


def test_evaluator_agrees_with_naive_reference():
    rng = random.Random(99)
    for trial in range(200):
        f = _random_formula(rng, ["x", "y"], depth=4, qdepth=3)
        n = rng.randint(1, 5)
        w = Word(tuple(rng.choices("ab#", k=n)))
        env = {"x": rng.randint(1, n), "y": rng.randint(1, n)}
        env = {k: v for k, v in env.items() if k in free_vars(f)}
        assert eval_formula(w, f, env) == naive_eval(w, f, env), (
            sexpr.render(to_sexpr(f)),
            w.render(),
            env,
        )


def _mask(holds):
    return sum(1 << i for i, h in enumerate(holds) if h)


def test_row_masks_agree_with_naive_reference():
    """Bit i of a row query is the naive truth value with the row variables
    bound to row i: x as a row variable over a random subset of positions
    with y scalar, then x and y both row variables over random pairs."""
    rng = random.Random(5)
    for trial in range(200):
        f = _random_formula(rng, ["x", "y"], depth=4, qdepth=3)
        n = rng.randint(1, 5)
        w = Word(tuple(rng.choices("ab#", k=n)))
        positions = range(1, n + 1)
        rows = [(x,) for x in rng.sample(positions, rng.randint(0, n))]
        at = FormulaEvaluator(w, f, var_order=("y",), rows=rows, row_vars=("x",)).at
        for y in positions:
            want = _mask(naive_eval(w, f, {"x": x, "y": y}) for (x,) in rows)
            assert at((y,)) == want, (sexpr.render(to_sexpr(f)), w.render(), rows, y)
        pairs = list(itertools.product(positions, repeat=2))
        rows = rng.sample(pairs, rng.randint(0, len(pairs)))
        got = FormulaEvaluator(w, f, var_order=(), rows=rows, row_vars=("x", "y")).at(())
        want = _mask(naive_eval(w, f, {"x": x, "y": y}) for x, y in rows)
        assert got == want, (sexpr.render(to_sexpr(f)), w.render(), rows)


_BINDERS = ("u", "v", "w", "x", "y")


@st.composite
def _quantified_formulas(draw, scope=("x", "y"), depth=4):
    """Random quantifier-heavy formulas over ``scope``.  A quantifier's body
    ranges over its own variable and a random subset of the enclosing
    scope, and compares its variable with each variable of that subset, so
    it mentions an outer bound variable, a row variable, both or neither.
    Binders reuse the names in ``_BINDERS``, so they shadow free and bound
    variables alike."""
    kinds = ["letter", "leq", "eq", "max", "min"]
    if depth > 0:
        kinds += ["not", "and", "or", "implies"] + ["forall", "exists"] * 3
    kind = draw(st.sampled_from(kinds))
    var = st.sampled_from(scope)
    if kind == "letter":
        return Letter(draw(st.sampled_from("ab#")), draw(var))
    if kind in ("leq", "eq"):
        return (Leq if kind == "leq" else Eq)(draw(var), draw(var))
    if kind in ("max", "min"):
        return (Max if kind == "max" else Min)(draw(var))
    if kind in ("forall", "exists"):
        bound = draw(st.sampled_from(_BINDERS))
        kept = [v for v in scope if v != bound and draw(st.booleans())]
        body = draw(_quantified_formulas((*kept, bound), depth - 1))
        links = [
            draw(st.sampled_from((Leq(bound, v), Leq(v, bound), Not(Eq(bound, v)))))
            for v in kept
        ]
        if links:
            body = draw(st.sampled_from((And, Or)))((*links, body))
        return (Forall if kind == "forall" else Exists)(bound, body)
    sub = _quantified_formulas(scope, depth - 1)
    if kind == "not":
        return Not(draw(sub))
    if kind == "implies":
        return Implies(draw(sub), draw(sub))
    parts = tuple(draw(st.lists(sub, min_size=1, max_size=2)))
    return And(parts) if kind == "and" else Or(parts)


@st.composite
def _quantified_cases(draw):
    n = draw(st.integers(0, 6))
    w = Word(tuple(draw(st.lists(st.sampled_from("ab#"), min_size=n, max_size=n))))
    positions = st.integers(1, max(n, 1))
    xs = draw(st.lists(positions, max_size=8 if n else 0))
    pairs = draw(st.lists(st.tuples(positions, positions), max_size=12 if n else 0))
    closure = draw(st.tuples(st.sampled_from((Forall, Exists)), st.sampled_from((Forall, Exists))))
    return draw(_quantified_formulas()), w, xs, pairs, closure


@settings(deadline=None, max_examples=300)
@given(_quantified_cases())
def test_quantifiers_agree_with_naive_reference(case):
    """Quantifier-heavy formulas in point mode (x and y scalar), with x as a
    row variable, with x and y both row variables, and closed into a
    sentence, on words of length 0 to 6."""
    f, w, xs, pairs, (outer, inner) = case
    positions = range(1, len(w) + 1)
    at = FormulaEvaluator(w, f, var_order=("x", "y")).at
    for x, y in itertools.product(positions, repeat=2):
        assert at((x, y)) == naive_eval(w, f, {"x": x, "y": y}), (x, y)
    rows = [(x,) for x in xs]
    at = FormulaEvaluator(w, f, var_order=("y",), rows=rows, row_vars=("x",)).at
    for y in positions:
        assert at((y,)) == _mask(naive_eval(w, f, {"x": x, "y": y}) for x in xs), y
    got = FormulaEvaluator(w, f, var_order=(), rows=pairs, row_vars=("x", "y")).at(())
    assert got == _mask(naive_eval(w, f, {"x": x, "y": y}) for x, y in pairs)
    sentence = outer("x", inner("y", f))
    assert eval_formula(w, sentence) == naive_eval(w, sentence, {})


@st.composite
def _word_sequences(draw):
    """One to three random words of length 0 to 6, and the empty word at a
    random place among them."""
    letters = st.lists(st.sampled_from("ab#"), max_size=6)
    words = [Word(tuple(t)) for t in draw(st.lists(letters, min_size=1, max_size=3))]
    words.insert(draw(st.integers(0, len(words))), Word())
    return words


@settings(deadline=None, max_examples=150)
@given(_quantified_formulas(), _word_sequences(), st.sampled_from((Forall, Exists)))
def test_one_plan_serves_a_sequence_of_words(f, words, closure):
    """One plan per (var_order, row_vars), built once and bound to every
    word of a sequence, gives bit-identical masks to a fresh evaluator per
    word and to the naive reference: in point mode, with x as a row
    variable, with x and y as row variables, and closed into a sentence.
    Binders reuse the row variables' names.  Every word is bound before any
    is queried, and the words are queried again in reverse, so word B
    queried after word A gives B's masks exactly: no memo cache or letter
    table is kept in the plan.  An evaluator refuses a plan built for other
    row variables."""
    sentence = closure("x", closure("y", f))
    modes = [
        (f, ("x", "y"), ()),
        (f, ("y",), ("x",)),
        (f, (), ("x", "y")),
        (sentence, (), ()),
    ]
    plans = [FormulaPlan(g, var_order, row_vars) for g, var_order, row_vars in modes]
    for (g, var_order, row_vars), plan in zip(modes, plans):
        bound = []
        for w in words:
            positions = range(1, len(w) + 1)
            rows = list(itertools.product(positions, repeat=len(row_vars)))
            ev = FormulaEvaluator(w, g, var_order, rows, row_vars, plan=plan)
            bound.append((w, rows, ev))
        for w, rows, ev in bound + bound[::-1]:
            fresh = FormulaEvaluator(w, g, var_order, rows, row_vars)
            for values in itertools.product(range(1, len(w) + 1), repeat=len(var_order)):
                env = dict(zip(var_order, values))
                want = _mask(naive_eval(w, g, {**env, **dict(zip(row_vars, r))}) for r in rows)
                assert ev.at(values) == fresh.at(values) == want, (w.render(), row_vars, values)
    with pytest.raises(LogicError, match="plan"):
        FormulaEvaluator(words[0], f, (), [], ("y", "x"), plan=plans[2])


def test_var_order_is_checked_when_the_plan_is_built():
    """A var_order that repeats a name, or names a row variable, is refused
    before any query."""
    w, f = Word(tuple("abc")), Leq("x", "y")
    with pytest.raises(LogicError, match="repeats a name"):
        FormulaEvaluator(w, f, var_order=("x", "y", "x"))
    with pytest.raises(LogicError, match="names row variables"):
        FormulaEvaluator(w, f, var_order=("x", "y"), rows=[(1,), (3,)], row_vars=("x",))
    with pytest.raises(LogicError, match="names row variables"):
        FormulaPlan(f, ("y", "x"), ("x",))


@pytest.mark.parametrize(
    "text, holds",
    [
        ("(forall x (letter a x))", True),
        ("(exists x (leq x x))", False),
        ("(not (exists x (eq x x)))", True),
        ("(forall x (exists y (leq x y)))", True),
        ("(exists x (forall y (leq y x)))", False),
        ("(not (forall x (exists y (not (eq x y)))))", False),
        ("(exists x (max x))", False),
        ("(forall x (min x))", True),
        ("(not (exists x (and (max x) (min x))))", True),
        ("(forall x (implies (letter a x) (letter b x)))", True),
        ("(forall x (implies (exists y (leq x y)) (exists y (not (leq x y)))))", True),
    ],
)
def test_sentences_on_the_empty_word(text, holds):
    """Over no positions every forall holds and every exists fails, also when
    the quantifier's body is answered as one mask over the positions."""
    f = parse_formula(text)
    assert eval_formula(Word(), f) is holds
    assert naive_eval(Word(), f, {}) is holds


def test_sexpr_round_trip_exact():
    text = "(forall y (or (letter a y) (leq x y)))"
    f = parse_formula(text)
    assert sexpr.render(to_sexpr(f)) == text
    assert f == Forall("y", Or((Letter("a", "y"), Leq("x", "y"))))


def test_sexpr_round_trip_random():
    rng = random.Random(7)
    for trial in range(100):
        f = _random_formula(rng, ["x1", "x2"], depth=4, qdepth=2)
        assert parse_formula(sexpr.render(to_sexpr(f))) == f


def test_parse_errors():
    for bad in ["(letter a)", "(leq x)", "(frobnicate x)", "(forall (x) y)"]:
        with pytest.raises((LogicError, sexpr.SexprError)):
            parse_formula(bad)


def test_rename_bound_distinct():
    f = And(
        (
            Exists("z", Letter("a", "z")),
            Exists("z", Letter("b", "z")),
            Letter("a", "z"),
        )
    )
    g = rename_bound(f)
    binders = []

    def collect(h):
        if isinstance(h, (Forall, Exists)):
            binders.append(h.var)
        for child in getattr(h, "parts", []) or []:
            collect(child)
        for attr in ("body", "left", "right"):
            sub = getattr(h, attr, None)
            if hasattr(sub, "__class__") and not isinstance(sub, str) and sub is not None:
                collect(sub)

    collect(g)
    assert len(binders) == len(set(binders))
    assert "z" not in binders  # z is free in the third conjunct
    assert free_vars(g) == free_vars(f)


def test_substitute_capture_avoidance():
    # substituting x -> y must not let the binder over y capture it
    f = Exists("y", Leq("x", "y"))
    g = substitute(f, {"x": "y"})
    assert free_vars(g) == frozenset({"y"})
    w = Word.parse("ab")
    # the substituted formula says: some position is >= y
    assert eval_formula(w, g, {"y": 1}) is True
    assert eval_formula(w, g, {"y": 2}) is True
    strict = substitute(Exists("y", Not(Leq("y", "x"))), {"x": "y"})
    assert eval_formula(w, strict, {"y": 2}) is False


def test_relativize_schema():
    f = Exists("y", Letter("a", "y"))
    g = relativize(f, "♣")
    assert g == Exists("y", And((Not(Letter("♣", "y")), Letter("a", "y"))))


def test_relativize_atoms_unchanged():
    f = And((Letter("a", "x"), Leq("x", "y")))
    assert relativize(f, "♣") == f


def test_relativize_guard_conflict():
    with pytest.raises(LogicError):
        relativize(Letter("♣", "x"), "♣")


def test_relativize_counts_and_free_vars():
    rng = random.Random(5)
    for trial in range(50):
        f = _random_formula(rng, ["x"], depth=4, qdepth=2)
        g = relativize(f, "♣")
        assert free_vars(g) == free_vars(f)
        assert quantifier_count(g) == quantifier_count(expand_macros(f))


def test_relativize_equivalent_on_guard_free_words():
    rng = random.Random(11)
    for trial in range(100):
        f = _random_formula(rng, ["x"], depth=3, qdepth=2)
        g = relativize(f, "♣")
        n = rng.randint(1, 4)
        w = Word(tuple(rng.choices("ab#", k=n)))
        env = {"x": rng.randint(1, n)} if "x" in free_vars(f) else {}
        assert eval_formula(w, f, env) == eval_formula(w, g, env)


# -- sortability ------------------------------------------------------------


def test_sortable_builtins():
    rep = check_sortable(builtin_interp("squaring-family"))
    assert rep.ok
    rep = check_sortable(builtin_interp("innsq-interp"))
    assert rep.ok
    order_sorts = rep.sorts["order"]
    assert order_sorts["x3"] == 1 and order_sorts["y3"] == 1
    assert order_sorts["x1"] == 1 and order_sorts["x2"] == 2
    assert order_sorts["y1"] == 1 and order_sorts["y2"] == 2


def test_cross_sort_witness():
    rep = check_sortable(builtin_interp("cross-sort-demo"))
    assert not rep.ok
    assert rep.witness is not None
    assert rep.witness.atom == Leq("x1", "y2")
    assert "x1" in rep.witness.render() and "y2" in rep.witness.render()


def test_sortable_requires_dimension_two():
    one_dim = Interpretation(
        dim=1,
        input_alphabet=Alphabet.of("a"),
        output_alphabet=Alphabet.of("a"),
        letter_formulas={"a": Letter("a", "x1")},
        order_formula=Leq("x1", "y1"),
    )
    with pytest.raises(LogicError):
        check_sortable(one_dim)
