"""Formula AST, evaluator, relativization and the sortability analysis.

The evaluator is cross-checked against a deliberately naive reference
written here in the test module: plain recursive Tarskian semantics over
a dict environment, no compilation, no caching.
"""

import contextlib
import io
import itertools
import random
import re
import sys
import tokenize

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyreglab import sexpr
from polyreglab.interp import Interpretation, builtin_interp
from polyreglab.psi import family, psi
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
    GEOMETRY_CACHE,
    RowSpace,
    all_vars,
    bit_flags,
    check_sortable,
    conj,
    disj,
    eval_formula,
    expand_macros,
    free_vars,
    letters_used,
    parse_formula,
    relativize,
    rename_bound,
    row_geometry,
    substitute,
    to_sexpr,
    _collect_frees,
    _comparison_atoms,
    _excludes,
    _generate,
    _KINDS,
    _may_exclude,
    _nodes,
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


def _quantifiers(f):
    return sum(isinstance(g, (Forall, Exists, Max, Min)) for g in _nodes(f))


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


def _evaluator(w, f, var_order, row_vars):
    """A plan of its own for ``f``, bound to the product space of ``w``
    whose rows bind ``row_vars``."""
    return FormulaEvaluator(FormulaPlan(f, var_order, row_vars), RowSpace(w, len(row_vars)))


def test_row_masks_agree_with_naive_reference():
    """Bit i of a row query is the naive truth value with the row variables
    bound to row i, for every row of the product space (and so for every
    subset of its rows): x as a row variable with y scalar, then x and y
    both row variables."""
    rng = random.Random(5)
    for trial in range(200):
        f = _random_formula(rng, ["x", "y"], depth=4, qdepth=3)
        n = rng.randint(1, 5)
        w = Word(tuple(rng.choices("ab#", k=n)))
        positions = range(1, n + 1)
        at = _evaluator(w, f, ("y",), ("x",)).at
        for y in positions:
            want = _mask(naive_eval(w, f, {"x": x, "y": y}) for x in positions)
            assert at((y,)) == want, (sexpr.render(to_sexpr(f)), w.render(), y)
        pairs = list(itertools.product(positions, repeat=2))
        got = _evaluator(w, f, (), ("x", "y")).at(())
        want = _mask(naive_eval(w, f, {"x": x, "y": y}) for x, y in pairs)
        assert got == want, (sexpr.render(to_sexpr(f)), w.render())


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
    w = Word(tuple(draw(st.lists(st.sampled_from("ab#"), max_size=6))))
    closure = draw(st.tuples(st.sampled_from((Forall, Exists)), st.sampled_from((Forall, Exists))))
    return draw(_quantified_formulas()), w, closure


@settings(deadline=None, max_examples=300)
@given(_quantified_cases())
def test_quantifiers_agree_with_naive_reference(case):
    """Quantifier-heavy formulas in point mode (x and y scalar), with x as a
    row variable, with x and y both row variables, and closed into a
    sentence, on words of length 0 to 6."""
    f, w, (outer, inner) = case
    positions = range(1, len(w) + 1)
    at = _evaluator(w, f, ("x", "y"), ()).at
    for x, y in itertools.product(positions, repeat=2):
        assert at((x, y)) == naive_eval(w, f, {"x": x, "y": y}), (x, y)
    at = _evaluator(w, f, ("y",), ("x",)).at
    for y in positions:
        assert at((y,)) == _mask(naive_eval(w, f, {"x": x, "y": y}) for x in positions), y
    got = _evaluator(w, f, (), ("x", "y")).at(())
    pairs = itertools.product(positions, repeat=2)
    assert got == _mask(naive_eval(w, f, {"x": x, "y": y}) for x, y in pairs)
    sentence = outer("x", inner("y", f))
    assert eval_formula(w, sentence) == naive_eval(w, sentence, {})


@st.composite
def _guard_parts(draw):
    """One part of a quantifier body on v: a part that selects no position
    or every position, a literal or a small or over v and a subset of x and
    y, or a quantifier on w whose own body mentions v."""
    kind = draw(st.sampled_from(["none", "every", "nested", "v", "vy", "vx", "vxy"]))
    if kind == "none":
        return draw(st.sampled_from([Letter("c", "v"), Not(Leq("v", "v"))]))
    if kind == "every":
        return draw(st.sampled_from([Leq("v", "v"), Not(Letter("c", "v"))]))
    names = st.sampled_from(("w", "v", draw(st.sampled_from("xy"))) if kind == "nested" else kind)

    def literal():
        a, b = draw(names), draw(names)
        atom = draw(st.sampled_from([Letter("a", a), Letter("b", a), Leq(a, b), Eq(a, b)]))
        return Not(atom) if draw(st.booleans()) else atom

    part = Or((literal(), literal())) if draw(st.booleans()) else literal()
    if kind == "nested":
        link = draw(st.sampled_from([Leq("w", "v"), Leq("v", "w")]))
        part = draw(st.sampled_from([Exists("w", And((link, part))), Forall("w", Implies(link, part))]))
    return part


@st.composite
def _guarded_quantifiers(draw):
    """A quantifier on v whose body splits into conjuncts (of its negation,
    for forall) as an and, an implies, an or, a negated or or a negated
    implies; some of them mention no row variable, depending on which of
    x and y are rows."""
    parts = draw(st.lists(_guard_parts(), min_size=1, max_size=4))
    cut = draw(st.integers(0, len(parts)))
    left, right = conj(*(parts[:cut] or [Leq("v", "v")])), disj(*(parts[cut:] or [Letter("c", "v")]))
    return draw(
        st.sampled_from(
            [
                Exists("v", conj(*parts)),
                Forall("v", Implies(left, right)),
                Forall("v", disj(*parts)),
                Exists("v", Not(disj(*parts))),
                Exists("v", Not(Implies(left, right))),
            ]
        )
    )


@settings(deadline=None, max_examples=200)
@given(_guarded_quantifiers())
def test_guarded_loops_agree_with_naive_reference(f):
    """A quantifier that loops takes its positions from its guard, the
    conjuncts free of row variables, and evaluates the rest at each.  Its
    masks equal the naive reference's in point mode, with x as a row
    variable and with x and y as row variables, on every word over a and b
    of length 0 to 3; guards include ones that select no position (the
    letter c never occurs) and ones that select every position."""
    for var_order, row_vars in [(("x", "y"), ()), (("y",), ("x",)), ((), ("x", "y"))]:
        plan = FormulaPlan(f, var_order, row_vars)
        for w in _words_up_to(3):
            positions = range(1, len(w) + 1)
            rows = list(itertools.product(positions, repeat=len(row_vars)))
            at = FormulaEvaluator(plan, RowSpace(w, len(row_vars))).at
            for values in itertools.product(positions, repeat=len(var_order)):
                env = dict(zip(var_order, values))
                want = _mask(naive_eval(w, f, {**env, **dict(zip(row_vars, r))}) for r in rows)
                assert at(values) == want, (f.render(), w.render(), row_vars, values)


@st.composite
def _witness_quantifiers(draw):
    """A quantifier on v whose conjuncts (of its negation, for forall) say
    that v is the greatest position <= x where Q holds, or the least >= x:
    v <= x (x <= v), Q's letter literals on v, a forall on z whose body
    says that no position strictly between them (z in (v, x], or [x, v))
    satisfies Q, and a random rest.  x is x or y.  The kind is a
    ``match``; a ``near`` miss, whose forall excludes a Q' that differs
    from Q on one letter, d, maybe without naming d, or also excludes z
    when z, v and x are one position; or the ``family`` shape that
    ``relativize`` gives the lift's hats one level up: Q also says not c,
    and the forall's body sits under not c(z).  The quantifier may sit at
    the bottom of a chain of 30 or 31 ands and ors."""
    x = draw(st.sampled_from("xy"))
    greatest, kind = draw(st.booleans()), draw(st.sampled_from(["match", "near", "family"]))
    literal = st.tuples(st.sampled_from("ab"), st.booleans())
    literals = draw(st.lists(literal, min_size=1, max_size=2, unique_by=lambda t: t[0]))

    def q(var):
        return [Letter(c, var) if holds else Not(Letter(c, var)) for c, holds in literals]

    excluded = conj(*q("z"))
    # Excluding z == v == x as well changes nothing when Q holds nowhere.
    satisfiable = sum(holds for _, holds in literals) < 2
    near_order = kind == "near" and satisfiable and draw(st.booleans())
    if kind == "near" and not near_order:
        d = draw(st.sampled_from("abc"))
        # On words over a, b, c, d(z) also reads "neither of the others",
        # which leaves d to the truth table's case of an unnamed letter.
        others = And(tuple(Not(Letter(e, "z")) for e in "abc" if e != d))
        at_d = draw(st.sampled_from([Letter(d, "z"), others]))
        if all((d == c) == holds for c, holds in literals):
            excluded = And((*q("z"), Not(at_d)))
        else:
            excluded = Or((excluded, at_d))
    if greatest:  # z in (v, x]
        shapes = [(Not(Leq("z", "v")), Leq("z", x)), (Leq("v", "z"), Not(Eq("v", "z")), Leq("z", x))]
    else:  # z in [x, v)
        shapes = [(Leq(x, "z"), Not(Leq("v", "z"))), (Leq(x, "z"), Leq("z", "v"), Not(Eq("z", "v")))]
    between = And(draw(st.sampled_from(shapes)))
    if near_order:
        between = Or((between, And((Eq("z", "v"), Eq("v", x)))))
    body = draw(st.sampled_from([Implies(between, Not(excluded)), Or((Not(between), Not(excluded)))]))
    literals_on_v = q("v")
    if kind == "family":
        literals_on_v.append(Not(Letter("c", "v")))
        body = Implies(Not(Letter("c", "z")), body)
    bound = Leq("v", x) if greatest else Leq(x, "v")
    # Under an or, the rest adds no literal on v to Q (# never occurs).
    rest = Or((draw(_quantified_formulas(("v", "x", "y"), depth=2)), Letter("#", "v")))
    parts = draw(st.permutations([bound, *literals_on_v, Forall("z", body), rest]))
    if draw(st.booleans()):
        f = Exists("v", conj(*parts))
    else:
        f = Forall("v", disj(*(Not(p) for p in parts)))
    # At the bottom of an and/or chain, the quantifier sits just above or
    # at the depth where its unit's text splits.
    for k in range(draw(st.sampled_from([0, 0, 30, 31]))):
        f = (And if k % 2 else Or)((Letter("a", "xy"[k % 2]), f))
    return f, kind


_BETWEEN = And((Not(Leq("z", "v")), Leq("z", "x")))


_VXZ_ATOMS = [Letter(c, "z") for c in "ab"] + [
    atom(left, right) for atom in (Leq, Eq) for left in "vxz" for right in "vxz" if left != right
]


@st.composite
def _witness_bodies(draw):
    """A forall's body about v, x and z, and literals Q on v: a random
    formula over z's letters and comparisons among v, x and z, or the body
    of a witness in either direction, between bounds of either shape."""
    literals = tuple(sorted(draw(st.sets(st.tuples(st.sampled_from("ab"), st.booleans()), max_size=2))))
    greatest = draw(st.booleans())
    if draw(st.booleans()):
        body = draw(
            st.recursive(
                st.sampled_from(_VXZ_ATOMS),
                lambda kids: st.one_of(
                    kids.map(Not),
                    st.tuples(kids, kids).map(And),
                    st.tuples(kids, kids).map(Or),
                    st.tuples(kids, kids).map(lambda pair: Implies(*pair)),
                ),
                max_leaves=6,
            )
        )
    else:
        q = [Letter(c, "z") if holds else Not(Letter(c, "z")) for c, holds in literals]
        if greatest:  # z in (v, x]
            shapes = [(Not(Leq("z", "v")), Leq("z", "x")), (Leq("v", "z"), Not(Eq("z", "v")), Leq("z", "x"))]
        else:  # z in [x, v)
            shapes = [(Leq("x", "z"), Not(Leq("v", "z"))), (Leq("x", "z"), Leq("z", "v"), Not(Eq("v", "z")))]
        between = And(draw(st.sampled_from(shapes)))
        if q:
            body = draw(st.sampled_from([Implies(between, Not(conj(*q))), Or((Not(between), Not(conj(*q))))]))
        else:
            body = Not(between)
    return Forall("z", body), literals, greatest


@settings(deadline=None, max_examples=300)
@given(_witness_bodies())
def test_the_atom_test_passes_every_truth_table_match(case):
    """``_may_exclude``, the test on comparison atoms that runs before the
    truth table of ``_excludes``, passes every forall that the truth table
    accepts, on random bodies and on witness bodies, for Q of zero to two
    literals (contradictory ones included) in either direction."""
    fa, literals, greatest = case
    if _excludes(fa, "v", "x", literals, greatest):
        assert _may_exclude(fa, "v", "x", literals, greatest), fa.render()


@settings(deadline=None, max_examples=60)
@given(_witness_quantifiers())
# Near misses: the forall excludes b, not Q = not a, so the two differ only
# on c, which neither names; the forall also excludes z == v == x.
@example((Exists("v", And((Leq("v", "x"), Not(Letter("a", "v")), Forall("z", Implies(_BETWEEN, Not(Letter("b", "z")))), Letter("a", "y")))), "near"))
@example((Exists("v", And((Leq("v", "x"), Not(Letter("a", "v")), Forall("z", Implies(Or((_BETWEEN, And((Eq("z", "v"), Eq("v", "x"))))), Letter("a", "z"))), Letter("b", "y")))), "near"))
# The witness alone: the body holds only v <= x, Q(v) and the forall, so
# the inline witness of the scalar x is the whole quantifier.
@example((And((Letter("a", "y"), Exists("v", And((Leq("v", "x"), Letter("a", "v"), Forall("z", Implies(_BETWEEN, Not(Letter("a", "z"))))))))), "match"))
@example((And((Letter("a", "y"), Forall("v", Or((Not(Leq("v", "x")), Not(Letter("a", "v")), Not(Forall("z", Implies(_BETWEEN, Not(Letter("a", "z")))))))))), "match"))
def test_unique_witnesses_agree_with_naive_reference(case):
    """A quantifier that names the greatest (least) position <= x (>= x)
    where Q holds is answered from the word's witness table, inline for a
    scalar x and as the loop's first lookup for a row variable x, in the
    exists and the forall form, also when Q and the forall are guarded as
    the lift's hats are in ``family(3)``; a near miss, whose forall
    excludes a Q' that differs from Q on one letter, or also excludes z
    where z, v and x coincide, reads none.  Masks equal the naive
    reference's in point mode and with one and two row variables, on every
    word over a, b, c of length 0 to 4."""
    f, kind = case
    modes = [(("x", "y"), ()), (("y",), ("x",)), (("x",), ("y",)), ((), ("x", "y"))]
    plans = [FormulaPlan(f, var_order, row_vars) for var_order, row_vars in modes]
    for plan in plans:
        witnesses = [spec for _, spec in plan._specs if spec[0] == "witness"]
        assert bool(witnesses) == (kind != "near"), (f.render(), plan.row_vars)
    words = [Word(t) for k in range(5) for t in itertools.product("abc", repeat=k)]
    for w in words:
        positions = range(1, len(w) + 1)
        reference = _memo_eval(w, expand_macros(f))
        for (var_order, row_vars), plan in zip(modes, plans):
            rows = list(itertools.product(positions, repeat=len(row_vars)))
            at = FormulaEvaluator(plan, RowSpace(w, len(row_vars))).at
            for values in itertools.product(positions, repeat=len(var_order)):
                env = dict(zip(var_order, values))
                want = _mask(reference({**env, **dict(zip(row_vars, r))}) for r in rows)
                assert at(values) == want, (f.render(), w.render(), row_vars, values)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_product_space_masks_match_the_row_by_row_build(dim):
    """``RowSpace`` lists the same rows as ``itertools.product`` and its
    closed-form masks equal those built row by row from that list, for
    every component and words of length 0 to 7."""
    for n in range(8):
        w = Word(tuple("ab#"[k % 3] for k in range(n)))
        space = RowSpace(w, dim)
        rows = list(itertools.product(range(1, n + 1), repeat=dim))
        assert space.rows_at(space.all) == rows and space.all == (1 << len(rows)) - 1
        for a in range(dim):
            assert space.masks[a] == _masks_row_by_row(n, rows, a), (n, a)


def test_spaces_of_one_length_share_one_geometry():
    """Row spaces of words of one length and dimension share one geometry
    object, whatever the words' letters, and take ``all`` and ``masks``
    from it; another length or dimension has a geometry of its own."""
    spaces = [RowSpace(Word(tuple(t)), 2) for t in ("ab#", "###", "bba")]
    assert spaces[0].geometry is spaces[1].geometry is spaces[2].geometry
    assert all(s.all is s.geometry.all and s.masks is s.geometry.masks for s in spaces)
    assert spaces[0].positions.geometry is RowSpace(Word(tuple("aaa")), 1).geometry
    others = [RowSpace(Word(tuple("ab")), 2), spaces[0].positions]
    assert all(other.geometry is not spaces[0].geometry for other in others)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_geometry_tables_match_the_row_by_row_build(dim):
    """Every ``slot`` and ``rows`` table of a geometry, and its complement,
    equals its definition read row by row, for words of length 0 to 5."""
    compare = {0: lambda c, p: c == p, 1: lambda c, p: c <= p, 2: lambda c, p: c >= p}
    for n in range(6):
        rows = list(itertools.product(range(1, n + 1), repeat=dim))
        everything = (1 << len(rows)) - 1
        tables = RowSpace(Word(("a",) * n), dim).geometry.tables
        want = {}
        for a in range(dim):
            for which, holds in compare.items():
                masks = tuple(_mask(holds(row[a], p) for row in rows) for p in range(n + 2))
                want["slot", which, a, False] = masks
                want["slot", which, a, True] = tuple(everything ^ m for m in masks)
            for b in range(dim):
                for is_eq in (True, False):
                    mask = _mask(row[a] == row[b] if is_eq else row[a] <= row[b] for row in rows)
                    want["rows", is_eq, a, b, False] = mask
                    want["rows", is_eq, a, b, True] = everything ^ mask
        assert tables == want, n


def test_geometry_cache_stays_at_its_bound():
    """A sweep over words of length 0 to 40 in dimensions 1 to 3, 123
    geometries, leaves ``GEOMETRY_CACHE`` of them cached, and a space of a
    length swept early gets a fresh geometry equal to the one it had."""
    row_geometry.cache_clear()
    try:
        first = RowSpace(Word(), 1).geometry
        for n in range(41):
            for dim in (1, 2, 3):
                RowSpace(Word(("a",) * n), dim)
                assert row_geometry.cache_info().currsize <= GEOMETRY_CACHE
        assert row_geometry.cache_info().currsize == GEOMETRY_CACHE
        again = RowSpace(Word(), 1).geometry
        assert again is not first
        assert (again.all, again.masks, again.tables) == (first.all, first.masks, first.tables)
    finally:
        row_geometry.cache_clear()


def _masks_row_by_row(n, rows, a):
    """The ==, <= and >= masks of component ``a`` of ``rows``, bit i for
    ``rows[i]``, built one row at a time, as tuples by position: the
    reference for the closed-form masks of ``RowSpace``."""
    bufs = [bytearray((len(rows) + 7) >> 3) for _ in range(n + 2)]
    for i, row in enumerate(rows):
        bufs[row[a]][i >> 3] |= 1 << (i & 7)
    eq = tuple(int.from_bytes(buf, "little") for buf in bufs)
    le = tuple(itertools.accumulate(eq, lambda x, y: x | y))
    everything = (1 << len(rows)) - 1
    return eq, le, tuple(everything ^ below for below in [0, *le[:-1]])


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3), st.integers(0, 5), st.sampled_from([0, 0.1, 0.5, 0.9, 1]), st.randoms())
def test_order_space_masks_match_the_row_by_row_build(dim, n, density, rng):
    """A domain's rows of the product space, as the order check reads
    them: the space lists the rows of the domain's mask in order,
    ``bit_flags`` decodes the mask's bits, and the space's masks,
    restricted to that mask, are those of the row-by-row build over the
    domain's rows with each row at its bit in the space.  Domains are drawn from every density, the empty
    one included, in dimensions 1 to 3 on words of length 0 to 5."""
    w = Word(tuple("ab#"[k % 3] for k in range(n)))
    product = RowSpace(w, dim)
    mask = sum(1 << i for i in range(n**dim) if rng.random() < density)
    rows = [row for i, row in enumerate(itertools.product(range(1, n + 1), repeat=dim)) if mask >> i & 1]
    assert product.rows_at(mask) == rows
    bits = [i for i in range(n**dim) if mask >> i & 1]
    assert list(itertools.compress(itertools.count(), bit_flags(mask))) == bits
    for a in range(dim):
        restricted = [[m & mask for m in masks] for masks in product.masks[a]]
        by_row = _masks_row_by_row(n, rows, a)
        spread = [[sum((m >> j & 1) << b for j, b in enumerate(bits)) for m in masks] for masks in by_row]
        assert restricted == spread, (mask, a)


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
    table is kept in the plan."""
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
            ev = FormulaEvaluator(plan, RowSpace(w, len(row_vars)))
            bound.append((w, rows, ev))
        for w, rows, ev in bound + bound[::-1]:
            fresh = _evaluator(w, g, var_order, row_vars)
            for values in itertools.product(range(1, len(w) + 1), repeat=len(var_order)):
                env = dict(zip(var_order, values))
                want = _mask(naive_eval(w, g, {**env, **dict(zip(row_vars, r))}) for r in rows)
                assert ev.at(values) == fresh.at(values) == want, (w.render(), row_vars, values)


def _units(plan):
    """How many units the generator defines for the formulas of ``plan``."""
    frees = {}
    for core in plan.core:
        _collect_frees(core, frees)
    return len(_generate(plan.core, frees, plan.free, plan.row_vars).sources) - 1


_WORDS_UP_TO_4 = st.lists(st.sampled_from("ab#"), max_size=4).map(lambda t: Word(tuple(t)))

# Two quantifiers whose bodies are alike up to renaming but bind the first
# and the second variable of their body: y is the last and the first
# position, two different units.
_SAME_BODY_OTHER_BINDER = parse_formula("(and (forall u (leq u y)) (forall u (leq y u)))")

# With x as a row variable, the guards of these two quantifiers are a(z)
# and not a(z): the same node under a negation or not, two different units.
_GUARDS_OF_OPPOSITE_SIGN = parse_formula(
    "(and (exists z (and (letter a z) (leq x z))) (exists z (and (not (letter a z)) (leq x z))))"
)


@settings(deadline=None, max_examples=60)
@example(_SAME_BODY_OTHER_BINDER, Leq("x", "u"), [Word.parse("ab")])
@example(_GUARDS_OF_OPPOSITE_SIGN, Leq("x", "u"), [Word.parse("ab"), Word.parse("ba")])
@given(_quantified_formulas(), _quantified_formulas(("x", "u")), st.lists(_WORDS_UP_TO_4, min_size=1, max_size=2))
def test_plans_of_several_formulas_agree_with_one_plan_each(f, g, words):
    """A plan of the formulas f, g and f again answers, on each word, the
    masks that a plan of each formula alone and the naive reference answer:
    in point mode, with x as a row variable and with x and y as row
    variables.  g's free u is a binder of f as often as not; f's second
    copy adds no unit, and a tuple asks no point query."""
    modes = [(("x", "y", "u"), ()), (("y", "u"), ("x",)), (("u",), ("x", "y"))]
    for var_order, row_vars in modes:
        together = FormulaPlan((f, g, f), var_order, row_vars)
        pair = FormulaPlan((f, g), var_order, row_vars)
        assert _units(together) == _units(pair)
        alone = [FormulaPlan(h, var_order, row_vars) for h in (f, g, f)]
        for w in words:
            positions = range(1, len(w) + 1)
            rows = list(itertools.product(positions, repeat=len(row_vars)))
            at = FormulaEvaluator(together, RowSpace(w, len(row_vars))).at
            singles = [FormulaEvaluator(p, RowSpace(w, len(row_vars))).at for p in alone]
            for values in itertools.product(positions, repeat=len(var_order)):
                env = dict(zip(var_order, values))
                want = tuple(
                    _mask(naive_eval(w, h, {**env, **dict(zip(row_vars, r))}) for r in rows) for h in (f, g, f)
                )
                assert at(values) == tuple(one(values) for one in singles) == want, (w.render(), values)
    with pytest.raises(LogicError, match="one formula"):
        _evaluator(Word.parse("ab"), (f, g), ("x", "y", "u"), ()).evaluate({"x": 1, "y": 1, "u": 1})


def test_var_order_is_checked_when_the_plan_is_built():
    """A var_order that repeats a name, or names a row variable, is refused
    before any query."""
    f = Leq("x", "y")
    with pytest.raises(LogicError, match="repeats a name"):
        FormulaPlan(f, ("x", "y", "x"))
    with pytest.raises(LogicError, match="names row variables"):
        FormulaPlan(f, ("x", "y"), ("x",))
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


# -- generated code ----------------------------------------------------------


def _renamed(f, names, letters):
    """``f`` with every variable (binders included) and every letter
    renamed through the two mappings."""
    if isinstance(f, Letter):
        return Letter(letters[f.letter], names[f.var])
    if isinstance(f, (Leq, Eq)):
        return type(f)(names[f.left], names[f.right])
    if isinstance(f, (Max, Min)):
        return type(f)(names[f.var])
    if isinstance(f, Not):
        return Not(_renamed(f.body, names, letters))
    if isinstance(f, (And, Or)):
        return type(f)(tuple(_renamed(p, names, letters) for p in f.parts))
    if isinstance(f, Implies):
        return Implies(_renamed(f.left, names, letters), _renamed(f.right, names, letters))
    return type(f)(names[f.var], _renamed(f.body, names, letters))


_GENERATED_NAME = re.compile(r"[vcqm]\d+|A[01]?|B|R|t|roots|bind|cache|key|hit|todo|get|bit_length")
_GENERATED_KEYWORDS = {"def", "return", "if", "else", "and", "or", "not", "is", "None", "for", "in", "while", "break"}
_GENERATED_OPS = set("( ) [ ] { } , : . = ^ & | < > -".split()) | {
    ":=", "==", "!=", "<=", ">=", "|=", "&=",
}
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _generated(plan):
    """The generator re-run over ``plan``'s core, as the plan ran it: its
    ``sources`` and its count of ``nodes``."""
    frees = {}
    for f in plan.core if isinstance(plan.core, tuple) else (plan.core,):
        _collect_frees(f, frees)
    return _generate(plan.core, frees, plan.free, plan.row_vars)


def _assert_generated_text_only(plan):
    """Every unit's source, and the binder's, holds only generated names,
    keywords, integer literals and operators."""
    sources = _generated(plan).sources
    assert sources
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                assert tok.string in _GENERATED_KEYWORDS or _GENERATED_NAME.fullmatch(tok.string), tok
            elif tok.type == tokenize.NUMBER:
                assert re.fullmatch(r"\d+", tok.string), tok
            elif tok.type == tokenize.OP:
                assert tok.string in _GENERATED_OPS, tok
            else:
                assert tok.type in _LAYOUT, tok


_HOSTILE_NAMES = ["'); import os #", "x\n", "♣", "def", "None", "lambda", "v0", "A", "cache", "m0"]
_HOSTILE_LETTERS = ["'); import os #", "♣", "\n", "None"]


def test_hostile_names_reach_generated_code_only_as_tables():
    """Letters and variables named like Python code, keywords, the
    generator's own names or non-ASCII text: plans built through the API
    agree with the naive reference in point mode and with one and two row
    variables, and their sources hold generated text only.  So do plans of
    two formulas, as a letters plan is, whose queries answer both masks."""
    rng = random.Random(17)
    second = random.Random(71)
    for trial in range(60):
        names = dict(zip(["x", "y", "u", "v", "t"], rng.sample(_HOSTILE_NAMES, 5)))
        letters = dict(zip("ab#", rng.sample(_HOSTILE_LETTERS, 3)))
        f = _renamed(_random_formula(rng, ["x", "y"], depth=4, qdepth=3), names, letters)
        g = _renamed(_random_formula(second, ["x", "y"], depth=3, qdepth=2), names, letters)
        x, y = names["x"], names["y"]
        n = rng.randint(0, 4)
        w = Word(tuple(rng.choices(list(letters.values()), k=n)))
        positions = range(1, n + 1)
        for var_order, row_vars in [((x, y), ()), ((y,), (x,)), ((), (x, y))]:
            plan = FormulaPlan(f, var_order, row_vars)
            pair = FormulaPlan((f, g), var_order, row_vars)
            _assert_generated_text_only(plan)
            _assert_generated_text_only(pair)
            rows = list(itertools.product(positions, repeat=len(row_vars)))
            ev = FormulaEvaluator(plan, RowSpace(w, len(row_vars)))
            both = FormulaEvaluator(pair, RowSpace(w, len(row_vars)))
            for values in itertools.product(positions, repeat=len(var_order)):
                env = dict(zip(var_order, values))
                want = [
                    _mask(naive_eval(w, h, {**env, **dict(zip(row_vars, r))}) for r in rows)
                    for h in (f, g)
                ]
                assert ev.at(values) == want[0], (sexpr.render(to_sexpr(f)), w.tokens, values)
                assert both.at(values) == tuple(want), (sexpr.render(to_sexpr(g)), w.tokens, values)


@contextlib.contextmanager
def _deep_stack():
    """Only the naive reference evaluators here recurse, two frames per
    and/or level, so chains several hundred deep need a larger limit than
    Python's default; the library's walkers and generated code do not."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 8000))
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


_AROUND_SPLITS = st.sampled_from([30, 31, 32, 33, 34, 63, 64, 65, 66, 96, 97])


@st.composite
def _deep_chains(draw):
    """A chain of and/or/not/implies of depth 1 to 650, each level with an
    atom beside the deeper part; alternating and/or levels keep their depth
    when normalized.  A level puts the deeper part first, or puts first an
    atom that never stops the evaluation early, so every query reaches the
    innermost atom.  Two in three chains also mention z and sit under a
    quantifier on z."""
    depth = draw(st.one_of(st.integers(1, 650), _AROUND_SPLITS))
    kinds = draw(st.sampled_from([("and", "or"), ("and", "or", "not", "implies"), ("not", "implies")]))
    quantifier = draw(st.sampled_from([None, Forall, Exists]))
    names = st.sampled_from("xyz" if quantifier else "xy")
    atoms = st.one_of(
        st.builds(Letter, st.sampled_from("ab"), names),
        st.builds(Leq, names, names),
        st.builds(Eq, names, names),
    )
    start = draw(st.integers(0, len(kinds) - 1))
    f = draw(atoms)
    for level in range(depth):
        kind, atom, deep_first = kinds[(start + level) % len(kinds)], draw(atoms), draw(st.booleans())
        v = draw(names)
        true = Leq(v, v)
        if kind == "not":
            f = Not(f)
        elif kind == "implies":
            f = Implies(f, atom) if deep_first else Implies(true, f)
        elif kind == "and":
            f = And((f, atom) if deep_first else (true, f))
        else:
            f = Or((f, atom) if deep_first else (Not(true), f))
    if quantifier:
        f = quantifier("z", draw(st.sampled_from([And, Or]))((f, Leq("z", draw(names)))))
    return f


@st.composite
def _quantifier_chains(draw):
    """Up to 120 nested quantifiers over z1, z2, ..., each comparing its
    variable with the one bound just outside it (y for the outermost), so
    that some loop and some are answered over the positions."""
    depth = draw(st.one_of(st.integers(1, 120), _AROUND_SPLITS))
    names = ["y"] + [f"z{k}" for k in range(1, depth + 1)]
    f = draw(st.sampled_from([Letter("a", names[-1]), Leq("x", names[-1]), Letter("b", "x")]))
    for var, outer in reversed(list(zip(names[1:], names))):
        link = draw(st.sampled_from([Leq(var, outer), Leq(outer, var), Not(Eq(var, outer))]))
        guard = draw(st.sampled_from([Letter("a", var), Leq(var, "x"), Not(Letter("b", var))]))
        body = draw(st.sampled_from([And, Or]))(tuple(draw(st.permutations([link, guard, f]))))
        f = draw(st.sampled_from([Forall, Exists]))(var, body)
    return And((Letter("a", "y"), f)) if draw(st.booleans()) else f


def _memo_eval(w, f):
    """``naive_eval(w, f, env)`` as a function of ``env``, memoized on the
    values of each subformula's free variables, so long quantifier chains
    stay polynomial."""
    frees, memo = {}, {}

    def collect(g):
        fv = set(free_vars(g)) if isinstance(g, (Letter, Leq, Eq)) else set()
        for h in _KINDS[type(g)].kids(g):
            fv |= collect(h)
        if isinstance(g, (Forall, Exists)):
            fv.discard(g.var)
        frees[id(g)] = sorted(fv)
        return fv

    def ev(g, env):
        key = (id(g), *(env[v] for v in frees[id(g)]))
        if key not in memo:
            if isinstance(g, (Letter, Leq, Eq)):
                memo[key] = naive_eval(w, g, env)
            elif isinstance(g, Not):
                memo[key] = not ev(g.body, env)
            elif isinstance(g, (And, Or)):
                memo[key] = scan(isinstance(g, And), [(h, env) for h in g.parts])
            elif isinstance(g, Implies):
                memo[key] = not ev(g.left, env) or ev(g.right, env)
            else:
                branches = [(g.body, {**env, g.var: i}) for i in range(1, len(w) + 1)]
                memo[key] = scan(isinstance(g, Forall), branches)
        return memo[key]

    def scan(every, branches):
        # ``all`` (or ``any``) of the branches, in a plain loop: ``all`` over
        # a generator recurses through C frames, which Python 3.12 limits
        # to fewer than the deepest chains here need.
        for g, env in branches:
            if ev(g, env) != every:
                return not every
        return every

    collect(f)
    return lambda env: ev(f, env)


def _words_up_to(n):
    return [Word(t) for k in range(n + 1) for t in itertools.product("ab", repeat=k)]


@settings(deadline=None, max_examples=40)
@given(st.one_of(_deep_chains(), _quantifier_chains()))
def test_deep_formulas_agree_with_naive_reference(f):
    """Deep connective chains and long quantifier chains, at depths around
    the points where a generated unit is split, give the naive masks in
    point mode, with y as a row variable and with x and y as row
    variables."""
    with _deep_stack():
        _check_deep(f)


def _check_deep(f):
    modes = [(("x", "y"), ()), (("x",), ("y",)), ((), ("x", "y"))]
    plans = [FormulaPlan(f, var_order, row_vars) for var_order, row_vars in modes]
    for plan in plans:
        _assert_generated_text_only(plan)
    for w in _words_up_to(3):
        positions = range(1, len(w) + 1)
        reference = _memo_eval(w, f)
        for (var_order, row_vars), plan in zip(modes, plans):
            rows = list(itertools.product(positions, repeat=len(row_vars)))
            at = FormulaEvaluator(plan, RowSpace(w, len(row_vars))).at
            for values in itertools.product(positions, repeat=len(var_order)):
                env = dict(zip(var_order, values))
                want = _mask(reference({**env, **dict(zip(row_vars, r))}) for r in rows)
                assert at(values) == want, (w.render(), row_vars, values)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _long_chain(levels):
    """A chain of ``levels`` nodes, each kind of node in turn, with macros,
    binders that shadow each other and atoms beside it."""
    wraps = [
        lambda g: And((Max("x"), g)),
        lambda g: Or((g, Leq("x", "z"))),
        lambda g: Exists("z", g),
        lambda g: Not(g),
        lambda g: Implies(Letter("b", "z"), g),
        lambda g: Forall("z", g),
        lambda g: Or((Min("z"), Eq("z", "x"), g)),
    ]
    f = Letter("a", "x")
    for k in range(levels):
        f = wraps[k % len(wraps)](f)
    return f


def test_walkers_take_no_stack_per_level():
    """Every formula walker, ``sexpr`` and the code generator handle a
    690-level chain with the recursion limit 50 frames above the test's own
    depth.  The macros' quantifiers, alpha-equal copies, share a unit."""
    f = _long_chain(690)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        text = sexpr.render(to_sexpr(f))
        parsed = parse_formula(text)
        expanded = expand_macros(f)
        core = rename_bound(expanded)
        frees = {}
        got = {
            "round trip": sexpr.render(to_sexpr(parsed)) == text,
            "free": (free_vars(f), _collect_frees(core, frees), free_vars(substitute(f, {"x": "z"}))),
            "all": (all_vars(f), len(all_vars(core))),
            "letters": letters_used(relativize(f, "#")),
            "quantifiers": (_quantifiers(f), _quantifiers(relativize(f, "#"))),
            "comparisons": len(_comparison_atoms(core)),
            "units": len(_generate(core, frees, ("x", "z"), ()).sources),
            "plan": FormulaPlan(f, ("x", "z")).free,
        }
    finally:
        sys.setrecursionlimit(limit)
    assert got == {
        "round trip": True,
        "free": ({"x"}, {"x"}, {"z"}),
        "all": ({"x", "z"}, 395),
        "letters": {"a", "b", "#"},
        "quantifiers": (394, 394),
        "comparisons": 394,
        # One unit per exists and forall, one shared by every copy of max(x)
        # and one by every copy of min(z), the root, and bind.
        "units": 197 + 2 + 1 + 1,
        "plan": ("x", "z"),
    }


def test_deep_formulas_compare_and_hash_without_recursion():
    """``==`` and ``hash`` on equal but distinct 600-level formulas, under
    the default recursion limit; ``==`` also tells apart nodes that differ
    only in their number of children."""

    def nots(letter):
        f = Letter(letter, "x")
        for _ in range(600):
            f = Not(f)
        return f

    f, g = nots("a"), nots("a")
    assert f is not g
    assert f == g and hash(f) == hash(g)
    assert f != nots("b")
    assert _long_chain(600) == _long_chain(600)
    assert hash(_long_chain(600)) == hash(_long_chain(600))
    assert _long_chain(600) != _long_chain(601)
    a, b, c = Letter("a", "x"), Letter("b", "x"), Letter("c", "x")
    assert Or((And((a, b)), c)) != Or((And((a, b, c)),))


def test_deep_formulas_repr_without_recursion():
    """``repr`` of a formula shows its fields as a record does, node by
    node: the text of shallow formulas is the records' own, and a
    600-level chain is shown under the default recursion limit."""
    a, le = Letter("a", "x"), Leq("x", "y")
    assert repr(Not(a)) == "Not(body=Letter(letter='a', var='x'))"
    assert repr(And((a,))) == "And(parts=(Letter(letter='a', var='x'),))"
    assert repr(Or([le, Max("z")])) == "Or(parts=[Leq(left='x', right='y'), Max(var='z')])"
    assert repr(Implies(Forall("x", Eq("x", "y")), Exists("y", Min("y")))) == (
        "Implies(left=Forall(var='x', body=Eq(left='x', right='y')), "
        "right=Exists(var='y', body=Min(var='y')))"
    )
    f = a
    for _ in range(600):
        f = Not(f)
    assert repr(f) == "Not(body=" * 600 + repr(a) + ")" * 600
    assert repr(_long_chain(600)).startswith("Implies(left=Letter(letter='b', var='z'), right=Not(body=")


def test_evaluators_share_a_row_space_of_their_word():
    """Evaluators of several formulas over one ``RowSpace`` give the masks
    of evaluators with spaces of their own."""
    rng = random.Random(23)
    w = Word(tuple("ab#ba"))
    space = RowSpace(w, 2)
    for trial in range(20):
        f = _random_formula(rng, ["x", "y"], depth=4, qdepth=3)
        shared = FormulaEvaluator(FormulaPlan(f, (), ("x", "y")), space).at(())
        assert shared == _evaluator(w, f, (), ("x", "y")).at(())


def _size(f):
    return 1 + sum(_size(g) for g in _KINDS[type(f)].kids(f))


def test_plans_normalize_connectives():
    """An and under an and is spliced into it, two nots cancel and a not
    over an atom is folded into its table; the lifted innsq order plan
    loses at least its 17 nested ands and 38 negated atoms."""
    a, b, c = Letter("a", "x"), Leq("x", "y"), Eq("x", "y")
    nodes = lambda f: _generated(FormulaPlan(f, ("x", "y"))).nodes  # noqa: E731
    assert nodes(And((And((a, b)), Not(Not(c))))) == 4
    assert nodes(Or((Not(a), Or((Not(b), Not(Not(Not(c)))))))) == 4
    assert nodes(Not(And((a, Not(Or((b, c))))))) == 7
    deep = a
    for k in range(40):  # split into a second unit at depth 32, and counted once
        deep = (And if k % 2 else Or)((b, deep))
    assert nodes(deep) == _size(deep)
    plan = psi(builtin_interp("innsq-interp")).order_plan
    assert _size(plan.core) == 234
    assert _generated(plan).nodes <= 234 - 17 - 38


def _canonical(unit):
    """A unit's source without its name, its slots renamed in order of
    first use."""
    slots = {}
    text = unit.split("(", 1)[1]
    return re.sub(r"\bv\d+\b", lambda m: slots.setdefault(m[0], f"v{len(slots)}"), text)


@pytest.mark.parametrize(
    "name, units",
    [("innsq-interp", 15), ("psi(innsq-interp)", 14), ("family(2)", 4)],
)
def test_plans_define_each_distinct_unit_once(name, units):
    """The order plans of innsq, of its lift and of ``family(2)`` repeat
    macros (innsq's block start, the lift's hat quantifiers): alpha-equal
    copies are one unit, so innsq's plan has 15 units where one unit per
    copy made 31.  The hats of a y variable are unique witnesses answered
    inline, not units, so the lifts' plans have 14 and 4 units (22 and 12
    with a unit per hat).  No two units have equal text up to the names of
    their slots, and the binder defines each unit once."""
    interp = {
        "innsq-interp": lambda: builtin_interp("innsq-interp"),
        "psi(innsq-interp)": lambda: psi(builtin_interp("innsq-interp")),
        "family(2)": lambda: family(2),
    }[name]()
    *sources, binder = _generated(interp.order_plan).sources
    assert len(sources) == units
    assert len({_canonical(unit) for unit in sources}) == units
    assert binder.count("\n    def q") == units and "".join(sources) in binder


@st.composite
def _repeated_subformulas(draw):
    """A formula that uses one quantified subformula on q, drawn once with
    the free variables p and r, two to four times, as innsq's block start
    and the lift's hat quantifiers are used: each copy under its own binder
    names, beside the other copies, with p and r each replaced by x, y or
    the variable z of a quantifier around the copy; the last copy swaps
    the first one's replacements."""
    body = draw(_quantified_formulas(("p", "q", "r"), depth=2))
    links = [draw(st.sampled_from((Leq("q", v), Leq(v, "q"), Not(Eq(v, "q"))))) for v in "pr"]
    shared = draw(st.sampled_from((Forall, Exists)))("q", draw(st.sampled_from((And, Or)))((*links, body)))
    names = st.sampled_from(("x", "y", "z"))
    abouts = draw(st.lists(st.tuples(names, names), min_size=1, max_size=3))
    copies = []
    for about in [*abouts, abouts[0][::-1]]:
        copy = substitute(shared, dict(zip("pr", about)))
        if "z" in about:
            guard = draw(st.sampled_from((Leq("z", "x"), Leq("y", "z"), Letter("a", "z"))))
            copy = draw(st.sampled_from((Forall, Exists)))("z", draw(st.sampled_from((And, Or)))((guard, copy)))
        copies.append(copy)
    return draw(st.sampled_from((And, Or)))(tuple(copies))


# With x and y as row variables, the units of these two copies differ only
# in their space: one loops over the rows, the other over the positions,
# inside the quantifier on z, which is answered there.
_COPIES_IN_TWO_SPACES = parse_formula(
    "(and (forall q (and (leq q x) (letter a x)))"
    " (forall z (or (leq z x) (forall q (and (leq q z) (letter a z))))))"
)


@settings(deadline=None, max_examples=200)
@example(_COPIES_IN_TWO_SPACES, [list("ba"), list("abba")])
@given(_repeated_subformulas(), st.lists(st.lists(st.sampled_from("ab#"), max_size=4), min_size=1, max_size=3))
def test_shared_units_agree_with_naive_reference(f, words):
    """Copies of one quantified subformula share a unit and its memo
    cache; masks equal the naive reference's in point mode, with x or y as
    a row variable and with x and y as row variables, on words of length 0
    to 4.  Each word is bound twice: one evaluator is queried in forward
    order and then in reverse, the other in reverse and then forward, so
    each shared memo is filled first from either call site."""
    modes = [(("x", "y"), ()), (("y",), ("x",)), (("x",), ("y",)), ((), ("x", "y"))]
    for var_order, row_vars in modes:
        plan = FormulaPlan(f, var_order, row_vars)
        for w in [Word(tuple(t)) for t in words]:
            positions = range(1, len(w) + 1)
            rows = list(itertools.product(positions, repeat=len(row_vars)))
            queries = list(itertools.product(positions, repeat=len(var_order)))
            for order in (queries, queries[::-1]):
                at = FormulaEvaluator(plan, RowSpace(w, len(row_vars))).at
                for values in order + order[::-1]:
                    env = dict(zip(var_order, values))
                    want = _mask(naive_eval(w, f, {**env, **dict(zip(row_vars, r))}) for r in rows)
                    assert at(values) == want, (f.render(), w.render(), row_vars, values)


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
    """Every message ``from_sexpr`` raises, and which error wins when an
    input has two: a node's own head, arity and names before its
    subformulas, and subformulas left to right."""
    cases = [
        ("(letter a)", "(letter ...) takes 2 arguments, got 1"),
        ("(leq x)", "(leq ...) takes 2 arguments, got 1"),
        ("(frobnicate x)", "unknown formula head 'frobnicate'"),
        ("(forall (x) y)", "expected a name inside (forall ...), got (x)"),
        ("x", "expected a formula, got atom 'x'"),
        ("()", "empty expression"),
        ("((and) x)", "bad formula head ['and']"),
        ("(and)", "empty conjunction"),
        ("(or)", "empty disjunction"),
        ("(not a b)", "(not ...) takes 1 arguments, got 2"),
        ("(min x y)", "(min ...) takes 1 arguments, got 2"),
        ("(eq x (y))", "expected a name inside (eq ...), got (y)"),
        ("(and (not) (frobnicate x))", "(not ...) takes 1 arguments, got 0"),
        ("(forall x)", "(forall ...) takes 2 arguments, got 1"),
        ("(exists (x) (frobnicate y))", "expected a name inside (exists ...), got (x)"),
        ("(implies (not x) (frobnicate))", "expected a formula, got atom 'x'"),
        ("(or (min) (max x y))", "(min ...) takes 1 arguments, got 0"),
        ("(and (letter a x) () (or))", "empty expression"),
        ("(or (not (and)) (frobnicate))", "empty conjunction"),
        ("(and (or (letter a x) (leq x)) (not))", "(leq ...) takes 2 arguments, got 1"),
    ]
    for bad, message in cases:
        with pytest.raises(LogicError) as exc:
            parse_formula(bad)
        assert str(exc.value) == message, bad


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
        assert _quantifiers(g) == _quantifiers(expand_macros(f))


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
