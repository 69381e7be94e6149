"""First-order logic over words.

Formulas talk about positions of a finite word: letter predicates ``a(x)``,
the position order ``x <= y``, equality, boolean connectives and
quantifiers ranging over positions.  ``max``/``min`` are macros that expand
to their quantified definitions before anything semantic happens, so the
core vocabulary stays minimal.

Evaluation has two halves.  A ``FormulaPlan`` does the work that depends
only on the formula and on which of its variables are rows: it expands the
macros, renames binders apart, resolves every variable to a row component
or an argument and every quantifier to one of the two ways below, and
compiles the result, once, into one generated Python binder of units.  A
plan never changes once built, so one plan serves any number of words, also
from several threads; a plan may also take several formulas at once, and an
interpretation keeps one for its letter formulas and one for its order
formula.  ``FormulaEvaluator(plan, space)`` binds a plan to a ``RowSpace``,
the dim-tuples of positions of one word, building only the word's tables
and one function per distinct unit, and is used by one thread.

The generated code computes an int mask over a row space, whose rows bind
the space's row variables, where bit i says the formula holds with them
bound to row i.  Atoms are lookups in the word's tables, connectives are
inline bitwise operations, and each quantifier is one generated function
memoized on the values of its scalar free variables.  A
quantifier whose free variables are all scalar is answered over the
positions space, whose rows 1..n bind the quantified variable, so a single
evaluation of its body answers it: exists is a nonzero mask, forall a full
one (bottom-up model checking, restricted to the one quantified variable).
Any other quantifier loops over the positions that its guard allows: the
conjuncts of its body (of its negation, for forall) free of row variables,
answered over the positions space in the same way.  The rule applies again
inside those bodies.  A quantifier that names a unique witness, the greatest
(or least) position <= x (>= x) where some letter literals hold, is read off
a per-word table of that position instead (see ``_unique_witness``).  An
interpretation thus evaluates its letter formulas on all tuples in one query
and its order formula one column at a time, both over the product space of
the word; a point query is the case of dimension 0, whose one row is empty.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from typing import Callable, Iterable, Mapping, Sequence

from . import sexpr
from .records import record
from .words import Word


class LogicError(ValueError):
    pass


# -- abstract syntax ----------------------------------------------------


class Formula:
    """Base class; subclasses are immutable, compared structurally and
    shown by ``repr`` as ``Name(field=value, ...)``, node by node without a
    Python frame per level (see ``_shape`` and ``_repr``)."""

    __slots__ = ()

    def render(self) -> str:
        return sexpr.render(to_sexpr(self))

    def __str__(self) -> str:
        return self.render()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return all(a == b for a, b in itertools.zip_longest(_shape(self), _shape(other)))

    def __hash__(self) -> int:
        return hash(tuple(_shape(self)))

    def __repr__(self) -> str:
        return _fold(self, _repr)


@record(slots=True, eq=False, repr=False)
class Letter(Formula):
    letter: str
    var: str


@record(slots=True, eq=False, repr=False)
class Leq(Formula):
    left: str
    right: str


@record(slots=True, eq=False, repr=False)
class Eq(Formula):
    left: str
    right: str


@record(slots=True, eq=False, repr=False)
class Not(Formula):
    body: Formula


@record(slots=True, eq=False, repr=False)
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise LogicError("empty conjunction")


@record(slots=True, eq=False, repr=False)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise LogicError("empty disjunction")


@record(slots=True, eq=False, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@record(slots=True, eq=False, repr=False)
class Forall(Formula):
    var: str
    body: Formula


@record(slots=True, eq=False, repr=False)
class Exists(Formula):
    var: str
    body: Formula


@record(slots=True, eq=False, repr=False)
class Max(Formula):
    """Macro: max(x) iff every position is <= x."""

    var: str


@record(slots=True, eq=False, repr=False)
class Min(Formula):
    """Macro: min(x) iff x is <= every position."""

    var: str


def conj(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def disj(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def strict_less(a: str, b: str) -> Formula:
    return And((Leq(a, b), Not(Eq(a, b))))


# -- the node table and the one traversal -----------------------------------


class _Kind:
    """One node kind: its class, its s-expression head and the role of each
    of its fields, in order: a ``letter``, a ``var`` (a variable occurrence),
    the ``bound`` variable of a binder, a ``sub`` formula, or the ``parts``
    of a connective.  In every kind, as in its s-expression, a node's letters
    come first, then its variables, then its subformulas.  The getters give
    a node's letters, its variable occurrences, those and its bound variable,
    and its children, each as a tuple."""

    __slots__ = ("cls", "head", "fields", "arity", "n_names", "letters", "occurs", "variables", "kids")

    def __init__(self, cls: type, head: str, roles: tuple[str, ...]):
        self.fields = fields = dict(zip(cls.__slots__, roles))

        def getter(*wanted: str) -> Callable[[Formula], tuple]:
            names = [f for f, role in fields.items() if role in wanted]
            if len(names) == 1:
                get = operator.attrgetter(names[0])
                return lambda g: (get(g),)
            return operator.attrgetter(*names) if names else lambda g: ()

        self.cls, self.head = cls, head
        self.arity = None if roles == ("parts",) else len(roles)  # None: any number
        self.n_names = sum(role not in ("sub", "parts") for role in roles)
        self.letters, self.occurs = getter("letter"), getter("var")
        self.variables = getter("var", "bound")
        self.kids = operator.attrgetter("parts") if self.arity is None else getter("sub")

    def build(self, names: Sequence[str], kids: Sequence[Formula]) -> Formula:
        return self.cls(tuple(kids)) if self.arity is None else self.cls(*names, *kids)


_KINDS: dict[type, _Kind] = {
    kind.cls: kind
    for kind in (
        _Kind(Letter, "letter", ("letter", "var")),
        _Kind(Leq, "leq", ("var", "var")),
        _Kind(Eq, "eq", ("var", "var")),
        _Kind(Not, "not", ("sub",)),
        _Kind(And, "and", ("parts",)),
        _Kind(Or, "or", ("parts",)),
        _Kind(Implies, "implies", ("sub", "sub")),
        _Kind(Forall, "forall", ("bound", "sub")),
        _Kind(Exists, "exists", ("bound", "sub")),
        _Kind(Max, "max", ("var",)),
        _Kind(Min, "min", ("var",)),
    )
}
_HEADS = {kind.head: kind for kind in _KINDS.values()}


def _fold(root, leave: Callable, enter: Callable | None = None, scope=None):
    """The tree under ``root`` folded bottom-up on an explicit stack, each
    step run when a recursive walk would run it, children left to right.
    ``enter(node, scope)`` runs when a node is reached and returns the item
    that ``leave`` gets, the node's children and the scope they see;
    ``leave(item, inner scope, results)`` runs after its last child and
    returns the node's result from theirs.  Without ``enter`` the nodes are
    formulas, their children those the node table lists, and the scope is
    ``scope`` throughout."""
    kinds = _KINDS
    # The open nodes: each one's item, inner scope, an iterator over its
    # children and their results so far, under a frame that holds the root.
    stack = [(None, scope, iter((root,)), [])]
    while True:
        item, inner, kids, done = stack[-1]
        for node in kids:
            if enter is None:
                node_item, node_kids, node_inner = node, kinds[type(node)].kids(node), inner
            else:
                node_item, node_kids, node_inner = enter(node, inner)
            if node_kids:
                stack.append((node_item, node_inner, iter(node_kids), []))
                break
            done.append(leave(node_item, node_inner, ()))
        else:
            stack.pop()
            if not stack:
                return done[0]
            stack[-1][3].append(leave(item, inner, done))


def _nodes(f: Formula) -> Iterable[Formula]:
    """The nodes under ``f`` in pre-order, children left to right."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        todo.extend(reversed(_KINDS[type(g)].kids(g)))


def _shape(f: Formula) -> Iterable[tuple]:
    """Each node under ``f`` in pre-order as its class, its letters and
    variables, and its number of children: equal formulas, and only they,
    give equal sequences."""
    for g in _nodes(f):
        kind = _KINDS[type(g)]
        yield type(g), kind.letters(g) + kind.variables(g), len(kind.kids(g))


def _repr(g: Formula, _, kids: Sequence[str]) -> str:
    """The ``repr`` of ``g`` from those of its children, as a record shows
    its fields: the parts of a connective as the tuple (or list) they are."""
    kind = _KINDS[type(g)]
    if kind.arity is None:
        tupled = isinstance(g.parts, tuple)  # type: ignore[attr-defined]
        shown = ", ".join(kids) + ("," if tupled and len(kids) == 1 else "")
        fields = [f"parts=({shown})" if tupled else f"parts=[{shown}]"]
    else:
        subs = iter(kids)
        fields = [
            f"{name}={next(subs) if role == 'sub' else repr(getattr(g, name))}"
            for name, role in kind.fields.items()
        ]
    return f"{type(g).__qualname__}({', '.join(fields)})"


def _rebuilt(g: Formula, env: Mapping[str, str], kids: Sequence[Formula]) -> Formula:
    """``g`` with the children ``kids`` and its variables renamed by
    ``env``; ``g`` itself when that changes nothing."""
    if not (kids or env):
        return g
    kind = _KINDS[type(g)]
    names = kind.variables(g)
    renamed = tuple([env.get(v, v) for v in names]) if env else names
    if renamed == names and all(map(operator.is_, kids, kind.kids(g))):
        return g
    return kind.build(kind.letters(g) + renamed, kids)


# -- structural helpers --------------------------------------------------


def free_vars(f: Formula) -> frozenset[str]:
    return _collect_frees(f, {})


def all_vars(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    for g in _nodes(f):
        out.update(_KINDS[type(g)].variables(g))
    return frozenset(out)


def letters_used(f: Formula) -> frozenset[str]:
    return frozenset(x for g in _nodes(f) for x in _KINDS[type(g)].letters(g))


_FRESH_BASE = "u"


def _fresh_name(base: str, used: set[str]) -> str:
    k = 2
    cand = f"{base}{k}"
    while cand in used:
        k += 1
        cand = f"{base}{k}"
    used.add(cand)
    return cand


def expand_macros(f: Formula) -> Formula:
    """Rewrite Max/Min to their quantified definitions."""
    if not any(isinstance(g, (Max, Min)) for g in _nodes(f)):
        return f
    used = set(all_vars(f))

    def leave(g: Formula, _, kids: Sequence[Formula]) -> Formula:
        if not isinstance(g, (Max, Min)):
            return _rebuilt(g, {}, kids)
        v = _fresh_name(_FRESH_BASE, used)
        return Forall(v, Leq(v, g.var) if isinstance(g, Max) else Leq(g.var, v))

    return _fold(f, leave)


def rename_bound(f: Formula, reserved: Iterable[str] = ()) -> Formula:
    """Alpha-rename so every binder introduces a distinct name, also
    distinct from free variables and from ``reserved``.  Binders keep
    their spelling when it is already unique."""
    used = set(free_vars(f)) | set(reserved)
    binders = [g.var for g in _nodes(f) if isinstance(g, (Forall, Exists))]
    if used.isdisjoint(binders) and len(set(binders)) == len(binders):
        return f

    def enter(g: Formula, env: dict[str, str]):
        if isinstance(g, (Forall, Exists)):
            name = _fresh_name(g.var, used) if g.var in used else g.var
            used.add(name)
            env = {**env, g.var: name}
        return g, _KINDS[type(g)].kids(g), env

    return _fold(f, _rebuilt, enter, {})


def substitute(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Capture-avoiding renaming of free variables."""

    def enter(g: Formula, env: dict[str, str]):
        if isinstance(g, (Forall, Exists)):
            env = {k: v for k, v in env.items() if k != g.var}
            if g.var in env.values():
                used = set(all_vars(g)) | set(env.values()) | set(env)
                fresh = _fresh_name(g.var, used)
                g = type(g)(fresh, substitute(g.body, {g.var: fresh}))
        return g, _KINDS[type(g)].kids(g), env

    return _fold(f, _rebuilt, enter, dict(mapping))


# -- text form -----------------------------------------------------------


def to_sexpr(f: Formula):
    def leave(g: Formula, _, kids: list) -> list:
        kind = _KINDS[type(g)]
        return [kind.head, *kind.letters(g), *kind.variables(g), *kids]

    return _fold(f, leave)


def from_sexpr(expr) -> Formula:
    def enter(e, _):
        if isinstance(e, str):
            raise LogicError(f"expected a formula, got atom {e!r}")
        if not e:
            raise LogicError("empty expression")
        head, args = e[0], e[1:]
        if not isinstance(head, str):
            raise LogicError(f"bad formula head {head!r}")
        kind = _HEADS.get(head)
        if kind is None:
            raise LogicError(f"unknown formula head {head!r}")
        if kind.arity is not None and len(args) != kind.arity:
            raise LogicError(f"({head} ...) takes {kind.arity} arguments, got {len(args)}")
        names = args[: kind.n_names]
        for x in names:
            if not isinstance(x, str):
                raise LogicError(f"expected a name inside ({head} ...), got {sexpr.render(x)}")
        return (kind, [str(x) for x in names]), args[kind.n_names :], None

    return _fold(expr, lambda item, _, kids: item[0].build(item[1], kids), enter)


def parse_formula(text: str) -> Formula:
    return from_sexpr(sexpr.parse_one(text))


# -- evaluation ----------------------------------------------------------

_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def bit_flags(mask: int) -> bytes:
    """Byte i is 1 where bit i of ``mask`` is set and 0 where it is not, up
    to its highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS)


# Row geometries kept at once: two per word length (the product space and
# its positions space) for 32 lengths.
GEOMETRY_CACHE = 64


class RowGeometry:
    """What the row space of ``dim``-tuples of a word takes from the word's
    length n and ``dim`` alone (see ``RowSpace``): ``all``, ``masks`` and,
    by spec, every ``slot`` and ``rows`` table of ``RowSpace.table`` and
    its complement.  Built in full by ``row_geometry``, once per (n, dim)
    while it stays in that bounded cache, and never changed after, so the
    spaces of all words of one length share it, also across threads."""

    __slots__ = ("all", "masks", "tables")

    def __init__(self, n: int, dim: int):
        self.all = ALL = (1 << n**dim) - 1
        # The masks of the rows whose component a is ==, <= and >= each
        # position p, indexed by p (0 to n + 1): component a holds each of
        # 1..n in turn for a run of s = n^(dim-1-a) rows, so it is == p on
        # one pattern of runs shifted by (p-1)s.  Tables are tuples, since
        # every space of the length reads the same ones.
        masks = []
        self.tables: dict[tuple, object] = {}
        for a in range(dim):
            s = n ** (dim - 1 - a)
            run = (ALL // ((1 << n * s) - 1) if n else 0) * ((1 << s) - 1)
            eq = (0, *(run << p * s for p in range(n)), 0)
            le = tuple(itertools.accumulate(eq, operator.or_))
            below = (0, *le[:-1])
            ge = tuple(ALL ^ m for m in below)
            masks.append((eq, le, ge))
            # Not <= p is >= p + 1, and not >= p is <= p - 1.
            negated = (tuple(ALL ^ m for m in eq), (*ge[1:], 0), below)
            for which, (value, other) in enumerate(zip((eq, le, ge), negated)):
                self.tables["slot", which, a, False] = value
                self.tables["slot", which, a, True] = other
        self.masks: tuple[tuple[tuple[int, ...], ...], ...] = tuple(masks)
        # The rows whose component a is == (or <=) component b: every
        # component is == and <= itself, and for a < b, b <= a is not a < b.
        rows = {(is_eq, a, a): ALL for a in range(dim) for is_eq in (True, False)}
        for a, b in itertools.combinations(range(dim), 2):
            eq_a, (eq_b, _, ge_b) = self.masks[a][0], self.masks[b]
            same = functools.reduce(operator.or_, map(operator.and_, eq_a, eq_b), 0)
            up = functools.reduce(operator.or_, map(operator.and_, eq_a, ge_b), 0)
            rows.update({(True, a, b): same, (True, b, a): same, (False, a, b): up})
            rows[False, b, a] = ALL ^ up ^ same
        for (is_eq, a, b), value in rows.items():
            self.tables["rows", is_eq, a, b, False] = value
            self.tables["rows", is_eq, a, b, True] = ALL ^ value


row_geometry = functools.lru_cache(maxsize=GEOMETRY_CACHE)(RowGeometry)


class RowSpace:
    """All ``dim``-tuples of positions of one word, in ``itertools.product``
    order, which is increasing order: the rows that a bound formula answers
    for.  Bit i of a mask over the space stands for the i-th row, and
    ``all`` is the mask of every row; ``RowSpace(word, 0)`` has the one row
    ``()``, for point queries.  The rows are never listed (see
    ``rows_at``).  What depends only on the word's length and ``dim`` is
    its ``geometry``, shared with every space of that length and dimension
    (see ``RowGeometry``): ``all``, ``masks[a]``, component a's ==, <= and
    >= masks by position in closed form, and the tables that compare
    components with positions or with each other.  The tables that depend
    on the word's letters (see ``table``) are built on first use and kept,
    so evaluators of several plans that share a space build each table
    once.  ``positions`` is the space ``RowSpace(word, 1)`` of the rows
    (1,) to (n,), built on first use."""

    __slots__ = (
        "word", "n", "dim", "geometry", "all", "masks", "_letters", "_tables", "_positions"
    )

    def __init__(self, word: Word, dim: int):
        self.word, self.n, self.dim = word, len(word), dim
        self.geometry = geometry = row_geometry(self.n, dim)
        self.all, self.masks = geometry.all, geometry.masks
        self._letters: dict[str, list[bool]] = {}
        self._tables: dict[tuple, object] = {}
        self._positions: RowSpace | None = None

    def rows_at(self, mask: int) -> list[tuple[int, ...]]:
        """The rows whose bits are set in ``mask``, lowest first, read off
        ``itertools.product`` without listing it."""
        rows = itertools.product(range(1, self.n + 1), repeat=self.dim)
        return list(itertools.compress(rows, bit_flags(mask)))

    @property
    def positions(self) -> RowSpace:
        if self._positions is None:
            self._positions = RowSpace(self.word, 1)
            self._positions._letters = self._letters
        return self._positions

    def table(self, spec: tuple):
        """The value on this space of an atom spec, complemented when its
        last field is true: ``("letter", letter, a, neg)``, the mask of the
        rows whose component a carries the letter, or for a None, a list by
        position p of ``all`` where the letter stands at p and 0 elsewhere;
        ``("rows", is_eq, a, b, neg)``, the rows whose component a is ==
        (or <=) component b; ``("slot", which, a, neg)``, a list by
        position p of the rows whose component a is == p (0), <= p (1) or
        >= p (2); ``("witness", literals, a, greatest, neg)``, for a None a
        list f by position p of the greatest position <= p (least >= p, if
        not ``greatest``) where every ``(letter, holds)`` of ``literals``
        holds, 0 where there is none, built in one pass over the word, and
        otherwise a list by position v of the rows whose component a has
        f == v."""
        value = self._tables.get(spec)
        if value is None:
            value = self.geometry.tables.get(spec)
            if value is None:
                value = self._word_table(spec)
            self._tables[spec] = value
        return value

    def _word_table(self, spec: tuple):
        """A ``letter`` or ``witness`` table of ``table``, built from the word."""
        kind, x, a, *b, neg = spec
        if kind == "witness":
            f, last = [0] * (self.n + 2), 0
            for p in range(1, self.n + 1) if b[0] else range(self.n, 0, -1):
                if all((self.word.tokens[p - 1] == c) == holds for c, holds in x):
                    last = p
                f[p] = last
            value = f
            if a is not None:
                value = [0] * (self.n + 2)
                for p, eq in enumerate(self.masks[a][0]):
                    value[f[p]] |= eq
        else:
            holds = self._letters.get(x)
            if holds is None:
                holds = self._letters[x] = [False, *(t == x for t in self.word.tokens)]
            if a is None:
                value = [self.all if h else 0 for h in holds]
            else:
                at_p = itertools.compress(self.masks[a][0], holds)
                value = functools.reduce(operator.or_, at_p, 0)
        if neg:
            ALL = self.all
            value = ALL ^ value if isinstance(value, int) else [ALL ^ m for m in value]
        return value


# -- generated code --------------------------------------------------------
#
# A plan compiles into units, each a small generated Python function: the
# root, one per quantifier, one per guard, and one per subformula that would
# nest deeper than ``_UNIT_DEPTH`` connectives in its unit, which keeps every
# unit far inside the parser's nesting limits.  A unit's arguments are the
# positions of the scalar variables it reads, ``v<slot>``.  Atoms read
# tables of the word, ``c<k>``, which ``RowSpace.table`` computes from the
# plan's specs, so letters and variable names never appear in the source:
# it holds only generated names, integer literals and operators.
# Connectives are inline bitwise expressions that stop early (an and at 0,
# an or at A).  A quantifier that loops visits, lowest first, the positions
# set in its guard's mask over the positions space (all of them, ``R``,
# without a guard), stops early too (exists at A, forall at 0) and memoizes
# on its arguments in ``cache``.  A quantifier whose conjuncts name a unique
# witness, the greatest (least) position v <= x (>= x) where letter
# literals Q hold (see ``_unique_witness``), reads the word's witness table
# f of Q instead: for a scalar x it is no unit but inline in its caller,
# ``(<body> if (v<slot> := c<k>[v<x>]) else 0)``, A for forall; for a row
# variable x it loops over Q's positions and first looks up ``c<k>[v]``,
# the rows whose x has v as its witness.  Units for alpha-equal
# subformulas whose free variables play the same roles, as the copies of one
# macro under renamed binders do, are the same function: the plan generates
# each such unit once, found by a key made before generating it, and its
# callers share it and its memo cache.  The plan's source is one generated
# ``bind(A0, A1, t)``, whose body defines each unit, callees first, as
# ``def q<k>(v..., A=A<space>, B=A<outer>, R=A1, c<j>=t[<j>], ...,
# q<i>=q<i>, cache={})`` and returns the root (for a plan of several
# formulas, ``roots``, which calls each one's root).  ``A`` is the mask of all
# rows of the space the unit's body answers over, the evaluator's rows (0)
# or its positions (1); ``B`` is that of the space it answers to; ``t`` is
# the one list of the plan's tables, each numbered once with the space it
# is taken over; and a unit lists only the defaults it reads.  Defaults are
# evaluated each time a ``def`` runs, so every bind gives its units the
# word's tables and fresh memo caches, read as fast locals.

_UNIT_DEPTH = 32

_MEMO = """\
        key = {key}
        hit = cache.get(key)
        if hit is None:
{inner}        return hit
"""

_LOOP = """\
            hit = {start}
            todo = {guard}
            while todo:
                v{slot} = (todo & -todo).bit_length()
                todo &= todo - 1
                hit {op}= {body}
                if {stop}:
                    break
            cache[key] = hit
"""


# A unit being generated: whether its body answers over, and its result is
# a mask over, the evaluator's rows (0) or its positions (1), and the
# tables and the units it reads, as dicts used as ordered sets.
_Unit = tuple[int, int, dict[int, None], dict[int, None]]


def _vars(slots: Iterable[int]) -> str:
    return ", ".join(f"v{s}" for s in slots)


def _strip(f: Formula) -> tuple[Formula, bool]:
    """``f`` without its leading nots, and whether their number is odd."""
    neg = False
    while isinstance(f, Not):
        f, neg = f.body, not neg
    return f, neg


def _flat(f: And | Or) -> list[Formula]:
    """The parts of ``f``, with the parts of any part of the same kind,
    under an even number of nots, spliced in."""
    out: list[Formula] = []
    todo = list(reversed(f.parts))
    while todo:
        g, neg = _strip(todo.pop())
        if type(g) is type(f) and not neg:
            todo.extend(reversed(g.parts))  # type: ignore[attr-defined]
        else:
            out.append(Not(g) if neg else g)
    return out


def _conjuncts(f: Formula) -> list[Formula]:
    """Parts whose conjunction is ``f``: the parts of an and, and the
    negated parts of a negated or or implies, spliced in at any depth."""
    out: list[Formula] = []
    todo = [f]
    while todo:
        g, neg = _strip(todo.pop())
        if isinstance(g, And) and not neg:
            todo.extend(reversed(g.parts))
        elif isinstance(g, Or) and neg:
            todo.extend(Not(p) for p in reversed(g.parts))
        elif isinstance(g, Implies) and neg:
            todo += [Not(g.right), g.left]
        else:
            out.append(Not(g) if neg else g)
    return out


def _literal(part: Formula, v: str) -> tuple[str, bool] | None:
    """``(letter, holds)`` when ``part`` is a letter atom on v or its
    negation, else None."""
    g, neg = _strip(part)
    return (g.letter, not neg) if isinstance(g, Letter) and g.var == v else None


def _unique_witness(v: str, parts: list[Formula]):
    """A match of conjuncts ``parts`` about v that name one position: v <= x,
    Q(v) as the letter literals on v among them, and a forall whose body
    is (v < z and z <= x) -> not Q(z), so that v is the greatest position
    <= x where Q holds; or the mirror, x <= v and (x <= z and z < v) ->
    not Q(z), for the least >= x.  ``(x, Q's literals, greatest, the <=
    part, the forall)`` or None."""
    literals = tuple(sorted({lit for part in parts if (lit := _literal(part, v))}))
    for bound in parts:
        if isinstance(bound, Leq) and bound.left != bound.right and v in (bound.left, bound.right):
            greatest = bound.left == v
            x = bound.right if greatest else bound.left
            for part in parts:
                if (
                    isinstance(part, Forall)
                    and _may_exclude(part, v, x, literals, greatest)
                    and _excludes(part, v, x, literals, greatest)
                ):
                    return x, literals, greatest, bound, part
    return None


def _may_exclude(fa: Forall, v: str, x: str, literals, greatest: bool) -> bool:
    """A test on the comparison atoms of ``fa``'s body that every forall
    ``_excludes`` accepts passes.  Unless no letter satisfies Q, when the
    body need only be valid, the body must tell z == v from v < z and
    z == x from x < z for the greatest witness (z == v from z < v and z == x
    from z < x for the least): the other atoms agree on each such pair of
    cases, so it needs z <= v and z <= x (v <= z and x <= z), or an
    equality in their place."""
    positive = {c for c, holds in literals if holds}
    if len(positive) > 1 or any((c, False) in literals for c in positive):
        return True
    z, compared = fa.var, set()
    for g in _comparison_atoms(fa.body):
        compared.add((g.left, g.right))
        if isinstance(g, Eq):
            compared.add((g.right, g.left))
    return {(z, v), (z, x)} <= compared if greatest else {(v, z), (x, z)} <= compared


# The orders of z against lo <= hi, as positions (lo, hi, z): lo < hi with
# z below, at, between, at and above them, then lo == hi with z below, at
# and above.
_ORDERS = [(2, 4, z) for z in range(1, 6)] + [(2, 2, z) for z in range(1, 4)]


def _excludes(fa: Forall, v: str, x: str, literals, greatest: bool) -> bool:
    """Whether the body of ``fa`` equals (v < z and z <= x) -> not Q(z),
    for ``greatest``, or else (x <= z and z < v) -> not Q(z), on each of
    the 8 orders of z against v and x allowed by v <= x (x <= v), with z
    carrying each letter the body or Q names, or another: a truth table
    with one bit per case, bit 8j + k for the j-th letter and the k-th
    order, and each atom one mask over the cases."""
    z, lo, hi = fa.var, *((v, x) if greatest else (x, v))
    at = {lo: 0, hi: 1, z: 2}
    letters = [*sorted({c for c, _ in literals} | letters_used(fa.body)), None]
    every_letter = sum(1 << 8 * j for j in range(len(letters)))
    full = 255 * every_letter

    def orders(test: Callable) -> int:
        return every_letter * sum(1 << k for k, order in enumerate(_ORDERS) if test(order))

    def leave(g: Formula, _, kids: Sequence) -> int | None:
        if None in kids:
            return None
        if isinstance(g, Letter):
            return 255 << 8 * letters.index(g.letter) if g.var == z else None
        if isinstance(g, (Leq, Eq)):
            if g.left not in at or g.right not in at:
                return None
            i, j, cmp = at[g.left], at[g.right], operator.le if isinstance(g, Leq) else operator.eq
            return orders(lambda order: cmp(order[i], order[j]))
        if isinstance(g, Not):
            return full ^ kids[0]
        if isinstance(g, Implies):
            return (full ^ kids[0]) | kids[1]
        if isinstance(g, (And, Or)):
            return functools.reduce(operator.and_ if isinstance(g, And) else operator.or_, kids)
        return None

    inside = orders(lambda o: o[0] < o[2] <= o[1] if greatest else o[0] <= o[2] < o[1])
    q = sum(255 << 8 * j for j, c in enumerate(letters) if all((c == l) == h for l, h in literals))
    return _fold(fa.body, leave) == full ^ (inside & q)


class _Codegen:
    """Generates the sources of one plan's distinct units, callees first,
    so each root comes after its callees, and of its ``bind``.

    Generating is one fold over jobs, each a method and its arguments:
    ``expr`` writes the expression of a subformula in a unit, and ``plain``
    opens a unit of its own for one.  Reaching a job, the fold calls its
    method, which returns the job's item, its child jobs and no scope; an
    item is a method and arguments, called with the children's texts when
    the fold leaves the job, or for an atom or a call to an earlier unit
    its text.  So units, tables and slots are numbered as a recursive walk
    would number them, and no formula level costs a Python frame.

    Each unit is keyed, before it is generated, by its kind, its space,
    the alpha classes of the nodes it answers (see ``_collect_frees``) and
    the role of each of their free variables: a row component, or a place
    among the unit's arguments.  Every choice the generator makes depends
    only on these, so a unit keyed as an earlier one is that unit, and is
    called without being generated again."""

    def __init__(self, frees: dict, slots: dict[str, int]):
        self.frees, self.slots = frees, slots
        self.specs: dict[tuple[int, tuple], int] = {}
        self.sources: list[str] = []
        # Each unit's number by its key, and how many frames deep its calls
        # nest; a query's calls nest ``depth`` deep.
        self.keyed: dict[tuple, int] = {}
        self.depths: list[int] = []
        self.depth = 0
        self.nodes = 0

    def key(self, kind: str, parts: list[Formula], index: dict[str, int], space: int, args):
        """The key of a unit of ``kind`` for the conjunction of ``parts``,
        with these row variables and arguments, from ``space``: the alpha
        class, negation and free variables of each part, and the role of
        each of those variables."""
        classes, fv = [], {}
        for part in parts:
            g, neg = _strip(part)
            inner, code = self.frees[id(g)]
            classes.append((code, neg, tuple(fv.setdefault(v, len(fv)) for v in inner)))
        place = {s: i for i, s in enumerate(args)}
        slots = self.slots
        roles = tuple(index[v] if v in index else ~place[slots[v]] for v in fv)
        return kind, space, len(args), tuple(classes), roles

    def call(self, k: int, args: list[int], caller: _Unit, neg: bool) -> str:
        """The text of a call to unit ``k`` from the unit ``caller``."""
        caller[3][k] = None
        return _negated(f"q{k}({_vars(args)})", neg)

    def finish(self, u: _Unit, args: list[int], body: str, caller: _Unit, neg: bool, key):
        """Add unit ``u``, with the ``key`` that it was generated for; the
        text of a call to it from the unit ``caller``."""
        space, outer, consts, calls = u
        defaults = {"A": f"A{space}", "B": f"A{outer}", "R": "A1", "cache": "{}"}
        read = set(re.findall(r"\w+", body))
        params = [f"v{s}" for s in args]
        params += [f"{name}={value}" for name, value in defaults.items() if name in read]
        params += [f"c{c}=t[{c}]" for c in consts] + [f"q{q}=q{q}" for q in calls]
        k = self.keyed[key] = len(self.sources)
        self.sources.append(f"    def q{k}({', '.join(params)}):\n{body}")
        self.depths.append(1 + max((self.depths[q] for q in calls), default=0))
        return self.call(k, args, caller, neg)

    def const(self, u: _Unit, spec: tuple) -> str:
        k = self.specs.setdefault((u[0], spec), len(self.specs))
        u[2][k] = None
        return f"c{k}"

    def plain(self, parts: list[Formula], index: dict[str, int], space: int, args, caller, neg):
        """Job: a unit of its own for the conjunction of ``parts``, whose
        result is the text of a call to it from the unit ``caller``."""
        key = self.key("plain", parts, index, space, args)
        if key in self.keyed:
            return self.call(self.keyed[key], args, caller, neg), (), None
        u: _Unit = (space, space, {}, {})
        job = (self.expr, conj(*parts), u, index, 0)
        return (self.plain_done, u, args, caller, neg, key), [job], None

    def plain_done(self, texts: list[str], u: _Unit, args: list[int], caller, neg: bool, key):
        return self.finish(u, args, f"        return {texts[0]}\n", caller, neg, key)

    def expr(self, f: Formula, u: _Unit, index: dict[str, int], depth: int):
        """Job: the Python expression for the mask of ``f`` in unit ``u``,
        at ``depth`` connectives below the unit's root."""
        f, neg = _strip(f)
        if isinstance(f, (Letter, Leq, Eq)):
            self.nodes += 1
            return self.atom(f, neg, u, index), (), None
        if isinstance(f, (Forall, Exists)):
            return self.quantifier(f, u, index, neg, depth)
        # A subformula split off into a unit of its own is counted there.
        self.nodes += neg + (depth < _UNIT_DEPTH)
        if depth == _UNIT_DEPTH:
            args = sorted(self.slots[v] for v in self.frees[id(f)][0] if v not in index)
            return self.plain([f], index, u[0], args, u, neg)
        parts = (f.left, f.right) if isinstance(f, Implies) else _flat(f)  # type: ignore[arg-type]
        jobs = [(self.expr, g, u, index, depth + 1) for g in parts]
        return (self.connective, f, depth, neg), jobs, None

    def connective(self, texts: list[str], f: Formula, depth: int, neg: bool) -> str:
        m = f"m{depth}"
        if isinstance(f, Implies):
            left, right = texts
            text = f"((A ^ {m}) | {right} if ({m} := {left}) else A)"
        else:
            *init, text = texts
            if init and isinstance(f, And):
                steps = [f"({m} := {init[0]})"] + [f"({m} := {m} & {p})" for p in init[1:]]
                text = f"({' and '.join(steps)} and {m} & {text})"
            elif init:
                steps = [f"({m} := {init[0]}) == A"]
                steps += [f"({m} := {m} | {p}) == A" for p in init[1:]]
                text = f"(A if {' or '.join(steps)} else {m} | {text})"
        return _negated(text, neg)

    def quantifier(
        self, f: Forall | Exists, u: _Unit, index: dict[str, int], neg: bool, depth: int
    ):
        """The unit of a quantifier in unit ``u``, whose row variables
        ``index`` maps to their components, at ``depth`` connectives below
        the unit's root; for the unique witness of a scalar, the quantifier
        inline in ``u``."""
        fv = self.frees[id(f)][0]
        args = sorted(self.slots[v] for v in fv if v not in index)
        key = self.key("quantifier", [f], index, u[0], args)
        if key in self.keyed:
            return self.call(self.keyed[key], args, u, neg), (), None
        exists = isinstance(f, Exists)
        parts = _conjuncts(f.body if exists else Not(f.body))
        found = _unique_witness(f.var, parts)
        if found is not None:
            x, literals, greatest, *matched = found
            parts = [part for part in parts if all(part is not m for m in matched)]
            if x not in index:
                if depth >= _UNIT_DEPTH - 1:
                    # Inline, its body would nest a level deeper: a unit of its own.
                    return self.plain([f], index, u[0], args, u, neg)
                # v is f(x) in the word's witness table f, if f(x) is not 0.
                self.nodes += 1 + neg
                slot = self.slots.setdefault(f.var, len(self.slots))
                c = self.const(u, ("witness", literals, None, greatest, False))
                test = f"(v{slot} := {c}[v{self.slots[x]}])"
                rest = [part for part in parts if _literal(part, f.var) is None]
                if not rest:
                    return self.witness_done(["A" if exists else "0"], exists, neg, test), (), None
                body = conj(*rest) if exists else Not(conj(*rest))
                job = (self.expr, body, u, index, depth + 1)
                return (self.witness_done, exists, neg, test), [job], None
        self.nodes += 1 + neg
        item = (self.quantifier_done, exists, u, args, neg, key)
        if index.keys().isdisjoint(fv):
            # Masked: the body answers every position of f.var at once.
            q: _Unit = (1, u[0], {}, {})
            return (*item, q, None, False, None), [(self.expr, f.body, q, {f.var: 0}, 0)], None
        # The guard: the conjuncts of the body (of its negation, for
        # forall) free of row variables; the loop evaluates the rest, after
        # the rows whose component x has v as its witness, for a witness.
        slot = self.slots.setdefault(f.var, len(self.slots))
        q = (u[0], u[0], {}, {})
        lookup = None
        if found is not None:
            lookup = f"{self.const(q, ('witness', literals, index[x], greatest, False))}[v{slot}]"
        guard, rest, reads = [], [], set()
        for part in parts:
            part_fv = self.frees[id(_strip(part)[0])][0]
            if index.keys().isdisjoint(part_fv):
                guard.append(part)
                reads.update(part_fv)
            else:
                rest.append(part)
        jobs: list = []
        if guard:
            guard_args = sorted(self.slots[v] for v in reads - {f.var})
            jobs.append((self.plain, guard, {f.var: 0}, 1, guard_args, q, False))
        if rest:
            body = conj(*rest) if exists else Not(conj(*rest))
            jobs.append((self.expr, body, q, index, 0 if lookup is None else 1))
        return (*item, q, slot, bool(guard), lookup), jobs, None

    def witness_done(self, texts: list[str], exists: bool, neg: bool, test: str) -> str:
        return _negated(f"({texts[0]} if {test} else {0 if exists else 'A'})", neg)

    def quantifier_done(
        self, texts, exists, u: _Unit, args: list[int], neg: bool, key, q: _Unit, slot, guarded,
        lookup: str | None,
    ):
        if slot is None:
            test = texts[0] + ("" if exists else " == A")
            inner = f"            hit = cache[key] = B if {test} else 0\n"
        else:
            start, op, stop = (0, "|", "hit == A") if exists else ("A", "&", "not hit")
            todo = texts[0] if guarded else "R"
            body = texts[-1] if len(texts) > guarded else None
            if lookup is not None:
                # The rows that have v as their witness, and of those the
                # ones where the rest holds (for forall, fails).
                if body is None:
                    body = _negated(lookup, not exists)
                elif exists:
                    body = f"((m0 := {lookup}) and m0 & {body})"
                else:
                    body = f"((A ^ m0) | {body} if (m0 := {lookup}) else A)"
            inner = _LOOP.format(start=start, guard=todo, slot=slot, op=op, body=body, stop=stop)
        keyed = f"({_vars(args)})" if len(args) != 1 else f"v{args[0]}"
        return self.finish(q, args, _MEMO.format(key=keyed, inner=inner), u, neg, key)

    def atom(self, f: Letter | Leq | Eq, neg: bool, u: _Unit, index: dict[str, int]) -> str:
        slots = self.slots
        if isinstance(f, Letter):
            a = index.get(f.var)
            c = self.const(u, ("letter", f.letter, a, neg))
            return c if a is not None else f"{c}[v{slots[f.var]}]"
        is_eq = isinstance(f, Eq)
        a, b = index.get(f.left), index.get(f.right)
        if a is None and b is None:
            op = ("!=" if is_eq else ">") if neg else ("==" if is_eq else "<=")
            return f"(A if v{slots[f.left]} {op} v{slots[f.right]} else 0)"
        if a is not None and b is not None:
            return self.const(u, ("rows", is_eq, a, b, neg))
        # A row component against a position p: component == p, component
        # >= p (p on the left of <=) or component <= p (p on the right).
        if a is None:
            return f"{self.const(u, ('slot', 0 if is_eq else 2, b, neg))}[v{slots[f.left]}]"
        return f"{self.const(u, ('slot', 0 if is_eq else 1, a, neg))}[v{slots[f.right]}]"


def _negated(text: str, neg: bool) -> str:
    return f"(A ^ {text})" if neg else text


def _generate(core, frees: dict, free: tuple[str, ...], row_vars: tuple[str, ...]):
    """The generator run over ``core``, a formula or a tuple of formulas,
    whose nodes are recorded in ``frees`` (see ``_collect_frees``): its
    sources are the distinct units, each root after its callees, then
    ``bind``, which defines them all and returns the root, or for a tuple
    a function of the same arguments that returns each formula's mask.
    ``depth`` is how many frames deep a query's calls nest."""
    gen = _Codegen(frees, {v: i for i, v in enumerate(free)})
    index = {v: a for a, v in enumerate(row_vars)}
    args = list(range(len(free)))
    roots = []
    for f in core if isinstance(core, tuple) else (core,):
        # The root is the one unit that its stand-in caller calls.
        caller: _Unit = (0, 0, {}, {})
        _fold(
            (gen.plain, [f], index, 0, args, caller, False),
            # An atom's item is its text, written when the atom is reached.
            lambda item, _, texts: item[0](texts, *item[1:]) if texts else item,
            lambda job, _: job[0](*job[1:]),
        )
        (root,) = caller[3]
        roots.append(root)
    units = "".join(gen.sources)
    gen.depth = max(gen.depths[k] for k in roots)
    if isinstance(core, tuple):
        calls = "".join(f"q{k}({_vars(args)}), " for k in roots)
        units += f"    def roots({_vars(args)}):\n        return ({calls})\n"
        result, gen.depth = "roots", gen.depth + 1
    else:
        result = f"q{root}"
    gen.sources.append(f"def bind(A0, A1, t):\n{units}    return {result}\n")
    return gen


class FormulaPlan:
    """The word-independent half of evaluating one formula, built once from
    ``(formula, var_order, row_vars)`` and read, never changed, by the
    evaluators of any number of words, also from several threads.
    ``formula`` may also be a tuple of formulas, planned together: then a
    query answers a tuple of masks, one per formula, from one binder whose
    formulas share the units that they have in common.

    ``core`` is the formula with its macros expanded and its binders renamed
    apart from each other, from its free variables and from ``row_vars``
    (a tuple of those, for a tuple).
    ``free`` lists the scalar variables in the order that
    ``FormulaEvaluator.at`` binds them: ``var_order``, or by name if None.
    The plan keeps the core compiled as generated Python (see above): one
    binder, compiled once, that defines one function per distinct unit, so
    alpha-equal copies of a subformula, such as the uses of one macro, are
    one unit with one memo cache.  ``depth`` is how many frames deep a
    query's calls of units nest.  ``_specs`` lists its tables, each as
    ``(space, spec)``, over the evaluator's space (0) or its positions (1).
    Generating makes every choice that depends only on the variables: which
    are row components of a unit's space and which are arguments, which
    table answers each atom, and whether each quantifier is answered over
    the positions space or loops under which guard, memoized on which
    arguments, or names a unique witness (the greatest position <= x, or
    the least >= x, where letter literals hold, as the lift's hats do) and
    is answered from a witness table of the word: inline at f(x) for a
    scalar x, and for a row variable x in a loop that first looks up the
    rows with witness v.  It also normalizes: an and directly under an and
    (an or under an or) is spliced into it, two nots cancel, and a not over
    an atom reads the complemented table.
    """

    __slots__ = ("formula", "row_vars", "free", "core", "depth", "_specs", "_bind")

    def __init__(
        self,
        formula: Formula | tuple[Formula, ...],
        var_order: tuple[str, ...] | None = None,
        row_vars: tuple[str, ...] = (),
    ):
        row_vars = tuple(row_vars)
        several = isinstance(formula, tuple)
        formulas = formula if several else (formula,)
        cores = tuple(rename_bound(expand_macros(f), reserved=row_vars) for f in formulas)
        frees: dict = {}
        scalar = frozenset().union(*(_collect_frees(f, frees) for f in cores)) - set(row_vars)
        free = tuple(var_order) if var_order is not None else tuple(sorted(scalar))
        if len(set(free)) != len(free):
            raise LogicError(f"var_order {list(free)} repeats a name")
        if not set(free).isdisjoint(row_vars):
            raise LogicError(f"var_order names row variables {sorted(set(free) & set(row_vars))}")
        if not scalar <= set(free):
            raise LogicError(f"var_order misses free variables {sorted(scalar - set(free))}")
        core = cores if several else cores[0]
        self.formula, self.row_vars, self.free, self.core = formula, row_vars, free, core
        gen = _generate(core, frees, free, row_vars)
        binder = gen.sources[-1]
        self._specs, self.depth = tuple(gen.specs), gen.depth
        # Compiled once, with no builtins, after generating and with the
        # generator's tables freed, since compiling peaks higher.  Profiles
        # tell units apart by their names, q<k>.
        del gen, frees
        namespace: dict[str, Callable] = {}
        exec(compile(binder, "<plan>", "exec"), {"__builtins__": {}}, namespace)
        self._bind = namespace["bind"]

    def bind(self, space: RowSpace) -> Callable:
        """The root unit made for the word of ``space``, reading the tables of
        ``space`` and of its positions: it maps the positions of the ``free``
        variables to the mask of the rows of ``space`` on which the formula
        holds (to a tuple of those, for a tuple of formulas)."""
        spaces = (space, space.positions)
        t = [spaces[i].table(spec) for i, spec in self._specs]
        return self._bind(space.all, spaces[1].all, t)


def _collect_frees(f: Formula, frees: dict) -> frozenset[str]:
    """The free variables of ``f``.  Records in ``frees``, by the id of
    every node, its free variables in order of first occurrence and its
    alpha class: a number that two nodes recorded in one ``frees`` share
    exactly when they are equal up to renaming their bound variables, and
    their free variables one for one in that order (hash-consing, with
    each class's number kept in ``frees`` by its key)."""

    def leave(g: Formula, _, parts: Sequence[tuple[tuple[str, ...], int]]):
        if not parts:
            occurs = _KINDS[type(g)].occurs(g)
            fv = tuple(dict.fromkeys(occurs))
            key: tuple = (type(g), _KINDS[type(g)].letters(g), tuple(map(fv.index, occurs)))
        elif isinstance(g, (Forall, Exists)):
            ((inner, code),) = parts
            at = inner.index(g.var) if g.var in inner else -1
            fv = inner[:at] + inner[at + 1 :] if at >= 0 else inner
            key = (type(g), code, at)
        elif len(parts) == 1:
            fv, code = parts[0]
            key = (type(g), code)
        else:
            fv = tuple(dict.fromkeys(v for inner, _ in parts for v in inner))
            where = {v: i for i, v in enumerate(fv)}
            key = (type(g), *((code, tuple(map(where.get, inner))) for inner, code in parts))
        frees[id(g)] = entry = (fv, frees.setdefault(key, len(frees)))
        return entry

    return frozenset(_fold(f, leave)[0])


class FormulaEvaluator:
    """A formula plan bound to the word of one row space.

    The plan's free variables are either row variables or scalar variables.
    Each row of ``space`` binds the row variables, component by component;
    ``at(values)`` binds the scalar variables positionally, in the order of
    ``plan.free``, and returns an int mask whose bit i says the formula
    holds with the row variables bound to row i.  Over ``RowSpace(word, 0)``,
    whose one row is empty, ``at`` is a point query answering 0 or 1.
    For a plan of a tuple of formulas, ``at`` answers a tuple of masks.

    Binding builds only what depends on the word: the tables of ``space``
    and of its positions space over (1,) to (n,), shared with every other
    evaluator over them, and, in one call of the plan's binder, one
    function per distinct unit of the plan, with fresh memo caches.  A
    quantifier whose free variables are all scalar asks its body, over the
    positions space, once per binding of them; others loop over the
    positions their guard allows.

    Build once per word, query many times.  A plan may be shared across
    words and threads; an evaluator may not (each instance owns its memo
    caches).
    """

    def __init__(self, plan: FormulaPlan, space: RowSpace):
        self.plan, self.space = plan, space
        self._root = plan.bind(space)

    def at(self, values: tuple[int, ...]) -> int:
        """The mask of the rows on which the formula holds, with the scalar
        variables bound positionally (see ``plan.free``).  No range validation;
        callers supply positions of the word.  Raises ``LogicError`` when
        the query's calls nest deeper than the recursion limit allows from
        here; the evaluator can be queried again from a shallower frame."""
        try:
            return self._root(*values)
        except RecursionError:
            frame, used, limit = sys._getframe(), 0, sys.getrecursionlimit()
            while frame is not None:
                frame, used = frame.f_back, used + 1
            raise LogicError(
                f"the formula's plan nests {self.plan.depth} units deep, and {limit - used} "
                f"of the recursion limit's {limit} frames are left here"
            ) from None

    def evaluate(self, env: Mapping[str, int]) -> bool:
        """Point query with the scalar variables bound by name: does the
        formula hold on some row of the space?"""
        if isinstance(self.plan.formula, tuple):
            raise LogicError("a point query asks one formula, not a tuple")
        free, n = self.plan.free, self.space.n
        missing = [v for v in free if v not in env]
        if missing:
            raise LogicError(f"unbound free variables {missing}")
        values = []
        for v in free:
            pos = env[v]
            if not isinstance(pos, int) or not 1 <= pos <= n:
                raise LogicError(f"{v} = {pos!r} is not a position of a length-{n} word")
            values.append(pos)
        return bool(self.at(tuple(values)))


def eval_formula(word: Word, formula: Formula, env: Mapping[str, int] | None = None) -> bool:
    """Tarskian truth of ``formula`` on ``word`` under ``env``."""
    return FormulaEvaluator(FormulaPlan(formula), RowSpace(word, 0)).evaluate(env or {})


# -- relativization ------------------------------------------------------


def relativize(formula: Formula, guard: str) -> Formula:
    """Restrict all quantifiers to positions not carrying ``guard``.

    The guard letter must not occur as a letter predicate of the formula;
    macros are expanded first so their hidden quantifiers are guarded too.
    """
    core = expand_macros(formula)
    if guard in letters_used(core):
        raise LogicError(f"formula already talks about the guard letter {guard!r}")

    def leave(g: Formula, _, kids: Sequence[Formula]) -> Formula:
        if isinstance(g, Forall):
            return Forall(g.var, Implies(Not(Letter(guard, g.var)), kids[0]))
        if isinstance(g, Exists):
            return Exists(g.var, And((Not(Letter(guard, g.var)), kids[0])))
        return _rebuilt(g, {}, kids)

    return _fold(core, leave)


# -- sort analysis -------------------------------------------------------
#
# A two-dimensional interpretation is "sortable" when, after making binder
# names unique, the variables of each formula can be split into two sorts
# such that comparisons (leq/eq) never mix sorts, with the convention that
# first components x1/y1 live in sort 1 and second components x2/y2 in
# sort 2.  The check is a union-find closure over comparison atoms.


@record
class SortWitness:
    formula_key: str
    atom: Formula

    def render(self) -> str:
        return f"{self.formula_key}: {self.atom.render()} merges sort 1 with sort 2"


@record
class SortReport:
    ok: bool
    sorts: dict[str, dict[str, int]]
    witness: SortWitness | None = None

    def render(self) -> str:
        if not self.ok:
            assert self.witness is not None
            return "not sortable\n  " + self.witness.render()
        lines = ["sortable"]
        for key in sorted(self.sorts):
            assignment = self.sorts[key]
            inner = " ".join(f"{v}:{assignment[v]}" for v in sorted(assignment))
            lines.append(f"  {key}: {inner}")
        return "\n".join(lines)


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[object, object] = {}

    def find(self, x: object) -> object:
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


_ANCHOR1 = ("sort-anchor", 1)
_ANCHOR2 = ("sort-anchor", 2)


def _comparison_atoms(f: Formula) -> list[Formula]:
    return [g for g in _nodes(f) if isinstance(g, (Leq, Eq))]


def _sort_one(key: str, formula: Formula, seeds: Mapping[str, int]):
    core = rename_bound(expand_macros(formula))
    uf = _UnionFind()
    for var, sort in seeds.items():
        uf.union(var, _ANCHOR1 if sort == 1 else _ANCHOR2)
    for atom in _comparison_atoms(core):
        uf.union(atom.left, atom.right)  # type: ignore[attr-defined]
        if uf.find(_ANCHOR1) == uf.find(_ANCHOR2):
            return None, SortWitness(key, atom)
    assignment: dict[str, int] = {}
    root2 = uf.find(_ANCHOR2)
    for var in sorted(all_vars(core)):
        assignment[var] = 2 if uf.find(var) == root2 else 1
    return assignment, None


def check_sortable(interp) -> SortReport:
    """Sort analysis of a dimension-2 interpretation (duck-typed: anything
    with ``dim``, ``letter_formulas`` and ``order_formula``)."""
    if interp.dim != 2:
        raise LogicError(f"sort analysis needs dimension 2, got {interp.dim}")
    letters = interp.letter_formulas
    jobs = [(f"letter {c}", letters[c], {"x1": 1, "x2": 2}) for c in sorted(letters)]
    jobs.append(("order", interp.order_formula, {"x1": 1, "y1": 1, "x2": 2, "y2": 2}))
    sorts: dict[str, dict[str, int]] = {}
    for key, formula, seeds in jobs:
        assignment, witness = _sort_one(key, formula, seeds)
        if witness is not None:
            return SortReport(False, {}, witness)
        sorts[key] = assignment or {}
    return SortReport(True, sorts)
