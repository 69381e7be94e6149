"""First-order logic over words.

Formulas talk about positions of a finite word: letter predicates ``a(x)``,
the position order ``x <= y``, equality, boolean connectives and
quantifiers ranging over positions.  ``max``/``min`` are macros that expand
to their quantified definitions before anything semantic happens, so the
core vocabulary stays minimal.

Evaluation has two halves.  A ``FormulaPlan`` does the work that depends
only on the formula and on which of its variables are rows: it expands the
macros, renames binders apart, and resolves every variable to a row
component or an environment slot and every quantifier to one of the two
ways below.  A plan never changes once built, so one plan serves any
number of words, also from several threads; an interpretation keeps one
per formula.  A ``FormulaEvaluator`` binds a plan to one word, building
only what the word decides, and is used by one thread.

The bound formula is a tree of closures that return an int mask over a row
space: a list of row tuples that bind the space's row variables, where bit
i says the subformula holds with them bound to row i.  Atoms on row
variables are precomputed position masks, connectives are bitwise
operations, and quantified subformulas are memoized on the values of their
scalar free variables.  A quantifier whose free variables include a row
variable of its space loops over the positions.  One whose free variables
are all scalar is answered over the positions space, whose rows 1..n bind
the quantified variable, so a single body call answers it: exists is a
nonzero mask, forall a full one (bottom-up model checking, restricted to
the one quantified variable).  The rule applies again inside that body,
where the quantified variable is the row variable.  An interpretation thus
evaluates a letter formula on all tuples in one query and its order
formula one column at a time; a point query is the case of a single empty
row.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from . import sexpr
from .words import Word


class LogicError(ValueError):
    pass


# -- abstract syntax ----------------------------------------------------


class Formula:
    """Base class; subclasses are immutable and compared structurally."""

    def render(self) -> str:
        return sexpr.render(to_sexpr(self))

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Letter(Formula):
    letter: str
    var: str


@dataclass(frozen=True)
class Leq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise LogicError("empty conjunction")


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise LogicError("empty disjunction")


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Max(Formula):
    """Macro: max(x) iff every position is <= x."""

    var: str


@dataclass(frozen=True)
class Min(Formula):
    """Macro: min(x) iff x is <= every position."""

    var: str


def conj(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def disj(*parts: Formula) -> Formula:
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def strict_less(a: str, b: str) -> Formula:
    return And((Leq(a, b), Not(Eq(a, b))))


# -- structural helpers --------------------------------------------------


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, (And, Or)):
        return f.parts
    if isinstance(f, Implies):
        return (f.left, f.right)
    if isinstance(f, (Forall, Exists)):
        return (f.body,)
    return ()


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Letter):
        return frozenset((f.var,))
    if isinstance(f, (Leq, Eq)):
        return frozenset((f.left, f.right))
    if isinstance(f, (Max, Min)):
        return frozenset((f.var,))
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    out: frozenset[str] = frozenset()
    for sub in children(f):
        out |= free_vars(sub)
    return out


def all_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Letter):
        return frozenset((f.var,))
    if isinstance(f, (Leq, Eq)):
        return frozenset((f.left, f.right))
    if isinstance(f, (Max, Min)):
        return frozenset((f.var,))
    out: frozenset[str] = frozenset()
    if isinstance(f, (Forall, Exists)):
        out |= {f.var}
    for sub in children(f):
        out |= all_vars(sub)
    return out


def letters_used(f: Formula) -> frozenset[str]:
    if isinstance(f, Letter):
        return frozenset((f.letter,))
    out: frozenset[str] = frozenset()
    for sub in children(f):
        out |= letters_used(sub)
    return out


def quantifier_count(f: Formula) -> int:
    """Number of quantifier nodes; macros count via their expansion."""
    if isinstance(f, (Max, Min)):
        return 1
    own = 1 if isinstance(f, (Forall, Exists)) else 0
    return own + sum(quantifier_count(sub) for sub in children(f))


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
    used = set(all_vars(f))

    def walk(g: Formula) -> Formula:
        if isinstance(g, Max):
            v = _fresh_name(_FRESH_BASE, used)
            return Forall(v, Leq(v, g.var))
        if isinstance(g, Min):
            v = _fresh_name(_FRESH_BASE, used)
            return Forall(v, Leq(g.var, v))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, And):
            return And(tuple(walk(p) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(p) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(walk(g.left), walk(g.right))
        if isinstance(g, Forall):
            return Forall(g.var, walk(g.body))
        if isinstance(g, Exists):
            return Exists(g.var, walk(g.body))
        return g

    return walk(f)


def rename_bound(f: Formula, reserved: Iterable[str] = ()) -> Formula:
    """Alpha-rename so every binder introduces a distinct name, also
    distinct from free variables and from ``reserved``.  Binders keep
    their spelling when it is already unique."""
    used = set(free_vars(f)) | set(reserved)

    def walk(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, Letter):
            return Letter(g.letter, env.get(g.var, g.var))
        if isinstance(g, Leq):
            return Leq(env.get(g.left, g.left), env.get(g.right, g.right))
        if isinstance(g, Eq):
            return Eq(env.get(g.left, g.left), env.get(g.right, g.right))
        if isinstance(g, (Max, Min)):
            return type(g)(env.get(g.var, g.var))
        if isinstance(g, Not):
            return Not(walk(g.body, env))
        if isinstance(g, And):
            return And(tuple(walk(p, env) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(p, env) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(walk(g.left, env), walk(g.right, env))
        if isinstance(g, (Forall, Exists)):
            name = g.var
            if name in used:
                name = _fresh_name(g.var, used)
            else:
                used.add(name)
            inner = dict(env)
            inner[g.var] = name
            return type(g)(name, walk(g.body, inner))
        raise LogicError(f"unknown formula node {g!r}")

    return walk(f, {})


def substitute(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Capture-avoiding renaming of free variables."""

    def walk(g: Formula, env: dict[str, str]) -> Formula:
        if isinstance(g, Letter):
            return Letter(g.letter, env.get(g.var, g.var))
        if isinstance(g, Leq):
            return Leq(env.get(g.left, g.left), env.get(g.right, g.right))
        if isinstance(g, Eq):
            return Eq(env.get(g.left, g.left), env.get(g.right, g.right))
        if isinstance(g, (Max, Min)):
            return type(g)(env.get(g.var, g.var))
        if isinstance(g, Not):
            return Not(walk(g.body, env))
        if isinstance(g, And):
            return And(tuple(walk(p, env) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(p, env) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(walk(g.left, env), walk(g.right, env))
        if isinstance(g, (Forall, Exists)):
            inner = {k: v for k, v in env.items() if k != g.var}
            if g.var in inner.values():
                used = set(all_vars(g)) | set(inner.values()) | set(inner)
                fresh = _fresh_name(g.var, used)
                body = walk(g.body, {g.var: fresh})
                return type(g)(fresh, walk(body, inner))
            return type(g)(g.var, walk(g.body, inner))
        raise LogicError(f"unknown formula node {g!r}")

    return walk(f, dict(mapping))


# -- text form -----------------------------------------------------------


def to_sexpr(f: Formula):
    if isinstance(f, Letter):
        return ["letter", f.letter, f.var]
    if isinstance(f, Leq):
        return ["leq", f.left, f.right]
    if isinstance(f, Eq):
        return ["eq", f.left, f.right]
    if isinstance(f, Not):
        return ["not", to_sexpr(f.body)]
    if isinstance(f, And):
        return ["and"] + [to_sexpr(p) for p in f.parts]
    if isinstance(f, Or):
        return ["or"] + [to_sexpr(p) for p in f.parts]
    if isinstance(f, Implies):
        return ["implies", to_sexpr(f.left), to_sexpr(f.right)]
    if isinstance(f, Forall):
        return ["forall", f.var, to_sexpr(f.body)]
    if isinstance(f, Exists):
        return ["exists", f.var, to_sexpr(f.body)]
    if isinstance(f, Max):
        return ["max", f.var]
    if isinstance(f, Min):
        return ["min", f.var]
    raise LogicError(f"unknown formula node {f!r}")


def from_sexpr(expr) -> Formula:
    if isinstance(expr, str):
        raise LogicError(f"expected a formula, got atom {expr!r}")
    if not expr:
        raise LogicError("empty expression")
    head = expr[0]
    if not isinstance(head, str):
        raise LogicError(f"bad formula head {head!r}")
    args = expr[1:]

    def arity(k: int) -> None:
        if len(args) != k:
            raise LogicError(f"({head} ...) takes {k} arguments, got {len(args)}")

    def atom(x) -> str:
        if not isinstance(x, str):
            raise LogicError(f"expected a name inside ({head} ...), got {sexpr.render(x)}")
        return str(x)

    if head == "letter":
        arity(2)
        return Letter(atom(args[0]), atom(args[1]))
    if head == "leq":
        arity(2)
        return Leq(atom(args[0]), atom(args[1]))
    if head == "eq":
        arity(2)
        return Eq(atom(args[0]), atom(args[1]))
    if head == "not":
        arity(1)
        return Not(from_sexpr(args[0]))
    if head == "and":
        return And(tuple(from_sexpr(a) for a in args))
    if head == "or":
        return Or(tuple(from_sexpr(a) for a in args))
    if head == "implies":
        arity(2)
        return Implies(from_sexpr(args[0]), from_sexpr(args[1]))
    if head == "forall":
        arity(2)
        return Forall(atom(args[0]), from_sexpr(args[1]))
    if head == "exists":
        arity(2)
        return Exists(atom(args[0]), from_sexpr(args[1]))
    if head == "max":
        arity(1)
        return Max(atom(args[0]))
    if head == "min":
        arity(1)
        return Min(atom(args[0]))
    raise LogicError(f"unknown formula head {head!r}")


def parse_formula(text: str) -> Formula:
    return from_sexpr(sexpr.parse_one(text))


# -- evaluation ----------------------------------------------------------


class _RowSpace:
    """The rows a bound node answers for; ``all`` is the mask of every row.
    Position masks are built per row component on first use."""

    __slots__ = ("n", "rows", "all", "_tables")

    def __init__(self, n: int, rows: Sequence[tuple[int, ...]]):
        self.n = n
        self.rows = rows
        self.all = (1 << len(rows)) - 1
        self._tables: dict[int, tuple[list[int], list[int], list[int]]] = {}

    def masks(self, a: int) -> tuple[list[int], list[int], list[int]]:
        """Masks of the rows whose component ``a`` is ==, <= and >= each
        position p, indexed by p (0 to n + 1)."""
        tables = self._tables.get(a)
        if tables is None:
            bufs = [bytearray((len(self.rows) + 7) >> 3) for _ in range(self.n + 2)]
            for i, row in enumerate(self.rows):
                bufs[row[a]][i >> 3] |= 1 << (i & 7)
            eq = [int.from_bytes(buf, "little") for buf in bufs]
            le = list(itertools.accumulate(eq, operator.or_))
            ge = [self.all ^ below for below in [0, *le[:-1]]]
            tables = self._tables[a] = (eq, le, ge)
        return tables


_Closure = Callable[[list[int]], int]


# -- plan nodes ------------------------------------------------------------
#
# A plan node is an immutable tuple of the fields its docstring lists, in
# which every variable is already resolved to a row component (a, b) of
# the node's space or to an environment slot (s, t).  ``bind(ev, space)``
# builds, for the word of the evaluator ``ev``, the closure that maps an
# environment to the mask of the rows of ``space`` on which the node
# holds.  Each kind binds in its own small method, so building a closure
# creates only the cells it uses, and binding recurses one frame per level
# of the formula.


class _Node(tuple):
    def __new__(cls, *fields):
        return tuple.__new__(cls, fields)


class _LetterRows(_Node):
    """(letter, a): the letter holds at row component a."""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        letter, a = self
        at_letter = itertools.compress(space.masks(a)[0], ev._letter_table(letter))
        mask = functools.reduce(operator.or_, at_letter, 0)
        return lambda env: mask


class _LetterSlot(_Node):
    """(letter, s): the letter holds at the position in slot s."""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        letter, s = self
        ALL = space.all
        masks = [ALL if holds else 0 for holds in ev._letter_table(letter)]
        return lambda env: masks[env[s]]


class _CompareSlots(_Node):
    """(test, s, t): ``test`` (``operator.le`` or ``operator.eq``) holds
    between the positions in slots s and t."""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        test, s, t = self
        ALL = space.all
        return lambda env: ALL if test(env[s], env[t]) else 0


class _CompareRows(_Node):
    """(is_eq, a, b): row component a is == (or <=) row component b."""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        # The rows whose component a is some p, and component b is == p or >= p.
        is_eq, a, b = self
        eq_b, _, ge_b = space.masks(b)
        at_p = map(operator.and_, space.masks(a)[0], eq_b if is_eq else ge_b)
        mask = functools.reduce(operator.or_, at_p, 0)
        return lambda env: mask


class _CompareRowSlot(_Node):
    """(table, a, s): row component a against the position p in slot s;
    ``table`` picks the rows whose component is == p (0), <= p (1) or
    >= p (2)."""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        which, a, s = self
        table = space.masks(a)[which]
        return lambda env: table[env[s]]


class _Not(_Node):
    """(body,)"""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        (body_node,) = self
        ALL, body = space.all, body_node.bind(ev, space)
        return lambda env: ALL ^ body(env)


class _And(_Node):
    """(parts,)"""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        ALL, parts = space.all, [p.bind(ev, space) for p in self[0]]

        def run_and(env: list[int]) -> int:
            acc = ALL
            for p in parts:
                acc &= p(env)
                if not acc:
                    break
            return acc

        return run_and


class _Or(_Node):
    """(parts,)"""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        ALL, parts = space.all, [p.bind(ev, space) for p in self[0]]

        def run_or(env: list[int]) -> int:
            acc = 0
            for p in parts:
                acc |= p(env)
                if acc == ALL:
                    break
            return acc

        return run_or


class _Implies(_Node):
    """(left, right)"""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        ALL = space.all
        left, right = (node.bind(ev, space) for node in self)

        def run_implies(env: list[int]) -> int:
            held = left(env)
            return (ALL ^ held) | right(env) if held else ALL

        return run_implies


class _Masked(_Node):
    """(exists, key, body): a quantifier whose free variables are all
    scalar.  Its body answers all positions of the quantified variable at
    once, over the positions space, whose one row component is that
    variable; ``key`` reads the memo key, the values of the scalar free
    variables, from the environment."""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        exists, key_of, body_node = self
        ALL, positions = space.all, ev._positions_space()
        body, FULL = body_node.bind(ev, positions), positions.all
        cache: dict[object, int] = {}

        def run_masked(env: list[int]) -> int:
            key = key_of(env)
            hit = cache.get(key)
            if hit is None:
                mask = body(env)
                hit = cache[key] = ALL if (mask != 0 if exists else mask == FULL) else 0
            return hit

        return run_masked


class _Loop(_Node):
    """(exists, key, slot, body): a quantifier whose variable runs through
    ``slot``, memoized on ``key`` as in ``_Masked``."""

    def bind(self, ev: FormulaEvaluator, space: _RowSpace) -> _Closure:
        exists, key_of, slot, body_node = self
        ALL, n, body = space.all, space.n, body_node.bind(ev, space)
        cache: dict[object, int] = {}

        def run_quant(env: list[int]) -> int:
            key = key_of(env)
            hit = cache.get(key)
            if hit is not None:
                return hit
            if exists:
                acc = 0
                for i in range(1, n + 1):
                    env[slot] = i
                    acc |= body(env)
                    if acc == ALL:
                        break
            else:
                acc = ALL
                for i in range(1, n + 1):
                    env[slot] = i
                    acc &= body(env)
                    if not acc:
                        break
            cache[key] = acc
            return acc

        return run_quant


def _no_key(env: list[int]) -> tuple[()]:
    return ()


class FormulaPlan:
    """The word-independent half of evaluating one formula, built once from
    ``(formula, var_order, row_vars)`` and read, never changed, by the
    evaluators of any number of words, also from several threads.

    ``core`` is the formula with its macros expanded and its binders renamed
    apart from each other, from its free variables and from ``row_vars``.
    ``free`` lists the scalar variables in the order ``at`` binds them, and
    ``n_slots`` is the size of an evaluator's environment: those variables
    first, then one slot per looping quantifier.  ``root`` is the core as a
    tree of plan nodes (``_Not``, ``_Loop`` and the others above), in which
    every choice that depends only on the variables is made: which are row
    components of their node's space and which sit in environment slots,
    which atom tables answer each comparison, and whether each quantifier
    is answered over the positions space or loops, memoized on which slots.
    """

    __slots__ = ("formula", "row_vars", "free", "core", "root", "n_slots")

    def __init__(
        self,
        formula: Formula,
        var_order: tuple[str, ...] | None = None,
        row_vars: tuple[str, ...] = (),
    ):
        row_vars = tuple(row_vars)
        core = rename_bound(expand_macros(formula), reserved=row_vars)
        frees: dict[int, frozenset[str]] = {}
        scalar = _collect_frees(core, frees) - set(row_vars)
        free = tuple(var_order) if var_order is not None else tuple(sorted(scalar))
        if len(set(free)) != len(free):
            raise LogicError(f"var_order {list(free)} repeats a name")
        if not set(free).isdisjoint(row_vars):
            raise LogicError(f"var_order names row variables {sorted(set(free) & set(row_vars))}")
        if not scalar <= set(free):
            raise LogicError(f"var_order misses free variables {sorted(scalar - set(free))}")
        self.formula = formula
        self.row_vars = row_vars
        self.free = free
        self.core = core
        slots = {v: i for i, v in enumerate(free)}
        self.root = _plan(core, {v: a for a, v in enumerate(row_vars)}, frees, slots)
        self.n_slots = max(1, len(slots))

    def serves(
        self, formula: Formula, var_order: tuple[str, ...] | None, row_vars: tuple[str, ...]
    ) -> bool:
        """Was this plan built for these arguments (``var_order`` None
        standing for the plan's own order)?"""
        return (
            (self.formula is formula or self.formula == formula)
            and self.row_vars == tuple(row_vars)
            and (var_order is None or self.free == tuple(var_order))
        )


def _collect_frees(f: Formula, frees: dict[int, frozenset[str]]) -> frozenset[str]:
    """The free variables of ``f``; records those of every node in ``frees``."""
    if isinstance(f, Letter):
        fv = frozenset((f.var,))
    elif isinstance(f, (Leq, Eq)):
        fv = frozenset((f.left, f.right))
    elif isinstance(f, (Forall, Exists)):
        fv = _collect_frees(f.body, frees) - {f.var}
    else:
        fv = frozenset()
        for sub in children(f):
            fv |= _collect_frees(sub, frees)
    frees[id(f)] = fv
    return fv


def _plan(
    f: Formula, index: dict[str, int], frees: dict[int, frozenset[str]], slots: dict[str, int]
) -> _Node:
    """The plan node of ``f`` in a space whose row variables ``index`` maps
    to their components; looping quantifiers add their slots to ``slots``."""
    if isinstance(f, Letter):
        a = index.get(f.var)
        return _LetterSlot(f.letter, slots[f.var]) if a is None else _LetterRows(f.letter, a)
    if isinstance(f, (Leq, Eq)):
        a, b = index.get(f.left), index.get(f.right)
        is_eq = isinstance(f, Eq)
        if a is None and b is None:
            test = operator.eq if is_eq else operator.le
            return _CompareSlots(test, slots[f.left], slots[f.right])
        if a is not None and b is not None:
            return _CompareRows(is_eq, a, b)
        # A row component against a position p: component == p, component
        # >= p (p on the left of <=) or component <= p (p on the right).
        if a is None:
            return _CompareRowSlot(0 if is_eq else 2, b, slots[f.left])
        return _CompareRowSlot(0 if is_eq else 1, a, slots[f.right])
    if isinstance(f, Not):
        return _Not(_plan(f.body, index, frees, slots))
    if isinstance(f, (And, Or)):
        parts = tuple(_plan(p, index, frees, slots) for p in f.parts)
        return _And(parts) if isinstance(f, And) else _Or(parts)
    if isinstance(f, Implies):
        return _Implies(_plan(f.left, index, frees, slots), _plan(f.right, index, frees, slots))
    if isinstance(f, (Forall, Exists)):
        fv = frees[id(f)]
        key_slots = sorted(slots[v] for v in fv if v not in index)
        key = operator.itemgetter(*key_slots) if key_slots else _no_key
        exists = isinstance(f, Exists)
        if fv.isdisjoint(index):
            return _Masked(exists, key, _plan(f.body, {f.var: 0}, frees, slots))
        slot = slots.setdefault(f.var, len(slots))
        return _Loop(exists, key, slot, _plan(f.body, index, frees, slots))
    raise LogicError(f"unknown formula node {f!r}")


class FormulaEvaluator:
    """One formula bound to one fixed word.

    Free variables are either row variables or scalar variables.  Each of
    ``rows`` binds the row variables, component by component; ``at(values)``
    binds the scalar variables positionally (see ``free``) and returns an
    int mask whose bit i says the formula holds with the row variables
    bound to ``rows[i]``.  By default there is one empty row, and ``at`` is
    a point query answering 0 or 1.

    The word-independent work lives in a ``FormulaPlan``: pass one built for
    the same ``(formula, var_order, row_vars)`` as ``plan`` to share it
    across words, or let the evaluator build its own.  Binding a plan to the
    word builds only what depends on the word: the letter tables, the row
    space over ``rows`` and the positions space over (1,) to (n,) with their
    position masks, and closures with fresh memo caches.  A quantifier whose
    free variables are all scalar asks its body, bound to the positions
    space, once per binding of them; other quantifiers loop over the n
    positions.

    Build once per word, query many times.  A plan may be shared across
    words and threads; an evaluator may not (each instance owns its memo
    caches and a scratch environment).
    """

    def __init__(
        self,
        word: Word,
        formula: Formula,
        var_order: tuple[str, ...] | None = None,
        rows: Sequence[tuple[int, ...]] = ((),),
        row_vars: tuple[str, ...] = (),
        *,
        plan: FormulaPlan | None = None,
    ):
        if plan is None:
            plan = FormulaPlan(formula, var_order, row_vars)
        elif not plan.serves(formula, var_order, row_vars):
            raise LogicError("plan was built for another formula, var_order or row_vars")
        self.word = word
        self.formula = formula
        self.free = plan.free
        self._n = len(word)
        self._letter_tables: dict[str, list[bool]] = {}
        self._positions: _RowSpace | None = None
        self._root = plan.root.bind(self, _RowSpace(self._n, rows))
        self._env = [0] * plan.n_slots

    def _letter_table(self, letter: str) -> list[bool]:
        table = self._letter_tables.get(letter)
        if table is None:
            table = [False] * (self._n + 1)
            for i, tok in enumerate(self.word.tokens):
                if tok == letter:
                    table[i + 1] = True
            self._letter_tables[letter] = table
        return table

    def _positions_space(self) -> _RowSpace:
        if self._positions is None:
            self._positions = _RowSpace(self._n, [(p,) for p in range(1, self._n + 1)])
        return self._positions

    def at(self, values: tuple[int, ...]) -> int:
        """The mask of the rows on which the formula holds, with the scalar
        variables bound positionally (see ``free``).  No range validation;
        callers supply positions of the word."""
        env = self._env
        for i, v in enumerate(values):
            env[i] = v
        return self._root(env)

    def evaluate(self, env: Mapping[str, int]) -> bool:
        """Point query with the scalar variables bound by name: does the
        formula hold on some row (on the one empty row by default)?"""
        missing = [v for v in self.free if v not in env]
        if missing:
            raise LogicError(f"unbound free variables {missing}")
        values = []
        for v in self.free:
            pos = env[v]
            if not isinstance(pos, int) or not 1 <= pos <= self._n:
                raise LogicError(f"{v} = {pos!r} is not a position of a length-{self._n} word")
            values.append(pos)
        return bool(self.at(tuple(values)))


def eval_formula(word: Word, formula: Formula, env: Mapping[str, int] | None = None) -> bool:
    """Tarskian truth of ``formula`` on ``word`` under ``env``."""
    return FormulaEvaluator(word, formula).evaluate(env or {})


# -- relativization ------------------------------------------------------


def relativize(formula: Formula, guard: str) -> Formula:
    """Restrict all quantifiers to positions not carrying ``guard``.

    The guard letter must not occur as a letter predicate of the formula;
    macros are expanded first so their hidden quantifiers are guarded too.
    """
    core = expand_macros(formula)
    if guard in letters_used(core):
        raise LogicError(f"formula already talks about the guard letter {guard!r}")

    def walk(g: Formula) -> Formula:
        if isinstance(g, Forall):
            return Forall(g.var, Implies(Not(Letter(guard, g.var)), walk(g.body)))
        if isinstance(g, Exists):
            return Exists(g.var, And((Not(Letter(guard, g.var)), walk(g.body))))
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, And):
            return And(tuple(walk(p) for p in g.parts))
        if isinstance(g, Or):
            return Or(tuple(walk(p) for p in g.parts))
        if isinstance(g, Implies):
            return Implies(walk(g.left), walk(g.right))
        return g

    return walk(core)


# -- sort analysis -------------------------------------------------------
#
# A two-dimensional interpretation is "sortable" when, after making binder
# names unique, the variables of each formula can be split into two sorts
# such that comparisons (leq/eq) never mix sorts, with the convention that
# first components x1/y1 live in sort 1 and second components x2/y2 in
# sort 2.  The check is a union-find closure over comparison atoms.


@dataclass(frozen=True)
class SortWitness:
    formula_key: str
    atom: Formula

    def render(self) -> str:
        return f"{self.formula_key}: {self.atom.render()} merges sort 1 with sort 2"


@dataclass(frozen=True)
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
    if isinstance(f, (Leq, Eq)):
        return [f]
    out: list[Formula] = []
    for sub in children(f):
        out.extend(_comparison_atoms(sub))
    return out


def _sort_one(key: str, formula: Formula, seeds: Mapping[str, int]):
    core = rename_bound(expand_macros(formula))
    uf = _UnionFind()
    for var, sort in seeds.items():
        uf.union(var, _ANCHOR1 if sort == 1 else _ANCHOR2)
    for atom in _comparison_atoms(core):
        left = atom.left  # type: ignore[attr-defined]
        right = atom.right  # type: ignore[attr-defined]
        uf.union(left, right)
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
    sorts: dict[str, dict[str, int]] = {}
    for letter in sorted(interp.letter_formulas):
        assignment, witness = _sort_one(
            f"letter {letter}", interp.letter_formulas[letter], {"x1": 1, "x2": 2}
        )
        if witness is not None:
            return SortReport(False, {}, witness)
        sorts[f"letter {letter}"] = assignment or {}
    assignment, witness = _sort_one(
        "order", interp.order_formula, {"x1": 1, "y1": 1, "x2": 2, "y2": 2}
    )
    if witness is not None:
        return SortReport(False, {}, witness)
    sorts["order"] = assignment or {}
    return SortReport(True, sorts)
