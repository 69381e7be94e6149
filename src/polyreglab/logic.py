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
compiles the result, once, into generated Python units.  A plan never
changes once built, so one plan serves any number of words, also from
several threads; an interpretation keeps one per formula.  A
``FormulaEvaluator`` binds a plan to one word, building only the word's
tables and one function per unit, and is used by one thread.

The generated code computes an int mask over a row space: a list of row
tuples that bind the space's row variables, where bit i says the formula
holds with them bound to row i.  Atoms are lookups in the word's tables,
connectives are inline bitwise operations, and each quantifier is one
generated function memoized on the values of its scalar free variables.  A
quantifier whose free variables are all scalar is answered over the
positions space, whose rows 1..n bind the quantified variable, so a single
evaluation of its body answers it: exists is a nonzero mask, forall a full
one (bottom-up model checking, restricted to the one quantified variable).
Any other quantifier loops over the positions that its guard allows: the
conjuncts of its body (of its negation, for forall) free of row variables,
answered over the positions space in the same way.  The rule applies again
inside those bodies.  An interpretation thus evaluates a letter formula on
all tuples in one query and its order formula one column at a time; a
point query is the case of a single empty row.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterable, Mapping, Sequence

from . import sexpr
from .records import record
from .words import Word


class LogicError(ValueError):
    pass


# -- abstract syntax ----------------------------------------------------


class Formula:
    """Base class; subclasses are immutable and compared structurally."""

    __slots__ = ()

    def render(self) -> str:
        return sexpr.render(to_sexpr(self))

    def __str__(self) -> str:
        return self.render()


@record(slots=True)
class Letter(Formula):
    letter: str
    var: str


@record(slots=True)
class Leq(Formula):
    left: str
    right: str


@record(slots=True)
class Eq(Formula):
    left: str
    right: str


@record(slots=True)
class Not(Formula):
    body: Formula


@record(slots=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise LogicError("empty conjunction")


@record(slots=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise LogicError("empty disjunction")


@record(slots=True)
class Implies(Formula):
    left: Formula
    right: Formula


@record(slots=True)
class Forall(Formula):
    var: str
    body: Formula


@record(slots=True)
class Exists(Formula):
    var: str
    body: Formula


@record(slots=True)
class Max(Formula):
    """Macro: max(x) iff every position is <= x."""

    var: str


@record(slots=True)
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
    return _collect_frees(f, {})


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


class RowSpace:
    """Rows of one word that a bound formula answers for: bit i of a mask
    over the space stands for ``rows[i]``, and ``all`` is the mask of every
    row.  The tables that plans read (see ``table``) are built on first use
    and kept, so evaluators of several formulas that share a space build
    each table once.  ``positions`` is the space of the rows (1,) to (n,)
    of the same word, built on first use."""

    __slots__ = ("word", "n", "rows", "all", "_letters", "_masks", "_tables", "_positions")

    def __init__(self, word: Word, rows: Sequence[tuple[int, ...]]):
        self.word = word
        self.n = len(word)
        self.rows = rows
        self.all = (1 << len(rows)) - 1
        self._letters: dict[str, list[bool]] = {}
        self._masks: dict[int, tuple[list[int], list[int], list[int]]] = {}
        self._tables: dict[tuple, object] = {}
        self._positions: RowSpace | None = None

    @classmethod
    def product(cls, word: Word, dim: int) -> RowSpace:
        """All ``dim``-tuples of positions of ``word``, in ``itertools.product``
        order, with each component's masks in closed form, not row by row:
        component a holds each of 1..n in turn for a run of s = n^(dim-1-a)
        rows, so it is == p on one pattern of runs shifted by (p-1)s."""
        n = len(word)
        space = cls(word, list(itertools.product(range(1, n + 1), repeat=dim)))
        for a in range(dim):
            s = n ** (dim - 1 - a)
            run = (space.all // ((1 << n * s) - 1) if n else 0) * ((1 << s) - 1)
            space._fill(a, [0, *(run << p * s for p in range(n)), 0])
        return space

    @property
    def positions(self) -> RowSpace:
        if self._positions is None:
            self._positions = RowSpace.product(self.word, 1)
            self._positions._letters = self._letters
        return self._positions

    def masks(self, a: int) -> tuple[list[int], list[int], list[int]]:
        """Masks of the rows whose component ``a`` is ==, <= and >= each
        position p, indexed by p (0 to n + 1)."""
        if a not in self._masks:
            bufs = [bytearray((len(self.rows) + 7) >> 3) for _ in range(self.n + 2)]
            for i, row in enumerate(self.rows):
                bufs[row[a]][i >> 3] |= 1 << (i & 7)
            self._fill(a, [int.from_bytes(buf, "little") for buf in bufs])
        return self._masks[a]

    def _fill(self, a: int, eq: list[int]) -> None:
        """Keep ``eq`` as component a's == masks, with the <= and >= it implies."""
        le = list(itertools.accumulate(eq, operator.or_))
        self._masks[a] = (eq, le, [self.all ^ below for below in [0, *le[:-1]]])

    def table(self, spec: tuple):
        """The value on this space of an atom spec, complemented when its
        last field is true: ``("letter", letter, a, neg)``, the mask of the
        rows whose component a carries the letter, or for a None, a list by
        position p of ``all`` where the letter stands at p and 0 elsewhere;
        ``("rows", is_eq, a, b, neg)``, the rows whose component a is ==
        (or <=) component b; ``("slot", which, a, neg)``, a list by
        position p of the rows whose component a is == p (0), <= p (1) or
        >= p (2)."""
        value = self._tables.get(spec)
        if value is None:
            kind, x, a, *b, neg = spec
            if kind == "letter":
                holds = self._letters.get(x)
                if holds is None:
                    holds = self._letters[x] = [False, *(t == x for t in self.word.tokens)]
                if a is None:
                    value = [self.all if h else 0 for h in holds]
                else:
                    at_p = itertools.compress(self.masks(a)[0], holds)
                    value = functools.reduce(operator.or_, at_p, 0)
            elif kind == "rows":
                # The rows whose component a is some p, and component b is == p or >= p.
                eq_b, _, ge_b = self.masks(b[0])
                at_p = map(operator.and_, self.masks(a)[0], eq_b if x else ge_b)
                value = functools.reduce(operator.or_, at_p, 0)
            else:
                value = self.masks(a)[x]
            if neg:
                ALL = self.all
                value = ALL ^ value if isinstance(value, int) else [ALL ^ m for m in value]
            self._tables[spec] = value
        return value


# -- generated code --------------------------------------------------------
#
# A plan compiles into units, each a small Python function generated and
# compiled once per plan: the root, one per quantifier, one per guard, and
# one per subformula that would nest deeper than ``_UNIT_DEPTH`` connectives
# in its unit, which keeps every unit far inside the parser's nesting
# limits.  A unit's arguments are the positions of the scalar variables it
# reads, ``v<slot>``.  Atoms read tables of the word, ``c<k>``, which
# ``RowSpace.table`` computes from the plan's specs, so letters and
# variable names never appear in the source: it holds only generated
# names, integer literals and operators.  Connectives are inline bitwise
# expressions that stop early (an and at 0, an or at A).  A quantifier
# that loops visits, lowest first, the positions set in its guard's mask
# over the positions space (all of them, ``R``, without a guard), stops
# early too (exists at A, forall at 0) and memoizes on its arguments in a
# dict made per word.  A unit's ``make`` takes ``A``, the mask of all rows
# of the space its body answers over, ``B``, that of the space it answers
# to, ``R``, then its tables and the units it calls, ``q<k>``.  A generated
# ``bind`` calls every ``make`` once per word, callees first, with the
# tables of the rows (``t0``) and of the positions (``t1``).

_UNIT_DEPTH = 32

_MAKE = "def make(A, B, R{params}):\n{setup}    def f({args}):\n{body}    return f\n"

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


class _Codegen:
    """Generates the sources of one plan's units, callees first, so the
    root comes last, and the lines of its ``bind``."""

    def __init__(self, frees: dict[int, frozenset[str]], slots: dict[str, int]):
        self.frees, self.slots = frees, slots
        self.specs: tuple[dict[tuple, int], dict[tuple, int]] = ({}, {})
        self.sources: list[str] = []
        self.binds: list[str] = []
        self.nodes = 0
        self.masked = False

    def finish(self, u: _Unit, args: list[int], setup: str, body: str) -> int:
        space, outer, consts, calls = u
        k = len(self.sources)
        params = "".join(f", c{c}" for c in consts) + "".join(f", q{q}" for q in calls)
        self.sources.append(_MAKE.format(params=params, setup=setup, args=_vars(args), body=body))
        refs = "".join(f", t{space}[{c}]" for c in consts) + "".join(f", q{q}" for q in calls)
        self.binds.append(f"    q{k} = M[{k}](A{space}, A{outer}, R{refs})\n")
        return k

    def const(self, u: _Unit, spec: tuple) -> str:
        specs = self.specs[u[0]]
        k = specs.setdefault(spec, len(specs))
        u[2][k] = None
        return f"c{k}"

    def call(self, u: _Unit, unit: int, slots: list[int]) -> str:
        u[3][unit] = None
        return f"q{unit}({_vars(slots)})"

    def plain(self, f: Formula, index: dict[str, int], space: int, args: list[int]) -> int:
        u: _Unit = (space, space, {}, {})
        return self.finish(u, args, "", f"        return {self.expr(f, u, index, 0)}\n")

    def quantifier(self, f: Forall | Exists, index: dict[str, int], space: int):
        """The unit of a quantifier in a space whose row variables ``index``
        maps to their components, and the slots it is called with."""
        fv = self.frees[id(f)]
        key = sorted(self.slots[v] for v in fv if v not in index)
        exists = isinstance(f, Exists)
        if fv.isdisjoint(index):
            # Masked: the body answers every position of f.var at once.
            self.masked = True
            u: _Unit = (1, space, {}, {})
            test = self.expr(f.body, u, {f.var: 0}, 0) + ("" if exists else " == A")
            inner = f"            hit = cache[key] = B if {test} else 0\n"
        else:
            # The guard: the conjuncts of the body (of its negation, for
            # forall) free of row variables; the loop evaluates the rest.
            slot = self.slots.setdefault(f.var, len(self.slots))
            u = (space, space, {}, {})
            guard, rest = [], []
            for part in _conjuncts(f.body if exists else Not(f.body)):
                (guard if self.frees[id(_strip(part)[0])].isdisjoint(index) else rest).append(part)
            todo = "R"
            if guard:
                self.masked, g = True, conj(*guard)
                args = sorted(self.slots[v] for v in free_vars(g) - {f.var})
                todo = self.call(u, self.plain(g, {f.var: 0}, 1, args), args)
            body = self.expr(conj(*rest) if exists else Not(conj(*rest)), u, index, 0)
            start, op, stop = (0, "|", "hit == A") if exists else ("A", "&", "not hit")
            inner = _LOOP.format(start=start, guard=todo, slot=slot, op=op, body=body, stop=stop)
        keyed = f"({_vars(key)})" if len(key) != 1 else f"v{key[0]}"
        return self.finish(u, key, "    cache = {}\n", _MEMO.format(key=keyed, inner=inner)), key

    def expr(self, f: Formula, u: _Unit, index: dict[str, int], depth: int) -> str:
        """Python expression for the mask of ``f`` in unit ``u``, at
        ``depth`` connectives below the unit's root."""
        f, neg = _strip(f)
        if isinstance(f, (Letter, Leq, Eq)):
            self.nodes += 1
            return self.atom(f, neg, u, index)
        # A subformula split off into a unit of its own is counted there.
        self.nodes += neg + (depth < _UNIT_DEPTH or isinstance(f, (Forall, Exists)))
        m = f"m{depth}"
        if isinstance(f, (Forall, Exists)):
            text = self.call(u, *self.quantifier(f, index, u[0]))
        elif depth == _UNIT_DEPTH:
            args = sorted(self.slots[v] for v in self.frees[id(f)] if v not in index)
            text = self.call(u, self.plain(f, index, u[0], args), args)
        elif isinstance(f, Implies):
            left, right = (self.expr(g, u, index, depth + 1) for g in (f.left, f.right))
            text = f"((A ^ {m}) | {right} if ({m} := {left}) else A)"
        else:
            *init, last = (self.expr(g, u, index, depth + 1) for g in _flat(f))
            if not init:
                text = last
            elif isinstance(f, And):
                steps = [f"({m} := {init[0]})"] + [f"({m} := {m} & {p})" for p in init[1:]]
                text = f"({' and '.join(steps)} and {m} & {last})"
            else:
                steps = [f"({m} := {init[0]}) == A"]
                steps += [f"({m} := {m} | {p}) == A" for p in init[1:]]
                text = f"(A if {' or '.join(steps)} else {m} | {last})"
        return f"(A ^ {text})" if neg else text

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


def _generate(core: Formula, frees: dict, free: tuple[str, ...], row_vars: tuple[str, ...]):
    """The generator run over ``core``, whose nodes' free variables are in
    ``frees``: its sources are the units, the root last, then ``bind``."""
    gen = _Codegen(frees, {v: i for i, v in enumerate(free)})
    root = gen.plain(core, {v: a for a, v in enumerate(row_vars)}, 0, list(range(len(free))))
    binds = "".join(gen.binds)
    gen.sources.append(f"def bind(M, R, A0, A1, t0, t1):\n{binds}    return q{root}\n")
    return gen


def _compiled(source: str, filename: str) -> Callable:
    """The one function that generated ``source`` defines, run with no
    builtins; a distinct ``filename`` per unit lets profiles tell units apart."""
    namespace: dict[str, Callable] = {}
    exec(compile(source, filename, "exec"), {"__builtins__": {}}, namespace)
    (function,) = namespace.values()
    return function


class FormulaPlan:
    """The word-independent half of evaluating one formula, built once from
    ``(formula, var_order, row_vars)`` and read, never changed, by the
    evaluators of any number of words, also from several threads.

    ``core`` is the formula with its macros expanded and its binders renamed
    apart from each other, from its free variables and from ``row_vars``.
    ``free`` lists the scalar variables in the order ``at`` binds them.
    The plan keeps the core compiled as generated Python (see above).
    Generating makes every choice that depends only on the variables: which
    are row components of a unit's space and which are arguments, which
    table answers each atom, and whether each quantifier is answered over
    the positions space or loops under which guard, memoized on which
    arguments.  It also normalizes: an and directly under an and (an or
    under an or) is spliced into it, two nots cancel, and a not over an
    atom reads the complemented table.
    """

    __slots__ = ("formula", "row_vars", "free", "core", "_specs", "_masked", "_makes", "_bind")

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
        self.formula, self.row_vars, self.free, self.core = formula, row_vars, free, core
        gen = _generate(core, frees, free, row_vars)
        *units, binder = gen.sources
        self._specs = tuple(map(tuple, gen.specs))
        self._masked = gen.masked
        # Compiled one unit at a time, after generating, at a shallow stack
        # and with the generator's tables freed, since compiling peaks higher.
        del gen, frees
        self._makes = tuple(_compiled(src, f"<plan unit {k}>") for k, src in enumerate(units))
        self._bind = _compiled(binder, "<plan bind>")

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

    def bind(self, space: RowSpace) -> Callable[..., int]:
        """The root unit made for the word of ``space``: it maps the
        positions of the ``free`` variables to the mask of the rows of
        ``space`` on which the formula holds."""
        pos = space.positions if self._masked else space
        t0 = [space.table(spec) for spec in self._specs[0]]
        t1 = [pos.table(spec) for spec in self._specs[1]]
        return self._bind(self._makes, (1 << space.n) - 1, space.all, pos.all, t0, t1)


def _collect_frees(f: Formula, frees: dict[int, frozenset[str]]) -> frozenset[str]:
    """The free variables of ``f``; records those of every node in ``frees``."""
    if isinstance(f, (Letter, Max, Min)):
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


class FormulaEvaluator:
    """One formula bound to one fixed word.

    Free variables are either row variables or scalar variables.  Each of
    ``rows`` binds the row variables, component by component; ``at(values)``
    binds the scalar variables positionally (see ``free``) and returns an
    int mask whose bit i says the formula holds with the row variables
    bound to ``rows[i]``.  By default there is one empty row, and ``at`` is
    a point query answering 0 or 1.  ``rows`` may also be a ``RowSpace`` of
    the word, to share its tables with the evaluators of other formulas.

    The word-independent work lives in a ``FormulaPlan``: pass one built for
    the same ``(formula, var_order, row_vars)`` as ``plan`` to share it
    across words, or let the evaluator build its own.  Binding a plan to the
    word builds only what depends on the word: the tables of the row space
    and of the positions space over (1,) to (n,), and one function per unit
    of the plan, with fresh memo caches.  A quantifier whose free variables
    are all scalar asks its body, over the positions space, once per
    binding of them; others loop over the positions their guard allows.

    Build once per word, query many times.  A plan may be shared across
    words and threads; an evaluator may not (each instance owns its memo
    caches).
    """

    def __init__(
        self,
        word: Word,
        formula: Formula,
        var_order: tuple[str, ...] | None = None,
        rows: Sequence[tuple[int, ...]] | RowSpace = ((),),
        row_vars: tuple[str, ...] = (),
        *,
        plan: FormulaPlan | None = None,
    ):
        if plan is None:
            plan = FormulaPlan(formula, var_order, row_vars)
        elif not plan.serves(formula, var_order, row_vars):
            raise LogicError("plan was built for another formula, var_order or row_vars")
        space = rows if isinstance(rows, RowSpace) else RowSpace(word, rows)
        if space.word != word:
            raise LogicError("row space was built for another word")
        self.word, self.formula, self.free, self._n = word, formula, plan.free, len(word)
        self._root = plan.bind(space)

    def at(self, values: tuple[int, ...]) -> int:
        """The mask of the rows on which the formula holds, with the scalar
        variables bound positionally (see ``free``).  No range validation;
        callers supply positions of the word."""
        return self._root(*values)

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
