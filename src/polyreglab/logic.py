"""First-order logic over words.

Formulas talk about positions of a finite word: letter predicates ``a(x)``,
the position order ``x <= y``, equality, boolean connectives and
quantifiers ranging over positions.  ``max``/``min`` are macros that expand
to their quantified definitions before anything semantic happens, so the
core vocabulary stays minimal.

Evaluation compiles a formula over one fixed word into closures that
return an int mask over a row space: a list of row tuples that bind the
space's row variables, where bit i says the subformula holds with them
bound to row i.  Atoms on row variables are precomputed position masks,
connectives are bitwise operations, and quantified subformulas are
memoized on the values of their scalar free variables.  A quantifier whose
free variables include a row variable of its space loops over the
positions.  One whose free variables are all scalar compiles its body over
the positions space, whose rows 1..n bind the quantified variable, so a
single body call answers it: exists is a nonzero mask, forall a full one
(bottom-up model checking, restricted to the one quantified variable).
The rule applies again inside that body, where the quantified variable is
the row variable.  An interpretation thus evaluates a letter formula on
all tuples in one query and its order formula one column at a time; a
point query is the case of a single empty row.
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
    """The rows a compiled node answers for.  Row i binds each variable of
    ``index`` to component ``index[v]`` of ``rows[i]``; ``all`` is the mask
    of every row.  Position masks are built per component on first use and
    shared by spaces that ``rebind`` the same rows to other variables."""

    __slots__ = ("n", "rows", "all", "index", "_tables")

    def __init__(
        self,
        n: int,
        rows: Sequence[tuple[int, ...]],
        index: dict[str, int],
        tables: dict[int, tuple[list[int], list[int], list[int]]] | None = None,
    ):
        self.n = n
        self.rows = rows
        self.all = (1 << len(rows)) - 1
        self.index = index
        self._tables = {} if tables is None else tables

    def rebind(self, index: dict[str, int]) -> _RowSpace:
        return _RowSpace(self.n, self.rows, index, self._tables)

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


class FormulaEvaluator:
    """Compiled evaluator for one formula over one fixed word.

    Free variables are either row variables or scalar variables.  Each of
    ``rows`` binds the row variables, component by component; ``at(values)``
    binds the scalar variables positionally (see ``free``) and returns an
    int mask whose bit i says the formula holds with the row variables
    bound to ``rows[i]``.  By default there is one empty row, and ``at`` is
    a point query answering 0 or 1.

    Every node is compiled against a row space: the root against ``rows``,
    and the body of a quantifier whose free variables are all scalar
    against the positions space, whose rows (1,) to (n,) bind the
    quantifier's own variable.  Such a quantifier asks its body once per
    binding of its scalar free variables; other quantifiers loop over the
    n positions.  The positions masks are built once per evaluator.

    Build once, query many times.  Not safe to share across threads (each
    instance owns a scratch environment); the formula itself is.
    """

    def __init__(
        self,
        word: Word,
        formula: Formula,
        var_order: tuple[str, ...] | None = None,
        rows: Sequence[tuple[int, ...]] = ((),),
        row_vars: tuple[str, ...] = (),
    ):
        core = rename_bound(expand_macros(formula), reserved=row_vars)
        self._frees_by_node: dict[int, frozenset[str]] = {}
        scalar = self._collect_frees(core) - set(row_vars)
        self.word = word
        self.formula = formula
        self.free = tuple(var_order) if var_order is not None else tuple(sorted(scalar))
        if not scalar <= set(self.free):
            raise LogicError(f"var_order misses free variables {sorted(scalar - set(self.free))}")
        self._n = len(word)
        # Scalar free variables first, so ``at`` binds them positionally;
        # each looping quantifier adds a slot for its variable as it is
        # compiled.
        self._slots: dict[str, int] = {v: i for i, v in enumerate(self.free)}
        self._letter_tables: dict[str, list[bool]] = {}
        self._positions: _RowSpace | None = None
        space = _RowSpace(self._n, rows, {v: a for a, v in enumerate(row_vars)})
        self._root = self._compile(core, space)
        self._env = [0] * max(1, len(self._slots))

    def _letter_table(self, letter: str) -> list[bool]:
        table = self._letter_tables.get(letter)
        if table is None:
            table = [False] * (self._n + 1)
            for i, tok in enumerate(self.word.tokens):
                if tok == letter:
                    table[i + 1] = True
            self._letter_tables[letter] = table
        return table

    def _positions_of(self, var: str) -> _RowSpace:
        """The positions space with ``var`` as its row variable."""
        if self._positions is None:
            self._positions = _RowSpace(self._n, [(p,) for p in range(1, self._n + 1)], {})
        return self._positions.rebind({var: 0})

    def _collect_frees(self, f: Formula) -> frozenset[str]:
        if isinstance(f, Letter):
            fv = frozenset((f.var,))
        elif isinstance(f, (Leq, Eq)):
            fv = frozenset((f.left, f.right))
        elif isinstance(f, (Forall, Exists)):
            fv = self._collect_frees(f.body) - {f.var}
        else:
            fv = frozenset()
            for sub in children(f):
                fv |= self._collect_frees(sub)
        self._frees_by_node[id(f)] = fv
        return fv

    def _compile_atom(self, f: Letter | Leq | Eq, space: _RowSpace) -> Callable[[list[int]], int]:
        ALL, index = space.all, space.index
        if isinstance(f, Letter):
            table = self._letter_table(f.letter)
            a = index.get(f.var)
            if a is not None:
                at_letter = itertools.compress(space.masks(a)[0], table)
                mask = functools.reduce(operator.or_, at_letter, 0)
                return lambda env: mask
            masks = [ALL if holds else 0 for holds in table]
            s = self._slots[f.var]
            return lambda env: masks[env[s]]
        a, b = index.get(f.left), index.get(f.right)
        if a is None and b is None:
            s1, s2 = self._slots[f.left], self._slots[f.right]
            test = operator.le if isinstance(f, Leq) else operator.eq
            return lambda env: ALL if test(env[s1], env[s2]) else 0
        if a is not None and b is not None:
            # The rows whose component a is some p, and component b is >= p or == p.
            eq_b, _, ge_b = space.masks(b)
            other = eq_b if isinstance(f, Eq) else ge_b
            at_p = map(operator.and_, space.masks(a)[0], other)
            mask = functools.reduce(operator.or_, at_p, 0)
            return lambda env: mask
        eq, le, ge = space.masks(b if a is None else a)
        table = eq if isinstance(f, Eq) else ge if a is None else le
        s = self._slots[f.left if a is None else f.right]
        return lambda env: table[env[s]]

    def _compile(self, f: Formula, space: _RowSpace) -> Callable[[list[int]], int]:
        ALL = space.all
        if isinstance(f, (Letter, Leq, Eq)):
            return self._compile_atom(f, space)
        if isinstance(f, Not):
            body = self._compile(f.body, space)
            return lambda env: ALL ^ body(env)
        if isinstance(f, And):
            parts = tuple(self._compile(p, space) for p in f.parts)

            def run_and(env: list[int]) -> int:
                acc = ALL
                for p in parts:
                    acc &= p(env)
                    if not acc:
                        break
                return acc

            return run_and
        if isinstance(f, Or):
            parts = tuple(self._compile(p, space) for p in f.parts)

            def run_or(env: list[int]) -> int:
                acc = 0
                for p in parts:
                    acc |= p(env)
                    if acc == ALL:
                        break
                return acc

            return run_or
        if isinstance(f, Implies):
            left = self._compile(f.left, space)
            right = self._compile(f.right, space)

            def run_implies(env: list[int]) -> int:
                held = left(env)
                return (ALL ^ held) | right(env) if held else ALL

            return run_implies
        if isinstance(f, (Forall, Exists)):
            frees = self._frees_by_node[id(f)]
            key_slots = sorted(self._slots[v] for v in frees if v not in space.index)
            key_of = operator.itemgetter(*key_slots) if key_slots else lambda env: ()
            exists = isinstance(f, Exists)
            cache: dict[object, int] = {}
            if frees.isdisjoint(space.index):
                # Every free variable is scalar: one body call answers all
                # n positions of f.var at once.
                positions = self._positions_of(f.var)
                body = self._compile(f.body, positions)
                FULL = positions.all

                def run_masked(env: list[int]) -> int:
                    key = key_of(env)
                    hit = cache.get(key)
                    if hit is None:
                        mask = body(env)
                        hit = cache[key] = ALL if (mask != 0 if exists else mask == FULL) else 0
                    return hit

                return run_masked
            n = self._n
            slot = self._slots.setdefault(f.var, len(self._slots))
            body = self._compile(f.body, space)

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
        raise LogicError(f"unknown formula node {f!r}")

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
