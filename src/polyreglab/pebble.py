"""Pebble and blind combinators over regular functions.

A combinator tree denotes a string-to-string function of polynomial
growth.  ``Pebble(head, branches)`` runs its head with origins, then for
each annotated output letter (i, j) concatenates branch i applied to the
input with position j underlined; ``Blind`` is the same but branches read
the plain input.  ``Pebble0`` is a piecewise-constant classifier, the
finite-range base of both hierarchies.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping

from . import sexpr
from .records import record
from .registry import Registry
from .twoway import RegularFn, builtin_regular_fn, regular_fns
from .words import Alphabet, Word, concat, mark_token, marked_alphabet


class PebbleError(ValueError):
    pass


class PolyFun:
    """Base class for combinator trees."""

    # the alphabet the tree reads; None for a Pebble0, which reads any word
    input_alphabet = None


# A head read from a file keeps ``ref``, the reference it was read by, and
# renders as that; a head built in code renders as its machine's name.


@record(eq=False)
class Reg(PolyFun):
    fn: RegularFn
    ref: str | None = None

    @property
    def input_alphabet(self) -> Alphabet:
        return self.fn.input_alphabet


@record(eq=False)
class Pebble0(PolyFun):
    """First matching regular class wins; regexes apply to the canonical
    rendering of the input word."""

    cases: tuple[tuple[str, Word], ...] = ()
    default: Word = Word()

    def __post_init__(self) -> None:
        for pattern, _out in self.cases:
            try:
                re.compile(pattern)
            except re.error as exc:
                raise PebbleError(f"bad matcher regex {pattern!r}: {exc}") from exc


@record(eq=False)
class Pebble(PolyFun):
    head: RegularFn
    branches: Mapping[str, PolyFun]
    ref: str | None = None

    def __post_init__(self) -> None:
        _check_branches(self.head, self.branches, marked=True)

    @property
    def input_alphabet(self) -> Alphabet:
        return self.head.input_alphabet


@record(eq=False)
class Blind(PolyFun):
    head: RegularFn
    branches: Mapping[str, PolyFun]
    ref: str | None = None

    def __post_init__(self) -> None:
        _check_branches(self.head, self.branches, marked=False)

    @property
    def input_alphabet(self) -> Alphabet:
        return self.head.input_alphabet


def _check_branches(head: RegularFn, branches: Mapping[str, PolyFun], marked: bool) -> None:
    missing = head.output_alphabet.letters - set(branches)
    if missing:
        raise PebbleError(f"branch map misses head outputs {sorted(missing)}")
    stray = set(branches) - head.output_alphabet.letters
    if stray:
        raise PebbleError(f"branches for letters the head never outputs: {sorted(stray)}")
    if marked:
        needed = marked_alphabet(head.input_alphabet)
        for letter, branch in branches.items():
            got = branch.input_alphabet
            if got is not None and not needed.issubset(got):
                raise PebbleError(
                    f"branch {letter!r} reads {{{got.render()}}} but will be fed "
                    f"marked words over {{{needed.render()}}}"
                )


# -- semantics ---------------------------------------------------------------


def apply(p: PolyFun, w: Word) -> Word:
    if isinstance(p, Reg):
        return p.fn(w).word()
    if isinstance(p, Pebble0):
        if not p.cases:
            return p.default
        rendering = w.render()
        for pattern, out in p.cases:
            if re.fullmatch(pattern, rendering):
                return out
        return p.default
    if isinstance(p, (Pebble, Blind)):
        return concat(piece for _letter, _origin, piece in _pieces(p, w))
    raise PebbleError(f"unknown combinator node {p!r}")


def _pieces(p: Pebble | Blind, w: Word) -> Iterator[tuple[str, int, Word]]:
    """For each letter the head of ``p`` outputs on ``w``: the letter, its
    origin and its branch's output, on ``w`` with the origin underlined
    for a Pebble, on ``w`` itself for a Blind.  A Blind branch never sees
    the origin, so its piece depends on the letter alone: it is computed
    at the letter's first occurrence and yielded again at the others.
    A Pebble0 without cases reads nothing, so it is given ``w`` itself.
    Branches recurse through the module's ``apply``, so a wrapper bound in
    its place sees them."""
    if isinstance(p, Pebble):
        for letter, origin in p.head(w):
            i = origin[0]
            branch = p.branches[letter]
            constant = isinstance(branch, Pebble0) and not branch.cases
            yield letter, i, apply(branch, w if constant else _underlined(w, i))
        return
    pieces: dict[str, Word] = {}
    for letter, origin in p.head(w):
        if letter not in pieces:
            pieces[letter] = apply(p.branches[letter], w)
        yield letter, origin[0], pieces[letter]


def _underlined(w: Word, i: int) -> Word:
    """``w`` with position i (1-based, an origin of the head's output)
    spelled as its underlined twin."""
    toks = w.tokens
    return Word(toks[: i - 1] + (mark_token(toks[i - 1]),) + toks[i:])


def apply_trace(p: PolyFun, w: Word):
    """Like ``apply`` on a Pebble/Blind root, but also return one
    (branch letter, origin, branch output length) row per head letter:
    the definitional decomposition of the output."""
    if not isinstance(p, (Pebble, Blind)):
        return apply(p, w), []
    pieces = list(_pieces(p, w))
    rows = [(letter, origin, len(piece)) for letter, origin, piece in pieces]
    return concat(piece for _letter, _origin, piece in pieces), rows


@record
class PebbleDepth:
    k: int
    flavor: str  # "pebble" | "blind"


def depth(p: PolyFun) -> PebbleDepth:
    if isinstance(p, Pebble0):
        return PebbleDepth(0, "blind")
    if isinstance(p, Reg):
        return PebbleDepth(1, "blind")
    if isinstance(p, (Pebble, Blind)):
        inner = [depth(b) for b in p.branches.values()]
        k = 1 + max((d.k for d in inner), default=0)
        blind = isinstance(p, Blind) and all(d.flavor == "blind" for d in inner)
        return PebbleDepth(k, "blind" if blind else "pebble")
    raise PebbleError(f"unknown combinator node {p!r}")


def max_growth_constant(p: PolyFun) -> int:
    """The largest linear constant among the tree's regular heads and
    constant outputs; |apply(p, w)| <= (C * (|w|+1)) ** depth(p).k."""
    if isinstance(p, Pebble0):
        lengths = [len(out) for _, out in p.cases] + [len(p.default)]
        return max(lengths + [1])
    if isinstance(p, Reg):
        return max(p.fn.growth_constant, 1)
    if isinstance(p, (Pebble, Blind)):
        inner = max(max_growth_constant(b) for b in p.branches.values())
        return max(p.head.growth_constant, inner, 1)
    raise PebbleError(f"unknown combinator node {p!r}")


# -- the inner-squaring function ---------------------------------------------


def innsq_direct(w: Word) -> Word:
    """Split at every #, repeat each block (number of #s) times, rejoin.
    With no # at all the output is empty: each block repeats zero times."""
    blocks: list[list[str]] = [[]]
    for tok in w:
        if tok == "#":
            blocks.append([])
        else:
            blocks[-1].append(tok)
    n = len(blocks) - 1
    out: list[str] = []
    for idx, block in enumerate(blocks):
        if idx:
            out.append("#")
        out.extend(block * n)
    return Word(tuple(out))


def _innsq_pebble() -> PolyFun:
    copier = Blind(
        head=builtin_regular_fn("hash-counter"),
        branches={"•": Reg(builtin_regular_fn("marked-block-copy"))},
    )
    return Pebble(
        head=builtin_regular_fn("block-marker"),
        branches={"•": copier, "#": Pebble0(default=Word.of("#"))},
    )


polyfuns = Registry(
    "pebble",
    "combinator tree",
    ".pfn",
    {"innsq-pebble": _innsq_pebble},
    lambda text, _name, base_dir: parse_polyfun(text, base_dir),
)
builtin_polyfuns = polyfuns.names
builtin_polyfun = polyfuns.builtin


# -- file format ---------------------------------------------------------------


def to_sexpr(p: PolyFun):
    if isinstance(p, Reg):
        return ["reg", p.ref or p.fn.name]
    if isinstance(p, Pebble0):
        cases = [[sexpr.QuotedAtom(pattern)] + list(out.tokens) for pattern, out in p.cases]
        return ["piecewise", cases, list(p.default.tokens)]
    if isinstance(p, (Pebble, Blind)):
        tag = "pebble" if isinstance(p, Pebble) else "blind"
        branches = [[letter, to_sexpr(p.branches[letter])] for letter in sorted(p.branches)]
        return [tag, p.ref or p.head.name, branches]
    raise PebbleError(f"unknown combinator node {p!r}")


def render_polyfun(p: PolyFun) -> str:
    return sexpr.render(to_sexpr(p)) + "\n"


def _head(ref: str, base_dir: str) -> RegularFn:
    """A head named in a ``.pfn`` file: a builtin, else a ``.2dft`` file
    relative to the tree file's directory."""
    try:
        return regular_fns.load(ref, base_dir)
    except OSError as exc:
        raise PebbleError(f"{ref!r} is neither a builtin regular function nor a file") from exc


def from_sexpr(expr, base_dir: str = ".") -> PolyFun:
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], str):
        raise PebbleError(f"bad combinator expression {sexpr.render(expr)}")
    head = expr[0]
    args = expr[1:]
    if head == "reg":
        if len(args) != 1 or not isinstance(args[0], str):
            raise PebbleError("(reg <name-or-file>) malformed")
        return Reg(_head(str(args[0]), base_dir), str(args[0]))
    if head == "const":
        for tok in args:
            if not isinstance(tok, str):
                raise PebbleError("(const <tokens...>) malformed")
        return Pebble0(default=Word(tuple(str(t) for t in args)))
    if head == "piecewise":
        if len(args) != 2 or not isinstance(args[0], list) or not isinstance(args[1], list):
            raise PebbleError("(piecewise ((<regex> <tokens...>) ...) (<tokens...>)) malformed")
        cases = []
        for case in args[0]:
            if not isinstance(case, list) or not case or not isinstance(case[0], str):
                raise PebbleError(f"bad piecewise case {sexpr.render(case)}")
            cases.append((str(case[0]), Word(tuple(str(t) for t in case[1:]))))
        default = Word(tuple(str(t) for t in args[1]))
        return Pebble0(tuple(cases), default)
    if head in ("pebble", "blind"):
        if len(args) != 2 or not isinstance(args[0], str) or not isinstance(args[1], list):
            raise PebbleError(f"({head} <regfn> ((i <subtree>) ...)) malformed")
        fn = _head(str(args[0]), base_dir)
        branches: dict[str, PolyFun] = {}
        for item in args[1]:
            if not isinstance(item, list) or len(item) != 2 or not isinstance(item[0], str):
                raise PebbleError(f"bad branch {sexpr.render(item)}")
            branches[str(item[0])] = from_sexpr(item[1], base_dir)
        cls = Pebble if head == "pebble" else Blind
        return cls(fn, branches, str(args[0]))
    raise PebbleError(f"unknown combinator head {head!r}")


def parse_polyfun(text: str, base_dir: str = ".") -> PolyFun:
    return from_sexpr(sexpr.parse_one(text), base_dir)
