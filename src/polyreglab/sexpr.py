"""A small s-expression reader/writer shared by the file formats.

Expressions are nested lists of atoms.  Atoms are plain strings; a
double-quoted atom reads as a ``QuotedAtom`` so formats can tell ``"a*"``
(a regex literal) apart from the symbol ``a*``.  Comment lines start
with ``;``.  Lists nest at most ``MAX_DEPTH`` deep: deeper input is
refused with a ``SexprError``.  Reading and writing keep their own stacks,
as do the formula walkers in ``logic``, so ``MAX_DEPTH`` is the only depth
limit on a formula file, whatever Python's recursion limit.
"""

from __future__ import annotations

import re

MAX_DEPTH = 700


class SexprError(ValueError):
    pass


class QuotedAtom(str):
    """An atom that was written in double quotes."""


# Whitespace, a comment, a paren, a quoted atom (its closing quote, if any,
# in group 3) or a plain atom: every character starts one of them.
_TOKEN = re.compile(r'\s+|;[^\n]*|([()])|"((?:\\.|[^"\\])*)("?)|([^\s();"]+)', re.S)


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for match in _TOKEN.finditer(text):
        paren, quoted, closed, atom = match.groups()
        if quoted is not None:
            if not closed:
                raise SexprError("unterminated string literal")
            tokens.append('"' + re.sub(r"\\(.)", r"\1", quoted, flags=re.S))
        elif paren or atom:
            tokens.append(paren or atom)
    return tokens


def parse_one(text: str):
    exprs = parse_all(text)
    if len(exprs) != 1:
        raise SexprError(f"expected a single expression, found {len(exprs)}")
    return exprs[0]


def parse_all(text: str) -> list:
    exprs: list = []
    open_lists: list[list] = []  # the lists begun and not yet closed, outermost first
    for tok in tokenize(text):
        if tok == "(":
            if len(open_lists) == MAX_DEPTH:
                raise SexprError(f"expression nests deeper than {MAX_DEPTH} levels")
            open_lists.append([])
            continue
        if tok == ")":
            if not open_lists:
                raise SexprError("unexpected closing parenthesis")
            item = open_lists.pop()
        else:
            item = QuotedAtom(tok[1:]) if tok.startswith('"') else tok
        (open_lists[-1] if open_lists else exprs).append(item)
    if open_lists:
        raise SexprError("missing closing parenthesis")
    return exprs


def render(expr) -> str:
    out: list[str] = []
    todo = [expr]  # expressions to write, and plain strings to write as they are
    while todo:
        item = todo.pop()
        if isinstance(item, QuotedAtom):
            escaped = str(item).replace("\\", "\\\\").replace('"', '\\"')
            out.append(f'"{escaped}"')
        elif isinstance(item, str):
            out.append(item)
        else:
            out.append("(")
            todo.append(")")
            for k in range(len(item) - 1, -1, -1):
                todo.append(item[k])
                if k:
                    todo.append(" ")
    return "".join(out)
