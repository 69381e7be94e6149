"""A small s-expression reader/writer shared by the file formats.

Expressions are nested lists of atoms.  Atoms are plain strings; a
double-quoted atom reads as a ``QuotedAtom`` so formats can tell ``"a*"``
(a regex literal) apart from the symbol ``a*``.  Comment lines start
with ``;``.  Lists nest at most ``MAX_DEPTH`` deep, well inside Python's
recursion limit: deeper input is refused with a ``SexprError`` instead of
overflowing the stack.
"""

from __future__ import annotations


MAX_DEPTH = 700


class SexprError(ValueError):
    pass


class QuotedAtom(str):
    """An atom that was written in double quotes."""


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == '"':
            j = i + 1
            buf = []
            while j < len(text) and text[j] != '"':
                if text[j] == "\\" and j + 1 < len(text):
                    j += 1
                buf.append(text[j])
                j += 1
            if j >= len(text):
                raise SexprError("unterminated string literal")
            tokens.append('"' + "".join(buf))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in '();"':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _read(tokens: list[str], pos: int, depth: int = 0):
    if pos >= len(tokens):
        raise SexprError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        if depth == MAX_DEPTH:
            raise SexprError(f"expression nests deeper than {MAX_DEPTH} levels")
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos, depth + 1)
            items.append(item)
        if pos >= len(tokens):
            raise SexprError("missing closing parenthesis")
        return items, pos + 1
    if tok == ")":
        raise SexprError("unexpected closing parenthesis")
    if tok.startswith('"'):
        return QuotedAtom(tok[1:]), pos + 1
    return tok, pos + 1


def parse_one(text: str):
    exprs = parse_all(text)
    if len(exprs) != 1:
        raise SexprError(f"expected a single expression, found {len(exprs)}")
    return exprs[0]


def parse_all(text: str) -> list:
    tokens = tokenize(text)
    exprs = []
    pos = 0
    while pos < len(tokens):
        expr, pos = _read(tokens, pos)
        exprs.append(expr)
    return exprs


def render(expr) -> str:
    if isinstance(expr, QuotedAtom):
        escaped = str(expr).replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(expr, str):
        return expr
    return "(" + " ".join(render(item) for item in expr) + ")"
