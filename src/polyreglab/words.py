"""Alphabets, words, marked words and origin-annotated words.

Symbols are short string tokens rather than single characters, so marker
symbols like ``club1`` or ``box2`` are ordinary letters.  Positions are
1-based throughout the library.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .records import record


class WordError(ValueError):
    """Raised for malformed words, bad positions or alphabet violations."""


@record
class Alphabet:
    """A finite set of symbol tokens.

    The empty alphabet is allowed (it is occasionally useful as an erase
    set); functions that need letters to work with check non-emptiness
    themselves.
    """

    letters: frozenset[str]

    def __post_init__(self) -> None:
        for tok in self.letters:
            if not tok or any(ch.isspace() for ch in tok):
                raise WordError(f"bad symbol token {tok!r}")

    @staticmethod
    def of(*tokens: str) -> "Alphabet":
        return Alphabet(frozenset(tokens))

    def __contains__(self, token: str) -> bool:
        return token in self.letters

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __or__(self, other: "Alphabet") -> "Alphabet":
        return Alphabet(self.letters | other.letters)

    def issubset(self, other: "Alphabet") -> bool:
        return self.letters <= other.letters

    def render(self) -> str:
        return " ".join(sorted(self.letters))


@record(slots=True)
class Word:
    """An immutable sequence of symbol tokens with 1-based indexing."""

    tokens: tuple[str, ...] = ()

    @staticmethod
    def of(*tokens: str) -> "Word":
        return Word(tuple(tokens))

    @staticmethod
    def parse(text: str, alphabet: Alphabet | None = None) -> "Word":
        """Parse a word from text.

        Whitespace-separated tokens always parse.  A contiguous string is
        tokenized greedily against the alphabet when one is given (so
        multi-character symbols work), otherwise one character per token.
        """
        text = text.strip()
        if not text:
            return Word()
        if any(ch.isspace() for ch in text):
            tokens = tuple(text.split())
        elif alphabet is None:
            tokens = tuple(text)
        else:
            tokens = _tokenize_greedy(text, alphabet)
        if alphabet is not None:
            for tok in tokens:
                if tok not in alphabet:
                    raise WordError(f"symbol {tok!r} not in alphabet {{{alphabet.render()}}}")
        return Word(tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __getitem__(self, position: int) -> str:
        """1-based: w[i] is defined exactly for 1 <= i <= len(w)."""
        if not 1 <= position <= len(self.tokens):
            raise WordError(f"position {position} out of range 1..{len(self.tokens)}")
        return self.tokens[position - 1]

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.tokens + other.tokens)

    def count(self, token: str) -> int:
        return self.tokens.count(token)

    def alphabet_check(self, alphabet: Alphabet) -> None:
        if alphabet.letters.issuperset(self.tokens):
            return
        for tok in self.tokens:
            if tok not in alphabet:
                raise WordError(f"symbol {tok!r} not in alphabet {{{alphabet.render()}}}")

    def render(self) -> str:
        """Canonical text form: contiguous when every token is one character,
        whitespace-separated otherwise."""
        if all(len(tok) == 1 for tok in self.tokens):
            return "".join(self.tokens)
        return " ".join(self.tokens)

    def __str__(self) -> str:
        return self.render()


def _tokenize_greedy(text: str, alphabet: Alphabet) -> tuple[str, ...]:
    by_length = sorted(alphabet.letters, key=len, reverse=True)
    tokens: list[str] = []
    i = 0
    while i < len(text):
        for tok in by_length:
            if text.startswith(tok, i):
                tokens.append(tok)
                i += len(tok)
                break
        else:
            raise WordError(f"cannot tokenize {text[i:]!r} over {{{alphabet.render()}}}")
    return tuple(tokens)


def concat(words: Iterable[Word]) -> Word:
    out: list[str] = []
    for w in words:
        out.extend(w.tokens)
    return Word(tuple(out))


def erase(w: Word, delta: Iterable[str]) -> Word:
    """Remove every occurrence of a symbol of ``delta`` from ``w``."""
    drop = frozenset(delta)
    return Word(tuple(tok for tok in w.tokens if tok not in drop))


# -- marked words -------------------------------------------------------
#
# A marked word is a word over an alphabet doubled with underlined copies
# of its symbols; exactly one position carries the mark in the words this
# library produces.  Underlined symbols are spelled with a leading
# underscore, so the underlined copy of ``a`` is the token ``_a``.

MARK_PREFIX = "_"


def mark_token(token: str) -> str:
    return MARK_PREFIX + token


def marked_alphabet(alphabet: Alphabet) -> Alphabet:
    """The alphabet doubled with underlined copies of its symbols."""
    marked = {mark_token(tok) for tok in alphabet.letters}
    if marked & alphabet.letters:
        clash = sorted(marked & alphabet.letters)
        raise WordError(f"alphabet already contains underlined spellings: {clash}")
    return Alphabet(alphabet.letters | marked)


@record(slots=True)
class OriginWord:
    """An output word whose letters carry origins: tuples of 1-based input
    positions.  Transducer outputs have arity-1 origins, an interpretation
    of dimension d yields arity-d origins."""

    letters: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[tuple[str, tuple[int, ...]]]:
        return iter(self.letters)

    def word(self) -> Word:
        """Forget the origins."""
        return Word(tuple(tok for tok, _ in self.letters))

    def origins(self) -> tuple[tuple[int, ...], ...]:
        return tuple(orig for _, orig in self.letters)

    def render(self) -> str:
        parts = []
        for tok, orig in self.letters:
            parts.append(f"{tok}/{','.join(str(i) for i in orig)}")
        return " ".join(parts)
