"""Marker lift of a two-dimensional interpretation.

``psi(I)`` turns an interpretation over Γ into one over Γ plus a club
token.  On a decorated word ♣^p0 u1 ♣^p1 ... un ♣^pn it reproduces the
output of I on u1..un and, after each output letter with origin pair
(i, j), inserts one box per club in the block following position i and
one diamond per club in the block following position j.  The point of
the lift is that suitably decorated inputs force pairwise-distinct
separator blocks in the output.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .interp import Interpretation, builtin_interp, eval_interp
from .logic import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Leq,
    Letter,
    Not,
    Or,
    disj,
    relativize,
    strict_less,
    substitute,
)
from .records import record
from .words import Alphabet, Word


class PsiError(ValueError):
    pass


@record
class MarkerScheme:
    """Concrete spellings for the three fresh tokens a lift introduces."""

    club: str
    box: str
    diamond: str

    def __post_init__(self) -> None:
        if len({self.club, self.box, self.diamond}) != 3:
            raise PsiError("club, box and diamond tokens must be pairwise distinct")

    @staticmethod
    def plain() -> "MarkerScheme":
        return MarkerScheme("♣", "□", "◊")

    @staticmethod
    def for_level(level: int) -> "MarkerScheme":
        if level < 1:
            raise PsiError(f"marker level must be >= 1, got {level}")
        return MarkerScheme(f"♣{level}", f"□{level}", f"◊{level}")

    def tokens(self) -> frozenset[str]:
        return frozenset((self.club, self.box, self.diamond))


def fresh_scheme(interp: Interpretation) -> MarkerScheme:
    """Plain ♣/□/◊ when unused by the interpretation, else the first
    level-indexed scheme that avoids its alphabets."""
    taken = interp.input_alphabet.letters | interp.output_alphabet.letters
    if not MarkerScheme.plain().tokens() & taken:
        return MarkerScheme.plain()
    for level in itertools.count(1):
        scheme = MarkerScheme.for_level(level)
        if not scheme.tokens() & taken:
            return scheme
    raise AssertionError("unreachable")


@record
class DecoratedInput:
    """A word u together with club counts p = (p0, ..., pn), one per gap:
    p[i] clubs sit right after letter i (p[0] before the first letter)."""

    u: Word
    p: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.p) != len(self.u) + 1:
            raise PsiError(
                f"need {len(self.u) + 1} club counts for a word of length "
                f"{len(self.u)}, got {len(self.p)}"
            )
        if any(entry < 0 for entry in self.p):
            raise PsiError("club counts must be non-negative")

    def decorate(self, club: str = "♣") -> Word:
        toks: list[str] = [club] * self.p[0]
        for i in range(1, len(self.u) + 1):
            toks.append(self.u[i])
            toks.extend([club] * self.p[i])
        return Word(tuple(toks))

    @staticmethod
    def undecorate(w: Word, club: str = "♣") -> "DecoratedInput":
        letters: list[str] = []
        counts = [0]
        for tok in w:
            if tok == club:
                counts[-1] += 1
            else:
                letters.append(tok)
                counts.append(0)
        return DecoratedInput(Word(tuple(letters)), tuple(counts))


def enumerate_decorated(
    alphabet: Alphabet, max_len: int, max_entry: int
) -> Iterator[DecoratedInput]:
    """All decorated inputs with |u| <= max_len and every club count
    <= max_entry, in a stable order."""
    letters = sorted(alphabet.letters)
    for n in range(max_len + 1):
        for toks in itertools.product(letters, repeat=n):
            u = Word(toks)
            for counts in itertools.product(range(max_entry + 1), repeat=n + 1):
                yield DecoratedInput(u, counts)


# -- the lift ------------------------------------------------------------------


def _last_plain_at_most(club: str, xhat: str, x: str, z: str) -> Formula:
    """xhat is the greatest club-free position <= x."""
    return And(
        (
            Leq(xhat, x),
            Not(Letter(club, xhat)),
            Forall(z, Implies(And((Not(Leq(z, xhat)), Leq(z, x))), Letter(club, z))),
        )
    )


def psi(interp: Interpretation, scheme: MarkerScheme | None = None) -> Interpretation:
    if interp.dim != 2:
        raise PsiError(f"the lift is defined for dimension 2, got {interp.dim}")
    if scheme is None:
        scheme = fresh_scheme(interp)
    taken = interp.input_alphabet.letters | interp.output_alphabet.letters
    clash = scheme.tokens() & taken
    if clash:
        raise PsiError(f"marker tokens {sorted(clash)} collide with the interpretation")
    club = scheme.club

    def plain(var: str) -> Formula:
        return Not(Letter(club, var))

    rel = {c: relativize(f, club) for c, f in interp.letter_formulas.items()}
    in_domain = disj(*(rel[c] for c in sorted(rel)))

    letter_formulas: dict[str, Formula] = {}
    for c in interp.output_alphabet:
        letter_formulas[c] = And((plain("x1"), plain("x2"), rel[c]))
    # A box at a club of x1's block, a diamond at a club of x2's: xh is the
    # position the block follows, and (xh1, x2) or (x1, xh2) is in the domain.
    for token, var, z in ((scheme.box, "x1", "z5"), (scheme.diamond, "x2", "z6")):
        hat = var.replace("x", "xh")
        marks = tuple(Letter(club, v) if v == var else plain(v) for v in ("x1", "x2"))
        found = And((_last_plain_at_most(club, hat, var, z), substitute(in_domain, {var: hat})))
        letter_formulas[token] = And((*marks, Exists(hat, found)))

    rel_order = substitute(
        relativize(interp.order_formula, club),
        {"x1": "xh1", "x2": "xh2", "y1": "yh1", "y2": "yh2"},
    )
    same_hats = And((Eq("xh1", "yh1"), Eq("xh2", "yh2")))
    group_tiebreak = Or(
        (strict_less("x2", "y2"), And((Eq("x2", "y2"), Leq("x1", "y1"))))
    )
    core = Or(
        (
            And((Not(same_hats), rel_order)),
            And((same_hats, group_tiebreak)),
        )
    )
    order = core
    hats = (("yh2", "y2", "z4"), ("yh1", "y1", "z3"), ("xh2", "x2", "z2"), ("xh1", "x1", "z1"))
    for hat, var, z in hats:
        order = Exists(hat, And((_last_plain_at_most(club, hat, var, z), order)))

    return Interpretation(
        dim=2,
        input_alphabet=interp.input_alphabet | Alphabet.of(club),
        output_alphabet=interp.output_alphabet | Alphabet.of(scheme.box, scheme.diamond),
        letter_formulas=letter_formulas,
        order_formula=order,
        name=f"psi({interp.name})" if interp.name else None,
    )


# -- independent reference ------------------------------------------------------


def fprime_oracle(
    interp: Interpretation, dec: DecoratedInput, scheme: MarkerScheme | None = None
) -> Word:
    """What the lift must produce, computed without its formulas: run the
    base interpretation on u and splice box/diamond runs after each output
    letter according to its origin pair."""
    if scheme is None:
        scheme = fresh_scheme(interp)
    annotated = eval_interp(interp, dec.u)
    toks: list[str] = []
    for letter, origin in annotated:
        i, j = origin
        toks.append(letter)
        toks.extend([scheme.box] * dec.p[i])
        toks.extend([scheme.diamond] * dec.p[j])
    return Word(tuple(toks))


# -- iterated lifts --------------------------------------------------------------


def family(k: int) -> Interpretation:
    """The k-th member of the squaring family: k-1 lifts applied to the
    squaring interpretation, with level-indexed markers."""
    if k < 1:
        raise PsiError(f"family levels start at 1, got {k}")
    result = builtin_interp("squaring-family")
    for level in range(1, k):
        result = psi(result, MarkerScheme.for_level(level))
    return result


def family_markers(k: int) -> tuple[MarkerScheme, ...]:
    return tuple(MarkerScheme.for_level(level) for level in range(1, k))


def dcomplete_witness(u: Word) -> DecoratedInput:
    """The decoration p = (0, 1, ..., n): block counts grow with position,
    so distinct origin pairs yield distinct marker blocks."""
    return DecoratedInput(u, tuple(range(len(u) + 1)))
