"""First-order interpretations of words in words.

An interpretation of dimension d sends a word u to the word whose letters
are the d-tuples of positions of u on which some output-letter formula
holds, arranged by the order formula.  If the letter formulas overlap on a
tuple, or the order formula fails to order the selected tuples linearly,
the result is the empty word and a diagnostic says why.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Mapping, Sequence

from . import sexpr
from .logic import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    FormulaEvaluator,
    FormulaPlan,
    Implies,
    Leq,
    Letter,
    Max,
    Not,
    Or,
    RowSpace,
    bit_flags,
    free_vars,
    from_sexpr,
    letters_used,
    strict_less,
    to_sexpr,
)
from .records import record
from .registry import Registry
from .words import Alphabet, OriginWord, Word


class InterpError(ValueError):
    pass


def _var_names(prefix: str, dim: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(1, dim + 1))


@record(eq=False)
class Interpretation:
    dim: int
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    letter_formulas: Mapping[str, Formula]
    order_formula: Formula
    name: str | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise InterpError(f"dimension must be positive, got {self.dim}")
        if set(self.letter_formulas) != set(self.output_alphabet.letters):
            raise InterpError("letter formulas must cover the output alphabet exactly")
        xs = set(_var_names("x", self.dim))
        for letter, formula in self.letter_formulas.items():
            if free_vars(formula) != xs:
                raise InterpError(
                    f"letter formula for {letter!r} must have free variables "
                    f"{sorted(xs)}, has {sorted(free_vars(formula))}"
                )
            self._check_predicates(formula)
        expected = xs | set(_var_names("y", self.dim))
        if free_vars(self.order_formula) != expected:
            raise InterpError(
                f"order formula must have free variables {sorted(expected)}, "
                f"has {sorted(free_vars(self.order_formula))}"
            )
        self._check_predicates(self.order_formula)

    def _check_predicates(self, formula: Formula) -> None:
        stray = letters_used(formula) - self.input_alphabet.letters
        if stray:
            raise InterpError(f"formula uses letters outside the input alphabet: {sorted(stray)}")

    def tuple_vars(self) -> tuple[str, ...]:
        return _var_names("x", self.dim)

    @functools.cached_property
    def letters_plan(self) -> FormulaPlan:
        """One plan of all letter formulas, in the order of
        ``letter_formulas``, with the x variables as rows: a query answers
        one mask per letter, and the letters share their common units."""
        return FormulaPlan(tuple(self.letter_formulas.values()), (), self.tuple_vars())

    @functools.cached_property
    def order_plan(self) -> FormulaPlan:
        """The order formula's plan: x variables as rows, y variables scalar."""
        return FormulaPlan(self.order_formula, _var_names("y", self.dim), self.tuple_vars())


# -- domain and order ----------------------------------------------------


@record(slots=True)
class InterpDomain:
    """The selected tuples of one evaluation, as masks over ``space``, the
    product space of all dim-tuples of the word's positions in increasing
    order (see ``RowSpace``): ``masks`` maps each output letter to
    the mask of the tuples on which its formula holds.  Normally no two
    letters hold on one tuple; ``overlap`` finds the first that does."""

    space: RowSpace
    masks: Mapping[str, int]

    def selected(self) -> int:
        """The mask of the tuples on which some letter holds."""
        return functools.reduce(operator.or_, self.masks.values(), 0)

    def overlap(self) -> tuple[tuple[int, ...], list[str]] | None:
        """The first tuple on which several letters hold, and those letters
        sorted, or None: the lowest bit set in some two letters' masks."""
        both = 0
        for x, y in itertools.combinations(self.masks.values(), 2):
            both |= x & y
        if not both:
            return None
        low = both & -both
        (tup,) = self.space.rows_at(low)
        return tup, sorted(c for c, mask in self.masks.items() if mask & low)

    def letter_at_bit(self) -> dict[int, str]:
        """The letter of each selected tuple, by the tuple's bit, when no
        two letters hold on one tuple: one ``dict.fromkeys`` per letter
        over the set bits of its mask."""
        letter_at: dict[int, str] = {}
        for c, mask in self.masks.items():
            bits = itertools.compress(itertools.count(), bit_flags(mask))
            letter_at.update(dict.fromkeys(bits, c))
        return letter_at


def compute_domain(interp: Interpretation, u: Word) -> InterpDomain:
    """One query of the interpretation's letters plan bound to ``u``, over
    the product space of all n^dim tuples as rows: it answers every letter's
    mask at once, and the letter formulas share their tables and units."""
    u.alphabet_check(interp.input_alphabet)
    space = RowSpace(u, interp.dim)
    letters = interp.letter_formulas
    if not u:
        return InterpDomain(space, dict.fromkeys(letters, 0))
    masks = FormulaEvaluator(interp.letters_plan, space).at(())
    return InterpDomain(space, dict(zip(letters, masks)))


@record(slots=True)
class OrderViolation:
    kind: str  # reflexivity | antisymmetry | comparability | transitivity
    tuples: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        shown = ", ".join(str(t) for t in self.tuples)
        return f"{self.kind} violated on {shown}"


@record(slots=True)
class OrderCheck:
    """The verdict of ``check_linear_order``: when ``ok``, the selected
    tuples in the order's sequence and the bit of each over the space."""

    ok: bool
    sorted_tuples: tuple[tuple[int, ...], ...] = ()
    violation: OrderViolation | None = None
    bits: tuple[int, ...] = ()


def check_linear_order(selected: int, interp: Interpretation, space: RowSpace) -> OrderCheck:
    """Is the order formula a linear (reflexive, total) order on the rows
    of ``space``, the product space of the word (see ``RowSpace``), whose
    bits are set in ``selected``?

    The mask is decoded once, into its bits by ``bit_flags`` and its rows
    by ``rows_at``, in increasing order; that order decides only which
    violation a failed check names.  One query per selected row t, from the
    interpretation's order plan bound to ``space``, with the x variables
    bound to each row: ANDed with ``selected``, its bit for row s says
    s <= t.  Ranked by predecessor count, the relation is the ranking's
    linear order exactly when each row's mask holds itself and the rows
    ranked below it, and nothing else.
    """
    if not selected:
        return OrderCheck(True)
    bits = list(itertools.compress(itertools.count(), bit_flags(selected)))
    rows = space.rows_at(selected)
    at = FormulaEvaluator(interp.order_plan, space).at
    masks = [at(t) & selected for t in rows]
    ranked = sorted(range(len(rows)), key=lambda j: masks[j].bit_count())
    below = 0
    for j in ranked:
        below |= 1 << bits[j]
        if masks[j] != below:
            # Bit i of a row's mask over the selected rows is bit bits[i] over the space.
            masks = [sum((mask >> b & 1) << i for i, b in enumerate(bits)) for mask in masks]
            return OrderCheck(False, (), _order_violation(rows, masks))
    return OrderCheck(True, tuple(rows[j] for j in ranked), bits=tuple(bits[j] for j in ranked))


def _order_violation(tuples: Sequence[tuple[int, ...]], masks: list[int]) -> OrderViolation:
    """Name a property that the relation given by ``masks`` breaks."""
    for j, mask in enumerate(masks):
        if not mask >> j & 1:
            return OrderViolation("reflexivity", (tuples[j],))
    for i, j in itertools.combinations(range(len(tuples)), 2):
        forward, backward = masks[j] >> i & 1, masks[i] >> j & 1
        if forward == backward:
            kind = "antisymmetry" if forward else "comparability"
            return OrderViolation(kind, (tuples[i], tuples[j]))
    # A reflexive tournament that is not a linear order repeats a predecessor
    # count (Landau).  If s <= t with equal counts, t's mask holds t but s's
    # does not, so s's mask holds some w that t's lacks: w <= s <= t, w !<= t.
    counts = [mask.bit_count() for mask in masks]
    s, t = next(
        (s, t)
        for s, t in itertools.permutations(range(len(tuples)), 2)
        if counts[s] == counts[t] and masks[t] >> s & 1
    )
    w = (masks[s] & ~masks[t]).bit_length() - 1
    return OrderViolation("transitivity", (tuples[w], tuples[s], tuples[t]))


# -- evaluation ----------------------------------------------------------


@record(slots=True)
class InterpDiagnostic:
    kind: str  # letter-overlap | order-not-linear
    detail: str
    tuples: tuple[tuple[int, ...], ...] = ()
    letters: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "tuples": [list(t) for t in self.tuples],
            "letters": list(self.letters),
        }


@record(slots=True)
class InterpResult:
    output: OriginWord
    diagnostic: InterpDiagnostic | None = None

    def word(self) -> Word:
        return self.output.word()


def eval_interp_details(interp: Interpretation, u: Word) -> InterpResult:
    domain = compute_domain(interp, u)
    overlap = domain.overlap()
    if overlap is not None:
        tup, holds = overlap
        diag = InterpDiagnostic(
            "letter-overlap", f"letters {holds} all hold on {tup}", (tup,), tuple(holds)
        )
        return InterpResult(OriginWord(), diag)
    check = check_linear_order(domain.selected(), interp, domain.space)
    if not check.ok:
        assert check.violation is not None
        diag = InterpDiagnostic(
            "order-not-linear", check.violation.render(), check.violation.tuples
        )
        return InterpResult(OriginWord(), diag)
    letters = map(domain.letter_at_bit().__getitem__, check.bits)
    output = OriginWord(tuple(zip(letters, check.sorted_tuples)))
    assert len(output) <= len(u) ** interp.dim
    return InterpResult(output)


def eval_interp(interp: Interpretation, u: Word) -> OriginWord:
    """The interpretation's output on ``u`` with origins; empty (with the
    reason available via ``eval_interp_details``) when the structure the
    formulas carve out is not a word."""
    return eval_interp_details(interp, u).output


# -- file format ----------------------------------------------------------


def render_interp(interp: Interpretation) -> str:
    lines = [
        f"dim {interp.dim}",
        "input-alphabet " + interp.input_alphabet.render(),
        "output-alphabet " + interp.output_alphabet.render(),
    ]
    for letter in sorted(interp.letter_formulas):
        block = ["letter", letter, to_sexpr(interp.letter_formulas[letter])]
        lines.append(sexpr.render(block))
    lines.append(sexpr.render(["order", to_sexpr(interp.order_formula)]))
    return "\n".join(lines) + "\n"


def parse_interp(text: str, name: str | None = None) -> Interpretation:
    header: dict[str, list[str]] = {}
    body_lines: list[str] = []
    in_body = False
    for raw in text.splitlines():
        line = raw.strip()
        if not in_body:
            if not line or line.startswith(";"):
                continue
            key = line.split()[0]
            if key in ("dim", "input-alphabet", "output-alphabet"):
                if key in header:
                    raise InterpError(f"duplicate header line {key!r}")
                header[key] = line.split()[1:]
                continue
            in_body = True
        body_lines.append(raw)
    missing = {"dim", "input-alphabet", "output-alphabet"} - set(header)
    if missing:
        raise InterpError(f"missing header lines: {sorted(missing)}")
    if len(header["dim"]) != 1 or not header["dim"][0].isdigit():
        raise InterpError("dim header needs a single integer")
    dim = int(header["dim"][0])
    input_alphabet = Alphabet.of(*header["input-alphabet"])
    output_alphabet = Alphabet.of(*header["output-alphabet"])
    letter_formulas: dict[str, Formula] = {}
    order_formula: Formula | None = None
    for block in sexpr.parse_all("\n".join(body_lines)):
        if not isinstance(block, list) or not block or not isinstance(block[0], str):
            raise InterpError(f"bad block {sexpr.render(block)}")
        if block[0] == "letter":
            if len(block) != 3 or not isinstance(block[1], str):
                raise InterpError("(letter c <formula>) block malformed")
            if block[1] in letter_formulas:
                raise InterpError(f"duplicate letter block for {block[1]!r}")
            letter_formulas[block[1]] = from_sexpr(block[2])
        elif block[0] == "order":
            if len(block) != 2:
                raise InterpError("(order <formula>) block malformed")
            if order_formula is not None:
                raise InterpError("duplicate order block")
            order_formula = from_sexpr(block[1])
        else:
            raise InterpError(f"unknown block {block[0]!r}")
    if order_formula is None:
        raise InterpError("missing (order ...) block")
    return Interpretation(dim, input_alphabet, output_alphabet, letter_formulas, order_formula, name)


# -- builtins --------------------------------------------------------------


def _squaring_family() -> Interpretation:
    x1, x2, y1, y2 = "x1", "x2", "y1", "y2"
    letter_a = And((Not(Max(x1)), Not(Max(x2))))
    letter_b = And((Not(Max(x1)), Max(x2)))
    order = Or((strict_less(x1, y1), And((Eq(x1, y1), Leq(x2, y2)))))
    return Interpretation(
        dim=2,
        input_alphabet=Alphabet.of("a"),
        output_alphabet=Alphabet.of("a", "b"),
        letter_formulas={"a": letter_a, "b": letter_b},
        order_formula=order,
        name="squaring-family",
    )


def _no_hash_up_to(z: str, x: str, t: str) -> Formula:
    """No # at a position p with z <= p < x (the left end included)."""
    inside = And((Leq(z, t), Leq(t, x), Not(Eq(t, x))))
    return Forall(t, Implies(inside, Not(Letter("#", t))))


def _pred_is_letter(z: str, s: str, r: str) -> Formula:
    """z has an immediate predecessor carrying a or b."""
    adjacent = Forall(r, Or((Leq(r, s), Leq(z, r))))
    return Exists(
        s,
        And((Leq(s, z), Not(Eq(s, z)), adjacent, Or((Letter("a", s), Letter("b", s))))),
    )


def _block_start(z: str, x: str, tag: str) -> Formula:
    """z begins the letter block that x belongs to (or that ends at x when
    x carries a #; for an empty block that is x itself)."""
    return And(
        (
            Leq(z, x),
            _no_hash_up_to(z, x, f"t{tag}"),
            Not(_pred_is_letter(z, f"s{tag}", f"r{tag}")),
        )
    )


def _innsq_interp() -> Interpretation:
    x1, x2, y1, y2 = "x1", "x2", "y1", "y2"
    letter_a = And((Letter("a", x1), Letter("#", x2)))
    letter_b = And((Letter("b", x1), Letter("#", x2)))
    letter_hash = And((Letter("#", x1), Max(x2)))
    # Tuples compare by (block start, copy index, position), lexicographically;
    # the existentials are arranged so block starts are resolved before the
    # remaining components are compared.
    hash_clause = And((Letter("#", y1), Leq(x1, y1)))
    earlier_block = Exists(
        "y3",
        And(
            (
                _block_start("y3", y1, "1"),
                Exists("x3", And((_block_start("x3", x1, "2"), strict_less("x3", "y3")))),
            )
        ),
    )
    same_block = Exists("z3", And((_block_start("z3", x1, "3"), _block_start("z3", y1, "4"))))
    within_block = Or((strict_less(x2, y2), And((Eq(x2, y2), Leq(x1, y1)))))
    order = Or((hash_clause, earlier_block, And((same_block, within_block))))
    return Interpretation(
        dim=2,
        input_alphabet=Alphabet.of("a", "b", "#"),
        output_alphabet=Alphabet.of("a", "b", "#"),
        letter_formulas={"a": letter_a, "b": letter_b, "#": letter_hash},
        order_formula=order,
        name="innsq-interp",
    )


def _cross_sort_demo() -> Interpretation:
    """A deliberately unsortable interpretation: its order compares a first
    component with a second component."""
    x1, x2, y1, y2 = "x1", "x2", "y1", "y2"
    letter_a = And((Letter("a", x1), Letter("a", x2)))
    order = And((Leq(x1, y2), Eq(x2, x2), Eq(y1, y1)))
    return Interpretation(
        dim=2,
        input_alphabet=Alphabet.of("a"),
        output_alphabet=Alphabet.of("a"),
        letter_formulas={"a": letter_a},
        order_formula=order,
        name="cross-sort-demo",
    )


interpretations = Registry(
    "interp",
    "interpretation",
    ".interp",
    {
        "squaring-family": _squaring_family,
        "innsq-interp": _innsq_interp,
        "cross-sort-demo": _cross_sort_demo,
    },
    lambda text, name, _dir: parse_interp(text, name),
)
builtin_interpretations = interpretations.names
builtin_interp = interpretations.builtin
