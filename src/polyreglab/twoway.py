"""Deterministic two-way transducers with origin tracking.

The tape is the input word between two endmarkers (spelled ``<`` and ``>``
in files and in transition tables).  A machine halts when it enters an
accepting state; it must never move past an endmarker, and it may not
emit output while reading one.  Every emitted letter records the head
position it was produced at.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .records import field, record
from .registry import Registry
from .words import Alphabet, OriginWord, Word, marked_alphabet

LEFT_END = "<"
RIGHT_END = ">"
MOVES = ("L", "S", "R")

Transition = tuple[str, str, tuple[str, ...]]  # next state, move, output tokens
# next row offset (None: accepting), head delta, output tokens, and the
# (state, endmarker) pair when the transition emits on an endmarker
TableEntry = tuple[int | None, int, tuple[str, ...], tuple[str, str] | None]


class TransducerError(ValueError):
    pass


class NonTerminationError(RuntimeError):
    """A (state, head) configuration repeated, so the run never halts."""

    def __init__(self, state: str, head: int, steps: int):
        super().__init__(f"configuration ({state}, {head}) repeats after {steps} steps")
        self.state = state
        self.head = head
        self.steps = steps


class EmitOnEndmarkerError(RuntimeError):
    """A transition tried to produce output while reading an endmarker."""

    def __init__(self, state: str, symbol: str):
        super().__init__(f"state {state!r} emits while reading endmarker {symbol!r}")
        self.state = state
        self.symbol = symbol


@record(eq=False)
class TwoWayTransducer:
    states: frozenset[str]
    initial: str
    accepting: frozenset[str]
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    transitions: Mapping[tuple[str, str], Transition]
    name: str | None = None
    # Integer tables for ``run``, built by ``__post_init__``.
    _letter_ids: dict[str, int] = field(init=False, repr=False)
    _live: tuple[str, ...] = field(init=False, repr=False)
    _table: list[TableEntry] = field(init=False, repr=False)
    _start: int | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.initial not in self.states:
            raise TransducerError(f"initial state {self.initial!r} not a state")
        if not self.accepting <= self.states:
            raise TransducerError("accepting states must be states")
        if LEFT_END in self.input_alphabet or RIGHT_END in self.input_alphabet:
            raise TransducerError("the endmarkers cannot be input letters")
        # Integer coding for ``run``: symbol 0 is LEFT_END, 1 is RIGHT_END,
        # then the input letters; a live (non-accepting) state is its row's
        # offset ``state_id * n_symbols`` into one flat table, and None
        # stands for every accepting state.
        letter_ids = {tok: i for i, tok in enumerate(self.input_alphabet, 2)}
        symbol_ids = {LEFT_END: 0, RIGHT_END: 1, **letter_ids}
        live = sorted(self.states - self.accepting)
        n_symbols = len(symbol_ids)
        offsets = {state: i * n_symbols for i, state in enumerate(live)}
        table: list[TableEntry | None] = [None] * (len(live) * n_symbols)
        for (state, symbol), (nxt, move, out) in self.transitions.items():
            if state not in self.states or nxt not in self.states:
                raise TransducerError(f"transition on unknown state: {state!r} -> {nxt!r}")
            if state in self.accepting:
                raise TransducerError(f"accepting state {state!r} is halting, drop its transitions")
            if symbol not in symbol_ids:
                raise TransducerError(f"transition on unknown symbol {symbol!r}")
            if move not in MOVES:
                raise TransducerError(f"bad move {move!r}")
            if symbol == LEFT_END and move == "L":
                raise TransducerError(f"state {state!r} moves left on {LEFT_END}")
            if symbol == RIGHT_END and move == "R":
                raise TransducerError(f"state {state!r} moves right on {RIGHT_END}")
            for tok in out:
                if tok not in self.output_alphabet:
                    raise TransducerError(f"output symbol {tok!r} not in output alphabet")
            fault = (state, symbol) if out and symbol in (LEFT_END, RIGHT_END) else None
            entry = (offsets.get(nxt), MOVES.index(move) - 1, tuple(out), fault)
            table[offsets[state] + symbol_ids[symbol]] = entry
        for state in live:
            for symbol, symbol_id in symbol_ids.items():
                if table[offsets[state] + symbol_id] is None:
                    raise TransducerError(f"missing transition for ({state!r}, {symbol!r})")
        object.__setattr__(self, "_letter_ids", letter_ids)
        object.__setattr__(self, "_live", tuple(live))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_start", offsets.get(self.initial))


def run(machine: TwoWayTransducer, w: Word) -> OriginWord:
    """Run to acceptance, returning the origin-annotated output.

    The machine is deterministic and a live configuration is a (state,
    head) pair, so a run that takes more than |live states|*(|w|+2) steps
    has repeated one and never halts.  Only such a run is replayed, to
    report its first repeat."""
    try:
        tape = [0, *map(machine._letter_ids.__getitem__, w.tokens), 1]
    except KeyError:
        w.alphabet_check(machine.input_alphabet)
        raise
    table = machine._table
    idx = machine._start
    head = 0
    out: list[tuple[str, tuple[int, ...]]] = []
    if idx is not None:
        for _ in range(len(machine._live) * len(tape)):
            idx, delta, emitted, fault = table[idx + tape[head]]
            if emitted:
                if fault:
                    raise EmitOnEndmarkerError(*fault)
                for tok in emitted:
                    out.append((tok, (head,)))
            if idx is None:
                break
            head += delta
        else:
            raise _first_repeat(machine, tape)
    return OriginWord(tuple(out))


def _first_repeat(machine: TwoWayTransducer, tape: list[int]) -> NonTerminationError:
    """Replay a run that outlived the step bound, recording configurations,
    up to its first repeated one.  Every step before that repeat was taken
    within the bound without halting or emitting on an endmarker."""
    table = machine._table
    seen: set[tuple[int, int]] = set()
    idx, head, steps = machine._start, 0, 0
    while (idx, head) not in seen:
        seen.add((idx, head))
        idx, delta, _emitted, _fault = table[idx + tape[head]]
        head += delta
        steps += 1
    return NonTerminationError(machine._live[idx // (len(machine._letter_ids) + 2)], head, steps)


# -- regular functions -----------------------------------------------------


@record(eq=False)
class RegularFn:
    """A string-to-string function of linear growth, normally backed by a
    two-way transducer.  ``growth_constant`` bounds |f(w)| <= C * |w|;
    ``reference`` is a directly-written description of the same function,
    kept for cross-checking."""

    name: str
    input_alphabet: Alphabet
    output_alphabet: Alphabet
    growth_constant: int
    transducer: TwoWayTransducer | None = None
    func: Callable[[Word], OriginWord] | None = None
    reference: Callable[[Word], Word] | None = None

    def __post_init__(self) -> None:
        if (self.transducer is None) == (self.func is None):
            raise TransducerError("back a RegularFn with a transducer or a callable, not both")

    def __call__(self, w: Word) -> OriginWord:
        if self.transducer is not None:
            return run(self.transducer, w)
        assert self.func is not None
        return self.func(w)


@record(eq=False)
class ComposedFn:
    """Semantic composition outer(inner(w)), evaluated on demand.  Origins
    are composed: a letter traces through the intermediate word back to a
    position of the original input."""

    outer: RegularFn
    inner: RegularFn

    def __post_init__(self) -> None:
        if not self.inner.output_alphabet.issubset(self.outer.input_alphabet):
            raise TransducerError(
                f"cannot compose: {self.inner.name} outputs over "
                f"{{{self.inner.output_alphabet.render()}}} but {self.outer.name} reads "
                f"{{{self.outer.input_alphabet.render()}}}"
            )

    @property
    def name(self) -> str:
        return f"{self.outer.name}.{self.inner.name}"

    @property
    def input_alphabet(self) -> Alphabet:
        return self.inner.input_alphabet

    @property
    def output_alphabet(self) -> Alphabet:
        return self.outer.output_alphabet

    def __call__(self, w: Word) -> OriginWord:
        mid = self.inner(w)
        final = self.outer(mid.word())
        relabeled = tuple(
            (tok, mid.letters[pos[0] - 1][1]) for tok, pos in final.letters
        )
        return OriginWord(relabeled)


def compose_semantic(outer: RegularFn, inner: RegularFn) -> ComposedFn:
    return ComposedFn(outer, inner)


# -- file format -------------------------------------------------------------


def render_transducer(machine: TwoWayTransducer) -> str:
    lines = []
    if machine.name:
        lines.append(f"name {machine.name}")
    lines.append("states " + " ".join(sorted(machine.states)))
    lines.append(f"init {machine.initial}")
    lines.append("accept " + " ".join(sorted(machine.accepting)))
    lines.append("input " + machine.input_alphabet.render())
    lines.append("output " + machine.output_alphabet.render())
    for (state, symbol) in sorted(machine.transitions):
        nxt, move, out = machine.transitions[(state, symbol)]
        line = f"{state} {symbol} -> {nxt} {move}"
        if out:
            line += " " + " ".join(out)
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_transducer(text: str) -> TwoWayTransducer:
    name: str | None = None
    headers: dict[str, list[str]] = {}
    transitions: dict[tuple[str, str], Transition] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        parts = line.split()
        if parts[0] == "name" and "name" not in headers:
            name = parts[1] if len(parts) > 1 else None
            headers["name"] = parts[1:]
            continue
        if parts[0] in ("states", "init", "accept", "input", "output") and parts[0] not in headers:
            headers[parts[0]] = parts[1:]
            continue
        if "->" not in parts:
            raise TransducerError(f"bad line: {line!r}")
        arrow = parts.index("->")
        if arrow != 2 or len(parts) < arrow + 3:
            raise TransducerError(f"bad transition line: {line!r}")
        state, symbol = parts[0], parts[1]
        nxt, move = parts[3], parts[4]
        out = tuple(parts[5:])
        if (state, symbol) in transitions:
            raise TransducerError(f"duplicate transition for ({state!r}, {symbol!r})")
        transitions[(state, symbol)] = (nxt, move, out)
    for needed in ("states", "init", "accept", "input", "output"):
        if needed not in headers:
            raise TransducerError(f"missing header line {needed!r}")
    if len(headers["init"]) != 1:
        raise TransducerError("init header needs exactly one state")
    return TwoWayTransducer(
        states=frozenset(headers["states"]),
        initial=headers["init"][0],
        accepting=frozenset(headers["accept"]),
        input_alphabet=Alphabet.of(*headers["input"]),
        output_alphabet=Alphabet.of(*headers["output"]),
        transitions=transitions,
        name=name,
    )


# -- builtins ----------------------------------------------------------------

PEBBLE_MARK = "•"


def _table(rows: Iterable[tuple[str, str, str, str, tuple[str, ...]]]):
    return {(state, symbol): (nxt, move, out) for state, symbol, nxt, move, out in rows}


def _block_marker() -> RegularFn:
    """One pass: a pebble-mark at the first letter of every nonempty block,
    a # for every #."""
    rows = [
        ("fresh", LEFT_END, "fresh", "R", ()),
        ("fresh", "a", "inblock", "R", (PEBBLE_MARK,)),
        ("fresh", "b", "inblock", "R", (PEBBLE_MARK,)),
        ("fresh", "#", "fresh", "R", ("#",)),
        ("fresh", RIGHT_END, "done", "S", ()),
        ("inblock", LEFT_END, "fresh", "R", ()),
        ("inblock", "a", "inblock", "R", ()),
        ("inblock", "b", "inblock", "R", ()),
        ("inblock", "#", "fresh", "R", ("#",)),
        ("inblock", RIGHT_END, "done", "S", ()),
    ]
    machine = TwoWayTransducer(
        states=frozenset(("fresh", "inblock", "done")),
        initial="fresh",
        accepting=frozenset(("done",)),
        input_alphabet=Alphabet.of("a", "b", "#"),
        output_alphabet=Alphabet.of(PEBBLE_MARK, "#"),
        transitions=_table(rows),
        name="block-marker",
    )

    def reference(w: Word) -> Word:
        out = []
        at_start = True
        for tok in w:
            if tok == "#":
                out.append("#")
                at_start = True
            else:
                if at_start:
                    out.append(PEBBLE_MARK)
                at_start = False
        return Word(tuple(out))

    return RegularFn(
        name="block-marker",
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        growth_constant=1,
        transducer=machine,
        reference=reference,
    )


def _hash_counter() -> RegularFn:
    """One pebble-mark per # of the input (underlined #s count too).  The
    input alphabet is wide on purpose: this head runs on marked words and
    composes after block-marker."""
    base = Alphabet.of("a", "b", "#", PEBBLE_MARK)
    alphabet = marked_alphabet(base)
    rows = [("count", LEFT_END, "count", "R", ()), ("count", RIGHT_END, "done", "S", ())]
    for tok in alphabet:
        out = (PEBBLE_MARK,) if tok in ("#", "_#") else ()
        rows.append(("count", tok, "count", "R", out))
    machine = TwoWayTransducer(
        states=frozenset(("count", "done")),
        initial="count",
        accepting=frozenset(("done",)),
        input_alphabet=alphabet,
        output_alphabet=Alphabet.of(PEBBLE_MARK),
        transitions=_table(rows),
        name="hash-counter",
    )

    def reference(w: Word) -> Word:
        k = w.count("#") + w.count("_#")
        return Word((PEBBLE_MARK,) * k)

    return RegularFn(
        name="hash-counter",
        input_alphabet=alphabet,
        output_alphabet=machine.output_alphabet,
        growth_constant=1,
        transducer=machine,
        reference=reference,
    )


def _marked_block_copy() -> RegularFn:
    """Copy out the letter block starting at the underlined letter: the
    marked letter itself, then the following letters up to the next # (or
    the end).  No underlined letter, or a mark on a #: empty output."""
    alphabet = marked_alphabet(Alphabet.of("a", "b", "#"))
    rows = [
        ("seek", LEFT_END, "seek", "R", ()),
        ("seek", "a", "seek", "R", ()),
        ("seek", "b", "seek", "R", ()),
        ("seek", "#", "seek", "R", ()),
        ("seek", "_a", "emit", "R", ("a",)),
        ("seek", "_b", "emit", "R", ("b",)),
        ("seek", "_#", "done", "S", ()),
        ("seek", RIGHT_END, "done", "S", ()),
        ("emit", "a", "emit", "R", ("a",)),
        ("emit", "b", "emit", "R", ("b",)),
        ("emit", "#", "done", "S", ()),
        ("emit", "_a", "done", "S", ()),
        ("emit", "_b", "done", "S", ()),
        ("emit", "_#", "done", "S", ()),
        ("emit", LEFT_END, "seek", "R", ()),
        ("emit", RIGHT_END, "done", "S", ()),
    ]
    machine = TwoWayTransducer(
        states=frozenset(("seek", "emit", "done")),
        initial="seek",
        accepting=frozenset(("done",)),
        input_alphabet=alphabet,
        output_alphabet=Alphabet.of("a", "b"),
        transitions=_table(rows),
        name="marked-block-copy",
    )

    def reference(w: Word) -> Word:
        out: list[str] = []
        copying = False
        for tok in w:
            if copying:
                if tok in ("a", "b"):
                    out.append(tok)
                else:
                    break
            elif tok in ("_a", "_b"):
                out.append(tok[1:])
                copying = True
            elif tok == "_#":
                break
        return Word(tuple(out))

    return RegularFn(
        name="marked-block-copy",
        input_alphabet=alphabet,
        output_alphabet=machine.output_alphabet,
        growth_constant=1,
        transducer=machine,
        reference=reference,
    )


def _reverse_blocks_ab() -> RegularFn:
    """a^m0 # ... # a^mn  becomes  a^mn b^mn # ... # a^m0 b^m0, blocks
    visited right to left, each block swept twice (an a-pass then a
    b-pass), separators emitted in between."""
    rows = [
        ("scan", LEFT_END, "scan", "R", ()),
        ("scan", "a", "scan", "R", ()),
        ("scan", "#", "scan", "R", ()),
        ("scan", RIGHT_END, "find", "L", ()),
        ("find", "a", "find", "L", ()),
        ("find", "#", "emit-a", "R", ()),
        ("find", LEFT_END, "emit-a", "R", ()),
        ("find", RIGHT_END, "find", "L", ()),
        ("emit-a", "a", "emit-a", "R", ("a",)),
        ("emit-a", "#", "back", "L", ()),
        ("emit-a", RIGHT_END, "back", "L", ()),
        ("emit-a", LEFT_END, "emit-a", "R", ()),
        ("back", "a", "back", "L", ()),
        ("back", "#", "emit-b", "R", ()),
        ("back", LEFT_END, "emit-b", "R", ()),
        ("back", RIGHT_END, "back", "L", ()),
        ("emit-b", "a", "emit-b", "R", ("b",)),
        ("emit-b", "#", "skip", "L", ()),
        ("emit-b", RIGHT_END, "skip", "L", ()),
        ("emit-b", LEFT_END, "emit-b", "R", ()),
        ("skip", "a", "skip", "L", ()),
        ("skip", "#", "find", "L", ("#",)),
        ("skip", LEFT_END, "done", "S", ()),
        ("skip", RIGHT_END, "skip", "L", ()),
    ]
    machine = TwoWayTransducer(
        states=frozenset(("scan", "find", "emit-a", "back", "emit-b", "skip", "done")),
        initial="scan",
        accepting=frozenset(("done",)),
        input_alphabet=Alphabet.of("a", "#"),
        output_alphabet=Alphabet.of("a", "b", "#"),
        transitions=_table(rows),
        name="reverse-blocks-ab",
    )

    def reference(w: Word) -> Word:
        blocks = w.render().split("#") if len(w) else [""]
        parts = ["a" * len(b) + "b" * len(b) for b in reversed(blocks)]
        return Word.parse("#".join(parts))

    return RegularFn(
        name="reverse-blocks-ab",
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        growth_constant=2,
        transducer=machine,
        reference=reference,
    )


def identity_fn(alphabet: Alphabet, name: str = "identity") -> RegularFn:
    """Copy the input, one sweep."""
    if not len(alphabet):
        raise TransducerError("identity needs a non-empty alphabet")
    rows = [("copy", LEFT_END, "copy", "R", ()), ("copy", RIGHT_END, "done", "S", ())]
    for tok in alphabet:
        rows.append(("copy", tok, "copy", "R", (tok,)))
    machine = TwoWayTransducer(
        states=frozenset(("copy", "done")),
        initial="copy",
        accepting=frozenset(("done",)),
        input_alphabet=alphabet,
        output_alphabet=alphabet,
        transitions=_table(rows),
        name=name,
    )
    return RegularFn(
        name=name,
        input_alphabet=alphabet,
        output_alphabet=alphabet,
        growth_constant=1,
        transducer=machine,
        reference=lambda w: w,
    )


def erasing_fn(alphabet: Alphabet, delta: Alphabet, name: str | None = None) -> RegularFn:
    """Copy the input, dropping the letters of ``delta``."""
    kept = Alphabet(alphabet.letters - delta.letters)
    if not len(kept):
        raise TransducerError("erasing everything leaves no output alphabet")
    rows = [("copy", LEFT_END, "copy", "R", ()), ("copy", RIGHT_END, "done", "S", ())]
    for tok in alphabet:
        out = () if tok in delta else (tok,)
        rows.append(("copy", tok, "copy", "R", out))
    fn_name = name or f"erase-{'-'.join(sorted(delta.letters))}"
    machine = TwoWayTransducer(
        states=frozenset(("copy", "done")),
        initial="copy",
        accepting=frozenset(("done",)),
        input_alphabet=alphabet,
        output_alphabet=kept,
        transitions=_table(rows),
        name=fn_name,
    )

    def reference(w: Word) -> Word:
        return Word(tuple(tok for tok in w if tok not in delta))

    return RegularFn(
        name=fn_name,
        input_alphabet=alphabet,
        output_alphabet=kept,
        growth_constant=1,
        transducer=machine,
        reference=reference,
    )


def bouncing_machine() -> TwoWayTransducer:
    """A two-state machine over {a} that shuttles forever; the runner's
    repeat detection is its only way out.  Not a function, so not part of
    the builtin registry."""
    rows = [
        ("ping", LEFT_END, "ping", "R", ()),
        ("ping", "a", "pong", "R", ()),
        ("ping", RIGHT_END, "ping", "S", ()),
        ("pong", "a", "ping", "L", ()),
        ("pong", LEFT_END, "ping", "R", ()),
        ("pong", RIGHT_END, "ping", "L", ()),
    ]
    return TwoWayTransducer(
        states=frozenset(("ping", "pong")),
        initial="ping",
        accepting=frozenset(),
        input_alphabet=Alphabet.of("a"),
        output_alphabet=Alphabet.of("a"),
        transitions=_table(rows),
        name="bouncer",
    )


def _parse_regular_fn(text: str, name: str, _dir: str) -> RegularFn:
    """The function of a ``.2dft`` file; ``name`` is the fallback when the
    file does not name its machine."""
    machine = parse_transducer(text)
    return RegularFn(
        name=machine.name or name,
        input_alphabet=machine.input_alphabet,
        output_alphabet=machine.output_alphabet,
        growth_constant=len(machine.states),
        transducer=machine,
    )


regular_fns = Registry(
    "2dft",
    "regular function",
    ".2dft",
    {
        "block-marker": _block_marker,
        "hash-counter": _hash_counter,
        "marked-block-copy": _marked_block_copy,
        "reverse-blocks-ab": _reverse_blocks_ab,
    },
    _parse_regular_fn,
)
builtin_regular_fns = regular_fns.names
builtin_regular_fn = regular_fns.builtin
