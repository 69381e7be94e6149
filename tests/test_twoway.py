import itertools
import random
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreglab.pebble import apply, builtin_polyfun
from polyreglab.twoway import (
    LEFT_END,
    MOVES,
    PEBBLE_MARK,
    RIGHT_END,
    EmitOnEndmarkerError,
    NonTerminationError,
    TransducerError,
    TwoWayTransducer,
    bouncing_machine,
    builtin_regular_fn,
    builtin_regular_fns,
    erasing_fn,
    identity_fn,
    parse_transducer,
    render_transducer,
    run,
)
from polyreglab.words import Alphabet, Word, WordError, mark_token

DATA = Path(__file__).parent / "data"


def _words_upto(alphabet, max_len):
    for n in range(max_len + 1):
        for toks in itertools.product(sorted(alphabet.letters), repeat=n):
            yield Word(toks)


def test_reverse_blocks_pinned():
    fn = builtin_regular_fn("reverse-blocks-ab")
    out = fn(Word.parse("aaa#aa"))
    assert out.word().render() == "aabb#aaabbb"
    assert out.origins() == (
        (5,), (6,), (5,), (6,), (4,), (1,), (2,), (3,), (1,), (2,), (3,)
    )


def test_reverse_blocks_more():
    fn = builtin_regular_fn("reverse-blocks-ab")
    cases = {
        "": "",
        "a": "ab",
        "#": "#",
        "##": "##",
        "a#": "#ab",
        "#a": "ab#",
        "aa#a": "ab#aabb",
    }
    for src, want in cases.items():
        assert fn(Word.parse(src)).word().render() == want, src


def test_builtins_on_empty_word():
    for name in builtin_regular_fns():
        assert builtin_regular_fn(name)(Word()).word() == Word()


def test_block_marker():
    fn = builtin_regular_fn("block-marker")
    assert fn(Word.parse("aba#baa#bb")).word().render() == "•#•#•"
    assert fn(Word.parse("###")).word().render() == "###"


def test_hash_counter_counts_marked_hashes_too():
    fn = builtin_regular_fn("hash-counter")
    w = Word(("a", "_#", "#", "b"))
    assert fn(w).word() == Word((PEBBLE_MARK, PEBBLE_MARK))


def test_marked_block_copy():
    fn = builtin_regular_fn("marked-block-copy")
    cases = [
        (("a", "b", "#", "_b", "a", "#", "b"), "ba"),
        (("_a", "a"), "aa"),
        (("a", "b"), ""),
        (("_#", "a"), ""),
    ]
    for toks, want in cases:
        assert fn(Word(toks)).word().render() == want


def test_reference_agreement():
    """The transducers compute the same functions as their direct
    descriptions, exhaustively over all short inputs."""
    for name in builtin_regular_fns():
        fn = builtin_regular_fn(name)
        assert fn.reference is not None
        size = len(fn.input_alphabet)
        max_len = max(n for n in range(1, 7) if size ** n <= 10_000)
        for w in _words_upto(fn.input_alphabet, max_len):
            assert fn(w).word() == fn.reference(w), (name, w.render())


def test_origins_point_into_input():
    for name in builtin_regular_fns():
        fn = builtin_regular_fn(name)
        for w in _words_upto(fn.input_alphabet, 3):
            for pos in fn(w).origins():
                assert len(pos) == 1 and 1 <= pos[0] <= len(w)


def test_growth_constant_bound():
    for name in builtin_regular_fns():
        fn = builtin_regular_fn(name)
        for w in _words_upto(fn.input_alphabet, 4):
            assert len(fn(w)) <= fn.growth_constant * len(w)


def test_bouncer_never_halts():
    machine = bouncing_machine()
    for n in range(0, 5):
        w = Word(("a",) * n)
        with pytest.raises(NonTerminationError) as exc:
            run(machine, w)
        assert exc.value.steps <= len(machine.states) * (n + 2)
        steps = 2 if n == 0 else 3
        assert str(exc.value) == f"configuration (ping, 1) repeats after {steps} steps"
        assert (exc.value.state, exc.value.head, exc.value.steps) == ("ping", 1, steps)


def test_run_rejects_symbols_outside_the_input_alphabet():
    machine = builtin_regular_fn("reverse-blocks-ab").transducer
    cases = {
        ("a", "<"): "symbol '<' not in alphabet {# a}",
        (">",): "symbol '>' not in alphabet {# a}",
        ("a", "#", "b", "<"): "symbol 'b' not in alphabet {# a}",
    }
    for toks, message in cases.items():
        with pytest.raises(WordError) as exc:
            run(machine, Word(toks))
        assert str(exc.value) == message


def test_run_that_uses_every_configuration_halts():
    """Sweep right in one state and left in another, so the run visits all
    2*(|w|+2) live configurations once: exactly the step bound."""
    rows = {
        ("right", LEFT_END): ("right", "R", ()),
        ("right", "a"): ("right", "R", ()),
        ("right", RIGHT_END): ("left", "S", ()),
        ("left", RIGHT_END): ("left", "L", ()),
        ("left", "a"): ("left", "L", ("a",)),
        ("left", LEFT_END): ("done", "S", ()),
    }
    machine = TwoWayTransducer(
        states=frozenset(("right", "left", "done")),
        initial="right",
        accepting=frozenset(("done",)),
        input_alphabet=Alphabet.of("a"),
        output_alphabet=Alphabet.of("a"),
        transitions=rows,
    )
    for n in range(4):
        out = run(machine, Word(("a",) * n))
        assert out.origins() == tuple((i,) for i in range(n, 0, -1))


def test_emit_on_endmarker_is_a_runtime_error():
    rows = {
        ("go", LEFT_END): ("go", "R", ()),
        ("go", "a"): ("go", "R", ("a",)),
        ("go", RIGHT_END): ("done", "S", ("a",)),
    }
    machine = TwoWayTransducer(
        states=frozenset(("go", "done")),
        initial="go",
        accepting=frozenset(("done",)),
        input_alphabet=Alphabet.of("a"),
        output_alphabet=Alphabet.of("a"),
        transitions=rows,
    )
    with pytest.raises(EmitOnEndmarkerError) as exc:
        run(machine, Word.parse("aa"))
    assert exc.value.symbol == RIGHT_END
    assert str(exc.value) == "state 'go' emits while reading endmarker '>'"


# -- differential test against a string-keyed reference --------------------


def _reference_run(machine, w):
    """The run loop as first written: string-keyed transitions and a set of
    every (state, head) configuration seen."""
    w.alphabet_check(machine.input_alphabet)
    tape = (LEFT_END,) + w.tokens + (RIGHT_END,)
    last = len(tape) - 1
    state, head = machine.initial, 0
    seen = set()
    out = []
    steps = 0
    while state not in machine.accepting:
        if (state, head) in seen:
            raise NonTerminationError(state, head, steps)
        seen.add((state, head))
        symbol = tape[head]
        nxt, move, emitted = machine.transitions[(state, symbol)]
        if emitted:
            if head == 0 or head == last:
                raise EmitOnEndmarkerError(state, symbol)
            for tok in emitted:
                out.append((tok, (head,)))
        state = nxt
        head += {"L": -1, "S": 0, "R": 1}[move]
        steps += 1
    return tuple(out)


@st.composite
def _machines_and_words(draw):
    """A small complete 2DFT and a word over its input alphabet.  Outputs
    on endmarkers are rare but drawn, and nothing forces the machine to
    halt."""
    live = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    accepting = [f"h{i}" for i in range(draw(st.integers(0, 1)))]
    states = live + accepting
    letters = draw(st.sets(st.sampled_from(("a", "b", "c")), min_size=1))
    outputs = st.lists(st.sampled_from(("x", "y")), max_size=2).map(tuple)
    rows = {}
    for state in live:
        for symbol in (LEFT_END, RIGHT_END, *sorted(letters)):
            moves = [m for m in ("L", "S", "R") if (symbol, m) not in ((LEFT_END, "L"), (RIGHT_END, "R"))]
            if symbol in (LEFT_END, RIGHT_END):
                out = draw(st.one_of(st.just(()), outputs)) if draw(st.integers(0, 3)) == 0 else ()
            else:
                out = draw(outputs)
            rows[(state, symbol)] = (draw(st.sampled_from(states)), draw(st.sampled_from(moves)), out)
    machine = TwoWayTransducer(
        states=frozenset(states),
        initial=draw(st.sampled_from(states)),
        accepting=frozenset(accepting),
        input_alphabet=Alphabet(frozenset(letters)),
        output_alphabet=Alphabet.of("x", "y"),
        transitions=rows,
    )
    word = Word(tuple(draw(st.lists(st.sampled_from(sorted(letters)), max_size=6))))
    return machine, word


def _outcome(fn, machine, w):
    try:
        return "ok", fn(machine, w)
    except NonTerminationError as exc:
        return "loop", (str(exc), exc.state, exc.head, exc.steps)
    except EmitOnEndmarkerError as exc:
        return "emit", (str(exc), exc.state, exc.symbol)


@settings(deadline=None, max_examples=400)
@given(_machines_and_words())
def test_run_agrees_with_string_keyed_reference(case):
    machine, w = case
    got = _outcome(lambda m, u: run(m, u).letters, machine, w)
    assert got == _outcome(_reference_run, machine, w)


# -- differential test against the step loop ------------------------------


def _step_run(machine, w):
    """The run loop before sweeps and letter classes: one Python iteration
    per cell over an integer table indexed by letter, and a replay to the
    first repeated configuration."""
    letter_ids = {tok: i for i, tok in enumerate(machine.input_alphabet, 2)}
    symbol_ids = {LEFT_END: 0, RIGHT_END: 1, **letter_ids}
    live = sorted(machine.states - machine.accepting)
    offsets = {state: i * len(symbol_ids) for i, state in enumerate(live)}
    table = [None] * (len(live) * len(symbol_ids))
    for (state, symbol), (nxt, move, out) in machine.transitions.items():
        fault = (state, symbol) if out and symbol in (LEFT_END, RIGHT_END) else None
        entry = (offsets.get(nxt), MOVES.index(move) - 1, tuple(out), fault)
        table[offsets[state] + symbol_ids[symbol]] = entry
    w.alphabet_check(machine.input_alphabet)
    tape = [0, *map(letter_ids.__getitem__, w.tokens), 1]
    idx = offsets.get(machine.initial)
    head = 0
    out = []
    if idx is not None:
        for _ in range(len(live) * len(tape)):
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
            seen = set()
            idx, head, steps = offsets.get(machine.initial), 0, 0
            while (idx, head) not in seen:
                seen.add((idx, head))
                idx, delta, _emitted, _fault = table[idx + tape[head]]
                head += delta
                steps += 1
            raise NonTerminationError(live[idx // len(symbol_ids)], head, steps)
    return tuple(out)


@st.composite
def _machines_with_classes(draw):
    """A complete 2DFT over 1-3 letters and their marked twins, with 1-4
    live states, and two words of length 0-12 over its letters.  A letter
    may copy the column of an earlier one, so that letters form classes.
    Each state has a heading, right for q0: on a letter it mostly loops to
    itself moving that way, and otherwise goes to any state moving any
    way, in place too; letters emit 0-2 tokens.  On an endmarker the head
    turns back or stays, the next state is often the halting one, and
    output is rare.  The run starts in q0, which steps off the left
    endmarker.  So most runs sweep and halt with output, but some emit on
    an endmarker, and some never halt."""
    live = [f"q{i}" for i in range(draw(st.integers(1, 4)))]
    accepting = [] if draw(st.integers(0, 3)) == 3 else ["done"]
    states = live + accepting
    heading = {state: "R" if state == "q0" else draw(st.sampled_from(("L", "R"))) for state in live}
    base = sorted(draw(st.sets(st.sampled_from(("a", "b", "c")), min_size=1)))
    letters = base + [mark_token(tok) for tok in base]
    outputs = st.lists(st.sampled_from(("x", "y")), max_size=2).map(tuple)
    rows = {}
    for i, symbol in enumerate((LEFT_END, RIGHT_END, *letters)):
        like = draw(st.sampled_from((None, *letters[: max(i - 2, 0)])))
        for state in live:
            if like is not None:
                rows[(state, symbol)] = rows[(state, like)]
            elif (state, symbol) == ("q0", LEFT_END):
                rows[(state, symbol)] = (draw(st.sampled_from(live)), "R", ())
            elif symbol in (LEFT_END, RIGHT_END):
                move = draw(st.sampled_from(("R" if symbol == LEFT_END else "L", "S")))
                nxt = draw(st.one_of(st.sampled_from(accepting or live), st.sampled_from(live[::-1])))
                out = draw(outputs) if draw(st.integers(0, 7)) == 7 else ()
                rows[(state, symbol)] = (nxt, move, out)
            elif draw(st.integers(0, 3)) < 3:
                rows[(state, symbol)] = (state, heading[state], draw(outputs))
            else:
                nxt, move = draw(st.sampled_from(states)), draw(st.sampled_from(MOVES))
                rows[(state, symbol)] = (nxt, move, draw(outputs))
    machine = TwoWayTransducer(
        states=frozenset(states),
        initial="q0",
        accepting=frozenset(accepting),
        input_alphabet=Alphabet(frozenset(letters)),
        output_alphabet=Alphabet.of("x", "y"),
        transitions=rows,
    )
    word = st.lists(st.sampled_from(letters), max_size=12).map(lambda toks: Word(tuple(toks)))
    return machine, draw(word), draw(word)


def _run_letters(machine, w):
    return run(machine, w).letters


@settings(deadline=None, max_examples=400)
@given(_machines_with_classes(), _machines_with_classes())
def test_run_agrees_with_the_step_loop(first, second):
    """Sweeps over letter classes and the reused last run give the step
    loop's outputs with origins, or its exception and message, on every
    word; each word runs twice, between runs of another word and of a
    second machine."""
    machine, w, v = first
    other, u, _ = second
    order = [(machine, w), (other, u), (machine, v), (machine, w), (machine, w), (other, u)]
    for m, word in order:
        assert _outcome(_run_letters, m, word) == _outcome(_step_run, m, word), word.render()


def test_runs_over_three_hundred_letters():
    """More letter classes than a byte holds: a copy, an erasure that
    merges all but one letter, and a machine that copies right then emits
    every other letter on its way back agree with the step loop."""
    letters = [f"t{i}" for i in range(300)]
    alphabet = Alphabet(frozenset(letters))
    rows = {
        ("right", LEFT_END): ("right", "R", ()),
        ("right", RIGHT_END): ("left", "L", ()),
        ("left", RIGHT_END): ("left", "L", ()),
        ("left", LEFT_END): ("done", "S", ()),
    }
    for i, tok in enumerate(letters):
        rows[("right", tok)] = ("right", "R", (tok,))
        rows[("left", tok)] = ("left", "L", (tok,) if i % 2 else ())
    there_and_back = TwoWayTransducer(
        frozenset(("right", "left", "done")), "right", frozenset(("done",)), alphabet, alphabet, rows
    )
    machines = [
        identity_fn(alphabet).transducer,
        erasing_fn(alphabet, Alphabet(frozenset(letters[1:]))).transducer,
        there_and_back,
    ]
    rng = random.Random(300)
    for n in (0, 1, 2, 40, 300):
        w = Word(tuple(rng.choice(letters) for _ in range(n)))
        for machine in machines:
            assert run(machine, w).letters == _step_run(machine, w)


def test_a_machine_that_merges_letters_answers_its_last_class_tape():
    """hash-counter cannot tell a marked letter from its twin, so a marked
    copy of its last word is answered with the same output; marked-block-copy
    tells every letter apart, so it runs on each word."""
    counter = builtin_regular_fn("hash-counter").transducer
    plain = Word.parse("a#b#")
    out = run(counter, plain)
    for toks in (("_a", "#", "b", "#"), ("a", "_#", "b", "#"), ("a", "#", "b", "_#")):
        assert run(counter, Word(toks)) is out
    assert run(counter, Word.parse("a#bb")).word() == Word((PEBBLE_MARK,))
    copier = builtin_regular_fn("marked-block-copy").transducer
    w = Word(("_a", "b", "#"))
    assert run(copier, w) is not run(copier, w)


def test_threads_share_the_last_runs():
    """Four threads, more than the cores, apply innsq-pebble to distinct
    words with a short switch interval, so that they interleave runs of
    one hash-counter machine and its kept last run: every output equals
    the one-thread result."""
    tree = builtin_polyfun("innsq-pebble")
    rng = random.Random(4)
    words = {Word(tuple(rng.choice("ab#") for _ in range(rng.randint(0, 30)))) for _ in range(200)}
    jobs = [sorted(words, key=Word.render)[seed::4] for seed in range(4)]
    want = {w: apply(tree, w) for w in words}
    wrong, finished = [], []

    def work(seed):
        for _ in range(3):
            wrong.extend(w for w in jobs[seed] if apply(tree, w) != want[w])
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [0, 1, 2, 3] and wrong == []


# -- construction validation -----------------------------------------------


def _partial_rows():
    return {
        ("go", LEFT_END): ("go", "R", ()),
        ("go", "a"): ("go", "R", ()),
        ("go", RIGHT_END): ("done", "S", ()),
    }


def test_missing_transition_rejected():
    rows = _partial_rows()
    del rows[("go", "a")]
    # With several transitions missing, the first in state order, then
    # <, >, then the letters in order, is named.
    cases = {"missing transition for ('go', 'a')": rows, "missing transition for ('go', '<')": {}}
    for message, table in cases.items():
        with pytest.raises(TransducerError) as exc:
            TwoWayTransducer(
                states=frozenset(("go", "done")),
                initial="go",
                accepting=frozenset(("done",)),
                input_alphabet=Alphabet.of("a", "b"),
                output_alphabet=Alphabet.of("a"),
                transitions=table,
            )
        assert str(exc.value) == message


def test_accepting_state_must_halt():
    rows = _partial_rows()
    rows[("done", "a")] = ("done", "S", ())
    with pytest.raises(TransducerError, match="halting"):
        TwoWayTransducer(
            states=frozenset(("go", "done")),
            initial="go",
            accepting=frozenset(("done",)),
            input_alphabet=Alphabet.of("a"),
            output_alphabet=Alphabet.of("a"),
            transitions=rows,
        )


def test_endmarkers_cannot_be_input_letters():
    with pytest.raises(TransducerError, match="endmarkers"):
        TwoWayTransducer(
            states=frozenset(("go", "done")),
            initial="go",
            accepting=frozenset(("done",)),
            input_alphabet=Alphabet.of("a", LEFT_END),
            output_alphabet=Alphabet.of("a"),
            transitions=_partial_rows(),
        )


def test_cannot_walk_off_the_tape():
    rows = _partial_rows()
    rows[("go", LEFT_END)] = ("go", "L", ())
    with pytest.raises(TransducerError, match="moves left"):
        TwoWayTransducer(
            states=frozenset(("go", "done")),
            initial="go",
            accepting=frozenset(("done",)),
            input_alphabet=Alphabet.of("a"),
            output_alphabet=Alphabet.of("a"),
            transitions=rows,
        )


def test_output_must_be_in_output_alphabet():
    rows = _partial_rows()
    rows[("go", "a")] = ("go", "R", ("z",))
    with pytest.raises(TransducerError, match="output symbol"):
        TwoWayTransducer(
            states=frozenset(("go", "done")),
            initial="go",
            accepting=frozenset(("done",)),
            input_alphabet=Alphabet.of("a"),
            output_alphabet=Alphabet.of("a"),
            transitions=rows,
        )


# -- file format --------------------------------------------------------------


def test_transducer_file_round_trip():
    for name in builtin_regular_fns():
        machine = builtin_regular_fn(name).transducer
        back = parse_transducer(render_transducer(machine))
        assert back.states == machine.states
        assert back.initial == machine.initial
        assert back.accepting == machine.accepting
        assert back.input_alphabet == machine.input_alphabet
        assert back.output_alphabet == machine.output_alphabet
        assert dict(back.transitions) == dict(machine.transitions)


def test_round_trip_preserves_runs():
    machine = builtin_regular_fn("reverse-blocks-ab").transducer
    back = parse_transducer(render_transducer(machine))
    for src in ("", "a#aa", "###", "aaaa"):
        w = Word.parse(src)
        assert run(back, w).letters == run(machine, w).letters


_MACHINE = """\
states go done
init go
accept done
input a
output a
go < -> go R
go a -> go R a
go > -> done L
"""

# A malformed ``.2dft`` text, by what is wrong with it, and the message that
# reading it raises.
TRANSDUCER_READER_ERRORS = {
    "short-transition": (_MACHINE + "go b -> go\n", "bad transition line: 'go b -> go'"),
    "duplicate-transition": (_MACHINE + "go a -> go R\n", "duplicate transition for ('go', 'a')"),
    "two-initial-states": (
        _MACHINE.replace("init go", "init go done"),
        "init header needs exactly one state",
    ),
    "unknown-initial-state": (
        _MACHINE.replace("init go", "init stop"),
        "initial state 'stop' not a state",
    ),
    "accepting-outside-states": (
        _MACHINE.replace("accept done", "accept done stop"),
        "accepting states must be states",
    ),
    "unknown-state": (
        _MACHINE.replace("go a -> go R a", "go a -> stop R a"),
        "transition on unknown state: 'go' -> 'stop'",
    ),
    "unknown-symbol": (_MACHINE + "go b -> go R\n", "transition on unknown symbol 'b'"),
    "bad-move": (_MACHINE.replace("go a -> go R a", "go a -> go U a"), "bad move 'U'"),
    "right-on-right-end": (
        _MACHINE.replace("go > -> done L", "go > -> done R"),
        "state 'go' moves right on >",
    ),
}


def test_the_reader_error_base_machine_reads():
    assert run(parse_transducer(_MACHINE), Word.parse("aa")).word() == Word.parse("aa")


@pytest.mark.parametrize("case", sorted(TRANSDUCER_READER_ERRORS))
def test_transducer_reader_errors(case):
    """Each way a ``.2dft`` text can be malformed, in its lines or in the
    machine they describe, raises its own message."""
    text, message = TRANSDUCER_READER_ERRORS[case]
    with pytest.raises(TransducerError) as caught:
        parse_transducer(text)
    assert str(caught.value) == message


def test_parse_rejects_garbage():
    with pytest.raises(TransducerError):
        parse_transducer("states go\nnot a real line\n")


# -- identity, erasing, composition --------------------------------------------


def test_identity_fn():
    fn = identity_fn(Alphabet.of("a", "b"))
    w = Word.parse("abba")
    out = fn(w)
    assert out.word() == w
    assert out.origins() == ((1,), (2,), (3,), (4,))


def test_identity_needs_letters():
    with pytest.raises(TransducerError):
        identity_fn(Alphabet.of())


def test_erasing_fn():
    fn = erasing_fn(Alphabet.of("a", "b", "#"), Alphabet.of("#"))
    assert fn.name == "erase-#"
    out = fn(Word.parse("a#b#"))
    assert out.word().render() == "ab"
    assert out.origins() == ((1,), (3,))


def test_erasing_everything_rejected():
    with pytest.raises(TransducerError):
        erasing_fn(Alphabet.of("a"), Alphabet.of("a"))


def test_builder_machines_render_as_their_goldens():
    """Every machine a builder makes, pinned by its rendering (states,
    initial and accepting states, alphabets, transitions) and by its
    initial and accepting states, and the builders' own error messages."""
    machines = {
        "block-marker": builtin_regular_fn("block-marker").transducer,
        "hash-counter": builtin_regular_fn("hash-counter").transducer,
        "marked-block-copy": builtin_regular_fn("marked-block-copy").transducer,
        "reverse-blocks-ab": builtin_regular_fn("reverse-blocks-ab").transducer,
        "identity_ab": identity_fn(Alphabet.of("a", "b")).transducer,
        "erase_hash": erasing_fn(Alphabet.of("a", "b", "#"), Alphabet.of("#")).transducer,
        "bouncer": bouncing_machine(),
    }
    starts = {
        "block-marker": "fresh",
        "hash-counter": "count",
        "marked-block-copy": "seek",
        "reverse-blocks-ab": "scan",
        "identity_ab": "copy",
        "erase_hash": "copy",
        "bouncer": "ping",
    }
    for key, machine in machines.items():
        golden = (DATA / f"machine_{key}.2dft").read_bytes()
        assert render_transducer(machine).encode("utf-8") == golden, key
        assert machine.initial == starts[key], key
        halting = frozenset() if key == "bouncer" else frozenset({"done"})
        assert machine.accepting == halting, key
    with pytest.raises(TransducerError) as caught:
        identity_fn(Alphabet.of())
    assert str(caught.value) == "identity needs a non-empty alphabet"
    with pytest.raises(TransducerError) as caught:
        erasing_fn(Alphabet.of("a", "b"), Alphabet.of("a", "b"))
    assert str(caught.value) == "erasing everything leaves no output alphabet"
