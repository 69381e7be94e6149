import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreglab.twoway import (
    LEFT_END,
    PEBBLE_MARK,
    RIGHT_END,
    EmitOnEndmarkerError,
    NonTerminationError,
    RegularFn,
    TransducerError,
    TwoWayTransducer,
    bouncing_machine,
    builtin_regular_fn,
    builtin_regular_fns,
    compose_semantic,
    erasing_fn,
    identity_fn,
    parse_transducer,
    render_transducer,
    run,
)
from polyreglab.words import Alphabet, Word, WordError


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


def test_regular_fn_needs_exactly_one_backing():
    with pytest.raises(TransducerError, match="transducer or a callable"):
        RegularFn(
            name="none",
            input_alphabet=Alphabet.of("a"),
            output_alphabet=Alphabet.of("a"),
            growth_constant=1,
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


def test_compose_origins_trace_to_original_input():
    marker = builtin_regular_fn("block-marker")
    keep_marks = erasing_fn(marker.output_alphabet, Alphabet.of("#"))
    composed = compose_semantic(keep_marks, marker)
    assert composed.name == "erase-#.block-marker"
    out = composed(Word.parse("aa#b"))
    assert out.word() == Word((PEBBLE_MARK, PEBBLE_MARK))
    assert out.origins() == ((1,), (4,))


def test_compose_counts_hashes_of_marked_word():
    counter = builtin_regular_fn("hash-counter")
    copy = identity_fn(counter.input_alphabet, name="copy")
    composed = compose_semantic(counter, copy)
    out = composed(Word.parse("a#b#"))
    assert out.word() == Word((PEBBLE_MARK, PEBBLE_MARK))
    assert out.origins() == ((2,), (4,))


def test_compose_alphabet_mismatch():
    marker = builtin_regular_fn("block-marker")
    with pytest.raises(TransducerError, match="cannot compose"):
        compose_semantic(marker, marker)


def test_composed_alphabets():
    marker = builtin_regular_fn("block-marker")
    counter = builtin_regular_fn("hash-counter")
    composed = compose_semantic(counter, marker)
    assert composed.input_alphabet == marker.input_alphabet
    assert composed.output_alphabet == counter.output_alphabet
    assert composed(Word.parse("ab#a")).word() == Word((PEBBLE_MARK,))
