import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyreglab import interp as interp_module
from polyreglab import pebble as pebble_module
from polyreglab import twoway as twoway_module
from polyreglab.interp import (
    InterpError,
    builtin_interp,
    builtin_interpretations,
    eval_interp,
    interpretations,
    render_interp,
)
from polyreglab.langlab import (
    DEFAULT_BUDGET,
    BudgetError,
    LanguageSample,
    PumpDecomposition,
    _placements,
    check_dcomplete,
    enumerate_image,
    growth_degree,
    pump_search,
    resolve_function,
    words_upto,
)
from polyreglab.pebble import builtin_polyfuns, innsq_direct
from polyreglab.twoway import builtin_regular_fn, builtin_regular_fns, render_transducer
from polyreglab.words import Alphabet, Word, erase

DATA = Path(__file__).parent / "data"


# -- image enumeration -----------------------------------------------------------


def test_innsq_image_golden_file():
    sample = enumerate_image(
        innsq_direct, Alphabet.of("a", "#"), 3, function_id="direct:innsq"
    )
    golden = (DATA / "innsq_image_a_hash_3.sample").read_text(encoding="utf-8")
    assert sample.render() == golden


def test_enumeration_is_deterministic():
    first = enumerate_image(innsq_direct, Alphabet.of("a", "b", "#"), 3)
    second = enumerate_image(innsq_direct, Alphabet.of("a", "b", "#"), 3)
    assert first.render() == second.render()


def test_identity_image():
    sample = enumerate_image(lambda w: w, Alphabet.of("a"), 2)
    assert set(sample.outputs) == {Word(), Word.parse("a"), Word.parse("aa")}
    for out, wit in sample.outputs.items():
        assert out == wit


def test_constant_image():
    sample = enumerate_image(lambda w: Word(), Alphabet.of("a", "b"), 3)
    assert set(sample.outputs) == {Word()}
    assert sample.outputs[Word()] == Word()  # first witness in shortlex order


def test_budget_is_a_precondition():
    with pytest.raises(BudgetError, match="smaller max length"):
        enumerate_image(lambda w: w, Alphabet.of("a", "b", "#"), 20)
    try:
        enumerate_image(lambda w: w, Alphabet.of("a", "b", "#"), 20)
    except BudgetError as exc:
        assert exc.examined == 0


def test_words_upto_is_shortlex():
    words = list(words_upto(Alphabet.of("b", "a"), 2))
    assert [w.render() for w in words] == ["", "a", "b", "aa", "ab", "ba", "bb"]


def test_sample_round_trip():
    sample = enumerate_image(
        innsq_direct, Alphabet.of("a", "#"), 3, function_id="direct:innsq"
    )
    back = LanguageSample.parse(sample.render())
    assert back.function_id == sample.function_id
    assert back.input_alphabet == sample.input_alphabet
    assert back.max_len == sample.max_len
    assert back.outputs == dict(sample.outputs)
    assert Word() in back.outputs  # the bare-tab line survives parsing


@pytest.mark.parametrize("letters", [("♣1", "a"), ("a", "bb", "c"), ("xy", "z"), ("a", "b", "ab")])
def test_sample_round_trip_with_longer_letters(letters):
    """Outputs and witnesses read back as written, also where a word of one
    letter of several characters renders like a word of several letters."""
    sample = enumerate_image(lambda w: w, Alphabet.of(*letters), 2, function_id="identity")
    back = LanguageSample.parse(sample.render())
    assert back.outputs == dict(sample.outputs)
    assert back.render() == sample.render()


def test_sample_spaces_only_the_columns_that_need_it():
    """One letter of several characters as an output is followed by a space,
    and never as a witness; a witness is written with its letters apart only
    where they would read back as a longer letter."""
    lines = enumerate_image(lambda w: w, Alphabet.of("♣1", "a"), 1).render().splitlines()
    assert lines[1:] == ["\t", "a\ta", "♣1 \t♣1"]
    lines = enumerate_image(lambda w: w, Alphabet.of("a", "b", "ab"), 2).render().splitlines()
    assert "ab\ta b" in lines and "ab \tab" in lines and "ba\tba" in lines


def test_sample_rejects_unserializable_tokens():
    sample = LanguageSample(
        function_id="x",
        input_alphabet=Alphabet.of("a"),
        max_len=1,
        outputs={Word(("a\tb",)): Word()},
    )
    with pytest.raises(ValueError, match="cannot be serialized"):
        sample.render()


def test_sample_parse_checks_count():
    sample = enumerate_image(lambda w: w, Alphabet.of("a"), 2)
    text = sample.render()
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(ValueError, match="manifest promises"):
        LanguageSample.parse(truncated)


# -- function references ------------------------------------------------------------


def test_resolve_direct_and_identity():
    assert resolve_function("innsq").ref == "direct:innsq"
    assert resolve_function("direct:innsq").fn(Word.parse("a#b")) == Word.parse("a#b")
    ident = resolve_function("identity", Alphabet.of("x"))
    assert ident.fn(Word(("x",))) == Word(("x",))
    with pytest.raises(ValueError, match="alphabet"):
        resolve_function("identity")


def test_resolve_each_kind():
    w = Word.parse("a#a")
    by_interp = resolve_function("interp:innsq-interp")
    by_pebble = resolve_function("pebble:innsq-pebble")
    assert by_interp.fn(w) == by_pebble.fn(w) == innsq_direct(w)
    by_2dft = resolve_function("2dft:reverse-blocks-ab")
    assert by_2dft.fn(w).render() == "ab#ab"
    lifted = resolve_function("psi:squaring-family")
    assert lifted.input_alphabet == Alphabet.of("a", "♣")


def test_resolve_bare_names_probe_the_registries():
    w = Word.parse("a#a")
    assert resolve_function("innsq-interp").fn(w) == innsq_direct(w)
    assert resolve_function("reverse-blocks-ab").fn(w).render() == "ab#ab"
    assert resolve_function("innsq-pebble").fn(w) == innsq_direct(w)


def test_resolve_interp_file(tmp_path):
    path = tmp_path / "sq.interp"
    path.write_text(render_interp(builtin_interp("squaring-family")), encoding="utf-8")
    resolved = resolve_function(str(path))
    assert resolved.fn(Word.parse("aaa")).render() == "aabaab"


def test_resolve_rejects_unknown():
    with pytest.raises(ValueError, match="cannot resolve"):
        resolve_function("no-such-thing")


def test_builtin_names_are_disjoint_across_kinds():
    """A bare name picks its kind by being a builtin of it, so no name may
    be a builtin of two kinds."""
    kinds = (builtin_interpretations(), builtin_regular_fns(), builtin_polyfuns())
    for first, second in itertools.combinations(kinds, 2):
        assert not set(first) & set(second)


def test_resolve_bare_builtin_name_before_a_file_of_that_name(tmp_path, monkeypatch):
    machine = builtin_regular_fn("reverse-blocks-ab").transducer
    (tmp_path / "innsq-pebble").write_text(render_transducer(machine), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert resolve_function("innsq-pebble").ref == "pebble:innsq-pebble"
    assert resolve_function("2dft:innsq-pebble").ref == "2dft:innsq-pebble"


def test_resolve_reads_a_bare_file_once_as_its_extension_says(tmp_path, monkeypatch):
    path = tmp_path / "sq.interp"
    path.write_text("dim 1\ndim 1\n", encoding="utf-8")
    names = []
    parse_interp = interp_module.parse_interp

    def counted(text, name=None):
        names.append(name)
        return parse_interp(text, name)

    def other_format(*args, **kwargs):
        raise AssertionError("parsed as another kind")

    monkeypatch.setattr(interp_module, "parse_interp", counted)
    monkeypatch.setattr(twoway_module, "parse_transducer", other_format)
    monkeypatch.setattr(pebble_module, "parse_polyfun", other_format)
    with pytest.raises(InterpError, match="duplicate header"):
        resolve_function(str(path))
    assert names == ["sq.interp"]


def test_resolve_rejects_a_bare_path_without_a_known_extension(tmp_path, monkeypatch):
    (tmp_path / "sq").write_text(render_interp(builtin_interp("squaring-family")), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="cannot resolve"):
        resolve_function("sq")
    assert resolve_function("interp:sq").fn(Word.parse("aaa")).render() == "aabaab"


def test_file_interpretations_are_named_by_basename(tmp_path):
    path = tmp_path / "sq.interp"
    path.write_text(render_interp(builtin_interp("squaring-family")), encoding="utf-8")
    assert interpretations.load(str(path)).name == "sq.interp"
    assert interpretations.load("sq.interp", str(tmp_path)).name == "sq.interp"


# -- d-completeness -----------------------------------------------------------------


def test_dcomplete_passes_for_both_builtins(dcomplete_samples):
    markers = Alphabet.of("□", "◊")  # both builtins lift with the plain scheme
    for name, (prime, base) in dcomplete_samples.items():
        report = check_dcomplete(prime, base, markers)
        assert report.passed, (name, report.render())
        assert report.delta_checked == len(base.outputs)
        assert "pass" in report.render()
        assert report.to_json()["passed"] is True


def test_dcomplete_trivial_when_nothing_is_decorated():
    sq = builtin_interp("squaring-family")

    def f(w):
        return eval_interp(sq, erase(w, {"♣"})).word()

    base = enumerate_image(f, Alphabet.of("a"), 2, function_id="")
    report = check_dcomplete(base, base, Alphabet.of(), fprime=f, club="♣")
    assert report.passed
    assert not report.delta_failures
    assert report.delta_vacuous  # distinctness never actually exercised


def test_dcomplete_fails_when_markers_are_never_emitted():
    sq = builtin_interp("squaring-family")

    def f(w):
        return eval_interp(sq, erase(w, {"♣"})).word()

    base = enumerate_image(f, Alphabet.of("a"), 4, function_id="")
    report = check_dcomplete(base, base, Alphabet.of(), fprime=f, club="♣")
    assert not report.passed
    assert report.delta_failures
    out, reason = report.delta_failures[0]
    assert "not pairwise distinct" in reason


def test_dcomplete_reports_shape_failures():
    base = enumerate_image(lambda w: w, Alphabet.of("a"), 2, function_id="")
    report = check_dcomplete(
        base, base, Alphabet.of(), fprime=lambda w: Word.parse("zz"), club="♣"
    )
    assert not report.passed
    assert any("unexpected token" in reason for _, reason in report.delta_failures)


def test_dcomplete_skips_delta_without_a_function():
    base = enumerate_image(lambda w: w, Alphabet.of("a"), 2, function_id="")
    report = check_dcomplete(base, base, Alphabet.of())
    assert report.delta_skipped is not None
    assert not report.passed


def test_dcomplete_erasure_unknowns_are_not_failures(dcomplete_samples):
    prime, base = dcomplete_samples["squaring-family"]
    markers = Alphabet.of("□", "◊")
    report = check_dcomplete(prime, base, markers)
    # lifted outputs whose base projection is longer than the base bound
    assert report.erasure_unknowns
    assert not report.erasure_failures


# -- pumping ---------------------------------------------------------------------


def test_pump_identity_pinned():
    sample = enumerate_image(lambda w: w, Alphabet.of("a"), 4, function_id="identity")
    extended = enumerate_image(
        lambda w: w, Alphabet.of("a"), 12, function_id="identity"
    )
    found = pump_search(sample, Word.parse("aaaa"), 1, 1, extended)
    assert found is not None
    assert [p.render() for p in found.pieces] == ["", "a", "aaa"]
    assert found.render() == "u0='' v1='a' u1='aaa'"


def test_pump_reverse_blocks_pinned(reverse_blocks_samples):
    short, extended = reverse_blocks_samples
    found = pump_search(short, Word.parse("ab#ab"), 2, 2, extended)
    assert found is not None
    assert [p.render() for p in found.pieces] == ["", "a", "", "b", "#ab"]
    for n in (0, 2, 3):
        assert found.pumped(n) in extended.outputs
    assert found.pumped(0).render() == "#ab"
    assert found.pumped(2).render() == "aabb#ab"


def test_pump_below_threshold(reverse_blocks_samples):
    short, extended = reverse_blocks_samples
    assert pump_search(short, Word.parse("#"), 1, 2, extended) is None


def test_pump_requires_membership(reverse_blocks_samples):
    short, extended = reverse_blocks_samples
    with pytest.raises(ValueError, match="not an output"):
        pump_search(short, Word.parse("ba"), 1, 1, extended)


def test_pump_budget_error(reverse_blocks_samples):
    short, extended = reverse_blocks_samples
    with pytest.raises(BudgetError, match="budget of 1"):
        pump_search(short, Word.parse("ab#ab"), 2, 2, extended, budget=1)


def test_pump_none_is_not_a_disproof(reverse_blocks_samples):
    # k=1 cannot pump "ab#ab": the two blocks must grow together
    short, extended = reverse_blocks_samples
    assert pump_search(short, Word.parse("ab#ab"), 1, 2, extended) is None


def test_decomposition_validation():
    a = Word.parse("a")
    e = Word()
    with pytest.raises(ValueError, match="pieces"):
        PumpDecomposition((a, a), 1, 1)
    with pytest.raises(ValueError, match="non-empty"):
        PumpDecomposition((a, e, a), 1, 1)
    with pytest.raises(ValueError, match="length <= 1"):
        PumpDecomposition((e, Word.parse("aa"), e), 1, 1)


def test_decomposition_accessors():
    d = PumpDecomposition(
        (Word(), Word.parse("a"), Word(), Word.parse("b"), Word.parse("#ab")), 2, 2
    )
    assert [w.render() for w in d.factors()] == ["a", "b"]
    assert [w.render() for w in d.statics()] == ["", "", "#ab"]
    assert d.concatenation().render() == "ab#ab"
    assert d.pumped(1) == d.concatenation()
    assert d.pumped(0).render() == "#ab"
    assert d.pumped(3).render() == "aaabbb#ab"


# -- differential test against the splicing search -------------------------------


def _reference_pump_search(sample, w, k, K, extended, budget=DEFAULT_BUDGET):
    """The search as first written: each pumped variant spliced from the
    spans, and the pieces of a find built again from the same spans."""
    if w not in sample.outputs:
        raise ValueError(f"{w.render()!r} is not an output in the sample")
    if k < 1 or K < 0:
        raise ValueError("need k >= 1 and K >= 0")
    if len(w) < K:
        return None
    toks = w.tokens
    examined = 0
    for spans in _placements(len(toks), k, K):
        if all(length == 0 for _, length in spans):
            continue
        examined += 1
        if examined > budget:
            raise BudgetError(
                f"pump search exceeded the budget of {budget} candidate "
                f"decompositions (last tried spans {spans})",
                examined=examined,
            )
        ok = True
        for n in (0, 2, 3):
            parts = []
            prev = 0
            for s, length in spans:
                parts.extend(toks[prev:s])
                parts.extend(toks[s : s + length] * n)
                prev = s + length
            parts.extend(toks[prev:])
            if Word(tuple(parts)) not in extended.outputs:
                ok = False
                break
        if ok:
            pieces = []
            prev = 0
            for s, length in spans:
                pieces.append(Word(toks[prev:s]))
                pieces.append(Word(toks[s : s + length]))
                prev = s + length
            pieces.append(Word(toks[prev:]))
            return PumpDecomposition(tuple(pieces), k, K)
    return None


@functools.cache
def _pump_samples():
    """(sample, extended sample) pairs: identity on {a} and on {a, b}, and
    the direct innsq on {a, #}."""
    identity = lambda w: w  # noqa: E731
    cases = [(identity, ("a",), 4, 12), (identity, ("a", "b"), 3, 8), (innsq_direct, ("a", "#"), 3, 8)]
    return [
        (enumerate_image(fn, Alphabet.of(*letters), short), enumerate_image(fn, Alphabet.of(*letters), long))
        for fn, letters, short, long in cases
    ]


def _pump_outcome(search, *args):
    try:
        found = search(*args)
    except BudgetError as exc:
        return "budget", str(exc), exc.examined
    return "done", found.pieces if found else None


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_pump_search_agrees_with_splicing_reference(reverse_blocks_samples, data):
    sample, extended = data.draw(st.sampled_from([*_pump_samples(), reverse_blocks_samples]))
    w = data.draw(st.sampled_from(sample.sorted_outputs()))
    k, K = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 3))
    budget = data.draw(st.one_of(st.integers(0, 30), st.just(DEFAULT_BUDGET)))
    args = (sample, w, k, K, extended, budget)
    assert _pump_outcome(pump_search, *args) == _pump_outcome(_reference_pump_search, *args)


# -- growth ----------------------------------------------------------------------


def test_innsq_growth_is_quadratic():
    estimate = growth_degree(
        innsq_direct, Alphabet.of("a", "b", "#"), list(range(20, 301, 20))
    )
    assert 1.8 <= estimate.slope <= 2.2
    assert estimate.classification.startswith("degree")


def test_identity_growth_is_linear():
    estimate = growth_degree(lambda w: w, Alphabet.of("a", "b"), list(range(10, 101, 10)))
    assert 0.95 <= estimate.slope <= 1.05


def test_constant_growth_is_bounded():
    estimate = growth_degree(
        lambda w: Word(), Alphabet.of("a", "b"), list(range(10, 51, 10))
    )
    assert estimate.slope == 0.0
    assert estimate.classification == "bounded"
    assert all(peak == 0 for _, peak in estimate.table)


def test_growth_rejects_bad_lengths():
    with pytest.raises(ValueError, match="ascending"):
        growth_degree(lambda w: w, Alphabet.of("a"), [10, 5])
    with pytest.raises(ValueError, match="ascending"):
        growth_degree(lambda w: w, Alphabet.of("a"), [])
    for lengths in ([3], [4, 4], [2, 2, 4], [1, 1, 2]):
        with pytest.raises(ValueError, match="ascending"):
            growth_degree(lambda w: w, Alphabet.of("a"), lengths)


def test_growth_pins_the_sampled_lengths():
    """Every length here has more than 2,048 words, so each row's peak comes
    from the structured words and 30 seeded random ones; a changed sample
    size or seed use moves the table.  These are the benchmark's lengths."""
    estimate = growth_degree(innsq_direct, Alphabet.of("a", "b", "#"), [8, 16, 24, 32, 48])
    assert estimate.table == ((8, 20), (16, 72), (24, 156), (32, 272), (48, 600))
    assert estimate.slope == pytest.approx(1.8975968053476184, rel=1e-12)


def test_growth_render_has_a_table():
    estimate = growth_degree(lambda w: w, Alphabet.of("a"), [2, 4])
    text = estimate.render()
    assert "length" in text and "slope" in text


# -- cross-module invariants --------------------------------------------------------


def test_sampled_outputs_respect_the_quadratic_bound(dcomplete_samples):
    for prime, base in dcomplete_samples.values():
        for sample in (prime, base):
            for out, wit in sample.outputs.items():
                assert len(out) <= len(wit) ** 2
