"""Output-language tooling.

Bounded image enumeration, d-completeness checking at desk scale,
pumping-decomposition search, and growth-degree profiling.  Everything
here works over finite samples and says "unknown" rather than guessing
beyond its bounds: membership in a regular image is not decided by this
module, only sampled.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import statistics
from typing import Callable, Iterator, Mapping

from .interp import eval_interp, interpretations
from .pebble import apply, innsq_direct, polyfuns
from .psi import dcomplete_witness, psi
from .records import record
from .twoway import regular_fns
from .words import Alphabet, Word, erase

DEFAULT_BUDGET = 5_000_000


class BudgetError(RuntimeError):
    def __init__(self, message: str, examined: int = 0):
        super().__init__(message)
        self.examined = examined


def words_upto(alphabet: Alphabet, max_len: int) -> Iterator[Word]:
    """All words of length <= max_len, shortest first, letters in sorted
    order within each length."""
    letters = sorted(alphabet.letters)
    for n in range(max_len + 1):
        for toks in itertools.product(letters, repeat=n):
            yield Word(toks)


@record
class LanguageSample:
    """The image of a function restricted to inputs of bounded length,
    each output paired with the first input that produced it."""

    function_id: str
    input_alphabet: Alphabet
    max_len: int
    outputs: Mapping[Word, Word]

    def __contains__(self, w: Word) -> bool:
        return w in self.outputs

    def __len__(self) -> int:
        return len(self.outputs)

    def sorted_outputs(self) -> list[Word]:
        return sorted(self.outputs, key=lambda w: (len(w), w.tokens))

    def render(self) -> str:
        manifest = {
            "function": self.function_id,
            "input-alphabet": sorted(self.input_alphabet.letters),
            "max-len": self.max_len,
            "count": len(self.outputs),
        }
        lines = [json.dumps(manifest, ensure_ascii=False, sort_keys=True)]
        for out in self.sorted_outputs():
            wit = self.outputs[out]
            for tok in (*out.tokens, *wit.tokens):
                if "\t" in tok or "\n" in tok:
                    raise ValueError(f"token {tok!r} cannot be serialized")
            lines.append(f"{out.render()}\t{wit.render()}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "LanguageSample":
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty sample file")
        manifest = json.loads(lines[0])
        alphabet = Alphabet.of(*manifest["input-alphabet"])
        outputs: dict[Word, Word] = {}
        for line in lines[1:]:
            if not line:
                continue
            out_text, _, wit_text = line.partition("\t")
            out = Word.parse(out_text)
            wit = Word.parse(wit_text, alphabet) if wit_text else Word()
            outputs[out] = wit
        if len(outputs) != manifest["count"]:
            raise ValueError(
                f"manifest promises {manifest['count']} outputs, file has {len(outputs)}"
            )
        return LanguageSample(
            function_id=manifest["function"],
            input_alphabet=alphabet,
            max_len=manifest["max-len"],
            outputs=outputs,
        )


def enumerate_image(
    fn: Callable[[Word], Word],
    alphabet: Alphabet,
    max_len: int,
    budget: int = DEFAULT_BUDGET,
    function_id: str = "",
) -> LanguageSample:
    """Evaluate fn on every word of length <= max_len and collect the
    distinct outputs, remembering the first witness for each."""
    total = sum(len(alphabet) ** n for n in range(max_len + 1))
    if total > budget:
        raise BudgetError(
            f"{total} inputs exceed the budget of {budget}; try a smaller max length",
            examined=0,
        )
    outputs: dict[Word, Word] = {}
    for w in words_upto(alphabet, max_len):
        outputs.setdefault(fn(w), w)
    return LanguageSample(
        function_id=function_id,
        input_alphabet=alphabet,
        max_len=max_len,
        outputs=outputs,
    )


# -- resolving function references ------------------------------------------------


@record
class ResolvedFn:
    ref: str
    fn: Callable[[Word], Word]
    input_alphabet: Alphabet | None


# the registry behind each ``kind:REF`` prefix; ``psi:`` lifts an interpretation
_KINDS = {
    "interp": interpretations,
    "psi": interpretations,
    "2dft": regular_fns,
    "pebble": polyfuns,
}


def resolve_function(ref: str, alphabet: Alphabet | None = None) -> ResolvedFn:
    """Turn a function reference into something evaluable.

    Accepted forms: ``innsq`` (the direct splitter), ``identity`` (needs
    an alphabet), ``interp:REF``, ``2dft:REF`` and ``pebble:REF`` (a
    builtin of that kind, else a file at any path), ``psi:REF`` (the lift
    of ``interp:REF``), and a bare ``REF``: a builtin of any kind, else a
    file of the kind its extension names (``.interp``, ``.2dft`` or
    ``.pfn``).
    """
    if ref in ("innsq", "direct:innsq"):
        return ResolvedFn("direct:innsq", innsq_direct, Alphabet.of("a", "b", "#"))
    if ref == "identity":
        if alphabet is None:
            raise ValueError("identity needs an explicit alphabet")
        return ResolvedFn("identity", lambda w: w, alphabet)
    kind, colon, rest = ref.partition(":")
    if not colon:
        # a builtin of any kind, checked before any file; else a file by extension
        kinds = (interpretations, regular_fns, polyfuns)
        matches = [r for r in kinds if ref in r] + [r for r in kinds if ref.endswith(r.extension)]
        kind, rest = (matches[0].kind if matches else ""), ref
    if kind not in _KINDS or not rest:
        raise ValueError(f"cannot resolve function reference {ref!r}")
    found = _KINDS[kind].load(rest)
    if kind == "psi":
        found = psi(found)
    if kind in ("interp", "psi"):
        fn = lambda w: eval_interp(found, w).word()
    elif kind == "2dft":
        fn = lambda w: found(w).word()
    else:
        fn = lambda w: apply(found, w)
    return ResolvedFn(f"{kind}:{rest}", fn, found.input_alphabet)


# -- d-completeness at sample scale ------------------------------------------------


@record
class DCompleteReport:
    markers: Alphabet
    erasure_checked: int
    erasure_failures: tuple[tuple[Word, Word], ...]
    erasure_unknowns: tuple[Word, ...]
    delta_checked: int
    delta_failures: tuple[tuple[Word, str], ...]
    delta_vacuous: tuple[Word, ...]
    delta_skipped: str | None = None

    @property
    def passed(self) -> bool:
        return (
            not self.erasure_failures
            and not self.delta_failures
            and self.delta_skipped is None
        )

    def render(self) -> str:
        lines = [
            f"erasure direction: {self.erasure_checked} outputs checked, "
            f"{len(self.erasure_failures)} failures, "
            f"{len(self.erasure_unknowns)} unknown (beyond comparison bound)",
        ]
        for out, erased in self.erasure_failures[:10]:
            lines.append(f"  FAIL erase({out.render()!r}) = {erased.render()!r} not in base image")
        if self.delta_skipped:
            lines.append(f"delta direction: skipped ({self.delta_skipped})")
        else:
            lines.append(
                f"delta direction: {self.delta_checked} witnesses checked, "
                f"{len(self.delta_failures)} failures, "
                f"{len(self.delta_vacuous)} vacuous (fewer than two inner blocks)"
            )
            for out, reason in self.delta_failures[:10]:
                lines.append(f"  FAIL on base output {out.render()!r}: {reason}")
        lines.append("verdict: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "markers": sorted(self.markers.letters),
            "erasure": {
                "checked": self.erasure_checked,
                "failures": [
                    [o.render(), e.render()] for o, e in self.erasure_failures
                ],
                "unknown": [w.render() for w in self.erasure_unknowns],
            },
            "delta": {
                "checked": self.delta_checked,
                "failures": [[o.render(), r] for o, r in self.delta_failures],
                "vacuous": [w.render() for w in self.delta_vacuous],
                "skipped": self.delta_skipped,
            },
            "passed": self.passed,
        }


def _split_blocks(w: Word, v: Word, markers: frozenset[str]) -> list[Word] | str:
    """Parse w as w0 v[1] w1 ... v[n] wn with marker blocks between the
    letters of v; return the blocks, or a reason string on shape failure."""
    blocks: list[list[str]] = [[]]
    need = list(v.tokens)
    pos = 0
    for tok in w:
        if tok in markers:
            blocks[-1].append(tok)
        elif pos < len(need) and tok == need[pos]:
            pos += 1
            blocks.append([])
        else:
            return f"unexpected token {tok!r} at output position {sum(map(len, blocks)) + pos + 1}"
    if pos != len(need):
        return f"only {pos} of {len(need)} base letters present"
    return [Word(tuple(b)) for b in blocks]


def check_dcomplete(
    prime: LanguageSample,
    base: LanguageSample,
    markers: Alphabet,
    fprime: Callable[[Word], Word] | None = None,
    club: str | None = None,
) -> DCompleteReport:
    """Check both halves of d-completeness at sample scale.

    Erasure direction: erasing the markers from each decorated output must
    land in the base image.  The base sample only goes up to its own input
    bound, so an output whose witnessed input projects to something longer
    is reported unknown, never failed.

    Delta direction: for every base output with witness u, the canonical
    decoration of u must map (under the decorated function) to a word that
    interleaves that output with marker blocks, the inner ones pairwise
    distinct.
    """
    if club is None:
        extra = prime.input_alphabet.letters - base.input_alphabet.letters
        if len(extra) == 1:
            club = next(iter(extra))
    if fprime is None and prime.function_id:
        try:
            fprime = resolve_function(prime.function_id).fn
        except (ValueError, OSError):
            fprime = None

    base_outputs = set(base.outputs)
    failures: list[tuple[Word, Word]] = []
    unknowns: list[Word] = []
    for out in prime.sorted_outputs():
        erased = erase(out, markers.letters)
        if erased in base_outputs:
            continue
        witness = prime.outputs[out]
        projected = erase(witness, {club}) if club is not None else None
        if projected is not None and len(projected) <= base.max_len:
            failures.append((out, erased))
        else:
            unknowns.append(erased)

    delta_failures: list[tuple[Word, str]] = []
    delta_vacuous: list[Word] = []
    delta_checked = 0
    delta_skipped: str | None = None
    if fprime is None:
        delta_skipped = "no evaluable decorated function"
    elif club is None:
        delta_skipped = "cannot infer the decoration token from the alphabets"
    else:
        for out in base.sorted_outputs():
            u = base.outputs[out]
            decorated = dcomplete_witness(u).decorate(club)
            image = fprime(decorated)
            delta_checked += 1
            blocks = _split_blocks(image, out, markers.letters)
            if isinstance(blocks, str):
                delta_failures.append((out, blocks))
                continue
            inner = blocks[1:-1]
            if len(inner) < 2:
                delta_vacuous.append(out)
            elif len(set(inner)) != len(inner):
                dupe = next(b for i, b in enumerate(inner) if b in inner[:i])
                delta_failures.append(
                    (out, f"inner blocks not pairwise distinct ({dupe.render()!r} repeats)")
                )

    return DCompleteReport(
        markers=markers,
        erasure_checked=len(prime.outputs),
        erasure_failures=tuple(failures),
        erasure_unknowns=tuple(unknowns),
        delta_checked=delta_checked,
        delta_failures=tuple(delta_failures),
        delta_vacuous=tuple(delta_vacuous),
        delta_skipped=delta_skipped,
    )


# -- pumping decompositions ---------------------------------------------------------


@record
class PumpDecomposition:
    """w = u0 v1 u1 ... vk uk with short pumpable factors: pieces holds
    the 2k+1 words in that order."""

    pieces: tuple[Word, ...]
    k: int
    K: int

    def __post_init__(self) -> None:
        if len(self.pieces) != 2 * self.k + 1:
            raise ValueError(f"need {2 * self.k + 1} pieces for k={self.k}")
        if not any(len(v) for v in self.factors()):
            raise ValueError("at least one pumpable factor must be non-empty")
        if any(len(v) > self.K for v in self.factors()):
            raise ValueError(f"every pumpable factor must have length <= {self.K}")

    def factors(self) -> tuple[Word, ...]:
        return self.pieces[1::2]

    def statics(self) -> tuple[Word, ...]:
        return self.pieces[0::2]

    def concatenation(self) -> Word:
        toks: list[str] = []
        for piece in self.pieces:
            toks.extend(piece.tokens)
        return Word(tuple(toks))

    def pumped(self, n: int) -> Word:
        toks: list[str] = []
        for idx, piece in enumerate(self.pieces):
            if idx % 2:
                toks.extend(piece.tokens * n)
            else:
                toks.extend(piece.tokens)
        return Word(tuple(toks))

    def render(self) -> str:
        parts = []
        for idx, piece in enumerate(self.pieces):
            tag = f"u{idx // 2}" if idx % 2 == 0 else f"v{(idx + 1) // 2}"
            parts.append(f"{tag}={piece.render()!r}")
        return " ".join(parts)


def _placements(n: int, k: int, K: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All ways to place k factor spans (start, length) left to right in a
    word of length n; empty factors are canonically glued to the previous
    end so each decomposition is generated once."""

    def rec(start: int, remaining: int, acc: list[tuple[int, int]]):
        if remaining == 0:
            yield tuple(acc)
            return
        # empty factor pinned at the current position
        acc.append((start, 0))
        yield from rec(start, remaining - 1, acc)
        acc.pop()
        for s in range(start, n):
            for length in range(1, min(K, n - s) + 1):
                acc.append((s, length))
                yield from rec(s + length, remaining - 1, acc)
                acc.pop()

    yield from rec(0, k, [])


def pump_search(
    sample: LanguageSample,
    w: Word,
    k: int,
    K: int,
    extended: LanguageSample,
    budget: int = DEFAULT_BUDGET,
) -> PumpDecomposition | None:
    """Look for a decomposition of w into k pumpable factors of length
    <= K whose pumped variants (n = 0, 2, 3) all appear in the extended
    sample.  Returns the first find in left-to-right order, or None;
    a None is evidence against pumpability at these parameters, not a
    disproof."""
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
            parts: list[str] = []
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
            pieces: list[Word] = []
            prev = 0
            for s, length in spans:
                pieces.append(Word(toks[prev:s]))
                pieces.append(Word(toks[s : s + length]))
                prev = s + length
            pieces.append(Word(toks[prev:]))
            found = PumpDecomposition(tuple(pieces), k, K)
            assert found.concatenation() == w
            return found
    return None


# -- growth profiling ----------------------------------------------------------------


@record
class GrowthEstimate:
    slope: float
    table: tuple[tuple[int, int], ...]
    classification: str

    def render(self) -> str:
        lines = [f"{'length':>8} {'max |out|':>10}"]
        for length, peak in self.table:
            lines.append(f"{length:>8} {peak:>10}")
        lines.append(f"slope {self.slope:.3f} ({self.classification})")
        return "\n".join(lines)


def _structured_words(alphabet: Alphabet, length: int) -> Iterator[Word]:
    letters = sorted(alphabet.letters)
    for c in letters:
        yield Word((c,) * length)
    for sep in letters:
        for c in letters:
            if c == sep:
                continue
            for h in {1, 2, length // 4, length // 3, length // 2, (2 * length) // 3}:
                if 0 < h < length:
                    yield Word((c,) * (length - h) + (sep,) * h)
            # block pattern (c^m sep)^m, trimmed to the requested length
            m = max(1, math.isqrt(length))
            toks = (((c,) * m) + (sep,)) * m
            if len(toks) >= length:
                yield Word(toks[:length])
            else:
                yield Word(toks + (c,) * (length - len(toks)))


def growth_degree(
    fn: Callable[[Word], Word],
    alphabet: Alphabet,
    lengths: list[int],
    seed: int = 12345,
    random_per_length: int = 30,
    exhaustive_budget: int = 2048,
) -> GrowthEstimate:
    """Profile max output length against input length and fit a power law.

    At each length the maximum is taken over all words when the alphabet
    is small enough, otherwise over structured block patterns plus seeded
    random words; structured inputs matter because the worst cases of
    block-splitting functions are far from uniform noise."""
    if not lengths or sorted(lengths) != list(lengths) or lengths[0] < 1:
        raise ValueError("lengths must be ascending and positive")
    rng = random.Random(seed)
    letters = sorted(alphabet.letters)
    table: list[tuple[int, int]] = []
    for length in lengths:
        peak = 0
        if len(letters) ** length <= exhaustive_budget:
            candidates: Iterator[Word] = (
                Word(toks) for toks in itertools.product(letters, repeat=length)
            )
        else:
            structured = list(_structured_words(alphabet, length))
            randoms = [
                Word(tuple(rng.choices(letters, k=length)))
                for _ in range(random_per_length)
            ]
            candidates = iter(structured + randoms)
        for w in candidates:
            peak = max(peak, len(fn(w)))
        table.append((length, peak))
    xs = [math.log(length) for length, _ in table]
    ys = [math.log(max(1, peak)) for _, peak in table]
    if len(set(xs)) < 2 or len(set(ys)) < 2:
        slope = 0.0
    else:
        slope = statistics.linear_regression(xs, ys).slope
    classification = "bounded" if slope < 0.2 else f"degree ~ {slope:.2f}"
    return GrowthEstimate(slope=slope, table=tuple(table), classification=classification)
