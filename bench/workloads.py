"""The three benchmark workloads.

Each workload has ``prepare`` (reference resolution, lifts and input
generation, timed as set-up), ``job`` (the work timed as ``wall_s``; it
evaluates every input through ``Recorder.call`` and returns the problems
found by its workload-level checks) and ``reference`` (the expected output
of one input, computed without the evaluator under test, or None when two
references disagree, so that the input counts as failed).

The program is passed in as ``P``, a namespace of polyreglab's modules,
and every call goes through a module attribute so that the tracer's
wrappers see it.  Input sizes are fixed; the seed only places letters, so
every seed asks for the same amount of work.
"""

from __future__ import annotations

import random
from time import perf_counter


class Recorder:
    """Times each input evaluation and keeps its output for checking.

    ``between``, when given, is called before each input, outside its
    timing.  With ``corrupt`` set, every output gets one extra letter
    appended, a deliberately wrong function that the reference check must
    catch.
    """

    def __init__(self, between=None, corrupt: bool = False) -> None:
        self.between = between
        self.corrupt = corrupt
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.records: list[tuple[str, object, object]] = []

    def call(self, kind: str, fn, w):
        if self.between is not None:
            self.between()
        t0 = perf_counter()
        try:
            out = fn(w)
        except Exception:
            self.records.append((kind, w, None))
            raise
        self.latencies.append(perf_counter() - t0)
        self.starts.append(t0)
        if self.corrupt:
            out = out + type(out)(("#",))
        self.records.append((kind, w, out))
        return out

    def timed(self, kind: str, fn):
        return lambda w: self.call(kind, fn, w)


def _word(P, tokens) -> object:
    return P.words.Word(tuple(tokens))


def _hash_word(P, rng: random.Random, length: int, hashes: int, letters: str):
    """A word of ``length`` letters with ``hashes`` #s at seeded positions,
    the other positions drawn from ``letters``."""
    at = set(rng.sample(range(length), hashes))
    return _word(P, ("#" if i in at else rng.choice(letters) for i in range(length)))


# -- order-long ----------------------------------------------------------------


class OrderLong:
    """Long words, many order-formula queries per evaluator."""

    name = "order-long"
    SQUARING_LENGTHS = tuple(range(4, 17))
    INNSQ_SHAPES = tuple((n, n // 4) for n in range(14, 32) for _ in range(4))  # (length, #s)
    WITNESS_LENGTHS = (2, 3, 4)  # dcomplete_witness decorations
    SHUFFLED = (3, 12)  # (length, how many) more decorations: the witness's club counts, shuffled

    @classmethod
    def prepare(cls, P, seed: int) -> dict:
        rng = random.Random(seed)
        scheme = P.psi.MarkerScheme.for_level(1)
        interps = {
            "squaring-family": P.interp.builtin_interp("squaring-family"),
            "innsq-interp": P.interp.builtin_interp("innsq-interp"),
            "family-2": P.psi.family(2),
        }
        inputs = [("squaring-family", _word(P, "a" * n)) for n in cls.SQUARING_LENGTHS]
        words = set()
        for n, h in cls.INNSQ_SHAPES:
            w = _hash_word(P, rng, n, h, "ab")
            while w in words:
                w = _hash_word(P, rng, n, h, "ab")
            words.add(w)
            inputs.append(("innsq-interp", w))
        decorations = [P.psi.dcomplete_witness(_word(P, "a" * n)) for n in cls.WITNESS_LENGTHS]
        n, count = cls.SHUFFLED
        counts = list(range(n + 1))
        while len(decorations) < len(cls.WITNESS_LENGTHS) + count:
            rng.shuffle(counts)
            dec = P.psi.DecoratedInput(_word(P, "a" * n), tuple(counts))
            if dec not in decorations:
                decorations.append(dec)
        inputs += [("family-2", dec.decorate(scheme.club)) for dec in decorations]
        rng.shuffle(inputs)
        return {"interps": interps, "inputs": inputs, "scheme": scheme}

    @staticmethod
    def job(P, state: dict, rec: Recorder) -> list[str]:
        for kind, w in state["inputs"]:
            interp = state["interps"][kind]
            rec.call(kind, lambda u: P.interp.eval_interp(interp, u).word(), w)
        return []

    @staticmethod
    def reference(P, state: dict, kind: str, w):
        if kind == "squaring-family":
            return _word(P, (letter for letter, _ in squaring(len(w))))
        if kind == "innsq-interp":
            return P.pebble.innsq_direct(w)
        scheme = state["scheme"]
        dec = P.psi.DecoratedInput.undecorate(w, scheme.club)
        direct = []
        for letter, (i, j) in squaring(len(dec.u)):
            direct += [letter] + [scheme.box] * dec.p[i] + [scheme.diamond] * dec.p[j]
        oracle = P.psi.fprime_oracle(state["interps"]["squaring-family"], dec, scheme)
        return _word(P, direct) if oracle.tokens == tuple(direct) else None


def squaring(n: int):
    """The squaring interpretation on a^n, written directly: (a^(n-1) b)^(n-1),
    where the letter at copy i, place j has origin pair (i, j)."""
    return [("b" if j == n else "a", (i, j)) for i in range(1, n) for j in range(1, n + 1)]


# -- image-dcomplete -----------------------------------------------------------


def innsq_lifted(tokens, club="♣", box="□", diamond="◊"):
    """psi(innsq-interp) on a club-decorated word, written directly: inner
    squaring with the origin pair of every output letter, followed by one
    box per club after its first origin and one diamond per club after its
    second.  Copy k of a block has origins (letter, k-th #); the # closing
    a block has origins (that #, last position)."""
    letters: list[str] = []
    clubs = [0]
    for tok in tokens:
        if tok == club:
            clubs[-1] += 1
        else:
            letters.append(tok)
            clubs.append(0)
    n = len(letters)
    hashes = [i for i, tok in enumerate(letters, 1) if tok == "#"]
    out: list[str] = []

    def emit(tok: str, i: int, j: int) -> None:
        out.append(tok)
        out.extend([box] * clubs[i])
        out.extend([diamond] * clubs[j])

    block: list[int] = []
    for i, tok in enumerate(letters, 1):
        if tok != "#":
            block.append(i)
            continue
        for h in hashes:
            for p in block:
                emit(letters[p - 1], p, h)
        emit("#", i, n)
        block = []
    for h in hashes:
        for p in block:
            emit(letters[p - 1], p, h)
    return tuple(out)


class ImageDcomplete:
    """The README pipeline: many short words, few queries per evaluator."""

    name = "image-dcomplete"
    PRIME_MAX_LEN = 5
    BASE_MAX_LEN = 3
    # erasure checked/failures/unknown, delta checked/failures/vacuous
    EXPECTED_COUNTS = (782, 0, 536, 26, 0, 7)

    @staticmethod
    def prepare(P, seed: int) -> dict:
        # The pipeline enumerates every input up to its length bound, so
        # the seed has nothing to choose.
        return {
            "prime": P.langlab.resolve_function("psi:innsq-interp"),
            "base": P.langlab.resolve_function("interp:innsq-interp"),
            "markers": P.words.Alphabet.of("□", "◊"),
        }

    @classmethod
    def job(cls, P, state: dict, rec: Recorder) -> list[str]:
        lab = P.langlab
        prime_fn, base_fn = state["prime"], state["base"]
        prime = lab.enumerate_image(
            rec.timed("psi", prime_fn.fn), prime_fn.input_alphabet, cls.PRIME_MAX_LEN,
            function_id=prime_fn.ref,
        )
        base = lab.enumerate_image(
            rec.timed("base", base_fn.fn), base_fn.input_alphabet, cls.BASE_MAX_LEN,
            function_id=base_fn.ref,
        )
        problems = []
        samples = []
        for sample in (prime, base):
            parsed = lab.LanguageSample.parse(sample.render())
            if parsed.outputs != sample.outputs:
                problems.append(f".sample round trip changed {sample.function_id}")
            samples.append(parsed)
        report = lab.check_dcomplete(
            samples[0], samples[1], state["markers"], fprime=rec.timed("fprime", prime_fn.fn)
        )
        counts = (
            report.erasure_checked, len(report.erasure_failures), len(report.erasure_unknowns),
            report.delta_checked, len(report.delta_failures), len(report.delta_vacuous),
        )
        if counts != cls.EXPECTED_COUNTS:
            problems.append(f"check-dcomplete counts {counts}, expected {cls.EXPECTED_COUNTS}")
        if not report.passed:
            problems.append("check-dcomplete verdict is not pass")
        return problems

    @staticmethod
    def reference(P, state: dict, kind: str, w):
        if kind == "base":
            return P.pebble.innsq_direct(w)
        return _word(P, innsq_lifted(w.tokens))


# -- pebble-2dft -----------------------------------------------------------------


class Pebble2dft:
    """Combinator trees and two-way transducers; never reaches logic."""

    name = "pebble-2dft"
    PEBBLE_LENGTHS = tuple(range(100, 251, 15))  # 11 words, n // 10 #s each
    REVERSE_LENGTHS = tuple(range(2000, 4001, 200))  # 11 words, n // 40 #s each
    GROWTH_LENGTHS = [8, 16, 24, 32, 48]
    SLOPE_BAND = (1.6, 2.4)

    @classmethod
    def prepare(cls, P, seed: int) -> dict:
        rng = random.Random(seed)
        inputs = [("innsq-pebble", _hash_word(P, rng, n, n // 10, "ab")) for n in cls.PEBBLE_LENGTHS]
        inputs += [("reverse-blocks-ab", _hash_word(P, rng, n, n // 40, "a")) for n in cls.REVERSE_LENGTHS]
        rng.shuffle(inputs)
        return {
            "tree": P.pebble.builtin_polyfun("innsq-pebble"),
            "reverse": P.twoway.builtin_regular_fn("reverse-blocks-ab"),
            "alphabet": P.words.Alphabet.of("a", "b", "#"),
            "inputs": inputs,
        }

    @classmethod
    def job(cls, P, state: dict, rec: Recorder) -> list[str]:
        tree, reverse = state["tree"], state["reverse"]
        pebble = lambda u: P.pebble.apply(tree, u)  # noqa: E731
        fns = {"innsq-pebble": pebble, "reverse-blocks-ab": lambda u: reverse(u).word()}
        for kind, w in state["inputs"]:
            rec.call(kind, fns[kind], w)
        # growth_degree draws its random words from its own fixed seed, so
        # that the quantiles of input latency, which fall among these calls,
        # do not depend on the workload's seed.
        estimate = P.langlab.growth_degree(
            rec.timed("innsq-pebble", pebble), state["alphabet"], cls.GROWTH_LENGTHS
        )
        low, high = cls.SLOPE_BAND
        if not low <= estimate.slope <= high:
            return [f"growth slope {estimate.slope:.3f} outside [{low}, {high}]"]
        return []

    @staticmethod
    def reference(P, state: dict, kind: str, w):
        if kind == "innsq-pebble":
            return P.pebble.innsq_direct(w)
        return state["reverse"].reference(w)


WORKLOADS = {cls.name: cls for cls in (OrderLong, ImageDcomplete, Pebble2dft)}
