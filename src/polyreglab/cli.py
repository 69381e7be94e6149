"""Command-line front door.

Every verb is a thin adapter over the library: results are byte-identical
to direct calls.  Under ``--format json`` each verb but ``psi`` and
``family`` (which write definition files) prints one JSON object line in
place of its text, with the same exit code, and only in text mode does
``eval-interp`` print its diagnostic note on stderr.  Exit codes: 0
success, 1 a check failed (disagreement, unsortable, incomplete report),
2 usage, 3 evaluation error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .interp import (
    eval_interp_details,
    interpretations,
    render_interp,
)
from .langlab import (
    DEFAULT_BUDGET,
    BudgetError,
    LanguageSample,
    ResolvedFn,
    check_dcomplete,
    enumerate_image,
    growth_degree,
    pump_report,
    resolve_function,
    words_upto,
)
from .logic import check_sortable
from .pebble import apply, polyfuns
from .psi import family, family_markers, psi
from .twoway import (
    EmitOnEndmarkerError,
    NonTerminationError,
    regular_fns,
)
from .words import Alphabet, OriginWord, Word, WordError

_EVAL_ERRORS = (
    NonTerminationError,
    EmitOnEndmarkerError,
    BudgetError,
    ValueError,
    KeyError,
    OSError,
)


def _read_word(text: str, alphabet: Alphabet | None) -> Word:
    if text == "-":
        text = sys.stdin.read().strip("\n")
    return Word.parse(text, alphabet)


def _parse_alphabet(text: str) -> Alphabet:
    """Comma-separated letters, or one letter per character; an alphabet
    without a letter, or with a bad letter, is a usage error."""
    tokens = [t for t in text.split(",") if t] if "," in text else list(text)
    if not tokens:
        raise argparse.ArgumentTypeError(f"an alphabet needs at least one letter, not {text!r}")
    try:
        return Alphabet.of(*tokens)
    except WordError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """An int of at least 0, for the arguments that count; else a usage error."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def _parse_lengths(text: str) -> list[int]:
    """``LO:HI[:STEP]`` or ``N,N,...``; else a usage error saying why."""
    if ":" not in text:
        return [_int(p) for p in text.split(",") if p]
    fields = [_int(p) for p in text.split(":")]
    if len(fields) not in (2, 3):
        raise argparse.ArgumentTypeError(f"a range has 2 or 3 fields, not {len(fields)}")
    lo, hi, step = (*fields, 1)[:3]
    if step == 0:
        raise argparse.ArgumentTypeError("the step of a range must not be 0")
    return list(range(lo, hi + 1, step))


def _read_sample(path: str) -> LanguageSample:
    with open(path, encoding="utf-8") as handle:
        return LanguageSample.parse(handle.read())


def _resolve_over_alphabet(args) -> tuple[ResolvedFn, Alphabet]:
    """``args.function`` resolved, and the alphabet to run it over:
    ``--alphabet`` if given, else the function's own."""
    resolved = resolve_function(args.function, args.alphabet)
    alphabet = args.alphabet or resolved.input_alphabet
    if alphabet is None:
        raise ValueError(f"{args.function!r} has no intrinsic alphabet; pass --alphabet")
    return resolved, alphabet


def _emit(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _result(args, payload: dict, text: str, code: int = 0, path: str | None = None) -> int:
    """Write ``payload`` as one JSON line under ``--format json``, else ``text``
    (newline included), to ``path`` or stdout; return the exit code ``code``."""
    if args.format == "json":
        text = json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n"
    _emit(path, text)
    return code


def _origin_word(annotated: OriginWord, origins: bool) -> tuple[dict, str]:
    """The payload and text of an output word, and of the origin of each
    letter when ``origins`` is set."""
    output = annotated.word().render()
    tuples = [list(orig) for _, orig in annotated] if origins else None
    text = output + "\n"
    if origins:
        text += " ".join(",".join(map(str, orig)) for orig in tuples) + "\n"
    return {"output": output, "origins": tuples}, text


# -- verbs ---------------------------------------------------------------------


def _cmd_eval_interp(args) -> int:
    interp = interpretations.load(args.interp)
    result = eval_interp_details(interp, _read_word(args.word, interp.input_alphabet))
    payload, text = _origin_word(result.output, args.origins)
    diagnostic = result.diagnostic
    payload["diagnostic"] = diagnostic.to_json() if diagnostic else None
    code = _result(args, payload, text)
    if diagnostic and args.format == "text":
        print(f"note: {diagnostic.kind}: {diagnostic.detail}", file=sys.stderr)
    return code


def _cmd_eval_pebble(args) -> int:
    tree = polyfuns.load(args.tree)
    out = apply(tree, _read_word(args.word, tree.input_alphabet)).render()
    return _result(args, {"output": out}, out + "\n")


def _cmd_run_2dft(args) -> int:
    rf = regular_fns.load(args.machine)
    annotated = rf(_read_word(args.word, rf.input_alphabet))
    return _result(args, *_origin_word(annotated, args.origins))


def _cmd_psi(args) -> int:
    interp = interpretations.load(args.interp)
    for _ in range(args.iterate):
        interp = psi(interp)
    _emit(args.output, render_interp(interp))
    return 0


def _cmd_family(args) -> int:
    interp = family(args.k)
    path = args.output or f"I_{args.k}.interp"
    _emit(path, render_interp(interp))
    manifest = {
        "k": args.k,
        "levels": [
            {"level": i + 1, "club": m.club, "box": m.box, "diamond": m.diamond}
            for i, m in enumerate(family_markers(args.k))
        ],
    }
    manifest_path = os.path.splitext(path)[0] + ".markers.json"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, ensure_ascii=False, sort_keys=True, indent=2)
        handle.write("\n")
    print(f"wrote {path} and {manifest_path}")
    return 0


def _cmd_image(args) -> int:
    resolved, alphabet = _resolve_over_alphabet(args)
    sample = enumerate_image(
        resolved.fn,
        alphabet,
        args.max_len,
        budget=args.budget,
        function_id=resolved.ref,
    )
    payload = {**sample.manifest(), "outputs": sample.spelled_outputs()}
    return _result(args, payload, sample.render(), path=args.output)


def _cmd_check_dcomplete(args) -> int:
    prime, base = _read_sample(args.prime), _read_sample(args.base)
    report = check_dcomplete(prime, base, args.markers)
    return _result(args, report.to_json(), report.render() + "\n", 0 if report.passed else 1)


def _cmd_pump(args) -> int:
    sample, extended = _read_sample(args.sample), _read_sample(args.extended)
    w = _read_word(args.word, None)
    report = pump_report(sample, w, args.k, args.K, extended, budget=args.budget)
    found = report.found
    payload = {
        "found": found is not None,
        "pieces": [p.render() for p in found.pieces] if found else None,
        "k": args.k,
        "K": args.K,
        "reason": report.reason,
    }
    return _result(args, payload, report.render() + "\n")


def _cmd_growth(args) -> int:
    resolved, alphabet = _resolve_over_alphabet(args)
    estimate = growth_degree(resolved.fn, alphabet, args.lengths, seed=args.seed)
    payload = {
        "slope": round(estimate.slope, 4),
        "classification": estimate.classification,
        "table": [list(row) for row in estimate.table],
    }
    return _result(args, payload, estimate.render() + "\n")


def _cmd_sort_check(args) -> int:
    report = check_sortable(interpretations.load(args.interp))
    payload = {
        "ok": report.ok,
        "sorts": report.sorts,
        "witness": report.witness.render() if report.witness else None,
    }
    return _result(args, payload, report.render() + "\n", 0 if report.ok else 1)


def _cmd_agree(args) -> int:
    if args.suite != "innsq":
        raise ValueError(f"unknown agreement suite {args.suite!r}")
    direct = resolve_function("innsq")
    via_pebble = resolve_function("pebble:innsq-pebble").fn
    via_interp = resolve_function("interp:innsq-interp").fn
    alphabet = direct.input_alphabet
    letters = sorted(alphabet.letters)
    rng = random.Random(args.seed)
    mismatch_lines: list[str] = []
    checked = 0
    stages = [("exhaustive", words_upto(alphabet, args.max_len))]
    randoms = [
        Word(tuple(rng.choices(letters, k=rng.randint(0, args.random_max_len))))
        for _ in range(args.random)
    ]
    stages.append(("random", iter(randoms)))
    for stage, stream in stages:
        for w in stream:
            expected = direct.fn(w)
            for label, fn in (("pebble", via_pebble), ("interp", via_interp)):
                got = fn(w)
                if got != expected:
                    mismatch_lines.append(
                        f"MISMATCH [{stage}/{label}] on {w.render()!r}: "
                        f"{got.render()!r} != {expected.render()!r}"
                    )
            checked += 1
    mismatches = len(mismatch_lines)
    verdict = "agree" if mismatches == 0 else "DISAGREE"
    payload = {
        "suite": "innsq",
        "checked": checked,
        "mismatches": mismatches,
        "mismatch_lines": mismatch_lines,
        "verdict": verdict,
    }
    text = "".join(line + "\n" for line in mismatch_lines) + (
        f"{checked} inputs checked (exhaustive <= {args.max_len} plus "
        f"{args.random} random): {verdict}\n"
    )
    return _result(args, payload, text, 0 if mismatches == 0 else 1)


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # the globals may be given before or after the verb; SUPPRESS keeps a
    # subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=_count, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="polyreglab",
        description="evaluate interpretations, transducers and combinator trees",
        parents=[common],
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    p = subs.add_parser("eval-interp", parents=[common])
    p.add_argument("interp")
    p.add_argument("word")
    p.add_argument("--origins", action="store_true")
    p.set_defaults(run=_cmd_eval_interp)

    p = subs.add_parser("eval-pebble", parents=[common])
    p.add_argument("tree")
    p.add_argument("word")
    p.set_defaults(run=_cmd_eval_pebble)

    p = subs.add_parser("run-2dft", parents=[common])
    p.add_argument("machine")
    p.add_argument("word")
    p.add_argument("--origins", action="store_true")
    p.set_defaults(run=_cmd_run_2dft)

    p = subs.add_parser("psi", parents=[common])
    p.add_argument("interp")
    p.add_argument("--iterate", type=_count, default=1, metavar="K")
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_psi)

    p = subs.add_parser("family", parents=[common])
    p.add_argument("k", type=_count)
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_family)

    p = subs.add_parser("image", parents=[common])
    p.add_argument("function")
    p.add_argument("--alphabet", type=_parse_alphabet)
    p.add_argument("--max-len", type=_count, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_image)

    p = subs.add_parser("check-dcomplete", parents=[common])
    p.add_argument("--prime", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--markers", type=_parse_alphabet, required=True)
    p.set_defaults(run=_cmd_check_dcomplete)

    p = subs.add_parser("pump", parents=[common])
    p.add_argument("sample")
    p.add_argument("word")
    p.add_argument("--k", type=_count, required=True)
    p.add_argument("--K", type=_count, required=True)
    p.add_argument("--extended", required=True)
    p.set_defaults(run=_cmd_pump)

    p = subs.add_parser("growth", parents=[common])
    p.add_argument("function")
    p.add_argument("--alphabet", type=_parse_alphabet)
    p.add_argument("--lengths", type=_parse_lengths, default="20:300:20")
    p.set_defaults(run=_cmd_growth)

    p = subs.add_parser("sort-check", parents=[common])
    p.add_argument("interp")
    p.set_defaults(run=_cmd_sort_check)

    p = subs.add_parser("agree", parents=[common])
    p.add_argument("suite")
    p.add_argument("--max-len", type=_count, default=5)
    p.add_argument("--random", type=_count, default=100)
    p.add_argument("--random-max-len", type=_count, default=40)
    p.set_defaults(run=_cmd_agree)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, value in (("format", "text"), ("seed", 12345), ("budget", DEFAULT_BUDGET)):
        if not hasattr(args, dest):
            setattr(args, dest, value)
    try:
        return args.run(args)
    except _EVAL_ERRORS as exc:
        if isinstance(exc, OSError):
            detail = str(exc)
        else:
            detail = exc.args[0] if exc.args else exc
        print(f"error: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
