"""Command-line front door.

Every verb is a thin adapter over the library: results are byte-identical
to direct calls.  Exit codes: 0 success, 1 a check failed (disagreement,
unsortable, incomplete report), 2 usage, 3 evaluation error.
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
    pump_search,
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
from .words import Alphabet, Word

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
    if "," in text:
        tokens = [t for t in text.split(",") if t]
    else:
        tokens = list(text)
    return Alphabet.of(*tokens)


def _count(text: str) -> int:
    """An int of at least 0, for the options that count; a usage error
    (exit code 2) otherwise."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def _parse_lengths(text: str) -> list[int]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 2:
            lo, hi, step = int(parts[0]), int(parts[1]), 1
        elif len(parts) == 3:
            lo, hi, step = (int(p) for p in parts)
        else:
            raise ValueError(f"bad length range {text!r}")
        return list(range(lo, hi + 1, step))
    return [int(p) for p in text.split(",") if p]


def _resolve_over_alphabet(args) -> tuple[ResolvedFn, Alphabet]:
    """``args.function`` resolved, and the alphabet to run it over:
    ``--alphabet`` if given, else the function's own."""
    alphabet = _parse_alphabet(args.alphabet) if args.alphabet else None
    resolved = resolve_function(args.function, alphabet)
    alphabet = alphabet or resolved.input_alphabet
    if alphabet is None:
        raise ValueError(f"{args.function!r} has no intrinsic alphabet; pass --alphabet")
    return resolved, alphabet


def _emit(path: str | None, text: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _origins_line(annotated) -> str:
    return " ".join(",".join(str(i) for i in orig) for _, orig in annotated)


# -- verbs ---------------------------------------------------------------------


def _cmd_eval_interp(args) -> int:
    interp = interpretations.load(args.interp)
    w = _read_word(args.word, interp.input_alphabet)
    result = eval_interp_details(interp, w)
    if args.format == "json":
        payload = {
            "output": result.word().render(),
            "origins": [list(o) for _, o in result.output] if args.origins else None,
            "diagnostic": result.diagnostic.to_json() if result.diagnostic else None,
        }
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    else:
        print(result.word().render())
        if args.origins:
            print(_origins_line(result.output))
        if result.diagnostic:
            print(
                f"note: {result.diagnostic.kind}: {result.diagnostic.detail}",
                file=sys.stderr,
            )
    return 0


def _cmd_eval_pebble(args) -> int:
    tree = polyfuns.load(args.tree)
    w = _read_word(args.word, tree.input_alphabet)
    out = apply(tree, w)
    if args.format == "json":
        print(json.dumps({"output": out.render()}, ensure_ascii=False, sort_keys=True))
    else:
        print(out.render())
    return 0


def _cmd_run_2dft(args) -> int:
    rf = regular_fns.load(args.machine)
    w = _read_word(args.word, rf.input_alphabet)
    annotated = rf(w)
    if args.format == "json":
        payload = {
            "output": annotated.word().render(),
            "origins": [list(o) for _, o in annotated] if args.origins else None,
        }
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    else:
        print(annotated.word().render())
        if args.origins:
            print(_origins_line(annotated))
    return 0


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
    if args.format == "json":
        payload = {
            "function": sample.function_id,
            "input-alphabet": sorted(alphabet.letters),
            "max-len": sample.max_len,
            "count": len(sample),
            "outputs": [
                [out.render(), sample.outputs[out].render()]
                for out in sample.sorted_outputs()
            ],
        }
        _emit(args.output, json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n")
    else:
        _emit(args.output, sample.render())
    return 0


def _cmd_check_dcomplete(args) -> int:
    with open(args.prime, encoding="utf-8") as handle:
        prime = LanguageSample.parse(handle.read())
    with open(args.base, encoding="utf-8") as handle:
        base = LanguageSample.parse(handle.read())
    markers = _parse_alphabet(args.markers)
    report = check_dcomplete(prime, base, markers)
    if args.format == "json":
        print(json.dumps(report.to_json(), ensure_ascii=False, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.passed else 1


def _cmd_pump(args) -> int:
    with open(args.sample, encoding="utf-8") as handle:
        sample = LanguageSample.parse(handle.read())
    with open(args.extended, encoding="utf-8") as handle:
        extended = LanguageSample.parse(handle.read())
    w = _read_word(args.word, None)
    found = pump_search(sample, w, args.k, args.K, extended, budget=args.budget)
    if args.format == "json":
        payload = {
            "found": found is not None,
            "pieces": [p.render() for p in found.pieces] if found else None,
            "k": args.k,
            "K": args.K,
            "reason": "below pumping threshold" if len(w) < args.K else None,
        }
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    elif found:
        print(found.render())
    elif len(w) < args.K:
        print("none (below pumping threshold)")
    else:
        print("none")
    return 0


def _cmd_growth(args) -> int:
    resolved, alphabet = _resolve_over_alphabet(args)
    estimate = growth_degree(resolved.fn, alphabet, args.lengths, seed=args.seed)
    if args.format == "json":
        payload = {
            "slope": round(estimate.slope, 4),
            "classification": estimate.classification,
            "table": [list(row) for row in estimate.table],
        }
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    else:
        print(estimate.render())
    return 0


def _cmd_sort_check(args) -> int:
    interp = interpretations.load(args.interp)
    report = check_sortable(interp)
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "sorts": report.sorts,
            "witness": report.witness.render() if report.witness else None,
        }
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_agree(args) -> int:
    if args.suite != "innsq":
        raise ValueError(f"unknown agreement suite {args.suite!r}")
    direct = resolve_function("innsq")
    via_pebble = resolve_function("pebble:innsq-pebble").fn
    via_interp = resolve_function("interp:innsq-interp").fn
    alphabet = direct.input_alphabet
    letters = sorted(alphabet.letters)
    rng = random.Random(args.seed)
    mismatches = 0
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
                    mismatches += 1
                    print(
                        f"MISMATCH [{stage}/{label}] on {w.render()!r}: "
                        f"{got.render()!r} != {expected.render()!r}"
                    )
            checked += 1
    verdict = "agree" if mismatches == 0 else "DISAGREE"
    if args.format == "json":
        payload = {
            "suite": "innsq",
            "checked": checked,
            "mismatches": mismatches,
            "verdict": verdict,
        }
        print(json.dumps(payload, ensure_ascii=False, sort_keys=True))
    else:
        print(
            f"{checked} inputs checked (exhaustive <= {args.max_len} plus "
            f"{args.random} random): {verdict}"
        )
    return 0 if mismatches == 0 else 1


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
    p.add_argument("k", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_family)

    p = subs.add_parser("image", parents=[common])
    p.add_argument("function")
    p.add_argument("--alphabet")
    p.add_argument("--max-len", type=_count, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(run=_cmd_image)

    p = subs.add_parser("check-dcomplete", parents=[common])
    p.add_argument("--prime", required=True)
    p.add_argument("--base", required=True)
    p.add_argument("--markers", required=True)
    p.set_defaults(run=_cmd_check_dcomplete)

    p = subs.add_parser("pump", parents=[common])
    p.add_argument("sample")
    p.add_argument("word")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--K", type=_count, required=True)
    p.add_argument("--extended", required=True)
    p.set_defaults(run=_cmd_pump)

    p = subs.add_parser("growth", parents=[common])
    p.add_argument("function")
    p.add_argument("--alphabet")
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
