import io
import json
import shlex
from pathlib import Path

import pytest

from polyreglab.cli import main
from test_interp import INTERP_READER_ERRORS
from test_pebble import POLYFUN_READER_ERRORS
from test_twoway import TRANSDUCER_READER_ERRORS

DATA = Path(__file__).parent / "data"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _readme_commands():
    """Each ``$ polyreglab ...`` line in the code blocks of README's
    "Command line" section, with the lines shown after it."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in section.split("```")[1::2]:
        for line in block.strip("\n").split("\n"):
            if line.startswith("$ polyreglab "):
                commands.append((shlex.split(line[len("$ polyreglab ") :]), []))
            else:
                commands[-1][1].append(line)
    return commands


def test_readme_command_line_prints_what_readme_shows(capsys, tmp_path, monkeypatch):
    """Every command of README's "Command line" section, run in order in
    one directory, prints exactly the lines README shows after it."""
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) == 7
    for argv, shown in commands:
        rc, out, _ = run(capsys, argv)
        assert rc in (0, 1), argv
        assert out == "".join(f"{line}\n" for line in shown), argv


def test_eval_interp_pinned(capsys):
    rc, out, err = run(capsys, ["eval-interp", "innsq-interp", "aba#baa#bb"])
    assert rc == 0
    assert out == "abaaba#baabaa#bbbb\n"
    assert err == ""


def test_eval_interp_origins(capsys):
    rc, out, _ = run(capsys, ["eval-interp", "squaring-family", "aaa", "--origins"])
    assert rc == 0
    assert out == "aabaab\n1,1 1,2 1,3 2,1 2,2 2,3\n"


def test_eval_interp_diagnostic_note_on_stderr(capsys):
    rc, out, err = run(capsys, ["eval-interp", "cross-sort-demo", "aaa"])
    assert rc == 0
    assert out == "\n"
    assert "order-not-linear" in err


def test_run_2dft_pinned(capsys):
    rc, out, _ = run(capsys, ["run-2dft", "reverse-blocks-ab", "aaa#aa", "--origins"])
    assert rc == 0
    assert out == "aabb#aaabbb\n5 6 5 6 4 1 2 3 1 2 3\n"


def test_eval_pebble(capsys):
    rc, out, _ = run(capsys, ["eval-pebble", "innsq-pebble", "a##b"])
    assert rc == 0
    assert out == "aa##bb\n"


def test_word_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("aba#baa#bb\n"))
    rc, out, _ = run(capsys, ["eval-interp", "innsq-interp", "-"])
    assert rc == 0
    assert out == "abaaba#baabaa#bbbb\n"


def test_family_then_eval(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, out, _ = run(capsys, ["family", "1"])
    assert rc == 0
    assert out == "wrote I_1.interp and I_1.markers.json\n"
    manifest = json.loads((tmp_path / "I_1.markers.json").read_text())
    assert manifest == {"k": 1, "levels": []}
    rc, out, _ = run(capsys, ["eval-interp", "I_1.interp", "aaa"])
    assert rc == 0
    assert out == "aabaab\n"


def test_family_manifest_lists_levels(capsys, tmp_path):
    target = tmp_path / "I_2.interp"
    rc, out, _ = run(capsys, ["family", "2", "-o", str(target)])
    assert rc == 0
    manifest = json.loads((tmp_path / "I_2.markers.json").read_text())
    assert manifest["levels"] == [
        {"level": 1, "club": "♣1", "box": "□1", "diamond": "◊1"}
    ]
    rc, out, _ = run(capsys, ["eval-interp", str(target), "aa♣1"])
    assert rc == 0
    assert out == "a b ◊1\n"  # spaced rendering: ◊1 is a multi-character token


def test_psi_verb_round_trips_through_files(capsys, tmp_path):
    target = tmp_path / "lifted.interp"
    rc, out, _ = run(capsys, ["psi", "squaring-family", "-o", str(target)])
    assert rc == 0
    rc, out, _ = run(capsys, ["eval-interp", str(target), "♣♣a♣♣♣a♣a♣♣"])
    assert rc == 0
    assert out == "a□□□◊◊◊a□□□◊b□□□◊◊a□◊◊◊a□◊b□◊◊\n"


def test_psi_prints_the_golden_lift(capsys):
    """The binder names the lift makes fresh (u2, z5, xh1, ...) are pinned."""
    rc, out, _ = run(capsys, ["psi", "innsq-interp"])
    assert rc == 0
    assert out == (DATA / "psi_innsq-interp.interp").read_text(encoding="utf-8")


def test_family_writes_the_golden_interp(capsys, tmp_path):
    target = tmp_path / "I_3.interp"
    rc, _, _ = run(capsys, ["family", "3", "-o", str(target)])
    assert rc == 0
    assert target.read_bytes() == (DATA / "family_3.interp").read_bytes()


@pytest.mark.parametrize(
    "interp, golden, code",
    [
        ("cross-sort-demo", "sort_check_cross-sort-demo.txt", 1),
        ("innsq-interp", "sort_check_innsq-interp.txt", 0),
        ("squaring-family", "sort_check_squaring-family.txt", 0),
        (str(DATA / "psi_innsq-interp.interp"), "sort_check_psi_innsq-interp.txt", 0),
        (str(DATA / "family_3.interp"), "sort_check_family_3.txt", 0),
    ],
)
def test_sort_check_prints_the_golden_text(capsys, interp, golden, code):
    """Every builtin of dimension 2, and the two goldens above: the sorts
    name the binders that renaming them apart makes fresh."""
    rc, out, _ = run(capsys, ["sort-check", interp])
    assert rc == code
    assert out == (DATA / golden).read_text(encoding="utf-8")


def test_image_matches_library_bytes(capsys, tmp_path):
    target = tmp_path / "innsq.sample"
    rc, out, _ = run(
        capsys,
        ["image", "innsq", "--alphabet", "a,#", "--max-len", "3", "-o", str(target)],
    )
    assert rc == 0
    golden = (DATA / "innsq_image_a_hash_3.sample").read_text(encoding="utf-8")
    assert target.read_text(encoding="utf-8") == golden


def _write_samples(capsys, tmp_path):
    prime = tmp_path / "prime.sample"
    base = tmp_path / "base.sample"
    rc, _, _ = run(
        capsys,
        ["image", "psi:squaring-family", "--max-len", "4", "-o", str(prime)],
    )
    assert rc == 0
    rc, _, _ = run(
        capsys,
        ["image", "interp:squaring-family", "--max-len", "2", "-o", str(base)],
    )
    assert rc == 0
    return prime, base


def test_check_dcomplete_pass_and_fail(capsys, tmp_path):
    prime, base = _write_samples(capsys, tmp_path)
    rc, out, _ = run(
        capsys,
        [
            "check-dcomplete",
            "--prime", str(prime),
            "--base", str(base),
            "--markers", "□,◊",
        ],
    )
    assert rc == 0
    assert "verdict: pass" in out
    rc, out, _ = run(
        capsys,
        [
            "check-dcomplete",
            "--prime", str(prime),
            "--base", str(base),
            "--markers", "□",
        ],
    )
    assert rc == 1
    assert "verdict: FAIL" in out


def test_pump_verbs(capsys, tmp_path):
    short = tmp_path / "short.sample"
    extended = tmp_path / "extended.sample"
    for path, bound in ((short, "4"), (extended, "12")):
        rc, _, _ = run(
            capsys,
            ["image", "identity", "--alphabet", "a", "--max-len", bound, "-o", str(path)],
        )
        assert rc == 0
    rc, out, _ = run(
        capsys,
        ["pump", str(short), "aaaa", "--k", "1", "--K", "1", "--extended", str(extended)],
    )
    assert rc == 0
    assert out == "u0='' v1='a' u1='aaa'\n"
    rc, out, _ = run(
        capsys,
        ["pump", str(short), "a", "--k", "1", "--K", "3", "--extended", str(extended)],
    )
    assert rc == 0
    assert out == "none (below pumping threshold)\n"


def test_sort_check_text(capsys):
    rc, out, _ = run(capsys, ["sort-check", "innsq-interp"])
    assert rc == 0
    assert out.startswith("sortable\n")
    assert "x3:1" in out and "y3:1" in out


def test_sort_check_failure_names_the_witness(capsys):
    rc, out, _ = run(capsys, ["sort-check", "cross-sort-demo"])
    assert rc == 1
    assert out == "not sortable\n  order: (leq x1 y2) merges sort 1 with sort 2\n"


def test_agree_small(capsys):
    rc, out, _ = run(capsys, ["agree", "innsq", "--max-len", "4", "--random", "25"])
    assert rc == 0
    assert out == "146 inputs checked (exhaustive <= 4 plus 25 random): agree\n"


def test_agree_json_keeps_its_mismatches_in_one_line(capsys, monkeypatch):
    """With ``pebble:innsq-pebble`` swapped for the identity, the suite
    disagrees and exits 1: under --format json stdout is one JSON line that
    holds the MISMATCH lines, and in text they come before the summary."""
    from polyreglab import cli
    from polyreglab.words import Alphabet

    resolve = cli.resolve_function

    def resolving(ref, alphabet=None):
        if ref == "pebble:innsq-pebble":
            return resolve("identity", Alphabet.of("a", "b", "#"))
        return resolve(ref, alphabet)

    monkeypatch.setattr(cli, "resolve_function", resolving)
    argv = ["agree", "innsq", "--max-len", "1", "--random", "0"]
    rc, out, err = run(capsys, ["--format", "json", *argv])
    assert (rc, err) == (1, "")
    assert out.count("\n") == 1 and out.endswith("\n")
    assert json.loads(out) == {
        "suite": "innsq",
        "checked": 4,
        "mismatches": 2,
        "mismatch_lines": [
            "MISMATCH [exhaustive/pebble] on 'a': 'a' != ''",
            "MISMATCH [exhaustive/pebble] on 'b': 'b' != ''",
        ],
        "verdict": "DISAGREE",
    }
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (1, "")
    assert out == (
        "MISMATCH [exhaustive/pebble] on 'a': 'a' != ''\n"
        "MISMATCH [exhaustive/pebble] on 'b': 'b' != ''\n"
        "4 inputs checked (exhaustive <= 1 plus 0 random): DISAGREE\n"
    )


# -- json format -----------------------------------------------------------------


def test_eval_interp_json_golden(capsys):
    rc, out, _ = run(capsys, ["--format", "json", "eval-interp", "innsq-interp", "a#a"])
    assert rc == 0
    assert out == '{"diagnostic": null, "origins": null, "output": "a#a"}\n'


def test_global_flags_work_on_either_side(capsys):
    _, before, _ = run(capsys, ["--format", "json", "eval-interp", "innsq-interp", "a#a"])
    _, after, _ = run(capsys, ["eval-interp", "innsq-interp", "a#a", "--format", "json"])
    assert before == after


def test_sort_check_json_golden(capsys):
    rc, out, _ = run(capsys, ["--format", "json", "sort-check", "squaring-family"])
    assert rc == 0
    assert out == (
        '{"ok": true, "sorts": {"letter a": {"u2": 1, "u3": 2, "x1": 1, "x2": 2}, '
        '"letter b": {"u2": 1, "u3": 2, "x1": 1, "x2": 2}, '
        '"order": {"x1": 1, "x2": 2, "y1": 1, "y2": 2}}, "witness": null}\n'
    )


def test_growth_json(capsys):
    rc, out, _ = run(capsys, ["growth", "innsq", "--lengths", "20:100:20", "--format", "json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["table"] == [[20, 110], [40, 420], [60, 930], [80, 1640], [100, 2550]]
    assert payload["slope"] == pytest.approx(1.9529, abs=1e-4)
    assert payload["classification"].startswith("degree")


def test_growth_refuses_repeated_lengths(capsys):
    """A repeated length would be fitted as several points at one x."""
    rc, out, err = run(capsys, ["growth", "innsq", "--lengths", "1,1,2"])
    assert (rc, out) == (3, "")
    assert "strictly ascending" in err


def test_image_json(capsys):
    rc, out, _ = run(
        capsys,
        ["image", "identity", "--alphabet", "a", "--max-len", "2", "--format", "json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["outputs"] == [["", ""], ["a", "a"], ["aa", "aa"]]


def test_image_json_outputs_read_back_unambiguously(capsys):
    """``image``'s JSON spells each output and witness as its ``.sample``
    line does: the 13 outputs of identity over {♣, 1, ♣1} up to length 2
    are 13 distinct strings (``♣1 `` is the letter ♣1, ``♣1`` is ♣ then 1),
    and each pair is a line of the text the verb prints."""
    argv = ["image", "identity", "--alphabet", "♣,1,♣1", "--max-len", "2"]
    rc, out, _ = run(capsys, ["--format", "json", *argv])
    assert rc == 0
    outputs = json.loads(out)["outputs"]
    assert len(outputs) == len({output for output, _ in outputs}) == 13
    rc, text, _ = run(capsys, argv)
    assert rc == 0 and text.splitlines()[1:] == ["\t".join(pair) for pair in outputs]


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """The directory of the .sample files the verbs that read one are given."""
    root = tmp_path_factory.mktemp("samples")
    for name, argv in {
        "prime": ["psi:squaring-family", "--max-len", "3"],
        "base": ["interp:squaring-family", "--max-len", "2"],
        "short": ["identity", "--alphabet", "a", "--max-len", "4"],
        "extended": ["identity", "--alphabet", "a", "--max-len", "12"],
    }.items():
        assert main(["image", *argv, "-o", str(root / f"{name}.sample")]) == 0
    return root


# Each verb that takes --format, with its argv ({} stands for the samples'
# directory), its exit code, and the stdout and stderr it prints as text.
_FORMAT_CASES = {
    "eval-interp": (
        ["eval-interp", "squaring-family", "aaa", "--origins"],
        0,
        "aabaab\n1,1 1,2 1,3 2,1 2,2 2,3\n",
        "",
    ),
    "eval-interp-note": (
        ["eval-interp", "cross-sort-demo", "aaa"],
        0,
        "\n",
        "note: order-not-linear: reflexivity violated on (2, 1)\n",
    ),
    "eval-pebble": (["eval-pebble", "innsq-pebble", "a##b"], 0, "aa##bb\n", ""),
    "run-2dft": (
        ["run-2dft", "reverse-blocks-ab", "aaa#aa", "--origins"],
        0,
        "aabb#aaabbb\n5 6 5 6 4 1 2 3 1 2 3\n",
        "",
    ),
    "image": (
        ["image", "identity", "--alphabet", "a", "--max-len", "2"],
        0,
        '{"count": 3, "function": "identity", "input-alphabet": ["a"], "max-len": 2}\n'
        "\t\na\ta\naa\taa\n",
        "",
    ),
    "check-dcomplete": (
        ["check-dcomplete", "--prime", "{}/prime.sample", "--base", "{}/base.sample", "--markers", "□"],
        1,
        "erasure direction: 5 outputs checked, 2 failures, 1 unknown (beyond comparison bound)\n"
        "  FAIL erase('ab◊') = 'ab◊' not in base image\n"
        "  FAIL erase('a□◊b□') = 'a◊b' not in base image\n"
        "delta direction: 2 witnesses checked, 1 failures, 1 vacuous (fewer than two inner blocks)\n"
        "  FAIL on base output 'ab': unexpected token '◊' at output position 3\n"
        "verdict: FAIL\n",
        "",
    ),
    "pump-found": (
        ["pump", "{}/short.sample", "aaaa", "--k", "1", "--K", "1", "--extended", "{}/extended.sample"],
        0,
        "u0='' v1='a' u1='aaa'\n",
        "",
    ),
    "pump-below": (
        ["pump", "{}/short.sample", "a", "--k", "1", "--K", "3", "--extended", "{}/extended.sample"],
        0,
        "none (below pumping threshold)\n",
        "",
    ),
    "growth": (
        ["growth", "innsq", "--lengths", "2:6:2"],
        0,
        "  length  max |out|\n       2          2\n       4          6\n       6         12\n"
        "slope 1.626 (degree ~ 1.63)\n",
        "",
    ),
    "sort-check": (
        ["sort-check", "cross-sort-demo"],
        1,
        "not sortable\n  order: (leq x1 y2) merges sort 1 with sort 2\n",
        "",
    ),
    "agree": (
        ["agree", "innsq", "--max-len", "2", "--random", "3"],
        0,
        "16 inputs checked (exhaustive <= 2 plus 3 random): agree\n",
        "",
    ),
}


@pytest.mark.parametrize("case", list(_FORMAT_CASES))
def test_every_verb_prints_text_or_one_json_line(capsys, samples, case):
    """Each verb prints its pinned text, or under --format json one line
    that parses as JSON and nothing on stderr, with the same exit code."""
    template, code, text_out, text_err = _FORMAT_CASES[case]
    argv = [arg.replace("{}", str(samples)) for arg in template]
    assert run(capsys, argv) == (code, text_out, text_err)
    rc, out, err = run(capsys, ["--format", "json", *argv])
    assert (rc, err) == (code, "")
    assert out.count("\n") == 1 and out.endswith("\n")
    assert isinstance(json.loads(out), dict)


# -- exit codes -------------------------------------------------------------------


def test_unknown_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["image", "innsq"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["psi", "squaring-family", "--iterate", "-2"],
        ["image", "squaring-family", "--max-len", "-1"],
        ["agree", "innsq", "--max-len", "-1"],
        ["agree", "innsq", "--random", "-1"],
        ["agree", "innsq", "--random-max-len", "-1"],
        ["image", "innsq", "--budget", "-1", "--max-len", "1"],
        ["pump", "sample", "--K", "-1", "ab", "--k", "1", "--extended", "ab"],
        ["pump", "sample", "--k", "-1", "ab", "--K", "1", "--extended", "ab"],
        ["family", "-1"],
    ],
    ids=lambda argv: "".join(argv[0:1] + argv[2:3]),
)
def test_negative_count_is_usage_error(capsys, tmp_path, argv):
    """A count argument below 0 is refused before any work is done: exit
    code 2, a usage message naming the argument, no output and no file."""
    name, value = (argv[2], argv[3]) if len(argv) > 2 else ("k", argv[1])
    path = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + ([] if argv[0] in ("agree", "pump") else ["-o", str(path)]))
    assert exc.value.code == 2
    assert not path.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {name}: must be at least 0, not {value}" in captured.err


def test_missing_file_is_eval_error(capsys):
    rc, out, err = run(capsys, ["eval-interp", "no-such.interp", "aaa"])
    assert rc == 3
    assert err.startswith("error: ")


_MALFORMED_LENGTHS = {
    "1:5:0": "the step of a range must not be 0",
    "x": "invalid int value: 'x'",
    "1:x:2": "invalid int value: 'x'",
    "1:2:3:4": "a range has 2 or 3 fields, not 4",
}


@pytest.mark.parametrize("value", list(_MALFORMED_LENGTHS))
def test_malformed_lengths_is_usage_error(capsys, value):
    """A --lengths that does not parse is a usage error that says why,
    without naming the parser's own function."""
    with pytest.raises(SystemExit) as exc:
        main(["growth", "innsq", "--lengths", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --lengths: {_MALFORMED_LENGTHS[value]}\n" in captured.err
    assert "_parse_lengths" not in captured.err


_INTERP = "dim 1\ninput-alphabet a\noutput-alphabet o\n(letter o {})\n(order (leq x1 y1))\n"

_LIBRARY_ERRORS = {
    "WordError": ({}, ["run-2dft", "reverse-blocks-ab", "abc"]),
    "LogicError": ({"f.interp": _INTERP.format("(foo a x1)")}, ["eval-interp", "f.interp", "a"]),
    "InterpError": ({"f.interp": _INTERP.format("(letter b x1)")}, ["eval-interp", "f.interp", "a"]),
    "SexprError": ({"f.interp": _INTERP.format("(letter a x1")}, ["eval-interp", "f.interp", "a"]),
    "TransducerError": ({"f.2dft": "states q\ninit r\n"}, ["run-2dft", "f.2dft", "a"]),
    "PebbleError": ({"f.pfn": "(frob block-marker)\n"}, ["eval-pebble", "f.pfn", "a"]),
    "PsiError": ({"f.interp": _INTERP.format("(letter a x1)")}, ["psi", "f.interp"]),
    "BudgetError": ({}, ["image", "innsq", "--max-len", "3", "--budget", "1"]),
    "ValueError": ({}, ["growth", "innsq", "--lengths", "0:4"]),
}


@pytest.mark.parametrize("error", sorted(_LIBRARY_ERRORS))
def test_library_errors_are_eval_errors(capsys, tmp_path, monkeypatch, error):
    """Each library error class reaches the user as exit code 3 and one
    ``error:`` line, with no traceback.  Without the CLI's catch, the same
    input raises that class.  Lengths that parse but are not ascending and
    positive are refused by ``growth_degree``: an evaluation error too."""
    files, argv = _LIBRARY_ERRORS[error]
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    monkeypatch.setattr("polyreglab.cli._EVAL_ERRORS", ())
    with pytest.raises(Exception) as caught:
        main(argv)
    assert type(caught.value).__name__ == error


_READER_COMMANDS = [
    ("eval-interp", "f.interp", INTERP_READER_ERRORS),
    ("run-2dft", "f.2dft", TRANSDUCER_READER_ERRORS),
    ("eval-pebble", "f.pfn", POLYFUN_READER_ERRORS),
]
_READER_CASES = [
    (command, name, case, *cases[case])
    for command, name, cases in _READER_COMMANDS
    for case in sorted(cases)
]


@pytest.mark.parametrize(
    "command, name, case, text, message",
    _READER_CASES,
    ids=[f"{command}-{case}" for command, _, case, *_ in _READER_CASES],
)
def test_malformed_files_are_eval_errors(
    capsys, tmp_path, monkeypatch, command, name, case, text, message
):
    """Each malformed ``.interp``, ``.2dft`` and ``.pfn`` file of the
    readers' tests makes its command exit 3 with the reader's message on
    one ``error:`` line, and no traceback."""
    (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, [command, name, "a"]) == (3, "", f"error: {message}\n")


def test_image_over_the_budget_is_refused_before_counting(capsys):
    """``image`` refuses a max length whose inputs pass the budget without
    summing every length's count: the message names the budget, not a
    count, for an alphabet of three letters and of one."""
    for argv, max_len in (
        (["image", "innsq"], 100_000),
        (["image", "identity", "--alphabet", "a"], 100_000_000),
    ):
        rc, out, err = run(capsys, [*argv, "--max-len", str(max_len)])
        assert (rc, out) == (3, "")
        assert err == (
            f"error: the inputs up to length {max_len} exceed the budget of 5000000; "
            "try a smaller max length\n"
        )


def _nested_interp(tmp_path, depth, wrap="(not {})"):
    body = "(letter a x1)"
    for _ in range(depth):
        body = wrap.format(body)
    path = tmp_path / f"{wrap[1:4]}{depth}.interp"
    path.write_text(
        "dim 1\ninput-alphabet a\noutput-alphabet o\n"
        f"(letter o {body})\n(order (leq x1 y1))\n",
        encoding="utf-8",
    )
    return str(path)


def test_deep_nesting_is_eval_error(capsys, tmp_path):
    deep = [_nested_interp(tmp_path, 3000)]
    for path in deep:
        rc, out, err = run(capsys, ["eval-interp", path, "aa"])
        assert rc == 3
        assert err.startswith("error: ")
        assert "Traceback" not in err
    rc, out, _ = run(capsys, ["eval-interp", _nested_interp(tmp_path, 600), "aa"])
    assert rc == 0
    assert out == "oo\n"
    rc, out, _ = run(capsys, ["eval-interp", _nested_interp(tmp_path, 600, "(and (max x1) {})"), "aa"])
    assert rc == 0
    assert out == "o\n"


def _nesting(text):
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


# Chains of wrappers, taken in turn, around (letter a x1); each wrapper
# nests its hole {} as deep as the others, and {k} is its level.
_DEEP_CHAINS = {
    "not": ["(not {})"],
    "and": ["(and (leq x1 x1) {})"],
    "or": ["(or (letter c x1) {})"],
    "implies": ["(implies (leq x1 x1) {})"],
    "and-or": ["(and (leq x1 x1) {})", "(or {} (letter c x1))"],
    "quantifiers": ["(exists z{k} {})", "(forall z{k} {})"],
    "exists-and": ["(exists z (and (leq z x1) {}))"],
}


@pytest.mark.parametrize("chain", sorted(_DEEP_CHAINS))
def test_eval_interp_reads_formulas_max_depth_deep(capsys, tmp_path, chain):
    """Under Python's default recursion limit, a formula file whose deepest
    list is exactly MAX_DEPTH deep evaluates, and one level more is refused."""
    from polyreglab.sexpr import MAX_DEPTH

    wraps = _DEEP_CHAINS[chain]
    before = wraps[0].split("{}")[0]
    hole = before.count("(") - before.count(")")  # how deep each wrapper nests its hole
    levels = (MAX_DEPTH - 2) // hole  # inside (letter o ...), around (letter a x1)
    for extra, code, out in [(0, 0, "o\n"), (1, 3, "")]:
        body = "(letter a x1)"
        for k in reversed(range(levels + extra)):
            body = wraps[k % len(wraps)].format(body, k=k)
        text = f"dim 1\ninput-alphabet a b c\noutput-alphabet o\n(letter o {body})\n(order (leq x1 y1))\n"
        assert _nesting(text) == MAX_DEPTH + extra * hole
        path = tmp_path / f"{chain}{extra}.interp"
        path.write_text(text, encoding="utf-8")
        rc, got, err = run(capsys, ["eval-interp", str(path), "ab"])
        assert (rc, got) == (code, out), err
        if code:
            assert err == f"error: expression nests deeper than {MAX_DEPTH} levels\n"


def _called_from(depth, fn):
    """``fn()`` called ``depth`` frames deeper than the caller."""
    return fn() if depth == 0 else _called_from(depth - 1, fn)


def test_deep_chain_from_a_deep_stack_is_refused(capsys, tmp_path):
    """The MAX_DEPTH-deep quantifier chain, a plan 700 units deep, evaluates
    from 0 and 200 frames deep under the default recursion limit; from 300
    frames deep its query raises LogicError, naming the plan's depth and
    the frames left, instead of RecursionError, the same evaluator answers
    again from a shallow frame, and the CLI reports the error with exit
    code 3."""
    from polyreglab.interp import eval_interp, parse_interp
    from polyreglab.logic import FormulaEvaluator, LogicError, RowSpace
    from polyreglab.sexpr import MAX_DEPTH
    from polyreglab.words import Word

    body = "(letter a x1)"
    for k in reversed(range(MAX_DEPTH - 2)):
        body = _DEEP_CHAINS["quantifiers"][k % 2].format(body, k=k)
    text = f"dim 1\ninput-alphabet a b c\noutput-alphabet o\n(letter o {body})\n(order (leq x1 y1))\n"
    interp, u = parse_interp(text), Word.parse("ab")
    plan = interp.letters_plan
    assert plan.depth == 700
    for depth in (0, 200):
        assert _called_from(depth, lambda: eval_interp(interp, u).word().render()) == "o"
    too_deep = r"plan nests 700 units deep, and \d+ of the recursion limit's \d+ frames are left"
    with pytest.raises(LogicError, match=too_deep):
        _called_from(300, lambda: eval_interp(interp, u))
    ev = FormulaEvaluator(plan, RowSpace(u, 1))
    with pytest.raises(LogicError, match=too_deep):
        _called_from(300, lambda: ev.at(()))
    assert ev.at(()) == (0b01,)  # a stands at position 1 only
    path = tmp_path / "chain.interp"
    path.write_text(text, encoding="utf-8")
    rc, out, err = _called_from(300, lambda: run(capsys, ["eval-interp", str(path), "ab"]))
    assert (rc, out) == (3, "")
    assert err.startswith("error: the formula's plan nests 700 units deep") and "Traceback" not in err


def test_psi_lifts_a_600_deep_formula(capsys, tmp_path):
    """psi writes the lift of a formula 600 nots deep, and eval-interp reads
    it back; the nots cancel, so it is the lift of squaring-family."""
    from polyreglab.interp import builtin_interp, render_interp

    text = render_interp(builtin_interp("squaring-family"))
    inner = "(and (not (max x1)) (not (max x2)))"
    text = text.replace(f"(letter a {inner})", f"(letter a {'(not ' * 600}{inner}{')' * 600})")
    source, lifted = tmp_path / "deep.interp", tmp_path / "lifted.interp"
    source.write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, ["psi", str(source), "-o", str(lifted)])
    assert rc == 0, err
    rc, out, _ = run(capsys, ["eval-interp", str(lifted), "♣♣a♣♣♣a♣a♣♣"])
    assert rc == 0
    assert out == "a□□□◊◊◊a□□□◊b□□□◊◊a□◊◊◊a□◊b□◊◊\n"


def test_word_outside_alphabet_is_eval_error(capsys):
    rc, out, err = run(capsys, ["run-2dft", "reverse-blocks-ab", "abc"])
    assert rc == 3
    assert "error:" in err


def test_unknown_agreement_suite_is_eval_error(capsys):
    rc, out, err = run(capsys, ["agree", "other"])
    assert rc == 3
    assert "unknown agreement suite" in err


def test_relative_head_resolves_from_the_tree_file(capsys, tmp_path, monkeypatch):
    """A .pfn naming its head as a .2dft file beside it works through every
    verb that takes a FN, as it does through eval-pebble."""
    from polyreglab.twoway import builtin_regular_fn, render_transducer

    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "bm.2dft").write_text(
        render_transducer(builtin_regular_fn("block-marker").transducer), encoding="utf-8"
    )
    branches = "((• (reg marked-block-copy)) (# (const # #)))"
    (sub / "t.pfn").write_text(f"(pebble bm.2dft {branches})\n", encoding="utf-8")
    (tmp_path / "ref.pfn").write_text(f"(pebble block-marker {branches})\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    rc, out, err = run(capsys, ["eval-pebble", "sub/t.pfn", "ab#b#"])
    assert (rc, out, err) == (0, "ab##b##\n", "")
    for ref in ("pebble:sub/t.pfn", "sub/t.pfn"):
        for verb in (["image", "--max-len", "3"], ["growth", "--lengths", "4:12:4"]):
            argv = verb[:1] + [ref] + verb[1:] + ["--format", "json"]
            rc, out, err = run(capsys, argv)
            assert rc == 0 and err == "", (argv, err)
            want_argv = verb[:1] + ["pebble:ref.pfn"] + verb[1:] + ["--format", "json"]
            _, want, _ = run(capsys, want_argv)
            got, expected = json.loads(out), json.loads(want)
            assert got.pop("function", "pebble:sub/t.pfn") == "pebble:sub/t.pfn"
            expected.pop("function", None)
            assert got == expected, argv


# A machine over {# a b} that sweeps right, then on the right endmarker
# bounces back forever (loop) or emits an a and stops (endmark).
_FAULTY_BRANCHES = {
    "loop": ("accept ", "go > -> go L"),
    "endmark": ("accept done", "go > -> done S a"),
}


@pytest.mark.parametrize("machine", sorted(_FAULTY_BRANCHES))
def test_blind_branch_errors_read_as_the_branch_run(capsys, tmp_path, machine):
    """A blind branch that never halts, or emits on an endmarker, fails
    eval-pebble with the message run-2dft gives for that machine and word."""
    accept, last_row = _FAULTY_BRANCHES[machine]
    rows = ["go < -> go R", "go # -> go R", "go a -> go R", "go b -> go R", last_row]
    head = [f"name {machine}", "states go done", "init go", accept, "input # a b", "output a"]
    table = "\n".join(head + rows) + "\n"
    (tmp_path / f"{machine}.2dft").write_text(table, encoding="utf-8")
    tree = f"(blind block-marker ((• (reg {machine}.2dft)) (# (const #))))\n"
    (tmp_path / "t.pfn").write_text(tree, encoding="utf-8")
    word = "ab#b#a"
    rc, out, err = run(capsys, ["eval-pebble", str(tmp_path / "t.pfn"), word])
    want = run(capsys, ["run-2dft", str(tmp_path / f"{machine}.2dft"), word])
    assert want[0] == 3 and want[2].startswith("error: ")
    assert (rc, out, err) == want


# Each definition file, under the name it is saved as, and the builtin it
# renders, with every verb that takes one of its kind; {} stands for either.
_SAME_FILE_VERBS = {
    "interp": (
        "sq.txt",
        "squaring-family",
        [
            ["eval-interp", "{}", "aaa", "--origins"],
            ["sort-check", "{}"],
            ["psi", "{}"],
            ["image", "interp:{}", "--max-len", "3"],
            ["image", "psi:{}", "--max-len", "3"],
            ["growth", "interp:{}", "--lengths", "2:6:2"],
        ],
    ),
    "2dft": (
        "rb.2dft",
        "reverse-blocks-ab",
        [
            ["run-2dft", "{}", "aaa#aa", "--origins"],
            ["image", "{}", "--max-len", "3"],
            ["growth", "{}", "--lengths", "4:12:4"],
        ],
    ),
    "pebble": (
        "tree.pfn",
        "innsq-pebble",
        [
            ["eval-pebble", "{}", "ab#b#"],
            ["image", "{}", "--max-len", "3"],
            ["growth", "{}", "--lengths", "4:12:4"],
        ],
    ),
}


def test_every_verb_takes_the_same_definition_file(capsys, tmp_path, monkeypatch):
    """A definition file gives each verb that takes its kind the output the
    builtin it renders gives, whatever the file is called."""
    from polyreglab.interp import builtin_interp, render_interp
    from polyreglab.pebble import builtin_polyfun, render_polyfun
    from polyreglab.twoway import builtin_regular_fn, render_transducer

    monkeypatch.chdir(tmp_path)
    texts = {
        "sq.txt": render_interp(builtin_interp("squaring-family")),
        "rb.2dft": render_transducer(builtin_regular_fn("reverse-blocks-ab").transducer),
        "tree.pfn": render_polyfun(builtin_polyfun("innsq-pebble")),
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")

    for kind, (path, builtin, verbs) in _SAME_FILE_VERBS.items():
        for template in verbs:
            outputs = []
            for ref in (path, builtin):
                argv = [arg.replace("{}", ref) if "{}" in arg else arg for arg in template]
                rc, out, err = run(capsys, argv + ["--format", "json"])
                assert (rc, err) == (0, ""), (argv, err)
                if argv[0] == "image":
                    payload = json.loads(out)
                    fn = argv[1] if ":" in argv[1] else f"{kind}:{argv[1]}"
                    assert payload.pop("function") == fn, argv
                    out = payload
                outputs.append(out)
            assert outputs[0] == outputs[1], template
