import io
import json
import random
import re
import sys

import pytest

from feathergo import cli
from feathergo.cli import main
from feathergo.dicttrans import translate_program
from feathergo.parser import tokenize
from feathergo.syntax import pretty_print
from feathergo.typecheck import Decls

from conftest import CORPUS, CORPUS_FILES, load, read


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus_path(name: str) -> str:
    return str(CORPUS / name)


def test_parse_prints_canonical_form(capsys):
    code, out, _ = run_cli(capsys, "parse", corpus_path("gtfunc.fgg"))
    assert code == 0
    assert out.startswith("package main\n")
    assert out == read("gtfunc.fgg")  # corpus files are stored canonically


def test_typecheck_ok(capsys):
    code, out, _ = run_cli(capsys, "typecheck", corpus_path("fgg_list.fgg"))
    assert code == 0 and out.strip() == "ok"


def test_typecheck_failing_listing(capsys):
    code, _, err = run_cli(capsys, "typecheck", corpus_path("fgg_list_fail.fgg"))
    assert code == 1
    assert "Function[bool, bool]" in err


def test_typecheck_json_diagnostics(capsys):
    code, _, err = run_cli(capsys, "typecheck", "--json", corpus_path("fgg_list_fail.fgg"))
    assert code == 1
    rec = json.loads(err.strip().splitlines()[0])
    assert rec["severity"] == "error" and "Function[bool, bool]" in rec["message"]


def test_parse_error_reports_position(capsys, tmp_path):
    bad = tmp_path / "bad.fgg"
    bad.write_text("package main\ntype Nil struct\nfunc main() { _ = Nil{} }\n")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert err.startswith(str(bad) + ":3:1:")


def test_run_fg_listing_panics(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("fg_list.fg"))
    assert code == 0
    assert out.strip() == "panic: Unable to assert bool as type Ord"


def test_run_max_steps(capsys):
    code, out, _ = run_cli(capsys, "run", corpus_path("omega.fgg"), "--max-steps", "100")
    assert code == 0 and "budget exhausted after 100 steps" in out
    code, out, _ = run_cli(capsys, "run", corpus_path("nilmain.fgg"), "--max-steps", "0")
    assert code == 0 and out == "Nil{}\n"  # a value main needs no steps


def test_run_trace(capsys):
    code, out, err = run_cli(capsys, "run", corpus_path("arith.fgg"), "--trace")
    assert code == 0 and out.strip() == "2"
    rules = [line.split(":")[0] for line in err.strip().splitlines()]
    assert rules == ["r-ext-binop"] * 3


def test_translate_run_pipeline(capsys, tmp_path):
    # translate then run prints the same value as running the source
    out_fg = tmp_path / "gtfunc.fg"
    code, _, _ = run_cli(capsys, "translate", corpus_path("gtfunc.fgg"), "--mode", "dict", "-o", str(out_fg))
    assert code == 0
    code, translated_out, _ = run_cli(capsys, "run", str(out_fg))
    assert code == 0
    code, source_out, _ = run_cli(capsys, "run", corpus_path("gtfunc.fgg"))
    assert code == 0
    assert translated_out == source_out == "false\n"


def test_translate_emit_inventory(capsys, tmp_path):
    out_fg = tmp_path / "nil.fg"
    code, out, _ = run_cli(
        capsys, "translate", corpus_path("nilmain.fgg"), "--mode", "dict", "-o", str(out_fg), "--emit-inventory"
    )
    assert code == 0
    manifest = json.loads(out)
    names = [d["name"] for d in manifest["declarations"]]
    assert "Any" in names and "Nil_meta" in names


def test_translate_erasure_mode_warns_on_asserts(capsys, tmp_path):
    out_fg = tmp_path / "typerep_erased.fg"
    code, _, err = run_cli(capsys, "translate", corpus_path("typerep.fgg"), "--mode", "erasure", "-o", str(out_fg))
    assert code == 0
    assert "does not preserve assertion behaviour" in err
    code, out, _ = run_cli(capsys, "run", str(out_fg))
    assert code == 0 and "panic" not in out  # the erased program returns


def test_cosim_json_report(capsys):
    code, out, _ = run_cli(capsys, "cosim", corpus_path("typerep.fgg"), "--report", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert all(r["matched"] for r in rep["records"])
    assert rep["terminal"]["kind"] == "panic" and rep["terminal"]["both_sides_agree"]


def test_cosim_steps_budget(capsys):
    code, out, _ = run_cli(capsys, "cosim", corpus_path("omega.fgg"), "--steps", "20", "--report", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["terminal"]["kind"] == "budget"


def test_cosim_text_report(capsys):
    code, out, _ = run_cli(capsys, "cosim", corpus_path("gtfunc.fgg"))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "terminal: value agree=True false"
    steps = lines[:-1]
    assert steps and all(
        re.fullmatch(r"step %d: ([\w-]+)  =>  e\*\d+ \1 s\*\d+  matched=True" % i, line)
        for i, line in enumerate(steps)
    ), out


def test_translate_without_output_writes_the_program(capsys):
    code, out, err = run_cli(capsys, "translate", corpus_path("gtfunc.fgg"), "--mode", "dict")
    assert code == 0 and err == ""
    assert out == pretty_print(translate_program(load("gtfunc.fgg")))


@pytest.mark.parametrize("argv", [["translate", "--mode", "dict"], ["cosim"]], ids=["translate", "cosim"])
def test_reserved_source_name_exits_1(capsys, tmp_path, argv):
    src = tmp_path / "reserved.fgg"
    src.write_text("package main\ntype S struct { dict_0 int }\nfunc main() { _ = S{1}.dict_0 }\n")
    code, out, err = run_cli(capsys, *argv, str(src))
    assert code == 1 and out == ""
    assert err == "error: source field name dict_0 is reserved\n"


_RESERVED = "package main\ntype S struct { dict_0 int }\nfunc main() { _ = S{1}.dict_0 }\n"
_ANY_STRUCT = "package main\ntype Any struct {}\nfunc main() { _ = Any{} }\n"


@pytest.mark.parametrize(
    "argv, source, message",
    [
        (["translate", "--mode", "dict"], _RESERVED, "source field name dict_0 is reserved"),
        (["translate", "--mode", "erasure"], _ANY_STRUCT, "source declares Any incompatibly with the erased Any"),
        (["cosim"], _RESERVED, "source field name dict_0 is reserved"),
    ],
    ids=["dict", "erasure", "cosim"],
)
def test_a_refusal_of_a_well_typed_source_is_one_json_line_with_json(capsys, tmp_path, argv, source, message):
    src = tmp_path / "refused.fgg"
    src.write_text(source)
    assert run_cli(capsys, *argv, str(src)) == (1, "", "error: %s\n" % message)
    code, out, err = run_cli(capsys, *argv, "--json", str(src))
    assert code == 1 and out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"file": str(src), "line": 0, "col": 0, "severity": "error", "message": message}
    ]


def test_run_ill_typed_program_exits_1(capsys, tmp_path):
    src = tmp_path / "bad.fgg"
    src.write_text("package main\ntype S struct {}\nfunc (s S) M() int { return true }\nfunc main() { _ = S{}.M() }\n")
    code, out, err = run_cli(capsys, "run", str(src))
    assert code == 1 and out == ""
    assert err.splitlines() == ["%s:3:1: t-func: body of method S.M has type bool, not a subtype of int" % src]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv", [["translate", "--mode", "dict"], ["translate", "--mode", "erasure"], ["cosim"]], ids=["dict", "erasure", "cosim"])
def test_translating_an_ill_typed_source_prints_the_checkers_diagnostics(capsys, tmp_path, argv, as_json):
    # one line per diagnostic, as typecheck prints them, and exit 1
    src = tmp_path / "bad.fgg"
    src.write_text("package main\ntype S struct {}\nfunc (s S) M() int { return true }\nfunc (s S) N() bool { return 1 }\nfunc main() { _ = S{}.M() }\n")
    flags = ["--json"] * as_json
    code, _, want = run_cli(capsys, "typecheck", *flags, str(src))
    assert code == 1 and len(want.splitlines()) == 2
    assert run_cli(capsys, *argv, *flags, str(src)) == (1, "", want)


def test_bench_csv(capsys, tmp_path):
    out_csv = tmp_path / "metrics.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--family", "a", "--range", "2..3", "--mode", "dict,erasure", "--out", str(out_csv)
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "family,param,translator,output_nodes,steps,translate_millis,error"
    assert len(lines) == 5


def test_usage_error_exit_code(capsys):
    gtfunc = corpus_path("gtfunc.fgg")
    for argv in (
        ["translate", gtfunc, "--mode", "bogus"],
        ["bench", "--family", "z", "--range", "2..3"],
        ["bench", "--family", "a", "--range", "0..1"],  # family a needs a parameter >= 2
        ["bench", "--family", "a", "--range", "2..3", "--iterations", "0"],
        ["bench", "--family", "a", "--range", "2-3"],
        ["bench", "--family", "a", "--range", "5..2"],  # an empty sweep
        ["bench", "--family", "b", "--range", "1..1", "--no-run", "--mode", "bogus"],
        ["run", gtfunc, "--max-steps", "-5"],
        ["cosim", gtfunc, "--steps", "-1"],
    ):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("feathergo"), argv
        assert ": error: " in err.splitlines()[-1], argv


@pytest.mark.parametrize("case", ["missing-input", "not-utf8", "not-utf8-stdin", "translate-output", "bench-output"])
def test_io_error_exit_code(capsys, monkeypatch, tmp_path, case):
    # an unreadable input or an unwritable output ends like an argument
    # argparse cannot open: exit 2 and one line naming the file
    bad = tmp_path / "bad.fgg"
    bad.write_bytes(b"package main\n\xff\xfe\n")
    # standard input as a POSIX-locale interpreter opens it: decoding errors
    # become surrogates, so only the raw bytes show the input is not UTF-8
    stdin = io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    missing_dir = tmp_path / "no-such-dir"
    argv, path = {
        "missing-input": (["parse", str(missing_dir / "x.fg")], missing_dir / "x.fg"),
        "not-utf8": (["parse", str(bad)], bad),
        "not-utf8-stdin": (["parse", "-"], "-"),
        "translate-output": (
            ["translate", corpus_path("gtfunc.fgg"), "--mode", "dict", "-o", str(missing_dir / "x.fg")],
            missing_dir / "x.fg",
        ),
        "bench-output": (
            ["bench", "--family", "a", "--range", "2..2", "--no-run", "--out", str(missing_dir / "x.csv")],
            missing_dir / "x.csv",
        ),
    }[case]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("%s: error: " % path), err


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_stdin_line_ends_read_as_for_a_named_file(capsys, monkeypatch, tmp_path, newline):
    # CRLF and lone CR end lines on standard input as they do in a named
    # file, so a diagnostic names the same line either way
    src = tmp_path / "src.fgg"
    src.write_bytes(newline.join([b"package main", b"", b"func main() { _ = @ }", b""]))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(src.read_bytes()), encoding="utf-8"))
    code, out, err = run_cli(capsys, "parse", "-")
    file_code, file_out, file_err = run_cli(capsys, "parse", str(src))
    assert code == file_code == 1
    assert err.startswith("-:3:") and err == file_err.replace(str(src), "-")
    assert out == file_out


def test_unknown_flag_exit_code(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["run", "--definitely-not-a-flag"])
    assert ei.value.code == 2


@pytest.mark.parametrize("command", ["parse", "typecheck", "run"])
def test_deep_input_fails_cleanly(capsys, tmp_path, default_recursion_limit, command):
    # a deep expression and deeply nested type arguments both go through
    deep = tmp_path / "deep.fgg"
    deep.write_text("package main\nfunc main() { _ = %s }\n" % " + ".join(["1"] * 3000))
    code, out, err = run_cli(capsys, command, str(deep), *(["--max-steps", "10"] if command == "run" else []))
    assert code == 0 and err == ""
    want = {"parse": "package main\n", "typecheck": "ok\n", "run": "budget exhausted after 10 steps\n"}[command]
    assert out.startswith(want) and (command == "parse" or out == want)

    deep_type = tmp_path / "deep_type.fgg"
    nested = "Box[" * 3000 + "int" + "]" * 3000
    deep_type.write_text("package main\ntype Any interface {}\ntype Box[T Any] struct {}\nfunc main() { _ = %s{} }\n" % nested)
    code, out, err = run_cli(capsys, command, str(deep_type))
    assert code == 0 and err == ""
    printed = "package main\n\ntype Any interface {}\n\ntype Box[T Any] struct {}\n\nfunc main() {\n\t_ = %s{}\n}\n" % nested
    assert out == {"parse": printed, "typecheck": "ok\n", "run": "%s{}\n" % nested}[command]


@pytest.mark.parametrize("command", ["parse", "typecheck", "run"])
def test_recursion_error_is_one_line_exit_3(capsys, monkeypatch, command):
    # no known input overflows the stack; should one, the command still
    # ends with one line and exit 3, not a traceback
    def overflow(source, lang):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "parse_program", overflow)
    path = corpus_path("gtfunc.fgg")
    assert run_cli(capsys, command, path) == (3, "", "%s: error: input nested too deeply\n" % path)


def test_non_ascii_digit_is_a_diagnostic(capsys, tmp_path):
    bad = tmp_path / "sup.fgg"
    bad.write_text("package main\nfunc main() { _ = ² }\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 1
    assert err.splitlines() == ["%s:2:19: unexpected character '²'" % bad]


@pytest.mark.parametrize("trace", [False, True], ids=["run", "trace"])
def test_int_result_past_the_conversion_limit_prints(capsys, tmp_path, trace):
    # each literal has 4300 digits, as many as str() converts at its default
    # limit; their sum has one more, and is the second step's redex
    nines = "9" * 4300
    src = tmp_path / "sum.fgg"
    src.write_text("package main\nfunc main() { _ = %s + %s + 1 }\n" % (nines, nines))
    code, out, err = run_cli(capsys, "run", str(src), *(["--trace"] if trace else []))
    assert code == 0
    assert out == "1%s\n" % nines  # 2 * (10**4300 - 1) + 1
    if trace:
        assert err.splitlines()[-1] == "r-ext-binop: (1%s8 + 1)" % nines[1:]


# -- the dialect flags: parse, typecheck and run take them; translate and
# cosim read FGG and take neither


def test_core_dialect_rejects_if_with_a_positioned_diagnostic(capsys, tmp_path):
    src = tmp_path / "bool_if.fg"
    src.write_text(read("bool_if.fgg"))
    code, out, err = run_cli(capsys, "parse", "--dialect", "core", str(src))
    assert (code, out) == (1, "")
    assert err == "%s:12:2: if requires the extended dialect\n" % src
    assert run_cli(capsys, "parse", str(src))[0] == 0  # the extended dialect, by default


def test_typecheck_as_fg_rejects_type_arguments(capsys):
    code, out, err = run_cli(capsys, "typecheck", "--lang", "fg", corpus_path("gtfunc.fgg"))
    assert (code, out) == (1, "")
    assert err.startswith(corpus_path("gtfunc.fgg") + ":") and "Traceback" not in err


def test_run_as_fgg_runs_a_generic_program_saved_as_fg(capsys, tmp_path):
    src = tmp_path / "gtfunc.fg"
    src.write_text(read("gtfunc.fgg"))
    assert run_cli(capsys, "run", "--lang", "fgg", str(src)) == (0, "false\n", "")
    assert run_cli(capsys, "run", str(src))[0] == 1  # as FG, its type parameters do not parse


@pytest.mark.parametrize("command", ["translate", "cosim"])
@pytest.mark.parametrize("flag", [("--lang", "fg"), ("--lang", "fgg"), ("--dialect", "core")])
def test_translate_and_cosim_take_no_dialect_flags(capsys, command, flag):
    argv = [command, *(["--mode", "dict"] if command == "translate" else []), *flag, corpus_path("gtfunc.fgg")]
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: feathergo ")
    assert error.startswith("feathergo: error: unrecognized arguments: %s " % flag[0])


@pytest.mark.parametrize("flag", ["--skip-redundant-asserts", "--no-type-metadata"])
def test_translate_has_one_dictionary_translation(capsys, flag):
    # the translation always emits type metadata and always re-asserts
    # receivers; the flags that once turned either off are usage errors
    with pytest.raises(SystemExit) as ei:
        main(["translate", "--mode", "dict", flag, corpus_path("gtfunc.fgg")])
    assert ei.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1] == "feathergo: error: unrecognized arguments: %s" % flag


def test_run_builds_one_decls_for_a_judged_program(capsys, monkeypatch):
    # run takes the source's index from the check that came before it
    built = []
    init = Decls.__init__
    monkeypatch.setattr(Decls, "__init__", lambda self, p: built.append(p) or init(self, p))
    assert run_cli(capsys, "run", corpus_path("gtfunc.fgg")) == (0, "false\n", "")
    assert len(built) == 1


# -- input edges: token-level edits of the corpus end cleanly in every command

EDIT_COMMANDS = (
    ("parse",),
    ("typecheck",),
    ("run", "--max-steps", "200"),
    ("translate", "--mode", "dict"),
    ("translate", "--mode", "erasure"),
    ("cosim", "--steps", "20"),
)


def token_edits(source: str, rng, count: int) -> list:
    """``count`` copies of ``source``, each with one token deleted,
    duplicated or replaced by another token of the source."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    spans = []
    for t in tokenize(source):
        at = starts[t.line - 1] + t.col - 1
        if t.text and source.startswith(t.text, at):  # not a semicolon the lexer inserted
            spans.append((at, at + len(t.text), t.text))
    out = []
    for _ in range(count):
        start, end, text = rng.choice(spans)
        edit = rng.choice(("delete", "duplicate", "replace"))
        if edit == "delete":
            out.append(source[:start] + source[end:])
        elif edit == "duplicate":
            out.append(source[:end] + " " + text + " " + source[end:])
        else:
            out.append(source[:start] + " " + rng.choice(spans)[2] + " " + source[end:])
    return out


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.name for p in CORPUS_FILES])
def test_token_edits_of_the_corpus_end_cleanly(capsys, tmp_path, path):
    # every command ends with an exit code and no traceback: a value, a
    # panic, a positioned diagnostic, a usage or I/O error, or exit 3
    rng = random.Random("token edits " + path.name)
    for n, source in enumerate(token_edits(path.read_text(), rng, 15)):
        mutant = tmp_path / ("%d%s" % (n, path.suffix))
        mutant.write_text(source)
        for command in EDIT_COMMANDS:
            code, _, err = run_cli(capsys, *command, str(mutant))
            assert code in (0, 1, 2, 3), (command, source)
            assert "Traceback" not in err, (command, source)
