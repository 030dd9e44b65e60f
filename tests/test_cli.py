import json

import pytest

from feathergo.cli import main

from conftest import CORPUS, read


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


@pytest.mark.parametrize("case", ["missing-input", "not-utf8", "translate-output", "bench-output"])
def test_io_error_exit_code(capsys, tmp_path, case):
    # an unreadable input or an unwritable output ends like an argument
    # argparse cannot open: exit 2 and one line naming the file
    bad = tmp_path / "bad.fgg"
    bad.write_bytes(b"package main\n\xff\xfe\n")
    missing_dir = tmp_path / "no-such-dir"
    argv, path = {
        "missing-input": (["parse", str(missing_dir / "x.fg")], missing_dir / "x.fg"),
        "not-utf8": (["parse", str(bad)], bad),
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


def test_unknown_flag_exit_code(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["run", "--definitely-not-a-flag"])
    assert ei.value.code == 2


@pytest.mark.parametrize("command", ["parse", "typecheck", "run"])
def test_deep_input_fails_cleanly(capsys, tmp_path, default_recursion_limit, command):
    # a deep expression goes through; only nested type arguments, which are
    # parsed and checked recursively, still reach the one-line exit 3
    deep = tmp_path / "deep.fgg"
    deep.write_text("package main\nfunc main() { _ = %s }\n" % " + ".join(["1"] * 3000))
    code, out, err = run_cli(capsys, command, str(deep), *(["--max-steps", "10"] if command == "run" else []))
    assert code == 0 and err == ""
    want = {"parse": "package main\n", "typecheck": "ok\n", "run": "budget exhausted after 10 steps\n"}[command]
    assert out.startswith(want) and (command == "parse" or out == want)

    deep_type = tmp_path / "deep_type.fgg"
    nested = "Box[" * 3000 + "int" + "]" * 3000
    deep_type.write_text("package main\ntype Any interface {}\ntype Box[T Any] struct {}\nfunc main() { _ = %s{} }\n" % nested)
    code, _, err = run_cli(capsys, command, str(deep_type))
    assert code == 3
    assert err == "%s: error: input nested too deeply\n" % deep_type
