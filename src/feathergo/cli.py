"""Command-line entry point.

Subcommands: parse, typecheck, run, translate, cosim, bench. Primary output
goes to stdout, diagnostics to stderr as ``file:line:col: message`` (or JSON
lines with ``--json``). Exit codes: 0 success, 1 diagnostics or
correspondence mismatch, 2 usage error or a file that cannot be read or
written, 3 input nested too deeply.

translate and cosim read FGG. parse, typecheck and run detect the dialect
from the file extension (.fg / .fgg), which ``--lang`` overrides; .fg files
parse in the extended dialect by default so translator output runs
unchanged, ``--dialect core`` restricts to core FG.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from . import bench, cosim, dicttrans, erasure, reduce, syntax, typecheck
from .parser import Diagnostic, ParseError, parse_program


def _detect_lang(path: str, lang: str | None, dialect: str) -> str:
    if lang == "fgg" or (lang is None and path.endswith(".fgg")):
        return "fgg"
    return "fg" if dialect == "core" else "fg-ext"


def _emit_diags(diags, path: str, as_json: bool) -> None:
    for d in diags:
        if as_json:
            print(
                json.dumps(
                    {"file": path, "line": d.line, "col": d.col, "severity": d.severity, "message": d.message}
                ),
                file=sys.stderr,
            )
        else:
            print(d.render(path), file=sys.stderr)


def _load(path: str, lang: str, as_json: bool):
    if path == "-":  # strict UTF-8 and universal newlines, as for a named file
        stdin = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
        try:
            source = stdin.read()
        finally:
            stdin.detach()  # leaves sys.stdin open
    else:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
    try:
        return parse_program(source, lang)
    except ParseError as ex:
        _emit_diags(ex.diagnostics, path, as_json)
        raise SystemExit(1)


def _load_checked(args):
    """The program in ``args.file`` and its dialect, once it typechecks;
    otherwise its diagnostics are printed and the command exits 1."""
    lang = _detect_lang(args.file, args.lang, args.dialect)
    program = _load(args.file, lang, args.json)
    if lang == "fgg":
        diags = typecheck.fgg_typecheck_program(program)
    else:
        diags = typecheck.fg_typecheck_program(program, "core" if lang == "fg" else "extended")
    if diags:
        _emit_diags(diags, args.file, args.json)
        raise SystemExit(1)
    return program, lang


def cmd_parse(args) -> int:
    lang = _detect_lang(args.file, args.lang, args.dialect)
    program = _load(args.file, lang, args.json)
    sys.stdout.write(syntax.pretty_print(program))
    return 0


def cmd_typecheck(args) -> int:
    _load_checked(args)
    print("ok")
    return 0


def cmd_run(args) -> int:
    program, lang = _load_checked(args)
    trace = None
    if args.trace:
        trace = lambda rule, redex: print("%s: %s" % (rule, syntax.show_expr(redex)), file=sys.stderr)
    res = reduce.run(program, max_steps=args.max_steps, lang="fgg" if lang == "fgg" else "fg", trace=trace)
    print(res.describe())
    return 0


def _translation_failed(ex, args) -> int:
    """Report why the translator refused the source: the checker's
    diagnostics, as ``typecheck`` prints them, for an ill-typed one, else
    one ``error: ...`` line (one unpositioned JSON line with ``--json``)."""
    if ex.diagnostics:
        _emit_diags(ex.diagnostics, args.file, args.json)
    elif args.json:
        _emit_diags([Diagnostic(str(ex))], args.file, True)
    else:
        print("error: %s" % ex, file=sys.stderr)
    return 1


def cmd_translate(args) -> int:
    program = _load(args.file, "fgg", args.json)
    try:
        if args.mode == "dict":
            out, inventory = dicttrans.translate_with_info(program)
            inventory = [e.as_dict() for e in inventory]
        else:
            out, warnings = erasure.erase_program(program)
            for w in warnings:
                print("warning: %s" % w, file=sys.stderr)
            inventory = []
    except (dicttrans.TranslationError, erasure.ErasureError) as ex:
        return _translation_failed(ex, args)
    text = syntax.pretty_print(out)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.emit_inventory:
        print(json.dumps({"mode": args.mode, "declarations": inventory}, indent=2))
    elif not args.output:
        sys.stdout.write(text)
    return 0


def cmd_cosim(args) -> int:
    program = _load(args.file, "fgg", args.json)
    try:
        report = cosim.check_correspondence(program, max_steps=args.steps)
    except dicttrans.TranslationError as ex:
        return _translation_failed(ex, args)
    if args.report == "json":
        print(report.to_json())
    else:
        for r in report.records:
            print(
                "step %d: %s  =>  e*%d %s s*%d  matched=%s"
                % (r.fgg_step_index, r.fgg_rule, r.erase_steps, r.mid_rule, r.sim_steps, r.matched)
            )
        print("terminal: %s agree=%s %s" % (report.terminal.kind, report.terminal.both_sides_agree, report.terminal.detail))
    if not report.ok:
        print(report.mismatch_detail or report.terminal.detail, file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    families = {f: args.range for f in args.family.split(",")}
    translators = tuple(args.mode.split(","))
    rows = bench.run_suite(
        families,
        translators,
        iterations=args.iterations,
        run_steps=not args.no_run,
        max_steps=args.max_steps,
    )
    text = bench.render_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %d rows to %s" % (len(rows), args.out))
    else:
        sys.stdout.write(text)
    return 1 if any(r.error for r in rows) else 0


def _at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""

    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (lo, n))
        return n

    parse.__name__ = "int"  # argparse's "invalid int value" message
    return parse


def _param_range(text: str) -> range:
    lo, _, hi = text.partition("..")
    try:
        return range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError("must look like LO..HI, got %r" % text) from None


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="feathergo", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, dialects=True):
        p.add_argument("file", help="source file, or - for stdin")
        if dialects:
            p.add_argument("--lang", choices=("fg", "fgg"), help="override extension-based dialect detection")
            p.add_argument("--dialect", choices=("core", "extended"), default="extended", help="fg sub-dialect")
        p.add_argument("--json", action="store_true", help="machine-readable diagnostics")

    p = sub.add_parser("parse", help="parse and print the canonical form")
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("typecheck", help="typecheck a program")
    common(p)
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("run", help="evaluate a program")
    common(p)
    p.add_argument("--max-steps", type=_at_least(0), default=reduce.DEFAULT_MAX_STEPS)
    p.add_argument("--trace", action="store_true", help="one line per step on stderr")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("translate", help="translate fgg to fg")
    common(p, dialects=False)
    p.add_argument("--mode", choices=("dict", "erasure"), required=True)
    p.add_argument("-o", "--output", help="write the translated program here")
    p.add_argument("--emit-inventory", action="store_true", help="print the generated-declaration manifest as JSON")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("cosim", help="check operational correspondence fgg vs dict-translated fg")
    common(p, dialects=False)
    p.add_argument("--steps", type=_at_least(1), default=500, help="source step budget")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_cosim)

    p = sub.add_parser("bench", help="generate benchmark families and collect metrics")
    p.add_argument("--family", default="a,b,c,d,e", help="comma-separated families")
    p.add_argument("--range", type=_param_range, required=True, help="parameter sweep LO..HI")
    p.add_argument("--mode", default="dict,erasure", help="comma-separated translators")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--iterations", type=_at_least(1), default=1)
    p.add_argument("--no-run", action="store_true", help="skip interpreter step counts")
    p.add_argument("--max-steps", type=_at_least(0), default=10**6)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    args = ap.parse_args(argv)  # a usage error exits 2
    if args.command == "bench":
        try:  # the benchmark's own rules for family names, parameters and modes
            for family in args.family.split(","):
                bench.BenchConfig(family, args.range.start, args.iterations)
            for mode in args.mode.split(","):
                bench.check_translator(mode)
        except ValueError as ex:
            ap.error("bench: %s" % ex)
    try:
        return args.fn(args)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 1
    except BrokenPipeError:
        return 0
    except (OSError, UnicodeDecodeError) as ex:  # an input or output file, as argparse reports one
        path = getattr(ex, "filename", None) or getattr(args, "file", "feathergo")
        print("%s: error: %s" % (path, getattr(ex, "strerror", None) or ex), file=sys.stderr)
        return 2
    except RecursionError:
        print("%s: error: input nested too deeply" % getattr(args, "file", "feathergo"), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
