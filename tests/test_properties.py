"""Cross-module empirical properties: preservation and progress along real
runs, and the step-count relationship between source and translation."""

import pytest

from feathergo.dicttrans import Translator
from feathergo.parser import parse_fgg
from feathergo.reduce import PanicOutcome, Value, step_count
from feathergo.typecheck import (
    Decls,
    fgg_subtype,
    fgg_typecheck_expr,
)

from conftest import TERMINATING, Stepped, fg_step, fgg_step


@pytest.mark.parametrize("path", TERMINATING, ids=lambda p: p.name)
def test_fgg_preservation_and_progress_along_runs(path):
    # preservation: after each step the term's type subtypes the type before;
    # progress: a typechecked term is a value, steps, or panics (never stuck)
    program = parse_fgg(path.read_text())
    decls = Decls(program)
    e = program.main
    t_before = fgg_typecheck_expr(e, {}, {}, decls)
    for _ in range(2000):
        out = fgg_step(e, decls)
        assert isinstance(out, (Stepped, Value, PanicOutcome)), "stuck on %s" % path.name
        if not isinstance(out, Stepped):
            break
        e = out.expr
        t_after = fgg_typecheck_expr(e, {}, {}, decls)
        assert fgg_subtype(t_after, t_before, {}, decls), (path.name, t_after, t_before)
        t_before = t_after


@pytest.mark.parametrize("path", TERMINATING, ids=lambda p: p.name)
def test_fg_progress_on_translated_runs(path):
    program = parse_fgg(path.read_text())
    target = Translator(program).translate_program()
    decls = Decls(target)
    e = target.main
    fgg_typecheck_expr(e, {}, {}, decls)
    for _ in range(4000):
        out = fg_step(e, decls)
        assert isinstance(out, (Stepped, Value, PanicOutcome)), "stuck on %s" % path.name
        if not isinstance(out, Stepped):
            break
        e = out.expr


@pytest.mark.parametrize("path", TERMINATING, ids=lambda p: p.name)
def test_translation_never_reduces_step_count(path):
    # dictionary resolution only adds work: run both and compare
    program = parse_fgg(path.read_text())
    target = Translator(program).translate_program()
    src = step_count(program, lang="fgg")
    tgt = step_count(target, lang="fg")
    if src is not None and tgt is not None:
        assert tgt >= src, path.name
