"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime budget. Run with ``pytest tests/test_acceptance.py -s`` to
see the lines as they are produced."""

import time

import pytest

from feathergo.bench import BenchConfig, generate, run_suite
from feathergo.cosim import check_correspondence
from feathergo.dicttrans import Translator, translate_program
from feathergo.erasure import erase_program
from feathergo.parser import parse_fg, parse_fgg
from feathergo.reduce import run
from feathergo.syntax import pretty_print
from feathergo.typecheck import fg_typecheck_program, fgg_typecheck_program

from conftest import ASSERT_FIXTURES, FGG_FILES, erase_value, fit_poly, load, read


class _Criterion:
    def __init__(self, ident: str, budget_s: float, description: str):
        self.ident = ident
        self.budget = budget_s
        self.description = description

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print("ACCEPTANCE %s %s (%.2fs / budget %.0fs): %s" % (self.ident, status, elapsed, self.budget, self.description))
        if exc_type is None and elapsed > self.budget:
            pytest.fail("%s exceeded its %.0fs budget (%.2fs)" % (self.ident, self.budget, elapsed))
        return False


def _generated_extras():
    return [generate(BenchConfig(f, p, iterations=1)) for f, p in (("a", 2), ("c", 3), ("e", 3))]


def test_criterion_1_figure_corpus_typechecking():
    with _Criterion("C1", 1.0, "figure listings typecheck; failing line names Function[bool, bool]"):
        assert fg_typecheck_program(load("fg_list.fg"), "core") == []
        assert fgg_typecheck_program(load("fgg_list.fgg")) == []
        diags = fgg_typecheck_program(parse_fgg(read("fgg_list_fail.fgg")))
        assert diags and any("Function[bool, bool]" in d.message for d in diags)


def test_criterion_2_panic_reproduction():
    with _Criterion("C2", 5.0, "fg listing panics at the second Map; fgg version rejected statically"):
        res = run(load("fg_list.fg"), lang="fg")
        assert res.kind == "panic"
        assert res.panic.message == "Unable to assert bool as type Ord"
        # the first Map alone runs to a value, so the panic is the second Map's
        single = read("fg_list.fg").replace(".Map(GtFunc{5}).Map(GtFunc{5})", ".Map(GtFunc{5})")
        assert run(parse_fg(single, "core"), lang="fg").kind == "value"
        assert fgg_typecheck_program(parse_fgg(read("fgg_list_fail.fgg"))) != []


def test_criterion_3_translation_correctness_suite():
    with _Criterion("C3", 30.0, "dict translation: typecheck, value and panic preservation over the corpus"):
        programs = {p.name: parse_fgg(p.read_text()) for p in FGG_FILES}
        for i, extra in enumerate(_generated_extras()):
            programs["generated_%d" % i] = extra
        assert len(programs) >= 20
        outcomes = {}
        for name, program in programs.items():
            tr = Translator(program)
            target = tr.translate_program()
            # (a) the output typechecks in fg-extended, 100% of the corpus
            assert fg_typecheck_program(target, "extended") == [], name
            src = run(program, max_steps=10**6, lang="fgg")
            tgt = run(target, max_steps=10**6, lang="fg")
            outcomes[name] = src.kind
            if src.kind == "value":
                # (b) exact structural match against the value translation
                assert tgt.kind == "value", name
                assert tgt.value == tr.translate_closed_expr(src.value), name
            elif src.kind == "panic":
                # (c) panic preservation
                assert tgt.kind == "panic", name
            else:
                assert tgt.kind == "budget_exhausted", name
        # (c) the type-rep fixture panics on .(Foo[bool]) and passes .(Foo[int]);
        # interpreter-oracle outcomes frozen in ASSERT_FIXTURES
        passing = read("typerep.fgg").replace("\n\t_ = Bar[bool]{}.(Foo[bool])", "")
        assert run(parse_fgg(passing), lang="fgg").kind == "value"
        assert outcomes["typerep.fgg"] == "panic"
        for name, expected in ASSERT_FIXTURES.items():
            assert outcomes[name] == expected, name


def test_criterion_4_operational_correspondence():
    with _Criterion("C4", 60.0, "matched=true at every step for every corpus program (500-step caps)"):
        for path in FGG_FILES:
            report = check_correspondence(parse_fgg(path.read_text()), max_steps=500)
            assert report.ok, (path.name, report.mismatch_detail or report.terminal)
            assert all(r.matched for r in report.records), path.name
            assert report.terminal.both_sides_agree, path.name


def test_criterion_5_reduction_relation_properties():
    with _Criterion("C5", 120.0, "1000 randomized trials: macro-step determinism and resolution confluence"):
        from test_cosim import (
            test_dict_resolution_two_path_confluence,
            test_macro_determinism_randomized,
        )

        test_macro_determinism_randomized()
        test_dict_resolution_two_path_confluence()


def test_criterion_6_nomono_coverage():
    with _Criterion("C6", 5.0, "Box nesting translates under dict with value preservation for k in 0..5"):
        template = read("box.fgg")
        for k in range(6):
            program = parse_fgg(template.replace("Nest(2)", "Nest(%d)" % k))
            tr = Translator(program)
            target = tr.translate_program()
            assert fg_typecheck_program(target, "extended") == []
            src = run(program, lang="fgg")
            tgt = run(target, lang="fg")
            assert src.kind == tgt.kind == "value"
            assert tgt.value == tr.translate_closed_expr(src.value)


def test_criterion_7_erasure_divergence():
    with _Criterion("C7", 30.0, "erasure returns where the source panics; preserves values on assertion-free corpus"):
        program = load("typerep.fgg")
        erased, warnings = erase_program(program)
        assert warnings
        assert run(program, lang="fgg").kind == "panic"
        assert run(erased, lang="fg").kind == "value"
        for path in FGG_FILES:
            p = parse_fgg(path.read_text())
            if path.name in ASSERT_FIXTURES or path.name == "omega.fgg":
                continue
            out, _ = erase_program(p)
            src = run(p, max_steps=10**6, lang="fgg")
            tgt = run(out, max_steps=10**6, lang="fg")
            assert src.kind == tgt.kind == "value", path.name
            assert tgt.value == erase_value(src.value), path.name


def test_criterion_8_benchmark_scaling_trends():
    with _Criterion("C8", 120.0, "dict node counts: linear for families a and d, quadratic for e; erasure never larger"):
        rows = run_suite(
            {"a": range(2, 41), "d": range(2, 21), "e": range(2, 10)},
            ("dict", "erasure"),
            iterations=1,
            run_steps=False,
        )
        assert all(not r.error for r in rows)
        def series(fam, translator):
            sel = [r for r in rows if r.family == fam and r.translator == translator]
            return [r.param for r in sel], [r.output_nodes for r in sel]

        for fam, degree in (("a", 1), ("d", 1), ("e", 2)):
            xs, ys = series(fam, "dict")
            _, r2 = fit_poly(xs, ys, degree)
            assert r2 >= 0.99, (fam, r2)
        by_key = {(r.family, r.param, r.translator): r.output_nodes for r in rows}
        for fam, param, tr in list(by_key):
            if tr == "dict":
                assert by_key[(fam, param, "erasure")] <= by_key[(fam, param, "dict")]


def test_criterion_9_round_trip():
    with _Criterion("C9", 30.0, "parse-print identity for all corpus trees, both dialects"):
        for path in FGG_FILES:
            p = parse_fgg(path.read_text())
            assert parse_fgg(pretty_print(p)) == p, path.name
            # translated outputs round-trip in the extended fg dialect
            out = translate_program(p)
            assert parse_fg(pretty_print(out), "extended") == out, path.name
            erased, _ = erase_program(p)
            assert parse_fg(pretty_print(erased), "extended") == erased, path.name
        fg = load("fg_list.fg")
        assert parse_fg(pretty_print(fg), "core") == fg
