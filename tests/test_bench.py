import pytest

from feathergo.bench import (
    CSV_HEADER,
    BenchConfig,
    generate,
    render_csv,
    run_suite,
)
from feathergo.dicttrans import Translator
from feathergo.erasure import erase_program
from feathergo.reduce import run
from feathergo.syntax import MethodDecl, pretty_print, print_decl
from feathergo.typecheck import fgg_typecheck_program

from conftest import erase_value, fit_poly


def test_family_a_base_program_has_two_methods():
    p = generate(BenchConfig("a", 2, iterations=1))
    base = next(d for d in p.decls if getattr(d, "name", "") == "Base")
    assert [s.name for s in base.specs] == ["g_1", "g_2"]


def test_family_a_scales_method_count():
    p = generate(BenchConfig("a", 7, iterations=1))
    base = next(d for d in p.decls if getattr(d, "name", "") == "Base")
    assert len(base.specs) == 7


def test_family_b_repeats_op():
    p = generate(BenchConfig("b", 5, iterations=1))
    ops = next(d for d in p.decls if isinstance(d, MethodDecl) and d.name == "Ops")
    assert print_decl(ops).count("this.Op(") == 5


def test_family_c_enumerates_all_combinations():
    p = generate(BenchConfig("c", 3, iterations=1))
    doit = next(d for d in p.decls if isinstance(d, MethodDecl) and d.name == "DoIt")
    assert print_decl(doit).count("this.f_1") == 8  # 2^3


def test_family_d_lengthens_chain():
    p = generate(BenchConfig("d", 6, iterations=1))
    fs = [d.name for d in p.decls if isinstance(d, MethodDecl) and d.name.startswith("f_")]
    assert fs == ["f_%d" % i for i in range(1, 7)]


def test_family_e_callee_has_one_more_parameter():
    p = generate(BenchConfig("e", 4, iterations=1))
    for i in range(1, 5):
        f = next(d for d in p.decls if isinstance(d, MethodDecl) and d.name == "f_%d" % i)
        assert len(f.sig.params) == i
        assert len(f.sig.tformal) == i
        if i < 4:
            assert print_decl(f).count("this.f_%d" % (i + 1)) == 2  # called twice


def test_family_e_source_call_tree_doubles_but_output_grows_polynomially():
    # generate, translate, count: the dict output node delta is far below 2x
    from feathergo.syntax import node_count
    from feathergo.dicttrans import translate_program

    n2 = node_count(translate_program(generate(BenchConfig("e", 2, 1))))
    n3 = node_count(translate_program(generate(BenchConfig("e", 3, 1))))
    n4 = node_count(translate_program(generate(BenchConfig("e", 4, 1))))
    assert n3 < 2 * n2 and n4 < 2 * n3
    s2 = run(generate(BenchConfig("e", 2, 1)), lang="fgg").steps
    s3 = run(generate(BenchConfig("e", 3, 1)), lang="fgg").steps
    assert s3 > 1.8 * s2  # the runtime tree does double


@pytest.mark.parametrize("family,param", [("a", 2), ("a", 9), ("b", 1), ("b", 6), ("c", 2), ("c", 4), ("d", 2), ("d", 8), ("e", 2), ("e", 5)])
def test_generated_programs_typecheck_and_preserve_values(family, param):
    p = generate(BenchConfig(family, param, iterations=1))
    assert fgg_typecheck_program(p) == []
    tr = Translator(p)
    src = run(p, lang="fgg")
    tgt = run(tr.translate_program(), lang="fg")
    assert src.kind == tgt.kind == "value"
    assert tgt.value == tr.translate_closed_expr(src.value)
    erased, _ = erase_program(p)
    res = run(erased, lang="fg")
    assert res.value == erase_value(src.value)


def test_generator_determinism():
    a = pretty_print(generate(BenchConfig("e", 4, iterations=3)))
    b = pretty_print(generate(BenchConfig("e", 4, iterations=3)))
    assert a == b


def test_iterations_repeat_doit_in_main():
    p = generate(BenchConfig("a", 2, iterations=3))
    assert pretty_print(p).count("Runner{}.DoIt()") == 3


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        BenchConfig("a", 1)
    with pytest.raises(ValueError):
        BenchConfig("b", 0)
    with pytest.raises(ValueError):
        BenchConfig("z", 3)
    with pytest.raises(ValueError):
        BenchConfig("a", 2, iterations=0)


def test_run_suite_rows_and_csv():
    rows = run_suite({"a": [2, 3]}, ("dict", "erasure"), iterations=1)
    assert len(rows) == 4
    text = render_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert all(not r.error for r in rows)


def test_empty_family_list_gives_header_only():
    assert render_csv(run_suite({}, ("dict",))) == CSV_HEADER + "\n"


def test_row_failure_is_recorded_not_raised(monkeypatch):
    import feathergo.bench as bench_mod

    def boom(program):
        raise RuntimeError("translator exploded")

    monkeypatch.setattr(bench_mod.dicttrans, "translate_program", boom)
    rows = run_suite({"a": [2]}, ("dict",))
    assert len(rows) == 1 and "translator exploded" in rows[0].error


def test_fit_poly_exact_models():
    xs = list(range(2, 12))
    coeffs, r2 = fit_poly(xs, [3 * x + 7 for x in xs], 1)
    assert r2 > 0.999999 and abs(coeffs[1] - 3) < 1e-9
    coeffs, r2 = fit_poly(xs, [2 * x * x + x + 5 for x in xs], 2)
    assert r2 > 0.999999 and abs(coeffs[2] - 2) < 1e-9


def test_fit_poly_rejects_noise():
    xs = list(range(2, 12))
    ys = [x * x * x for x in xs]
    _, r2 = fit_poly(xs, ys, 1)
    assert r2 < 0.99
