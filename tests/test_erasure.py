import pytest

from feathergo.bench import BenchConfig, generate
from feathergo.erasure import ErasureError, erase_program
from feathergo.parser import parse_fg, parse_fgg
from feathergo.reduce import run
from feathergo.syntax import (
    InterfaceDecl,
    MethodCall,
    MethodDecl,
    StructDecl,
    TypeAssert,
    node_count,
    pretty_print,
    print_decl,
    walk,
)
from feathergo.typecheck import fg_typecheck_program

from conftest import FGG_FILES, SMALL_FAMILIES, TERMINATING, erase_value, load


def method_decl(program, recv, name):
    for d in program.decls:
        if isinstance(d, MethodDecl) and d.recv_type == recv and d.name == name:
            return d
    raise KeyError((recv, name))


def test_param_receiver_call_goes_through_bound():
    # func f[a Foo](x a) { x.Bar() }  erases to  func f(x Any) { x.(Foo).Bar() }
    src = (
        "package main\n"
        "type Any interface {}\n"
        "type Foo interface { Bar() int }\n"
        "type S struct {}\n"
        "func (this S) Bar() int { return 1 }\n"
        "type App struct {}\n"
        "func (this App) F[a Foo](x a) int { return x.Bar() }\n"
        "func main() { _ = App{}.F[S](S{}) }\n"
    )
    out, warns = erase_program(parse_fgg(src))
    assert warns == ()
    f = method_decl(out, "App", "F")
    assert print_decl(f) == "func (this App) F(x Any) Any {\n\treturn x.(Foo).Bar()\n}"


def test_permute_erasure_shape():
    # the appendix listing: all member types erased to Any, use sites assert
    out, _ = erase_program(load("permute.fgg"))
    cons = next(d for d in out.decls if isinstance(d, StructDecl) and d.name == "Cons")
    assert [(f.name, f.type.name) for f in cons.fields] == [("head", "Any"), ("tail", "Any")]
    list_iface = next(d for d in out.decls if isinstance(d, InterfaceDecl) and d.name == "List")
    assert all(s.sig.ret.name == "Any" and not s.sig.tformal for s in list_iface.specs)
    lens = print_decl(method_decl(out, "Cons", "Len"))
    # the listing's use-site asserts: this.len().(int) and l.(List)...
    assert "this.tail.(List).Len().(int) + 1" in lens
    insert_all = print_decl(method_decl(out, "Inserter", "InsertAll"))
    assert "l.(List).Len().(int)" in insert_all


def test_erased_output_typechecks_and_reparses():
    out, _ = erase_program(load("permute.fgg"))
    assert fg_typecheck_program(out, "extended") == []
    assert parse_fg(pretty_print(out), "extended") == out


def test_assertion_free_value_preservation():
    # run both: the erased program computes the erased value
    for name in ("arith.fgg", "gtfunc.fgg", "box.fgg", "permute.fgg", "eqord.fgg"):
        program = load(name)
        out, _ = erase_program(program)
        src = run(program, max_steps=10**6, lang="fgg")
        tgt = run(out, max_steps=10**6, lang="fg")
        assert src.kind == tgt.kind == "value", name
        assert tgt.value == erase_value(src.value), name


def test_documented_divergence_on_type_rep_program():
    # the source panics on .(Foo[bool]); after erasure both asserts are
    # .(Foo) and indistinguishable, so the erased program returns a value
    program = load("typerep.fgg")
    out, warns = erase_program(program)
    assert warns  # assertion-bearing input is flagged
    assert run(program, lang="fgg").kind == "panic"
    assert run(out, lang="fg").kind == "value"


def test_erasure_emits_no_dictionaries_or_reps():
    out, _ = erase_program(load("gtfunc.fgg"))
    text = pretty_print(out)
    for fragment in ("Dict", "_meta", "_type", "spec_", "param_index", "tryCast"):
        assert fragment not in text


def test_erasure_smaller_than_dict():
    from feathergo.dicttrans import translate_program

    for name in ("gtfunc.fgg", "fgg_list.fgg", "box.fgg"):
        p = load(name)
        erased, _ = erase_program(p)
        assert node_count(erased) <= node_count(translate_program(p))


@pytest.mark.parametrize(
    "src",
    [
        "package main\ntype Any interface { M() int }\ntype S struct {}\nfunc (this S) M() int { return 1 }\nfunc main() { _ = S{} }\n",
        "package main\ntype Any struct {}\nfunc main() { _ = Any{} }\n",
    ],
    ids=["interface-with-spec", "struct"],
)
def test_incompatible_any_rejected(src):
    # the same check, and message, as the dictionary translation's
    with pytest.raises(ErasureError, match="source declares Any incompatibly with the erased Any"):
        erase_program(parse_fgg(src))


@pytest.mark.parametrize("path", TERMINATING, ids=lambda p: p.name)
def test_erasure_corpus_typechecks(path):
    out, _ = erase_program(parse_fgg(path.read_text()))
    assert fg_typecheck_program(out, "extended") == []


def test_erasure_of_deep_receiver_chain(default_recursion_limit):
    # the assertion scan walks the program iteratively, so a 400-deep
    # receiver chain erases at the default recursion limit
    program = parse_fgg(
        "package main\ntype Any interface {}\ntype Box[T Any] struct { v T }\n"
        "func (b Box[T]) Id() Box[T] { return b }\n"
        "func main() { _ = Box[int]{1}" + ".Id()" * 400 + " }\n"
    )
    out, warns = erase_program(program)
    assert warns == ()
    assert sum(isinstance(n, MethodCall) for n in walk(out.main)) == 400


def test_assertion_warning_iff_the_source_asserts():
    # the warning comes from the erasure's own pass, and is issued exactly
    # when some node of the source is a type assertion
    programs = [load(p.name) for p in FGG_FILES] + [generate(BenchConfig(f, n, 1)) for f, n in SMALL_FAMILIES]
    warned = 0
    for program in programs:
        asserts = any(isinstance(n, TypeAssert) for n in walk(program))
        _, warnings = erase_program(program)
        want = ("program contains type assertions; erasure does not preserve assertion behaviour",)
        assert warnings == (want if asserts else ())
        warned += asserts
    assert 0 < warned < len(programs)
