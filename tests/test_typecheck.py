import gc
import itertools
import random
import weakref
from dataclasses import replace

import pytest

from feathergo import typecheck
from feathergo.bench import BenchConfig, generate
from feathergo.cosim import check_correspondence
from feathergo.dicttrans import TranslationError, Translator, translate_program
from feathergo.erasure import ErasureError, erase_program
from feathergo.parser import Diagnostic, parse_fg, parse_fgg
from feathergo.reduce import run
from feathergo.syntax import (
    INT,
    Binop,
    FieldSel,
    FormalParam,
    If,
    InterfaceDecl,
    IntLit,
    MethodCall,
    MethodDecl,
    MethodSig,
    Panic,
    Param,
    Program,
    StructDecl,
    StructLit,
    TypeApp,
    TypeAssert,
    TypeParam,
    fold,
    rebuild,
    walk,
)
from feathergo.typecheck import (
    BOTTOM,
    CheckError,
    Decls,
    fg_subtype,
    fg_typecheck_program,
    fgg_methods,
    fgg_subtype,
    fgg_typecheck_expr,
    fgg_typecheck_program,
    canon_sig,
    subst_type,
)

from conftest import CORPUS_FILES, FGG_FILES, SMALL_FAMILIES, Stepped, fgg_step, load, read, reference_fragment_messages


@pytest.fixture(scope="module")
def fg_list():
    p = load("fg_list.fg")
    return p, Decls(p)


@pytest.fixture(scope="module")
def fgg_list():
    p = load("fgg_list.fgg")
    return p, Decls(p)


# -- fg subtyping -------------------------------------------------------------


def test_gtfunc_implements_function(fg_list):
    _, decls = fg_list
    assert fg_subtype("GtFunc", "Function", decls)


def test_fg_subtype_reflexive(fg_list):
    _, decls = fg_list
    for t in list(decls.structs) + list(decls.interfaces):
        assert fg_subtype(t, t, decls)


def test_struct_only_implemented_by_itself(fg_list):
    _, decls = fg_list
    assert not fg_subtype("Nil", "Cons", decls)


def test_int_implements_ord_in_listing(fg_list):
    _, decls = fg_list
    assert fg_subtype("int", "Ord", decls)
    assert not fg_subtype("bool", "Ord", decls)


# -- fgg subtyping ------------------------------------------------------------


def test_gtfunc_int_implements_function_int_bool(fgg_list):
    _, decls = fgg_list
    gt = TypeApp("GtFunc", (TypeApp("int"),))
    assert fgg_subtype(gt, TypeApp("Function", (TypeApp("int"), TypeApp("bool"))), {}, decls)
    assert not fgg_subtype(gt, TypeApp("Function", (TypeApp("bool"), TypeApp("bool"))), {}, decls)


def test_int_implements_ord_int(fgg_list):
    _, decls = fgg_list
    assert fgg_subtype(TypeApp("int"), TypeApp("Ord", (TypeApp("int"),)), {}, decls)


def test_param_subtypes_itself_and_bound(fgg_list):
    _, decls = fgg_list
    delta = {"T": TypeApp("Ord", (TypeParam("T"),))}
    assert fgg_subtype(TypeParam("T"), TypeParam("T"), delta, decls)
    assert fgg_subtype(TypeParam("T"), TypeApp("Ord", (TypeParam("T"),)), delta, decls)


def test_fgg_subtype_reflexive_and_transitive_on_corpus(corpus_programs):
    # property over all instantiated types occurring in corpus programs
    rng = random.Random(7)
    for name, program in corpus_programs.items():
        decls = Decls(program)
        pool = set()

        def add(t):
            if isinstance(t, TypeApp) and decls.type_decl(t.name) and not _mentions_param(t):
                pool.add(t)
            if isinstance(t, TypeApp):
                for a in t.args:
                    add(a)

        _walk_types(program, add)
        pool = sorted(pool, key=str)
        for t in pool:
            assert fgg_subtype(t, t, {}, decls), (name, t)
        triples = list(itertools.product(pool, repeat=3))
        rng.shuffle(triples)
        for a, b, c in triples[:200]:
            if fgg_subtype(a, b, {}, decls) and fgg_subtype(b, c, {}, decls):
                assert fgg_subtype(a, c, {}, decls), (name, a, b, c)


# Two programs declaring the same type names with different method sets:
# Box[int] and S implement I only where the methods are declared.
_WITH_M = (
    "package main\ntype Any interface {}\ntype I interface { M() int }\n"
    "type S struct {}\nfunc (s S) M() int { return 1 }\n"
    "type Box[T Any] struct { v T }\nfunc (b Box[T]) M() int { return 2 }\n"
    "func main() { _ = S{} }\n"
)
_WITHOUT_M = (
    "package main\ntype Any interface {}\ntype I interface { M() int }\n"
    "type S struct {}\nfunc (s S) N() int { return 1 }\n"
    "type Box[T Any] struct { v T }\nfunc (b Box[T]) N() int { return 2 }\n"
    "func main() { _ = S{} }\n"
)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["with-first", "without-first"])
def test_subtyping_memo_tables_are_per_program(order):
    programs = [parse_fgg(_WITH_M), parse_fgg(_WITHOUT_M)]
    box_int = TypeApp("Box", (TypeApp("int"),))
    for i in order:
        decls = Decls(programs[i])
        want = i == 0
        for _ in range(2):  # the second answer comes from the memo table
            assert fg_subtype("S", "I", decls) is want
            assert fgg_subtype(box_int, TypeApp("I"), {}, decls) is want
        assert decls.fgg_sub[(TypeApp("S"), TypeApp("I"))] is want
        assert decls.fgg_sub[(box_int, TypeApp("I"))] is want


def test_fg_subtype_is_fgg_subtype_of_the_nullary_types(corpus_programs):
    # every pair of type names the corpus's translations declare, int and
    # bool among them: fg_subtype answers as fgg_subtype does on a fresh
    # ``Decls``, and files each interface goal in ``fgg_sub``
    goals = 0
    for program in corpus_programs.values():
        for out in (translate_program(program), erase_program(program)[0]):
            decls, fresh = Decls(out), Decls(out)
            names = [*decls.structs, *decls.interfaces]
            assert {"int", "bool"} <= set(names)
            for t, u in itertools.product(names, repeat=2):
                want = fgg_subtype(TypeApp(t), TypeApp(u), {}, fresh)
                assert fg_subtype(t, u, decls) is want, (t, u)
                if t != u and u in decls.interfaces:
                    assert decls.fgg_sub[(TypeApp(t), TypeApp(u))] is want
                    goals += 1
            assert all(sigma.name in decls.interfaces for _, sigma in decls.fgg_sub)
    assert goals > 1000


@pytest.mark.parametrize("side", ["left", "right", "both"])
def test_join_with_bottom_is_the_other_side(side):
    # panic joins any type at that type, without a rule of its own: Bottom
    # is a subtype of every type and no type but Bottom is one of Bottom
    decls = Decls(load("fgg_list.fgg"))
    delta = {"T": TypeApp("Any")}
    for t in (INT, TypeApp("Any"), TypeApp("Nil", (INT,)), TypeParam("T"), BOTTOM):
        tt, te = {"left": (BOTTOM, t), "right": (t, BOTTOM), "both": (BOTTOM, BOTTOM)}[side]
        for expected in (None, TypeApp("Any")):
            got = typecheck._join(tt, te, expected, lambda a, b: fgg_subtype(a, b, delta, decls))
            assert got is (BOTTOM if side == "both" else t)


def test_open_fgg_goals_are_not_memoised():
    # a goal under a non-empty delta depends on delta's bounds
    decls = Decls(load("fgg_list.fgg"))
    ord_t = TypeApp("Ord", (TypeParam("T"),))
    assert fgg_subtype(TypeParam("T"), ord_t, {"T": ord_t}, decls)
    assert not fgg_subtype(TypeParam("T"), ord_t, {"T": TypeApp("Any")}, decls)
    assert decls.fgg_sub == {}


def _mentions_param(t) -> bool:
    if isinstance(t, TypeParam):
        return True
    return any(_mentions_param(a) for a in t.args)


def _walk_types(node, add):
    import dataclasses

    if isinstance(node, (TypeApp, TypeParam)):
        add(node)
        return
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            if f.name != "origin":
                _walk_types(getattr(node, f.name), add)
    elif isinstance(node, tuple):
        for x in node:
            _walk_types(x, add)


# -- method sets ----------------------------------------------------------------


def test_methods_of_list_int_contains_instantiated_map(fgg_list):
    _, decls = fgg_list
    mset = fgg_methods(TypeApp("List", (TypeApp("int"),)), {}, decls)
    sig = mset["Map"]
    assert sig.tformal[0].bound == TypeApp("Any")
    assert sig.params[0].type == TypeApp("Function", (TypeApp("int"), TypeParam("R")))
    assert sig.ret == TypeApp("List", (TypeParam("R"),))


def test_methods_of_any_is_empty(fgg_list):
    _, decls = fgg_list
    assert fgg_methods(TypeApp("Any"), {}, decls) == {}


def test_methods_of_param_are_bounds_methods(fgg_list):
    _, decls = fgg_list
    delta = {"α": TypeApp("Ord", (TypeParam("α"),))}
    mset = fgg_methods(TypeParam("α"), delta, decls)
    assert list(mset) == ["Gt"]
    assert mset["Gt"].params[0].type == TypeParam("α")
    assert mset["Gt"].ret == TypeApp("bool")


def test_method_sets_are_substituted_once_per_type_and_program(monkeypatch):
    # every closed type's method set costs one substitution per signature,
    # once per Decls; a second program with the same type names builds its own
    subst_calls = []
    real = typecheck.subst_sig
    monkeypatch.setattr(typecheck, "subst_sig", lambda *a: subst_calls.append(a) or real(*a))
    program = load("fgg_list.fgg")
    closed = {n for n in walk(program) if isinstance(n, TypeApp) and not _mentions_param(n)}
    want = sum(len(fgg_methods(t, {}, Decls(program))) for t in closed)
    subst_calls.clear()
    decls = Decls(program)
    for _ in range(3):
        for t in closed:
            fgg_methods(t, {}, decls)
    assert len(subst_calls) == want > 0
    assert set(decls.msets) == closed

    box_int = TypeApp("Box", (TypeApp("int"),))
    sets = [fgg_methods(box_int, {}, Decls(parse_fgg(src))) for src in (_WITH_M, _WITHOUT_M, _WITH_M)]
    assert [list(m) for m in sets] == [["M"], ["N"], ["M"]]
    assert sets[0] is not sets[2]


def test_canon_sig_ignores_parameter_names(fgg_list):
    _, decls = fgg_list
    a = fgg_methods(TypeApp("Function", (TypeApp("int"), TypeApp("bool"))), {}, decls)["Apply"]
    b = fgg_methods(TypeApp("GtFunc", (TypeApp("int"),)), {}, decls)["Apply"]
    assert canon_sig(a) == canon_sig(b)


def _signatures(program) -> list:
    """The signature of every method and interface spec ``program`` declares."""
    sigs = []
    for d in program.decls:
        if isinstance(d, MethodDecl):
            sigs.append(d.sig)
        elif isinstance(d, InterfaceDecl):
            sigs.extend(s.sig for s in d.specs)
    return sigs


def _canon_sig_by_renaming(sig) -> tuple:
    """canon_sig's form built by renaming the type formals to positions and
    substituting, whether or not there are any."""
    ren = {fp.name: TypeParam("$%d" % i) for i, fp in enumerate(sig.tformal)}
    bounds = tuple(subst_type(fp.bound, ren) for fp in sig.tformal)
    return (bounds, tuple(subst_type(p.type, ren) for p in sig.params), subst_type(sig.ret, ren))


def test_canon_sig_without_type_formals_equals_the_renamed_form(corpus_programs):
    programs = [*corpus_programs.values(), *(generate(BenchConfig(f, n, 1)) for f, n in SMALL_FAMILIES)]
    sigs = [sig for p in programs for sig in _signatures(p)]
    plain = [sig for sig in sigs if not sig.tformal]
    assert 0 < len(plain) < len(sigs)
    for sig in sigs:
        assert canon_sig(sig) == _canon_sig_by_renaming(sig), sig


# -- expression typing ------------------------------------------------------------


def test_literal_types_as_itself(fgg_list):
    _, decls = fgg_list
    e = parse_fgg(read("fgg_list.fgg")).main
    t = fgg_typecheck_expr(e, {}, {}, decls)
    assert t == TypeApp("List", (TypeApp("bool"),))


def test_cons_literal_has_cons_type(fgg_list):
    _, decls = fgg_list
    src = "package main\nfunc main() { _ = Cons[int]{1, Nil[int]{}} }\n"
    e = parse_fgg("package main\n" + read("fgg_list.fgg").split("package main\n", 1)[1].rsplit("func main", 1)[0] + src.split("package main\n", 1)[1]).main
    assert fgg_typecheck_expr(e, {}, {}, decls) == TypeApp("Cons", (TypeApp("int"),))


@pytest.mark.parametrize(
    "e, rule",
    [
        (FieldSel(Panic(), "f"), "t-field"),
        (Binop("+", Panic(), IntLit(1)), "t-binop"),
        (If(Panic(), IntLit(1), IntLit(2)), "t-if"),
    ],
    ids=["field", "binop", "if"],
)
def test_panic_typed_operand_is_a_check_error(fgg_list, e, rule):
    # such terms arise when r-call inlines a panic body
    _, decls = fgg_list
    with pytest.raises(CheckError, match="^%s: .* panic$" % rule):
        fgg_typecheck_expr(e, {}, {}, decls)


def test_variable_lookup_types_as_declared(fgg_list):
    _, decls = fgg_list
    from feathergo.syntax import Var

    assert fgg_typecheck_expr(Var("x"), {}, {"x": TypeParam("α")}, decls) == TypeParam("α")


# -- program checking --------------------------------------------------------------


def test_fgg_listing_ok():
    assert fgg_typecheck_program(load("fgg_list.fgg")) == []


def test_fgg_listing_with_failing_line_rejected():
    diags = fgg_typecheck_program(parse_fgg(read("fgg_list_fail.fgg")))
    assert diags, "second Map call must be rejected"
    assert any("Function[bool, bool]" in d.message for d in diags)


def test_duplicate_struct_declaration_rejected():
    src = "package main\ntype Nil struct {}\ntype Nil struct {}\nfunc main() { _ = Nil{} }\n"
    diags = fgg_typecheck_program(parse_fgg(src))
    assert any("duplicate type declaration" in d.message for d in diags)


@pytest.mark.parametrize(
    "decls, message, at",
    [
        ("type S struct { a int; a int }\n", "t-struct: duplicate field a in S", "3:1"),
        ("type S struct { a Nope }\n", "t-struct: struct S: t-named: unknown type Nope", "3:1"),
        ("type I interface { M() int; M() int }\n", "t-interface: duplicate method M in I", "3:1"),
        ("type I interface { M(x int, x int) int }\n", "t-specification: parameter names not distinct in I.M", "3:1"),
        ("func (a Any) M() int { return 1 }\n", "t-func: receiver Any is not a declared struct", "3:1"),
        (
            "type Box[T Any] struct {}\nfunc (b Box[T, U]) M() int { return 1 }\n",
            "t-func: receiver of method Box.M needs 1 type parameters, got 2",
            "4:1",
        ),
        (
            "type Pair[T Any, U Any] struct {}\nfunc (p Pair[T, T]) M() int { return 1 }\n",
            "t-func: receiver type parameters not distinct in method Pair.M",
            "4:1",
        ),
        (
            "type S struct {}\nfunc (s S) M(s int) int { return 1 }\n",
            "t-func: parameter names not distinct in method S.M",
            "4:1",
        ),
        (
            "type S struct {}\nfunc (s S) M() int { return true }\n",
            "t-func: body of method S.M has type bool, not a subtype of int",
            "4:1",
        ),
        (
            "type S struct {}\nfunc (s S) M() int { return 1 }\nfunc (s S) M() int { return 2 }\n",
            "t-prog: duplicate method declaration S.M",
            "5:1",
        ),
        ("type S struct {}\ntype S interface {}\n", "t-prog: duplicate type declaration S", "4:1"),
        ("type int struct {}\n", "t-prog: duplicate builtin declaration int", "3:1"),
        (
            "type S struct {}\ntype Box[T S] struct {}\n",
            "t-formal: bound of T in struct Box must be an interface type",
            "4:1",
        ),
        ("type Pair[T Any, T Any] struct {}\n", "t-formal: type parameters not distinct in struct Pair", "3:1"),
        (
            "type Box[T Any] struct {}\nfunc (b Box[T]) M[T Any]() int { return 1 }\n",
            "t-formal: type parameters not distinct in method Box.M",
            "4:1",
        ),
        (
            "type I[T Any] interface {}\ntype Box[T I] struct {}\n",
            "t-formal: struct Box: t-named: I expects 1 type arguments, got 0",
            "4:1",
        ),
    ],
    ids=[
        "duplicate-field", "field-type", "duplicate-spec", "spec-parameters", "receiver-not-struct",
        "receiver-arity", "receiver-parameters", "method-parameters", "method-body", "duplicate-method",
        "duplicate-type", "builtin-type", "bound-not-interface", "formal-not-distinct",
        "method-formal-repeats-receiver", "bound-arity",
    ],
)
def test_declaration_diagnostics(decls, message, at):
    # each diagnostic sits at its declaration's ``type`` or ``func`` token
    program = parse_fgg("package main\ntype Any interface {}\n" + decls + "func main() { _ = 1 }\n")
    assert [(d.message, "%d:%d" % (d.line, d.col)) for d in fgg_typecheck_program(program)] == [(message, at)]


def test_declaration_and_main_diagnostics_sit_at_their_keyword():
    src = "package main\n  type S struct { a Nope }\n\tfunc (s S) M() int { return true }\n   func main() { _ = S{1}.N() }\n"
    diags = fgg_typecheck_program(parse_fgg(src))
    assert [(d.line, d.col, d.message.split(":")[0]) for d in diags] == [(2, 3, "t-struct"), (3, 2, "t-func"), (4, 4, "main")]


@pytest.mark.parametrize(
    "decls, message",
    [
        ("type S struct { a Foo[Bar] }\n", "t-struct: struct S: t-named: unknown type Foo"),
        (
            "type I interface { M() int }\ntype Box[T I] struct {}\ntype Two[A Any, B Any] struct {}\n"
            "type S struct { a Two[Box[int], Nope] }\n",
            "t-struct: struct S: t-named: Box: type argument int does not implement bound I",
        ),
    ],
    ids=["name-before-arguments", "argument-bounds-before-next-argument"],
)
def test_well_formedness_reports_in_descent_order(decls, message):
    # a type's name is looked up before its arguments are, and an argument's
    # bounds are checked before the next argument is looked at
    program = parse_fgg("package main\ntype Any interface {}\n" + decls + "func main() { _ = 1 }\n")
    assert [d.message for d in fgg_typecheck_program(program)] == [message]


def test_cyclic_type_parameter_bounds_are_a_diagnostic():
    src = (
        "package main\ntype Any interface {}\ntype S[T U, U T] struct {}\n"
        "func (s S[T, U]) M(x T) Any { return x.Foo() }\nfunc main() { _ = S[Any, Any]{} }\n"
    )
    assert [d.message for d in fgg_typecheck_program(parse_fgg(src))] == [
        "t-formal: bound of T in struct S must be an interface type",
        "t-formal: bound of U in struct S must be an interface type",
        "method S.M: t-param: cyclic bound of type parameter T",
    ]


def test_fg_listing_ok():
    for dialect in ("core", "extended"):
        assert fg_typecheck_program(load("fg_list.fg"), dialect) == []


def test_fg_check_rejects_an_unknown_dialect():
    # a misspelt dialect was checked as extended, so core's rules went unchecked
    program = parse_fg("package main\nfunc main() { _ = 1 != 2 }\n", "extended")
    assert [d.message for d in fg_typecheck_program(program, "core")] == ["t-core: neq is not core fg"]
    assert fg_typecheck_program(program, "extended") == []
    for dialect in ("Core", "fg", ""):
        with pytest.raises(ValueError, match="dialect must be 'core' or 'extended'"):
            fg_typecheck_program(program, dialect)


def test_fg_literal_arity_mismatch():
    src = "package main\ntype Pair struct { a Pair; b Pair }\nfunc main() { _ = Pair{} }\n"
    diags = fg_typecheck_program(parse_fgg(src), "core")
    assert any("t-literal" in d.message for d in diags)


@pytest.mark.parametrize("path", FGG_FILES, ids=lambda p: p.name)
def test_whole_corpus_typechecks(path):
    assert fgg_typecheck_program(parse_fgg(path.read_text())) == []


# -- fg as the parameter-free fragment of fgg ---------------------------------------


_TRANSLATED = [p.name for p in FGG_FILES] + ["%s%d" % (f, n) for f in "abcde" for n in (2, 3)]


@pytest.mark.parametrize("name", _TRANSLATED)
def test_translations_typecheck_as_extended_fg(name):
    program = generate(BenchConfig(name[0], int(name[1:]))) if name[1:].isdigit() else load(name)
    assert fg_typecheck_program(translate_program(program), "extended") == []
    assert fg_typecheck_program(erase_program(program)[0], "extended") == []


def test_translators_reuse_the_checkers_decls(monkeypatch):
    # one source Decls per program: the caller's check builds it, and each
    # translator, the interpreter and co-simulation's source side reuse it;
    # co-simulation builds one more, the target's
    program = load("gtfunc.fgg")
    built = []
    init = Decls.__init__
    monkeypatch.setattr(Decls, "__init__", lambda self, p: built.append(p) or init(self, p))
    checked = fgg_typecheck_program(program)
    assert Translator(program).decls is checked.decls
    erase_program(program)
    assert run(program).describe() == "false"
    assert built == [program]
    check_correspondence(program, max_steps=5)
    assert len(built) == 2 and built[1] is not program


_JUDGED = [p.name for p in CORPUS_FILES if p.suffix == ".fgg"] + [
    "%s%d" % (f, n) for f in "abcde" for n in (2, 3, 4)
]


@pytest.mark.parametrize("name", _JUDGED)
def test_a_program_is_judged_once_and_as_an_equal_program_is(monkeypatch, name):
    # both translations and a co-simulation reuse the caller's judgement,
    # and after they have used it, it equals that of an equal program
    judged = []
    check = typecheck._check_program
    monkeypatch.setattr(typecheck, "_check_program", lambda p: judged.append(p) or check(p))

    def build():
        return generate(BenchConfig(name[0], int(name[1:]))) if name[1:].isdigit() else load(name)

    program, twin = build(), build()
    assert program == twin and program is not twin
    kept = fgg_typecheck_program(program)
    assert fgg_typecheck_program(program) is kept
    if not kept:
        translate_program(program)
        erase_program(program)
        check_correspondence(program, max_steps=20)
    assert judged == [program]
    fresh = fgg_typecheck_program(twin)
    assert fgg_typecheck_program(program) is kept and fresh is not kept
    assert list(kept) == list(fresh)
    assert kept.envs == fresh.envs
    for table in ("structs", "interfaces", "methods", "methods_by_type", "duplicates"):
        assert getattr(kept.decls, table) == getattr(fresh.decls, table), table


def test_translating_a_program_checked_ill_typed_raises_the_checkers_diagnostics():
    program = parse_fgg(read("fgg_list_fail.fgg"))
    diags = fgg_typecheck_program(program)
    assert diags
    for translate, error in (
        (translate_program, TranslationError),
        (erase_program, ErasureError),
        (check_correspondence, TranslationError),
    ):
        for _ in range(2):
            with pytest.raises(error) as ex:
                translate(program)
            assert ex.value.diagnostics == diags
    assert fgg_typecheck_program(program) is diags


def test_a_checked_translated_program_is_freed_by_reference_counting():
    # a program keeps its judgement, and the judgement does not refer back
    # to the program, so dropping the last reference frees both at once
    gc.disable()
    try:
        program = load("gtfunc.fgg")
        checked = fgg_typecheck_program(program)
        translate_program(program)
        erase_program(program)
        assert check_correspondence(program, max_steps=50).ok
        refs = weakref.ref(program), weakref.ref(checked.decls)
        del program, checked
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


_FGG_DECLS = (
    "package main\ntype Any interface {}\n"
    "type S struct {}\ntype Box[T Any] struct { v T }\n"
)


@pytest.mark.parametrize(
    "decls, main, rule",
    [
        ("", "Box[int]{1}", "t-type: fg declarations take no type formal (Box)"),
        ("type I interface { M[T Any]() int }\n", "S{}", "t-specification: fg specs take no type formal (M)"),
        ("func (s S) M[T Any]() int { return 1 }\n", "S{}", "t-func: fg methods take no type parameters (method S.M)"),
        ("func (b Box[T]) M() int { return 1 }\n", "S{}", "t-func: fg methods take no type parameters (method Box.M)"),
        ("", "Box[int]{1}", "t-named: Box[int] is not an fg type"),
        ("func (s S) M[T Any]() int { return 1 }\n", "S{}.M[int]()", "t-call: fg methods take no type arguments (M)"),
    ],
    ids=["type-formal", "spec-formal", "method-formal", "receiver-params", "type-args", "call-targs"],
)
def test_fg_rejects_what_fgg_adds(decls, main, rule):
    program = parse_fgg(_FGG_DECLS + decls + "func main() { _ = %s }\n" % main)
    assert fgg_typecheck_program(program) == []
    assert rule in [d.message for d in fg_typecheck_program(program, "extended")]


def test_core_fg_rejects_each_extended_form():
    src = (
        "package main\ntype Any interface {}\ntype S struct {}\n"
        "func (s S) Run(x int) int { if (x != 0) { return x } else { s.Stop(); panic } }\n"
        "func (s S) Stop() int { return 0 }\n"
        "func main() { _ = S{}.Run(1) }\n"
    )
    program = parse_fg(src, "extended")
    assert fg_typecheck_program(program, "extended") == []
    assert sorted(d.message for d in fg_typecheck_program(program, "core")) == [
        "t-core: %s is not core fg" % form for form in ("if", "neq", "panic", "seq")
    ]


# type actuals nested in every position a type can take, type parameters
# among them, and the forms core FG lacks: the fragment check's messages
# come in the order of a preorder walk over all of it
_NOT_FG = """package main
type Any interface {}
type Box[T Any] struct { v T }
type Pair[A Any, B Box[Box[A]]] struct { a A; b Box[Pair[A, B]] }
type I[T Any] interface { M[U I[Box[U]]](x Box[T], y U) Pair[T, Box[U]] }
func (p Pair[A, B]) M[U Any](x Box[A]) Pair[Box[U], A] {
	p.M[Box[A]](Box[Pair[A, B]]{p}).(Pair[U, Box[A]])
	if (p.a < 1) { return Pair[Box[U], A]{Box[U]{x.v.(U)}, p.a} } else { return p.M[U](x) }
}
func main() { _ = Pair[int, Box[Box[int]]]{1, Box[Pair[int, Box[Box[int]]]]{}}.M[Box[int]](Box[int]{2}).(Box[Box[int]]) }
"""


def _fragment_inputs() -> dict:
    """Every corpus file as parsed (the FG listing in extended FG, the rest
    as FGG), both translations of every corpus program and of one small
    program per benchmark family, and ``_NOT_FG``."""
    out = {"not-fg": parse_fgg(_NOT_FG)}
    for path in CORPUS_FILES:
        out[path.name] = parse_fg(path.read_text(), "extended") if path.suffix == ".fg" else parse_fgg(path.read_text())
    sources = {p.name: out[p.name] for p in FGG_FILES}
    sources.update({"%s%d" % fn: generate(BenchConfig(*fn, 1)) for fn in SMALL_FAMILIES})
    for name, program in sources.items():
        out[name + " (dict)"] = translate_program(program)
        out[name + " (erasure)"] = erase_program(program)[0]
    return out


def test_fragment_check_matches_the_walk_over_every_node():
    # the one-pass fragment check against the node-by-node check over a
    # walk it replaced: the same messages in the same order, under both
    # dialects, ahead of the FGG judgement's own diagnostics
    counts = {}
    for name, program in _fragment_inputs().items():
        fgg = [d.message for d in fgg_typecheck_program(program)]
        for dialect in ("core", "extended"):
            want = reference_fragment_messages(program, dialect)
            assert [d.message for d in fg_typecheck_program(program, dialect)] == want + fgg, (name, dialect)
            counts[dialect] = counts.get(dialect, 0) + len(want)
    assert 0 < counts["extended"] < counts["core"]


def test_fragment_diagnostics_carry_their_declarations_positions():
    # a built FG program with a generic method and a type-argument call in
    # main: each fragment diagnostic sits at its declaration, main's at the
    # program's position
    generic = MethodSig((FormalParam("T", TypeApp("Any")),), (Param("x", TypeParam("T")),), INT)
    program = Program(
        (
            InterfaceDecl("Any", pos=(2, 1)),
            StructDecl("S", pos=(3, 1)),
            MethodDecl("s", "S", (), "M", generic, IntLit(1), pos=(4, 1)),
        ),
        MethodCall(StructLit(TypeApp("S")), "M", (INT,), (IntLit(1),)),
        pos=(5, 1),
    )
    assert fgg_typecheck_program(program) == []
    for dialect in ("core", "extended"):
        assert fg_typecheck_program(program, dialect) == [
            Diagnostic("t-func: fg methods take no type parameters (method S.M)", 4, 1),
            Diagnostic("t-named: T is not an fg type", 4, 1),
            Diagnostic("t-call: fg methods take no type arguments (M)", 5, 1),
        ]


def test_a_literal_of_a_type_parameter_named_like_a_struct_is_not_a_struct():
    # only a built program holds one (the parser gives a literal a named
    # type); in main and in a method body, under both entry points
    s = StructDecl("S", pos=(2, 1))
    body = MethodDecl("s", "S", (), "M", MethodSig((), (), TypeApp("S")), StructLit(TypeParam("S")), pos=(3, 1))
    for decls, main, want in [
        ((s,), StructLit(TypeParam("S")), Diagnostic("main: t-literal: S is not a struct", 4, 1)),
        ((s, body), StructLit(TypeApp("S")), Diagnostic("method S.M: t-literal: S is not a struct", 3, 1)),
    ]:
        program = Program(decls, main, pos=(4, 1))
        assert fgg_typecheck_program(program) == [want]
        for dialect in ("core", "extended"):
            stray = Diagnostic("t-named: S is not an fg type", want.line, want.col)
            assert fg_typecheck_program(program, dialect) == [stray, want]


def test_the_fragment_walk_runs_only_where_the_judgement_cannot_answer(monkeypatch):
    # both translations of every corpus source and of each family at 2 are
    # judged without the walk; a program with type formals is walked
    calls = []
    walk_fragment = typecheck._not_fg
    monkeypatch.setattr(typecheck, "_not_fg", lambda p, dialect: calls.append(p) or walk_fragment(p, dialect))
    for program in [load(p.name) for p in FGG_FILES] + [generate(BenchConfig(f, 2)) for f in "abcde"]:
        assert fg_typecheck_program(translate_program(program), "extended") == []
        assert fg_typecheck_program(erase_program(program)[0], "extended") == []
    assert calls == []
    assert fg_typecheck_program(parse_fgg(_NOT_FG), "extended") != []
    assert len(calls) == 1


def _retype(program, f):
    """``program`` with the value ``v`` of each type slot replaced by
    ``f(kind, v)``. A slot's kind is "field", "spec-param", "spec-ret",
    "param" or "ret" (a method's), or, in an expression, "literal",
    "assert" or "targs" (a call's type actuals, a tuple), with "main-"
    before it in ``main``."""

    def expr(e, where):
        def retyped(n, kids):
            n = rebuild(n, kids)
            if type(n) is StructLit:
                return replace(n, type=f(where + "literal", n.type))
            if type(n) is TypeAssert:
                return replace(n, type=f(where + "assert", n.type))
            if type(n) is MethodCall:
                return replace(n, targs=f(where + "targs", n.targs))
            return n

        return fold(e, retyped)

    def sig(s, where):
        params = tuple(replace(p, type=f(where + "param", p.type)) for p in s.params)
        return replace(s, params=params, ret=f(where + "ret", s.ret))

    decls = []
    for d in program.decls:
        if type(d) is StructDecl:
            d = replace(d, fields=tuple(replace(p, type=f("field", p.type)) for p in d.fields))
        elif type(d) is InterfaceDecl:
            d = replace(d, specs=tuple(replace(s, sig=sig(s.sig, "spec-")) for s in d.specs))
        else:
            d = replace(d, sig=sig(d.sig, ""), body=expr(d.body, ""))
        decls.append(d)
    return replace(program, decls=tuple(decls), main=expr(program.main, "main-"))


def _slots(program) -> list:
    kinds = []
    _retype(program, lambda kind, v: kinds.append(kind) or v)
    return kinds


def _mutant(program, k: int, new):
    """``program`` with its ``k``-th type slot's value ``v`` replaced by
    ``new(kind, v)``."""
    seen = itertools.count()
    return _retype(program, lambda kind, v: new(kind, v) if next(seen) == k else v)


def _keeps_the_walk_first_messages(program) -> bool:
    fgg = [d.message for d in typecheck._check_program(program)]
    return all(
        [d.message for d in fg_typecheck_program(program, dialect)] == reference_fragment_messages(program, dialect) + fgg
        for dialect in ("core", "extended")
    )


_FORMAL_FREE = """package main
type I interface { M(x S) S }
type S struct { f int }
func (s S) M(x S) S { return S{s.f}.M(x).(S) }
func main() { _ = S{1}.M(S{2}).(I) }
"""


def test_a_stray_type_argument_or_parameter_is_reported_as_the_walk_reports_it():
    # the walk is skipped on a formal-free program the judgement accepts:
    # a type argument or a type parameter in any position the walk
    # inspects must make the judgement report, and the messages are the
    # walk's followed by the judgement's, as when the walk ran first
    program = parse_fgg(_FORMAL_FREE)
    assert fg_typecheck_program(program, "extended") == []
    kinds = _slots(program)
    assert {k.removeprefix("main-") for k in kinds} == {
        "field", "spec-param", "spec-ret", "param", "ret", "literal", "assert", "targs"
    }
    assert {"main-literal", "main-assert", "main-targs"} <= set(kinds)
    strays = (
        lambda kind, v: (INT,) if kind.endswith("targs") else TypeApp(v.name, (INT,)),
        lambda kind, v: (TypeParam("X"),) if kind.endswith("targs") else TypeParam("X"),
    )
    for k, kind in enumerate(kinds):
        for stray in strays:
            mutant = _mutant(program, k, stray)
            assert reference_fragment_messages(mutant, "extended"), kind
            assert typecheck._check_program(mutant), kind
            assert _keeps_the_walk_first_messages(mutant), kind


def test_mutated_translations_keep_the_walk_first_messages():
    # a type name swapped for another declared one, or a type actual added,
    # at sampled type slots of every dict and erasure output
    rng = random.Random(26)
    verdicts = {True: 0, False: 0}
    for name, program in _fragment_inputs().items():
        if not name.endswith(("(dict)", "(erasure)")):
            continue
        names = [TypeApp(d.name) for d in program.decls if type(d) is not MethodDecl] + [INT, TypeApp("bool")]
        kinds = _slots(program)
        for k in rng.sample(range(len(kinds)), min(16, len(kinds))):
            if kinds[k].endswith("targs"):
                new = lambda kind, v: v + (rng.choice(names),)
            elif rng.random() < 0.5:
                new = lambda kind, v: rng.choice(names)
            else:
                new = lambda kind, v: TypeApp(v.name, v.args + (rng.choice(names),))
            mutant = _mutant(program, k, new)
            assert _keeps_the_walk_first_messages(mutant), (name, kinds[k])
            verdicts[fg_typecheck_program(mutant, "extended") == []] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0, verdicts


_FG_DECLS = (
    "package main\ntype I interface { M() int }\n"
    "type S struct { n int }\ntype T struct {}\n"
    "func (t T) Get() I { return t.Get() }\nfunc (t T) M() int { return 1 }\n"
)


@pytest.mark.parametrize(
    "main, rule",
    [
        ("S{true}", "t-literal: field n of S needs int, got bool"),
        ("S{1}.M()", "t-call: no method M on S"),
        ("T{}.Get().(S)", "t-assert_S: S does not implement I"),
    ],
    ids=["field-type", "missing-method", "assert-S"],
)
def test_fg_negatives(main, rule):
    assert fg_typecheck_program(parse_fg(_FG_DECLS + "func main() { _ = T{}.Get().(T) }\n"), "core") == []
    diags = fg_typecheck_program(parse_fg(_FG_DECLS + "func main() { _ = %s }\n" % main), "core")
    assert [d.message for d in diags] == ["main: " + rule]


def test_memoised_interface_joins_equal_fresh_ones(monkeypatch):
    # every join met in typing the states of the corpus's source runs and in
    # their co-simulations (the checker joins an ``if`` whose branches became
    # distinct struct values) is the one a fresh ``Decls`` computes
    met = []
    join = typecheck._interface_join

    def recording_join(tt, te, delta, decls):
        out = join(tt, te, delta, decls)
        met.append((tt, te, delta, decls, out))
        return out

    indexed = {}  # id(decls) -> (decls, the program it indexes)
    init = Decls.__init__

    def recording_init(self, program):
        indexed[id(self)] = (self, program)
        init(self, program)

    monkeypatch.setattr(typecheck, "_interface_join", recording_join)
    monkeypatch.setattr(Decls, "__init__", recording_init)
    for path in FGG_FILES:
        program = parse_fgg(path.read_text())
        decls, e = Decls(program), program.main
        for _ in range(300):
            fgg_typecheck_expr(e, {}, {}, decls)
            out = fgg_step(e, decls)
            if not isinstance(out, Stepped):
                break
            e = out.expr
        assert check_correspondence(program).ok
    assert met
    for tt, te, delta, decls, out in met:
        assert out == join(tt, te, delta, Decls(indexed[id(decls)][1]))
