import pytest

from feathergo import bench, dicttrans
from feathergo.dicttrans import (
    RESERVED_NAME,
    Ctx,
    Translator,
    arity,
    max_formal,
    translate_program,
    translate_with_info,
)
from feathergo.parser import parse_fgg
from feathergo.reduce import run
from feathergo.syntax import (
    FieldSel,
    InterfaceDecl,
    MethodCall,
    MethodDecl,
    StructDecl,
    StructLit,
    TypeApp,
    TypeAssert,
    TypeParam,
    Var,
    node_count,
    pretty_print,
    print_decl,
    print_expr,
    walk,
)
from feathergo.typecheck import Decls, fg_typecheck_program, fgg_typecheck_program

from conftest import FGG_FILES, TERMINATING, generated_struct_names, load


@pytest.fixture(scope="module")
def listing():
    return load("fgg_list.fgg")


@pytest.fixture(scope="module")
def typerep_out():
    return translate_program(load("typerep.fgg"))


def decl_by_name(program, name, kind=None):
    for d in program.decls:
        if getattr(d, "name", None) == name and (kind is None or isinstance(d, kind)):
            return d
    raise KeyError(name)


def method_decl(program, recv, name):
    for d in program.decls:
        if isinstance(d, MethodDecl) and d.recv_type == recv and d.name == name:
            return d
    raise KeyError((recv, name))


# -- auxiliary functions ---------------------------------------------------------


def test_arity_counts_type_and_value_parameters(listing):
    decls = Decls(listing)
    map_sig = decls.interfaces["List"].specs[0].sig
    assert arity(map_sig) == 2  # one type parameter + one value parameter
    gt_sig = decls.interfaces["Ord"].specs[0].sig
    assert arity(gt_sig) == 1


def test_arity_zero_for_no_parameters():
    p = parse_fgg(
        "package main\ntype Any interface {}\ntype S struct {}\n"
        "func (this S) M() int { return 1 }\nfunc main() { _ = S{}.M() }\n"
    )
    assert arity(Decls(p).methods[("S", "M")].sig) == 0


def test_max_formal():
    p = load("fgg_list.fgg")
    by_name = {getattr(d, "name", None): d for d in p.decls}
    assert max_formal(by_name["List"]) == 1
    assert max_formal(by_name["Function"]) == 2


def test_as_param_single_eq_dict():
    p = load("eqord.fgg")
    tr = Translator(p)
    bar = Decls(p).methods[("App", "Bar")]
    params = tr.as_param(bar.sig.tformal)
    assert len(params) == 1
    assert params[0].type == TypeApp("EqDict")


def test_typemeta_concrete_param_and_nested(listing):
    tr = Translator(listing)
    # named type over a builtin: the figure's Foo_meta{Int_meta{}} shape
    assert print_expr(tr.typemeta(TypeApp("List", (TypeApp("int"),)), {})) == "List_meta{Int_meta{}}"
    # a parameter is a plain map lookup
    zeta = {"α": FieldSel(FieldSel(Var("this"), "dict_0"), "_type")}
    assert tr.typemeta(TypeParam("α"), zeta) is zeta["α"]
    # derived: recursive expansion checked via the printer
    nested = TypeApp("List", (TypeApp("List", (TypeApp("int"),)),))
    assert print_expr(tr.typemeta(nested, {})) == "List_meta{List_meta{Int_meta{}}}"


def test_signature_meta_matches_type_rep_figure():
    # both sides of the figure's spec_metadata_4 comparison
    p = load("typerep.fgg")
    tr = Translator(p)
    decls = Decls(p)
    bar_do = decls.methods[("Bar", "do")]
    zeta = {"α": FieldSel(FieldSel(Var("this"), "dict_0"), "_type")}
    got = print_expr(tr.signature_meta(bar_do.sig, zeta))
    assert got == "spec_metadata_4{Any_meta{}, param_index_0{}, this.dict_0._type, Int_meta{}}"
    foo_do = decls.interfaces["Foo"].specs[0]
    zeta = {"α": FieldSel(Var("this"), "_type_0")}
    got = print_expr(tr.signature_meta(foo_do.sig, zeta))
    assert got == "spec_metadata_4{Any_meta{}, param_index_0{}, Bool_meta{}, this._type_0}"


def test_signature_meta_zero_arg_method():
    p = parse_fgg(
        "package main\ntype Any interface {}\ntype S struct {}\n"
        "func (this S) M() S { return this }\nfunc main() { _ = S{}.M() }\n"
    )
    tr = Translator(p)
    sig = Decls(p).methods[("S", "M")].sig
    assert print_expr(tr.signature_meta(sig, {})) == "spec_metadata_1{S_meta{}}"


def test_meth_ptr_shape():
    p = load("gtfunc.fgg")
    tr = Translator(p)
    decls = Decls(p)
    struct, applicator = tr.meth_ptr("int", "Gt", decls.methods[("int", "Gt")].sig)
    assert struct == StructDecl("int_Gt")
    assert print_decl(applicator) == (
        "func (this int_Gt) Apply(rec Any, x_0 Any) Any {\n"
        "\treturn rec.(int).Gt(x_0)\n"
        "}"
    )


def test_meth_ptr_zero_arg():
    p = parse_fgg(
        "package main\ntype Any interface {}\ntype S struct {}\n"
        "func (this S) M() S { return this }\nfunc main() { _ = S{}.M() }\n"
    )
    tr = Translator(p)
    _, applicator = tr.meth_ptr("S", "M", Decls(p).methods[("S", "M")].sig)
    assert [pp.name for pp in applicator.sig.params] == ["rec"]


# -- makeDict ---------------------------------------------------------------------


def test_make_dict_concrete_type_builds_abstractors():
    # case (iii): the figure's main builds OrdDict{Gt: ..., meta}
    p = load("gtfunc.fgg")
    tr = Translator(p)
    ctx = Ctx({}, {}, {})
    d = tr.make_dict1(TypeApp("int"), TypeApp("Ord", (TypeApp("int"),)), ctx)
    assert print_expr(d) == "OrdDict{int_Gt{}, Int_meta{}}"


def test_make_dict_identity_case():
    # case (i): the parameter's own dictionary is passed through verbatim
    p = load("gtfunc.fgg")
    tr = Translator(p)
    eta = {"T": FieldSel(Var("this"), "dict_0", origin="dict")}
    delta = {"T": TypeApp("Ord", (TypeParam("T"),))}
    d = tr.make_dict1(TypeParam("T"), TypeApp("Ord", (TypeParam("T"),)), Ctx(delta, eta, {}))
    assert d is eta["T"]


def test_make_dict_supertyping_copies_fields():
    # case (ii): the smaller Eq dictionary is destructured out of the Ord one
    p = load("eqord.fgg")
    tr = Translator(p)
    eta = {"β": Var("dict_0")}
    delta = {"β": TypeApp("Ord", (TypeParam("β"),))}
    d = tr.make_dict1(TypeParam("β"), TypeApp("Eq", (TypeParam("β"),)), Ctx(delta, eta, {}))
    assert print_expr(d) == "EqDict{dict_0.Equal, dict_0._type}"


# -- declaration translation --------------------------------------------------------


def test_translate_interface_ord(listing):
    out = translate_program(load("gtfunc.fgg"))
    dict_struct = decl_by_name(out, "OrdDict", StructDecl)
    assert [f.name for f in dict_struct.fields] == ["Gt", "_type"]
    assert dict_struct.fields[0].type == TypeApp("Func_1")
    assert dict_struct.fields[1].type == TypeApp("_type_mdata")


def test_translate_interface_foo_gains_spec(typerep_out):
    foo = decl_by_name(typerep_out, "Foo", InterfaceDecl)
    spec_names = [s.name for s in foo.specs]
    assert spec_names == ["do", "spec_do"]
    assert foo.specs[1].sig.ret == TypeApp("spec_metadata_4")


def test_translate_empty_interface_any(typerep_out):
    any_dict = decl_by_name(typerep_out, "AnyDict", StructDecl)
    assert [f.name for f in any_dict.fields] == ["_type"]
    trycast = method_decl(typerep_out, "Any_meta", "tryCast")
    assert trycast.body == Var("x")  # trivially true


def test_translate_struct_gtfunc():
    out = translate_program(load("gtfunc.fgg"))
    gtfunc = decl_by_name(out, "GtFunc", StructDecl)
    assert [(f.name, f.type.name) for f in gtfunc.fields] == [("val", "Any"), ("dict_0", "OrdDict")]


def test_translate_struct_bar(typerep_out):
    bar = decl_by_name(typerep_out, "Bar", StructDecl)
    assert [(f.name, f.type.name) for f in bar.fields] == [("dict_0", "AnyDict")]


def test_translate_zero_formal_struct_unchanged():
    out = translate_program(load("nilmain.fgg"))
    nil = decl_by_name(out, "Nil", StructDecl)
    assert nil.fields == ()
    trycast = method_decl(out, "Nil_meta", "tryCast")
    assert print_decl(trycast) == (
        "func (this Nil_meta) tryCast(x Any) Any {\n\tx.(Nil)\n\treturn x\n}"
    )


def test_translate_method_gtfunc_apply_resolves_via_dict():
    out = translate_program(load("gtfunc.fgg"))
    apply = method_decl(out, "GtFunc", "Apply")
    assert print_decl(apply) == (
        "func (this GtFunc) Apply(in Any) Any {\n"
        "\treturn this.dict_0.Gt.Apply(this.(GtFunc).val, in)\n"
        "}"
    )


def test_translate_method_max_of():
    out = translate_program(load("maxof.fgg"))
    of = method_decl(out, "Max", "Of")
    assert [(pp.name, pp.type.name) for pp in of.sig.params] == [
        ("dict_0", "OrdDict"),
        ("l", "Any"),
        ("r", "Any"),
    ]
    assert "dict_0.Gt.Apply(l, r)" in print_decl(of)


def test_translate_variable_body_is_variable():
    p = parse_fgg(
        "package main\ntype Any interface {}\ntype S struct {}\n"
        "func (this S) Id(x Any) Any { return x }\nfunc main() { _ = S{}.Id(S{}) }\n"
    )
    out = translate_program(p)
    assert method_decl(out, "S", "Id").body == Var("x")


# -- expression translation -----------------------------------------------------------


def test_translate_assert_matches_figure_main(typerep_out):
    main = typerep_out.main
    assert print_expr(main.first) == "Foo_meta{Int_meta{}}.tryCast(Bar{AnyDict{Bool_meta{}}})"
    assert print_expr(main.rest) == "Foo_meta{Bool_meta{}}.tryCast(Bar{AnyDict{Bool_meta{}}})"


def test_translate_var():
    p = load("gtfunc.fgg")
    tr = Translator(p)
    assert tr.translate_expr(Var("x"), Ctx({}, {}, {"x": TypeApp("Any")})) == Var("x")


# -- whole programs ---------------------------------------------------------------------


def test_minimal_program_inventory():
    out, inventory = translate_with_info(load("nilmain.fgg"))
    names = [getattr(d, "name", None) for d in out.decls]
    for needed in ("Any", "_type_mdata", "Nil", "Nil_meta"):
        assert needed in names
    assert any(e.name == "Nil_meta.tryCast" for e in inventory)


@pytest.mark.parametrize("path", FGG_FILES, ids=lambda p: p.name)
def test_inventory_lists_the_written_declarations_in_order(path):
    # one entry per declaration of the written program, in its order, named
    # and kinded by the declaration itself
    out, inventory = translate_with_info(parse_fgg(path.read_text()))
    written = [
        ("%s.%s" % (d.recv_type, d.name), "method") if isinstance(d, MethodDecl)
        else (d.name, "struct" if isinstance(d, StructDecl) else "interface")
        for d in out.decls
    ]
    assert [(e.name, e.kind) for e in inventory] == written
    assert all(e.source for e in inventory)


def test_box_translates_without_instance_discovery():
    out = translate_program(load("box.fgg"))
    assert fg_typecheck_program(out, "extended") == []


def _id_chain(depth: int):
    """``Box[int]{1}.Id().Id()...``, ``depth`` calls deep."""
    return parse_fgg(
        "package main\ntype Any interface {}\ntype Box[T Any] struct { v T }\n"
        "func (b Box[T]) Id() Box[T] { return b }\n"
        "func main() { _ = Box[int]{1}" + ".Id()" * depth + " }\n"
    )


def test_receiver_chain_is_typed_once_per_translation_root(monkeypatch):
    # every receiver is typed through the root's side table, so the checker
    # looks up each call's method set once, not once per enclosing call
    from feathergo import typecheck

    depth = 60
    program = _id_chain(depth)
    tr = Translator(program)
    lookups = []
    real = typecheck.fgg_methods
    monkeypatch.setattr(typecheck, "fgg_methods", lambda *a: lookups.append(a[0]) or real(*a))
    ctx = Ctx({}, {}, {})
    tr.translate_expr(program.main, ctx)
    # one lookup per inner call; the outermost call is never a receiver
    assert lookups.count(TypeApp("Box", (TypeApp("int"),))) == depth - 1
    assert len(ctx.types) == depth + 1  # the inner calls, the literal and its argument
    assert all(id(node) == key for key, (node, _) in ctx.types.items())


@pytest.mark.parametrize("name", ["c8", "chain200"])
def test_side_tables_add_no_recursion_depth(name, default_recursion_limit):
    # the typecheckers consult their side tables inline, so a deep term
    # needs no more frames than before: family c8 and a 200-deep chain
    # still translate and typecheck at the interpreter's default limit
    from feathergo.bench import BenchConfig, generate
    from feathergo.typecheck import fgg_typecheck_expr

    program = generate(BenchConfig("c", 8)) if name == "c8" else _id_chain(200)
    fgg_typecheck_expr(program.main, {}, {}, Decls(program), types={})
    out = translate_program(program)
    assert fg_typecheck_program(out, "extended") == []
    fgg_typecheck_expr(out.main, {}, {}, Decls(out), types={})


def test_translated_output_reparses(typerep_out):
    from feathergo.parser import parse_fg

    assert parse_fg(pretty_print(typerep_out), "extended") == typerep_out


def test_translation_is_deterministic():
    a = pretty_print(translate_program(load("fgg_list.fgg")))
    b = pretty_print(translate_program(load("fgg_list.fgg")))
    assert a == b


def test_node_count_grows_under_translation():
    p = load("gtfunc.fgg")
    assert node_count(translate_program(p)) > node_count(p)


@pytest.mark.parametrize("path", FGG_FILES, ids=lambda p: p.name)
def test_translate_typechecks_whole_corpus(path):
    out = translate_program(parse_fgg(path.read_text()))
    assert fg_typecheck_program(out, "extended") == []


@pytest.mark.parametrize("path", TERMINATING, ids=lambda p: p.name)
def test_value_preservation_whole_corpus(path):
    program = parse_fgg(path.read_text())
    tr = Translator(program)
    out = tr.translate_program()
    src = run(program, max_steps=10**6, lang="fgg")
    tgt = run(out, max_steps=10**6, lang="fg")
    assert src.kind == tgt.kind
    if src.kind == "value":
        assert tgt.value == tr.translate_closed_expr(src.value)


def test_dictionary_shape_invariant():
    # every emitted dictionary literal: one field per bound method plus a type-rep
    for name in ("gtfunc.fgg", "eqord.fgg", "fbound_self.fgg", "permute.fgg"):
        program = load(name)
        out = translate_program(program)
        tdecls = Decls(out)
        dict_structs, _ = generated_struct_names(program)

        def walk(node):
            import dataclasses

            if isinstance(node, StructLit) and node.type.name in dict_structs:
                n_methods = len(tdecls.structs[node.type.name].fields) - 1
                assert len(node.args) == n_methods + 1, node
            if dataclasses.is_dataclass(node):
                for f in dataclasses.fields(node):
                    if f.name != "origin":
                        walk(getattr(node, f.name))
            elif isinstance(node, tuple):
                for x in node:
                    walk(x)

        walk(out)


# -- name collisions --------------------------------------------------------------------


def test_collision_with_generated_dictionary_name_rejected():
    src = (
        "package main\ntype Any interface {}\n"
        "type Ord[T Ord[T]] interface { Gt(x T) bool }\n"
        "type OrdDict struct {}\n"
        "func main() { _ = OrdDict{} }\n"
    )
    with pytest.raises(dicttrans.TranslationError) as ei:
        translate_program(parse_fgg(src))
    assert str(ei.value) == "source type names collide with generated names: OrdDict"


@pytest.mark.parametrize(
    "decls, message",
    [
        (
            "type Func_0 struct {}\ntype S struct {}\nfunc (s S) M() int { return 1 }\n",
            "source type names collide with generated names: Func_0",
        ),
        # the method pointers of A.b_c and A_b.c are both named A_b_c
        (
            "type A interface { b_c() int }\ntype A_b interface { c() int }\n",
            "generated name collision: A_b_c",
        ),
    ],
    ids=["method-pointer-interface", "two-generated"],
)
def test_collision_with_another_generated_type_name_rejected(decls, message):
    src = "package main\ntype Any interface {}\n" + decls + "func main() { _ = 1 }\n"
    assert fgg_typecheck_program(parse_fgg(src)) == []
    with pytest.raises(dicttrans.TranslationError) as ei:
        translate_program(parse_fgg(src))
    assert str(ei.value) == message


def test_collision_with_generated_type_rep_name_rejected():
    # the type-rep of S is S_meta, so a source S_meta beside S collides
    src = (
        "package main\ntype Any interface {}\ntype S struct {}\ntype S_meta struct {}\n"
        "func main() { _ = S_meta{} }\n"
    )
    with pytest.raises(dicttrans.TranslationError, match="collide with generated names: S_meta"):
        translate_program(parse_fgg(src))


def test_reserved_field_name_rejected():
    src = "package main\ntype Any interface {}\ntype S struct { dict_0 Any }\nfunc main() { _ = S{1} }\n"
    assert fgg_typecheck_program(parse_fgg(src)) == []
    with pytest.raises(dicttrans.TranslationError, match="source field name dict_0 is reserved"):
        translate_program(parse_fgg(src))


@pytest.mark.parametrize(
    "name, reserved",
    [("dict_0", True), ("_type", True), ("_type_12", True), ("dict_²", False), ("dict_٣", False), ("dict_", False)],
)
def test_reserved_names_have_one_definition(name, reserved):
    # RESERVED_NAME is the translator's one definition of the field and
    # parameter names it generates, which the collision check rejects in
    # source; generated names are numbered with ASCII digits, so dict_² (an
    # identifier, as "²".isalnum()) is an ordinary source name
    src = "package main\ntype S struct { %s int }\nfunc main() { _ = S{1}.%s }\n" % (name, name)
    if reserved:
        with pytest.raises(dicttrans.TranslationError, match="field name %s is reserved" % name):
            translate_program(parse_fgg(src))
    else:
        assert run(translate_program(parse_fgg(src)), lang="fg").value == run(parse_fgg(src)).value


def _generated_shape(program):
    """Whether a node of the dictionary translation of ``program`` is shaped
    like generated dictionary plumbing or assertion simulation, judged by
    the translator's names alone (``generated_struct_names`` and
    ``RESERVED_NAME``), not by origin tags."""
    dict_structs, _ = generated_struct_names(program)

    def dictionary(e) -> bool:  # a dictionary parameter, field or literal
        if isinstance(e, Var):
            return bool(RESERVED_NAME.fullmatch(e.name))
        if isinstance(e, FieldSel):
            return bool(RESERVED_NAME.fullmatch(e.fieldname))
        return isinstance(e, StructLit) and e.type.name in dict_structs

    def generated(n) -> bool:
        if isinstance(n, FieldSel):
            return RESERVED_NAME.fullmatch(n.fieldname) or dictionary(n.recv)
        if isinstance(n, MethodCall):
            if n.name == "Apply":
                return isinstance(n.recv, FieldSel) and dictionary(n.recv.recv)
            return n.name.startswith("spec_")
        return isinstance(n, TypeAssert) and n.type.name in dict_structs

    return generated


FAMILY_INPUTS = [(f, n) for f in bench.FAMILIES for n in (2, 3, 4)]


@pytest.mark.parametrize(
    "source",
    FGG_FILES + FAMILY_INPUTS,
    ids=lambda x: x.name if hasattr(x, "name") else "%s%d" % x,
)
def test_generated_shapes_carry_origin_tags(source):
    # cosim classifies a redex by its origin tag alone, so every node of a
    # shape that only the translator generates must carry one: selects of
    # reserved fields or on dictionary literals, applicator calls on a
    # dictionary field, spec_ calls and asserts to a dictionary struct.
    # Conversely, dictionary resolution contracts the dict-tagged nodes and
    # the sim-tagged selects by their tag alone, so each of them must have
    # such a shape: resolution never contracts a node the source wrote
    if isinstance(source, tuple):
        program = bench.generate(bench.BenchConfig(source[0], source[1], 1))
    else:
        program = parse_fgg(source.read_text())
    generated = _generated_shape(program)
    nodes = list(walk(translate_program(program)))
    assert [n for n in nodes if generated(n) and n.origin is None] == []
    resolved = [
        n for n in nodes
        if getattr(n, "origin", None) == "dict" or isinstance(n, FieldSel) and n.origin == "sim"
    ]
    assert [n for n in resolved if not generated(n)] == []


@pytest.mark.parametrize("where", ["spec", "method"])
def test_reserved_parameter_name_rejected(where):
    # a generic spec gains a dictionary parameter named dict_0, which a
    # source parameter of the same name would duplicate
    decl = (
        "type I interface { M[T Any](dict_0 int) int }\n"
        if where == "spec"
        else "type S struct {}\nfunc (s S) M(dict_0 int) int { return dict_0 }\n"
    )
    src = "package main\ntype Any interface {}\n" + decl + "func main() { _ = 1 }\n"
    assert fgg_typecheck_program(parse_fgg(src)) == []
    with pytest.raises(dicttrans.TranslationError, match="parameter name dict_0 is reserved"):
        translate_program(parse_fgg(src))
