import copy
import dataclasses
import inspect
import pickle
import sys
import threading
import typing

import pytest

from feathergo import syntax
from feathergo.bench import FAMILIES, BenchConfig, generate
from feathergo.dicttrans import TranslationError, Translator, translate_program
from feathergo.erasure import erase_program
from feathergo.parser import parse_fg, parse_fgg
from feathergo.syntax import (
    INT,
    IntLit,
    MethodCall,
    Param,
    Program,
    StructDecl,
    StructLit,
    TypeApp,
    TypeAssert,
    TypeParam,
    node_count,
    pretty_print,
    print_expr,
    print_type,
    rebuild,
    subexprs,
    walk,
)
from feathergo.typecheck import subst_type

from conftest import (
    FGG_FILES,
    Stepped,
    fg_step,
    fgg_step,
    load,
    read,
    reference_print_type,
    reference_subst_type,
    reference_type_repr,
    reference_typemeta,
)


def test_print_leaf_literal():
    assert print_expr(StructLit(TypeApp("Nil"))) == "Nil{}"


def test_print_nested_literal_matches_hand_written_syntax():
    # derived: printer output checked against the concrete syntax written by hand
    e = StructLit(TypeApp("Cons", (TypeApp("int"),)), (IntLit(1), StructLit(TypeApp("Nil", (TypeApp("int"),)))))
    assert print_expr(e) == "Cons[int]{1, Nil[int]{}}"


@pytest.mark.parametrize("path", FGG_FILES, ids=lambda p: p.name)
def test_round_trip_fgg_corpus(path):
    p = parse_fgg(path.read_text())
    assert parse_fgg(pretty_print(p)) == p


def test_round_trip_fg_listing():
    p = load("fg_list.fg")
    assert parse_fg(pretty_print(p), "core") == p


def test_round_trip_gtfunc_listing():
    p = load("gtfunc.fgg")
    assert parse_fgg(pretty_print(p)) == p


def test_printer_deterministic():
    p1 = load("fgg_list.fgg")
    p2 = parse_fgg(read("fgg_list.fgg"))
    assert p1 == p2
    assert pretty_print(p1) == pretty_print(p2)


def test_node_count_additive_over_declarations():
    p = load("nilmain.fgg")
    total = node_count(p)
    assert total == 1 + sum(node_count(d) for d in p.decls) + node_count(p.main)


def test_node_count_monotone_under_added_declaration():
    p = load("nilmain.fgg")
    bigger = Program(p.decls + (StructDecl("Extra", (), (Param("x", TypeApp("int")),)),), p.main)
    assert node_count(bigger) > node_count(p)


def test_node_count_field_increment_is_constant():
    base = StructDecl("S", (), ())
    one = StructDecl("S", (), (Param("a", TypeApp("int")),))
    two = StructDecl("S", (), (Param("a", TypeApp("int")), Param("b", TypeApp("int"))))
    per_field = node_count(one) - node_count(base)
    assert node_count(two) - node_count(one) == per_field


def test_origin_tags_do_not_affect_equality():
    a = MethodCall(IntLit(1), "m", (), ())
    b = MethodCall(IntLit(1), "m", (), (), origin="dict")
    assert a == b
    assert TypeAssert(IntLit(1), TypeApp("int")) == TypeAssert(IntLit(1), TypeApp("int"), origin="erase")
    assert hash(a) == hash(b)
    assert hash(TypeAssert(a, TypeApp("int"))) == hash(TypeAssert(b, TypeApp("int"), origin="erase"))


# ---------------------------------------------------------------------------
# The generic traversal: subexprs / rebuild / walk

EXPR_CLASSES = typing.get_args(syntax.Expr)


@pytest.fixture(scope="module")
def translated_corpus(corpus_programs):
    """Every corpus program with its dict and erasure translations."""
    out = {}
    for name, p in corpus_programs.items():
        out[name] = p
        out[name + " (dict)"] = translate_program(p)
        out[name + " (erasure)"] = erase_program(p)[0]
    return out


def _reference_node_count(node) -> int:
    """node_count as first defined, by recursive dataclass reflection."""
    if dataclasses.is_dataclass(node):
        n = 1
        for f in dataclasses.fields(node):
            if f.name == "origin":
                continue
            n += _reference_node_count(getattr(node, f.name))
        return n
    if isinstance(node, tuple):
        return sum(_reference_node_count(x) for x in node)
    return 0


def _field_subexprs(e) -> list:
    """The expressions held directly in e's fields, found by reflection."""
    out = []
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        for x in v if isinstance(v, tuple) else (v,):
            if isinstance(x, EXPR_CLASSES):
                out.append(x)
    return out


def test_rebuild_from_own_subexprs_is_identity(translated_corpus):
    # over every expression node of the corpus and its translations:
    # subexprs finds exactly the expression-valued fields, in field order,
    # and rebuilding from them reproduces the node, origin tags included
    seen = set()
    for name, program in translated_corpus.items():
        for e in walk(program):
            if not isinstance(e, EXPR_CLASSES):
                continue
            seen.add(type(e))
            kids = subexprs(e)
            assert [id(k) for k in kids] == [id(k) for k in _field_subexprs(e)], (name, e)
            assert repr(rebuild(e, kids)) == repr(e), name
    # every expression class was exercised, so none is silently a leaf
    assert seen == set(EXPR_CLASSES)


def test_traversal_rejects_unknown_node_classes():
    @dataclasses.dataclass(frozen=True)
    class Unknown:
        recv: object

    with pytest.raises(TypeError):
        subexprs(Unknown(IntLit(1)))
    with pytest.raises(TypeError):
        rebuild(Unknown(IntLit(1)), (IntLit(2),))


def test_walk_is_preorder_over_all_nodes():
    decl = StructDecl("S", (), (Param("a", INT),))
    assert list(walk(decl)) == [decl, decl.fields[0], INT]


def test_node_count_matches_reflection_reference(translated_corpus):
    programs = dict(translated_corpus)
    for family in FAMILIES:
        for param in (2, 3):
            p = generate(BenchConfig(family, param))
            programs["%s%d" % (family, param)] = p
            programs["%s%d (dict)" % (family, param)] = translate_program(p)
            programs["%s%d (erasure)" % (family, param)] = erase_program(p)[0]
    for name, p in programs.items():
        assert node_count(p) == _reference_node_count(p), name


def _call_chain(depth: int):
    e = StructLit(TypeApp("Box", (INT,)), (IntLit(1),))
    for _ in range(depth):
        e = MethodCall(e, "Id")
    return e


def test_node_count_of_deep_chain(default_recursion_limit):
    counts = [node_count(_call_chain(d)) for d in (1, 2, 999, 1000)]
    assert counts[1] - counts[0] == counts[3] - counts[2] == 1


def test_deep_terms_compare_without_origin_tags(default_recursion_limit):
    def chain(innermost, origin):
        e = StructLit(TypeApp("Box", (INT,)), (innermost,))
        for _ in range(10_000):
            e = MethodCall(e, "Id", origin=origin)
        return e

    assert chain(IntLit(1), None) == chain(IntLit(1), "dict")
    assert not chain(IntLit(1), None) == chain(IntLit(2), "dict")
    assert chain(IntLit(1), None) != chain(IntLit(2), None)


def test_deep_terms_hash_without_origin_tags(default_recursion_limit):
    # the hash agrees with equality: it reads no origin tag, and it folds
    tagged = StructLit(TypeApp("Box", (INT,)), (IntLit(1),))
    for _ in range(10_000):
        tagged = MethodCall(tagged, "Id", origin="dict")
    assert hash(tagged) == hash(_call_chain(10_000))
    assert len({tagged, _call_chain(10_000)}) == 1
    assert hash(_call_chain(10_000)) != hash(_call_chain(9_999))


def _states(program, lang, cap=60):
    """The states of a run of ``program``, from main on."""
    from feathergo.typecheck import Decls

    step, decls = (fgg_step if lang == "fgg" else fg_step), Decls(program)
    states = [program.main]
    for _ in range(cap):
        out = step(states[-1], decls)
        if not isinstance(out, Stepped):
            break
        states.append(out.expr)
    return states


@pytest.mark.parametrize("path", FGG_FILES, ids=lambda p: p.name)
def test_repr_is_the_generated_dataclass_repr(path):
    # on every node of the program, of its translations and of the states
    # of their runs: the fold's repr, origin tags included, is byte for
    # byte what the generated dataclass repr prints at that node (the
    # generated one reprs the node's fields, so node by node is all of it)
    program = parse_fgg(path.read_text())
    outputs = [(program, "fgg"), (translate_program(program), "fg"), (erase_program(program)[0], "fg")]
    checked = 0
    for p, lang in outputs:
        for state in [*(d.body for d in p.decls if isinstance(d, syntax.MethodDecl)), *_states(p, lang)]:
            for n in syntax.walk(state):
                if type(n) in syntax.GENERATED_REPRS:
                    assert repr(n) == syntax.GENERATED_REPRS[type(n)](n)
                    checked += 1
    assert checked


# two sample values for each expression field, by name
_SAMPLES = {
    "name": ("x", "y"), "fieldname": ("f", "g"), "op": ("+", "<"), "targs": ((INT,), ()),
    "type": (TypeApp("Box", (INT,)), syntax.ANY), "args": ((syntax.Var("b"), IntLit(2)), ()),
    "origin": ("sim", "dict"),
}


def _samples(cls, k=0) -> dict:
    """Sample field values for ``cls``: subexpressions are variables."""
    out = {}
    for f in dataclasses.fields(cls):
        if f.name == "value":
            out[f.name] = (True, False)[k] if cls is syntax.BoolLit else (7, 8)[k]
        else:
            out[f.name] = _SAMPLES.get(f.name, (syntax.Var(f.name), syntax.Var(f.name + "'")))[k]
    return out


def _generated(cls, *args, **kwargs):
    """A node built through the dataclass-generated ``__init__``."""
    node = object.__new__(cls)
    syntax.GENERATED_INITS[cls](node, *args, **kwargs)
    return node


@pytest.mark.parametrize("cls", syntax.Expr.__args__, ids=lambda c: c.__name__)
def test_node_init_keeps_the_generated_contract(cls):
    # built through the replaced __init__, a node is the one the generated
    # __init__ builds, field by field, and keeps the dataclass contract
    fields = dataclasses.fields(cls)
    vals, others = _samples(cls), _samples(cls, 1)
    pos = [vals[f.name] for f in fields if not f.kw_only]
    kw = {f.name: vals[f.name] for f in fields if f.kw_only}
    want = _generated(cls, *pos, **kw)

    def same(node, ref):
        assert type(node) is cls
        for f in fields:
            assert getattr(node, f.name) is getattr(ref, f.name), f.name
        assert node == ref and hash(node) == hash(ref)
        assert repr(node) == syntax.GENERATED_REPRS[cls](ref)

    # positional and keyword arguments, keyword-only origin
    same(cls(*pos, **kw), want)
    same(cls(**vals), want)
    with pytest.raises(TypeError):
        cls(*pos, *kw.values()) if kw else cls(*pos, 0)
    required = {f.name: vals[f.name] for f in fields if f.default is dataclasses.MISSING}
    if required:
        with pytest.raises(TypeError):
            cls()
    # defaults: any field that has one may be left out
    same(cls(**required), _generated(cls, **required))
    params = lambda init: [(p.name, p.kind, p.default) for p in inspect.signature(init).parameters.values()]
    assert params(cls.__init__) == params(syntax.GENERATED_INITS[cls])
    # dataclasses' own functions, and frozen fields
    node = cls(*pos, **kw)
    assert dataclasses.fields(node) == fields
    for f in fields:
        changed = dataclasses.replace(node, **{f.name: others[f.name]})
        assert [getattr(changed, g.name) for g in fields] == [(others if g is f else vals)[g.name] for g in fields]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, f.name, others[f.name])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, f.name)
    assert [getattr(node, f.name) for f in fields] == list(vals.values())


def test_node_init_defaults():
    x = syntax.Var("x")
    assert TypeAssert(x).type == syntax.ANY and TypeAssert(x).origin is None
    call = MethodCall(x, "M")
    assert call.targs == () and call.args == () and call.origin is None
    assert StructLit(TypeApp("Nil")).args == ()


# ---------------------------------------------------------------------------
# Interned types


def test_equal_types_are_one_object(corpus_programs):
    # from the parser, from substitution, from the translators and from
    # direct construction, in any argument form
    box_int = TypeApp("Box", (INT,))
    assert TypeApp("Box", (TypeApp("int"),)) is box_int and TypeApp(name="Box", args=(INT,)) is box_int
    assert TypeApp("Box") is TypeApp("Box", ()) and TypeApp("int") is INT
    program = parse_fgg("package main\ntype Any interface {}\ntype Box[T Any] struct {}\nfunc main() { _ = Box[int]{} }\n")
    assert program.main.type is box_int
    assert subst_type(TypeApp("Box", (TypeParam("T"),)), {"T": INT}) is box_int
    assert copy.copy(box_int) is box_int and copy.deepcopy(box_int) is box_int
    assert pickle.loads(pickle.dumps(box_int)) is box_int
    for source in corpus_programs.values():
        for p in (source, translate_program(source), erase_program(source)[0]):
            for n in walk(p):
                if type(n) is TypeApp:
                    assert TypeApp(n.name, n.args) is n and TypeApp(n.name, tuple(n.args)) is n
    # equality and hashing are identity's, not generated ones that read the arguments
    assert TypeApp.__eq__ is object.__eq__ and TypeApp.__hash__ is object.__hash__
    with pytest.raises(dataclasses.FrozenInstanceError):
        box_int.name = "Pair"


def test_threads_building_one_new_type_get_one_object():
    # 8 threads build the same types, none of which exists yet, at once,
    # switching as often as the interpreter allows
    prefix = "Probe%d_" % id(object())
    start = threading.Barrier(8, timeout=60)
    built = [None] * 8

    def build(k):
        start.wait()
        built[k] = [TypeApp(prefix + str(i), (TypeApp(prefix + "arg", (TypeApp(str(i)),)),)) for i in range(2000)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for types in built[1:]:
        assert all(a is b for a, b in zip(types, built[0])) and len(types) == len(built[0]) == 2000


@pytest.fixture(scope="module")
def every_type(translated_corpus):
    """Every type in the corpus and its translations, and in families a-e
    at 2 and 3 and their translations, in a fixed order."""
    programs = list(translated_corpus.values())
    for family in FAMILIES:
        for n in (2, 3):
            p = generate(BenchConfig(family, n))
            programs += [p, translate_program(p), erase_program(p)[0]]
    types = {n for p in programs for n in walk(p) if type(n) in (TypeApp, TypeParam)}
    return sorted(types, key=reference_type_repr)


def test_type_folds_match_the_recursive_references(every_type, corpus_programs):
    params = sorted({t.name for t in every_type if type(t) is TypeParam})
    closed = [t for t in every_type if not any(type(n) is TypeParam for n in walk(t))]
    assert len(params) > 5 and any(t.args and t.args[0].args for t in closed)  # nested types among them
    mapping = {name: closed[i * 7 % len(closed)] for i, name in enumerate(params)}
    zeta = {name: syntax.Var("z_" + name) for name in params[::2]}  # the others unbound
    translator = Translator(corpus_programs["fgg_list.fgg"])
    for t in every_type:
        assert print_type(t) == reference_print_type(t)
        assert repr(t) == reference_type_repr(t)
        assert subst_type(t, mapping) is reference_subst_type(t, mapping)
        assert subst_type(t, {}) is t
        try:
            want = repr(reference_typemeta(t, zeta))
        except TranslationError as err:
            with pytest.raises(TranslationError, match="^%s$" % err):
                translator.typemeta(t, zeta)
        else:
            assert repr(translator.typemeta(t, zeta)) == want
