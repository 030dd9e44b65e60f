import dataclasses
import typing

import pytest

from feathergo import syntax
from feathergo.bench import FAMILIES, BenchConfig, generate
from feathergo.dicttrans import translate_program
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
    node_count,
    pretty_print,
    print_expr,
    rebuild,
    subexprs,
    walk,
)

from conftest import FGG_FILES, load, read


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
    # and rebuilding from them (with or without the identity type map)
    # reproduces the node, origin tags included
    seen = set()
    for name, program in translated_corpus.items():
        for e in walk(program):
            if not isinstance(e, EXPR_CLASSES):
                continue
            seen.add(type(e))
            kids = subexprs(e)
            assert [id(k) for k in kids] == [id(k) for k in _field_subexprs(e)], (name, e)
            assert repr(rebuild(e, kids)) == repr(e), name
            assert repr(rebuild(e, kids, ft=lambda t: t)) == repr(e), name
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


def test_rebuild_maps_carried_types():
    box = lambda t: TypeApp("Box", (t,))
    call = MethodCall(StructLit(INT), "m", (INT,), (TypeAssert(IntLit(1), INT),), origin="dict")
    kids = tuple(rebuild(k, subexprs(k), ft=box) for k in subexprs(call))
    out = rebuild(call, kids, ft=box)
    assert print_expr(out) == "Box[int]{}.m[Box[int]](1.(Box[int]))"
    assert out.recv.type == box(INT) and out.origin == "dict"


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
