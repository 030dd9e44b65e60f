"""Deep terms and types at the interpreter's default recursion limit: every
expression and type pass folds iteratively (``repr`` included), so 10^4
levels of nesting go through the whole pipeline, and the interpreter runs
them to their value in linear time."""

import sys
import threading
import time

import pytest

from feathergo import typecheck
from feathergo.bench import BenchConfig, generate
from feathergo.cosim import check_correspondence
from feathergo.dicttrans import translate_program
from feathergo.erasure import erase_program
from feathergo.parser import parse_fgg
from feathergo.reduce import run
from feathergo.syntax import INT, IntLit, StructLit, TypeApp, TypeParam, pretty_print, print_type
from feathergo.typecheck import Decls, fg_typecheck_program, fgg_typecheck_program

from conftest import instantiate_body, reference_body, reference_fragment_messages, reference_print_type, shallow_reprs

DEPTH = 10_000
BOX = "package main\ntype Any interface {}\ntype Box[T Any] struct { v T }\n"

DEEP_INPUTS = {
    "chain": BOX + "func (b Box[T]) Id() Box[T] { return b }\nfunc main() { _ = Box[int]{1}" + ".Id()" * DEPTH + " }\n",
    "binop": "package main\nfunc main() { _ = %s }\n" % " + ".join(["1"] * DEPTH),
    "literal": BOX + "func main() { _ = " + "Box[Any]{" * DEPTH + "1" + "}" * DEPTH + " }\n",
    "statements": BOX + "func (b Box[T]) Many() int {\n" + "\tb\n" * DEPTH + "\treturn 1\n}\n"
    "func main() { _ = Box[int]{1}.Many() }\n",
    "type": "package main\ntype Any interface {}\ntype Box[T Any] struct {}\n"
    "func (b Box[T]) Wrap() Box[Box[T]] { return Box[Box[T]]{} }\n"
    "func main() { _ = " + "Box[" * DEPTH + "int" + "]" * DEPTH + "{}.Wrap() }\n",
}


def _source(name: str) -> str:
    if name == "family-b":
        return pretty_print(generate(BenchConfig("b", 1000, 1)))
    return DEEP_INPUTS[name]


@pytest.mark.parametrize("name", [*DEEP_INPUTS, "family-b"])
def test_deep_input_goes_through_every_stage(default_recursion_limit, name):
    program = parse_fgg(_source(name))
    assert parse_fgg(pretty_print(program)) == program
    assert fgg_typecheck_program(program) == []
    targets = [translate_program(program), erase_program(program)[0]]
    for out in targets:
        assert fg_typecheck_program(out, "extended") == []
    for p, lang in [(program, "fgg")] + [(out, "fg") for out in targets]:
        res = run(p, max_steps=5, lang=lang)
        assert res.kind in ("value", "budget_exhausted")
        assert res.describe()  # the value printer folds too
    assert check_correspondence(program, max_steps=2).ok


@pytest.mark.parametrize(
    "name, steps, value",
    [
        ("chain", DEPTH, "Box[int]{1}"),
        ("binop", DEPTH - 1, str(DEPTH)),
        ("type", 1, "Box[" * (DEPTH + 1) + "int" + "]" * (DEPTH + 1) + "{}"),
    ],
)
def test_deep_input_runs_to_its_value(default_recursion_limit, name, steps, value):
    res = run(parse_fgg(DEEP_INPUTS[name]), lang="fgg")
    assert res.kind == "value" and res.steps == steps
    assert res.describe() == value


def test_deep_body_template_matches_subst_expr(default_recursion_limit):
    program = parse_fgg(DEEP_INPUTS["statements"])
    decls = Decls(program)
    m = decls.methods[("Box", "Many")]
    recv = StructLit(TypeApp("Box", (INT,)), (IntLit(1),))
    out = instantiate_body(decls, m, recv, (), ())
    assert shallow_reprs(out) == shallow_reprs(reference_body(m, recv, (), ()))
    assert len(shallow_reprs(out)) == 3 * DEPTH + 1  # per statement a Seq, the receiver and its field; then 1


@pytest.mark.parametrize("name", DEEP_INPUTS)
def test_deep_input_reprs(default_recursion_limit, name):
    program = parse_fgg(DEEP_INPUTS[name])
    text = repr(program)
    assert text.count("(") == text.count(")") and len(text) > 10 * DEPTH
    if name == "chain":
        box = "StructLit(type=TypeApp(name='Box', args=(TypeApp(name='int', args=()),)), args=(IntLit(value=1),))"
        want = "MethodCall(recv=" * DEPTH + box + ", name='Id', targs=(), args=(), origin=None)" * DEPTH
        assert repr(program.main) == want
    if name == "type":
        deep = "TypeApp(name='Box', args=(" * DEPTH + "TypeApp(name='int', args=())" + ",))" * DEPTH
        assert repr(program.main) == "MethodCall(recv=StructLit(type=%s, args=()), name='Wrap', targs=(), args=(), origin=None)" % deep


# A type nested k deep holds k type applications with arguments, and the
# fragment check reports each one printed in full, so its messages grow
# with the square of k: the source-side type input is nested past the
# default recursion limit, not 10^4 deep.
FRAGMENT_TYPE_DEPTH = 1_200


@pytest.mark.parametrize("name", DEEP_INPUTS)
def test_the_fragment_walk_takes_deep_input(default_recursion_limit, monkeypatch, name):
    # the translations under "core", and the source under "extended": the
    # walk runs on each (the source has type formals; binop has none, so
    # the judgement alone answers), and its messages come first
    program = source = parse_fgg(DEEP_INPUTS[name])
    if name == "type":
        k = FRAGMENT_TYPE_DEPTH
        source = parse_fgg(DEEP_INPUTS[name].replace("Box[" * DEPTH, "Box[" * k).replace("]" * DEPTH, "]" * k))
    checks = [(translate_program(program), "core"), (erase_program(program)[0], "core"), (source, "extended")]
    calls, walk_fragment = [], typecheck._not_fg
    monkeypatch.setattr(typecheck, "_not_fg", lambda p, dialect: calls.append(p) or walk_fragment(p, dialect))
    for p, dialect in checks:
        judgement = [d.message for d in typecheck._check_program(p)]
        want = reference_fragment_messages(p, dialect) + judgement
        assert [d.message for d in fg_typecheck_program(p, dialect)] == want, dialect
    assert len(calls) == (2 if name == "binop" else 3)


def _nested(k: int, wrap) -> TypeApp:
    t = INT
    for i in range(k):
        t = wrap(t, i)
    return t


DEEP_TYPES = {
    "box": lambda: parse_fgg(DEEP_INPUTS["type"]).main.recv.type,
    "left": lambda: _nested(DEPTH, lambda t, i: TypeApp("Pair", (t, TypeParam("T%d" % (i % 3))))),
    "right": lambda: _nested(DEPTH, lambda t, i: TypeApp("Pair", (TypeApp("Box", (INT,)), t, INT))),
}


def _recursively(fn, *args):
    """``fn(*args)`` for a recursive reference on input 10^4 deep: on a
    thread with a 256 MB stack, under a recursion limit raised for it."""
    out, limit, size = [], sys.getrecursionlimit(), threading.stack_size(256 << 20)
    sys.setrecursionlimit(10 * DEPTH)
    try:
        thread = threading.Thread(target=lambda: out.append(fn(*args)))
        thread.start()
        thread.join()
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)
    return out[0]


@pytest.mark.parametrize("name", DEEP_TYPES)
def test_print_type_of_a_deep_type_matches_the_recursive_reference(default_recursion_limit, name):
    t = DEEP_TYPES[name]()
    text = print_type(t)
    assert text == _recursively(reference_print_type, t)
    assert text.count("[") == text.count("]") == DEPTH + (name == "right") * DEPTH


def test_print_type_time_is_linear_in_depth():
    # two doublings of the depth: a printer that emits each name once reads
    # about 4x; one that copies each argument's text into its parent's read
    # about 12x (2 and 8 x 10^4 levels, best of 7, on a 2-vCPU host)
    def best(k: int) -> float:
        t, times = _nested(k, lambda t, i: TypeApp("Box", (t,))), []
        for _ in range(7):
            t0 = time.perf_counter()
            print_type(t)
            times.append(time.perf_counter() - t0)
        return min(times)

    assert best(8 * 10**4) / best(2 * 10**4) < 8
