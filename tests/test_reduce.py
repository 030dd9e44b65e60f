import dataclasses

import pytest

from feathergo.dicttrans import translate_program
from feathergo.parser import parse_fg, parse_fgg
from feathergo.reduce import (
    PanicOutcome,
    Stepped,
    Value,
    fg_step,
    fgg_step,
    is_value,
    run,
    step_count,
    vtype,
)
from feathergo.syntax import (
    Binop,
    BoolLit,
    FieldSel,
    If,
    IntLit,
    MethodCall,
    Neq,
    Seq,
    StructLit,
    TypeApp,
    TypeAssert,
)
from feathergo.typecheck import Decls

from conftest import TERMINATING, load, read


@pytest.fixture(scope="module")
def fgg_list_decls():
    return Decls(load("fgg_list.fgg"))


def test_field_projection(fgg_list_decls):
    cons = StructLit(TypeApp("Cons", (TypeApp("int"),)), (IntLit(1), StructLit(TypeApp("Nil", (TypeApp("int"),)))))
    out = fgg_step(FieldSel(cons, "head"), fgg_list_decls)
    assert isinstance(out, Stepped) and out.rule == "r-fields" and out.expr == IntLit(1)


def test_values_do_not_step(fgg_list_decls):
    nil = StructLit(TypeApp("Nil", (TypeApp("int"),)))
    out = fgg_step(nil, fgg_list_decls)
    assert isinstance(out, Value) and out.value == nil
    assert is_value(nil) and vtype(nil) == TypeApp("Nil", (TypeApp("int"),))


def test_fg_list_panics_at_second_map():
    # the listing's comment: the bool list cannot be mapped again
    res = run(load("fg_list.fg"), lang="fg")
    assert res.kind == "panic"
    assert res.panic.message == "Unable to assert bool as type Ord"
    assert res.panic.value_type == TypeApp("bool")
    assert res.panic.target == TypeApp("Ord")


def test_fgg_list_never_reaches_runtime_error():
    res = run(load("fgg_list.fgg"), lang="fgg")
    assert res.kind == "value"


def test_gtfunc_apply_reduces_to_false():
    # hand trace: Apply(7) -> 5.Gt(7) -> 7 < 5 -> false
    res = run(load("gtfunc.fgg"), lang="fgg")
    assert res.kind == "value" and res.value == BoolLit(False)


def test_box_nest_trace_oracle():
    # hand small-step trace of Nest with n=2, frozen as the expected value
    res = run(load("box.fgg"), lang="fgg")
    bi = TypeApp("Box", (TypeApp("int"),))
    bbi = TypeApp("Box", (bi,))
    bbbi = TypeApp("Box", (bbi,))
    want = StructLit(bbbi, (StructLit(bbi, (StructLit(bi, (IntLit(0),)),)),))
    assert res.kind == "value" and res.value == want


def test_budget_exhaustion_on_divergence():
    res = run(load("omega.fgg"), max_steps=300, lang="fgg")
    assert res.kind == "budget_exhausted" and res.steps == 300
    assert step_count(load("omega.fgg"), max_steps=300) is None


def test_step_count_zero_for_value_main():
    assert step_count(load("nilmain.fgg")) == 0
    # the term is looked at before the budget: a value needs no steps
    assert step_count(load("nilmain.fgg"), 0) == 0
    res = run(load("nilmain.fgg"), 0)
    assert res.kind == "value" and res.steps == 0


def test_box_nest_steps_strictly_increase_with_depth():
    # run both depths and compare
    template = read("box.fgg")
    counts = []
    for k in (1, 2, 3):
        p = parse_fgg(template.replace("Nest(2)", "Nest(%d)" % k))
        counts.append(step_count(p))
    assert counts[0] < counts[1] < counts[2]


def test_panic_permanence(fgg_list_decls):
    # once a panic occurs the whole run halts with it, even under context
    bad = TypeAssert(BoolLit(True), TypeApp("Ord", (TypeApp("bool"),)))
    e = MethodCall(StructLit(TypeApp("Nil", (TypeApp("bool"),))), "Map", (TypeApp("bool"),), (bad,))
    out = fgg_step(e, fgg_list_decls)
    assert isinstance(out, PanicOutcome)


def test_extended_forms(fgg_list_decls):
    d = fgg_list_decls
    assert fg_step(Binop("<", IntLit(1), IntLit(2)), d).expr == BoolLit(True)
    assert fg_step(Binop("-", IntLit(1), IntLit(2)), d).expr == IntLit(-1)
    assert fg_step(Neq(IntLit(1), IntLit(1)), d).expr == BoolLit(False)
    assert fg_step(Neq(IntLit(1), IntLit(2)), d).expr == BoolLit(True)
    assert fg_step(If(BoolLit(True), IntLit(1), IntLit(2)), d).expr == IntLit(1)
    assert fg_step(Seq(IntLit(9), IntLit(1)), d).expr == IntLit(1)
    out = fg_step(Seq(Binop("+", IntLit(1), IntLit(1)), IntLit(0)), d)
    assert out.rule == "r-ext-binop"  # head evaluated before being discarded


# -- determinism: unique decomposition ------------------------------------------
#
# Independent oracle: enumerate every evaluation position admitted by the
# context grammar and count the ones whose subterm can contract. The stepper
# is deterministic iff there is never a second candidate.


def evaluation_positions(e):
    """All (path, subterm) pairs reachable by the evaluation context."""
    out = [((), e)]
    if isinstance(e, StructLit):
        for i, a in enumerate(e.args):
            if not is_value(a):
                out += [((("args", i),) + p, s) for p, s in evaluation_positions(a)]
                break
    elif isinstance(e, (FieldSel, TypeAssert)):
        if not is_value(e.recv):
            out += [((("recv", None),) + p, s) for p, s in evaluation_positions(e.recv)]
    elif isinstance(e, MethodCall):
        if not is_value(e.recv):
            out += [((("recv", None),) + p, s) for p, s in evaluation_positions(e.recv)]
        else:
            for i, a in enumerate(e.args):
                if not is_value(a):
                    out += [((("args", i),) + p, s) for p, s in evaluation_positions(a)]
                    break
    elif isinstance(e, (Binop, Neq)):
        if not is_value(e.left):
            out += [((("left", None),) + p, s) for p, s in evaluation_positions(e.left)]
        elif not is_value(e.right):
            out += [((("right", None),) + p, s) for p, s in evaluation_positions(e.right)]
    elif isinstance(e, If):
        if not is_value(e.cond):
            out += [((("cond", None),) + p, s) for p, s in evaluation_positions(e.cond)]
    elif isinstance(e, Seq):
        if not is_value(e.first):
            out += [((("first", None),) + p, s) for p, s in evaluation_positions(e.first)]
    return out


def can_contract(e, decls, generic) -> bool:
    """Pattern-level contractibility of a subterm whose parts are values."""
    from feathergo.syntax import Panic

    if isinstance(e, FieldSel):
        return is_value(e.recv)
    if isinstance(e, MethodCall):
        return is_value(e.recv) and all(is_value(a) for a in e.args)
    if isinstance(e, TypeAssert):
        return is_value(e.recv)
    if isinstance(e, (Binop, Neq)):
        return is_value(e.left) and is_value(e.right)
    if isinstance(e, If):
        return is_value(e.cond)
    if isinstance(e, Seq):
        return is_value(e.first)
    return isinstance(e, Panic)


def replace_at(e, path, new):
    """``e`` with the subterm at ``path`` (as built by evaluation_positions)
    replaced by ``new``; every other field, origin tags included, is kept."""
    if not path:
        return new
    (name, i), rest = path[0], path[1:]
    if i is None:
        return dataclasses.replace(e, **{name: replace_at(getattr(e, name), rest, new)})
    kids = getattr(e, name)
    return dataclasses.replace(e, **{name: kids[:i] + (replace_at(kids[i], rest, new),) + kids[i + 1:]})


def assert_unique_decomposition(e, decls, generic=True):
    redexes = [(p, s) for p, s in evaluation_positions(e) if can_contract(s, decls, generic)]
    assert len(redexes) <= 1, "multiple evaluation redexes: %r" % (redexes,)
    step = fgg_step if generic else fg_step
    out = step(e, decls)
    if redexes:
        assert isinstance(out, (Stepped, PanicOutcome))
        if isinstance(out, Stepped):
            path, redex = redexes[0]
            assert out.redex == redex
            # the plug-back: the redex stepped on its own, put back at its path
            alone = step(redex, decls)
            assert isinstance(alone, Stepped) and alone.rule == out.rule
            # repr shows origin tags, which equality ignores
            assert repr(out.expr) == repr(replace_at(e, path, alone.expr))
    else:
        assert isinstance(out, Value) or not is_value(e)


@pytest.mark.parametrize(
    "path, generic",
    [(p, True) for p in TERMINATING] + [(p, False) for p in TERMINATING],
    ids=[p.name for p in TERMINATING] + ["dict-" + p.name for p in TERMINATING],
)
def test_determinism_along_corpus_runs(path, generic):
    # the source under the FGG stepper, and its dictionary translation (which
    # carries origin tags) under the FG stepper
    program = parse_fgg(path.read_text())
    if not generic:
        program = translate_program(program)
    decls = Decls(program)
    step = fgg_step if generic else fg_step
    e = program.main
    for _ in range(10_000):
        assert_unique_decomposition(e, decls, generic)
        out = step(e, decls)
        if not isinstance(out, Stepped):
            break
        e = out.expr


# -- deep terms: the decomposition is a loop ----------------------------------------


def test_deep_receiver_chain_runs(default_recursion_limit):
    depth = 1500
    program = parse_fgg(
        "package main\ntype Any interface {}\ntype Box[T Any] struct { v T }\n"
        "func (b Box[T]) Id() Box[T] { return b }\n"
        "func main() { _ = Box[int]{1}" + ".Id()" * depth + " }\n"
    )
    res = run(program, lang="fgg")
    assert res.kind == "value" and res.steps == depth
    assert res.value == StructLit(TypeApp("Box", (TypeApp("int"),)), (IntLit(1),))


def test_deep_binop_chain_runs(default_recursion_limit):
    terms = 3000
    program = parse_fg("package main\nfunc main() { _ = %s }\n" % " + ".join(["1"] * terms))
    res = run(program, lang="fg")
    assert res.kind == "value" and res.steps == terms - 1
    assert res.value == IntLit(terms)
