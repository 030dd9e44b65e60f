import dataclasses
import operator
import typing

import pytest

from feathergo import reduce
from feathergo.bench import BenchConfig, generate
from feathergo.dicttrans import translate_program
from feathergo.erasure import erase_program
from feathergo.parser import parse_fg, parse_fgg
from feathergo.reduce import (
    PanicOutcome,
    Stuck,
    Value,
    compile_body,
    is_value,
    run,
    step_count,
    vtype,
)
from feathergo.syntax import (
    INT,
    Binop,
    BoolLit,
    Expr,
    FieldSel,
    FormalParam,
    If,
    IntLit,
    MethodCall,
    MethodDecl,
    MethodSig,
    Neq,
    Param,
    Seq,
    StructLit,
    TypeApp,
    TypeAssert,
    TypeParam,
    Var,
    rebuild,
    show_expr,
    subexprs,
    walk,
)
from feathergo.typecheck import Decls

from conftest import (
    CORPUS,
    FGG_FILES,
    TERMINATING,
    Stepped,
    fg_step,
    fgg_step,
    instantiate_body,
    load,
    read,
    reference_body,
)


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


def test_run_rejects_an_unknown_lang():
    # a misspelt lang ran as FG, whose r-assert compares type names only
    program = parse_fgg(
        "package main\ntype Any interface {}\ntype Id struct {}\ntype Box[T Any] struct { v T }\n"
        "func (this Id) Up(x Any) Any { return x }\n"
        "func main() { _ = Id{}.Up(Box[int]{1}).(Box[bool]) }\n"
    )
    res = run(program, lang="fgg")
    assert res.kind == "panic" and res.panic.message == "Unable to assert Box[int] as type Box[bool]"
    assert res.steps == step_count(program, lang="fgg") == 1
    for lang in ("FGG", "fg-ext", ""):
        with pytest.raises(ValueError, match="lang must be 'fg' or 'fgg'"):
            run(program, lang=lang)
        with pytest.raises(ValueError, match="lang must be 'fg' or 'fgg'"):
            step_count(program, lang=lang)


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


# -- the machine against one-shot steps ------------------------------------------
#
# ``run`` keeps its evaluation context from step to step; ``fg_step`` and
# ``fgg_step`` decompose from the root every time. Both must give the same
# trace and the same outcome.

DIFF_BUDGET = 3000


def stepwise_run(program, max_steps, lang):
    """``run`` as a loop of one-shot steps from main: the trace, then
    (kind, steps, repr of the value, panic message or stuck reason)."""
    decls = Decls(program)
    step = fgg_step if lang == "fgg" else fg_step
    e, trace = program.main, []
    for i in range(max_steps + 1):
        out = step(e, decls)
        if isinstance(out, Value):
            return trace, ("value", i, repr(out.value), None)
        if isinstance(out, PanicOutcome):
            return trace, ("panic", i, None, out.message)
        if isinstance(out, Stuck):
            return trace, ("stuck", None, None, "stuck: %s (non-typechecked input?)" % out.reason)
        if i == max_steps:
            break
        trace.append((out.rule, show_expr(out.redex)))
        e = out.expr
    return trace, ("budget_exhausted", max_steps, None, None)


def machine_run(program, max_steps, lang):
    trace = []
    try:
        res = run(program, max_steps, lang, trace=lambda rule, redex: trace.append((rule, show_expr(redex))))
    except RuntimeError as err:
        return trace, ("stuck", None, None, str(err))
    value = None if res.value is None else repr(res.value)  # repr shows origin tags
    return trace, (res.kind, res.steps, value, res.panic and res.panic.message)


def _corpus(name):
    return lambda: (load(name), "fgg" if name.endswith(".fgg") else "fg")


def _translated(make_source, mode):
    def make():
        source = make_source()
        return (translate_program(source) if mode == "dict" else erase_program(source)[0]), "fg"

    return make


FAMILY_SOURCES = [("%s%d" % (f, k), lambda f=f, k=k: generate(BenchConfig(f, k, 1))) for f in "abcde" for k in range(2, 6)]
FGG_SOURCES = [(p.name, lambda n=p.name: load(n)) for p in FGG_FILES] + FAMILY_SOURCES
MACHINE_INPUTS = (
    [(p.name, _corpus(p.name)) for p in sorted(CORPUS.glob("*.fg*"))]
    + [(name, lambda m=make: (m(), "fgg")) for name, make in FAMILY_SOURCES]
    + [("%s-%s" % (mode, name), _translated(make, mode)) for name, make in FGG_SOURCES for mode in ("dict", "erasure")]
)


@pytest.mark.parametrize("make", [m for _, m in MACHINE_INPUTS], ids=[n for n, _ in MACHINE_INPUTS])
def test_machine_matches_one_shot_steps(make):
    program, lang = make()
    want_trace, want = stepwise_run(program, DIFF_BUDGET, lang)
    got_trace, got = machine_run(program, DIFF_BUDGET, lang)
    assert got == want
    assert got_trace == want_trace


@pytest.mark.parametrize("make", [m for _, m in MACHINE_INPUTS], ids=[n for n, _ in MACHINE_INPUTS])
def test_resume_counts_the_frames_it_left_in_place(make):
    # the count a machine step returns with the next focus, by _resume or
    # by an r-call's refocus path, is the longest prefix of the context it
    # left as it was, frame for frame
    program, lang = make()
    decls, spine = Decls(program), []
    e, kids = reduce._descend(program.main, spine)
    for _ in range(300):
        before = list(spine)
        out = reduce._step(e, kids, spine, decls, lang == "fgg")
        if type(out) is not tuple:
            assert spine == before
            break
        e, kids, low, stale = out[1]
        same = 0
        while same < min(len(before), len(spine)) and before[same] is spine[same]:
            same += 1
        assert low == same
        assert stale == any(a is not b for a, b in zip(kids, subexprs(e)))


@pytest.mark.parametrize(
    "name, budget, kind",
    [
        ("nilmain.fgg", 0, "value"),  # a value main: its value, in 0 steps
        ("box.fgg", 0, "budget_exhausted"),  # a non-value main: no step
        ("box.fgg", 9, "budget_exhausted"),  # out of budget mid-term (11 steps)
        ("fgg_list.fgg", 15, "budget_exhausted"),  # 22 steps
        ("fg_list.fg", 31, "budget_exhausted"),  # panics at step 32
        ("permute.fgg", 50, "budget_exhausted"),  # 78 steps
        ("omega.fgg", 300, "budget_exhausted"),
    ],
)
def test_machine_matches_one_shot_steps_under_a_budget(name, budget, kind):
    program, lang = _corpus(name)()
    want_trace, want = stepwise_run(program, budget, lang)
    got_trace, got = machine_run(program, budget, lang)
    assert got == want and got[:2] == (kind, budget)
    assert got_trace == want_trace and len(got_trace) == budget


# -- deep terms: the machine keeps its spine ----------------------------------------


def _chain(depth):
    return parse_fgg(
        "package main\ntype Any interface {}\ntype Box[T Any] struct { v T }\n"
        "func (b Box[T]) Id() Box[T] { return b }\n"
        "func main() { _ = Box[int]{1}" + ".Id()" * depth + " }\n"
    )


def _binop(terms):
    return parse_fg("package main\nfunc main() { _ = %s }\n" % " + ".join(["1"] * terms))


def test_deep_receiver_chain_runs(default_recursion_limit):
    depth = 1500
    res = run(_chain(depth), lang="fgg")
    assert res.kind == "value" and res.steps == depth
    assert res.value == StructLit(TypeApp("Box", (TypeApp("int"),)), (IntLit(1),))


def test_deep_binop_chain_runs(default_recursion_limit):
    terms = 3000
    res = run(_binop(terms), lang="fg")
    assert res.kind == "value" and res.steps == terms - 1
    assert res.value == IntLit(terms)


@pytest.mark.parametrize(
    "make, lang",
    [
        (lambda: _chain(1000), "fgg"),
        (lambda: _chain(2000), "fgg"),
        (lambda: _binop(3000), "fg"),
    ],
    ids=["chain-1000", "chain-2000", "binop-3000"],
)
def test_machine_work_per_step_is_constant(monkeypatch, make, lang):
    # the machine takes a term apart (subexprs) and puts a node back together
    # (rebuild) a bounded number of times per step, however deep the hole is;
    # decomposing from the root takes depth-many subexprs calls per step
    program = make()
    calls = {"subexprs": 0, "rebuild": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(reduce, name, counted(name, getattr(reduce, name)))
    res = run(program, lang=lang)
    assert res.kind == "value" and res.steps >= 1000
    for name, n in calls.items():
        assert n < 3 * res.steps, (name, n, res.steps)


OMEGA_SIDES = [("fgg", _corpus("omega.fgg"))] + [
    (mode, _translated(lambda: load("omega.fgg"), mode)) for mode in ("dict", "erasure")
]


@pytest.mark.parametrize("make", [m for _, m in OMEGA_SIDES], ids=[n for n, _ in OMEGA_SIDES])
def test_run_builds_no_outcome_per_step(monkeypatch, make):
    # inside the machine a step is a (contractum, rule) pair; only the
    # one-shot steppers build a Stepped, with the rule and redex run traces
    program, lang = make()
    built = []
    init = Stepped.__init__
    monkeypatch.setattr(Stepped, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    trace = []
    res = run(program, 10_000, lang, trace=lambda rule, redex: trace.append((rule, redex)))
    assert res.kind == "budget_exhausted" and len(trace) == 10_000
    assert built == []
    step = fgg_step if lang == "fgg" else fg_step
    e, decls = program.main, Decls(program)
    for rule, redex in trace[:100]:
        out = step(e, decls)
        assert type(out) is Stepped and out.rule == rule and repr(out.redex) == repr(redex)
        e = out.expr
    assert len(built) == 100


def test_untraced_run_rebuilds_no_refilled_frame(monkeypatch):
    # a value filling a frame's last strict hole leaves the frame's node and
    # its filled kids as the focus: omega's dict translation refills its
    # call frame after every r-assert, and builds no node for it; a trace
    # callback gets each such focus built, and every other one as it is
    program, lang = _translated(lambda: load("omega.fgg"), "dict")()
    calls = []
    monkeypatch.setattr(reduce, "rebuild", lambda *args: calls.append(args) or rebuild(*args))
    res = run(program, 10_000, lang)
    assert res.kind == "budget_exhausted" and res.steps == 10_000
    assert calls == []
    rules = []
    run(program, 10_000, lang, trace=lambda rule, redex: rules.append(rule))
    assert rules[:2] == ["r-assert", "r-call"] and len(calls) == rules.count("r-call") == 5_000


def test_r_call_stuck_reasons_repeat():
    # the template table is looked up first, so a missing method or a wrong
    # arity must still be stuck on every call, and a missing method leaves
    # no entry behind
    decls = Decls(load("omega.fgg"))
    app = StructLit(TypeApp("App"))
    cases = [
        (MethodCall(app, "Spin", (), ()), "no method Spin on App", False),
        (MethodCall(app, "Loop", (), (IntLit(1),)), "arity mismatch calling Loop", True),
    ]
    for e, reason, compiled in cases:
        for _ in range(2):
            assert reduce._contract(e, subexprs(e), decls, False) == Stuck(reason)
        assert ((e.recv.type.name, e.name) in decls.templates) == compiled
    e = MethodCall(app, "Loop", (), ())
    out, rule = reduce._contract(e, subexprs(e), decls, False)
    assert rule == "r-call" and show_expr(out) == "App{}.Loop()"


EXPR_CLASSES = set(typing.get_args(Expr))
CORPUS_INPUTS = [(n, m) for n, m in MACHINE_INPUTS if ".fg" in n]  # the corpus and its translations


def _walked_is_value(e) -> bool:
    return all(type(n) in (StructLit, IntLit, BoolLit) for n in walk(e) if type(n) in EXPR_CLASSES)


@pytest.mark.parametrize("make", [m for _, m in CORPUS_INPUTS], ids=[n for n, _ in CORPUS_INPUTS])
def test_is_value_matches_a_walk(make):
    program, _ = make()
    terms = [n for n in walk(program) if type(n) in EXPR_CLASSES]
    assert terms
    for e in terms:
        assert is_value(e) == _walked_is_value(e), show_expr(e)


def test_is_value_on_a_deep_struct_nest(default_recursion_limit):
    box = TypeApp("Box")
    for leaf, want in [(IntLit(1), True), (StructLit(box), True), (Var("x"), False)]:
        e = leaf
        for _ in range(10_000):
            e = StructLit(box, (BoolLit(True), e))
        assert is_value(e) is want


# ---------------------------------------------------------------------------
# Body templates: instantiate_body against subst_expr, the reference


def instantiations(m) -> list:
    """(recv, args, targs) to instantiate ``m`` with: distinct type
    arguments for every type parameter, and value arguments, then
    unevaluated ones as dictionary resolution passes them, which name the
    body's own variables."""
    rtype = TypeApp(m.recv_type, tuple(TypeApp("R%d" % i, (INT,)) for i in range(len(m.recv_params))))
    recv = StructLit(rtype, (IntLit(7),))
    targs = tuple(TypeApp("T%d" % i) for i in range(len(m.sig.tformal)))
    values = tuple(StructLit(TypeApp("A%d" % i)) for i in range(len(m.sig.params)))
    unevaluated = tuple(MethodCall(Var(m.recv_name), "Apply", (), (Var(p.name),), origin="dict") for p in m.sig.params)
    return [(recv, values, targs), (recv, unevaluated, targs)]


@pytest.mark.parametrize("make", [m for _, m in MACHINE_INPUTS], ids=[n for n, _ in MACHINE_INPUTS])
def test_templates_match_subst_expr(make):
    program, _ = make()
    decls = Decls(program)
    for m in decls.methods.values():
        for recv, args, targs in instantiations(m):
            out = instantiate_body(decls, m, recv, args, targs)
            assert repr(out) == repr(reference_body(m, recv, args, targs)), (m.recv_type, m.name)


def test_templates_substitute_type_parameters_and_shadowed_receivers():
    t, u = TypeParam("T"), TypeParam("U")
    body = Seq(
        StructLit(TypeApp("Pair", (t, u)), (Var("x"), Var("y"), Var("z"))),
        If(
            Neq(Var("x"), IntLit(0), origin="sim"),
            TypeAssert(FieldSel(Var("x"), "v", origin="dict"), TypeApp("Box", (u,)), origin="erase"),
            MethodCall(Var("x"), "Go", (t, TypeApp("Box", (TypeApp("Box", (u,)),)), INT), (Binop("+", Var("y"), IntLit(1)),)),
        ),
        origin="sim",
    )
    recv = StructLit(TypeApp("Box", (TypeApp("Nat", (INT,)),)), (IntLit(1),))
    methods = [
        MethodDecl("x", "Box", ("T",), "M", MethodSig((), (Param("y", INT),)), body),
        # a value parameter named like the receiver shadows it
        MethodDecl("x", "Box", ("T",), "M", MethodSig((), (Param("x", INT), Param("y", INT))), body),
        MethodDecl("x", "Box", ("T",), "M", MethodSig((FormalParam("U", TypeApp("Any")),), (Param("y", INT),)), body),
    ]
    for m in methods:
        args = tuple(IntLit(10 + i) for i in range(len(m.sig.params)))
        for targs in [(), (TypeApp("Q"),)][: 1 + len(m.sig.tformal)]:
            out = compile_body(m).body((recv, *args), targs, None)
            assert repr(out) == repr(reference_body(m, recv, args, targs))
    assert "Nat" in repr(out) and "name='Q'" in repr(out)  # both maps were applied


def test_templates_share_what_holds_no_hole():
    program = parse_fgg(
        "package main\ntype Any interface {}\ntype A struct {}\ntype Box[T Any] struct { v T }\n"
        "func (x A) One() Box[int] { return Box[int]{1} }\n"
        "func (x A) Two[T Any](y T) Box[T] { return Box[T]{A{}.One().v.(T)}.Id(y, Box[int]{2}) }\n"
        "func (b Box[T]) Id(y T, z Box[int]) Box[T] { return b }\n"
        "func main() { _ = A{}.Two[int](1) }\n"
    )
    decls = Decls(program)
    one, two = decls.methods[("A", "One")], decls.methods[("A", "Two")]
    a = StructLit(TypeApp("A"))
    assert instantiate_body(decls, one, a, (), ()) is one.body
    first = instantiate_body(decls, two, a, (IntLit(1),), (INT,))
    second = instantiate_body(decls, two, a, (IntLit(2),), (TypeApp("bool"),))
    assert first.args[1] is second.args[1] is two.body.args[1]  # Box[int]{2}
    assert first.recv.args[0].recv is second.recv.args[0].recv is two.body.recv.args[0].recv  # A{}.One().v
    assert first.recv.type == TypeApp("Box", (INT,)) and second.recv.args[0].type == TypeApp("bool")


def test_r_call_costs_no_fold_and_no_type_substitution(monkeypatch):
    # the first r-call compiles omega's body; every later one applies the
    # template without a generic traversal
    calls = {"fold": 0, "subst_type": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(reduce, name, counted(name, getattr(reduce, name)))
    at_first_call = []
    res = run(load("omega.fgg"), max_steps=10_000, trace=lambda rule, redex: at_first_call or at_first_call.append(dict(calls)))
    assert res.kind == "budget_exhausted" and res.steps == 10_000
    assert at_first_call == [{"fold": 1, "subst_type": 0}]
    assert calls == at_first_call[0]


# ---------------------------------------------------------------------------
# Refocus paths: an r-call lands where _resume of the plain instance lands


# the frame a body fills in the refocus oracle: a value body climbs into it
# and descends into its sibling, a non-value body is pushed below it
_OUTER = Binop("+", Var("hole"), Binop("+", IntLit(1), IntLit(2)))


def assert_refocus_matches_resume(tpl, recv, args, targs) -> bool:
    """Instantiate ``tpl`` once, land on its focus with ``tpl.refocus`` and
    with ``_resume`` of the plain instance, each on its own copy of a
    one-frame spine, and compare the frames (node identity, kids, hole
    index), the focus and its kids, the frames left in place and
    staleness. Returns whether the path was static."""
    regs = tpl.instantiate((recv, *args), targs, None)
    outer = (_OUTER, subexprs(_OUTER), 0)
    got_spine, want_spine = [outer], [outer]
    got = tpl.refocus(regs, got_spine)
    want = reduce._resume(regs[tpl.out], want_spine)
    assert len(got_spine) == len(want_spine)
    for (a, ak, ai), (b, bk, bi) in zip(got_spine, want_spine):
        assert a is b and ai == bi and len(ak) == len(bk) and all(map(operator.is_, ak, bk))
    (node, kids, low, stale), (wnode, wkids, wlow, wstale) = got, want
    assert node is wnode and len(kids) == len(wkids) and all(map(operator.is_, kids, wkids))
    assert (low, stale) == (wlow, wstale)
    return tpl.static


@pytest.mark.parametrize("make", [m for _, m in MACHINE_INPUTS], ids=[n for n, _ in MACHINE_INPUTS])
def test_refocus_matches_resume_of_the_plain_instance(make):
    program, _ = make()
    for m in Decls(program).methods.values():
        recv, args, targs = instantiations(m)[0]  # value arguments: the path holds
        assert_refocus_matches_resume(compile_body(m), recv, args, targs)


def _method(body, params=("y",), recv_params=()):
    return MethodDecl("x", "A", recv_params, "M", MethodSig((), tuple(Param(p, TypeApp("Any")) for p in params)), body)


_A, _B = StructLit(TypeApp("A")), StructLit(TypeApp("B"))
_CLOSED_CALL = MethodCall(_B, "G")
EDGE_BODIES = {
    # no hole: a closed non-value and a closed value
    "closed": (_method(_CLOSED_CALL), False),
    "closed-value": (_method(StructLit(TypeApp("Box"), (IntLit(1),))), False),
    # a value: a parameter, a struct literal of parameters
    "param": (_method(Var("y")), False),
    "struct-of-params": (_method(StructLit(TypeApp("Pair"), (Var("x"), Var("y")))), False),
    # a closed non-value before a hole
    "closed-before-hole": (_method(Binop("+", _CLOSED_CALL, Var("y"))), False),
    "closed-arg": (_method(MethodCall(Var("x"), "N", (), (Var("y"), _CLOSED_CALL))), False),
    # if and sequencing: only the first subexpression is strict
    "if": (_method(If(Neq(Var("y"), IntLit(0)), MethodCall(Var("x"), "N"), Var("y"))), True),
    "if-on-a-value": (_method(If(Var("y"), _CLOSED_CALL, Var("x"))), True),
    "seq": (_method(Seq(MethodCall(Var("x"), "N"), Var("y"))), True),
    "seq-under-call": (_method(MethodCall(Seq(FieldSel(Var("y"), "f"), Var("x")), "N")), True),
    # a non-value argument after value ones
    "late-arg": (_method(MethodCall(Var("x"), "N", (), (Var("y"), IntLit(1), MethodCall(Var("y"), "N")))), True),
    "struct-arg": (_method(StructLit(TypeApp("Pair"), (Var("y"), FieldSel(Var("x"), "f")))), True),
    # typed: the type parameter is a hole, a typed struct literal a value
    "typed": (
        _method(
            MethodCall(StructLit(TypeApp("Box", (TypeParam("T"),)), (Var("y"),)), "Id", (TypeParam("T"),)),
            recv_params=("T",),
        ),
        True,
    ),
}


@pytest.mark.parametrize("name", list(EDGE_BODIES))
def test_refocus_on_edge_bodies(name):
    m, static = EDGE_BODIES[name]
    for recv, args, targs in [instantiations(m)[0], (_A, (BoolLit(True),), ())]:
        assert assert_refocus_matches_resume(compile_body(m), recv, args, targs) is static


@pytest.mark.parametrize("deep", ["chain", "struct"])
def test_refocus_on_a_deep_body(default_recursion_limit, deep):
    body = Var("y")
    for _ in range(10_000):
        body = MethodCall(body, "Id") if deep == "chain" else StructLit(TypeApp("Box"), (body,))
    m = _method(body)
    recv, args, targs = instantiations(m)[0]
    assert assert_refocus_matches_resume(compile_body(m), recv, args, targs) is (deep == "chain")


# every side of omega, where every call after the first is counted, and
# every side of families a-e at 2-5 with 3 iterations
WORK_INPUTS = [(name, make, True) for name, make in OMEGA_SIDES] + [
    ("%s-%s%d" % (mode, f, k), (lambda f=f, k=k, mode=mode: _family_side(f, k, mode)), False)
    for f in "abcde"
    for k in range(2, 6)
    for mode in ("fgg", "dict", "erasure")
]


def _family_side(f, k, mode):
    source = generate(BenchConfig(f, k, 3))
    return (source, "fgg") if mode == "fgg" else _translated(lambda: source, mode)()


@pytest.mark.parametrize("make, every", [(m, e) for _, m, e in WORK_INPUTS], ids=[n for n, _, _ in WORK_INPUTS])
def test_refocused_r_call_tests_no_body_node(monkeypatch, make, every):
    # an r-call whose body has a static refocus path pushes its frames and
    # lands on its focus without asking is_value of a node or descending,
    # where resuming at the hole tests the body's nodes. A method's first
    # call compiles its template and is not counted
    program, lang = make()
    calls = {"is_value": 0, "_descend": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(reduce, name, counted(name, getattr(reduce, name)))
    static = {key: compile_body(m).static for key, m in Decls(program).methods.items()}
    seen, work, last, rcalls = set(), [], 0, 0

    def trace(rule, redex):
        nonlocal last, rcalls
        if rule == "r-call":
            rcalls += 1
            key = (vtype(redex.recv).name, redex.name)
            if key in seen and static[key]:
                work.append(sum(calls.values()) - last)
            seen.add(key)
        last = sum(calls.values())

    run(program, 10_000, lang, trace=trace)
    assert work and set(work) == {0}
    if every:
        assert len(work) == rcalls - 1 >= 4_999
