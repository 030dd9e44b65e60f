import dataclasses
import random

import pytest

from feathergo.cosim import (
    check_correspondence,
    classify,
    contract_dict_at,
    dict_normalize,
    dict_redex_positions,
    macro_step,
    settle,
)
from feathergo.dicttrans import Translator
from feathergo.parser import parse_fgg
from feathergo.reduce import Stepped, fg_step, is_value
from feathergo.syntax import (
    Binop,
    BoolLit,
    FieldSel,
    If,
    IntLit,
    MethodCall,
    Neq,
    Panic,
    StructLit,
    TypeApp,
    show_expr,
    walk,
)
from feathergo.typecheck import CheckError, Decls, fgg_typecheck_expr

from conftest import FGG_FILES, load

from test_reduce import assert_unique_decomposition


def translated(name):
    tr = Translator(load(name))
    out = tr.translate_program()
    return tr, out, tr.info(), Decls(out)


def reachable_states(name, cap=400):
    """Target-side states along the standard reduction, for sampling."""
    _, out, info, tdecls = translated(name)
    states = [out.main]
    e = out.main
    for _ in range(cap):
        step = fg_step(e, tdecls)
        if not isinstance(step, Stepped):
            break
        e = step.expr
        states.append(e)
    return states, info, tdecls


SAMPLE_PROGRAMS = ("gtfunc.fgg", "eqord.fgg", "fbound_self.fgg", "typerep.fgg", "permute.fgg", "fgg_list.fgg", "numzero.fgg", "box.fgg")


# -- classification -----------------------------------------------------------------


def target_redexes(name, cap=2000):
    """The redexes of the standard reduction of the translated main."""
    _, out, info, tdecls = translated(name)
    e, redexes = out.main, []
    for _ in range(cap):
        step = fg_step(e, tdecls)
        if not isinstance(step, Stepped):
            break
        redexes.append(step.redex)
        e = step.expr
    return redexes, info


def test_classify_dict_literal_field_select():
    # a method selected from a dictionary literal, as the run of the
    # translation reaches it, is dict by its tag; the same shape untagged
    # is ordinary
    redexes, info = target_redexes("gtfunc.fgg")
    sels = [
        r for r in redexes
        if isinstance(r, FieldSel) and isinstance(r.recv, StructLit) and r.recv.type.name in info.dict_structs
    ]
    assert sels
    for r in sels:
        assert classify(r) == "dict"
        assert classify(dataclasses.replace(r, origin=None)) == "ordinary"


def test_classify_method_pointer_apply():
    redexes, info = target_redexes("numzero.fgg")
    calls = [
        r for r in redexes
        if isinstance(r, MethodCall) and r.name == "Apply"
        and isinstance(r.recv, StructLit) and r.recv.type.name in info.ptr_structs
    ]
    assert calls
    for r in calls:
        assert classify(r) == "dict"
        assert classify(dataclasses.replace(r, origin=None)) == "ordinary"


def test_classify_sim_if_neq_panic():
    v = StructLit(TypeApp("Int_meta"))
    redex = If(Neq(v, v, origin="sim"), Panic(), BoolLit(True), origin="sim")
    assert classify(redex) == "sim"


def test_classify_by_origin_tags():
    # every tagged node the translator emits is classified by its tag, and
    # the same node untagged is ordinary
    _, out, _, _ = translated("typerep.fgg")
    tagged = [n for n in walk(out) if getattr(n, "origin", None)]
    assert {n.origin for n in tagged} == {"erase", "sim", "dict"}
    for n in tagged:
        assert classify(n) == n.origin
        assert classify(dataclasses.replace(n, origin=None)) == "ordinary"
    shapes = {
        "spec call": lambda n: isinstance(n, MethodCall) and n.name.startswith("spec_"),
        "dict_0 select": lambda n: isinstance(n, FieldSel) and n.fieldname == "dict_0",
        "_type select": lambda n: isinstance(n, FieldSel) and n.fieldname == "_type",
    }
    for shape, test in shapes.items():
        assert any(test(n) for n in tagged), shape
    assert classify(MethodCall(IntLit(1), "Gt", (), ())) == "ordinary"
    assert classify(Binop("+", IntLit(1), IntLit(2))) == "ordinary"


# -- the macro step -----------------------------------------------------------------


def test_first_macro_of_gtfunc_consumes_erase_assert_then_calls():
    # derived trace on the translated program: .(GtFunc) then the r-call
    _, out, info, tdecls = translated("gtfunc.fgg")
    m = macro_step(out.main, tdecls)
    assert m.kind == "stepped"
    assert m.erase_steps == 1
    assert m.mid_rule == "r-call"
    assert m.sim_steps == 0


def test_trycast_macro_resolves_simulation_in_one_step():
    # one macro performs the tryCast call and all following if/neq/select
    # simulation steps; panic surfaces inside the macro
    _, out, info, tdecls = translated("typerep.fgg")
    nf, _ = dict_normalize(out.main, tdecls, info)
    m1 = macro_step(nf, tdecls)
    assert m1.kind == "stepped" and m1.mid_rule == "r-call" and m1.sim_steps > 0
    nf2, _ = dict_normalize(m1.expr, tdecls, info)
    m2 = macro_step(settle(nf2, tdecls), tdecls)
    assert m2.kind == "stepped"  # the seq discard
    nf3, _ = dict_normalize(m2.expr, tdecls, info)
    m3 = macro_step(settle(nf3, tdecls), tdecls)
    assert m3.kind == "panic"  # the .(Foo[bool]) simulation fails


def test_macro_on_plain_term_is_one_ordinary_step():
    _, out, info, tdecls = translated("arith.fgg")
    m = macro_step(out.main, tdecls)
    assert m.kind == "stepped" and m.sim_steps == 0 and m.mid_rule == "r-ext-binop"


# -- dictionary resolution ------------------------------------------------------------


def test_dict_normalize_reproduces_call_site_resolution():
    # after one macro the applicator is pending on an unevaluated argument;
    # resolution contracts it and refines the assert to the value's own type
    _, out, info, tdecls = translated("numzero.fgg")
    m = macro_step(dict_normalize(out.main, tdecls, info)[0], tdecls)
    assert show_expr(m.expr) == "NumDict{MyInt_Add{}, MyInt_meta{}}.Add.Apply(Zero{}, App{}.(App).Bar())"
    nf, steps = dict_normalize(m.expr, tdecls, info)
    assert show_expr(nf) == "Zero{}.(Zero).Add(App{}.(App).Bar())"
    assert steps == 3  # field lookup, applicator call, assertion refinement


def test_normal_form_is_fixpoint():
    _, out, info, tdecls = translated("arith.fgg")
    nf, steps = dict_normalize(out.main, tdecls, info)
    assert steps == 0 and nf == out.main  # no dictionary machinery in sight
    nf2, steps2 = dict_normalize(nf, tdecls, info)
    assert steps2 == 0 and nf2 == nf


def test_settle_discharges_only_succeeding_erase_asserts():
    from feathergo.syntax import TypeAssert

    _, out, info, tdecls = translated("gtfunc.fgg")
    ok = TypeAssert(IntLit(7), TypeApp("int"), origin="erase")
    assert settle(ok, tdecls) == IntLit(7)
    failing = TypeAssert(BoolLit(True), TypeApp("int"), origin="erase")
    assert settle(failing, tdecls) == failing
    sim = TypeAssert(IntLit(7), TypeApp("int"), origin="sim")
    assert settle(sim, tdecls) == sim


def test_settle_returns_its_input_when_nothing_settles():
    from feathergo.syntax import TypeAssert, walk

    _, out, _, tdecls = translated("typerep.fgg")
    erase_over_value = [
        n for n in walk(out.main) if isinstance(n, TypeAssert) and n.origin == "erase" and is_value(n.recv)
    ]
    assert erase_over_value == []
    assert settle(out.main, tdecls) is out.main


def _sampled_states(rng, with_positions=False):
    pool = []
    for name in SAMPLE_PROGRAMS:
        states, info, tdecls = reachable_states(name)
        for s in states:
            pool.append((s, info, tdecls))
    rng.shuffle(pool)
    return pool


def _reference_normalize(e, tdecls, info):
    """Leftmost-outermost resolution from the table-free oracle functions."""
    steps = 0
    while True:
        positions = dict_redex_positions(e, tdecls, info)
        if not positions:
            return e, steps
        e = contract_dict_at(e, positions[0], tdecls, info)
        steps += 1


def test_dict_normalize_matches_table_free_reference_loop():
    # the shared type side table changes neither the contraction order nor
    # the result: same normal form (origin tags included) and step count
    multi_step = 0
    for s, info, tdecls in _sampled_states(random.Random(11)):
        nf, steps = dict_normalize(s, tdecls, info)
        ref, ref_steps = _reference_normalize(s, tdecls, info)
        assert (repr(nf), steps) == (repr(ref), ref_steps), show_expr(s)
        multi_step += steps > 1
    assert multi_step > 100


def test_dict_resolution_two_path_confluence():
    # randomized: contract two different positions first, then normalize;
    # the rejoined normal forms must be identical (1000 trials, with freshly
    # sampled position pairs on each visit to a state)
    rng = random.Random(2024)
    pool = [x for x in _sampled_states(rng) if len(dict_redex_positions(x[0], x[2], x[1])) >= 2]
    assert pool, "no states with two resolution redexes sampled"
    trials = 0
    i = 0
    while trials < 1000:
        s, info, tdecls = pool[i % len(pool)]
        i += 1
        positions = dict_redex_positions(s, tdecls, info)
        p1, p2 = rng.sample(positions, 2)
        a = contract_dict_at(s, p1, tdecls, info)
        b = contract_dict_at(s, p2, tdecls, info)
        na, sa = dict_normalize(a, tdecls, info)
        nb, sb = dict_normalize(b, tdecls, info)
        assert na == nb, "confluence violated at %s vs %s" % (p1, p2)
        assert sa <= 10_000 and sb <= 10_000
        trials += 1
    assert trials >= 1000


def test_dict_resolution_preserves_typing_and_never_panics():
    # per applied step: the contracted term still typechecks and no new
    # panic redex is introduced
    rng = random.Random(99)
    pool = _sampled_states(rng)
    checked = 0
    for s, info, tdecls in pool:
        for path in dict_redex_positions(s, tdecls, info):
            out = contract_dict_at(s, path, tdecls, info)
            try:
                fgg_typecheck_expr(out, {}, {}, tdecls)
            except CheckError as ex:
                pytest.fail("resolution broke typing: %s" % ex)
            checked += 1
            if checked >= 500:
                return
    assert checked > 0


def test_macro_determinism_randomized():
    # alternative decomposition search finds no second successor (1000 trials;
    # every non-value state along every sampled run, cycling if needed)
    rng = random.Random(7)
    pool = [x for x in _sampled_states(rng) if not is_value(x[0])]
    assert pool
    trials = 0
    i = 0
    while trials < 1000:
        s, info, tdecls = pool[i % len(pool)]
        i += 1
        assert_unique_decomposition(s, tdecls, generic=False)
        m1 = macro_step(s, tdecls)
        m2 = macro_step(s, tdecls)
        assert m1 == m2
        trials += 1
    assert trials >= 1000


# -- correspondence ----------------------------------------------------------------


@pytest.mark.parametrize("path", FGG_FILES, ids=lambda p: p.name)
def test_correspondence_whole_corpus(path):
    report = check_correspondence(parse_fgg(path.read_text()), max_steps=500)
    assert report.ok, report.mismatch_detail or report.terminal


def test_correspondence_report_structure():
    report = check_correspondence(load("gtfunc.fgg"))
    assert all(r.matched for r in report.records)
    assert report.terminal.kind == "value" and report.terminal.both_sides_agree
    assert report.records[0].fgg_rule == "r-call"
    data = report.to_json()
    import json

    parsed = json.loads(data)
    assert parsed["ok"] is True
    # the leading value-assert is already discharged by settling, so the
    # recorded macro goes straight to the call
    assert parsed["records"][0]["macro_step_trace"]["rule"] == "r-call"


def test_correspondence_panic_alignment():
    # the type-rep program: source panics at the second assert and the
    # target macro-run panics at the matching index
    report = check_correspondence(load("typerep.fgg"))
    assert report.ok
    assert report.terminal.kind == "panic" and report.terminal.both_sides_agree
    assert len(report.records) == 2  # first assert and the seq discard


def test_correspondence_budget_terminal():
    report = check_correspondence(load("omega.fgg"), max_steps=50)
    assert report.ok
    assert report.terminal.kind == "budget"
    assert len(report.records) == 50
