import dataclasses
import hashlib
import json
import random

import pytest

from feathergo import cosim
from feathergo.cli import main
from feathergo.cosim import (
    MEMO_MIN_ENTRIES,
    RunMemo,
    check_correspondence,
    classify,
    dict_normalize,
    settle,
)
from feathergo.dicttrans import Translator
from feathergo.parser import parse_fgg
from feathergo.reduce import _descend, is_value
from feathergo.syntax import (
    Binop,
    BoolLit,
    FieldSel,
    If,
    IntLit,
    MethodCall,
    Neq,
    Panic,
    Seq,
    StructLit,
    TypeApp,
    TypeAssert,
    fold,
    plug,
    show_expr,
    subexprs,
    walk,
)
from feathergo.typecheck import CheckError, Decls, fgg_typecheck_expr

from conftest import (
    CORPUS,
    FGG_FILES,
    Stepped,
    fg_step,
    generated_struct_names,
    load,
    macro_step_whole,
    reference_contract_at,
    reference_redex_positions,
)

from test_reduce import FGG_SOURCES, assert_unique_decomposition


def translated(name):
    tr = Translator(load(name))
    out = tr.translate_program()
    return tr, out, Decls(out)


def reachable_states(name, cap=400):
    """Target-side states along the standard reduction, for sampling."""
    _, out, tdecls = translated(name)
    states = [out.main]
    e = out.main
    for _ in range(cap):
        step = fg_step(e, tdecls)
        if not isinstance(step, Stepped):
            break
        e = step.expr
        states.append(e)
    return states, tdecls


SAMPLE_PROGRAMS = ("gtfunc.fgg", "eqord.fgg", "fbound_self.fgg", "typerep.fgg", "permute.fgg", "fgg_list.fgg", "numzero.fgg", "box.fgg")


# -- classification -----------------------------------------------------------------


def target_redexes(name, cap=2000):
    """The redexes of the standard reduction of the translated main, and the
    dictionary and method-pointer struct names (``generated_struct_names``)."""
    tr, out, tdecls = translated(name)
    e, redexes = out.main, []
    for _ in range(cap):
        step = fg_step(e, tdecls)
        if not isinstance(step, Stepped):
            break
        redexes.append(step.redex)
        e = step.expr
    return redexes, generated_struct_names(tr.program)


def test_classify_dict_literal_field_select():
    # a method selected from a dictionary literal, as the run of the
    # translation reaches it, is dict by its tag; the same shape untagged
    # is ordinary
    redexes, (dict_structs, _) = target_redexes("gtfunc.fgg")
    sels = [
        r for r in redexes
        if isinstance(r, FieldSel) and isinstance(r.recv, StructLit) and r.recv.type.name in dict_structs
    ]
    assert sels
    for r in sels:
        assert classify(r) == "dict"
        assert classify(dataclasses.replace(r, origin=None)) == "ordinary"


def test_classify_method_pointer_apply():
    redexes, (_, ptr_structs) = target_redexes("numzero.fgg")
    calls = [
        r for r in redexes
        if isinstance(r, MethodCall) and r.name == "Apply"
        and isinstance(r.recv, StructLit) and r.recv.type.name in ptr_structs
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
    _, out, _ = translated("typerep.fgg")
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
    _, out, tdecls = translated("gtfunc.fgg")
    m = macro_step_whole(out.main, tdecls)
    assert m.kind == "stepped"
    assert m.erase_steps == 1
    assert m.mid_rule == "r-call"
    assert m.sim_steps == 0


def test_trycast_macro_resolves_simulation_in_one_step():
    # one macro performs the tryCast call and all following if/neq/select
    # simulation steps; panic surfaces inside the macro
    _, out, tdecls = translated("typerep.fgg")
    nf, _ = dict_normalize(out.main, tdecls, RunMemo())
    m1 = macro_step_whole(nf, tdecls)
    assert m1.kind == "stepped" and m1.mid_rule == "r-call" and m1.sim_steps > 0
    nf2, _ = dict_normalize(m1.expr, tdecls, RunMemo())
    m2 = macro_step_whole(settle(nf2, tdecls, RunMemo()), tdecls)
    assert m2.kind == "stepped"  # the seq discard
    nf3, _ = dict_normalize(m2.expr, tdecls, RunMemo())
    m3 = macro_step_whole(settle(nf3, tdecls, RunMemo()), tdecls)
    assert m3.kind == "panic"  # the .(Foo[bool]) simulation fails


def test_macro_on_plain_term_is_one_ordinary_step():
    _, out, tdecls = translated("arith.fgg")
    m = macro_step_whole(out.main, tdecls)
    assert m.kind == "stepped" and m.sim_steps == 0 and m.mid_rule == "r-ext-binop"


# -- dictionary resolution ------------------------------------------------------------


def test_dict_normalize_reproduces_call_site_resolution():
    # after one macro the applicator is pending on an unevaluated argument;
    # resolution contracts it and refines the assert to the value's own type
    _, out, tdecls = translated("numzero.fgg")
    m = macro_step_whole(dict_normalize(out.main, tdecls, RunMemo())[0], tdecls)
    assert show_expr(m.expr) == "NumDict{MyInt_Add{}, MyInt_meta{}}.Add.Apply(Zero{}, App{}.(App).Bar())"
    nf, steps = dict_normalize(m.expr, tdecls, RunMemo())
    assert show_expr(nf) == "Zero{}.(Zero).Add(App{}.(App).Bar())"
    assert steps == 3  # field lookup, applicator call, assertion refinement


def test_normal_form_is_fixpoint():
    _, out, tdecls = translated("arith.fgg")
    nf, steps = dict_normalize(out.main, tdecls, RunMemo())
    assert steps == 0 and nf == out.main  # no dictionary machinery in sight
    nf2, steps2 = dict_normalize(nf, tdecls, RunMemo())
    assert steps2 == 0 and nf2 == nf


def test_settle_discharges_only_succeeding_erase_asserts():
    _, out, tdecls = translated("gtfunc.fgg")
    ok = TypeAssert(IntLit(7), TypeApp("int"), origin="erase")
    assert settle(ok, tdecls, RunMemo()) == IntLit(7)
    failing = TypeAssert(BoolLit(True), TypeApp("int"), origin="erase")
    assert settle(failing, tdecls, RunMemo()) == failing
    sim = TypeAssert(IntLit(7), TypeApp("int"), origin="sim")
    assert settle(sim, tdecls, RunMemo()) == sim


def test_settle_returns_its_input_when_nothing_settles():
    _, out, tdecls = translated("typerep.fgg")
    erase_over_value = [
        n for n in walk(out.main) if isinstance(n, TypeAssert) and n.origin == "erase" and is_value(n.recv)
    ]
    assert erase_over_value == []
    assert settle(out.main, tdecls, RunMemo()) is out.main


def _sampled_states(rng):
    pool = []
    for name in SAMPLE_PROGRAMS:
        states, tdecls = reachable_states(name)
        for s in states:
            pool.append((s, tdecls))
    rng.shuffle(pool)
    return pool


def _reference_normalize(e, tdecls, types=None):
    """Leftmost-outermost resolution from the oracle functions: every redex
    position listed, the first contracted, to a fixpoint."""
    steps = 0
    while True:
        positions = reference_redex_positions(e, tdecls, types)
        if not positions:
            return e, steps
        e = reference_contract_at(e, positions[0], tdecls, types)
        steps += 1


def test_dict_normalize_matches_table_free_reference_loop():
    # the shared type side table changes neither the contraction order nor
    # the result: same normal form (origin tags included) and step count
    multi_step = 0
    for s, tdecls in _sampled_states(random.Random(11)):
        nf, steps = dict_normalize(s, tdecls, RunMemo())
        ref, ref_steps = _reference_normalize(s, tdecls)
        assert (repr(nf), steps) == (repr(ref), ref_steps), show_expr(s)
        multi_step += steps > 1
    assert multi_step > 100


def test_dict_resolution_two_path_confluence():
    # randomized: contract two different positions first, then normalize;
    # the rejoined normal forms must be identical (1000 trials, with freshly
    # sampled position pairs on each visit to a state)
    rng = random.Random(2024)
    pool = [x for x in _sampled_states(rng) if len(reference_redex_positions(*x)) >= 2]
    assert pool, "no states with two resolution redexes sampled"
    trials = 0
    i = 0
    while trials < 1000:
        s, tdecls = pool[i % len(pool)]
        i += 1
        positions = reference_redex_positions(s, tdecls)
        p1, p2 = rng.sample(positions, 2)
        a = reference_contract_at(s, p1, tdecls)
        b = reference_contract_at(s, p2, tdecls)
        na, sa = dict_normalize(a, tdecls, RunMemo())
        nb, sb = dict_normalize(b, tdecls, RunMemo())
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
    for s, tdecls in pool:
        for path in reference_redex_positions(s, tdecls):
            out = reference_contract_at(s, path, tdecls)
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
        s, tdecls = pool[i % len(pool)]
        i += 1
        assert_unique_decomposition(s, tdecls, generic=False)
        m1 = macro_step_whole(s, tdecls)
        m2 = macro_step_whole(s, tdecls)
        assert m1 == m2
        trials += 1
    assert trials >= 1000


# -- correspondence ----------------------------------------------------------------


@pytest.mark.parametrize("path", FGG_FILES, ids=lambda p: p.name)
def test_correspondence_whole_corpus(path):
    report = check_correspondence(parse_fgg(path.read_text()), max_steps=500)
    assert report.ok, report.mismatch_detail or report.terminal


def test_source_stage_refines_an_assertion_through_the_target_join(monkeypatch):
    # Pick returns S1 or S2 as I; the target types the erased if at their
    # join K, strictly below I, so the translated source state holds an
    # assertion refinement that the source stage contracts, and the
    # settled value reopens the frame above its cut
    counts = {"contract": 0, "pop": 0}
    inside = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += bool(inside)
            return fn(*args, **kwargs)
        return wrapped

    def source_stage(*args):
        inside.append(True)
        try:
            source_normal_form(*args)
        finally:
            inside.pop()

    source_normal_form = cosim.source_normal_form
    monkeypatch.setattr(cosim, "contract_dict_at", counting("contract", cosim.contract_dict_at))
    monkeypatch.setattr(cosim.Cut, "pop", counting("pop", cosim.Cut.pop))
    monkeypatch.setattr(cosim, "source_normal_form", source_stage)
    report = check_correspondence(load("refine_join.fgg"))
    assert report.ok
    assert (report.terminal.kind, report.terminal.detail) == ("value", "1")
    assert [r.dict_normalization_steps for r in report.records] == [0, 1, 1]
    assert counts == {"contract": 1, "pop": 1}


def test_correspondence_report_structure():
    report = check_correspondence(load("gtfunc.fgg"))
    assert all(r.matched for r in report.records)
    assert report.terminal.kind == "value" and report.terminal.both_sides_agree
    assert report.records[0].fgg_rule == "r-call"
    data = report.to_json()
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


def test_normalization_overflow_is_a_failed_budget_terminal(monkeypatch, capsys):
    # resolution past the module's bound ends the check with a budget
    # terminal the sides do not agree on, and the console command exits 1
    # with the report, not a traceback
    monkeypatch.setattr(cosim, "DEFAULT_NORMALIZE_BOUND", 0)
    report = check_correspondence(load("gtfunc.fgg"))
    assert report.terminal.kind == "budget" and not report.terminal.both_sides_agree
    assert report.terminal.detail.startswith("normalization overflow")
    assert all(r.matched for r in report.records) and not report.ok
    assert main(["cosim", "--report", "json", str(CORPUS / "gtfunc.fgg")]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["terminal"] == report.terminal.as_dict()
    assert "Traceback" not in err
    # every index matched, so the reason on stderr is the terminal's
    assert err == report.terminal.detail + "\n"


@pytest.mark.parametrize("kind, focus", [("value", IntLit(1)), ("panic", Panic())])
def test_a_target_that_ends_while_the_source_steps_is_a_disagreeing_terminal(monkeypatch, kind, focus):
    # the macro step, run on a focus that is a value or a panic, ends the
    # target at the first step the source takes
    real = cosim.macro_step
    monkeypatch.setattr(cosim, "macro_step", lambda d, decls, frames: real(focus, decls, []))
    report = check_correspondence(load("gtfunc.fgg"))
    assert report.terminal == cosim.Terminal(kind, False, "target reached %s while source stepped" % kind)
    assert [r.matched for r in report.records] == [True] and not report.ok


def test_a_source_panic_the_target_does_not_share_is_a_disagreeing_terminal(monkeypatch):
    real = cosim.macro_step

    def never_panics(d, decls, frames):
        m = real(d, decls, frames)
        return dataclasses.replace(m, kind="stepped") if m.kind == "panic" else m

    monkeypatch.setattr(cosim, "macro_step", never_panics)
    report = check_correspondence(load("typerep.fgg"))
    assert report.terminal == cosim.Terminal("panic", False, "target did not panic: stepped")
    assert len(report.records) == 2 and not report.ok


def test_a_failed_check_keeps_the_first_mismatch_and_prints_a_reason(monkeypatch, capsys):
    # one mismatch at index 1, then matching indices up to the budget: the
    # report keeps index 1's text, and the console command prints it
    real, calls = cosim._same_state, []

    def mismatch_at_one(tgt, out, pairs, agreed):
        calls.append(None)
        matched, agreed = real(tgt, out, pairs, agreed)
        return (matched and len(calls) != 2), agreed

    monkeypatch.setattr(cosim, "_same_state", mismatch_at_one)
    report = check_correspondence(load("omega.fgg"), max_steps=5)
    assert [r.matched for r in report.records] == [True, False, True, True, True]
    assert report.terminal.kind == "budget" and not report.ok
    assert report.mismatch_detail.startswith("index 1:")
    calls.clear()
    assert main(["cosim", "--steps", "5", str(CORPUS / "omega.fgg")]) == 1
    err = capsys.readouterr().err
    assert err == report.mismatch_detail + "\n"


def test_a_panic_terminal_that_mismatched_names_the_mismatch(monkeypatch):
    # the target panics too, but the states disagree at the panic index:
    # the terminal carries that index's text, as a value terminal does
    real, calls = cosim._same_state, []

    def mismatch_at_two(tgt, out, pairs, agreed):
        calls.append(None)
        matched, agreed = real(tgt, out, pairs, agreed)
        return (matched and len(calls) != 3), agreed

    monkeypatch.setattr(cosim, "_same_state", mismatch_at_two)
    report = check_correspondence(load("typerep.fgg"))
    assert report.terminal.kind == "panic" and not report.terminal.both_sides_agree
    assert report.terminal.detail.startswith("index 2:")
    assert report.terminal.detail == report.mismatch_detail


def test_a_check_translates_main_once(monkeypatch):
    # the target's main, translated under the run's context, is also the
    # target's start state; a later call that finds it in the context's
    # translation table translates nothing
    program = load("gtfunc.fgg")
    fresh, real = [], Translator.translate_expr

    def recording(self, e, ctx):
        if e is program.main and id(e) not in ctx.trans:
            fresh.append(e)
        return real(self, e, ctx)

    monkeypatch.setattr(Translator, "translate_expr", recording)
    assert check_correspondence(program).ok
    assert len(fresh) == 1


# -- the memos one correspondence check carries ---------------------------------------


def _traced_correspondence(program, reference):
    """check_correspondence's JSON report, and the digest of the repr of each
    whole settled normal form (origin tags included), in order, with the
    step count of each target normalisation before its digest. The two
    stages the check runs per step
    are the hooks: each leaves its side as a zipper, and the digest is of
    the whole term it holds. ``reference`` swaps in stand-ins that use no
    memo and redo each step from scratch on the whole term: a fresh
    translation of the whole source state, the oracle functions to a
    fixpoint under a type side table of that normalisation alone, a fresh
    settle, and ``==`` on the whole states for the comparison."""
    seen = []
    target_stage, source_stage = cosim.target_normal_form, cosim.source_normal_form

    def from_scratch(z, e, decls):  # ``z`` made the settled normal form of ``e``, no frame checked
        nf, steps = _reference_normalize(e, decls, {})
        z.__init__(settle(nf, decls, RunMemo()))
        z.focus = _descend(z.focus, z.frames)
        return steps

    def traced_target(z, decls, memo):
        if reference:
            steps = from_scratch(z, z.term(), decls)
        else:
            steps = target_stage(z, decls, memo)
        seen.extend([steps, hashlib.blake2b(repr(z.term()).encode(), digest_size=16).digest()])
        return steps

    def traced_source(src, decls, memo):
        if reference:
            from_scratch(src.out, src.translator.translate_closed_expr(plug(src.frames, src.focus)), decls)
            src.stypes, src.align = [], [0]  # nothing certified
        else:
            source_stage(src, decls, memo)
        seen.append(hashlib.blake2b(repr(src.out.term()).encode(), digest_size=16).digest())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cosim, "target_normal_form", traced_target)
        mp.setattr(cosim, "source_normal_form", traced_source)
        if reference:
            mp.setattr(cosim, "_same_state", lambda a, b, pairs, known: (a.term() == b.term(), 0))
        report = check_correspondence(program)
    return report.to_json(), seen


@pytest.mark.parametrize("make", [m for _, m in FGG_SOURCES], ids=[n for n, _ in FGG_SOURCES])
def test_carried_memos_match_a_from_scratch_run(make):
    # per step the same settled normal forms on both sides and the same
    # normalisation step counts, and the same report, as a run that carries
    # nothing from one step to the next
    program = make()
    report, seen = _traced_correspondence(program, reference=False)
    ref_report, ref_seen = _traced_correspondence(program, reference=True)
    assert len(seen) == len(ref_seen)
    for i, (got, want) in enumerate(zip(seen, ref_seen)):
        assert got == want, "normalisation %d of the run differs" % (i // 3)
    assert report == ref_report


def _expr_nodes(e) -> int:
    return fold(e, lambda n, kids: 1 + sum(kids))


def test_run_memo_stays_within_a_multiple_of_the_live_terms(monkeypatch):
    # 3000 steps of a loop: the tables are cleared whenever they outgrow the
    # terms the run holds, and never hold more than a fixed multiple of the
    # live terms' nodes plus the minimum
    sizes, live = [], []

    class RecordingMemo(RunMemo):
        def trim(self):
            sizes.append(self.size())
            super().trim()

    target_stage, source_stage = cosim.target_normal_form, cosim.source_normal_form

    def recording_target(z, *args):
        steps = target_stage(z, *args)
        live.append(_expr_nodes(z.term()))
        return steps

    def recording_source(src, *args):
        source_stage(src, *args)
        live.append(_expr_nodes(src.out.term()))

    monkeypatch.setattr(cosim, "RunMemo", RecordingMemo)
    monkeypatch.setattr(cosim, "target_normal_form", recording_target)
    monkeypatch.setattr(cosim, "source_normal_form", recording_source)
    report = check_correspondence(load("omega.fgg"), max_steps=3000)
    assert report.ok and len(report.records) == 3000
    assert len(sizes) == 3000
    clears = sum(b < a for a, b in zip(sizes, sizes[1:]))
    assert clears >= 2
    assert max(sizes) <= 16 * max(live) + MEMO_MIN_ENTRIES


def test_run_memo_limit_follows_the_size_after_a_clear():
    memo = RunMemo()
    memo.types.update((i, None) for i in range(3000))
    memo.trim()  # the first step: the limit is four times what it holds, at least the minimum
    assert memo.limit == 4 * 3000 and memo.size() == 3000
    memo.normal.update((i, None) for i in range(9000))
    memo.trim()
    assert memo.size() == 12_000  # not over the limit: kept
    memo.settled[0] = None
    memo.trim()
    assert memo.size() == 0 and memo.limit is None  # over it: every table cleared
    memo.trans[0] = None
    memo.trim()
    assert memo.limit == MEMO_MIN_ENTRIES


# -- work per step ------------------------------------------------------------------

CHAIN = (
    "package main\ntype Any interface {}\ntype Box[T Any] struct { v T }\n"
    "func (b Box[T]) Id() Box[T] { return b }\nfunc main() { _ = Box[int]{1}%s }\n"
)


def _node_work_per_step(depth):
    """Nodes translated, typed, settled, scanned for a redex and visited by
    the comparison and the scans, per source step of the ``.Id()`` chain."""
    from feathergo import dicttrans, syntax, typecheck

    work = [0]

    def counting(fn):
        def counted(*args):
            work[0] += 1
            return fn(*args)
        return counted

    def counting_fold(e, f, kids=syntax.subexprs):
        return syntax.fold(e, counting(f), kids)

    with pytest.MonkeyPatch.context() as mp:
        for module in (cosim, dicttrans, typecheck):
            mp.setattr(module, "fold", counting_fold)
        mp.setattr(cosim, "_dict_contract", counting(cosim._dict_contract))
        mp.setattr(cosim, "subexprs", counting(syntax.subexprs))
        report = check_correspondence(parse_fgg(CHAIN % (".Id()" * depth)), max_steps=depth + 1)
    assert report.ok and len(report.records) == depth
    return work[0] / depth


def test_work_per_step_does_not_grow_with_depth():
    # the checker follows the step, not the spine: per source step it does
    # about the same node work on a chain four times as deep
    assert _node_work_per_step(400) <= 1.5 * _node_work_per_step(100)


def test_macro_step_panics_on_a_failing_assert_after_the_ordinary_step():
    # the redex after the ordinary step is an untagged assert, so no
    # simulation step; it would panic, and the macro step says so
    _, _, tdecls = translated("arith.fgg")
    d = Seq(IntLit(1), TypeAssert(IntLit(1), TypeApp("bool")))
    m = macro_step_whole(d, tdecls)
    assert m.kind == "panic" and m.mid_rule == "r-ext-seq" and m.sim_steps == 0
    ok = Seq(IntLit(1), TypeAssert(IntLit(1), TypeApp("int")))
    m = macro_step_whole(ok, tdecls)
    assert m.kind == "stepped" and m.expr == ok.rest  # left for the next macro step


def test_each_dictionary_contractum_is_built_once(monkeypatch):
    # under the run's memo, the scan hands the contractum it built to the
    # plug: one contraction built per step, none built again
    built = []

    def recording(e, decls, types):
        out = cosim_dict_contract(e, decls, types)
        if out is not None:
            built.append(out)
        return out

    cosim_dict_contract = cosim._dict_contract
    monkeypatch.setattr(cosim, "_dict_contract", recording)
    total = 0
    for name in ("numzero.fgg", "gtfunc.fgg", "typerep.fgg"):
        states, tdecls = reachable_states(name, cap=60)
        for s in states:
            before = len(built)
            _, steps = dict_normalize(s, tdecls, RunMemo())
            assert len(built) - before == steps
            total += steps
    assert total > 0


def test_a_frame_is_checked_only_with_normal_settled_kids_beside_the_hole():
    # a frame whose later subexpression holds a resolution redex, or an
    # erase assert that settles, is not checked: it stays below the cut
    _, out, tdecls = translated("numzero.fgg")
    pending = macro_step_whole(dict_normalize(out.main, tdecls, RunMemo())[0], tdecls).expr
    assert reference_redex_positions(pending, tdecls)
    hole = MethodCall(IntLit(1), "Missing")
    settles = TypeAssert(IntLit(7), TypeApp("int"), origin="erase")
    for rest, checked in ((IntLit(2), 1), (pending, 0), (settles, 0)):
        z = cosim.Zipper(None)
        node = Seq(hole, rest)
        z.frames, z.fresh = [(node, (hole, rest), 0)], 1
        cosim._check_frames(z, 1, tdecls, RunMemo())
        assert len(z.ctypes) == checked


def test_a_source_frame_is_certified_only_where_its_translation_lands():
    # the frames of a call on the hole, resolved and settled one by one,
    # must be the output frames there, subexpression for subexpression
    _, out, tdecls = translated("arith.fgg")
    hole = MethodCall(IntLit(1), "Missing")
    call = MethodCall(TypeAssert(hole, TypeApp("int"), origin="erase"), "M", (), (IntLit(2), IntLit(3)))
    raw = [(call, subexprs(call), 0)]
    memo = RunMemo()
    assert cosim._frames_match(raw, raw, tdecls, memo) is True
    other = MethodCall(call.recv, "M", (), (IntLit(2), IntLit(4)))
    assert cosim._frames_match(raw, [(other, subexprs(other), 0)], tdecls, memo) is False
    moved = [(call, subexprs(call), 1)]
    assert cosim._frames_match(raw, moved, tdecls, memo) is False
