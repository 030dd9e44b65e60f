"""Co-simulation of an FGG run against its dictionary-translated FG run.

The harness implements, as executable artifacts:

* redex classification into erase / sim / dict / ordinary (via the origin
  tags the translator leaves on generated nodes, falling back to the
  syntactic patterns);
* the macro step: exhaust erasure asserts, take one ordinary step, exhaust
  assertion-simulation steps -- one macro step corresponds to one source
  step;
* dictionary resolution: pre-congruence contraction of dictionary plumbing
  (dictionary field lookups, applicator calls, dictionary self-asserts)
  plus assertion refinement (replace an asserted type by the expression's
  strictly more precise static type), applied to a fixpoint under a step
  bound -- the relation is confluent, so the normal form is unique;
* the correspondence check: run source and target in lockstep and verify at
  every index that the target state and the freshly translated source state
  have the same dictionary-resolution normal form, with agreeing terminals
  (value with translated-value equality, panic, or budget on both sides).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dicttrans import RESERVED_NAME, TransInfo, Translator
from .reduce import (
    PanicOutcome,
    Stuck,
    Value,
    fg_step,
    fgg_step,
    instantiate_body,
    is_value,
    vtype,
)
from .syntax import (
    Expr,
    FieldSel,
    MethodCall,
    Program,
    StructLit,
    TypeApp,
    TypeAssert,
    plug,
    rebuild,
    show_expr,
    subexprs,
)
from .typecheck import CheckError, Decls, fg_subtype, fgg_typecheck_expr

class NormalizeOverflow(Exception):
    pass


# ---------------------------------------------------------------------------
# Redex classification


def classify(redex: Expr, info: TransInfo) -> str:
    """Classify a contractible redex as "erase", "sim", "dict" or "ordinary".

    Origin tags are authoritative (they disambiguate the bare value-assert
    pattern, which occurs in both the erase and sim sets); the generated
    dictionary / method-pointer / type-rep patterns are never ordinary.
    """
    origin = getattr(redex, "origin", None)
    if origin in ("erase", "sim"):
        return origin
    if isinstance(redex, TypeAssert):
        if origin == "dict":
            return "dict"
        if (
            isinstance(redex.type, TypeApp)
            and redex.type.name in info.dict_structs
            and isinstance(redex.recv, StructLit)
            and redex.recv.type.name in info.dict_structs
        ):
            return "dict"
        return "ordinary"
    if isinstance(redex, FieldSel):
        if origin == "dict":
            return "dict"
        if isinstance(redex.recv, StructLit) and redex.recv.type.name in info.dict_structs:
            return "dict"
        if RESERVED_NAME.fullmatch(redex.fieldname):
            return "dict"
        return "ordinary"
    if isinstance(redex, MethodCall):
        if origin == "dict":
            return "dict"
        if (
            redex.name == "Apply"
            and isinstance(redex.recv, StructLit)
            and redex.recv.type.name in info.ptr_structs
        ):
            return "dict"
        if redex.name in info.spec_methods:
            return "sim"
        return "ordinary"
    return "ordinary"


# ---------------------------------------------------------------------------
# Dictionary resolution (pre-congruence contraction + assertion refinement)


def _dict_contract(e: Expr, decls: Decls, info: TransInfo, types=None):
    """One dictionary-resolution contraction at this node, or None.

    Contractions never panic: dictionary field selects and self-asserts are
    total on the generated shapes, applicator calls substitute (possibly
    unevaluated) arguments linearly, and refinement only strengthens an
    assert to the expression's own static type. ``types`` is an optional
    side table of closed subterm types (see ``fgg_typecheck_expr``).
    """
    if isinstance(e, FieldSel) and isinstance(e.recv, StructLit) and is_value(e.recv):
        dicty = e.recv.type.name in info.dict_structs or RESERVED_NAME.fullmatch(e.fieldname)
        if dicty:
            d = decls.structs.get(e.recv.type.name)
            if d is not None:
                for i, f in enumerate(d.fields):
                    if f.name == e.fieldname:
                        return e.recv.args[i]
        return None
    if isinstance(e, MethodCall) and e.name == "Apply":
        recv = e.recv
        if isinstance(recv, StructLit) and recv.type.name in info.ptr_structs and is_value(recv):
            m = decls.methods.get((recv.type.name, "Apply"))
            if m is not None and len(m.sig.params) == len(e.args):
                return instantiate_body(m, recv, e.args, ())
        return None
    if isinstance(e, TypeAssert):
        if (
            isinstance(e.type, TypeApp)
            and e.type.name in info.dict_structs
            and isinstance(e.recv, StructLit)
            and is_value(e.recv)
            and vtype(e.recv).name == e.type.name
        ):
            return e.recv
        # assertion refinement: |- recv : u and u <: t strictly
        try:
            u = fgg_typecheck_expr(e.recv, {}, {}, decls, types=types)
        except CheckError:
            return None
        if (
            isinstance(u, TypeApp)
            and isinstance(e.type, TypeApp)
            and u.name != e.type.name
            and fg_subtype(u.name, e.type.name, decls)
        ):
            return TypeAssert(e.recv, TypeApp(u.name), origin=e.origin)
        return None
    return None


def dict_redex_positions(e: Expr, decls: Decls, info: TransInfo, types=None) -> list:
    """All positions (paths) where a dictionary-resolution step applies, in
    preorder. A path is a tuple of indices into ``subexprs``, one per level
    from the root down."""
    out = []
    stack = [(e, ())]
    while stack:
        node, path = stack.pop()
        if _dict_contract(node, decls, info, types) is not None:
            out.append(path)
        kids = subexprs(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], path + (i,)))
    return out


def contract_dict_at(e: Expr, path: tuple, decls: Decls, info: TransInfo, types=None) -> Expr:
    spine = []
    for i in path:
        kids = subexprs(e)
        spine.append((e, kids, i))
        e = kids[i]
    out = _dict_contract(e, decls, info, types)
    if out is None:
        raise ValueError("no dictionary-resolution redex at path")
    return plug(spine, out)


def settle(e: Expr, decls: Decls) -> Expr:
    """Discharge pending erasure asserts over values: an erase-tagged
    ``v.(t)`` with ``vtype(v) <: t`` contracts to ``v``.

    The lockstep target and the freshly translated source state can differ
    by exactly these asserts (the target consumes them as soon as they are
    the next standard redex, a fresh translation re-inserts them), so state
    comparison runs on settled forms. Only succeeding asserts are
    discharged: a failing one stays put and surfaces as a divergence.
    """
    e = rebuild(e, [settle(k, decls) for k in subexprs(e)])
    while (
        isinstance(e, TypeAssert)
        and e.origin == "erase"
        and is_value(e.recv)
        and isinstance(e.type, TypeApp)
        and fg_subtype(vtype(e.recv).name, e.type.name, decls)
    ):
        e = e.recv
    return e


DEFAULT_NORMALIZE_BOUND = 10_000


def dict_normalize(e: Expr, decls: Decls, info: TransInfo, bound: int = DEFAULT_NORMALIZE_BOUND):
    """Exhaust dictionary resolution, leftmost-outermost first; returns
    (normal form, steps taken). By confluence the normal form is unique;
    the bound guards against a harness or translator bug and raises
    NormalizeOverflow on overflow. One type side table serves every scan:
    subterms a contraction leaves in place keep their identity, so each
    is typed once per normalisation."""
    steps = 0
    types: dict = {}
    while True:
        positions = dict_redex_positions(e, decls, info, types)
        if not positions:
            return e, steps
        e = contract_dict_at(e, positions[0], decls, info, types)
        steps += 1
        if steps > bound:
            raise NormalizeOverflow("no normal form within %d steps" % bound)


# ---------------------------------------------------------------------------
# The macro step


@dataclass(frozen=True)
class MacroOutcome:
    kind: str  # "stepped" | "panic" | "value"
    expr: Expr | None
    erase_steps: int
    mid_rule: str | None
    sim_steps: int
    panic: PanicOutcome | None = None


def macro_step(d: Expr, decls: Decls, info: TransInfo) -> MacroOutcome:
    """One target macro step: erase-asserts, one ordinary step, then all
    enabled simulation steps. Panics surface as a panic outcome (the
    simulated assertion error); the result has no enabled sim redex."""
    erase_steps = 0
    while True:
        out = fg_step(d, decls)
        if isinstance(out, Value):
            return MacroOutcome("value", d, erase_steps, None, 0)
        if isinstance(out, PanicOutcome):
            return MacroOutcome("panic", None, erase_steps, None, 0, panic=out)
        if isinstance(out, Stuck):
            raise RuntimeError("target stuck: %s" % out.reason)
        if classify(out.redex, info) != "erase":
            break
        d = out.expr
        erase_steps += 1
    # the single ordinary step
    d = out.expr
    mid_rule = out.rule
    sim_steps = 0
    while True:
        out = fg_step(d, decls)
        if isinstance(out, Value):
            break
        if isinstance(out, PanicOutcome):
            return MacroOutcome("panic", None, erase_steps, mid_rule, sim_steps, panic=out)
        if isinstance(out, Stuck):
            raise RuntimeError("target stuck: %s" % out.reason)
        if classify(out.redex, info) != "sim":
            break
        d = out.expr
        sim_steps += 1
    return MacroOutcome("stepped", d, erase_steps, mid_rule, sim_steps)


# ---------------------------------------------------------------------------
# Correspondence checking


@dataclass(frozen=True)
class StepRecord:
    fgg_step_index: int
    fgg_rule: str
    erase_steps: int
    mid_rule: str | None
    sim_steps: int
    dict_normalization_steps: int
    matched: bool

    def as_dict(self) -> dict:
        return {
            "fgg_step_index": self.fgg_step_index,
            "fgg_rule": self.fgg_rule,
            "macro_step_trace": {
                "erase_steps": self.erase_steps,
                "rule": self.mid_rule,
                "sim_steps": self.sim_steps,
            },
            "dict_normalization_steps": self.dict_normalization_steps,
            "matched": self.matched,
        }


@dataclass(frozen=True)
class Terminal:
    kind: str  # "value" | "panic" | "budget"
    both_sides_agree: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {"kind": self.kind, "both_sides_agree": self.both_sides_agree, "detail": self.detail}


@dataclass(frozen=True)
class CorrespondenceReport:
    records: tuple
    terminal: Terminal
    mismatch_detail: str = ""

    @property
    def ok(self) -> bool:
        return all(r.matched for r in self.records) and self.terminal.both_sides_agree

    def to_json(self) -> str:
        return json.dumps(
            {
                "records": [r.as_dict() for r in self.records],
                "terminal": self.terminal.as_dict(),
                "ok": self.ok,
                "mismatch_detail": self.mismatch_detail,
            },
            indent=2,
        )


def check_correspondence(
    program: Program,
    max_steps: int = 500,
    normalize_bound: int = DEFAULT_NORMALIZE_BOUND,
) -> CorrespondenceReport:
    """Run the FGG program and its dictionary translation in lockstep.

    At every index the dictionary-resolution normal forms of the target
    state and of the freshly translated source state must agree; terminally
    both sides must agree on value (up to value translation), panic, or
    budget exhaustion.
    """
    translator = Translator(program)
    target = translator.translate_program()
    info = translator.info()
    sdecls = Decls(program)
    tdecls = Decls(target)

    e = program.main
    t = target.main
    records = []

    def norm(x):
        nf, steps = dict_normalize(x, tdecls, info, normalize_bound)
        return settle(nf, tdecls), steps

    for i in range(max_steps):
        try:
            t_norm, dsteps = norm(t)
            e_trans, dsteps2 = norm(translator.translate_closed_expr(e))
        except NormalizeOverflow as ov:
            return CorrespondenceReport(
                tuple(records), Terminal("budget", False, "normalization overflow: %s" % ov)
            )
        matched = t_norm == e_trans
        mismatch = (
            ""
            if matched
            else "index %d:\n  source (translated): %s\n  target:              %s"
            % (i, show_expr(e_trans), show_expr(t_norm))
        )

        src = fgg_step(e, sdecls)
        if isinstance(src, Value):
            agree = matched and is_value(t_norm)
            return CorrespondenceReport(
                tuple(records),
                Terminal("value", agree, show_expr(t_norm) if agree else mismatch),
                mismatch,
            )
        if isinstance(src, PanicOutcome):
            tgt = macro_step(t_norm, tdecls, info)
            agree = matched and tgt.kind == "panic"
            detail = src.message if agree else "target did not panic: %s" % tgt.kind
            return CorrespondenceReport(
                tuple(records), Terminal("panic", agree, detail), mismatch
            )
        if isinstance(src, Stuck):
            raise RuntimeError("source stuck: %s" % src.reason)

        tgt = macro_step(t_norm, tdecls, info)
        records.append(
            StepRecord(i, src.rule, tgt.erase_steps, tgt.mid_rule, tgt.sim_steps, dsteps, matched)
        )
        if tgt.kind != "stepped":
            return CorrespondenceReport(
                tuple(records),
                Terminal(
                    "panic" if tgt.kind == "panic" else "value",
                    False,
                    "target reached %s while source stepped" % tgt.kind,
                ),
                mismatch,
            )
        e = src.expr
        t = tgt.expr

    return CorrespondenceReport(
        tuple(records), Terminal("budget", True, "both sides exceeded %d steps" % max_steps)
    )
