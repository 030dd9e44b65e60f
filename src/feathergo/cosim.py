"""Co-simulation of an FGG run against its dictionary-translated FG run.

The harness implements, as executable artifacts:

* redex classification into erase / sim / dict / ordinary by the origin
  tags the translator leaves on generated nodes (untagged is ordinary);
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

from .dicttrans import RESERVED_NAME, Ctx, TransInfo, Translator
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
    fold,
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


def classify(redex: Expr) -> str:
    """Classify a contractible redex as "erase", "sim", "dict" or "ordinary".

    The origin tag the translator left on the node decides; an untagged
    redex, or one of a class without tags (``Binop``), is ordinary.
    """
    return getattr(redex, "origin", None) or "ordinary"


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
                return instantiate_body(decls, m, recv, e.args, ())
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
        # assertion refinement: |- recv : u and u <: t strictly, which needs
        # an interface t (a struct type, int and bool included, has no
        # proper subtype), so no other receiver is typed
        if not (isinstance(e.type, TypeApp) and decls.kind_of(e.type.name) == "interface"):
            return None
        try:
            u = fgg_typecheck_expr(e.recv, {}, {}, decls, types=types)
        except CheckError:
            return None
        if (
            isinstance(u, TypeApp)
            and u.name != e.type.name
            and fg_subtype(u.name, e.type.name, decls)
        ):
            return TypeAssert(e.recv, TypeApp(u.name), origin=e.origin)
        return None
    return None


def dict_redex_positions(
    e: Expr, decls: Decls, info: TransInfo, types=None, memo: RunMemo | None = None
) -> list:
    """Positions (paths) where a dictionary-resolution step applies, in
    preorder. A path is a tuple of indices into ``subexprs``, one per level
    from the root down.

    Without ``memo`` the list is complete: the full scan that C5 and the
    confluence tests take as their oracle. With one it is the scan
    ``dict_normalize`` makes per step: it lists only the first position,
    types receivers in ``memo.types``, skips the subterms ``memo.normal``
    knows to hold no redex and records those it scans whole."""
    if memo is not None:
        path = _first_redex(e, decls, info, memo)
        return [] if path is None else [path]
    out = []
    stack = [(e, None)]  # (node, its position: None at the root, else (parent's position, index))
    while stack:
        node, pos = stack.pop()
        if _dict_contract(node, decls, info, types) is not None:
            path, up = [], pos
            while up is not None:
                up, i = up
                path.append(i)
            out.append(tuple(reversed(path)))
        kids = subexprs(node)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], (pos, i)))
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


MEMO_MIN_ENTRIES = 4096


class RunMemo:
    """The tables one correspondence check carries from step to step.

    Every table is keyed by ``id(node)`` and holds its node, so no id is
    reused while an entry lives; none is keyed by the expression, whose
    generated hash costs its size.

    * ``src_types`` and ``trans``: the source type side table and the
      translation of every source subterm translated so far, which ``ctx``,
      the translator's empty-environment context, uses as its own
      (``Translator.translate_closed_expr``);
    * ``types``: the type side table of target subterms under the target
      declarations, kept apart from the source one;
    * ``normal``: target subterms that hold no dictionary-resolution redex;
    * ``settled``: target subterm -> its settled form, and settled form ->
      itself.

    A step leaves the subterms off its spine in place, so it adds entries
    only for the nodes it creates. ``trim``, called once per step, clears
    all the tables together once their total size exceeds four times the
    size one step after the last clear (at least ``MEMO_MIN_ENTRIES``),
    which keeps them within a fixed multiple of the live terms.
    """

    def __init__(self):
        self.src_types: dict = {}
        self.trans: dict = {}
        self.ctx = Ctx({}, {}, {}, {}, types=self.src_types, trans=self.trans)
        self.types: dict = {}
        self.normal: dict = {}
        self.settled: dict = {}
        self.limit: int | None = None  # None: set by the next trim

    def tables(self) -> tuple:
        return (self.src_types, self.trans, self.types, self.normal, self.settled)

    def size(self) -> int:
        return sum(map(len, self.tables()))

    def trim(self) -> None:
        size = self.size()
        if self.limit is None:
            self.limit = max(MEMO_MIN_ENTRIES, 4 * size)
        elif size > self.limit:
            for table in self.tables():
                table.clear()
            self.limit = None


def settle(e: Expr, decls: Decls, memo: RunMemo | None = None) -> Expr:
    """Discharge pending erasure asserts over values: an erase-tagged
    ``v.(t)`` with ``vtype(v) <: t`` contracts to ``v``.

    The lockstep target and the freshly translated source state can differ
    by exactly these asserts (the target consumes them as soon as they are
    the next standard redex, a fresh translation re-inserts them), so state
    comparison runs on settled forms. Only succeeding asserts are
    discharged: a failing one stays put and surfaces as a divergence. A
    term with nothing to discharge comes back as the same object.
    ``memo.settled`` gives the settled form of every subterm settled so
    far, and settling does not descend into them; without a memo a fresh
    table serves this call.
    """
    done = {} if memo is None else memo.settled

    def settled(e, kids):
        hit = done.get(id(e))
        if hit is not None:
            return hit[1]
        if not kids:
            return e
        out = e
        if any(k is not s for k, s in zip(kids, subexprs(e))):
            out = rebuild(e, kids)
        while (
            isinstance(out, TypeAssert)
            and out.origin == "erase"
            and is_value(out.recv)
            and isinstance(out.type, TypeApp)
            and fg_subtype(vtype(out.recv).name, out.type.name, decls)
        ):
            out = out.recv
        done[id(e)] = (e, out)
        done[id(out)] = (out, out)
        return out

    return fold(e, settled, lambda n: () if id(n) in done else subexprs(n))


DEFAULT_NORMALIZE_BOUND = 10_000


def _first_redex(e: Expr, decls: Decls, info: TransInfo, memo: RunMemo):
    """The path of the first dictionary-resolution redex of ``e`` in
    preorder, or None. Subterms in ``memo.normal`` are skipped, and every
    subterm scanned whole without a redex is added to it."""
    normal, types = memo.normal, memo.types
    spine, path = [], []  # the kids of each node above ``node``, and its index there
    node = e
    while True:
        if id(node) not in normal:
            if _dict_contract(node, decls, info, types) is not None:
                return tuple(path)
            kids = subexprs(node)
            if kids:
                spine.append((node, kids))
                path.append(0)
                node = kids[0]
                continue
        # ``node`` holds no redex: go on to its next sibling, or up
        while spine:
            parent, kids = spine[-1]
            i = path[-1] + 1
            if i < len(kids):
                path[-1] = i
                node = kids[i]
                break
            spine.pop()
            path.pop()
            normal[id(parent)] = parent
        else:
            return None


def dict_normalize(
    e: Expr,
    decls: Decls,
    info: TransInfo,
    bound: int = DEFAULT_NORMALIZE_BOUND,
    memo: RunMemo | None = None,
):
    """Exhaust dictionary resolution, leftmost-outermost first; returns
    (normal form, steps taken). By confluence the normal form is unique;
    the bound guards against a harness or translator bug and raises
    NormalizeOverflow on overflow.

    Each step contracts the first redex in preorder, which
    ``dict_redex_positions`` finds under the memo. The search skips the
    subterms ``memo.normal`` knows to hold no redex and records those it
    scans whole, so after a contraction only the rebuilt spine and the
    contractum are scanned again; ``memo.types`` types each assertion
    receiver once. A caller that normalises successive states of one run
    passes the same memo, and the subterms a step leaves in place are not
    scanned or typed again. Without a memo a fresh one serves this call."""
    memo = RunMemo() if memo is None else memo
    steps = 0
    while True:
        positions = dict_redex_positions(e, decls, info, memo=memo)
        if not positions:
            return e, steps
        e = contract_dict_at(e, positions[0], decls, info, memo.types)
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


def macro_step(d: Expr, decls: Decls) -> MacroOutcome:
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
        if classify(out.redex) != "erase":
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
        if classify(out.redex) != "sim":
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

    One ``RunMemo`` serves the whole run: re-translation, normalisation and
    settling each redo only the nodes the last step created, so the work
    per step follows the step's spine and contractum, not the term size.
    """
    translator = Translator(program)
    target = translator.translate_program()
    info = translator.info()
    tdecls = Decls(target)

    memo = RunMemo()
    e = program.main
    # target.main, translated under the run's context: the two sides then
    # share every subterm no step has touched, and compare by identity there
    t = translator.translate_closed_expr(e, memo.ctx)
    records = []

    def norm(x):
        nf, steps = dict_normalize(x, tdecls, info, normalize_bound, memo)
        return settle(nf, tdecls, memo), steps

    for i in range(max_steps):
        try:
            t_norm, dsteps = norm(t)
            e_trans, dsteps2 = norm(translator.translate_closed_expr(e, memo.ctx))
        except NormalizeOverflow as ov:
            return CorrespondenceReport(
                tuple(records), Terminal("budget", False, "normalization overflow: %s" % ov)
            )
        memo.trim()
        matched = t_norm == e_trans
        mismatch = (
            ""
            if matched
            else "index %d:\n  source (translated): %s\n  target:              %s"
            % (i, show_expr(e_trans), show_expr(t_norm))
        )

        src = fgg_step(e, translator.decls)
        if isinstance(src, Value):
            agree = matched and is_value(t_norm)
            return CorrespondenceReport(
                tuple(records),
                Terminal("value", agree, show_expr(t_norm) if agree else mismatch),
                mismatch,
            )
        if isinstance(src, PanicOutcome):
            tgt = macro_step(t_norm, tdecls)
            agree = matched and tgt.kind == "panic"
            detail = src.message if agree else "target did not panic: %s" % tgt.kind
            return CorrespondenceReport(
                tuple(records), Terminal("panic", agree, detail), mismatch
            )
        if isinstance(src, Stuck):
            raise RuntimeError("source stuck: %s" % src.reason)

        tgt = macro_step(t_norm, tdecls)
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
