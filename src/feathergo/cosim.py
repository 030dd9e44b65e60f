"""Co-simulation of an FGG run against its dictionary-translated FG run.

The harness implements, as executable artifacts:

* redex classification into erase / sim / dict / ordinary by the origin
  tags the translator leaves on generated nodes (untagged is ordinary);
* the macro step: exhaust erasure asserts, take one ordinary step, exhaust
  assertion-simulation steps -- one macro step corresponds to one source
  step;
* dictionary resolution: pre-congruence contraction of the plumbing the
  translator tagged (dictionary field lookups, applicator calls and
  dictionary self-asserts, and simulation field lookups), each contracted
  as the machine contracts it, plus assertion refinement (replace an
  asserted type by the expression's strictly more precise static type),
  applied to a fixpoint under a step bound -- the relation is confluent,
  so the normal form is unique;
* the correspondence check: run source and target in lockstep and verify at
  every index that the target state and the freshly translated source state
  have the same dictionary-resolution normal form, with agreeing terminals
  (value with translated-value equality, panic, or budget on both sides).
  Both sides step on ``reduce``'s refocusing machine and keep their
  evaluation contexts across steps, so each stage works on the hole a step
  plugged and the frames it reopens, not on the whole term. The target is
  ``Translator.translate_decls`` and ``main`` translated once, under the
  run's context; that translation is also the target's start state.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field

from .dicttrans import Ctx, Translator
from .reduce import (
    PanicOutcome,
    Stuck,
    Value,
    _contract,
    _descend,
    _resume,
    is_value,
)
from .syntax import (
    _HEAD,
    Expr,
    FieldSel,
    If,
    MethodCall,
    Panic,
    Program,
    Seq,
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


def _type_of(e: Expr, decls: Decls, types: dict):
    """The type of closed ``e``, or None if it does not type."""
    try:
        return fgg_typecheck_expr(e, {}, {}, decls, types=types)
    except CheckError:
        return None


def _refinable(e: Expr, decls: Decls) -> bool:
    """Whether ``e`` is an assert its receiver's type could refine: one to
    an interface (a struct type, int and bool included, has no proper
    subtype), so no other receiver is typed."""
    return type(e) is TypeAssert and isinstance(e.type, TypeApp) and decls.kind_of(e.type.name) == "interface"


def _dict_contract(e: Expr, decls: Decls, types: dict):
    """One dictionary-resolution contraction at this node, or None.

    The origin tag alone says what is plumbing. The redexes are the
    "dict"-tagged nodes (dictionary field selects, applicator calls and
    dictionary self-asserts) and the "sim"-tagged field selects, once
    their receiver is a value, and each contracts as the machine contracts
    it (``reduce._contract``); a contraction the machine would not step is
    no redex, so resolution never panics. The other subexpressions need
    not be values: an applicator call substitutes its (possibly
    unevaluated) arguments linearly. Assertion refinement only strengthens
    an assert to the expression's own static type. ``types`` is the side
    table of closed subterm types (see ``fgg_typecheck_expr``).
    """
    t = type(e)
    if t is not FieldSel and t is not MethodCall and t is not TypeAssert:
        return None
    o = e.origin
    if (o == "dict" or o == "sim" and t is FieldSel) and is_value(e.recv):
        out = _contract(e, decls, False)
        if type(out) is tuple:
            return out[0]
    # assertion refinement: |- recv : u and u <: t strictly
    if not _refinable(e, decls):
        return None
    u = _type_of(e.recv, decls, types)
    if isinstance(u, TypeApp) and u.name != e.type.name and fg_subtype(u.name, e.type.name, decls):
        return TypeAssert(e.recv, TypeApp(u.name), origin=e.origin)
    return None


MEMO_MIN_ENTRIES = 4096


class RunMemo:
    """The tables one correspondence check carries from step to step.

    Every table is keyed by ``id(node)`` (``pairs`` by a pair of them) and
    holds its node, so no id is reused while an entry lives; none is keyed
    by the expression, whose generated hash costs its size.

    * ``src_types`` and ``trans``: the source type side table and the
      translation of every source subterm translated so far, which ``ctx``,
      the translator's empty-environment context, uses as its own
      (``Translator.translate_closed_expr``);
    * ``types``: the type side table of target subterms under the target
      declarations, kept apart from the source one;
    * ``normal``: target subterms that hold no dictionary-resolution redex;
    * ``settled``: target subterm -> its settled form, and settled form ->
      itself;
    * ``pairs``: pairs of target subterms the state comparison found equal.

    A step adds entries only for the nodes it creates. ``trim``, called
    once per step, clears all the tables together once their total size
    exceeds four times the size one step after the last clear (at least
    ``MEMO_MIN_ENTRIES``), which keeps them within a fixed multiple of the
    live terms.
    """

    def __init__(self):
        self.src_types: dict = {}
        self.trans: dict = {}
        self.ctx = Ctx({}, {}, {}, types=self.src_types, trans=self.trans)
        self.types: dict = {}
        self.normal: dict = {}
        self.settled: dict = {}
        self.pairs: dict = {}
        self.limit: int | None = None  # None: set by the next trim

    def tables(self) -> tuple:
        return (self.src_types, self.trans, self.types, self.normal, self.settled, self.pairs)

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


def settle(e: Expr, decls: Decls, memo: RunMemo) -> Expr:
    """Discharge pending erasure asserts over values: an erase-tagged
    ``v.(t)`` contracts to ``v`` where the machine's r-assert steps it
    (``reduce._contract``).

    The lockstep target and the freshly translated source state can differ
    by exactly these asserts (the target consumes them as soon as they are
    the next standard redex, a fresh translation re-inserts them), so state
    comparison runs on settled forms. Only succeeding asserts are
    discharged: a failing one stays put and surfaces as a divergence. A
    term with nothing to discharge comes back as the same object.
    ``memo.settled`` gives the settled form of every subterm settled so
    far, and settling does not descend into them.
    """
    done = memo.settled

    def settled(e, kids):
        hit = done.get(id(e))
        if hit is not None:
            return hit[1]
        if not kids:
            return e
        out = e
        if any(k is not s for k, s in zip(kids, subexprs(e))):
            out = rebuild(e, kids)
        while type(out) is TypeAssert and out.origin == "erase" and is_value(out.recv):
            step = _contract(out, decls, False)
            if type(step) is not tuple:
                break
            out = step[0]
        done[id(e)] = (e, out)
        done[id(out)] = (out, out)
        return out

    return fold(e, settled, lambda n: () if id(n) in done else subexprs(n))


DEFAULT_NORMALIZE_BOUND = 10_000


def _first_redex(e: Expr, decls: Decls, memo: RunMemo):
    """The first dictionary-resolution redex of ``e`` in preorder, as the
    pair ``(spine, contractum)``: the frames above it, as ``syntax.plug``
    takes them, and what it contracts to; None if there is none. Subterms
    in ``memo.normal`` are skipped, and every subterm scanned whole without
    a redex is added to it."""
    normal, types = memo.normal, memo.types
    spine, path = [], []  # the kids of each node above ``node``, and its index there
    node = e
    while True:
        if id(node) not in normal:
            out = _dict_contract(node, decls, types)
            if out is not None:
                return [(n, kids, i) for (n, kids), i in zip(spine, path)], out
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


def dict_redex_positions(e: Expr, decls: Decls, memo: RunMemo):
    """The scan ``dict_normalize`` makes per step (``_first_redex``), under
    a name of its own so that a profile counts these scans apart from the
    frame checks'."""
    return _first_redex(e, decls, memo)


def contract_dict_at(redex) -> Expr:
    """The scanned term with the ``redex`` found in it contracted."""
    spine, contractum = redex
    return plug(spine, contractum)


def dict_normalize(e: Expr, decls: Decls, memo: RunMemo, cut: Cut | None = None):
    """Exhaust dictionary resolution, leftmost-outermost first; returns
    (normal form, steps taken). By confluence the normal form is unique;
    the module's ``DEFAULT_NORMALIZE_BOUND`` bounds the steps against a
    harness or translator bug, and NormalizeOverflow is raised past it.

    Each step contracts the first redex in preorder, which
    ``dict_redex_positions`` finds. The search skips the subterms
    ``memo.normal`` knows to hold no redex and records those it scans
    whole, so after a contraction only the rebuilt spine and the
    contractum are scanned again; ``memo.types`` types each assertion
    receiver once. A caller that normalises successive states of one run
    passes the same memo, and the subterms a step leaves in place are not
    scanned or typed again.

    With a ``cut``, ``e`` is the hole of the checked frames above it, and
    before each scan the cut reopens the frames that may read ``e``
    differently now (``Cut.widen``), so the redexes are met in the order a
    scan of the whole term meets them."""
    steps = 0
    while True:
        if steps > DEFAULT_NORMALIZE_BOUND:
            raise NormalizeOverflow("no normal form within %d steps" % DEFAULT_NORMALIZE_BOUND)
        if cut is not None:
            e = cut.widen(e)
        redex = dict_redex_positions(e, decls, memo)
        if redex is None:
            return e, steps
        e = contract_dict_at(redex)
        steps += 1


# ---------------------------------------------------------------------------
# Both sides as zippers
#
# A check keeps each side's state as a machine context (``reduce``'s spine
# of ``(node, kids, i)`` frames, root first) and its focus, and carries the
# frames from step to step. A stage (re-translation, dictionary resolution,
# settling, the comparison, the macro step) works on the hole at the cut
# and on the frames it reopens, never on the whole spine.


def _passes_type(node: Expr, i: int) -> bool:
    """Whether a frame's node has a type that follows its content's: a call
    or a select on it."""
    return i == 0 and (type(node) is MethodCall or type(node) is FieldSel)


class Zipper:
    """A target-side state: the machine context ``frames`` and its
    ``focus``, plus what the check knows of the frames.

    * The first ``len(ctypes)`` frames are checked: each holds no
      resolution redex and no dischargeable assert, its other
      subexpressions are values or normal and settled, and it stays so
      while its content is a non-value whose type, if ``ctypes[j]`` is not
      None, is ``ctypes[j]``. That is recorded where the frame, or a frame
      above through calls and selects on their content, is an assert the
      content's type could refine; elsewhere the frames above do not read
      the type.
    * ``fresh``: the number of leading frames unchanged since the last
      refocus, so that ``frames[j][1][i]`` is still frame ``j``'s content
      there, for checking it later.
    * ``kept``: the number of leading frames unchanged since the last
      comparison.
    """

    def __init__(self, e: Expr):
        self.frames: list = []
        self.focus = e
        self.ctypes: list = []
        self.fresh = self.kept = 0

    def term(self) -> Expr:
        return plug(self.frames, self.focus)

    def moved(self, focus: Expr, low: int) -> None:
        """The machine left the first ``low`` frames in place."""
        self.focus = focus
        del self.ctypes[low:]
        self.fresh, self.kept = min(self.fresh, low), min(self.kept, low)


def _check_frames(z: Zipper, upto: int, decls: Decls, memo: RunMemo) -> None:
    """Check ``z``'s frames below ``len(z.ctypes)`` up to ``upto``, up to the
    first that does not pass."""
    frames, ctypes = z.frames, z.ctypes
    for j in range(len(ctypes), min(upto, z.fresh)):
        node, kids, i = frames[j]
        if any(a is not b for a, b in zip(kids, subexprs(node))):
            node = rebuild(node, kids)  # a frame the machine moved to the next sibling
        if _dict_contract(node, decls, memo.types) is not None:
            return
        for k in kids[i + 1:]:
            if _first_redex(k, decls, memo) is not None or settle(k, decls, memo) is not k:
                return
        t = None
        if _refinable(node, decls) or _passes_type(node, i) and j and ctypes[j - 1] is not None:
            t = _type_of(kids[i], decls, memo.types)
            if t is None:
                return
        ctypes.append(t)


class Cut:
    """Where the checked frames of zipper ``z`` end and the hole a stage
    works on begins: ``z.frames[:c]`` stay, and ``c`` moves up only to a
    position in ``bounds`` (every position when None)."""

    def __init__(self, z: Zipper, c: int, decls: Decls, memo: RunMemo, bounds=None):
        self.z, self.c, self.decls, self.memo, self.bounds = z, c, decls, memo, bounds

    def pop(self, e: Expr) -> Expr:
        """Reopen the frames just above the cut: ``e`` plugged into them."""
        c = self.c
        self.c = c - 1 if self.bounds is None else self.bounds[bisect_left(self.bounds, c) - 1]
        return plug(self.z.frames[self.c:c], e)

    def widen(self, e: Expr) -> Expr:
        """``e`` grown until the frames above read it as when they were
        checked: a non-value of the recorded type. Then none of them holds
        a redex, and a scan of the whole term meets its first redex in
        ``e``."""
        while self.c:
            t = self.z.ctypes[self.c - 1]
            if not is_value(e) and (t is None or _type_of(e, self.decls, self.memo.types) == t):
                break
            e = self.pop(e)
        return e


def _settle_into(z: Zipper, cut: Cut, e: Expr, decls: Decls, memo: RunMemo) -> int:
    """Settle ``e``, the normal form at ``cut``, and refocus ``z`` on the
    result; returns the number of leading frames left in place. A
    settled value reopens the frame above, whose node may then settle."""
    e = settle(e, decls, memo)
    while cut.c and is_value(e):
        e = settle(cut.pop(e), decls, memo)
    del z.frames[cut.c:], z.ctypes[cut.c:]
    z.focus, low = _resume(e, z.frames)
    del z.ctypes[low:]
    z.fresh, z.kept = len(z.frames), min(z.kept, low)
    return low


def target_normal_form(z: Zipper, decls: Decls, memo: RunMemo) -> int:
    """Bring the target state ``z`` to its settled resolution normal form;
    returns the resolution steps taken. Works on the hole below the checked
    frames and on the frames it reopens."""
    _check_frames(z, len(z.frames), decls, memo)
    cut = Cut(z, len(z.ctypes), decls, memo)
    e, steps = dict_normalize(plug(z.frames[cut.c:], z.focus), decls, memo, cut)
    _settle_into(z, cut, e, decls, memo)
    return steps


class Source:
    """The source side: the machine context ``frames`` of the source state
    and its ``focus``, and ``out``, the settled resolution normal form of
    its translation.

    The first ``len(stypes)`` source frames are certified: source frame
    ``j`` translates, resolves and settles to ``out.frames[align[j]:
    align[j + 1]]`` while its content has source type ``stypes[j]`` (None
    where its translation does not read it: only a call or a select on
    the content does). ``low``: the number of leading source frames
    unchanged since the last stage."""

    def __init__(self, translator: Translator, e: Expr):
        self.translator = translator
        self.frames: list = []
        self.focus = _descend(e, self.frames)
        self.low = 0
        self.out = Zipper(None)
        self.stypes, self.align = [], [0]

    def step(self, e: Expr) -> None:
        """Put the contractum ``e`` in place of the focus."""
        self.focus, low = _resume(e, self.frames)
        self.low = min(self.low, low)

    def keep(self, k: int) -> None:
        """Keep the first ``k`` source frames certified."""
        del self.stypes[k:], self.align[k + 1:]


def source_normal_form(src: Source, decls: Decls, memo: RunMemo) -> None:
    """Bring ``src.out`` to the settled resolution normal form of the
    source state's translation. Translates only the hole below the
    certified frames whose content kept its type, and the frames the
    resolution reopens."""
    frames, sdecls = src.frames, src.translator.decls
    n, c = len(frames), min(src.low, len(src.stypes))
    built = [src.focus]  # built[n - j]: frame j's node with the current content plugged in
    for f in reversed(frames[c:]):
        built.append(plug((f,), built[-1]))
    while c and src.stypes[c - 1] is not None:
        if _type_of(built[-1], sdecls, memo.src_types) == src.stypes[c - 1]:
            break
        c -= 1
        built.append(plug((frames[c],), built[-1]))
    src.keep(c)
    cut = Cut(src.out, src.align[c], decls, memo, src.align)
    e = src.translator.translate_closed_expr(built[-1], memo.ctx)
    e = dict_normalize(e, decls, memo, cut)[0]
    low = _settle_into(src.out, cut, e, decls, memo)
    src.keep(bisect_right(src.align, low) - 1)
    _certify(src, built, decls, memo)
    src.low = n


def _hole_frames(t: Expr, h: Expr):
    """The frames from ``t`` down to its one occurrence of ``h`` within two
    levels, or None."""
    found = []
    kids = subexprs(t)
    for p, k in enumerate(kids):
        if k is h:
            found.append([(t, kids, p)])
        else:
            kk = subexprs(k)
            found += [[(t, kids, p), (k, kk, q)] for q, g in enumerate(kk) if g is h]
    return found[0] if len(found) == 1 else None


def _same_head(f, g) -> bool:
    """Whether frames ``f`` and ``g`` have the same class, hole index,
    number of subexpressions and head."""
    (x, kx, i), (y, ky, j) = f, g
    head = _HEAD.get(type(x))
    return i == j and type(x) is type(y) and len(kx) == len(ky) and not (head and head(x) != head(y))


def _frames_match(raw, frames, decls: Decls, memo: RunMemo) -> bool:
    """Whether resolving and settling the subexpressions of the ``raw``
    frames one by one gives ``frames``. Those of an ``if`` or a sequence
    must be normal and settled already, as its type follows its
    branches."""
    for a, b in zip(raw, frames):
        if not _same_head(a, b) or getattr(a[0], "origin", None) != getattr(b[0], "origin", None):
            return False
        rn, rk, ri = a
        for q, (r, f) in enumerate(zip(rk, b[1])):
            if q != ri:
                s = settle(dict_normalize(r, decls, memo)[0], decls, memo)
                if s is not f and s != f or s is not r and type(rn) in (If, Seq):
                    return False
    return True


def _certify(src: Source, built: list, decls: Decls, memo: RunMemo) -> None:
    """Certify the source frames below the certified ones, top down, while
    each one's translation lands on the frames of ``src.out`` there."""
    frames, out = src.frames, src.out
    n = len(frames)
    while len(built) < n - len(src.stypes) + 1:
        built.append(plug((frames[n - len(built)],), built[-1]))
    ctx = memo.ctx
    pos = src.align[-1]
    for j in range(len(src.stypes), n):
        raw = _hole_frames(
            src.translator.translate_expr(built[n - j], ctx),
            src.translator.translate_expr(built[n - j - 1], ctx),
        )
        if raw is None:
            return
        _check_frames(out, pos + len(raw), decls, memo)
        if len(out.ctypes) < pos + len(raw):
            return
        if not _frames_match(raw, out.frames[pos:pos + len(raw)], decls, memo):
            return
        t = None
        if _passes_type(frames[j][0], frames[j][2]):
            t = _type_of(built[n - j - 1], src.translator.decls, memo.src_types)
            if t is None:
                return
        pos += len(raw)
        src.stypes.append(t)
        src.align.append(pos)


def _same(a: Expr, b: Expr, pairs: dict) -> bool:
    """``a == b``, skipping the node pairs in ``pairs`` and adding to it
    every pair found equal."""
    todo, seen = [(a, b)], []
    while todo:
        x, y = todo.pop()
        if x is y or (id(x), id(y)) in pairs:
            continue
        kx, ky, head = subexprs(x), subexprs(y), _HEAD.get(type(x))
        if type(x) is not type(y) or len(kx) != len(ky) or head and head(x) != head(y):
            return False
        seen.append((x, y))
        todo += zip(kx, ky)
    for x, y in seen:
        pairs[(id(x), id(y))] = (x, y)
    return True


def _same_frame(f, g, pairs: dict) -> bool:
    return _same_head(f, g) and all(k == f[2] or _same(a, b, pairs) for k, (a, b) in enumerate(zip(f[1], g[1])))


def _same_state(a: Zipper, b: Zipper, pairs: dict, known: int):
    """Whether ``a`` and ``b`` hold equal terms, origin tags aside, and the
    number of leading frames they agree on. Equal terms have equal machine
    contexts and foci, so they compare frame by frame; the first ``known``
    frames agreed at the last comparison, and those neither side has
    changed since are not compared again."""
    fa, fb = a.frames, b.frames
    k = min(known, a.kept, b.kept)
    n = min(len(fa), len(fb))
    while k < n and _same_frame(fa[k], fb[k], pairs):
        k += 1
    a.kept, b.kept = len(fa), len(fb)
    return k == len(fa) == len(fb) and _same(a.focus, b.focus, pairs), k


# ---------------------------------------------------------------------------
# The macro step


@dataclass(frozen=True)
class MacroOutcome:
    kind: str  # "stepped" | "panic" | "value"
    expr: Expr | None
    erase_steps: int
    mid_rule: str | None
    sim_steps: int
    low: int = field(default=0, compare=False)  # the leading frames left in place


def macro_step(d: Expr, decls: Decls, frames: list) -> MacroOutcome:
    """One target macro step: erase-asserts, one ordinary step, then all
    enabled simulation steps. Panics surface as a panic outcome (the
    simulated assertion error); the result has no enabled sim redex.

    It runs on the refocusing machine and reads each focus's origin tag
    before contracting it: a focus that is neither a simulation step nor
    an assertion (or ``panic``) ends the macro step uncontracted. ``d`` is
    the focus of the machine context ``frames``, which the step advances
    in place: the outcome's ``expr`` is the new focus, and ``low`` the
    number of leading frames it left in place."""
    low = len(frames)

    def advance(e):
        nonlocal low
        e, k = _resume(e, frames)
        low = min(low, k)
        return e

    erase_steps = 0
    while True:
        out = _contract(d, decls, False)
        t = type(out)
        if t is Value:
            return MacroOutcome("value", d, erase_steps, None, 0, low=low)
        if t is PanicOutcome:
            return MacroOutcome("panic", None, erase_steps, None, 0, low=low)
        if t is Stuck:
            raise RuntimeError("target stuck: %s" % out.reason)
        if classify(d) != "erase":
            break
        d = advance(out[0])
        erase_steps += 1
    # the single ordinary step
    mid_rule = out[1]
    d = advance(out[0])
    sim_steps = 0
    while True:
        sim = classify(d) == "sim"
        if not sim and type(d) is not TypeAssert and type(d) is not Panic:
            break
        out = _contract(d, decls, False)
        t = type(out)
        if t is PanicOutcome:
            return MacroOutcome("panic", None, erase_steps, mid_rule, sim_steps, low=low)
        if t is Stuck:
            raise RuntimeError("target stuck: %s" % out.reason)
        if not sim:
            break
        d = advance(out[0])
        sim_steps += 1
    return MacroOutcome("stepped", d, erase_steps, mid_rule, sim_steps, low=low)


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

    as_dict = asdict


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


def check_correspondence(program: Program, max_steps: int = 500) -> CorrespondenceReport:
    """Run the FGG program and its dictionary translation in lockstep.

    At every index the dictionary-resolution normal forms of the target
    state and of the freshly translated source state must agree; terminally
    both sides must agree on value (up to value translation), panic, or
    budget exhaustion.

    Both sides step on the refocusing machine and keep their evaluation
    contexts as zippers across steps (``Zipper``, ``Source``).
    Re-translation, resolution, settling and the comparison work on the
    hole below the frames a step left in place and on the frames it
    reopens, and one ``RunMemo`` carries what they found from step to
    step, so the work per step follows the step, not the term's depth.
    """
    translator = Translator(program)
    memo = RunMemo()
    decls = tuple(translator.translate_decls())
    # the target's main, translated once under the run's context: the two
    # sides then share every subterm no step has touched, and compare by
    # identity there
    main = translator.translate_closed_expr(program.main, memo.ctx)
    tdecls = Decls(Program(decls, main))
    tgt, src = Zipper(main), Source(translator, program.main)
    records, mismatch = [], ""  # the first index's mismatch text
    agreed = 0  # leading frames the sides agreed on at the last comparison
    for i in range(max_steps):
        try:
            dsteps = target_normal_form(tgt, tdecls, memo)
            source_normal_form(src, tdecls, memo)
        except NormalizeOverflow as ov:
            terminal = Terminal("budget", False, "normalization overflow: %s" % ov)
            break
        memo.trim()
        matched, agreed = _same_state(tgt, src.out, memo.pairs, agreed)
        here = (
            ""
            if matched
            else "index %d:\n  source (translated): %s\n  target:              %s"
            % (i, show_expr(src.out.term()), show_expr(tgt.term()))
        )
        mismatch = mismatch or here

        step = _contract(src.focus, translator.decls, True)
        if isinstance(step, Value):
            agree = matched and not tgt.frames and is_value(tgt.focus)
            terminal = Terminal("value", agree, show_expr(tgt.term()) if agree else here)
            break
        if isinstance(step, Stuck):
            raise RuntimeError("source stuck: %s" % step.reason)
        m = macro_step(tgt.focus, tdecls, tgt.frames)
        if isinstance(step, PanicOutcome):
            agree = matched and m.kind == "panic"
            terminal = Terminal("panic", agree, step.message if agree else here or "target did not panic: %s" % m.kind)
            break
        contractum, rule = step
        records.append(StepRecord(i, rule, m.erase_steps, m.mid_rule, m.sim_steps, dsteps, matched))
        if m.kind != "stepped":
            terminal = Terminal(m.kind, False, "target reached %s while source stepped" % m.kind)
            break
        tgt.moved(m.expr, m.low)
        src.step(contractum)
    else:
        terminal = Terminal("budget", True, "both sides exceeded %d steps" % max_steps)
    return CorrespondenceReport(tuple(records), terminal, mismatch)
