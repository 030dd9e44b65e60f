"""Small-step call-by-value interpreters for FG(-extended) and FGG.

Evaluation is deterministic, and one rule gives every evaluation context: a
term's strict subexpressions are all of ``syntax.subexprs`` (a call's
receiver before its arguments), except that ``if`` and sequencing have only
their first, and the context descends into the leftmost strict
subexpression that is not a value. Where all of them are values, that
subterm, the focus, contracts in place.

``run`` drives a refocusing machine. It keeps the evaluation context as a
spine of ``(node, kids, i)`` frames from the root down, the hole being
``kids[i]`` of the last frame, and contracts at the focus, a ``(node,
kids)`` pair. Then it resumes at the hole, not at the root:

* a contractum that is not a value is descended into;
* a value fills the hole, and the machine moves on to the next strict
  sibling that is not a value;
* when no such sibling is left, the frame's node with the filled kids is
  the focus, not rebuilt (Danvy & Nielsen's refocus-then-fuse, BRICS
  RS-04-26), or the machine climbs on if that node is a struct literal.

Climbing out of a subterm shows that it is a value, so only siblings not yet
visited are tested for value-ness. A step costs work in what it changed, not
in the depth of the hole; the whole term is built only as the final value,
and a redex only for a ``trace`` callback. One step of the machine,
``_step``, serves ``run`` (traced or not) and co-simulation, whose macro
step and source side step on it too; it tells how many frames a step left
in place and whether the focus is stale. Every loop runs over the explicit
spine, so term depth is not bounded by the recursion limit. The stepper
holds no global state; distinct runs are independent.

r-call substitutes the receiver, arguments and type actuals into the
method's body through the body's template (``compile_body``): compiled once
per program, at the method's first call, and kept in the program's
``Decls``. It rebuilds only the nodes above a variable or type parameter
and shares every other subterm, so a call costs work in the nodes that hold
a hole, not a traversal of the body. Method bodies bind nothing, so the
substitution is capture-free without renaming.

The machine's r-call does not resume at the hole either: it lands on the
body's focus by the template's refocus path, the frames from the body's
root to its first focus, which refocusing the body (Danvy & Nielsen) finds
once per method instead of once per call. The path is fixed because
evaluation is call-by-value: r-call fires only once the receiver and the
arguments are values, so which of the body's subterms are values is known
when the template is compiled. It would not hold for unevaluated
arguments, and dictionary resolution substitutes an applicator's arguments
unevaluated, so resolution, like the tests' one-shot steppers, takes
``_contract``'s plain contractum, built by the same instantiation.

Outcomes:

* a step -- contracting the focus gives the plain pair ``(contractum,
  rule)``, and a machine step the pair ``(rule, state)``: ``rule`` names
  the contraction (r-fields, r-call, r-assert, r-ext-*) and the redex is
  the focus the caller holds, so a step builds no outcome object.
* ``Value(value)`` -- the term is a value; no rule fires.
* ``PanicOutcome`` -- a type assertion failed (or explicit ``panic``); once
  raised, a run halts immediately.
* ``Stuck`` -- no rule applies; never happens on typechecked input.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .syntax import (
    BOOL,
    INT,
    Binop,
    BoolLit,
    Expr,
    FieldSel,
    If,
    IntLit,
    MethodCall,
    MethodDecl,
    Neq,
    Panic,
    Program,
    Seq,
    StructLit,
    Type,
    TypeApp,
    TypeAssert,
    TypeParam,
    Var,
    fold,
    print_expr,
    print_type,
    rebuild,
    subexprs,
    walk,
)
from .typecheck import Decls, fg_subtype, fgg_subtype, kept_decls, subst_type


@dataclass(frozen=True)
class Value:
    value: Expr


@dataclass(frozen=True)
class PanicOutcome:
    value_type: Type | None
    target: Type | None
    message: str


@dataclass(frozen=True)
class Stuck:
    reason: str


_VALUE_HEADS = (StructLit, IntLit, BoolLit)  # a value's heads; a focus with one is a value


def is_value(e: Expr) -> bool:
    if type(e) is not StructLit or not e.args:
        return type(e) in _VALUE_HEADS
    todo = [*e.args]
    while todo:
        t = type(e := todo.pop())
        if t is StructLit:
            todo += e.args
        elif t is not IntLit and t is not BoolLit:
            return False
    return True


def vtype(v: Expr) -> TypeApp:
    t = type(v)
    if t is StructLit:
        return v.type
    if t is IntLit:
        return INT
    if t is BoolLit:
        return BOOL
    raise ValueError("vtype of non-value %r" % (v,))


def _mentions(t: Type, names) -> bool:
    """Whether type ``t`` mentions a type parameter in ``names``."""
    return any(type(n) is TypeParam and n.name in names for n in walk(t))


def _types(e: Expr) -> tuple:
    """The types ``e`` carries (see ``rebuild``)."""
    t = type(e)
    if t is MethodCall:
        return e.targs
    if t is StructLit or t is TypeAssert:
        return (e.type,)
    return ()


def _getter(ix):
    """regs -> the tuple of ``regs[i]`` for ``i`` in ``ix``."""
    if len(ix) > 1:
        return itemgetter(*ix)
    if ix:
        (i,) = ix
        return lambda regs: (regs[i],)
    return lambda regs: ()


def _op(n: Expr, ix: list, typed: bool):
    """The closure that builds ``n`` anew: it reads ``n``'s subexpressions
    from registers ``ix``, substitutes its types when ``typed`` and appends
    the node to the registers. ``rebuild`` specialised by class: a closure
    over ``rebuild`` made omega's steps about 20% slower."""
    t, o = type(n), getattr(n, "origin", None)
    if t is MethodCall:
        r, args, name, targs = ix[0], _getter(ix[1:]), n.name, n.targs
        if typed:
            return lambda regs, tm: regs.append(
                MethodCall(regs[r], name, tuple([subst_type(a, tm) for a in targs]), args(regs), origin=o)
            )
        return lambda regs, tm: regs.append(MethodCall(regs[r], name, targs, args(regs), origin=o))
    if t is FieldSel:
        r, fieldname = ix[0], n.fieldname
        return lambda regs, tm: regs.append(FieldSel(regs[r], fieldname, origin=o))
    if t is StructLit:
        args, st = _getter(ix), n.type
        if typed:
            return lambda regs, tm: regs.append(StructLit(subst_type(st, tm), args(regs)))
        return lambda regs, tm: regs.append(StructLit(st, args(regs)))
    if t is TypeAssert:
        r, at = ix[0], n.type
        if typed:
            return lambda regs, tm: regs.append(TypeAssert(regs[r], subst_type(at, tm), origin=o))
        return lambda regs, tm: regs.append(TypeAssert(regs[r], at, origin=o))
    if t is Binop:
        op, (a, b) = n.op, ix
        return lambda regs, tm: regs.append(Binop(op, regs[a], regs[b]))
    get = itemgetter(*ix)  # Neq, If, Seq: two or three subexpressions and a tag
    return lambda regs, tm: regs.append(t(*get(regs), origin=o))


class Template:
    """A method body compiled for r-call (``compile_body``).

    * ``arity``: the number of value parameters;
    * ``instantiate(kids, targs, rtype)``: the register list of one
      instantiation for a call's subexpressions ``kids``, the receiver
      then the arguments, whose entry ``out`` is the substituted body;
    * ``refocus(regs, spine)``: the machine's next state once the body in
      ``regs`` has replaced the call at the hole of ``spine``, as
      ``_resume`` of that body gives it;
    * ``static``: whether ``refocus`` reaches the focus by the body's
      refocus path alone, testing nothing."""

    __slots__ = ("arity", "instantiate", "out", "refocus", "static")

    def __init__(self, arity, instantiate, out, refocus, static):
        self.arity, self.instantiate, self.out, self.refocus, self.static = arity, instantiate, out, refocus, static

    def body(self, kids, targs, rtype):
        """The body with the receiver, value arguments and type actuals
        substituted: the plain contractum of r-call."""
        return self.instantiate(kids, targs, rtype)[self.out]


def compile_body(m: MethodDecl) -> Template:
    """The template of ``m``'s body: its substitution and its refocus path.

    Substitution. The holes are the ``Var``s the receiver or a value
    parameter binds (a parameter shadows a receiver of the same name) and
    the types that mention a type parameter of the receiver or the method.
    A subterm without a hole is the same object in every instantiation; a
    body without one is returned as it is. Each node above a hole becomes a
    closure (Feeley & Lapalme, "Using closures for code generation",
    1987), listed in post-order. An instantiation runs them over a register
    list that starts as ``[recv, *args, *consts]``, ``consts`` being the
    closed subterms they read: each reads its subexpressions from it and
    appends the node it builds. So it costs one call per open node, and no
    recursion, however deep the body. The type map is built only when some
    type holds a hole. Built through ``fold``, so iterative too.

    Refocus path. Under call-by-value r-call fires only once the receiver
    and the arguments are values, so which registers hold a value is known
    here: the argument slots do, a closed subterm does or does not once
    and for all, and a built node does if it is a struct literal over
    registers that do. So the path ``_descend`` would take through the
    instance is fixed: from the root, into the leftmost strict
    subexpression that is not a value, down to the focus. It is kept as
    ``(register, kids getter, hole index)`` frames, found by a loop, and
    ``refocus`` pushes them and lands on the focus without testing a
    node. It calls ``_descend`` only where the path ends at a closed
    subterm that is not a value, and ``_resume`` where the body has no hole
    or is a value. Dictionary resolution passes an applicator's arguments
    unevaluated, so the path does not hold there: it takes the plain
    ``body`` (``_contract``), never ``refocus``."""
    slots = {x: i for i, x in enumerate([m.recv_name, *[p.name for p in m.sig.params]])}
    tparams = {*m.recv_params, *[fp.name for fp in m.sig.tformal]}
    consts, opens = [], []  # closed subterms read by open nodes; the open nodes
    # fold's value at a node: the node itself if it holds no hole, else a
    # register (kind, i): argument slot (0), constant (1) or built node (2)

    def node(n, kids):
        if type(n) is Var:
            return n if n.name not in slots else (0, slots[n.name])
        typed = bool(tparams) and any(_mentions(t, tparams) for t in _types(n))
        if not typed and tuple not in map(type, kids):
            return n
        refs = []
        for k in kids:
            if type(k) is not tuple:
                consts.append(k)
                k = (1, len(consts) - 1)
            refs.append(k)
        opens.append((n, refs, typed))
        return (2, len(opens) - 1)

    root = fold(m.body, node)
    if type(root) is not tuple:  # no hole: the body is the only constant
        consts.append(root)
        root = (1, 0)
    k = 1 + len(m.sig.params)
    base = (0, k, k + len(consts))  # registers: [recv, *args, *consts, *built]
    kidregs = [[base[kind] + i for kind, i in refs] for _, refs, _ in opens]
    ops = [_op(n, ix, typed) for (n, _, typed), ix in zip(opens, kidregs)]
    out = base[root[0]] + root[1]
    typed_body = any(typed for _, _, typed in opens)
    rparams, tformal = m.recv_params, [fp.name for fp in m.sig.tformal]

    def instantiate(kids, targs, rtype):
        tm = None
        if typed_body:
            tm = dict(zip(rparams, (rtype or vtype(kids[0])).args))
            tm.update(zip(tformal, targs))
        regs = [*kids, *consts]
        for op in ops:
            op(regs, tm)
        return regs

    built = base[2]

    def holds_value(r):  # whether register r holds a value at every call
        if r < built:
            return r < k or is_value(consts[r - k])
        return value[r - built]

    value = []  # per built node, in post-order: a struct literal over registers that hold values
    for (n, _, _), ix in zip(opens, kidregs):
        value.append(type(n) is StructLit and all(map(holds_value, ix)))
    if out < built or value[out - built]:  # no hole, or a value: test from the root
        return Template(k - 1, instantiate, out, lambda regs, spine: _resume(regs[out], spine), False)
    path, r = [], out
    while r >= built:  # a built non-value: into its first strict kid that is not a value
        n, ix = opens[r - built][0], kidregs[r - built]
        for hole in range(1 if type(n) is If or type(n) is Seq else len(ix)):
            if not holds_value(ix[hole]):
                break
        else:
            break  # every strict kid holds a value: the focus
        path.append((r, _getter(ix), hole))
        r = ix[hole]
    kids = None if r < built else _getter(kidregs[r - built])
    return Template(k - 1, instantiate, out, _refocus(path, r, kids), kids is not None)


def _refocus(path: list, focus: int, kids):
    """``Template.refocus`` for a body whose refocus path is ``path``, as
    ``(register, kids getter, hole index)`` frames, and ends at register
    ``focus``: the focus, whose kids ``kids`` gets, or a closed non-value
    where ``kids`` is None, which ``_descend`` continues from."""

    def refocus(regs, spine):
        low = len(spine)
        for r, get, i in path:
            spine.append((regs[r], get(regs), i))
        if kids is None:
            return (*_descend(regs[focus], spine), low, False)
        return regs[focus], kids(regs), low, False

    return refocus


_BINOPS = {
    "<": lambda a, b: BoolLit(a < b),
    ">": lambda a, b: BoolLit(a > b),
    "+": lambda a, b: IntLit(a + b),
    "-": lambda a, b: IntLit(a - b),
}


def _template(e: MethodCall, rt: TypeApp, nargs: int, decls: Decls):
    """The template of the method ``e`` calls on a receiver of type ``rt``
    with ``nargs`` arguments, compiled at its first call and kept in
    ``decls.templates``; ``Stuck`` if there is no such method or the arity
    differs, checked at every call."""
    key = (rt.name, e.name)
    tpl = decls.templates.get(key)
    if tpl is None:
        m = decls.methods.get(key)
        if m is None:  # kept out of the table: stuck at every call
            return Stuck("no method %s on %s" % (e.name, print_type(rt)))
        tpl = decls.templates[key] = compile_body(m)
    if tpl.arity != nargs:
        return Stuck("arity mismatch calling %s" % e.name)
    return tpl


def _contract(e: Expr, kids: tuple, decls: Decls, generic: bool):
    """Head contraction of the redex ``e``, whose strict subexpressions are
    the values ``kids``, newer than ``e``'s own where ``e`` is stale: the
    pair ``(contractum, rule)`` for a step, else a ``Value``,
    ``PanicOutcome`` or ``Stuck``. r-call checks arity at every call."""
    t = type(e)
    if t is MethodCall:
        rt = vtype(kids[0])
        tpl = _template(e, rt, len(kids) - 1, decls)
        if type(tpl) is Stuck:
            return tpl
        return tpl.body(kids, e.targs, rt), "r-call"

    if t is FieldSel:
        v = kids[0]
        if type(v) is not StructLit:
            return Stuck("field select on %s" % print_expr(v))
        d = decls.structs.get(v.type.name)
        if d is None:
            return Stuck("unknown struct %s" % v.type.name)
        for i, f in enumerate(d.fields):
            if f.name == e.fieldname:
                return v.args[i], "r-fields"
        return Stuck("no field %s on %s" % (e.fieldname, v.type.name))

    if t is TypeAssert:
        v = kids[0]
        if generic:
            ok = fgg_subtype(vtype(v), e.type, {}, decls)
        else:
            ok = type(e.type) is TypeApp and fg_subtype(vtype(v).name, e.type.name, decls)
        if ok:
            return v, "r-assert"
        msg = "Unable to assert %s as type %s" % (print_type(vtype(v)), print_type(e.type))
        return PanicOutcome(vtype(v), e.type, msg)

    if t is Binop:
        if type(kids[0]) is not IntLit or type(kids[1]) is not IntLit:
            return Stuck("binop %s on non-int values" % e.op)
        return _BINOPS[e.op](kids[0].value, kids[1].value), "r-ext-binop"

    if t is Neq:
        return BoolLit(kids[0] != kids[1]), "r-ext-neq"

    if t is If:
        if type(kids[0]) is not BoolLit:
            return Stuck("if condition is not a bool")
        return kids[1 if kids[0].value else 2], "r-ext-if"

    if t is Seq:
        return kids[1], "r-ext-seq"

    if t is Panic:
        return PanicOutcome(None, None, "panic")

    if t is StructLit or t is IntLit or t is BoolLit:
        return Value(e)  # only at the root: the loop never descends into a value

    return Stuck("free variable %s" % e.name)  # subexprs rejects any class but Var here


def _descend(e: Expr, spine: list) -> tuple:
    """Push the evaluation context of ``e`` onto ``spine`` and return its
    focus and the focus's subexpressions: the leftmost innermost subterm
    that is not a value and whose strict subexpressions all are. A value
    ``e`` is its own focus, with nothing pushed."""
    while True:
        t = type(e)
        if t is IntLit or t is BoolLit:
            return e, ()
        kids = subexprs(e)
        for i in range(1 if t is If or t is Seq else len(kids)):
            if not is_value(kids[i]):
                spine.append((e, kids, i))
                e = kids[i]
                break
        else:
            return e, kids


def _resume(e: Expr, spine: list) -> tuple:
    """The next focus ``(node, kids)`` once ``e`` has replaced the focus at
    the hole of ``spine``'s last frame, the number of leading frames left in
    place, and whether ``node`` is stale: a refilled frame's node."""
    low = len(spine)
    e, kids = _descend(e, spine)
    if type(e) not in _VALUE_HEADS:
        return e, kids, low, False
    # a value pushed nothing, and the climb only pops: the frames left on
    # exit are those left in place
    while spine:
        node, kids, i = spine[-1]
        kids = (*kids[:i], e, *kids[i + 1:])
        for j in range(i + 1, 1 if type(node) is If or type(node) is Seq else len(kids)):
            if not is_value(kids[j]):
                spine[-1] = (node, kids, j)
                low = len(spine) - 1
                return (*_descend(kids[j], spine), low, False)
        spine.pop()
        if type(node) is not StructLit:
            return node, kids, len(spine), True
        e = StructLit(node.type, kids)
    return e, kids, len(spine), False


def _step(e: Expr, kids: tuple, spine: list, decls: Decls, generic: bool):
    """One step of the machine at the focus ``(e, kids)`` of ``spine``:
    ``(rule, (node, kids, low, stale))``, the rule that fired and the next
    state as ``_resume`` gives it, with ``spine`` advanced in place; else
    the ``Value``, ``PanicOutcome`` or ``Stuck`` of ``_contract``, with
    ``spine`` untouched. r-call lands on the body's focus by the body's
    refocus path (``compile_body``); every other rule contracts and
    resumes at the hole."""
    if type(e) is MethodCall:
        rt = vtype(kids[0])
        tpl = decls.templates.get((rt.name, e.name))
        if tpl is None or tpl.arity != len(kids) - 1:  # not compiled yet, or stuck: _template says which
            tpl = _template(e, rt, len(kids) - 1, decls)
            if type(tpl) is Stuck:
                return tpl
        return "r-call", tpl.refocus(tpl.instantiate(kids, e.targs, rt), spine)
    out = _contract(e, kids, decls, generic)
    if type(out) is not tuple:
        return out
    return out[1], _resume(out[0], spine)


DEFAULT_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class RunResult:
    kind: str  # "value" | "panic" | "budget_exhausted"
    steps: int
    value: Expr | None = None
    panic: PanicOutcome | None = None

    def describe(self) -> str:
        if self.kind == "value":
            return print_expr(self.value)
        if self.kind == "panic":
            return "panic: %s" % self.panic.message
        return "budget exhausted after %d steps" % self.steps


def run(program: Program, max_steps: int = DEFAULT_MAX_STEPS, lang: str = "fgg", trace=None) -> RunResult:
    """Run main's expression on the machine, one ``_step`` per step.

    ``lang`` selects the stepper, "fgg" or "fg"; any other raises
    ``ValueError``. ``trace`` is an optional callback invoked with (rule,
    redex) per step, a stale redex built for it alone. Never exceeds
    ``max_steps``; exhausting the budget signals possible divergence. A
    program already judged runs on its judgement's ``Decls``.
    """
    if lang not in ("fg", "fgg"):
        raise ValueError("lang must be 'fg' or 'fgg'")
    decls = kept_decls(program)
    generic = lang == "fgg"
    spine = []
    e, kids = _descend(program.main, spine)
    stale = False
    for steps in range(max_steps):
        out = _step(e, kids, spine, decls, generic)
        if type(out) is not tuple:
            break
        if trace is not None:
            trace(out[0], rebuild(e, kids) if stale else e)
        e, kids, _, stale = out[1]
    else:
        out = _contract(e, kids, decls, generic)  # the term is looked at, not stepped, before the budget
        if type(out) is tuple:
            return RunResult("budget_exhausted", max_steps)
        steps = max_steps
    if type(out) is Value:
        return RunResult("value", steps, value=out.value)
    if type(out) is PanicOutcome:
        return RunResult("panic", steps, panic=out)
    raise RuntimeError("stuck: %s (non-typechecked input?)" % out.reason)


def step_count(program: Program, max_steps: int = DEFAULT_MAX_STEPS, lang: str = "fgg"):
    """Number of small steps to reach a value or panic, or None when the
    budget is exhausted."""
    res = run(program, max_steps, lang)
    return None if res.kind == "budget_exhausted" else res.steps
