"""Small-step call-by-value interpreters for FG(-extended) and FGG.

Evaluation is deterministic, and one rule gives every evaluation context: a
term's strict subexpressions are all of ``syntax.subexprs`` (a call's
receiver before its arguments), except that ``if`` and sequencing have only
their first, and the context descends into the leftmost strict
subexpression that is not a value. Where all of them are values, the term
contracts in place. The decomposition is a loop over an explicit spine, so
term depth is not bounded by the recursion limit. The stepper holds no
global state; distinct runs are independent.

Outcomes:

* ``Stepped(expr, rule, redex)`` -- one reduction happened; ``rule`` names the
  contraction (r-fields, r-call, r-assert, r-ext-*) and ``redex`` is the
  subterm that contracted.
* ``Value(value)`` -- the term is a value; no rule fires.
* ``PanicOutcome`` -- a type assertion failed (or explicit ``panic``); once
  raised, a run halts immediately.
* ``Stuck`` -- no rule applies; never happens on typechecked input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Binop,
    BoolLit,
    Expr,
    FieldSel,
    If,
    IntLit,
    MethodCall,
    Neq,
    Panic,
    Program,
    Seq,
    StructLit,
    Type,
    TypeApp,
    TypeAssert,
    Var,
    plug,
    print_expr,
    print_type,
    rebuild,
    subexprs,
)
from .typecheck import Decls, fg_subtype, fgg_subtype, subst_type


@dataclass(frozen=True)
class Stepped:
    expr: Expr
    rule: str
    redex: Expr


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


StepOutcome = Stepped | Value | PanicOutcome | Stuck


def is_value(e: Expr) -> bool:
    if isinstance(e, (IntLit, BoolLit)):
        return True
    return isinstance(e, StructLit) and all(is_value(a) for a in e.args)


def vtype(v: Expr) -> TypeApp:
    if isinstance(v, IntLit):
        return TypeApp("int")
    if isinstance(v, BoolLit):
        return TypeApp("bool")
    if isinstance(v, StructLit):
        return v.type
    raise ValueError("vtype of non-value %r" % (v,))


def subst_expr(e: Expr, varmap: dict, typemap: dict) -> Expr:
    """Capture-free substitution of variables and type parameters. Method
    bodies contain no binders, so no renaming is ever needed."""
    if type(e) is Var:
        return varmap.get(e.name, e)
    ft = (lambda t: subst_type(t, typemap)) if typemap else None
    return rebuild(e, [subst_expr(k, varmap, typemap) for k in subexprs(e)], ft)


def instantiate_body(m, recv: Expr, args, targs) -> Expr:
    """body(vtype(v).m): substitute receiver, value arguments and type
    actuals into the declared body. Used by r-call and, with unevaluated
    arguments, by dictionary resolution."""
    varmap = {m.recv_name: recv}
    varmap.update({p.name: a for p, a in zip(m.sig.params, args)})
    rtargs = vtype(recv).args if is_value(recv) else ()
    typemap = {r: t for r, t in zip(m.recv_params, rtargs)}
    typemap.update({fp.name: t for fp, t in zip(m.sig.tformal, targs)})
    return subst_expr(m.body, varmap, typemap)


_BINOPS = {
    "<": lambda a, b: BoolLit(a < b),
    ">": lambda a, b: BoolLit(a > b),
    "+": lambda a, b: IntLit(a + b),
    "-": lambda a, b: IntLit(a - b),
}


def _contract(e: Expr, decls: Decls, generic: bool) -> StepOutcome:
    """Head contraction of ``e``, whose strict subexpressions are values."""
    t = type(e)
    if t is MethodCall:
        m = decls.methods.get((vtype(e.recv).name, e.name))
        if m is None:
            return Stuck("no method %s on %s" % (e.name, print_type(vtype(e.recv))))
        if len(m.sig.params) != len(e.args):
            return Stuck("arity mismatch calling %s" % e.name)
        return Stepped(instantiate_body(m, e.recv, e.args, e.targs), "r-call", e)

    if t is FieldSel:
        v = e.recv
        if not isinstance(v, StructLit):
            return Stuck("field select on %s" % print_expr(v))
        d = decls.structs.get(v.type.name)
        if d is None:
            return Stuck("unknown struct %s" % v.type.name)
        for i, f in enumerate(d.fields):
            if f.name == e.fieldname:
                return Stepped(v.args[i], "r-fields", e)
        return Stuck("no field %s on %s" % (e.fieldname, v.type.name))

    if t is TypeAssert:
        v = e.recv
        if generic:
            ok = fgg_subtype(vtype(v), e.type, {}, decls)
        else:
            ok = isinstance(e.type, TypeApp) and fg_subtype(vtype(v).name, e.type.name, decls)
        if ok:
            return Stepped(v, "r-assert", e)
        msg = "Unable to assert %s as type %s" % (print_type(vtype(v)), print_type(e.type))
        return PanicOutcome(vtype(v), e.type, msg)

    if t is Binop:
        if not (isinstance(e.left, IntLit) and isinstance(e.right, IntLit)):
            return Stuck("binop %s on non-int values" % e.op)
        return Stepped(_BINOPS[e.op](e.left.value, e.right.value), "r-ext-binop", e)

    if t is Neq:
        return Stepped(BoolLit(e.left != e.right), "r-ext-neq", e)

    if t is If:
        if not isinstance(e.cond, BoolLit):
            return Stuck("if condition is not a bool")
        return Stepped(e.then if e.cond.value else e.els, "r-ext-if", e)

    if t is Seq:
        return Stepped(e.rest, "r-ext-seq", e)

    if t is Panic:
        return PanicOutcome(None, None, "panic")

    if t is StructLit or t is IntLit or t is BoolLit:
        return Value(e)  # only at the root: the loop never descends into a value

    return Stuck("free variable %s" % e.name)  # subexprs rejects any class but Var here


def _step(e: Expr, decls: Decls, generic: bool) -> StepOutcome:
    # Decompose e into an evaluation context (the spine of (node, kids, i):
    # the hole is kids[i] of node) and a subterm whose strict subexpressions
    # are values, contract that subterm, and plug the result back in.
    spine = []
    while True:
        kids = subexprs(e)
        n = 1 if type(e) is If or type(e) is Seq else len(kids)
        for i in range(n):
            if not is_value(kids[i]):
                spine.append((e, kids, i))
                e = kids[i]
                break
        else:
            break
    out = _contract(e, decls, generic)
    if not spine or type(out) is not Stepped:
        return out
    return Stepped(plug(spine, out.expr), out.rule, out.redex)


def fg_step(e: Expr, decls: Decls) -> StepOutcome:
    return _step(e, decls, generic=False)


def fgg_step(e: Expr, decls: Decls) -> StepOutcome:
    return _step(e, decls, generic=True)


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
    """Iterate the step function from main's expression.

    ``lang`` selects the stepper ("fgg" or any fg dialect). ``trace`` is an
    optional callback invoked with (rule, redex) per step. Never exceeds
    ``max_steps``; exhausting the budget signals possible divergence.
    """
    decls = Decls(program)
    generic = lang == "fgg"
    e = program.main
    for i in range(max_steps):
        out = _step(e, decls, generic)
        if isinstance(out, Value):
            return RunResult("value", i, value=out.value)
        if isinstance(out, PanicOutcome):
            return RunResult("panic", i, panic=out)
        if isinstance(out, Stuck):
            raise RuntimeError("stuck: %s (non-typechecked input?)" % out.reason)
        if trace is not None:
            trace(out.rule, out.redex)
        e = out.expr
    return RunResult("budget_exhausted", max_steps)


def step_count(program: Program, max_steps: int = DEFAULT_MAX_STEPS, lang: str = "fgg"):
    """Number of small steps to reach a value or panic, or None when the
    budget is exhausted."""
    res = run(program, max_steps, lang)
    return None if res.kind == "budget_exhausted" else res.steps
