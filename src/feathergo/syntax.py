"""Abstract syntax for the FG / FGG toolchain.

A single node set covers both dialects: a plain FG tree simply carries no
type parameters, no type actuals and no statement forms beyond `return`.
Named types are always represented as ``TypeApp``; an FG type is a
``TypeApp`` with an empty argument tuple and prints as a bare name.

All nodes are frozen dataclasses, so trees are immutable values that can be
shared freely across threads and compared structurally. Named types are
interned: equal types are one object, compared and hashed by identity, and
the table keeps each distinct type built in the process. Expression nodes
have slots, and their generated ``__init__``, ``__eq__``, ``__hash__`` and
``__repr__`` are replaced by faster or iterative ones (end of this module)
that keep the generated ones' signature and results; assigning a field
still raises ``FrozenInstanceError``. ``==`` is ``same``, which
co-simulation's state comparison also calls.

Some nodes carry an ``origin`` tag ("erase", "sim" or "dict") identifying
the translator rule that emitted them; the co-simulation harness uses the
tags to classify redexes. Tags never participate in equality or hashing,
so a re-parsed tree compares equal to the tree that printed it even though
parsing drops the tags.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import attrgetter


def _origin():
    return field(default=None, compare=False, kw_only=True)


def _pos():  # a declaration's (line, col) in its source, (0, 0) if it has none
    return field(default=(0, 0), compare=False, repr=False, kw_only=True)


# ---------------------------------------------------------------------------
# Types

_TYPES: dict = {}  # (name, args) -> the one TypeApp for it


@dataclass(frozen=True)
class TypeParam:
    """A type parameter occurrence (FGG only)."""

    name: str


@dataclass(frozen=True, eq=False, init=False, repr=False)
class TypeApp:
    """A named type, instantiated with a tuple of type actuals; interned.

    FG types and zero-formal FGG types have ``args == ()`` and print as the
    bare name.
    """

    name: str
    args: tuple = ()

    def __new__(cls, name: str, args: tuple = ()):
        t = _TYPES.get((name, args))
        if t is None:  # setdefault: two threads building one new type get one object
            t = object.__new__(cls)
            t.__dict__.update(name=name, args=args)
            t = _TYPES.setdefault((name, args), t)
        return t

    def __reduce__(self):  # copies and pickles are the interned object
        return TypeApp, (self.name, self.args)


Type = TypeParam | TypeApp

ANY = TypeApp("Any")
INT = TypeApp("int")
BOOL = TypeApp("bool")


@dataclass(frozen=True)
class FormalParam:
    """One entry of a type formal: a parameter name and its interface bound."""

    name: str
    bound: Type


Formal = tuple  # tuple[FormalParam, ...]


@dataclass(frozen=True)
class Param:
    """A named, typed binding: method parameter or struct field."""

    name: str
    type: Type


@dataclass(frozen=True)
class MethodSig:
    """Method signature: type formal, value parameters, return type."""

    tformal: Formal = ()
    params: tuple = ()
    ret: Type = ANY


@dataclass(frozen=True)
class MethodSpec:
    """A named method signature, as listed in an interface."""

    name: str
    sig: MethodSig


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int


@dataclass(frozen=True, slots=True)
class BoolLit:
    value: bool


@dataclass(frozen=True, slots=True)
class StructLit:
    """``t{e...}`` or ``t[tau...]{e...}``; a value once every arg is a value."""

    type: TypeApp
    args: tuple = ()


@dataclass(frozen=True, slots=True)
class FieldSel:
    recv: "Expr"
    fieldname: str
    origin: str | None = _origin()


@dataclass(frozen=True, slots=True)
class MethodCall:
    recv: "Expr"
    name: str
    targs: tuple = ()
    args: tuple = ()
    origin: str | None = _origin()


@dataclass(frozen=True, slots=True)
class TypeAssert:
    recv: "Expr"
    type: Type = ANY
    origin: str | None = _origin()


@dataclass(frozen=True, slots=True)
class Binop:
    """Primitive int operation, ``op`` one of ``< > + -``."""

    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Neq:
    """Structural inequality ``left != right`` (extended dialect)."""

    left: "Expr"
    right: "Expr"
    origin: str | None = _origin()


@dataclass(frozen=True, slots=True)
class If:
    """``if (cond) {...} else {...}``; an else-less source ``if`` absorbs the
    statements that follow it as its else branch."""

    cond: "Expr"
    then: "Expr"
    els: "Expr"
    origin: str | None = _origin()


@dataclass(frozen=True, slots=True)
class Seq:
    """Evaluate ``first`` for effect, discard it, continue with ``rest``."""

    first: "Expr"
    rest: "Expr"
    origin: str | None = _origin()


@dataclass(frozen=True, slots=True)
class Panic:
    pass


Expr = (
    Var
    | IntLit
    | BoolLit
    | StructLit
    | FieldSel
    | MethodCall
    | TypeAssert
    | Binop
    | Neq
    | If
    | Seq
    | Panic
)


# ---------------------------------------------------------------------------
# Declarations and programs


@dataclass(frozen=True)
class StructDecl:
    name: str
    formal: Formal = ()
    fields: tuple = ()  # tuple[Param, ...]
    pos: tuple = _pos()


@dataclass(frozen=True)
class InterfaceDecl:
    name: str
    formal: Formal = ()
    specs: tuple = ()  # tuple[MethodSpec, ...]
    pos: tuple = _pos()


@dataclass(frozen=True)
class MethodDecl:
    """``func (recv_name recv_type[recv_params]) name sig { body }``.

    The receiver type-parameter list is a bare name list; the bounds come
    from the receiver struct's declaration.
    """

    recv_name: str
    recv_type: str
    recv_params: tuple  # tuple[str, ...]
    name: str
    sig: MethodSig
    body: Expr
    pos: tuple = _pos()


Decl = StructDecl | InterfaceDecl | MethodDecl


@dataclass(frozen=True)
class Program:
    """A whole program; ``pos`` is that of ``func main``.
    ``typecheck.fgg_typecheck_program`` keeps its judgement, and
    ``dicttrans.Translator.translated_decls`` its translated declarations,
    in the instance ``__dict__``, outside the fields."""

    decls: tuple  # tuple[Decl, ...]
    main: Expr
    pos: tuple = _pos()


# ---------------------------------------------------------------------------
# Pretty printer
#
# The canonical text form: `package main` header, one declaration per block,
# `func main() { _ = e }` footer. Output re-parses to a structurally equal
# tree (origin tags excepted, which do not take part in equality).

_PREC_NEQ = 1
_PREC_CMP = 2
_PREC_ADD = 3
_PREC_PRIMARY = 4

_BINOP_PREC = {"<": _PREC_CMP, ">": _PREC_CMP, "+": _PREC_ADD, "-": _PREC_ADD}


def print_type(t: Type) -> str:
    if type(t) is TypeParam or not t.args:
        return t.name
    out, todo = [], [t]  # todo: types to print and text to emit, last first
    while todo:
        n = todo.pop()
        if type(n) is str:
            out.append(n)
        elif type(n) is TypeParam or not n.args:
            out.append(n.name)
        else:
            out += (n.name, "[")
            todo.append("]")
            for a in reversed(n.args[1:]):
                todo += (a, ", ")
            todo.append(n.args[0])
    return "".join(out)


def print_formal(formal: Formal) -> str:
    if not formal:
        return ""
    return "[%s]" % ", ".join("%s %s" % (fp.name, print_type(fp.bound)) for fp in formal)


def _print_sig(name: str, sig: MethodSig) -> str:
    params = ", ".join("%s %s" % (p.name, print_type(p.type)) for p in sig.params)
    return "%s%s(%s) %s" % (name, print_formal(sig.tformal), params, print_type(sig.ret))


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size: past the interpreter's limit on
    digits converted at once (640 or more), it converts 600 at a time."""
    try:
        return str(n)
    except ValueError:
        m, blocks = abs(n), []
        while m:
            m, r = divmod(m, 10**600)
            blocks.append("%0600d" % r)
        return "-" * (n < 0) + "".join(reversed(blocks)).lstrip("0")


def _print_node(e: Expr, kids) -> tuple:
    """``e`` as (text, precedence), given its subexpressions' (text,
    precedence); the parent adds the parentheses a child needs."""
    t = type(e)
    if t is FieldSel or t is MethodCall or t is TypeAssert:
        recv, p = kids[0]
        if p < _PREC_PRIMARY:
            recv = "(%s)" % recv
        if t is FieldSel:
            return "%s.%s" % (recv, e.fieldname), _PREC_PRIMARY
        if t is TypeAssert:
            return "%s.(%s)" % (recv, print_type(e.type)), _PREC_PRIMARY
        targs = "[%s]" % ", ".join(map(print_type, e.targs)) if e.targs else ""
        return "%s.%s%s(%s)" % (recv, e.name, targs, ", ".join([k[0] for k in kids[1:]])), _PREC_PRIMARY
    if t is Var:
        return e.name, _PREC_PRIMARY
    if t is StructLit:
        return "%s{%s}" % (print_type(e.type), ", ".join([k[0] for k in kids])), _PREC_PRIMARY
    if t is IntLit:
        return _decimal(e.value), _PREC_PRIMARY
    if t is BoolLit:
        return "true" if e.value else "false", _PREC_PRIMARY
    if t is Binop:  # the left operand may bind as loosely as the operator, the right one not
        p = _BINOP_PREC[e.op]
        (left, pl), (right, pr) = kids
        return "%s %s %s" % (left if pl >= p else "(%s)" % left, e.op, right if pr > p else "(%s)" % right), p
    if t is Neq:
        (left, pl), (right, pr) = kids
        left = left if pl > _PREC_NEQ else "(%s)" % left
        return "%s != %s" % (left, right if pr > _PREC_NEQ else "(%s)" % right), _PREC_NEQ
    raise ValueError("cannot print %r in expression position" % t.__name__)


def print_expr(e: Expr) -> str:
    return fold(e, _print_node)[0]


def _print_body(e: Expr, ind: str, out: list) -> None:
    todo = [(ind, e)]  # bodies still to print, and closing lines (as text)
    while todo:
        ind, e = todo.pop()
        if type(e) is str:
            out.append(e)
            continue
        while isinstance(e, Seq) or isinstance(e, If) and isinstance(e.then, Panic) and not isinstance(e.els, Panic):
            if isinstance(e, Seq):
                out.append("%s%s" % (ind, print_expr(e.first)))
                e = e.rest
            else:
                out.append("%sif (%s) { panic }" % (ind, print_expr(e.cond)))
                e = e.els
        if isinstance(e, If):
            out.append("%sif (%s) {" % (ind, print_expr(e.cond)))
            todo += [(ind, "%s}" % ind), (ind + "\t", e.els), (ind, "%s} else {" % ind), (ind + "\t", e.then)]
        elif isinstance(e, Panic):
            out.append("%spanic" % ind)
        else:
            out.append("%sreturn %s" % (ind, print_expr(e)))


def _print_main_body(e: Expr, ind: str, out: list) -> None:
    while isinstance(e, Seq):
        out.append("%s_ = %s" % (ind, print_expr(e.first)))
        e = e.rest
    out.append("%s_ = %s" % (ind, print_expr(e)))


def print_decl(d: Decl) -> str:
    if isinstance(d, StructDecl):
        head = "type %s%s struct" % (d.name, print_formal(d.formal))
        if not d.fields:
            return head + " {}"
        lines = ["\t%s %s" % (f.name, print_type(f.type)) for f in d.fields]
        return "%s {\n%s\n}" % (head, "\n".join(lines))
    if isinstance(d, InterfaceDecl):
        head = "type %s%s interface" % (d.name, print_formal(d.formal))
        if not d.specs:
            return head + " {}"
        lines = ["\t" + _print_sig(s.name, s.sig) for s in d.specs]
        return "%s {\n%s\n}" % (head, "\n".join(lines))
    if isinstance(d, MethodDecl):
        recv = d.recv_type
        if d.recv_params:
            recv += "[%s]" % ", ".join(d.recv_params)
        body: list = []
        _print_body(d.body, "\t", body)
        return "func (%s %s) %s {\n%s\n}" % (d.recv_name, recv, _print_sig(d.name, d.sig), "\n".join(body))
    raise TypeError(d)


def pretty_print(program: Program) -> str:
    """Render a program in the canonical concrete syntax.

    Deterministic: structurally equal trees print to identical text, and the
    output re-parses to an equal tree.
    """
    blocks = ["package main"]
    blocks.extend(print_decl(d) for d in program.decls)
    body: list = []
    _print_main_body(program.main, "\t", body)
    blocks.append("func main() {\n%s\n}" % "\n".join(body))
    return "\n\n".join(blocks) + "\n"


def _show_node(e: Expr, kids) -> str:
    t = type(e)
    if t is If:
        return "if (%s) { %s } else { %s }" % tuple(kids)
    if t is Seq:
        return "%s; %s" % tuple(kids)
    if t is Panic:
        return "panic"
    if t is Binop:
        return "(%s %s %s)" % (kids[0], e.op, kids[1])
    if t is Neq:
        return "(%s != %s)" % tuple(kids)
    return _print_node(e, [(k, _PREC_PRIMARY) for k in kids])[0]


def show_expr(e: Expr) -> str:
    """Single-line rendering for traces and diagnostics. Unlike print_expr
    it renders the statement forms inline, so the output is not guaranteed
    to re-parse."""
    return fold(e, _show_node)


# ---------------------------------------------------------------------------
# Generic traversal
#
# The one place that knows which fields of an expression hold subexpressions
# and which hold types, and how two expressions compare; every structural
# walk and comparison goes through these.

_LEAF_EXPRS = (Var, IntLit, BoolLit, Panic)


def subexprs(e: Expr) -> tuple:
    """The immediate subexpressions of ``e``, left to right (a call's
    receiver before its arguments)."""
    t = type(e)
    if t is MethodCall:
        return (e.recv, *e.args)
    if t is FieldSel or t is TypeAssert:
        return (e.recv,)
    if t is StructLit:
        return e.args
    if t is Binop or t is Neq:
        return (e.left, e.right)
    if t is If:
        return (e.cond, e.then, e.els)
    if t is Seq:
        return (e.first, e.rest)
    if t in _LEAF_EXPRS:
        return ()
    raise TypeError("not an expression: %r" % t.__name__)


def type_args(t) -> tuple:
    """A type's immediate subtypes, the ``kids`` of a ``fold`` over types."""
    return t.args if type(t) is TypeApp else ()


def rebuild(e: Expr, kids) -> Expr:
    """``e`` with its subexpressions replaced by ``kids`` (in ``subexprs``
    order), keeping its scalar fields, carried types and origin tag."""
    t = type(e)
    if t is MethodCall:
        return MethodCall(kids[0], e.name, e.targs, tuple(kids[1:]), origin=e.origin)
    if t is FieldSel:
        return FieldSel(kids[0], e.fieldname, origin=e.origin)
    if t is StructLit:
        return StructLit(e.type, tuple(kids))
    if t is TypeAssert:
        return TypeAssert(kids[0], e.type, origin=e.origin)
    if t is Binop:
        return Binop(e.op, *kids)
    if t is Neq or t is If or t is Seq:
        return t(*kids, origin=e.origin)
    if t in _LEAF_EXPRS:
        return e
    raise TypeError("not an expression: %r" % t.__name__)


def plug(spine, e: Expr) -> Expr:
    """Fill a context's hole with ``e``: ``spine`` lists ``(node, subexprs(node),
    i)`` from the root down, the hole being subexpression ``i`` of the last."""
    for node, kids, i in reversed(spine):
        e = rebuild(node, kids[:i] + (e,) + kids[i + 1:])
    return e


def fold(e: Expr, f, kids=subexprs):
    """The bottom-up dual of ``walk``: ``f(node, results)`` for every node in
    post-order, ``results`` being f's values for ``kids(node)`` in order;
    returns f's value at ``e``. Iterative, so term depth is not bounded by
    the recursion limit. A pass that already knows a subterm's result prunes
    there with a ``kids`` that returns () for it."""
    ks = kids(e)
    if not ks:
        return f(e, ())
    out = []
    todo = [(e, len(ks)), *reversed(ks)]
    while todo:
        n = todo.pop()
        if type(n) is tuple:  # (node, k): the node's k subexpressions are folded
            node, k = n
            vals = out[-k:]
            del out[-k:]
            out.append(f(node, vals))
            continue
        ks = kids(n)
        if ks:
            todo.append((n, len(ks)))
            todo.extend(reversed(ks))
        else:
            out.append(f(n, ()))
    return out[0]


# what an expression holds besides its subexpressions (origin tags aside)
_HEAD = {
    Var: attrgetter("name"), IntLit: attrgetter("value"), BoolLit: attrgetter("value"),
    StructLit: attrgetter("type"), FieldSel: attrgetter("fieldname"), MethodCall: attrgetter("name", "targs"),
    TypeAssert: attrgetter("type"), Binop: attrgetter("op"),
}


def same_head(x, y) -> bool:
    """Whether expressions ``x`` and ``y`` have the same class and head,
    what each holds besides its subexpressions (origin tags aside)."""
    head = _HEAD.get(type(x))
    return type(x) is type(y) and not (head and head(x) is not head(y) and head(x) != head(y))


def same(a, b) -> bool:
    """Structural equality of expressions, origin tags excepted: ``==`` on
    expressions. Iterative, like the traversals above; shared subterms
    compare by identity."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        kx, ky = subexprs(x), subexprs(y)
        if len(kx) != len(ky) or not same_head(x, y):
            return False
        todo += zip(kx, ky)
    return True


def _expr_eq(a, b):
    return same(a, b) if type(b) is type(a) else NotImplemented


def _hash_node(e, kids) -> int:
    head = _HEAD.get(type(e))
    return hash((type(e), head and head(e), *kids))


def _expr_hash(e) -> int:
    """A hash that agrees with ``same``: it reads the class, the head
    and the subexpressions' hashes, not the origin tag. A fold, so term
    depth is not bounded by the recursion limit."""
    return fold(e, _hash_node)


_EXPR_FIELDS = ("recv", "left", "right", "cond", "then", "els", "first", "rest")

# every expression class -> its fields as (name, kind): 1 for a subexpression,
# 2 for a tuple of them (``args``), 0 for anything else
_REPR_FIELDS = {
    cls: tuple(
        (f.name, 2 if f.name == "args" else 1 if f.name in _EXPR_FIELDS else 0)
        for f in dataclasses.fields(cls)
        if f.repr
    )
    for cls in Expr.__args__
}


def _repr_node(e, kids) -> str:
    """``e``'s generated repr, given its subexpressions' reprs."""
    parts, k = [], 0
    for name, kind in _REPR_FIELDS[type(e)]:
        if kind == 1:
            text, k = kids[k], k + 1
        elif kind == 2:
            n = len(e.args)
            text = "(%s)" % (kids[k] + "," if n == 1 else ", ".join(kids[k:k + n]))
            k += n
        else:
            text = repr(getattr(e, name))
        parts.append("%s=%s" % (name, text))
    return "%s(%s)" % (type(e).__qualname__, ", ".join(parts))


def _expr_repr(e) -> str:
    """The generated dataclass ``repr``, origin tags included, as a fold:
    term depth is not bounded by the recursion limit."""
    return fold(e, _repr_node)


def _expr_init(cls):
    """An ``__init__`` for expression class ``cls`` with the generated one's
    parameters and defaults, ``origin`` keyword-only, that stores each field
    through its slot's own setter. The generated one, the class being
    frozen, stores through ``object.__setattr__``, which looks each field up
    by name: on CPython 3.11 it builds a five-field node in about 1.6 µs,
    this one in about 0.8 µs."""
    ns, params, kw_only, body = {}, [], [], []
    for f in dataclasses.fields(cls):
        ns["set_" + f.name] = getattr(cls, f.name).__set__
        if f.default is dataclasses.MISSING:
            param = f.name
        else:
            ns["default_" + f.name] = f.default
            param = "%s=default_%s" % (f.name, f.name)
        (kw_only if f.kw_only else params).append(param)
        body.append("set_%s(self, %s)" % (f.name, f.name))
    if kw_only:
        params += ["*", *kw_only]
    exec("def __init__(%s):\n    %s\n" % (", ".join(["self", *params]), "\n    ".join(body or ["pass"])), ns)
    return ns["__init__"]


def _repr_type(t, kids) -> str:  # the generated dataclass repr, given the arguments'
    args = kids[0] + "," if len(kids) == 1 else ", ".join(kids)
    return "TypeApp(name=%r, args=(%s))" % (t.name, args) if type(t) is TypeApp else repr(t)


# the generated inits and reprs, which the tests take as the reference
GENERATED_INITS = {cls: cls.__init__ for cls in Expr.__args__}
GENERATED_REPRS = {cls: cls.__repr__ for cls in Expr.__args__}

for _cls in Expr.__args__:
    _cls.__init__ = _expr_init(_cls)
    _cls.__eq__ = _expr_eq
    _cls.__hash__ = _expr_hash
    _cls.__repr__ = _expr_repr
TypeApp.__repr__ = lambda t: fold(t, _repr_type, type_args)


# every node class -> its fields that may hold nodes, last field first (origin
# tags, positions and names, numbers and flags are not nodes)
_NODE_FIELDS = {
    cls: tuple(
        f.name
        for f in reversed(dataclasses.fields(cls))
        if f.name not in ("origin", "pos") and f.type not in ("str", "int", "bool")
    )
    for cls in (*Type.__args__, FormalParam, Param, MethodSig, MethodSpec, *Expr.__args__, *Decl.__args__, Program)
}


def walk(node):
    """Every AST node in ``node`` -- types, expressions, declarations and
    parameters -- in preorder. Iterative, so term depth is not bounded by
    the recursion limit."""
    stack = [node]
    while stack:
        n = stack.pop()
        if type(n) is tuple:
            stack.extend(reversed(n))
            continue
        names = _NODE_FIELDS.get(type(n))
        if names is not None:
            yield n
            for f in names:
                stack.append(getattr(n, f))


def node_count(node) -> int:
    """Total number of AST nodes (types, expressions, declarations).

    Additive over declarations and strictly monotone under adding one, which
    makes it a usable code-size proxy for translated output.
    """
    return sum(1 for _ in walk(node))
