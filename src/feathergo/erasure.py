"""Erasure translation FGG -> FG: the non-specialising baseline.

Every field, parameter and return type is erased to Any; method calls on
parameter-typed receivers go through the bound's erased interface and the
needed concrete types are re-asserted at use sites. No dictionaries and no
type-reps are emitted, so the translation is deliberately NOT assertion
preserving: source asserts erase to asserts on the bare type name, which
can no longer distinguish instantiations (Foo[int] vs Foo[bool]).
"""

from __future__ import annotations

from .syntax import (
    ANY,
    Binop,
    BoolLit,
    Expr,
    FieldSel,
    If,
    InterfaceDecl,
    IntLit,
    MethodCall,
    MethodDecl,
    MethodSig,
    MethodSpec,
    Param,
    Program,
    Seq,
    StructDecl,
    StructLit,
    Type,
    TypeApp,
    TypeAssert,
    TypeParam,
    Var,
    walk,
)
from .typecheck import (
    Decls,
    fgg_bounds_of,
    fgg_typecheck_expr,
    fgg_typecheck_program,
    subst_type,
)


class ErasureError(Exception):
    pass


class _Eraser:
    def __init__(self, program: Program):
        diags = fgg_typecheck_program(program)
        if diags:
            raise ErasureError(
                "source program does not typecheck: " + "; ".join(d.message for d in diags)
            )
        self.program = program
        self.decls = Decls(program)
        self.warnings: list = []

    def erase_expr(self, e: Expr, delta: dict, gamma: dict, fg_types: dict, types=None):
        """Returns (erased expression, concrete fg type name or None).
        ``types`` is the type side table shared by one root's subterms."""
        if types is None:
            types = {}

        def rec(e):
            return self.erase_expr(e, delta, gamma, fg_types, types)

        def typeof(e) -> Type:
            return fgg_typecheck_expr(e, delta, gamma, self.decls, types=types)

        def asserted(te, fgname, want: str):
            if fgname == want:
                return te
            return TypeAssert(te, TypeApp(want))

        if isinstance(e, Var):
            return Var(e.name), fg_types.get(e.name)
        if isinstance(e, (IntLit, BoolLit)):
            return e, ("int" if isinstance(e, IntLit) else "bool")
        if isinstance(e, StructLit):
            return StructLit(TypeApp(e.type.name), tuple(rec(a)[0] for a in e.args)), e.type.name
        if isinstance(e, FieldSel):
            recv_t = typeof(e.recv)
            te, fgname = rec(e.recv)
            return FieldSel(asserted(te, fgname, recv_t.name), e.fieldname), None
        if isinstance(e, MethodCall):
            recv_t = typeof(e.recv)
            te, fgname = rec(e.recv)
            args = tuple(rec(a)[0] for a in e.args)
            if isinstance(recv_t, TypeParam):
                bound = fgg_bounds_of(recv_t, delta)
                return MethodCall(asserted(te, fgname, bound.name), e.name, (), args), None
            return MethodCall(asserted(te, fgname, recv_t.name), e.name, (), args), None
        if isinstance(e, TypeAssert):
            te, _ = rec(e.recv)
            if isinstance(e.type, TypeParam):
                target = fgg_bounds_of(e.type, delta).name
            else:
                target = e.type.name
            return TypeAssert(te, TypeApp(target)), None
        if isinstance(e, Binop):
            tl, nl = rec(e.left)
            tr, nr = rec(e.right)
            tl = tl if nl == "int" else TypeAssert(tl, TypeApp("int"))
            tr = tr if nr == "int" else TypeAssert(tr, TypeApp("int"))
            return Binop(e.op, tl, tr), ("bool" if e.op in ("<", ">") else "int")
        if isinstance(e, If):
            tc, nc = rec(e.cond)
            tc = tc if nc == "bool" else TypeAssert(tc, TypeApp("bool"))
            return If(tc, rec(e.then)[0], rec(e.els)[0]), None
        if isinstance(e, Seq):
            tf, _ = rec(e.first)
            tr, nr = rec(e.rest)
            return Seq(tf, tr), nr
        raise ErasureError("cannot erase %r" % type(e).__name__)

    def erase_decl(self, d):
        if isinstance(d, StructDecl):
            return StructDecl(d.name, (), tuple(Param(f.name, ANY) for f in d.fields))
        if isinstance(d, InterfaceDecl):
            specs = tuple(
                MethodSpec(s.name, MethodSig((), tuple(Param(p.name, ANY) for p in s.sig.params), ANY))
                for s in d.specs
            )
            return InterfaceDecl(d.name, (), specs)
        sd = self.decls.structs[d.recv_type]
        ren = {fp.name: TypeParam(r) for fp, r in zip(sd.formal, d.recv_params)}
        delta = {r: subst_type(fp.bound, ren) for fp, r in zip(sd.formal, d.recv_params)}
        delta.update({fp.name: fp.bound for fp in d.sig.tformal})
        gamma = {d.recv_name: TypeApp(d.recv_type, tuple(TypeParam(r) for r in d.recv_params))}
        gamma.update({p.name: p.type for p in d.sig.params})
        body, _ = self.erase_expr(d.body, delta, gamma, {d.recv_name: d.recv_type})
        sig = MethodSig((), tuple(Param(p.name, ANY) for p in d.sig.params), ANY)
        return MethodDecl(d.recv_name, d.recv_type, (), d.name, sig, body)

    def erase_program(self) -> Program:
        if any(isinstance(n, TypeAssert) for n in walk(self.program)):
            self.warnings.append(
                "program contains type assertions; erasure does not preserve assertion behaviour"
            )
        decls = []
        if "Any" not in self.decls.interfaces:
            decls.append(InterfaceDecl("Any"))
        elif self.decls.interfaces["Any"].formal or self.decls.interfaces["Any"].specs:
            raise ErasureError("source declares Any incompatibly with the erased Any")
        decls.extend(self.erase_decl(d) for d in self.program.decls)
        main, _ = self.erase_expr(self.program.main, {}, {}, {})
        return Program(tuple(decls), main)


def erase_program(program: Program):
    """Erase a typechecked FGG program to FG. Returns (program, warnings);
    a warning is issued when the source contains type assertions."""
    er = _Eraser(program)
    out = er.erase_program()
    return out, tuple(er.warnings)


def erase_value(v: Expr) -> Expr:
    """The value-level erasure: drop type actuals recursively. Used to state
    value preservation for the erasure translation."""
    if isinstance(v, StructLit):
        return StructLit(TypeApp(v.type.name), tuple(erase_value(a) for a in v.args))
    return v
