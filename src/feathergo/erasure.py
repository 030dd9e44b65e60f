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
    Var,
    fold,
)
from .typecheck import (
    Checked,
    fgg_bounds_of,
    fgg_typecheck_expr,
    fgg_typecheck_program,
)


class ErasureError(Exception):
    diagnostics = ()  # the checker's, when the source does not typecheck


def accept_source(checked: Checked, error: type) -> Checked:
    """``checked``, the checker's judgement of a source, if both translators
    accept that source, else ``error``. For an ill-typed source the error
    carries a copy of the diagnostics as its ``diagnostics`` (the program
    keeps the judgement). Both translators declare ``type Any interface {}``
    unless the source does, so a source ``Any`` must be that interface, with
    no formals and no specs."""
    if checked:
        ex = error("source program does not typecheck: " + "; ".join(d.message for d in checked))
        ex.diagnostics = list(checked)
        raise ex
    d = checked.decls.interfaces.get("Any")
    if "Any" in checked.decls.structs or (d is not None and (d.formal or d.specs)):
        raise error("source declares Any incompatibly with the erased Any")
    return checked


class _Eraser:
    def __init__(self, program: Program):
        checked = accept_source(fgg_typecheck_program(program), ErasureError)
        self.program = program
        self.decls, self.envs = checked.decls, checked.envs
        self.asserts = False  # whether erasing met a type assertion

    def erase_expr(self, e: Expr, delta: dict, gamma: dict, fg_types: dict):
        """Returns (erased expression, concrete fg type name or None)."""
        types: dict = {}  # the type side table shared by the root's subterms

        def typeof(e) -> Type:
            return fgg_typecheck_expr(e, delta, gamma, self.decls, types=types)

        def asserted(te, fgname, want: str):
            if fgname == want:
                return te
            return TypeAssert(te, TypeApp(want))

        def erased(e, kids):
            # kids: the (erased expression, fg type name) of each subexpression
            t = type(e)
            if t is Var:
                return Var(e.name), fg_types.get(e.name)
            if t is IntLit or t is BoolLit:
                return e, ("int" if t is IntLit else "bool")
            if t is StructLit:
                return StructLit(TypeApp(e.type.name), tuple(k[0] for k in kids)), e.type.name
            if t is FieldSel:
                return FieldSel(asserted(*kids[0], typeof(e.recv).name), e.fieldname), None
            if t is MethodCall:
                recv_t = fgg_bounds_of(typeof(e.recv), delta)
                args = tuple(k[0] for k in kids[1:])
                return MethodCall(asserted(*kids[0], recv_t.name), e.name, (), args), None
            if t is TypeAssert:
                self.asserts = True
                return TypeAssert(kids[0][0], TypeApp(fgg_bounds_of(e.type, delta).name)), None
            if t is Binop:
                tl, tr = (te if n == "int" else TypeAssert(te, TypeApp("int")) for te, n in kids)
                return Binop(e.op, tl, tr), ("bool" if e.op in ("<", ">") else "int")
            if t is If:
                tc, nc = kids[0]
                tc = tc if nc == "bool" else TypeAssert(tc, TypeApp("bool"))
                return If(tc, kids[1][0], kids[2][0]), None
            if t is Seq:
                return Seq(kids[0][0], kids[1][0]), kids[1][1]
            raise ErasureError("cannot erase %r" % t.__name__)

        return fold(e, erased)

    def erase_decl(self, d):
        if isinstance(d, StructDecl):
            return StructDecl(d.name, (), tuple(Param(f.name, ANY) for f in d.fields))
        if isinstance(d, InterfaceDecl):
            specs = tuple(
                MethodSpec(s.name, MethodSig((), tuple(Param(p.name, ANY) for p in s.sig.params), ANY))
                for s in d.specs
            )
            return InterfaceDecl(d.name, (), specs)
        delta, gamma = self.envs[(d.recv_type, d.name)]
        body, _ = self.erase_expr(d.body, delta, gamma, {d.recv_name: d.recv_type})
        sig = MethodSig((), tuple(Param(p.name, ANY) for p in d.sig.params), ANY)
        return MethodDecl(d.recv_name, d.recv_type, (), d.name, sig, body)

    def erase_program(self) -> Program:
        decls = []
        if "Any" not in self.decls.interfaces:
            decls.append(InterfaceDecl("Any"))
        decls.extend(self.erase_decl(d) for d in self.program.decls)
        main, _ = self.erase_expr(self.program.main, {}, {}, {})
        return Program(tuple(decls), main)


def erase_program(program: Program):
    """Erase a typechecked FGG program to FG. Returns (program, warnings);
    a warning is issued when the source contains type assertions."""
    er = _Eraser(program)
    out = er.erase_program()
    if er.asserts:
        return out, ("program contains type assertions; erasure does not preserve assertion behaviour",)
    return out, ()

