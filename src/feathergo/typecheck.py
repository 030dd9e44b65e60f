"""Typecheckers for FG (core and extended) and FGG.

Both checkers are pure functions of the program; the program-level entry
points return a (possibly empty) list of diagnostics, each citing the rule
that failed. Expression-level checking raises CheckError internally.

``int`` and ``bool`` are predeclared struct-kinded types with no fields;
``<``/``>``/``+``/``-`` are typed (int, int) -> bool/int. Users may declare
methods with them as receivers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .parser import Diagnostic
from .syntax import (
    Binop,
    BoolLit,
    Expr,
    FieldSel,
    If,
    IntLit,
    InterfaceDecl,
    MethodCall,
    MethodDecl,
    MethodSig,
    Neq,
    Panic,
    Program,
    Seq,
    StructDecl,
    StructLit,
    Type,
    TypeApp,
    TypeAssert,
    TypeParam,
    Var,
    print_type,
)

BUILTIN_STRUCTS = ("int", "bool")


class CheckError(Exception):
    def __init__(self, message: str):
        self.message = message
        super().__init__(message)


@dataclass(frozen=True)
class Bottom:
    """Type of ``panic``: subtype of everything."""


BOTTOM = Bottom()


class Decls:
    """Indexed declaration tables for one program (plus builtins).

    Two memo tables, filled lazily, answer each subtyping question once per
    program: ``fg_sub`` maps ``(t, u)`` to ``fg_subtype(t, u)``, and
    ``fgg_sub`` maps ``(tau, sigma)`` to ``fgg_subtype`` under an empty
    delta (a closed goal cannot depend on delta). Both rely on a ``Decls``
    never being mutated after construction: build a new one for a new
    program. The tables live on the instance, so checks of distinct
    programs never share an entry.
    """

    def __init__(self, program: Program):
        self.program = program
        self.fg_sub: dict = {}
        self.fgg_sub: dict = {}
        self.structs: dict = {s: StructDecl(s) for s in BUILTIN_STRUCTS}
        self.interfaces: dict = {}
        self.methods: dict = {}  # (recv_type, name) -> MethodDecl
        self.methods_by_type: dict = {}  # recv_type -> [MethodDecl] in decl order
        self.duplicates: list = []
        for d in program.decls:
            if isinstance(d, StructDecl):
                self._add_type(d)
            elif isinstance(d, InterfaceDecl):
                self._add_type(d)
            elif isinstance(d, MethodDecl):
                key = (d.recv_type, d.name)
                if key in self.methods:
                    self.duplicates.append(
                        "t-prog: duplicate method declaration %s.%s" % key
                    )
                else:
                    self.methods[key] = d
                    self.methods_by_type.setdefault(d.recv_type, []).append(d)

    def _add_type(self, d) -> None:
        table = self.structs if isinstance(d, StructDecl) else self.interfaces
        if d.name in self.structs or d.name in self.interfaces:
            what = "builtin" if d.name in BUILTIN_STRUCTS else "type"
            self.duplicates.append("t-prog: duplicate %s declaration %s" % (what, d.name))
        else:
            table[d.name] = d

    def kind_of(self, name: str):
        if name in self.structs:
            return "struct"
        if name in self.interfaces:
            return "interface"
        return None

    def type_decl(self, name: str):
        return self.structs.get(name) or self.interfaces.get(name)


# ---------------------------------------------------------------------------
# Substitution and signature canonicalisation (shared by FGG checking,
# reduction and the translators)


def subst_type(t: Type, mapping: dict) -> Type:
    if isinstance(t, TypeParam):
        return mapping.get(t.name, t)
    if isinstance(t, TypeApp):
        if not t.args:
            return t
        return TypeApp(t.name, tuple(subst_type(a, mapping) for a in t.args))
    return t


def subst_sig(sig: MethodSig, mapping: dict) -> MethodSig:
    """Substitute type parameters in a signature. The signature's own formal
    parameters are binders and must not occur in ``mapping``."""
    tformal = tuple(
        fp.__class__(fp.name, subst_type(fp.bound, mapping)) for fp in sig.tformal
    )
    params = tuple(p.__class__(p.name, subst_type(p.type, mapping)) for p in sig.params)
    return MethodSig(tformal, params, subst_type(sig.ret, mapping))


def canon_sig(sig: MethodSig) -> tuple:
    """Signature identity for method-set comparison: value-parameter names are
    irrelevant and the method's own type parameters compare positionally."""
    ren = {fp.name: TypeParam("$%d" % i) for i, fp in enumerate(sig.tformal)}
    bounds = tuple(subst_type(fp.bound, ren) for fp in sig.tformal)
    params = tuple(subst_type(p.type, ren) for p in sig.params)
    return (bounds, params, subst_type(sig.ret, ren))


# ---------------------------------------------------------------------------
# FG method sets, subtyping, expressions


def _decl_sigs(decls: Decls, tname: str) -> dict:
    out = {}
    for m in decls.methods_by_type.get(tname, ()):
        out[m.name] = m.sig
    return out


def fg_methods(tname: str, decls: Decls) -> dict:
    """methods(t): declared methods of a struct, specifications of an
    interface; preserves declaration order."""
    if tname in decls.interfaces:
        return {s.name: s.sig for s in decls.interfaces[tname].specs}
    return _decl_sigs(decls, tname)


def fg_subtype(t: str, u: str, decls: Decls) -> bool:
    """t <: u. A structure is implemented only by itself (<:s); an interface
    by any type with at least its methods (<:i). Memoised in ``decls``."""
    key = (t, u)
    ok = decls.fg_sub.get(key)
    if ok is None:
        if decls.kind_of(u) == "interface":
            need = fg_methods(u, decls)
            have = fg_methods(t, decls)
            ok = all(m in have and canon_sig(have[m]) == canon_sig(need[m]) for m in need)
        else:
            ok = t == u
        decls.fg_sub[key] = ok
    return ok


def _fg_wf(t: Type, decls: Decls) -> str:
    if not isinstance(t, TypeApp) or t.args:
        raise CheckError("t-named: %s is not an fg type" % print_type(t))
    if decls.kind_of(t.name) is None:
        raise CheckError("t-named: unknown type %s" % t.name)
    return t.name


def fg_typecheck_expr(
    e: Expr, gamma: dict, decls: Decls, expected=None, dialect: str = "extended", types=None
):
    """Type an FG expression; returns a TypeApp (or BOTTOM for panic).

    ``types``, if given, is a side table ``id(node) -> (node, type)`` for
    one ``gamma``: it is read and filled wherever no type is expected, so
    a caller that types overlapping subterms under the same environment
    types each of them once. Holding the node keeps its id from being
    reused while the table lives.
    """

    def sub(t, u) -> bool:
        if isinstance(t, Bottom):
            return True
        return fg_subtype(t.name, u.name, decls)

    def check(e, expected=None):
        # one frame per node: the side table is consulted inline
        memo = types is not None and expected is None
        if memo:
            hit = types.get(id(e))
            if hit is not None:
                return hit[1]
        if isinstance(e, Var):
            if e.name not in gamma:
                raise CheckError("t-var: unknown variable %s" % e.name)
            t = gamma[e.name]
        elif isinstance(e, IntLit):
            t = TypeApp("int")
        elif isinstance(e, BoolLit):
            t = TypeApp("bool")
        elif isinstance(e, StructLit):
            name = _fg_wf(e.type, decls)
            if decls.kind_of(name) != "struct":
                raise CheckError("t-literal: %s is not a struct" % name)
            fields = decls.structs[name].fields
            if len(fields) != len(e.args):
                raise CheckError(
                    "t-literal: struct %s expects %d fields, got %d"
                    % (name, len(fields), len(e.args))
                )
            for f, a in zip(fields, e.args):
                ta = check(a)
                if not sub(ta, f.type):
                    raise CheckError(
                        "t-literal: field %s of %s needs %s, got %s"
                        % (f.name, name, print_type(f.type), print_type(ta))
                    )
            t = e.type
        elif isinstance(e, FieldSel):
            tr = check(e.recv)
            if isinstance(tr, Bottom) or decls.kind_of(tr.name) != "struct":
                raise CheckError("t-field: selecting %s on non-struct" % e.fieldname)
            for f in decls.structs[tr.name].fields:
                if f.name == e.fieldname:
                    t = f.type
                    break
            else:
                raise CheckError("t-field: %s has no field %s" % (tr.name, e.fieldname))
        elif isinstance(e, MethodCall):
            if e.targs:
                raise CheckError("t-call: fg methods take no type arguments")
            tr = check(e.recv)
            if isinstance(tr, Bottom):
                raise CheckError("t-call: call on panic")
            sig = fg_methods(tr.name, decls).get(e.name)
            if sig is None:
                raise CheckError("t-call: no method %s on %s" % (e.name, tr.name))
            if len(sig.params) != len(e.args):
                raise CheckError(
                    "t-call: %s.%s expects %d arguments, got %d"
                    % (tr.name, e.name, len(sig.params), len(e.args))
                )
            for p, a in zip(sig.params, e.args):
                ta = check(a)
                if not sub(ta, p.type):
                    raise CheckError(
                        "t-call: argument %s of %s.%s needs %s, got %s"
                        % (p.name, tr.name, e.name, print_type(p.type), print_type(ta))
                    )
            t = sig.ret
        elif isinstance(e, TypeAssert):
            name = _fg_wf(e.type, decls)
            tr = check(e.recv)
            t = e.type
            # t-stupid on a struct receiver, t-assert_I on an interface target
            if not (
                isinstance(tr, Bottom)
                or decls.kind_of(tr.name) == "struct"
                or decls.kind_of(name) == "interface"
                or fg_subtype(name, tr.name, decls)  # t-assert_S
            ):
                raise CheckError(
                    "t-assert_S: %s does not implement %s" % (name, tr.name)
                )
        elif isinstance(e, Binop):
            _extended(dialect, e)
            for side in (e.left, e.right):
                ts = check(side)
                if not (isinstance(ts, TypeApp) and ts.name == "int"):
                    raise CheckError("t-binop: operand of %s must be int" % e.op)
            t = TypeApp("bool") if e.op in ("<", ">") else TypeApp("int")
        elif isinstance(e, Neq):
            _extended(dialect, e)
            check(e.left)
            check(e.right)
            t = TypeApp("bool")
        elif isinstance(e, If):
            _extended(dialect, e)
            tc = check(e.cond)
            if not (isinstance(tc, TypeApp) and tc.name == "bool"):
                raise CheckError("t-if: condition must be bool")
            tt = check(e.then, expected)
            te = check(e.els, expected)
            try:
                t = _join(tt, te, expected, sub)
            except CheckError:
                t = _fg_interface_join(tt, te, decls)
                if t is None:
                    raise
        elif isinstance(e, Seq):
            _extended(dialect, e)
            check(e.first)
            t = check(e.rest, expected)
        elif isinstance(e, Panic):
            _extended(dialect, e)
            t = expected if expected is not None else BOTTOM
        else:
            raise CheckError("unsupported expression %r" % type(e).__name__)
        if memo:
            types[id(e)] = (e, t)
        return t

    return check(e, expected)


def _extended(dialect: str, e) -> None:
    if dialect == "core" and isinstance(e, (If, Seq, Panic, Neq)):
        raise CheckError("%s is not core fg" % type(e).__name__.lower())


def _join(tt, te, expected, sub):
    if isinstance(tt, Bottom):
        return te
    if isinstance(te, Bottom):
        return tt
    if tt == te:
        return tt
    if sub(tt, te):
        return te
    if sub(te, tt):
        return tt
    if expected is not None and sub(tt, expected) and sub(te, expected):
        return expected
    raise CheckError(
        "t-if: branches have incompatible types %s and %s"
        % (print_type(tt), print_type(te))
    )


def _fg_interface_join(tt, te, decls: Decls):
    """Least declared interface implemented by both branch types; used when
    a mid-reduction if holds values of distinct struct types."""
    if isinstance(tt, Bottom) or isinstance(te, Bottom):
        return None
    cands = [
        TypeApp(i)
        for i in decls.interfaces
        if fg_subtype(tt.name, i, decls) and fg_subtype(te.name, i, decls)
    ]
    if not cands:
        return None
    minimal = [
        c
        for c in cands
        if all(d == c or not fg_subtype(d.name, c.name, decls) or fg_subtype(c.name, d.name, decls) for d in cands)
    ]
    pick = minimal or cands
    return sorted(pick, key=lambda t: t.name)[0]


def fg_typecheck_program(program: Program, dialect: str = "core") -> list:
    """Check a whole FG program; returns a list of diagnostics (empty = ok)."""
    decls = Decls(program)
    diags = [Diagnostic(m) for m in decls.duplicates]

    def note(err: CheckError, where: str):
        diags.append(Diagnostic("%s: %s" % (where, err.message)))

    for d in program.decls:
        if isinstance(d, (StructDecl, InterfaceDecl)) and d.formal:
            diags.append(Diagnostic("t-type: fg declarations take no type formal (%s)" % d.name))
    for name, d in list(decls.structs.items()):
        if name in BUILTIN_STRUCTS:
            continue
        seen = set()
        for f in d.fields:
            if f.name in seen:
                diags.append(Diagnostic("t-struct: duplicate field %s in %s" % (f.name, name)))
            seen.add(f.name)
            try:
                _fg_wf(f.type, decls)
            except CheckError as err:
                note(err, "struct %s" % name)
    for name, d in decls.interfaces.items():
        seen = set()
        for s in d.specs:
            if s.name in seen:
                diags.append(Diagnostic("t-interface: duplicate method %s in %s" % (s.name, name)))
            seen.add(s.name)
            if s.sig.tformal:
                diags.append(Diagnostic("t-specification: fg specs take no type formal"))
            try:
                for p in s.sig.params:
                    _fg_wf(p.type, decls)
                _fg_wf(s.sig.ret, decls)
            except CheckError as err:
                note(err, "interface %s" % name)
    for (tname, mname), m in decls.methods.items():
        where = "method %s.%s" % (tname, mname)
        if decls.kind_of(tname) != "struct":
            diags.append(Diagnostic("t-func: receiver %s is not a declared struct" % tname))
            continue
        if m.recv_params or m.sig.tformal:
            diags.append(Diagnostic("t-func: fg methods take no type parameters (%s)" % where))
            continue
        names = [m.recv_name] + [p.name for p in m.sig.params]
        if len(set(names)) != len(names):
            diags.append(Diagnostic("t-func: parameter names not distinct in %s" % where))
        try:
            for p in m.sig.params:
                _fg_wf(p.type, decls)
            _fg_wf(m.sig.ret, decls)
            gamma = {m.recv_name: TypeApp(tname)}
            gamma.update({p.name: p.type for p in m.sig.params})
            t = fg_typecheck_expr(m.body, gamma, decls, expected=m.sig.ret, dialect=dialect)
            if not (isinstance(t, Bottom) or fg_subtype(t.name, m.sig.ret.name, decls)):
                diags.append(
                    Diagnostic(
                        "t-func: body of %s has type %s, not a subtype of %s"
                        % (where, print_type(t), print_type(m.sig.ret))
                    )
                )
        except CheckError as err:
            note(err, where)
    try:
        fg_typecheck_expr(program.main, {}, decls, dialect=dialect)
    except CheckError as err:
        note(err, "main")
    return diags


# ---------------------------------------------------------------------------
# FGG method sets, subtyping, well-formedness


def fgg_methods(tau: Type, delta: dict, decls: Decls) -> dict:
    """methods_Delta(tau): specification set with type actuals substituted;
    for a type parameter, the methods of its bound."""
    if isinstance(tau, TypeParam):
        bound = delta.get(tau.name)
        if bound is None:
            raise CheckError("t-param: unknown type parameter %s" % tau.name)
        return fgg_methods(bound, delta, decls)
    d = decls.type_decl(tau.name)
    if d is None:
        raise CheckError("t-named: unknown type %s" % tau.name)
    if len(d.formal) != len(tau.args):
        raise CheckError(
            "t-named: %s expects %d type arguments, got %d"
            % (tau.name, len(d.formal), len(tau.args))
        )
    if isinstance(d, InterfaceDecl):
        eta = {fp.name: a for fp, a in zip(d.formal, tau.args)}
        return {s.name: subst_sig(s.sig, eta) for s in d.specs}
    out = {}
    for m in decls.methods_by_type.get(tau.name, ()):
        eta = {r: a for r, a in zip(m.recv_params, tau.args)}
        out[m.name] = subst_sig(m.sig, eta)
    return out


def fgg_subtype(tau: Type, sigma: Type, delta: dict, decls: Decls) -> bool:
    """tau <: sigma under delta. Closed goals (empty delta) are memoised in
    ``decls``."""
    if isinstance(tau, Bottom):
        return True
    if tau == sigma:
        return True
    if isinstance(sigma, TypeApp) and decls.kind_of(sigma.name) == "interface":
        if delta:
            return _fgg_iface_sub(tau, sigma, delta, decls)
        key = (tau, sigma)
        ok = decls.fgg_sub.get(key)
        if ok is None:
            ok = decls.fgg_sub[key] = _fgg_iface_sub(tau, sigma, delta, decls)
        return ok
    return False


def _fgg_iface_sub(tau, sigma, delta, decls) -> bool:
    try:
        need = fgg_methods(sigma, delta, decls)
        have = fgg_methods(tau, delta, decls)
    except CheckError:
        return False
    return all(m in have and canon_sig(have[m]) == canon_sig(need[m]) for m in need)


def fgg_bounds_check(formal, actuals, delta: dict, decls: Decls, what: str) -> dict:
    """(Phi :=_Delta phi): build the substitution and check each actual
    against its substituted bound. Returns the substitution."""
    if len(formal) != len(actuals):
        raise CheckError(
            "%s expects %d type arguments, got %d" % (what, len(formal), len(actuals))
        )
    eta = {fp.name: a for fp, a in zip(formal, actuals)}
    for fp, a in zip(formal, actuals):
        bound = subst_type(fp.bound, eta)
        if not fgg_subtype(a, bound, delta, decls):
            raise CheckError(
                "%s: type argument %s does not implement bound %s"
                % (what, print_type(a), print_type(bound))
            )
    return eta


def fgg_wf(tau: Type, delta: dict, decls: Decls) -> None:
    if isinstance(tau, TypeParam):
        if tau.name not in delta:
            raise CheckError("t-param: unknown type parameter %s" % tau.name)
        return
    d = decls.type_decl(tau.name)
    if d is None:
        raise CheckError("t-named: unknown type %s" % tau.name)
    for a in tau.args:
        fgg_wf(a, delta, decls)
    fgg_bounds_check(d.formal, tau.args, delta, decls, "t-named: %s" % tau.name)


def fgg_bounds_of(tau: Type, delta: dict) -> Type:
    if isinstance(tau, TypeParam):
        return delta[tau.name]
    return tau


# ---------------------------------------------------------------------------
# FGG expressions


def fgg_typecheck_expr(e: Expr, delta: dict, gamma: dict, decls: Decls, expected=None, types=None):
    """Type an FGG expression under (delta; gamma); returns the derived type.

    ``types`` is an optional side table for one (delta; gamma), as for
    ``fg_typecheck_expr``.
    """

    def sub(t, u) -> bool:
        return fgg_subtype(t, u, delta, decls)

    def kindish(t: Type):
        # "struct" | "interface" | "param"
        if isinstance(t, TypeParam):
            return "param"
        return decls.kind_of(t.name)

    def check(e, expected=None):
        # one frame per node: the side table is consulted inline
        memo = types is not None and expected is None
        if memo:
            hit = types.get(id(e))
            if hit is not None:
                return hit[1]
        if isinstance(e, Var):
            if e.name not in gamma:
                raise CheckError("t-var: unknown variable %s" % e.name)
            t = gamma[e.name]
        elif isinstance(e, IntLit):
            t = TypeApp("int")
        elif isinstance(e, BoolLit):
            t = TypeApp("bool")
        elif isinstance(e, StructLit):
            if decls.kind_of(e.type.name) != "struct":
                raise CheckError("t-literal: %s is not a struct" % print_type(e.type))
            fgg_wf(e.type, delta, decls)
            d = decls.structs[e.type.name]
            eta = {fp.name: a for fp, a in zip(d.formal, e.type.args)}
            fields = [(f.name, subst_type(f.type, eta)) for f in d.fields]
            if len(fields) != len(e.args):
                raise CheckError(
                    "t-literal: struct %s expects %d fields, got %d"
                    % (print_type(e.type), len(fields), len(e.args))
                )
            for (fname, ftype), a in zip(fields, e.args):
                ta = check(a)
                if not sub(ta, ftype):
                    raise CheckError(
                        "t-literal: field %s of %s needs %s, got %s"
                        % (fname, print_type(e.type), print_type(ftype), print_type(ta))
                    )
            t = e.type
        elif isinstance(e, FieldSel):
            tr = check(e.recv)
            if kindish(tr) != "struct":
                raise CheckError("t-field: selecting %s on non-struct %s" % (e.fieldname, print_type(tr)))
            d = decls.structs[tr.name]
            eta = {fp.name: a for fp, a in zip(d.formal, tr.args)}
            for f in d.fields:
                if f.name == e.fieldname:
                    t = subst_type(f.type, eta)
                    break
            else:
                raise CheckError("t-field: %s has no field %s" % (print_type(tr), e.fieldname))
        elif isinstance(e, MethodCall):
            tr = check(e.recv)
            if isinstance(tr, Bottom):
                raise CheckError("t-call: call on panic")
            mset = fgg_methods(tr, delta, decls)
            sig = mset.get(e.name)
            if sig is None:
                raise CheckError("t-call: no method %s on %s" % (e.name, print_type(tr)))
            for ta in e.targs:
                fgg_wf(ta, delta, decls)
            eta = fgg_bounds_check(
                sig.tformal, e.targs, delta, decls, "t-call: %s.%s" % (print_type(tr), e.name)
            )
            if len(sig.params) != len(e.args):
                raise CheckError(
                    "t-call: %s.%s expects %d arguments, got %d"
                    % (print_type(tr), e.name, len(sig.params), len(e.args))
                )
            for p, a in zip(sig.params, e.args):
                ta = check(a)
                want = subst_type(p.type, eta)
                if not sub(ta, want):
                    raise CheckError(
                        "t-call: argument %s of %s.%s: %s does not implement %s"
                        % (p.name, print_type(tr), e.name, print_type(ta), print_type(want))
                    )
            t = subst_type(sig.ret, eta)
        elif isinstance(e, TypeAssert):
            fgg_wf(e.type, delta, decls)
            tr = check(e.recv)
            t = e.type
            # t-stupid on a struct receiver, t-assert_I on an interface or
            # parameter target, otherwise t-assert_S
            if not (
                isinstance(tr, Bottom)
                or kindish(tr) == "struct"
                or kindish(e.type) in ("interface", "param")
            ):
                bound = fgg_bounds_of(tr, delta)
                if not sub(e.type, bound):
                    raise CheckError(
                        "t-assert_S: %s does not implement %s"
                        % (print_type(e.type), print_type(bound))
                    )
        elif isinstance(e, Binop):
            for side in (e.left, e.right):
                ts = check(side)
                if ts != TypeApp("int"):
                    raise CheckError("t-binop: operand of %s must be int, got %s" % (e.op, print_type(ts)))
            t = TypeApp("bool") if e.op in ("<", ">") else TypeApp("int")
        elif isinstance(e, If):
            tc = check(e.cond)
            if tc != TypeApp("bool"):
                raise CheckError("t-if: condition must be bool, got %s" % print_type(tc))
            tt = check(e.then, expected)
            te = check(e.els, expected)
            try:
                t = _join(tt, te, expected, sub)
            except CheckError:
                # mid-reduction the branches may hold distinct struct values;
                # join them at the least declared interface both implement
                t = _fgg_interface_join(tt, te, delta, decls)
                if t is None:
                    raise
        elif isinstance(e, Seq):
            check(e.first)
            t = check(e.rest, expected)
        elif isinstance(e, Neq):
            check(e.left)
            check(e.right)
            t = TypeApp("bool")
        elif isinstance(e, Panic):
            t = expected if expected is not None else BOTTOM
        else:
            raise CheckError("unsupported expression %r" % type(e).__name__)
        if memo:
            types[id(e)] = (e, t)
        return t

    return check(e, expected)


def _type_subterms(t: Type, out=None) -> set:
    if out is None:
        out = set()
    out.add(t)
    if isinstance(t, TypeApp):
        for a in t.args:
            _type_subterms(a, out)
    return out


def _fgg_interface_join(tt: Type, te: Type, delta: dict, decls: Decls):
    """Least declared interface instantiation implemented by both types.
    Candidate type arguments are drawn from the types occurring in either
    side; deterministic (declaration order, then printed form)."""
    import itertools

    pool = sorted(_type_subterms(tt) | _type_subterms(te), key=print_type)
    cands = []
    for iface in decls.interfaces.values():
        for args in itertools.product(pool, repeat=len(iface.formal)):
            cand = TypeApp(iface.name, args)
            try:
                fgg_wf(cand, delta, decls)
            except CheckError:
                continue
            if fgg_subtype(tt, cand, delta, decls) and fgg_subtype(te, cand, delta, decls):
                cands.append(cand)
    if not cands:
        return None
    minimal = [
        c
        for c in cands
        if all(d == c or not fgg_subtype(d, c, delta, decls) or fgg_subtype(c, d, delta, decls) for d in cands)
    ]
    pick = minimal or cands
    return sorted(pick, key=print_type)[0]


# ---------------------------------------------------------------------------
# FGG declarations and programs


def _fgg_formal_ok(formal, outer_delta: dict, decls: Decls, where: str, diags: list) -> dict:
    """t-formal: distinct names; bounds are interfaces, well-formed under the
    whole environment (mutual recursion allowed). Returns the extended delta."""
    names = [fp.name for fp in formal]
    if len(set(names)) != len(names) or any(n in outer_delta for n in names):
        diags.append(Diagnostic("t-formal: type parameters not distinct in %s" % where))
    delta = dict(outer_delta)
    delta.update({fp.name: fp.bound for fp in formal})
    for fp in formal:
        bad = not isinstance(fp.bound, TypeApp) or decls.kind_of(fp.bound.name) != "interface"
        if bad:
            diags.append(
                Diagnostic(
                    "t-formal: bound of %s in %s must be an interface type" % (fp.name, where)
                )
            )
            continue
        try:
            fgg_wf(fp.bound, delta, decls)
        except CheckError as err:
            diags.append(Diagnostic("t-formal: %s: %s" % (where, err.message)))
    return delta


def fgg_typecheck_program(program: Program) -> list:
    """Check a whole FGG program; returns a list of diagnostics (empty = ok)."""
    decls = Decls(program)
    diags = [Diagnostic(m) for m in decls.duplicates]

    for name, d in list(decls.structs.items()):
        if name in BUILTIN_STRUCTS:
            continue
        where = "struct %s" % name
        delta = _fgg_formal_ok(d.formal, {}, decls, where, diags)
        seen = set()
        for f in d.fields:
            if f.name in seen:
                diags.append(Diagnostic("t-struct: duplicate field %s in %s" % (f.name, name)))
            seen.add(f.name)
            try:
                fgg_wf(f.type, delta, decls)
            except CheckError as err:
                diags.append(Diagnostic("t-struct: %s: %s" % (where, err.message)))

    for name, d in decls.interfaces.items():
        where = "interface %s" % name
        delta = _fgg_formal_ok(d.formal, {}, decls, where, diags)
        seen = set()
        for s in d.specs:
            if s.name in seen:
                diags.append(Diagnostic("t-interface: duplicate method %s in %s" % (s.name, name)))
            seen.add(s.name)
            sdelta = _fgg_formal_ok(s.sig.tformal, delta, decls, "%s.%s" % (name, s.name), diags)
            pnames = [p.name for p in s.sig.params]
            if len(set(pnames)) != len(pnames):
                diags.append(Diagnostic("t-specification: parameter names not distinct in %s.%s" % (name, s.name)))
            try:
                for p in s.sig.params:
                    fgg_wf(p.type, sdelta, decls)
                fgg_wf(s.sig.ret, sdelta, decls)
            except CheckError as err:
                diags.append(Diagnostic("t-specification: %s.%s: %s" % (name, s.name, err.message)))

    for (tname, mname), m in decls.methods.items():
        where = "method %s.%s" % (tname, mname)
        if decls.kind_of(tname) != "struct":
            diags.append(Diagnostic("t-func: receiver %s is not a declared struct" % tname))
            continue
        sd = decls.structs[tname]
        if len(m.recv_params) != len(sd.formal):
            diags.append(
                Diagnostic(
                    "t-func: receiver of %s needs %d type parameters, got %d"
                    % (where, len(sd.formal), len(m.recv_params))
                )
            )
            continue
        # Receiver bounds come from the struct declaration, renamed to the
        # receiver's parameter list.
        ren = {fp.name: TypeParam(r) for fp, r in zip(sd.formal, m.recv_params)}
        recv_formal = tuple(
            fp.__class__(r, subst_type(fp.bound, ren)) for fp, r in zip(sd.formal, m.recv_params)
        )
        if len(set(m.recv_params)) != len(m.recv_params):
            diags.append(Diagnostic("t-func: receiver type parameters not distinct in %s" % where))
            continue
        delta = {fp.name: fp.bound for fp in recv_formal}
        delta = _fgg_formal_ok(m.sig.tformal, delta, decls, where, diags)
        names = [m.recv_name] + [p.name for p in m.sig.params]
        if len(set(names)) != len(names):
            diags.append(Diagnostic("t-func: parameter names not distinct in %s" % where))
        try:
            for p in m.sig.params:
                fgg_wf(p.type, delta, decls)
            fgg_wf(m.sig.ret, delta, decls)
            gamma = {m.recv_name: TypeApp(tname, tuple(TypeParam(r) for r in m.recv_params))}
            gamma.update({p.name: p.type for p in m.sig.params})
            t = fgg_typecheck_expr(m.body, delta, gamma, decls, expected=m.sig.ret)
            if not fgg_subtype(t, m.sig.ret, delta, decls):
                diags.append(
                    Diagnostic(
                        "t-func: body of %s has type %s, not a subtype of %s"
                        % (where, print_type(t), print_type(m.sig.ret))
                    )
                )
        except CheckError as err:
            diags.append(Diagnostic("%s: %s" % (where, err.message)))

    try:
        fgg_typecheck_expr(program.main, {}, {}, decls)
    except CheckError as err:
        diags.append(Diagnostic("main: %s" % err.message))
    return diags
