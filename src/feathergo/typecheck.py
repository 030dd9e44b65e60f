"""Typechecker for FGG, and for FG as its parameter-free fragment.

FG is FGG without type parameters, so there is one judgement: an FG program
is checked by the FGG rules under an empty type environment, after one walk
that reports what the FG grammar lacks (type formals, type actuals and,
under the "core" dialect, ``if``/sequencing/``panic``/``!=``).

The checker is a pure function of the program; the program-level entry
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
    MethodSpec,
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
    fold,
    print_type,
    subexprs,
    walk,
)

BUILTIN_STRUCTS = ("int", "bool")


class CheckError(Exception):
    def __init__(self, message: str):
        self.message = message
        super().__init__(message)


@dataclass(frozen=True)
class Bottom:
    """Type of ``panic``: subtype of everything. It prints as ``panic`` and
    names no declaration, so a rule that needs a struct, ``int`` or
    ``bool`` rejects it like any other wrong type."""

    name = "panic"
    args = ()


BOTTOM = Bottom()


class Decls:
    """Indexed declaration tables for one program (plus builtins).

    Three memo tables, filled lazily, answer each question once per
    program: ``fg_sub`` maps ``(t, u)`` to ``fg_subtype(t, u)``,
    ``fgg_sub`` maps ``(tau, sigma)`` to ``fgg_subtype`` under an empty
    delta (a closed goal cannot depend on delta), and ``msets`` maps a
    ``TypeApp`` to its substituted method set (which never depends on
    delta). All rely on a ``Decls`` never being mutated after
    construction: build a new one for a new program. The tables live on
    the instance, so checks of distinct programs never share an entry.
    """

    def __init__(self, program: Program):
        self.program = program
        self.fg_sub: dict = {}
        self.fgg_sub: dict = {}
        self.msets: dict = {}
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
    if not mapping:
        return sig
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
# Method sets, subtyping, well-formedness


def fgg_methods(tau: Type, delta: dict, decls: Decls) -> dict:
    """methods_Delta(tau): specification set with type actuals substituted;
    for a type parameter, the methods of its bound. The set of a ``TypeApp``
    is built once per program and shared: callers must not mutate it."""
    if isinstance(tau, TypeParam):
        bound = delta.get(tau.name)
        if bound is None:
            raise CheckError("t-param: unknown type parameter %s" % tau.name)
        return fgg_methods(bound, delta, decls)
    mset = decls.msets.get(tau)
    if mset is None:
        mset = decls.msets[tau] = _method_set(tau, decls)
    return mset


def _method_set(tau: TypeApp, decls: Decls) -> dict:
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


def fg_subtype(t: str, u: str, decls: Decls) -> bool:
    """t <: u between FG type names: FGG subtyping of the nullary types
    under an empty delta, memoised in ``decls`` by name."""
    key = (t, u)
    ok = decls.fg_sub.get(key)
    if ok is None:
        ok = decls.fg_sub[key] = fgg_subtype(TypeApp(t), TypeApp(u), {}, decls)
    return ok


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
    if tau.args or d.formal:  # a nullary type, as every FG type is, has no bounds
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

    ``types``, if given, is a side table ``id(node) -> (node, type)`` for
    one (delta; gamma): it is read and filled wherever no type is expected,
    so a caller that types overlapping subterms under the same environment
    types each of them once. Holding the node keeps its id from being
    reused while the table lives.
    """
    hit = types.get(id(e)) if types is not None and expected is None else None
    if hit is not None:
        return hit[1]

    def sub(t, u) -> bool:
        return fgg_subtype(t, u, delta, decls)

    def kindish(t: Type):
        # "struct" | "interface" | "param"
        if isinstance(t, TypeParam):
            return "param"
        return decls.kind_of(t.name)

    # ``expected`` reaches only the tail positions: the root and, below a
    # tail, the branches of an ``if`` and the rest of a sequence
    tails, todo = set(), [e] if expected is not None else []
    while todo:
        n = todo.pop()
        tails.add(id(n))
        todo += (n.then, n.els) if type(n) is If else (n.rest,) if type(n) is Seq else ()

    def unknown(n):  # a subterm the side table holds is not descended into
        return () if id(n) in types and id(n) not in tails else subexprs(n)

    def check(e, ts):
        # one call per node, after its subexpressions: ts holds each one's
        # type, or the CheckError typing it raised, which _need raises where
        # the rule first needs that subexpression, so a rule's own checks
        # that come before that point still report first
        exp = expected if expected is not None and id(e) in tails else None
        memo = types is not None and exp is None
        if memo:
            hit = types.get(id(e))
            if hit is not None:
                return hit[1]
        try:
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
                for (fname, ftype), ta in zip(fields, ts):
                    if not sub(_need(ta), ftype):
                        raise CheckError(
                            "t-literal: field %s of %s needs %s, got %s"
                            % (fname, print_type(e.type), print_type(ftype), print_type(ta))
                        )
                t = e.type
            elif isinstance(e, FieldSel):
                tr = _need(ts[0])
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
                tr = _need(ts[0])
                if isinstance(tr, Bottom):
                    raise CheckError("t-call: call on panic")
                mset = fgg_methods(tr, delta, decls)
                sig = mset.get(e.name)
                if sig is None:
                    raise CheckError("t-call: no method %s on %s" % (e.name, print_type(tr)))
                eta = {}
                if sig.tformal or e.targs:  # as for fgg_wf: no formals, nothing to bind
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
                for p, ta in zip(sig.params, ts[1:]):
                    want = subst_type(p.type, eta)
                    if not sub(_need(ta), want):
                        raise CheckError(
                            "t-call: argument %s of %s.%s: %s does not implement %s"
                            % (p.name, print_type(tr), e.name, print_type(ta), print_type(want))
                        )
                t = subst_type(sig.ret, eta)
            elif isinstance(e, TypeAssert):
                fgg_wf(e.type, delta, decls)
                tr = _need(ts[0])
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
                for ts_side in ts:
                    if _need(ts_side) != TypeApp("int"):
                        raise CheckError("t-binop: operand of %s must be int, got %s" % (e.op, print_type(ts_side)))
                t = TypeApp("bool") if e.op in ("<", ">") else TypeApp("int")
            elif isinstance(e, If):
                if _need(ts[0]) != TypeApp("bool"):
                    raise CheckError("t-if: condition must be bool, got %s" % print_type(ts[0]))
                tt, te = _need(ts[1]), _need(ts[2])
                try:
                    t = _join(tt, te, exp, sub)
                except CheckError:
                    # mid-reduction the branches may hold distinct struct values;
                    # join them at the least declared interface both implement
                    t = _fgg_interface_join(tt, te, delta, decls)
                    if t is None:
                        raise
            elif isinstance(e, Seq):
                _need(ts[0])
                t = _need(ts[1])
            elif isinstance(e, Neq):
                _need(ts[0])
                _need(ts[1])
                t = TypeApp("bool")
            elif isinstance(e, Panic):
                t = exp if exp is not None else BOTTOM
            else:
                raise CheckError("unsupported expression %r" % type(e).__name__)
        except CheckError as err:
            return err
        if memo:
            types[id(e)] = (e, t)
        return t

    return _need(fold(e, check, subexprs if types is None else unknown))


def _need(t):
    """A subexpression's type, or the CheckError that typing it raised."""
    if isinstance(t, CheckError):
        raise t
    return t


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


def _fgg_interface_join(tt: Type, te: Type, delta: dict, decls: Decls):
    """Least declared interface instantiation implemented by both types.
    Candidate type arguments are drawn from the types occurring in either
    side; deterministic (declaration order, then printed form)."""
    import itertools

    pool = sorted(set(walk(tt)) | set(walk(te)), key=print_type)
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
# Declarations and programs


def _fgg_formal_ok(formal, outer_delta: dict, decls: Decls, where: str, diags: list) -> dict:
    """t-formal: distinct names; bounds are interfaces, well-formed under the
    whole environment (mutual recursion allowed). Returns the extended delta."""
    if not formal:
        return outer_delta
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
    return _check_program(program)


def fg_typecheck_program(program: Program, dialect: str = "core") -> list:
    """Check a whole FG program; returns a list of diagnostics (empty = ok).

    FG is the parameter-free fragment of FGG: one walk reports each node
    outside the fragment, then the FGG judgement checks the program under
    an empty type environment."""
    diags = [Diagnostic(m) for m in (_not_fg(n, dialect) for n in walk(program)) if m]
    return diags + _check_program(program)


def _not_fg(n, dialect: str):
    """The FG rule that node ``n`` breaks, as a message, or None. Named
    types come first: they are the most frequent nodes."""
    if isinstance(n, TypeApp):
        return "t-named: %s is not an fg type" % print_type(n) if n.args else None
    if isinstance(n, TypeParam):
        return "t-named: %s is not an fg type" % n.name
    if isinstance(n, MethodCall) and n.targs:
        return "t-call: fg methods take no type arguments (%s)" % n.name
    if dialect == "core" and isinstance(n, (If, Seq, Panic, Neq)):
        return "t-core: %s is not core fg" % type(n).__name__.lower()
    if isinstance(n, (StructDecl, InterfaceDecl)) and n.formal:
        return "t-type: fg declarations take no type formal (%s)" % n.name
    if isinstance(n, MethodSpec) and n.sig.tformal:
        return "t-specification: fg specs take no type formal (%s)" % n.name
    if isinstance(n, MethodDecl) and (n.recv_params or n.sig.tformal):
        return "t-func: fg methods take no type parameters (method %s.%s)" % (n.recv_type, n.name)
    return None


def _check_program(program: Program) -> list:
    """The FGG program judgement behind both entry points. FG checking
    calls it directly, so a count of ``fgg_typecheck_program`` calls
    counts the FGG programs checked."""
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
