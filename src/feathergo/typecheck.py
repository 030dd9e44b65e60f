"""Typechecker for FGG, and for FG as its parameter-free fragment.

FG is FGG without type parameters, so there is one judgement: an FG program
is checked by the FGG rules under an empty type environment. What the FG
grammar lacks (type formals, type actuals and, under the "core" dialect,
``if``/sequencing/``panic``/``!=``) is reported ahead of the judgement's
diagnostics, each at its declaration's position, by a walk that runs only
where the judgement alone cannot show there is none.

The checker is a pure function of the program; the program-level entry
points return a (possibly empty) list of diagnostics, each citing the rule
that failed. For FGG that is a ``Checked`` list, which the translators and
co-simulation start from: ``fgg_typecheck_program`` judges a ``Program``
object once and keeps the result with it, so every later call on the same
object returns the same ``Checked``. Expression-level checking raises
CheckError internally.

``int`` and ``bool`` are predeclared struct-kinded types with no fields;
``<``/``>``/``+``/``-`` are typed (int, int) -> bool/int. Users may declare
methods with them as receivers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .parser import Diagnostic
from .syntax import (
    BOOL,
    INT,
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
    fold,
    print_type,
    subexprs,
    type_args,
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
    program: ``fgg_sub`` maps ``(tau, sigma)``, ``sigma`` an interface, to
    ``fgg_subtype`` under an empty delta (a closed goal cannot depend on
    delta; ``fg_subtype`` goes through it too), ``msets`` maps a
    ``TypeApp`` to its substituted method set (which never depends on
    delta), and ``templates`` maps a method's ``(recv_type, name)`` to its
    body template, which r-call compiles (``reduce.compile_body``)
    at its first call. All rely on a ``Decls`` never being mutated after
    construction: build a new one for a new program. The tables live on
    the instance, so checks of distinct programs never share an entry;
    types are interned, so a key of types hashes by identity. A ``Decls``
    keeps the program's declarations, not the program, so the judgement a
    program keeps refers back to nothing that keeps it alive.
    """

    def __init__(self, program: Program):
        self.fgg_sub: dict = {}
        self.msets: dict = {}
        self.templates: dict = {}
        self.structs: dict = {s: StructDecl(s) for s in BUILTIN_STRUCTS}
        self.interfaces: dict = {}
        self.methods: dict = {}  # (recv_type, name) -> MethodDecl
        self.methods_by_type: dict = {}  # recv_type -> [MethodDecl] in decl order
        self.duplicates: list = []
        for d in program.decls:
            if isinstance(d, (StructDecl, InterfaceDecl)):
                self._add_type(d)
            elif isinstance(d, MethodDecl):
                key = (d.recv_type, d.name)
                if key in self.methods:
                    self.duplicates.append(Diagnostic("t-prog: duplicate method declaration %s.%s" % key, *d.pos))
                else:
                    self.methods[key] = d
                    self.methods_by_type.setdefault(d.recv_type, []).append(d)

    def _add_type(self, d) -> None:
        table = self.structs if isinstance(d, StructDecl) else self.interfaces
        if d.name in self.structs or d.name in self.interfaces:
            what = "builtin" if d.name in BUILTIN_STRUCTS else "type"
            self.duplicates.append(Diagnostic("t-prog: duplicate %s declaration %s" % (what, d.name), *d.pos))
        else:
            table[d.name] = d

    def type_decl(self, name: str):
        return self.structs.get(name) or self.interfaces.get(name)


# ---------------------------------------------------------------------------
# Substitution and signature canonicalisation (shared by FGG checking,
# reduction and the translators)


def subst_type(t: Type, mapping: dict) -> Type:
    if type(t) is TypeParam:
        return mapping.get(t.name, t)
    if not t.args:
        return t

    def subst(n, kids):
        return mapping.get(n.name, n) if type(n) is TypeParam else TypeApp(n.name, tuple(kids)) if kids else n

    return fold(t, subst, type_args)


def subst_sig(sig: MethodSig, mapping: dict) -> MethodSig:
    """Substitute type parameters in a signature. The signature's own formal
    parameters are binders and must not occur in ``mapping``."""
    if not mapping:
        return sig
    tformal = tuple(fp.__class__(fp.name, subst_type(fp.bound, mapping)) for fp in sig.tformal)
    params = tuple(p.__class__(p.name, subst_type(p.type, mapping)) for p in sig.params)
    return MethodSig(tformal, params, subst_type(sig.ret, mapping))


def canon_sig(sig: MethodSig) -> tuple:
    """Signature identity for method-set comparison: value-parameter names are
    irrelevant and the method's own type parameters compare positionally."""
    if not sig.tformal:
        return ((), tuple([p.type for p in sig.params]), sig.ret)
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
    seen = set()  # a malformed formal's bounds can name each other
    while type(tau) is TypeParam:
        if tau.name not in delta:
            raise CheckError("t-param: unknown type parameter %s" % tau.name)
        if tau.name in seen:
            raise CheckError("t-param: cyclic bound of type parameter %s" % tau.name)
        seen.add(tau.name)
        tau = delta[tau.name]
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
    return {m.name: subst_sig(m.sig, dict(zip(m.recv_params, tau.args))) for m in decls.methods_by_type.get(tau.name, ())}


def fgg_subtype(tau: Type, sigma: Type, delta: dict, decls: Decls) -> bool:
    """tau <: sigma under delta. Closed goals (empty delta) are memoised in
    ``decls``."""
    if tau == sigma or type(tau) is Bottom:
        return True
    if type(sigma) is TypeApp and sigma.name in decls.interfaces:
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
    under an empty delta, whose interface goals ``decls.fgg_sub`` keeps."""
    return t == u or fgg_subtype(TypeApp(t), TypeApp(u), {}, decls)


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
    # names are looked up on entering a node, bounds checked on leaving it, as in a recursive descent
    todo = [tau]  # types to enter, and (type, decl) pairs to leave
    while todo:
        t = todo.pop()
        if type(t) is tuple:
            fgg_bounds_check(t[1].formal, t[0].args, delta, decls, "t-named: %s" % t[0].name)
        elif type(t) is TypeParam:
            if t.name not in delta:
                raise CheckError("t-param: unknown type parameter %s" % t.name)
        elif (d := decls.type_decl(t.name)) is None:
            raise CheckError("t-named: unknown type %s" % t.name)
        elif t.args or d.formal:  # a nullary type, as every FG type is, has no bounds
            todo += [(t, d), *reversed(t.args)]


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
            t_e = type(e)  # the classes in order of how often translated programs hold them
            if t_e is StructLit:
                d = decls.structs.get(e.type.name) if type(e.type) is TypeApp else None
                if d is None:
                    raise CheckError("t-literal: %s is not a struct" % print_type(e.type))
                fields = d.fields
                if d.formal or e.type.args:  # as for fgg_wf: a nullary type is well formed
                    fgg_wf(e.type, delta, decls)
                    eta = {fp.name: a for fp, a in zip(d.formal, e.type.args)}
                    fields = [Param(f.name, subst_type(f.type, eta)) for f in fields]
                if len(fields) != len(e.args):
                    raise CheckError(
                        "t-literal: struct %s expects %d fields, got %d"
                        % (print_type(e.type), len(fields), len(e.args))
                    )
                for f, ta in zip(fields, ts):
                    if not sub(_need(ta), f.type):
                        raise CheckError(
                            "t-literal: field %s of %s needs %s, got %s"
                            % (f.name, print_type(e.type), print_type(f.type), print_type(ta))
                        )
                t = e.type
            elif t_e is Var:
                if e.name not in gamma:
                    raise CheckError("t-var: unknown variable %s" % e.name)
                t = gamma[e.name]
            elif t_e is TypeAssert:
                fgg_wf(e.type, delta, decls)
                tr = _need(ts[0])
                t = e.type
                # t-stupid on a struct receiver, t-assert_I on an interface or
                # parameter target, otherwise t-assert_S
                if not (
                    type(tr) is Bottom
                    or type(tr) is TypeApp and tr.name in decls.structs
                    or type(e.type) is TypeParam
                    or e.type.name in decls.interfaces
                ):
                    bound = fgg_bounds_of(tr, delta)
                    if not sub(e.type, bound):
                        raise CheckError(
                            "t-assert_S: %s does not implement %s"
                            % (print_type(e.type), print_type(bound))
                        )
            elif t_e is MethodCall:
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
            elif t_e is Binop:
                for ts_side in ts:
                    if _need(ts_side) != INT:
                        raise CheckError("t-binop: operand of %s must be int, got %s" % (e.op, print_type(ts_side)))
                t = BOOL if e.op in ("<", ">") else INT
            elif t_e is IntLit:
                t = INT
            elif t_e is Panic:
                t = exp if exp is not None else BOTTOM
            elif t_e is FieldSel:
                tr = _need(ts[0])
                d = decls.structs.get(tr.name) if type(tr) is TypeApp else None
                if d is None:
                    raise CheckError("t-field: selecting %s on non-struct %s" % (e.fieldname, print_type(tr)))
                eta = {fp.name: a for fp, a in zip(d.formal, tr.args)}
                for f in d.fields:
                    if f.name == e.fieldname:
                        t = subst_type(f.type, eta)
                        break
                else:
                    raise CheckError("t-field: %s has no field %s" % (print_type(tr), e.fieldname))
            elif t_e is If:
                if _need(ts[0]) != BOOL:
                    raise CheckError("t-if: condition must be bool, got %s" % print_type(ts[0]))
                tt, te = _need(ts[1]), _need(ts[2])
                try:
                    t = _join(tt, te, exp, sub)
                except CheckError:
                    # mid-reduction the branches may hold distinct struct values;
                    # join them at the least declared interface both implement
                    t = _interface_join(tt, te, delta, decls)
                    if t is None:
                        raise
            elif t_e is Neq:
                _need(ts[0])
                _need(ts[1])
                t = BOOL
            elif t_e is Seq:
                _need(ts[0])
                t = _need(ts[1])
            elif t_e is BoolLit:
                t = BOOL
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


def _interface_join(tt: Type, te: Type, delta: dict, decls: Decls):
    """Least declared interface instantiation implemented by both types.
    Candidate type arguments are drawn from the types occurring in either
    side; deterministic (declaration order, then printed form)."""
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


def _fgg_formal_ok(formal, outer_delta: dict, decls: Decls, where: str, pos: tuple, diags: list) -> dict:
    """t-formal: distinct names; bounds are interfaces, well-formed under the
    whole environment (mutual recursion allowed), each diagnostic at the
    declaration's ``pos``. Returns the extended delta."""
    if not formal:
        return outer_delta
    names = [fp.name for fp in formal]
    if len(set(names)) != len(names) or any(n in outer_delta for n in names):
        diags.append(Diagnostic("t-formal: type parameters not distinct in %s" % where, *pos))
    delta = dict(outer_delta)
    delta.update({fp.name: fp.bound for fp in formal})
    for fp in formal:
        if not isinstance(fp.bound, TypeApp) or fp.bound.name not in decls.interfaces:
            diags.append(Diagnostic("t-formal: bound of %s in %s must be an interface type" % (fp.name, where), *pos))
            continue
        try:
            fgg_wf(fp.bound, delta, decls)
        except CheckError as err:
            diags.append(Diagnostic("t-formal: %s: %s" % (where, err.message), *pos))
    return delta


class Checked(list):
    """A program's diagnostics, with the ``decls`` the check built and
    ``envs[(recv_type, name)]``, the ``(delta, gamma)`` that method's body
    is typed under (none if its receiver is malformed).

    One ``Checked`` is shared by every caller of ``fgg_typecheck_program``
    on the same program object, so nobody may mutate it, its ``envs`` or
    the environments in them; ``decls`` only fills its memo tables."""

    def __init__(self, diags: list, decls: Decls, envs: dict):
        super().__init__(diags)
        self.decls, self.envs = decls, envs


def fgg_typecheck_program(program: Program) -> Checked:
    """Check a whole FGG program; returns its diagnostics (empty = ok).

    The judgement runs on the first call for a program object and is kept
    in that object's ``__dict__``, outside its fields (so its ``==``,
    ``hash`` and ``repr`` do not see it); later calls return the same
    ``Checked``. Two threads that check a new program at once can at worst
    both run the judgement; each gets an equal result."""
    checked = program.__dict__.get("_checked")
    if checked is None:
        checked = program.__dict__["_checked"] = _check_program(program)
    return checked


def kept_decls(program: Program) -> Decls:
    """The ``Decls`` of the judgement ``program`` keeps, if
    ``fgg_typecheck_program`` judged it, else a new one; runs no
    judgement."""
    checked = program.__dict__.get("_checked")
    return Decls(program) if checked is None else checked.decls


def fg_typecheck_program(program: Program, dialect: str = "core") -> list:
    """Check a whole FG program; returns a list of diagnostics (empty = ok).

    FG is the parameter-free fragment of FGG: the FGG judgement checks the
    program under an empty type environment, and each node outside the
    fragment is reported ahead of the judgement's diagnostics. The walk that
    finds those nodes runs only when the judgement reports a diagnostic, a
    declaration carries a type formal, or the dialect is "core". Otherwise
    it would find nothing: with no formals every delta is empty, and the
    judgement puts every type the walk inspects (field, specification and
    method parameter and result types, literal and assertion types, call
    type actuals) through ``fgg_wf`` or ``fgg_bounds_check``, so a type
    parameter there is unknown and a type argument exceeds an empty
    formal list, each a diagnostic. ``dialect`` is "core" or "extended";
    any other raises ``ValueError``."""
    if dialect not in ("core", "extended"):
        raise ValueError("dialect must be 'core' or 'extended'")
    diags = list(_check_program(program))
    formals = (_not_fg_node(n, False) for d in program.decls for n in (d, *getattr(d, "specs", ())))
    if diags or dialect == "core" or any(formals):
        diags[:0] = _not_fg(program, dialect)
    return diags


def _not_fg(program: Program, dialect: str) -> list:
    """A diagnostic for each node of ``program`` outside the fragment,
    naming the FG rule it breaks, at its declaration's ``pos`` (``main``'s
    at the program's), in the order of ``walk``."""
    core = dialect == "core"
    return [
        Diagnostic(m, *d.pos)
        for d in (*program.decls, program)
        for n in walk(d.main if type(d) is Program else d)
        if (m := _not_fg_node(n, core))
    ]


def _not_fg_node(n, core: bool):
    """The FG rule node ``n`` breaks, as a message, or None."""
    t = type(n)
    if t is TypeParam or t is TypeApp and n.args:
        return "t-named: %s is not an fg type" % print_type(n)
    if t is MethodCall and n.targs:
        return "t-call: fg methods take no type arguments (%s)" % n.name
    if core and t in (If, Seq, Panic, Neq):
        return "t-core: %s is not core fg" % t.__name__.lower()
    if (t is StructDecl or t is InterfaceDecl) and n.formal:
        return "t-type: fg declarations take no type formal (%s)" % n.name
    if t is MethodSpec and n.sig.tformal:
        return "t-specification: fg specs take no type formal (%s)" % n.name
    if t is MethodDecl and (n.recv_params or n.sig.tformal):
        return "t-func: fg methods take no type parameters (method %s.%s)" % (n.recv_type, n.name)
    return None


def _check_program(program: Program) -> Checked:
    """The FGG program judgement behind both entry points. It runs once
    per program object that ``fgg_typecheck_program`` is called on, and
    once per ``fg_typecheck_program`` call, which keeps nothing: an FG
    program is checked once, and then only run. So a count of
    ``fgg_typecheck_program`` calls counts the callers that asked, the
    translators' included, not the judgements made. A declaration without
    type formals gets no renaming and no t-formal check, and a message is
    built only for a diagnostic."""
    decls = Decls(program)
    diags = list(decls.duplicates)
    envs = {}

    for name, d in decls.structs.items():
        if name in BUILTIN_STRUCTS:
            continue
        delta = _fgg_formal_ok(d.formal, {}, decls, "struct " + name, d.pos, diags) if d.formal else {}
        seen = set()
        for f in d.fields:
            if f.name in seen:
                diags.append(Diagnostic("t-struct: duplicate field %s in %s" % (f.name, name), *d.pos))
            seen.add(f.name)
            try:
                fgg_wf(f.type, delta, decls)
            except CheckError as err:
                diags.append(Diagnostic("t-struct: struct %s: %s" % (name, err.message), *d.pos))

    for name, d in decls.interfaces.items():
        delta = _fgg_formal_ok(d.formal, {}, decls, "interface " + name, d.pos, diags) if d.formal else {}
        seen = set()
        for s in d.specs:
            if s.name in seen:
                diags.append(Diagnostic("t-interface: duplicate method %s in %s" % (s.name, name), *d.pos))
            seen.add(s.name)
            sig = s.sig
            sdelta = delta
            if sig.tformal:
                sdelta = _fgg_formal_ok(sig.tformal, delta, decls, "%s.%s" % (name, s.name), d.pos, diags)
            if len({p.name for p in sig.params}) != len(sig.params):
                what = "parameter names not distinct in %s.%s" % (name, s.name)
                diags.append(Diagnostic("t-specification: " + what, *d.pos))
            try:
                for p in sig.params:
                    fgg_wf(p.type, sdelta, decls)
                fgg_wf(sig.ret, sdelta, decls)
            except CheckError as err:
                diags.append(Diagnostic("t-specification: %s.%s: %s" % (name, s.name, err.message), *d.pos))

    for key, m in decls.methods.items():
        sd = decls.structs.get(key[0])
        if sd is None:
            diags.append(Diagnostic("t-func: receiver %s is not a declared struct" % key[0], *m.pos))
            continue
        sig, delta, recv = m.sig, {}, TypeApp(key[0])
        if m.recv_params or sd.formal or sig.tformal:
            where = "method %s.%s" % key
            if len(m.recv_params) != len(sd.formal):
                what = "receiver of %s needs %d type parameters, got %d" % (where, len(sd.formal), len(m.recv_params))
                diags.append(Diagnostic("t-func: " + what, *m.pos))
                continue
            if len(set(m.recv_params)) != len(m.recv_params):
                diags.append(Diagnostic("t-func: receiver type parameters not distinct in %s" % where, *m.pos))
                continue
            # Receiver bounds come from the struct declaration, renamed to the
            # receiver's parameter list.
            ren = {fp.name: TypeParam(r) for fp, r in zip(sd.formal, m.recv_params)}
            delta = {r: subst_type(fp.bound, ren) for fp, r in zip(sd.formal, m.recv_params)}
            delta = _fgg_formal_ok(sig.tformal, delta, decls, where, m.pos, diags)
            recv = TypeApp(key[0], tuple(TypeParam(r) for r in m.recv_params))
        gamma = {m.recv_name: recv}
        gamma.update({p.name: p.type for p in sig.params})
        if len(gamma) != len(sig.params) + 1:
            diags.append(Diagnostic("t-func: parameter names not distinct in method %s.%s" % key, *m.pos))
        envs[key] = (delta, gamma)
        try:
            for p in sig.params:
                fgg_wf(p.type, delta, decls)
            fgg_wf(sig.ret, delta, decls)
            t = fgg_typecheck_expr(m.body, delta, gamma, decls, expected=sig.ret)
            if not fgg_subtype(t, sig.ret, delta, decls):
                what = "has type %s, not a subtype of %s" % (print_type(t), print_type(sig.ret))
                diags.append(Diagnostic("t-func: body of method %s.%s %s" % (*key, what), *m.pos))
        except CheckError as err:
            diags.append(Diagnostic("method %s.%s: %s" % (*key, err.message), *m.pos))

    try:
        fgg_typecheck_expr(program.main, {}, {}, decls)
    except CheckError as err:
        diags.append(Diagnostic("main: %s" % err.message, *program.pos))
    return Checked(diags, decls, envs)
