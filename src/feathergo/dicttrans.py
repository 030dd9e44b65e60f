"""Call-site, non-specialising dictionary-passing translation FGG -> FG-extended.

Every type parameter is represented by its own dictionary, built exactly
where the parameter would have been instantiated, so recursively
instantiating (nomono) programs translate fine. Dictionaries are structs
carrying one method abstractor per bound-interface method plus a type-rep
(``_type``); method pointers are simulated by abstractor/applicator pairs
(an empty struct with an ``Apply`` method) since the target language has no
function values.

Generated nodes carry origin tags ("erase" for erasure-inserted asserts,
"sim" for assertion-simulation machinery, "dict" for dictionary plumbing);
they are the one record of which rule emitted a node, and the
co-simulation harness classifies redexes by them alone. Tags do not affect
equality. The generated type names are listed once, each with its role;
that list serves both the collision check and ``TransInfo``.

Optional flags, both off by default: ``skip_redundant_asserts`` drops the
receiver asserts of field selects and calls when the translated receiver
already has the needed struct type; ``type_metadata=False`` omits all
type-rep machinery and is only valid for assertion-free programs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .erasure import check_erased_any
from .syntax import (
    ANY,
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
    walk,
)
from .typecheck import (
    BUILTIN_STRUCTS,
    Decls,
    fgg_methods,
    fgg_subtype,
    fgg_typecheck_expr,
    fgg_typecheck_program,
    subst_type,
)


class TranslationError(Exception):
    pass


@dataclass(frozen=True)
class TransOptions:
    skip_redundant_asserts: bool = False
    type_metadata: bool = True


@dataclass(frozen=True)
class InventoryEntry:
    name: str
    kind: str  # "struct" | "interface" | "method"
    source: str  # what emitted it

    def as_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "source": self.source}


@dataclass(frozen=True)
class TransInfo:
    # the struct names dictionary resolution contracts, and the inventory
    dict_structs: frozenset
    ptr_structs: frozenset
    inventory: tuple


# -- name constants ----------------------------------------------------------
# dictName, metadataName, spec_name, mName plus the generated families. A
# source identifier matching any generated name aborts the translation.


def dict_name(iface: str) -> str:
    return iface + "Dict"


def meta_name(tname: str) -> str:
    if tname == "int":
        return "Int_meta"
    if tname == "bool":
        return "Bool_meta"
    return tname + "_meta"


def spec_method_name(m: str) -> str:
    return "spec_" + m


def ptr_name(tname: str, m: str) -> str:
    return "%s_%s" % (tname, m)


def fn_meta_name(arity: int) -> str:
    # named by tuple width: a signature of arity n is simulated by an
    # (n+1)-entry record (bounds, argument types, return type)
    return "spec_metadata_%d" % (arity + 1)


def func_iface_name(arity: int) -> str:
    return "Func_%d" % arity


def param_index_name(i: int) -> str:
    return "param_index_%d" % i


TYPE_MDATA = "_type_mdata"

# generated field and parameter names (ASCII digits only), reserved in source
RESERVED_NAME = re.compile(r"dict_[0-9]+|_type(_[0-9]+)?")


def arity(sig: MethodSig) -> int:
    """Type parameters plus value parameters."""
    return len(sig.tformal) + len(sig.params)


def max_formal(decl) -> int:
    if isinstance(decl, StructDecl):
        return len(decl.formal)
    if isinstance(decl, InterfaceDecl):
        return max([len(decl.formal)] + [len(s.sig.tformal) for s in decl.specs])
    return len(decl.sig.tformal)


@dataclass
class Ctx:
    """Per-method translation context: type bounds, the dictionary map
    (type parameter -> dictionary expression), variable typing, and the
    type side table of the subterms typed so far under (delta; gamma)."""

    delta: dict
    eta: dict
    gamma: dict
    fg_types: dict  # var name -> concrete fg type name (receiver only)
    types: dict = field(default_factory=dict)


def _this(name: str = "this") -> Var:
    return Var(name)


class Translator:
    def __init__(self, program: Program, options: TransOptions | None = None):
        self.options = options or TransOptions()
        diags = fgg_typecheck_program(program)
        if diags:
            raise TranslationError(
                "source program does not typecheck: " + "; ".join(d.message for d in diags)
            )
        self.program = program
        self.decls = Decls(program)
        if not self.options.type_metadata and any(isinstance(n, TypeAssert) for n in walk(program)):
            raise TranslationError(
                "type metadata can only be disabled for assertion-free programs"
            )
        self.arities = self._collect_arities()
        self.max_formal = max([0] + [max_formal(d) for d in program.decls])
        self.inventory: list = []
        self._check_collisions()

    # -- plumbing -----------------------------------------------------------

    def _collect_arities(self) -> list:
        out = set()
        for d in self.program.decls:
            if isinstance(d, InterfaceDecl):
                out.update(arity(s.sig) for s in d.specs)
            elif isinstance(d, MethodDecl):
                out.add(arity(d.sig))
        return sorted(out)

    def _generated_type_names(self) -> list:
        """(name, role) of every generated type, in collision-check order;
        the role is "dict", "ptr" (a method pointer) or "other"."""
        names = [TYPE_MDATA, "Int_meta", "Bool_meta"]
        names += [func_iface_name(n) for n in self.arities]
        names += [fn_meta_name(n) for n in self.arities]
        names += [param_index_name(i) for i in range(self.max_formal)]
        out = [(n, "other") for n in names]
        for d in self.program.decls:
            if isinstance(d, InterfaceDecl):
                out += [(dict_name(d.name), "dict"), (meta_name(d.name), "other")]
                out += [(ptr_name(d.name, s.name), "ptr") for s in d.specs]
            elif isinstance(d, StructDecl):
                out.append((meta_name(d.name), "other"))
            else:
                out.append((ptr_name(d.recv_type, d.name), "ptr"))
        return out

    def _check_collisions(self) -> None:
        seen = set()
        for n, _ in self._generated_type_names():
            if n in seen:
                raise TranslationError("generated name collision: %s" % n)
            seen.add(n)
        source_types = {
            d.name for d in self.program.decls if not isinstance(d, MethodDecl)
        }
        clash = source_types & seen
        if clash:
            raise TranslationError(
                "source type names collide with generated names: %s" % ", ".join(sorted(clash))
            )
        check_erased_any(self.decls, TranslationError)
        for d in self.program.decls:
            if isinstance(d, StructDecl):
                for f in d.fields:
                    if RESERVED_NAME.fullmatch(f.name):
                        raise TranslationError("source field name %s is reserved" % f.name)
                continue
            # a method declaration, or each specification of an interface
            for m in (d,) if isinstance(d, MethodDecl) else d.specs:
                if m.name.startswith("spec_") or m.name in ("tryCast", "_type"):
                    raise TranslationError("source method name %s collides with generated names" % m.name)
                for p in m.sig.params:
                    if RESERVED_NAME.fullmatch(p.name):
                        raise TranslationError("source parameter name %s is reserved" % p.name)

    def _note(self, name: str, kind: str, source: str) -> None:
        self.inventory.append(InventoryEntry(name, kind, source))

    # -- auxiliary functions -------------------------------------------------

    def as_param(self, tformal) -> tuple:
        """asParam(Psi): one dictionary parameter per type-formal entry."""
        return tuple(
            Param("dict_%d" % i, TypeApp(dict_name(fp.bound.name)))
            for i, fp in enumerate(tformal)
        )

    def typemeta(self, tau: Type, zeta: dict) -> Expr:
        if isinstance(tau, TypeParam):
            try:
                return zeta[tau.name]
            except KeyError:
                raise TranslationError("typemeta: unbound type parameter %s" % tau.name)
        return StructLit(
            TypeApp(meta_name(tau.name)),
            tuple(self.typemeta(a, zeta) for a in tau.args),
        )

    def signature_meta(self, sig: MethodSig, zeta: dict) -> Expr:
        """fnMeta literal: bound reps, argument-type reps, return-type rep.
        The method's own parameters are referenced by position."""
        z2 = dict(zeta)
        z2.update(
            {fp.name: StructLit(TypeApp(param_index_name(i))) for i, fp in enumerate(sig.tformal)}
        )
        entries = [self.typemeta(fp.bound, z2) for fp in sig.tformal]
        entries += [self.typemeta(p.type, z2) for p in sig.params]
        entries.append(self.typemeta(sig.ret, z2))
        return StructLit(TypeApp(fn_meta_name(arity(sig))), tuple(entries))

    def spec_mdata(self, spec_name: str, sig: MethodSig) -> MethodSpec:
        return MethodSpec(
            spec_method_name(spec_name),
            MethodSig((), (), TypeApp(fn_meta_name(arity(sig)))),
        )

    def erased_spec(self, spec: MethodSpec) -> MethodSpec:
        """d-spec: dictionaries for the type formal, every other type erased."""
        params = self.as_param(spec.sig.tformal)
        params += tuple(Param(p.name, ANY) for p in spec.sig.params)
        return MethodSpec(spec.name, MethodSig((), params, ANY))

    def meth_ptr(self, tname: str, mname: str, sig: MethodSig) -> list:
        """Abstractor/applicator pair: an empty struct whose Apply asserts the
        receiver back to its type and forwards to the real method."""
        ptr = ptr_name(tname, mname)
        dict_params = self.as_param(sig.tformal)
        val_params = tuple(Param("x_%d" % i, ANY) for i in range(len(sig.params)))
        call_args = tuple(
            TypeAssert(Var(dp.name), dp.type, origin="dict") for dp in dict_params
        ) + tuple(Var(vp.name) for vp in val_params)
        body = MethodCall(
            TypeAssert(Var("rec"), TypeApp(tname), origin="erase"), mname, (), call_args
        )
        apply_sig = MethodSig(
            (), (Param("rec", ANY),) + tuple(Param(p.name, ANY) for p in dict_params) + val_params, ANY
        )
        self._note(ptr, "struct", "method pointer for %s.%s" % (tname, mname))
        self._note("%s.Apply" % ptr, "method", "applicator for %s.%s" % (tname, mname))
        return [
            StructDecl(ptr),
            MethodDecl("this", ptr, (), "Apply", apply_sig, body),
        ]

    def make_dict(self, actuals, tformal, ctx: Ctx) -> list:
        out = []
        eta = {fp.name: a for fp, a in zip(tformal, actuals)}
        for tau, fp in zip(actuals, tformal):
            bound = subst_type(fp.bound, eta)
            out.append(self.make_dict1(tau, bound, ctx))
        return out

    def make_dict1(self, tau: Type, bound: Type, ctx: Ctx) -> Expr:
        """makeDict: (i) the parameter's own dictionary, (ii) dictionary
        supertyping by destructuring, (iii) a fresh dictionary of abstractors
        for a concrete type."""
        meta = self.options.type_metadata
        if isinstance(tau, TypeParam):
            have = ctx.delta.get(tau.name)
            if have is None:
                raise TranslationError("makeDict: unbound type parameter %s" % tau.name)
            if have == bound:
                return ctx.eta[tau.name]
            if not fgg_subtype(tau, bound, ctx.delta, self.decls):
                raise TranslationError(
                    "makeDict: %s does not implement %s" % (tau.name, print_type(bound))
                )
            fields = [
                FieldSel(ctx.eta[tau.name], m, origin="dict")
                for m in fgg_methods(bound, ctx.delta, self.decls)
            ]
            if meta:
                fields.append(FieldSel(ctx.eta[tau.name], "_type", origin="dict"))
            return StructLit(TypeApp(dict_name(bound.name)), tuple(fields))
        if not fgg_subtype(tau, bound, ctx.delta, self.decls):
            raise TranslationError(
                "makeDict: %s does not implement %s" % (print_type(tau), print_type(bound))
            )
        fields = [
            StructLit(TypeApp(ptr_name(tau.name, m)))
            for m in fgg_methods(bound, ctx.delta, self.decls)
        ]
        if meta:
            zeta = {a: FieldSel(ctx.eta[a], "_type", origin="dict") for a in ctx.eta}
            fields.append(self.typemeta(tau, zeta))
        return StructLit(TypeApp(dict_name(bound.name)), tuple(fields))

    # -- expressions -----------------------------------------------------------

    def typeof(self, e: Expr, ctx: Ctx) -> Type:
        return fgg_typecheck_expr(e, ctx.delta, ctx.gamma, self.decls, types=ctx.types)

    def translate_expr(self, e: Expr, ctx: Ctx):
        """Returns (translated expression, concrete fg type name or None).

        The fg type is tracked so redundant receiver asserts can be skipped
        and so int/bool positions only assert erased operands.
        """
        skip = self.options.skip_redundant_asserts

        def asserted(te, fgname, want: str):
            # d-field / d-call always reassert the receiver; the flag drops
            # the assert when the translated receiver already has that type
            if skip and fgname == want:
                return te
            return TypeAssert(te, TypeApp(want), origin="erase")

        def translated(e, kids):
            # kids: the (translated expression, fg type name) of each subexpression
            t = type(e)
            if t is Var:
                return Var(e.name), ctx.fg_types.get(e.name)
            if t is IntLit:
                return e, "int"
            if t is BoolLit:
                return e, "bool"
            if t is StructLit:
                d = self.decls.structs[e.type.name]
                dicts = tuple(self.make_dict(e.type.args, d.formal, ctx))
                return StructLit(TypeApp(e.type.name), tuple(k[0] for k in kids) + dicts), e.type.name
            if t is FieldSel:
                return FieldSel(asserted(*kids[0], self.typeof(e.recv, ctx).name), e.fieldname), None
            if t is TypeAssert:
                zeta = {a: FieldSel(ctx.eta[a], "_type", origin="dict") for a in ctx.eta}
                rep = self.typemeta(e.type, zeta)
                return MethodCall(rep, "tryCast", (), (kids[0][0],)), None
            if t is MethodCall:
                recv_t = self.typeof(e.recv, ctx)
                args = tuple(k[0] for k in kids[1:])
                spec = fgg_methods(recv_t, ctx.delta, self.decls)[e.name]
                dicts = tuple(self.make_dict(e.targs, spec.tformal, ctx))
                if isinstance(recv_t, TypeParam):
                    # d-dictcall: resolve through the parameter's dictionary
                    target = FieldSel(ctx.eta[recv_t.name], e.name, origin="dict")
                    return MethodCall(target, "Apply", (), (kids[0][0],) + dicts + args, origin="dict"), None
                return MethodCall(asserted(*kids[0], recv_t.name), e.name, (), dicts + args), None
            if t is Binop:
                # operands are asserted unconditionally so that translating a
                # term commutes with substitution (lockstep relies on it)
                tl, tr = (TypeAssert(k[0], TypeApp("int"), origin="erase") for k in kids)
                return Binop(e.op, tl, tr), ("bool" if e.op in ("<", ">") else "int")
            if t is If:
                tc = TypeAssert(kids[0][0], TypeApp("bool"), origin="erase")
                return If(tc, kids[1][0], kids[2][0]), None
            if t is Seq:
                return Seq(kids[0][0], kids[1][0]), kids[1][1]
            raise TranslationError("cannot translate %r" % t.__name__)

        return fold(e, translated)

    def translate_closed_expr(self, e: Expr) -> Expr:
        """Translate a closed (runtime) expression under empty environments."""
        return self.translate_expr(e, Ctx({}, {}, {}, {}))[0]

    # -- declarations -----------------------------------------------------------

    def translate_interface(self, d: InterfaceDecl) -> list:
        meta = self.options.type_metadata
        specs = [self.erased_spec(s) for s in d.specs]
        if meta:
            specs += [self.spec_mdata(s.name, s.sig) for s in d.specs]
        out: list = [InterfaceDecl(d.name, (), tuple(specs))]
        self._note(d.name, "interface", "erased interface %s" % d.name)

        dict_fields = [
            Param(s.name, TypeApp(func_iface_name(arity(s.sig)))) for s in d.specs
        ]
        if meta:
            dict_fields.append(Param("_type", TypeApp(TYPE_MDATA)))
        out.append(StructDecl(dict_name(d.name), (), tuple(dict_fields)))
        self._note(dict_name(d.name), "struct", "dictionary for %s" % d.name)

        if meta:
            out.append(self._meta_struct(d.name, len(d.formal)))
            zeta = {
                fp.name: FieldSel(_this(), "_type_%d" % i, origin="sim")
                for i, fp in enumerate(d.formal)
            }
            body: Expr = Var("x")
            for s in reversed(d.specs):
                actual = MethodCall(
                    TypeAssert(Var("x"), TypeApp(d.name), origin="sim"),
                    spec_method_name(s.name),
                    (),
                    (),
                    origin="sim",
                )
                want = self.signature_meta(s.sig, zeta)
                body = If(Neq(actual, want, origin="sim"), Panic(), body, origin="sim")
            out.append(self._try_cast(meta_name(d.name), body))
        for s in d.specs:
            out.extend(self.meth_ptr(d.name, s.name, s.sig))
        return out

    def translate_struct(self, d: StructDecl) -> list:
        meta = self.options.type_metadata
        fields = [Param(f.name, ANY) for f in d.fields]
        fields += list(self.as_param(d.formal))
        out: list = [StructDecl(d.name, (), tuple(fields))]
        self._note(d.name, "struct", "erased struct %s" % d.name)
        if meta:
            out.append(self._meta_struct(d.name, len(d.formal)))
            body: Expr = Var("x")
            for i in reversed(range(len(d.formal))):
                stored = FieldSel(
                    FieldSel(TypeAssert(Var("x"), TypeApp(d.name), origin="sim"), "dict_%d" % i, origin="sim"),
                    "_type",
                    origin="sim",
                )
                cond = Neq(FieldSel(_this(), "_type_%d" % i, origin="sim"), stored, origin="sim")
                body = If(cond, Panic(), body, origin="sim")
            body = Seq(TypeAssert(Var("x"), TypeApp(d.name), origin="sim"), body, origin="sim")
            out.append(self._try_cast(meta_name(d.name), body))
        return out

    def _meta_struct(self, tname: str, nparams: int) -> StructDecl:
        self._note(meta_name(tname), "struct", "type-rep for %s" % tname)
        return StructDecl(
            meta_name(tname),
            (),
            tuple(Param("_type_%d" % i, TypeApp(TYPE_MDATA)) for i in range(nparams)),
        )

    def _try_cast(self, recv: str, body: Expr) -> MethodDecl:
        self._note("%s.tryCast" % recv, "method", "assertion simulation for %s" % recv)
        return MethodDecl(
            "this", recv, (), "tryCast", MethodSig((), (Param("x", ANY),), ANY), body
        )

    def translate_method(self, d: MethodDecl) -> list:
        meta = self.options.type_metadata
        sd = self.decls.structs[d.recv_type]
        ren = {fp.name: TypeParam(r) for fp, r in zip(sd.formal, d.recv_params)}
        delta = {r: subst_type(fp.bound, ren) for fp, r in zip(sd.formal, d.recv_params)}
        delta.update({fp.name: fp.bound for fp in d.sig.tformal})
        eta = {
            r: FieldSel(Var(d.recv_name), "dict_%d" % i, origin="dict")
            for i, r in enumerate(d.recv_params)
        }
        eta.update({fp.name: Var("dict_%d" % j) for j, fp in enumerate(d.sig.tformal)})
        gamma = {d.recv_name: TypeApp(d.recv_type, tuple(TypeParam(r) for r in d.recv_params))}
        gamma.update({p.name: p.type for p in d.sig.params})
        ctx = Ctx(delta, eta, gamma, {d.recv_name: d.recv_type})
        body, _ = self.translate_expr(d.body, ctx)

        params = self.as_param(d.sig.tformal) + tuple(Param(p.name, ANY) for p in d.sig.params)
        out = [
            MethodDecl(d.recv_name, d.recv_type, (), d.name, MethodSig((), params, ANY), body)
        ]
        self._note("%s.%s" % (d.recv_type, d.name), "method", "erased method body")
        if meta:
            zeta = {
                r: FieldSel(FieldSel(_this(), "dict_%d" % i, origin="sim"), "_type", origin="sim")
                for i, r in enumerate(d.recv_params)
            }
            spec_body = self.signature_meta(d.sig, zeta)
            out.append(
                MethodDecl(
                    "this",
                    d.recv_type,
                    (),
                    spec_method_name(d.name),
                    MethodSig((), (), TypeApp(fn_meta_name(arity(d.sig)))),
                    spec_body,
                )
            )
            self._note(
                "%s.%s" % (d.recv_type, spec_method_name(d.name)),
                "method",
                "signature simulation for %s.%s" % (d.recv_type, d.name),
            )
        out.extend(self.meth_ptr(d.recv_type, d.name, d.sig))
        return out

    # -- program -----------------------------------------------------------------

    def runtime_decls(self) -> list:
        meta = self.options.type_metadata
        out: list = []
        if "Any" not in self.decls.interfaces:
            out.append(InterfaceDecl("Any"))
            self._note("Any", "interface", "erased type representation")
        if meta:
            out.append(
                InterfaceDecl(
                    TYPE_MDATA,
                    (),
                    (MethodSpec("tryCast", MethodSig((), (Param("x", ANY),), ANY)),),
                )
            )
            self._note(TYPE_MDATA, "interface", "type-rep interface")
        for n in self.arities:
            params = (Param("rec", ANY),) + tuple(Param("x_%d" % i, ANY) for i in range(n))
            out.append(
                InterfaceDecl(
                    func_iface_name(n), (), (MethodSpec("Apply", MethodSig((), params, ANY)),)
                )
            )
            self._note(func_iface_name(n), "interface", "%d-ary method pointer interface" % n)
        if meta:
            for n in self.arities:
                out.append(
                    StructDecl(
                        fn_meta_name(n),
                        (),
                        tuple(Param("_type_%d" % i, TypeApp(TYPE_MDATA)) for i in range(n + 1)),
                    )
                )
                self._note(fn_meta_name(n), "struct", "signature simulation record")
            for i in range(self.max_formal):
                out.append(StructDecl(param_index_name(i)))
                # never invoked; declared so the record fields typecheck
                out.append(self._try_cast(param_index_name(i), Panic()))
                self._note(param_index_name(i), "struct", "type-parameter index")
            for b in BUILTIN_STRUCTS:
                out.append(StructDecl(meta_name(b)))
                self._note(meta_name(b), "struct", "type-rep for builtin %s" % b)
                out.append(
                    self._try_cast(
                        meta_name(b),
                        Seq(TypeAssert(Var("x"), TypeApp(b), origin="sim"), Var("x"), origin="sim"),
                    )
                )
        return out

    def translate_program(self) -> Program:
        decls = self.runtime_decls()
        for d in self.program.decls:
            if isinstance(d, InterfaceDecl):
                decls.extend(self.translate_interface(d))
            elif isinstance(d, StructDecl):
                decls.extend(self.translate_struct(d))
            else:
                decls.extend(self.translate_method(d))
        main = self.translate_closed_expr(self.program.main)
        return Program(tuple(decls), main)

    def info(self) -> TransInfo:
        names = self._generated_type_names()
        return TransInfo(
            frozenset(n for n, role in names if role == "dict"),
            frozenset(n for n, role in names if role == "ptr"),
            tuple(self.inventory),
        )


def translate_program(program: Program, options: TransOptions | None = None) -> Program:
    """Translate a typechecked FGG program to FG-extended. Deterministic; a
    pure function of (program, options)."""
    return Translator(program, options).translate_program()


def translate_with_info(program: Program, options: TransOptions | None = None):
    t = Translator(program, options)
    out = t.translate_program()
    return out, t.info()
