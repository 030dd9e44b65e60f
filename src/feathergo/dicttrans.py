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
co-simulation harness classifies redexes and resolves dictionaries by them
alone. Tags do not affect equality. Likewise every declaration is emitted
through ``Translator._declare``, which records what emitted it: the
inventory and the name-collision check read the emitted declarations.
``Translator.translate_decls`` emits them all, and
``Translator.translated_decls`` keeps them with the program object, so a
program's declarations are translated once (``target_decls`` indexes
them once); ``translate_program`` adds the translated ``main``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import asdict, dataclass, field

from .erasure import accept_source
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
    subexprs,
    type_args,
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
    diagnostics = ()  # the checker's, when the source does not typecheck


@dataclass(frozen=True)
class InventoryEntry:
    name: str
    kind: str  # "struct" | "interface" | "method"
    source: str  # what emitted it

    as_dict = asdict


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
TRY_CAST = MethodSig((), (Param("x", ANY),), ANY)

# generated field and parameter names (ASCII digits only), reserved in source
RESERVED_NAME = re.compile(r"dict_[0-9]+|_type(_[0-9]+)?")


def decl_name(d) -> str:
    """A declaration's inventory name: ``Recv.m`` for a method."""
    return "%s.%s" % (d.recv_type, d.name) if isinstance(d, MethodDecl) else d.name


def arity(sig: MethodSig) -> int:
    """Type parameters plus value parameters."""
    return len(sig.tformal) + len(sig.params)


def rep_fields(n: int) -> tuple:
    """``_type_0 .. _type_{n-1}``, each a type-rep."""
    return tuple(Param("_type_%d" % i, TypeApp(TYPE_MDATA)) for i in range(n))


def max_formal(decl) -> int:
    if isinstance(decl, StructDecl):
        return len(decl.formal)
    if isinstance(decl, InterfaceDecl):
        return max([len(decl.formal)] + [len(s.sig.tformal) for s in decl.specs])
    return len(decl.sig.tformal)


@dataclass
class Ctx:
    """Per-method translation context: type bounds, the dictionary map
    (type parameter -> dictionary expression), variable typing, the type
    side table of the subterms typed so far under (delta; gamma), and the
    translations made so far under it. A subterm translates the same way
    wherever it occurs under one context, so ``trans`` maps ``id(node)`` to
    ``(node, translated expression)``; holding the node keeps its id from
    being reused while the entry lives."""

    delta: dict
    eta: dict
    gamma: dict
    types: dict = field(default_factory=dict)
    trans: dict = field(default_factory=dict)


class Translator:
    def __init__(self, program: Program):
        checked = accept_source(fgg_typecheck_program(program), TranslationError)
        self.program = program
        self.decls, self.envs = checked.decls, checked.envs
        self.arities = self._collect_arities()
        self.max_formal = max([0] + [max_formal(d) for d in program.decls])
        self.sources: dict = {}  # decl_name -> what emitted that declaration
        self._check_source_names()

    # -- plumbing -----------------------------------------------------------

    def _collect_arities(self) -> list:
        out = set()
        for d in self.program.decls:
            if isinstance(d, InterfaceDecl):
                out.update(arity(s.sig) for s in d.specs)
            elif isinstance(d, MethodDecl):
                out.add(arity(d.sig))
        return sorted(out)

    def _check_source_names(self) -> None:
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

    def _check_collisions(self, decls) -> None:
        """Each emitted type name is declared once: a source type by its
        erasure, a generated one by the rule that emits it."""
        source = {d.name for d in self.program.decls if not isinstance(d, MethodDecl)}
        names = Counter(d.name for d in decls if not isinstance(d, MethodDecl))
        for n, k in names.items():
            if k - (n in source) > 1:
                raise TranslationError("generated name collision: %s" % n)
        clash = sorted(n for n in source if names[n] > 1)
        if clash:
            raise TranslationError(
                "source type names collide with generated names: %s" % ", ".join(clash)
            )

    def _declare(self, decl, source: str):
        """``decl``, with ``source`` recorded as what emitted it."""
        self.sources[decl_name(decl)] = source
        return decl

    # -- auxiliary functions -------------------------------------------------

    def as_param(self, tformal) -> tuple:
        """asParam(Psi): one dictionary parameter per type-formal entry."""
        return tuple(
            Param("dict_%d" % i, TypeApp(dict_name(fp.bound.name)))
            for i, fp in enumerate(tformal)
        )

    def typemeta(self, tau: Type, zeta: dict) -> Expr:
        if type(tau) is TypeApp and not tau.args:
            return StructLit(TypeApp(meta_name(tau.name)))

        def meta(t, kids):
            if type(t) is TypeApp:
                return StructLit(TypeApp(meta_name(t.name)), tuple(kids))
            try:
                return zeta[t.name]
            except KeyError:
                raise TranslationError("typemeta: unbound type parameter %s" % t.name)

        return fold(tau, meta, type_args)

    def ctx_typemeta(self, tau: Type, ctx: Ctx) -> Expr:
        """typemeta under ``ctx``: a type parameter's rep is its
        dictionary's ``_type`` field."""
        return self.typemeta(tau, {a: FieldSel(ctx.eta[a], "_type", origin="dict") for a in ctx.eta})

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
        apply = MethodDecl("this", ptr, (), "Apply", apply_sig, body)
        return [
            self._declare(StructDecl(ptr), "method pointer for %s.%s" % (tname, mname)),
            self._declare(apply, "applicator for %s.%s" % (tname, mname)),
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
        fields.append(self.ctx_typemeta(tau, ctx))
        return StructLit(TypeApp(dict_name(bound.name)), tuple(fields))

    # -- expressions -----------------------------------------------------------

    def typeof(self, e: Expr, ctx: Ctx) -> Type:
        return fgg_typecheck_expr(e, ctx.delta, ctx.gamma, self.decls, types=ctx.types)

    def translate_expr(self, e: Expr, ctx: Ctx) -> Expr:
        """The translation of ``e`` under ``ctx``. A subterm in
        ``ctx.trans`` is not translated again: its recorded translation,
        the same object, is reused.

        Receivers of field selects and calls, arithmetic operands and
        conditions are re-asserted to their erased type unconditionally,
        so that translating a term commutes with substitution (lockstep
        relies on it).
        """
        done = ctx.trans

        def asserted(te, want: str):
            return TypeAssert(te, TypeApp(want), origin="erase")

        def translated(e, kids):
            hit = done.get(id(e))
            if hit is None:
                hit = done[id(e)] = (e, translated_node(e, kids))
            return hit[1]

        def translated_node(e, kids):
            # kids: the translation of each subexpression
            t = type(e)
            if t is Var:
                return Var(e.name)
            if t is IntLit or t is BoolLit:
                return e
            if t is StructLit:
                d = self.decls.structs[e.type.name]
                dicts = tuple(self.make_dict(e.type.args, d.formal, ctx))
                return StructLit(TypeApp(e.type.name), tuple(kids) + dicts)
            if t is FieldSel:
                return FieldSel(asserted(kids[0], self.typeof(e.recv, ctx).name), e.fieldname)
            if t is TypeAssert:
                return MethodCall(self.ctx_typemeta(e.type, ctx), "tryCast", (), (kids[0],))
            if t is MethodCall:
                recv_t = self.typeof(e.recv, ctx)
                args = tuple(kids[1:])
                spec = fgg_methods(recv_t, ctx.delta, self.decls)[e.name]
                dicts = tuple(self.make_dict(e.targs, spec.tformal, ctx))
                if isinstance(recv_t, TypeParam):
                    # d-dictcall: resolve through the parameter's dictionary
                    target = FieldSel(ctx.eta[recv_t.name], e.name, origin="dict")
                    return MethodCall(target, "Apply", (), (kids[0],) + dicts + args, origin="dict")
                return MethodCall(asserted(kids[0], recv_t.name), e.name, (), dicts + args)
            if t is Binop:
                return Binop(e.op, asserted(kids[0], "int"), asserted(kids[1], "int"))
            if t is If:
                return If(asserted(kids[0], "bool"), kids[1], kids[2])
            if t is Seq:
                return Seq(kids[0], kids[1])
            raise TranslationError("cannot translate %r" % t.__name__)

        return fold(e, translated, lambda n: () if id(n) in done else subexprs(n))

    def translate_closed_expr(self, e: Expr, ctx: Ctx | None = None) -> Expr:
        """Translate a closed (runtime) expression under empty environments.

        ``ctx``, if given, is an empty-environment context kept across
        calls: a caller that translates successive states of one run passes
        the same one, so the subterms a step leaves in place keep their
        translation objects and only the new nodes are translated."""
        return self.translate_expr(e, Ctx({}, {}, {}) if ctx is None else ctx)

    # -- declarations -----------------------------------------------------------

    def translate_interface(self, d: InterfaceDecl) -> list:
        specs = [self.erased_spec(s) for s in d.specs]
        specs += [self.spec_mdata(s.name, s.sig) for s in d.specs]
        out: list = [self._declare(InterfaceDecl(d.name, (), tuple(specs)), "erased interface %s" % d.name)]

        dict_fields = [
            Param(s.name, TypeApp(func_iface_name(arity(s.sig)))) for s in d.specs
        ]
        dict_fields.append(Param("_type", TypeApp(TYPE_MDATA)))
        dict_struct = StructDecl(dict_name(d.name), (), tuple(dict_fields))
        out.append(self._declare(dict_struct, "dictionary for %s" % d.name))

        zeta = {
            fp.name: FieldSel(Var("this"), "_type_%d" % i, origin="sim")
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
        out += self._type_rep(meta_name(d.name), len(d.formal), body, "type-rep for %s" % d.name)
        for s in d.specs:
            out.extend(self.meth_ptr(d.name, s.name, s.sig))
        return out

    def translate_struct(self, d: StructDecl) -> list:
        fields = [Param(f.name, ANY) for f in d.fields]
        fields += list(self.as_param(d.formal))
        out: list = [self._declare(StructDecl(d.name, (), tuple(fields)), "erased struct %s" % d.name)]
        body: Expr = Var("x")
        for i in reversed(range(len(d.formal))):
            stored = FieldSel(
                FieldSel(TypeAssert(Var("x"), TypeApp(d.name), origin="sim"), "dict_%d" % i, origin="sim"),
                "_type",
                origin="sim",
            )
            cond = Neq(FieldSel(Var("this"), "_type_%d" % i, origin="sim"), stored, origin="sim")
            body = If(cond, Panic(), body, origin="sim")
        body = Seq(TypeAssert(Var("x"), TypeApp(d.name), origin="sim"), body, origin="sim")
        out += self._type_rep(meta_name(d.name), len(d.formal), body, "type-rep for %s" % d.name)
        return out

    def _type_rep(self, name: str, nparams: int, cast: Expr, source: str) -> list:
        """A type-rep struct, one ``_type_i`` field per type parameter, and
        its ``tryCast`` method, whose body ``cast`` simulates the assertion."""
        try_cast = MethodDecl("this", name, (), "tryCast", TRY_CAST, cast)
        return [
            self._declare(StructDecl(name, (), rep_fields(nparams)), source),
            self._declare(try_cast, "assertion simulation for %s" % name),
        ]

    def translate_method(self, d: MethodDecl) -> list:
        delta, gamma = self.envs[(d.recv_type, d.name)]
        eta = {
            r: FieldSel(Var(d.recv_name), "dict_%d" % i, origin="dict")
            for i, r in enumerate(d.recv_params)
        }
        eta.update({fp.name: Var("dict_%d" % j) for j, fp in enumerate(d.sig.tformal)})
        body = self.translate_expr(d.body, Ctx(delta, eta, gamma))

        params = self.as_param(d.sig.tformal) + tuple(Param(p.name, ANY) for p in d.sig.params)
        erased = MethodDecl(d.recv_name, d.recv_type, (), d.name, MethodSig((), params, ANY), body)
        out = [self._declare(erased, "erased method body")]
        zeta = {
            r: FieldSel(FieldSel(Var("this"), "dict_%d" % i, origin="sim"), "_type", origin="sim")
            for i, r in enumerate(d.recv_params)
        }
        spec_sig = MethodSig((), (), TypeApp(fn_meta_name(arity(d.sig))))
        spec_body = self.signature_meta(d.sig, zeta)
        spec = MethodDecl("this", d.recv_type, (), spec_method_name(d.name), spec_sig, spec_body)
        out.append(self._declare(spec, "signature simulation for %s.%s" % (d.recv_type, d.name)))
        out.extend(self.meth_ptr(d.recv_type, d.name, d.sig))
        return out

    # -- program -----------------------------------------------------------------

    def runtime_decls(self) -> list:
        out: list = []
        if "Any" not in self.decls.interfaces:
            out.append(self._declare(InterfaceDecl("Any"), "erased type representation"))
        rep_iface = InterfaceDecl(TYPE_MDATA, (), (MethodSpec("tryCast", TRY_CAST),))
        out.append(self._declare(rep_iface, "type-rep interface"))
        for n in self.arities:
            params = (Param("rec", ANY),) + tuple(Param("x_%d" % i, ANY) for i in range(n))
            func = InterfaceDecl(func_iface_name(n), (), (MethodSpec("Apply", MethodSig((), params, ANY)),))
            out.append(self._declare(func, "%d-ary method pointer interface" % n))
        for n in self.arities:
            record = StructDecl(fn_meta_name(n), (), rep_fields(n + 1))
            out.append(self._declare(record, "signature simulation record"))
        for i in range(self.max_formal):
            # tryCast is never invoked; declared so the record fields typecheck
            out += self._type_rep(param_index_name(i), 0, Panic(), "type-parameter index")
        for b in BUILTIN_STRUCTS:
            cast = Seq(TypeAssert(Var("x"), TypeApp(b), origin="sim"), Var("x"), origin="sim")
            out += self._type_rep(meta_name(b), 0, cast, "type-rep for builtin %s" % b)
        return out

    def translate_decls(self) -> list:
        """The target's declarations: the runtime ones, then each source
        declaration's translation in order, checked for name collisions."""
        decls = self.runtime_decls()
        for d in self.program.decls:
            if isinstance(d, InterfaceDecl):
                decls.extend(self.translate_interface(d))
            elif isinstance(d, StructDecl):
                decls.extend(self.translate_struct(d))
            else:
                decls.extend(self.translate_method(d))
        self._check_collisions(decls)
        return decls

    def translated_decls(self) -> tuple:
        """``translate_decls``, once per program object: the first call
        keeps the declarations, with their ``sources``, in that object's
        ``__dict__``, as ``fgg_typecheck_program`` keeps its judgement, and
        later calls, by any translator of the object, take both from
        there. Two threads that translate a new program at once can at
        worst both emit the declarations; each gets an equal result."""
        kept = self.program.__dict__.get("_translated")
        if kept is None:
            kept = self.program.__dict__["_translated"] = (tuple(self.translate_decls()), dict(self.sources))
        else:
            self.sources.update(kept[1])
        return kept[0]

    def target_decls(self) -> Decls:
        """The ``Decls`` of ``translated_decls`` (``Decls`` reads no ``main``), kept with them."""
        held = self.program.__dict__  # setdefault: threads that build one at once all keep the first
        return held.get("_target_decls") or held.setdefault("_target_decls", Decls(Program(self.translated_decls(), Panic())))

    def translate_program(self) -> Program:
        return Program(self.translated_decls(), self.translate_closed_expr(self.program.main))


def translate_program(program: Program) -> Program:
    """Translate a typechecked FGG program to FG-extended. Deterministic; a
    pure function of the program."""
    return Translator(program).translate_program()


def translate_with_info(program: Program):
    """The translation and its inventory: one ``InventoryEntry`` per
    declaration of the translation, in order."""
    t = Translator(program)
    out = t.translate_program()
    kinds = {MethodDecl: "method", StructDecl: "struct", InterfaceDecl: "interface"}
    return out, tuple(
        InventoryEntry(decl_name(d), kinds[type(d)], t.sources[decl_name(d)]) for d in out.decls
    )
