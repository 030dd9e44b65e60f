import dataclasses
import pathlib
import re
import sys

import pytest

from feathergo import cosim
from feathergo.dicttrans import TranslationError, dict_name, meta_name, ptr_name
from feathergo.parser import _ASI_AFTER_KIND, _ASI_AFTER_TEXT, KEYWORDS, Diagnostic, ParseError, Tok, parse_program
from feathergo.reduce import PanicOutcome, Stuck, Value, _contract, _descend, compile_body, is_value, vtype
from feathergo.syntax import (
    Expr,
    If,
    InterfaceDecl,
    MethodCall,
    MethodDecl,
    MethodSpec,
    Neq,
    Panic,
    Seq,
    StructDecl,
    StructLit,
    TypeApp,
    TypeAssert,
    TypeParam,
    Var,
    fold,
    plug,
    print_type,
    rebuild,
    subexprs,
    walk,
)
from feathergo.typecheck import Decls, subst_type

CORPUS = pathlib.Path(__file__).parent / "corpus"

# every .fgg corpus file that typechecks (fgg_list_fail is the negative fixture)
FGG_FILES = sorted(p for p in CORPUS.glob("*.fgg") if p.name != "fgg_list_fail.fgg")

# every corpus file, the FG listing and the negative fixture included
CORPUS_FILES = sorted(CORPUS.glob("*.fg*"))

# one small program of each benchmark family
SMALL_FAMILIES = (("a", 3), ("b", 3), ("c", 3), ("d", 3), ("e", 3))

# programs that terminate within the default budget
TERMINATING = [p for p in FGG_FILES if p.name != "omega.fgg"]

# assertion fixtures with their interpreter-oracle outcome (value / panic)
ASSERT_FIXTURES = {
    "typerep.fgg": "panic",
    "assert_pass.fgg": "value",
    "assert_fail.fgg": "panic",
    "assert_param_meta.fgg": "value",
    "assert_bound_meta.fgg": "value",
    "empty_iface_assert.fgg": "value",
    "fbound_self.fgg": "value",
    "struct_assert_fail.fgg": "panic",
}


def read(name: str) -> str:
    return (CORPUS / name).read_text()


def load(name: str):
    lang = "fgg" if name.endswith(".fgg") else "fg"
    return parse_program(read(name), lang)


def generated_struct_names(program):
    """The dictionary structs and the method-pointer structs the dictionary
    translation of ``program`` declares, by the translator's naming scheme
    over the source declarations: an oracle of generated shapes that does
    not read origin tags."""
    dicts, ptrs = set(), set()
    for d in program.decls:
        if isinstance(d, InterfaceDecl):
            dicts.add(dict_name(d.name))
            ptrs.update(ptr_name(d.name, s.name) for s in d.specs)
        elif isinstance(d, MethodDecl):
            ptrs.add(ptr_name(d.recv_type, d.name))
    return dicts, ptrs


@pytest.fixture(scope="session")
def corpus_programs():
    return {p.name: parse_program(p.read_text(), "fgg") for p in FGG_FILES}


@pytest.fixture
def default_recursion_limit():
    """Run the test at CPython's default recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def reference_print_type(t) -> str:
    """``print_type`` by recursion over the type: the reference the
    iterative printer in ``syntax`` is tested against."""
    if isinstance(t, TypeParam) or not t.args:
        return t.name
    return "%s[%s]" % (t.name, ", ".join(reference_print_type(a) for a in t.args))


def reference_subst_type(t, mapping: dict):
    """``subst_type`` by recursion over the type."""
    if isinstance(t, TypeParam):
        return mapping.get(t.name, t)
    if not t.args:
        return t
    return TypeApp(t.name, tuple(reference_subst_type(a, mapping) for a in t.args))


def reference_typemeta(tau, zeta: dict):
    """``Translator.typemeta`` by recursion over the type."""
    if isinstance(tau, TypeParam):
        try:
            return zeta[tau.name]
        except KeyError:
            raise TranslationError("typemeta: unbound type parameter %s" % tau.name)
    return StructLit(TypeApp(meta_name(tau.name)), tuple(reference_typemeta(a, zeta) for a in tau.args))


# a named type as a plain frozen dataclass, with the generated repr
_GeneratedTypeApp = dataclasses.make_dataclass(
    "TypeApp", [("name", str), ("args", tuple, dataclasses.field(default=()))], frozen=True
)


def reference_type_repr(t) -> str:
    """The repr the generated dataclass ``repr`` prints for ``t``."""

    def plain(t):
        return _GeneratedTypeApp(t.name, tuple(map(plain, t.args))) if type(t) is TypeApp else t

    return repr(plain(t))


def subst_expr(e, varmap: dict, typemap: dict):
    """Capture-free substitution of variables and type parameters, a
    ``fold`` over ``e``: the reference the body templates
    (``reduce.compile_body``) are tested against. Method bodies contain no
    binders, so no renaming is ever needed."""

    def node(n, kids):
        t = type(n)
        if t is Var:
            return varmap.get(n.name, n)
        if typemap and t is MethodCall:
            targs = tuple(subst_type(a, typemap) for a in n.targs)
            return MethodCall(kids[0], n.name, targs, tuple(kids[1:]), origin=n.origin)
        if typemap and t is StructLit:
            return StructLit(subst_type(n.type, typemap), tuple(kids))
        if typemap and t is TypeAssert:
            return TypeAssert(kids[0], subst_type(n.type, typemap), origin=n.origin)
        return rebuild(n, kids)

    return fold(e, node)


def reference_body(m, recv, args, targs):
    """body(vtype(recv).m) by ``subst_expr``, with the maps built as r-call
    built them before bodies were compiled."""
    varmap = {m.recv_name: recv}
    varmap.update({p.name: a for p, a in zip(m.sig.params, args)})
    typemap = {r: t for r, t in zip(m.recv_params, vtype(recv).args)}
    typemap.update({fp.name: t for fp, t in zip(m.sig.tformal, targs)})
    return subst_expr(m.body, varmap, typemap)


def instantiate_body(decls: Decls, m: MethodDecl, recv: Expr, args, targs, rtype=None) -> Expr:
    """body(vtype(v).m): substitute receiver, value arguments and type
    actuals into the declared body through its template, as r-call does,
    ``m`` being ``decls.methods[(m.recv_type, m.name)]``. ``args`` may be
    unevaluated, as dictionary resolution passes an applicator's. The
    template is compiled at the method's first instantiation and kept in
    ``decls.templates``, where r-call keeps it."""
    key = (m.recv_type, m.name)
    if key not in decls.templates:
        decls.templates[key] = compile_body(m)
    return decls.templates[key].body((recv, *args), targs, rtype)


def shallow_reprs(e) -> list:
    """The ``repr`` of every node of ``e`` in preorder, its subexpressions
    shown as ``Panic()``. Equal lists mean equal reprs, origin tags
    included; building them does not recurse."""
    out, todo = [], [e]
    while todo:
        n = todo.pop()
        kids = subexprs(n)
        out.append(repr(rebuild(n, (Panic(),) * len(kids))))
        todo.extend(reversed(kids))
    return out


PUNCT = ("!=", "{", "}", "(", ")", "[", "]", ".", ",", ";", "=", "<", ">", "+", "-")


def reference_tokenize(source: str) -> list:
    """The lexer as a character loop, as ``parser.tokenize`` was before it
    became one pattern: the differential reference for its tokens and its
    diagnostic."""
    toks: list = []
    line, col = 1, 1
    i, n = 0, len(source)

    def prev_ends_stmt() -> bool:
        if not toks:
            return False
        t = toks[-1]
        return t.kind in _ASI_AFTER_KIND or t.text in _ASI_AFTER_TEXT

    while i < n:
        ch = source[i]
        if ch == "\n":
            if prev_ends_stmt():
                toks.append(Tok("punct", ";", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if "0" <= ch <= "9":
            start = i
            startcol = col
            while i < n and "0" <= source[i] <= "9":
                i += 1
                col += 1
            toks.append(Tok("int", source[start:i], line, startcol))
            continue
        if ch == "_" or ch.isalpha():
            start = i
            startcol = col
            while i < n and (source[i] == "_" or source[i].isalnum()):
                i += 1
                col += 1
            text = source[start:i]
            kind = "punct" if text in KEYWORDS else "ident"
            toks.append(Tok(kind, text, line, startcol))
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                toks.append(Tok("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError([Diagnostic("unexpected character %r" % ch, line, col)])
    if prev_ends_stmt():
        toks.append(Tok("punct", ";", line, col))
    toks.append(Tok("eof", "", line, col))
    return toks


def reference_not_fg(n, dialect: str):
    """The FG rule that node ``n`` breaks, as a message, or None: the
    node-by-node check ``typecheck.fg_typecheck_program`` ran over every
    node of a ``walk`` before its fragment check became one pass."""
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


def reference_fragment_messages(program, dialect: str) -> list:
    """What ``program`` has outside the FG fragment, by ``reference_not_fg``
    over every node of a ``walk``, in its order."""
    return [m for m in (reference_not_fg(n, dialect) for n in walk(program)) if m]


_ORIGIN_FIELD = re.compile(r", origin=(None|'\w+')")


def reference_same(a, b) -> bool:
    """Structural equality of expressions, origin tags aside, read off
    their generated ``repr`` with the origin fields cut out."""
    return _ORIGIN_FIELD.sub("", repr(a)) == _ORIGIN_FIELD.sub("", repr(b))


def reference_redex_positions(e, decls, types=None) -> list:
    """Every position where a dictionary-resolution step applies, in
    preorder, with no memo: the complete listing C5 and the confluence
    tests take as their oracle. A position is a path, a tuple of indices
    into ``subexprs`` from the root down; ``types`` is an optional type
    side table, as ``fgg_typecheck_expr`` takes one."""
    out, stack = [], [(e, ())]
    while stack:
        node, path = stack.pop()
        if cosim._dict_contract(node, decls, types) is not None:
            out.append(path)
        kids = subexprs(node)
        stack += [(kids[i], path + (i,)) for i in range(len(kids) - 1, -1, -1)]
    return out


def reference_contract_at(e, path: tuple, decls, types=None):
    """``e`` with the dictionary-resolution redex at ``path`` contracted."""
    spine = []
    for i in path:
        kids = subexprs(e)
        spine.append((e, kids, i))
        e = kids[i]
    out = cosim._dict_contract(e, decls, types)
    if out is None:
        raise ValueError("no dictionary-resolution redex at path")
    return plug(spine, out)


def reference_settle(e, decls, done=None):
    """``cosim.settle`` as a ``fold`` over the whole term with its own
    erase-assert discharge: an erase-tagged ``v.(t)`` over a value
    contracts to ``v`` where the machine's r-assert steps it, and a term
    with nothing to discharge comes back as the same object. ``done``
    maps ``id(node)`` to ``(node, settled form)`` (a fresh table by
    default); the fold does not descend into its nodes. The oracle for
    the settled forms ``cosim`` records as its resolution scan goes."""
    done = {} if done is None else done

    def settled(e, kids):
        hit = done.get(id(e))
        if hit is not None:
            return hit[1]
        if not kids:
            return e
        out = e
        if any(k is not s for k, s in zip(kids, subexprs(e))):
            out = rebuild(e, kids)
        while type(out) is TypeAssert and out.origin == "erase" and is_value(out.recv):
            step = _contract(out, (out.recv,), decls, False)
            if type(step) is not tuple:
                break
            out = step[0]
        done[id(e)] = (e, out)
        done[id(out)] = (out, out)
        return out

    return fold(e, settled, lambda n: () if id(n) in done else subexprs(n))


def macro_step_whole(d, decls):
    """``cosim.macro_step`` on the whole term ``d``: the outcome's ``expr``
    is the whole term after the step, not the machine's new focus."""
    frames = []
    m = cosim.macro_step(_descend(d, frames)[0], decls, frames)
    return dataclasses.replace(m, expr=plug(frames, m.expr)) if m.kind == "stepped" else m


@dataclasses.dataclass(frozen=True)
class Stepped:
    expr: Expr
    rule: str
    redex: Expr


StepOutcome = Stepped | Value | PanicOutcome | Stuck


def _step_once(e: Expr, decls: Decls, generic: bool) -> StepOutcome:
    """One-shot stepping: descend from the root, contract at the focus and
    ``plug`` the contractum back in. The reference the machine
    (``reduce.run``, which resumes at the hole) is tested against."""
    spine = []
    redex, kids = _descend(e, spine)
    out = _contract(redex, kids, decls, generic)
    if type(out) is not tuple:
        return out
    contractum, rule = out
    return Stepped(plug(spine, contractum), rule, redex)


def fg_step(e: Expr, decls: Decls) -> StepOutcome:
    return _step_once(e, decls, generic=False)


def fgg_step(e: Expr, decls: Decls) -> StepOutcome:
    return _step_once(e, decls, generic=True)


def erase_value(v: Expr) -> Expr:
    """The value-level erasure: drop type actuals recursively. Used to state
    value preservation for the erasure translation."""
    return fold(v, lambda n, kids: StructLit(TypeApp(n.type.name), tuple(kids)) if type(n) is StructLit else n)


def fit_poly(xs, ys, degree: int):
    """Ordinary least squares for a low-degree polynomial; returns
    (coefficients low-to-high, r_squared). Solved by Gaussian elimination on
    the normal equations; fine for the tiny systems used here."""
    k = degree + 1
    ata = [[sum(x ** (i + j) for x in xs) for j in range(k)] for i in range(k)]
    atb = [sum(y * x**i for x, y in zip(xs, ys)) for i in range(k)]
    coeffs = _solve(ata, atb)
    mean = sum(ys) / len(ys)
    ss_tot = sum((y - mean) ** 2 for y in ys)
    ss_res = sum((y - sum(c * x**i for i, c in enumerate(coeffs))) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return coeffs, r2


def _solve(a, b):
    n = len(b)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        if abs(m[col][col]) < 1e-12:
            raise ValueError("singular system")
        for r in range(n):
            if r != col:
                factor = m[r][col] / m[col][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]
