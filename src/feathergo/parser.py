"""Lexer and recursive-descent parser for the FG / FGG concrete syntax.

Dialects:

* ``"fg"`` -- core FG: the five expression forms plus int/bool literals and
  primitive binops (the builtin value forms).
* ``"fg-ext"`` -- FG extended with if / sequencing / panic / struct
  inequality, the forms the generics translator emits.
* ``"fgg"`` -- FGG: generics, plus literals, binops, if and sequencing.

Semicolons and newlines both terminate statements (newlines via Go-style
automatic semicolon insertion); ``//`` comments are skipped; Greek letters
are ordinary identifier characters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .syntax import (
    Binop,
    BoolLit,
    FieldSel,
    FormalParam,
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
    TypeApp,
    TypeAssert,
    TypeParam,
    Var,
)


@dataclass(frozen=True)
class Diagnostic:
    message: str
    line: int = 0
    col: int = 0
    severity: str = "error"

    def render(self, filename: str = "<input>") -> str:
        return "%s:%d:%d: %s" % (filename, self.line, self.col, self.message)


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))


KEYWORDS = {
    "package",
    "type",
    "struct",
    "interface",
    "func",
    "return",
    "if",
    "else",
    "panic",
    "true",
    "false",
}

PUNCT = ("!=", "{", "}", "(", ")", "[", "]", ".", ",", ";", "=", "<", ">", "+", "-")

# A newline terminates a statement when the previous token could end one.
_ASI_AFTER_KIND = {"ident", "int"}
_ASI_AFTER_TEXT = {")", "}", "]", "true", "false", "panic"}

# binary operator -> precedence level; all associate to the left
_OP_LEVEL = {"!=": 1, "<": 2, ">": 2, "+": 3, "-": 3}


@dataclass(frozen=True)
class Tok:
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


def _is_ident_start(ch: str) -> bool:
    return ch == "_" or ch.isalpha()


def _is_ident_char(ch: str) -> bool:
    return ch == "_" or ch.isalnum()


def tokenize(source: str) -> list:
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
        if ch.isdigit():
            start = i
            startcol = col
            while i < n and source[i].isdigit():
                i += 1
                col += 1
            toks.append(Tok("int", source[start:i], line, startcol))
            continue
        if _is_ident_start(ch):
            start = i
            startcol = col
            while i < n and _is_ident_char(source[i]):
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


def _close_ops(pending, level: int, e):
    """Apply the operators on top of ``pending`` whose level is at least
    ``level``, ``e`` being the right operand of the innermost one."""
    while pending and type(pending[-1]) is tuple and pending[-1][0] >= level:
        _, op, left = pending.pop()
        e = Neq(left, e) if op == "!=" else Binop(op, left, e)
    return e


class _Parser:
    def __init__(self, source: str, lang: str):
        if lang not in ("fg", "fg-ext", "fgg"):
            raise ValueError("unknown dialect %r" % lang)
        self.lang = lang
        self.generic = lang == "fgg"
        self.toks = tokenize(source)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Tok:
        return self.toks[self.pos]

    def next(self) -> Tok:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Tok:
        t = self.peek()
        if t.kind == "punct" and t.text == text:
            return self.next()
        self.fail("expected %r, found %r" % (text, t.text or "end of input"), t)

    def ident(self, what: str = "identifier") -> Tok:
        t = self.peek()
        if t.kind == "ident":
            return self.next()
        self.fail("expected %s, found %r" % (what, t.text or "end of input"), t)

    def fail(self, message: str, tok: Tok | None = None):
        tok = tok or self.peek()
        raise ParseError([Diagnostic(message, tok.line, tok.col)])

    def skip_semis(self) -> None:
        while self.accept(";"):
            pass

    def require_extended(self, construct: str) -> None:
        if self.lang == "fg":
            self.fail("%s requires the extended dialect" % construct)

    def require_fg_ext(self, construct: str) -> None:
        if self.lang != "fg-ext":
            self.fail("%s requires the extended fg dialect" % construct)

    # -- types --------------------------------------------------------------

    def parse_type(self, scope: frozenset):
        name = self.ident("type name").text
        if name in scope:
            return TypeParam(name)
        args: tuple = ()
        if self.at("["):
            if not self.generic:
                self.fail("type arguments require the fgg dialect")
            args = tuple(self.parse_type_list(scope))
        return TypeApp(name, args)

    def parse_type_list(self, scope: frozenset) -> list:
        self.expect("[")
        out = []
        if not self.at("]"):
            out.append(self.parse_type(scope))
            while self.accept(","):
                out.append(self.parse_type(scope))
        self.expect("]")
        return out

    def parse_formal(self, outer: frozenset):
        """Parse ``[a Bound, ...]``; bounds see all names of this formal."""
        if not self.at("["):
            return (), outer
        save = self.pos
        self.expect("[")
        names = []
        entries = []  # (name, typestart)
        if not self.at("]"):
            while True:
                nm = self.ident("type parameter").text
                names.append(nm)
                entries.append((nm, self.pos))
                self._skip_type()
                if not self.accept(","):
                    break
        self.expect("]")
        end = self.pos
        scope = outer | frozenset(names)
        formal = []
        for nm, tp in entries:
            self.pos = tp
            formal.append(FormalParam(nm, self.parse_type(scope)))
        self.pos = end
        return tuple(formal), scope

    def _skip_type(self) -> None:
        self.ident("type name")
        if self.at("["):
            depth = 0
            while True:
                t = self.next()
                if t.kind == "eof":
                    self.fail("unbalanced brackets")
                if t.text == "[":
                    depth += 1
                elif t.text == "]":
                    depth -= 1
                    if depth == 0:
                        return

    # -- expressions ----------------------------------------------------------

    def parse_expr(self, scope: frozenset):
        """Primaries with their suffixes, joined by binary operators. What
        still waits for an expression is kept on ``pending``, innermost last,
        so nesting depth is not bounded by the recursion limit: an argument
        list or parenthesis ``[closing, make, items]``, or an operator
        ``(level, op, left)`` waiting for its right operand."""
        pending = []
        while True:
            t = self.peek()
            if t.text == "(":
                self.next()
                pending.append([")", None, []])
                continue
            if t.kind == "int":
                self.next()
                e = IntLit(int(t.text))
            elif t.text == "true" or t.text == "false":
                self.next()
                e = BoolLit(t.text == "true")
            elif t.kind == "ident":
                self.next()
                if self.at("[") or self.at("{"):
                    args: tuple = ()
                    if self.at("["):
                        if not self.generic:
                            self.fail("type arguments require the fgg dialect")
                        args = tuple(self.parse_type_list(scope))
                    self.expect("{")
                    e = self._open_args(pending, partial(StructLit, TypeApp(t.text, args)), "}")
                else:
                    e = Var(t.text)
            else:
                self.fail("expected expression, found %r" % (t.text or "end of input"), t)
            while e is not None:  # e is a primary: its suffixes, then what follows
                if self.accept("."):
                    if self.accept("("):
                        typ = self.parse_type(scope)
                        self.expect(")")
                        e = TypeAssert(e, typ)
                        continue
                    name = self.ident("field or method name").text
                    if self.at("["):
                        if not self.generic:
                            self.fail("type arguments require the fgg dialect")
                        targs = tuple(self.parse_type_list(scope))
                        self.expect("(")
                    elif self.accept("("):
                        targs = ()
                    else:
                        e = FieldSel(e, name)
                        continue
                    e = self._open_args(pending, partial(MethodCall, e, name, targs), ")")
                    continue
                t = self.peek()
                level = _OP_LEVEL.get(t.text) if t.kind == "punct" else None
                if level is not None:
                    if t.text == "!=":
                        self.require_fg_ext("struct inequality")
                    self.next()
                    pending.append((level, t.text, _close_ops(pending, level, e)))
                    break
                e = _close_ops(pending, 0, e)
                if not pending:
                    return e
                closing, make, items = pending[-1]
                items.append(e)
                if make and self.accept(","):
                    break
                self.expect(closing)
                pending.pop()
                e = make(tuple(items)) if make else e

    def _open_args(self, pending, make, closing: str):
        """The node ``make(())`` if the argument list just opened is empty;
        otherwise None, the list left pending."""
        if self.accept(closing):
            return make(())
        pending.append([closing, make, []])
        return None

    # -- statements / bodies ---------------------------------------------------

    def parse_body(self, scope: frozenset):
        """Statement list of a method body, ending before ``}``. The
        statements still waiting for the rest of the body are kept on
        ``pending``, innermost last, as for expressions."""
        pending = []
        while True:
            self.skip_semis()
            t = self.peek()
            if t.text == "if":
                self.require_extended("if")
                self.next()
                self.expect("(")
                cond = self.parse_expr(scope)
                self.expect(")")
                self.expect("{")
                pending.append(("then", cond))
                continue
            if t.text == "return":
                self.next()
                e = self.parse_expr(scope)
                self.skip_semis()
            elif t.text == "panic":
                self.require_fg_ext("panic")
                self.next()
                self.skip_semis()
                e = Panic()
            else:  # bare expression statement, sequenced with what follows
                self.require_extended("sequencing")
                first = self.parse_expr(scope)
                self.skip_semis()
                if self.at("}"):
                    self.fail("method body must end in a return")
                pending.append(("seq", first))
                continue
            while pending:  # e is a whole body: fill in what waits for it
                what, *parts = pending.pop()
                if what == "then":
                    self.expect("}")
                    has_else = self.accept("else")
                    if has_else:
                        self.expect("{")
                    else:
                        self.skip_semis()
                        if self.at("}"):
                            self.fail("expected a statement after else-less if")
                    pending.append(("else" if has_else else "rest", parts[0], e))
                    break
                if what == "else":
                    self.expect("}")
                    self.skip_semis()
                e = Seq(*parts, e) if what == "seq" else If(*parts, e)
            else:
                return e

    def parse_main_body(self):
        """``_ = e`` statements; the last one is the program expression."""
        exprs = []
        self.skip_semis()
        while not self.at("}"):
            t = self.ident("'_'")
            if t.text != "_":
                self.fail("main statements have the form `_ = expression`", t)
            self.expect("=")
            exprs.append(self.parse_expr(frozenset()))
            self.skip_semis()
        if not exprs:
            self.fail("main must contain at least one `_ = expression` statement")
        if len(exprs) > 1 and self.lang == "fg":
            self.fail("sequencing requires the extended dialect")
        e = exprs[-1]
        for first in reversed(exprs[:-1]):
            e = Seq(first, e)
        return e

    # -- declarations ----------------------------------------------------------

    def parse_sig(self, scope: frozenset):
        tformal, scope = (self.parse_formal(scope) if self.generic else ((), scope))
        self.expect("(")
        params = []
        if not self.at(")"):
            while True:
                pname = self.ident("parameter name").text
                ptype = self.parse_type(scope)
                params.append(Param(pname, ptype))
                if not self.accept(","):
                    break
        self.expect(")")
        ret = self.parse_type(scope)
        return MethodSig(tformal, tuple(params), ret), scope

    def parse_type_decl(self):
        name = self.ident("type name").text
        if not self.generic and self.at("["):
            self.fail("type parameters require the fgg dialect")
        formal, scope = self.parse_formal(frozenset()) if self.generic else ((), frozenset())
        t = self.peek()
        if t.text == "struct":
            self.next()
            self.expect("{")
            self.skip_semis()
            fields = []
            while not self.at("}"):
                fname = self.ident("field name").text
                ftype = self.parse_type(scope)
                fields.append(Param(fname, ftype))
                self.skip_semis()
            self.expect("}")
            return StructDecl(name, formal, tuple(fields))
        if t.text == "interface":
            self.next()
            self.expect("{")
            self.skip_semis()
            specs = []
            while not self.at("}"):
                mname = self.ident("method name").text
                sig, _ = self.parse_sig(scope)
                specs.append(MethodSpec(mname, sig))
                self.skip_semis()
            self.expect("}")
            return InterfaceDecl(name, formal, tuple(specs))
        self.fail("expected 'struct' or 'interface'", t)

    def parse_method_decl(self):
        self.expect("(")
        recv_name = self.ident("receiver name").text
        recv_type = self.ident("receiver type").text
        recv_params: tuple = ()
        if self.at("["):
            if not self.generic:
                self.fail("receiver type parameters require the fgg dialect")
            self.next()
            names = []
            if not self.at("]"):
                names.append(self.ident("type parameter").text)
                while self.accept(","):
                    names.append(self.ident("type parameter").text)
            self.expect("]")
            recv_params = tuple(names)
        self.expect(")")
        mname = self.ident("method name").text
        sig, scope = self.parse_sig(frozenset(recv_params))
        self.expect("{")
        body = self.parse_body(scope)
        self.expect("}")
        return MethodDecl(recv_name, recv_type, recv_params, mname, sig, body)

    # -- program ----------------------------------------------------------------

    def parse_program(self) -> Program:
        self.skip_semis()
        t = self.peek()
        if not (t.text == "package"):
            self.fail("missing package main", t)
        self.next()
        t = self.ident("'main'")
        if t.text != "main":
            self.fail("missing package main", t)
        self.skip_semis()

        decls = []
        main = None
        while not self.peek().kind == "eof":
            t = self.peek()
            if t.text == "type":
                self.next()
                decls.append(self.parse_type_decl())
            elif t.text == "func":
                self.next()
                if self.peek().kind == "ident" and self.peek().text == "main":
                    self.next()
                    self.expect("(")
                    self.expect(")")
                    self.expect("{")
                    if main is not None:
                        self.fail("duplicate main function", t)
                    main = self.parse_main_body()
                    self.expect("}")
                else:
                    decls.append(self.parse_method_decl())
            else:
                self.fail("expected a declaration, found %r" % (t.text or "end of input"), t)
            self.skip_semis()
        if main is None:
            self.fail("missing main function")
        return Program(tuple(decls), main)


def parse_program(source: str, lang: str) -> Program:
    """Parse ``source`` in the given dialect; raises ParseError on failure."""
    return _Parser(source, lang).parse_program()


def parse_fg(source: str, dialect: str = "core") -> Program:
    """Parse FG source. ``dialect`` is ``"core"`` or ``"extended"``."""
    if dialect not in ("core", "extended"):
        raise ValueError("dialect must be 'core' or 'extended'")
    return parse_program(source, "fg" if dialect == "core" else "fg-ext")


def parse_fgg(source: str) -> Program:
    return parse_program(source, "fgg")
