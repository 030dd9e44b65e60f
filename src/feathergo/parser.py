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

The lexer turns a source into lists of token kinds, texts and start offsets
plus the offsets of its newlines; the parser reads the lists by index. A
position is an offset until something reads it: a declaration's ``pos`` and
a diagnostic take line and column from a bisect over the newline offsets.
``tokenize`` gives the same tokens as ``Tok`` tuples, each with its line
and column.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

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

# A newline terminates a statement when the previous token could end one.
_ASI_AFTER_KIND = {"ident", "int"}
_ASI_AFTER_TEXT = {")", "}", "]", "true", "false", "panic"}

# binary operator -> precedence level; all associate to the left
_OP_LEVEL = {"!=": 1, "<": 2, ">": 2, "+": 3, "-": 3}


class Tok(NamedTuple):
    kind: str  # "ident" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


# One token per match, after blanks: a newline (group 1), an integer (2), a
# word (3), punctuation (4) or any other character (5), which is an error. A
# comment matches with no group. Digits are ASCII only (``\d`` also takes
# other scripts); a word's first character must also pass ``str.isalpha``,
# which rejects what ``\w`` takes besides letters and digits, such as ``²``.
_TOKEN = re.compile(r"[ \t\r]*(?:(\n)|//[^\n]*|([0-9]+)|([^\W\d]\w*)|(!=|[{}()\[\].,;=<>+\-])|([^ \t\r\n]))")
_KIND = (None, None, "int", "ident", "punct")


def _lex(source: str):
    """The kinds, texts and start offsets of the tokens of ``source``, the
    last one ``eof``, and the offsets of its newlines."""
    kinds, texts, starts, newlines = [], [], [], []
    for m in _TOKEN.finditer(source + "\n"):  # the end of input ends a line too
        k = m.lastindex
        if k == 1:
            i = m.start(1)
            if texts and (kinds[-1] in _ASI_AFTER_KIND or texts[-1] in _ASI_AFTER_TEXT):
                kinds.append("punct")
                texts.append(";")
                starts.append(i)
            newlines.append(i)
        elif k:
            i = m.start(k)
            text = m.group(k)
            if k == 3 and not (text[0] == "_" or text[0].isalpha()) or k == 5:
                raise ParseError([Diagnostic("unexpected character %r" % text[0], *_line_col(newlines, i))])
            kinds.append("punct" if text in KEYWORDS else _KIND[k])
            texts.append(text)
            starts.append(i)
    kinds.append("eof")
    texts.append("")
    starts.append(len(source))
    return kinds, texts, starts, newlines


def _line_col(newlines: list, offset: int) -> tuple:
    """The 1-based line and column of ``offset``, given the offsets of the
    newlines before it or all of them."""
    line = bisect_left(newlines, offset)
    return line + 1, offset - (newlines[line - 1] if line else -1)


def tokenize(source: str) -> list:
    kinds, texts, starts, newlines = _lex(source)
    return [Tok(k, t, *_line_col(newlines, i)) for k, t, i in zip(kinds, texts, starts)]


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
        self.kinds, self.texts, self.starts, self.newlines = _lex(source)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def next(self) -> str:
        """The current token's text; moves past it (never past ``eof``,
        which no caller consumes)."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def at(self, text: str) -> bool:
        # no identifier or integer has the text of punctuation or a keyword
        return self.texts[self.pos] == text

    def accept(self, text: str) -> bool:
        if self.texts[self.pos] == text:
            self.next()
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            self.fail("expected %r, found %r" % (text, self.texts[self.pos] or "end of input"))

    def ident(self, what: str = "identifier") -> str:
        if self.kinds[self.pos] != "ident":
            self.fail("expected %s, found %r" % (what, self.texts[self.pos] or "end of input"))
        return self.next()

    def where(self, i: int) -> tuple:
        """The line and column of token ``i``."""
        return _line_col(self.newlines, self.starts[i])

    def fail(self, message: str, i: int | None = None):
        """Report ``message`` at token ``i``, by default the current one."""
        raise ParseError([Diagnostic(message, *self.where(self.pos if i is None else i))])

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

    def parse_type(self, scope: frozenset, listed: bool = False):
        """A type, or if ``listed`` a bracketed list of them. The argument lists
        still open wait on ``pending``, innermost last, as in ``parse_expr``."""
        pending, name = [], None
        while True:
            if not listed:
                name = self.ident("type name")
                t = TypeParam(name) if name in scope else TypeApp(name)
            if listed or type(t) is TypeApp and self.at("["):
                if not self.generic:
                    self.fail("type arguments require the fgg dialect")
                self.expect("[")
                listed = False
                if not self.accept("]"):
                    pending.append((name, []))
                    continue
                t = TypeApp(name) if name else ()
            while pending:  # t ends an argument: read the next one, or close the list
                name, items = pending[-1]
                items.append(t)
                if self.accept(","):
                    break
                self.expect("]")
                pending.pop()
                t = TypeApp(name, tuple(items)) if name else tuple(items)
            else:
                return t

    def parse_formal(self, outer: frozenset):
        """Parse ``[a Bound, ...]``; bounds see all names of this formal."""
        if not self.accept("["):
            return (), outer
        names = []
        entries = []  # (name, typestart)
        if not self.at("]"):
            while True:
                nm = self.ident("type parameter")
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
                if self.kinds[self.pos] == "eof":
                    self.fail("unbalanced brackets")
                text = self.next()
                depth += (text == "[") - (text == "]")
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
            i = self.pos
            kind, text = self.kinds[i], self.texts[i]
            if text == "(":
                self.next()
                pending.append([")", None, []])
                continue
            if kind == "int":
                self.next()
                try:
                    e = IntLit(int(text))
                except ValueError:  # past the interpreter's limit on digits converted
                    self.fail("integer literal too long (%d digits)" % len(text), i)
            elif text == "true" or text == "false":
                self.next()
                e = BoolLit(text == "true")
            elif kind == "ident":
                self.next()
                if self.at("[") or self.at("{"):
                    args = self.parse_type(scope, True) if self.at("[") else ()
                    self.expect("{")
                    e = self._open_args(pending, partial(StructLit, TypeApp(text, args)), "}")
                else:
                    e = Var(text)
            else:
                self.fail("expected expression, found %r" % (text or "end of input"))
            while e is not None:  # e is a primary: its suffixes, then what follows
                if self.accept("."):
                    if self.accept("("):
                        typ = self.parse_type(scope)
                        self.expect(")")
                        e = TypeAssert(e, typ)
                        continue
                    name = self.ident("field or method name")
                    if self.at("["):
                        targs = self.parse_type(scope, True)
                        self.expect("(")
                    elif self.accept("("):
                        targs = ()
                    else:
                        e = FieldSel(e, name)
                        continue
                    e = self._open_args(pending, partial(MethodCall, e, name, targs), ")")
                    continue
                op = self.texts[self.pos]
                level = _OP_LEVEL.get(op) if self.kinds[self.pos] == "punct" else None
                if level is not None:
                    if op == "!=":
                        self.require_fg_ext("struct inequality")
                    self.next()
                    pending.append((level, op, _close_ops(pending, level, e)))
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
            if self.at("if"):
                self.require_extended("if")
                self.next()
                self.expect("(")
                cond = self.parse_expr(scope)
                self.expect(")")
                self.expect("{")
                pending.append(("then", cond))
                continue
            if self.accept("return"):
                e = self.parse_expr(scope)
                self.skip_semis()
            elif self.at("panic"):
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
            if self.ident("'_'") != "_":
                self.fail("main statements have the form `_ = expression`", self.pos - 1)
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
                pname = self.ident("parameter name")
                ptype = self.parse_type(scope)
                params.append(Param(pname, ptype))
                if not self.accept(","):
                    break
        self.expect(")")
        ret = self.parse_type(scope)
        return MethodSig(tformal, tuple(params), ret), scope

    def parse_type_decl(self, pos: tuple):
        name = self.ident("type name")
        if not self.generic and self.at("["):
            self.fail("type parameters require the fgg dialect")
        formal, scope = self.parse_formal(frozenset()) if self.generic else ((), frozenset())
        if self.accept("struct"):
            self.expect("{")
            self.skip_semis()
            fields = []
            while not self.at("}"):
                fname = self.ident("field name")
                ftype = self.parse_type(scope)
                fields.append(Param(fname, ftype))
                self.skip_semis()
            self.expect("}")
            return StructDecl(name, formal, tuple(fields), pos=pos)
        if self.accept("interface"):
            self.expect("{")
            self.skip_semis()
            specs = []
            while not self.at("}"):
                mname = self.ident("method name")
                sig, _ = self.parse_sig(scope)
                specs.append(MethodSpec(mname, sig))
                self.skip_semis()
            self.expect("}")
            return InterfaceDecl(name, formal, tuple(specs), pos=pos)
        self.fail("expected 'struct' or 'interface'")

    def parse_method_decl(self, pos: tuple):
        self.expect("(")
        recv_name = self.ident("receiver name")
        recv_type = self.ident("receiver type")
        recv_params: tuple = ()
        if self.at("["):
            if not self.generic:
                self.fail("receiver type parameters require the fgg dialect")
            self.next()
            names = []
            if not self.at("]"):
                names.append(self.ident("type parameter"))
                while self.accept(","):
                    names.append(self.ident("type parameter"))
            self.expect("]")
            recv_params = tuple(names)
        self.expect(")")
        mname = self.ident("method name")
        sig, scope = self.parse_sig(frozenset(recv_params))
        self.expect("{")
        body = self.parse_body(scope)
        self.expect("}")
        return MethodDecl(recv_name, recv_type, recv_params, mname, sig, body, pos=pos)

    # -- program ----------------------------------------------------------------

    def parse_program(self) -> Program:
        self.skip_semis()
        if not self.accept("package"):
            self.fail("missing package main")
        if self.ident("'main'") != "main":
            self.fail("missing package main", self.pos - 1)
        self.skip_semis()

        decls = []
        main = None
        while self.kinds[self.pos] != "eof":
            start = self.pos
            if self.accept("type"):
                decls.append(self.parse_type_decl(self.where(start)))
            elif self.accept("func"):
                if self.accept("main"):
                    self.expect("(")
                    self.expect(")")
                    self.expect("{")
                    if main is not None:
                        self.fail("duplicate main function", start)
                    main, main_pos = self.parse_main_body(), self.where(start)
                    self.expect("}")
                else:
                    decls.append(self.parse_method_decl(self.where(start)))
            else:
                self.fail("expected a declaration, found %r" % (self.texts[start] or "end of input"))
            self.skip_semis()
        if main is None:
            self.fail("missing main function")
        return Program(tuple(decls), main, pos=main_pos)


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
