import sys
import unicodedata

import pytest

from feathergo.bench import BenchConfig, generate
from feathergo.parser import ParseError, parse_fg, parse_fgg, tokenize
from feathergo.syntax import (
    Binop,
    FormalParam,
    If,
    IntLit,
    MethodDecl,
    Panic,
    Seq,
    StructDecl,
    TypeApp,
    TypeAssert,
    Var,
    pretty_print,
)

from conftest import CORPUS_FILES, SMALL_FAMILIES, read, reference_tokenize


def test_fgg_listing_declaration_count():
    # the figure's two panels: 7 type declarations + 4 method declarations
    p = parse_fgg(read("fgg_list.fgg"))
    assert len(p.decls) == 11
    assert p.main is not None


def test_fg_listing_declaration_count():
    p = parse_fg(read("fg_list.fg"), "core")
    assert len(p.decls) == 11


def test_empty_input_reports_missing_package_main():
    with pytest.raises(ParseError) as ei:
        parse_fgg("")
    assert "missing package main" in ei.value.diagnostics[0].message


def test_missing_main_function():
    with pytest.raises(ParseError) as ei:
        parse_fgg("package main\ntype Nil struct {}\n")
    assert "missing main function" in str(ei.value)


def test_box_formal_entry():
    p = parse_fgg("package main\ntype Box[α Any] struct { value α }\ntype Any interface {}\nfunc main() { _ = Box[int]{1} }\n")
    box = p.decls[0]
    assert isinstance(box, StructDecl)
    assert box.formal == (FormalParam("α", TypeApp("Any")),)


def test_greek_identifiers_accepted():
    p = parse_fgg(read("box.fgg"))
    nest = [d for d in p.decls if isinstance(d, MethodDecl)][0]
    assert nest.recv_params == ("α",)


def test_extended_if_panic_neq_parse_under_extended_only():
    src = (
        "package main\n"
        "type Nil struct {}\n"
        "func (this Nil) F(x Nil, y Nil) Nil {\n"
        "\tif (x != y) { panic }\n"
        "\treturn x\n"
        "}\n"
        "func main() { _ = Nil{} }\n"
    )
    p = parse_fg(src, "extended")
    f = [d for d in p.decls if isinstance(d, MethodDecl)][0]
    assert isinstance(f.body, If) and isinstance(f.body.then, Panic) and f.body.els == Var("x")
    with pytest.raises(ParseError) as ei:
        parse_fg(src, "core")
    assert "extended" in str(ei.value)


def test_binop_literal_expression():
    src = "package main\ntype Nil struct {}\nfunc (this Nil) F() bool { return 5 < 3 }\nfunc main() { _ = Nil{} }\n"
    p = parse_fg(src, "extended")
    body = p.decls[1].body
    assert body == Binop("<", IntLit(5), IntLit(3))
    assert parse_fg(src, "core").decls[1].body == body  # builtin value forms are core too


def test_panic_rejected_in_fgg():
    src = "package main\ntype Nil struct {}\nfunc (this Nil) F() Nil { panic }\nfunc main() { _ = Nil{} }\n"
    with pytest.raises(ParseError):
        parse_fgg(src)


def test_generic_syntax_rejected_in_fg():
    with pytest.raises(ParseError) as ei:
        parse_fg("package main\ntype Box[T Any] struct {}\nfunc main() { _ = Box{} }\n", "extended")
    assert "fgg" in str(ei.value)


@pytest.mark.parametrize(
    "expr, col",
    [
        ("Nil{}.(Box[int])", 29),  # a type
        ("Box[int]{1}", 22),  # struct-literal type actuals
        ("Nil{}.Id[int]()", 27),  # call type actuals
    ],
    ids=["type", "struct-literal", "call"],
)
def test_type_arguments_rejected_in_fg_at_their_bracket(expr, col):
    with pytest.raises(ParseError) as ei:
        parse_fg("package main\ntype Nil struct {}\nfunc main() { _ = %s }\n" % expr)
    d = ei.value.diagnostics[0]
    assert (d.message, d.line, d.col) == ("type arguments require the fgg dialect", 3, col)


def test_duplicate_declaration_accepted_by_parser():
    # duplicates are a typecheck error, not a parse error
    src = "package main\ntype Nil struct {}\ntype Nil struct {}\nfunc main() { _ = Nil{} }\n"
    p = parse_fgg(src)
    assert len(p.decls) == 2


def test_main_sequencing():
    src = "package main\ntype Nil struct {}\nfunc main() {\n\t_ = Nil{}\n\t_ = Nil{}\n}\n"
    p = parse_fgg(src)
    assert isinstance(p.main, Seq)


def test_struct_trycast_statement_shape():
    # the statement sequence the translator emits for struct type-reps
    src = (
        "package main\n"
        "type Nil struct {}\n"
        "func (this Nil) tryCast(x Nil) Nil {\n"
        "\tx.(Nil)\n"
        "\tif (x != x) { panic }\n"
        "\treturn x\n"
        "}\n"
        "func main() { _ = Nil{} }\n"
    )
    body = parse_fg(src, "extended").decls[1].body
    assert isinstance(body, Seq)
    assert body.first == TypeAssert(Var("x"), TypeApp("Nil"))
    assert isinstance(body.rest, If)


def test_diagnostics_are_deterministic_and_positioned():
    src = "package main\ntype Nil struct\nfunc main() { _ = Nil{} }\n"
    msgs = []
    for _ in range(2):
        with pytest.raises(ParseError) as ei:
            parse_fgg(src)
        d = ei.value.diagnostics[0]
        msgs.append((d.message, d.line, d.col))
    assert msgs[0] == msgs[1]
    # points at the token that broke the declaration (the `func` on line 3)
    assert msgs[0][1] == 3 and msgs[0][2] == 1


@pytest.mark.parametrize(
    "literal, col, message",
    [
        ("²", 19, "unexpected character '²'"),  # a superscript digit
        ("1٣", 20, "unexpected character '٣'"),  # an Arabic-Indic digit
        ("1" * 5000, 19, "integer literal too long (5000 digits)"),
    ],
    ids=["superscript", "arabic-indic", "5000-digits"],
)
def test_int_literal_is_ascii_digits_int_can_convert(literal, col, message):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if len(literal) > 1000 and not 0 < limit < len(literal):
        pytest.skip("no limit on the digits int() converts")
    with pytest.raises(ParseError) as ei:
        parse_fgg("package main\nfunc main() { _ = %s }\n" % literal)
    d = ei.value.diagnostics[0]
    assert (d.message, d.line, d.col) == (message, 2, col)


def _lexed(lex, source: str) -> list:
    """Every token as (kind, text, line, col), or the lexer's diagnostics
    as (message, line, col)."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
    except ParseError as err:
        return [("error", d.message, d.line, d.col) for d in err.diagnostics]


_GTFUNC = read("gtfunc.fgg")

# inputs edited at the lexer's edges: non-ASCII letters and digits, a lone
# surrogate, line ends, tabs, comments and blanks at the end of input, and
# a character that starts no token
_EDITED = {
    "greek": "package main\ntype Κουτί struct { τιμή int }\nfunc main() { _ = Κουτί{1}.τιμή }\n",
    "superscript": "package main\nfunc main() { _ = ² }\n",
    "superscript-in-word": "package main\nfunc main() { _ = x² + ²x }\n",
    "arabic-indic": "package main\nfunc main() { _ = 1٣ }\n",
    "surrogate": "package main\nfunc main() { _ = \udcff }\n",
    "crlf": _GTFUNC.replace("\n", "\r\n"),
    "tabs": _GTFUNC.replace("    ", "\t").replace(" ", "\t\t"),
    "comment-at-eof": _GTFUNC + "// no newline after this",
    "trailing-spaces": _GTFUNC.replace("\n", "  \n") + "   ",
    "lone-bang": "package main\nfunc main() { _ = 1 ! 2 }\n",
    "bang-at-eof": "package main\n!",
    "no-newline-at-eof": _GTFUNC.rstrip("\n"),
    "empty": "",
}


@pytest.mark.parametrize(
    "source",
    [p.read_text() for p in CORPUS_FILES]
    + [pretty_print(generate(BenchConfig(f, n, 1))) for f, n in SMALL_FAMILIES]
    + list(_EDITED.values()),
    ids=[p.name for p in CORPUS_FILES] + ["%s%d" % fn for fn in SMALL_FAMILIES] + list(_EDITED),
)
def test_tokenize_matches_reference_loop(source):
    # the one-pattern lexer against the character loop it replaced: the
    # same tokens with the same positions, or the same diagnostic
    assert _lexed(tokenize, source) == _lexed(reference_tokenize, source)


def _character_classes() -> list:
    """Every ASCII character, and one code point of each class the lexer's
    pattern and ``str.isalpha`` can tell apart: ``\\w`` is ``str.isalnum``
    or ``_``, ``\\d`` is ``str.isdecimal``."""
    reps = {}
    for c in range(0x80, 0x110000):
        ch = chr(c)
        key = (ch.isalpha(), ch.isdecimal(), ch.isdigit(), ch.isnumeric(), ch.isspace(), unicodedata.category(ch))
        reps.setdefault(key, ch)
    return [chr(c) for c in range(0x80)] + list(reps.values())


def test_tokenize_matches_reference_loop_on_each_character_class():
    # a character alone, inside a word and after a digit
    for ch in _character_classes():
        for source in (ch, "a%sb" % ch, "1" + ch):
            assert _lexed(tokenize, source) == _lexed(reference_tokenize, source), hex(ord(ch))
