import pathlib
import sys

import pytest

from feathergo.dicttrans import dict_name, ptr_name
from feathergo.parser import parse_program
from feathergo.reduce import subst_expr, vtype
from feathergo.syntax import InterfaceDecl, MethodDecl, Panic, rebuild, subexprs

CORPUS = pathlib.Path(__file__).parent / "corpus"

# every .fgg corpus file that typechecks (fgg_list_fail is the negative fixture)
FGG_FILES = sorted(p for p in CORPUS.glob("*.fgg") if p.name != "fgg_list_fail.fgg")

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


def reference_body(m, recv, args, targs):
    """body(vtype(recv).m) by ``subst_expr``, with the maps built as r-call
    built them before bodies were compiled."""
    varmap = {m.recv_name: recv}
    varmap.update({p.name: a for p, a in zip(m.sig.params, args)})
    typemap = {r: t for r, t in zip(m.recv_params, vtype(recv).args)}
    typemap.update({fp.name: t for fp, t in zip(m.sig.tformal, targs)})
    return subst_expr(m.body, varmap, typemap)


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
