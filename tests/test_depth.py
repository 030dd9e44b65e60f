"""Deep terms at the interpreter's default recursion limit: every expression
pass folds iteratively, so 10^4 levels of nesting go through the whole
pipeline."""

import pytest

from feathergo.bench import BenchConfig, generate
from feathergo.cosim import check_correspondence
from feathergo.dicttrans import translate_program
from feathergo.erasure import erase_program
from feathergo.parser import parse_fgg
from feathergo.reduce import run
from feathergo.syntax import pretty_print
from feathergo.typecheck import fg_typecheck_program, fgg_typecheck_program

DEPTH = 10_000
BOX = "package main\ntype Any interface {}\ntype Box[T Any] struct { v T }\n"

DEEP_INPUTS = {
    "chain": BOX + "func (b Box[T]) Id() Box[T] { return b }\nfunc main() { _ = Box[int]{1}" + ".Id()" * DEPTH + " }\n",
    "binop": "package main\nfunc main() { _ = %s }\n" % " + ".join(["1"] * DEPTH),
    "literal": BOX + "func main() { _ = " + "Box[Any]{" * DEPTH + "1" + "}" * DEPTH + " }\n",
    "statements": BOX + "func (b Box[T]) Many() int {\n" + "\tb\n" * DEPTH + "\treturn 1\n}\n"
    "func main() { _ = Box[int]{1}.Many() }\n",
}


def _source(name: str) -> str:
    if name == "family-b":
        return pretty_print(generate(BenchConfig("b", 1000, 1)))
    return DEEP_INPUTS[name]


@pytest.mark.parametrize("name", [*DEEP_INPUTS, "family-b"])
def test_deep_input_goes_through_every_stage(default_recursion_limit, name):
    program = parse_fgg(_source(name))
    assert parse_fgg(pretty_print(program)) == program
    assert fgg_typecheck_program(program) == []
    targets = [translate_program(program), erase_program(program)[0]]
    for out in targets:
        assert fg_typecheck_program(out, "extended") == []
    for p, lang in [(program, "fgg")] + [(out, "fg") for out in targets]:
        res = run(p, max_steps=5, lang=lang)
        assert res.kind in ("value", "budget_exhausted")
        assert res.describe()  # the value printer folds too
    assert check_correspondence(program, max_steps=2).ok
