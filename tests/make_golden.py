"""Write ``tests/corpus/golden_outputs.json``, the pinned outputs that
``tests/test_golden.py`` compares against. Run by hand from the repository
root, after a change that is meant to alter an output:

    PYTHONPATH=src python tests/make_golden.py

The file holds, for each corpus ``.fgg``, what the console script prints
(exit code, stdout and stderr) for the dict and erasure translations, the
dict translation's ``--emit-inventory`` JSON and, for the terminating
programs, ``run --trace``; each command runs in the corpus directory on the
bare file name. It also holds the text of the ``TranslationError`` that
``dicttrans.translate_program`` raises on ``fgg_list_fail.fgg``. For
families a-e at 2-5 with 1 and 3 iterations it holds the sha256 and node
count of each printed translation, since their text is large. Regenerating the file is a test-data change: say in ``CHANGES.md``
which outputs changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib

from feathergo import cli
from feathergo.bench import BenchConfig, generate
from feathergo.dicttrans import TranslationError, translate_program
from feathergo.erasure import erase_program
from feathergo.parser import parse_fgg
from feathergo.syntax import node_count, pretty_print

CORPUS = pathlib.Path(__file__).parent / "corpus"
GOLDEN = CORPUS / "golden_outputs.json"

TRANSLATIONS = ("translate --mode dict", "translate --mode erasure", "translate --mode dict --emit-inventory")
NOT_RUN = ("omega.fgg", "fgg_list_fail.fgg")  # one never ends, the other does not typecheck
FAMILY_PARAMS = range(2, 6)
FAMILY_ITERATIONS = (1, 3)


def console(command: str, name: str) -> dict:
    """What ``feathergo <command> <name>`` exits with and prints, run in
    the corpus directory."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(CORPUS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command.split(), name])
    finally:
        os.chdir(cwd)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def corpus_outputs() -> dict:
    outputs = {}
    for path in sorted(CORPUS.glob("*.fgg")):
        commands = TRANSLATIONS if path.name in NOT_RUN else (*TRANSLATIONS, "run --trace")
        outputs[path.name] = {c: console(c, path.name) for c in commands}
    return outputs


def translation_error(name: str) -> str:
    try:
        translate_program(parse_fgg((CORPUS / name).read_text()))
    except TranslationError as ex:
        return str(ex)
    return "no TranslationError"


def family_outputs() -> dict:
    outputs = {}
    for family in "abcde":
        for n in FAMILY_PARAMS:
            for iterations in FAMILY_ITERATIONS:
                program = generate(BenchConfig(family, n, iterations))
                for mode, out in (("dict", translate_program(program)), ("erasure", erase_program(program)[0])):
                    text = pretty_print(out).encode()
                    outputs["%s%d x%d %s" % (family, n, iterations, mode)] = {
                        "sha256": hashlib.sha256(text).hexdigest(),
                        "nodes": node_count(out),
                    }
    return outputs


def golden_outputs() -> dict:
    return {
        "corpus": corpus_outputs(),
        "translation_error": {"fgg_list_fail.fgg": translation_error("fgg_list_fail.fgg")},
        "families": family_outputs(),
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n", encoding="utf-8")
    print("wrote %s" % GOLDEN)
