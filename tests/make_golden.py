"""Write the two pinned files under ``tests/corpus/``. Run by hand from the
repository root, after a change that is meant to alter an output:

    PYTHONPATH=src python tests/make_golden.py

``golden_outputs.json``, which ``tests/test_golden.py`` compares against,
holds for each corpus ``.fgg`` what the console script prints (exit code,
stdout and stderr) for the dict and erasure translations, the dict
translation's ``--emit-inventory`` JSON, the text ``cosim`` report and,
for the terminating programs, ``run --trace``; each command runs in the
corpus directory on the bare file name. It also holds the text of the
``TranslationError`` that ``dicttrans.translate_program`` raises on
``fgg_list_fail.fgg``. For families a-e at 2-5 with 1 and 3 iterations it
holds the sha256 and node count of each printed translation, since their
text is large, the ``reduce.run`` outcome of the source and of each
translation (kind, steps, and the printed value or panic text), and for
families a-e at 2-3 with 1 and 3 iterations the sha256 of
``check_correspondence(..., max_steps=200).to_json()``.

``cosim_reports.json``, which ``tests/test_cosim.py`` and CI's corpus
co-simulation step compare against, holds the JSON report of
``check_correspondence`` for each corpus ``.fgg`` that typechecks: omega to
2,000 steps, every other program to its end (within 500). It is written one
step record per line.

Regenerating a file is a test-data change: say in ``CHANGES.md`` which
outputs changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib

from feathergo import cli
from feathergo.bench import BenchConfig, generate
from feathergo.cosim import check_correspondence
from feathergo.dicttrans import TranslationError, translate_program
from feathergo.erasure import erase_program
from feathergo.parser import parse_fgg
from feathergo.reduce import run
from feathergo.syntax import node_count, pretty_print

CORPUS = pathlib.Path(__file__).parent / "corpus"
GOLDEN = CORPUS / "golden_outputs.json"
COSIM_REPORTS = CORPUS / "cosim_reports.json"

COMMANDS = ("translate --mode dict", "translate --mode erasure", "translate --mode dict --emit-inventory", "cosim")
NOT_RUN = ("omega.fgg", "fgg_list_fail.fgg")  # one never ends, the other does not typecheck
FAMILY_PARAMS = range(2, 6)
FAMILY_ITERATIONS = (1, 3)
COSIM_PARAMS = range(2, 4)
COSIM_STEPS = 200


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
        commands = COMMANDS if path.name in NOT_RUN else (*COMMANDS, "run --trace")
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
                name = "%s%d x%d" % (family, n, iterations)
                translations = (("dict", translate_program(program)), ("erasure", erase_program(program)[0]))
                for mode, out in translations:
                    text = pretty_print(out).encode()
                    outputs["%s %s" % (name, mode)] = {
                        "sha256": hashlib.sha256(text).hexdigest(),
                        "nodes": node_count(out),
                    }
                for side, p, lang in (("fgg", program, "fgg"), *[(mode, out, "fg") for mode, out in translations]):
                    res = run(p, lang=lang)
                    outputs["%s %s run" % (name, side)] = {"kind": res.kind, "steps": res.steps, "outcome": res.describe()}
                if n in COSIM_PARAMS:
                    report = check_correspondence(program, max_steps=COSIM_STEPS).to_json()
                    outputs["%s cosim" % name] = {
                        "sha256": hashlib.sha256(report.encode()).hexdigest(),
                    }
    return outputs


def golden_outputs() -> dict:
    return {
        "corpus": corpus_outputs(),
        "translation_error": {"fgg_list_fail.fgg": translation_error("fgg_list_fail.fgg")},
        "families": family_outputs(),
    }


def cosim_reports() -> str:
    """The text of ``cosim_reports.json``: each report's fields two spaces
    in, and its step records one a line."""
    entries = []
    for path in sorted(CORPUS.glob("*.fgg")):
        if path.name == "fgg_list_fail.fgg":
            continue
        steps = 2000 if path.name == "omega.fgg" else 500
        report = json.loads(check_correspondence(parse_fgg(path.read_text()), max_steps=steps).to_json())
        fields = []
        for key, value in report.items():
            text = json.dumps(value)
            if key == "records" and value:
                text = "[\n%s\n  ]" % ",\n".join("    " + json.dumps(r) for r in value)
            fields.append("  %s: %s" % (json.dumps(key), text))
        entries.append("%s: {\n%s\n}" % (json.dumps(path.name), ",\n".join(fields)))
    return "{\n%s\n}\n" % ",\n".join(entries)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_outputs(), indent=1) + "\n", encoding="utf-8")
    COSIM_REPORTS.write_text(cosim_reports(), encoding="utf-8")
    print("wrote %s and %s" % (GOLDEN, COSIM_REPORTS))
