"""The three phases every input goes through, each called through the
program's public functions and checked against the expected results.

Functions are looked up on their modules at call time (``typecheck.
fgg_typecheck_program``, not a name imported here), so a tracer that has
wrapped a module attribute sees the call.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

from feathergo import cosim, dicttrans, erasure, parser, reduce, syntax, typecheck

SIDES = ("fgg", "dict", "erasure")


class CheckFailed(Exception):
    """An output differs from what it should be."""


@dataclass
class Compiled:
    program: object
    outputs: dict  # side -> FG program, for "dict" and "erasure"


def _span(tracer, name: str, **tags):
    return tracer.span(name, **tags) if tracer is not None else contextlib.nullcontext(tags)


def _require_clean(diags, what: str) -> None:
    if diags:
        raise CheckFailed("%s does not typecheck: %s" % (what, "; ".join(d.message for d in diags[:3])))


def compile_input(source: str, tracer=None) -> Compiled:
    """parse -> FGG typecheck -> dict translation -> FG typecheck -> erasure
    -> FG typecheck -> print both outputs."""
    program = parser.parse_fgg(source)
    _require_clean(typecheck.fgg_typecheck_program(program), "source")
    with _span(tracer, "pipeline.dicttrans"):
        dict_out = dicttrans.translate_program(program)
    _require_clean(typecheck.fg_typecheck_program(dict_out, "extended"), "dict output")
    with _span(tracer, "pipeline.erasure"):
        erasure_out, _warnings = erasure.erase_program(program)
    _require_clean(typecheck.fg_typecheck_program(erasure_out, "extended"), "erasure output")
    outputs = {"dict": dict_out, "erasure": erasure_out}
    for out in outputs.values():
        syntax.pretty_print(out)  # the printed program is what a user gets; only its cost matters here
    return Compiled(program, outputs)


def run_side(compiled: Compiled, side: str, max_steps: int, trace=None):
    program = compiled.program if side == "fgg" else compiled.outputs[side]
    return reduce.run(program, max_steps=max_steps, lang="fgg" if side == "fgg" else "fg", trace=trace)


def cosim_input(compiled: Compiled, cap: int):
    return cosim.check_correspondence(compiled.program, max_steps=cap)


# ---------------------------------------------------------------------------
# Checking results


def field_counts(program) -> dict:
    return {d.name: len(d.fields) for d in program.decls if isinstance(d, syntax.StructDecl)}


def plain(value, fields: dict) -> str:
    """A value with type actuals and dictionary fields dropped, so source,
    dict and erasure values of the same result print alike."""
    if isinstance(value, syntax.StructLit):
        args = value.args[: fields.get(value.type.name, len(value.args))]
        return "%s{%s}" % (value.type.name, ", ".join(plain(a, fields) for a in args))
    return syntax.print_expr(value)


def outcome(result, fields: dict) -> str:
    if result.kind == "value":
        return "value " + plain(result.value, fields)
    return "panic" if result.kind == "panic" else "budget"


def check_run(side: str, result, source_result, fields: dict, expected: dict) -> None:
    if side == "fgg":
        if result.describe() != expected["result"]:
            raise CheckFailed("source result %r, expected %r" % (result.describe(), expected["result"]))
        return
    want = expected.get(side) or outcome(source_result, fields)
    got = outcome(result, fields)
    if got != want:
        raise CheckFailed("%s result %r, expected %r" % (side, got, want))


def check_cosim(report, expected: dict) -> None:
    want = expected["cosim"]
    got = {"ok": report.ok, "terminal": report.terminal.kind}
    if got != want:
        raise CheckFailed("cosim %r, expected %r" % (got, want))


# ---------------------------------------------------------------------------
# One pass


@dataclass
class PassResult:
    times: dict  # (input name, phase) -> seconds; phase is compile, a side, or cosim
    steps: dict  # (input name, side) -> steps taken
    cosim_steps: dict  # input name -> source steps checked
    nodes: dict  # input name -> node counts of the source and both outputs, if counted
    chunk_s: dict = field(default_factory=dict)  # (input name, phase) -> reference chunk seconds around it
    attempted: int = 0
    failures: list = field(default_factory=list)  # (input, phase, exception, ops failed)


def one_pass(inputs, expected: dict, tracer=None, rule_counts=None, gauge=None, count_nodes=False) -> PassResult:
    """Every input through compile, then run and cosim if its spec asks.

    Any exception or mismatch counts as one failed operation; the phases of
    an input that depend on a failed one count as failed too. Compiled
    programs are dropped once their input is done, so that what later items
    pay for garbage collection does not depend on the inputs before them;
    ``count_nodes`` records their sizes first.

    ``gauge``, if given, is called with each item's time right after the
    item and returns the reference seconds and chunks it ran
    (``reference.gauge``); an item's chunk time is the mean over the chunks
    right before and right after it."""
    res = PassResult({}, {}, {}, {})
    clock = time.perf_counter
    before = (0.0, 0)  # reference seconds and chunks right before the current item

    def record(key, t0):
        nonlocal before
        res.times[key] = clock() - t0
        if gauge is not None:
            after = gauge(res.times[key])
            res.chunk_s[key] = (before[0] + after[0]) / (before[1] + after[1])
            before = after

    trace = None
    if rule_counts is not None:
        def trace(rule, _redex):
            rule_counts[rule] += 1

    for inp in inputs:
        spec, want = inp.spec, expected[inp.name]
        ops = 1 + (len(SIDES) if spec.run_steps else 0) + (1 if spec.cosim_cap else 0)
        res.attempted += ops
        try:
            t0 = clock()
            with _span(tracer, "pipeline.compile", input=inp.name):
                compiled = compile_input(inp.source, tracer)
            record((inp.name, "compile"), t0)
        except Exception as ex:  # RecursionError included
            res.failures.append((inp.name, "compile", ex, ops))
            continue
        if count_nodes:
            res.nodes[inp.name] = {
                "source": syntax.node_count(compiled.program),
                **{side: syntax.node_count(out) for side, out in compiled.outputs.items()},
            }
        fields = field_counts(compiled.program)
        source_result = None
        for side in SIDES if spec.run_steps else ():
            try:
                t0 = clock()
                with _span(tracer, "pipeline.run", side=side, kind=spec.kind) as tags:
                    result = run_side(compiled, side, spec.run_steps, trace if side != "fgg" else None)
                    tags["steps"] = result.steps
                record((inp.name, side), t0)
                res.steps[(inp.name, side)] = result.steps
                check_run(side, result, source_result, fields, want)
                if side == "fgg":
                    source_result = result
            except Exception as ex:  # RecursionError included
                res.failures.append((inp.name, side, ex, 1))
                if side == "fgg":
                    res.failures.append((inp.name, "targets", CheckFailed("no source result"), 2))
                    break
        if spec.cosim_cap:
            try:
                t0 = clock()
                with _span(tracer, "pipeline.cosim") as tags:
                    report = cosim_input(compiled, spec.cosim_cap)
                    tags["steps"] = len(report.records)
                record((inp.name, "cosim"), t0)
                res.cosim_steps[inp.name] = len(report.records)
                check_cosim(report, want)
            except Exception as ex:  # RecursionError included
                res.failures.append((inp.name, "cosim", ex, 1))
    return res


def failed_ops(res: PassResult) -> int:
    return sum(n for *_, n in res.failures)
