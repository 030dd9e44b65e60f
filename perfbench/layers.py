"""Per-layer metrics: where the tracer wraps the program, and how the
metrics are derived from the spans of one traced pass.

Each function is wrapped at every module (or class) that binds it, because
``from .typecheck import fgg_typecheck_expr`` gives dicttrans its own name
for the function and a call through that name would bypass a wrapper
installed on ``typecheck`` alone.
"""

from __future__ import annotations

from feathergo import bench, cosim, dicttrans, erasure, parser, reduce, syntax, typecheck

RULES = ("r-assert", "r-call", "r-ext-binop", "r-ext-if", "r-ext-neq", "r-ext-seq", "r-fields")


def targets() -> list:
    """(span name, function name, owners binding it)."""
    tc, dt, er, cs = typecheck, dicttrans, erasure, cosim
    return [
        ("typecheck.fgg_typecheck_program", "fgg_typecheck_program", (tc, dt, er)),
        ("typecheck.fgg_typecheck_expr", "fgg_typecheck_expr", (tc, dt, er)),
        ("typecheck.fg_typecheck_program", "fg_typecheck_program", (tc,)),
        ("typecheck.fg_subtype", "fg_subtype", (tc, reduce, cs)),
        ("cosim.dict_normalize", "dict_normalize", (cs,)),
        ("cosim.dict_redex_positions", "dict_redex_positions", (cs,)),
        ("cosim.contract_dict_at", "contract_dict_at", (cs,)),
        ("cosim.settle", "settle", (cs,)),
        ("cosim.macro_step", "macro_step", (cs,)),
        ("dicttrans.Translator.typeof", "typeof", (dt.Translator,)),
        ("dicttrans.Translator.translate_closed_expr", "translate_closed_expr", (dt.Translator,)),
        ("dicttrans.Translator.translate_program", "translate_program", (dt.Translator,)),
        ("reduce.run", "run", (reduce,)),
        ("parser.parse_fgg", "parse_fgg", (parser,)),
        ("syntax.pretty_print", "pretty_print", (syntax,)),
        ("bench.generate", "generate", (bench,)),
    ]


def install(tracer) -> None:
    for name, attr, owners in targets():
        for owner in owners:
            tracer.wrap(owner, attr, name)


# name -> unit, in the order they are reported
UNITS = {
    "parser.ms": "ms",
    "parser.tokens_per_s": "tokens/s",
    "syntax.print_ms": "ms",
    "typecheck.fgg_program_ms": "ms",
    "typecheck.fgg_program_calls": "count",
    "typecheck.fg_program_ms": "ms",
    "typecheck.fgg_expr_calls": "count",
    "typecheck.fg_subtype_calls": "count",
    "typecheck.fg_subtype_ms": "ms",
    "dicttrans.typeof_calls": "count",
    "dicttrans.translate_self_ms": "ms",
    "dicttrans.retranslate_ms": "ms",
    "dicttrans.retranslate_calls": "count",
    "erasure.erase_self_ms": "ms",
    "reduce.fgg_us_per_step": "us",
    "reduce.fg_us_per_step": "us",
    "reduce.loop_us_per_step": "us",
    "reduce.deep_us_per_step": "us",
    **{"reduce.rule." + r: "count" for r in RULES},
    "cosim.normalize_self_ms": "ms",
    "cosim.redex_scans": "count",
    "cosim.contractions": "count",
    "cosim.contractions_per_scan": "ratio",
    "cosim.settle_ms": "ms",
    "cosim.macro_ms": "ms",
    "cosim.ms_per_src_step": "ms",
    "bench.generate_ms": "ms",
    "trace.overhead_pct": "%",
}


class Absent(Exception):
    """A metric whose spans were never recorded."""


def pass_metrics(tracer, tokens: int, rule_counts) -> tuple:
    """Metrics of one traced pass: ({name: value}, {name: note}) with every
    name of UNITS except bench.generate_ms and trace.overhead_pct, which the
    caller measures around set-up and around whole passes."""
    summary = tracer.summary()

    def row(name):
        if name not in summary:
            raise Absent("%s was never called" % name)
        return summary[name]

    def ms(name, key="total_s"):
        return 1000.0 * row(name)[key]

    def within(root, prefixes):
        row(root)
        return 1000.0 * tracer.self_within(root, prefixes)

    def runs(**match):
        spans = [s for s in tracer.spans if s[0] == "pipeline.run" and all(s[4].get(k) in v for k, v in match.items())]
        if not spans:
            raise Absent("no run matched %s" % match)
        steps = sum(s[4]["steps"] for s in spans)
        return 1e6 * sum(s[2] - s[1] for s in spans) / max(steps, 1)

    def retranslations():
        spans = tracer.children_of("pipeline.cosim", "dicttrans.Translator.translate_closed_expr")
        if not spans:
            raise Absent("no translate_closed_expr call under check_correspondence")
        return spans

    def per_src_step():
        spans = [s for s in tracer.spans if s[0] == "pipeline.cosim"]
        if not spans:
            raise Absent("no cosim run")
        return 1000.0 * sum(s[2] - s[1] for s in spans) / max(1, sum(s[4]["steps"] for s in spans))

    derive = {
        "parser.ms": lambda: ms("parser.parse_fgg"),
        "parser.tokens_per_s": lambda: tokens / row("parser.parse_fgg")["total_s"],
        "syntax.print_ms": lambda: ms("syntax.pretty_print"),
        "typecheck.fgg_program_ms": lambda: ms("typecheck.fgg_typecheck_program"),
        "typecheck.fgg_program_calls": lambda: row("typecheck.fgg_typecheck_program")["calls"],
        "typecheck.fg_program_ms": lambda: ms("typecheck.fg_typecheck_program"),
        "typecheck.fgg_expr_calls": lambda: row("typecheck.fgg_typecheck_expr")["calls"],
        "typecheck.fg_subtype_calls": lambda: row("typecheck.fg_subtype")["calls"],
        "typecheck.fg_subtype_ms": lambda: ms("typecheck.fg_subtype"),
        "dicttrans.typeof_calls": lambda: row("dicttrans.Translator.typeof")["calls"],
        # the translator's own time in the compile pipeline, main's translation
        # included; its typechecker calls are child spans and drop out
        "dicttrans.translate_self_ms": lambda: within("pipeline.dicttrans", ("pipeline.dicttrans", "dicttrans.")),
        "dicttrans.retranslate_ms": lambda: 1000.0 * sum(s[2] - s[1] for s in retranslations()),
        "dicttrans.retranslate_calls": lambda: len(retranslations()),
        "erasure.erase_self_ms": lambda: within("pipeline.erasure", ("pipeline.erasure",)),
        "reduce.fgg_us_per_step": lambda: runs(side=("fgg",)),
        "reduce.fg_us_per_step": lambda: runs(side=("dict", "erasure")),
        "reduce.loop_us_per_step": lambda: runs(kind=("loop",)),
        "reduce.deep_us_per_step": lambda: runs(kind=("deep",)),
        **{"reduce.rule." + r: (lambda r=r: rule_counts.get(r, 0)) for r in RULES},
        "cosim.normalize_self_ms": lambda: ms("cosim.dict_normalize", "self_s"),
        "cosim.redex_scans": lambda: row("cosim.dict_redex_positions")["calls"],
        "cosim.contractions": lambda: row("cosim.contract_dict_at")["spans"],
        "cosim.contractions_per_scan": lambda: row("cosim.contract_dict_at")["spans"]
        / row("cosim.dict_redex_positions")["calls"],
        "cosim.settle_ms": lambda: ms("cosim.settle"),
        "cosim.macro_ms": lambda: ms("cosim.macro_step"),
        "cosim.ms_per_src_step": per_src_step,
    }
    values, notes = {}, {}
    for name, fn in derive.items():
        try:
            values[name] = float(fn())
        except Absent as ex:
            notes[name] = str(ex)
    return values, notes
