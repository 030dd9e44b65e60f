"""Micro-benchmark program families and the metrics sweep.

Five FGG program families, each derived from one base program and scaled by
a single configuration parameter:

* family "a": number of methods on the generic interface (``Base``),
* family "b": number of non-generic operations chained in ``Ops``,
* family "c": number of type parameters threaded through the call chain,
  with all 2^m actual combinations enumerated,
* family "d": length of the call chain between ``DoIt`` and ``CallBase``,
* family "e": type-parameter count and chain length coupled, each caller
  calling its callee twice with one extra argument -- the source call tree
  doubles per step while the translated declarations only grow
  polynomially.

The base program (family defaults n=2, c=2, m=2, p=2): ``DoIt`` enumerates
type-actual combinations over the two ``Base`` implementations (``Red``,
``Blue``) and calls ``f_1``; the ``f_i`` chain forwards to ``CallBase``,
which invokes every ``Base`` method on its generic argument and feeds the
sum through ``Ops``/``Op``. ``main`` repeats ``DoIt`` ``iterations`` times.
Functions are modelled as methods on the carrier struct ``Runner``.

Metrics are desk-scale proxies: AST node count of translator output,
interpreter step count, and local translation wall time, written as CSV
rows ``family,param,translator,output_nodes,steps,translate_millis,error``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from . import dicttrans, erasure
from .reduce import run as run_program
from .syntax import (
    INT,
    Binop,
    Expr,
    FormalParam,
    IntLit,
    InterfaceDecl,
    MethodCall,
    MethodDecl,
    MethodSig,
    MethodSpec,
    Param,
    Program,
    Seq,
    StructDecl,
    StructLit,
    TypeApp,
    TypeParam,
    Var,
    node_count,
)

FAMILIES = ("a", "b", "c", "d", "e")

BASE = TypeApp("Base")


@dataclass(frozen=True)
class BenchConfig:
    family: str
    param: int
    iterations: int = 100

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("family must be one of %s" % (FAMILIES,))
        lo = 1 if self.family == "b" else 2
        if self.param < lo:
            raise ValueError("family %s needs param >= %d" % (self.family, lo))
        if self.iterations < 1:
            raise ValueError("iterations must be positive")


@dataclass(frozen=True)
class MetricsRow:
    family: str
    param: int
    translator: str  # "dict" | "erasure"
    output_nodes: int | None
    steps: int | None
    translate_millis: float | None
    error: str = ""

    def as_csv(self) -> str:
        def cell(x):
            return "" if x is None else ("%.3f" % x if isinstance(x, float) else str(x))

        return ",".join(
            [self.family, str(self.param), self.translator, cell(self.output_nodes), cell(self.steps), cell(self.translate_millis), self.error]
        )


CSV_HEADER = "family,param,translator,output_nodes,steps,translate_millis,error"


def _sum(exprs) -> Expr:
    out = exprs[0]
    for e in exprs[1:]:
        out = Binop("+", out, e)
    return out


def _runner_method(name, tformal, params, ret, body) -> MethodDecl:
    return MethodDecl("this", "Runner", (), name, MethodSig(tformal, params, ret), body)


def generate(config: BenchConfig) -> Program:
    """Build the family's FGG program. Total on valid configs, deterministic
    (same config, byte-identical source), and assertion-free: both
    translators preserve its computed value."""
    n = config.param if config.family == "a" else 2
    c = config.param if config.family == "b" else 2
    m = config.param if config.family == "c" else 2
    p = config.param if config.family == "d" else 2

    decls: list = [InterfaceDecl("Any")]
    gsigs = [("g_%d" % i, MethodSig((), (), INT)) for i in range(1, n + 1)]
    decls.append(InterfaceDecl("Base", (), tuple(MethodSpec(g, s) for g, s in gsigs)))
    for impl, base_val in (("Red", 1), ("Blue", 2)):
        decls.append(StructDecl(impl))
        for i, (g, s) in enumerate(gsigs):
            decls.append(MethodDecl("this", impl, (), g, s, IntLit(base_val + i)))
    decls.append(StructDecl("Runner"))

    decls.append(_runner_method("Op", (), (Param("x", INT),), INT, Binop("+", Var("x"), IntLit(1))))
    ops_body: Expr = Var("x")
    for _ in range(c):
        ops_body = MethodCall(Var("this"), "Op", (), (ops_body,))
    decls.append(_runner_method("Ops", (), (Param("x", INT),), INT, ops_body))

    call_base_body = MethodCall(
        Var("this"),
        "Ops",
        (),
        (_sum([MethodCall(Var("x"), g, (), ()) for g, _ in gsigs]),),
    )
    decls.append(
        _runner_method(
            "CallBase", (FormalParam("base", BASE),), (Param("x", TypeParam("base")),), INT, call_base_body
        )
    )

    if config.family == "e":
        decls += _chain_family_e(config.param)
        doit_body = _sum(
            [
                MethodCall(Var("this"), "f_1", (TypeApp(t),), (StructLit(TypeApp(t)),))
                for t in ("Red", "Blue")
            ]
        )
    else:
        tformal = tuple(FormalParam("T%d" % j, BASE) for j in range(1, m + 1))
        params = tuple(Param("x%d" % j, TypeParam("T%d" % j)) for j in range(1, m + 1))
        targs = tuple(TypeParam("T%d" % j) for j in range(1, m + 1))
        args = tuple(Var("x%d" % j) for j in range(1, m + 1))
        for i in range(1, p + 1):
            if i < p:
                body: Expr = MethodCall(Var("this"), "f_%d" % (i + 1), targs, args)
            else:
                body = _sum(
                    [
                        MethodCall(Var("this"), "CallBase", (TypeParam("T%d" % j),), (Var("x%d" % j),))
                        for j in range(1, m + 1)
                    ]
                )
            decls.append(_runner_method("f_%d" % i, tformal, params, INT, body))
        doit_body = _sum(
            [
                MethodCall(
                    Var("this"),
                    "f_1",
                    tuple(TypeApp(t) for t in combo),
                    tuple(StructLit(TypeApp(t)) for t in combo),
                )
                for combo in itertools.product(("Red", "Blue"), repeat=m)
            ]
        )
    decls.append(_runner_method("DoIt", (), (), INT, doit_body))

    call = MethodCall(StructLit(TypeApp("Runner")), "DoIt", (), ())
    main: Expr = call
    for _ in range(config.iterations - 1):
        main = Seq(call, main)
    return Program(tuple(decls), main)


def _chain_family_e(m: int) -> list:
    """Callers call their callee twice (appending a Red, then a Blue) and
    each callee takes one more parameter than its caller; the last link
    dispatches to CallBase. 2^m CallBase call sites are reached at runtime
    while the declarations stay quadratic."""
    decls = []
    for i in range(1, m + 1):
        tformal = tuple(FormalParam("T%d" % j, BASE) for j in range(1, i + 1))
        params = tuple(Param("x%d" % j, TypeParam("T%d" % j)) for j in range(1, i + 1))
        if i < m:
            targs = tuple(TypeParam("T%d" % j) for j in range(1, i + 1))
            args = tuple(Var("x%d" % j) for j in range(1, i + 1))
            body = Binop(
                "+",
                MethodCall(Var("this"), "f_%d" % (i + 1), targs + (TypeApp("Red"),), args + (StructLit(TypeApp("Red")),)),
                MethodCall(Var("this"), "f_%d" % (i + 1), targs + (TypeApp("Blue"),), args + (StructLit(TypeApp("Blue")),)),
            )
        else:
            body = MethodCall(Var("this"), "CallBase", (TypeParam("T%d" % i),), (Var("x%d" % i),))
        decls.append(_runner_method("f_%d" % i, tformal, params, INT, body))
    return decls


# ---------------------------------------------------------------------------
# Metrics sweep


def check_translator(translator: str) -> None:
    if translator not in ("dict", "erasure"):
        raise ValueError("unknown translator %r" % translator)


def measure(config: BenchConfig, translator: str, run_steps: bool = True, max_steps: int = 10**6) -> MetricsRow:
    program = generate(config)
    try:
        t0 = time.perf_counter()
        check_translator(translator)
        if translator == "dict":
            out = dicttrans.translate_program(program)
        else:
            out, _ = erasure.erase_program(program)
        millis = (time.perf_counter() - t0) * 1000.0
        steps = None
        if run_steps:
            res = run_program(out, max_steps=max_steps, lang="fg")
            if res.kind != "value":
                return MetricsRow(config.family, config.param, translator, node_count(out), None, millis, "run: %s" % res.kind)
            steps = res.steps
        return MetricsRow(config.family, config.param, translator, node_count(out), steps, millis)
    except Exception as ex:  # per-row failure: record and continue the suite
        return MetricsRow(config.family, config.param, translator, None, None, None, "%s: %s" % (type(ex).__name__, ex))


def run_suite(
    families: dict,
    translators=("dict", "erasure"),
    iterations: int = 1,
    run_steps: bool = True,
    max_steps: int = 10**6,
) -> list:
    """One MetricsRow per (family, param, translator). ``families`` maps a
    family name to an iterable of parameter values. Deterministic except for
    the wall-time column."""
    rows = []
    for family, params in families.items():
        for param in params:
            cfg = BenchConfig(family, param, iterations)
            for tr in translators:
                rows.append(measure(cfg, tr, run_steps=run_steps, max_steps=max_steps))
    return rows


def render_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.as_csv() for r in rows]) + "\n"

