"""Seeded input sets for the three benchmark workloads.

Every workload drives the same three phases over its inputs: compile
(parse, typecheck, both translations, typecheck of both outputs, printing),
run (the source and both outputs, each to a value or to a step budget) and
co-simulation (``check_correspondence`` under a source-step cap). What sets
the workloads apart is which inputs they hold and how much run and cosim
work each input gets:

* ``compile``: big programs, compiled only, next to small probes: six
  programs run on all three sides and four co-simulated to their end.
* ``run``: small programs run to their value (``omega`` to its budget),
  next to the same four co-simulation probes.
* ``cosim``: terminating programs co-simulated to their end, next to the
  same run probes as compile.

Every workload also runs ``omega`` (a constant-size loop) for a while, so
per-step cost is seen on both small and growing terms everywhere.

The seed draws family parameters from fixed ranges. Ranges whose cost grows
fast with the parameter are drawn as a mirrored pair ``x, lo + hi - x``, so
that the total size of a workload barely depends on the seed while the
inputs themselves do.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass

CORPUS = pathlib.Path(__file__).resolve().parent / "corpus"

FAMILIES = ("a", "b", "c", "d", "e")
CHAIN = "chain"

# budgets for omega, per side: the run workload's loop, and the others' probe
LOOP_STEPS = 50_000
PROBE_LOOP_STEPS = 10_000
# budget for programs that terminate; none comes close
TERMINATING_STEPS = 1_000_000
COSIM_CAP = 500

# corpus programs that terminate: the cosim workload co-simulates all of them
TERMINATING_CORPUS = (
    "arith", "assert_bound_meta", "assert_fail", "assert_param_meta",
    "assert_pass", "bool_if", "box", "box_iface", "empty_iface_assert",
    "eqord", "fbound_self", "fgg_list", "gtfunc", "maxof", "multi_param",
    "nested_generic", "nilmain", "numzero", "permute", "recursion",
    "struct_assert_fail", "supertype_arg", "typerep",
)


@dataclass(frozen=True)
class Spec:
    """One input: a family program, a receiver chain or a corpus file, with
    the work each phase does on it."""

    name: str
    family: str  # "a".."e", "chain" or "corpus"
    param: int = 0
    iterations: int = 1
    run_steps: int = TERMINATING_STEPS  # 0: not run
    cosim_cap: int = 0  # 0: not co-simulated
    kind: str = "deep"  # "loop": constant-size term; "deep": the term grows


@dataclass(frozen=True)
class Draw:
    """A range the seed draws parameters from. ``source`` is a family, the
    chain, or the name of a corpus program (which has no parameter)."""

    source: str
    lo: int = 0
    hi: int = 0
    pair: bool = False  # draw x and lo + hi - x
    iterations: int = 1
    run_steps: int = TERMINATING_STEPS
    cosim_cap: int = 0
    kind: str = "deep"

    def spec(self, param: int) -> Spec:
        family = self.source if self.source in FAMILIES + (CHAIN,) else "corpus"
        if family == "corpus":
            name = self.source
        else:
            name = "%s%d" % (self.source, param)
            if self.iterations > 1:
                name += "x%d" % self.iterations
        return Spec(name, family, param, self.iterations, self.run_steps, self.cosim_cap, self.kind)

    def draw(self, rng: random.Random) -> list:
        x = rng.randint(self.lo, self.hi)
        params = [x, self.lo + self.hi - x] if self.pair else [x]
        return [self.spec(p) for p in params]

    def every(self) -> list:
        return [self.spec(p) for p in range(self.lo, self.hi + 1)]


_COMPILE = {"run_steps": 0}
# Probes give the workloads whose home is elsewhere some run and cosim work.
# Each metric's probe work is spread over several inputs: a time is summed
# over items, and one item timed a few times per run is too few samples to
# be steady on a shared host.
_RUN_PROBES = (
    Draw("omega", run_steps=PROBE_LOOP_STEPS, kind="loop"),
    Draw("c", 4, 4),
    Draw("e", 6, 6),
    Draw("e", 7, 7),
    Draw("d", 4, 4, iterations=10),
    Draw("d", 4, 4, iterations=20),
)
_COSIM_PROBES = tuple(Draw(f, p, p, cosim_cap=COSIM_CAP) for f, p in (("b", 6), ("c", 2), ("d", 6), ("e", 3)))

DRAWS = {
    "compile": (
        Draw("a", 120, 200, pair=True, **_COMPILE),
        Draw("d", 120, 200, pair=True, **_COMPILE),
        Draw(CHAIN, 120, 200, pair=True, **_COMPILE),
        Draw("c", 7, 8, pair=True, **_COMPILE),
        Draw("b", 100, 140, **_COMPILE),
        Draw("e", 11, 14, **_COMPILE),
    )
    + _RUN_PROBES
    + _COSIM_PROBES,
    "run": (
        Draw("omega", run_steps=LOOP_STEPS, kind="loop"),
        Draw("a", 30, 40, pair=True),
        Draw("c", 5, 5),
        Draw("e", 7, 7),
        Draw("d", 4, 4, iterations=20),
        Draw(CHAIN, 150, 150),
    )
    + _COSIM_PROBES,
    "cosim": tuple(Draw(name, cosim_cap=COSIM_CAP) for name in TERMINATING_CORPUS)
    + (
        Draw("a", 8, 8, cosim_cap=COSIM_CAP),
        Draw("b", 8, 12, cosim_cap=COSIM_CAP),
        Draw("c", 3, 3, cosim_cap=COSIM_CAP),
        Draw("d", 8, 12, cosim_cap=COSIM_CAP),
        Draw("e", 4, 4, cosim_cap=COSIM_CAP),
    )
    + _RUN_PROBES,
}
WORKLOADS = tuple(DRAWS)

# the program every set-up runs once through all phases before timing
WARMUP = Draw("box", cosim_cap=COSIM_CAP).spec(0)


def specs(workload: str, seed: int) -> list:
    """The workload's inputs for this seed, in the order they are timed."""
    rng = random.Random("%s:%d" % (workload, seed))
    return [s for d in DRAWS[workload] for s in d.draw(rng)]


def every_spec(workload: str) -> list:
    """Every input any seed can draw for the workload."""
    return [s for d in DRAWS[workload] for s in d.every()]


def chain_source(depth: int) -> str:
    """``Box[int]{1}.Id().Id()...``: a receiver chain whose typing cost the
    translators pay once per receiver."""
    return (
        "package main\n\ntype Any interface {}\n\ntype Box[T Any] struct {\n\tv T\n}\n\n"
        "func (b Box[T]) Id() Box[T] {\n\treturn b\n}\n\n"
        "func main() {\n\t_ = Box[int]{1}" + ".Id()" * depth + "\n}\n"
    )


@dataclass(frozen=True)
class Input:
    spec: Spec
    source: str

    @property
    def name(self) -> str:
        return self.spec.name


def make_input(spec: Spec, bench, syntax) -> Input:
    """FGG source text of one input. ``bench`` and ``syntax`` are the
    program's modules: generating family programs is part of set-up."""
    if spec.family == "corpus":
        text = (CORPUS / (spec.name + ".fgg")).read_text(encoding="utf-8")
    elif spec.family == CHAIN:
        text = chain_source(spec.param)
    else:
        config = bench.BenchConfig(spec.family, spec.param, spec.iterations)
        text = syntax.pretty_print(bench.generate(config))
    return Input(spec, text)


def build(workload: str, seed: int, bench, syntax) -> list:
    return [make_input(s, bench, syntax) for s in specs(workload, seed)]
