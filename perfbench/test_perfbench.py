"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import collections
import gc
import hashlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import pipeline  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from feathergo import bench, cosim, syntax, typecheck  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())
RATIONALE = json.loads((HERE / "workloads.json").read_text())


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for inp in workloads.build(workload, seed, bench, syntax):
        h.update(inp.name.encode() + b"\0" + inp.source.encode() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_byte_identical_for_a_seed(workload):
    here = digest(workload, 11)
    assert digest(workload, 11) == here
    child = subprocess.run(
        [sys.executable, "-c", "import test_perfbench as t; print(t.digest(%r, 11))" % workload],
        cwd=HERE, capture_output=True, text=True, check=True,
    )
    assert child.stdout.strip() == here


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_changes_the_inputs(workload):
    assert digest(workload, 1) != digest(workload, 2)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(RATIONALE["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_recorded_ranges_match_the_draws(workload):
    recorded = RATIONALE["workloads"][workload]["inputs"]
    drawn = [
        {"source": d.source, "range": [d.lo, d.hi], "pair": d.pair, "iterations": d.iterations,
         "run_steps": d.run_steps, "cosim_cap": d.cosim_cap}
        for d in workloads.DRAWS[workload]
    ]
    assert recorded == drawn


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_drawable_input_has_an_expected_result(workload):
    assert {s.name for s in workloads.every_spec(workload)} == set(EXPECTED[workload])
    # inputs are keyed by name: two inputs of one name would share results
    for seed in (1, 2):
        names = [s.name for s in workloads.specs(workload, seed)]
        assert len(set(names)) == len(names)


def small_inputs():
    specs = [workloads.Draw(n, cosim_cap=workloads.COSIM_CAP).spec(0) for n in ("box", "typerep", "fgg_list")]
    specs += [workloads.Draw("a", 3, 3, cosim_cap=50).spec(3), workloads.Draw("omega", run_steps=300, kind="loop").spec(0)]
    return [workloads.make_input(s, bench, syntax) for s in specs]


def expected_for(inputs):
    out = dict(EXPECTED["warmup"])
    for inp in inputs:
        for section in EXPECTED.values():
            if inp.name in section and inp.name not in out:
                out[inp.name] = section[inp.name]
    # the small a3 input and the short omega run are not in any workload
    out["a3"] = {"result": "76", "cosim": {"ok": True, "terminal": "budget"}}
    out["omega"] = {"result": "budget exhausted after 300 steps", "cosim": {"ok": True, "terminal": "budget"}}
    return out


def traced_counts(inputs, expected) -> dict:
    tracer = Tracer()
    rules = collections.Counter()
    layers.install(tracer)
    try:
        res = pipeline.one_pass(inputs, expected, tracer=tracer, rule_counts=rules, count_nodes=True)
    finally:
        tracer.uninstall()
    assert res.failures == []
    values, notes = layers.pass_metrics(tracer, 1, rules)
    counts = {k: v for k, v in values.items() if layers.UNITS[k] == "count"}
    for side in ("dict", "erasure"):
        counts[side + "_out_nodes"] = sum(n[side] for n in res.nodes.values())
    for side in pipeline.SIDES:
        counts[side + "_steps"] = sum(v for (_, s), v in res.steps.items() if s == side)
    return counts


def test_count_metrics_repeat_exactly():
    inputs = small_inputs()
    expected = expected_for(inputs)
    first = traced_counts(inputs, expected)
    assert first == traced_counts(inputs, expected)
    assert any(k.startswith("reduce.rule.") for k in first)
    assert {"typecheck.fgg_program_calls", "typecheck.fgg_expr_calls", "typecheck.fg_subtype_calls"} <= set(first)
    rule_total = sum(v for k, v in first.items() if k.startswith("reduce.rule."))
    assert rule_total == first["dict_steps"] + first["erasure_steps"]
    # once by the pipeline, once in each translator's constructor, once more
    # by check_correspondence's Translator for co-simulated inputs
    assert first["typecheck.fgg_program_calls"] == 3 * len(inputs) + 4


def test_tracer_restores_every_original():
    before = {(id(o), a): o.__dict__[a] for _, a, owners in layers.targets() for o in owners}
    tracer = Tracer()
    layers.install(tracer)
    assert typecheck.fg_subtype is not before[(id(typecheck), "fg_subtype")]
    tracer.uninstall()
    after = {(id(o), a): o.__dict__[a] for _, a, owners in layers.targets() for o in owners}
    assert after == before
    assert tracer.notes == []


def test_tracer_notes_a_missing_target_instead_of_raising():
    tracer = Tracer()
    assert not tracer.wrap(cosim, "no_such_function", "cosim.no_such_function")
    assert tracer.notes and "no_such_function" in tracer.notes[0]
    tracer.uninstall()
    assert not hasattr(cosim, "no_such_function")


def test_recursive_calls_are_counted_but_timed_once():
    ticks = iter(range(1000))
    tracer = Tracer(clock=lambda: next(ticks))

    class Owner:
        @staticmethod
        def fact(n):
            return 1 if n <= 1 else n * Owner.fact(n - 1)

    original = Owner.__dict__["fact"]
    tracer.wrap(Owner, "fact", "fact")
    with tracer.span("outer"):
        assert Owner.fact(5) == 120
    tracer.uninstall()
    assert Owner.__dict__["fact"] is original
    summary = tracer.summary()
    assert summary["fact"]["calls"] == 5
    assert summary["fact"]["spans"] == 1
    # outer: ticks 0..3; fact: ticks 1..2
    assert summary["fact"]["total_s"] == 1
    assert summary["outer"]["self_s"] == summary["outer"]["total_s"] - 1


def test_self_time_within_a_root_drops_child_spans_of_other_layers():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):  # 0..9
        with tracer.span("layer.a"):  # 1..6
            with tracer.span("other"):  # 2..3
                pass
            with tracer.span("layer.b"):  # 4..5
                pass
        with tracer.span("other"):  # 7..8
            pass
    with tracer.span("layer.c"):  # 10..11, outside root
        pass
    # root 9 - 5 - 1, layer.a 5 - 1 - 1, layer.b 1
    assert tracer.self_within("root", ("root", "layer.")) == 3 + 3 + 1


def test_absent_metric_is_reported_with_a_note():
    values, notes = layers.pass_metrics(Tracer(), 1, collections.Counter())
    assert "cosim.normalize_self_ms" in notes and "cosim.normalize_self_ms" not in values


def test_reference_gauge_leaves_the_collector_as_it_was():
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            seconds, chunks = reference.gauge(0.0)
            assert gc.isenabled() == enabled
        finally:
            gc.enable()
        assert chunks == 1 and seconds > 0
    assert reference.scaled(2.0, reference.CHUNK_S) == 2.0
    assert reference.scaled(2.0, 2 * reference.CHUNK_S) == 1.0


def test_a_mismatch_counts_as_a_failure():
    inputs = small_inputs()[:1]
    expected = {"box": {"result": "wrong", "cosim": {"ok": True, "terminal": "value"}}}
    res = pipeline.one_pass(inputs, expected)
    assert pipeline.failed_ops(res) == 3  # the source run and both targets
    assert res.attempted == 5


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_appears_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cosim", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert all(sorted(m) == ["unit", "value"] for m in result["metrics"].values())


def test_without_program_sources_it_fails_and_prints_no_result():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
