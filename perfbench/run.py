"""feathergo benchmark: one workload, one process, one seed.

    python3 perfbench/run.py --workload compile|run|cosim --seed N \\
        --seconds S --trace 0|1

Builds the workload's inputs from the seed, then repeats passes over them
(compile, run and cosim of every input, each output checked) for S seconds.
Prints a table, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: the end-to-end metrics, from passes with nothing wrapped.
  Every timed item (one phase of one input) and every set-up is followed by
  reference chunks (``reference.py``), and its time is scaled by
  ``reference.CHUNK_S`` over the mean chunk time around it (for a set-up,
  after it): a time reads as seconds on a host where one chunk takes
  ``CHUNK_S``. A time is the sum over items of each item's median scaled
  time over the passes. On a shared 2-vCPU host a pass takes from 1x to 2x
  its quiet time, in phases that can outlast a run: raw times of runs with
  five seeds spread 15-45% (quartile distance over median), scaled times
  of runs with ten seeds 2-6%. The table also prints the quartiles of the
  per-pass values and their count.
* ``--trace 1``: the per-layer metrics, from passes with the program's
  public functions wrapped by ``tracer.Tracer``, alternated with unwrapped
  passes to measure the tracing overhead.

Full statistics, and in traced runs the spans of the last traced pass, go
to ``.perfbench_out/`` at the root of the checkout. The program is imported
from ``src/`` next to this directory; without it the benchmark exits 1 and
prints no result.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# fresh set-ups measured after each pass, so that set-up samples are spread
# over the run like the passes are
SETUP_PROBES_PER_PASS = 2
SETUP_PROBE_TIMEOUT_S = 60


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "feathergo" / "__init__.py").is_file():
        sys.exit("perfbench: no feathergo sources under %s" % src)
    sys.path.insert(0, str(src))


def setup(workload: str, seed: int, start: float, tracer=None):
    """Imports, input generation and one warm-up pass. Returns (inputs,
    expected results, seconds since ``start``)."""
    import_program()
    from feathergo import bench, syntax

    import layers
    import pipeline

    if tracer is not None:
        layers.install(tracer)
    inputs = workloads.build(workload, seed, bench, syntax)
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    warm = workloads.make_input(workloads.WARMUP, bench, syntax)
    res = pipeline.one_pass([warm], expected["warmup"])
    if res.failures:
        raise SystemExit("perfbench: warm-up failed: %r" % (res.failures,))
    return inputs, expected[workload], time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Statistics


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Stat:
    """A reported value with the per-pass samples it summarises."""

    def __init__(self, value: float, unit: str, samples: list):
        self.value, self.unit, self.samples = value, unit, samples

    def row(self) -> dict:
        q1, q3 = quartiles(self.samples)
        return {"value": self.value, "unit": self.unit, "n": len(self.samples), "q1": q1, "q3": q3}


def item_times(passes: list) -> dict:
    """(input, phase) -> median of the item's scaled times over the passes
    (see ``reference``)."""
    keys = sorted({k for p in passes for k in p.times})
    return {k: statistics.median(reference.scaled(p.times[k], p.chunk_s[k]) for p in passes if k in p.times) for k in keys}


def end_to_end(passes: list, setup_samples: list) -> dict:
    """The end-to-end metrics of untraced passes."""
    import pipeline

    item = item_times(passes)

    def pass_sum(p, keys) -> float:
        return sum(reference.scaled(p.times[k], p.chunk_s[k]) for k in keys)

    def rate(count: int, unit: str, phases: tuple) -> Stat:
        """``count`` per second of the items of these phases."""
        keys = [k for k in item if k[1] in phases]
        per_pass = [count / pass_sum(p, keys) for p in passes if all(k in p.times for k in keys)]
        return Stat(count / sum(item[k] for k in keys), unit, per_pass)

    last = passes[-1]
    sizes = list(passes[0].nodes.values())
    nodes = sum(n["source"] for n in sizes)
    out_nodes = {side: sum(n[side] for n in sizes) for side in ("dict", "erasure")}
    steps = {side: sum(n for (_, s), n in last.steps.items() if s == side) for side in pipeline.SIDES}
    attempted = sum(p.attempted for p in passes)
    failed = sum(pipeline.failed_ops(p) for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def count(value: int) -> Stat:
        return Stat(value, "count", [value] * len(passes))

    return {
        "setup_s": Stat(statistics.median(setup_samples), "s", setup_samples),
        "wall_s": Stat(sum(item.values()), "s", [pass_sum(p, p.times) for p in passes]),
        "compile_nodes_per_s": rate(nodes, "nodes/s", ("compile",)),
        "fgg_steps_per_s": rate(steps["fgg"], "steps/s", ("fgg",)),
        "fg_steps_per_s": rate(steps["dict"] + steps["erasure"], "steps/s", ("dict", "erasure")),
        "cosim_steps_per_s": rate(sum(last.cosim_steps.values()), "steps/s", ("cosim",)),
        "dict_out_nodes": count(out_nodes["dict"]),
        "erasure_out_nodes": count(out_nodes["erasure"]),
        "dict_steps": count(steps["dict"]),
        "erasure_steps": count(steps["erasure"]),
        "peak_rss_mb": Stat(rss_mb, "MB", [rss_mb]),
        "ok_ratio": Stat(1.0 - failed / attempted, "ratio", [1.0 - pipeline.failed_ops(p) / p.attempted for p in passes]),
    }


# ---------------------------------------------------------------------------
# Runs


def untraced_run(workload: str, seed: int, seconds: float):
    """Passes until ``seconds`` have gone by, each followed by fresh set-ups.
    Every timed item and set-up is followed by reference chunks that scale
    it. The first pass counts the nodes of the compiled programs."""
    inputs, expected, setup_s = setup(workload, seed, _START)
    import pipeline

    def scaled_setup(seconds: float) -> float:
        ref_s, chunks = reference.gauge(seconds)
        return reference.scaled(seconds, ref_s / chunks)

    setups = [scaled_setup(setup_s)]
    deadline = time.perf_counter() + seconds
    passes = []
    took = 0.0  # seconds of the last pass and its set-ups
    # start another pass only if it would end less than half a pass late, so
    # that a run lasts ``seconds`` give or take half a pass
    while not passes or time.perf_counter() + took / 2 < deadline:
        t0 = time.perf_counter()
        passes.append(pipeline.one_pass(inputs, expected, gauge=reference.gauge, count_nodes=not passes))
        setups += [scaled_setup(probe_setup(workload, seed)) for _ in range(SETUP_PROBES_PER_PASS)]
        took = time.perf_counter() - t0
    items = {"%s/%s" % k: v for k, v in item_times(passes).items()}
    return passes, end_to_end(passes, setups), {"items": items}


def traced_run(workload: str, seed: int, seconds: float):
    """Alternate unwrapped and wrapped passes; per-layer metrics are medians
    over the wrapped ones."""
    from tracer import Tracer

    tracer = Tracer()
    try:
        inputs, expected, _ = setup(workload, seed, _START, tracer)
        generate_ms = 1000.0 * tracer.summary().get("bench.generate", {"total_s": 0.0})["total_s"]
        tracer.uninstall()
        return _traced_passes(tracer, inputs, expected, seconds, generate_ms)
    finally:
        tracer.uninstall()


def _traced_passes(tracer, inputs, expected, seconds, generate_ms):
    import layers
    import pipeline
    from feathergo import parser

    tokens = sum(len(parser.tokenize(i.source)) for i in inputs)
    deadline = time.perf_counter() + seconds
    plain_walls, traced_walls, samples, notes, passes = [], [], collections.defaultdict(list), {}, []
    while not traced_walls or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        passes.append(pipeline.one_pass(inputs, expected))
        plain_walls.append(time.perf_counter() - t0)

        tracer.clear()
        layers.install(tracer)
        rule_counts = collections.Counter()
        try:
            t0 = time.perf_counter()
            passes.append(pipeline.one_pass(inputs, expected, tracer=tracer, rule_counts=rule_counts))
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        values, notes = layers.pass_metrics(tracer, tokens, rule_counts)
        for name, v in values.items():
            samples[name].append(v)

    metrics = {name: Stat(statistics.median(v), layers.UNITS[name], v) for name, v in samples.items()}
    metrics["bench.generate_ms"] = Stat(generate_ms, "ms", [generate_ms])
    overhead = [100.0 * (t / p - 1.0) for t, p in zip(traced_walls, plain_walls)]
    # each traced pass against the unwrapped pass right before it, which ran
    # in the same phase of the host
    metrics["trace.overhead_pct"] = Stat(statistics.median(overhead), "%", overhead)
    extra = {"notes": notes, "tracer_notes": list(dict.fromkeys(tracer.notes))}
    return passes, metrics, {**extra, "spans": tracer.summary(), "span_log": tracer.spans}


# ---------------------------------------------------------------------------
# Output


def report(workload: str, seed: int, trace: int, passes: list, metrics: dict, extra: dict) -> dict:
    import pipeline

    attempted = sum(p.attempted for p in passes)
    failed = sum(pipeline.failed_ops(p) for p in passes)
    print("perfbench workload=%s seed=%d trace=%d passes=%d" % (workload, seed, trace, len(passes)))
    print("%-32s %16s %-9s %3s %16s %16s" % ("metric", "value", "unit", "n", "q1", "q3"))
    for name, stat in metrics.items():
        r = stat.row()
        print("%-32s %16.6g %-9s %3d %16.6g %16.6g" % (name, r["value"], r["unit"], r["n"], r["q1"], r["q3"]))
    print("fail_ratio %.6g (%d failed / %d attempted)" % (failed / attempted, failed, attempted))
    failures = [f for p in passes for f in p.failures]
    for name, phase, ex, _ in failures[:10]:
        print("FAILED %s %s: %s: %s" % (name, phase, type(ex).__name__, ex), file=sys.stderr)
    for name, note in extra.get("notes", {}).items():
        print("absent %s: %s" % (name, note))
    for note in extra.get("tracer_notes", []):
        print("note: %s" % note)
    if "spans" in extra:
        print("%-44s %9s %9s %12s %12s" % ("span", "calls", "spans", "total_ms", "self_ms"))
        for name, row in sorted(extra["spans"].items()):
            print("%-44s %9d %9d %12.3f %12.3f" % (
                name, row["calls"], row["spans"], 1000 * row["total_s"], 1000 * row["self_s"]))

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload, seed, trace)
    detail = {
        "workload": workload, "seed": seed, "trace": trace, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "metrics": {name: stat.row() for name, stat in metrics.items()},
        "failures": [[n, ph, "%s: %s" % (type(ex).__name__, ex)] for n, ph, ex, _ in failures],
        "notes": extra.get("notes", {}),
        "tracer_notes": extra.get("tracer_notes", []),
        "spans": extra.get("spans", {}),
        "items": extra.get("items", {}),
    }
    (OUT / (stem + ".json")).write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if "span_log" in extra:
        # one file per workload: the span log of a traced run is tens of MB
        with gzip.open(OUT / ("%s-spans.jsonl.gz" % workload), "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent, tags) in enumerate(extra["span_log"]):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, **tags}) + "\n")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": stat.value, "unit": stat.unit} for name, stat in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed, _START)[2]}))
        return 0
    run = traced_run if args.trace else untraced_run
    passes, metrics, extra = run(args.workload, args.seed, args.seconds)
    print(json.dumps(report(args.workload, args.seed, args.trace, passes, metrics, extra)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
