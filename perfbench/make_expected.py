"""Write perfbench/expected.json: the expected result of every input any
seed can draw, for each workload.

    python3 perfbench/make_expected.py

For each input that is run it records the source result text (value, panic, or budget)
under the workload's run budget and, if the input is co-simulated,
``report.ok`` and the terminal kind. A target whose outcome differs from
the source's is recorded under its side ("dict" or "erasure"), with a
message on stderr: erasure does not preserve assertion behaviour, so an
assertion-bearing program may legitimately end differently there.

Run it only when the inputs change, on a revision whose results are known
good; the benchmark compares every later revision against this file.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def expect(spec, bench, syntax) -> dict:
    import pipeline

    inp = workloads.make_input(spec, bench, syntax)
    compiled = pipeline.compile_input(inp.source)
    fields = pipeline.field_counts(compiled.program)
    entry = {}
    if spec.run_steps:
        source = pipeline.run_side(compiled, "fgg", spec.run_steps)
        entry["result"] = source.describe()
    for side in ("dict", "erasure") if spec.run_steps else ():
        got = pipeline.outcome(pipeline.run_side(compiled, side, spec.run_steps), fields)
        if got != pipeline.outcome(source, fields):
            print("%s: %s ends %r, source %r" % (spec.name, side, got, source.describe()), file=sys.stderr)
            entry[side] = got
    if spec.cosim_cap:
        report = pipeline.cosim_input(compiled, spec.cosim_cap)
        entry["cosim"] = {"ok": report.ok, "terminal": report.terminal.kind}
    return entry


def main() -> int:
    run.import_program()
    from feathergo import bench, syntax

    out = {"warmup": {workloads.WARMUP.name: expect(workloads.WARMUP, bench, syntax)}}
    for workload in workloads.WORKLOADS:
        out[workload] = {s.name: expect(s, bench, syntax) for s in workloads.every_spec(workload)}
        print("%s: %d inputs" % (workload, len(out[workload])), file=sys.stderr)
    path = run.HERE / "expected.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
