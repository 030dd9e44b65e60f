"""Run every workload, each in its own process, and print its end-to-end
metrics as one row per workload, each with its unit and sample count.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each cell reads ``value (n=samples)``; timings are medians. ``fail_ratio``
prints failed / attempted with both counts. The rows are also written to
``.perfbench_out/report-seed<N>.json``. Exits 1 if any workload fails or
reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, OUT, ROOT

RUN_TIMEOUT_S = 600


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    rows = {}
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        rows[workload] = json.loads((OUT / ("%s-seed%d-trace0.json" % (workload, args.seed))).read_text())

    names = [m["name"] for m in spec["end_to_end"]]
    header = ["workload"] + ["%s [%s]" % (m["name"], m["unit"]) for m in spec["end_to_end"]]
    header.append("fail_ratio [failed/attempted]")
    table = [header]
    for workload, row in rows.items():
        cells = [workload]
        for name in names:
            m = row["metrics"][name]
            cells.append("%.6g (n=%d)" % (m["value"], m["n"]))
        cells.append("%.6g (%d/%d)" % (row["failed"] / row["attempted"], row["failed"], row["attempted"]))
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    (OUT / ("report-seed%d.json" % args.seed)).write_text(json.dumps(rows, indent=1), encoding="utf-8")
    return 0 if all(r["failed"] == 0 for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
