"""Pool the records of several benchmark runs, per workload.

    python3 perfbench/summarize.py [.perfbench_out/record-*.json ...]

For each workload and end-to-end metric it prints the median of the per-run
values with their quartiles and spread (interquartile distance over median,
as ``statistics.quantiles(values, n=4)`` gives them), and, over the pooled
samples of all runs, the highest percentile with at least ten samples beyond
it, with the sample count.
"""

import json
import statistics
import sys
from pathlib import Path

from run import tail_percentile


def main(paths) -> int:
    paths = paths or sorted(Path(".perfbench_out").glob("record-*.json"))
    runs: dict[str, list[dict]] = {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        if rec["args"]["trace"] == 0:
            runs.setdefault(rec["args"]["workload"], []).append(rec)
    for workload, recs in runs.items():
        failed = sum(r["result"]["failed"] for r in recs)
        attempted = sum(r["result"]["attempted"] for r in recs)
        print(f"{workload}: {len(recs)} runs, failed checks {failed}/{attempted}")
        for name in recs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in recs]
            unit = recs[0]["result"]["metrics"][name]["unit"]
            med = statistics.median(values)
            line = f"  {name}: median {med:.6g} {unit} over {len(values)} runs"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                line += f", q1 {q1:.6g}, q3 {q3:.6g}, spread {(q3 - q1) / med:.4f}"
            pooled = [x for r in recs for x in r["samples"][name]]
            tail = tail_percentile(pooled)
            line += f"; pooled n={len(pooled)}"
            if tail:
                line += f", p{tail[0]} {tail[1]:.6g}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
