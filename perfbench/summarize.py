"""Summarize benchmark results: median, quartiles and spread per metric.

    python3 perfbench/summarize.py [RESULT_DIR]

Reads every `*-full.json` result that `run.py` wrote (default
`.perfbench_out/`) and prints, per workload, trace mode and metric, the
number of runs, the median, the quartiles as `statistics.quantiles(n=4)`
gives them, and the spread (Q3 - Q1) / median.  With `--json` it prints the
same as one JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(result_dir: Path) -> dict:
    values = defaultdict(list)
    units = {}
    for path in sorted(result_dir.glob("*-full.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        for name, m in result["metrics"].items():
            key = (result["workload"], f"trace{result['trace']}", name)
            values[key].append(m["value"])
            units[key] = m["unit"]
    out = {}
    for (workload, mode, name), vals in sorted(values.items()):
        med = statistics.median(vals)
        row = {"runs": len(vals), "unit": units[(workload, mode, name)], "median": med}
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
        out.setdefault(workload, {}).setdefault(mode, {})[name] = row
    return out


def main(argv) -> int:
    as_json = "--json" in argv
    args = [a for a in argv if a != "--json"]
    result_dir = Path(args[0]) if args else Path(__file__).resolve().parent.parent / ".perfbench_out"
    summary = summarize(result_dir)
    if as_json:
        print(json.dumps(summary, indent=2))
        return 0
    for workload, modes in summary.items():
        for mode, metrics in modes.items():
            print(f"== {workload} {mode}")
            for name, r in metrics.items():
                spread = f"spread {r['spread']:.3f}" if "spread" in r else ""
                print(f"  {name:40s} n={r['runs']:<3d} median {r['median']:<12.6g} {r['unit']:8s} {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
