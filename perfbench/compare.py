#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py perfbench/out/parent perfbench/out/change

Each argument is a directory given to ``run.py --out`` (its ``results/``
subdirectory is read) or a directory of result files. For every workload and
every end-to-end metric in BENCHMARK.json this prints each side's median and
quartiles over its untraced runs, and how many pairs each side won (runs are
paired by seed, in order). A metric is "unresolved" when either side's spread
(quartile distance over median) exceeds the metric's bound; otherwise it is a
"gain" when the second side wins at least nine tenths of the pairs and the
medians differ by more than the first side's quartile distance, a
"regression" when the second median is worse by more than the bound, and
"no change" otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    d = Path(directory)
    if (d / "results").is_dir():
        d = d / "results"
    runs = defaultdict(lambda: defaultdict(list))   # workload -> seed -> [metrics]
    for path in sorted(d.glob("*.json")):
        res = json.loads(path.read_text())
        if not res.get("traced"):
            runs[res["workload"]][res["seed"]].append(res["metrics"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load(argv[0]), load(argv[1])
    for workload in sorted(set(a_runs) | set(b_runs)):
        print(f"\n{workload}")
        print(f"  {'metric':14s} {'first: q1, median, q3':>29s}  {'second: q1, median, q3':>29s}"
              f"  {'pairs won 1st:2nd':17s}  verdict")
        a, b = a_runs.get(workload, {}), b_runs.get(workload, {})
        pairs = [(x, y) for seed in sorted(set(a) & set(b)) for x, y in zip(a[seed], b[seed])]
        for m in spec["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            av = [r[name]["value"] for runs in a.values() for r in runs]
            bv = [r[name]["value"] for runs in b.values() for r in runs]
            if not av or not bv:
                print(f"  {name:14s} missing on one side")
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(av), quartiles(bv)
            won_b = sum((y[name]["value"] < x[name]["value"]) == lower
                        and y[name]["value"] != x[name]["value"] for x, y in pairs)
            won_a = sum((x[name]["value"] < y[name]["value"]) == lower
                        and y[name]["value"] != x[name]["value"] for x, y in pairs)
            worse = (b2 - a2) / a2 if lower else (a2 - b2) / a2
            if max((a3 - a1) / a2, (b3 - b1) / b2) > bound:
                verdict = "unresolved"
            elif pairs and won_b >= 0.9 * len(pairs) and abs(b2 - a2) > a3 - a1:
                verdict = "gain"
            elif worse > bound:
                verdict = "regression"
            else:
                verdict = "no change"
            print(f"  {name:14s} {a1:9.4g} {a2:9.4g} {a3:9.4g}  {b1:9.4g} {b2:9.4g} {b3:9.4g}"
                  f"  {won_a:3d}:{won_b:<3d} of {len(pairs):<6d}  {verdict}"
                  f" ({m['unit']}, {m['better']} is better, bound {bound})")


if __name__ == "__main__":
    main(sys.argv[1:])
