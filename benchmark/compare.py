#!/usr/bin/env python3
"""Compare two sets of evbench result documents.

    python3 benchmark/compare.py A/ B/ [--bench BENCHMARK.json]

A and B are directories of result documents (the files run.sh writes
with --out, one per invocation). For every (workload, metric) present in
both sets it prints each side's median and quartiles and the relative
change of the median. Metrics that BENCHMARK.json lists under
end_to_end carry a bound:

  within      the medians differ by no more than the bound
  better      B's median is better than A's by more than the bound
  worse       B's median is worse than A's by more than the bound
  unresolved  either side's quartile spread (q3 - q1) / median is wider
              than the bound, so the sets cannot resolve a change of
              that size

Per-layer and other metrics have no bound and are listed for reading
only. Exit status is 0 when every bounded pair is within or better,
1 otherwise, 2 on usage errors. Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load(directory):
    """{(workload, metric): ([values], unit)} from every result document."""
    values = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(doc, dict) or "workload" not in doc:
            continue
        if doc.get("smoke") or not doc.get("correct", False):
            continue
        for name, metric in doc.get("metrics", {}).items():
            entry = values.setdefault((doc["workload"], name), ([], metric["unit"]))
            entry[0].append(float(metric["value"]))
    return values


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(med, q1, q3):
    return (q3 - q1) / abs(med) if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--bench", default=None,
                        help="BENCHMARK.json (default: the repository's)")
    args = parser.parse_args()
    bench_path = pathlib.Path(args.bench) if args.bench else (
        pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    bench = json.loads(bench_path.read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}

    a, b = load(args.a), load(args.b)
    if not a or not b:
        print("compare.py: no result documents in one of the directories",
              file=sys.stderr)
        return 2

    failing = 0
    header = (f"{'workload':22} {'metric':28} {'unit':10} {'n':>5} "
              f"{'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
              f"{'change':>8} {'bound':>6}  verdict")
    print(header)
    for key in sorted(set(a) & set(b)):
        workload, name = key
        (va, unit), (vb, _) = a[key], b[key]
        ma, qa1, qa3 = summary(va)
        mb, qb1, qb3 = summary(vb)
        change = (mb - ma) / abs(ma) if ma else float("inf")
        bound, better = bounds.get(name, (None, None))
        if bound is None:
            verdict, bound_text = "-", "-"
        else:
            bound_text = f"{bound:.2f}"
            worse = change > bound if better == "lower" else change < -bound
            improved = change < -bound if better == "lower" else change > bound
            if max(spread(ma, qa1, qa3), spread(mb, qb1, qb3)) > bound:
                verdict = "unresolved"
            elif worse:
                verdict = "worse"
            elif improved:
                verdict = "better"
            else:
                verdict = "within"
            failing += verdict in ("worse", "unresolved")
        side_a = f"{ma:.5g} [{qa1:.5g}, {qa3:.5g}]"
        side_b = f"{mb:.5g} [{qb1:.5g}, {qb3:.5g}]"
        print(f"{workload:22} {name:28} {unit:10} {len(va):>2}/{len(vb):<2} "
              f"{side_a:>32} {side_b:>32} {change:>+8.2%} {bound_text:>6}  "
              f"{verdict}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
