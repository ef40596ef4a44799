"""Compare two result sets written by ``run.py --save`` (or ``sweep.py``).

Usage::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Prints one row per (workload, metric): each side's median and quartiles,
the change in the median, and a verdict of better, worse, unchanged or
unresolved (see ``stats.verdict``). Runs are paired by seed where both sides
have the same seeds, else in file order. Bounds and directions come from
``BENCHMARK.json``; per-layer metrics have no bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from stats import summary, verdict

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, metric): [(seed, value), ...]} from a JSON-lines file."""
    runs = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        facts = record["facts"]
        for metric, m in record["result"]["metrics"].items():
            runs.setdefault((facts["workload"], metric), []).append(
                (facts["machine"]["seed"], m["value"]))
    return runs


def metric_rules():
    """{metric: (better, bound or None)} from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: (m["better"], m["bound"]) for m in doc["end_to_end"]}
    rules.update({m["name"]: (m["better"], None) for m in doc["per_layer"]})
    return rules


def paired(base, change):
    if sorted(s for s, _ in base) == sorted(s for s, _ in change):
        base, change = sorted(base), sorted(change)
    return [v for _, v in base], [v for _, v in change]


def compare(base_runs, change_runs, rules):
    rows = []
    for key in sorted(set(base_runs) & set(change_runs)):
        workload, metric = key
        if metric not in rules:
            continue
        better, bound = rules[metric]
        a, b = paired(base_runs[key], change_runs[key])
        sa, sb = summary(a), summary(b)
        delta = sb["median"] - sa["median"]
        rel = delta / abs(sa["median"]) if sa["median"] else 0.0
        rows.append((workload, metric, sa, sb, delta, rel,
                     verdict(a, b, better, bound)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    rows = compare(load(argv[0]), load(argv[1]), metric_rules())
    print(f"{'workload':9} {'metric':42} {'base median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'delta':>11} {'rel':>8}  verdict")
    for workload, metric, sa, sb, delta, rel, v in rows:
        fa = f"{sa['median']:.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}] n={sa['n']}"
        fb = f"{sb['median']:.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}] n={sb['n']}"
        print(f"{workload:9} {metric:42} {fa:34} {fb:34} {delta:>11.4g} "
              f"{rel:>+8.1%}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
