"""Run the benchmark over several seeds and report each metric's spread.

Usage::

    python3 perfbench/sweep.py --workloads train,screen,estimate \\
        --seeds 1..10 --trace 0 --save RESULTS.jsonl [--seconds S] [--scale S]

Runs ``run.py`` once per (workload, seed), one after another, appending to
``--save``; then prints, per (workload, metric), the median, quartiles and
the quartile distance as a share of the median, next to the bound from
``BENCHMARK.json``. A spread below a third of the bound is marked steady;
``setup_s`` is bounded only on its median, so its spread is not marked.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load, metric_rules
from stats import spread, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="train,screen,estimate")
    parser.add_argument("--seeds", default="1..10", help="inclusive range A..B")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--scale", default="full")
    args = parser.parse_args(argv)

    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or doc["run_seconds"]
    lo, hi = (int(v) for v in args.seeds.split(".."))
    for workload in args.workloads.split(","):
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace), "--scale", args.scale,
                   "--save", args.save]
            rc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL).returncode
            if rc != 0:
                print(f"{workload} seed {seed}: exit {rc}")

    rules = metric_rules()
    print(f"{'workload':9} {'metric':42} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, metric), runs in sorted(load(args.save).items()):
        values = [v for _, v in runs]
        s = summary(values)
        bound = rules.get(metric, (None, None))[1]
        mark = "" if bound is None or metric == "setup_s" else (
            "steady" if spread(values) < bound / 3 else "NOT steady")
        print(f"{workload:9} {metric:42} {s['median']:>12.5g} {s['q1']:>12.5g} "
              f"{s['q3']:>12.5g} {spread(values):>8.2%} "
              f"{'' if bound is None else bound:>6} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
