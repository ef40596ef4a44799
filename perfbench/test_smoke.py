"""Smoke test of the benchmark at its small scale; finishes in seconds.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import compare, load, metric_rules
from stats import verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

# Per-layer metrics that must be non-zero on each workload: the layers it
# exercises. Metrics of other layers read 0 there.
EXERCISED = {
    "train": ("ingest.load_dataset_s", "ingest.rows_read", "ingest.rows_per_s",
              "ingest.records", "features.fit_normalization_s",
              "features.encode_calls", "features.encode_s",
              "clustering.kmeans_self_s", "clustering.lloyd_iterations",
              "clustering.extract_profiles_s", "clustering.save_model_s"),
    "screen": ("clustering.load_model_s", "clustering.month_cluster_matrix_s",
               "thermal.simulate_day_calls", "thermal.simulate_day_s",
               "thermal.us_per_day", "thermal.sweeps_per_day",
               "aging.aging_acceleration_calls", "aging.s",
               "riskassess.cluster_thresholds_s", "riskassess.bisection_days",
               "riskassess.max_services_by_temperature_s",
               "riskassess.max_services_by_life_s", "riskassess.grid_days",
               "riskassess.grid_reuse", "riskassess.write_s"),
    "estimate": ("clustering.load_model_s", "features.encode_calls",
                 "features.encode_s", "features.distance_calls",
                 "features.distance_s", "thermal.simulate_day_calls",
                 "estimation.read_query_csv_s",
                 "estimation.cluster_max_top_oil_s",
                 "estimation.estimate_self_s", "estimation.us_per_query",
                 "estimation.write_estimates_csv_s"),
}
EVERYWHERE = ("cli.import_s", "cli.self_s", "clustering.model_bytes",
              "trace.coverage_frac")


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_and_nothing_fails(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    facts, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in listed}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name in facts["distributions"]:
        assert facts["distributions"][name]["n"] >= 1
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    assert values["failed_frac"] == 0
    for name in EXERCISED[workload] + EVERYWHERE:
        assert values[name] > 0, name
    if workload == "screen":
        assert values["riskassess.grid_reuse"] == 0.5
    if workload == "train":
        assert not any(values[name] for name in values
                       if name.startswith(("thermal.", "riskassess.", "aging.")))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "train", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    assert verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert verdict(base, [v * 1.3 for v in base], "lower", 0.1) == "worse"
    assert verdict(base, list(base), "lower", 0.1) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(noisy, [v + 0.5 for v in noisy], "lower", 0.1) == "unresolved"
    assert verdict(base, [v * 1.3 for v in base], "higher", None) == "better"


def test_compare_reads_saved_runs(tmp_path):
    def save(path, walls):
        with open(path, "w", encoding="utf-8") as fh:
            for seed, wall in walls:
                record = {"facts": {"workload": "train", "machine": {"seed": seed}},
                          "result": {"metrics": {"norm_wall_s": {"value": wall,
                                                                 "unit": "s"}}}}
                fh.write(json.dumps(record) + "\n")

    save(tmp_path / "base.jsonl", [(s, 10.0 + 0.1 * s) for s in range(1, 11)])
    save(tmp_path / "change.jsonl", [(s, 7.0 + 0.1 * s) for s in range(10, 0, -1)])
    rows = compare(load(tmp_path / "base.jsonl"), load(tmp_path / "change.jsonl"),
                   metric_rules())
    assert [(r[0], r[1], r[-1]) for r in rows] == [("train", "norm_wall_s", "better")]
