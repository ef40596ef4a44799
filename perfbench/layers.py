"""Per-layer metrics of one traced run, computed from its spans.

A span's self time is its duration minus the part of it that its child
spans cover. Under the assess thread pool several threads' spans run at
once; their durations then include time spent waiting for the interpreter
lock, and sums of them can exceed wall time.
"""

from __future__ import annotations

import numpy as np

# (metric, unit) in the order they are reported; BENCHMARK.json lists the
# same names.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("ingest.load_dataset_s", "s"),
    ("ingest.rows_read", "count"),
    ("ingest.rows_per_s", "1/s"),
    ("ingest.records", "count"),
    ("features.fit_normalization_s", "s"),
    ("features.encode_calls", "count"),
    ("features.encode_s", "s"),
    ("features.distance_calls", "count"),
    ("features.distance_s", "s"),
    ("clustering.kmeans_self_s", "s"),
    ("clustering.lloyd_iterations", "count"),
    ("clustering.extract_profiles_s", "s"),
    ("clustering.save_model_s", "s"),
    ("clustering.model_bytes", "bytes"),
    ("clustering.load_model_s", "s"),
    ("clustering.month_cluster_matrix_s", "s"),
    ("thermal.simulate_day_calls", "count"),
    ("thermal.simulate_day_s", "s"),
    ("thermal.us_per_day", "us"),
    ("thermal.sweeps_per_day", "count"),
    ("aging.aging_acceleration_calls", "count"),
    ("aging.s", "s"),
    ("riskassess.cluster_thresholds_s", "s"),
    ("riskassess.bisection_days", "count"),
    ("riskassess.max_services_by_temperature_s", "s"),
    ("riskassess.max_services_by_life_s", "s"),
    ("riskassess.grid_days", "count"),
    ("riskassess.grid_reuse", "ratio"),
    ("riskassess.write_s", "s"),
    ("estimation.read_query_csv_s", "s"),
    ("estimation.cluster_max_top_oil_s", "s"),
    ("estimation.estimate_self_s", "s"),
    ("estimation.us_per_query", "us"),
    ("estimation.far_frac", "ratio"),
    ("estimation.write_estimates_csv_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("failed_frac", "ratio"),
)


class Spans:
    """Spans of one traced child, as loaded from its ``.npz`` file."""

    def __init__(self, path):
        with np.load(path) as f:
            self.ids = f["ids"]
            self.parents = f["parents"]
            self.starts = f["starts"]
            self.ends = f["ends"]
            self.names = f["labels"].astype(object)[f["names"]]

    def mask(self, *names):
        return np.isin(self.names, names)

    def count(self, *names):
        return int(self.mask(*names).sum())

    def seconds(self, *names):
        m = self.mask(*names)
        return float((self.ends[m] - self.starts[m]).sum())

    def children_of(self, *names):
        """Mask of spans whose parent is named one of ``names``."""
        return np.isin(self.parents, self.ids[self.mask(*names)])

    def covered(self, *names):
        """Total time of the named spans that their children cover."""
        kids = self.children_of(*names)
        order = np.lexsort((self.starts[kids], self.parents[kids]))
        parents = self.parents[kids][order]
        starts = self.starts[kids][order]
        ends = self.ends[kids][order]
        total = 0.0
        current, lo, hi = None, 0.0, 0.0
        for p, s, e in zip(parents.tolist(), starts.tolist(), ends.tolist()):
            if p != current or s > hi:
                total += hi - lo
                current, lo, hi = p, s, e
            else:
                hi = max(hi, e)
        return total + (hi - lo)

    def self_seconds(self, *names):
        return self.seconds(*names) - self.covered(*names)


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(spans: Spans, report, facts, wall_s):
    """Per-layer metrics of one traced child (``report`` is its JSON report).

    ``failed_frac`` and ``trace.overhead_frac`` need the whole run and are
    filled in by the caller.
    """
    counters = report["counters"]
    covered = spans.covered("cli.main")
    load_s = spans.seconds("ingest.load_dataset")
    loads = spans.count("ingest.load_dataset")
    days = spans.count("thermal.simulate_day")
    grid_days = int((spans.mask("thermal.simulate_day") & spans.children_of(
        "riskassess.max_services_by_temperature",
        "riskassess.max_services_by_life")).sum())
    queries = spans.count("estimation.estimate_day_temperature")
    aging = ("aging.aging_acceleration", "aging.equivalent_aging",
             "aging.accumulate_life_loss", "aging.economic_loss")
    writers = ("riskassess.write_thresholds_csv",
               "riskassess.write_month_matrix_csv",
               "riskassess.write_temperature_grid_csv",
               "riskassess.write_life_loss_csv",
               "riskassess.write_month_distribution_svg")
    return {
        "cli.import_s": report["import_s"],
        "cli.self_s": wall_s - covered,
        "ingest.load_dataset_s": load_s,
        "ingest.rows_read": loads * facts["rows"],
        "ingest.rows_per_s": _ratio(loads * facts["rows"], load_s),
        "ingest.records": counters.get("records", 0),
        "features.fit_normalization_s": spans.seconds("features.fit_normalization"),
        "features.encode_calls": spans.count("features.encode"),
        "features.encode_s": spans.seconds("features.encode"),
        "features.distance_calls": spans.count("features.distance"),
        "features.distance_s": spans.seconds("features.distance"),
        "clustering.kmeans_self_s": spans.self_seconds("clustering.kmeans"),
        "clustering.lloyd_iterations": report["lloyd_iterations"],
        "clustering.extract_profiles_s": spans.seconds("clustering.extract_profiles"),
        "clustering.save_model_s": spans.seconds("clustering.save_model"),
        "clustering.model_bytes": facts["model_bytes"],
        "clustering.load_model_s": spans.seconds("clustering.load_model"),
        "clustering.month_cluster_matrix_s": spans.seconds(
            "clustering.month_cluster_matrix"),
        "thermal.simulate_day_calls": days,
        "thermal.simulate_day_s": spans.seconds("thermal.simulate_day"),
        "thermal.us_per_day": _ratio(spans.seconds("thermal.simulate_day"), days, 1e6),
        "thermal.sweeps_per_day": _ratio(counters.get("sweeps", 0), days),
        "aging.aging_acceleration_calls": spans.count("aging.aging_acceleration"),
        "aging.s": spans.seconds(*aging),
        "riskassess.cluster_thresholds_s": spans.seconds("riskassess.cluster_thresholds"),
        "riskassess.bisection_days": int((spans.mask("thermal.simulate_day")
                                          & spans.children_of(
                                              "riskassess.cluster_thresholds")).sum()),
        "riskassess.max_services_by_temperature_s": spans.seconds(
            "riskassess.max_services_by_temperature"),
        "riskassess.max_services_by_life_s": spans.seconds(
            "riskassess.max_services_by_life"),
        "riskassess.grid_days": grid_days,
        "riskassess.grid_reuse": _ratio(facts.get("cells", 0), grid_days),
        "riskassess.write_s": spans.seconds(*writers),
        "estimation.read_query_csv_s": spans.seconds("estimation.read_query_csv"),
        "estimation.cluster_max_top_oil_s": spans.seconds(
            "estimation.cluster_max_top_oil"),
        "estimation.estimate_self_s": spans.self_seconds(
            "estimation.estimate_day_temperature"),
        "estimation.us_per_query": _ratio(
            spans.seconds("estimation.estimate_day_temperature"), queries, 1e6),
        "estimation.far_frac": _ratio(counters.get("far", 0), queries),
        "estimation.write_estimates_csv_s": spans.seconds(
            "estimation.write_estimates_csv"),
        "trace.coverage_frac": _ratio(covered, wall_s),
    }
