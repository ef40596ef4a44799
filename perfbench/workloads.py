"""The benchmark's three workloads: their inputs, CLI calls and output checks.

Every input is made from the benchmark seed; the program sees only the
generated files. Each workload defines

* ``setup(work, seed, cli)``: write the inputs under ``work`` and return
  their facts; ``cli(calls)`` runs txrisk CLI calls in a fresh process and
  returns their exit codes;
* ``calls(inputs, out)``: the ``txrisk.cli.main`` argv lists of one run;
* ``check(inputs, out)``: ``(name, ok)`` output checks of one run;
* ``outputs(inputs, out)``: the files whose hashes must repeat across runs;
* ``work(inputs)``: units of work in one run (service-days, grid cells or
  queries), the numerator of ``norm_work_per_s``;
* ``reference``: the ``hostspeed`` loop with the shape of its calls;
* ``distinct_setups``: whether each setup of an invocation makes its own
  input set, from its own seed, for the runs to cycle through.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

START_DATE = dt.date(2014, 1, 1)
# Bytes per meter.csv row ("S001,2014-01-01,0,1.234\n" plus slack), used to
# plan disk space before any input exists.
METER_ROW_BYTES = 25
# Offset between the benchmark seed and the seed of the data the screen and
# estimate model is trained on, so that it is not the train workload's data.
MODEL_SEED_OFFSET = 100_003


@dataclass(frozen=True)
class Scale:
    """Input sizes. The screen and estimate model is trained on
    ``model_services`` services, fewer than the train workload's, so that
    three setups take a small share of an invocation's time."""

    services: int
    model_services: int
    days: int
    train_k: int
    train_restarts: int
    model_k: int
    specs: int
    n_max: int
    queries: int
    estimate_services: int = 18


SCALES = {
    "full": Scale(services=40, model_services=12, days=730, train_k=6,
                  train_restarts=3, model_k=10, specs=7, n_max=150,
                  queries=20_000),
    "smoke": Scale(services=4, model_services=4, days=60, train_k=6,
                   train_restarts=3, model_k=10, specs=2, n_max=20,
                   queries=300),
}

# A fixed ONAN fleet, 15-167 kVA, from fast to slow oil.
FLEET = (
    # kVA, top-oil rise, hotspot differential, loss ratio, oil tau, winding tau
    (15.0, 55.0, 25.0, 3.2, 1.5, 0.08),
    (25.0, 55.0, 25.0, 4.0, 3.0, 0.08),
    (37.5, 60.0, 20.0, 4.5, 3.5, 0.10),
    (50.0, 55.0, 25.0, 5.0, 4.0, 0.12),
    (75.0, 65.0, 20.0, 5.5, 5.0, 0.15),
    (100.0, 60.0, 23.0, 6.0, 6.5, 0.18),
    (167.0, 55.0, 25.0, 6.5, 8.0, 0.20),
)
ESTIMATE_SPEC = FLEET[1]


def write_spec(spec, path):
    kva, rise, diff, ratio, tau_oil, tau_hot = spec
    doc = {
        "rated_kva": kva,
        "top_oil_rise_rated_c": rise,
        "hotspot_differential_c": diff,
        "loss_ratio": ratio,
        "oil_time_constant_h": tau_oil,
        "winding_time_constant_h": tau_hot,
        "replacement_cost": 200.0 * kva,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def count_rows(path):
    """Data rows (lines after the header) of a CSV file."""
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def synth(work, seed, services, scale, cli):
    """Synthetic weather/meter/calendar files; returns (data dir, facts)."""
    data = Path(work) / "data"
    rc = cli([["synth", "--seed", str(seed), "--services", str(services),
               "--days", str(scale.days), "--start-date", START_DATE.isoformat(),
               "--out", str(data)]])
    if rc != [0]:
        raise RuntimeError(f"synth exited {rc}")
    rows = {name: count_rows(data / f"{name}.csv")
            for name in ("weather", "meter", "calendar")}
    facts = {
        "meter_rows": rows["meter"],
        "meter_bytes": (data / "meter.csv").stat().st_size,
        "rows": sum(rows.values()),
        # Synth writes every hour of every day, so each service-day has 24
        # meter rows and becomes one record.
        "records": rows["meter"] // 24,
    }
    return data, facts


def data_args(data):
    return ["--weather", str(data / "weather.csv"),
            "--meter", str(data / "meter.csv"),
            "--calendar", str(data / "calendar.csv")]


def model_floats_finite(path):
    """The model loads through txrisk and every float stored in it is finite."""
    from txrisk import clustering

    clustering.load_model(path)

    def finite(node):
        if isinstance(node, float):
            return math.isfinite(node)
        if isinstance(node, dict):
            return all(finite(v) for v in node.values())
        if isinstance(node, list):
            return all(finite(v) for v in node)
        return True

    return finite(json.loads(Path(path).read_text(encoding="utf-8")))


def member_counts(model_path):
    doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
    return {int(c["id"]): int(c["member_count"]) for c in doc["clusters"]}


def trained_model(work, seed, scale, cli):
    """Setup for screen and estimate: synth data with another seed and a
    k = model_k model trained on it."""
    data, facts = synth(work, seed + MODEL_SEED_OFFSET, scale.model_services,
                        scale, cli)
    model_dir = Path(work) / "model"
    rc = cli([["cluster", *data_args(data), "--k", str(scale.model_k),
               "--seed", str(seed + MODEL_SEED_OFFSET), "--out", str(model_dir)]])
    if rc != [0]:
        raise RuntimeError(f"setup cluster exited {rc}")
    facts["model"] = str(model_dir / "model.json")
    facts["model_bytes"] = (model_dir / "model.json").stat().st_size
    return data, facts


class Train:
    name = "train"
    work_unit = "service_day"
    reference = "serial"
    # Lloyd's iteration count, and so the run time, changes by up to a
    # third from one input set and seed to the next; cycling through the
    # setups' input sets keeps that out of an invocation's median.
    distinct_setups = True

    def __init__(self, scale):
        self.scale = scale

    def planned_bytes(self):
        s = self.scale
        return s.services * s.days * 24 * METER_ROW_BYTES

    def setup(self, work, seed, cli):
        data, facts = synth(work, seed, self.scale.services, self.scale, cli)
        facts.update(data=str(data), seed=seed)
        return facts

    def calls(self, inputs, out):
        s = self.scale
        return [["cluster", *data_args(Path(inputs["data"])), "--k", str(s.train_k),
                 "--restarts", str(s.train_restarts), "--seed", str(inputs["seed"]),
                 "--out", str(out)]]

    def outputs(self, inputs, out):
        return [Path(out) / "model.json", Path(out) / "composition.csv"]

    def model_path(self, inputs, out):
        return Path(out) / "model.json"

    def work(self, inputs):
        return inputs["records"]

    def check(self, inputs, out):
        out = Path(out)
        rows = read_csv(out / "composition.csv")[1:]
        yield ("composition member counts sum to the records",
               sum(int(r[1]) for r in rows) == inputs["records"]
               and len(rows) == self.scale.train_k)
        yield "model loads with finite floats", model_floats_finite(out / "model.json")


class Screen:
    name = "screen"
    work_unit = "cell"
    # assess simulates its grid on a pool of one thread per CPU.
    reference = "pooled"
    # Its setups repeat byte for byte, which checks that synth and cluster
    # are deterministic.
    distinct_setups = False

    def __init__(self, scale):
        self.scale = scale

    def planned_bytes(self):
        s = self.scale
        return s.model_services * s.days * 24 * METER_ROW_BYTES

    def setup(self, work, seed, cli):
        data, facts = trained_model(work, seed, self.scale, cli)
        specs = []
        for i, spec in enumerate(FLEET[:self.scale.specs]):
            path = Path(work) / f"spec{i}.json"
            write_spec(spec, path)
            specs.append(str(path))
        facts.update(specs=specs, seed=seed,
                     cells=len(specs) * self.scale.model_k * self.scale.n_max)
        return facts

    def calls(self, inputs, out):
        return [["assess", "--spec", spec, "--model", inputs["model"],
                 "--n-range", f"1..{self.scale.n_max}", "--svg",
                 "--out", str(Path(out) / f"spec{i}")]
                for i, spec in enumerate(inputs["specs"])]

    def outputs(self, inputs, out):
        names = ("thresholds.csv", "month_matrix.csv", "temperature_grid.csv",
                 "life_loss.csv", "month_distribution.svg")
        return [Path(out) / f"spec{i}" / name
                for i in range(len(inputs["specs"])) for name in names]

    def model_path(self, inputs, out):
        return Path(inputs["model"])

    def work(self, inputs):
        return inputs["cells"]

    def check(self, inputs, out):
        counts = member_counts(inputs["model"])
        for i in range(len(inputs["specs"])):
            spec_out = Path(out) / f"spec{i}"
            matrix = read_csv(spec_out / "month_matrix.csv")
            ids = [int(v) for v in matrix[1][1:]]
            sums = [int(v) for v in matrix[-1][1:]]
            yield (f"spec{i} month_matrix Sum row equals member counts",
                   matrix[-1][0] == "Sum"
                   and sorted(ids) == sorted(counts)
                   and sums == [counts[c] for c in ids]
                   and sum(sums) == inputs["records"])
            grid = read_csv(spec_out / "temperature_grid.csv")[1:]
            yield (f"spec{i} temperature_grid rows non-decreasing in N",
                   len(grid) == self.scale.model_k + 1
                   and all(len(r) == self.scale.n_max + 1 for r in grid)
                   and all(float(a) <= float(b)
                           for r in grid for a, b in zip(r[1:], r[2:])))


def write_queries(path, seed, count):
    """Seeded query days over two years of the synthetic climate.

    Temperatures follow synth's seasonal and diurnal curves and loads are
    residential averages. One query in five is atypical: a wider daily
    temperature swing and a heavier load. Those are the queries the model's
    far guard flags, when its threshold is tight enough to flag any.
    """
    rng = np.random.default_rng([seed, 2])
    offsets = rng.integers(0, 730, size=count)
    dates = [START_DATE + dt.timedelta(days=int(o)) for o in offsets]
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=np.float64)
    t_avg = 4.0 - 17.0 * np.cos(2.0 * math.pi * (doy - 15.0) / 365.25)
    t_avg += rng.normal(0.0, 1.8, size=count)
    swing = 5.5 + rng.normal(0.0, 1.0, size=count)
    load = 1.15 * np.exp(rng.normal(0.0, 0.2, size=count))
    load += 0.035 * np.maximum(0.0, 14.0 - t_avg)
    atypical = rng.random(count) < 0.2
    swing[atypical] += rng.uniform(6.0, 10.0, size=int(atypical.sum()))
    load[atypical] *= rng.uniform(1.5, 2.5, size=int(atypical.sum()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date", "t_max_c", "t_min_c", "t_avg_c", "l_avg_kva",
                         "weekday"])
        for i, date in enumerate(dates):
            writer.writerow([date.isoformat(), f"{t_avg[i] + swing[i]:.2f}",
                             f"{t_avg[i] - swing[i]:.2f}", f"{t_avg[i]:.2f}",
                             f"{load[i]:.2f}", "Y" if date.weekday() < 5 else "N"])


class Estimate:
    name = "estimate"
    work_unit = "query"
    reference = "serial"
    # Each query set has its own share of far-flagged days.
    distinct_setups = True

    def __init__(self, scale):
        self.scale = scale

    def planned_bytes(self):
        s = self.scale
        return s.model_services * s.days * 24 * METER_ROW_BYTES + s.queries * 60

    def setup(self, work, seed, cli):
        data, facts = trained_model(work, seed, self.scale, cli)
        spec = Path(work) / "spec.json"
        write_spec(ESTIMATE_SPEC, spec)
        query = Path(work) / "query.csv"
        write_queries(query, seed, self.scale.queries)
        facts.update(spec=str(spec), query=str(query), seed=seed,
                     queries=self.scale.queries)
        return facts

    def calls(self, inputs, out):
        return [["estimate", "--spec", inputs["spec"], "--model", inputs["model"],
                 "--query", inputs["query"],
                 "--services", str(self.scale.estimate_services),
                 "--out", str(out)]]

    def outputs(self, inputs, out):
        return [Path(out) / "estimates.csv"]

    def model_path(self, inputs, out):
        return Path(inputs["model"])

    def work(self, inputs):
        return inputs["queries"]

    def cluster_temps(self, inputs):
        """Per-cluster max top-oil for the spec and N, computed once."""
        if "cluster_temps" not in inputs:
            from txrisk import clustering, estimation, thermal

            model = clustering.load_model(inputs["model"])
            spec = thermal.load_transformer_spec(inputs["spec"])
            temps = estimation.cluster_max_top_oil(
                model, spec, self.scale.estimate_services)
            inputs["cluster_temps"] = (min(temps.values()), max(temps.values()))
        return inputs["cluster_temps"]

    def check(self, inputs, out):
        lo, hi = self.cluster_temps(inputs)
        rows = read_csv(Path(out) / "estimates.csv")[1:]
        # Estimates are written with one decimal.
        yield ("every estimate within the per-cluster temperature range",
               len(rows) == inputs["queries"]
               and all(lo - 0.05 <= float(r[6]) <= hi + 0.05 for r in rows))


WORKLOADS = {w.name: w for w in (Train, Screen, Estimate)}
