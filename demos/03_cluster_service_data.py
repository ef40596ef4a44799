"""Grouping operating days with the mixed-type k-means.

Generates two years of synthetic service data (heating-dominated climate,
weekday/weekend behavior), loads it as one per-service per-day record
table, and clusters its days. The composition table shows what each cluster *is*: its
typical temperatures, load level, and day type.
"""

import tempfile

from txrisk import (
    composition,
    default_schema,
    load_dataset,
    month_cluster_matrix,
    synth_dataset,
    train_model,
)
import datetime as dt

# The CSV files live only until they are loaded.
with tempfile.TemporaryDirectory(prefix="txrisk_demo_") as workdir:
    paths = synth_dataset(seed=42, services=10, start_date=dt.date(2014, 1, 1),
                          days=730, out_dir=workdir)
    print(f"synthetic dataset in {workdir}")
    dataset = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
print(f"{len(dataset.records)} records "
      f"({len(dataset.services)} services x {len(dataset.dates)} days), "
      f"fields: {', '.join(dataset.records.dtype.names)}")
# Each meter day's 24 hourly loads are held once, in dataset.load; a
# record's load_row field is its day's row there.
first = dataset.records[0]
print(f"first record's loads, kVA: "
      f"{' '.join(f'{v:.2f}' for v in dataset.load[first['load_row']])}\n")

model = train_model(dataset, k=6, schema=default_schema(), seed=7, restarts=3)
print(f"k={model.k}, objective={model.objective:.1f}, "
      f"far guard at {model.far_threshold:.4f}\n")

header = f"{'id':>3} {'members':>8} {'t_max':>7} {'t_min':>7} {'t_avg':>7} " \
         f"{'l_avg':>7} {'weekday':>8}"
print(header)
for row in composition(model):
    print(f"{row['cluster_id']:>3} {row['member_count']:>8} "
          f"{row['t_max_c']:>7.1f} {row['t_min_c']:>7.1f} "
          f"{row['t_avg_c']:>7.1f} {row['l_avg_kva']:>7.2f} "
          f"{row['weekday']:>8}")

# Where in the year does each cluster live?
matrix = month_cluster_matrix(model)
months = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug",
          "Sep", "Oct", "Nov", "Dec")
print("\nmember days per month (columns = cluster ids)")
print(" " * 5 + "".join(f"{cid:>6}" for cid in range(1, model.k + 1)))
for m, label in enumerate(months):
    print(f"{label:>4} " + "".join(f"{matrix[m, j]:>6}"
                                   for j in range(model.k)))

# The per-cluster mean 24-hour profiles are what feed the thermal model:
# two (k, 24) arrays, cluster c + 1 in row c.
load_kva, ambient_c = model.profiles
hot = int(ambient_c.sum(axis=1).argmax())
print(f"\ncluster {hot + 1} (warmest) mean profile, kVA/service:")
print("  " + " ".join(f"{v:.2f}" for v in load_kva[hot]))
