"""Estimating transformers in an area without interval meters.

The target area only has revenue meters (daily energy reads), so no
24-hour profiles exist there. Daily energy converts to an average service
load, each day becomes a row of a query table (the record table that
``read_query_csv`` reads from a file), and one ``estimate`` call weights
the trained cluster centroids by inverse distance for every day at once,
yielding an estimated maximum top-oil temperature per day. Days far from
every cluster get flagged instead of silently extrapolated.
"""

import datetime as dt
import tempfile
import warnings

import numpy as np

from txrisk import (
    TransformerSpec,
    avg_load_from_energy,
    cluster_max_top_oil,
    default_schema,
    estimate,
    estimate_day_temperature,
    load_dataset,
    synth_dataset,
    train_model,
)
from txrisk.estimation import QUERY_DTYPE

spec = TransformerSpec(
    rated_kva=25.0, top_oil_rise_rated=55.0, hotspot_differential=25.0,
    loss_ratio=4.0, oil_time_constant=3.0, winding_time_constant=0.08,
    replacement_cost=5000.0)

with tempfile.TemporaryDirectory(prefix="txrisk_demo_") as workdir:
    paths = synth_dataset(seed=42, services=10, start_date=dt.date(2014, 1, 1),
                          days=730, out_dir=workdir)
    dataset = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
model = train_model(dataset, k=6, schema=default_schema(), seed=7, restarts=3)

# Transformer X serves 18 homes in the new area. Its revenue meters
# reported these daily energies (kWh) for one June day:
energies = [21.4, 25.0, 19.8, 23.9, 26.2, 22.5, 24.1, 20.9, 23.3, 25.7,
            22.0, 24.8, 21.1, 23.5, 25.4, 22.8, 24.4, 21.7]
n_services = len(energies)
l_avg = avg_load_from_energy(energies, n_services)
print(f"daily energy across {n_services} services -> "
      f"average load {l_avg:.2f} kVA/service")

# Weather for the new area comes from its own station; one week of days
# (date, t_max, t_min, t_avg, l_avg, weekday):
week = np.array([
    ("2016-06-06", 21.5, 8.1, 14.2, l_avg, "Y"),
    ("2016-06-07", 22.7, 12.6, 14.6, l_avg, "Y"),
    ("2016-06-08", 20.1, 9.4, 13.4, l_avg, "Y"),
    ("2016-06-09", 18.6, 10.8, 16.6, l_avg, "Y"),
    ("2016-06-10", 18.5, 11.8, 14.8, l_avg, "Y"),
    ("2016-06-11", 20.0, 11.3, 16.5, l_avg, "N"),
    ("2016-06-12", 21.7, 8.2, 17.6, l_avg, "N"),
], dtype=QUERY_DTYPE)

# The per-cluster temperatures at 18 services are computed once and reused.
temps = cluster_max_top_oil(model, spec, n_services)
print(f"\nper-cluster max top-oil at N={n_services}: "
      + ", ".join(f"{cid}:{t:.0f}" for cid, t in sorted(temps.items())))

# The whole week is one table: one encode, one (7, k) distance matrix and
# one inverse-distance pass.
result = estimate(week, model, temps)
print(f"\n{'day':>12} {'t_avg':>6} {'weekday':>8} {'est. top-oil':>13} {'far?':>5}")
for (iso, _, _, t_avg, _, weekday), value, far in zip(
        week.tolist(), result.estimate.tolist(), result.far_flag.tolist()):
    print(f"{iso:>12} {t_avg:>6.1f} {weekday:>8} "
          f"{value:>11.1f} C {'yes' if far else 'no':>5}")

# A tropical day does not belong to this model; lenient mode warns and
# flags it, strict mode would refuse outright. One day at a time goes
# through estimate_day_temperature, which returns plain scalars.
tropical = np.array([("2016-07-01", 41.0, 29.0, 35.0, 4.8, "Y")],
                    dtype=QUERY_DTYPE)
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    result = estimate_day_temperature(tropical, model, n_services, spec, temps)
print(f"\ntropical outlier day: estimate {result.estimate:.1f} C, "
      f"far_flag={result.far_flag} "
      f"({len(caught)} warning(s): not covered by this model)")
