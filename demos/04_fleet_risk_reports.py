"""From cluster profiles to fleet rules.

Three questions a planning engineer asks of a transformer model plus a
trained cluster model:

1. How hard can each kind of day push this transformer? (loading
   thresholds + impact ranking)
2. How many services can one unit carry before a temperature limit is
   hit on the worst kind of day?
3. How many services keep the yearly insulation-loss bill under budget?
"""

import datetime as dt
import tempfile

import numpy as np

from txrisk import (
    TransformerSpec,
    cluster_thresholds,
    default_schema,
    life_loss_by_n,
    load_dataset,
    max_services_by_life,
    max_services_by_temperature,
    service_grid,
    synth_dataset,
    train_model,
)

spec = TransformerSpec(
    rated_kva=25.0, top_oil_rise_rated=55.0, hotspot_differential=25.0,
    loss_ratio=4.0, oil_time_constant=3.0, winding_time_constant=0.08,
    replacement_cost=5000.0)

with tempfile.TemporaryDirectory(prefix="txrisk_demo_") as workdir:
    paths = synth_dataset(seed=42, services=10, start_date=dt.date(2014, 1, 1),
                          days=730, out_dir=workdir)
    dataset = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
model = train_model(dataset, k=6, schema=default_schema(), seed=7, restarts=3)

# 1. Thresholds: scale each cluster's day shape until a limit binds.
print("loading thresholds by cluster (impact 1 = most restrictive)")
thresholds = cluster_thresholds(spec, model)  # (k,) arrays, cluster c + 1 at c
for c in np.argsort(thresholds.impact_rank).tolist():
    print(f"  impact {thresholds.impact_rank[c]}: cluster {c + 1} tolerates "
          f"peak {thresholds.max_peak_load_pu[c]:.2f} p.u. "
          f"(avg {thresholds.max_avg_load_pu[c]:.2f}, "
          f"{thresholds.binding_limit[c]} binds)")
fleet_rule = thresholds.max_peak_load_pu.min()
print(f"conservative fleet rule: keep daily peaks below {fleet_rule:.2f} p.u.\n")

# Every cluster's day at every service count, simulated once as one batch;
# both service caps below read this grid.
grid = service_grid(spec, model, range(1, 41))

# 2. Service cap by temperature.
n = max_services_by_temperature(spec, grid)
print(f"max services before a temperature limit: {n}")
column = grid.n_values.index(n)
worst = grid.max_top_oil[:, column].max()
worst_next = grid.max_top_oil[:, column + 1].max()
print(f"  at N={n} the worst cluster day peaks at {worst:.0f} degC; "
      f"N={n + 1} would reach {worst_next:.0f} degC (limit "
      f"{spec.top_oil_limit:g})\n")

# 3. Service cap by life-loss budget.
budget = 500.0
losses = life_loss_by_n(spec, grid, years=2.0)  # arrays over grid.n_values
cap = max_services_by_life(grid.n_values, losses.economic_loss, budget)
print(f"max services within a ${budget:g}/year loss budget: {cap}")
for n in range(cap - 1, cap + 3):
    el = losses.economic_loss[grid.n_values.index(n)]
    marker = " <= budget" if el <= budget else ""
    print(f"  N={n:>2}: ${el:>10.1f}/year{marker}")
