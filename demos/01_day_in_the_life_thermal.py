"""A day in the life of a 25 kVA pole transformer.

Walks the thermal model through one hot summer day: hourly ambient
temperatures and a per-unit load shape go in, the top-oil and
hottest-spot temperatures of that day repeated forever (its periodic
steady state, solved in closed form) come out, and the limits verdict says
whether the day was survivable.
"""

import math

import numpy as np

from txrisk import TransformerSpec, simulate_day, ultimate_top_oil_rise

# A small ONAN residential transformer. The oil time constant of 3 h means
# the tank needs most of an afternoon to feel a load change; the winding
# reacts within minutes.
spec = TransformerSpec(
    rated_kva=25.0,
    top_oil_rise_rated=55.0,
    hotspot_differential=25.0,
    loss_ratio=4.0,
    oil_time_constant=3.0,
    winding_time_constant=0.08,
    replacement_cost=5000.0,
)

# Hot day: 22 degC overnight, 34 degC mid-afternoon.
ambient = np.array([28.0 + 6.0 * math.sin(math.pi * (h - 8) / 16) if 8 <= h <= 24
                    else 22.0 + 0.75 * h for h in range(24)])
# Aggregated residential load: valley overnight, peak in the evening when
# everyone comes home and the air conditioning is already running.
load = np.array([0.9 + 1.3 * math.exp(-((h - 19) ** 2) / 10.0)
                 for h in range(24)])

# One day in, one trace out: arrays with the 24 hours on the last axis.
trace = simulate_day(spec, ambient, load)

# The day repeats, so hour 1 starts from hour 24's temperatures.
print(f"hour 24 top-oil rise {trace.top_oil_rise[-1]:.2f} degC is the rise "
      "hour 1 starts from\n")
print(f"{'hour':>4} {'ambient':>8} {'load pu':>8} {'top oil':>8} {'hotspot':>8}")
for h in range(24):
    print(f"{h:>4} {ambient[h]:>8.1f} {load[h]:>8.2f} "
          f"{trace.top_oil[h]:>8.1f} {trace.hotspot[h]:>8.1f}")

# Limits are inclusive: a day exactly at a limit is within it.
worst_top_oil, worst_hotspot = max(trace.top_oil), max(trace.hotspot)
within = (worst_top_oil <= spec.top_oil_limit
          and worst_hotspot <= spec.hotspot_limit)
print(f"\nworst top-oil  {worst_top_oil:6.1f} degC  (limit {spec.top_oil_limit:g})")
print(f"worst hotspot  {worst_hotspot:6.1f} degC  (limit {spec.hotspot_limit:g})")
print("within limits" if within else "LIMIT VIOLATED")

# The steady-state rise the evening peak would reach if it lasted forever;
# the transient trace stays below it because the peak is short.
peak = float(max(load))
print(f"\nsteady-state rise at the {peak:.2f} p.u. peak: "
      f"{ultimate_top_oil_rise(spec, peak):.1f} degC "
      f"(trace peaked {max(trace.top_oil) - min(ambient):.1f} degC over the "
      "coolest ambient)")
