"""How fast does the paper insulation age?

The aging acceleration factor is 1 at a 110 degC hotspot and roughly
doubles every 6-7 degC. A day spent above the reference temperature can
burn through weeks of insulation life; a cool day barely registers.
"""

import numpy as np

from txrisk import (
    NORMAL_LIFE_DAYS,
    TransformerSpec,
    aging_acceleration,
    economic_loss,
    equivalent_aging,
    simulate_day,
)

print("aging acceleration vs hotspot temperature")
for temp in (80, 95, 110, 116, 122, 130, 140):
    faa = aging_acceleration(float(temp))
    print(f"  {temp:>4} degC -> {faa:10.3f}x")

spec = TransformerSpec(
    rated_kva=25.0, top_oil_rise_rated=55.0, hotspot_differential=25.0,
    loss_ratio=4.0, oil_time_constant=3.0, winding_time_constant=0.08,
    replacement_cost=5000.0)

# Same summer day at two loading levels, nameplate and a 40% overload,
# simulated together: one row of loads per level.
levels = (("rated load", 1.0), ("40% overload", 1.4))
load = np.array([[level] * 24 for _, level in levels])
traces = simulate_day(spec, np.full(24, 30.0), load)
for (label, _), hotspot in zip(levels, traces.hotspot):
    factors = aging_acceleration(hotspot)
    feqa = equivalent_aging(factors)
    # One such day every day for a year:
    annual_days = feqa * 365.0
    cost = economic_loss(annual_days, spec.replacement_cost)
    print(f"\n{label}: hotspot {max(hotspot):.1f} degC, "
          f"F_EQA {feqa:.3f} days/day")
    print(f"  a year of these days ages the unit {annual_days:.0f} days "
          f"({annual_days / NORMAL_LIFE_DAYS * 100:.1f}% of normal life, "
          f"${cost:.0f}/year equivalent loss)")
