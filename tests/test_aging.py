"""Aging and economic-loss tests.

Anchors frozen from independent 30-digit evaluation:

    e^(15000/383 - 15000/393) = 2.708925143828164
    e^(15000/383 - 15000/373) = 0.349942525731935
"""

import math

import numpy as np
import pytest

from txrisk import aging
from txrisk.errors import KeyMismatchError

# Published life-loss grid for the 25 kVA case study (per-cluster daily
# losses by service count, and member-day counts per cluster).
DAY_COUNTS = {1: 139, 2: 138, 3: 176, 4: 58, 5: 46, 6: 168, 7: 107, 8: 155,
              9: 23, 10: 87}
LOSS_N23 = {1: 3.7, 2: 0.7, 3: 0.2, 4: 31.0, 5: 56.0, 6: 12.2, 7: 2.5,
            8: 0.4, 9: 125.0, 10: 16.8}
LOSS_N22 = {1: 1.6, 2: 0.4, 3: 0.1, 4: 11.8, 5: 22.3, 6: 6.5, 7: 1.1,
            8: 0.2, 9: 45.8, 10: 6.8}
LOSS_N21 = {1: 0.7, 2: 0.2, 3: 0.1, 4: 4.3, 5: 8.7, 6: 3.5, 7: 0.5,
            8: 0.1, 9: 16.3, 10: 2.7}


class TestAgingAcceleration:
    def test_unity_at_reference_temperature(self):
        assert abs(aging.aging_acceleration(110.0) - 1.0) <= 1e-12

    def test_ten_degrees_hotter(self):
        assert aging.aging_acceleration(120.0) == pytest.approx(
            2.708925143828164, abs=1e-9)

    def test_ten_degrees_cooler(self):
        assert aging.aging_acceleration(100.0) == pytest.approx(
            0.349942525731935, abs=1e-9)

    def test_strictly_increasing_in_temperature(self):
        temps = [t / 2.0 for t in range(-40, 400)]
        factors = [aging.aging_acceleration(t) for t in temps]
        assert all(b > a for a, b in zip(factors, factors[1:]))


class TestEquivalentAging:
    def test_normal_operation_is_one(self):
        assert aging.equivalent_aging([1.0] * 24) == 1.0

    def test_double_speed_aging(self):
        assert aging.equivalent_aging([2.0] * 24) == pytest.approx(2.0)

    def test_mean_symmetry(self):
        assert aging.equivalent_aging([0.5] * 12 + [1.5] * 12) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        factors = [0.2 * i + 0.1 for i in range(24)]
        assert aging.equivalent_aging(factors) == pytest.approx(
            aging.equivalent_aging(list(reversed(factors))))

    def test_linearity(self):
        factors = [0.2 * i + 0.1 for i in range(24)]
        assert aging.equivalent_aging([3 * f for f in factors]) == pytest.approx(
            3 * aging.equivalent_aging(factors))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            aging.equivalent_aging([1.0] * 23)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            aging.equivalent_aging([1.0] * 23 + [0.0])


class TestAccumulateLifeLoss:
    def test_published_n23_column(self):
        total, annual = aging.accumulate_life_loss(LOSS_N23, DAY_COUNTS, 3)
        assert total == pytest.approx(11735.8, abs=0.5)
        assert annual == pytest.approx(3911.9, abs=0.2)

    def test_published_n22_column(self):
        total, annual = aging.accumulate_life_loss(LOSS_N22, DAY_COUNTS, 3)
        assert total == pytest.approx(4891.1, abs=0.5)
        assert annual == pytest.approx(1630.4, abs=0.2)

    def test_published_n21_column_dot_product(self):
        # The printed N=21 cells multiply out to 2058.9, not the published
        # footer total 2051.9: the footer was computed from unrounded
        # per-cluster losses (cluster 6's ~3.46 prints as 3.5, worth +7.0
        # by itself). The accumulation contract is the dot product of its
        # inputs, so the honestly recomputed value is asserted here.
        total, annual = aging.accumulate_life_loss(LOSS_N21, DAY_COUNTS, 3)
        assert total == pytest.approx(2058.9, abs=1e-9)
        assert annual == pytest.approx(686.3, abs=1e-9)

    def test_single_cluster_normal_aging(self):
        total, annual = aging.accumulate_life_loss({1: 1.0}, {1: 365}, 1)
        assert total == 365.0
        assert annual == 365.0

    def test_key_mismatch(self):
        with pytest.raises(KeyMismatchError):
            aging.accumulate_life_loss({1: 1.0}, {2: 365}, 1)

    def test_rejects_nonpositive_years(self):
        with pytest.raises(ValueError):
            aging.accumulate_life_loss({1: 1.0}, {1: 365}, 0)


class TestEconomicLoss:
    def test_published_n21_figure(self):
        assert aging.economic_loss(684.0, 5000.0) == pytest.approx(456.0)

    def test_published_n23_figure(self):
        assert aging.economic_loss(3911.933333333333, 5000.0) == pytest.approx(
            2608.0, abs=1.0)

    def test_full_life_per_year_costs_one_transformer(self):
        assert aging.economic_loss(7500.0, 4321.0) == pytest.approx(4321.0)

    def test_homogeneity(self):
        base = aging.economic_loss(684.0, 5000.0)
        assert aging.economic_loss(2 * 684.0, 5000.0) == pytest.approx(2 * base)
        assert aging.economic_loss(684.0, 2 * 5000.0) == pytest.approx(2 * base)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            aging.economic_loss(-1.0, 5000.0)
        with pytest.raises(ValueError):
            aging.economic_loss(1.0, -5000.0)


class TestDayAging:
    def test_constant_reference_hotspot(self):
        # A year of days at the reference hotspot, through the same chain
        # as the service grid and its life-loss table.
        factors = aging.aging_acceleration(np.full(24, 110.0))
        feqa = aging.equivalent_aging(factors.tolist())
        total, annual = aging.accumulate_life_loss({1: feqa}, {1: 365}, 1.0)
        assert feqa == pytest.approx(1.0)
        assert total == pytest.approx(365.0)
        assert annual == pytest.approx(365.0)
        assert aging.economic_loss(annual, 5000.0) == pytest.approx(
            365.0 / 7500.0 * 5000.0)
        assert feqa == pytest.approx(math.fsum(factors) / 24.0)
