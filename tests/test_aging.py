"""Aging and economic-loss tests.

Anchors frozen from independent 30-digit evaluation:

    e^(15000/383 - 15000/393) = 2.708925143828164
    e^(15000/383 - 15000/373) = 0.349942525731935
"""

import math

import numpy as np
import pytest

from txrisk import aging

# Published life-loss grid for the 25 kVA case study (per-cluster daily
# losses by service count, and member-day counts per cluster, clusters
# 1..10 in order).
DAY_COUNTS = np.array([139, 138, 176, 58, 46, 168, 107, 155, 23, 87])
LOSS_N23 = [3.7, 0.7, 0.2, 31.0, 56.0, 12.2, 2.5, 0.4, 125.0, 16.8]
LOSS_N22 = [1.6, 0.4, 0.1, 11.8, 22.3, 6.5, 1.1, 0.2, 45.8, 6.8]
LOSS_N21 = [0.7, 0.2, 0.1, 4.3, 8.7, 3.5, 0.5, 0.1, 16.3, 2.7]


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
        assert aging.equivalent_aging(np.ones(24)) == 1.0

    def test_double_speed_aging(self):
        assert aging.equivalent_aging(np.full(24, 2.0)) == pytest.approx(2.0)

    def test_mean_symmetry(self):
        factors = np.repeat([0.5, 1.5], 12)
        assert aging.equivalent_aging(factors) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        factors = 0.2 * np.arange(24) + 0.1
        assert aging.equivalent_aging(factors) == pytest.approx(
            aging.equivalent_aging(factors[::-1]))

    def test_linearity(self):
        factors = 0.2 * np.arange(24) + 0.1
        assert aging.equivalent_aging(3 * factors) == pytest.approx(
            3 * aging.equivalent_aging(factors))

    def test_batch_rows_equal_hour_order_sums(self):
        # One factor per day of a (B, 24) batch: each the hour-order sum
        # of its row over 24, bit for bit, as for a single day.
        factors = np.random.default_rng(3).uniform(0.01, 50.0, (7, 24))
        feqa = aging.equivalent_aging(factors)
        assert feqa.shape == (7,)
        for row, value in zip(factors.tolist(), feqa.tolist()):
            assert value == sum(row) / 24.0
        grid = aging.equivalent_aging(factors.reshape(7, 1, 24))
        assert grid.shape == (7, 1)
        assert np.array_equal(grid[:, 0], feqa)

    def test_rejects_wrong_length(self):
        for shape in ((23,), (3, 23), (24, 3)):
            with pytest.raises(ValueError, match="24 hourly factors"):
                aging.equivalent_aging(np.ones(shape))

    def test_rejects_nonpositive_factor(self):
        for bad in (0.0, -1.0, float("nan")):
            factors = np.ones((3, 24))
            factors[1, 23] = bad
            with pytest.raises(ValueError, match="> 0"):
                aging.equivalent_aging(factors)


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
        total, annual = aging.accumulate_life_loss([1.0], [365], 1)
        assert total == 365.0
        assert annual == 365.0

    def test_key_mismatch(self):
        # Daily losses and member days must cover the same clusters.
        with pytest.raises(ValueError, match="2 clusters"):
            aging.accumulate_life_loss([1.0, 2.0], [365], 1)

    def test_rejects_nonpositive_years(self):
        with pytest.raises(ValueError):
            aging.accumulate_life_loss([1.0], [365], 0)

    def test_columns_equal_cluster_ordered_sums(self):
        # A (k, M) grid gives M totals, each the cluster-by-cluster sum of
        # its column, bit for bit.
        grid = np.array([LOSS_N21, LOSS_N22, LOSS_N23]).T
        total, annual = aging.accumulate_life_loss(grid, DAY_COUNTS, 3)
        for j, column in enumerate((LOSS_N21, LOSS_N22, LOSS_N23)):
            expected = sum(loss * int(count)
                           for loss, count in zip(column, DAY_COUNTS))
            assert total[j] == expected
            assert annual[j] == expected / 3


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
            aging.economic_loss(np.array([1.0, -1.0]), 5000.0)
        with pytest.raises(ValueError):
            aging.economic_loss(1.0, -5000.0)


class TestDayAging:
    def test_constant_reference_hotspot(self):
        # A year of days at the reference hotspot, through the same chain
        # as the service grid and its life-loss table.
        factors = aging.aging_acceleration(np.full(24, 110.0))
        feqa = aging.equivalent_aging(factors)
        total, annual = aging.accumulate_life_loss([feqa], [365], 1.0)
        assert feqa == pytest.approx(1.0)
        assert total == pytest.approx(365.0)
        assert annual == pytest.approx(365.0)
        assert aging.economic_loss(annual, 5000.0) == pytest.approx(
            365.0 / 7500.0 * 5000.0)
        assert feqa == pytest.approx(math.fsum(factors) / 24.0)
