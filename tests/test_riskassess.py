"""Risk assessment tests: threshold bisection with closed-form and
certification oracles, impact ranking, and the service-count studies.

Closed-form check: for a constant profile at constant ambient A, the
converged top-oil rise is the steady-state rise, so the binding peak load
solves  rise(K) = limit - A  for K:

    K* = sqrt((((limit - A)/rise_rated)^(1/n) (R + 1) - 1) / R)

Frozen 30-digit evaluations for rise_rated=55, R=4, n=0.8, limit=120:
    A = 0 °C  -> K* = 1.750604437143877
    A = 10 °C -> K* = 1.650156897845415
    A = 20 °C -> K* = 1.545672956497188
"""

import math

import numpy as np
import pytest

from txrisk import aging, thermal
from txrisk.clustering import ClusterProfile
from txrisk.errors import ConfigError, NoFeasibleScaleError, ZeroPeakProfileError
from txrisk.estimation import cluster_max_top_oil
from txrisk.riskassess import (
    ThresholdResult,
    cluster_thresholds,
    life_loss_by_n,
    loading_threshold,
    max_services_by_life,
    max_services_by_temperature,
    rank_impact,
    select_max_services,
    service_grid,
)

CLOSED_FORM = {0.0: 1.750604437143877, 10.0: 1.650156897845415,
               20.0: 1.545672956497188}


def flat_profile(load_kva=1.5, ambient=20.0):
    return ClusterProfile(load_kva=(load_kva,) * 24, ambient_c=(ambient,) * 24)


def make_model_with_profiles(profiles, default_spec=None):
    """Minimal trained-model stand-in for the grid studies."""
    import datetime as dt

    from txrisk import features as ft
    from txrisk.clustering import Cluster, ClusterModel

    schema = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
    clusters = []
    for i, (profile, members) in enumerate(profiles):
        refs = tuple(("s", (dt.date(2015, 1, 1)
                            + dt.timedelta(days=30 * i + j)).isoformat())
                     for j in range(members))
        clusters.append(Cluster(
            id=i + 1, centroid_numeric={"x": 0.5}, centroid_nominal={},
            member_refs=refs, member_rows=None))
    return ClusterModel(
        k=len(clusters), clusters=tuple(clusters), schema=schema,
        norm_params=ft.NormalizationParams(bounds={"x": (0.0, 1.0)}),
        seed=0, objective=0.0,
        profiles={i + 1: p for i, (p, _) in enumerate(profiles)})


class TestLoadingThreshold:
    @pytest.mark.parametrize("ambient", [0.0, 10.0, 20.0])
    def test_constant_profile_matches_closed_form(self, default_spec, ambient):
        result = loading_threshold(default_spec, flat_profile(ambient=ambient))
        assert result.max_peak_load_pu == pytest.approx(CLOSED_FORM[ambient],
                                                        abs=0.01)
        # Constant shape: the 24-h average equals the peak.
        assert result.max_avg_load_pu == pytest.approx(result.max_peak_load_pu)
        assert result.binding_limit == "top_oil"

    def test_certification(self, default_spec):
        rng = np.random.default_rng(61)
        for _ in range(10):
            profile = ClusterProfile(load_kva=tuple(rng.uniform(0.5, 3.0, 24)),
                                     ambient_c=tuple(rng.uniform(-25, 30, 24)))
            result = loading_threshold(default_spec, profile)
            peak = max(profile.load_kva)
            shape = [v / peak for v in profile.load_kva]
            s = result.max_peak_load_pu

            def within(scale):
                trace = thermal.simulate_day(default_spec, profile.ambient_c,
                                             [scale * x for x in shape])
                return (trace.top_oil.max() <= default_spec.top_oil_limit
                        and trace.hotspot.max() <= default_spec.hotspot_limit)

            assert within(s)
            assert not within(s + 0.005)

    def test_peak_is_at_least_average(self, default_spec):
        rng = np.random.default_rng(62)
        profile = ClusterProfile(load_kva=tuple(rng.uniform(0.5, 3.0, 24)),
                                 ambient_c=tuple(rng.uniform(-10, 25, 24)))
        result = loading_threshold(default_spec, profile)
        assert result.max_peak_load_pu >= result.max_avg_load_pu

    def test_cooler_ambient_raises_threshold(self, default_spec):
        warm = loading_threshold(default_spec, flat_profile(ambient=20.0))
        cool = loading_threshold(default_spec, flat_profile(ambient=10.0))
        assert cool.max_peak_load_pu > warm.max_peak_load_pu

    def test_ambient_above_limit_is_infeasible(self, default_spec):
        with pytest.raises(NoFeasibleScaleError):
            loading_threshold(default_spec, flat_profile(ambient=125.0))

    def test_unreachable_limit_within_bound_is_config_error(self, default_spec):
        with pytest.raises(ConfigError):
            loading_threshold(default_spec, flat_profile(ambient=20.0),
                              scale_max=0.5)

    def test_hotspot_can_bind(self):
        # Enormous hotspot differential with a tight hotspot limit makes the
        # winding limit bind before the oil limit.
        spec = thermal.TransformerSpec(
            rated_kva=25.0, top_oil_rise_rated=30.0, hotspot_differential=60.0,
            loss_ratio=4.0, oil_time_constant=3.0, winding_time_constant=0.08,
            top_oil_limit=120.0, hotspot_limit=150.0)
        result = loading_threshold(spec, flat_profile(ambient=20.0))
        assert result.binding_limit == "hotspot"


def scalar_threshold(spec, profile, scale_max, tolerance):
    """Reference: the one-cluster bisection loop over single simulated days."""
    peak = max(profile.load_kva)
    shape = [v / peak for v in profile.load_kva]

    def day(scale):
        return thermal.simulate_day(spec, profile.ambient_c,
                                    [scale * s for s in shape])

    def within(scale):
        trace = day(scale)
        return (trace.top_oil.max() <= spec.top_oil_limit
                and trace.hotspot.max() <= spec.hotspot_limit)

    lo, hi = 0.0, scale_max
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if within(mid):
            lo = mid
        else:
            hi = mid
    probe = day(lo + tolerance)
    binding = "top_oil" if probe.top_oil.max() > spec.top_oil_limit else "hotspot"
    return lo * sum(shape) / 24.0, lo, binding


class TestClusterThresholds:
    @pytest.mark.parametrize("scale_max,tolerance", [(16.0, 0.005), (10.3, 0.0031)])
    def test_batch_equals_scalar_bisection(self, default_spec, scale_max,
                                           tolerance):
        rng = np.random.default_rng(64)
        model = make_model_with_profiles([
            (ClusterProfile(load_kva=tuple(rng.uniform(0.2, 3.0, 24)),
                            ambient_c=tuple(rng.uniform(-25, 30, 24))), 5)
            for _ in range(7)])
        results = cluster_thresholds(default_spec, model, scale_max=scale_max,
                                     tolerance=tolerance)
        for r in results:
            expected = scalar_threshold(default_spec, model.profiles[r.cluster_id],
                                        scale_max, tolerance)
            assert (r.max_avg_load_pu, r.max_peak_load_pu,
                    r.binding_limit) == expected
        assert sorted(r.impact_rank for r in results) == list(range(1, 8))

    def test_first_failing_cluster_in_model_order_raises(self, default_spec):
        fine = (flat_profile(ambient=20.0), 3)
        hot = (flat_profile(ambient=125.0), 3)
        empty = (flat_profile(load_kva=0.0), 3)
        with pytest.raises(NoFeasibleScaleError, match="cluster 2"):
            cluster_thresholds(default_spec,
                               make_model_with_profiles([fine, hot, empty]))
        with pytest.raises(ZeroPeakProfileError, match="cluster 2"):
            cluster_thresholds(default_spec,
                               make_model_with_profiles([fine, empty, hot]))


class TestRankImpact:
    def test_published_ordering(self):
        rows = [ThresholdResult(6, 1.62, 2.19, "top_oil"),
                ThresholdResult(2, 1.70, 2.20, "top_oil"),
                ThresholdResult(3, 1.72, 2.29, "top_oil")]
        ranked = {r.cluster_id: r.impact_rank for r in rank_impact(rows)}
        assert ranked == {6: 1, 2: 2, 3: 3}

    def test_ties_break_by_cluster_id(self):
        rows = [ThresholdResult(3, 1.0, 2.0, "top_oil"),
                ThresholdResult(1, 1.0, 2.0, "top_oil"),
                ThresholdResult(2, 1.0, 2.0, "top_oil")]
        ranked = {r.cluster_id: r.impact_rank for r in rank_impact(rows)}
        assert ranked == {1: 1, 2: 2, 3: 3}

    def test_input_order_invariance(self):
        rows = [ThresholdResult(1, 1.8, 2.52, "top_oil"),
                ThresholdResult(2, 1.7, 2.20, "top_oil"),
                ThresholdResult(3, 1.72, 2.29, "top_oil")]
        forward = rank_impact(rows)
        backward = rank_impact(list(reversed(rows)))
        assert forward == backward
        assert [r.impact_rank for r in forward] == [3, 1, 2]

    def test_ranks_are_permutation(self):
        rng = np.random.default_rng(63)
        rows = [ThresholdResult(i + 1, 1.0, float(rng.uniform(1.5, 3.0)), "top_oil")
                for i in range(8)]
        ranked = rank_impact(rows)
        assert sorted(r.impact_rank for r in ranked) == list(range(1, 9))


class TestMaxServicesByTemperature:
    def test_matches_analytic_service_count(self, default_spec):
        # Constant profile: transformer load is N*p/rated, so the analytic
        # cap is floor(K* * rated / p) with K* from the closed form.
        per_service = 1.7
        model = make_model_with_profiles(
            [(flat_profile(load_kva=per_service, ambient=20.0), 10)])
        grid = service_grid(default_spec, model, range(1, 41))
        expected = math.floor(CLOSED_FORM[20.0] * 25.0 / per_service)
        assert max_services_by_temperature(default_spec, grid) == expected

    def test_grid_monotone_and_max_row(self, default_spec):
        model = make_model_with_profiles([
            (flat_profile(load_kva=1.2, ambient=25.0), 5),
            (flat_profile(load_kva=2.0, ambient=-5.0), 7),
        ])
        grid = service_grid(default_spec, model, range(5, 30))
        assert grid.n_values == tuple(range(5, 30))
        assert grid.cluster_ids == (1, 2)
        for oils in grid.max_top_oil.tolist():
            assert all(b >= a for a, b in zip(oils, oils[1:]))
        # Each cell is the maximum of that cluster's single simulated day.
        for i, cid in enumerate(grid.cluster_ids):
            profile = model.profiles[cid]
            for j, n in enumerate(grid.n_values):
                trace = thermal.simulate_day(
                    default_spec, profile.ambient_c,
                    [n * kva / default_spec.rated_kva for kva in profile.load_kva])
                assert grid.max_top_oil[i, j] == trace.top_oil.max()
                assert grid.max_hotspot[i, j] == trace.hotspot.max()
                assert grid.daily_loss[i, j] == aging.equivalent_aging(
                    [aging.aging_acceleration(t) for t in trace.hotspot.tolist()])

    def test_all_passing_range_returns_top(self, default_spec):
        model = make_model_with_profiles([(flat_profile(load_kva=0.5,
                                                        ambient=10.0), 3)])
        grid = service_grid(default_spec, model, range(1, 6))
        assert max_services_by_temperature(default_spec, grid) == 5

    def test_none_feasible(self, default_spec):
        model = make_model_with_profiles([(flat_profile(load_kva=3.0,
                                                        ambient=30.0), 3)])
        grid = service_grid(default_spec, model, range(30, 41))
        assert max_services_by_temperature(default_spec, grid) is None

    def test_empty_range_is_config_error(self, default_spec):
        model = make_model_with_profiles([(flat_profile(), 3)])
        with pytest.raises(ConfigError):
            service_grid(default_spec, model, range(5, 5))


class TestMaxServicesByLife:
    def test_reference_hotspot_fixture_is_flat_in_n(self, default_spec):
        # Zero load with ambient chosen so the no-load oil rise lands the
        # hotspot exactly on 110 °C: daily loss is 1.0 for every service
        # count.
        ambient = 110.0 - thermal.ultimate_top_oil_rise(default_spec, 0.0)
        model = make_model_with_profiles(
            [(ClusterProfile(load_kva=(0.0,) * 24,
                             ambient_c=(ambient,) * 24), 10)])
        grid = service_grid(default_spec, model, range(1, 6))
        for loss in grid.daily_loss[0].tolist():
            assert loss == pytest.approx(1.0, abs=1e-9)
        els = [loss.economic_loss
               for loss in life_loss_by_n(default_spec, grid, 1.0).values()]
        assert all(el == pytest.approx(els[0]) for el in els)
        assert max_services_by_life(default_spec, grid, 1e9, 1.0) == 5

    def test_zero_peak_profile_rejected_by_threshold_search(self, default_spec):
        profile = ClusterProfile(load_kva=(0.0,) * 24, ambient_c=(20.0,) * 24)
        with pytest.raises(ZeroPeakProfileError):
            loading_threshold(default_spec, profile)

    def test_zero_budget_gives_none(self, default_spec):
        model = make_model_with_profiles([(flat_profile(load_kva=1.5,
                                                        ambient=20.0), 10)])
        grid = service_grid(default_spec, model, range(1, 10))
        assert max_services_by_life(default_spec, grid, annual_budget=0.0,
                                    years=1.0) is None

    def test_totals_follow_member_day_weights(self, default_spec):
        model = make_model_with_profiles([
            (flat_profile(load_kva=1.0, ambient=20.0), 100),
            (flat_profile(load_kva=2.0, ambient=0.0), 50),
        ])
        years = 2.0
        grid = service_grid(default_spec, model, range(10, 13))
        losses = life_loss_by_n(default_spec, grid, years)
        for j, n in enumerate(grid.n_values):
            expected = (grid.daily_loss[0, j] * 100
                        + grid.daily_loss[1, j] * 50)
            assert losses[n].total_days == pytest.approx(expected)
            assert losses[n].annual_days == pytest.approx(expected / years)
            assert losses[n].economic_loss == pytest.approx(
                expected / years / 7500.0 * default_spec.replacement_cost)

    def test_published_budget_rule(self):
        els = {19: 47.4, 20: 126.0, 21: 456.0, 22: 1086.9, 23: 2608.0}
        assert select_max_services(els, 500.0) == 21
        assert select_max_services(els, 100.0) == 19
        assert select_max_services(els, 10.0) is None


class TestProfileToDay:
    def test_per_unit_conversion(self, default_spec):
        # Ten 1.25 kVA services on a 25 kVA rating are a flat 0.5 p.u. day.
        model = make_model_with_profiles([(flat_profile(load_kva=1.25,
                                                        ambient=5.0), 3)])
        expected = thermal.simulate_day(default_spec, np.full(24, 5.0),
                                        np.full(24, 0.5))
        grid = service_grid(default_spec, model, [10])
        assert grid.max_top_oil[0, 0] == expected.top_oil.max()
        assert grid.max_top_oil[0, 0] == pytest.approx(
            5.0 + thermal.ultimate_top_oil_rise(default_spec, 0.5), abs=1e-9)
        temps = cluster_max_top_oil(model, default_spec, 10)
        assert temps == {1: grid.max_top_oil[0, 0]}


class TestLoadCeiling:
    def test_service_count_above_the_ceiling_is_config_error(self, default_spec):
        # 1.5 kVA per service on 25 kVA: 0.06 p.u. each, so 16,666 services
        # pass the ceiling and 16,668 do not.
        model = make_model_with_profiles([(flat_profile(load_kva=1.5), 3)])
        service_grid(default_spec, model, [16_666])
        with pytest.raises(ConfigError, match="16668 services load a cluster"):
            service_grid(default_spec, model, [1, 16_668])
        with pytest.raises(ConfigError, match="16668 services"):
            cluster_max_top_oil(model, default_spec, 16_668)
