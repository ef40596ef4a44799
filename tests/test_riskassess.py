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
from dataclasses import replace

import numpy as np
import pytest

from txrisk import aging, thermal
from txrisk.errors import (
    ConfigError,
    NoFeasibleScaleError,
    ParseError,
    ZeroPeakProfileError,
)
from txrisk.estimation import cluster_max_top_oil
from txrisk.riskassess import (
    SCALE_START,
    SCALE_TOL,
    cluster_thresholds,
    life_loss_by_n,
    max_services_by_life,
    max_services_by_temperature,
    service_grid,
)

from conftest import make_model_with_profiles

CLOSED_FORM = {0.0: 1.750604437143877, 10.0: 1.650156897845415,
               20.0: 1.545672956497188}


def flat_profile(load_kva=1.5, ambient=20.0):
    """A ``(load_kva, ambient_c)`` profile constant over the day."""
    return (load_kva,) * 24, (ambient,) * 24


def random_profile(rng, load=(0.5, 3.0), ambient=(-25, 30)):
    return tuple(rng.uniform(*load, 24)), tuple(rng.uniform(*ambient, 24))


def single_threshold(spec, profile):
    """The thresholds of ``profile`` as the one cluster of a model: each
    field's one entry."""
    result = cluster_thresholds(spec, make_model_with_profiles([(profile, 1)]))
    return {name: column[0] for name, column in vars(result).items()}


def within_limits(spec, load_kva, ambient_c, scale):
    """Whether one profile's day, its peak scaled to ``scale`` p.u., stays
    within both limits."""
    peak = max(load_kva)
    trace = thermal.simulate_day(spec, ambient_c,
                                 [scale * v / peak for v in load_kva])
    return (trace.top_oil.max() <= spec.top_oil_limit
            and trace.hotspot.max() <= spec.hotspot_limit)


class TestLoadingThreshold:
    @pytest.mark.parametrize("ambient", [0.0, 10.0, 20.0])
    def test_constant_profile_matches_closed_form(self, default_spec, ambient):
        result = single_threshold(default_spec, flat_profile(ambient=ambient))
        assert result["max_peak_load_pu"] == pytest.approx(
            CLOSED_FORM[ambient], abs=0.01)
        # Constant shape: the 24-h average equals the peak.
        assert result["max_avg_load_pu"] == pytest.approx(
            result["max_peak_load_pu"])
        assert result["binding_limit"] == "top_oil"

    def test_certification(self, default_spec):
        rng = np.random.default_rng(61)
        for _ in range(10):
            profile = random_profile(rng)
            s = single_threshold(default_spec, profile)["max_peak_load_pu"]
            assert within_limits(default_spec, *profile, s)
            assert not within_limits(default_spec, *profile, s + SCALE_TOL)

    def test_certified_above_the_first_bound(self, default_spec):
        # Limits far past any real transformer, so every peak up to the
        # first search bound passes: the bound doubles until one fails.
        spec = replace(default_spec, top_oil_limit=5000.0, hotspot_limit=1e5)
        rng = np.random.default_rng(65)
        profiles = [random_profile(rng) for _ in range(5)]
        result = cluster_thresholds(spec, make_model_with_profiles(
            [(profile, 1) for profile in profiles]))
        for profile, s in zip(profiles, result.max_peak_load_pu.tolist()):
            assert s > SCALE_START
            assert within_limits(spec, *profile, s)
            assert not within_limits(spec, *profile, s + SCALE_TOL)

    def test_certified_at_the_load_ceiling(self, default_spec):
        # A top-oil limit that a constant day reaches at 999.999 p.u.: the
        # search ends within SCALE_TOL below the ceiling, so the probe
        # above the threshold is taken at the ceiling.
        limit = 20.0 + 55.0 * ((999.999 ** 2 * 4.0 + 1.0) / 5.0) ** 0.8
        spec = replace(default_spec, top_oil_limit=limit, hotspot_limit=1e9)
        result = single_threshold(spec, flat_profile(ambient=20.0))
        s = result["max_peak_load_pu"]
        assert thermal.MAX_LOAD_PU - SCALE_TOL < s < 999.999
        assert result["binding_limit"] == "top_oil"
        assert within_limits(spec, *flat_profile(ambient=20.0), s)
        assert not within_limits(spec, *flat_profile(ambient=20.0),
                                 thermal.MAX_LOAD_PU)

    def test_limits_not_reached_at_the_load_ceiling(self, default_spec):
        # A day at 1000 p.u. in its last hour only stays below a top-oil
        # limit of 1e6 °C, which a flat day reaches near 500 p.u.
        spec = replace(default_spec, top_oil_limit=1e6, hotspot_limit=1e9)
        peaky = ((0.0,) * 23 + (1.5,), (20.0,) * 24)
        with pytest.raises(ParseError, match="cluster 2: limits not reached "
                           "at the 1000 p.u. load ceiling"):
            cluster_thresholds(spec, make_model_with_profiles(
                [(flat_profile(), 1), (peaky, 1), (peaky, 2)]))

    def test_peak_is_at_least_average(self, default_spec):
        rng = np.random.default_rng(62)
        result = single_threshold(default_spec,
                                  random_profile(rng, ambient=(-10, 25)))
        assert result["max_peak_load_pu"] >= result["max_avg_load_pu"]

    def test_cooler_ambient_raises_threshold(self, default_spec):
        warm = single_threshold(default_spec, flat_profile(ambient=20.0))
        cool = single_threshold(default_spec, flat_profile(ambient=10.0))
        assert cool["max_peak_load_pu"] > warm["max_peak_load_pu"]

    def test_ambient_above_limit_is_infeasible(self, default_spec):
        # A profile's ambient lies within the weather range, -60..60 °C.
        spec = replace(default_spec, top_oil_limit=50.0)
        with pytest.raises(NoFeasibleScaleError):
            single_threshold(spec, flat_profile(ambient=55.0))

    def test_hotspot_can_bind(self):
        # Enormous hotspot differential with a tight hotspot limit makes the
        # winding limit bind before the oil limit.
        spec = thermal.TransformerSpec(
            rated_kva=25.0, top_oil_rise_rated=30.0, hotspot_differential=60.0,
            loss_ratio=4.0, oil_time_constant=3.0, winding_time_constant=0.08,
            top_oil_limit=120.0, hotspot_limit=150.0)
        result = single_threshold(spec, flat_profile(ambient=20.0))
        assert result["binding_limit"] == "hotspot"


def scalar_threshold(spec, load_kva, ambient_c):
    """Reference: the one-cluster search over single simulated days."""
    peak = max(load_kva)
    shape = [v / peak for v in load_kva]

    def day(scale):
        return thermal.simulate_day(spec, ambient_c,
                                    [scale * s for s in shape])

    def within(scale):
        trace = day(scale)
        return (trace.top_oil.max() <= spec.top_oil_limit
                and trace.hotspot.max() <= spec.hotspot_limit)

    lo, hi = 0.0, SCALE_START
    while within(hi):
        assert hi < thermal.MAX_LOAD_PU
        hi = min(2 * hi, thermal.MAX_LOAD_PU)
    while hi - lo > SCALE_TOL:
        mid = 0.5 * (lo + hi)
        if within(mid):
            lo = mid
        else:
            hi = mid
    probe = day(min(lo + SCALE_TOL, thermal.MAX_LOAD_PU))
    binding = "top_oil" if probe.top_oil.max() > spec.top_oil_limit else "hotspot"
    return lo * sum(shape) / 24.0, lo, binding


class TestClusterThresholds:
    # At a top-oil limit of 2400 °C, four of the seven clusters pass at
    # the first bound, 16 p.u., and three do not.
    @pytest.mark.parametrize("limits", [{}, {"top_oil_limit": 2400.0,
                                             "hotspot_limit": 1e5}],
                             ids=["defaults", "bound doubled for some"])
    def test_batch_equals_scalar_bisection(self, default_spec, limits):
        spec = replace(default_spec, **limits)
        rng = np.random.default_rng(64)
        model = make_model_with_profiles([
            (random_profile(rng, load=(0.2, 3.0)), 5) for _ in range(7)])
        result = cluster_thresholds(spec, model)
        load_kva, ambient_c = model.profiles
        expected = [scalar_threshold(spec, load, ambient) for load, ambient
                    in zip(load_kva.tolist(), ambient_c.tolist())]
        assert list(zip(result.max_avg_load_pu.tolist(),
                        result.max_peak_load_pu.tolist(),
                        result.binding_limit.tolist())) == expected
        if limits:
            assert 0 < (result.max_peak_load_pu > SCALE_START).sum() < 7
        assert sorted(result.impact_rank.tolist()) == list(range(1, 8))

    def test_first_failing_cluster_in_model_order_raises(self, default_spec):
        spec = replace(default_spec, top_oil_limit=50.0)
        fine = (flat_profile(ambient=20.0), 3)
        hot = (flat_profile(ambient=55.0), 3)
        empty = (flat_profile(load_kva=0.0), 3)
        with pytest.raises(NoFeasibleScaleError, match="cluster 2"):
            cluster_thresholds(spec,
                               make_model_with_profiles([fine, hot, empty]))
        with pytest.raises(ZeroPeakProfileError, match="cluster 2"):
            cluster_thresholds(spec,
                               make_model_with_profiles([fine, empty, hot]))


class TestRankImpact:
    """Impact ranks from models whose day shapes differ or tie: at a flat
    load, a warmer day tolerates a lower peak."""

    def test_published_ordering(self, default_spec):
        ambients = [0.0, 25.0, 20.0, 5.0, 10.0, 30.0]
        result = cluster_thresholds(default_spec, make_model_with_profiles(
            [(flat_profile(ambient=a), 3) for a in ambients]))
        assert result.impact_rank.tolist() == [6, 2, 3, 5, 4, 1]

    def test_ties_break_by_cluster_id(self, default_spec):
        warm, cool = flat_profile(ambient=20.0), flat_profile(ambient=10.0)
        result = cluster_thresholds(default_spec, make_model_with_profiles(
            [(cool, 3), (warm, 1), (cool, 2), (warm, 5)]))
        peaks = result.max_peak_load_pu
        assert peaks[0] == peaks[2] and peaks[1] == peaks[3]
        assert result.impact_rank.tolist() == [3, 1, 4, 2]

    def test_ranks_are_permutation(self, default_spec):
        rng = np.random.default_rng(63)
        result = cluster_thresholds(default_spec, make_model_with_profiles(
            [(random_profile(rng), 2) for _ in range(8)]))
        rank = result.impact_rank.tolist()
        assert sorted(rank) == list(range(1, 9))
        by_rank = sorted(range(8), key=rank.__getitem__)
        peaks = result.max_peak_load_pu[by_rank]
        assert (np.diff(peaks) >= 0).all()


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
        assert grid.max_top_oil.shape == (2, len(grid.n_values))
        for oils in grid.max_top_oil.tolist():
            assert all(b >= a for a, b in zip(oils, oils[1:]))
        # Each cell is the maximum of that cluster's single simulated day.
        for i, (load_kva, ambient_c) in enumerate(zip(*model.profiles)):
            for j, n in enumerate(grid.n_values):
                trace = thermal.simulate_day(
                    default_spec, ambient_c,
                    [n * kva / default_spec.rated_kva for kva in load_kva.tolist()])
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
        # count. The rated rise is raised so that the ambient lies within
        # the weather range.
        spec = replace(default_spec, top_oil_rise_rated=200.0)
        ambient = 110.0 - thermal.ultimate_top_oil_rise(spec, 0.0)
        assert 50.0 < ambient < 60.0
        model = make_model_with_profiles(
            [(flat_profile(load_kva=0.0, ambient=ambient), 10)])
        grid = service_grid(spec, model, range(1, 6))
        for loss in grid.daily_loss[0].tolist():
            assert loss == pytest.approx(1.0, abs=1e-9)
        els = life_loss_by_n(spec, grid, 1.0).economic_loss.tolist()
        assert all(el == pytest.approx(els[0]) for el in els)
        assert max_services_by_life(grid.n_values, els, 1e9) == 5

    def test_zero_peak_profile_rejected_by_threshold_search(self, default_spec):
        with pytest.raises(ZeroPeakProfileError):
            single_threshold(default_spec, flat_profile(load_kva=0.0))

    def test_zero_budget_gives_none(self, default_spec):
        model = make_model_with_profiles([(flat_profile(load_kva=1.5,
                                                        ambient=20.0), 10)])
        grid = service_grid(default_spec, model, range(1, 10))
        losses = life_loss_by_n(default_spec, grid, years=1.0)
        assert max_services_by_life(grid.n_values, losses.economic_loss,
                                    annual_budget=0.0) is None

    def test_totals_follow_member_day_weights(self, default_spec):
        model = make_model_with_profiles([
            (flat_profile(load_kva=1.0, ambient=20.0), 100),
            (flat_profile(load_kva=2.0, ambient=0.0), 50),
        ])
        years = 2.0
        grid = service_grid(default_spec, model, range(10, 13))
        losses = life_loss_by_n(default_spec, grid, years)
        for j in range(len(grid.n_values)):
            expected = (grid.daily_loss[0, j] * 100
                        + grid.daily_loss[1, j] * 50)
            assert losses.total_days[j] == pytest.approx(expected)
            assert losses.annual_days[j] == pytest.approx(expected / years)
            assert losses.economic_loss[j] == pytest.approx(
                expected / years / 7500.0 * default_spec.replacement_cost)

    def test_published_budget_rule(self):
        n_values = (19, 20, 21, 22, 23)
        els = (47.4, 126.0, 456.0, 1086.9, 2608.0)
        assert max_services_by_life(n_values, els, 500.0) == 21
        assert max_services_by_life(n_values, els, 100.0) == 19
        assert max_services_by_life(n_values, els, 10.0) is None


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
