"""Thermal model tests.

Reference values are frozen from independent 30-digit evaluation of the
underlying expressions (mpmath), not from the implementation; the periodic
steady state is checked against a 50-digit ``decimal`` evaluation of its
closed form:

    55*(1/5)^0.8          = 15.177026276073363
    55*(17/5)^0.8         = 146.40160001477548
    25*2^1.6              = 75.785828325519904
    55*(1 - e^(-1/3))     = 15.590777918441591
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from txrisk import thermal
from txrisk.errors import ParseError
from txrisk.thermal import (
    DayProfile,
    TransformerSpec,
    check_limits,
    exponential_step,
    load_transformer_spec,
    save_transformer_spec,
    simulate_day,
    simulate_days,
    ultimate_hotspot_rise,
    ultimate_top_oil_rise,
)


def flat_day(ambient=20.0, load=1.0):
    return DayProfile(ambient=(ambient,) * 24, load_pu=(load,) * 24)


def decimal_steady_state(ultimate, time_constant):
    """50-digit periodic steady state of the hourly exponential step
    x_h = x_{h-1} + (u_h - x_{h-1}) a, from the closed form
    x_23 = a sum_i b^(23-i) u_i / (1 - b^24) with b = 1 - a exactly."""
    with localcontext() as ctx:
        ctx.prec = 50
        a = Decimal(1.0 - math.exp(-1.0 / time_constant))
        b = 1 - a
        u = [Decimal(v) for v in ultimate]
        x = a * sum(b ** (23 - i) * u[i] for i in range(24)) / (1 - b ** 24)
        out = []
        for h in range(24):
            x = x + (u[h] - x) * a
            out.append(x)
        return out


class TestUltimateRises:
    def test_top_oil_at_rated_load_is_rated_rise(self, default_spec):
        assert ultimate_top_oil_rise(default_spec, 1.0) == pytest.approx(55.0)

    def test_top_oil_at_zero_load(self, default_spec):
        assert ultimate_top_oil_rise(default_spec, 0.0) == pytest.approx(
            15.177026276073363, abs=1e-9)

    def test_top_oil_at_double_load(self, default_spec):
        assert ultimate_top_oil_rise(default_spec, 2.0) == pytest.approx(
            146.40160001477548, abs=1e-9)

    def test_hotspot_at_rated_load(self, default_spec):
        assert ultimate_hotspot_rise(default_spec, 1.0) == pytest.approx(25.0)

    def test_hotspot_at_zero_load(self, default_spec):
        assert ultimate_hotspot_rise(default_spec, 0.0) == 0.0

    def test_hotspot_at_double_load(self, default_spec):
        assert ultimate_hotspot_rise(default_spec, 2.0) == pytest.approx(
            75.785828325519904, abs=1e-9)


class TestExponentialStep:
    def test_fixed_point_when_initial_equals_ultimate(self):
        assert exponential_step(55.0, 55.0, 3.0, 1.0) == pytest.approx(55.0)

    def test_rise_from_cold(self):
        assert exponential_step(0.0, 55.0, 3.0, 1.0) == pytest.approx(
            15.590777918441591, abs=1e-9)

    def test_huge_time_constant_freezes_state(self):
        assert exponential_step(0.0, 55.0, 1e12, 1.0) == pytest.approx(0.0, abs=1e-6)


class TestSimulateDay:
    @pytest.mark.parametrize("load", [0.5, 1.0, 1.5])
    def test_constant_load_reaches_ultimate_rise_fixed_point(self, default_spec,
                                                             load):
        trace = simulate_day(default_spec, flat_day(ambient=20.0, load=load))
        expected_oil = 20.0 + ultimate_top_oil_rise(default_spec, load)
        expected_hot = expected_oil + ultimate_hotspot_rise(default_spec, load)
        for h in range(24):
            assert trace.top_oil[h] == pytest.approx(expected_oil, abs=1e-9)
            assert trace.hotspot[h] == pytest.approx(expected_hot, abs=1e-9)
        assert trace.iterations == 1

    def test_zero_load_hotspot_equals_top_oil(self, default_spec):
        trace = simulate_day(default_spec, flat_day(ambient=20.0, load=0.0))
        for h in range(24):
            assert trace.hotspot[h] == pytest.approx(trace.top_oil[h])

    def test_assembly_identities_hold_exactly(self, default_spec):
        rng = np.random.default_rng(11)
        day = DayProfile(ambient=tuple(rng.uniform(-20, 30, 24)),
                         load_pu=tuple(rng.uniform(0, 2.5, 24)))
        trace = simulate_day(default_spec, day)
        for h in range(24):
            assert trace.top_oil[h] == day.ambient[h] + trace.top_oil_rise[h]
            assert trace.hotspot[h] == trace.top_oil[h] + trace.hotspot_rise[h]
            if day.load_pu[h] > 0:
                assert trace.hotspot[h] >= trace.top_oil[h]

    def test_one_extra_sweep_reproduces_converged_trace(self, default_spec):
        # Independent re-derivation of one sweep from the converged state
        # using only the scalar transient operations.
        rng = np.random.default_rng(23)
        day = DayProfile(ambient=tuple(rng.uniform(-10, 25, 24)),
                         load_pu=tuple(rng.uniform(0.2, 2.0, 24)))
        trace = simulate_day(default_spec, day)
        prev_oil = trace.top_oil_rise[23]
        prev_hot = trace.hotspot_rise[23]
        for h in range(24):
            prev_oil = exponential_step(
                prev_oil, ultimate_top_oil_rise(default_spec, day.load_pu[h]),
                default_spec.oil_time_constant)
            prev_hot = exponential_step(
                prev_hot, ultimate_hotspot_rise(default_spec, day.load_pu[h]),
                default_spec.winding_time_constant)
            assert prev_oil == pytest.approx(trace.top_oil_rise[h], abs=1e-9)
            assert prev_hot == pytest.approx(trace.hotspot_rise[h], abs=1e-9)

    def test_converged_trace_independent_of_initial_seed(self, default_spec):
        # Repeating the day from a cold and from a warm start, with the
        # scalar step alone, settles on the closed-form trace either way.
        rng = np.random.default_rng(31)
        day = DayProfile(ambient=tuple(rng.uniform(-10, 25, 24)),
                         load_pu=tuple(rng.uniform(0.2, 2.0, 24)))
        trace = simulate_day(default_spec, day)
        for seed_rise in (0.0, 50.0):
            oil = hot = seed_rise
            for _ in range(10):
                for h in range(24):
                    oil = exponential_step(
                        oil, ultimate_top_oil_rise(default_spec, day.load_pu[h]),
                        default_spec.oil_time_constant)
                    hot = exponential_step(
                        hot, ultimate_hotspot_rise(default_spec, day.load_pu[h]),
                        default_spec.winding_time_constant)
            assert oil == pytest.approx(trace.top_oil_rise[23], abs=1e-9)
            assert hot == pytest.approx(trace.hotspot_rise[23], abs=1e-9)

    def test_load_scale_up_never_cools_any_hour(self, default_spec):
        rng = np.random.default_rng(47)
        for _ in range(20):
            ambient = tuple(rng.uniform(-25, 30, 24))
            load = rng.uniform(0.2, 2.0, 24)
            scale = rng.uniform(1.1, 2.0)
            base = simulate_day(default_spec, DayProfile(ambient, tuple(load)))
            more = simulate_day(default_spec, DayProfile(ambient, tuple(scale * load)))
            for h in range(24):
                assert more.top_oil[h] >= base.top_oil[h] - 1e-9
                assert more.hotspot[h] >= base.hotspot[h] - 1e-9

    def test_absurd_oil_time_constant_still_solves_exactly(self):
        slow = TransformerSpec(
            rated_kva=25.0, top_oil_rise_rated=55.0, hotspot_differential=25.0,
            loss_ratio=4.0, oil_time_constant=2000.0, winding_time_constant=0.08)
        trace = simulate_day(slow, flat_day(ambient=20.0, load=1.0))
        for h in range(24):
            assert trace.top_oil[h] == pytest.approx(75.0, abs=1e-9)
            assert trace.hotspot[h] == pytest.approx(100.0, abs=1e-9)


class TestSimulateDays:
    def test_batch_rows_match_single_days_and_decimal_closed_form(self):
        rng = np.random.default_rng(97)
        for _ in range(40):
            spec = TransformerSpec(
                rated_kva=25.0,
                top_oil_rise_rated=float(rng.uniform(40, 65)),
                hotspot_differential=float(rng.uniform(15, 35)),
                loss_ratio=float(rng.uniform(2, 8)),
                oil_time_constant=float(np.exp(rng.uniform(np.log(0.5),
                                                           np.log(1000.0)))),
                winding_time_constant=float(rng.uniform(0.05, 1.0)),
                exponent_n=float(rng.uniform(0.6, 1.0)),
                exponent_m=float(rng.uniform(0.6, 1.0)),
            )
            ambient = rng.uniform(-30, 35, (5, 24))
            load = rng.uniform(0.0, 2.5, (5, 24))
            days = simulate_days(spec, ambient, load)
            for i in range(5):
                day = DayProfile(tuple(ambient[i]), tuple(load[i]))
                single = simulate_day(spec, day)
                assert tuple(days.top_oil[i].tolist()) == single.top_oil
                assert tuple(days.hotspot[i].tolist()) == single.hotspot
                assert tuple(days.top_oil_rise[i].tolist()) == single.top_oil_rise
                assert tuple(days.hotspot_rise[i].tolist()) == single.hotspot_rise

                oil = decimal_steady_state(
                    [ultimate_top_oil_rise(spec, k) for k in day.load_pu],
                    spec.oil_time_constant)
                hot = decimal_steady_state(
                    [ultimate_hotspot_rise(spec, k) for k in day.load_pu],
                    spec.winding_time_constant)
                for h in range(24):
                    exact_top = Decimal(day.ambient[h]) + oil[h]
                    assert abs(Decimal(single.top_oil[h]) - exact_top) <= Decimal("1e-9")
                    assert abs(Decimal(single.hotspot[h])
                               - (exact_top + hot[h])) <= Decimal("1e-9")

    def test_broadcasts_ambient_over_a_load_grid(self, default_spec):
        rng = np.random.default_rng(5)
        ambient = rng.uniform(-10, 30, (3, 1, 24))
        load = rng.uniform(0.0, 2.0, (3, 4, 24))
        days = simulate_days(default_spec, ambient, load)
        assert days.top_oil.shape == (3, 4, 24)
        flat = simulate_days(default_spec,
                             np.broadcast_to(ambient, load.shape).reshape(12, 24),
                             load.reshape(12, 24))
        assert np.array_equal(days.hotspot.reshape(12, 24), flat.hotspot)

    def test_rejects_negative_load_and_wrong_hours(self, default_spec):
        with pytest.raises(ValueError):
            simulate_days(default_spec, np.zeros((1, 24)),
                          np.full((1, 24), -0.1))
        with pytest.raises(ValueError):
            simulate_days(default_spec, np.zeros((1, 23)), np.ones((1, 23)))


class TestCheckLimits:
    def test_within_limits(self, default_spec):
        trace = thermal.ThermalTrace(
            top_oil=(116.0,) * 24, hotspot=(180.0,) * 24,
            top_oil_rise=(0.0,) * 24, hotspot_rise=(0.0,) * 24, iterations=1)
        verdict = check_limits(default_spec, trace)
        assert verdict.within_limits
        assert verdict.worst_top_oil == 116.0
        assert verdict.worst_hotspot == 180.0

    def test_top_oil_violation(self, default_spec):
        trace = thermal.ThermalTrace(
            top_oil=(125.0,) * 24, hotspot=(180.0,) * 24,
            top_oil_rise=(0.0,) * 24, hotspot_rise=(0.0,) * 24, iterations=1)
        verdict = check_limits(default_spec, trace)
        assert not verdict.within_limits
        assert verdict.worst_top_oil == 125.0

    def test_limits_are_inclusive(self, default_spec):
        trace = thermal.ThermalTrace(
            top_oil=(120.0,) * 24, hotspot=(200.0,) * 24,
            top_oil_rise=(0.0,) * 24, hotspot_rise=(0.0,) * 24, iterations=1)
        assert check_limits(default_spec, trace).within_limits


class TestValidation:
    def test_rejects_nonpositive_rating(self):
        with pytest.raises(ValueError):
            TransformerSpec(rated_kva=0, top_oil_rise_rated=55,
                            hotspot_differential=25, loss_ratio=4,
                            oil_time_constant=3, winding_time_constant=0.08)

    def test_rejects_exponent_above_one(self):
        with pytest.raises(ValueError):
            TransformerSpec(rated_kva=25, top_oil_rise_rated=55,
                            hotspot_differential=25, loss_ratio=4,
                            oil_time_constant=3, winding_time_constant=0.08,
                            exponent_n=1.2)

    def test_rejects_limit_ordering(self):
        with pytest.raises(ValueError):
            TransformerSpec(rated_kva=25, top_oil_rise_rated=55,
                            hotspot_differential=25, loss_ratio=4,
                            oil_time_constant=3, winding_time_constant=0.08,
                            top_oil_limit=210.0)

    def test_day_profile_needs_24_hours(self):
        with pytest.raises(ValueError):
            DayProfile(ambient=(20.0,) * 23, load_pu=(1.0,) * 23)

    def test_day_profile_rejects_negative_load(self):
        with pytest.raises(ValueError):
            DayProfile(ambient=(20.0,) * 24, load_pu=(-0.1,) + (1.0,) * 23)


class TestSpecFile:
    def test_roundtrip(self, default_spec, tmp_path):
        path = tmp_path / "spec.json"
        save_transformer_spec(default_spec, path)
        assert load_transformer_spec(path) == default_spec

    def test_missing_optional_fields_take_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"rated_kva": 25, "top_oil_rise_rated_c": 55,'
                        '"hotspot_differential_c": 25, "loss_ratio": 4,'
                        '"oil_time_constant_h": 3, "winding_time_constant_h": 0.08,'
                        '"replacement_cost": 5000}')
        spec = load_transformer_spec(path)
        assert spec.exponent_n == 0.8
        assert spec.exponent_m == 0.8
        assert spec.top_oil_limit == 120.0
        assert spec.hotspot_limit == 200.0

    def test_missing_required_field_is_parse_error(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"rated_kva": 25}')
        with pytest.raises(ParseError):
            load_transformer_spec(path)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_transformer_spec(path)
