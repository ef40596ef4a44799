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
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from txrisk import aging, thermal
from txrisk.errors import ParseError
from txrisk.riskassess import ServiceGrid, max_services_by_temperature
from txrisk.thermal import (
    TransformerSpec,
    exponential_step,
    load_transformer_spec,
    save_transformer_spec,
    simulate_day,
    ultimate_hotspot_rise,
    ultimate_top_oil_rise,
)


def flat_day(ambient=20.0, load=1.0):
    """Ambient and per-unit load arrays of a day held constant."""
    return np.full(24, ambient), np.full(24, load)


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


def bits(values):
    """The IEEE bit patterns of ``values``, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestScalarLibm:
    """``thermal._pow`` and ``aging.aging_acceleration`` give, for every
    element, the bits of scalar Python: ``x ** e`` and ``math.exp``, which
    call the C library's ``pow`` and ``exp`` once per value.

    ``np.power`` and ``np.exp`` are avoided because their results depend
    on the numpy build and on the SIMD kernels it dispatches to on the CPU
    at hand, and differ from the C library in the last bit: on a 2-CPU
    Xeon with numpy 2.4.6, ``np.power(x, 0.8)`` differed on 2,692 and
    ``np.exp`` on 2,404 of 50,000 uniform inputs. Such bits reach the
    thresholds, the temperature and life-loss tables and their golden
    digests, which must not move with the machine
    (``test_golden_digests_across_numpy_dispatch``).
    """

    EXPONENTS = (0.8, 1.6, 0.9, 2.0)

    @pytest.fixture
    def values(self):
        # (k, 24) profiles of per-unit load ratios, as the threshold search
        # and the service grid pass them.
        return np.random.default_rng(2024).uniform(0.0, 3.0, (10, 24))

    @staticmethod
    def scalar_faa(t):
        """The aging factor at ``t`` °C by ``math.exp`` of a float."""
        return math.exp(aging.AGING_RATE_CONSTANT / aging.REFERENCE_HOTSPOT_K
                        - aging.AGING_RATE_CONSTANT / (t + 273.0))

    @staticmethod
    def layouts(values):
        """``values`` and views of it that are not C-contiguous: a strided
        slice, the transpose, and a broadcast of one row."""
        return (values, values[:, ::2], values.T,
                np.broadcast_to(values[:1], (3, 24)))

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_pow_is_scalar_pow_on_any_layout(self, values, exponent):
        for view in self.layouts(values):
            out = thermal._pow(view, exponent)
            assert out.shape == view.shape
            assert (bits(out) == bits([[v ** exponent for v in row]
                                       for row in view.tolist()])).all()

    def test_aging_acceleration_is_math_exp_on_any_layout(self, values):
        for view in self.layouts(60.0 * values - 30.0):
            out = aging.aging_acceleration(view)
            assert out.shape == view.shape
            assert (bits(out) == bits([[self.scalar_faa(t) for t in row]
                                       for row in view.tolist()])).all()

    def test_peak_allocation_is_a_few_copies_of_the_input(self):
        # A (cluster, N) grid of days as the service grid passes it: neither
        # function may build a Python list of the elements, which costs
        # some 8-10 times the array's bytes.
        grid = np.random.default_rng(7).uniform(0.0, 3.0, (10, 150, 24))
        hotspot = 60.0 * grid - 30.0
        for solve in (lambda: thermal._pow(grid, 0.8),
                      lambda: aging.aging_acceleration(hotspot)):
            tracemalloc.start()
            try:
                solve()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 4 * grid.nbytes

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_pow_is_scalar_pow(self, values, exponent):
        out = thermal._pow(values, exponent)
        assert out.shape == values.shape
        assert (bits(out) == bits([[v ** exponent for v in row]
                                   for row in values.tolist()])).all()
        for x in values[0, :4].tolist():
            zero_d = thermal._pow(np.array(x), exponent)
            assert zero_d.shape == ()
            assert bits(zero_d) == bits(x ** exponent)
            assert thermal._pow(x, exponent) == x ** exponent
            assert type(thermal._pow(x, exponent)) is float

    def test_aging_acceleration_is_math_exp(self, values):
        hotspot = 60.0 * values - 30.0  # -30..150 °C
        scalar = self.scalar_faa

        out = aging.aging_acceleration(hotspot)
        assert out.shape == hotspot.shape
        assert (bits(out) == bits([[scalar(t) for t in row]
                                   for row in hotspot.tolist()])).all()
        for t in hotspot[0, :4].tolist():
            assert bits(aging.aging_acceleration(np.array(t))) == bits(scalar(t))
            assert bits(aging.aging_acceleration(t)) == bits(scalar(t))
            assert type(aging.aging_acceleration(t)) is float


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
        assert exponential_step(55.0, 55.0, 3.0) == pytest.approx(55.0)

    def test_rise_from_cold(self):
        assert exponential_step(0.0, 55.0, 3.0) == pytest.approx(
            15.590777918441591, abs=1e-9)

    def test_huge_time_constant_freezes_state(self):
        assert exponential_step(0.0, 55.0, 1e12) == pytest.approx(0.0, abs=1e-6)


class TestSimulateDay:
    @pytest.mark.parametrize("load", [0.5, 1.0, 1.5])
    def test_constant_load_reaches_ultimate_rise_fixed_point(self, default_spec,
                                                             load):
        trace = simulate_day(default_spec, *flat_day(ambient=20.0, load=load))
        expected_oil = 20.0 + ultimate_top_oil_rise(default_spec, load)
        expected_hot = expected_oil + ultimate_hotspot_rise(default_spec, load)
        for h in range(24):
            assert trace.top_oil[h] == pytest.approx(expected_oil, abs=1e-9)
            assert trace.hotspot[h] == pytest.approx(expected_hot, abs=1e-9)
        assert trace.iterations == 1

    def test_zero_load_hotspot_equals_top_oil(self, default_spec):
        trace = simulate_day(default_spec, *flat_day(ambient=20.0, load=0.0))
        assert trace.hotspot == pytest.approx(trace.top_oil)

    def test_assembly_identities_hold_exactly(self, default_spec):
        rng = np.random.default_rng(11)
        ambient = rng.uniform(-20, 30, 24)
        load = rng.uniform(0, 2.5, 24)
        trace = simulate_day(default_spec, ambient, load)
        assert np.array_equal(trace.top_oil, ambient + trace.top_oil_rise)
        assert np.array_equal(trace.hotspot, trace.top_oil + trace.hotspot_rise)
        loaded = load > 0
        assert np.all(trace.hotspot[loaded] >= trace.top_oil[loaded])

    def test_one_extra_sweep_reproduces_converged_trace(self, default_spec):
        # Independent re-derivation of one sweep from the converged state
        # using only the scalar transient operations.
        rng = np.random.default_rng(23)
        ambient = rng.uniform(-10, 25, 24)
        load = rng.uniform(0.2, 2.0, 24)
        trace = simulate_day(default_spec, ambient, load)
        prev_oil = float(trace.top_oil_rise[23])
        prev_hot = float(trace.hotspot_rise[23])
        for h, k in enumerate(load.tolist()):
            prev_oil = exponential_step(
                prev_oil, ultimate_top_oil_rise(default_spec, k),
                default_spec.oil_time_constant)
            prev_hot = exponential_step(
                prev_hot, ultimate_hotspot_rise(default_spec, k),
                default_spec.winding_time_constant)
            assert prev_oil == pytest.approx(trace.top_oil_rise[h], abs=1e-9)
            assert prev_hot == pytest.approx(trace.hotspot_rise[h], abs=1e-9)

    def test_converged_trace_independent_of_initial_seed(self, default_spec):
        # Repeating the day from a cold and from a warm start, with the
        # scalar step alone, settles on the closed-form trace either way.
        rng = np.random.default_rng(31)
        ambient = rng.uniform(-10, 25, 24)
        load = rng.uniform(0.2, 2.0, 24)
        trace = simulate_day(default_spec, ambient, load)
        for seed_rise in (0.0, 50.0):
            oil = hot = seed_rise
            for _ in range(10):
                for k in load.tolist():
                    oil = exponential_step(
                        oil, ultimate_top_oil_rise(default_spec, k),
                        default_spec.oil_time_constant)
                    hot = exponential_step(
                        hot, ultimate_hotspot_rise(default_spec, k),
                        default_spec.winding_time_constant)
            assert oil == pytest.approx(trace.top_oil_rise[23], abs=1e-9)
            assert hot == pytest.approx(trace.hotspot_rise[23], abs=1e-9)

    def test_load_scale_up_never_cools_any_hour(self, default_spec):
        rng = np.random.default_rng(47)
        for _ in range(20):
            ambient = rng.uniform(-25, 30, 24)
            load = rng.uniform(0.2, 2.0, 24)
            scale = rng.uniform(1.1, 2.0)
            base = simulate_day(default_spec, ambient, load)
            more = simulate_day(default_spec, ambient, scale * load)
            assert np.all(more.top_oil >= base.top_oil - 1e-9)
            assert np.all(more.hotspot >= base.hotspot - 1e-9)

    def test_absurd_oil_time_constant_still_solves_exactly(self):
        slow = TransformerSpec(
            rated_kva=25.0, top_oil_rise_rated=55.0, hotspot_differential=25.0,
            loss_ratio=4.0, oil_time_constant=2000.0, winding_time_constant=0.08)
        trace = simulate_day(slow, *flat_day(ambient=20.0, load=1.0))
        assert trace.top_oil == pytest.approx(np.full(24, 75.0), abs=1e-9)
        assert trace.hotspot == pytest.approx(np.full(24, 100.0), abs=1e-9)


class TestSimulateDays:
    def test_batch_rows_match_single_days_and_decimal_closed_form(self):
        rng = np.random.default_rng(97)
        grid_rng = np.random.default_rng(98)
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
            days = simulate_day(spec, ambient, load)
            for i in range(5):
                single = simulate_day(spec, ambient[i], load[i])
                assert np.array_equal(days.top_oil[i], single.top_oil)
                assert np.array_equal(days.hotspot[i], single.hotspot)
                assert np.array_equal(days.top_oil_rise[i], single.top_oil_rise)
                assert np.array_equal(days.hotspot_rise[i], single.hotspot_rise)

                oil = decimal_steady_state(
                    [ultimate_top_oil_rise(spec, k) for k in load[i].tolist()],
                    spec.oil_time_constant)
                hot = decimal_steady_state(
                    [ultimate_hotspot_rise(spec, k) for k in load[i].tolist()],
                    spec.winding_time_constant)
                for h in range(24):
                    exact_top = Decimal(ambient[i, h]) + oil[h]
                    assert abs(Decimal(single.top_oil[h]) - exact_top) <= Decimal("1e-9")
                    assert abs(Decimal(single.hotspot[h])
                               - (exact_top + hot[h])) <= Decimal("1e-9")

            # A (cluster, N) grid as the service grid solves it: (k, N, 24)
            # loads against (k, 1, 24) ambients.
            grid_ambient = ambient[:2, None, :]
            grid_load = grid_rng.uniform(0.0, 2.5, (2, 3, 24))
            grid = simulate_day(spec, grid_ambient, grid_load)
            assert grid.top_oil.shape == (2, 3, 24)
            for i, j in np.ndindex(2, 3):
                single = simulate_day(spec, grid_ambient[i, 0], grid_load[i, j])
                for field in ("top_oil", "hotspot", "top_oil_rise",
                              "hotspot_rise"):
                    assert (bits(getattr(grid, field)[i, j])
                            == bits(getattr(single, field))).all()

    def test_broadcasts_ambient_over_a_load_grid(self, default_spec):
        rng = np.random.default_rng(5)
        ambient = rng.uniform(-10, 30, (3, 1, 24))
        load = rng.uniform(0.0, 2.0, (3, 4, 24))
        days = simulate_day(default_spec, ambient, load)
        assert days.top_oil.shape == (3, 4, 24)
        flat = simulate_day(default_spec,
                             np.broadcast_to(ambient, load.shape).reshape(12, 24),
                             load.reshape(12, 24))
        assert np.array_equal(days.hotspot.reshape(12, 24), flat.hotspot)

    def test_rejects_negative_load_and_wrong_hours(self, default_spec):
        bad_days = [
            (np.zeros((1, 24)), np.full((1, 24), -0.1)),
            (np.full(24, 20.0), np.full(24, np.nan)),
            (np.zeros(24), np.full(24, 2.0 * thermal.MAX_LOAD_PU)),
            (np.zeros((1, 23)), np.ones((1, 23))),
        ]
        for ambient, load in bad_days:
            with pytest.raises(ValueError):
                simulate_day(default_spec, ambient, load)

    def test_load_at_the_ceiling_stays_finite(self):
        # The steepest exponents the spec allows, at the highest load the
        # model accepts: every temperature and aging factor is finite.
        steep = TransformerSpec(
            rated_kva=25.0, top_oil_rise_rated=65.0, hotspot_differential=35.0,
            loss_ratio=8.0, oil_time_constant=3.0, winding_time_constant=0.08,
            exponent_n=1.0, exponent_m=1.0)
        trace = simulate_day(steep, np.full(24, 40.0),
                             np.full(24, thermal.MAX_LOAD_PU))
        assert np.all(np.isfinite(trace.hotspot))
        assert np.all(np.isfinite(aging.aging_acceleration(trace.hotspot)))

    def test_spec_at_its_ceilings_stays_finite(self):
        # Rated rises and loss ratio at their ceilings, with the steepest
        # exponents and the highest load: nothing overflows.
        extreme = TransformerSpec(
            rated_kva=25.0, top_oil_rise_rated=thermal.MAX_RATED_RISE_C,
            hotspot_differential=thermal.MAX_RATED_RISE_C,
            loss_ratio=thermal.MAX_LOSS_RATIO, oil_time_constant=3.0,
            winding_time_constant=0.08, exponent_n=1.0, exponent_m=1.0)
        trace = simulate_day(extreme, np.full(24, 40.0),
                             np.full(24, thermal.MAX_LOAD_PU))
        assert np.all(np.isfinite(trace.hotspot))
        assert np.all(np.isfinite(aging.aging_acceleration(trace.hotspot)))
        for name in ("top_oil_rise_rated", "hotspot_differential", "loss_ratio"):
            with pytest.raises(ValueError, match=name):
                TransformerSpec(**dict(vars(extreme), **{name: 1e308}))


def one_cell_grid(max_top_oil, max_hotspot):
    """A one-cluster, one-N service grid with the given day maxima."""
    return ServiceGrid(n_values=(1,), member_counts=np.ones(1),
                       max_top_oil=np.array([[max_top_oil]]),
                       max_hotspot=np.array([[max_hotspot]]),
                       daily_loss=np.array([[1.0]]))


class TestCheckLimits:
    def test_within_limits(self, default_spec):
        grid = one_cell_grid(116.0, 180.0)
        assert max_services_by_temperature(default_spec, grid) == 1

    def test_top_oil_violation(self, default_spec):
        assert max_services_by_temperature(
            default_spec, one_cell_grid(125.0, 180.0)) is None
        assert max_services_by_temperature(
            default_spec, one_cell_grid(116.0, 201.0)) is None

    def test_limits_are_inclusive(self, default_spec):
        assert max_services_by_temperature(
            default_spec, one_cell_grid(120.0, 200.0)) == 1


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

    def test_day_profile_needs_24_hours(self, default_spec):
        with pytest.raises(ValueError):
            simulate_day(default_spec, np.full(23, 20.0), np.ones(23))

    def test_day_profile_rejects_negative_load(self, default_spec):
        with pytest.raises(ValueError):
            simulate_day(default_spec, np.full(24, 20.0),
                         np.array([-0.1] + [1.0] * 23))


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
