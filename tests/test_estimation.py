"""Inverse-distance estimation tests."""

import csv
import datetime as dt
import io
import math
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from txrisk import cli, clustering, estimation, features as ft, ingest, thermal
from txrisk.errors import (
    FarFromAllClustersError,
    FarQueryWarning,
    MissingFeatureWarning,
    ParseError,
    SchemaMismatchError,
    ZeroServicesError,
)
from txrisk.estimation import (
    CHUNK_ROWS,
    QUERY_HEADER,
    avg_load_from_energy,
    cluster_max_top_oil,
    estimate,
    estimate_csv,
    estimate_day_temperature,
    read_query_csv,
    write_estimates_csv,
)

from conftest import (
    QUERY_CSV,
    field_end_at_block_cut,
    make_day,
    make_model,
    per_row_reads,
    record_table,
    refuse_blocks,
)
from test_mutation import SEED, _csv_mutation


class TestEstimate:
    def test_query_on_centroid_returns_exact_value(self):
        model = make_model([{"x": 0.2}, {"x": 0.8}])
        result = estimate(make_day(x=0.2), model, {1: 100.0, 2: 200.0})
        assert result.estimate[0] == 100.0
        assert result.weights[0].tolist() == [1.0, 0.0]
        assert not result.far_flag[0]

    def test_equidistant_two_clusters(self):
        model = make_model([{"x": 0.2}, {"x": 0.8}])
        result = estimate(make_day(x=0.5), model, {1: 100.0, 2: 120.0})
        assert result.estimate[0] == pytest.approx(110.0)
        assert result.weights[0, 0] == pytest.approx(0.5)
        assert result.weights[0, 1] == pytest.approx(0.5)

    def test_hand_weighted_three_clusters(self):
        # Feature weight 25 turns the in-[0,1] geometry into dissimilarities
        # of exactly {1, 2, 2}: weights {1/2, 1/4, 1/4} by hand.
        schema = ft.FeatureSchema(features=(
            ft.FeatureDef("x", ft.KIND_NUMERIC, weight=25.0),))
        off = math.sqrt(0.08)
        model = make_model([{"x": 0.5}, {"x": 0.7 - off}, {"x": 0.7 + off}],
                           values_schema=schema)
        result = estimate(make_day(x=0.7), model,
                          {1: 100.0, 2: 110.0, 3: 120.0})
        assert result.distances[0, 0] == pytest.approx(1.0)
        assert result.distances[0, 1] == pytest.approx(2.0)
        assert result.distances[0, 2] == pytest.approx(2.0)
        assert result.estimate[0] == pytest.approx(107.5)

    def test_weights_sum_to_one_and_estimate_bounded(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            model = make_model([{"x": float(rng.uniform(0, 1)),
                                 "y": float(rng.uniform(0, 1))}
                                for _ in range(k)])
            values = {i + 1: float(rng.uniform(50, 150)) for i in range(k)}
            query = make_day(x=float(rng.uniform(0, 1)),
                             y=float(rng.uniform(0, 1)))
            result = estimate(query, model, values)
            assert result.weights.sum(axis=1)[0] == pytest.approx(1.0, abs=1e-9)
            assert min(values.values()) - 1e-9 <= result.estimate[0] \
                <= max(values.values()) + 1e-9

    def test_missing_cluster_value_raises(self):
        model = make_model([{"x": 0.2}, {"x": 0.8}])
        with pytest.raises(KeyError):
            estimate(make_day(x=0.5), model, {1: 100.0})

    def test_near_zero_distance_takes_shortcut(self):
        model = make_model([{"x": 0.2}, {"x": 0.8}])
        result = estimate(make_day(x=0.2 + 1e-6), model, {1: 100.0, 2: 200.0})
        # (1e-6)^2 = 1e-12 < the shortcut epsilon: exact cluster-1 value.
        assert result.estimate[0] == 100.0
        assert result.weights[0].tolist() == [1.0, 0.0]

    def test_coincident_centroids_pick_lowest_id(self):
        model = make_model([{"x": 0.5}, {"x": 0.5}])
        result = estimate(make_day(x=0.5), model, {1: 100.0, 2: 200.0})
        assert result.estimate[0] == 100.0

    def test_missing_query_feature_warns_and_uses_subset(self):
        model = make_model([{"x": 0.2, "y": 0.9}, {"x": 0.8, "y": 0.9}])
        with pytest.warns(MissingFeatureWarning):
            result = estimate(make_day(x=0.2), model, {1: 100.0, 2: 200.0})
        # Distance falls back to the x axis alone: exact hit on cluster 1.
        assert result.estimate[0] == 100.0

    def test_query_with_no_model_feature_is_refused(self):
        # With every feature missing, each distance would be 0: an exact hit
        # on cluster 1 that no far guard can flag.
        model = make_model([{"x": 0.2, "y": 0.9}, {"x": 0.8, "y": 0.9}],
                           far_threshold=0.01)
        table = record_table(x=[0.2, math.nan, math.nan],
                             y=[math.nan, math.nan, math.nan])
        for strict in (False, True):
            with pytest.raises(SchemaMismatchError,
                               match=r"2 of 3 queries lack every model feature"):
                estimate(table, model, {1: 100.0, 2: 200.0}, strict=strict)


class TestFarGuard:
    def test_far_query_flagged_lenient(self):
        model = make_model([{"x": 0.1}, {"x": 0.2}], far_threshold=0.01)
        with pytest.warns(FarQueryWarning):
            result = estimate(make_day(x=0.9), model, {1: 10.0, 2: 20.0})
        assert result.far_flag[0]

    def test_far_query_strict_raises(self):
        model = make_model([{"x": 0.1}, {"x": 0.2}], far_threshold=0.01)
        with pytest.raises(FarFromAllClustersError):
            estimate(make_day(x=0.9), model, {1: 10.0, 2: 20.0}, strict=True)

    def test_near_query_not_flagged(self):
        model = make_model([{"x": 0.1}, {"x": 0.2}], far_threshold=0.01)
        result = estimate(make_day(x=0.15), model, {1: 10.0, 2: 20.0})
        assert not result.far_flag[0]

    def test_zero_threshold_disables_guard(self):
        model = make_model([{"x": 0.1}, {"x": 0.2}], far_threshold=0.0)
        result = estimate(make_day(x=0.9), model, {1: 10.0, 2: 20.0})
        assert not result.far_flag[0]


class TestAvgLoadFromEnergy:
    def test_single_service_day(self):
        assert avg_load_from_energy([24.0], 1) == pytest.approx(1.0)

    def test_ten_services(self):
        assert avg_load_from_energy([24.0] * 10, 10) == pytest.approx(1.0)

    def test_all_zero(self):
        assert avg_load_from_energy([0.0, 0.0], 2) == 0.0

    def test_linear_in_total_energy(self):
        base = avg_load_from_energy([12.0, 36.0], 2)
        assert avg_load_from_energy([24.0, 72.0], 2) == pytest.approx(2 * base)

    def test_zero_services(self):
        with pytest.raises(ZeroServicesError):
            avg_load_from_energy([], 0)

    def test_reading_count_mismatch(self):
        with pytest.raises(ValueError):
            avg_load_from_energy([24.0, 12.0], 3)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            avg_load_from_energy([24.0, -1.0], 2)


def seasonal_model(default_spec):
    """Two clusters whose higher-load profile yields higher temperatures."""
    schema = ft.FeatureSchema(features=(
        ft.FeatureDef("l_avg_kva", ft.KIND_NUMERIC),))
    model = make_model([{"l_avg_kva": 0.2}, {"l_avg_kva": 0.8}],
                       values_schema=schema)
    profiles = (np.array([[0.8] * 24, [2.4] * 24]), np.full((2, 24), 10.0))
    return replace(model, profiles=profiles)


class TestDayTemperature:
    def test_centroid_day_returns_cluster_temperature(self, default_spec):
        model = seasonal_model(default_spec)
        temps = cluster_max_top_oil(model, default_spec, 10)
        result = estimate_day_temperature(
            make_day(l_avg_kva=0.2), model, 10, default_spec, temps)
        assert result.estimate == pytest.approx(temps[1])

    def test_higher_load_cluster_is_hotter(self, default_spec):
        model = seasonal_model(default_spec)
        temps = cluster_max_top_oil(model, default_spec, 10)
        assert temps[2] > temps[1]

    def test_raising_l_avg_never_cools_estimate(self, default_spec):
        # Inverse-distance weights are monotone along the load axis between
        # the extreme centroids (outside that span they pull back toward
        # the nearest centroid's exact value), so the sweep stays inside.
        model = seasonal_model(default_spec)
        temps = cluster_max_top_oil(model, default_spec, 10)
        estimates = [
            estimate_day_temperature(make_day(l_avg_kva=v), model, 10,
                                     default_spec, temps).estimate
            for v in np.linspace(0.2, 0.8, 21)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(estimates, estimates[1:]))

    def test_precomputed_table_matches_default_path(self, default_spec):
        model = seasonal_model(default_spec)
        a = estimate_day_temperature(make_day(l_avg_kva=0.4), model, 10,
                                     default_spec)
        temps = cluster_max_top_oil(model, default_spec, 10)
        b = estimate_day_temperature(make_day(l_avg_kva=0.4), model, 10,
                                     default_spec, temps)
        assert a.estimate == b.estimate


class TestQueryFiles:
    CSV = ("date,t_max_c,t_min_c,t_avg_c,l_avg_kva,weekday\n"
           "2016-06-06,21.53,8.12,14.20,0.97,Y\n"
           "2016-06-07,22.73,12.62,14.62,0.98,N\n")

    def test_read_query(self, tmp_path):
        path = tmp_path / "query.csv"
        path.write_text(self.CSV)
        queries = read_query_csv(path)
        assert queries.dtype == estimation.QUERY_DTYPE
        assert queries["date"].tolist() == ["2016-06-06", "2016-06-07"]
        assert queries["t_max_c"].tolist() == [21.53, 22.73]
        assert queries["weekday"].tolist() == ["Y", "N"]

    def test_header_only_is_an_empty_table(self, tmp_path):
        path = tmp_path / "query.csv"
        path.write_text(self.CSV.splitlines()[0] + "\n")
        assert len(read_query_csv(path)) == 0

    def test_bad_header(self, tmp_path):
        path = tmp_path / "query.csv"
        path.write_text("date,tmax\n2016-06-06,1\n")
        from txrisk.errors import ParseError
        with pytest.raises(ParseError):
            read_query_csv(path)

    def test_bad_weekday_flag(self, tmp_path):
        path = tmp_path / "query.csv"
        path.write_text(self.CSV.replace(",N\n", ",weekend\n"))
        from txrisk.errors import ParseError
        with pytest.raises(ParseError):
            read_query_csv(path)

    def test_write_estimates_shape(self, tmp_path):
        path = tmp_path / "query.csv"
        path.write_text(self.CSV)
        queries = read_query_csv(path)
        result = estimation.EstimationResult(
            estimate=np.array([87.4, 88.4]), far_flag=np.array([False, True]),
            distances=np.array([[0.1], [0.2]]), weights=np.ones((2, 1)))
        out = tmp_path / "estimates.csv"
        write_estimates_csv(queries, result, out)
        lines = out.read_text().splitlines()
        assert lines[0] == ("date,t_max_c,t_min_c,t_avg_c,l_avg_kva,weekday,"
                            "estimated_max_top_oil_c,far_flag")
        assert lines[1].endswith("87.4,N")
        assert lines[2].endswith("88.4,Y")


def query_outcome(read, path):
    """What ``read(path)`` gives: the table's bytes, dtype and shape, or the
    ParseError's text, row and column."""
    try:
        table = read(path)
    except ParseError as exc:
        return {"error": (str(exc), exc.row, exc.column)}
    return {"bytes": table.tobytes(), "dtype": table.dtype,
            "shape": table.shape}


def both_query_paths(path):
    """``read_query_csv`` on one file, as it is and with the block scan
    refused so that the per-row code reads the whole file, asserted to
    agree bit for bit; also whether the first fell back to the per-row
    code."""
    with per_row_reads() as calls:
        bulk = query_outcome(read_query_csv, path)
    with mock.patch.object(ingest, "_block_fields", refuse_blocks):
        assert bulk == query_outcome(read_query_csv, path)
    return bulk, bool(calls)


def damaged_query(lines, row, column, text):
    """The query file text with field ``column`` of ``lines[row]`` (file
    row ``row + 1``) replaced by ``text``."""
    lines = list(lines)
    fields = lines[row].split(",")
    fields[column] = text
    lines[row] = ",".join(fields)
    return "\n".join(lines)


class TestQueryScan:
    """Query files are read a block of lines at a time, with the per-row
    code as the fallback that reports every fault: each case reads a file
    both ways and asserts the same outcome."""

    def test_golden_query_takes_the_bulk_path(self, golden_pipeline):
        outcome, fell_back = both_query_paths(golden_pipeline[0][0]
                                              / "query.csv")
        assert not fell_back and outcome["shape"] == (7,)

    @pytest.mark.parametrize("case,loads,falls_back", [
        ("CRLF line ends", True, False), ("no final newline", True, False),
        ("quoted field", True, True), ("lone CR in a field", False, True),
        ("field over the csv limit", False, True),
        ("bad date", False, True), ("nan", False, True),
        ("1e400", False, True), ("arabic-indic digits", True, True),
        ("weekday y", False, True), ("blank weekday", False, True),
        ("blank line", False, True), ("whitespace-only line", False, True),
        ("2015-02-29", False, True), ("2015-13-01", False, True),
        ("-0.0", True, False), (".5", True, False), ("5.", True, False),
        ("1e3", True, False), ("1_0", True, False), (" 1.5", True, False)])
    def test_damaged_file_bulk_equals_rows(self, tmp_path, case, loads,
                                           falls_back):
        lines = QUERY_CSV.split("\n")
        date, rest = lines[3].split(",", 1)
        text = {
            "CRLF line ends": QUERY_CSV.replace("\n", "\r\n"),
            "no final newline": QUERY_CSV[:-1],
            "quoted field": QUERY_CSV.replace(date, f'"{date}"'),
            "lone CR in a field": damaged_query(lines, 3, 2, "8\r12"),
            "field over the csv limit": damaged_query(
                lines, 3, 1, "0" * csv.field_size_limit() + "1"),
            "bad date": damaged_query(lines, 3, 0, "2016-02-30"),
            "nan": damaged_query(lines, 3, 2, "nan"),
            "1e400": damaged_query(lines, 3, 3, "1e400"),
            # float() reads Unicode digits as 12.0; the scan reads ASCII
            # only, so the per-row loop reads the file.
            "arabic-indic digits": damaged_query(lines, 3, 4, "١٢"),
            "weekday y": damaged_query(lines, 3, 5, "y"),
            "blank weekday": damaged_query(lines, 3, 5, ""),
            "blank line": "\n".join(lines[:3] + [""] + lines[3:]),
            "whitespace-only line": "\n".join(lines[:3] + [" "] + lines[3:]),
            # Any other case is the text of a date or of an l_avg_kva
            # (1e3 is no plausible temperature).
        }.get(case) or damaged_query(lines, 3, 0 if case[:4] == "2015" else 4,
                                     case)
        path = tmp_path / "query.csv"
        path.write_bytes(text.encode())
        outcome, fell_back = both_query_paths(path)
        assert ("error" not in outcome) == loads
        assert fell_back == falls_back
        if not loads:  # csv's refusals name their row too
            assert outcome["error"][1] == 4

    @pytest.mark.parametrize("column,fault", [
        (None, None), (1, "nan"), (0, "2016-13-01")])
    def test_fault_in_a_later_block(self, tmp_path, column, fault):
        header, *rows = QUERY_CSV.splitlines()
        lines = [header] + rows * 2800 + [""]  # 19,600 rows
        text = ("\n".join(lines) if fault is None
                else damaged_query(lines, 19599, column, fault))
        assert len(text) > 2 * ingest._BLOCK_BYTES
        path = tmp_path / "query.csv"
        path.write_text(text)
        outcome, fell_back = both_query_paths(path)
        assert fell_back == (fault is not None)
        if fault is None:
            assert outcome["shape"] == (19600,)
        else:
            assert outcome["error"][1:] == (19600, QUERY_HEADER[column])

    @pytest.mark.parametrize("separator", ["\n", ","])
    def test_field_ending_at_a_block_cut(self, tmp_path, separator):
        header, *rows = QUERY_CSV.splitlines()
        path = tmp_path / "query.csv"
        path.write_text(field_end_at_block_cut(
            "\n".join([header] + rows * 2800 + [""]), separator, column=1))
        outcome, fell_back = both_query_paths(path)
        assert not fell_back and outcome["shape"] == (19600,)

    def test_header_only_takes_the_bulk_path(self, tmp_path):
        path = tmp_path / "query.csv"
        path.write_text(QUERY_CSV.splitlines()[0] + "\n")
        outcome, fell_back = both_query_paths(path)
        assert not fell_back and outcome["shape"] == (0,)

    def test_seeded_mutations_bulk_equals_rows(self, tmp_path):
        rng = np.random.default_rng([SEED, 2])
        fell_back = []
        for case in range(200):
            _, damaged = _csv_mutation(rng, QUERY_CSV)
            path = tmp_path / f"{case}_query.csv"
            path.write_bytes(damaged)
            fell_back.append(both_query_paths(path)[1])
        assert 0 < sum(fell_back) < len(fell_back)


def csv_writer_estimates(queries, result):
    """estimates.csv text as ``csv.writer`` writes it, a row at a time."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(QUERY_HEADER + ["estimated_max_top_oil_c", "far_flag"])
    for query, value, far in zip(queries[QUERY_HEADER].tolist(),
                                 result.estimate.tolist(),
                                 result.far_flag.tolist()):
        date, *numbers, weekday = query
        writer.writerow([date, *(f"{v:.2f}" for v in numbers), weekday,
                         f"{value:.1f}", "Y" if far else "N"])
    return buffer.getvalue()


@pytest.mark.parametrize("n", [0, 3, 5000])
def test_estimates_csv_equals_the_csv_writer_bytes(tmp_path, n):
    # 5,000 rows cross two slice boundaries of the writer.
    rng = np.random.default_rng(n)
    queries = np.empty(n, estimation.QUERY_DTYPE)
    queries["date"] = [f"2016-{m:02d}-{d:02d}" for m, d in
                       zip(rng.integers(1, 13, n), rng.integers(1, 29, n))]
    for name in QUERY_HEADER[1:5]:
        queries[name] = rng.normal(0.0, 30.0, n).round(int(rng.integers(4)))
    queries["weekday"] = rng.choice(["Y", "N"], n)
    values = rng.uniform(-40.0, 160.0, n)
    if n:
        queries["t_max_c"][0] = -0.0
        queries["l_avg_kva"][-1] = 1e20
        # Binary halves and the nearest doubles to decimal ties.
        queries["t_min_c"][:3] = [0.125, 0.005, 2.675]
        values[:3] = [-0.0, 1e20, 0.25]
    result = estimation.EstimationResult(
        estimate=values, far_flag=np.arange(n) % 3 == 1,
        distances=np.zeros((n, 1)), weights=np.ones((n, 1)))
    path = tmp_path / "estimates.csv"
    write_estimates_csv(queries, result, path)
    assert path.read_bytes() == csv_writer_estimates(queries, result).encode()


def random_case(rng):
    """A seeded model over x, y and a weekday label, its per-cluster values,
    and a query table around it: centroids hit exactly and 1e-6 off,
    random days, and rows with x missing; y is absent from some tables."""
    k = int(rng.integers(2, 7))
    schema = ft.FeatureSchema(features=(
        ft.FeatureDef("x", ft.KIND_NUMERIC),
        ft.FeatureDef("y", ft.KIND_NUMERIC, weight=2.0),
        ft.FeatureDef("weekday", ft.KIND_NOMINAL, statuses=("Y", "N"),
                      weight=0.5)))
    quant = rng.uniform(0, 1, (k, 2))
    if rng.random() < 0.5:
        quant[1] = quant[0]  # coincident centroids
    far_threshold = float(rng.choice([0.0, 0.05]))
    model = make_model([{"x": x, "y": y} for x, y in quant.tolist()],
                       values_schema=schema, far_threshold=far_threshold)
    labels = rng.integers(0, 2, (k, 1))
    model = replace(model, centroids=(model.centroids[0], labels))
    values = {i + 1: float(rng.uniform(-40, 160)) for i in range(k)}

    picks = rng.integers(0, k, 12)
    x = np.concatenate([quant[picks, 0], rng.uniform(0, 1, 8)])
    y = np.concatenate([quant[picks, 1], rng.uniform(0, 1, 8)])
    x[6:12] += 1e-6
    x[rng.random(len(x)) < 0.15] = np.nan
    weekday = np.concatenate([np.array(["Y", "N"])[labels[picks, 0]],
                              rng.choice(["Y", "N"], 8)])
    columns = {"x": x, "y": y, "weekday": weekday}
    if rng.random() < 0.3:
        del columns["y"]
    return model, values, record_table(**columns)


class TestBatch:
    def test_batch_equals_rows_bit_for_bit(self):
        rng = np.random.default_rng(909)
        for _ in range(60):
            model, values, table = random_case(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                warnings.simplefilter("ignore", FarQueryWarning)
                warnings.simplefilter("ignore", MissingFeatureWarning)
                batch = estimate(table, model, values)
                rows = [estimate(table[i:i + 1], model, values)
                        for i in range(len(table))]
            for field in ("estimate", "far_flag", "distances", "weights"):
                stacked = np.concatenate([getattr(r, field) for r in rows])
                got = getattr(batch, field)
                assert got.shape == stacked.shape, field
                if field == "far_flag":
                    assert got.dtype == bool and (got == stacked).all()
                else:
                    assert (got.view(np.int64) == stacked.view(np.int64)).all(), \
                        field

    def test_weights_follow_the_python_float_rule(self):
        # Each row's weights and estimate equal the rule taken in Python
        # floats from its distances: the first cluster within the epsilon
        # takes its value, else 1/d weights summed in cluster order.
        rng = np.random.default_rng(909)
        for _ in range(60):
            model, values, table = random_case(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = estimate(table, model, values)
            value_list = list(values.values())
            for row, d in enumerate(result.distances.tolist()):
                exact = [c for c, dc in enumerate(d)
                         if dc < estimation.ZERO_DISTANCE_EPS]
                if exact:
                    weights = [float(c == exact[0]) for c in range(len(d))]
                    expected = value_list[exact[0]]
                else:
                    inv = [1.0 / dc for dc in d]
                    total = sum(inv)
                    weights = [v / total for v in inv]
                    expected = sum(w * v for w, v in zip(weights, value_list))
                assert result.weights[row].tolist() == weights
                assert result.estimate[row] == expected

    def test_cases_cover_hits_gaps_and_far_queries(self):
        # The seeded cases of the test above reach every branch.
        rng = np.random.default_rng(909)
        hits = near = gaps = absent = far = 0
        for _ in range(60):
            model, values, table = random_case(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = estimate(table, model, values)
            one_hot = (result.weights == 1.0).sum(axis=1) == 1
            hits += int((one_hot & (result.distances.min(axis=1) == 0)).sum())
            near += int((one_hot & (result.distances.min(axis=1) > 0)).sum())
            gaps += int(np.isnan(table["x"]).sum())
            absent += "y" not in table.dtype.names
            far += int(result.far_flag.sum())
        assert min(hits, near, gaps, absent, far) > 0

    def test_one_warning_per_kind_with_counts(self):
        model = make_model([{"x": 0.1, "y": 0.1}, {"x": 0.2, "y": 0.1}],
                           far_threshold=0.01)
        table = record_table(x=[0.15, 0.9, 0.8])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = estimate(table, model, {1: 10.0, 2: 20.0})
        assert [w.category for w in caught] == [MissingFeatureWarning,
                                                FarQueryWarning]
        assert "3 of 3" in str(caught[0].message)
        assert "'y'" in str(caught[0].message)
        assert "2 of 3" in str(caught[1].message)
        assert result.far_flag.tolist() == [False, True, True]

    def test_strict_error_names_the_first_far_query(self):
        model = make_model([{"x": 0.1}, {"x": 0.2}], far_threshold=0.01)
        table = record_table(x=[0.15, 0.9, 0.8], start=dt.date(2016, 6, 5))
        with pytest.raises(FarFromAllClustersError,
                           match=r"2 of 3 .* query 1 \(2016-06-06\)"):
            estimate(table, model, {1: 10.0, 2: 20.0}, strict=True)

    def test_empty_table(self):
        model = make_model([{"x": 0.1}, {"x": 0.2}], far_threshold=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(record_table(x=np.empty(0)), model,
                              {1: 10.0, 2: 20.0})
        assert result.estimate.shape == result.far_flag.shape == (0,)
        assert result.distances.shape == result.weights.shape == (0, 2)

    def test_one_day_wrapper_returns_plain_scalars(self, default_spec):
        model = seasonal_model(default_spec)
        result = estimate_day_temperature(make_day(l_avg_kva=0.4), model, 10,
                                          default_spec)
        assert type(result.estimate) is float
        assert type(result.far_flag) is bool
        assert result.weights.shape == (2,)
        with pytest.raises(ValueError):
            estimate_day_temperature(record_table(l_avg_kva=[0.4, 0.5]),
                                     model, 10, default_spec)


def seeded_queries(n, seed):
    """The lines of a query file, its header first, of ``n`` seeded days
    over two years of the golden climate. One day in five is atypical, a
    wider daily swing and a doubled load; the golden model's far guard
    flags most of those and some of the others."""
    rng = np.random.default_rng(seed)
    days = rng.integers(0, 730, n)
    dates = np.array([(dt.date(2016, 1, 1) + dt.timedelta(days=day))
                      .isoformat() for day in range(730)])[days]
    t_avg = (4.0 - 17.0 * np.cos(2.0 * math.pi * (days % 365 - 15) / 365.25)
             + rng.normal(0.0, 1.8, n))
    swing = 5.5 + rng.normal(0.0, 1.0, n)
    load = (1.15 * np.exp(rng.normal(0.0, 0.2, n))
            + 0.035 * np.maximum(0.0, 14.0 - t_avg))
    atypical = rng.random(n) < 0.2
    swing[atypical] += 8.0
    load[atypical] *= 2.0
    weekday = np.where(rng.random(n) < 5 / 7, "Y", "N")
    return [",".join(QUERY_HEADER)] + [
        f"{date},{t + s:.2f},{t - s:.2f},{t:.2f},{kva:.2f},{flag}"
        for date, t, s, kva, flag in zip(dates.tolist(), t_avg.tolist(),
                                         swing.tolist(), load.tolist(),
                                         weekday.tolist())]


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def messages(caught):
    return [(w.category, str(w.message)) for w in caught]


def whole_table(path, model, values, out, **options):
    """``estimates.csv`` of ``path`` written by the whole-table functions,
    and the warnings they gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        queries = read_query_csv(path)
        write_estimates_csv(queries, estimate(queries, model, values,
                                              **options), out)
    return out.read_bytes(), messages(caught)


def with_profiles(model):
    """``model`` with two flat cluster profiles, the second the heavier."""
    return replace(model, profiles=(np.array([[0.8] * 24, [2.4] * 24]),
                                    np.full((2, 24), 10.0)))


@pytest.fixture(scope="module")
def golden(golden_pipeline):
    """The golden model and spec files, the model, and its per-cluster
    temperatures at 18 services."""
    root = golden_pipeline[0][0]
    model = clustering.load_model(root / "out" / "model.json")
    spec = thermal.load_transformer_spec(root / "spec.json")
    return (root / "spec.json", root / "out" / "model.json", model,
            cluster_max_top_oil(model, spec, 18))


class TestStream:
    """``estimate_csv`` (and so ``txrisk estimate``) scores the query file
    CHUNK_ROWS queries at a time: the same bytes, warnings and refusals as
    the whole-table functions on the whole file."""

    def test_stream_equals_the_whole_table(self, golden, tmp_path):
        _, _, model, temps = golden
        lines = seeded_queries(20_000, seed=29)
        date = lines[9_001].split(",")[0]
        lines[9_001] = lines[9_001].replace(date, f'"{date}"')
        path = write_lines(tmp_path / "query.csv", lines)
        # Several blocks, each cut into chunks, and one block (the second)
        # that the scan declines for its quoted field.
        ends = np.cumsum([len(t) for t in estimation.query_tables(path)])
        assert len(ends) >= 3 and ends[-1] == 20_000
        assert ends[0] < 9_001 <= ends[1]
        assert (np.diff(ends, prepend=0) > CHUNK_ROWS).sum() >= 2
        with per_row_reads() as calls, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert estimate_csv(path, model, temps,
                                tmp_path / "estimates.csv") == 20_000
        assert len(calls) == 1
        expected, expected_warnings = whole_table(path, model, temps,
                                                  tmp_path / "whole.csv")
        assert (tmp_path / "estimates.csv").read_bytes() == expected
        assert messages(caught) == expected_warnings
        assert [kind for kind, _ in expected_warnings] == [FarQueryWarning]

    @pytest.fixture(scope="class")
    def near_first(self, golden):
        """Seeded query lines whose first 5,000 days are near the golden
        model, the file's count of far days, and the date of its first far
        day, day 5,000 (0-based)."""
        _, _, model, temps = golden
        lines = seeded_queries(20_000, seed=30)
        queries = np.empty(len(lines) - 1, estimation.QUERY_DTYPE)
        for name, column in zip(QUERY_HEADER, zip(*(line.split(",")
                                                   for line in lines[1:]))):
            queries[name] = column
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            far = estimate(queries, model, temps).far_flag
        first = np.r_[np.flatnonzero(~far)[:5_000], np.flatnonzero(far)[:1]]
        order = np.r_[first, np.delete(np.arange(len(far)), first)]
        rows = [lines[1 + i] for i in order.tolist()]
        return [lines[0], *rows], int(far.sum()), rows[5_000].split(",")[0]

    @pytest.mark.parametrize("faults,code,message", [
        ({"parse", "blind"}, 3, "row 20001"),
        ({"parse", "far"}, 3, "row 20001"),
        ({"parse", "ceiling"}, 3, "row 20001"),
        ({"parse", "label"}, 3, "row 20001"),
        ({"parse", "ceiling", "blind"}, 3, "row 20001"),
        ({"ceiling", "blind"}, 2, "100000 services load a cluster"),
        ({"ceiling", "far"}, 2, "100000 services load a cluster"),
        ({"ceiling", "label"}, 2, "100000 services load a cluster"),
        ({"label", "far"}, 11, "unknown status 'N'"),
        ({"blind"}, 11, "20000 of 20000 queries lack every model feature"),
        ({"far"}, 9, None),
    ], ids=["parse-blind", "parse-far", "parse-ceiling", "parse-label",
            "parse-ceiling-blind", "ceiling-blind", "ceiling-far",
            "ceiling-label", "label-far", "blind", "far"])
    def test_refusal_precedence(self, golden, near_first, tmp_path, capsys,
                                faults, code, message):
        # Each fault but the parse error sits in the file's first block or
        # in the options; a file read whole before it was scored reports
        # them in this order: a query ParseError, the load ceiling, a
        # weekday label the model does not know (its weekday feature has
        # status Y alone), a query with no model feature, a far query in
        # strict mode.
        spec, model, _, _ = golden
        lines, far, first_far = near_first
        if "parse" in faults:
            lines = [*lines[:-1], damaged_query(lines, -1, 1, "nan")]
        if "blind" in faults:
            schema = ft.FeatureSchema(features=(
                ft.FeatureDef("l_max_kva", ft.KIND_NUMERIC),))
            model = tmp_path / "blind.json"
            clustering.save_model(with_profiles(make_model(
                [{"l_max_kva": 0.2}, {"l_max_kva": 0.8}],
                values_schema=schema)), model)
        if "label" in faults:
            schema = ft.FeatureSchema(features=(
                ft.FeatureDef("l_avg_kva", ft.KIND_NUMERIC),
                ft.FeatureDef("weekday", ft.KIND_NOMINAL, statuses=("Y",))))
            labelled = make_model([{"l_avg_kva": 0.2}, {"l_avg_kva": 0.8}],
                                  values_schema=schema, far_threshold=0.01)
            model = tmp_path / "label.json"
            clustering.save_model(with_profiles(replace(labelled, centroids=(
                labelled.centroids[0], np.zeros((2, 1), np.int64)))), model)
        argv = ["estimate", "--spec", str(spec), "--model", str(model),
                "--query", str(write_lines(tmp_path / "query.csv", lines)),
                "--services", "100000" if "ceiling" in faults else "18",
                "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(argv + ["--strict"] * ("far" in faults)) == code
        err = capsys.readouterr().err
        if message is None:
            message = (f"{far} of 20000 queries are farther than the far-guard"
                       f" threshold")
            assert f"the first is query 5000 ({first_far})" in err
        assert message in err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_warnings_count_the_whole_file(self, tmp_path):
        # A model over a feature no query has and with a far guard: one
        # warning of each kind, in this order, counting every chunk.
        schema = ft.FeatureSchema(features=tuple(
            ft.FeatureDef(name, ft.KIND_NUMERIC)
            for name in ("t_avg_c", "l_avg_kva", "l_max_kva")))
        model = replace(
            make_model([{"t_avg_c": 0.3, "l_avg_kva": 0.2, "l_max_kva": 0.5},
                        {"t_avg_c": 0.7, "l_avg_kva": 0.3, "l_max_kva": 0.5}],
                       values_schema=schema, far_threshold=0.1),
            norm_params=ft.NormalizationParams(bounds={
                "t_avg_c": (-20.0, 25.0), "l_avg_kva": (0.5, 3.0),
                "l_max_kva": (1.0, 6.0)}))
        path = write_lines(tmp_path / "query.csv",
                           seeded_queries(10_000, seed=31))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            estimate_csv(path, model, {1: 60.0, 2: 80.0},
                         tmp_path / "estimates.csv")
        expected, expected_warnings = whole_table(
            path, model, {1: 60.0, 2: 80.0}, tmp_path / "whole.csv")
        assert (tmp_path / "estimates.csv").read_bytes() == expected
        assert messages(caught) == expected_warnings
        (missing, lacking), (far, count) = messages(caught)
        assert (missing, far) == (MissingFeatureWarning, FarQueryWarning)
        assert lacking.startswith("10000 of 10000 queries lack features "
                                  "['l_max_kva']")
        # Far queries in more than one chunk.
        assert 4_096 < int(count.split()[0]) < 10_000

    def test_encode_and_distance_once_per_chunk(self, golden, tmp_path):
        spec, model_path, model, temps = golden
        path = write_lines(tmp_path / "query.csv",
                           seeded_queries(10_000, seed=32))
        expected, _ = whole_table(path, model, temps, tmp_path / "whole.csv")
        with mock.patch.object(ft, "encode", wraps=ft.encode) as encode, \
                mock.patch.object(ft, "distance",
                                  wraps=ft.distance) as distance, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(["estimate", "--spec", str(spec), "--model",
                             str(model_path), "--query", str(path),
                             "--services", "18", "--out",
                             str(tmp_path / "out")]) == 0
        # Each block is scored in chunks of at most CHUNK_ROWS queries: here
        # 2 + 1, as many as 10,000 queries fill.
        chunks = sum(math.ceil(len(table) / CHUNK_ROWS)
                     for table in estimation.query_tables(path))
        assert chunks == math.ceil(10_000 / CHUNK_ROWS)
        assert encode.call_count == distance.call_count == chunks
        assert (tmp_path / "out" / "estimates.csv").read_bytes() == expected

    def test_traced_peak_does_not_grow_with_the_file(self, golden, tmp_path):
        # A whole-table run held about 470 bytes per query at its peak:
        # 11 MB more for the larger file.
        spec, model, _, _ = golden

        def traced_peak(n):
            path = write_lines(tmp_path / f"query_{n}.csv",
                               seeded_queries(n, seed=33))
            argv = ["estimate", "--spec", str(spec), "--model", str(model),
                    "--query", str(path), "--services", "18",
                    "--out", str(tmp_path / f"out_{n}")]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tracemalloc.start()
                try:
                    assert cli.main(argv) == 0
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        traced_peak(1_000)  # first calls' caches
        assert abs(traced_peak(32_000) - traced_peak(8_000)) < 0.5 * 2 ** 20
