"""Ingestion and synthetic-generator tests."""

import csv
import datetime as dt
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from txrisk import ingest
from txrisk.estimation import read_query_csv
from txrisk.errors import (
    DataGapWarning,
    EmptyIntersectionError,
    ParseError,
)
from txrisk.ingest import SynthConfig, load_dataset, synth_dataset

from conftest import (
    QUERY_CSV,
    field_end_at_block_cut,
    per_row_reads,
    refuse_blocks,
)
from test_estimation import both_query_paths
from test_mutation import SEED, _csv_mutation

QUIET = SynthConfig(temp_noise_sd_c=0.0, load_noise_sd_kw=0.0,
                    service_spread=0.0)
FLAT = SynthConfig(temp_noise_sd_c=0.0, load_noise_sd_kw=0.0,
                   service_spread=0.0, diurnal_load_amp=0.0,
                   weekend_uplift=0.0, heating_coeff_kw_per_c=0.0,
                   cooling_coeff_kw_per_c=0.0)


def gen(tmp_path, seed=1, services=2, days=10, config=None,
        start=dt.date(2015, 1, 1)):
    return synth_dataset(seed, services, start, days, config, tmp_path)


def row_services(ds):
    """Each record's service id, decoded from its ``service`` code."""
    return [ds.services[code] for code in ds.records["service"].tolist()]


def row_dates(ds):
    """Each record's ISO date, decoded from its ``day`` code."""
    return [ds.dates[code] for code in ds.records["day"].tolist()]


def hours(ds, field):
    """Each record's 24 hourly values: ``load_kva`` from its ``load_row``
    of ``Dataset.load``, ``ambient_c`` from its date's row of
    ``Dataset.ambient``."""
    if field == "ambient_c":
        return ds.ambient[ds.records["day"]]
    return ds.load[ds.records["load_row"]]


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        a = gen(tmp_path / "a", seed=9, services=3, days=20)
        b = gen(tmp_path / "b", seed=9, services=3, days=20)
        for key in ("weather", "meter", "calendar"):
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = gen(tmp_path / "a", seed=9, services=2, days=10)
        b = gen(tmp_path / "b", seed=10, services=2, days=10)
        assert a["meter"].read_bytes() != b["meter"].read_bytes()

    def test_heating_makes_winter_load_exceed_summer(self, tmp_path):
        config = SynthConfig(load_noise_sd_kw=0.0, service_spread=0.0,
                             cooling_coeff_kw_per_c=0.0,
                             heating_coeff_kw_per_c=0.05)
        paths = gen(tmp_path, seed=3, services=2, days=365, config=config)
        ds = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        months = np.array([int(iso[5:7]) for iso in row_dates(ds)])
        load = ds.records["l_avg_kva"]
        assert load[np.isin(months, (12, 1, 2))].mean() \
            > load[np.isin(months, (6, 7, 8))].mean()

    def test_flat_config_yields_constant_load(self, tmp_path):
        paths = gen(tmp_path, seed=5, services=1, days=3, config=FLAT)
        lines = paths["meter"].read_text().splitlines()[1:]
        kws = {line.split(",")[3] for line in lines}
        assert len(kws) == 1

    def test_rejects_nonpositive_counts(self, tmp_path):
        with pytest.raises(ValueError):
            gen(tmp_path, services=0)


class TestRoundTrip:
    def test_counts_features_and_profiles(self, tmp_path):
        paths = gen(tmp_path, seed=2, services=3, days=15, config=QUIET)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # short span warning expected
            ds = load_dataset(paths["weather"], paths["meter"],
                              paths["calendar"])
        rec = ds.records
        assert len(rec) == 3 * 15
        assert rec.dtype == ingest.RECORD_DTYPE
        assert rec.dtype.names == (
            "service", "day", "t_max_c", "t_min_c", "t_avg_c", "l_avg_kva",
            "l_max_kva", "l_min_kva", "weekday", "load_row", "interpolated")
        assert ds.services == ("S001", "S002", "S003")
        assert rec["service"].tolist() == [s for s in range(3)
                                           for _ in range(15)]
        assert rec["day"].tolist() == list(range(15)) * 3
        assert ds.dates[0] == "2015-01-01" and len(ds.dates) == 15
        assert (rec["t_min_c"] <= rec["t_avg_c"]).all()
        assert (rec["t_avg_c"] <= rec["t_max_c"]).all()
        assert (rec["l_min_kva"] <= rec["l_avg_kva"]).all()
        assert (rec["l_avg_kva"] <= rec["l_max_kva"]).all()
        assert ds.load.shape == (45, 24)
        assert sorted(rec["load_row"].tolist()) == list(range(45))
        assert ds.ambient.shape == (15, 24)
        assert not rec["interpolated"].any()

    def test_deterministic_load(self, tmp_path):
        paths = gen(tmp_path, seed=2, services=2, days=5)
        a = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        b = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        assert a.records.tobytes() == b.records.tobytes()

    def test_day_features_follow_the_python_rule_bit_for_bit(self, tmp_path):
        # Each mean is sum(day) / 24.0 with the day's values added in hour
        # order, each extreme Python's max/min of the day (the first of
        # tied 0.0 and -0.0): numpy's pairwise sum rounds differently.
        paths = gen(tmp_path, seed=11, services=3, days=60)
        lines = paths["weather"].read_text().splitlines()
        for hour in range(24):  # 2015-01-02: a tie of 0.0 and -0.0
            lines[1 + 24 + hour] = f"2015-01-02,{hour},{'-0.00' if hour % 3 else '0.00'}"
        paths["weather"].write_text("\n".join(lines) + "\n")
        ds = load_dataset(paths["weather"], paths["meter"], paths["calendar"])

        def days(path, value_column):
            out = {}
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    key = (row.get("service_id"), row["date"])
                    out.setdefault(key, []).append(float(row[value_column]))
            return out

        temps = days(paths["weather"], "temp_c")
        loads = days(paths["meter"], "kw")
        expected = {name: [] for name in ("t_max_c", "t_min_c", "t_avg_c",
                                          "l_avg_kva", "l_max_kva", "l_min_kva")}
        for service, iso in zip(row_services(ds), row_dates(ds)):
            t, kw = temps[(None, iso)], loads[(service, iso)]
            for name, value in (("t_max_c", max(t)), ("t_min_c", min(t)),
                                ("t_avg_c", sum(t) / 24.0),
                                ("l_avg_kva", sum(kw) / 24.0),
                                ("l_max_kva", max(kw)), ("l_min_kva", min(kw))):
                expected[name].append(repr(value))
        assert row_dates(ds)[1] == "2015-01-02"
        assert ds.records["t_max_c"][1] == ds.records["t_min_c"][1] == 0.0
        for name, values in expected.items():
            assert list(map(repr, ds.records[name].tolist())) == values, name

    def test_short_span_warns(self, tmp_path):
        paths = gen(tmp_path, seed=2, services=1, days=30)
        with pytest.warns(ingest.ShortCoverageWarning):
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])

    def test_holiday_weekday_becomes_non_weekday(self, tmp_path):
        # 2015-01-01 is a Thursday and a default holiday.
        paths = gen(tmp_path, seed=2, services=1, days=7)
        ds = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        weekday = dict(zip(row_dates(ds), ds.records["weekday"].tolist()))
        assert weekday["2015-01-01"] == "N"
        assert weekday["2015-01-02"] == "Y"
        assert weekday["2015-01-03"] == "N"


def drop_lines(path, predicate):
    lines = path.read_text().splitlines()
    kept = [lines[0]] + [ln for ln in lines[1:] if not predicate(ln)]
    path.write_text("\n".join(kept) + "\n")


class TestMemory:
    def test_traced_peak_within_two_and_a_half_load_grids(
            self, golden_pipeline):
        # load_dataset's peak Python allocation on the golden input, in
        # units of its records' 24-hour float profiles. When the table held
        # each record's date text and weather hours and the join copied the
        # meter grid twice, the peak was 6.7 units; when the table held a
        # copy of each record's 24 loads, 3.0 units. It is 2.4 with the
        # loads held once, in Dataset.load.
        data = golden_pipeline[0][0] / "data"
        tracemalloc.start()
        try:
            ds = load_dataset(data / "weather.csv", data / "meter.csv",
                              data / "calendar.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds.records) == 20 * 730
        assert peak <= 2.5 * len(ds.records) * 24 * 8

    def test_weather_kept_once_per_date(self, tmp_path):
        paths = gen(tmp_path, seed=3, services=3, days=5)
        ds = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        weather = {}
        with open(paths["weather"], newline="") as fh:
            for date, hour, value in list(csv.reader(fh))[1:]:
                weather.setdefault(date, [None] * 24)[int(hour)] = float(value)
        assert ds.ambient.shape == (5, 24)
        assert ds.ambient.tolist() == [weather[date] for date in ds.dates]


class TestGapPolicy:
    """One gap and duplicate rule for both hourly files: these cases run on
    the weather file here and on the meter file in TestMeterGapPolicy."""

    # The file under test, the fields before the date in its rows and the
    # record field that holds that file's 24 hours.
    FILE, SERVICE, FIELD = "weather", "", "ambient_c"

    def row(self, date, hour):
        return f"{self.SERVICE}{date},{hour},"

    def test_one_missing_hour_interpolated_and_flagged(self, tmp_path):
        paths = gen(tmp_path, seed=4, services=1, days=3)
        drop_lines(paths[self.FILE], lambda ln: ln.startswith(self.row("2015-01-02", 7)))
        with pytest.warns(DataGapWarning):
            ds = load_dataset(paths["weather"], paths["meter"],
                              paths["calendar"])
        assert row_dates(ds) == ["2015-01-01", "2015-01-02", "2015-01-03"]
        assert ds.records["interpolated"].tolist() == [False, True, False]
        day = hours(ds, self.FIELD)[1]
        assert min(day[6], day[8]) <= day[7] <= max(day[6], day[8])

    def test_three_missing_hours_drops_day(self, tmp_path):
        paths = gen(tmp_path, seed=4, services=1, days=3)
        drop_lines(paths[self.FILE], lambda ln: ln.startswith(
            tuple(self.row("2015-01-02", hour) for hour in (7, 8, 9))))
        with pytest.warns(DataGapWarning):
            ds = load_dataset(paths["weather"], paths["meter"],
                              paths["calendar"])
        assert row_dates(ds) == ["2015-01-01", "2015-01-03"]

    def test_duplicate_hour_keeps_first_and_flags(self, tmp_path):
        paths = gen(tmp_path, seed=4, services=1, days=3)
        lines = paths[self.FILE].read_text().splitlines()
        lines.append(self.row("2015-01-02", 3) + "42.42")
        paths[self.FILE].write_text("\n".join(lines) + "\n")
        with pytest.warns(DataGapWarning):
            ds = load_dataset(paths["weather"], paths["meter"],
                              paths["calendar"])
        assert ds.records["interpolated"].tolist() == [False, True, False]
        assert hours(ds, self.FIELD)[1, 3] != 42.42

    def test_triplicate_hour_is_parse_error(self, tmp_path):
        paths = gen(tmp_path, seed=4, services=1, days=3)
        lines = paths[self.FILE].read_text().splitlines()
        lines += [self.row("2015-01-02", 3) + "42.42", self.row("2015-01-02", 3) + "41.41"]
        paths[self.FILE].write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])

    def test_one_warning_per_kind_gives_count_and_first_day(self, tmp_path):
        paths = gen(tmp_path, seed=4, services=1, days=6)
        gone = {self.row("2015-01-04", 5), self.row("2015-01-02", 7),
                *(self.row("2015-01-03", hour) for hour in (7, 8, 9)),
                *(self.row("2015-01-05", hour) for hour in (0, 1, 2))}
        drop_lines(paths[self.FILE], lambda ln: ln.startswith(tuple(gone)))
        lines = paths[self.FILE].read_text().splitlines()
        lines += [self.row("2015-01-06", 3) + "1.5",
                  self.row("2015-01-01", 4) + "1.5"]
        paths[self.FILE].write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        day = self.SERVICE.replace(",", " ")
        gaps = [w for w in caught if w.category is DataGapWarning]
        assert {w.filename for w in gaps} == {__file__}
        assert [str(w.message) for w in gaps] == [
            f"{self.FILE}: 2 duplicate hourly readings (DST fall-back?), the "
            f"first of each kept; first {day}2015-01-06",
            f"{self.FILE}: 2 days missing at most 2 hours interpolated; "
            f"first {day}2015-01-02",
            f"{self.FILE}: 2 days missing more than 2 hours dropped; "
            f"first {day}2015-01-03"]


class TestMeterGapPolicy(TestGapPolicy):
    FILE, SERVICE, FIELD = "meter", "S001,", "load_kva"


class TestParseErrors:
    def test_bad_weather_header(self, tmp_path):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        body = paths["weather"].read_text().splitlines()
        body[0] = "dia,hora,temp"
        paths["weather"].write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError):
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])

    def test_bad_date_reports_row_and_column(self, tmp_path):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        body = paths["weather"].read_text().splitlines()
        body[5] = "2015-13-40,4,1.0"
        paths["weather"].write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        assert err.value.row == 6
        assert err.value.column == "date"

    def test_hour_out_of_range(self, tmp_path):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        body = paths["weather"].read_text().splitlines()
        body[3] = "2015-01-01,24,1.0"
        paths["weather"].write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError):
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])

    def test_negative_demand(self, tmp_path):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        body = paths["meter"].read_text().splitlines()
        body[2] = "S001,2015-01-01,1,-0.5"
        paths["meter"].write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError):
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])

    def test_implausible_temperature(self, tmp_path):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        body = paths["weather"].read_text().splitlines()
        body[2] = "2015-01-01,1,99.0"
        paths["weather"].write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError):
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])

    def test_bad_calendar_flag(self, tmp_path):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        body = paths["calendar"].read_text().splitlines()
        body[1] = body[1].replace(",Y,", ",yes,").replace(",N,", ",no,")
        paths["calendar"].write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError):
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])

    @pytest.mark.parametrize("service", ["", "  "])
    def test_blank_service_id(self, tmp_path, service):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        body = paths["meter"].read_text().splitlines()
        body[30] = service + body[30][len("S001"):]
        paths["meter"].write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        assert (err.value.row, err.value.column) == (31, "service_id")

    def test_date_is_read_before_the_other_fields(self, tmp_path):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        body = paths["meter"].read_text().splitlines()
        body[30] = " ,2015-02-30,x,-1"
        paths["meter"].write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        assert (err.value.row, err.value.column) == (31, "date")

    def test_inconsistent_weekday_without_holiday(self, tmp_path):
        paths = gen(tmp_path, seed=6, services=1, days=6)
        body = paths["calendar"].read_text().splitlines()
        # 2015-01-02 is a Friday; claim it is a weekend without a holiday.
        body[2] = "2015-01-02,N,N"
        paths["calendar"].write_text("\n".join(body) + "\n")
        with pytest.raises(ParseError):
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])


class TestErrorOrder:
    """Each file is checked row by row: of two faults, the one on the
    earlier row is reported, whatever their columns."""

    def first_error(self, tmp_path, name, edit):
        """The row and column of the ParseError that reading the ``name``
        file gives, with ``edit`` applied to its lines (lists of fields)
        and a bad date on row 5."""
        paths = gen(tmp_path, seed=6, services=1, days=5)
        paths["query"] = tmp_path / "query.csv"
        paths["query"].write_text(QUERY_CSV)
        lines = [line.split(",") for line in
                 paths[name].read_text().splitlines()]
        edit(lines)
        lines[4][lines[0].index("date")] = "2015-02-30"
        paths[name].write_text("\n".join(map(",".join, lines)) + "\n")
        with pytest.raises(ParseError) as err:
            if name == "query":
                read_query_csv(paths["query"])
            else:
                load_dataset(paths["weather"], paths["meter"],
                             paths["calendar"])
        return err.value.row, err.value.column

    @pytest.mark.parametrize("name,column,bad", [
        ("weather", "temp_c", "x"), ("meter", "kw", "x"),
        ("calendar", "is_weekday", "x"), ("query", "l_avg_kva", "x")])
    def test_earlier_row_reported_first(self, tmp_path, name, column, bad):
        def edit(lines):
            lines[2][lines[0].index(column)] = bad

        assert self.first_error(tmp_path, name, edit) == (3, column)

    @pytest.mark.parametrize("per_row", [False, True], ids=["bulk", "per-row"])
    @pytest.mark.parametrize("name", ["weather", "meter", "calendar"])
    def test_check_across_rows_before_a_later_bad_field(
            self, tmp_path, monkeypatch, name, per_row):
        # Rows 2, 3 and 4 read one hour, so the third reading is on row 4;
        # row 3 lists row 2's calendar date again. The bad date on row 5,
        # in the same block, sends the block to the per-row code.
        copies = 1 if name == "calendar" else 2

        def edit(lines):
            lines[2:2 + copies] = [list(lines[1]) for _ in range(copies)]

        if per_row:
            monkeypatch.setattr(ingest, "_block_fields", refuse_blocks)
        assert self.first_error(tmp_path, name, edit) == (
            (3, None) if name == "calendar" else (4, "hour"))


class TestCoverage:
    def test_empty_intersection(self, tmp_path):
        a = gen(tmp_path / "a", seed=7, services=1, days=3,
                start=dt.date(2015, 1, 1))
        b = gen(tmp_path / "b", seed=7, services=1, days=3,
                start=dt.date(2016, 6, 1))
        with pytest.raises(EmptyIntersectionError):
            load_dataset(a["weather"], b["meter"], a["calendar"])

    def test_partial_overlap_keeps_intersection(self, tmp_path):
        a = gen(tmp_path / "a", seed=7, services=1, days=6,
                start=dt.date(2015, 1, 1))
        b = gen(tmp_path / "b", seed=7, services=2, days=6,
                start=dt.date(2015, 1, 4))
        ds = load_dataset(a["weather"], b["meter"], a["calendar"])
        assert set(row_dates(ds)) == {
            "2015-01-04", "2015-01-05", "2015-01-06"}
        assert len(ds.records) == 6  # 2 services x 3 overlapping days

    def test_services_are_those_with_records(self, tmp_path):
        # S900's only day lies outside the weather and calendar coverage.
        paths = gen(tmp_path, seed=7, services=2, days=4)
        with open(paths["meter"], "a", encoding="utf-8") as fh:
            fh.writelines(f"S900,2020-01-01,{hour},1.000\n"
                          for hour in range(24))
        ds = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        assert set(row_services(ds)) == {"S001", "S002"}
        assert ds.services == ("S001", "S002")


def assert_same_days(ds, reference):
    """The datasets hold the same records, ambient and load hours; only
    each record's ``load_row``, its meter day's row in the grid that its
    file's order gave, may differ."""
    assert ds.records.dtype == reference.records.dtype
    for name in ds.records.dtype.names:
        if name != "load_row":
            assert (ds.records[name].tobytes()
                    == reference.records[name].tobytes())
    assert (hours(ds, "load_kva").tobytes()
            == hours(reference, "load_kva").tobytes())
    assert ds.ambient.tobytes() == reference.ambient.tobytes()


class TestJoinOrder:
    """load_dataset joins the three files on integer date and service codes
    and orders the rows with one lexsort; these cases pin the old join:
    rows sorted as (service, date) tuples, each field as the files give it."""

    @staticmethod
    def tuple_join(paths):
        """The (service, date) keys of the files' common days sorted as
        tuples, with each key's meter and weather readings, read with csv."""
        def readings(path):
            days = {}
            with open(path, newline="") as fh:
                for *key, hour, value in list(csv.reader(fh))[1:]:
                    days.setdefault(tuple(key), [None] * 24)[int(hour)] = (
                        float(value))
            return days

        meter, weather = readings(paths["meter"]), readings(paths["weather"])
        with open(paths["calendar"], newline="") as fh:
            listed = {row[0] for row in list(csv.reader(fh))[1:]}
        keys = sorted(key for key in meter
                      if key[1] in listed and (key[1],) in weather)
        return keys, meter, weather

    def test_services_and_dates_out_of_order(self, tmp_path):
        paths = gen(tmp_path, seed=5, services=3, days=6)
        lines = paths["meter"].read_text().splitlines()
        head, rows = lines[0], lines[1:]
        names = {"S001": "S9", "S002": "S10", "S003": "A100"}
        # Services first appear S9, A100, S10; each one's dates run
        # backwards, the hours of a day stay together.
        days = [rows[i:i + 24] for i in range(0, len(rows), 24)]
        by_service = {}
        for day in days:
            by_service.setdefault(day[0].split(",")[0], []).append(day)
        shuffled = []
        for service in ("S001", "S003", "S002"):
            for day in reversed(by_service[service]):
                shuffled += [names[service] + line[4:] for line in day]
        paths["meter"].write_text("\n".join([head] + shuffled) + "\n")
        ds = load_dataset(paths["weather"], paths["meter"], paths["calendar"])

        keys, meter, weather = self.tuple_join(paths)
        assert list(zip(row_services(ds), row_dates(ds))) == keys
        assert hours(ds, "load_kva").tolist() == [meter[key] for key in keys]
        assert hours(ds, "ambient_c").tolist() == [
            weather[key[1:]] for key in keys]
        assert ds.services == ("A100", "S10", "S9")
        assert ds.dates == tuple(sorted({date for _, date in keys}))
        # The same table as from the file in sorted order.
        paths["meter"].write_text("\n".join(
            [head] + sorted(shuffled, key=lambda line: (
                line.split(",")[:2], int(line.split(",")[2])))) + "\n")
        reference = load_dataset(paths["weather"], paths["meter"],
                                 paths["calendar"])
        assert_same_days(ds, reference)

    def test_days_numbered_in_file_order_across_blocks(self, tmp_path):
        # The first half of each meter day in one seeded order, then the
        # second halves in another, over several blocks: a day's second
        # half finds the grid row its first half was given blocks before.
        paths = gen(tmp_path, seed=5, services=3, days=400)
        head, *rows = paths["meter"].read_text().splitlines()
        days = [rows[i:i + 24] for i in range(0, len(rows), 24)]
        rng = np.random.default_rng([SEED, 28])
        halves = ([days[i][:12] for i in rng.permutation(len(days))]
                  + [days[i][12:] for i in rng.permutation(len(days))])
        # Hour 5 missing on two days: the warning names the one read first.
        del halves[900][5], halves[300][5]
        first = " ".join(halves[300][0].split(",")[:2])
        paths["meter"].write_text("\n".join(
            [head] + [row for half in halves for row in half]) + "\n")
        assert paths["meter"].stat().st_size > 2 * ingest._BLOCK_BYTES
        with pytest.warns(DataGapWarning) as caught:
            ds = load_dataset(paths["weather"], paths["meter"],
                              paths["calendar"])
        assert [str(w.message) for w in caught
                if w.category is DataGapWarning] == [
            "meter: 2 days missing at most 2 hours interpolated; first "
            + first]
        assert sorted(ds.records["load_row"].tolist()) == list(range(1200))
        paths["meter"].write_text("\n".join([head] + sorted(
            (row for half in halves for row in half),
            key=lambda line: (line.split(",")[:2], int(line.split(",")[2]))))
            + "\n")
        with pytest.warns(DataGapWarning):
            reference = load_dataset(paths["weather"], paths["meter"],
                                     paths["calendar"])
        assert_same_days(ds, reference)

    def test_longest_service_id_without_coverage(self, tmp_path):
        # The longest id's only day lies outside the weather coverage: it
        # takes no code, and the codes index the joined ids alone.
        paths = gen(tmp_path, seed=7, services=2, days=4)
        with open(paths["meter"], "a", encoding="utf-8") as fh:
            fh.writelines(f"S900000000,2020-01-01,{hour},1.000\n"
                          for hour in range(24))
        ds = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        assert ds.services == ("S001", "S002")
        assert ds.dates == tuple(f"2015-01-0{day}" for day in range(1, 5))
        keys, _, _ = self.tuple_join(paths)
        assert row_services(ds) == [service for service, _ in keys]

    def test_weather_and_calendar_dates_out_of_order(self, tmp_path):
        # Date codes are shared by the three files, whatever order each
        # lists its dates in.
        paths = gen(tmp_path, seed=5, services=2, days=5)
        reference = load_dataset(paths["weather"], paths["meter"],
                                 paths["calendar"])
        for name, group in (("weather", 24), ("calendar", 1)):
            head, *rows = paths[name].read_text().splitlines()
            days = [rows[i:i + group] for i in range(0, len(rows), group)]
            paths[name].write_text("\n".join(
                [head] + [row for day in days[::-1] for row in day]) + "\n")
        ds = load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        assert ds.records.tobytes() == reference.records.tobytes()
        assert (ds.services, ds.dates) == (reference.services,
                                           reference.dates)
        assert ds.ambient.tobytes() == reference.ambient.tobytes()


HOURLY_HEADERS = {"weather": ingest.WEATHER_HEADER,
                  "meter": ingest.METER_HOURLY_HEADER}


def hourly_outcome(load, path, header):
    """What ``load(path, header, dates, names)`` gives: the kept days as
    ``(date,)`` or ``(service, date)`` keys decoded from their codes, the
    grid, flags and DataGapWarning texts, or the error's type, text, row and
    column."""
    dates, names = {}, {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            days, grid, flags = load(path, header, dates, names)
        except ParseError as exc:
            return {"error": (type(exc), str(exc), getattr(exc, "row", None),
                              getattr(exc, "column", None))}
    dates, names = list(dates), list(names)
    keys = [(names[code >> 32], dates[code & ingest._DATE_MASK]) if names
            else (dates[code],) for code in days.tolist()]
    return {"keys": keys, "grid": grid, "flags": flags.tolist(),
            "warnings": [str(w.message) for w in caught
                         if w.category is DataGapWarning]}


def both_paths(path, header):
    """``_load_hourly`` on a file, as it is and with the block scan refused
    so that the per-row code reads the whole file, and whether the first
    fell back to the per-row code; asserts that the two outcomes agree,
    bit for bit."""
    with per_row_reads() as calls:
        bulk = hourly_outcome(ingest._load_hourly, path, header)
    with mock.patch.object(ingest, "_block_fields", refuse_blocks):
        rows = hourly_outcome(ingest._load_hourly, path, header)
    assert bulk.keys() == rows.keys(), (bulk.get("error"), rows.get("error"))
    if "error" in rows:
        assert bulk["error"] == rows["error"]
    else:
        assert bulk["keys"] == rows["keys"]
        assert bulk["grid"].shape == rows["grid"].shape
        assert np.array_equal(bulk["grid"].view(np.int64),
                              rows["grid"].view(np.int64))
        assert (bulk["flags"], bulk["warnings"]) == (rows["flags"],
                                                    rows["warnings"])
    return bulk, bool(calls)


class TestBulkScan:
    """Hourly files are read a block of lines at a time, with the per-row
    code as the fallback that reports every malformed field: each case here
    loads a file both ways and asserts the same outcome."""

    @pytest.mark.parametrize("name", ["weather", "meter"])
    def test_golden_fixture_takes_the_bulk_path(self, golden_pipeline, name):
        path = golden_pipeline[0][0] / "data" / f"{name}.csv"
        outcome, fell_back = both_paths(path, HOURLY_HEADERS[name])
        assert not fell_back and len(outcome["keys"]) >= 730

    @pytest.mark.parametrize("name", ["weather", "meter"])
    @pytest.mark.parametrize("case,loads", [
        ("interpolated", True), ("dropped", True),
        ("duplicate", True), ("mixed", True), ("triplicate", True),
        ("lone CR line ends", False), ("no final newline", True),
        ("CRLF line ends", True), ("quoted field", False),
        ("lone CR in a field", False), ("zero-padded hours", True)])
    def test_gap_fixtures_bulk_equals_rows(self, tmp_path, name, case, loads):
        paths = gen(tmp_path, seed=4, services=1, days=6)
        prefix = "S001," if name == "meter" else ""

        def row(date, hour):
            return f"{prefix}{date},{hour},"

        gone = {"interpolated": [row("2015-01-02", 7)],
                "dropped": [row("2015-01-02", h) for h in (7, 8, 9)],
                "mixed": [row("2015-01-04", 5), row("2015-01-02", 7),
                          *(row("2015-01-03", h) for h in (7, 8, 9))]}
        added = {"duplicate": [row("2015-01-02", 3) + "0.5"],
                 "triplicate": [row("2015-01-02", 3) + "0.5",
                                row("2015-01-02", 3) + "0.25"],
                 "mixed": [row("2015-01-06", 3) + "1.5",
                           row("2015-01-01", 4) + "1.5"]}
        drop_lines(paths[name], lambda ln: ln.startswith(tuple(gone.get(case, ()))))
        text = paths[name].read_text() + "".join(
            line + "\n" for line in added.get(case, ()))
        lines = text.split("\n")
        first, rest = lines[5].split(",", 1)
        last = rest.rsplit(",", 1)
        # csv reads '"S001"' as S001, and a lone CR as a line end.
        lines[5] = {"quoted field": f'"{first}",{rest}',
                    "lone CR in a field": f"{first},{last[0]},\r{last[1]}",
                    }.get(case, lines[5])
        if case == "zero-padded hours":  # 00..09, as the per-row int reads
            lines[1:] = [re.sub(r",(\d),([^,]*)$", r",0\1,\2", line)
                         for line in lines[1:]]
            assert ",00," in lines[1] and ",09," in lines[10]
        text = "\n".join(lines)
        text = {"lone CR line ends": text.replace("\n", "\r"),
                "CRLF line ends": text.replace("\n", "\r\n"),
                "no final newline": text[:-1]}.get(case, text)
        paths[name].write_bytes(text.encode())
        outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
        assert fell_back != loads
        assert ("error" in outcome) == (case in (
            "triplicate", "lone CR in a field"))

    @pytest.mark.parametrize("name", ["weather", "meter"])
    @pytest.mark.parametrize("copies", [1, 2])
    def test_repeated_hour_in_a_later_block(self, tmp_path, name, copies):
        paths = gen(tmp_path, seed=4, services=1, days=1460)
        lines = paths[name].read_text().split("\n")
        lines[-1:] = [lines[27]] * copies + [""]  # 2015-01-02 hour 2
        text = "\n".join(lines)
        assert len(text) > 2 * ingest._BLOCK_BYTES
        paths[name].write_text(text)
        outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
        assert not fell_back and ("error" in outcome) == (copies == 2)

    @pytest.mark.parametrize("name", ["weather", "meter"])
    def test_seeded_mutations_bulk_equals_rows(self, tmp_path, name):
        paths = gen(tmp_path, seed=4, services=2, days=12)
        text = paths[name].read_text()
        rng = np.random.default_rng([SEED, list(HOURLY_HEADERS).index(name)])
        fell_back = []
        for case in range(200):
            _, damaged = _csv_mutation(rng, text)
            path = tmp_path / f"{case}_{name}.csv"
            path.write_bytes(damaged)
            fell_back.append(both_paths(path, HOURLY_HEADERS[name])[1])
        assert 0 < sum(fell_back) < len(fell_back)

    def test_crlf_and_unterminated_golden_copies_load_bit_identically(
            self, golden_pipeline, tmp_path):
        data = golden_pipeline[0][0] / "data"

        def load(weather, meter):
            return load_dataset(weather, meter, data / "calendar.csv")

        headers = []
        read_header = ingest._header

        def spy(records, candidates, path):
            headers.append(candidates)
            return read_header(records, candidates, path)

        with per_row_reads() as calls, mock.patch.object(
                ingest, "_header", spy):
            reference = load(data / "weather.csv", data / "meter.csv")
            for copy, change in (
                    ("crlf", lambda raw: raw.replace(b"\n", b"\r\n")),
                    ("unterminated", lambda raw: raw[:-1])):
                for name in ("weather", "meter"):
                    raw = (data / f"{name}.csv").read_bytes()
                    (tmp_path / f"{copy}_{name}.csv").write_bytes(change(raw))
                ds = load(tmp_path / f"{copy}_weather.csv",
                          tmp_path / f"{copy}_meter.csv")
                assert ds.records.tobytes() == reference.records.tobytes()
                assert ds.records.dtype == reference.records.dtype
                assert (ds.services, ds.dates) == (reference.services,
                                                   reference.dates)
        # No per-row code; load_dataset reads the meter header once per load.
        assert not calls and headers == [
            [ingest.METER_HOURLY_HEADER, ingest.METER_ENERGY_HEADER]] * 3

    @pytest.mark.parametrize("text", [
        "1_0", " 1.5 ", "\t-2.5\n", "\xa01.5", "1.5\u2028", "١٢", "１",
        "1e400", "nan", "Infinity", "+.5", "-0", "", "x",
        "-0.0", ".5", "5.", "1e3", " 1.5", "-0.000", "-.5",
        "123456789012.345", "1234567890123.456", "12345678901234.567",
        "9007199254740993", "0.0000000000000000000001",
        "0.00000000000000000000001", "000000000000001.5", "-", "-.", "."])
    def test_bulk_numbers_read_as_float_or_refused(self, tmp_path, text):
        # The scan's S-array conversion must give float()'s value or refuse
        # the text where float() reads a number the row loop refuses.
        def usable(convert):
            try:
                value = convert(text)
            except (ValueError, OverflowError):
                return None
            return np.float64(value).tobytes() if np.isfinite(value) else None

        def scan(text):
            raw = text.encode()
            values = ingest._numbers(np.frombuffer(raw + b"\n", np.uint8),
                                     np.array([0]), np.array([len(raw)]))
            if values is None:
                raise ValueError(text)
            return values[0]

        bulk = usable(scan)
        assert bulk is None or bulk == usable(float)
        paths = gen(tmp_path, seed=6, services=1, days=2)
        for name in ("weather", "meter"):
            lines = paths[name].read_text().split("\n")
            lines[6] = lines[6].rsplit(",", 1)[0] + "," + text
            paths[name].write_text("\n".join(lines))
            outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
            if text.isascii() and "\n" not in text:
                _, lo, hi, _ = ingest._HOURLY_FILES[HOURLY_HEADERS[name][-1]]
                assert fell_back == (bulk is None
                                     or not lo <= float(text) <= hi)

    def test_exact_decimals_are_float_bit_for_bit(self):
        # Seeded [-]digits[.digits] spellings, 1 to 30 digits with leading
        # zeros, in one column: every value has float()'s bits, and a group
        # of one length is read exactly unless its dot moves, its mantissa
        # passes 2 ** 53 or it has more than 22 digits after the dot.
        rng = np.random.default_rng([SEED, 20])
        texts = []
        for _ in range(20000):
            digits = "".join(map(str, rng.integers(0, 10, rng.integers(1, 31))))
            if rng.random() < 0.3:
                digits = "0" * int(rng.integers(1, 12)) + digits
            if rng.random() < 0.7:
                cut = int(rng.integers(0, len(digits) + 1))
                digits = f"{digits[:cut]}.{digits[cut:]}"
            texts.append("-" * int(rng.random() < 0.4) + digits)
        raw = "".join(text + "\n" for text in texts).encode()
        lens = np.array(list(map(len, texts)))
        starts = np.concatenate(([0], np.cumsum(lens + 1)[:-1]))
        buf = np.frombuffer(raw, np.uint8)
        values = ingest._numbers(buf, starts, lens)
        expected = np.array(list(map(float, texts)))
        assert values.view(np.uint64).tolist() == expected.view(
            np.uint64).tolist()

        def exact(text):
            whole, _, fraction = text.lstrip("-").partition(".")
            return int(whole + fraction) <= 1 << 53 and len(fraction) <= 22

        taken = 0
        for length, rows in ingest._by_length(lens):
            group = [texts[row] for row in rows.tolist()]
            dots = {text.find(".") for text in group}
            read = ingest._decimals(buf, starts[rows], length)
            assert (read is not None) == (len(dots) == 1
                                          and all(map(exact, group)))
            taken += 0 if read is None else len(group)
        assert 0 < taken < len(texts)

    @pytest.mark.parametrize("name", ["weather", "meter"])
    def test_golden_readings_take_the_exact_decimal_path(
            self, golden_pipeline, name):
        # No reading of the golden files reaches the astype fallback.
        reads = []
        decimals = ingest._decimals

        def spy(buf, starts, length):
            reads.append(decimals(buf, starts, length))
            return reads[-1]

        with mock.patch.object(ingest, "_decimals", spy):
            hourly_outcome(ingest._load_hourly, golden_pipeline[0][0] / "data"
                           / f"{name}.csv", HOURLY_HEADERS[name])
        assert reads and all(read is not None for read in reads)
        assert sum(map(len, reads)) >= 730 * 24

    @pytest.mark.parametrize("name", ["weather", "meter"])
    def test_field_over_the_csv_limit_takes_the_row_loop(self, tmp_path, name):
        # csv refuses a field longer than its limit; split would not.
        paths = gen(tmp_path, seed=6, services=1, days=2)
        lines = paths[name].read_text().split("\n")
        fields = lines[6].split(",")
        fields[0 if name == "meter" else -1] = "0" * csv.field_size_limit() + "1"
        lines[6] = ",".join(fields)
        paths[name].write_text("\n".join(lines))
        outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
        assert fell_back and "field larger than field limit" in outcome["error"][1]

    @pytest.mark.parametrize("name", ["weather", "meter"])
    @pytest.mark.parametrize("hour", ["005", " 5", "+5", "5.0", "١"])
    def test_hour_spellings_outside_the_table_take_the_row_loop(
            self, tmp_path, name, hour):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        lines = paths[name].read_text().split("\n")
        fields = lines[6].split(",")
        fields[-2] = hour
        lines[6] = ",".join(fields)
        paths[name].write_text("\n".join(lines))
        outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
        assert fell_back
        assert ("error" in outcome) == (hour == "5.0")

    @pytest.mark.parametrize("name", ["weather", "meter"])
    @pytest.mark.parametrize("hour,bulk", [
        ("0", True), ("00", True), ("23", True), ("24", False), ("99", False),
        ("0:", False)])
    def test_hour_bounds_of_the_scan(self, tmp_path, name, hour, bulk):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        lines = paths[name].read_text().split("\n")
        fields = lines[6].split(",")
        fields[-2] = hour
        lines[6] = ",".join(fields)
        paths[name].write_text("\n".join(lines))
        outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
        assert fell_back != bulk
        assert ("error" in outcome) != bulk

    @pytest.mark.parametrize("name", ["weather", "meter"])
    @pytest.mark.parametrize("case", [
        "2015-02-29", "2015-13-01", "blank line", "whitespace-only line"])
    def test_bad_dates_and_lines_take_the_row_loop(self, tmp_path, name,
                                                   case):
        paths = gen(tmp_path, seed=6, services=1, days=2)
        lines = paths[name].read_text().split("\n")
        if case.startswith("2015"):
            lines[6] = re.sub(r"2015-01-01", case, lines[6])
            assert case in lines[6]
        else:
            lines.insert(6, {"blank line": "", "whitespace-only line": " "}[case])
        paths[name].write_text("\n".join(lines))
        outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
        assert fell_back and outcome["error"][2] == 7

    @pytest.mark.parametrize("name", ["weather", "meter", "query"])
    def test_declined_middle_block_goes_per_row_from_its_first_row(
            self, tmp_path, name):
        # A quoted field, which csv reads, in the second of three or more
        # blocks: that block is read per row, the others scanned.
        paths = gen(tmp_path, seed=4, services=1, days=1460)
        header, *rows = QUERY_CSV.splitlines()
        paths["query"] = tmp_path / "query.csv"
        paths["query"].write_text("\n".join([header] + rows * 2800 + [""]))
        path = paths[name]
        with open(path, "rb") as fh:
            header = fh.readline().decode().rstrip("\n").split(",")
            second = 2 + next(ingest._byte_blocks(fh)).count(b"\n")
        lines = path.read_text().split("\n")
        fields = lines[second + 9].split(",")  # file row second + 10
        fields[-1] = f'"{fields[-1]}"'
        lines[second + 9] = ",".join(fields)
        path.write_text("\n".join(lines))
        assert path.stat().st_size > 2 * ingest._BLOCK_BYTES
        with open(path, "rb") as fh:  # each block's first row
            fh.readline()
            starts = [2]
            for block in ingest._byte_blocks(fh):
                starts.append(starts[-1] + block.count(b"\n"))
        rules = {"date": ingest.date_rule({}), "hour": ingest._HOUR_RULE,
                 "service_id": ingest._service_rule({}),
                 "weekday": ingest.FLAG_RULE}
        with per_row_reads() as calls:
            chunks = list(ingest.read_columns(path, header, [
                rules.get(column) or ingest.number_rule()
                for column in header]))
        rows = len(lines) - 2
        assert len(calls) == 1 and calls[0][3] == second == starts[1]
        assert [first for first, _ in chunks] == starts[:-1]
        assert starts[-1] == rows + 2 and len(starts) > 3
        assert sum(len(columns[0]) for _, columns in chunks) == rows
        if name == "query":
            outcome, fell_back = both_query_paths(path)
            assert outcome["shape"] == (rows,)
        else:
            outcome, fell_back = both_paths(path, HOURLY_HEADERS[name])
            assert len(outcome["keys"]) == 1460
        assert fell_back

    @pytest.mark.parametrize("case,bulk,loads", [
        ("variable-length ids", True, True), ("non-ASCII id", True, True),
        ("all-blank id", False, False), ("separator-only id", False, False),
        ("id not UTF-8", False, False)])
    def test_service_ids(self, tmp_path, case, bulk, loads):
        paths = gen(tmp_path, seed=6, services=3, days=4)
        header, *rows = paths["meter"].read_text().split("\n")[:-1]
        spelled = {"variable-length ids": ("S1", "S10", "S100"),
                   "non-ASCII id": ("S001", "Sé02", "S\u20ac03"),
                   "all-blank id": ("S001", "   ", "S003"),
                   # str.strip, which the per-row loop uses, strips \x1f.
                   "separator-only id": ("S001", "\x1f", "S003"),
                   # A lone byte 0xe9, Latin-1's é, written as it is.
                   "id not UTF-8": ("S001", "S\udce902", "S003")}[case]
        for old, new in zip(("S001", "S002", "S003"), spelled):
            rows = [new + row[4:] if row.startswith(old) else row
                    for row in rows]
        # Rows of every id in one block, in no order.
        rows = np.random.default_rng(SEED).permutation(rows).tolist()
        paths["meter"].write_bytes("\n".join([header, *rows, ""]).encode(
            errors="surrogateescape"))
        outcome, fell_back = both_paths(paths["meter"], HOURLY_HEADERS["meter"])
        assert fell_back != bulk
        assert ("error" not in outcome) == loads
        if loads:
            assert {key[0] for key in outcome["keys"]} == set(spelled)
        elif case == "id not UTF-8":
            assert "unreadable CSV text" in outcome["error"][1]

    @pytest.mark.parametrize("name", ["weather", "meter"])
    @pytest.mark.parametrize("separator", ["\n", ","])
    def test_field_ending_at_a_block_cut(self, tmp_path, name, separator):
        paths = gen(tmp_path, seed=4, services=1, days=1460)
        paths[name].write_text(field_end_at_block_cut(
            paths[name].read_text(), separator))
        outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
        assert not fell_back and len(outcome["keys"]) == 1460

    @pytest.mark.parametrize("name", ["weather", "meter"])
    @pytest.mark.parametrize("moved", ["to the next line", "from the next line"])
    def test_comma_moved_between_lines(self, tmp_path, name, moved):
        # The comma count of the block is right, but one line has a field
        # too many and its neighbour one too few.
        paths = gen(tmp_path, seed=6, services=1, days=2)
        lines = paths[name].read_text().split("\n")
        short, extra = (6, 7) if moved == "to the next line" else (7, 6)
        lines[short] = lines[short].replace(",", "", 1)
        lines[extra] += ",1"
        paths[name].write_text("\n".join(lines))
        outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
        assert fell_back and outcome["error"][2] == 7

    @pytest.mark.parametrize("name", ["weather", "meter"])
    def test_quoted_line_feed_across_the_first_block_cut(self, tmp_path, name):
        # The last line of the first block opens a quote on its reading,
        # closed on a line of its own in the second block: the per-row code
        # reads on to the end of the second block, then the scan resumes.
        text = gen(tmp_path, seed=4, services=1, days=1460)[name].read_text()
        cut = text.index("\n") + 1 + ingest._BLOCK_BYTES
        for pad in range(40):  # zeros before row 2's reading move the lines
            lines = text.split("\n")
            number = lines[1].split(",")[-1]
            sign = "-" * number.startswith("-")
            lines[1] = lines[1][:-len(number)] + sign + "0" * pad + number[
                len(sign):]
            end = "\n".join(lines).rindex("\n", 0, cut)
            # The quote moves that line end one byte on; the closing line
            # must end past the cut.
            if end + 3 >= cut > end + 1:
                break
        row = "\n".join(lines).count("\n", 0, end)
        fields = lines[row].split(",")
        fields[-1] = '"' + fields[-1]
        lines[row:row + 1] = [",".join(fields), '"']
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines))
        with open(path, "rb") as fh:
            fh.readline()
            blocks = list(ingest._byte_blocks(fh))
        assert blocks[0].endswith(f'"{fields[-1][1:]}\n'.encode())
        assert blocks[1].startswith(b'"\n') and len(blocks) > 2
        header = HOURLY_HEADERS[name]
        rules = [ingest._service_rule({}), ingest.date_rule({}),
                 ingest._HOUR_RULE, ingest.number_rule()][-len(header):]
        with per_row_reads() as calls:
            starts = [first for first, _ in ingest.read_columns(path, header,
                                                                rules)]
        # The quoted reading's row takes two lines of the file.
        third = 2 + blocks[0].count(b"\n") + blocks[1].count(b"\n") - 1
        assert len(calls) == 1 and starts[:2] == [2, third]
        outcome, fell_back = both_paths(path, header)
        assert fell_back and len(outcome["keys"]) == 1460

    @pytest.mark.parametrize("name", ["weather", "meter"])
    @pytest.mark.parametrize("earlier", [None, "x"])
    def test_undecodable_byte_names_its_row(self, tmp_path, name, earlier):
        # Each line is decoded as the csv reader reaches it, so a byte that
        # is not UTF-8 is reported at its row, after any fault on an
        # earlier row of the same 8 KiB.
        paths = gen(tmp_path, seed=6, services=1, days=2)
        lines = paths[name].read_text().split("\n")
        if earlier:
            lines[5] = lines[5].rsplit(",", 1)[0] + "," + earlier
        raw = "\n".join(lines).encode()
        at = raw.index(lines[40].encode()) + 3
        paths[name].write_bytes(raw[:at] + b"\xff" + raw[at:])
        outcome, fell_back = both_paths(paths[name], HOURLY_HEADERS[name])
        assert fell_back
        _, text, row, column = outcome["error"]
        if earlier:
            assert (row, column) == (6, HOURLY_HEADERS[name][-1])
        else:
            assert (row, column) == (41, None)
            assert text.startswith("unreadable CSV text: 'utf-8' codec")

    @pytest.mark.parametrize("declined", [False, True])
    def test_load_dataset_opens_each_file_once(self, tmp_path, declined):
        # Meter twice: its header for the energy-file check, then its data.
        # A declined block is read per row from the bytes in memory.
        paths = gen(tmp_path, seed=4, services=2, days=365)
        if declined:
            for name in ("weather", "meter", "calendar"):
                lines = paths[name].read_text().split("\n")
                fields = lines[300].split(",")
                fields[1] = f'"{fields[1]}"'
                lines[300] = ",".join(fields)
                paths[name].write_text("\n".join(lines))
        opened = []

        def spy(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        with per_row_reads() as calls, mock.patch.object(
                ingest, "open", spy, create=True):
            load_dataset(paths["weather"], paths["meter"], paths["calendar"])
        assert len(calls) == (3 if declined else 0)
        assert opened == [paths["meter"], paths["weather"], paths["meter"],
                          paths["calendar"]]

    @pytest.mark.parametrize("block,lines", [
        (b"a,bc,\n,d,e\n", [[b"a", b"bc", b""], [b"", b"d", b"e"]]),
        (b"a,b,c\r\nd,e,f\n", [[b"a", b"b", b"c"], [b"d", b"e", b"f"]]),
        (b"a,b,c,d\ne,f\n", None), (b"a,b\nc,d,e,f\n", None),
        (b"a,b,c\rd,e,f\n", None), (b'a,"b",c\n', None),
        (b"a,b,\xc3\xa9\n", [[b"a", b"b", b"\xc3\xa9"]]),
        (b"a,b,\0\n", None)])
    def test_block_fields_split_lines_as_csv_or_refuse(self, block, lines):
        # The comma count alone is right in the two blocks whose lines have
        # four and two fields.
        fields = ingest._block_fields(block, 3)
        if lines is None:
            assert fields is None
        else:
            buf, starts, lens = fields
            assert [[buf[s:s + n].tobytes() for s, n in zip(*line)]
                    for line in zip(starts.T, lens.T)] == lines


def calendar_outcome(path):
    """What ``_load_calendar(path, dates)`` gives: its entries in order, as
    (date, effective weekday) pairs decoded from the date codes, or the
    ParseError's text, row and column."""
    dates = {}
    try:
        listed, weekdays = ingest._load_calendar(path, dates)
    except ParseError as exc:
        return {"error": (str(exc), exc.row, exc.column)}
    assert len(listed) == len(weekdays) == len(dates)
    return {"entries": [(date, bool(weekdays[code]))
                        for date, code in dates.items() if listed[code]]}


def both_calendar_paths(path):
    """``_load_calendar`` on a file, as it is and with the block scan
    refused, asserted to agree; also whether the first fell back to the
    per-row code."""
    with per_row_reads() as calls:
        bulk = calendar_outcome(path)
    with mock.patch.object(ingest, "_block_fields", refuse_blocks):
        assert bulk == calendar_outcome(path)
    return bulk, bool(calls)


class TestCalendarScan:
    """Calendar files are read by the same block scan as the other tables,
    with the duplicate and weekday checks over whole columns: each case
    reads a file both ways and asserts the same outcome."""

    def test_golden_calendar_takes_the_bulk_path(self, golden_pipeline):
        outcome, fell_back = both_calendar_paths(
            golden_pipeline[0][0] / "data" / "calendar.csv")
        assert not fell_back and len(outcome["entries"]) == 730

    # 2015-01-01 is a Thursday and a holiday; 2015-01-03 a Saturday.
    @pytest.mark.parametrize("case,loads,falls_back,row", [
        ("plain", True, False, None), ("CRLF line ends", True, False, None),
        ("no final newline", True, False, None),
        ("quoted field", True, True, None),
        ("open quote on an unterminated last line", True, True, None),
        ("holiday on a Saturday", True, False, None),
        ("duplicate date", False, False, 4),
        ("duplicate date, other flags", False, False, 6),
        ("weekday on a Saturday", False, False, 4),
        ("lower-case flag", False, True, 3), ("bad date", False, True, 3),
        ("blank line", False, True, 3), ("extra column", False, True, 3),
        ("duplicate before a bad flag", False, True, 4)])
    def test_damaged_file_bulk_equals_rows(self, tmp_path, case, loads,
                                           falls_back, row):
        path = gen(tmp_path, seed=6, services=1, days=10)["calendar"]
        lines = path.read_text().split("\n")
        text = {
            "CRLF line ends": "\r\n".join(lines),
            "no final newline": "\n".join(lines)[:-1],
            "quoted field": "\n".join(lines).replace(",Y,N", ',"Y",N', 1),
            # csv reads "N at the end of the file as N.
            "open quote on an unterminated last line": '"N'.join(
                "\n".join(lines)[:-1].rsplit("N", 1)),
            "holiday on a Saturday": "\n".join(lines).replace(
                "2015-01-03,N,N", "2015-01-03,Y,Y"),
            "duplicate date": "\n".join(lines[:3] + lines[1:2] + lines[3:]),
            "duplicate date, other flags": "\n".join(
                lines[:5] + [lines[2].replace(",Y,N", ",N,Y")] + lines[5:]),
            "weekday on a Saturday": "\n".join(lines).replace(
                "2015-01-03,N,N", "2015-01-03,Y,N"),
            "lower-case flag": "\n".join(lines).replace(",Y,N", ",y,N", 1),
            "bad date": "\n".join(lines).replace("2015-01-02", "2015-02-30"),
            "blank line": "\n".join(lines[:2] + [""] + lines[2:]),
            "extra column": "\n".join(lines[:2] + [lines[2] + ",N"]
                                      + lines[3:]),
            "duplicate before a bad flag": "\n".join(
                lines[:3] + lines[1:2] + [lines[3].replace(",N", ",x", 1)]
                + lines[4:]),
        }.get(case, "\n".join(lines))
        path.write_bytes(text.encode())
        outcome, fell_back = both_calendar_paths(path)
        assert ("error" not in outcome) == loads
        assert fell_back == falls_back
        if loads:
            entries = dict(outcome["entries"])
            assert len(entries) == 10
            assert not entries[dt.date(2015, 1, 1)]
        else:
            assert outcome["error"][1] == row

    @pytest.mark.parametrize("fault", [None, "duplicate", "bad flag"])
    def test_fault_in_a_later_block(self, tmp_path, fault):
        path = gen(tmp_path, seed=6, services=1, days=1)["calendar"]
        days = [dt.date(1990, 1, 1) + dt.timedelta(days=i)
                for i in range(40000)]
        lines = [",".join(ingest.CALENDAR_HEADER)] + [
            f"{day},{'Y' if day.weekday() < 5 else 'N'},N" for day in days]
        if fault == "duplicate":
            lines[39999] = lines[7]
        elif fault == "bad flag":
            lines[39999] = lines[39999][:-1] + "x"
        path.write_text("\n".join(lines) + "\n")
        assert path.stat().st_size > 2 * ingest._BLOCK_BYTES
        outcome, fell_back = both_calendar_paths(path)
        assert fell_back == (fault == "bad flag")
        if fault is None:
            assert len(outcome["entries"]) == 40000
        else:
            assert outcome["error"][1] == 40000

    def test_header_only_takes_the_bulk_path(self, tmp_path):
        path = tmp_path / "calendar.csv"
        path.write_text(",".join(ingest.CALENDAR_HEADER) + "\n")
        assert both_calendar_paths(path) == ({"entries": []}, False)

    def test_seeded_mutations_bulk_equals_rows(self, tmp_path):
        text = gen(tmp_path, seed=4, services=1, days=40)["calendar"].read_text()
        rng = np.random.default_rng([SEED, 3])
        fell_back = []
        for case in range(200):
            _, damaged = _csv_mutation(rng, text)
            path = tmp_path / f"{case}_calendar.csv"
            path.write_bytes(damaged)
            fell_back.append(both_calendar_paths(path)[1])
        assert 0 < sum(fell_back) < len(fell_back)
