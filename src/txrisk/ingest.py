"""Residential service operation dataset: CSV ingestion and a seeded
synthetic generator for desk-scale studies.

File formats (UTF-8, comma separated, header row mandatory, ISO dates):

* ``weather.csv``  -- ``date,hour,temp_c`` with hour 0..23
* ``meter.csv``    -- ``service_id,date,hour,kw`` (interval meters) or
  ``service_id,date,energy_kwh`` (revenue meters, daily energy)
* ``calendar.csv`` -- ``date,is_weekday,is_holiday`` with Y/N values

Metered kW is treated as kVA at unity power factor. :func:`load_dataset`
returns the days as one record table: a numpy structured array with a row
per (service, date) and a field per column.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DataGapWarning,
    EmptyIntersectionError,
    GapError,
    ParseError,
    ShortCoverageWarning,
)

WEATHER_HEADER = ["date", "hour", "temp_c"]
METER_HOURLY_HEADER = ["service_id", "date", "hour", "kw"]
METER_ENERGY_HEADER = ["service_id", "date", "energy_kwh"]
CALENDAR_HEADER = ["date", "is_weekday", "is_holiday"]

TEMP_MIN_C, TEMP_MAX_C = -60.0, 60.0
# Days missing at most this many hourly readings are linearly interpolated;
# days missing more are dropped with a warning.
MAX_INTERPOLATED_HOURS = 2


@dataclass
class Dataset:
    """The record table of :func:`load_dataset`, its services and dates."""

    records: np.ndarray
    services: tuple[str, ...]
    dates: tuple[str, ...]


def _parse_date(text, path, row):
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ParseError(f"bad date {text!r}", path=path, row=row,
                         column="date") from None


def _parse_float(text, path, row, column):
    """A finite float; ``nan`` and ``inf`` are rejected like any bad number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"bad number {text!r}", path=path, row=row,
                         column=column)
    return value


def _parse_hour(text, path, row):
    try:
        hour = int(text)
    except ValueError:
        raise ParseError(f"bad hour {text!r}", path=path, row=row,
                         column="hour") from None
    if not 0 <= hour <= 23:
        raise ParseError(f"hour {hour} outside 0..23", path=path, row=row,
                         column="hour")
    return hour


def _parse_flag(text, path, row, column):
    if text not in ("Y", "N"):
        raise ParseError(f"flag must be Y or N, got {text!r}", path=path,
                         row=row, column=column)
    return text == "Y"


def _check_header(header, expected_variants, path):
    for variant in expected_variants:
        if header == variant:
            return variant
    raise ParseError(
        f"unexpected header {header!r}; expected one of "
        f"{[','.join(v) for v in expected_variants]}", path=path, row=1)


def _read_rows(path):
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open file: {exc}", path=path) from exc
    with fh:
        try:
            yield from csv.reader(fh)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParseError(f"unreadable CSV text: {exc}", path=path) from None


def _fill_day(hours: list, *, interpolate: bool, label: str):
    """Complete one day's 24 hourly values (None where missing) per the gap
    policy.

    Returns (values or None-if-dropped, interpolated flag). A 25th reading
    for an hour (DST fall-back) was already collapsed to the first one
    during parsing.
    """
    missing = [h for h, v in enumerate(hours) if v is None]
    if not missing:
        return hours, False
    if not interpolate:
        raise GapError(f"{label}: {len(missing)} missing hourly readings "
                       "and gap filling is disabled")
    if len(missing) > MAX_INTERPOLATED_HOURS:
        warnings.warn(f"{label}: {len(missing)} missing hours, day dropped",
                      DataGapWarning, stacklevel=3)
        return None, False
    present = [h for h, v in enumerate(hours) if v is not None]
    values = np.interp(range(24), present, [hours[h] for h in present])
    warnings.warn(f"{label}: interpolated {len(missing)} missing hour(s)",
                  DataGapWarning, stacklevel=3)
    return [float(v) for v in values], True


def _load_weather(path, interpolate):
    """date -> (24 temps, interpolated flag)."""
    rows = _read_rows(path)
    _check_header(next(rows, None), [WEATHER_HEADER], path)
    raw: dict[dt.date, list] = {}
    dup_seen = set()
    dup_dates = set()
    for i, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", path=path, row=i)
        date = _parse_date(row[0], path, i)
        hour = _parse_hour(row[1], path, i)
        temp = _parse_float(row[2], path, i, "temp_c")
        if not TEMP_MIN_C <= temp <= TEMP_MAX_C:
            raise ParseError(f"temperature {temp} outside plausible range",
                             path=path, row=i, column="temp_c")
        day = raw.get(date)
        if day is None:
            day = raw[date] = [None] * 24
        if day[hour] is not None:
            key = (date, hour)
            if key in dup_seen:
                raise ParseError(f"hour {hour} appears more than twice",
                                 path=path, row=i, column="hour")
            dup_seen.add(key)
            dup_dates.add(date)
            warnings.warn(f"weather {date} hour {hour}: duplicate reading "
                          "(DST fall-back?), keeping the first",
                          DataGapWarning, stacklevel=2)
            continue
        day[hour] = temp
    out = {}
    for date, hours in raw.items():
        values, interp = _fill_day(hours, interpolate=interpolate,
                                   label=f"weather {date}")
        if values is not None:
            out[date] = (values, interp or date in dup_dates)
    return out


def _load_meter(path, interpolate):
    """Whether the file is hourly, and (service, date) -> (24 kW readings,
    interpolated flag), or for an energy file -> daily kWh."""
    rows = _read_rows(path)
    header = _check_header(next(rows, None),
                           [METER_HOURLY_HEADER, METER_ENERGY_HEADER], path)
    hourly_format = header == METER_HOURLY_HEADER
    # One 24-slot list per day, None until its hour is read: far smaller
    # than a dict per day over tens of thousands of days.
    raw: dict[tuple[str, dt.date], list] = {}
    energy: dict[tuple[str, dt.date], float] = {}
    dup_seen = set()
    for i, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns, got {len(row)}",
                             path=path, row=i)
        service = row[0]
        date = _parse_date(row[1], path, i)
        if hourly_format:
            hour = _parse_hour(row[2], path, i)
            kw = _parse_float(row[3], path, i, "kw")
            if kw < 0:
                raise ParseError(f"negative demand {kw}", path=path, row=i,
                                 column="kw")
            day = raw.get((service, date))
            if day is None:
                day = raw[(service, date)] = [None] * 24
            if day[hour] is not None:
                key = (service, date, hour)
                if key in dup_seen:
                    raise ParseError(f"hour {hour} appears more than twice",
                                     path=path, row=i, column="hour")
                dup_seen.add(key)
                warnings.warn(f"meter {service} {date} hour {hour}: duplicate "
                              "reading, keeping the first",
                              DataGapWarning, stacklevel=2)
                continue
            day[hour] = kw
        else:
            kwh = _parse_float(row[2], path, i, "energy_kwh")
            if kwh < 0:
                raise ParseError(f"negative energy {kwh}", path=path, row=i,
                                 column="energy_kwh")
            if (service, date) in energy:
                raise ParseError(f"duplicate energy reading for {service} {date}",
                                 path=path, row=i)
            energy[(service, date)] = kwh

    if not hourly_format:
        return False, energy
    out = {}
    for (service, date), hours in raw.items():
        values, interp = _fill_day(hours, interpolate=interpolate,
                                   label=f"meter {service} {date}")
        if values is not None:
            out[(service, date)] = (values, interp)
    return True, out


def _load_calendar(path):
    """date -> effective weekday flag (holidays count as non-weekdays)."""
    rows = _read_rows(path)
    _check_header(next(rows, None), [CALENDAR_HEADER], path)
    out = {}
    for i, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", path=path, row=i)
        date = _parse_date(row[0], path, i)
        is_weekday = _parse_flag(row[1], path, i, "is_weekday")
        is_holiday = _parse_flag(row[2], path, i, "is_holiday")
        if date in out:
            raise ParseError(f"duplicate calendar entry for {date}", path=path, row=i)
        if not is_holiday and is_weekday != (date.weekday() < 5):
            raise ParseError(
                f"is_weekday={row[1]} inconsistent with {date} "
                f"({date.strftime('%A')}) and no holiday override",
                path=path, row=i, column="is_weekday")
        out[date] = is_weekday and not is_holiday
    return out


def _day_stats(hours):
    """Each row's sum, maximum and minimum as Python's ``sum``, ``max`` and
    ``min`` take them over the day's list: the sum added hour by hour from
    0.0 (numpy's pairwise ``sum`` rounds differently), the first maximum
    and the first minimum (so a tie of 0.0 and -0.0 keeps its sign)."""
    total = np.zeros(len(hours))
    for column in hours.T:
        total += column
    rows = np.arange(len(hours))
    return (total, hours[rows, hours.argmax(axis=1)],
            hours[rows, hours.argmin(axis=1)])


def load_dataset(weather_path, meter_path, calendar_path, *,
                 interpolate_gaps: bool = True) -> Dataset:
    """Assemble the per-service per-day record table from the three CSV
    files.

    One row is produced per (service, date) in the intersection of
    weather, meter, and calendar coverage, services sorted and then dates.
    Its fields: ``service_id``; ``date`` (ISO); the daily features
    ``t_max_c``, ``t_min_c``, ``t_avg_c`` from the weather day and
    ``l_avg_kva``, ``l_max_kva``, ``l_min_kva`` from the meter day (each
    mean is the day's sum over 24.0); ``weekday`` "Y"/"N" from the calendar
    (statutory holidays count as non-weekdays); the raw 24-hour
    ``load_kva`` and ``ambient_c`` profiles, for cluster-profile
    extraction; and ``interpolated``. An energy meter file gives
    ``l_avg_kva`` (daily kWh / 24) and no ``load_kva``, ``l_max_kva`` or
    ``l_min_kva``.

    Raises:
        ParseError: malformed file content (row and column reported).
        GapError: incomplete day while ``interpolate_gaps`` is False.
        EmptyIntersectionError: no common coverage at all.
    """
    weather = _load_weather(weather_path, interpolate_gaps)
    hourly, meter = _load_meter(meter_path, interpolate_gaps)
    calendar = _load_calendar(calendar_path)

    keys = sorted(key for key in meter
                  if key[1] in weather and key[1] in calendar)
    if not keys:
        raise EmptyIntersectionError(
            "weather, meter, and calendar files share no (service, date) coverage")
    services, days = zip(*keys)
    dates = sorted(set(days))
    index = {date: i for i, date in enumerate(dates)}
    day = np.array([index[date] for date in days])

    ambient = np.array([weather[date][0] for date in dates])[day]
    t_sum, t_max, t_min = _day_stats(ambient)
    columns = {
        "service_id": np.array(services),
        "date": np.array([date.isoformat() for date in dates])[day],
        "t_max_c": t_max,
        "t_min_c": t_min,
        "t_avg_c": t_sum / 24.0,
    }
    interpolated = np.array([weather[date][1] for date in dates])[day]
    if hourly:
        load = np.array([meter[key][0] for key in keys])
        l_sum, l_max, l_min = _day_stats(load)
        columns.update(l_avg_kva=l_sum / 24.0, l_max_kva=l_max, l_min_kva=l_min)
        interpolated |= np.array([meter[key][1] for key in keys])
    else:
        columns["l_avg_kva"] = np.array([meter[key] for key in keys]) / 24.0
    columns["weekday"] = np.where(
        np.array([calendar[date] for date in dates])[day], "Y", "N")
    if hourly:
        columns["load_kva"] = load
    columns["ambient_c"] = ambient
    columns["interpolated"] = interpolated

    records = np.empty(len(keys), [(name, column.dtype, column.shape[1:])
                                   for name, column in columns.items()])
    for name, column in columns.items():
        records[name] = column

    span_days = (dates[-1] - dates[0]).days + 1
    if span_days < 730:
        warnings.warn(
            f"dataset spans only {span_days} days; multiple years of data "
            "are recommended", ShortCoverageWarning, stacklevel=2)
    return Dataset(
        records=records,
        services=tuple(sorted({service for service, _ in meter})),
        dates=tuple(d.isoformat() for d in dates),
    )


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the deterministic synthetic dataset generator."""

    temp_mean_c: float = 4.0
    temp_seasonal_amp_c: float = 17.0
    temp_diurnal_amp_c: float = 5.5
    temp_noise_sd_c: float = 1.8
    coldest_day_of_year: int = 15
    base_load_kw: float = 0.9
    diurnal_load_amp: float = 0.5
    weekend_uplift: float = 0.15
    heating_coeff_kw_per_c: float = 0.035
    heating_ref_c: float = 14.0
    cooling_coeff_kw_per_c: float = 0.05
    cooling_ref_c: float = 22.0
    load_noise_sd_kw: float = 0.08
    service_spread: float = 0.25
    holidays: tuple[tuple[int, int], ...] = ((1, 1), (7, 1), (12, 25))


def _diurnal_shape(hours):
    """Relative residential demand shape: morning bump, evening peak."""
    h = np.asarray(hours, dtype=np.float64)
    evening = np.exp(-((h - 19.0) ** 2) / 8.0)
    morning = np.exp(-((h - 7.5) ** 2) / 5.0)
    return 0.6 * evening + 0.4 * morning


def synth_dataset(seed: int, services: int, start_date: dt.date, days: int,
                  config: SynthConfig | None = None, out_dir=".") -> dict[str, Path]:
    """Generate weather/meter/calendar CSVs for a synthetic study area.

    Weather follows a seasonal plus diurnal sinusoid with seeded noise; load
    couples a base diurnal shape with heating below ``heating_ref_c``,
    cooling above ``cooling_ref_c``, a weekend/holiday uplift, per-service
    scale variation, and seeded noise. The same seed always yields
    byte-identical files.
    """
    if services <= 0 or days <= 0:
        raise ValueError("services and days must be > 0")
    cfg = config or SynthConfig()
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    dates = [start_date + dt.timedelta(days=i) for i in range(days)]
    hours = np.arange(24)

    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=np.float64)
    seasonal = cfg.temp_mean_c - cfg.temp_seasonal_amp_c * np.cos(
        2.0 * math.pi * (doy - cfg.coldest_day_of_year) / 365.25)
    diurnal = -cfg.temp_diurnal_amp_c * np.cos(2.0 * math.pi * (hours - 14.0) / 24.0)
    temps = seasonal[:, None] + diurnal[None, :]
    temps += rng.normal(0.0, cfg.temp_noise_sd_c, size=temps.shape) \
        if cfg.temp_noise_sd_c > 0 else 0.0
    temps = np.clip(temps, TEMP_MIN_C, TEMP_MAX_C)

    service_ids = [f"S{i + 1:03d}" for i in range(services)]
    multipliers = (np.exp(rng.normal(0.0, cfg.service_spread, size=services))
                   if cfg.service_spread > 0 else np.ones(services))

    shape = cfg.diurnal_load_amp * _diurnal_shape(hours)
    heating = cfg.heating_coeff_kw_per_c * np.maximum(0.0, cfg.heating_ref_c - temps)
    cooling = cfg.cooling_coeff_kw_per_c * np.maximum(0.0, temps - cfg.cooling_ref_c)
    offday = np.array(
        [d.weekday() >= 5 or (d.month, d.day) in cfg.holidays for d in dates])
    daytype = np.where(offday, 1.0 + cfg.weekend_uplift, 1.0)

    base = cfg.base_load_kw * (1.0 + shape)[None, :] * daytype[:, None]
    loads = multipliers[:, None, None] * (base + heating + cooling)[None, :, :]
    if cfg.load_noise_sd_kw > 0:
        loads = loads + rng.normal(0.0, cfg.load_noise_sd_kw, size=loads.shape)
    loads = np.maximum(loads, 0.0)

    weather_path = out_dir / "weather.csv"
    with open(weather_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(WEATHER_HEADER)
        for di, date in enumerate(dates):
            iso = date.isoformat()
            for h in range(24):
                writer.writerow([iso, h, f"{temps[di, h]:.2f}"])

    meter_path = out_dir / "meter.csv"
    with open(meter_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METER_HOURLY_HEADER)
        for si, service in enumerate(service_ids):
            for di, date in enumerate(dates):
                iso = date.isoformat()
                for h in range(24):
                    writer.writerow([service, iso, h, f"{loads[si, di, h]:.3f}"])

    calendar_path = out_dir / "calendar.csv"
    with open(calendar_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CALENDAR_HEADER)
        for date in dates:
            holiday = (date.month, date.day) in cfg.holidays
            writer.writerow([date.isoformat(),
                             "Y" if date.weekday() < 5 else "N",
                             "Y" if holiday else "N"])

    return {"weather": weather_path, "meter": meter_path,
            "calendar": calendar_path}
