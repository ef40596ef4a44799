"""Shared fixtures: the reference transformer, small hand-built models,
and the end-to-end pipeline run used by the acceptance suite."""

import contextlib
import datetime as dt
import time
from unittest import mock

import numpy as np
import pytest

from txrisk import cli, features as ft, ingest, thermal
from txrisk.clustering import ClusterModel

QUERY_CSV = """\
date,t_max_c,t_min_c,t_avg_c,l_avg_kva,weekday
2016-06-06,21.53,8.12,14.20,0.97,Y
2016-06-07,22.73,12.62,14.62,0.98,Y
2016-06-08,20.12,9.41,13.39,1.06,Y
2016-06-09,18.61,10.78,16.55,0.97,Y
2016-06-10,18.48,11.80,14.77,1.07,Y
2016-06-11,20.04,11.26,16.52,1.34,N
2016-06-12,21.72,8.18,17.58,1.23,N
"""

PIPELINE_FILES = (
    "data/weather.csv",
    "data/meter.csv",
    "data/calendar.csv",
    "out/model.json",
    "out/composition.csv",
    "out/thresholds.csv",
    "out/month_matrix.csv",
    "out/temperature_grid.csv",
    "out/life_loss.csv",
    "out/month_distribution.svg",
    "out/estimates.csv",
)


@pytest.fixture
def default_spec():
    """25 kVA ONAN pole transformer used throughout the suite."""
    return thermal.TransformerSpec(
        rated_kva=25.0,
        top_oil_rise_rated=55.0,
        hotspot_differential=25.0,
        loss_ratio=4.0,
        oil_time_constant=3.0,
        winding_time_constant=0.08,
        replacement_cost=5000.0,
    )


def write_spec_file(path):
    spec = thermal.TransformerSpec(
        rated_kva=25.0, top_oil_rise_rated=55.0, hotspot_differential=25.0,
        loss_ratio=4.0, oil_time_constant=3.0, winding_time_constant=0.08,
        replacement_cost=5000.0)
    thermal.save_transformer_spec(spec, path)
    return path


def make_model(centroids, values_schema=None, *, far_threshold=0.0):
    """Hand-built 1-D (or n-D) cluster model for estimation tests.

    ``centroids`` is a list of dicts of normalized quantitative values.
    Normalization params are identity ([0,1] bounds) per feature.
    """
    schema = values_schema or ft.FeatureSchema(features=tuple(
        ft.FeatureDef(name, ft.KIND_NUMERIC) for name in sorted(centroids[0])))
    params = ft.NormalizationParams(
        bounds={name: (0.0, 1.0) for name in schema.numeric_names})
    k = len(centroids)
    return ClusterModel(
        **member_fields([(f"s{i}", "2015-01-01") for i in range(k)]),
        centroids=(np.array([[c[name] for name in schema.quantitative_names]
                             for c in centroids], dtype=float).reshape(k, -1),
                   np.zeros((k, 0), dtype=np.int64)),
        member_counts=np.ones(k, dtype=np.int64),
        schema=schema, norm_params=params, seed=0, objective=0.0,
        far_threshold=far_threshold)


def make_model_with_profiles(profiles):
    """Minimal trained-model stand-in for the risk studies: one cluster
    per ``((load_kva, ambient_c), member days)`` entry, its members on
    consecutive days from 2015-01-01 plus 30 days per cluster."""
    schema = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
    k = len(profiles)
    return ClusterModel(
        **member_fields([("s", (dt.date(2015, 1, 1)
                                + dt.timedelta(days=30 * i + j)).isoformat())
                         for i, (_, members) in enumerate(profiles)
                         for j in range(members)]),
        centroids=(np.full((k, 1), 0.5), np.zeros((k, 0), dtype=np.int64)),
        member_counts=np.array([members for _, members in profiles]),
        schema=schema,
        norm_params=ft.NormalizationParams(bounds={"x": (0.0, 1.0)}),
        seed=0, objective=0.0,
        profiles=tuple(np.array(part, dtype=float).reshape(k, 24)
                       for part in zip(*(p for p, _ in profiles))))


def member_fields(pairs):
    """The member fields of a :class:`ClusterModel` whose members are the
    ``(service_id, ISO date)`` pairs ``pairs``, cluster 1's first."""
    ids = sorted({service for service, _ in pairs})
    return {"service_ids": tuple(ids),
            "member_services": np.array([ids.index(service)
                                         for service, _ in pairs], np.int64),
            "member_days": np.array([dt.date.fromisoformat(date).toordinal()
                                     for _, date in pairs], np.int64)}


def member_pairs(model):
    """Each member of ``model`` as a ``(service_id, ISO date)`` pair,
    cluster 1's first: its member arrays decoded."""
    return tuple((model.service_ids[service],
                  dt.date.fromordinal(day).isoformat())
                 for service, day in zip(model.member_services.tolist(),
                                         model.member_days.tolist()))


def clusters_of(model):
    """Each cluster's members as :func:`member_pairs` gives them, split by
    ``member_counts``, cluster 1's first."""
    pairs = member_pairs(model)
    bounds = [0, *np.cumsum(model.member_counts).tolist()]
    return [pairs[a:b] for a, b in zip(bounds, bounds[1:])]


def field_end_at_block_cut(text, separator, row=1, column=-1):
    """The CSV file ``text`` with a number, field ``column`` of line
    ``row``, padded with leading zeros so that a field ends exactly where
    the block scan makes its first cut: the byte after the cut is
    ``separator``."""
    cut = text.index("\n") + 1 + ingest._BLOCK_BYTES
    lines = text.split("\n")
    fields = lines[row].split(",")
    number = fields[column]
    sign = "-" if number.startswith("-") else ""
    zeros = "0" * (cut - text.rindex(separator, 0, cut + 1))
    fields[column] = sign + zeros + number[len(sign):]
    lines[row] = ",".join(fields)
    padded = "\n".join(lines)
    assert padded[cut] == separator and padded.isascii()
    return padded


def refuse_blocks(block, width):
    """A stand-in for ``ingest._block_fields`` that declines every block, so
    that ``ingest.read_columns`` reads each with the per-row code."""
    return None


@contextlib.contextmanager
def per_row_reads():
    """The calls of ``ingest._row_columns`` made inside the ``with`` block:
    one per run of the per-row code."""
    calls = []
    row_columns = ingest._row_columns

    def spy(*args):
        calls.append(args)
        return row_columns(*args)

    with mock.patch.object(ingest, "_row_columns", spy):
        yield calls


def run_pipeline(root):
    """synth -> cluster -> assess -> estimate, all through the CLI."""
    data = root / "data"
    out = root / "out"
    out.mkdir(parents=True, exist_ok=True)
    spec_path = write_spec_file(root / "spec.json")
    query_path = root / "query.csv"
    query_path.write_text(QUERY_CSV, encoding="utf-8")

    assert cli.main(["synth", "--seed", "42", "--services", "20",
                     "--days", "730", "--out", str(data)]) == 0
    assert cli.main(["cluster",
                     "--weather", str(data / "weather.csv"),
                     "--meter", str(data / "meter.csv"),
                     "--calendar", str(data / "calendar.csv"),
                     "--k", "6", "--seed", "42", "--restarts", "3",
                     "--out", str(out)]) == 0
    assert cli.main(["assess", "--spec", str(spec_path),
                     "--model", str(out / "model.json"),
                     "--n-range", "1..40", "--budget", "500",
                     "--years", "2", "--svg", "--out", str(out)]) == 0
    assert cli.main(["estimate", "--spec", str(spec_path),
                     "--model", str(out / "model.json"),
                     "--query", str(query_path), "--services", "18",
                     "--out", str(out)]) == 0
    return root


@pytest.fixture(scope="session")
def golden_pipeline(tmp_path_factory):
    """The full 20-service x 730-day pipeline, run twice for determinism
    checks. Returns [(root, wall_seconds), (root, wall_seconds)]."""
    runs = []
    for name in ("pipeline_a", "pipeline_b"):
        root = tmp_path_factory.mktemp(name)
        start = time.perf_counter()
        run_pipeline(root)
        runs.append((root, time.perf_counter() - start))
    return runs


def _table(**columns):
    """A numpy structured array with one field per column: a column of
    strings is a label field, a column of 24-value rows a profile field."""
    fields = {name: np.asarray(column) for name, column in columns.items()}
    table = np.empty(len(next(iter(fields.values()))), [
        (name, column.dtype, column.shape[1:])
        for name, column in fields.items()])
    for name, column in fields.items():
        table[name] = column
    return table


def _days(start, n, dates):
    """ISO dates: ``dates`` if given, else ``n`` consecutive days from
    ``start``."""
    if dates is None:
        dates = [start + dt.timedelta(days=i) for i in range(n)]
    return [str(date) for date in dates]


def record_table(start=dt.date(2015, 1, 1), **columns):
    """A query table: a record table (numpy structured array) with one
    field per column, ``date`` the consecutive ISO days from ``start``
    unless given as a column."""
    n = len(next(iter(columns.values())))
    return _table(date=_days(start, n, columns.pop("date", None)), **columns)


def make_dataset(service_id="s", start=dt.date(2015, 1, 1), **columns):
    """A :class:`ingest.Dataset` with one record per row of ``columns``, in
    the form :func:`ingest.load_dataset` gives: the ``service`` and ``day``
    fields are codes into the sorted ids of ``service_id`` (one id, or one
    per row) and the sorted ISO dates of ``date`` (the consecutive days
    from ``start`` unless given as a column). An ``ambient_c`` column of
    24-value rows fills the rows of ``Dataset.ambient`` (20.0 elsewhere),
    and a ``load_kva`` one ``Dataset.load``, row ``load_row`` = the record's
    (zeros without one); the other columns are fields as in
    :func:`record_table`."""
    n = len(next(iter(columns.values())))
    isos = _days(start, n, columns.pop("date", None))
    ids = service_id if isinstance(service_id, list) else [service_id] * n
    services, dates = sorted(set(ids)), sorted(set(isos))
    days = [dates.index(iso) for iso in isos]
    ambient = np.full((len(dates), 24), 20.0)
    if "ambient_c" in columns:
        ambient[days] = columns.pop("ambient_c")
    load = np.array(columns.pop("load_kva", np.zeros((n, 24))), float)
    records = _table(service=[services.index(s) for s in ids], day=days,
                     load_row=np.arange(n), **columns)
    return ingest.Dataset(records, tuple(services), tuple(dates), ambient,
                          load)


def make_day(date=dt.date(2015, 7, 1), **values):
    """A one-row record table for estimation-style queries."""
    return record_table(date, **{name: [v] for name, v in values.items()})
