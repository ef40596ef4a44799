"""Cross-area estimation: inverse-distance weighting over cluster
centroids to estimate temperatures or life loss for transformers outside
the clustered dataset, plus the energy-to-average-load conversion for
areas with revenue (non-interval) meters.

:func:`estimate` scores a whole query table at once: one
:func:`txrisk.features.encode`, one ``(n, k)``
:func:`txrisk.features.distance` against the model's centroids (the same
dissimilarity as k-means) and one inverse-distance pass, with arrays over
the queries in the result. It warns at most once per kind: one
``MissingFeatureWarning`` naming the absent features and counting the
queries that lack them, one ``FarQueryWarning`` counting the far queries.
:func:`estimate_day_temperature` is the one-day form.

:func:`read_query_csv` reads ``query.csv`` through
:func:`txrisk.ingest.read_columns`, the one reader of every input table.
:func:`write_estimates_csv` hands ``estimates.csv`` to
:func:`txrisk.ingest.write_table` as columns."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import features as ft, riskassess, thermal
from .clustering import ClusterModel
from .errors import (
    FarFromAllClustersError,
    FarQueryWarning,
    MissingFeatureWarning,
    SchemaMismatchError,
    ZeroServicesError,
)
from .ingest import (
    FLAG_RULE,
    TEMP_MAX_C,
    TEMP_MIN_C,
    date_rule,
    number_rule,
    read_columns,
    write_table,
)

# Below this dissimilarity a query is treated as sitting exactly on the
# centroid, sidestepping the 1/d blow-up.
ZERO_DISTANCE_EPS = 1e-9

QUERY_HEADER = ["date", "t_max_c", "t_min_c", "t_avg_c", "l_avg_kva", "weekday"]
# The record table of query days: one field per column, the date in ISO.
QUERY_DTYPE = np.dtype([("date", "U10")]
                       + [(name, "f8") for name in QUERY_HEADER[1:5]]
                       + [("weekday", "U1")])
# The rules of the query numbers: temperatures in the range the weather
# file takes and a load that is not negative, as the meter file's.
_TEMPERATURE = number_rule(TEMP_MIN_C, TEMP_MAX_C,
                           "temperature {} outside plausible range")
_LOAD = number_rule(0.0, math.inf, "negative load {}")


@dataclass(frozen=True)
class EstimationResult:
    """Inverse-distance-weighted estimates and their diagnostics: row ``i``
    is query ``i`` and column ``c`` is cluster ``c + 1``.
    :func:`estimate_day_temperature` returns a single row: a ``float``, a
    ``bool`` and two ``(k,)`` arrays."""

    estimate: np.ndarray   # (n,)
    far_flag: np.ndarray   # (n,) bool
    distances: np.ndarray  # (n, k)
    weights: np.ndarray    # (n, k); one-hot on an exact hit


def estimate(queries, model: ClusterModel,
             per_cluster_values: dict[int, float], *,
             strict: bool = False) -> EstimationResult:
    """Estimate a per-cluster quantity for every row of ``queries``, a
    record table such as :func:`read_query_csv` returns.

    Weights are proportional to the inverse dissimilarity between a query
    and each cluster centroid (the model's own weighted mixed
    dissimilarity), so each estimate is a convex combination of the
    per-cluster values; the inverses and the weighted values are added one
    cluster at a time in cluster order. A query within
    ``ZERO_DISTANCE_EPS`` of a centroid takes the value of the first such
    cluster exactly. Queries farther from every centroid than the model's
    far guard are flagged; in strict mode they are refused. Every row is
    computed as it would be alone.

    Raises:
        SchemaMismatchError: a query has none of the model's features.
        FarFromAllClustersError: strict mode and a query is outside the
            model's support; the message names the first one.
        KeyError: ``per_cluster_values`` does not cover every cluster.
    """
    ids = range(1, model.k + 1)
    missing = [cid for cid in ids if cid not in per_cluster_values]
    if missing:
        raise KeyError(f"per_cluster_values missing clusters {missing}")
    values = np.array([per_cluster_values[cid] for cid in ids], dtype=float)
    n = len(queries)

    quant, nom = ft.encode(queries, model.schema, model.norm_params,
                           allow_missing=True)
    gaps = np.concatenate([np.isnan(quant), nom < 0], axis=1)
    names = model.schema.quantitative_names + model.schema.nominal_names
    blind = int(gaps.all(axis=1).sum())
    if blind:
        raise SchemaMismatchError(f"{blind} of {n} queries lack every model "
                                  f"feature {list(names)}")
    if gaps.any():
        absent = [name for name, gap in zip(names, gaps.any(axis=0)) if gap]
        warnings.warn(
            f"{int(gaps.any(axis=1).sum())} of {n} queries lack features "
            f"{absent}; their distances use the remaining features only",
            MissingFeatureWarning, stacklevel=2)

    d = ft.distance((quant, nom), model.centroids, model.schema)

    far = (d.min(axis=1) > model.far_threshold if model.far_threshold > 0
           else np.zeros(n, dtype=bool))
    if far.any():
        count, first = int(far.sum()), int(far.argmax())
        if strict:
            raise FarFromAllClustersError(
                f"{count} of {n} queries are farther than the far-guard "
                f"threshold ({model.far_threshold:.6g}) from every cluster "
                f"centroid; the first is query {first}"
                + (f" ({queries['date'][first]})"
                   if "date" in (queries.dtype.names or ()) else ""))
        warnings.warn(
            f"{count} of {n} queries are far from all cluster centroids; "
            "their estimates are unreliable", FarQueryWarning, stacklevel=2)

    exact = d < ZERO_DISTANCE_EPS
    hit_rows = exact.any(axis=1)
    # Exact-hit rows divide by 1 here and are overwritten below.
    inv = 1.0 / np.where(hit_rows[:, None], 1.0, d)
    total = np.zeros(n)
    for c in range(len(ids)):
        total += inv[:, c]
    weights = inv / total[:, None]
    value = np.zeros(n)
    for c in range(len(ids)):
        value += weights[:, c] * values[c]

    hit = exact.argmax(axis=1)[hit_rows]
    weights[hit_rows] = np.eye(len(ids))[hit]
    value[hit_rows] = values[hit]
    return EstimationResult(estimate=value, far_flag=far, distances=d,
                            weights=weights)


def avg_load_from_energy(daily_energy_kwh, service_count: int) -> float:
    """Average per-service load (kVA at unity power factor) from one day of
    revenue-meter energy readings: sum(E_i) / (24 n)."""
    if service_count < 1:
        raise ZeroServicesError("service_count must be >= 1")
    energies = list(daily_energy_kwh)
    if len(energies) != service_count:
        raise ValueError(
            f"expected {service_count} readings, got {len(energies)}")
    if any(e < 0 for e in energies):
        raise ValueError("daily energies must be >= 0")
    return sum(energies) / (24.0 * service_count)


def cluster_max_top_oil(model: ClusterModel, spec: thermal.TransformerSpec,
                        service_count: int) -> dict[int, float]:
    """Per-cluster maximum top-oil °C when each cluster profile supplies
    ``service_count`` services: the one column of
    :func:`txrisk.riskassess.service_grid` at that count, all clusters
    simulated as one batch; computed once and reused across queries.

    Raises:
        ConfigError: the model has no profiles, or ``service_count``
            services load a cluster above ``thermal.MAX_LOAD_PU``.
        ParseError: one service alone loads a cluster above that ceiling.
    """
    grid = riskassess.service_grid(spec, model, (service_count,))
    return dict(zip(range(1, model.k + 1), grid.max_top_oil[:, 0].tolist()))


def estimate_day_temperature(day, model: ClusterModel,
                             service_count: int, spec: thermal.TransformerSpec,
                             per_cluster_temps: dict[int, float] | None = None,
                             *, strict: bool = False) -> EstimationResult:
    """Estimated maximum top-oil temperature for one day (a one-row record
    table) at a transformer with ``service_count`` services, weighted
    across cluster centroids: the only row of :func:`estimate`, with a
    ``float`` estimate, a ``bool`` far flag and ``(k,)`` distances and
    weights."""
    if len(day) != 1:
        raise ValueError(f"expected a one-row table, got {len(day)} rows")
    if per_cluster_temps is None:
        per_cluster_temps = cluster_max_top_oil(model, spec, service_count)
    result = estimate(day, model, per_cluster_temps, strict=strict)
    return EstimationResult(estimate=float(result.estimate[0]),
                            far_flag=bool(result.far_flag[0]),
                            distances=result.distances[0],
                            weights=result.weights[0])


def read_query_csv(path) -> np.ndarray:
    """Read estimation query days (date, daily temperature summary, average
    service load, and weekday flag) into a record table of
    ``QUERY_DTYPE``, through :func:`txrisk.ingest.read_columns`. The
    temperatures must lie in ``[TEMP_MIN_C, TEMP_MAX_C]``, as the weather
    file's do, and the load must not be negative, as the meter's.

    Raises:
        ParseError: malformed file content or a value outside its range
            (row and column reported).
    """
    dates = {}  # date -> code
    rules = [date_rule(dates), *[_TEMPERATURE] * 3, _LOAD, FLAG_RULE]
    parts, days = [], []
    for _, (codes, *numbers, weekdays) in read_columns(path, QUERY_HEADER,
                                                       rules):
        part = np.empty(len(codes), QUERY_DTYPE)
        for name, values in zip(QUERY_HEADER[1:5], numbers):
            part[name] = values
        part["weekday"] = np.where(weekdays, "Y", "N")
        parts.append(part)
        days.append(codes)
    if not parts:
        return np.empty(0, QUERY_DTYPE)
    table = np.concatenate(parts)
    # Each date's ISO text is built once.
    table["date"] = np.array([date.isoformat() for date in dates])[
        np.concatenate(days)]
    return table


def write_estimates_csv(queries, result: EstimationResult, path) -> None:
    """One output row per query day with its estimate and far flag."""
    numbers = np.stack([queries[name] for name in QUERY_HEADER[1:5]], axis=1)
    write_table(path, QUERY_HEADER + ["estimated_max_top_oil_c", "far_flag"],
                [[queries["date"], (numbers, 2), queries["weekday"],
                  (result.estimate, 1), np.where(result.far_flag, "Y", "N")]])
