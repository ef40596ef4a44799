"""Cross-area estimation: inverse-distance weighting over cluster
centroids to estimate temperatures or life loss for transformers outside
the clustered dataset, plus the energy-to-average-load conversion for
areas with revenue (non-interval) meters.

One scoring core weights a chunk of queries: one
:func:`txrisk.features.encode`, one ``(rows, k)``
:func:`txrisk.features.distance` against the model's centroids (the same
dissimilarity as k-means) and one inverse-distance pass, with arrays over
the chunk's queries in the result. It adds each chunk's counts to those
of the whole input, which is then refused or warned about once: one
``MissingFeatureWarning`` naming the absent features and counting the
queries that lack them, one ``FarQueryWarning`` counting the far queries.
:func:`estimate` scores a table in memory as one chunk;
:func:`estimate_csv` streams ``query.csv`` into ``estimates.csv`` in
chunks of at most ``CHUNK_ROWS`` queries, so that its memory does not
grow with the file. :func:`estimate_day_temperature` is the one-day form.

:func:`query_tables` reads ``query.csv`` a chunk at a time through
:func:`txrisk.ingest.read_columns`, the one reader of every input table,
and :func:`read_query_csv` joins its tables. :func:`write_estimates_csv`
hands ``estimates.csv`` to :func:`txrisk.ingest.write_table` as columns."""

from __future__ import annotations

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
    TxRiskError,
    ZeroServicesError,
)
from .ingest import (
    FLAG_RULE,
    LOAD_MAX_KW,
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
ESTIMATES_HEADER = QUERY_HEADER + ["estimated_max_top_oil_c", "far_flag"]
# The record table of query days: one field per column, the date in ISO.
QUERY_DTYPE = np.dtype([("date", "U10")]
                       + [(name, "f8") for name in QUERY_HEADER[1:5]]
                       + [("weekday", "U1")])
# estimate_csv scores and writes at most this many queries at a time: as
# many rows as write_table lays out in one byte matrix.
CHUNK_ROWS = 4096
# The rules of the query numbers: temperatures in the range the weather
# file takes and a load within the meter file's, not negative and at most
# LOAD_MAX_KW.
_TEMPERATURE = number_rule(TEMP_MIN_C, TEMP_MAX_C,
                           "temperature {} outside plausible range")
_LOAD = number_rule(0.0, LOAD_MAX_KW, "negative load {}",
                    f"load {{}} kVA above the {LOAD_MAX_KW:g} kVA ceiling")


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


class _Counts:
    """What the queries scored so far add up to, over every chunk of one
    input: :func:`_score` adds each chunk and :func:`_settle` reports the
    sums once."""

    def __init__(self, model: ClusterModel):
        self.names = (model.schema.quantitative_names
                      + model.schema.nominal_names)
        self.rows = 0      # queries scored
        self.blind = 0     # queries with none of the model's features
        self.lacking = 0   # queries without some of them
        self.absent = np.zeros(len(self.names), bool)  # features lacked
        self.far = 0       # queries farther than the guard from all
        self.first_far = ""  # the first far query's index and date


def _values(model: ClusterModel, per_cluster_values) -> np.ndarray:
    """The per-cluster values in cluster order.

    Raises:
        KeyError: ``per_cluster_values`` does not cover every cluster.
    """
    ids = range(1, model.k + 1)
    missing = [cid for cid in ids if cid not in per_cluster_values]
    if missing:
        raise KeyError(f"per_cluster_values missing clusters {missing}")
    return np.array([per_cluster_values[cid] for cid in ids], dtype=float)


def _score(queries, model: ClusterModel, values: np.ndarray, counts: _Counts,
           strict: bool) -> EstimationResult | None:
    """The estimates of one chunk of queries, a record table, whose counts
    are added to ``counts``; None once the input is refused (a blind query,
    or a far one in strict mode), when only the counts are still needed."""
    start = counts.rows
    counts.rows += len(queries)
    quant, nom = ft.encode(queries, model.schema, model.norm_params,
                           allow_missing=True)
    gaps = np.concatenate([np.isnan(quant), nom < 0], axis=1)
    counts.blind += int(gaps.all(axis=1).sum())
    counts.lacking += int(gaps.any(axis=1).sum())
    counts.absent |= gaps.any(axis=0)
    if counts.blind:
        return None

    d = ft.distance((quant, nom), model.centroids, model.schema)
    n, k = d.shape
    far = (d.min(axis=1) > model.far_threshold if model.far_threshold > 0
           else np.zeros(n, dtype=bool))
    if far.any() and not counts.far:
        first = int(far.argmax())
        counts.first_far = f"query {start + first}" + (
            f" ({queries['date'][first]})"
            if "date" in (queries.dtype.names or ()) else "")
    counts.far += int(far.sum())
    if strict and counts.far:
        return None

    exact = d < ZERO_DISTANCE_EPS
    hit_rows = exact.any(axis=1)
    # Exact-hit rows divide by 1 here and are overwritten below.
    inv = 1.0 / np.where(hit_rows[:, None], 1.0, d)
    total = np.zeros(n)
    for c in range(k):
        total += inv[:, c]
    weights = inv / total[:, None]
    value = np.zeros(n)
    for c in range(k):
        value += weights[:, c] * values[c]

    hit = exact.argmax(axis=1)[hit_rows]
    weights[hit_rows] = np.eye(k)[hit]
    value[hit_rows] = values[hit]
    return EstimationResult(estimate=value, far_flag=far, distances=d,
                            weights=weights)


def _settle(counts: _Counts, model: ClusterModel, strict: bool) -> None:
    """Refuse the scored queries, or warn about them, once for all their
    chunks: a blind query first, then the features some lack, then the far
    queries. The warnings name the line that called the public function
    that called this one."""
    n = counts.rows
    if counts.blind:
        raise SchemaMismatchError(f"{counts.blind} of {n} queries lack every "
                                  f"model feature {list(counts.names)}")
    if counts.lacking:
        absent = [name for name, gap in zip(counts.names, counts.absent)
                  if gap]
        warnings.warn(
            f"{counts.lacking} of {n} queries lack features {absent}; their "
            "distances use the remaining features only",
            MissingFeatureWarning, stacklevel=3)
    if counts.far and strict:
        raise FarFromAllClustersError(
            f"{counts.far} of {n} queries are farther than the far-guard "
            f"threshold ({model.far_threshold:.6g}) from every cluster "
            f"centroid; the first is {counts.first_far}")
    if counts.far:
        warnings.warn(
            f"{counts.far} of {n} queries are far from all cluster centroids; "
            "their estimates are unreliable", FarQueryWarning,
            stacklevel=3)


def estimate(queries, model: ClusterModel,
             per_cluster_values: dict[int, float], *,
             strict: bool = False) -> EstimationResult:
    """Estimate a per-cluster quantity for every row of ``queries``, a
    record table such as :func:`read_query_csv` returns: the one-chunk case
    of :func:`estimate_csv`.

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
    counts = _Counts(model)
    result = _score(queries, model, _values(model, per_cluster_values),
                    counts, strict)
    _settle(counts, model, strict)
    return result


def estimate_csv(query_path, model: ClusterModel,
                 per_cluster_values: dict[int, float], out_path, *,
                 strict: bool = False) -> int:
    """:func:`estimate` of every query of the file ``query_path``, written
    to ``out_path`` as :func:`write_estimates_csv` writes them, in one pass
    over the file; returns the number of queries.

    Each table of :func:`query_tables` (a block of the file) is scored and
    written in chunks of at most ``CHUNK_ROWS`` queries, so no table over
    the whole file is held; the bytes, warnings and refusals are those of
    :func:`estimate` on :func:`read_query_csv`'s table. A refusal is raised
    once the whole file is read, so that a ParseError anywhere in it comes
    first, and leaves ``out_path`` partly written (the CLI writes it in a
    staging directory).

    Raises:
        ParseError: as :func:`read_query_csv`.
        SchemaMismatchError, FarFromAllClustersError, KeyError: as
            :func:`estimate`, with the counts of the whole file.
    """
    values = _values(model, per_cluster_values)
    counts = _Counts(model)
    refusal = []  # the encoding's refusal of a chunk, such as an unknown label

    def parts():
        for table in query_tables(query_path):
            # An empty file's one empty table is scored too, as estimate
            # scores it.
            for start in range(0, max(len(table), 1), CHUNK_ROWS):
                if refusal:
                    break
                queries = table[start:start + CHUNK_ROWS]
                try:
                    result = _score(queries, model, values, counts, strict)
                except TxRiskError as exc:
                    refusal.append(exc)
                    break
                if result is not None:
                    yield _estimate_columns(queries, result)

    write_table(out_path, ESTIMATES_HEADER, parts())
    if refusal:
        raise refusal[0]
    _settle(counts, model, strict)
    return counts.rows


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


def query_tables(path):
    """The query days of the file ``path`` (date, daily temperature
    summary, average service load, and weekday flag) as record tables of
    ``QUERY_DTYPE``, one per chunk that :func:`txrisk.ingest.read_columns`
    yields. The temperatures must lie in ``[TEMP_MIN_C, TEMP_MAX_C]``, as
    the weather file's do, and the load in ``[0, LOAD_MAX_KW]``, as the
    meter's.

    A file of no rows gives one empty table.

    Raises:
        ParseError: malformed file content or a value outside its range
            (row and column reported), after the tables of the rows before
            it.
    """
    dates = {}  # date -> code
    rules = [date_rule(dates), *[_TEMPERATURE] * 3, _LOAD, FLAG_RULE]
    isos = np.empty(0, "U10")  # each date's ISO text by code, built once
    for _, (codes, *numbers, weekdays) in read_columns(path, QUERY_HEADER,
                                                       rules):
        if len(isos) < len(dates):
            isos = np.concatenate([isos, [date.isoformat() for date in
                                          list(dates)[len(isos):]]])
        table = np.empty(len(codes), QUERY_DTYPE)
        table["date"] = isos[codes]
        for name, values in zip(QUERY_HEADER[1:5], numbers):
            table[name] = values
        table["weekday"] = np.where(weekdays, "Y", "N")
        yield table
    if not len(isos):  # no rows, so no dates
        yield np.empty(0, QUERY_DTYPE)


def read_query_csv(path) -> np.ndarray:
    """The query days of the file ``path`` as one record table of
    ``QUERY_DTYPE``: the tables of :func:`query_tables` joined.

    Raises:
        ParseError: malformed file content or a value outside its range
            (row and column reported).
    """
    return np.concatenate(list(query_tables(path)))


def _estimate_columns(queries, result: EstimationResult):
    """The ``estimates.csv`` columns of ``queries`` and their ``result``,
    as :func:`txrisk.ingest.write_table` takes them."""
    numbers = np.stack([queries[name] for name in QUERY_HEADER[1:5]], axis=1)
    return [queries["date"], (numbers, 2), queries["weekday"],
            (result.estimate, 1), np.where(result.far_flag, "Y", "N")]


def write_estimates_csv(queries, result: EstimationResult, path) -> None:
    """One output row per query day with its estimate and far flag."""
    write_table(path, ESTIMATES_HEADER, [_estimate_columns(queries, result)])
