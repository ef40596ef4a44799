"""Cross-area estimation: inverse-distance weighting over cluster
centroids to estimate temperatures or life loss for transformers outside
the clustered dataset, plus the energy-to-average-load conversion for
areas with revenue (non-interval) meters. Queries go through the same
:func:`txrisk.features.encode` and :func:`txrisk.features.distance` as
k-means."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from . import features as ft, thermal
from .clustering import ClusterModel
from .errors import (
    FarFromAllClustersError,
    FarQueryWarning,
    MissingFeatureWarning,
    ZeroServicesError,
)
from .ingest import _parse_date, _parse_flag, _parse_float, _read_table
from .riskassess import _cluster_days

# Below this dissimilarity a query is treated as sitting exactly on the
# centroid, sidestepping the 1/d blow-up.
ZERO_DISTANCE_EPS = 1e-9

QUERY_HEADER = ["date", "t_max_c", "t_min_c", "t_avg_c", "l_avg_kva", "weekday"]
# The record table of query days: one field per column, the date in ISO.
QUERY_DTYPE = np.dtype([("date", "U10")]
                       + [(name, "f8") for name in QUERY_HEADER[1:5]]
                       + [("weekday", "U1")])


@dataclass(frozen=True)
class EstimationResult:
    """Inverse-distance-weighted estimate and its diagnostics."""

    estimate: float
    per_cluster_distances: dict[int, float]
    weights: dict[int, float]
    far_flag: bool


def estimate(query, model: ClusterModel,
             per_cluster_values: dict[int, float], *,
             strict: bool = False) -> EstimationResult:
    """Estimate a per-cluster quantity for one query day: ``query`` is a
    one-row slice of a record table, e.g. ``queries[i:i + 1]`` of
    :func:`read_query_csv`.

    Weights are proportional to the inverse dissimilarity between the
    query and each cluster centroid (the model's own weighted mixed
    dissimilarity), so the estimate is a convex combination of the
    per-cluster values; a query on a centroid returns that cluster's value
    exactly. Queries farther from every centroid than the model's far
    guard are flagged; in strict mode they are refused.

    Raises:
        FarFromAllClustersError: strict mode and the query is outside the
            model's support.
        KeyError: ``per_cluster_values`` does not cover every cluster.
    """
    missing = [c.id for c in model.clusters if c.id not in per_cluster_values]
    if missing:
        raise KeyError(f"per_cluster_values missing clusters {missing}")

    quant, nom = ft.encode(query, model.schema, model.norm_params,
                           allow_missing=True)
    gaps = np.isnan(quant[0]).tolist() + (nom[0] < 0).tolist()
    absent = [name for name, gap in zip(model.schema.quantitative_names
                                        + model.schema.nominal_names, gaps) if gap]
    if absent:
        warnings.warn(
            f"query lacks features {absent}; distances use the remaining "
            "features only", MissingFeatureWarning, stacklevel=2)

    row = ft.distance((quant, nom), model.centroids, model.schema)[0].tolist()
    dists = {c.id: d for c, d in zip(model.clusters, row)}

    far = model.far_threshold > 0 and min(dists.values()) > model.far_threshold
    if far:
        if strict:
            raise FarFromAllClustersError(
                "query is farther than the far-guard threshold "
                f"({model.far_threshold:.6g}) from every cluster centroid")
        warnings.warn(
            "query is far from all cluster centroids; the estimate is "
            "unreliable", FarQueryWarning, stacklevel=2)

    exact = [cid for cid, d in sorted(dists.items()) if d < ZERO_DISTANCE_EPS]
    if exact:
        hit = exact[0]
        weights = {cid: (1.0 if cid == hit else 0.0) for cid in dists}
        return EstimationResult(
            estimate=float(per_cluster_values[hit]),
            per_cluster_distances=dists,
            weights=weights,
            far_flag=far,
        )

    inv = {cid: 1.0 / d for cid, d in dists.items()}
    total = sum(inv.values())
    weights = {cid: v / total for cid, v in inv.items()}
    value = sum(weights[cid] * per_cluster_values[cid] for cid in weights)
    return EstimationResult(
        estimate=float(value),
        per_cluster_distances=dists,
        weights=weights,
        far_flag=far,
    )


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
    ``service_count`` services, all clusters simulated as one batch;
    computed once and reused across queries.

    Raises:
        ConfigError: the model has no profiles, or ``service_count``
            services load a cluster above ``thermal.MAX_LOAD_PU``.
        ParseError: one service alone loads a cluster above that ceiling.
    """
    ambient, load_pu = _cluster_days(spec, model, (service_count,))
    trace = thermal.simulate_day(spec, ambient[:, 0], load_pu[:, 0])
    return dict(zip((c.id for c in model.clusters),
                    trace.top_oil.max(axis=1).tolist()))


def estimate_day_temperature(day, model: ClusterModel,
                             service_count: int, spec: thermal.TransformerSpec,
                             per_cluster_temps: dict[int, float] | None = None,
                             *, strict: bool = False) -> EstimationResult:
    """Estimated maximum top-oil temperature for one day (a one-row slice
    of a record table) at a transformer with ``service_count`` services,
    weighted across cluster centroids."""
    if per_cluster_temps is None:
        per_cluster_temps = cluster_max_top_oil(model, spec, service_count)
    return estimate(day, model, per_cluster_temps, strict=strict)


def read_query_csv(path) -> np.ndarray:
    """Read estimation query days (date, daily temperature summary, average
    service load, and weekday flag) into a record table of
    ``QUERY_DTYPE``."""
    rows = _read_table(path, [QUERY_HEADER])
    next(rows)
    out = []
    for i, row in rows:
        date = _parse_date(row[0], path, i).isoformat()
        numbers = [_parse_float(row[j], path, i, name)
                   for j, name in enumerate(QUERY_HEADER[1:5], start=1)]
        _parse_flag(row[5], path, i, "weekday")
        out.append((date, *numbers, row[5]))
    return np.array(out, dtype=QUERY_DTYPE)


def write_estimates_csv(queries, results, path) -> None:
    """One output row per query day with the estimate and far flag."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(QUERY_HEADER + ["estimated_max_top_oil_c", "far_flag"])
        for query, result in zip(queries[QUERY_HEADER].tolist(), results):
            date, *numbers, weekday = query
            writer.writerow([date, *(f"{v:.2f}" for v in numbers), weekday,
                             f"{result.estimate:.1f}",
                             "Y" if result.far_flag else "N"])
