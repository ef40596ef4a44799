"""Mixed-type weighted k-means over the residential service operation
dataset, plus cluster composition, month distribution, and the per-cluster
24-hour load/ambient profiles fed to the transformer simulation.

Centroids are per-feature means for numeric/ordinal features and modal
statuses for nominal features; dissimilarity is
:func:`txrisk.features.distance`. Initialization samples k distinct data
points with a seeded generator, so training is fully reproducible.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import features as ft
from .errors import (
    EmptyClusterWarning,
    EmptyMembersError,
    MissingProfileError,
    ParseError,
    TooFewPointsError,
)

MAX_ITERATIONS = 300
FAR_GUARD_PERCENTILE = 95.0


@dataclass(frozen=True)
class ClusterProfile:
    """Mean 24-hour member load (kVA per service) and ambient (°C) profiles."""

    load_kva: tuple[float, ...]
    ambient_c: tuple[float, ...]


@dataclass(frozen=True)
class Cluster:
    """One trained cluster: centroid, members, and size."""

    id: int
    centroid_numeric: dict[str, float]  # normalized space, numeric + ordinal
    centroid_nominal: dict[str, str]
    member_count: int
    member_refs: tuple[tuple[str, str], ...]  # (service_id, ISO date)


@dataclass(frozen=True)
class ClusterModel:
    """A trained clustering model plus everything needed to reuse it."""

    k: int
    clusters: tuple[Cluster, ...]
    schema: ft.FeatureSchema
    norm_params: ft.NormalizationParams
    seed: int
    objective: float
    profiles: dict[int, ClusterProfile] | None = None
    far_threshold: float = 0.0
    restarts: int = 1
    objective_trace: tuple[float, ...] | None = None

    def centroid_vector(self, cluster: Cluster) -> ft.EncodedVector:
        """Centroid as an encoded vector usable with features.distance."""
        q = tuple(cluster.centroid_numeric[n] for n in self.schema.quantitative_names)
        n = tuple(cluster.centroid_nominal[m] for m in self.schema.nominal_names)
        return ft.EncodedVector(quantitative=q, nominal=n)

    def member_day_counts(self) -> dict[int, int]:
        """Member-day count per cluster (each member is one service-day)."""
        return {c.id: c.member_count for c in self.clusters}


def _encode_arrays(records, schema: ft.FeatureSchema,
                   params: ft.NormalizationParams):
    """Vectorize records into a quantitative matrix and nominal code matrix."""
    n = len(records)
    q_names = schema.quantitative_names
    n_names = schema.nominal_names
    quant = np.empty((n, len(q_names)), dtype=np.float64)
    nom = np.empty((n, len(n_names)), dtype=np.int64)
    status_index = {
        name: {s: i for i, s in enumerate(schema.feature(name).statuses)}
        for name in n_names
    }
    for i, rec in enumerate(records):
        enc = ft.encode(rec, schema, params)
        quant[i, :] = enc.quantitative
        for j, name in enumerate(n_names):
            nom[i, j] = status_index[name][enc.nominal[j]]
    return quant, nom


def _point_centroid_distances(quant, nom, w_q, w_n, cent_q, cent_n):
    """(n, k) weighted mixed dissimilarities of all points to all centroids.

    Each entry is built by the same operations, in the same order, as
    :func:`txrisk.features.distance`: ``(w * diff) * diff`` per
    quantitative feature, then the weight of each mismatched nominal
    feature, added one feature at a time in schema order. Only elementwise
    arithmetic is used, so the result does not depend on the numpy build.
    """
    d = np.zeros((quant.shape[0], cent_q.shape[0]))
    for j in range(quant.shape[1]):
        diff = quant[:, j, None] - cent_q[None, :, j]
        d += (w_q[j] * diff) * diff
    for j in range(nom.shape[1]):
        d += np.where(nom[:, j, None] != cent_n[None, :, j], w_n[j], 0.0)
    return d


def _column_means(rows) -> tuple[float, ...]:
    """Column means of equal-length rows: each column's correctly rounded
    sum (``math.fsum``) divided by the row count, so the result depends on
    the values alone, not on their order or the summation hardware."""
    return tuple(math.fsum(col) / len(rows) for col in zip(*rows))


def _linear_percentile(values, q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order
    statistics (numpy's default "linear" method, written out so that its
    rounding is fixed): with the values sorted as x_0 <= ... <= x_{n-1} and
    h = (n - 1) q / 100 taken exactly, the result is
    x_i + (h - i) (x_{i+1} - x_i) for i = floor(h)."""
    xs = sorted(values)
    h = (len(xs) - 1) * Fraction(q) / 100
    i = math.floor(h)
    frac = float(h - i)
    if frac == 0.0:
        return xs[i]
    return xs[i] + frac * (xs[i + 1] - xs[i])


def _update_centroids(quant, nom, labels, k, n_statuses, exact=False):
    """Per-cluster quantitative means and nominal modes.

    With ``exact``, each mean is :func:`_column_means` of the members;
    otherwise numpy's vectorized mean, whose last bits may vary with the
    numpy build (fine inside Lloyd, never stored). Modal ties break toward
    the lowest status index, i.e. schema order. Empty clusters keep
    NaN/-1 placeholders for the caller to repair.
    """
    cent_q = np.full((k, quant.shape[1]), np.nan)
    cent_n = np.full((k, nom.shape[1]), -1, dtype=np.int64)
    for c in range(k):
        mask = labels == c
        if not mask.any():
            continue
        if exact:
            cent_q[c] = _column_means(quant[mask].tolist())
        else:
            cent_q[c] = quant[mask].mean(axis=0)
        for j in range(nom.shape[1]):
            counts = np.bincount(nom[mask, j], minlength=n_statuses[j])
            cent_n[c, j] = int(np.argmax(counts))
    return cent_q, cent_n


def update_centroid(members, schema: ft.FeatureSchema):
    """Centroid of a member collection of encoded vectors.

    Returns (quantitative means dict, nominal modes dict); modal ties break
    by status order in the schema.

    Raises:
        EmptyMembersError: no members supplied.
    """
    members = list(members)
    if not members:
        raise EmptyMembersError("cannot compute the centroid of zero members")
    q_names = schema.quantitative_names
    n_names = schema.nominal_names
    means = {}
    for j, name in enumerate(q_names):
        means[name] = sum(m.quantitative[j] for m in members) / len(members)
    modes = {}
    for j, name in enumerate(n_names):
        statuses = schema.feature(name).statuses
        counts = {s: 0 for s in statuses}
        for m in members:
            counts[m.nominal[j]] += 1
        modes[name] = max(statuses, key=counts.__getitem__)  # ties keep schema order
    return means, modes


def kmeans(dataset, k: int, schema: ft.FeatureSchema, seed: int,
           restarts: int = 1, max_iterations: int = MAX_ITERATIONS,
           track_objective: bool = False) -> ClusterModel:
    """Train the mixed-type weighted k-means model.

    Alternates nearest-centroid assignment and centroid update until
    assignments stop changing (or ``max_iterations``). ``restarts`` reruns
    the whole procedure with fresh seeded initial centroids and keeps the
    lowest-objective result. Output is deterministic for a fixed seed.

    The returned floats are computed once, from the final memberships:
    each centroid component is ``math.fsum`` of the members' values divided
    by the member count (nominal components are the members' modes); each
    member's distance to its centroid is summed feature by feature in
    schema order, as in :func:`txrisk.features.distance`; ``objective`` is
    ``math.fsum`` of those distances and is also the last entry of
    ``objective_trace``; ``far_threshold`` is their
    ``FAR_GUARD_PERCENTILE``-th percentile by :func:`_linear_percentile`.
    Their bits depend on the inputs and the seed alone.

    Raises:
        TooFewPointsError: fewer records than clusters.
    """
    records = list(dataset)
    n = len(records)
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if n < k:
        raise TooFewPointsError(f"{n} records cannot form {k} clusters")

    params = ft.fit_normalization(records, schema)
    quant, nom = _encode_arrays(records, schema, params)
    w_q = np.asarray(schema.quantitative_weights(), dtype=np.float64)
    w_n = np.asarray(schema.nominal_weights(), dtype=np.float64)
    n_statuses = [len(schema.feature(name).statuses)
                  for name in schema.nominal_names]
    rng = np.random.default_rng(seed)

    best = None
    for _ in range(restarts):
        init = rng.choice(n, size=k, replace=False)
        result = _lloyd(quant, nom, w_q, w_n, n_statuses, init,
                        max_iterations, track_objective)
        if best is None or result[1] < best[1]:
            best = result
    labels, _, trace = best

    cent_q, cent_n = _update_centroids(quant, nom, labels, k, n_statuses,
                                       exact=True)
    member_dists = _point_centroid_distances(
        quant, nom, w_q, w_n, cent_q, cent_n)[np.arange(n), labels].tolist()
    objective = math.fsum(member_dists)
    far_threshold = _linear_percentile(member_dists, FAR_GUARD_PERCENTILE)

    clusters = []
    q_names = schema.quantitative_names
    n_names = schema.nominal_names
    for c in range(k):
        idx = np.flatnonzero(labels == c)
        refs = tuple((records[i].service_id, records[i].date.isoformat())
                     for i in idx)
        centroid_numeric = {name: float(cent_q[c, j])
                            for j, name in enumerate(q_names)}
        centroid_nominal = {
            name: schema.feature(name).statuses[int(cent_n[c, j])]
            for j, name in enumerate(n_names)
        }
        clusters.append(Cluster(
            id=c + 1,
            centroid_numeric=centroid_numeric,
            centroid_nominal=centroid_nominal,
            member_count=len(refs),
            member_refs=refs,
        ))

    return ClusterModel(
        k=k,
        clusters=tuple(clusters),
        schema=schema,
        norm_params=params,
        seed=seed,
        objective=objective,
        far_threshold=far_threshold,
        restarts=restarts,
        objective_trace=(*trace, objective) if track_objective else None,
    )


def _lloyd(quant, nom, w_q, w_n, n_statuses, init_idx, max_iterations,
           track_objective):
    """One k-means run from the given initial data-point indices.

    Returns the final labels, the vectorized objective used to rank
    restarts, and the objective trace (filled only with
    ``track_objective``; the caller appends the final objective).
    """
    k = len(init_idx)
    n = quant.shape[0]
    cent_q = quant[init_idx].copy()
    cent_n = nom[init_idx].copy()
    trace = []

    dists = _point_centroid_distances(quant, nom, w_q, w_n, cent_q, cent_n)
    labels = dists.argmin(axis=1)
    if track_objective:
        trace.append(float(dists[np.arange(n), labels].sum()))

    for _ in range(max_iterations):
        cent_q, cent_n = _update_centroids(quant, nom, labels, k, n_statuses)
        empties = [c for c in range(k) if np.isnan(cent_q[c]).any()]
        if empties:
            cur = _point_centroid_distances(quant, nom, w_q, w_n,
                                            np.nan_to_num(cent_q), cent_n)
            own = cur[np.arange(n), labels].copy()
            for c in empties:
                far = int(own.argmax())
                warnings.warn(
                    f"cluster {c + 1} became empty; centroid reseeded to the "
                    "point farthest from its own centroid",
                    EmptyClusterWarning, stacklevel=3)
                cent_q[c] = quant[far]
                cent_n[c] = nom[far]
                own[far] = -np.inf
        if track_objective:
            d_upd = _point_centroid_distances(quant, nom, w_q, w_n, cent_q, cent_n)
            trace.append(float(d_upd[np.arange(n), labels].sum()))

        dists = _point_centroid_distances(quant, nom, w_q, w_n, cent_q, cent_n)
        new_labels = dists.argmin(axis=1)
        if track_objective:
            trace.append(float(dists[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    # Tie-degenerate data (duplicate points) can leave a cluster empty at
    # convergence; hand the farthest point of a multi-member cluster over so
    # the returned model never contains an empty cluster.
    for c in range(k):
        if (labels == c).any():
            continue
        own = dists[np.arange(n), labels].copy()
        counts = np.bincount(labels, minlength=k)
        own[counts[labels] <= 1] = -np.inf
        far = int(own.argmax())
        warnings.warn(
            f"cluster {c + 1} empty at convergence; adopted the farthest "
            "point of a multi-member cluster",
            EmptyClusterWarning, stacklevel=3)
        cent_q[c] = quant[far]
        cent_n[c] = nom[far]
        labels[far] = c
        dists = _point_centroid_distances(quant, nom, w_q, w_n, cent_q, cent_n)

    return labels, float(dists[np.arange(n), labels].sum()), trace


def composition(model: ClusterModel) -> list[dict]:
    """Per-cluster composition rows in raw units.

    Numeric centroid components are mapped back through the inverse of the
    min-max normalization; ordinal components stay in their encoded scale.
    """
    rows = []
    for cluster in model.clusters:
        row = {"cluster_id": cluster.id, "member_count": cluster.member_count}
        for name in model.schema.numeric_names:
            row[name] = ft.denormalize(cluster.centroid_numeric[name],
                                       model.norm_params, name)
        for name in model.schema.ordinal_names:
            row[name] = cluster.centroid_numeric[name]
        for name in model.schema.nominal_names:
            row[name] = cluster.centroid_nominal[name]
        rows.append(row)
    return rows


def month_cluster_matrix(model: ClusterModel) -> np.ndarray:
    """12 x k member-day counts: rows are calendar months Jan..Dec, columns
    follow cluster id order; each member (service-day) counts once, so
    column sums equal cluster member counts."""
    matrix = np.zeros((12, model.k), dtype=np.int64)
    month_of = {}  # each distinct ISO date is parsed, and so checked, once
    for col, cluster in enumerate(model.clusters):
        counts = [0] * 12
        for _service, iso_date in cluster.member_refs:
            month = month_of.get(iso_date)
            if month is None:
                month = month_of[iso_date] = dt.date.fromisoformat(iso_date).month
            counts[month - 1] += 1
        matrix[:, col] = counts
    return matrix


def extract_profiles(model: ClusterModel, raw_day_profiles) -> dict[int, ClusterProfile]:
    """Hourwise mean member profiles per cluster.

    Each hour's mean is ``math.fsum`` of the members' values at that hour
    divided by the member count, so the stored profiles depend on the
    member profiles alone, not on their order or the numpy build.

    Args:
        raw_day_profiles: (service_id, ISO date) -> object with 24-entry
            ``load_kva`` and ``ambient_c`` sequences.

    Raises:
        MissingProfileError: a member has no stored raw profile.
    """
    out = {}
    for cluster in model.clusters:
        loads = []
        ambients = []
        for ref in cluster.member_refs:
            try:
                prof = raw_day_profiles[ref]
            except KeyError:
                raise MissingProfileError(
                    f"no raw 24-hour profile for member {ref}") from None
            if prof.load_kva is None:
                raise MissingProfileError(
                    f"member {ref} has energy-only metering, no hourly profile")
            loads.append(prof.load_kva)
            ambients.append(prof.ambient_c)
        out[cluster.id] = ClusterProfile(
            load_kva=_column_means(loads),
            ambient_c=_column_means(ambients),
        )
    return out


def train_model(records, raw_day_profiles, k: int, schema: ft.FeatureSchema,
                seed: int, restarts: int = 1) -> ClusterModel:
    """Full training pipeline: k-means plus per-cluster profile extraction."""
    model = kmeans(records, k, schema, seed, restarts=restarts)
    profiles = extract_profiles(model, raw_day_profiles)
    return replace(model, profiles=profiles)


def save_model(model: ClusterModel, path) -> None:
    """Serialize a trained model to its JSON interchange format.

    Floats are written at full precision (shortest round-trip repr). The
    stored values come from :func:`kmeans` and :func:`extract_profiles`,
    which compute each of them once by order-fixed arithmetic (``fsum``
    means, fixed-order distances, explicit percentile); ``centroid_raw``
    maps ``centroid_normalized`` back through
    :func:`txrisk.features.denormalize` in scalar Python. The file's bytes
    therefore depend on the inputs and the seed alone.
    """
    doc = {
        "k": model.k,
        "seed": model.seed,
        "restarts": model.restarts,
        "objective": model.objective,
        "far_threshold": model.far_threshold,
        "schema": model.schema.to_jsonable(),
        "normalization": model.norm_params.to_jsonable(),
        "clusters": [],
    }
    raw_rows = {row["cluster_id"]: row for row in composition(model)}
    for cluster in model.clusters:
        raw = raw_rows[cluster.id]
        entry = {
            "id": cluster.id,
            "member_count": cluster.member_count,
            "centroid_normalized": dict(cluster.centroid_numeric),
            "centroid_raw": {name: raw[name]
                             for name in model.schema.numeric_names},
            "centroid_nominal": dict(cluster.centroid_nominal),
            "members": [list(ref) for ref in cluster.member_refs],
        }
        if model.profiles is not None:
            prof = model.profiles[cluster.id]
            entry["profile"] = {
                "load_kva": list(prof.load_kva),
                "ambient_c": list(prof.ambient_c),
            }
        doc["clusters"].append(entry)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _checked_profile(cluster_id, doc) -> ClusterProfile:
    """A stored profile: 24 finite hourly values each, loads >= 0."""
    profile = ClusterProfile(
        load_kva=tuple(float(v) for v in doc["load_kva"]),
        ambient_c=tuple(float(v) for v in doc["ambient_c"]),
    )
    if (len(profile.load_kva) != 24 or len(profile.ambient_c) != 24
            or not all(map(math.isfinite, profile.load_kva + profile.ambient_c))
            or min(profile.load_kva) < 0):
        raise ValueError(f"cluster {cluster_id} profile needs 24 finite hourly "
                         "values each and no negative load")
    return profile


def load_model(path) -> ClusterModel:
    """Load a model saved by :func:`save_model`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read cluster model: {exc}", path=path) from exc
    try:
        schema = ft.FeatureSchema.from_jsonable(doc["schema"])
        params = ft.NormalizationParams.from_jsonable(doc["normalization"])
        clusters = []
        profiles = {}
        for entry in doc["clusters"]:
            clusters.append(Cluster(
                id=int(entry["id"]),
                centroid_numeric={k: float(v) for k, v
                                  in entry["centroid_normalized"].items()},
                centroid_nominal=dict(entry["centroid_nominal"]),
                member_count=int(entry["member_count"]),
                member_refs=tuple((s, d) for s, d in entry["members"]),
            ))
            if "profile" in entry:
                profiles[int(entry["id"])] = _checked_profile(
                    entry["id"], entry["profile"])
        return ClusterModel(
            k=int(doc["k"]),
            clusters=tuple(clusters),
            schema=schema,
            norm_params=params,
            seed=int(doc["seed"]),
            objective=float(doc["objective"]),
            profiles=profiles or None,
            far_threshold=float(doc.get("far_threshold", 0.0)),
            restarts=int(doc.get("restarts", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed cluster model: {exc}", path=path) from exc
