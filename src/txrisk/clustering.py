"""Mixed-type weighted k-means over the residential service operation
dataset, plus cluster composition, month distribution, and the per-cluster
24-hour load/ambient profiles fed to the transformer simulation.

Centroids are per-feature means for numeric/ordinal features and modal
statuses for nominal features; records are encoded by
:func:`txrisk.features.encode` and every dissimilarity is
:func:`txrisk.features.distance`. Initialization samples k distinct data
points with :class:`txrisk.sampling.Sampler`, the seeded draw of numpy's
``default_rng(seed).choice`` in Python integers, so training is fully
reproducible whatever the numpy release.

Lloyd's iterations skip most point–centroid evaluations with Hamerly's
triangle-inequality bounds ("Making k-means even faster", SDM 2010; after
Elkan, ICML 2003). The square root of the distance is a metric on
gap-free points, so a point whose upper bound to its own centroid is
below its lower bound to every other centroid, by a relative margin,
keeps its label; every other point is evaluated against every centroid.
The labels are those of full evaluation in every iteration, bit for bit.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import features as ft
from .errors import (
    EmptyClusterWarning,
    ParseError,
    TooFewPointsError,
    json_integer,
    json_number,
    read_json,
)
from .ingest import TEMP_MAX_C, TEMP_MIN_C, run_heads, iso_date
from .sampling import Sampler
from .summation import member_means

MAX_ITERATIONS = 300
FAR_GUARD_PERCENTILE = 95.0
# Relative slack of Lloyd's bounds (see _lloyd): far above the rounding of
# a distance, its square root and a sum of bounds, far below any distance
# gap that decides a label in practice.
_BOUND_MARGIN = 1e-9
# Lloyd takes the distances of at most this many points in one
# features.distance call, so that its temporaries (a copy of the points'
# features and a few arrays of one value per point and centroid) stay
# near 1 MB at any record count. kmeans ran no slower than with whole
# columns on 40 x 730 and 200 x 730 inputs (2-CPU Xeon, numpy 2.4).
_BLOCK_ROWS = 1 << 13


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """A trained clustering model plus everything needed to reuse it.

    Per-cluster data are read-only arrays with cluster ``c + 1`` at row
    ``c``: ``centroids`` is the ``(quant (k, q), nom (k, m))`` pair in the
    form of :func:`txrisk.features.encode`, ``member_counts`` the ``(k,)``
    member-day counts, and ``profiles`` the ``(load_kva, ambient_c)`` pair
    of ``(k, 24)`` mean member profiles (kVA per service, °C), or None.
    The member days are two arrays, cluster 1's first, each cluster's in
    table order, so ``member_counts`` splits them: ``member_services``,
    each member's code in the sorted id table ``service_ids``, and
    ``member_days``, each member's date as its day number
    (``date.toordinal()``). ``member_rows`` are their rows in the table
    :func:`kmeans` read (None for a model read from a file).

    Raises:
        ValueError: ``profiles`` are not two ``(k, 24)`` arrays of finite
            values, loads >= 0 and ambients within the weather range (as a
            mean of readings is); the message names the first bad cluster.
    """

    service_ids: tuple[str, ...]
    member_services: np.ndarray
    member_days: np.ndarray
    centroids: tuple[np.ndarray, np.ndarray]
    member_counts: np.ndarray
    schema: ft.FeatureSchema
    norm_params: ft.NormalizationParams
    seed: int
    objective: float
    profiles: tuple[np.ndarray, np.ndarray] | None = None
    far_threshold: float = 0.0
    restarts: int = 1
    objective_trace: tuple[float, ...] | None = None
    member_rows: np.ndarray | None = None

    def __post_init__(self):
        if self.profiles is None:
            return
        load, ambient = self.profiles
        if np.shape(load) != (self.k, 24) or np.shape(ambient) != (self.k, 24):
            raise ValueError(f"profiles need two ({self.k}, 24) arrays, got "
                             f"{np.shape(load)} and {np.shape(ambient)}")
        good = (np.isfinite(load) & np.isfinite(ambient) & (load >= 0)
                & (TEMP_MIN_C <= ambient) & (ambient <= TEMP_MAX_C))
        if not good.all():
            raise _profile_error(int(good.all(axis=1).argmin()) + 1)

    @property
    def k(self) -> int:
        return len(self.member_counts)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _linear_percentile(values, q: float) -> float:
    """The ``q``-th percentile by linear interpolation between order
    statistics (numpy's default "linear" method, written out so that its
    rounding is fixed): with the values sorted as x_0 <= ... <= x_{n-1} and
    h = (n - 1) q / 100 taken exactly, the result is
    x_i + (h - i) (x_{i+1} - x_i) for i = floor(h). ``values`` is a 1-D
    float array without NaN or -0.0, so its sort orders it as ``sorted``
    would."""
    xs = np.sort(values)
    h = (len(xs) - 1) * Fraction(q) / 100
    i = math.floor(h)
    frac = float(h - i)
    if frac == 0.0:
        return float(xs[i])
    return float(xs[i] + frac * (xs[i + 1] - xs[i]))


def _update_centroids(quant, nom, labels, k, member_rows=None):
    """Per-cluster quantitative means and nominal modes of the ``k``
    clusters that ``labels`` assigns, and their ``(k,)`` member counts:
    ``(cent_q, cent_n, counts)``.

    Inside Lloyd (no ``member_rows``) each mean is
    ``np.bincount(labels, weights=column) / count``: the members' values
    added in row order in plain doubles, then divided once, so it equals
    the left-to-right float sum over the members divided by the count
    whatever the numpy build. For the stored centroids ``member_rows`` is
    the stable argsort of ``labels`` and the means are correctly rounded
    (:func:`txrisk.summation.member_means`). Each mode is the most
    frequent status, ties going to the lowest status index, i.e. schema
    order. The counts are
    the first nominal feature's tally summed per cluster (every code of a
    training table is one of its statuses), or ``np.bincount(labels)``
    when the schema has no nominal feature. Empty clusters keep NaN/-1
    placeholders for the caller to repair.
    """
    cent_n = np.empty((k, nom.shape[1]), dtype=np.int64)
    counts = None
    for j, codes in enumerate(nom.T):
        statuses = int(codes.max(initial=0)) + 1
        tally = np.bincount(labels * statuses + codes,
                            minlength=k * statuses).reshape(k, statuses)
        cent_n[:, j] = tally.argmax(axis=1)
        if counts is None:
            counts = tally.sum(axis=1)
    if counts is None:
        counts = np.bincount(labels, minlength=k)
    cent_n[counts == 0] = -1
    if member_rows is not None:
        return member_means(quant, member_rows, counts), cent_n, counts
    cent_q = np.empty((k, quant.shape[1]))
    for j, col in enumerate(quant.T):
        cent_q[:, j] = np.bincount(labels, weights=col, minlength=k)
    with np.errstate(divide="ignore", invalid="ignore"):
        cent_q /= counts[:, None]
    return cent_q, cent_n, counts


def check_cluster_count(n: int, k: int) -> None:
    """Refuse ``k`` clusters of ``n`` records where ``n < k``.

    Raises:
        TooFewPointsError: fewer records than clusters.
    """
    if n < k:
        raise TooFewPointsError(f"{n} records cannot form {k} clusters")


def kmeans(dataset, k: int, schema: ft.FeatureSchema, seed: int,
           restarts: int = 1, track_objective: bool = False) -> ClusterModel:
    """Train the mixed-type weighted k-means model on the records of a
    :class:`txrisk.ingest.Dataset`, whose ``service`` and ``day`` codes
    become the model's member arrays.

    Alternates nearest-centroid assignment and centroid update until
    assignments stop changing (or ``MAX_ITERATIONS``). ``restarts`` reruns
    the whole procedure with fresh initial centroids and keeps the
    lowest-objective result. Restart ``r``'s initial centroids are the
    ``k`` distinct records of the ``r``-th ``choice(n, k)`` of one
    :class:`txrisk.sampling.Sampler` of ``seed``: the records that
    ``numpy.random.default_rng(seed)`` would pick by ``r`` calls of
    ``choice(n, size=k, replace=False)``, drawn without importing
    ``numpy.random``. Output is deterministic for a fixed seed.
    Lloyd evaluates the points ``_BLOCK_ROWS`` at a time, so its
    temporaries do not grow with the record count.
    Inside Lloyd each centroid mean is a row-order float sum divided by the
    member count (see :func:`_update_centroids`) and every dissimilarity
    is elementwise, so the labels, too, do not depend on the numpy build.

    Assignment uses Hamerly's bounds (see :func:`_lloyd`): a point is
    evaluated against every centroid only when its upper bound to its own
    centroid is not below ``(1 - 1e-9)`` times the larger of its lower
    bound to the others and half its centroid's distance to the nearest
    other centroid. A skipped point would keep its label under full
    evaluation, so the labels, the restart objective (the row-order sum of
    the own-centroid distances) and ``objective_trace`` are those of
    evaluating every point in every iteration. The bounds need gap-free
    points, so every numeric and ordinal value must be finite.

    The returned floats are computed once, from the final memberships:
    each centroid component is the bits of ``math.fsum`` of the members'
    values divided by the member count, by error-free extraction (see
    :func:`txrisk.summation.member_means`; nominal components are the
    members' modes);
    each member's distance to its centroid is that of
    :func:`txrisk.features.distance`, summed feature by feature in schema
    order, in one pass over the rows (:func:`_own_distances`);
    ``objective`` is
    ``math.fsum`` of those distances and is also the last entry of
    ``objective_trace``; ``far_threshold`` is their
    ``FAR_GUARD_PERCENTILE``-th percentile by :func:`_linear_percentile`.
    Their bits depend on the inputs and the seed alone.

    Raises:
        TooFewPointsError: fewer records than clusters.
        ValueError: a numeric or ordinal value is NaN or infinite (see
            :func:`txrisk.features.fit_normalization`).
    """
    records = dataset.records
    n = len(records)
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    check_cluster_count(n, k)

    params = ft.fit_normalization(records, schema)
    quant, nom = ft.encode(records, schema, params)
    sampler = Sampler(seed)

    best = None
    for _ in range(restarts):
        init = np.array(sampler.choice(n, k), np.int64)
        result = _lloyd(quant, nom, schema, init, track_objective)
        if best is None or result[1] < best[1]:
            best = result
    labels, _, trace = best

    member_rows = np.argsort(labels, kind="stable")
    cent_q, cent_n, counts = _update_centroids(quant, nom, labels, k,
                                               member_rows)
    member_dists = _own_distances((quant, nom), (cent_q, cent_n), labels,
                                  schema)
    objective = math.fsum(member_dists)  # value by value, with no list
    far_threshold = _linear_percentile(member_dists, FAR_GUARD_PERCENTILE)

    day_numbers = np.array([iso_date(text).toordinal()
                            for text in dataset.dates], np.int64)
    return ClusterModel(
        service_ids=tuple(dataset.services),
        member_services=_read_only(records["service"][member_rows]),
        member_days=_read_only(day_numbers[records["day"][member_rows]]),
        centroids=(_read_only(cent_q), _read_only(cent_n)),
        member_counts=_read_only(counts),
        schema=schema,
        norm_params=params,
        seed=seed,
        objective=objective,
        far_threshold=far_threshold,
        restarts=restarts,
        objective_trace=(*trace, objective) if track_objective else None,
        member_rows=_read_only(member_rows),
    )


def _lloyd(quant, nom, schema, init_idx, track_objective):
    """One k-means run from the given initial data-point indices, with
    Hamerly's bounds ("Making k-means even faster", SDM 2010).

    Returns the final labels, the objective used to rank restarts (the
    row-order sum of each point's distance to its own centroid), and the
    objective trace (filled only with ``track_objective``; the caller
    appends the final objective).

    The square root of :func:`txrisk.features.distance` is a metric on
    gap-free points: the l2 combination of a weighted Euclidean distance
    and the square root of a weighted Hamming distance. Each point keeps
    an upper bound ``upper`` on that root to its own centroid and a lower
    bound ``lower`` on it to every other centroid. When the centroids move,
    ``upper`` grows by its own centroid's move and ``lower`` shrinks by the
    largest move among the others, each move widened by ``_BOUND_MARGIN``
    to cover its rounding. A point keeps its label unevaluated while
    ``upper < max(lower, half[own]) * (1 - _BOUND_MARGIN)``, ``half`` being
    half of each centroid's distance to its nearest other centroid: every
    other centroid is then farther by more than the rounding of any of
    these distances, so a full evaluation would give the same label. Every
    other point is evaluated against every centroid and labelled by
    :func:`_nearest`, as a full Lloyd step labels it. An iteration that
    reseeds an empty cluster evaluates every point and resets the bounds.
    """
    k = len(init_idx)
    data = (quant, nom)
    cents = (quant[init_idx].copy(), nom[init_idx].copy())
    labels, upper, lower = _assign(data, cents, schema, np.arange(len(quant)))
    trace = []
    if track_objective:
        trace.append(float(_own_distances(data, cents, labels, schema).sum()))

    for _ in range(MAX_ITERATIONS):
        old = cents
        *cents, counts = _update_centroids(quant, nom, labels, k)
        empties = np.flatnonzero(counts == 0)
        if len(empties):
            own = _own_distances(data, cents, labels, schema)
            for c in empties.tolist():
                far = int(own.argmax())
                warnings.warn(
                    f"cluster {c + 1} became empty; centroid reseeded to the "
                    "point farthest from its own centroid",
                    EmptyClusterWarning, stacklevel=3)
                cents[0][c] = quant[far]
                cents[1][c] = nom[far]
                own[far] = -np.inf
            rows = np.arange(len(labels))
        else:
            # Rows 0..k-1 compare the old centroids with the new ones, rows
            # k..2k-1 the new ones with each other, in one call.
            roots = np.sqrt(ft.distance(
                tuple(np.concatenate(pair) for pair in zip(old, cents)),
                cents, schema))
            move = roots[:k].diagonal() * (1 + _BOUND_MARGIN)
            upper += move.take(labels)
            top = int(move.argmax())
            drop = np.full(k, move[top])
            drop[top] = np.delete(move, top).max(initial=0.0)
            lower -= drop.take(labels)
            between = roots[k:]
            np.fill_diagonal(between, np.inf)
            # max(lower, half of the distance to the nearest other centroid)
            bound = (between.min(axis=1) / 2).take(labels)
            np.maximum(bound, lower, out=bound)
            bound *= 1 - _BOUND_MARGIN
            rows = np.flatnonzero(~(upper < bound))
        if track_objective:
            trace.append(float(_own_distances(data, cents, labels,
                                              schema).sum()))
        evaluated, upper[rows], lower[rows] = _assign(data, cents, schema,
                                                      rows)
        converged = np.array_equal(evaluated, labels[rows])
        labels[rows] = evaluated
        if track_objective:
            trace.append(float(_own_distances(data, cents, labels,
                                              schema).sum()))
        if converged:
            break

    # Tie-degenerate data (duplicate points) can leave a cluster empty at
    # convergence; hand the farthest point of a multi-member cluster over so
    # the returned model never contains an empty cluster.
    counts = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(counts == 0).tolist():
        own = _own_distances(data, cents, labels, schema)
        own[counts[labels] <= 1] = -np.inf
        far = int(own.argmax())
        warnings.warn(
            f"cluster {c + 1} empty at convergence; adopted the farthest "
            "point of a multi-member cluster",
            EmptyClusterWarning, stacklevel=3)
        cents[0][c] = quant[far]
        cents[1][c] = nom[far]
        counts[labels[far]] -= 1
        counts[c] += 1
        labels[far] = c

    objective = float(_own_distances(data, cents, labels, schema).sum())
    return labels, objective, trace


def _assign(data, centroids, schema, rows):
    """Each of the rows ``rows``' nearest centroid by :func:`_nearest`,
    with the square roots of its distance to that centroid and to the
    nearest other one (inf when there is no other)."""
    labels = np.empty(len(rows), np.intp)
    upper, lower = np.empty(len(rows)), np.empty(len(rows))
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        dists = ft.distance(_take(data, rows[block]), centroids, schema)
        labels[block] = nearest = _nearest(dists)
        at = np.arange(len(nearest))
        upper[block] = np.sqrt(dists[at, nearest])
        dists[at, nearest] = np.inf
        lower[block] = np.sqrt(dists.min(axis=1))
    return labels, upper, lower


def _own_distances(data, centroids, labels, schema):
    """Each row's distance to its own centroid, in row order: the terms of
    :func:`txrisk.features.distance` in its order, each against the row's
    centroid component gathered by label, with its gap rule (a NaN or -1
    on either side adds nothing; a nominal match adds +0.0, which leaves a
    sum's bits as skipping it would). Each entry has the bits of the full
    ``(n, k)`` call's entry. ``_BLOCK_ROWS`` rows at a time, into buffers
    reused across features and blocks: fresh arrays per feature raised a
    40 x 730 ``cluster`` run's peak RSS by 0.35-0.7 MB."""
    (quant, nom), (cent_q, cent_n) = data, centroids
    own = np.zeros(len(labels))
    size = min(len(labels), _BLOCK_ROWS)
    gathered, diff, term = np.empty(size), np.empty(size), np.empty(size)
    codes = np.empty(size, np.int64)
    for start in range(0, len(labels), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        rows, out = labels[block], own[block]
        n = len(rows)
        v, d, t, c = gathered[:n], diff[:n], term[:n], codes[:n]
        for col, cent, w in zip(quant.T, cent_q.T,
                                schema.quantitative_weights()):
            x = col[block]
            np.take(cent, rows, out=v)
            np.subtract(x, v, out=d)
            np.multiply(d, w, out=t)
            t *= d
            if np.isnan(t).any():
                np.add(out, t, out=out, where=~(np.isnan(x) | np.isnan(v)))
            else:
                out += t
        for col, cent, w in zip(nom.T, cent_n.T, schema.nominal_weights()):
            x = col[block]
            np.take(cent, rows, out=c)
            mismatch = x != c
            mismatch &= (x >= 0) & (c >= 0)
            np.multiply(mismatch, w, out=t)
            out += t
    return own


def _take(data, rows):
    """The rows ``rows`` of an encoded ``(quant, nom)`` pair, column-major
    as :func:`txrisk.features.encode` gives them, so that
    :func:`txrisk.features.distance` reads their columns without a copy."""
    return tuple(part.T[:, rows].T for part in data)


def _nearest(dists):
    """Each row's nearest cluster in an ``(n, k)`` distance matrix, the
    first of equal minima as ``dists.argmin(axis=1)`` gives it: a running
    minimum over the contiguous columns of ``distance``'s column-major
    result, where only a strictly smaller distance moves a row to a later
    cluster. Lloyd's distances are never NaN, as ``distance`` skips a gap
    on either side, so no NaN rule is needed."""
    columns = dists.T
    best = columns[0].copy()
    labels = np.zeros(len(best), np.intp)
    for c in range(1, len(columns)):
        np.putmask(labels, columns[c] < best, c)
        np.minimum(best, columns[c], out=best)
    return labels


def composition(model: ClusterModel) -> list[dict]:
    """Per-cluster composition rows in raw units, by feature name.

    Numeric centroid components are mapped back through the inverse of the
    min-max normalization; ordinal components stay in their encoded scale;
    nominal components are status labels.
    """
    schema = model.schema
    cent_q, cent_n = model.centroids
    rows = []
    for c, (quant, codes) in enumerate(zip(cent_q.tolist(), cent_n.tolist())):
        named = dict(zip(schema.quantitative_names, quant))
        row = {"cluster_id": c + 1, "member_count": int(model.member_counts[c])}
        for name in schema.numeric_names:
            row[name] = ft.denormalize(named[name], model.norm_params, name)
        for name in schema.ordinal_names:
            row[name] = named[name]
        for name, code in zip(schema.nominal_names, codes):
            row[name] = schema.feature(name).statuses[code]
        rows.append(row)
    return rows


def month_cluster_matrix(model: ClusterModel) -> np.ndarray:
    """12 x k member-day counts: rows are calendar months Jan..Dec, columns
    follow cluster id order; each member (service-day) counts once, so
    column sums equal cluster member counts. Each distinct day's month is
    looked up once, from a sort of the day numbers (:func:`_codes`)."""
    days, codes = _codes(model.member_days)
    months = np.array([dt.date.fromordinal(day).month - 1
                       for day in days.tolist()], np.int64)
    cells = np.repeat(np.arange(model.k), model.member_counts) * 12 + months[codes]
    return np.bincount(cells, minlength=12 * model.k).reshape(model.k, 12).T


def extract_profiles(model: ClusterModel, dataset) -> tuple[np.ndarray, np.ndarray]:
    """Hourwise mean member profiles per cluster, from the
    :class:`txrisk.ingest.Dataset` ``model`` was trained on: each member's
    ``load_row`` of ``dataset.load`` and its date's row of
    ``dataset.ambient``. The ``(load_kva, ambient_c)`` pair of ``(k, 24)``
    arrays.

    Each hour's mean is the bits of ``math.fsum`` of the members' values
    at that hour divided by the member count, taken by error-free
    extraction (:func:`txrisk.summation.member_means`) on each grid's
    gathered rows, so the stored profiles depend on the member profiles
    alone, not on their order or the numpy build.
    """
    records, rows = dataset.records, model.member_rows
    return tuple(_read_only(member_means(values, rows, model.member_counts))
                 for values, rows in (
                     (dataset.load, records["load_row"][rows]),
                     (dataset.ambient, records["day"][rows])))


def train_model(dataset, k: int, schema: ft.FeatureSchema, seed: int,
                restarts: int = 1) -> ClusterModel:
    """Full training pipeline on a :class:`txrisk.ingest.Dataset`: k-means
    plus per-cluster profile extraction."""
    model = kmeans(dataset, k, schema, seed, restarts=restarts)
    return replace(model, profiles=extract_profiles(model, dataset))


def save_model(model: ClusterModel, path) -> None:
    """Serialize a trained model to its JSON interchange format.

    Floats are written at full precision (shortest round-trip repr). The
    stored values come from :func:`kmeans` and :func:`extract_profiles`,
    which compute each of them once by order-fixed arithmetic (correctly
    rounded means, fixed-order distances, explicit percentile);
    ``centroid_raw`` maps ``centroid_normalized`` back through
    :func:`txrisk.features.denormalize` in scalar Python. The file's bytes
    therefore depend on the inputs and the seed alone. The document is
    ``json.dumps(indent=2)`` text but for the member lists, which
    :func:`_write_members` writes in the same bytes from byte matrices;
    the file is written as bytes.

    Raises:
        ValueError: a stored float is NaN or infinite; nothing is written.
    """
    schema = model.schema
    doc = {
        "k": model.k,
        "seed": model.seed,
        "restarts": model.restarts,
        "objective": model.objective,
        "far_threshold": model.far_threshold,
        "schema": schema.to_jsonable(),
        "normalization": model.norm_params.to_jsonable(),
        "clusters": [],
    }
    for c, (raw, quant) in enumerate(zip(composition(model),
                                         model.centroids[0].tolist())):
        entry = {
            "id": c + 1,
            "member_count": raw["member_count"],
            "centroid_normalized": dict(zip(schema.quantitative_names, quant)),
            "centroid_raw": {name: raw[name] for name in schema.numeric_names},
            "centroid_nominal": {name: raw[name] for name in schema.nominal_names},
            "members": "\0",  # the slot of _write_members' text
        }
        if model.profiles is not None:
            load, ambient = model.profiles
            entry["profile"] = {"load_kva": load[c].tolist(),
                                "ambient_c": ambient[c].tolist()}
        doc["clusters"].append(entry)
    parts = json.dumps(doc, indent=2, allow_nan=False).split(_MEMBERS_SLOT)
    # Each distinct id and date is quoted once.
    ids = _quoted(model.service_ids)
    days, day_codes = _codes(model.member_days)
    dates = _quoted([dt.date.fromordinal(day).isoformat()
                     for day in days.tolist()])
    with open(path, "wb") as fh:
        fh.write(parts[0].encode())
        end = 0
        for count, part in zip(model.member_counts.tolist(), parts[1:]):
            start, end = end, end + count
            fh.write(_MEMBERS_KEY.encode())
            _write_members(fh, ids, dates, model.member_services[start:end],
                           day_codes[start:end])
            fh.write(part.encode())
        fh.write(b"\n")


# A cluster's "members" key in model.json. json.dumps with an indent runs
# the pure-Python encoder, which spent most of a model write on the member
# pairs, so save_model dumps "\0" in their place and writes each list in
# the bytes json.dumps gives it. No other key sits at this indent with
# that value. _scan_model reads the lists back by the same definitions.
_MEMBERS_KEY = '\n      "members": '
_MEMBERS_SLOT = _MEMBERS_KEY + '"\\u0000"'
_MEMBER_JSON = "        [\n          %s,\n          %s\n        ]"
_MEMBERS_OPEN, _MEMBER_SEP, _MEMBERS_CLOSE = "[\n", ",\n", "\n      ]"
# save_model lays out this many members at a time: the bytes of one chunk
# are held, not those of a whole cluster.
_MEMBER_ROWS = 8192


def _quoted(texts):
    """Each of ``texts`` as ``json.dumps`` writes it in a string, escapes
    and all but without the quotes, as the rows of a ``(len(texts),
    width)`` byte matrix, NUL after its end (a JSON string's ASCII text
    holds no NUL: it is escaped)."""
    quote = json.encoder.encode_basestring_ascii
    encoded = [quote(text)[1:-1].encode() for text in texts]
    width = max(map(len, encoded), default=0)
    return np.frombuffer(b"".join(text.ljust(width, b"\0")
                                  for text in encoded),
                         np.uint8).reshape(len(encoded), width)


def _write_members(fh, ids, dates, services, days):
    """Write a cluster's members, the codes ``services`` into the rows of
    the quoted ``ids`` and ``days`` into those of the quoted ``dates`` (see
    :func:`_quoted`), to the binary ``fh`` as ``json.dumps(indent=2)``
    writes the list at a cluster entry's indent.

    ``_MEMBER_ROWS`` members at a time are laid out as one ``(rows,
    stride)`` byte matrix of :func:`_member_fields`' layout, each field
    slot as wide as the widest id or date, with the fields' bytes gathered
    by code. The NULs after a shorter field are the keep mask's gaps: the
    chunk is written as the matrix's nonzero bytes, with no separator
    after the cluster's last member."""
    if not len(services):
        fh.write(b"[]")
        return
    layout, lead, date_at = _member_fields(ids.shape[1], dates.shape[1])
    fh.write(_MEMBERS_OPEN.encode())
    for start in range(0, len(services), _MEMBER_ROWS):
        chunk = slice(start, start + _MEMBER_ROWS)
        text = np.empty((len(services[chunk]), len(layout)), np.uint8)
        text[:] = layout
        text[:, lead:lead + ids.shape[1]] = ids[services[chunk]]
        text[:, date_at:date_at + dates.shape[1]] = dates[days[chunk]]
        text = text[text != 0]
        if chunk.stop >= len(services):
            text = text[:-len(_MEMBER_SEP)]
        fh.write(text)
    fh.write(_MEMBERS_CLOSE.encode())


def _member_fields(width, date_width):
    """The bytes of one member and its separator as save_model writes them,
    for ids of ``width`` and dates of ``date_width`` bytes, as a ``uint8``
    array with a NUL in place of each byte of the two fields, and the
    offsets of the id's and the date's first bytes."""
    text = (_MEMBER_JSON % tuple(f'"{chr(0) * n}"' for n in (width, date_width))
            + _MEMBER_SEP).encode()
    lead = text.index(b'"') + 1
    return (np.frombuffer(text, np.uint8), lead,
            text.index(b'"', lead + width + 1) + 1)


def _plain(fields):
    """Whether the contiguous ``S`` array ``fields`` holds only bytes that
    ``json`` reads as themselves in a string: printable ASCII but the
    quote and the backslash."""
    raw = fields.view(np.uint8)
    return bool(((raw - np.uint8(0x20)) < 0x5F).all()
                and not ((raw == ord('"')) | (raw == ord("\\"))).any())


def _scan_model(path):
    """A model file in the layout :func:`save_model` writes, with its
    member lists read as bytes: ``(doc, ids, dates, counts)``, ``doc`` the
    JSON document with each cluster's ``"members"`` set to ``"\\0"``,
    ``ids`` and ``dates`` each member's fields as ``S`` arrays, cluster 1's
    first, and ``counts`` the list lengths. None (the caller reads the file
    with ``json``, which reports any fault) unless every list sits at a
    cluster entry's ``"members"`` key, its ids all of one width and its
    dates of another, each member byte for byte in the layout, each field
    of bytes that ``json`` reads as themselves, and the rest of the file,
    a few percent of it, parses as it would with the lists in place: then
    ``json`` would give the same document.

    The field widths, and so the member stride, are those of the first
    member. A list's length is found by stride arithmetic: its last member
    is the first not followed by a comma. Its members are then one
    ``(count, stride)`` block of bytes, compared with the layout in one
    operation, and the next key is searched for from the list's end."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    buf = np.frombuffer(data, np.uint8)
    key, close = (_MEMBERS_KEY + "[").encode(), _MEMBERS_CLOSE.encode()
    _, lead, _ = _member_fields(0, 0)  # the offset of an id
    layout = None
    lists = []  # (the list's "[", its first member, its members, its end)
    at = data.find(key)
    while at >= 0:
        start = at + len(key) - 1
        first = start + len(_MEMBERS_OPEN)
        if data[start:start + 2] == b"[]":
            lists.append((start, first, 0, start + 2))
        elif data[start:first] != _MEMBERS_OPEN.encode():
            return None
        else:
            if layout is None:
                width = data.find(b'"', first + lead) - first - lead
                _, _, date_at = _member_fields(width, 0)
                date_width = data.find(b'"', first + date_at) - first - date_at
                if width < 1 or date_width < 1:
                    return None
                layout, _, _ = _member_fields(width, date_width)
                stride, sep = len(layout), len(_MEMBER_SEP)
            if first + stride > len(data):
                return None
            count = int((buf[first + stride - sep::stride] != ord(",")).argmax()) + 1
            end = first + count * stride - sep
            if data[end:end + len(close)] != close:
                return None
            lists.append((start, first, count, end + len(close)))
        at = data.find(key, lists[-1][3])
    if layout is None:
        return None
    struct = layout != 0  # a NUL of the layout is a field byte
    ids, dates = [], []
    for _, first, count, _ in lists:
        if not count:
            continue
        block = np.ndarray((count, stride), np.uint8, data, first, (stride, 1))
        wrong = block != layout
        wrong &= struct
        wrong[-1:, -sep:] = False  # the last member is followed by the close
        if wrong.any():
            return None
        ids.append(np.ndarray(count, f"S{width}", data, first + lead, (stride,)))
        dates.append(np.ndarray(count, f"S{date_width}", data, first + date_at,
                                (stride,)))
    ids, dates = np.concatenate(ids), np.concatenate(dates)
    if not (_plain(ids) and _plain(dates)):
        return None
    pieces, prev = [], 0
    for start, _, _, stop in lists:
        pieces += [data[prev:start], b'"\\u0000"']
        prev = stop
    skeleton = b"".join(pieces + [data[prev:]])
    # A CR would be a line feed to json's text-mode read.
    if skeleton.count(b"\\u0000") != len(lists) or b"\r" in skeleton:
        return None
    try:
        doc = json.loads(skeleton.decode("utf-8"))
    except (RecursionError, ValueError):
        return None
    entries = doc.get("clusters") if isinstance(doc, dict) else None
    if not (isinstance(entries, list) and len(entries) == len(lists) and all(
            isinstance(entry, dict) and entry.get("members") == "\0"
            for entry in entries)):
        return None
    return doc, ids, dates, np.array([count for _, _, count, _ in lists])


def _profile_error(cluster_id):
    return ValueError(f"cluster {cluster_id} profile needs 24 finite hourly "
                      "values each, no negative load and ambients within "
                      f"[{TEMP_MIN_C:g}, {TEMP_MAX_C:g}] °C")


def _profile_lists(cluster_id, doc):
    """A stored profile's ``(load_kva, ambient_c)`` lists of 24 numbers
    each (:func:`json_number`); :class:`ClusterModel` checks their values."""
    load, ambient = doc["load_kva"], doc["ambient_c"]
    try:
        if len(load) == len(ambient) == 24:
            return ([json_number(v, "load") for v in load],
                    [json_number(v, "ambient") for v in ambient])
    except (TypeError, ValueError):
        pass
    raise _profile_error(cluster_id)


def _checked_bounds(params: ft.NormalizationParams) -> ft.NormalizationParams:
    """Stored normalization bounds (finite once read), with lo <= hi."""
    for name, (lo, hi) in params.bounds.items():
        if not lo <= hi:
            raise ValueError(f"normalization bounds of {name!r} must be finite "
                             f"with lo <= hi, got [{lo!r}, {hi!r}]")
    return params


def _checked_centroid(cid, entry, schema: ft.FeatureSchema):
    """The centroid of a stored cluster with id ``cid``, which must have
    every schema feature: finite numeric/ordinal components and nominal
    labels among their statuses. Returns it as a row of each
    :func:`txrisk.features.encode` array."""
    if json_integer(entry["id"], f"cluster {cid} id") != cid:
        raise ValueError(f"cluster {cid} has id {entry['id']!r}; ids must run "
                         "1..k in file order")
    numeric = {name: json_number(v, f"cluster {cid} centroid {name!r}")
               for name, v in entry["centroid_normalized"].items()}
    nominal = dict(entry["centroid_nominal"])
    for names, part in ((schema.quantitative_names, numeric),
                        (schema.nominal_names, nominal)):
        for name in names:
            if name not in part:
                raise ValueError(f"cluster {cid} centroid lacks feature {name!r}")
    quant = [numeric[name] for name in schema.quantitative_names]
    codes = []
    for name in schema.nominal_names:
        statuses = schema.feature(name).statuses
        if nominal[name] not in statuses:
            raise ValueError(f"cluster {cid} centroid {name!r} is "
                             f"{nominal[name]!r}, not one of {list(statuses)}")
        codes.append(statuses.index(nominal[name]))
    return quant, codes


def _json_members(entries):
    """The members of parsed cluster entries, as :func:`_scan_model` gives
    them but with the fields as lists: ``(ids, dates, counts)``. A member
    that is not a pair or a service id that is not text is refused here,
    a date that is not text by :func:`_day_numbers`."""
    services, dates, counts = [], [], []
    for entry in entries:
        members = entry["members"]
        ids = [service for service, _ in members]
        services += ids
        dates += [date for _, date in members]
        counts.append(len(ids))
    if not set(map(type, services)) <= {str}:
        for service in dict.fromkeys(services):
            if not isinstance(service, str):
                raise ValueError(
                    f"cluster {_cluster_of(counts, services.index(service))} "
                    f"member service id {service!r} is not a non-blank string")
    return services, dates, np.array(counts)


def _cluster_of(counts, member):
    """The id of the cluster that holds member number ``member``."""
    return int(np.searchsorted(np.cumsum(counts), member, "right")) + 1


def _codes(values):
    """The sorted distinct values of the 1-D array ``values`` and each
    value's index among them. (``np.unique`` would import ``numpy.ma`` on
    its first call, 8 ms.)"""
    if not len(values):
        return values, np.empty(0, np.int64)
    ranked = np.sort(values)
    table = ranked[run_heads(ranked)]
    return table, np.searchsorted(table, values)


def _service_codes(ids):
    """The sorted distinct service ids of the members' id fields ``ids``
    (an ``S`` array of ASCII or a list of ``str``), as text, and each
    member's code among them. An ``S`` array of at most 8 bytes is sorted
    as the big-endian integers of its bytes, which order as the text does
    (numpy sorts an ``S`` array several times slower); other ids are coded
    through a dict."""
    if isinstance(ids, np.ndarray) and ids.itemsize <= 8:
        keys = np.zeros(len(ids), np.uint64)
        for column in ids.view(np.uint8).reshape(len(ids), -1).T:
            keys <<= 8
            keys |= column
        table, codes = _codes(keys)
        return [key.to_bytes(ids.itemsize, "big").decode()
                for key in table.tolist()], codes
    texts = _texts(ids)
    table = sorted(set(texts))
    code_of = {service: code for code, service in enumerate(table)}
    return table, np.fromiter(map(code_of.__getitem__, texts), np.int64,
                              len(texts))


def _texts(fields):
    """Member fields, an ``S`` array of ASCII or a list of ``str``, as a
    list of ``str``."""
    return fields.astype(str).tolist() if isinstance(fields, np.ndarray) else fields


# Each month's days and the days before it, in a common year (rows 0..11)
# and in a leap year (rows 12..23).
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31] * 2)
_MONTH_DAYS[13] = 29
_DAYS_BEFORE = np.concatenate([np.cumsum(part) - part for part in
                               np.split(_MONTH_DAYS, 2)])


def _iso_days(text):
    """The day numbers (``date.toordinal()``) of the ``(n, 10)`` bytes
    ``text``, each row a date as :func:`txrisk.ingest.iso_date` reads it,
    and whether each row is one: ``YYYY-MM-DD`` in ASCII digits, year 1 or
    later, month 1..12 and a day of that month. Each distinct year's first
    day and leap rule are taken from ``datetime``."""
    columns = text.T - np.uint8(ord("0"))  # "-" wraps to 253
    digits = columns[[0, 1, 2, 3, 5, 6, 8, 9]]
    good = ((digits.max(axis=0) <= 9) & (columns[4] == 253)
            & (columns[7] == 253))
    d = digits.astype(np.int64)
    year = d[0] * 1000 + d[1] * 100 + d[2] * 10 + d[3]
    month = d[4] * 10 + d[5]
    day = d[6] * 10 + d[7]
    good &= (year >= 1) & (month >= 1) & (month <= 12)
    year[~good] = 0
    # By year: the days before its January 1, and the offset of its rows in
    # _MONTH_DAYS (12 in a leap year).
    before = np.zeros(int(year.max()) + 1, np.int64)
    leap = np.zeros(len(before), np.int64)
    for y in np.flatnonzero(np.bincount(year)).tolist():
        if y:
            before[y] = dt.date(y, 1, 1).toordinal() - 1
            leap[y] = 12 * ((dt.date(y, 3, 1) - dt.date(y, 2, 1)).days == 29)
    row = np.where(good, month - 1, 0) + leap[year]
    good &= (day >= 1) & (day <= _MONTH_DAYS[row])
    return before[year] + _DAYS_BEFORE[row] + day, good


def _day_numbers(dates):
    """Each member's day number from its date text, an ``S`` array of
    ASCII or a list of ``str``; the first date in file order that
    is not spelled ``YYYY-MM-DD`` raises :func:`txrisk.ingest.iso_date`'s
    error. ``S10`` dates are read at array speed (:func:`_iso_days`); any
    others, and any the array rule refuses, are read by ``iso_date``, each
    distinct spelling once."""
    if isinstance(dates, np.ndarray) and dates.dtype == "S10":
        days, good = _iso_days(dates.view(np.uint8).reshape(-1, 10))
        if good.all():
            return days
    texts = _texts(dates)
    day_of = {text: iso_date(text).toordinal() for text in dict.fromkeys(texts)}
    return np.fromiter(map(day_of.__getitem__, texts), np.int64, len(texts))


# The bits of a day number: date.max.toordinal() is below 2 ** 22.
_DAY_BITS = 22


def _member_arrays(entries, ids, dates, counts):
    """The checked member arrays of a stored model: ``(service_ids,
    member_services, member_days)``, from the members' fields ``ids`` and
    ``dates`` (``S`` arrays or lists of text, cluster 1's first)
    and the ``(k,)`` list lengths ``counts``. Each cluster's
    ``member_count`` must be its list length, every service id non-blank,
    every date spelled ``YYYY-MM-DD`` and no (service, date) listed twice,
    checked in that order; each check reports its first fault in file
    order."""
    for cid, (entry, count) in enumerate(zip(entries, counts.tolist()), 1):
        if json_integer(entry["member_count"],
                        f"cluster {cid} member_count") != count:
            raise ValueError(f"cluster {cid} member_count "
                             f"{entry['member_count']!r} differs from its "
                             f"{count} members")
    service_ids, member_services = _service_codes(ids)
    blank = np.array([not service.strip() for service in service_ids])
    if blank.any():
        member = int(blank[member_services].argmax())
        raise ValueError(f"cluster {_cluster_of(counts, member)} member "
                         f"service id {service_ids[member_services[member]]!r}"
                         " is not a non-blank string")
    member_days = _day_numbers(dates)
    # One key per (service, day); a day number is below 2 ** _DAY_BITS.
    keys = member_services << _DAY_BITS | member_days
    if (np.diff(np.sort(keys)) == 0).any():
        twice = next(key for key, n in Counter(keys.tolist()).items() if n > 1)
        member = [service_ids[twice >> _DAY_BITS], dt.date.fromordinal(
            twice & (1 << _DAY_BITS) - 1).isoformat()]
        raise ValueError(f"member {member} is listed more than once")
    return tuple(service_ids), member_services, member_days


def load_model(path) -> ClusterModel:
    """Load a model saved by :func:`save_model`.

    A file in the layout :func:`save_model` writes has its member lists
    read as bytes (:func:`_scan_model`) and only the rest parsed as JSON;
    any other file is parsed whole. Both give the same fields to the same
    checks, so a file loads, or is refused with the same message, either
    way. The checks run in a fixed order: the top-level fields, each
    cluster's id and centroid, the member counts, service ids and dates,
    repeated members, then the profiles; a file with several faults is
    refused for the first.

    Raises:
        ParseError: the file is unreadable or malformed, or holds a
            number as text or true/false, a ``k``, ``seed``, ``restarts``,
            cluster id or ``member_count`` that is not an integer, a
            negative seed, fewer than 1 restart, a number not finite within
            the float range, a bound with lo > hi, a ``k`` other than the
            number of clusters, cluster ids other than 1..k in file order,
            a centroid lacking a schema feature or with an unknown label, a
            ``member_count`` other than the number of members, a member
            with a blank or non-text service id or a date not spelled
            YYYY-MM-DD, a member listed twice, or a bad profile.
    """
    scanned = _scan_model(path)
    doc = scanned[0] if scanned else read_json(path, ParseError, "cluster model")
    try:
        schema = ft.FeatureSchema.from_jsonable(doc["schema"])
        params = _checked_bounds(
            ft.NormalizationParams.from_jsonable(doc["normalization"]))
        entries = doc["clusters"]
        k = doc["k"]
        # An integer past the float range is refused by its bit length,
        # before the message below would spell out its digits.
        if isinstance(k, int):
            json_integer(k, "k")
        if k != len(entries):
            raise ValueError(f"k {k!r} differs from the {len(entries)} "
                             "clusters stored")
        if not entries:
            raise ValueError("the model stores no clusters")
        json_integer(k, "k")
        quant, codes = zip(*(_checked_centroid(c + 1, entry, schema)
                             for c, entry in enumerate(entries)))
        ids, dates, counts = scanned[1:] if scanned else _json_members(entries)
        service_ids, member_services, member_days = _member_arrays(
            entries, ids, dates, counts)
        profiles = [_profile_lists(c + 1, entry["profile"])
                    for c, entry in enumerate(entries) if "profile" in entry]
        if profiles and len(profiles) != len(entries):
            raise ValueError("some clusters have a profile and some not")
        return ClusterModel(
            service_ids=service_ids,
            member_services=_read_only(member_services),
            member_days=_read_only(member_days),
            centroids=(_read_only(np.array(quant, dtype=np.float64)),
                       _read_only(np.array(codes, dtype=np.int64))),
            member_counts=_read_only(counts),
            schema=schema,
            norm_params=params,
            seed=json_integer(doc["seed"], "seed"),
            objective=json_number(doc["objective"], "objective"),
            profiles=(tuple(_read_only(np.array(part)) for part in zip(*profiles))
                      if profiles else None),
            far_threshold=json_number(doc.get("far_threshold", 0.0),
                                      "far_threshold"),
            restarts=json_integer(doc.get("restarts", 1), "restarts", 1),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed cluster model: {exc}", path=path) from exc
