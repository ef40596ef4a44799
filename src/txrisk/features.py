"""Per-service per-day features, their encoding, and the weighted
mixed-type dissimilarity used for clustering and estimation.

Records come as a record table, a numpy structured array (see
:func:`txrisk.ingest.load_dataset`); a feature is the field of its name.
Numeric features are min-max normalized to [0,1]; orderly categorical
features are mapped into (0,1) by their status order; unordered
categorical features compare by match/mismatch. All three kinds carry a
per-feature weight. :func:`encode` turns a record table into the array
pair that :func:`distance` (Huang's k-prototypes cost) compares, for
k-means and for estimation alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateFeatureWarning,
    EmptyDatasetError,
    OutOfRangeError,
    SchemaMismatchError,
    json_number,
)

KIND_NUMERIC = "numeric"
KIND_ORDINAL = "ordinal"
KIND_NOMINAL = "nominal"
_KINDS = (KIND_NUMERIC, KIND_ORDINAL, KIND_NOMINAL)


@dataclass(frozen=True)
class FeatureDef:
    """One feature: its name, kind, status list (categoricals), and weight."""

    name: str
    kind: str
    statuses: tuple[str, ...] = ()
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind in (KIND_ORDINAL, KIND_NOMINAL) and not self.statuses:
            raise ValueError(f"{self.kind} feature {self.name!r} needs a status list")
        if not 0 <= self.weight < math.inf:
            raise ValueError(f"feature {self.name!r} weight must be finite "
                             "and >= 0")
        object.__setattr__(self, "statuses", tuple(self.statuses))
        for text in (self.name, *self.statuses):
            if any(char in str(text) for char in ',"\r\n'):
                raise ValueError(f"feature {self.name!r}: a name or label may "
                                 f"not hold a comma, a quote or a line end: {text!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature definitions shared by every encoded vector."""

    features: tuple[FeatureDef, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")

    @cached_property
    def numeric_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features if f.kind == KIND_NUMERIC)

    @cached_property
    def ordinal_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features if f.kind == KIND_ORDINAL)

    @cached_property
    def nominal_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features if f.kind == KIND_NOMINAL)

    @cached_property
    def quantitative_names(self) -> tuple[str, ...]:
        """Numeric then ordinal names: the squared-difference features."""
        return self.numeric_names + self.ordinal_names

    @property
    def weights(self) -> dict[str, float]:
        return {f.name: f.weight for f in self.features}

    def feature(self, name: str) -> FeatureDef:
        for f in self.features:
            if f.name == name:
                return f
        raise KeyError(name)

    def quantitative_weights(self) -> tuple[float, ...]:
        w = self.weights
        return tuple(w[n] for n in self.quantitative_names)

    def nominal_weights(self) -> tuple[float, ...]:
        w = self.weights
        return tuple(w[n] for n in self.nominal_names)

    def to_jsonable(self) -> list[dict]:
        out = []
        for f in self.features:
            item = {"name": f.name, "kind": f.kind, "weight": f.weight}
            if f.statuses:
                item["statuses"] = list(f.statuses)
            out.append(item)
        return out

    @classmethod
    def from_jsonable(cls, items) -> "FeatureSchema":
        """The schema of a JSON list of features: each a ``name`` string,
        a ``kind``, a list of ``statuses`` strings (categoricals) and a
        number ``weight`` (1 if absent; see
        :func:`txrisk.errors.json_number`).

        Raises:
            TypeError: an entry of the wrong JSON type.
            KeyError, ValueError: a missing key or a refused feature.
        """
        defs = []
        for item in items:
            name, statuses = item["name"], item.get("statuses", [])
            if not isinstance(name, str):
                raise TypeError(f"feature name must be a string, got {name!r}")
            if not (isinstance(statuses, list)
                    and all(isinstance(s, str) for s in statuses)):
                raise TypeError(f"feature {name!r} statuses must be a list "
                                f"of strings, got {statuses!r}")
            defs.append(FeatureDef(
                name=name,
                kind=item["kind"],
                statuses=tuple(statuses),
                weight=json_number(item.get("weight", 1.0),
                                   f"feature {name!r} weight"),
            ))
        return cls(features=tuple(defs))


def default_schema() -> FeatureSchema:
    """Default clustering schema, each feature of weight 1: daily
    temperature extremes/mean, mean service load, and the weekday flag."""
    return FeatureSchema(features=(
        *(FeatureDef(name, KIND_NUMERIC)
          for name in ("t_max_c", "t_min_c", "t_avg_c", "l_avg_kva")),
        FeatureDef("weekday", KIND_NOMINAL, statuses=("Y", "N")),
    ))


@dataclass(frozen=True)
class NormalizationParams:
    """Observed per-feature Min/Max used for min-max normalization."""

    bounds: dict[str, tuple[float, float]]

    def to_jsonable(self) -> dict:
        return {name: [lo, hi] for name, (lo, hi) in self.bounds.items()}

    @classmethod
    def from_jsonable(cls, doc) -> "NormalizationParams":
        def bound(name, value):
            return json_number(value, f"normalization bound of {name!r}")

        return cls(bounds={name: (bound(name, lo), bound(name, hi))
                           for name, (lo, hi) in doc.items()})


def encode_ordinal(status_order: int, status_count: int) -> float:
    """Map the i-th of N ordered statuses into (0,1): (i - 1/2) / N."""
    if status_count < 1:
        raise OutOfRangeError("status_count must be >= 1")
    if not 1 <= status_order <= status_count:
        raise OutOfRangeError(
            f"status order {status_order} outside [1, {status_count}]")
    return (status_order - 0.5) / status_count


_QUANTITATIVE, _LABELS = "biuf", "U"  # dtype kinds of the feature fields


def _field(records, name: str, kinds: str, allow_missing: bool):
    """The field ``name`` of a record table: a one-value-per-row field whose
    dtype kind is one of ``kinds``; None if there is none and
    ``allow_missing``."""
    field = (records.dtype.fields or {}).get(name)
    if field is not None and field[0].kind in kinds and not field[0].shape:
        return records[name]
    if allow_missing:
        return None
    raise SchemaMismatchError(f"records lack feature {name!r}")


def fit_normalization(records, schema: FeatureSchema) -> NormalizationParams:
    """Observe per-feature Min/Max for the schema's numeric features of a
    training table. Every numeric and ordinal value must be finite: a NaN
    would make Min/Max NaN, and the triangle-inequality bounds of
    :func:`txrisk.clustering.kmeans` hold only for gap-free points.

    Warns about degenerate (constant) features; their normalized value is
    pinned to 0 so they contribute nothing to distances.

    Raises:
        EmptyDatasetError: no records supplied.
        SchemaMismatchError: the table lacks a schema numeric or ordinal
            feature.
        ValueError: a numeric or ordinal value is NaN or infinite; the
            message names the feature and the first such row.
    """
    if not len(records):
        raise EmptyDatasetError("cannot fit normalization on an empty dataset")
    for name in schema.quantitative_names:
        values = _field(records, name, _QUANTITATIVE, allow_missing=False)
        finite = np.isfinite(values)
        if not finite.all():
            row = int(finite.argmin())
            raise ValueError(f"feature {name!r} is {values[row].item()!r} "
                             f"at row {row}; training needs finite values")
    bounds = {}
    for name in schema.numeric_names:
        values = records[name]
        # The first minimum and maximum, as Python's min and max pick them.
        lo, hi = float(values[values.argmin()]), float(values[values.argmax()])
        if lo == hi:
            warnings.warn(
                f"feature {name!r} is constant ({lo}); it will not contribute "
                "to distances", DegenerateFeatureWarning, stacklevel=2)
        bounds[name] = (lo, hi)
    return NormalizationParams(bounds=bounds)


def denormalize(value: float, params: NormalizationParams, feature: str) -> float:
    """Inverse of the min-max normalization in :func:`encode` (no clamping)."""
    try:
        lo, hi = params.bounds[feature]
    except KeyError:
        raise SchemaMismatchError(f"no normalization params for {feature!r}") from None
    return lo + value * (hi - lo)


def encode(records, schema: FeatureSchema, params: NormalizationParams, *,
           allow_missing: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Encode a record table into the ``(quant, nom)`` array pair that
    :func:`distance` reads.

    ``quant`` is ``(n, q)`` floats in schema numeric-then-ordinal order:
    numeric fields min-max normalized by ``params`` and clamped into
    [0, 1] (a constant feature maps to 0), ordinal fields (values already
    in (0, 1), see :func:`encode_ordinal`) as given. ``nom`` is ``(n, m)``
    ints: each nominal label's index in its feature's statuses. Both are
    column-major, so each feature is one contiguous column. With
    ``allow_missing`` a feature the table lacks becomes NaN / -1
    (estimation queries may carry fewer features than the schema);
    otherwise it raises.

    Raises:
        SchemaMismatchError: a required feature is absent, a nominal label
            is not among its statuses, or a numeric feature has no
            normalization params.
    """
    n = len(records)
    quant = np.empty((n, len(schema.quantitative_names)), order="F")
    nom = np.empty((n, len(schema.nominal_names)), dtype=np.int64, order="F")
    for j, name in enumerate(schema.quantitative_names):
        values = _field(records, name, _QUANTITATIVE, allow_missing)
        quant[:, j] = math.nan if values is None else values

    p = len(schema.numeric_names)
    try:
        bounds = np.array([params.bounds[name] for name in schema.numeric_names],
                          dtype=np.float64).reshape(p, 2)
    except KeyError as exc:
        raise SchemaMismatchError(
            f"no normalization params for {exc.args[0]!r}") from None
    # Each column in place, so that no temporary is wider than a flag.
    for column, (lo, hi) in zip(quant.T, bounds.tolist()):
        missing = np.isnan(column)
        column -= lo
        # A constant feature (Min == Max) is divided by inf, which maps it
        # to 0.
        column /= math.inf if hi == lo else hi - lo
        # min(1, max(0, x)) as Python evaluates it, so -0.0 clamps to 0.0.
        np.minimum(column, 1.0, out=column)
        column[~(column > 0.0)] = 0.0
        column[missing] = math.nan

    for column, name in zip(nom.T, schema.nominal_names):
        labels = _field(records, name, _LABELS, allow_missing)
        column[:] = -1
        if labels is None:
            continue
        for i, status in enumerate(schema.feature(name).statuses):
            column[labels == status] = i
        unknown = column < 0
        if unknown.any():
            raise SchemaMismatchError(
                f"unknown status {labels[unknown.argmax()].item()!r} for "
                f"nominal feature {name!r}")
    return quant, nom


def distance(x, y, schema: FeatureSchema) -> np.ndarray:
    """Weighted mixed-type dissimilarities between every row of ``x`` and
    every row of ``y``, as a ``(len(x), len(y))`` array.

    ``x`` and ``y`` are ``(quant, nom)`` array pairs in the form
    :func:`encode` returns (a model's centroids have the same form).
    Numeric and ordinal features contribute weighted squared differences,
    ``(w * diff) * diff``; nominal features contribute their weight on
    mismatch and 0 on match. Terms are added one feature at a time in
    schema order, quantitative features first, and a feature missing
    (NaN / -1) on either side adds nothing. Only elementwise arithmetic is
    used, so each entry equals that sum taken pair by pair in Python
    floats, whatever the numpy build or the arrays' memory order.

    The work is one pass per row of ``y`` (the centroids, in k-means and
    estimation) over contiguous feature columns of ``x``, which is what
    the column-major arrays of :func:`encode` give without a copy; the
    result is column-major too, one contiguous column per row of ``y``.

    Raises:
        SchemaMismatchError: an array's width does not match the schema.
    """
    (xq, xn), (yq, yn) = x, y
    widths = (len(schema.quantitative_names), len(schema.nominal_names))
    if (xq.shape[1], xn.shape[1]) != widths or (yq.shape[1], yn.shape[1]) != widths:
        raise SchemaMismatchError("encoded widths do not match the schema")

    # Feature-major x: one contiguous row of n values per feature.
    xq, xn = np.ascontiguousarray(xq.T), np.ascontiguousarray(xn.T)
    # Each side is scanned for gaps once. A gap in x leaves its entries
    # out of the feature's sum (the mask is True where x has no gaps); a
    # gap in a row of y skips the feature for that row.
    q_gaps, n_gaps = np.isnan(xq), xn < 0
    q_keep = ~q_gaps if q_gaps.any() else (True,) * len(xq)
    n_keep = ~n_gaps if n_gaps.any() else (None,) * len(xn)
    q_weights, n_weights = schema.quantitative_weights(), schema.nominal_weights()
    n = xq.shape[1]
    d = np.zeros((len(yq), n))
    diff, term, mismatch = np.empty(n), np.empty(n), np.empty(n, bool)
    for row, y_quant, y_codes in zip(d, yq.tolist(), yn.tolist()):
        for col, keep, w, v in zip(xq, q_keep, q_weights, y_quant):
            if not math.isnan(v):
                np.subtract(col, v, out=diff)
                np.multiply(diff, w, out=term)
                term *= diff
                np.add(row, term, out=row, where=keep)
        # A nominal term is w or +0.0 (weights are finite and >= 0), and
        # every entry is +0.0 or more, never -0.0, so adding a +0.0 term
        # leaves its bits as skipping it would: no masked add is needed.
        for col, keep, w, v in zip(xn, n_keep, n_weights, y_codes):
            if v >= 0:
                np.not_equal(col, v, out=mismatch)
                if keep is not None:
                    mismatch &= keep
                np.multiply(mismatch, w, out=term)
                row += term
    return d.T
