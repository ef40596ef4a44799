"""Feature schema, encoding, normalization, and mixed-distance tests."""

import math

import numpy as np
import pytest

from txrisk import features as ft
from txrisk.errors import (
    DegenerateFeatureWarning,
    EmptyDatasetError,
    OutOfRangeError,
    SchemaMismatchError,
)

from conftest import record_table


def record(**values):
    """A one-row record table."""
    return record_table(**{name: [v] for name, v in values.items()})


@pytest.fixture
def mixed_schema():
    return ft.FeatureSchema(features=(
        ft.FeatureDef("a", ft.KIND_NUMERIC),
        ft.FeatureDef("b", ft.KIND_NUMERIC),
        ft.FeatureDef("grade", ft.KIND_ORDINAL, statuses=("low", "mid", "high")),
        ft.FeatureDef("flag", ft.KIND_NOMINAL, statuses=("Y", "N")),
    ))


class TestEncodeOrdinal:
    def test_first_of_three(self):
        assert ft.encode_ordinal(1, 3) == pytest.approx(1 / 6)

    def test_midpoint(self):
        assert ft.encode_ordinal(2, 3) == pytest.approx(0.5)

    def test_single_status_collapses_to_midpoint(self):
        assert ft.encode_ordinal(1, 1) == pytest.approx(0.5)

    def test_strictly_increasing_and_bounded(self):
        for n in (1, 2, 3, 5, 9):
            values = [ft.encode_ordinal(i, n) for i in range(1, n + 1)]
            assert all(0 < v < 1 for v in values)
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            ft.encode_ordinal(0, 3)
        with pytest.raises(OutOfRangeError):
            ft.encode_ordinal(4, 3)


def normalized(value, bounds):
    """One raw value of feature ``x`` through :func:`ft.encode`."""
    schema = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
    params = ft.NormalizationParams(bounds={"x": bounds})
    quant, _ = ft.encode(record(x=value), schema, params)
    return float(quant[0, 0])


def pair(quant, nom=None):
    """An encoded ``(quant, nom)`` array pair from rows; -1 marks a missing
    nominal label, NaN a missing quantitative value."""
    quant = np.array(quant, dtype=np.float64).reshape(len(quant), -1)
    nom = np.array(nom if nom is not None else [()] * len(quant),
                   dtype=np.int64).reshape(len(quant), -1)
    return quant, nom


def reference_distance(x, y, schema):
    """The dissimilarity of one pair, summed in Python floats: the
    reference :func:`ft.distance` must equal bit for bit. ``x`` and ``y``
    are one row each of the encoded arrays, as ``(quantitative values,
    nominal codes)``."""
    weights = schema.weights
    total = 0.0
    for name, xv, yv in zip(schema.quantitative_names, x[0], y[0]):
        if math.isnan(xv) or math.isnan(yv):
            continue
        diff = xv - yv
        total += weights[name] * diff * diff
    for name, xl, yl in zip(schema.nominal_names, x[1], y[1]):
        if xl < 0 or yl < 0:
            continue
        if xl != yl:
            total += weights[name]
    return total


class TestNormalization:
    def test_fit_observes_min_max(self):
        schema = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
        params = ft.fit_normalization(record_table(x=[0.0, 5.0, 10.0]), schema)
        assert params.bounds["x"] == (0.0, 10.0)

    def test_fit_table_style_range(self):
        schema = ft.FeatureSchema(features=(ft.FeatureDef("t", ft.KIND_NUMERIC),))
        params = ft.fit_normalization(
            record_table(t=[-20.58, 5.14, 24.92, 11.0]), schema)
        assert params.bounds["t"] == (-20.58, 24.92)

    def test_constant_feature_warns(self):
        schema = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
        with pytest.warns(DegenerateFeatureWarning):
            params = ft.fit_normalization(record_table(x=[7.0] * 3), schema)
        assert normalized(7.0, params.bounds["x"]) == 0.0

    def test_empty_dataset(self):
        schema = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
        with pytest.raises(EmptyDatasetError):
            ft.fit_normalization([], schema)

    def test_missing_feature(self):
        schema = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
        with pytest.raises(SchemaMismatchError):
            ft.fit_normalization(record(y=1.0), schema)

    def test_bounds_are_the_first_min_and_max(self):
        # As Python's min and max pick them: of equal 0.0 and -0.0 the
        # first keeps its sign.
        schema = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
        for values in ([-0.0, 0.0], [0.0, -0.0]):
            with pytest.warns(DegenerateFeatureWarning):
                lo, hi = ft.fit_normalization(record_table(x=values),
                                              schema).bounds["x"]
            assert str(lo) == str(hi) == str(min(values)) == str(max(values))

    def test_normalize_boundaries_and_midpoint(self):
        assert normalized(10.0, (10.0, 30.0)) == 0.0
        assert normalized(30.0, (10.0, 30.0)) == 1.0
        assert normalized(20.0, (10.0, 30.0)) == 0.5

    def test_normalize_clamps_out_of_range(self):
        assert normalized(-5.0, (0.0, 10.0)) == 0.0
        assert normalized(15.0, (0.0, 10.0)) == 1.0
        # As Python's min(1, max(0, x)) does, a negative zero clamps to +0.0,
        # also below the bound of a constant feature.
        for value, bounds in ((-0.0, (0.0, 10.0)), (-3.0, (2.0, 2.0))):
            assert math.copysign(1.0, normalized(value, bounds)) == 1.0

    def test_denormalize_inverts(self):
        params = ft.NormalizationParams(bounds={"x": (-22.83, 24.92)})
        assert ft.denormalize(0.0, params, "x") == pytest.approx(-22.83)
        assert ft.denormalize(1.0, params, "x") == pytest.approx(24.92)
        assert ft.denormalize(normalized(3.7, (-22.83, 24.92)), params, "x") \
            == pytest.approx(3.7)


class TestDistance:
    def test_identity(self, mixed_schema):
        x = pair([(0.2, 0.8, 0.5)], [(0,)])
        assert ft.distance(x, x, mixed_schema).tolist() == [[0.0]]

    def test_numeric_only_hand_value(self):
        schema = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
        d = ft.distance(pair([(0.2,)]), pair([(0.5,)]), schema)
        assert d.shape == (1, 1)
        assert d[0, 0] == pytest.approx(0.09)

    def test_nominal_mismatch_adds_one(self):
        schema = ft.FeatureSchema(features=(
            ft.FeatureDef("x", ft.KIND_NUMERIC),
            ft.FeatureDef("flag", ft.KIND_NOMINAL, statuses=("Y", "N")),
        ))
        d = ft.distance(pair([(0.2,)], [(0,)]), pair([(0.5,)], [(1,)]), schema)
        assert d[0, 0] == pytest.approx(1.09)

    def test_symmetry_and_nonnegativity(self, mixed_schema):
        rng = np.random.default_rng(5)
        x = pair(rng.uniform(0, 1, (200, 3)), rng.integers(0, 2, (200, 1)))
        y = pair(rng.uniform(0, 1, (200, 3)), rng.integers(0, 2, (200, 1)))
        d_xy = ft.distance(x, y, mixed_schema)
        assert d_xy.shape == (200, 200)
        assert (d_xy >= 0.0).all()
        assert d_xy == pytest.approx(ft.distance(y, x, mixed_schema).T)

    def test_unit_weights_no_nominal_equals_squared_euclidean(self):
        schema = ft.FeatureSchema(features=(
            ft.FeatureDef("a", ft.KIND_NUMERIC),
            ft.FeatureDef("b", ft.KIND_NUMERIC),
            ft.FeatureDef("c", ft.KIND_NUMERIC),
        ))
        rng = np.random.default_rng(6)
        xv, yv = rng.uniform(0, 1, (50, 3)), rng.uniform(0, 1, (50, 3))
        d = ft.distance(pair(xv), pair(yv), schema)
        assert d == pytest.approx(((xv[:, None, :] - yv[None, :, :]) ** 2).sum(axis=2))

    def test_weight_scaling_scales_distance_and_keeps_argmin(self):
        rng = np.random.default_rng(7)
        weights = {"a": 0.7, "b": 2.0, "grade": 1.3, "flag": 0.5}
        c = 3.7

        def schema_for(scale):
            return ft.FeatureSchema(features=(
                ft.FeatureDef("a", ft.KIND_NUMERIC, weight=scale * weights["a"]),
                ft.FeatureDef("b", ft.KIND_NUMERIC, weight=scale * weights["b"]),
                ft.FeatureDef("grade", ft.KIND_ORDINAL,
                              statuses=("low", "mid", "high"),
                              weight=scale * weights["grade"]),
                ft.FeatureDef("flag", ft.KIND_NOMINAL, statuses=("Y", "N"),
                              weight=scale * weights["flag"]),
            ))

        base, scaled = schema_for(1.0), schema_for(c)
        centroids = pair(rng.uniform(0, 1, (5, 3)), rng.integers(0, 2, (5, 1)))
        x = pair(rng.uniform(0, 1, (50, 3)), rng.integers(0, 2, (50, 1)))
        d1 = ft.distance(x, centroids, base)
        d2 = ft.distance(x, centroids, scaled)
        assert d2 == pytest.approx(c * d1)
        assert (d1.argmin(axis=1) == d2.argmin(axis=1)).all()

    def test_schema_mismatch(self, mixed_schema):
        x = pair([(0.2, 0.8)], [(0,)])
        y = pair([(0.2, 0.8, 0.5)], [(0,)])
        with pytest.raises(SchemaMismatchError):
            ft.distance(x, y, mixed_schema)
        with pytest.raises(SchemaMismatchError):
            ft.distance(y, pair([(0.2, 0.8, 0.5)]), mixed_schema)

    def test_missing_components_are_skipped(self, mixed_schema):
        x = pair([(0.2, math.nan, 0.5)], [(-1,)])
        y = pair([(0.5, 0.9, 0.5)], [(0,)])
        assert ft.distance(x, y, mixed_schema)[0, 0] == pytest.approx(0.09)
        assert ft.distance(y, x, mixed_schema)[0, 0] == pytest.approx(0.09)

    def test_matches_reference_loop_bit_for_bit(self):
        # Random weights and data with NaN and -1 on either side; every
        # entry must equal the per-pair loop exactly, not approximately.
        rng = np.random.default_rng(9)
        schema = ft.FeatureSchema(features=(
            ft.FeatureDef("a", ft.KIND_NUMERIC, weight=float(rng.uniform(0, 3))),
            ft.FeatureDef("grade", ft.KIND_ORDINAL, statuses=("lo", "hi"),
                          weight=float(rng.uniform(0, 3))),
            ft.FeatureDef("b", ft.KIND_NUMERIC, weight=float(rng.uniform(0, 3))),
            ft.FeatureDef("flag", ft.KIND_NOMINAL, statuses=("Y", "N"),
                          weight=float(rng.uniform(0, 3))),
            ft.FeatureDef("kind", ft.KIND_NOMINAL, statuses=("p", "q", "r"),
                          weight=float(rng.uniform(0, 3))),
        ))

        def sample(n):
            quant = rng.uniform(-0.2, 1.2, (n, 3))
            quant[rng.random((n, 3)) < 0.2] = np.nan
            nom = np.stack([rng.integers(0, 2, n), rng.integers(0, 3, n)], axis=1)
            nom[rng.random((n, 2)) < 0.2] = -1
            return quant, nom

        for x, y in ((sample(40), sample(7)), (sample(1), sample(10)),
                     (sample(25), pair(np.full((3, 3), 0.5), [(0, 1)] * 3))):
            d = ft.distance(x, y, schema)
            assert d.shape == (len(x[0]), len(y[0]))
            for i in range(len(x[0])):
                for j in range(len(y[0])):
                    expected = reference_distance(
                        (x[0][i].tolist(), x[1][i].tolist()),
                        (y[0][j].tolist(), y[1][j].tolist()), schema)
                    assert d[i, j] == expected, (i, j)


    @pytest.mark.parametrize(
        "n, k, x_gaps, y_gaps, zeroed, order, kinds",
        [(60, 6, False, False, (), "F", "mixed"),
         (60, 6, True, False, (), "F", "mixed"),
         (60, 6, False, True, (), "F", "mixed"),
         (60, 6, True, True, (), "F", "mixed"),
         (60, 6, True, True, ("grade",), "F", "mixed"),
         (60, 6, True, True, ("flag",), "F", "mixed"),
         (60, 6, False, False, ("flag", "kind"), "F", "mixed"),
         (60, 1, True, True, (), "F", "mixed"),
         (1, 6, True, True, (), "F", "mixed"),
         (60, 6, True, True, (), "C", "mixed"),
         (60, 6, False, False, (), "C", "mixed"),
         (60, 6, False, False, (), "F", "nominal"),
         (60, 6, True, True, ("kind",), "F", "nominal")],
        ids=["no-gaps", "x-gaps", "y-gaps", "both-gaps", "zero-weight",
             "zero-weight-nominal", "zero-weight-nominals", "k1", "n1",
             "c-order-gaps", "c-order", "nominal-only",
             "nominal-only-zero-weight"])
    def test_kernel_equals_python_sum_bit_for_bit(self, n, k, x_gaps, y_gaps,
                                                  zeroed, order, kinds):
        # Every entry has the bits of the pair's sum in Python floats in
        # schema order: quantitative features, then nominal mismatches.
        # Compared as bit patterns, since == would equate 0.0 and -0.0.
        seed = [n, k, x_gaps, y_gaps, bool(zeroed)]
        rng = np.random.default_rng(seed + [1] * (kinds == "nominal"))
        weights = dict(zip(("a", "grade", "flag", "b", "kind"),
                           rng.uniform(0, 3, 5).tolist()))
        weights.update(dict.fromkeys(zeroed, 0.0))
        schema = ft.FeatureSchema(features=tuple(
            feature for feature in (
                ft.FeatureDef("a", ft.KIND_NUMERIC, weight=weights["a"]),
                ft.FeatureDef("grade", ft.KIND_ORDINAL, statuses=("lo", "hi"),
                              weight=weights["grade"]),
                ft.FeatureDef("flag", ft.KIND_NOMINAL, statuses=("Y", "N"),
                              weight=weights["flag"]),
                ft.FeatureDef("b", ft.KIND_NUMERIC, weight=weights["b"]),
                ft.FeatureDef("kind", ft.KIND_NOMINAL,
                              statuses=("p", "q", "r"),
                              weight=weights["kind"]))
            if kinds == "mixed" or feature.kind == ft.KIND_NOMINAL))
        q = len(schema.quantitative_names)

        def sample(rows, gaps):
            quant = rng.uniform(-0.2, 1.2, (rows, q))
            nom = np.stack([rng.integers(0, 2, rows), rng.integers(0, 3, rows)],
                           axis=1)
            if gaps:
                quant[rng.random((rows, q)) < 0.2] = np.nan
                nom[rng.random((rows, 2)) < 0.2] = -1
                if q:
                    quant[0, 0] = np.nan
                nom[-1, 1] = -1
            return quant, nom

        (xq, xn), y = sample(n, x_gaps), sample(k, y_gaps)
        if order == "F":
            xq, xn = np.asfortranarray(xq), np.asfortranarray(xn)
        else:
            xq, xn = np.ascontiguousarray(xq), np.ascontiguousarray(xn)
        assert xq.flags[f"{order}_CONTIGUOUS"]

        d = ft.distance((xq, xn), y, schema)
        assert d.shape == (n, k)
        expected = np.array([[reference_distance(
            (xq[i].tolist(), xn[i].tolist()),
            (y[0][j].tolist(), y[1][j].tolist()), schema)
            for j in range(k)] for i in range(n)]).reshape(n, k)
        assert d.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestEncode:
    def test_encodes_in_schema_order(self, mixed_schema):
        params = ft.NormalizationParams(bounds={"a": (0.0, 10.0), "b": (0.0, 2.0)})
        records = record_table(
            flag=["N", "Y"], b=[1.0, 0.5], a=[5.0, 12.0],
            grade=[ft.encode_ordinal(2, 3), ft.encode_ordinal(1, 3)])
        quant, nom = ft.encode(records, mixed_schema, params)
        assert quant.shape == (2, 3) and nom.shape == (2, 1)
        assert quant[0].tolist() == pytest.approx([0.5, 0.5, 0.5])
        assert quant[1].tolist() == pytest.approx([1.0, 0.25, 1 / 6])
        assert nom.tolist() == [[1], [0]]

    def test_missing_feature_raises(self, mixed_schema):
        params = ft.NormalizationParams(bounds={"a": (0.0, 10.0), "b": (0.0, 2.0)})
        with pytest.raises(SchemaMismatchError):
            ft.encode(record(a=5.0), mixed_schema, params)

    @pytest.mark.parametrize("a", ["5.0", [5.0] * 24])
    def test_field_of_another_kind_is_not_the_feature(self, mixed_schema, a):
        # A label field or a 24-hour profile field cannot be numeric a.
        params = ft.NormalizationParams(bounds={"a": (0.0, 10.0), "b": (0.0, 2.0)})
        rec = record(a=a, b=1.0, grade=0.5, flag="Y")
        with pytest.raises(SchemaMismatchError):
            ft.encode(rec, mixed_schema, params)
        quant, _ = ft.encode(rec, mixed_schema, params, allow_missing=True)
        assert math.isnan(quant[0, 0])
        with pytest.raises(SchemaMismatchError):
            ft.fit_normalization(rec, mixed_schema)

    def test_allow_missing_marks_placeholders(self, mixed_schema):
        params = ft.NormalizationParams(bounds={"a": (0.0, 10.0), "b": (0.0, 2.0)})
        quant, nom = ft.encode(record(a=5.0), mixed_schema, params,
                               allow_missing=True)
        assert quant[0, 0] == 0.5
        assert math.isnan(quant[0, 1])
        assert math.isnan(quant[0, 2])
        assert nom.tolist() == [[-1]]

    def test_unknown_nominal_status(self, mixed_schema):
        params = ft.NormalizationParams(bounds={"a": (0.0, 10.0), "b": (0.0, 2.0)})
        rec = record(a=5.0, b=1.0, grade=0.5, flag="MAYBE")
        with pytest.raises(SchemaMismatchError, match="'MAYBE'"):
            ft.encode(rec, mixed_schema, params)
        with pytest.raises(SchemaMismatchError):
            ft.encode(rec, mixed_schema, params, allow_missing=True)


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ft.FeatureSchema(features=(
                ft.FeatureDef("x", ft.KIND_NUMERIC),
                ft.FeatureDef("x", ft.KIND_NOMINAL, statuses=("Y", "N")),
            ))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ft.FeatureDef("x", "fancy")

    def test_categorical_needs_statuses(self):
        with pytest.raises(ValueError):
            ft.FeatureDef("x", ft.KIND_NOMINAL)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ft.FeatureDef("x", ft.KIND_NUMERIC, weight=-1.0)

    def test_default_schema_shape(self):
        schema = ft.default_schema()
        assert schema.numeric_names == ("t_max_c", "t_min_c", "t_avg_c",
                                        "l_avg_kva")
        assert schema.nominal_names == ("weekday",)
        assert all(w == 1.0 for w in schema.weights.values())

    def test_json_roundtrip(self, mixed_schema):
        doc = mixed_schema.to_jsonable()
        assert ft.FeatureSchema.from_jsonable(doc) == mixed_schema
