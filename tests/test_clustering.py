"""Clustering tests: brute-force oracle instances, determinism, objective
accounting, empty-cluster recovery, composition, month matrix, profiles."""

import datetime as dt
import json
import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from txrisk import clustering, features as ft, summation
from txrisk.clustering import (
    extract_profiles,
    kmeans,
    load_model,
    month_cluster_matrix,
    save_model,
    train_model,
)
from txrisk.errors import (
    EmptyClusterWarning,
    ParseError,
    TooFewPointsError,
)
from txrisk import ingest

from conftest import (
    clusters_of,
    make_dataset,
    make_model_with_profiles,
    member_pairs,
)
from test_features import reference_distance


def one_d_schema(name="x"):
    return ft.FeatureSchema(features=(ft.FeatureDef(name, ft.KIND_NUMERIC),))


def one_d_records(values, start=dt.date(2015, 1, 1), service="s"):
    return make_dataset(service, start, x=[float(v) for v in values])


def rows_of(dataset, refs):
    """The row indices of the (service_id, ISO date) refs in a dataset's
    record table."""
    records = dataset.records
    index = {ref: i for i, ref in enumerate(zip(
        map(dataset.services.__getitem__, records["service"].tolist()),
        map(dataset.dates.__getitem__, records["day"].tolist())))}
    return [index[ref] for ref in refs]


def brute_force_two_clusters(values):
    """Minimize the within-cluster sum of squared deviations over every
    2-partition by direct enumeration."""
    best = None
    for mask in range(1, 2 ** len(values) - 1):
        groups = ([v for i, v in enumerate(values) if mask >> i & 1],
                  [v for i, v in enumerate(values) if not mask >> i & 1])
        cost = sum(sum((v - sum(g) / len(g)) ** 2 for v in g) for g in groups)
        key = frozenset(frozenset(i for i, v in enumerate(values)
                                  if (mask >> i & 1) == bit) for bit in (0, 1))
        if best is None or cost < best[0]:
            best = (cost, key)
    return best


class TestKmeansOracle:
    def test_four_point_instance_matches_brute_force(self):
        values = [0.0, 0.1, 0.9, 1.0]
        oracle_cost, oracle_partition = brute_force_two_clusters(values)
        records = one_d_records(values)
        model = kmeans(records, 2, one_d_schema(), seed=3)

        # Raw values span [0,1] so normalization is the identity here.
        by_date = {iso: idx for idx, iso in enumerate(records.dates)}
        partition = frozenset(
            frozenset(by_date[date] for _, date in refs)
            for refs in clusters_of(model))
        assert partition == oracle_partition
        assert model.objective == pytest.approx(oracle_cost)
        centroids = sorted(model.centroids[0][:, 0].tolist())
        assert centroids == pytest.approx([0.05, 0.95])

    def test_k_equals_dataset_size(self):
        records = one_d_records([0.0, 0.3, 0.7, 1.0])
        model = kmeans(records, 4, one_d_schema(), seed=1)
        assert model.member_counts.tolist() == [1, 1, 1, 1]
        assert model.objective == pytest.approx(0.0, abs=1e-12)

    def test_k_one_centroid_is_mean(self):
        schema = ft.FeatureSchema(features=(
            ft.FeatureDef("x", ft.KIND_NUMERIC),
            ft.FeatureDef("flag", ft.KIND_NOMINAL, statuses=("Y", "N")),
        ))
        records = make_dataset(x=[0.0, 0.5, 1.0], flag=["Y", "Y", "N"])
        model = kmeans(records, 1, schema, seed=0)
        cent_q, cent_n = model.centroids
        assert cent_q[0, 0] == pytest.approx(0.5)
        assert schema.feature("flag").statuses[cent_n[0, 0]] == "Y"
        assert model.member_counts.tolist() == [3]

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            kmeans(one_d_records([0.0, 1.0]), 3, one_d_schema(), seed=0)


@pytest.mark.parametrize("k", [1, 2, 6])
def test_nearest_is_argmin(k):
    # Lloyd's labels: the first of equal minima, as argmin gives it, on
    # distinct and on tied distances in distance's column-major layout.
    rng = np.random.default_rng(k)
    for dists in (rng.random((5000, k)),
                  rng.integers(0, 3, (5000, k)).astype(float),
                  np.zeros((7, k))):
        dists = np.asfortranarray(dists)
        labels = clustering._nearest(dists)
        assert labels.dtype == np.intp
        assert labels.tolist() == dists.argmin(axis=1).tolist()


class TestUpdateCentroid:
    """The centroid rules on one x column and one Y/N flag column: the
    stored one (``_update_centroids`` given the stable argsort of the
    labels as member rows, ``fsum`` means) and Lloyd's (no member rows,
    ``bincount`` means)."""

    @staticmethod
    def update(rows, labels=None, k=1, exact=True):
        quant = np.array([[x] for x, _ in rows], dtype=np.float64).reshape(-1, 1)
        nom = np.array([[flag] for _, flag in rows], dtype=np.int64).reshape(-1, 1)
        labels = np.zeros(len(rows), dtype=np.int64) if labels is None else labels
        member_rows = np.argsort(labels, kind="stable") if exact else None
        cent_q, cent_n, counts = clustering._update_centroids(
            quant, nom, labels, k, member_rows)
        assert counts.tolist() == np.bincount(labels, minlength=k).tolist()
        return cent_q, cent_n

    def test_numeric_mean(self):
        cent_q, _ = self.update([(0.2, 0), (0.4, 0)])
        assert cent_q[0, 0] == pytest.approx(0.3)
        assert cent_q[0, 0] == math.fsum([0.2, 0.4]) / 2

    def test_mode_minimizes_mismatch_sum(self):
        rows = [(0.0, 0), (0.0, 0), (0.0, 1)]
        _, cent_n = self.update(rows)
        # Enumerate both candidate modes and check the delta-sum directly.
        cost = {status: sum(1 for _, flag in rows if flag != status)
                for status in (0, 1)}
        assert cost[0] < cost[1]
        assert cent_n[0, 0] == 0

    def test_single_member(self):
        cent_q, cent_n = self.update([(0.7, 1)])
        assert cent_q[0, 0] == 0.7
        assert cent_n[0, 0] == 1

    def test_tie_breaks_by_schema_status_order(self):
        _, cent_n = self.update([(0.0, 0), (0.0, 1)])
        assert cent_n[0, 0] == 0
        _, cent_n = self.update([(0.0, 1), (0.0, 0)])
        assert cent_n[0, 0] == 0

    def test_empty_members(self):
        # A cluster with no members keeps NaN / -1 placeholders for Lloyd
        # to repair; the others are unaffected.
        cent_q, cent_n = self.update([(0.2, 1), (0.4, 1)],
                                     labels=np.array([0, 0]), k=2)
        assert cent_q[0, 0] == pytest.approx(0.3) and cent_n[0, 0] == 1
        assert math.isnan(cent_q[1, 0]) and cent_n[1, 0] == -1


    def test_lloyd_mean_is_the_row_order_float_sum(self):
        # Values spread over many magnitudes, so that the order of the
        # additions shows in the last bits: each Lloyd mean is the members'
        # values added left to right in plain doubles, divided by the count.
        rng = np.random.default_rng(3)
        xs = (rng.normal(size=300) * 10.0 ** rng.integers(-8, 9, 300)).tolist()
        labels = rng.integers(0, 3, 300)
        cent_q, _ = self.update([(x, 0) for x in xs], labels, k=3, exact=False)
        rounding_shows = False
        for c in range(3):
            members = [x for x, label in zip(xs, labels.tolist()) if label == c]
            total = 0.0
            for x in members:
                total += x
            assert cent_q[c, 0] == total / len(members)
            rounding_shows |= total / len(members) != math.fsum(members) / len(members)
        assert rounding_shows

    def test_lloyd_mode_ties_go_to_the_lowest_status(self):
        rows = [(0.0, 2), (0.0, 1), (0.0, 2), (0.0, 1), (0.0, 0)]
        _, cent_n = self.update(rows, exact=False)
        assert cent_n[0, 0] == 1
        _, cent_n = self.update(rows[:3], exact=False)
        assert cent_n[0, 0] == 2

    def test_lloyd_empty_cluster_keeps_placeholders(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cent_q, cent_n = self.update([(0.2, 1), (0.4, 1)],
                                         labels=np.array([1, 1]), k=3,
                                         exact=False)
        assert cent_q[1, 0] == (0.2 + 0.4) / 2 and cent_n[1, 0] == 1
        for c in (0, 2):
            assert math.isnan(cent_q[c, 0]) and cent_n[c, 0] == -1


class TestDeterminismAndObjective:
    def make_records(self, rng, n=80):
        x, y, flag = zip(*[(float(rng.uniform(0, 10)), float(rng.uniform(-5, 5)),
                            "Y" if rng.random() < 0.5 else "N")
                           for _ in range(n)])
        return make_dataset([f"s{i % 7}" for i in range(n)], dt.date(2014, 1, 1),
                            x=x, y=y, flag=flag)

    SCHEMA = ft.FeatureSchema(features=(
        ft.FeatureDef("x", ft.KIND_NUMERIC),
        ft.FeatureDef("y", ft.KIND_NUMERIC),
        ft.FeatureDef("flag", ft.KIND_NOMINAL, statuses=("Y", "N")),
    ))

    def test_same_seed_bit_stable(self, tmp_path):
        records = self.make_records(np.random.default_rng(10))
        a = kmeans(records, 5, self.SCHEMA, seed=99, restarts=2)
        b = kmeans(records, 5, self.SCHEMA, seed=99, restarts=2)
        save_model(a, tmp_path / "a.json")
        save_model(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_objective_matches_scalar_recomputation(self):
        records = self.make_records(np.random.default_rng(12))
        model = kmeans(records, 4, self.SCHEMA, seed=5)
        total = 0.0
        for col, refs in enumerate(clusters_of(model)):
            members = records.records[rows_of(records, refs)]
            enc = ft.encode(members, model.schema, model.norm_params)
            total += sum(ft.distance(enc, model.centroids, model.schema)[:, col])
        assert model.objective == pytest.approx(total, rel=1e-9)

    def test_every_point_assigned_once_and_no_empty_clusters(self):
        records = self.make_records(np.random.default_rng(14))
        model = kmeans(records, 6, self.SCHEMA, seed=8)
        pairs = member_pairs(model)
        assert len(pairs) == len(set(pairs)) == len(records.records)
        assert all(model.member_counts > 0)
        assert model.member_counts.sum() == len(records.records)
        # The member rows are the rows of the members, each cluster's in
        # table order, and cluster c + 1 is row c of the per-cluster
        # arrays: its members are nearest to centroid c.
        assert model.member_rows.tolist() == rows_of(records, pairs)
        enc = ft.encode(records.records, model.schema, model.norm_params)
        nearest = ft.distance(enc, model.centroids, model.schema).argmin(axis=1)
        for c, refs in enumerate(clusters_of(model)):
            rows = rows_of(records, refs)
            assert rows == sorted(rows)
            assert nearest[rows].tolist() == [c] * len(rows)

    def test_objective_trace_non_increasing(self):
        records = self.make_records(np.random.default_rng(16))
        model = kmeans(records, 4, self.SCHEMA, seed=2, track_objective=True)
        trace = model.objective_trace
        assert trace is not None and len(trace) >= 3
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9

    def test_weight_scaling_leaves_assignments_unchanged(self):
        records = self.make_records(np.random.default_rng(18))

        def schema_scaled(c):
            return ft.FeatureSchema(features=(
                ft.FeatureDef("x", ft.KIND_NUMERIC, weight=c * 1.0),
                ft.FeatureDef("y", ft.KIND_NUMERIC, weight=c * 2.0),
                ft.FeatureDef("flag", ft.KIND_NOMINAL, statuses=("Y", "N"),
                              weight=c * 0.5),
            ))

        a = kmeans(records, 4, schema_scaled(1.0), seed=21)
        b = kmeans(records, 4, schema_scaled(3.0), seed=21)
        assert clusters_of(a) == clusters_of(b)
        assert b.objective == pytest.approx(3.0 * a.objective, rel=1e-9)

    def test_empty_cluster_recovery_warns_and_repairs(self):
        # Duplicate points force both initial centroids onto the same spot
        # for some seeds; recovery must warn and still return k non-empty
        # clusters.
        records = one_d_records([0.0, 0.0, 0.0, 0.0, 1.0])
        saw_warning = False
        for seed in range(40):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = kmeans(records, 2, one_d_schema(), seed=seed)
            saw_warning |= any(issubclass(w.category, EmptyClusterWarning)
                               for w in caught)
            assert all(model.member_counts > 0)
            assert model.member_counts.sum() == 5
        assert saw_warning


class TestPlantedBlobs:
    def test_recovery_with_restarts(self):
        rng = np.random.default_rng(2024)
        centers = np.array([[0.1, 0.1], [0.5, 0.9], [0.9, 0.1]])
        labels = np.repeat([0, 1, 2], 30)
        points = centers[labels] + rng.normal(0, 0.01, size=(90, 2))
        records = make_dataset(start=dt.date(2014, 1, 1), x=points[:, 0],
                               y=points[:, 1])
        schema = ft.FeatureSchema(features=(
            ft.FeatureDef("x", ft.KIND_NUMERIC),
            ft.FeatureDef("y", ft.KIND_NUMERIC),
        ))
        recovered = 0
        for seed in range(10):
            model = kmeans(records, 3, schema, seed=seed, restarts=25)
            planted = {
                frozenset(i for i in range(90) if labels[i] == b)
                for b in range(3)
            }
            by_date = {(dt.date(2014, 1, 1) + dt.timedelta(days=i)).isoformat(): i
                       for i in range(90)}
            found = {
                frozenset(by_date[date] for _, date in refs)
                for refs in clusters_of(model)
            }
            recovered += found == planted
        assert recovered == 10


def two_cluster_fixture():
    """A dataset of six records with a known 2-group structure and raw
    profiles, its schema."""
    schema = one_d_schema("l_avg_kva")
    dates = [dt.date(2015, 1, 10), dt.date(2015, 1, 11), dt.date(2015, 7, 10),
             dt.date(2015, 7, 11), dt.date(2015, 7, 12), dt.date(2015, 1, 12)]
    values = [1.0, 1.1, 5.0, 5.1, 5.2, 0.9]
    dataset = make_dataset(date=dates, l_avg_kva=values,
                           load_kva=[[v] * 24 for v in values],
                           ambient_c=[[float(i)] * 24 for i in range(6)])
    return dataset, schema


class TestCompositionAndMatrix:
    def test_composition_denormalizes_boundaries(self):
        records = one_d_records([-22.83, 1.0, 24.92])
        schema = one_d_schema()
        model = kmeans(records, 3, schema, seed=1)
        raw = {row["cluster_id"]: row["x"] for row in clustering.composition(model)}
        values = sorted(raw.values())
        assert values[0] == pytest.approx(-22.83)
        assert values[-1] == pytest.approx(24.92)

    def test_composition_counts_match_membership(self):
        records, schema = two_cluster_fixture()
        model = kmeans(records, 2, schema, seed=4)
        rows = clustering.composition(model)
        assert [row["cluster_id"] for row in rows] == [1, 2]
        assert [row["member_count"] for row in rows] == \
            [len(refs) for refs in clusters_of(model)] == [3, 3]

    def test_month_matrix_single_cluster_january(self):
        records = one_d_records([0.1, 0.2, 0.3], start=dt.date(2015, 1, 5))
        model = kmeans(records, 1, one_d_schema(), seed=0)
        matrix = month_cluster_matrix(model)
        assert matrix[0, 0] == 3
        assert matrix[1:, 0].sum() == 0

    def test_month_matrix_column_sums_equal_member_counts(self):
        records, schema = two_cluster_fixture()
        model = kmeans(records, 2, schema, seed=4)
        matrix = month_cluster_matrix(model)
        assert matrix.sum(axis=0).tolist() == model.member_counts.tolist()

    def test_month_matrix_seasonal_concentration(self):
        # High-load days are planted in June..August; the high cluster's
        # member days must land in those rows.
        records, schema = two_cluster_fixture()
        model = kmeans(records, 2, schema, seed=4)
        matrix = month_cluster_matrix(model)
        col = int(model.centroids[0][:, 0].argmax())
        assert matrix[5:8, col].sum() == model.member_counts[col]


class TestProfiles:
    def test_single_member_cluster_equals_raw_profile(self):
        dataset, schema = two_cluster_fixture()
        one = replace(dataset, records=dataset.records[:1])
        model = kmeans(one, 1, schema, seed=0)
        load_kva, ambient_c = extract_profiles(model, one)
        records = dataset.records
        assert load_kva.tolist() == [
            dataset.load[records["load_row"][0]].tolist()]
        assert ambient_c.tolist() == [
            dataset.ambient[records["day"][0]].tolist()]

    def test_two_member_mean(self):
        dataset, schema = two_cluster_fixture()
        model = kmeans(dataset, 2, schema, seed=4)
        load_kva, ambient_c = extract_profiles(model, dataset)
        records = dataset.records
        for c, refs in enumerate(clusters_of(model)):
            expected_load = np.zeros(24)
            expected_amb = np.zeros(24)
            for row in rows_of(dataset, refs):
                expected_load += dataset.load[records["load_row"][row]]
                expected_amb += dataset.ambient[records["day"][row]]
            expected_load /= len(refs)
            expected_amb /= len(refs)
            assert load_kva[c] == pytest.approx(expected_load)
            assert ambient_c[c] == pytest.approx(expected_amb)

    @pytest.mark.parametrize("load,ambient", [
        (1.0, -300.0), (1.0, 61.0), (-0.5, 20.0), (math.nan, 20.0),
        (1.0, math.inf)])
    @pytest.mark.parametrize("bad", [1, 2])
    def test_profile_out_of_range_refused_at_construction(self, load,
                                                          ambient, bad):
        # Built in Python, not read from a file: below absolute zero the
        # service grid's aging factors would underflow.
        good = ([1.0] * 24, [20.0] * 24)
        hours = ([1.0] * 23 + [load], [20.0] * 23 + [ambient])
        with pytest.raises(ValueError, match=rf"^cluster {bad} profile needs "
                           r"24 finite hourly values each.*\[-60, 60\]"):
            make_model_with_profiles([(hours, 3)] if bad == 1
                                     else [(good, 3), (hours, 3)])

    def test_profiles_of_the_wrong_shape_refused(self):
        model = make_model_with_profiles([(([1.0] * 24, [20.0] * 24), 3)])
        with pytest.raises(ValueError, match=r"\(1, 24\) arrays"):
            replace(model, profiles=(np.ones((1, 23)), np.zeros((1, 23))))
        assert replace(model, profiles=None).profiles is None


class TestModelFile:
    def test_roundtrip_preserves_model(self, tmp_path):
        records, schema = two_cluster_fixture()
        model = train_model(records, 2, schema, seed=4, restarts=2)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.k == model.k
        assert loaded.seed == model.seed
        assert loaded.objective == model.objective
        assert loaded.far_threshold == model.far_threshold
        assert loaded.schema == model.schema
        assert loaded.norm_params == model.norm_params
        assert loaded.service_ids == model.service_ids
        for name in ("member_services", "member_days"):
            got, want = getattr(loaded, name), getattr(model, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert loaded.member_rows is None
        for name in ("centroids", "profiles"):
            for got, want in zip(getattr(loaded, name), getattr(model, name)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        assert loaded.member_counts.tolist() == model.member_counts.tolist()
        assert not loaded.centroids[0].flags.writeable

    def test_loaded_members_are_the_file_lists_in_order(self, golden_pipeline):
        # The member arrays are every cluster's member list of model.json,
        # cluster 1's first, the ids coded in their sorted table, and the
        # month matrix counts each member's month once.
        path = golden_pipeline[0][0] / "out" / "model.json"
        doc = json.loads(path.read_text())
        model = load_model(path)
        assert member_pairs(model) == tuple(
            tuple(ref) for entry in doc["clusters"] for ref in entry["members"])
        assert list(model.service_ids) == sorted({
            service for entry in doc["clusters"]
            for service, _ in entry["members"]})
        expected = np.zeros((12, model.k), dtype=np.int64)
        for c, entry in enumerate(doc["clusters"]):
            for _, date in entry["members"]:
                expected[int(date[5:7]) - 1, c] += 1
        matrix = month_cluster_matrix(model)
        assert matrix.dtype == expected.dtype
        assert matrix.tolist() == expected.tolist()

    def test_rewriting_loaded_model_is_byte_identical(self, tmp_path):
        records, schema = two_cluster_fixture()
        model = train_model(records, 2, schema, seed=4)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("which", ["golden", "200-services"])
    def test_rewriting_a_trained_model_file_is_byte_identical(
            self, golden_pipeline, tmp_path, which):
        # The member lists are written from the id table and the day
        # numbers, each distinct id and date quoted once; a model read back
        # holds the same arrays and writes the same bytes.
        path = golden_pipeline[0][0] / "out" / "model.json"
        if which != "golden":
            paths = ingest.synth_dataset(5, 200, dt.date(2015, 12, 20), 20,
                                         out_dir=tmp_path / "data")
            dataset = ingest.load_dataset(paths["weather"], paths["meter"],
                                          paths["calendar"])
            model = train_model(dataset, 5, ft.default_schema(), seed=1)
            path = tmp_path / "model.json"
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.service_ids == dataset.services
            assert len(loaded.service_ids) == 200
            for name in ("member_services", "member_days"):
                assert np.array_equal(getattr(loaded, name),
                                      getattr(model, name))
        save_model(load_model(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_member_listed_twice_named_by_its_first_listing(self, tmp_path):
        dataset, schema = two_cluster_fixture()
        path = tmp_path / "model.json"
        save_model(train_model(dataset, 2, schema, seed=4), path)
        doc = json.loads(path.read_text())
        first, second = doc["clusters"][0]["members"][:2]
        doc["clusters"][1]["members"] += [second, first]
        doc["clusters"][1]["member_count"] += 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(
                f"member {first} is listed more than once")):
            load_model(path)

    def test_file_is_the_json_dumps_text(self, tmp_path):
        # The member lists are written outside json.dumps, in its bytes:
        # non-ASCII ids as \uXXXX escapes, quotes and backslashes escaped.
        records, schema = two_cluster_fixture()
        model = train_model(records, 2, schema, seed=4)
        ids = sorted(["S\u00e9", 'q"uote', "back\\slash", "\u2603 \x1f"])
        model = replace(model, service_ids=tuple(ids), member_services=np.arange(
            len(model.member_days)) % len(ids))
        members = member_pairs(model)
        path = tmp_path / "model.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert tuple(tuple(ref) for entry in doc["clusters"]
                     for ref in entry["members"]) == members

    @pytest.mark.parametrize("rows", [1, 2, 3, 4])
    def test_members_written_in_chunks_are_the_json_dumps_text(
            self, tmp_path, monkeypatch, rows):
        # Members are laid out _MEMBER_ROWS at a time; clusters of 3 and 3
        # members cross a chunk's end, fill one exactly or fit in one,
        # with ids of one width and of several, escaped or not.
        monkeypatch.setattr(clustering, "_MEMBER_ROWS", rows)
        records, schema = two_cluster_fixture()
        model = train_model(records, 2, schema, seed=4)
        assert model.member_counts.tolist() == [3, 3]
        for ids in (None, ["7", "12", "S\u00e9", 'a"b', "S0001"]):
            if ids is not None:
                model = replace(model, service_ids=tuple(sorted(ids)),
                                member_services=np.array([4, 0, 2, 1, 3, 1]))
            path = tmp_path / "model.json"
            save_model(model, path)
            text = path.read_text(encoding="utf-8")
            doc = json.loads(text)
            assert text == json.dumps(doc, indent=2) + "\n"
            assert tuple(tuple(ref) for entry in doc["clusters"]
                         for ref in entry["members"]) == member_pairs(model)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_refused_before_writing(self, tmp_path, value):
        records, schema = two_cluster_fixture()
        model = train_model(records, 2, schema, seed=4)
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(replace(model, far_threshold=value), path)
        assert not path.exists()

    def test_stored_floats_recompute_bit_for_bit_from_members(self, tmp_path):
        # Every float in model.json is recomputed here from the member refs
        # and the raw inputs by the documented rules (fsum means, distances
        # summed pair by pair as in the reference loop of test_features, fsum
        # objective, linear-interpolated percentile) and must match to the
        # last bit.
        paths = ingest.synth_dataset(7, 4, dt.date(2015, 1, 1), 120,
                                     out_dir=tmp_path / "data")
        dataset = ingest.load_dataset(paths["weather"], paths["meter"],
                                      paths["calendar"])
        schema = ft.default_schema()
        model = train_model(dataset, 4, schema, seed=3, restarts=2)
        save_model(model, tmp_path / "model.json")
        doc = json.loads((tmp_path / "model.json").read_text())
        loaded = load_model(tmp_path / "model.json")
        params = loaded.norm_params

        member_dists = []
        for entry in doc["clusters"]:
            refs = [tuple(ref) for ref in entry["members"]]
            count = entry["member_count"]
            assert count == len(refs)
            rows = rows_of(dataset, refs)
            quant, nom = ft.encode(dataset.records[rows], schema, params)
            for j, name in enumerate(schema.quantitative_names):
                mean = math.fsum(quant[:, j].tolist()) / count
                assert entry["centroid_normalized"][name] == mean
            for name in schema.numeric_names:
                assert entry["centroid_raw"][name] == ft.denormalize(
                    entry["centroid_normalized"][name], params, name)
            for j, name in enumerate(schema.nominal_names):
                statuses = schema.feature(name).statuses
                votes = [int((nom[:, j] == code).sum())
                         for code in range(len(statuses))]
                mode = statuses[votes.index(max(votes))]
                assert entry["centroid_nominal"][name] == mode
            days = dataset.records["day"][rows]
            loads = dataset.load[dataset.records["load_row"][rows]]
            for key, values in (("load_kva", loads),
                                ("ambient_c", dataset.ambient[days])):
                for hour in range(24):
                    mean = math.fsum(values[:, hour].tolist()) / count
                    assert entry["profile"][key][hour] == mean
            centroid = (
                [entry["centroid_normalized"][name]
                 for name in schema.quantitative_names],
                [schema.feature(name).statuses.index(entry["centroid_nominal"][name])
                 for name in schema.nominal_names])
            member_dists += [reference_distance(member, centroid, schema)
                             for member in zip(quant.tolist(), nom.tolist())]

        assert doc["objective"] == math.fsum(member_dists)
        assert clustering.FAR_GUARD_PERCENTILE == 95.0
        xs = sorted(member_dists)
        i, rem = divmod((len(xs) - 1) * 95, 100)
        expected = xs[i] + (rem / 100) * (xs[i + 1] - xs[i]) if rem else xs[i]
        assert doc["far_threshold"] == expected
        stored = [doc["objective"], doc["far_threshold"]]
        for entry in doc["clusters"]:
            stored += list(entry["centroid_normalized"].values())
            stored += list(entry["centroid_raw"].values())
            stored += entry["profile"]["load_kva"] + entry["profile"]["ambient_c"]
        assert all(math.isfinite(v) for v in stored)


def model_outcome(path):
    """What :func:`load_model` makes of ``path``: every field of the model
    as plain values, or the refusal's exit code and message."""
    try:
        model = load_model(path)
    except ParseError as exc:
        return ("refused", exc.exit_code, str(exc))
    arrays = (model.member_services, model.member_days, model.member_counts,
              *model.centroids, *(model.profiles or ()))
    return ("loaded", model.service_ids, model.schema, model.norm_params,
            model.seed, model.objective, model.far_threshold, model.restarts,
            [(a.dtype.str, a.shape, a.tolist()) for a in arrays])


def both_ways(path):
    """:func:`model_outcome` of ``path`` as it is and with the member scan
    declined, so that ``json`` reads the whole file, which must agree; and
    whether the scan read the file."""
    scanned = clustering._scan_model(path) is not None
    outcome = model_outcome(path)
    with mock.patch.object(clustering, "_scan_model", lambda path: None):
        assert model_outcome(path) == outcome
    return outcome, scanned


def field_span(text, index):
    """The span of member field ``index`` of model.json text: member
    ``index // 2``'s id, or its date if ``index`` is odd, cluster 1's
    members first."""
    at = text.index('"members": [')
    for _ in range(index + 1):
        at = text.index('\n          "', at + 1)
    start = at + len('\n          "')
    return start, text.index('"', start)


def with_field(text, index, value):
    start, end = field_span(text, index)
    return text[:start] + value + text[end:]


def member_block(text, member):
    """The text of member ``member`` with its separator."""
    start = field_span(text, 2 * member)[0]
    start = text.rindex("\n        [", 0, start) + 1
    return text[start:text.index("],\n", start) + 3]


def with_member_twice(text, member):
    block = member_block(text, member)
    return text.replace(block, block + block, 1)


def with_count(text, cluster, change):
    """The text with cluster ``cluster``'s member_count moved by
    ``change``."""
    at = text.index('"id": %d,' % cluster)
    at = text.index('"member_count": ', at) + len('"member_count": ')
    end = text.index(",", at)
    return text[:at] + str(int(text[at:end]) + change) + text[end:]


class TestModelScan:
    """A model file in the layout save_model writes has its member lists
    read as bytes; every other file goes to json. Each case loads a file
    both ways and asserts the same fields or the same refusal."""

    def test_every_written_model_takes_the_scan(self, golden_pipeline,
                                                tmp_path):
        # A silent decline would keep every result and lose the speed.
        dataset, schema = two_cluster_fixture()
        profile = ([1.0] * 24, [20.0] * 24)
        models = {"k1": train_model(dataset, 1, schema, seed=4),
                  "one_member": make_model_with_profiles([(profile, 1),
                                                          (profile, 3)]),
                  "no_profiles": replace(kmeans(dataset, 2, schema, seed=4),
                                         member_rows=None)}
        paths = [golden_pipeline[0][0] / "out" / "model.json"]
        for name, model in models.items():
            paths.append(tmp_path / f"{name}.json")
            save_model(model, paths[-1])
        counts = []
        for path in paths:
            outcome, scanned = both_ways(path)
            assert scanned and outcome[0] == "loaded"
            counts.append(outcome[-1][2][2])
        assert len(counts[0]) == 6 and sum(counts[0]) == 14600
        assert counts[1:3] == [[6], [1, 3]]
        assert len(counts[3]) == 2 and sum(counts[3]) == 6

    @pytest.mark.parametrize("edit,scanned,message", [
        # A field the scan reads and the shared checks refuse.
        (lambda t: with_field(t, 6, "    "), True,
         "cluster 1 member service id '    ' is not a non-blank string"),
        (lambda t: with_field(t, 7, "2015-02-30"), True,
         "day is out of range for month"),
        (lambda t: with_field(t, 7, "2015-13-01"), True,
         "month must be in 1..12"),
        (lambda t: with_field(t, 7, "2015-1-01"), False,
         "Invalid isoformat string: '2015-1-01'"),
        (lambda t: with_field(t, 7, "0000-01-01"), True,
         "year 0 is out of range"),
        # A field json reads otherwise than as its bytes.
        (lambda t: with_field(t, 6, 'S\\"1'), False, None),
        (lambda t: with_field(t, 6, "S\\u00e9"), False, None),
        (lambda t: with_field(t, 6, "S\u00e91"), False, None),
        (lambda t: with_field(t, 6, "S\t01"), False,
         "Invalid control character"),
        # Members and counts.
        (lambda t: with_member_twice(t, 3), True,
         "cluster 1 member_count"),
        (lambda t: with_count(with_member_twice(t, 3), 1, 1), True,
         "is listed more than once"),
        (lambda t: with_count(t, 2, -1), True, "cluster 2 member_count"),
        # An id line repeated: the member holds three texts.
        (lambda t: t.replace(member_block(t, 3), member_block(t, 3)[:32]
                             + member_block(t, 3)[12:], 1), False,
         "too many values to unpack (expected 2)"),
        (lambda t: t.replace(member_block(t, 3), member_block(t, 3)[:-2], 1),
         False, "cannot read cluster model"),
        # File layout.
        (lambda t: t.replace("\n", "\r\n"), False, None),
        (lambda t: "\ufeff" + t, False, "Unexpected UTF-8 BOM"),
        (lambda t: t.replace('\n          "S0', '\n           "S0', 1), False,
         None),
        (lambda t: t.replace('\n      "members": [', '\n      "members": [],'
                             '\n      "members": [', 1), False, None),
        (lambda t: t.replace('"weight": 1.0\n    }', '"weight": 1.0,\n'
                             '      "members": []\n    }', 1), False, None),
        (lambda t: t.replace('\n      "members": [', '\n      "members": '
                             '"\\u0000",\n      "members": [', 1), False,
         None),
    ], ids=["blank_id", "date_feb_30", "date_month_13", "date_short",
            "date_year_0", "escaped_quote_id", "escaped_e_id", "raw_utf8_id",
            "tab_id", "member_twice", "member_twice_counted",
            "member_count_minus_one", "duplicated_line", "separator_cut",
            "crlf", "bom",
            "extra_space", "second_members_key", "schema_members_key",
            "slot_text_in_file"])
    def test_edit_reads_the_same_both_ways(self, golden_pipeline, tmp_path,
                                           edit, scanned, message):
        source = golden_pipeline[0][0] / "out" / "model.json"
        path = tmp_path / "model.json"
        path.write_bytes(edit(source.read_text(encoding="utf-8"))
                         .encode("utf-8"))
        outcome, took_scan = both_ways(path)
        assert took_scan == scanned
        if message is None:
            assert outcome[0] == "loaded"
        else:
            assert outcome[:2] == ("refused", 3) and message in outcome[2]

    def test_random_edits_read_the_same_both_ways(self, golden_pipeline,
                                                  tmp_path):
        # Seeded damage inside the member lists: bytes replaced, inserted
        # and deleted, whole lines repeated or dropped, and bytes of member
        # fields replaced.
        text = (golden_pipeline[0][0] / "out" / "model.json").read_bytes()
        lo, hi = text.index(b'"members": ['), text.rindex(b'"profile"')
        rng = np.random.default_rng(20261020)
        alphabet = b' \n\r\t"\\,[]{}:-0123456789Sx\x00\xc3\xa9\x7f'
        scanned = 0
        for case in range(150):
            at = int(rng.integers(lo, hi))
            byte = alphabet[int(rng.integers(len(alphabet)))]
            kind = case % 5
            if kind == 4:
                at = text.index(b'\n          "', at) + 12 + int(rng.integers(4))
            if kind in (0, 4):
                damaged = text[:at] + bytes([byte]) + text[at + 1:]
            elif kind == 1:
                damaged = text[:at] + bytes([byte]) + text[at:]
            elif kind == 2:
                damaged = text[:at] + text[at + 1:]
            else:
                start = text.rindex(b"\n", 0, at)
                end = text.index(b"\n", at)
                damaged = (text[:end] + text[start:end] + text[end:]
                           if rng.integers(2) else text[:start] + text[end:])
            path = tmp_path / f"{case}.json"
            path.write_bytes(damaged)
            scanned += both_ways(path)[1]
        assert scanned  # some edits stay in the layout


def test_array_date_rule_is_iso_date():
    # Every 10-byte text the rule reads must be one that iso_date reads,
    # to the same day, and every other one refused.
    texts = [f"{y}-{m}-{d}".encode() for y in (
        "0000", "0001", "0004", "1600", "1899", "1900", "2000", "2015",
        "2016", "2100", "9999", "20 5", "2O15", "-015", "+015")
        for m in ("00", "01", "02", "03", "04", "09", "10", "11", "12", "13",
                  "1a", "-1", " 1", "1 ")
        for d in ("00", "01", "28", "29", "30", "31", "32", " 1", "1 ", "3:")]
    rng = np.random.default_rng(7)
    alphabet = np.frombuffer(b"0123456789-/ T:", np.uint8)
    texts += [rng.choice(alphabet, 10).tobytes() for _ in range(3000)]
    texts += [b"2015/01/01", b"20150101xx", b"2015-0101-", b"2015-W02-1"]
    texts += [(dt.date(1900, 1, 1) + dt.timedelta(days=i)).isoformat().encode()
              for i in range(0, 60000, 7)]
    days, good = clustering._iso_days(
        np.frombuffer(b"".join(texts), np.uint8).reshape(-1, 10))
    for text, day, ok in zip(texts, days.tolist(), good.tolist()):
        try:
            expected = ingest.iso_date(text.decode()).toordinal()
        except ValueError:
            assert not ok, text
        else:
            assert ok and day == expected, text
    assert good.sum() > 8500


class TestFiniteFeatures:
    @pytest.mark.parametrize("name,value,row", [
        ("t_max_c", math.nan, 3), ("l_avg_kva", math.inf, 0),
        ("t_min_c", -math.inf, 5), ("level", math.nan, 2),
        ("level", math.inf, 4)])
    def test_non_finite_value_refused_naming_feature_and_row(self, name,
                                                             value, row):
        # One NaN once gave normalization bounds (nan, nan) and a NaN
        # centroid that only save_model refused, as JSON it cannot write.
        schema = ft.FeatureSchema(features=(
            *ft.default_schema().features,
            ft.FeatureDef("level", ft.KIND_ORDINAL, statuses=("lo", "hi"))))
        rng = np.random.default_rng(row)
        columns = {feature: rng.uniform(0, 10, 8)
                   for feature in schema.quantitative_names}
        columns["level"] = rng.choice([0.25, 0.75], 8)
        columns[name][[row, 7]] = value
        records = make_dataset(weekday=["Y", "N"] * 4, **columns)
        with pytest.raises(ValueError,
                           match=f"feature '{name}' is .* at row {row};"):
            kmeans(records, 2, schema, seed=1)


def reference_lloyd(quant, nom, schema, init_idx, track_objective):
    """Lloyd's algorithm evaluating every point against every centroid in
    every iteration: the full path whose labels, restart objective, trace
    and warnings :func:`clustering._lloyd` must reproduce bit for bit."""
    k = len(init_idx)
    n = quant.shape[0]
    cent_q = quant[init_idx].copy()
    cent_n = nom[init_idx].copy()
    trace = []
    data = (quant, nom)

    dists = ft.distance(data, (cent_q, cent_n), schema)
    labels = clustering._nearest(dists)
    if track_objective:
        trace.append(float(dists[np.arange(n), labels].sum()))

    for _ in range(clustering.MAX_ITERATIONS):
        counts = np.bincount(labels, minlength=k)
        cent_q, cent_n, _ = clustering._update_centroids(quant, nom, labels,
                                                         k)
        empties = np.flatnonzero(counts == 0)
        if len(empties):
            cur = ft.distance(data, (cent_q, cent_n), schema)
            own = cur[np.arange(n), labels]
            for c in empties.tolist():
                far = int(own.argmax())
                warnings.warn(
                    f"cluster {c + 1} became empty; centroid reseeded to the "
                    "point farthest from its own centroid",
                    EmptyClusterWarning, stacklevel=3)
                cent_q[c] = quant[far]
                cent_n[c] = nom[far]
                own[far] = -np.inf
        if track_objective:
            d_upd = ft.distance(data, (cent_q, cent_n), schema)
            trace.append(float(d_upd[np.arange(n), labels].sum()))

        dists = ft.distance(data, (cent_q, cent_n), schema)
        new_labels = clustering._nearest(dists)
        if track_objective:
            trace.append(float(dists[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    counts = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(counts == 0).tolist():
        own = dists[np.arange(n), labels].copy()
        own[counts[labels] <= 1] = -np.inf
        far = int(own.argmax())
        warnings.warn(
            f"cluster {c + 1} empty at convergence; adopted the farthest "
            "point of a multi-member cluster",
            EmptyClusterWarning, stacklevel=3)
        cent_q[c] = quant[far]
        cent_n[c] = nom[far]
        counts[labels[far]] -= 1
        counts[c] += 1
        labels[far] = c
        dists = ft.distance(data, (cent_q, cent_n), schema)

    return labels, float(dists[np.arange(n), labels].sum()), trace


def lloyd_case(seed, n, q, m, k, levels=4, weights=(0.5, 1.0, 2.0),
               distinct=None):
    """Encoded data for Lloyd: ``q`` quantitative columns on a grid of
    ``levels`` steps in [0, 1] (a coarse grid makes exact ties), ``m``
    nominal columns of 3 statuses, drawn from ``distinct`` points when given
    (duplicates), features weighted from ``weights``, and ``k`` distinct
    initial rows."""
    rng = np.random.default_rng(seed)
    rows = n if distinct is None else distinct
    quant = rng.integers(0, levels + 1, (rows, q)) / levels
    nom = rng.integers(0, 3, (rows, m))
    if distinct is not None:
        pick = rng.integers(0, distinct, n)
        quant, nom = quant[pick], nom[pick]
    schema = ft.FeatureSchema(features=(
        *(ft.FeatureDef(f"q{j}", ft.KIND_NUMERIC,
                        weight=float(rng.choice(weights))) for j in range(q)),
        *(ft.FeatureDef(f"n{j}", ft.KIND_NOMINAL, statuses=("a", "b", "c"),
                        weight=float(rng.choice(weights))) for j in range(m))))
    return (np.asfortranarray(quant), np.asfortranarray(nom), schema,
            rng.choice(n, k, replace=False))


def lloyd_outcome(lloyd, quant, nom, schema, init, track_objective):
    """Labels, restart objective and trace as bits, and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        labels, objective, trace = lloyd(quant, nom, schema, init,
                                         track_objective)
    return (labels.tolist(), objective.hex(), [t.hex() for t in trace],
            [(w.category, str(w.message)) for w in caught])


class TestHamerlyBounds:
    """``clustering._lloyd`` skips a point's evaluation while its bounds
    prove its label; it must agree with the full path in every bit."""

    CASES = {
        "mixed": dict(seed=1, n=60, q=2, m=2, k=5),
        "duplicates": dict(seed=2, n=50, q=2, m=1, k=6, distinct=7),
        "ties": dict(seed=3, n=60, q=2, m=1, k=6, levels=1),
        "zero-weights": dict(seed=4, n=60, q=3, m=2, k=4,
                             weights=(0.0, 0.0, 1.0)),
        "nominal-only": dict(seed=5, n=60, q=0, m=3, k=5),
        "quantitative-only": dict(seed=6, n=60, q=3, m=0, k=5, levels=8),
        "k=1": dict(seed=7, n=30, q=2, m=1, k=1),
        "k=n": dict(seed=8, n=12, q=1, m=1, k=12, levels=2),
        "reseed": dict(seed=9, n=40, q=1, m=1, k=8, distinct=4, levels=2),
    }

    @pytest.mark.parametrize("track_objective", [False, True])
    @pytest.mark.parametrize("name", CASES)
    def test_same_outcome_as_the_full_path(self, name, track_objective):
        case = lloyd_case(**self.CASES[name])
        full = lloyd_outcome(reference_lloyd, *case, track_objective)
        assert lloyd_outcome(clustering._lloyd, *case, track_objective) == full
        if name == "reseed":
            assert any("became empty" in text for _, text in full[3])

    def test_same_outcome_over_seeded_cases(self):
        # Small random cases of every shape the named ones cover; between
        # them they reseed empty clusters and hand points over at
        # convergence, so every branch of the loop is compared.
        seen = set()
        for seed in range(150):
            rng = np.random.default_rng([21, seed])
            n = int(rng.integers(2, 40))
            q, m = (int(v) for v in rng.integers(0, 3, 2))
            k = int(rng.integers(1, min(n, 8) + 1))
            case = lloyd_case(
                seed, n, q or int(not m), m, k,
                levels=int(rng.choice([1, 2, 4, 8])),
                weights=(0.0, 0.25, 1.0, 2.0),
                distinct=int(rng.integers(1, n + 1)) if seed % 3 else None)
            full = lloyd_outcome(reference_lloyd, *case, True)
            assert lloyd_outcome(clustering._lloyd, *case, True) == full, seed
            seen.update(text.split("; ")[0].split(" ", 2)[2]
                        for _, text in full[3])
        assert seen == {"became empty", "empty at convergence"}

    @pytest.mark.parametrize("gaps", [False, True])
    def test_distance_of_a_row_subset_is_those_rows_of_the_full_call(self,
                                                                     gaps):
        rng = np.random.default_rng(31)
        quant, nom, schema, _ = lloyd_case(31, 500, 3, 2, 1)
        if gaps:
            quant[rng.random(quant.shape) < 0.1] = np.nan
            nom[rng.random(nom.shape) < 0.1] = -1
        cents = (rng.random((5, 3)), rng.integers(0, 3, (5, 2)))
        full = ft.distance((quant, nom), cents, schema).view(np.uint64)
        for rows in (np.arange(0), np.arange(500), np.flatnonzero(
                rng.random(500) < 0.3), np.array([7]), np.array([499, 3])):
            sub = ft.distance(clustering._take((quant, nom), rows), cents,
                              schema)
            assert np.array_equal(sub.view(np.uint64), full[rows])

    def test_a_point_at_an_exact_tie_is_evaluated(self):
        # x = 0.25 starts in cluster 2 (centroid 0.375). Cluster 2's mean
        # moves straight away from it to 0.5, so its upper bound
        # 0.125 + 0.125 = 0.25 is exact, and so is half the distance
        # between the centroids, (0.5 - 0) / 2 = 0.25: x sits at the
        # midpoint, tied with cluster 1's centroid 0, which the first-min
        # rule prefers. A rule that kept a label at equality (u <= s, with
        # no margin) would leave x in cluster 2 and stop there; the full
        # path moves x, and then 0.375, tied again between 0.125 and 0.625,
        # to cluster 1.
        quant = np.asfortranarray([[0.0], [0.25], [0.375], [0.875]])
        nom = np.zeros((4, 0), dtype=np.int64)
        schema = one_d_schema()
        full = lloyd_outcome(reference_lloyd, quant, nom, schema, [0, 2], True)
        assert full[0] == [0, 0, 0, 1]
        assert lloyd_outcome(clustering._lloyd, quant, nom, schema, [0, 2],
                             True) == full

    def test_few_evaluations_on_the_golden_input(self, golden_pipeline,
                                                 monkeypatch):
        # The full path evaluates n * k pairs at the start and in every
        # iteration; the bounds evaluate a small share of that, counting
        # every distance call kmeans makes (the subsets whose bounds fail,
        # the centroid moves, the own-centroid distances).
        data = golden_pipeline[0][0] / "data"
        dataset = ingest.load_dataset(data / "weather.csv", data / "meter.csv",
                                      data / "calendar.csv")
        records = dataset.records
        schema, k, n = ft.default_schema(), 6, len(records)
        quant, nom = ft.encode(records, schema,
                               ft.fit_normalization(records, schema))
        rng = np.random.default_rng(42)
        full_pairs = 0
        for _ in range(3):
            trace = reference_lloyd(quant, nom, schema,
                                    rng.choice(n, k, replace=False), True)[2]
            full_pairs += n * k * ((len(trace) - 1) // 2 + 1)

        pairs = []
        distance = ft.distance

        def counted(x, y, schema):
            pairs.append(len(x[0]) * len(y[0]))
            return distance(x, y, schema)

        monkeypatch.setattr(ft, "distance", counted)
        kmeans(dataset, k, schema, seed=42, restarts=3)
        assert sum(pairs) < 0.2 * full_pairs


def fsum_means(values, member_rows, counts):
    """The reference of ``summation.member_means``: per cluster and
    column, ``math.fsum`` of the members' values over their count."""
    means = np.full((len(counts), values.shape[1]), np.nan)
    for c, rows in enumerate(np.split(member_rows, np.cumsum(counts)[:-1])):
        if len(rows):
            means[c] = [math.fsum(values[rows, j].tolist()) / len(rows)
                        for j in range(values.shape[1])]
    return means


def means_case(rng):
    """A random grid of values and a random split of some of its rows into
    clusters, some empty or of one member: ``(values, member_rows,
    counts)``."""
    rows, d = int(rng.integers(1, 60)), int(rng.integers(1, 5))
    kind = rng.integers(4)
    if kind == 0:  # magnitudes from 1e-310 to 1e300, either sign
        values = (rng.choice([-1.0, 1.0], (rows, d))
                  * 10.0 ** rng.uniform(-310, 300, (rows, d)))
    elif kind == 1:  # a 2- or 3-decimal grid, as meter files hold
        places = int(rng.integers(2, 4))
        values = rng.integers(-10 ** 6, 10 ** 6, (rows, d)) / 10.0 ** places
    elif kind == 2:  # values near 1 with a few far smaller ones
        values = 1 + rng.standard_normal((rows, d))
        values[rng.random((rows, d)) < 0.2] *= 1e-30
    else:  # zeros of either sign
        values = rng.choice([0.0, -0.0, 1.5, -2.25], (rows, d),
                            p=[0.45, 0.45, 0.05, 0.05])
    values[:, rng.random(d) < 0.2] = rng.choice([0.0, -0.0])  # zero columns
    k = int(rng.integers(1, 5))
    labels = rng.integers(0, k + 1, rows)  # label k: not a member
    members = np.flatnonzero(labels < k)
    member_rows = members[np.argsort(labels[members], kind="stable")]
    return values, member_rows, np.bincount(labels[members], minlength=k)


class TestExactMeans:
    """``summation.member_means`` takes each sum by error-free
    extraction; it must give ``math.fsum``'s mean bit for bit."""

    @staticmethod
    def assert_same_bits(values, member_rows, counts):
        got = summation.member_means(values, member_rows, counts)
        want = fsum_means(values, member_rows, counts)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 3, 1024])
    def test_seeded_cases_equal_fsum(self, monkeypatch, block):
        # With blocks of 1 and 3 members, every cluster crosses block ends.
        monkeypatch.setattr(summation, "_MEAN_ROWS", block)
        for seed in range(100):
            self.assert_same_bits(*means_case(np.random.default_rng([30, seed])))

    def test_many_members_across_blocks(self):
        rng = np.random.default_rng(31)
        values = np.round(rng.uniform(0, 40, (5000, 24)), 3)
        values[::7] *= 1e-12
        labels = rng.integers(0, 3, len(values))
        self.assert_same_bits(values, np.argsort(labels, kind="stable"),
                              np.bincount(labels, minlength=3))

    @pytest.mark.parametrize("spoiled", [math.nan, math.inf, 1.7e308])
    def test_columns_past_the_extraction_range(self, spoiled):
        # A column with a value that is not finite, or so large that sigma
        # would overflow, is summed by fsum over its members, here even
        # where that value is not a member's.
        values = np.array([[1.0, 2.0], [3.0, 1e-300], [spoiled, 5.0]])
        self.assert_same_bits(values, np.array([0, 1]), np.array([2]))
        values[2, 0] = -1.7e308
        self.assert_same_bits(values, np.array([0, 1, 2]), np.array([1, 2]))


def per_cluster_own_distances(data, centroids, labels, schema):
    """The reference of ``clustering._own_distances``: one
    ``features.distance`` call per cluster on its members."""
    own = np.empty(len(labels))
    for c in range(len(centroids[0])):
        rows = np.flatnonzero(labels == c)
        own[rows] = ft.distance(tuple(part[rows] for part in data), (
            centroids[0][c:c + 1], centroids[1][c:c + 1]), schema)[:, 0]
    return own


class TestOwnDistances:
    @pytest.mark.parametrize("seed", range(20))
    def test_equal_to_per_cluster_distance_calls(self, monkeypatch, seed):
        monkeypatch.setattr(clustering, "_BLOCK_ROWS", 7)
        quant, nom, schema, _ = lloyd_case(seed=seed, n=40, q=3, m=2, k=4)
        rng = np.random.default_rng([32, seed])
        k = 4
        cent_q = rng.random((k, 3))
        cent_n = rng.integers(-1, 3, (k, 2))
        cent_q[rng.integers(k), rng.integers(3)] = math.nan  # a gap
        quant = quant.copy(order="F")
        quant[rng.random(quant.shape) < 0.1] = math.nan
        nom = nom.copy(order="F")
        nom[rng.random(nom.shape) < 0.1] = -1
        labels = rng.integers(0, k, len(quant))
        got = clustering._own_distances((quant, nom), (cent_q, cent_n),
                                        labels, schema)
        want = per_cluster_own_distances((quant, nom), (cent_q, cent_n),
                                         labels, schema)
        assert got.tobytes() == want.tobytes()
