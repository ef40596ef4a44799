"""Command-line behavior: exit codes, determinism, file shapes."""

import copy
import dataclasses
import datetime as dt
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from txrisk import cli, clustering, features as ft, ingest, thermal
from txrisk.clustering import train_model
from txrisk.errors import FarQueryWarning

from conftest import make_dataset, write_spec_file


def synth_args(out, seed=5, services=2, days=8):
    return ["synth", "--seed", str(seed), "--services", str(services),
            "--days", str(days), "--out", str(out)]


def cluster_args(data, out, k=2, seed=3):
    return ["cluster", "--weather", str(data / "weather.csv"),
            "--meter", str(data / "meter.csv"),
            "--calendar", str(data / "calendar.csv"),
            "--k", str(k), "--seed", str(seed), "--out", str(out)]


class TestExitCodes:
    def test_synth_then_cluster_success(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(synth_args(data)) == 0
        assert cli.main(cluster_args(data, tmp_path / "run")) == 0
        assert (tmp_path / "run" / "model.json").exists()
        assert (tmp_path / "run" / "composition.csv").exists()

    def test_too_many_clusters(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(synth_args(data, services=1, days=3)) == 0
        assert cli.main(cluster_args(data, tmp_path / "run", k=100)) == 6

    @pytest.mark.parametrize("extra,k", [
        (["--k-sweep", "1..100000"], 100000), (["--k-sweep", "1..61"], 61),
        (["--k", "61", "--k-sweep", "1..3"], 61), (["--k", "61"], 61)])
    def test_cluster_count_above_the_records_refused_before_fitting(
            self, tmp_path, capsys, monkeypatch, extra, k):
        # 2 services x 30 days make 60 records. A --k-sweep ending above
        # that once fitted and printed every k up to 61 before kmeans
        # refused k = 61 (exit 6); up to 100000 it would run for hours.
        data = tmp_path / "data"
        assert cli.main(synth_args(data, services=2, days=30)) == 0
        capsys.readouterr()
        monkeypatch.setattr(clustering, "kmeans", lambda *args, **kwargs:
                            pytest.fail("a model was fitted"))
        assert cli.main(cluster_args(data, tmp_path / "run") + extra) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert f"60 records cannot form {k} clusters" in err

    def test_k_sweep_ending_at_the_record_count_runs(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(synth_args(data, services=2, days=30)) == 0
        assert cli.main(cluster_args(data, tmp_path / "run")
                        + ["--k-sweep", "59..60"]) == 0
        out = capsys.readouterr().out
        assert "k=59 objective=" in out and "k=60 objective=" in out

    @pytest.mark.parametrize("services,days,refused", [
        (10 ** 12, 2, True), (2_083_334, 1, True), (2_083_333, 1, False)])
    def test_synth_readings_above_the_ceiling_refused_before_any_array(
            self, tmp_path, capsys, monkeypatch, services, days, refused):
        # 10**12 services x 2 days once ended in numpy's _ArrayMemoryError
        # traceback (exit 1). The ceiling is checked on the counts alone:
        # synth_dataset, which would allocate the arrays, is not reached.
        assert cli.MAX_SYNTH_READINGS == 50_000_000
        calls = []

        def synth_dataset(seed, services, start, days, config, out_dir):
            calls.append((services, days))
            return {name: out_dir / f"{name}.csv"
                    for name in ("weather", "meter", "calendar")}

        monkeypatch.setattr(ingest, "synth_dataset", synth_dataset)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = cli.main(synth_args(out, services=services, days=days))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        if not refused:
            assert (code, calls) == (0, [(services, days)])
            return
        assert (code, calls) == (2, [])
        assert (f"--services {services} x --days {days} x 24 is "
                f"{services * days * 24:,} hourly meter readings, above the "
                "50,000,000 synth writes") in capsys.readouterr().err
        assert not out.exists()

    def test_synth_help_names_the_readings_ceiling(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["synth", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "services x days x 24 at most 50,000,000" in help_text

    def test_missing_path_is_usage_error(self, tmp_path):
        assert cli.main(["cluster", "--k", "3", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command,bad", [
        ("cluster", ["--k", "0"]), ("cluster", ["--restarts", "0"]),
        ("cluster", ["--k-sweep", "3..1"]), ("assess", ["--n-range", "5..3"]),
        ("assess", ["--years", "0"]), ("estimate", ["--services", "0"]),
        ("estimate", [])])
    def test_options_checked_before_inputs_are_read(self, tmp_path, capsys,
                                                    command, bad):
        # Every input file is malformed (exit 3 once read); the bad option,
        # or estimate's missing --services, is reported first.
        files = {}
        for name in ("weather", "meter", "calendar", "spec", "model", "query"):
            files[name] = tmp_path / f"{name}.in"
            files[name].write_text("not,a,valid\nfile\n")
        inputs = {"cluster": ("weather", "meter", "calendar"),
                  "assess": ("spec", "model"),
                  "estimate": ("spec", "model", "query")}[command]
        argv = [command, "--out", str(tmp_path / "out")]
        for name in inputs:
            argv += [f"--{name}", str(files[name])]
        assert cli.main(argv + bad) == 2
        assert (bad or ["--services"])[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["synth", "--strict"], ["cluster", "--strict"], ["assess", "--strict"],
        ["assess", "--seed", "1"], ["estimate", "--seed", "1"]])
    def test_flag_the_command_does_not_read_is_refused(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["synth", "assess"])
    def test_out_naming_a_file_is_usage_error(self, golden_pipeline, tmp_path,
                                              capsys, command):
        root = golden_pipeline[0][0]
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {"synth": synth_args(taken),
                "assess": ["assess", "--spec", str(root / "spec.json"),
                           "--model", str(root / "out" / "model.json"),
                           "--n-range", "1..5", "--out", str(taken)]}[command]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and str(taken) in err

    @pytest.mark.parametrize("command,output", [
        ("synth", "weather.csv"), ("cluster", "model.json"),
        ("assess", "thresholds.csv"), ("estimate", "estimates.csv"),
        ("synth", "meter.csv"), ("cluster", "composition.csv"),
        ("assess", "month_matrix.csv")])
    def test_output_that_cannot_be_written_is_usage_error(
            self, golden_pipeline, tmp_path, capsys, command, output):
        root = golden_pipeline[0][0]
        data = tmp_path / "data"
        assert cli.main(synth_args(data)) == 0
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)  # in the way of the output file
        model = ["--spec", str(root / "spec.json"),
                 "--model", str(root / "out" / "model.json")]
        argv = {"synth": synth_args(out),
                "cluster": cluster_args(data, out),
                "assess": ["assess", *model, "--n-range", "1..5"],
                "estimate": ["estimate", *model, "--query",
                             str(root / "query.csv"), "--services", "18"],
                }[command] + ["--out", str(out)]
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot write output" in err and str(out / output) in err
        # No output of the failed run, and nothing temporary, is left.
        assert list(out.iterdir()) == [out / output]
        assert not any((out / output).iterdir())

    def test_empty_n_range_is_usage_error(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(synth_args(data)) == 0
        assert cli.main(cluster_args(data, tmp_path / "run")) == 0
        spec = write_spec_file(tmp_path / "spec.json")
        code = cli.main(["assess", "--spec", str(spec),
                         "--model", str(tmp_path / "run" / "model.json"),
                         "--n-range", "5..3", "--out", str(tmp_path / "run")])
        assert code == 2

    def test_bad_spec_file_is_parse_error(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(synth_args(data)) == 0
        assert cli.main(cluster_args(data, tmp_path / "run")) == 0
        bad = tmp_path / "spec.json"
        bad.write_text('{"rated_kva": 25}')
        code = cli.main(["assess", "--spec", str(bad),
                         "--model", str(tmp_path / "run" / "model.json"),
                         "--out", str(tmp_path / "run")])
        assert code == 3

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_for_synth_is_usage_error(self, tmp_path, capsys,
                                                    source):
        argv = synth_args(tmp_path / "out", seed=-1)
        if source == "config":
            (tmp_path / "cfg.json").write_text('{"seed": -1}')
            argv = argv[:1] + argv[3:] + ["--config", str(tmp_path / "cfg.json")]
        assert cli.main(argv) == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_for_cluster_is_usage_error(self, tmp_path, capsys,
                                                      source):
        # The inputs are malformed (exit 3 once read): the seed is refused
        # first.
        data = tmp_path / "data"
        data.mkdir()
        for name in ("weather", "meter", "calendar"):
            (data / f"{name}.csv").write_text("not,a,valid\nfile\n")
        argv = cluster_args(data, tmp_path / "out", seed=-3)
        if source == "config":
            (tmp_path / "cfg.json").write_text('{"seed": -3}')
            argv = argv[:-4] + argv[-2:] + ["--config",
                                            str(tmp_path / "cfg.json")]
        assert cli.main(argv) == 2
        assert "--seed must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_synth_span_past_the_last_date_is_usage_error(self, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        assert cli.main(synth_args(out, days=5)
                        + ["--start-date", "9999-12-30"]) == 2
        err = capsys.readouterr().err
        assert "5 days from --start-date 9999-12-30" in err
        assert not out.exists()
        # The span that ends on the last date is written.
        assert cli.main(synth_args(out, services=1, days=2)
                        + ["--start-date", "9999-12-30"]) == 0
        assert (out / "calendar.csv").read_text().splitlines()[-1] == \
            "9999-12-31,Y,N"

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus": 1}')
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2

    @staticmethod
    def tight_model(tmp_path):
        """A hand-built tightly packed model, saved with a spec file: any
        distant query trips its far guard."""
        schema = ft.FeatureSchema(features=(
            ft.FeatureDef("t_max_c", ft.KIND_NUMERIC),
            ft.FeatureDef("t_min_c", ft.KIND_NUMERIC),
            ft.FeatureDef("t_avg_c", ft.KIND_NUMERIC),
            ft.FeatureDef("l_avg_kva", ft.KIND_NUMERIC),
            ft.FeatureDef("weekday", ft.KIND_NOMINAL, statuses=("Y", "N")),
        ))
        i = np.arange(12)
        dataset = make_dataset(
            t_max_c=10.0 + 0.1 * i, t_min_c=0.0 + 0.1 * i, t_avg_c=5.0 + 0.1 * i,
            l_avg_kva=1.0 + 0.01 * i, weekday=["Y"] * 12,
            load_kva=np.ones((12, 24)), ambient_c=np.full((12, 24), 5.0))
        model = train_model(dataset, 2, schema, seed=1)
        model_path = tmp_path / "model.json"
        clustering.save_model(model, model_path)
        return model_path, write_spec_file(tmp_path / "spec.json")

    @staticmethod
    def estimate_args(spec, model, query, out, *extra):
        return ["estimate", "--spec", str(spec), "--model", str(model),
                "--query", str(query), "--services", "10", "--out", str(out),
                *extra]

    def test_strict_far_query_exit_code(self, tmp_path):
        model_path, spec = self.tight_model(tmp_path)
        query = tmp_path / "query.csv"
        query.write_text("date,t_max_c,t_min_c,t_avg_c,l_avg_kva,weekday\n"
                         "2016-06-06,59.0,40.0,50.0,9.9,N\n")
        code = cli.main(self.estimate_args(spec, model_path, query, tmp_path,
                                           "--strict"))
        assert code == 9
        lenient = cli.main(self.estimate_args(spec, model_path, query, tmp_path))
        assert lenient == 0
        lines = (tmp_path / "estimates.csv").read_text().splitlines()
        assert lines[1].endswith(",Y")  # far_flag raised

    def test_far_queries_counted_and_the_first_named(self, tmp_path, capsys):
        # One near day, then two far ones: strict mode names the first far
        # day; lenient mode warns once with the count.
        model_path, spec = self.tight_model(tmp_path)
        query = tmp_path / "query.csv"
        query.write_text("date,t_max_c,t_min_c,t_avg_c,l_avg_kva,weekday\n"
                         "2016-06-05,10.5,0.5,5.5,1.05,Y\n"
                         "2016-06-06,59.0,40.0,50.0,9.9,N\n"
                         "2016-06-07,58.0,41.0,49.0,9.8,N\n")
        code = cli.main(self.estimate_args(spec, model_path, query, tmp_path,
                                           "--strict"))
        assert code == 9
        err = capsys.readouterr().err
        assert "2016-06-06" in err and "2016-06-07" not in err
        assert "2 of 3" in err
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(self.estimate_args(spec, model_path, query,
                                               tmp_path)) == 0
        far = [w for w in caught if issubclass(w.category, FarQueryWarning)]
        assert len(far) == 1 and "2 of 3" in str(far[0].message)
        flags = [line.rsplit(",", 1)[1] for line in
                 (tmp_path / "estimates.csv").read_text().splitlines()[1:]]
        assert flags == ["N", "Y", "Y"]

    def test_query_sharing_no_model_feature(self, tmp_path, capsys):
        # A model over the daily load extremes alone: no query column is
        # one of its features, so no query has a distance to any cluster.
        data = tmp_path / "data"
        assert cli.main(synth_args(data, days=40)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"features": [
            {"name": "l_max_kva", "kind": "numeric"},
            {"name": "l_min_kva", "kind": "numeric"}]}))
        assert cli.main(cluster_args(data, tmp_path / "run", k=3)
                        + ["--config", str(cfg)]) == 0
        query = tmp_path / "query.csv"
        query.write_text("date,t_max_c,t_min_c,t_avg_c,l_avg_kva,weekday\n"
                         "2016-07-06,31.0,18.0,24.0,1.9,Y\n"
                         "2016-01-06,-8.0,-19.0,-13.0,1.4,Y\n")
        spec = write_spec_file(tmp_path / "spec.json")
        model = tmp_path / "run" / "model.json"
        for extra in ((), ("--strict",)):
            assert cli.main(self.estimate_args(spec, model, query,
                                               tmp_path / "out", *extra)) == 11
            assert ("2 of 2 queries lack every model feature"
                    in capsys.readouterr().err)
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_header_only_query_file(self, golden_pipeline, tmp_path, capsys):
        root = golden_pipeline[0][0]
        header = "date,t_max_c,t_min_c,t_avg_c,l_avg_kva,weekday"
        query = tmp_path / "query.csv"
        query.write_text(header + "\n")
        assert cli.main(["estimate", "--spec", str(root / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--query", str(query), "--services", "18",
                         "--out", str(tmp_path)]) == 0
        assert "(0 days)" in capsys.readouterr().out
        assert (tmp_path / "estimates.csv").read_text() == (
            header + ",estimated_max_top_oil_c,far_flag\n")

    def test_estimate_encodes_and_measures_once(self, golden_pipeline,
                                                tmp_path, monkeypatch):
        # The whole query table goes through one encode and one (n, k)
        # distance, with the golden output unchanged.
        root = golden_pipeline[0][0]
        calls = {"encode": 0, "distance": 0}

        def counted(name):
            original = getattr(ft, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(ft, name, counted(name))
        assert cli.main(["estimate", "--spec", str(root / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--query", str(root / "query.csv"), "--services", "18",
                         "--out", str(tmp_path)]) == 0
        assert calls == {"encode": 1, "distance": 1}
        assert ((tmp_path / "estimates.csv").read_bytes()
                == (root / "out" / "estimates.csv").read_bytes())

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "9" in out and "far from all clusters" in out
        assert "17  cluster profile with zero peak load" in out
        assert "18  temperature or life loss fell" in out
        assert "converge" not in out
        assert "\n  16  " not in out and "zero members" not in out
        assert "\n  10  " not in out and "maps disagree" not in out
        assert "\n  4   " not in out and "gap filling" not in out
        # ZeroServicesError, EmptyDatasetError and OutOfRangeError are for
        # library callers: no command raises them (load_dataset and the
        # cluster-count check refuse an empty dataset first).
        assert "\n  14  " not in out and "zero services" not in out
        assert "\n  12  " not in out and "empty dataset" not in out
        assert "\n  15  " not in out and "ordinal status" not in out


class TestMalformedInputExitCodes:
    """Bad values in the files assess, estimate and cluster read end in a
    documented exit code, never in a traceback or a silent NaN."""

    def assess(self, root, out, spec=None, model=None):
        return cli.main(["assess", "--spec", str(spec or root / "spec.json"),
                         "--model", str(model or root / "out" / "model.json"),
                         "--n-range", "1..5", "--out", str(out)])

    @pytest.mark.parametrize("value", ['"twenty-five"', "null", '"NaN"', "NaN",
                                       "Infinity", "true"])
    def test_spec_field_not_a_finite_number(self, golden_pipeline, tmp_path,
                                            capsys, value):
        root = golden_pipeline[0][0]
        doc = (root / "spec.json").read_text()
        bad = tmp_path / "spec.json"
        bad.write_text(doc.replace('"loss_ratio": 4.0', f'"loss_ratio": {value}'))
        assert bad.read_text() != doc
        assert self.assess(root, tmp_path, spec=bad) == 3
        assert "loss_ratio" in capsys.readouterr().err

    def with_spec(self, command, root, out, **fields):
        """``command`` on the golden model with spec fields replaced."""
        spec = out / "spec.json"
        doc = json.loads((root / "spec.json").read_text())
        spec.write_text(json.dumps(dict(doc, **fields)))
        if command == "assess":
            return self.assess(root, out, spec=spec)
        return cli.main(["estimate", "--spec", str(spec),
                         "--model", str(root / "out" / "model.json"),
                         "--query", str(root / "query.csv"),
                         "--services", "18", "--out", str(out)])

    @pytest.mark.parametrize("command", ["assess", "estimate"])
    @pytest.mark.parametrize("field", ["top_oil_rise_rated_c",
                                       "hotspot_differential_c", "loss_ratio"])
    def test_spec_field_above_its_ceiling(self, golden_pipeline, tmp_path,
                                          capsys, command, field):
        assert self.with_spec(command, golden_pipeline[0][0], tmp_path,
                              **{field: 1e308}) == 3
        assert f"{field.removesuffix('_c')} must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["assess", "estimate"])
    def test_spec_at_its_ceilings_stays_finite(self, golden_pipeline, tmp_path,
                                               command):
        assert self.with_spec(
            command, golden_pipeline[0][0], tmp_path,
            top_oil_rise_rated_c=thermal.MAX_RATED_RISE_C,
            hotspot_differential_c=thermal.MAX_RATED_RISE_C,
            loss_ratio=thermal.MAX_LOSS_RATIO) == 0
        tables = sorted(tmp_path.glob("*.csv"))
        assert tables
        for table in tables:
            cells = table.read_text().replace("\n", ",").split(",")
            assert not {"nan", "inf", "-inf"} & set(cells), table.name

    def test_meter_reading_above_the_ceiling(self, tmp_path, capsys):
        # Hour 3 of every day at 1e306 kW once made each hour-3 profile sum
        # overflow in cluster, a traceback with exit 1.
        data = tmp_path / "data"
        assert cli.main(synth_args(data, services=10, days=60)) == 0
        rows = (data / "meter.csv").read_text().splitlines()
        for i, row in enumerate(rows[1:], 1):
            fields = row.split(",")
            if fields[2] == "3":
                rows[i] = ",".join(fields[:3] + ["1e306"])
        (data / "meter.csv").write_text("\n".join(rows) + "\n")
        assert cli.main(cluster_args(data, tmp_path / "run")) == 3
        err = capsys.readouterr().err
        assert "row 5" in err and "'kw'" in err
        assert "demand 1e+306 kW above the 1e+06 kW ceiling" in err
        assert not (tmp_path / "run").exists()

    def test_meter_day_of_the_largest_readings(self, tmp_path, capsys):
        # A day of 24 readings of 1.7e308 kW once gave an infinite daily
        # mean, refused by the normalization with a traceback.
        data = tmp_path / "data"
        assert cli.main(synth_args(data, services=1, days=2)) == 0
        date = (data / "calendar.csv").read_text().splitlines()[1][:10]
        (data / "meter.csv").write_text("service_id,date,hour,kw\n" + "".join(
            f"S001,{date},{hour},1.7e308\n" for hour in range(24)))
        assert cli.main(cluster_args(data, tmp_path / "run", k=1)) == 3
        err = capsys.readouterr().err
        assert "row 2" in err and "'kw'" in err and "ceiling" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_meter_kw_not_finite(self, tmp_path, capsys, value):
        data = tmp_path / "data"
        assert cli.main(synth_args(data)) == 0
        rows = (data / "meter.csv").read_text().splitlines()
        fields = rows[5].split(",")
        fields[3] = value
        rows[5] = ",".join(fields)
        (data / "meter.csv").write_text("\n".join(rows) + "\n")
        assert cli.main(cluster_args(data, tmp_path / "run")) == 3
        err = capsys.readouterr().err
        assert "row 6" in err and "'kw'" in err

    @pytest.mark.parametrize("column,value", [("t_max_c", "nan"),
                                              ("l_avg_kva", "inf")])
    def test_query_number_not_finite(self, golden_pipeline, tmp_path, capsys,
                                     column, value):
        root = golden_pipeline[0][0]
        query = tmp_path / "query.csv"
        header = "date,t_max_c,t_min_c,t_avg_c,l_avg_kva,weekday"
        row = dict(zip(header.split(","), "2016-06-06,21.53,8.12,14.20,0.97,Y".split(",")))
        row[column] = value
        query.write_text(header + "\n" + ",".join(row.values()) + "\n")
        code = cli.main(["estimate", "--spec", str(root / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--query", str(query), "--services", "18",
                         "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "row 2" in err and repr(column) in err

    @pytest.mark.parametrize("column,value,message", [
        ("t_max_c", "1e300", "temperature 1e+300 outside plausible range"),
        ("t_min_c", "-60.5", "temperature -60.5 outside plausible range"),
        ("t_avg_c", "61", "temperature 61.0 outside plausible range"),
        ("l_avg_kva", "-0.001", "negative load -0.001"),
        ("l_avg_kva", "1.7e308", "load 1.7e+308 kVA above the 1e+06 kVA "
         "ceiling")])
    def test_query_number_out_of_range(self, golden_pipeline, tmp_path,
                                       capsys, column, value, message):
        # Each is refused as the weather and meter files refuse it, not
        # scored: a 1e300 temperature once printed 300 digits, and a
        # negative load was given an estimate.
        root = golden_pipeline[0][0]
        query = tmp_path / "query.csv"
        header = "date,t_max_c,t_min_c,t_avg_c,l_avg_kva,weekday"
        row = dict(zip(header.split(","),
                       "2016-06-06,60,-60,14.20,0,Y".split(",")))
        rows = [",".join(row.values())]
        row[column] = value
        rows.append(",".join(row.values()))
        query.write_text("\n".join([header, *rows]) + "\n")
        code = cli.main(["estimate", "--spec", str(root / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--query", str(query), "--services", "18",
                         "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "row 3" in err and repr(column) in err and message in err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_zero_peak_cluster_profile(self, golden_pipeline, tmp_path, capsys):
        root = golden_pipeline[0][0]
        doc = json.loads((root / "out" / "model.json").read_text())
        doc["clusters"][1]["profile"]["load_kva"] = [0.0] * 24
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert self.assess(root, tmp_path, model=model) == 17
        cid = doc["clusters"][1]["id"]
        assert f"cluster {cid}: profile has zero peak load" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-0.5, float("nan")])
    def test_bad_cluster_profile_value(self, golden_pipeline, tmp_path, capsys,
                                       value):
        root = golden_pipeline[0][0]
        doc = json.loads((root / "out" / "model.json").read_text())
        doc["clusters"][0]["profile"]["load_kva"][5] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert self.assess(root, tmp_path, model=model) == 3
        assert "profile needs 24 finite hourly values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["assess", "estimate"])
    @pytest.mark.parametrize("ambient", [-280.0, 61.0])
    def test_cluster_profile_ambient_outside_weather_range(
            self, golden_pipeline, tmp_path, capsys, command, ambient):
        # A profile's ambient is a mean of weather readings, so it lies in
        # their plausible range; one below absolute zero would underflow the
        # aging factors of the service grid that both commands read.
        root = golden_pipeline[0][0]
        model = self.bad_model(root, tmp_path, lambda doc: doc["clusters"][0]
                               ["profile"]["ambient_c"].__setitem__(5, ambient))
        run = self.assess if command == "assess" else self.estimate
        assert run(root, tmp_path, model=model) == 3
        assert "ambients within [-60, 60]" in capsys.readouterr().err

    def estimate(self, root, out, model):
        return cli.main(["estimate", "--spec", str(root / "spec.json"),
                         "--model", str(model), "--query", str(root / "query.csv"),
                         "--services", "18", "--out", str(out)])

    def bad_model(self, root, tmp_path, edit):
        doc = json.loads((root / "out" / "model.json").read_text())
        edit(doc)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        return model

    @pytest.mark.parametrize("field", ["objective", "far_threshold", "bound",
                                       "centroid"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_model_float_not_finite(self, golden_pipeline, tmp_path, capsys,
                                    field, value):
        def edit(doc):
            if field == "bound":
                doc["normalization"]["t_avg_c"][1] = value
            elif field == "centroid":
                doc["clusters"][2]["centroid_normalized"]["l_avg_kva"] = value
            else:
                doc[field] = value

        root = golden_pipeline[0][0]
        model = self.bad_model(root, tmp_path, edit)
        assert self.estimate(root, tmp_path, model) == 3
        err = capsys.readouterr().err
        assert {"objective": "objective must be finite",
                "far_threshold": "far_threshold must be finite",
                "bound": "normalization bound of 't_avg_c' must be finite",
                "centroid": "cluster 3 centroid 'l_avg_kva' must be finite",
                }[field] in err

    def test_model_bound_lo_above_hi(self, golden_pipeline, tmp_path, capsys):
        def edit(doc):
            lo, hi = doc["normalization"]["t_max_c"]
            doc["normalization"]["t_max_c"] = [hi, lo]

        root = golden_pipeline[0][0]
        assert self.estimate(root, tmp_path,
                             self.bad_model(root, tmp_path, edit)) == 3
        assert ("normalization bounds of 't_max_c' must be finite with lo <= hi"
                in capsys.readouterr().err)

    def test_model_centroid_label_not_a_status(self, golden_pipeline, tmp_path,
                                               capsys):
        def edit(doc):
            doc["clusters"][0]["centroid_nominal"]["weekday"] = "Maybe"

        root = golden_pipeline[0][0]
        assert self.estimate(root, tmp_path,
                             self.bad_model(root, tmp_path, edit)) == 3
        assert "cluster 1 centroid 'weekday' is 'Maybe'" in capsys.readouterr().err

    @pytest.mark.parametrize("part,name", [("centroid_normalized", "t_min_c"),
                                           ("centroid_nominal", "weekday")])
    def test_model_centroid_lacks_feature(self, golden_pipeline, tmp_path,
                                          capsys, part, name):
        def edit(doc):
            del doc["clusters"][1][part][name]

        root = golden_pipeline[0][0]
        assert self.estimate(root, tmp_path,
                             self.bad_model(root, tmp_path, edit)) == 3
        assert f"cluster 2 centroid lacks feature {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["clusters"][1].pop("profile"),
         "some clusters have a profile and some not"),
        (lambda doc: doc["clusters"][0]["members"][3].__setitem__(1, "x"),
         "Invalid isoformat string: 'x'"),
        (lambda doc: doc["schema"][0].__setitem__("weight", float("inf")),
         "weight must be finite"),
        # composition.csv writes labels unquoted (test_writers.py).
        (lambda doc: doc["schema"][-1]["statuses"].append("a,b"),
         "may not hold a comma"),
        # A stored count is not trusted over the member list: the life-loss
        # weights and the month matrix would disagree.
        (lambda doc: doc["clusters"][0].__setitem__(
            "member_count", doc["clusters"][0]["member_count"] + 1000),
         "cluster 1 member_count"),
        # Ingest refuses a blank service id; so does the model file.
        (lambda doc: doc["clusters"][0]["members"][3].__setitem__(0, 5),
         "cluster 1 member service id 5 is not a non-blank string"),
        (lambda doc: doc["clusters"][1]["members"][0].__setitem__(0, " "),
         "cluster 2 member service id ' ' is not a non-blank string"),
        # A member in two clusters would count twice in the month matrix
        # and in the life-loss weights.
        (lambda doc: doc["clusters"][1].update(
            members=doc["clusters"][1]["members"]
            + doc["clusters"][0]["members"][:1],
            member_count=doc["clusters"][1]["member_count"] + 1),
         "is listed more than once"),
        # A text is not a list of statuses, nor a number a name.
        (lambda doc: doc["schema"][-1].__setitem__("statuses", "YN"),
         "'weekday' statuses must be a list of strings, got 'YN'"),
        (lambda doc: doc["schema"][-1].__setitem__("statuses", ["Y", 1]),
         "'weekday' statuses must be a list of strings, got ['Y', 1]"),
        (lambda doc: doc["schema"][0].__setitem__("name", 7),
         "feature name must be a string, got 7"),
    ], ids=["partial_profiles", "member_date", "weight", "label_comma",
            "member_count",
            "member_service_number", "member_service_blank", "member_twice",
            "statuses_text", "statuses_not_text", "name_number"])
    def test_model_structure(self, golden_pipeline, tmp_path, capsys, edit,
                             message):
        root = golden_pipeline[0][0]
        assert self.estimate(root, tmp_path,
                             self.bad_model(root, tmp_path, edit)) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(seed=1.5), "seed must be an integer >= 0"),
        (lambda doc: doc.update(seed=True), "seed must be an integer >= 0"),
        (lambda doc: doc.update(seed="7"), "seed must be an integer >= 0"),
        (lambda doc: doc.update(restarts=-3),
         "restarts must be an integer >= 1, got -3"),
        (lambda doc: doc.update(objective="1.5"),
         "objective must be a number, got '1.5'"),
        (lambda doc: doc.update(far_threshold="0.5"),
         "far_threshold must be a number"),
        (lambda doc: doc["clusters"][1]["profile"]["load_kva"].__setitem__(
            3, "1.25"), "cluster 2 profile needs 24 finite hourly values"),
        (lambda doc: doc["clusters"][1]["profile"]["ambient_c"].__setitem__(
            3, True), "cluster 2 profile needs 24 finite hourly values"),
        (lambda doc: doc["clusters"][2]["centroid_normalized"].__setitem__(
            "l_avg_kva", "0.5"), "cluster 3 centroid 'l_avg_kva' must be a "
         "number"),
        (lambda doc: doc["normalization"]["t_avg_c"].__setitem__(0, "-5"),
         "normalization bound of 't_avg_c' must be a number"),
        (lambda doc: doc["clusters"][0].update(id=1.0),
         "cluster 1 id must be an integer"),
        (lambda doc: doc["clusters"][0].update(
            member_count=float(doc["clusters"][0]["member_count"])),
         "cluster 1 member_count must be an integer"),
        (lambda doc: doc.update(k=True, clusters=doc["clusters"][:1]),
         "k must be an integer >= 0, got True"),
        (lambda doc: doc["schema"][0].update(weight="2"),
         "feature 't_max_c' weight must be a number, got '2'"),
    ], ids=["seed_float", "seed_bool", "seed_text", "restarts_negative",
            "objective_text", "far_threshold_text", "profile_text",
            "profile_bool", "centroid_text", "bound_text", "id_float",
            "member_count_float", "k_bool", "weight_text"])
    def test_model_number_of_the_wrong_type(self, golden_pipeline, tmp_path,
                                            capsys, edit, message):
        # Each of these once loaded: ``int(1.5)`` as seed 1, ``float("1.5")``
        # as an objective, ``1.0 == 1`` as a cluster id.
        root = golden_pipeline[0][0]
        assert self.estimate(root, tmp_path,
                             self.bad_model(root, tmp_path, edit)) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.__setitem__("k", 2), "k 2 differs from the 6 clusters"),
        (lambda doc: doc.__setitem__("k", 1e30), "k 1e+30 differs from the 6"),
        (lambda doc: doc.__setitem__("k", 9), "k 9 differs from the 6 clusters"),
        (lambda doc: doc["clusters"][2].__setitem__("id", 2),
         "cluster 3 has id 2; ids must run 1..k in file order"),
        (lambda doc: doc["clusters"].reverse(), "cluster 1 has id 6"),
    ], ids=["k_below", "k_huge", "k_above", "shared_id", "ids_out_of_order"])
    def test_model_cluster_count_and_ids(self, golden_pipeline, tmp_path,
                                         capsys, edit, message):
        # The stored k must be the cluster count and the ids 1..k in file
        # order, as kmeans writes them: cluster c + 1 is row c of the
        # model's arrays.
        root = golden_pipeline[0][0]
        assert self.assess(root, tmp_path,
                           model=self.bad_model(root, tmp_path, edit)) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", ["basic", "week"])
    def test_date_not_spelled_yyyy_mm_dd(self, golden_pipeline, tmp_path,
                                         capsys, spelling):
        # Python 3.11's date.fromisoformat also takes 20140101 and
        # 2014-W01-3; the file formats take YYYY-MM-DD alone.
        def respell(text):
            year, week, day = dt.date.fromisoformat(text).isocalendar()
            return (text.replace("-", "") if spelling == "basic"
                    else f"{year}-W{week:02d}-{day}")

        data = tmp_path / "data"
        assert cli.main(synth_args(data)) == 0
        rows = (data / "meter.csv").read_text().splitlines()
        fields = rows[5].split(",")
        fields[1] = respell(fields[1])
        rows[5] = ",".join(fields)
        (data / "meter.csv").write_text("\n".join(rows) + "\n")
        assert cli.main(cluster_args(data, tmp_path / "run")) == 3
        err = capsys.readouterr().err
        assert "row 6" in err and "'date'" in err

        def edit(doc):
            member = doc["clusters"][0]["members"][3]
            member[1] = respell(member[1])

        root = golden_pipeline[0][0]
        assert self.assess(root, tmp_path,
                           model=self.bad_model(root, tmp_path, edit)) == 3
        assert "Invalid isoformat string" in capsys.readouterr().err

    @pytest.mark.parametrize("case,message", [
        ("profile_load_kva", "cluster 2: one service's peak load is 4e+306"),
        ("rated_kva", "cluster 1: one service's peak load is"),
    ], ids=["profile_load_kva", "rated_kva"])
    def test_load_above_the_ceiling(self, golden_pipeline, tmp_path, capsys,
                                    case, message):
        # Each of these once overflowed Python's ``**`` in the thermal model
        # (OverflowError, exit 1).
        root = golden_pipeline[0][0]
        spec, model = root / "spec.json", root / "out" / "model.json"
        if case == "profile_load_kva":
            model = self.bad_model(root, tmp_path, lambda doc: doc["clusters"][1]
                                   ["profile"]["load_kva"].__setitem__(10, 1e308))
        else:
            spec = tmp_path / "spec.json"
            spec.write_text((root / "spec.json").read_text().replace(
                '"rated_kva": 25.0', '"rated_kva": 1e-300'))
        assert cli.main(["assess", "--spec", str(spec), "--model", str(model),
                         "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert message in err and "rated_kva" in err
        assert not list((tmp_path / "run").glob("*.csv"))
        assert cli.main(["estimate", "--spec", str(spec), "--model",
                         str(model), "--query", str(root / "query.csv"),
                         "--services", "18",
                         "--out", str(tmp_path / "run")]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("top_oil,hotspot,code", [(5000.0, 1e5, 0),
                                                      (5e8, 1e9, 3)])
    def test_limits_past_the_first_search_bound(self, golden_pipeline,
                                                tmp_path, capsys, top_oil,
                                                hotspot, code):
        # A top-oil limit of 5000 °C is first reached near 20 p.u., past
        # the threshold search's first bound of 16 p.u.; limits of 1e9 °C
        # are not reached at any load the thermal model takes.
        root = golden_pipeline[0][0]
        doc = json.loads((root / "spec.json").read_text())
        doc.update(top_oil_limit_c=top_oil, hotspot_limit_c=hotspot)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert self.assess(root, tmp_path / "run", spec=spec) == code
        out, err = capsys.readouterr()
        if code:
            assert ("cluster 1: limits not reached at the 1000 p.u. load "
                    "ceiling") in err
            assert not list((tmp_path / "run").glob("*.csv"))
        else:
            assert float(out.split("loading: ")[1].split()[0]) > 16
            rows = (tmp_path / "run" / "thresholds.csv").read_text().split()
            assert all(float(row.split(",")[2]) > 16 for row in rows[1:])

    def test_wide_n_range_refused_before_it_is_built(self, golden_pipeline,
                                                     tmp_path, capsys):
        # The first count over the load ceiling is found by bisection on the
        # span, so a trillion counts are refused as cheaply as 20,000, with
        # the same message. Built in full, a million counts once took 137 MB.
        root = golden_pipeline[0][0]
        errors = []
        for span in ("1..20000", f"1..{10 ** 12}"):
            tracemalloc.start()
            try:
                code = cli.main(["assess", "--spec", str(root / "spec.json"),
                                 "--model", str(root / "out" / "model.json"),
                                 "--n-range", span,
                                 "--out", str(tmp_path / "run")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2 and peak < 16e6, (span, peak)
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "services load a cluster to 1e+03 p.u." in errors[0]

    @pytest.mark.parametrize("span", [
        f"1..{sys.maxsize}", f"2..{sys.maxsize + 1}", f"1..{sys.maxsize + 1}",
        "1..100000000000000000000", f"{10 ** 20}..{10 ** 20}"])
    def test_n_range_longer_than_a_range_is_usage_error(
            self, golden_pipeline, tmp_path, capsys, span):
        # A span of more than sys.maxsize counts is refused by parse_span,
        # naming its option; one of sys.maxsize counts, or one count past
        # any float, reaches the load-ceiling check. Either way: exit 2,
        # no traceback and no table.
        root = golden_pipeline[0][0]
        assert cli.main(["assess", "--spec", str(root / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--n-range", span,
                         "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lo, hi = map(int, span.split(".."))
        if hi - lo + 1 > sys.maxsize:
            assert f"--n-range {span!r} spans more than" in err
        else:
            assert "load ceiling" in err
        assert not list((tmp_path / "run").glob("*.csv"))

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key,value", [
        ("budget", "nan"), ("budget", "inf"), ("budget", "-1"),
        ("years", "inf"), ("years", "nan"), ("years", "-2"), ("years", "0")])
    def test_budget_and_years_must_be_finite(self, golden_pipeline, tmp_path,
                                             capsys, source, key, value):
        # One rule for the flag and the config file: --years finite and
        # > 0, --budget finite and >= 0. Each bad value is exit 2 naming
        # its option, and no table is written.
        root = golden_pipeline[0][0]
        extra = [f"--{key}", value]
        if source == "config":
            (tmp_path / "cfg.json").write_text(json.dumps({key: float(value)}))
            extra = ["--config", str(tmp_path / "cfg.json")]
        assert cli.main(["assess", "--spec", str(root / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--out", str(tmp_path / "run")] + extra) == 2
        assert key in capsys.readouterr().err
        assert not list((tmp_path / "run").glob("*.csv"))

    def test_zero_budget_is_allowed(self, golden_pipeline, tmp_path, capsys):
        root = golden_pipeline[0][0]
        assert cli.main(["assess", "--spec", str(root / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--budget", "0", "--out", str(tmp_path)]) == 0
        assert "life-loss budget $0/year: None" in capsys.readouterr().out

    @pytest.mark.parametrize("name,code", [("meter.csv", 3), ("query.csv", 3),
                                           ("spec.json", 3), ("model.json", 3),
                                           ("config.json", 2)])
    def test_non_utf8_byte(self, golden_pipeline, tmp_path, capsys, name, code):
        root = golden_pipeline[0][0]
        files = {"meter.csv": root / "data" / "meter.csv",
                 "query.csv": root / "query.csv", "spec.json": root / "spec.json",
                 "model.json": root / "out" / "model.json"}
        text = files[name].read_bytes()[:4000] if name in files else b'{"k": 2}'
        bad = tmp_path / name
        bad.write_bytes(text[:5] + b"\xff" + text[5:])
        files[name] = bad
        data = root / "data"
        argv = {
            "meter.csv": ["cluster", "--weather", str(data / "weather.csv"),
                          "--meter", str(bad),
                          "--calendar", str(data / "calendar.csv")],
            "query.csv": ["estimate", "--spec", str(files["spec.json"]),
                          "--model", str(files["model.json"]),
                          "--query", str(bad), "--services", "18"],
            "spec.json": ["assess", "--spec", str(bad),
                          "--model", str(files["model.json"])],
            "model.json": ["assess", "--spec", str(files["spec.json"]),
                           "--model", str(bad)],
            "config.json": ["synth", "--config", str(bad)],
        }[name]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == code
        assert str(bad) in capsys.readouterr().err

    def test_energy_only_meter_has_no_profiles(self, tmp_path, capsys):
        # Refused on the meter header: no k-means runs, not even the sweep,
        # and no file is parsed, not even an unreadable weather file.
        data = tmp_path / "data"
        assert cli.main(synth_args(data, days=12)) == 0
        (data / "meter.csv").write_text(
            "service_id,date,energy_kwh\n"
            + "".join(f"S00{s},2014-01-{d:02d},{20 + s + d}.0\n"
                      for s in (1, 2) for d in range(1, 13)))
        argv = cluster_args(data, tmp_path / "run")
        assert cli.main(argv + ["--k-sweep", "2..3"]) == 13
        captured = capsys.readouterr()
        assert "energy-only metering" in captured.err
        assert "objective=" not in captured.out
        (data / "weather.csv").write_text("date,hour,temp_c\nnot,a,number\n")
        assert cli.main(argv) == 13
        assert "energy-only metering" in capsys.readouterr().err

    def test_life_loss_falling_with_service_count(self, golden_pipeline,
                                                  tmp_path, monkeypatch):
        # The guard on a model invariant: with aging factors inverted, the
        # daily life loss falls as services are added.
        from txrisk import aging

        factor = aging.aging_acceleration
        monkeypatch.setattr(aging, "aging_acceleration",
                            lambda hotspot: 1.0 / factor(hotspot))
        assert self.assess(golden_pipeline[0][0], tmp_path) == 18

    def test_years_too_small_for_a_finite_life_loss(self, golden_pipeline,
                                                     tmp_path, capsys):
        # A yearly loss of the window's loss over 1e-320 years is past the
        # float range: it once went into life_loss.csv as inf, with exit 0.
        root = golden_pipeline[0][0]
        assert cli.main(["assess", "--spec", str(root / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--n-range", "1..5", "--years", "1e-320",
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "--years 1e-320" in err and "replacement_cost" in err
        assert list(tmp_path.iterdir()) == []


# A number past the float range either way, and one written as text: no
# JSON number of any input may hold one.
BAD_NUMBERS = [10 ** 400, -10 ** 400, "25"]
BAD_IDS = ["huge", "-huge", "text"]
_NUMERIC = ("t_max_c", "t_min_c", "t_avg_c", "l_avg_kva")
SPEC_KEYS = ["rated_kva", "top_oil_rise_rated_c", "hotspot_differential_c",
             "loss_ratio", "oil_time_constant_h", "winding_time_constant_h",
             "exponent_n", "exponent_m", "top_oil_limit_c", "hotspot_limit_c",
             "replacement_cost"]
MODEL_KEYS = [
    ("k",), ("seed",), ("restarts",), ("objective",), ("far_threshold",),
    *(("schema", i, "weight") for i in range(5)),
    *(("normalization", name, i) for name in _NUMERIC for i in (0, 1)),
    ("clusters", 0, "id"), ("clusters", 0, "member_count"),
    *(("clusters", 0, "centroid_normalized", name) for name in _NUMERIC),
    ("clusters", 0, "profile", "load_kva", 0),
    ("clusters", 0, "profile", "ambient_c", 0)]
# A model's raw centroid is written for the reader; no command reads it.
UNREAD_MODEL_KEYS = [("clusters", 0, "centroid_raw", name) for name in _NUMERIC]
# Each numeric config key with the command that reads it.
CONFIG_KEYS = [
    (("seed",), "synth"), (("services",), "synth"), (("days",), "synth"),
    (("k",), "cluster"), (("restarts",), "cluster"),
    (("budget",), "assess"), (("years",), "assess"),
    *((("synth", f.name), "synth")
      for f in dataclasses.fields(ingest.SynthConfig) if f.name != "holidays"),
    (("synth", "holidays", 0, 0), "synth"), (("synth", "holidays", 0, 1), "synth"),
    *((("features", i, "weight"), "cluster") for i in range(5))]


def _replaced(doc, path, value):
    """A copy of the JSON document ``doc`` with the value at ``path``
    replaced."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


class TestJsonNumbers:
    """Every numeric value of the spec, the model and the config file
    follows one rule: a JSON number, finite within the float range. A value
    past that range or written as text is refused with the file's exit
    code (2 for the config, 3 for the spec and the model), never a
    traceback."""

    @pytest.fixture(scope="class")
    def full_config(self, golden_pipeline, tmp_path_factory):
        """A config file's keys, every one given, for a small dataset, the
        golden spec and a model trained on that dataset."""
        root = golden_pipeline[0][0]
        base = tmp_path_factory.mktemp("json_numbers")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli.main(synth_args(base, seed=4, services=2, days=12)) == 0
            assert cli.main(cluster_args(base, base)) == 0
        return {
            "seed": 3, "services": 2, "days": 12, "k": 2, "restarts": 1,
            "budget": 500.0, "years": 1.0, "n_range": "1..3",
            "weather": str(base / "weather.csv"),
            "meter": str(base / "meter.csv"),
            "calendar": str(base / "calendar.csv"),
            "spec": str(root / "spec.json"), "model": str(base / "model.json"),
            "features": ft.default_schema().to_jsonable(),
            "synth": json.loads(json.dumps(
                dataclasses.asdict(ingest.SynthConfig())))}

    def run_config(self, doc, command, out):
        (out / "cfg.json").write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return cli.main([command, "--config", str(out / "cfg.json"),
                             "--out", str(out / "run")])

    @pytest.mark.parametrize("command", ["synth", "cluster", "assess"])
    def test_full_config_runs(self, full_config, tmp_path, command):
        assert self.run_config(full_config, command, tmp_path) == 0

    @pytest.mark.parametrize("value", BAD_NUMBERS, ids=BAD_IDS)
    @pytest.mark.parametrize("path,command", CONFIG_KEYS,
                             ids=[".".join(map(str, path))
                                  for path, _ in CONFIG_KEYS])
    def test_config_number(self, full_config, tmp_path, capsys, path, command,
                           value):
        doc = _replaced(full_config, path, value)
        assert self.run_config(doc, command, tmp_path) == 2
        name = next(key for key in reversed(path) if isinstance(key, str))
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("value", BAD_NUMBERS, ids=BAD_IDS)
    @pytest.mark.parametrize("key", SPEC_KEYS)
    def test_spec_number(self, golden_pipeline, tmp_path, capsys, key, value):
        root = golden_pipeline[0][0]
        doc = json.loads((root / "spec.json").read_text())
        (tmp_path / "spec.json").write_text(json.dumps(dict(doc, **{key: value})))
        assert cli.main(["assess", "--spec", str(tmp_path / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--n-range", "1..3", "--out", str(tmp_path)]) == 3
        assert repr(key) in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def golden_model(self, golden_pipeline):
        root = golden_pipeline[0][0]
        return json.loads((root / "out" / "model.json").read_text())

    @pytest.mark.parametrize("value", BAD_NUMBERS, ids=BAD_IDS)
    @pytest.mark.parametrize("path", MODEL_KEYS + UNREAD_MODEL_KEYS,
                             ids=[".".join(map(str, path)) for path in
                                  MODEL_KEYS + UNREAD_MODEL_KEYS])
    def test_model_number(self, golden_pipeline, golden_model, tmp_path,
                          capsys, path, value):
        root = golden_pipeline[0][0]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_replaced(golden_model, path, value)))
        assert cli.main(["assess", "--spec", str(root / "spec.json"),
                         "--model", str(model), "--n-range", "1..3",
                         "--out", str(tmp_path)]) == (
            0 if path in UNREAD_MODEL_KEYS else 3)
        # No refusal spells a huge number out: a k of 10**400 was once
        # refused with its 401 digits in the message.
        err = capsys.readouterr().err
        assert len(err.replace(str(model), "")) < 200
        if path == ("k",) and value != "25":
            assert "k must be finite and within" in err


class TestDeterminism:
    def test_cluster_rerun_byte_identical(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(synth_args(data, seed=11, services=3, days=30)) == 0
        for name in ("r1", "r2"):
            assert cli.main(cluster_args(data, tmp_path / name, k=3, seed=4)) == 0
        assert (tmp_path / "r1" / "model.json").read_bytes() == \
            (tmp_path / "r2" / "model.json").read_bytes()
        assert (tmp_path / "r1" / "composition.csv").read_bytes() == \
            (tmp_path / "r2" / "composition.csv").read_bytes()


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"services": 1, "days": 4, "seed": 2}))
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["synth", "--config", str(cfg), "--days", "6",
                         "--out", str(out2)]) == 0
        days1 = len((out1 / "calendar.csv").read_text().splitlines()) - 1
        days2 = len((out2 / "calendar.csv").read_text().splitlines()) - 1
        assert days1 == 4
        assert days2 == 6

    def test_estimate_takes_services_from_config(self, golden_pipeline,
                                                 tmp_path):
        root = golden_pipeline[0][0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"services": 18}))
        assert cli.main(["estimate", "--config", str(cfg),
                         "--spec", str(root / "spec.json"),
                         "--model", str(root / "out" / "model.json"),
                         "--query", str(root / "query.csv"),
                         "--out", str(tmp_path)]) == 0
        assert ((tmp_path / "estimates.csv").read_bytes()
                == (root / "out" / "estimates.csv").read_bytes())

    def test_schema_from_config(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(synth_args(data, seed=2, services=2, days=12)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "features": [
                {"name": "t_avg_c", "kind": "numeric", "weight": 0.5},
                {"name": "l_avg_kva", "kind": "numeric", "weight": 2.0},
            ],
        }))
        assert cli.main(cluster_args(data, tmp_path / "run", k=2)
                        + ["--config", str(cfg)]) == 0
        model = clustering.load_model(tmp_path / "run" / "model.json")
        assert model.schema.numeric_names == ("t_avg_c", "l_avg_kva")
        assert model.schema.weights["l_avg_kva"] == 2.0

    def test_schema_weight_as_text_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"features": [
            {"name": "t_avg_c", "kind": "numeric", "weight": "2"}]}))
        assert cli.main(cluster_args(tmp_path / "data", tmp_path / "run")
                        + ["--config", str(cfg)]) == 2
        assert ("feature 't_avg_c' weight must be a number, got '2'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("feature,message", [
        ({"name": 7, "kind": "numeric"}, "feature name must be a string, got 7"),
        ({"name": "weekday", "kind": "nominal", "statuses": "YN"},
         "'weekday' statuses must be a list of strings, got 'YN'"),
        ({"name": "weekday", "kind": "nominal", "statuses": ["Y", None]},
         "'weekday' statuses must be a list of strings, got ['Y', None]"),
        ({"name": "t_avg_c", "kind": "numeric", "weight": True},
         "feature 't_avg_c' weight must be a number, got True")],
        ids=["name_number", "statuses_text", "statuses_not_text",
             "weight_boolean"])
    def test_schema_entry_of_wrong_type_from_config(self, tmp_path, capsys,
                                                     feature, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"features": [feature]}))
        assert cli.main(cluster_args(tmp_path / "data", tmp_path / "run")
                        + ["--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    def test_nominal_only_schema_from_config(self, tmp_path):
        # Lloyd's centroid update once stacked an empty list of
        # quantitative means here and ended in a traceback (exit 1).
        data = tmp_path / "data"
        assert cli.main(synth_args(data, seed=2, services=2, days=12)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"features": [
            {"name": "weekday", "kind": "nominal", "statuses": ["Y", "N"]}]}))
        assert cli.main(cluster_args(data, tmp_path / "run", k=2)
                        + ["--config", str(cfg)]) == 0
        rows = (tmp_path / "run" / "composition.csv").read_text().splitlines()
        assert rows[0] == "cluster_id,member_count,weekday"
        assert sorted(row[-1] for row in rows[1:]) == ["N", "Y"]

    @pytest.mark.parametrize("key,value", [
        ("years", "two"), ("budget", [1]), ("years", float("nan")),
        ("budget", True), ("k", 2.7), ("seed", True), ("restarts", "3"),
        ("services", 1.5), ("days", {}), ("strict", 1),
        ("svg", "yes"), ("n_range", 40), ("k_sweep", [1, 3]),
        ("start_date", 20140101), ("out", 7), ("model", False)])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert cli.main(["synth", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("synth", [
        {"holidays": 5}, {"base_load_kw": "x"}, {"holidays": [[1]]},
        {"holidays": [[1, 1.5]]}, {"coldest_day_of_year": 1.5},
        {"temp_noise_sd_c": None}, {"service_spread": float("inf")}, 7])
    def test_synth_config_value_of_wrong_type(self, tmp_path, capsys, synth):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": synth}))
        assert cli.main(["synth", "--config", str(cfg), "--services", "1",
                         "--days", "2", "--out", str(tmp_path)]) == 2
        assert "'synth" in capsys.readouterr().err

    def test_synth_config_of_the_right_kind(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {
            "holidays": [[1, 2], [3.0, 4]], "coldest_day_of_year": 20.0,
            "base_load_kw": 1}}))
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(cfg), "--services", "1",
                         "--days", "3", "--out", str(out)]) == 0
        calendar = (out / "calendar.csv").read_text().splitlines()
        assert calendar[2] == "2014-01-02,Y,Y"

    @pytest.mark.parametrize("command,extra", [
        ("cluster", ["--k", "0"]), ("cluster", ["--restarts", "0"]),
        ("assess", ["--years", "0"]), ("assess", {"years": 0}),
        ("assess", {"budget": -1.0})])
    def test_count_or_scale_out_of_range(self, tmp_path, command, extra):
        data = tmp_path / "data"
        assert cli.main(synth_args(data)) == 0
        assert cli.main(cluster_args(data, tmp_path / "run")) == 0
        if isinstance(extra, dict):
            (tmp_path / "cfg.json").write_text(json.dumps(extra))
            extra = ["--config", str(tmp_path / "cfg.json")]
        spec = write_spec_file(tmp_path / "spec.json")
        argv = (cluster_args(data, tmp_path / "run") if command == "cluster"
                else ["assess", "--spec", str(spec), "--model",
                      str(tmp_path / "run" / "model.json"),
                      "--out", str(tmp_path / "run")])
        assert cli.main(argv + extra) == 2

    @pytest.mark.parametrize("source,key,value,message", [
        ("config", "restarts", 1e308,
         "config key 'restarts' must be an integer, got 1e+308"),
        ("config", "k", 2.0 ** 53 + 2,
         "config key 'k' must be an integer, got 9007199254740994.0"),
        ("config", "restarts", 10 ** 11,
         "--restarts must be <= 1000, got 100000000000"),
        ("flag", "restarts", 10 ** 11,
         "--restarts must be <= 1000, got 100000000000"),
        ("flag", "restarts", 1001, "--restarts must be <= 1000, got 1001")])
    def test_count_past_any_use_refused_before_reading(
            self, tmp_path, capsys, monkeypatch, source, key, value, message):
        # Each of these once kept cluster running without end: an integral
        # float above 2**53 is not an exact count, and --restarts has a
        # ceiling. The refusal is exit 2, before any input is read.
        data = tmp_path / "data"
        assert cli.main(synth_args(data)) == 0
        monkeypatch.setattr(ingest, "load_dataset",
                            lambda *paths: pytest.fail("inputs were read"))
        extra = [f"--{key}", str(value)]
        if source == "config":
            (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
            extra = ["--config", str(tmp_path / "cfg.json")]
        args = cluster_args(data, tmp_path / "run")
        if f"--{key}" in args:  # a flag would win over the config key
            at = args.index(f"--{key}")
            del args[at:at + 2]
        assert cli.main(args + extra) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400],
                             ids=["huge", "-huge"])
    @pytest.mark.parametrize("key,command", [
        ("seed", "synth"), ("services", "synth"), ("days", "synth"),
        ("k", "cluster"), ("restarts", "cluster")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_integer_past_the_float_range(self, tmp_path, capsys, source,
                                          key, command, value):
        # A flag follows the config file's number rule: a 401-digit --seed
        # once made synth write its files and exit 0, while the same seed
        # in the config file exited 2.
        data = tmp_path / "data"
        assert cli.main(synth_args(data)) == 0
        capsys.readouterr()
        args = (synth_args(tmp_path / "run", services=1, days=2)
                if command == "synth" else cluster_args(data, tmp_path / "run"))
        if f"--{key}" in args:
            at = args.index(f"--{key}")
            del args[at:at + 2]
        if source == "flag":
            args += [f"--{key}", str(value)]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
            args += ["--config", str(tmp_path / "cfg.json")]
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert "must be finite and within" in err and key in err
        assert len(err) < 200  # no digits spelled out
        assert not (tmp_path / "run").exists()

    def test_cluster_help_names_the_restarts_ceiling(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["cluster", "--help"])
        assert f"(1..{cli.MAX_RESTARTS})" in capsys.readouterr().out

    def test_config_values_of_the_right_kind(self, tmp_path):
        # Integral floats pass for int keys, ints for float keys, null for any.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"services": 1, "days": 4.0, "budget": 500,
                                   "strict": False, "k_sweep": None}))
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "calendar.csv").read_text().splitlines()) == 1 + 4

    def test_k_sweep_reports_objectives(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert cli.main(synth_args(data, seed=2, services=2, days=12)) == 0
        assert cli.main(cluster_args(data, tmp_path / "run", k=2)
                        + ["--k-sweep", "1..3"]) == 0
        out = capsys.readouterr().out
        assert "k=1 objective=" in out
        assert "k=3 objective=" in out


class TestPipelineConsistency:
    def test_reported_service_cap_matches_budget_rule(self, golden_pipeline):
        # The life-loss table's economic-loss footer must select the same
        # max service count the study reported.
        import csv as csv_mod

        from txrisk import clustering as cl, riskassess, thermal

        root = golden_pipeline[0][0]
        with open(root / "out" / "life_loss.csv", newline="") as fh:
            rows = list(csv_mod.reader(fh))
        el_row = next(r for r in rows if r[0] == "Economic Loss ($/year)")
        els = [float(v) for v in el_row[1:41]]
        from_table = riskassess.max_services_by_life(range(1, 41), els, 500.0)

        spec = thermal.load_transformer_spec(root / "spec.json")
        model = cl.load_model(root / "out" / "model.json")
        grid = riskassess.service_grid(spec, model, range(1, 41))
        losses = riskassess.life_loss_by_n(spec, grid, years=2.0)
        assert riskassess.max_services_by_life(
            grid.n_values, losses.economic_loss, 500.0) == from_table


class TestCompositionReport:
    def test_columns_follow_schema(self, tmp_path):
        data = tmp_path / "data"
        assert cli.main(synth_args(data, seed=7, services=2, days=14)) == 0
        assert cli.main(cluster_args(data, tmp_path / "run", k=2)) == 0
        lines = (tmp_path / "run" / "composition.csv").read_text().splitlines()
        assert lines[0] == ("cluster_id,member_count,t_max_c,t_min_c,t_avg_c,"
                            "l_avg_kva,weekday")
        assert len(lines) == 3
