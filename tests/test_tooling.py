"""Guards for the benchmark harness under ``perfbench/``.

Its tracer wraps program functions by module and attribute name, so a
renamed or deleted function crashes every traced benchmark run. The names
are read from the harness source, not imported, so this test runs without
the harness on the path. Its counters read attributes of some return values
(``len(dataset.records)``, ``trace.iterations``, ``result.far_flag``); the
harness's child module is loaded from its file to apply them to real
results. One more guard walks the package's own imports.
"""

import ast
import datetime as dt
import importlib
import importlib.util
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


def traced_targets():
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {CHILD}")


def test_every_traced_target_exists():
    targets = traced_targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr in targets
               if not callable(getattr(importlib.import_module(f"txrisk.{module}"),
                                       attr, None))]
    assert not missing, f"perfbench traces functions txrisk lacks: {missing}"


def load_child():
    """``perfbench/child.py`` loaded from its path as a module of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_return_counter_reads_a_real_result(tmp_path, default_spec):
    # Each counter the harness reads off a return value (records loaded,
    # solver sweeps, far-flagged estimates) must still find its attribute.
    from dataclasses import replace

    from txrisk import estimation, ingest, thermal

    from conftest import make_day, make_model

    paths = ingest.synth_dataset(1, 2, dt.date(2015, 1, 1), 3, out_dir=tmp_path)
    model = replace(make_model([{"l_avg_kva": 0.1}, {"l_avg_kva": 0.2}],
                               far_threshold=1e-6),
                    profiles=(np.ones((2, 24)), np.full((2, 24), 10.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = {
            ("ingest", "load_dataset"): ingest.load_dataset(
                paths["weather"], paths["meter"], paths["calendar"]),
            ("thermal", "simulate_day"): thermal.simulate_day(
                default_spec, np.full(24, 20.0), np.ones(24)),
            ("estimation", "estimate_day_temperature"):
                estimation.estimate_day_temperature(
                    make_day(l_avg_kva=0.9), model, 10, default_spec),
        }
    on_return = load_child().ON_RETURN
    assert set(on_return) == set(results)
    for key, callback in on_return.items():
        counters = {}
        callback(counters, results[key])
        assert len(counters) == 1 and min(counters.values()) > 0, key


def count_thermal_days(monkeypatch):
    """The list of calls made through the module attribute the harness
    patches to count thermal days, ``txrisk.thermal.simulate_day``."""
    from txrisk import thermal

    calls = []
    solve = thermal.simulate_day

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(thermal, "simulate_day", counted)
    return calls


def test_estimate_reaches_the_traced_thermal_day(golden_pipeline, tmp_path,
                                                 monkeypatch):
    # The harness's estimate smoke run needs at least one thermal day. A
    # golden estimate call must make one, with unchanged output.
    from txrisk import cli

    root, _ = golden_pipeline[0]
    calls = count_thermal_days(monkeypatch)
    assert cli.main(["estimate", "--spec", str(root / "spec.json"),
                     "--model", str(root / "out" / "model.json"),
                     "--query", str(root / "query.csv"), "--services", "18",
                     "--out", str(tmp_path)]) == 0
    assert len(calls) >= 1
    assert ((tmp_path / "estimates.csv").read_bytes()
            == (root / "out" / "estimates.csv").read_bytes())


def test_assess_reaches_the_traced_thermal_day(golden_pipeline, tmp_path,
                                               monkeypatch):
    # The harness's screen smoke run counts the thermal days of ``assess``
    # the same way: the threshold search and the service grid solve
    # through the patched attribute, with unchanged outputs.
    from txrisk import cli

    root, _ = golden_pipeline[0]
    calls = count_thermal_days(monkeypatch)
    assert cli.main(["assess", "--spec", str(root / "spec.json"),
                     "--model", str(root / "out" / "model.json"),
                     "--n-range", "1..40", "--budget", "500", "--years", "2",
                     "--svg", "--out", str(tmp_path)]) == 0
    assert len(calls) >= 1
    for name in ("thresholds.csv", "month_matrix.csv", "temperature_grid.csv",
                 "life_loss.csv", "month_distribution.svg"):
        assert ((tmp_path / name).read_bytes()
                == (root / "out" / name).read_bytes()), name


def test_threshold_search_days_on_the_golden_model(golden_pipeline,
                                                  monkeypatch):
    # The harness's riskassess.bisection_days counts these calls. Every
    # golden cluster fails its limits at the search's first bound, 16 p.u.,
    # so no bound doubles: one batch at zero load, one at the bound, 12
    # halvings of 16 p.u. to within 0.005 and one probe above the results.
    from txrisk import clustering, riskassess, thermal

    root, _ = golden_pipeline[0]
    model = clustering.load_model(root / "out" / "model.json")
    spec = thermal.load_transformer_spec(root / "spec.json")
    calls = count_thermal_days(monkeypatch)
    riskassess.cluster_thresholds(spec, model)
    assert len(calls) == 15


def test_cluster_max_top_oil_on_a_loaded_model(golden_pipeline):
    # The estimate workload's output check calls
    # ``estimation.cluster_max_top_oil(model, spec, n).values()`` on a
    # ``clustering.load_model`` result: a dict of every cluster id to a
    # finite temperature.
    from txrisk import clustering, estimation, thermal

    root, _ = golden_pipeline[0]
    model = clustering.load_model(root / "out" / "model.json")
    spec = thermal.load_transformer_spec(root / "spec.json")
    temps = estimation.cluster_max_top_oil(model, spec, 18)
    assert isinstance(temps, dict)
    assert list(temps) == list(range(1, model.k + 1))
    assert all(isinstance(t, float) and np.isfinite(t) for t in temps.values())


def test_no_module_imports_private_names():
    # An underscore name belongs to its module, which may change it freely;
    # another module reaches it only through a public name.
    found = []
    for path in sorted((ROOT / "src" / "txrisk").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("txrisk")):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")
                          and not alias.name.endswith("__")]
    assert not found, f"private names imported across modules: {found}"


def test_every_module_parses_as_python_3_10():
    # pyproject.toml claims Python >= 3.10. This checks syntax only: a
    # call into a later standard library still passes.
    for folder in ("src/txrisk", "tests", "demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            ast.parse(path.read_text(encoding="utf-8"), str(path),
                      feature_version=(3, 10))
