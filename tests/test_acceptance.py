"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` or in captured output) and asserts the criterion at its
stated tolerance. Published-figure checks use the 25 kVA case-study
numbers; statistical checks run on seeded synthetic data.
"""

import csv
import datetime as dt
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy._core import _multiarray_umath as umath

from txrisk import aging, estimation, features as ft, riskassess
from txrisk.clustering import kmeans
from txrisk.thermal import TransformerSpec, simulate_day

from conftest import (
    PIPELINE_FILES,
    clusters_of,
    make_dataset,
    make_model,
    make_model_with_profiles,
    record_table,
)

GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "digests.json"


def report(num, desc, ok, detail=""):
    suffix = f" [{detail}]" if detail else ""
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}{suffix}"
    print(line)
    assert ok, line


def test_criterion_01_aging_anchors():
    faa_err = abs(aging.aging_acceleration(110.0) - 1.0)
    feqa = aging.equivalent_aging([1.0] * 24)
    ok = faa_err <= 1e-12 and feqa == 1.0
    report(1, "aging anchors: F_AA(110)=1 within 1e-12, flat-day F_EQA=1",
           ok, f"|F_AA-1|={faa_err:.2e}, F_EQA={feqa}")


def test_criterion_02_life_loss_table_arithmetic():
    # Clusters 1..10 in order.
    counts = [139, 138, 176, 58, 46, 168, 107, 155, 23, 87]
    loss_n23 = [3.7, 0.7, 0.2, 31.0, 56.0, 12.2, 2.5, 0.4, 125.0, 16.8]
    total, annual = aging.accumulate_life_loss(loss_n23, counts, 3)
    el23 = aging.economic_loss(annual, 5000.0)
    el21 = aging.economic_loss(684.0, 5000.0)
    chosen = riskassess.max_services_by_life(
        (19, 20, 21, 22, 23), (47.4, 126.0, 456.0, 1086.9, 2608.0), 500.0)
    ok = (abs(total - 11735.8) <= 0.5 and abs(annual - 3911.9) <= 0.2
          and abs(el23 - 2608.0) <= 1.0 and abs(el21 - 456.0) <= 1.0
          and chosen == 21)
    report(2, "published life-loss grid: totals, economic loss, budget rule",
           ok, f"total={total:.1f}, annual={annual:.1f}, EL23={el23:.1f}, "
               f"EL21={el21:.1f}, N*={chosen}")


def test_criterion_03_thermal_fixed_point_and_speed(default_spec):
    ambient, load = np.full(24, 20.0), np.ones(24)
    trace = simulate_day(default_spec, ambient, load)
    worst = float(np.max(np.abs(trace.top_oil - 75.0)))
    start = time.perf_counter()
    for _ in range(100):
        simulate_day(default_spec, ambient, load)
    per_run_ms = (time.perf_counter() - start) / 100 * 1000
    ok = worst <= 0.1 and trace.iterations <= 200 and per_run_ms < 10.0
    report(3, "thermal fixed point at rated load; < 10 ms per simulation",
           ok, f"max|T-75|={worst:.4f} degC, sweeps={trace.iterations}, "
               f"{per_run_ms:.3f} ms/run")


def test_criterion_04_thermal_monotonicity():
    rng = np.random.default_rng(404)
    violations = 0
    for _ in range(200):
        spec = TransformerSpec(
            rated_kva=25.0,
            top_oil_rise_rated=float(rng.uniform(40, 65)),
            hotspot_differential=float(rng.uniform(15, 35)),
            loss_ratio=float(rng.uniform(2, 8)),
            oil_time_constant=float(rng.uniform(1, 8)),
            winding_time_constant=float(rng.uniform(0.05, 1.0)),
            exponent_n=float(rng.uniform(0.6, 1.0)),
            exponent_m=float(rng.uniform(0.6, 1.0)),
        )
        ambient = rng.uniform(-30, 35, 24)
        load = rng.uniform(0.2, 2.5, 24)
        scale = float(rng.uniform(1.05, 2.0))
        base = simulate_day(spec, ambient, load)
        more = simulate_day(spec, ambient, scale * load)
        violations += int(np.sum((more.top_oil < base.top_oil - 1e-9)
                                 | (more.hotspot < base.hotspot - 1e-9)))
    report(4, "load scale-up never cools any hour (200 random pairs)",
           violations == 0, f"violations={violations}")


def test_criterion_05_threshold_certification(default_spec):
    rng = np.random.default_rng(505)
    profiles = [((tuple(rng.uniform(0.5, 3.0, 24)),
                  tuple(rng.uniform(-25, 30, 24))), 1) for _ in range(50)]
    results = riskassess.cluster_thresholds(
        default_spec, make_model_with_profiles(profiles))
    certified = 0
    for ((load_kva, ambient_c), _), peak_pu in zip(
            profiles, results.max_peak_load_pu.tolist()):
        peak = max(load_kva)
        shape = [v / peak for v in load_kva]

        def within(scale):
            trace = simulate_day(default_spec, ambient_c,
                                 [scale * x for x in shape])
            return (trace.top_oil.max() <= default_spec.top_oil_limit
                    and trace.hotspot.max() <= default_spec.hotspot_limit)

        if within(peak_pu) and not within(peak_pu + 0.005):
            certified += 1

    # Closed-form inversion of the steady-state rise at constant profiles.
    closed_form = {0.0: 1.750604437143877, 10.0: 1.650156897845415,
                   20.0: 1.545672956497188}
    results = riskassess.cluster_thresholds(default_spec, make_model_with_profiles(
        [(((1.5,) * 24, (ambient,) * 24), 1) for ambient in closed_form]))
    worst_gap = max(abs(peak_pu - expected) for peak_pu, expected in zip(
        results.max_peak_load_pu.tolist(), closed_form.values()))

    ok = certified == 50 and worst_gap <= 0.01
    report(5, "bisection certified on 50 profiles; closed-form match",
           ok, f"certified={certified}/50, worst closed-form gap="
               f"{worst_gap:.4f} p.u.")


def _planted_blob_records(rng):
    centers = np.array([[0.1, 0.1], [0.5, 0.9], [0.9, 0.1]])
    labels = np.repeat([0, 1, 2], 30)
    points = centers[labels] + rng.normal(0, 0.01, size=(90, 2))
    records = make_dataset(start=dt.date(2014, 1, 1), x=points[:, 0],
                           y=points[:, 1])
    return records, labels


def test_criterion_06_kmeans_correctness():
    schema2 = ft.FeatureSchema(features=(
        ft.FeatureDef("x", ft.KIND_NUMERIC),
        ft.FeatureDef("y", ft.KIND_NUMERIC),
    ))

    # Objective non-increasing after every assignment and update step.
    monotone_runs = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        x, y = zip(*[(float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
                     for _ in range(60)])
        records = make_dataset(start=dt.date(2014, 1, 1), x=x, y=y)
        model = kmeans(records, 4, schema2, seed=seed, track_objective=True)
        trace = model.objective_trace
        if all(b <= a + 1e-9 for a, b in zip(trace, trace[1:])):
            monotone_runs += 1

    # Planted 3-blob recovery across 100 seeds (restarted search; a single
    # uniform-sample init only covers all three blobs ~22% of the time).
    records, labels = _planted_blob_records(np.random.default_rng(606))
    planted = {frozenset(np.flatnonzero(labels == b).tolist()) for b in range(3)}
    by_date = {(dt.date(2014, 1, 1) + dt.timedelta(days=i)).isoformat(): i
               for i in range(90)}
    recovered = 0
    for seed in range(100):
        model = kmeans(records, 3, schema2, seed=seed, restarts=25)
        found = {frozenset(by_date[date] for _, date in refs)
                 for refs in clusters_of(model)}
        recovered += found == planted

    # Brute-force oracle on the 4-point 1-D instance.
    values = [0.0, 0.1, 0.9, 1.0]
    best_cost, best_partition = None, None
    for mask in range(1, 2 ** 4 - 1):
        groups = ([v for i, v in enumerate(values) if mask >> i & 1],
                  [v for i, v in enumerate(values) if not mask >> i & 1])
        cost = sum(sum((v - sum(g) / len(g)) ** 2 for v in g) for g in groups)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_partition = {frozenset(i for i, _ in enumerate(values)
                                        if (mask >> i & 1) == bit)
                              for bit in (0, 1)}
    schema1 = ft.FeatureSchema(features=(ft.FeatureDef("x", ft.KIND_NUMERIC),))
    model = kmeans(make_dataset(x=values), 2, schema1, seed=0)
    day_idx = {(dt.date(2015, 1, 1) + dt.timedelta(days=i)).isoformat(): i
               for i in range(4)}
    oracle_match = ({frozenset(day_idx[date] for _, date in refs)
                     for refs in clusters_of(model)} == best_partition
                    and abs(model.objective - best_cost) < 1e-12)

    ok = monotone_runs == 100 and recovered >= 95 and oracle_match
    report(6, "k-means: monotone objective, blob recovery, partition oracle",
           ok, f"monotone={monotone_runs}/100, recovered={recovered}/100, "
               f"oracle={'ok' if oracle_match else 'MISMATCH'}")


def test_criterion_07_mixed_distance_properties():
    schema = ft.FeatureSchema(features=(
        ft.FeatureDef("a", ft.KIND_NUMERIC, weight=1.3),
        ft.FeatureDef("b", ft.KIND_NUMERIC, weight=0.6),
        ft.FeatureDef("grade", ft.KIND_ORDINAL, statuses=("lo", "mid", "hi"),
                      weight=0.8),
        ft.FeatureDef("flag", ft.KIND_NOMINAL, statuses=("Y", "N"), weight=1.1),
    ))
    rng = np.random.default_rng(707)

    def vectors(count=1):
        """``count`` encoded rows, drawn one row at a time."""
        rows = [((float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                  ft.encode_ordinal(int(rng.integers(1, 4)), 3)),
                 (("Y", "N").index(str(rng.choice(["Y", "N"]))),))
                for _ in range(count)]
        return (np.array([q for q, _ in rows]), np.array([n for _, n in rows]))

    property_failures = 0
    for _ in range(1000):
        x, y = vectors(), vectors()
        d_xx = ft.distance(x, x, schema)[0, 0]
        d_xy = ft.distance(x, y, schema)[0, 0]
        d_yx = ft.distance(y, x, schema)[0, 0]
        if d_xx != 0.0 or d_xy < 0.0 or abs(d_xy - d_yx) > 1e-12:
            property_failures += 1

    def scaled_schema(c):
        return ft.FeatureSchema(features=tuple(
            ft.FeatureDef(f.name, f.kind, statuses=f.statuses,
                          weight=c * f.weight) for f in schema.features))

    argmin_failures = 0
    centroids = vectors(6)
    for _ in range(100):
        x = vectors()
        c = float(rng.uniform(0.1, 10.0))
        d1 = ft.distance(x, centroids, schema)[0]
        d2 = ft.distance(x, centroids, scaled_schema(c))[0]
        if int(np.argmin(d1)) != int(np.argmin(d2)):
            argmin_failures += 1

    ok = property_failures == 0 and argmin_failures == 0
    report(7, "distance identity/symmetry/nonnegativity; weight-scale argmins",
           ok, f"property failures={property_failures}/1000, "
               f"argmin failures={argmin_failures}/100")


def test_criterion_08_estimation_convexity():
    # 500 random models, each scoring 500 random queries as one table and
    # then its own centroids as another.
    rng = np.random.default_rng(808)
    weight_failures = 0
    bound_failures = 0
    centroid_failures = 0
    for _ in range(500):
        k = int(rng.integers(2, 7))
        centroids = [{"x": float(rng.uniform(0, 1)),
                      "y": float(rng.uniform(0, 1))} for _ in range(k)]
        model = make_model(centroids)
        values = {i + 1: float(rng.uniform(-40, 160)) for i in range(k)}
        queries = record_table(x=rng.uniform(0, 1, 500),
                               y=rng.uniform(0, 1, 500))
        result = estimation.estimate(queries, model, values)
        weight_failures += int(
            (np.abs(result.weights.sum(axis=1) - 1.0) > 1e-9).sum())
        bound_failures += int(
            ((result.estimate < min(values.values()) - 1e-9)
             | (result.estimate > max(values.values()) + 1e-9)).sum())

        on_centroids = record_table(x=[c["x"] for c in centroids],
                                    y=[c["y"] for c in centroids])
        result = estimation.estimate(on_centroids, model, values)
        centroid_failures += sum(
            value != values[i + 1]
            for i, value in enumerate(result.estimate.tolist()))

    ok = weight_failures == 0 and bound_failures == 0 and centroid_failures == 0
    report(8, "estimation: weights sum to 1, convex bounds, centroid exactness",
           ok, f"weight={weight_failures}, bounds={bound_failures}, "
               f"centroid={centroid_failures} failures")


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_09_end_to_end_determinism(golden_pipeline):
    (root_a, secs_a), (root_b, secs_b) = golden_pipeline
    identical = all((root_a / rel).read_bytes() == (root_b / rel).read_bytes()
                    for rel in PIPELINE_FILES)
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    digests = {rel: _sha256(root_a / rel) for rel in PIPELINE_FILES}
    matches = digests == golden
    fast = secs_a < 60.0 and secs_b < 60.0
    ok = identical and matches and fast
    moved = "".join(f", {rel} {digests[rel][:8]}… != golden "
                    f"{golden.get(rel, 'missing')[:8]}…"
                    for rel in PIPELINE_FILES if digests[rel] != golden.get(rel))
    report(9, "pipeline determinism: rerun byte-identical, golden digests, <60 s",
           ok, f"identical={identical}, golden={matches}, "
               f"runtimes={secs_a:.1f}s/{secs_b:.1f}s{moved}")


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


# The golden pipeline in a fresh interpreter. The last line printed is a
# JSON report: the numpy dispatch targets enabled there and the digest of
# every pipeline file.
_DIGEST_CHILD = """
import hashlib, json, sys
from pathlib import Path
from numpy._core import _multiarray_umath as umath
from conftest import PIPELINE_FILES, run_pipeline
root = run_pipeline(Path(sys.argv[1]))
print(json.dumps({
    "dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]],
    "digests": {rel: hashlib.sha256((root / rel).read_bytes()).hexdigest()
                for rel in PIPELINE_FILES}}))
"""


def _machine_dispatch():
    """The numpy SIMD dispatch targets this machine runs: those this
    interpreter uses and those it was started with turned off."""
    off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").replace(",", " ").split()
    return [t for t in umath.__cpu_dispatch__
            if umath.__cpu_features__[t] or t in off]


@pytest.fixture(scope="module")
def dispatch_runs(tmp_path_factory):
    """The golden pipeline in two fresh interpreters side by side:
    ``narrowed`` with every dispatch target of this machine turned off through
    ``NPY_DISABLE_CPU_FEATURES`` under ``PYTHONHASHSEED=1``, ``full`` with
    full dispatch under ``PYTHONHASHSEED=2``. Returns each run's report."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    base = {key: value for key, value in os.environ.items()
            if key != "NPY_DISABLE_CPU_FEATURES"}
    envs = {"narrowed": dict(base, PYTHONPATH=path, PYTHONHASHSEED="1",
                             NPY_DISABLE_CPU_FEATURES=",".join(_machine_dispatch())),
            "full": dict(base, PYTHONPATH=path, PYTHONHASHSEED="2")}
    procs = {}
    try:
        for name, env in envs.items():
            root = tmp_path_factory.mktemp(f"dispatch_{name}")
            procs[name] = subprocess.Popen(
                [sys.executable, "-c", _DIGEST_CHILD, str(root)], cwd=root,
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
        reports = {}
        for name, proc in procs.items():
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err[-2000:]
            reports[name] = json.loads(out.splitlines()[-1])
        return reports
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()


@pytest.mark.parametrize("run", ["narrowed", "full"])
def test_golden_digests_across_numpy_dispatch(dispatch_runs, run):
    # The outputs' bytes depend on the inputs and the seed alone: numpy's
    # SIMD kernels and Python's hash seed do not move a digest.
    report, full = dispatch_runs[run], dispatch_runs["full"]["dispatch"]
    if run == "narrowed" and report["dispatch"] == full:
        pytest.skip("NPY_DISABLE_CPU_FEATURES has no effect on this machine "
                    f"(dispatch targets in use: {full or 'none'})")
    golden = json.loads(GOLDEN_DIGESTS.read_text())
    moved = [rel for rel in PIPELINE_FILES if report["digests"][rel] != golden[rel]]
    assert not moved, f"{run} dispatch moved the digests of {moved}"


def test_criterion_10_table_shapes(golden_pipeline):
    root = golden_pipeline[0][0]
    out = root / "out"
    problems = []

    comp = _read_csv(out / "composition.csv")
    if comp[0] != ["cluster_id", "member_count", "t_max_c", "t_min_c",
                   "t_avg_c", "l_avg_kva", "weekday"]:
        problems.append("composition header")
    member_counts = {int(r[0]): int(r[1]) for r in comp[1:]}
    if len(member_counts) != 6:
        problems.append("composition row count")

    thr = _read_csv(out / "thresholds.csv")
    if thr[0] != ["cluster_id", "max_avg_load_pu", "max_peak_load_pu",
                  "binding_limit", "impact_rank"]:
        problems.append("thresholds header")
    if sorted(int(r[4]) for r in thr[1:]) != list(range(1, 7)):
        problems.append("ranks not a permutation")
    if any(float(r[2]) < float(r[1]) for r in thr[1:]):
        problems.append("peak below average")

    month = _read_csv(out / "month_matrix.csv")
    if month[0] != ["month"] + [f"imp_{i}" for i in range(1, 7)]:
        problems.append("month header")
    if month[1][0] != "cluster_id":
        problems.append("month cluster_id row")
    if [r[0] for r in month[2:14]] != list(riskassess.MONTH_LABELS):
        problems.append("month rows")
    if month[14][0] != "Sum":
        problems.append("Sum row")
    for col in range(1, 7):
        cid = int(month[1][col])
        column = [int(month[r][col]) for r in range(2, 14)]
        if sum(column) != int(month[14][col]):
            problems.append(f"Sum row mismatch col {col}")
        if sum(column) != member_counts[cid]:
            problems.append(f"column sum != member count for cluster {cid}")

    grid = _read_csv(out / "temperature_grid.csv")
    if grid[0] != ["cluster_id"] + [f"N={n}" for n in range(1, 41)]:
        problems.append("temperature grid header")
    if grid[-1][0] != "Max":
        problems.append("Max row missing")
    for col in range(1, 41):
        column_max = max(int(grid[r][col]) for r in range(1, 7))
        if column_max != int(grid[-1][col]):
            problems.append(f"Max row mismatch at {grid[0][col]}")
    for row in grid[1:7]:
        temps = [int(v) for v in row[1:]]
        if any(b < a for a, b in zip(temps, temps[1:])):
            problems.append(f"non-monotone temperatures cluster {row[0]}")

    life = _read_csv(out / "life_loss.csv")
    if life[0] != (["cluster_id"] + [f"N={n}" for n in range(1, 41)]
                   + ["num_days"]):
        problems.append("life-loss header")
    footers = [r[0] for r in life[7:10]]
    if footers != ["2-Year Total Loss of Life (Days)",
                   "Average annual Loss of Life (Days)",
                   "Economic Loss ($/year)"]:
        problems.append(f"life-loss footers: {footers}")
    for row in life[1:7]:
        if int(row[-1]) != member_counts[int(row[0])]:
            problems.append(f"num_days mismatch cluster {row[0]}")
    for col in range(1, 41):
        total = float(life[7][col])
        annual = float(life[8][col])
        el = float(life[9][col])
        if abs(annual - total / 2.0) > 0.1:
            problems.append(f"annual != total/years at {life[0][col]}")
        if abs(el - annual / 7500.0 * 5000.0) > 0.1:
            problems.append(f"EL inconsistent at {life[0][col]}")

    est = _read_csv(out / "estimates.csv")
    if est[0] != ["date", "t_max_c", "t_min_c", "t_avg_c", "l_avg_kva",
                  "weekday", "estimated_max_top_oil_c", "far_flag"]:
        problems.append("estimates header")
    if len(est) != 8:
        problems.append("estimates row count")
    if any(r[7] not in ("Y", "N") for r in est[1:]):
        problems.append("bad far_flag value")

    report(10, "report tables structurally match the published layouts",
           not problems, "; ".join(problems) if problems else "all shapes ok")
