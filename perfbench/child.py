"""Run a list of ``txrisk.cli.main`` calls in this fresh process.

Usage: ``python3 perfbench/child.py JOB.json`` with ``src`` on PYTHONPATH.
The job holds ``calls`` (argv lists), ``trace`` (bool), ``report`` (path of
the JSON report to write) and, when tracing, ``spans`` (path of the span
file). The report gives the time of ``import txrisk.cli``, per call its exit
code and seconds, and the process's peak resident memory; interpreter
start and the import are outside the per-call times.

When tracing, the module functions named in ``TARGETS`` are wrapped for
the duration of the calls. Afterwards the first ``kmeans`` call is
repeated once, untimed and untraced, with ``track_objective=True`` to read
the best restart's Lloyd iteration count.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

TARGETS = (
    ("ingest", "load_dataset"),
    ("features", "fit_normalization"),
    ("features", "encode"),
    ("features", "distance"),
    ("clustering", "train_model"),
    ("clustering", "kmeans"),
    ("clustering", "extract_profiles"),
    ("clustering", "save_model"),
    ("clustering", "load_model"),
    ("clustering", "month_cluster_matrix"),
    ("thermal", "load_transformer_spec"),
    ("thermal", "simulate_day"),
    ("aging", "aging_acceleration"),
    ("aging", "equivalent_aging"),
    ("aging", "accumulate_life_loss"),
    ("aging", "economic_loss"),
    ("riskassess", "cluster_thresholds"),
    ("riskassess", "max_services_by_temperature"),
    ("riskassess", "max_services_by_life"),
    ("riskassess", "write_thresholds_csv"),
    ("riskassess", "write_month_matrix_csv"),
    ("riskassess", "write_temperature_grid_csv"),
    ("riskassess", "write_life_loss_csv"),
    ("riskassess", "write_month_distribution_svg"),
    ("estimation", "read_query_csv"),
    ("estimation", "cluster_max_top_oil"),
    ("estimation", "estimate_day_temperature"),
    ("estimation", "write_estimates_csv"),
)


def _count(key, value_of):
    def on_return(counters, result):
        counters[key] = counters.get(key, 0) + value_of(result)
    return on_return


# Counters read from return values: records loaded, solver sweeps per
# simulated day, far-flagged estimates.
ON_RETURN = {
    ("ingest", "load_dataset"): _count("records", lambda r: len(r.records)),
    ("thermal", "simulate_day"): _count("sweeps", lambda r: r.iterations),
    ("estimation", "estimate_day_temperature"): _count(
        "far", lambda r: int(r.far_flag)),
}


def _install(tracer, kmeans_calls):
    import importlib

    for module_name, attr in TARGETS:
        module = importlib.import_module(f"txrisk.{module_name}")
        tracer.patch(module, attr, ON_RETURN.get((module_name, attr)))

    clustering = importlib.import_module("txrisk.clustering")
    traced_kmeans = clustering.kmeans

    def kmeans(*args, **kwargs):
        if not kmeans_calls:
            kmeans_calls.append((args, kwargs))
        return traced_kmeans(*args, **kwargs)

    clustering.kmeans = kmeans


def _lloyd_iterations(kmeans_calls):
    """Best restart's Lloyd iterations of the first recorded kmeans call.

    ``objective_trace`` holds the initial objective, two entries per
    iteration and the final objective.
    """
    if not kmeans_calls:
        return 0
    from txrisk import clustering

    args, kwargs = kmeans_calls[0]
    model = clustering.kmeans(*args, **dict(kwargs, track_objective=True))
    return (len(model.objective_trace) - 2) // 2


def peak_rss_mb():
    """Peak resident memory of this process since it started this program.

    ``VmHWM`` counts only this program's address space. The ``ru_maxrss``
    that ``wait4`` returns to the parent can also hold the parent's own peak,
    carried over from before the child's ``exec``; it is the fallback where
    ``/proc`` is missing.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(job_path) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    start = time.perf_counter()
    import txrisk.cli as cli
    import_s = time.perf_counter() - start

    run = cli.main
    tracer = None
    kmeans_calls = []
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        _install(tracer, kmeans_calls)
        run = tracer.wrap("cli.main", cli.main)

    calls = []
    for argv in job["calls"]:
        start = time.perf_counter()
        try:
            rc = run(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
        calls.append({"rc": rc, "s": time.perf_counter() - start})

    report = {"import_s": import_s, "calls": calls, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.restore()
        report["counters"] = tracer.counters()
        report["lloyd_iterations"] = _lloyd_iterations(kmeans_calls)
        tracer.save(job["spans"])
    Path(job["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
