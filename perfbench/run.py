"""End-to-end and per-layer benchmark of the txrisk CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {train,screen,estimate} --seed N \\
        --seconds S --trace {0,1} [--scale {full,smoke}] [--save FILE.jsonl]

One invocation checks disk and memory, makes the workload's inputs from
the seed ``SETUP_REPEATS`` times (the median is ``setup_s``) and runs the
workload's ``txrisk.cli.main`` calls in a fresh child process per run, one
run after each setup and more until the runs have taken ``--seconds``. It
checks every run's outputs.

``--trace 0`` reports the end-to-end metrics. ``norm_wall_s`` is the
seconds of one run's ``cli.main`` calls, rescaled to the host's reference
speed by a fixed loop of the workload's shape, timed before and after each
run (see ``hostspeed.py``), and ``norm_work_per_s`` the work of a run per such
second; the measured seconds are ``wall_s`` in the facts line.
``setup_s`` and ``peak_rss_mb`` are as measured. ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics, timed by
wrapping the program's module functions from this directory's own files
(see ``spans.py``); nothing under ``src/`` changes.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` (operations: CLI calls and output checks) and ``metrics``. The
line before it holds the machine and input facts and, for every metric, its
median, quartiles and sample count. ``--save`` appends both to a JSON-lines
file that ``compare.py`` and ``sweep.py`` read.

Exit codes: 0 result printed; 1 setup failed; 2 no txrisk sources next to
this directory; 3 not enough disk or memory for the planned inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(SRC))

from hostspeed import HostSpeed  # noqa: E402
from layers import PER_LAYER, Spans, layer_metrics  # noqa: E402
from stats import summary  # noqa: E402
from workloads import SCALES, WORKLOADS, model_floats_finite  # noqa: E402

END_TO_END = (
    ("norm_wall_s", "s"),
    ("norm_work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 3
# Stops an invocation whose runs keep failing.
MAX_RUNS = 64
CHILD_TIMEOUT_S = 150
# Largest child (the full-scale cluster call, about 190 MB) plus this
# process, with room to spare.
PLANNED_RSS_BYTES = 512 << 20


class Ops:
    """Attempted and failed operations: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def run_child(calls, work, tag, trace=False):
    """Run ``calls`` through ``child.py`` in a fresh process.

    Returns the child's report, None if it wrote none.
    """
    job = {
        "calls": calls,
        "trace": trace,
        "report": str(work / f"{tag}.report.json"),
        "spans": str(work / f"{tag}.spans.npz"),
    }
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / f"{tag}.stderr", "wb") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 str(job_path)], cwd=work, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    report_path = Path(job["report"])
    if proc.returncode != 0 or not report_path.exists():
        sys.stderr.write((work / f"{tag}.stderr").read_text(errors="replace"))
        return None
    return json.loads(report_path.read_text(encoding="utf-8"))


def digest(paths, base):
    """SHA-256 over the files' paths relative to ``base`` and their bytes."""
    h = hashlib.sha256()
    for path in paths:
        h.update(str(Path(path).relative_to(base)).encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(seed):
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = digest(sorted((SRC / "txrisk").glob("*.py")), SRC)
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": source, "seed": seed}


def mem_available_bytes():
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def preflight(workload):
    """Stop with a message if disk or memory is short for the planned inputs."""
    need_disk = (SETUP_REPEATS + 1) * workload.planned_bytes() + (64 << 20)
    st = os.statvfs(ROOT)
    free = st.f_bavail * st.f_frsize
    problems = []
    if free < need_disk:
        problems.append(f"free disk {free >> 20} MB < {need_disk >> 20} MB needed")
    avail = mem_available_bytes()
    if avail is not None and avail < PLANNED_RSS_BYTES:
        problems.append(f"available memory {avail >> 20} MB < "
                        f"{PLANNED_RSS_BYTES >> 20} MB needed")
    if problems:
        sys.stderr.write(f"perfbench: preflight for {workload.name}: "
                         + "; ".join(problems) + "\n")
        sys.exit(3)


def make_inputs(workload, work, seed, r, ops):
    """Make the workload's inputs under ``work/setup<r>``.

    Returns (input facts, seconds taken, digest of the input files).
    """
    target = work / f"setup{r}"
    logs = work / f"setup{r}.logs"
    target.mkdir(parents=True)
    logs.mkdir()

    def cli(calls):
        report = run_child(calls, logs, "cli")
        rcs = [c["rc"] for c in report["calls"]] if report else [None]
        for rc in rcs:
            ops.record("setup CLI call exits 0", rc == 0)
        return rcs

    start = time.perf_counter()
    facts = workload.setup(target, seed, cli)
    seconds = time.perf_counter() - start
    files = digest(sorted(p for p in target.rglob("*") if p.is_file()), target)
    return facts, seconds, files


def check_run(workload, inputs, out, report, ops, first_hashes, dataset):
    """Record the output checks of one run on input set ``dataset``."""
    from txrisk.errors import TxRiskError

    if report is None:
        ops.record("child process wrote a report", False)
        return
    for call in report["calls"]:
        ops.record("CLI call exits 0", call["rc"] == 0)
    try:
        hashes = digest(workload.outputs(inputs, out), out)
    except OSError:
        hashes = None
    if dataset in first_hashes:
        ops.record("outputs repeat across runs", hashes == first_hashes[dataset])
    else:
        first_hashes[dataset] = hashes
    try:
        for name, ok in workload.check(inputs, out):
            ops.record(name, ok)
    except (OSError, ValueError, IndexError, KeyError, TxRiskError) as exc:
        ops.record(f"output check raised {exc!r}", False)


def measure(workload, work, seed, seconds, trace):
    ops = Ops()
    host = HostSpeed(workload.reference)
    setup_times, untraced, traced, layer_runs = [], [], [], []
    datasets, first_hashes = [], {}
    first_files = None
    measured = 0.0
    run = 0
    # One run follows each setup, so that the runs spread over the whole
    # invocation and a burst of load from outside the process slows few of
    # them. With ``workload.distinct_setups`` each setup makes its own input
    # set from its own seed and the runs cycle through them; otherwise runs
    # use the first setup's inputs, and later setups only time and check the
    # repeat. With tracing, untraced and traced runs alternate.
    while run < MAX_RUNS and (
            len(setup_times) < SETUP_REPEATS or measured < seconds
            or len(untraced) < 2 - trace or len(traced) < trace):
        r = len(setup_times)
        if r < SETUP_REPEATS:
            host.sample()
            setup_seed = seed * SETUP_REPEATS + r if workload.distinct_setups else seed
            facts, secs, files = make_inputs(workload, work, setup_seed, r, ops)
            setup_times.append(secs)
            if r == 0:
                first_files = files
            if r == 0 or workload.distinct_setups:
                datasets.append(facts)
                if "model" in facts:
                    ops.record("setup model loads with finite floats",
                               model_floats_finite(facts["model"]))
            else:
                ops.record("setup inputs repeat byte for byte", files == first_files)
                shutil.rmtree(work / f"setup{r}")
        dataset = run % len(datasets)
        inputs = datasets[dataset]
        traced_mode = bool(trace) and run % 2 == 1
        out = work / f"run{run}"
        mark = host.sample()
        start = time.perf_counter()
        report = run_child(workload.calls(inputs, out), work, f"run{run}",
                           traced_mode)
        measured += time.perf_counter() - start
        check_run(workload, inputs, out, report, ops, first_hashes, dataset)
        if report is not None:
            wall = sum(c["s"] for c in report["calls"])
            if traced_mode:
                traced.append(wall)
                model_bytes = workload.model_path(inputs, out).stat().st_size
                layer_runs.append(layer_metrics(
                    Spans(work / f"run{run}.spans.npz"), report,
                    dict(inputs, model_bytes=model_bytes), wall))
            else:
                untraced.append({"wall_s": wall, "peak_rss_mb": report["peak_rss_mb"],
                                 "mark": mark, "work": workload.work(inputs)})
        shutil.rmtree(out, ignore_errors=True)
        run += 1
    host.sample()

    # Run times are rescaled to the host's reference speed around each run
    # (see hostspeed.py); the raw ones go to the facts line. Set-up time is
    # reported as measured.
    walls = [u["wall_s"] * host.factor(u["mark"]) for u in untraced]
    samples = {
        "norm_wall_s": walls,
        "norm_work_per_s": [u["work"] / w for u, w in zip(untraced, walls)],
        "setup_s": setup_times,
        "peak_rss_mb": [u["peak_rss_mb"] for u in untraced],
        "wall_s": [u["wall_s"] for u in untraced],
        "hostspeed.reference_loop_s": host.samples,
    }
    units = {**dict(END_TO_END), "wall_s": "s", "hostspeed.reference_loop_s": "s"}
    reported = dict(END_TO_END)
    if trace:
        samples["traced_wall_s"] = traced
        units = {**units, "traced_wall_s": "s", **dict(PER_LAYER)}
        reported = dict(PER_LAYER)
        for name in reported:
            samples[name] = [m[name] for m in layer_runs if name in m]
        base = summary(samples["wall_s"])["median"] if untraced else 0.0
        samples["trace.overhead_frac"] = [
            (summary(traced)["median"] - base) / base if base and traced else 0.0]
        samples["failed_frac"] = [len(ops.failures) / max(ops.attempted, 1)]
    distributions = {name: dict(summary(values), unit=units[name])
                     for name, values in samples.items() if values}
    metrics = {name: {"value": distributions[name]["median"], "unit": unit}
               for name, unit in reported.items() if name in distributions}
    facts = {
        "workload": workload.name,
        "work_unit": workload.work_unit,
        "inputs": {key: datasets[0][key]
                   for key in ("meter_rows", "meter_bytes", "rows", "records",
                               "cells", "queries", "model_bytes")
                   if key in datasets[0]},
        "runs": len(untraced),
        "traced_runs": len(traced),
        # Untraced runs as (measured seconds, index of the host-speed sample
        # taken just before), and the samples, to re-derive norm_wall_s.
        "run_walls": [(u["wall_s"], u["mark"]) for u in untraced],
        "host_samples": host.samples,
        "failures": sorted(set(ops.failures)),
        "distributions": distributions,
    }
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }
    return facts, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--save", help="append facts and result to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "txrisk" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no txrisk sources at {SRC / 'txrisk'}; "
                         "run from a checkout of the repository\n")
        return 2
    workload = WORKLOADS[args.workload](SCALES[args.scale])
    preflight(workload)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        facts, result = measure(workload, work, args.seed, args.seconds,
                                args.trace)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: setup failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    facts.update(scale=args.scale, seconds=args.seconds, trace=args.trace,
                 machine=machine_facts(args.seed))
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"facts": facts, "result": result}) + "\n")
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
