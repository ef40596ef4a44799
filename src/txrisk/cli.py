"""Command-line entry point.

Subcommands cover the full pipeline: ``synth`` generates a seeded
synthetic dataset, ``cluster`` trains the mixed-type k-means model,
``assess`` writes the threshold/month/temperature/life-loss report tables,
and ``estimate`` scores query days against a trained model. Options can be
preloaded from a JSON config file; command-line flags win over the config.

Every error class maps to a distinct exit code (see ``txrisk --help``).
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import clustering, estimation, ingest, riskassess, thermal
from . import features as ft
from .errors import ConfigError, TxRiskError, json_number, read_json

# The most k-means restarts ``cluster`` runs: each reruns the whole search,
# so a count far past any use would keep the command running for ever.
MAX_RESTARTS = 1000
# The most hourly meter readings (services x days x 24) ``synth`` writes:
# about a 1.2 GB meter.csv, and as many bytes of arrays while it is made.
MAX_SYNTH_READINGS = 50_000_000

_EXIT_CODE_DOC = """\
exit codes:
  0   success
  1   unexpected internal error
  2   usage or configuration error, or an output that cannot be written
  3   input file parse error, or a model/spec past the per-unit load ceiling
  5   no common weather/meter/calendar coverage
  6   more clusters requested than data points
  8   no feasible loading scale (ambient above limit)
  9   strict mode: query far from all clusters
  11  vector does not match the feature schema
  13  meter file holds daily energy only, no 24-hour profiles
  17  cluster profile with zero peak load (no loading threshold)
  18  temperature or life loss fell as the service count rose
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txrisk",
        description="Statistical overloading-risk assessment for residential "
                    "oil-immersed transformer fleets.",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help="output directory (default .)")

    def seeded(p):
        common(p)
        p.add_argument("--seed", type=int, help="master random seed")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    seeded(p_synth)
    p_synth.add_argument("--services", type=int,
                         help="number of services (services x days x 24 at "
                              f"most {MAX_SYNTH_READINGS:,})")
    p_synth.add_argument("--days", type=int, help="number of days")
    p_synth.add_argument("--start-date", help="first date, ISO format")

    p_cluster = sub.add_parser("cluster", help="train the cluster model")
    seeded(p_cluster)
    p_cluster.add_argument("--weather", help="weather.csv path")
    p_cluster.add_argument("--meter", help="meter.csv path")
    p_cluster.add_argument("--calendar", help="calendar.csv path")
    p_cluster.add_argument("--k", type=int, help="number of clusters")
    p_cluster.add_argument("--restarts", type=int,
                           help="seeded restarts, best objective wins "
                                f"(1..{MAX_RESTARTS})")
    p_cluster.add_argument("--k-sweep", metavar="A..B",
                           help="also report the objective for each k in the "
                                "range before training at --k")

    p_assess = sub.add_parser("assess", help="write the risk report tables")
    common(p_assess)
    p_assess.add_argument("--spec", help="transformer spec JSON path")
    p_assess.add_argument("--model", help="trained cluster model JSON path")
    p_assess.add_argument("--n-range", metavar="A..B",
                          help="service counts to study (default 1..40)")
    p_assess.add_argument("--budget", type=float,
                          help="yearly economic-loss budget per transformer")
    p_assess.add_argument("--years", type=float,
                          help="dataset span in years for annualization")
    p_assess.add_argument("--svg", action="store_true", default=None,
                          help="also emit the month-distribution SVG chart")

    p_estimate = sub.add_parser("estimate",
                                help="estimate temperatures for query days")
    common(p_estimate)
    p_estimate.add_argument("--spec", help="transformer spec JSON path")
    p_estimate.add_argument("--model", help="trained cluster model JSON path")
    p_estimate.add_argument("--query", help="query CSV path")
    p_estimate.add_argument("--services", type=int,
                            help="service count at the target transformer "
                                 "(required)")
    p_estimate.add_argument("--strict", action="store_true", default=None,
                            help="error out on far-from-all-clusters queries")
    return parser


class RunConfig:
    """Merged view of defaults, the JSON config file, and CLI flags."""

    _DEFAULTS = {
        "seed": 42,
        "out": ".",
        "strict": False,
        "services": 20,
        "days": 730,
        "start_date": "2014-01-01",
        "k": 10,
        "restarts": 1,
        "n_range": "1..40",
        "budget": 500.0,
        "years": 3.0,
        "svg": False,
        "weather": None,
        "meter": None,
        "calendar": None,
        "spec": None,
        "model": None,
        "query": None,
        "features": None,
        "synth": None,
        "k_sweep": None,
    }

    def __init__(self, args: argparse.Namespace):
        file_cfg = {}
        if getattr(args, "config", None):
            file_cfg = read_json(args.config, ConfigError, "config")
            if not isinstance(file_cfg, dict):
                raise ConfigError("config file must hold a JSON object")
            unknown = set(file_cfg) - set(self._DEFAULTS)
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            # Their readers take the structures features and synth apart.
            for key, value in file_cfg.items():
                if value is not None and key not in ("features", "synth"):
                    _check_kind(key, value, self._DEFAULTS[key])
        self._file = file_cfg
        self._args = vars(args)

    def get(self, key):
        flag = self._args.get(key)
        if flag is not None:
            return flag
        if key in self._file and self._file[key] is not None:
            return self._file[key]
        return self._DEFAULTS[key]

    def count(self, key, minimum, maximum=None, *, required=False) -> int:
        """The integer option ``key``; past the float range (the config
        file's number rule, :func:`json_number`, which a flag follows
        too), below ``minimum``, above ``maximum`` (if given), or
        ``required`` and given by neither flag nor config file, it is
        refused."""
        if required and self._args.get(key) is None and self._file.get(key) is None:
            raise ConfigError(f"missing required option: --{key}")
        value = int(self.get(key))
        try:
            json_number(value, f"--{key}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if value < minimum:
            raise ConfigError(f"--{key} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"--{key} must be <= {maximum}, got {value}")
        return value

    def number(self, key, *, positive=True) -> float:
        """The number option ``key``: finite, and > 0 (>= 0 if not ``positive``)."""
        value = float(self.get(key))
        if not (math.isfinite(value) and (value > 0 or value == 0 and not positive)):
            name = f"--{key}" if key in self._args else key
            raise ConfigError(f"{name} must be a finite number "
                              f"{'>' if positive else '>='} 0, got {value!r}")
        return value

    def require_path(self, key) -> Path:
        value = self.get(key)
        if not value:
            raise ConfigError(f"missing required path: --{key.replace('_', '-')}")
        path = Path(value)
        if not path.exists():
            raise ConfigError(f"path does not exist: {path}")
        return path

    def out_dir(self) -> Path:
        out = Path(self.get("out"))
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        return out

    def schema(self) -> ft.FeatureSchema:
        items = self.get("features")
        if items is None:
            return ft.default_schema()
        try:
            return ft.FeatureSchema.from_jsonable(items)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad feature schema in config: {exc}")

    def synth_config(self) -> ingest.SynthConfig:
        """The synthetic generator's knobs: each value in the config's
        ``synth`` object must be of its :class:`ingest.SynthConfig`
        default's kind, and ``holidays`` a list of [month, day] integers."""
        overrides = self.get("synth") or {}
        if not isinstance(overrides, dict):
            raise ConfigError(f"config key 'synth' must be an object, "
                              f"got {overrides!r}")
        defaults = ingest.SynthConfig()
        unknown = set(overrides) - {f.name for f in dataclass_fields(defaults)}
        if unknown:
            raise ConfigError(f"unknown synth config keys: {sorted(unknown)}")
        values = dict(overrides)
        for key, value in overrides.items():
            if key != "holidays":
                _check_kind(f"synth.{key}", value, getattr(defaults, key))
                continue
            try:
                for pair in value:
                    for part in pair:
                        _check_kind("synth.holidays", part, 1)
                values[key] = tuple((int(m), int(d)) for m, d in value)
            except (TypeError, ValueError):
                raise ConfigError("config key 'synth.holidays' must be a list "
                                  f"of [month, day] integers, got {value!r}")
        return ingest.SynthConfig(**values)


def _check_kind(key, value, default):
    """A config value must be of its default's kind: true/false, a string
    for the paths and spans, or a number (:func:`json_number`) that is, for
    an integer, integral (a float of at most 2**53 in size passes)."""
    if isinstance(default, bool):
        kind, ok = "true or false", isinstance(value, bool)
    elif isinstance(default, (int, float)):
        try:
            number = json_number(value, f"config key {key!r}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        # Above 2**53 a float cannot tell neighbouring integers apart.
        kind = "an integer"
        ok = (isinstance(default, float) or isinstance(value, int)
              or number.is_integer() and abs(number) <= 2 ** 53)
    else:
        kind, ok = "a string", isinstance(value, str)
    if not ok:
        raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")


@contextmanager
def _writing(out):
    """A new directory under ``out`` for a command's outputs, each written
    there under its own name. When the block ends, every file in it is
    moved into ``out``; a run that fails, in the block or in a move, leaves
    none of its outputs and nothing temporary. An OSError is raised as a
    ConfigError (exit 2) that names the output file, or ``out`` where the
    error names none."""
    staging, moved = None, []
    try:
        staging = Path(tempfile.mkdtemp(prefix=".txrisk-", dir=out))
        yield staging
        for path in sorted(staging.iterdir()):
            os.replace(path, out / path.name)
            moved.append(out / path.name)
    except OSError as exc:
        for path in moved:
            path.unlink()
        name = staging and (exc.filename2 or exc.filename)
        if name and Path(name).parent == staging:
            name = out / Path(name).name
        raise ConfigError(f"cannot write output {name or out}: "
                          f"{exc.strerror or exc}") from exc
    finally:
        if staging:
            shutil.rmtree(staging, ignore_errors=True)


def parse_span(text: str, label: str) -> range:
    """Parse an inclusive integer span like ``1..40``, of at most
    ``sys.maxsize`` counts (the most a ``range`` can hold and measure)."""
    parts = str(text).split("..")
    try:
        lo, hi = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{label} must look like A..B, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise ConfigError(f"{label} {text!r} is empty or non-positive")
    if hi - lo >= sys.maxsize:
        raise ConfigError(f"{label} {text!r} spans more than {sys.maxsize} "
                          "counts")
    return range(lo, hi + 1)


def cmd_synth(cfg: RunConfig) -> int:
    seed = cfg.count("seed", 0)
    try:
        start = ingest.iso_date(str(cfg.get("start_date")))
    except ValueError:
        raise ConfigError(f"bad start date {cfg.get('start_date')!r}")
    services = cfg.count("services", 1)
    days = cfg.count("days", 1)
    if days > (dt.date.max - start).days + 1:
        raise ConfigError(f"{days} days from --start-date {start} run past "
                          f"{dt.date.max}")
    if services * days * 24 > MAX_SYNTH_READINGS:
        raise ConfigError(f"--services {services} x --days {days} x 24 is "
                          f"{services * days * 24:,} hourly meter readings, "
                          f"above the {MAX_SYNTH_READINGS:,} synth writes")
    config = cfg.synth_config()
    out = cfg.out_dir()
    with _writing(out) as staging:
        paths = ingest.synth_dataset(seed, services, start, days, config,
                                     staging)
    for name in ("weather", "meter", "calendar"):
        print(f"wrote {out / paths[name].name}")
    return 0


def _write_composition_csv(model, path):
    schema = model.schema
    rows = clustering.composition(model)

    def block(names):  # a (k, len(names)) column block
        return [[row[name] for name in names] for row in rows]

    counts = ["cluster_id", "member_count"]
    ingest.write_table(path, [*counts, *schema.numeric_names,
                              *schema.ordinal_names, *schema.nominal_names], [[
        np.array(block(counts)), (np.array(block(schema.numeric_names)), 2),
        (np.array(block(schema.ordinal_names)), 4),
        block(schema.nominal_names)]])


def cmd_cluster(cfg: RunConfig) -> int:
    schema = cfg.schema()
    seed = cfg.count("seed", 0)
    k = cfg.count("k", 1)
    restarts = cfg.count("restarts", 1, MAX_RESTARTS)
    sweep = cfg.get("k_sweep")
    sweep_ks = parse_span(sweep, "--k-sweep") if sweep else ()
    dataset = ingest.load_dataset(cfg.require_path("weather"),
                                  cfg.require_path("meter"),
                                  cfg.require_path("calendar"))

    # Every k is checked before any is fitted.
    clustering.check_cluster_count(len(dataset.records),
                                   max(k, sweep_ks[-1]) if sweep_ks else k)
    for sweep_k in sweep_ks:
        model = clustering.kmeans(dataset, sweep_k, schema, seed,
                                  restarts=restarts)
        print(f"k={sweep_k} objective={model.objective:.6f}")

    model = clustering.train_model(dataset, k, schema, seed, restarts=restarts)
    records = len(dataset.records)
    # The model holds no view of the dataset, whose table and meter grid
    # (196 MB at 1000 x 730) are freed before the model is written.
    del dataset
    out = cfg.out_dir()
    model_path = out / "model.json"
    with _writing(out) as staging:
        clustering.save_model(model, staging / "model.json")
        _write_composition_csv(model, staging / "composition.csv")
    print(f"trained k={k} on {records} records, "
          f"objective={model.objective:.6f}")
    print(f"wrote {model_path}")
    print(f"wrote {out / 'composition.csv'}")
    return 0


def cmd_assess(cfg: RunConfig) -> int:
    n_range = parse_span(cfg.get("n_range"), "--n-range")
    budget, years = cfg.number("budget", positive=False), cfg.number("years")
    spec = thermal.load_transformer_spec(cfg.require_path("spec"))
    model = clustering.load_model(cfg.require_path("model"))
    out = cfg.out_dir()

    # Both searches run before any write: a refused input leaves no tables.
    thresholds = riskassess.cluster_thresholds(spec, model)
    grid = riskassess.service_grid(spec, model, n_range)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        losses = riskassess.life_loss_by_n(spec, grid, years)
    if not (np.isfinite(losses.annual_days).all()
            and np.isfinite(losses.economic_loss).all()):
        raise ConfigError(f"--years {years!r} with the spec's replacement_cost "
                          f"{spec.replacement_cost!r} gives a yearly life "
                          "loss past the float range")
    with _writing(out) as staging:
        riskassess.write_thresholds_csv(thresholds,
                                        staging / "thresholds.csv")

        matrix = clustering.month_cluster_matrix(model)
        riskassess.write_month_matrix_csv(matrix, thresholds,
                                          staging / "month_matrix.csv")

        riskassess.write_temperature_grid_csv(
            grid, staging / "temperature_grid.csv")
        riskassess.write_life_loss_csv(grid, losses, years,
                                       staging / "life_loss.csv")
        by_temp = riskassess.max_services_by_temperature(spec, grid)
        by_life = riskassess.max_services_by_life(grid.n_values,
                                                  losses.economic_loss, budget)

        if cfg.get("svg"):
            riskassess.write_month_distribution_svg(
                matrix, thresholds, staging / "month_distribution.svg")

    min_peak = thresholds.max_peak_load_pu.min()
    print(f"minimum allowed daily peak loading: {min_peak:.2f} p.u.")
    print(f"max services by temperature limits: {by_temp}")
    print(f"max services by life-loss budget ${budget:g}/year: {by_life}")
    for name in ("thresholds.csv", "month_matrix.csv", "temperature_grid.csv",
                 "life_loss.csv"):
        print(f"wrote {out / name}")
    if cfg.get("svg"):
        print(f"wrote {out / 'month_distribution.svg'}")
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    """Score ``query.csv`` into ``estimates.csv`` in one pass a chunk at a
    time (:func:`txrisk.estimation.estimate_csv`), with the refusals of a
    run that read the whole file first: a query ParseError anywhere, then
    the per-cluster temperatures' refusals, then a query with none of the
    model's features, then, with ``--strict``, a far query."""
    services = cfg.count("services", 1, required=True)
    strict = bool(cfg.get("strict"))
    spec = thermal.load_transformer_spec(cfg.require_path("spec"))
    model = clustering.load_model(cfg.require_path("model"))
    query = cfg.require_path("query")
    try:
        temps = estimation.cluster_max_top_oil(model, spec, services)
    except TxRiskError:
        for _ in estimation.query_tables(query):  # a ParseError comes first
            pass
        raise
    out = cfg.out_dir()
    with _writing(out) as staging:
        days = estimation.estimate_csv(query, model, temps,
                                       staging / "estimates.csv",
                                       strict=strict)
    print(f"wrote {out / 'estimates.csv'} ({days} days)")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "cluster": cmd_cluster,
    "assess": cmd_assess,
    "estimate": cmd_estimate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args)
        return _COMMANDS[args.command](cfg)
    except TxRiskError as exc:
        print(f"txrisk: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
