"""Command-line entry point.

Subcommands cover the full pipeline: ``synth`` generates a seeded
synthetic dataset, ``cluster`` trains the mixed-type k-means model,
``assess`` writes the threshold/month/temperature/life-loss report tables,
and ``estimate`` scores query days against a trained model. Each option
is a row of :data:`OPTIONS`, read from its flag, else from the JSON config
file, else its default, by one rule whichever gives it.

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
from contextlib import contextmanager, suppress
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Callable, NamedTuple

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


class _Rule(NamedTuple):
    """``read(value, name, flag)`` reads an option's JSON value, or if
    ``flag`` its flag's text (a switch's True), or raises a ConfigError
    (exit 2) naming it ``name``; ``range`` states the values it takes."""

    read: Callable
    range: str = ""


def _of(kind, what, parse=None):
    """A rule's ``read``: a ``kind`` value, as ``parse`` (if given) reads it
    without a ValueError, or a refusal saying it must be ``what``."""
    def read(value, name, flag=False):
        with suppress(ValueError):
            if isinstance(value, kind):
                return parse(value) if parse else value
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    return read


def _span(text, name, flag=False) -> range:
    """An inclusive integer span like ``1..40``, of at most ``sys.maxsize``
    counts (the most a ``range`` can hold and measure)."""
    try:
        lo, hi = (int(part) for part in _PATH.read(text, name).split(".."))
    except ValueError:
        raise ConfigError(f"{name} must look like A..B, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise ConfigError(f"{name} {text!r} is empty or non-positive")
    if hi - lo >= sys.maxsize:
        raise ConfigError(f"{name} {text!r} spans more than {sys.maxsize} "
                          "counts")
    return range(lo, hi + 1)


def _number(lo, hi=math.inf, above=False, integer=False) -> _Rule:
    """A number (:func:`json_number`) in ``lo``..``hi`` (above ``lo`` if
    ``above``). An ``integer`` takes no float from a flag's text, and from
    the config file an integral one of at most 2**53 (above it a float
    cannot tell neighbouring integers apart)."""
    sign = ">" if above else ">="

    def read(value, name, flag=False):
        if flag:  # text: as int reads it, else as float does, else as text
            spelled = value
            with suppress(ValueError):
                value = float(spelled)
                value = int(spelled)
        try:
            number = json_number(value, name)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        if not integer:
            value = number
        elif not isinstance(value, int):
            if flag or not (number.is_integer() and abs(number) <= 2 ** 53):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            value = int(number)
        if value < lo or above and value == lo:
            raise ConfigError(f"{name} must be {sign} {lo:g}, got {value!r}")
        if value > hi:
            raise ConfigError(f"{name} must be <= {hi:g}, got {value!r}")
        return value
    return _Rule(read, f"{sign} {lo:g}" if hi == math.inf else f"{lo:g}..{hi:g}")


def _holidays(value, name, flag=False):
    try:
        days = tuple((_DAY.read(month, name), _DAY.read(day, name))
                     for month, day in value)
        for day in days:
            dt.date(2000, *day)  # a leap year: 29 February is a day
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a list of [month, day] pairs of "
                          f"calendar days, got {value!r}") from None
    return days


def _schema(value, name, flag=False):
    try:
        return ft.FeatureSchema.from_jsonable(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad feature schema in config: {exc}") from None


class Option(NamedTuple):
    """An option: its config ``key`` (``synth.<knob>`` in the ``synth``
    object), the ``commands`` that read it, its ``default`` (or REQUIRED),
    ``rule``, and the ``help`` of its flag ``--key`` (``-`` for ``_``)."""

    key: str
    commands: str
    default: object
    rule: _Rule
    help: str | None = None

    @property
    def flag(self):
        return self.help and "--" + self.key.replace("_", "-")


def _knob(name, lo, hi=math.inf) -> Option:
    """A synth knob, of its :class:`ingest.SynthConfig` default's kind."""
    default = getattr(ingest.SynthConfig, name)
    return Option(f"synth.{name}", "synth", default,
                  _number(lo, hi, integer=isinstance(default, int)))


REQUIRED = "required"
_PATH, _SWITCH = _Rule(_of(str, "a string")), _Rule(_of(bool, "true or false"))
_SPAN = _Rule(_span, "A..B, 1 <= A <= B")
_DATE = _Rule(_of(str, "a date spelled YYYY-MM-DD", ingest.iso_date),
              "YYYY-MM-DD")
_COUNT, _DAY = _number(1, integer=True), _number(1, 31, integer=True)
_TEMP = (ingest.TEMP_MIN_C, ingest.TEMP_MAX_C)
_SPREAD = (0, ingest.TEMP_MAX_C - ingest.TEMP_MIN_C)
_ALL = "synth cluster assess estimate"

# Every option, a row each in its commands' flag order: the parser, the
# config file's keys and every rule of a value come from here alone.
OPTIONS = (
    Option("config", _ALL, None, _PATH, "JSON config file; flags override it"),
    Option("out", _ALL, ".", _PATH, "output directory"),
    Option("seed", "synth cluster", 42, _number(0, integer=True), "random seed"),
    Option("services", "synth", 20, _COUNT, "number of services, services x "
           f"days x 24 at most {MAX_SYNTH_READINGS:,}"),
    Option("days", "synth", 730, _COUNT, "number of days"),
    Option("start_date", "synth", "2014-01-01", _DATE, "first date"),
    Option("weather", "cluster", None, _PATH, "weather.csv path"),
    Option("meter", "cluster", None, _PATH, "meter.csv path"),
    Option("calendar", "cluster", None, _PATH, "calendar.csv path"),
    Option("k", "cluster", 10, _COUNT, "number of clusters"),
    Option("restarts", "cluster", 1, _number(1, MAX_RESTARTS, integer=True),
           "seeded restarts, best objective wins"),
    Option("k_sweep", "cluster", None, _SPAN, "also report the objective for "
           "each k in the range before training at --k"),
    Option("features", "cluster", None, _Rule(_schema, "feature list")),
    Option("spec", "assess estimate", None, _PATH, "transformer spec JSON path"),
    Option("model", "assess estimate", None, _PATH, "trained model JSON path"),
    Option("n_range", "assess", "1..40", _SPAN, "service counts to study"),
    Option("budget", "assess", 500.0, _number(0), "yearly economic-loss budget"),
    Option("years", "assess", 3.0, _number(0, above=True), "data span in years"),
    Option("svg", "assess", False, _SWITCH, "also write month_distribution.svg"),
    Option("query", "estimate", None, _PATH, "query CSV path"),
    Option("services", "estimate", REQUIRED, _COUNT, "number of services"),
    Option("strict", "estimate", False, _SWITCH, "refuse far queries (exit 9)"),
    _knob("temp_mean_c", *_TEMP), _knob("temp_seasonal_amp_c", *_SPREAD),
    _knob("temp_diurnal_amp_c", *_SPREAD), _knob("temp_noise_sd_c", *_SPREAD),
    _knob("coldest_day_of_year", 1, 366), _knob("base_load_kw", 0),
    _knob("diurnal_load_amp", 0), _knob("weekend_uplift", -1),
    _knob("heating_coeff_kw_per_c", 0), _knob("heating_ref_c", *_TEMP),
    _knob("cooling_coeff_kw_per_c", 0), _knob("cooling_ref_c", *_TEMP),
    _knob("load_noise_sd_kw", 0), _knob("service_spread", 0),
    Option("synth.holidays", "synth", ingest.SynthConfig.holidays,
           _Rule(_holidays, "[month, day] pairs of calendar days")),
)
# The keys a config file may hold; the knobs sit in its "synth" object.
CONFIG_KEYS = {opt.key.partition(".")[0] for opt in OPTIONS} - {"config"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="txrisk",
        description="Statistical overloading-risk assessment for residential "
                    "oil-immersed transformer fleets.",
        epilog=_EXIT_CODE_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=text)
                for name, (_, text) in _COMMANDS.items()}
    for opt in filter(lambda opt: opt.flag, OPTIONS):
        text = opt.help + (f" ({opt.rule.range})" if opt.rule.range else "")
        if opt.default not in (None, False):
            text += (", required" if opt.default is REQUIRED
                     else f", default {opt.default}")
        kind = ({"action": "store_true", "default": None}
                if opt.rule is _SWITCH else
                {"metavar": "A..B"} if opt.rule is _SPAN else {})
        for command in opt.commands.split():
            commands[command].add_argument(opt.flag, help=text, **kind)
    return parser


def _config_values(path) -> dict:
    """The config file's values by :data:`OPTIONS` key, each knob of its
    ``synth`` object as ``synth.<knob>``; a top-level null is no value."""
    doc = read_json(path, ConfigError, "config")
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    if unknown := set(doc) - CONFIG_KEYS:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    knobs = doc.pop("synth", None) or {}
    if not isinstance(knobs, dict):
        raise ConfigError(f"config key 'synth' must be an object, got {knobs!r}")
    values = {key: value for key, value in doc.items() if value is not None}
    values.update((f"synth.{knob}", value) for knob, value in knobs.items())
    if unknown := set(values) - {opt.key for opt in OPTIONS}:
        raise ConfigError("unknown synth config keys: "
                          f"{sorted(key[6:] for key in unknown)}")
    return values


class RunConfig:
    """A command's options from flag, else config file, else default, each
    read by its rule; the config file is read whole, before any input."""

    def __init__(self, args: argparse.Namespace):
        given = _config_values(args.config) if args.config else {}
        flags, self._values = vars(args), {}
        for opt in OPTIONS:
            name = opt.flag or f"config key {opt.key!r}"
            value = given[opt.key] if opt.key in given else opt.default
            if opt.key in given or value not in (None, REQUIRED):
                value = opt.rule.read(value, name)
            if args.command not in opt.commands.split():
                continue
            if flags.get(opt.key) is not None:
                value = opt.rule.read(flags[opt.key], name, flag=True)
            elif value is REQUIRED:
                raise ConfigError(f"missing required option: {name}")
            self._values[opt.key] = value

    def __getitem__(self, key):
        return self._values[key]

    def require_path(self, key) -> Path:
        if not self[key]:
            raise ConfigError(f"missing required path: --{key}")
        if not (path := Path(self[key])).exists():
            raise ConfigError(f"path does not exist: {path}")
        return path

    def out_dir(self) -> Path:
        out = Path(self["out"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        return out

    def synth_config(self) -> ingest.SynthConfig:
        return ingest.SynthConfig(**{
            f.name: self[f"synth.{f.name}"]
            for f in dataclass_fields(ingest.SynthConfig)})


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


def cmd_synth(cfg: RunConfig) -> int:
    start, services, days = cfg["start_date"], cfg["services"], cfg["days"]
    if days > (dt.date.max - start).days + 1:
        raise ConfigError(f"{days} days from --start-date {start} run past "
                          f"{dt.date.max}")
    if services * days * 24 > MAX_SYNTH_READINGS:
        raise ConfigError(f"--services {services} x --days {days} x 24 is "
                          f"{services * days * 24:,} hourly meter readings, "
                          f"above the {MAX_SYNTH_READINGS:,} synth writes")
    out = cfg.out_dir()
    with _writing(out) as staging:
        paths = ingest.synth_dataset(cfg["seed"], services, start, days,
                                     cfg.synth_config(), staging)
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
    schema = cfg["features"] or ft.default_schema()
    seed, k, restarts = cfg["seed"], cfg["k"], cfg["restarts"]
    sweep_ks = cfg["k_sweep"] or ()
    dataset = ingest.load_dataset(*map(cfg.require_path,
                                       ("weather", "meter", "calendar")))

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
    with _writing(out) as staging:
        clustering.save_model(model, staging / "model.json")
        _write_composition_csv(model, staging / "composition.csv")
    print(f"trained k={k} on {records} records, "
          f"objective={model.objective:.6f}")
    for name in ("model.json", "composition.csv"):
        print(f"wrote {out / name}")
    return 0


def cmd_assess(cfg: RunConfig) -> int:
    n_range, budget, years = cfg["n_range"], cfg["budget"], cfg["years"]
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

        if cfg["svg"]:
            riskassess.write_month_distribution_svg(
                matrix, thresholds, staging / "month_distribution.svg")

    min_peak = thresholds.max_peak_load_pu.min()
    print(f"minimum allowed daily peak loading: {min_peak:.2f} p.u.")
    print(f"max services by temperature limits: {by_temp}")
    print(f"max services by life-loss budget ${budget:g}/year: {by_life}")
    for name in ("thresholds.csv", "month_matrix.csv", "temperature_grid.csv",
                 "life_loss.csv"):
        print(f"wrote {out / name}")
    if cfg["svg"]:
        print(f"wrote {out / 'month_distribution.svg'}")
    return 0


def cmd_estimate(cfg: RunConfig) -> int:
    """Score ``query.csv`` into ``estimates.csv`` in one pass a chunk at a
    time (:func:`txrisk.estimation.estimate_csv`), with the refusals of a
    run that read the whole file first: a query ParseError anywhere, then
    the per-cluster temperatures' refusals, then a query with none of the
    model's features, then, with ``--strict``, a far query."""
    spec = thermal.load_transformer_spec(cfg.require_path("spec"))
    model = clustering.load_model(cfg.require_path("model"))
    query = cfg.require_path("query")
    try:
        temps = estimation.cluster_max_top_oil(model, spec, cfg["services"])
    except TxRiskError:
        for _ in estimation.query_tables(query):  # a ParseError comes first
            pass
        raise
    out = cfg.out_dir()
    with _writing(out) as staging:
        days = estimation.estimate_csv(query, model, temps,
                                       staging / "estimates.csv",
                                       strict=cfg["strict"])
    print(f"wrote {out / 'estimates.csv'} ({days} days)")
    return 0


_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic dataset"),
    "cluster": (cmd_cluster, "train the cluster model"),
    "assess": (cmd_assess, "write the risk report tables"),
    "estimate": (cmd_estimate, "estimate temperatures for query days"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig(args)
        return _COMMANDS[args.command][0](cfg)
    except TxRiskError as exc:
        print(f"txrisk: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
