"""Seeded mutation test of the command line: damaged input files end in a
documented exit code, never in a traceback.

Small valid inputs (a synthetic dataset, a spec, a trained model, a query
file and a config file) are damaged one at a time: cut short, a column
dropped or two swapped, a cell replaced by ``nan``/``inf``/``-1``/blank and
the like, a row duplicated, stray (also non-UTF-8) bytes inserted, a JSON
value replaced or a key deleted. The model file is also damaged in place,
in its member lists, keeping the layout that ``load_model`` reads as bytes:
a member field respelled, a line repeated or dropped, a member repeated, a
``member_count`` moved or a stray byte inserted. Each damaged copy is fed
to the subcommand that reads it. The mutations come from numpy's seeded
generator, so every run tries the same cases.
"""

import json
import re
import shutil
import warnings

import numpy as np
import pytest

from txrisk import cli

from conftest import QUERY_CSV, write_spec_file

SEED = 20261018
CASES_PER_TARGET = 60
DOCUMENTED_CODES = {int(code) for code in
                    re.findall(r"^\s+(\d+)\s", cli._EXIT_CODE_DOC, re.M)}
CELLS = ["nan", "inf", "-inf", "-1", "", " ", "x", "1e400", "0", "-0",
         "2015-02-30", "25", "Y", "N", '"', "1,2"]
STRAY = [b"\xff", b"\xfe\xff", b"\xc3", b"\x00", b"\r", b"\n", b",", b'"',
         b"\xe2\x82", b";", b"\t", b"{", b"]"]
JSON_VALUES = [float("nan"), float("inf"), -1, 0, "", "x", None, True, [], {},
               [1, 2], 1e308, -1e308, 10 ** 400]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid inputs for every subcommand, built once."""
    root = tmp_path_factory.mktemp("mutation_base")
    data = root / "data"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["synth", "--seed", "4", "--services", "2",
                         "--days", "12", "--out", str(data)]) == 0
        assert cli.main(["cluster", "--weather", str(data / "weather.csv"),
                         "--meter", str(data / "meter.csv"),
                         "--calendar", str(data / "calendar.csv"),
                         "--k", "2", "--seed", "1", "--out", str(root)]) == 0
    write_spec_file(root / "spec.json")
    (root / "query.csv").write_text(QUERY_CSV, encoding="utf-8")
    (root / "config.json").write_text(json.dumps({
        "seed": 3, "services": 2, "days": 5, "k": 2, "restarts": 1,
        "n_range": "1..3", "budget": 500.0, "years": 1.0,
        "start_date": "2015-01-01",
        "synth": {"base_load_kw": 0.9, "temp_mean_c": 4.0,
                  "coldest_day_of_year": 15, "holidays": [[1, 1], [12, 25]]},
    }), encoding="utf-8")
    return root


def _argv(target, inputs, out):
    """The subcommand that reads ``target``, on the files in ``inputs``."""
    data = {name: str(inputs[name]) for name in inputs}
    cluster = ["cluster", "--weather", data["weather.csv"],
               "--meter", data["meter.csv"], "--calendar", data["calendar.csv"],
               "--k", "2", "--seed", "1", "--out", str(out)]
    if target in ("weather.csv", "meter.csv", "calendar.csv"):
        return [cluster]
    assess = ["assess", "--spec", data["spec.json"], "--model", data["model.json"],
              "--n-range", "1..3", "--out", str(out)]
    estimate = ["estimate", "--spec", data["spec.json"],
                "--model", data["model.json"], "--query", data["query.csv"],
                "--services", "5", "--out", str(out)]
    if target in ("spec.json", "model.json", IN_PLACE):
        return [assess, estimate]
    if target == "query.csv":
        return [estimate]
    config = ["--config", data["config.json"]]
    return [["synth", "--out", str(out / "synth")] + config,
            cluster + config, assess + config]


def _csv_mutation(rng, text):
    """One random damage to CSV text; returns (description, new bytes)."""
    lines = text.splitlines()
    kind = int(rng.integers(7))
    row = int(rng.integers(len(lines)))
    fields = lines[row].split(",")
    col = int(rng.integers(len(fields)))
    if kind == 0:
        cut = int(rng.integers(len(text)))
        return f"cut at byte {cut}", text[:cut].encode()
    if kind == 1:
        rows = [",".join(f for j, f in enumerate(ln.split(",")) if j != col)
                for ln in lines]
        return f"column {col} dropped", "\n".join(rows).encode() + b"\n"
    if kind == 2:
        other = int(rng.integers(len(fields)))
        swapped = []
        for ln in lines:
            f = ln.split(",")
            if max(col, other) < len(f):
                f[col], f[other] = f[other], f[col]
            swapped.append(",".join(f))
        return f"columns {col} and {other} swapped", \
            "\n".join(swapped).encode() + b"\n"
    if kind == 3:
        cell = CELLS[int(rng.integers(len(CELLS)))]
        fields[col] = cell
        lines[row] = ",".join(fields)
        return f"row {row + 1} column {col} = {cell!r}", \
            "\n".join(lines).encode() + b"\n"
    if kind == 4:
        lines.insert(row, lines[row])
        return f"row {row + 1} duplicated", "\n".join(lines).encode() + b"\n"
    if kind == 5:
        lines.insert(row, "")
        return f"blank line before row {row + 1}", \
            "\n".join(lines).encode() + b"\n"
    raw = text.encode()
    at = int(rng.integers(len(raw) + 1))
    stray = STRAY[int(rng.integers(len(STRAY)))]
    return f"{stray!r} inserted at byte {at}", raw[:at] + stray + raw[at:]


def _leaves(node, path=()):
    """Paths to every value inside a parsed JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _leaves(value, path + (key,))


def _json_mutation(rng, text):
    """One random damage to JSON text; returns (description, new bytes)."""
    kind = int(rng.integers(4))
    if kind == 0:
        cut = int(rng.integers(len(text)))
        return f"cut at byte {cut}", text[:cut].encode()
    if kind == 1:
        raw = text.encode()
        at = int(rng.integers(len(raw) + 1))
        stray = STRAY[int(rng.integers(len(STRAY)))]
        return f"{stray!r} inserted at byte {at}", raw[:at] + stray + raw[at:]
    doc = json.loads(text)
    paths = list(_leaves(doc))
    path = paths[int(rng.integers(len(paths)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == 2:
        value = JSON_VALUES[int(rng.integers(len(JSON_VALUES)))]
        parent[path[-1]] = value
        return f"{list(path)} = {value!r}", json.dumps(doc).encode()
    del parent[path[-1]]
    return f"{list(path)} deleted", json.dumps(doc).encode()


# Member fields written in place of one: blank, escaped, non-ASCII,
# misspelled or impossible dates, and valid ones (a member listed twice).
MEMBER_FIELDS = ["", " ", "    ", 'S\\"1', "S\\u00e9", "S\u00e91", "S\t01",
                 "2015-02-30", "2015-13-01", "2015-1-01", "0000-01-01",
                 "2015-01-01", "S001", "x"]


def _member_mutation(rng, text):
    """One random damage to model.json text in place: a member field
    respelled, a line at a member's indent repeated or dropped, a member
    repeated, a member_count moved or a stray byte inserted among the
    clusters; returns (description, new bytes)."""
    def pick(pattern):
        spans = [m.span() for m in re.finditer(pattern, text)]
        return spans[int(rng.integers(len(spans)))]

    kind = int(rng.integers(5))
    if kind == 0:
        start, end = pick(r'(?<=\n          ")[^"]*')
        value = MEMBER_FIELDS[int(rng.integers(len(MEMBER_FIELDS)))]
        return (f"field {text[start:end]!r} at byte {start} = {value!r}",
                (text[:start] + value + text[end:]).encode())
    if kind == 1:
        start, end = pick(r'\n {8,10}[^\n]*')
        if rng.integers(2):
            return (f"line at byte {start} repeated",
                    (text[:end] + text[start:end] + text[end:]).encode())
        return f"line at byte {start} dropped", (text[:start] + text[end:]).encode()
    if kind == 2:
        start, end = pick(r' {8}\[\n {10}"[^"]*",\n {10}"[^"]*"\n {8}\],\n')
        return (f"member at byte {start} repeated",
                (text[:end] + text[start:end] + text[end:]).encode())
    if kind == 3:
        start, end = pick(r'(?<="member_count": )\d+')
        count = int(text[start:end]) + int(rng.choice([-1, 1]))
        return (f"member_count at byte {start} = {count}",
                (text[:start] + str(count) + text[end:]).encode())
    raw = text.encode()
    at = int(rng.integers(raw.index(b'"members": ['), raw.rindex(b'"profile"')))
    stray = STRAY[int(rng.integers(len(STRAY)))]
    return f"{stray!r} inserted at byte {at}", raw[:at] + stray + raw[at:]


IN_PLACE = "model.json in place"
TARGETS = ("weather.csv", "meter.csv", "calendar.csv", "query.csv",
           "spec.json", "model.json", "config.json", IN_PLACE)


@pytest.mark.parametrize("target", TARGETS)
def test_damaged_input_ends_in_documented_exit_code(base, tmp_path, target):
    names = ("weather.csv", "meter.csv", "calendar.csv")
    originals = {name: base / "data" / name for name in names}
    originals.update({name: base / name for name in TARGETS
                      if name not in names and name != IN_PLACE})
    source = "model.json" if target == IN_PLACE else target
    text = originals[source].read_text(encoding="utf-8")
    rng = np.random.default_rng([SEED, TARGETS.index(target)])
    mutate = (_member_mutation if target == IN_PLACE else _json_mutation
              if target.endswith(".json") else _csv_mutation)

    failures = []
    for case in range(CASES_PER_TARGET):
        what, damaged = mutate(rng, text)
        path = tmp_path / f"{case}_{source}"
        path.write_bytes(damaged)
        inputs = dict(originals, **{source: path})
        out = tmp_path / f"out{case}"
        for argv in _argv(target, inputs, out):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = cli.main(argv)
            except Exception as exc:  # the failure this test looks for
                failures.append(f"{argv[0]} with {what}: "
                                    f"{type(exc).__name__}: {str(exc)[:120]}")
                continue
            if code not in DOCUMENTED_CODES or code == 1:
                failures.append(f"{argv[0]} with {what}: exit {code}")
        shutil.rmtree(out, ignore_errors=True)
    assert not failures, "\n".join(failures)
