"""Every table writer against a ``csv.writer`` reference: the same bytes on
the golden fixture and on edge tables, and the quoting rule that lets
:func:`txrisk.ingest.write_table` write its text unquoted."""

import csv
import datetime as dt
import io
import json

import numpy as np
import pytest

from txrisk import (cli, clustering, estimation, ingest, riskassess, tables,
                    thermal)
from txrisk import features as ft
from txrisk.clustering import ClusterModel

from conftest import member_fields
from test_estimation import csv_writer_estimates


def csv_text(rows):
    """The text ``csv.writer`` writes for ``rows``, one row at a time."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# csv.writer references: each moved writer's rows as it built them before.


def reference_synth(dates, temps, loads, holidays):
    weather = [ingest.WEATHER_HEADER]
    for di, date in enumerate(dates):
        for h in range(24):
            weather.append([date.isoformat(), h, f"{temps[di, h]:.2f}"])
    meter = [ingest.METER_HOURLY_HEADER]
    for si in range(len(loads)):
        for di, date in enumerate(dates):
            for h in range(24):
                meter.append([f"S{si + 1:03d}", date.isoformat(), h,
                              f"{loads[si, di, h]:.3f}"])
    calendar = [ingest.CALENDAR_HEADER]
    for date in dates:
        calendar.append([date.isoformat(),
                         "Y" if date.weekday() < 5 else "N",
                         "Y" if (date.month, date.day) in holidays else "N"])
    return {"weather": csv_text(weather), "meter": csv_text(meter),
            "calendar": csv_text(calendar)}


def reference_composition(model):
    schema = model.schema
    rows = [["cluster_id", "member_count", *schema.numeric_names,
             *schema.ordinal_names, *schema.nominal_names]]
    for row in clustering.composition(model):
        rows.append([row["cluster_id"], row["member_count"],
                     *(f"{row[name]:.2f}" for name in schema.numeric_names),
                     *(f"{row[name]:.4f}" for name in schema.ordinal_names),
                     *(row[name] for name in schema.nominal_names)])
    return csv_text(rows)


def reference_thresholds(thresholds):
    return csv_text([["cluster_id", "max_avg_load_pu", "max_peak_load_pu",
                      "binding_limit", "impact_rank"]]
                    + [[c + 1, f"{thresholds.max_avg_load_pu[c]:.2f}",
                        f"{thresholds.max_peak_load_pu[c]:.2f}",
                        thresholds.binding_limit[c], thresholds.impact_rank[c]]
                       for c in range(len(thresholds.impact_rank))])


def reference_month_matrix(matrix, thresholds):
    rank = thresholds.impact_rank.tolist()
    order = sorted(range(1, len(rank) + 1), key=lambda cid: rank[cid - 1])
    by_rank = matrix[:, [cid - 1 for cid in order]].tolist()
    return csv_text([["month"] + [f"imp_{i + 1}" for i in range(len(order))],
                     ["cluster_id"] + order,
                     *([label] + row for label, row
                       in zip(riskassess.MONTH_LABELS, by_rank)),
                     ["Sum"] + [sum(col) for col in zip(*by_rank)]])


def reference_temperature_grid(grid):
    return csv_text([["cluster_id"] + [f"N={n}" for n in grid.n_values],
                     *([cid] + [round(v) for v in row] for cid, row
                       in enumerate(grid.max_top_oil.tolist(), start=1)),
                     ["Max"] + [round(v) for v
                                in grid.max_top_oil.max(axis=0).tolist()]])


def reference_life_loss(grid, losses, years):
    rows = [["cluster_id"] + [f"N={n}" for n in grid.n_values] + ["num_days"]]
    for cid, (row, count) in enumerate(zip(grid.daily_loss.tolist(),
                                           grid.member_counts.tolist()), 1):
        rows.append([cid] + [f"{v:.1f}" for v in row] + [count])
    for label, values in ((f"{years:g}-Year Total Loss of Life (Days)",
                           losses.total_days),
                          ("Average annual Loss of Life (Days)",
                           losses.annual_days),
                          ("Economic Loss ($/year)", losses.economic_loss)):
        rows.append([label] + [f"{v:.1f}" for v in values.tolist()] + ["-"])
    return csv_text(rows)


def assert_risk_tables(tmp_path, thresholds, matrix, grid, losses, years):
    """The four risk tables written by riskassess equal the references."""
    cases = {
        "thresholds.csv": (riskassess.write_thresholds_csv, (thresholds,),
                           reference_thresholds(thresholds)),
        "month_matrix.csv": (riskassess.write_month_matrix_csv,
                             (matrix, thresholds),
                             reference_month_matrix(matrix, thresholds)),
        "temperature_grid.csv": (riskassess.write_temperature_grid_csv,
                                 (grid,), reference_temperature_grid(grid)),
        "life_loss.csv": (riskassess.write_life_loss_csv,
                          (grid, losses, years),
                          reference_life_loss(grid, losses, years)),
    }
    for name, (write, args, expected) in cases.items():
        write(*args, tmp_path / name)
        assert (tmp_path / name).read_bytes() == expected.encode(), name


# ---------------------------------------------------------------------------
# The golden fixture


def test_synth_files_equal_the_reference(golden_pipeline, tmp_path,
                                         monkeypatch):
    # The golden run's synth arguments (conftest.run_pipeline); the arrays
    # are taken where synth_dataset hands them to its writer.
    seen = []

    def spy(out_dir, dates, temps, loads, holidays):
        seen.append((dates, temps, loads, holidays))
        return write(out_dir, dates, temps, loads, holidays)

    write = ingest._write_synth
    monkeypatch.setattr(ingest, "_write_synth", spy)
    paths = ingest.synth_dataset(42, 20, dt.date(2014, 1, 1), 730,
                                 out_dir=tmp_path)
    expected = reference_synth(*seen[0])
    golden = golden_pipeline[0][0] / "data"
    for name, path in paths.items():
        assert path.read_bytes() == expected[name].encode(), name
        assert (golden / path.name).read_bytes() == path.read_bytes(), name


def test_composition_and_risk_tables_equal_the_reference(golden_pipeline,
                                                         tmp_path):
    root = golden_pipeline[0][0]
    spec = thermal.load_transformer_spec(root / "spec.json")
    model = clustering.load_model(root / "out" / "model.json")
    cli._write_composition_csv(model, tmp_path / "composition.csv")
    assert (tmp_path / "composition.csv").read_bytes() == \
        reference_composition(model).encode()
    assert (root / "out" / "composition.csv").read_bytes() == \
        (tmp_path / "composition.csv").read_bytes()

    thresholds = riskassess.cluster_thresholds(spec, model)
    grid = riskassess.service_grid(spec, model, range(1, 41))
    losses = riskassess.life_loss_by_n(spec, grid, 2.0)
    matrix = clustering.month_cluster_matrix(model)
    assert_risk_tables(tmp_path, thresholds, matrix, grid, losses, 2.0)
    for name in ("thresholds.csv", "month_matrix.csv", "temperature_grid.csv",
                 "life_loss.csv"):
        assert (root / "out" / name).read_bytes() == \
            (tmp_path / name).read_bytes(), name


def test_estimates_equal_the_reference(golden_pipeline, tmp_path):
    root = golden_pipeline[0][0]
    spec = thermal.load_transformer_spec(root / "spec.json")
    model = clustering.load_model(root / "out" / "model.json")
    queries = estimation.read_query_csv(root / "query.csv")
    result = estimation.estimate(
        queries, model, estimation.cluster_max_top_oil(model, spec, 18))
    estimation.write_estimates_csv(queries, result, tmp_path / "estimates.csv")
    assert (tmp_path / "estimates.csv").read_bytes() == \
        csv_writer_estimates(queries, result).encode() == \
        (root / "out" / "estimates.csv").read_bytes()


# ---------------------------------------------------------------------------
# Edge tables: signed zeros, halves and ties, one cluster


# Values whose formatting is easy to get wrong: signed zeros, exact binary
# halves at each written precision (rounded half to even), the nearest
# doubles to decimal ties, and large magnitudes.
EDGE_VALUES = [-0.0, 0.0, 0.5, 1.5, 2.5, -0.5, -1.5, 0.125, 0.0625, 0.005,
               0.0005, 0.015, 1.0005, 2.675, -0.004, -0.0004, 59.995, 1e6,
               123456.78949999999]


def edge_rows(shape, seed):
    """An array of ``shape`` holding the edge values, then seeded values
    rounded to 1..4 decimals."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    values = np.array([round(v, d) for v, d in zip(
        rng.normal(0.0, 20.0, size).tolist(), rng.integers(1, 5, size).tolist())])
    values[:len(EDGE_VALUES)] = EDGE_VALUES
    return values.reshape(shape)


def test_synth_writer_on_edge_values(tmp_path):
    dates = [dt.date(9999, 12, 29) + dt.timedelta(days=i) for i in range(3)]
    temps = edge_rows((3, 24), 1)
    loads = np.abs(edge_rows((2, 3, 24), 2))
    loads[1, 0, :3] = [-0.0, 0.0005, 0.0015]
    holidays = ((12, 30),)
    paths = ingest._write_synth(tmp_path, dates, temps, loads, holidays)
    expected = reference_synth(dates, temps, loads, holidays)
    for name, path in paths.items():
        assert path.read_bytes() == expected[name].encode(), name
    assert "S002,9999-12-29,0,-0.000\n" in expected["meter"]


def one_cluster_model(schema, quant, nom):
    return ClusterModel(
        **member_fields([("s", "2015-02-01")]), centroids=(quant, nom),
        member_counts=np.array([1]), schema=schema,
        norm_params=ft.NormalizationParams(bounds={"x": (-1.0, 1.0)}),
        seed=0, objective=0.0)


def test_composition_of_a_one_cluster_model(tmp_path):
    # Names and labels with a space, a semicolon, a tab and non-ASCII text,
    # and numbers at the ties of two and four decimals.
    schema = ft.FeatureSchema(features=(
        ft.FeatureDef("x", ft.KIND_NUMERIC),
        ft.FeatureDef("température ≥", ft.KIND_NOMINAL, statuses=("été", "Y")),
        ft.FeatureDef("grade", ft.KIND_ORDINAL, statuses=("lo", "hi")),
        ft.FeatureDef("kind", ft.KIND_NOMINAL,
                      statuses=("p", "zone 1; é\tü")),
    ))
    for x, grade, code in ((0.5, 0.00005, 1), (0.5025, -0.0, 0),
                           (0.0, 0.123456, 1)):
        model = one_cluster_model(schema, np.array([[x, grade]]),
                                  np.array([[1 - code, code]]))
        cli._write_composition_csv(model, tmp_path / "composition.csv")
        assert (tmp_path / "composition.csv").read_bytes() == \
            reference_composition(model).encode()


def test_risk_tables_of_a_one_cluster_grid(tmp_path):
    n_values = tuple(range(1, 25))
    top = edge_rows((1, 24), 3)
    top[0, :6] = [0.5, 1.5, 2.5, -0.5, -0.4, -2.5]
    grid = riskassess.ServiceGrid(
        n_values=n_values, member_counts=np.array([365]), max_top_oil=top,
        max_hotspot=top + 10.0, daily_loss=np.abs(edge_rows((1, 24), 4)))
    losses = riskassess.LifeLoss(*edge_rows((3, 24), 5))
    thresholds = riskassess.Thresholds(np.array([0.005]), np.array([-0.0]),
                                       np.array(["top_oil"]), np.array([1]))
    matrix = np.arange(12).reshape(12, 1)
    assert_risk_tables(tmp_path, thresholds, matrix, grid, losses, 2.5)


# ---------------------------------------------------------------------------
# The quoting rule


def test_csv_writer_quotes_only_the_refused_characters():
    # write_table writes fields unquoted; that is csv.writer's text unless
    # a field holds a character that the schema refuses in a name or label.
    # (Python 3.11's csv.writer leaves a lone carriage return unquoted;
    # later versions quote it. Either way it is refused.)
    for char in [chr(c) for c in range(1, 128)] + ["é", "\x85", "\u2028"]:
        field = f"a{char}b"
        plain = f"{field},y\n"
        if char in ',"\n':
            assert csv_text([[field, "y"]]) != plain, repr(char)
        elif char != "\r":
            assert csv_text([[field, "y"]]) == plain, repr(char)
        for make in (lambda: ft.FeatureDef(field, ft.KIND_NUMERIC),
                     lambda: ft.FeatureDef("kind", ft.KIND_NOMINAL,
                                           statuses=("p", field))):
            if char in ',"\r\n':
                with pytest.raises(ValueError, match="may not hold a comma"):
                    make()
            else:
                make()


@pytest.mark.parametrize("label", ["a,b", 'say "hi"', "two\nlines", "cr\r"])
def test_schema_label_needing_quotes_is_a_usage_error(tmp_path, capsys,
                                                      label):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"features": [
        {"name": "t_avg_c", "kind": "numeric"},
        {"name": "weekday", "kind": "nominal", "statuses": ["Y", "N", label]},
    ]}))
    files = {}
    for name in ("weather", "meter", "calendar"):
        files[name] = tmp_path / f"{name}.csv"
        files[name].write_text("not,a,valid\nfile\n")
    assert cli.main(["cluster", "--config", str(cfg), "--out",
                     str(tmp_path / "out"),
                     *(f"--{name}={path}" for name, path in files.items())]) == 2
    assert "may not hold a comma" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# The array formatter of write_table against %-format


def table_bytes(tmp_path, header, parts):
    """The bytes that ``ingest.write_table`` writes."""
    path = tmp_path / "table.csv"
    ingest.write_table(path, header, parts)
    return path.read_bytes()


def percent_table(header, rows):
    """A table's bytes with each row formatted by a %-format template."""
    return "".join([",".join(header) + "\n", *rows]).encode()


def hard_doubles(places):
    """Doubles whose ``%.{places}f`` text is easy to get wrong."""
    rng = np.random.default_rng(places)
    edge = 2.0 ** (52 - places)  # the first value formatted by %
    unit = 10.0 ** -places
    return np.concatenate([
        rng.normal(0.0, 100.0, 2000), rng.normal(0.0, 10 * unit, 500),
        # Exact binary ties at ``places`` decimals, and the nearest doubles
        # to decimal ties k.5 * 10 ** -places.
        np.arange(-64, 64) / 2.0 ** (places + 1),
        (np.arange(-64, 64) + 0.5) * unit,
        # Signed zeros, and values that round to -0.
        [0.0, -0.0, -0.4 * unit, -0.5 * unit, 0.5 * unit, -1e-300],
        # Subnormals, the smallest normal, and extremes of the exponent.
        [5e-324, -5e-324, 2.0 ** -1070 * 3, 2.0 ** -1022, 1e-300],
        # Both sides of 2 ** (52 - places), and what % alone formats.
        [edge, -edge, np.nextafter(edge, 0.0), -np.nextafter(edge, 0.0),
         np.nextafter(edge, np.inf), 1e300, -1e300, np.inf, -np.inf,
         np.nan, -np.nan, 1.7976931348623157e308]])


@pytest.mark.parametrize("places", range(5))
def test_number_columns_equal_percent_format(tmp_path, places):
    # One value per row in a 1-D column, and the same values again as a
    # two-column block.
    values = hard_doubles(places)
    if len(values) % 2:
        values = values[:-1]
    pairs = values.reshape(-1, 2)
    rows = [f"%.{places}f,%.{places}f,%.{places}f\n" % (single, *pair)
            for single, pair in zip(values[::2].tolist(), pairs.tolist())]
    assert table_bytes(tmp_path, ["x", "a", "b"],
                       [[(values[::2], places), (pairs, places)]]) == \
        percent_table(["x", "a", "b"], rows)


@pytest.mark.parametrize("places", range(5))
def test_tables_dense_with_percent_cells(tmp_path, places):
    # Cells that % formats (nan, +-inf and values of at least
    # 2 ** (52 - places)) in most rows of a number block over two chunks,
    # next to ordinary values and an integer column dense with -2 ** 63.
    n = tables._WRITE_ROWS + 5
    rng = np.random.default_rng(places)
    edge = 2.0 ** (52 - places)
    kind = rng.integers(6, size=(n, 3))
    huge = edge * rng.uniform(1.0, 1e9, (n, 3))
    values = np.select([kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
                       [np.nan, np.inf, -np.inf, huge, -huge],
                       rng.normal(0.0, 100.0, (n, 3)))
    values[:3] = [edge, -edge, 1.7976931348623157e308]
    ints = np.where(rng.integers(2, size=n) == 1, -2 ** 63,
                    rng.integers(-10 ** 6, 10 ** 6, n))
    rows = [f"%d,%.{places}f,%.{places}f,%.{places}f\n" % (i, *row)
            for i, row in zip(ints.tolist(), values.tolist())]
    assert table_bytes(tmp_path, ["n", "a", "b", "c"],
                       [[ints, (values, places)]]) == \
        percent_table(["n", "a", "b", "c"], rows)


def test_integer_columns_equal_percent_d(tmp_path):
    # The temperature grid's column: %d of round(x), which gives 0 for
    # -0.4 where %.0f gives -0; and int64 at both ends.
    floats = np.array([-0.4, -0.5, 0.5, 1.5, 2.5, -2.5, -0.0, 59.5, -1e15])
    ints = np.array([0, -1, 9, 10, -10, 99, 2 ** 63 - 1, -2 ** 63, 7, 123])
    rows = ["%d,%d\n" % (round(x), n)
            for x, n in zip(floats.tolist(), ints.tolist())]
    assert table_bytes(tmp_path, ["t", "n"], [[
        np.rint(floats).astype(np.int64), ints[:len(floats)]]]) == \
        percent_table(["t", "n"], rows)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_row_counts_around_a_chunk(tmp_path, shift):
    # Text, integer and number columns over chunk - 1, chunk and chunk + 1
    # rows, as one part and as two parts.
    n = tables._WRITE_ROWS + shift
    rng = np.random.default_rng(n)
    labels = rng.choice(["a", "bc", "déf", ""], n)
    counts = rng.integers(-500, 500, n)
    values = rng.normal(0.0, 50.0, (n, 3))
    rows = ["%s,%d,%.2f,%.2f,%.2f,%s\n" % (label, count, *row, count % 2)
            for label, count, row in zip(labels.tolist(), counts.tolist(),
                                          values.tolist())]
    header = ["label", "count", "a", "b", "c", "odd"]
    columns = [labels, counts, (values, 2), list(map(str, counts % 2))]
    expected = percent_table(header, rows)
    assert table_bytes(tmp_path, header, [columns]) == expected
    halves = [[column[:n // 2] for column in columns[:2]]
              + [(values[:n // 2], 2), columns[3][:n // 2]],
              [column[n // 2:] for column in columns[:2]]
              + [(values[n // 2:], 2), columns[3][n // 2:]]]
    assert table_bytes(tmp_path, header, halves) == expected


def test_header_only_table(tmp_path):
    assert table_bytes(tmp_path, ["date", "x"], [
        [np.empty(0, "U10"), (np.empty(0), 2)]]) == b"date,x\n"
    assert table_bytes(tmp_path, ["date", "x"], []) == b"date,x\n"


def test_text_cells_keep_their_characters(tmp_path):
    # Non-ASCII text (an array or a list), an empty field, and an interior
    # NUL, which only a list can end a field with.
    texts = ["é", "", "a\0b", "zone 1; \t\u2028", "\U0001f600x"]
    expected = percent_table(["t", "u"], [f"{t},{t}\n" for t in texts])
    assert table_bytes(tmp_path, ["t", "u"], [[np.array(texts), texts]]) == \
        expected
    assert table_bytes(tmp_path, ["t"], [[["a\0"]]]) == b"t\na\0\n"


# ---------------------------------------------------------------------------
# Every golden CSV output is what the csv module writes


@pytest.mark.parametrize("name", [
    "data/weather.csv", "data/meter.csv", "data/calendar.csv",
    "out/composition.csv", "out/thresholds.csv", "out/month_matrix.csv",
    "out/temperature_grid.csv", "out/life_loss.csv", "out/estimates.csv"])
def test_golden_csv_equals_the_csv_module_rewrite(golden_pipeline, name):
    # write_table writes fields unquoted; reading each golden table with
    # csv.reader and writing it back with csv.writer gives its bytes.
    path = golden_pipeline[0][0] / name
    with open(path, encoding="utf-8", newline="") as fh:
        rewritten = csv_text(csv.reader(fh))
    assert rewritten.encode() == path.read_bytes()
