import ast
import csv
import dataclasses
import datetime
import gc
import itertools
import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from breedkit import _io, bench, cli, fusion, geodata, kb, structural
from breedkit.errors import EmptyDataset, EmptyInput, ParseError
from conftest import scene_path

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "breedkit")

# each loader with a header that lacks one of its required columns
SHORT_HEADERS = [
    (geodata.load_plots, "plot_id,germplasm_id,vertex_index,x"),
    (structural.load_head_counts, "plot_id,image_id"),
    (cli._load_measurements, "plot,SPAD"),
    (fusion.load_feature_records, "plot_id,germplasm_id,site"),
    (fusion.load_weather, "site,date,t_mean,dew_point,precip,net_radiation"),
    (kb.load_germplasm, "name,origin"),
    (kb.load_prices, "observation_point,variety_name,price,specification,planting_area"),
    (bench.load_trials, "model_id,task,subtask,question_id"),
    (bench.load_ballots, "test_id,model_id,axis"),
]


@pytest.mark.parametrize("loader, header", SHORT_HEADERS,
                         ids=[f"{f.__module__}.{f.__name__}" for f, _ in SHORT_HEADERS])
def test_missing_required_column_is_a_parse_error_at_line_1(loader, header, tmp_path):
    path = tmp_path / "table.csv"
    n_columns = header.count(",") + 1
    path.write_text(header + "\n" + ",".join(["1"] * n_columns) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        loader(path)
    assert info.value.line == 1
    assert str(path) in str(info.value)


def test_only_the_io_module_reads_and_writes_tables_and_json():
    offenders = []
    for name in sorted(os.listdir(SRC_DIR)):
        if not name.endswith(".py") or name == "_io.py":
            continue
        with open(os.path.join(SRC_DIR, name), encoding="utf-8") as fh:
            text = fh.read()
        offenders += [f"{name}: {call}"
                      for call in ("csv.DictReader(", "csv.reader(", "csv.writer(", "json.dump(")
                      if call in text]
    assert offenders == []


def test_no_module_uses_a_private_name_of_another_module():
    offenders = []
    for name in sorted(os.listdir(SRC_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC_DIR, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        package_imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                           and (node.level or (node.module or "").startswith("breedkit"))]
        # ``from . import geodata`` binds modules; ``from .geodata import x`` binds names
        modules = {alias.asname or alias.name for node in package_imports
                   if node.module in (None, "breedkit") for alias in node.names}
        offenders += [f"{name}: from {node.module} import {alias.name}"
                      for node in package_imports if node.module not in (None, "breedkit")
                      for alias in node.names if alias.name.startswith("_")]
        offenders += [f"{name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                      and isinstance(node.value, ast.Name) and node.value.id in modules]
    assert offenders == []


REPO_DIR = os.path.join(os.path.dirname(__file__), "..")

# public names that no code outside the tests refers to, each with why it stays
UNREFERENCED_PUBLIC_NAMES = {
    "geodata.write_raster": "the ASCII grid writer: tests round-trip load_raster through it, "
                            "and a binary raster reader is proved against the grids it writes",
    "geodata.write_point_cloud": "the point-cloud writer, kept for the same round trips",
    "fusion.fit_ridge": "the one-matrix ridge fit with its zero-variance warning; kfold_cv fits "
                        "its folds with the same private solve, and the fold-loop oracle in "
                        "test_fusion.py fits each fold through fit_ridge",
}


def test_every_public_function_and_class_is_referenced_outside_the_tests():
    paths = [os.path.join(dirpath, name)
             for top in ("src", "demos", "scripts", "perfbench")
             for dirpath, _, files in os.walk(os.path.join(REPO_DIR, top))
             for name in files if name.endswith(".py")]
    referenced = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):  # from .module import name
                    referenced.add(node.name)
    unreferenced = []
    for name in sorted(os.listdir(SRC_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_DIR, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            unreferenced += [f"{name[:-3]}.{node.name}" for node in tree.body
                             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                             and not node.name.startswith("_") and node.name not in referenced]
    # the allowlist names exactly the unreferenced ones, so it cannot go stale
    assert sorted(unreferenced) == sorted(UNREFERENCED_PUBLIC_NAMES)


# each loader with a full header and one complete data row
FULL_ROWS = [
    (geodata.load_plots, "plot_id,germplasm_id,vertex_index,x,y", "p1,g1,0,0.0,1.0", ParseError),
    (structural.load_head_counts, "plot_id,image_id,count", "p1,img1,12", ParseError),
    (cli._load_measurements, "plot_id,SPAD,LAI", "p1,40.5,3.2", None),
    (fusion.load_feature_records, "plot_id,germplasm_id,date,site", "p1,g1,2024-06-01,s1", None),
    (fusion.load_weather, "site,date,t_mean,dew_point,precip,net_radiation,wind_speed",
     "s1,2024-06-01,18.5,9.0,0.0,12.1,2.5", ParseError),
    (kb.load_germplasm, "variety_name,origin,plant_height", "Alpha,CN,80", None),
    (kb.load_prices, "observation_point,variety_name,price,specification,planting_area,date",
     "Miyun,N,150,50,large,2024-06-01", ParseError),
    (bench.load_trials, ",".join(bench.TRIAL_CSV_COLUMNS),
     "m1,phenotyping_estimation,Yield,q1,0,4008.2,,,4000.0,,consistency,1", None),
    (bench.load_ballots, "test_id,model_id,score", "t1,m1,1", ParseError),
]


@pytest.mark.parametrize("loader, header, row, error", FULL_ROWS,
                         ids=[f"{f.__module__}.{f.__name__}" for f, *_ in FULL_ROWS])
def test_row_missing_its_last_cell_loads_or_is_a_parse_error(loader, header, row, error, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text(f"{header}\n{row.rsplit(',', 1)[0]}\n", encoding="utf-8")
    if error is not None:
        with pytest.raises(error) as info:
            loader(short)
        assert info.value.line == 2
        return
    # a missing cell reads as a blank one
    blank = tmp_path / "blank.csv"
    blank.write_text(f"{header}\n{row.rsplit(',', 1)[0]},\n", encoding="utf-8")
    assert loader(short) == loader(blank)


@pytest.mark.parametrize("loader, header, row, error", FULL_ROWS,
                         ids=[f"{f.__module__}.{f.__name__}" for f, *_ in FULL_ROWS])
def test_non_utf8_table_is_a_parse_error_naming_the_file(loader, header, row, error, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(f"{header}\n{row}\n".encode("utf-8").replace(b"\n", b"\n\xe9", 1))
    with pytest.raises(ParseError, match="not UTF-8 text") as info:
        loader(path)
    assert str(path) in str(info.value)


def test_csv_rows_yield_one_cell_per_named_column(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text('a,b,c,b\n1,2,3,4\n\n5,6\n7,8,9,10,11,12\n"x\ny",13,14,15\n', encoding="utf-8")
    # blank lines are skipped; a short row reads blank cells, a long row drops
    # its extra ones; of the two b columns the later wins; d is absent
    assert list(_io.csv_rows(path, ("a", "b"), ("c", "d"))) == [
        (2, ("1", "4", "3", "")),
        (4, ("5", "", "", "")),
        (5, ("7", "10", "9", "")),
        (7, ("x\ny", "15", "14", "")),
    ]
    assert list(_io.csv_rows(path, ("c",))) == [(2, ("3",)), (4, ("",)), (5, ("9",)), (7, ("14",))]
    assert [cells for _, cells in _io.csv_rows(path, ("a",), ("b",))] == [
        ("1", "4"), ("5", ""), ("7", "10"), ("x\ny", "15")]


def test_csv_rows_raise_a_parse_error_for_non_utf8_text(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,caf\xe9\n")
    with pytest.raises(ParseError) as info:
        list(_io.csv_rows(path, ("a",)))
    assert str(info.value) == f"{path}: not UTF-8 text"


@pytest.mark.parametrize("lines, line", [
    (["a,b", "1,2", "3," + "x" * 140_000], 3),
    (["a,b", '1,"2\n2"', '"' + "x" * 140_000 + '",4'], 4),
    (["a," + "x" * 140_000, "1,2"], 1),
], ids=["cell", "after_a_multi_line_cell", "header"])
def test_csv_rows_raise_a_parse_error_for_a_cell_over_the_field_limit(lines, line, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        list(_io.csv_rows(path, ("a",)))
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: {path}: field larger than field limit")


@pytest.mark.parametrize("loader, text", [
    (geodata.load_raster, "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 \xe9\n"),
    (geodata.load_point_cloud, "# caf\xe9\n0 0 1\n"),
    (geodata.load_point_cloud, "0 0 1\n1 1 \xe9\n"),
    (geodata.load_point_cloud, "0 0 1\n# caf\xe9\n1 1 1\n"),  # numpy reads the file past line 1
])
def test_non_utf8_grid_or_cloud_is_a_parse_error_naming_the_file(loader, text, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8 text") as info:
        loader(path)
    assert str(path) in str(info.value)


def test_rows_are_numbered_by_physical_line(tmp_path):
    path = tmp_path / "heads.csv"
    path.write_text('plot_id,image_id,count\np1,"img\n1",3\n\np1,img2,x\n', encoding="utf-8")
    assert [line for line, _ in _io.csv_rows(path, ())][:1] == [3]
    with pytest.raises(ParseError) as info:
        structural.load_head_counts(path)
    assert info.value.line == 5


DATED_TABLES = [
    (kb.load_prices, "observation_point,variety_name,price,specification,planting_area,date",
     "Miyun,N,150,50,large,{date}", "bad price row: unparseable ISO date: {date!r}"),
    (fusion.load_weather, "site,date,t_mean,dew_point,precip,net_radiation,wind_speed",
     "s1,{date},18.5,9.0,0.0,12.1,2.5", "bad weather row: Invalid isoformat string: {date!r}"),
]


# Python 3.11's date.fromisoformat takes both spellings, 3.10's neither
@pytest.mark.parametrize("date", ["20240601", "2024-W22-6"])
@pytest.mark.parametrize("loader, header, row, message", DATED_TABLES,
                         ids=[f.__name__ for f, *_ in DATED_TABLES])
def test_a_date_not_spelled_yyyy_mm_dd_is_a_parse_error_at_its_line(loader, header, row, message,
                                                                    date, tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, row.format(date="2024-06-01"), row.format(date=date)]) + "\n",
                    encoding="utf-8")
    with pytest.raises(ParseError) as info:
        loader(path)
    assert (str(info.value), info.value.line) == ("line 3: " + message.format(date=date), 3)


@pytest.mark.parametrize("text", ["2024-06-01", "2024-02-29", "0001-01-01"])
def test_iso_date_reads_yyyy_mm_dd(text):
    assert _io.iso_date(text).isoformat() == text


@pytest.mark.parametrize("text, message", [
    ("20240601", "Invalid isoformat string: '20240601'"),
    ("2024-W22-6", "Invalid isoformat string: '2024-W22-6'"),
    ("2024-06-01 ", "Invalid isoformat string: '2024-06-01 '"),
    ("2024-06-01\n", "Invalid isoformat string: '2024-06-01\\n'"),
    ("٢٠٢٤-06-01", "Invalid isoformat string: '٢٠٢٤-06-01'"),
    ("2023-02-29", "day is out of range for month"),
], ids=["compact", "week_date", "trailing_space", "trailing_newline", "arabic_indic_digits", "no_such_day"])
def test_iso_date_rejects_every_other_spelling(text, message):
    with pytest.raises(ValueError) as info:
        _io.iso_date(text)
    assert str(info.value) == message


@pytest.mark.parametrize("rows, message", [
    (["p1,40.5", "p2,41.0", "p1,9.9"], "line 4: plot p1: duplicate measurement row"),
    (["p1,40.5", " p1 ,"], "line 3: plot p1: duplicate measurement row"),
    (["p1,40.5", ",41.0"], "line 3: empty plot_id"),
    (["  ,41.0"], "line 2: empty plot_id"),
])
def test_a_measurement_row_names_one_new_plot(rows, message, tmp_path):
    path = tmp_path / "measurements.csv"
    path.write_text("\n".join(["plot_id,SPAD"] + rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        cli._load_measurements(path)
    assert str(info.value) == message


def test_csv_cells_are_spelled_by_str(tmp_path):
    path = tmp_path / "out.csv"
    _io.write_csv(path, ("a", "b", "c", "d", "e", "f", "g", "h"), [
        [0.1, -0.0, 1e16, 1e-05, np.float64(0.1), None, 3, datetime.date(2024, 6, 1)]])
    assert path.read_bytes() == b"a,b,c,d,e,f,g,h\n0.1,-0.0,1e+16,1e-05,0.1,,3,2024-06-01\n"


class TestAtomicWrites:
    def rows_failing_after(self, n):
        for i in range(n):
            yield [i, repr(float(i))]
        raise RuntimeError("row source failed")

    def test_failed_csv_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            _io.write_csv(tmp_path / "out.csv", ("a", "b"), self.rows_failing_after(5000))
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_the_previous_artifact(self, tmp_path):
        path = tmp_path / "out.csv"
        _io.write_csv(path, ("a", "b"), [[1, 2]])
        with pytest.raises(RuntimeError):
            _io.write_csv(path, ("a", "b"), self.rows_failing_after(5000))
        assert os.listdir(tmp_path) == ["out.csv"]
        assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"

    def test_failed_json_write_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            _io.write_json(tmp_path / "out.json", {"a": list(range(5000)), "b": object()})
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("write", [geodata.write_raster, geodata.write_point_cloud])
    def test_failed_grid_and_cloud_writes_leave_no_file(self, write, tmp_path):
        with pytest.raises(AttributeError):
            write(None, tmp_path / "out.txt")  # fails once the output file is open
        assert os.listdir(tmp_path) == []

    def test_written_artifacts_are_complete(self, tmp_path):
        _io.write_json(tmp_path / "out.json", {"b": 1, "a": [1.5]})
        assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8")) == {"a": [1.5], "b": 1}
        assert os.listdir(tmp_path) == ["out.json"]

    # an mtime no write in the test can give: a target that keeps it was not replaced
    SENTINEL_NS = 10**18

    def age(self, path):
        os.utime(path, ns=(self.SENTINEL_NS, self.SENTINEL_NS))

    @pytest.mark.parametrize("write, payload", [
        (lambda path, rows: _io.write_csv(path, ("a", "b"), rows), [[1, 2.5], [None, "x"]]),
        (lambda path, rows: _io.write_csv(path, ("a", "b"), rows), [[i, i / 7] for i in range(9000)]),
        (_io.write_json, {"b": [1.5, None], "a": "x"}),
    ], ids=["csv", "csv-over-one-block", "json"])
    def test_same_bytes_leave_the_target_and_its_mtime(self, write, payload, tmp_path):
        path = tmp_path / "out"
        write(path, payload)
        before = path.read_bytes()
        self.age(path)
        write(path, payload)
        assert path.read_bytes() == before
        assert os.stat(path).st_mtime_ns == self.SENTINEL_NS
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("old, new", [
        ([[1, 2]], [[1, 3]]),
        ([[i, "x"] for i in range(20000)], [[i, "x"] for i in range(19999)] + [[19999, "y"]]),
        ([[1, 2], [3, 4]], [[1, 2]]),
        ([[1, 2]], [[1, 2], [3, 4]]),
    ], ids=["one-byte-changed", "one-byte-changed-past-the-first-block", "shorter", "longer"])
    def test_changed_bytes_replace_the_target_and_its_mtime(self, old, new, tmp_path):
        path = tmp_path / "out.csv"
        _io.write_csv(path, ("a", "b"), old)
        self.age(path)
        _io.write_csv(path, ("a", "b"), new)
        want = "a,b\n" + "".join(f"{a},{b}\n" for a, b in new)
        assert path.read_text(encoding="utf-8") == want
        assert os.stat(path).st_mtime_ns != self.SENTINEL_NS
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("rows, left_in_place", [([[1, 2]], True), ([[1, 3]], False)],
                             ids=["same-bytes", "changed-bytes"])
    def test_mode_and_hard_links_go_with_the_file(self, rows, left_in_place, tmp_path):
        # a target left in place keeps all of its metadata; a replaced one is a
        # fresh file, with a fresh write's mode and no link to the old one
        path, link = tmp_path / "out.csv", tmp_path / "link.csv"
        _io.write_csv(path, ("a", "b"), [[1, 2]])
        os.link(path, link)
        os.chmod(path, 0o444)
        _io.write_csv(tmp_path / "fresh.csv", ("a", "b"), rows)
        fresh_mode = os.stat(tmp_path / "fresh.csv").st_mode
        _io.write_csv(path, ("a", "b"), rows)
        assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert link.read_text(encoding="utf-8") == "a,b\n1,2\n"
        if left_in_place:
            assert (os.stat(path).st_mode & 0o777, os.stat(path).st_nlink) == (0o444, 2)
        else:
            assert (os.stat(path).st_mode, os.stat(path).st_nlink) == (fresh_mode, 1)
        assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "link.csv", "out.csv"]

    def test_a_symlink_is_replaced_by_a_file_and_its_target_kept(self, tmp_path):
        real, path = tmp_path / "real.json", tmp_path / "out.json"
        _io.write_json(real, {"a": 1})
        self.age(real)
        os.symlink(real, path)
        _io.write_json(path, {"a": 1})  # the bytes the link leads to
        assert not path.is_symlink()
        assert path.read_text(encoding="utf-8") == '{\n  "a": 1\n}\n'
        assert real.read_text(encoding="utf-8") == '{\n  "a": 1\n}\n'
        assert os.stat(real).st_mtime_ns == self.SENTINEL_NS
        assert sorted(os.listdir(tmp_path)) == ["out.json", "real.json"]

    def test_a_directory_at_the_target_fails_and_leaves_no_file(self, tmp_path):
        (tmp_path / "out.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            _io.write_csv(tmp_path / "out.csv", ("a", "b"), [[1, 2]])
        assert os.listdir(tmp_path) == ["out.csv"]
        assert os.listdir(tmp_path / "out.csv") == []

    def test_a_target_that_cannot_be_read_is_replaced(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        _io.write_csv(path, ("a", "b"), [[1, 2]])
        self.age(path)

        def unreadable(file, mode="r", **kwargs):
            if mode == "rb" and os.fspath(file) == os.fspath(path):
                raise PermissionError(file)
            return open(file, mode, **kwargs)

        monkeypatch.setattr(_io, "open", unreadable, raising=False)
        _io.write_csv(path, ("a", "b"), [[1, 2]])
        assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"
        assert os.stat(path).st_mtime_ns != self.SENTINEL_NS
        assert os.listdir(tmp_path) == ["out.csv"]


# ---------------------------------------------------------------------------
# feature, price and trial tables: each bad cell is a ParseError at its line,
# and every valid spelling of a table holds the records its rows spell
# ---------------------------------------------------------------------------

FEATURE_NAMES = fusion.RS_FEATURES + fusion.PHENOTYPING_FEATURES


def _feature_rows(n=7):
    rng = np.random.default_rng(3)
    rows = []
    for i in range(n):
        cells = [f"p{i}", f"g{i % 3}", "2024-05-01", "north"]
        cells += [repr(float(v)) for v in rng.normal(size=len(FEATURE_NAMES))]
        cells.append(repr(float(rng.uniform(3000, 9000))))
        if i % 2:
            cells[4 + i] = ""  # a blank feature
        rows.append(cells)
    return list(fusion.FEATURE_CSV_COLUMNS), rows


def _price_rows(n=7):
    rows = [[f"Point {i % 2}", f"V{i}", f"{20 + 3 * i}.5", "25", "Region", f"2024-06-{i + 1:02d}"]
            for i in range(n)]
    return list(kb.PRICE_CSV_COLUMNS), rows


def _trial_rows(n=7):
    # question_id second: _valid_variants repeats the second column with the text 'later'
    header = ["model_id", "question_id", "task", "subtask", "trial_index", "answer_numeric",
              "answer_label", "judged_correct", "reference_value", "reference_label",
              "stability_protocol", "text_pass"]
    flags = ("true", "0", "yes", "False", "1", "no", "")
    rows = [["m1" if i % 3 else "model 2", f"q{i}", "phenotyping_estimation", "Yield" if i % 2 else "PL",
             str(i % 3), f"{40 + i}.5", "slight", flags[i % 7], "41.25", "severe",
             ("consistency", "robustness", "")[i % 3], flags[(i + 3) % 7]]
            for i in range(n)]
    return header, rows


def _multi_line(header, rows, i):
    """``rows`` with row ``i``'s text cell spread over two lines."""
    rows = [list(cells) for cells in rows]
    column = next(name for name in ("site", "planting_area", "reference_label") if name in header)
    rows[i][header.index(column)] += "\nwest"
    return rows


def _table_text(header, rows, blank_after=None):
    """CSV text; two blank lines follow row ``blank_after``."""
    def line(cells):
        return ",".join(f'"{c}"' if "\n" in c or "," in c else c for c in cells) + "\n"

    return line(header) + "".join(line(cells) + "\n\n" * (i == blank_after)
                                  for i, cells in enumerate(rows))


def _features(header, rows):
    """The feature records ``rows`` spell, each cell read as the test reads it."""
    records = []
    for cells in rows:
        rec = {name: cell.strip() for name, cell in zip(header, cells)}  # a later column wins
        records.append(fusion.PlotFeatureRecord(
            plot_id=rec["plot_id"], germplasm_id=rec["germplasm_id"], date=rec["date"],
            site=rec.get("site", ""),
            features={name: float(rec[name]) for name in FEATURE_NAMES if rec.get(name)},
            yield_kg_ha=float(rec["yield_kg_ha"]) if rec.get("yield_kg_ha") else None))
    return records


def _prices(header, rows):
    """The price records ``rows`` spell, each cell read as the test reads it."""
    records = []
    for cells in rows:
        rec = {name: cell.strip() for name, cell in zip(header, cells)}
        records.append(kb.PriceRecord(
            observation_point=rec["observation_point"], variety_name=rec["variety_name"],
            price=float(rec["price"]), specification=float(rec["specification"]),
            planting_area=rec["planting_area"], date=datetime.date.fromisoformat(rec["date"])))
    return records


def _trials(header, rows):
    """The trial records ``rows`` spell, each cell read as the test reads it."""
    flags = {"": None, "true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
    records = []
    for cells in rows:
        rec = {name: cell.strip() for name, cell in zip(header, cells)}
        records.append(bench.TrialRecord(
            model_id=rec["model_id"], task_spec=bench.TaskSpec(rec["task"], rec["subtask"]),
            question_id=rec["question_id"], trial_index=int(rec["trial_index"]),
            answer_numeric=float(rec["answer_numeric"]) if rec["answer_numeric"] else None,
            answer_label=rec["answer_label"] or None, judged_correct=flags[rec["judged_correct"].lower()],
            reference_value=float(rec["reference_value"]) if rec["reference_value"] else None,
            reference_label=rec["reference_label"] or None,
            stability_protocol=rec["stability_protocol"] or None, text_pass=flags[rec["text_pass"].lower()]))
    return records


# (column, bad cell) -> the ParseError message after its "line N: " prefix
FEATURE_BAD_CELLS = {
    ("NDVI_MS", "abc"): "non-numeric NDVI_MS: 'abc'",
    ("SPAD", "1,5"): "non-numeric SPAD: '1,5'",
    ("yield_kg_ha", "x"): "non-numeric yield_kg_ha: 'x'",
    ("plot_id", ""): "plot_id must be non-empty",
    ("plot_id", "  "): "plot_id must be non-empty",
    ("LAI", "nan"): "plot {plot}: feature LAI is not finite",
    ("CH", "-inf"): "plot {plot}: feature CH is not finite",
    ("WH_density", "1e400"): "plot {plot}: feature WH_density is not finite",
    ("yield_kg_ha", "-1"): "plot {plot}: yield must be >= 0",
    ("yield_kg_ha", "-0.5"): "plot {plot}: yield must be >= 0",
}
PRICE_BAD_CELLS = {
    ("price", "abc"): "bad price row: could not convert string to float: 'abc'",
    ("price", ""): "bad price row: could not convert string to float: ''",
    ("price", "0"): "bad price row: price must be finite and > 0",
    ("price", "-3"): "bad price row: price must be finite and > 0",
    ("price", "nan"): "bad price row: price must be finite and > 0",
    ("specification", "x"): "bad price row: could not convert string to float: 'x'",
    ("specification", "0"): "bad price row: specification must be finite and > 0",
    ("date", "2024-13-01"): "bad price row: unparseable ISO date: '2024-13-01'",
    ("date", ""): "bad price row: unparseable ISO date: ''",
    ("date", "June 1"): "bad price row: unparseable ISO date: 'June 1'",
}
TRIAL_BAD_CELLS = {
    ("task", "weather"): "bad trial row: unknown task 'weather'",
    ("subtask", "HQ"): "bad trial row: subtask 'HQ' does not belong to task 'phenotyping_estimation'",
    ("trial_index", "x"): "bad trial row: invalid literal for int() with base 10: 'x'",
    ("trial_index", ""): "bad trial row: invalid literal for int() with base 10: ''",
    ("trial_index", "-1"): "bad trial row: trial_index must be >= 0",
    ("answer_numeric", "abc"): "bad trial row: could not convert string to float: 'abc'",
    ("answer_numeric", "nan"): "bad trial row: answer_numeric must be finite, got nan",
    ("reference_value", "1,5"): "bad trial row: could not convert string to float: '1,5'",
    ("reference_value", "-inf"): "bad trial row: reference_value must be finite, got -inf",
    ("judged_correct", "maybe"): "bad boolean 'maybe'",
    ("text_pass", "2"): "bad boolean '2'",
    ("model_id", ""): "bad trial row: empty model_id",
    ("question_id", "  "): "bad trial row: empty question_id",
    ("stability_protocol", "other"):
        "bad trial row: stability_protocol must be one of ('consistency', 'robustness')",
}
LOADERS = {
    "features": (fusion.load_feature_records, _feature_rows, _features, FEATURE_BAD_CELLS,
                 (EmptyDataset, "no feature rows in {path}")),
    "prices": (kb.load_prices, _price_rows, _prices, PRICE_BAD_CELLS,
               (EmptyInput, "no rows in {path}")),
    "trials": (bench.load_trials, _trial_rows, _trials, TRIAL_BAD_CELLS,
               (EmptyInput, "no trials in {path}")),
}
BAD_CASES = [
    (table, column, cell, where)
    for table, (_, _, _, bad_cells, _) in LOADERS.items()
    for column, cell in bad_cells
    for where in ("first", "middle", "last", "after multi-line")
]


@pytest.mark.parametrize("table, column, cell, where", BAD_CASES)
def test_bad_cell_is_a_parse_error_at_its_line(table, column, cell, where, tmp_path):
    load, make_rows, _, bad_cells, _ = LOADERS[table]
    header, rows = make_rows()
    row = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1,
           "after multi-line": len(rows) - 2}[where]
    rows[row][header.index(column)] = cell
    path = tmp_path / f"{table}.csv"
    if where == "after multi-line":
        path.write_text(_table_text(header, _multi_line(header, rows, row - 1), blank_after=row - 1),
                        encoding="utf-8")
    else:
        path.write_text(_table_text(header, rows), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load(path)
    line = row + 2 + 3 * (where == "after multi-line")
    message = bad_cells[column, cell].format(plot=rows[row][0])
    assert type(info.value) is ParseError
    assert (str(info.value), info.value.line) == (f"line {line}: {message}", line)


@pytest.mark.parametrize("cells, message", [
    ({"price": "abc", "specification": "x", "date": "June 1"}, "could not convert string to float: 'abc'"),
    ({"specification": "x", "date": "June 1"}, "could not convert string to float: 'x'"),
    ({"price": "0", "specification": "0", "date": "June 1"}, "unparseable ISO date: 'June 1'"),
    ({"price": "0", "specification": "0"}, "price must be finite and > 0"),
])
def test_a_price_row_is_checked_price_then_specification_then_date(cells, message, tmp_path):
    header, rows = _price_rows()
    for column, cell in cells.items():
        rows[1][header.index(column)] = cell
    path = tmp_path / "prices.csv"
    path.write_text(_table_text(header, rows), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        kb.load_prices(path)
    assert str(info.value) == f"line 3: bad price row: {message}"


@pytest.mark.parametrize("cells, message", [
    ({"subtask": "HQ", "trial_index": "x", "answer_numeric": "abc", "judged_correct": "maybe"},
     "bad trial row: subtask 'HQ' does not belong to task 'phenotyping_estimation'"),
    ({"trial_index": "x", "answer_numeric": "abc", "judged_correct": "maybe"},
     "bad trial row: invalid literal for int() with base 10: 'x'"),
    ({"answer_numeric": "abc", "judged_correct": "maybe", "reference_value": "y"},
     "bad trial row: could not convert string to float: 'abc'"),
    ({"judged_correct": "maybe", "reference_value": "y", "trial_index": "-1"}, "bad boolean 'maybe'"),
    ({"reference_value": "y", "text_pass": "2", "trial_index": "-1"},
     "bad trial row: could not convert string to float: 'y'"),
    ({"trial_index": "-1", "model_id": "", "answer_numeric": "nan"},
     "bad trial row: trial_index must be >= 0"),
    ({"question_id": "", "answer_numeric": "nan", "stability_protocol": "other"},
     "bad trial row: empty question_id"),
    ({"reference_value": "inf", "answer_numeric": "nan", "stability_protocol": "other"},
     "bad trial row: answer_numeric must be finite, got nan"),
])
def test_a_trial_row_is_checked_in_the_order_a_record_takes_and_checks_its_fields(cells, message,
                                                                                   tmp_path):
    header, rows = _trial_rows()
    for column, cell in cells.items():
        rows[1][header.index(column)] = cell
    rows[4][header.index("trial_index")] = "-2"  # a later bad row is not reached
    path = tmp_path / "trials.csv"
    path.write_text(_table_text(header, rows), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        bench.load_trials(path)
    assert str(info.value) == f"line 3: {message}"


def _valid_variants(header, rows):
    """``(header, rows, text)``: spellings of a table that hold the records of ``rows``."""
    text = _table_text(header, rows)
    yield header, rows, text
    multi_line = _multi_line(header, rows, 2)
    yield header, multi_line, _table_text(header, multi_line, blank_after=2)
    yield header, rows, text.replace("\n", "\r\n")
    yield header, rows, text.replace("\n", "\n\n")
    padded = [[f"  {c}\t" for c in cells] for cells in rows]
    yield header, padded, _table_text(header, padded)
    extra = [cells + ["x", "extra"] for cells in rows]
    yield header + ["note"], extra, _table_text(header + ["note"], extra)
    later = [cells + ["later"] for cells in rows]
    yield header + [header[1]], later, _table_text(header + [header[1]], later)


@pytest.mark.parametrize("table", sorted(LOADERS))
def test_valid_tables_hold_the_records_their_rows_spell(table, tmp_path):
    load, make_rows, records, _, (empty_error, empty_message) = LOADERS[table]
    header, rows = make_rows()
    variants = list(_valid_variants(header, rows))
    if table == "features":  # optional columns absent; a short row reads as blank cells
        keep = [i for i, name in enumerate(header) if name not in ("site", "yield_kg_ha", "CH")]
        kept = [header[i] for i in keep], [[cells[i] for i in keep] for cells in rows]
        short = header, [cells[:-3] for cells in rows]
        variants += [(*kept, _table_text(*kept)), (*short, _table_text(*short))]
    for k, (variant_header, variant_rows, text) in enumerate(variants):
        path = tmp_path / f"{table}{k}.csv"
        path.write_text(text, encoding="utf-8")
        assert list(load(path)) == records(variant_header, variant_rows), k
    path = tmp_path / f"{table}_empty.csv"
    path.write_text(_table_text(header, []).rstrip("\n"), encoding="utf-8")
    with pytest.raises(empty_error) as info:
        load(path)
    assert str(info.value) == empty_message.format(path=path)


# ---------------------------------------------------------------------------
# per-row records: slotted, frozen values; equal text cells of one load share
# one string
# ---------------------------------------------------------------------------

RECORDS = {
    "PlotFeatureRecord": lambda: fusion.PlotFeatureRecord(
        plot_id="p1", germplasm_id="g1", date="2024-05-01", features={"CH": 0.5},
        yield_kg_ha=5000.0, site="north"),
    "WeatherRecord": lambda: fusion.WeatherRecord("north", "2024-05-01", 12.0, 5.0, 0.5, 140.0, 2.0),
    "TrialRecord": lambda: bench.TrialRecord(
        model_id="m1", task_spec=bench.TaskSpec("phenotyping_estimation", "Yield"),
        question_id="q1", trial_index=0, answer_numeric=4100.0, reference_value=4000.0,
        stability_protocol="consistency"),
    "GermplasmRecord": lambda: kb.GermplasmRecord(
        variety_name="Alpha", origin="China", quality={"crude_protein": 15.2},
        resistance={"stripe_rust": "MR"}, agronomic={"maturity": "early"}),
    "PriceRecord": lambda: kb.PriceRecord(
        "Miyun District", "Nongda 3486", 150.0, 25.0, "Beijing", datetime.date(2024, 6, 1)),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=list(RECORDS))
def test_per_row_records_are_slotted_frozen_values(make):
    record = make()
    assert not hasattr(record, "__dict__")
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, getattr(record, field.name))
    assert record == make()


def _repeated_features(tmp_path):
    header, rows = _feature_rows(4)
    later = [cells[:2] + ["2024-06-01"] + cells[3:] for cells in rows]
    path = tmp_path / "features.csv"
    path.write_text(_table_text(header, rows + later), encoding="utf-8")
    return [rec.plot_id for rec in fusion.load_feature_records(path)]


# one text column each loader reads, as a list of that column's cells in one load
SHARED_TEXT = {
    "trial model_id": lambda tmp_path: [
        t.model_id for t in bench.load_trials(scene_path("trials.csv"))],
    "price observation_point": lambda tmp_path: [
        r.observation_point for r in kb.load_prices(scene_path("prices.csv"))],
    "feature plot_id": _repeated_features,
    "germplasm leaf_rust": lambda tmp_path: [
        r.resistance["leaf_rust"] for r in kb.load_germplasm(scene_path("germplasm.csv"))],
    "weather site": lambda tmp_path: [
        r.site for r in fusion.load_weather(scene_path("weather.csv"))],
}


@pytest.mark.parametrize("column", SHARED_TEXT.values(), ids=list(SHARED_TEXT))
def test_equal_text_cells_of_one_load_are_one_string(column, tmp_path):
    values = [value for value in column(tmp_path) if len(value) > 1]  # CPython shares the rest anyway
    first: dict = {}
    for value in values:
        assert first.setdefault(value, value) is value, value
    assert len(first) < len(values)  # some value repeats


def _trial_file(tmp_path):
    """A 4 800-row trial table: 4 models, 200 questions and 6 trials of each."""
    path = tmp_path / "trials.csv"
    protocols = ("consistency", "robustness")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(bench.TRIAL_CSV_COLUMNS) + "\n")
        for q in range(200):
            for m in range(4):
                for t in range(6):
                    fh.write(f"model-{m},phenotyping_estimation,Yield,question-{q:03d},{t},"
                             f"{4000 + q + 0.5 * t},,,{4000.0 + q},,{protocols[t % 2]},\n")
    return path


def _traced_load(path):
    """(the loaded trials, the bytes the load keeps, its traced peak above what it started with)"""
    bench.load_trials(path)  # warm every cache the loader touches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trials = bench.load_trials(path)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return trials, kept - before, peak - before


def test_loaded_trials_keep_no_more_than_their_columns_and_distinct_strings(tmp_path):
    trials, kept, _ = _traced_load(_trial_file(tmp_path))
    assert len(trials) == 4800
    # The table keeps its column arrays (sys.getsizeof counts an array's data)
    # and each distinct text once. The 4 KiB slack covers the table object,
    # its tuple of one shared TaskSpec, and that TaskSpec with its two strings.
    arrays = [getattr(trials, f.name) for f in dataclasses.fields(trials)
              if isinstance(getattr(trials, f.name), np.ndarray)]
    bound = (sum(map(sys.getsizeof, arrays))
             + sys.getsizeof(trials.strings) + sum(map(sys.getsizeof, trials.strings))
             + 4096)
    assert kept <= bound


def test_loading_trials_peaks_at_most_one_block_of_rows_above_what_it_keeps(tmp_path):
    path = _trial_file(tmp_path)
    _, kept, peak = _traced_load(path)
    # One block's rows as csv.reader returns them, and their transpose into
    # columns. The 64 KiB slack covers what reading a block holds beside its
    # rows: their line numbers, the file and csv buffers, and one iterator
    # per row while they are transposed. A whole-file transpose holds every
    # row at once, ~9 blocks.
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(itertools.islice(csv.reader(fh), 1, 1 + _io.BLOCK_ROWS))
    block = (sys.getsizeof(rows) + sum(sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in rows)
             + sum(map(sys.getsizeof, zip(*rows))))
    assert peak - kept <= block + 65536


# Spellings Python's float() and int() take but numpy's reader does not.
PYTHON_ONLY_NUMBERS = ["1_000", "1e1_0", "\uff12", "\uff11.\uff15", "\u0661\u0662",
                       "\xa01.5", "1.5\u2003"]


@pytest.mark.parametrize("text", PYTHON_ONLY_NUMBERS)
def test_a_python_only_number_spelling_is_non_numeric(text):
    with pytest.raises(ParseError) as info:
        _io.finite_number(text, "cell", 3)
    assert str(info.value) == f"line 3: non-numeric cell: {text!r}"
    with pytest.raises(ValueError):
        _io.integer(text)


@pytest.mark.parametrize("text, value", [("12", 12), (" 12 ", 12), ("+7", 7), ("-0", 0)])
def test_integer_reads_ascii_spellings_as_int_does(text, value):
    assert _io.integer(text) == value


GRID = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"


@pytest.mark.parametrize("text", ["1_000", "\uff12"])
@pytest.mark.parametrize("load, content, message", [
    (geodata.load_raster, GRID + "1 {}\n", "line 6: non-numeric cell: {!r}"),
    (geodata.load_raster, GRID.replace("cellsize 1", "cellsize {}") + "1 2\n",
     "line 5: non-numeric value for 'cellsize': {!r}"),
    (geodata.load_point_cloud, "# cloud\n0 0 1\n1 {} 2\n", "line 3: non-numeric coordinate: {!r}"),
    (structural.load_head_counts, "plot_id,image_id,count\np1,i1,4\np1,i2,{}\n",
     "line 3: non-integer count {!r}"),
    (geodata.load_plots, "plot_id,germplasm_id,vertex_index,x,y\np1,g,0,0,0\np1,g,{},1,0\n",
     "line 3: bad vertex row for plot p1"),
    (geodata.load_plots, "plot_id,germplasm_id,vertex_index,x,y\np1,g,0,0,0\np1,g,1,{},0\n",
     "line 3: non-numeric x of plot p1: {!r}"),
    (cli._load_measurements, "plot_id,SPAD\np1,{}\n", "line 2: non-numeric SPAD: {!r}"),
    (fusion.load_weather, "site,date,t_mean,dew_point,precip,net_radiation,wind_speed\n"
     "s1,2024-06-01,18.5,9.0,0.0,12.1,2.5\ns1,2024-06-02,18.5,9.0,{},12.1,2.5\n",
     "line 3: bad weather row: could not convert string to float: {!r}"),
    (bench.load_ballots, "test_id,model_id,score\nt1,m1,1\nt1,m2,{}\n", "line 3: non-integer score {!r}"),
    (kb.load_germplasm, "variety_name,crude_protein\nA,12.5\nB,{}\n", "line 3: non-numeric crude_protein: {!r}"),
    (kb.load_germplasm, "variety_name,maturity\nA,early\nB,{}\n", "line 3: non-numeric maturity: {!r}"),
    (kb.load_prices, "observation_point,variety_name,price,specification,planting_area,date\n"
     "P,V,150,25,R,2024-06-01\nP,V,{},25,R,2024-06-01\n",
     "line 3: bad price row: could not convert string to float: {!r}"),
    (fusion.load_feature_records, "plot_id,germplasm_id,date,NDVI_MS,yield_kg_ha\n"
     "p1,g,2024-06-01,0.5,4000\np2,g,2024-06-01,0.5,{}\n", "line 3: non-numeric yield_kg_ha: {!r}"),
    (bench.load_trials, "model_id,task,subtask,question_id,trial_index\n"
     "m1,phenotyping_estimation,Yield,q1,0\nm1,phenotyping_estimation,Yield,q2,{}\n",
     "line 3: bad trial row: not an integer: {!r}"),
    (bench.load_trials, "model_id,task,subtask,question_id,trial_index,answer_numeric\n"
     "m1,phenotyping_estimation,Yield,q1,0,4.5\nm1,phenotyping_estimation,Yield,q2,0,{}\n",
     "line 3: bad trial row: could not convert string to float: {!r}"),
])
def test_a_data_file_rejects_a_python_only_number(load, content, message, text, tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(content.format(text), encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value) == message.format(text)
