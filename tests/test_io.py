import ast
import json
import os
import sys

import numpy as np
import pytest

from breedkit import _io, bench, cli, fusion, geodata, kb, structural
from breedkit.errors import ParseError

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


@pytest.mark.parametrize("block_rows", [1, 3, 512])
def test_csv_columns_hold_the_cells_csv_rows_yields(block_rows, tmp_path, monkeypatch):
    monkeypatch.setattr(_io, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(11)
    lines = ["a,b,c,b"]
    for i in range(40):
        width = int(rng.integers(0, 6))  # blank, short, full and long rows
        lines.append(",".join(f"{i}.{j}" for j in range(width)))
        if i == 20:
            lines.append('"x\ny",1,2,3')
    path = tmp_path / "table.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rows = [row for _, row in _io.csv_rows(path, ("a",))]
    columns = _io.csv_columns(path, ("a",))
    assert list(columns) == ["a", "b", "c"]
    for name, cells in columns.items():
        assert cells == [row[name] for row in rows]


CSV_READERS = pytest.mark.parametrize("read", [lambda p: list(_io.csv_rows(p, ("a",))),
                                               lambda p: _io.csv_columns(p, ("a",))],
                                      ids=["csv_rows", "csv_columns"])


@CSV_READERS
def test_csv_readers_raise_a_parse_error_for_non_utf8_text(read, tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,b\n1,caf\xe9\n")
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value) == f"{path}: not UTF-8 text"


@CSV_READERS
@pytest.mark.parametrize("lines, line", [
    (["a,b", "1,2", "3," + "x" * 140_000], 3),
    (["a,b", '1,"2\n2"', '"' + "x" * 140_000 + '",4'], 4),
    (["a," + "x" * 140_000, "1,2"], 1),
], ids=["cell", "after_a_multi_line_cell", "header"])
def test_csv_readers_raise_a_parse_error_for_a_cell_over_the_field_limit(read, lines, line, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        read(path)
    assert info.value.line == line
    assert str(info.value).startswith(f"line {line}: {path}: field larger than field limit")


@pytest.mark.parametrize("loader, text", [
    (geodata.load_raster, "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 \xe9\n"),
    (geodata.load_point_cloud, "# caf\xe9\n0 0 1\n"),
    (geodata.load_point_cloud, "0 0 1\n1 1 \xe9\n"),
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


# ---------------------------------------------------------------------------
# column path vs the row loop (the parser of record)
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


def _table_text(header, rows, multiline_before=None):
    """CSV text. The row before row ``multiline_before`` gets a quoted two-line
    text cell and is followed by two blank lines."""
    def line(cells):
        return ",".join(f'"{c}"' if "\n" in c or "," in c else c for c in cells) + "\n"

    text = line(header)
    for i, cells in enumerate(rows):
        if multiline_before is not None and i == multiline_before - 1:
            cells = list(cells)
            cells[header.index("site" if "site" in header else "planting_area")] += "\nwest"
            text += line(cells) + "\n\n"
        else:
            text += line(cells)
    return text


# (column, bad cell) pairs; every one fails to convert or validate
FEATURE_BAD_CELLS = [
    ("NDVI_MS", "abc"), ("SPAD", "1,5"), ("yield_kg_ha", "x"), ("plot_id", ""),
    ("plot_id", "  "), ("LAI", "nan"), ("CH", "-inf"), ("WH_density", "1e400"),
    ("yield_kg_ha", "-1"), ("yield_kg_ha", "-0.5"),
]
PRICE_BAD_CELLS = [
    ("price", "abc"), ("price", ""), ("price", "0"), ("price", "-3"), ("price", "nan"),
    ("specification", "x"), ("specification", "0"), ("date", "2024-13-01"), ("date", ""),
    ("date", "June 1"),
]
LOADERS = {
    "features": (fusion.load_feature_records, fusion._feature_records_by_column,
                 fusion._feature_records_by_row, _feature_rows, FEATURE_BAD_CELLS),
    "prices": (kb.load_prices, kb._prices_by_column, kb._prices_by_row, _price_rows,
               PRICE_BAD_CELLS),
}
BAD_CASES = [
    (table, column, cell, where)
    for table, (*_, bad_cells) in LOADERS.items()
    for column, cell in bad_cells
    for where in ("first", "middle", "last", "after multi-line")
]


def _outcome(fn, path):
    try:
        return ("ok", fn(path))
    except Exception as exc:  # the comparison covers whatever the row loop raises
        return ("raised", type(exc), str(exc), getattr(exc, "line", None))


@pytest.mark.parametrize("table, column, cell, where", BAD_CASES)
def test_bad_cell_raises_what_the_row_loop_raises(table, column, cell, where, tmp_path):
    load, by_column, by_row, make_rows, _ = LOADERS[table]
    header, rows = make_rows()
    row = {"first": 0, "middle": len(rows) // 2, "last": len(rows) - 1,
           "after multi-line": len(rows) - 2}[where]
    rows[row][header.index(column)] = cell
    path = tmp_path / f"{table}.csv"
    path.write_text(_table_text(header, rows, multiline_before=row if where == "after multi-line"
                                else None), encoding="utf-8")
    with pytest.raises((ValueError, fusion.InvalidInput)):
        by_column(path)  # the column path gives up ...
    want = _outcome(by_row, path)
    assert want[0] == "raised"
    assert _outcome(load, path) == want  # ... and the loader raises the row loop's error
    if want[1] is ParseError:
        assert want[3] == row + 2 + 3 * (where == "after multi-line")


def _valid_variants(header, rows):
    """Files the column path must read as the row loop does, without falling back."""
    yield _table_text(header, rows)
    yield _table_text(header, rows, multiline_before=3)
    yield _table_text(header, rows).replace("\n", "\r\n")
    yield _table_text(header, rows).replace("\n", "\n\n")
    padded = [[f"  {c}\t" for c in cells] for cells in rows]
    yield _table_text(header, padded)
    yield _table_text(header + ["note"], [cells + ["x", "extra"] for cells in rows])
    yield _table_text(header + [header[1]], [cells + ["later"] for cells in rows])
    yield _table_text(header, []).rstrip("\n")


@pytest.mark.parametrize("table", sorted(LOADERS))
def test_valid_tables_read_as_the_row_loop_reads_them(table, tmp_path, monkeypatch):
    load, by_column, by_row, make_rows, _ = LOADERS[table]
    header, rows = make_rows()
    variants = list(_valid_variants(header, rows))
    if table == "features":  # optional columns absent; a short row reads as blank cells
        keep = [i for i, name in enumerate(header) if name not in ("site", "yield_kg_ha", "CH")]
        variants.append(_table_text([header[i] for i in keep],
                                    [[cells[i] for i in keep] for cells in rows]))
        variants.append(_table_text(header, [cells[:-3] for cells in rows]))
    for k, text in enumerate(variants):
        path = tmp_path / f"{table}{k}.csv"
        path.write_text(text, encoding="utf-8")
        want = _outcome(by_row, path)
        assert want[0] == "ok"
        assert _outcome(by_column, path) == want, k
        monkeypatch.setattr(sys.modules[by_row.__module__], by_row.__name__, None)
        assert _outcome(load, path)[0] == ("ok" if want[1] else "raised")
        monkeypatch.undo()
