import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from breedkit import geodata
from breedkit.errors import (
    EmptyInput,
    EmptyPlot,
    GeometryMismatch,
    InvalidInput,
    InvalidMask,
    ParseError,
)


def make_grid(values, cell_size=1.0, origin=(0.0, 0.0), nodata=-9999.0):
    return geodata.RasterGrid(
        values=np.asarray(values, dtype=np.float64),
        cell_size=cell_size,
        origin_x=origin[0],
        origin_y=origin[1],
        nodata=nodata,
    )


def square_plot(x0, y0, x1, y1, plot_id="p", germplasm_id="g"):
    return geodata.PlotGeometry(
        plot_id=plot_id,
        germplasm_id=germplasm_id,
        vertices=np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# scalar oracles (same arithmetic as the vectorized implementations)
# ---------------------------------------------------------------------------


def point_in_polygon_oracle(px, py, vertices):
    inside = False
    on_edge = False
    n = len(vertices)
    for k in range(n):
        x1, y1 = float(vertices[k][0]), float(vertices[k][1])
        x2, y2 = float(vertices[(k + 1) % n][0]), float(vertices[(k + 1) % n][1])
        cross = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        if cross == 0.0 and min(x1, x2) <= px <= max(x1, x2) and min(y1, y2) <= py <= max(y1, y2):
            on_edge = True
        if (y1 > py) != (y2 > py):
            x_int = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < x_int:
                inside = not inside
    return inside or on_edge


def rasterize_oracle(points, cell_size, aggregator):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    origin_x = math.floor(min(xs) / cell_size) * cell_size
    origin_y = math.floor(min(ys) / cell_size) * cell_size
    n_cols = max(1, int(math.ceil((max(xs) - origin_x) / cell_size)))
    n_rows = max(1, int(math.ceil((max(ys) - origin_y) / cell_size)))
    buckets = {}
    for x, y, z in points:
        col = min(int((x - origin_x) // cell_size), n_cols - 1)
        rfb = min(int((y - origin_y) // cell_size), n_rows - 1)
        row = n_rows - 1 - rfb
        buckets.setdefault((row, col), []).append(z)
    values = np.full((n_rows, n_cols), -9999.0)
    for (row, col), zs in buckets.items():
        zs = sorted(zs)
        # of two tied zeros, -0.0 is the lower
        if aggregator == "min":
            values[row, col] = min(zs, key=lambda z: (z, math.copysign(1.0, z)))
        elif aggregator == "max":
            values[row, col] = max(zs, key=lambda z: (z, math.copysign(1.0, z)))
        else:
            acc = 0.0
            for z in zs:
                acc += z
            values[row, col] = acc / len(zs)
    return values, origin_x, origin_y, n_cols, n_rows


def random_simple_polygon(rng, concave=False):
    """Star-shaped polygon around a center; bounded angular gaps keep it simple."""
    n = int(rng.integers(4, 9))
    base = np.arange(n) * 2 * np.pi / n
    angles = base + rng.uniform(-0.3, 0.3, n) * 2 * np.pi / n
    if concave:
        radii = rng.uniform(0.5, 3.0, n)
    else:
        radii = np.full(n, rng.uniform(1.0, 3.0))
    cx, cy = rng.uniform(1.0, 5.0, 2)
    xs = cx + radii * np.cos(angles)
    ys = cy + radii * np.sin(angles)
    return geodata.PlotGeometry("r", "g", np.column_stack([xs, ys]))


# ---------------------------------------------------------------------------
# ASCII grid parsing
# ---------------------------------------------------------------------------


class TestLoadRaster:
    def test_parses_trivial_grid(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 0.5\n"
            "NODATA_value -9999\n1 2\n3 4\n"
        )
        grid = geodata.load_raster(path)
        assert grid.n_cols == 2 and grid.n_rows == 2
        assert grid.cell_size == 0.5
        assert grid.values.ravel().tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_header_keys_case_insensitive(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "NCOLS 1\nNRows 1\nXLLCORNER 2\nYllCorner 3\nCELLSIZE 1\n5\n"
        )
        grid = geodata.load_raster(path)
        assert grid.origin_x == 2.0 and grid.origin_y == 3.0
        assert grid.nodata == geodata.DEFAULT_NODATA  # optional header line

    def test_wrong_cells_per_row(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2 3\n4 5\n"
        )
        with pytest.raises(ParseError, match="line 6"):
            geodata.load_raster(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nfoo\n")
        with pytest.raises(ParseError, match="non-numeric"):
            geodata.load_raster(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\nnan\n")
        with pytest.raises(ParseError, match="non-finite"):
            geodata.load_raster(path)

    def test_malformed_header_names_line(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 1\nwrongkey 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1\n")
        with pytest.raises(ParseError, match="line 2"):
            geodata.load_raster(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 1\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\n1\n2\n")
        with pytest.raises(ParseError, match="expected 3 data rows"):
            geodata.load_raster(path)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.uniform(-50.0, 50.0, size=(16, 16))
        values[rng.random((16, 16)) < 0.1] = -1.5  # nodata cells
        grid = make_grid(values, cell_size=0.125, origin=(3.25, -8.5), nodata=-1.5)
        path = tmp_path / "rt.asc"
        geodata.write_raster(grid, path)
        back = geodata.load_raster(path)
        assert np.array_equal(back.values, grid.values)
        assert back.nodata == grid.nodata
        assert back.cell_size == grid.cell_size
        assert (back.origin_x, back.origin_y) == (grid.origin_x, grid.origin_y)


class TestPointCloudIO:
    def test_parses_points(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# comment\n0 0 1\n1 1 2\n")
        cloud = geodata.load_point_cloud(path)
        assert len(cloud) == 2
        assert cloud.points[1].tolist() == [1.0, 1.0, 2.0]

    def test_two_fields_rejected(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("0 0\n")
        with pytest.raises(ParseError, match="3 fields"):
            geodata.load_point_cloud(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# only a comment\n")
        with pytest.raises(EmptyInput):
            geodata.load_point_cloud(path)

    def test_round_trip_1000_points(self, tmp_path):
        rng = np.random.default_rng(11)
        cloud = geodata.PointCloud(points=rng.uniform(-100, 100, size=(1000, 3)))
        path = tmp_path / "rt.xyz"
        geodata.write_point_cloud(cloud, path)
        back = geodata.load_point_cloud(path)
        assert np.array_equal(back.points, cloud.points)

    def test_non_finite_point_rejected(self):
        with pytest.raises(InvalidInput):
            geodata.PointCloud(points=np.array([[0.0, 0.0, np.nan]]))


# ---------------------------------------------------------------------------
# numpy fast path vs the line parser
# ---------------------------------------------------------------------------

# Tokens that numpy's reader and Python's float() may read differently.
ODD_TOKENS = ("nan", "-inf", "Infinity", "1e400", "1e-400", "1_0", "#", "1#", "0x10",
              "\u0661\u0662", "\uff11", "-0", ".5", "5.", "+1.5E-3", "e5", "--1", "1\x00")
# Separators: ASCII and Unicode whitespace (str.split splits on all of them),
# line breaks that str.splitlines knows, and non-whitespace look-alikes.
ODD_SEPARATORS = (" ", "\t", "  ", "\f", "\v", "\x1c", "\xa0", "\u2003", "\u3000", "\x85",
                  "\u2028", "\u200b", "\ufeff", ",")


def _mutate(rng, lines: list) -> list:
    """One random edit of a file's data lines."""
    lines = list(lines)
    i = int(rng.integers(len(lines)))
    tokens = lines[i].split(" ")
    kind = int(rng.integers(9))
    if kind == 0:
        del tokens[int(rng.integers(len(tokens)))]
    elif kind == 1:
        tokens.insert(int(rng.integers(len(tokens) + 1)), "1.5")
    elif kind == 2:
        tokens[int(rng.integers(len(tokens)))] = str(rng.choice(ODD_TOKENS))
    elif kind == 3:
        lines.insert(i, str(rng.choice(["", "   ", "\t", "\f", "\xa0"])))
    elif kind == 4:
        lines.insert(i, str(rng.choice(["# note", "  # indented", "\t#", "#", "\f# note"])))
    elif kind == 5:
        tokens.append(str(rng.choice(["# note", "#note"])))
    elif kind == 6:
        j = int(rng.integers(len(tokens)))
        tokens[j] += str(rng.choice(ODD_SEPARATORS)) + tokens[j]
    elif kind == 7:
        tokens[0] = str(rng.choice(ODD_SEPARATORS)) + tokens[0]
        tokens[-1] += str(rng.choice(ODD_SEPARATORS))
    if kind not in (3, 4):
        lines[i] = " ".join(tokens)
    return lines


def _write(rng, path, lines: list) -> None:
    eol = str(rng.choice(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + (eol if rng.random() < 0.8 else "")
    path.write_bytes(text.encode("utf-8"))


def _numbers(rng, n: int) -> list:
    values = rng.normal(0.0, 50.0, n).round(int(rng.integers(0, 8)))
    return [str(rng.choice([repr(float(v)), f"{v:.3e}", f"{v:g}"])) for v in values]


def _grid_case(rng) -> list:
    n_rows, n_cols = [(1, 1), (1, 7), (6, 1), (5, 4)][int(rng.integers(4))]
    header = [f"ncols {n_cols}", f"nrows {n_rows}", "xllcorner 0.5", "yllcorner -2",
              "cellsize 0.25", "NODATA_value -9999"]
    rows = [" ".join(_numbers(rng, n_cols)) for _ in range(n_rows)]
    for _ in range(int(rng.integers(3))):
        rows = _mutate(rng, rows)
    return header + rows


def _cloud_case(rng) -> list:
    n_points = [1, 2, 17][int(rng.integers(3))]
    lines = ["# cloud"] if rng.random() < 0.5 else []
    lines += [" ".join(_numbers(rng, 3)) for _ in range(n_points)]
    for _ in range(int(rng.integers(3))):
        lines = _mutate(rng, lines)
    return lines


def _outcome(load, path):
    """The float64 array a loader returns for ``path``, or its exception's type, text and line."""
    try:
        result = load(path)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return result.values if isinstance(result, geodata.RasterGrid) else result.points


@pytest.mark.filterwarnings("error")
class TestFastPathMatchesLineParser:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("load, case", [(geodata.load_raster, _grid_case),
                                            (geodata.load_point_cloud, _cloud_case)],
                             ids=["raster", "cloud"])
    def test_same_values_or_same_error(self, load, case, seed, tmp_path, monkeypatch):
        rng = np.random.default_rng(seed)
        read_numbers = geodata._read_numbers
        fast_reads = []

        def counted(*args, **kwargs):
            values = read_numbers(*args, **kwargs)
            fast_reads.append(values is not None)
            return values

        for k in range(150):
            path = tmp_path / f"case{k}.txt"
            _write(rng, path, case(rng))
            monkeypatch.setattr(geodata, "_read_numbers", counted)
            new = _outcome(load, path)
            monkeypatch.setattr(geodata, "_read_numbers", lambda *args, **kwargs: None)
            old = _outcome(load, path)  # the line parser alone
            if isinstance(old, np.ndarray):
                assert isinstance(new, np.ndarray) and new.dtype == np.float64, path.read_bytes()
                assert np.array_equal(new, old), path.read_bytes()
                assert np.array_equal(np.signbit(new), np.signbit(old)), path.read_bytes()
            else:
                assert new == old, path.read_bytes()
        assert sum(fast_reads) >= 30  # the comparison exercises the fast path

    @pytest.mark.parametrize("load, text", [
        (geodata.load_raster, "ncols 1\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n-0\n"),
        (geodata.load_raster, "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
                              "1 2 3\n\n4 5e-3 -9999\n"),
        (geodata.load_point_cloud, "1 2 3\n"),
        (geodata.load_point_cloud, "# a cloud\n  # indented\n\n1 2 3\r\n-4.5 5e1 6\n"),
    ])
    def test_valid_files_take_the_fast_path(self, load, text, tmp_path, monkeypatch):
        path = tmp_path / "valid.txt"
        path.write_bytes(text.encode("utf-8"))

        def refuse(*args):
            raise AssertionError("line parser called")

        monkeypatch.setattr(geodata, "_parse_rows", refuse)
        load(path)

    def test_valid_cloud_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "c.xyz"
        path.write_text("# a cloud\n1 2 3\n4 5 6\n")
        opened = []

        def counted(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(geodata, "open", counted, raising=False)
        assert geodata.load_point_cloud(path).points.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert opened == [path]

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "#a\n  # b\n\n"])
    def test_cloud_without_points_is_empty_input_without_warning(self, text, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyInput):
                geodata.load_point_cloud(path)


_HEAD = "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"

# (loader, file text, error type, message with {path} for the file, line)
BAD_NUMBER_FILES = [
    (geodata.load_raster, _HEAD + "1 2\nnan foo\n", ParseError,
     "line 7: non-finite cell: 'nan'", 7),
    (geodata.load_raster, _HEAD + "1 2\nfoo nan\n", ParseError,
     "line 7: non-numeric cell: 'foo'", 7),
    (geodata.load_raster, _HEAD + "1 2\n3 inf\n", ParseError,
     "line 7: non-finite cell: 'inf'", 7),
    (geodata.load_raster, _HEAD.replace("\n", "\r\n") + "1 2\r\n3\r\n", ParseError,
     "line 7: expected 2 cells, found 1", 7),
    (geodata.load_raster, _HEAD.replace("\n", "\r") + "1 2\r3 x4\r", ParseError,
     "line 7: non-numeric cell: 'x4'", 7),
    (geodata.load_raster, _HEAD + "1 2\n3 4\n\udce9\n", ParseError,
     "{path}: not UTF-8 text", None),
    (geodata.load_point_cloud, "0 0 1\n1 2 3 # note\n", ParseError,
     "line 2: expected 3 fields 'x y z', found 5", 2),
    (geodata.load_point_cloud, "# c\r\n0 0 1\r\n1 2\r\n", ParseError,
     "line 3: expected 3 fields 'x y z', found 2", 3),
    (geodata.load_point_cloud, "0 0 1\r1 2 nan\r", ParseError,
     "line 2: non-finite coordinate: 'nan'", 2),
    (geodata.load_point_cloud, "0 0 1\n1 2 3\n\udce9\n", ParseError,
     "{path}: not UTF-8 text", None),
    (geodata.load_point_cloud, "# only\n\n  # indented\n", EmptyInput,
     "no points in {path}", None),
    (geodata.load_point_cloud, "#a\r\n\r\n", EmptyInput, "no points in {path}", None),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("load, text, error, message, line", BAD_NUMBER_FILES,
                         ids=[f"{load.__name__}-{text!r}" for load, text, *_ in BAD_NUMBER_FILES])
def test_bad_number_files(load, text, error, message, line, tmp_path):
    # "\udce9" is written as the lone byte 0xe9, which is not UTF-8
    path = tmp_path / "bad.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(error) as caught:
        load(path)
    assert str(caught.value) == message.format(path=path)
    assert getattr(caught.value, "line", None) == line


_ROW_HEAD = "ncols 4\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"


# Characters str.splitlines breaks a line at and file iteration does not.
OTHER_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, blank", [
    (_ROW_HEAD + "1 2{}3 4\n", " "),
    (_ROW_HEAD + "1 2 3 4{}\n", " "),
    (_ROW_HEAD.replace("ncols 4", "ncols 4{}") + "1 2 3 4\n", " "),
    (_ROW_HEAD + "{}\n1 2 3 4\n", ""),
])
@pytest.mark.parametrize("brk", OTHER_BREAKS, ids=repr)
def test_raster_reads_other_line_breaks_as_blanks(text, blank, brk, tmp_path, monkeypatch):
    # a line ends only at \n, \r or \r\n, as in a point cloud; numpy's reader
    # and the line parser's str.split read any other break as whitespace
    path, plain = tmp_path / "grid.asc", tmp_path / "plain.asc"
    path.write_bytes(text.format(brk).encode("utf-8"))
    plain.write_bytes(text.format(blank).encode("utf-8"))
    expected = geodata.load_raster(plain)
    assert expected.values.tolist() == [[1, 2, 3, 4]]
    by_numpy = geodata.load_raster(path)
    monkeypatch.setattr(geodata, "_read_numbers", lambda *args, **kwargs: None)
    by_line_parser = geodata.load_raster(path)
    for grid in (by_numpy, by_line_parser):
        assert np.array_equal(grid.values, expected.values)
        assert (grid.geometry, grid.nodata) == (expected.geometry, expected.nodata)


@pytest.mark.parametrize("brk", OTHER_BREAKS, ids=repr)
def test_raster_header_line_with_another_line_break_is_a_header_fault(brk, tmp_path):
    path = tmp_path / "grid.asc"
    path.write_bytes((_ROW_HEAD.replace("\n", brk, 1) + "1 2 3 4\n").encode("utf-8"))
    with pytest.raises(ParseError) as caught:
        geodata.load_raster(path)
    assert str(caught.value) == f"line 1: expected 'ncols <value>', got {f'ncols 4{brk}nrows 1'!r}"
    assert caught.value.line == 1


def test_raster_text_is_not_held_whole(tmp_path):
    n = 200
    rng = np.random.default_rng(5)
    grid = geodata.RasterGrid(rng.uniform(0.05, 0.6, (n, n)), cell_size=1.0, origin_x=0.0,
                              origin_y=0.0)
    path = tmp_path / "grid.asc"
    geodata.write_raster(grid, path)
    assert path.stat().st_size > 2 * grid.values.nbytes
    tracemalloc.start()
    try:
        loaded = geodata.load_raster(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.values, grid.values)
    assert peak < 2 * grid.values.nbytes, peak


class TestRasterFallbackStreams:
    """A grid numpy rejects is read again line by line, never whole."""

    def test_a_row_too_many_is_counted_without_holding_the_text(self, tmp_path):
        n = 200
        rng = np.random.default_rng(5)
        grid = geodata.RasterGrid(rng.uniform(0.05, 0.6, (n, n)), cell_size=1.0, origin_x=0.0,
                                  origin_y=0.0)
        path = tmp_path / "grid.asc"
        geodata.write_raster(grid, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(" ".join(["0.5"] * n) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as caught:
                geodata.load_raster(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == "line 207: expected 200 data rows, found 201"
        assert peak < 2 * grid.values.nbytes, peak

    def test_a_bad_last_cell_is_parsed_without_a_float_object_per_cell(self, tmp_path):
        n = 200
        rng = np.random.default_rng(5)
        grid = geodata.RasterGrid(rng.uniform(0.05, 0.6, (n, n)), cell_size=1.0, origin_x=0.0,
                                  origin_y=0.0)
        path = tmp_path / "grid.asc"
        geodata.write_raster(grid, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[:-1] + "x\n", encoding="utf-8")  # numpy rejects the grid
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as caught:
                geodata.load_raster(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(caught.value) == f"line 206: non-numeric cell: {text.split()[-1] + 'x'!r}"
        assert peak < 2 * grid.values.nbytes, peak

    def test_a_header_fault_in_a_file_that_is_not_utf8(self, tmp_path):
        head = _HEAD.replace("nrows 2", "nrows x")
        rows = "1 2\n" * (70 * 1024 // 4)  # the bad byte lies past the first 64 KiB
        path = tmp_path / "grid.asc"
        path.write_bytes((head + rows).encode("utf-8"))
        with pytest.raises(ParseError, match="^line 2: non-numeric value for 'nrows': 'x'$"):
            geodata.load_raster(path)
        path.write_bytes((head + rows + "\udce9\n").encode("utf-8", "surrogateescape"))
        with pytest.raises(ParseError) as caught:
            geodata.load_raster(path)
        assert str(caught.value) == f"{path}: not UTF-8 text"

    def test_valid_grid_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "grid.asc"
        path.write_text(_HEAD + "1 2\n\n3 4\n")
        opened = []

        def counted(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(geodata, "open", counted, raising=False)
        assert geodata.load_raster(path).values.tolist() == [[1, 2], [3, 4]]
        assert opened == [path]


class TestPointCloudHandsNumpyTheFile:
    """numpy reads a cloud's open file past its leading blank and comment lines."""

    # each read: (numpy was handed the open file, numpy read the numbers)
    @pytest.mark.parametrize("text, reads", [
        ("# cloud\n\n  # xyz\n1 2 3\n4 5 6\n", [(True, True)]),
        ("1 2 3\r\n\r\n4 5 6\r\n", [(True, True)]),  # CRLF, with a blank line
        ("1 2 3\n   \n\t\n4 5 6", [(True, True)]),  # whitespace-only lines numpy skips
        # a comment further on is a token numpy rejects: the data lines are streamed
        ("# cloud\n1 2 3\n# mid\n4 5 6\n  #\n", [(True, False), (False, True)]),
        ("1 2 3\n4 x 6\n", [(True, False), (False, False)]),  # the line parser names the token
        ("# only\n\n  # comments\n", []),
    ])
    def test_same_points_or_error_as_the_line_parser(self, text, reads, tmp_path, monkeypatch):
        path = tmp_path / "c.xyz"
        path.write_bytes(text.encode("utf-8"))
        read_numbers, seen = geodata._read_numbers, []

        def counted(lines):
            values = read_numbers(lines)
            seen.append((isinstance(lines, io.TextIOBase), values is not None))
            return values

        monkeypatch.setattr(geodata, "_read_numbers", counted)
        new = _outcome(geodata.load_point_cloud, path)
        assert seen == reads
        monkeypatch.setattr(geodata, "_read_numbers", lambda *args, **kwargs: None)
        old = _outcome(geodata.load_point_cloud, path)
        if isinstance(old, np.ndarray):
            assert new.tobytes() == old.tobytes()
        else:
            assert new == old


# ---------------------------------------------------------------------------
# rasterize_elevation
# ---------------------------------------------------------------------------


class TestRasterizeElevation:
    def test_single_point_any_aggregator(self):
        cloud = geodata.PointCloud(points=np.array([[0.5, 0.5, 7.0]]))
        for agg in ("min", "max", "mean"):
            grid = geodata.rasterize_elevation(cloud, 1.0, agg)
            assert grid.values.shape == (1, 1)
            assert grid.values[0, 0] == 7.0

    def test_two_points_one_cell(self):
        cloud = geodata.PointCloud(points=np.array([[0.2, 0.2, 2.0], [0.8, 0.8, 4.0]]))
        assert geodata.rasterize_elevation(cloud, 1.0, "mean").values[0, 0] == 3.0
        assert geodata.rasterize_elevation(cloud, 1.0, "max").values[0, 0] == 4.0
        assert geodata.rasterize_elevation(cloud, 1.0, "min").values[0, 0] == 2.0

    @pytest.mark.parametrize("aggregator", ["min", "max", "mean"])
    def test_matches_bucketing_oracle_10k(self, aggregator):
        rng = np.random.default_rng(23)
        pts = np.column_stack([
            rng.uniform(-5, 12, 10_000),
            rng.uniform(3, 9, 10_000),
            rng.uniform(-2, 60, 10_000),
        ])
        cloud = geodata.PointCloud(points=pts)
        grid = geodata.rasterize_elevation(cloud, 0.75, aggregator)
        expected, ox, oy, n_cols, n_rows = rasterize_oracle(pts.tolist(), 0.75, aggregator)
        assert (grid.n_cols, grid.n_rows) == (n_cols, n_rows)
        assert (grid.origin_x, grid.origin_y) == (ox, oy)
        assert np.array_equal(grid.values, expected)

    @pytest.mark.parametrize("aggregator", ["min", "max", "mean"])
    def test_permutation_invariant(self, aggregator):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 4, size=(500, 3))
        pts[::2, 2] = rng.choice([0.0, -0.0], 250)  # signed-zero ties in most cells
        want = geodata.rasterize_elevation(geodata.PointCloud(points=pts), 0.5, aggregator)
        for _ in range(20):
            shuffled = geodata.PointCloud(points=pts[rng.permutation(500)])
            got = geodata.rasterize_elevation(shuffled, 0.5, aggregator)
            assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("aggregator", ["min", "max"])
    def test_min_max_match_the_oracle_bit_for_bit(self, aggregator):
        # lattice points: duplicates, several points per cell, and zeros of both signs
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            pts = np.column_stack([rng.integers(0, 8, n) * 0.25, rng.integers(0, 8, n) * 0.25,
                                   rng.choice([-1.5, -0.0, 0.0, 0.0, 2.0], n)])
            pts = np.concatenate([pts, pts[rng.integers(0, n, n // 3)]])
            grid = geodata.rasterize_elevation(geodata.PointCloud(points=pts), 0.5, aggregator)
            expected = rasterize_oracle(pts.tolist(), 0.5, aggregator)[0]
            assert grid.values.shape == expected.shape
            assert grid.values.tobytes() == expected.tobytes()

    def test_bad_cell_size(self):
        cloud = geodata.PointCloud(points=np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(InvalidInput):
            geodata.rasterize_elevation(cloud, 0.0, "mean")

    def test_point_on_snapped_edge(self):
        cloud = geodata.PointCloud(points=np.array([[1.0, 1.0, 3.0], [0.25, 0.25, 5.0]]))
        grid = geodata.rasterize_elevation(cloud, 1.0, "max")
        # both points land in the single [0,1)x[0,1) cell; 1.0 clamps inward
        assert grid.values.shape == (1, 1)
        assert grid.values[0, 0] == 5.0


# ---------------------------------------------------------------------------
# plot geometry and masks
# ---------------------------------------------------------------------------


class TestPlotGeometry:
    def test_needs_three_vertices(self):
        with pytest.raises(InvalidInput):
            geodata.PlotGeometry("p", "g", np.array([[0, 0], [1, 0]], float))

    def test_rejects_self_intersection(self):
        with pytest.raises(InvalidInput, match="self-intersect"):
            geodata.PlotGeometry(
                "p", "g", np.array([[0, 0], [3, 0], [1, 2], [2, -1]], float)
            )

    def test_rejects_zero_area_bowtie(self):
        with pytest.raises(InvalidInput):
            geodata.PlotGeometry(
                "p", "g", np.array([[0, 0], [1, 1], [1, 0], [0, 1]], float)
            )

    def test_rejects_zero_area(self):
        with pytest.raises(InvalidInput):
            geodata.PlotGeometry("p", "g", np.array([[0, 0], [1, 1], [2, 2]], float))

    def test_rejects_repeated_vertex(self):
        with pytest.raises(InvalidInput):
            geodata.PlotGeometry(
                "p", "g", np.array([[0, 0], [0, 0], [1, 0], [1, 1]], float)
            )


def selected(grid, region) -> np.ndarray:
    """``stack_cells(grid, [region])``'s cells expanded into a full-grid boolean array."""
    full = np.zeros(grid.values.size, dtype=bool)
    full[geodata.stack_cells(grid, [region]).flat] = True
    return full.reshape(grid.values.shape)


class TestPlotSelection:
    def test_square_covering_four_centers(self):
        grid = make_grid(np.zeros((4, 4)))
        plot = square_plot(1.0, 1.0, 3.0, 3.0)
        member = selected(grid, plot)
        assert member.sum() == 4
        assert member[1:3, 1:3].sum() == 4

    def test_plot_outside_grid(self):
        grid = make_grid(np.zeros((4, 4)))
        cells = geodata.stack_cells(grid, [square_plot(10.0, 10.0, 12.0, 12.0)])
        assert cells.sizes.tolist() == [0] and cells.flat.size == 0
        _, error = cells.first_failure()
        assert isinstance(error, EmptyPlot)

    def test_boundary_counts_as_inside(self):
        grid = make_grid(np.zeros((2, 2)))
        # right edge passes exactly through the centers at x = 0.5
        plot = square_plot(0.0, 0.0, 0.5, 2.0)
        assert selected(grid, plot)[:, 0].tolist() == [True, True]

    def test_agrees_with_oracle_on_random_polygons(self):
        rng = np.random.default_rng(31)
        grid = make_grid(np.zeros((12, 12)), cell_size=0.5)
        cx, cy = grid.cell_centers()
        for trial in range(100):
            plot = random_simple_polygon(rng, concave=trial % 2 == 0)
            member = selected(grid, plot)
            expected = np.array([
                [point_in_polygon_oracle(float(cx[i, j]), float(cy[i, j]), plot.vertices)
                 for j in range(12)]
                for i in range(12)
            ])
            assert np.array_equal(member, expected)


def contains(region, px, py):
    """Membership in ``region`` from the public polygon functions: inside the
    plot, or for a PlotWithRing also at boundary distance in (inner, outer]."""
    if isinstance(region, geodata.PlotGeometry):
        return geodata.point_in_polygon(px, py, region.vertices)
    vertices = region.plot.vertices
    d = geodata.distance_to_boundary(px, py, vertices)
    return geodata.point_in_polygon(px, py, vertices) | ((d > region.inner) & (d <= region.outer))


class TestPlotWithRing:
    def test_ring_area_matches_offset_formula(self):
        step = 0.002
        grid = make_grid(np.zeros((700, 700)), cell_size=step, origin=(-0.2, -0.2))
        plot = square_plot(0.0, 0.0, 1.0, 1.0)
        ring = selected(grid, geodata.PlotWithRing(plot, 0.0, 0.1)) & ~selected(grid, plot)
        area = float(ring.sum()) * step * step
        expected = 4 * 0.1 + math.pi * 0.01
        assert abs(area - expected) / expected < 0.01

    def test_inner_equal_outer_rejected(self):
        plot = square_plot(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidInput, match=r"0 <= inner < outer, got \(0.1, 0.1\)"):
            geodata.PlotWithRing(plot, 0.1, 0.1)

    @staticmethod
    def members_on_row(region):
        """{x: selected} along y = 0.5 for cell centers at x = 0, 1/16, ..., 31/16.

        The coordinates and their distances to the unit square are exact in binary.
        """
        grid = make_grid(np.zeros((1, 32)), cell_size=0.0625, origin=(-0.03125, 0.46875))
        x = grid.cell_centers()[0][0]
        assert x[8] == 0.5 and x[20] == 1.25
        return dict(zip(x.tolist(), selected(grid, region)[0].tolist()))

    def test_point_at_distance_inside_ring(self):
        plot = square_plot(0.0, 0.0, 1.0, 1.0)
        member = self.members_on_row(geodata.PlotWithRing(plot, 0.125, 0.25))
        ring = {x: m and not 0.0 <= x <= 1.0 for x, m in member.items()}
        assert ring[1.1875]  # distance 0.1875
        assert not ring[1.0625] and not ring[1.125]  # distance <= inner
        assert ring[1.25]  # exactly outer, inclusive
        assert not ring[1.3125]  # beyond outer
        assert member[0.5] and not ring[0.5]  # interior point: the plot's, not the ring's

    def test_union_with_plot(self):
        plot = square_plot(0.0, 0.0, 1.0, 1.0)
        member = self.members_on_row(geodata.PlotWithRing(plot, 0.0, 0.25))
        assert member[0.5]
        assert member[1.125]
        assert not member[1.5]


def random_region(rng, grid, with_ring, through_centers):
    """A random plot, or plot plus ring, sized and placed around ``grid``.

    Placement ranges from wholly inside to wholly off the grid. With
    ``through_centers`` every vertex sits exactly on a cell center, so edges
    pass through centers.
    """
    n_rows, n_cols = grid.values.shape
    scale = rng.uniform(0.2, 1.5) * min(n_rows, n_cols) / 6.0  # cells per polygon unit
    offset = rng.uniform(-1.2, 1.0, 2) * (n_cols, n_rows)
    xy = random_simple_polygon(rng, concave=bool(rng.integers(2))).vertices * scale + offset
    if through_centers:
        xy = np.floor(xy) + 0.5  # same arithmetic as the cell-center formula
    vertices = np.column_stack([
        grid.origin_x + xy[:, 0] * grid.cell_size,
        grid.origin_y + xy[:, 1] * grid.cell_size,
    ])
    plot = geodata.PlotGeometry("r", "g", vertices)
    if not with_ring:
        return plot
    inner = rng.uniform(0.0, 2.0) * grid.cell_size
    return geodata.PlotWithRing(plot, inner, inner + rng.uniform(0.1, 4.0) * grid.cell_size)


class TestOneRegionStack:
    @pytest.mark.parametrize("origin, cell_size", [
        ((0.0, 0.0), 0.5),
        ((500123.37, 4100456.11), 0.05),
        ((500123.37, 4100456.11), 1.0 / 3.0),
    ])
    def test_window_selection_equals_full_grid_test(self, origin, cell_size):
        rng = np.random.default_rng(2024)
        grid = make_grid(np.zeros((20, 28)), cell_size=cell_size, origin=origin)
        cx, cy = grid.cell_centers()
        outcomes = {"empty": 0, "selected": 0}
        cases = 0
        while cases < 600:
            try:
                region = random_region(rng, grid, with_ring=cases % 2 == 1,
                                       through_centers=cases // 2 % 2 == 0)
            except InvalidInput:  # snapping made the polygon degenerate
                continue
            cases += 1
            got = selected(grid, region)
            assert np.array_equal(got, contains(region, cx, cy))
            outcomes["selected" if got.any() else "empty"] += 1
        assert min(outcomes.values()) > 50

    def test_plot_matches_oracle_with_edges_through_centers(self):
        grid = make_grid(np.zeros((6, 6)), cell_size=0.05, origin=(500123.37, 4100456.11))
        cx, cy = grid.cell_centers()
        # corners on the centers of cells (1, 1) and (4, 3): edges run through centers
        plot = geodata.PlotGeometry("p", "g", np.array([
            [cx[4, 1], cy[4, 1]], [cx[4, 3], cy[4, 3]], [cx[1, 3], cy[1, 3]], [cx[1, 1], cy[1, 1]],
        ]))
        got = selected(grid, plot)
        expected = np.array([[point_in_polygon_oracle(float(cx[i, j]), float(cy[i, j]), plot.vertices)
                              for j in range(6)] for i in range(6)])
        assert np.array_equal(got, expected)
        assert got.sum() == 12

    @staticmethod
    def windows_of(monkeypatch, grid, region):
        """(the stack of ``region``, the (rows, cols) shape of each window ``_member`` tests)."""
        shapes = []
        member = geodata._member

        def recorded(px, py, vertices, inner, outer):
            shapes.append((py.shape[1], px.shape[2]))
            return member(px, py, vertices, inner, outer)

        monkeypatch.setattr(geodata, "_member", recorded)
        return geodata.stack_cells(grid, [region]), shapes

    def test_window_is_the_bounding_box_plus_margin(self, monkeypatch):
        grid = make_grid(np.zeros((100, 100)))
        cells, shapes = self.windows_of(
            monkeypatch, grid, square_plot(10.0, 20.0, 15.0, 22.0, plot_id="p7"))
        assert cells.plot_ids == ("p7",)
        assert shapes == [(4, 7)]  # 2 x 5 centers inside, one cell of margin per side
        assert cells.sizes.tolist() == [10]
        rows, cols = np.divmod(cells.flat, grid.n_cols)
        assert (sorted(set(rows.tolist())), sorted(set(cols.tolist()))) == ([78, 79], [10, 11, 12, 13, 14])

    def test_ring_window_is_padded_by_outer_width(self, monkeypatch):
        grid = make_grid(np.zeros((100, 100)))
        plot = square_plot(10.0, 20.0, 15.0, 22.0)
        cells, shapes = self.windows_of(monkeypatch, grid, geodata.PlotWithRing(plot, 0.0, 3.0))
        assert shapes == [(10, 13)]  # 8 x 11 centers within 3 of the plot
        assert 10 < cells.sizes[0] < 8 * 11

    def test_ring_region_is_named_by_its_plot(self):
        grid = make_grid(np.zeros((100, 100)))
        on = geodata.PlotWithRing(square_plot(10.0, 20.0, 15.0, 22.0, plot_id="p7"), 0.0, 3.0)
        cells = geodata.stack_cells(grid, [on])
        assert cells.plot_ids == ("p7",) and cells.first_failure() is None
        off = geodata.PlotWithRing(square_plot(110.0, 20.0, 115.0, 22.0, plot_id="p2"), 0.0, 3.0)
        _, error = geodata.stack_cells(grid, [off]).first_failure()
        assert (type(error), str(error)) == (EmptyPlot, "region p2 selects no cells of the grid")
        with pytest.raises(InvalidInput, match="^not a PlotGeometry or PlotWithRing: PlotCellSt"):
            geodata.stack_cells(grid, [cells])

    def test_reads_other_layers_of_the_same_geometry_only(self):
        grid = make_grid(np.arange(16.0).reshape(4, 4))
        cells = geodata.stack_cells(grid, [square_plot(1.0, 1.0, 3.0, 3.0, plot_id="p7")])
        same = grid.with_values(grid.values * 2)
        assert cells.gather(same).tolist() == [10.0, 12.0, 18.0, 20.0]
        other = make_grid(np.zeros((4, 4)), origin=(0.5, 0.0))
        for read in (cells.gather, cells.values, cells.ratios,
                     lambda m: cells.values(grid, restrict_to=m)):
            with pytest.raises(GeometryMismatch, match="^cells of region p7 were selected on grid"):
                read(other)

    def test_a_mask_of_the_geometry_must_be_a_binary_mask_grid(self):
        grid = make_grid(np.arange(16.0).reshape(4, 4))
        cells = geodata.stack_cells(grid, [square_plot(1.0, 1.0, 3.0, 3.0, plot_id="p7")])
        for read in (cells.ratios, lambda m: cells.values(grid, restrict_to=m)):
            with pytest.raises(GeometryMismatch):  # the geometry is checked first
                read(make_grid(np.ones((4, 4)), origin=(0.5, 0.0)))
            with pytest.raises(InvalidMask, match="^a mask of float64 cells is not a "
                                                  "geodata.binary_mask grid$"):
                read(grid.with_values(np.ones((4, 4))))

    def test_values_skip_nodata_and_cells_outside_the_mask(self):
        grid = make_grid(np.arange(32.0).reshape(4, 8))
        cells = geodata.stack_cells(grid, [square_plot(1.0, 1.0, 3.0, 3.0)])  # 9, 10, 17, 18
        layer = grid.with_values(np.where(grid.values == 10.0, -9999.0, grid.values))
        assert cells.values(layer)[0].tolist() == [9.0, 17.0, 18.0]
        mask = np.zeros((4, 8))
        mask[1, 1:3] = 1.0
        mask[2, 1:3] = -9999.0, 1.0
        mask = geodata.binary_mask(grid.with_values(mask))
        values, counts = cells.values(layer, restrict_to=mask)
        assert (values.tolist(), counts.tolist()) == ([9.0, 18.0], [2])
        assert cells.values(grid, restrict_to=mask)[0].tolist() == [9.0, 10.0, 18.0]

    def test_ratio_is_ones_over_all_cells(self):
        grid = make_grid(np.zeros((4, 8)))
        cells = geodata.stack_cells(grid, [square_plot(1.0, 1.0, 3.0, 3.0)])
        values = np.ones((4, 8))
        values[1, 1:3] = 0.0, -9999.0  # nodata counts as 0
        assert cells.ratios(geodata.binary_mask(grid.with_values(values.copy())))[0].tolist() == [0.5]
        values[0, 7] = 2.0  # far from the plot: the mask is checked over every cell
        with pytest.raises(InvalidMask, match="^mask holds non-binary value 2.0$"):
            geodata.binary_mask(grid.with_values(values))


def shifted(region, offset, plot_id):
    """``region`` moved by ``offset`` (x, y), its plot renamed ``plot_id``."""
    if isinstance(region, geodata.PlotGeometry):
        return geodata.PlotGeometry(plot_id, "g", region.vertices + offset)
    return geodata.PlotWithRing(shifted(region.plot, offset, plot_id), region.inner, region.outer)


class TestStackedSelection:
    @pytest.mark.parametrize("block", [None, 40])
    @pytest.mark.parametrize("origin, cell_size", [
        ((0.0, 0.0), 0.5),
        ((500123.37, 4100456.11), 0.05),
        ((500123.37, 4100456.11), 1.0 / 3.0),
    ])
    def test_stacked_selection_equals_one_region_at_a_time(
            self, origin, cell_size, block, monkeypatch):
        if block is not None:  # several blocks per group
            monkeypatch.setattr(geodata, "_BLOCK_CELLS", block)
        rng = np.random.default_rng(2024)
        grid = make_grid(np.zeros((20, 28)), cell_size=cell_size, origin=origin)
        cx, cy = grid.cell_centers()
        regions = []
        while len(regions) < 600:
            j = len(regions) // 3
            try:
                region = random_region(rng, grid, with_ring=j % 2 == 1, through_centers=j // 2 % 2 == 0)
            except InvalidInput:  # snapping made the polygon degenerate
                continue
            # whole-cell moves keep the window shape, so the copies stack with it
            moves = rng.integers(-3, 4, (2, 2)) * cell_size
            regions += [region] + [shifted(region, m, f"r{len(regions)}.{k}")
                                   for k, m in enumerate(moves)]
        groups: dict = {}  # regions per (kind, vertex count, window shape)
        n_tests = 0
        member = geodata._member

        def counted(px, py, vertices, inner, outer):
            nonlocal n_tests
            n_tests += 1
            key = (outer is None, vertices.shape[1], py.shape[1], px.shape[2])
            groups[key] = groups.get(key, 0) + len(px)
            return member(px, py, vertices, inner, outer)

        monkeypatch.setattr(geodata, "_member", counted)
        got = geodata.stack_cells(grid, regions)
        monkeypatch.setattr(geodata, "_member", member)
        # many regions were tested in stacks, which span several blocks of 40 cells
        assert sum(n for n in groups.values() if n > 1) > 60
        assert len({n_vertices for _, n_vertices, _, _ in groups}) == 5  # 4 to 8 vertices
        assert n_tests > len(groups) if block else n_tests == len(groups)
        assert got.plot_ids == tuple(region.plot_id for region in regions)
        assert got.flat.size == got.sizes.sum() and got.sizes.size == len(regions)
        top = grid.origin_y + grid.n_rows * cell_size
        right = grid.origin_x + grid.n_cols * cell_size
        outcomes = {"empty": 0, "selected": 0, "clipped": 0}
        for region, start, size in zip(regions, np.cumsum(got.sizes) - got.sizes, got.sizes):
            flat = got.flat[start:start + size]
            one = geodata.stack_cells(grid, [region])
            assert one.sizes.tolist() == [size] and flat.tobytes() == one.flat.tobytes()
            assert (np.diff(flat) > 0).all()  # row-major
            full = np.zeros(grid.values.size, dtype=bool)
            full[flat] = True
            assert np.array_equal(full.reshape(grid.values.shape), contains(region, cx, cy))
            if size == 0:
                outcomes["empty"] += 1
                continue
            outcomes["selected"] += 1
            x0, y0, x1, y1 = region.bounds()
            outcomes["clipped"] += (x0 < grid.origin_x or y0 < grid.origin_y
                                    or x1 > right or y1 > top)
        assert min(outcomes.values()) > 50

    def test_stacked_polygon_tests_equal_one_polygon_calls(self):
        rng = np.random.default_rng(5)
        polygons = [random_simple_polygon(rng, concave=k % 2 == 1).vertices for k in range(40)]
        # vertices at signed zeros, with edges along both axes
        polygons += [np.array([[-0.0, -0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                     np.array([[0.0, -1.0], [1.0, -0.0], [0.0, 1.0], [-1.0, 0.0]])]
        by_count: dict = {}
        for vertices in polygons:
            by_count.setdefault(len(vertices), []).append(vertices)
        for stack in by_count.values():
            stack = np.stack(stack)
            nxt = np.roll(stack, -1, axis=1)
            points = np.concatenate([
                stack,  # on every vertex
                (stack + nxt) / 2,  # on or next to every edge
                np.broadcast_to([[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 1.0], [0.5, -0.0]],
                                (len(stack), 5, 2)),
                rng.uniform(-1.0, 8.0, (len(stack), 30, 2)),
            ], axis=1)
            px, py = points[..., 0], points[..., 1]
            inside = geodata.point_in_polygon(px, py, stack)
            dist = geodata.distance_to_boundary(px, py, stack)
            assert inside.shape == dist.shape == px.shape
            for k, vertices in enumerate(stack):
                assert np.array_equal(inside[k], geodata.point_in_polygon(px[k], py[k], vertices))
                one = geodata.distance_to_boundary(px[k], py[k], vertices)
                assert dist[k].tobytes() == one.tobytes()
            assert inside[:, :len(stack[0])].all()  # vertices count as inside


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


class TestGridInvariants:
    def test_geometry_mismatch_detected(self):
        a = make_grid(np.zeros((2, 2)))
        b = make_grid(np.zeros((2, 2)), origin=(1.0, 0.0))
        with pytest.raises(GeometryMismatch):
            geodata.require_same_geometry(a, b)

    def test_values_are_read_only(self):
        grid = make_grid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            grid.values[0, 0] = 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_is_invalid(self, bad):
        values = np.zeros((2, 3))
        values[1, 2] = bad
        with pytest.raises(InvalidInput, match="grid values must be finite or the nodata sentinel"):
            make_grid(values)

    @pytest.mark.parametrize("nodata", [np.nan, np.inf])
    def test_non_finite_nodata_is_invalid(self, nodata):
        with pytest.raises(InvalidInput, match="nodata sentinel must be finite"):
            make_grid(np.full((2, 3), nodata), nodata=nodata)

    @pytest.mark.parametrize("values, nodata", [
        (np.full((2, 3), -9999.0), -9999.0),  # every cell is nodata
        (np.array([[0.0, -0.0, 0.5], [0.0, 0.0, -0.0]]), -0.0),  # 0.0 cells equal -0.0 nodata
        (np.array([[0.0, 1.0, 0.5], [0.0, 2.0, 3.0]]), -0.0),
    ])
    def test_finite_grid_with_nodata_cells_loads(self, values, nodata):
        grid = make_grid(values, nodata=nodata)
        assert np.array_equal(grid.values, values)
        assert np.array_equal(np.signbit(grid.values), np.signbit(values))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_property(self, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        grid = make_grid(rng.normal(size=(5, 7)), cell_size=0.25, origin=(-3.0, 2.0))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/g.asc"
            geodata.write_raster(grid, path)
            assert np.array_equal(geodata.load_raster(path).values, grid.values)


class TestBinaryMask:
    def test_the_ones_as_a_read_only_bool_grid_of_the_masks_geometry(self):
        mask = make_grid([[1.0, 0.0, -9999.0], [-0.0, 1.0, 1.0]], cell_size=0.25,
                         origin=(500123.37, 4100456.11))
        ones = geodata.binary_mask(mask)
        assert ones.values.dtype == bool and not ones.values.flags.writeable
        assert ones.values.tolist() == [[True, False, False], [False, True, True]]
        assert ones.geometry == mask.geometry
        assert ones.defined.all()  # no boolean equals the default sentinel

    @pytest.mark.parametrize("nodata, want", [
        (1.0, [False, False, False, False]),  # a sentinel of 1 is nodata, not a 1-cell
        (0.0, [True, False, True, False]),
        (-1.0, [True, False, True, False]),
    ])
    def test_nodata_is_false_whatever_the_sentinel(self, nodata, want):
        mask = make_grid([[1.0, 0.0, 1.0, 0.0]], nodata=nodata)
        assert geodata.binary_mask(mask).values.tolist() == [want]

    @pytest.mark.parametrize("values, bad", [
        ([[0.0, 1.0], [2.0, 0.5]], "2.0"),
        ([[0.0, 0.5], [2.0, 1.0]], "0.5"),
        ([[1.0, 1.0], [1.0, -1.0]], "-1.0"),
    ])
    def test_the_first_offending_cell_in_row_major_order_is_named(self, values, bad):
        with pytest.raises(InvalidMask, match=f"^mask holds non-binary value {bad}$"):
            geodata.binary_mask(make_grid(values))

    @pytest.mark.parametrize("nodata", [-9999.0, 0.0, 1.0])
    def test_a_bool_grid_is_returned_as_it_is_unless_its_sentinel_is_1(self, nodata):
        values = np.array([[True, False, True, False]])
        ones = geodata.RasterGrid(values, 1.0, 0.0, 0.0, nodata=nodata)
        converted = geodata.binary_mask(make_grid(values.astype(np.float64), nodata=nodata))
        got = geodata.binary_mask(ones)
        assert (got is ones) == (nodata != 1.0)
        assert got.values.dtype == bool and np.array_equal(got.values, converted.values)
        assert got.geometry == converted.geometry

    def test_a_grid_keeps_a_bool_array_and_makes_any_other_float64(self):
        ones = geodata.RasterGrid(np.array([[True, False]]), 1.0, 0.0, 0.0)
        assert ones.values.dtype == bool
        assert geodata.binary_mask(ones).values.tolist() == [[True, False]]
        for values in ([[1, 0]], np.array([[1, 0]], dtype=np.uint8), [[1.0, 0.0]]):
            assert geodata.RasterGrid(values, 1.0, 0.0, 0.0).values.dtype == np.float64


class TestLoadPlots:
    def test_loads_and_orders_vertices(self, tmp_path):
        path = tmp_path / "plots.csv"
        path.write_text(
            "plot_id,germplasm_id,vertex_index,x,y\n"
            "p1,g1,0,0,0\np1,g1,2,1,1\np1,g1,1,1,0\np1,g1,3,0,1\n"
            "p2,g2,0,5,5\np2,g2,1,6,5\np2,g2,2,6,6\n"
        )
        plots = geodata.load_plots(path)
        assert [p.plot_id for p in plots] == ["p1", "p2"]
        assert plots[0].vertices.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]
        assert plots[1].germplasm_id == "g2"

    def test_conflicting_germplasm_rejected(self, tmp_path):
        path = tmp_path / "plots.csv"
        path.write_text(
            "plot_id,germplasm_id,vertex_index,x,y\n"
            "p1,g1,0,0,0\np1,gX,1,1,0\np1,g1,2,1,1\n"
        )
        with pytest.raises(ParseError, match="conflicting"):
            geodata.load_plots(path)
